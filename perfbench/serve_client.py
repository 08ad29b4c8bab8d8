"""Closed-loop HTTP client and model publisher for the ``serve`` workload.

Runs as its own process so the load generator never shares an
interpreter with the server under test.  Protocol on stdin/stdout:

0. started as ``serve_client.py REQUESTS.npy``, does its imports, loads
   the requests and prints ``loaded``, before the server exists;
1. reads one JSON config line, opens its persistent connections and
   prints ``ready CONNECT_SECONDS``, the time those connects took;
2. reads ``{"seconds": S}``, then for S seconds keeps one request in
   flight per connection (90% ``/v1/fill``, 10% ``/v1/whatif``) while a
   publisher thread writes a new model version into the store once per
   second; prints ``done`` when the window closes.  A what-if sets two
   attributes, or, with ``"scale": true`` in the config, sets one and
   scales another;
3. waits for requests still in flight, checks every 200 response
   against an offline ``BatchFiller.fill_batch`` with the model of the
   version it names, writes the results JSON and exits.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time

import numpy as np

from repro.core.model import RatioRuleModel
from repro.serve import BatchFiller
from repro.store import ModelStore

TIMEOUT_MS = 1000.0
WHATIF_SHARE = 0.1


def _payload(kind: str, spec) -> bytes:
    if kind == "fill":
        body = {"row": [None if np.isnan(v) else float(v) for v in spec]}
    else:
        body = {key: spec[key] for key in ("set", "scale") if spec[key]}
    body["timeout_ms"] = TIMEOUT_MS
    return json.dumps(body).encode()


def _connection_loop(
    conn, rng, requests, names, scale, end, records, lock
) -> None:
    while time.perf_counter() < end:
        row = requests[rng.integers(0, len(requests))]
        if rng.random() < WHATIF_SHARE:
            kind = "whatif"
            picked = rng.choice(len(names), 3, replace=False)
            value = row[picked[0]]
            if np.isnan(value):
                value = 20.0
            factor = float(rng.uniform(0.8, 1.2))
            if scale:
                spec = {
                    "set": {names[picked[0]]: float(value)},
                    "scale": {names[picked[1]]: factor},
                }
            else:
                spec = {
                    "set": {
                        names[picked[0]]: float(value),
                        names[picked[1]]: float(value) * factor,
                    },
                    "scale": {},
                }
        else:
            kind, spec = "fill", row
        sent = time.perf_counter()
        conn.request(
            "POST",
            f"/v1/{kind}",
            body=_payload(kind, spec),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = response.read()
        received = time.perf_counter()
        with lock:
            records.append((kind, spec, sent, received, response.status, body))


def _publisher(store, models, end, published) -> None:
    index = 0
    next_at = time.perf_counter() + 1.0
    while next_at < end:
        time.sleep(max(0.0, next_at - time.perf_counter()))
        path = models[1 + index % (len(models) - 1)]
        started = time.perf_counter()
        version = store.publish(RatioRuleModel.load(path)).version
        published.append((version, path, time.perf_counter() - started))
        index += 1
        next_at += 1.0


def _expected(model: RatioRuleModel, kind: str, spec, names) -> np.ndarray:
    if kind == "fill":
        row = np.asarray(spec, dtype=np.float64)
    else:
        row = np.full(len(names), np.nan)
        for name, value in spec["set"].items():
            row[names.index(name)] = value
        for name, factor in spec["scale"].items():
            j = names.index(name)
            row[j] = model.means_[j] * factor
    return BatchFiller(model).fill_batch(row[None, :]).filled[0]


def _check(record, models_by_version, names) -> bool:
    kind, spec, _, _, status, body = record
    if status != 200:
        return False
    answer = json.loads(body)
    model = models_by_version.get(answer.get("version"))
    if model is None or answer.get("fingerprint") != model.fingerprint():
        return False
    if kind == "fill":
        got = np.asarray(answer["filled"], dtype=np.float64)
    else:
        got = np.asarray([answer["values"][name] for name in names])
    want = _expected(model, kind, spec, names)
    return bool(np.array_equal(got, want) and not np.isnan(got).any())


def main(argv) -> int:
    requests = np.load(argv[0])
    print("loaded", flush=True)

    config = json.loads(sys.stdin.readline())
    models = config["models"]
    started = time.perf_counter()
    conns = [
        http.client.HTTPConnection("127.0.0.1", config["port"], timeout=60)
        for _ in range(config["connections"])
    ]
    for conn in conns:
        conn.connect()
    connect_s = time.perf_counter() - started
    store = ModelStore(config["store"])
    print(f"ready {connect_s!r}", flush=True)

    seconds = json.loads(sys.stdin.readline())["seconds"]
    records: list = []
    published: list = []
    lock = threading.Lock()
    start = time.perf_counter()
    end = start + seconds
    names = [f"col{j}" for j in range(requests.shape[1])]
    threads = [
        threading.Thread(
            target=_connection_loop,
            args=(
                conn,
                np.random.default_rng([config["seed"], i]),
                requests,
                names,
                config["scale"],
                end,
                records,
                lock,
            ),
        )
        for i, conn in enumerate(conns)
    ]
    threads.append(
        threading.Thread(target=_publisher, args=(store, models, end, published))
    )
    for thread in threads:
        thread.start()
    time.sleep(max(0.0, end - time.perf_counter()))
    window = time.perf_counter() - start
    print("done", flush=True)
    for thread in threads:
        thread.join()
    for conn in conns:
        conn.close()

    models_by_version = {config["seed_version"]: RatioRuleModel.load(models[0])}
    for version, path, _ in published:
        models_by_version[version] = RatioRuleModel.load(path)
    in_window = sorted(
        (r for r in records if r[3] <= end), key=lambda r: r[2]
    )
    ok = [_check(r, models_by_version, names) for r in in_window]
    result = {
        "latencies": [r[3] - r[2] for r in in_window],
        "ok": ok,
        "failures": ok.count(False),
        "unfinished": len(records) - len(in_window),
        "window_s": window,
        "publishes": len(published),
        "publish_s": sum(p[2] for p in published),
    }
    with open(config["out"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
