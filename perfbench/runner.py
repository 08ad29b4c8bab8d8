"""The program-under-test process of one benchmark run.

Invoked by ``run.py`` as::

    python3 perfbench/runner.py WORKLOAD.pickle SECONDS TRACE RESULT.json

It loads the prepared workload that ``run.py`` pickled, runs its
sessions (untraced, or half untraced and half traced), stops every
process the workload started, and writes the raw result as JSON.
"""

from __future__ import annotations

import json
import pickle
import sys

import harness


def main(argv) -> int:
    state, seconds, trace, out = argv
    with open(state, "rb") as handle:
        workload = pickle.load(handle)  # written by run.py of this run
    try:
        if int(trace):
            result = harness.run_traced(workload, float(seconds))
        else:
            result = harness.run_untraced(workload, float(seconds))
    finally:
        workload.close()
    with open(out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
