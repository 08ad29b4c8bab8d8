"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import RatioRuleModel
from repro.io.schema import TableSchema

#: The paper's Fig. 1 bread/butter matrix (5 customers x 2 products).
FIGURE1_MATRIX = np.array(
    [
        [0.89, 0.49],
        [3.34, 1.85],
        [5.00, 3.09],
        [1.78, 0.99],
        [4.02, 2.61],
    ]
)


@pytest.fixture
def figure1_matrix() -> np.ndarray:
    """Copy of the paper's Fig. 1 example matrix."""
    return FIGURE1_MATRIX.copy()


# -- shared synthetic-data factories (plain functions, import freely) ------


def make_rank2_matrix(seed: int, n_rows: int = 200, n_cols: int = 5) -> np.ndarray:
    """Rank-2 data with small noise; distinct per seed."""
    generator = np.random.default_rng(seed)
    factor1 = generator.normal(5.0, 2.0, size=n_rows)
    factor2 = generator.normal(0.0, 1.0, size=n_rows)
    loadings1 = np.array([1.0, 2.0, 0.5, 3.0, 1.5])[:n_cols]
    loadings2 = np.array([0.5, -1.0, 2.0, 0.0, -0.5])[:n_cols]
    matrix = np.outer(factor1, loadings1) + np.outer(factor2, loadings2)
    matrix += generator.normal(0.0, 0.05, size=matrix.shape)
    return matrix


def punch_holes(
    matrix: np.ndarray, generator: np.random.Generator, rate: float = 0.3
) -> np.ndarray:
    """Copy of ``matrix`` with a random ``rate`` of cells set to NaN."""
    holey = matrix.copy()
    holey[generator.random(matrix.shape) < rate] = np.nan
    return holey


def make_regime_matrix(
    seed: int,
    loadings=(1.0, 2.0, 0.5),
    n_rows: int = 400,
    noise: float = 0.05,
) -> np.ndarray:
    """Rank-1 transactions following one latent spending ratio."""
    generator = np.random.default_rng(seed)
    volume = generator.uniform(0.5, 4.0, size=n_rows)
    matrix = np.outer(volume, np.asarray(loadings, dtype=np.float64))
    matrix += generator.normal(0.0, noise, size=matrix.shape)
    return matrix


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def correlated_matrix(rng: np.random.Generator) -> np.ndarray:
    """A 300 x 5 matrix with rank-2 structure plus small noise."""
    n_rows = 300
    factor1 = rng.normal(5.0, 2.0, size=n_rows)
    factor2 = rng.normal(0.0, 1.0, size=n_rows)
    loadings1 = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
    loadings2 = np.array([0.5, -1.0, 2.0, 0.0, -0.5])
    matrix = np.outer(factor1, loadings1) + np.outer(factor2, loadings2)
    matrix += rng.normal(0.0, 0.05, size=matrix.shape)
    return matrix


@pytest.fixture
def correlated_model(correlated_matrix: np.ndarray) -> RatioRuleModel:
    """A k=2 model fitted on the rank-2 correlated matrix.

    The cutoff is fixed at 2 because the first factor alone covers the
    85% rule on this data, while the reconstruction tests rely on both
    factors being captured.
    """
    return RatioRuleModel(cutoff=2).fit(correlated_matrix)


@pytest.fixture
def small_schema() -> TableSchema:
    """A 3-column named schema."""
    return TableSchema.from_names(["bread", "milk", "butter"], unit="$")


def random_symmetric_psd(rng: np.random.Generator, size: int) -> np.ndarray:
    """Random symmetric positive semi-definite matrix."""
    a = rng.standard_normal((size + 2, size))
    return a.T @ a


def assert_eigenpairs_valid(matrix, eigenvalues, eigenvectors, atol=1e-8):
    """Shared eigenpair validity assertion: residual and orthonormality."""
    matrix = np.asarray(matrix, dtype=np.float64)
    residual = matrix @ eigenvectors - eigenvectors * eigenvalues[np.newaxis, :]
    scale = max(float(np.linalg.norm(matrix)), 1.0)
    assert np.linalg.norm(residual) / scale < atol
    gram = eigenvectors.T @ eigenvectors
    np.testing.assert_allclose(gram, np.eye(eigenvectors.shape[1]), atol=1e-7)


# -- HTTP response recording (plain helpers, import freely) ----------------


class RecordingWriter:
    """Wraps a request handler's ``wfile`` and records every write."""

    def __init__(self, inner, writes: list) -> None:
        self._inner = inner
        self._writes = writes

    def write(self, data) -> int:
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def recording_service(service_class, writes: list):
    """``service_class`` (an ``HttpService``) whose request handlers
    append every ``wfile.write`` payload to ``writes``."""

    class Recording(service_class):
        def _handler_class(self):
            base = super()._handler_class()

            class Handler(base):
                def setup(self) -> None:
                    super().setup()
                    self.wfile = RecordingWriter(self.wfile, writes)

            return Handler

    return Recording
