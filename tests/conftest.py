import numpy as np
import pytest

from qtypical import qcore
from qtypical.qcore import DensityOperator, _generator


@pytest.fixture
def small_dense_budget(monkeypatch):
    """Shrink the dense budget to 64 KiB, so refusal tests never need gigabytes."""
    monkeypatch.setattr(qcore, "_DENSE_BYTES_LIMIT", 2**16)
    return 2**16


def random_density(dim: int, seed: int) -> DensityOperator:
    rng = _generator(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = z @ z.conj().T
    return DensityOperator(m / np.trace(m).real)


def matrix_unit(i: int, j: int, dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def dense_choi_purity(ch) -> float:
    """Choi purity of a dense channel: the Choi matrix where it is small, else the Kraus Gram."""
    if (ch.dim_in * ch.dim_out) ** 2 <= 2**20:
        return ch.choi().purity()
    v = ch.kraus.reshape(ch.n_kraus, -1)
    return float(np.sum(np.abs(v @ v.conj().T) ** 2)) / ch.dim_in**2
