import numpy as np

from qtypical.qcore import DensityOperator, _generator


def random_density(dim: int, seed: int) -> DensityOperator:
    rng = _generator(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = z @ z.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = _generator(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def matrix_unit(i: int, j: int, dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[i, j] = 1.0
    return m
