"""Dense complex linear algebra primitives: states, operators, Haar sampling, distances.

Conventions shared by every module in the package:

* the computational basis of ``n`` qubits is ordered lexicographically by
  bitstring, with qubit 0 the most significant bit;
* all arrays are ``complex128`` and immutable after construction;
* randomness is reproducible through ``derive_seed(master_seed, index)``,
  so results never depend on how work is split across threads;
* one size policy: ``_check_dense_bytes`` refuses, before allocating, any
  dense array above the 512 MiB budget with a ``DimensionError``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import InitVar, dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "StateVector",
    "DensityOperator",
    "HermitianOperator",
    "derive_seed",
    "haar_sample",
    "haar_unitary",
    "trace_distance",
    "hs_norm",
    "partial_trace",
]

_U64 = (1 << 64) - 1

HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
TRACE_TOL = 1e-10
_DENSE_BYTES_LIMIT = 512 * 2**20  # largest dense array the package may allocate


class DimensionError(ValueError):
    """Operands live on incompatible or invalid Hilbert space dimensions."""


def _check_dense_bytes(n_bytes: int, what: str) -> None:
    """Refuse, before allocating, a dense array above the 512 MiB budget."""
    if n_bytes > _DENSE_BYTES_LIMIT:
        raise DimensionError(f"{what} needs {n_bytes / 2**20:.0f} MiB (limit 512 MiB)")


def _as_matrix(a) -> np.ndarray:
    """Accept either a wrapped operator or a bare ndarray."""
    return a.matrix if hasattr(a, "matrix") else np.asarray(a, dtype=np.complex128)


_HERMITIAN_BLOCK = 2**14  # entries per row block of the hermiticity check


def _check_hermitian(m: np.ndarray, tol: float) -> None:
    """Largest |m - m^dagger| entry within tol, checked in row blocks of at most
    _HERMITIAN_BLOCK entries, so the check adds no temporary the size of m."""
    rows = max(1, _HERMITIAN_BLOCK // m.shape[1])
    dev = float(np.max([np.max(np.abs(m[i:i + rows] - m[:, i:i + rows].conj().T))
                        for i in range(0, m.shape[0], rows)]))
    if not dev <= tol:  # also rejects NaN entries
        raise ValueError(f"matrix deviates from Hermitian by {dev:.3e} (> {tol:.0e})")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit vector in a finite-dimensional complex Hilbert space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise DimensionError("state vector must be a nonempty 1-d array")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"state vector norm {norm!r} is not 1 within 1e-12")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator.

    ``validate=False`` skips the eigenvalue check for internal callers that
    construct the matrix from an already-verified recipe; public entry
    points always validate.
    """

    matrix: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        m = np.array(self.matrix, dtype=np.complex128)  # the one copy that is kept
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DimensionError("density operator must be a square nonempty matrix")
        _check_hermitian(m, HERMITICITY_TOL)
        tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within {TRACE_TOL:.0e}")
        if validate:
            low = float(np.linalg.eigvalsh(m)[0])
            if not low >= EIGENVALUE_FLOOR:
                raise ValueError(
                    f"minimum eigenvalue {low:.3e} is below the PSD floor {EIGENVALUE_FLOOR:.0e}"
                )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian matrix without positivity or trace constraints."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)  # the one copy that is kept
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DimensionError("operator must be a square nonempty matrix")
        _check_hermitian(m, HERMITICITY_TOL)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit per-index seed.

    The value depends only on ``(master_seed, index)``, never on platform,
    thread layout, or call order, which is what makes parallel sampling
    reproducible.
    """
    payload = struct.pack("<QQ", master_seed & _U64, index & _U64)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & _U64))


def haar_sample(dim: int, seed: int) -> StateVector:
    """Draw a pure state from the unitarily invariant measure.

    2*dim independent standard Gaussians are assembled into a complex vector
    and normalized; rotational invariance of the Gaussian makes the result
    exactly Haar distributed. Deterministic for a fixed seed.
    """
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    rng = _generator(seed)
    parts = rng.standard_normal((2, dim))
    z = parts[0] + 1j * parts[1]
    return StateVector(z / np.linalg.norm(z))


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix with phase fix.

    Refused above 512 MiB (16 dim^2 bytes).
    """
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    _check_dense_bytes(16 * dim**2, f"the {dim} x {dim} Haar unitary")
    rng = _generator(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def trace_distance(a, b) -> float:
    """Half the trace norm of (a - b), from eigenvalues of the Hermitian difference."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    eigs = np.linalg.eigvalsh(ma - mb)
    return 0.5 * float(np.sum(np.abs(eigs)))


def hs_norm(a) -> float:
    """Hilbert-Schmidt norm sqrt(tr(a^dagger a))."""
    m = _as_matrix(a)
    return float(np.sqrt(np.sum(np.abs(m) ** 2)))


def _partial_trace_matrix(m: np.ndarray, keep: str, dims: tuple[int, int]) -> np.ndarray:
    d_a, d_b = dims
    if m.shape != (d_a * d_b, d_a * d_b):
        raise DimensionError(
            f"matrix of dim {m.shape[0]} does not factor as {d_a} x {d_b}"
        )
    t = m.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("abcb->ac", t)
    if keep == "B":
        return np.einsum("abac->bc", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_trace(rho, keep: str, dims: tuple[int, int]) -> DensityOperator:
    """Reduced state on the kept tensor factor.

    Parameters
    ----------
    rho : DensityOperator or ndarray on dimension dims[0]*dims[1]
    keep : "A" for the leading factor, "B" for the trailing one
    dims : (d_A, d_B) factor dimensions, leading factor first
    """
    reduced = _partial_trace_matrix(_as_matrix(rho), keep, dims)
    return DensityOperator(reduced)
