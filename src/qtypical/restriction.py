"""Fixed-excitation subspaces of N qubits and restriction of channels onto them.

The restricted space is spanned by the computational basis strings with a
given number of excited sites. Restricted coordinates are primary; the full
2^N space only appears when a full-space channel needs to act, and then the
embedding is a plain column selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .channels import QuantumChannel, _choi_matrix, choi_to_kraus
from .qcore import DensityOperator, DimensionError

__all__ = [
    "ExcitationSubspace",
    "EmbeddingIsometry",
    "enumerate_basis",
    "microcanonical",
    "embedding",
    "restrict_channel",
    "effective_environment_dimension",
    "excitation_count",
]

DENSE_EMBEDDING_LIMIT = 14
ENUMERATION_LIMIT = 30


def excitation_count(s: str) -> int:
    """Hamming weight of a bitstring."""
    return s.count("1")


@dataclass(frozen=True)
class ExcitationSubspace:
    """Span of the N-bit strings with a fixed number of ones, in lexicographic order."""

    n_sites: int
    n_excited: int
    basis: tuple

    def __post_init__(self):
        if len(self.basis) != comb(self.n_sites, self.n_excited):
            raise ValueError("basis length does not match the binomial dimension")
        for s in self.basis:
            if len(s) != self.n_sites or excitation_count(s) != self.n_excited:
                raise ValueError(f"basis string {s!r} violates the excitation constraint")

    @property
    def d_r(self) -> int:
        return len(self.basis)

    @property
    def indices(self) -> tuple:
        """Full-space basis indices of the restricted basis strings."""
        return tuple(int(s, 2) for s in self.basis)


def enumerate_basis(n_sites: int, n_excited: int) -> ExcitationSubspace:
    """All strings of length n_sites with n_excited ones, lexicographically sorted."""
    if not 0 <= n_excited <= n_sites:
        raise ValueError(
            f"excitation count {n_excited} outside [0, {n_sites}]"
        )
    if n_sites > ENUMERATION_LIMIT:
        raise DimensionError(
            f"basis enumeration supports at most {ENUMERATION_LIMIT} sites; "
            "the exact combinatorial paths cover larger systems"
        )
    strings = []
    for ones in combinations(range(n_sites), n_excited):
        bits = ["0"] * n_sites
        for p in ones:
            bits[p] = "1"
        strings.append("".join(bits))
    strings.sort()
    return ExcitationSubspace(n_sites, n_excited, tuple(strings))


@dataclass(frozen=True, eq=False)
class EmbeddingIsometry:
    """Dense 2^N x d_R isometry whose columns are computational basis vectors."""

    matrix: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=np.complex128)
        d_r = w.shape[1]
        dev = float(np.max(np.abs(w.conj().T @ w - np.eye(d_r))))
        if dev > 1e-12:
            raise ValueError(f"W^dagger W deviates from the identity by {dev:.3e}")
        hits = np.flatnonzero(np.abs(np.abs(w) - 1.0) < 1e-12)
        if hits.size != d_r or np.count_nonzero(w) != d_r:
            raise ValueError("columns must be distinct computational basis vectors")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "matrix", w)


def embedding(sub: ExcitationSubspace) -> EmbeddingIsometry:
    """Dense embedding into the full qubit space; refuses to build above 14 sites."""
    if sub.n_sites > DENSE_EMBEDDING_LIMIT:
        raise DimensionError(
            f"dense embedding refused for {sub.n_sites} > {DENSE_EMBEDDING_LIMIT} "
            "sites; use the exact combinatorial paths instead"
        )
    w = np.zeros((2**sub.n_sites, sub.d_r), dtype=np.complex128)
    for col, idx in enumerate(sub.indices):
        w[idx, col] = 1.0
    return EmbeddingIsometry(w)


def microcanonical(sub: ExcitationSubspace) -> DensityOperator:
    """Maximally mixed state on the restricted space, in restricted coordinates."""
    d = sub.d_r
    return DensityOperator(np.eye(d, dtype=np.complex128) / d, validate=False)


def restrict_channel(ch: QuantumChannel, sub: ExcitationSubspace) -> QuantumChannel:
    """Pull a full-space channel back to restricted coordinates: Kraus {K_m W}.

    The embedding is a column selection, so no dense W is materialized. When
    the selected family exceeds the d_R*dim_out operator bound it is
    compressed through the Choi matrix to an equivalent minimal family.
    """
    if ch.dim_in != 2**sub.n_sites:
        raise DimensionError(
            f"channel input dim {ch.dim_in} does not match 2^{sub.n_sites}"
        )
    restricted = ch.kraus[:, :, list(sub.indices)]
    if restricted.shape[0] > sub.d_r * ch.dim_out:
        j = _choi_matrix(restricted, sub.d_r)
        return choi_to_kraus(j, dim_in=sub.d_r, dim_out=ch.dim_out)
    return QuantumChannel(sub.d_r, ch.dim_out, restricted)


def effective_environment_dimension(sub: ExcitationSubspace, split: tuple[int, int]) -> float:
    """1 / purity of the environment marginal of the embedded microcanonical state.

    ``split`` gives (system qubits, environment qubits), leading qubits first.
    The embedded microcanonical state is diagonal, so the marginal is
    accumulated exactly from integer counts of basis strings per environment
    pattern.
    """
    sq, eq = split
    if sq + eq != sub.n_sites or sq < 0 or eq < 0:
        raise DimensionError(
            f"split {split} does not partition {sub.n_sites} qubits"
        )
    counts = np.zeros(2**eq, dtype=np.int64)
    for s in sub.basis:
        counts[int(s[sq:], 2) if eq else 0] += 1
    total_sq = int(np.sum(counts.astype(object) ** 2))
    return sub.d_r**2 / total_sq
