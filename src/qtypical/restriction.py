"""Fixed-excitation subspaces of N qubits and restriction of channels onto them.

A subspace is the pair (n_sites, n_excited). Its basis is the ascending int64
array of full-space indices of the basis states with n_excited ones; qubit 0
is the most significant bit, so ascending order is lexicographic bitstring
order. Restricted coordinates are primary; the full 2^N space only appears
when a full-space channel needs to act, and then the embedding is a plain
column selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
]

DENSE_EMBEDDING_LIMIT = 14
ENUMERATION_LIMIT = 30


@dataclass(frozen=True)
class ExcitationSubspace:
    """Span of the N-qubit basis states with n_excited ones.

    ``indices`` is the read-only, ascending int64 array of their full-space
    indices (qubit 0 most significant, so lexicographic bitstring order). It
    is built one bit at a time from the least significant end: a new top bit
    puts every number that has it after every number that lacks it, so each
    weight class stays sorted under concatenation. Classes that can no longer
    reach n_excited are dropped, so no 2^N intermediate is formed.
    """

    n_sites: int
    n_excited: int
    indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, k = self.n_sites, self.n_excited
        if not 0 <= k <= n:
            raise ValueError(f"excitation count {k} outside [0, {n}]")
        if n > ENUMERATION_LIMIT:
            raise DimensionError(
                f"basis enumeration supports at most {ENUMERATION_LIMIT} sites; "
                "the exact combinatorial paths cover larger systems"
            )
        empty = np.zeros(0, dtype=np.int64)
        by_weight = [np.zeros(1, dtype=np.int64)] + [empty] * k  # the 0-bit numbers
        for m in range(n):
            by_weight = [empty if w < k - (n - 1 - m) else np.concatenate(
                (by_weight[w], by_weight[w - 1] | (1 << m) if w else empty))
                for w in range(k + 1)]
        by_weight[k].setflags(write=False)
        object.__setattr__(self, "indices", by_weight[k])

    @property
    def d_r(self) -> int:
        return self.indices.size


def enumerate_basis(n_sites: int, n_excited: int) -> ExcitationSubspace:
    """Subspace of n_sites qubits with n_excited ones; indices ascend, qubit 0 most significant."""
    return ExcitationSubspace(n_sites, n_excited)


@dataclass(frozen=True, eq=False)
class EmbeddingIsometry:
    """Dense 2^N x d_R isometry whose columns are computational basis vectors."""

    matrix: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=np.complex128)
        d_r = w.shape[1]
        dev = float(np.max(np.abs(w.conj().T @ w - np.eye(d_r))))
        if not dev <= 1e-12:  # also rejects NaN entries
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
    w[sub.indices, np.arange(sub.d_r)] = 1.0
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
    restricted = ch.kraus[:, :, sub.indices]
    if restricted.shape[0] > sub.d_r * ch.dim_out:
        j = _choi_matrix(restricted, sub.d_r)
        return choi_to_kraus(j, dim_in=sub.d_r, dim_out=ch.dim_out)
    return QuantumChannel(sub.d_r, ch.dim_out, restricted)


def effective_environment_dimension(sub: ExcitationSubspace, split: tuple[int, int]) -> float:
    """1 / purity of the environment marginal of the embedded microcanonical state.

    ``split`` gives (system qubits, environment qubits), leading qubits first.
    The marginal is diagonal: an environment pattern of weight w carries
    C(sq, Np - w) of the C(N, Np) basis states, so the result is
    C(N, Np)^2 / sum_w C(eq, w) C(sq, Np - w)^2, divided in exact integers.
    """
    sq, eq = split
    if sq + eq != sub.n_sites or sq < 0 or eq < 0:
        raise DimensionError(
            f"split {split} does not partition {sub.n_sites} qubits"
        )
    k = sub.n_excited
    total_sq = sum(comb(eq, w) * comb(sq, k - w) ** 2 for w in range(min(eq, k) + 1))
    return comb(sub.n_sites, k) ** 2 / total_sq
