"""Fixed-excitation subspaces of N qubits and restriction of channels onto them.

A subspace is the pair (n_sites, n_excited). Its basis is the ascending int64
array of full-space indices of the basis states with n_excited ones; qubit 0
is the most significant bit, so ascending order is lexicographic bitstring
order. Restricted coordinates are primary, and there is no dense embedding
isometry: the full 2^N space only appears when a full-space channel needs to
act, and then the embedding is a plain column selection of its Kraus array.

The partial trace over trailing qubits, restricted to a subspace, is
``RestrictedPartialTrace``: it acts by scattering amplitudes into a
(2^split, 2^(N - split)) matrix, and its canonical state and Choi purity are
exact counts of basis states, so it never forms a Kraus array or a Choi
matrix; ``bns.DetectorChannel`` is the matrix-free restricted detector.
``restrict_channel`` pulls back any dense channel, and it is the oracle both
structured classes are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .channels import QuantumChannel, _choi_matrix, _gated_linear_entropy, choi_to_kraus
from .qcore import DensityOperator, DimensionError, _check_dense_bytes

__all__ = [
    "ExcitationSubspace",
    "RestrictedPartialTrace",
    "enumerate_basis",
    "restrict_channel",
    "effective_environment_dimension",
]

ENUMERATION_LIMIT = 30


@dataclass(frozen=True)
class ExcitationSubspace:
    """Span of the N-qubit basis states with n_excited ones.

    ``indices`` is the read-only, ascending int64 array of their full-space
    indices (qubit 0 most significant, so lexicographic bitstring order). It
    is built one bit at a time from the least significant end: a new top bit
    puts every number that has it after every number that lacks it, so each
    weight class stays sorted under concatenation. Classes that can no longer
    reach n_excited are dropped, so no 2^N intermediate is formed. An index
    array above the 512 MiB dense budget is refused before it is built.
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
        _check_dense_bytes(8 * comb(n, k), f"the C({n}, {k}) basis indices")
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
    """1 / purity of the environment marginal of the maximally mixed subspace state.

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
    return comb(sub.n_sites, sub.n_excited) ** 2 / _marginal_square_sum(sub.n_excited, sq, eq)


def _marginal_square_sum(n_excited: int, sq: int, eq: int) -> int:
    """sum_w C(eq, w) C(sq, n_excited - w)^2, the sum of squared environment-pattern counts."""
    return sum(comb(eq, w) * comb(sq, n_excited - w) ** 2
               for w in range(min(eq, n_excited) + 1))


@dataclass(frozen=True, eq=False)
class RestrictedPartialTrace:
    """Trace over the trailing N - split qubits, restricted to the n_excited subspace.

    Matrix-free form of ``restrict_channel(partial_trace_channel(2^split,
    2^(N - split)), enumerate_basis(N, n_excited))``, with the same channel
    interface: ``dim_in`` (d_R), ``dim_out`` (2^split), ``apply_pure_batch``,
    ``canonical_state``, ``choi_purity_routes`` and ``linear_entropy``. A
    subspace index x splits into the system pattern x >> (N - split) and the
    environment pattern x & (2^(N - split) - 1). So the output for psi is
    M M^dagger, where M is psi scattered into a (2^split, 2^(N - split))
    matrix; the canonical state is diagonal; and the Kraus operators have
    disjoint supports, so the Choi purity is a sum of squared
    environment-pattern counts.
    """

    n_sites: int
    n_excited: int
    split: int
    sub: ExcitationSubspace = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.split <= self.n_sites:
            raise ValueError(f"split {self.split} outside [0, {self.n_sites}]")
        object.__setattr__(self, "sub", enumerate_basis(self.n_sites, self.n_excited))

    @property
    def dim_in(self) -> int:
        return self.sub.d_r

    @property
    def dim_out(self) -> int:
        return 2**self.split

    def _patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """(system pattern, environment pattern) of every subspace basis state."""
        eq = self.n_sites - self.split
        return self.sub.indices >> eq, self.sub.indices & ((1 << eq) - 1)

    def apply_pure_batch(self, psis) -> np.ndarray:
        """Outputs tr_E |psi><psi| for a (B, d_R) block of pure inputs, one per row."""
        psis = np.asarray(psis, dtype=np.complex128)
        if psis.ndim != 2 or psis.shape[1] != self.dim_in:
            raise DimensionError(
                f"state block of shape {psis.shape} does not match input dim "
                f"{self.dim_in}"
            )
        b = psis.shape[0]
        # the scattered block, its conjugate and the outputs
        _check_dense_bytes(16 * b * (2 * 2**self.n_sites + self.dim_out**2),
                           f"{b} scattered 2^{self.n_sites} states and their outputs")
        full = np.zeros((b, 2**self.n_sites), dtype=np.complex128)
        full[:, self.sub.indices] = psis
        m = full.reshape(b, self.dim_out, -1)
        return m @ m.conj().transpose(0, 2, 1)

    def canonical_state(self) -> DensityOperator:
        """Diagonal image of the maximally mixed input: system-pattern counts / d_R.

        Refused above 512 MiB (the dense 2^split x 2^split matrix, 16 * 4^split bytes).
        """
        _check_dense_bytes(16 * self.dim_out**2,
                           f"the 2^{self.split} x 2^{self.split} canonical state")
        counts = np.bincount(self._patterns()[0], minlength=self.dim_out)
        return DensityOperator(np.diag((counts / self.dim_in).astype(np.complex128)),
                               validate=False)

    def choi_purity_routes(self) -> tuple[float, float]:
        """(closed-form Choi purity, purity counted from the enumerated indices).

        The closed form is sum_w C(eq, w) C(split, Np - w)^2 / C(N, Np)^2 in
        exact integers; the count is sum_j c_j^2 / d_R^2 over the
        environment-pattern counts c_j of the enumerated basis (the int64 sum
        is exact: it is at most d_R^2).
        """
        eq = self.n_sites - self.split
        closed = _marginal_square_sum(self.n_excited, self.split, eq) / self.dim_in**2
        counts = np.unique(self._patterns()[1], return_counts=True)[1]
        return closed, int(np.sum(counts * counts)) / self.dim_in**2

    def linear_entropy(self) -> float:
        """1 - Choi purity, gated on the agreement of the two purity routes."""
        return _gated_linear_entropy(*self.choi_purity_routes())

    @property
    def kraus(self) -> np.ndarray:
        """The 0/1 Kraus family K_j = sum_s |s><s, j| on the subspace, built on demand.

        One operator per environment pattern j, in the order ``restrict_channel``
        keeps them; when that exceeds d_R * dim_out operators only the nonzero
        ones are kept, which is a minimal family. Refused above 512 MiB.
        """
        sys_pattern, env_pattern = self._patterns()
        n_ops = 2 ** (self.n_sites - self.split)
        if n_ops > self.dim_in * self.dim_out:
            envs, env_pattern = np.unique(env_pattern, return_inverse=True)
            n_ops = envs.size
        _check_dense_bytes(16 * n_ops * self.dim_out * self.dim_in,
                           f"the {n_ops} restricted partial-trace Kraus operators")
        ops = np.zeros((n_ops, self.dim_out, self.dim_in), dtype=np.complex128)
        ops[env_pattern, sys_pattern, np.arange(self.dim_in)] = 1.0
        ops.setflags(write=False)
        return ops
