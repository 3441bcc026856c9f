"""Fixed-excitation subspaces of N qubits and restriction of channels onto them.

A subspace is the pair (n_sites, n_excited). Its basis is the ascending int64
array of full-space indices of the basis states with n_excited ones; qubit 0
is the most significant bit, so ascending order is lexicographic bitstring
order. Restricted coordinates are primary, and there is no dense embedding
isometry: the full 2^N space only appears when a full-space channel needs to
act, and then the embedding is a plain column selection of its Kraus array.

The two matrix-free restricted channels, ``RestrictedPartialTrace`` and
``bns.DetectorChannel``, share one gather-Gram engine: each output is a sum
of Gram matrices of small tables of summed amplitudes, one table per group
of a plan built once per channel, so neither forms a Kraus array, a Choi
matrix or any 2^N buffer. Their canonical states and Choi purities are exact
counts. ``restrict_channel`` pulls back any dense channel, and it is the
oracle both structured classes are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .channels import (
    QuantumChannel,
    _choi_matrix,
    _gated_linear_entropy,
    _state_block,
    choi_to_kraus,
)
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


def _popcount(values: np.ndarray, n_bits: int) -> np.ndarray:
    return sum(((values >> bit) & 1 for bit in range(n_bits)), np.zeros_like(values))


class _PatternGroup:
    """Gather, reduce and Gram step of one group of a gather-Gram plan.

    Basis state ``members[i]`` is summed into the cell (``row[i]``, column of
    label ``cols[i]``) of a table whose rows are the ascending output indices
    ``rows``. The Gram entries of the row pairs in the mask ``keep`` enter the
    output times ``coherence`` (an array of the mask's shape, or a scalar).
    ``work`` is the complex entries per state that one application allocates.
    """

    def __init__(self, members, rows, row, cols, keep, coherence, d_out: int):
        labels, col = np.unique(cols, return_inverse=True)
        key = row * labels.size + col
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        first, second = np.nonzero(keep)
        self.members = members[order]
        self.starts = starts if starts.size < members.size else None
        self.cells = key[starts]
        self.n_rows, self.n_cols = rows.size, labels.size
        self.gram_index = np.flatnonzero(keep)
        self.out_index = rows[first] * d_out + rows[second]
        self.coherence = np.broadcast_to(coherence, keep.shape)[keep]
        self.work = 2 * members.size + self.n_rows * (self.n_cols + self.n_rows) + 2 * first.size


class _GatherGramChannel:
    """Channel interface of the matrix-free restricted channels.

    The output for psi is the sum over the plan's groups of the kept entries of
    T T^dagger, T the group's table of summed amplitudes of psi. A subclass is a
    frozen dataclass with ``sub`` and ``dim_out``; it supplies ``_build_plan``,
    ``_canonical_diagonal``, ``choi_purity_routes`` and ``_outputs``, the name of
    its outputs in refusal messages.
    """

    @property
    def dim_in(self) -> int:
        return self.sub.d_r

    @cached_property
    def _plan(self) -> tuple[_PatternGroup, ...]:
        """The grouping plan, built once."""
        return self._build_plan()

    def _check_plan_bytes(self, memberships: int) -> None:
        """Refuse a plan above 512 MiB: three index entries per membership and per output entry."""
        _check_dense_bytes(8 * 3 * (memberships + self.dim_out**2),
                           f"the grouping plan of the {self.dim_in}-state {self._outputs} input")

    def apply_pure_batch(self, psis) -> np.ndarray:
        """Outputs for a (B, d_R) block of pure inputs, one per row.

        Refused above 512 MiB: the (B, dim_out, dim_out) outputs plus the largest
        group's gathered amplitudes, table, Gram matrices and selected entries.
        """
        psis = _state_block(psis, self.dim_in)
        b, d_out = psis.shape[0], self.dim_out
        what = f"{b} {self._outputs} outputs of dimension {d_out}"
        _check_dense_bytes(16 * b * d_out**2, what)
        _check_dense_bytes(16 * b * (d_out**2 + max(g.work for g in self._plan)),
                           f"{what} and their work arrays")
        out = np.zeros((b, d_out * d_out), dtype=np.complex128)
        for g in self._plan:
            sums = psis[:, g.members]
            if g.starts is not None:
                sums = np.add.reduceat(sums, g.starts, axis=1)
            table = np.zeros((b, g.n_rows, g.n_cols), dtype=np.complex128)
            table.reshape(b, -1)[:, g.cells] = sums
            gram = (table @ table.conj().transpose(0, 2, 1)).reshape(b, -1)
            out[:, g.out_index] = gram[:, g.gram_index] * g.coherence
        return out.reshape(b, d_out, d_out)

    def canonical_state(self) -> DensityOperator:
        """Diagonal image of the maximally mixed input.

        Refused above 512 MiB (the dense dim_out x dim_out matrix, 16 dim_out^2 bytes).
        """
        d = self.dim_out
        _check_dense_bytes(16 * d * d, f"the {d} x {d} canonical state")
        return DensityOperator(np.diag(self._canonical_diagonal().astype(np.complex128)),
                               validate=False)

    def linear_entropy(self) -> float:
        """1 - Choi purity, gated on the agreement of the two purity routes."""
        return _gated_linear_entropy(*self.choi_purity_routes())


@dataclass(frozen=True, eq=False)
class RestrictedPartialTrace(_GatherGramChannel):
    """Trace over the trailing N - split qubits, restricted to the n_excited subspace.

    Matrix-free form of ``restrict_channel(partial_trace_channel(2^split,
    2^(N - split)), enumerate_basis(N, n_excited))``, with the same channel
    interface: ``dim_in`` (d_R), ``dim_out`` (2^split), ``apply_pure_batch``,
    ``canonical_state``, ``choi_purity_routes`` and ``linear_entropy``. A
    subspace index x splits into the system pattern x >> (N - split) and the
    environment pattern x & (2^(N - split) - 1). A system pattern of weight w
    pairs only with environment patterns of weight Np - w, so the output for psi
    is block-diagonal in w, one Gram matrix per w; the canonical state is
    diagonal; and the Kraus operators have disjoint supports, so the Choi purity
    is a sum of squared environment-pattern counts.
    """

    n_sites: int
    n_excited: int
    split: int
    sub: ExcitationSubspace = field(init=False, repr=False)

    _outputs = "partial-trace"

    def __post_init__(self):
        if not 0 <= self.split <= self.n_sites:
            raise ValueError(f"split {self.split} outside [0, {self.n_sites}]")
        object.__setattr__(self, "sub", enumerate_basis(self.n_sites, self.n_excited))

    @property
    def dim_out(self) -> int:
        return 2**self.split

    def _patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """(system pattern, environment pattern) of every subspace basis state."""
        eq = self.n_sites - self.split
        return self.sub.indices >> eq, self.sub.indices & ((1 << eq) - 1)

    def _build_plan(self) -> tuple[_PatternGroup, ...]:
        """One group per system weight w, with every row pair kept at coherence 1.

        Rows are the system patterns of weight w and columns the environment
        patterns of weight Np - w, so the output is block-diagonal in w.
        """
        sys_pattern, env_pattern = self._patterns()
        weight = _popcount(sys_pattern, self.split)
        self._check_plan_bytes(self.dim_in)
        groups = []
        for w in np.unique(weight):
            members = np.flatnonzero(weight == w)
            rows, row = np.unique(sys_pattern[members], return_inverse=True)
            groups.append(_PatternGroup(members, rows, row, env_pattern[members],
                                        np.ones((rows.size,) * 2, dtype=bool), 1.0, self.dim_out))
        return tuple(groups)

    def _canonical_diagonal(self) -> np.ndarray:
        """System-pattern counts / d_R."""
        return np.bincount(self._patterns()[0], minlength=self.dim_out) / self.dim_in

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
