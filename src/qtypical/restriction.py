"""Fixed-excitation subspaces of N qubits and restriction of channels onto them.

A subspace is the pair (n_sites, n_excited). Its basis is the ascending int64
array of full-space indices of the basis states with n_excited ones; qubit 0
is the most significant bit, so ascending order is lexicographic bitstring
order. Restricted coordinates are primary, and there is no dense embedding
isometry: the full 2^N space only appears when a full-space channel needs to
act, and then the embedding is a plain column selection of its Kraus array.

The two matrix-free restricted channels, ``RestrictedPartialTrace`` and
``bns.DetectorChannel``, send each basis state to a pure output given by its
pattern. They share the exact quantities this gives (``_PatternChannel``), all
counts: d_R = C(N, Np), the diagonal canonical state, the Choi purity gated on
the integer equality of two exact routes (the second multiplies truncated
tables by shift-adds, ``_shift_add``), and the Lipschitz constant
``exact_eta``. Neither forms a Choi matrix or any 2^N buffer. The partial
trace gathers each output block from contiguous runs of the basis and takes
its distances block by block; the detector sums its input into the tables of
a grouping plan, sized from counts first. Only that plan and ``kraus`` enumerate a basis, through the one builder
of basis and pattern arrays, ``_weight_class``, which refuses numbers wider
than int64. ``restrict_channel`` pulls back any dense channel, and it is the
oracle both structured classes are tested against."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, inf

import numpy as np

from .channels import (
    ConsistencyError,
    QuantumChannel,
    _minimal_channel,
    _state_block,
)
from .qcore import DensityOperator, DimensionError, _check_dense_bytes

__all__ = [
    "ExcitationSubspace",
    "RestrictedPartialTrace",
    "enumerate_basis",
    "restrict_channel",
    "effective_environment_dimension",
]


@dataclass(frozen=True)
class ExcitationSubspace:
    """Span of the N-qubit basis states with n_excited ones.

    ``indices`` is the read-only, ascending int64 array of their full-space
    indices (qubit 0 most significant, so lexicographic bitstring order) from
    ``_weight_class``, refused above the 512 MiB dense budget before it is built.
    """

    n_sites: int
    n_excited: int
    indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, k = self.n_sites, self.n_excited
        _check_excitations(n, k)
        _check_dense_bytes(8 * comb(n, k), f"the C({n}, {k}) basis indices")
        indices = _weight_class(n, k)
        indices.setflags(write=False)
        object.__setattr__(self, "indices", indices)

    @property
    def d_r(self) -> int:
        return self.indices.size


def _check_excitations(n_sites: int, n_excited: int) -> None:
    """A ValueError unless 0 <= n_excited <= n_sites."""
    if not 0 <= n_excited <= n_sites:
        raise ValueError(f"excitation count {n_excited} outside [0, {n_sites}]")


def _weight_class(n_bits: int, weight: int) -> np.ndarray:
    """The ascending int64 array of the n_bits-bit numbers with ``weight`` ones.

    Built one bit at a time from the least significant end: a new top bit puts
    every number that has it after every number that lacks it, so each weight
    class stays sorted under concatenation. Classes that can no longer reach
    ``weight`` are dropped, so no 2^n_bits intermediate is formed. Numbers of more
    than 62 bits are refused: int64 holds no wider ones.
    """
    if n_bits > 62:
        raise DimensionError(f"{n_bits}-bit numbers exceed the int64 limit of 62 bits")
    empty = np.zeros(0, dtype=np.int64)
    by_weight = [np.zeros(1, dtype=np.int64)] + [empty] * weight  # the 0-bit numbers
    for m in range(n_bits):
        by_weight = [empty if w < weight - (n_bits - 1 - m) else np.concatenate(
            (by_weight[w], by_weight[w - 1] | (1 << m) if w else empty))
            for w in range(weight + 1)]
    return by_weight[weight]


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
    return _minimal_channel(ch.kraus[:, :, sub.indices], sub.d_r, ch.dim_out)


def effective_environment_dimension(sub, split: tuple[int, int]) -> float:
    """1 / purity of the environment marginal of the maximally mixed subspace state.

    ``sub`` is anything with ``n_sites`` and ``n_excited``, such as an
    ``ExcitationSubspace`` or a ``RestrictedPartialTrace``. ``split`` gives
    (system qubits, environment qubits), leading qubits first. The marginal is
    diagonal: an environment pattern of weight w carries C(sq, Np - w) of the
    C(N, Np) basis states, so the result is
    C(N, Np)^2 / sum_w C(eq, w) C(sq, Np - w)^2, divided in exact integers. Past
    the float range it is ``inf``: 1 / d_E_eff is then 0 at float precision, as
    the Choi purity of the channel reads 0.0.
    """
    sq, eq = split
    if sq + eq != sub.n_sites or sq < 0 or eq < 0:
        raise DimensionError(
            f"split {split} does not partition {sub.n_sites} qubits"
        )
    try:
        return comb(sub.n_sites, sub.n_excited) ** 2 / _marginal_square_sum(sub.n_excited, sq, eq)
    except OverflowError:
        return inf


def _marginal_square_sum(n_excited: int, sq: int, eq: int) -> int:
    """sum_w C(eq, w) C(sq, n_excited - w)^2, the sum of squared environment-pattern counts."""
    return sum(comb(eq, w) * comb(sq, n_excited - w) ** 2
               for w in range(min(eq, n_excited) + 1))


def _marginal_square_product(n_excited: int, sq: int, eq: int) -> int:
    """Table-product route to the same sum: [x^Np y^Np] (1 + x)^sq (1 + y)^sq (1 + xy)^eq.

    It counts the triples (s, s', e) of two system patterns and one environment
    pattern with |s| + |e| = |s'| + |e| = Np: the pairs of basis states that share
    their environment pattern. The product is three shift-add chains: (1 + x)^sq and
    (1 + y)^sq on the table, then (1 + xy)^eq on its main diagonal alone, as a column
    shifted one row down a step. That factor moves entries along diagonals only, so
    nothing off the main diagonal reaches [Np, Np], and the chains cost
    O(sq Np^2 + eq Np) shift-add entries, not O((2 sq + eq) Np^2).
    """
    table = _unit_table(n_excited)
    _shift_add(table, 1, 0, sq)
    _shift_add(table, 0, 1, sq)
    column = np.diagonal(table).copy()[:, None]
    return int(_shift_add(column, 1, 0, eq)[n_excited, 0])


def _unit_table(degree: int) -> np.ndarray:
    """The polynomial 1 as a table of exact integers up to ``degree`` in x and in y."""
    table = np.zeros((degree + 1, degree + 1), dtype=object)
    table[0, 0] = 1
    return table


def _shift_add(table: np.ndarray, dx: int, dy: int, power: int) -> np.ndarray:
    """``table`` times (1 + x^dx y^dy)^power in place, truncated to its shape; returns it.

    ``table[p, q]`` is the exact-integer coefficient of x^p y^q, and terms beyond the
    table are dropped. Each of the ``power`` factors is one shift-add of the table,
    moved dx rows down and dy columns right, onto itself; numpy buffers the
    overlapping operand, so each step adds the table as it was before the step. No
    product of integers is taken. At least one of dx and dy is positive.
    """
    rows, cols = table.shape
    if dx < rows and dy < cols:
        target, source = table[dx:, dy:], table[:rows - dx, :cols - dy]
        for _ in range(power):
            target += source
    return table


def _exact_purity_routes(closed_form: int, product: int, denominator: int
                         ) -> tuple[float, float]:
    """The two routes' purities, their exact numerators over ``denominator`` divided once.

    The numerators are compared as integers first, and any difference is a
    ConsistencyError: the float gate of ``ROUTE_TOL`` cannot see one once the purity
    itself is below that tolerance. The message gives the difference's size in bits,
    which stays printable however large the numerators are.
    """
    purities = closed_form / denominator, product / denominator
    if closed_form != product:
        raise ConsistencyError(
            f"the exact purity routes differ: closed form {purities[0]!r}, table product "
            f"{purities[1]!r}, numerators a {abs(product - closed_form).bit_length()}-bit "
            f"integer apart")
    return purities


class _PatternChannel:
    """Exact quantities shared by the matrix-free restricted channels.

    Both send a basis state x of the n_excited subspace of n_sites qubits to the pure
    output |p(x)><p(x)|, p(x) its pattern; ``dim_in`` is d_R = C(n_sites, n_excited),
    a count. A subclass supplies ``_canonical_diagonal`` (the diagonal of the canonical state),
    ``_pattern_count`` (the number of patterns that occur) and ``choi_purity_routes``.
    """

    @property
    def dim_in(self) -> int:
        return comb(self.n_sites, self.n_excited)

    def canonical_state(self) -> DensityOperator:
        """Diagonal image of the maximally mixed input.

        Refused above 512 MiB (the dense dim_out x dim_out matrix, 16 dim_out^2 bytes).
        """
        d = self.dim_out
        _check_dense_bytes(16 * d * d, f"the {d} x {d} canonical state")
        return DensityOperator(np.diag(self._canonical_diagonal().astype(np.complex128)),
                               validate=False)

    def exact_eta(self) -> float:
        """The exact trace-norm contraction coefficient eta of the channel: 1.0 or 0.0.

        Two basis states with different patterns have orthogonal pure outputs and reach
        the cap of 1. With one pattern the channel is constant and eta is 0. The
        patterns are counted exactly, with no array over the output basis.
        """
        return 1.0 if self._pattern_count() > 1 else 0.0


@dataclass(frozen=True, eq=False)
class RestrictedPartialTrace(_PatternChannel):
    """Trace over the trailing N - split qubits, restricted to the n_excited subspace.

    Matrix-free form of ``restrict_channel(partial_trace_channel(2^split,
    2^(N - split)), enumerate_basis(N, n_excited))``, with the same channel
    interface: ``dim_in`` (d_R = C(N, Np)), ``dim_out`` (2^split),
    ``apply_pure_batch``, ``distances_to_canonical``, ``canonical_state``,
    ``exact_eta`` and ``choi_purity_routes``. A subspace
    index x splits into the system pattern s = x >> (N - split) and the
    environment pattern x & (2^(N - split) - 1). The basis ascends with qubit 0
    most significant, so the states with system pattern s form one contiguous
    run of C(N - split, Np - |s|) states, ordered by environment pattern, and
    the runs come in ascending s. A system pattern of weight w pairs only with
    environment patterns of weight Np - w, so the output for psi is
    block-diagonal in w: block w is the Gram matrix of the table whose rows are
    the runs of the weight-w patterns, gathered from psi. Everything else is a
    count: the canonical state is diagonal, run length / d_R, so the distances
    are taken block by block; and the Kraus operators have disjoint supports,
    so the Choi purity is a sum of squared environment-pattern counts. Only
    ``kraus`` enumerates the basis; the system patterns are built directly, so
    any split up to the 62 bits of ``_weight_class`` works.
    """

    n_sites: int
    n_excited: int
    split: int

    def __post_init__(self):
        _check_excitations(self.n_sites, self.n_excited)
        if not 0 <= self.split <= self.n_sites:
            raise ValueError(f"split {self.split} outside [0, {self.n_sites}]")

    @property
    def dim_out(self) -> int:
        return 2**self.split

    @property
    def _weights(self) -> range:
        """The system weights w that occur: split >= w and N - split >= Np - w >= 0."""
        return range(max(0, self.n_excited - (self.n_sites - self.split)),
                     min(self.split, self.n_excited) + 1)

    def _run_length(self, w: int) -> int:
        """C(N - split, Np - w): the basis states of each system pattern of weight w."""
        return comb(self.n_sites - self.split, self.n_excited - w)

    @property
    def _block_shapes(self) -> list[tuple[int, int]]:
        """(patterns, run length) of each weight block's table."""
        return [(comb(self.split, w), self._run_length(w)) for w in self._weights]

    @cached_property
    def _runs(self) -> tuple:
        """(ascending system patterns, their run offsets, run length) per weight block.

        The run of pattern s starts after the runs of every smaller pattern; the
        weight-v patterns below s number ``searchsorted`` of s among them, and each
        has a run of C(N - split, Np - v) states. Patterns above 512 MiB are refused,
        and ``_weight_class`` refuses a split above 62 qubits.
        """
        _check_dense_bytes(8 * self._pattern_count(),
                           f"the system patterns of {self.split} qubits")
        patterns = [_weight_class(self.split, w) for w in self._weights]
        lengths = [self._run_length(w) for w in self._weights]
        return tuple((rows, sum(np.searchsorted(other, rows) * length
                                for other, length in zip(patterns, lengths)), width)
                     for rows, width in zip(patterns, lengths))

    def _pattern_count(self) -> int:
        return sum(comb(self.split, w) for w in self._weights)

    def _canonical_diagonal(self) -> np.ndarray:
        """Run length / d_R on each system pattern, the two counts divided once."""
        diagonal = np.zeros(self.dim_out)
        for rows, _, width in self._runs:
            diagonal[rows] = width / self.dim_in
        return diagonal

    @property
    def _row_bytes(self) -> int:
        """Bytes one row of ``apply_pure_batch`` allocates: its output plus the largest
        block's gather index (8 bytes an entry), table, conjugate table and Gram matrix."""
        return 16 * self.dim_out**2 + max(40 * r * c + 16 * r * r for r, c in self._block_shapes)

    def apply_pure_batch(self, psis) -> np.ndarray:
        """Outputs for a (B, d_R) block of pure inputs, one per row.

        Refused above 512 MiB (B ``_row_bytes``).
        """
        psis = _state_block(psis, self.dim_in)
        b, d_out = psis.shape[0], self.dim_out
        _check_dense_bytes(b * self._row_bytes, f"{b} partial-trace outputs of dimension "
                           f"{d_out} and their work arrays")
        out = np.zeros((b, d_out, d_out), dtype=np.complex128)
        for rows, offsets, width in self._runs:
            out[:, rows[:, None], rows] = _gram(_gather(psis, offsets, width))
        return out

    @property
    def _distance_row_bytes(self) -> int:
        """Bytes one row of ``distances_to_canonical`` allocates: the largest block's
        gather index, table, conjugate table and smaller Gram matrix, that Gram
        matrix's eigenvalues with two temporaries of their size, and the row's sums."""
        return max(40 * r * c + 16 * m * m + 8 * (3 * m + 2)
                   for r, c in self._block_shapes for m in [min(r, c)])

    def distances_to_canonical(self, psis) -> np.ndarray:
        """Trace distance of the output of each row of a (B, d_R) block to the canonical state.

        Block by block: on system weight w the output is A A^dagger, A the block's
        table, and the canonical state is c_w I with c_w = C(N - split, Np - w) / d_R,
        the table's column count over d_R. The m = min(rows, cols) eigenvalues lambda_i
        of the smaller Gram matrix, A A^dagger or A^dagger A, are the block's
        eigenvalues but for rows - m zeros, so the distance is
        1/2 sum_w [sum_i |lambda_i - c_w| + (rows - m) c_w]. No d_S x d_S output and no
        dense canonical state is formed. Refused above 512 MiB (B ``_distance_row_bytes``).
        """
        psis = _state_block(psis, self.dim_in)
        b = psis.shape[0]
        _check_dense_bytes(b * self._distance_row_bytes,
                           f"the distances of {b} partial-trace outputs by system weight")
        sums = np.zeros(b)
        for _, offsets, width in self._runs:
            sums += self._block_sums(_gather(psis, offsets, width))
        return 0.5 * sums

    def _block_sums(self, table: np.ndarray) -> np.ndarray:
        """sum_i |lambda_i - c_w| + (rows - m) c_w of one block's table, for each row.

        A function of its own, so that one block's arrays are released before the next
        block's are gathered.
        """
        n_rows, n_cols = table.shape[1:]
        adjoint = table.conj().transpose(0, 2, 1)
        gram = table @ adjoint if n_rows <= n_cols else adjoint @ table
        level = n_cols / self.dim_in
        zeros = max(n_rows - n_cols, 0)
        return np.sum(np.abs(np.linalg.eigvalsh(gram) - level), axis=1) + zeros * level

    def choi_purity_routes(self) -> tuple[float, float]:
        """(closed-form Choi purity, purity from the truncated table product).

        Both count the pairs of basis states that share an environment pattern,
        sum_w C(eq, w) C(split, Np - w)^2 and [x^Np y^Np] (1 + x)^split (1 + y)^split
        (1 + xy)^eq, in exact integers, checked equal and then each divided once by
        C(N, Np)^2 (``_exact_purity_routes``).
        """
        args = (self.n_excited, self.split, self.n_sites - self.split)
        return _exact_purity_routes(_marginal_square_sum(*args),
                                    _marginal_square_product(*args), self.dim_in**2)

    @property
    def kraus(self) -> np.ndarray:
        """The 0/1 Kraus family K_j = sum_s |s><s, j| on the subspace, built on demand.

        One operator per environment pattern j, in the order ``restrict_channel``
        keeps them; when that exceeds d_R * dim_out operators only the nonzero
        ones are kept, which is a minimal family. The only method that enumerates
        the basis. Refused above 512 MiB.
        """
        indices = enumerate_basis(self.n_sites, self.n_excited).indices
        eq = self.n_sites - self.split
        sys_pattern, env_pattern = indices >> eq, indices & ((1 << eq) - 1)
        n_ops = 2**eq
        if n_ops > self.dim_in * self.dim_out:
            envs, env_pattern = np.unique(env_pattern, return_inverse=True)
            n_ops = envs.size
        _check_dense_bytes(16 * n_ops * self.dim_out * self.dim_in,
                           f"the {n_ops} restricted partial-trace Kraus operators")
        ops = np.zeros((n_ops, self.dim_out, self.dim_in), dtype=np.complex128)
        ops[env_pattern, sys_pattern, np.arange(self.dim_in)] = 1.0
        ops.setflags(write=False)
        return ops


def _gather(psis: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
    """The (B, rows, width) table of each row of psis: row i is its run from offsets[i].

    ``np.take`` returns a C-contiguous table; a fancy-indexed ``psis[:, index]`` is
    not, and its Gram matrix can differ in the last bit.
    """
    return np.take(psis, offsets[:, None] + np.arange(width), axis=1)


def _gram(table: np.ndarray) -> np.ndarray:
    """T T^dagger of each (rows, cols) table of a (B, rows, cols) stack."""
    return table @ table.conj().transpose(0, 2, 1)
