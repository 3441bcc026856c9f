"""Blurred-and-saturated detector channel and its exact canonical statistics.

A block of n two-level atoms read out by a detector that cannot resolve
individual sites behaves as one effective atom: excited when at least one
site is excited. The block map sends basis projectors accordingly, keeps
the coherence between the all-ground string and any excited string with the
largest factor compatible with complete positivity, 1/sqrt(2^n - 1), and
kills every other coherence.

The dense channel objects cover small, unrestricted systems: a tensor power
whose Kraus array would exceed the 512 MiB dense budget is refused, which
happens for every N >= 13. On the fixed-excitation subspace the detector is
``DetectorChannel``, which is matrix-free: it acts through the occupancy
pattern of each basis state, its canonical state is the exact spectrum, and
its Choi purity is an exact count from a generating function, so it never
forms the tensor power or a Choi matrix, and only the plan that applies it
and its on-demand Kraus family enumerate a basis. It counts its spectrum once,
and its row bytes check its plan from those counts before any draw or index array.

The canonical spectrum and the two excitation-count distributions are exact
integer counts of excitation patterns over their one common denominator
C(N, Np), and stay valid up to N = 10000 and beyond; the detector's law is the
spectrum's own ``sectors``, so its counts are checked once. Their binomials come in
rows from exact ratio recurrences (``_binomial_row``), one big-integer
product and one exact division per entry, instead of one ``math.comb`` each;
the hypergeometric counts of the kept-sites law come from their own ratio
recurrence, one product and one exact division by small integers per row.
The alternating sum for the canonical weights cancels catastrophically in
floating point at large N, so it is taken in integers. Construction checks
that every count is nonnegative and that the counts add up to exactly the
total, which is the exact "sums to 1" guarantee. The only float is a count
divided by the total, taken once per row at the output boundary. The exact
CSV reduces each row to lowest terms: by one gcd of its count and the total
in general, and for the hypergeometric law from the row before and the small
ratio between them, with two gcds of a big and a small integer, so that only
its first row pays a full gcd. Its integers may have any number of digits.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, perm
from operator import sub

import numpy as np

from . import qcore
from .channels import (
    KRAUS_EIGENVALUE_CUTOFF,
    QuantumChannel,
    _EigensolveDistances,
    _state_block,
    tensor,
)
from .qcore import FLOAT_FORMAT, DimensionError, _check_dense_bytes, _write_lines
from .restriction import (
    _check_excitations,
    _exact_purity_routes,
    _gram,
    _PatternChannel,
    _shift_add,
    _unit_table,
    enumerate_basis,
)

__all__ = [
    "BLOCK_LIMIT",
    "block_choi",
    "block_channel",
    "bns_channel",
    "DetectorChannel",
    "BnSCanonicalSpectrum",
    "canonical_spectrum",
    "ExactDistribution",
    "energy_distribution_trace",
    "energy_distribution_bns",
    "write_distribution_csv",
]

BLOCK_LIMIT = 10   # largest block; its Choi oracle has size 2^(n+1)


def _check_block_size(n: int) -> None:
    if n < 1:
        raise DimensionError("block size must be >= 1")
    if n > BLOCK_LIMIT:
        raise DimensionError(f"block size {n} exceeds the dense limit {BLOCK_LIMIT}")


def block_choi(n: int) -> np.ndarray:
    """Choi matrix of the n-site block map.

    Its coherence factor 1/sqrt(2^n - 1) sits exactly on the complete-positivity
    boundary: any larger factor produces a negative eigenvalue.
    """
    _check_block_size(n)
    d = 2**n
    j = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    # index convention: output bit leading, so (bit, s) -> bit * d + s
    j[0, 0] = 1.0 / d
    for s in range(1, d):
        j[d + s, d + s] = 1.0 / d
    c = 1.0 / np.sqrt(d - 1.0)
    for s in range(1, d):
        j[0, d + s] = c / d
        j[d + s, 0] = c / d
    return j


def block_channel(n: int) -> QuantumChannel:
    """Detector map for one block of n atoms: 2^n-dimensional input, qubit output.

    Closed-form minimal Kraus family K_s = |1><s| + (2^n - 1)^(-1/2) |0><0|,
    s = 1 .. 2^n - 1; ``block_choi`` is the independent Choi-matrix oracle.
    """
    _check_block_size(n)
    d = 2**n
    ops = np.zeros((d - 1, 2, d), dtype=np.complex128)
    ops[np.arange(d - 1), 1, np.arange(1, d)] = 1.0
    ops[:, 0, 0] = 1.0 / np.sqrt(d - 1.0)
    return QuantumChannel(d, 2, ops)


def bns_channel(n_sites: int, n_blocks: int) -> QuantumChannel:
    """Tensor power of the block map over n_blocks equal blocks of N/k sites.

    Refused before allocating when its Kraus array, (2^(N/k) - 1)^k
    operators of 2^k x 2^N, would exceed 512 MiB; that is at least
    16 * 4^N bytes, so every N >= 13 is refused.
    """
    n = _block_size(n_sites, n_blocks)
    _check_dense_bytes((2**n - 1) ** n_blocks * 2 ** (n_blocks + n_sites) * 16,
                       f"the dense channel for N = {n_sites}, k = {n_blocks}")
    return tensor(*[block_channel(n)] * n_blocks)


def _block_size(n_sites: int, n_blocks: int) -> int:
    """Sites per block, N/k; a DimensionError when k does not divide N."""
    if n_blocks < 1 or n_sites % n_blocks != 0:
        raise DimensionError(
            f"{n_blocks} blocks do not evenly divide {n_sites} sites"
        )
    return n_sites // n_blocks


def _binomial_row(top: int, bottom: int, count: int, top_step: int = 0) -> list[int]:
    """``count`` binomials from C(top, bottom), each from the last by an exact ratio.

    With ``top_step`` 0 the lower index advances, C(top, bottom + i), through
    C(t, b + 1) = C(t, b) (t - b) // (b + 1); otherwise the upper index does,
    C(top + i top_step, bottom), through
    C(t + s, b) = C(t, b) perm(t + s, s) // perm(t + s - b, s). Each entry costs one
    big-integer product and one exact division. In a column a zero entry (b > t)
    has no ratio, so the next entry comes from ``math.comb``, which returns a zero
    at once: a column pays one full ``comb``, at its first nonzero entry.
    """
    value = comb(top, bottom)
    row = [value]
    for _ in range(count - 1):
        if top_step:
            top += top_step
            value = (value * perm(top, top_step) // perm(top - bottom, top_step) if value
                     else comb(top, bottom))
        else:
            value = value * (top - bottom) // (bottom + 1)
            bottom += 1
        row.append(value)
    return row


def _occupied_counts(n: int, n_excited: int, j_max: int) -> list[int]:
    """alpha_j = [u^Np] ((1 + u)^n - 1)^j for j = 0 .. j_max.

    The number of ways to place Np excitations in j blocks of n sites with no
    block empty; inclusion-exclusion over the empty blocks gives
    alpha_j = sum_q (-1)^(j - q) C(j, q) C(n q, Np), with C(a, b) = 0 for b > a.
    That sum is the j-th forward difference at 0 of b_q = C(n q, Np), so it is
    evaluated as a difference table: each row holds the differences of the row
    above, and alpha_j is the leading entry of row j. The b_q are one
    ``_binomial_row`` column, and the table takes j_max (j_max + 1) / 2
    big-integer subtractions and no big products, each row one ``map`` of
    ``operator.sub``.
    """
    row = _binomial_row(0, n_excited, j_max + 1, top_step=n)
    counts = []
    while row:
        counts.append(row[0])
        row = list(map(sub, row[1:], row))  # each entry minus the one before it
    return counts


@dataclass(frozen=True)
class BnSCanonicalSpectrum:
    """Exact spectrum of the canonical state of the block-detector channel.

    ``counts[m]`` is the number of excitation patterns that occupy exactly a
    given set of m blocks, and ``total`` their common denominator C(N, Np), so
    each output basis string with m excited effective atoms has the weight
    counts[m] / total. ``sectors`` is the law of m, the detector's
    excitation-count distribution: the ``ExactDistribution`` of the sector
    counts C(k, m) counts[m] over ``total``, whose construction checks that they
    are nonnegative and add up to exactly ``total``.
    """

    N: int
    Np: int
    k: int
    counts: dict
    total: int
    sectors: ExactDistribution = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(not 0 <= m <= self.k for m in self.counts):
            raise ValueError(f"sector outside [0, {self.k}]")
        support = tuple(sorted(self.counts))
        sizes = _binomial_row(self.k, 0, max(self.counts, default=0) + 1)
        object.__setattr__(self, "sectors", ExactDistribution(
            support, tuple(sizes[m] * self.counts[m] for m in support), self.total))

    def diagonal(self) -> np.ndarray:
        """Float diagonal of the canonical state over the 2^k output basis.

        Output string y carries the weight of its popcount; refused above
        512 MiB (the float diagonal and its uint8 popcount table, 9 * 2^k bytes).
        """
        _check_dense_bytes(9 * 2**self.k, f"the 2^{self.k} canonical diagonal")
        weights = np.array([self.counts.get(m, 0) / self.total for m in range(self.k + 1)])
        return weights[_popcounts(self.k)]


def _popcounts(n_bits: int) -> np.ndarray:
    """uint8 popcount of every n_bits-bit string, indexed by the string."""
    popcount = np.zeros(1, dtype=np.uint8)
    for _ in range(n_bits):  # a new top bit adds 1 to the count of every lower string
        popcount = np.concatenate((popcount, popcount + 1))
    return popcount


def canonical_spectrum(n_sites: int, n_excited: int, n_blocks: int) -> BnSCanonicalSpectrum:
    """Exact canonical state of the detector channel on the fixed-excitation space.

    The per-string weight of the sector with m excited blocks is the number
    of excitation patterns that occupy exactly those m blocks, divided by the
    total count C(N, Np); inclusion-exclusion over occupied blocks gives

        w_m = (1/C(N, Np)) * sum_q C(m, q) * C((N/k) q, Np) * (-1)^(m-q)

    with the convention C(a, b) = 0 for b > a. The alternating sums for every m
    come out of one forward-difference table of the column C((N/k) q, Np),
    built by big-integer subtraction (``_occupied_counts``); the spectrum keeps
    the nonzero counts over C(N, Np) and multiplies in the sector sizes C(k, m)
    from one ``_binomial_row``. All arithmetic is exact.
    """
    n = _block_size(n_sites, n_blocks)
    _check_excitations(n_sites, n_excited)
    counts = _occupied_counts(n, n_excited, min(n_excited, n_blocks))
    return BnSCanonicalSpectrum(n_sites, n_excited, n_blocks,
                                {m: c for m, c in enumerate(counts) if c},
                                comb(n_sites, n_excited))


# -- the detector restricted to a fixed-excitation subspace ----------------------------
#
# Its Choi purity is [u^Np v^Np] g(u, v)^k / C(N, Np)^2 with one factor per block,
# g = (1 + uv)^n + c^2 ((1 + u)^n + (1 + v)^n - 2) and c^2 = 1/(2^n - 1): a block is
# occupied alike in both copies (weight 1), occupied in one copy only (c^2), or
# empty in both. Both routes below return the numerator scaled by (2^n - 1)^k, an
# exact integer over the common denominator (2^n - 1)^k C(N, Np)^2, and
# ``DetectorChannel.choi_purity_routes`` checks the two integers equal.


def _purity_numerator_closed_form(n: int, n_blocks: int, n_excited: int, alpha: list) -> int:
    """Scaled purity numerator from the expansion of g^k over the doubly occupied blocks.

    g^k = sum_a C(k, a) (1 + uv)^(n a) c^(2 (k - a)) (A(u) + A(v))^(k - a) with
    A = (1 + u)^n - 1, so the [u^Np v^Np] coefficient is a finite sum over a, the
    (uv)^t term of (1 + uv)^(n a) and the j blocks of the remaining k - a that
    sit in the u copy, of the occupied counts alpha_j(Np - t) = ``alpha[Np - t][j]``.
    """
    # split[m][r] = [u^r v^r] (A(u) + A(v))^m = sum_j C(m, j) alpha_j(r) alpha_(m - j)(r). The
    # terms j and m - j are equal, so the sum is twice its terms j < m / 2, plus the
    # middle term j = m / 2 when m is even.
    split = []
    for m in range(n_blocks + 1):
        half, binomials = (m + 1) // 2, _binomial_row(m, 0, m // 2 + 1)
        row = [2 * sum(c * counts[j] * counts[m - j] for j, c in enumerate(binomials[:half]))
               for counts in alpha]
        if m % 2 == 0:
            row = [s + binomials[half] * counts[half] ** 2 for s, counts in zip(row, alpha)]
        split.append(row)
    scale, numerator = 2**n - 1, 0
    for a, c_a in enumerate(_binomial_row(n_blocks, 0, n_blocks + 1)):
        rest, binomials = split[n_blocks - a], _binomial_row(n * a, 0, min(n * a, n_excited) + 1)
        numerator += c_a * scale**a * sum(c * rest[n_excited - t]
                                          for t, c in enumerate(binomials))
    return numerator


def _purity_numerator_convolution(n: int, n_blocks: int, n_excited: int) -> int:
    """Scaled purity numerator from the k-fold product of the per-block table.

    The table keeps degrees up to Np in each variable, and each block multiplies it by
    (2^n - 1) g = (2^n - 1) (1 + uv)^n + (1 + u)^n + (1 + v)^n - 2 through two
    shift-add chains (``_shift_add``). The table starts at 1 and every factor is
    symmetric in u and v, so the table stays symmetric, and its product with
    (1 + v)^n is the transpose of its product with (1 + u)^n. Each block raises the
    degree by at most n, so block b (from 0) works on the window of degrees up to
    (b + 1) n, above which the table is 0, and from Np - (k - b) n, below which no
    entry can still reach u^Np v^Np; the window's lowest n degrees are left short of
    their terms from below it, which no later block reads.
    """
    scale, table = 2**n - 1, _unit_table(n_excited)
    for b in range(n_blocks):
        window = slice(max(0, n_excited - (n_blocks - b) * n), min(n_excited, (b + 1) * n) + 1)
        part = table[window, window]
        one_copy = _shift_add(part.copy(), 1, 0, n)
        table[window, window] = (scale * _shift_add(part.copy(), 1, 1, n) + one_copy
                                 + one_copy.T - 2 * part)
    return int(table[n_excited, n_excited])


# -- the detector's gather-Gram plan ----------------------------------------------------


class _PatternGroup:
    """Gather, reduce and Gram step of one group of the detector's plan.

    Basis state ``members[i]`` is summed into the cell (``row[i]``, column of
    label ``cols[i]``) of a table whose rows are the ascending output indices
    ``rows``. The Gram entries of the row pairs in the mask ``keep`` enter the
    output times ``coherences[rows[i] ^ rows[j]]``, the c^|y xor y'| table.
    """

    def __init__(self, members, rows, row, cols, keep, coherences, d_out: int):
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
        self.coherence = coherences[rows[first] ^ rows[second]]

    def table(self, psis: np.ndarray) -> np.ndarray:
        """The group's (B, rows, cols) table of summed amplitudes of each row of psis."""
        sums = psis[:, self.members]
        if self.starts is not None:
            sums = np.add.reduceat(sums, self.starts, axis=1)
        table = np.zeros((psis.shape[0], self.n_rows, self.n_cols), dtype=np.complex128)
        table.reshape(psis.shape[0], self.n_rows * self.n_cols)[:, self.cells] = sums
        return table

    def entries(self, psis: np.ndarray) -> np.ndarray:
        """The group's kept Gram entries times their coherences, for each row of psis.

        A function of its own, so that one group's table and Gram matrix are released
        before the next group's are gathered.
        """
        gram = _gram(self.table(psis)).reshape(psis.shape[0], self.n_rows**2)
        return gram[:, self.gram_index] * self.coherence


@dataclass(frozen=True, eq=False)
class DetectorChannel(_PatternChannel, _EigensolveDistances):
    """The k-block detector restricted to the n_excited subspace of N sites.

    Matrix-free form of ``restrict_channel(bns_channel(N, k), enumerate_basis(N,
    n_excited))``, with the channel interface of ``RestrictedPartialTrace``:
    ``dim_in`` (d_R = C(N, Np)), ``dim_out`` (2^k), ``apply_pure_batch``,
    ``distances_to_canonical`` (the dense route of ``channels._EigensolveDistances``),
    ``canonical_state``, ``exact_eta``, ``choi_purity_routes`` and ``kraus`` built
    on demand. Block b holds sites b n .. b n + n - 1 and is
    output bit k - 1 - b, so a basis state x has the occupancy pattern y(x) of its
    non-empty blocks. For a pure input psi, with c = (2^n - 1)^(-1/2),

        rho[y, y'] = c^|y xor y'| sum of psi_x conj(psi_x') over the x, x' with
                     patterns y, y' that agree on the blocks both occupy,

    so the output needs only sums of psi over the blocks one pattern occupies
    and the other does not: it is a sum of Gram matrices of small tables of
    summed amplitudes, one table per group of a plan built once. The plan and
    ``kraus`` alone enumerate the basis; everything else is a count: d_R, the
    exact spectrum, the generating-function Choi purity and ``exact_eta``.
    """

    n_sites: int
    n_blocks: int
    n_excited: int

    def __post_init__(self):
        _block_size(self.n_sites, self.n_blocks)
        _check_excitations(self.n_sites, self.n_excited)

    @property
    def dim_out(self) -> int:
        return 2**self.n_blocks

    def _patterns(self, indices: np.ndarray) -> np.ndarray:
        """Occupancy pattern y(x) of each basis state x of ``indices``."""
        n, k = self.n_sites // self.n_blocks, self.n_blocks
        y = np.zeros(indices.size, dtype=np.int64)
        for bit in range(k):  # output bit i reads the block held in bits n i .. n i + n - 1 of x
            y |= (((indices >> (n * bit)) & (2**n - 1)) != 0).astype(np.int64) << bit
        return y

    def _site_masks(self) -> np.ndarray:
        """Full-space bit mask of the sites of every block set, indexed by pattern."""
        n, k = self.n_sites // self.n_blocks, self.n_blocks
        patterns = np.arange(2**k, dtype=np.int64)
        return sum(((patterns >> bit) & 1) * ((2**n - 1) << (n * bit)) for bit in range(k))

    def _coherences(self) -> np.ndarray:
        """c^|y xor y'| indexed by y xor y'."""
        c = 1.0 / np.sqrt(2.0 ** (self.n_sites // self.n_blocks) - 1.0)
        return c ** _popcounts(self.n_blocks)

    @cached_property
    def _occupied(self) -> list[list[int]]:
        """alpha_j(w) = ``_occupied_counts(n, w, k)[j]`` for w = 0 .. Np, counted once per
        channel for the purity closed form and the plan's counts. w excitations occupy
        at most w blocks, so a row is counted up to j = min(w, k) and padded with 0."""
        n, k = self.n_sites // self.n_blocks, self.n_blocks
        return [_occupied_counts(n, w, min(w, k)) + [0] * (k - min(w, k))
                for w in range(self.n_excited + 1)]

    @cached_property
    def _spectrum(self) -> BnSCanonicalSpectrum:
        """The exact canonical spectrum, counted once per channel."""
        return canonical_spectrum(self.n_sites, self.n_excited, self.n_blocks)

    @cached_property
    def _plan(self) -> tuple[_PatternGroup, ...]:
        """One group per block set S that some output entry needs, built once.

        Group S sums each basis state whose pattern contains S into the cell (its
        pattern, its configuration on S) and keeps the pattern pairs sharing exactly S.
        ``apply_pure_batch`` builds it after ``_row_bytes`` has checked its bytes.
        """
        x = enumerate_basis(self.n_sites, self.n_excited).indices
        y, d_out = self._patterns(x), self.dim_out
        masks, coherences = self._site_masks(), self._coherences()
        groups = []
        for shared in range(d_out):
            members = np.flatnonzero(y & shared == shared)
            rows, row = np.unique(y[members], return_inverse=True)
            keep = rows[:, None] & rows[None, :] == shared
            if keep.any():
                groups.append(_PatternGroup(members, rows, row, x[members] & masks[shared],
                                            keep, coherences, d_out))
        return tuple(groups)

    @cached_property
    def _row_bytes(self) -> int:
        """Bytes one row of ``apply_pure_batch`` allocates: its output plus the largest
        group's gathered amplitudes, table, Gram matrix and selected entries, counted
        once per channel by ``_plan_counts`` without building the plan. No row is
        applied without the plan, so its 24 (memberships + 4^k) bytes are checked first,
        unless the largest group alone is over budget, which refuses every row."""
        memberships, work = self._plan_counts()
        if 16 * work <= qcore._DENSE_BYTES_LIMIT:
            _check_dense_bytes(8 * 3 * (memberships + self.dim_out**2),
                               f"the grouping plan of the {self.dim_in}-state detector input")
        return 16 * self.dim_out**2 + 16 * work

    def _plan_counts(self) -> tuple[int, int]:
        """(Memberships, complex entries per state of the largest group) of the plan.

        The C(k, s) groups of s shared blocks are alike. With counts[m] the states of
        each pattern of m blocks and f = k - s free blocks, such a group has
        sum_m C(f, m - s) counts[m] members, one row per occurring pattern that holds
        the shared blocks, one column per configuration of w excitations on their n s
        sites with none of them empty (alpha_s(w), for every w that leaves the other
        Np - w room in the n f free sites) and one kept pair per two occurring patterns
        that share exactly those blocks. It allocates 2 members + rows (cols + rows)
        + 2 kept entries, and the plan keeps the groups with a kept pair. A state of
        pattern y is in the 2^|y| groups within y: sum_m C(k, m) counts[m] 2^m memberships.
        """
        n, k, n_excited = self.n_sites // self.n_blocks, self.n_blocks, self.n_excited
        counts, occupied = self._spectrum.counts, self._occupied
        memberships, works = 0, []
        for s, groups in enumerate(_binomial_row(k, 0, k + 1)):
            free, held = k - s, [m for m in counts if m >= s]
            members = sum(comb(free, m - s) * counts[m] for m in held)
            memberships += groups * members
            kept = sum(comb(free, a - s) * comb(free - a + s, b - s) for a in held for b in held)
            if kept:
                rows = sum(comb(free, m - s) for m in held)
                cols = sum(occupied[w][s] for w in range(max(s, n_excited - n * free),
                                                         min(n * s, n_excited) + 1))
                works.append(2 * members + rows * (cols + rows) + 2 * kept)
        return memberships, max(works)

    def apply_pure_batch(self, psis) -> np.ndarray:
        """Outputs for a (B, d_R) block of pure inputs, one per row.

        Refused above 512 MiB (B ``_row_bytes``).
        """
        psis = _state_block(psis, self.dim_in)
        b, d_out = psis.shape[0], self.dim_out
        _check_dense_bytes(b * self._row_bytes, f"{b} detector outputs of dimension "
                           f"{d_out} and their work arrays")
        out = np.zeros((b, d_out * d_out), dtype=np.complex128)
        for g in self._plan:
            out[:, g.out_index] = g.entries(psis)
        return out.reshape(b, d_out, d_out)

    def _canonical_diagonal(self) -> np.ndarray:
        """The exact canonical spectrum."""
        return self._spectrum.diagonal()

    def _pattern_count(self) -> int:
        """C(k, m) summed over the excited-block counts m of the exact spectrum."""
        sectors = self._spectrum.sectors
        sizes = _binomial_row(self.n_blocks, 0, sectors.support[-1] + 1)
        return sum(sizes[m] for m in sectors.support)

    def choi_purity_routes(self) -> tuple[float, float]:
        """(closed-form Choi purity, purity from the k-fold block-table product).

        Both are exact integers over (2^n - 1)^k C(N, Np)^2, checked equal and then
        divided once (``_exact_purity_routes``).
        """
        n = self.n_sites // self.n_blocks
        args = (n, self.n_blocks, self.n_excited)
        return _exact_purity_routes(_purity_numerator_closed_form(*args, self._occupied),
                                    _purity_numerator_convolution(*args),
                                    (2**n - 1) ** self.n_blocks * self.dim_in**2)

    @property
    def kraus(self) -> np.ndarray:
        """A minimal Kraus family on the subspace, built on demand.

        The Choi matrix is nonzero only in the d_R rows and columns (y(x), x),
        where it is M / d_R with M[x, x'] = c^|y xor y'| when x and x' agree on
        the blocks both occupy, else 0. The eigenpairs (lambda, v) of M above
        the Kraus cutoff give the operators sum_x sqrt(lambda) v[x] |y(x)><x|.
        Refused above 512 MiB (M, its eigenvectors and index temporaries, then
        the operators).
        """
        d = self.dim_in
        _check_dense_bytes(48 * d * d, f"the {d} x {d} detector Choi block")
        x = enumerate_basis(self.n_sites, self.n_excited).indices
        y = self._patterns(x)
        agree = (x[:, None] ^ x[None, :]) & self._site_masks()[y[:, None] & y[None, :]] == 0
        eigs, vecs = np.linalg.eigh(np.where(agree, self._coherences()[y[:, None] ^ y[None, :]],
                                             0.0))
        keep = eigs > KRAUS_EIGENVALUE_CUTOFF
        n_ops = int(np.count_nonzero(keep))
        _check_dense_bytes(16 * n_ops * self.dim_out * d,
                           f"the {n_ops} restricted detector Kraus operators")
        ops = np.zeros((n_ops, self.dim_out, d), dtype=np.complex128)
        ops[:, y, np.arange(d)] = (np.sqrt(eigs[keep]) * vecs[:, keep]).T
        ops.setflags(write=False)
        return ops


@dataclass(frozen=True)
class ExactDistribution:
    """Probability distribution over integers: integer counts over one total.

    ``support[i]`` has the probability counts[i] / total. Construction checks
    that the counts are nonnegative integers that add up to exactly ``total``,
    so the probabilities sum to exactly 1. ``probabilities``,
    ``probability(m)`` and ``mean()`` are reduced ``Fraction``s derived from
    the counts; ``floats`` and ``reduced()`` are the two views the exact CSV
    writes. ``ratios`` is empty unless the distribution was built by
    ``_from_ratios``, from its first count and the small exact ratio of each
    count to the one before; ``reduced()`` then takes one full gcd in all
    instead of one per row.
    """

    support: tuple
    counts: tuple
    total: int
    ratios: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.support) != len(self.counts):
            raise ValueError("support and counts differ in length")
        if not all(isinstance(c, int) for c in (*self.counts, self.total)):
            raise TypeError("exact distributions take integer counts only")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative count")
        if self.total < 1 or sum(self.counts) != self.total:
            raise ValueError("probabilities do not sum to exactly 1")

    @classmethod
    def _from_ratios(cls, support: tuple, first: int, ratios: tuple, total: int):
        """The distribution whose counts start at ``first`` and go on by ``ratios``.

        Each ratio is a pair (r1, r2) of positive integers with
        counts[i + 1] = counts[i] r1 / r2, and each such quotient must be exact.
        """
        counts = [first]
        for r1, r2 in ratios:
            if r1 < 1 or r2 < 1:
                raise ValueError(f"the count ratio {r1}/{r2} is not positive")
            count, rest = divmod(counts[-1] * r1, r2)
            if rest:
                raise ValueError(f"the count ratio {r1}/{r2} gives no integer count")
            counts.append(count)
        dist = cls(support, tuple(counts), total)
        object.__setattr__(dist, "ratios", tuple(ratios))
        return dist

    @cached_property
    def floats(self) -> tuple:
        """Each probability as a float: its count over the total in integer true
        division, the correctly rounded value that ``float(Fraction)`` gives."""
        return tuple(c / self.total for c in self.counts)

    def reduced(self) -> Iterator[tuple[int, int]]:
        """(numerator, denominator) of each probability in lowest terms, row by row.

        Without ``ratios`` each row takes one gcd of its count and the total. With
        them only the first row does: if a/b is a row in lowest terms and r1/r2 its
        reduced ratio to the next, gcd(a r1, b r2) = gcd(a, r2) gcd(r1, b), so the
        next row costs two gcds of a big and a small integer and exact divisions by
        small ones. The pairs are yielded, not kept: a writer holds one at a time.
        """
        if not self.ratios:
            for c in self.counts:
                yield _lowest_terms(c, self.total)
            return
        a, b = _lowest_terms(self.counts[0], self.total)
        yield a, b
        for r1, r2 in self.ratios:
            g = gcd(r1, r2)
            r1, r2 = r1 // g, r2 // g
            g1, g2 = gcd(a, r2), gcd(r1, b)
            a, b = a // g1 * (r1 // g2), b // g2 * (r2 // g1)
            yield a, b

    @cached_property
    def probabilities(self) -> tuple:
        return tuple(Fraction(c, self.total) for c in self.counts)

    def mean(self) -> Fraction:
        return Fraction(sum(m * c for m, c in zip(self.support, self.counts)), self.total)

    def probability(self, m: int) -> Fraction:
        return Fraction(dict(zip(self.support, self.counts)).get(m, 0), self.total)


def _lowest_terms(numerator: int, denominator: int) -> tuple[int, int]:
    g = gcd(numerator, denominator)
    return numerator // g, denominator // g


def energy_distribution_trace(n_sites: int, n_excited: int, n_blocks: int) -> ExactDistribution:
    """Excitation-count distribution of k sites kept out of N, traced exactly.

    Keeping k of the N sites of the fixed-excitation mixed state yields the
    hypergeometric law P(m) = C(k, m) C(N-k, Np-m) / C(N, Np), nonzero for
    max(0, Np - (N - k)) <= m <= min(Np, k). The first count is two
    ``math.comb``; each next one comes from the ratio
    P(m + 1) / P(m) = (k - m)(Np - m) / ((m + 1)(N - k - Np + m + 1)), whose two
    factors are positive on the support, by one product and one exact division
    with small integers (``ExactDistribution._from_ratios``).
    """
    if not 0 <= n_blocks <= n_sites:
        raise DimensionError(f"cannot keep {n_blocks} of {n_sites} sites")
    _check_excitations(n_sites, n_excited)
    lo, hi = max(0, n_excited - (n_sites - n_blocks)), min(n_excited, n_blocks)
    gap = n_sites - n_blocks - n_excited + 1
    return ExactDistribution._from_ratios(
        tuple(range(lo, hi + 1)), comb(n_blocks, lo) * comb(n_sites - n_blocks, n_excited - lo),
        tuple(((n_blocks - m) * (n_excited - m), (m + 1) * (gap + m)) for m in range(lo, hi)),
        comb(n_sites, n_excited))


def energy_distribution_bns(n_sites: int, n_excited: int, n_blocks: int) -> ExactDistribution:
    """The detector's excitation-count distribution: the canonical spectrum's ``sectors``."""
    return canonical_spectrum(n_sites, n_excited, n_blocks).sectors


def write_distribution_csv(path, dist: ExactDistribution) -> None:
    """CSV with columns m, probability (17 significant digits), numerator, denominator.

    The probability is the row's ``floats`` entry, the count over the total in
    integer true division, and the fraction its ``reduced()`` pair in lowest terms:
    one gcd per row in general, and two gcds with small integers per row for a law
    with ``ratios``, such as the hypergeometric law of ``energy_distribution_trace``.
    Each row is one f-string, generated as ``_write_lines`` writes its runs, LF line
    endings. Integers of any size are written: the int-to-str digit limit of Python
    3.10.7 and later is lifted for the write and then restored, also when a row raises,
    which leaves no file.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)  # C(16000, 8000) has 4815 digits
    try:
        _write_lines(path, itertools.chain(["m,probability,numerator,denominator"], (
            f"{m},{p:{FLOAT_FORMAT}},{a},{b}"
            for m, p, (a, b) in zip(dist.support, dist.floats, dist.reduced()))))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
