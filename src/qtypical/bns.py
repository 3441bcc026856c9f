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
forms the tensor power, a Kraus array or a Choi matrix. The canonical
spectrum and the two excitation-count distributions are computed in exact
big-integer rational arithmetic and stay valid up to N = 10000 and beyond.
The alternating sum for the canonical weights cancels catastrophically in
floating point at large N, so no float enters before the output boundary.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from .channels import KRAUS_EIGENVALUE_CUTOFF, QuantumChannel, tensor_all
from .qcore import DimensionError, _check_dense_bytes
from .restriction import (
    ExcitationSubspace,
    _GatherGramChannel,
    _PatternGroup,
    _popcount,
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
    "bns_mean_exact",
    "write_distribution_csv",
]

BLOCK_LIMIT = 10   # largest block; its Choi oracle has size 2^(n+1)


def block_choi(n: int, coherence_scale: float = 1.0) -> np.ndarray:
    """Choi matrix of the n-site block map, with an optional coherence rescaling.

    ``coherence_scale`` multiplies the 1/sqrt(2^n - 1) factor; the default 1.0
    sits exactly on the complete-positivity boundary, and any value above it
    produces a negative eigenvalue.
    """
    if n < 1:
        raise DimensionError("block size must be >= 1")
    if n > BLOCK_LIMIT:
        raise DimensionError(f"block size {n} exceeds the dense limit {BLOCK_LIMIT}")
    d = 2**n
    j = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    # index convention: output bit leading, so (bit, s) -> bit * d + s
    j[0, 0] = 1.0 / d
    for s in range(1, d):
        j[d + s, d + s] = 1.0 / d
    c = coherence_scale / np.sqrt(d - 1.0) if d > 1 else 0.0
    for s in range(1, d):
        j[0, d + s] = c / d
        j[d + s, 0] = c / d
    return j


def block_channel(n: int) -> QuantumChannel:
    """Detector map for one block of n atoms: 2^n-dimensional input, qubit output.

    Closed-form minimal Kraus family K_s = |1><s| + (2^n - 1)^(-1/2) |0><0|,
    s = 1 .. 2^n - 1; ``block_choi`` is the independent Choi-matrix oracle.
    """
    if n < 1:
        raise DimensionError("block size must be >= 1")
    if n > BLOCK_LIMIT:
        raise DimensionError(f"block size {n} exceeds the dense limit {BLOCK_LIMIT}")
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
    return tensor_all([block_channel(n)] * n_blocks)


def _block_size(n_sites: int, n_blocks: int) -> int:
    """Sites per block, N/k; a DimensionError when k does not divide N."""
    if n_blocks < 1 or n_sites % n_blocks != 0:
        raise DimensionError(
            f"{n_blocks} blocks do not evenly divide {n_sites} sites"
        )
    return n_sites // n_blocks


def _occupied_counts(n: int, n_excited: int, j_max: int) -> list[int]:
    """alpha_j = [u^Np] ((1 + u)^n - 1)^j for j = 0 .. j_max.

    The number of ways to place Np excitations in j blocks of n sites with no
    block empty; inclusion-exclusion over the empty blocks gives
    alpha_j = sum_q (-1)^(j - q) C(j, q) C(n q, Np), with C(a, b) = 0 for b > a.
    """
    big_binom = [comb(n * q, n_excited) for q in range(j_max + 1)]
    counts = []
    for j in range(j_max + 1):
        total = 0
        for q in range(j + 1):
            term = comb(j, q) * big_binom[q]
            total += term if (j - q) % 2 == 0 else -term
        counts.append(total)
    return counts


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _sector_range(n_sites: int, n_excited: int, n_blocks: int) -> range:
    lo = _ceil_div(n_blocks * n_excited, n_sites)
    hi = min(n_excited, n_blocks)
    return range(lo, hi + 1)


@dataclass(frozen=True)
class BnSCanonicalSpectrum:
    """Exact spectrum of the canonical state of the block-detector channel.

    ``weights[m]`` is the weight of each individual output basis string with
    m excited effective atoms; ``sector_probability[m]`` is the total weight
    C(k, m) * weights[m] of that excitation sector. Everything is an exact
    rational and the sector probabilities sum to exactly 1.
    """

    N: int
    Np: int
    k: int
    weights: dict
    sector_probability: dict

    def __post_init__(self):
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("negative sector weight")
        if sum(self.sector_probability.values()) != 1:
            raise ValueError("sector probabilities do not sum to exactly 1")

    def weight(self, m: int) -> Fraction:
        return self.weights.get(m, Fraction(0))

    def diagonal(self) -> np.ndarray:
        """Float diagonal of the canonical state over the 2^k output basis.

        Output string y carries the weight of its popcount; refused above
        512 MiB (the float diagonal and its uint8 popcount table, 9 * 2^k bytes).
        """
        _check_dense_bytes(9 * 2**self.k, f"the 2^{self.k} canonical diagonal")
        popcount = np.zeros(1, dtype=np.uint8)
        for _ in range(self.k):  # a new top bit adds 1 to the count of every lower string
            popcount = np.concatenate((popcount, popcount + 1))
        return np.array([float(self.weight(m)) for m in range(self.k + 1)])[popcount]


def canonical_spectrum(n_sites: int, n_excited: int, n_blocks: int) -> BnSCanonicalSpectrum:
    """Exact canonical state of the detector channel on the fixed-excitation space.

    The per-string weight of the sector with m excited blocks is the number
    of excitation patterns that occupy exactly those m blocks, divided by the
    total count C(N, Np); inclusion-exclusion over occupied blocks gives

        w_m = (1/C(N, Np)) * sum_q C(m, q) * C((N/k) q, Np) * (-1)^(m-q)

    with the convention C(a, b) = 0 for b > a. All arithmetic is exact.
    """
    n = _block_size(n_sites, n_blocks)
    if not 0 <= n_excited <= n_sites:
        raise ValueError(f"excitation count {n_excited} outside [0, {n_sites}]")
    d_r = comb(n_sites, n_excited)
    counts = _occupied_counts(n, n_excited, min(n_excited, n_blocks))
    weights: dict[int, Fraction] = {}
    sector: dict[int, Fraction] = {}
    for m in _sector_range(n_sites, n_excited, n_blocks):
        w = Fraction(counts[m], d_r)
        weights[m] = w
        sector[m] = comb(n_blocks, m) * w
    return BnSCanonicalSpectrum(n_sites, n_excited, n_blocks, weights, sector)


# -- the detector restricted to a fixed-excitation subspace ----------------------------
#
# Its Choi purity is [u^Np v^Np] g(u, v)^k / C(N, Np)^2 with one factor per block,
# g = (1 + uv)^n + c^2 ((1 + u)^n + (1 + v)^n - 2) and c^2 = 1/(2^n - 1): a block is
# occupied alike in both copies (weight 1), occupied in one copy only (c^2), or
# empty in both. Both routes below return the numerator scaled by (2^n - 1)^k, an
# exact integer over the common denominator (2^n - 1)^k C(N, Np)^2.


def _purity_numerator_closed_form(n: int, n_blocks: int, n_excited: int) -> int:
    """Scaled purity numerator from the expansion of g^k over the doubly occupied blocks.

    g^k = sum_a C(k, a) (1 + uv)^(n a) c^(2 (k - a)) (A(u) + A(v))^(k - a) with
    A = (1 + u)^n - 1, so the [u^Np v^Np] coefficient is a finite sum over a, the
    (uv)^t term of (1 + uv)^(n a) and the j blocks of the remaining k - a that
    sit in the u copy, of the occupied counts alpha_j(Np - t).
    """
    alpha = [_occupied_counts(n, r, n_blocks) for r in range(n_excited + 1)]
    # split[m][r] = [u^r v^r] (A(u) + A(v))^m
    split = [[sum(comb(m, j) * alpha[r][j] * alpha[r][m - j] for j in range(m + 1))
              for r in range(n_excited + 1)] for m in range(n_blocks + 1)]
    scale = 2**n - 1
    return sum(comb(n_blocks, a) * scale**a * comb(n * a, t) * split[n_blocks - a][n_excited - t]
               for a in range(n_blocks + 1) for t in range(min(n * a, n_excited) + 1))


def _purity_numerator_convolution(n: int, n_blocks: int, n_excited: int) -> int:
    """Scaled purity numerator from the k-fold product of the per-block table.

    (2^n - 1) g has the integer coefficients 2^n - 1 at u^0 v^0, (2^n - 1) C(n, p)
    at u^p v^p and C(n, p) at u^p and at v^p (p >= 1); the product keeps degrees
    up to Np in each variable.
    """
    scale = 2**n - 1
    terms = [(0, 0, scale)] + [(p, q, comb(n, max(p, q)) * (scale if p == q else 1))
                               for r in range(1, n + 1) for p, q in ((r, r), (r, 0), (0, r))]
    size = n_excited + 1
    table = np.zeros((size, size), dtype=object)
    table[0, 0] = 1
    for _ in range(n_blocks):
        product = np.zeros((size, size), dtype=object)
        for p, q, value in terms:
            if p < size and q < size:
                product[p:, q:] += value * table[:size - p, :size - q]
        table = product
    return int(table[n_excited, n_excited])


@dataclass(frozen=True, eq=False)
class DetectorChannel(_GatherGramChannel):
    """The k-block detector restricted to the n_excited subspace of N sites.

    Matrix-free form of ``restrict_channel(bns_channel(N, k), enumerate_basis(N,
    n_excited))``, with the channel interface of ``RestrictedPartialTrace``:
    ``dim_in`` (d_R = C(N, Np)), ``dim_out`` (2^k), ``apply_pure_batch``,
    ``canonical_state``, ``choi_purity_routes``, ``linear_entropy`` and ``kraus``
    built on demand. Block b holds sites b n .. b n + n - 1 and is output bit
    k - 1 - b, so a basis state x has the occupancy pattern y(x) of its non-empty
    blocks. For a pure input psi, with c = (2^n - 1)^(-1/2),

        rho[y, y'] = c^|y xor y'| sum of psi_x conj(psi_x') over the x, x' with
                     patterns y, y' that agree on the blocks both occupy,

    so the output needs only sums of psi over the blocks one pattern occupies
    and the other does not. The canonical state is the exact spectrum and the
    Choi purity an exact generating-function count.
    """

    n_sites: int
    n_blocks: int
    n_excited: int
    sub: ExcitationSubspace = field(init=False, repr=False)

    _outputs = "detector"

    def __post_init__(self):
        _block_size(self.n_sites, self.n_blocks)
        object.__setattr__(self, "sub", enumerate_basis(self.n_sites, self.n_excited))

    @property
    def dim_out(self) -> int:
        return 2**self.n_blocks

    def _patterns(self) -> np.ndarray:
        """Occupancy pattern y(x) of every subspace basis state."""
        n, k = self.n_sites // self.n_blocks, self.n_blocks
        y = np.zeros(self.dim_in, dtype=np.int64)
        for bit in range(k):  # output bit i reads the block held in bits n i .. n i + n - 1 of x
            y |= (((self.sub.indices >> (n * bit)) & (2**n - 1)) != 0).astype(np.int64) << bit
        return y

    def _site_masks(self) -> np.ndarray:
        """Full-space bit mask of the sites of every block set, indexed by pattern."""
        n, k = self.n_sites // self.n_blocks, self.n_blocks
        patterns = np.arange(2**k, dtype=np.int64)
        return sum(((patterns >> bit) & 1) * ((2**n - 1) << (n * bit)) for bit in range(k))

    def _coherences(self) -> np.ndarray:
        """c^|y xor y'| indexed by y xor y'."""
        c = 1.0 / np.sqrt(2.0 ** (self.n_sites // self.n_blocks) - 1.0)
        return c ** _popcount(np.arange(self.dim_out, dtype=np.int64), self.n_blocks)

    def _build_plan(self) -> tuple:
        """One group per block set S that some output entry needs.

        Group S sums each basis state whose pattern contains S into the cell (its
        pattern, its configuration on S) and keeps the pattern pairs sharing exactly S.
        """
        y, x, d_out = self._patterns(), self.sub.indices, self.dim_out
        self._check_plan_bytes(int(np.sum(2 ** _popcount(y, self.n_blocks))))
        masks, coherences = self._site_masks(), self._coherences()
        groups = []
        for shared in range(d_out):
            members = np.flatnonzero(y & shared == shared)
            rows, row = np.unique(y[members], return_inverse=True)
            keep = rows[:, None] & rows[None, :] == shared
            if keep.any():
                coherence = coherences[rows[:, None] ^ rows[None, :]]
                groups.append(_PatternGroup(members, rows, row, x[members] & masks[shared],
                                            keep, coherence, d_out))
        return tuple(groups)

    def _canonical_diagonal(self) -> np.ndarray:
        """The exact canonical spectrum."""
        return canonical_spectrum(self.n_sites, self.n_excited, self.n_blocks).diagonal()

    def choi_purity_routes(self) -> tuple[float, float]:
        """(closed-form Choi purity, purity from the k-fold block-table product).

        Both are exact integers over (2^n - 1)^k C(N, Np)^2, divided once.
        """
        n = self.n_sites // self.n_blocks
        denominator = (2**n - 1) ** self.n_blocks * self.dim_in**2
        args = (n, self.n_blocks, self.n_excited)
        return (_purity_numerator_closed_form(*args) / denominator,
                _purity_numerator_convolution(*args) / denominator)

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
        x, y = self.sub.indices, self._patterns()
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
    """Probability distribution over integers with exact rational weights."""

    support: tuple
    probabilities: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probabilities):
            raise ValueError("support and probabilities differ in length")
        if sum(self.probabilities, Fraction(0)) != 1:
            raise ValueError("probabilities do not sum to exactly 1")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("negative probability")

    def mean(self) -> Fraction:
        return sum((m * p for m, p in zip(self.support, self.probabilities)),
                   Fraction(0))

    def probability(self, m: int) -> Fraction:
        for mm, p in zip(self.support, self.probabilities):
            if mm == m:
                return p
        return Fraction(0)

    def as_floats(self) -> dict:
        return {m: float(p) for m, p in zip(self.support, self.probabilities)}


def energy_distribution_trace(n_sites: int, n_excited: int, n_blocks: int) -> ExactDistribution:
    """Excitation-count distribution of k sites kept out of N, traced exactly.

    Keeping k of the N sites of the fixed-excitation mixed state yields the
    hypergeometric law P(m) = C(k, m) C(N-k, Np-m) / C(N, Np).
    """
    if not 0 <= n_blocks <= n_sites:
        raise DimensionError(f"cannot keep {n_blocks} of {n_sites} sites")
    if not 0 <= n_excited <= n_sites:
        raise ValueError(f"excitation count {n_excited} outside [0, {n_sites}]")
    d_r = comb(n_sites, n_excited)
    lo = max(0, n_excited - (n_sites - n_blocks))
    hi = min(n_excited, n_blocks)
    support = tuple(range(lo, hi + 1))
    probs = tuple(
        Fraction(comb(n_blocks, m) * comb(n_sites - n_blocks, n_excited - m), d_r)
        for m in support
    )
    return ExactDistribution(support, probs)


def energy_distribution_bns(n_sites: int, n_excited: int, n_blocks: int) -> ExactDistribution:
    """Distribution of the number of excited effective atoms under the detector map."""
    spectrum = canonical_spectrum(n_sites, n_excited, n_blocks)
    support = tuple(sorted(spectrum.sector_probability))
    probs = tuple(spectrum.sector_probability[m] for m in support)
    return ExactDistribution(support, probs)


def bns_mean_exact(n_sites: int, n_excited: int, n_blocks: int) -> Fraction:
    """Mean excited-block count: k times the chance that one block is non-empty.

    Linearity of expectation over the uniform excitation patterns gives
    k * (1 - C(N - N/k, Np) / C(N, Np)) without touching the alternating sum.
    """
    n = n_sites // n_blocks
    empty = Fraction(comb(n_sites - n, n_excited), comb(n_sites, n_excited))
    return n_blocks * (1 - empty)


def write_distribution_csv(path, dist: ExactDistribution) -> None:
    """CSV with columns m, probability (17 significant digits), numerator, denominator."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["m", "probability", "numerator", "denominator"])
        for m, p in zip(dist.support, dist.probabilities):
            writer.writerow([m, format(float(p), ".17g"), str(p.numerator),
                             str(p.denominator)])
