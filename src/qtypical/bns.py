"""Blurred-and-saturated detector channel and its exact canonical statistics.

A block of n two-level atoms read out by a detector that cannot resolve
individual sites behaves as one effective atom: excited when at least one
site is excited. The block map sends basis projectors accordingly, keeps
the coherence between the all-ground string and any excited string with the
largest factor compatible with complete positivity, 1/sqrt(2^n - 1), and
kills every other coherence.

The dense channel objects cover small systems: a tensor power whose Kraus
array would exceed the 512 MiB dense budget is refused, which happens for
every N >= 13. The canonical spectrum and the two excitation-count
distributions are computed in exact big-integer rational arithmetic and
stay valid up to N = 10000 and beyond. The
alternating sum for the canonical weights cancels catastrophically in
floating point at large N, so no float enters before the output boundary.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .channels import QuantumChannel, tensor_all
from .qcore import DimensionError, _check_dense_bytes

__all__ = [
    "BLOCK_LIMIT",
    "block_choi",
    "block_channel",
    "bns_channel",
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
    if n_blocks < 1 or n_sites % n_blocks != 0:
        raise DimensionError(
            f"{n_blocks} blocks do not evenly divide {n_sites} sites"
        )
    n = n_sites // n_blocks
    _check_dense_bytes((2**n - 1) ** n_blocks * 2 ** (n_blocks + n_sites) * 16,
                       f"the dense channel for N = {n_sites}, k = {n_blocks}")
    return tensor_all([block_channel(n)] * n_blocks)


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
    if n_blocks < 1 or n_sites % n_blocks != 0:
        raise DimensionError(f"{n_blocks} blocks do not divide {n_sites} sites")
    if not 0 <= n_excited <= n_sites:
        raise ValueError(f"excitation count {n_excited} outside [0, {n_sites}]")
    n = n_sites // n_blocks
    d_r = comb(n_sites, n_excited)
    big_binom = {q: comb(n * q, n_excited) if n * q >= n_excited else 0
                 for q in range(0, min(n_excited, n_blocks) + 1)}
    weights: dict[int, Fraction] = {}
    sector: dict[int, Fraction] = {}
    for m in _sector_range(n_sites, n_excited, n_blocks):
        total = 0
        for q in range(m + 1):
            term = comb(m, q) * big_binom[q]
            total += term if (m - q) % 2 == 0 else -term
        w = Fraction(total, d_r)
        weights[m] = w
        sector[m] = comb(n_blocks, m) * w
    return BnSCanonicalSpectrum(n_sites, n_excited, n_blocks, weights, sector)


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
