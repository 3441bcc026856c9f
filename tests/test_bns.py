import csv
import functools
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import channels_equal, matrix_unit
from qtypical import bns, typicality
from qtypical.bns import (
    BnSCanonicalSpectrum,
    DetectorChannel,
    ExactDistribution,
    _binomial_row,
    _occupied_counts,
    _purity_numerator_closed_form,
    _purity_numerator_convolution,
    block_channel,
    block_choi,
    bns_channel,
    canonical_spectrum,
    energy_distribution_bns,
    energy_distribution_trace,
    write_distribution_csv,
)
from qtypical.channels import (
    QuantumChannel,
    choi_to_kraus,
    identity_channel,
    tensor,
)
from qtypical.qcore import DimensionError, derive_seed, haar_sample
from qtypical.restriction import enumerate_basis, restrict_channel
from qtypical.typicality import ExperimentConfig, run_experiment, sample_distances


def reference_block_action(n: int, s1: int, s2: int) -> np.ndarray:
    """The detector map on a matrix unit |s1><s2|, straight from its definition."""
    w1, w2 = bin(s1).count("1"), bin(s2).count("1")
    out = np.zeros((2, 2), dtype=complex)
    c = 1.0 / np.sqrt(2.0**n - 1.0) if n > 1 else 1.0
    if s1 == s2:
        out[1 if w1 >= 1 else 0, 1 if w1 >= 1 else 0] = 1.0
    elif w1 == 0 and w2 >= 1:
        out[0, 1] = c
    elif w1 >= 1 and w2 == 0:
        out[1, 0] = c
    return out


def brute_force_spectrum(n_sites: int, n_excited: int, n_blocks: int) -> dict:
    """Exact sector weights by enumerating every excitation pattern."""
    n = n_sites // n_blocks
    counts: dict[int, int] = {}
    for ones in combinations(range(n_sites), n_excited):
        occupied = {p // n for p in ones}
        counts[len(occupied)] = counts.get(len(occupied), 0) + 1
    d_r = comb(n_sites, n_excited)
    return {m: Fraction(c, d_r * comb(n_blocks, m)) for m, c in counts.items()}


# -- block channel --


def test_block_one_site_is_identity():
    assert channels_equal(block_channel(1), identity_channel(2))


def test_block_size_limits():
    with pytest.raises(DimensionError):
        block_channel(0)
    with pytest.raises(DimensionError):
        block_channel(11)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_matches_definition_on_every_matrix_unit(n):
    ch = block_channel(n)
    d = 2**n
    for s1 in range(d):
        for s2 in range(d):
            got = ch.apply_matrix(matrix_unit(s1, s2, d))
            np.testing.assert_allclose(got, reference_block_action(n, s1, s2),
                                       atol=1e-10)


def test_block_two_sites_spot_cases():
    ch = block_channel(2)
    # coherence with the empty string survives with factor 1/sqrt(3)
    got = ch.apply_matrix(matrix_unit(0, 3, 4))
    np.testing.assert_allclose(got, matrix_unit(0, 1, 2) / np.sqrt(3), atol=1e-12)
    # coherence between two excited strings dies
    got = ch.apply_matrix(matrix_unit(1, 2, 4))
    np.testing.assert_allclose(got, np.zeros((2, 2)), atol=1e-12)
    # footnote case: |01><01| -> |1><1|
    got = ch.apply_matrix(matrix_unit(1, 1, 4))
    np.testing.assert_allclose(got, matrix_unit(1, 1, 2), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_block_closed_form_matches_choi_oracle(n):
    oracle = choi_to_kraus(block_choi(n), dim_in=2**n, dim_out=2)
    assert channels_equal(block_channel(n), oracle)


def test_block_kraus_count_is_choi_rank():
    for n in (1, 2, 3, 4):
        assert block_channel(n).n_kraus == 2**n - 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coherence_factor_sits_on_cp_boundary(n):
    # nominal factor: positive semidefinite within numerical noise
    assert np.linalg.eigvalsh(block_choi(n))[0] > -1e-12
    # 0.1% more coherence makes the Choi matrix clearly non-positive
    scaled, d = block_choi(n), 2**n
    scaled[0, d + 1:] *= 1.0 + 1e-3
    scaled[d + 1:, 0] *= 1.0 + 1e-3
    assert np.linalg.eigvalsh(scaled)[0] < -1e-10


# -- tensor-power channel --


def test_bns_channel_trivial_blocks():
    assert channels_equal(bns_channel(2, 2), identity_channel(4))


def test_bns_channel_divisibility_error():
    with pytest.raises(DimensionError):
        bns_channel(4, 3)


def test_bns_channel_refuses_oversized_kraus_array():
    # 15^4 Kraus operators of 16 x 4096: 3.1 GB, refused before allocating
    with pytest.raises(DimensionError, match="MiB"):
        bns_channel(12, 4)


def test_budget_refuses_every_dense_channel_above_twelve_sites():
    # (2^(N/k) - 1)^k * 2^(k+N) * 16 >= 2^(2N+4) bytes: no site-count limit is needed
    started = time.perf_counter()
    tracemalloc.start()
    try:
        for n_sites in range(13, 41):
            for n_blocks in (k for k in range(1, n_sites + 1) if n_sites % k == 0):
                with pytest.raises(DimensionError, match="MiB"):
                    bns_channel(n_sites, n_blocks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("n_sites,n_blocks,built", [(3, 1, 1), (4, 2, 2), (6, 3, 2), (8, 4, 2)])
def test_bns_channel_builds_the_block_and_one_product(monkeypatch, n_sites, n_blocks, built):
    # nested two-channel products built and checked k - 1 channels after the block;
    # the one product has their bits
    nested = functools.reduce(tensor, [block_channel(n_sites // n_blocks)] * n_blocks)
    inits, original = [], QuantumChannel.__post_init__
    monkeypatch.setattr(QuantumChannel, "__post_init__",
                        lambda self: (inits.append(self.dim_in), original(self))[1])
    ch = bns_channel(n_sites, n_blocks)
    assert len(inits) == built
    np.testing.assert_array_equal(ch.kraus, nested.kraus)


def test_bns_channel_blockwise_on_basis_state():
    ch = bns_channel(4, 2)
    got = ch.apply_matrix(matrix_unit(0b1100, 0b1100, 16))
    np.testing.assert_allclose(got, matrix_unit(0b10, 0b10, 4), atol=1e-12)


def test_two_block_tensor_on_alternating_string():
    two = tensor(block_channel(2), block_channel(2))
    got = two.apply_matrix(matrix_unit(0b0101, 0b0101, 16))
    np.testing.assert_allclose(got, matrix_unit(0b11, 0b11, 4), atol=1e-12)


def test_bns_channel_on_microcanonical_half_filling():
    sub = enumerate_basis(4, 2)
    ch = restrict_channel(bns_channel(4, 2), sub)
    out = ch.apply_matrix(np.eye(sub.d_r) / sub.d_r)
    expected = np.diag([0.0, 1 / 6, 1 / 6, 4 / 6]).astype(complex)
    np.testing.assert_allclose(out, expected, atol=1e-12)


# -- exact canonical spectrum --


def test_spectrum_single_block_single_excitation():
    spec = canonical_spectrum(2, 1, 1)
    assert spec.counts == {1: spec.total}
    np.testing.assert_allclose(spec.diagonal(), [0.0, 1.0])


@pytest.mark.parametrize("n_sites,n_excited,n_blocks",
                         [(4, 2, 2), (9, 4, 3), (12, 5, 4), (12, 7, 12), (14, 3, 14)])
def test_spectrum_diagonal_matches_popcount_loop(n_sites, n_excited, n_blocks):
    spec = canonical_spectrum(n_sites, n_excited, n_blocks)
    loop = [float(Fraction(spec.counts.get(y.bit_count(), 0), spec.total))
            for y in range(2**n_blocks)]
    np.testing.assert_array_equal(spec.diagonal(), loop)


def test_spectrum_diagonal_refused_above_budget(small_dense_budget):
    # 9 * 2^12 bytes fit the 64 KiB budget, 9 * 2^13 do not
    assert canonical_spectrum(12, 6, 12).diagonal().shape == (2**12,)
    with pytest.raises(DimensionError, match="MiB"):
        canonical_spectrum(13, 6, 13).diagonal()
    with pytest.raises(DimensionError, match="MiB"):
        canonical_spectrum(10000, 200, 1000).diagonal()


def test_spectrum_half_filled_two_blocks():
    spec = canonical_spectrum(4, 2, 2)
    assert dict(zip(spec.sectors.support, spec.sectors.probabilities)) \
        == {1: Fraction(1, 3), 2: Fraction(2, 3)}


@pytest.mark.parametrize("n_sites,n_blocks", [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3)])
def test_spectrum_matches_brute_force_enumeration(n_sites, n_blocks):
    for n_excited in range(0, n_sites + 1):
        spec = canonical_spectrum(n_sites, n_excited, n_blocks)
        assert {m: Fraction(c, spec.total) for m, c in spec.counts.items()} \
            == brute_force_spectrum(n_sites, n_excited, n_blocks)


def test_spectrum_support_range():
    spec = canonical_spectrum(12, 5, 4)
    lo = -(-4 * 5 // 12)
    hi = min(5, 4)
    assert set(spec.counts) == set(range(lo, hi + 1))
    assert all(c > 0 for c in spec.counts.values())
    assert spec.sectors.probability(lo - 1) == 0 and spec.sectors.probability(hi + 1) == 0


@pytest.mark.parametrize("n_sites", range(1, 17))
def test_supports_match_the_range_formulas(n_sites):
    # the sectors with a nonzero count are ceil(k Np / N) .. min(Np, k) for the detector
    # and max(0, Np - (N - k)) .. min(Np, k) for the kept sites; both distributions
    # equal their defining comb and Fraction formulas there
    for n_excited in range(n_sites + 1):
        d_r = comb(n_sites, n_excited)
        for k in range(n_sites + 1):
            hi = min(n_excited, k)
            trace = energy_distribution_trace(n_sites, n_excited, k)
            assert trace.support == tuple(range(max(0, n_excited - (n_sites - k)), hi + 1))
            assert trace.total == d_r
            assert trace.probabilities == tuple(
                Fraction(comb(k, m) * comb(n_sites - k, n_excited - m), d_r)
                for m in trace.support)
            if k and n_sites % k == 0:
                spectrum = canonical_spectrum(n_sites, n_excited, k)
                assert tuple(spectrum.counts) == tuple(range(-(-k * n_excited // n_sites),
                                                             hi + 1))
                n = n_sites // k
                occupied = {m: sum((-1) ** (m - q) * comb(m, q) * comb(n * q, n_excited)
                                   for q in range(m + 1)) for m in spectrum.counts}
                assert (spectrum.counts, spectrum.total) == (occupied, d_r)
                assert dict(zip(spectrum.sectors.support, spectrum.sectors.probabilities)) \
                    == {m: comb(k, m) * Fraction(c, d_r) for m, c in occupied.items()}
                assert energy_distribution_bns(n_sites, n_excited, k) == spectrum.sectors


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.data())
def test_spectrum_exact_normalization(block, k, data):
    n_sites = block * k
    n_excited = data.draw(st.integers(0, n_sites))
    spec = canonical_spectrum(n_sites, n_excited, k)
    assert sum(spec.sectors.probabilities) == 1
    assert all(c >= 0 for c in spec.counts.values())


@pytest.mark.parametrize("top", [0, 1, 2, 7, 16, 40])
def test_binomial_rows_equal_comb(top):
    # rows that run past their last nonzero entry, columns that start below the lower
    # index (n q < Np) and columns that never reach it within count (Np > n j_max)
    for bottom in range(top + 3):
        for count in (1, 2, top + 4):
            assert _binomial_row(top, bottom, count) \
                == [comb(top, bottom + i) for i in range(count)]
            for step in (1, 2, 5, top + 1):
                assert _binomial_row(top, bottom, count, top_step=step) \
                    == [comb(top + i * step, bottom) for i in range(count)]


# the paper's scales, Np = 0, Np = N, k = N (n = 1), k = 1 (n = N) and near-full filling
@pytest.mark.parametrize("n_sites,n_excited,n_blocks",
                         [(10000, 200, 1000), (20000, 1000, 2000), (200, 0, 20), (200, 200, 20),
                          (200, 30, 200), (200, 30, 1), (12, 11, 3), (40, 39, 2)])
def test_binomial_rows_of_the_exact_distributions(n_sites, n_excited, n_blocks):
    n, j_max = n_sites // n_blocks, min(n_excited, n_blocks)
    assert _binomial_row(0, n_excited, j_max + 1, top_step=n) \
        == [comb(n * q, n_excited) for q in range(j_max + 1)]
    assert _binomial_row(n_blocks, 0, j_max + 1) == [comb(n_blocks, m) for m in range(j_max + 1)]
    assert _binomial_row(n_sites - n_blocks, 0, n_excited + 1) \
        == [comb(n_sites - n_blocks, b) for b in range(n_excited + 1)]


def inclusion_exclusion_counts(n: int, n_excited: int, j_max: int) -> list[int]:
    """The occupied counts as version 0.10.0 evaluated them, term by term."""
    big_binom = [comb(n * q, n_excited) for q in range(j_max + 1)]
    counts = []
    for j in range(j_max + 1):
        total = 0
        for q in range(j + 1):
            term = comb(j, q) * big_binom[q]
            total += term if (j - q) % 2 == 0 else -term
        counts.append(total)
    return counts


# edge cases: j_max = 0 (4, 0, 0), Np = 0 (1, 0, 5) and Np > n j_max (2, 7, 3), where
# every count is 0; the last case runs far past j = Np, where every count is an exact 0
@pytest.mark.parametrize("n,n_excited,j_max", [(1, 0, 5), (4, 0, 0), (2, 7, 3), (3, 4, 3),
                                               (5, 7, 2), (100, 200, 100), (10, 200, 200),
                                               (10, 200, 1000)])
def test_occupied_counts_equal_inclusion_exclusion(n, n_excited, j_max):
    counts = _occupied_counts(n, n_excited, j_max)
    assert counts == inclusion_exclusion_counts(n, n_excited, j_max)
    assert all(type(c) is int for c in counts)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 20), st.integers(0, 12))
def test_occupied_counts_sweep(n, n_excited, j_max):
    assert _occupied_counts(n, n_excited, j_max) == inclusion_exclusion_counts(n, n_excited,
                                                                               j_max)


def test_spectrum_sum_check_is_exact_at_paper_scale():
    # counts and total scaled by C(N, Np): one count off by 1 moves a weight by
    # 1 / C(N, Np)^2, and that is refused
    spec = canonical_spectrum(10000, 200, 1000)
    scale = comb(10000, 200)
    scaled = {m: c * scale for m, c in spec.counts.items()}
    assert BnSCanonicalSpectrum(10000, 200, 1000, scaled, spec.total * scale).sectors \
        .probabilities == spec.sectors.probabilities
    for m in (min(spec.counts), max(spec.counts)):
        for delta in (1, -1):
            off = dict(scaled)
            off[m] += delta
            with pytest.raises(ValueError, match="exactly 1"):
                BnSCanonicalSpectrum(10000, 200, 1000, off, spec.total * scale)
    with pytest.raises(ValueError, match="negative"):
        BnSCanonicalSpectrum(4, 2, 2, {1: 3, 2: -1}, 2)
    with pytest.raises(ValueError, match="sector"):
        BnSCanonicalSpectrum(4, 2, 2, {3: 1}, 8)


def test_spectrum_rejects_bad_arguments():
    with pytest.raises(DimensionError):
        canonical_spectrum(5, 2, 2)
    with pytest.raises(ValueError):
        canonical_spectrum(4, 5, 2)


# -- excitation-count distributions --


def test_trace_distribution_half_filled():
    dist = energy_distribution_trace(4, 2, 2)
    assert dict(zip(dist.support, dist.probabilities)) == {
        0: Fraction(1, 6), 1: Fraction(2, 3), 2: Fraction(1, 6)}


@pytest.mark.parametrize("n,np_exc,k", [(4, 2, 2), (10, 3, 5), (100, 17, 20)])
def test_trace_distribution_mean_is_hypergeometric(n, np_exc, k):
    dist = energy_distribution_trace(n, np_exc, k)
    assert dist.mean() == Fraction(k * np_exc, n)


def test_trace_distribution_keep_everything():
    dist = energy_distribution_trace(6, 2, 6)
    assert dist.probability(2) == 1


def test_bns_distribution_half_filled():
    dist = energy_distribution_bns(4, 2, 2)
    assert dict(zip(dist.support, dist.probabilities)) == {
        1: Fraction(1, 3), 2: Fraction(2, 3)}


def bns_mean_exact(n_sites: int, n_excited: int, n_blocks: int) -> Fraction:
    """Mean excited-block count: k times the chance that one block is non-empty.

    Linearity of expectation over the uniform excitation patterns gives
    k * (1 - C(N - N/k, Np) / C(N, Np)) without touching the alternating sum.
    """
    empty = Fraction(comb(n_sites - n_sites // n_blocks, n_excited), comb(n_sites, n_excited))
    return n_blocks * (1 - empty)


@pytest.mark.parametrize("n,np_exc,k", [(4, 2, 2), (8, 3, 4), (12, 7, 6), (60, 11, 12),
                                        (10000, 200, 1000), (20000, 1000, 1000)])
def test_bns_distribution_mean_identity(n, np_exc, k):
    dist = energy_distribution_bns(n, np_exc, k)
    assert dist.mean() == bns_mean_exact(n, np_exc, k)


@pytest.mark.parametrize("distribution", [energy_distribution_trace, energy_distribution_bns])
def test_distribution_mean_equals_fraction_sum_at_paper_scale(distribution):
    dist = distribution(10000, 200, 1000)
    plain = sum((m * p for m, p in zip(dist.support, dist.probabilities)), Fraction(0))
    mean = dist.mean()
    assert type(mean) is Fraction and mean == plain


def test_distribution_sum_check_is_exact():
    with pytest.raises(ValueError, match="exactly 1"):
        ExactDistribution((), (), 0)
    assert ExactDistribution((0, 1), (0, 1), 1).mean() == 1
    assert ExactDistribution((2,), (3,), 3).mean() == 2
    assert ExactDistribution((0, 1), (2, 4), 6).probabilities == (Fraction(1, 3),
                                                                  Fraction(2, 3))
    with pytest.raises(TypeError, match="integer"):
        ExactDistribution((0, 1), (0.5, 0.5), 1)
    with pytest.raises(ValueError, match="negative"):
        ExactDistribution((0, 1), (-1, 2), 1)
    with pytest.raises(ValueError, match="length"):
        ExactDistribution((0, 1), (1,), 1)
    # counts and total scaled by C(N, Np): one count off by 1 moves a probability by
    # 1 / C(N, Np)^2, and that is refused
    scale = comb(10000, 200)
    for distribution in (energy_distribution_trace, energy_distribution_bns):
        dist = distribution(10000, 200, 1000)
        scaled = [c * scale for c in dist.counts]
        assert ExactDistribution(dist.support, tuple(scaled), dist.total * scale) \
            .probabilities == dist.probabilities
        for i in (0, len(scaled) - 1):
            for delta in (1, -1):
                counts = list(scaled)
                counts[i] += delta
                with pytest.raises(ValueError, match="exactly 1"):
                    ExactDistribution(dist.support, tuple(counts), dist.total * scale)


def test_bns_distribution_saturates_at_high_filling():
    # with 7 excitations over 4 blocks of 2, every block fires
    dist = energy_distribution_bns(8, 7, 4)
    assert dist.probability(4) == 1


def test_reduced_pairs_equal_fractions_on_every_small_spec():
    # the ratio recurrence of the hypergeometric law against Fraction, on every
    # (N, Np, k) with N <= 30: supports that start above 0 and supports cut at k < Np
    seen = set()
    for n in range(31):
        for np_exc in range(n + 1):
            for k in range(n + 1):
                dist = energy_distribution_trace(n, np_exc, k)
                assert len(dist.ratios) == len(dist.counts) - 1
                assert dist.counts == tuple(comb(k, m) * comb(n - k, np_exc - m)
                                            for m in dist.support)
                fractions = [Fraction(c, dist.total) for c in dist.counts]
                assert list(dist.reduced()) == [(f.numerator, f.denominator) for f in fractions]
                assert dist.floats == tuple(map(float, fractions))
                if dist.support[0] > 0:
                    seen.add("lo > 0")
                if dist.support[-1] == k < np_exc:
                    seen.add("hi = k < Np")
    assert seen == {"lo > 0", "hi = k < Np"}


@pytest.mark.parametrize("n,np_exc,k", [(10000, 200, 1000), (20000, 1000, 1000),
                                        (10000, 9900, 1000)])
def test_reduced_pairs_equal_the_gcd_route_at_paper_scale(n, np_exc, k):
    dist = energy_distribution_trace(n, np_exc, k)
    general = ExactDistribution(dist.support, dist.counts, dist.total)
    assert dist.ratios and not general.ratios
    assert list(dist.reduced()) == list(general.reduced()) == [
        (c // gcd(c, dist.total), dist.total // gcd(c, dist.total)) for c in dist.counts]


def test_distribution_from_ratios_refuses_an_inexact_ratio():
    assert ExactDistribution._from_ratios((0, 1), 1, ((3, 1),), 4).counts == (1, 3)
    with pytest.raises(ValueError, match="no integer count"):
        ExactDistribution._from_ratios((0, 1), 1, ((3, 2),), 4)
    for ratio in ((0, 1), (3, -1), (3, 0)):
        with pytest.raises(ValueError, match="not positive"):
            ExactDistribution._from_ratios((0, 1), 1, (ratio,), 4)
    with pytest.raises(ValueError, match="exactly 1"):
        ExactDistribution._from_ratios((0, 1), 1, ((2, 1),), 4)


def test_distribution_csv_bytes_do_not_depend_on_the_reduction_route(tmp_path):
    dist = energy_distribution_trace(300, 40, 90)
    ours, general = tmp_path / "ratios.csv", tmp_path / "gcd.csv"
    write_distribution_csv(ours, dist)
    write_distribution_csv(general, ExactDistribution(dist.support, dist.counts, dist.total))
    assert ours.read_bytes() == general.read_bytes()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_distribution_csv_restores_the_digit_limit_when_a_row_raises(tmp_path, monkeypatch):
    # the rows are generated while the file is written, inside the lifted limit: a row
    # that raises after the first run of 4096 rows leaves the limit as it was, and no file
    dist = ExactDistribution(tuple(range(6000)), (1,) * 6000, 6000)
    reduced, seen = ExactDistribution.reduced, []

    def failing_reduced(self):
        for i, pair in enumerate(reduced(self)):
            if i == 5000:
                raise RuntimeError("row 5000")
            seen.append(sys.get_int_max_str_digits())
            yield pair

    monkeypatch.setattr(ExactDistribution, "reduced", failing_reduced)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        with pytest.raises(RuntimeError, match="row 5000"):
            write_distribution_csv(tmp_path / "dist.csv", dist)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)
    assert set(seen) == {0} and len(seen) == 5000
    assert list(tmp_path.iterdir()) == []


def test_distribution_csv_format(tmp_path):
    dist = energy_distribution_bns(4, 2, 2)
    path = tmp_path / "dist.csv"
    write_distribution_csv(path, dist)
    raw = path.read_bytes()
    assert b"\r" not in raw
    rows = list(csv.DictReader(raw.decode().splitlines()))
    assert [r["m"] for r in rows] == ["1", "2"]
    assert rows[0]["numerator"] == "1" and rows[0]["denominator"] == "3"
    assert float(rows[0]["probability"]) == pytest.approx(1 / 3, abs=1e-16)


# -- dense channel against exact spectrum (small sweep; the full one is in acceptance) --


@pytest.mark.parametrize("n_sites,n_blocks", [(4, 2), (6, 3), (6, 2), (8, 4)])
def test_channel_application_matches_spectrum(n_sites, n_blocks):
    full = bns_channel(n_sites, n_blocks)
    for n_excited in range(1, n_sites):
        sub = enumerate_basis(n_sites, n_excited)
        ch = restrict_channel(full, sub)
        omega = ch.apply_matrix(np.eye(sub.d_r) / sub.d_r)
        expected = canonical_spectrum(n_sites, n_excited, n_blocks).diagonal()
        np.testing.assert_allclose(np.diag(omega).real, expected, atol=1e-12)
        off = omega - np.diag(np.diag(omega))
        assert np.max(np.abs(off)) < 1e-12


# -- matrix-free restricted detector --


def test_detector_purity_routes_are_equal_rationals():
    for n_sites in range(1, 25):
        for n_blocks in [k for k in range(1, n_sites + 1) if n_sites % k == 0]:
            n = n_sites // n_blocks
            for n_excited in range(n_sites + 1):
                args = (n, n_blocks, n_excited)
                alpha = DetectorChannel(n_sites, n_blocks, n_excited)._occupied
                assert _purity_numerator_closed_form(*args, alpha) \
                    == _purity_numerator_convolution(*args), (n_sites, *args)


@pytest.mark.parametrize("spec", [(8, 4, 6), (9, 3, 4), (12, 12, 6), (10, 2, 7), (6, 6, 1)],
                         ids=str)
def test_occupied_counts_stop_at_the_blocks_the_excitations_can_fill(monkeypatch, spec):
    # w excitations occupy at most w blocks: no row is counted past j = w, and the padded
    # table is the full one
    calls, original = [], bns._occupied_counts
    monkeypatch.setattr(bns, "_occupied_counts",
                        lambda n, w, j_max: (calls.append((w, j_max)), original(n, w, j_max))[1])
    ch = DetectorChannel(*spec)
    ch.choi_purity_routes()
    ch._row_bytes
    assert calls and all(j_max <= w for w, j_max in calls)
    n_sites, n_blocks, n_excited = spec
    assert ch._occupied == [original(n_sites // n_blocks, w, n_blocks)
                            for w in range(n_excited + 1)]


def test_detector_purity_routes_agree_at_200_20_100():
    # (N/k, k, Np) = (10, 20, 100): the convolution's windows shrink from below
    # from the 11th block on
    alpha = DetectorChannel(200, 20, 100)._occupied
    assert _purity_numerator_convolution(10, 20, 100) \
        == _purity_numerator_closed_form(10, 20, 100, alpha)


@pytest.mark.parametrize("args,numerator", [
    ((3, 3, 4), 44856),
    ((2, 5, 5), 114696),
    ((4, 6, 12), 31677979481120),
    ((1, 9, 4), 15876),
    ((8, 1, 3), 14280),
    ((5, 20, 30), 34127451727525311066517013721647893072497464680249138900),
])
def test_detector_purity_numerator_is_unchanged(args, numerator):
    # (N/k, k, Np): the values of the per-block convolution before it became a call to
    # the shared table product
    assert _purity_numerator_convolution(*args) == numerator


@pytest.mark.parametrize("n_sites,n_blocks,n_excited,purity", [
    (9, 3, 4, 0.008237308528853718),
    (10, 5, 5, 0.007432602670697909),
])
def test_detector_purity_beyond_the_dense_choi_matrix(n_sites, n_blocks, n_excited, purity):
    assert DetectorChannel(n_sites, n_blocks, n_excited).choi_purity_routes() \
        == (purity, purity)


def test_detector_purity_of_trivial_blocks_is_that_of_the_identity():
    # one-site blocks are identity maps: the Choi state is pure
    assert DetectorChannel(6, 6, 3).choi_purity_routes() == (1.0, 1.0)


def test_detector_channel_is_self_consistent_beyond_the_dense_path():
    # the dense N=12, k=4 channel is refused; check the parts against each other
    ch = DetectorChannel(12, 4, 6)
    psis = np.stack([haar_sample(ch.dim_in, derive_seed(5, i)) for i in range(4)])
    out = ch.apply_pure_batch(psis)
    assert np.allclose(np.trace(out, axis1=1, axis2=2), 1.0, atol=1e-13)
    assert np.max(np.abs(out - out.conj().transpose(0, 2, 1))) < 1e-14
    assert np.min(np.linalg.eigvalsh(out)) > -1e-14
    # the canonical state is the average output over the basis states
    basis_mean = np.mean(ch.apply_pure_batch(np.eye(ch.dim_in)), axis=0)
    assert np.max(np.abs(ch.canonical_state().matrix - basis_mean)) < 1e-14
    # both exact purity routes against the Kraus double sum of the on-demand family
    v = ch.kraus.reshape(ch.kraus.shape[0], -1)
    v = v[:, np.any(v, axis=0)]  # zero entries add nothing to the traces
    kraus_purity = float(np.sum(np.abs(v @ v.conj().T) ** 2)) / ch.dim_in**2
    for route in ch.choi_purity_routes():
        assert abs(route - kraus_purity) < 1e-14


def test_detector_channel_rejects_bad_arguments():
    with pytest.raises(DimensionError):
        DetectorChannel(4, 3, 2)
    with pytest.raises(ValueError):
        DetectorChannel(4, 2, 5)
    ch = DetectorChannel(4, 2, 2)
    with pytest.raises(DimensionError):
        ch.apply_pure_batch(np.zeros((2, 5)))
    with pytest.raises(DimensionError):
        ch.apply_pure_batch(np.zeros(6))


def test_detector_plan_refused_above_budget(small_dense_budget, monkeypatch):
    # 8 * 3 * (memberships + 4^k) bytes: 8/2/4 fits the 64 KiB budget, 12/4/6 does not
    fits = DetectorChannel(8, 2, 4)
    assert fits.apply_pure_batch(np.eye(1, fits.dim_in)).shape == (1, 4, 4)
    big = DetectorChannel(12, 4, 6)
    # refused from counts, before the basis is enumerated
    monkeypatch.setattr(bns, "enumerate_basis", None)
    with pytest.raises(DimensionError, match="grouping plan"):
        big.apply_pure_batch(np.eye(1, big.dim_in))


@pytest.mark.parametrize("n_sites,n_blocks,n_excited", [
    (8, 2, 4), (9, 3, 4), (12, 4, 5), (16, 4, 8), (12, 12, 6), (10, 5, 10), (10, 10, 0),
    (20, 4, 10), (6, 1, 3), (6, 6, 1)])
def test_plan_memberships_from_counts_equal_the_basis_sum(n_sites, n_blocks, n_excited):
    # sum_x 2^|y(x)| over the basis equals sum_m C(k, m) counts[m] 2^m of the spectrum
    ch = DetectorChannel(n_sites, n_blocks, n_excited)
    y = ch._patterns(enumerate_basis(n_sites, n_excited).indices)
    direct = sum(2 ** bin(p).count("1") for p in y.tolist())
    spectrum = canonical_spectrum(n_sites, n_excited, n_blocks)
    sectors = spectrum.sectors
    assert direct == sum(c * 2**m for m, c in zip(sectors.support, sectors.counts))
    # the groups the plan keeps hold at most that many members
    assert sum(g.members.size for g in ch._plan) <= direct


def test_plan_counts_memberships_equal_the_basis_sum():
    # sum_s C(k, s) members_s from the group loop is sum_x 2^|y(x)|, what the plan gate charges
    for spec in [(8, 2, 4), (9, 3, 4), (12, 4, 5), (12, 12, 6), (10, 10, 0), (6, 1, 3)]:
        ch = DetectorChannel(*spec)
        y = ch._patterns(enumerate_basis(spec[0], spec[2]).indices)
        assert ch._plan_counts()[0] == sum(2 ** bin(p).count("1") for p in y.tolist()), spec


@pytest.mark.parametrize("n_sites", range(1, 11))
def test_largest_group_work_from_counts_equals_the_plan(n_sites):
    # the work the row bytes count from the spectrum is that of the plan's largest group
    specs = [(n_sites, k, np_exc) for k in range(1, n_sites + 1) if n_sites % k == 0
             for np_exc in range(n_sites + 1)]
    if n_sites == 10:
        specs += [(12, 4, 5), (12, 12, 6), (16, 4, 8), (20, 4, 10), (18, 6, 7)]
    for spec in specs:
        ch = DetectorChannel(*spec)
        work = max(2 * g.members.size + g.n_rows * (g.n_cols + g.n_rows) + 2 * g.gram_index.size
                   for g in ch._plan)
        assert ch._plan_counts()[1] == work, spec


def test_detector_row_bytes_build_no_plan(monkeypatch):
    # C(40, 20) = 1.4e11 basis states: the row is counted, and refused, with no plan
    monkeypatch.setattr(bns, "enumerate_basis", None)
    ch = DetectorChannel(40, 4, 20)
    assert ch._row_bytes > 2**40
    with pytest.raises(DimensionError, match="one sampled state"):
        sample_distances(ExperimentConfig(channel=ch, samples=1, master_seed=0))
    assert "_plan" not in vars(ch)


def test_detector_counts_its_spectrum_once_per_channel(monkeypatch):
    # one run of 16 chunks: the spectrum is counted once, and the occupied counts once
    # by the spectrum and once per Np + 1 = 5 rows of the table that the row bytes'
    # group work and the purity closed form share
    calls = {"canonical_spectrum": 0, "_occupied_counts": 0}
    for name in calls:
        def counting(*args, _real=getattr(bns, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(bns, name, counting)
    monkeypatch.setattr(typicality, "_worker_count", lambda chunks, chunk_bytes: 1)
    run_experiment(ExperimentConfig(channel=DetectorChannel(8, 4, 4), samples=4000,
                                    master_seed=3, eta_mode="estimated"))
    assert calls["canonical_spectrum"] == 1
    assert calls["_occupied_counts"] <= 6


def test_detector_holds_no_basis_and_counts_its_dimension():
    ch = DetectorChannel(40, 4, 20)
    assert ch.dim_in == comb(40, 20)
    assert not hasattr(ch, "sub")
    # past 62 sites the plan check passes for one block, and the basis builder refuses
    wide = DetectorChannel(64, 1, 1)
    assert wide.dim_in == 64 and wide.exact_eta() == 0.0  # one block, always occupied
    with pytest.raises(DimensionError, match="int64"):
        wide.apply_pure_batch(np.eye(1, 64))


def test_detector_output_block_refused_above_budget(small_dense_budget):
    # 16 * B * (4^k + 66) bytes: 12 outputs of 16 x 16 and their work arrays fit
    # the 64 KiB budget, 13 do not, and 17 outputs alone exceed it
    ch = DetectorChannel(4, 4, 2)
    assert ch.apply_pure_batch(np.ones((12, 6)) / np.sqrt(6)).shape == (12, 16, 16)
    for rows in (13, 17):
        with pytest.raises(DimensionError, match=f"{rows} detector outputs of dimension 16 "
                                                 "and their work arrays needs"):
            ch.apply_pure_batch(np.ones((rows, 6)) / np.sqrt(6))


def test_detector_canonical_state_and_kraus_refused_above_budget(small_dense_budget):
    assert DetectorChannel(6, 6, 1).canonical_state().dim == 64
    with pytest.raises(DimensionError, match="canonical state"):
        DetectorChannel(7, 7, 1).canonical_state()
    assert DetectorChannel(8, 2, 2).kraus.shape[1:] == (4, 28)
    with pytest.raises(DimensionError, match="Choi block"):
        DetectorChannel(8, 2, 4).kraus
