import csv
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix_unit
from qtypical.bns import (
    block_channel,
    block_choi,
    bns_channel,
    bns_mean_exact,
    canonical_spectrum,
    energy_distribution_bns,
    energy_distribution_trace,
    write_distribution_csv,
)
from qtypical.channels import channels_equal, choi_to_kraus, identity_channel, tensor
from qtypical.qcore import DensityOperator, DimensionError
from qtypical.restriction import enumerate_basis, restrict_channel


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


def test_block_stinespring_dilation():
    ch = block_channel(2)
    v = ch.stinespring()
    assert v.dim_env == ch.n_kraus == 3
    for i in range(4):
        for j in range(4):
            np.testing.assert_allclose(
                v.reconstruct(matrix_unit(i, j, 4)),
                ch.apply_matrix(matrix_unit(i, j, 4)), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coherence_factor_sits_on_cp_boundary(n):
    # nominal factor: positive semidefinite within numerical noise
    assert np.linalg.eigvalsh(block_choi(n))[0] > -1e-12
    # 0.1% more coherence makes the Choi matrix clearly non-positive
    scaled = block_choi(n, coherence_scale=1.0 + 1e-3)
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
    out = ch.apply(DensityOperator(np.eye(sub.d_r) / sub.d_r)).matrix
    expected = np.diag([0.0, 1 / 6, 1 / 6, 4 / 6]).astype(complex)
    np.testing.assert_allclose(out, expected, atol=1e-12)


# -- exact canonical spectrum --


def test_spectrum_single_block_single_excitation():
    spec = canonical_spectrum(2, 1, 1)
    assert spec.weights == {1: Fraction(1)}
    np.testing.assert_allclose(spec.diagonal(), [0.0, 1.0])


@pytest.mark.parametrize("n_sites,n_excited,n_blocks",
                         [(4, 2, 2), (9, 4, 3), (12, 5, 4), (12, 7, 12), (14, 3, 14)])
def test_spectrum_diagonal_matches_popcount_loop(n_sites, n_excited, n_blocks):
    spec = canonical_spectrum(n_sites, n_excited, n_blocks)
    loop = [float(spec.weight(y.bit_count())) for y in range(2**n_blocks)]
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
    assert spec.sector_probability == {1: Fraction(1, 3), 2: Fraction(2, 3)}


@pytest.mark.parametrize("n_sites,n_blocks", [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3)])
def test_spectrum_matches_brute_force_enumeration(n_sites, n_blocks):
    for n_excited in range(0, n_sites + 1):
        spec = canonical_spectrum(n_sites, n_excited, n_blocks)
        assert spec.weights == brute_force_spectrum(n_sites, n_excited, n_blocks)


def test_spectrum_support_range():
    spec = canonical_spectrum(12, 5, 4)
    lo = -(-4 * 5 // 12)
    hi = min(5, 4)
    assert set(spec.weights) == set(range(lo, hi + 1))
    assert all(w > 0 for w in spec.weights.values())
    assert spec.weight(lo - 1) == 0 and spec.weight(hi + 1) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.data())
def test_spectrum_exact_normalization(block, k, data):
    n_sites = block * k
    n_excited = data.draw(st.integers(0, n_sites))
    spec = canonical_spectrum(n_sites, n_excited, k)
    assert sum(spec.sector_probability.values()) == 1
    assert all(w >= 0 for w in spec.weights.values())


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


@pytest.mark.parametrize("n,np_exc,k", [(4, 2, 2), (8, 3, 4), (12, 7, 6), (60, 11, 12)])
def test_bns_distribution_mean_identity(n, np_exc, k):
    dist = energy_distribution_bns(n, np_exc, k)
    assert dist.mean() == bns_mean_exact(n, np_exc, k)


def test_bns_distribution_saturates_at_high_filling():
    # with 7 excitations over 4 blocks of 2, every block fires
    dist = energy_distribution_bns(8, 7, 4)
    assert dist.probability(4) == 1


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
