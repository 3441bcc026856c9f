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

from conftest import dense_choi_purity, matrix_unit
from qtypical.bns import (
    DetectorChannel,
    _purity_numerator_closed_form,
    _purity_numerator_convolution,
    block_channel,
    block_choi,
    bns_channel,
    bns_mean_exact,
    canonical_spectrum,
    energy_distribution_bns,
    energy_distribution_trace,
    write_distribution_csv,
)
from qtypical.channels import (
    QuantumChannel,
    channels_equal,
    choi_to_kraus,
    identity_channel,
    tensor,
)
from qtypical.qcore import DensityOperator, DimensionError, derive_seed, haar_sample
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


# -- matrix-free restricted detector --


@pytest.mark.parametrize("n_sites", range(2, 11))
def test_detector_channel_matches_dense_oracle(n_sites):
    for n_blocks in [k for k in range(1, n_sites + 1) if n_sites % k == 0]:
        full = bns_channel(n_sites, n_blocks)
        for n_excited in range(1, n_sites):
            ch = DetectorChannel(n_sites, n_blocks, n_excited)
            dense = restrict_channel(full, enumerate_basis(n_sites, n_excited))
            case = (n_sites, n_blocks, n_excited)
            assert (ch.dim_in, ch.dim_out) == (dense.dim_in, dense.dim_out)
            psis = np.stack([haar_sample(ch.dim_in, derive_seed(n_sites, i)).amplitudes
                             for i in range(3)])
            delta = ch.apply_pure_batch(psis) - dense.apply_pure_batch(psis)
            assert np.max(np.abs(delta)) < 1e-14, case
            omega = dense.apply_matrix(np.eye(ch.dim_in) / ch.dim_in)
            assert np.max(np.abs(ch.canonical_state().matrix - omega)) < 1e-14, case
            purity = dense_choi_purity(dense)
            for route in ch.choi_purity_routes():
                assert abs(route - purity) < 1e-14, case
            assert abs(ch.linear_entropy() - (1.0 - purity)) < 1e-14, case
            rebuilt = QuantumChannel(ch.dim_in, ch.dim_out, ch.kraus)
            if (ch.dim_in * ch.dim_out) ** 2 <= 2**20:
                assert channels_equal(rebuilt, dense), case
            else:  # the Choi matrices are large: compare the action on a generic operator
                rng = np.random.default_rng(derive_seed(n_sites, n_excited))
                op = rng.standard_normal((ch.dim_in,) * 2) \
                    + 1j * rng.standard_normal((ch.dim_in,) * 2)
                delta = rebuilt.apply_matrix(op) - dense.apply_matrix(op)
                assert np.max(np.abs(delta)) < 1e-12, case


def test_detector_purity_routes_are_equal_rationals():
    for n_sites in range(1, 25):
        for n_blocks in [k for k in range(1, n_sites + 1) if n_sites % k == 0]:
            n = n_sites // n_blocks
            for n_excited in range(n_sites + 1):
                args = (n, n_blocks, n_excited)
                assert _purity_numerator_closed_form(*args) \
                    == _purity_numerator_convolution(*args), (n_sites, *args)


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
    psis = np.stack([haar_sample(ch.dim_in, derive_seed(5, i)).amplitudes for i in range(4)])
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


@pytest.mark.parametrize("n_sites,n_blocks,n_excited", [(8, 2, 4), (9, 3, 4), (10, 5, 5)])
def test_detector_outputs_do_not_depend_on_the_block(n_sites, n_blocks, n_excited):
    ch = DetectorChannel(n_sites, n_blocks, n_excited)
    psis = np.stack([haar_sample(ch.dim_in, derive_seed(n_sites, i)).amplitudes
                     for i in range(17)])
    block = ch.apply_pure_batch(psis)
    for psi, out in zip(psis, block):
        assert np.array_equal(ch.apply_pure_batch(psi[None]), out[None])


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


def test_detector_plan_refused_above_budget(small_dense_budget):
    # 8 * 3 * (memberships + 4^k) bytes: 8/2/4 fits the 64 KiB budget, 12/4/6 does not
    fits = DetectorChannel(8, 2, 4)
    assert fits.apply_pure_batch(np.eye(1, fits.dim_in)).shape == (1, 4, 4)
    big = DetectorChannel(12, 4, 6)
    with pytest.raises(DimensionError, match="grouping plan"):
        big.apply_pure_batch(np.eye(1, big.dim_in))


def test_detector_output_block_refused_above_budget(small_dense_budget):
    # 16 * B * (4^k + 66) bytes: 12 outputs of 16 x 16 and their work arrays fit
    # the 64 KiB budget, 13 do not, and 17 outputs alone exceed it
    ch = DetectorChannel(4, 4, 2)
    assert ch.apply_pure_batch(np.ones((12, 6)) / np.sqrt(6)).shape == (12, 16, 16)
    with pytest.raises(DimensionError, match="work arrays"):
        ch.apply_pure_batch(np.ones((13, 6)) / np.sqrt(6))
    with pytest.raises(DimensionError, match="17 detector outputs of dimension 16 needs"):
        ch.apply_pure_batch(np.ones((17, 6)) / np.sqrt(6))


def test_detector_canonical_state_and_kraus_refused_above_budget(small_dense_budget):
    assert DetectorChannel(6, 6, 1).canonical_state().dim == 64
    with pytest.raises(DimensionError, match="canonical state"):
        DetectorChannel(7, 7, 1).canonical_state()
    assert DetectorChannel(8, 2, 2).kraus.shape[1:] == (4, 28)
    with pytest.raises(DimensionError, match="Choi block"):
        DetectorChannel(8, 2, 4).kraus
