import math
import time
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from conftest import channels_equal, random_density
from qtypical.bns import DetectorChannel, block_channel
from qtypical.channels import QuantumChannel, partial_trace_channel
from qtypical.qcore import (
    DimensionError,
    _check_dense_bytes,
    derive_seed,
    haar_sample,
    partial_trace,
)
from qtypical.restriction import (
    RestrictedPartialTrace,
    _gather,
    _weight_class,
    _marginal_square_product,
    _marginal_square_sum,
    _shift_add,
    effective_environment_dimension,
    enumerate_basis,
    restrict_channel,
)


# -- basis enumeration --


def _string_indices(n_sites, n_excited):
    """Oracle: sorted bitstrings with n_excited ones, parsed as integers."""
    strings = []
    for ones in combinations(range(n_sites), n_excited):
        bits = ["0"] * n_sites
        for p in ones:
            bits[p] = "1"
        strings.append("".join(bits))
    strings.sort()
    return strings, [int(s, 2) for s in strings]


def test_enumerate_basis_two_sites():
    sub = enumerate_basis(2, 1)
    assert sub.indices.tolist() == [1, 2]  # "01", "10"
    assert sub.d_r == 2


def test_enumerate_basis_counts():
    assert enumerate_basis(4, 2).d_r == 6
    assert enumerate_basis(8, 4).d_r == 70


def test_enumerate_basis_is_sorted_and_consistent():
    sub = enumerate_basis(6, 2)
    assert np.all(np.diff(sub.indices) > 0)
    assert sub.d_r == comb(6, 2)
    assert all(bin(i).count("1") == 2 for i in sub.indices.tolist())


@pytest.mark.parametrize("n", range(1, 13))
def test_enumerate_basis_matches_string_oracle(n):
    for n_excited in range(n + 1):
        _, expected = _string_indices(n, n_excited)
        assert enumerate_basis(n, n_excited).indices.tolist() == expected


def test_enumerate_basis_indices_are_read_only_int64():
    indices = enumerate_basis(7, 3).indices
    assert indices.dtype == np.int64
    assert not indices.flags.writeable
    with pytest.raises(ValueError):
        indices[0] = 0


def test_enumerate_basis_range_errors():
    with pytest.raises(ValueError):
        enumerate_basis(4, 5)
    with pytest.raises(ValueError):
        enumerate_basis(4, -1)
    # no site limit: 62 bits fit int64, and the builder refuses wider numbers itself
    assert enumerate_basis(62, 1).indices.tolist() == [2**b for b in range(62)]
    for n_bits in (63, 64):
        with pytest.raises(DimensionError, match="int64"):
            enumerate_basis(n_bits, 1)
        with pytest.raises(DimensionError, match="int64"):
            _weight_class(n_bits, 1)


# -- haar first moment over the restricted space --


@pytest.mark.parametrize("n,np_exc", [(2, 1), (4, 2), (6, 3), (8, 4)])
def test_microcanonical_is_haar_average(n, np_exc):
    sub = enumerate_basis(n, np_exc)
    d = sub.d_r
    samples = 10**4
    batch = np.stack([haar_sample(d, derive_seed(77, i))
                      for i in range(samples)])
    mean = np.einsum("ni,nj->ij", batch, batch.conj()) / samples
    assert np.max(np.abs(mean - np.eye(d) / d)) < 5.0 / np.sqrt(samples)


# -- channel restriction --


def test_restrict_identity_channel_has_pure_choi():
    from qtypical.channels import identity_channel

    sub = enumerate_basis(3, 1)
    ch = restrict_channel(identity_channel(8), sub)
    assert ch.dim_in == 3 and ch.dim_out == 8
    assert abs(ch.choi().purity() - 1.0) < 1e-12


def test_restrict_block_channel_single_excitation_is_constant():
    sub = enumerate_basis(2, 1)
    ch = restrict_channel(block_channel(2), sub)
    to_excited = np.array([[[0, 0], [1, 0]], [[0, 0], [0, 1]]], dtype=complex)  # |1><0|, |1><1|
    assert channels_equal(ch, QuantumChannel(2, 2, to_excited))  # rho -> tr(rho) |1><1|


def test_restrict_channel_matches_column_loop():
    sub = enumerate_basis(4, 2)
    full = partial_trace_channel(4, 4)
    loop = np.stack([k[:, list(sub.indices)] for k in full.kraus])
    np.testing.assert_array_equal(restrict_channel(full, sub).kraus, loop)


def test_restrict_channel_dimension_mismatch():
    with pytest.raises(DimensionError):
        restrict_channel(block_channel(2), enumerate_basis(3, 1))


def test_restrict_channel_preserves_trace():
    sub = enumerate_basis(4, 2)
    ch = restrict_channel(partial_trace_channel(4, 4), sub)
    for i in range(100):
        rho = random_density(sub.d_r, 500 + i)
        out = ch.apply_matrix(rho.matrix)
        assert abs(np.trace(out).real - 1.0) < 1e-10


# -- effective environment dimension --


def _embedded_maximally_mixed(sub):
    """Oracle: W (I/d_R) W^dagger on the full 2^N space, W the 0/1 basis-column isometry."""
    w = np.zeros((2**sub.n_sites, sub.d_r))
    w[sub.indices, np.arange(sub.d_r)] = 1.0
    return w @ (np.eye(sub.d_r) / sub.d_r) @ w.T


def test_effective_environment_trivial_subspace():
    sub = enumerate_basis(2, 0)
    assert abs(effective_environment_dimension(sub, (1, 1)) - 1.0) < 1e-12


def test_effective_environment_half_filled_four_sites():
    sub = enumerate_basis(4, 2)
    assert abs(effective_environment_dimension(sub, (2, 2)) - 3.6) < 1e-12


@pytest.mark.parametrize("n", range(1, 13))
def test_effective_environment_equals_counts_oracle(n):
    # closed form against the per-string counts loop it replaced, compared with ==
    for n_excited in range(n + 1):
        strings, _ = _string_indices(n, n_excited)
        sub = enumerate_basis(n, n_excited)
        for sq in range(n + 1):
            eq = n - sq
            counts = np.zeros(2**eq, dtype=np.int64)
            for s in strings:
                counts[int(s[sq:], 2) if eq else 0] += 1
            total_sq = int(np.sum(counts.astype(object) ** 2))
            assert effective_environment_dimension(sub, (sq, eq)) == len(strings)**2 / total_sq


def test_effective_environment_split_mismatch():
    with pytest.raises(DimensionError):
        effective_environment_dimension(enumerate_basis(4, 2), (1, 2))


def test_effective_environment_past_the_float_range_is_inf():
    # one system qubit: d_E_eff = C(N, Np)^2 / C(N, Np) = C(N, Np), about 10^329 at
    # 1100/550, where the integer division overflowed; 2.7e299 at 1000/500 is a float
    assert effective_environment_dimension(RestrictedPartialTrace(1100, 550, 1),
                                           (1, 1099)) == math.inf
    value = effective_environment_dimension(RestrictedPartialTrace(1000, 500, 1), (1, 999))
    assert value == comb(1000, 500) ** 2 / _marginal_square_sum(500, 1, 999)
    assert value == float(comb(1000, 500))


@pytest.mark.parametrize("n,np_exc,sq", [(4, 2, 2), (4, 1, 1), (6, 3, 2), (6, 2, 4)])
def test_effective_environment_matches_dense_route(n, np_exc, sq):
    sub = enumerate_basis(n, np_exc)
    eq = n - sq
    full = _embedded_maximally_mixed(sub)
    omega = partial_trace(full, "B", (2**sq, 2**eq))
    dense_value = 1.0 / omega.purity()
    fast_value = effective_environment_dimension(sub, (sq, eq))
    assert abs(dense_value - fast_value) < 1e-10


@pytest.mark.parametrize("n,np_exc,sq", [(4, 2, 2), (6, 3, 3), (6, 2, 2)])
def test_restricted_partial_trace_purity_identity(n, np_exc, sq):
    # Choi purity of the restricted trace-out channel equals the purity of
    # the environment marginal of the embedded maximally mixed subspace state
    sub = enumerate_basis(n, np_exc)
    eq = n - sq
    ch = restrict_channel(partial_trace_channel(2**sq, 2**eq), sub)
    choi_purity = ch.choi().purity()
    d_e_eff = effective_environment_dimension(sub, (sq, eq))
    full = _embedded_maximally_mixed(sub)
    omega_env = partial_trace(full, "B", (2**sq, 2**eq))
    assert abs(choi_purity - 1.0 / d_e_eff) < 1e-10
    assert abs(choi_purity - omega_env.purity()) < 1e-10


# -- matrix-free restricted partial trace --


def test_restricted_partial_trace_purity_is_inverse_effective_environment():
    ch = RestrictedPartialTrace(12, 6, 5)
    d_e_eff = effective_environment_dimension(enumerate_basis(12, 6), (5, 7))
    assert ch.choi_purity_routes()[0] == ch.choi_purity_routes()[1]
    assert abs(ch.choi_purity_routes()[0] * d_e_eff - 1.0) < 1e-15


def test_restricted_partial_trace_canonical_state_refused_above_budget(small_dense_budget):
    # 16 * 4^6 bytes fill the 64 KiB budget; split 10 would need 16 MiB
    assert RestrictedPartialTrace(10, 1, 6).canonical_state().dim == 64
    with pytest.raises(DimensionError, match="MiB"):
        RestrictedPartialTrace(10, 1, 10).canonical_state()


def test_restricted_partial_trace_needs_no_full_space_buffer(small_dense_budget):
    # 2 states of 10/5/3 scattered into 2^10 amplitudes, their conjugates and
    # outputs would take 67.6 KB; the outputs and weight blocks need 10.7 KB
    ch = RestrictedPartialTrace(10, 5, 3)
    assert 2 * ch._row_bytes == 10736
    psis = np.stack([haar_sample(ch.dim_in, derive_seed(3, i)) for i in range(2)])
    full = np.zeros((2, 2**10), dtype=np.complex128)  # the scatter oracle
    full[:, enumerate_basis(10, 5).indices] = psis
    m = full.reshape(2, 8, 128)
    assert np.max(np.abs(ch.apply_pure_batch(psis) - m @ m.conj().transpose(0, 2, 1))) < 1e-15


def test_restricted_partial_trace_weight_block_refused_above_budget(small_dense_budget):
    # a row costs its output plus 40 r c + 16 r^2 bytes of its largest r x c weight
    # block: 5368 bytes at 10/5/3 fit the 64 KiB budget; at 16/8/3 the 3 x 1716 block
    # alone needs 206064 bytes, so one row is refused, its output and distance alike
    assert RestrictedPartialTrace(10, 5, 3).apply_pure_batch(np.eye(1, 252)).shape == (1, 8, 8)
    big = RestrictedPartialTrace(16, 8, 3)
    assert (3, 1716) in big._block_shapes and 16 * 8**2 < small_dense_budget
    with pytest.raises(DimensionError, match="1 partial-trace outputs"):
        big.apply_pure_batch(np.eye(1, big.dim_in))
    with pytest.raises(DimensionError, match="distances of 1 partial-trace outputs"):
        big.distances_to_canonical(np.eye(1, big.dim_in))


@pytest.mark.parametrize("n", range(1, 13))
def test_run_tables_equal_the_enumerated_split(n):
    # each weight block's table, gathered from its run offsets, holds the amplitudes of
    # the enumerated basis states split into (system row, environment column), bit for bit
    rng = np.random.default_rng(n)
    for sq in range(n + 1):
        eq = n - sq
        for np_exc in range(n + 1):
            ch = RestrictedPartialTrace(n, np_exc, sq)
            indices = enumerate_basis(n, np_exc).indices
            system, environment = indices >> eq, indices & ((1 << eq) - 1)
            psis = rng.standard_normal((2, ch.dim_in)) + 1j * rng.standard_normal((2, ch.dim_in))
            rows = [r for r, _, _ in ch._runs]
            np.testing.assert_array_equal(np.sort(np.concatenate(rows)), np.unique(system))
            for pattern_rows, offsets, width in ch._runs:
                assert np.all(np.diff(pattern_rows) > 0)
                positions = np.stack([np.flatnonzero(system == s) for s in pattern_rows])
                assert positions.shape[1] == width
                # column j is the j-th environment pattern of the block's weight
                assert np.all(environment[positions] == environment[positions[0]])
                assert np.all(np.diff(environment[positions[0]]) > 0)
                table = _gather(psis, offsets, width)
                assert table.tobytes() == np.ascontiguousarray(psis[:, positions]).tobytes()


@pytest.mark.parametrize("n", range(1, 15))
def test_table_product_purity_route_equals_the_enumerated_count(n):
    # both purity routes count the pairs of basis states sharing an environment pattern
    for sq in range(n + 1):
        eq = n - sq
        for np_exc in range(n + 1):
            environment = enumerate_basis(n, np_exc).indices & ((1 << eq) - 1)
            counts = np.unique(environment, return_counts=True)[1]
            pairs = int(np.sum(counts * counts))
            assert _marginal_square_product(np_exc, sq, eq) == pairs, (n, np_exc, sq)
            assert _marginal_square_sum(np_exc, sq, eq) == pairs, (n, np_exc, sq)


def test_table_product_purity_route_equals_the_closed_form_at_60_30_10():
    assert _marginal_square_product(30, 10, 50) == _marginal_square_sum(30, 10, 50)


@pytest.mark.parametrize("n,np_exc,sq", [
    (1100, 550, 1), (2000, 1000, 1), (300, 150, 150),
    (40, 20, 0), (40, 20, 40), (40, 0, 13), (40, 40, 13), (0, 0, 0), (7, 3, 7), (7, 7, 0)])
def test_table_product_purity_route_equals_the_closed_form_far_out(n, np_exc, sq):
    # the (1 + xy)^eq chain runs on the table's diagonal alone, O(eq Np) shift-adds:
    # 2000/1000/1 took about 45 s on the whole table and takes well under a second now
    started = time.perf_counter()
    assert _marginal_square_product(np_exc, sq, n - sq) == _marginal_square_sum(np_exc, sq, n - sq)
    assert time.perf_counter() - started < 10.0


@pytest.mark.parametrize("shape,dx,dy,power", [
    ((5, 5), 1, 0, 3), ((5, 5), 0, 1, 7), ((4, 6), 1, 1, 5), ((6, 4), 2, 3, 2),
    ((3, 3), 3, 1, 4), ((3, 3), 0, 5, 2), ((4, 4), 1, 1, 0),
])
def test_shift_add_multiplies_by_the_binomial_power(shape, dx, dy, power):
    # the table times (1 + x^dx y^dy)^power, expanded term by term and truncated
    rng = np.random.default_rng(derive_seed(5, dx * 10 + dy))
    start = rng.integers(0, 10**6, size=shape).astype(object) * 10**30
    expected = np.zeros(shape, dtype=object)
    for i in range(power + 1):
        p, q = i * dx, i * dy
        if p < shape[0] and q < shape[1]:
            expected[p:, q:] += comb(power, i) * start[:shape[0] - p, :shape[1] - q]
    table = start.copy()
    assert _shift_add(table, dx, dy, power) is table
    assert table.tolist() == expected.tolist()


def test_partial_trace_runs_tile_the_basis_past_the_old_plan_limit():
    # 24/12/13 was refused for a 1598 MiB grouping plan; its runs are the 8190 system
    # patterns of weights 1 .. 12, and one sample with its distance work fits the budget
    ch = RestrictedPartialTrace(24, 12, 13)
    _check_dense_bytes(16 * ch.dim_in + ch._distance_row_bytes, "one 24/12/13 sample")
    starts = np.concatenate([offsets for _, offsets, _ in ch._runs])
    widths = np.concatenate([np.full(o.size, w) for _, o, w in ch._runs])
    order = np.argsort(starts)
    assert starts.size == 2**13 - 2
    # the runs tile the basis: each starts where the one before it ends
    assert starts[order][0] == 0
    np.testing.assert_array_equal(starts[order][1:], np.cumsum(widths[order])[:-1])
    assert int(np.sum(widths)) == ch.dim_in == comb(24, 12)


def test_partial_trace_splits_past_the_enumeration_limit():
    # one excitation and every qubit kept: a basis state is pure, the canonical state
    # is I / split over the weight-1 patterns, and the distance is 1 - 1 / split
    for split in (30, 40, 62):
        ch = RestrictedPartialTrace(split, 1, split)
        np.testing.assert_allclose(ch.distances_to_canonical(np.eye(1, split)),
                                   [1 - 1 / split], rtol=1e-15)
    rows = RestrictedPartialTrace(40, 2, 40)._runs[0][0]
    assert rows.tolist() == sorted(2**a + 2**b for a, b in combinations(range(40), 2))
    with pytest.raises(DimensionError, match="int64"):
        RestrictedPartialTrace(63, 1, 63).distances_to_canonical(np.eye(1, 63))
    # C(40, 20) patterns would take 1.0 TiB
    with pytest.raises(DimensionError, match="MiB"):
        RestrictedPartialTrace(40, 20, 40)._runs


def test_restricted_partial_trace_rejects_wrong_state_block():
    ch = RestrictedPartialTrace(4, 2, 2)
    with pytest.raises(DimensionError):
        ch.apply_pure_batch(np.zeros((2, 5)))
    with pytest.raises(DimensionError):
        ch.apply_pure_batch(np.zeros(6))


def test_enumeration_refused_above_budget():
    # C(30, 15) indices would take 1.24 GB
    with pytest.raises(DimensionError, match="MiB"):
        enumerate_basis(30, 15)


# -- exact eta of the matrix-free channels --


@pytest.mark.parametrize("make", [
    lambda: RestrictedPartialTrace(22, 1, 22),
    lambda: DetectorChannel(30, 30, 1),
    lambda: DetectorChannel(28, 4, 14),
], ids=["ptrace-22-1-22", "bns-30-30-1", "bns-28-4-14"])
def test_exact_eta_allocates_nothing_over_the_outputs(make):
    # 2^22 and 2^30 output patterns: a diagonal over them would take 32 MiB and 8 GiB;
    # the C(28, 14) = 4.0e7 basis states of 28/4/14 would take 321 MB as indices alone
    tracemalloc.start()
    try:
        eta = make().exact_eta()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eta == 1.0
    assert peak < 2**20


