from itertools import combinations
from math import comb

import numpy as np
import pytest

from conftest import dense_choi_purity, random_density
from qtypical.bns import block_channel
from qtypical.channels import (
    QuantumChannel,
    channels_equal,
    partial_trace_channel,
    replace_channel,
)
from qtypical.qcore import (
    DensityOperator,
    DimensionError,
    derive_seed,
    haar_sample,
    partial_trace,
)
from qtypical.restriction import (
    RestrictedPartialTrace,
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
    with pytest.raises(DimensionError):
        enumerate_basis(31, 1)


# -- haar first moment over the restricted space --


@pytest.mark.parametrize("n,np_exc", [(2, 1), (4, 2), (6, 3), (8, 4)])
def test_microcanonical_is_haar_average(n, np_exc):
    sub = enumerate_basis(n, np_exc)
    d = sub.d_r
    samples = 10**4
    batch = np.stack([haar_sample(d, derive_seed(77, i)).amplitudes
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
    excited = DensityOperator(np.diag([0.0, 1.0]).astype(complex))
    assert channels_equal(ch, replace_channel(excited, dim_in=2))


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


@pytest.mark.parametrize("n", range(1, 11))
def test_restricted_partial_trace_matches_dense_oracle(n):
    for sq in range(n + 1):
        eq = n - sq
        full = partial_trace_channel(2**sq, 2**eq)
        for np_exc in range(n + 1):
            ch = RestrictedPartialTrace(n, np_exc, sq)
            dense = restrict_channel(full, enumerate_basis(n, np_exc))
            assert (ch.dim_in, ch.dim_out) == (dense.dim_in, dense.dim_out)
            psis = np.stack([haar_sample(ch.dim_in, derive_seed(n, i)).amplitudes
                             for i in range(2)])
            delta = ch.apply_pure_batch(psis) - dense.apply_pure_batch(psis)
            assert np.max(np.abs(delta)) < 1e-12
            omega = dense.apply_matrix(np.eye(ch.dim_in) / ch.dim_in)
            assert np.max(np.abs(ch.canonical_state().matrix - omega)) < 1e-12
            purity = dense_choi_purity(dense)
            for route in ch.choi_purity_routes():
                assert abs(route - purity) < 1e-12
            assert abs(ch.linear_entropy() - (1.0 - purity)) < 1e-12
            if 2**eq <= ch.dim_in * ch.dim_out:
                np.testing.assert_array_equal(ch.kraus, dense.kraus)
            else:  # restrict_channel compressed the family through the Choi matrix
                assert channels_equal(QuantumChannel(ch.dim_in, ch.dim_out, ch.kraus), dense)


def test_restricted_partial_trace_purity_is_inverse_effective_environment():
    ch = RestrictedPartialTrace(12, 6, 5)
    d_e_eff = effective_environment_dimension(ch.sub, (5, 7))
    assert ch.choi_purity_routes()[0] == ch.choi_purity_routes()[1]
    assert abs(ch.choi_purity_routes()[0] * d_e_eff - 1.0) < 1e-15


def test_restricted_partial_trace_canonical_state_refused_above_budget(small_dense_budget):
    # 16 * 4^6 bytes fill the 64 KiB budget; split 10 would need 16 MiB
    assert RestrictedPartialTrace(10, 1, 6).canonical_state().dim == 64
    with pytest.raises(DimensionError, match="MiB"):
        RestrictedPartialTrace(10, 1, 10).canonical_state()


@pytest.mark.parametrize("n,np_exc,sq", [(10, 5, 3), (10, 5, 0), (8, 4, 8), (12, 6, 6)])
def test_restricted_partial_trace_outputs_do_not_depend_on_the_block(n, np_exc, sq):
    ch = RestrictedPartialTrace(n, np_exc, sq)
    psis = np.stack([haar_sample(ch.dim_in, derive_seed(n + sq, i)).amplitudes
                     for i in range(17)])
    block = ch.apply_pure_batch(psis)
    for psi, out in zip(psis, block):
        assert np.array_equal(ch.apply_pure_batch(psi[None]), out[None])


def test_restricted_partial_trace_needs_no_full_space_buffer(small_dense_budget):
    # 2 states of 10/5/3 scattered into 2^10 amplitudes, their conjugates and
    # outputs would take 67.6 KB; the weight blocks need 13 KB of work arrays
    ch = RestrictedPartialTrace(10, 5, 3)
    psis = np.stack([haar_sample(ch.dim_in, derive_seed(3, i)).amplitudes for i in range(2)])
    full = np.zeros((2, 2**10), dtype=np.complex128)  # the scatter oracle
    full[:, ch.sub.indices] = psis
    m = full.reshape(2, 8, 128)
    assert np.max(np.abs(ch.apply_pure_batch(psis) - m @ m.conj().transpose(0, 2, 1))) < 1e-15


def test_restricted_partial_trace_plan_refused_above_budget(small_dense_budget):
    # 8 * 3 * (d_R + 4^split) bytes: 10/5/3 fits the 64 KiB budget, 14/7/3 does not
    assert RestrictedPartialTrace(10, 5, 3).apply_pure_batch(np.eye(1, 252)).shape == (1, 8, 8)
    big = RestrictedPartialTrace(14, 7, 3)
    with pytest.raises(DimensionError, match="grouping plan"):
        big.apply_pure_batch(np.eye(1, big.dim_in))


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
