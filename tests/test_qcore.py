import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from qtypical import qcore
from qtypical.qcore import (
    DensityOperator,
    DimensionError,
    HermitianOperator,
    StateVector,
    derive_seed,
    haar_sample,
    haar_unitary,
    hs_norm,
    partial_trace,
    trace_distance,
)
from qtypical.restriction import RestrictedPartialTrace


# -- domain type validation --


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))


def test_state_vector_is_immutable():
    psi = haar_sample(3, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_density_operator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_density_operator_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2))


def test_density_operator_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]).astype(complex))


@pytest.mark.parametrize("dim", [3, 300])
def test_hermiticity_check_reports_the_largest_deviation_of_any_row_block(dim):
    # 300 columns make row blocks of 54 rows: both entries of the deviating pair
    # (298, 299) sit in the last block
    assert qcore._HERMITIAN_BLOCK // 300 == 54
    m = np.eye(dim, dtype=complex) / dim
    m[dim - 1, dim - 2] = 2e-12
    m[0, 1] = 1e-12j
    with pytest.raises(ValueError, match=r"deviates from Hermitian by 2\.000e-12 \(> 1e-12\)"):
        DensityOperator(m, validate=False)
    with pytest.raises(ValueError, match=r"by 2\.000e-12"):
        HermitianOperator(m)
    m[dim - 1, dim - 2] = 5e-13
    m[0, 1] = 0.0
    assert DensityOperator(m, validate=False).dim == dim


def test_density_operator_peak_memory_is_input_plus_one_copy():
    ch = RestrictedPartialTrace(10, 1, 10)
    tracemalloc.start()
    try:
        omega = ch.canonical_state()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert omega.matrix.nbytes == 16 * 2**20
    assert peak <= 2.1 * omega.matrix.nbytes


def test_density_operator_keeps_a_read_only_copy():
    m = np.eye(2, dtype=complex) / 2
    rho = DensityOperator(m)
    m[0, 0] = 1.0
    assert rho.matrix[0, 0] == 0.5
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_hermitian_operator_accepts_traceless():
    op = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
    assert op.dim == 2


# -- haar sampling --


def test_haar_dim_one_is_a_phase():
    psi = haar_sample(1, 99)
    assert abs(abs(psi.amplitudes[0]) - 1.0) < 1e-12


def test_haar_deterministic_for_fixed_seed():
    a = haar_sample(2, 1234).amplitudes
    b = haar_sample(2, 1234).amplitudes
    assert np.array_equal(a, b)


def test_haar_zero_dim_rejected():
    with pytest.raises(DimensionError):
        haar_sample(0, 0)


def test_haar_component_moments_dim4():
    # exchangeability forces mean |amplitude|^2 = 1/dim; 3 sigma < 0.01 at 1e5 draws
    n = 10**5
    acc = np.zeros(4)
    for i in range(n):
        amps = haar_sample(4, derive_seed(0xA1, i)).amplitudes
        acc += np.abs(amps) ** 2
    acc /= n
    assert np.max(np.abs(acc - 0.25)) < 0.01


def test_haar_first_moment_matches_maximally_mixed():
    n = 10**4
    dim = 4
    batch = np.stack([haar_sample(dim, derive_seed(7, i)).amplitudes for i in range(n)])
    mean = np.einsum("ni,nj->ij", batch, batch.conj()) / n
    assert np.max(np.abs(mean - np.eye(dim) / dim)) < 5.0 / np.sqrt(n)


def test_haar_unitary_is_unitary():
    u = haar_unitary(5, 3)
    assert np.max(np.abs(u @ u.conj().T - np.eye(5))) < 1e-12


def test_haar_unitary_refused_above_budget(small_dense_budget):
    # 16 * 64^2 bytes fill the 64 KiB budget exactly; one more row exceeds it
    assert haar_unitary(64, 0).shape == (64, 64)
    with pytest.raises(DimensionError, match="MiB"):
        haar_unitary(65, 0)


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seen = {derive_seed(42, i) for i in range(1000)}
    assert len(seen) == 1000
    # frozen value pins the derivation across releases
    assert derive_seed(0, 0) == 1041621211125469266


# -- trace distance --


def test_trace_distance_orthogonal_pure_states():
    a = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
    b = DensityOperator(np.diag([0.0, 1.0]).astype(complex))
    assert abs(trace_distance(a, b) - 1.0) < 1e-12


def test_trace_distance_identical_states():
    rho = random_density(5, 8)
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_plus_vs_zero():
    plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2)).projector()
    zero = StateVector(np.array([1.0, 0.0])).projector()
    # pure states: D = sqrt(1 - |<psi|phi>|^2) = sqrt(1/2)
    assert abs(trace_distance(plus, zero) - np.sqrt(0.5)) < 1e-12


def test_trace_distance_dimension_mismatch():
    with pytest.raises(DimensionError):
        trace_distance(random_density(2, 0), random_density(3, 0))


def test_trace_distance_symmetric_triangle_unitary_invariant():
    for trial in range(30):
        a = random_density(6, 3 * trial)
        b = random_density(6, 3 * trial + 1)
        c = random_density(6, 3 * trial + 2)
        dab, dbc, dac = trace_distance(a, b), trace_distance(b, c), trace_distance(a, c)
        assert abs(dab - trace_distance(b, a)) < 1e-12
        assert dac <= dab + dbc + 1e-10
        u = haar_unitary(6, trial)
        rotated = trace_distance(u @ a.matrix @ u.conj().T, u @ b.matrix @ u.conj().T)
        assert abs(rotated - dab) < 1e-10


# -- norms --


def test_hs_norm_examples():
    assert abs(hs_norm(np.eye(4)) - 2.0) < 1e-12
    assert hs_norm(np.zeros((3, 3))) == 0.0
    assert abs(hs_norm(np.diag([1.0, -1.0])) - np.sqrt(2)) < 1e-12


# -- partial trace --


def test_partial_trace_product_state():
    rho_a = random_density(2, 5)
    rho_b = random_density(3, 6)
    joint = np.kron(rho_a.matrix, rho_b.matrix)
    np.testing.assert_allclose(
        partial_trace(joint, "A", (2, 3)).matrix, rho_a.matrix, atol=1e-12)
    np.testing.assert_allclose(
        partial_trace(joint, "B", (2, 3)).matrix, rho_b.matrix, atol=1e-12)


def test_partial_trace_maximally_entangled():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    np.testing.assert_allclose(
        partial_trace(rho, "A", (2, 2)).matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_single_excitation_mixture():
    # equal mixture of |01> and |10>, keep the first qubit
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    np.testing.assert_allclose(
        partial_trace(rho, "A", (2, 2)).matrix, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_dims_mismatch():
    with pytest.raises(DimensionError):
        partial_trace(random_density(6, 1), "A", (2, 4))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_partial_trace_preserves_trace(da, db, seed):
    rho = random_density(da * db, seed)
    for keep in ("A", "B"):
        reduced = partial_trace(rho, keep, (da, db))
        assert abs(np.trace(reduced.matrix).real - 1.0) < 1e-10
