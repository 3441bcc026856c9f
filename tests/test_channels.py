import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import channels_equal, matrix_unit, random_density
from qtypical import channels, qcore
from qtypical.channels import (
    CPTPError,
    QuantumChannel,
    channel_from_json_dict,
    channel_to_json_dict,
    choi_to_kraus,
    compose,
    depolarizing,
    identity_channel,
    lipschitz_estimate,
    load_channel,
    partial_trace_channel,
    random_channel,
    save_channel,
    tensor,
    unitary_channel,
)
from qtypical.bns import DetectorChannel
from qtypical.qcore import (
    DensityOperator,
    DimensionError,
    _generator,
    derive_seed,
    haar_unitary,
)
from qtypical.restriction import RestrictedPartialTrace


# -- construction invariants --


def test_rejects_non_trace_preserving_family():
    with pytest.raises(CPTPError):
        QuantumChannel(2, 2, (0.5 * np.eye(2),))
    with pytest.raises(CPTPError):
        QuantumChannel(2, 2, (np.diag([1.0, np.nan]),))


NAN = float("nan")


@pytest.mark.parametrize("construct", [
    lambda: DensityOperator([[NAN, 0], [0, 1]]),
    lambda: DensityOperator([[NAN, 0], [0, 1]], validate=False),
    lambda: choi_to_kraus(np.array([[NAN, 0], [0, 1]]), dim_in=1, dim_out=2),
], ids=["density", "density_unvalidated", "choi_to_kraus"])
def test_validation_rejects_nan_entries(construct):
    # each check must be written so that a NaN deviation fails it
    with pytest.raises(ValueError, match="nan"):
        construct()


@pytest.mark.parametrize("d", [1, 2])
def test_depolarizing_rejects_nan_strength(d):
    # NaN passes `lam < 0`: d = 1 returned the identity, d = 2 failed trace preservation
    with pytest.raises(CPTPError, match="lambda = nan"):
        depolarizing(d, NAN)


def test_rejects_oversized_family():
    ops = tuple(np.eye(2) / np.sqrt(5) for _ in range(5))
    with pytest.raises(CPTPError):
        QuantumChannel(2, 2, ops)


def test_rejects_wrong_kraus_shape():
    for ops in [(np.eye(2),),
                (np.eye(2), np.ones((2, 3)))]:  # ragged family
        with pytest.raises(DimensionError):
            QuantumChannel(2, 3, ops)


def test_construction_leaves_caller_arrays_writeable():
    u = haar_unitary(4, 0)
    ch = unitary_channel(u)
    assert u.flags.writeable
    u[0, 0] = 0.0  # the channel holds its own copy
    assert ch.kraus[0, 0, 0] != 0.0
    assert not ch.kraus.flags.writeable
    assert ch.kraus.flags.c_contiguous and ch.kraus.dtype == np.complex128
    assert ch.kraus.shape == (1, 4, 4)


# -- apply --


def test_identity_apply_is_identity():
    ch = identity_channel(4)
    rho = random_density(4, 0)
    np.testing.assert_allclose(ch.apply_matrix(rho.matrix), rho.matrix, atol=1e-12)


def test_full_depolarizing_sends_everything_to_maximally_mixed():
    ch = depolarizing(2, 1.0)
    rho = random_density(2, 1)
    np.testing.assert_allclose(ch.apply_matrix(rho.matrix), np.eye(2) / 2, atol=1e-12)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionError):
        identity_channel(2).apply_matrix(random_density(3, 0).matrix)


def test_apply_pure_matches_apply_on_projector():
    ch = random_channel(5, 3, 4, seed=11)
    psi = np.linalg.qr(np.random.default_rng(2).standard_normal((5, 1)))[0][:, 0].astype(complex)
    np.testing.assert_allclose(
        ch.apply_pure(psi), ch.apply_matrix(np.outer(psi, psi.conj())), atol=1e-12)


@pytest.mark.parametrize("ch_factory", [
    lambda: random_channel(5, 3, 4, seed=12),
    lambda: random_channel(4, 6, 2, seed=13),
    lambda: unitary_channel(haar_unitary(4, 3)),  # a single Kraus operator
    lambda: random_channel(3, 1, 3, seed=14),     # dim_out = 1
])
def test_apply_pure_batch_matches_apply_pure(ch_factory):
    ch = ch_factory()
    rng = np.random.default_rng(5)
    psis = rng.standard_normal((7, ch.dim_in)) + 1j * rng.standard_normal((7, ch.dim_in))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    batch = ch.apply_pure_batch(psis)
    assert batch.shape == (7, ch.dim_out, ch.dim_out)
    for psi, rho in zip(psis, batch):
        # GEMM rounding depends on the row count, so the 7-row block agrees with
        # one-row calls to the last bits only; apply_pure is the one-row block exactly
        np.testing.assert_allclose(rho, ch.apply_pure(psi), rtol=0, atol=1e-13)
        assert np.array_equal(ch.apply_pure(psi), ch.apply_pure_batch(psi[None])[0])


def test_apply_pure_batch_dimension_mismatch():
    ch = identity_channel(4)
    with pytest.raises(DimensionError):
        ch.apply_pure_batch(np.ones(4))
    with pytest.raises(DimensionError):
        ch.apply_pure_batch(np.ones((2, 3)))


@pytest.mark.parametrize("ch_factory,seed0", [
    (lambda: identity_channel(4), 0),
    (lambda: depolarizing(3, 0.3), 100),
    (lambda: random_channel(4, 3, 5, seed=5), 200),
])
def test_apply_preserves_trace_and_positivity(ch_factory, seed0):
    ch = ch_factory()
    for i in range(100):
        rho = random_density(ch.dim_in, seed0 + i)
        out = ch.apply_matrix(rho.matrix)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out)[0] > -1e-10


# -- Choi --


def test_choi_of_identity_is_pure_maximally_entangled():
    d = 3
    j = identity_channel(d).choi()
    assert abs(j.purity() - 1.0) < 1e-12
    phi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            phi[i * d + i, k * d + k] = 1.0 / d
    np.testing.assert_allclose(j.matrix, phi, atol=1e-12)


def test_choi_of_depolarizing_closed_form():
    d, lam = 3, 0.4
    j = depolarizing(d, lam).choi()
    phi = identity_channel(d).choi().matrix
    expected = lam * np.eye(d * d) / d**2 + (1 - lam) * phi
    np.testing.assert_allclose(j.matrix, expected, atol=1e-12)


def test_choi_marginal_is_maximally_mixed():
    for seed in range(5):
        ch = random_channel(4, 5, 3, seed=seed)
        j = ch.choi().matrix.reshape(5, 4, 5, 4)
        marginal = np.einsum("aiaj->ij", j)
        assert np.max(np.abs(marginal - np.eye(4) / 4)) < 1e-10


def _choi_marginal_off_by(delta: float) -> np.ndarray:
    """Completely depolarizing 2 x 2 Choi matrix with its input marginal off by delta;
    it keeps unit trace and stays positive."""
    j = np.eye(4, dtype=complex) / 4
    j[0, 0] += delta  # (output 0, input 0)
    j[1, 1] -= delta  # (output 0, input 1)
    return j


def test_choi_marginal_checks_keep_their_own_tolerances():
    with pytest.raises(CPTPError, match=r"by 1\.000e-06 \(> 1e-08\)"):
        choi_to_kraus(_choi_marginal_off_by(1e-6), dim_in=2, dim_out=2)
    # a matrix within CHOI_MARGINAL_TOL passes the marginal check and is
    # refused by the Kraus family's trace-preservation check instead
    with pytest.raises(CPTPError, match="violates trace preservation"):
        choi_to_kraus(_choi_marginal_off_by(1e-9), dim_in=2, dim_out=2)


# -- linear entropy --


def test_linear_entropy_identity_is_zero():
    assert identity_channel(6).linear_entropy() == 0.0


def test_linear_entropy_full_depolarizing():
    assert abs(depolarizing(2, 1.0).linear_entropy() - 0.75) < 1e-12


def test_linear_entropy_partial_trace():
    ch = partial_trace_channel(2, 4)
    assert abs(ch.linear_entropy() - (1 - 0.25)) < 1e-12


def test_linear_entropy_closed_form_mid_lambda():
    got = depolarizing(2, 0.5).linear_entropy()
    assert abs(got - 0.5625) < 1e-12


def test_two_route_purity_identity_random_channels():
    for trial in range(50):
        rng = np.random.default_rng(trial)
        d_in = int(rng.integers(2, 9))
        d_out = int(rng.integers(2, 9))
        tau = int(rng.integers(1, d_in * d_out + 1))
        if d_out * tau < d_in:
            tau = -(-d_in // d_out)
        ch = random_channel(d_in, d_out, tau, seed=1000 + trial)
        purity_choi, purity_kraus = ch.choi_purity_routes()
        assert abs(d_in**2 * purity_choi - d_in**2 * purity_kraus) < 1e-9


def test_linear_entropy_invariant_under_unitary_conjugation():
    ch = random_channel(4, 4, 3, seed=9)
    u = unitary_channel(haar_unitary(4, 1))
    v = unitary_channel(haar_unitary(4, 2))
    conjugated = compose(u, compose(ch, v))
    assert abs(conjugated.linear_entropy() - ch.linear_entropy()) < 1e-10


# -- compose / tensor --


def test_compose_with_identity_is_identity_operation():
    ch = random_channel(3, 4, 2, seed=21)
    assert channels_equal(compose(identity_channel(4), ch), ch)
    assert channels_equal(compose(ch, identity_channel(3)), ch)


def test_compose_with_full_depolarizing_is_constant():
    ch = random_channel(3, 3, 2, seed=22)
    collapsed = compose(depolarizing(3, 1.0), ch)
    assert channels_equal(collapsed, depolarizing(3, 1.0))  # rho -> tr(rho) I/3


def test_compose_depolarizing_multiplies_survival_factors():
    d, l1, l2 = 3, 0.3, 0.6
    combined = compose(depolarizing(d, l1), depolarizing(d, l2))
    lam = 1 - (1 - l1) * (1 - l2)
    assert channels_equal(combined, depolarizing(d, lam))


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionError):
        compose(identity_channel(2), identity_channel(3))


def test_tensor_of_identities():
    assert channels_equal(tensor(identity_channel(2), identity_channel(2)),
                          identity_channel(4))


def test_tensor_acts_blockwise_on_product_states():
    a = depolarizing(2, 0.5)
    b = random_channel(3, 2, 2, seed=30)
    rho_a = random_density(2, 31)
    rho_b = random_density(3, 32)
    joint = tensor(a, b).apply_matrix(np.kron(rho_a.matrix, rho_b.matrix))
    expected = np.kron(a.apply_matrix(rho_a.matrix), b.apply_matrix(rho_b.matrix))
    np.testing.assert_allclose(joint, expected, atol=1e-12)


@pytest.mark.parametrize("a_factory,b_factory", [
    (lambda: random_channel(3, 2, 2, seed=33), lambda: random_channel(2, 4, 3, seed=34)),
    (lambda: random_channel(4, 1, 4, seed=35), lambda: random_channel(2, 3, 1, seed=36)),
    (lambda: depolarizing(2, 0.5), lambda: random_channel(3, 1, 3, seed=37)),
])
def test_tensor_matches_kron_loop(a_factory, b_factory):
    a, b = a_factory(), b_factory()
    loop = np.stack([np.kron(ka, kb) for ka in a.kraus for kb in b.kraus])
    np.testing.assert_array_equal(tensor(a, b).kraus, loop)


def test_tensor_of_three_is_the_nested_product():
    # one channel from the Kraus arrays multiplied left to right, with the bits of the
    # nested two-channel products; one channel is its own tensor product
    a, b = depolarizing(2, 0.5), random_channel(3, 2, 2, seed=38)
    c = random_channel(2, 3, 3, seed=39)
    np.testing.assert_array_equal(tensor(a, b, c).kraus, tensor(tensor(a, b), c).kraus)
    assert tensor(a) is a


def _amplitude_damping_full():
    return QuantumChannel(2, 2, (np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])))


@pytest.mark.parametrize("outer_factory,inner_factory", [
    (lambda: random_channel(3, 4, 2, seed=23), lambda: random_channel(2, 3, 3, seed=24)),
    (lambda: random_channel(4, 1, 4, seed=25),
     lambda: unitary_channel(haar_unitary(4, 26))),
    # two of the four products vanish and are dropped
    (lambda: QuantumChannel(2, 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))),
     _amplitude_damping_full),
])
def test_compose_matches_product_loop(outer_factory, inner_factory):
    outer, inner = outer_factory(), inner_factory()
    loop = [ko @ ki for ko in outer.kraus for ki in inner.kraus]
    loop = np.stack([k for k in loop if np.any(k)])
    np.testing.assert_array_equal(compose(outer, inner).kraus, loop)


@pytest.mark.parametrize("dim_keep,dim_drop", [(2, 3), (3, 1), (1, 4), (4, 4)])
def test_partial_trace_channel_matches_loop(dim_keep, dim_drop):
    d_in = dim_keep * dim_drop
    loop = np.zeros((dim_drop, dim_keep, d_in))
    for j in range(dim_drop):
        for s in range(dim_keep):
            loop[j, s, s * dim_drop + j] = 1.0
    np.testing.assert_array_equal(partial_trace_channel(dim_keep, dim_drop).kraus, loop)


def test_partial_trace_channel_refused_above_budget():
    # 2^14 inputs: a 4 GiB Kraus array, refused before allocating
    with pytest.raises(DimensionError, match="MiB"):
        partial_trace_channel(2**7, 2**7)


def test_choi_matrix_refused_above_budget():
    # one 6000 x 1 isometry: a 96 kB Kraus array but a 549 MB Choi matrix
    ch = QuantumChannel(1, 6000, np.eye(6000, 1)[None])
    with pytest.raises(DimensionError, match="MiB"):
        ch.choi()


def test_choi_matrix_allocates_one_matrix():
    # few Kraus operators, so the Choi matrix dominates every other allocation
    ch = random_channel(8, 8, 2, seed=23)
    tracemalloc.start()
    try:
        j = channels._choi_matrix(ch.kraus, ch.dim_in)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * j.nbytes


@pytest.mark.parametrize("factory", [
    lambda: identity_channel(40),
    lambda: depolarizing(12, 0.3),
    lambda: partial_trace_channel(4, 64),
], ids=["identity-40", "depolarizing-12", "partial-trace-4x64"])
def test_purity_routes_hold_one_matrix_and_its_squared_moduli(factory):
    # each route holds its matrix and their float moduli, 1.5 times the Choi bytes; while a
    # product forms, its matrix and the conjugated Kraus stack, which the 144 operators of
    # the depolarizing family make twice the Choi bytes. A Choi copy would add one more.
    ch = factory()
    choi_bytes = 16 * (ch.dim_in * ch.dim_out) ** 2
    tracemalloc.start()
    try:
        ch.choi_purity_routes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.03 * max(1.5 * choi_bytes, choi_bytes + ch.kraus.nbytes)


@pytest.mark.parametrize("factory", [
    lambda: identity_channel(500),
    lambda: partial_trace_channel(8, 64),
    lambda: depolarizing(12, 0.3),
], ids=["identity-500", "partial-trace-8x64", "depolarizing-12"])
def test_construction_holds_the_copy_its_conjugate_and_the_gram(factory):
    # the kept copy, the conjugated stack of the S^dagger S product and the d_in^2 Gram:
    # a third Kraus-sized temporary (324 KiB for depolarizing-12) exceeds the 64 KiB slack
    kraus = factory().kraus
    dim_out, dim_in = kraus.shape[1:]
    tracemalloc.start()
    try:
        QuantumChannel(dim_in, dim_out, kraus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * kraus.nbytes + 16 * dim_in**2 + 64 * 2**10


def test_channel_keeps_no_choi_state():
    ch = random_channel(3, 2, 4, seed=5)
    first = ch.choi()
    assert ch.choi() is not first  # a fresh, validated state on each call
    # the Choi route sums the very matrix the state holds a copy of
    assert ch.choi_purity_routes()[0] == first.purity()
    ch.linear_entropy()
    assert channels_equal(ch, ch)
    assert set(vars(ch)) == {"dim_in", "dim_out", "kraus"}


def test_identity_channel_refused_above_budget():
    # 20000^2 complex entries: 6.4 GB, refused before allocating
    with pytest.raises(DimensionError, match="MiB"):
        identity_channel(20000)


def test_choi_to_kraus_matches_eigenvector_loop():
    j = random_channel(3, 2, 4, seed=62).choi().matrix
    eigs, vecs = np.linalg.eigh((j + j.conj().T) / 2.0)
    loop = [np.sqrt(lam * 3) * vec.reshape(2, 3)
            for lam, vec in zip(eigs, vecs.T) if lam > 1e-12]
    np.testing.assert_array_equal(choi_to_kraus(j, dim_in=3, dim_out=2).kraus,
                                  np.stack(loop))


# -- depolarizing family --


def test_depolarizing_zero_is_identity():
    assert channels_equal(depolarizing(4, 0.0), identity_channel(4))


def test_depolarizing_one_on_basis_state():
    out = depolarizing(3, 1.0).apply_matrix(matrix_unit(0, 0, 3))
    np.testing.assert_allclose(out, np.eye(3) / 3, atol=1e-12)


def test_depolarizing_cp_boundary_accepted():
    d = 3
    boundary = 1 + 1 / (d * d - 1)
    ch = depolarizing(d, boundary)
    out = ch.apply_matrix(matrix_unit(1, 1, d))
    expected = boundary * np.eye(d) / d + (1 - boundary) * matrix_unit(1, 1, d)
    np.testing.assert_allclose(out, expected, atol=1e-10)


def _cp_limit(d: int) -> float:
    return 1.0 + 1.0 / (d * d - 1.0)


@pytest.mark.parametrize("d,lam", [(3, 0.4), (2, 0.0), (2, 1.0), (3, 1.001), (2, 1.2),
                                   (2, _cp_limit(2)), (3, _cp_limit(3)), (8, _cp_limit(8))])
def test_depolarizing_family_matches_loop(d, lam):
    from qtypical.channels import _weyl_shift_clock

    weight = 1.0 - lam + lam / d**2  # K_0 is dropped at the extraction cutoff
    loop = [np.sqrt(weight) * np.eye(d, dtype=complex)] if weight > 1e-12 else []
    loop += [np.sqrt(lam) / d * u for u in _weyl_shift_clock(d)[1:]]
    loop = np.stack([k for k in loop if np.any(k)])
    np.testing.assert_array_equal(depolarizing(d, lam).kraus, loop)


@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("at_limit", [False, True], ids=["1.001", "cp_limit"])
def test_depolarizing_above_one_matches_choi_extraction(d, at_limit):
    # the Kraus family extracted from J = (lam/d^2) I + (1 - lam) |phi+><phi+|
    lam = _cp_limit(d) if at_limit else 1.001
    phi = np.zeros((d * d, d * d), dtype=complex)
    diag = np.arange(d) * (d + 1)  # the index i * d + i of |i, i>
    phi[np.ix_(diag, diag)] = 1.0 / d
    oracle = choi_to_kraus((lam / d**2) * np.eye(d * d) + (1.0 - lam) * phi, dim_in=d, dim_out=d)
    ch = depolarizing(d, lam)
    assert channels_equal(ch, oracle, tol=1e-12)
    assert ch.n_kraus == oracle.n_kraus == (d * d - 1 if at_limit else d * d)


@pytest.mark.parametrize("lam", [0.5, 1.0 + 1.0 / 80.0],
                         ids=["shift_clock_family", "above_one"])
def test_depolarizing_refused_above_budget(small_dense_budget, lam):
    # the family of d^2 operators of d x d takes 16 * d^4 bytes: 16 * 8^4 fill the 64 KiB
    # budget; 1 + 1/80 is the complete-positivity limit at d = 9, so it is valid at d = 8 too
    assert depolarizing(8, lam).dim_in == 8
    with pytest.raises(DimensionError, match="MiB"):
        depolarizing(9, lam)


def test_depolarizing_allocates_at_most_three_kraus_arrays():
    # the shift/clock family, the constructor's copy and the trace-preservation
    # check's conjugate; no masked copy of the family
    tracemalloc.start()
    try:
        ch = depolarizing(24, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * ch.kraus.nbytes


def test_random_channel_refused_above_budget(small_dense_budget):
    # the Ginibre matrix takes 16 * dim_out * n_kraus * dim_in bytes: 16 * 16 * 8 * 32
    # fill the 64 KiB budget, one more Kraus operator does not fit
    assert random_channel(32, 16, 8, seed=1).n_kraus == 8
    with pytest.raises(DimensionError, match="Ginibre"):
        random_channel(32, 16, 9, seed=1)


def test_apply_pure_batch_refuses_kraus_images_above_budget(small_dense_budget):
    # depolarizing(4): a row's 16 Kraus images, their conjugate and its output take
    # 16 * (2 * 16 * 4 + 16) = 2304 bytes, so 28 rows fit the 64 KiB budget and 29 do not,
    # although 29 outputs alone take 7.4 KB
    ch = depolarizing(4, 0.5)
    psis = np.ones((29, 4)) / 2
    assert ch.apply_pure_batch(psis[:28]).shape == (28, 4, 4)
    with pytest.raises(DimensionError, match="29 outputs of dimension 4 and their 16 Kraus images"):
        ch.apply_pure_batch(psis)


def test_depolarizing_rejects_outside_cp_range():
    with pytest.raises(CPTPError):
        depolarizing(2, -0.1)
    with pytest.raises(CPTPError):
        depolarizing(2, 1.4)


# -- Choi <-> Kraus --


def test_choi_to_kraus_pure_entangled_gives_identity():
    ch = choi_to_kraus(identity_channel(3).choi(), 3, 3)
    assert ch.n_kraus == 1
    assert channels_equal(ch, identity_channel(3))


def test_choi_to_kraus_roundtrip_depolarizing():
    original = depolarizing(2, 0.5)
    extracted = choi_to_kraus(original.choi(), 2, 2)
    assert extracted.n_kraus <= 5
    assert np.max(np.abs(extracted.choi().matrix - original.choi().matrix)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_choi_to_kraus_roundtrip_random(d_in, d_out, tau, seed):
    if d_out * tau < d_in:
        tau = -(-d_in // d_out)
    tau = min(tau, d_in * d_out)
    ch = random_channel(d_in, d_out, tau, seed=seed)
    back = choi_to_kraus(ch.choi(), d_in, d_out)
    assert np.max(np.abs(back.choi().matrix - ch.choi().matrix)) < 1e-9


def test_choi_to_kraus_rejects_negative_eigenvalue():
    # depolarizing-type Choi pushed past the CP boundary: the reduced state
    # on the input factor stays exactly identity/2, only positivity breaks
    phi = identity_channel(2).choi().matrix
    lam = 4.04 / 3.0  # minimum eigenvalue lam/4 + (1 - lam) = -0.01
    j = lam * np.eye(4) / 4 + (1 - lam) * phi
    assert abs(np.linalg.eigvalsh(j)[0] + 0.01) < 1e-12
    with pytest.raises(CPTPError):
        choi_to_kraus(j, dim_in=2, dim_out=2)


# -- Lipschitz estimate --


def test_lipschitz_identity_is_one():
    assert abs(lipschitz_estimate(identity_channel(4), 3, 0) - 1.0) < 1e-9


def test_lipschitz_constant_channel_is_zero():
    assert lipschitz_estimate(depolarizing(4, 1.0), 3, 0) < 1e-10


def test_lipschitz_monotone_in_trials_and_bounded():
    ch = depolarizing(3, 0.5)
    values = [lipschitz_estimate(ch, t, seed=5) for t in (1, 2, 4, 8)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_lipschitz_two_row_batch_matches_per_state_objective(monkeypatch):
    ch = random_channel(6, 3, 4, seed=29)
    batched = lipschitz_estimate(ch, 3, 41)

    def per_state(c, psis, phis):
        deltas = [c.apply_pure(psi) - c.apply_pure(phi) for psi, phi in zip(psis, phis)]
        return [0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta)))) for delta in deltas]

    monkeypatch.setattr(channels, "_pair_objectives", per_state)
    assert abs(lipschitz_estimate(ch, 3, 41) - batched) < 1e-12


def _sequential_lipschitz_trials(ch, trials, seed):
    # the 0.9.0 search: one trial after another, each candidate pair a two-row block
    def objective(psi, phi):
        out = ch.apply_pure_batch(np.stack((psi, phi)))
        return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(out[0] - out[1]))))

    d = ch.dim_in
    finals = []
    for t in range(trials):
        rng = _generator(derive_seed(seed, t))
        psi, phi = channels._orthonormal_pair(rng, d)
        value, step = objective(psi, phi), 0.4
        for _ in range(60):
            if step < 1e-4:
                break
            noise = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
            cand_psi = psi + step * noise[:, 0]
            cand_psi = cand_psi / np.linalg.norm(cand_psi)
            cand_phi = phi + step * noise[:, 1]
            cand_phi = cand_phi - (cand_psi.conj() @ cand_phi) * cand_psi
            norm = np.linalg.norm(cand_phi)
            if norm < 1e-12:
                step *= 0.5
                continue
            cand_phi = cand_phi / norm
            cand_value = objective(cand_psi, cand_phi)
            if cand_value > value:
                psi, phi, value = cand_psi, cand_phi, cand_value
            else:
                step *= 0.7
        finals.append(value)
    return finals


@pytest.mark.parametrize("make", [lambda: RestrictedPartialTrace(10, 5, 3),
                                  lambda: DetectorChannel(8, 2, 4)],
                         ids=["partial_trace_10_5_3", "detector_8_2_4"])
def test_lipschitz_lockstep_matches_sequential_trials_bit_for_bit(make):
    ch = make()
    expected = _sequential_lipschitz_trials(ch, 16, 2024)
    assert channels._lockstep_search(ch, range(16), 2024) == expected
    assert lipschitz_estimate(ch, 16, 2024) == min(max(expected), 1.0)


def test_lipschitz_lockstep_matches_sequential_trials_on_dense_channel():
    ch = random_channel(8, 4, 3, seed=5)
    expected = _sequential_lipschitz_trials(ch, 16, 7)
    got = channels._lockstep_search(ch, range(16), 7)
    assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-12
    assert abs(lipschitz_estimate(ch, 16, 7) - min(max(expected), 1.0)) <= 1e-12


def test_lipschitz_crosses_a_trial_group_and_keeps_blocks_within_the_row_cap(monkeypatch):
    ch = RestrictedPartialTrace(6, 3, 2)
    group = qcore._BLOCK_ROWS // 2
    trials = group + 2
    expected = min(max(_sequential_lipschitz_trials(ch, trials, 11)), 1.0)
    groups, rows = [], []
    search, apply_pure_batch = channels._lockstep_search, RestrictedPartialTrace.apply_pure_batch

    def recording_search(c, trial_ids, seed):
        groups.append(trial_ids)
        return search(c, trial_ids, seed)

    def counting_apply(c, psis):
        rows.append(len(psis))
        return apply_pure_batch(c, psis)

    monkeypatch.setattr(channels, "_lockstep_search", recording_search)
    monkeypatch.setattr(RestrictedPartialTrace, "apply_pure_batch", counting_apply)
    assert lipschitz_estimate(ch, trials, 11) == expected
    assert groups == [range(0, group), range(group, trials)]
    # the first group's opening block is the largest, and no larger than the row cap
    assert max(rows) == qcore._BLOCK_ROWS


def test_lipschitz_groups_shrink_to_the_budget_where_a_two_row_block_fits(monkeypatch):
    ch = RestrictedPartialTrace(12, 6, 6)
    trials = 8
    expected = lipschitz_estimate(ch, trials, 13)  # also builds the grouping plan at the real budget
    # room for two trials by the group rule: a block of 2 rows fits, one of 2 * trials rows does not
    per_trial = 16 * 8 * ch.dim_in + 2 * ch._row_bytes
    monkeypatch.setattr(qcore, "_DENSE_BYTES_LIMIT", 2 * per_trial)
    with pytest.raises(DimensionError):
        ch.apply_pure_batch(np.zeros((2 * trials, ch.dim_in), dtype=np.complex128))
    rows = []
    apply_pure_batch = RestrictedPartialTrace.apply_pure_batch

    def counting_apply(c, psis):
        rows.append(len(psis))
        return apply_pure_batch(c, psis)

    monkeypatch.setattr(RestrictedPartialTrace, "apply_pure_batch", counting_apply)
    assert lipschitz_estimate(ch, trials, 13) == expected
    assert max(rows) == 4


def test_lipschitz_requires_positive_trials():
    with pytest.raises(ValueError):
        lipschitz_estimate(identity_channel(2), 0, 0)


# -- bound interplay --


def test_entropy_bound_of_composition_never_beats_unitary():
    from qtypical.typicality import entropy_bound
    gamma = random_channel(4, 4, 3, seed=50)
    lam = random_channel(4, 3, 2, seed=51)
    composed = compose(lam, gamma)
    assert entropy_bound(composed) <= 0.5 * np.sqrt(composed.dim_out) + 1e-12


# -- serialization --


# random_channel(2, 2, 2, seed=61) as saved by version 0.2.0
V020_CHANNEL_FILE = (
    '{"dim_in": 2, "dim_out": 2, "kraus": [[[-0.1735457316738773, '
    '-0.17310680498286923], [-0.2763153992299898, 0.7411813992907645], '
    '[-0.5448622738015066, 0.36094069579274074], [0.0011689585265152735, '
    '0.08251489500906567]], [[0.3252138685508502, -0.31154440875350436], '
    '[-0.18658485670543276, -0.07966214916815101], [0.2575950776034068, '
    '0.4935419200696331], [-0.4147150289662834, 0.3928630004454241]]]}\n'
)


def test_loads_channel_file_saved_by_0_2_0(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(V020_CHANNEL_FILE)
    loaded = load_channel(path)
    assert channels_equal(loaded, random_channel(2, 2, 2, seed=61))
    save_channel(loaded, tmp_path / "new.json")
    assert (tmp_path / "new.json").read_text() == V020_CHANNEL_FILE


def test_json_roundtrip_preserves_action(tmp_path):
    ch = random_channel(3, 2, 4, seed=60)
    path = tmp_path / "channel.json"
    save_channel(ch, path)
    loaded = load_channel(path)
    assert channels_equal(loaded, ch)


def test_json_wire_format_is_flat_row_major(tmp_path):
    ch = identity_channel(2)
    data = channel_to_json_dict(ch)
    assert data["dim_in"] == 2 and data["dim_out"] == 2
    assert data["kraus"] == [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]
    assert channels_equal(channel_from_json_dict(data), ch)


@pytest.mark.parametrize("make", [
    lambda: identity_channel(65),                  # one operator of 4225 entries: two runs
    lambda: identity_channel(64),                  # one operator of exactly one run
    lambda: random_channel(65, 65, 2, seed=62),    # two operators of two runs each
    lambda: depolarizing(4, 0.3),                  # 16 operators of 16 entries
    lambda: identity_channel(1),
], ids=["identity-65", "identity-64", "random-65", "depolarizing-4", "identity-1"])
def test_saved_bytes_are_the_json_dump_of_the_wire_format(tmp_path, make):
    ch = make()
    save_channel(ch, tmp_path / "c.json")
    expected = json.dumps(channel_to_json_dict(ch)) + "\n"
    assert (tmp_path / "c.json").read_bytes() == expected.encode()


def test_save_channel_holds_one_run_of_entries(tmp_path):
    # identity 500 has 4 MB of Kraus entries; their nested lists peaked at 32 MB, and a
    # run of 4096 entries needs about 1.2 MB whatever the family's size
    ch = identity_channel(500)
    tracemalloc.start()
    try:
        save_channel(ch, tmp_path / "c.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_loading_non_cptp_file_raises(tmp_path):
    path = tmp_path / "bad.json"
    bad = {"dim_in": 2, "dim_out": 2,
           "kraus": [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]}
    path.write_text(json.dumps(bad))
    with pytest.raises(CPTPError):
        load_channel(path)


@pytest.mark.parametrize("kraus", [
    [[[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],                     # too few entries
    [[[1.0, 0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],    # not a pair
    [[[None, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],       # not a number
    [],
])
def test_loading_malformed_kraus_entries_raises(tmp_path, kraus):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim_in": 2, "dim_out": 2, "kraus": kraus}))
    with pytest.raises(CPTPError):
        load_channel(path)


# -- hypothesis sweep over random channels --


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_random_channel_is_cptp(d_in, d_out, tau, seed):
    if d_out * tau < d_in:
        tau = -(-d_in // d_out)
    tau = min(tau, d_in * d_out)
    ch = random_channel(d_in, d_out, tau, seed=seed)
    rho = random_density(d_in, seed)
    out = ch.apply_matrix(rho.matrix)
    assert abs(np.trace(out).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(out)[0] > -1e-10
    marginal = np.einsum("aiaj->ij", ch.choi().matrix.reshape(d_out, d_in, d_out, d_in))
    assert np.max(np.abs(marginal - np.eye(d_in) / d_in)) < 1e-10
