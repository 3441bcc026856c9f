import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix_unit, random_density
from qtypical import channels
from qtypical.channels import (
    CPTPError,
    ChoiState,
    QuantumChannel,
    StinespringIsometry,
    channel_from_json_dict,
    channel_to_json_dict,
    channels_equal,
    choi_to_kraus,
    compose,
    depolarizing,
    identity_channel,
    lipschitz_estimate,
    load_channel,
    partial_trace_channel,
    random_channel,
    replace_channel,
    save_channel,
    tensor,
    unitary_channel,
)
from qtypical.qcore import (
    DensityOperator,
    DimensionError,
    HermitianOperator,
    StateVector,
    haar_unitary,
)


# -- construction invariants --


def test_rejects_non_trace_preserving_family():
    with pytest.raises(CPTPError):
        QuantumChannel(2, 2, (0.5 * np.eye(2),))
    with pytest.raises(CPTPError):
        QuantumChannel(2, 2, (np.diag([1.0, np.nan]),))


NAN = float("nan")


@pytest.mark.parametrize("construct", [
    lambda: StateVector([NAN, 0]),
    lambda: DensityOperator([[NAN, 0], [0, 1]]),
    lambda: DensityOperator([[NAN, 0], [0, 1]], validate=False),
    lambda: HermitianOperator([[NAN]]),
    lambda: StinespringIsometry([[1], [NAN]], dim_env=2, dim_in=1, dim_out=1),
    # a stand-in state, so that ChoiState's own marginal check sees the NaN
    lambda: ChoiState(1, 1, SimpleNamespace(dim=1, matrix=np.array([[NAN]]))),
    lambda: choi_to_kraus(np.array([[NAN, 0], [0, 1]]), dim_in=1, dim_out=2),
], ids=["state_vector", "density", "density_unvalidated", "hermitian", "stinespring",
        "choi_state", "choi_to_kraus"])
def test_validation_rejects_nan_entries(construct):
    # each check must be written so that a NaN deviation fails it
    with pytest.raises(ValueError, match="nan"):
        construct()


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
    np.testing.assert_allclose(ch.apply(rho).matrix, rho.matrix, atol=1e-12)


def test_full_depolarizing_sends_everything_to_maximally_mixed():
    ch = depolarizing(2, 1.0)
    rho = random_density(2, 1)
    np.testing.assert_allclose(ch.apply(rho).matrix, np.eye(2) / 2, atol=1e-12)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionError):
        identity_channel(2).apply(random_density(3, 0))


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
        np.testing.assert_allclose(rho, ch.apply_pure(psi), rtol=0, atol=1e-13)


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


def test_choi_of_replace_channel_is_product():
    sigma = random_density(3, 17)
    ch = replace_channel(sigma, dim_in=4)
    expected = np.kron(sigma.matrix, np.eye(4) / 4)
    np.testing.assert_allclose(ch.choi().matrix, expected, atol=1e-12)


def test_choi_marginal_is_maximally_mixed():
    for seed in range(5):
        ch = random_channel(4, 5, 3, seed=seed)
        j = ch.choi().matrix.reshape(5, 4, 5, 4)
        marginal = np.einsum("aiaj->ij", j)
        assert np.max(np.abs(marginal - np.eye(4) / 4)) < 1e-10


def test_choi_state_rejects_bad_marginal():
    bad = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(CPTPError):
        ChoiState(2, 2, DensityOperator(bad))


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
    constant = replace_channel(DensityOperator(np.eye(3, dtype=complex) / 3), dim_in=3)
    assert channels_equal(collapsed, constant)


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


def test_identity_channel_refused_above_budget():
    # 20000^2 complex entries: 6.4 GB, refused before allocating
    with pytest.raises(DimensionError, match="MiB"):
        identity_channel(20000)


@pytest.mark.parametrize("sigma_factory", [
    lambda: random_density(3, 17),
    lambda: DensityOperator(np.diag([0.0, 1.0, 0.0]).astype(complex)),  # rank one
])
def test_replace_channel_matches_loop(sigma_factory):
    sigma = sigma_factory()
    eigs, vecs = np.linalg.eigh(sigma.matrix)
    loop = []
    for lam, vec in zip(eigs, vecs.T):
        if lam <= 1e-12:
            continue
        for j in range(4):
            k = np.zeros((3, 4), dtype=complex)
            k[:, j] = np.sqrt(lam) * vec
            loop.append(k)
    np.testing.assert_array_equal(replace_channel(sigma, dim_in=4).kraus, np.stack(loop))


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


@pytest.mark.parametrize("d,lam", [(3, 0.4), (2, 0.0), (2, 1.0)])
def test_depolarizing_family_matches_loop(d, lam):
    from qtypical.channels import _weyl_shift_clock

    loop = [np.sqrt(1.0 - lam + lam / d**2) * np.eye(d, dtype=complex)]
    loop += [np.sqrt(lam) / d * u for u in _weyl_shift_clock(d)[1:]]
    loop = np.stack([k for k in loop if np.any(k)])
    np.testing.assert_array_equal(depolarizing(d, lam).kraus, loop)


@pytest.mark.parametrize("lam", [0.5, 1.0 + 1.0 / 80.0],
                         ids=["shift_clock_family", "choi_extraction"])
def test_depolarizing_refused_above_budget(small_dense_budget, lam):
    # both branches build a d^2 x d^2 array: 16 * 8^4 bytes fill the 64 KiB budget;
    # 1 + 1/80 is the complete-positivity limit at d = 9, so it is valid at d = 8 too
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


def test_depolarizing_rejects_outside_cp_range():
    with pytest.raises(CPTPError):
        depolarizing(2, -0.1)
    with pytest.raises(CPTPError):
        depolarizing(2, 1.4)


# -- Stinespring --


def test_stinespring_identity():
    v = identity_channel(3).stinespring()
    assert v.dim_env == 1
    np.testing.assert_allclose(v.matrix, np.eye(3), atol=1e-12)


def test_stinespring_partial_trace_is_permutation():
    ch = partial_trace_channel(2, 3)
    v = ch.stinespring()
    assert v.dim_env == 3
    # a permutation matrix: a single unit entry per row and column
    assert np.allclose(np.abs(v.matrix).sum(axis=0), 1.0)
    assert np.allclose(np.abs(v.matrix).sum(axis=1), 1.0)
    for i in range(6):
        for j in range(6):
            np.testing.assert_allclose(
                v.reconstruct(matrix_unit(i, j, 6)),
                ch.apply_matrix(matrix_unit(i, j, 6)), atol=1e-12)


def test_stinespring_reconstructs_random_channel():
    ch = random_channel(4, 3, 5, seed=41)
    v = ch.stinespring()
    assert v.dim_env == ch.n_kraus
    loop = np.zeros((3 * ch.n_kraus, 4), dtype=complex)
    for m, k in enumerate(ch.kraus):
        loop[m::ch.n_kraus, :] = k
    np.testing.assert_array_equal(v.matrix, loop)
    for i in range(4):
        for j in range(4):
            np.testing.assert_allclose(
                v.reconstruct(matrix_unit(i, j, 4)),
                ch.apply_matrix(matrix_unit(i, j, 4)), atol=1e-10)


# -- Choi <-> Kraus --


def test_choi_to_kraus_pure_entangled_gives_identity():
    ch = choi_to_kraus(identity_channel(3).choi())
    assert ch.n_kraus == 1
    assert channels_equal(ch, identity_channel(3))


def test_choi_to_kraus_roundtrip_depolarizing():
    original = depolarizing(2, 0.5)
    extracted = choi_to_kraus(original.choi())
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
    back = choi_to_kraus(ch.choi())
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

    def per_state(c, psi, phi):
        delta = c.apply_pure(psi) - c.apply_pure(phi)
        return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))

    monkeypatch.setattr(channels, "_pair_objective", per_state)
    assert abs(lipschitz_estimate(ch, 3, 41) - batched) < 1e-12


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
