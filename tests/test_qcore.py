import hashlib
import struct
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
    derive_seed,
    haar_sample,
    haar_unitary,
    partial_trace,
    trace_distance,
)
from qtypical.restriction import RestrictedPartialTrace


# -- domain type validation --


def test_state_vector_is_immutable():
    psi = haar_sample(3, 0)
    with pytest.raises(ValueError):
        psi[0] = 0.0


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


# -- haar sampling --


def test_haar_dim_one_is_a_phase():
    psi = haar_sample(1, 99)
    assert abs(abs(psi[0]) - 1.0) < 1e-12


def test_haar_deterministic_for_fixed_seed():
    a = haar_sample(2, 1234)
    b = haar_sample(2, 1234)
    assert np.array_equal(a, b)


def test_haar_zero_dim_rejected():
    with pytest.raises(DimensionError):
        haar_sample(0, 0)


def test_haar_component_moments_dim4():
    # exchangeability forces mean |amplitude|^2 = 1/dim; 3 sigma < 0.01 at 1e5 draws
    # the draws of haar_sample(4, derive_seed(0xA1, i)), as one block with the same bits
    n = 10**5
    batch = qcore._haar_rows(4, [derive_seed(0xA1, i) for i in range(n)])
    acc = np.sum(np.abs(batch) ** 2, axis=0) / n
    assert np.max(np.abs(acc - 0.25)) < 0.01


def test_haar_first_moment_matches_maximally_mixed():
    n = 10**4
    dim = 4
    batch = qcore._haar_rows(dim, [derive_seed(7, i) for i in range(n)])  # haar_sample's bits
    mean = np.einsum("ni,nj->ij", batch, batch.conj()) / n
    assert np.max(np.abs(mean - np.eye(dim) / dim)) < 5.0 / np.sqrt(n)


def _haar_state_per_sample(dim, seed):
    # the 0.9.0 haar_sample body, one generator and one normalisation per state
    parts = qcore._generator(seed).standard_normal((2, dim))
    z = parts[0] + 1j * parts[1]
    return z / np.linalg.norm(z)


@pytest.mark.parametrize("dim", [1, 2, 7, 252, 1000])
@pytest.mark.parametrize("n_states", [256, 37])  # a full and a partial sampling chunk
def test_haar_rows_match_per_sample_draws_bit_for_bit(dim, n_states):
    seeds = [derive_seed(2024, i) for i in range(n_states)]
    expected = np.stack([_haar_state_per_sample(dim, s) for s in seeds])
    assert qcore._haar_rows(dim, seeds).tobytes() == expected.tobytes()
    assert haar_sample(dim, seeds[-1]).tobytes() == expected[-1].tobytes()


@pytest.mark.parametrize("dim", [1, 4, 252, 5000])
def test_haar_sample_is_the_per_sample_draw(dim):
    # haar_sample is one row of the sampling path: the bits of the per-state oracle above
    seeds = [derive_seed(7, i) for i in range(3)] + [0, 2**64 - 1]
    rows = qcore._haar_rows(dim, seeds)
    for seed, row in zip(seeds, rows):
        psi = haar_sample(dim, seed)
        assert psi.tobytes() == _haar_state_per_sample(dim, seed).tobytes() == row.tobytes()
        assert psi.shape == (dim,) and not psi.flags.writeable


def test_haar_rows_peak_is_one_output_block():
    dim = 1000
    seeds = [derive_seed(5, i) for i in range(256)]
    block = 16 * len(seeds) * dim
    qcore._haar_rows(dim, seeds[:1])  # one-time module and generator setup is not per block
    tracemalloc.start()
    try:
        qcore._haar_rows(dim, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * block


_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, 2**64 + 5, 2**70]


def _numpy_pcg64_state(seed):
    state = np.random.PCG64(seed & qcore._U64).state["state"]
    return state["state"], state["inc"]


def test_pcg64_states_match_numpy_seeding_on_edge_seeds():
    assert qcore._pcg64_states(_EDGE_SEEDS) == [_numpy_pcg64_state(s) for s in _EDGE_SEEDS]


def test_pcg64_states_match_numpy_seeding_on_derived_seeds():
    seeds = [derive_seed(2024, i) for i in range(10_000)]
    assert qcore._pcg64_states(seeds) == [_numpy_pcg64_state(s) for s in seeds]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=8))
def test_pcg64_states_match_numpy_seeding_on_any_integer(seeds):
    assert qcore._pcg64_states(seeds) == [_numpy_pcg64_state(s) for s in seeds]


@pytest.mark.parametrize("seed", [-1, 2**64 + 5, 2**70])
def test_haar_sample_masks_out_of_range_seeds_like_its_generator(seed):
    expected = _haar_state_per_sample(3, seed)
    assert haar_sample(3, seed).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [np.int64(5), np.int64(-1), np.uint64(2**64 - 1), np.uint64(7)])
def test_numpy_integer_seeds_give_the_bytes_of_the_equal_python_int(seed):
    value = int(seed)
    assert derive_seed(seed, 3) == derive_seed(value, 3)
    assert derive_seed(7, seed) == derive_seed(7, value)
    assert haar_sample(2, seed).tobytes() == haar_sample(2, value).tobytes()
    assert qcore._pcg64_states([seed]) == qcore._pcg64_states([value])
    assert (qcore._generator(seed).standard_normal(4).tobytes()
            == qcore._generator(value).standard_normal(4).tobytes())


def test_block_items_caps_rows_then_fits_the_budget(small_dense_budget):
    assert qcore._block_items(1, 1) == qcore._BLOCK_ROWS
    assert qcore._block_items(1, 2) == qcore._BLOCK_ROWS // 2
    assert qcore._block_items(small_dense_budget // 3, 2) == 3
    assert qcore._block_items(small_dense_budget, 2) == 1
    assert qcore._block_items(small_dense_budget + 1, 2) == 1  # left for its own size check


def test_haar_unitary_is_unitary():
    u = haar_unitary(5, 3)
    assert np.max(np.abs(u @ u.conj().T - np.eye(5))) < 1e-12


def test_budget_message_reports_the_budget_in_force(small_dense_budget):
    # a need below 1 MiB shows four significant digits, as does the 64 KiB budget
    message = r"^the block needs 0\.06445 MiB \(limit 0\.0625 MiB\)$"
    with pytest.raises(DimensionError, match=message):
        qcore._check_dense_bytes(67584, "the block")
    with pytest.raises(DimensionError, match=r"needs 962 MiB \(limit 0\.0625 MiB\)$"):
        qcore._check_dense_bytes(962 * 2**20 + 5, "the plan")


def test_budget_message_keeps_whole_mib_at_the_real_budget():
    with pytest.raises(DimensionError, match=r"needs 962 MiB \(limit 512 MiB\)$"):
        qcore._check_dense_bytes(962 * 2**20 + 5, "the plan")


@pytest.mark.parametrize("n_bytes, mib", [
    (2**1043, "2^1023.0"),  # the MiB still fit a float
    ((2**1024 - 2**970) * 2**20 - 1, "2^1024.0"),
    (2**1100 + 2**19, "2^1080.0"),  # beyond it: counted by integer arithmetic
    (3 * 2**1200, "2^1181.6"),
], ids=["2^1043", "float-max", "2^1100", "3x2^1200"])
def test_budget_message_of_a_count_beyond_the_float_range(n_bytes, mib):
    # the float division overflowed here, and the refusal exited 1
    assert qcore._mib(n_bytes) == f"{mib} MiB"


@pytest.mark.parametrize("n_bytes, mib", [
    (2**20, "1"),
    (5 * 2**19, "2"),  # the float's rounding, half to even
    ((2**53 - 1) * 2**20, str(2**53 - 1)),  # the largest count written in full
    (2**53 * 2**20, "2^53.0"),
], ids=["1MiB", "2.5MiB", "below-2^53", "2^53"])
def test_budget_message_writes_counts_below_2_to_the_53_in_full(n_bytes, mib):
    assert qcore._mib(n_bytes) == f"{mib} MiB"


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


@pytest.mark.parametrize("master", [0, 42, -1, 2**64 + 5, np.uint64(2**64 - 1)])
def test_derived_seed_list_is_the_blake2b_of_each_payload(master):
    # the list helper against the hash written out: blake2b of the (master, index)
    # little-endian words, each masked to 64 bits
    def oracle(i):
        payload = struct.pack("<QQ", int(master) & (2**64 - 1), i)
        return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")

    for start, stop in ((0, 300), (2**64 - 3, 2**64), (7, 7)):
        assert qcore._derive_seeds(master, start, stop) == [oracle(i) for i in range(start, stop)]
    assert derive_seed(master, -1) == oracle(2**64 - 1)


# -- trace distance --


def test_trace_distance_orthogonal_pure_states():
    a = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
    b = DensityOperator(np.diag([0.0, 1.0]).astype(complex))
    assert abs(trace_distance(a, b) - 1.0) < 1e-12


def test_trace_distance_identical_states():
    rho = random_density(5, 8)
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_plus_vs_zero():
    plus = DensityOperator(np.full((2, 2), 0.5))
    zero = DensityOperator(np.diag([1.0, 0.0]))
    # pure states: D = sqrt(1 - |<psi|phi>|^2) = sqrt(1/2)
    assert abs(trace_distance(plus, zero) - np.sqrt(0.5)) < 1e-12


def test_half_trace_norms_of_a_stack_match_trace_distance_bitwise():
    rhos = [random_density(20, seed).matrix for seed in range(6)]
    sigma = random_density(20, 99).matrix
    stacked = qcore._half_trace_norms(np.stack(rhos) - sigma)
    assert stacked.tolist() == [trace_distance(rho, sigma) for rho in rhos]


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


def test_write_lines_holds_one_run_of_text(tmp_path):
    # 10^5 generated lines (2.2 MB of text) are written a run of 4096 at a time: a
    # joined whole file peaks at about 10 MB
    path = tmp_path / "lines.csv"

    def lines():
        return (f"{i},{i / 7:.17g}" for i in range(10**5))

    qcore._write_lines(path, lines())  # the file's buffers and the encoder are set up once
    tracemalloc.start()
    try:
        qcore._write_lines(path, lines())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = "\n".join(lines()) + "\n"
    assert path.read_bytes() == text.encode()
    assert len(text) > 2 * 2**20 and peak < 2**20, peak


@pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 8193])
def test_write_lines_runs_end_each_line_once(tmp_path, count):
    # a list or a generator, the runs' boundaries leave the bytes of one joined text
    path = tmp_path / "lines.txt"
    qcore._write_lines(path, (str(i) for i in range(count)))
    expected = "".join(f"{i}\n" for i in range(count)).encode()
    assert path.read_bytes() == expected
    qcore._write_lines(path, [str(i) for i in range(count)])
    assert path.read_bytes() == expected


def test_write_lines_leaves_the_old_file_when_a_line_raises(tmp_path):
    # the runs go to a sibling file that replaces the target only after the last run
    path = tmp_path / "lines.txt"
    path.write_text("old\n")

    def lines():
        for i in range(5000):
            if i == 4500:
                raise RuntimeError("line 4500")
            yield str(i)

    with pytest.raises(RuntimeError, match="line 4500"):
        qcore._write_lines(path, lines())
    assert [p.name for p in tmp_path.iterdir()] == ["lines.txt"]
    assert path.read_text() == "old\n"
