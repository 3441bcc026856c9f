import dataclasses
import json
import math
import mmap
import os
import subprocess
import sys
import tracemalloc
from math import comb

import numpy as np
import pytest

from qtypical import qcore, typicality
from qtypical.bns import DetectorChannel, bns_channel
from qtypical.channels import (
    ConsistencyError,
    QuantumChannel,
    depolarizing,
    identity_channel,
    partial_trace_channel,
    random_channel,
)
from qtypical.qcore import DimensionError, derive_seed, haar_sample, trace_distance
from qtypical.restriction import (
    RestrictedPartialTrace,
    _marginal_square_sum,
    effective_environment_dimension,
    enumerate_basis,
    restrict_channel,
)
from qtypical.typicality import (
    LEVY_CONSTANT,
    ExperimentConfig,
    TypicalityReport,
    _check_sampling,
    canonical_state,
    entropy_bound,
    levy_tail_bound,
    partial_trace_bound,
    run_experiment,
    sample_distances,
)


# -- canonical state --


def test_canonical_state_identity():
    state = canonical_state(identity_channel(5))
    np.testing.assert_allclose(state.matrix, np.eye(5) / 5, atol=1e-14)


def test_canonical_state_depolarizing_fixed_point():
    state = canonical_state(depolarizing(4, 0.7))
    np.testing.assert_allclose(state.matrix, np.eye(4) / 4, atol=1e-12)


def test_canonical_state_detector_half_filling():
    ch = restrict_channel(bns_channel(4, 2), enumerate_basis(4, 2))
    state = canonical_state(ch)
    np.testing.assert_allclose(state.matrix,
                               np.diag([0.0, 1 / 6, 1 / 6, 4 / 6]), atol=1e-12)


# -- sampled distances --


def test_distances_vanish_for_constant_channel():
    cfg = ExperimentConfig(channel=depolarizing(3, 1.0), samples=25, master_seed=0)
    assert all(d < 1e-12 for d in sample_distances(cfg))


@pytest.mark.parametrize("dim", [2, 5, 8])
def test_identity_channel_distances_are_analytic(dim):
    cfg = ExperimentConfig(channel=identity_channel(dim), samples=40, master_seed=1)
    expected = 1.0 - 1.0 / dim
    assert max(abs(d - expected) for d in sample_distances(cfg)) < 1e-10


def test_saturated_detector_distances_vanish():
    ch = restrict_channel(bns_channel(8, 4), enumerate_basis(8, 7))
    cfg = ExperimentConfig(channel=ch, samples=30, master_seed=2)
    assert max(sample_distances(cfg)) < 1e-10


@pytest.mark.parametrize("samples", [1, qcore._BLOCK_ROWS, qcore._BLOCK_ROWS + 1])
def test_sample_distances_match_per_sample_oracle(samples):
    ch = restrict_channel(bns_channel(4, 2), enumerate_basis(4, 2))
    cfg = ExperimentConfig(channel=ch, samples=samples, master_seed=21)
    omega = canonical_state(ch)
    expected = [
        trace_distance(ch.apply_pure(haar_sample(ch.dim_in, derive_seed(21, i))),
                       omega)
        for i in range(samples)
    ]
    got = sample_distances(cfg)
    assert len(got) == samples
    assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-14


def test_sample_distances_match_per_sample_generators_bit_for_bit():
    # two full chunks and a partial one, each row drawn by a generator of its own
    ch = RestrictedPartialTrace(10, 5, 3)
    cfg = ExperimentConfig(channel=ch, samples=600, master_seed=13)
    expected = []
    for start in range(0, cfg.samples, qcore._BLOCK_ROWS):
        rows = []
        for i in range(start, min(start + qcore._BLOCK_ROWS, cfg.samples)):
            parts = qcore._generator(derive_seed(13, i)).standard_normal((2, ch.dim_in))
            z = parts[0] + 1j * parts[1]
            rows.append(z / np.linalg.norm(z))
        expected.extend(ch.distances_to_canonical(np.stack(rows)).tolist())
    assert np.array(sample_distances(cfg)).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7)])
def test_numpy_integer_master_seed_gives_the_bytes_of_the_python_int(seed):
    ch = identity_channel(3)
    cfg = ExperimentConfig(channel=ch, samples=5, master_seed=seed)
    assert np.array_equal(sample_distances(cfg), sample_distances(
        ExperimentConfig(channel=ch, samples=5, master_seed=7)))
    assert json.loads(json.dumps(run_experiment(cfg).to_json_dict()))["master_seed"] == 7


@pytest.mark.parametrize("field", ["samples", "eta_trials", "master_seed"])
def test_experiment_config_integers_must_be_integers(field):
    ch = identity_channel(3)
    with pytest.raises(TypeError):  # 10.5 samples failed only at the first draw
        ExperimentConfig(channel=ch, **{"samples": 10, "master_seed": 1, field: 10.5})
    cfg = ExperimentConfig(channel=ch, **{"samples": 10, "master_seed": 1, field: np.int64(4)})
    assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 4


class _PurityOnly:
    """The two members the entropy bound reads: an output dimension and equal purities."""

    def __init__(self, dim_out: int, purity: float):
        self.dim_out, self._purity = dim_out, purity

    def choi_purity_routes(self):
        return self._purity, self._purity


@pytest.mark.parametrize("purity", [1.0, 0.3, 1e-300])
def test_entropy_bound_of_a_dimension_beyond_the_float_range(purity):
    # (1/2) sqrt(d_S P) raised OverflowError once d_S left the float range
    bound = 0.5 * math.sqrt(2**1023 * purity)
    assert entropy_bound(_PurityOnly(2**1023, purity)) == bound
    for n in (1030, 1031, 2047):  # a power of two scales exactly
        expected = math.ldexp(0.5 * math.sqrt(2 ** (n % 2) * purity), n // 2)
        assert entropy_bound(_PurityOnly(2**n, purity)) == expected
    d_s = 3 * 2**1100 + 1
    expected = math.exp(0.5 * (math.log(d_s) + math.log(purity))) / 2
    assert math.isclose(entropy_bound(_PurityOnly(d_s, purity)), expected, rel_tol=1e-12)


@pytest.mark.parametrize("samples", [2, 3, 17, 1000, 4097, 10**5, 10**6])
def test_spread_has_the_bits_of_numpy_std(monkeypatch, samples):
    # the spread is the tail table's deviation array squared in place and summed, divided
    # by n - 1 and rooted: np.std(ddof=1)'s own arithmetic, without its second pass
    rng = np.random.default_rng(samples)
    for draw in (rng.random(samples), 0.3 + 1e-9 * rng.standard_normal(samples),
                 rng.random(samples) ** 8):
        distances = np.clip(draw, 0.0, 0.6)
        monkeypatch.setattr(typicality, "sample_distances", lambda cfg: distances)
        report = run_experiment(ExperimentConfig(channel=identity_channel(2), samples=samples,
                                                 master_seed=0, epsilon_grid=(0.1, 0.5)))
        assert report.std_distance == float(np.std(distances, ddof=1))
        assert report.tail_table[0][1] == float(np.mean(np.abs(distances - report.mean_distance)
                                                        > 0.1))


class _RowOnly:
    """The three members the sample size gate reads."""

    def __init__(self, dim_in: int, dim_out: int):
        self.dim_in, self.dim_out = dim_in, dim_out
        self._distance_row_bytes = 16 * dim_out**2


def test_sample_size_refusal_of_a_dimension_past_the_digit_limit():
    # the detector at N = k = 14300 has 2^14300 outputs: Python 3.11 refused to print
    # dim_out in the refusal (exit 1); counts from 2^53 up are written 2^x
    message = (r"^one sampled state of dimension 14300, its output of dimension 2\^14300\.0 "
               r"and work arrays needs 2\^28584\.0 MiB \(limit 512 MiB\)$")
    with pytest.raises(DimensionError, match=message):
        _check_sampling(_RowOnly(14300, 2**14300), 1)


@pytest.mark.parametrize("samples", [qcore._BLOCK_ROWS, 2 * qcore._BLOCK_ROWS + 1])
def test_sample_distances_peak_is_one_block_of_outputs(samples):
    # one chunk, or three: a finished chunk's outputs are released before the next is applied
    cfg = ExperimentConfig(channel=identity_channel(128), samples=samples, master_seed=3)
    outputs = 16 * qcore._BLOCK_ROWS * 128**2
    tracemalloc.start()
    try:
        sample_distances(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * outputs


def test_sample_distances_refuses_oversized_chunk_before_sampling(monkeypatch,
                                                                  small_dense_budget):
    # one sample of C(14, 7) = 3432 amplitudes (54912 bytes) fits the 64 KiB budget, but
    # with the gather index, table and conjugate of its 2 x 924 weight block (73920
    # bytes) and the rest of its distance work it needs 128960 bytes: no chunk fits
    import qtypical.typicality as typicality

    draws = []
    monkeypatch.setattr(typicality, "_haar_rows", lambda dim, seeds: draws.extend(seeds))
    ch = RestrictedPartialTrace(14, 7, 2)
    assert 16 * ch.dim_in + ch._distance_row_bytes == 128960
    cfg = ExperimentConfig(channel=ch, samples=300, master_seed=1)
    with pytest.raises(DimensionError, match="one sampled state of dimension 3432"):
        sample_distances(cfg)
    assert draws == []


def test_a_refused_sample_size_does_no_entropy_work(monkeypatch):
    # C(1100, 550) = 10^329 states: the sample size is refused from counts alone, before
    # the exact purity routes, which take seconds at this size
    calls = []
    monkeypatch.setattr(RestrictedPartialTrace, "choi_purity_routes",
                        lambda self: calls.append(self))
    cfg = ExperimentConfig(channel=RestrictedPartialTrace(1100, 550, 1), samples=10,
                           master_seed=1)
    with pytest.raises(DimensionError, match="one sampled state of dimension 2\\^1094.6"):
        run_experiment(cfg)
    assert calls == []


def test_the_sample_refusal_is_reported_before_the_entropy_refusal():
    # identity 200 has a 25.6 GB Choi matrix, and 2^26 + 1 samples need 1536 MiB and 24
    # bytes: both are over budget, and the sample size is checked first
    cfg = ExperimentConfig(channel=identity_channel(200), samples=2**26 + 1, master_seed=1)
    with pytest.raises(DimensionError, match="^the distances of 67108865 samples needs"):
        run_experiment(cfg)


def test_sample_distances_refuses_oversized_outputs_before_any_work(monkeypatch,
                                                                   small_dense_budget):
    # one 64 x 64 output, its Kraus image and its conjugate need 67584 bytes, past the
    # 64 KiB budget: refused before the canonical state or any draw
    import qtypical.typicality as typicality

    draws, canonical = [], []
    monkeypatch.setattr(typicality, "_haar_rows", lambda dim, seeds: draws.extend(seeds))
    monkeypatch.setattr(typicality, "canonical_state", canonical.append)
    cfg = ExperimentConfig(channel=identity_channel(64), samples=11, master_seed=1)
    with pytest.raises(DimensionError, match="its output of dimension 64"):
        sample_distances(cfg)
    assert draws == [] and canonical == []


@pytest.mark.parametrize("make", [
    lambda: RestrictedPartialTrace(8, 4, 2),
    lambda: DetectorChannel(8, 2, 4),
    lambda: depolarizing(4, 0.5),
    lambda: random_channel(8, 4, 6, seed=2),
], ids=["partial-trace", "detector", "depolarizing", "random"])
def test_derived_chunk_gives_the_bits_of_the_full_chunk(make, monkeypatch, draw_log):
    # 301 samples run as chunks of 256 and 45 under the real budget, and as the smaller
    # chunks the 64 KiB budget derives; no split has a one-row tail. The draw log
    # counts the chunks of every process, forked workers included, in no fixed order
    ch = make()
    cfg = ExperimentConfig(channel=ch, samples=301, master_seed=17)
    full = sample_distances(cfg)
    chunks = [len(seeds) for _, seeds in draw_log()]
    assert sorted(chunks) == [301 - qcore._BLOCK_ROWS, qcore._BLOCK_ROWS]
    monkeypatch.setattr(qcore, "_DENSE_BYTES_LIMIT", 2**16)
    derived = sample_distances(cfg)
    chunks = [len(seeds) for _, seeds in draw_log()][2:]
    chunk = qcore._block_items(16 * ch.dim_in + ch._distance_row_bytes, 1)
    assert 2 <= chunk < qcore._BLOCK_ROWS and min(chunks) >= 2
    assert sorted(chunks) == sorted(min(chunk, 301 - start) for start in range(0, 301, chunk))
    assert derived.tobytes() == full.tobytes()


# -- forked workers --

# five chunks of the real budget, the last one partial
WORKER_SAMPLES = 4 * qcore._BLOCK_ROWS + 45


@pytest.mark.parametrize("make", [
    lambda: RestrictedPartialTrace(10, 5, 3),
    lambda: DetectorChannel(8, 2, 4),
    lambda: depolarizing(4, 0.5),
], ids=["partial-trace", "detector", "depolarizing"])
def test_worker_count_does_not_change_the_bits(make, monkeypatch, draw_log):
    # W = 1, 2 and 3 processes, set by the CPUs the affinity reports: process j draws
    # chunks 5 j // W to 5 (j + 1) // W of the one grid, this process the last share,
    # and the distances are the same bytes
    ch = make()
    cfg = ExperimentConfig(channel=ch, samples=WORKER_SAMPLES, master_seed=23)
    results, seen = [], 0
    for workers in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=workers: set(range(n)))
        results.append(sample_distances(cfg).tobytes())
        records = draw_log()[seen:]
        seen += len(records)
        drawn = {}
        for pid, seeds in records:
            drawn.setdefault(pid, set()).update(seeds)
        shares = [{derive_seed(23, i) for i in range(WORKER_SAMPLES)
                   if 5 * j // workers <= i // qcore._BLOCK_ROWS < 5 * (j + 1) // workers}
                  for j in range(workers)]
        assert len(drawn) == workers and drawn.pop(os.getpid()) == shares.pop()
        assert sorted(map(sorted, drawn.values())) == sorted(map(sorted, shares))
    assert results[0] == results[1] == results[2]


def _raise_on_sample(monkeypatch, draw_log, index, message):
    """Make ``typicality._haar_rows`` raise ``message`` on the chunk holding sample
    ``index`` of master seed 5, after the draw log has recorded the chunk."""
    import qtypical.typicality as typicality

    recording, target = typicality._haar_rows, derive_seed(5, index)

    def failing(dim, seeds):
        out = recording(dim, seeds)
        if target in seeds:
            raise ArithmeticError(message)
        return out

    monkeypatch.setattr(typicality, "_haar_rows", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_a_failed_worker_share_is_raised_by_the_parent(monkeypatch, draw_log):
    # three chunks: the worker takes chunk 0, which raises there and then again in the
    # parent, which recomputes it after its own chunks 1 and 2
    cfg = ExperimentConfig(channel=depolarizing(4, 0.5), samples=2 * qcore._BLOCK_ROWS + 10,
                           master_seed=5)
    index = 0
    _raise_on_sample(monkeypatch, draw_log, index, "the worker's chunk failed")
    with pytest.raises(ArithmeticError, match="^the worker's chunk failed$"):
        sample_distances(cfg)
    drew = [pid for pid, seeds in draw_log() if derive_seed(5, index) in seeds]
    assert len(drew) == 2 and drew[1] == os.getpid() != drew[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_parent_share_reaps_the_workers(monkeypatch, draw_log):
    # the parent's own share, the last chunk, raises: its worker is killed and reaped
    # before the error leaves
    cfg = ExperimentConfig(channel=depolarizing(4, 0.5), samples=2 * qcore._BLOCK_ROWS + 10,
                           master_seed=5)
    _raise_on_sample(monkeypatch, draw_log, cfg.samples - 1, "the parent's chunk failed")
    with pytest.raises(ArithmeticError, match="^the parent's chunk failed$"):
        sample_distances(cfg)
    assert [pid for pid, seeds in draw_log() if derive_seed(5, cfg.samples - 1) in seeds] == [
        os.getpid()]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_share_that_cannot_be_forked_is_drawn_by_the_parent(monkeypatch, draw_log):
    # two CPUs, but os.fork raises: the worker's share is drawn in this process after
    # its own, with the bytes of the one-process run, and no child is left
    cfg = ExperimentConfig(channel=depolarizing(4, 0.5), samples=WORKER_SAMPLES,
                           master_seed=5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    alone = np.array(sample_distances(cfg)).tobytes()
    seen, forks = len(draw_log()), []

    def no_fork():
        forks.append(1)
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    assert np.array(sample_distances(cfg)).tobytes() == alone
    assert forks == [1]
    records = draw_log()[seen:]
    assert {pid for pid, _ in records} == {os.getpid()}
    assert sorted(seed for _, seeds in records for seed in seeds) == sorted(
        derive_seed(5, i) for i in range(WORKER_SAMPLES))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count_rule(monkeypatch):
    # CPUs, chunks left and chunks in flight within the budget; one without fork, without
    # an affinity, or with a second thread
    import threading

    import qtypical.typicality as typicality

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    budget = qcore._DENSE_BYTES_LIMIT
    assert typicality._worker_count(20, 2**20) == 8
    assert typicality._worker_count(3, 2**20) == 3
    assert typicality._worker_count(0, 2**20) == 1
    assert typicality._worker_count(20, budget // 5) == 5
    assert typicality._worker_count(20, budget) == 1
    with monkeypatch.context() as m:
        m.setattr(threading, "active_count", lambda: 2)
        assert typicality._worker_count(20, 2**20) == 1
    for name in ("fork", "sched_getaffinity"):
        with monkeypatch.context() as m:
            m.delattr(os, name)
            assert typicality._worker_count(20, 2**20) == 1


def test_every_chunk_is_capped_at_the_block_bytes(monkeypatch, draw_log):
    # 116128 bytes a sample: 144 samples under the 16 MiB cap, where the 512 MiB budget
    # alone allowed chunks of 256 (28 MiB); the cap leaves the bytes as they were
    ch = RestrictedPartialTrace(14, 7, 4)
    row = 16 * ch.dim_in + ch._distance_row_bytes
    cfg = ExperimentConfig(channel=ch, samples=300, master_seed=19)
    capped = sample_distances(cfg)
    chunks = [len(seeds) for _, seeds in draw_log()]
    assert (row, sorted(chunks)) == (116128, [12, 144, 144])
    assert max(chunks) * row <= qcore._BLOCK_BYTES == 16 * 2**20
    monkeypatch.setattr(qcore, "_BLOCK_BYTES", qcore._DENSE_BYTES_LIMIT)
    assert sample_distances(cfg).tobytes() == capped.tobytes()
    assert sorted(len(seeds) for _, seeds in draw_log()[3:]) == [44, 256]


def test_a_typicality_run_holds_no_more_than_its_charge_a_sample(tmp_path):
    # 3 x 10^5 samples of the partial trace 4/2/1, distances CSV included, raise the peak
    # RSS by at most the 24 bytes a sample that _check_sampling charges; a list, its
    # array copy and one whole-file CSV string took 186. A run of 1000 samples first
    # loads every module the run needs
    configs = []
    for samples in (1000, 300000):
        configs.append(tmp_path / f"config{samples}.json")
        configs[-1].write_text(json.dumps({
            "channel": {"type": "partial_trace", "N": 4, "Np": 2, "split": 1},
            "samples": samples, "master_seed": 3, "epsilon_grid": [0.05, 0.1]}))
    script = """if True:
        import resource, sys
        from qtypical.cli import main
        def run(config):
            argv = ["typicality", "--config", config, "--out", config + ".report.json",
                    "--distances-csv", config + ".csv"]
            assert main(argv) == 0
        run(sys.argv[1])
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        run(sys.argv[2])
        print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before))
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qcore.__file__)))
    result = subprocess.run([sys.executable, "-c", script, *map(str, configs)], env=env,
                            capture_output=True, text=True, check=True)
    assert int(result.stdout.split()[-1]) <= 24 * 300000


@pytest.mark.parametrize("spec", [(10, 5, 3), (10, 5, 0), (10, 5, 10), (8, 4, 2), (8, 4, 3),
                                  (12, 6, 6), (9, 2, 7), (14, 7, 7), (6, 0, 3), (6, 6, 3),
                                  (7, 3, 7), (7, 3, 1)], ids=str)
def test_weight_block_distances_match_the_dense_route(spec):
    # the dense route: whole outputs minus the dense canonical state, one eigensolve each
    ch = RestrictedPartialTrace(*spec)
    psis = qcore._haar_rows(ch.dim_in, [derive_seed(31, i) for i in range(24)])
    out = ch.apply_pure_batch(psis)
    out -= canonical_state(ch).matrix
    expected = qcore._half_trace_norms(out)
    assert np.max(np.abs(ch.distances_to_canonical(psis) - expected)) <= 1e-15


def test_partial_trace_samples_without_outputs_or_a_dense_canonical_state(monkeypatch):
    ch = RestrictedPartialTrace(10, 5, 3)
    cfg = ExperimentConfig(channel=ch, samples=40, master_seed=4)
    expected = sample_distances(cfg)

    def refuse(self, *args):
        raise AssertionError("the weight-block route formed a dense output or state")

    monkeypatch.setattr(RestrictedPartialTrace, "apply_pure_batch", refuse)
    monkeypatch.setattr(RestrictedPartialTrace, "canonical_state", refuse)
    assert np.array_equal(sample_distances(cfg), expected)


def test_partial_trace_chunk_grows_past_an_output_over_budget(small_dense_budget):
    # split 7: one 128 x 128 output alone (256 KiB) is over the 64 KiB budget, so the
    # output-sized chunk refused this spec; the weight-block route needs 8464 bytes a
    # sample (4032 of them its state) and runs chunks of 7
    ch = RestrictedPartialTrace(10, 5, 7)
    cfg = ExperimentConfig(channel=ch, samples=20, master_seed=8)
    with pytest.MonkeyPatch.context() as real_budget:
        real_budget.setattr(qcore, "_DENSE_BYTES_LIMIT", 512 * 2**20)
        expected = sample_distances(cfg)
    assert 16 * ch.dim_out**2 > small_dense_budget
    row = 16 * ch.dim_in + ch._distance_row_bytes
    chunk = qcore._block_items(row, 1)
    assert (row, chunk) == (8464, 7)
    tracemalloc.start()
    try:
        got = sample_distances(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    assert peak <= 1.1 * chunk * row


def test_estimated_eta_is_exact_on_the_matrix_free_channels(monkeypatch):
    import qtypical.channels as channels

    def no_search(*args):
        raise AssertionError("the exact eta needs no search")

    monkeypatch.setattr(channels, "lipschitz_estimate", no_search)
    for ch in (RestrictedPartialTrace(10, 5, 3), DetectorChannel(8, 2, 4)):
        reports = [run_experiment(ExperimentConfig(channel=ch, samples=60, master_seed=2,
                                                   epsilon_grid=(0.05, 0.1), eta_mode=mode))
                   for mode in ("estimated", "fixed_one")]
        estimated, fixed = (r.to_json_dict() for r in reports)
        assert estimated["eta_used"] == 1.0 and not estimated["tail_diagnostic_only"]
        assert estimated["tail_table"] == fixed["tail_table"]
    report = run_experiment(ExperimentConfig(channel=DetectorChannel(8, 4, 7), samples=5,
                                             master_seed=2, epsilon_grid=(0.05,),
                                             eta_mode="estimated"))
    assert report.eta_used == 0.0 and report.tail_table[0][2] == 0.0


def test_run_experiment_refuses_an_oversized_entropy_before_any_draw(monkeypatch,
                                                                     small_dense_budget):
    # 12 samples of identity(16) fit the 64 KiB budget, its 256^2 Choi matrix does not
    import qtypical.typicality as typicality

    draws = []
    monkeypatch.setattr(typicality, "_haar_rows", lambda dim, seeds: draws.extend(seeds))
    cfg = ExperimentConfig(channel=identity_channel(16), samples=12, master_seed=1)
    with pytest.raises(DimensionError, match="Choi matrix"):
        run_experiment(cfg)
    assert draws == []


def test_restricted_partial_trace_experiment_matches_dense_oracle():
    dense = restrict_channel(partial_trace_channel(8, 32), enumerate_basis(8, 4))
    configs = [ExperimentConfig(channel=c, samples=300, master_seed=13,
                                epsilon_grid=(0.05,), eta_mode="estimated", eta_trials=2)
               for c in (RestrictedPartialTrace(8, 4, 3), dense)]
    got, expected = (sample_distances(cfg) for cfg in configs)
    assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-15
    got, expected = (run_experiment(cfg).to_json_dict() for cfg in configs)
    for key in ("mean_distance", "std_distance", "max_distance", "entropy_bound",
                "linear_entropy"):
        assert abs(got[key] - expected[key]) < 1e-12, key
    # the matrix-free channel reports its exact eta; the dense oracle searches a lower bound
    assert got["eta_used"] == 1.0 and expected["eta_used"] <= got["eta_used"]


def test_distances_deterministic_and_thread_independent(monkeypatch):
    ch = restrict_channel(bns_channel(4, 2), enumerate_basis(4, 2))
    cfg = ExperimentConfig(channel=ch, samples=64, master_seed=9)
    monkeypatch.setenv("QTYPICAL_THREADS", "1")
    base = sample_distances(cfg)
    assert np.array_equal(base, sample_distances(cfg))
    for threads in ("4", "8"):
        monkeypatch.setenv("QTYPICAL_THREADS", threads)
        assert np.array_equal(sample_distances(cfg), base)


# -- analytic bounds --


def test_entropy_bound_identity_channel():
    for d in (2, 8, 70):
        assert abs(entropy_bound(identity_channel(d)) - 0.5 * math.sqrt(d)) < 1e-12


def test_entropy_bound_full_depolarizing():
    d = 4
    assert abs(entropy_bound(depolarizing(d, 1.0)) - 0.5 * math.sqrt(1 / d)) < 1e-12


def test_entropy_bound_equals_partial_trace_bound_when_tracing():
    sub = enumerate_basis(4, 2)
    ch = restrict_channel(partial_trace_channel(4, 4), sub)
    d_e_eff = effective_environment_dimension(sub, (2, 2))
    assert abs(entropy_bound(ch) - partial_trace_bound(4, d_e_eff)) < 1e-10


def test_partial_trace_bound_values():
    assert abs(partial_trace_bound(2, 8.0) - 0.25) < 1e-15
    assert abs(partial_trace_bound(4, 4.0) - 0.5) < 1e-15
    assert abs(partial_trace_bound(4, 3.6) - 0.5 * math.sqrt(4 / 3.6)) < 1e-15
    with pytest.raises(ValueError):
        partial_trace_bound(2, 0.0)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_depolarizing_bound_matches_channel_entropy_bound(d):
    for lam in (0.0, 0.2, 0.5, 0.8, 1.0):
        closed_form = 0.5 * math.sqrt(lam * (2.0 - lam) / d + d * (1.0 - lam) ** 2)
        assert abs(closed_form - entropy_bound(depolarizing(d, lam))) < 1e-10


def test_levy_tail_bound_limits():
    assert abs(levy_tail_bound(10, 1e-12, 1.0) - 2.0) < 1e-6
    big = [levy_tail_bound(d, 0.3, 1.0) for d in (10, 100, 1000, 10**6)]
    assert all(a > b for a, b in zip(big, big[1:]))
    assert levy_tail_bound(70, 0.5, 0.0) == 0.0


def test_levy_tail_bound_is_loose_at_small_dimension():
    value = levy_tail_bound(70, 0.5, 1.0)
    expected = 2.0 * math.exp(-LEVY_CONSTANT * 70 * 0.25 / 4.0)
    assert abs(value - expected) < 1e-15
    assert abs(value - 1.938) < 1e-3  # still above 1, i.e. vacuous here


# -- full experiment --


def test_run_experiment_constant_channel():
    cfg = ExperimentConfig(channel=depolarizing(4, 1.0), samples=50, master_seed=3,
                           epsilon_grid=(0.1, 0.5))
    report = run_experiment(cfg)
    assert report.mean_distance < 1e-12
    assert all(fraction == 0.0 for _, fraction, _ in report.tail_table)


def test_run_experiment_report_contents():
    sub = enumerate_basis(4, 2)
    ch = restrict_channel(partial_trace_channel(4, 4), sub)
    cfg = ExperimentConfig(channel=ch, samples=200, master_seed=4,
                           epsilon_grid=(0.05, 0.2),
                           d_e_eff=effective_environment_dimension(sub, (2, 2)))
    report = run_experiment(cfg)
    assert report.d_r == 6 and report.d_s == 4
    assert 0.0 <= report.mean_distance <= report.max_distance <= 1.0
    assert report.mean_distance <= report.entropy_bound \
        + 3 * report.std_distance / math.sqrt(cfg.samples)
    assert abs(report.entropy_bound - report.partial_trace_bound) < 1e-10
    assert report.eta_used == 1.0 and not report.tail_diagnostic_only
    for eps, fraction, bound in report.tail_table:
        assert 0.0 <= fraction <= 1.0
        assert fraction <= bound <= 1.0


def _report(samples: int, mean: float, std: float, bound: float) -> TypicalityReport:
    return TypicalityReport(d_r=6, d_s=4, samples=samples, master_seed=0, mean_distance=mean,
                            std_distance=std, max_distance=mean, entropy_bound=bound,
                            linear_entropy=0.5, eta_mode="fixed_one", eta_used=1.0)


def test_report_gate_refuses_a_mean_past_bound_and_slack():
    # slack 3 * 0.1 / sqrt(2) = 0.212: the bound 0.2 allows means up to 0.412
    assert _report(2, 0.41, 0.1, 0.2).samples == 2
    with pytest.raises(ConsistencyError, match="entropy bound"):
        _report(2, 0.42, 0.1, 0.2)


def test_report_range_check_is_a_consistency_failure():
    # a trace distance above 1 is no statistic of distances: exit 4 in the CLI
    with pytest.raises(ConsistencyError, match="violate"):
        _report(2, 1.5, 0.0, 2.0)


def test_report_mean_may_pass_its_max_by_rounding_only():
    # np.mean of equal distances can round one ulp above them; 1e-9 above is no rounding
    top = 1 - 1 / 7
    assert _report(13, top, 0.0, 1.0).mean_distance == top
    report = dataclasses.replace(_report(13, top, 0.0, 1.0), mean_distance=np.nextafter(top, 1))
    assert report.mean_distance > report.max_distance
    with pytest.raises(ConsistencyError, match="violate"):
        dataclasses.replace(report, mean_distance=top + 1e-9)


def test_one_sample_run_above_the_mean_bound_is_a_report():
    # one draw is not a mean: this one lies above the bound on the mean, which the
    # gate refused when it compared a single sample with zero slack
    cfg = ExperimentConfig(channel=DetectorChannel(8, 2, 2), samples=1, master_seed=33)
    report = run_experiment(cfg)
    assert report.std_distance == 0.0
    assert report.mean_distance > report.entropy_bound


def test_run_experiment_evaluates_entropy_once(monkeypatch):
    ch = restrict_channel(bns_channel(4, 2), enumerate_basis(4, 2))
    cfg = ExperimentConfig(channel=ch, samples=20, master_seed=10)
    calls = []
    original = QuantumChannel.choi_purity_routes

    def counting(self):
        calls.append(self)
        return original(self)

    # the linear entropy and the bound both come from one evaluation of the purity routes
    monkeypatch.setattr(QuantumChannel, "choi_purity_routes", counting)
    report = run_experiment(cfg)
    assert len(calls) == 1
    assert report.entropy_bound == entropy_bound(ch)


@pytest.mark.parametrize("n,np_exc,split", [(40, 20, 8), (100, 50, 8)])
def test_entropy_bound_comes_from_the_purity_not_from_one_minus_entropy(n, np_exc, split):
    # purities 3.8e-10 and 5.1e-28: 1 - S_L keeps about 7 digits of the first and
    # cancels the second to 0
    ch = RestrictedPartialTrace(n, np_exc, split)
    purity = _marginal_square_sum(np_exc, split, n - split) / comb(n, np_exc) ** 2
    expected = 0.5 * math.sqrt(2**split * purity)
    assert expected > 0.0
    assert abs(entropy_bound(ch) - expected) <= 1e-15 * expected


def test_run_experiment_estimated_eta_is_flagged():
    ch = restrict_channel(bns_channel(4, 2), enumerate_basis(4, 2))
    cfg = ExperimentConfig(channel=ch, samples=50, master_seed=5,
                           epsilon_grid=(0.2,), eta_mode="estimated", eta_trials=2)
    report = run_experiment(cfg)
    assert report.tail_diagnostic_only
    assert 0.0 <= report.eta_used <= 1.0


def test_smaller_blocks_discard_more_and_concentrate_harder():
    means = {}
    for k in (2, 4):
        ch = restrict_channel(bns_channel(8, k), enumerate_basis(8, 4))
        cfg = ExperimentConfig(channel=ch, samples=300, master_seed=6)
        means[k] = float(np.mean(sample_distances(cfg)))
    assert means[2] <= means[4]


def test_report_json_roundtrip(tmp_path):
    cfg = ExperimentConfig(channel=identity_channel(3), samples=20, master_seed=7,
                           epsilon_grid=(0.5,))
    report = run_experiment(cfg)
    path = tmp_path / "report.json"
    report.save(path)
    data = json.loads(path.read_text())
    # every field but the sampled distances, which the report carries unserialized
    assert sorted(data) == sorted(f.name for f in dataclasses.fields(TypicalityReport)
                                  if f.name != "distances")
    assert np.array_equal(report.distances, sample_distances(cfg))
    # the shared mapping the workers write into, read-only and not copied
    assert isinstance(report.distances.base.obj, mmap.mmap)
    assert report.distances.dtype == np.float64 and not report.distances.flags.writeable
    assert data["d_r"] == 3
    assert data["mean_distance"] == report.mean_distance
    assert data["tail_table"][0]["epsilon"] == 0.5


def test_config_validation():
    ch = identity_channel(2)
    with pytest.raises(ValueError):
        ExperimentConfig(channel=ch, samples=0, master_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(channel=ch, samples=1, master_seed=0, epsilon_grid=(0.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(channel=ch, samples=1, master_seed=0, epsilon_grid=(1.5,))
    with pytest.raises(ValueError):
        ExperimentConfig(channel=ch, samples=1, master_seed=0, eta_mode="guess")
