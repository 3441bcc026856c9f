import json
import math

import numpy as np
import pytest

from qtypical.bns import bns_channel
from qtypical.channels import (
    QuantumChannel,
    depolarizing,
    identity_channel,
    partial_trace_channel,
)
from qtypical.qcore import DimensionError, derive_seed, haar_sample, trace_distance
from qtypical.restriction import (
    RestrictedPartialTrace,
    effective_environment_dimension,
    enumerate_basis,
    restrict_channel,
)
from qtypical.typicality import (
    LEVY_CONSTANT,
    SAMPLE_CHUNK,
    ExperimentConfig,
    canonical_state,
    depolarizing_bound,
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


@pytest.mark.parametrize("samples", [1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1])
def test_sample_distances_match_per_sample_oracle(samples):
    ch = restrict_channel(bns_channel(4, 2), enumerate_basis(4, 2))
    cfg = ExperimentConfig(channel=ch, samples=samples, master_seed=21)
    omega = canonical_state(ch)
    expected = [
        trace_distance(ch.apply_pure(haar_sample(ch.dim_in, derive_seed(21, i)).amplitudes),
                       omega)
        for i in range(samples)
    ]
    got = sample_distances(cfg)
    assert len(got) == samples
    assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-14


def test_sample_distances_refuses_oversized_chunk_before_sampling(monkeypatch):
    # 256 states of C(20, 10) = 184756 amplitudes: a 757 MB block
    import qtypical.typicality as typicality

    draws = []
    monkeypatch.setattr(typicality, "haar_sample", lambda dim, seed: draws.append(seed))
    cfg = ExperimentConfig(channel=RestrictedPartialTrace(20, 10, 2), samples=300,
                           master_seed=1)
    with pytest.raises(DimensionError, match="MiB"):
        sample_distances(cfg)
    assert draws == []


def test_sample_distances_refuses_oversized_outputs_before_any_work(monkeypatch,
                                                                   small_dense_budget):
    # 11 states of dimension 20 take 3.5 KB, their 20 x 20 outputs 70.4 KB
    import qtypical.typicality as typicality

    draws, canonical = [], []
    monkeypatch.setattr(typicality, "haar_sample", lambda dim, seed: draws.append(seed))
    monkeypatch.setattr(typicality, "canonical_state", canonical.append)
    cfg = ExperimentConfig(channel=identity_channel(20), samples=11, master_seed=1)
    with pytest.raises(DimensionError, match="11 outputs of dimension 20"):
        sample_distances(cfg)
    assert draws == [] and canonical == []


def test_restricted_partial_trace_experiment_matches_dense_oracle():
    dense = restrict_channel(partial_trace_channel(8, 32), enumerate_basis(8, 4))
    configs = [ExperimentConfig(channel=c, samples=300, master_seed=13,
                                epsilon_grid=(0.05,), eta_mode="estimated", eta_trials=2)
               for c in (RestrictedPartialTrace(8, 4, 3), dense)]
    got, expected = (sample_distances(cfg) for cfg in configs)
    assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-15
    got, expected = (run_experiment(cfg).to_json_dict() for cfg in configs)
    for key in ("mean_distance", "std_distance", "max_distance", "entropy_bound",
                "linear_entropy", "eta_used"):
        assert abs(got[key] - expected[key]) < 1e-12, key


def test_distances_deterministic_and_thread_independent(monkeypatch):
    ch = restrict_channel(bns_channel(4, 2), enumerate_basis(4, 2))
    cfg = ExperimentConfig(channel=ch, samples=64, master_seed=9)
    monkeypatch.setenv("QTYPICAL_THREADS", "1")
    base = sample_distances(cfg)
    assert base == sample_distances(cfg)
    for threads in ("4", "8"):
        monkeypatch.setenv("QTYPICAL_THREADS", threads)
        assert sample_distances(cfg) == base


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


def test_depolarizing_bound_examples():
    assert abs(depolarizing_bound(4, 0.0) - 1.0) < 1e-15
    assert abs(depolarizing_bound(4, 1.0) - 0.25) < 1e-15
    assert abs(depolarizing_bound(2, 0.5) - 0.5 * math.sqrt(0.875)) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_depolarizing_bound_matches_channel_entropy_bound(d):
    for lam in (0.0, 0.2, 0.5, 0.8, 1.0):
        assert abs(depolarizing_bound(d, lam)
                   - entropy_bound(depolarizing(d, lam))) < 1e-10


@pytest.mark.parametrize("d", [2, 4, 16])
def test_depolarizing_bound_strictly_decreasing_in_lambda(d):
    grid = np.linspace(0.0, 1.0, 21)
    values = [depolarizing_bound(d, lam) for lam in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


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


def test_run_experiment_reuses_given_distances():
    ch = restrict_channel(bns_channel(4, 2), enumerate_basis(4, 2))
    cfg = ExperimentConfig(channel=ch, samples=40, master_seed=8, epsilon_grid=(0.1,))
    distances = sample_distances(cfg)
    assert run_experiment(cfg, distances).to_json_dict() \
        == run_experiment(cfg).to_json_dict()
    with pytest.raises(ValueError):
        run_experiment(cfg, distances[:-1])


def test_run_experiment_evaluates_entropy_once(monkeypatch):
    ch = restrict_channel(bns_channel(4, 2), enumerate_basis(4, 2))
    cfg = ExperimentConfig(channel=ch, samples=20, master_seed=10)
    calls = []
    original = QuantumChannel.linear_entropy

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(QuantumChannel, "linear_entropy", counting)
    report = run_experiment(cfg)
    assert len(calls) == 1
    assert report.entropy_bound == entropy_bound(ch)


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
