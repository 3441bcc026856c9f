"""Smoke test of the benchmark's layer tracer against the package's current names.

bench/tracer.py patches package functions and methods by name; a rename in
the package would otherwise only surface as a failed traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import qtypical.bns as bns
import qtypical.channels as channels
import qtypical.cli as cli
import qtypical.restriction as restriction
import qtypical.typicality as typicality

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entropy_run_records_layers_and_restores_originals(tmp_path):
    tracer_mod = _load_tracer()
    originals = {
        "tensor": channels.tensor,
        "block_channel": bns.block_channel,
        "cli.bns_channel": cli.bns_channel,
        "init": channels.QuantumChannel.__dict__["__init__"],
        "routes": channels.QuantumChannel.__dict__["choi_purity_routes"],
    }
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        # the unrestricted detector is the dense tensor power
        code = cli.main(["entropy", "--channel", "bns", "--N", "4", "--k", "2",
                         "--out", str(tmp_path / "entropy.json")])
    assert code == 0
    calls, _, _ = tracer.totals()
    for name in ("bns.block_channel", "channels.tensor", "channels.choi_purity_routes"):
        assert calls[name] >= 1, name
    # one evaluation of the purity routes for the one channel the command reports on
    assert tracer.counters["purity_evals"] == tracer.counters["purity_channels"] == 1
    assert channels.tensor is originals["tensor"]
    assert bns.block_channel is originals["block_channel"]
    assert cli.bns_channel is originals["cli.bns_channel"]
    assert channels.QuantumChannel.__dict__["__init__"] is originals["init"]
    assert channels.QuantumChannel.__dict__["choi_purity_routes"] is originals["routes"]


def test_traced_restricted_detector_run_builds_no_dense_channel(tmp_path):
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        code = cli.main(["entropy", "--channel", "bns", "--N", "4", "--k", "2",
                         "--Np", "2", "--out", str(tmp_path / "entropy.json")])
    assert code == 0
    calls, _, _ = tracer.totals()
    assert calls["cli.build_channel"] == 1
    # the restricted detector is matrix-free: no dense channel is built or restricted
    assert calls["channels.QuantumChannel.init"] == 0
    assert calls["restriction.restrict_channel"] == 0


def test_traced_restricted_typicality_run_records_restriction_layers(tmp_path):
    tracer_mod = _load_tracer()
    names = ("enumerate_basis", "restrict_channel", "effective_environment_dimension")
    originals = {name: getattr(restriction, name) for name in names}
    original_sampler = typicality.sample_distances
    original_canonical = typicality.canonical_state
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "channel": {"type": "partial_trace", "N": 4, "Np": 2, "split": 2},
        "samples": 50, "master_seed": 3, "eta_mode": "estimated", "eta_trials": 1}))
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        code = cli.main(["typicality", "--config", str(config),
                         "--out", str(tmp_path / "report.json")])
    assert code == 0
    calls, _, _ = tracer.totals()
    for name in ("enumerate_basis", "effective_environment_dimension"):
        assert calls["restriction." + name] >= 1, name
    assert calls["typicality.sample_distances"] >= 1
    assert calls["typicality.canonical_state"] >= 1
    # the restricted partial trace is matrix-free: no dense channel is built or restricted
    assert calls["restriction.restrict_channel"] == 0
    assert calls["channels.QuantumChannel.init"] == 0
    for name in names:
        assert getattr(restriction, name) is originals[name]
    assert cli.effective_environment_dimension is originals["effective_environment_dimension"]
    assert typicality.sample_distances is original_sampler
    assert cli.sample_distances is original_sampler
    assert typicality.canonical_state is original_canonical
