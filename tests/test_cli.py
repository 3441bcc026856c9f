import csv
import json
import time
from math import comb

import numpy as np
import pytest

from qtypical.bns import DetectorChannel, bns_channel
from qtypical.cli import UsageError, build_channel, main
from qtypical.channels import (
    channels_equal,
    depolarizing,
    identity_channel,
    load_channel,
    partial_trace_channel,
    save_channel,
)
from qtypical.restriction import enumerate_basis, restrict_channel


def run(argv):
    return main([str(a) for a in argv])


# -- channel spec handling --


def test_build_channel_builtins():
    ch, info = build_channel({"type": "identity", "d": 3})
    assert channels_equal(ch, identity_channel(3))
    ch, info = build_channel({"type": "depolarizing", "d": 2, "lambda": 0.5})
    assert channels_equal(ch, depolarizing(2, 0.5))
    ch, info = build_channel({"type": "partial_trace", "dS": 2, "dE": 4})
    assert ch.dim_in == 8 and ch.dim_out == 2 and info["d_e_eff"] == 4.0
    ch, info = build_channel({"type": "bns", "N": 4, "k": 2, "Np": 2})
    assert isinstance(ch, DetectorChannel)
    assert ch.dim_in == 6 and ch.dim_out == 4
    ch, info = build_channel({"type": "bns", "N": 4, "k": 2})
    assert ch.dim_in == 16 and ch.dim_out == 4
    ch, info = build_channel(
        {"type": "partial_trace", "N": 4, "Np": 2, "split": 2})
    assert ch.dim_in == 6 and abs(info["d_e_eff"] - 3.6) < 1e-12
    ch, info = build_channel({"type": "unitary_trace", "dS": 2, "dE": 2, "seed": 1})
    assert ch.dim_in == 4 and ch.dim_out == 2 and info["d_e_eff"] == 2.0


def test_build_channel_errors():
    with pytest.raises(UsageError):
        build_channel({"type": "warp", "d": 2})
    with pytest.raises(UsageError):
        build_channel({"type": "depolarizing", "d": 2})  # missing lambda
    with pytest.raises(UsageError):
        build_channel({"type": "depolarizing", "d": 2, "lambda": 5.0})
    with pytest.raises(UsageError):
        build_channel("identity")


# -- entropy command --


def test_entropy_full_depolarizing(tmp_path, capsys):
    out = tmp_path / "e.json"
    code = run(["entropy", "--channel", "depolarizing", "--d", 2,
                "--lambda", 1, "--out", out])
    assert code == 0
    data = json.loads(out.read_text())
    assert abs(data["linear_entropy"] - 0.75) < 1e-12
    assert data["purity_route_difference"] < 1e-10
    assert (tmp_path / "e.json.manifest.json").exists()


def test_entropy_identity(tmp_path):
    out = tmp_path / "e.json"
    assert run(["entropy", "--channel", "identity", "--d", 8, "--out", out]) == 0
    assert json.loads(out.read_text())["linear_entropy"] == 0.0


def test_entropy_restricted_detector_two_routes_agree(tmp_path):
    out = tmp_path / "e.json"
    code = run(["entropy", "--channel", "bns", "--N", 4, "--k", 2, "--Np", 2,
                "--out", out])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["purity_route_difference"] < 1e-10
    assert data["dim_in"] == 6


def test_entropy_restricted_detector_beyond_the_dense_choi_matrix(tmp_path):
    # the dense route needed a 992 MiB Choi matrix here and exited 3
    out = tmp_path / "e.json"
    assert run(["entropy", "--channel", "bns", "--N", 10, "--k", 5, "--Np", 5,
                "--out", out]) == 0
    data = json.loads(out.read_text())
    assert (data["dim_in"], data["dim_out"]) == (252, 32)
    assert data["choi_purity"] == 0.007432602670697909
    assert data["purity_route_difference"] == 0.0


def test_restricted_detector_saves_a_kraus_family_of_the_same_channel(tmp_path):
    saved = tmp_path / "bns.channel.json"
    assert run(["entropy", "--channel", "bns", "--N", 6, "--k", 3, "--Np", 2,
                "--out", tmp_path / "e.json", "--save-channel", saved]) == 0
    dense = restrict_channel(bns_channel(6, 3), enumerate_basis(6, 2))
    assert channels_equal(load_channel(saved), dense)


def test_entropy_usage_error_exit_code(tmp_path):
    assert run(["entropy", "--channel", "depolarizing", "--d", 2,
                "--out", tmp_path / "x.json"]) == 2


@pytest.mark.parametrize("split", [6, -1])
def test_entropy_rejects_split_outside_sites(tmp_path, capsys, split):
    assert run(["entropy", "--channel", "partial-trace", "--N", 4, "--Np", 2,
                "--split", split, "--out", tmp_path / "x.json"]) == 2
    assert "split" in capsys.readouterr().err


def test_entropy_restricted_partial_trace_at_twelve_sites(tmp_path):
    out = tmp_path / "e.json"
    assert run(["entropy", "--channel", "partial-trace", "--N", 12, "--Np", 6,
                "--split", 6, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert (data["dim_in"], data["dim_out"]) == (924, 64)
    assert data["purity_route_difference"] == 0.0


def test_restricted_partial_trace_saves_the_dense_kraus_family(tmp_path):
    saved = tmp_path / "cli.channel.json"
    assert run(["entropy", "--channel", "partial-trace", "--N", 5, "--Np", 2,
                "--split", 2, "--out", tmp_path / "e.json", "--save-channel", saved]) == 0
    dense = restrict_channel(partial_trace_channel(4, 8), enumerate_basis(5, 2))
    save_channel(dense, tmp_path / "dense.channel.json")
    assert saved.read_bytes() == (tmp_path / "dense.channel.json").read_bytes()


def test_entropy_bad_channel_file_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim_in": 2, "dim_out": 2,
        "kraus": [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]}))
    assert run(["entropy", "--channel-file", bad, "--out", tmp_path / "x.json"]) == 3


# -- figure-energy --


def test_figure_energy_small_case(tmp_path):
    out = tmp_path / "energy.csv"
    assert run(["figure-energy", "--N", 4, "--Np", 2, "--k", 2, "--out", out]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    table = {int(r["m"]): (float(r["p_trace"]), float(r["p_bns"])) for r in rows}
    assert table[0] == (pytest.approx(1 / 6), 0.0)
    assert table[1] == (pytest.approx(4 / 6), pytest.approx(1 / 3))
    assert table[2] == (pytest.approx(1 / 6), pytest.approx(2 / 3))
    total_trace = sum(v[0] for v in table.values())
    total_bns = sum(v[1] for v in table.values())
    assert abs(total_trace - 1.0) < 1e-12 and abs(total_bns - 1.0) < 1e-12
    assert (tmp_path / "energy_trace_exact.csv").exists()
    assert (tmp_path / "energy_bns_exact.csv").exists()
    assert (tmp_path / "energy_plot.py").exists()


def test_figure_energy_rejects_bad_blocking(tmp_path):
    assert run(["figure-energy", "--N", 4, "--Np", 2, "--k", 3,
                "--out", tmp_path / "x.csv"]) == 2
    assert run(["figure-energy", "--N", 30000, "--Np", 2, "--k", 3,
                "--out", tmp_path / "x.csv"]) == 2


# -- figure-bound --


def test_figure_bound_rows_and_bound_property(tmp_path):
    out = tmp_path / "bound.csv"
    assert run(["figure-bound", "--N", 6, "--k", 2, "--samples", 60,
                "--seed", 5, "--out", out]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(r["Np"]) for r in rows] == [1, 2, 3, 4, 5]
    for r in rows:
        slack = 3 * float(r["std_distance"]) / np.sqrt(60)
        assert float(r["mean_distance"]) <= float(r["entropy_bound"]) + slack


def test_figure_bound_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["figure-bound", "--N", 4, "--k", 2, "--samples", 40, "--seed", 9,
         "--out", a])
    run(["figure-bound", "--N", 4, "--k", 2, "--samples", 40, "--seed", 9,
         "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_figure_bound_refuses_oversized_channel_quickly(tmp_path):
    # N=11, k=11: the 64 MiB canonical state fits, but 10 detector outputs of
    # 2^11 x 2^11 need 640 MiB; the size check runs before the first sample
    out = tmp_path / "bound.csv"
    started = time.perf_counter()
    assert run(["figure-bound", "--N", 11, "--k", 11, "--samples", 10,
                "--out", out]) == 3
    assert time.perf_counter() - started < 5.0
    assert not out.exists()


def test_figure_bound_runs_twelve_sites_without_the_dense_channel(tmp_path):
    # the dense N=12, k=4 channel would need a 3.9 GB Kraus array
    out = tmp_path / "bound.csv"
    assert run(["figure-bound", "--N", 12, "--k", 4, "--samples", 50,
                "--out", out]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(r["d_R"]) for r in rows] == [comb(12, m) for m in range(1, 12)]
    for r in rows:
        slack = 3 * float(r["std_distance"]) / np.sqrt(50)
        assert float(r["mean_distance"]) <= float(r["entropy_bound"]) + slack


def test_figure_bound_above_twelve_sites_is_a_size_refusal(tmp_path):
    # N=13, k=13 needs a 1 GiB canonical state: refused by the budget with exit 3
    out = tmp_path / "bound.csv"
    started = time.perf_counter()
    assert run(["figure-bound", "--N", 13, "--k", 13, "--samples", 10,
                "--out", out]) == 3
    assert time.perf_counter() - started < 5.0
    assert not out.exists()


# -- typicality --


def test_typicality_refuses_oversized_partial_trace_quickly(tmp_path):
    # N=22 split 11/11: 10 outputs of 2^11 x 2^11 need 640 MiB, refused before sampling
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "channel": {"type": "partial_trace", "N": 22, "Np": 11, "split": 11},
        "samples": 10, "master_seed": 1}))
    out = tmp_path / "r.json"
    started = time.perf_counter()
    assert run(["typicality", "--config", config, "--out", out]) == 3
    assert time.perf_counter() - started < 5.0
    assert not out.exists()


def test_typicality_restricted_partial_trace_at_fourteen_sites(tmp_path):
    # no dense Kraus array or Choi matrix: the 4 GiB full channel is never built
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "channel": {"type": "partial_trace", "N": 14, "Np": 7, "split": 7},
        "samples": 10, "master_seed": 1}))
    out = tmp_path / "r.json"
    started = time.perf_counter()
    assert run(["typicality", "--config", config, "--out", out]) == 0
    assert time.perf_counter() - started < 10.0
    data = json.loads(out.read_text())
    assert abs(data["entropy_bound"] - data["partial_trace_bound"]) < 1e-12


def test_typicality_restricted_partial_trace_at_twelve_sites(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "channel": {"type": "partial_trace", "N": 12, "Np": 6, "split": 6},
        "samples": 200, "master_seed": 4, "eta_mode": "estimated", "eta_trials": 1}))
    out = tmp_path / "r.json"
    assert run(["typicality", "--config", config, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert (data["d_r"], data["d_s"], data["samples"]) == (924, 64, 200)


def test_typicality_partial_trace_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "channel": {"type": "partial_trace", "dS": 2, "dE": 8},
        "samples": 150,
        "master_seed": 11,
        "epsilon_grid": [0.05, 0.1, 0.2],
    }))
    out = tmp_path / "report.json"
    dist_csv = tmp_path / "distances.csv"
    assert run(["typicality", "--config", config, "--out", out,
                "--distances-csv", dist_csv]) == 0
    data = json.loads(out.read_text())
    assert abs(data["entropy_bound"] - data["partial_trace_bound"]) < 1e-10
    assert abs(data["partial_trace_bound"] - 0.25) < 1e-12
    for row in data["tail_table"]:
        assert row["empirical_tail"] <= row["levy_bound"]
    rows = list(csv.DictReader(dist_csv.read_text().splitlines()))
    assert len(rows) == 150


def test_typicality_distances_csv_samples_once(tmp_path, monkeypatch):
    import qtypical.typicality as typicality

    draws = []
    original = typicality.haar_sample

    def counting(dim, seed):
        draws.append(seed)
        return original(dim, seed)

    monkeypatch.setattr(typicality, "haar_sample", counting)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "channel": {"type": "bns", "N": 4, "k": 2, "Np": 2},
        "samples": 300,
        "master_seed": 12,
        "epsilon_grid": [0.1],
        "eta_mode": "estimated",
        "eta_trials": 2,
    }))
    out = tmp_path / "report.json"
    dist_csv = tmp_path / "distances.csv"
    assert run(["typicality", "--config", config, "--out", out,
                "--distances-csv", dist_csv]) == 0
    assert len(draws) == 300
    rows = list(csv.DictReader(dist_csv.read_text().splitlines()))
    csv_mean = float(np.mean([float(r["distance"]) for r in rows]))
    assert csv_mean == json.loads(out.read_text())["mean_distance"]


def test_typicality_invalid_json_is_usage_error(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("{not json")
    assert run(["typicality", "--config", config, "--out", tmp_path / "r.json"]) == 2


def test_typicality_missing_fields_is_usage_error(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"channel": {"type": "identity", "d": 2}}))
    assert run(["typicality", "--config", config, "--out", tmp_path / "r.json"]) == 2


# -- lipschitz --


def test_lipschitz_identity(tmp_path):
    out = tmp_path / "lip.json"
    assert run(["lipschitz", "--channel", "identity", "--d", 4, "--trials", 2,
                "--seed", 0, "--out", out]) == 0
    assert json.loads(out.read_text())["estimate"] >= 1.0 - 1e-9


def test_lipschitz_refuses_oversized_identity_quickly(tmp_path):
    # a 20000 x 20000 identity is 6.4 GB
    started = time.perf_counter()
    assert run(["lipschitz", "--channel", "identity", "--d", 20000,
                "--out", tmp_path / "lip.json"]) == 3
    assert time.perf_counter() - started < 5.0


def test_lipschitz_constant_channel(tmp_path):
    out = tmp_path / "lip.json"
    assert run(["lipschitz", "--channel", "depolarizing", "--d", 3, "--lambda", 1,
                "--trials", 2, "--seed", 0, "--out", out]) == 0
    assert json.loads(out.read_text())["estimate"] < 1e-10


def test_lipschitz_saturated_detector(tmp_path):
    out = tmp_path / "lip.json"
    assert run(["lipschitz", "--channel", "bns", "--N", 8, "--k", 4, "--Np", 7,
                "--trials", 2, "--seed", 0, "--out", out]) == 0
    assert json.loads(out.read_text())["estimate"] < 1e-10


# -- manifests and replay --


def test_replay_reproduces_outputs_byte_identically(tmp_path):
    out = tmp_path / "bound.csv"
    run(["figure-bound", "--N", 4, "--k", 2, "--samples", 30, "--seed", 2,
         "--out", out])
    first = out.read_bytes()
    manifest = json.loads((tmp_path / "bound.csv.manifest.json").read_text())
    assert manifest["command"] == "figure-bound"
    assert manifest["artifact_version"]
    assert str(out) in manifest["outputs"]
    out.unlink()
    assert run(["replay", "--manifest", tmp_path / "bound.csv.manifest.json"]) == 0
    assert out.read_bytes() == first


def test_replay_missing_manifest_is_data_error(tmp_path):
    assert run(["replay", "--manifest", tmp_path / "nope.json"]) == 3


def test_channel_save_then_load_roundtrip(tmp_path):
    saved = tmp_path / "dep.channel.json"
    assert run(["entropy", "--channel", "depolarizing", "--d", 3, "--lambda", 0.4,
                "--out", tmp_path / "a.json", "--save-channel", saved]) == 0
    assert run(["entropy", "--channel-file", saved,
                "--out", tmp_path / "b.json"]) == 0
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    assert abs(a["linear_entropy"] - b["linear_entropy"]) < 1e-12


def test_route_disagreement_maps_to_exit_code_4(tmp_path, monkeypatch):
    from qtypical.channels import QuantumChannel

    monkeypatch.setattr(QuantumChannel, "choi_purity_routes",
                        lambda self: (0.5, 0.25))
    assert run(["entropy", "--channel", "identity", "--d", 2,
                "--out", tmp_path / "x.json"]) == 4


def test_every_command_writes_manifest_listing_real_outputs(tmp_path):
    out = tmp_path / "energy.csv"
    run(["figure-energy", "--N", 4, "--Np", 1, "--k", 2, "--out", out])
    manifest = json.loads((tmp_path / "energy.csv.manifest.json").read_text())
    import os
    for path in manifest["outputs"]:
        assert os.path.exists(path)
