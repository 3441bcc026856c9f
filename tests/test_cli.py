import csv
import functools
import hashlib
import io
import json
import math
import runpy
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from conftest import channels_equal
from qtypical import bns, cli, restriction, typicality
from qtypical.bns import DetectorChannel, bns_channel
from qtypical.cli import UsageError, build_channel, main
from qtypical.channels import (
    depolarizing,
    identity_channel,
    load_channel,
    partial_trace_channel,
    save_channel,
)
from qtypical.qcore import derive_seed
from qtypical.restriction import enumerate_basis, restrict_channel


def run(argv):
    return main([str(a) for a in argv])


# sha256 of `figure-bound --N 8 --k 2 --samples 300 --seed 3` as written by 0.18.0
FIGURE_BOUND_8_2_DIGEST = "edcc257f9f141ad7bd801ce10fdce979a72077a021935e80b2e501f52222145c"


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


@pytest.mark.parametrize("argv", [
    ["--channel", "partial-trace", "--N", 1100, "--Np", 2, "--split", 1030],
    ["--channel", "bns", "--N", 1030, "--k", 1030, "--Np", 2],
], ids=["partial-trace", "detector"])
def test_entropy_with_d_s_beyond_the_float_range(tmp_path, argv):
    # d_S = 2^1030 overflowed the float conversion of the bound (exit 1)
    out = tmp_path / "e.json"
    assert run(["entropy", *argv, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["dim_out"] == 2**1030
    assert payload["entropy_bound"] == math.ldexp(
        0.5 * math.sqrt(min(payload["choi_purity"], 1.0)), 515)


def test_entropy_bound_beyond_the_float_range_is_a_size_refusal(tmp_path, capsys):
    out = tmp_path / "e.json"
    assert run(["entropy", "--channel", "partial-trace", "--N", 15000, "--Np", 1,
                "--split", 15000, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and "entropy bound" in err and "2^7499" in err
    assert not out.exists()


def test_entropy_bad_channel_file_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim_in": 2, "dim_out": 2,
        "kraus": [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]}))
    assert run(["entropy", "--channel-file", bad, "--out", tmp_path / "x.json"]) == 3


@pytest.mark.parametrize("dim_in, dim_out", [(1.5, 1), (True, 1), (-1, -1), ("1", 1), (1, 0)],
                         ids=["fractional", "boolean", "negative", "string", "zero"])
def test_channel_file_dimensions_must_be_integers_of_at_least_one(tmp_path, capsys, dim_in,
                                                                  dim_out):
    # 1.5 and true ran as the 1 x 1 identity; -1 x -1 reached reshape and exited 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim_in": dim_in, "dim_out": dim_out, "kraus": [[[1.0, 0.0]]]}))
    out = tmp_path / "x.json"
    assert run(["entropy", "--channel-file", bad, "--out", out]) == 3
    assert "malformed channel object" in capsys.readouterr().err
    assert not out.exists()


# a JSON integer of 5000 digits: json.load raises a plain ValueError on Python 3.11+,
# which no reader caught (exit 1, or exit 2 "bad channel spec" for a channel file)
BEYOND_DIGIT_LIMIT = "9" * 5000


def _config_beyond_digit_limit(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"channel": {"type": "identity", "d": 2}, "master_seed": 1, '
                    f'"samples": {BEYOND_DIGIT_LIMIT}}}')
    return ["typicality", "--config", path, "--out", tmp_path / "r.json"]


def _manifest_beyond_digit_limit(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "command": "entropy", "master_seed": None, "artifact_version": "0", "outputs": [],
        "duration_seconds": 0.0, "parameters": {"channel": {"type": "identity", "d": "D"},
                                                "out": str(tmp_path / "e.json")},
    }).replace('"D"', BEYOND_DIGIT_LIMIT))
    return ["replay", "--manifest", path]


def _channel_file_beyond_digit_limit(tmp_path):
    path = tmp_path / "ch.json"
    path.write_text(f'{{"dim_in": {BEYOND_DIGIT_LIMIT}, "dim_out": 1, "kraus": [[[1.0, 0.0]]]}}')
    return ["entropy", "--channel-file", path, "--out", tmp_path / "e.json"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="integers of any length are read before Python 3.11")
@pytest.mark.parametrize("argv, code", [
    (_config_beyond_digit_limit, 2),
    (_manifest_beyond_digit_limit, 3),
    (_channel_file_beyond_digit_limit, 3),
], ids=["typicality-config", "replayed-manifest", "channel-file"])
def test_json_integer_past_the_digit_limit_is_refused(tmp_path, capsys, argv, code):
    written = tmp_path / "in"
    written.mkdir()
    assert run(argv(written)) == code
    assert capsys.readouterr().err.startswith({2: "usage error", 3: "data error"}[code])
    assert len(list(written.iterdir())) == 1  # the input file alone


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


def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch):
    import qtypical.cli as cli

    real, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(["figure-energy", "--N", 4, "--Np", 2, "--k", 2,
                        "--out", tmp_path / "energy.csv"]) == 0
        assert run(["entropy", "--channel", "depolarizing", "--d", 2,
                    "--out", tmp_path / "x.json"]) == 2
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


@pytest.mark.parametrize("spec,expected", [
    ((12, 5, 4), ("e810929ba764bd7d82fd70b75026bdf3f6fffb68cc5c23ad9feab24bac82cbb8",
                  "d34e78f5efede95af0ad40651dd62c2b5de117da3b511aca48e57e84999e28fe",
                  "c249ae0ef1e5cfa271f9ae469cdfe0f445ef948a5670a3178d2ff28376f25d40")),
    ((8, 7, 4), ("fe072dca28d620f90c6a98c961f02b6559ed568b64586203169f350890be6ab2",
                 "f9bd4bbf6a79a5883dcd12fcb8001a201d88b15ee3672a32a11b46da61d233fa",
                 "c3c53012ed70d62158f8d905003287e305dd59aded8084f1a1a8f8ec2cd0636a")),
])
def test_figure_energy_small_spec_bytes(tmp_path, spec, expected):
    # the outputs as version 0.16.0 wrote them with Fraction arithmetic
    n, np_excited, k = spec
    out = tmp_path / "energy.csv"
    assert run(["figure-energy", "--N", n, "--Np", np_excited, "--k", k, "--out", out]) == 0
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("energy.csv", "energy_trace_exact.csv",
                              "energy_bns_exact.csv")) == expected


def test_figure_energy_paper_scale_bytes(tmp_path):
    # the exact N = 10000, Np = 200, k = 1000 outputs as version 0.10.0 wrote them
    out = tmp_path / "energy.csv"
    assert run(["figure-energy", "--N", 10000, "--Np", 200, "--k", 1000, "--out", out]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("energy.csv", "energy_trace_exact.csv", "energy_bns_exact.csv")}
    assert digests == {
        "energy.csv": "213afc3d364db0d3fab4729901a7334cb76f4d3b29d508bacedd98a50873f108",
        "energy_trace_exact.csv":
            "19771035eaf3d1104954d9cad997453718ca1c00002034e40c7c5b74c54ce385",
        "energy_bns_exact.csv":
            "5ccfeedd712aed1bd3b0c39673995cfb282033ce28d9fbd5bf6d992519ab3705",
    }


def test_figure_energy_writes_integers_of_any_size(tmp_path):
    # C(16000, 8000) has 4815 digits, past the interpreter's default limit of 4300 on
    # an int written as a string; the writer lifts it for its rows and restores it
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    before = limit()
    out = tmp_path / "e.csv"
    assert run(["figure-energy", "--N", 16000, "--Np", 8000, "--k", 2, "--out", out]) == 0
    assert limit() == before
    rows = [row.split(",") for row in (tmp_path / "e_bns_exact.csv").read_text().splitlines()]
    numerator, denominator = next(row[2:] for row in rows if row[0] == "2")
    total = comb(16000, 8000)
    expected = Fraction(total - 2, total)
    if before:
        sys.set_int_max_str_digits(0)
    try:
        assert (int(numerator), int(denominator)) == (expected.numerator, expected.denominator)
    finally:
        if before:
            sys.set_int_max_str_digits(before)


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


def test_figure_bound_at_k_equal_n_is_an_isometry(tmp_path):
    # one site a block: every distance is 1 - 1/d_R, and the mean of these equal
    # values, rounded one ulp above their max, no longer fails the range check (exit 4)
    out = tmp_path / "bound.csv"
    assert run(["figure-bound", "--N", 6, "--k", 6, "--samples", 3, "--out", out]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(r["Np"]) for r in rows] == [1, 2, 3, 4, 5]
    for r in rows:
        assert abs(float(r["mean_distance"]) - (1 - 1 / comb(6, int(r["Np"])))) <= 1e-12
        assert float(r["std_distance"]) <= 1e-12


def test_typicality_of_an_isometry_passes_the_range_check(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"channel": {"type": "identity", "d": 7}, "samples": 13,
                                  "master_seed": 1}))
    out = tmp_path / "r.json"
    assert run(["typicality", "--config", config, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["max_distance"] < report["mean_distance"] <= report["max_distance"] + 1e-12


def test_figure_bound_bytes(tmp_path):
    # the rows are run_experiment reports with the bytes of the 0.18.0 sweep
    out = tmp_path / "bound.csv"
    assert run(["figure-bound", "--N", 8, "--k", 2, "--samples", 300, "--seed", 3,
                "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_BOUND_8_2_DIGEST


def test_figure_bound_keeps_one_plan_alive(tmp_path):
    # each Np's channel, and so its grouping plan, is dropped after its row: the
    # traced peak is 3.7 MiB, and 9.0 MiB when every plan is kept to the end
    tracemalloc.start()
    try:
        assert run(["figure-bound", "--N", 16, "--k", 4, "--samples", 2,
                    "--out", tmp_path / "bound.csv"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_figure_bound_rows_pass_the_report_gate(tmp_path, capsys, monkeypatch):
    # a purity of 1e-30 puts the entropy bound at 1e-15, far below every mean: each
    # row is a TypicalityReport, so its 3 sigma gate refuses the sweep
    monkeypatch.setattr(DetectorChannel, "choi_purity_routes", lambda self: (1e-30, 1e-30))
    out = tmp_path / "bound.csv"
    assert run(["figure-bound", "--N", 6, "--k", 2, "--samples", 50, "--out", out]) == 4
    assert "entropy bound" in capsys.readouterr().err
    assert not out.exists()


def test_figure_bound_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["figure-bound", "--N", 4, "--k", 2, "--samples", 40, "--seed", 9,
         "--out", a])
    run(["figure-bound", "--N", 4, "--k", 2, "--samples", 40, "--seed", 9,
         "--out", b])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("runs, plot_names", [
    ([["figure-bound", "--N", 4, "--k", k, "--samples", 20, "--out", f"bound_k{k}.csv"]
      for k in (2, 4)], ["bound_k2_plot.py", "bound_k4_plot.py"]),
    ([["figure-energy", "--N", 10000, "--Np", 200, "--k", 1000, "--out", "energy.csv"]],
     ["energy_plot.py"]),
], ids=["figure-bound", "figure-energy"])
def test_figure_commands_emit_compilable_plot_scripts(runs, plot_names, tmp_path, monkeypatch):
    # matplotlib is optional, so the companion plot scripts are compiled, not run
    monkeypatch.chdir(tmp_path)
    assert [run(argv) for argv in runs] == [0] * len(runs)
    plots = sorted(tmp_path.glob("*_plot.py"))
    assert [p.name for p in plots] == plot_names
    for plot in plots:
        compile(plot.read_text(), str(plot), "exec")
        assert b"\r" not in plot.read_bytes()


def test_figure_bound_refuses_oversized_channel_quickly(tmp_path):
    # N=14, k=14: the grouping plan over the 2^14 x 2^14 output entries needs 6 GiB and
    # one output 4 GiB, so no chunk fits; the size check runs before the first sample
    out = tmp_path / "bound.csv"
    started = time.perf_counter()
    assert run(["figure-bound", "--N", 14, "--k", 14, "--samples", 10,
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


def test_figure_bound_above_twelve_sites_is_a_size_refusal(tmp_path, capsys):
    # N=13, k=13: the grouping plan over the 2^13 x 2^13 output entries needs 1536 MiB,
    # refused by the budget with exit 3 when the first sample's bytes are checked
    out = tmp_path / "bound.csv"
    started = time.perf_counter()
    assert run(["figure-bound", "--N", 13, "--k", 13, "--samples", 10,
                "--out", out]) == 3
    assert time.perf_counter() - started < 5.0
    assert "grouping plan" in capsys.readouterr().err
    assert not out.exists()


def test_figure_bound_refusal_beyond_the_float_range_names_its_bytes(tmp_path, capsys):
    # C(1100, 550) states: formatting the refusal's byte count overflowed a float (exit 1)
    out = tmp_path / "bound.csv"
    assert run(["figure-bound", "--N", 1100, "--k", 1100, "--samples", 1, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and err.endswith(" MiB (limit 512 MiB)\n")
    assert list(tmp_path.iterdir()) == []


# C(1100, 550) = 10^329 states kept by one system qubit: d_E_eff = C(1100, 550) is past
# the float range, and dividing it out raised an OverflowError (exit 1) in all three
@pytest.mark.parametrize("argv, code, stdout", [
    (["entropy", "--channel", "partial-trace", "--N", 1100, "--Np", 550, "--split", 1], 0,
     "mean-distance bound  : 0\n"),
    (["lipschitz", "--channel", "partial-trace", "--N", 1100, "--Np", 550, "--split", 1], 0,
     "Lipschitz constant   : 1\n"),
    (["typicality", "--config", {"channel": {"type": "partial-trace", "N": 1100, "Np": 550,
                                             "split": 1}, "samples": 10, "master_seed": 1}],
     3, ""),
], ids=["entropy", "lipschitz", "typicality"])
def test_partial_trace_past_the_float_range_of_d_e_eff(tmp_path, capsys, argv, code, stdout):
    if isinstance(argv[-1], dict):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [config]
    assert run(argv + ["--out", tmp_path / "out.json"]) == code
    out, err = capsys.readouterr()
    assert stdout in out and "Traceback" not in err
    if code == 3:  # refused at its sample size before any report
        assert err.startswith("data error: one sampled state of dimension 2^1094.6")
        assert not (tmp_path / "out.json").exists()


# each ran and ignored the named keys: a spec key its family does not read, family flags
# next to a channel file (which the spec dropped), a seed outside unitary-trace, and typos
# in a typicality config; --channel next to --channel-file is refused before any spec
@pytest.mark.parametrize("argv, named", [
    (["entropy", "--channel", "identity", "--d", 4, "--Np", 2], ["'Np'"]),
    (["entropy", "--channel", "identity", "--d", 2, "--unitary-seed", 5], ["'seed'"]),
    (["entropy", "--channel", "bns", "--N", 4, "--k", 2, "--split", 1], ["'split'"]),
    (["entropy", "--channel", "depolarizing", "--d", 3, "--lambda", 0.2, "--dE", 7], ["'dE'"]),
    (["entropy", "--channel", "partial-trace", "--dS", 2, "--dE", 2, "--Np", 1], ["'Np'"]),
    (["entropy", "--channel-file", "CHANNEL", "--d", 3, "--unitary-seed", 3],
     ["type 'file'", "'d'", "'seed'"]),
    (["entropy", "--channel-file", "CHANNEL", "--channel", "identity", "--d", 3],
     ["--channel NAME", "--channel-file PATH"]),
    (["typicality", "--config", {"channel": {"type": "identity", "d": 2}, "samples": 3,
                                 "master_seed": 1, "eta_mod": "estimated",
                                 "epsilon_gird": [0.1]}], ["'epsilon_gird'", "'eta_mod'"]),
    (["typicality", "--config", {"channel": {"type": "partial-trace", "N": 4, "Np": 2,
                                             "split": 1, "dS": 2}, "samples": 3,
                                 "master_seed": 1}], ["'dS'"]),
    (["typicality", "--config", {"channel": {"type": "depolarizing", "d": 2, "lambda": 0.5,
                                             "seed": 1}, "samples": 3, "master_seed": 1}],
     ["'seed'"]),
], ids=["identity-Np", "identity-unitary-seed", "bns-split", "depolarizing-dE",
        "dense-partial-trace-Np", "channel-file-with-family-flags", "channel-file-with-channel",
        "config-typos", "config-spec-key", "config-spec-seed"])
def test_a_key_that_nothing_reads_is_a_usage_error(tmp_path, capsys, argv, named):
    save_channel(identity_channel(3), tmp_path / "c.json")
    if isinstance(argv[-1], dict):
        (tmp_path / "cfg.json").write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [tmp_path / "cfg.json"]
    argv = [tmp_path / "c.json" if a == "CHANNEL" else a for a in argv]
    out = tmp_path / "out.json"
    assert run(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error") and captured.out == ""
    assert all(key in captured.err for key in named), captured.err
    assert not out.exists() and not (tmp_path / "out.json.manifest.json").exists()


def test_seed_is_read_by_unitary_trace_alone(tmp_path):
    # every family read seed until 0.30.0, and only unitary-trace used it
    save_channel(identity_channel(2), tmp_path / "c.json")
    for spec in ({"type": "identity", "d": 2, "seed": 5},
                 {"type": "bns", "N": 4, "k": 2, "Np": 2, "seed": 0},
                 {"type": "partial_trace", "dS": 2, "dE": 2, "seed": 0},
                 {"type": "file", "path": str(tmp_path / "c.json"), "seed": 5}):
        with pytest.raises(UsageError, match="does not read 'seed'"):
            build_channel(spec)
    spec = {"type": "unitary_trace", "dS": 2, "dE": 2}
    assert channels_equal(build_channel(spec)[0], build_channel({**spec, "seed": 0})[0])
    assert not channels_equal(build_channel(spec)[0], build_channel({**spec, "seed": 3})[0])


def test_figure_bound_refusal_of_a_count_past_the_digit_limit(tmp_path, capsys):
    # 2^7200 outputs: the refusal's whole-MiB count has over 4300 digits, which Python
    # 3.11 refuses to print (exit 1); counts from 2^53 up are written 2^x
    out = tmp_path / "bound.csv"
    assert run(["figure-bound", "--N", 7200, "--k", 7200, "--samples", 1, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and "output of dimension 2^7200.0" in err
    assert err.endswith(" needs 2^14384.0 MiB (limit 512 MiB)\n")
    assert list(tmp_path.iterdir()) == []


# -- typicality --


def test_typicality_refuses_oversized_partial_trace_quickly(tmp_path):
    # N=30 split 15/15: the C(30, 15) basis indices alone need 1.24 GB, refused before sampling
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "channel": {"type": "partial_trace", "N": 30, "Np": 15, "split": 15},
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


def test_typicality_distances_csv_samples_once(tmp_path, draw_log):
    # the draws of every process, forked workers included
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
    draws = [seed for _, seeds in draw_log() for seed in seeds]
    assert sorted(draws) == sorted(derive_seed(12, i) for i in range(300))
    rows = list(csv.DictReader(dist_csv.read_text().splitlines()))
    csv_mean = float(np.mean([float(r["distance"]) for r in rows]))
    assert csv_mean == json.loads(out.read_text())["mean_distance"]


def test_distances_csv_has_the_bytes_of_csv_writer(tmp_path, monkeypatch):
    # the typicality command formats each row by one f-string, from runs of 4096 rows
    # (two full runs and a partial one here); the bytes are those of csv.writer over
    # the fields _fmt formats
    values = [0.0, 0.1, 1.0, 1 / 3, 5e-324, 1e-20, 0.9999999999999999, 2.5e-7]
    distances = np.array(values * 1025)
    report = typicality.TypicalityReport(
        d_r=2, d_s=2, samples=distances.size, master_seed=0,
        mean_distance=float(np.mean(distances)), std_distance=0.4, max_distance=1.0,
        entropy_bound=1.0, linear_entropy=0.0, eta_mode="fixed_one", eta_used=1.0,
        distances=distances)
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: report)
    config, path = tmp_path / "cfg.json", tmp_path / "distances.csv"
    config.write_text(json.dumps({"channel": {"type": "identity", "d": 2},
                                  "samples": distances.size, "master_seed": 0}))
    assert run(["typicality", "--config", config, "--out", tmp_path / "report.json",
                "--distances-csv", path]) == 0
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerows([["index", "distance"],
                      *([i, cli._fmt(d)] for i, d in enumerate(values * 1025))])
    assert path.read_bytes() == expected.getvalue().encode()


def test_typicality_refuses_oversized_entropy_before_any_draw(tmp_path, monkeypatch):
    # 300 samples of identity(100) fit the budget, its 10000^2 Choi matrix does not
    import qtypical.typicality as typicality

    draws = []
    original = typicality._haar_rows

    def counting(dim, seeds):
        draws.extend(seeds)
        return original(dim, seeds)

    monkeypatch.setattr(typicality, "_haar_rows", counting)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"channel": {"type": "identity", "d": 100},
                                  "samples": 300, "master_seed": 1}))
    out = tmp_path / "r.json"
    assert run(["typicality", "--config", config, "--out", out]) == 3
    assert draws == []
    assert not out.exists()


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


@pytest.mark.parametrize("argv, expected", [
    (["--channel", "partial-trace", "--N", 10, "--Np", 5, "--split", 3], 1.0),
    (["--channel", "bns", "--N", 8, "--k", 2, "--Np", 4], 1.0),
    (["--channel", "partial-trace", "--N", 6, "--Np", 3, "--split", 0], 0.0),
    # 2^30 outputs: the patterns are counted, not read off a 2^30 diagonal
    (["--channel", "partial-trace", "--N", 30, "--Np", 1, "--split", 30], 1.0),
    (["--channel", "bns", "--N", 30, "--k", 30, "--Np", 1], 1.0),
], ids=["partial-trace", "detector", "constant", "partial-trace-2^30", "detector-2^30"])
def test_lipschitz_reports_the_exact_value_on_restricted_specs(tmp_path, capsys, argv,
                                                               expected):
    out = tmp_path / "lip.json"
    assert run(["lipschitz", *argv, "--trials", 2, "--out", out]) == 0
    assert json.loads(out.read_text())["estimate"] == expected
    assert "Lipschitz constant" in capsys.readouterr().out


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


# -- out-of-range values --


OUT_OF_RANGE = {
    "figure-bound": ["figure-bound", "--N", 6, "--k", 2, "--samples", 0],
    "lipschitz": ["lipschitz", "--channel", "depolarizing", "--d", 3, "--lambda", 0.5,
                  "--trials", 0],
    "figure-energy": ["figure-energy", "--N", 10, "--Np", 11, "--k", 2],
    # spec values out of range, refused before construction, not as size refusals
    "entropy-blocking": ["entropy", "--channel", "bns", "--N", 6, "--k", 4],
    "entropy-dimension": ["entropy", "--channel", "identity", "--d", 0],
    "entropy-factor": ["entropy", "--channel", "partial-trace", "--dS", 2, "--dE", 0],
    "entropy-excitations": ["entropy", "--channel", "partial-trace", "--N", 40, "--Np", 41,
                            "--split", 8],
    "entropy-detector-excitations": ["entropy", "--channel", "bns", "--N", 8, "--k", 2,
                                     "--Np", 9],
    "figure-bound-blocking": ["figure-bound", "--N", 6, "--k", 4],
    # the Np loop is empty at one site, so the samples check must not live inside it
    "figure-bound-one-site": ["figure-bound", "--N", 1, "--k", 1, "--samples", 0],
    # with samples it wrote a header-only CSV and a plot script with no points
    "figure-bound-one-site-with-samples": ["figure-bound", "--N", 1, "--k", 1, "--samples", 5],
    # the restricted spec's exact eta needs no trial, but the value is still checked
    "lipschitz-restricted": ["lipschitz", "--channel", "partial-trace", "--N", 6, "--Np", 3,
                             "--split", 2, "--trials", 0],
    # no sites: an empty Np loop wrote a header-only CSV, and figure-energy a data error
    "figure-bound-no-sites": ["figure-bound", "--N", 0, "--k", 1, "--samples", 2],
    "figure-bound-negative-sites": ["figure-bound", "--N", -2, "--k", 1],
    "figure-energy-no-sites": ["figure-energy", "--N", 0, "--Np", 0, "--k", 1],
    # NaN passes `lam < 0`: at d = 1 it was the identity, at d = 2 a trace-preservation error
    "entropy-nan-lambda-d1": ["entropy", "--channel", "depolarizing", "--d", 1,
                              "--lambda", "nan"],
    "entropy-nan-lambda-d2": ["entropy", "--channel", "depolarizing", "--d", 2,
                              "--lambda", "nan"],
}


@pytest.mark.parametrize("command", OUT_OF_RANGE)
def test_out_of_range_value_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out.dat"
    assert run(OUT_OF_RANGE[command] + ["--out", out]) == 2
    assert capsys.readouterr().err.startswith("usage error")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["entropy", "--channel", "identity", "--d", 20000], "MiB"),  # the 512 MiB budget
    # the detector's entropy at 30/5/15 is a count, but one sample (9169 MiB) is refused
    # from counts, before its basis, its 111219 MiB grouping plan or any state exists
    (["typicality", "--config", {"channel": {"type": "bns", "N": 30, "k": 5, "Np": 15},
                                 "samples": 10, "master_seed": 1}], "MiB"),
    (["entropy", "--channel", "bns", "--N", 11, "--k", 1], "dense limit"),  # BLOCK_LIMIT
    # 10^10 distances need 76294 MiB: refused before the array or any state exists
    (["typicality", "--config", {"channel": {"type": "identity", "d": 2},
                                 "samples": 10**10, "master_seed": 1}], "MiB"),
    (["figure-bound", "--N", 4, "--k", 2, "--samples", 10**10], "MiB"),
    # the detector's 1006 MiB grouping plan at 20/10/10, where one sample fits
    (["typicality", "--config", {"channel": {"type": "bns", "N": 20, "k": 10, "Np": 10},
                                 "samples": 10, "master_seed": 1}], "1006 MiB"),
], ids=["budget", "detector-plan", "block-limit", "typicality-distances",
        "figure-bound-distances", "detector-plan-before-draw"])
def test_size_refusal_of_a_spec_is_still_a_data_error(tmp_path, capsys, monkeypatch, argv,
                                                      message):
    draws = []
    monkeypatch.setattr(typicality, "_haar_rows", lambda *args: draws.append(args))
    if isinstance(argv[-1], dict):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [config]
    out = tmp_path / "out.json"
    assert run(argv + ["--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and message in err
    assert not out.exists()
    assert draws == []


def test_detector_entropy_needs_no_basis(tmp_path):
    # C(100, 50) = 1.0e29 basis states: the entropy, its bound and eta are counts
    out = tmp_path / "entropy.json"
    for n, k, np_excited in [(40, 4, 20), (100, 10, 50)]:
        assert run(["entropy", "--channel", "bns", "--N", n, "--k", k, "--Np", np_excited,
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        assert (data["dim_in"], data["dim_out"]) == (comb(n, np_excited), 2**k)
        assert data["purity_route_difference"] == 0.0
        expected = 0.5 * np.sqrt(2**k * data["choi_purity"])
        assert 0.0 < expected and abs(data["entropy_bound"] - expected) <= 1e-15 * expected
    # 2^64 output patterns, each basis state its own
    assert run(["lipschitz", "--channel", "bns", "--N", 64, "--k", 64, "--Np", 1,
                "--out", out]) == 0
    assert json.loads(out.read_text())["estimate"] == 1.0


def test_figure_bound_refuses_before_its_first_sample(tmp_path, capsys, monkeypatch):
    # N = 32, k = 2: Np = 1 .. 7 fit, but Np = 8's 962 MiB grouping plan does not, and
    # every plan is checked from counts before anything is drawn
    draws = []
    monkeypatch.setattr(typicality, "_haar_rows", lambda *args: draws.append(args))
    out = tmp_path / "bound.csv"
    started = time.perf_counter()
    assert run(["figure-bound", "--N", 32, "--k", 2, "--samples", 10, "--out", out]) == 3
    assert time.perf_counter() - started < 2.0
    assert "962 MiB" in capsys.readouterr().err
    assert draws == []
    assert list(tmp_path.iterdir()) == []


def test_figure_bound_refuses_a_sample_row_before_its_first_sample(tmp_path, capsys,
                                                                   monkeypatch):
    # N = 16, k = 1 at a 700000-byte budget: every plan fits, but one sample of Np = 7
    # (C(16, 7) = 11440 amplitudes, its output and its largest group) does not; each
    # row is checked from counts before anything is drawn
    from qtypical import qcore

    monkeypatch.setattr(qcore, "_DENSE_BYTES_LIMIT", 700000)
    draws = []
    monkeypatch.setattr(typicality, "_haar_rows", lambda *args: draws.append(args))
    out = tmp_path / "bound.csv"
    assert run(["figure-bound", "--N", 16, "--k", 1, "--samples", 3, "--out", out]) == 3
    assert "one sampled state of dimension 11440" in capsys.readouterr().err
    assert draws == []
    assert list(tmp_path.iterdir()) == []


def test_restricted_partial_trace_entropy_needs_no_basis(tmp_path):
    # C(40, 20) = 1.4e11 basis states, past the 30-site enumeration limit: every
    # quantity entropy reports is an exact count
    out = tmp_path / "entropy.json"
    assert run(["entropy", "--channel", "partial-trace", "--N", 40, "--Np", 20, "--split", 8,
                "--out", out]) == 0
    data = json.loads(out.read_text())
    assert (data["dim_in"], data["dim_out"]) == (comb(40, 20), 256)
    assert data["purity_route_difference"] == 0.0


@pytest.mark.parametrize("module,route,argv", [
    (restriction, "_marginal_square_product", ["partial-trace", "--N", 40, "--Np", 20,
                                               "--split", 8]),
    (restriction, "_marginal_square_sum", ["partial-trace", "--N", 100, "--Np", 50,
                                           "--split", 10]),
    (bns, "_purity_numerator_convolution", ["bns", "--N", 200, "--k", 20, "--Np", 100]),
])
def test_exact_purity_routes_one_apart_exit_4(tmp_path, capsys, monkeypatch, module, route,
                                              argv):
    # the purities are 3.8e-10, 1.8e-27 and 1.1e-59, below the float gate's 1e-8: only
    # the integer comparison of the two numerators sees a difference of 1
    exact = getattr(module, route)
    monkeypatch.setattr(module, route, lambda *args: exact(*args) + 1)
    out = tmp_path / "entropy.json"
    assert run(["entropy", "--channel", *argv, "--out", out]) == 4
    assert "exact purity routes differ" in capsys.readouterr().err
    assert not out.exists()


def test_json_writer_bytes_equal_json_dump(tmp_path):
    payload = {"b": [1.0, 1 / 3, 5e-324, {"z": None, "a": True}], "a": "é", "c": 10**40,
               "d": [], "e": {}, "f": float("inf")}
    ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
    cli._write_json(str(ours), payload)
    with open(theirs, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert ours.read_bytes() == theirs.read_bytes()


NOT_AN_INTEGER = {
    # int() truncated these to identity(3), 20 samples and seed 1, and ran identity(1) on true
    "fractional-d": {"channel": {"type": "identity", "d": 3.9}},
    "fractional-samples": {"samples": 20.7},
    "fractional-seed": {"master_seed": 1.5},
    "boolean-d": {"channel": {"type": "identity", "d": True}},
    "string-eta-trials": {"eta_mode": "estimated", "eta_trials": "4"},
    "fractional-Np": {"channel": {"type": "partial_trace", "N": 6, "Np": 2.5, "split": 2}},
    "boolean-unitary-seed": {"channel": {"type": "unitary_trace", "dS": 2, "dE": 2,
                                         "seed": False}},
    "fractional-detector-Np": {"channel": {"type": "bns", "N": 4, "k": 2, "Np": 2.0}},
}


@pytest.mark.parametrize("case", NOT_AN_INTEGER)
def test_config_integer_that_is_not_an_int_is_a_usage_error(tmp_path, capsys, case):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"channel": {"type": "identity", "d": 3}, "samples": 20,
                                  "master_seed": 1, **NOT_AN_INTEGER[case]}))
    out = tmp_path / "r.json"
    assert run(["typicality", "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("usage error")
    assert not out.exists()


@pytest.mark.parametrize("argv, key, value", [
    (["figure-energy", "--N", 10, "--Np", 5, "--k", 2], "N", 10.5),
    (["figure-bound", "--N", 4, "--k", 2, "--samples", 3], "samples", 3.5),
    (["figure-bound", "--N", 4, "--k", 2, "--samples", 3], "seed", True),
    (["lipschitz", "--channel", "identity", "--d", 2, "--trials", 1], "trials", 1.0),
    (["lipschitz", "--channel", "identity", "--d", 2, "--trials", 1], "seed", "0"),
], ids=["figure-energy-N", "figure-bound-samples", "figure-bound-seed", "lipschitz-trials",
        "lipschitz-seed"])
def test_replayed_integer_that_is_not_an_int_is_a_usage_error(tmp_path, capsys, argv, key,
                                                             value):
    out = tmp_path / "out.dat"
    assert run(argv + ["--out", out]) == 0
    manifest = tmp_path / "out.dat.manifest.json"
    data = json.loads(manifest.read_text())
    data["parameters"][key] = value
    manifest.write_text(json.dumps(data))
    for path in data["outputs"]:
        Path(path).unlink()
    assert run(["replay", "--manifest", manifest]) == 2
    assert capsys.readouterr().err.startswith("usage error")
    assert not any(Path(path).exists() for path in data["outputs"])


MALFORMED_MANIFEST = {
    # each crashed with a traceback (exit 1)
    "parameters-not-an-object": (["figure-bound", "--N", 4, "--k", 2, "--samples", 3],
                                 lambda data: data.update(parameters=[]), 3),
    "command-not-a-string": (["figure-bound", "--N", 4, "--k", 2, "--samples", 3],
                             lambda data: data.update(command=[]), 3),
    "lipschitz-without-out": (["lipschitz", "--channel", "identity", "--d", 2, "--trials", 1],
                              lambda data: data["parameters"].pop("out"), 2),
    "figure-energy-without-N": (["figure-energy", "--N", 10, "--Np", 5, "--k", 2],
                                lambda data: data["parameters"].pop("N"), 2),
    "entropy-without-channel": (["entropy", "--channel", "identity", "--d", 2],
                                lambda data: data["parameters"].pop("channel"), 2),
    "typicality-without-config": (["typicality", "--config", "CONFIG"],
                                  lambda data: data["parameters"].pop("config"), 2),
}


@pytest.mark.parametrize("case", MALFORMED_MANIFEST)
def test_malformed_replayed_manifest_exits_with_its_error_code(tmp_path, capsys, case):
    argv, edit, code = MALFORMED_MANIFEST[case]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"channel": {"type": "identity", "d": 2}, "samples": 3,
                                  "master_seed": 1}))
    out = tmp_path / "out.dat"
    assert run([config if a == "CONFIG" else a for a in argv] + ["--out", out]) == 0
    manifest = tmp_path / "out.dat.manifest.json"
    data = json.loads(manifest.read_text())
    edit(data)
    manifest.write_text(json.dumps(data))
    for path in data["outputs"]:
        Path(path).unlink()
    assert run(["replay", "--manifest", manifest]) == code
    assert capsys.readouterr().err.startswith({2: "usage error", 3: "data error"}[code])
    assert not any(Path(path).exists() for path in data["outputs"])


def test_replayed_out_of_range_value_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "bound.csv"
    assert run(["figure-bound", "--N", 4, "--k", 2, "--samples", 3, "--out", out]) == 0
    manifest = tmp_path / "bound.csv.manifest.json"
    data = json.loads(manifest.read_text())
    data["parameters"]["samples"] = 0
    manifest.write_text(json.dumps(data))
    out.unlink()
    assert run(["replay", "--manifest", manifest]) == 2
    assert capsys.readouterr().err.startswith("usage error")
    assert not out.exists()


REPLAYED_COMMANDS = [
    ["entropy", "--channel", "depolarizing", "--d", 2, "--lambda", 0.5, "--save-channel", "OUT2"],
    ["entropy", "--channel", "unitary-trace", "--dS", 2, "--dE", 2, "--unitary-seed", 3],
    ["entropy", "--channel-file", "CHANNEL"],
    ["lipschitz", "--channel", "partial-trace", "--N", 4, "--Np", 2, "--split", 2, "--trials", 1,
     "--save-channel", "OUT2"],
    ["typicality", "--config", "CONFIG", "--distances-csv", "OUT2"],
    ["figure-energy", "--N", 10, "--Np", 5, "--k", 2],
    ["figure-bound", "--N", 4, "--k", 2, "--samples", 3],
]


def _key_paths(obj: dict, prefix=()):
    """The key path of every value of ``obj`` and of the objects nested in it."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def test_replayed_value_of_another_type_is_a_usage_error(tmp_path, capsys):
    # paths, lambda and epsilon_grid crashed after the work (exit 1) or were skipped (exit 0)
    save_channel(identity_channel(2), tmp_path / "c.json")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"channel": {"type": "bns", "N": 4, "k": 2, "Np": 2},
                                  "samples": 3, "master_seed": 1, "epsilon_grid": [0.5],
                                  "eta_mode": "estimated", "eta_trials": 2}))
    outs = tmp_path / "outs"
    outs.mkdir()
    inputs = {"CONFIG": config, "CHANNEL": tmp_path / "c.json", "OUT2": outs / "second.json"}
    for argv in REPLAYED_COMMANDS:
        assert run([inputs.get(a, a) for a in argv] + ["--out", outs / "out.dat"]) == 0
        manifest = tmp_path / "m.json"
        (outs / "out.dat.manifest.json").rename(manifest)
        recorded = json.loads(manifest.read_text())
        for path in _key_paths(recorded["parameters"]):
            for output in outs.iterdir():
                output.unlink()
            data = json.loads(json.dumps(recorded))
            *parents, key = path
            holder = functools.reduce(dict.__getitem__, parents, data["parameters"])
            holder[key] = {} if isinstance(holder[key], list) else []
            manifest.write_text(json.dumps(data))
            capsys.readouterr()
            assert run(["replay", "--manifest", manifest]) == 2, (argv[0], path)
            captured = capsys.readouterr()
            assert captured.err.startswith("usage error") and captured.out == "", path
            assert list(outs.iterdir()) == [], path


@pytest.mark.parametrize("argv", REPLAYED_COMMANDS, ids=[a[0] for a in REPLAYED_COMMANDS])
def test_a_replayed_key_that_the_command_does_not_read_is_a_usage_error(tmp_path, capsys,
                                                                          argv):
    # entropy with "save_chanel" exited 0 and wrote no channel file
    save_channel(identity_channel(2), tmp_path / "c.json")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"channel": {"type": "identity", "d": 2}, "samples": 3,
                                  "master_seed": 1}))
    outs = tmp_path / "outs"
    outs.mkdir()
    inputs = {"CONFIG": config, "CHANNEL": tmp_path / "c.json", "OUT2": outs / "second.json"}
    assert run([inputs.get(a, a) for a in argv] + ["--out", outs / "out.dat"]) == 0
    manifest = tmp_path / "m.json"
    data = json.loads((outs / "out.dat.manifest.json").read_text())
    data["parameters"]["save_chanel"] = str(outs / "c.json")
    manifest.write_text(json.dumps(data))
    for output in outs.iterdir():
        output.unlink()
    capsys.readouterr()
    assert run(["replay", "--manifest", manifest]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: the {argv[0]} command does not read 'save_chanel'\n"
    assert captured.out == "" and list(outs.iterdir()) == []


@pytest.mark.parametrize("key, value", [("out", []), ("out", 7), ("save_channel", 3),
                                        ("out", 1)])
def test_replayed_output_path_that_is_not_a_string_is_a_usage_error(tmp_path, capfd, key,
                                                                     value):
    # each crashed after the work (exit 1); "out": 1 first wrote the JSON over stdout
    out = tmp_path / "l.json"
    assert run(["lipschitz", "--channel", "identity", "--d", 2, "--trials", 1,
                "--out", out]) == 0
    manifest = tmp_path / "l.json.manifest.json"
    data = json.loads(manifest.read_text())
    data["parameters"][key] = value
    manifest.write_text(json.dumps(data))
    out.unlink()
    capfd.readouterr()
    assert run(["replay", "--manifest", manifest]) == 2
    captured = capfd.readouterr()
    assert captured.err.startswith("usage error") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    lambda config: config["channel"].update(type="depolarizing", d=2, **{"lambda": "0.5"}),
    lambda config: config["channel"].update(seed=1.5),
    lambda config: config.update(epsilon_grid=["0.1"]),
    lambda config: config.update(epsilon_grid="0.1"),
    lambda config: config.update(eta_mode=""),
], ids=["string-lambda", "unused-seed", "string-epsilon", "string-grid", "empty-eta-mode"])
def test_config_value_of_another_kind_is_a_usage_error(tmp_path, capsys, edit):
    # a string lambda or epsilon ran as its float, and an identity spec ignored its seed
    config = {"channel": {"type": "identity", "d": 2}, "samples": 3, "master_seed": 1}
    edit(config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    assert run(["typicality", "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("usage error")
    assert not out.exists()


# -- manifests and replay --


@pytest.mark.parametrize("argv, params", [
    (["entropy", "--channel", "bns", "--N", 9, "--k", 3, "--Np", 4, "--out", "e.json"],
     {"channel": {"type": "bns", "N": 9, "Np": 4, "k": 3}, "out": "e.json"}),
    (["entropy", "--channel", "depolarizing", "--d", 3, "--lambda", 0.4,
      "--save-channel", "c.json"],
     {"channel": {"type": "depolarizing", "d": 3, "lambda": 0.4},
      "out": "entropy.json", "save_channel": "c.json"}),
    (["entropy", "--channel-file", "c.json", "--out", "f.json"],
     {"channel": {"type": "file", "path": "c.json"}, "out": "f.json"}),
    (["entropy", "--channel", "unitary-trace", "--dS", 2, "--dE", 2, "--unitary-seed", 3],
     {"channel": {"type": "unitary_trace", "dS": 2, "dE": 2, "seed": 3},
      "out": "entropy.json"}),
    (["figure-energy", "--N", 10000, "--Np", 200, "--k", 1000],
     {"N": 10000, "Np": 200, "k": 1000, "out": "energy.csv"}),
    (["figure-bound", "--N", 8, "--k", 2, "--samples", 4000, "--seed", 2024],
     {"N": 8, "k": 2, "samples": 4000, "seed": 2024, "out": "bound.csv"}),
    (["typicality", "--config", "CONFIG", "--out", "r.json", "--distances-csv", "d.csv"],
     {"config": {"channel": {"type": "identity", "d": 2}, "samples": 3, "master_seed": 1},
      "out": "r.json", "distances_csv": "d.csv"}),
    (["lipschitz", "--channel", "partial-trace", "--N", 10, "--Np", 5, "--split", 3],
     {"channel": {"type": "partial_trace", "N": 10, "Np": 5, "split": 3},
      "trials": 8, "seed": 0, "out": "lipschitz.json"}),
    (["replay", "--manifest", "m.json"], {"manifest": "m.json"}),
], ids=["entropy", "entropy-save-channel", "entropy-channel-file", "entropy-unitary-seed",
        "figure-energy", "figure-bound", "typicality-distances-csv", "lipschitz", "replay"])
def test_params_are_the_flags_given_or_defaulted(tmp_path, argv, params):
    # the dicts stored in manifests since 0.30.0; a change here changes every replay
    from qtypical.cli import _params_from_args, build_parser

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"channel": {"type": "identity", "d": 2}, "samples": 3,
                                  "master_seed": 1}))
    argv = [str(config) if a == "CONFIG" else str(a) for a in argv]
    assert _params_from_args(build_parser().parse_args(argv)) == (argv[0], params)




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


def test_python_dash_m_runs_the_cli(tmp_path, monkeypatch):
    # `python -m qtypical` is the one module entry point; it writes what main writes
    args = ["entropy", "--channel", "depolarizing", "--d", "3", "--lambda", "0.4", "--out"]
    assert run(args + [tmp_path / "main.json"]) == 0
    monkeypatch.setattr(sys, "argv", ["qtypical", *args, str(tmp_path / "module.json")])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("qtypical", run_name="__main__")
    assert exited.value.code == 0
    assert (tmp_path / "module.json").read_bytes() == (tmp_path / "main.json").read_bytes()


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
