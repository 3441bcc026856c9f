"""The benchmark's workloads: generated inputs, CLI command lines and output checks.

A workload is a fixed list of ``qtypical`` CLI commands, run in order in one
process through ``qtypical.cli.main``, exactly as the console script runs
them. One command is one operation. Its check reads the files the command
wrote and raises CheckFailed when they are wrong; it returns the number of
Monte Carlo distances the outputs deliver (0 for the exact commands).

The reference values in reference.json were computed by the package at the
commit that introduced this benchmark, at DEFAULT_SEED.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass
from math import comb
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 2024

# relative agreement required of seed-dependent Monte Carlo statistics at
# DEFAULT_SEED; leaves room for last-digit drift from reordered arithmetic
MC_REL_TOL = 1e-9
# absolute floor of every comparison: several bound-sweep rows have a constant
# restricted channel, whose distances are rounding noise of order 1e-16
ABS_TOL = 1e-12
# entropy-bound slack in standard errors, as TypicalityReport applies it
SLACK_SIGMAS = 3.0

BOUND_N, BOUND_KS, BOUND_SAMPLES = 8, (2, 4), 4000

PTRACE_N, PTRACE_NP, PTRACE_SPLIT = 10, 5, 3
PTRACE_SAMPLES, PTRACE_ETA_TRIALS = 6000, 16
PTRACE_EPSILONS = (0.01, 0.02, 0.05, 0.1)

ENTROPY_N, ENTROPY_NP, ENTROPY_KS = 9, 4, (3, 1)
ENERGY_N, ENERGY_NP, ENERGY_K = 10000, 200, 1000
ENERGY_FILES = ("energy.csv", "energy_trace_exact.csv", "energy_bns_exact.csv")

WORKLOADS = ("bound-sweep", "typicality-ptrace", "canonical-bns")


class CheckFailed(Exception):
    """A command's outputs disagree with what the benchmark expects."""


@dataclass
class Command:
    """One CLI invocation and the check of what it wrote."""

    argv: list
    out: str
    check: Callable[[], int]

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def manifest(self) -> str:
        return self.out + ".manifest.json"


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def build(workload: str, seed: int, workdir: str, ref: dict) -> list:
    """Write the workload's inputs under workdir and return its commands."""
    builders = {
        "bound-sweep": _bound_sweep,
        "typicality-ptrace": _typicality_ptrace,
        "canonical-bns": _canonical_bns,
    }
    return builders[workload](seed, workdir, ref[workload], seed == DEFAULT_SEED)


# -- shared check helpers ---------------------------------------------------------


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(actual: float, expected: float, rel: float, what: str) -> None:
    _require(abs(actual - expected) <= rel * abs(expected) + ABS_TOL,
             f"{what} = {actual!r}, expected {expected!r} (relative tolerance {rel:g})")


def _within_entropy_bound(mean: float, std: float, n: int, bound: float, what: str) -> None:
    slack = SLACK_SIGMAS * std / math.sqrt(n)
    _require(mean <= bound + slack + 1e-12,
             f"{what}: mean distance {mean!r} exceeds entropy bound {bound!r} "
             "+ 3 sigma/sqrt(n)")


def _read_rows(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- bound-sweep ---------------------------------------------------------------------


def _bound_sweep(seed: int, workdir: str, ref: dict, at_default: bool) -> list:
    commands = []
    for k in BOUND_KS:
        out = os.path.join(workdir, f"bound_k{k}.csv")
        argv = ["figure-bound", "--N", str(BOUND_N), "--k", str(k),
                "--samples", str(BOUND_SAMPLES), "--seed", str(seed), "--out", out]
        commands.append(Command(argv, out, _bound_check(out, ref[str(k)], at_default)))
    return commands


def _bound_check(path: str, ref: dict, at_default: bool):
    def check() -> int:
        rows = _read_rows(path)
        _require([int(r["Np"]) for r in rows] == list(range(1, BOUND_N)),
                 f"{path}: Np column is not 1..{BOUND_N - 1}")
        for i, r in enumerate(rows):
            np_excited = int(r["Np"])
            _require(int(r["d_R"]) == comb(BOUND_N, np_excited),
                     f"{path}: bad d_R at Np={np_excited}")
            mean, std, bound = (float(r[c]) for c in
                                ("mean_distance", "std_distance", "entropy_bound"))
            _close(bound, ref["entropy_bound"][i], MC_REL_TOL,
                   f"entropy bound at Np={np_excited}")
            _within_entropy_bound(mean, std, BOUND_SAMPLES, bound, f"Np={np_excited}")
            if at_default:
                _close(mean, ref["mean_distance"][i], MC_REL_TOL, f"mean at Np={np_excited}")
                _close(std, ref["std_distance"][i], MC_REL_TOL, f"std at Np={np_excited}")
        return len(rows) * BOUND_SAMPLES

    return check


# -- typicality-ptrace -----------------------------------------------------------------


def _typicality_ptrace(seed: int, workdir: str, ref: dict, at_default: bool) -> list:
    config = os.path.join(workdir, "ptrace_config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({
            "channel": {"type": "partial_trace", "N": PTRACE_N, "Np": PTRACE_NP,
                        "split": PTRACE_SPLIT},
            "samples": PTRACE_SAMPLES,
            "master_seed": seed,
            "epsilon_grid": list(PTRACE_EPSILONS),
            "eta_mode": "estimated",
            "eta_trials": PTRACE_ETA_TRIALS,
        }, fh)
    out = os.path.join(workdir, "ptrace_report.json")
    distances = os.path.join(workdir, "ptrace_distances.csv")
    argv = ["typicality", "--config", config, "--out", out, "--distances-csv", distances]
    return [Command(argv, out, _ptrace_check(out, distances, ref, at_default))]


def _ptrace_check(report_path: str, distances_path: str, ref: dict, at_default: bool):
    def check() -> int:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        _require((report["samples"], report["d_r"], report["d_s"])
                 == (PTRACE_SAMPLES, comb(PTRACE_N, PTRACE_NP), 2**PTRACE_SPLIT),
                 f"{report_path}: wrong samples or dimensions")
        mean, std = report["mean_distance"], report["std_distance"]
        for key in ("entropy_bound", "linear_entropy", "partial_trace_bound"):
            _close(report[key], ref[key], MC_REL_TOL, key)
        _within_entropy_bound(mean, std, PTRACE_SAMPLES, report["entropy_bound"], "report")
        _require([row["epsilon"] for row in report["tail_table"]] == list(PTRACE_EPSILONS),
                 f"{report_path}: tail table does not follow the epsilon grid")
        if at_default:
            _close(mean, ref["mean_distance"], MC_REL_TOL, "mean distance")
            _close(std, ref["std_distance"], MC_REL_TOL, "std distance")
        rows = _read_rows(distances_path)
        _require([int(r["index"]) for r in rows] == list(range(PTRACE_SAMPLES)),
                 f"{distances_path}: expected {PTRACE_SAMPLES} rows indexed from 0")
        dump_mean = statistics.fmean(float(r["distance"]) for r in rows)
        _close(dump_mean, mean, 1e-12, "mean of the distances CSV against the report")
        return len(rows)

    return check


# -- canonical-bns -------------------------------------------------------------------------


def _canonical_bns(seed: int, workdir: str, ref: dict, at_default: bool) -> list:
    # exact and dense computations only: the seed does not enter these inputs
    commands = []
    for k in ENTROPY_KS:
        out = os.path.join(workdir, f"entropy_k{k}.json")
        argv = ["entropy", "--channel", "bns", "--N", str(ENTROPY_N), "--k", str(k),
                "--Np", str(ENTROPY_NP), "--out", out]
        check = _entropy_check(out, k, ref["linear_entropy"][str(k)])
        commands.append(Command(argv, out, check))
    out = os.path.join(workdir, ENERGY_FILES[0])
    argv = ["figure-energy", "--N", str(ENERGY_N), "--Np", str(ENERGY_NP),
            "--k", str(ENERGY_K), "--out", out]
    files = [os.path.join(workdir, name) for name in ENERGY_FILES]
    commands.append(Command(argv, out, _energy_check(files, ref["sha256"])))
    return commands


def _entropy_check(path: str, k: int, linear_entropy: float):
    def check() -> int:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        dims = (payload["dim_in"], payload["dim_out"])
        _require(dims == (comb(ENTROPY_N, ENTROPY_NP), 2**k), f"{path}: wrong channel dimensions")
        diff = abs(payload["choi_purity"] - payload["choi_purity_kraus_route"])
        _require(diff <= 1e-8, f"{path}: purity routes differ by {diff:.3e}")
        _require(abs(payload["linear_entropy"] - linear_entropy) <= ABS_TOL,
                 f"{path}: linear entropy {payload['linear_entropy']!r}, "
                 f"reference {linear_entropy!r}")
        return 0

    return check


def _energy_check(files: list, digests: dict):
    def check() -> int:
        for path in files:
            _require(_sha256(path) == digests[os.path.basename(path)],
                     f"{path}: bytes differ from the reference")
        return 0

    return check
