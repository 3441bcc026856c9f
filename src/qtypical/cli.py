"""Command-line front end: build channels from flags or JSON, run experiments.

Every command writes its data files plus a run manifest (<out>.manifest.json)
holding the full parameter set; ``replay`` re-executes a manifest and
regenerates byte-identical outputs. Exit codes: 0 success, 2 usage error,
3 data error (for example a non-CPTP channel file), 4 internal consistency
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .bns import (
    DetectorChannel,
    bns_channel,
    energy_distribution_bns,
    energy_distribution_trace,
    write_distribution_csv,
)
from .channels import (
    CPTPError,
    ConsistencyError,
    QuantumChannel,
    _gated_linear_entropy,
    compose,
    depolarizing,
    identity_channel,
    lipschitz_estimate,
    load_channel,
    partial_trace_channel,
    save_channel,
    unitary_channel,
)
from .qcore import DimensionError, derive_seed, haar_unitary
from .restriction import RestrictedPartialTrace, effective_environment_dimension
from .typicality import (
    ExperimentConfig,
    _entropy_bound,
    entropy_bound,
    run_experiment,
    sample_distances,
)

FLOAT_FORMAT = ".17g"


class UsageError(Exception):
    """Bad command line or config contents; maps to exit code 2."""


class DataError(Exception):
    """Unusable input data (unreadable or invalid files); maps to exit code 3."""


# -- channel specs -------------------------------------------------------------


def build_channel(
    spec: dict,
) -> tuple[QuantumChannel | RestrictedPartialTrace | DetectorChannel, dict]:
    """Construct a channel from a spec dict; returns (channel, scenario info).

    Scenario info carries ``d_e_eff`` for partial-trace style scenarios so
    reports can include the partial-trace bound. The restricted specs are
    matrix-free: a partial trace with ``N``, ``Np``, ``split`` is a
    ``RestrictedPartialTrace`` and a detector with ``Np`` is a
    ``DetectorChannel``; every other spec is a dense ``QuantumChannel``.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise UsageError("channel spec must be an object with a 'type' key")
    kind = str(spec["type"]).replace("-", "_")
    info: dict = {"d_e_eff": None}
    try:
        if kind == "identity":
            return identity_channel(int(spec["d"])), info
        if kind == "depolarizing":
            return depolarizing(int(spec["d"]), float(spec["lambda"])), info
        if kind == "partial_trace":
            if "N" in spec and spec.get("Np") is not None:
                n, sq = int(spec["N"]), int(spec["split"])
                ch = RestrictedPartialTrace(n, int(spec["Np"]), sq)
                info["d_e_eff"] = effective_environment_dimension(ch.sub, (sq, n - sq))
                return ch, info
            d_s, d_e = int(spec["dS"]), int(spec["dE"])
            info["d_e_eff"] = float(d_e)
            return partial_trace_channel(d_s, d_e), info
        if kind == "unitary_trace":
            d_s, d_e = int(spec["dS"]), int(spec["dE"])
            trace_out = partial_trace_channel(d_s, d_e)
            u = haar_unitary(d_s * d_e, int(spec.get("seed", 0)))
            info["d_e_eff"] = float(d_e)
            return compose(trace_out, unitary_channel(u)), info
        if kind == "bns":
            n, k = int(spec["N"]), int(spec["k"])
            if spec.get("Np") is not None:
                return DetectorChannel(n, k, int(spec["Np"])), info
            return bns_channel(n, k), info
        if kind == "file":
            try:
                return load_channel(spec["path"]), info
            except (OSError, json.JSONDecodeError, CPTPError, DimensionError) as exc:
                raise DataError(f"cannot load channel file: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise UsageError(f"channel spec for {kind!r} is missing parameter {exc}") from exc
    except DimensionError:
        raise  # a size refusal is a data error (exit 3), not a usage error
    except ValueError as exc:
        raise UsageError(f"bad channel spec: {exc}") from exc
    raise UsageError(f"unknown channel type {spec['type']!r}")


def _spec_from_args(args: argparse.Namespace) -> dict:
    if getattr(args, "channel_file", None):
        return {"type": "file", "path": args.channel_file}
    if not getattr(args, "channel", None):
        raise UsageError("provide --channel NAME or --channel-file PATH")
    kind = args.channel.replace("-", "_")
    spec: dict = {"type": kind}
    for flag, key in (
        ("d", "d"), ("lam", "lambda"), ("d_s", "dS"), ("d_e", "dE"),
        ("N", "N"), ("Np", "Np"), ("k", "k"), ("split", "split"),
        ("unitary_seed", "seed"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            spec[key] = value
    return spec


# -- small IO helpers -----------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, FLOAT_FORMAT)
    return str(value)


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _base(out: str) -> str:
    return out[:-4] if out.endswith(".csv") else out


_ENERGY_PLOT = """\"\"\"Plot the two excitation-count distributions from {csv_name}.\"\"\"
import csv
import os

import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))
ms, p_trace, p_bns = [], [], []
with open(os.path.join(here, {csv_name!r}), newline="") as fh:
    for row in csv.DictReader(fh):
        ms.append(int(row["m"]))
        p_trace.append(float(row["p_trace"]))
        p_bns.append(float(row["p_bns"]))

fig, ax = plt.subplots(figsize=(7, 4))
ax.plot(ms, p_trace, "o", ms=3, label="kept sites (partial trace)")
ax.plot(ms, p_bns, "s", ms=3, label="saturated detector blocks")
ax.set_xlabel("number of excitations m")
ax.set_ylabel("probability")
ax.legend()
fig.tight_layout()
fig.savefig(os.path.join(here, {png_name!r}), dpi=200)
print("wrote", {png_name!r})
"""

_BOUND_PLOT = """\"\"\"Plot mean distances against the entropy bound from {csv_name}.\"\"\"
import csv
import os

import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))
np_values, means, stds, bounds = [], [], [], []
with open(os.path.join(here, {csv_name!r}), newline="") as fh:
    for row in csv.DictReader(fh):
        np_values.append(int(row["Np"]))
        means.append(float(row["mean_distance"]))
        stds.append(float(row["std_distance"]))
        bounds.append(float(row["entropy_bound"]))

fig, ax = plt.subplots(figsize=(7, 4))
ax.errorbar(np_values, means, yerr=stds, fmt="o", ms=4, label="mean distance")
ax.plot(np_values, bounds, "s", mfc="none", label="entropy bound")
ax.set_xlabel("number of excitations Np")
ax.set_ylabel("trace distance")
ax.legend()
fig.tight_layout()
fig.savefig(os.path.join(here, {png_name!r}), dpi=200)
print("wrote", {png_name!r})
"""


def _emit_plot_script(template: str, csv_path: str) -> str:
    base = _base(csv_path)
    script_path = base + "_plot.py"
    csv_name = os.path.basename(csv_path)
    png_name = os.path.basename(base) + ".png"
    with open(script_path, "w", encoding="utf-8") as fh:
        fh.write(template.format(csv_name=csv_name, png_name=png_name))
    return script_path


# -- commands --------------------------------------------------------------------


def _maybe_save_channel(ch, params: dict, outputs: list) -> None:
    path = params.get("save_channel")
    if path:
        save_channel(ch, path)
        outputs.append(path)


def run_entropy(params: dict) -> list:
    ch, _ = build_channel(params["channel"])
    purity_choi, purity_kraus = ch.choi_purity_routes()
    s_l = _gated_linear_entropy(purity_choi, purity_kraus)
    payload = {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "linear_entropy": s_l,
        "choi_purity": purity_choi,
        "choi_purity_kraus_route": purity_kraus,
        "purity_route_difference": abs(purity_choi - purity_kraus),
        "entropy_bound": _entropy_bound(ch.dim_out, s_l),
    }
    print(f"linear entropy       : {_fmt(payload['linear_entropy'])}")
    print(f"Choi purity          : {_fmt(purity_choi)}")
    print(f"Choi purity (Kraus)  : {_fmt(purity_kraus)}")
    print(f"route difference     : {_fmt(payload['purity_route_difference'])}")
    print(f"mean-distance bound  : {_fmt(payload['entropy_bound'])}")
    out = params["out"]
    _write_json(out, payload)
    outputs = [out]
    _maybe_save_channel(ch, params, outputs)
    return outputs


def run_figure_energy(params: dict) -> list:
    n, np_excited, k = int(params["N"]), int(params["Np"]), int(params["k"])
    if n > 20000:
        raise UsageError(f"N = {n} exceeds the supported exact range (20000)")
    if k < 1 or n % k != 0:
        raise UsageError(f"k = {k} does not divide N = {n}")
    trace_dist = energy_distribution_trace(n, np_excited, k)
    bns_dist = energy_distribution_bns(n, np_excited, k)
    support = sorted(set(trace_dist.support) | set(bns_dist.support))
    rows = [
        [m, float(trace_dist.probability(m)), float(bns_dist.probability(m))]
        for m in support
    ]
    out = params["out"]
    _write_csv(out, ["m", "p_trace", "p_bns"], rows)
    base = _base(out)
    trace_csv = base + "_trace_exact.csv"
    bns_csv = base + "_bns_exact.csv"
    write_distribution_csv(trace_csv, trace_dist)
    write_distribution_csv(bns_csv, bns_dist)
    script = _emit_plot_script(_ENERGY_PLOT, out)
    print(f"trace-branch mean    : {_fmt(float(trace_dist.mean()))}")
    print(f"detector-branch mean : {_fmt(float(bns_dist.mean()))}")
    return [out, trace_csv, bns_csv, script]


def run_figure_bound(params: dict) -> list:
    n, k = int(params["N"]), int(params["k"])
    samples, seed = int(params["samples"]), int(params["seed"])
    if k < 1 or n % k != 0:
        raise UsageError(f"k = {k} does not divide N = {n}")
    rows = []
    for np_excited in range(1, n):
        ch = DetectorChannel(n, k, np_excited)
        cfg = ExperimentConfig(channel=ch, samples=samples,
                               master_seed=derive_seed(seed, np_excited))
        distances = np.asarray(sample_distances(cfg))
        std = float(np.std(distances, ddof=1)) if samples > 1 else 0.0
        rows.append([np_excited, ch.dim_in, float(np.mean(distances)), std,
                     entropy_bound(ch)])
    out = params["out"]
    _write_csv(out, ["Np", "d_R", "mean_distance", "std_distance", "entropy_bound"],
               rows)
    script = _emit_plot_script(_BOUND_PLOT, out)
    return [out, script]


def run_typicality(params: dict) -> list:
    config = params["config"]
    try:
        samples = int(config["samples"])
        master_seed = int(config["master_seed"])
        channel_spec = config["channel"]
        epsilon_grid = tuple(float(e) for e in config.get("epsilon_grid", ()))
        eta_mode = str(config.get("eta_mode", "fixed_one"))
        eta_trials = int(config.get("eta_trials", 16))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad experiment config: {exc}") from exc
    ch, info = build_channel(channel_spec)
    try:
        cfg = ExperimentConfig(channel=ch, samples=samples, master_seed=master_seed,
                               epsilon_grid=epsilon_grid, eta_mode=eta_mode,
                               eta_trials=eta_trials, d_e_eff=info["d_e_eff"])
    except ValueError as exc:
        raise UsageError(f"bad experiment config: {exc}") from exc
    distances = sample_distances(cfg)
    report = run_experiment(cfg, distances)
    out = params["out"]
    report.save(out)
    outputs = [out]
    if params.get("distances_csv"):
        _write_csv(params["distances_csv"], ["index", "distance"],
                   [[i, d] for i, d in enumerate(distances)])
        outputs.append(params["distances_csv"])
    print(f"mean distance        : {_fmt(report.mean_distance)}")
    print(f"entropy bound        : {_fmt(report.entropy_bound)}")
    if report.partial_trace_bound is not None:
        print(f"partial-trace bound  : {_fmt(report.partial_trace_bound)}")
    return outputs


def run_lipschitz(params: dict) -> list:
    ch, _ = build_channel(params["channel"])
    trials, seed = int(params["trials"]), int(params["seed"])
    estimate = lipschitz_estimate(ch, trials, seed)
    payload = {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "estimate": estimate,
        "trials": trials,
        "seed": seed,
    }
    print(f"Lipschitz lower bound: {_fmt(estimate)}")
    out = params["out"]
    _write_json(out, payload)
    outputs = [out]
    _maybe_save_channel(ch, params, outputs)
    return outputs


COMMANDS = {
    "entropy": run_entropy,
    "figure-energy": run_figure_energy,
    "figure-bound": run_figure_bound,
    "typicality": run_typicality,
    "lipschitz": run_lipschitz,
}


@dataclass(frozen=True)
class RunManifest:
    """Record of one command invocation, serialized alongside every output.

    Re-executing the stored command with the stored parameters regenerates
    the listed outputs byte-identically (``replay`` does exactly that).
    """

    command: str
    parameters: dict
    master_seed: int | None
    artifact_version: str
    outputs: list
    duration_seconds: float

    def save(self, path: str) -> None:
        _write_json(path, asdict(self))

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(**{k: data[k] for k in (
            "command", "parameters", "master_seed", "artifact_version",
            "outputs", "duration_seconds")})


def _manifest_seed(params: dict):
    if "seed" in params:
        return params["seed"]
    config = params.get("config")
    if isinstance(config, dict):
        return config.get("master_seed")
    return None


def _write_manifest(command: str, params: dict, outputs: list, started: float) -> str:
    manifest = RunManifest(
        command=command,
        parameters=params,
        master_seed=_manifest_seed(params),
        artifact_version=__version__,
        outputs=outputs,
        duration_seconds=time.perf_counter() - started,
    )
    path = params["out"] + ".manifest.json"
    manifest.save(path)
    return path


def _execute(command: str, params: dict) -> list:
    started = time.perf_counter()
    outputs = COMMANDS[command](params)
    manifest_path = _write_manifest(command, params, outputs, started)
    print(f"manifest             : {manifest_path}")
    return outputs


def run_replay(params: dict) -> list:
    try:
        manifest = RunManifest.load(params["manifest"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read manifest: {exc}") from exc
    if manifest.command not in COMMANDS:
        raise DataError(f"manifest names unknown command {manifest.command!r}")
    return _execute(manifest.command, manifest.parameters)


# -- argument parsing --------------------------------------------------------------


def _add_channel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--channel", choices=["identity", "depolarizing", "partial-trace",
                                         "unitary-trace", "bns"],
                   help="builtin channel family")
    p.add_argument("--channel-file", help="JSON Kraus file (alternative to --channel)")
    p.add_argument("--d", type=int, help="dimension for identity / depolarizing")
    p.add_argument("--lambda", type=float, dest="lam", help="depolarizing strength")
    p.add_argument("--dS", type=int, dest="d_s", help="kept-factor dimension")
    p.add_argument("--dE", type=int, dest="d_e", help="traced-factor dimension")
    p.add_argument("--N", type=int, help="number of sites")
    p.add_argument("--Np", type=int, help="number of excitations (restricts the input)")
    p.add_argument("--k", type=int, help="number of detector blocks")
    p.add_argument("--split", type=int, help="leading system qubits (restricted partial trace)")
    p.add_argument("--unitary-seed", type=int, default=0, dest="unitary_seed",
                   help="seed of the random reshuffling unitary")
    p.add_argument("--save-channel", dest="save_channel",
                   help="also write the constructed channel as a JSON Kraus file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtypical",
        description="Canonical states and typicality experiments for "
                    "channel-defined subsystems.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("entropy", help="channel linear entropy and mean-distance bound")
    _add_channel_flags(p)
    p.add_argument("--out", default="entropy.json")

    p = sub.add_parser("figure-energy", help="exact excitation-count distributions")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--Np", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default="energy.csv")

    p = sub.add_parser("figure-bound", help="mean distance vs entropy bound per Np")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="bound.csv")

    p = sub.add_parser("typicality", help="full Monte Carlo report from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="report.json")
    p.add_argument("--distances-csv", dest="distances_csv",
                   help="also dump per-sample distances")

    p = sub.add_parser("lipschitz", help="lower bound on the channel Lipschitz constant")
    _add_channel_flags(p)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="lipschitz.json")

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("--manifest", required=True)

    return parser


def _params_from_args(args: argparse.Namespace) -> tuple[str, dict]:
    if args.cmd == "entropy":
        params = {"channel": _spec_from_args(args), "out": args.out}
        if args.save_channel:
            params["save_channel"] = args.save_channel
        return "entropy", params
    if args.cmd == "figure-energy":
        return "figure-energy", {"N": args.N, "Np": args.Np, "k": args.k,
                                 "out": args.out}
    if args.cmd == "figure-bound":
        return "figure-bound", {"N": args.N, "k": args.k, "samples": args.samples,
                                "seed": args.seed, "out": args.out}
    if args.cmd == "typicality":
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot parse config: {exc}") from exc
        params = {"config": config, "out": args.out}
        if args.distances_csv:
            params["distances_csv"] = args.distances_csv
        return "typicality", params
    if args.cmd == "lipschitz":
        params = {"channel": _spec_from_args(args), "trials": args.trials,
                  "seed": args.seed, "out": args.out}
        if args.save_channel:
            params["save_channel"] = args.save_channel
        return "lipschitz", params
    if args.cmd == "replay":
        return "replay", {"manifest": args.manifest}
    raise UsageError(f"unknown command {args.cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        command, params = _params_from_args(args)
        if command == "replay":
            run_replay(params)
        else:
            _execute(command, params)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CPTPError, DimensionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
