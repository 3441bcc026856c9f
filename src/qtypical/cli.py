"""Command-line front end: parse flags or JSON, refuse bad values, write files.

Reported numbers come from ``typicality``: ``figure-bound`` runs one
``run_experiment`` per Np, as ``typicality`` runs one. Every command writes
its data files plus a run manifest (<out>.manifest.json) holding the full
parameter set; ``replay`` re-executes a manifest and regenerates
byte-identical outputs. Exit codes: 0 success, 2 usage error (a bad command
line or config, or a parameter value missing, out of range or of the wrong kind,
refused before the command's work starts), 3 data error (for example a non-CPTP
channel file or a manifest whose parameters are not an object), 4 internal
consistency failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

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
    _eta,
    compose,
    depolarizing,
    identity_channel,
    load_channel,
    partial_trace_channel,
    save_channel,
    unitary_channel,
)
from .qcore import (
    FLOAT_FORMAT,
    DimensionError,
    _write_json,
    _write_lines,
    derive_seed,
    haar_unitary,
)
from .restriction import RestrictedPartialTrace, effective_environment_dimension
from .typicality import ExperimentConfig, _check_sampling, _entropy, run_experiment


class UsageError(Exception):
    """Bad command line or config contents; maps to exit code 2."""


class DataError(Exception):
    """Unusable input data (unreadable or invalid files); maps to exit code 3."""


@contextlib.contextmanager
def _parameter_errors(what: str):
    """A library ValueError about a command's parameter, CPTPError included, as a
    UsageError (exit 2). Not DimensionError, a size refusal (exit 3), nor LinAlgError,
    a failure.
    """
    try:
        yield
    except (DimensionError, np.linalg.LinAlgError):
        raise
    except ValueError as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


# -- channel specs -------------------------------------------------------------


_REQUIRED = object()  # the default of a parameter that has none
# the keys each channel family reads besides "type"; a restricted partial trace (N, Np
# and split) is the one family with a second form
_FAMILY_KEYS = {"identity": ("d",), "depolarizing": ("d", "lambda"), "partial_trace": ("dS", "dE"),
                "unitary_trace": ("dS", "dE", "seed"), "bns": ("N", "k", "Np"), "file": ("path",)}
_CONFIG_KEYS = ("channel", "samples", "master_seed", "epsilon_grid", "eta_mode", "eta_trials")
_KINDS = {int: ((int, np.integer), "an integer"), float: (numbers.Real, "a real number"),
          str: (str, "a nonempty string"), dict: (dict, "an object"), list: (list, "a list")}


def _param(params: dict, key: str, kind: type = int, default=_REQUIRED,
           low: int | None = None, high: int | None = None):
    """``params[key]`` (``default``, where given, for an absent key), of ``kind`` and within
    [low, high]: the one reader of every value of a command, a config and a channel spec.

    Anything else is a usage error (exit 2). An int is an integer (numpy's too), not a bool,
    float or string; a float a real number, not a bool; a str is nonempty.
    """
    value = params.get(key, default)
    if value is _REQUIRED:
        raise UsageError(f"parameter {key!r} is missing")
    if value is default:
        return value
    types, name = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types) or (kind is str and not value):
        raise UsageError(f"{key} = {value!r} is not {name}")
    if kind in (int, float):
        value = kind(value)
    if low is not None and value < low:
        raise UsageError(f"{key} = {value} must be >= {low}")
    if high is not None and value > high:
        raise UsageError(f"{key} = {value} exceeds the supported exact range ({high})")
    return value


def _check_read(params: dict, read: tuple, what: str) -> None:
    """A key of ``params`` outside ``read`` is a usage error (exit 2): none is ignored."""
    unread = sorted(repr(key) for key in params if key not in read)
    if unread:
        raise UsageError(f"{what} does not read {', '.join(unread)}")


def _check_blocking(n: int, k: int) -> None:
    """k detector blocks must evenly divide N sites: a usage error (exit 2) otherwise."""
    if n % k != 0:
        raise UsageError(f"k = {k} does not divide N = {n}")


def build_channel(
    spec: dict,
) -> tuple[QuantumChannel | RestrictedPartialTrace | DetectorChannel, dict]:
    """Construct a channel from a spec dict; returns (channel, scenario info).

    Scenario info carries ``d_e_eff`` for partial-trace style scenarios so
    reports can include the partial-trace bound. The restricted specs are
    matrix-free: a partial trace with ``N``, ``Np``, ``split`` is a
    ``RestrictedPartialTrace`` and a detector with ``Np`` is a
    ``DetectorChannel``; every other spec is a dense ``QuantumChannel``.
    Values out of range, and keys that the family does not read, are usage
    errors; every family reads ``type``, and only ``unitary_trace`` reads
    ``seed``. A DimensionError from construction is a size refusal (exit 3).
    """
    if not isinstance(spec, dict):
        raise UsageError("channel spec must be an object with a 'type' key")
    kind = _param(spec, "type", str).replace("-", "_")
    n_excited = _param(spec, "Np", int, None)
    restricted = kind == "partial_trace" and "N" in spec and n_excited is not None
    read = ("N", "Np", "split") if restricted else _FAMILY_KEYS.get(kind)
    if read is None:
        raise UsageError(f"unknown channel type {spec['type']!r}")
    _check_read(spec, ("type", *read), f"a channel spec of type {spec['type']!r}")
    info: dict = {"d_e_eff": None}
    with _parameter_errors("channel spec"):
        if kind == "identity":
            return identity_channel(_param(spec, "d", low=1)), info
        if kind == "depolarizing":
            return depolarizing(_param(spec, "d", low=1), _param(spec, "lambda", float)), info
        if restricted:
            n, sq = _param(spec, "N"), _param(spec, "split")
            ch = RestrictedPartialTrace(n, n_excited, sq)
            info["d_e_eff"] = effective_environment_dimension(ch, (sq, n - sq))
            return ch, info
        if kind in ("partial_trace", "unitary_trace"):
            d_s, d_e = _param(spec, "dS", low=1), _param(spec, "dE", low=1)
            seed = _param(spec, "seed", int, 0) if kind == "unitary_trace" else None
            info["d_e_eff"] = float(d_e)
            trace_out = partial_trace_channel(d_s, d_e)
            if seed is None:
                return trace_out, info
            return compose(trace_out, unitary_channel(haar_unitary(d_s * d_e, seed))), info
        if kind == "bns":
            n, k = _param(spec, "N", low=1), _param(spec, "k", low=1)
            _check_blocking(n, k)
            if n_excited is not None:
                return DetectorChannel(n, k, n_excited), info
            return bns_channel(n, k), info
        path = _param(spec, "path", str)
        try:
            return load_channel(path), info
        except (OSError, ValueError) as exc:  # a malformed file is a data error (exit 3)
            raise DataError(f"cannot load channel file: {exc}") from exc


_SPEC = "channel."  # dest prefix of the channel flags; the rest of the dest is the spec key


def _spec_from_args(entries: dict) -> dict:
    """The channel spec from the prefixed flag values: a file, or a builtin family.

    Every flag given is a spec key, and ``build_channel`` refuses one its family does not read.
    """
    if ("path" in entries) == ("type" in entries):
        raise UsageError("provide one of --channel NAME and --channel-file PATH")
    return {**entries, "type": entries.get("type", "file").replace("-", "_")}


# -- small IO helpers -----------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, FLOAT_FORMAT)
    return str(value)


def _base(out: str) -> str:
    return out[:-4] if out.endswith(".csv") else out


_PLOT_HEAD = """\"\"\"{title} from {csv_name}.\"\"\"
import csv
import os

import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))
"""

_PLOT_TAIL = """ax.legend()
fig.tight_layout()
fig.savefig(os.path.join(here, {png_name!r}), dpi=200)
print("wrote", {png_name!r})"""  # _write_lines ends the last line

_ENERGY_PLOT = """ms, p_trace, p_bns = [], [], []
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
"""

_BOUND_PLOT = """np_values, means, stds, bounds = [], [], [], []
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
"""


def _emit_plot_script(title: str, body: str, csv_path: str) -> str:
    """Write <base>_plot.py: the shared head, the figure's body, the shared tail."""
    base = _base(csv_path)
    script_path = base + "_plot.py"
    script = (_PLOT_HEAD + body + _PLOT_TAIL).format(
        title=title, csv_name=os.path.basename(csv_path),
        png_name=os.path.basename(base) + ".png")
    _write_lines(script_path, [script])
    return script_path


# -- commands --------------------------------------------------------------------


def _saved_channel(ch, path: str | None, outputs: list) -> list:
    if path is not None:
        save_channel(ch, path)
        outputs.append(path)
    return outputs


def run_entropy(params: dict) -> list:
    out, save_to = _param(params, "out", str), _param(params, "save_channel", str, None)
    ch, _ = build_channel(_param(params, "channel", dict))
    purity_choi, purity_kraus, s_l, bound = _entropy(ch)
    payload = {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "linear_entropy": s_l,
        "choi_purity": purity_choi,
        "choi_purity_kraus_route": purity_kraus,
        "purity_route_difference": abs(purity_choi - purity_kraus),
        "entropy_bound": bound,
    }
    print(f"linear entropy       : {_fmt(payload['linear_entropy'])}")
    print(f"Choi purity          : {_fmt(purity_choi)}")
    print(f"Choi purity (Kraus)  : {_fmt(purity_kraus)}")
    print(f"route difference     : {_fmt(payload['purity_route_difference'])}")
    print(f"mean-distance bound  : {_fmt(payload['entropy_bound'])}")
    _write_json(out, payload)
    return _saved_channel(ch, save_to, [out])


def run_figure_energy(params: dict) -> list:
    n, k = _param(params, "N", low=1, high=20000), _param(params, "k", low=1)
    np_excited, out = _param(params, "Np"), _param(params, "out", str)
    _check_blocking(n, k)
    with _parameter_errors("figure-energy parameters"):
        trace_dist = energy_distribution_trace(n, np_excited, k)
    bns_dist = energy_distribution_bns(n, np_excited, k)
    trace_p, bns_p = (dict(zip(d.support, d.floats)) for d in (trace_dist, bns_dist))
    _write_lines(out, ["m,p_trace,p_bns", *[
        f"{m},{trace_p.get(m, 0.0):{FLOAT_FORMAT}},{bns_p.get(m, 0.0):{FLOAT_FORMAT}}"
        for m in sorted(trace_p.keys() | bns_p.keys())]])
    base = _base(out)
    trace_csv = base + "_trace_exact.csv"
    bns_csv = base + "_bns_exact.csv"
    write_distribution_csv(trace_csv, trace_dist)
    write_distribution_csv(bns_csv, bns_dist)
    script = _emit_plot_script("Plot the two excitation-count distributions", _ENERGY_PLOT, out)
    print(f"trace-branch mean    : {_fmt(float(trace_dist.mean()))}")
    print(f"detector-branch mean : {_fmt(float(bns_dist.mean()))}")
    return [out, trace_csv, bns_csv, script]


def run_figure_bound(params: dict) -> list:
    n = _param(params, "N", low=2)  # Np runs over 1 .. N - 1: one site has no row
    k, samples = (_param(params, key, low=1) for key in ("k", "samples"))
    seed, out = _param(params, "seed"), _param(params, "out", str)
    _check_blocking(n, k)
    channels = [DetectorChannel(n, k, np_excited) for np_excited in range(1, n)]
    for ch in channels:  # every plan and sample is checked before the first draw
        _check_sampling(ch, samples)
    rows = []
    for np_excited in range(1, n):  # each row pops its channel: one plan alive at a time
        report = run_experiment(ExperimentConfig(
            channel=channels.pop(0), samples=samples,
            master_seed=derive_seed(seed, np_excited)))
        rows.append(f"{np_excited},{report.d_r},{report.mean_distance:{FLOAT_FORMAT}},"
                    f"{report.std_distance:{FLOAT_FORMAT}},{report.entropy_bound:{FLOAT_FORMAT}}")
    _write_lines(out, ["Np,d_R,mean_distance,std_distance,entropy_bound", *rows])
    script = _emit_plot_script("Plot mean distances against the entropy bound", _BOUND_PLOT, out)
    return [out, script]


def run_typicality(params: dict) -> list:
    config, out = _param(params, "config", dict), _param(params, "out", str)
    _check_read(config, _CONFIG_KEYS, "a typicality config")
    distances_csv = _param(params, "distances_csv", str, None)
    samples, master_seed = _param(config, "samples"), _param(config, "master_seed")
    eta_mode = _param(config, "eta_mode", str, "fixed_one")
    eta_trials = _param(config, "eta_trials", int, 16)
    epsilon_grid = tuple(_param({"epsilon_grid": e}, "epsilon_grid", float)
                         for e in _param(config, "epsilon_grid", list, []))
    ch, info = build_channel(_param(config, "channel", dict))
    with _parameter_errors("experiment config"):
        cfg = ExperimentConfig(channel=ch, samples=samples, master_seed=master_seed,
                               epsilon_grid=epsilon_grid, eta_mode=eta_mode,
                               eta_trials=eta_trials, d_e_eff=info["d_e_eff"])
    report = run_experiment(cfg)  # the entropy first: a refused one draws nothing
    report.save(out)
    outputs = [out]
    if distances_csv is not None:
        d = report.distances  # as Python floats a slice at a time, never the whole array
        _write_lines(distances_csv, itertools.chain(["index,distance"], (
            f"{i},{x:{FLOAT_FORMAT}}" for start in range(0, len(d), 4096)
            for i, x in enumerate(d[start:start + 4096].tolist(), start))))
        outputs.append(distances_csv)
    print(f"mean distance        : {_fmt(report.mean_distance)}")
    print(f"entropy bound        : {_fmt(report.entropy_bound)}")
    if report.partial_trace_bound is not None:
        print(f"partial-trace bound  : {_fmt(report.partial_trace_bound)}")
    return outputs


def run_lipschitz(params: dict) -> list:
    trials, seed = _param(params, "trials", low=1), _param(params, "seed")
    out, save_to = _param(params, "out", str), _param(params, "save_channel", str, None)
    ch, _ = build_channel(_param(params, "channel", dict))
    estimate, exact = _eta(ch, trials, seed)
    payload = {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "estimate": estimate,
        "trials": trials,
        "seed": seed,
    }
    label = "Lipschitz constant" if exact else "Lipschitz lower bound"
    print(f"{label:<21}: {_fmt(estimate)}")
    _write_json(out, payload)
    return _saved_channel(ch, save_to, [out])


# each command and the parameter keys it reads
COMMANDS = {
    "entropy": (run_entropy, ("channel", "out", "save_channel")),
    "figure-energy": (run_figure_energy, ("N", "Np", "k", "out")),
    "figure-bound": (run_figure_bound, ("N", "k", "samples", "seed", "out")),
    "typicality": (run_typicality, ("config", "out", "distances_csv")),
    "lipschitz": (run_lipschitz, ("channel", "trials", "seed", "out", "save_channel")),
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
        return cls(**{f.name: data[f.name] for f in fields(cls)})


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
    run, read = COMMANDS[command]
    _check_read(params, read, f"the {command} command")  # a replayed manifest's typo too
    outputs = run(params)
    manifest_path = _write_manifest(command, params, outputs, started)
    print(f"manifest             : {manifest_path}")
    return outputs


def run_replay(params: dict) -> list:
    try:
        manifest = RunManifest.load(params["manifest"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read manifest: {exc}") from exc
    if not isinstance(manifest.parameters, dict):
        raise DataError(f"cannot read manifest: parameters {manifest.parameters!r} "
                        "is not an object")
    if not isinstance(manifest.command, str) or manifest.command not in COMMANDS:
        raise DataError(f"manifest names unknown command {manifest.command!r}")
    return _execute(manifest.command, manifest.parameters)


# -- argument parsing --------------------------------------------------------------


def _add_channel_flags(p: argparse.ArgumentParser) -> None:
    """The channel spec flags; each one's dest is _SPEC plus its spec key."""
    p.add_argument("--channel", dest=_SPEC + "type", help="builtin channel family",
                   choices=["identity", "depolarizing", "partial-trace", "unitary-trace", "bns"])
    p.add_argument("--channel-file", dest=_SPEC + "path",
                   help="JSON Kraus file (alternative to --channel)")
    p.add_argument("--d", type=int, dest=_SPEC + "d", help="dimension for identity / depolarizing")
    p.add_argument("--lambda", type=float, dest=_SPEC + "lambda", help="depolarizing strength")
    p.add_argument("--dS", type=int, dest=_SPEC + "dS", help="kept-factor dimension")
    p.add_argument("--dE", type=int, dest=_SPEC + "dE", help="traced-factor dimension")
    p.add_argument("--N", type=int, dest=_SPEC + "N", help="number of sites")
    p.add_argument("--Np", type=int, dest=_SPEC + "Np",
                   help="number of excitations (restricts the input)")
    p.add_argument("--k", type=int, dest=_SPEC + "k", help="number of detector blocks")
    p.add_argument("--split", type=int, dest=_SPEC + "split",
                   help="leading system qubits (restricted partial trace)")
    p.add_argument("--unitary-seed", type=int, dest=_SPEC + "seed",
                   help="seed of the random reshuffling unitary (unitary-trace only; default 0)")
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

    p = sub.add_parser("lipschitz", help="lower bound on the channel Lipschitz constant; "
                                         "restricted specs report the exact value")
    _add_channel_flags(p)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="lipschitz.json")

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("--manifest", required=True)

    return parser


def _params_from_args(args: argparse.Namespace) -> tuple[str, dict]:
    """The command and its parameters: every flag given or defaulted, keyed by its dest.

    Flags left unset are absent. The _SPEC-prefixed flags form the ``channel`` spec,
    and ``typicality`` stores the contents of its config file, not the path.
    """
    params = {key: value for key, value in vars(args).items() if value not in (None, "")}
    command = params.pop("cmd")
    spec = {key[len(_SPEC):]: params.pop(key) for key in list(params) if key.startswith(_SPEC)}
    if _SPEC + "type" in vars(args):  # a command with channel flags
        params["channel"] = _spec_from_args(spec)
    if command == "typicality":
        try:
            with open(params["config"], "r", encoding="utf-8") as fh:
                params["config"] = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot parse config: {exc}") from exc
    return command, params


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it costs about a millisecond; parsing leaves it as is."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
