"""Benchmark of the qtypical CLI on three workloads, with an optional traced run.

Run from the root of a source checkout:

    python3 bench/run.py --workload typicality-ptrace --seed 7 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 2024 --seconds 50 --trace 0
    python3 bench/run.py --workload all --check

``--trace 0`` repeats the workload while one more pass is expected to end
within ``--seconds`` seconds (always at least once) and reports the
end-to-end metrics: setup_s (median of SETUP_PROBES fresh interpreters that
import the package and generate the inputs), wall_s (median time of one pass
over the workload's commands, outputs written and checked) and peak_rss_mb
(peak RSS up to the end of the first pass). ``--trace 1`` makes the same
untraced passes, then one more pass with the layer wrappers of tracer.py
installed, and reports the per-layer metrics named in BENCHMARK.json plus the
tracing overhead (traced pass minus the median untraced pass); the spans are
written to .bench_out/.
``--check`` runs each workload once at the reference seed and replays one
manifest per workload through ``qtypical replay``, comparing output bytes.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import workloads  # stdlib only: the package is imported after BENCH_ENV is set
from tracer import FUNCTIONS, METHODS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 900

# Set before numpy is first imported. One BLAS thread and one sampling
# thread: the small per-sample GEMMs and eigensolves run slower and far less
# steadily with two BLAS threads on a two-core machine, and no more threads
# than cores are ever started. No transparent huge pages for numpy arrays:
# whether the kernel can back them depends on the state of system memory, and
# it moved the canonical-bns peak RSS between 457 MB and 496 MB.
BENCH_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "QTYPICAL_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}

# glibc raises its mmap threshold each time it frees a mapped block, so which
# temporaries land on the heap, and so the peak RSS, depends on the order of
# earlier frees: bound-sweep peaked at either 111.5 MB or 129.9 MB. Fixing the
# thresholds at the values that rule reaches after freeing a 32 MiB block
# makes peak RSS repeat within 1 % for a given way of invoking the benchmark.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLDS = {M_MMAP_THRESHOLD: 32 << 20, M_TRIM_THRESHOLD: 64 << 20}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true",
                   help="reference-seed run plus manifest replay instead of a timed run")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- fingerprint ----------------------------------------------------------------------


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit():
    head = _read_text(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read_text(os.path.join(ROOT, ".git", ref))
    if commit is None:
        for line in (_read_text(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def _blas_threads_in_effect():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    maps = (_read_text("/proc/self/maps") or "").splitlines()
    libs = sorted({line.split()[-1] for line in maps
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def fix_malloc_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds; False where mallopt is unavailable."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    return all(mallopt(param, value) == 1 for param, value in MALLOC_THRESHOLDS.items())


def fingerprint(malloc_fixed: bool) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _read_text("/sys/fs/cgroup/cpu.max"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas and {k: blas.get(k)
                          for k in ("name", "version", "openblas configuration")},
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "env": {k: os.environ.get(k) for k in BENCH_ENV},
        "malloc_thresholds_fixed": malloc_fixed,
        "git_commit": _git_commit(),
    }


# -- one pass over a workload ---------------------------------------------------------------


def run_command(cli, cmd, tracer=None):
    """Run one command and check its outputs; distances delivered, or None on failure."""
    span = tracer.span("cli." + cmd.name) if tracer else contextlib.nullcontext()
    try:
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(cmd.argv)
    except (Exception, SystemExit):  # a crashing command is one failed operation
        traceback.print_exc()
        return None
    if code != 0:
        print(f"{cmd.name}: exit code {code}", file=sys.stderr)
        return None
    try:
        return cmd.check()
    except (workloads.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        print(f"{cmd.name}: output check failed: {exc}", file=sys.stderr)
        return None


def run_pass(cli, commands, tracer=None) -> dict:
    failed = delivered = 0
    start = perf_counter()
    for cmd in commands:
        got = run_command(cli, cmd, tracer)
        if got is None:
            failed += 1
        else:
            delivered += got
    return {"wall_s": perf_counter() - start, "attempted": len(commands),
            "failed": failed, "delivered": delivered}


# -- modes -----------------------------------------------------------------------------------


@contextlib.contextmanager
def workdir(workload):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix=workload + "-", dir=OUT_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_probe(args) -> int:
    """Child side of a setup_s probe: import, generate inputs, then say so."""
    import qtypical.cli  # noqa: F401  (the import a workload run pays)

    with workdir(args.workload) as path:
        workloads.build(args.workload, args.seed, path, workloads.load_reference())
        print("ready", flush=True)
    return 0


def measure_setup(args) -> float:
    """Median time from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return statistics.median(times)


def layer_metrics(spec, tracer, untraced_wall_s, traced) -> dict:
    calls, self_s, total_s = tracer.totals()
    spans = {name for name, *_ in FUNCTIONS + METHODS}
    counters = tracer.counters
    drawn = counters["typicality.samples_drawn"]
    fixed = {
        "channels.apply_pure.bytes": counters["channels.apply_pure.bytes"],
        "channels.choi.bytes": counters["channels.choi.bytes"],
        "channels.kraus_stack.bytes": counters["channels.kraus_stack.bytes"],
        "channels.purity_evals_per_channel":
            counters["purity_evals"] / counters["purity_channels"]
            if counters["purity_channels"] else 0.0,
        "typicality.samples_drawn": drawn,
        "typicality.samples_delivered": traced["delivered"],
        "typicality.sample_yield": traced["delivered"] / drawn if drawn else 0.0,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.traced_wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced_wall_s,
        "trace.spans": len(tracer.span_names),
    }
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        base, _, suffix = name.rpartition(".")
        if name in fixed:
            values[name] = fixed[name]
        elif suffix == "calls" and base in spans:
            values[name] = calls.get(base, 0)
        elif suffix == "self_s" and base in spans:
            values[name] = self_s.get(base, 0.0)
        elif suffix == "s" and base.startswith("cli."):
            values[name] = total_s.get(base, 0.0)
        else:
            raise KeyError(f"BENCHMARK.json names per-layer metric {name!r}, "
                           "which run.py does not measure")
        values[name] = {"value": values[name], "unit": metric["unit"]}
    return values


def run_workload(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    setup_s = None if args.trace else measure_setup(args)
    from qtypical import cli

    ref = workloads.load_reference()
    with workdir(args.workload) as path:
        commands = workloads.build(args.workload, args.seed, path, ref)
        start = perf_counter()
        passes = [run_pass(cli, commands)]
        # the peak over import, input generation and one pass: later passes
        # raise it by heap fragmentation, so it would follow the pass count
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # start a pass only if one as long as the last still ends within --seconds
        while perf_counter() - start + passes[-1]["wall_s"] <= args.seconds:
            passes.append(run_pass(cli, commands))
        wall_s = statistics.median(p["wall_s"] for p in passes)
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced = run_pass(cli, commands, tracer)
            metrics = layer_metrics(spec, tracer, wall_s, traced)
            trace_csv = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.csv")
            tracer.write_csv(trace_csv)
            print(f"spans written to {os.path.relpath(trace_csv, ROOT)}")
            passes.append(traced)
        else:
            values = {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  pass wall_s "
          + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    delivered = passes[0]["delivered"]
    if not args.trace and delivered:
        rate = statistics.median(p["delivered"] / p["wall_s"] for p in passes)
        print(f"  {'samples_per_s':<48} {rate:.6g} 1/s  ({delivered} distances per pass)")
    print(f"  {'failed_frac':<48} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} commands)")
    print("fingerprint " + json.dumps(fingerprint(args.malloc_fixed), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run_check(args) -> int:
    """Reference-seed pass plus replay of one manifest, outputs compared byte for byte."""
    from qtypical import cli

    with workdir(args.workload) as path:
        commands = workloads.build(args.workload, workloads.DEFAULT_SEED, path,
                                   workloads.load_reference())
        result = run_pass(cli, commands)
        cmd = commands[-1]
        try:
            with open(cmd.manifest, encoding="utf-8") as fh:
                outputs = json.load(fh)["outputs"]
            before = [_read_bytes(p) for p in outputs]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["replay", "--manifest", cmd.manifest])
            same = code == 0 and [_read_bytes(p) for p in outputs] == before
        except (OSError, ValueError, KeyError) as exc:
            print(f"replay of {cmd.name} failed: {exc}", file=sys.stderr)
            outputs, same = [], False
    print(f"{args.workload}: {result['failed']} of {result['attempted']} commands failed "
          f"at seed {workloads.DEFAULT_SEED}; replay of {cmd.name} "
          f"{'byte-identical' if same else 'DIFFERS'} over {len(outputs)} outputs")
    ok = result["failed"] == 0 and same
    print("fingerprint " + json.dumps(fingerprint(args.malloc_fixed), sort_keys=True))
    print(json.dumps({"correct": ok, "attempted": result["attempted"] + 1,
                      "failed": result["failed"] + (not same), "metrics": {}}))
    return 0 if ok else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results, code = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--check"] if args.check else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            results[name] = None
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qtypical", "__init__.py")):
        print(f"error: no package source at {os.path.relpath(SRC)}/qtypical; "
              "run the benchmark from the root of a full checkout", file=sys.stderr)
        return 2
    os.environ.update(BENCH_ENV)
    args.malloc_fixed = fix_malloc_thresholds()
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    if args.check:
        return run_check(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
