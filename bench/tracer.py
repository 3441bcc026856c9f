"""In-memory span tracing of the qtypical layers, installed from outside the package.

``Tracer.installed()`` wraps each public function listed in FUNCTIONS and
METHODS for the duration of a ``with`` block and restores the originals on
exit. A function is replaced under every name that refers to it in any
``qtypical`` module, so ``typicality.haar_sample`` and ``cli.bns_channel``
are recorded as well as the defining module's name. Untraced runs never
construct a Tracer, so they run the package unmodified.

Each call records one span (name, start, end, parent span). The self time of
a span is its duration minus the durations of its direct children. The
recorder keeps one parent stack, so it assumes the single-threaded sampling
that ``QTYPICAL_THREADS=1`` selects.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import sys
import weakref
from collections import defaultdict
from time import perf_counter

COMPLEX_BYTES = 16

# (span name, module, attribute): free functions of the package
FUNCTIONS = [
    ("qcore.haar_sample", "qcore", "haar_sample"),
    ("qcore.trace_distance", "qcore", "trace_distance"),
    ("qcore.derive_seed", "qcore", "derive_seed"),
    ("channels.choi_to_kraus", "channels", "choi_to_kraus"),
    ("channels.tensor", "channels", "tensor"),
    ("channels.lipschitz_estimate", "channels", "lipschitz_estimate"),
    ("restriction.enumerate_basis", "restriction", "enumerate_basis"),
    ("restriction.restrict_channel", "restriction", "restrict_channel"),
    ("restriction.effective_environment_dimension", "restriction",
     "effective_environment_dimension"),
    ("bns.block_channel", "bns", "block_channel"),
    ("bns.bns_channel", "bns", "bns_channel"),
    ("bns.canonical_spectrum", "bns", "canonical_spectrum"),
    ("bns.energy_distribution_trace", "bns", "energy_distribution_trace"),
    ("bns.energy_distribution_bns", "bns", "energy_distribution_bns"),
    ("typicality.sample_distances", "typicality", "sample_distances"),
    ("typicality.run_experiment", "typicality", "run_experiment"),
    ("typicality.canonical_state", "typicality", "canonical_state"),
    ("cli.build_channel", "cli", "build_channel"),
]

# (span name, module, class, method): methods are patched on the class itself
METHODS = [
    ("channels.QuantumChannel.init", "channels", "QuantumChannel", "__init__"),
    ("channels.apply_pure", "channels", "QuantumChannel", "apply_pure"),
    ("channels.choi", "channels", "QuantumChannel", "choi"),
    ("channels.linear_entropy", "channels", "QuantumChannel", "linear_entropy"),
    ("channels.choi_purity_routes", "channels", "QuantumChannel", "choi_purity_routes"),
    ("cli.RunManifest.save", "cli", "RunManifest", "save"),
]


def stack_bytes(ch) -> int:
    """Bytes of the stacked Kraus family, computed from the channel's shape."""
    return ch.n_kraus * ch.dim_out * ch.dim_in * COMPLEX_BYTES


class Tracer:
    """Span recorder plus the counters observed at the same boundaries."""

    def __init__(self):
        self.span_names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.child_time: list[float] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._purity_channels = weakref.WeakSet()
        self._observers = {
            "channels.apply_pure": self._observe_apply_pure,
            "channels.QuantumChannel.init": self._observe_init,
            "channels.choi": self._observe_choi,
            "channels.linear_entropy": self._observe_purity,
            "channels.choi_purity_routes": self._observe_purity,
            "typicality.sample_distances": self._observe_sample_distances,
        }

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.starts)
        self.span_names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.child_time.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        end = perf_counter()
        self._stack.pop()
        self.ends[i] = end
        parent = self.parents[i]
        if parent >= 0:
            self.child_time[parent] += end - self.starts[i]

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name: str, fn):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- counters observed at span boundaries --------------------------------

    def _observe_apply_pure(self, args, result):
        self.counters["channels.apply_pure.bytes"] += stack_bytes(args[0])

    def _observe_init(self, args, result):
        c = self.counters
        c["channels.kraus_stack.bytes"] = max(c["channels.kraus_stack.bytes"],
                                              stack_bytes(args[0]))

    def _observe_choi(self, args, result):
        ch = args[0]
        c = self.counters
        c["channels.choi.bytes"] = max(c["channels.choi.bytes"],
                                       (ch.dim_in * ch.dim_out) ** 2 * COMPLEX_BYTES)

    def _observe_purity(self, args, result):
        ch = args[0]
        self.counters["purity_evals"] += 1
        if ch not in self._purity_channels:
            self._purity_channels.add(ch)
            self.counters["purity_channels"] += 1

    def _observe_sample_distances(self, args, result):
        self.counters["typicality.samples_drawn"] += len(result)

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function and method; restore the originals on exit."""
        package = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "qtypical" or name.startswith("qtypical."))}
        undo = []
        try:
            for name, mod_name, attr in FUNCTIONS:
                original = getattr(package["qtypical." + mod_name], attr)
                traced = self._wrap(name, original)
                for mod in package.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, traced)
            for name, mod_name, cls_name, attr in METHODS:
                cls = getattr(package["qtypical." + mod_name], cls_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # -- results ---------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: number of calls, summed self time and summed total time (s)."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.span_names):
            duration = self.ends[i] - self.starts[i]
            calls[name] += 1
            self_s[name] += duration - self.child_time[i]
            total_s[name] += duration
        return calls, self_s, total_s

    def write_csv(self, path) -> None:
        """All spans, times in seconds from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "parent", "start_s", "end_s", "self_s"])
            for i, name in enumerate(self.span_names):
                start, end = self.starts[i], self.ends[i]
                writer.writerow([i, name, self.parents[i], f"{start - t0:.9f}",
                                 f"{end - t0:.9f}",
                                 f"{end - start - self.child_time[i]:.9f}"])
