"""Monte Carlo distance experiments against the canonical state of a channel.

A channel acting on a restricted space defines its canonical state as the
image of the maximally mixed state. The experiment samples Haar-random pure
inputs, measures their trace distance to the canonical state, and compares
the statistics against two analytic bounds: the entropy bound
(1/2) sqrt(d_S (1 - S_L)) on the mean, and the concentration tail bound
2 exp(-C d_R eps^2 / (4 eta^2)) with C = 2 / (9 pi^3). The entropy bound is
evaluated as (1/2) sqrt(d_S min(P, 1)) from the gated Choi purity P = 1 - S_L
itself: forming 1 - S_L would cancel a purity below about 1e-16 to nothing.

Every reported number comes from here: ``_entropy`` (one evaluation of the
purity routes) and ``run_experiment``, which the CLI's ``typicality`` runs
once and its ``figure-bound`` once per Np.

The entropy bound is also a consistency gate: a report whose mean distance
exceeds it by more than 3 std / sqrt(samples) (plus 1e-12), with std the
sample standard deviation, raises ``ConsistencyError``. The gate needs a
spread, so it does not apply at one sample: a single draw may lie above a
bound on the mean. In the normal approximation to the sample mean, a correct
run whose true mean sits exactly on the bound fails the gate with probability
P(Z > 3) ~ 0.135 %, and far less below it. At the reference seed
(``bench/reference.json``) the mean lies 122 standard errors below the bound on
the partial trace 10/5/3 (mean/bound 0.789), and at least 110 on every row of
the N = 8 bound sweep (mean/bound at most 0.614). The range check
0 <= mean <= max + 1e-12 and max <= 1 + 1e-9 applies at every sample count and
raises ``ConsistencyError`` too; the 1e-12 lets the rounded mean of equal
distances, as an isometry gives, pass their max.

A channel here is anything with the channel interface (``dim_in``,
``dim_out``, ``distances_to_canonical``, ``_distance_row_bytes``,
``choi_purity_routes``, and ``apply_pure_batch`` and ``_row_bytes`` for the
Lipschitz search; ``tests/test_conformance.py`` checks every channel class
on it against its dense oracle): a dense ``QuantumChannel``, or one of the
matrix-free restricted channels, which never form a Kraus array or a Choi
matrix. These share their exact quantities (``restriction._PatternChannel``):
a diagonal canonical state, an entropy gated on two exact purity counts, and
``exact_eta``, the exact Lipschitz constant that an "estimated" eta takes in
place of the search's lower bound. ``restriction.RestrictedPartialTrace``
gathers each weight block of its input from contiguous runs of the basis and
enumerates no basis; ``bns.DetectorChannel`` sums its input into the tables
of a grouping plan, which alone enumerates its basis; its row bytes check the
plan's bytes from counts first, since no row is applied without the plan.

Sampling runs in chunks: each chunk fills one block with its Haar vectors in
place (``qcore._haar_rows``: one generator per chunk, re-seeded before each
sample to the state ``PCG64(seed)`` starts from) and takes the whole block's
trace distances from one ``distances_to_canonical`` call. A dense channel and
the detector apply the block, subtract the canonical state and run one
batched eigensolve; the restricted partial trace works block by block on its
system weights and forms neither a d_S x d_S output nor a dense canonical
state. A sample costs its state plus the channel's ``_distance_row_bytes``,
and ``qcore._block_items`` makes the chunk as many samples as fit 16 MiB
(``_BLOCK_BYTES``, within the 512 MiB dense budget), at most _BLOCK_ROWS.
``_check_sampling`` refuses a channel over budget at one sample, the
detector's plan included, and then a run whose distances are over budget at
24 bytes a sample (the distances, their deviations from the mean, and one
temporary): all from counts, before ``run_experiment`` evaluates the entropy
or draws a chunk, and for every row before ``figure-bound`` draws its first.
Sample i always uses seed derive_seed(master_seed, i), so it depends only on
(master_seed, i). The chunk follows from the channel's dimensions and
fixed constants alone, so output bytes never depend on the machine or on any
thread setting; QTYPICAL_THREADS is ignored.

The chunks are shared among W processes. One ``distances_to_canonical`` call on
zero rows first builds what the channel caches; then, of the C chunks, process j
takes chunks C j // W up to C (j + 1) // W, the caller the last share and a
forked worker each other one, all writing into one shared anonymous mapping:
the read-only array returned. A share that cannot be forked, or whose worker
fails, is computed by the caller once every worker is reaped. W is the least of
the usable CPUs (``os.sched_getaffinity``), the chunks and the chunks the
512 MiB budget holds at once. W is 1, and nothing is forked, without
``os.fork`` or ``os.sched_getaffinity`` and in a program with a second Python
thread. No option sets W; ``taskset`` or a cpuset limits it. The bytes do not
depend on W, since a distance depends only on its sample's seed. A traced run
sees the caller's share only; on Python 3.12 and later ``os.fork`` warns when
other threads, such as OpenBLAS's, are running.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
import signal
import sys
import threading
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from . import qcore
from .channels import ConsistencyError, QuantumChannel, _eta, _gated_linear_entropy
from .qcore import (
    DensityOperator,
    DimensionError,
    _block_items,
    _check_dense_bytes,
    _count,
    _derive_seeds,
    _haar_rows,
    _write_json,
    derive_seed,
)

if TYPE_CHECKING:
    from .bns import DetectorChannel
    from .restriction import RestrictedPartialTrace

__all__ = [
    "LEVY_CONSTANT",
    "ExperimentConfig",
    "TypicalityReport",
    "canonical_state",
    "sample_distances",
    "entropy_bound",
    "partial_trace_bound",
    "levy_tail_bound",
    "run_experiment",
]

LEVY_CONSTANT = 2.0 / (9.0 * math.pi**3)
ETA_STREAM_INDEX = 0xFFFFFFFFFFFFFFFF  # seed stream index reserved for eta estimation


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Inputs of one Monte Carlo run.

    ``channel`` is a ``QuantumChannel``, a ``RestrictedPartialTrace`` or a
    ``DetectorChannel``; the run uses only their shared interface. ``eta_mode``
    selects the Lipschitz constant used in the tail bound: "fixed_one" uses the
    channel-independent value 1; "estimated" uses the channel's exact value where
    it has one (``exact_eta`` of the two matrix-free channels, 1 or 0), and
    otherwise runs the lower-bound search with ``eta_trials`` restarts. A searched
    eta is only a lower bound, so it makes the tail comparison diagnostic rather
    than conservative; an exact eta does not.
    """

    channel: QuantumChannel | RestrictedPartialTrace | DetectorChannel
    samples: int
    master_seed: int
    epsilon_grid: tuple = ()
    eta_mode: str = "fixed_one"
    eta_trials: int = 16
    d_e_eff: float | None = None  # set in partial-trace scenarios only

    def __post_init__(self):
        for name in ("samples", "master_seed", "eta_trials"):  # numpy ints too; 10.5 is a TypeError
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        eps = tuple(float(e) for e in self.epsilon_grid)
        if any(not 0.0 < e <= 1.0 for e in eps):
            raise ValueError("epsilon values must lie in (0, 1]")
        if self.eta_mode not in ("fixed_one", "estimated"):
            raise ValueError(f"unknown eta_mode {self.eta_mode!r}")
        if self.eta_mode == "estimated" and self.eta_trials < 1:
            raise ValueError("eta_trials must be >= 1 when eta is estimated")
        object.__setattr__(self, "epsilon_grid", eps)


def canonical_state(ch) -> DensityOperator:
    """Image of the maximally mixed input: the canonical state of the channel."""
    return ch.canonical_state()


def sample_distances(cfg: ExperimentConfig) -> np.ndarray:
    """Trace distances of channel outputs of Haar samples to the canonical state.

    A read-only float64 array in sample order: entry i is the distance for the state
    haar_sample(dim_in, derive_seed(master_seed, i)). Chunks and shares are drawn as the
    module docstring describes. Each chunk's states and work arrays are released before
    the next chunk is drawn, so the peak of a process is one chunk, and every refusal
    comes before the zero-row call.
    """
    row = _check_sampling(cfg.channel, cfg.samples)
    chunk = min(_block_items(row, 1), cfg.samples)
    chunks = -(-cfg.samples // chunk)
    workers = _worker_count(chunks, chunk * row)
    distances = np.frombuffer(mmap.mmap(-1, 8 * cfg.samples))  # forked workers write here too
    cfg.channel.distances_to_canonical(np.empty((0, cfg.channel.dim_in), np.complex128))
    _distribute(distances, cfg, chunk, [range(chunks * j // workers, chunks * (j + 1) // workers)
                                        for j in range(workers)])
    distances.setflags(write=False)
    return distances


def _fill(distances: np.ndarray, cfg: ExperimentConfig, chunk: int, share: range) -> None:
    """Write the distances of the chunks numbered in ``share`` into ``distances``."""
    ch = cfg.channel
    for start in range(share.start * chunk, min(share.stop * chunk, cfg.samples), chunk):
        stop = min(start + chunk, cfg.samples)
        psis = _haar_rows(ch.dim_in, _derive_seeds(cfg.master_seed, start, stop))
        distances[start:stop] = ch.distances_to_canonical(psis)
        del psis  # the next chunk is drawn without this one alive


def _worker_count(chunks: int, chunk_bytes: int) -> int:
    """Processes that share ``chunks`` chunks of ``chunk_bytes`` each, the parent included.

    One per usable CPU (``os.sched_getaffinity``, so ``taskset`` and cpusets limit
    it), at most one per chunk, and no more than the budget holds chunks in flight
    at once. One, and no fork, where the platform has no ``fork`` or no affinity,
    and in a threaded program, whose forked child could deadlock.
    """
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), chunks,
                      qcore._DENSE_BYTES_LIMIT // chunk_bytes))


def _distribute(distances: np.ndarray, cfg: ExperimentConfig, chunk: int, shares: list) -> None:
    """Fill ``distances`` on every share: one forked worker on each share but the
    last, and the last, the largest, in this process.

    A worker fills its share and leaves through ``os._exit``, with status 0 only on
    success, so it runs no atexit handler and flushes no stdio buffer it inherited.
    Every worker is reaped before this returns; if this process raises, its workers
    are killed first. A share that could not be forked, or whose worker did not exit
    0, is computed here after the reaping, so its exception is raised here with its
    own type.
    """
    forked, failed = {}, []
    try:
        for share in shares[:-1]:
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                failed.append(share)
                continue
            if pid == 0:
                status = 1
                try:
                    _fill(distances, cfg, chunk, share)
                    status = 0
                finally:
                    os._exit(status)
            forked[pid] = share
        _fill(distances, cfg, chunk, shares[-1])
    except BaseException:
        for pid in forked:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        failed += [share for pid, share in forked.items() if not _exited_cleanly(pid)]
    for share in failed:
        _fill(distances, cfg, chunk, share)


def _exited_cleanly(pid: int) -> bool:
    """Reap a worker: True if it exited 0. A worker reaped elsewhere (SIGCHLD
    ignored) has lost its status and counts as failed."""
    try:
        return os.waitpid(pid, 0)[1] == 0
    except ChildProcessError:
        return False


def _check_sampling(ch, samples: int) -> int:
    """Bytes one sample needs, its state and the channel's ``_distance_row_bytes``, refused
    above the 512 MiB budget (the detector's plan first) so that a chunk of one sample
    fits; then the run is refused at 24 bytes a sample (the distances, their deviations,
    one temporary). Every refusal of sampling, from counts."""
    row = 16 * ch.dim_in + ch._distance_row_bytes
    _check_dense_bytes(row, f"one sampled state of dimension {_count(ch.dim_in)}, its output "
                       f"of dimension {_count(ch.dim_out)} and work arrays")
    _check_dense_bytes(24 * samples, f"the distances of {samples} samples")
    return row


def entropy_bound(ch) -> float:
    """Mean-distance bound (1/2) sqrt(d_S min(P, 1)), computed from the Choi purity P."""
    return _entropy(ch)[3]


def _entropy(ch) -> tuple[float, float, float, float]:
    """(Choi purity, Kraus-route purity, linear entropy, entropy bound) from one gated
    evaluation of the purity routes; a bound beyond the float range is a size refusal."""
    purity_choi, purity_kraus = ch.choi_purity_routes()
    s_l = _gated_linear_entropy(purity_choi, purity_kraus)
    d_s = ch.dim_out  # m 2^e, e even: e = 0 where d_S fits a float, else m has 64 or 65 bits
    e = 0 if d_s <= sys.float_info.max else (d_s.bit_length() - 64) & ~1
    # min(P, 1) is 1 - S_L read off P: 1 - S_L would cancel a purity below ~1e-16
    root = 0.5 * math.sqrt((d_s >> e) * min(purity_choi, 1.0))
    try:
        return purity_choi, purity_kraus, s_l, math.ldexp(root, e // 2)
    except OverflowError:
        raise DimensionError(f"the entropy bound (1/2) sqrt(d_S P) = "
                             f"2^{math.log2(root) + e // 2:.1f} exceeds the float range") from None


def partial_trace_bound(d_s: int, d_e_eff: float) -> float:
    """Mean-distance bound (1/2) sqrt(d_S / d_E_eff) for partial-trace scenarios."""
    if d_e_eff <= 0:
        raise ValueError("effective environment dimension must be positive")
    return 0.5 * math.sqrt(d_s / d_e_eff)


def levy_tail_bound(d_r: int, epsilon: float, eta: float) -> float:
    """Concentration bound 2 exp(-C d_R eps^2 / (4 eta^2)), unclamped.

    Reports clamp the value to [0, 1]; here the raw value is returned so the
    looseness at small d_R stays visible. ``eta = 0`` means a constant
    channel, whose tail is exactly zero for any positive epsilon.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if eta == 0.0:
        return 0.0 if epsilon > 0 else 2.0
    return 2.0 * math.exp(-LEVY_CONSTANT * d_r * epsilon**2 / (4.0 * eta**2))


@dataclass(frozen=True, eq=False)
class TypicalityReport:
    """Aggregated Monte Carlo statistics next to the analytic bounds.

    ``tail_table`` rows are (epsilon, empirical fraction of samples with |D - mean| >
    epsilon, clamped tail bound). ``tail_diagnostic_only`` is set when ``eta_used`` came
    from the lower-bound search. ``distances``, in sample order, is left out of the JSON.
    """

    d_r: int
    d_s: int
    samples: int
    master_seed: int
    mean_distance: float
    std_distance: float
    max_distance: float
    entropy_bound: float
    linear_entropy: float
    eta_mode: str
    eta_used: float
    tail_table: tuple = ()
    partial_trace_bound: float | None = None
    tail_diagnostic_only: bool = False
    distances: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)

    def __post_init__(self):
        # the mean of equal distances can round one ulp above their max
        if not (0.0 <= self.mean_distance <= self.max_distance + 1e-12
                and self.max_distance <= 1.0 + 1e-9):
            raise ConsistencyError("distance statistics violate 0 <= mean <= max <= 1")
        slack = 3.0 * self.std_distance / math.sqrt(self.samples)
        # one draw has no spread to judge a bound on the mean by
        if self.samples > 1 and self.mean_distance > self.entropy_bound + slack + 1e-12:
            raise ConsistencyError(
                f"mean distance {self.mean_distance!r} exceeds the entropy bound "
                f"{self.entropy_bound!r} beyond statistical slack"
            )

    def to_json_dict(self) -> dict:
        """Every field but ``distances``, read directly: ``asdict`` would deep-copy them."""
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "distances"}
        data["tail_table"] = [{"epsilon": e, "empirical_tail": f, "levy_bound": b}
                              for e, f, b in self.tail_table]
        return data

    def save(self, path) -> None:
        _write_json(path, self.to_json_dict())


def run_experiment(cfg: ExperimentConfig) -> TypicalityReport:
    """Full experiment: entropy, sampling, aggregation, bounds, and the tail table.

    The sample size is checked first, from counts, and then the linear entropy is
    evaluated, so neither a sample nor an entropy over the dense budget draws a
    state, and a sample over budget is refused before any entropy work. The report
    carries the sampled distances.
    """
    ch = cfg.channel
    _check_sampling(ch, cfg.samples)
    _, _, s_l, mean_bound = _entropy(ch)
    distances = sample_distances(cfg)
    mean = float(np.mean(distances))
    top = float(np.max(distances))

    if cfg.eta_mode == "fixed_one":
        eta, diagnostic = 1.0, False
    else:
        eta, exact = _eta(ch, cfg.eta_trials, derive_seed(cfg.master_seed, ETA_STREAM_INDEX))
        diagnostic = not exact  # a searched eta is only a lower bound
    deviations = distances - mean  # one array for every epsilon and the spread
    np.abs(deviations, out=deviations)
    tail_rows = tuple((eps, float(np.mean(deviations > eps)),
                       min(1.0, max(0.0, levy_tail_bound(ch.dim_in, eps, eta))))
                      for eps in cfg.epsilon_grid)
    # squared in place, summed pairwise, divided by n - 1 and rooted: numpy std, ddof=1, bit for bit
    deviations *= deviations
    std = math.sqrt(float(np.sum(deviations)) / (cfg.samples - 1)) if cfg.samples > 1 else 0.0
    p_bound = None if cfg.d_e_eff is None else partial_trace_bound(ch.dim_out, cfg.d_e_eff)
    return TypicalityReport(
        d_r=ch.dim_in, d_s=ch.dim_out, samples=cfg.samples, master_seed=cfg.master_seed,
        mean_distance=mean, std_distance=std, max_distance=top, entropy_bound=mean_bound,
        linear_entropy=s_l, eta_mode=cfg.eta_mode, eta_used=eta, tail_table=tail_rows,
        partial_trace_bound=p_bound, tail_diagnostic_only=diagnostic, distances=distances)
