"""Monte Carlo distance experiments against the canonical state of a channel.

A channel acting on a restricted space defines its canonical state as the
image of the maximally mixed state. The experiment samples Haar-random pure
inputs, measures their trace distance to the canonical state, and compares
the statistics against two analytic bounds: the entropy bound
(1/2) sqrt(d_S (1 - S_L)) on the mean, and the concentration tail bound
2 exp(-C d_R eps^2 / (4 eta^2)) with C = 2 / (9 pi^3).

A channel here is anything with the channel interface (``dim_in``,
``dim_out``, ``apply_pure_batch``, ``canonical_state``, ``linear_entropy``):
a dense ``QuantumChannel``, or one of the matrix-free restricted channels
``restriction.RestrictedPartialTrace`` and ``bns.DetectorChannel``, whose
canonical states and entropies are exact counts and which never form a
Kraus array or a Choi matrix.

Sampling runs in fixed chunks of SAMPLE_CHUNK samples: each chunk stacks
its Haar vectors, applies the channel to the whole block in one batched
call and takes the trace distances from one batched eigensolve. A chunk whose
states or outputs exceed the 512 MiB dense budget is refused before any work.
Sample i always uses seed derive_seed(master_seed, i), so it depends only
on (master_seed, i). The chunk size is a constant, so output bytes never
depend on the machine or on any thread setting; QTYPICAL_THREADS is ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channels import ConsistencyError, QuantumChannel, lipschitz_estimate
from .qcore import DensityOperator, _check_dense_bytes, derive_seed, haar_sample

if TYPE_CHECKING:
    from .bns import DetectorChannel
    from .restriction import RestrictedPartialTrace

__all__ = [
    "LEVY_CONSTANT",
    "SAMPLE_CHUNK",
    "ExperimentConfig",
    "TypicalityReport",
    "canonical_state",
    "sample_distances",
    "entropy_bound",
    "partial_trace_bound",
    "depolarizing_bound",
    "levy_tail_bound",
    "run_experiment",
]

LEVY_CONSTANT = 2.0 / (9.0 * math.pi**3)
SAMPLE_CHUNK = 256  # samples per batched block; a constant, so output bytes are reproducible
ETA_STREAM_INDEX = 0xFFFFFFFFFFFFFFFF  # seed stream index reserved for eta estimation


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Inputs of one Monte Carlo run.

    ``channel`` is a ``QuantumChannel``, a ``RestrictedPartialTrace`` or a
    ``DetectorChannel``; the run uses only their shared interface. ``eta_mode`` selects the Lipschitz
    constant used in the tail bound: "fixed_one" uses the channel-independent
    value 1, "estimated" runs the lower-bound search with ``eta_trials``
    restarts. The estimate is only a lower bound, so an estimated eta makes
    the tail comparison diagnostic rather than conservative.
    """

    channel: QuantumChannel | RestrictedPartialTrace | DetectorChannel
    samples: int
    master_seed: int
    epsilon_grid: tuple = ()
    eta_mode: str = "fixed_one"
    eta_trials: int = 16
    d_e_eff: float | None = None  # set in partial-trace scenarios only

    def __post_init__(self):
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


def sample_distances(cfg: ExperimentConfig) -> list:
    """Trace distances of channel outputs of Haar samples to the canonical state.

    Output order follows the sample index; entry i is the distance for the
    state haar_sample(dim_in, derive_seed(master_seed, i)). Samples are
    processed in blocks of SAMPLE_CHUNK.
    """
    ch = cfg.channel
    d, d_out = ch.dim_in, ch.dim_out
    chunk = min(SAMPLE_CHUNK, cfg.samples)
    _check_dense_bytes(16 * chunk * d, f"a block of {chunk} states of dimension {d}")
    _check_dense_bytes(16 * chunk * d_out**2,
                       f"a block of {chunk} outputs of dimension {d_out}")
    omega = canonical_state(ch).matrix
    distances = np.empty(cfg.samples)
    for start in range(0, cfg.samples, SAMPLE_CHUNK):
        stop = min(start + SAMPLE_CHUNK, cfg.samples)
        psis = np.stack([haar_sample(d, derive_seed(cfg.master_seed, i)).amplitudes
                         for i in range(start, stop)])
        eigs = np.linalg.eigvalsh(ch.apply_pure_batch(psis) - omega)
        distances[start:stop] = 0.5 * np.sum(np.abs(eigs), axis=1)
    return distances.tolist()


def entropy_bound(ch) -> float:
    """Mean-distance bound (1/2) sqrt(d_S * (1 - S_L)) from the channel entropy."""
    return _entropy_bound(ch.dim_out, ch.linear_entropy())


def _entropy_bound(d_s: int, linear_entropy: float) -> float:
    return 0.5 * math.sqrt(d_s * (1.0 - linear_entropy))


def partial_trace_bound(d_s: int, d_e_eff: float) -> float:
    """Mean-distance bound (1/2) sqrt(d_S / d_E_eff) for partial-trace scenarios."""
    if d_e_eff <= 0:
        raise ValueError("effective environment dimension must be positive")
    return 0.5 * math.sqrt(d_s / d_e_eff)


def depolarizing_bound(d_r: int, lam: float) -> float:
    """Closed form of the entropy bound for the depolarizing family."""
    return 0.5 * math.sqrt(lam * (2.0 - lam) / d_r + d_r * (1.0 - lam) ** 2)


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

    ``tail_table`` rows are (epsilon, empirical fraction of samples with
    |D - mean| > epsilon, clamped tail bound).
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

    def __post_init__(self):
        if not 0.0 <= self.mean_distance <= self.max_distance <= 1.0 + 1e-9:
            raise ValueError("distance statistics violate 0 <= mean <= max <= 1")
        slack = 3.0 * self.std_distance / math.sqrt(self.samples)
        if self.mean_distance > self.entropy_bound + slack + 1e-12:
            raise ConsistencyError(
                f"mean distance {self.mean_distance!r} exceeds the entropy bound "
                f"{self.entropy_bound!r} beyond statistical slack"
            )

    def to_json_dict(self) -> dict:
        return {
            "d_r": self.d_r,
            "d_s": self.d_s,
            "samples": self.samples,
            "master_seed": self.master_seed,
            "mean_distance": self.mean_distance,
            "std_distance": self.std_distance,
            "max_distance": self.max_distance,
            "entropy_bound": self.entropy_bound,
            "linear_entropy": self.linear_entropy,
            "eta_mode": self.eta_mode,
            "eta_used": self.eta_used,
            "partial_trace_bound": self.partial_trace_bound,
            "tail_diagnostic_only": self.tail_diagnostic_only,
            "tail_table": [
                {"epsilon": e, "empirical_tail": f, "levy_bound": b}
                for e, f, b in self.tail_table
            ],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def run_experiment(cfg: ExperimentConfig, distances=None) -> TypicalityReport:
    """Full experiment: sampling, aggregation, bounds, and the tail table.

    ``distances`` takes the output of ``sample_distances(cfg)`` when the
    caller already has it, so the samples are drawn only once.
    """
    ch = cfg.channel
    if distances is None:
        distances = sample_distances(cfg)
    if len(distances) != cfg.samples:
        raise ValueError(f"{len(distances)} distances given for {cfg.samples} samples")
    distances = np.asarray(distances)
    mean = float(np.mean(distances))
    std = float(np.std(distances, ddof=1)) if cfg.samples > 1 else 0.0
    top = float(np.max(distances))

    if cfg.eta_mode == "fixed_one":
        eta = 1.0
        diagnostic = False
    else:
        eta = lipschitz_estimate(ch, cfg.eta_trials,
                                 derive_seed(cfg.master_seed, ETA_STREAM_INDEX))
        diagnostic = True

    tail_rows = []
    for eps in cfg.epsilon_grid:
        fraction = float(np.mean(np.abs(distances - mean) > eps))
        bound = min(1.0, max(0.0, levy_tail_bound(ch.dim_in, eps, eta)))
        tail_rows.append((eps, fraction, bound))

    s_l = ch.linear_entropy()
    p_bound = None
    if cfg.d_e_eff is not None:
        p_bound = partial_trace_bound(ch.dim_out, cfg.d_e_eff)

    return TypicalityReport(
        d_r=ch.dim_in,
        d_s=ch.dim_out,
        samples=cfg.samples,
        master_seed=cfg.master_seed,
        mean_distance=mean,
        std_distance=std,
        max_distance=top,
        entropy_bound=_entropy_bound(ch.dim_out, s_l),
        linear_entropy=s_l,
        eta_mode=cfg.eta_mode,
        eta_used=eta,
        tail_table=tuple(tail_rows),
        partial_trace_bound=p_bound,
        tail_diagnostic_only=diagnostic,
    )
