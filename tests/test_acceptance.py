"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts. Every tolerance is pinned here.
"""

import json
import math
import os
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import numpy as np

import qtypical as qt
from qtypical.cli import main as cli_main
from qtypical.qcore import derive_seed


@contextmanager
def criterion(num: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL: {label}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\n[criterion {num}] PASS ({elapsed:.1f}s): {label}")


def test_criterion_1_depolarizing_closed_form():
    with criterion(1, "depolarizing linear entropy matches the closed form"):
        t0 = time.perf_counter()
        for d in (2, 3, 4, 8):
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                ch = qt.depolarizing(d, lam)
                measured = 1.0 - ch.choi().purity()
                expected = 1.0 - lam * (2.0 - lam) / d**2 - (1.0 - lam) ** 2
                assert abs(measured - expected) < 1e-12, (d, lam)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_partial_trace_equivalence():
    with criterion(2, "trace-out channels: Choi purity = 1/d_E_eff = marginal purity"):
        t0 = time.perf_counter()
        for d_s, d_e in ((2, 4), (2, 8), (4, 4)):
            ch = qt.partial_trace_channel(d_s, d_e)
            choi_purity = ch.choi().purity()
            mixed = qt.DensityOperator(
                np.eye(d_s * d_e, dtype=complex) / (d_s * d_e))
            omega_env = qt.partial_trace(mixed, "B", (d_s, d_e))
            marginal_purity = omega_env.purity()
            d_e_eff = 1.0 / marginal_purity
            assert abs(choi_purity - 1.0 / d_e_eff) < 1e-10
            assert abs(choi_purity - marginal_purity) < 1e-10
            assert abs(1.0 / d_e_eff - marginal_purity) < 1e-10
            assert abs(qt.entropy_bound(ch)
                       - qt.partial_trace_bound(d_s, d_e_eff)) < 1e-10
        assert time.perf_counter() - t0 < 5.0


def test_criterion_3_exact_spectrum_matches_channel():
    with criterion(3, "combinatorial canonical spectrum = dense channel output, N <= 10"):
        t0 = time.perf_counter()
        checked = 0
        for n_sites in range(2, 11):
            divisors = [k for k in range(1, n_sites + 1) if n_sites % k == 0]
            for k in divisors:
                full = qt.bns_channel(n_sites, k)
                for n_excited in range(1, n_sites):
                    sub = qt.enumerate_basis(n_sites, n_excited)
                    ch = qt.restrict_channel(full, sub)
                    omega = ch.apply_matrix(np.eye(sub.d_r) / sub.d_r)
                    expected = qt.canonical_spectrum(
                        n_sites, n_excited, k).diagonal()
                    assert np.max(np.abs(np.diag(omega).real - expected)) < 1e-12, \
                        (n_sites, k, n_excited)
                    off = omega - np.diag(np.diag(omega))
                    assert np.max(np.abs(off)) < 1e-12, (n_sites, k, n_excited)
                    checked += 1
        assert checked == 143
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_paper_scale_exact_distributions():
    with criterion(4, "N=10000, Np=200, k=1000 exact distributions and means"):
        t0 = time.perf_counter()
        n_sites, n_excited, k = 10000, 200, 1000
        trace_dist = qt.energy_distribution_trace(n_sites, n_excited, k)
        bns_dist = qt.energy_distribution_bns(n_sites, n_excited, k)
        assert sum(trace_dist.probabilities, Fraction(0)) == 1
        assert sum(bns_dist.probabilities, Fraction(0)) == 1
        assert trace_dist.mean() == 20
        expected_mean = k * (1 - Fraction(comb(9990, 200), comb(10000, 200)))
        assert bns_dist.mean() == expected_mean
        print(f"\n  detector-branch mean = {float(expected_mean):.6f}")
        assert time.perf_counter() - t0 < 300.0


def test_criterion_5_scaled_bound_reproduction():
    with criterion(5, "N=8 sweep: means below bound, ordered in k, saturated at Np=7"):
        t0 = time.perf_counter()
        seed = 2024
        samples = 500
        means: dict[tuple[int, int], float] = {}
        for k in (2, 4):
            full = qt.bns_channel(8, k)
            for n_excited in range(1, 8):
                sub = qt.enumerate_basis(8, n_excited)
                ch = qt.restrict_channel(full, sub)
                cfg = qt.ExperimentConfig(
                    channel=ch, samples=samples,
                    master_seed=derive_seed(derive_seed(seed, k), n_excited))
                distances = np.asarray(qt.sample_distances(cfg))
                mean = float(np.mean(distances))
                std = float(np.std(distances, ddof=1))
                bound = qt.entropy_bound(ch)
                assert mean <= bound + 3.0 * std / math.sqrt(samples), (k, n_excited)
                means[(k, n_excited)] = mean
                if n_excited == 7:
                    assert np.max(distances) < 1e-10, k
                    assert qt.lipschitz_estimate(ch, 4, seed) < 1e-10, k
        for n_excited in range(1, 8):
            # at Np=7 both means are exact zeros, compared at the noise floor
            assert means[(2, n_excited)] <= means[(4, n_excited)] + 1e-12, n_excited
        assert time.perf_counter() - t0 < 120.0


def test_criterion_6_concentration_tail_property():
    with criterion(6, "empirical tails below the concentration bound at eta = 1"):
        t0 = time.perf_counter()
        ch = qt.restrict_channel(qt.bns_channel(8, 2), qt.enumerate_basis(8, 4))
        assert ch.dim_in == 70
        cfg = qt.ExperimentConfig(channel=ch, samples=10**4, master_seed=515,
                                  epsilon_grid=(0.02, 0.05, 0.1, 0.2))
        report = qt.run_experiment(cfg)
        constant = 2.0 / (9.0 * math.pi**3)
        for eps, fraction, bound in report.tail_table:
            explicit = min(1.0, 2.0 * math.exp(-constant * 70 * eps**2 / 4.0))
            assert abs(bound - explicit) < 1e-12
            assert fraction <= explicit, eps
        assert time.perf_counter() - t0 < 120.0


def test_criterion_7_identity_channel_analytics():
    with criterion(7, "identity channel: exact distances and bound sqrt(d_R)/2"):
        t0 = time.perf_counter()
        for d in (2, 8, 70):
            ch = qt.identity_channel(d)
            cfg = qt.ExperimentConfig(channel=ch, samples=200, master_seed=77)
            distances = qt.sample_distances(cfg)
            expected = 1.0 - 1.0 / d
            assert max(abs(x - expected) for x in distances) < 1e-10, d
            assert abs(qt.entropy_bound(ch) - 0.5 * math.sqrt(d)) < 1e-12, d
        assert time.perf_counter() - t0 < 10.0


def test_criterion_8_two_route_purity_identity():
    with criterion(8, "Kraus double sum equals d_R^2 * Choi purity on 50 random channels"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(8)
        for trial in range(50):
            d_in = int(rng.integers(2, 9))
            d_out = int(rng.integers(2, 9))
            tau = int(rng.integers(1, d_in * d_out + 1))
            if d_out * tau < d_in:
                tau = -(-d_in // d_out)
            ch = qt.random_channel(d_in, d_out, tau, seed=9000 + trial)
            purity_choi, purity_kraus = ch.choi_purity_routes()
            assert abs(d_in**2 * purity_choi - d_in**2 * purity_kraus) < 1e-9
        assert time.perf_counter() - t0 < 10.0


def test_criterion_9_thread_count_determinism(tmp_path, monkeypatch):
    # the worker count follows the CPUs the affinity reports; the thread setting is ignored
    with criterion(9, "identical bytes from 1, 2, and 3 workers and 1, 4, and 8 threads"):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "channel": {"type": "bns", "N": 8, "k": 2, "Np": 4},
            "samples": 10**4,
            "master_seed": 515,
            "epsilon_grid": [0.02, 0.05, 0.1, 0.2],
        }))
        snapshots = []
        for threads, workers in (("1", 1), ("4", 2), ("8", 3)):
            monkeypatch.setenv("QTYPICAL_THREADS", threads)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=workers: set(range(n)))
            outdir = tmp_path / f"threads{threads}"
            outdir.mkdir()
            blob = b""
            for k in (2, 4):
                out = outdir / f"bound_k{k}.csv"
                assert cli_main(["figure-bound", "--N", "8", "--k", str(k),
                                 "--samples", "500", "--seed", "2024",
                                 "--out", str(out)]) == 0
                blob += out.read_bytes()
            report = outdir / "report.json"
            assert cli_main(["typicality", "--config", str(config),
                             "--out", str(report)]) == 0
            blob += report.read_bytes()
            snapshots.append(blob)
        assert snapshots[0] == snapshots[1] == snapshots[2]
