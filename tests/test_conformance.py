"""Every channel class against the dense Kraus channel it stands for.

A generalized subsystem is compared with its canonical state, and the distance is
bounded by the channel's Choi purity; so each channel class must give the outputs,
canonical state, purities and distances of its dense oracle. ``ROWS`` is the one
table of channels: a row is a factory, the factory of its dense oracle and their
tolerance, or a factory alone for the checks that need no oracle. There is one
test per member of the channel interface. The oracle checks run on every row
with an oracle; each other check runs on the rows that ``CHECKS`` names for it,
and the exact-eta and stated-peak checks on every row they apply to. The rows
whose oracles restrict one dense full channel form a group, which a check takes
as one batch: the full channel is built once, and one group's oracles are alive
at a time. A new channel class gets its checks by adding rows;
``test_every_channel_class_is_a_row`` refuses a class without one. The sampling
path's own checks (``distances_to_canonical`` against the dense route, the bits of a
derived chunk, the report against the dense oracle) are in ``test_typicality.py``.
"""

import importlib
import inspect
import pkgutil
import tracemalloc
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np
import pytest

import qtypical
from conftest import channels_equal, dense_choi_purity
from qtypical.bns import DetectorChannel, bns_channel
from qtypical.channels import (
    QuantumChannel,
    _pair_objectives,
    depolarizing,
    identity_channel,
    lipschitz_estimate,
    partial_trace_channel,
    random_channel,
)
from qtypical.qcore import _haar_rows, derive_seed
from qtypical.restriction import RestrictedPartialTrace, enumerate_basis, restrict_channel
from qtypical.typicality import ETA_STREAM_INDEX, _entropy


@dataclass(frozen=True)
class Row:
    """A channel factory, its dense oracle's factory, their tolerance and the way their
    Kraus families are compared; a row without an oracle carries only the factory.
    Rows of one ``group`` are checked as one batch."""

    id: str
    make: Callable
    oracle: Callable | None = None
    tol: float | None = None
    same_kraus: Callable | None = None
    group: str | None = None


@lru_cache(maxsize=1)
def _full(build, *args) -> QuantumChannel:
    """The dense full-space channel ``build(*args)``, built once for the rows of its group."""
    return build(*args)


def _restricted(build, args, n_sites, n_excited) -> QuantumChannel:
    return restrict_channel(_full(build, *args), enumerate_basis(n_sites, n_excited))


def _kraus_identical_unless_compressed(ch, dense):
    """The partial trace's families are the same array, or the same action where
    ``restrict_channel`` compressed the dense family through its Choi matrix."""
    if 2 ** (ch.n_sites - ch.split) <= ch.dim_in * ch.dim_out:
        np.testing.assert_array_equal(ch.kraus, dense.kraus)
    else:
        assert channels_equal(QuantumChannel(ch.dim_in, ch.dim_out, ch.kraus), dense)


def _kraus_same_action(ch, dense):
    """The detector's family acts as the dense one: equal Choi matrices where they are
    small, else the same image of a generic operator."""
    rebuilt = QuantumChannel(ch.dim_in, ch.dim_out, ch.kraus)
    if (ch.dim_in * ch.dim_out) ** 2 <= 2**20:
        assert channels_equal(rebuilt, dense)
    else:
        rng = np.random.default_rng(derive_seed(ch.n_sites, ch.n_excited))
        op = rng.standard_normal((ch.dim_in,) * 2) + 1j * rng.standard_normal((ch.dim_in,) * 2)
        assert np.max(np.abs(rebuilt.apply_matrix(op) - dense.apply_matrix(op))) < 1e-12


def _ptrace(n_sites, n_excited, split, oracle=True) -> Row:
    row = Row(f"ptrace-{n_sites}-{n_excited}-{split}",
              partial(RestrictedPartialTrace, n_sites, n_excited, split),
              group=f"ptrace-{n_sites}-*-{split}")
    if not oracle:
        return row
    dims = (2**split, 2 ** (n_sites - split))
    return replace(row, oracle=partial(_restricted, partial_trace_channel, dims, n_sites,
                                       n_excited),
                   tol=1e-12, same_kraus=_kraus_identical_unless_compressed)


def _detector(n_sites, n_blocks, n_excited, oracle=True) -> Row:
    row = Row(f"bns-{n_sites}-{n_blocks}-{n_excited}",
              partial(DetectorChannel, n_sites, n_blocks, n_excited),
              group=f"bns-{n_sites}-{n_blocks}-*")
    if not oracle:
        return row
    return replace(row, oracle=partial(_restricted, bns_channel, (n_sites, n_blocks), n_sites,
                                       n_excited),
                   tol=1e-14, same_kraus=_kraus_same_action)


def _divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


ROWS = [
    *(_ptrace(n, np_exc, split)
      for n in range(1, 11) for split in range(n + 1) for np_exc in range(n + 1)),
    *(_detector(n, k, np_exc)
      for n in range(2, 11) for k in _divisors(n) for np_exc in range(1, n)),
    # beyond the dense path, and the empty and full detector subspaces
    _ptrace(12, 6, 6, oracle=False),
    _ptrace(14, 7, 7, oracle=False),
    _detector(12, 4, 6, oracle=False),
    *(_detector(n, k, np_exc, oracle=False)
      for n in range(1, 9) for k in _divisors(n) for np_exc in (0, n)),
    Row("depolarizing-4-0.5", partial(depolarizing, 4, 0.5)),
    Row("random-8-4-6", partial(random_channel, 8, 4, 6, seed=2)),
    Row("identity-32", partial(identity_channel, 32)),
    Row("partial-trace-4-16", partial(partial_trace_channel, 4, 16)),
]
BY_ID = {row.id: row for row in ROWS}

# the rows of each check that does not run on every row it applies to
CHECKS = {
    "block": ["ptrace-10-5-3", "ptrace-10-5-0", "ptrace-8-4-8", "ptrace-12-6-6",
              "bns-8-2-4", "bns-9-3-4", "bns-10-5-5"],
    "eta-search": ["ptrace-10-5-3", "ptrace-8-4-2", "bns-8-2-4", "bns-9-3-4", "bns-12-4-6"],
    "constant": ["bns-8-4-7", "bns-8-2-0", "bns-8-2-8", "ptrace-6-3-0", "ptrace-6-0-3",
                 "ptrace-6-6-3"],
    "cap": ["ptrace-8-4-2", "ptrace-7-3-7", "bns-8-2-4", "bns-9-3-4"],
    "moment": ["ptrace-10-5-3", "ptrace-8-4-2", "bns-8-4-4", "bns-12-4-6", "random-8-4-6",
               "depolarizing-4-0.5", "identity-32", "partial-trace-4-16"],
}


def _rows(check):
    return pytest.mark.parametrize("row", [BY_ID[i] for i in CHECKS[check]], ids=CHECKS[check])


def _batches(rows) -> dict:
    """{group: its rows}; a row without a group is a batch of its own."""
    batches = {}
    for row in rows:
        batches.setdefault(row.group or row.id, []).append(row)
    return batches


def _each_batch(rows):
    batches = _batches(rows)
    return pytest.mark.parametrize("batch", batches.values(), ids=batches.keys())


def _states(dim, count, seed=0, first=0):
    """``count`` Haar states of dimension ``dim``, row i drawn from derive_seed(seed, first + i)."""
    return _haar_rows(dim, [derive_seed(seed, i) for i in range(first, first + count)])


# -- the interface against the dense oracle, on every row with one --


class Case(NamedTuple):
    row: Row
    ch: object
    dense: QuantumChannel
    psis: np.ndarray
    purity: float


ORACLE_BATCHES = _batches(row for row in ROWS if row.oracle)


@pytest.fixture(scope="module", params=ORACLE_BATCHES.values(), ids=ORACLE_BATCHES.keys())
def cases(request):
    """The rows of one group with their oracles, built once for all the oracle checks,
    which run one group at a time; its full channel is released once they are built."""
    cases = []
    for row in request.param:
        ch, dense = row.make(), row.oracle()
        cases.append(Case(row, ch, dense, _states(ch.dim_in, 3, ch.n_sites),
                          dense_choi_purity(dense)))
    _full.cache_clear()
    return cases


def test_dimensions(cases):
    for c in cases:
        assert (c.ch.dim_in, c.ch.dim_out) == (c.dense.dim_in, c.dense.dim_out), c.row.id


def test_apply_pure_batch(cases):
    for c in cases:
        delta = c.ch.apply_pure_batch(c.psis) - c.dense.apply_pure_batch(c.psis)
        assert np.max(np.abs(delta)) < c.row.tol, c.row.id


def test_canonical_state(cases):
    for c in cases:
        omega = c.dense.apply_matrix(np.eye(c.ch.dim_in) / c.ch.dim_in)
        assert np.max(np.abs(c.ch.canonical_state().matrix - omega)) < c.row.tol, c.row.id


def test_choi_purity_routes(cases):
    for c in cases:
        for route in c.ch.choi_purity_routes():
            assert abs(route - c.purity) < c.row.tol, c.row.id


def test_linear_entropy(cases):
    for c in cases:
        assert abs(_entropy(c.ch)[2] - (1.0 - c.purity)) < c.row.tol, c.row.id


def test_kraus(cases):
    for c in cases:
        c.row.same_kraus(c.ch, c.dense)


# -- outputs of one row and of a block --


@_rows("block")
def test_outputs_do_not_depend_on_the_block(row):
    ch = row.make()
    psis = _states(ch.dim_in, 17)
    block = ch.apply_pure_batch(psis)
    for psi, out in zip(psis, block):
        assert np.array_equal(ch.apply_pure_batch(psi[None]), out[None])


@_each_batch(ROWS)
def test_an_empty_block_has_empty_outputs_and_distances(batch):
    for row in batch:
        ch = row.make()
        psis = np.zeros((0, ch.dim_in), dtype=np.complex128)
        assert ch.apply_pure_batch(psis).shape == (0, ch.dim_out, ch.dim_out), row.id
        assert ch.distances_to_canonical(psis).shape == (0,), row.id


# -- exact eta --


@_each_batch(row for row in ROWS if hasattr(row.make.func, "exact_eta"))
def test_exact_eta(batch):
    # eta is 1 where two patterns occur and 0 on a constant channel, whose every
    # output is the canonical state; the patterns are the canonical diagonal's support
    for row in batch:
        ch = row.make()
        support = np.count_nonzero(ch._canonical_diagonal())
        assert ch._pattern_count() == support, row.id
        assert ch.exact_eta() == (1.0 if support >= 2 else 0.0), row.id
        if support == 1 and ch.dim_in > 1:
            outputs = ch.apply_pure_batch(_states(ch.dim_in, 2, 1))
            assert np.max(np.abs(outputs - ch.canonical_state().matrix)) < 1e-12, row.id


@_rows("constant")
def test_exact_eta_is_zero_on_a_constant_channel(row):
    assert row.make().exact_eta() == 0.0


@_rows("eta-search")
def test_exact_eta_bounds_the_search(row):
    ch = row.make()
    assert ch.exact_eta() == 1.0
    assert lipschitz_estimate(ch, 16, derive_seed(2024, ETA_STREAM_INDEX)) <= ch.exact_eta()


@_rows("cap")
def test_exact_eta_is_reached_by_basis_states(row):
    # one basis state per pattern, each paired with the first: orthogonal pure outputs
    ch = row.make()
    indices = enumerate_basis(ch.n_sites, ch.n_excited).indices
    if isinstance(ch, RestrictedPartialTrace):  # the system pattern of each basis state
        patterns = indices >> (ch.n_sites - ch.split)
    else:
        patterns = ch._patterns(indices)
    firsts = np.unique(patterns, return_index=True)[1]
    basis = np.eye(ch.dim_in, dtype=np.complex128)
    psis = basis[np.repeat(firsts[:1], firsts.size - 1)]
    assert _pair_objectives(ch, psis, basis[firsts[1:]]) == [1.0] * (firsts.size - 1)


# -- the sampled law against its exact second moment --

MOMENT_SAMPLES, MOMENT_SEED, MOMENT_Z = 20_000, 2024, 4.0


@_rows("moment")
def test_sampled_second_moment_matches_the_exact_one(row):
    """For Haar psi, E ||Phi(psi) - omega||_F^2 = (d_R P_J - tr omega^2) / (d_R + 1), with
    P_J the Choi purity: the second moment of a Haar state, (1 + SWAP) / (d_R (d_R + 1)),
    through Phi (x) Phi. MOMENT_SAMPLES states drawn by the sampling path must give a mean
    within MOMENT_Z standard errors of it, or within 1e-12 where every sample has the same
    value (depolarizing and identity: the spread is rounding noise). Under the normal
    approximation to the sample mean, a fresh seed fails a correct row with probability
    P(|Z| > 4), about 6.3e-5."""
    ch = row.make()
    d_r, omega = ch.dim_in, ch.canonical_state().matrix
    exact = (d_r * ch.choi_purity_routes()[0] - np.sum(np.abs(omega) ** 2)) / (d_r + 1)
    values = np.empty(MOMENT_SAMPLES)
    for start in range(0, MOMENT_SAMPLES, 256):
        stop = min(start + 256, MOMENT_SAMPLES)
        out = ch.apply_pure_batch(_states(d_r, stop - start, MOMENT_SEED, start))
        out -= omega
        values[start:stop] = np.sum(np.abs(out) ** 2, axis=(1, 2))
    mean, spread = float(np.mean(values)), float(np.std(values, ddof=1))
    if spread <= 1e-12:
        assert abs(mean - exact) <= 1e-12, (row.id, mean, exact)
    else:
        z = (mean - exact) / (spread / np.sqrt(MOMENT_SAMPLES))
        assert abs(z) <= MOMENT_Z, (row.id, z)


# -- stated peaks, on every row --

PEAK_SLACK = 256 * 2**10  # fixed buffers that do not grow with the rows, as in out -= omega


def _peak(call, psis) -> int:
    tracemalloc.start()
    try:
        call(psis)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@_each_batch(ROWS)
def test_peaks_stay_within_the_stated_row_bytes(batch):
    # apply_pure_batch and distances_to_canonical allocate at most their stated bytes a
    # row; a first call on one row builds what the channel caches
    for row in batch:
        ch = row.make()
        psis = _states(ch.dim_in, 32, 5)
        for call, stated in ((ch.apply_pure_batch, ch._row_bytes),
                             (ch.distances_to_canonical, ch._distance_row_bytes)):
            call(psis[:1])
            for rows in (1, 8, 32):
                if rows * stated <= 64 * 2**20:
                    peak = _peak(call, psis[:rows])
                    over = peak - rows * stated
                    assert over <= PEAK_SLACK, (row.id, call.__name__, rows, over)


# -- every class is a row --


def test_every_channel_class_is_a_row():
    classes = set()
    for info in pkgutil.iter_modules(qtypical.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"qtypical.{info.name}")
        classes |= {obj for name, obj in vars(module).items()
                    if inspect.isclass(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and hasattr(obj, "distances_to_canonical")}
    assert {QuantumChannel, RestrictedPartialTrace, DetectorChannel} <= classes
    built = {type(row.make()) for row in ROWS}
    assert classes <= built, classes - built
