"""Completely positive trace-preserving maps held as one Kraus array.

A channel stores its Kraus family as one read-only, C-contiguous complex128
array of shape (n_kraus, dim_out, dim_in); its (n_kraus*dim_out, dim_in)
reshape is the stacked family that every action multiplies with. The Choi
matrix is derived on demand and never kept. Channel algebra (compose / tensor),
entropy, and a Lipschitz-constant lower bound all live here. Choi matrices
use the convention J = (channel x id) applied to the maximally entangled
state, with the output factor leading, so J has dimension dim_out * dim_in
and its reduced state on the input factor is identity(dim_in)/dim_in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qcore import (
    DensityOperator,
    DimensionError,
    _as_matrix,
    _block_items,
    _check_dense_bytes,
    _generator,
    _haar_isometry,
    _half_trace_norms,
    _partial_trace_matrix,
    _square_sum,
    derive_seed,
)

__all__ = [
    "CPTPError",
    "ConsistencyError",
    "QuantumChannel",
    "identity_channel",
    "unitary_channel",
    "partial_trace_channel",
    "depolarizing",
    "random_channel",
    "compose",
    "tensor",
    "choi_to_kraus",
    "lipschitz_estimate",
    "channel_to_json_dict",
    "channel_from_json_dict",
    "save_channel",
    "load_channel",
]

TP_TOL = 1e-10
CHOI_MARGINAL_TOL = 1e-8
KRAUS_EIGENVALUE_CUTOFF = 1e-12
ROUTE_TOL = 1e-8


class CPTPError(ValueError):
    """Input does not describe a completely positive trace-preserving map."""


class ConsistencyError(RuntimeError):
    """Two independent computation routes disagreed beyond tolerance."""


class _EigensolveDistances:
    """Distances to the canonical state by the dense route, for a channel class with
    ``apply_pure_batch``, ``_row_bytes`` and ``canonical_state``.

    A block's outputs are applied, the canonical state is subtracted from them in
    place and half the trace norm of each difference comes from one batched
    eigensolve. The canonical state is formed once per channel.
    """

    @cached_property
    def _omega(self) -> np.ndarray:
        return self.canonical_state().matrix

    @property
    def _distance_row_bytes(self) -> int:
        """Bytes one row of ``distances_to_canonical`` allocates: those of
        ``apply_pure_batch``, whose outputs the subtraction reuses."""
        return self._row_bytes

    def distances_to_canonical(self, psis) -> np.ndarray:
        """Trace distance of the output of each row of a (B, dim_in) block to the canonical state."""
        omega = self._omega  # formed before the block's outputs are allocated
        out = self.apply_pure_batch(psis)
        out -= omega  # in place: the block holds one stack of outputs, not two
        return _half_trace_norms(out)


@dataclass(frozen=True, eq=False)
class QuantumChannel(_EigensolveDistances):
    """CPTP map from operators on dim_in to operators on dim_out.

    ``kraus`` is a sequence of (dim_out, dim_in) matrices or one array;
    construction copies it into the read-only (n_kraus, dim_out, dim_in)
    array that is the only storage. Invariants checked at construction:
    positive dimensions, at least one operator, every operator of shape
    (dim_out, dim_in), at most dim_in*dim_out operators, and trace
    preservation within 1e-10 as S^dagger S = identity for the stack S.
    """

    dim_in: int
    dim_out: int
    kraus: np.ndarray

    def __post_init__(self):
        if self.dim_in < 1 or self.dim_out < 1:
            raise DimensionError("channel dimensions must be positive")
        try:
            ops = np.array(self.kraus, dtype=np.complex128, order="C")
        except ValueError as exc:
            raise DimensionError(f"Kraus family is ragged: {exc}") from exc
        if ops.size == 0:
            raise CPTPError("channel needs at least one Kraus operator")
        if ops.shape[1:] != (self.dim_out, self.dim_in):
            raise DimensionError(
                f"Kraus operators of shape {ops.shape[1:]} do not match "
                f"({self.dim_out}, {self.dim_in})"
            )
        if ops.shape[0] > self.dim_in * self.dim_out:
            raise CPTPError(
                f"{ops.shape[0]} Kraus operators exceed dim_in*dim_out = "
                f"{self.dim_in * self.dim_out}"
            )
        stack = ops.reshape(-1, self.dim_in)
        dev = float(np.max(np.abs(stack.conj().T @ stack - np.eye(self.dim_in))))
        if not dev <= TP_TOL:  # also rejects NaN entries
            raise CPTPError(f"Kraus family violates trace preservation by {dev:.3e}")
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", ops)

    # -- representations -------------------------------------------------

    @property
    def n_kraus(self) -> int:
        return self.kraus.shape[0]

    def choi(self) -> DensityOperator:
        """Choi state of the channel on output (x) input, built afresh on each call; the
        Choi matrix and its validated copy, twice the Choi bytes, are alive at once."""
        # a Gram matrix is positive semidefinite by construction, so the
        # eigenvalue check would only burn an O(dim^3) eigendecomposition
        return DensityOperator(_choi_matrix(self.kraus, self.dim_in), validate=False)

    # -- action -----------------------------------------------------------

    def apply_matrix(self, m) -> np.ndarray:
        """Linear action sum_m K_m M K_m^dagger on an arbitrary square matrix."""
        m = np.asarray(m, dtype=np.complex128)
        if m.shape != (self.dim_in, self.dim_in):
            raise DimensionError(
                f"operator of shape {m.shape} does not match channel input "
                f"dimension {self.dim_in}"
            )
        t = (self.kraus.reshape(-1, self.dim_in) @ m).reshape(self.kraus.shape)
        return np.tensordot(t, self.kraus.conj(), axes=([0, 2], [0, 2]))

    def apply_pure(self, amplitudes) -> np.ndarray:
        """Channel applied to |psi><psi|: the one-row ``apply_pure_batch``."""
        psi = np.asarray(amplitudes, dtype=np.complex128)
        if psi.shape != (self.dim_in,):
            raise DimensionError(
                f"state of dim {psi.shape} does not match input dim {self.dim_in}"
            )
        return self.apply_pure_batch(psi[None])[0]

    @property
    def _row_bytes(self) -> int:
        """Bytes one row of ``apply_pure_batch`` allocates: its Kraus images, their
        conjugate and its output."""
        return 16 * (2 * self.n_kraus * self.dim_out + self.dim_out**2)

    def apply_pure_batch(self, psis) -> np.ndarray:
        """``apply_pure`` for a (B, dim_in) block of pure inputs, one per row.

        Returns the (B, dim_out, dim_out) stack of outputs. The whole block
        goes through the stacked Kraus array in one GEMM, and the outputs are
        formed by one batched matmul. Refused above 512 MiB (B ``_row_bytes``).
        """
        psis = _state_block(psis, self.dim_in)
        b = psis.shape[0]
        _check_dense_bytes(b * self._row_bytes, f"{b} outputs of dimension {self.dim_out} "
                           f"and their {self.n_kraus} Kraus images")
        phi = (psis @ self.kraus.reshape(-1, self.dim_in).T).reshape(
            -1, self.n_kraus, self.dim_out)
        return phi.transpose(0, 2, 1) @ phi.conj()

    def canonical_state(self) -> DensityOperator:
        """Image of the maximally mixed input: the canonical state of the channel."""
        d = self.dim_in
        return DensityOperator(self.apply_matrix(np.eye(d, dtype=np.complex128) / d))

    # -- scalar diagnostics -------------------------------------------------

    def linear_entropy(self) -> float:
        """1 - tr(J^2) from the two purity routes of ``choi_purity_routes``.

        Disagreement beyond ROUTE_TOL means a representation bug somewhere, so
        it raises instead of silently picking one number.
        """
        return _gated_linear_entropy(*self.choi_purity_routes())

    def choi_purity_routes(self) -> tuple[float, float]:
        """(tr J^2 of the Choi matrix J, Kraus double sum (1/dim_in^2) sum_{m,n}
        |tr(K_m K_n^dagger)|^2) without consistency gating, one route at a time, each
        summed where its matrix is built.

        J is not copied or revalidated: its Kraus family was validated at construction.
        The peak is a matrix and its squared moduli, 1.5 times the Choi bytes
        16 (d_in d_out)^2, or, while a product forms, the matrix and the conjugated
        Kraus stack: twice the Choi bytes for d_in d_out operators.
        """
        v = self.kraus.reshape(self.n_kraus, -1)
        return (_square_sum(_choi_matrix(self.kraus, self.dim_in)),
                _square_sum(v @ v.conj().T) / self.dim_in**2)


def _state_block(psis, dim_in: int) -> np.ndarray:
    """``psis`` as a complex (B, dim_in) block of pure inputs, one per row."""
    psis = np.asarray(psis, dtype=np.complex128)
    if psis.ndim != 2 or psis.shape[1] != dim_in:
        raise DimensionError(f"state block of shape {psis.shape} does not match input dim {dim_in}")
    return psis


def _gated_linear_entropy(purity_choi: float, purity_kraus: float) -> float:
    """1 - Choi purity; raises when the two purity routes differ by more than ROUTE_TOL."""
    if abs(purity_choi - purity_kraus) > ROUTE_TOL:
        raise ConsistencyError(
            f"Choi purity {purity_choi!r} and Kraus double-sum purity "
            f"{purity_kraus!r} disagree"
        )
    return max(0.0, 1.0 - purity_choi)


def _check_choi_marginal(m: np.ndarray, dim_in: int, dim_out: int) -> None:
    """Reduced state of a Choi matrix on the input factor is identity/dim_in within
    CHOI_MARGINAL_TOL."""
    marginal = _partial_trace_matrix(m, "B", (dim_out, dim_in))
    dev = float(np.max(np.abs(marginal - np.eye(dim_in) / dim_in)))
    if not dev <= CHOI_MARGINAL_TOL:  # also rejects NaN entries
        raise CPTPError(f"Choi reduced state deviates from identity/dim_in by {dev:.3e} "
                        f"(> {CHOI_MARGINAL_TOL:.0e}); map is not trace preserving")


# -- construction helpers ----------------------------------------------------


def _choi_matrix(kraus: np.ndarray, dim_in: int) -> np.ndarray:
    """Choi matrix (1/dim_in) sum_m vec(K_m) vec(K_m)^dagger, row-major vec."""
    _check_dense_bytes(16 * kraus[0].size ** 2, f"the {kraus[0].size}^2 Choi matrix")
    v = kraus.reshape(kraus.shape[0], -1)
    j = v.T @ v.conj()
    j /= dim_in  # in place: the Choi matrix is the largest array a channel builds
    return j


def _minimal_channel(ops: np.ndarray, dim_in: int, dim_out: int) -> QuantumChannel:
    """Channel of the Kraus family ``ops``; a family above the dim_in*dim_out operator
    bound is re-extracted from its Choi matrix as an equivalent minimal family."""
    if ops.shape[0] > dim_in * dim_out:
        return choi_to_kraus(_choi_matrix(ops, dim_in), dim_in=dim_in, dim_out=dim_out)
    return QuantumChannel(dim_in, dim_out, ops)


def identity_channel(dim: int) -> QuantumChannel:
    """Identity channel on dim; refused above 512 MiB (16 dim^2 bytes)."""
    _check_dense_bytes(16 * dim**2, f"the identity channel on {dim}")
    return QuantumChannel(dim, dim, (np.eye(dim, dtype=np.complex128),))


def unitary_channel(u) -> QuantumChannel:
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError("unitary must be square")
    return QuantumChannel(u.shape[0], u.shape[0], (u,))


def partial_trace_channel(dim_keep: int, dim_drop: int) -> QuantumChannel:
    """Channel on dim_keep*dim_drop that traces out the trailing factor (refused above 512 MiB)."""
    d_in = dim_keep * dim_drop
    _check_dense_bytes(16 * d_in**2, f"the partial trace on {dim_keep} x {dim_drop}")
    # K_j = sum_s |s><s, j|: row s of K_j is row s*dim_drop + j of the identity,
    # built as booleans (1/16 of the bytes) and cast by the constructor's copy
    rows = np.eye(d_in, dtype=bool).reshape(dim_keep, dim_drop, d_in)
    return QuantumChannel(d_in, dim_keep, rows.transpose(1, 0, 2))


def _weyl_shift_clock(d: int) -> np.ndarray:
    """The d^2 unitaries X^a Z^b (X the cyclic shift, Z the clock) as one array, a leading."""
    omega = np.exp(2j * np.pi / d)
    x = np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)
    z = np.diag(omega ** np.arange(d))
    out = np.empty((d, d, d, d), dtype=np.complex128)
    xa = np.eye(d, dtype=np.complex128)
    for a in range(d):
        zb = np.eye(d, dtype=np.complex128)
        for b in range(d):
            out[a, b] = xa @ zb
            zb = zb @ z
        xa = xa @ x
    return out.reshape(d * d, d, d)


def depolarizing(d: int, lam: float) -> QuantumChannel:
    """Channel O -> lam * tr(O) * identity/d + (1 - lam) * O.

    Complete positivity holds for 0 <= lam <= 1 + 1/(d^2 - 1), and on that whole
    range the channel is one closed-form family of d^2 operators of size d x d:
    K_0 = sqrt(1 - lam + lam/d^2) I and K_ab = (sqrt(lam)/d) X^a Z^b (X the shift,
    Z the clock). 1 - lam + lam/d^2 >= 0 exactly on that range; K_0 is dropped
    where it is at most the Kraus extraction cutoff, as at the CP limit. The
    family takes 16 d^4 bytes and is refused above 512 MiB.
    """
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    if not lam >= 0:  # NaN fails this too
        raise CPTPError(f"lambda = {lam} is not a number >= 0")
    if d == 1:
        if lam > 1 + 1e-12:
            # one-dimensional case: the map is the identity for any lam,
            # but keep the declared parameter domain meaningful
            raise CPTPError("lambda > 1 is not meaningful for d = 1")
        return identity_channel(1)
    cp_limit = 1.0 + 1.0 / (d * d - 1.0)
    if lam > cp_limit + 1e-12:
        raise CPTPError(
            f"lambda = {lam} exceeds the complete-positivity limit {cp_limit}"
        )
    _check_dense_bytes(16 * d**4, f"the depolarizing channel on {d}")
    # X^0 Z^0, the identity, leads the family and also carries the undepolarized part
    ops = _weyl_shift_clock(d)
    ops *= np.sqrt(lam) / d
    weight = 1.0 - lam + lam / d**2
    if weight <= KRAUS_EIGENVALUE_CUTOFF:
        return QuantumChannel(d, d, ops[1:])
    ops[0] = np.sqrt(weight) * np.eye(d, dtype=np.complex128)
    return QuantumChannel(d, d, ops if lam > 0 else ops[:1])  # lam = 0: the identity alone


def random_channel(dim_in: int, dim_out: int, n_kraus: int, seed: int) -> QuantumChannel:
    """Random CPTP map from a Haar-random Stinespring isometry.

    Refused above 512 MiB (the complex Ginibre matrix, 16 dim_out n_kraus dim_in bytes).
    """
    if dim_out * n_kraus < dim_in:
        raise DimensionError("dim_out * n_kraus must be >= dim_in for an isometry")
    if n_kraus > dim_in * dim_out:
        raise DimensionError(
            f"n_kraus = {n_kraus} exceeds dim_in*dim_out = {dim_in * dim_out}; "
            "larger families are redundant"
        )
    _check_dense_bytes(16 * dim_out * n_kraus * dim_in,
                       f"the {dim_out * n_kraus} x {dim_in} Ginibre matrix")
    blocks = _haar_isometry(dim_out * n_kraus, dim_in, seed).reshape(dim_out, n_kraus, dim_in)
    return QuantumChannel(dim_in, dim_out, blocks.transpose(1, 0, 2))


# -- channel algebra ----------------------------------------------------------


def compose(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    """Channel acting as outer after inner.

    The product family {K_outer K_inner} can be larger than dim_in*dim_out;
    when it is, an equivalent minimal family is re-extracted from the Choi
    matrix (same action, fewer operators).
    """
    if inner.dim_out != outer.dim_in:
        raise DimensionError(
            f"inner output dim {inner.dim_out} does not feed outer input dim "
            f"{outer.dim_in}"
        )
    products = (outer.kraus[:, None] @ inner.kraus[None, :]).reshape(
        -1, outer.dim_out, inner.dim_in)
    products = products[np.any(products, axis=(1, 2))]
    return _minimal_channel(products, inner.dim_in, outer.dim_out)


def tensor(first: QuantumChannel, *rest: QuantumChannel) -> QuantumChannel:
    """Tensor product channel with Kraus family {K_a (x) K_b (x) ...}, a-index leading.

    The Kraus arrays are multiplied left to right, with the bits of nested
    two-channel products, into one channel: a product of trace-preserving families
    is trace preserving, so no intermediate channel is built or checked. One
    channel is its own tensor product.
    """
    if not rest:
        return first
    ops, d_in, d_out = first.kraus, first.dim_in, first.dim_out
    for b in rest:
        ops = ops[:, None, :, None, :, None] * b.kraus[None, :, None, :, None, :]
        d_in, d_out = d_in * b.dim_in, d_out * b.dim_out
        ops = ops.reshape(-1, d_out, d_in)
    return QuantumChannel(d_in, d_out, ops)


def choi_to_kraus(j, dim_in: int, dim_out: int) -> QuantumChannel:
    """Kraus family from a Choi matrix or ``DensityOperator`` on dim_out * dim_in.

    Eigenpairs with eigenvalue above 1e-12 become Kraus operators
    sqrt(eigenvalue * dim_in) * unvec(eigenvector); anything smaller is
    numerical noise. Raises CPTPError when the matrix has an eigenvalue below
    -1e-10 or its reduced state on the input factor is not identity/dim_in
    within CHOI_MARGINAL_TOL.
    """
    m = _as_matrix(j)
    if m.shape != (dim_in * dim_out, dim_in * dim_out):
        raise DimensionError("Choi matrix shape does not match dimensions")
    _check_choi_marginal(m, dim_in, dim_out)
    eigs, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    if float(eigs[0]) < -1e-10:
        raise CPTPError(f"Choi matrix has negative eigenvalue {float(eigs[0]):.3e}")
    keep = eigs > KRAUS_EIGENVALUE_CUTOFF
    if not np.any(keep):
        raise CPTPError("Choi matrix has no eigenvalue above the extraction cutoff")
    ops = (np.sqrt(eigs[keep] * dim_in) * vecs[:, keep]).T
    return QuantumChannel(dim_in, dim_out, ops.reshape(-1, dim_out, dim_in))


# -- Lipschitz lower bound -----------------------------------------------------


def _orthonormal_pair(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    z = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    q, _ = np.linalg.qr(z)
    return q[:, 0], q[:, 1]


def _pair_objectives(ch, psis: np.ndarray, phis: np.ndarray) -> list:
    """||ch(psi) - ch(phi)||_1 / 2 for each row pair, from one applied block [psis; phis]."""
    out = ch.apply_pure_batch(np.concatenate((psis, phis)))
    n = len(psis)
    out[:n] -= out[n:]  # in place: the differences add no half block
    return _half_trace_norms(out[:n]).tolist()


def lipschitz_estimate(ch, trials: int, seed: int) -> float:
    """Lower bound on the trace-norm contraction ratio of the channel.

    Orthogonal pure pairs have difference of trace norm exactly 2, so
    ||channel(psi - phi)||_1 / 2 never exceeds the true constant; maximizing
    it over random pairs with greedy local refinement gives a guaranteed
    lower bound. ``ch`` needs only ``dim_in``, ``apply_pure_batch`` and
    ``_row_bytes``. Trial t draws from its own seed
    ``derive_seed(seed, t)``. Trials run in lockstep groups, and each
    refinement round applies all of a group's candidate pairs as one block.
    A group is as large as ``_block_items`` allows: at most _BLOCK_ROWS / 2
    trials, and no more than fit 16 MiB (``_BLOCK_BYTES``) at 8 input rows (its
    pairs and candidates) and two applied rows (the channel's ``_row_bytes``) per
    trial, so the block never grows past the budget with ``trials``.

    The matrix-free restricted channels give outputs that do not depend on
    the block's row count, so there every trial follows the same path as it
    would alone, and the result is nondecreasing in ``trials`` for a fixed
    seed. A dense ``QuantumChannel`` applies a block with one GEMM whose
    rounding depends on the row count, so both hold only up to rounding.
    Reports and the ``lipschitz`` command search only where the channel has
    no ``exact_eta`` (see ``_eta``).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if ch.dim_in == 1:
        return 0.0
    group = _block_items(16 * 8 * ch.dim_in + 2 * ch._row_bytes, 2)
    groups = (range(first, min(first + group, trials)) for first in range(0, trials, group))
    return min(max(max(_lockstep_search(ch, ids, seed)) for ids in groups), 1.0)


def _eta(ch, trials: int, seed: int) -> tuple[float, bool]:
    """(eta, exact): the channel's ``exact_eta()`` where it has one, else the lower bound
    ``lipschitz_estimate(ch, trials, seed)``."""
    exact = getattr(ch, "exact_eta", None)
    if exact is not None:
        return exact(), True
    return lipschitz_estimate(ch, trials, seed), False


def _lockstep_search(ch, trial_ids: range, seed: int) -> list:
    """Final objective of each trial's greedy search, the trials refined side by side."""
    d = ch.dim_in
    rngs = [_generator(derive_seed(seed, t)) for t in trial_ids]
    pairs = [_orthonormal_pair(rng, d) for rng in rngs]
    psis = np.array([psi for psi, _ in pairs])
    phis = np.array([phi for _, phi in pairs])
    values = _pair_objectives(ch, psis, phis)
    steps = [0.4] * len(rngs)
    for _ in range(60):
        drawn, cand_psis, cand_phis = [], [], []
        for i, (rng, step) in enumerate(zip(rngs, steps)):
            if step < 1e-4:
                continue
            noise = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
            cand_psi = psis[i] + step * noise[:, 0]
            cand_psi = cand_psi / np.linalg.norm(cand_psi)
            cand_phi = phis[i] + step * noise[:, 1]
            cand_phi = cand_phi - (cand_psi.conj() @ cand_phi) * cand_psi
            norm = np.linalg.norm(cand_phi)
            if norm < 1e-12:
                steps[i] *= 0.5
                continue
            drawn.append(i)
            cand_psis.append(cand_psi)
            cand_phis.append(cand_phi / norm)
        if not drawn:
            continue
        cand_values = _pair_objectives(ch, np.array(cand_psis), np.array(cand_phis))
        for i, cand_psi, cand_phi, cand_value in zip(drawn, cand_psis, cand_phis, cand_values):
            if cand_value > values[i]:
                psis[i], phis[i], values[i] = cand_psi, cand_phi, cand_value
            else:
                steps[i] *= 0.7
    return values


# -- serialization --------------------------------------------------------------


def channel_to_json_dict(ch: QuantumChannel) -> dict:
    """Wire format: row-major flat list of [re, im] pairs per Kraus operator."""
    return {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus": [
            [[float(z.real), float(z.imag)] for z in k.reshape(-1)] for k in ch.kraus
        ],
    }


def channel_from_json_dict(data: dict) -> QuantumChannel:
    """The channel of a wire-format object; its dimensions must be integers >= 1, not bools.

    Anything malformed raises CPTPError before any array is built.
    """
    try:
        dim_in, dim_out = data["dim_in"], data["dim_out"]
        if not all(type(d) is int and d >= 1 for d in (dim_in, dim_out)):
            raise ValueError(f"dimensions {dim_in!r} x {dim_out!r} are not integers >= 1")
        pairs = np.array(data["kraus"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise CPTPError(f"malformed channel object: {exc}") from exc
    if pairs.ndim != 3 or pairs.shape[1:] != (dim_in * dim_out, 2):
        raise CPTPError(
            f"Kraus entries of shape {pairs.shape} are not lists of "
            f"{dim_out} x {dim_in} [re, im] pairs"
        )
    ops = pairs.view(np.complex128).reshape(-1, dim_out, dim_in)
    return QuantumChannel(dim_in, dim_out, ops)


def save_channel(ch: QuantumChannel, path) -> None:
    """Write the bytes of ``json.dump(channel_to_json_dict(ch))`` and a newline.

    The Kraus entries are dumped in runs of at most 4096 [re, im] pairs, so no
    nested list of the whole family is built: the head first, then each operator's
    runs without their outer brackets, joined by ", ".
    """
    run, head = 4096, json.dumps({"dim_in": ch.dim_in, "dim_out": ch.dim_out, "kraus": []})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-2])  # up to the opening bracket of the Kraus list
        for i, op in enumerate(ch.kraus):
            pairs = op.reshape(-1).view(np.float64).reshape(-1, 2)
            fh.write(", [" if i else "[")
            for start in range(0, len(pairs), run):
                fh.write((", " if start else "")
                         + json.dumps(pairs[start:start + run].tolist())[1:-1])
            fh.write("]")
        fh.write("]}\n")


def load_channel(path) -> QuantumChannel:
    with open(path, "r", encoding="utf-8") as fh:
        return channel_from_json_dict(json.load(fh))
