"""Completely positive trace-preserving maps held as one Kraus array.

A channel stores its Kraus family as one read-only, C-contiguous complex128
array of shape (n_kraus, dim_out, dim_in); its (n_kraus*dim_out, dim_in)
reshape is the stacked family that every action multiplies with. The Choi
matrix is derived on demand and cached. Conversions to Stinespring form,
channel algebra (compose / tensor), entropy, and a Lipschitz-constant lower
bound all live here. Choi matrices use the convention J = (channel x id)
applied to the maximally entangled state, with the output factor leading,
so J has dimension dim_out * dim_in and its reduced state on the input
factor is identity(dim_in)/dim_in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .qcore import (
    DensityOperator,
    DimensionError,
    _as_matrix,
    _check_dense_bytes,
    _generator,
    _partial_trace_matrix,
    derive_seed,
)

__all__ = [
    "CPTPError",
    "ConsistencyError",
    "QuantumChannel",
    "ChoiState",
    "StinespringIsometry",
    "identity_channel",
    "unitary_channel",
    "replace_channel",
    "partial_trace_channel",
    "depolarizing",
    "random_channel",
    "compose",
    "tensor",
    "choi_to_kraus",
    "lipschitz_estimate",
    "channels_equal",
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


@dataclass(frozen=True, eq=False)
class QuantumChannel:
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

    def choi(self) -> "ChoiState":
        """Choi state of the channel; computed once and cached."""
        cached = getattr(self, "_choi_cache", None)
        if cached is None:
            j = _choi_matrix(self.kraus, self.dim_in)
            # a Gram matrix is positive semidefinite by construction, so the
            # eigenvalue check would only burn an O(dim^3) eigendecomposition
            cached = ChoiState(self.dim_in, self.dim_out,
                               DensityOperator(j, validate=False))
            object.__setattr__(self, "_choi_cache", cached)
        return cached

    def stinespring(self) -> "StinespringIsometry":
        """Isometry V with tr over the environment of V rho V^dagger = apply(rho).

        Kraus blocks are interleaved so the output factor leads and the
        environment (dimension = number of Kraus operators) trails.
        """
        v = self.kraus.transpose(1, 0, 2).reshape(-1, self.dim_in)
        return StinespringIsometry(matrix=v, dim_env=self.n_kraus, dim_in=self.dim_in,
                                   dim_out=self.dim_out)

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

    def apply(self, rho: DensityOperator) -> DensityOperator:
        """Channel output as a validated density operator."""
        return DensityOperator(self.apply_matrix(_as_matrix(rho)))

    def apply_pure(self, amplitudes) -> np.ndarray:
        """Fast path for pure inputs: channel applied to |psi><psi|."""
        psi = np.asarray(amplitudes, dtype=np.complex128)
        if psi.shape != (self.dim_in,):
            raise DimensionError(
                f"state of dim {psi.shape} does not match input dim {self.dim_in}"
            )
        phi = (self.kraus.reshape(-1, self.dim_in) @ psi).reshape(self.n_kraus, -1)
        return phi.T @ phi.conj()

    def apply_pure_batch(self, psis) -> np.ndarray:
        """``apply_pure`` for a (B, dim_in) block of pure inputs, one per row.

        Returns the (B, dim_out, dim_out) stack of outputs. The whole block
        goes through the stacked Kraus array in one GEMM, and the outputs are
        formed by one batched matmul.
        """
        psis = _state_block(psis, self.dim_in)
        phi = (psis @ self.kraus.reshape(-1, self.dim_in).T).reshape(
            -1, self.n_kraus, self.dim_out)
        return phi.transpose(0, 2, 1) @ phi.conj()

    def canonical_state(self) -> DensityOperator:
        """Image of the maximally mixed input: the canonical state of the channel."""
        d = self.dim_in
        return DensityOperator(self.apply_matrix(np.eye(d, dtype=np.complex128) / d))

    # -- scalar diagnostics -------------------------------------------------

    def linear_entropy(self) -> float:
        """1 - tr(J^2), computed by two independent routes.

        Route one is the purity of the materialized Choi matrix; route two is
        the Kraus double sum (1/dim_in^2) * sum_{m,n} |tr(K_m K_n^dagger)|^2.
        Disagreement beyond ROUTE_TOL means a representation bug somewhere, so
        it raises instead of silently picking one number.
        """
        return _gated_linear_entropy(*self._purity_routes())

    def choi_purity_routes(self) -> tuple[float, float]:
        """(Choi-matrix purity, Kraus double-sum purity) without consistency gating."""
        return self._purity_routes()

    def _purity_routes(self) -> tuple[float, float]:
        v = self.kraus.reshape(self.n_kraus, -1)
        gram = v @ v.conj().T
        return self.choi().purity(), float(np.sum(np.abs(gram) ** 2)) / self.dim_in**2


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


@dataclass(frozen=True, eq=False)
class ChoiState:
    """Choi state of a channel: a density operator on output (x) input."""

    dim_in: int
    dim_out: int
    state: DensityOperator

    def __post_init__(self):
        if self.state.dim != self.dim_in * self.dim_out:
            raise DimensionError(
                f"Choi matrix dim {self.state.dim} is not dim_out*dim_in = "
                f"{self.dim_in * self.dim_out}"
            )
        marginal = _partial_trace_matrix(self.state.matrix, "B",
                                         (self.dim_out, self.dim_in))
        dev = float(np.max(np.abs(marginal - np.eye(self.dim_in) / self.dim_in)))
        if not dev <= TP_TOL:
            raise CPTPError(
                f"Choi reduced state deviates from identity/dim_in by {dev:.3e}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.state.matrix

    def purity(self) -> float:
        return self.state.purity()

    def to_channel(self) -> QuantumChannel:
        return choi_to_kraus(self)


@dataclass(frozen=True, eq=False)
class StinespringIsometry:
    """Isometry V: input -> output (x) environment with V^dagger V = identity."""

    matrix: np.ndarray
    dim_env: int
    dim_in: int
    dim_out: int

    def __post_init__(self):
        v = np.asarray(self.matrix, dtype=np.complex128)
        if v.shape != (self.dim_out * self.dim_env, self.dim_in):
            raise DimensionError("isometry shape does not match declared dimensions")
        dev = float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim_in))))
        if not dev <= TP_TOL:
            raise ValueError(f"V^dagger V deviates from the identity by {dev:.3e}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "matrix", v)

    def reconstruct(self, m) -> np.ndarray:
        """tr over the environment of V m V^dagger."""
        m = np.asarray(m, dtype=np.complex128)
        big = self.matrix @ m @ self.matrix.conj().T
        t = big.reshape(self.dim_out, self.dim_env, self.dim_out, self.dim_env)
        return np.einsum("aibi->ab", t)


# -- construction helpers ----------------------------------------------------


def _choi_matrix(kraus: np.ndarray, dim_in: int) -> np.ndarray:
    """Choi matrix (1/dim_in) sum_m vec(K_m) vec(K_m)^dagger, row-major vec."""
    _check_dense_bytes(16 * kraus[0].size ** 2, f"the {kraus[0].size}^2 Choi matrix")
    v = kraus.reshape(kraus.shape[0], -1)
    j = v.T @ v.conj()
    j /= dim_in  # in place: the Choi matrix is the largest array a channel builds
    return j


def identity_channel(dim: int) -> QuantumChannel:
    """Identity channel on dim; refused above 512 MiB (16 dim^2 bytes)."""
    _check_dense_bytes(16 * dim**2, f"the identity channel on {dim}")
    return QuantumChannel(dim, dim, (np.eye(dim, dtype=np.complex128),))


def unitary_channel(u) -> QuantumChannel:
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError("unitary must be square")
    return QuantumChannel(u.shape[0], u.shape[0], (u,))


def replace_channel(sigma: DensityOperator, dim_in: int | None = None) -> QuantumChannel:
    """Channel rho -> tr(rho) * sigma."""
    target = _as_matrix(sigma)
    d_out = target.shape[0]
    d_in = d_out if dim_in is None else dim_in
    eigs, vecs = np.linalg.eigh(target)
    keep = eigs > KRAUS_EIGENVALUE_CUTOFF
    # K_(r, j) = sqrt(eig_r) |v_r><j| for every kept eigenpair r and input index j
    ops = np.zeros((np.count_nonzero(keep), d_in, d_out, d_in), dtype=np.complex128)
    j = np.arange(d_in)
    ops[:, j, :, j] = (np.sqrt(eigs[keep]) * vecs[:, keep]).T
    return QuantumChannel(d_in, d_out, ops.reshape(-1, d_out, d_in))


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

    Complete positivity holds for 0 <= lam <= 1 + 1/(d^2 - 1); validity is
    always decided by the Choi eigenvalues rather than by a formula. Inside
    [0, 1] the channel is assembled from the shift/clock unitary family; for
    lam > 1 no probabilistic mixture exists and the Kraus family is extracted
    from the Choi matrix instead. Either way a d^2 x d^2 array is built, so
    the channel is refused above 512 MiB (16 d^4 bytes).
    """
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    if lam < 0:
        raise CPTPError(f"lambda = {lam} is negative")
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
    if lam <= 1.0:
        # X^0 Z^0, the identity, leads the family and also carries the undepolarized part
        ops = _weyl_shift_clock(d)
        ops *= np.sqrt(lam) / d
        ops[0] = np.sqrt(1.0 - lam + lam / d**2) * np.eye(d, dtype=np.complex128)
        return QuantumChannel(d, d, ops if lam > 0 else ops[:1])  # lam = 0: the identity alone
    # lam > 1: Choi = lam * (I/d (x) I/d) + (1 - lam) * phi_plus
    phi = np.zeros((d * d, d * d), dtype=np.complex128)
    diag = np.arange(d) * (d + 1)  # the index i * d + i of |i, i>
    phi[np.ix_(diag, diag)] = 1.0 / d
    j_matrix = (lam / d**2) * np.eye(d * d, dtype=np.complex128) + (1.0 - lam) * phi
    return choi_to_kraus(j_matrix, dim_in=d, dim_out=d)


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
    rng = _generator(seed)
    z = rng.standard_normal((dim_out * n_kraus, dim_in)) \
        + 1j * rng.standard_normal((dim_out * n_kraus, dim_in))
    q, r = np.linalg.qr(z)
    v = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    blocks = v.reshape(dim_out, n_kraus, dim_in)
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
    if products.shape[0] > inner.dim_in * outer.dim_out:
        j = _choi_matrix(products, inner.dim_in)
        return choi_to_kraus(j, dim_in=inner.dim_in, dim_out=outer.dim_out)
    return QuantumChannel(inner.dim_in, outer.dim_out, products)


def tensor(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Tensor product channel with Kraus family {K_a (x) K_b}, a-index leading."""
    ops = a.kraus[:, None, :, None, :, None] * b.kraus[None, :, None, :, None, :]
    d_in, d_out = a.dim_in * b.dim_in, a.dim_out * b.dim_out
    return QuantumChannel(d_in, d_out, ops.reshape(-1, d_out, d_in))


def tensor_all(factors) -> QuantumChannel:
    return reduce(tensor, factors)


def choi_to_kraus(j, dim_in: int | None = None, dim_out: int | None = None) -> QuantumChannel:
    """Kraus family from a Choi matrix.

    Eigenpairs with eigenvalue above 1e-12 become Kraus operators
    sqrt(eigenvalue * dim_in) * unvec(eigenvector); anything smaller is
    numerical noise. Raises CPTPError when the matrix has an eigenvalue below
    -1e-10 or its reduced state on the input factor is not identity/dim_in.
    """
    if isinstance(j, ChoiState):
        m, dim_in, dim_out = j.matrix, j.dim_in, j.dim_out
    else:
        if dim_in is None or dim_out is None:
            raise ValueError("raw Choi matrices need explicit dim_in and dim_out")
        m = np.asarray(j, dtype=np.complex128)
        if m.shape != (dim_in * dim_out, dim_in * dim_out):
            raise DimensionError("Choi matrix shape does not match dimensions")
        marginal = _partial_trace_matrix(m, "B", (dim_out, dim_in))
        dev = float(np.max(np.abs(marginal - np.eye(dim_in) / dim_in)))
        if not dev <= CHOI_MARGINAL_TOL:
            raise CPTPError(
                f"Choi reduced state deviates from identity/dim_in by {dev:.3e}; "
                "map is not trace preserving"
            )
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


def _pair_objective(ch, psi: np.ndarray, phi: np.ndarray) -> float:
    out = ch.apply_pure_batch(np.stack((psi, phi)))
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(out[0] - out[1]))))


def lipschitz_estimate(ch, trials: int, seed: int) -> float:
    """Lower bound on the trace-norm contraction ratio of the channel.

    Orthogonal pure pairs have difference of trace norm exactly 2, so
    ||channel(psi - phi)||_1 / 2 never exceeds the true constant; maximizing
    it over random pairs with greedy local refinement gives a guaranteed
    lower bound. The result is nondecreasing in ``trials`` for a fixed seed
    because each trial only extends the maximized set. ``ch`` needs only
    ``dim_in`` and ``apply_pure_batch``: each candidate pair is applied as one
    two-row block.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = ch.dim_in
    if d == 1:
        return 0.0
    best = 0.0
    for t in range(trials):
        rng = _generator(derive_seed(seed, t))
        psi, phi = _orthonormal_pair(rng, d)
        value = _pair_objective(ch, psi, phi)
        step = 0.4
        for _ in range(60):
            if step < 1e-4:
                break
            noise = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
            cand_psi = psi + step * noise[:, 0]
            cand_psi = cand_psi / np.linalg.norm(cand_psi)
            cand_phi = phi + step * noise[:, 1]
            cand_phi = cand_phi - (cand_psi.conj() @ cand_phi) * cand_psi
            norm = np.linalg.norm(cand_phi)
            if norm < 1e-12:
                step *= 0.5
                continue
            cand_phi = cand_phi / norm
            cand_value = _pair_objective(ch, cand_psi, cand_phi)
            if cand_value > value:
                psi, phi, value = cand_psi, cand_phi, cand_value
            else:
                step *= 0.7
        best = max(best, value)
    return min(best, 1.0)


# -- equality and serialization -------------------------------------------------


def channels_equal(a: QuantumChannel, b: QuantumChannel, tol: float = 1e-10) -> bool:
    """Equality of channel action on every matrix unit within tol.

    Kraus families are not unique, so equality is decided on the action. The
    maximal deviation over matrix units equals dim_in times the elementwise
    Choi difference, which avoids the explicit loop over units.
    """
    if a.dim_in != b.dim_in or a.dim_out != b.dim_out:
        return False
    diff = float(np.max(np.abs(a.choi().matrix - b.choi().matrix)))
    return a.dim_in * diff <= tol


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
    try:
        dim_in = int(data["dim_in"])
        dim_out = int(data["dim_out"])
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_json_dict(ch), fh)
        fh.write("\n")


def load_channel(path) -> QuantumChannel:
    with open(path, "r", encoding="utf-8") as fh:
        return channel_from_json_dict(json.load(fh))
