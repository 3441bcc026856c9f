"""Dense complex linear algebra primitives: states, operators, Haar sampling, distances.

Conventions shared by every module in the package:

* the computational basis of ``n`` qubits is ordered lexicographically by
  bitstring, with qubit 0 the most significant bit;
* all arrays are ``complex128`` and immutable after construction;
* randomness is reproducible through ``derive_seed(master_seed, index)``,
  so results never depend on how work is split across processes;
* one size policy: ``_check_dense_bytes`` refuses, before allocating, any
  dense array above the 512 MiB budget with a ``DimensionError``, and
  ``_block_items`` sizes batched blocks by the same budget, capped at
  ``_BLOCK_ROWS`` states and ``_BLOCK_BYTES`` (16 MiB);
* one output format: floats are written at ``FLOAT_FORMAT`` (17 significant
  digits, enough to read every float back exactly), and every CSV table, JSON
  report and plot script is written by ``_write_lines``, UTF-8 with LF line
  endings, in runs of ``_RUN_LINES`` (4096) lines, so no file is held whole as
  text, and a file takes its name only once its last line is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import operator
import os
import struct
from dataclasses import InitVar, dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "DensityOperator",
    "derive_seed",
    "haar_sample",
    "haar_unitary",
    "trace_distance",
    "partial_trace",
]

_U32 = (1 << 32) - 1
_U64 = (1 << 64) - 1
_U128 = (1 << 128) - 1

HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
TRACE_TOL = 1e-10
_DENSE_BYTES_LIMIT = 512 * 2**20  # largest dense array the package may allocate
_BLOCK_ROWS = 256  # most states in one batched block; a constant, so block shapes never depend on the machine
_BLOCK_BYTES = 16 * 2**20  # most bytes of one batched block: blocks on every CPU fit the budget
FLOAT_FORMAT = ".17g"  # the format of every float the package writes to a file
_RUN_LINES = 4096  # lines that _write_lines holds as text and writes at once; never a whole file


class DimensionError(ValueError):
    """Operands live on incompatible or invalid Hilbert space dimensions."""


def _check_dense_bytes(n_bytes: int, what: str) -> None:
    """Refuse, before allocating, a dense array above the budget, ``_DENSE_BYTES_LIMIT``."""
    if n_bytes > _DENSE_BYTES_LIMIT:
        raise DimensionError(f"{what} needs {_mib(n_bytes)} (limit {_mib(_DENSE_BYTES_LIMIT)})")


def _count(n) -> str:
    """A count as text: in full below 2^53, else 2^x with x to one decimal, so that no
    count is printed with more digits than a float holds (Python refuses to print an
    integer of more than 4300 digits)."""
    return f"{n:.0f}" if n < 2**53 else f"2^{math.log2(n):.1f}"


def _mib(n_bytes: int) -> str:
    """A byte count in MiB: four significant digits below 1 MiB, whole MiB (``_count``)
    from there. From 2^53 MiB up, where ``_count`` writes 2^x, the MiB are an integer
    shift, so no float division overflows."""
    if n_bytes < 2**20:
        return f"{n_bytes / 2**20:.4g} MiB"
    return f"{_count(n_bytes / 2**20 if n_bytes < 2**73 else n_bytes >> 20)} MiB"


def _write_lines(path, lines) -> None:
    """The lines of any iterable, each ended by LF, to ``path`` as UTF-8, a run at a time.

    The runs go to ``<path>.partial``, which replaces ``path`` after the last one, so a
    line that raises leaves no partial file behind, and an older ``path`` unchanged.
    """
    lines, partial = iter(lines), f"{os.fspath(path)}.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            while run := list(itertools.islice(lines, _RUN_LINES)):
                fh.write("\n".join(run) + "\n")
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _write_json(path, payload: dict) -> None:
    """``payload`` as indented JSON with sorted keys and a final LF, encoded once.

    The bytes are those of ``json.dump`` with the same settings, which writes the
    indented encoder's many small chunks one at a time.
    """
    _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _block_items(item_bytes: int, rows_per_item: int) -> int:
    """Items per batched block, each item rows_per_item states needing item_bytes in all.

    At most _BLOCK_ROWS states and _BLOCK_BYTES within the 512 MiB budget, and at least
    one item: an item alone above the budget is left for its own size check to refuse.
    """
    return max(1, min(_BLOCK_ROWS // rows_per_item,
                      min(_DENSE_BYTES_LIMIT, _BLOCK_BYTES) // item_bytes))


def _as_matrix(a) -> np.ndarray:
    """Accept either a wrapped operator or a bare ndarray."""
    return a.matrix if hasattr(a, "matrix") else np.asarray(a, dtype=np.complex128)


_HERMITIAN_BLOCK = 2**14  # entries per row block of the hermiticity check


def _hermitian_copy(matrix) -> np.ndarray:
    """Read-only complex copy of a square, nonempty, Hermitian matrix: the one copy that is kept.

    The largest |m - m^dagger| entry must be within HERMITICITY_TOL; it is checked in
    row blocks of at most _HERMITIAN_BLOCK entries, so the check adds no temporary
    the size of m.
    """
    m = np.array(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionError("density operator must be a square nonempty matrix")
    rows = max(1, _HERMITIAN_BLOCK // m.shape[1])
    dev = float(np.max([np.max(np.abs(m[i:i + rows] - m[:, i:i + rows].conj().T))
                        for i in range(0, m.shape[0], rows)]))
    if not dev <= HERMITICITY_TOL:  # also rejects NaN entries
        raise ValueError(f"matrix deviates from Hermitian by {dev:.3e} (> {HERMITICITY_TOL:.0e})")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator.

    ``validate=False`` skips the eigenvalue check for internal callers that
    construct the matrix from an already-verified recipe; public entry
    points always validate.
    """

    matrix: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        m = _hermitian_copy(self.matrix)
        tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within {TRACE_TOL:.0e}")
        if validate:
            low = float(np.linalg.eigvalsh(m)[0])
            if not low >= EIGENVALUE_FLOOR:
                raise ValueError(
                    f"minimum eigenvalue {low:.3e} is below the PSD floor {EIGENVALUE_FLOOR:.0e}"
                )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return _square_sum(self.matrix)


def _square_sum(m: np.ndarray) -> float:
    """sum |m_ab|^2 from the moduli of m, squared in place: the bits of ``np.abs(m) ** 2``."""
    squares = np.abs(m)
    squares *= squares
    return float(np.sum(squares))


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit per-index seed.

    The value depends only on ``(master_seed, index)``, never on platform,
    worker layout, or call order, which is what makes parallel sampling
    reproducible.
    """
    index = operator.index(index) & _U64
    return _derive_seeds(master_seed, index, index + 1)[0]


_SEED_WORDS = struct.Struct("<QQ")  # (master, index), the payload that is hashed


def _derive_seeds(master_seed: int, start: int, stop: int) -> list[int]:
    """[derive_seed(master_seed, i) for i in range(start, stop)], 0 <= start <= stop <= 2**64.

    The master is masked once and each payload packed by one precompiled struct.
    """
    master, pack, blake2b = operator.index(master_seed) & _U64, _SEED_WORDS.pack, hashlib.blake2b
    return [int.from_bytes(blake2b(pack(master, i), digest_size=8).digest(), "little")
            for i in range(start, stop)]


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(operator.index(seed) & _U64))


def _hash_consts(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """(calls, 1) columns of the constant each hash call xors in and the one it multiplies by."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _U32)
    col = np.array(consts, dtype=np.uint32)[:, None]
    return col[:-1], col[1:]


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and the
# 128-bit PCG multiplier (numpy/random/src/pcg64/pcg64.h); NEP 19 keeps this
# seeding stream-stable across numpy versions.
_MIX_XOR, _MIX_MUL = _hash_consts(0x43B0D7E5, 0x931E8875, 16)  # mix_entropy's hashmix calls
# generate_state's 8 output words, (2, 4) over the pool: word 4 j + r hashes pool word r
_GEN_XOR, _GEN_MUL = (c.reshape(2, 4, 1) for c in _hash_consts(0x8B51F9DD, 0x58F38DED, 8))
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# mix_entropy's source stages: pool word src is hashed into the other three,
# by hashmix calls 4 + 3 src .. 6 + 3 src
_MIX_STAGES = tuple((src, [dst for dst in range(4) if dst != src], slice(4 + 3 * src, 7 + 3 * src))
                    for src in range(4))


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (values ^ xor) * mul
    return v ^ (v >> _XSHIFT)


def _pcg64_states(seeds) -> list[tuple[int, int]]:
    """The (state, inc) pair that ``np.random.PCG64(seed & _U64)`` starts from, for each seed.

    numpy seeds PCG64 through SeedSequence, a fixed 32-bit hash of the seed's
    words, then PCG64's srandom. Both are evaluated here for the whole block:
    the hash in uint32 array arithmetic, the 128-bit srandom in Python ints.
    A seed below 2**32 is one entropy word in numpy; its zero high word hashes
    exactly like the missing word, so two words per seed give the same bits.
    """
    s = np.array([operator.index(seed) & _U64 for seed in seeds], dtype=np.uint64)
    pool = np.zeros((4, s.size), dtype=np.uint32)  # SeedSequence's pool, one column per seed
    pool[0] = s & _U32
    pool[1] = s >> 32
    pool = _hashmix(pool, _MIX_XOR[:4], _MIX_MUL[:4])
    for src, dst, calls in _MIX_STAGES:
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _MIX_XOR[calls], _MIX_MUL[calls])
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    words = _hashmix(pool, _GEN_XOR, _GEN_MUL).reshape(8, -1).astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = (words[0::2] | words[1::2] << 32).astype(object)
    inc = (seq_hi << 65 | seq_lo << 1 | 1) & _U128
    state = ((init_hi << 64 | init_lo) + inc) * _PCG_MULT + inc & _U128
    return list(zip(state.tolist(), inc.tolist()))


def haar_sample(dim: int, seed: int) -> np.ndarray:
    """Draw a pure state from the unitarily invariant measure, as a read-only (dim,) array.

    2*dim independent standard Gaussians are assembled into a complex vector
    and normalized; rotational invariance of the Gaussian makes the result
    exactly Haar distributed. Deterministic for a fixed seed.
    """
    psi = _haar_rows(dim, (seed,))[0]
    psi.setflags(write=False)
    return psi


def _haar_rows(dim: int, seeds) -> np.ndarray:
    """(len(seeds), dim) block of Haar states, row i drawn as ``haar_sample(dim, seeds[i])``.

    One generator serves the whole call. Before each row it is re-seeded to the
    state ``PCG64(seed)`` starts from, which ``_pcg64_states`` computes for the
    whole block at once by vectorising numpy's SeedSequence hash, so every row
    has the bits of a generator of its own. The row's 2*dim Gaussians fill one
    reused (2, dim) buffer and are copied into its real and imaginary parts.
    The squared row norms are then summed as ``np.linalg.norm`` sums them, one
    dot product per part and row, by two stacked (1 x dim) @ (dim x 1) products
    over the strided parts, and the block's float64 view is multiplied in place
    by the reciprocal row norms. numpy divides a complex by a real c as
    x * (1 / c) (Smith's method with a zero imaginary part), so the bits are
    those of ``z / np.linalg.norm(z)``. The block is the only array of its
    size; the multiply's ufunc buffer (at most 64 KiB) is allocated after the
    draw buffer is released. One unit-norm check (within 1e-12) covers the
    whole block.
    """
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    block = np.empty((len(seeds), dim), dtype=np.complex128)
    buf = np.empty((2, dim))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for i, (state, inc) in enumerate(_pcg64_states(seeds)):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=buf)
        row = block[i]
        row.real, row.imag = buf
    del buf, rng, bit_generator  # dead before the scaling's ufunc buffer is allocated
    re, im = block.real[:, None], block.imag[:, None]
    sq_norms = (re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0]
    flat = block.view(np.float64)
    flat *= np.divide(1.0, np.sqrt(sq_norms, out=sq_norms), out=sq_norms)
    dev = float(np.max(np.abs(np.sqrt(np.einsum("ij,ij->i", flat, flat)) - 1.0)))
    if not dev <= 1e-12:
        raise ValueError(f"Haar state norm deviates from 1 by {dev!r} (> 1e-12)")
    return block


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary: ``_haar_isometry(dim, dim, seed)``.

    Refused above 512 MiB (16 dim^2 bytes).
    """
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    _check_dense_bytes(16 * dim**2, f"the {dim} x {dim} Haar unitary")
    return _haar_isometry(dim, dim, seed)


def _haar_isometry(rows: int, cols: int, seed: int) -> np.ndarray:
    """Haar-distributed (rows, cols) isometry, rows >= cols: the QR of a complex Ginibre
    matrix, real and imaginary parts drawn in turn, with the column phases fixed."""
    rng = _generator(seed)
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _half_trace_norms(m: np.ndarray) -> np.ndarray:
    """Half the trace norm of each Hermitian matrix in a stack, over the last two axes."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(m)), axis=-1)


def trace_distance(a, b) -> float:
    """Half the trace norm of (a - b), from eigenvalues of the Hermitian difference."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return float(_half_trace_norms(ma - mb))


def _partial_trace_matrix(m: np.ndarray, keep: str, dims: tuple[int, int]) -> np.ndarray:
    d_a, d_b = dims
    if m.shape != (d_a * d_b, d_a * d_b):
        raise DimensionError(
            f"matrix of dim {m.shape[0]} does not factor as {d_a} x {d_b}"
        )
    t = m.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("abcb->ac", t)
    if keep == "B":
        return np.einsum("abac->bc", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_trace(rho, keep: str, dims: tuple[int, int]) -> DensityOperator:
    """Reduced state on the kept tensor factor.

    Parameters
    ----------
    rho : DensityOperator or ndarray on dimension dims[0]*dims[1]
    keep : "A" for the leading factor, "B" for the trailing one
    dims : (d_A, d_B) factor dimensions, leading factor first
    """
    reduced = _partial_trace_matrix(_as_matrix(rho), keep, dims)
    return DensityOperator(reduced)
