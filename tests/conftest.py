import os

import numpy as np
import pytest

from qtypical import qcore
from qtypical.channels import _choi_matrix
from qtypical.qcore import DensityOperator, _generator


@pytest.fixture
def small_dense_budget(monkeypatch):
    """Shrink the dense budget to 64 KiB, so refusal tests never need gigabytes."""
    monkeypatch.setattr(qcore, "_DENSE_BYTES_LIMIT", 2**16)
    return 2**16


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process, running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid or '(still running)'}")


@pytest.fixture
def draw_log(tmp_path, monkeypatch):
    """Record the chunks ``typicality`` draws, in this process and in forked workers.

    ``typicality._haar_rows`` is wrapped to append one line per call, the drawing
    process id and the chunk's seeds, in one write to a file opened with O_APPEND, so
    a worker's record outlives it. Returns a function that reads the (pid, seeds)
    records in the order they were written.
    """
    import qtypical.typicality as typicality

    path = tmp_path / "draws.log"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    original = typicality._haar_rows

    def recording(dim, seeds):
        os.write(fd, f"{os.getpid()} {' '.join(map(str, seeds))}\n".encode())
        return original(dim, seeds)

    def records():
        lines = path.read_text().splitlines()
        return [(int(pid), [int(s) for s in seeds.split()])
                for pid, _, seeds in (line.partition(" ") for line in lines)]

    monkeypatch.setattr(typicality, "_haar_rows", recording)
    yield records
    os.close(fd)


def random_density(dim: int, seed: int) -> DensityOperator:
    rng = _generator(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = z @ z.conj().T
    return DensityOperator(m / np.trace(m).real)


def matrix_unit(i: int, j: int, dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def dense_choi_purity(ch) -> float:
    """Choi purity of a dense channel: the Choi matrix where it is small, else the Kraus Gram."""
    if (ch.dim_in * ch.dim_out) ** 2 <= 2**20:
        return ch.choi().purity()
    v = ch.kraus.reshape(ch.n_kraus, -1)
    return float(np.sum(np.abs(v @ v.conj().T) ** 2)) / ch.dim_in**2


def channels_equal(a, b, tol: float = 1e-10) -> bool:
    """Equality of channel action on every matrix unit within tol.

    Kraus families are not unique, so equality is decided on the action. The
    maximal deviation over matrix units equals dim_in times the elementwise
    Choi difference, which avoids the explicit loop over units.
    """
    if a.dim_in != b.dim_in or a.dim_out != b.dim_out:
        return False
    diff = _choi_matrix(a.kraus, a.dim_in)
    diff -= _choi_matrix(b.kraus, b.dim_in)
    return a.dim_in * float(np.max(np.abs(diff))) <= tol
