"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of the same work drifts by up to 2x over
seconds to minutes, so the median wall time of a run depends more on when
it ran than on the program.  Each measured process therefore runs this
kernel just before and just after its CLI call, and the benchmark reports
the process's times scaled by
``REF_SECONDS / mean(kernel time before, kernel time after)``: seconds on a
host where the kernel takes ``REF_SECONDS``.  The kernel does
the kinds of work viscolab does (interpreted Python, many calls into numpy
and scipy on tiny inputs, batched numpy operations, sparse assembly with a
Krylov solve) on fixed inputs and never calls viscolab, so no change to the
program can change it.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REF_SECONDS = 0.18      # the kernel's time in the quiet spells of a shared 2-CPU host


def _python_part():
    acc = {}
    for i in range(150_000):
        key = i % 97
        acc[key] = acc.get(key, 0.0) + 0.5 * i
    return acc


def _small_calls_part():
    n = 32
    rows = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1)])
    data = np.concatenate([np.full(n, 2.0), np.full(2 * (n - 1), -1.0)])
    rhs = np.sin(np.linspace(0.0, np.pi, n))
    for _ in range(150):
        a = sp.csr_matrix((data, (rows, cols)), shape=(n, n)) \
            + 50.0 * sp.identity(n, format='csr')
        x, _ = spla.cg(a, rhs, rtol=1e-10, atol=0.0)
        np.linalg.det(np.outer(x[:2], x[:2]) + np.eye(2))


def _numpy_part():
    x = np.linspace(0.5, 1.5, 4096).reshape(1024, 2, 2)
    for _ in range(200):
        y = np.einsum('nij,njk->nik', x, x)
        x = 0.5 * (x + 1e-3 * y)
    return x


def _sparse_part():
    n = 48
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    for _ in range(10):
        a = (sp.kron(lap, eye) + sp.kron(eye, lap)
             + 0.1 * sp.identity(n * n)).tocsr()
        spla.cg(a, np.ones(n * n), rtol=1e-10, atol=0.0)


def reference_seconds():
    """Wall seconds the kernel takes now."""
    start = time.perf_counter()
    _python_part()
    _small_calls_part()
    _numpy_part()
    _sparse_part()
    return time.perf_counter() - start
