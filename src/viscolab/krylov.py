"""Conjugate gradients, the package's one Krylov loop.

The clamped solver's shifted operators alpha I + L are symmetric positive
definite, so plain conjugate gradients (Hestenes & Stiefel, 1952) solves
them.  cg takes scipy.sparse.linalg.cg's arguments (less atol, which the
solver never sets), follows its algorithm step for step without a
preconditioner, and returns the same (x, info), so its iterates match
scipy's bit for bit; the matrix product is the matrix's own a @ p.
Importing this module does not import scipy.sparse.linalg.  The one other
name, bicgstab, is a compatibility shim for the perfbench tracer, which
wraps it: it resolves to scipy.sparse.linalg.bicgstab, imported on that
first lookup.
"""

import math

import numpy as np


def cg(a, b, x0=None, *, rtol, maxiter, callback=None):
    """Solve a x = b for symmetric positive definite a; returns (x, info).

    b is a 1-D float array and x0 (zero if None) the starting guess, which
    is copied, never modified.  The loop stops when the recurrence residual
    r satisfies |r| < rtol |b|, with info 0, or after maxiter iterations,
    with info = maxiter.  callback(x) runs after every iteration.  One dot
    product r.r per iteration serves as both the stopping test and the step
    ratio beta.
    """
    bnorm = math.sqrt(np.dot(b, b))
    if bnorm == 0.0:
        return b.copy(), 0
    tol = float(rtol) * bnorm
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - a @ x if x.any() else b.copy()
    p = rho_prev = None
    for _ in range(maxiter):
        rho = np.dot(r, r)
        if math.sqrt(rho) < tol:
            return x, 0
        if p is None:
            p = r.copy()
        else:
            p *= rho / rho_prev
            p += r
        q = a @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def __getattr__(name):
    # PEP 562: only names this module lacks get here
    if name != 'bicgstab':
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.sparse.linalg import bicgstab
    return bicgstab
