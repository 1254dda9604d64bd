"""Small dense-matrix algebra shared by every other module.

Matrices are plain numpy arrays of shape (n, n) with n in {1, 2, 3}.  Most
routines broadcast over leading axes, so they operate on whole fields of
matrices at once.

The private kernels `_det`, `_inv`, `_polar_rotation` and
`_singular_values` are closed forms for n = 1 and 2, elementwise over the
field, where a batched LAPACK call on 2x2 stacks costs about 100 times the
arithmetic; for n = 3 each delegates to np.linalg unchanged.  In 1D the
inverse, singular value and rotation equal np.linalg's bit for bit, and
the determinant is the entry itself, which np.linalg.det (through
exp(log|det|)) misses by an ulp or two for some entries.  Unlike LAPACK, the 2D
products overflow for entries beyond about 1e154.
"""

import numpy as np

# determinants at or below this magnitude count as singular
EPS_SINGULAR = 1e-14


def sym(a):
    """Symmetric part (a + a^T)/2; batched over leading axes."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def skew(a):
    """Skew part (a - a^T)/2; batched over leading axes."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a - np.swapaxes(a, -1, -2))


def frob(a, b):
    """Frobenius inner product tr(a^T b); batched over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"dimension mismatch: {a.shape[-2:]} vs {b.shape[-2:]}")
    return np.einsum('...ij,...ij->...', a, b)


def _det(a):
    """Determinant of (..., n, n) matrices: a in 1D, a00 a11 - a01 a10 in 2D."""
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, 0].copy()
    if n == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return np.linalg.det(a)


def _inv(a, d):
    """Inverse of (..., n, n) matrices from their determinant d = _det(a):
    1/a in 1D, the adjugate over d in 2D (C-contiguous, as np.linalg.inv
    returns it)."""
    n = a.shape[-1]
    if n == 1:
        return 1.0 / a
    if n == 2:
        g = np.empty(a.shape)
        np.divide(a[..., 1, 1], d, out=g[..., 0, 0])
        np.divide(-a[..., 0, 1], d, out=g[..., 0, 1])
        np.divide(-a[..., 1, 0], d, out=g[..., 1, 0])
        np.divide(a[..., 0, 0], d, out=g[..., 1, 1])
        return g
    return np.linalg.inv(a)


def _polar_rotation(f):
    """Rotation R of the polar decomposition F = R U, for det F > 0.

    In 2D R = [[c, -s], [s, c]] with (c, s) = (f00 + f11, f10 - f01)/p and
    p = hypot(f00 + f11, f10 - f01): the normalized conformal part of F
    (Higham 1986).  In 1D R = 1; in 3D R = U V^T from the SVD F = U S V^T.
    """
    n = f.shape[-1]
    if n == 1:
        return np.ones_like(f)
    if n == 2:
        c = f[..., 0, 0] + f[..., 1, 1]
        s = f[..., 1, 0] - f[..., 0, 1]
        p = np.hypot(c, s)
        r = np.empty_like(f)
        np.divide(c, p, out=r[..., 0, 0])
        np.divide(s, p, out=r[..., 1, 0])
        np.negative(r[..., 1, 0], out=r[..., 0, 1])
        r[..., 1, 1] = r[..., 0, 0]
        return r
    u, _, vt = np.linalg.svd(f)
    return u @ vt


def _singular_values(f):
    """Singular values of (..., n, n) matrices as (..., n), largest first.

    In 2D s = (p + q)/2 and |p - q|/2, with p = hypot(f00 + f11, f10 - f01)
    and q = hypot(f00 - f11, f01 + f10); in 1D |a|.
    """
    n = f.shape[-1]
    if n == 1:
        return np.abs(f[..., 0])
    if n == 2:
        p = np.hypot(f[..., 0, 0] + f[..., 1, 1], f[..., 1, 0] - f[..., 0, 1])
        q = np.hypot(f[..., 0, 0] - f[..., 1, 1], f[..., 0, 1] + f[..., 1, 0])
        s = np.empty(f.shape[:-1])
        np.multiply(p + q, 0.5, out=s[..., 0])
        np.multiply(np.abs(p - q), 0.5, out=s[..., 1])
        return s
    return np.linalg.svd(f, compute_uv=False)


def rotation_sample(dim, rng, count=None):
    """Draw rotations from SO(dim) by exponentiating random skew matrices.

    The rotation angle is uniform in [0, pi]; in 3D the axis is uniform on
    the sphere.  Pass count=None for a single (dim, dim) matrix, otherwise
    the result has shape (count, dim, dim).
    """
    single = count is None
    n = 1 if single else count
    if dim == 1:
        out = np.ones((n, 1, 1))
    elif dim == 2:
        theta = rng.uniform(0.0, np.pi, n)
        c, s = np.cos(theta), np.sin(theta)
        out = np.empty((n, 2, 2))
        out[:, 0, 0] = c
        out[:, 0, 1] = -s
        out[:, 1, 0] = s
        out[:, 1, 1] = c
    elif dim == 3:
        axis = rng.standard_normal((n, 3))
        norms = np.linalg.norm(axis, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0  # degenerate draw: fall back to e1-ish axis
        axis = axis / norms
        theta = rng.uniform(0.0, np.pi, n)
        k = np.zeros((n, 3, 3))
        k[:, 0, 1] = -axis[:, 2]
        k[:, 0, 2] = axis[:, 1]
        k[:, 1, 0] = axis[:, 2]
        k[:, 1, 2] = -axis[:, 0]
        k[:, 2, 0] = -axis[:, 1]
        k[:, 2, 1] = axis[:, 0]
        eye = np.broadcast_to(np.eye(3), (n, 3, 3))
        out = eye + np.sin(theta)[:, None, None] * k \
            + (1.0 - np.cos(theta))[:, None, None] * (k @ k)
    else:
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    return out[0] if single else out


def random_rotation(dim, seed):
    """Deterministic random rotation in SO(dim) for a given seed."""
    return rotation_sample(dim, np.random.default_rng(seed))
