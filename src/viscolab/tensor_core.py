"""Small dense-matrix algebra shared by every other module.

Matrices are plain numpy arrays of shape (n, n) with n in {1, 2, 3}.  Most
routines broadcast over leading axes, so they operate on whole fields of
matrices at once.
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
