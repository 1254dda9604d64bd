"""Coercivity diagnostics for the frozen viscous tangent M = D_Q Z.

Estimates the optimal constant gamma of the Korn-type inequality
``||grad z||^2 <= gamma * int (M grad z) : grad z`` by minimizing the
Rayleigh-type ratio of M over rank-one matrices a (x) b, compares against
the catalogue's closed-form constants, scans the acoustic-tensor spectrum
for the parabolic sector, and samples the inequality directly on periodic
trigonometric fields where the space integrals reduce to exact coefficient
sums.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQ, DomainError, SingularMatrix, Unsupported
from .tensor_core import EPS_SINGULAR, frob
# viscous_tangent_q stays bound here: perfbench/tracing.py wraps it by this name
from .constitutive import viscous_tangent_field, viscous_tangent_q  # noqa: F401

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RankOneResult:
    """Outcome of the rank-one Rayleigh minimization."""

    ratio_min: float
    gamma_est: float           # 1/ratio_min, +inf when ratio_min <= 0
    a_star: np.ndarray
    b_star: np.ndarray
    samples: int


@dataclass(frozen=True)
class SpectrumReport:
    """Aggregate of acoustic-tensor spectra over scanned unit directions."""

    min_real_part: float
    max_abs_arg: float
    directions_scanned: int

    @property
    def elliptic(self):
        return self.min_real_part > 0.0 and self.max_abs_arg < 0.5 * math.pi


@dataclass(frozen=True)
class UniformGammaReport:
    """Node-wise gamma estimates over a field of frozen tangents."""

    gamma_sup: float
    gamma_inf: float
    worst_node: int
    nodes_checked: int

    @property
    def passed(self):
        return math.isfinite(self.gamma_sup)


def _ratios(t4, a, b):
    return np.einsum('zi,zj,zijkl,zk,zl->z', a, b, t4, a, b)


def _gammas(ratio):
    """1/ratio where the ratio is positive, +inf elsewhere."""
    out = np.full(ratio.shape, np.inf)
    pos = ratio > 0.0
    out[pos] = 1.0 / ratio[pos]
    return out


def _sphere_grid(dim, res):
    if dim == 2:
        ang = np.linspace(0.0, np.pi, res, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1), ang[:, None]
    # midpoint latitudes avoid the polar degeneracy of the chart
    theta = (np.arange(res) + 0.5) * np.pi / res
    phi = np.arange(res) * 2.0 * np.pi / res
    tt, pp = np.meshgrid(theta, phi, indexing='ij')
    vec = np.stack([np.sin(tt) * np.cos(pp),
                    np.sin(tt) * np.sin(pp),
                    np.cos(tt)], axis=-1).reshape(-1, 3)
    coords = np.stack([tt, pp], axis=-1).reshape(-1, 2)
    return vec, coords


def _unit_from_coords(dim, c):
    """Unit vectors of the sphere chart at coordinates c of shape (z, dim - 1)."""
    out = np.empty((len(c), dim))
    if dim == 2:
        out[:, 0], out[:, 1] = np.cos(c[:, 0]), np.sin(c[:, 0])
        return out
    st = np.sin(c[:, 0])
    out[:, 0], out[:, 1] = st * np.cos(c[:, 1]), st * np.sin(c[:, 1])
    out[:, 2] = np.cos(c[:, 0])
    return out


def _lowest_eigh(mats):
    """Smallest eigenvalue and its unit eigenvector of each symmetrized matrix."""
    w, v = np.linalg.eigh(0.5 * (mats + np.swapaxes(mats, -1, -2)))
    return w[:, 0], v[..., 0]


def _rank_one_batch(t4, angular_resolution, refine_iters):
    """Rank-one minimization for stacked tangents t4 of shape (z, n, n, n, n).

    Returns the arrays ratio (z,), a* and b* (z, n).  Each member's grid
    scan runs on its own, which keeps memory at one grid.  The golden-section
    rounds run in lockstep: every member keeps its own bracket and evaluates
    one new point per iteration.  The alternating eigen-polish is exact block
    minimization (with one factor fixed, the optimal other factor is the
    minimal eigenvector of the contracted matrix); a member leaves it once
    its ratio falls by less than 1e-14.
    """
    if angular_resolution < 8:
        raise ValueError("angular_resolution must be at least 8")
    z, n = t4.shape[0], t4.shape[1]
    if n == 1:
        one = np.ones((z, 1))
        return t4[:, 0, 0, 0, 0], one, one

    def given_b(t, b):
        return _lowest_eigh(np.einsum('zijkl,zj,zl->zik', t, b, b))

    vecs, coords = _sphere_grid(n, angular_resolution)
    x = np.empty((z, coords.shape[1]))
    for i in range(z):
        nb = np.einsum('qj,ijkl,ql->qik', vecs, t4[i], vecs)
        low = np.linalg.eigvalsh(0.5 * (nb + np.swapaxes(nb, -1, -2)))[:, 0]
        x[i] = coords[np.argmin(low)]

    width = np.pi / angular_resolution
    for _ in range(refine_iters):
        for col in range(x.shape[1]):
            def along(s, col=col):
                y = x.copy()
                y[:, col] = s
                return given_b(t4, _unit_from_coords(n, y))[0]
            lo, hi = x[:, col] - width, x[:, col] + width
            c = hi - _GOLDEN * (hi - lo)
            d = lo + _GOLDEN * (hi - lo)
            fc, fd = along(c), along(d)
            for _ in range(80):
                left = fc < fd
                lo, hi = np.where(left, lo, c), np.where(left, d, hi)
                p = np.where(left, hi - _GOLDEN * (hi - lo),
                             lo + _GOLDEN * (hi - lo))
                fp = along(p)
                c, d = np.where(left, p, d), np.where(left, c, p)
                fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
            x[:, col] = (lo + hi) / 2.0
        width *= 0.5

    b = _unit_from_coords(n, x)
    a = given_b(t4, b)[1]
    ratio = _ratios(t4, a, b)
    live = np.arange(z)
    for _ in range(60):
        t = t4[live]
        na = given_b(t, b[live])[1]
        nb = _lowest_eigh(np.einsum('zijkl,zi,zk->zjl', t, na, na))[1]
        a[live], b[live] = na, nb
        new_ratio = _ratios(t, na, nb)
        falling = ratio[live] - new_ratio >= 1e-14
        ratio[live] = new_ratio
        live = live[falling]
        if live.size == 0:
            break
    return ratio, a, b


def rank_one_min(m, angular_resolution=360, refine_iters=5):
    """Minimize <M(a x b) : a x b> / (|a|^2 |b|^2) over unit vectors a, b.

    For fixed b the ratio is a Rayleigh quotient in a, so its exact minimum
    is the smallest eigenvalue of the contracted symmetric matrix.  The
    search therefore scans an exhaustive angular grid over b only
    (angular_resolution points per sphere coordinate), refines the best cell
    with coordinate-wise golden-section rounds, and finishes with the exact
    alternating eigen-polish.  gamma_est = 1/ratio_min when the ratio is
    positive, +inf otherwise.  In 1D the ratio is the single entry of M.
    """
    ratio, a_star, b_star = _rank_one_batch(m.as_tensor4()[None],
                                            angular_resolution, refine_iters)
    return RankOneResult(float(ratio[0]), float(_gammas(ratio)[0]),
                         a_star[0], b_star[0], angular_resolution ** (m.dim - 1))


def closed_form_gamma(model, f0, q0):
    """Catalogue coercivity constant for the tangent at (F0, Q0).

    z0doubleprime: |F0^-T|^2
    z0prime:       |F0|^2 / det F0
    zm, m = 0:     |F0|^2 / 2            (recorded literally; the rank-one
                   estimate is larger and the discrepancy is flagged by the
                   reporting layer rather than silently corrected)
    zm, m = 1:     2 |F0|^2 |sym(Q0 F0^-1)^-1|^2, needs det sym(Q0 F0^-1) != 0
    zm, m = 2:     2 |F0|^2 |sym(Q0 F0^-1)^-1|^4, same hypothesis
    """
    f0 = np.asarray(f0, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    d = float(np.linalg.det(f0))
    if d <= 0.0:
        raise DomainError(f"det F0 = {d:.3e} <= 0")
    if model.kind == 'z0doubleprime':
        g = np.linalg.inv(f0)
        return float(frob(g, g))
    if model.kind == 'z0prime':
        return float(frob(f0, f0)) / d
    if model.m == 0:
        return 0.5 * float(frob(f0, f0))
    if model.m > 2:
        raise Unsupported(f"no catalogued constant for m = {model.m}")
    a = 0.5 * (q0 @ np.linalg.inv(f0) + np.linalg.inv(f0).T @ q0.T)
    da = float(np.linalg.det(a))
    if abs(da) <= 1e-12:
        raise DegenerateQ(f"|det sym(Q0 F0^-1)| = {abs(da):.3e} <= 1e-12")
    ainv2 = float(frob(np.linalg.inv(a), np.linalg.inv(a)))
    power = ainv2 if model.m == 1 else ainv2 ** 2
    return 2.0 * float(frob(f0, f0)) * power


def acoustic_spectrum(m, k):
    """Eigenvalues of the acoustic map a -> M(a x k) k for unit directions k.

    k has shape (..., n); the result has shape (..., n).  Raises ValueError
    when any direction is not a unit vector.
    """
    k = np.asarray(k, dtype=float)
    norms = np.linalg.norm(k, axis=-1)
    bad = np.abs(norms - 1.0) > 1e-12
    if np.any(bad):
        raise ValueError(f"|k| = {norms[bad][0]:.15f} is not 1")
    mk = np.einsum('ijsl,...j,...l->...is', m.as_tensor4(), k, k)
    return np.linalg.eigvals(mk)


def _directions(dim, num):
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = np.arange(num) * 2.0 * np.pi / num
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # Fibonacci sphere
    i = np.arange(num) + 0.5
    z = 1.0 - 2.0 * i / num
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * np.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def sector_scan(m, num_directions):
    """Scan acoustic spectra over quasi-uniform unit directions.

    Aggregates the smallest real part and the largest |arg| over all
    eigenvalues; the scan is elliptic when the spectrum stays strictly in
    the open right half plane away from the imaginary axis.
    """
    if num_directions < m.dim + 1:
        raise ValueError(f"need at least {m.dim + 1} directions")
    dirs = _directions(m.dim, num_directions)
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    eigs = acoustic_spectrum(m, dirs)
    return SpectrumReport(float(np.min(eigs.real)),
                          float(np.max(np.abs(np.angle(eigs)))), len(dirs))


def _half_space_modes(dim, max_modes):
    """Nonzero integer modes |k| <= max_modes, one representative per +-pair."""
    rng = range(-max_modes, max_modes + 1)
    out = []
    if dim == 1:
        out = [np.array([k], dtype=float) for k in range(1, max_modes + 1)]
        return out
    if dim == 2:
        grid = [(i, j) for i in rng for j in rng]
    else:
        grid = [(i, j, l) for i in rng for j in rng for l in rng]
    for k in grid:
        kk = np.array(k, dtype=float)
        if np.dot(kk, kk) == 0 or np.dot(kk, kk) > max_modes ** 2:
            continue
        lead = next(x for x in k if x != 0)
        if lead > 0:
            out.append(kk)
    return out


def _field_ratio(t4, modes, cos_coef, sin_coef):
    """Exact Rayleigh ratio of a real trigonometric field on the unit torus.

    The field is sum_k cos_coef[k] cos(2 pi k.x) + sin_coef[k] sin(2 pi k.x);
    orthogonality turns both integrals into sums over the coefficient set.
    """
    num = 0.0
    den = 0.0
    for kk, c, s in zip(modes, cos_coef, sin_coef):
        for a in (c, s):
            num += np.einsum('i,j,ijkl,k,l->', a, kk, t4, a, kk)
            den += np.dot(a, a) * np.dot(kk, kk)
    return num / den


def fourier_korn_sample(m, num_fields, max_modes, seed):
    """Minimum Rayleigh ratio over random periodic trigonometric fields.

    Every field ratio is a convex combination of rank-one ratios, so the
    result can never fall below ratio_min(M) beyond roundoff.
    """
    if num_fields < 1 or max_modes < 1:
        raise ValueError("num_fields and max_modes must be at least 1")
    t4 = m.as_tensor4()
    n = m.dim
    modes = _half_space_modes(n, max_modes)
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(num_fields):
        count = int(rng.integers(1, min(4, len(modes)) + 1))
        idx = rng.choice(len(modes), size=count, replace=False)
        sel = [modes[i] for i in idx]
        cos_coef = rng.standard_normal((count, n))
        sin_coef = rng.standard_normal((count, n))
        worst = min(worst, _field_ratio(t4, sel, cos_coef, sin_coef))
    return float(worst)


def check_initial_data(model, grid_f0, grid_q0, resolution=180, refine_iters=5):
    """Node-wise gamma estimates for the frozen tangents of initial data.

    grid_f0, grid_q0: arrays of shape (nodes, n, n) with det F0 > 0 at every
    node.  Repeated (F0, Q0) pairs are computed once; the distinct tangents
    are built in one call and searched as one batch, and each node's gamma
    equals that of `rank_one_min` on its tangent.  The report passes when
    the supremum of the node gammas is finite.
    """
    f0 = np.asarray(grid_f0, dtype=float)
    q0 = np.asarray(grid_q0, dtype=float)
    if f0.ndim != 3 or f0.shape != q0.shape:
        raise ValueError("expected matching (nodes, n, n) fields")
    if f0.shape[0] == 0:
        raise ValueError("empty field")
    dets = np.linalg.det(f0)
    bad = np.nonzero(dets <= 0.0)[0]
    if bad.size:
        raise DomainError(f"det F0 = {dets[bad[0]]:.3e} <= 0 at node {int(bad[0])}")
    first, inverse = {}, np.empty(f0.shape[0], dtype=int)
    for i in range(f0.shape[0]):
        inverse[i] = first.setdefault((f0[i].tobytes(), q0[i].tobytes()), i)
    nodes = np.unique(inverse)
    try:
        mats = viscous_tangent_field(model, f0[nodes], q0[nodes])
    except SingularMatrix as exc:
        i = int(np.argmax(dets <= EPS_SINGULAR))
        raise SingularMatrix(f"node {i}: det F0 = {dets[i]:.3e}") from exc
    finite = np.all(np.isfinite(mats), axis=(1, 2))
    if not np.all(finite):
        raise ValueError(f"non-finite tangent at node {nodes[np.argmin(finite)]}")
    n = f0.shape[-1]
    ratio = _rank_one_batch(mats.reshape(-1, n, n, n, n), resolution,
                            refine_iters)[0]
    gammas = np.empty(f0.shape[0])
    gammas[nodes] = _gammas(ratio)
    gammas = gammas[inverse]
    worst = int(np.argmax(gammas))
    return UniformGammaReport(float(np.max(gammas)), float(np.min(gammas)),
                              worst, int(f0.shape[0]))
