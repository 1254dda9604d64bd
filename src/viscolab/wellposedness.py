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
from .tensor_core import frob
from .constitutive import viscous_tangent_q

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


def _ratio_single(t4, a, b):
    return float(np.einsum('i,j,ijkl,k,l->', a, b, t4, a, b))


def _sphere_grid(dim, res):
    if dim == 1:
        return np.ones((1, 1)), np.zeros((1, 1))
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
    if dim == 1:
        return np.array([1.0])
    if dim == 2:
        return np.array([math.cos(c[0]), math.sin(c[0])])
    st = math.sin(c[0])
    return np.array([st * math.cos(c[1]), st * math.sin(c[1]), math.cos(c[0])])


def _golden_min(f, lo, hi, iters=80):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _alternating_polish(t4, a, b, iters=60):
    """Exact block minimization: with one factor fixed, the optimal other
    factor is the minimal eigenvector of the contracted symmetric matrix."""
    ratio = _ratio_single(t4, a, b)
    for _ in range(iters):
        nb = np.einsum('ijkl,j,l->ik', t4, b, b)
        a = np.linalg.eigh(0.5 * (nb + nb.T))[1][:, 0]
        pa = np.einsum('ijkl,i,k->jl', t4, a, a)
        b = np.linalg.eigh(0.5 * (pa + pa.T))[1][:, 0]
        new_ratio = _ratio_single(t4, a, b)
        if ratio - new_ratio < 1e-14:
            ratio = min(ratio, new_ratio)
            break
        ratio = new_ratio
    return a, b


def _best_a_for(t4, b):
    """Exact minimizer over unit a of the ratio at fixed b, with its value."""
    nb = np.einsum('ijkl,j,l->ik', t4, b, b)
    w, v = np.linalg.eigh(0.5 * (nb + nb.T))
    return v[:, 0], float(w[0])


def rank_one_min(m, angular_resolution=360, refine_iters=5):
    """Minimize <M(a x b) : a x b> / (|a|^2 |b|^2) over unit vectors a, b.

    For fixed b the ratio is a Rayleigh quotient in a, so its exact minimum
    is the smallest eigenvalue of the contracted symmetric matrix.  The
    search therefore scans an exhaustive angular grid over b only
    (angular_resolution points per sphere coordinate), refines the best cell
    with coordinate-wise golden-section rounds, and finishes with the exact
    alternating eigen-polish.  gamma_est = 1/ratio_min when the ratio is
    positive, +inf otherwise.
    """
    if angular_resolution < 8:
        raise ValueError("angular_resolution must be at least 8")
    t4 = m.as_tensor4()
    n = m.dim
    if n == 1:
        ratio = float(m.mat[0, 0])
        gamma = 1.0 / ratio if ratio > 0.0 else np.inf
        one = np.array([1.0])
        return RankOneResult(ratio, gamma, one, one, 1)

    vecs, coords = _sphere_grid(n, angular_resolution)
    nb = np.einsum('qj,ijkl,ql->qik', vecs, t4, vecs)
    low = np.linalg.eigvalsh(0.5 * (nb + np.swapaxes(nb, -1, -2)))[:, 0]
    ib = int(np.argmin(low))
    x = coords[ib].copy()
    width = np.pi / angular_resolution

    def val(y):
        return _best_a_for(t4, _unit_from_coords(n, y))[1]

    w = width
    for _ in range(refine_iters):
        for c in range(x.size):
            def along(s, c=c):
                y = x.copy()
                y[c] = s
                return val(y)
            x[c] = _golden_min(along, x[c] - w, x[c] + w)
        w *= 0.5

    b_star = _unit_from_coords(n, x)
    a_star = _best_a_for(t4, b_star)[0]
    a_star, b_star = _alternating_polish(t4, a_star, b_star)
    ratio = _ratio_single(t4, a_star, b_star)
    gamma = 1.0 / ratio if ratio > 0.0 else np.inf
    return RankOneResult(ratio, gamma, a_star, b_star, int(len(vecs)))


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
    """Eigenvalues of the acoustic map a -> M(a x k) k for a unit direction k."""
    k = np.asarray(k, dtype=float)
    if abs(np.linalg.norm(k) - 1.0) > 1e-12:
        raise ValueError(f"|k| = {np.linalg.norm(k):.15f} is not 1")
    t4 = m.as_tensor4()
    mk = np.einsum('ijsl,j,l->is', t4, k, k)
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
    min_re = np.inf
    max_arg = 0.0
    for k in dirs:
        eigs = acoustic_spectrum(m, k)
        min_re = min(min_re, float(np.min(eigs.real)))
        max_arg = max(max_arg, float(np.max(np.abs(np.angle(eigs)))))
    return SpectrumReport(min_re, max_arg, len(dirs))


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
    node.  Repeated (F0, Q0) pairs are computed once.  The report passes
    when the supremum of the node gammas is finite.
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
    gammas = np.empty(f0.shape[0])
    cache = {}
    for i in range(f0.shape[0]):
        key = (f0[i].tobytes(), q0[i].tobytes())
        if key not in cache:
            try:
                tangent = viscous_tangent_q(model, f0[i], q0[i])
            except SingularMatrix as exc:
                raise SingularMatrix(f"node {i}: {exc}") from exc
            cache[key] = rank_one_min(tangent, resolution, refine_iters).gamma_est
        gammas[i] = cache[key]
    worst = int(np.argmax(gammas))
    return UniformGammaReport(float(np.max(gammas)), float(np.min(gammas)),
                              worst, int(f0.shape[0]))
