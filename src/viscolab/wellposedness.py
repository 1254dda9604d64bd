"""Coercivity diagnostics for the frozen viscous tangent M = D_Q Z.

Estimates the optimal constant gamma of the Korn-type inequality
``||grad z||^2 <= gamma * int (M grad z) : grad z`` by minimizing the
Rayleigh-type ratio of M over rank-one matrices a (x) b, compares against
the catalogue's closed-form constants, scans the acoustic-tensor spectrum
for the parabolic sector, and samples the inequality directly on periodic
trigonometric fields where the space integrals reduce to exact coefficient
sums.

M is the (n^2, n^2) matrix of `viscous_tangent_field` at one point, acting
on row-major vectorized n x n matrices.
"""

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (DegenerateQ, DomainError, RangeError, SingularMatrix,
                     Unsupported, require_integer)
from .tensor_core import EPS_SINGULAR, frob, sym
# viscous_tangent_q stays bound here: perfbench/tracing.py wraps it by this name
from .constitutive import viscous_tangent_field, viscous_tangent_q  # noqa: F401

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the 3D search: sphere-grid points per coordinate, then golden-section rounds
_SPHERE_RESOLUTION = 360
_REFINE_ROUNDS = 5
# cell gammas within this relative distance of the supremum tie for worst_node
WORST_NODE_RTOL = 1e-9


@dataclass(frozen=True)
class CoercivityConfig:
    """Knobs of the sector scan and the Fourier sampler on a dim x dim
    tangent, and the one owner of their defaults and ranges: RangeError
    names the first knob not an integer, else the first out of range
    (num_directions >= dim + 1).  The rank-one minimum takes no knob."""

    dim: int
    num_directions: int = 360
    num_fields: int = 100
    max_modes: int = 8
    seed: int = 0

    def __post_init__(self):
        for f in fields(self)[1:]:      # the four counts after dim
            require_integer(f.name, getattr(self, f.name))
        if not self.num_directions >= self.dim + 1:
            raise RangeError('num_directions',
                             f"must be at least dim + 1 = {self.dim + 1}")
        for key in ('num_fields', 'max_modes'):
            if not getattr(self, key) >= 1:
                raise RangeError(key, "must be at least 1")
        if not self.seed >= 0:
            raise RangeError('seed', "must be nonnegative")


@dataclass(frozen=True)
class RankOneResult:
    """Outcome of the rank-one Rayleigh minimization."""

    ratio_min: float
    gamma_est: float           # 1/ratio_min, +inf when ratio_min <= 0
    a_star: np.ndarray
    b_star: np.ndarray


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
    """Cell-wise gamma estimates over a field of frozen tangents.

    worst_node is the index of the worst cell (the lowest one within
    WORST_NODE_RTOL of gamma_sup) and nodes_checked the number of cells;
    the names match the byte-stable report.txt keys.
    """

    gamma_sup: float
    gamma_inf: float
    worst_node: int
    nodes_checked: int

    @property
    def passed(self):
        return math.isfinite(self.gamma_sup)


def _tensor4(m):
    """Index form T[i, j, k, l] of a tangent matrix m, rows (i, j), cols (k, l).

    Raises ValueError unless m is a finite (n^2, n^2) matrix with n >= 1.
    """
    m = np.asarray(m, dtype=float)
    n = math.isqrt(m.shape[0]) if m.ndim == 2 else 0
    if n == 0 or m.shape != (n * n, n * n):
        raise ValueError(f"expected an (n^2, n^2) tangent, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries")
    return m.reshape(n, n, n, n)


def _ratios(t4, a, b):
    return np.einsum('zi,zj,zijkl,zk,zl->z', a, b, t4, a, b)


def _gammas(ratio):
    """1/ratio where the ratio is positive, +inf elsewhere."""
    out = np.full(ratio.shape, np.inf)
    pos = ratio > 0.0
    out[pos] = 1.0 / ratio[pos]
    return out


def _sphere_grid(res):
    # midpoint latitudes avoid the polar degeneracy of the chart
    theta = (np.arange(res) + 0.5) * np.pi / res
    phi = np.arange(res) * 2.0 * np.pi / res
    coords = np.stack(np.meshgrid(theta, phi, indexing='ij'),
                      axis=-1).reshape(-1, 2)
    return _unit_from_coords(coords), coords


def _unit_from_coords(c):
    """Unit vectors of the 3D sphere chart at coordinates c of shape (z, 2)."""
    st = np.sin(c[:, 0])
    return np.stack((st * np.cos(c[:, 1]), st * np.sin(c[:, 1]),
                     np.cos(c[:, 0])), axis=1)


def _lowest_eigh(mats):
    """Smallest eigenvalue and its unit eigenvector of each symmetrized matrix."""
    w, v = np.linalg.eigh(sym(mats))
    return w[..., 0], v[..., 0]


# With a = (cos al, sin al), a a^T = (E_0 + cos 2al E_1 + sin 2al E_2) / 2 for
# E = (I, diag(1, -1), [[0, 1], [1, 0]]), so the 2D ratio is [1, u]^T K [1, w]
# with u, w the doubled angles of a and b, and K_pq = 1/4 sum T_ijkl (E_p)_ik
# (E_q)_jl is the product of t4.reshape(z, 16) with _K_MAP.
_E2 = np.array([np.eye(2), np.diag([1.0, -1.0]), [[0.0, 1.0], [1.0, 0.0]]])
# axes (p, i, k, q, j, l) -> (i, j, k, l, p, q); an einsum at import raised
# the peak memory of every process by about 0.2 MB
_K_MAP = 0.25 * np.multiply.outer(_E2, _E2).transpose(
    1, 4, 2, 5, 0, 3).reshape(16, 9)
# w(phi) = (cos phi, sin phi) and w'(phi) times 1 + t^2 for t = tan(phi / 2),
# as ascending coefficients in t
_W = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 0.0]])
_DW = np.array([[0.0, -2.0, 0.0], [1.0, 0.0, -1.0]])
_ONE_T2 = np.array([1.0, 0.0, 1.0])
_SAMPLES = 2.0 * np.pi * np.arange(9) / 9


def _polymul(x, y):
    """Ascending coefficients of the products of polynomials on the last axes."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + y.shape[-1] - 1,))
    for i in range(x.shape[-1]):
        out[..., i:i + y.shape[-1]] += x[..., i:i + 1] * y
    return out


def _exact_2d(t4):
    """Closed-form 2D rank-one minimum of each tangent: ratio, a* and b*.

    With the doubled angle phi of b, the minimum over a is
    h(phi) = K00 + q.w - |r + S w| (q = K[0, 1:], r = K[1:, 0], S = K[1:, 1:]),
    and its critical points solve (q.w')^2 |r + S w|^2 = ((r + S w).S w')^2,
    a trigonometric polynomial P of degree 4.  Each member's frame is turned
    by the psi that puts phi = psi + pi on the largest of P's values at 9
    equispaced angles; then the polynomial in t = tan((phi - psi) / 2) has
    degree exactly 8 (its t^8 coefficient is P(psi + pi)), and the roots of
    all members come from one eigvals on the stack of companion matrices.
    A polynomial that vanishes to rounding (isotropic and zero tangents, on
    which h is constant) gets the roots of t^8.

    The candidates for phi are the real parts of all 8 roots, complex ones
    included; w = -q/|q|, the minimizer when r and S vanish; and 0 and pi,
    where a mirror-symmetric tangent has double roots that eigvals finds
    only to about 1e-8.  Each candidate b gets its exact a, and the pair
    with the smallest Rayleigh value wins, the axes on a tie: h cancels
    its O(|M|) terms, so it cannot rank candidates whose ratios differ by
    less than its rounding, and the Rayleigh value can.
    """
    # einsum, not a BLAS product, so that every member's K is the same in
    # any batch: check_initial_data's gammas equal rank_one_min's
    k = np.einsum('zm,mp->zp', t4.reshape(len(t4), 16), _K_MAP)
    scale = np.max(np.abs(k), axis=1)
    k = k.reshape(-1, 3, 3) / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    q, r, s = k[:, 0, 1:], k[:, 1:, 0], k[:, 1:, 1:]

    w = np.stack((np.cos(_SAMPLES), np.sin(_SAMPLES)), axis=1)
    v = r[:, None] + w @ np.swapaxes(s, 1, 2)
    dw = w @ np.array([[0.0, 1.0], [-1.0, 0.0]])
    p_at = ((dw @ q[..., None])[..., 0] ** 2 * np.sum(v * v, axis=2)
            - np.sum(v * (dw @ np.swapaxes(s, 1, 2)), axis=2) ** 2)
    psi = _SAMPLES[np.argmax(np.abs(p_at), axis=1)] - np.pi
    c, sn = np.cos(psi), np.sin(psi)
    rot = np.stack((np.stack((c, -sn), axis=1), np.stack((sn, c), axis=1)),
                   axis=1)
    q_rot = (q[:, None] @ rot)[:, 0]
    s_rot = s @ rot

    qdw = q_rot @ _DW
    vt = r[..., None] * _ONE_T2 + s_rot @ _W
    g = _polymul(vt, s_rot @ _DW).sum(axis=1)
    poly = (_polymul(_polymul(qdw, qdw), _polymul(vt, vt).sum(axis=1))
            - _polymul(g, g))
    lead = poly[:, -1]
    flat = ~(np.abs(lead) > 1e-8 * np.max(np.abs(poly), axis=1))
    poly = poly / np.where(flat, 1.0, lead)[:, None]
    poly[flat] = 0.0
    companion = np.zeros((len(t4), 8, 8))
    companion[:, np.arange(1, 8), np.arange(7)] = 1.0
    companion[:, :, -1] = -poly[:, :8]
    chi = 2.0 * np.arctan(np.linalg.eigvals(companion).real)
    phi = np.concatenate((np.broadcast_to([0.0, np.pi], (len(t4), 2)),
                          np.arctan2(-q[:, 1], -q[:, 0])[:, None],
                          psi[:, None] + chi), axis=1)
    b = np.stack((np.cos(phi / 2.0), np.sin(phi / 2.0)), axis=-1)
    a = _lowest_eigh(np.einsum('zijkl,zcj,zcl->zcik', t4, b, b))[1]
    ratio = np.einsum('zci,zcj,zijkl,zck,zcl->zc', a, b, t4, a, b)
    best = np.argmin(ratio, axis=1)
    pick = np.arange(len(t4)), best
    return ratio[pick], a[pick], b[pick]


def _rank_one_batch(t4):
    """Rank-one minimization for stacked tangents t4 of shape (z, n, n, n, n).

    Returns the arrays ratio (z,), a* and b* (z, n); ratio is the Rayleigh
    value of the returned pair.  For fixed b the minimum over a is exact (the
    smallest eigenvalue of the b-contracted matrix), so only b is searched.
    In 2D b is exact too (`_exact_2d`, no angular grid).  In 3D each
    member's scan of the _SPHERE_RESOLUTION x _SPHERE_RESOLUTION sphere grid
    runs on its own, which keeps memory at one grid.  The _REFINE_ROUNDS
    golden-section rounds run in lockstep: every member keeps its own
    bracket and evaluates one new point per iteration.  The alternating
    eigen-polish is exact block minimization (with one factor fixed, the
    optimal other factor is the minimal eigenvector of the contracted
    matrix); a member leaves it once its ratio falls by less than 1e-14.
    """
    z, n = t4.shape[0], t4.shape[1]
    if n == 1:
        one = np.ones((z, 1))
        return t4[:, 0, 0, 0, 0], one, one
    if n == 2:
        return _exact_2d(t4)

    def given_b(t, b):
        return _lowest_eigh(np.einsum('zijkl,zj,zl->zik', t, b, b))

    vecs, coords = _sphere_grid(_SPHERE_RESOLUTION)
    x = np.empty((z, coords.shape[1]))
    for i in range(z):
        nb = np.einsum('qj,ijkl,ql->qik', vecs, t4[i], vecs)
        low = np.linalg.eigvalsh(sym(nb))[:, 0]
        x[i] = coords[np.argmin(low)]

    width = np.pi / _SPHERE_RESOLUTION
    for _ in range(_REFINE_ROUNDS):
        for col in range(x.shape[1]):
            def along(s, col=col):
                y = x.copy()
                y[:, col] = s
                return given_b(t4, _unit_from_coords(y))[0]
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

    b = _unit_from_coords(x)
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


def rank_one_min(m):
    """Minimize <M(a x b) : a x b> / (|a|^2 |b|^2) over unit vectors a, b.

    ratio_min is the smallest M-eigenvalue of the tangent (Qi, Dai & Han,
    Front. Math. China 4 (2009) 349-364), the Rayleigh value of the returned
    pair (a_star, b_star).  For fixed b the ratio is a Rayleigh quotient in
    a, so its exact minimum is the smallest eigenvalue of the contracted
    symmetric matrix.  In 1D the ratio is the single entry of M.  In 2D the
    minimum over b is exact too: the roots of one degree-8 polynomial.  In
    3D the search scans a fixed angular grid over b only (360 points per
    sphere coordinate), refines the best cell with 5 rounds of
    coordinate-wise golden-section search, and finishes with the exact
    alternating eigen-polish.  gamma_est = 1/ratio_min when the ratio is
    positive, +inf otherwise.
    """
    ratio, a_star, b_star = _rank_one_batch(_tensor4(m)[None])
    return RankOneResult(float(ratio[0]), float(_gammas(ratio)[0]), a_star[0],
                         b_star[0])


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
    a = sym(q0 @ np.linalg.inv(f0))
    da = float(np.linalg.det(a))
    if abs(da) <= 1e-12:
        raise DegenerateQ(f"|det sym(Q0 F0^-1)| = {abs(da):.3e} <= 1e-12")
    a_inv = np.linalg.inv(a)
    ainv2 = float(frob(a_inv, a_inv))
    power = ainv2 if model.m == 1 else ainv2 ** 2
    return 2.0 * float(frob(f0, f0)) * power


def acoustic_spectrum(m, k):
    """Eigenvalues of the acoustic map a -> M(a x k) k for unit directions k.

    k has shape (..., n); the result has shape (..., n).  Raises ValueError
    when any direction is not a unit vector or m is not a finite (n^2, n^2)
    matrix.
    """
    k = np.asarray(k, dtype=float)
    norms = np.linalg.norm(k, axis=-1)
    bad = np.abs(norms - 1.0) > 1e-12
    if np.any(bad):
        raise ValueError(f"|k| = {norms[bad][0]:.15f} is not 1")
    mk = np.einsum('ijsl,...j,...l->...is', _tensor4(m), k, k)
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
    n = _tensor4(m).shape[0]
    CoercivityConfig(n, num_directions=num_directions)
    dirs = _directions(n, num_directions)
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    eigs = acoustic_spectrum(m, dirs)
    return SpectrumReport(float(np.min(eigs.real)),
                          float(np.max(np.abs(np.angle(eigs)))), len(dirs))


def _half_space_modes(dim, max_modes):
    """Nonzero integer modes |k| <= max_modes, one representative per +-pair."""
    out = []
    for k in itertools.product(range(-max_modes, max_modes + 1), repeat=dim):
        kk = np.array(k, dtype=float)
        if np.dot(kk, kk) == 0 or np.dot(kk, kk) > max_modes ** 2:
            continue
        lead = next(x for x in k if x != 0)
        if lead > 0:
            out.append(kk)
    return out


def fourier_korn_sample(m, num_fields, max_modes, seed):
    """Minimum Rayleigh ratio over random periodic trigonometric fields.

    By orthogonality, the ratio of sum_k a_k cos(2 pi k.x) + b_k sin(2 pi k.x)
    on the unit torus is sum_k <M(a_k x k) : a_k x k> + <M(b_k x k) : b_k x k>
    over sum_k (|a_k|^2 + |b_k|^2) |k|^2, a convex combination of rank-one
    ratios, so the result never falls below ratio_min(M) beyond roundoff.
    """
    t4 = _tensor4(m)
    n = t4.shape[0]
    CoercivityConfig(n, num_fields=num_fields, max_modes=max_modes, seed=seed)
    modes = np.array(_half_space_modes(n, max_modes))
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(num_fields):
        count = int(rng.integers(1, min(4, len(modes)) + 1))
        idx = rng.choice(len(modes), size=count, replace=False)
        cos_coef = rng.standard_normal((count, n))
        sin_coef = rng.standard_normal((count, n))
        # the cos and the sin row of each mode in turn, the mode repeated
        a = np.stack((cos_coef, sin_coef), axis=1).reshape(-1, n)
        k = np.repeat(modes[idx], 2, axis=0)
        num = np.sum(_ratios(np.broadcast_to(t4, (len(a),) + t4.shape), a, k))
        den = np.sum(np.sum(a * a, axis=1) * np.sum(k * k, axis=1))
        worst = min(worst, num / den)
    return float(worst)


def check_initial_data(model, grid_f0, grid_q0):
    """Cell-wise gamma estimates for the frozen tangents of initial data.

    grid_f0, grid_q0: arrays of shape (cells, n, n), the cell gradients of
    the initial deformation and velocity, with det F0 > 0 in every cell.
    The tangents of all cells are built in one call and searched as one
    batch, and each cell's gamma equals that of `rank_one_min` on its
    tangent, so identical cells get identical gammas.
    The report passes when the supremum of the cell gammas is finite.
    worst_node is the lowest cell whose gamma lies within
    WORST_NODE_RTOL of that supremum (relative), so cells that tie to
    rounding, such as mirror images of one another, name the same cell
    whichever of them rounds highest; gamma_sup stays the exact maximum.
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
    try:
        mats = viscous_tangent_field(model, f0, q0)
    except SingularMatrix as exc:
        i = int(np.argmax(dets <= EPS_SINGULAR))
        raise SingularMatrix(f"node {i}: det F0 = {dets[i]:.3e}") from exc
    finite = np.all(np.isfinite(mats), axis=(1, 2))
    if not np.all(finite):
        raise ValueError(f"non-finite tangent at node {int(np.argmin(finite))}")
    n = f0.shape[-1]
    ratio = _rank_one_batch(mats.reshape(-1, n, n, n, n))[0]
    gammas = _gammas(ratio)
    sup = np.max(gammas)
    worst = int(np.argmax(gammas >= sup * (1.0 - WORST_NODE_RTOL)))
    return UniformGammaReport(float(sup), float(np.min(gammas)), worst,
                              int(f0.shape[0]))
