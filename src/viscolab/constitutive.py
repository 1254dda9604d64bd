"""Constitutive catalogue: stored elastic energies, viscous stress tensors,
their velocity-gradient tangents, and randomized validators for the
frame-invariance, angular-momentum and dissipation axioms.

All evaluation routines broadcast over leading axes, so a whole field of
deformation gradients can be processed in one call.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, SingularMatrix, require_integer
from .tensor_core import (EPS_SINGULAR, _det, _inv, _polar_rotation,
                          _singular_values, frob, rotation_sample, skew, sym)

ENERGY_KINDS = ('w0', 'w1', 'w2')
VISCOSITY_KINDS = ('zm', 'z0prime', 'z0doubleprime')

@dataclass(frozen=True)
class EnergyModel:
    """Choice of stored elastic energy density.

    kind 'w0': |F^T F - Id|^2 (smooth everywhere, no determinant blow-up).
    kind 'w1': |(F^T F)^1/2 - Id|^2 + |log det F|^q, infinite for det F <= 0.
    kind 'w2': |(F^T F)^1/2 - Id|^2 + |1/det F - 1|^q, infinite for det F <= 0.

    The one owner of the defaults and ranges of the config keys energy and
    energy_q: RangeError names the first one out of range.  q > 1 is asked
    of every kind, w0 too, although only w1 and w2 read it.
    """

    kind: str = 'w0'
    q: float = 2.0

    def __post_init__(self):
        if self.kind not in ENERGY_KINDS:
            raise RangeError('energy', f"must be one of {ENERGY_KINDS}")
        if not self.q > 1.0:
            raise RangeError('energy_q', "must exceed 1")

    @classmethod
    def w0(cls):
        return cls('w0')

    @classmethod
    def w1(cls, q=2.0):
        return cls('w1', q)

    @classmethod
    def w2(cls, q=2.0):
        return cls('w2', q)


@dataclass(frozen=True)
class ViscosityModel:
    """Choice of viscous stress tensor.

    kind 'zm':             [sym(Q F^-1)]^(2m+1) F^-T
    kind 'z0prime':        2 (det F) sym(Q F^-1) F^-T
    kind 'z0doubleprime':  2 F sym(F^T Q)

    Every kind is homogeneous in Q of degree p (2m + 1 for zm, else 1), so
    by Euler's theorem its tangent satisfies D_Q Z(F, Q)[Q] = p Z(F, Q).

    The one owner of the defaults and ranges of the config keys viscosity
    and viscosity_m: RangeError names the first one out of range.  A
    nonnegative integer m is asked of every kind, although only zm reads it.
    """

    kind: str = 'z0doubleprime'
    m: int = 0

    def __post_init__(self):
        if self.kind not in VISCOSITY_KINDS:
            raise RangeError('viscosity', f"must be one of {VISCOSITY_KINDS}")
        require_integer('viscosity_m', self.m)
        if not self.m >= 0:
            raise RangeError('viscosity_m', "must be nonnegative")

    @classmethod
    def zm(cls, m):
        return cls('zm', m)

    @classmethod
    def z0prime(cls):
        return cls('z0prime')

    @classmethod
    def z0doubleprime(cls):
        return cls('z0doubleprime')

    @property
    def degree(self):
        """The degree p of homogeneity of Z(F, Q) in Q."""
        return 2 * self.m + 1 if self.kind == 'zm' else 1


@dataclass(frozen=True)
class ConstitutiveModel:
    """Pairing of one elastic energy with one viscous stress tensor."""

    energy: EnergyModel
    viscosity: ViscosityModel


@dataclass(frozen=True)
class AxiomReport:
    """Worst-case residuals over a randomized axiom sweep."""

    samples_tested: int
    max_frame_invariance_residual_w: float
    max_frame_invariance_residual_z: float
    max_angular_momentum_residual: float
    min_dissipation: float
    tolerance: float

    @property
    def passed(self):
        return (self.samples_tested >= 1
                and self.max_frame_invariance_residual_w <= self.tolerance
                and self.max_frame_invariance_residual_z <= self.tolerance
                and self.max_angular_momentum_residual <= self.tolerance
                and self.min_dissipation >= -self.tolerance)


def _penalty(model, d):
    """Determinant penalty g(J) of w1/w2 at J = d > 0, and the factor c(J)
    of its stress D_F g(det F) = g'(J) J F^-T = c(J) F^-T.

    w1: |log J|^q, c = q |log J|^(q-1) sgn(log J);
    w2: |1/J - 1|^q, c = -q |1/J - 1|^(q-1) sgn(1/J - 1) / J.
    """
    t = np.log(d) if model.kind == 'w1' else 1.0 / d - 1.0
    pen = np.abs(t) ** model.q
    c = model.q * np.abs(t) ** (model.q - 1.0) * np.sign(t)
    return pen, (c if model.kind == 'w1' else -c / d)


def _w0_strain(f):
    """E = F^T F - Id.  In 1D and 2D entry by entry, where a batched 2x2
    matmul costs several times the arithmetic; by matmul otherwise."""
    n = f.shape[-1]
    if n == 1:
        return f * f - 1.0
    if n != 2:
        return np.swapaxes(f, -1, -2) @ f - np.eye(n)
    a, b, c, d = f[..., 0, 0], f[..., 0, 1], f[..., 1, 0], f[..., 1, 1]
    e = np.empty(f.shape)
    e[..., 0, 0] = a * a + c * c - 1.0
    e[..., 0, 1] = a * b + c * d
    e[..., 1, 0] = e[..., 0, 1]
    e[..., 1, 1] = b * b + d * d - 1.0
    return e


def energy(model, f):
    """Stored energy density W(F); +inf where det F <= 0 for w1/w2.

    For w0, |E|^2 with E = F^T F - Id (`_w0_strain`), summed entry by
    entry in 2D.  For w1/w2, |(F^T F)^1/2 - Id|^2 = sum_i (s_i - 1)^2
    over the singular values s_i of F, closed-form in 1D and 2D
    (`tensor_core`).  The sum of squares keeps its relative accuracy near
    rest, where the equivalent |F|^2 - 2 sqrt(|F|^2 + 2 |det F|) + 2
    cancels to rounding noise and can go negative.  Returns a scalar for a
    single matrix, an array for a batch.
    """
    f = np.asarray(f, dtype=float)
    if model.kind == 'w0':
        e = _w0_strain(f)
        if f.shape[-1] == 2:
            e00, e01, e11 = e[..., 0, 0], e[..., 0, 1], e[..., 1, 1]
            out = e00 * e00 + 2.0 * (e01 * e01) + e11 * e11
        else:
            out = frob(e, e)
        return float(out) if out.ndim == 0 else out
    d = _det(f)
    s = _singular_values(f)
    base = np.sum((s - 1.0) ** 2, axis=-1)
    pen, _ = _penalty(model, np.where(d > 0.0, d, 1.0))
    out = np.where(d > 0.0, base + pen, np.inf)
    return float(out) if out.ndim == 0 else out


def piola_stress(model, f):
    """Stress DW(F) in closed form; batched over leading axes.

    w0: 4 F E with E = F^T F - Id (`_w0_strain`), entry by entry in 1D and
    2D.  w1/w2: 2 (F - R) + c(det F) F^-T, where R is the polar rotation of
    F and c is the factor of `_penalty`; R, det F and F^-1 are closed forms
    in 1D and 2D (`tensor_core`).  Raises DomainError where det F <= 0.
    """
    f = np.asarray(f, dtype=float)
    if model.kind == 'w0':
        e = _w0_strain(f)
        if f.shape[-1] == 1:
            return 4.0 * (f * e)
        if f.shape[-1] != 2:
            return 4.0 * (f @ e)
        # F E one column at a time, from the columns of F: E is symmetric
        e00, e01, e11 = e[..., 0, 0, None], e[..., 0, 1, None], e[..., 1, 1, None]
        fe = np.empty(f.shape)
        fe[..., 0] = f[..., 0] * e00 + f[..., 1] * e01
        fe[..., 1] = f[..., 0] * e01 + f[..., 1] * e11
        return 4.0 * fe
    d = _det(f)
    if np.any(d <= 0.0):
        raise DomainError("det F <= 0 outside the energy's smooth domain")
    _, c = _penalty(model, d)
    gt = np.swapaxes(_inv(f, d), -1, -2)
    return 2.0 * (f - _polar_rotation(f)) + c[..., None, None] * gt


def _inv_transpose(f):
    """(det F, F^-1, F^-T) by the closed forms of `tensor_core` in 1D and
    2D; raises SingularMatrix where |det F| <= EPS_SINGULAR."""
    d = _det(f)
    if np.any(np.abs(d) <= EPS_SINGULAR):
        raise SingularMatrix(f"minimum |det F| = {np.min(np.abs(d)):.3e}")
    g = _inv(f, d)
    return d, g, np.swapaxes(g, -1, -2)


def viscous_stress(model, f, q):
    """Viscous stress Z(F, Q); batched over leading axes."""
    f = np.asarray(f, dtype=float)
    q = np.asarray(q, dtype=float)
    if model.kind == 'z0doubleprime':
        return 2.0 * (f @ sym(np.swapaxes(f, -1, -2) @ q))
    d, g, gt = _inv_transpose(f)
    if model.kind == 'z0prime':
        return 2.0 * d[..., None, None] * (sym(q @ g) @ gt)
    return _zm_stress(model.m, g, gt, q)


def _zm_stress(m, g, gt, q):
    """zm's Z = [sym(Q G)]^(2m+1) G^T from G = F^-1 and its transpose."""
    b = sym(q @ g)
    power = b
    for _ in range(2 * m):
        power = power @ b
    return power @ gt


def dissipation_density(model, f, q):
    """Pointwise dissipation Z(F, Q):Q; nonnegative for the whole catalogue."""
    out = frob(viscous_stress(model, f, q), q)
    return float(out) if np.ndim(out) == 0 else out


def viscous_response(model, f):
    """Z and its tangent D_Q Z together, at a deformation F frozen across calls.

    For zm with m >= 1 (degree > 1).  F^-1 is taken once, here; the returned
    respond(q) gives (Z(F, Q), M) with M the (..., n^2, n^2) tangent in the
    row-major vectorization of `viscous_tangent_field`, C-contiguous.
    respond.split(q) gives (Z(F, Q), tangent) instead, where tangent() gives
    M, so a caller that needs Z first pays for M only when it asks.  With
    G = F^-1, A = sym(Q G) and P_j = A^j, both come from one list of powers:
    Z = P_2m A G^T, multiplied in the order `viscous_stress` uses, so Z is
    bit-identical to it, and

        M[(a,b),(k,l)] = 1/2 sum_j P_j[a,k] (G P_(2m-j) G^T)[l,b]
                                 + (P_j G^T)[a,l] (P_(2m-j) G^T)[k,b],

    which is sum_j P_j sym(E_kl G) P_(2m-j) G^T written out.  Both sums run
    as one batched matrix product over j.  respond.dissipation(q) gives
    Z(F, Q):Q alone, as dissipation_density computes it, from the same F^-1.
    """
    if model.degree == 1:
        raise ValueError("viscous_response needs a viscosity of degree > 1")
    f = np.asarray(f, dtype=float)
    _, g, gt = _inv_transpose(f)
    n = f.shape[-1]
    top = 2 * model.m
    # Z multiplies by the view gt, as viscous_stress does; the stacks below
    # take a contiguous copy, which matmul broadcasts over j twice as fast
    half_g = 0.5 * g[..., None, :, :]
    gt_c = np.ascontiguousarray(gt)[..., None, :, :]

    def split(q):
        a = sym(np.asarray(q, dtype=float) @ g)
        lead = a.shape[:-2]
        # x[..., 0, j] = P_j and x[..., 1, j] = P_j G^T
        x = np.empty(lead + (2, top + 1, n, n))
        x[..., 0, 0, :, :] = np.eye(n)
        x[..., 0, 1, :, :] = a
        for j in range(2, top + 1):
            np.matmul(x[..., 0, j - 1, :, :], a, out=x[..., 0, j, :, :])
        z = x[..., 0, top, :, :] @ a @ gt

        def tangent():
            np.matmul(x[..., 0, :, :, :], gt_c, out=x[..., 1, :, :, :])
            # y[..., 0, j] = G P_j G^T / 2 and y[..., 1, j] = P_j G^T / 2
            y = np.empty_like(x)
            np.matmul(half_g, x[..., 1, :, :, :], out=y[..., 0, :, :, :])
            np.multiply(x[..., 1, :, :, :], 0.5, out=y[..., 1, :, :, :])
            # the sums over j of the outer products of x_j and y_(2m-j)
            k = n * n
            t = (np.swapaxes(x.reshape(lead + (2, top + 1, k)), -1, -2)
                 @ y[..., ::-1, :, :].reshape(lead + (2, top + 1, k)))
            t = t.reshape(-1, 2, n, n, n, n)
            m = np.add(t[:, 0].transpose(0, 1, 4, 2, 3),    # (a, k, l, b)
                       t[:, 1].transpose(0, 1, 4, 3, 2),    # (a, l, k, b)
                       order='C')
            return m.reshape(lead + (k, k))
        return z, tangent

    def respond(q):
        z, tangent = split(q)
        return z, tangent()

    respond.split = split
    respond.dissipation = lambda q: frob(_zm_stress(model.m, g, gt, q), q)
    return respond


def viscous_tangent_field(model, f, q):
    """Velocity-gradient tangent D_Q Z(F, Q) as (..., n^2, n^2) matrices.

    Column k n + l is the derivative of Z along the basis matrix E_kl, in
    the row-major vectorization.  Where Z has degree 1 in Q that column is
    Z(F, E_kl) itself; for zm with m >= 1 the tangent is the closed form of
    `viscous_response`.
    """
    if model.degree > 1:
        return viscous_response(model, f)(q)[1]
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    basis = np.eye(n * n).reshape(n * n, n, n)
    cols = viscous_stress(model, f[..., None, :, :], basis)
    return np.swapaxes(cols.reshape(cols.shape[:-3] + (n * n, n * n)), -1, -2)


def viscous_tangent_q(model, f0, q0):
    """Tangent D_Q Z(F0, Q0) at a single point as an (n^2, n^2) matrix.

    The matrix is the one `viscous_tangent_field` builds, in its row-major
    vectorization; it is the form every check in `wellposedness` takes.
    """
    f0 = np.asarray(f0, dtype=float)
    if f0.ndim != 2:
        raise ValueError("viscous_tangent_q expects a single matrix; "
                         "use viscous_tangent_field for batches")
    return viscous_tangent_field(model, f0, q0)


def random_deformations(dim, count, rng):
    """Batch of deformation gradients with controlled positive determinant.

    F = R1 diag(d) R2 with singular values uniform in [0.5, 2), so det F > 0
    with conditioning bounded by 4.
    """
    r1 = rotation_sample(dim, rng, count)
    r2 = rotation_sample(dim, rng, count)
    d = rng.uniform(0.5, 2.0, (count, dim))
    return r1 @ (d[:, :, None] * r2)


def validate_axioms(model, dim, num_samples, seed, tol=1e-9):
    """Randomized sweep over the constitutive axioms.

    Draws (F, Q, R, K) with det F > 0, R a rotation, K skew, and records the
    worst residuals of
      * energy frame invariance        W(R F) = W(F),
      * angular-momentum balance       skew(F^-1 Z(F, Q)) = 0,
      * viscous frame invariance       Z(R F, R K F + R Q) = R Z(F, Q),
    together with the minimum dissipation density Z:Q.  Deterministic for a
    fixed seed.  num_samples = 0 yields a vacuous, failed report.
    """
    if num_samples < 1:
        return AxiomReport(0, 0.0, 0.0, 0.0, 0.0, tol)
    rng = np.random.default_rng(seed)
    f = random_deformations(dim, num_samples, rng)
    q = rng.standard_normal((num_samples, dim, dim))
    r = rotation_sample(dim, rng, num_samples)
    k = skew(rng.standard_normal((num_samples, dim, dim)))

    w_plain = energy(model.energy, f)
    w_rot = energy(model.energy, r @ f)
    res_w = float(np.max(np.abs(w_rot - w_plain)))

    z = viscous_stress(model.viscosity, f, q)
    res_ang = float(np.max(np.abs(skew(np.linalg.inv(f) @ z))))

    z_rot = viscous_stress(model.viscosity, r @ f, r @ k @ f + r @ q)
    res_z = float(np.max(np.abs(z_rot - r @ z)))

    min_diss = float(np.min(frob(z, q)))
    return AxiomReport(num_samples, res_w, res_z, res_ang, min_diss, tol)
