"""Constitutive catalogue: stored elastic energies, viscous stress tensors,
their velocity-gradient tangents, and randomized validators for the
frame-invariance, angular-momentum and dissipation axioms.

All evaluation routines broadcast over leading axes, so a whole field of
deformation gradients can be processed in one call.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMatrix
from .tensor_core import (EPS_SINGULAR, FourthOrderTensor, frob, rotation_sample,
                          skew, sym)

ENERGY_KINDS = ('w0', 'w1', 'w2')
VISCOSITY_KINDS = ('zm', 'z0prime', 'z0doubleprime')

@dataclass(frozen=True)
class EnergyModel:
    """Choice of stored elastic energy density.

    kind 'w0': |F^T F - Id|^2 (smooth everywhere, no determinant blow-up).
    kind 'w1': |(F^T F)^1/2 - Id|^2 + |log det F|^q, infinite for det F <= 0.
    kind 'w2': |(F^T F)^1/2 - Id|^2 + |1/det F - 1|^q, infinite for det F <= 0.
    """

    kind: str
    q: float = 2.0

    def __post_init__(self):
        if self.kind not in ENERGY_KINDS:
            raise ValueError(f"unknown energy kind {self.kind!r}")
        if self.kind in ('w1', 'w2') and not self.q > 1.0:
            raise ValueError(f"q must exceed 1, got {self.q}")

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
    """

    kind: str
    m: int = 0

    def __post_init__(self):
        if self.kind not in VISCOSITY_KINDS:
            raise ValueError(f"unknown viscosity kind {self.kind!r}")
        if self.kind == 'zm' and (self.m < 0 or int(self.m) != self.m):
            raise ValueError(f"m must be a nonnegative integer, got {self.m}")

    @classmethod
    def zm(cls, m):
        return cls('zm', int(m))

    @classmethod
    def z0prime(cls):
        return cls('z0prime')

    @classmethod
    def z0doubleprime(cls):
        return cls('z0doubleprime')

    @property
    def linear_in_q(self):
        return self.kind != 'zm' or self.m == 0


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


def _identity_like(f):
    n = f.shape[-1]
    return np.broadcast_to(np.eye(n), f.shape)


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


def energy(model, f):
    """Stored energy density W(F); +inf where det F <= 0 for w1/w2.

    For w1/w2, |(F^T F)^1/2 - Id|^2 = sum_i (s_i - 1)^2 over the singular
    values s_i of F.  Returns a scalar for a single matrix, an array for a
    batch.
    """
    f = np.asarray(f, dtype=float)
    if model.kind == 'w0':
        dev = np.swapaxes(f, -1, -2) @ f - _identity_like(f)
        out = frob(dev, dev)
        return float(out) if out.ndim == 0 else out
    d = np.linalg.det(f)
    s = np.linalg.svd(f, compute_uv=False)
    base = np.sum((s - 1.0) ** 2, axis=-1)
    pen, _ = _penalty(model, np.where(d > 0.0, d, 1.0))
    out = np.where(d > 0.0, base + pen, np.inf)
    return float(out) if out.ndim == 0 else out


def piola_stress(model, f):
    """Stress DW(F) in closed form; batched over leading axes.

    w0: 4 F (F^T F - Id).  w1/w2: 2 (F - R) + c(det F) F^-T, where R = U V^T
    is the polar rotation from the SVD F = U S V^T and c is the factor of
    `_penalty`.  Raises DomainError where det F <= 0.
    """
    f = np.asarray(f, dtype=float)
    if model.kind == 'w0':
        c = np.swapaxes(f, -1, -2) @ f
        return 4.0 * (f @ (c - _identity_like(f)))
    d = np.linalg.det(f)
    if np.any(d <= 0.0):
        raise DomainError("det F <= 0 outside the energy's smooth domain")
    u, _, vt = np.linalg.svd(f)
    _, c = _penalty(model, d)
    gt = np.swapaxes(np.linalg.inv(f), -1, -2)
    return 2.0 * (f - u @ vt) + c[..., None, None] * gt


def _inv_transpose(f):
    d = np.linalg.det(f)
    if np.any(np.abs(d) <= EPS_SINGULAR):
        raise SingularMatrix(f"minimum |det F| = {np.min(np.abs(d)):.3e}")
    g = np.linalg.inv(f)
    return d, g, np.swapaxes(g, -1, -2)


def viscous_stress(model, f, q):
    """Viscous stress Z(F, Q); batched over leading axes."""
    f = np.asarray(f, dtype=float)
    q = np.asarray(q, dtype=float)
    if model.kind == 'z0doubleprime':
        return 2.0 * (f @ sym(np.swapaxes(f, -1, -2) @ q))
    d, g, gt = _inv_transpose(f)
    b = sym(q @ g)
    if model.kind == 'z0prime':
        return 2.0 * d[..., None, None] * (b @ gt)
    power = b
    for _ in range(2 * model.m):
        power = power @ b
    return power @ gt


def dissipation_density(model, f, q):
    """Pointwise dissipation Z(F, Q):Q; nonnegative for the whole catalogue."""
    out = frob(viscous_stress(model, f, q), q)
    return float(out) if np.ndim(out) == 0 else out


def viscous_tangent_field(model, f, q):
    """Velocity-gradient tangent D_Q Z(F, Q) as (..., n^2, n^2) matrices.

    Column k n + l is the derivative of Z along the basis matrix E_kl, in
    the row-major vectorization.  Where Z is linear in Q that column is
    Z(F, E_kl) itself; for zm with m >= 1 it is
    sum_j A^j sym(E_kl G) A^(2m-j) G^T, with G = F^-1 and A = sym(Q G).
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    basis = np.eye(n * n).reshape(n * n, n, n)
    if model.linear_in_q:
        cols = viscous_stress(model, f[..., None, :, :], basis)
    else:
        _, g, gt = _inv_transpose(f)
        a = sym(np.asarray(q, dtype=float) @ g)
        powers = [np.broadcast_to(np.eye(n), a.shape)]
        for _ in range(2 * model.m):
            powers.append(powers[-1] @ a)
        e_g = sym(basis @ g[..., None, :, :])
        cols = sum(powers[j][..., None, :, :] @ e_g
                   @ (powers[2 * model.m - j] @ gt)[..., None, :, :]
                   for j in range(2 * model.m + 1))
    return np.swapaxes(cols.reshape(cols.shape[:-3] + (n * n, n * n)), -1, -2)


def viscous_tangent_q(model, f0, q0):
    """Tangent D_Q Z(F0, Q0) as a FourthOrderTensor."""
    f0 = np.asarray(f0, dtype=float)
    if f0.ndim != 2:
        raise ValueError("viscous_tangent_q expects a single matrix; "
                         "use viscous_tangent_field for batches")
    return FourthOrderTensor(f0.shape[-1], viscous_tangent_field(model, f0, q0))


def random_deformations(dim, count, rng, spread=(0.5, 2.0)):
    """Batch of deformation gradients with controlled positive determinant.

    F = R1 diag(d) R2 with singular values uniform in `spread`, so det F > 0
    with conditioning bounded by spread[1]/spread[0].
    """
    r1 = rotation_sample(dim, rng, count)
    r2 = rotation_sample(dim, rng, count)
    d = rng.uniform(spread[0], spread[1], (count, dim))
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
