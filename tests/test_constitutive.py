import warnings

import numpy as np
import pytest

from viscolab.constitutive import (ConstitutiveModel, EnergyModel,
                                   ViscosityModel, dissipation_density, energy,
                                   piola_stress, random_deformations,
                                   validate_axioms, viscous_response,
                                   viscous_stress, viscous_tangent_field,
                                   viscous_tangent_q)
from viscolab.errors import DomainError, RangeError
from viscolab.tensor_core import _det, _inv, frob, random_rotation, skew, sym

ALL_VISCOSITIES = [ViscosityModel.z0doubleprime(), ViscosityModel.z0prime(),
                   ViscosityModel.zm(0), ViscosityModel.zm(1), ViscosityModel.zm(2)]
ALL_ENERGIES = [EnergyModel.w0(), EnergyModel.w1(), EnergyModel.w2(3.0)]


def test_model_validation():
    with pytest.raises(ValueError):
        EnergyModel('w1', q=1.0)
    with pytest.raises(ValueError):
        EnergyModel('w9')
    with pytest.raises(ValueError):
        ViscosityModel('zm', m=-1)
    with pytest.raises(ValueError):
        ViscosityModel('nope')
    # q > 1 and a nonnegative integer m are asked of every kind
    for bad in (lambda: EnergyModel('w0', 0.5), lambda: ViscosityModel('z0prime', -1),
                lambda: ViscosityModel('zm', 1.5)):
        with pytest.raises(RangeError):
            bad()


def test_viscosity_m_must_be_an_integer():
    # m = 1.0 once passed and then failed inside viscous_stress
    for bad in (lambda: ViscosityModel('zm', 1.0), lambda: ViscosityModel('zm', 1.5),
                lambda: ViscosityModel.zm(1.5), lambda: ViscosityModel('z0prime', 0.0)):
        with pytest.raises(RangeError) as info:
            bad()
        assert str(info.value) == "key 'viscosity_m': must be an integer"
    assert ViscosityModel('zm', np.int64(1)).m == 1


def test_energy_examples():
    assert energy(EnergyModel.w0(), np.eye(2)) == 0.0
    # F = diag(2,1): F^T F - Id = diag(3,0), squared norm 9
    assert energy(EnergyModel.w0(), np.diag([2.0, 1.0])) == pytest.approx(9.0)
    flipped = np.diag([-1.0, 1.0])  # det = -1
    assert energy(EnergyModel.w1(), flipped) == np.inf
    assert energy(EnergyModel.w2(), flipped) == np.inf
    assert energy(EnergyModel.w1(), np.eye(3)) == pytest.approx(0.0, abs=1e-15)
    assert energy(EnergyModel.w2(), np.eye(3)) == pytest.approx(0.0, abs=1e-15)


def test_energy_vanishes_on_rotations():
    for i in range(100):
        r = random_rotation(2 + i % 2, seed=i)
        assert abs(energy(EnergyModel.w0(), r)) <= 1e-12


@pytest.mark.parametrize("model", ALL_ENERGIES)
@pytest.mark.parametrize("dim", [2, 3])
def test_energy_frame_invariance(model, dim):
    rng = np.random.default_rng(11)
    f = random_deformations(dim, 50, rng)
    for i in range(50):
        r = random_rotation(dim, seed=1000 + i)
        w1, w2 = energy(model, r @ f[i]), energy(model, f[i])
        assert w1 == pytest.approx(w2, rel=1e-10, abs=1e-12)


def test_piola_stress_w0_examples():
    assert np.array_equal(piola_stress(EnergyModel.w0(), np.eye(2)),
                          np.zeros((2, 2)))
    # 4 diag(2,1) diag(3,0) = diag(24, 0)
    assert np.allclose(piola_stress(EnergyModel.w0(), np.diag([2.0, 1.0])),
                       np.diag([24.0, 0.0]))


def _w0_by_matmul(f):
    # the matmul route: E = F^T F - Id, then 4 F E and |E|^2
    e = np.swapaxes(f, -1, -2) @ f - np.eye(f.shape[-1])
    return 4.0 * (f @ e), frob(e, e)


def test_w0_2d_entrywise_within_ulps_of_matmul():
    # the entrywise forms sum the same products in another order.  Near
    # rest E cancels, so the error is measured against the size of the
    # terms: 4 |F| (|F|^T |F| + Id) for the stress, and W plus
    # sum |E| (|F|^T |F| + Id) for the energy.  The bounds are about twice
    # the largest error seen on 1e5 samples (2.2 and 1.5 ulps)
    rng = np.random.default_rng(33)
    batches = (random_deformations(2, 4096, rng),
               np.eye(2) + 1e-8 * rng.standard_normal((4096, 2, 2)),
               rng.uniform(-3.0, 3.0, (4096, 2, 2)))
    eps = np.finfo(float).eps
    for f in batches:
        stress, w = _w0_by_matmul(f)
        af = np.abs(f)
        terms = np.swapaxes(af, -1, -2) @ af + np.eye(2)
        err = np.abs(piola_stress(EnergyModel.w0(), f) - stress)
        assert np.max(err / (4.0 * (af @ terms))) <= 4 * eps
        e = np.abs(np.swapaxes(f, -1, -2) @ f - np.eye(2))
        scale = w + np.sum(e * terms, axis=(-2, -1))
        assert np.max(np.abs(energy(EnergyModel.w0(), f) - w) / scale) <= 3 * eps


def test_w0_1d_and_3d_are_the_matmul_route_bit_for_bit():
    rng = np.random.default_rng(34)
    for f in (rng.uniform(0.1, 3.0, (4096, 1, 1)), random_deformations(3, 256, rng)):
        stress, w = _w0_by_matmul(f)
        assert np.array_equal(piola_stress(EnergyModel.w0(), f), stress)
        assert np.array_equal(energy(EnergyModel.w0(), f), w)


@pytest.mark.parametrize("model", [EnergyModel.w0(), EnergyModel.w1(),
                                   EnergyModel.w2()])
def test_piola_stress_directional_derivative(model):
    # oracle: centered difference of the energy along random directions
    rng = np.random.default_rng(12)
    f = np.eye(2) + 0.05 * rng.standard_normal((2, 2))
    s = piola_stress(model, f)
    h = 1e-6
    for _ in range(20):
        d = rng.standard_normal((2, 2))
        fd = (energy(model, f + h * d) - energy(model, f - h * d)) / (2 * h)
        assert frob(s, d) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_piola_stress_domain_error():
    with pytest.raises(DomainError):
        piola_stress(EnergyModel.w1(), np.diag([-1.0, 1.0]))
    for model in (EnergyModel.w1(), EnergyModel.w2()):
        batch = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.eye(2)])
        with pytest.raises(DomainError):
            piola_stress(model, batch)
        with pytest.raises(DomainError):
            piola_stress(model, -np.ones((1, 1)))


def fd6_stress(model, f, h=1e-4):
    # oracle: sixth-order central differences of the energy, entry by entry
    stencil = ((-3, -1.0), (-2, 9.0), (-1, -45.0), (1, 45.0), (2, -9.0),
               (3, 1.0))
    out = np.zeros_like(f)
    for i in range(f.shape[-1]):
        for j in range(f.shape[-1]):
            for off, wgt in stencil:
                fp = f.copy()
                fp[..., i, j] += off * h
                out[..., i, j] += wgt / 60.0 * energy(model, fp) / h
    return out


@pytest.mark.parametrize("kind", ['w1', 'w2'])
@pytest.mark.parametrize("q", [2.0, 3.5])
@pytest.mark.parametrize("dim", [1, 2])
def test_piola_stress_closed_form_matches_fd6(kind, q, dim):
    model = EnergyModel(kind, q)
    rng = np.random.default_rng(16)
    if dim == 1:
        f = rng.uniform(0.5, 2.0, (200, 1, 1))
    else:
        f = random_deformations(dim, 200, rng)
    s = piola_stress(model, f)
    assert s.shape == f.shape
    err = np.max(np.abs(s - fd6_stress(model, f))) / np.max(np.abs(s))
    assert err <= 1e-8


@pytest.mark.parametrize("kind", ['w1', 'w2'])
def test_piola_stress_at_unit_determinant(kind):
    # at det F = 1 the penalty has zero slope even for q < 2, so DW = 2(F - R).
    # det F must be 1 in floating point: for q < 2 the slope |log J|^(q-1)
    # turns a one-ulp error in J into about 1e-8.
    model = EnergyModel(kind, 1.5)
    r = np.array([[0.6, -0.8], [0.8, 0.6]])
    for lam in (0.25, 0.5, 1.0, 1.25, 2.0, 4.0):
        f = r @ np.diag([lam, 1.0 / lam])
        assert np.linalg.det(f) == 1.0
        s = piola_stress(model, f)
        assert np.max(np.abs(s - 2.0 * (f - r))) <= 1e-12


def test_piola_stress_finite_near_determinant_floor():
    with warnings.catch_warnings():
        warnings.simplefilter('error')
        s = piola_stress(EnergyModel.w1(), np.diag([2e-4, 1.0]))
    assert np.all(np.isfinite(s))


def test_viscous_stress_examples():
    q = np.array([[0.0, 1.0], [0.0, 0.0]])
    z = viscous_stress(ViscosityModel.z0doubleprime(), np.eye(2), q)
    assert np.allclose(z, [[0.0, 1.0], [1.0, 0.0]])
    q_sym = np.array([[1.0, 0.5], [0.5, -2.0]])
    assert np.allclose(viscous_stress(ViscosityModel.zm(0), np.eye(2), q_sym), q_sym)
    for model in ALL_VISCOSITIES:
        z = viscous_stress(model, np.diag([2.0, 1.0]), np.zeros((2, 2)))
        assert np.array_equal(z, np.zeros((2, 2)))


@pytest.mark.parametrize("model", [ViscosityModel.z0doubleprime(),
                                   ViscosityModel.z0prime(), ViscosityModel.zm(0)])
def test_viscous_stress_linearity(model):
    rng = np.random.default_rng(13)
    f = random_deformations(2, 1, rng)[0]
    q1, q2 = rng.standard_normal((2, 2, 2))
    lhs = viscous_stress(model, f, 2.0 * q1 - 3.0 * q2)
    rhs = 2.0 * viscous_stress(model, f, q1) - 3.0 * viscous_stress(model, f, q2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize("model", ALL_VISCOSITIES)
@pytest.mark.parametrize("dim", [2, 3])
def test_angular_momentum_symmetry(model, dim):
    # F^-1 Z must be symmetric for every catalogue tensor
    rng = np.random.default_rng(14)
    f = random_deformations(dim, 20, rng)
    q = rng.standard_normal((20, dim, dim))
    z = viscous_stress(model, f, q)
    residual = skew(np.linalg.inv(f) @ z)
    assert frob(residual, residual).max() <= 1e-20


def test_tangent_closed_forms_at_identity():
    t = viscous_tangent_q(ViscosityModel.z0doubleprime(), np.eye(2), np.zeros((2, 2)))
    rng = np.random.default_rng(15)
    for _ in range(5):
        q = rng.standard_normal((2, 2))
        assert np.allclose((t @ q.reshape(-1)).reshape(2, 2), 2.0 * sym(q))
    t0 = viscous_tangent_q(ViscosityModel.zm(0), np.eye(2), rng.standard_normal((2, 2)))
    for _ in range(5):
        q = rng.standard_normal((2, 2))
        assert np.allclose((t0 @ q.reshape(-1)).reshape(2, 2), sym(q))
    # one point only; batches go through viscous_tangent_field
    with pytest.raises(ValueError, match="single matrix"):
        viscous_tangent_q(ViscosityModel.zm(0), np.ones((3, 2, 2)), np.zeros((3, 2, 2)))


@pytest.mark.parametrize("model", ALL_VISCOSITIES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tangent_symmetric(model, dim):
    # D_Q Z is the Hessian of a dissipation potential, hence symmetric
    rng = np.random.default_rng(24)
    f = random_deformations(dim, 200, rng)
    q = rng.standard_normal((200, dim, dim))
    t = viscous_tangent_field(model, f, q)
    asym = np.max(np.abs(t - np.swapaxes(t, -1, -2)), axis=(-1, -2))
    assert np.all(asym <= 1e-14 * np.max(np.abs(t), axis=(-1, -2)))


@pytest.mark.parametrize("model", ALL_VISCOSITIES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tangent_matches_finite_differences(model, dim):
    rng = np.random.default_rng(16)
    h = 1e-5
    for _ in range(5):
        f = random_deformations(dim, 1, rng)[0]
        q0 = rng.standard_normal((dim, dim))
        t = viscous_tangent_q(model, f, q0)
        fd = np.empty((dim * dim, dim * dim))
        for col in range(dim * dim):
            e = np.zeros((dim, dim))
            e.flat[col] = 1.0
            fd[:, col] = ((viscous_stress(model, f, q0 + h * e)
                           - viscous_stress(model, f, q0 - h * e)) / (2 * h)).reshape(-1)
        rel = np.linalg.norm(fd - t) / np.linalg.norm(t)
        assert rel <= 1e-6


@pytest.mark.parametrize("model, degree", zip(ALL_VISCOSITIES, [1, 1, 1, 3, 5]))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tangent_euler_identity(model, degree, dim):
    # Z is homogeneous of degree p in Q, so D_Q Z(F, Q)[Q] = p Z(F, Q); the
    # Newton right-hand side of semi_implicit_step rests on this identity
    # (measured <= 6.6e-16 relative per sample, bounded at 1e-12)
    assert model.degree == degree
    rng = np.random.default_rng(61)
    f = random_deformations(dim, 200, rng)
    q = rng.standard_normal((200, dim, dim))
    mq = viscous_tangent_field(model, f, q) @ q.reshape(200, -1, 1)
    pz = degree * viscous_stress(model, f, q).reshape(200, -1, 1)
    err = np.max(np.abs(mq - pz), axis=(-1, -2))
    assert np.all(err <= 1e-12 * np.max(np.abs(pz), axis=(-1, -2)))


def column_tangent(model, f, q):
    # oracle: the zm tangent built column by column before the closed form,
    # column k n + l being sum_j A^j sym(E_kl G) A^(2m-j) G^T.  G is the
    # package's inverse, so the 1e-15 bound below isolates the tangent's
    # summation order from the ulp between it and np.linalg.inv
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    basis = np.eye(n * n).reshape(n * n, n, n)
    g = _inv(f, _det(f))
    gt = np.swapaxes(g, -1, -2)
    a = sym(np.asarray(q, dtype=float) @ g)
    powers = [np.broadcast_to(np.eye(n), a.shape)]
    for _ in range(2 * model.m):
        powers.append(powers[-1] @ a)
    e_g = sym(basis @ g[..., None, :, :])
    cols = sum(powers[j][..., None, :, :] @ e_g
               @ (powers[2 * model.m - j] @ gt)[..., None, :, :]
               for j in range(2 * model.m + 1))
    return np.swapaxes(cols.reshape(cols.shape[:-3] + (n * n, n * n)), -1, -2)


def _points_and_batch(dim, rng):
    f = random_deformations(dim, 65, rng)
    q = rng.standard_normal((65, dim, dim))
    return (f[0], q[0]), (f[1:], q[1:])


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_viscous_response_stress_is_viscous_stress(m, dim):
    # Z from the fused pass is bit-identical to viscous_stress, on one point
    # and on a batch
    model = ViscosityModel.zm(m)
    for f, q in _points_and_batch(dim, np.random.default_rng(70 + m)):
        z, _ = viscous_response(model, f)(q)
        assert np.array_equal(z, viscous_stress(model, f, q))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_viscous_response_tangent_matches_column_build(m, dim):
    # the closed form sums the same products in another order: within 1e-15
    # of the largest entry of each tangent (measured <= 4.1e-16)
    model = ViscosityModel.zm(m)
    for f, q in _points_and_batch(dim, np.random.default_rng(80 + m)):
        _, t = viscous_response(model, f)(q)
        oracle = column_tangent(model, f, q)
        assert t.shape == oracle.shape
        assert t.flags.c_contiguous
        err = np.max(np.abs(t - oracle), axis=(-1, -2))
        assert np.all(err <= 1e-15 * np.max(np.abs(oracle), axis=(-1, -2)))
        assert np.array_equal(viscous_tangent_field(model, f, q), t)


def test_viscous_response_reuses_its_frozen_deformation():
    # one response answers every velocity gradient at the F it was built on
    rng = np.random.default_rng(90)
    model = ViscosityModel.zm(2)
    f = random_deformations(2, 16, rng)
    respond = viscous_response(model, f)
    for _ in range(3):
        q = rng.standard_normal((16, 2, 2))
        z, t = respond(q)
        assert np.array_equal(z, viscous_stress(model, f, q))
        assert np.array_equal(t, viscous_tangent_field(model, f, q))


@pytest.mark.parametrize("model", [ViscosityModel.z0doubleprime(),
                                   ViscosityModel.z0prime(), ViscosityModel.zm(0)])
def test_viscous_response_rejects_degree_one(model):
    with pytest.raises(ValueError):
        viscous_response(model, np.eye(2))


def test_dissipation_examples():
    assert dissipation_density(ViscosityModel.z0doubleprime(), np.eye(2),
                               np.eye(2)) == pytest.approx(4.0)
    for model in ALL_VISCOSITIES:
        assert dissipation_density(model, np.diag([0.7, 1.3]),
                                   np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("model", ALL_VISCOSITIES)
def test_dissipation_nonnegative(model):
    rng = np.random.default_rng(17)
    f = random_deformations(3, 200, rng)
    q = rng.standard_normal((200, 3, 3))
    assert dissipation_density(model, f, q).min() >= -1e-12


def test_validate_axioms_passes():
    rep = validate_axioms(ConstitutiveModel(EnergyModel.w0(),
                                            ViscosityModel.z0doubleprime()),
                          dim=2, num_samples=1000, seed=21)
    assert rep.passed
    assert rep.samples_tested == 1000
    assert rep.max_frame_invariance_residual_w <= 1e-9
    assert rep.max_frame_invariance_residual_z <= 1e-9
    assert rep.max_angular_momentum_residual <= 1e-9
    assert rep.min_dissipation >= -1e-12

    rep3 = validate_axioms(ConstitutiveModel(EnergyModel.w1(),
                                             ViscosityModel.zm(1)),
                           dim=3, num_samples=1000, seed=22)
    assert rep3.passed


def test_validate_axioms_vacuous():
    rep = validate_axioms(ConstitutiveModel(EnergyModel.w0(),
                                            ViscosityModel.zm(0)),
                          dim=2, num_samples=0, seed=0)
    assert rep.samples_tested == 0
    assert not rep.passed


def test_random_deformations_admissible():
    rng = np.random.default_rng(23)
    f = random_deformations(3, 100, rng)
    dets = np.linalg.det(f)
    assert dets.min() > 0.0
    # singular values stay within the fixed range [0.5, 2]
    svals = np.linalg.svd(f, compute_uv=False)
    assert svals.min() >= 0.5 - 1e-12 and svals.max() <= 2.0 + 1e-12
