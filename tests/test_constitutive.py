import warnings

import numpy as np
import pytest

from viscolab.constitutive import (ConstitutiveModel, EnergyModel,
                                   ViscosityModel, dissipation_density, energy,
                                   piola_stress, random_deformations,
                                   validate_axioms, viscous_stress,
                                   viscous_tangent_field, viscous_tangent_q)
from viscolab.errors import DomainError
from viscolab.tensor_core import frob, random_rotation, skew, sym

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
        assert np.allclose(t.apply(q), 2.0 * sym(q))
    t0 = viscous_tangent_q(ViscosityModel.zm(0), np.eye(2), rng.standard_normal((2, 2)))
    for _ in range(5):
        q = rng.standard_normal((2, 2))
        assert np.allclose(t0.apply(q), sym(q))


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
        rel = np.linalg.norm(fd - t.mat) / np.linalg.norm(t.mat)
        assert rel <= 1e-6


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
    # singular values stay within the requested spread
    svals = np.linalg.svd(f, compute_uv=False)
    assert svals.min() >= 0.5 - 1e-12 and svals.max() <= 2.0 + 1e-12
