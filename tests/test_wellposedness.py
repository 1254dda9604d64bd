import math

import numpy as np
import pytest

from viscolab.constitutive import ViscosityModel, random_deformations, viscous_tangent_q
from viscolab.errors import DegenerateQ, DomainError, SingularMatrix, Unsupported
from viscolab.tensor_core import FourthOrderTensor
from viscolab.wellposedness import (acoustic_spectrum, check_initial_data,
                                    closed_form_gamma, fourier_korn_sample,
                                    rank_one_min, sector_scan)
from viscolab.wellposedness import _field_ratio, _gammas, _rank_one_batch

SYM2 = FourthOrderTensor.sym_map(2)
TWO_SYM2 = FourthOrderTensor(2, 2.0 * SYM2.mat)


def dense_scan_oracle(m, count=3600):
    """Independent brute-force minimum of the rank-one ratio (2D)."""
    t4 = m.as_tensor4()
    ang = np.arange(count) * np.pi / count
    vecs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    best = np.inf
    for b in vecs:
        nb = np.einsum('ijkl,j,l->ik', t4, b, b)
        vals = np.einsum('qi,ik,qk->q', vecs, nb, vecs)
        best = min(best, float(vals.min()))
    return best


def test_rank_one_identity_map():
    r = rank_one_min(FourthOrderTensor.identity(2))
    assert r.ratio_min == pytest.approx(1.0, abs=1e-12)
    assert r.gamma_est == pytest.approx(1.0, abs=1e-12)


def test_rank_one_sym_against_dense_oracle():
    oracle = dense_scan_oracle(SYM2)
    r = rank_one_min(SYM2)
    assert r.ratio_min == pytest.approx(oracle, rel=1e-2)
    assert r.gamma_est == pytest.approx(2.0, rel=1e-6)
    # minimizers orthogonal for the symmetric-part map
    assert abs(np.dot(r.a_star, r.b_star)) <= 1e-6


def test_rank_one_two_sym():
    r = rank_one_min(TWO_SYM2)
    assert r.gamma_est == pytest.approx(1.0, rel=1e-6)


def test_rank_one_result_invariants():
    rng = np.random.default_rng(31)
    f = random_deformations(2, 1, rng)[0]
    m = viscous_tangent_q(ViscosityModel.z0prime(), f, np.zeros((2, 2)))
    r = rank_one_min(m)
    assert np.linalg.norm(r.a_star) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(r.b_star) == pytest.approx(1.0, abs=1e-12)
    evaluated = float(np.einsum('i,j,ijkl,k,l->', r.a_star, r.b_star,
                                m.as_tensor4(), r.a_star, r.b_star))
    assert r.ratio_min == pytest.approx(evaluated, abs=1e-12)


def test_rank_one_scaling_covariance():
    for c in (0.5, 3.0):
        r = rank_one_min(FourthOrderTensor(2, c * SYM2.mat))
        assert r.ratio_min == pytest.approx(0.5 * c, rel=1e-10)
        assert r.gamma_est == pytest.approx(2.0 / c, rel=1e-10)


def test_one_dimensional_degeneracy():
    m = FourthOrderTensor(1, np.array([[1.75]]))
    r = rank_one_min(m)
    assert r.ratio_min == 1.75
    scan = sector_scan(m, 2)
    assert scan.min_real_part == pytest.approx(1.75, abs=1e-14)
    assert fourier_korn_sample(m, 10, 4, seed=0) == pytest.approx(1.75, abs=1e-12)


def test_rank_one_nonpositive_map():
    r = rank_one_min(FourthOrderTensor(2, -np.eye(4)))
    assert r.ratio_min < 0.0
    assert math.isinf(r.gamma_est)


def test_closed_form_gamma_catalogue():
    z = np.zeros((2, 2))
    assert closed_form_gamma(ViscosityModel.z0doubleprime(), np.eye(2), z) == \
        pytest.approx(2.0)
    assert closed_form_gamma(ViscosityModel.z0prime(), np.eye(3),
                             np.zeros((3, 3))) == pytest.approx(3.0)
    # literal catalogue value for the m = 0 tensor
    assert closed_form_gamma(ViscosityModel.zm(0), np.eye(2), z) == \
        pytest.approx(1.0)
    # literal evaluation at F0 = Id, Q0 = Id: 2 * |Id|^2 * |Id|^2 = 8
    assert closed_form_gamma(ViscosityModel.zm(1), np.eye(2), np.eye(2)) == \
        pytest.approx(8.0)
    assert closed_form_gamma(ViscosityModel.zm(2), np.eye(2), np.eye(2)) == \
        pytest.approx(16.0)


def test_closed_form_gamma_errors():
    with pytest.raises(DomainError):
        closed_form_gamma(ViscosityModel.z0prime(), np.diag([-1.0, 1.0]),
                          np.zeros((2, 2)))
    with pytest.raises(DegenerateQ):
        closed_form_gamma(ViscosityModel.zm(1), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(Unsupported):
        closed_form_gamma(ViscosityModel.zm(3), np.eye(2), np.eye(2))


def test_acoustic_spectrum_examples():
    eigs = sorted(acoustic_spectrum(TWO_SYM2, np.array([1.0, 0.0])).real)
    assert eigs == pytest.approx([1.0, 2.0], abs=1e-12)
    eigs = acoustic_spectrum(FourthOrderTensor.identity(2),
                             np.array([0.6, 0.8]))
    assert sorted(eigs.real) == pytest.approx([1.0, 1.0], abs=1e-12)
    with pytest.raises(ValueError):
        acoustic_spectrum(SYM2, np.array([1.0, 1.0]))
    # leading axes of k broadcast; every row must be a unit vector
    ang = np.linspace(0.0, 2.0 * np.pi, 12).reshape(3, 4)
    k = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    m = viscous_tangent_q(ViscosityModel.zm(1), np.array([[1.2, 0.3], [0.1, 0.9]]),
                          np.array([[0.4, -1.0], [0.7, 0.2]]))
    batch = acoustic_spectrum(m, k)
    assert batch.shape == (3, 4, 2)
    for idx in np.ndindex(3, 4):
        assert np.array_equal(batch[idx], acoustic_spectrum(m, k[idx]))
    k[1, 2] *= 1.5
    with pytest.raises(ValueError, match="is not 1"):
        acoustic_spectrum(m, k)


def test_acoustic_rayleigh_bound():
    rng = np.random.default_rng(32)
    models = [ViscosityModel.z0doubleprime(), ViscosityModel.zm(1)]
    for model in models:
        f = random_deformations(2, 1, rng)[0]
        q = rng.standard_normal((2, 2))
        m = viscous_tangent_q(model, f, q)
        r = rank_one_min(m)
        if not math.isfinite(r.gamma_est):
            continue
        for i in range(25):
            ang = 2.0 * np.pi * i / 25
            eigs = acoustic_spectrum(m, np.array([np.cos(ang), np.sin(ang)]))
            assert eigs.real.min() >= r.ratio_min - 1e-9


def test_sector_scan_examples():
    rep = sector_scan(TWO_SYM2, 360)
    assert rep.min_real_part == pytest.approx(1.0, abs=1e-9)
    assert rep.max_abs_arg == pytest.approx(0.0, abs=1e-12)
    assert rep.elliptic
    assert rep.directions_scanned == 360
    assert sector_scan(FourthOrderTensor.identity(2), 16).elliptic
    neg = sector_scan(FourthOrderTensor(2, -np.eye(4)), 360)
    assert not neg.elliptic
    with pytest.raises(ValueError):
        sector_scan(SYM2, 2)


def test_fourier_korn_identity():
    assert fourier_korn_sample(FourthOrderTensor.identity(2), 20, 4, seed=1) == \
        pytest.approx(1.0, abs=1e-12)


def test_fourier_korn_sym_bounds():
    worst = fourier_korn_sample(SYM2, 100, 8, seed=2)
    assert 0.5 - 1e-9 <= worst <= 1.0 + 1e-12


def test_fourier_single_mode_matches_rank_one():
    rng = np.random.default_rng(33)
    t4 = SYM2.as_tensor4()
    for _ in range(10):
        a = rng.standard_normal(2)
        k = np.array([2.0, -1.0])
        ratio = _field_ratio(t4, [k], np.zeros((1, 2)), a[None, :])
        khat = k / np.linalg.norm(k)
        expected = float(np.einsum('i,j,ijkl,k,l->', a, khat, t4, a, khat)) / (a @ a)
        assert ratio == pytest.approx(expected, abs=1e-10)


def test_check_initial_data_rest():
    # D_Q Z0''(Id, 0) = 2 sym, whose optimal rank-one constant is 1
    m = ViscosityModel.z0doubleprime()
    f0 = np.broadcast_to(np.eye(2), (9, 2, 2)).copy()
    q0 = np.zeros((9, 2, 2))
    rep = check_initial_data(m, f0, q0, resolution=90, refine_iters=3)
    assert rep.passed
    assert rep.gamma_sup == pytest.approx(1.0, rel=1e-6)
    assert rep.gamma_inf == pytest.approx(rep.gamma_sup, rel=1e-12)

    single = check_initial_data(m, f0[:1], q0[:1], resolution=90)
    assert single.gamma_sup == single.gamma_inf


def test_check_initial_data_detects_inversion():
    m = ViscosityModel.z0doubleprime()
    f0 = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
    f0[3] = np.diag([-1.0, 1.0])
    with pytest.raises(DomainError, match="node 3"):
        check_initial_data(m, f0, np.zeros((5, 2, 2)))
    q0 = np.zeros((5, 2, 2))
    q0[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="node 2"):
        check_initial_data(ViscosityModel.zm(1), np.abs(f0), q0)


def test_check_initial_data_degenerate_tangent():
    # m >= 1 at rest: the tangent vanishes, so gamma is infinite -> fail
    m = ViscosityModel.zm(1)
    f0 = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
    rep = check_initial_data(m, f0, np.zeros((4, 2, 2)), resolution=16)
    assert not rep.passed
    assert math.isinf(rep.gamma_sup)


def test_check_initial_data_names_singular_node():
    # 0 < det F0 <= EPS_SINGULAR passes the domain check but not the inverse
    m = ViscosityModel.z0prime()
    f0 = np.broadcast_to(np.eye(2), (6, 2, 2)).copy()
    f0[4] = np.diag([1e-15, 1.0])
    with pytest.raises(SingularMatrix, match="node 4"):
        check_initial_data(m, f0, np.zeros((6, 2, 2)))


@pytest.mark.parametrize("dim, model, resolution, rest", [
    (2, ViscosityModel.zm(1), 360, True),
    (2, ViscosityModel.zm(1), 360, False),
    (3, ViscosityModel.z0prime(), 24, False),
    (1, ViscosityModel.zm(1), 16, True),
])
def test_check_initial_data_equals_batches_of_one(dim, model, resolution, rest):
    rng = np.random.default_rng(35)
    f0 = random_deformations(dim, 6, rng)
    q0 = rng.standard_normal((6, dim, dim))
    # repeated nodes are computed once and must still get their own gamma
    f0, q0 = np.concatenate([f0, f0[:2]]), np.concatenate([q0, q0[:2]])
    if rest:
        # the zm(1) tangent vanishes at Q0 = 0, so that node's gamma is inf
        q0[3] = 0.0
    single = np.array([rank_one_min(viscous_tangent_q(model, f, q),
                                    resolution).gamma_est
                       for f, q in zip(f0, q0)])
    assert math.isinf(single[3]) == rest
    mats = np.stack([viscous_tangent_q(model, f, q).as_tensor4()
                     for f, q in zip(f0, q0)])
    batch = _gammas(_rank_one_batch(mats, resolution, 5)[0])
    assert np.array_equal(batch, single)
    rep = check_initial_data(model, f0, q0, resolution=resolution)
    assert rep.gamma_sup == single.max() and rep.gamma_inf == single.min()
    assert rep.worst_node == int(np.argmax(single))
    assert rep.nodes_checked == len(f0)


@pytest.mark.parametrize("model", [ViscosityModel.z0doubleprime(),
                                   ViscosityModel.z0prime(),
                                   ViscosityModel.zm(1), ViscosityModel.zm(2)])
def test_gamma_dominated_by_closed_form(model):
    # the catalogue constants are valid (possibly loose) upper bounds
    rng = np.random.default_rng(34)
    for _ in range(10):
        f = random_deformations(2, 1, rng)[0]
        q = rng.standard_normal((2, 2))
        gamma = rank_one_min(viscous_tangent_q(model, f, q)).gamma_est
        assert gamma <= closed_form_gamma(model, f, q) * (1.0 + 1e-3)
