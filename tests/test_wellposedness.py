import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from viscolab import wellposedness
from viscolab.constitutive import ViscosityModel, random_deformations, viscous_tangent_q
from viscolab.errors import (DegenerateQ, DomainError, RangeError,
                             SingularMatrix, Unsupported)
from viscolab.tensor_core import sym
from viscolab.wellposedness import (CoercivityConfig, acoustic_spectrum,
                                    check_initial_data, closed_form_gamma,
                                    fourier_korn_sample, rank_one_min,
                                    sector_scan, WORST_NODE_RTOL)
from viscolab.wellposedness import _gammas, _half_space_modes, _rank_one_batch, _ratios

# the map Q -> sym(Q) in the row-major vectorization; its matrix is symmetric
SYM2 = sym(np.eye(4).reshape(4, 2, 2)).reshape(4, 4)
TWO_SYM2 = 2.0 * SYM2


def dense_scan_oracle(m, count=3600):
    """Independent minimum of the rank-one ratio (2D): the exact minimum over
    a at each b of a dense angular grid, then a bounded scalar minimization
    in each of the three lowest grid cells that hold a local minimum."""
    t4 = m.reshape(2, 2, 2, 2)

    def lowest(theta):
        b = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        nb = np.einsum('ijkl,...j,...l->...ik', t4, b, b)
        return np.linalg.eigvalsh(sym(nb))[..., 0]

    ang = np.arange(count) * np.pi / count
    vals = lowest(ang)
    step = np.pi / count
    local = np.nonzero((vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)))[0]
    best = float(vals.min())
    for i in local[np.argsort(vals[local])[:3]]:
        res = minimize_scalar(lambda s: float(lowest(np.array(s))),
                              bounds=(ang[i] - step, ang[i] + step),
                              method='bounded', options={'xatol': 1e-12})
        best = min(best, float(res.fun))
    return best


def test_rank_one_identity_map():
    r = rank_one_min(np.eye(4))
    assert r.ratio_min == pytest.approx(1.0, abs=1e-12)
    assert r.gamma_est == pytest.approx(1.0, abs=1e-12)


def test_rank_one_sym_against_dense_oracle():
    oracle = dense_scan_oracle(SYM2)
    r = rank_one_min(SYM2)
    assert r.ratio_min == pytest.approx(oracle, rel=1e-2)
    assert r.gamma_est == pytest.approx(2.0, rel=1e-6)
    # minimizers orthogonal for the symmetric-part map
    assert abs(np.dot(r.a_star, r.b_star)) <= 1e-6


@pytest.mark.parametrize("model", [ViscosityModel.z0doubleprime(),
                                   ViscosityModel.z0prime(), ViscosityModel.zm(0),
                                   ViscosityModel.zm(1), ViscosityModel.zm(2)],
                         ids=lambda m: f"{m.kind}{m.m}")
def test_rank_one_2d_matches_dense_oracle(model):
    # the closed-form 2D minimum against the refined scan, relative to max|M|
    rng = np.random.default_rng(37)
    for _ in range(12):
        f = random_deformations(2, 1, rng)[0]
        m = viscous_tangent_q(model, f, rng.standard_normal((2, 2)))
        scale = np.max(np.abs(m))
        diff = rank_one_min(m).ratio_min - dense_scan_oracle(m)
        assert abs(diff) <= 1e-13 * scale
        assert diff <= 1e-15 * scale


# kron(I, C) acts as Q -> Q C, whose ratio |a|^2 b.C b ignores a
B_ONLY = np.kron(np.eye(2), np.array([[2.0, 1.0], [1.0, 2.0]]))
# the map whose 3 x 3 form K (ratio [1, cos 2al, sin 2al] K [1, cos phi,
# sin phi], phi the doubled angle of b) has K00 = 2, q = (1, 0), r = 0 and
# S = diag(0, 1): h(phi) = 2 + cos phi - |sin phi| has its kinks at phi = 0
# and pi and its minimum 2 - sqrt 2 at phi = +-3 pi / 4
_E = np.array([np.eye(2), np.diag([1.0, -1.0]), [[0.0, 1.0], [1.0, 0.0]]])
KINKED = np.einsum('pq,pik,qjl->ijkl', np.array([[2.0, 1.0, 0.0],
                                                [0.0, 0.0, 0.0],
                                                [0.0, 0.0, 1.0]]),
                   _E, _E).reshape(4, 4)


@pytest.mark.parametrize("m, ratio, b_abs", [
    (SYM2, 0.5, None),                  # isotropic: every b minimizes
    (np.zeros((4, 4)), 0.0, None),
    (np.diag([1.0, 2.0, 3.0, 4.0]), 1.0, [1.0, 0.0]),      # phi = 0
    (np.diag([4.0, 3.0, 2.0, 1.0]), 1.0, [0.0, 1.0]),      # phi = pi
    (B_ONLY, 1.0, [2 ** -0.5, 2 ** -0.5]),
    (KINKED, 2.0 - math.sqrt(2.0),
     [math.cos(3 * math.pi / 8), math.sin(3 * math.pi / 8)]),
], ids=["sym", "zero", "phi_0", "phi_pi", "b_only", "kinked"])
def test_rank_one_2d_degenerate_maps(m, ratio, b_abs):
    # the polynomial of the first two and of B_ONLY vanishes identically;
    # the diagonal maps put the minimum where t = tan(phi / 2) is 0 and
    # infinite, and KINKED has a root of its polynomial at phi = pi
    with np.errstate(all='raise'):
        r = rank_one_min(m)
    assert r.ratio_min == pytest.approx(ratio, abs=1e-14)
    if b_abs is not None:
        assert np.abs(r.b_star) == pytest.approx(b_abs, abs=1e-9)


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
                                m.reshape(2, 2, 2, 2), r.a_star, r.b_star))
    assert r.ratio_min == pytest.approx(evaluated, abs=1e-12)


def test_rank_one_scaling_covariance():
    for c in (0.5, 3.0):
        r = rank_one_min(c * SYM2)
        assert r.ratio_min == pytest.approx(0.5 * c, rel=1e-10)
        assert r.gamma_est == pytest.approx(2.0 / c, rel=1e-10)


def test_one_dimensional_degeneracy():
    m = np.array([[1.75]])
    r = rank_one_min(m)
    assert r.ratio_min == 1.75
    scan = sector_scan(m, 2)
    assert scan.min_real_part == pytest.approx(1.75, abs=1e-14)
    assert fourier_korn_sample(m, 10, 4, seed=0) == pytest.approx(1.75, abs=1e-12)


def test_rank_one_nonpositive_map():
    r = rank_one_min(-np.eye(4))
    assert r.ratio_min < 0.0
    assert math.isinf(r.gamma_est)


@pytest.mark.parametrize("bad", [np.eye(3), np.where(np.eye(4) > 0, np.nan, 0.0)],
                         ids=["shape", "nan"])
@pytest.mark.parametrize("check", [
    rank_one_min,
    lambda m: acoustic_spectrum(m, np.array([1.0, 0.0])),
    lambda m: sector_scan(m, 16),
    lambda m: fourier_korn_sample(m, 4, 2, seed=0),
], ids=["rank_one_min", "acoustic_spectrum", "sector_scan", "fourier_korn_sample"])
def test_tangent_shape_check(check, bad):
    # every check takes a finite (n^2, n^2) matrix and rejects anything else
    with pytest.raises(ValueError, match="expected an|non-finite"):
        check(bad)


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
    eigs = acoustic_spectrum(np.eye(4), np.array([0.6, 0.8]))
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
    assert sector_scan(np.eye(4), 16).elliptic
    neg = sector_scan(-np.eye(4), 360)
    assert not neg.elliptic
    # 3D directions come from the Fibonacci sphere; the identity map's
    # acoustic tensor is the identity along every one of them
    rep3 = sector_scan(np.eye(9), 360)
    assert rep3.min_real_part == pytest.approx(1.0, abs=1e-12)
    assert rep3.max_abs_arg == 0.0
    assert rep3.directions_scanned == 360
    with pytest.raises(ValueError):
        sector_scan(SYM2, 2)


def test_fourier_korn_identity():
    assert fourier_korn_sample(np.eye(4), 20, 4, seed=1) == \
        pytest.approx(1.0, abs=1e-12)


def test_fourier_korn_sym_bounds():
    worst = fourier_korn_sample(SYM2, 100, 8, seed=2)
    assert 0.5 - 1e-9 <= worst <= 1.0 + 1e-12


def _field_ratio(t4, modes, cos_coef, sin_coef):
    # oracle: the field ratio summed mode by mode, cos term before sin term
    num = den = 0.0
    for kk, c, s in zip(modes, cos_coef, sin_coef):
        for a in (c, s):
            num += np.einsum('i,j,ijkl,k,l->', a, kk, t4, a, kk)
            den += np.dot(a, a) * np.dot(kk, kk)
    return num / den


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fourier_korn_sample_matches_mode_loop(dim):
    # replay the sample's draws (mode count, modes, cos and sin coefficients
    # per field) through the mode-by-mode oracle
    rng = np.random.default_rng(40 + dim)
    m = rng.standard_normal((dim * dim, dim * dim))
    m = m @ m.T
    t4 = m.reshape((dim,) * 4)
    modes = _half_space_modes(dim, 3)
    draws = np.random.default_rng(9)
    expected = np.inf
    for _ in range(30):
        count = int(draws.integers(1, min(4, len(modes)) + 1))
        idx = draws.choice(len(modes), size=count, replace=False)
        cos_coef = draws.standard_normal((count, dim))
        sin_coef = draws.standard_normal((count, dim))
        expected = min(expected, _field_ratio(t4, [modes[i] for i in idx],
                                              cos_coef, sin_coef))
    assert fourier_korn_sample(m, 30, 3, seed=9) == pytest.approx(expected, rel=1e-14)


def test_fourier_single_mode_matches_rank_one():
    # a single-mode field's ratio, as fourier_korn_sample forms it
    rng = np.random.default_rng(33)
    t4 = SYM2.reshape(2, 2, 2, 2)
    for _ in range(10):
        a = rng.standard_normal(2)
        k = np.array([2.0, -1.0])
        ratio = _ratios(t4[None], a[None], k[None])[0] / ((a @ a) * (k @ k))
        khat = k / np.linalg.norm(k)
        expected = float(np.einsum('i,j,ijkl,k,l->', a, khat, t4, a, khat)) / (a @ a)
        assert ratio == pytest.approx(expected, abs=1e-10)


def test_check_initial_data_rest():
    # D_Q Z0''(Id, 0) = 2 sym, whose optimal rank-one constant is 1
    m = ViscosityModel.z0doubleprime()
    f0 = np.broadcast_to(np.eye(2), (9, 2, 2)).copy()
    q0 = np.zeros((9, 2, 2))
    rep = check_initial_data(m, f0, q0)
    assert rep.passed
    assert rep.gamma_sup == pytest.approx(1.0, rel=1e-6)
    # no cell's gamma depends on the rest of its batch: identical cells tie
    assert rep.gamma_inf == rep.gamma_sup
    assert rep.worst_node == 0

    single = check_initial_data(m, f0[:1], q0[:1])
    assert single.gamma_sup == single.gamma_inf


def test_check_initial_data_detects_inversion():
    m = ViscosityModel.z0doubleprime()
    f0 = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
    f0[3] = np.diag([-1.0, 1.0])
    with pytest.raises(DomainError, match="node 3"):
        check_initial_data(m, f0, np.zeros((5, 2, 2)))
    q0 = np.zeros((5, 2, 2))
    q0[2, 0, 1] = np.nan
    # node 4's tangent is not finite either; the lowest cell is named
    q0[4] = [[-1.0, 0.0], [0.0, np.nan]]
    with pytest.raises(ValueError, match="node 2"):
        check_initial_data(ViscosityModel.zm(1), np.abs(f0), q0)


def test_check_initial_data_rejects_malformed_fields():
    m = ViscosityModel.z0doubleprime()
    f0 = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
    with pytest.raises(ValueError, match="matching"):
        check_initial_data(m, f0, np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match="matching"):
        check_initial_data(m, f0[0], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="empty field"):
        check_initial_data(m, f0[:0], np.zeros((0, 2, 2)))


def test_check_initial_data_degenerate_tangent():
    # m >= 1 at rest: the tangent vanishes, so gamma is infinite -> fail
    m = ViscosityModel.zm(1)
    f0 = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
    rep = check_initial_data(m, f0, np.zeros((4, 2, 2)))
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
def test_check_initial_data_equals_batches_of_one(dim, model, resolution, rest,
                                                 monkeypatch):
    # the 3D case scans a coarse sphere grid to stay cheap; 1D and 2D never
    # read the resolution
    monkeypatch.setattr(wellposedness, '_SPHERE_RESOLUTION', resolution)
    rng = np.random.default_rng(35)
    f0 = random_deformations(dim, 6, rng)
    q0 = rng.standard_normal((6, dim, dim))
    # each cell is searched, a repeated one too, and gets its own gamma
    f0, q0 = np.concatenate([f0, f0[:2]]), np.concatenate([q0, q0[:2]])
    if rest:
        # the zm(1) tangent vanishes at Q0 = 0, so that node's gamma is inf
        q0[3] = 0.0
    single = np.array([rank_one_min(viscous_tangent_q(model, f, q)).gamma_est
                       for f, q in zip(f0, q0)])
    assert math.isinf(single[3]) == rest
    mats = np.stack([viscous_tangent_q(model, f, q).reshape((dim,) * 4)
                     for f, q in zip(f0, q0)])
    batch = _gammas(_rank_one_batch(mats)[0])
    assert np.array_equal(batch, single)
    rep = check_initial_data(model, f0, q0)
    assert rep.gamma_sup == single.max() and rep.gamma_inf == single.min()
    assert rep.worst_node == int(np.argmax(single))
    assert rep.nodes_checked == len(f0)


@pytest.mark.parametrize("model", [ViscosityModel.z0prime(), ViscosityModel.zm(1)])
def test_check_initial_data_defaults_match_rank_one_min(model, monkeypatch):
    # both searches run the same rank-one route
    rng = np.random.default_rng(35)
    f0 = random_deformations(2, 6, rng)
    q0 = rng.standard_normal((6, 2, 2))
    single = [rank_one_min(viscous_tangent_q(model, f, q)).gamma_est
              for f, q in zip(f0, q0)]
    rep = check_initial_data(model, f0, q0)
    assert rep.gamma_sup == max(single) and rep.gamma_inf == min(single)
    # the 2D minimum is exact, so the 3D search's constants do not touch it
    monkeypatch.setattr(wellposedness, '_SPHERE_RESOLUTION', 16)
    monkeypatch.setattr(wellposedness, '_REFINE_ROUNDS', 0)
    assert check_initial_data(model, f0, q0) == rep


def test_worst_node_is_the_lowest_cell_tied_with_the_supremum():
    # mirror and rotated images of one (Id, Q0) cell share their gamma up to
    # rounding; a larger Q0 in cell 0 has a smaller gamma
    model = ViscosityModel.zm(1)
    q = np.array([[0.4, -1.1], [0.7, 0.2]])
    flip = np.diag([-1.0, 1.0])
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])
    images = [q, flip @ q @ flip, turn @ q @ turn.T, q.T]
    gammas = [rank_one_min(viscous_tangent_q(model, np.eye(2), x)).gamma_est
              for x in images]
    assert max(gammas) - min(gammas) <= 1e-12 * max(gammas)
    # tied cells in ascending gamma order, so the argmax is the last of them
    q0 = np.array([3.0 * q] + [images[i] for i in np.argsort(gammas, kind='stable')])
    f0 = np.broadcast_to(np.eye(2), q0.shape).copy()
    rep = check_initial_data(model, f0, q0)
    assert rep.worst_node == 1
    assert rep.gamma_sup == max(gammas)
    assert rep.gamma_inf < rep.gamma_sup * (1.0 - WORST_NODE_RTOL)


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


@pytest.mark.parametrize("check, key", [
    (lambda: sector_scan(SYM2, 2), 'num_directions'),
    (lambda: fourier_korn_sample(SYM2, 0, 2, seed=0), 'num_fields'),
    (lambda: fourier_korn_sample(SYM2, 3, 0, seed=0), 'max_modes'),
    (lambda: fourier_korn_sample(SYM2, 3, 2, seed=-1), 'seed'),
], ids=['num_directions', 'num_fields', 'max_modes', 'seed'])
def test_knobs_are_checked_by_coercivity_config(check, key):
    # a negative seed once failed inside numpy; it is now a RangeError
    with pytest.raises(RangeError) as info:
        check()
    assert info.value.key == key
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("key", [f.name for f in fields(CoercivityConfig)][1:])
def test_coercivity_counts_must_be_integers(key):
    # a float count is rejected even when it is whole
    with pytest.raises(RangeError) as info:
        CoercivityConfig(2, **{key: 10.0})
    assert str(info.value) == f"key '{key}': must be an integer"
    assert CoercivityConfig(2, **{key: np.int64(10)})


def test_rank_one_searches_take_no_tuning_keywords():
    # the 3D search reads fixed private constants, not keywords or knobs
    f0, q0 = np.eye(2)[None], np.zeros((1, 2, 2))
    for key, value in (('angular_resolution', 360), ('refine_iters', 5)):
        with pytest.raises(TypeError):
            rank_one_min(SYM2, **{key: value})
        with pytest.raises(TypeError):
            check_initial_data(ViscosityModel.z0prime(), f0, q0, **{key: value})
    assert [f.name for f in fields(CoercivityConfig)] == [
        'dim', 'num_directions', 'num_fields', 'max_modes', 'seed']
