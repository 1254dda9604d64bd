import numpy as np
import pytest

from viscolab.constitutive import (EnergyModel, ViscosityModel, energy,
                                   piola_stress, random_deformations,
                                   viscous_stress)
from viscolab.errors import DomainError, SingularMatrix
from viscolab.tensor_core import (EPS_SINGULAR, _det, _inv, _polar_rotation,
                                  _singular_values, frob, random_rotation,
                                  rotation_sample, skew, sym)

EPS = np.finfo(float).eps


def test_sym_examples():
    assert np.allclose(sym([[0.0, 2.0], [0.0, 0.0]]), [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(sym(np.eye(2)), np.eye(2))


def test_sym_skew_reconstruct():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        assert np.max(np.abs(sym(a) + skew(a) - a)) <= 1e-15
        assert np.max(np.abs(sym(sym(a)) - sym(a))) <= 1e-15


def test_frob_examples():
    assert frob(np.eye(2), np.eye(2)) == pytest.approx(2.0)
    assert frob([[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]) == 0.0


def test_frob_symmetry_and_cauchy_schwarz():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        assert frob(a, b) == pytest.approx(frob(b, a), abs=1e-12)
        assert abs(frob(a, b)) <= np.sqrt(frob(a, a) * frob(b, b)) + 1e-12


def test_frob_dimension_mismatch():
    with pytest.raises(ValueError):
        frob(np.eye(2), np.eye(3))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_rotation_orthogonality(dim):
    r = random_rotation(dim, seed=0)
    assert np.max(np.abs(r.T @ r - np.eye(dim))) <= 1e-12
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_random_rotation_dim1_and_determinism():
    assert np.array_equal(random_rotation(1, seed=5), [[1.0]])
    assert np.array_equal(random_rotation(3, seed=7), random_rotation(3, seed=7))
    assert not np.array_equal(random_rotation(2, seed=7), random_rotation(2, seed=8))


def test_rotation_sample_rejects_dim_4():
    with pytest.raises(ValueError, match="dim must be 1, 2 or 3"):
        rotation_sample(4, np.random.default_rng(0), 3)


def test_random_rotation_preserves_norm():
    rng = np.random.default_rng(4)
    for i in range(20):
        r = random_rotation(3, seed=i)
        v = rng.standard_normal(3)
        assert np.linalg.norm(r @ v) == pytest.approx(np.linalg.norm(v), abs=1e-12)


# The closed-form kernels against their np.linalg oracles.  The ulp bounds
# are about twice the largest error seen on 1e5 samples with numpy's
# OpenBLAS LAPACK, since the oracle's own rounding is part of the error.

def _batches_2d():
    rng = np.random.default_rng(29)
    # singular values in [0.5, 2), and a strain of 1e-8 from the identity
    yield 'random', random_deformations(2, 4096, rng)
    yield 'strain', np.eye(2) + 1e-8 * rng.standard_normal((4096, 2, 2))


def test_det_2d_within_4_ulps_of_lapack():
    for label, f in _batches_2d():
        scale = (np.abs(f[:, 0, 0] * f[:, 1, 1])
                 + np.abs(f[:, 0, 1] * f[:, 1, 0]))
        err = np.abs(_det(f) - np.linalg.det(f)) / scale
        assert np.max(err) <= 4 * EPS, label


def test_inv_2d_within_6_ulps_of_lapack():
    for label, f in _batches_2d():
        oracle = np.linalg.inv(f)
        g = _inv(f, _det(f))
        assert g.flags.c_contiguous
        err = (np.max(np.abs(g - oracle), axis=(1, 2))
               / np.max(np.abs(oracle), axis=(1, 2)))
        assert np.max(err) <= 6 * EPS, label


def test_polar_rotation_2d_within_8_ulps_of_svd():
    for label, f in _batches_2d():
        u, _, vt = np.linalg.svd(f)
        assert np.max(np.abs(_polar_rotation(f) - u @ vt)) <= 8 * EPS, label


def test_singular_values_2d_within_8_ulps_of_svd():
    for label, f in _batches_2d():
        oracle = np.linalg.svd(f, compute_uv=False)
        err = np.abs(_singular_values(f) - oracle) / oracle[:, :1]
        assert np.max(err) <= 8 * EPS, label


def test_kernels_2d_single_matrix():
    f = np.array([[2.0, 1.0], [0.5, 3.0]])
    assert _det(f) == 5.5
    assert np.allclose(_inv(f, _det(f)), np.linalg.inv(f), rtol=0, atol=1e-15)
    theta = 0.3
    r = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    stretched = r @ np.diag([3.0, 0.5])
    assert np.allclose(_polar_rotation(stretched), r, rtol=0, atol=1e-15)
    assert np.allclose(_singular_values(stretched), [3.0, 0.5], rtol=0,
                       atol=1e-15)


def test_kernels_1d_match_lapack_bit_for_bit():
    rng = np.random.default_rng(30)
    f = rng.uniform(0.1, 3.0, (4096, 1, 1))
    u, _, vt = np.linalg.svd(f)
    assert np.array_equal(_inv(f, _det(f)), np.linalg.inv(f))
    assert np.array_equal(_singular_values(f),
                          np.linalg.svd(f, compute_uv=False))
    assert np.array_equal(_polar_rotation(f), u @ vt)
    # the determinant is the entry itself; np.linalg.det goes through
    # exp(log|a|) and misses it by an ulp for some entries
    assert np.array_equal(_det(f), f[:, 0, 0])
    assert np.max(np.abs(np.linalg.det(f) - f[:, 0, 0]) / f[:, 0, 0]) <= 2 * EPS


def test_kernels_3d_delegate_to_lapack():
    rng = np.random.default_rng(31)
    f = random_deformations(3, 256, rng)
    u, _, vt = np.linalg.svd(f)
    assert np.array_equal(_det(f), np.linalg.det(f))
    assert np.array_equal(_inv(f, _det(f)), np.linalg.inv(f))
    assert np.array_equal(_polar_rotation(f), u @ vt)
    assert np.array_equal(_singular_values(f),
                          np.linalg.svd(f, compute_uv=False))


@pytest.mark.parametrize("model", [EnergyModel.w1(), EnergyModel.w2()])
def test_energy_near_rest_is_nonnegative_and_accurate(model):
    # |F|^2 - 2 sqrt(|F|^2 + 2 |det F|) + 2 would cancel to noise here
    rng = np.random.default_rng(32)
    f = np.eye(2) + 1e-8 * rng.standard_normal((4096, 2, 2))
    w = energy(model, f)
    assert np.all(w >= 0.0)
    s = np.linalg.svd(f, compute_uv=False)
    d = np.linalg.det(f)
    pen = (np.abs(np.log(d)) if model.kind == 'w1' else np.abs(1.0 / d - 1.0)) ** 2
    oracle = np.sum((s - 1.0) ** 2, axis=-1) + pen
    assert np.max(np.abs(w - oracle) / oracle) <= 1e-5
    assert energy(model, np.eye(2)) == 0.0


# the error paths; pytest turns any RuntimeWarning into a failure
_NON_POSITIVE_DET = {
    'reflection': np.array([[1.0, 0.0], [0.0, -1.0]]),
    'rank-one': np.array([[1.0, 2.0], [2.0, 4.0]]),
    'zero': np.zeros((2, 2)),
    '1d-negative': np.array([[-1.0]]),
    '1d-zero': np.array([[0.0]]),
}


@pytest.mark.parametrize("name", sorted(_NON_POSITIVE_DET))
@pytest.mark.parametrize("model", [EnergyModel.w1(), EnergyModel.w2()])
def test_non_positive_det_is_infinite_energy_and_domain_error(model, name):
    f = _NON_POSITIVE_DET[name]
    assert _det(f) <= 0.0
    assert energy(model, f) == np.inf
    with pytest.raises(DomainError):
        piola_stress(model, f)
    batch = np.stack([np.eye(f.shape[0]), f])
    assert np.array_equal(energy(model, batch), [0.0, np.inf])
    with pytest.raises(DomainError):
        piola_stress(model, batch)


@pytest.mark.parametrize("model", [ViscosityModel.zm(1), ViscosityModel.z0prime()])
def test_singular_matrix_at_eps_singular(model):
    q = np.ones((2, 2))
    with pytest.raises(SingularMatrix):
        viscous_stress(model, np.diag([EPS_SINGULAR, 1.0]), q)
    with pytest.raises(SingularMatrix):
        viscous_stress(model, np.zeros((2, 2)), q)
    with pytest.raises(SingularMatrix):
        viscous_stress(model, np.array([[-EPS_SINGULAR]]), np.ones((1, 1)))
    assert np.all(np.isfinite(viscous_stress(model, np.diag([2 * EPS_SINGULAR, 1.0]), q)))
