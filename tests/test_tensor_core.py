import numpy as np
import pytest

from viscolab.tensor_core import (FourthOrderTensor, frob, random_rotation,
                                  skew, sym)


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


def test_random_rotation_preserves_norm():
    rng = np.random.default_rng(4)
    for i in range(20):
        r = random_rotation(3, seed=i)
        v = rng.standard_normal(3)
        assert np.linalg.norm(r @ v) == pytest.approx(np.linalg.norm(v), abs=1e-12)


def test_fourth_order_tensor_apply():
    m = FourthOrderTensor.sym_map(2)
    q = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert np.allclose(m.apply(q), sym(q))
    assert m.is_symmetric()
    ident = FourthOrderTensor.identity(3)
    assert np.allclose(ident.apply(q := np.arange(9.0).reshape(3, 3)), q)


def test_fourth_order_tensor_linearity():
    rng = np.random.default_rng(5)
    m = FourthOrderTensor(2, rng.standard_normal((4, 4)))
    q1, q2 = rng.standard_normal((2, 2, 2))
    lhs = m.apply(1.5 * q1 - 2.0 * q2)
    rhs = 1.5 * m.apply(q1) - 2.0 * m.apply(q2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_fourth_order_tensor_shape_check():
    with pytest.raises(ValueError):
        FourthOrderTensor(2, np.eye(3))
