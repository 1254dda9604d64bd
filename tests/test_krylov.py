"""The package CG against scipy.sparse.linalg.cg, and its import guard."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from viscolab import krylov
from viscolab.constitutive import ViscosityModel, viscous_tangent_field
from viscolab.pde_solver import ViscousOperator, build_grid, gradient_field

SRC = Path(__file__).resolve().parents[1] / 'src'


def shifted_system(dim, cells, seed, alpha=100.0):
    """alpha I + L for a z0doubleprime tangent at a perturbed clamped state,
    with a random right-hand side and warm start."""
    rng = np.random.default_rng(seed)
    g = build_grid(dim, cells)
    noise = rng.standard_normal((2,) + g.node_shape + (dim,))
    noise[:, g.boundary_mask()] = 0.0
    xi = g.node_positions() + 0.2 / cells * noise[0]
    f = gradient_field(g, xi)
    q = gradient_field(g, 0.1 * noise[1])
    m = viscous_tangent_field(ViscosityModel.z0doubleprime(), f, q)
    a = ViscousOperator(g, m).interior_matrix(alpha)
    return a, rng.standard_normal(a.shape[0]), rng.standard_normal(a.shape[0])


def counted(solver, a, b, **kwargs):
    calls = []
    x, info = solver(a, b, callback=lambda xk: calls.append(xk.copy()), **kwargs)
    return x, info, calls


@pytest.mark.parametrize("dim,cells", [(1, 16), (1, 64), (2, 16), (2, 32), (3, 6)])
@pytest.mark.parametrize("start", ['cold', 'warm', 'exhausted'])
def test_cg_matches_scipy_bit_for_bit(dim, cells, start):
    a, b, x0 = shifted_system(dim, cells, seed=dim * 100 + cells)
    kwargs = dict(rtol=1e-10, maxiter=1000)
    if start != 'cold':
        kwargs['x0'] = x0
    if start == 'exhausted':
        kwargs['maxiter'] = 2
    x0_before = x0.copy()
    want, want_info, want_calls = counted(spla.cg, a, b, **kwargs)
    got, got_info, got_calls = counted(krylov.cg, a, b, **kwargs)
    assert np.array_equal(got, want)
    assert got_info == want_info == (2 if start == 'exhausted' else 0)
    assert len(got_calls) == len(want_calls) >= 2
    assert all(np.array_equal(g, w) for g, w in zip(got_calls, want_calls))
    assert np.array_equal(x0, x0_before)
    if start != 'exhausted':
        assert np.linalg.norm(b - a @ got) < 1e-9 * np.linalg.norm(b)


def test_cg_edge_cases_match_scipy():
    a, b, x0 = shifted_system(1, 16, seed=5)
    kwargs = dict(rtol=1e-10, maxiter=1000)
    # zero right-hand side: the zero solution, no iteration
    x, info, calls = counted(krylov.cg, a, np.zeros_like(b), x0=x0, **kwargs)
    assert info == 0 and not x.any() and not calls
    # a warm start that already meets the tolerance: returned as a copy
    exact = spla.spsolve(a.tocsc(), b)
    for solver in (spla.cg, krylov.cg):
        x, info, calls = counted(solver, a, b, x0=exact, rtol=1e-6,
                                 maxiter=1000)
        assert info == 0 and not calls and np.array_equal(x, exact)
        assert x is not exact


def test_package_does_not_import_scipy_sparse_linalg():
    # a fresh process, since the test session has imported scipy already.
    # The package imports scipy.sparse, which on some scipy versions loads
    # scipy.sparse.linalg itself, so the baseline is a bare scipy.sparse
    # import: the package, and lookups of names krylov does not forward,
    # must add nothing to it.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import scipy.sparse; "
            "base = 'scipy.sparse.linalg' in sys.modules; "
            "from viscolab import cli_harness, krylov, pde_solver; "
            "print(('scipy.sparse.linalg' in sys.modules) == base); "
            "print(hasattr(krylov, '__wrapped__'), hasattr(krylov, 'eigsh')); "
            "print(('scipy.sparse.linalg' in sys.modules) == base); "
            "bicgstab = pde_solver.spla.bicgstab; "
            "import scipy.sparse.linalg as spla; "
            "print(bicgstab is spla.bicgstab)")
    proc = subprocess.run([sys.executable, '-c', code, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ['True', 'False', 'False', 'True', 'True']
