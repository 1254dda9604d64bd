import numpy as np
import pytest
import scipy.sparse as sp

from viscolab.constitutive import (ConstitutiveModel, EnergyModel,
                                   ViscosityModel, piola_stress,
                                   viscous_tangent_field)
from viscolab.errors import (BoundaryMismatch, Interpenetration, InvalidConfig)
from viscolab.pde_solver import (ExactSolution, SolverConfig,
                                 ViscousOperator, build_grid,
                                 clamped_gradient, gradient_field,
                                 heat_extension, identity_tangent, init_state,
                                 manufactured_default, manufactured_run, run,
                                 semi_implicit_step, solve_shifted,
                                 stress_divergence, _interior_vec,
                                 _operator_pattern)
from viscolab.tensor_core import sym
from viscolab.wellposedness import rank_one_min

W0_Z0DP = ConstitutiveModel(EnergyModel.w0(), ViscosityModel.z0doubleprime())


def rest_state(grid):
    return init_state(grid, lambda x: np.array(x, copy=True),
                      lambda x: np.zeros_like(x), 1e-3)


def clamped_noise(grid, rng):
    w = rng.standard_normal(grid.node_shape + (grid.dim,))
    w[grid.boundary_mask()] = 0.0
    return w


def test_build_grid_examples():
    g = build_grid(1, 4)
    assert g.num_nodes == 5
    assert int(g.boundary_mask().sum()) == 2
    g2 = build_grid(2, 4)
    assert g2.num_nodes == 25
    assert int(g2.boundary_mask().sum()) == 16
    g3 = build_grid(3, 4)
    assert g3.num_nodes == 125
    assert int(g3.boundary_mask().sum()) == 98
    with pytest.raises(InvalidConfig):
        build_grid(2, 3)
    with pytest.raises(InvalidConfig):
        build_grid(4, 8)


def test_init_state_rest_and_bump():
    g = build_grid(2, 8)
    st = rest_state(g)
    assert np.array_equal(st.xi, g.node_positions())
    assert not st.v.any()

    def bump(x):
        out = np.array(x, copy=True)
        out[..., 0] += 0.01 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
        return out
    st = init_state(g, bump, lambda x: np.zeros_like(x), 1e-3)
    dets = np.linalg.det(gradient_field(g, st.xi))
    assert dets.min() > 0.9


def test_init_state_rejects_fold():
    g = build_grid(1, 16)

    def folded(x):
        out = np.array(x, copy=True)
        out[..., 0] += 0.6 * np.sin(2.0 * np.pi * x[..., 0])
        return out
    with pytest.raises(Interpenetration):
        init_state(g, folded, lambda x: np.zeros_like(x), 1e-3)


def test_init_state_rejects_unclamped():
    g = build_grid(1, 8)
    with pytest.raises(BoundaryMismatch):
        init_state(g, lambda x: 0.5 * x, lambda x: np.zeros_like(x), 1e-3)
    with pytest.raises(BoundaryMismatch):
        init_state(g, lambda x: np.array(x, copy=True),
                   lambda x: np.ones_like(x), 1e-3)


def test_gradient_field_affine_exact():
    for dim in (1, 2):
        g = build_grid(dim, 8)
        x = g.node_positions()
        assert np.allclose(gradient_field(g, np.array(x, copy=True)),
                           np.eye(dim), atol=1e-14)
        rng = np.random.default_rng(41)
        a = rng.standard_normal((dim, dim))
        c = rng.standard_normal(dim)
        field = np.einsum('rc,...c->...r', a, x) + c
        grad = gradient_field(g, field)
        assert np.max(np.abs(grad - a)) <= 1e-13


def test_gradient_field_polynomials_1d():
    g = build_grid(1, 32)
    x = g.node_positions()
    xc = g.cell_centers()[..., 0]
    # quadratic: the centered cell difference is exact at the midpoint
    grad = gradient_field(g, x ** 2)[..., 0, 0]
    assert np.max(np.abs(grad - 2.0 * xc)) <= 1e-13
    # cubic: consistency error is exactly h^2/4
    grad3 = gradient_field(g, x ** 3)[..., 0, 0]
    assert np.max(np.abs(grad3 - 3.0 * xc ** 2)) == pytest.approx(
        g.spacing ** 2 / 4.0, rel=1e-10)


def test_stress_divergence_constant_and_linear():
    for dim in (1, 2):
        g = build_grid(dim, 8)
        const = np.broadcast_to(np.arange(1.0, 1.0 + dim * dim).reshape(dim, dim),
                                g.cell_shape + (dim, dim))
        div = stress_divergence(g, const)
        assert np.max(np.abs(div)) <= 1e-12
    g = build_grid(1, 8)
    p_lin = g.cell_centers().reshape(-1, 1, 1)
    div = stress_divergence(g, p_lin)
    assert np.allclose(div[1:-1], 1.0)
    assert div[0] == 0.0 and div[-1] == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_summation_by_parts_adjointness(dim):
    g = build_grid(dim, 7)
    rng = np.random.default_rng(42)
    hvol = g.spacing ** dim
    for _ in range(10):
        p = rng.standard_normal(g.cell_shape + (dim, dim))
        w = clamped_noise(g, rng)
        lhs = hvol * np.sum(stress_divergence(g, p) * w)
        rhs = -hvol * np.sum(p * gradient_field(g, w))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_operator_identity_map_annihilates_linear():
    g = build_grid(2, 8)
    op = ViscousOperator(g, identity_tangent(g))
    x = np.array(g.node_positions(), copy=True)
    out = op.apply(x)
    assert np.max(np.abs(out)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_operator_assembly_matches_matrix_free(dim):
    g = build_grid(dim, 6)
    rng = np.random.default_rng(43)
    m = viscous_tangent_field(ViscosityModel.z0prime(),
                              np.broadcast_to(np.eye(dim), g.cell_shape + (dim, dim))
                              + 0.1 * rng.standard_normal(g.cell_shape + (dim, dim)),
                              rng.standard_normal(g.cell_shape + (dim, dim)))
    op = ViscousOperator(g, m)
    for _ in range(5):
        w = clamped_noise(g, rng)
        via_matrix = op.interior_matrix() @ _interior_vec(g, w)
        via_apply = _interior_vec(g, op.apply(w))
        assert np.max(np.abs(via_matrix - via_apply)) <= 1e-11


def test_operator_hand_assembled_tridiagonal():
    # 1D, tangent D_Q Z0'' at F = Id is the scalar 2: L = -2 d^2/dx^2
    g = build_grid(1, 4)
    f = np.broadcast_to(np.eye(1), g.cell_shape + (1, 1))
    m = viscous_tangent_field(ViscosityModel.z0doubleprime(), f,
                              np.zeros(g.cell_shape + (1, 1)))
    op = ViscousOperator(g, m)
    h = g.spacing
    expected = (2.0 / h ** 2) * np.array([[2.0, -1.0, 0.0],
                                          [-1.0, 2.0, -1.0],
                                          [0.0, -1.0, 2.0]])
    assert np.allclose(op.interior_matrix().toarray(), expected)


def test_operator_symmetric_positive():
    g = build_grid(2, 8)
    m = viscous_tangent_field(ViscosityModel.z0doubleprime(),
                              np.broadcast_to(np.eye(2), g.cell_shape + (2, 2)),
                              np.zeros(g.cell_shape + (2, 2)))
    a = ViscousOperator(g, m).interior_matrix().toarray()
    assert np.max(np.abs(a - a.T)) <= 1e-12
    assert np.linalg.eigvalsh(a).min() >= -1e-10


def test_operator_coercivity_on_smooth_fields():
    # discrete counterpart of the Korn-type bound; the documented tolerance
    # is c*h with c = 2 on smooth low-mode fields
    g = build_grid(2, 32)
    # the map Q -> sym(Q), whose matrix is symmetric
    m2 = sym(np.eye(4).reshape(4, 2, 2)).reshape(4, 4)
    ratio_min = rank_one_min(m2).ratio_min
    op = ViscousOperator(
        g, np.broadcast_to(m2, g.cell_shape + (4, 4)))
    x = g.node_positions()
    rng = np.random.default_rng(44)
    hvol = g.spacing ** 2
    for _ in range(10):
        w = np.zeros(g.node_shape + (2,))
        for kx in range(1, 4):
            for ky in range(1, 4):
                coef = rng.standard_normal(2)
                mode = np.sin(kx * np.pi * x[..., 0]) * np.sin(ky * np.pi * x[..., 1])
                w += coef * mode[..., None]
        w[g.boundary_mask()] = 0.0
        grad = gradient_field(g, w)
        energy_w = hvol * np.sum(_interior_vec(g, op.apply(w))
                                 * _interior_vec(g, w))
        grad_sq = hvol * np.sum(grad * grad)
        assert energy_w >= (ratio_min - 2.0 * g.spacing) * grad_sq


def test_semi_implicit_step_rest_fixed_point():
    cfg = SolverConfig(dt=1e-3, t_end=1.0)
    for dim in (1, 2):
        g = build_grid(dim, 8)
        st = rest_state(g)
        for model in (W0_Z0DP,
                      ConstitutiveModel(EnergyModel.w1(), ViscosityModel.zm(1)),
                      ConstitutiveModel(EnergyModel.w2(), ViscosityModel.z0prime())):
            st2 = semi_implicit_step(st, model, g, cfg)
            assert st2.time == pytest.approx(cfg.dt)
            assert np.max(np.abs(st2.xi - st.xi)) <= 1e-12
            assert np.max(np.abs(st2.v)) <= 1e-12


def test_semi_implicit_step_linear_model_picard_fixed_point():
    # Q-linear tangent: the first Picard iterate is already the fixed point
    g = build_grid(1, 16)
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: 0.1 * np.sin(np.pi * x), 1e-3)
    one = semi_implicit_step(st, W0_Z0DP, g,
                             SolverConfig(dt=1e-3, t_end=1.0, picard_max=1))
    many = semi_implicit_step(st, W0_Z0DP, g,
                              SolverConfig(dt=1e-3, t_end=1.0, picard_max=5))
    assert np.max(np.abs(one.v - many.v)) <= 1e-11


@pytest.mark.parametrize("viscosity, expect_one", [
    (ViscosityModel.z0doubleprime(), True), (ViscosityModel.z0prime(), True),
    (ViscosityModel.zm(0), True), (ViscosityModel.zm(1), False)])
def test_semi_implicit_step_solves_per_step(monkeypatch, viscosity, expect_one):
    # Q-linear viscosities need no confirming solve; zm(1) refreezes
    import viscolab.pde_solver as mod
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_shifted(*args, **kwargs)

    monkeypatch.setattr(mod, 'solve_shifted', counting)
    g = build_grid(1, 16)
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: 0.1 * np.sin(np.pi * x), 1e-3)
    semi_implicit_step(st, ConstitutiveModel(EnergyModel.w0(), viscosity), g,
                       SolverConfig(dt=1e-3, t_end=1.0))
    assert (len(calls) == 1) if expect_one else (len(calls) >= 2)


def test_semi_implicit_step_dense_oracle():
    # one step on 5 nodes vs an independently assembled dense solve
    g = build_grid(1, 4)
    dt = 1e-3
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: np.sin(np.pi * x), 1e-3)
    stepped = semi_implicit_step(st, W0_Z0DP, g, SolverConfig(dt=dt, t_end=1.0))

    f = gradient_field(g, st.xi)
    m = viscous_tangent_field(W0_Z0DP.viscosity, f, gradient_field(g, st.v))
    a = ViscousOperator(g, m).interior_matrix().toarray()
    a += np.eye(a.shape[0]) / dt
    rhs = _interior_vec(g, st.v / dt
                        + stress_divergence(g, piola_stress(W0_Z0DP.energy, f)))
    v_expected = np.linalg.solve(a, rhs)
    assert np.max(np.abs(_interior_vec(g, stepped.v) - v_expected)) <= 1e-10


def triple_product(grid, m_cells):
    # the operator as the sparse product G_I^T blockdiag(M) G_I
    _, g_i, g_it, _ = clamped_gradient(grid.dim, grid.cells)
    k = grid.dim ** 2
    rows = g_i.shape[0]
    cols = np.arange(rows).reshape(-1, 1, k).repeat(k, axis=1)
    blocks = sp.csr_matrix((m_cells.reshape(-1), cols.reshape(-1),
                            np.arange(0, rows * k + 1, k)), shape=(rows, rows))
    a = (g_it @ blocks @ g_i).tocsr()
    a.sort_indices()
    return a


@pytest.mark.parametrize("dim,cells", [(1, 4), (1, 512), (2, 4), (2, 40),
                                       (3, 4), (3, 10)])
def test_interior_matrix_matches_triple_product(dim, cells):
    # a non-symmetric tangent, so a scatter that swaps (a, b) shows; 2D 40^2
    # spans several scatter blocks
    g = build_grid(dim, cells)
    k = dim * dim
    m = np.random.default_rng(48).standard_normal(g.cell_shape + (k, k))
    a = ViscousOperator(g, m).interior_matrix().sorted_indices()
    oracle = triple_product(g, m)
    assert np.array_equal(a.indptr, oracle.indptr)
    assert np.array_equal(a.indices, oracle.indices)
    if dim == 1:
        assert np.array_equal(a.data, oracle.data)
    else:
        err = np.max(np.abs(a.data - oracle.data))
        assert err <= 1e-15 * np.max(np.abs(oracle.data))


@pytest.mark.parametrize("dim,cells", [(1, 6), (2, 40), (3, 6)])
def test_interior_matrix_row_order(dim, cells):
    # CG sums each row of a product in stored order; the diagonal first and
    # then strictly descending columns keep 1D runs bit-reproducible
    g = build_grid(dim, cells)
    k = dim * dim
    m = np.random.default_rng(48).standard_normal(g.cell_shape + (k, k))
    a = ViscousOperator(g, m).interior_matrix()
    for row in range(a.shape[0]):
        cols = a.indices[a.indptr[row]:a.indptr[row + 1]]
        assert cols[0] == row
        assert np.all(np.diff(cols[1:]) < 0)


@pytest.mark.parametrize("dim,cells", [(1, 6), (2, 6), (3, 4)])
def test_interior_matrix_shift_adds_at_diagonal(dim, cells):
    # the shift is added after every block, so the rest of the matrix is
    # bit for bit the unshifted one
    g = build_grid(dim, cells)
    k = dim * dim
    m = np.random.default_rng(50).standard_normal(g.cell_shape + (k, k))
    op = ViscousOperator(g, m)
    plain, shifted = op.interior_matrix(), op.interior_matrix(37.5)
    diag = _operator_pattern(dim, cells).diag
    expected = plain.data.copy()
    expected[diag] += 37.5
    assert np.array_equal(shifted.indptr, plain.indptr)
    assert np.array_equal(shifted.indices, plain.indices)
    assert np.array_equal(shifted.data, expected)


def test_interior_matrix_pattern_is_shared_read_only_and_unsorted():
    # every assembly reuses the grid's pattern; reordering needs a copy
    g = build_grid(2, 6)
    op = ViscousOperator(g, identity_tangent(g))
    a, b = op.interior_matrix(2.0), op.interior_matrix()
    assert not a.indices.flags.writeable
    assert np.shares_memory(a.indices, b.indices)
    assert not a.has_sorted_indices
    c = a.copy()
    c.sort_indices()
    assert c.has_sorted_indices
    assert np.array_equal(c.toarray(), a.toarray())


def test_cached_grid_arrays_read_only():
    g, g_i, g_it, dofs = clamped_gradient(2, 6)
    pat = _operator_pattern(2, 6)
    arrays = [g.data, g.indices, g.indptr, g_i.data, g_i.indices, g_i.indptr,
              g_it.data, g_it.indices, g_it.indptr, dofs, pat.d, pat.indices,
              pat.indptr] + [slots for *_, slots in pat.blocks]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.reshape(-1)[0] = 0


def test_solve_shifted_leaves_operator_unchanged():
    g = build_grid(2, 8)
    m = viscous_tangent_field(ViscosityModel.z0doubleprime(),
                              np.broadcast_to(np.eye(2), g.cell_shape + (2, 2)),
                              np.zeros(g.cell_shape + (2, 2)))
    rhs = clamped_noise(g, np.random.default_rng(49))
    op = ViscousOperator(g, m)
    before = op.interior_matrix().data.copy()
    solve_shifted(op, 5.0, rhs, 1e-10)
    second = solve_shifted(op, 7.0, rhs, 1e-10)
    assert np.array_equal(op.interior_matrix().data, before)
    assert np.array_equal(second,
                          solve_shifted(ViscousOperator(g, m), 7.0, rhs, 1e-10))


def test_solve_shifted_builds_one_csr(monkeypatch):
    # the shift goes into the one assembled matrix; no second CSR is built
    import viscolab.pde_solver as mod
    built = []

    class CountingSparse:
        def __getattr__(self, name):
            return getattr(sp, name)

        @staticmethod
        def csr_matrix(*args, **kwargs):
            built.append(args)
            return sp.csr_matrix(*args, **kwargs)

    g = build_grid(2, 8)
    rhs = clamped_noise(g, np.random.default_rng(51))
    expected = solve_shifted(ViscousOperator(g, identity_tangent(g)), 5.0,
                             rhs, 1e-10)
    monkeypatch.setattr(mod, 'sp', CountingSparse())
    op = ViscousOperator(g, identity_tangent(g))
    assert np.array_equal(solve_shifted(op, 5.0, rhs, 1e-10), expected)
    assert len(built) == 1


def test_solve_shifted_zero_rhs_fast_path():
    g = build_grid(1, 8)
    op = ViscousOperator(g, identity_tangent(g))
    out = solve_shifted(op, 10.0, np.zeros(g.node_shape + (1,)), 1e-10)
    assert not out.any()


def test_run_rest_trajectory():
    g = build_grid(1, 16)
    traj = run(W0_Z0DP, g, SolverConfig(dt=1e-2, t_end=0.2), rest_state(g))
    assert traj.termination.kind == 'completed'
    assert len(traj.states) == 21
    for st in traj.states:
        assert np.array_equal(st.xi, traj.states[0].xi)
        assert not st.v.any()


def test_run_decay_completes():
    g = build_grid(1, 32)
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: 0.1 * np.sin(np.pi * x), 1e-3)
    traj = run(W0_Z0DP, g, SolverConfig(dt=1e-3, t_end=0.2), st)
    assert traj.termination.kind == 'completed'
    # velocity decays
    assert np.max(np.abs(traj.states[-1].v)) < 0.5 * np.max(np.abs(traj.states[0].v))


def test_run_detects_breakdown():
    g = build_grid(1, 32)
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: -10.0 * np.sin(np.pi * x), 1e-3)
    traj = run(W0_Z0DP, g, SolverConfig(dt=1e-3, t_end=1.0), st)
    assert traj.termination.kind == 'det_floor_hit'
    assert traj.termination.time == traj.states[-1].time
    last_det = np.linalg.det(gradient_field(g, traj.states[-1].xi)).min()
    assert last_det <= 1e-3


def test_solver_config_rejects_partial_last_step():
    with pytest.raises(InvalidConfig):
        SolverConfig(dt=3e-3, t_end=1e-2)
    with pytest.raises(InvalidConfig):
        SolverConfig(dt=1e-3, t_end=5e-4)
    # decimal roundoff in t_end / dt is not a partial step
    g = build_grid(1, 8)
    traj = run(W0_Z0DP, g, SolverConfig(dt=0.1, t_end=0.3), rest_state(g))
    assert len(traj.states) == 4


@pytest.mark.parametrize("key", ["picard_tol", "linear_tol"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_solver_config_rejects_nonpositive_tolerances(key, value):
    # linear_tol 0 would run CG to its cap; picard_tol < 0 would spend
    # picard_max solves on every step
    with pytest.raises(InvalidConfig, match=key):
        SolverConfig(dt=1e-3, t_end=1e-2, **{key: value})


def test_run_nonlinear_model_with_fd_stress():
    # exercises the closed-form w1 stress and the genuinely
    # nonlinear viscous tangent (Picard refreezing does real work here)
    g = build_grid(1, 16)
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: 0.2 * np.sin(np.pi * x), 1e-3)
    model = ConstitutiveModel(EnergyModel.w1(), ViscosityModel.zm(1))
    traj = run(model, g, SolverConfig(dt=2e-3, t_end=0.1, picard_max=8), st)
    assert traj.termination.kind == 'completed'
    assert all(np.all(np.isfinite(s.xi)) for s in traj.states)
    # cubic-in-Q dissipation is weak at small velocity but must still damp
    assert np.max(np.abs(traj.states[-1].v)) <= np.max(np.abs(st.v))


def test_run_records_picard_divergence(monkeypatch):
    # an exploding stress correction must surface as a termination tag
    import viscolab.pde_solver as mod
    true_stress = mod.viscous_stress
    calls = {'n': 0}

    def explosive(model, f, q):
        calls['n'] += 1
        return true_stress(model, f, q) * (10.0 ** calls['n'])

    monkeypatch.setattr(mod, 'viscous_stress', explosive)
    g = build_grid(1, 16)
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: 0.1 * np.sin(np.pi * x), 1e-3)
    model = ConstitutiveModel(EnergyModel.w0(), ViscosityModel.zm(1))
    traj = run(model, g, SolverConfig(dt=1e-2, t_end=0.1, picard_max=8), st)
    assert traj.termination.kind == 'picard_divergence'


def test_run_records_linear_solver_failure(monkeypatch):
    import viscolab.pde_solver as mod
    from viscolab.errors import LinearSolveFailure

    def failing(*args, **kwargs):
        raise LinearSolveFailure("stub")

    monkeypatch.setattr(mod, 'solve_shifted', failing)
    g = build_grid(1, 16)
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: 0.1 * np.sin(np.pi * x), 1e-3)
    traj = run(W0_Z0DP, g, SolverConfig(dt=1e-2, t_end=0.1), st)
    assert traj.termination.kind == 'linear_solver_failure'


def test_solve_shifted_raises_when_cg_fails(monkeypatch):
    # a CG solve that misses its tolerance is an error, never replaced by
    # another solver
    import viscolab.pde_solver as mod
    from viscolab.errors import LinearSolveFailure

    class FailingKrylov:
        @staticmethod
        def cg(a, b, **kwargs):
            return np.zeros_like(b), 1

    monkeypatch.setattr(mod, 'spla', FailingKrylov())
    g = build_grid(1, 16)
    op = ViscousOperator(g, identity_tangent(g))
    rhs = clamped_noise(g, np.random.default_rng(47))
    with pytest.raises(LinearSolveFailure):
        solve_shifted(op, 100.0, rhs, 1e-10)
    x = g.node_positions()
    with pytest.raises(LinearSolveFailure):
        heat_extension(g, np.array(x, copy=True), rhs, 1e-2, 0.1)
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: 0.1 * np.sin(np.pi * x), 1e-3)
    traj = run(W0_Z0DP, g, SolverConfig(dt=1e-2, t_end=0.1), st)
    assert traj.termination.kind == 'linear_solver_failure'


def test_clamping_preserved_bitwise():
    g = build_grid(2, 8)
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: 0.05 * np.sin(np.pi * x[..., :1])
                    * np.sin(np.pi * x[..., 1:]) * np.ones_like(x), 1e-3)
    traj = run(W0_Z0DP, g, SolverConfig(dt=1e-3, t_end=0.02), st)
    bmask = g.boundary_mask()
    x = g.node_positions()
    for s in traj.states:
        assert np.array_equal(s.xi[bmask], x[bmask])
        assert not s.v[bmask].any()


def test_heat_extension_constant_for_zero_velocity():
    g = build_grid(1, 16)
    x = g.node_positions()
    ext = heat_extension(g, np.array(x, copy=True), np.zeros_like(x), 1e-2, 0.1)
    for st in ext.states:
        assert np.array_equal(st.xi, x)
        assert not st.v.any()


def test_heat_extension_eigenmode_decay():
    g = build_grid(1, 64)
    x = g.node_positions()
    ext = heat_extension(g, np.array(x, copy=True), np.sin(np.pi * x), 1e-4, 0.1)
    peak = np.max(np.abs(ext.states[-1].v))
    assert peak == pytest.approx(np.exp(-np.pi ** 2 * 0.1), abs=5e-3)
    # boundary deformation frozen in time
    bmask = g.boundary_mask()
    for st in ext.states:
        assert np.array_equal(st.xi[bmask], x[bmask])


@pytest.mark.parametrize("dim,cells", [(1, 16), (2, 8)])
def test_heat_extension_matches_dense_implicit_euler(dim, cells):
    # oracle: a direct solve of (I/dt + L) v_new = v/dt on the interior dofs,
    # trapezoidal deformation
    g = build_grid(dim, cells)
    dt, t_end = 1e-2, 0.1
    x = g.node_positions()
    v0 = np.sin(np.pi * x) * np.prod(np.sin(np.pi * x), axis=-1, keepdims=True)
    v0[g.boundary_mask()] = 0.0
    ext = heat_extension(g, np.array(x, copy=True), v0, dt, t_end)
    lap = ViscousOperator(g, identity_tangent(g)).interior_matrix().toarray()
    a = np.eye(lap.shape[0]) / dt + lap
    dofs = clamped_gradient(dim, cells)[3]
    v, xi = v0.reshape(-1), np.array(x, copy=True).reshape(-1)
    for st in ext.states[1:]:
        v_new = np.zeros_like(v)
        v_new[dofs] = np.linalg.solve(a, v[dofs] / dt)
        xi = xi + 0.5 * dt * (v + v_new)
        v = v_new
        assert np.linalg.norm(st.v.reshape(-1) - v) <= 1e-9 * np.linalg.norm(v)
        assert np.max(np.abs(st.xi.reshape(-1) - xi)) <= 1e-12
    assert len(ext.states) == 11


def test_heat_extension_requires_clamped_velocity():
    g = build_grid(1, 8)
    x = g.node_positions()
    with pytest.raises(BoundaryMismatch):
        heat_extension(g, np.array(x, copy=True), np.ones_like(x), 1e-2, 0.1)


def test_heat_extension_rejects_partial_last_step():
    g = build_grid(1, 8)
    x = g.node_positions()
    with pytest.raises(InvalidConfig):
        heat_extension(g, np.array(x, copy=True), np.zeros_like(x), 0.003, 0.01)
    # dt and save_every are checked as in SolverConfig, not divided by
    with pytest.raises(InvalidConfig, match="positive"):
        heat_extension(g, np.array(x, copy=True), np.zeros_like(x), 0.0, 0.01)
    with pytest.raises(InvalidConfig, match="save_every"):
        heat_extension(g, np.array(x, copy=True), np.zeros_like(x), 0.002, 0.01,
                       save_every=0)
    ext = heat_extension(g, np.array(x, copy=True), np.zeros_like(x), 0.002, 0.01)
    assert ext.states[-1].time == pytest.approx(0.01)


def test_manufactured_rest_exact():
    g = build_grid(1, 16)
    exact = ExactSolution(
        dim=1,
        xi=lambda t, x: np.array(x, copy=True),
        xi_t=lambda t, x: np.zeros_like(x),
        xi_tt=lambda t, x: np.zeros_like(x),
        grad_xi=lambda t, x: np.broadcast_to(np.eye(1), x.shape[:-1] + (1, 1)),
        grad_xi_t=lambda t, x: np.zeros(x.shape[:-1] + (1, 1)))
    res = manufactured_run(W0_Z0DP, g, SolverConfig(dt=1e-2, t_end=0.1), exact)
    assert res.l2 <= 1e-12 and res.linf <= 1e-12


def test_manufactured_default_clamped_and_admissible():
    for dim in (1, 2, 3):
        exact = manufactured_default(dim, amplitude=0.05)
        g = build_grid(dim, 8)
        x = g.node_positions()
        bmask = g.boundary_mask()
        assert np.max(np.abs(exact.xi(0.3, x)[bmask] - x[bmask])) <= 1e-15
        assert np.max(np.abs(exact.xi_t(0.3, x)[bmask])) <= 1e-15
        dets = np.linalg.det(exact.grad_xi(0.0, g.cell_centers()))
        assert dets.min() > 0.5
        # the gradients are those of xi and xi_t: central differences,
        # column c along axis c
        c = g.cell_centers()
        eps = 1e-6
        for field, grad in ((exact.xi, exact.grad_xi),
                            (exact.xi_t, exact.grad_xi_t)):
            fd = np.stack([(field(0.3, c + eps * e) - field(0.3, c - eps * e))
                           / (2.0 * eps) for e in np.eye(dim)], axis=-1)
            assert np.max(np.abs(grad(0.3, c) - fd)) <= 1e-8


def test_affine_equilibrium_interior_residual():
    # constant-stress configurations produce zero interior force
    g = build_grid(2, 8)
    a = np.array([[1.2, 0.1], [0.0, 0.9]])
    field = np.einsum('rc,...c->...r', a, g.node_positions())
    grad = gradient_field(g, field)
    assert np.max(np.abs(grad - a)) <= 1e-13
    stress = piola_stress(EnergyModel.w0(), grad)
    assert np.max(np.abs(stress_divergence(g, stress))) <= 1e-12
