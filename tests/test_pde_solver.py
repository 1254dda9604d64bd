import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from viscolab import krylov
from viscolab.constitutive import (ConstitutiveModel, EnergyModel,
                                   ViscosityModel, dissipation_density,
                                   piola_stress,
                                   viscous_response, viscous_stress,
                                   viscous_tangent_field)
from viscolab.errors import (BoundaryMismatch, Interpenetration, InvalidConfig,
                             RangeError)
from viscolab.pde_solver import (FieldState, SolverConfig,
                                 ViscousOperator, build_grid,
                                 gradient_field,
                                 heat_extension, identity_tangent, init_state,
                                 manufactured_default, manufactured_forcing,
                                 manufactured_run, run,
                                 semi_implicit_step, solve_shifted,
                                 stress_divergence, _cell_table,
                                 _interior_vec, _operator_pattern)
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


def test_build_grid_keys_must_be_integers():
    # cells = 6.0 once passed and failed on first use; dim = 2.0 passed
    for args, key in (((1, 6.0), 'cells'), ((2.0, 8), 'dim'), ((1.5, 8), 'dim')):
        with pytest.raises(RangeError) as info:
            build_grid(*args)
        assert str(info.value) == f"key '{key}': must be an integer"
    assert build_grid(np.int64(2), np.int64(8)).num_nodes == 81


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


def test_init_state_rejects_non_finite_fields():
    g = build_grid(1, 8)

    def with_nan(x):
        out = np.array(x, copy=True)
        out[3] = np.nan
        return out
    with pytest.raises(InvalidConfig, match="non-finite"):
        init_state(g, with_nan, lambda x: np.zeros_like(x), 1e-3)
    with pytest.raises(InvalidConfig, match="non-finite"):
        init_state(g, lambda x: np.array(x, copy=True), with_nan, 1e-3)


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
    a = ViscousOperator(
        g, np.broadcast_to(m2, g.cell_shape + (4, 4))).interior_matrix()
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
        wi = _interior_vec(g, w)
        energy_w = hvol * (wi @ (a @ wi))
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
    # Q-linear viscosities need no confirming solve; zm(1) refreezes.  For
    # degree p > 1 the step builds one viscous_response per step and calls
    # it once per solve for the stress and tangent together; for p = 1 it
    # builds none.  No degree evaluates viscous_stress per iterate (the
    # ledger's dissipation_density calls constitutive.viscous_stress, which
    # is not counted here).  For p > 1 the whole step, ledger included,
    # inverts F once
    import viscolab.constitutive as constitutive
    import viscolab.pde_solver as mod
    calls = []
    builds = []
    responses = []
    stresses = []
    inversions = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_shifted(*args, **kwargs)

    def counting_response(*args, **kwargs):
        builds.append(1)
        respond = viscous_response(*args, **kwargs)

        def counted(q):
            responses.append(1)
            return respond(q)

        counted.dissipation = respond.dissipation
        return counted

    def counting_stress(*args, **kwargs):
        stresses.append(1)
        return viscous_stress(*args, **kwargs)

    monkeypatch.setattr(mod, 'solve_shifted', counting)
    monkeypatch.setattr(mod, 'viscous_response', counting_response)
    monkeypatch.setattr(mod, 'viscous_stress', counting_stress)
    inverse = constitutive._inv_transpose
    monkeypatch.setattr(constitutive, '_inv_transpose',
                        lambda f: inversions.append(1) or inverse(f))
    g = build_grid(1, 16)
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: 0.1 * np.sin(np.pi * x), 1e-3)
    semi_implicit_step(st, ConstitutiveModel(EnergyModel.w0(), viscosity), g,
                       SolverConfig(dt=1e-3, t_end=1.0))
    assert (len(calls) == 1) if expect_one else (len(calls) >= 2)
    assert len(builds) == (0 if expect_one else 1)
    assert len(responses) == (0 if expect_one else len(calls))
    assert not stresses
    if not expect_one:
        assert len(inversions) == 1


@pytest.mark.parametrize("dim", [1, 2])
def test_ledger_matches_dissipation_density(dim):
    # the ledger of an unforced step is dissipation_density's, bit for bit,
    # whether its Z comes from the step's viscous_response (p > 1) or not
    g = build_grid(dim, 8)
    dt = 1e-3
    rng = np.random.default_rng(53)
    st = FieldState(0.0, g.node_positions() + 0.02 * clamped_noise(g, rng),
                    0.5 * clamped_noise(g, rng), 0.25)
    for viscosity in (ViscosityModel.z0prime(), ViscosityModel.zm(1),
                      ViscosityModel.zm(2)):
        model = ConstitutiveModel(EnergyModel.w0(), viscosity)
        new = semi_implicit_step(st, model, g, SolverConfig(dt=dt, t_end=1.0))
        dv = new.v - st.v
        rate = dissipation_density(viscosity, gradient_field(g, st.xi),
                                   gradient_field(g, new.v))
        expected = st.dissipated + g.spacing ** dim * (
            dt * float(np.sum(rate)) + 0.5 * float(np.sum(dv * dv)))
        assert new.dissipated == expected


def test_semi_implicit_step_dense_oracle():
    # one Newton solve on 5 nodes vs an independently assembled dense solve
    # whose right-hand side carries the correction Z(F, Q) - M Q in full
    g = build_grid(1, 4)
    dt = 1e-3
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: np.sin(np.pi * x), 1e-3)
    f = gradient_field(g, st.xi)
    q = gradient_field(g, st.v)
    for viscosity in (ViscosityModel.z0doubleprime(), ViscosityModel.z0prime(),
                      ViscosityModel.zm(1), ViscosityModel.zm(2)):
        model = ConstitutiveModel(EnergyModel.w0(), viscosity)
        stepped = semi_implicit_step(
            st, model, g, SolverConfig(dt=dt, t_end=1.0, picard_max=1))

        m = viscous_tangent_field(viscosity, f, q)
        a = ViscousOperator(g, m).interior_matrix().toarray()
        a += np.eye(a.shape[0]) / dt
        mq = np.einsum('...ab,...b->...a', m, q.reshape(q.shape[:-2] + (-1,)))
        corr = viscous_stress(viscosity, f, q) - mq.reshape(q.shape)
        rhs = _interior_vec(g, st.v / dt
                            + stress_divergence(g, piola_stress(model.energy, f))
                            + stress_divergence(g, corr))
        v_expected = np.linalg.solve(a, rhs)
        assert np.max(np.abs(_interior_vec(g, stepped.v) - v_expected)) <= 1e-10


@pytest.mark.parametrize("viscosity", [ViscosityModel.zm(1), ViscosityModel.zm(2)])
@pytest.mark.parametrize("dim,cells", [(1, 16), (2, 8)])
def test_semi_implicit_step_solves_its_residual(viscosity, dim, cells):
    # a converged zm step solves (v - v^n)/dt - div DW(F) - div Z(F, G v) = 0
    # on the interior.  CG stops at 1e-10 relative to the right-hand side
    # and Newton at a 1e-10 increment, so the scaled residual sits near
    # 1e-10 (measured <= 6.4e-10); 1e-8 leaves room for rounding only
    g = build_grid(dim, cells)
    dt = 1e-2
    model = ConstitutiveModel(EnergyModel.w0(), viscosity)

    def bump(x):
        return np.prod(np.sin(np.pi * x), axis=-1)

    def xi0(x):
        out = np.array(x, copy=True)
        out[..., 0] += 0.05 * bump(x)
        return out

    st = init_state(g, xi0, lambda x: 0.5 * bump(x)[..., None] * np.ones(dim),
                    1e-3)
    new = semi_implicit_step(st, model, g,
                             SolverConfig(dt=dt, t_end=1.0, picard_max=20))
    f = gradient_field(g, st.xi)
    div_z = stress_divergence(
        g, viscous_stress(viscosity, f, gradient_field(g, new.v)))
    acc = (new.v - st.v) / dt
    res = acc - stress_divergence(g, piola_stress(model.energy, f)) - div_z
    scale = np.max(np.abs(div_z)) + np.max(np.abs(acc))
    assert np.max(np.abs(_interior_vec(g, res))) <= 1e-8 * scale


def kronecker_gradient(dim, cells):
    # oracle: G along axis c is the Kronecker product of the 1D difference
    # on axis c with the 1D midpoint average on every other axis, embedded
    # as row (r, c) on component r
    lo = sp.eye(cells, cells + 1, format='csr')
    hi = sp.eye(cells, cells + 1, k=1, format='csr')
    diff, avg = (hi - lo) * cells, 0.5 * (lo + hi)
    eye_r = np.arange(dim)
    g = 0
    for c in range(dim):
        scalar = diff if c == 0 else avg
        for a in range(1, dim):
            scalar = sp.kron(scalar, diff if a == c else avg, format='csr')
        embed = sp.csr_matrix((np.ones(dim), (eye_r * dim + c, eye_r)),
                              shape=(dim * dim, dim))
        g = g + sp.kron(scalar, embed, format='csr')
    interior = np.nonzero(~build_grid(dim, cells).boundary_mask().reshape(-1))[0]
    g_i = g[:, (interior[:, None] * dim + eye_r).reshape(-1)].tocsr()
    return g, g_i, g_i.T.tocsr()


@pytest.mark.parametrize("dim,cells", [(1, 4), (1, 512), (2, 4), (2, 40),
                                       (3, 4), (3, 10)])
def test_cell_table_gradient_matches_kronecker_build(dim, cells):
    # gradient_field is G u and stress_divergence is -G_I^T P on the interior
    # dofs: bit for bit in 1D; elsewhere BLAS may block the gather's product
    # differently, and each cell's terms are summed before the sum over cells
    grid = build_grid(dim, cells)
    g, _, g_it = kronecker_gradient(dim, cells)
    rng = np.random.default_rng(47)
    u = rng.standard_normal(grid.node_shape + (dim,))
    p = rng.standard_normal(grid.cell_shape + (dim, dim))
    div = np.zeros(grid.num_nodes * dim)
    div[_cell_table(dim, cells)[3]] = -(g_it @ p.reshape(-1))
    for built, oracle in ((gradient_field(grid, u), g @ u.reshape(-1)),
                          (stress_divergence(grid, p), div)):
        built = built.reshape(-1)
        if dim == 1:
            assert np.array_equal(built, oracle)
        else:
            err = np.max(np.abs(built - oracle))
            assert err <= 1e-15 * np.max(np.abs(oracle))


def triple_product(grid, m_cells):
    # the operator as the sparse product G_I^T blockdiag(M) G_I
    _, g_i, g_it = kronecker_gradient(grid.dim, grid.cells)
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
    a = ViscousOperator(g, m).interior_matrix()
    oracle = triple_product(g, m)
    assert np.array_equal(a.indptr, oracle.indptr)
    assert np.array_equal(a.indices, oracle.indices)
    if dim == 1:
        assert np.array_equal(a.data, oracle.data)
    else:
        err = np.max(np.abs(a.data - oracle.data))
        assert err <= 1e-15 * np.max(np.abs(oracle.data))


@pytest.mark.parametrize("dim,cells", [(1, 6), (2, 40), (3, 6)])
def test_interior_matrix_rows_ascending(dim, cells):
    # every row's columns strictly ascend, and diag is each row's diagonal slot
    g = build_grid(dim, cells)
    k = dim * dim
    m = np.random.default_rng(48).standard_normal(g.cell_shape + (k, k))
    a = ViscousOperator(g, m).interior_matrix()
    row_of = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    assert np.all(np.diff(a.indices)[np.diff(row_of) == 0] > 0)
    assert np.array_equal(a.indices[_operator_pattern(dim, cells).diag],
                          np.arange(a.shape[0]))


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


def test_interior_matrix_pattern_is_shared_read_only_and_canonical():
    # every assembly reuses the grid's pattern, and scipy routines that want
    # a canonical matrix take it as it is, with no copy
    for dim in (1, 2, 3):
        g = build_grid(dim, 6)
        op = ViscousOperator(g, identity_tangent(g))
        a, b = op.interior_matrix(2.0), op.interior_matrix()
        assert a.has_canonical_format
        for name in ('indices', 'indptr'):
            assert not getattr(a, name).flags.writeable
            assert np.shares_memory(getattr(a, name), getattr(b, name))
        low = spla.eigsh(a, k=1, sigma=0.0, return_eigenvectors=False)
        assert np.isclose(low[0], np.linalg.eigvalsh(a.toarray())[0])
        a.sort_indices()
        assert a.has_sorted_indices
        assert np.shares_memory(a.indices, b.indices)


def test_cached_grid_arrays_read_only():
    # flags, not a write through reshape(-1), which copies a read-only view
    pat = _operator_pattern(2, 6)
    arrays = list(_cell_table(2, 6)) + [pat.indices, pat.indptr, pat.diag]
    for arr in arrays + [slots for *_, slots in pat.blocks]:
        assert not arr.flags.writeable


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


def constructor_solve(op, alpha, rhs, tol):
    # solve_shifted's CG on a matrix that scipy's constructor builds from the
    # assembled arrays, as every solve did before the grid's template
    a = op.interior_matrix(alpha)
    rebuilt = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    b = _interior_vec(op.grid, rhs)
    x, info = krylov.cg(rebuilt, b, rtol=tol, maxiter=max(1000, 2 * b.size))
    assert info == 0
    out = np.zeros(op.grid.num_nodes * op.grid.dim)
    out[_cell_table(op.grid.dim, op.grid.cells)[3]] = x
    return out.reshape(rhs.shape)


def test_solve_shifted_builds_one_csr(monkeypatch):
    # scipy's constructor runs once per grid, when its pattern is built, and
    # no solve on that grid runs it again, whatever the shift
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
    m = viscous_tangent_field(ViscosityModel.z0prime(),
                              np.broadcast_to(np.eye(2), g.cell_shape + (2, 2)),
                              np.zeros(g.cell_shape + (2, 2)))
    ops = [ViscousOperator(g, identity_tangent(g)), ViscousOperator(g, m)]
    shifts = (5.0, 0.5, 1e3)
    expected = [constructor_solve(op, alpha, rhs, 1e-10)
                for op in ops for alpha in shifts]
    monkeypatch.setattr(mod, 'sp', CountingSparse())
    for warm in (False, True):
        if not warm:
            _operator_pattern.cache_clear()
        del built[:]
        solved = [solve_shifted(op, alpha, rhs, 1e-10)
                  for op in ops for alpha in shifts]
        assert len(built) == (0 if warm else 1)
        for got, want in zip(solved, expected):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("dim,cells", [(1, 8), (2, 6), (3, 4)])
def test_interior_matrix_copies_own_their_data(dim, cells):
    # every call hands out the template's shallow copy: the same matrix as
    # scipy's constructor builds from its arrays, with data of its own
    g = build_grid(dim, cells)
    k = dim * dim
    m = np.random.default_rng(54).standard_normal(g.cell_shape + (k, k))
    op = ViscousOperator(g, m)
    x = np.random.default_rng(55).standard_normal(_cell_table(dim, cells)[3].size)
    for shift in (0.0, 1.0 / 1e-3):
        a, b = op.interior_matrix(shift), op.interior_matrix(shift)
        built = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
        assert type(a) is type(built)
        for name in ('data', 'indices', 'indptr'):
            assert np.array_equal(getattr(a, name), getattr(built, name))
        assert a.shape == built.shape
        assert a.has_canonical_format == built.has_canonical_format
        assert np.array_equal(a @ x, built @ x)
        for name in ('indices', 'indptr'):
            assert np.shares_memory(getattr(a, name), getattr(b, name))
            assert not getattr(a, name).flags.writeable
        assert a.data.flags.writeable and a.data.flags.owndata
        assert not np.shares_memory(a.data, b.data)
        before = b.data.copy()
        a.data[:] = np.nan
        assert np.array_equal(b.data, before)
        assert np.array_equal(op.interior_matrix(shift).data, before)


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
    # no step at all: an infinite t_end, or an infinite dt, which is
    # rejected as such before the whole-steps check
    with pytest.raises(InvalidConfig, match="whole number of steps"):
        SolverConfig(dt=1e-3, t_end=np.inf)
    with pytest.raises(InvalidConfig, match="must be finite") as err:
        SolverConfig(dt=np.inf, t_end=1.0)
    assert err.value.key == 'dt'
    # decimal roundoff in t_end / dt is not a partial step
    g = build_grid(1, 8)
    traj = run(W0_Z0DP, g, SolverConfig(dt=0.1, t_end=0.3), rest_state(g))
    assert len(traj.states) == 4


@pytest.mark.parametrize("key", ["picard_max", "save_every"])
@pytest.mark.parametrize("value", [2.5, 2.0])
def test_solver_config_counts_must_be_integers(key, value):
    # save_every = 2.5 once stored t = 0, 0.005, 0.01, and picard_max = 2.5
    # failed in the first step
    with pytest.raises(RangeError) as info:
        SolverConfig(dt=1e-3, t_end=1e-2, **{key: value})
    assert str(info.value) == f"key '{key}': must be an integer"
    assert SolverConfig(dt=1e-3, t_end=1e-2, **{key: np.int64(2)})


@pytest.mark.parametrize("key", ["picard_tol", "linear_tol"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_solver_config_rejects_nonpositive_tolerances(key, value):
    # linear_tol 0 would run CG to its cap; picard_tol < 0 would spend
    # picard_max solves on every step
    with pytest.raises(InvalidConfig, match=key):
        SolverConfig(dt=1e-3, t_end=1e-2, **{key: value})


@pytest.mark.parametrize("key", ["picard_tol", "det_floor", "linear_tol"])
def test_solver_config_rejects_infinite_tolerances(key):
    # linear_tol = inf once let every step skip CG and still complete
    with pytest.raises(RangeError) as info:
        SolverConfig(dt=1e-3, t_end=1e-2, **{key: np.inf})
    assert str(info.value) == f"key '{key}': must be finite"


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
    true_response = mod.viscous_response
    calls = {'n': 0}

    def explosive(model, f):
        respond = true_response(model, f)

        def exploding(q):
            calls['n'] += 1
            z, m = respond(q)
            return z * (10.0 ** calls['n']), m

        return exploding

    monkeypatch.setattr(mod, 'viscous_response', explosive)
    g = build_grid(1, 16)
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: 0.1 * np.sin(np.pi * x), 1e-3)
    model = ConstitutiveModel(EnergyModel.w0(), ViscosityModel.zm(1))
    traj = run(model, g, SolverConfig(dt=1e-2, t_end=0.1, picard_max=8), st)
    assert calls['n'] >= 2
    assert traj.termination.kind == 'picard_divergence'


def test_run_stops_on_non_finite_rhs_before_cg(monkeypatch):
    # an overflowing nonlinear term ends the run as picard_divergence before
    # any CG iteration: CG's stopping test is never true on NaN, so a solve
    # on it would spend the whole iteration cap and fail as a linear solve
    import viscolab.pde_solver as mod
    true_response = mod.viscous_response
    calls = {'cg': 0}

    def nan_response(model, f):
        respond = true_response(model, f)

        def nan_z(q):
            z, m = respond(q)
            return np.full_like(z, np.nan), m

        return nan_z

    true_cg = mod.spla.cg

    def counting_cg(*args, **kwargs):
        calls['cg'] += 1
        return true_cg(*args, **kwargs)

    monkeypatch.setattr(mod, 'viscous_response', nan_response)
    monkeypatch.setattr(mod.spla, 'cg', counting_cg)
    g = build_grid(1, 16)
    st = init_state(g, lambda x: np.array(x, copy=True),
                    lambda x: 0.1 * np.sin(np.pi * x), 1e-3)
    model = ConstitutiveModel(EnergyModel.w0(), ViscosityModel.zm(1))
    traj = run(model, g, SolverConfig(dt=1e-2, t_end=0.1), st)
    assert traj.termination.kind == 'picard_divergence'
    assert traj.termination.time == 0.0
    assert calls['cg'] == 0


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
    dofs = _cell_table(dim, cells)[3]
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


def test_heat_extension_checks_and_clamps_the_deformation():
    # a boundary node of xi0 at 0.3 instead of 0 was accepted and kept in
    # every state; init_state rejects the same data
    g = build_grid(1, 16)
    x = g.node_positions()
    xi0 = np.array(x, copy=True)
    xi0[0] = 0.3
    with pytest.raises(BoundaryMismatch):
        heat_extension(g, xi0, np.zeros_like(x), 1e-2, 0.1)
    with pytest.raises(BoundaryMismatch):
        init_state(g, lambda y: xi0, np.zeros_like, 1e-3)
    # an offset within CLAMP_TOL is overwritten exactly, the input untouched
    xi0[0] = 1e-12
    v0 = np.sin(np.pi * x)
    ext = heat_extension(g, xi0, v0, 1e-2, 0.1)
    assert xi0[0] == 1e-12 and v0[-1] != 0.0
    bmask = g.boundary_mask()
    for st in ext.states:
        assert np.array_equal(st.xi[bmask], x[bmask])
        assert not st.v[bmask].any()


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


def per_step_forcing(model, grid, exact):
    # the forcing with every exact field evaluated through the solution's
    # per-point methods at every t
    centers = grid.cell_centers()
    nodes = grid.node_positions()

    def f(t, g):
        fc = exact.grad_xi(t, centers)
        qc = exact.grad_xi_t(t, centers)
        p = piola_stress(model.energy, fc) + viscous_stress(model.viscosity, fc, qc)
        return exact.xi_tt(t, nodes) - stress_divergence(g, p)

    return f


TIMES = (0.0, 1e-3, 0.37, 2.5)


def same_bits(a, b):
    # array_equal, and the signs of zeros too
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_manufactured_rest_exact():
    # amplitude 0 is the rest state, which the scheme keeps exactly
    g = build_grid(1, 16)
    exact = manufactured_default(1, 0.0)
    res = manufactured_run(W0_Z0DP, g, SolverConfig(dt=1e-2, t_end=0.1), exact)
    assert res.l2 <= 1e-12 and res.linf <= 1e-12


@pytest.mark.parametrize("dim,cells", [(1, 16), (2, 6), (3, 4)])
def test_sampled_forcing_matches_per_step_evaluation(dim, cells):
    # manufactured_default's fields are sampled once per grid and scaled at
    # each t; the forcing keeps every bit of the per-step evaluation
    g = build_grid(dim, cells)
    exact = manufactured_default(dim, 0.07)
    for model in (W0_Z0DP, ConstitutiveModel(EnergyModel.w1(),
                                             ViscosityModel.zm(1))):
        forcing = manufactured_forcing(model, g, exact)
        oracle = per_step_forcing(model, g, exact)
        for t in TIMES:
            assert same_bits(forcing(t, g), oracle(t, g))


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
