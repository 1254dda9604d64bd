"""Structured-grid discretization of the viscoelastic momentum balance.

The domain is the unit interval (1D) or unit square (2D) with clamped
boundary nodes.  Every discrete operator is built from one sparse matrix,
the cell gradient G (see clamped_gradient): it maps nodal vectors to
gradients at cell centers by averaged corner differences, the Kronecker
product of a 1D difference along one axis with 1D averages along the
others.  The gradient is G u, the stress divergence is -G_I^T P on the
interior dofs, and the viscous operator is G_I^T blockdiag(M) G_I, so the
summation-by-parts pair holds by construction.  Time stepping is
semi-implicit: the elastic stress is explicit, the viscous stress is
linearized around the frozen tangent D_Q Z and refrozen in a short Picard
loop inside each step.  The frozen tangent is symmetric positive
semidefinite, so each step solves its shifted operator with conjugate
gradients alone; a solve that does not converge ends the run as
'linear_solver_failure'.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constitutive import piola_stress, viscous_stress, viscous_tangent_field
from .errors import (BoundaryMismatch, Interpenetration, InvalidConfig,
                     LinearSolveFailure, PicardDivergence)

CLAMP_TOL = 1e-10
STEP_TOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on [0,1]^dim with cells^dim cells."""

    dim: int
    cells: int

    @property
    def spacing(self):
        return 1.0 / self.cells

    @property
    def node_shape(self):
        return (self.cells + 1,) * self.dim

    @property
    def cell_shape(self):
        return (self.cells,) * self.dim

    @property
    def num_nodes(self):
        return (self.cells + 1) ** self.dim

    def node_positions(self):
        axes = [np.linspace(0.0, 1.0, self.cells + 1)] * self.dim
        mesh = np.meshgrid(*axes, indexing='ij')
        return np.stack(mesh, axis=-1)

    def cell_centers(self):
        h = self.spacing
        axes = [(np.arange(self.cells) + 0.5) * h] * self.dim
        mesh = np.meshgrid(*axes, indexing='ij')
        return np.stack(mesh, axis=-1)

    def boundary_mask(self):
        mask = np.zeros(self.node_shape, dtype=bool)
        for ax in range(self.dim):
            idx = [slice(None)] * self.dim
            idx[ax] = 0
            mask[tuple(idx)] = True
            idx[ax] = -1
            mask[tuple(idx)] = True
        return mask


def build_grid(dim, cells):
    if dim not in (1, 2):
        raise InvalidConfig(f"dim must be 1 or 2, got {dim}")
    if cells < 4:
        raise InvalidConfig(f"cells must be at least 4, got {cells}")
    return Grid(dim, cells)


@dataclass(frozen=True)
class FieldState:
    """Nodal deformation and velocity at one instant."""

    time: float
    xi: np.ndarray
    v: np.ndarray


def whole_steps(t_end, dt):
    """The number of steps dt that make up t_end, or None if it is not whole.

    t_end / dt may miss an integer by STEP_TOL relative, to absorb the
    roundoff of decimal step sizes such as 0.1 / 1e-3.
    """
    ratio = t_end / dt
    steps = round(ratio)
    return steps if abs(ratio - steps) <= STEP_TOL * ratio else None


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    picard_tol: float = 1e-10
    picard_max: int = 5
    det_floor: float = 1e-3
    linear_tol: float = 1e-10
    save_every: int = 1

    def __post_init__(self):
        if self.dt <= 0.0 or self.t_end <= 0.0:
            raise InvalidConfig("dt and t_end must be positive")
        if self.picard_max < 1:
            raise InvalidConfig("picard_max must be at least 1")
        if self.det_floor <= 0.0:
            raise InvalidConfig("det_floor must be positive")
        if self.save_every < 1:
            raise InvalidConfig("save_every must be at least 1")
        if whole_steps(self.t_end, self.dt) is None:
            raise InvalidConfig(f"t_end = {self.t_end!r} is not a whole number "
                                f"of steps dt = {self.dt!r}")


@dataclass(frozen=True)
class Termination:
    """How a trajectory ended: 'completed', 'det_floor_hit',
    'picard_divergence' or 'linear_solver_failure' (with the event time)."""

    kind: str
    time: float | None = None


@dataclass(frozen=True)
class Trajectory:
    states: list
    termination: Termination

    @property
    def times(self):
        return np.array([s.time for s in self.states])

    def restrict(self, t_max):
        """Snapshots with time <= t_max (tolerant to roundoff)."""
        kept = [s for s in self.states if s.time <= t_max + 1e-12]
        return Trajectory(kept, self.termination)


def init_state(grid, xi0, xi1, det_floor):
    """Sample initial deformation/velocity functions onto the grid.

    The callables receive the (..., dim) node coordinate array.  Boundary
    values are checked against the clamped conditions (xi = X, v = 0) and
    then overwritten exactly; the cell determinant floor is enforced.
    """
    x = grid.node_positions()
    xi = np.array(xi0(x), dtype=float).reshape(x.shape)
    v = np.array(xi1(x), dtype=float).reshape(x.shape)
    if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(v))):
        raise InvalidConfig("initial fields contain non-finite values")
    bmask = grid.boundary_mask()
    mism = max(np.max(np.abs(xi[bmask] - x[bmask])), np.max(np.abs(v[bmask])))
    if mism > CLAMP_TOL:
        raise BoundaryMismatch(f"boundary violates clamping by {mism:.3e}")
    xi[bmask] = x[bmask]
    v[bmask] = 0.0
    dets = np.linalg.det(gradient_field(grid, xi))
    if np.min(dets) <= det_floor:
        raise Interpenetration(
            f"min cell det = {np.min(dets):.3e} <= floor {det_floor:.3e}")
    return FieldState(0.0, xi, v)


def _difference_average(cells):
    """1D factors on cells + 1 nodes: difference quotient and midpoint average."""
    lo = sp.eye(cells, cells + 1, format='csr')
    hi = sp.eye(cells, cells + 1, k=1, format='csr')
    return (hi - lo) * cells, 0.5 * (lo + hi)


def _kron_all(factors):
    return reduce(lambda a, b: sp.kron(a, b, format='csr'), factors)


@lru_cache(maxsize=8)
def cell_average(dim, cells):
    """Sparse map from row-major nodal values to their cell-center averages."""
    _, avg = _difference_average(cells)
    return _kron_all([avg] * dim)


@lru_cache(maxsize=8)
def clamped_gradient(dim, cells):
    """The cell gradient G as sparse matrices, built once per grid.

    G maps row-major nodal dofs (node, r) to row-major cell gradients
    (cell, r, c).  Its scalar part along axis c is the Kronecker product of
    the 1D difference on axis c with the 1D average on every other axis,
    i.e. the averaged corner difference.  Returns (G, G_I, G_I^T, dofs),
    where dofs are the interior (unclamped) nodal dofs and G_I = G[:, dofs].
    The returned arrays are shared between callers and must not be mutated.
    """
    diff, avg = _difference_average(cells)
    n = dim
    eye_r = np.arange(n)
    g = sum(sp.kron(_kron_all([diff if a == c else avg for a in range(n)]),
                    sp.csr_matrix((np.ones(n), (eye_r * n + c, eye_r)),
                                  shape=(n * n, n)), format='csr')
            for c in range(n))
    interior = np.nonzero(~Grid(dim, cells).boundary_mask().reshape(-1))[0]
    dofs = (interior[:, None] * n + eye_r).reshape(-1)
    g_i = g[:, dofs].tocsr()
    return g, g_i, g_i.T.tocsr(), dofs


def gradient_field(grid, nodal):
    """Cell-centered gradient G u by averaged corner differences.

    Exact for affine fields; second-order accurate at cell centers.
    Returns shape cell_shape + (dim, dim) with F[..., r, c] = d xi_r / d X_c.
    """
    g = clamped_gradient(grid.dim, grid.cells)[0]
    n = grid.dim
    return (g @ nodal.reshape(-1)).reshape(grid.cell_shape + (n, n))


def stress_divergence(grid, cell_stress):
    """Row-wise divergence -G_I^T P: exact negative adjoint of gradient_field.

    <div P, w>_nodes = -<P, grad w>_cells for every clamped w.  Boundary
    rows are zero (clamped degrees of freedom carry no equation).
    """
    return _from_interior(grid, -(clamped_gradient(grid.dim, grid.cells)[2]
                                  @ cell_stress.reshape(-1)))


class ViscousOperator:
    """w -> -div(M grad w) on clamped nodal vector fields.

    m_cells holds the frozen tangent per cell as (cells..., n^2, n^2).
    The interior matrix is G_I^T blockdiag(M) G_I, the same composition of
    gradient_field, the cell-wise tangent and stress_divergence that apply
    performs matrix-free.
    """

    def __init__(self, grid, m_cells):
        self.grid = grid
        n = grid.dim
        m_cells = np.asarray(m_cells, dtype=float)
        want = grid.cell_shape + (n * n, n * n)
        if m_cells.shape != want:
            m_cells = np.broadcast_to(m_cells, want)
        self.m_cells = m_cells
        self._matrix = None

    def apply(self, nodal):
        g = gradient_field(self.grid, nodal)
        return -stress_divergence(self.grid, _apply_tangent(self.grid, self.m_cells, g))

    def interior_matrix(self):
        if self._matrix is None:
            _, g_i, g_it, _ = clamped_gradient(self.grid.dim, self.grid.cells)
            k = self.grid.dim ** 2
            rows = g_i.shape[0]
            cols = np.arange(rows).reshape(-1, 1, k).repeat(k, axis=1)
            blocks = sp.csr_matrix((self.m_cells.reshape(-1), cols.reshape(-1),
                                    np.arange(0, rows * k + 1, k)),
                                   shape=(rows, rows))
            self._matrix = (g_it @ blocks @ g_i).tocsr()
        return self._matrix


def assemble_viscous_operator(grid, m_cells):
    return ViscousOperator(grid, m_cells)


def identity_tangent(grid):
    """Cell field of identity maps; the assembled operator is -Laplace."""
    n = grid.dim
    return np.broadcast_to(np.eye(n * n), grid.cell_shape + (n * n, n * n))


def _interior_vec(grid, nodal):
    dofs = clamped_gradient(grid.dim, grid.cells)[3]
    return nodal.reshape(-1)[dofs]


def _from_interior(grid, vec):
    dofs = clamped_gradient(grid.dim, grid.cells)[3]
    out = np.zeros(grid.num_nodes * grid.dim)
    out[dofs] = vec
    return out.reshape(grid.node_shape + (grid.dim,))


def solve_shifted(op, alpha, rhs_nodal, tol, x0_nodal=None):
    """Solve (alpha I + L) v = rhs on the interior, zero on the boundary.

    Every catalogue tangent is the Hessian of a convex dissipation
    potential, so alpha I + L is symmetric positive definite for alpha > 0
    and conjugate gradients solve it.  Raises LinearSolveFailure when CG
    misses tol within its iteration cap; run records that as
    'linear_solver_failure'.
    """
    grid = op.grid
    b = _interior_vec(grid, rhs_nodal)
    if not np.any(b):
        return np.zeros(grid.node_shape + (grid.dim,))
    a = op.interior_matrix() + alpha * sp.identity(b.size, format='csr')
    x0 = None if x0_nodal is None else _interior_vec(grid, x0_nodal)
    maxiter = max(1000, 2 * b.size)
    x, info = spla.cg(a, b, x0=x0, rtol=tol, atol=0.0, maxiter=maxiter)
    if info != 0:
        raise LinearSolveFailure(f"CG returned info={info} at tol {tol:.1e}")
    return _from_interior(grid, x)


def _apply_tangent(grid, m_cells, cell_field):
    n = grid.dim
    flat = cell_field.reshape(grid.cell_shape + (n * n,))
    out = np.einsum('...ab,...b->...a', m_cells, flat)
    return out.reshape(cell_field.shape)


def semi_implicit_step(state, model, grid, cfg, forcing=None):
    """One step of the frozen-tangent scheme.

    With F = grad xi^n and v^0 = v^n, the Picard loop k = 0, 1, ... solves

        (v_new - v^n)/dt - div(M^k grad v_new)
            = div(DW(F)) + div(Z(F, grad v^k) - M^k grad v^k) + f,

    refreezing M^k = D_Q Z(F, grad v^k) between iterations, until the sup
    increment drops below picard_tol or picard_max solves were spent.  For
    viscosities linear in the velocity gradient the first iterate is already
    the fixed point, so the loop stops after one solve.  Then xi advances by
    dt * v_new.
    """
    dt = cfg.dt
    f_cells = gradient_field(grid, state.xi)
    elastic = stress_divergence(grid, piola_stress(model.energy, f_cells))
    rhs_fixed = state.v / dt + elastic
    if forcing is not None:
        rhs_fixed = rhs_fixed + forcing(state.time + dt, grid)

    v_k = state.v
    m_k = viscous_tangent_field(model.viscosity, f_cells, gradient_field(grid, v_k))
    first_inc = None
    for it in range(cfg.picard_max):
        grad_vk = gradient_field(grid, v_k)
        corr = viscous_stress(model.viscosity, f_cells, grad_vk) \
            - _apply_tangent(grid, m_k, grad_vk)
        rhs = rhs_fixed + stress_divergence(grid, corr)
        op = assemble_viscous_operator(grid, m_k)
        v_new = solve_shifted(op, 1.0 / dt, rhs, cfg.linear_tol, x0_nodal=v_k)
        if not np.all(np.isfinite(v_new)):
            raise PicardDivergence("non-finite iterate")
        inc = float(np.max(np.abs(v_new - v_k)))
        if first_inc is None:
            first_inc = inc
        elif inc > 10.0 * max(first_inc, 1e-300):
            raise PicardDivergence(
                f"increment grew from {first_inc:.3e} to {inc:.3e}")
        v_k = v_new
        if inc <= cfg.picard_tol or model.viscosity.linear_in_q:
            break
        if it + 1 < cfg.picard_max:
            m_k = viscous_tangent_field(model.viscosity, f_cells,
                                        gradient_field(grid, v_k))
    return FieldState(state.time + dt, state.xi + dt * v_k, v_k)


def run(model, grid, cfg, state0, forcing=None):
    """March semi_implicit_step to t_end, monitoring the determinant floor.

    Breakdown and solver failures are recorded in the termination tag, never
    raised; the offending snapshot is kept so diagnostics can see it.
    """
    n_steps = whole_steps(cfg.t_end, cfg.dt)
    states = [state0]
    term = Termination('completed')
    state = state0
    for k in range(1, n_steps + 1):
        try:
            state = semi_implicit_step(state, model, grid, cfg, forcing)
        except PicardDivergence:
            term = Termination('picard_divergence', state.time)
            break
        except LinearSolveFailure:
            term = Termination('linear_solver_failure', state.time)
            break
        state = replace(state, time=k * cfg.dt)
        min_det = float(np.min(np.linalg.det(gradient_field(grid, state.xi))))
        if min_det <= cfg.det_floor:
            states.append(state)
            term = Termination('det_floor_hit', state.time)
            break
        if k % cfg.save_every == 0 or k == n_steps:
            states.append(state)
    return Trajectory(states, term)


def heat_extension(grid, xi0, xi1, dt, t_end, save_every=1):
    """Smooth reference path: integrate the heat flow of the initial velocity.

    xi1 diffuses under the clamped discrete Laplacian (implicit Euler); the
    deformation accumulates it trapezoidally, so the pair plays the role of
    a reference trajectory whose velocity solves the heat equation.  t_end
    must be a whole number of steps dt, as in SolverConfig.
    """
    n_steps = whole_steps(t_end, dt)
    if n_steps is None:
        raise InvalidConfig(f"t_end = {t_end!r} is not a whole number "
                            f"of steps dt = {dt!r}")
    xi0 = np.asarray(xi0, dtype=float)
    xi1 = np.asarray(xi1, dtype=float)
    bmask = grid.boundary_mask()
    if np.max(np.abs(xi1[bmask])) > CLAMP_TOL:
        raise BoundaryMismatch("extension velocity must vanish on the boundary")
    op = assemble_viscous_operator(grid, identity_tangent(grid))
    a = op.interior_matrix() + (1.0 / dt) * sp.identity(
        op.interior_matrix().shape[0], format='csr')
    try:
        lu = spla.splu(a.tocsc())
    except RuntimeError as exc:
        raise LinearSolveFailure(str(exc)) from exc
    states = [FieldState(0.0, xi0.copy(), xi1.copy())]
    xibar, v = xi0.copy(), xi1.copy()
    for k in range(1, n_steps + 1):
        v_new = _from_interior(grid, lu.solve(_interior_vec(grid, v) / dt))
        xibar = xibar + 0.5 * dt * (v + v_new)
        v = v_new
        if k % save_every == 0 or k == n_steps:
            states.append(FieldState(k * dt, xibar.copy(), v.copy()))
    return Trajectory(states, Termination('completed'))


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form space-time deformation for verification runs.

    xi, xi_t, xi_tt map (t, points) -> (..., dim) values at points of shape
    (..., dim); grad_xi and grad_xi_t return (..., dim, dim) gradients.
    """

    dim: int
    xi: callable
    xi_t: callable
    xi_tt: callable
    grad_xi: callable
    grad_xi_t: callable


@dataclass(frozen=True)
class ManufacturedResult:
    l2: float
    linf: float
    trajectory: Trajectory


def manufactured_forcing(model, grid, exact):
    """Forcing that makes `exact` a solution up to scheme consistency error.

    The stress fields are evaluated from the exact (analytic) gradients at
    cell centers and pushed through the same discrete divergence the solver
    uses, so the measured error is dominated by the scheme itself rather
    than by an independent quadrature of the forcing.
    """
    centers = grid.cell_centers()
    nodes = grid.node_positions()

    def f(t, g):
        fc = exact.grad_xi(t, centers)
        qc = exact.grad_xi_t(t, centers)
        p = piola_stress(model.energy, fc) + viscous_stress(model.viscosity, fc, qc)
        return exact.xi_tt(t, nodes) - stress_divergence(g, p)

    return f


def manufactured_run(model, grid, cfg, exact):
    """Run against a manufactured solution; report max-in-time nodal errors."""
    state0 = init_state(grid, lambda x: exact.xi(0.0, x),
                        lambda x: exact.xi_t(0.0, x), cfg.det_floor)
    traj = run(model, grid, cfg, state0,
               forcing=manufactured_forcing(model, grid, exact))
    nodes = grid.node_positions()
    hvol = grid.spacing ** grid.dim
    l2 = linf = 0.0
    for st in traj.states:
        err = st.xi - exact.xi(st.time, nodes)
        l2 = max(l2, math.sqrt(hvol * float(np.sum(err * err))))
        linf = max(linf, float(np.max(np.abs(err))))
    return ManufacturedResult(l2, linf, traj)


def manufactured_default(dim, amplitude=0.01):
    """Reference verification case: a decaying sine bump on the first axis."""
    a = amplitude
    pi = np.pi
    if dim == 1:
        def shape(x):
            return np.sin(pi * x[..., 0])

        def dshape(x):
            return pi * np.cos(pi * x[..., 0])
    else:
        def shape(x):
            return np.sin(pi * x[..., 0]) * np.sin(pi * x[..., 1])

        def dshape(x):
            # gradient of the 2D bump, shape (..., 2)
            return np.stack([
                pi * np.cos(pi * x[..., 0]) * np.sin(pi * x[..., 1]),
                pi * np.sin(pi * x[..., 0]) * np.cos(pi * x[..., 1])], axis=-1)

    def xi(t, x):
        out = np.array(x, dtype=float).copy()
        out[..., 0] += a * math.exp(-t) * shape(x)
        return out

    def xi_t(t, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        out[..., 0] = -a * math.exp(-t) * shape(x)
        return out

    def xi_tt(t, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        out[..., 0] = a * math.exp(-t) * shape(x)
        return out

    def _bump_grad(t, x, coef):
        # first row of the gradient carries the bump derivative
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (dim, dim))
        if dim == 1:
            out[..., 0, 0] = coef * dshape(x)
        else:
            ds = dshape(x)
            out[..., 0, 0] = coef * ds[..., 0]
            out[..., 0, 1] = coef * ds[..., 1]
        return out

    def grad_xi(t, x):
        g = _bump_grad(t, x, a * math.exp(-t))
        for r in range(dim):
            g[..., r, r] += 1.0
        return g

    def grad_xi_t(t, x):
        return _bump_grad(t, x, -a * math.exp(-t))

    return ExactSolution(dim, xi, xi_t, xi_tt, grad_xi, grad_xi_t)
