"""Structured-grid discretization of the viscoelastic momentum balance.

The domain is [0,1]^dim (dim 1-3) with clamped boundary nodes.  Every
discrete operator is built from one sparse matrix, the cell gradient G
(see clamped_gradient): it maps nodal vectors to gradients at cell
centers by averaged corner differences, the Kronecker product of a 1D
difference along one axis with 1D averages along the others.  The
gradient is G u, the stress divergence is -G_I^T P on the interior dofs,
and the viscous operator is G_I^T blockdiag(M) G_I, so the
summation-by-parts pair holds by construction.  That operator is
assembled on a pattern fixed by the grid (see _operator_pattern): the
per-cell gradient D is read from G's rows, each cell contributes
D^T M_c D, and a cached scatter adds those local entries into CSR slots
built once per grid.  Time stepping is
semi-implicit: the elastic stress is explicit, the viscous stress is
linearized around the frozen tangent D_Q Z and refrozen in a short Picard
loop inside each step.  The frozen tangent is symmetric positive
semidefinite, so every shifted operator alpha I + L is symmetric positive
definite, and solve_shifted, the one linear solve of the time step and of
the heat extension, assembles it as one CSR matrix and runs conjugate
gradients; a solve that does not converge ends the run as
'linear_solver_failure'.
"""

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constitutive import (dissipation_density, piola_stress, viscous_stress,
                           viscous_tangent_field)
from .errors import (BoundaryMismatch, Interpenetration, InvalidConfig,
                     LinearSolveFailure, PicardDivergence)

CLAMP_TOL = 1e-10
STEP_TOL = 1e-9
SCATTER_BLOCK = 512     # cells per block of the local scatter in assembly


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
    if dim not in (1, 2, 3):
        raise InvalidConfig(f"dim must be 1, 2 or 3, got {dim}")
    if cells < 4:
        raise InvalidConfig(f"cells must be at least 4, got {cells}")
    return Grid(dim, cells)


@dataclass(frozen=True)
class FieldState:
    """Nodal deformation and velocity at one instant, and the energy the
    scheme has dissipated since init_state (None where no ledger is kept)."""

    time: float
    xi: np.ndarray
    v: np.ndarray
    dissipated: float | None = None


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
        for key in ('dt', 't_end', 'picard_tol', 'det_floor', 'linear_tol'):
            if not getattr(self, key) > 0.0:
                raise InvalidConfig(f"{key} must be positive")
        if self.picard_max < 1:
            raise InvalidConfig("picard_max must be at least 1")
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
    return FieldState(0.0, xi, v, 0.0)


def _kron_all(factors):
    return reduce(lambda a, b: sp.kron(a, b, format='csr'), factors)


@lru_cache(maxsize=8)
def clamped_gradient(dim, cells):
    """The cell gradient G as sparse matrices, built once per grid.

    G maps row-major nodal dofs (node, r) to row-major cell gradients
    (cell, r, c).  Its scalar part along axis c is the Kronecker product of
    the 1D difference on axis c with the 1D average on every other axis,
    i.e. the averaged corner difference.  Returns (G, G_I, G_I^T, dofs),
    where dofs are the interior (unclamped) nodal dofs and G_I = G[:, dofs].
    The returned arrays are shared between callers and read-only.
    """
    # 1D factors on cells + 1 nodes: difference quotient and midpoint average
    lo = sp.eye(cells, cells + 1, format='csr')
    hi = sp.eye(cells, cells + 1, k=1, format='csr')
    diff, avg = (hi - lo) * cells, 0.5 * (lo + hi)
    n = dim
    eye_r = np.arange(n)
    g = sum(sp.kron(_kron_all([diff if a == c else avg for a in range(n)]),
                    sp.csr_matrix((np.ones(n), (eye_r * n + c, eye_r)),
                                  shape=(n * n, n)), format='csr')
            for c in range(n))
    interior = np.nonzero(~Grid(dim, cells).boundary_mask().reshape(-1))[0]
    dofs = (interior[:, None] * n + eye_r).reshape(-1)
    g_i = g[:, dofs].tocsr()
    g_it = g_i.T.tocsr()
    _read_only(g.data, g.indices, g.indptr, g_i.data, g_i.indices, g_i.indptr,
               g_it.data, g_it.indices, g_it.indptr, dofs)
    return g, g_i, g_it, dofs


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class OperatorPattern:
    """The grid-fixed part of the interior viscous operator.

    d is the per-cell gradient (dim^2 x 2^dim dim) on the cell's local dofs
    (corner, component), corner-major.  indices/indptr are the CSR pattern
    of G_I^T blockdiag(M) G_I.  Each row holds its diagonal first and then
    its other columns in descending order: the order in which scipy's sum of
    a sparse product and a sparse identity left them, so matrix-vector
    products in CG sum as they did when the operator was assembled that way
    (1D runs reproduce bit for bit).  Each block (first cell, lo, hi, slots)
    covers SCATTER_BLOCK cells whose local entries (cell, a, b) land in the
    CSR range [lo, hi): slots holds slot - lo, or hi - lo (a trash slot)
    where a or b is a clamped dof.
    """

    d: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    blocks: tuple

    @property
    def size(self):
        return self.indptr.size - 1

    @property
    def diag(self):
        return self.indptr[:-1]


@lru_cache(maxsize=8)
def _operator_pattern(dim, cells):
    """Build the OperatorPattern of a grid once, from the stencil alone.

    Row (i, r) of the interior operator couples interior node i, component
    r, to every component s of the interior nodes i + o, o in {-1, 0, 1}^dim.
    Row-major numbering orders those columns as the stencil entries (o, s)
    lexicographically, so a column's place in its row follows from counting
    in-domain entries, and a local entry between corners alpha and beta of
    a cell is the stencil entry (beta - alpha, s).  The per-cell tables are
    built one block of SCATTER_BLOCK cells at a time.
    """
    n = dim
    g, _, _, dofs = clamped_gradient(dim, cells)
    corners = np.array(list(itertools.product((0, 1), repeat=dim)))
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=dim)))

    def ravel(points, extent):
        return np.ravel_multi_index(tuple(np.moveaxis(points, -1, 0)),
                                    (extent,) * dim)

    # slot of every stencil entry (o, s) of every interior row (i, r)
    m = cells - 1
    inner = np.stack(np.unravel_index(np.arange(m ** dim), (m,) * dim), axis=-1)
    inside = np.ones((inner.shape[0], offsets.shape[0]), dtype=bool)
    for ax in range(dim):
        nbr = inner[:, ax, None] + offsets[:, ax]
        inside &= (nbr >= 0) & (nbr < m)
    valid = np.repeat(np.repeat(inside, n, axis=1), n, axis=0)
    count = valid.sum(axis=1, dtype=np.int32)
    indptr = np.concatenate(([0], np.cumsum(count, dtype=np.int32)))
    rows = np.arange(count.size, dtype=np.int32)
    centre = (offsets.shape[0] // 2) * n + rows % n
    # place in the row: in-domain entries after (o, s), i.e. descending
    # order, then the diagonal moved to the front
    slot_of = count[:, None] - np.cumsum(valid, axis=1, dtype=np.int32)
    slot_of += slot_of < slot_of[rows, centre][:, None]
    slot_of[rows, centre] = 0
    slot_of += indptr[:-1, None]
    shift = (np.repeat(offsets @ m ** np.arange(dim - 1, -1, -1), n) * n
             + np.tile(np.arange(n), offsets.shape[0])).astype(np.int32)
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[slot_of[valid]] = ((rows - rows % n)[:, None] + shift)[valid]

    # local dofs of every cell and the stencil entry of each (a, b) pair
    lower = np.stack(np.unravel_index(np.arange(cells ** dim), (cells,) * dim),
                     axis=-1)
    local = (ravel(lower[:, None, :] + corners, cells + 1)[..., None] * n
             + np.arange(n)).reshape(lower.shape[0], -1)
    d = g[:n * n][:, local[0]].toarray()
    interior = np.full(g.shape[1], -1)
    interior[dofs] = np.arange(dofs.size)
    corner_of = corners[np.repeat(np.arange(corners.shape[0]), n)]
    step = corner_of[None, :, :] - corner_of[:, None, :]
    entry = ravel(step + 1, 3) * n + np.tile(np.arange(n), corners.shape[0])

    blocks = []
    for first in range(0, lower.shape[0], SCATTER_BLOCK):
        loc = interior[local[first:first + SCATTER_BLOCK]]
        row, col = loc[:, :, None], loc[:, None, :]
        kept = (row >= 0) & (col >= 0)
        slot = slot_of[np.maximum(row, 0), entry]
        hit = slot[kept]
        lo, hi = int(hit.min()), int(hit.max()) + 1
        slots = np.where(kept, slot - lo, hi - lo).astype(np.int32)
        _read_only(slots)
        blocks.append((first, lo, hi, slots))
    pattern = OperatorPattern(d, indices, indptr, tuple(blocks))
    _read_only(pattern.d, pattern.indices, pattern.indptr)
    return pattern


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
    performs matrix-free.  It is assembled as the sum over cells of
    D^T M_c D, scattered into the grid's fixed CSR pattern; a shift is
    added at the diagonal slots after every block.
    """

    def __init__(self, grid, m_cells):
        self.grid = grid
        n = grid.dim
        m_cells = np.asarray(m_cells, dtype=float)
        want = grid.cell_shape + (n * n, n * n)
        if m_cells.shape != want:
            m_cells = np.broadcast_to(m_cells, want)
        self.m_cells = m_cells

    def apply(self, nodal):
        """Matrix-free -div(M grad w): the oracle tests compare assembly against."""
        g = gradient_field(self.grid, nodal)
        return -stress_divergence(self.grid, _apply_tangent(self.grid, self.m_cells, g))

    def interior_matrix(self, shift=0.0):
        """shift I + G_I^T blockdiag(M) G_I as a new CSR matrix.  Its indices
        are the grid's cached pattern, read-only and unsorted (diagonal
        first): call .copy() before sort_indices() or any other in-place
        reordering."""
        pat = _operator_pattern(self.grid.dim, self.grid.cells)
        k = self.grid.dim ** 2
        m = self.m_cells.reshape(-1, k, k)
        data = np.zeros(pat.indices.size)
        for first, lo, hi, slots in pat.blocks:
            local = pat.d.T @ (m[first:first + slots.shape[0]] @ pat.d)
            data[lo:hi] += np.bincount(slots.reshape(-1), local.reshape(-1),
                                       minlength=hi - lo + 1)[:-1]
        data[pat.diag] += shift
        return sp.csr_matrix((data, pat.indices, pat.indptr),
                             shape=(pat.size, pat.size))


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
    and conjugate gradients on the one matrix op.interior_matrix(alpha)
    solve it.  Raises LinearSolveFailure when CG misses tol within its
    iteration cap; run records that as 'linear_solver_failure'.
    """
    grid = op.grid
    b = _interior_vec(grid, rhs_nodal)
    if not np.any(b):
        return np.zeros(grid.node_shape + (grid.dim,))
    a = op.interior_matrix(alpha)
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
    dt * v_new.  An unforced step adds dt h^d sum_cells Z(F, G v_new):G v_new
    and the numerical dissipation 1/2 h^d sum_nodes |v_new - v^n|^2 to the
    dissipation ledger; a forced step keeps none.
    """
    dt = cfg.dt
    f_cells = gradient_field(grid, state.xi)
    elastic = stress_divergence(grid, piola_stress(model.energy, f_cells))
    rhs_fixed = state.v / dt + elastic
    if forcing is not None:
        rhs_fixed = rhs_fixed + forcing(state.time + dt, grid)

    v_k = state.v
    grad_vk = gradient_field(grid, v_k)
    m_k = viscous_tangent_field(model.viscosity, f_cells, grad_vk)
    first_inc = None
    for it in range(cfg.picard_max):
        corr = viscous_stress(model.viscosity, f_cells, grad_vk) \
            - _apply_tangent(grid, m_k, grad_vk)
        rhs = rhs_fixed + stress_divergence(grid, corr)
        op = ViscousOperator(grid, m_k)
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
            grad_vk = gradient_field(grid, v_k)
            m_k = viscous_tangent_field(model.viscosity, f_cells, grad_vk)
    dissipated = None
    if forcing is None and state.dissipated is not None:
        dv = v_k - state.v
        rate = dissipation_density(model.viscosity, f_cells, gradient_field(grid, v_k))
        dissipated = state.dissipated + grid.spacing ** grid.dim * (
            dt * float(np.sum(rate)) + 0.5 * float(np.sum(dv * dv)))
    return FieldState(state.time + dt, state.xi + dt * v_k, v_k, dissipated)


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
    a reference trajectory whose velocity solves the heat equation.  Each
    step is one solve_shifted on the identity tangent at the default
    linear_tol.  dt, t_end and save_every are checked as in SolverConfig.
    """
    cfg = SolverConfig(dt, t_end, save_every=save_every)
    n_steps = whole_steps(t_end, dt)
    xi0 = np.asarray(xi0, dtype=float)
    xi1 = np.asarray(xi1, dtype=float)
    bmask = grid.boundary_mask()
    if np.max(np.abs(xi1[bmask])) > CLAMP_TOL:
        raise BoundaryMismatch("extension velocity must vanish on the boundary")
    op = ViscousOperator(grid, identity_tangent(grid))
    states = [FieldState(0.0, xi0.copy(), xi1.copy())]
    xibar, v = xi0.copy(), xi1.copy()
    for k in range(1, n_steps + 1):
        v_new = solve_shifted(op, 1.0 / dt, v / dt, cfg.linear_tol, x0_nodal=v)
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
    """Reference verification case: a decaying product-of-sines bump in the
    first component, clamped on every face of [0,1]^dim."""
    a = amplitude
    pi = np.pi

    def shape(x):
        return reduce(np.multiply, [np.sin(pi * x[..., s]) for s in range(dim)])

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
        # first row of the gradient carries the bump derivative: entry c is
        # pi times the per-axis factors in axis order, with cos at axis c
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (dim, dim))
        for c in range(dim):
            out[..., 0, c] = coef * reduce(
                np.multiply, [(np.cos if s == c else np.sin)(pi * x[..., s])
                              for s in range(dim)], pi)
        return out

    def grad_xi(t, x):
        g = _bump_grad(t, x, a * math.exp(-t))
        for r in range(dim):
            g[..., r, r] += 1.0
        return g

    def grad_xi_t(t, x):
        return _bump_grad(t, x, -a * math.exp(-t))

    return ExactSolution(dim, xi, xi_t, xi_tt, grad_xi, grad_xi_t)
