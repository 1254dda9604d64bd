"""Structured-grid discretization of the viscoelastic momentum balance.

The domain is [0,1]^dim (dim 1-3) with clamped boundary nodes.  One cell
table (see _cell_table) states the grid's connectivity: each cell's corner
dofs and the per-cell gradient D on them, the averaged corner difference.
Every discrete operator is built from one sparse matrix, the cell gradient
G (see clamped_gradient), which places D on each cell's dofs and so maps
nodal vectors to gradients at cell centers.  The gradient is G u, the
stress divergence is -G_I^T P on the interior dofs, and the viscous
operator is G_I^T blockdiag(M) G_I, so the summation-by-parts pair holds by
construction.  That operator is assembled on a pattern fixed by the grid
and built from the same table (see _operator_pattern): each cell
contributes D^T M_c D, and a cached scatter adds those local entries into
the slots of a canonical (column-sorted) CSR pattern built once per grid,
whose read-only indices and indptr every assembled matrix shares.  Time
stepping is semi-implicit: the elastic stress is explicit, the viscous
stress is linearized around the frozen tangent D_Q Z and refrozen in a
short loop inside each step.  That loop is Newton's method: with the
tangent frozen at the current iterate, the shifted operator is the exact
Jacobian of the step residual, so the increments of a converging step fall
off quadratically (the picard_* keys, PicardDivergence and the
'picard_divergence' termination keep their names).  The frozen tangent is
symmetric positive semidefinite, so every shifted operator alpha I + L is
symmetric positive definite, and solve_shifted, the one linear solve of the
time step and of the heat extension, assembles it as one CSR matrix and
runs conjugate gradients; a solve that does not converge ends the run as
'linear_solver_failure'.  The CG loop is the package's own (krylov.cg, bound
here as spla): scipy.sparse.linalg.cg's stopping rule and iterates, without
importing scipy.sparse.linalg.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sp

from . import krylov as spla
from .constitutive import (dissipation_density, piola_stress, viscous_stress,
                           viscous_tangent_field)
from .errors import (BoundaryMismatch, Interpenetration, InvalidConfig,
                     LinearSolveFailure, PicardDivergence, RangeError,
                     require_integer)

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
    require_integer('dim', dim)
    if dim not in (1, 2, 3):
        raise RangeError('dim', "must be 1, 2 or 3")
    require_integer('cells', cells)
    if cells < 4:
        raise RangeError('cells', "must be at least 4")
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
    """The number of steps dt that make up t_end, or None if it is not a
    positive whole number (so also for an infinite t_end or dt).

    t_end / dt may miss an integer by STEP_TOL relative, to absorb the
    roundoff of decimal step sizes such as 0.1 / 1e-3.
    """
    ratio = t_end / dt
    if not math.isfinite(ratio):
        return None
    steps = round(ratio)
    return steps if steps >= 1 and abs(ratio - steps) <= STEP_TOL * ratio else None


@dataclass(frozen=True)
class SolverConfig:
    """Time step, Newton-loop and CG controls and the determinant floor, and
    the one owner of their defaults and ranges: RangeError names the first key
    out of range (positivity, a finite dt, whole steps, then picard_max and
    save_every, each an integer of at least 1)."""

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
                raise RangeError(key, "must be positive")
        if not math.isfinite(self.dt):
            raise RangeError('dt', "must be finite")
        if whole_steps(self.t_end, self.dt) is None:
            raise RangeError('t_end',
                             f"must be a whole number of steps dt = {self.dt!r}")
        for key in ('picard_max', 'save_every'):
            require_integer(key, getattr(self, key))
            if getattr(self, key) < 1:
                raise RangeError(key, "must be at least 1")


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


def _cell_table(dim, cells):
    """The grid's connectivity (corners, local, d), the source of G and of
    the operator pattern: corners are a cell's 2^dim corner offsets in
    lexicographic order, local[cell] the cell's row-major nodal dofs
    (corner, component), so each row ascends, and d (dim^2 x 2^dim dim) the
    per-cell gradient on them, the averaged corner difference: row (r, c)
    holds -/+ cells / 2^(dim-1) on component r of the corners at offset 0/1
    along axis c."""
    comp = np.arange(dim)
    corners = np.indices((2,) * dim).reshape(dim, -1).T
    lower = np.indices((cells,) * dim).reshape(dim, -1).T
    nodes = (lower[:, None] + corners) @ (cells + 1) ** np.arange(dim - 1, -1, -1)
    local = (nodes[..., None] * dim + comp).reshape(lower.shape[0], -1)
    d = np.zeros((dim, dim, corners.shape[0], dim))
    d[comp, :, :, comp] = (2 * corners.T - 1) * cells / 2 ** (dim - 1)
    return corners, local, d.reshape(dim * dim, -1)


@lru_cache(maxsize=8)
def clamped_gradient(dim, cells):
    """The cell gradient G as sparse matrices, built once per grid.

    G maps row-major nodal dofs (node, r) to row-major cell gradients
    (cell, r, c): row (cell, r, c) holds the nonzeros of row (r, c) of the
    per-cell gradient d of _cell_table, placed on the cell's local dofs.
    Returns (G, G_I, G_I^T, dofs), where dofs are the interior (unclamped)
    nodal dofs and G_I = G[:, dofs].  The returned arrays are shared between
    callers and read-only.
    """
    n = dim
    _, local, d = _cell_table(dim, cells)
    cols = np.nonzero(d)[1].reshape(d.shape[0], -1)
    indices = local[:, cols].reshape(-1).astype(np.int32)
    indptr = np.arange(0, indices.size + 1, cols.shape[1], dtype=np.int32)
    g = sp.csr_matrix((np.tile(d[d != 0], local.shape[0]), indices, indptr),
                      shape=(indptr.size - 1, n * (cells + 1) ** dim))
    interior = np.nonzero(~Grid(dim, cells).boundary_mask().reshape(-1))[0]
    dofs = (interior[:, None] * n + np.arange(n)).reshape(-1)
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
    (corner, component), corner-major.  indices/indptr are the canonical
    CSR pattern of G_I^T blockdiag(M) G_I (each row's columns strictly
    ascending), and diag holds the slot of each row's diagonal.  Each block
    (first cell, lo, hi, slots) covers SCATTER_BLOCK cells whose local
    entries (cell, a, b) land in the CSR range [lo, hi): slots holds
    slot - lo, or hi - lo (a trash slot) where a or b is a clamped dof.
    """

    d: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    diag: np.ndarray
    blocks: tuple

    @property
    def size(self):
        return self.indptr.size - 1


@lru_cache(maxsize=8)
def _operator_pattern(dim, cells):
    """Build the OperatorPattern of a grid once, from its cell table.

    Row (i, r) of the interior operator couples interior node i, component
    r, to every component s of the interior nodes i + o, o in {-1, 0, 1}^dim.
    Row-major numbering orders those columns as the stencil entries (o, s)
    lexicographically, so each row is stored in that order (canonical CSR)
    and a column's slot counts the in-domain entries before it.  The local
    entry between corners alpha and beta of a cell is the stencil entry
    (beta - alpha, s), so every cell's local pairs fill in the columns.  The
    per-cell tables are built one block of SCATTER_BLOCK cells at a time.
    """
    n = dim
    corners, local, d = _cell_table(dim, cells)
    dofs = clamped_gradient(dim, cells)[3]
    interior = np.full(n * (cells + 1) ** dim, -1)
    interior[dofs] = np.arange(dofs.size)
    loc = interior[local]
    # stencil entry (beta - alpha, s) of each local pair (a, b)
    corner_of = np.repeat(corners, n, axis=0)
    step = corner_of[None, :, :] - corner_of[:, None, :] + 1
    entry = ((step @ 3 ** np.arange(dim - 1, -1, -1)) * n
             + np.arange(loc.shape[1]) % n)

    # column of every stencil entry (o, s) of every interior row (i, r), -1
    # where clamped; the local pairs of clamped rows (-1) land in a trash row
    col_of = np.full((dofs.size + 1, 3 ** dim * n), -1, dtype=np.int32)
    col_of[loc[:, :, None], entry] = loc[:, None, :]
    valid = col_of[:-1] >= 0
    indptr = np.zeros(dofs.size + 1, dtype=np.int32)
    np.cumsum(valid.sum(axis=1, dtype=np.int32), out=indptr[1:])
    # slot of (o, s): its row's start plus the in-domain entries before it
    slot_of = np.cumsum(valid, axis=1, dtype=np.int32)
    slot_of += indptr[:-1, None] - 1
    indices = col_of[:-1][valid]
    rows = np.arange(dofs.size)
    diag = slot_of[rows, (3 ** dim // 2) * n + rows % n]

    blocks = []
    for first in range(0, loc.shape[0], SCATTER_BLOCK):
        part = loc[first:first + SCATTER_BLOCK]
        row, col = part[:, :, None], part[:, None, :]
        kept = (row >= 0) & (col >= 0)
        slot = slot_of[np.maximum(row, 0), entry]
        hit = slot[kept]
        lo, hi = int(hit.min()), int(hit.max()) + 1
        slots = np.where(kept, slot - lo, hi - lo).astype(np.int32)
        _read_only(slots)
        blocks.append((first, lo, hi, slots))
    pattern = OperatorPattern(d, indices, indptr, diag, tuple(blocks))
    _read_only(pattern.d, pattern.indices, pattern.indptr, pattern.diag)
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
        """shift I + G_I^T blockdiag(M) G_I as a new canonical CSR matrix
        that shares the grid's cached, read-only indices and indptr."""
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
    solve it: the package's krylov.cg, warm-started at x0_nodal, which stops
    at |b - A x| < tol |b| as scipy.sparse.linalg.cg does and gives the same
    iterates.  Raises LinearSolveFailure when CG misses tol within its
    iteration cap; run records that as 'linear_solver_failure'.
    """
    grid = op.grid
    b = _interior_vec(grid, rhs_nodal)
    if not np.any(b):
        return np.zeros(grid.node_shape + (grid.dim,))
    a = op.interior_matrix(alpha)
    x0 = None if x0_nodal is None else _interior_vec(grid, x0_nodal)
    maxiter = max(1000, 2 * b.size)
    x, info = spla.cg(a, b, x0=x0, rtol=tol, maxiter=maxiter)
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

    With F = grad xi^n and v^0 = v^n, the refreezing loop k = 0, 1, ... solves

        (v_new - v^n)/dt - div(M^k grad v_new)
            = div(DW(F)) + div(Z(F, grad v^k) - M^k grad v^k) + f,

    refreezing M^k = D_Q Z(F, grad v^k) between iterations, until the sup
    increment drops below picard_tol or picard_max solves were spent.  This
    is Newton's method on the step residual
    (v - v^n)/dt - div(DW(F)) - div Z(F, grad v) - f, whose exact Jacobian
    at v^k is I/dt - div(M^k grad), so a converging step's increments fall
    off quadratically.  For
    viscosities linear in the velocity gradient the first iterate is already
    the solution, so the loop stops after one solve.  Then xi advances by
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
    first_inc = None
    for _ in range(cfg.picard_max):
        grad_vk = gradient_field(grid, v_k)
        m_k = viscous_tangent_field(model.viscosity, f_cells, grad_vk)
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
