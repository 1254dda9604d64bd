"""Structured-grid discretization of the viscoelastic momentum balance.

The domain is [0,1]^dim (dim 1-3) with clamped boundary nodes.  One cached
cell table (see _cell_table) states the grid once: each cell's corner dofs,
the per-cell gradient D on them (the averaged corner difference) and the
interior (unclamped) dofs.  The cell gradient G, which maps nodal vectors
to gradients at cell centers, is applied from that table and never stored
as a matrix: the gradient gathers each cell's dofs and multiplies by D, and
the stress divergence -G_I^T P multiplies each cell's stress by D and
scatters it back onto the interior dofs, so the summation-by-parts pair
holds by construction.  The viscous operator G_I^T blockdiag(M) G_I is
assembled on a pattern fixed by the grid and built from the same table (see
_operator_pattern): each cell contributes D^T M_c D, and a cached scatter
adds those local entries into the slots of a canonical (column-sorted) CSR
pattern built once per grid.  With the pattern the module builds the grid's
one scipy object, a CSR matrix with no data of its own; every assembly
hands out a shallow copy of it that owns its freshly assembled data and
shares the pattern's read-only indices and indptr.  Time stepping is
semi-implicit: the elastic stress is explicit, the viscous stress is
linearized around the frozen tangent D_Q Z and refrozen in a short loop
inside each step.  That loop is Newton's method:
with the tangent frozen at the current iterate, the shifted operator is the
exact Jacobian of the step residual, so the increments of a converging step
fall off quadratically (the picard_* keys, PicardDivergence and the
'picard_divergence' termination keep their names).  Every catalogue stress
is homogeneous of degree p in the velocity gradient, so the tangent maps
grad v^k to p Z(F, grad v^k) and the Newton right-hand side needs only
-(p - 1) div Z(F, grad v^k) beyond the fixed terms: nothing for p = 1.  For
p > 1 (zm, m >= 1) one constitutive pass per iterate gives Z and the
tangent together, from a viscous_response built once per step, which takes
F^-1 once for the step's frozen F, the dissipation ledger's Z included.
The frozen tangent is symmetric positive semidefinite, so every shifted
operator alpha I + L is symmetric positive definite, and solve_shifted, the
one linear solve of the time step and of the heat extension, assembles it
as one CSR matrix and runs conjugate gradients; a solve that does not
converge ends the run as 'linear_solver_failure'.  The CG loop is the package's own (krylov.cg,
bound here as spla): scipy.sparse.linalg.cg's stopping rule and iterates,
without importing scipy.sparse.linalg.
"""

import copy
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce

import numpy as np
import scipy.sparse as sp

from . import krylov as spla
from .constitutive import (dissipation_density, piola_stress, viscous_response,
                           viscous_stress, viscous_tangent_field)
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
    out of range (positivity, then finite dt, picard_tol, det_floor and
    linear_tol, whole steps, then picard_max and save_every, each an integer
    of at least 1)."""

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
        for key in ('dt', 'picard_tol', 'det_floor', 'linear_tol'):
            if not math.isfinite(getattr(self, key)):
                raise RangeError(key, "must be finite")
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


def _clamp_boundary(grid, xi, v):
    """Check the boundary values of nodal xi and v against the clamped
    conditions (xi = X, v = 0), then overwrite them exactly, in place."""
    x = grid.node_positions()
    bmask = grid.boundary_mask()
    mism = max(np.max(np.abs(xi[bmask] - x[bmask])), np.max(np.abs(v[bmask])))
    if mism > CLAMP_TOL:
        raise BoundaryMismatch(f"boundary violates clamping by {mism:.3e}")
    xi[bmask] = x[bmask]
    v[bmask] = 0.0


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
    _clamp_boundary(grid, xi, v)
    dets = np.linalg.det(gradient_field(grid, xi))
    if np.min(dets) <= det_floor:
        raise Interpenetration(
            f"min cell det = {np.min(dets):.3e} <= floor {det_floor:.3e}")
    return FieldState(0.0, xi, v, 0.0)


@lru_cache(maxsize=8)
def _cell_table(dim, cells):
    """The grid's one statement of G, built once per grid and read-only:
    (corners, local, d, dofs).  corners are a cell's 2^dim corner offsets in
    lexicographic order, local[cell] the cell's row-major nodal dofs
    (corner, component), so each row ascends, and d (dim^2 x 2^dim dim) the
    per-cell gradient on them, the averaged corner difference: row (r, c)
    holds -/+ cells / 2^(dim-1) on component r of the corners at offset 0/1
    along axis c.  dofs are the interior (unclamped) nodal dofs, ascending.
    So G maps row-major nodal dofs (node, r) to row-major cell gradients
    (cell, r, c), and G_I = G[:, dofs]."""
    comp = np.arange(dim)
    corners = np.indices((2,) * dim).reshape(dim, -1).T
    lower = np.indices((cells,) * dim).reshape(dim, -1).T
    nodes = (lower[:, None] + corners) @ (cells + 1) ** np.arange(dim - 1, -1, -1)
    local = (nodes[..., None] * dim + comp).reshape(lower.shape[0], -1)
    d = np.zeros((dim, dim, corners.shape[0], dim))
    d[comp, :, :, comp] = (2 * corners.T - 1) * cells / 2 ** (dim - 1)
    d = d.reshape(dim * dim, -1)
    interior = np.nonzero(~Grid(dim, cells).boundary_mask().reshape(-1))[0]
    dofs = (interior[:, None] * dim + comp).reshape(-1)
    _read_only(corners, local, d, dofs)
    return corners, local, d, dofs


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class OperatorPattern:
    """The grid-fixed part of the interior viscous operator.

    indices/indptr are the canonical CSR pattern of G_I^T blockdiag(M) G_I
    (each row's columns strictly ascending), and diag holds the slot of each
    row's diagonal.  template is the grid's one scipy object: the CSR matrix
    on indices/indptr, whose data, a read-only zero-stride view of 0.0,
    takes no memory; interior_matrix copies it.  Each block
    (first cell, lo, hi, slots) covers SCATTER_BLOCK cells whose local
    entries (cell, a, b) land in the CSR range [lo, hi): slots holds
    slot - lo, or hi - lo (a trash slot) where a or b is a clamped dof.
    """

    indices: np.ndarray
    indptr: np.ndarray
    diag: np.ndarray
    blocks: tuple
    template: sp.csr_matrix


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
    corners, local, _, dofs = _cell_table(dim, cells)
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
    _read_only(indices, indptr, diag)
    zeros = np.broadcast_to(0.0, indices.size)
    template = sp.csr_matrix((zeros, indices, indptr),
                             shape=(dofs.size, dofs.size))
    return OperatorPattern(indices, indptr, diag, tuple(blocks), template)


def gradient_field(grid, nodal):
    """Cell-centered gradient G u by averaged corner differences, applied
    from the cell table: each cell's dofs gathered and multiplied by d.

    Exact for affine fields; second-order accurate at cell centers.
    Returns shape cell_shape + (dim, dim) with F[..., r, c] = d xi_r / d X_c.
    """
    _, local, d, _ = _cell_table(grid.dim, grid.cells)
    n = grid.dim
    return (nodal.reshape(-1)[local] @ d.T).reshape(grid.cell_shape + (n, n))


def stress_divergence(grid, cell_stress):
    """Row-wise divergence -G_I^T P: exact negative adjoint of gradient_field.

    Each cell's stress is multiplied by the cell table's d and scattered
    onto the cell's dofs, so <div P, w>_nodes = -<P, grad w>_cells for every
    clamped w.  Boundary rows are zero (clamped degrees of freedom carry no
    equation).
    """
    _, local, d, dofs = _cell_table(grid.dim, grid.cells)
    nodal = np.bincount(local.reshape(-1),
                        (cell_stress.reshape(local.shape[0], -1) @ d).reshape(-1),
                        minlength=grid.num_nodes * grid.dim)
    return _from_interior(grid, -nodal[dofs])


class ViscousOperator:
    """w -> -div(M grad w) on clamped nodal vector fields.

    m_cells holds the frozen tangent of every cell as (cells..., n^2, n^2)
    (identity_tangent broadcasts one map to that shape).  The interior
    matrix G_I^T blockdiag(M) G_I, the composition of gradient_field, the
    cell-wise tangent and stress_divergence, is the operator's one
    statement: it is assembled as the sum over cells of D^T M_c D, with D
    the cell table's d, scattered into the grid's fixed CSR pattern; a
    shift is added at the diagonal slots after every block.
    """

    def __init__(self, grid, m_cells):
        self.grid = grid
        self.m_cells = np.asarray(m_cells, dtype=float)

    def interior_matrix(self, shift=0.0):
        """shift I + G_I^T blockdiag(M) G_I as a canonical CSR matrix: a
        shallow copy of the grid's cached template that owns its new data and
        shares the template's read-only indices and indptr, so scipy's
        constructor runs once per grid, not once per call."""
        pat = _operator_pattern(self.grid.dim, self.grid.cells)
        d = _cell_table(self.grid.dim, self.grid.cells)[2]
        k = self.grid.dim ** 2
        m = self.m_cells.reshape(-1, k, k)
        data = np.zeros(pat.indices.size)
        for first, lo, hi, slots in pat.blocks:
            local = d.T @ (m[first:first + slots.shape[0]] @ d)
            data[lo:hi] += np.bincount(slots.reshape(-1), local.reshape(-1),
                                       minlength=hi - lo + 1)[:-1]
        data[pat.diag] += shift
        matrix = copy.copy(pat.template)
        matrix.data = data
        return matrix


def identity_tangent(grid):
    """Cell field of identity maps; the assembled operator is -Laplace."""
    n = grid.dim
    return np.broadcast_to(np.eye(n * n), grid.cell_shape + (n * n, n * n))


def _interior_vec(grid, nodal):
    dofs = _cell_table(grid.dim, grid.cells)[3]
    return nodal.reshape(-1)[dofs]


def _from_interior(grid, vec):
    dofs = _cell_table(grid.dim, grid.cells)[3]
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
    off quadratically.  Z has degree p in Q (ViscosityModel.degree), so by
    Euler's theorem M^k grad v^k = p Z(F, grad v^k) and the right-hand side
    is built as v^n/dt + div(DW(F)) + f - (p - 1) div Z(F, grad v^k).  For
    p > 1 the step builds viscous_response(model.viscosity, F) once, so F^-1
    is taken once per step, and each iterate makes one call of it for both
    Z(F, grad v^k) and M^k.  For p = 1 the iterate takes M^k from
    viscous_tangent_field and evaluates no stress, and the first iterate is
    already the solution, so the loop stops after one solve.  Then xi
    advances by dt * v_new.  An unforced step adds
    dt h^d sum_cells Z(F, G v_new):G v_new and the numerical dissipation
    1/2 h^d sum_nodes |v_new - v^n|^2 to the dissipation ledger (for p > 1
    with Z from the step's viscous_response, so from the same F^-1); a
    forced step keeps none.

    A right-hand side that is not finite (an overflowing elastic stress,
    forcing or Z) raises PicardDivergence before its solve: CG's stopping
    test is never true on NaN, so it would spend its whole iteration cap
    and report a linear-solver failure instead.
    """
    dt = cfg.dt
    f_cells = gradient_field(grid, state.xi)
    elastic = stress_divergence(grid, piola_stress(model.energy, f_cells))
    rhs_fixed = state.v / dt + elastic
    if forcing is not None:
        rhs_fixed = rhs_fixed + forcing(state.time + dt, grid)

    p = model.viscosity.degree
    respond = viscous_response(model.viscosity, f_cells) if p > 1 else None
    v_k = state.v
    first_inc = None
    # an overflowing nonlinear term ends the step below as PicardDivergence,
    # not also as numpy's floating-point warnings
    with np.errstate(over='ignore', invalid='ignore'):
        for _ in range(cfg.picard_max):
            grad_vk = gradient_field(grid, v_k)
            if p > 1:
                z, m_k = respond(grad_vk)
                rhs = rhs_fixed - (p - 1) * stress_divergence(grid, z)
            else:
                rhs = rhs_fixed
                m_k = viscous_tangent_field(model.viscosity, f_cells, grad_vk)
            if not np.all(np.isfinite(rhs)):
                raise PicardDivergence("non-finite right-hand side")
            op = ViscousOperator(grid, m_k)
            v_new = solve_shifted(op, 1.0 / dt, rhs, cfg.linear_tol,
                                  x0_nodal=v_k)
            inc = float(np.max(np.abs(v_new - v_k)))
            if first_inc is None:
                first_inc = inc
            elif inc > 10.0 * max(first_inc, 1e-300):
                raise PicardDivergence(
                    f"increment grew from {first_inc:.3e} to {inc:.3e}")
            v_k = v_new
            if inc <= cfg.picard_tol or p == 1:
                break
    dissipated = None
    if forcing is None and state.dissipated is not None:
        dv = v_k - state.v
        density = (respond.dissipation if p > 1
                   else partial(dissipation_density, model.viscosity, f_cells))
        # the cell gradient stays a temporary, freed before the new state
        rate = density(gradient_field(grid, v_k))
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
    linear_tol.  dt, t_end and save_every are checked as in SolverConfig;
    the boundary values of xi0 and xi1 are checked and then overwritten
    exactly, as in init_state.
    """
    cfg = SolverConfig(dt, t_end, save_every=save_every)
    n_steps = whole_steps(t_end, dt)
    xibar = np.array(xi0, dtype=float)
    v = np.array(xi1, dtype=float)
    _clamp_boundary(grid, xibar, v)
    op = ViscousOperator(grid, identity_tangent(grid))
    states = [FieldState(0.0, xibar, v)]
    for k in range(1, n_steps + 1):
        v_new = solve_shifted(op, 1.0 / dt, v / dt, cfg.linear_tol, x0_nodal=v)
        xibar = xibar + 0.5 * dt * (v + v_new)
        v = v_new
        if k % save_every == 0 or k == n_steps:
            states.append(FieldState(k * dt, xibar.copy(), v.copy()))
    return Trajectory(states, Termination('completed'))


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
    than by an independent quadrature of the forcing.  The exact fields come
    from exact.fields_at, sampled once at the grid's centers and nodes.
    """
    fields = exact.fields_at(grid.cell_centers(), grid.node_positions())

    def f(t, g):
        fc, qc, acc = fields(t)
        p = piola_stress(model.energy, fc) + viscous_stress(model.viscosity, fc, qc)
        return acc - stress_divergence(g, p)

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


def _sines(x, dim):
    """s(x), the product over the axes of sin(pi x_s)."""
    return reduce(np.multiply, [np.sin(np.pi * x[..., s]) for s in range(dim)])


def _sine_slopes(x, dim):
    """The gradient of s as (..., dim): entry c is pi times the per-axis
    factors in axis order, with cos at axis c."""
    x = np.asarray(x, dtype=float)
    return np.stack([reduce(np.multiply,
                            [(np.cos if s == c else np.sin)(np.pi * x[..., s])
                             for s in range(dim)], np.pi)
                     for c in range(dim)], axis=-1)


def _with_bump(base, coef, shape):
    # base plus coef * s in the first component
    out = np.array(base, dtype=float)
    out[..., 0] += coef * shape
    return out


def _bump_grad(coef, slopes, identity):
    # the gradient of coef * s e_1 from the slopes of s, plus I if asked
    dim = slopes.shape[-1]
    out = np.zeros(slopes.shape + (dim,))
    out[..., 0, :] = coef * slopes
    if identity:
        for r in range(dim):
            out[..., r, r] += 1.0
    return out


@dataclass(frozen=True)
class _SineBump:
    """The package's manufactured solution, xi = X + a e^-t s(X) e_1 with
    s(X) the product over the axes of sin(pi X_s): a decaying bump in the
    first component, clamped on every face of [0,1]^dim.

    xi, xi_t and xi_tt map (t, points) -> (..., dim) values at points of
    shape (..., dim); grad_xi and grad_xi_t return (..., dim, dim)
    gradients.
    """

    dim: int
    amplitude: float

    def xi(self, t, x):
        return _with_bump(x, self.amplitude * math.exp(-t), _sines(x, self.dim))

    def xi_t(self, t, x):
        return _with_bump(np.zeros(np.shape(x)), -self.amplitude * math.exp(-t),
                          _sines(x, self.dim))

    def xi_tt(self, t, x):
        return _with_bump(np.zeros(np.shape(x)), self.amplitude * math.exp(-t),
                          _sines(x, self.dim))

    def grad_xi(self, t, x):
        return _bump_grad(self.amplitude * math.exp(-t),
                          _sine_slopes(x, self.dim), True)

    def grad_xi_t(self, t, x):
        return _bump_grad(-self.amplitude * math.exp(-t),
                          _sine_slopes(x, self.dim), False)

    def fields_at(self, centers, nodes):
        """t -> (grad_xi(t, centers), grad_xi_t(t, centers), xi_tt(t, nodes)),
        the fields manufactured_forcing reads.  s is sampled at the nodes and
        its slopes at the centers once, and each t only scales them with the
        per-point methods' products in their order, so every bit is theirs."""
        a = self.amplitude
        slopes = _sine_slopes(centers, self.dim)
        shape = _sines(nodes, self.dim)
        zeros = np.zeros(np.shape(nodes))

        def at(t):
            return (_bump_grad(a * math.exp(-t), slopes, True),
                    _bump_grad(-a * math.exp(-t), slopes, False),
                    _with_bump(zeros, a * math.exp(-t), shape))
        return at


def manufactured_default(dim, amplitude=0.01):
    """Reference verification case, and the one manufactured solution: the
    decaying product-of-sines bump of _SineBump."""
    return _SineBump(dim, amplitude)
