"""Trajectory monitors: energy balance, determinant floor, deviation norms.

The energy bookkeeping uses the solver's own discretization.  Kinetic
energy is a nodal sum with the scheme's mass h^d per node; elastic energy
is a cell sum at the cell centers where the discrete gradients live, so
the summation-by-parts pair gives d/dt 1/2 h^d sum|v|^2 = -h^d sum_cells
P : G v exactly.  The dissipation is the ledger each unforced time step
adds to (FieldState.dissipated), viscous plus numerical, so it does not
depend on which snapshots were stored; forced runs keep no ledger.
"""

from dataclasses import dataclass

import numpy as np

# dissipation_density stays bound here: perfbench/tracing.py wraps it by this name
from .constitutive import dissipation_density, energy  # noqa: F401
from .errors import MismatchedSampling
from .pde_solver import gradient_field


@dataclass(frozen=True)
class EnergyReport:
    times: np.ndarray
    kinetic: np.ndarray
    elastic: np.ndarray
    dissipated_cumulative: np.ndarray
    balance_residual: np.ndarray


@dataclass(frozen=True)
class ThetaReport:
    """Space-time L_p norms of a trajectory's distance to its extension.

    theta measures (xi - xibar): the L_p norm of its second time difference
    plus the L_p norm of the second space differences of its velocity;
    d_of_t is the same functional of the extension alone.
    """

    window: float
    theta: float
    d_of_t: float
    p_norm: float


def energy_report(traj, model, grid):
    """Kinetic/elastic energy, dissipation and the balance residual of an
    unforced trajectory.

    Kinetic energy is 1/2 h^d sum_nodes |v|^2, the nodal mass of
    semi_implicit_step, and elastic energy the h^d sum over cells of
    W(G xi).  dissipated is the ledger each snapshot carries: per step,
    dt h^d sum_cells Z(F^n, G v^{n+1}) : G v^{n+1} plus the numerical
    dissipation 1/2 h^d sum_nodes |v^{n+1} - v^n|^2.  residual(t) = E(t) +
    dissipated(t) - E(0) is then the error of the explicit elastic stress,
    first order in dt.  Raises ValueError for a trajectory without a
    ledger: a forced run, or one not started from init_state.
    """
    if not traj.states:
        raise ValueError("empty trajectory")
    if any(st.dissipated is None for st in traj.states):
        raise ValueError("trajectory keeps no dissipation ledger "
                         "(forced run, or not started from init_state)")
    hvol = grid.spacing ** grid.dim
    kin = np.array([0.5 * hvol * float(np.sum(st.v * st.v)) for st in traj.states])
    ela = np.array([hvol * float(np.sum(energy(model.energy, gradient_field(grid, st.xi))))
                    for st in traj.states])
    diss = np.array([st.dissipated for st in traj.states])
    total = kin + ela
    residual = total + diss - total[0]
    return EnergyReport(traj.times, kin, ela, diss, residual)


def min_det_series(traj, grid):
    """(time, minimum cell determinant) per snapshot."""
    out = []
    for st in traj.states:
        dets = np.linalg.det(gradient_field(grid, st.xi))
        out.append((st.time, float(np.min(dets))))
    return out


def _second_space_diff_norm_p(grid, nodal, p):
    """Sum over interior nodes of |second axis-aligned differences|^p."""
    h2 = grid.spacing ** 2
    inner = (slice(1, -1),) * grid.dim
    mag2 = 0.0
    for ax in range(grid.dim):
        plus = inner[:ax] + (slice(2, None),) + inner[ax + 1:]
        minus = inner[:ax] + (slice(None, -2),) + inner[ax + 1:]
        d2 = (nodal[plus] - 2.0 * nodal[inner] + nodal[minus]) / h2
        mag2 += np.sum(d2 * d2, axis=-1)
    return float(np.sum(mag2 ** (p / 2.0)))


def _pair_norm(grid, xi_list, v_list, times, p):
    """||u_tt||_p + ||grad^2 u_t||_p over interior snapshots, u = (xi, v)."""
    if len(times) < 3:
        raise MismatchedSampling("need at least 3 snapshots")
    dt = times[1] - times[0]
    hvol = grid.spacing ** grid.dim
    acc_tt = 0.0
    acc_xx = 0.0
    for k in range(1, len(times) - 1):
        utt = (xi_list[k + 1] - 2.0 * xi_list[k] + xi_list[k - 1]) / dt ** 2
        mag2 = np.sum(utt * utt, axis=-1)
        acc_tt += float(np.sum(mag2 ** (p / 2.0))) * hvol * dt
        acc_xx += _second_space_diff_norm_p(grid, v_list[k], p) * hvol * dt
    return acc_tt ** (1.0 / p) + acc_xx ** (1.0 / p)


def theta_norm(traj, extension, grid, p, t_max=None):
    """Deviation monitor of a trajectory relative to its heat extension.

    Second differences replace the continuum derivatives: centered in time
    (endpoints dropped) and axis-aligned in space; the discrete L_p norm
    uses the node spacing and snapshot spacing as quadrature weights.  Also
    evaluates the extension's own norm, which must vanish as the window
    shrinks.
    """
    if not grid.dim + 2 < p < np.inf:
        raise ValueError(f"p must be finite and exceed dim + 2 = {grid.dim + 2}")
    if t_max is not None:
        traj = traj.restrict(t_max)
        extension = extension.restrict(t_max)
    states_a = traj.states
    states_b = extension.states
    if len(states_a) != len(states_b):
        raise MismatchedSampling(
            f"{len(states_a)} trajectory vs {len(states_b)} extension snapshots")
    ta = np.array([s.time for s in states_a])
    tb = np.array([s.time for s in states_b])
    if np.max(np.abs(ta - tb)) > 1e-12:
        raise MismatchedSampling("snapshot times differ")
    gaps = np.diff(ta)
    if len(gaps) and np.max(np.abs(gaps - gaps[0])) > 1e-12:
        raise MismatchedSampling("second differences need uniform snapshot spacing")
    window = float(ta[-1] - ta[0])
    diff_xi = [a.xi - b.xi for a, b in zip(states_a, states_b)]
    diff_v = [a.v - b.v for a, b in zip(states_a, states_b)]
    theta = _pair_norm(grid, diff_xi, diff_v, ta, p)
    d_of_t = _pair_norm(grid, [s.xi for s in states_b],
                        [s.v for s in states_b], tb, p)
    return ThetaReport(window, theta, d_of_t, p)
