import numpy as np
import pytest

from viscolab.cli_harness import RunSpec, preset_functions
from viscolab.constitutive import ConstitutiveModel, EnergyModel, ViscosityModel
from viscolab.diagnostics import (energy_report, min_det_series, theta_norm,
                                  _second_space_diff_norm_p)
from viscolab.errors import MismatchedSampling
from viscolab.pde_solver import (FieldState, SolverConfig, Termination,
                                 Trajectory, build_grid, heat_extension,
                                 init_state, manufactured_default,
                                 manufactured_run, run)

MODEL = ConstitutiveModel(EnergyModel.w0(), ViscosityModel.z0doubleprime())


@pytest.fixture(scope="module")
def decay():
    grid = build_grid(1, 64)
    state = init_state(grid, lambda x: np.array(x, copy=True),
                       lambda x: 0.1 * np.sin(np.pi * x), 1e-3)
    traj = run(MODEL, grid, SolverConfig(dt=1e-3, t_end=0.4), state)
    ext = heat_extension(grid, state.xi, state.v, 1e-3, 0.4)
    return grid, traj, ext


def test_rest_report_is_zero():
    grid = build_grid(1, 16)
    state = init_state(grid, lambda x: np.array(x, copy=True),
                       lambda x: np.zeros_like(x), 1e-3)
    traj = run(MODEL, grid, SolverConfig(dt=1e-2, t_end=0.1), state)
    rep = energy_report(traj, MODEL, grid)
    assert not rep.kinetic.any()
    assert not rep.elastic.any()
    assert not rep.dissipated_cumulative.any()
    assert not rep.balance_residual.any()
    assert all(d == 1.0 for _, d in min_det_series(traj, grid))


def test_decay_energy_budget(decay):
    grid, traj, _ = decay
    rep = energy_report(traj, MODEL, grid)
    total = rep.kinetic + rep.elastic
    assert np.all(np.diff(total) <= 1e-15)
    assert np.all(np.diff(rep.dissipated_cumulative) >= -1e-15)
    # the residual carries the O(dt) scheme error, ~1% of E(0) at dt = 1e-3
    assert np.max(np.abs(rep.balance_residual)) <= 5e-2 * total[0]


def test_balance_residual_shrinks_with_dt():
    grid = build_grid(1, 32)
    residuals = []
    for dt in (2e-3, 1e-3):
        state = init_state(grid, lambda x: np.array(x, copy=True),
                           lambda x: 0.1 * np.sin(np.pi * x), 1e-3)
        traj = run(MODEL, grid, SolverConfig(dt=dt, t_end=0.2), state)
        rep = energy_report(traj, MODEL, grid)
        residuals.append(abs(rep.balance_residual[-1]))
    assert residuals[0] / residuals[1] >= 1.8


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_balance_residual_first_order_on_coarse_grid(dim):
    # kinetic energy with the scheme's nodal mass leaves no residual floor:
    # a 4x smaller dt cuts the residual about 4x even on 6 cells
    grid = build_grid(dim, 6)
    direction = np.array([1.0, -0.5, 0.25])[:dim]
    rel = []
    for dt in (1e-3, 2.5e-4):
        state = init_state(
            grid, lambda x: np.array(x, copy=True),
            lambda x: 0.1 * np.prod(np.sin(np.pi * x), axis=-1)[..., None]
            * direction, 1e-3)
        traj = run(MODEL, grid, SolverConfig(dt=dt, t_end=0.01), state)
        rep = energy_report(traj, MODEL, grid)
        e0 = rep.kinetic[0] + rep.elastic[0]
        rel.append(abs(rep.balance_residual[-1]) / e0)
    assert rel[0] / rel[1] >= 3.5


def test_ledger_does_not_depend_on_save_every():
    # 2D w1 + zm(1) under compression: the step's ledger balances the energy
    # to the elastic stress's O(dt) error however sparse the snapshots are
    grid = build_grid(2, 16)
    model = ConstitutiveModel(EnergyModel('w1', 2.0), ViscosityModel('zm', 1))
    xi0, xi1 = preset_functions(RunSpec('simulate', dim=2, cells=16,
                                        preset='compression', rate=10.0))
    final = []
    for save_every in (1, 20):
        cfg = SolverConfig(dt=1e-3, t_end=0.02, save_every=save_every)
        traj = run(model, grid, cfg, init_state(grid, xi0, xi1, 1e-3))
        assert traj.termination.kind == 'completed'
        rep = energy_report(traj, model, grid)
        e0 = rep.kinetic[0] + rep.elastic[0]
        assert np.max(np.abs(rep.balance_residual)) <= 1e-3 * e0
        final.append(rep.dissipated_cumulative[-1])
    assert final[0] == final[1]


def test_report_refuses_trajectories_without_ledger():
    grid = build_grid(1, 16)
    forced = manufactured_run(MODEL, grid, SolverConfig(dt=1e-3, t_end=1e-2),
                              manufactured_default(1)).trajectory
    assert all(st.dissipated is None for st in forced.states[1:])
    with pytest.raises(ValueError, match="ledger"):
        energy_report(forced, MODEL, grid)
    x = grid.node_positions()
    with pytest.raises(ValueError, match="ledger"):
        energy_report(heat_extension(grid, x, np.zeros_like(x), 1e-2, 0.1),
                      MODEL, grid)


def test_min_det_closed_form():
    # uniform shrinking map xi = (1 - eps t) X built by hand
    grid = build_grid(2, 8)
    x = grid.node_positions()
    eps = 0.3
    states = [FieldState(t, (1.0 - eps * t) * x, np.zeros_like(x))
              for t in (0.0, 0.5, 1.0)]
    traj = Trajectory(states, Termination('completed'))
    series = min_det_series(traj, grid)
    for t, d in series:
        assert d == pytest.approx((1.0 - eps * t) ** 2, abs=1e-12)


def test_theta_zero_for_rest(decay):
    grid = build_grid(1, 16)
    state = init_state(grid, lambda x: np.array(x, copy=True),
                       lambda x: np.zeros_like(x), 1e-3)
    traj = run(MODEL, grid, SolverConfig(dt=1e-2, t_end=0.1), state)
    ext = heat_extension(grid, state.xi, state.v, 1e-2, 0.1)
    rep = theta_norm(traj, ext, grid, p=4.0)
    assert rep.theta == 0.0
    assert rep.d_of_t == 0.0


def test_theta_zero_when_fed_extension(decay):
    grid, _, ext = decay
    rep = theta_norm(ext, ext, grid, p=4.0)
    assert rep.theta == 0.0
    assert rep.d_of_t > 0.0


def test_theta_monotone_in_window(decay):
    grid, traj, ext = decay
    thetas, ds = [], []
    for t_max in (0.4, 0.2, 0.1, 0.05):
        rep = theta_norm(traj, ext, grid, p=4.0, t_max=t_max)
        assert rep.window == pytest.approx(t_max)
        thetas.append(rep.theta)
        ds.append(rep.d_of_t)
    assert all(a > b > 0.0 for a, b in zip(thetas, thetas[1:]))
    assert all(a > b > 0.0 for a, b in zip(ds, ds[1:]))


def test_theta_mismatched_sampling(decay):
    grid, traj, ext = decay
    clipped = Trajectory(traj.states[:-3], traj.termination)
    with pytest.raises(MismatchedSampling):
        theta_norm(clipped, ext, grid, p=4.0)
    with pytest.raises(ValueError):
        theta_norm(traj, ext, grid, p=2.0)


@pytest.mark.parametrize("dim,axis", [(1, 0), (2, 0), (2, 1),
                                      (3, 0), (3, 1), (3, 2)])
def test_second_space_diff_norm_quadratic_one_axis(dim, axis):
    # u = c x_axis^2 has second difference 2c along that axis and 0 along
    # the others, at each of the (cells - 1)^dim interior nodes
    grid = build_grid(dim, 8)
    c = np.arange(1.0, dim + 1.0)
    nodal = grid.node_positions()[..., axis, None] ** 2 * c
    p = 6.0
    exact = 7 ** dim * np.linalg.norm(2.0 * c) ** p
    assert _second_space_diff_norm_p(grid, nodal, p) == pytest.approx(exact, rel=1e-9)


def test_run_3d_decay_end_to_end():
    grid = build_grid(3, 6)
    state = init_state(
        grid, lambda x: np.array(x, copy=True),
        lambda x: 0.1 * np.prod(np.sin(np.pi * x), axis=-1)[..., None]
        * np.array([1.0, -0.5, 0.25]), 1e-3)
    traj = run(MODEL, grid, SolverConfig(dt=1e-3, t_end=0.01), state)
    assert traj.termination.kind == 'completed'
    assert len(traj.states) == 11
    rep = energy_report(traj, MODEL, grid)
    assert np.all(np.diff(rep.kinetic + rep.elastic) <= 0.0)
    assert np.all(np.diff(rep.dissipated_cumulative) >= 0.0)
    ext = heat_extension(grid, state.xi, state.v, 1e-3, 0.01)
    assert np.isfinite(theta_norm(traj, ext, grid, p=6.0).theta)
