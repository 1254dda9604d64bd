"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
summary lines alongside the pytest verdicts.
"""

import math
import time
import zlib
from dataclasses import replace

import numpy as np
import pytest

import viscolab.cli_harness as cli
from viscolab.constitutive import (ConstitutiveModel, EnergyModel,
                                   ViscosityModel, energy, piola_stress,
                                   random_deformations, validate_axioms,
                                   viscous_stress, viscous_tangent_q)
from viscolab.diagnostics import energy_report, min_det_series, theta_norm
from viscolab.pde_solver import (SolverConfig, build_grid, heat_extension,
                                 init_state, manufactured_default,
                                 manufactured_run, run)
from viscolab.tensor_core import sym
from viscolab.wellposedness import (acoustic_spectrum, closed_form_gamma,
                                    fourier_korn_sample, rank_one_min,
                                    sector_scan)

VISCOSITIES = [ViscosityModel.z0doubleprime(), ViscosityModel.z0prime(),
               ViscosityModel.zm(0), ViscosityModel.zm(1), ViscosityModel.zm(2)]
ENERGIES = [EnergyModel.w0(), EnergyModel.w1(), EnergyModel.w2(),
            EnergyModel.w0(), EnergyModel.w1()]
DECAY_MODEL = ConstitutiveModel(EnergyModel.w0(), ViscosityModel.z0doubleprime())


def sym_map(n):
    """Matrix of Q -> sym(Q) in the row-major vectorization; it is symmetric."""
    return sym(np.eye(n * n).reshape(n * n, n, n)).reshape(n * n, n * n)


def seeded_rng(key):
    """Generator seeded from a tuple, the same in every process."""
    return np.random.default_rng(zlib.crc32(repr(key).encode()))


def _decay_state(grid):
    return init_state(grid, lambda x: np.array(x, copy=True),
                      lambda x: 0.1 * np.sin(np.pi * x), 1e-3)


@pytest.fixture(scope="module")
def decay_run():
    grid = build_grid(1, 64)
    traj = run(DECAY_MODEL, grid, SolverConfig(dt=1e-3, t_end=1.0),
               _decay_state(grid))
    return grid, traj


def test_criterion_01_constitutive_axioms():
    start = time.time()
    for dim in (2, 3):
        for rank, (en, visc) in enumerate(zip(ENERGIES, VISCOSITIES)):
            rep = validate_axioms(ConstitutiveModel(en, visc), dim,
                                  num_samples=1000, seed=100 + rank, tol=1e-9)
            assert rep.passed, (dim, visc)
            assert rep.max_frame_invariance_residual_w <= 1e-9
            assert rep.max_frame_invariance_residual_z <= 1e-9
            assert rep.max_angular_momentum_residual <= 1e-9
            assert rep.min_dissipation >= -1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\ncriterion 1 PASS: axioms hold on 1000 samples/model, n in {{2,3}} "
          f"({elapsed:.2f}s)")


def test_criterion_02_tangent_correctness():
    start = time.time()
    step = 1e-5
    for visc in VISCOSITIES:
        for dim in (2, 3):
            rng = seeded_rng((visc.kind, visc.m, dim))
            fs = random_deformations(dim, 50, rng)
            qs = rng.standard_normal((50, dim, dim))
            for f, q in zip(fs, qs):
                t = viscous_tangent_q(visc, f, q)
                fd = np.empty_like(t)
                for col in range(dim * dim):
                    e = np.zeros((dim, dim))
                    e.flat[col] = 1.0
                    fd[:, col] = ((viscous_stress(visc, f, q + step * e)
                                   - viscous_stress(visc, f, q - step * e))
                                  / (2 * step)).reshape(-1)
                rel = np.linalg.norm(fd - t) / np.linalg.norm(t)
                assert rel <= 1e-6, (visc, dim, rel)
    # elastic stress of the smooth energy against its own finite differences
    rng = np.random.default_rng(7)
    w0 = EnergyModel.w0()
    for f in random_deformations(2, 100, rng):
        s = piola_stress(w0, f)
        fd = np.empty((2, 2))
        for col in range(4):
            e = np.zeros((2, 2))
            e.flat[col] = 1.0
            fd.flat[col] = (energy(w0, f + step * e)
                            - energy(w0, f - step * e)) / (2 * step)
        assert np.linalg.norm(fd - s) / np.linalg.norm(s) <= 1e-6
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"criterion 2 PASS: analytic tangents match FD at 100 points/tensor "
          f"({elapsed:.2f}s)")


def dense_scan(m, count=3600):
    t4 = m.reshape(2, 2, 2, 2)
    ang = np.arange(count) * np.pi / count
    vecs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    best = np.inf
    for b in vecs:
        nb = np.einsum('ijkl,j,l->ik', t4, b, b)
        best = min(best, float(np.einsum('qi,ik,qk->q', vecs, nb, vecs).min()))
    return best


def test_criterion_03_korn_gamma_oracles(tmp_path):
    start = time.time()
    sym2 = sym_map(2)
    for m, expect in ((sym2, 2.0), (2.0 * sym2, 1.0)):
        oracle_gamma = 1.0 / dense_scan(m)
        est = rank_one_min(m).gamma_est
        assert est == pytest.approx(oracle_gamma, rel=1e-2)
        assert est == pytest.approx(expect, rel=1e-2)
    # catalogue constants dominate the estimated optimum
    for visc in VISCOSITIES:
        if visc.kind == 'zm' and visc.m == 0:
            continue
        rng = seeded_rng(('dom', visc.kind, visc.m))
        for _ in range(100):
            f = random_deformations(2, 1, rng)[0]
            q = rng.standard_normal((2, 2))
            gamma = rank_one_min(viscous_tangent_q(visc, f, q)).gamma_est
            assert gamma <= closed_form_gamma(visc, f, q) * 1.001
    # the m = 0 constant disagrees with the optimum: both reported, flagged
    spec = replace(cli.parse_config("command = korn\ndim = 2\nviscosity = zm\n"
                                    "viscosity_m = 0\n"),
                   out=str(tmp_path / "korn_m0"))
    assert cli.cmd_korn(spec) == 0
    report = dict(line.split(' = ', 1) for line in
                  (tmp_path / "korn_m0" / "report.txt").read_text().splitlines())
    assert float(report['gamma_est']) == pytest.approx(2.0, rel=1e-6)
    assert float(report['closed_form_gamma']) == pytest.approx(1.0)
    assert report['gamma_discrepancy'] == 'true'
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"criterion 3 PASS: gamma oracles and catalogue dominance "
          f"({elapsed:.2f}s)")


def test_criterion_04_ellipticity_sector():
    eigs = sorted(acoustic_spectrum(2.0 * sym_map(2), np.array([1.0, 0.0])).real)
    assert eigs == pytest.approx([1.0, 2.0], abs=1e-10)
    for visc in VISCOSITIES:
        rng = seeded_rng(('sector', visc.kind, visc.m))
        tested = 0
        while tested < 20:
            f = random_deformations(2, 1, rng)[0]
            q = rng.standard_normal((2, 2))
            m = viscous_tangent_q(visc, f, q)
            r = rank_one_min(m)
            if not math.isfinite(r.gamma_est):
                continue
            rep = sector_scan(m, 360)
            assert rep.elliptic
            assert rep.min_real_part >= 1.0 / r.gamma_est - 1e-6
            tested += 1
    print("criterion 4 PASS: acoustic sector bounded by 1/gamma on 20 pts/model")


def test_criterion_05_fourier_korn():
    sym2 = sym_map(2)
    tested = [sym2, 2.0 * sym2, sym_map(3)]
    rng = np.random.default_rng(55)
    for visc in VISCOSITIES:
        f = random_deformations(2, 1, rng)[0]
        q = rng.standard_normal((2, 2))
        tested.append(viscous_tangent_q(visc, f, q))
    for idx, m in enumerate(tested):
        dim = math.isqrt(len(m))
        r = rank_one_min(m)
        if not math.isfinite(r.gamma_est):
            continue
        res = 8 if dim == 2 else 4
        worst = fourier_korn_sample(m, num_fields=100, max_modes=res, seed=idx)
        assert worst >= r.ratio_min - 1e-9
    # single-mode fields reproduce the rank-one ratio exactly
    from viscolab.wellposedness import _ratios
    t4 = sym2.reshape(2, 2, 2, 2)
    rng = np.random.default_rng(56)
    for _ in range(20):
        a = rng.standard_normal(2)
        k = rng.integers(-4, 5, 2).astype(float)
        if not k.any():
            continue
        ratio = _ratios(t4[None], a[None], k[None])[0] / ((a @ a) * (k @ k))
        khat = k / np.linalg.norm(k)
        expect = float(np.einsum('i,j,ijkl,k,l->', a, khat, t4, a, khat)) / (a @ a)
        assert ratio == pytest.approx(expect, abs=1e-10)
    print("criterion 5 PASS: field ratios never undercut the rank-one minimum")


def test_criterion_06_equilibrium_and_dissipation(decay_run):
    start = time.time()
    grid = build_grid(1, 64)
    rest = init_state(grid, lambda x: np.array(x, copy=True),
                      lambda x: np.zeros_like(x), 1e-3)
    traj = run(DECAY_MODEL, grid, SolverConfig(dt=1e-3, t_end=1.0), rest)
    assert traj.termination.kind == 'completed'
    assert len(traj.states) == 1001
    for prev, cur in zip(traj.states, traj.states[1:]):
        assert np.max(np.abs(cur.xi - prev.xi)) <= 1e-12
        assert np.max(np.abs(cur.v - prev.v)) <= 1e-12

    grid, decay = decay_run
    rep = energy_report(decay, DECAY_MODEL, grid)
    total = rep.kinetic + rep.elastic
    assert np.all(np.diff(total) <= 0.0), "energy must not increase"
    res_coarse = abs(rep.balance_residual[-1])

    fine = run(DECAY_MODEL, grid, SolverConfig(dt=5e-4, t_end=1.0),
               _decay_state(grid))
    res_fine = abs(energy_report(fine, DECAY_MODEL, grid).balance_residual[-1])
    assert res_coarse / res_fine >= 1.8
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"criterion 6 PASS: stationary rest state, monotone energy, "
          f"residual ratio {res_coarse / res_fine:.2f} ({elapsed:.2f}s)")


def test_criterion_07_manufactured_convergence():
    start = time.time()
    model = DECAY_MODEL
    # 1D: three spatial levels at small fixed dt, three dt levels at fixed h
    exact = manufactured_default(1, amplitude=0.1)
    spatial = [manufactured_run(model, build_grid(1, n),
                                SolverConfig(dt=2e-5, t_end=0.1, save_every=1000),
                                exact).l2
               for n in (16, 32, 64)]
    s_rates = [math.log2(a / b) for a, b in zip(spatial, spatial[1:])]
    temporal = [manufactured_run(model, build_grid(1, 128),
                                 SolverConfig(dt=dt, t_end=0.2, save_every=2),
                                 exact).l2
                for dt in (2e-2, 1e-2, 5e-3)]
    t_rates = [math.log2(a / b) for a, b in zip(temporal, temporal[1:])]
    assert all(r >= 1.9 for r in s_rates), s_rates
    assert all(r >= 0.9 for r in t_rates), t_rates

    exact2 = manufactured_default(2, amplitude=0.1)
    spatial2 = [manufactured_run(model, build_grid(2, n),
                                 SolverConfig(dt=2.5e-4, t_end=0.1, save_every=100),
                                 exact2).l2
                for n in (8, 16, 32)]
    s2 = [math.log2(a / b) for a, b in zip(spatial2, spatial2[1:])]
    temporal2 = [manufactured_run(model, build_grid(2, 32),
                                  SolverConfig(dt=dt, t_end=0.2, save_every=2),
                                  exact2).l2
                 for dt in (2e-2, 1e-2, 5e-3)]
    t2 = [math.log2(a / b) for a, b in zip(temporal2, temporal2[1:])]
    assert all(r >= 1.7 for r in s2), s2
    assert all(r >= 0.8 for r in t2), t2
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"criterion 7 PASS: rates 1D {s_rates[-1]:.2f}/{t_rates[-1]:.2f}, "
          f"2D {s2[-1]:.2f}/{t2[-1]:.2f} ({elapsed:.1f}s)")


def test_criterion_08_breakdown_detection():
    grid = build_grid(1, 64)
    state = init_state(grid, lambda x: np.array(x, copy=True),
                       lambda x: -10.0 * np.sin(np.pi * x), 1e-3)
    traj = run(DECAY_MODEL, grid, SolverConfig(dt=1e-3, t_end=1.0), state)
    assert traj.termination.kind == 'det_floor_hit'
    assert traj.termination.time is not None and traj.termination.time < 1.0
    series = min_det_series(traj, grid)
    tail = [d for _, d in series[-10:]]
    assert all(a > b for a, b in zip(tail, tail[1:])), tail
    assert tail[-1] <= 1e-3
    print(f"criterion 8 PASS: breakdown at t = {traj.termination.time:.3f} "
          f"with strictly decreasing determinant tail")


def test_criterion_09_theta_monitors():
    grid = build_grid(1, 64)
    state = _decay_state(grid)
    cfg = SolverConfig(dt=1e-3, t_end=0.4)
    traj = run(DECAY_MODEL, grid, cfg, state)
    ext = heat_extension(grid, cfg, state)
    thetas, ds = [], []
    for window in (0.4, 0.2, 0.1, 0.05):
        rep = theta_norm(traj, ext, grid, p=4.0, t_max=window)
        thetas.append(rep.theta)
        ds.append(rep.d_of_t)
    assert all(a > b > 0.0 for a, b in zip(thetas, thetas[1:])), thetas
    assert all(a > b > 0.0 for a, b in zip(ds, ds[1:])), ds
    print(f"criterion 9 PASS: theta {thetas[0]:.3f}->{thetas[-1]:.3f}, "
          f"D {ds[0]:.3f}->{ds[-1]:.3f} monotone under window halving")


def test_criterion_10_determinism_and_formats(tmp_path):
    text = ("command = simulate\ndim = 1\ncells = 64\npreset = sinusoidal\n"
            "amplitude = 0.1\ndt = 0.001\nt_end = 0.2\nsave_every = 20\n"
            "seed = 11\n")
    outs = []
    for tag in ("first", "second"):
        spec = replace(cli.parse_config(text), out=str(tmp_path / tag))
        assert cli.cmd_simulate(spec) == 0
        outs.append(tmp_path / tag)
    a = (outs[0] / "diagnostics.csv").read_bytes()
    b = (outs[1] / "diagnostics.csv").read_bytes()
    assert a == b, "repeated runs must be byte-identical"
    vtks = sorted(outs[0].glob("snapshot_*.vtk"))
    assert vtks
    for path in vtks:
        assert cli.validate_vtk(path) == 65
    print(f"criterion 10 PASS: byte-identical CSV, {len(vtks)} valid VTK files")
