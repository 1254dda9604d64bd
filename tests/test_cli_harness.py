import os
from pathlib import Path

import numpy as np
import pytest

import viscolab.pde_solver as pde_solver
from viscolab.cli_harness import (cmd_check, cmd_convergence, cmd_korn,
                                  cmd_simulate, main, parse_config,
                                  serialize_config, validate_vtk,
                                  write_vtk_snapshot)
from viscolab.errors import ParseError, RangeError


def spec_from(tmp_path, text, **overrides):
    spec = parse_config(text)
    from dataclasses import replace
    return replace(spec, out=str(tmp_path / "out"), **overrides)


def read_report(path):
    out = {}
    for line in Path(path).read_text(encoding='utf-8').splitlines():
        key, _, val = line.partition(' = ')
        out[key] = val.strip()
    return out


def test_parse_minimal_defaults():
    spec = parse_config("command = simulate\n")
    assert spec.command == 'simulate'
    assert spec.energy == 'w0' and spec.viscosity == 'z0doubleprime'
    assert spec.dim == 1 and spec.cells == 64
    assert spec.dt == 1e-3 and spec.t_end == 1.0
    assert spec.was_set('command') and not spec.was_set('cells')


def test_parse_comments_and_values():
    spec = parse_config("""
# a comment line
command = korn        # trailing comment
dim = 2
f0 = 1,0,0,1
""")
    assert spec.dim == 2
    assert spec.f0 == (1.0, 0.0, 0.0, 1.0)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_config("command = simulate\ncommand = check\n")   # duplicate
    with pytest.raises(ParseError):
        parse_config("command = simulate\nwibble = 3\n")        # unknown key
    with pytest.raises(ParseError):
        parse_config("command = simulate\ncells = abc\n")       # bad int
    with pytest.raises(ParseError):
        parse_config("cells = 8\n")                             # no command
    with pytest.raises(ParseError):
        parse_config("command simulate\n")                      # no equals
    err = None
    try:
        parse_config("command = simulate\ncells = 2\n")
    except RangeError as exc:
        err = exc
    assert err is not None and err.key == 'cells'


def test_parse_single_level_rejected():
    with pytest.raises(ParseError):
        parse_config("command = convergence\nlevels = 1\n")


def test_roundtrip():
    text = ("command = korn\ndim = 2\nviscosity = zm\nviscosity_m = 1\n"
            "f0 = 1,0.25,0,1\nq0 = 0.5,0,0,-0.5\nseed = 9\n")
    spec = parse_config(text)
    again = parse_config(serialize_config(spec))
    assert again == spec


def test_cmd_check_rest(tmp_path):
    spec = spec_from(tmp_path, "command = check\ndim = 2\ncells = 4\n"
                               "angular_resolution = 90\nrefine_iters = 3\n")
    assert cmd_check(spec) == 0
    rep = read_report(tmp_path / "out" / "report.txt")
    # D_Q Z0''(Id, 0) = 2 sym: optimal gamma is 1; the catalogue bound is 2
    assert float(rep['gamma_sup']) == pytest.approx(1.0, rel=1e-6)
    assert float(rep['closed_form_gamma']) == pytest.approx(2.0)
    assert rep['pass'] == 'true'
    assert rep['elliptic'] == 'true'


def test_cmd_check_degenerate_tangent(tmp_path):
    spec = spec_from(tmp_path, "command = check\ndim = 2\ncells = 4\n"
                               "viscosity = zm\nviscosity_m = 1\n"
                               "angular_resolution = 16\nrefine_iters = 1\n")
    assert cmd_check(spec) == 1
    rep = read_report(tmp_path / "out" / "report.txt")
    assert rep['gamma_sup'] == 'inf'
    assert 'DegenerateQ' in rep['closed_form_note']


def test_cmd_check_reflected_preset_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = check\ndim = 1\ncells = 16\npreset = reflected\n")
    code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cmd_korn_z0doubleprime(tmp_path):
    spec = spec_from(tmp_path, "command = korn\ndim = 2\n")
    assert cmd_korn(spec) == 0
    rep = read_report(tmp_path / "out" / "report.txt")
    assert float(rep['gamma_est']) == pytest.approx(1.0, rel=1e-6)
    assert float(rep['closed_form_gamma']) == pytest.approx(2.0)
    assert rep['gamma_discrepancy'] == 'false'
    assert rep['elliptic'] == 'true'
    assert float(rep['fourier_worst_ratio']) >= float(rep['ratio_min']) - 1e-9


def test_cmd_korn_flags_m0_constant(tmp_path):
    spec = spec_from(tmp_path, "command = korn\ndim = 2\nviscosity = zm\n"
                               "viscosity_m = 0\n")
    assert cmd_korn(spec) == 0
    rep = read_report(tmp_path / "out" / "report.txt")
    # both values present, discrepancy made explicit
    assert float(rep['gamma_est']) == pytest.approx(2.0, rel=1e-6)
    assert float(rep['closed_form_gamma']) == pytest.approx(1.0)
    assert rep['gamma_discrepancy'] == 'true'


def test_cmd_korn_negative_fixture(tmp_path, monkeypatch):
    from viscolab.tensor_core import FourthOrderTensor
    import viscolab.cli_harness as cli

    monkeypatch.setattr(cli.constitutive, 'viscous_tangent_q',
                        lambda *a, **k: FourthOrderTensor(2, -np.eye(4)))
    spec = spec_from(tmp_path, "command = korn\ndim = 2\n")
    assert cmd_korn(spec) == 1
    rep = read_report(tmp_path / "out" / "report.txt")
    assert rep['elliptic'] == 'false'


def test_cmd_simulate_rest(tmp_path):
    spec = spec_from(tmp_path, "command = simulate\ndim = 1\ncells = 8\n"
                               "dt = 0.01\nt_end = 0.05\n")
    assert cmd_simulate(spec) == 0
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "time,kinetic,elastic,dissipated,residual,min_det"
    assert len(lines) == 7
    for row in lines[1:]:
        cols = row.split(',')
        assert float(cols[1]) == 0.0 and float(cols[5]) == 1.0
    vtks = sorted((tmp_path / "out").glob("snapshot_*.vtk"))
    assert len(vtks) == 6
    for p in vtks:
        assert validate_vtk(p) == 9


def test_validate_vtk_rejects_truncated_files(tmp_path):
    spec = spec_from(tmp_path, "command = simulate\ndim = 1\ncells = 8\n"
                               "dt = 0.01\nt_end = 0.01\n")
    assert cmd_simulate(spec) == 0
    lines = (tmp_path / "out" / "snapshot_0000.vtk").read_text().splitlines(
        keepends=True)
    bad = tmp_path / "bad.vtk"
    for cut in (1, 3, 7, 12, 33):
        bad.write_text(''.join(lines[:-cut]))
        with pytest.raises(ValueError, match=r"^line \d+: file ends"):
            validate_vtk(bad)
    for row, short in ((5, "POINTS 9\n"), (4, "DIMENSIONS 9 1\n"),
                       (16, "VECTORS xi\n"), (18, "1 0\n")):
        bad.write_text(''.join(lines[:row] + [short] + lines[row + 1:]))
        with pytest.raises(ValueError, match=rf"^line {row + 1}: bad"):
            validate_vtk(bad)
    # a malformed block after a blank line, on a 2D snapshot
    spec = spec_from(tmp_path, "command = simulate\ndim = 2\ncells = 4\n"
                               "dt = 0.01\nt_end = 0.01\n")
    assert cmd_simulate(spec) == 0
    text = (tmp_path / "out" / "snapshot_0000.vtk").read_text()
    count = len(text.splitlines())
    bad.write_text(text + "\nVECTORS junk double\nnot numbers at all\n")
    with pytest.raises(ValueError, match=rf"^line {count + 2}: "):
        validate_vtk(bad)
    # trailing blank lines alone stay valid
    bad.write_text(text + "\n\n  \n")
    assert validate_vtk(bad) == 25


def test_vtk_point_ordering_2d(tmp_path):
    # legacy structured grids list points with x varying fastest
    spec = spec_from(tmp_path, "command = simulate\ndim = 2\ncells = 4\n"
                               "dt = 0.01\nt_end = 0.01\n")
    assert cmd_simulate(spec) == 0
    lines = (tmp_path / "out" / "snapshot_0000.vtk").read_text().splitlines()
    assert lines[4] == "DIMENSIONS 5 5 1"
    first = [line.split() for line in lines[6:11]]
    xs = [float(row[0]) for row in first]
    ys = [float(row[1]) for row in first]
    assert xs == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert ys == pytest.approx([0.0] * 5)


def per_row_vtk(path, grid, state):
    # the per-number writer that write_vtk_snapshot replaced, kept as oracle
    nx = grid.cells + 1
    ny = grid.cells + 1 if grid.dim == 2 else 1
    npts = nx * ny
    pos = grid.node_positions().reshape(-1, grid.dim)
    xi = state.xi.reshape(-1, grid.dim)
    v = state.v.reshape(-1, grid.dim)
    if grid.dim == 2:
        order = np.arange(npts).reshape(nx, ny).T.reshape(-1)
        pos, xi, v = pos[order], xi[order], v[order]

    def pad(a):
        out = np.zeros((npts, 3))
        out[:, :grid.dim] = a
        return out

    def fmt(x):
        return f"{x:.17g}"

    with open(path, 'w', encoding='utf-8', newline='\n') as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"viscolab snapshot t={fmt(state.time)}\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_GRID\n")
        fh.write(f"DIMENSIONS {nx} {ny} 1\n")
        fh.write(f"POINTS {npts} double\n")
        for row in pad(pos):
            fh.write(' '.join(fmt(x) for x in row) + '\n')
        fh.write(f"POINT_DATA {npts}\n")
        for name, data in (('xi', xi), ('v', v)):
            fh.write(f"VECTORS {name} double\n")
            for row in pad(data):
                fh.write(' '.join(fmt(x) for x in row) + '\n')


@pytest.mark.parametrize("dim,cells", [(1, 9), (2, 5)])
def test_vtk_bytes_match_per_row_writer(tmp_path, dim, cells):
    grid = pde_solver.build_grid(dim, cells)
    rng = np.random.default_rng(17)
    shape = grid.node_positions().shape
    xi = grid.node_positions() + 1e-3 * rng.standard_normal(shape)
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    special = np.array([-0.0, 1e-300, 1e+300, -1e-300, 0.1, -2.5])
    v.reshape(-1)[:special.size] = special
    state = pde_solver.FieldState(0.30000000000000004, xi, v)
    write_vtk_snapshot(tmp_path / "new.vtk", grid, state)
    per_row_vtk(tmp_path / "old.vtk", grid, state)
    new = (tmp_path / "new.vtk").read_bytes()
    assert new == (tmp_path / "old.vtk").read_bytes()
    assert b"\n-0 " in new or b" -0 " in new
    assert validate_vtk(tmp_path / "new.vtk") == grid.num_nodes


def test_cmd_simulate_compression_breakdown(tmp_path):
    spec = spec_from(tmp_path, "command = simulate\ndim = 1\ncells = 32\n"
                               "preset = compression\nrate = 10\n"
                               "dt = 0.001\nt_end = 0.5\nsave_every = 2\n")
    assert cmd_simulate(spec) == 3
    rep = read_report(tmp_path / "out" / "report.txt")
    assert rep['termination'] == 'det_floor_hit'
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]
    dets = [float(r.split(',')[5]) for r in rows]
    assert dets[-1] <= 1e-3
    assert all(a > b for a, b in zip(dets[-6:], dets[-5:]))


def test_cmd_simulate_deterministic_output(tmp_path):
    text = ("command = simulate\ndim = 2\ncells = 6\npreset = sinusoidal\n"
            "amplitude = 0.05\ndt = 0.005\nt_end = 0.05\nsave_every = 2\n"
            "seed = 3\n")
    a = spec_from(tmp_path / "a", text)
    b = spec_from(tmp_path / "b", text)
    assert cmd_simulate(a) == 0 and cmd_simulate(b) == 0
    csv_a = (tmp_path / "a" / "out" / "diagnostics.csv").read_bytes()
    csv_b = (tmp_path / "b" / "out" / "diagnostics.csv").read_bytes()
    assert csv_a == csv_b
    vtk_a = sorted((tmp_path / "a" / "out").glob("*.vtk"))
    vtk_b = sorted((tmp_path / "b" / "out").glob("*.vtk"))
    for pa, pb in zip(vtk_a, vtk_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_cmd_simulate_unwritable_out(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("i am a file, not a directory")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = simulate\ndim = 1\ncells = 8\n"
                   "dt = 0.01\nt_end = 0.02\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(blocker)])
    assert code == 2


def test_main_command_mismatch(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = simulate\n")
    assert main(["check", "--config", str(cfg)]) == 2


def test_main_missing_config(tmp_path):
    assert main(["check", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_main_parse_error_exit(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = simulate\ncells = 2\n")
    assert main(["simulate", "--config", str(cfg)]) == 2


def test_t_end_must_be_whole_steps(tmp_path):
    with pytest.raises(RangeError) as info:
        parse_config("command = simulate\ndt = 0.003\nt_end = 0.01\n")
    assert info.value.key == 't_end'
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = simulate\ndt = 0.003\nt_end = 0.01\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    # the convergence windows are checked against their own step sizes
    cfg.write_text("command = convergence\nspatial_dt = 3e-5\n")
    assert main(["convergence", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_cmd_convergence_small_case(tmp_path):
    spec = spec_from(tmp_path,
                     "command = convergence\ndim = 1\ncells = 16\nlevels = 2\n"
                     "spatial_dt = 5e-5\nconv_t_end = 0.05\ndt = 0.01\n")
    assert cmd_convergence(spec) == 0
    rep = read_report(tmp_path / "out" / "rates.txt")
    assert float(rep['spatial_rate']) >= 1.9
    assert float(rep['temporal_rate']) >= 0.9
    assert rep['pass'] == 'true'


def test_cmd_convergence_broken_stencil(tmp_path, monkeypatch):
    # negative control: a mis-scaled gradient destroys the rates
    true_grad = pde_solver.gradient_field

    def broken(grid, nodal):
        return 1.05 * true_grad(grid, nodal)

    monkeypatch.setattr(pde_solver, 'gradient_field', broken)
    spec = spec_from(tmp_path,
                     "command = convergence\ndim = 1\ncells = 16\nlevels = 2\n"
                     "spatial_dt = 5e-5\nconv_t_end = 0.05\ndt = 0.01\n")
    assert cmd_convergence(spec) == 5
    rep = read_report(tmp_path / "out" / "rates.txt")
    assert float(rep['spatial_rate']) < 1.0
