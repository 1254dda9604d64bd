import importlib.util
import os
import re
import subprocess
import sys
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import viscolab.pde_solver as pde_solver
from viscolab.cli_harness import (RunSpec, _rate_table, _study_runs, cmd_check,
                                  cmd_convergence, cmd_korn, cmd_simulate,
                                  main, parse_config,
                                  validate_vtk, write_vtk_snapshot)
from viscolab.constitutive import EnergyModel, ViscosityModel
from viscolab.errors import (InvalidConfig, LinearSolveFailure, ParseError,
                             PicardDivergence, RangeError)
from viscolab.pde_solver import SolverConfig, build_grid
from viscolab.wellposedness import CoercivityConfig

REPO = Path(__file__).resolve().parents[1]


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


def test_readme_key_defaults_match_run_spec():
    # each `key` value pair of the README's key list, across line breaks; a
    # value ends at a comma, a semicolon, " (" or " and", so `f0`/`q0` and
    # the per-dimension convergence defaults are not pairs
    text = (REPO / 'README.md').read_text(encoding='utf-8')
    listing = text.split('Selected keys and defaults:', 1)[1].split('\n\n', 1)[0]
    pairs = re.findall(r'`(\w+)`\s+("[^"]*"|[\w.+-]+)(?=[,;]|\s+\(|\s+and\b)',
                       listing)
    defaults = {f.name: f.default for f in fields(RunSpec)}
    assert len(pairs) >= 20
    for key, value in pairs:
        assert key in defaults, key
        want = defaults[key]
        assert (value.strip('"') if isinstance(want, str) else float(value)) == want, key


def test_readme_example_config_parses():
    # the fenced key = value example under "## Command line"
    text = (REPO / 'README.md').read_text(encoding='utf-8')
    section = text.split('## Command line', 1)[1].split('\n## ', 1)[0]
    blocks = re.findall(r'```\n(.*?)```', section, re.S)
    example, = [b for b in blocks if b.startswith('command = ')]
    spec = parse_config(example)
    assert (spec.command, spec.preset, spec.t_end, spec.save_every) == (
        'simulate', 'sinusoidal', 0.2, 20)


def test_parse_minimal_defaults():
    spec = parse_config("command = simulate\n")
    assert spec.command == 'simulate'
    assert spec.energy == 'w0' and spec.viscosity == 'z0doubleprime'
    assert spec.dim == 1 and spec.cells == 64
    assert spec.dt == 1e-3 and spec.t_end == 1.0
    assert spec.spatial_dt is None and spec.conv_t_end is None


def test_parse_fills_in_the_convergence_study_defaults():
    # the study's own defaults for the keys it reads, where the config is silent
    # the temporal runs use the finest spatial grid, the base cells refined
    # levels - 1 times
    def study(text):
        spec = parse_config(text)
        cells = [c for c, _ in _study_runs(vars(spec))]
        return spec, cells[:spec.levels], cells[spec.levels:]

    spec, spatial, temporal = study("command = convergence\n")
    assert (spec.cells, spec.dt, spec.spatial_dt, spec.conv_t_end) == (
        16, 2e-2, 1e-4, 0.1)
    assert (spatial, temporal) == ([16, 32, 64], [64] * 3)
    spec, spatial, temporal = study("command = convergence\ndim = 2\nlevels = 2\n")
    assert (spec.cells, spec.dt, spec.spatial_dt, spec.conv_t_end) == (
        8, 2e-2, 1e-3, 0.1)
    assert (spatial, temporal) == ([8, 16], [16] * 2)
    spec, spatial, temporal = study("command = convergence\ncells = 4\ndt = 0.01\n")
    assert (spec.cells, spec.dt, temporal) == (4, 0.01, [16] * 3)


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
    with pytest.raises(ParseError, match="'cells' has no value"):
        parse_config("command = simulate\ncells =\n")           # no value
    err = None
    try:
        parse_config("command = simulate\ncells = 2\n")
    except RangeError as exc:
        err = exc
    assert err is not None and err.key == 'cells'


# one out-of-range value per SolverConfig field and the reason printed for it
SOLVER_OUT_OF_RANGE = {
    'dt': (0.0, "must be positive"),
    't_end': (0.0105, "must be a whole number of steps dt = 0.001"),
    'picard_tol': (0.0, "must be positive"),
    'picard_max': (0, "must be at least 1"),
    'det_floor': (-1.0, "must be positive"),
    'linear_tol': (0.0, "must be positive"),
    'save_every': (0, "must be at least 1"),
}


@pytest.mark.parametrize("field", [f for f in fields(SolverConfig)
                                   if f.default is not MISSING],
                         ids=lambda f: f.name)
def test_parse_config_takes_solver_defaults(field):
    assert getattr(parse_config("command = simulate\n"), field.name) == field.default


@pytest.mark.parametrize("key", [f.name for f in fields(SolverConfig)])
def test_solver_key_range_is_checked_by_solver_config(key):
    value, why = SOLVER_OUT_OF_RANGE[key]
    with pytest.raises(InvalidConfig) as parsed:
        parse_config(f"command = simulate\n{key} = {value}\n")
    with pytest.raises(InvalidConfig) as built:
        SolverConfig(**{'dt': 1e-3, 't_end': 1.0, key: value})
    for exc in (parsed.value, built.value):
        assert exc.key == key
        assert str(exc) == f"key '{key}': {why}"


@pytest.mark.parametrize("key, value, cli_why, grid_why", [
    ('cells', 2, "must be at least 4", "must be at least 4"),
    ('dim', 4, "must be 1 or 2", "must be 1, 2 or 3"),
], ids=['cells', 'dim'])
def test_grid_key_range_is_checked_by_build_grid(key, value, cli_why, grid_why):
    with pytest.raises(InvalidConfig) as parsed:
        parse_config(f"command = simulate\n{key} = {value}\n")
    with pytest.raises(InvalidConfig) as built:
        build_grid(**{'dim': 1, 'cells': 64, key: value})
    for exc, why in ((parsed.value, cli_why), (built.value, grid_why)):
        assert exc.key == key
        assert str(exc) == f"key '{key}': {why}"


def test_first_out_of_range_solver_key_is_reported():
    # a partial last step is reported before picard_max, as the CLI did
    text = "command = simulate\ndt = 0.003\nt_end = 0.01\npicard_max = 0\n"
    with pytest.raises(RangeError) as parsed:
        parse_config(text)
    with pytest.raises(RangeError) as built:
        SolverConfig(dt=0.003, t_end=0.01, picard_max=0)
    assert parsed.value.key == built.value.key == 't_end'


# key -> (owner, the owner's field, an out-of-range value, the reason printed)
OWNED_KEYS = {
    'energy': (EnergyModel, 'kind', 'w9', "must be one of ('w0', 'w1', 'w2')"),
    'energy_q': (EnergyModel, 'q', 1.0, "must exceed 1"),
    'viscosity': (ViscosityModel, 'kind', 'nope',
                  "must be one of ('zm', 'z0prime', 'z0doubleprime')"),
    'viscosity_m': (ViscosityModel, 'm', -1, "must be nonnegative"),
    'num_directions': (CoercivityConfig, 'num_directions', 1,
                       "must be at least dim + 1 = 2"),
    'num_fields': (CoercivityConfig, 'num_fields', 0, "must be at least 1"),
    'max_modes': (CoercivityConfig, 'max_modes', 0, "must be at least 1"),
    'seed': (CoercivityConfig, 'seed', -1, "must be nonnegative"),
}


def _build_owner(owner, name, value):
    # the configs below parse at dim 1, so CoercivityConfig is built at dim 1
    return owner(**({'dim': 1} if owner is CoercivityConfig else {}), **{name: value})


@pytest.mark.parametrize("key", OWNED_KEYS)
def test_parse_config_takes_model_and_coercivity_defaults(key):
    owner, name, _, _ = OWNED_KEYS[key]
    default = {f.name: f.default for f in fields(owner)}[name]
    assert getattr(parse_config("command = korn\n"), key) == default


@pytest.mark.parametrize("key", OWNED_KEYS)
def test_model_and_coercivity_ranges_are_checked_by_their_owners(key):
    owner, name, value, why = OWNED_KEYS[key]
    with pytest.raises(RangeError) as parsed:
        parse_config(f"command = korn\n{key} = {value}\n")
    with pytest.raises(RangeError) as built:
        _build_owner(owner, name, value)
    for exc in (parsed.value, built.value):
        assert exc.key == key
        assert str(exc) == f"key '{key}': {why}"


def test_first_out_of_range_key_keeps_the_parse_order():
    # preset is checked before the coercivity knobs, the model keys first
    with pytest.raises(RangeError) as info:
        parse_config("command = korn\npreset = bad\nnum_directions = 1\n")
    assert info.value.key == 'preset'
    with pytest.raises(RangeError) as info:
        parse_config("command = korn\nenergy = w9\nenergy_q = 1\ncells = 2\n")
    assert info.value.key == 'energy'


@pytest.mark.parametrize("key, value", [
    ('amplitude', 'nan'), ('amplitude', 'inf'), ('rate', 'inf'), ('rate', 'nan'),
])
def test_amplitude_and_rate_must_be_finite(tmp_path, capsys, key, value):
    # both once passed the parser and failed after the output directory existed
    text = (f"command = simulate\npreset = sinusoidal\ncells = 8\n"
            f"dt = 0.01\nt_end = 0.02\n{key} = {value}\n")
    with pytest.raises(RangeError) as info:
        parse_config(text)
    assert info.value.key == key
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"viscolab: key '{key}': ")
    assert not out.exists()


@pytest.mark.parametrize("text, argv", [
    ("command = korn\nseed = -1\n", []),
    ("command = korn\nseed = 3\n", ["--seed", "-1"]),
], ids=['config', 'flag'])
def test_negative_seed_exits_2_before_any_output(tmp_path, capsys, text, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["korn", "--config", str(cfg), "--out", str(out)] + argv) == 2
    assert capsys.readouterr().err == "viscolab: key 'seed': must be nonnegative\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [('angular_resolution', 90),
                                        ('refine_iters', 3)])
def test_3d_search_keys_are_unknown(tmp_path, capsys, key, value):
    # both steer only the 3D rank-one search, and the command line takes
    # dim 1 or 2; the library keeps them as keywords
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = check\ndim = 2\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == f"viscolab: line 3: unknown key '{key}'\n")
    assert not out.exists()


def test_fine_cells_is_an_unknown_key(tmp_path, capsys):
    # the study's temporal runs always use the finest spatial grid
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = convergence\nlevels = 2\nfine_cells = 64\n")
    out = tmp_path / "o"
    assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == "viscolab: line 3: unknown key 'fine_cells'\n")
    assert not out.exists()


def test_benchmark_workload_configs_parse():
    # a stricter parse-time check that rejected a workload would fail every
    # benchmark run of it; the workloads module is read, not changed
    path = REPO / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    assert module.WORKLOADS
    for workload in module.WORKLOADS.values():
        for seed in range(1, 11):
            spec = parse_config(workload.config_text(seed))
            assert spec.command == workload.command


def test_parse_single_level_rejected():
    with pytest.raises(ParseError):
        parse_config("command = convergence\nlevels = 1\n")


def test_cmd_check_rest(tmp_path):
    spec = spec_from(tmp_path, "command = check\ndim = 2\ncells = 4\n")
    assert cmd_check(spec) == 0
    rep = read_report(tmp_path / "out" / "report.txt")
    # D_Q Z0''(Id, 0) = 2 sym: optimal gamma is 1; the catalogue bound is 2
    assert float(rep['gamma_sup']) == pytest.approx(1.0, rel=1e-6)
    assert float(rep['closed_form_gamma']) == pytest.approx(2.0)
    assert rep['pass'] == 'true'
    assert rep['elliptic'] == 'true'


def test_cmd_check_degenerate_tangent(tmp_path):
    spec = spec_from(tmp_path, "command = check\ndim = 2\ncells = 4\n"
                               "viscosity = zm\nviscosity_m = 1\n")
    assert cmd_check(spec) == 1
    rep = read_report(tmp_path / "out" / "report.txt")
    assert rep['gamma_sup'] == 'inf'
    assert 'DegenerateQ' in rep['closed_form_note']


def test_cmd_check_reflected_preset_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = check\ndim = 1\ncells = 16\npreset = reflected\n")
    code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("key, entries", [
    ("f0", "nan,0,0,1"), ("q0", "nan,0,0,1"),
    # finite entries whose z0doubleprime tangent 2 F sym(F^T Q) overflows
    ("f0", "1e200,0,0,1e200"),
], ids=["f0", "q0", "f0-overflow"])
def test_korn_non_finite_tensor_exits_2(tmp_path, capsys, key, entries):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = korn\ndim = 2\n{key} = {entries}\n")
    argv = ["korn", "--config", str(cfg), "--out", str(tmp_path / "o")]
    with warnings.catch_warnings():     # an overflow is reported, not warned
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("viscolab: ") and err.count("\n") == 1
    cfg.write_text(f"command = korn\ndim = 2\n{key} = 1,inf,0,1\n")
    with pytest.raises(RangeError) as info:
        parse_config(cfg.read_text())
    assert info.value.key == key


@pytest.mark.parametrize("dim, f0", [(2, "-1,0,0,1"), (2, "1,2,2,4"),
                                     (1, "0"), (2, "-1e200,0,0,1e200")],
                         ids=["det-1", "det0", "1d-det0", "det-overflow"])
def test_korn_non_positive_det_f0_exits_2(tmp_path, capsys, dim, f0):
    # korn once certified f0 = -1,0,0,1 as elliptic with gamma_est = 1
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "o"
    cfg.write_text(f"command = korn\ndim = {dim}\nf0 = {f0}\n")
    with warnings.catch_warnings():     # an overflowing det is not warned
        warnings.simplefilter("error")
        assert main(["korn", "--config", str(cfg), "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == "viscolab: key 'f0': must have a positive determinant\n")
    assert not out.exists()


def test_check_non_finite_tangent_exits_2(tmp_path, capsys):
    # zm(200) on a large sinusoidal deformation overflows the cell tangents;
    # check_initial_data raises ValueError, which check reports as korn does
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = check\ndim = 2\ncells = 8\nviscosity = zm\n"
                   "viscosity_m = 200\npreset = sinusoidal\namplitude = 5.0\n"
                   "mode = 3\n")
    with warnings.catch_warnings():     # an overflow is reported, not warned
        warnings.simplefilter("error")
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        "viscolab: DomainError: initial data: non-finite tangent at node 0\n")


def _run_outside_pytest(tmp_path, command, text):
    # a fresh process with Python's default warning filters, outside
    # pytest's warning capture
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = {command}\n{text}")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from viscolab.cli_harness import main; sys.exit(main(sys.argv[2:]))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    return subprocess.run(
        [sys.executable, "-c", code, str(REPO / "src"), command,
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("command, text", [
    ("check", "dim = 2\ncells = 8\nviscosity = zm\nviscosity_m = 200\n"
              "preset = sinusoidal\namplitude = 5.0\nmode = 3\n"),
    ("korn", "dim = 2\nf0 = 1e200,0,0,1e200\n"),
])
def test_overflowing_tangent_writes_one_stderr_line(tmp_path, command, text):
    # an overflowing tangent is one viscolab: line, not numpy's
    # RuntimeWarnings followed by it
    proc = _run_outside_pytest(tmp_path, command, text)
    assert proc.returncode == 2
    assert proc.stderr.startswith("viscolab: DomainError: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_overflowing_newton_step_writes_no_warning(tmp_path):
    # the zm(200) stress overflows in the first Newton iterate; the run ends
    # picard_divergence without numpy's RuntimeWarnings on stderr
    proc = _run_outside_pytest(
        tmp_path, "simulate", "dim = 2\ncells = 8\nviscosity = zm\n"
        "viscosity_m = 200\npreset = sinusoidal\namplitude = 5.0\nmode = 3\n"
        "dt = 0.001\nt_end = 0.002\n")
    assert proc.returncode == 4
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    assert proc.stderr == ("viscolab: simulate ended with picard_divergence "
                           "at t = 0\n")
    report = (tmp_path / "o" / "report.txt").read_text()
    assert "termination = picard_divergence\n" in report


class _NoScipy:
    def __getattr__(self, name):
        raise AssertionError(f"scipy.sparse.{name} used")


def test_check_and_korn_build_no_scipy_object(tmp_path, monkeypatch):
    # neither command assembles or solves, so neither may reach scipy; the
    # grid caches are cleared so that no earlier test's build hides a call
    texts = {'check': "command = check\ndim = 2\ncells = 8\n",
             'korn': "command = korn\ndim = 2\n"}
    for command, text in texts.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text)
        reports = []
        for stub in (False, True):
            pde_solver._cell_table.cache_clear()
            pde_solver._operator_pattern.cache_clear()
            out = tmp_path / f"{command}-{stub}"
            with monkeypatch.context() as patch:
                if stub:
                    patch.setattr(pde_solver, 'sp', _NoScipy())
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            reports.append((out / "report.txt").read_bytes())
        assert reports[0] == reports[1]


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
    import viscolab.cli_harness as cli

    monkeypatch.setattr(cli.constitutive, 'viscous_tangent_q',
                        lambda *a, **k: -np.eye(4))
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
    for row, short, what in ((0, "# vtk DataFile Version 2.0\n", "header line"),
                             (5, "POINTS 9\n", "POINTS line"),
                             (4, "DIMENSIONS 9 1\n", "DIMENSIONS line"),
                             (16, "VECTORS xi\n", "VECTORS header"),
                             (18, "1 0\n", "vector row"),
                             (4, "DIMENSIONS a 1 1\n", "DIMENSIONS line"),
                             (5, "POINTS x double\n", "POINTS line"),
                             (4, "DIMENSIONS -9 -1 1\n", "DIMENSIONS line"),
                             (4, "DIMS 9 1 1\n", "DIMENSIONS line"),
                             (5, "POINT 9 double\n", "POINTS line"),
                             (5, "POINTS 9 float\n", "POINTS line"),
                             (15, "POINT_DATA 8\n", "POINT_DATA line"),
                             (16, "SCALARS xi double\n", "VECTORS header"),
                             (26, "VECTORS v float\n", "VECTORS header")):
        bad.write_text(''.join(lines[:row] + [short] + lines[row + 1:]))
        with pytest.raises(ValueError, match=rf"^line {row + 1}: bad {what}$"):
            validate_vtk(bad)
    for row, short, message in (
            (2, "BINARY\n", "lines 3-4: not an ASCII structured grid"),
            (3, "DATASET RECTILINEAR_GRID\n",
             "lines 3-4: not an ASCII structured grid"),
            (5, "POINTS 8 double\n",
             "line 6: point count does not match DIMENSIONS"),
            (26, "VECTORS u double\n",
             "expected vector arrays ['xi', 'v'], found ['xi', 'u']")):
        bad.write_text(''.join(lines[:row] + [short] + lines[row + 1:]))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
    # point and vector rows must be three finite numbers
    rows = text.splitlines(keepends=True)
    for row, what, junk in ((6, "point", "not a number\n"),
                            (30, "point", "nan inf -inf\n"),
                            (33, "vector", "0 zero 0\n"),
                            (60, "vector", "0 0 inf\n")):
        bad.write_text(''.join(rows[:row] + [junk] + rows[row + 1:]))
        with pytest.raises(ValueError, match=rf"^line {row + 1}: bad {what} row"):
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


def test_vtk_point_ordering_3d(tmp_path):
    # x varies fastest, then y, then z, in the points and in the vectors
    grid = pde_solver.build_grid(3, 4)
    pos = grid.node_positions()
    state = pde_solver.FieldState(0.0, pos, pos * [1.0, 10.0, 100.0])
    path = tmp_path / "snap.vtk"
    write_vtk_snapshot(path, grid, state)
    lines = path.read_text().splitlines()
    assert lines[4] == "DIMENSIONS 5 5 5"
    rows = np.array([[float(t) for t in line.split()] for line in lines[6:131]])
    order = [(ix, iy, iz) for iz in range(5) for iy in range(5) for ix in range(5)]
    assert np.array_equal(rows, np.array(order) / 4.0)
    assert lines[258] == "VECTORS v double"
    v = np.array([[float(t) for t in line.split()] for line in lines[259:384]])
    assert np.array_equal(v, np.array(order) / 4.0 * [1.0, 10.0, 100.0])
    assert validate_vtk(path) == 125


def per_row_vtk(path, grid, state):
    # the per-number writer that write_vtk_snapshot replaced, kept as oracle
    n = grid.cells + 1
    dims = ' '.join(str(k) for k in [n] * grid.dim + [1] * (3 - grid.dim))
    npts = grid.num_nodes
    # x fastest: the node at (ix, iy, iz) is row ix + n iy + n^2 iz
    order = np.arange(npts).reshape((n,) * grid.dim).transpose().reshape(-1)
    pos = grid.node_positions().reshape(-1, grid.dim)[order]
    xi = state.xi.reshape(-1, grid.dim)[order]
    v = state.v.reshape(-1, grid.dim)[order]

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
        fh.write(f"DIMENSIONS {dims}\n")
        fh.write(f"POINTS {npts} double\n")
        for row in pad(pos):
            fh.write(' '.join(fmt(x) for x in row) + '\n')
        fh.write(f"POINT_DATA {npts}\n")
        for name, data in (('xi', xi), ('v', v)):
            fh.write(f"VECTORS {name} double\n")
            for row in pad(data):
                fh.write(' '.join(fmt(x) for x in row) + '\n')


def random_state(grid, seed, time=0.30000000000000004):
    rng = np.random.default_rng(seed)
    shape = grid.node_positions().shape
    xi = grid.node_positions() + 1e-3 * rng.standard_normal(shape)
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    special = np.array([-0.0, 1e-300, 1e+300, -1e-300, 0.1, -2.5])
    v.reshape(-1)[:special.size] = special
    return pde_solver.FieldState(time, xi, v)


def assert_vtk_matches_oracle(tmp_path, grid, state):
    write_vtk_snapshot(tmp_path / "new.vtk", grid, state)
    per_row_vtk(tmp_path / "old.vtk", grid, state)
    new = (tmp_path / "new.vtk").read_bytes()
    assert new == (tmp_path / "old.vtk").read_bytes()
    assert validate_vtk(tmp_path / "new.vtk") == grid.num_nodes
    return new


@pytest.mark.parametrize("dim,cells", [(1, 9), (2, 5), (3, 4)])
def test_vtk_bytes_match_per_row_writer(tmp_path, dim, cells):
    grid = pde_solver.build_grid(dim, cells)
    new = assert_vtk_matches_oracle(tmp_path, grid, random_state(grid, 17))
    # node 0 of v holds -0.0 first: it prints -0, the padded axes print 0
    first_v = new.split(b"VECTORS v double\n")[1].split(b"\n")[0].split()
    assert first_v[0] == b"-0" and first_v[dim:] == [b"0"] * (3 - dim)


def test_vtk_bytes_match_across_states_and_grids(tmp_path):
    # two states on one grid reuse its POINTS text; alternating grids
    # replace it each time
    grid = pde_solver.build_grid(2, 5)
    for seed, time in ((1, 0.0), (2, 0.5)):
        assert_vtk_matches_oracle(tmp_path, grid, random_state(grid, seed, time))
    for cells in (5, 6, 5):
        grid = pde_solver.build_grid(2, cells)
        assert_vtk_matches_oracle(tmp_path, grid, random_state(grid, cells))


def test_cmd_simulate_compression_breakdown(tmp_path, capsys):
    spec = spec_from(tmp_path, "command = simulate\ndim = 1\ncells = 32\n"
                               "preset = compression\nrate = 10\n"
                               "dt = 0.001\nt_end = 0.5\nsave_every = 2\n")
    assert cmd_simulate(spec) == 3
    rep = read_report(tmp_path / "out" / "report.txt")
    assert rep['termination'] == 'det_floor_hit'
    assert capsys.readouterr().err == (
        f"viscolab: simulate ended with det_floor_hit at t = {rep['termination_time']}\n")
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


def test_main_non_utf8_config_exits_2(tmp_path, capsys):
    # a Latin-1 byte in a comment once escaped main as a traceback, exit 1
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"command = korn\n# caf\xe9\n")
    out = tmp_path / "o"
    assert main(["korn", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("viscolab: cannot read config: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_main_parse_error_exit(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = simulate\ncells = 2\n")
    assert main(["simulate", "--config", str(cfg)]) == 2


def test_t_end_must_be_whole_steps(tmp_path, capsys):
    with pytest.raises(RangeError) as info:
        parse_config("command = simulate\ndt = 0.003\nt_end = 0.01\n")
    assert info.value.key == 't_end'
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "o"
    cfg.write_text("command = simulate\ndt = 0.003\nt_end = 0.01\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    # the convergence windows are checked at parse time against their own
    # step sizes, and the error names conv_t_end, which the study reads
    for text, why in [
        ("spatial_dt = 3e-5\n",
         "must be a whole number of steps spatial_dt = 3e-05"),
        ("dt = 0.03\n", "twice it must be a whole number of steps dt = 0.03"),
    ]:
        cfg.write_text("command = convergence\n" + text)
        capsys.readouterr()
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"viscolab: key 'conv_t_end': {why}\n"
        assert not out.exists()
    # the study never reads t_end, so t_end = 1 against dt = 0.3 is no error
    spec = parse_config("command = convergence\ndt = 0.3\nconv_t_end = 0.15\n")
    assert spec.dt == 0.3 and spec.t_end == 1.0


@pytest.mark.parametrize("command,key", [("simulate", "dt"), ("convergence", "dt"),
                                         ("convergence", "spatial_dt"),
                                         ("convergence", "conv_t_end"),
                                         ("simulate", "linear_tol"),
                                         ("simulate", "picard_tol"),
                                         ("simulate", "det_floor")])
def test_infinite_step_or_window_names_its_key(tmp_path, capsys, command, key):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "o"
    cfg.write_text(f"command = {command}\n{key} = inf\n")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"viscolab: key '{key}': must be finite\n"
    assert not out.exists()


def test_cmd_convergence_small_case(tmp_path):
    spec = spec_from(tmp_path,
                     "command = convergence\ndim = 1\ncells = 16\nlevels = 2\n"
                     "spatial_dt = 5e-5\nconv_t_end = 0.05\ndt = 0.01\n")
    assert cmd_convergence(spec) == 0
    rep = read_report(tmp_path / "out" / "rates.txt")
    assert float(rep['spatial_rate']) >= 1.9
    assert float(rep['temporal_rate']) >= 0.9
    assert rep['pass'] == 'true'


@pytest.mark.parametrize("dim", [1, 2])
def test_cmd_convergence_defaults_pass(tmp_path, dim):
    # the study's own defaults end to end, spatial levels at second order
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "o"
    cfg.write_text(f"command = convergence\ndim = {dim}\n")
    assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_report(out / "rates.txt")
    assert rep['pass'] == 'true'
    for lv in range(2):
        assert 1.95 <= float(rep[f'spatial_rate_{lv}']) <= 2.05


def test_cmd_convergence_zero_solution_fails(tmp_path):
    # amplitude 0: every error is 0, so no rate is measured and the gate fails
    spec = spec_from(tmp_path,
                     "command = convergence\ndim = 1\ncells = 16\nlevels = 2\n"
                     "spatial_dt = 5e-5\nconv_t_end = 0.05\ndt = 0.01\n"
                     "amplitude = 0\n")
    assert cmd_convergence(spec) == 5
    rep = read_report(tmp_path / "out" / "rates.txt")
    assert rep['spatial_l2_level1'] == '0'
    assert rep['spatial_rate'] == rep['temporal_rate'] == 'nan'
    assert rep['pass'] == 'false'
    # a zero coarse error with a positive fine one measures no rate either
    assert np.isnan(_rate_table([0.0, 1e-3])).all()
    assert _rate_table([4e-3, 1e-3])[0] == 2.0


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


SMALL_STUDY = ("command = convergence\ndim = 1\ncells = 16\nlevels = 2\n"
               "spatial_dt = 5e-5\nconv_t_end = 0.05\ndt = 0.01\n")


def test_cmd_convergence_interpenetrating_data_exit_2(tmp_path, capsys):
    # amplitude 0.4 folds the 1D bump over (det 1 - 0.4 pi < 0): an input
    # error reported as simulate reports it, not a silent solver failure
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "o"
    cfg.write_text(SMALL_STUDY + "amplitude = 0.4\n")
    assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("viscolab: Interpenetration: min cell det = ")
    assert err.count("\n") == 1
    assert not any(out.iterdir())


@pytest.mark.parametrize("error,kind,code,time", [
    (None, 'det_floor_hit', 3, '5e-05'),
    (PicardDivergence, 'picard_divergence', 4, '0.0'),
    (LinearSolveFailure, 'linear_solver_failure', 4, '0.0'),
])
def test_cmd_convergence_run_failure_names_the_run(tmp_path, capsys, monkeypatch,
                                                   error, kind, code, time):
    text = SMALL_STUDY
    if error is None:
        # initial data above a zero floor, the first step below the config's
        real_init = pde_solver.init_state
        monkeypatch.setattr(pde_solver, 'init_state',
                            lambda grid, xi0, xi1, floor: real_init(grid, xi0, xi1, 0.0))
        text += "amplitude = 0.2\ndet_floor = 0.5\n"
    else:
        def failing(*args, **kwargs):
            raise error("stub")
        monkeypatch.setattr(pde_solver, 'solve_shifted', failing)
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "o"
    cfg.write_text(text)
    assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == code
    assert capsys.readouterr().err == (
        f"viscolab: convergence run cells = 16, dt = 5e-05 ended with {kind} "
        f"at t = {time}\n")
    assert not (out / "rates.txt").exists()
