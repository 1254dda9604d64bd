"""Command-line harness: flat key=value configs, named initial-condition
presets, and bit-stable CSV / legacy-VTK / report writers.

Config grammar: one ``key = value`` assignment per line, ``#`` starts a
comment, blank lines are ignored, keys may appear once, unknown keys are
rejected.  Commands::

    viscolab check       --config run.cfg   # cell-wise gamma certification
    viscolab korn        --config run.cfg   # pointwise coercivity report
    viscolab simulate    --config run.cfg   # time integration + diagnostics
    viscolab convergence --config run.cfg   # manufactured-solution rates

Exit codes: 0 ok, 1 check failed, 2 input error, 3 breakdown during the
run, 4 solver failure, 5 convergence failure.
"""

import argparse
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from typing import get_args

import numpy as np

from . import constitutive, diagnostics, pde_solver, wellposedness
from .constitutive import ConstitutiveModel, EnergyModel, ViscosityModel
from .errors import (DegenerateQ, DomainError, ParseError, RangeError,
                     Unsupported, ViscolabError)
from .pde_solver import SolverConfig
from .wellposedness import CoercivityConfig

COMMANDS = ('check', 'korn', 'simulate', 'convergence')
PRESETS = ('rest', 'sinusoidal', 'compression', 'reflected')


@dataclass(frozen=True)
class RunSpec:
    """A parsed config.  The model keys, the solver keys and the coercivity
    knobs take their defaults from the library objects that own them; dt and
    t_end have no library default, and the rest are the command line's own.
    """

    command: str
    energy: str = EnergyModel.kind
    energy_q: float = EnergyModel.q
    viscosity: str = ViscosityModel.kind
    viscosity_m: int = ViscosityModel.m
    dim: int = 1
    cells: int = 64
    dt: float = 1e-3
    t_end: float = 1.0
    picard_tol: float = SolverConfig.picard_tol
    picard_max: int = SolverConfig.picard_max
    det_floor: float = SolverConfig.det_floor
    linear_tol: float = SolverConfig.linear_tol
    save_every: int = SolverConfig.save_every
    preset: str = 'rest'
    amplitude: float = 0.1
    mode: int = 1
    rate: float = 10.0
    out: str = 'out'
    seed: int = CoercivityConfig.seed
    f0: tuple | None = None
    q0: tuple | None = None
    angular_resolution: int = CoercivityConfig.angular_resolution
    refine_iters: int = CoercivityConfig.refine_iters
    num_directions: int = CoercivityConfig.num_directions
    num_fields: int = CoercivityConfig.num_fields
    max_modes: int = CoercivityConfig.max_modes
    levels: int = 3
    fine_cells: int | None = None
    spatial_dt: float | None = None
    conv_t_end: float | None = None


_TYPE_TAGS = {str: 'str', int: 'int', float: 'float', tuple: 'floats'}


def _type_tag(annotation):
    """Parser tag of a RunSpec field type; 'float | None' tags as 'float'."""
    kinds = [t for t in get_args(annotation) or (annotation,) if t is not type(None)]
    return _TYPE_TAGS[kinds[0]]


# key -> (type tag, default) in RunSpec field order; a None default means
# unset (the convergence study fills in its own, see _study_defaults)
_KEY_TABLE = {f.name: (_type_tag(f.type), None if f.default is MISSING else f.default)
              for f in fields(RunSpec)}


def _convert(key, raw, line_no):
    kind, _ = _KEY_TABLE[key]
    try:
        if kind == 'str':
            return raw
        if kind == 'int':
            return int(raw)
        if kind == 'float':
            return float(raw)
        return tuple(float(tok) for tok in raw.split(','))
    except ValueError as exc:
        raise ParseError(f"key '{key}': cannot parse {raw!r} as {kind}",
                         line=line_no) from exc


def _validate(values):
    def need(key, ok, why):
        if not ok:
            raise RangeError(key, why)

    need('command', values['command'] in COMMANDS,
         f"must be one of {COMMANDS}, got {values['command']!r}")
    # the models, build_grid, SolverConfig and CoercivityConfig raise
    # RangeError for the keys they own
    build_model(values)
    need('dim', values['dim'] in (1, 2), "must be 1 or 2")
    pde_solver.build_grid(values['dim'], values['cells'])
    # the convergence study never reads t_end; its windows are checked last
    solver_config(values if values['command'] != 'convergence'
                  else dict(values, t_end=values['dt']))
    need('preset', values['preset'] in PRESETS, f"must be one of {PRESETS}")
    need('amplitude', math.isfinite(values['amplitude']), "must be finite")
    need('mode', values['mode'] >= 1, "must be at least 1")
    need('rate', values['rate'] > 0.0, "must be positive")
    need('rate', math.isfinite(values['rate']), "must be finite")
    CoercivityConfig(**{f.name: values[f.name] for f in fields(CoercivityConfig)})
    need('levels', values['levels'] >= 2, "needs at least 2 levels")
    if values['fine_cells'] is not None:
        need('fine_cells', values['fine_cells'] >= 4, "must be at least 4")
    for key in ('spatial_dt', 'conv_t_end'):
        if values[key] is not None:
            need(key, values[key] > 0.0, "must be positive")
            need(key, math.isfinite(values[key]), "must be finite")
    nn = values['dim'] * values['dim']
    for key in ('f0', 'q0'):
        if values[key] is not None:
            need(key, len(values[key]) == nn,
                 f"needs {nn} comma-separated entries for dim {values['dim']}")
            need(key, all(math.isfinite(x) for x in values[key]),
                 "entries must be finite")
    if values['command'] == 'convergence':
        _study_runs(values)


def parse_config(text, **overrides):
    """Parse a flat key=value document into a RunSpec; applies defaults.

    overrides (the command line's --out and --seed) replace the document's
    values before they are validated.
    """
    seen = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split('#', 1)[0].strip()
        if not line:
            continue
        if '=' not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}", line=line_no)
        key, _, value = line.partition('=')
        key = key.strip()
        value = value.strip()
        if key not in _KEY_TABLE:
            raise ParseError(f"unknown key {key!r}", line=line_no)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", line=line_no)
        if not value:
            raise ParseError(f"key '{key}' has no value", line=line_no)
        seen[key] = _convert(key, value, line_no)
    if 'command' not in seen:
        raise ParseError("missing required key 'command'")
    seen.update(overrides)
    values = {key: default for key, (_, default) in _KEY_TABLE.items()}
    values.update(seen)
    if values['command'] == 'convergence':
        _study_defaults(values, seen)
    _validate(values)
    return RunSpec(**values)


def _fmt(x):
    """Round-trip-safe float formatting (17 significant digits)."""
    return f"{x:.17g}"


def build_model(values):
    """ConstitutiveModel of the parsed values, or of vars() of a RunSpec."""
    return ConstitutiveModel(EnergyModel(values['energy'], values['energy_q']),
                             ViscosityModel(values['viscosity'],
                                            values['viscosity_m']))


def solver_config(values):
    """SolverConfig of the parsed values, or of vars() of a RunSpec."""
    return SolverConfig(**{f.name: values[f.name] for f in fields(SolverConfig)})


def _study_defaults(values, seen):
    """Fill in the convergence study's defaults for the keys it reads and
    the config leaves out: the base cells and dt, spatial_dt and conv_t_end
    by dim, and fine_cells, the base cells refined levels - 1 times."""
    one_d = values['dim'] == 1
    study = {'cells': 16 if one_d else 8, 'dt': 2e-2,
             'spatial_dt': 2e-5 if one_d else 2.5e-4, 'conv_t_end': 0.1}
    values.update({key: val for key, val in study.items() if key not in seen})
    if 'fine_cells' not in seen:
        values['fine_cells'] = values['cells'] * 2 ** (values['levels'] - 1)


def _study_runs(values):
    """(cells, SolverConfig) of each run of the convergence study.

    First levels grid refinements of the base cells at spatial_dt over
    conv_t_end, then levels halvings of dt on fine_cells over twice that
    window, long enough for the time error to dominate the fixed spatial
    floor.  Each run saves about four snapshots.  RangeError names
    conv_t_end when a window is not a whole number of steps.
    """
    window, levels = values['conv_t_end'], values['levels']
    plan = [(values['cells'] * 2 ** lv, values['spatial_dt'], window,
             "must be a whole number of steps spatial_dt")
            for lv in range(levels)]
    plan += [(values['fine_cells'], values['dt'] / 2 ** lv, 2.0 * window,
              "twice it must be a whole number of steps dt")
             for lv in range(levels)]
    runs = []
    for cells, dt, t_stop, why in plan:
        steps = pde_solver.whole_steps(t_stop, dt)
        if steps is None:
            raise RangeError('conv_t_end', f"{why} = {dt!r}")
        runs.append((cells, solver_config(dict(
            values, dt=dt, t_end=t_stop, save_every=max(1, steps // 4)))))
    return runs


def preset_functions(spec):
    """Initial deformation/velocity callables for the named preset."""
    amp, mode, rate = spec.amplitude, spec.mode, spec.rate
    pi = np.pi

    def product_sine(x, skip=None, factor=1):
        out = 1.0
        for s in range(x.shape[-1]):
            if s == skip:
                continue
            out = out * np.sin(factor * pi * x[..., s])
        return out

    if spec.preset == 'rest':
        return (lambda x: np.array(x, copy=True),
                lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    if spec.preset == 'sinusoidal':
        def xi1(x):
            v = np.zeros_like(np.asarray(x, dtype=float))
            v[..., 0] = amp * product_sine(x, factor=mode)
            return v
        return (lambda x: np.array(x, copy=True), xi1)
    if spec.preset == 'compression':
        def xi1(x):
            v = np.empty_like(np.asarray(x, dtype=float))
            for r in range(x.shape[-1]):
                v[..., r] = -rate * np.sin(pi * x[..., r]) * product_sine(x, skip=r)
            return v
        return (lambda x: np.array(x, copy=True), xi1)
    # 'reflected': interior fold with det grad xi0 < 0, still clamped
    def xi0(x):
        out = np.array(x, copy=True)
        for r in range(x.shape[-1]):
            out[..., r] += 0.6 * np.sin(2.0 * pi * x[..., r]) * product_sine(x, skip=r)
        return out
    return xi0, lambda x: np.zeros_like(np.asarray(x, dtype=float))


def write_report(path, items):
    """Write 'key = value' lines in the given order."""
    with open(path, 'w', encoding='utf-8') as fh:
        for key, val in items:
            if isinstance(val, float):
                val = _fmt(val)
            fh.write(f"{key} = {val}\n")


def write_diagnostics_csv(path, energy_rep, mindet):
    with open(path, 'w', encoding='utf-8', newline='\n') as fh:
        fh.write("time,kinetic,elastic,dissipated,residual,min_det\n")
        for k, t in enumerate(energy_rep.times):
            row = (t, energy_rep.kinetic[k], energy_rep.elastic[k],
                   energy_rep.dissipated_cumulative[k],
                   energy_rep.balance_residual[k], mindet[k][1])
            fh.write(','.join(_fmt(float(x)) for x in row) + '\n')


def write_vtk_snapshot(path, grid, state):
    """Legacy-ASCII structured grid with point vectors xi and v."""
    dims = ' '.join(str(n) for n in grid.node_shape + (1,) * (3 - grid.dim))
    npts = grid.num_nodes
    # '%.17g' formats exactly as _fmt
    rows = '%.17g %.17g %.17g\n' * npts
    axes = list(range(grid.dim))

    def table(a):
        # VTK orders points with x fastest; our arrays index (ix, iy, iz)
        out = np.zeros(grid.node_shape + (3,))
        out[..., :grid.dim] = a.reshape(grid.node_shape + (grid.dim,))
        return rows % tuple(np.moveaxis(out, axes, axes[::-1]).ravel().tolist())

    with open(path, 'w', encoding='utf-8', newline='\n') as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"viscolab snapshot t={_fmt(state.time)}\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_GRID\n")
        fh.write(f"DIMENSIONS {dims}\n")
        fh.write(f"POINTS {npts} double\n")
        fh.write(table(grid.node_positions()))
        fh.write(f"POINT_DATA {npts}\n")
        for name, data in (('xi', state.xi), ('v', state.v)):
            fh.write(f"VECTORS {name} double\n")
            fh.write(table(data))


def validate_vtk(path):
    """Structural check of a legacy-ASCII structured-grid snapshot.

    Returns the point count; raises ValueError on any malformed or missing
    section, naming the line where the file ends early, a line has the
    wrong number of fields, a count is not a nonnegative integer, a point
    or vector row is not three finite numbers, or anything but blank lines
    follows the first blank line after the data arrays.
    """
    with open(path, encoding='utf-8') as fh:
        lines = [ln.rstrip('\n') for ln in fh]

    def line(cursor, what):
        if cursor >= len(lines):
            raise ValueError(f"line {cursor + 1}: file ends before the {what}")
        return lines[cursor]

    def tokens(cursor, count, what):
        row = line(cursor, what).split()
        if len(row) != count:
            raise ValueError(f"line {cursor + 1}: bad {what}")
        return row

    def numbers(cursor, what):
        row = tokens(cursor, 3, what)
        try:
            ok = all(math.isfinite(float(x)) for x in row)
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"line {cursor + 1}: bad {what}")

    def counts(cursor, row, what):
        try:
            out = [int(x) for x in row]
            ok = min(out) >= 0
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"line {cursor + 1}: bad {what}")
        return out

    if line(0, "header line") != "# vtk DataFile Version 3.0":
        raise ValueError("line 1: bad header line")
    if line(2, "format line") != "ASCII" \
            or line(3, "dataset line") != "DATASET STRUCTURED_GRID":
        raise ValueError("lines 3-4: not an ASCII structured grid")
    dims = tokens(4, 4, "DIMENSIONS line")
    if dims[0] != "DIMENSIONS":
        raise ValueError("line 5: bad DIMENSIONS line")
    nx, ny, nz = counts(4, dims[1:], "DIMENSIONS line")
    pts = tokens(5, 3, "POINTS line")
    if pts[0] != "POINTS" or pts[2] != "double":
        raise ValueError("line 6: bad POINTS line")
    npts, = counts(5, pts[1:2], "POINTS line")
    if npts != nx * ny * nz:
        raise ValueError("line 6: point count does not match DIMENSIONS")
    cursor = 6
    for _ in range(npts):
        numbers(cursor, "point row")
        cursor += 1
    if line(cursor, "POINT_DATA line") != f"POINT_DATA {npts}":
        raise ValueError(f"line {cursor + 1}: bad POINT_DATA line")
    cursor += 1
    names = []
    while cursor < len(lines) and lines[cursor]:
        head = tokens(cursor, 3, "VECTORS header")
        if head[0] != "VECTORS" or head[2] != "double":
            raise ValueError(f"line {cursor + 1}: bad VECTORS header")
        names.append(head[1])
        cursor += 1
        for _ in range(npts):
            numbers(cursor, "vector row")
            cursor += 1
    for rest in range(cursor, len(lines)):
        if lines[rest].strip():
            raise ValueError(f"line {rest + 1}: content after the data arrays")
    if names != ['xi', 'v']:
        raise ValueError(f"expected vector arrays ['xi', 'v'], found {names}")
    return npts


def _prepare_outdir(spec):
    os.makedirs(spec.out, exist_ok=True)
    probe = os.path.join(spec.out, '.write_probe')
    with open(probe, 'w', encoding='utf-8') as fh:
        fh.write('ok')
    os.remove(probe)


def _initial_state(spec, grid):
    xi0, xi1 = preset_functions(spec)
    return pde_solver.init_state(grid, xi0, xi1, spec.det_floor)


def _closed_form(viscosity, f0, q0):
    """Catalogue gamma at (f0, q0) as (value or None, report text, note)."""
    try:
        value = wellposedness.closed_form_gamma(viscosity, f0, q0)
    except (DegenerateQ, Unsupported, DomainError) as exc:
        return None, 'undefined', f"{type(exc).__name__}: {exc}"
    return value, _fmt(value), 'ok'


def cmd_check(spec):
    """Cell-wise gamma certification of the preset's initial data."""
    _prepare_outdir(spec)
    grid = pde_solver.build_grid(spec.dim, spec.cells)
    state = _initial_state(spec, grid)
    viscosity = ViscosityModel(spec.viscosity, spec.viscosity_m)
    n = grid.dim
    f0 = pde_solver.gradient_field(grid, state.xi).reshape(-1, n, n)
    q0 = pde_solver.gradient_field(grid, state.v).reshape(-1, n, n)
    report = wellposedness.check_initial_data(
        viscosity, f0, q0, spec.angular_resolution, spec.refine_iters)
    worst_m = constitutive.viscous_tangent_q(
        viscosity, f0[report.worst_node], q0[report.worst_node])
    sector = wellposedness.sector_scan(worst_m, spec.num_directions)
    _, closed, closed_note = _closed_form(
        viscosity, f0[report.worst_node], q0[report.worst_node])
    items = [
        ('command', 'check'),
        ('viscosity', spec.viscosity),
        ('viscosity_m', spec.viscosity_m),
        ('preset', spec.preset),
        ('nodes_checked', report.nodes_checked),
        ('gamma_sup', report.gamma_sup),
        ('gamma_inf', report.gamma_inf),
        ('worst_node', report.worst_node),
        ('closed_form_gamma', closed),
        ('closed_form_note', closed_note),
        ('sector_min_real_part', sector.min_real_part),
        ('sector_max_abs_arg', sector.max_abs_arg),
        ('elliptic', str(sector.elliptic).lower()),
        ('pass', str(report.passed).lower()),
    ]
    write_report(os.path.join(spec.out, 'report.txt'), items)
    return 0 if report.passed else 1


def cmd_korn(spec):
    """Coercivity report for a single (F0, Q0) point."""
    _prepare_outdir(spec)
    n = spec.dim
    f0 = np.array(spec.f0, dtype=float).reshape(n, n) if spec.f0 else np.eye(n)
    q0 = np.array(spec.q0, dtype=float).reshape(n, n) if spec.q0 else np.zeros((n, n))
    viscosity = ViscosityModel(spec.viscosity, spec.viscosity_m)
    tangent = constitutive.viscous_tangent_q(viscosity, f0, q0)
    if not np.all(np.isfinite(tangent)):
        raise DomainError("the viscous tangent at (f0, q0) overflows")
    r1 = wellposedness.rank_one_min(tangent, spec.angular_resolution,
                                    spec.refine_iters)
    sector = wellposedness.sector_scan(tangent, spec.num_directions)
    worst = wellposedness.fourier_korn_sample(tangent, spec.num_fields,
                                              spec.max_modes, spec.seed)
    closed_val, closed, closed_note = _closed_form(viscosity, f0, q0)
    # the m = 0 catalogue constant is known to undershoot the rank-one
    # optimum; report both values and flag the gap instead of hiding it
    discrepancy = (closed_val is not None and math.isfinite(r1.gamma_est)
                   and r1.gamma_est > closed_val * (1.0 + 1e-3))
    items = [
        ('command', 'korn'),
        ('viscosity', spec.viscosity),
        ('viscosity_m', spec.viscosity_m),
        ('ratio_min', r1.ratio_min),
        ('gamma_est', r1.gamma_est),
        ('closed_form_gamma', closed),
        ('closed_form_note', closed_note),
        ('gamma_discrepancy', str(discrepancy).lower()),
        ('sector_min_real_part', sector.min_real_part),
        ('sector_max_abs_arg', sector.max_abs_arg),
        ('elliptic', str(sector.elliptic).lower()),
        ('fourier_worst_ratio', worst),
    ]
    write_report(os.path.join(spec.out, 'report.txt'), items)
    return 0 if math.isfinite(r1.gamma_est) and sector.elliptic else 1


_EXIT_BY_TERMINATION = {
    'completed': 0,
    'det_floor_hit': 3,
    'picard_divergence': 4,
    'linear_solver_failure': 4,
}


def cmd_simulate(spec):
    """Integrate the preset initial data and dump CSV + VTK series."""
    _prepare_outdir(spec)
    grid = pde_solver.build_grid(spec.dim, spec.cells)
    state = _initial_state(spec, grid)
    model = build_model(vars(spec))
    traj = pde_solver.run(model, grid, solver_config(vars(spec)), state)
    energy_rep = diagnostics.energy_report(traj, model, grid)
    mindet = diagnostics.min_det_series(traj, grid)
    write_diagnostics_csv(os.path.join(spec.out, 'diagnostics.csv'),
                          energy_rep, mindet)
    for k, st in enumerate(traj.states):
        write_vtk_snapshot(os.path.join(spec.out, f'snapshot_{k:04d}.vtk'),
                           grid, st)
    items = [
        ('command', 'simulate'),
        ('termination', traj.termination.kind),
        ('termination_time', 'none' if traj.termination.time is None
         else _fmt(traj.termination.time)),
        ('snapshots', len(traj.states)),
        ('final_min_det', mindet[-1][1]),
    ]
    write_report(os.path.join(spec.out, 'report.txt'), items)
    return _EXIT_BY_TERMINATION[traj.termination.kind]


def _rate_table(errors):
    """log2 of successive error ratios; nan where either error is not
    positive, so that no gate passes on a study without error."""
    return [math.log2(coarse / fine) if coarse > 0 and fine > 0 else math.nan
            for coarse, fine in zip(errors, errors[1:])]


def cmd_convergence(spec):
    """Manufactured-solution study over grid and time-step halvings.

    Invalid initial data raise (exit 2, as in simulate); a run that does not
    complete stops the study with one stderr line and the exit code of its
    termination."""
    runs = _study_runs(vars(spec))
    _prepare_outdir(spec)
    dim = spec.dim
    model = build_model(vars(spec))
    exact = pde_solver.manufactured_default(dim, spec.amplitude)
    errors = []
    for cells, cfg in runs:
        res = pde_solver.manufactured_run(
            model, pde_solver.build_grid(dim, cells), cfg, exact)
        term = res.trajectory.termination
        if term.kind != 'completed':
            print(f"viscolab: convergence run cells = {cells}, dt = {cfg.dt} "
                  f"ended with {term.kind} at t = {term.time}", file=sys.stderr)
            return _EXIT_BY_TERMINATION[term.kind]
        errors.append(res.l2)
    spatial_err, temporal_err = errors[:spec.levels], errors[spec.levels:]
    spatial_rates = _rate_table(spatial_err)
    temporal_rates = _rate_table(temporal_err)
    want_space, want_time = (1.9, 0.9) if dim == 1 else (1.7, 0.8)
    ok = spatial_rates[-1] >= want_space and temporal_rates[-1] >= want_time
    items = [('command', 'convergence'), ('dim', dim), ('levels', spec.levels)]
    for lv, err in enumerate(spatial_err):
        items.append((f'spatial_l2_level{lv}', err))
    for lv, rate in enumerate(spatial_rates):
        items.append((f'spatial_rate_{lv}', rate))
    for lv, err in enumerate(temporal_err):
        items.append((f'temporal_l2_level{lv}', err))
    for lv, rate in enumerate(temporal_rates):
        items.append((f'temporal_rate_{lv}', rate))
    items += [('spatial_rate', spatial_rates[-1]),
              ('temporal_rate', temporal_rates[-1]),
              ('pass', str(ok).lower())]
    write_report(os.path.join(spec.out, 'rates.txt'), items)
    return 0 if ok else 5


_DISPATCH = {
    'check': cmd_check,
    'korn': cmd_korn,
    'simulate': cmd_simulate,
    'convergence': cmd_convergence,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog='viscolab',
        description='viscoelasticity lab: coercivity checks and simulations')
    parser.add_argument('command', choices=COMMANDS)
    parser.add_argument('--config', required=True, help='key=value config file')
    parser.add_argument('--out', help='output directory (overrides config)')
    parser.add_argument('--seed', type=int, help='RNG seed (overrides config)')
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding='utf-8') as fh:
            text = fh.read()
    except OSError as exc:
        print(f"viscolab: cannot read config: {exc}", file=sys.stderr)
        return 2
    overrides = {key: val for key, val in (('out', args.out), ('seed', args.seed))
                 if val is not None}
    try:
        spec = parse_config(text, **overrides)
    except ParseError as exc:
        print(f"viscolab: {exc}", file=sys.stderr)
        return 2
    if spec.command != args.command:
        print(f"viscolab: config says command = {spec.command!r}, "
              f"CLI asked for {args.command!r}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[spec.command](spec)
    except ViscolabError as exc:
        print(f"viscolab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"viscolab: {exc}", file=sys.stderr)
        return 2


if __name__ == '__main__':
    sys.exit(main())
