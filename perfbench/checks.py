"""Correctness checks on the files one CLI run wrote.

``check_run`` returns the problems it found (an empty list means the run
is correct) and the accuracy figures read off the outputs.  Any problem
counts the run as failed.
"""

import glob
import math
import os

CSV_HEADER = "time,kinetic,elastic,dissipated,residual,min_det"
SPACE_GATE_1D, TIME_GATE_1D = 1.9, 0.9
# |balance residual| / E(0) the package's own tests allow at dt = 1e-3
RESIDUAL_SHARE = 5e-2


def read_report(path):
    """``key = value`` lines as a dict of strings."""
    out = {}
    with open(path, encoding='utf-8') as fh:
        for line in fh:
            key, sep, val = line.partition('=')
            if sep:
                out[key.strip()] = val.strip()
    return out


def expected_snapshots(params):
    n_steps = int(round(params['t_end'] / params['dt']))
    every = params['save_every']
    return 1 + sum(1 for k in range(1, n_steps + 1)
                   if k % every == 0 or k == n_steps)


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_diagnostics(path, params):
    """Problems in diagnostics.csv, and max |residual| over its rows.

    Beyond the format, these physical facts must hold on every row: the
    determinant stays above the floor, dissipation is nonnegative and
    nondecreasing, the mechanical energy E never grows (no forcing, clamped
    boundary), and the residual column equals E + D - E(0).  When every
    step is stored, |residual| must also stay within RESIDUAL_SHARE of
    E(0).  With sparser snapshots the dissipation integral is a trapezoid
    over steps the CSV skips, so its quadrature error swamps the scheme's
    and the residual is not bounded.
    """
    with open(path, encoding='utf-8') as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["diagnostics.csv: bad header"], None
    rows = []
    for no, line in enumerate(lines[1:], start=2):
        cells = line.split(',')
        if len(cells) != 6 or not all(_finite(c) for c in cells):
            return [f"diagnostics.csv line {no}: not 6 finite numbers"], None
        rows.append([float(c) for c in cells])
    problems = []
    if len(rows) != expected_snapshots(params):
        problems.append(f"diagnostics.csv: {len(rows)} rows, expected "
                        f"{expected_snapshots(params)}")
    e0 = rows[0][1] + rows[0][2]
    residual_bound = (RESIDUAL_SHARE * e0 if params['save_every'] == 1
                      else math.inf)
    prev_t, prev_d, prev_mech = -math.inf, 0.0, e0
    for no, (t, kin, ela, diss, res, min_det) in enumerate(rows, start=2):
        mech = kin + ela
        scale = max(1.0, abs(e0), abs(diss))
        if t <= prev_t:
            problems.append(f"diagnostics.csv line {no}: time not increasing")
        if min_det <= params['det_floor']:
            problems.append(f"diagnostics.csv line {no}: min_det {min_det} "
                            f"at or below the floor")
        if diss < prev_d:
            problems.append(f"diagnostics.csv line {no}: dissipation decreased")
        if abs(mech + diss - e0 - res) > 1e-9 * scale:
            problems.append(f"diagnostics.csv line {no}: residual is not "
                            f"E + D - E(0)")
        if mech > prev_mech + 1e-12 * scale:
            problems.append(f"diagnostics.csv line {no}: energy grew")
        if abs(res) > residual_bound:
            problems.append(f"diagnostics.csv line {no}: |residual| {res} "
                            f"above {RESIDUAL_SHARE} E(0)")
        prev_t, prev_d, prev_mech = t, diss, mech
    if abs(rows[-1][0] - params['t_end']) > 1e-9:
        problems.append(f"diagnostics.csv: ends at t = {rows[-1][0]}")
    return problems, max(abs(r[4]) for r in rows)


def _check_simulate(out_dir, params, validate_vtk):
    problems = []
    report = read_report(os.path.join(out_dir, 'report.txt'))
    if report.get('termination') != 'completed':
        problems.append(f"report.txt: termination = {report.get('termination')}")
    if report.get('snapshots') != str(expected_snapshots(params)):
        problems.append(f"report.txt: snapshots = {report.get('snapshots')}")
    found, residual = check_diagnostics(
        os.path.join(out_dir, 'diagnostics.csv'), params)
    problems += found
    files = sorted(glob.glob(os.path.join(out_dir, 'snapshot_*.vtk')))
    if len(files) != expected_snapshots(params):
        problems.append(f"{len(files)} snapshot files, expected "
                        f"{expected_snapshots(params)}")
    points = (params['cells'] + 1) ** params['dim']
    for path in files:
        try:
            npts = validate_vtk(path)
        except (ValueError, IndexError) as exc:
            problems.append(f"{os.path.basename(path)}: {exc}")
            continue
        if npts != points:
            problems.append(f"{os.path.basename(path)}: {npts} points, "
                            f"expected {points}")
    return problems, ({} if residual is None
                      else {'energy_residual_max': residual})


def _check_convergence(out_dir, params):
    rates = read_report(os.path.join(out_dir, 'rates.txt'))
    last = rates.get(f"spatial_l2_level{params['levels'] - 1}", 'nan')
    problems = []
    if rates.get('pass') != 'true':
        problems.append(f"rates.txt: pass = {rates.get('pass')}")
    for key, gate in (('spatial_rate', SPACE_GATE_1D),
                      ('temporal_rate', TIME_GATE_1D)):
        val = rates.get(key, 'nan')
        if not (_finite(val) and float(val) >= gate):
            problems.append(f"rates.txt: {key} = {val} below {gate}")
    if not (_finite(last) and float(last) > 0.0):
        problems.append(f"rates.txt: last spatial error = {last}")
        return problems, {}
    return problems, {'err_l2': float(last)}


def _check_gamma_report(out_dir, params):
    report = read_report(os.path.join(out_dir, 'report.txt'))
    problems = []
    if report.get('pass') != 'true':
        problems.append(f"report.txt: pass = {report.get('pass')}")
    gamma = report.get('gamma_sup', 'nan')
    if not (_finite(gamma) and float(gamma) > 0.0):
        problems.append(f"report.txt: gamma_sup = {gamma}")
    if report.get('nodes_checked') != str(params['cells'] ** params['dim']):
        problems.append(f"report.txt: nodes_checked = "
                        f"{report.get('nodes_checked')}")
    return problems, {}


def check_run(workload, params, out_dir, exit_code, validate_vtk):
    """Problems with one run's exit code and outputs, and its accuracy."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"], {}
    try:
        if workload.command == 'simulate':
            return _check_simulate(out_dir, params, validate_vtk)
        if workload.command == 'convergence':
            return _check_convergence(out_dir, params)
        return _check_gamma_report(out_dir, params)
    except OSError as exc:
        return [f"missing output: {exc}"], {}
