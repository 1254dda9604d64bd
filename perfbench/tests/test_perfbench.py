"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / 'src'))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from viscolab.cli_harness import parse_config, validate_vtk  # noqa: E402


@pytest.fixture
def scratch(request):
    """An emptied directory of this test's own under the benchmark's work dir."""
    path = run.WORK / 'tests' / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _process(scratch, name, traced, seed=3):
    workload = WORKLOADS[name]
    work = scratch / ('traced' if traced else 'plain')
    work.mkdir(exist_ok=True)
    config = work / 'config.cfg'
    config.write_text(workload.config_text(seed), encoding='utf-8')
    record = run.run_process(workload, workload.params(seed), config, work,
                             traced, 120.0, validate_vtk)
    return record, work / 'out'


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    assert [(m['name'], m['unit']) for m in spec['end_to_end']] \
        == list(run.END_TO_END)
    assert [(m['name'], m['unit']) for m in spec['per_layer']] \
        == list(tracing.PER_LAYER)
    assert [(w['name'], w['why']) for w in spec['workloads']] \
        == [(w.name, w.why) for w in WORKLOADS.values()]


@pytest.mark.parametrize('name', sorted(WORKLOADS))
def test_seed_fixes_the_config(name):
    workload = WORKLOADS[name]
    assert workload.config_text(7) == workload.config_text(7)
    assert workload.config_text(7) != workload.config_text(8)
    spec = parse_config(workload.config_text(7))
    assert spec.command == workload.command
    for key, (low, high) in workload.ranged.items():
        assert low <= getattr(spec, key) <= high


def test_traced_counts_repeat_and_self_times_fit_in_wall(scratch):
    layers = []
    for _ in range(2):
        record, _ = _process(scratch, 'sim2d-nonlinear', traced=True)
        assert record['problems'] == []
        layer = tracing.summarize(record['trace'])
        assert sum(layer[f'{name}.self_s'] for name in tracing.LAYERS) \
            <= record['wall_s']
        layers.append(layer)
    assert {k: layers[0][k] for k in tracing.EXACT if k in layers[0]} \
        == {k: layers[1][k] for k in tracing.EXACT if k in layers[1]}
    assert layers[0]['pde_solver.krylov.iters_sum'] > 0
    assert layers[0]['pde_solver.assembly.nnz'] > 0


def test_corrupted_output_counts_as_failed(scratch):
    workload = WORKLOADS['sim2d-nonlinear']
    params = workload.params(3)
    good, out = _process(scratch, 'sim2d-nonlinear', traced=False)
    assert good['problems'] == []

    snapshot = sorted(out.glob('snapshot_*.vtk'))[-1]
    lines = snapshot.read_text().splitlines(keepends=True)
    snapshot.write_text(''.join(lines[:-1]))
    problems, _ = checks.check_run(workload, params, str(out), 0, validate_vtk)
    assert any(snapshot.name in p for p in problems)
    bad = dict(good, problems=problems)
    assert run.end_to_end([good, bad])['ok_frac'] == 0.5

    csv = out / 'diagnostics.csv'
    rows = csv.read_text().splitlines()
    rows[-1] = rows[-1].rsplit(',', 1)[0] + ',0.0005'
    csv.write_text('\n'.join(rows) + '\n')
    problems, _ = checks.check_diagnostics(str(csv), params)
    assert any('floor' in p for p in problems)


def test_refuses_to_run_without_the_program(scratch):
    shutil.copytree(BENCH, scratch / 'perfbench',
                    ignore=shutil.ignore_patterns('__pycache__'))
    shutil.copy(ROOT / 'BENCHMARK.json', scratch)
    proc = subprocess.run(
        [sys.executable, 'perfbench/run.py', '--workload', 'check2d',
         '--seed', '1', '--seconds', '1', '--trace', '0'],
        cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _diagnostics(path, rows):
    lines = [checks.CSV_HEADER] + [','.join(map(repr, row)) for row in rows]
    path.write_text('\n'.join(lines) + '\n')
    return str(path)


def test_energy_creation_fails_even_when_the_csv_agrees_with_itself(scratch):
    # every step stored: rows are (time, kinetic, elastic, dissipated,
    # residual = E + D - E(0), min_det) with E(0) = 1
    params = dict(dt=0.001, t_end=0.002, save_every=1, det_floor=0.001)
    good = [(0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
            (0.001, 0.9, 0.05, 0.06, 0.01, 0.99),
            (0.002, 0.8, 0.1, 0.11, 0.01, 0.98)]
    problems, residual = checks.check_diagnostics(
        _diagnostics(scratch / 'good.csv', good), params)
    assert problems == [] and residual == 0.01

    # the scheme creates energy; the residual column records it faithfully
    grew = good[:2] + [(0.002, 1.2, 0.1, 0.11, 0.41, 0.98)]
    problems, _ = checks.check_diagnostics(
        _diagnostics(scratch / 'grew.csv', grew), params)
    assert any('energy grew' in p for p in problems)
    assert not any('E + D - E(0)' in p for p in problems)

    # energy decays, but dissipation outgrows what E(0) could pay for
    leaky = good[:2] + [(0.002, 0.8, 0.1, 0.3, 0.2, 0.98)]
    problems, _ = checks.check_diagnostics(
        _diagnostics(scratch / 'leaky.csv', leaky), params)
    assert any(f'above {checks.RESIDUAL_SHARE} E(0)' in p for p in problems)
    assert not any('E + D - E(0)' in p for p in problems)
