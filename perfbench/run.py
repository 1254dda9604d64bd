"""viscolab benchmark: the CLI on fixed workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes a config for workload NAME from the seed (``all`` runs every
workload in turn) and runs the workload's CLI command on it in one fresh
single-threaded process after another, a closed loop, for about S seconds
and at least three processes.  Every process's exit code and output files
are checked.  With ``--trace 0`` the metrics are the end-to-end ones, each
the median over the processes.  With ``--trace 1`` the processes alternate
between traced and untraced, and the metrics are the per-layer ones: the
medians over the traced processes, plus the tracing overhead.

Times are reported at reference speed (see ``reference.py``): each
process's seconds are scaled by how fast the host ran a fixed kernel just
before and just after its CLI call.  The unscaled medians are printed as
``raw_*`` and kept in the summary.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Working
files, the spans of the last traced process and a summary with the library
versions go to ``.perfbench_work/<workload>/`` at the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from reference import REF_SECONDS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / 'src'
WORK = ROOT / '.perfbench_work'
MIN_PROCESSES = 3
TIME_LIMIT_S = 150.0        # no new process starts past this point in a run

END_TO_END = (('wall_s', 's'), ('setup_s', 's'), ('peak_rss_mb', 'MB'),
              ('ok_frac', 'ratio'))


def child_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS='1', OMP_NUM_THREADS='1',
               MKL_NUM_THREADS='1', PYTHONHASHSEED='0')
    env['PYTHONPATH'] = os.pathsep.join(
        [str(SRC)] + ([env['PYTHONPATH']] if env.get('PYTHONPATH') else []))
    return env


def run_process(workload, params, config, work, traced, timeout, validate_vtk):
    """One fresh process running the workload; its measurements and problems."""
    out_dir = work / 'out'
    result_path = work / 'result.json'
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / 'child.py'), workload.command,
           str(config), str(out_dir), str(result_path), '1' if traced else '0']
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {'traced': traced, 'problems': [f"no result in {timeout:.0f} s"]}
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:]
        return {'traced': traced,
                'problems': [f"process exited {proc.returncode}: {tail}"]}
    record = json.loads(result_path.read_text(encoding='utf-8'))
    record['traced'] = traced
    record['scale'] = REF_SECONDS / statistics.mean(record['ref_s'])
    record['problems'], record['accuracy'] = checks.check_run(
        workload, params, str(out_dir), record['exit_code'], validate_vtk)
    return record


def measure(workload, seed, seconds, trace, validate_vtk):
    """Processes of one run, one after another, for about `seconds`."""
    params = workload.params(seed)
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    config = work / 'config.cfg'
    config.write_text(workload.config_text(seed), encoding='utf-8')
    started = time.perf_counter()
    records = []
    while True:
        traced = trace and len(records) % 2 == 0
        timeout = TIME_LIMIT_S + 20.0 - (time.perf_counter() - started)
        records.append(run_process(workload, params, config, work, traced,
                                   timeout, validate_vtk))
        elapsed = time.perf_counter() - started
        next_end = elapsed + elapsed / len(records)
        if next_end > TIME_LIMIT_S or (len(records) >= MIN_PROCESSES
                                        and next_end > seconds):
            return records


def _median(records, key, scaled=True):
    return statistics.median(r[key] * (r['scale'] if scaled else 1.0)
                             for r in records)


def end_to_end(records):
    measured = [r for r in records if 'wall_s' in r]
    ok = sum(1 for r in records if not r['problems'])
    return {'wall_s': _median(measured, 'wall_s'),
            'setup_s': _median(measured, 'setup_s'),
            'peak_rss_mb': _median(measured, 'peak_rss_mb', scaled=False),
            'ok_frac': ok / len(records)}


def per_layer(records):
    traced = [r for r in records if 'trace' in r]
    plain = [r for r in records if 'wall_s' in r and not r['traced']]
    timed = {name for name, unit in tracing.PER_LAYER if unit in ('s', 'ms')}
    layers = []
    for r in traced:
        layer = tracing.summarize(r['trace'])
        layers.append({k: v * r['scale'] if k in timed else v
                       for k, v in layer.items()})
    out = {name: statistics.median(layer[name] for layer in layers)
           for name in layers[0]}
    for key in ('err_l2', 'energy_residual_max'):
        values = [r['accuracy'][key] for r in records
                  if key in r.get('accuracy', {})]
        out[key] = statistics.median(values) if values else 0.0
    out['trace.wall_s'] = _median(traced, 'wall_s')
    out['trace.overhead_s'] = out['trace.wall_s'] - _median(plain, 'wall_s')
    return out


def run_workload(workload, seed, seconds, trace, validate_vtk):
    """Measure one workload and save its summary; returns (records, summary).

    The summary is None when no process produced measurements.
    """
    records = measure(workload, seed, seconds, trace, validate_vtk)
    measured = [r for r in records if 'wall_s' in r]
    if not measured or (trace and not any('trace' in r for r in records)):
        return records, None
    if trace:
        values, units = per_layer(records), dict(tracing.PER_LAYER)
    else:
        values, units = end_to_end(records), dict(END_TO_END)
    metrics = {name: {'value': values[name], 'unit': units[name]}
               for name in units}
    raw = {f'raw_{key}': _median(measured, key, scaled=False)
           for key in ('wall_s', 'setup_s')}
    work = WORK / workload.name
    last_trace = [r.pop('trace') for r in records if 'trace' in r][-1:]
    if last_trace:
        (work / 'spans.json').write_text(json.dumps(last_trace[0]),
                                         encoding='utf-8')
    summary = {'workload': workload.name, 'seed': seed,
               'params': workload.params(seed), 'env': measured[0]['env'],
               'reference_seconds': REF_SECONDS, 'metrics': metrics,
               'raw': raw, 'processes': records}
    (work / 'summary.json').write_text(json.dumps(summary, indent=1),
                                       encoding='utf-8')
    return records, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True,
                        choices=sorted(WORKLOADS) + ['all'])
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / 'viscolab' / '__init__.py').is_file():
        print(f"run.py: no viscolab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from viscolab.cli_harness import validate_vtk

    names = sorted(WORKLOADS) if args.workload == 'all' else [args.workload]
    attempted = failed = 0
    combined = {}
    for name in names:
        records, summary = run_workload(WORKLOADS[name], args.seed,
                                        args.seconds, bool(args.trace),
                                        validate_vtk)
        attempted += len(records)
        failed += sum(1 for r in records if r['problems'])
        for r in records:
            for problem in r['problems']:
                print(f"{name}: FAILED: {problem}")
        if summary is None:
            print(f"run.py: {name}: no process produced measurements",
                  file=sys.stderr)
            return 1
        print(f"{name}: {len(records)} processes; "
              f"env {json.dumps(summary['env'])}")
        for key, val in summary['raw'].items():
            print(f"{name}: {key} = {val:.6g} s (unscaled)")
        for metric, val in summary['metrics'].items():
            print(f"{name}: {metric} = {val['value']:.6g} {val['unit']}")
            combined[metric if len(names) == 1 else f"{name}/{metric}"] = val
    print(json.dumps({'correct': failed == 0, 'attempted': attempted,
                      'failed': failed, 'metrics': combined}))
    return 0


if __name__ == '__main__':
    sys.exit(main())
