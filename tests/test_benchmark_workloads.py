"""Every benchmark workload passes the benchmark's own output checks.

The benchmark counts a run whose outputs fail perfbench/checks.py as
failed.  This runs each workload's seed-1 config in-process and applies
those checks, so the tier-1 suite catches such outputs too.
"""

import importlib.util
from pathlib import Path

import pytest

from viscolab import cli_harness

PERFBENCH = Path(__file__).resolve().parents[1] / 'perfbench'


def _load(name):
    spec = importlib.util.spec_from_file_location(f'perfbench_{name}',
                                                  PERFBENCH / f'{name}.py')
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load('workloads')
checks = _load('checks')


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_outputs_pass_benchmark_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    config = tmp_path / 'config.cfg'
    config.write_text(workload.config_text(1), encoding='utf-8')
    out = tmp_path / 'out'
    code = cli_harness.main([workload.command, '--config', str(config),
                             '--out', str(out)])
    problems, _ = checks.check_run(workload, workload.params(1), str(out), code,
                                   cli_harness.validate_vtk)
    assert problems == []
