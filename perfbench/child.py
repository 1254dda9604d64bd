"""One measured CLI run in a fresh process.

    python3 child.py COMMAND CONFIG OUT_DIR RESULT_JSON TRACE

Times ``import viscolab`` (numpy and scipy included) as the set-up, then the
``cli_harness.main`` call for COMMAND between two runs of the reference
kernel, and writes the times, the two kernel times, the exit code, the
peak resident memory and the library versions to RESULT_JSON.  With TRACE
set to 1 the public functions are traced first and the spans and counters
go into RESULT_JSON too.  ``src/`` must be on PYTHONPATH.
"""

import json
import os
import platform
import resource
import sys
import time


def _versions():
    import numpy
    import scipy

    def blas(show_config):
        dep = show_config(mode='dicts')['Build Dependencies']['blas']
        return f"{dep.get('name')} {dep.get('version')}"
    return {'python': platform.python_version(), 'numpy': numpy.__version__,
            'scipy': scipy.__version__, 'numpy_blas': blas(numpy.show_config),
            'scipy_blas': blas(scipy.show_config),
            'nproc': len(os.sched_getaffinity(0))}


def main(argv):
    command, config, out_dir, result_path, trace = argv[1:]
    start = time.perf_counter()
    from viscolab import cli_harness
    setup_s = time.perf_counter() - start
    from reference import reference_seconds

    entry, tracer = cli_harness.main, None
    if trace == '1':
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        entry = tracer.wrap('cli_harness.main', cli_harness.main)
    ref_before = reference_seconds()
    start = time.perf_counter()
    code = entry([command, '--config', config, '--out', out_dir])
    wall_s = time.perf_counter() - start
    ref_after = reference_seconds()

    result = {'exit_code': code, 'setup_s': setup_s, 'wall_s': wall_s,
              'ref_s': [ref_before, ref_after],
              'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              'env': _versions()}
    if tracer is not None:
        result['trace'] = tracer.to_json()
    with open(result_path, 'w', encoding='utf-8') as fh:
        json.dump(result, fh)
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
