"""The benchmark tracer patches viscolab by name; every name must exist."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    # install() patches modules for the whole process, so it runs in a child
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import tracing; "
            "tracing.install(tracing.Tracer())")
    proc = subprocess.run(
        [sys.executable, '-c', code, str(ROOT / 'perfbench'), str(ROOT / 'src')],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
