"""The benchmark in perfbench/ rebinds rcflow names at the sites that call them.

Deleting or renaming one of those sites breaks the benchmark, and only its
own slow tests would notice, so this installs both hook levels in a fresh
process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
from tracing import PassRecord, Tracer, install_pass_hooks, install_tracing

install_pass_hooks(PassRecord())
install_tracing(Tracer())
"""


def test_benchmark_hooks_resolve():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c", INSTALL], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
