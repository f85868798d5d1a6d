"""Every rcflow module imports alone, and the package root exports nothing.

Each import runs in a fresh interpreter with warnings as errors, so a
module that works only after another one has been imported fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rcflow"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def run_alone(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    result = run_alone(f"import rcflow.{module}")
    assert result.returncode == 0, result.stderr


def test_package_root_exports_nothing():
    result = run_alone("import rcflow; print(sorted(n for n in vars(rcflow) if not n.startswith('__')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
