"""Correctness gate applied to every command of every pass.

A command fails when its process fails, when its field-evaluation count is
not exact, when an output is missing or not finite, when the sweep's NFE
table or the equivalence check is off, or (checked across passes by the
caller) when its files differ from the first same-seed pass.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from workloads import Command

SWEEP_NFE = {1: 100, 2: 75, 5: 60, 10: 55}
EQUIV_TOL = 1e-6


def digest(out: Path) -> dict[str, str]:
    """sha256 of every file a command wrote."""
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _key_values(path: Path) -> dict[str, str]:
    pairs = (line.partition("=") for line in path.read_text(encoding="ascii").splitlines() if line)
    return {key: value for key, _, value in pairs}


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_stack(path: Path) -> list[str]:
    tokens = path.read_text(encoding="ascii").split()
    if len(tokens) < 6 or tokens[0] != "FPSTACK":
        return [f"{path.name}: bad header"]
    count = math.prod(int(v) for v in tokens[2:6])
    try:
        values = np.array(tokens[6:], dtype=np.float64)
    except ValueError:
        return [f"{path.name}: non-numeric value"]
    if values.size != count:
        return [f"{path.name}: {values.size} values, header promises {count}"]
    if not np.all(np.isfinite(values)):
        return [f"{path.name}: non-finite values"]
    return []


def _check_run_outputs(out: Path, nfe: int) -> list[str]:
    problems = _check_stack(out / "output.fps")
    metrics = _key_values(out / "metrics.txt")
    if metrics.get("nfe") != str(nfe):
        problems.append(f"metrics.txt: nfe={metrics.get('nfe')}, expected {nfe}")
    problems += [f"metrics.txt: {k}={v} is not finite" for k, v in metrics.items() if not _finite(v)]
    if not (out / "frame_0000.pgm").is_file():
        problems.append("frame_0000.pgm missing")
    return problems


def _check_sweep(out: Path) -> list[str]:
    rows = [line.split() for line in (out / "sweep.txt").read_text(encoding="ascii").splitlines()[1:]]
    table = {int(row[0]): int(row[1]) for row in rows}
    problems = [] if table == SWEEP_NFE else [f"sweep.txt: NFE table {table}, expected {SWEEP_NFE}"]
    problems += [f"sweep.txt: r={row[0]} gap {row[2]} is not finite" for row in rows if not _finite(row[2])]
    return problems


def _check_equivalence(out: Path) -> list[str]:
    report = _key_values(out / "equivalence.txt")
    deviation = report.get("max_deviation", "nan")
    if report.get("passed") != "true" or not _finite(deviation) or float(deviation) > EQUIV_TOL:
        return [f"equivalence.txt: passed={report.get('passed')} max_deviation={deviation}"]
    return []


def check_command(command: Command, out: Path, result: dict | None) -> list[str]:
    """Problems found in one command's process result and output files."""
    if result is None:
        return ["process failed or timed out without a result"]
    problems = []
    if result["code"] != 0:
        problems.append(f"exit code {result['code']}")
    if result["nfe"] != command.nfe:
        problems.append(f"nfe {result['nfe']}, expected {command.nfe}")
    try:
        if command.name in ("edit", "flowedit"):
            problems += _check_run_outputs(out, command.nfe)
        elif command.name == "sweep-reuse":
            problems += _check_sweep(out)
        elif command.name == "equivalence":
            problems += _check_equivalence(out)
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"unreadable output: {exc}")
    return problems
