"""Smoke tests of the benchmark at desk size (2x1x16x16).

    python3 -m pytest perfbench/test_perfbench.py -q

They check that every metric is printed with its unit, that the gate passes
on the current code, that it fails on corrupted outputs, and that a hooked
command writes the same bytes as a plain `python -m rcflow.cli` run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from gate import check_command  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "1", "--size", "desk", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def printed_metrics(stdout: str) -> dict[tuple[str, str], dict[str, str]]:
    """(workload, metric) -> {value, unit} from the printed tables."""
    table, workload = {}, None
    for line in stdout.splitlines():
        if line.startswith("== "):
            workload = line[3:]
        elif workload and len(line.split()) >= 3 and not line.startswith("{"):
            name, value, unit = line.split()[:3]
            table[(workload, name)] = {"value": value, "unit": unit}
    return table


@pytest.fixture(scope="module")
def untraced():
    return bench("--workload", "all", "--trace", "0")


@pytest.fixture(scope="module")
def traced():
    return bench("--workload", "all", "--trace", "1")


def test_untraced_run_prints_every_end_to_end_metric_and_passes_the_gate(untraced):
    assert untraced.returncode == 0, untraced.stderr
    table = printed_metrics(untraced.stdout)
    for workload in WORKLOADS.values():
        for name, unit in (*run.E2E_METRICS, ("failed_frac", "ratio")):
            assert table[(workload.name, name)]["unit"] == unit
        assert float(table[(workload.name, "nfe")]["value"]) == workload.nfe
        assert float(table[(workload.name, "failed_frac")]["value"]) == 0.0
    result = json.loads(untraced.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert {m["value"] for k, m in result["metrics"].items() if k.endswith("/nfe")} == {55, 490, 200}


def test_traced_run_prints_every_per_layer_metric(traced):
    assert traced.returncode == 0, traced.stderr
    table = printed_metrics(traced.stdout)
    for workload in WORKLOADS:
        for name, unit, _ in run.LAYER_METRICS:
            assert table[(workload, name)]["unit"] == unit
    assert json.loads(traced.stdout.splitlines()[-1])["correct"] is True
    assert float(table[("edit-hf-large", "latent.fft.transforms")]["value"]) > 0
    assert float(table[("flowedit-fresh-io", "latent.fft.transforms")]["value"]) == 0
    assert float(table[("mixture-reuse-mid", "fields.evaluate.calls")]["value"]) == 490


def test_json_line_matches_benchmark_json():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench("--workload", "mixture-reuse-mid", "--trace", str(trace))
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {name: m["unit"] for name, m in metrics.items()} == declared


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edit-hf-large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""


@pytest.fixture()
def desk_pass(tmp_path):
    """A runner and one desk pass of every workload, outputs kept."""

    def make(name: str):
        workload = WORKLOADS[name]
        config = workload.prepare(tmp_path / name, 5, "desk")
        runner = run.Runner(workload, config, tmp_path / name, run.child_env())
        return runner, runner.run_pass("pass")

    return make


@pytest.mark.parametrize(
    ("name", "command", "filename", "corrupt"),
    [
        ("edit-hf-large", "edit", "output.fps", lambda text: text.replace("\n", "\nnan ", 1)),
        ("edit-hf-large", "edit", "metrics.txt", lambda text: text.replace("nfe=55", "nfe=54")),
        ("flowedit-fresh-io", "flowedit", "output.fps", lambda text: text.rsplit(" ", 1)[0] + "\n"),
        ("mixture-reuse-mid", "sweep-reuse", "sweep.txt", lambda text: text.replace("\n10 55 ", "\n10 56 ")),
        ("mixture-reuse-mid", "equivalence", "equivalence.txt", lambda text: text.replace("passed=true", "passed=false")),
    ],
)
def test_gate_fails_on_a_corrupted_output(desk_pass, name, command, filename, corrupt):
    runner, record = desk_pass(name)
    assert all(not problems for problems in record.problems.values()), record.problems
    cmd = next(c for c in runner.workload.commands if c.name == command)
    out = runner.work / "out" / command
    path = out / filename
    corrupted = corrupt(path.read_text())
    assert corrupted != path.read_text()
    path.write_text(corrupted)
    assert check_command(cmd, out, {"code": 0, "nfe": cmd.nfe})


def test_gate_fails_when_a_same_seed_pass_differs(desk_pass):
    runner, first = desk_pass("edit-hf-large")
    second = runner.run_pass("pass")
    runner.gate([first, second])
    assert runner.failures == []
    second.digests["edit"]["output.fps"] = "0" * 64
    runner.gate([first, second])
    assert runner.failures == ["pass 2 edit: files differ from the first same-seed pass"]


def test_gate_fails_on_a_wrong_evaluation_count(desk_pass):
    runner, _ = desk_pass("flowedit-fresh-io")
    cmd = runner.workload.commands[0]
    assert check_command(cmd, runner.work / "out" / cmd.name, {"code": 0, "nfe": cmd.nfe + 1})


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_hooked_commands_write_the_same_bytes_as_the_plain_cli(desk_pass, name):
    runner, record = desk_pass(name)
    assert runner.run_pass("trace").digests == record.digests
    for cmd in runner.workload.commands:
        plain = runner.work / "plain" / cmd.name
        subprocess.run(
            [sys.executable, "-m", "rcflow.cli", cmd.name, "--config", str(runner.config), "--out", str(plain)],
            env=runner.env, check=True, capture_output=True, timeout=120,
        )
        hooked = runner.work / "out" / cmd.name
        assert sorted(p.name for p in plain.iterdir()) == sorted(p.name for p in hooked.iterdir())
        for path in plain.iterdir():
            assert path.read_bytes() == (hooked / path.name).read_bytes(), path.name
