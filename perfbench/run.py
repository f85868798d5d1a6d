"""rcflow benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1 [--size full|desk]

Run from the root of a checkout. Load is a closed loop: one client runs one
`rcflow` command at a time, each in a fresh process with BLAS/OpenMP threads
capped at nproc. The seed generates every config and input stack; rcflow
receives only those files.

A run first sets up once unmeasured (bytecode, file cache). Then, within
`--seconds` seconds, it runs full workload passes while the next one fits and
fills the rest with set-up probes (the first command, stopped at its first
field evaluation). Every command of every pass goes through the gate in
gate.py, and all passes of one run must write byte-identical files.

`--trace 0` reports the end-to-end metrics: medians over passes (set-up over
passes and probes). `--trace 1` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones; spans are written to
`.perfbench/spans-<workload>-seed<seed>.json`. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from gate import check_command, digest
from tracing import now
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

E2E_METRICS = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("steps_per_s", "steps/s"),
    ("peak_rss_mb", "MB"),
    ("nfe", "count"),
)

# (name, unit, reported in the JSON line). A busy time of a layer that some
# workload never calls reads exactly 0 there, so it is printed but kept out
# of the JSON line; its call or byte count stays in.
LAYER_METRICS = (
    ("latent.hf_transfer.calls", "count", True),
    ("latent.hf_transfer.busy_s", "s", False),
    ("latent.freq_decompose.calls", "count", True),
    ("latent.freq_decompose.busy_s", "s", False),
    ("latent.fft.transforms", "count", True),
    ("latent.fft.values", "count", True),
    ("latent.LatentField.constructions", "count", True),
    ("latent.LatentField.busy_s", "s", True),
    ("latent.lerp_noise.busy_s", "s", True),
    ("latent.self_s", "s", True),
    ("fields.evaluate.calls", "count", True),
    ("fields.evaluate.busy_s", "s", True),
    ("fields.evaluate.src.calls", "count", True),
    ("fields.evaluate.src.busy_s", "s", True),
    ("fields.evaluate.tar.calls", "count", True),
    ("fields.evaluate.tar.busy_s", "s", True),
    ("fields.render_target.calls", "count", True),
    ("rng.standard_normal.calls", "count", True),
    ("rng.standard_normal.values", "count", True),
    ("rng.standard_normal.busy_s", "s", True),
    ("engine.sample_noise.busy_s", "s", True),
    ("engine.euler_step.calls", "count", True),
    ("engine.euler_step.busy_s", "s", True),
    ("edit.run_edit.busy_s", "s", False),
    ("edit.run_edit.self_s", "s", False),
    ("edit.run_edit.peak_alloc_mb", "MB", True),
    ("edit.consistency_residual.calls", "count", True),
    ("edit.consistency_residual.busy_s", "s", False),
    ("edit.residual_refresh_ratio", "ratio", True),
    ("flowedit.flowedit_run.busy_s", "s", False),
    ("flowedit.flowedit_run.self_s", "s", False),
    ("flowedit.flowedit_run.peak_alloc_mb", "MB", True),
    ("flowedit.equivalence_check.busy_s", "s", False),
    ("flowedit.equivalence_check.peak_alloc_mb", "MB", True),
    ("stackio.write_stack.busy_s", "s", False),
    ("stackio.write_stack.bytes", "bytes", True),
    ("stackio.export_frames.busy_s", "s", False),
    ("stackio.read_stack.busy_s", "s", False),
    ("stackio.read_stack.bytes", "bytes", True),
    ("config.load_config.busy_s", "s", True),
    ("config.build_field.busy_s", "s", True),
    ("config.build_mask.busy_s", "s", False),
    ("config.build_input.busy_s", "s", True),
    ("metrics.fg_structure_score.busy_s", "s", False),
    ("trace.overhead_s", "s", True),
)

# the span that should dominate each workload's compute time, and that time
CRITICAL_PATH = {
    "edit-hf-large": ("latent.hf_transfer.busy_s", "edit.run_edit.busy_s"),
    "mixture-reuse-mid": ("fields.evaluate.busy_s", "compute.busy_s"),
    "flowedit-fresh-io": ("rng.standard_normal.busy_s", "flowedit.flowedit_run.busy_s"),
}

COMPUTE_SPANS = {"edit.run_edit", "flowedit.flowedit_run", "flowedit.equivalence_check"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
MIN_PROBES = 5
COMMAND_TIMEOUT_S = 150.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    cap = nproc()
    for var in THREAD_VARS:
        current = env.get(var, "")
        env[var] = current if current.isdigit() and 1 <= int(current) <= cap else str(cap)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine(env: dict[str, str]) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: int(env[var]) for var in THREAD_VARS},
    }


@dataclass
class Pass:
    """One workload pass: every command of the workload, in order."""

    wall_s: float = 0.0
    setup_s: float | None = None
    compute_s: float = 0.0
    steps: int = 0
    nfe: int = 0
    rss_mb: float = 0.0
    problems: dict[str, list[str]] = field(default_factory=dict)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)


class Runner:
    def __init__(self, workload, config: Path, work: Path, env: dict[str, str]):
        self.workload = workload
        self.config = config
        self.work = work
        self.env = env
        self.attempted = 0
        self.failures: list[str] = []

    def command(self, mode: str, name: str, out: Path) -> tuple[float, float, dict | None]:
        """Run one command in a fresh process: (spawn time, wall seconds, result)."""
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), mode, str(result_path), name]
        argv += ["--config", str(self.config), "--out", str(out)]
        start = now()
        try:
            proc = subprocess.run(argv, env=self.env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return start, now() - start, None
        wall = now() - start
        if proc.returncode != 0 or not result_path.is_file():
            sys.stderr.write(proc.stderr[-2000:])
            return start, wall, None
        return start, wall, json.loads(result_path.read_text(encoding="ascii"))

    def probe(self) -> float | None:
        """Seconds from spawning the first command to its first field evaluation."""
        self.attempted += 1
        start, _, result = self.command("setup", self.workload.commands[0].name, self.work / "probe")
        if result is None or result["code"] != 0 or result["first_eval"] is None:
            self.failures.append("set-up probe failed")
            return None
        return result["first_eval"] - start

    def run_pass(self, mode: str) -> Pass:
        record = Pass()
        for index, cmd in enumerate(self.workload.commands):
            out = self.work / "out" / cmd.name
            shutil.rmtree(out, ignore_errors=True)
            start, wall, result = self.command(mode, cmd.name, out)
            self.attempted += 1
            record.wall_s += wall
            record.problems[cmd.name] = check_command(cmd, out, result)
            record.digests[cmd.name] = digest(out)
            if result is None:
                continue
            if index == 0 and result["first_eval"] is not None:
                record.setup_s = result["first_eval"] - start
            record.compute_s += result["compute_s"]
            record.steps += result["steps"]
            record.nfe += result["nfe"]
            record.rss_mb = max(record.rss_mb, result["maxrss_kb"] / 1024.0)
            if "trace" in result:
                record.traces.append(result["trace"])
        return record

    def gate(self, passes: list[Pass]) -> None:
        """Count each failed command, including files that differ from the first pass."""
        for number, record in enumerate(passes, start=1):
            for name, problems in record.problems.items():
                if record.digests[name] != passes[0].digests[name]:
                    problems = problems + ["files differ from the first same-seed pass"]
                if problems:
                    self.failures.append(f"pass {number} {name}: " + "; ".join(problems))


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def timing_summary(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(v for v in values if v is not None)
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"median={statistics.median(values):.6g} n={n}"
    if n >= 11:
        pct = 100 * (n - 10) // n
        text += f" p{pct}={values[n - 11]:.6g}"
    else:
        text += " tail needs n>=11"
    return text + " samples=" + ",".join(f"{v:.4g}" for v in values)


def layer_values(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its commands' spans and counters."""
    calls, busy, self_s, counts = Counter(), Counter(), Counter(), Counter()
    peaks: dict[str, float] = {}
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[index]
            ancestors = []
            while parent >= 0:
                ancestors.append(spans[parent][0])
                parent = spans[parent][3]
            if name not in ancestors:  # busy time counts the outermost of nested same-name spans
                busy[name] += end - start
            if name in COMPUTE_SPANS and not COMPUTE_SPANS.intersection(ancestors):
                busy["compute"] += end - start
        counts.update(trace["counts"])
        for name, peak in trace["peaks"].items():
            peaks[name] = max(peaks.get(name, 0.0), peak)
    for role in ("src", "tar", "other"):
        calls["fields.evaluate"] += calls[f"fields.evaluate.{role}"]
        busy["fields.evaluate"] += busy[f"fields.evaluate.{role}"]
    self_s["latent"] = sum(v for k, v in self_s.items() if k.startswith("latent."))

    values: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if kind in ("calls", "constructions"):
            values[name] = calls[base]
        elif kind == "busy_s":
            values[name] = busy[base]
        elif kind == "self_s":
            values[name] = self_s[base]
        elif kind == "peak_alloc_mb":
            values[name] = peaks.get(base, 0.0)
        else:
            values[name] = counts[name]
    evaluations = calls["fields.evaluate"]
    values["edit.residual_refresh_ratio"] = calls["edit.consistency_residual"] / evaluations if evaluations else 0.0
    values["compute.busy_s"] = busy["compute"]
    return values


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list[Pass], list[Pass], list[float | None]]:
    """Run passes (untraced, or untraced and traced in turn) while the next one
    fits in `seconds`, then set-up probes until the time is up."""
    deadline = now() + seconds
    untraced: list[Pass] = []
    traced: list[Pass] = []
    cycle_s: list[float] = []
    runner.probe()  # unmeasured: writes bytecode and fills the file cache
    while True:
        started = now()
        untraced.append(runner.run_pass("pass"))
        if trace:
            traced.append(runner.run_pass("trace"))
        cycle_s.append(now() - started)
        if len(untraced) + len(traced) >= MIN_PASSES and now() + statistics.median(cycle_s) > deadline:
            break
    setups = [p.setup_s for p in untraced]
    while not trace and (len(setups) < len(untraced) + MIN_PROBES or now() < deadline):
        setups.append(runner.probe())
    return untraced, traced, setups


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str, env: dict[str, str]) -> dict:
    workload = WORKLOADS[name]
    work = STATE / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    config = workload.prepare(work, seed, size)
    runner = Runner(workload, config, work, env)
    try:
        untraced, traced, setups = measure(runner, seconds, trace)
        runner.gate(untraced + traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        per_pass = [layer_values(p.traces) for p in traced]
        values = {key: _median([v[key] for v in per_pass]) for key in per_pass[0]}
        values["trace.overhead_s"] = _median([p.wall_s for p in traced]) - _median([p.wall_s for p in untraced])
        spans_path = STATE / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps([p.traces for p in traced]), encoding="ascii")
        metrics = [(metric, unit, values[metric], json_ok) for metric, unit, json_ok in LAYER_METRICS]
        notes = [f"spans: {spans_path.relative_to(ROOT)}"]
        part, whole = CRITICAL_PATH[name]
        if values[whole]:
            notes.append(f"critical path: {part} / {whole} = {values[part] / values[whole]:.3f}")
        summaries = {}
    else:
        walls = [p.wall_s for p in untraced]
        rates = [p.steps / p.compute_s for p in untraced if p.compute_s > 0]
        values = {
            "wall_s": _median(walls),
            "setup_s": _median(setups),
            "steps_per_s": _median(rates),
            "peak_rss_mb": _median([p.rss_mb for p in untraced]),
            "nfe": _median([p.nfe for p in untraced]),
        }
        metrics = [(metric, unit, values[metric], True) for metric, unit in E2E_METRICS]
        summaries = {"wall_s": timing_summary(walls), "setup_s": timing_summary(setups)}
        notes = [f"passes: {len(untraced)}, expected nfe {workload.nfe}, steps {workload.steps}"]
    failed = len(runner.failures)
    metrics.append(("failed_frac", "ratio", failed / runner.attempted, False))
    return {
        "name": name,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "metrics": metrics,
        "summaries": summaries,
        "notes": notes,
    }


def report(result: dict) -> None:
    print(f"== {result['name']}")
    for note in result["notes"]:
        print(f"   {note}")
    for metric, unit, value, _ in result["metrics"]:
        shown = "n/a" if value is None else f"{value:.6g}"
        extra = result["summaries"].get(metric, "")
        print(f"   {metric:<42} {shown:>14} {unit:<8} {extra}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rcflow" / "cli.py").is_file():
        print(f"perfbench: no rcflow sources under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2

    env = child_env()
    STATE.mkdir(exist_ok=True)
    print("machine: " + json.dumps(machine(env)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.size, env) for n in names]
    for result in results:
        report(result)

    prefix = len(results) > 1
    metrics = {
        (f"{r['name']}/" if prefix else "") + metric: {"value": value, "unit": unit}
        for r in results
        for metric, unit, value, json_ok in r["metrics"]
        if json_ok
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
