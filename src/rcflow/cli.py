"""Experiment command line.

    rcflow <generate|edit|flowedit|equivalence|sweep-reuse>
           --config <path> [--out <dir>] [--seed <u64>] [--r <int>]
           [--lambda <f>] [--rho <f>]

Each flag replaces one config key (--out out_dir, --seed seed, --r
reuse_interval, --lambda hf_lambda, --rho hf_rho) and is parsed and
checked as that key, together with the rest of the file. Every command is
a pure function of config plus seed: re-running writes byte-identical
files.
Exit codes: 0 success, 2 config error, 3 numeric failure, 4 failed
equivalence or identity check.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import config as cfgmod
from .edit import run_edit
from .engine import generate, sample_noise
from .errors import ConfigError, NumericError
from .fields import render_target
from .flowedit import equivalence_check, flowedit_run
from .latent import rel_error
from .metrics import MetricsReport, bg_change_rms, fg_structure_score, rms_gap
from .stackio import export_frames, write_stack, write_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK_FAILED = 4

# flag, the config key it replaces, help
_FLAGS = (
    ("--out", "out_dir", "output directory"),
    ("--seed", "seed", "noise seed"),
    ("--r", "reuse_interval", "residual reuse interval"),
    ("--lambda", "hf_lambda", "detail injection share"),
    ("--rho", "hf_rho", "frequency split threshold"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcflow",
        description="Residual-corrected flow editing experiments on analytic velocity fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "sample the target condition from noise"),
        ("edit", "residual-corrected edit of the input toward the target condition"),
        ("flowedit", "reference inversion-free edit starting from the input"),
        ("equivalence", "check fixed-noise flowedit against the residual-corrected run"),
        ("sweep-reuse", "edit with each residual-reuse interval and tabulate the gaps"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config file")
        for flag, key, flag_help in _FLAGS:
            cmd.add_argument(flag, dest=key, help=f"{flag_help} (overrides {key})")
    return parser


def _out_dir(cfg: cfgmod.ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    if not out.is_absolute():
        out = cfg.base_dir / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_outputs(out: Path, field, report: MetricsReport) -> None:
    write_stack(out / "output.fps", field)
    lo, hi = export_frames(out, field, channel=0)
    report.export_channel = 0
    report.export_min = lo
    report.export_max = hi
    write_text(out / "metrics.txt", report.to_text())


def cmd_generate(cfg: cfgmod.ExperimentConfig) -> int:
    scene = cfgmod.build_scene(cfg)
    _, tar = cfgmod.build_bundles(cfg)
    field = cfgmod.build_field(cfg, scene)
    eps = sample_noise(cfg.seed, cfgmod.build_shape(cfg))
    output, nfe = generate(field, tar, eps, cfgmod.build_schedule(cfg))
    out = _out_dir(cfg)
    _write_run_outputs(out, output, MetricsReport(nfe=nfe))
    print(f"generate: nfe={nfe} out={out}")
    return EXIT_OK


class _EditSetup:
    """Everything an edit run needs, materialized from one config."""

    def __init__(self, cfg: cfgmod.ExperimentConfig):
        self.cfg = cfg
        self.scene = cfgmod.build_scene(cfg)
        self.src, self.tar = cfgmod.build_bundles(cfg)
        self.velocity = cfgmod.build_field(cfg, self.scene)
        self.mask = cfgmod.build_mask(cfg, self.scene, self.src)
        self.z0 = cfgmod.build_input(cfg, self.scene, self.src)
        self.eps = sample_noise(cfg.seed, cfgmod.build_shape(cfg))

    def run(self, reuse_interval: int | None = None):
        edit_cfg = cfgmod.build_edit_config(self.cfg, self.mask, reuse_interval=reuse_interval)
        return run_edit(self.velocity, self.z0, self.src, self.tar, self.eps, edit_cfg)

    @property
    def identity_run(self) -> bool:
        return self.src == self.tar


def cmd_edit(cfg: cfgmod.ExperimentConfig) -> int:
    setup = _EditSetup(cfg)
    report = setup.run()
    source_render = render_target(setup.scene, setup.src)
    metrics = MetricsReport(
        nfe=report.nfe,
        fg_structure_score=fg_structure_score(report.output, source_render, setup.mask),
        bg_change_rms=bg_change_rms(report.output, source_render, setup.mask),
    )
    if setup.identity_run:
        metrics.identity_error = rel_error(report.output, setup.z0)
    out = _out_dir(cfg)
    _write_run_outputs(out, report.output, metrics)
    print(f"edit: nfe={report.nfe} out={out}")
    strict_identity = (
        setup.identity_run
        and cfg.reuse_interval == 1
        and float(setup.mask.data.min()) == 1.0
    )
    if strict_identity and metrics.identity_error > cfg.identity_tol:
        print(
            f"identity check failed: error {metrics.identity_error:.3g} > tol {cfg.identity_tol:.3g}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_flowedit(cfg: cfgmod.ExperimentConfig) -> int:
    scene = cfgmod.build_scene(cfg)
    src, tar = cfgmod.build_bundles(cfg)
    velocity = cfgmod.build_field(cfg, scene)
    z0 = cfgmod.build_input(cfg, scene, src)
    output, nfe = flowedit_run(velocity, z0, src, tar, cfgmod.build_flowedit_config(cfg))
    out = _out_dir(cfg)
    _write_run_outputs(out, output, MetricsReport(nfe=nfe))
    print(f"flowedit: nfe={nfe} out={out}")
    return EXIT_OK


def cmd_equivalence(cfg: cfgmod.ExperimentConfig) -> int:
    scene = cfgmod.build_scene(cfg)
    src, tar = cfgmod.build_bundles(cfg)
    velocity = cfgmod.build_field(cfg, scene)
    z0 = cfgmod.build_input(cfg, scene, src)
    report = equivalence_check(
        velocity, z0, src, tar, cfgmod.build_schedule(cfg), cfg.seed, cfg.equiv_tol
    )
    out = _out_dir(cfg)
    write_text(out / "equivalence.txt", "\n".join(report.to_lines()) + "\n")
    print(
        f"equivalence: max_deviation={report.max_deviation:.3g} tol={report.tol:.3g} "
        f"passed={str(report.passed).lower()}"
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_sweep_reuse(cfg: cfgmod.ExperimentConfig) -> int:
    setup = _EditSetup(cfg)
    reports = {1: setup.run(reuse_interval=1)}
    for r in cfg.sweep_r:
        if r not in reports:
            reports[r] = setup.run(reuse_interval=r)
    baseline = reports[1].output

    header = "r nfe reuse_gap" + (" identity_error" if setup.identity_run else "")
    lines = [header]
    for r in cfg.sweep_r:
        row = f"{r} {reports[r].nfe} {rms_gap(reports[r].output, baseline):.9g}"
        if setup.identity_run:
            row += f" {rel_error(reports[r].output, setup.z0):.9g}"
        lines.append(row)
    out = _out_dir(cfg)
    write_text(out / "sweep.txt", "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "edit": cmd_edit,
    "flowedit": cmd_flowedit,
    "equivalence": cmd_equivalence,
    "sweep-reuse": cmd_sweep_reuse,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for _, key, _ in _FLAGS if getattr(args, key) is not None}
    started = time.monotonic()
    try:
        cfg = cfgmod.load_config(args.config, overrides)
        code = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # wall time is informational only; it never lands in output files
    print(f"elapsed_seconds={time.monotonic() - started:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
