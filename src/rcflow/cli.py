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
import errno
import os
import shutil
import sys
import tempfile
import time
from functools import cached_property
from pathlib import Path

from . import config as cfgmod
from .edit import EditConfig, run_edit
from .engine import generate, sample_noise
from .errors import ConfigError, NumericError
# not called here; perfbench/tracing.py rebinds the name in this module, as in config and fields
from .fields import render_target  # noqa: F401
from .flowedit import FlowEditConfig, NoiseMode, equivalence_check, flowedit_run
from .latent import rel_error
from .metrics import bg_change_rms, fg_structure_score, key_values, rms_gap
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
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config file")
        for flag, key, flag_help in _FLAGS:
            cmd.add_argument(flag, dest=key, help=f"{flag_help} (overrides {key})")
    return parser


def _out_dir(cfg: cfgmod.ExperimentConfig) -> Path:
    out = cfg.base_dir / cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_outputs(out: Path, command: str, field, nfe: int, **metrics) -> None:
    """Write output.fps, the frames and metrics.txt into out as one set.

    Every file is first written into a temporary directory inside out. Only
    once all are written, and no target is a directory, do they replace
    their targets, and the frame files of an earlier, longer run go. A
    failure before the first replace leaves every old file as it was.
    """
    staging = Path(tempfile.mkdtemp(prefix=".run.", suffix=".tmp", dir=out))
    try:
        write_stack(staging / "output.fps", field)
        lo, hi = export_frames(staging, field)
        text = key_values(nfe=nfe, **metrics, export_channel=0, export_min=lo, export_max=hi)
        write_text(staging / "metrics.txt", text)
        names = sorted(p.name for p in staging.iterdir())
        for name in names:
            if (out / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
        for name in names:
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging)
    for stale in out.glob("frame_*.pgm"):
        if stale.name not in names and stale.is_file():
            stale.unlink()
    print(f"{command}: nfe={nfe} out={out}")


class _Setup:
    """What the commands run on, materialized from one config.

    The mask, the input stack and the noise are built on first use, so each
    command reads only the files it needs.
    """

    def __init__(self, cfg: cfgmod.ExperimentConfig):
        self.cfg = cfg
        self.schedule = cfgmod.build_schedule(cfg)
        self.scene = cfgmod.build_scene(cfg)
        self.src, self.tar = cfgmod.build_bundles(cfg)
        self.velocity = cfgmod.build_field(cfg, self.scene)
        self.identity_run = self.src == self.tar

    @cached_property
    def mask(self):
        return cfgmod.build_mask(self.cfg, self.scene, self.src)

    @cached_property
    def z0(self):
        return cfgmod.build_input(self.cfg, self.scene, self.src)

    @cached_property
    def eps(self):
        return sample_noise(self.cfg.seed, cfgmod.build_shape(self.cfg))

    def edit(self, reuse_interval: int | None = None):
        cfg = self.cfg
        r = cfg.reuse_interval if reuse_interval is None else reuse_interval
        edit_cfg = EditConfig(self.schedule, self.mask, r, cfg.hf_lambda, cfg.hf_rho)
        return run_edit(self.velocity, self.z0, self.src, self.tar, self.eps, edit_cfg)


def cmd_generate(setup: _Setup, out: Path) -> int:
    output, nfe = generate(setup.velocity, setup.tar, setup.eps, setup.schedule)
    _write_run_outputs(out, "generate", output, nfe)
    return EXIT_OK


def cmd_edit(setup: _Setup, out: Path) -> int:
    cfg = setup.cfg
    report = setup.edit()
    identity_error = rel_error(report.output, setup.z0) if setup.identity_run else None
    _write_run_outputs(
        out,
        "edit",
        report.output,
        report.nfe,
        identity_error=identity_error,
        fg_structure_score=fg_structure_score(report.output, setup.z0, setup.mask),
        bg_change_rms=bg_change_rms(report.output, setup.z0, setup.mask),
    )
    strict_identity = (
        setup.identity_run
        and cfg.reuse_interval == 1
        and float(setup.mask.data.min()) == 1.0
    )
    if strict_identity and identity_error > cfg.identity_tol:
        print(
            f"identity check failed: error {identity_error:.3g} > tol {cfg.identity_tol:.3g}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_flowedit(setup: _Setup, out: Path) -> int:
    cfg = setup.cfg
    fe_cfg = FlowEditConfig(setup.schedule, NoiseMode(cfg.fe_noise), cfg.fe_navg, cfg.seed)
    output, nfe = flowedit_run(setup.velocity, setup.z0, setup.src, setup.tar, fe_cfg)
    _write_run_outputs(out, "flowedit", output, nfe)
    return EXIT_OK


def cmd_equivalence(setup: _Setup, out: Path) -> int:
    cfg = setup.cfg
    report = equivalence_check(
        setup.velocity, setup.z0, setup.src, setup.tar, setup.schedule, cfg.seed, cfg.equiv_tol
    )
    summary = key_values(
        tol=report.tol,
        passed=report.passed,
        max_deviation=report.max_deviation,
        flowedit_nfe=report.flowedit_nfe,
        edit_nfe=report.edit_nfe,
    )
    steps = "".join(
        f"step t={t:.9g} deviation={dev:.9g}\n" for t, dev in zip(report.timesteps, report.deviations)
    )
    write_text(out / "equivalence.txt", summary + steps)
    print(
        f"equivalence: max_deviation={report.max_deviation:.3g} tol={report.tol:.3g} "
        f"passed={str(report.passed).lower()}"
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_sweep_reuse(setup: _Setup, out: Path) -> int:
    baseline = setup.edit(reuse_interval=1)
    rows = {}
    for r in dict.fromkeys(setup.cfg.sweep_r):
        report = baseline if r == 1 else setup.edit(reuse_interval=r)
        rows[r] = f"{r} {report.nfe} {rms_gap(report.output, baseline.output):.9g}"
        if setup.identity_run:
            rows[r] += f" {rel_error(report.output, setup.z0):.9g}"
        # dropped before the next edit starts, so one output is held besides the baseline
        del report

    header = "r nfe reuse_gap" + (" identity_error" if setup.identity_run else "")
    lines = [header, *(rows[r] for r in setup.cfg.sweep_r)]
    write_text(out / "sweep.txt", "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK


# name: (command, help)
_COMMANDS = {
    "generate": (cmd_generate, "sample the target condition from noise"),
    "edit": (cmd_edit, "residual-corrected edit of the input toward the target condition"),
    "flowedit": (cmd_flowedit, "reference inversion-free edit starting from the input"),
    "equivalence": (cmd_equivalence, "check fixed-noise flowedit against the residual-corrected run"),
    "sweep-reuse": (cmd_sweep_reuse, "edit with each residual-reuse interval and tabulate the gaps"),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for _, key, _ in _FLAGS if getattr(args, key) is not None}
    started = time.monotonic()
    try:
        cfg = cfgmod.load_config(args.config, overrides)
        out = _out_dir(cfg)
        command, _ = _COMMANDS[args.command]
        code = command(_Setup(cfg), out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # input files are read through ConfigError, so this is the output directory or a file in it
    except OSError as exc:
        print(f"config error: key 'out_dir': {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # wall time is informational only; it never lands in output files
    print(f"elapsed_seconds={time.monotonic() - started:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
