"""Reference inversion-free editor evolving the edit latent from the input.

Two noise regimes are supported. The vanilla regime draws fresh noise (or
several, averaged) at every step; the fixed regime reuses one noise for
the whole run, which makes the predicted-sample trajectory coincide, step
for step, with a residual-corrected edit run (full mask, no detail
transfer, no residual reuse). The equivalence harness checks exactly that.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .edit import EditConfig, run_edit
from .engine import (
    ConditionBundle,
    Schedule,
    StepObserver,
    VelocityField,
    _last,
    _trajectory,
    checked_evaluate,
    euler_step,  # noqa: F401  unused here; perfbench/tracing.py rebinds it in this module
    sample_noise,
)
from .latent import (
    LatentField, Mask, _elementwise, _finite_field, _noise_field, _numeric_stage, lerp_noise, rel_error,
)
from .rng import QueuedDraw, derive_seed


class NoiseMode(Enum):
    FRESH_PER_STEP = "fresh"
    FIXED = "fixed"


@dataclass(frozen=True)
class FlowEditConfig:
    """Schedule, noise regime, and per-step averaging for one run.

    Fresh mode draws n_avg independent noises per step from streams keyed
    by (seed, knot index, draw index); fixed mode uses sample_noise(seed)
    once and requires n_avg == 1.
    """

    schedule: Schedule
    noise_mode: NoiseMode = NoiseMode.FIXED
    n_avg: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_avg < 1:
            raise ValueError(f"n_avg must be >= 1, got {self.n_avg}")
        if self.noise_mode is NoiseMode.FIXED and self.n_avg != 1:
            raise ValueError("fixed noise mode requires n_avg == 1")


def _flowedit_trajectory(
    field: VelocityField,
    z0: LatentField,
    c_src: ConditionBundle,
    c_tar: ConditionBundle,
    config: FlowEditConfig,
    fixed_eps: LatentField | None,
) -> Iterator[tuple[float, LatentField]]:
    """flowedit_run's walk, yielding the edit latent at t=1 and after every step.

    fixed_eps is the fixed mode's one noise, None in fresh mode.
    """
    shape = z0.shape
    queued: QueuedDraw | None = None  # fresh mode's next draw, running on rng's pool

    def noise(i: int, draw: int) -> LatentField:
        """The noise of draw `draw` at knot i, with the next key's fresh draw queued behind it.

        Fresh noise (i, draw) comes from stream derive_seed(seed, i, draw).
        velocity asks for the keys in walk order, (i, 0) .. (i, n_avg - 1)
        and then knot i - 1, so the queued draw is always the one asked for.
        """
        nonlocal queued
        if fixed_eps is not None:
            return fixed_eps
        if queued is None:
            queued = QueuedDraw(derive_seed(config.seed, i, draw), shape.count)
        values = queued.result()
        i, draw = (i, draw + 1) if draw + 1 < config.n_avg else (i - 1, 0)
        queued = QueuedDraw(derive_seed(config.seed, i, draw), shape.count) if i > 0 else None
        return _noise_field(values, shape)

    def velocity(i, t_hi, z_edit):
        # displacement first: when the edit latent still equals the input,
        # the predicted point is exactly the source point and the velocities
        # cancel identically under equal conditions
        displacement = z_edit.data - z0.data
        total = None

        def shift(frames, out):  # z_t + displacement: the predicted target point
            np.add(z_t.data[frames], displacement[frames], out=out)

        # each stack is dropped once dead, so a step holds as few as it can
        for draw in range(config.n_avg):
            z_t = lerp_noise(z0, noise(i, draw), t_hi)
            z_pred = _finite_field(_elementwise(z_t.data.shape, shift))
            v_tar = checked_evaluate(field, z_pred, t_hi, c_tar)
            del z_pred
            v_src = checked_evaluate(field, z_t, t_hi, c_src)
            del z_t
            with _numeric_stage():
                gap = v_tar.data - v_src.data
                del v_tar, v_src
                if total is None:
                    # the bits of 0.0 + gap, a -0.0 turned +0.0, without a zeroed stack
                    total = np.add(gap, 0.0, out=gap)
                else:
                    total += gap
                del gap
        del displacement
        return total / config.n_avg

    try:
        yield from _trajectory(z0, config.schedule, velocity, "edit latent")
    finally:
        if queued is not None:
            # never return or raise while the pool still writes a draw's memory
            queued.wait()


def flowedit_run(
    field: VelocityField,
    z0: LatentField,
    c_src: ConditionBundle,
    c_tar: ConditionBundle,
    config: FlowEditConfig,
    on_step: StepObserver | None = None,
) -> tuple[LatentField, int]:
    """Evolve the edit latent from z0 at t=1 down to the result at t=0.

    Per step and per draw: the source point is the interpolation of z0 with
    the drawn noise, the predicted target point shifts that by the current
    edit displacement, and the step velocity is the (averaged) target minus
    source prediction gap. Returns the result and the number of field
    evaluations spent, 2 * n_avg per step. on_step, when given, sees the
    edit latent at t=1 and after every step.
    """
    fixed_eps = sample_noise(config.seed, z0.shape) if config.noise_mode is NoiseMode.FIXED else None
    # closed on any exit, so a queued fresh draw has finished before the run returns or raises
    with closing(_flowedit_trajectory(field, z0, c_src, c_tar, config, fixed_eps)) as path:
        return _last(path, on_step), 2 * config.n_avg * config.schedule.steps


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-knot deviation between the two editing formulations."""

    timesteps: tuple[float, ...]
    deviations: tuple[float, ...]
    tol: float
    passed: bool
    flowedit_nfe: int
    edit_nfe: int

    @property
    def max_deviation(self) -> float:
        return max(self.deviations)


def equivalence_check(
    field: VelocityField,
    z0: LatentField,
    c_src: ConditionBundle,
    c_tar: ConditionBundle,
    schedule: Schedule,
    seed: int,
    tol: float,
) -> EquivalenceReport:
    """Compare fixed-noise editing against the residual-corrected run.

    Both runs share the noise derived from `seed` and walk the same
    schedule, in lockstep. At every knot the fixed-noise run's edit latent
    is mapped to its predicted sample and matched against the
    residual-corrected latent (full mask, no detail transfer, residual
    refreshed every step). The check passes iff every relative deviation
    stays within tol.
    """
    if tol < 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    eps = sample_noise(seed, z0.shape)
    edit_config = EditConfig(schedule, Mask.ones(z0.shape), reuse_interval=1, hf_lambda=0.0)
    fe_config = FlowEditConfig(schedule=schedule, noise_mode=NoiseMode.FIXED, n_avg=1, seed=seed)
    fe_path = _flowedit_trajectory(field, z0, c_src, c_tar, fe_config, eps)
    timesteps: list[float] = []
    deviations: list[float] = []

    def compare(t: float, z_edit: LatentField) -> None:
        _, z_fe = next(fe_path)
        z_pred = LatentField(lerp_noise(z0, eps, t).data + (z_fe.data - z0.data))
        deviations.append(rel_error(z_pred, z_edit))
        timesteps.append(t)

    report = run_edit(field, z0, c_src, c_tar, eps, edit_config, compare)
    return EquivalenceReport(
        timesteps=tuple(timesteps),
        deviations=tuple(deviations),
        tol=float(tol),
        passed=all(d <= tol for d in deviations),
        flowedit_nfe=2 * schedule.steps,
        edit_nfe=report.nfe,
    )
