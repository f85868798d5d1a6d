"""Reference inversion-free editor evolving the edit latent from the input.

Two noise regimes are supported. The vanilla regime draws fresh noise (or
several, averaged) at every step; the fixed regime reuses one noise for
the whole run, which makes the predicted-sample trajectory coincide, step
for step, with a residual-corrected edit run (full mask, no detail
transfer, no residual reuse). The equivalence harness checks exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .edit import EditConfig, run_edit
from .engine import (
    ConditionBundle,
    Schedule,
    StepObserver,
    VelocityField,
    checked_evaluate,
    euler_step,
    sample_noise,
)
from .errors import NumericError
from .latent import LatentField, Mask, lerp_noise, rel_error
from .rng import derive_seed


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
    knots = config.schedule.knots
    steps = config.schedule.steps
    shape = z0.shape

    fixed_eps = sample_noise(config.seed, shape) if config.noise_mode is NoiseMode.FIXED else None

    z_edit = z0
    nfe = 0
    if on_step is not None:
        on_step(float(knots[-1]), z_edit)
    for i in range(steps, 0, -1):
        t_hi, t_lo = knots[i], knots[i - 1]
        total = np.zeros(z0.data.shape)
        # displacement first: when the edit latent still equals the input,
        # the predicted point is exactly the source point and the velocities
        # cancel identically under equal conditions
        displacement = z_edit.data - z0.data
        for draw in range(config.n_avg):
            if fixed_eps is not None:
                eps_t = fixed_eps
            else:
                eps_t = sample_noise(derive_seed(config.seed, i, draw), shape)
            z_t = lerp_noise(z0, eps_t, t_hi)
            z_pred = LatentField(z_t.data + displacement)
            v_tar = checked_evaluate(field, z_pred, t_hi, c_tar)
            v_src = checked_evaluate(field, z_t, t_hi, c_src)
            nfe += 2
            total += v_tar.data - v_src.data
        try:
            z_edit = euler_step(z_edit, t_hi, t_lo, LatentField(total / config.n_avg))
        except NumericError as exc:
            raise NumericError(f"edit latent became non-finite stepping to t={t_lo}") from exc
        if on_step is not None:
            on_step(float(t_lo), z_edit)
    return z_edit, nfe


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

    def to_lines(self) -> list[str]:
        lines = [f"tol={self.tol:.9g}", f"passed={str(self.passed).lower()}"]
        lines.append(f"max_deviation={self.max_deviation:.9g}")
        lines.append(f"flowedit_nfe={self.flowedit_nfe}")
        lines.append(f"edit_nfe={self.edit_nfe}")
        for t, dev in zip(self.timesteps, self.deviations):
            lines.append(f"step t={t:.9g} deviation={dev:.9g}")
        return lines


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
    schedule. The residual-corrected trajectory (full mask, no detail
    transfer, residual refreshed every step) is kept knot by knot; the
    fixed-noise run then reconstructs its predicted-sample trajectory as
    it steps and matches it against that. The check passes iff every
    relative deviation stays within tol.
    """
    if tol < 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    eps = sample_noise(seed, z0.shape)
    edit_config = EditConfig(
        schedule=schedule,
        mask=Mask.ones(z0.shape),
        reuse_interval=1,
        hf_lambda=0.0,
    )
    edit_latents: list[LatentField] = []
    report = run_edit(
        field, z0, c_src, c_tar, eps, edit_config, lambda t, z: edit_latents.append(z)
    )

    timesteps: list[float] = []
    deviations: list[float] = []

    def compare(t: float, z_fe: LatentField) -> None:
        z_pred = LatentField(lerp_noise(z0, eps, t).data + (z_fe.data - z0.data))
        deviations.append(rel_error(z_pred, edit_latents[len(timesteps)]))
        timesteps.append(t)

    fe_config = FlowEditConfig(schedule=schedule, noise_mode=NoiseMode.FIXED, n_avg=1, seed=seed)
    _, fe_nfe = flowedit_run(field, z0, c_src, c_tar, fe_config, compare)
    passed = all(d <= tol for d in deviations)
    return EquivalenceReport(
        timesteps=tuple(timesteps),
        deviations=tuple(deviations),
        tol=float(tol),
        passed=passed,
        flowedit_nfe=fe_nfe,
        edit_nfe=report.nfe,
    )
