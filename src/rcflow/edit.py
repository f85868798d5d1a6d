"""Residual-corrected editing of flow trajectories.

The edit trajectory starts from the same noise as a plain generation run
but its velocity is corrected, inside the mask, by the gap between the
ideal restoration velocity of the input and the model's source-condition
prediction along the analytic interpolation path. With the mask full-on,
exact conditions, and per-step residuals, the run reproduces the input;
as conditions diverge, so does the output, and nowhere else.

The residual depends only on the fixed noise and source condition, so it
is cheap to cache: recomputing it every r-th step spends N + ceil(N/r)
field evaluations instead of 2N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .engine import (
    ConditionBundle,
    Schedule,
    StepObserver,
    VelocityField,
    _last,
    _trajectory,
    checked_evaluate,
    euler_step,  # noqa: F401  unused here; perfbench/tracing.py rebinds it in this module
)
from .latent import (
    LatentField, Mask, PathPoint, _elementwise, _finite_field, _numeric_stage, _require_mask_fits, _require_same_shape,
    _require_unit, hf_transfer, lerp_noise, rms,
)


@dataclass(frozen=True)
class EditConfig:
    """Knobs for one edit run.

    reuse_interval r keeps each cached residual alive for r steps; must not
    exceed the schedule's step count. hf_lambda / hf_rho drive the
    high-frequency transfer applied after every Euler update; hf_lambda = 0
    skips it. The mask confines both the residual correction and the
    detail transfer; all-ones edits the whole scene, all-zeros degenerates
    to free generation.
    """

    schedule: Schedule
    mask: Mask
    reuse_interval: int = 10
    hf_lambda: float = 0.5
    hf_rho: float = 0.8

    def __post_init__(self):
        if not 1 <= self.reuse_interval <= self.schedule.steps:
            raise ValueError(
                f"reuse_interval must lie in [1, {self.schedule.steps}], got {self.reuse_interval}"
            )
        _require_unit(self.hf_lambda, "hf_lambda")
        _require_unit(self.hf_rho, "hf_rho")


@dataclass
class EditReport:
    """Accounting and diagnostics for one edit run."""

    output: LatentField
    nfe: int
    per_step_residual_norm: list[float] = dc_field(default_factory=list)


def consistency_residual(
    field: VelocityField,
    z0: LatentField,
    eps: LatentField,
    t: float,
    c_src: ConditionBundle,
) -> LatentField:
    """Restoration velocity z0 - eps minus the model's source prediction at level t.

    z0 - eps is the constant velocity carrying eps exactly back to z0 over
    [0, 1]. The prediction is taken on the analytic interpolation point
    between z0 and eps, so the residual never depends on the edit
    trajectory. Costs one field evaluation.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    z_t = lerp_noise(z0, eps, t)
    v_src = checked_evaluate(field, z_t, t, c_src)

    def gap(frames, out):
        np.subtract(z0.data[frames], eps.data[frames], out=out)
        np.subtract(out, v_src.data[frames], out=out)

    with _numeric_stage(f"residual became non-finite at t={t}"):
        return _finite_field(_elementwise(z0.data.shape, gap))


def run_edit(
    field: VelocityField,
    z0: LatentField,
    c_src: ConditionBundle,
    c_tar: ConditionBundle,
    eps: LatentField,
    config: EditConfig,
    on_step: StepObserver | None = None,
) -> EditReport:
    """Drive a full residual-corrected edit of z0 toward the target condition.

    One fixed noise eps serves the entire run. Walking the schedule from
    t=1 to t=0, the step at knot i refreshes the cached residual whenever
    (N - i) mod r == 0 and reuses the cached vector otherwise, then Euler
    steps along v_tar + mask * residual and, when hf_lambda > 0, re-injects
    the source path's high-frequency detail inside the mask.

    Total evaluations: N target calls plus ceil(N/r) residual refreshes.
    on_step, when given, sees the edit latent at t=1 and after every step.
    """
    _require_same_shape(z0, eps, "run_edit")
    _require_mask_fits(config.mask, z0, "run_edit")
    steps = config.schedule.steps
    r = config.reuse_interval
    residual: LatentField | None = None
    residual_norms: list[float] = []

    def velocity(i, t_hi, z_edit):
        nonlocal residual
        if (steps - i) % r == 0:
            residual = consistency_residual(field, z0, eps, t_hi, c_src)
            residual_norms.append(rms(residual.data))
        else:
            residual_norms.append(residual_norms[-1])
        v_tar = checked_evaluate(field, z_edit, t_hi, c_tar)

        def correct(frames, out):
            np.multiply(config.mask.data[frames], residual.data[frames], out=out)
            np.add(v_tar.data[frames], out, out=out)

        # unchecked: the step's euler_step rejects a non-finite velocity under the step's name
        return _elementwise(v_tar.data.shape, correct, checked=False)

    def transfer(t_lo, z_edit):
        source = PathPoint(z0, eps, t_lo)  # built frame by frame inside the transfer
        return hf_transfer(z_edit, source, config.mask, config.hf_lambda, config.hf_rho)

    after = transfer if config.hf_lambda > 0 else None
    path = _trajectory(eps, config.schedule, velocity, "edit latent", after)
    return EditReport(_last(path, on_step), steps + math.ceil(steps / r), residual_norms)
