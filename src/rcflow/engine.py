"""Timestep schedules, the velocity-field interface, and the Euler sampler.

The sampler walks a latent from pure noise at t=1 down to data at t=0 with
the plain Euler update z <- z + dt * V(z, t, c). Velocity fields are only
ever evaluated at the upper knot of each step, so t=0 is never requested
(several analytic fields carry a 1/t factor).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeMismatchError
from .latent import LatentField, Shape, _elementwise, _finite_field, _noise_field, _numeric_stage
from .rng import standard_normal


@dataclass(frozen=True, eq=False)
class Schedule:
    """Strictly increasing timestep knots t_0 = 0 < ... < t_N = 1, read-only."""

    knots: np.ndarray

    def __post_init__(self):
        # a fresh copy, so the caller's array stays writable; + 0.0 maps a -0 knot to 0
        arr = np.ascontiguousarray(self.knots, dtype=np.float64) + 0.0
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("schedule needs at least two knots")
        if arr[0] != 0.0 or arr[-1] != 1.0:
            raise ValueError(f"schedule must start at 0 and end at 1, got [{arr[0]}, {arr[-1]}]")
        if not np.all(np.diff(arr) > 0.0):
            raise ValueError("schedule knots must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "knots", arr)

    @property
    def steps(self) -> int:
        return self.knots.size - 1

    def __repr__(self) -> str:
        return f"Schedule(steps={self.steps})"


def make_uniform_schedule(steps: int) -> Schedule:
    """Uniform grid with knots i/steps for i = 0..steps."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return Schedule(np.arange(steps + 1) / steps)


def _param_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class ConditionBundle:
    """Decoupled conditioning record.

    agnostic_params and structural carry information an edit must preserve;
    illum_params carry what it may change. reference_frame, when present,
    anchors frame 0 (a single-frame field).
    """

    illum_params: tuple[float, ...] = ()
    agnostic_params: tuple[float, ...] = ()
    reference_frame: LatentField | None = None
    structural: LatentField | None = None

    def __post_init__(self):
        object.__setattr__(self, "illum_params", _param_tuple(self.illum_params))
        object.__setattr__(self, "agnostic_params", _param_tuple(self.agnostic_params))
        if self.reference_frame is not None and self.reference_frame.shape.frames != 1:
            raise ShapeMismatchError("reference_frame must hold exactly one frame")


class VelocityField:
    """Deterministic (z, t, c) -> velocity interface.

    Implementations must be pure and re-entrant: identical inputs give
    identical output, output shape equals input shape, output is finite.
    """

    def evaluate(self, z: LatentField, t: float, c: ConditionBundle) -> LatentField:
        raise NotImplementedError


# called with (t, latent) at t=1 and after every Euler step, t strictly decreasing
StepObserver = Callable[[float, LatentField], None]


def checked_evaluate(
    field: VelocityField,
    z: LatentField,
    t: float,
    c: ConditionBundle,
) -> LatentField:
    """Evaluate a velocity field and abort loudly on a bad output."""
    try:
        v = field.evaluate(z, t, c)
    except NumericError as exc:
        raise NumericError(f"velocity field failed at t={t}: {exc}") from exc
    if not isinstance(v, LatentField) or v.data.shape != z.data.shape:
        raise ShapeMismatchError(f"velocity field returned an invalid output at t={t}")
    return v


def sample_noise(seed: int, shape: Shape) -> LatentField:
    """Standard-normal latent stack; bit-identical for equal (seed, shape)."""
    return _noise_field(standard_normal(seed, shape.count), shape)


def euler_step(z: LatentField, t_hi: float, t_lo: float, v: np.ndarray) -> LatentField:
    """One explicit Euler update z + (t_hi - t_lo) * v, v the step velocity's values."""
    if not t_hi > t_lo:
        raise ValueError(f"step must move down in time, got {t_hi} -> {t_lo}")
    if v.shape != z.data.shape:
        raise ShapeMismatchError(f"euler_step: shapes {z.data.shape} and {v.shape} differ")
    dt = t_hi - t_lo

    def step(frames, out):
        np.multiply(dt, v[frames], out=out)
        np.add(z.data[frames], out, out=out)

    return _finite_field(_elementwise(z.data.shape, step))


def _trajectory(
    z: LatentField,
    schedule: Schedule,
    velocity: Callable[[int, float, LatentField], np.ndarray],
    what: str,
    after: Callable[[float, LatentField], LatentField] | None = None,
) -> Iterator[tuple[float, LatentField]]:
    """The Euler walk every driver takes: yields (t, z) at t=1 and after every step.

    velocity(i, t_hi, z) gives the step velocity's values at knot i, unchecked:
    with t_hi > t_lo and z finite, euler_step's result is non-finite wherever
    v is. after(t_lo, z), when given, maps each stepped latent. A
    non-finite result names `what` and the step's lower knot.
    """
    knots = schedule.knots
    yield float(knots[-1]), z
    for i in range(schedule.steps, 0, -1):
        t_hi, t_lo = knots[i], knots[i - 1]
        v = velocity(i, t_hi, z)
        with _numeric_stage(f"{what} became non-finite stepping to t={t_lo}"):
            z = euler_step(z, t_hi, t_lo, v)
            del v  # released before `after`, where a step's memory peaks
            if after is not None:
                z = after(t_lo, z)
        yield float(t_lo), z


def _last(path: Iterator[tuple[float, LatentField]], on_step: StepObserver | None) -> LatentField:
    """Run a trajectory to t=0, showing each (t, z) to on_step; return the last z."""
    for t, z in path:
        if on_step is not None:
            on_step(t, z)
        if t > 0.0:
            del z  # not held while the next step and its `after` run
    return z


def generate(
    field: VelocityField,
    c: ConditionBundle,
    eps: LatentField,
    schedule: Schedule,
    on_step: StepObserver | None = None,
) -> tuple[LatentField, int]:
    """Integrate the field from noise at t=1 to a sample at t=0.

    Returns the sample and the number of field evaluations spent: exactly
    schedule.steps, one per step at the step's upper knot.
    """
    path = _trajectory(eps, schedule, lambda i, t, z: checked_evaluate(field, z, t, c).data, "latent")
    return _last(path, on_step), schedule.steps
