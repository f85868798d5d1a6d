"""Analytic conditional velocity fields and the toy scene they relight.

The scene renderer decomposes its output exactly the way the condition
bundle decomposes: structure and the foreground footprint come from
agnostic_params, illumination gain and background come from illum_params.
That makes "change only the lighting" a checkable statement at desk scale.

Field catalogue:
  constant_field      fixed velocity everywhere; closed-form trajectories
  mixture_field       posterior-mean flow over a fixed point-mass mixture
  scene_mixture_field mixture whose components are built per condition
  point_field         the one-component scene mixture: pulls straight at
                      the rendered target; Euler-exact
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import InitVar, dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .engine import ConditionBundle, VelocityField, sample_noise
from .errors import NumericError, ShapeMismatchError
from .latent import LatentField, Mask, Shape, _require_same_shape, freq_decompose
from .rng import derive_seed, uniform_open

AGNOSTIC_ARITY = 3  # (pattern_seed, blob_count, motion)
ILLUM_ARITY = 4  # (gain, tilt, angle, background_level)

# soft prior only: structural fields nudge the pattern, never replace it
STRUCTURAL_WEIGHT = 0.1

# low-pass threshold for the smooth perturbations of scene mixtures
_SMOOTH_RHO = 0.25


def _check_arity(params: tuple[float, ...], arity: int, name: str) -> None:
    if len(params) != arity:
        raise ValueError(f"{name} arity mismatch: expected {arity} values, got {len(params)}")


@dataclass(frozen=True)
class ToyScene:
    """Procedural relightable scene on a fixed latent shape.

    Rendering rule: mask * (structure * gain) + (1 - mask) * background.

    structure: sum of seeded Gaussian blobs drifting frame to frame, driven
    by agnostic_params = (pattern_seed, blob_count, motion); identical for
    every channel. The foreground mask is the blob support above
    mask_threshold * peak. gain is a tilted directional ramp and background
    a constant level, both driven by illum_params = (gain, tilt, angle,
    background_level).

    A bundle's structural field, when present, is added to the pattern at
    weight STRUCTURAL_WEIGHT (after the mask is derived). A reference_frame
    replaces frame 0 of the render outright.
    """

    shape: Shape
    mask_threshold: float = 0.3

    def structure(self, agnostic_params: tuple[float, ...]) -> np.ndarray:
        _check_arity(agnostic_params, AGNOSTIC_ARITY, "agnostic_params")
        pattern_seed = int(round(agnostic_params[0]))
        blob_count = max(1, int(round(agnostic_params[1])))
        motion = float(agnostic_params[2])
        f, c, h, w = self.shape.as_tuple()

        u = uniform_open(derive_seed(pattern_seed, 0xB10B), 5 * blob_count).reshape(blob_count, 5)
        cy = (0.2 + 0.6 * u[:, 0]) * (h - 1)
        cx = (0.2 + 0.6 * u[:, 1]) * (w - 1)
        sigma = (0.08 + 0.12 * u[:, 2]) * max(2.0, min(h, w))
        amp = 0.6 + 0.8 * u[:, 3]
        drift = 2.0 * math.pi * u[:, 4]

        ys = np.arange(h)[:, None]
        xs = np.arange(w)[None, :]
        frames = np.zeros((f, h, w))
        for fi in range(f):
            dy = cy + motion * fi * np.sin(drift)
            dx = cx + motion * fi * np.cos(drift)
            for j in range(blob_count):
                # a blob drifted far out, even out of float range, is inf away: exp(-inf) = 0 is right
                with np.errstate(over="ignore"):
                    d2 = (ys - dy[j]) ** 2 + (xs - dx[j]) ** 2
                    frames[fi] += amp[j] * np.exp(-d2 / (2.0 * sigma[j] ** 2))
        return np.broadcast_to(frames[:, None, :, :], (f, c, h, w)).copy()

    def gain_field(self, illum_params: tuple[float, ...]) -> np.ndarray:
        _check_arity(illum_params, ILLUM_ARITY, "illum_params")
        gain, tilt, angle, _ = (float(v) for v in illum_params)
        h, w = self.shape.height, self.shape.width
        yc = np.arange(h)[:, None] - (h - 1) / 2.0
        xc = np.arange(w)[None, :] - (w - 1) / 2.0
        proj = math.cos(angle) * xc + math.sin(angle) * yc
        peak = float(np.max(np.abs(proj)))
        ramp = proj / peak if peak > 0.0 else np.zeros((h, w))
        return gain + tilt * ramp

    def background(self, illum_params: tuple[float, ...]) -> np.ndarray:
        _check_arity(illum_params, ILLUM_ARITY, "illum_params")
        level = float(illum_params[3])
        return np.full((self.shape.height, self.shape.width), level)

    def true_mask(self, agnostic_params: tuple[float, ...]) -> Mask:
        return self._footprint(self.structure(agnostic_params))

    def _footprint(self, pattern: np.ndarray) -> Mask:
        pattern = pattern[:, :1, :, :]
        cut = self.mask_threshold * float(pattern.max())
        return Mask((pattern > cut).astype(np.float64))


def render_target(scene: ToyScene, c: ConditionBundle) -> LatentField:
    """Deterministic ground-truth render of the scene under a bundle."""
    pattern = scene.structure(c.agnostic_params)
    mask = scene._footprint(pattern).data
    if c.structural is not None:
        if c.structural.data.shape != pattern.shape:
            raise ShapeMismatchError(
                f"structural field {c.structural.data.shape} does not match scene {pattern.shape}"
            )
        pattern = pattern + STRUCTURAL_WEIGHT * c.structural.data
    # an overflow gives inf or nan, reported below as a NumericError naming the render
    with np.errstate(over="ignore", invalid="ignore"):
        gain = scene.gain_field(c.illum_params)
        rendered = mask * (pattern * gain) + (1.0 - mask) * scene.background(c.illum_params)
    if c.reference_frame is not None:
        ref = c.reference_frame.data
        if ref.shape[1:] != rendered.shape[1:]:
            raise ShapeMismatchError(
                f"reference_frame {ref.shape} does not match scene frames {rendered.shape}"
            )
        rendered[0] = ref[0]
    try:
        return LatentField(rendered)
    except NumericError as exc:
        raise NumericError(f"scene render became non-finite under illum_params {c.illum_params}") from exc


@dataclass(frozen=True, eq=False)
class MixtureDataset:
    """Weighted point-mass targets, built from (weight, LatentField) pairs.

    Holds only `points` (components x frames x channels x height x width)
    and the normalized `weights`, each stacked once and read-only. A single
    component's point is viewed, not copied. `center` (the mean point,
    flattened) and `centered_sq_norms` (each ||p_k - center||^2) are
    computed on first use, one component at a time, for the posterior
    mean's distances.
    """

    components: InitVar[tuple[tuple[float, LatentField], ...]]
    points: np.ndarray = dc_field(init=False, repr=False)
    weights: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self, components):
        if not components:
            raise ValueError("mixture needs at least one component")
        shapes = {point.data.shape for _, point in components}
        if len(shapes) != 1:
            raise ShapeMismatchError(f"mixture components disagree on shape: {shapes}")
        weights = np.array([float(w) for w, _ in components])
        if np.any(weights < 0.0):
            raise ValueError("mixture weights must be nonnegative")
        with np.errstate(over="ignore"):
            total = float(weights.sum())
        if total == np.inf:
            # huge weights overflow their sum; relative to the largest they do not
            weights = weights / weights.max()
            total = float(weights.sum())
        if total <= 0.0:
            raise ValueError("mixture weights must not all be zero")
        weights = weights / total
        if len(components) == 1:
            points = components[0][1].data[None]
        else:
            points = np.stack([point.data for _, point in components])
        weights.flags.writeable = False
        points.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @cached_property
    def center(self) -> np.ndarray:
        # an overflowing center or norm is inf; the posterior mean then takes the direct distances
        with np.errstate(over="ignore", invalid="ignore"):
            center = self.points.reshape(len(self.points), -1).mean(axis=0)
        center.flags.writeable = False
        return center

    @cached_property
    def centered_sq_norms(self) -> np.ndarray:
        norms = np.empty(len(self.points))
        with np.errstate(over="ignore", invalid="ignore"):
            for k, row in enumerate(self.points.reshape(len(self.points), -1)):
                centered = row - self.center
                norms[k] = centered @ centered
        norms.flags.writeable = False
        return norms


class _ConstantField(VelocityField):
    """Velocity k everywhere, ignoring latent, time, and condition."""

    def __init__(self, k: LatentField):
        self.k = k

    def evaluate(self, z: LatentField, t: float, c: ConditionBundle) -> LatentField:
        _require_same_shape(self.k, z, "constant field")
        return self.k


def constant_field(k: LatentField) -> VelocityField:
    return _ConstantField(k)


class _RenderCache:
    """Append-only (bundle, value) cache; safe to rebuild concurrently."""

    def __init__(self, build):
        self._build = build
        self._entries: list[tuple[ConditionBundle, object]] = []

    def get(self, c: ConditionBundle):
        for bundle, value in self._entries:
            if bundle == c:
                return value
        value = self._build(c)
        self._entries.append((c, value))
        return value


def _sq_distances(flat: np.ndarray, s: float, z: np.ndarray) -> np.ndarray:
    """||s * p_k - z||^2 for every row p_k of `flat`, inf where it overflows."""
    with np.errstate(over="ignore"):
        diff = flat * s - z
        return np.sum(diff * diff, axis=1)


def _posterior_mean_stable(z: np.ndarray, t: float, data: MixtureDataset) -> np.ndarray:
    """Mixture posterior mean with max-shifted exponents.

    With s = 1 - t, m = data.center and y = z - s*m, the squared distance
    ||s*p_k - z||^2 equals s^2 ||p_k - m||^2 - 2s <p_k, y> plus a term that
    is the same for every k, which the max shift cancels: one
    matrix-vector product gives every distance. Where any of these is not
    finite, the call takes the direct distances instead.

    Falls back to the nearest component by the distances it holds (lowest
    index on ties) if every shifted weight still vanishes.
    """
    if len(data.points) == 1:
        # every form above gives the one component weight exactly 1.0
        return data.points[0]
    flat = data.points.reshape(len(data.points), -1)
    s = 1.0 - t
    z = z.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        y = z - s * data.center
        d2 = s * s * data.centered_sq_norms - 2.0 * s * (flat @ y)
    if not np.all(np.isfinite(d2)):
        d2 = _sq_distances(flat, s, z)
    # a zero weight beside an overflowing negative distance gives nan, caught by the peak
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        exponents = np.log(data.weights) - d2 / (2.0 * t * t)
    peak = float(np.max(exponents))
    if not np.isfinite(peak):
        if np.min(d2) == np.inf:
            # scaled by one power of two at least every |value|, the distances rank without overflowing
            e = np.frexp(max(np.max(np.abs(flat)), np.max(np.abs(z))))[1]
            d2 = _sq_distances(np.ldexp(flat, -e), s, np.ldexp(z, -e))
        return data.points[int(np.argmin(d2))]
    shifted = np.exp(exponents - peak)
    return np.tensordot(shifted / shifted.sum(), data.points, axes=(0, 0))


def _smooth_perturbations(shape: Shape, count: int, seed: int) -> list[np.ndarray]:
    """Unit-peak low-frequency fields, shared across conditions by index."""
    out = []
    for j in range(count):
        noise = sample_noise(derive_seed(seed, j + 1), shape)
        low = freq_decompose(noise, _SMOOTH_RHO).low.data
        peak = float(np.max(np.abs(low)))
        out.append(low / peak if peak > 0.0 else low)
    return out


class _MixtureField(VelocityField):
    """Posterior-mean flow over the MixtureDataset `datasets(c)` gives for condition c."""

    def __init__(self, datasets: Callable[[ConditionBundle], MixtureDataset]):
        self._datasets = datasets

    def evaluate(self, z: LatentField, t: float, c: ConditionBundle) -> LatentField:
        if t <= 0.0:
            raise ValueError("mixture field is undefined at t <= 0")
        data = self._datasets(c)
        if data.points.shape[1:] != z.data.shape:
            raise ShapeMismatchError(
                f"mixture components are {data.points.shape[1:]}, latent is {z.data.shape}"
            )
        mean = _posterior_mean_stable(z.data, t, data)
        # an overflow at tiny t is inf, which LatentField reports as a NumericError
        with np.errstate(over="ignore"):
            return LatentField((mean - z.data) / t)


def mixture_field(data: MixtureDataset) -> VelocityField:
    """Posterior-mean flow over one fixed dataset, shared by all conditions."""
    return _MixtureField(lambda c: data)


def scene_mixture_field(scene: ToyScene, components: int, spread: float, seed: int) -> VelocityField:
    """Mixture flow whose components are built per condition bundle.

    Component 0 is the exact render; the rest add fixed smooth perturbations
    at `spread` amplitude. The perturbations are keyed by index only, so
    source and target datasets wander in parallel.
    """
    if components < 1:
        raise ValueError("components must be >= 1")
    spread = float(spread)
    perturbations = _smooth_perturbations(scene.shape, components - 1, seed)

    def build_dataset(c: ConditionBundle) -> MixtureDataset:
        base = render_target(scene, c)
        members = [(1.0, base)]
        try:
            # an overflow is inf, which LatentField reports as a NumericError
            with np.errstate(over="ignore"):
                for pattern in perturbations:
                    members.append((1.0, LatentField(base.data + spread * pattern)))
        except NumericError as exc:
            where = f"illum_params {c.illum_params} and spread {spread}"
            raise NumericError(f"scene mixture component {len(members)} became non-finite under {where}") from exc
        return MixtureDataset(tuple(members))

    return _MixtureField(_RenderCache(build_dataset).get)


def point_field(scene: ToyScene) -> VelocityField:
    """The one-component scene mixture: pulls straight at the render, so Euler lands on it exactly."""
    return scene_mixture_field(scene, 1, 0.0, 0)
