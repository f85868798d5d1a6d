"""Dense 4-axis latent fields and masks, lerp_noise, mask pooling, and frequency splitting.

A latent stack is laid out (frames, channels, height, width) in row-major
order, float64 throughout. Every public operation returns a new immutable
field and guarantees finite values; violations raise NumericError so callers
never have to re-check. Overflow has one rule, _numeric_stage: inside a
stage numpy warns of nothing, an overflow is inf that LatentField rejects,
and the NumericError names the stage. A metric beyond float64 is a
NumericError too.

The frequency split and the detail transfer run one frame at a time, the
frames split across CPUs by rng.run_chunks on the noise's thread pool.
Each step's full-stack elementwise stages (lerp_noise, engine.euler_step,
the mixture field's velocity, run_edit's corrected velocity, the
consistency residual and flowedit's predicted point) go through
_elementwise, which splits their frames the same way, but only where the
stack holds at least _SPLIT_FLOOR values and the pool is idle: a smaller
stage is not worth a hand-off, and a busy pool (flowedit's queued noise)
is better left its CPU. Either way, each range tests its own values for
finiteness, so no stage re-reads its output. A frame takes the same
operations on any thread, so the bits depend neither on the CPU count
nor on the split. numpy's error state does not reach the pool's threads,
so each range enters _numeric_stage itself.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng
from .errors import NumericError, ShapeMismatchError
from .rng import run_chunks

# a stack of fewer values is never split: a hand-off to the pool costs more than such a stage takes
_SPLIT_FLOOR = 1 << 18


@dataclass(frozen=True)
class Shape:
    """Extents of a latent stack; all four must be >= 1."""

    frames: int
    channels: int
    height: int
    width: int

    def __post_init__(self) -> None:
        for name in ("frames", "channels", "height", "width"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ShapeMismatchError(f"{name} must be a positive integer, got {value!r}")

    @property
    def count(self) -> int:
        return self.frames * self.channels * self.height * self.width

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.frames, self.channels, self.height, self.width)


@contextmanager
def _numeric_stage(failure: str | None = None) -> Iterator[None]:
    """A stage where numpy warns of nothing, so an overflow is inf or nan for LatentField to reject.

    With `failure`, a NumericError raised inside is re-raised as NumericError(failure), chained.
    """
    with np.errstate(all="ignore"):
        try:
            yield
        except NumericError as exc:
            if failure is None:
                raise
            raise NumericError(failure) from exc


def _as_field_array(data: np.ndarray | list, *, what: str = "field") -> np.ndarray:
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 4:
        raise ShapeMismatchError(f"{what} must have 4 axes (frames, channels, height, width), got {arr.ndim}")
    if min(arr.shape) < 1:
        raise ShapeMismatchError(f"{what} has an empty axis: {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} contains non-finite values")
    arr.flags.writeable = False
    return arr


def _require_finite(values: np.ndarray) -> None:
    """Raise LatentField's NumericError unless every value is finite; call it inside a _numeric_stage.

    A finite sum needs every value finite, and summing allocates nothing.
    Only a sum that is not finite, an overflowing sum of finite values
    included, takes the exact test and its boolean mask.
    """
    if not np.isfinite(values.sum()) and not np.all(np.isfinite(values)):
        raise NumericError("field contains non-finite values")


class _FrozenStack:
    """Plumbing LatentField and Mask share: one read-only 4-axis array, immutable.

    Equality goes by shape and values, within one class only, so a Mask
    never equals a LatentField holding the same values. The hash takes the
    shape alone: it agrees with equality and never reads the values.
    """

    __slots__ = ("data",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def shape(self) -> Shape:
        f, c, h, w = self.data.shape
        return Shape(f, c, h, w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(np.array_equal(self.data, other.data))

    def __hash__(self):
        return hash(self.data.shape)

    def __repr__(self) -> str:
        f, c, h, w = self.data.shape
        return f"{type(self).__name__}({f}x{c}x{h}x{w})"


class LatentField(_FrozenStack):
    """Immutable dense real field over (frames, channels, height, width)."""

    __slots__ = ()

    def __init__(self, data: np.ndarray | list):
        object.__setattr__(self, "data", _as_field_array(data))

    @classmethod
    def zeros(cls, shape: Shape) -> "LatentField":
        return cls(np.zeros(shape.as_tuple()))

    @classmethod
    def full(cls, shape: Shape, value: float) -> "LatentField":
        return cls(np.full(shape.as_tuple(), float(value)))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data)))


def _finite_field(data: np.ndarray) -> LatentField:
    """A contiguous float64 4-axis stack already known finite, made read-only, as a LatentField.

    It skips LatentField's finiteness pass, so the values are read no more.
    """
    data.flags.writeable = False
    field = object.__new__(LatentField)
    object.__setattr__(field, "data", data)
    return field


def _noise_field(values: np.ndarray, shape: Shape) -> LatentField:
    """rng's Gaussian noise, contiguous float64, as a read-only LatentField of `shape`.

    Box-Muller over uniforms in [2**-53, 1 - 2**-53] gives
    |value| <= sqrt(106 ln 2) ~ 8.57, finite by construction.
    """
    return _finite_field(values.reshape(shape.as_tuple()))


def _elementwise(
    shape: tuple[int, ...],
    kernel: Callable[..., None],
    *,
    scratch: bool = False,
    checked: bool = True,
) -> np.ndarray:
    """A new read-only stack of `shape`, written by kernel(frames, out[, spare]) one range of frames at a time.

    kernel writes out, the stack's slice `frames`, with out= operations
    only: the operations of the stage's one-expression form, in the same
    order, so every bit is the expression's. With `scratch` it also gets
    spare, the same slice of a stack for its temporary. Both stacks are
    allocated here, on the calling thread, so the pool's threads allocate
    none.

    The frames are split across CPUs by run_chunks only when the stack holds
    at least _SPLIT_FLOOR values and the pool is idle; otherwise the calling
    thread runs them as one range. When `checked`, each range tests the
    values it wrote inside its own _numeric_stage, and the non-finite
    NumericError is raised once every range has finished.
    """
    # the output before the scratch: with the scratch first, the 8x3x64x64 mixture `equivalence`
    # command took 70K minor page faults against 53K (glibc malloc, 2 CPUs)
    out = np.empty(shape)
    stacks = (out, np.empty(shape)) if scratch else (out,)

    def run(lo: int, hi: int) -> None:
        frames = slice(lo, hi)
        with _numeric_stage():
            kernel(frames, *(stack[frames] for stack in stacks))
            if checked:
                _require_finite(out[frames])

    if out.size >= _SPLIT_FLOOR and rng._POOL.idle():
        run_chunks(run, shape[0])
    else:
        run(0, shape[0])
    out.flags.writeable = False
    return out


class Mask(_FrozenStack):
    """Per-pixel weight in [0, 1] with a single channel axis.

    Shape (frames, 1, height, width); broadcasts over any LatentField that
    shares frames/height/width.
    """

    __slots__ = ()

    def __init__(self, data: np.ndarray | list):
        arr = _as_field_array(data, what="mask")
        if arr.shape[1] != 1:
            raise ShapeMismatchError(f"mask must have exactly one channel, got {arr.shape[1]}")
        if float(arr.min()) < 0.0 or float(arr.max()) > 1.0:
            raise ValueError("mask values must lie in [0, 1]")
        object.__setattr__(self, "data", arr)

    @classmethod
    def ones(cls, shape: Shape) -> "Mask":
        return cls(np.ones((shape.frames, 1, shape.height, shape.width)))

    @classmethod
    def zeros(cls, shape: Shape) -> "Mask":
        return cls(np.zeros((shape.frames, 1, shape.height, shape.width)))

    def broadcasts_over(self, field: LatentField) -> bool:
        f, _, h, w = self.data.shape
        g, _, fh, fw = field.data.shape
        return (f, h, w) == (g, fh, fw)


@dataclass(frozen=True)
class FreqSplit:
    """Low/high spatial-frequency components; low + high reconstructs the input to rounding."""

    low: LatentField
    high: LatentField


def _require_same_shape(x: LatentField, y: LatentField, op: str) -> None:
    if x.data.shape != y.data.shape:
        raise ShapeMismatchError(f"{op}: shapes {x.data.shape} and {y.data.shape} differ")


def _require_mask_fits(mask: Mask, field: LatentField, op: str) -> None:
    if not mask.broadcasts_over(field):
        raise ShapeMismatchError(
            f"{op}: mask {mask.data.shape} does not broadcast over field {field.data.shape}"
        )


def _require_unit(value: float, name: str) -> float:
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def lerp_noise(z0: LatentField, eps: LatentField, t: float) -> LatentField:
    """Straight-line interpolation (1-t)*z0 + t*eps; exact at both endpoints."""
    _require_same_shape(z0, eps, "lerp_noise")
    t = _require_unit(t, "t")
    if t == 0.0:
        return z0
    if t == 1.0:
        return eps

    def lerp(frames, out, spare):
        np.multiply(1.0 - t, z0.data[frames], out=out)
        np.multiply(t, eps.data[frames], out=spare)
        np.add(out, spare, out=out)

    return _finite_field(_elementwise(z0.data.shape, lerp, scratch=True))


@lru_cache(maxsize=None)
def _high_half_bins(height: int, width: int, rho: float) -> np.ndarray:
    """Read-only HIGH-band mask over the rfft2 half spectrum (width//2 + 1 columns).

    Per axis of length n, bin k has normalized frequency min(k, n-k)/(n//2);
    a length-1 axis contributes zero. A bin is HIGH where the Euclidean norm
    of its two frequencies exceeds rho times the largest, so the DC bin
    never is. The band is symmetric under k -> n-k, so the half spectrum
    carries all of it.
    """

    def axis_freq(n: int) -> np.ndarray:
        k = np.arange(n)
        return np.minimum(k, n - k) / (n // 2) if n > 1 else np.zeros(1)

    radial = np.hypot(axis_freq(height)[:, None], axis_freq(width)[None, :])
    high = (radial > rho * radial.max())[:, : width // 2 + 1]
    high.flags.writeable = False
    return high


def _high_band(spectrum: np.ndarray, high: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """The HIGH band of an rfft2 half spectrum, back in space; masks `spectrum` in place.

    `high` is _high_half_bins for `size`. It takes the spectrum rather than
    the values, so a caller's temporary input is freed before the inverse
    transform allocates its output.
    """
    spectrum *= high
    return np.fft.irfft2(spectrum, s=size)


def freq_decompose(x: LatentField, rho: float) -> FreqSplit:
    """Split into LOW / HIGH components with a per-frame, per-channel 2D DFT.

    Bins with normalized radial frequency above rho * r_max form HIGH (see
    _high_half_bins; the DC bin never does), taken by one real transform
    pair per frame, the frames split across CPUs by run_chunks. LOW is
    x - HIGH, so low + high reconstructs x up to rounding. The temporal axis
    is untouched.
    """
    rho = _require_unit(rho, "rho")
    size = x.data.shape[2:]
    bins = _high_half_bins(*size, rho)
    low, high = np.empty_like(x.data), np.empty_like(x.data)

    def split(lo: int, hi: int) -> None:
        with _numeric_stage():
            for f in range(lo, hi):
                high[f] = _high_band(np.fft.rfft2(x.data[f]), bins, size)
                np.subtract(x.data[f], high[f], out=low[f])
            _require_finite(low[lo:hi])
            _require_finite(high[lo:hi])

    run_chunks(split, len(x.data))
    return FreqSplit(_finite_field(low), _finite_field(high))


def hf_transfer(
    z_edit: LatentField,
    z_src: LatentField,
    mask: Mask,
    hf_lambda: float,
    rho: float,
) -> LatentField:
    """Replace a lambda*mask share of z_edit's spatial detail with z_src's.

    Returns LF(z_edit) + lambda*M*HF(z_src) + (1 - lambda*M)*HF(z_edit).
    LF + HF is the identity and HF is linear, so this is computed as
    z_edit + lambda*M*HF(z_src - z_edit) with the real transform pair
    freq_decompose also takes, one frame at a time, the frames split across
    CPUs by run_chunks. lambda == 0 returns z_edit itself (bitwise
    identity); a zero mask and transferring a field onto itself return
    z_edit's values exactly.
    """
    _require_same_shape(z_edit, z_src, "hf_transfer")
    _require_mask_fits(mask, z_edit, "hf_transfer")
    hf_lambda = _require_unit(hf_lambda, "hf_lambda")
    rho = _require_unit(rho, "rho")
    if hf_lambda == 0.0:
        return z_edit
    size = z_edit.data.shape[2:]
    bins = _high_half_bins(*size, rho)
    out = np.empty_like(z_edit.data)

    def transfer(lo: int, hi: int) -> None:
        with _numeric_stage():
            for f in range(lo, hi):
                detail = _high_band(np.fft.rfft2(z_src.data[f] - z_edit.data[f]), bins, size)
                detail *= hf_lambda * mask.data[f]
                np.add(detail, z_edit.data[f], out=out[f])
            _require_finite(out[lo:hi])

    run_chunks(transfer, len(out))
    return _finite_field(out)


def _pool_weights(src: int, dst: int) -> np.ndarray:
    """Row-stochastic (dst, src) area-overlap matrix for 1D average pooling."""
    if dst > src:
        raise ShapeMismatchError(f"cannot pool {src} cells up to {dst}")
    step = src / dst
    lo = np.arange(dst)[:, None] * step
    hi = lo + step
    cells = np.arange(src)[None, :]
    overlap = np.clip(np.minimum(cells + 1.0, hi) - np.maximum(cells, lo), 0.0, None)
    return overlap / step


def downsample_mask(mask: Mask, target: Shape) -> Mask:
    """Area-average a mask down to target frames/height/width.

    Fractional source/target ratios pool with partial-cell weights; exact
    divisors reduce to plain block means. Values stay in [0, 1]. Frames,
    rows and columns are pooled one axis at a time: one contraction over all
    three would loop over every (source cell, target cell) pair.
    """
    f, _, h, w = mask.data.shape
    if target.frames > f:
        raise ShapeMismatchError(f"incompatible frame count: {f} -> {target.frames}")
    pooled = np.einsum("af,fzhw->azhw", _pool_weights(f, target.frames), mask.data)
    pooled = np.einsum("bh,azhw->azbw", _pool_weights(h, target.height), pooled)
    pooled = np.einsum("cw,azbw->azbc", _pool_weights(w, target.width), pooled)
    return Mask(np.clip(pooled, 0.0, 1.0))


def rel_error(a: LatentField, b: LatentField) -> float:
    """max|a - b| scaled by 1 + max|b|; the package-wide relative deviation."""
    _require_same_shape(a, b, "rel_error")
    return float(np.max(np.abs(a.data - b.data))) / (1.0 + b.max_abs())


def rms(data: np.ndarray) -> float:
    """sqrt(mean(data**2)), finite for any finite data.

    Where the squares overflow, the values are first scaled by max|data|.
    """
    with _numeric_stage():
        value = float(np.sqrt(np.mean(data * data)))
    if value == np.inf:
        peak = float(np.max(np.abs(data)))
        if peak < np.inf:
            scaled = data / peak
            value = peak * float(np.sqrt(np.mean(scaled * scaled)))
    return value
