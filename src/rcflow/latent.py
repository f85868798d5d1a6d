"""Dense 4-axis latent fields and masks, lerp_noise, mask pooling, and frequency splitting.

A latent stack is laid out (frames, channels, height, width) in row-major
order, float64 throughout. Every public operation returns a new immutable
field and guarantees finite values; violations raise NumericError so callers
never have to re-check. Overflow has one rule, _numeric_stage: inside a
stage numpy warns of nothing, an overflow is inf that LatentField rejects,
and the NumericError names the stage. A metric beyond float64 is a
NumericError too.

The frequency split and the detail transfer run one frame at a time
through one band operator, _high_band, the frames split across CPUs by
rng.run_chunks on the noise's thread pool. It transforms the rows in full
and the columns only where the HIGH band has bins (a band below rho =
1/sqrt(2) has one in every column), and the transfer builds its source
frame by frame when given an unbuilt PathPoint.
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

_FLOAT_MAX = float(np.finfo(np.float64).max)


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
    with _numeric_stage():
        _require_finite(arr, what)
    arr.flags.writeable = False
    return arr


def _require_finite(values: np.ndarray, what: str = "field") -> None:
    """Raise NumericError naming `what` unless every value is finite; call it inside a _numeric_stage.

    A finite sum needs every value finite, and summing allocates nothing.
    Only a sum that is not finite, an overflowing sum of finite values
    included, takes the exact test and its boolean mask.
    """
    if not np.isfinite(values.sum()) and not np.all(np.isfinite(values)):
        raise NumericError(f"{what} contains non-finite values")


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


@dataclass(frozen=True)
class PathPoint:
    """The straight-path point (1-t)*z0 + t*eps, not yet built.

    lerp_noise builds it as a whole stack; hf_transfer takes it as a source
    and builds one frame at a time inside its own ranges. Both write frames
    through `write`, so the lerp has one form. At t = 0 and t = 1 the point
    is z0 or eps itself, with those values' bits (`endpoint`).
    """

    z0: LatentField
    eps: LatentField
    t: float

    def __post_init__(self) -> None:
        _require_same_shape(self.z0, self.eps, "lerp_noise")
        object.__setattr__(self, "t", _require_unit(self.t, "t"))

    @property
    def endpoint(self) -> LatentField | None:
        """z0 at t = 0, eps at t = 1, and None in between."""
        return self.z0 if self.t == 0.0 else self.eps if self.t == 1.0 else None

    def write(self, frames, out: np.ndarray, spare: np.ndarray) -> None:
        """Write the point's `frames` into out, with spare holding t*eps: an _elementwise kernel."""
        np.multiply(1.0 - self.t, self.z0.data[frames], out=out)
        np.multiply(self.t, self.eps.data[frames], out=spare)
        np.add(out, spare, out=out)


def lerp_noise(z0: LatentField, eps: LatentField, t: float) -> LatentField:
    """Straight-line interpolation (1-t)*z0 + t*eps; exact at both endpoints."""
    point = PathPoint(z0, eps, t)
    if point.endpoint is not None:
        return point.endpoint
    return _finite_field(_elementwise(z0.data.shape, point.write, scratch=True))


@lru_cache(maxsize=None)
def _high_half_bins(height: int, width: int, rho: float) -> tuple[int, np.ndarray]:
    """(first, high): the HIGH band over the rfft2 half spectrum (width//2 + 1 columns).

    Per axis of length n, bin k has normalized frequency min(k, n-k)/(n//2);
    a length-1 axis contributes zero. A bin is HIGH where the Euclidean norm
    of its two frequencies exceeds rho times the largest, so the DC bin
    never is. The band is symmetric under k -> n-k, so the half spectrum
    carries all of it. high is the read-only mask; first is the first
    column holding a HIGH bin, or 0 when none does, so an empty band takes
    the whole transform pair. On frames more than one row tall, first is 0
    for every rho below 1/sqrt(2) too: the Nyquist row's bin in column 0 is
    then HIGH, so such a band takes every column and nothing is pruned.
    """

    def axis_freq(n: int) -> np.ndarray:
        k = np.arange(n)
        return np.minimum(k, n - k) / (n // 2) if n > 1 else np.zeros(1)

    radial = np.hypot(axis_freq(height)[:, None], axis_freq(width)[None, :])
    high = (radial > rho * radial.max())[:, : width // 2 + 1]
    high.flags.writeable = False
    columns = np.flatnonzero(high.any(axis=0))
    return (int(columns[0]) if columns.size else 0), high


def _high_band(
    values: np.ndarray, band: tuple[int, np.ndarray], scratch: tuple[np.ndarray, np.ndarray], out: np.ndarray
) -> None:
    """Write the HIGH band of one frame's `values` (channels, height, width) into out.

    band is _high_half_bins for the frame's extents, scratch _band_scratch's
    pair for its shape. The rows take np.fft.rfft in full; np.fft.fft, the
    mask and np.fft.ifft run down the columns from band's first on only,
    and the columns before it, all LOW, enter np.fft.irfft as zeros. These
    are the 1-D transforms rfft2 and irfft2 run column by column, so every
    nonzero value keeps their bits. The column transforms go through a
    contiguous buffer: on a 4x128x128 frame (Xeon, numpy 2.4.6) the mask
    took 49 us on the spectrum's strided columns and 22 us there.

    When columns are skipped, a frame with |value| >= float max /
    (2 height width), or a non-finite one, could overflow a DFT sum in a
    skipped column, which the unpruned pair turns into a non-finite frame
    (inf * 0 is nan). Such a frame takes the columns from 0, exactly
    rfft2's and irfft2's transforms, so it fails or not as they do. The
    test is two reductions that allocate nothing; a band that already
    starts at column 0 skips it.
    """
    first, high = band
    spectrum, buffer = scratch
    channels, height, width = values.shape
    if first:
        bound = _FLOAT_MAX / (2 * height * width)
        if not (values.max() < bound and -values.min() < bound):
            first = 0
    count = spectrum.shape[-1] - first
    columns = buffer[: channels * height * count].reshape(channels, height, count)
    np.fft.rfft(values, axis=-1, out=spectrum)
    np.fft.fft(spectrum[..., first:], axis=-2, out=columns)
    columns *= high[:, first:]
    np.fft.ifft(columns, axis=-2, out=spectrum[..., first:])
    spectrum[..., :first] = 0.0
    np.fft.irfft(spectrum, n=width, axis=-1, out=out)


def _band_scratch(frame_shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """_high_band's complex scratch for frames of `frame_shape`: a half spectrum and a flat buffer its size."""
    spectrum = np.empty((*frame_shape[:-1], frame_shape[-1] // 2 + 1), dtype=np.complex128)
    return spectrum, np.empty(spectrum.size, dtype=np.complex128)


def freq_decompose(x: LatentField, rho: float) -> FreqSplit:
    """Split into LOW / HIGH components with a per-frame, per-channel 2D DFT.

    Bins with normalized radial frequency above rho * r_max form HIGH (see
    _high_half_bins; the DC bin never does), taken by _high_band one frame
    at a time: the rows' real transforms in full, the column transforms
    over the band's columns only, which is every column below rho =
    1/sqrt(2). The frames are split across CPUs by
    run_chunks. LOW is x - HIGH, so low + high reconstructs x up to
    rounding. The temporal axis is untouched.
    """
    rho = _require_unit(rho, "rho")
    band = _high_half_bins(*x.data.shape[2:], rho)
    low, high = np.empty_like(x.data), np.empty_like(x.data)

    def split(lo: int, hi: int) -> None:
        scratch = _band_scratch(x.data.shape[1:])
        with _numeric_stage():
            for f in range(lo, hi):
                _high_band(x.data[f], band, scratch, high[f])
                np.subtract(x.data[f], high[f], out=low[f])
            _require_finite(low[lo:hi])
            _require_finite(high[lo:hi])

    run_chunks(split, len(x.data))
    return FreqSplit(_finite_field(low), _finite_field(high))


def hf_transfer(
    z_edit: LatentField,
    z_src: LatentField | PathPoint,
    mask: Mask,
    hf_lambda: float,
    rho: float,
) -> LatentField:
    """Replace a lambda*mask share of z_edit's spatial detail with z_src's.

    Returns LF(z_edit) + lambda*M*HF(z_src) + (1 - lambda*M)*HF(z_edit).
    LF + HF is the identity and HF is linear, so this is computed as
    z_edit + lambda*M*HF(z_src - z_edit) through _high_band, the operator
    freq_decompose takes, one frame at a time, the frames split across CPUs
    by run_chunks. z_src may be an unbuilt PathPoint: each range then
    builds its own frames of it with lerp_noise's operations, so the bits
    are those of z_src = lerp_noise(z0, eps, t) and no source stack is
    built. lambda == 0 returns z_edit itself (bitwise identity); a zero
    mask and transferring a field onto itself return z_edit's values
    exactly.
    """
    if isinstance(z_src, PathPoint) and z_src.endpoint is not None:
        z_src = z_src.endpoint
    point = z_src if isinstance(z_src, PathPoint) else None
    _require_same_shape(z_edit, z_src if point is None else point.z0, "hf_transfer")
    _require_mask_fits(mask, z_edit, "hf_transfer")
    hf_lambda = _require_unit(hf_lambda, "hf_lambda")
    rho = _require_unit(rho, "rho")
    if hf_lambda == 0.0:
        return z_edit
    band = _high_half_bins(*z_edit.data.shape[2:], rho)
    out = np.empty_like(z_edit.data)

    def transfer(lo: int, hi: int) -> None:
        values = np.empty_like(z_edit.data[0])
        scratch = _band_scratch(values.shape)
        weight = np.empty_like(mask.data[0])
        with _numeric_stage():
            for f in range(lo, hi):
                if point is None:
                    np.subtract(z_src.data[f], z_edit.data[f], out=values)
                else:
                    point.write(f, values, out[f])  # out[f] is free until the band is written there
                    np.subtract(values, z_edit.data[f], out=values)
                _high_band(values, band, scratch, out[f])
                np.multiply(hf_lambda, mask.data[f], out=weight)
                out[f] *= weight
                out[f] += z_edit.data[f]
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
