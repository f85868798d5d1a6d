"""Dense 4-axis latent fields, masks, elementwise algebra, and frequency splitting.

A latent stack is laid out (frames, channels, height, width) in row-major
order, float64 throughout. Every public operation returns a new immutable
field and guarantees finite values; violations raise NumericError so callers
never have to re-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ShapeMismatchError


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


class _FrozenStack:
    """Plumbing LatentField and Mask share: one read-only 4-axis array, immutable.

    Equality and hashing go by shape and values, within one class only, so
    a Mask never equals a LatentField holding the same values.
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
        return hash((self.data.shape, self.data.tobytes()))

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
    """Low/high spatial-frequency components; low + high reconstructs the input."""

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
    return LatentField((1.0 - t) * z0.data + t * eps.data)


def _radial_frequencies(height: int, width: int) -> np.ndarray:
    """Normalized radial frequency per 2D DFT bin.

    Per axis of length n, bin k has wraparound frequency min(k, n-k)/(n//2);
    a length-1 axis contributes zero. Radial value is the Euclidean norm of
    the two per-axis frequencies.
    """

    def axis_freq(n: int) -> np.ndarray:
        k = np.arange(n)
        if n == 1:
            return np.zeros(1)
        return np.minimum(k, n - k) / (n // 2)

    fy = axis_freq(height)
    fx = axis_freq(width)
    return np.hypot(fy[:, None], fx[None, :])


def freq_decompose(x: LatentField, rho: float) -> FreqSplit:
    """Split into LOW / HIGH components with a per-frame, per-channel 2D DFT.

    Bins with normalized radial frequency <= rho * r_max go to LOW (the DC
    bin always does); everything else goes to HIGH. Each component is the
    inverse transform of its own bins, so low + high reconstructs x up to
    transform rounding. The temporal axis is untouched.
    """
    rho = _require_unit(rho, "rho")
    radial = _radial_frequencies(x.data.shape[2], x.data.shape[3])
    low_bins = radial <= rho * radial.max()
    spectrum = np.fft.fft2(x.data, axes=(-2, -1))
    low = np.fft.ifft2(spectrum * low_bins, axes=(-2, -1)).real
    high = np.fft.ifft2(spectrum * ~low_bins, axes=(-2, -1)).real
    return FreqSplit(LatentField(low), LatentField(high))


@lru_cache(maxsize=None)
def _high_half_bins(height: int, width: int, rho: float) -> np.ndarray:
    """Read-only HIGH-band mask over the rfft2 half spectrum (width//2 + 1 columns).

    The same bins as freq_decompose's HIGH band, which is symmetric under
    k -> n-k, so the half spectrum carries all of it.
    """
    radial = _radial_frequencies(height, width)
    high = (radial > rho * radial.max())[:, : width // 2 + 1]
    high.flags.writeable = False
    return high


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
    z_edit + lambda*M*HF(z_src - z_edit) with one real transform pair.
    lambda == 0 returns z_edit itself (bitwise identity); a zero mask and
    transferring a field onto itself return z_edit's values exactly.
    """
    _require_same_shape(z_edit, z_src, "hf_transfer")
    _require_mask_fits(mask, z_edit, "hf_transfer")
    hf_lambda = _require_unit(hf_lambda, "hf_lambda")
    rho = _require_unit(rho, "rho")
    if hf_lambda == 0.0:
        return z_edit
    h, w = z_edit.data.shape[2:]
    spectrum = np.fft.rfft2(z_src.data - z_edit.data)
    spectrum *= _high_half_bins(h, w, rho)
    detail = np.fft.irfft2(spectrum, s=(h, w))
    detail *= hf_lambda * mask.data
    detail += z_edit.data
    return LatentField(detail)


def _pool_weights(src: int, dst: int) -> np.ndarray:
    """Row-stochastic (dst, src) area-overlap matrix for 1D average pooling."""
    if dst > src:
        raise ShapeMismatchError(f"cannot pool {src} cells up to {dst}")
    if dst == src:
        return np.eye(src)
    step = src / dst
    lo = np.arange(dst)[:, None] * step
    hi = lo + step
    cells = np.arange(src)[None, :]
    overlap = np.clip(np.minimum(cells + 1.0, hi) - np.maximum(cells, lo), 0.0, None)
    return overlap / step


def downsample_mask(mask: Mask, target: Shape) -> Mask:
    """Area-average a mask down to target frames/height/width.

    Fractional source/target ratios pool with partial-cell weights; exact
    divisors reduce to plain block means. Values stay in [0, 1].
    """
    f, _, h, w = mask.data.shape
    if target.frames > f:
        raise ShapeMismatchError(f"incompatible frame count: {f} -> {target.frames}")
    pf = _pool_weights(f, target.frames)
    ph = _pool_weights(h, target.height)
    pw = _pool_weights(w, target.width)
    pooled = np.einsum("af,bh,cw,fzhw->azbc", pf, ph, pw, mask.data)
    return Mask(np.clip(pooled, 0.0, 1.0))


def rel_error(a: LatentField, b: LatentField) -> float:
    """max|a - b| scaled by 1 + max|b|; the package-wide relative deviation."""
    _require_same_shape(a, b, "rel_error")
    return float(np.max(np.abs(a.data - b.data))) / (1.0 + b.max_abs())


def rms(data: np.ndarray) -> float:
    """sqrt(mean(data**2)), finite for any finite data.

    Where the squares overflow, the values are first scaled by max|data|.
    """
    with np.errstate(over="ignore"):
        value = float(np.sqrt(np.mean(data * data)))
    if value == np.inf:
        peak = float(np.max(np.abs(data)))
        if peak < np.inf:
            scaled = data / peak
            value = peak * float(np.sqrt(np.mean(scaled * scaled)))
    return value
