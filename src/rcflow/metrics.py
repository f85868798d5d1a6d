"""Desk-scale run diagnostics.

These are deliberately simple surrogates: structural agreement is the
Pearson correlation of finite-difference gradient magnitudes inside the
mask, background drift is a plain RMS outside it. Good enough to tell
"structure kept, lighting changed" from "everything changed" on toy
scenes; not calibrated against any perceptual metric.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .latent import LatentField, Mask, _numeric_stage, rms


def _gradient_magnitude(data: np.ndarray) -> np.ndarray:
    """Per-frame, per-channel spatial gradient magnitude of a 4-axis stack.

    Finite differences as np.gradient takes them; an axis of length 1 has
    no neighbours and contributes a zero gradient.
    """
    gy, gx = (
        np.gradient(data, axis=axis) if data.shape[axis] > 1 else np.zeros_like(data)
        for axis in (2, 3)
    )
    return np.hypot(gy, gx)


def fg_structure_score(output: LatentField, source: LatentField, mask: Mask) -> float:
    """Gradient-magnitude correlation inside the mask, in [-1, 1].

    Degenerate selections (under two pixels, or zero variance on either
    side) score 0.
    """
    inside = np.broadcast_to(mask.data > 0.5, output.data.shape)
    a = _gradient_magnitude(_overflow_safe(output.data))[inside]
    b = _gradient_magnitude(_overflow_safe(source.data))[inside]
    if a.size < 2 or float(a.std()) == 0.0 or float(b.std()) == 0.0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def _overflow_safe(data: np.ndarray) -> np.ndarray:
    """The stack, divided by its max |value| where its gradient magnitudes' squares could overflow.

    A correlation does not change when one side is scaled. A difference of
    two values at most `peak` is at most 2 * peak, so a magnitude is at most
    2 * sqrt(2) * peak and a sum of n squared magnitudes below 8 * n * peak**2.
    """
    peak = float(np.max(np.abs(data)))
    if 8.0 * data.size * peak * peak < np.finfo(np.float64).max:
        return data
    return data / peak


def bg_change_rms(output: LatentField, source: LatentField, mask: Mask) -> float:
    """RMS of output - source outside the mask; 0 when nothing is outside.

    Where a difference overflows, the RMS of the halved values' differences,
    which cannot overflow, is doubled. An RMS beyond float64 is a
    NumericError.
    """
    outside = np.broadcast_to(mask.data <= 0.5, output.data.shape)
    with _numeric_stage():
        diff = (output.data - source.data)[outside]
    value = rms(diff) if diff.size else 0.0
    if value == np.inf:
        value = 2.0 * rms(output.data[outside] / 2.0 - source.data[outside] / 2.0)
        if value == np.inf:
            raise NumericError("bg_change_rms exceeds the float64 range")
    return value


def rms_gap(a: LatentField, b: LatentField) -> float:
    return rms(a.data - b.data)


def key_values(**values: float | bool | None) -> str:
    """Machine-readable run summary: one key=value line per value, in the order given.

    Integers are written as they are and booleans (integers too) as true or
    false, other numbers to 9 significant digits; a None value is left out.
    """
    return "".join(
        f"{key}={str(value).lower()}\n" if isinstance(value, int) else f"{key}={value:.9g}\n"
        for key, value in values.items()
        if value is not None
    )
