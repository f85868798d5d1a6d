"""Desk-scale run diagnostics.

These are deliberately simple surrogates: structural agreement is the
Pearson correlation of finite-difference gradient magnitudes inside the
mask, background drift is a plain RMS outside it. Good enough to tell
"structure kept, lighting changed" from "everything changed" on toy
scenes; not calibrated against any perceptual metric.
"""

from __future__ import annotations

import math

import numpy as np

from .latent import LatentField, Mask, rms


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
    a = _overflow_safe(_gradient_magnitude(output.data)[inside])
    b = _overflow_safe(_gradient_magnitude(source.data)[inside])
    if a.size < 2 or float(a.std()) == 0.0 or float(b.std()) == 0.0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def _overflow_safe(magnitudes: np.ndarray) -> np.ndarray:
    """The magnitudes, divided by their max where a sum of their squares could overflow.

    A correlation does not change when one side is scaled, and a sum of n
    squares of values at most `peak` stays below n * peak**2.
    """
    peak = float(magnitudes.max(initial=0.0))
    if not math.isfinite(peak) or magnitudes.size * peak * peak < np.finfo(np.float64).max:
        return magnitudes
    return magnitudes / peak


def bg_change_rms(output: LatentField, source: LatentField, mask: Mask) -> float:
    """RMS of output - source outside the mask; 0 when nothing is outside."""
    outside = np.broadcast_to(mask.data <= 0.5, output.data.shape)
    diff = (output.data - source.data)[outside]
    return rms(diff) if diff.size else 0.0


def rms_gap(a: LatentField, b: LatentField) -> float:
    return rms(a.data - b.data)


def key_values(**values: float | None) -> str:
    """Machine-readable run summary: one key=value line per value, in the order given.

    Integers are written as they are, other numbers to 9 significant digits;
    a None value is left out.
    """
    return "".join(
        f"{key}={value}\n" if isinstance(value, int) else f"{key}={value:.9g}\n"
        for key, value in values.items()
        if value is not None
    )
