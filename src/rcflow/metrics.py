"""Desk-scale run diagnostics.

These are deliberately simple surrogates: structural agreement is the
Pearson correlation of finite-difference gradient magnitudes inside the
mask, background drift is a plain RMS outside it. Good enough to tell
"structure kept, lighting changed" from "everything changed" on toy
scenes; not calibrated against any perceptual metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .latent import LatentField, Mask


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
    a = _gradient_magnitude(output.data)[inside]
    b = _gradient_magnitude(source.data)[inside]
    if a.size < 2 or float(a.std()) == 0.0 or float(b.std()) == 0.0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def bg_change_rms(output: LatentField, source: LatentField, mask: Mask) -> float:
    """RMS of output - source outside the mask; 0 when nothing is outside."""
    outside = np.broadcast_to(mask.data <= 0.5, output.data.shape)
    diff = (output.data - source.data)[outside]
    if diff.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(diff * diff)))


def rms_gap(a: LatentField, b: LatentField) -> float:
    diff = a.data - b.data
    return float(np.sqrt(np.mean(diff * diff)))


@dataclass
class MetricsReport:
    """Machine-readable run summary, serialized one key=value per line."""

    nfe: int
    identity_error: float | None = None
    fg_structure_score: float | None = None
    bg_change_rms: float | None = None
    export_channel: int | None = None
    export_min: float | None = None
    export_max: float | None = None

    def to_lines(self) -> list[str]:
        lines = [f"nfe={self.nfe}"]
        for key in ("identity_error", "fg_structure_score", "bg_change_rms"):
            value = getattr(self, key)
            if value is not None:
                lines.append(f"{key}={value:.9g}")
        if self.export_channel is not None:
            lines.append(f"export_channel={self.export_channel}")
        for key in ("export_min", "export_max"):
            value = getattr(self, key)
            if value is not None:
                lines.append(f"{key}={value:.9g}")
        return lines

    def to_text(self) -> str:
        return "\n".join(self.to_lines()) + "\n"
