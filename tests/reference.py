"""Test-only references: two mixture posterior means and a metrics.txt reader."""

from __future__ import annotations

import numpy as np

from rcflow.errors import NumericError
from rcflow.fields import MixtureDataset
from rcflow.latent import LatentField


def oracle_posterior_mean(z: LatentField, t: float, data: MixtureDataset) -> LatentField:
    """Literal extended-precision posterior mean; no stability tricks.

    Reference for the mixture fields. Raises NumericError when every
    unshifted weight underflows, which is exactly the regime the production
    path's max-shift exists for.
    """
    if t <= 0.0:
        raise ValueError("posterior mean is undefined at t <= 0")
    zl = z.data.astype(np.longdouble).reshape(-1)
    total = np.longdouble(0.0)
    accum = np.zeros_like(zl)
    for weight, point in data.components:
        pl = point.data.astype(np.longdouble).reshape(-1)
        diff = zl - (1.0 - np.longdouble(t)) * pl
        w = np.longdouble(weight) * np.exp(-(diff @ diff) / (2.0 * np.longdouble(t) ** 2))
        total += w
        accum += w * pl
    if total <= 0.0:
        raise NumericError("all mixture weights underflowed in the oracle")
    return LatentField((accum / total).astype(np.float64).reshape(z.data.shape))


def direct_posterior_mean(z: LatentField, t: float, data: MixtureDataset) -> LatentField:
    """Max-shifted posterior mean from directly computed distances.

    Squares the components x values array of differences (1-t)*p_k - z, so
    each distance is rounded on its own; reference for the production
    path's one matrix-vector product. Falls back to the nearest component
    (lowest index on ties) if every shifted weight vanishes. A distance that
    overflows is inf, without a warning.
    """
    if t <= 0.0:
        raise ValueError("posterior mean is undefined at t <= 0")
    flat = data.points.reshape(data.points.shape[0], -1)
    with np.errstate(over="ignore"):
        diff = flat * (1.0 - t) - z.data.reshape(-1)
        d2 = np.sum(diff * diff, axis=1)
    with np.errstate(divide="ignore", over="ignore"):
        exponents = np.log(data.weights) - d2 / (2.0 * t * t)
    peak = float(np.max(exponents))
    if not np.isfinite(peak):
        return LatentField(data.points[int(np.argmin(d2))])
    shifted = np.exp(exponents - peak)
    mean = np.tensordot(shifted / float(shifted.sum()), data.points, axes=(0, 0))
    return LatentField(mean)


def parse_metrics(text: str) -> dict[str, float]:
    """Inverse of metrics.key_values; every value parses as float."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        out[key] = float(value)
    return out
