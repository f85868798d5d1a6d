"""Test-only references: the literal mixture posterior mean and a metrics.txt reader."""

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


def parse_metrics(text: str) -> dict[str, float]:
    """Inverse of MetricsReport.to_text; every value parses as float."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        out[key] = float(value)
    return out
