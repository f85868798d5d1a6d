"""Test-only references: a full-spectrum frequency split, two mixture posterior means, an evaluation counter, a metrics.txt reader."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from rcflow.engine import VelocityField
from rcflow.errors import NumericError
from rcflow.fields import MixtureDataset
from rcflow.latent import LatentField


def full_spectrum_split(x: LatentField, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """LOW and HIGH of x, each the inverse complex DFT of its own bins over the full spectrum.

    Per axis of length n, bin k has normalized frequency min(k, n-k)/(n//2);
    a length-1 axis contributes zero. Bins whose radial frequency is at most
    rho times the largest go to LOW, the rest to HIGH. Reference for
    freq_decompose's one real transform pair, which forms LOW as x - HIGH.
    """

    def axis_freq(n: int) -> np.ndarray:
        k = np.arange(n)
        return np.zeros(1) if n == 1 else np.minimum(k, n - k) / (n // 2)

    radial = np.hypot(axis_freq(x.data.shape[2])[:, None], axis_freq(x.data.shape[3])[None, :])
    low_bins = radial <= rho * radial.max()
    spectrum = np.fft.fft2(x.data, axes=(-2, -1))
    low = np.fft.ifft2(spectrum * low_bins, axes=(-2, -1)).real
    high = np.fft.ifft2(spectrum * ~low_bins, axes=(-2, -1)).real
    return low, high


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
    for weight, point in zip(data.weights, data.points):
        pl = point.astype(np.longdouble).reshape(-1)
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
    path's one matrix-vector product. Falls back to the nearest component by
    exact rational distance (lowest index on ties) if every shifted weight
    vanishes, so a tie of overflowed distances still picks the right one. A
    distance that overflows is inf, without a warning.
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
        s = Fraction(1.0 - t)
        z_exact = [Fraction(v) for v in z.data.reshape(-1).tolist()]
        exact = [sum((s * Fraction(p) - v) ** 2 for p, v in zip(row.tolist(), z_exact)) for row in flat]
        return LatentField(data.points[exact.index(min(exact))])
    shifted = np.exp(exponents - peak)
    mean = np.tensordot(shifted / float(shifted.sum()), data.points, axes=(0, 0))
    return LatentField(mean)


class CountingField(VelocityField):
    """Delegates to `inner` and records the condition of every evaluation."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def evaluate(self, z, t, c):
        self.calls.append(c)
        return self.inner.evaluate(z, t, c)


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
