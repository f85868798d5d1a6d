"""Test-only references: a full-spectrum frequency split, a whole-stack high band, exact area pooling, two mixture posterior means, an eager fresh-noise flowedit, the elementwise stages as one expression each, an evaluation counter, a metrics.txt reader."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from rcflow.engine import ConditionBundle, Schedule, VelocityField, euler_step, sample_noise
from rcflow.errors import NumericError
from rcflow.fields import MixtureDataset
from rcflow.latent import LatentField, lerp_noise
from rcflow.rng import derive_seed


def _high_bins(height: int, width: int, rho: float) -> np.ndarray:
    """HIGH-band bins over the full spectrum.

    Per axis of length n, bin k has normalized frequency min(k, n-k)/(n//2);
    a length-1 axis contributes zero. Bins whose radial frequency exceeds
    rho times the largest are HIGH, the rest LOW.
    """

    def axis_freq(n: int) -> np.ndarray:
        k = np.arange(n)
        return np.zeros(1) if n == 1 else np.minimum(k, n - k) / (n // 2)

    radial = np.hypot(axis_freq(height)[:, None], axis_freq(width)[None, :])
    return radial > rho * radial.max()


def full_spectrum_split(x: LatentField, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """LOW and HIGH of x, each the inverse complex DFT of its own bins over the full spectrum.

    Reference for freq_decompose's real transform pairs, which form LOW as
    x - HIGH.
    """
    high_bins = _high_bins(*x.data.shape[2:], rho)
    spectrum = np.fft.fft2(x.data, axes=(-2, -1))
    low = np.fft.ifft2(spectrum * ~high_bins, axes=(-2, -1)).real
    high = np.fft.ifft2(spectrum * high_bins, axes=(-2, -1)).real
    return low, high


def whole_stack_high_band(values: np.ndarray, rho: float) -> np.ndarray:
    """HIGH of a whole stack from one real transform pair over all its frames at once.

    The band operator's arithmetic without its split by frame: the bits
    freq_decompose and hf_transfer must give for any CPU count.
    """
    h, w = values.shape[2:]
    spectrum = np.fft.rfft2(values)
    spectrum *= _high_bins(h, w, rho)[:, : w // 2 + 1]
    return np.fft.irfft2(spectrum, s=(h, w))


def exact_area_pool(values: np.ndarray, target: tuple[int, int, int]) -> np.ndarray:
    """Area average of a (frames, 1, height, width) array down to target (frames, height, width).

    Every weight is the exact overlap of a source cell [j, j+1) with the
    target cell [a*src/dst, (a+1)*src/dst), divided by src/dst, and every
    sum runs over Fractions, so the one rounding is the final float.
    Reference for downsample_mask's float per-axis contractions.
    """

    def weights(src: int, dst: int) -> list[list[tuple[int, Fraction]]]:
        step = Fraction(src, dst)
        rows = []
        for a in range(dst):
            lo, hi = a * step, (a + 1) * step
            overlaps = ((j, min(Fraction(j + 1), hi) - max(Fraction(j), lo)) for j in range(src))
            rows.append([(j, o / step) for j, o in overlaps if o > 0])
        return rows

    f, _, h, w = values.shape
    pf, ph, pw = (weights(src, dst) for src, dst in zip((f, h, w), target))
    out = np.empty((target[0], 1, target[1], target[2]))
    for a, fa in enumerate(pf):
        for b, hb in enumerate(ph):
            for c, wc in enumerate(pw):
                total = sum(
                    wf * wh * ww * Fraction(values[i, 0, j, k])
                    for i, wf in fa
                    for j, wh in hb
                    for k, ww in wc
                )
                out[a, 0, b, c] = float(total)
    return out


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


def eager_fresh_flowedit(
    field: VelocityField,
    z0: LatentField,
    c_src: ConditionBundle,
    c_tar: ConditionBundle,
    schedule: Schedule,
    n_avg: int,
    seed: int,
) -> LatentField:
    """Fresh-noise flowedit with each noise drawn when it is used and the gaps summed from zeros.

    Draw d of the step down from knot i is sample_noise(derive_seed(seed, i, d)).
    Reference for flowedit_run in fresh mode, which queues each draw one
    ahead and starts its sum from the first gap.
    """
    z = z0
    knots = schedule.knots
    for i in range(schedule.steps, 0, -1):
        t_hi = knots[i]
        displacement = z.data - z0.data
        total = np.zeros(z0.data.shape)
        for draw in range(n_avg):
            z_t = lerp_noise(z0, sample_noise(derive_seed(seed, i, draw), z0.shape), t_hi)
            v_tar = field.evaluate(LatentField(z_t.data + displacement), t_hi, c_tar)
            v_src = field.evaluate(z_t, t_hi, c_src)
            total += v_tar.data - v_src.data
        z = euler_step(z, t_hi, knots[i - 1], total / n_avg)
    return z


def lerp_expression(z0: np.ndarray, eps: np.ndarray, t: float) -> np.ndarray:
    """lerp_noise's one-expression form, endpoints included."""
    if t == 0.0:
        return z0
    if t == 1.0:
        return eps
    return (1.0 - t) * z0 + t * eps


def euler_expression(z: np.ndarray, t_hi: float, t_lo: float, v: np.ndarray) -> np.ndarray:
    """euler_step's one-expression form."""
    return z + (t_hi - t_lo) * v


def mixture_velocity_expression(mean: np.ndarray, z: np.ndarray, t: float) -> np.ndarray:
    """The mixture field's velocity toward its posterior mean, as one expression."""
    return (mean - z) / t


def residual_expression(z0: np.ndarray, eps: np.ndarray, v_src: np.ndarray) -> np.ndarray:
    """consistency_residual's one-expression form, given the source prediction."""
    return (z0 - eps) - v_src


def expression_edit(field, z0, c_src, c_tar, eps, mask, knots, r) -> np.ndarray:
    """run_edit without detail transfer, each elementwise stage written as its one expression.

    The reference for the bits of run_edit's stages split by frame range:
    lerp_noise, the consistency residual, the corrected velocity
    v_tar + mask * residual and the Euler step. field.evaluate is called as
    run_edit calls it.
    """
    z = eps.data
    steps = len(knots) - 1
    for i in range(steps, 0, -1):
        t_hi, t_lo = knots[i], knots[i - 1]
        if (steps - i) % r == 0:
            z_t = lerp_expression(z0.data, eps.data, t_hi)
            residual = residual_expression(z0.data, eps.data, field.evaluate(LatentField(z_t), t_hi, c_src).data)
        v_tar = field.evaluate(LatentField(z), t_hi, c_tar).data
        z = euler_expression(z, t_hi, t_lo, v_tar + mask.data * residual)
    return z


def expression_flowedit(field, z0, c_src, c_tar, eps, knots) -> np.ndarray:
    """Fixed-noise flowedit_run, each elementwise stage written as its one expression.

    The reference for the bits of its predicted point z_t + displacement, of
    lerp_noise and of the Euler step, split by frame range.
    """
    z = z0.data
    for i in range(len(knots) - 1, 0, -1):
        t_hi, t_lo = knots[i], knots[i - 1]
        displacement = z - z0.data
        z_t = lerp_expression(z0.data, eps.data, t_hi)
        v_tar = field.evaluate(LatentField(z_t + displacement), t_hi, c_tar).data
        v_src = field.evaluate(LatentField(z_t), t_hi, c_src).data
        z = euler_expression(z, t_hi, t_lo, (0.0 + (v_tar - v_src)) / 1)
    return z


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
