import threading
import time
import tracemalloc
import warnings
from concurrent.futures import wait
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal, assert_array_max_ulp

import rcflow.latent as latent
import rcflow.rng as rng
from rcflow.edit import EditConfig, consistency_residual, run_edit
from rcflow.engine import (
    ConditionBundle, Schedule, VelocityField, euler_step, generate, make_uniform_schedule, sample_noise,
)
from rcflow.errors import NumericError, ShapeMismatchError
from rcflow.fields import MixtureDataset, _posterior_mean_stable, constant_field, mixture_field
from rcflow.flowedit import FlowEditConfig, flowedit_run
from rcflow.latent import (
    LatentField,
    Mask,
    Shape,
    _numeric_stage,
    downsample_mask,
    freq_decompose,
    hf_transfer,
    lerp_noise,
    rel_error,
    rms,
)
from rcflow.rng import QueuedDraw, standard_normal

from reference import (
    euler_expression, exact_area_pool, expression_edit, expression_flowedit, full_spectrum_split, lerp_expression,
    mixture_velocity_expression, residual_expression, whole_stack_high_band,
)


def field_from(values, shape):
    return LatentField(np.array(values, dtype=float).reshape(shape))


def random_field(seed, shape):
    f, c, h, w = shape
    return LatentField(standard_normal(seed, f * c * h * w).reshape(shape))


class TestShape:
    def test_count(self):
        assert Shape(2, 3, 4, 5).count == 120

    @pytest.mark.parametrize("bad", [(0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ShapeMismatchError):
            Shape(*bad)


class TestLatentField:
    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            LatentField(np.full((1, 1, 2, 2), np.nan))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeMismatchError):
            LatentField(np.zeros((2, 2)))

    def test_immutable(self):
        x = LatentField.zeros(Shape(1, 1, 2, 2))
        with pytest.raises(ValueError):
            x.data[0, 0, 0, 0] = 1.0

    def test_equality(self):
        a = field_from([1.0, 2.0], (1, 1, 1, 2))
        b = field_from([1.0, 2.0], (1, 1, 1, 2))
        c = field_from([1.0, 2.5], (1, 1, 1, 2))
        assert a == b
        assert a != c


class TestNumericStage:
    def test_failure_renames_and_chains(self):
        with pytest.raises(NumericError, match="^stage failed$") as info:
            with _numeric_stage("stage failed"):
                LatentField(np.full((1, 1, 1, 1), np.inf))
        assert isinstance(info.value.__cause__, NumericError)
        assert str(info.value.__cause__) == "field contains non-finite values"

    def test_without_failure_reraises_unchanged(self):
        original = NumericError("inner")
        with pytest.raises(NumericError) as info:
            with _numeric_stage():
                raise original
        assert info.value is original

    def test_shape_mismatch_passes_through(self):
        original = ShapeMismatchError("shapes differ")
        with pytest.raises(ShapeMismatchError) as info:
            with _numeric_stage("stage failed"):
                raise original
        assert info.value is original and info.value.__cause__ is None

    def test_overflow_invalid_and_divide_warn_nothing(self):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with _numeric_stage():
                big = np.array([1e308]) * 10.0
                values = np.concatenate([big, big - big, np.array([1.0]) / 0.0])
        assert np.isposinf(values[0]) and np.isnan(values[1]) and np.isposinf(values[2])
        assert np.geterr() == before


class TestMask:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            Mask(np.full((1, 1, 2, 2), 1.5))

    def test_channel_count_enforced(self):
        with pytest.raises(ShapeMismatchError):
            Mask(np.zeros((1, 2, 2, 2)))

    def test_broadcasts_over_multichannel(self):
        mask = Mask.ones(Shape(2, 1, 4, 4))
        field = LatentField.zeros(Shape(2, 3, 4, 4))
        assert mask.broadcasts_over(field)
        assert not mask.broadcasts_over(LatentField.zeros(Shape(2, 3, 4, 8)))


class TestFieldAndMaskPlumbing:
    @pytest.mark.parametrize("cls,name", [(LatentField, "LatentField"), (Mask, "Mask")])
    def test_shared_contract(self, cls, name):
        a = cls(np.full((2, 1, 3, 4), 0.5))
        b = cls(np.full((2, 1, 3, 4), 0.5))
        assert a == b and hash(a) == hash(b)
        assert a != cls(np.full((2, 1, 3, 4), 0.25))
        assert a.shape == Shape(2, 1, 3, 4)
        assert repr(a) == f"{name}(2x1x3x4)"
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            a.data = b.data
        assert not hasattr(a, "__dict__")

    def test_mask_is_never_a_field(self):
        values = np.ones((1, 1, 2, 2))
        mask, field = Mask(values), LatentField(values)
        assert not isinstance(mask, LatentField) and not isinstance(field, Mask)
        assert mask != field and field != mask
        assert len({mask, field}) == 2


class TestLerpNoise:
    def test_endpoints_exact(self):
        z0 = random_field(4, (2, 1, 4, 4))
        eps = random_field(5, (2, 1, 4, 4))
        assert lerp_noise(z0, eps, 0.0) is z0
        assert lerp_noise(z0, eps, 1.0) is eps

    def test_interior_value(self):
        z0 = field_from([2.0], (1, 1, 1, 1))
        eps = field_from([0.0], (1, 1, 1, 1))
        assert_allclose(lerp_noise(z0, eps, 0.25).data.ravel(), [1.5])

    @pytest.mark.parametrize("t", [-0.1, 1.1])
    def test_t_out_of_range(self, t):
        z = LatentField.zeros(Shape(1, 1, 2, 2))
        with pytest.raises(ValueError):
            lerp_noise(z, z, t)


class TestFreqDecompose:
    def test_constant_field_is_all_low(self):
        x = LatentField.full(Shape(1, 1, 8, 8), 3.25)
        split = freq_decompose(x, 0.5)
        assert_allclose(split.low.data, x.data, atol=1e-12)
        assert_allclose(split.high.data, 0.0, atol=1e-12)

    def test_rho_one_is_all_low(self):
        x = random_field(6, (1, 1, 8, 8))
        split = freq_decompose(x, 1.0)
        assert_allclose(split.low.data, x.data, atol=1e-12)
        assert_allclose(split.high.data, 0.0, atol=1e-12)

    def test_round_trip_and_parseval(self):
        # direct FFT round-trip oracle on a random 8x8 field
        x = random_field(7, (1, 1, 8, 8))
        split = freq_decompose(x, 0.8)
        recon = split.low.data + split.high.data
        assert np.max(np.abs(recon - x.data)) <= 1e-6 * x.max_abs()
        energy = np.sum(split.low.data**2) + np.sum(split.high.data**2)
        assert_allclose(energy, np.sum(x.data**2), rtol=1e-9)

    def test_dc_always_low(self):
        x = random_field(8, (1, 1, 8, 8))
        split = freq_decompose(x, 0.0)
        # only the DC bin survives in LOW: each frame/channel is its own mean
        assert_allclose(split.low.data, np.full_like(x.data, x.data.mean()), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_property(self, seed):
        x = random_field(100 + seed, (2, 2, 8, 16))
        rho = (seed + 1) / 6.0
        split = freq_decompose(x, rho)
        bound = 1e-6 * (1.0 + x.max_abs())
        assert np.max(np.abs(split.low.data + split.high.data - x.data)) <= bound

    def test_linearity(self):
        x = random_field(9, (1, 1, 8, 8))
        y = random_field(10, (1, 1, 8, 8))
        a = 2.5
        combined = freq_decompose(LatentField(a * x.data + y.data), 0.6)
        sx = freq_decompose(x, 0.6)
        sy = freq_decompose(y, 0.6)
        assert_allclose(combined.low.data, a * sx.low.data + sy.low.data, atol=1e-10)
        assert_allclose(combined.high.data, a * sx.high.data + sy.high.data, atol=1e-10)

    def test_odd_extents_round_trip(self):
        x = random_field(11, (1, 1, 7, 5))
        split = freq_decompose(x, 0.5)
        assert_allclose(split.low.data + split.high.data, x.data, atol=1e-10)

    def test_single_pixel_spatial(self):
        x = random_field(12, (2, 1, 1, 1))
        split = freq_decompose(x, 0.3)
        assert_allclose(split.low.data, x.data, atol=1e-12)


class TestHfTransfer:
    def test_lambda_zero_is_exact_identity(self):
        z = random_field(13, (1, 1, 8, 8))
        src = random_field(14, (1, 1, 8, 8))
        out = hf_transfer(z, src, Mask.ones(z.shape), 0.0, 0.8)
        assert out is z

    def test_self_transfer_is_identity(self):
        z = random_field(15, (2, 1, 8, 8))
        mask = Mask(np.full((2, 1, 8, 8), 0.7))
        out = hf_transfer(z, z, mask, 0.9, 0.5)
        assert_array_equal(out.data, z.data)

    def test_zero_mask_keeps_edit(self):
        z = random_field(16, (1, 1, 8, 8))
        src = random_field(17, (1, 1, 8, 8))
        out = hf_transfer(z, src, Mask.zeros(z.shape), 1.0, 0.8)
        assert_array_equal(out.data, z.data)

    def test_full_transfer_swaps_high_band(self):
        z = random_field(18, (1, 1, 8, 8))
        src = random_field(19, (1, 1, 8, 8))
        out = hf_transfer(z, src, Mask.ones(z.shape), 1.0, 0.5)
        zs = freq_decompose(z, 0.5)
        ss = freq_decompose(src, 0.5)
        assert_allclose(out.data, zs.low.data + ss.high.data, atol=1e-10)

    def test_parameter_out_of_range(self):
        z = random_field(20, (1, 1, 4, 4))
        with pytest.raises(ValueError):
            hf_transfer(z, z, Mask.ones(z.shape), 1.5, 0.5)


def reference_hf_transfer(z_edit, z_src, mask, hf_lambda, rho):
    """LF(e) + lambda*M*HF(s) + (1 - lambda*M)*HF(e), straight from the full-spectrum split."""
    edit_low, edit_high = full_spectrum_split(z_edit, rho)
    _, src_high = full_spectrum_split(z_src, rho)
    weight = hf_lambda * mask.data
    return edit_low + weight * src_high + (1.0 - weight) * edit_high


@st.composite
def transfer_cases(draw):
    """Edit and source fields, a fractional mask, lambda in (0, 1] and rho in [0, 1].

    Extents run from 1 to 9, so odd and length-1 spatial axes are common.
    """
    f, c, h, w = (draw(st.integers(1, hi)) for hi in (3, 3, 9, 9))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    z_edit = LatentField(draw(hnp.arrays(np.float64, (f, c, h, w), elements=values)))
    z_src = LatentField(draw(hnp.arrays(np.float64, (f, c, h, w), elements=values)))
    mask = Mask(draw(hnp.arrays(np.float64, (f, 1, h, w), elements=st.floats(0.0, 1.0))))
    hf_lambda = draw(st.floats(0.0, 1.0, exclude_min=True))
    rho = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    return z_edit, z_src, mask, hf_lambda, rho


class TestFreqDecomposeProperties:
    @settings(deadline=None)
    @given(transfer_cases())
    def test_matches_full_spectrum_reference(self, case):
        x, _, _, _, rho = case
        split = freq_decompose(x, rho)
        low, high = full_spectrum_split(x, rho)
        bound = 1e-12 * (1.0 + x.max_abs())
        assert np.max(np.abs(split.low.data - low)) <= bound
        assert np.max(np.abs(split.high.data - high)) <= bound


class TestHfTransferProperties:
    @settings(deadline=None)
    @given(transfer_cases())
    def test_matches_full_spectrum_reference(self, case):
        z_edit, z_src, mask, hf_lambda, rho = case
        out = hf_transfer(z_edit, z_src, mask, hf_lambda, rho)
        expected = reference_hf_transfer(z_edit, z_src, mask, hf_lambda, rho)
        bound = 1e-12 * (1.0 + max(z_edit.max_abs(), z_src.max_abs()))
        assert np.max(np.abs(out.data - expected)) <= bound

    @settings(deadline=None)
    @given(transfer_cases())
    def test_self_transfer_is_exact(self, case):
        z, _, mask, hf_lambda, rho = case
        assert_array_equal(hf_transfer(z, z, mask, hf_lambda, rho).data, z.data)

    @settings(deadline=None)
    @given(transfer_cases())
    def test_zero_mask_is_exact(self, case):
        z_edit, z_src, mask, hf_lambda, rho = case
        out = hf_transfer(z_edit, z_src, Mask(np.zeros_like(mask.data)), hf_lambda, rho)
        assert_array_equal(out.data, z_edit.data)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("frames", [1, 2, 3, 5])
def test_band_operator_bits_do_not_depend_on_worker_count(monkeypatch, workers, frames):
    # the frames run one at a time, split across the pool: the bits are the whole stack's
    monkeypatch.setattr(rng, "_WORKERS", workers)
    shape = (frames, 2, 12, 9)
    z_edit, z_src = random_field(50, shape), random_field(51, shape)
    mask = Mask(np.abs(random_field(52, (frames, 1, 12, 9)).data) % 1.0)
    expected = whole_stack_high_band(z_src.data - z_edit.data, 0.6)
    expected *= 0.7 * mask.data
    expected += z_edit.data
    assert hf_transfer(z_edit, z_src, mask, 0.7, 0.6).data.tobytes() == expected.tobytes()

    split = freq_decompose(z_edit, 0.6)
    high = whole_stack_high_band(z_edit.data, 0.6)
    assert split.high.data.tobytes() == high.tobytes()
    assert split.low.data.tobytes() == (z_edit.data - high).tobytes()
    low, high = full_spectrum_split(z_edit, 0.6)
    bound = 1e-12 * (1.0 + z_edit.max_abs())
    assert np.max(np.abs(split.low.data - low)) <= bound
    assert np.max(np.abs(split.high.data - high)) <= bound


def test_band_operator_overflow_warns_on_no_worker(monkeypatch):
    # numpy's error state does not reach the pool's threads: each range enters the stage itself
    monkeypatch.setattr(rng, "_WORKERS", 3)
    huge = LatentField(np.copysign(1e308, random_field(53, (5, 1, 8, 8)).data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite"):
            hf_transfer(huge, LatentField(-huge.data), Mask.ones(huge.shape), 1.0, 0.5)
        with pytest.raises(NumericError, match="non-finite"):
            freq_decompose(huge, 0.5)


def signed_field(seed, shape):
    """Gaussian values with every fifth one -0.0, at the same places for every seed."""
    values = random_field(seed, shape).data.copy()
    values.reshape(-1)[::5] = -0.0
    return LatentField(values)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("rho", [0.0, 0.25, 0.8, 1.0])
@pytest.mark.parametrize("shape", [(3, 2, 17, 9), (1, 1, 1, 1), (2, 1, 1, 7)])
@pytest.mark.parametrize("t", [0.0, 1e-3, 0.5, 1.0])
def test_transfer_from_a_path_point_is_the_built_sources(monkeypatch, workers, rho, shape, t):
    # each range builds its own frames of the point, with lerp_noise's operations: same bits
    monkeypatch.setattr(rng, "_WORKERS", workers)
    z0, eps, z_edit = (signed_field(seed, shape).data.copy() for seed in (60, 61, 62))
    eps.reshape(-1)[1::3] = -0.0  # -0.0 where z0 holds a value, and in both at every 15th
    z_edit.reshape(-1)[2::4] = -0.0
    z0, eps, z_edit = LatentField(z0), LatentField(eps), LatentField(z_edit)
    mask = Mask(np.abs(random_field(63, (shape[0], 1, *shape[2:])).data) % 1.0)
    expected = hf_transfer(z_edit, lerp_noise(z0, eps, t), mask, 0.6, rho)
    assert hf_transfer(z_edit, latent.PathPoint(z0, eps, t), mask, 0.6, rho).data.tobytes() == expected.data.tobytes()


def test_path_point_checks_its_operands():
    z = random_field(64, (2, 1, 4, 4))
    with pytest.raises(ShapeMismatchError, match="lerp_noise"):
        latent.PathPoint(z, random_field(65, (2, 1, 4, 5)), 0.5)
    with pytest.raises(ValueError, match="t must lie"):
        latent.PathPoint(z, z, 1.5)
    with pytest.raises(ShapeMismatchError, match="hf_transfer"):
        hf_transfer(random_field(66, (2, 1, 4, 5)), latent.PathPoint(z, z, 0.5), Mask.ones(z.shape), 0.5, 0.5)


def guarded_frames(shape):
    """Frame 0 holds one value at twice the guard bound beside an all -0.0 channel; frame 1 is plain.

    The guard sends frame 0 through the whole transform pair, whose exactly-zero
    HIGH values in the -0.0 channel differ in sign from the pruned pair's.
    """
    height, width = shape[2:]
    values = random_field(67, shape).data.copy()
    values[0, 0] = -0.0
    values[0, 1, 3, 2] = np.finfo(np.float64).max / (height * width)
    return LatentField(values)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_frame_above_the_guard_bound_keeps_the_unpruned_bytes(monkeypatch, workers):
    monkeypatch.setattr(rng, "_WORKERS", workers)
    x = guarded_frames((2, 2, 16, 16))
    high = whole_stack_high_band(x.data, 0.8)
    assert np.all(np.isfinite(high))
    split = freq_decompose(x, 0.8)
    assert split.high.data.tobytes() == high.tobytes()
    assert split.low.data.tobytes() == (x.data - high).tobytes()
    zero = LatentField(np.zeros(x.data.shape))
    expected = whole_stack_high_band(x.data - zero.data, 0.8)
    expected *= 0.5
    expected += zero.data
    assert hf_transfer(zero, x, Mask.ones(x.shape), 0.5, 0.8).data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rho", [0.5, 0.8])
def test_an_overflow_in_a_skipped_column_fails_as_the_unpruned_pair(monkeypatch, workers, rho):
    # a constant 1e307 16x16 frame overflows only its DC bin, which is LOW: the unpruned pair
    # turns it into nan (inf * 0) across the frame, and so must the operator, whether it prunes
    # (rho 0.8) or its band starts at column 0 and it runs without the overflow test (rho 0.5)
    monkeypatch.setattr(rng, "_WORKERS", workers)
    values = random_field(68, (2, 1, 16, 16)).data.copy()
    values[1] = 1e307
    x = LatentField(values)
    with _numeric_stage():
        assert not np.all(np.isfinite(whole_stack_high_band(x.data, rho)[1]))
    with pytest.raises(NumericError, match="non-finite"):
        freq_decompose(x, rho)
    zero = LatentField(np.zeros(x.data.shape))
    with pytest.raises(NumericError, match="non-finite"):
        hf_transfer(zero, latent.PathPoint(zero, x, 1.0), Mask.ones(x.shape), 0.5, rho)


class AffineField(VelocityField):
    """v = 0.5 z + gain: elementwise arithmetic of the test's own, so only rcflow's stages split."""

    def evaluate(self, z, t, c):
        return LatentField(0.5 * z.data + c.illum_params[0])


SRC_GAIN, TAR_GAIN = ConditionBundle(illum_params=(0.25,)), ConditionBundle(illum_params=(-1.5,))


def stage_bits(frames):
    """Each elementwise stage as (its bits, its one-expression form's bits), on -0.0-salted inputs."""
    shape = (frames, 2, 4, 6)
    a, b, c = (signed_field(seed, shape) for seed in (60, 61, 62))
    mask = Mask(np.abs(signed_field(63, (frames, 1, 4, 6)).data) % 1.0)
    data = MixtureDataset(((1.0, b), (3.0, c)))
    knots = Schedule([0.0, 0.3, 0.55, 1.0]).knots
    edit = EditConfig(Schedule(knots), mask, reuse_interval=2, hf_lambda=0.0)
    fixed = FlowEditConfig(Schedule(knots), seed=5)
    noise = sample_noise(5, Shape(*shape))
    return {
        "lerp_noise": lambda: (lerp_noise(a, b, 0.3).data, lerp_expression(a.data, b.data, 0.3)),
        "euler_step": lambda: (euler_step(a, 0.55, 0.3, b.data).data, euler_expression(a.data, 0.55, 0.3, b.data)),
        "mixture velocity": lambda: (
            mixture_field(data).evaluate(a, 0.4, SRC_GAIN).data,
            mixture_velocity_expression(_posterior_mean_stable(a.data, 0.4, data), a.data, 0.4),
        ),
        "consistency_residual": lambda: (
            consistency_residual(constant_field(c), a, b, 0.4, SRC_GAIN).data,
            residual_expression(a.data, b.data, c.data),
        ),
        "run_edit": lambda: (
            run_edit(AffineField(), a, SRC_GAIN, TAR_GAIN, b, edit).output.data,
            expression_edit(AffineField(), a, SRC_GAIN, TAR_GAIN, b, mask, knots, 2),
        ),
        "flowedit_run": lambda: (
            flowedit_run(AffineField(), a, SRC_GAIN, TAR_GAIN, fixed)[0].data,
            expression_flowedit(AffineField(), a, SRC_GAIN, TAR_GAIN, noise, knots),
        ),
    }


@contextmanager
def busy_pool():
    """Every pool thread blocked on an Event, with a draw queued behind them: the pool is not idle."""
    gate, started = threading.Event(), threading.Semaphore(0)

    def block():
        started.release()
        gate.wait(60)

    blockers = [rng._POOL.executor.submit(block) for _ in range(rng._POOL.threads)]
    for _ in blockers:
        # a helping task queued earlier may still run first: the draw is queued once every thread blocks
        assert started.acquire(timeout=60)
    count = 3 * rng._BLOCK_PAIRS
    queued = QueuedDraw(7, count)
    assert not rng._POOL.idle()
    try:
        yield
    finally:
        gate.set()
        wait(blockers, timeout=60)
        drawn = queued.result()
    assert drawn.tobytes() == standard_normal(7, count).tobytes()


@pytest.fixture
def splits(monkeypatch):
    """The stop of every run_chunks call an elementwise stage makes."""
    stops = []

    def counted_run_chunks(task, stop):
        stops.append(stop)
        rng.run_chunks(task, stop)

    monkeypatch.setattr(latent, "run_chunks", counted_run_chunks)
    return stops


@pytest.mark.parametrize("mode", ["below-floor", "split", "busy-pool"])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("frames", [1, 2, 3, 5])
def test_elementwise_stages_keep_their_expression_bits(monkeypatch, splits, mode, workers, frames):
    # the stages split by frame range where the pool is idle and the stack is large enough (here,
    # with the floor at 1 value), and run whole otherwise: the bits are the expression's either way
    monkeypatch.setattr(rng, "_WORKERS", workers)
    if mode != "below-floor":
        monkeypatch.setattr(latent, "_SPLIT_FLOOR", 1)
    stages = stage_bits(frames)
    with busy_pool() if mode == "busy-pool" else nullcontext():
        for name, stage in stages.items():
            splits.clear()
            computed, expected = stage()
            assert computed.tobytes() == expected.tobytes(), name
            assert bool(splits) == (mode == "split"), name


def test_split_stages_allocate_only_the_callers_stacks(monkeypatch, splits):
    # a stack at the floor, in two ranges, one on the pool's thread: no thread allocates a stack, or a
    # range of one, beyond the output and the scratch the calling thread allocated; checking a range
    # takes at most its boolean mask
    monkeypatch.setattr(rng, "_WORKERS", 2)
    shape = (4, 4, 128, 128)
    z, v = random_field(64, shape), random_field(65, shape)
    stack = z.data.nbytes
    range_mask = z.data.size // 2  # one range's boolean mask, in bytes
    for run, stacks in ((lambda: lerp_noise(z, v, 0.3), 2), (lambda: euler_step(z, 0.5, 0.25, v.data), 1)):
        assert rng._POOL.idle()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = run()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert result.data.nbytes == stack
        assert peak <= stacks * stack + range_mask, (peak - stacks * stack) / range_mask
    assert splits == [4, 4]


@pytest.mark.parametrize("stage", ["euler_step", "lerp_noise"])
def test_a_range_that_overflows_raises_after_every_range(monkeypatch, stage):
    # three ranges of one frame; the first holds the failure, the other two check their values slowly
    monkeypatch.setattr(rng, "_WORKERS", 3)
    monkeypatch.setattr(latent, "_SPLIT_FLOOR", 1)
    shape = (3, 1, 4, 4)
    big = np.zeros(shape)
    big[0, 0, 0, :2] = (1e308, -1e308)
    if stage == "euler_step":
        # z + dt * v: 1e308 + 1e308 overflows, in the last (and only) step of generate
        field, z = constant_field(LatentField(big)), LatentField(big)
        run = lambda: generate(field, ConditionBundle(), z, make_uniform_schedule(1))
        message = "latent became non-finite stepping to t=0.0"
    else:
        # a convex combination of finite values does not overflow: the input carries the infinities,
        # wrapped without LatentField's check, as an overflow upstream would leave them
        infinite = big.copy()
        infinite[0, 0, 0, :2] = (np.inf, -np.inf)
        z0, eps = latent._finite_field(infinite), LatentField(big)
        run = lambda: lerp_noise(z0, eps, 0.5)
        message = "field contains non-finite values"
    checked = []
    require_finite = latent._require_finite

    def slow_check(values):
        if np.all(np.isfinite(values)):
            time.sleep(0.1)
        try:
            require_finite(values)
        finally:
            checked.append(values.shape)

    monkeypatch.setattr(latent, "_require_finite", slow_check)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError, match=message):
            run()
    assert not caught
    assert checked == [(1, 1, 4, 4)] * 3


@pytest.mark.parametrize("split", [False, True])
def test_finite_values_whose_sum_overflows_pass_the_check(monkeypatch, split):
    # each range sums its values first: an infinite sum of finite values takes the exact test
    monkeypatch.setattr(rng, "_WORKERS", 2)
    if split:
        monkeypatch.setattr(latent, "_SPLIT_FLOOR", 1)
    huge = LatentField(np.full((2, 1, 2, 2), 1.5e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lerp_noise(huge, LatentField(-huge.data), 0.25) == LatentField(np.full((2, 1, 2, 2), 0.75e308))
        assert euler_step(huge, 1.0, 0.5, np.zeros((2, 1, 2, 2))) == huge


class TestDownsampleMask:
    def test_all_ones_preserved(self):
        mask = Mask.ones(Shape(4, 1, 8, 8))
        out = downsample_mask(mask, Shape(2, 1, 4, 4))
        assert_allclose(out.data, 1.0)

    def test_two_by_two_block_mean(self):
        mask = Mask(np.array([1.0, 1.0, 0.0, 0.0]).reshape(1, 1, 2, 2))
        out = downsample_mask(mask, Shape(1, 1, 1, 1))
        assert_allclose(out.data.ravel(), [0.5])

    def test_checkerboard_against_block_oracle(self):
        board = np.indices((8, 8)).sum(axis=0) % 2
        mask = Mask(board.reshape(1, 1, 8, 8).astype(float))
        out = downsample_mask(mask, Shape(1, 1, 4, 4))
        # brute-force 2x2 block means
        oracle = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                oracle[i, j] = board[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean()
        assert_allclose(out.data[0, 0], oracle, atol=1e-12)
        assert_allclose(out.data, 0.5)

    def test_fractional_pooling_stays_in_range(self):
        values = (np.arange(1 * 1 * 6 * 6) % 2).astype(float).reshape(1, 1, 6, 6)
        out = downsample_mask(Mask(values), Shape(1, 1, 4, 4))
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_incompatible_frame_count(self):
        with pytest.raises(ShapeMismatchError):
            downsample_mask(Mask.ones(Shape(2, 1, 4, 4)), Shape(3, 1, 4, 4))

    @pytest.mark.parametrize(
        "source,target",
        [
            ((3, 1, 5, 7), (2, 3, 4)),
            ((6, 1, 9, 10), (4, 6, 4)),
            ((9, 1, 7, 5), (6, 3, 2)),
            ((15, 1, 10, 6), (10, 4, 5)),
        ],
    )
    def test_fractional_ratios_match_the_exact_area_average(self, source, target):
        values = np.random.default_rng(sum(source)).random(source)
        out = downsample_mask(Mask(values), Shape(target[0], 1, target[1], target[2]))
        # each of the three passes rounds its weights, products and sums; 8 ulp
        # bounds that with room, where 4 does not: the 15 -> 10 case reaches 5
        assert_array_max_ulp(out.data, exact_area_pool(values, target), maxulp=8)

    def test_pooling_to_its_own_shape_returns_the_values(self):
        values = np.random.default_rng(3).random((5, 1, 7, 9))
        out = downsample_mask(Mask(values), Shape(5, 3, 7, 9))
        assert out.data.tobytes() == values.tobytes()

    def test_each_axis_pools_in_one_pass(self):
        # one contraction over all three axes, pairing every source cell with every
        # target cell, takes about 5 s on 2 CPUs
        mask = Mask(np.random.default_rng(4).random((4, 1, 128, 128)))
        started = time.perf_counter()
        downsample_mask(mask, Shape(4, 1, 64, 64))
        assert time.perf_counter() - started < 1.0


def test_rel_error_scale():
    a = field_from([2.0], (1, 1, 1, 1))
    b = field_from([1.0], (1, 1, 1, 1))
    assert rel_error(a, b) == pytest.approx(0.5)


@settings(deadline=None, max_examples=100)
@given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e150, 1e150)))
def test_rms_matches_the_plain_formula_where_squares_fit(data):
    assert rms(data) == float(np.sqrt(np.mean(data * data)))


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e308])
def test_rms_stays_finite_where_squares_overflow(scale):
    data = np.array([scale, -scale, 0.5 * scale, 0.0])
    assert rms(data) == pytest.approx(0.75 * scale)


def _edit_with_a_misfit_mask(z, mask):
    config = EditConfig(make_uniform_schedule(2), mask, reuse_interval=1)
    run_edit(constant_field(z), z, ConditionBundle(), ConditionBundle(), z, config)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda z, m: LatentField(np.zeros((2, 0, 8, 8))), "field has an empty axis: (2, 0, 8, 8)"),
        (lambda z, m: hf_transfer(z, z, m, 0.5, 0.5), "hf_transfer: mask (2, 1, 4, 4) does not broadcast"),
        (_edit_with_a_misfit_mask, "run_edit: mask (2, 1, 4, 4) does not broadcast"),
        (lambda z, m: downsample_mask(m, Shape(2, 1, 8, 8)), "cannot pool 4 cells up to 8"),
    ],
)
def test_shape_checks_name_their_cause(call, message):
    z = random_field(3, (2, 1, 8, 8))
    with pytest.raises(ShapeMismatchError) as info:
        call(z, Mask.ones(Shape(2, 1, 4, 4)))
    assert message in str(info.value)
