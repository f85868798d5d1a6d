import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from rcflow.errors import NumericError, ShapeMismatchError
from rcflow.latent import (
    LatentField,
    Mask,
    Shape,
    downsample_mask,
    freq_decompose,
    hf_transfer,
    lerp_noise,
    rel_error,
    rms,
)
from rcflow.rng import standard_normal


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
    """LF(e) + lambda*M*HF(s) + (1 - lambda*M)*HF(e), straight from freq_decompose."""
    edit_split = freq_decompose(z_edit, rho)
    src_split = freq_decompose(z_src, rho)
    weight = hf_lambda * mask.data
    return edit_split.low.data + weight * src_split.high.data + (1.0 - weight) * edit_split.high.data


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


class TestHfTransferProperties:
    @settings(deadline=None)
    @given(transfer_cases())
    def test_matches_freq_decompose_reference(self, case):
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
