from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from rcflow.edit import consistency_residual
from rcflow.engine import ConditionBundle, generate, make_uniform_schedule, sample_noise
from rcflow.errors import NumericError
from rcflow.fields import (
    STRUCTURAL_WEIGHT,
    MixtureDataset,
    ToyScene,
    constant_field,
    mixture_field,
    point_field,
    render_target,
    scene_mixture_field,
)
from rcflow.latent import LatentField, Shape, rel_error
from rcflow.stackio import read_stack

from reference import direct_posterior_mean, oracle_posterior_mean

DATA_DIR = Path(__file__).parent / "data"
SHAPE = Shape(2, 1, 16, 16)
AGNOSTIC = (5.0, 3.0, 0.5)


def bundle(illum, agnostic=AGNOSTIC, **kwargs):
    return ConditionBundle(illum_params=illum, agnostic_params=agnostic, **kwargs)


def small_field(values):
    return LatentField(np.array(values, dtype=float).reshape(1, 1, 1, len(values)))


class TestRenderTarget:
    def test_neutral_illumination_exposes_structure(self):
        scene = ToyScene(SHAPE)
        c = bundle((1.0, 0.0, 0.0, 0.0))
        render = render_target(scene, c)
        fg = scene.true_mask(AGNOSTIC).data.astype(bool)  # channels=1: same shape
        structure = scene.structure(AGNOSTIC)
        assert_allclose(render.data[fg], structure[fg])
        assert_allclose(render.data[~fg], 0.0)

    def test_gain_doubles_foreground_only(self):
        scene = ToyScene(SHAPE)
        low = render_target(scene, bundle((1.0, 0.0, 0.0, 0.3)))
        high = render_target(scene, bundle((2.0, 0.0, 0.0, 0.3)))
        fg = scene.true_mask(AGNOSTIC).data.astype(bool)
        assert_allclose(high.data[fg], 2.0 * low.data[fg])
        assert_array_equal(high.data[~fg], low.data[~fg])

    def test_identical_bundles_render_identically(self):
        scene = ToyScene(SHAPE)
        a = render_target(scene, bundle((1.5, 0.2, 0.7, 0.4)))
        b = render_target(scene, bundle((1.5, 0.2, 0.7, 0.4)))
        assert a.data.tobytes() == b.data.tobytes()

    def test_common_zero_gain_region_untouched(self):
        # gain + tilt * ramp vanishes on the same line for proportional pairs
        scene = ToyScene(SHAPE)
        a = render_target(scene, bundle((0.5, 0.5, 0.0, 0.3)))
        b = render_target(scene, bundle((1.0, 1.0, 0.0, 0.3)))
        gain_a = scene.gain_field((0.5, 0.5, 0.0, 0.3))
        gain_b = scene.gain_field((1.0, 1.0, 0.0, 0.3))
        zero = (np.abs(gain_a) < 1e-12) & (np.abs(gain_b) < 1e-12)
        assert zero.any()
        fg = scene.true_mask(AGNOSTIC).data.astype(bool)
        region = fg & zero[None, None, :, :]
        assert_allclose(a.data[np.broadcast_to(region, a.data.shape)],
                        b.data[np.broadcast_to(region, b.data.shape)], atol=1e-12)

    def test_golden_render_regression(self):
        scene = ToyScene(SHAPE)
        render = render_target(scene, bundle((1.0, 0.0, 0.0, 0.2)))
        golden = read_stack(DATA_DIR / "golden_render.fps")
        assert rel_error(render, golden) <= 1e-6

    def test_arity_mismatch_rejected(self):
        scene = ToyScene(SHAPE)
        with pytest.raises(ValueError, match="arity"):
            render_target(scene, ConditionBundle(illum_params=(1.0,), agnostic_params=AGNOSTIC))
        with pytest.raises(ValueError, match="arity"):
            render_target(scene, ConditionBundle(illum_params=(1.0, 0.0, 0.0, 0.2), agnostic_params=(1.0,)))

    def test_reference_frame_overrides_frame_zero(self):
        scene = ToyScene(SHAPE)
        ref = LatentField(np.full((1, 1, 16, 16), 9.0))
        plain = render_target(scene, bundle((1.0, 0.0, 0.0, 0.2)))
        anchored = render_target(scene, bundle((1.0, 0.0, 0.0, 0.2), reference_frame=ref))
        assert_allclose(anchored.data[0], 9.0)
        assert_array_equal(anchored.data[1:], plain.data[1:])

    def test_structural_prior_is_low_weight_additive(self):
        scene = ToyScene(SHAPE)
        structural = sample_noise(31, SHAPE)
        plain = render_target(scene, bundle((1.0, 0.0, 0.0, 0.2)))
        guided = render_target(scene, bundle((1.0, 0.0, 0.0, 0.2), structural=structural))
        mask = scene.true_mask(AGNOSTIC).data
        gain = scene.gain_field((1.0, 0.0, 0.0, 0.2))
        expected = plain.data + mask * (STRUCTURAL_WEIGHT * structural.data * gain)
        assert_allclose(guided.data, expected, atol=1e-12)

    def test_mask_values_are_binary(self):
        scene = ToyScene(SHAPE)
        mask = scene.true_mask(AGNOSTIC)
        assert set(np.unique(mask.data)) <= {0.0, 1.0}
        assert 0.05 < mask.data.mean() < 0.95


class TestConstantField:
    def test_ignores_everything(self):
        k = sample_noise(1, SHAPE)
        field = constant_field(k)
        z = sample_noise(2, SHAPE)
        out = field.evaluate(z, 0.5, bundle((1.0, 0.0, 0.0, 0.2)))
        assert out is k

    def test_generate_telescopes(self):
        k = sample_noise(3, SHAPE)
        eps = sample_noise(4, SHAPE)
        out, _ = generate(constant_field(k), bundle((1.0, 0.0, 0.0, 0.2)), eps, make_uniform_schedule(9))
        assert_allclose(out.data, eps.data + k.data, atol=1e-12)

    def test_consistency_residual_closed_form(self):
        z0 = sample_noise(5, SHAPE)
        eps = sample_noise(6, SHAPE)
        k = sample_noise(7, SHAPE)
        res = consistency_residual(constant_field(k), z0, eps, 0.4, bundle((1.0, 0.0, 0.0, 0.2)))
        assert_allclose(res.data, (z0.data - eps.data) - k.data, atol=1e-12)


class TestPointField:
    def test_fixed_point_has_zero_velocity(self):
        scene = ToyScene(SHAPE)
        c = bundle((1.3, 0.1, 0.4, 0.5))
        x = render_target(scene, c)
        v = point_field(scene).evaluate(x, 0.37, c)
        assert_allclose(v.data, 0.0, atol=1e-12)

    def test_velocity_at_noise_endpoint(self):
        scene = ToyScene(SHAPE)
        c = bundle((1.0, 0.0, 0.0, 0.2))
        eps = sample_noise(8, SHAPE)
        v = point_field(scene).evaluate(eps, 1.0, c)
        x = render_target(scene, c)
        assert_allclose(v.data, x.data - eps.data, atol=1e-12)

    def test_exact_under_nonuniform_schedule(self):
        from rcflow.engine import Schedule

        scene = ToyScene(SHAPE)
        c = bundle((1.7, 0.2, 1.1, 0.3))
        eps = sample_noise(9, SHAPE)
        sched = Schedule([0.0, 0.03, 0.2, 0.45, 0.5, 0.81, 0.93, 1.0])
        out, _ = generate(point_field(scene), c, eps, sched)
        x = render_target(scene, c)
        assert rel_error(out, x) <= 1e-6

    def test_undefined_at_zero_time(self):
        scene = ToyScene(SHAPE)
        with pytest.raises(ValueError):
            point_field(scene).evaluate(sample_noise(10, SHAPE), 0.0, bundle((1.0, 0.0, 0.0, 0.2)))


def three_component_dataset(seed=20, shape=Shape(1, 1, 4, 4)):
    return MixtureDataset(
        (
            (0.5, sample_noise(seed, shape)),
            (0.3, sample_noise(seed + 1, shape)),
            (0.2, sample_noise(seed + 2, shape)),
        )
    )


class TestMixtureField:
    def test_single_component_matches_point_behavior(self):
        x = sample_noise(11, SHAPE)
        data = MixtureDataset(((1.0, x),))
        # one component is viewed, not copied
        assert np.shares_memory(data.points, x.data)
        z = sample_noise(12, SHAPE)
        v = mixture_field(data).evaluate(z, 0.6, bundle((1.0, 0.0, 0.0, 0.2)))
        assert_allclose(v.data, (x.data - z.data) / 0.6, atol=1e-12)

    def test_symmetric_pair_cancels_at_origin(self):
        x = sample_noise(13, SHAPE)
        data = MixtureDataset(((0.5, x), (0.5, LatentField(-x.data))))
        z = LatentField.zeros(SHAPE)
        v = mixture_field(data).evaluate(z, 1.0, bundle((1.0, 0.0, 0.0, 0.2)))
        assert_allclose(v.data, 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_matches_extended_precision_oracle(self, seed):
        data = three_component_dataset()
        z = sample_noise(seed, Shape(1, 1, 4, 4))
        t = 0.5
        oracle = oracle_posterior_mean(z, t, data)
        v = mixture_field(data).evaluate(z, t, bundle((1.0, 0.0, 0.0, 0.2)))
        mean = LatentField(z.data + t * v.data)
        assert rel_error(mean, oracle) <= 1e-10

    def test_weight_shift_invariance(self):
        # stable (shifted) weights equal the literal normalized weights at
        # moderate magnitudes where nothing underflows
        data = three_component_dataset()
        z = sample_noise(24, Shape(1, 1, 4, 4))
        t = 0.7
        flat = data.points.reshape(3, -1)
        diff = flat * (1.0 - t) - z.data.reshape(-1)
        d2 = np.sum(diff * diff, axis=1)
        literal = data.weights * np.exp(-d2 / (2 * t * t))
        literal /= literal.sum()
        exponents = np.log(data.weights) - d2 / (2 * t * t)
        shifted = np.exp(exponents - exponents.max())
        shifted /= shifted.sum()
        assert_allclose(shifted, literal, rtol=1e-12)

    def test_underflow_falls_back_to_nearest_component(self):
        near = LatentField.zeros(Shape(1, 1, 4, 4))
        far = LatentField.full(Shape(1, 1, 4, 4), 1e6)
        data = MixtureDataset(((0.5, near), (0.5, far)))
        z = LatentField.full(Shape(1, 1, 4, 4), 1e-4)
        # t tiny: exponents astronomically negative; stable path still picks
        # the closest target, so velocity points at `near`
        v = mixture_field(data).evaluate(z, 1e-8, bundle((1.0, 0.0, 0.0, 0.2)))
        assert_allclose(v.data, (near.data - z.data) / 1e-8, rtol=1e-9)

    def test_fallback_ranks_distances_that_overflow(self):
        # both distances overflow; the stack and latent scaled by one power of two still rank them
        shape = Shape(1, 1, 4, 4)
        data = MixtureDataset(((0.5, LatentField.zeros(shape)), (0.5, LatentField.full(shape, 1e300))))
        z = LatentField.full(shape, 1e300)
        v = mixture_field(data).evaluate(z, 0.5, bundle((1.0, 0.0, 0.0, 0.2)))
        expected = (direct_posterior_mean(z, 0.5, data).data - z.data) / 0.5
        assert_array_equal(v.data, expected)
        assert_array_equal(v.data, 0.0)

    def test_oracle_underflow_raises(self):
        near = LatentField.zeros(Shape(1, 1, 4, 4))
        data = MixtureDataset(((1.0, near),))
        z = LatentField.full(Shape(1, 1, 4, 4), 1e6)
        with pytest.raises(NumericError):
            oracle_posterior_mean(z, 1e-8, data)

    def test_points_stacked_once_and_shared(self):
        data = three_component_dataset()
        assert data.points is data.points
        assert not data.points.flags.writeable
        assert not data.weights.flags.writeable
        assert_allclose(data.weights, [0.5, 0.3, 0.2], rtol=1e-15)
        # the (weight, field) pairs it was built from are not kept
        assert not hasattr(data, "components")

    def test_weights_validated(self):
        x = sample_noise(25, SHAPE)
        with pytest.raises(ValueError):
            MixtureDataset(((-0.5, x), (1.5, x)))
        with pytest.raises(ValueError):
            MixtureDataset(())

    def test_huge_weights_normalize(self):
        # their sum overflows; they are normalized relative to the largest
        x = sample_noise(26, SHAPE)
        data = MixtureDataset(((1.7e308, x), (1.7e308, x), (0.85e308, x)))
        assert_array_equal(data.weights, [0.4, 0.4, 0.2])

    def test_center_and_centered_norms(self):
        data = three_component_dataset()
        flat = data.points.reshape(3, -1)
        assert_allclose(data.center, flat.mean(axis=0), rtol=1e-15)
        assert_allclose(data.centered_sq_norms, np.sum((flat - data.center) ** 2, axis=1), rtol=1e-14)
        assert not data.center.flags.writeable
        assert not data.centered_sq_norms.flags.writeable

    def test_bits_do_not_depend_on_latent_alignment(self):
        # a latent viewed at any float offset inside a larger buffer gives the same bits
        data = three_component_dataset(shape=Shape(2, 3, 8, 8))
        field = mixture_field(data)
        z = sample_noise(33, Shape(2, 3, 8, 8)).data
        c = bundle((1.0, 0.0, 0.0, 0.2))
        expected = field.evaluate(LatentField(z), 0.3, c).data.tobytes()
        for offset in range(8):
            buffer = np.zeros(z.size + 8)
            buffer[offset : offset + z.size] = z.reshape(-1)
            shifted = LatentField(buffer[offset : offset + z.size].reshape(z.shape))
            assert np.shares_memory(shifted.data, buffer)
            assert field.evaluate(shifted, 0.3, c).data.tobytes() == expected


@st.composite
def near_tie_cases(draw):
    """(dataset, z, t): up to 8 components near-tied around z, offset by up to 1e6.

    z = (1-t) o and p_k = o + (t / (1-t)) r_k with |r_k| = O(1), so every
    exponent is -|r_k|^2 / 2 plus the log weight: the posterior is spread
    over the components however small t is, and rides on an offset o
    that dwarfs their gaps.
    """
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, 16))
    t = 10.0 ** draw(st.floats(-3.0, -0.01))
    offset = draw(hnp.arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))
    gaps = draw(hnp.arrays(np.float64, (k, n), elements=st.floats(-2.0, 2.0)))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    points = offset + (t / (1.0 - t)) * gaps
    members = tuple((w, LatentField(p.reshape(1, 1, 1, n))) for w, p in zip(weights, points))
    z = LatentField(((1.0 - t) * offset).reshape(1, 1, 1, n))
    return MixtureDataset(members), z, t


@settings(deadline=None, max_examples=200)
@given(near_tie_cases())
def test_posterior_mean_matches_direct_distances(case):
    data, z, t = case
    reference = direct_posterior_mean(z, t, data).data
    v = mixture_field(data).evaluate(z, t, bundle((1.0, 0.0, 0.0, 0.2))).data
    bound = 1e-12 * (1.0 + np.max(np.abs(reference)))
    assert np.max(np.abs(t * v - (reference - z.data))) <= bound


class TestSceneMixtureField:
    def test_condition_changes_the_flow(self):
        scene = ToyScene(SHAPE)
        field = scene_mixture_field(scene, components=3, spread=0.25, seed=1)
        z = sample_noise(26, SHAPE)
        v_src = field.evaluate(z, 0.9, bundle((1.0, 0.0, 0.0, 0.2)))
        v_tar = field.evaluate(z, 0.9, bundle((2.0, 0.3, 0.8, 0.6)))
        assert not np.array_equal(v_src.data, v_tar.data)

    def test_reentrant_evaluation_is_stable(self):
        scene = ToyScene(SHAPE)
        field = scene_mixture_field(scene, components=2, spread=0.25, seed=1)
        z = sample_noise(27, SHAPE)
        c = bundle((1.0, 0.0, 0.0, 0.2))
        first = field.evaluate(z, 0.5, c)
        second = field.evaluate(z, 0.5, c)
        assert first.data.tobytes() == second.data.tobytes()

    def test_single_component_reduces_to_point_field(self):
        scene = ToyScene(SHAPE)
        field = scene_mixture_field(scene, components=1, spread=0.0, seed=1)
        c = bundle((1.0, 0.0, 0.0, 0.2))
        z = sample_noise(28, SHAPE)
        expected = point_field(scene).evaluate(z, 0.8, c)
        assert_allclose(field.evaluate(z, 0.8, c).data, expected.data, atol=1e-12)


def test_oracle_single_component_returns_it():
    x = sample_noise(29, SHAPE)
    data = MixtureDataset(((1.0, x),))
    z = sample_noise(30, SHAPE)
    assert_allclose(oracle_posterior_mean(z, 0.5, data).data, x.data, atol=1e-15)


def test_oracle_symmetric_pair_midpoint():
    x = sample_noise(32, SHAPE)
    data = MixtureDataset(((0.5, x), (0.5, LatentField(-x.data))))
    z = LatentField.zeros(SHAPE)
    assert_allclose(oracle_posterior_mean(z, 1.0, data).data, 0.0, atol=1e-15)
