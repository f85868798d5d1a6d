import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rcflow.edit import EditConfig, consistency_residual, run_edit
from rcflow.engine import (
    ConditionBundle,
    VelocityField,
    generate,
    make_uniform_schedule,
    sample_noise,
)
from rcflow.errors import ShapeMismatchError
from rcflow.fields import ToyScene, constant_field, point_field, render_target, scene_mixture_field
from rcflow.latent import LatentField, Mask, Shape, hf_transfer, lerp_noise, rel_error

SHAPE = Shape(2, 1, 16, 16)
SRC = ConditionBundle(illum_params=(1.0, 0.0, 0.0, 0.2), agnostic_params=(5.0, 3.0, 0.5))
TAR = ConditionBundle(illum_params=(2.0, 0.3, 0.8, 0.6), agnostic_params=(5.0, 3.0, 0.5))


class SwitchField(VelocityField):
    """Constant `a` under the source bundle, constant `b` otherwise."""

    def __init__(self, src, a, b):
        self.src = src
        self.a = a
        self.b = b

    def evaluate(self, z, t, c):
        return self.a if c == self.src else self.b


class TimeRampField(VelocityField):
    """v = k * t; residual then varies linearly in t, exposing reuse staleness."""

    def __init__(self, k):
        self.k = k

    def evaluate(self, z, t, c):
        return LatentField(t * self.k.data)


class CountingField(VelocityField):
    """Delegates to `inner` and records the condition of every evaluation."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def evaluate(self, z, t, c):
        self.calls.append(c)
        return self.inner.evaluate(z, t, c)


def restoration_velocity(z0, eps):
    """z0 - eps as consistency_residual forms it: the residual under a zero source prediction."""
    return consistency_residual(constant_field(LatentField.zeros(z0.shape)), z0, eps, 0.5, SRC)


class TestRestorationVelocity:
    def test_coincident_endpoints_give_zero(self):
        z = sample_noise(1, SHAPE)
        assert_array_equal(restoration_velocity(z, z).data, np.zeros(SHAPE.as_tuple()))

    def test_forced_by_formula(self):
        z0 = LatentField(np.array([1.0, 2.0]).reshape(1, 1, 1, 2))
        eps = LatentField.zeros(Shape(1, 1, 1, 2))
        assert_allclose(restoration_velocity(z0, eps).data.ravel(), [1.0, 2.0])

    def test_integrating_it_recovers_the_input(self):
        z0 = sample_noise(2, SHAPE)
        eps = sample_noise(3, SHAPE)
        v0 = restoration_velocity(z0, eps)
        out, _ = generate(constant_field(v0), SRC, eps, make_uniform_schedule(23))
        assert_allclose(out.data, z0.data, atol=1e-12)


class TestConsistencyResidual:
    def test_constant_field_unit_case(self):
        one = LatentField.full(Shape(1, 1, 1, 1), 1.0)
        z0 = LatentField.full(Shape(1, 1, 1, 1), 1.0)
        eps = LatentField.zeros(Shape(1, 1, 1, 1))
        res = consistency_residual(constant_field(one), z0, eps, 0.5, SRC)
        assert_allclose(res.data.ravel(), [0.0])

    def test_constant_zero_field(self):
        zero = LatentField.zeros(Shape(1, 1, 1, 1))
        z0 = LatentField.full(Shape(1, 1, 1, 1), 3.0)
        eps = LatentField.full(Shape(1, 1, 1, 1), 1.0)
        res = consistency_residual(constant_field(zero), z0, eps, 0.25, SRC)
        assert_allclose(res.data.ravel(), [2.0])

    def test_perfect_model_has_zero_residual(self):
        z0 = sample_noise(4, SHAPE)
        eps = sample_noise(5, SHAPE)
        oracle = constant_field(LatentField(z0.data - eps.data))
        for t in (1.0, 0.6, 0.31, 0.02):
            res = consistency_residual(oracle, z0, eps, t, SRC)
            assert_allclose(res.data, 0.0, atol=1e-15)

    def test_counts_one_evaluation(self):
        z0 = sample_noise(6, SHAPE)
        field = CountingField(constant_field(z0))
        consistency_residual(field, z0, z0, 0.5, SRC)
        assert field.calls == [SRC]

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.5])
    def test_t_domain(self, t):
        z = sample_noise(7, SHAPE)
        with pytest.raises(ValueError):
            consistency_residual(constant_field(z), z, z, t, SRC)


def residual_corrected_velocity(v_tar, v_res, mask):
    """The velocity run_edit steps along, read off one unit step from eps = 0.

    The source prediction is zero and eps = 0, so the residual is z0 = v_res,
    and the step 0 + 1.0 * v returns v_tar + mask * v_res unchanged.
    """
    zero = LatentField.zeros(v_tar.shape)
    config = EditConfig(make_uniform_schedule(1), mask, reuse_interval=1, hf_lambda=0.0)
    return run_edit(SwitchField(SRC, zero, v_tar), v_res, SRC, TAR, zero, config).output


class TestResidualCorrectedVelocity:
    def test_zero_mask_collapses_to_target(self):
        v_tar = sample_noise(8, SHAPE)
        v_res = sample_noise(9, SHAPE)
        out = residual_corrected_velocity(v_tar, v_res, Mask.zeros(SHAPE))
        assert out.data.tobytes() == v_tar.data.tobytes()

    def test_full_mask_zero_residual(self):
        v_tar = sample_noise(10, SHAPE)
        out = residual_corrected_velocity(v_tar, LatentField.zeros(SHAPE), Mask.ones(SHAPE))
        assert_array_equal(out.data, v_tar.data)

    def test_arithmetic(self):
        v_tar = LatentField.full(Shape(1, 1, 1, 1), 1.0)
        v_res = LatentField.full(Shape(1, 1, 1, 1), 2.0)
        mask = Mask(np.full((1, 1, 1, 1), 0.5))
        assert_allclose(residual_corrected_velocity(v_tar, v_res, mask).data.ravel(), [2.0])


def edit_config(steps=50, r=1, lam=0.5, rho=0.8, mask=None):
    return EditConfig(
        schedule=make_uniform_schedule(steps),
        mask=mask if mask is not None else Mask.ones(SHAPE),
        reuse_interval=r,
        hf_lambda=lam,
        hf_rho=rho,
    )


class TestRunEdit:
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_identity_stability(self, lam):
        scene = ToyScene(SHAPE)
        z0 = render_target(scene, SRC)
        eps = sample_noise(11, SHAPE)
        report = run_edit(point_field(scene), z0, SRC, SRC, eps, edit_config(lam=lam))
        assert rel_error(report.output, z0) <= 1e-5

    def test_zero_mask_collapses_to_generation(self):
        scene = ToyScene(SHAPE)
        field = scene_mixture_field(scene, components=3, spread=0.25, seed=1)
        z0 = render_target(scene, SRC)
        eps = sample_noise(12, SHAPE)
        report = run_edit(
            field, z0, SRC, TAR, eps, edit_config(steps=20, r=1, lam=0.0, mask=Mask.zeros(SHAPE))
        )
        plain, _ = generate(field, TAR, eps, make_uniform_schedule(20))
        assert report.output.data.tobytes() == plain.data.tobytes()

    def test_switch_field_closed_form(self):
        a = sample_noise(13, SHAPE)
        b = sample_noise(14, SHAPE)
        z0 = sample_noise(15, SHAPE)
        eps = sample_noise(16, SHAPE)
        field = SwitchField(SRC, a, b)
        report = run_edit(field, z0, SRC, TAR, eps, edit_config(steps=25, r=1, lam=0.0))
        expected = z0.data + (b.data - a.data)
        assert np.max(np.abs(report.output.data - expected)) <= 1e-12 * (1 + np.max(np.abs(expected)))

    @pytest.mark.parametrize(
        "steps,r", [(50, 1), (50, 2), (50, 5), (50, 10), (50, 7), (13, 3), (7, 7), (1, 1)]
    )
    def test_nfe_law(self, steps, r):
        z0 = sample_noise(17, SHAPE)
        eps = sample_noise(18, SHAPE)
        field = constant_field(sample_noise(19, SHAPE))
        report = run_edit(field, z0, SRC, TAR, eps, edit_config(steps=steps, r=r))
        assert report.nfe - steps == math.ceil(steps / r)
        assert len(report.per_step_residual_norm) == steps

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("mask_kind", ["full", "fractional"])
    def test_matches_independent_reference_loop(self, r, mask_kind):
        # independent loop with its own cached residual, refreshed on the
        # same steps; every step's latent and residual norm must agree bit
        # for bit (the mixture collapses onto a component at small t, so the
        # output alone hides most of the trajectory)
        scene = ToyScene(SHAPE)
        field = scene_mixture_field(scene, components=3, spread=0.25, seed=1)
        z0 = render_target(scene, SRC)
        eps = sample_noise(20, SHAPE)
        if mask_kind == "full":
            mask = Mask.ones(SHAPE)
        else:
            mask = Mask(np.linspace(0.0, 1.0, SHAPE.count).reshape(2, 1, 16, 16))
        config = edit_config(steps=20, r=r, mask=mask)
        seen = []
        report = run_edit(field, z0, SRC, TAR, eps, config, lambda t, z: seen.append(z.data.tobytes()))

        knots = config.schedule.knots
        z = eps
        expected = [z.data.tobytes()]
        norms = []
        for i in range(20, 0, -1):
            t_hi, t_lo = knots[i], knots[i - 1]
            if (20 - i) % r == 0:
                v_src = field.evaluate(lerp_noise(z0, eps, t_hi), t_hi, SRC)
                res = (z0.data - eps.data) - v_src.data
            norms.append(float(np.sqrt(np.mean(res * res))))
            v_tar = field.evaluate(z, t_hi, TAR)
            v = v_tar.data + mask.data * res
            z = LatentField(z.data + (t_hi - t_lo) * v)
            z = hf_transfer(z, lerp_noise(z0, eps, t_lo), mask, 0.5, 0.8)
            expected.append(z.data.tobytes())
        assert seen == expected
        assert report.output.data.tobytes() == z.data.tobytes()
        assert report.per_step_residual_norm == norms

    def test_time_ramp_reuse_gap_closed_form(self):
        # with v = k*t under both conditions, the cached residual lags by
        # k*(t_i - t_last) and the final gap telescopes to
        # k * sum_i dt * (t_i - t_last(i)) = -k * (1/N^2) * sum_blocks sum_j j
        k = sample_noise(21, SHAPE)
        z0 = sample_noise(22, SHAPE)
        eps = sample_noise(23, SHAPE)
        field = TimeRampField(k)
        steps, r = 50, 10
        report = run_edit(field, z0, SRC, TAR, eps, edit_config(steps=steps, r=r, lam=0.0))
        blocks = steps // r
        lag = sum(range(r)) * blocks / steps**2
        expected = z0.data - lag * k.data
        assert_allclose(report.output.data, expected, atol=1e-10)

    def test_reuse_residual_norms_repeat_within_block(self):
        scene = ToyScene(SHAPE)
        field = scene_mixture_field(scene, components=3, spread=0.25, seed=1)
        z0 = render_target(scene, SRC)
        eps = sample_noise(24, SHAPE)
        report = run_edit(field, z0, SRC, TAR, eps, edit_config(steps=20, r=5))
        norms = report.per_step_residual_norm
        for block in range(4):
            segment = norms[5 * block : 5 * block + 5]
            assert len(set(segment)) == 1

    def test_trace_accounting_split(self):
        z0 = sample_noise(25, SHAPE)
        eps = sample_noise(26, SHAPE)
        field = CountingField(constant_field(sample_noise(27, SHAPE)))
        report = run_edit(field, z0, SRC, TAR, eps, edit_config(steps=20, r=4))
        assert field.calls.count(TAR) == 20
        assert field.calls.count(SRC) == 5
        assert report.nfe == len(field.calls)

    def test_shape_mismatch_rejected(self):
        z0 = sample_noise(28, SHAPE)
        eps = sample_noise(29, Shape(2, 1, 16, 8))
        field = constant_field(z0)
        with pytest.raises(ShapeMismatchError):
            run_edit(field, z0, SRC, TAR, eps, edit_config())

    def test_reuse_interval_validation(self):
        with pytest.raises(ValueError):
            edit_config(steps=10, r=11)
        with pytest.raises(ValueError):
            edit_config(steps=10, r=0)

    @pytest.mark.parametrize("lam,calls", [(0.0, 0), (0.5, 10)])
    def test_detail_transfer_runs_iff_lambda_positive(self, monkeypatch, lam, calls):
        scene = ToyScene(SHAPE)
        z0 = render_target(scene, SRC)
        eps = sample_noise(30, SHAPE)
        seen = []

        def counting_hf_transfer(*args):
            seen.append(args)
            return hf_transfer(*args)

        monkeypatch.setattr("rcflow.edit.hf_transfer", counting_hf_transfer)
        run_edit(point_field(scene), z0, SRC, TAR, eps, edit_config(steps=10, lam=lam))
        assert len(seen) == calls

    def test_directional_change_at_argument_level(self):
        # changing only the illumination params moves the output; changing
        # nothing reproduces it bit for bit
        scene = ToyScene(SHAPE)
        field = scene_mixture_field(scene, components=3, spread=0.25, seed=1)
        z0 = render_target(scene, SRC)
        eps = sample_noise(31, SHAPE)
        mask = scene.true_mask(SRC.agnostic_params)
        base = run_edit(field, z0, SRC, TAR, eps, edit_config(steps=20, mask=mask))
        again = run_edit(field, z0, SRC, TAR, eps, edit_config(steps=20, mask=mask))
        shifted_tar = ConditionBundle(
            illum_params=(1.4, 0.1, 0.2, 0.9), agnostic_params=TAR.agnostic_params
        )
        moved = run_edit(field, z0, SRC, shifted_tar, eps, edit_config(steps=20, mask=mask))
        assert base.output.data.tobytes() == again.output.data.tobytes()
        assert not np.array_equal(base.output.data, moved.output.data)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_intermediate_names_timestep(self):
        from rcflow.errors import NumericError

        # residual (1.5e308) plus target velocity (0.9e308) is finite only
        # until combined; the blow-up happens in the step, not in the field
        z0 = LatentField.full(SHAPE, 1.5e308)
        eps = LatentField.zeros(SHAPE)
        field = SwitchField(SRC, LatentField.zeros(SHAPE), LatentField.full(SHAPE, 0.9e308))
        with pytest.raises(NumericError, match="stepping to t=0.75"):
            run_edit(field, z0, SRC, TAR, eps, edit_config(steps=4, lam=0.0))
