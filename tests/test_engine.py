import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rcflow.engine import (
    ConditionBundle,
    Schedule,
    VelocityField,
    euler_step,
    generate,
    make_uniform_schedule,
    sample_noise,
)
from rcflow.errors import NumericError, ShapeMismatchError
from rcflow.fields import ToyScene, constant_field, point_field, render_target
from rcflow.latent import LatentField, Shape

from reference import CountingField

SHAPE = Shape(2, 1, 8, 8)
SRC = ConditionBundle(illum_params=(1.0, 0.0, 0.0, 0.2), agnostic_params=(5.0, 3.0, 0.5))


class TestSchedule:
    def test_smallest_grid(self):
        assert make_uniform_schedule(1).knots.tolist() == [0.0, 1.0]

    def test_quarter_grid(self):
        assert make_uniform_schedule(4).knots.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_standard_grid(self):
        sched = make_uniform_schedule(50)
        assert sched.knots.size == 51
        assert sched.knots[0] == 0.0
        assert sched.knots[-1] == 1.0
        assert sched.steps == 50

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            make_uniform_schedule(0)

    @pytest.mark.parametrize(
        "knots",
        [
            [0.1, 1.0],
            [0.0, 0.9],
            [0.0, 0.5, 0.5, 1.0],
            [0.0, 0.7, 0.3, 1.0],
        ],
    )
    def test_bad_knots_rejected(self, knots):
        with pytest.raises(ValueError):
            Schedule(knots)

    def test_arbitrary_monotone_knots_accepted(self):
        sched = Schedule([0.0, 0.05, 0.3, 0.31, 1.0])
        assert sched.steps == 4

    def test_negative_zero_first_knot_is_stored_as_zero(self):
        knots = Schedule([-0.0, 0.5, 1.0]).knots
        assert not np.signbit(knots[0])
        assert knots.tolist() == [0.0, 0.5, 1.0]

    def test_callers_knots_are_copied_and_stay_writable(self):
        knots = np.array([0.0, 0.1, 0.7, 1.0])
        sched = Schedule(knots)
        assert knots.flags.writeable and not sched.knots.flags.writeable
        knots[1] = 0.2
        assert sched.knots.tolist() == [0.0, 0.1, 0.7, 1.0]

    def test_repr_gives_the_step_count(self):
        assert repr(make_uniform_schedule(7)) == "Schedule(steps=7)"


class TestSampleNoise:
    def test_bit_identical_for_same_inputs(self):
        a = sample_noise(11, SHAPE)
        b = sample_noise(11, SHAPE)
        assert a.data.tobytes() == b.data.tobytes()

    def test_different_seeds_differ(self):
        assert sample_noise(1, SHAPE) != sample_noise(2, SHAPE)

    def test_moments(self):
        z = sample_noise(1, Shape(1, 1, 64, 64))
        assert abs(z.data.mean()) < 0.05
        assert abs(z.data.var() - 1.0) < 0.1


class TestEulerStep:
    def test_zero_velocity(self):
        z = sample_noise(3, SHAPE)
        out = euler_step(z, 0.5, 0.25, LatentField.zeros(SHAPE).data)
        assert_array_equal(out.data, z.data)

    def test_forced_by_formula(self):
        z = LatentField(np.zeros((1, 1, 1, 1)))
        v = LatentField(np.full((1, 1, 1, 1), 2.0))
        assert_allclose(euler_step(z, 1.0, 0.9, v.data).data.ravel(), [0.2])

    def test_nonpositive_step_rejected(self):
        z = LatentField.zeros(SHAPE)
        with pytest.raises(ValueError):
            euler_step(z, 0.5, 0.5, z.data)

    def test_telescoping_constant_velocity(self):
        v = sample_noise(4, SHAPE)
        z = sample_noise(5, SHAPE)
        sched = make_uniform_schedule(17)
        current = z
        for i in range(sched.steps, 0, -1):
            current = euler_step(current, sched.knots[i], sched.knots[i - 1], v.data)
        assert_allclose(current.data, z.data + v.data, atol=1e-12)

    @pytest.mark.parametrize("case", ["non-finite", "other shape", "finite"])
    def test_takes_the_step_velocity_as_values(self, case):
        z, v = sample_noise(14, SHAPE), sample_noise(15, SHAPE).data
        if case == "non-finite":
            # no check of its own: the result check sees a bad value through z + dt * v
            for bad in (np.nan, np.inf, -np.inf):
                values = v.copy()
                values[1, 0, 3, 5] = bad
                with pytest.raises(NumericError):
                    euler_step(z, 0.7, 0.3, values)
        elif case == "other shape":
            with pytest.raises(ShapeMismatchError):
                euler_step(z, 0.7, 0.3, v[:, :, :, 1:])
        else:
            assert euler_step(z, 0.7, 0.3, v).data.tobytes() == (z.data + (0.7 - 0.3) * v).tobytes()


class TestGenerate:
    def test_constant_field_telescopes(self):
        k = sample_noise(6, SHAPE)
        eps = sample_noise(7, SHAPE)
        out, nfe = generate(constant_field(k), SRC, eps, make_uniform_schedule(13))
        assert_allclose(out.data, eps.data + k.data, atol=1e-12)
        assert nfe == 13

    def test_point_field_is_exact(self):
        scene = ToyScene(SHAPE)
        target = render_target(scene, SRC)
        eps = sample_noise(8, SHAPE)
        out, nfe = generate(point_field(scene), SRC, eps, make_uniform_schedule(50))
        assert np.max(np.abs(out.data - target.data)) <= 1e-5 * (1.0 + target.max_abs())
        assert nfe == 50

    @pytest.mark.parametrize("steps", [1, 3, 20])
    def test_nfe_equals_step_count(self, steps):
        eps = sample_noise(9, SHAPE)
        field = CountingField(constant_field(eps))
        _, nfe = generate(field, SRC, eps, make_uniform_schedule(steps))
        assert nfe == len(field.calls) == steps

    def test_deterministic_and_condition_stable(self):
        scene = ToyScene(SHAPE)
        eps = sample_noise(10, SHAPE)
        src_twin = ConditionBundle(
            illum_params=(1.0, 0.0, 0.0, 0.2), agnostic_params=(5.0, 3.0, 0.5)
        )
        out1, _ = generate(point_field(scene), SRC, eps, make_uniform_schedule(10))
        out2, _ = generate(point_field(scene), src_twin, eps, make_uniform_schedule(10))
        assert out1.data.tobytes() == out2.data.tobytes()

    def test_bad_field_output_names_timestep(self):
        class WrongShape(VelocityField):
            def evaluate(self, z, t, c):
                return LatentField.zeros(Shape(1, 1, 2, 2))

        eps = sample_noise(12, SHAPE)
        with pytest.raises(ShapeMismatchError, match="t=1"):
            generate(WrongShape(), SRC, eps, make_uniform_schedule(4))

    def test_non_finite_field_output_names_timestep(self):
        class Exploding(VelocityField):
            def evaluate(self, z, t, c):
                return LatentField(np.full(z.data.shape, np.inf))

        eps = sample_noise(13, SHAPE)
        with pytest.raises(NumericError, match="t="):
            generate(Exploding(), SRC, eps, make_uniform_schedule(4))

    def test_non_finite_intermediate_names_timestep(self):
        # velocity stays finite; only the accumulated latent overflows
        eps = LatentField.full(SHAPE, 1.5e308)
        field = constant_field(LatentField.full(SHAPE, 0.9e308))
        with pytest.raises(NumericError, match="stepping to t=0.5"):
            generate(field, SRC, eps, make_uniform_schedule(4))

    def test_overflowing_euler_step_is_a_numeric_error(self):
        # 1e308 + 1e308 overflows; pytest's warnings-as-errors fails the test on a numpy warning
        z = LatentField.full(SHAPE, 1e308)
        with pytest.raises(NumericError):
            euler_step(z, 1.0, 0.0, z.data)

    def test_fields_never_evaluated_at_zero(self):
        requested: list[float] = []

        class Probe(VelocityField):
            def evaluate(self, z, t, c):
                requested.append(t)
                return LatentField.zeros(z.shape)

        eps = sample_noise(15, SHAPE)
        generate(Probe(), SRC, eps, make_uniform_schedule(25))
        assert len(requested) == 25
        assert min(requested) > 0.0


class TestConditionBundle:
    def test_equality_componentwise(self):
        a = ConditionBundle(illum_params=(1.0, 2.0), agnostic_params=(3.0,))
        b = ConditionBundle(illum_params=(1.0, 2.0), agnostic_params=(3.0,))
        assert a == b
        assert a != ConditionBundle(illum_params=(1.0, 2.1), agnostic_params=(3.0,))

    def test_reference_frame_must_be_single_frame(self):
        with pytest.raises(ShapeMismatchError):
            ConditionBundle(reference_frame=LatentField.zeros(Shape(2, 1, 4, 4)))

