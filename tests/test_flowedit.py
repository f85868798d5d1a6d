import time
import tracemalloc

import numpy as np
import pytest

import rcflow.rng as rng
from rcflow.edit import EditConfig, run_edit
from rcflow.engine import (
    ConditionBundle,
    VelocityField,
    make_uniform_schedule,
    sample_noise,
)
from rcflow.errors import NumericError
from rcflow.fields import (
    MixtureDataset,
    ToyScene,
    constant_field,
    mixture_field,
    point_field,
    render_target,
    scene_mixture_field,
)
from rcflow.flowedit import FlowEditConfig, NoiseMode, equivalence_check, flowedit_run
from rcflow.latent import LatentField, Mask, Shape, rel_error

from reference import CountingField, eager_fresh_flowedit

SHAPE = Shape(2, 1, 16, 16)
SRC = ConditionBundle(illum_params=(1.0, 0.0, 0.0, 0.2), agnostic_params=(5.0, 3.0, 0.5))
TAR = ConditionBundle(illum_params=(2.0, 0.3, 0.8, 0.6), agnostic_params=(5.0, 3.0, 0.5))


def scene_setup(spread=0.25):
    scene = ToyScene(SHAPE)
    field = scene_mixture_field(scene, components=3, spread=spread, seed=1)
    z0 = render_target(scene, SRC)
    return scene, field, z0


class DatasetSwitchField(VelocityField):
    """Unrelated mixtures per condition; noise does not cancel between them."""

    def __init__(self, src_bundle, src_data, tar_data):
        self.src_bundle = src_bundle
        self.src_flow = mixture_field(src_data)
        self.tar_flow = mixture_field(tar_data)

    def evaluate(self, z, t, c):
        flow = self.src_flow if c == self.src_bundle else self.tar_flow
        return flow.evaluate(z, t, c)


def independent_dataset(seed, count=3, shape=SHAPE):
    return MixtureDataset(tuple((1.0, sample_noise(seed + j, shape)) for j in range(count)))


def fresh(steps, n_avg, seed=5):
    return FlowEditConfig(make_uniform_schedule(steps), NoiseMode.FRESH_PER_STEP, n_avg, seed)


class TestFlowEditRun:
    def test_identical_conditions_fixed_noise_returns_input(self):
        _, field, z0 = scene_setup()
        config = FlowEditConfig(schedule=make_uniform_schedule(20), seed=5)
        out, _ = flowedit_run(field, z0, SRC, SRC, config)
        assert np.array_equal(out.data, z0.data)

    def test_fixed_noise_nfe(self):
        _, field, z0 = scene_setup()
        counting = CountingField(field)
        config = FlowEditConfig(schedule=make_uniform_schedule(50), seed=5)
        _, nfe = flowedit_run(counting, z0, SRC, TAR, config)
        assert nfe == len(counting.calls) == 100

    @pytest.mark.parametrize("n_avg,expected", [(1, 100), (2, 200)])
    def test_fresh_noise_nfe(self, n_avg, expected):
        _, field, z0 = scene_setup()
        config = FlowEditConfig(
            schedule=make_uniform_schedule(50),
            noise_mode=NoiseMode.FRESH_PER_STEP,
            n_avg=n_avg,
            seed=5,
        )
        counting = CountingField(field)
        _, nfe = flowedit_run(counting, z0, SRC, TAR, config)
        assert nfe == len(counting.calls) == expected
        assert counting.calls.count(SRC) == counting.calls.count(TAR) == expected // 2

    def test_fixed_mode_requires_single_draw(self):
        with pytest.raises(ValueError):
            FlowEditConfig(schedule=make_uniform_schedule(10), n_avg=2)

    def test_deterministic(self):
        _, field, z0 = scene_setup()
        config = FlowEditConfig(
            schedule=make_uniform_schedule(10),
            noise_mode=NoiseMode.FRESH_PER_STEP,
            n_avg=2,
            seed=9,
        )
        a, _ = flowedit_run(field, z0, SRC, TAR, config)
        b, _ = flowedit_run(field, z0, SRC, TAR, config)
        assert a.data.tobytes() == b.data.tobytes()

    def test_fresh_mode_differs_from_fixed(self):
        _, field, z0 = scene_setup()
        fixed = FlowEditConfig(schedule=make_uniform_schedule(20), seed=5)
        fresh = FlowEditConfig(
            schedule=make_uniform_schedule(20), noise_mode=NoiseMode.FRESH_PER_STEP, seed=5
        )
        out_fixed, _ = flowedit_run(field, z0, SRC, TAR, fixed)
        out_fresh, _ = flowedit_run(field, z0, SRC, TAR, fresh)
        assert not np.array_equal(out_fixed.data, out_fresh.data)

    def test_non_finite_intermediate_names_timestep(self):
        # velocities stay finite; only the accumulated edit latent overflows
        class TargetOnly(VelocityField):
            def evaluate(self, z, t, c):
                return LatentField.full(z.shape, 0.0 if c == SRC else 1.7e308)

        shape = Shape(1, 1, 2, 2)
        config = FlowEditConfig(schedule=make_uniform_schedule(4))
        with pytest.raises(NumericError, match="stepping to t=0.75"):
            flowedit_run(TargetOnly(), LatentField.full(shape, 1.7e308), SRC, TAR, config)


class TestFreshDrawAhead:
    """Fresh mode queues each draw one key ahead on rng's pool while the field runs."""

    # 12,288 Box-Muller pairs: more than one block, so a draw splits into one chunk per worker
    BIG = Shape(3, 2, 64, 64)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bits_equal_the_eager_reference(self, monkeypatch, workers):
        monkeypatch.setattr(rng, "_WORKERS", workers)
        # unrelated source and target mixtures: the noise does not cancel from the step
        field = DatasetSwitchField(
            SRC, independent_dataset(40, 2, self.BIG), independent_dataset(50, 2, self.BIG)
        )
        z0 = sample_noise(60, self.BIG)
        for steps in (1, 7):
            for n_avg in (1, 2, 3):
                out, _ = flowedit_run(field, z0, SRC, TAR, fresh(steps, n_avg))
                expected = eager_fresh_flowedit(field, z0, SRC, TAR, make_uniform_schedule(steps), n_avg, 5)
                assert out.data.tobytes() == expected.data.tobytes(), (steps, n_avg)

    @pytest.mark.parametrize("n_avg", [1, 2])
    def test_negative_zero_gaps_sum_to_positive_zero(self, n_avg):
        # every gap is -0.0 - 0.0 = -0.0; a sum started from zeros makes it +0.0, and only a
        # +0.0 step moves z0's -0.0 to +0.0
        class SignedZero(VelocityField):
            def evaluate(self, z, t, c):
                return LatentField.full(z.shape, -0.0 if c == TAR else 0.0)

        z0 = LatentField.full(SHAPE, -0.0)
        out, _ = flowedit_run(SignedZero(), z0, SRC, TAR, fresh(2, n_avg))
        expected = eager_fresh_flowedit(SignedZero(), z0, SRC, TAR, make_uniform_schedule(2), n_avg, 5)
        assert out.data.tobytes() == expected.data.tobytes()
        assert not np.signbit(out.data).any()

    @pytest.mark.parametrize("fails_in", ["field", "observer"])
    def test_raises_only_after_the_queued_draw_finished(self, monkeypatch, fails_in):
        monkeypatch.setattr(rng, "_WORKERS", 3)
        fill_pairs = rng._fill_pairs
        finished = []

        def slow_fill_pairs(*args):
            time.sleep(0.05)
            fill_pairs(*args)
            finished.append(args[2])

        monkeypatch.setattr(rng, "_fill_pairs", slow_fill_pairs)
        unfinished_at_failure = []

        def fail():
            unfinished_at_failure.append(9 - len(finished))
            raise NumericError("failed mid-run")

        # 3 steps, 3 draws of 3 chunks each; both fail while draw (1, 0) is queued: the field
        # at step 2 (t = 2/3), the observer after it (t = 1/3)
        class FailsAtStepTwo(VelocityField):
            def evaluate(self, z, t, c):
                if t < 0.9:
                    fail()
                return LatentField.zeros(z.shape)

        def observe(t, z):
            if t < 0.5:
                fail()

        z0 = LatentField.zeros(self.BIG)
        if fails_in == "field":
            field, on_step = FailsAtStepTwo(), None
        else:
            field, on_step = constant_field(z0), observe
        with pytest.raises(NumericError, match="failed mid-run") as failure:
            flowedit_run(field, z0, SRC, TAR, fresh(3, 1), on_step)
        # read while `failure` holds the traceback: it keeps the run's frames alive, so a
        # trajectory left open would not yet have been closed by garbage collection
        assert unfinished_at_failure[0] > 0
        assert len(finished) == 9

    @pytest.mark.parametrize("n_avg,bound", [(1, 7), (2, 8)])
    def test_step_memory_in_stacks(self, n_avg, bound):
        shape = Shape(8, 4, 64, 64)
        scene = ToyScene(shape)
        field = point_field(scene)
        z0 = render_target(scene, SRC)
        config = fresh(5, n_avg)
        flowedit_run(field, z0, SRC, TAR, config)  # builds and caches both conditions' datasets
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            flowedit_run(field, z0, SRC, TAR, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / z0.data.nbytes <= bound


class TestEquivalence:
    def test_constant_fields_deviate_only_by_rounding(self):
        field = constant_field(sample_noise(1, SHAPE))
        z0 = sample_noise(2, SHAPE)
        report = equivalence_check(field, z0, SRC, TAR, make_uniform_schedule(10), 3, 1e-9)
        assert report.passed
        assert report.max_deviation <= 1e-12

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_mixture_fields_pass_at_micro_tolerance(self, seed):
        _, field, z0 = scene_setup()
        report = equivalence_check(field, z0, SRC, TAR, make_uniform_schedule(20), seed, 1e-6)
        assert report.passed

    def test_zero_tolerance_fails_on_rounding(self):
        _, field, z0 = scene_setup()
        report = equivalence_check(field, z0, SRC, TAR, make_uniform_schedule(20), 3, 0.0)
        assert not report.passed
        assert 0.0 < report.max_deviation < 1e-9

    def test_nfe_ratio_against_reuse(self):
        # 2nT for the reference editor vs (1 + 1/r)T with residual reuse
        _, field, z0 = scene_setup()
        fe = FlowEditConfig(
            schedule=make_uniform_schedule(50), noise_mode=NoiseMode.FRESH_PER_STEP, seed=7
        )
        _, fe_nfe = flowedit_run(field, z0, SRC, TAR, fe)
        eps = sample_noise(7, SHAPE)
        report = run_edit(
            field,
            z0,
            SRC,
            TAR,
            eps,
            EditConfig(
                schedule=make_uniform_schedule(50), mask=Mask.ones(SHAPE), reuse_interval=10
            ),
        )
        assert fe_nfe == 100
        assert report.nfe == 55

    def test_fresh_mode_is_not_equivalent(self):
        # needs source/target flows that are not parallel translates of each
        # other, otherwise the per-step noise cancels out of v_tar - v_src
        field = DatasetSwitchField(SRC, independent_dataset(40), independent_dataset(50))
        z0 = sample_noise(60, SHAPE)
        schedule = make_uniform_schedule(20)
        fixed = FlowEditConfig(schedule=schedule, noise_mode=NoiseMode.FIXED, seed=11)
        fresh = FlowEditConfig(
            schedule=schedule, noise_mode=NoiseMode.FRESH_PER_STEP, n_avg=1, seed=11
        )
        fixed_path, fresh_path = [], []
        flowedit_run(field, z0, SRC, TAR, fixed, lambda t, z: fixed_path.append(z))
        flowedit_run(field, z0, SRC, TAR, fresh, lambda t, z: fresh_path.append(z))
        gaps = [rel_error(zf, zx) for zf, zx in zip(fresh_path, fixed_path)]
        assert max(gaps) > 1e-3

    def test_report_lines_are_complete(self):
        field = constant_field(sample_noise(8, SHAPE))
        z0 = sample_noise(9, SHAPE)
        schedule = make_uniform_schedule(5)
        report = equivalence_check(field, z0, SRC, TAR, schedule, 1, 1e-6)
        # equivalence.txt writes one step line per knot: N + 1 for N steps
        assert len(report.timesteps) == len(report.deviations) == 6
        assert sorted(report.timesteps) == schedule.knots.tolist()
        assert report.tol == 1e-6
        assert report.max_deviation == max(report.deviations)


def check_equivalence_within(tol):
    field = constant_field(sample_noise(8, SHAPE))
    return equivalence_check(field, sample_noise(9, SHAPE), SRC, TAR, make_uniform_schedule(2), 1, tol)


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda: FlowEditConfig(make_uniform_schedule(2), NoiseMode.FRESH_PER_STEP, n_avg=0),
            "n_avg must be >= 1, got 0",
        ),
        (lambda: check_equivalence_within(-1e-9), "tol must be >= 0, got -1e-09"),
    ],
)
def test_input_checks_name_their_cause(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert message in str(info.value)
