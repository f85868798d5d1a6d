import numpy as np
import pytest

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
    render_target,
    scene_mixture_field,
)
from rcflow.flowedit import FlowEditConfig, NoiseMode, equivalence_check, flowedit_run
from rcflow.latent import LatentField, Mask, Shape, rel_error

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


def independent_dataset(seed, count=3):
    return MixtureDataset(tuple((1.0, sample_noise(seed + j, SHAPE)) for j in range(count)))


class TestFlowEditRun:
    def test_identical_conditions_fixed_noise_returns_input(self):
        _, field, z0 = scene_setup()
        config = FlowEditConfig(schedule=make_uniform_schedule(20), seed=5)
        out, _ = flowedit_run(field, z0, SRC, SRC, config)
        assert np.array_equal(out.data, z0.data)

    def test_fixed_noise_nfe(self):
        _, field, z0 = scene_setup()
        config = FlowEditConfig(schedule=make_uniform_schedule(50), seed=5)
        _, nfe = flowedit_run(field, z0, SRC, TAR, config)
        assert nfe == 100

    @pytest.mark.parametrize("n_avg,expected", [(1, 100), (2, 200)])
    def test_fresh_noise_nfe(self, n_avg, expected):
        _, field, z0 = scene_setup()
        config = FlowEditConfig(
            schedule=make_uniform_schedule(50),
            noise_mode=NoiseMode.FRESH_PER_STEP,
            n_avg=n_avg,
            seed=5,
        )
        _, nfe = flowedit_run(field, z0, SRC, TAR, config)
        assert nfe == expected

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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_intermediate_names_timestep(self):
        # velocities stay finite; only the accumulated edit latent overflows
        class TargetOnly(VelocityField):
            def evaluate(self, z, t, c):
                return LatentField.full(z.shape, 0.0 if c == SRC else 1.7e308)

        shape = Shape(1, 1, 2, 2)
        config = FlowEditConfig(schedule=make_uniform_schedule(4))
        with pytest.raises(NumericError, match="stepping to t=0.75"):
            flowedit_run(TargetOnly(), LatentField.full(shape, 1.7e308), SRC, TAR, config)


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
        lines = report.to_lines()
        assert lines[0].startswith("tol=")
        assert sum(1 for line in lines if line.startswith("step ")) == 6
