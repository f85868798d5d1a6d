"""Editor invariants over drawn shapes, schedules, reuse intervals and masks.

Extents run from 1 to 5, so odd and length-1 axes are common; schedules
have 1 to 12 steps between strictly increasing knots; masks are
fractional. Every case runs on the point field or the scene mixture,
except the faithful-relighting cases, which need the point field's closed
form.
"""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_array_equal

from rcflow.edit import EditConfig, run_edit
from rcflow.engine import ConditionBundle, Schedule, generate, make_uniform_schedule, sample_noise
from rcflow.fields import ToyScene, point_field, render_target, scene_mixture_field
from rcflow.flowedit import equivalence_check
from rcflow.latent import LatentField, Mask, Shape, hf_transfer, rel_error

from reference import CountingField

SRC = ConditionBundle(illum_params=(1.0, 0.0, 0.0, 0.2), agnostic_params=(5.0, 3.0, 0.5))
TAR = ConditionBundle(illum_params=(2.0, 0.3, 0.8, 0.6), agnostic_params=(5.0, 3.0, 0.5))

FAST = settings(deadline=None, max_examples=40)


@st.composite
def edit_cases(draw):
    """(field, z0, eps, schedule, r, fractional mask, lambda, rho) for one drawn scene."""
    shape = Shape(*(draw(st.integers(1, hi)) for hi in (3, 2, 5, 5)))
    scene = ToyScene(shape)
    if draw(st.booleans()):
        field = point_field(scene)
    else:
        field = scene_mixture_field(scene, components=draw(st.integers(1, 3)), spread=0.25, seed=1)
    steps = draw(st.integers(1, 12))
    inner = st.floats(1e-3, 1.0, exclude_max=True)
    knots = draw(st.lists(inner, min_size=steps - 1, max_size=steps - 1, unique=True))
    schedule = Schedule([0.0, *sorted(knots), 1.0])
    r = draw(st.integers(1, steps))
    mask_shape = (shape.frames, 1, shape.height, shape.width)
    mask = Mask(draw(hnp.arrays(np.float64, mask_shape, elements=st.floats(0.0, 1.0))))
    eps = sample_noise(draw(st.integers(0, 2**64 - 1)), shape)
    hf_lambda = draw(st.floats(0.0, 1.0))
    hf_rho = draw(st.floats(0.0, 1.0))
    return field, render_target(scene, SRC), eps, schedule, r, mask, hf_lambda, hf_rho


def _config(schedule, mask, r, hf_lambda, hf_rho):
    return EditConfig(schedule=schedule, mask=mask, reuse_interval=r, hf_lambda=hf_lambda, hf_rho=hf_rho)


@FAST
@given(edit_cases())
def test_identity_at_r1_with_full_mask(case):
    field, z0, eps, schedule, _, mask, hf_lambda, hf_rho = case
    config = _config(schedule, Mask.ones(mask.shape), 1, hf_lambda, hf_rho)
    report = run_edit(field, z0, SRC, SRC, eps, config)
    assert rel_error(report.output, z0) <= 1e-5


@FAST
@given(edit_cases())
def test_zero_mask_reproduces_generate(case):
    field, z0, eps, schedule, r, mask, hf_lambda, hf_rho = case
    config = _config(schedule, Mask(np.zeros_like(mask.data)), r, hf_lambda, hf_rho)
    report = run_edit(field, z0, SRC, TAR, eps, config)
    generated, _ = generate(field, TAR, eps, schedule)
    assert_array_equal(report.output.data, generated.data)


@FAST
@given(edit_cases())
def test_detail_transfer_runs_iff_lambda_positive(case):
    field, z0, eps, schedule, r, mask, hf_lambda, hf_rho = case
    for lam in (0.0, hf_lambda):
        with patch("rcflow.edit.hf_transfer", side_effect=hf_transfer) as counting:
            run_edit(field, z0, SRC, TAR, eps, _config(schedule, mask, r, lam, hf_rho))
        assert counting.call_count == (schedule.steps if lam > 0 else 0)


@FAST
@given(edit_cases())
def test_nfe_is_steps_plus_refreshes(case):
    field, z0, eps, schedule, r, mask, hf_lambda, hf_rho = case
    counting = CountingField(field)
    report = run_edit(counting, z0, SRC, TAR, eps, _config(schedule, mask, r, hf_lambda, hf_rho))
    expected = schedule.steps + math.ceil(schedule.steps / r)
    assert report.nfe == len(counting.calls) == expected


@FAST
@given(edit_cases(), st.integers(0, 2**64 - 1))
def test_fixed_noise_equivalence(case, seed):
    field, z0, _, schedule, *_ = case
    assert equivalence_check(field, z0, SRC, TAR, schedule, seed, 1e-6).passed


# (gain, tilt, angle, background_level)
ILLUMS = st.tuples(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.floats(-4.0, 4.0), st.floats(-2.0, 2.0))
SCHEDULES = st.one_of(
    st.integers(1, 12).map(make_uniform_schedule),
    st.lists(st.floats(1e-3, 1.0, exclude_max=True), max_size=11, unique=True).map(
        lambda knots: Schedule([0.0, *sorted(knots), 1.0])
    ),
    # knots crowding both ends of [0, 1]
    st.sampled_from([Schedule([0.0, 1e-12, 1.0]), Schedule([0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0])]),
)


@st.composite
def relight_cases(draw):
    """(scene, z0, eps, schedule, mask, src, tar) with drawn input and illuminations."""
    shape = Shape(*(draw(st.integers(1, hi)) for hi in (3, 2, 5, 5)))
    mask_shape = (shape.frames, 1, shape.height, shape.width)
    mask = Mask(draw(hnp.arrays(np.float64, mask_shape, elements=st.floats(0.0, 1.0))))
    z0 = LatentField(draw(hnp.arrays(np.float64, shape.as_tuple(), elements=st.floats(-3.0, 3.0))))
    eps = sample_noise(draw(st.integers(0, 2**64 - 1)), shape)
    src, tar = (ConditionBundle(draw(ILLUMS), SRC.agnostic_params) for _ in range(2))
    return ToyScene(shape), z0, eps, draw(SCHEDULES), mask, src, tar


@FAST
@given(relight_cases())
def test_point_field_relights_faithfully(case):
    """With the point field, r = 1 and no detail transfer, the edit is T_tar + M * (z0 - T_src).

    T_c is the scene rendered under c: the edit keeps z0's departure from the
    source render inside the mask and relights only the render.
    """
    scene, z0, eps, schedule, mask, src, tar = case
    config = EditConfig(schedule=schedule, mask=mask, reuse_interval=1, hf_lambda=0.0)
    output = run_edit(point_field(scene), z0, src, tar, eps, config).output
    t_src, t_tar = render_target(scene, src).data, render_target(scene, tar).data
    assert rel_error(output, LatentField(t_tar + mask.data * (z0.data - t_src))) <= 1e-12


def _last_refresh_knot(schedule: Schedule, r: int) -> float:
    """The knot where the last step's cached residual was computed: the smallest i >= 1 with (N - i) mod r == 0."""
    n = schedule.steps
    return float(schedule.knots[min(i for i in range(1, n + 1) if (n - i) % r == 0)])


STEPS = 12
CHARACTERISED_SCHEDULES = {
    "uniform": make_uniform_schedule(STEPS),
    "random": Schedule([0.0, *np.sort(np.random.default_rng(11).uniform(1e-3, 1.0, STEPS - 1)), 1.0]),
    "quadratic": Schedule((np.arange(STEPS + 1) / STEPS) ** 2),
}


@pytest.mark.parametrize("r", [1, 2, 3, 5, STEPS])
@pytest.mark.parametrize("name", sorted(CHARACTERISED_SCHEDULES))
def test_point_field_edit_keeps_the_last_refresh_share_of_the_departure(name, r):
    """With the point field and no detail transfer, the edit is T_tar + (t_1/t_c) * M * (z0 - T_src).

    The Euler factors t_{j-1}/t_j telescope to 0, so only the last step's
    correction survives: t_1 times the residual (z0 - T_src)/t_c cached at
    the knot t_c of the last refresh. This characterises today's reuse rule,
    refreshing where (N - i) mod r == 0, on an input off the data manifold.
    """
    schedule = CHARACTERISED_SCHEDULES[name]
    shape = Shape(2, 2, 5, 4)
    scene = ToyScene(shape)
    t_src, t_tar = render_target(scene, SRC).data, render_target(scene, TAR).data
    z0 = LatentField(t_src + 0.1 * sample_noise(21, shape).data)
    mask = Mask(np.random.default_rng(12).uniform(0.0, 1.0, (2, 1, 5, 4)))
    config = _config(schedule, mask, r, 0.0, 0.8)
    output = run_edit(point_field(scene), z0, SRC, TAR, sample_noise(22, shape), config).output
    share = schedule.knots[1] / _last_refresh_knot(schedule, r)
    assert rel_error(output, LatentField(t_tar + share * mask.data * (z0.data - t_src))) <= 1e-12
