"""Editor invariants over drawn shapes, schedules, reuse intervals and masks.

Extents run from 1 to 5, so odd and length-1 axes are common; schedules
have 1 to 12 steps between strictly increasing knots; masks are
fractional. Every case runs on the point field or the scene mixture.
"""

import math
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_array_equal

from rcflow.edit import EditConfig, run_edit
from rcflow.engine import ConditionBundle, Schedule, VelocityField, generate, sample_noise
from rcflow.fields import ToyScene, point_field, render_target, scene_mixture_field
from rcflow.flowedit import equivalence_check
from rcflow.latent import Mask, Shape, hf_transfer, rel_error

SRC = ConditionBundle(illum_params=(1.0, 0.0, 0.0, 0.2), agnostic_params=(5.0, 3.0, 0.5))
TAR = ConditionBundle(illum_params=(2.0, 0.3, 0.8, 0.6), agnostic_params=(5.0, 3.0, 0.5))

FAST = settings(deadline=None, max_examples=40)


class CountingField(VelocityField):
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def evaluate(self, z, t, c):
        self.calls += 1
        return self.inner.evaluate(z, t, c)


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
    assert report.nfe == counting.calls == expected


@FAST
@given(edit_cases(), st.integers(0, 2**64 - 1))
def test_fixed_noise_equivalence(case, seed):
    field, z0, _, schedule, *_ = case
    assert equivalence_check(field, z0, SRC, TAR, schedule, seed, 1e-6).passed
