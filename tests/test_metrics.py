import numpy as np
import pytest
from numpy.testing import assert_allclose

from rcflow.latent import LatentField, Mask, Shape
from rcflow.metrics import (
    bg_change_rms,
    fg_structure_score,
    key_values,
    rms_gap,
)

from reference import parse_metrics


def checker(shape, period=2):
    f, c, h, w = shape
    grid = (np.indices((h, w)).sum(axis=0) // period) % 2
    return LatentField(np.broadcast_to(grid, (f, c, h, w)).astype(float).copy())


def test_fg_structure_score_perfect_on_scaled_copy():
    x = checker((1, 1, 8, 8))
    scaled = LatentField(3.0 * x.data)
    mask = Mask.ones(Shape(1, 1, 8, 8))
    assert fg_structure_score(scaled, x, mask) == pytest.approx(1.0)


def test_fg_structure_score_low_on_unrelated_pattern():
    x = checker((1, 1, 8, 8), period=2)
    ramp = LatentField(np.linspace(0, 1, 64).reshape(1, 1, 8, 8))
    mask = Mask.ones(Shape(1, 1, 8, 8))
    assert fg_structure_score(ramp, x, mask) < 0.5


def test_fg_structure_score_degenerate_is_zero():
    flat = LatentField(np.zeros((1, 1, 4, 4)))
    mask = Mask.ones(Shape(1, 1, 4, 4))
    assert fg_structure_score(flat, flat, mask) == 0.0


def loop_structure_score(output, source, mask):
    # the per-frame, per-channel form the whole-stack gradients replaced
    grads = []
    for data in (output.data, source.data):
        out = np.empty_like(data)
        for fi in range(data.shape[0]):
            for ci in range(data.shape[1]):
                out[fi, ci] = np.hypot(*np.gradient(data[fi, ci]))
        grads.append(out[np.broadcast_to(mask.data > 0.5, data.shape)])
    return float(np.corrcoef(*grads)[0, 1])


@pytest.mark.parametrize("shape", [(1, 1, 2, 2), (3, 2, 5, 7), (2, 4, 16, 9)])
def test_fg_structure_score_matches_per_frame_loop(shape):
    rng = np.random.default_rng(sum(shape))
    output = LatentField(rng.standard_normal(shape))
    source = LatentField(rng.standard_normal(shape))
    f, _, h, w = shape
    mask = Mask((rng.uniform(size=(f, 1, h, w)) > 0.3).astype(float))
    assert fg_structure_score(output, source, mask) == loop_structure_score(output, source, mask)


@pytest.mark.parametrize("shape", [(2, 1, 1, 6), (2, 3, 6, 1)])
def test_fg_structure_score_single_row_or_column(shape):
    # along a length-1 axis there is no neighbour, so that axis adds no gradient
    ramp = np.arange(float(np.prod(shape))).reshape(shape) ** 2
    mask = Mask.ones(Shape(shape[0], 1, shape[2], shape[3]))
    score = fg_structure_score(LatentField(ramp), LatentField(ramp), mask)
    assert score == pytest.approx(1.0)


def test_bg_change_rms_outside_only():
    shape = Shape(1, 1, 2, 2)
    a = LatentField(np.array([[1.0, 1.0], [1.0, 1.0]]).reshape(1, 1, 2, 2))
    b = LatentField(np.array([[0.0, 1.0], [1.0, 1.0]]).reshape(1, 1, 2, 2))
    mask = Mask(np.array([[0.0, 1.0], [1.0, 1.0]]).reshape(1, 1, 2, 2))
    # only the (0,0) pixel is outside; diff there is 1
    assert bg_change_rms(a, b, mask) == pytest.approx(1.0)


def test_bg_change_rms_empty_region_is_zero():
    x = checker((1, 1, 4, 4))
    assert bg_change_rms(x, x, Mask.ones(Shape(1, 1, 4, 4))) == 0.0


def test_rms_gap():
    a = LatentField(np.zeros((1, 1, 1, 2)))
    b = LatentField(np.array([3.0, 4.0]).reshape(1, 1, 1, 2))
    assert rms_gap(a, b) == pytest.approx(np.sqrt(12.5))


def test_report_round_trip():
    text = key_values(
        nfe=55,
        identity_error=1.5e-7,
        fg_structure_score=0.95,
        bg_change_rms=0.4,
        export_channel=0,
        export_min=-1.0,
        export_max=2.0,
    )
    parsed = parse_metrics(text)
    assert parsed["nfe"] == 55
    assert parsed["identity_error"] == pytest.approx(1.5e-7)
    assert parsed["fg_structure_score"] == pytest.approx(0.95)
    assert parsed["export_max"] == pytest.approx(2.0)


def test_report_omits_absent_metrics():
    text = key_values(nfe=50, identity_error=None, fg_structure_score=None)
    assert text == "nfe=50\n"


def test_multichannel_mask_broadcast():
    f = LatentField(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
    g = LatentField(f.data + 0.5)
    mask = Mask(np.ones((2, 1, 8, 8)) * (np.arange(8) % 2)[None, None, None, :])
    value = bg_change_rms(g, f, mask)
    assert_allclose(value, 0.5)
