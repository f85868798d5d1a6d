import numpy as np
import pytest

import rcflow.stackio as stackio
from rcflow.engine import sample_noise
from rcflow.errors import ConfigError
from rcflow.latent import LatentField, Shape
from rcflow.stackio import (
    export_frames,
    format_stack,
    parse_stack,
    read_mask,
    read_stack,
    write_pgm,
    write_stack,
)


def test_round_trip_random_values(tmp_path):
    field = sample_noise(1, Shape(2, 3, 4, 5))
    path = tmp_path / "stack.fps"
    write_stack(path, field)
    loaded = read_stack(path)
    assert loaded.shape == field.shape
    assert np.max(np.abs(loaded.data - field.data)) <= 1e-6 * (1.0 + field.max_abs())


def test_round_trip_large_magnitudes(tmp_path):
    values = np.linspace(-1e6, 1e6, 64).reshape(1, 1, 8, 8)
    field = LatentField(values)
    path = tmp_path / "big.fps"
    write_stack(path, field)
    loaded = read_stack(path)
    rel = np.abs(loaded.data - field.data) / np.maximum(1.0, np.abs(field.data))
    assert rel.max() <= 1e-6


def test_write_is_deterministic(tmp_path):
    field = sample_noise(2, Shape(1, 1, 4, 4))
    a, b = tmp_path / "a.fps", tmp_path / "b.fps"
    write_stack(a, field)
    write_stack(b, field)
    assert a.read_bytes() == b.read_bytes()


def per_value_stack_text(field):
    """The writer's reference: every value formatted on its own with f"{v:.9g}"."""
    f, c, h, w = field.data.shape
    lines = [f"FPSTACK 1 {f} {c} {h} {w}"]
    for row in field.data.reshape(f * c * h, w):
        lines.append(" ".join(f"{v:.9g}" for v in row))
    return "\n".join(lines) + "\n"


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-5, -1e-5, 3.0, -42.0, 1e16, 0.1, 2.0 / 3.0]


@pytest.mark.parametrize(
    "data",
    [
        np.array(EDGE_VALUES).reshape(1, 1, 1, 13),
        np.array(EDGE_VALUES).reshape(1, 1, 13, 1),
        np.array(EDGE_VALUES[:12]).reshape(1, 3, 2, 2),
        sample_noise(6, Shape(2, 3, 5, 7)).data,
    ],
    ids=["odd-width", "width-1", "multi-axis", "noise"],
)
def test_format_matches_per_value_writer(data):
    field = LatentField(data)
    assert format_stack(field).encode("ascii") == per_value_stack_text(field).encode("ascii")


def test_failed_write_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "output.fps"
    write_stack(path, sample_noise(7, Shape(1, 1, 4, 4)))
    before = path.read_bytes()

    def failing_lines(field):
        yield "FPSTACK 1 1 1 4 4\n"
        raise RuntimeError("formatting failed")

    monkeypatch.setattr(stackio, "_stack_lines", failing_lines)
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_stack(path, sample_noise(8, Shape(1, 1, 4, 4)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["output.fps"]


def test_header_shape_is_authoritative():
    field = sample_noise(3, Shape(2, 1, 2, 2))
    text = format_stack(field)
    assert text.splitlines()[0] == "FPSTACK 1 2 1 2 2"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "NOTMAGIC 1 1 1 1 1\n0",
        "FPSTACK 2 1 1 1 1\n0",
        "FPSTACK 1 1 1 1\n0",
        "FPSTACK 1 1 1 1 x\n0",
        "FPSTACK 1 0 1 1 1\n",
    ],
)
def test_bad_headers_rejected(text):
    with pytest.raises(ConfigError):
        parse_stack(text)


def test_payload_length_must_match_header():
    with pytest.raises(ConfigError, match="promises 4"):
        parse_stack("FPSTACK 1 1 1 2 2\n1 2 3")
    with pytest.raises(ConfigError, match="promises 4"):
        parse_stack("FPSTACK 1 1 1 2 2\n1 2 3 4 5")


def test_non_numeric_payload_rejected():
    with pytest.raises(ConfigError, match="non-numeric"):
        parse_stack("FPSTACK 1 1 1 1 2\n1 banana")


def test_read_mask_validates_range(tmp_path):
    field = LatentField(np.full((1, 1, 2, 2), 2.0))
    path = tmp_path / "notmask.fps"
    write_stack(path, field)
    with pytest.raises(ValueError):
        read_mask(path)


def test_pgm_format(tmp_path):
    frame = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    path = tmp_path / "f.pgm"
    write_pgm(path, frame, 0.0, 1.0)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n4 3\n255\n")
    pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8)
    assert pixels[0] == 0
    assert pixels[-1] == 255


def test_pgm_constant_frame_is_black(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(path, np.full((2, 2), 5.0), 5.0, 5.0)
    pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
    assert (pixels == 0).all()


def test_export_frames_shares_one_range(tmp_path):
    data = np.zeros((2, 2, 2, 2))
    data[0, 0] = 0.0
    data[1, 0] = 10.0
    lo, hi = export_frames(tmp_path, LatentField(data), channel=0)
    assert (lo, hi) == (0.0, 10.0)
    first = (tmp_path / "frame_0000.pgm").read_bytes()
    second = (tmp_path / "frame_0001.pgm").read_bytes()
    assert np.frombuffer(first.split(b"255\n", 1)[1], dtype=np.uint8).max() == 0
    assert np.frombuffer(second.split(b"255\n", 1)[1], dtype=np.uint8).min() == 255
