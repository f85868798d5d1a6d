import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcflow.stackio as stackio
from rcflow.engine import sample_noise
from rcflow.errors import ConfigError, NumericError
from rcflow.latent import LatentField, Shape
from rcflow.stackio import (
    export_frames,
    format_stack,
    parse_stack,
    read_mask,
    read_stack,
    write_pgm,
    write_stack,
    write_text,
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


def failing_chunks(first):
    yield first
    raise RuntimeError("writing failed")


@pytest.mark.parametrize(
    "write",
    [
        lambda path: write_text(path, "key=caf\u00e9\n"),
        lambda path: stackio._write_atomic(path, failing_chunks("key=2\n")),
        lambda path: stackio._write_atomic(path, failing_chunks(b"P5\n"), binary=True),
    ],
    ids=["text-not-ascii", "text-chunks", "binary-chunks"],
)
def test_failed_atomic_write_keeps_old_file(tmp_path, write):
    path = tmp_path / "metrics.txt"
    write_text(path, "key=1\n")
    with pytest.raises((UnicodeEncodeError, RuntimeError)):
        write(path)
    assert path.read_bytes() == b"key=1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.txt"]


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
    with pytest.raises(ConfigError, match="promises 100000000000000000000 values, payload has 2"):
        parse_stack("FPSTACK 1 100000 100000 100000 100000\n1 2")


def test_non_numeric_payload_rejected():
    with pytest.raises(ConfigError, match="non-numeric"):
        parse_stack("FPSTACK 1 1 1 1 2\n1 banana")
    # a count mismatch is reported first, wherever the bad token sits
    with pytest.raises(ConfigError, match="promises 2 values, payload has 3"):
        parse_stack("FPSTACK 1 1 1 1 2\nbanana\n1 2")
    with pytest.raises(ConfigError, match="promises 2 values, payload has 4"):
        parse_stack("FPSTACK 1 1 1 1 2\n1 2 3\nbanana")


def per_value_parse_stack(text, source="<string>"):
    """The reader's reference: the whole payload split at once, `float()` per value."""
    lines = text.split("\n")
    if not lines[0].strip():
        raise ConfigError(f"{source}: empty stack file")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "FPSTACK" or header[1] != "1":
        raise ConfigError(f"{source}: bad header {lines[0]!r}")
    try:
        f, c, h, w = (int(v) for v in header[2:])
    except ValueError as exc:
        raise ConfigError(f"{source}: non-integer extent in header") from exc
    if min(f, c, h, w) < 1:
        raise ConfigError(f"{source}: extents must be positive, got {f} {c} {h} {w}")
    payload = "\n".join(lines[1:]).split()
    expected = f * c * h * w
    if len(payload) != expected:
        raise ConfigError(f"{source}: header promises {expected} values, payload has {len(payload)}")
    try:
        values = np.array([float(v) for v in payload])
    except ValueError as exc:
        raise ConfigError(f"{source}: non-numeric payload value") from exc
    return LatentField(values.reshape(f, c, h, w))


def parse_outcome(parse, text):
    """The bytes a parser returns, or the type and message of what it raises."""
    try:
        return parse(text).data.tobytes()
    except (ConfigError, NumericError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "payload",
    [
        "-0 +5 1_0 -1e-400 5e-324 -5e-324",
        "\n\n-0 +5\n\n\n1_0 -1e-400 5e-324\n-5e-324\n\n",
        "-0\n+5 1_0\n-1e-400\n5e-324\n-5e-324",
        "  -0\t+5  1_0\r\n-1e-400 5e-324   -5e-324  \n",
        # float("1e400") is inf, which no stack may hold
        "-0 +5 1_0 1e400 5e-324 -5e-324",
    ],
    ids=["one-row", "blank-lines", "uneven-breaks", "mixed-whitespace", "overflow"],
)
def test_parse_matches_per_value_reader(payload):
    text = "FPSTACK 1 1 1 2 3\n" + payload
    assert parse_outcome(parse_stack, text) == parse_outcome(per_value_parse_stack, text)


@settings(deadline=None)
@given(
    header=st.sampled_from(["FPSTACK 1 1 1 2 3", "FPSTACK 1 1 2 1 1", "FPSTACK 1 0 1 1 1", "FPSTACK 1 2 x", "", " "]),
    payload=st.text(alphabet="0123456789+-._eE \t\r\nnaif", max_size=40),
)
def test_parse_matches_per_value_reader_on_any_text(header, payload):
    text = header + "\n" + payload
    assert parse_outcome(parse_stack, text) == parse_outcome(per_value_parse_stack, text)


# both halfway subnormals round to even, as float() rounds them
EDGE_TOKENS = [
    "-0", "5e-324", "2.4703282292062327e-324", "7.4109846876186982e-324", "1e400", "-1e400", "nan", "-NaN",
    "infinity", "-inf", ".5", "5.", "+5", "0.30000000000000001665", "123456789012345678901234567890",
]
# float() takes "1_0" and numpy's reader does not; neither takes the others
BAD_TOKENS = ["1_0", "#", "1#2", "0x10", "1e", "\xff"]


@st.composite
def stack_file_bytes(draw):
    """A stack file as bytes: any line endings, even or uneven rows, edge tokens, at most one bad token."""
    # mostly a header of 6 values and 6 tokens, so that many files parse
    header = draw(st.sampled_from([
        *["FPSTACK 1 1 1 2 3", "FPSTACK 1 3 1 2 1"] * 3,
        "FPSTACK 1 100000 100000 100000 100000", "FPSTACK 1 0 1 1 1", "FPSTACK 1 2 x", "", " \t",
    ]))
    count = draw(st.sampled_from([0, 5, 7, *[6] * 5]))
    token = st.one_of(st.floats().map(repr), st.sampled_from(EDGE_TOKENS))
    tokens = draw(st.lists(token, min_size=count, max_size=count))
    bad = draw(st.sampled_from([None, None, None, *BAD_TOKENS]))
    if bad is not None and tokens:
        tokens[draw(st.integers(0, len(tokens) - 1))] = bad
    newlines = st.sampled_from(["\n", "\r\n", "\r"])
    space = draw(st.sampled_from([" ", "\t", "\x0b", "\x0c", " \t ", "\xa0"]))
    if draw(st.booleans()):
        width = draw(st.sampled_from([1, 2, 3]))
        rows = [space.join(tokens[i : i + width]) for i in range(0, len(tokens), width)]
        ends = [draw(newlines)] * (len(rows) + 1)
    else:
        # uneven breaks and mixed line endings; a repeated cut makes a blank line
        cuts = sorted(draw(st.lists(st.integers(0, len(tokens)), max_size=4)))
        bounds = [0, *cuts, len(tokens)]
        rows = [space.join(tokens[a:b]) for a, b in zip(bounds, bounds[1:])]
        ends = draw(st.lists(newlines, min_size=len(rows) + 1, max_size=len(rows) + 1))
    lines = [header, *rows]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    return text.encode("latin-1")


def read_outcome(read, path):
    """The bytes a reader returns, or the type and message of what it raises."""
    try:
        return read(path).data.tobytes()
    except (ConfigError, NumericError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


def read_by_lines(path):
    return parse_stack(path.read_text(encoding="ascii"), source=str(path))


@settings(deadline=None, max_examples=300)
@given(raw=stack_file_bytes())
def test_read_stack_matches_the_line_reader(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("stack") / "stack.fps"
    path.write_bytes(raw)
    assert read_outcome(read_stack, path) == read_outcome(read_by_lines, path)


@pytest.mark.parametrize(
    "raw,c_reader",
    [
        (b"FPSTACK 1 1 1 2 3\n1 2 3\n4 5 6\n", True),
        (b"FPSTACK 1 1 1 2 3\r\n1 2 3\r\n4 5 6", True),
        (b"FPSTACK 1 1 1 2 3\n\n1\t2\x0b3\n\n4 5\x0c6\n\n", True),
        (b"FPSTACK 1 1 1 2 3\n1 2 3 4 5 6", True),
        (b"FPSTACK 1 1 1 2 3\r1 2 3\r4 5 6\r", False),
        (b"FPSTACK 1 1 1 2 3\n1 2\r3 4\n5 6\n", False),
        (b"FPSTACK 1 1 1 2 3\n1 2 3 4\n5 6\n", False),
        (b"FPSTACK 1 1 1 2 3\n1_0 2 3\n4 5 6\n", False),
    ],
    ids=["canonical", "crlf", "blank-lines-and-whitespace", "one-row", "cr", "lone-cr", "uneven", "underscore"],
)
def test_reader_taking_a_file(tmp_path, monkeypatch, raw, c_reader):
    path = tmp_path / "stack.fps"
    path.write_bytes(raw)
    line_reads = []
    line_values = stackio._line_values
    monkeypatch.setattr(stackio, "_line_values", lambda *args: line_reads.append(args) or line_values(*args))
    expected = [10.0, 2, 3, 4, 5, 6] if b"1_0" in raw else [1.0, 2, 3, 4, 5, 6]
    assert read_stack(path).data.ravel().tolist() == expected
    assert bool(line_reads) is not c_reader


def test_wrapped_file_with_a_short_last_row_skips_numpy(tmp_path, monkeypatch):
    # rows of 2 cannot hold 7 values evenly; numpy would convert every row before it met the short one
    path = tmp_path / "stack.fps"
    path.write_bytes(b"FPSTACK 1 1 1 1 7\n1 2\n3 4\n5 6\n7\n")
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: pytest.fail("np.loadtxt was called"))
    assert read_stack(path).data.ravel().tolist() == [1.0, 2, 3, 4, 5, 6, 7]


def test_read_mask_is_checked_as_a_mask(tmp_path):
    (tmp_path / "mask.fps").write_bytes(b"FPSTACK 1 1 1 1 2\n0.5 nan\n")
    with pytest.raises(NumericError, match="^mask contains non-finite values$"):
        read_mask(tmp_path / "mask.fps")


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
    lo, hi = export_frames(tmp_path, LatentField(data))
    assert (lo, hi) == (0.0, 10.0)
    first = (tmp_path / "frame_0000.pgm").read_bytes()
    second = (tmp_path / "frame_0001.pgm").read_bytes()
    assert np.frombuffer(first.split(b"255\n", 1)[1], dtype=np.uint8).max() == 0
    assert np.frombuffer(second.split(b"255\n", 1)[1], dtype=np.uint8).min() == 255


def test_write_pgm_names_a_frame_with_too_many_axes(tmp_path):
    with pytest.raises(ValueError, match=r"frame must be 2D, got 3 axes"):
        write_pgm(tmp_path / "frame.pgm", np.zeros((1, 4, 4)), 0.0, 1.0)
    assert not (tmp_path / "frame.pgm").exists()
