"""Text frame-stack files and grayscale frame export.

Stack files are plain ASCII: a `FPSTACK 1 <frames> <channels> <height>
<width>` header line followed by the row-major payload, one pixel row per
line, 9 significant digits per value. Diff-able, endian-free, and round
trips within 1e-6 relative, which is all the desk-scale experiments need.

read_stack reads a file's bytes once and has two readers. numpy's C text
reader (np.loadtxt) takes an ASCII file whose rows all hold the same
number of tokens, ended by "\\n" or "\\r\\n", and whose tokens it all
converts, to as many values as the header promises; it converts each token
as float() does. Every other file (uneven rows, a lone "\\r", a token such
as "1_0" that only float() takes, a count mismatch, a non-ASCII byte) goes
to the line reader, parse_stack's, on the text Path.read_text gives. So
both readers give the same values, and every error message, and which one
a file with several faults gets, is the line reader's.
"""

from __future__ import annotations

import io
import math
import os
import re
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .latent import LatentField, Mask

MAGIC = "FPSTACK"
VERSION = "1"


def _stack_lines(field: LatentField) -> Iterator[str]:
    """Header and payload lines, newline-terminated, one formatted pixel row at a time.

    `"%.9g" % v` and `f"{v:.9g}"` use the same float formatter; converting
    one row at a time keeps no Python float list of the whole stack alive.
    """
    f, c, h, w = field.data.shape
    yield f"{MAGIC} {VERSION} {f} {c} {h} {w}\n"
    row_format = " ".join(["%.9g"] * w) + "\n"
    for row in field.data.reshape(f * c * h, w):
        yield row_format % tuple(row.tolist())


def format_stack(field: LatentField) -> str:
    return "".join(_stack_lines(field))


def _write_atomic(
    path: str | os.PathLike, chunks: Iterable[str] | Iterable[bytes], *, binary: bool = False
) -> None:
    """Write chunks so that all of them replace path, or path is untouched.

    The chunks go to a temporary file in path's directory, which is renamed
    over path once complete and removed if anything fails before that.
    Text is ASCII.
    """
    target = Path(path)
    partial = target.with_name(f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    handle = open(partial, "xb") if binary else open(partial, "x", encoding="ascii")
    try:
        with handle:
            handle.writelines(chunks)
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_stack(path: str | os.PathLike, field: LatentField) -> None:
    """Write a stack file atomically: all of it replaces path, or path is untouched."""
    _write_atomic(path, _stack_lines(field))


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write an ASCII text file atomically: all of it replaces path, or path is untouched."""
    _write_atomic(path, [text])


def _lines(text: str) -> Iterator[str]:
    """The newline-separated lines of text, one at a time: `text.split("\\n")` without the list."""
    start = 0
    while start <= len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


def _header(first: str, source: str) -> tuple[int, int, int, int]:
    """The extents a stack file's first line declares; a malformed one raises ConfigError."""
    if not first.strip():
        raise ConfigError(f"{source}: empty stack file")
    header = first.split()
    if len(header) != 6 or header[0] != MAGIC or header[1] != VERSION:
        raise ConfigError(f"{source}: bad header {first!r}")
    try:
        f, c, h, w = (int(v) for v in header[2:])
    except ValueError as exc:
        raise ConfigError(f"{source}: non-integer extent in header") from exc
    if min(f, c, h, w) < 1:
        raise ConfigError(f"{source}: extents must be positive, got {f} {c} {h} {w}")
    return f, c, h, w


def _line_values(text: str, source: str) -> np.ndarray:
    """The line reader: a stack file's values, shaped as its header says; a malformed file raises ConfigError.

    The payload is converted one line at a time into a preallocated array
    (numpy parses each token as `float()` does), so no Python object per
    value is kept for the whole stack.
    """
    lines = _lines(text)
    shape = _header(next(lines), source)
    expected = math.prod(shape)
    # every token takes at least one character, so a header that promises
    # more values than text has characters gets no array of its size
    values = np.empty(min(expected, len(text)))
    count = 0
    numeric_error = None
    # keep counting past a bad token: a count mismatch is reported before it
    for line in lines:
        tokens = line.split()
        if numeric_error is None and count + len(tokens) <= values.size:
            try:
                values[count : count + len(tokens)] = np.array(tokens, dtype=np.float64)
            except ValueError as exc:
                numeric_error = exc
        count += len(tokens)
    if count != expected:
        raise ConfigError(f"{source}: header promises {expected} values, payload has {count}")
    if numeric_error is not None:
        raise ConfigError(f"{source}: non-numeric payload value") from numeric_error
    return values.reshape(shape)


def parse_stack(text: str, *, source: str = "<string>") -> LatentField:
    """Parse a stack file's text; a malformed header or payload raises ConfigError."""
    return LatentField(_line_values(text, source))


# a byte that str.split does not split on; numpy's reader splits on the same ASCII bytes, save a lone "\r"
_TOKEN_BYTE = re.compile(rb"[^\t\n\x0b\x0c\r\x1c-\x1f ]")
_REST_OF_LINE = re.compile(rb"[^\n]*")


def _c_reader_values(raw: bytes, source: str) -> np.ndarray | None:
    """A stack file's values from numpy's C text reader, or None where the line reader must decide.

    np.loadtxt converts each token with PyOS_string_to_double, as float()
    does, and splits lines only at "\\n" and "\\r\\n". It takes an ASCII file
    whose first line holds no other "\\r", whose payload holds a token (an
    empty one would only warn), and whose tokens it all converts, in rows
    of one length, to exactly the number of values the header promises.
    On any other file it gives None, so that every error, and its
    precedence, is the line reader's. Rows of one length hold a multiple
    of the first row's tokens, so a file wrapped at a width that does not
    divide the count goes to the line reader before numpy converts it all
    only to stop at its short last row.
    """
    end = raw.find(b"\n")
    if end < 0 or not raw.isascii():
        return None
    first = raw[:end].removesuffix(b"\r")
    token = _TOKEN_BYTE.search(raw, end + 1)
    if b"\r" in first or token is None:
        return None
    shape = _header(first.decode("ascii"), source)
    expected = math.prod(shape)
    if expected % len(_REST_OF_LINE.match(raw, token.start()).group().split()):
        return None
    try:
        with io.BytesIO(raw) as stream:
            values = np.loadtxt(stream, skiprows=1, comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    return values.reshape(shape) if values.size == expected else None


def read_stack(path: str | os.PathLike, kind: type[LatentField | Mask] = LatentField) -> LatentField | Mask:
    """Read a stack file as a LatentField, or as `kind` built from its values.

    The file is read once. numpy's C reader takes the files it can; every
    other file goes to the line reader on the text Path.read_text(encoding="ascii")
    gives, which raises every error parse_stack raises on it.
    """
    source = str(path)
    raw = Path(path).read_bytes()
    values = _c_reader_values(raw, source)
    if values is None:
        with io.TextIOWrapper(io.BytesIO(raw), encoding="ascii") as text:
            values = _line_values(text.read(), source)
    return kind(values)


def read_mask(path: str | os.PathLike) -> Mask:
    return read_stack(path, Mask)


def write_pgm(path: str | os.PathLike, frame: np.ndarray, lo: float, hi: float) -> None:
    """Binary P5 graymap of one (height, width) frame on a fixed value range."""
    if frame.ndim != 2:
        raise ValueError(f"frame must be 2D, got {frame.ndim} axes")
    if hi > lo:
        if float(hi) - float(lo) < math.inf:
            scaled = (frame - lo) / (hi - lo)
        else:
            # the range overflows; halving is exact, and the halved range does not
            scaled = (frame / 2.0 - lo / 2.0) / (hi / 2.0 - lo / 2.0)
        scaled = np.clip(scaled, 0.0, 1.0)
    else:
        scaled = np.zeros_like(frame)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    h, w = pixels.shape
    _write_atomic(path, [f"P5\n{w} {h}\n255\n".encode("ascii"), pixels.tobytes()], binary=True)


def export_frames(out_dir: str | os.PathLike, field: LatentField) -> tuple[float, float]:
    """Write one PGM per frame of channel 0, normalized per run.

    A single min/max over all exported frames keeps brightness comparable
    across the run; the range is returned for the metrics report.
    """
    out = Path(out_dir)
    selected = field.data[:, 0, :, :]
    lo = float(selected.min())
    hi = float(selected.max())
    for index in range(selected.shape[0]):
        write_pgm(out / f"frame_{index:04d}.pgm", selected[index], lo, hi)
    return lo, hi
