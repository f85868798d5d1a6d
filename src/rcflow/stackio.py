"""Text frame-stack files and grayscale frame export.

Stack files are plain ASCII: a `FPSTACK 1 <frames> <channels> <height>
<width>` header line followed by the row-major payload, one pixel row per
line, 9 significant digits per value. Diff-able, endian-free, and round
trips within 1e-6 relative, which is all the desk-scale experiments need.
"""

from __future__ import annotations

import math
import os
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


def parse_stack(text: str, *, source: str = "<string>") -> LatentField:
    """Parse a stack file's text; a malformed header or payload raises ConfigError.

    The payload is converted one line at a time into a preallocated array
    (numpy parses each token as `float()` does), so no Python object per
    value is kept for the whole stack.
    """
    lines = _lines(text)
    first = next(lines)
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
    expected = f * c * h * w
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
    return LatentField(values.reshape(f, c, h, w))


def read_stack(path: str | os.PathLike) -> LatentField:
    return parse_stack(Path(path).read_text(encoding="ascii"), source=str(path))


def read_mask(path: str | os.PathLike) -> Mask:
    field = read_stack(path)
    return Mask(field.data)


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
