"""File formats on bare arrays: binary PGM images, read into and written
from read-only (h, w) float64 arrays, trace CSV, and flat key=value configs.

A trace CSV's condition column prints ``ConditionTrace.c1``; read back, it
is outside input: :func:`parse_trace` checks only the format, and
``ConditionTrace.from_columns`` what the columns mean.
"""

from __future__ import annotations

import mmap
import os
import re
from pathlib import Path

import numpy as np

from .linalg import as_image
from .sequences import ConditionTrace

TRACE_COLUMNS = ("iter", "delta", "rho", "sigma", "condition", "fidelity_value")
# the longest image side a run takes, builtin or read from a PGM: the builtin
# pattern and the loop each hold several float64 images of this side squared,
# and the Gaussian and box denoisers a side x side filter matrix per axis
# (128 MiB at this side)
MAX_IMAGE_SIZE = 4096


class PgmFormatError(ValueError):
    """Malformed PGM file."""


class TraceFormatError(ValueError):
    """Malformed trace CSV; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _fmt(x: float) -> str:
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# PGM (binary, magic P5, 8-bit)

# one header token and the whitespace and # comments before it; the
# lookahead and backreference make that skip atomic (Python 3.10 has no
# atomic group), so a trailing comment is never re-read as a token
_PGM_TOKEN = re.compile(rb"(?=(\s*(?:#[^\n]*\s*)*))\1(\S+)")


def load_image(path) -> np.ndarray:
    """Load an 8-bit binary PGM as a read-only (h, w) image, mapping
    [0, maxval] to [0, 1]; a side above :data:`MAX_IMAGE_SIZE` is refused
    from the header, before the payload is read."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            raise PgmFormatError("truncated header")
        # mapped, not read whole: only the pages the header and the payload
        # slice touch are read, and a refused header touches no payload page
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
            tokens, pos = [], 0
            for _ in range(4):
                if not (token := _PGM_TOKEN.match(data, pos)):
                    raise PgmFormatError("truncated header")
                tokens.append(token[2])
                pos = token.end()
            if tokens[0] != b"P5":
                raise PgmFormatError(f"bad magic number {tokens[0]!r}, expected P5")
            try:
                width, height, maxval = (int(t) for t in tokens[1:])
            except ValueError as exc:
                raise PgmFormatError(f"non-numeric header field: {exc}") from exc
            if width < 1 or height < 1:
                raise PgmFormatError(f"bad dimensions {width}x{height}")
            if not (1 <= maxval <= 255):
                raise PgmFormatError(f"declared maxval {maxval} out of range [1, 255]")
            if max(width, height) > MAX_IMAGE_SIZE:
                raise ValueError(
                    f"image of {height}x{width} pixels (height x width): a side exceeds "
                    f"the limit of {MAX_IMAGE_SIZE}"
                )
            pos += 1  # single whitespace byte after maxval
            payload = data[pos : pos + width * height]
    if len(payload) < width * height:
        raise PgmFormatError(
            f"truncated payload: expected {width * height} bytes, "
            f"got {len(payload)}"
        )
    samples = np.frombuffer(payload, dtype=np.uint8)
    top = int(samples.max())
    if top > maxval:
        raise PgmFormatError(f"sample {top} above the declared maxval {maxval}")
    pixels = samples.astype(np.float64) / maxval
    return as_image(pixels.reshape(height, width))


def save_image(pixels: np.ndarray, path) -> None:
    """Write an (h, w) image as an 8-bit binary PGM, round-half-up with
    clamping to [0, 255]."""
    pixels = as_image(pixels, "pixels")
    levels = np.floor(pixels * 255.0 + 0.5)
    levels = np.clip(levels, 0, 255).astype(np.uint8)
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + levels.tobytes())


# ---------------------------------------------------------------------------
# Trace CSV

def serialize_trace(trace: ConditionTrace) -> str:
    lines = [",".join(TRACE_COLUMNS)]
    columns = (trace.deltas, trace.rhos, trace.sigmas, trace.fidelity_values)
    conds = ["NA", *("C1" if c1 else "C2" for c1 in trace.c1.tolist())]
    rows = zip(*(c.tolist() for c in columns), conds)
    for k, (delta, rho, sigma, value, cond) in enumerate(rows, start=1):
        lines.append(
            f"{k},{_fmt(delta)},{_fmt(rho)},{_fmt(sigma)},{cond},{_fmt(value)}"
        )
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: ConditionTrace, path) -> None:
    Path(path).write_text(serialize_trace(trace), encoding="ascii", newline="")


# the condition column's labels as C1 flags; NA marks the flagless first row
_ROW_FLAGS = {"NA": None, "C1": True, "C2": False}


def parse_trace(text: str) -> dict:
    """The float columns of a trace CSV under their ConditionTrace field
    names, and ``flags``, the condition column as a bool C1 array: the
    keywords of ``ConditionTrace.from_columns``.

    The iterations must read 1..n in order, and the condition must be NA
    on the first row alone.
    """
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != TRACE_COLUMNS:
        raise TraceFormatError(
            f"expected header {','.join(TRACE_COLUMNS)}", line=1
        )
    rows: list[tuple[float, float, float, float]] = []
    flags: list[bool] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise TraceFormatError(
                f"expected {len(TRACE_COLUMNS)} fields, got {len(parts)}",
                line=lineno,
            )
        k = len(rows) + 1
        try:
            iteration = int(parts[0])
            row = (float(parts[1]), float(parts[2]), float(parts[3]), float(parts[5]))
        except ValueError as exc:
            raise TraceFormatError(str(exc), line=lineno) from exc
        if iteration != k:
            raise TraceFormatError(f"expected iteration {k}, got {iteration}", line=lineno)
        label = parts[4]
        if label not in _ROW_FLAGS:
            raise TraceFormatError(f"bad condition {label!r}", line=lineno)
        flag = _ROW_FLAGS[label]
        if (flag is None) != (k == 1):
            raise TraceFormatError(
                f"condition {label} at iteration {k}: NA belongs to iteration 1 alone",
                line=lineno,
            )
        if flag is not None:
            flags.append(flag)
        rows.append(row)
    columns = np.array(rows, dtype=float).reshape(-1, 4).T
    names = ("deltas", "rhos", "sigmas", "fidelity_values")
    return {**dict(zip(names, columns)), "flags": np.array(flags, dtype=bool)}


def read_trace_csv(path) -> dict:
    return parse_trace(Path(path).read_text(encoding="ascii"))


# ---------------------------------------------------------------------------
# Flat key=value config files

# config-file spellings of two make_preset keywords
CONFIG_SPELLINGS = {"lambda": "lam", "image": "image_source"}


def parse_config(path) -> dict[str, str]:
    """Parse lines of the form ``key = value``; # starts a comment.

    A key may be given once, and a key and its :data:`CONFIG_SPELLINGS`
    spelling count as one; a repeat is an error naming both lines.
    """
    out: dict[str, str] = {}
    first: dict[str, tuple[str, int]] = {}  # key -> (spelling, line)
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        name = CONFIG_SPELLINGS.get(key, key)
        if name in first:
            spelling, at = first[name]
            raise ValueError(f"config line {lineno}: {key!r} repeats {spelling!r} on line {at}")
        first[name] = (key, lineno)
        out[key] = value
    return out


def check_config(values: dict[str, object]) -> None:
    """Raise ValueError naming the first value :func:`parse_config` would not
    read back: one holding ``#``, a line break, surrounding whitespace or a
    non-ASCII character."""
    for key, value in values.items():
        text = str(value)
        breaks = len(text.splitlines()) > 1
        if "#" in text or breaks or text != text.strip() or not text.isascii():
            raise ValueError(f"config value {key} = {text!r} would not read back")


def write_config(values: dict[str, object], path) -> None:
    check_config(values)
    lines = [f"{k} = {v}" for k, v in values.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
