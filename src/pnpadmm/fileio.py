"""File formats: binary PGM images (read into and written from
:class:`ImageGrid`), trace CSV, and flat key=value configs."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import readonly_vector
from .sequences import ConditionFlag, ConditionTrace


@dataclass(frozen=True)
class ImageGrid:
    """A width x height image stored as a flat row-major float64 vector: the
    form in which an image is read from or written to a file, or made by a
    preset.

    pixels is a read-only view of the given array, not a copy.
    """

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        arr = readonly_vector(self.pixels, "pixels")
        if arr.size != self.width * self.height:
            raise ValueError(
                f"pixel count {arr.size} != width*height "
                f"{self.width * self.height}"
            )
        object.__setattr__(self, "pixels", arr)

    @property
    def dim(self) -> int:
        return self.width * self.height

    def to_array(self) -> np.ndarray:
        """Return a writable (height, width) copy."""
        return self.pixels.reshape(self.height, self.width).copy()

    @classmethod
    def from_array(cls, arr) -> "ImageGrid":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
        h, w = arr.shape
        return cls(width=w, height=h, pixels=arr.reshape(-1))


TRACE_COLUMNS = ("iter", "delta", "rho", "sigma", "condition", "fidelity_value")


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

def _read_pgm_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read whitespace-separated header tokens, skipping # comments."""
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise PgmFormatError("truncated header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    return tokens, i


def load_image(path) -> ImageGrid:
    """Load an 8-bit binary PGM, mapping [0, maxval] to [0, 1]."""
    data = Path(path).read_bytes()
    tokens, pos = _read_pgm_tokens(data, 4)
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
    return ImageGrid(width=width, height=height, pixels=pixels)


def save_image(img: ImageGrid, path) -> None:
    """Write an 8-bit binary PGM, round-half-up with clamping to [0, 255]."""
    levels = np.floor(img.pixels * 255.0 + 0.5)
    levels = np.clip(levels, 0, 255).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + levels.tobytes())


# ---------------------------------------------------------------------------
# Trace CSV

def serialize_trace(trace: ConditionTrace) -> str:
    lines = [",".join(TRACE_COLUMNS)]
    columns = (trace.deltas, trace.rhos, trace.sigmas, trace.fidelity_values)
    rows = zip(*(c.tolist() for c in columns), trace.row_flags)
    for k, (delta, rho, sigma, value, flag) in enumerate(rows, start=1):
        cond = "NA" if flag is None else flag.value
        lines.append(
            f"{k},{_fmt(delta)},{_fmt(rho)},{_fmt(sigma)},{cond},{_fmt(value)}"
        )
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: ConditionTrace, path) -> None:
    Path(path).write_text(serialize_trace(trace), encoding="ascii", newline="")


def parse_trace(text: str) -> dict:
    """The columns of a trace CSV under their ConditionTrace field names:
    ``ConditionTrace(**parse_trace(text), gamma=..., eta=...)`` is the trace.

    The iterations must read 1..n in order, and the condition must be NA
    on the first row alone, where :attr:`ConditionTrace.row_flags` puts it.
    """
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != TRACE_COLUMNS:
        raise TraceFormatError(
            f"expected header {','.join(TRACE_COLUMNS)}", line=1
        )
    rows: list[tuple[float, float, float, float]] = []
    flags: list[ConditionFlag] = []
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
            delta, rho, sigma, value = (float(parts[i]) for i in (1, 2, 3, 5))
        except ValueError as exc:
            raise TraceFormatError(str(exc), line=lineno) from exc
        if iteration != k:
            raise TraceFormatError(f"expected iteration {k}, got {iteration}", line=lineno)
        label = parts[4]
        if label != "NA":
            try:
                flags.append(ConditionFlag(label))
            except ValueError as exc:
                raise TraceFormatError(f"bad condition {label!r}", line=lineno) from exc
        if (label == "NA") != (k == 1):
            raise TraceFormatError(
                f"condition {label} at iteration {k}: NA belongs to iteration 1 alone",
                line=lineno,
            )
        rows.append((delta, rho, sigma, value))
    columns = np.array(rows, dtype=float).reshape(-1, 4).T
    names = ("deltas", "rhos", "sigmas", "fidelity_values")
    return {**dict(zip(names, columns)), "flags": tuple(flags)}


def read_trace_csv(path) -> dict:
    return parse_trace(Path(path).read_text(encoding="ascii"))


def infer_gamma(rhos, flags) -> float | None:
    """Recover the penalty growth factor from the first C1 flag, if any."""
    for i, flag in enumerate(flags):
        if flag == ConditionFlag.C1:
            return float(rhos[i + 1] / rhos[i])
    return None


def infer_eta(deltas, flags) -> float:
    """Tightest threshold consistent with the flags: min C1 residual ratio.

    Any eta in (max C2 ratio, min C1 ratio] reproduces the recorded flags;
    using the upper end can only enlarge downstream envelopes, never
    invalidate them.  The rounded ratio can sit one step above the true
    one, so it is stepped down until every C1 flag passes the product
    test d_next >= eta * d_prev that the flags were made with.
    """
    deltas = np.asarray(deltas, dtype=float)
    d_prev, d_next = deltas[:-1], deltas[1:]
    is_c1 = np.array([flag == ConditionFlag.C1 for flag in flags], dtype=bool)
    positive = d_prev > 0
    c1_prev, c1_next = d_prev[is_c1 & positive], d_next[is_c1 & positive]
    if c1_prev.size:
        best = float(np.min(c1_next / c1_prev))
        if 0 < best < 1:
            while np.any(best * c1_prev > c1_next):
                best = float(np.nextafter(best, 0.0))
            return best
    # all-C2 traces leave eta unconstrained from above; any valid value
    # at least as large as every C2 ratio keeps the flags consistent
    c2 = ~is_c1 & positive
    worst_c2 = float(np.max(d_next[c2] / d_prev[c2], initial=0.0))
    return float(min(0.5 * (worst_c2 + 1.0) if worst_c2 > 0 else 0.5, 1.0 - 1e-9))


# ---------------------------------------------------------------------------
# Flat key=value config files

def parse_config(path) -> dict[str, str]:
    """Parse lines of the form ``key = value``; # starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
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
