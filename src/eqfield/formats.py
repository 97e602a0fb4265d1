"""EQF binary field files and plain-text key=value manifests.

EQF layout: one ASCII header line

    EQF1 dim=<d> l=<l> shape=<n1,n2[,n3]> spacing=<s1,...> origin=<o1,...> boundary=<zero|periodic>

optionally extended with extra key=value tokens, which the reader returns
unparsed (kernel files once carried kind=<sampled|stencil>; it is ignored),
followed by the raw component array as little-endian 64-bit floats,
component-major and row-major (C order) within a component.  Floats in the
header are printed with 17 significant digits so the round trip is bit-exact.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .fields import TensorField
from .grid import Grid, GridError

MAGIC = "EQF1"


class FormatError(ValueError):
    pass


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _header_line(field: TensorField) -> str:
    g = field.grid
    tokens = [
        MAGIC,
        f"dim={g.dim}",
        f"l={field.l}",
        "shape=" + ",".join(str(n) for n in g.shape),
        "spacing=" + ",".join(fmt_float(s) for s in g.spacing),
        "origin=" + ",".join(fmt_float(o) for o in g.origin),
        f"boundary={g.boundary}",
    ]
    return " ".join(tokens) + "\n"


def write_eqf(path, field: TensorField) -> None:
    with open(path, "wb") as fh:
        fh.write(_header_line(field).encode("ascii"))
        fh.write(np.ascontiguousarray(field.components, dtype="<f8").tobytes())


def read_eqf(path) -> tuple[TensorField, dict]:
    """Read an EQF file; returns the field plus any extra header tokens."""
    with open(path, "rb") as fh:
        header = fh.readline(4097)   # at most 4096 bytes before the newline
        if not header.endswith(b"\n"):
            raise FormatError(f"{path}: " + ("header line too long" if len(header) > 4096
                                             else "truncated header"))
        payload = fh.read()
    try:
        tokens = header.decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: header is not ASCII") from exc
    if not tokens or tokens[0] != MAGIC:
        raise FormatError(f"{path}: missing {MAGIC} magic")
    kv = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise FormatError(f"{path}: malformed header token {tok!r}")
        k, v = tok.split("=", 1)
        kv[k] = v
    try:
        dim = int(kv.pop("dim"))
        l = int(kv.pop("l"))
        shape = tuple(int(n) for n in kv.pop("shape").split(","))
        spacing = tuple(float(s) for s in kv.pop("spacing").split(","))
        origin = tuple(float(o) for o in kv.pop("origin").split(","))
        boundary = kv.pop("boundary")
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad header: {exc}") from exc
    if dim != len(shape):
        raise FormatError(f"{path}: dim={dim} does not match shape {shape}")
    try:
        grid = Grid(shape, spacing, origin, boundary)
    except GridError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if len(payload) % 8:
        raise FormatError(f"{path}: payload of {len(payload)} bytes is not whole 64-bit floats")
    data = np.frombuffer(payload, dtype="<f8")
    n_per_comp = math.prod(shape)
    if data.size % n_per_comp != 0:
        raise FormatError(f"{path}: payload size {data.size} not a multiple of the grid size")
    n_comp = data.size // n_per_comp
    try:
        field = TensorField(grid, l, data.reshape((n_comp,) + shape).copy())
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return field, kv


def write_keyvalues(path, entries: dict) -> None:
    """Write a plain-text key=value manifest (floats at 17 significant digits)."""
    with open(path, "w") as fh:
        fh.write(format_keyvalues(entries))


def format_keyvalues(entries: dict) -> str:
    lines = []
    for k, v in entries.items():
        if isinstance(v, float):
            v = fmt_float(v)
        elif isinstance(v, (list, tuple, np.ndarray)):
            v = ",".join(fmt_float(x) if isinstance(x, (float, np.floating)) else str(x)
                         for x in v)
        lines.append(f"{k}={v}")
    return "\n".join(lines) + "\n"


@contextmanager
def manifest_values(path):
    """Report a missing key or an unparsable value of a manifest as a FormatError."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{path}: missing key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: bad value: {exc}") from exc


def manifest_lines(path) -> list:
    """The stripped lines of a UTF-8 text manifest, blank and '#' lines skipped."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text") from exc
    return [line for line in (raw.strip() for raw in lines)
            if line and not line.startswith("#")]


def read_keyvalues(path) -> dict:
    out = {}
    for line in manifest_lines(path):
        if "=" not in line:
            raise FormatError(f"{path}: malformed line {line!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out
