"""EQF binary field files and plain-text key=value manifests.

This module alone encodes values as text: ``fmt_value`` writes floats at 17
significant digits (bit-exact round trips) and lists comma-joined,
``parse_list`` reads lists back, and ``grid_entries``/``grid_from_entries``
write and read the grid keys of EQF headers and model manifests.

EQF layout: one ASCII header line

    EQF1 dim=<d> l=<l> shape=<n1,n2[,n3]> spacing=<s1,...> origin=<o1,...> boundary=<zero|periodic>

optionally extended with extra key=value tokens, which the reader returns
unparsed (kernel files once carried kind=<sampled|stencil>; it is ignored),
followed by the raw component array as little-endian 64-bit floats,
component-major and row-major (C order) within a component.
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


def fmt_value(v) -> str:
    """Floats at 17 significant digits, sequences comma-joined, the rest by str."""
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (list, tuple, np.ndarray)):
        return ",".join(fmt_value(x) for x in v)
    return str(v)


def parse_list(text: str, kind) -> list:
    """Read a ``fmt_value`` list back: '' is [], and an item that does not
    parse, an empty one included, raises a FormatError naming its position."""
    out = []
    for i, x in enumerate(text.split(",") if text else [], 1):
        try:
            out.append(kind(x))
        except ValueError:
            raise FormatError(f"item {i} is not {kind.__name__}: {x!r}") from None
    return out


def grid_entries(grid: Grid) -> dict:
    """A grid as text keys, in header order; ``grid_from_entries`` reads them."""
    return {"dim": grid.dim, "shape": grid.shape, "spacing": grid.spacing,
            "origin": grid.origin, "boundary": grid.boundary}


def grid_from_entries(kv: dict) -> Grid:
    """Pops ``grid_entries``' keys from ``kv``; a dim that is not len(shape)
    or a bad geometry is a GridError."""
    dim = int(kv.pop("dim"))
    shape = tuple(parse_list(kv.pop("shape"), int))
    if dim != len(shape):
        raise GridError(f"dim={dim} does not match shape {shape}")
    return Grid(shape, parse_list(kv.pop("spacing"), float),
                parse_list(kv.pop("origin"), float), kv.pop("boundary"))


def _header_line(field: TensorField) -> str:
    # listing dim first keeps it ahead of l when grid_entries repeats it
    entries = {"dim": field.grid.dim, "l": field.l, **grid_entries(field.grid)}
    return " ".join([MAGIC] + [f"{k}={fmt_value(v)}" for k, v in entries.items()]) + "\n"


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
    kv = _pairs(path, tokens[1:], "header token")
    try:
        l = int(kv.pop("l"))
        grid = grid_from_entries(kv)
    except (KeyError, ValueError) as exc:   # GridError included
        raise FormatError(f"{path}: bad header: {exc}") from exc
    if len(payload) % 8:
        raise FormatError(f"{path}: payload of {len(payload)} bytes is not whole 64-bit floats")
    data = np.frombuffer(payload, dtype="<f8")
    n_per_comp = math.prod(grid.shape)
    if data.size % n_per_comp != 0:
        raise FormatError(f"{path}: payload size {data.size} not a multiple of the grid size")
    n_comp = data.size // n_per_comp
    try:
        field = TensorField(grid, l, data.reshape((n_comp,) + grid.shape).copy())
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return field, kv


def write_keyvalues(path, entries: dict) -> None:
    """Write a plain-text key=value manifest (floats at 17 significant digits)."""
    with open(path, "w") as fh:
        fh.write(format_keyvalues(entries))


def format_keyvalues(entries: dict) -> str:
    return "".join(f"{k}={fmt_value(v)}\n" for k, v in entries.items())


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


def _pairs(path, items, what: str) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise FormatError(f"{path}: malformed {what} {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def read_keyvalues(path) -> dict:
    return _pairs(path, manifest_lines(path), "line")
