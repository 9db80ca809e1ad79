"""Text file formats: tensors, certificates, scan reports.

All formats are line-oriented UTF-8, diffable, and round-trip bit-exactly:
parse(serialize(x)) == x.  Both parsers read through one reader, `_read`,
and every message quotes input through `errors.shown`.
"""

from __future__ import annotations

from functools import partial

from .errors import BadParamsError, ParseError, shown
from .fields import Field, format_value, parse_field, parse_value
from .laurent import Degeneration, LaurentMatrix
from .tensor import Restriction, Tensor3, guard_dims

TENSOR_HEADER = "tensor v1"
CERT_HEADER = "certificate v1"


def serialize_tensor(t: Tensor3) -> str:
    lines = [
        TENSOR_HEADER,
        f"field {t.field.tag}",
        f"dims {t.dims[0]} {t.dims[1]} {t.dims[2]}",
    ]
    for (i, j, k), v in t.nonzero_items():
        lines.append(f"{i + 1} {j + 1} {k + 1} {format_value(v)}")
    return "\n".join(lines) + "\n"


def _ints(words, ln: str, lowest: int | None = None) -> list:
    """The integers spelled by `words` of line `ln`, each at least `lowest`
    when one is given: the one reader of integers in files and on the command
    line.  A word that is not an integer, or has more digits than `int`
    converts, is a ParseError that quotes `ln` through `shown`."""
    try:
        values = [int(w) for w in words]
    except ValueError as exc:
        raise ParseError(f"non-integer value in {shown(ln)}") from exc
    if lowest is not None and any(v < lowest for v in values):
        raise ParseError(f"value below {lowest} in {shown(ln)}")
    return values


def _read(text: str, header: str, heads: dict, block: str):
    """Read a v1 file: the reader both formats share.

    The first line that is not blank and does not start with '#' must be
    `header`; the rest of those lines are read in order.  A `field` line sets
    the field.  A line whose first word is a key of `heads` goes to that
    function of (words, line), and the last value of each key is kept; a
    `block` line's value, a shape, also starts a block of entries.  Every
    other line is an entry of the latest block: four words, the first three
    integers, of which the first len(shape) are one-based indices within the
    shape, kept zero-based (a certificate's exponent is the free third), and a
    nonzero value; a key appears at most once per block.  Returns (field or
    None, values by key, [(shape, {key: value}), ...]).
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise ParseError(f"expected '{header}' header")
    field, values, blocks = None, {}, []
    for ln in lines[1:]:
        parts = ln.split()
        word = parts[0]
        if word == "field":
            if len(parts) != 2:
                raise ParseError(f"bad field line {shown(ln)}")
            try:
                field = parse_field(parts[1])
            except BadParamsError as exc:
                raise ParseError(f"bad field line: {exc}") from exc
        elif word in heads:
            values[word] = heads[word](parts, ln)
            if word == block:
                blocks.append((values[word], {}))
        elif field is None or not blocks:
            raise ParseError(f"entry line before the field and {block} lines: {shown(ln)}")
        else:
            shape, entries = blocks[-1]
            if len(parts) != 4:
                raise ParseError(f"bad entry line {shown(ln)}")
            try:
                key = [int(w) for w in parts[:3]]
            except ValueError as exc:
                raise ParseError(f"non-integer index in {shown(ln)}") from exc
            for a, n in enumerate(shape):
                key[a] -= 1
                if not 0 <= key[a] < n:
                    raise ParseError(f"index outside its {'x'.join(map(shown, shape))} block in {shown(ln)}")
            key = tuple(key)
            if key in entries:
                raise ParseError(f"duplicate entry in {shown(ln)}")
            try:
                v = parse_value(field, parts[3])
            except BadParamsError as exc:
                raise ParseError(f"{exc} in {shown(ln)}") from exc
            if field.is_zero(v):
                raise ParseError(f"explicit zero entry in {shown(ln)}")
            entries[key] = v
    return field, values, blocks


def _dims_line(parts, ln: str) -> tuple:
    if len(parts) != 4:
        raise ParseError(f"bad dims line {shown(ln)}")
    dims = tuple(_ints(parts[1:], ln, 0))
    guard_dims(dims)
    return dims


def parse_tensor(text: str) -> Tensor3:
    field, _, blocks = _read(text, TENSOR_HEADER, {"dims": _dims_line}, "dims")
    if field is None or len(blocks) != 1:
        raise ParseError("a tensor needs one field line and one dims line")
    dims, entries = blocks[0]
    return Tensor3(field, dims, entries)


def serialize_certificate(d: Degeneration, field: Field) -> str:
    lines = [
        CERT_HEADER,
        f"field {field.tag}",
        f"power {d.power}",
        f"r {d.claimed_r}",
    ]
    for leg, m in enumerate(d.maps, start=1):
        lines.append(f"map {leg} rows {m.rows} cols {m.cols}")
        for (i, j) in sorted(m.entries):
            for e in sorted(m.entries[(i, j)]):
                v = m.entries[(i, j)][e]
                lines.append(f"{i + 1} {j + 1} {e} {format_value(v)}")
    return "\n".join(lines) + "\n"


def _count_line(parts, ln: str, lowest: int) -> int:
    """The one integer of a `power` or `r` line, at least `lowest`."""
    if len(parts) != 2:
        raise ParseError(f"bad {parts[0]} line {shown(ln)}")
    return _ints(parts[1:], ln, lowest)[0]


def _map_line(parts, ln: str) -> tuple:
    if len(parts) != 6 or parts[2] != "rows" or parts[4] != "cols":
        raise ParseError(f"bad map header {shown(ln)}")
    return tuple(_ints((parts[3], parts[5]), ln, 0))


_CERT_LINES = {"power": partial(_count_line, lowest=1), "r": partial(_count_line, lowest=0), "map": _map_line}


def parse_certificate(text: str):
    """Returns (Degeneration, Field)."""
    field, values, maps = _read(text, CERT_HEADER, _CERT_LINES, "map")
    if field is None or "power" not in values or "r" not in values or len(maps) != 3:
        raise ParseError("certificate missing field/power/r or map blocks")
    lms = []
    for (rows, cols), quads in maps:
        ent = {}
        for (i, j, e), v in quads.items():
            ent.setdefault((i, j), {})[e] = v
        lms.append(LaurentMatrix(field, rows, cols, ent))
    return Degeneration(tuple(lms), claimed_r=values["r"], power=values["power"]), field


def certificate_of_restriction(res: Restriction, r: int, power: int) -> Degeneration:
    """Embed an exact restriction as an exponent-0 degeneration, so both
    certificate kinds share one file format and one verification path."""
    return Degeneration.from_restriction(res, r, power)
