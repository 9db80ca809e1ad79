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
    return serialize_items(t.field, t.dims, t.nonzero_items())


def serialize_items(field: Field, dims, items) -> str:
    """The tensor file of the nonzero items ((i, j, k), v), in the order
    given: the one writer of tensor files."""
    lines = [TENSOR_HEADER, f"field {field.tag}", f"dims {dims[0]} {dims[1]} {dims[2]}"]
    lines += [f"{i + 1} {j + 1} {k + 1} {format_value(v)}" for (i, j, k), v in items]
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
    `header`; the rest of those lines are read in order, each in one pass.  A
    `field` line sets the field, and a second one is refused.  A line whose
    first word is a key of `heads` goes to that function of (words, line), and
    the last value of each key is kept; a `block` line's value, a shape of two
    or three counts, also starts a block of entries.  Every other line is an
    entry of the latest block: four words, the first three integers, of which
    the first len(shape) are one-based indices within the shape, kept
    zero-based (a certificate's exponent is the free third), and a nonzero
    value; a key appears at most once per block.  Returns (field or None,
    values by key, [(shape, {key: value}), ...]).
    """
    lines = filter(None, (ln.strip() for ln in text.splitlines() if not ln.startswith("#")))
    if next(lines, None) != header:
        raise ParseError(f"expected '{header}' header")
    field, values, blocks = None, {}, []
    for ln in lines:
        parts = ln.split()
        word = parts[0]
        if word == "field":
            if len(parts) != 2:
                raise ParseError(f"bad field line {shown(ln)}")
            if field is not None:
                # entries already read were typed by the first field line
                raise ParseError(f"second field line {shown(ln)}")
            try:
                field = parse_field(parts[1])
            except BadParamsError as exc:
                raise ParseError(f"bad field line: {exc}") from exc
        elif word in heads:
            values[word] = heads[word](parts, ln)
            if word == block:
                # the block's bounds, bound once for all its entries
                shape = values[word]
                n1, n2 = shape[0], shape[1]
                n3 = shape[2] if len(shape) == 3 else None
                entries = {}
                blocks.append((shape, entries))
        elif field is None or not blocks:
            raise ParseError(f"entry line before the field and {block} lines: {shown(ln)}")
        else:
            if len(parts) != 4:
                raise ParseError(f"bad entry line {shown(ln)}")
            try:
                i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ParseError(f"non-integer index in {shown(ln)}") from exc
            if not (0 < i <= n1 and 0 < j <= n2 and (n3 is None or 0 < k <= n3)):
                raise ParseError(f"index outside its {'x'.join(map(shown, shape))} block in {shown(ln)}")
            key = (i - 1, j - 1, k if n3 is None else k - 1)
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
    # the reader checked every index and refused zeros and repeats, and
    # parse_value made every value canonical, so each goes to its place as it is
    n1, n2, n3 = dims
    flat = [field.zero()] * (n1 * n2 * n3)
    for (i, j, k), v in entries.items():
        flat[(i * n2 + j) * n3 + k] = v
    return Tensor3(field, dims, flat)


def serialize_certificate(d: Degeneration, field: Field) -> str:
    lines = [
        CERT_HEADER,
        f"field {field.tag}",
        f"power {d.power}",
        f"r {d.claimed_r}",
    ]
    for leg, m in enumerate(d.maps, start=1):
        lines.append(f"map {leg} rows {m.rows} cols {m.cols}")
        # (i, j, e) is unique, so the sort never compares coefficients
        lines += [f"{i + 1} {j + 1} {e} {format_value(v)}" for i, j, e, v in sorted(m.terms())]
    return "\n".join(lines) + "\n"


def _count_line(parts, ln: str, lowest: int) -> int:
    """The one integer of a `power` or `r` line, at least `lowest`."""
    if len(parts) != 2:
        raise ParseError(f"bad {parts[0]} line {shown(ln)}")
    return _ints(parts[1:], ln, lowest)[0]


def _map_line(parts, ln: str, legs) -> tuple:
    """The (rows, cols) of a `map` line, whose leg word must be the next of
    `legs`."""
    if len(parts) != 6 or parts[1] != next(legs, None) or parts[2] != "rows" or parts[4] != "cols":
        raise ParseError(f"bad map header {shown(ln)}")
    return tuple(_ints((parts[3], parts[5]), ln, 0))


def _cert_lines() -> dict:
    """The head lines of one certificate file, for `_read`: `power`, `r`,
    and `map 1`, `map 2` and `map 3`, in that order."""
    return {"power": partial(_count_line, lowest=1), "r": partial(_count_line, lowest=0),
            "map": partial(_map_line, legs=iter("123"))}


def parse_certificate(text: str):
    """Returns (Degeneration, Field)."""
    field, values, maps = _read(text, CERT_HEADER, _cert_lines(), "map")
    if field is None or "power" not in values or "r" not in values or len(maps) != 3:
        raise ParseError("certificate missing field/power/r or map blocks")
    lms = []
    for (rows, cols), quads in maps:
        # the reader checked every index and refused zeros and repeats, so
        # the terms go to their columns as they are
        columns = {}
        for (i, j, e), v in quads.items():
            columns.setdefault(j, []).append((i, e, v))
        lms.append(LaurentMatrix._of_columns(field, rows, cols, columns))
    return Degeneration(tuple(lms), claimed_r=values["r"], power=values["power"]), field


def certificate_of_restriction(res: Restriction, r: int, power: int) -> Degeneration:
    """Embed an exact restriction as an exponent-0 degeneration, so both
    certificate kinds share one file format and one verification path."""
    return Degeneration.from_restriction(res, r, power)
