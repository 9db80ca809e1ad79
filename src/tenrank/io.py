"""Text file formats: tensors, certificates, scan reports.

All formats are line-oriented UTF-8, diffable, and round-trip bit-exactly:
parse(serialize(x)) == x.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .errors import BadParamsError, ParseError
from .fields import Elem, Field, format_value, parse_field, parse_value
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


def _field_line(parts, ln: str) -> Field:
    if len(parts) != 2:
        raise ParseError(f"bad field line {ln!r}")
    try:
        return parse_field(parts[1])
    except BadParamsError as exc:
        raise ParseError(f"bad field line {ln!r}: {exc}") from exc


def _ints(words, ln: str, lowest: int) -> list:
    """The integers spelled by `words` of line `ln`, each at least `lowest`."""
    try:
        values = [int(w) for w in words]
    except ValueError as exc:
        raise ParseError(f"non-integer value in {ln!r}") from exc
    if any(v < lowest for v in values):
        raise ParseError(f"value below {lowest} in {ln!r}")
    return values


def _value(field: Field, word: str, ln: str) -> Elem:
    """The scalar spelled by `word` of line `ln`."""
    try:
        return parse_value(field, word)
    except BadParamsError as exc:
        raise ParseError(f"bad value in {ln!r}: {exc}") from exc


def parse_tensor(text: str) -> Tensor3:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != TENSOR_HEADER:
        raise ParseError(f"expected '{TENSOR_HEADER}' header")
    field = None
    dims = None
    entries: Dict[Tuple[int, int, int], object] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "field":
            field = _field_line(parts, ln)
        elif parts[0] == "dims":
            if len(parts) != 4:
                raise ParseError(f"bad dims line: {ln!r}")
            dims = tuple(_ints(parts[1:], ln, 0))
            guard_dims(dims)
        else:
            if field is None or dims is None:
                raise ParseError("entry line before field/dims header")
            if len(parts) != 4:
                raise ParseError(f"bad entry line: {ln!r}")
            try:
                i, j, k = (int(x) - 1 for x in parts[:3])
            except ValueError as exc:
                raise ParseError(f"bad index in {ln!r}") from exc
            if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
                raise ParseError(f"index out of range in {ln!r}")
            if (i, j, k) in entries:
                raise ParseError(f"duplicate coordinate in {ln!r}")
            v = _value(field, parts[3], ln)
            if field.is_zero(v):
                raise ParseError(f"explicit zero entry in {ln!r}")
            entries[(i, j, k)] = v
    if field is None or dims is None:
        raise ParseError("missing field or dims header")
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
    """The single integer argument of a `power` or `r` line, at least `lowest`."""
    if len(parts) != 2:
        raise ParseError(f"bad {parts[0]} line {ln!r}")
    return _ints(parts[1:], ln, lowest)[0]


def parse_certificate(text: str):
    """Returns (Degeneration, Field)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != CERT_HEADER:
        raise ParseError(f"expected '{CERT_HEADER}' header")
    field = None
    power = None
    r = None
    maps = []
    cur = None  # (rows, cols, entries)
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "field":
            field = _field_line(parts, ln)
        elif parts[0] == "power":
            power = _count_line(parts, ln, 1)
        elif parts[0] == "r":
            r = _count_line(parts, ln, 0)
        elif parts[0] == "map":
            if len(parts) != 6 or parts[2] != "rows" or parts[4] != "cols":
                raise ParseError(f"bad map header {ln!r}")
            if cur is not None:
                maps.append(cur)
            rows, cols = _ints((parts[3], parts[5]), ln, 0)
            cur = (rows, cols, {})
        else:
            if cur is None or field is None:
                raise ParseError(f"entry line outside a map block: {ln!r}")
            if len(parts) != 4:
                raise ParseError(f"bad quadruple {ln!r}")
            try:
                i, j = int(parts[0]) - 1, int(parts[1]) - 1
                e = int(parts[2])
            except ValueError as exc:
                raise ParseError(f"bad quadruple {ln!r}") from exc
            if not (0 <= i < cur[0] and 0 <= j < cur[1]):
                raise ParseError(f"quadruple outside its {cur[0]}x{cur[1]} map in {ln!r}")
            poly = cur[2].setdefault((i, j), {})
            if e in poly:
                raise ParseError(f"duplicate quadruple in {ln!r}")
            v = _value(field, parts[3], ln)
            if field.is_zero(v):
                raise ParseError(f"explicit zero quadruple in {ln!r}")
            poly[e] = v
    if cur is not None:
        maps.append(cur)
    if field is None or power is None or r is None or len(maps) != 3:
        raise ParseError("certificate missing field/power/r or map blocks")
    lms = tuple(LaurentMatrix(field, rows, cols, ent) for rows, cols, ent in maps)
    return Degeneration(lms, claimed_r=r, power=power), field


def certificate_of_restriction(res: Restriction, r: int, power: int) -> Degeneration:
    """Embed an exact restriction as an exponent-0 degeneration, so both
    certificate kinds share one file format and one verification path."""
    return Degeneration.from_restriction(res, r, power)
