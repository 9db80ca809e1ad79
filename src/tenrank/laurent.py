"""Laurent-polynomial matrices and border-subrank degeneration certificates.

A degeneration certificate is a triple of Laurent matrices (A(e), B(e), C(e))
together with a claimed size r and a power m; it verifies against a tensor T
when applying it to T^(x)m yields the size-r diagonal tensor at exponent 0
and nothing at negative exponents.  Restrictions embed as Laurent matrices
supported at exponent 0, so one verification path covers both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .errors import (
    BadParamsError,
    FieldTooSmallError,
    ShapeMismatchError,
    VerificationFailedError,
    shown,
)
from .fields import Elem, Field, PrimeField
from .matrix import Matrix, _combination, rank
from .spans import combine, span_of
from .tensor import (
    Restriction,
    Tensor3,
    apply_restriction,
    contract,
    matrix_terms,
    power_dims,
    unit,
)

LaurentPoly = Dict[int, Elem]  # exponent -> nonzero coefficient


def poly_add(field: Field, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    out = dict(a)
    for e, v in b.items():
        s = field.add(out.get(e, field.zero()), v)
        if field.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def poly_mul(field: Field, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    out: LaurentPoly = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = ea + eb
            s = field.add(out.get(e, field.zero()), field.mul(va, vb))
            if field.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return out


def poly_eval(field: Field, a: LaurentPoly, x: Elem) -> Elem:
    """Evaluate at a field point; x must be nonzero if negative exponents occur."""
    acc = field.zero()
    for e, v in a.items():
        if e >= 0:
            acc = field.add(acc, field.mul(v, _power(field, x, e)))
        else:
            acc = field.add(acc, field.mul(v, _power(field, field.inv(x), -e)))
    return acc


def _power(field: Field, x: Elem, e: int) -> Elem:
    acc = field.one()
    for _ in range(e):
        acc = field.mul(acc, x)
    return acc


class LaurentMatrix:
    """Sparse matrix whose entries are Laurent polynomials in one variable."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: Dict[Tuple[int, int], LaurentPoly]):
        self.field = field
        self.rows = rows
        self.cols = cols
        clean = {}
        for (i, j), poly in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatchError(f"laurent entry {(i, j)} out of range")
            poly = {e: v for e, v in poly.items() if not field.is_zero(v)}
            if poly:
                clean[(i, j)] = poly
        self.entries = clean

    @classmethod
    def from_matrix(cls, m: Matrix) -> "LaurentMatrix":
        ent = {(a, j): {0: v} for j, col in enumerate(matrix_terms(m)) for a, _, v in col}
        return cls(m.field, m.rows, m.cols, ent)

    def scale_rows(self, exponents: Sequence[int]) -> "LaurentMatrix":
        """Multiply row i by e^exponents[i]."""
        ent = {}
        for (i, j), poly in self.entries.items():
            ent[(i, j)] = {e + exponents[i]: v for e, v in poly.items()}
        return LaurentMatrix(self.field, self.rows, self.cols, ent)

    def mul(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ShapeMismatchError("laurent matmul shape mismatch")
        f = self.field
        by_row: Dict[int, list] = {}
        for (i, k), poly in self.entries.items():
            by_row.setdefault(i, []).append((k, poly))
        by_k: Dict[int, list] = {}
        for (k, j), poly in other.entries.items():
            by_k.setdefault(k, []).append((j, poly))
        out: Dict[Tuple[int, int], LaurentPoly] = {}
        for i, left in by_row.items():
            for k, pa in left:
                for j, pb in by_k.get(k, ()):
                    prod = poly_mul(f, pa, pb)
                    key = (i, j)
                    out[key] = poly_add(f, out.get(key, {}), prod)
        return LaurentMatrix(f, self.rows, other.cols, out)

    def evaluate(self, x: Elem) -> Matrix:
        f = self.field
        ent = {}
        for key, poly in self.entries.items():
            v = poly_eval(f, poly, x)
            if not f.is_zero(v):
                ent[key] = v
        return Matrix.from_entries(f, self.rows, self.cols, ent)

    def column_terms(self):
        """Per column, its (row, exponent, coefficient) terms, in the form
        `tensor.contract` takes."""
        cols = [[] for _ in range(self.cols)]
        for (i, j), poly in self.entries.items():
            cols[j].extend((i, e, v) for e, v in poly.items())
        return cols


@dataclass(frozen=True)
class Degeneration:
    """Certificate that T^(x)power degenerates to the unit tensor of size
    claimed_r (border-subrank witness)."""

    maps: Tuple[LaurentMatrix, LaurentMatrix, LaurentMatrix]
    claimed_r: int
    power: int = 1

    @property
    def target_dims(self):
        return tuple(m.rows for m in self.maps)

    @classmethod
    def from_restriction(cls, r: Restriction, claimed_r: int, power: int = 1) -> "Degeneration":
        return cls(tuple(LaurentMatrix.from_matrix(m) for m in r.maps), claimed_r, power)


def apply_degeneration(d: Degeneration, t: Tensor3, *, power: int = 1) -> Dict[int, Tensor3]:
    """Coefficient tensors of (A(e) (x) B(e) (x) C(e)) T^(x)power per
    exponent of e, streamed from t's nonzeros without building the power."""
    dims = power_dims(t, power)
    src = tuple(m.cols for m in d.maps)
    if src != dims:
        raise ShapeMismatchError(f"degeneration expects source dims {src}, tensor has {dims}")
    out = contract(t, [m.column_terms() for m in d.maps], power=power)
    return {e: Tensor3(t.field, d.target_dims, out[e]) for e in sorted(out)}


@dataclass(frozen=True)
class DegenerationReport:
    ok: bool
    reason: str = ""


def verify_degeneration(d: Degeneration, t: Tensor3, *, power: int = 1, explain: bool = False):
    """True iff, applied to t^(x)power, no negative exponents appear and the
    exponent-0 coefficient is exactly the unit tensor of size claimed_r."""
    reason = _degeneration_failure(d, t, power)
    return DegenerationReport(not reason, reason) if explain else not reason


def _degeneration_failure(d: Degeneration, t: Tensor3, power: int) -> str:
    """Why d does not verify on t^(x)power, or "" when it does."""
    dims = power_dims(t, power)  # the power guard trips before any other check
    src = tuple(m.cols for m in d.maps)
    if d.claimed_r > min(dims):
        # a degeneration onto the unit tensor of size r needs r <= every
        # flattening rank, so a larger claim fails before anything is built
        return f"claimed r {shown(d.claimed_r)} exceeds the smallest dimension {min(dims)}"
    if d.target_dims != (d.claimed_r,) * 3:
        return f"target dims {shown(d.target_dims)} != unit dims"
    if src != dims:
        return f"source dims {shown(src)} != tensor dims {dims}"
    terms = apply_degeneration(d, t, power=power)
    neg = [e for e in terms if e < 0]
    if neg:
        return f"negative exponent {shown(min(neg))} present"
    if terms.get(0, Tensor3.zeros(t.field, d.target_dims)) != unit(t.field, d.claimed_r):
        return "exponent-0 coefficient is not the unit tensor"
    return ""


def mamu_border_lb(e: int, h: int, l: int) -> int:
    """Border-subrank lower bound for the (e, h, l) matrix multiplication
    tensor, e <= h <= l: e*h - floor((e+h-l)^2/4) when e+h >= l, else e*h.
    Always at least ceil(3*e*h/4)."""
    if not (1 <= e <= h <= l):
        raise BadParamsError(f"need 1 <= e <= h <= l, got {(e, h, l)}")
    if e + h >= l:
        val = e * h - ((e + h - l) ** 2) // 4
    else:
        val = e * h
    if 4 * val < 3 * e * h:
        raise VerificationFailedError("border bound fell below 3eh/4")  # pragma: no cover
    return val


def border_le_qi_extract(d: Degeneration, t: Tensor3, direction: int):
    """From a verified degeneration on t (already the power tensor), certify
    that the direction-`direction` slice span of t has max-rank at least
    claimed_r: returns (x, coefficients, combined slice, rank).

    Scans nonzero field points for one where the determinant of the summed
    slices is nonzero; the determinant is a nonzero polynomial because its
    value at e = 0 is 1.
    """
    f = t.field
    q = d.claimed_r
    size = f.size()
    if size is not None and size <= q + 1:
        raise FieldTooSmallError(f"extraction needs |F| > {q + 1}, have {size}")
    if not verify_degeneration(d, t):
        raise BadParamsError("degeneration does not verify against the tensor")
    # candidate points in canonical order, skipping 0 (maps may have e^-k);
    # the determinant polynomial has finitely many roots, so over Q a fixed
    # generous range always suffices at certificate degrees seen in practice
    if isinstance(f, PrimeField):
        candidates = range(1, f.p)
    else:
        candidates = range(1, 1000 * (q + 2))
    for xi in candidates:
        x = f.normalize(xi)
        mats = [m.evaluate(x) for m in d.maps]
        slices = apply_restriction(Restriction(tuple(mats)), t).slices(direction)
        if not slices or rank(combine(span_of(f, slices), [f.one()] * len(slices))) == q:
            # the combined slice's coefficients: column sums of the evaluated
            # map (all zero for the maps of a claimed_r = 0 degeneration)
            evaluated = mats[direction - 1]
            rows = evaluated.data or Matrix.zeros(f, 1, evaluated.cols).data
            coeffs = tuple(_combination(f, [f.one()] * evaluated.rows, [(row,) for row in rows])[0])
            combined = combine(span_of(f, t.slices(direction)), coeffs)
            got = rank(combined)
            if got < q:
                raise VerificationFailedError("combined slice lost rank")  # pragma: no cover
            return x, coeffs, combined, got
    raise FieldTooSmallError("no evaluation point with nonzero determinant found")

