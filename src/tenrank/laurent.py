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
)

LaurentPoly = Dict[int, Elem]  # exponent -> nonzero coefficient


class LaurentMatrix:
    """Sparse matrix whose entries are Laurent polynomials in one variable.

    It is held as its column terms, the form `tensor.contract` takes: for
    each column with a nonzero entry, the (row, exponent, coefficient) terms
    of that column, each (row, exponent) once and every coefficient nonzero.
    A map keeps this one form from the moment it is built until it is
    replayed; `entries` spells it out as polynomials."""

    __slots__ = ("field", "rows", "cols", "_columns")

    def __init__(self, field: Field, rows: int, cols: int, entries: Dict[Tuple[int, int], LaurentPoly]):
        """From {(i, j): {exponent: coefficient}}: every (i, j) in range,
        zero coefficients dropped."""
        columns: Dict[int, list] = {}
        for (i, j), poly in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatchError(f"laurent entry {(i, j)} out of range")
            terms = [(i, e, v) for e, v in poly.items() if not field.is_zero(v)]
            if terms:
                columns.setdefault(j, []).extend(terms)
        self.field, self.rows, self.cols, self._columns = field, rows, cols, columns

    @classmethod
    def _of_columns(cls, field: Field, rows: int, cols: int, columns: Dict[int, list]) -> "LaurentMatrix":
        """From {column: terms} that already hold the invariant: only
        nonempty columns, each (row, exponent) once, nonzero coefficients."""
        m = cls.__new__(cls)
        m.field, m.rows, m.cols, m._columns = field, rows, cols, columns
        return m

    @classmethod
    def from_matrix(cls, m: Matrix) -> "LaurentMatrix":
        columns = {j: col for j, col in enumerate(matrix_terms(m)) if col}
        return cls._of_columns(m.field, m.rows, m.cols, columns)

    @property
    def entries(self) -> Dict[Tuple[int, int], LaurentPoly]:
        """{(i, j): {exponent: coefficient}} over the nonzero entries."""
        out: Dict[Tuple[int, int], LaurentPoly] = {}
        for j, col in self._columns.items():
            for i, e, v in col:
                out.setdefault((i, j), {})[e] = v
        return out

    def scale_rows(self, exponents: Sequence[int]) -> "LaurentMatrix":
        """Multiply row i by e^exponents[i]."""
        columns = {j: [(i, e + exponents[i], v) for i, e, v in col] for j, col in self._columns.items()}
        return LaurentMatrix._of_columns(self.field, self.rows, self.cols, columns)

    def mul(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """The product, on column terms: a term (i, e, u) of column k times
        a term (k, d, v) of column j adds u*v at (i, j, e + d)."""
        if self.cols != other.rows:
            raise ShapeMismatchError("laurent matmul shape mismatch")
        f = self.field
        zero = f.zero()
        columns: Dict[int, list] = {}
        for j, col in other._columns.items():
            sums: Dict[Tuple[int, int], Elem] = {}
            for k, d, v in col:
                for i, e, u in self._columns.get(k, ()):
                    sums[i, e + d] = f.add(sums.get((i, e + d), zero), f.mul(u, v))
            terms = [(i, e, v) for (i, e), v in sums.items() if not f.is_zero(v)]
            if terms:
                columns[j] = terms
        return LaurentMatrix._of_columns(f, self.rows, other.cols, columns)

    def evaluate(self, x: Elem) -> Matrix:
        """The matrix at e = x; x must be nonzero if a negative exponent occurs."""
        f = self.field
        zero = f.zero()
        sums: Dict[Tuple[int, int], Elem] = {}
        for j, col in self._columns.items():
            for i, e, v in col:
                step = x if e >= 0 else f.inv(x)
                for _ in range(abs(e)):
                    v = f.mul(v, step)
                sums[i, j] = f.add(sums.get((i, j), zero), v)
        return Matrix.from_entries(f, self.rows, self.cols, {k: v for k, v in sums.items() if not f.is_zero(v)})

    def column_terms(self):
        """Per column, its (row, exponent, coefficient) terms, in the form
        `tensor.contract` takes."""
        get = self._columns.get
        return [get(j, []) for j in range(self.cols)]

    def terms(self):
        """Every term as (row, column, exponent, coefficient)."""
        return [(i, j, e, v) for j, col in self._columns.items() for i, e, v in col]


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
    # contract's {exponent: {(a, b, c): nonzero value}} is read as it is
    terms = contract(t, [m.column_terms() for m in d.maps], power=power)
    low = min(terms, default=0)
    if low < 0:
        return f"negative exponent {shown(low)} present"
    one = t.field.one()
    if terms.get(0, {}) != {(a, a, a): one for a in range(d.claimed_r)}:
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

