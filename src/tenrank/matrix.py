"""Exact dense matrices over GF(p) or Q.

Rows are stored as a tuple of tuples of canonical field values.  All
operations are pure; matrices are immutable after construction.  Zero row or
column counts are allowed (they show up as empty column prefixes and as maps
out of the zero tensor).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import (
    IndexOutOfRangeError,
    MixedFieldsError,
    ShapeMismatchError,
)
from .fields import Elem, Field, PrimeField


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Iterable[Iterable], *, normalize: bool = False, cols: int = None):
        if normalize:
            rows = tuple(tuple(field.normalize(x) for x in row) for row in data)
        else:
            rows = tuple(tuple(row) for row in data)
        self.field = field
        self.data = rows
        self.rows = len(rows)
        if rows:
            self.cols = len(rows[0])
        else:
            self.cols = 0 if cols is None else cols
        for row in rows:
            if len(row) != self.cols:
                raise ShapeMismatchError("ragged matrix rows")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls(field, [[z] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_entries(cls, field: Field, rows: int, cols: int, entries) -> "Matrix":
        """Build from a {(i, j): value} dict of nonzero entries (0-based)."""
        z = field.zero()
        data = [[z] * cols for _ in range(rows)]
        for (i, j), v in entries.items():
            data[i][j] = field.normalize(v)
        return cls(field, data, cols=cols)

    # -- basics ------------------------------------------------------------

    def __getitem__(self, ij) -> Elem:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexOutOfRangeError(f"entry index {(i, j)} out of range")
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.cols == self.cols
            and other.data == self.data
        )

    def __hash__(self) -> int:
        return hash((self.field, self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.field}, {self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for row in self.data for x in row)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise MixedFieldsError("matrices over different fields")

    def _plus(self, other: "Matrix", c: int, what: str) -> "Matrix":
        """self + c·other, for c = ±1, through the combination kernel."""
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError(f"matrix {what} shape mismatch")
        return Matrix(self.field, _combination(self.field, (1, c), (self.data, other.data)), cols=self.cols)

    def add(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1, "addition")

    def sub(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1, "subtraction")

    def scale(self, c: Elem) -> "Matrix":
        return Matrix(self.field, _combination(self.field, (c,), (self.data,)), cols=self.cols)

    def mul(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"matmul shape mismatch: {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = self.field
        bt = list(zip(*other.data)) if other.rows else [()] * other.cols
        p = f.p if isinstance(f, PrimeField) else None
        return Matrix(f, _product(self.data, bt, p), cols=other.cols)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product with (outer, inner) lexicographic index order."""
        return _kron_rows([self, other])

    # -- extraction ---------------------------------------------------------

    def submatrix(self, rowset: Sequence[int], colset: Sequence[int]) -> "Matrix":
        for i in rowset:
            if not 0 <= i < self.rows:
                raise IndexOutOfRangeError(f"row {i} out of range")
        for j in colset:
            if not 0 <= j < self.cols:
                raise IndexOutOfRangeError(f"col {j} out of range")
        return Matrix(self.field, [[self.data[i][j] for j in colset] for i in rowset], cols=len(colset))

    def vectorize(self) -> tuple:
        """Row-major flattening."""
        return tuple(itertools.chain.from_iterable(self.data))


def concat_cols(ms: Sequence[Matrix]) -> Matrix:
    """Concatenate [A; B; ...] along columns."""
    if not ms:
        raise ShapeMismatchError("empty concatenation")
    f = ms[0].field
    n = ms[0].rows
    for m in ms:
        if m.field != f:
            raise MixedFieldsError("concatenation over mixed fields")
        if m.rows != n:
            raise ShapeMismatchError("concatenation with differing row counts")
    total = sum(m.cols for m in ms)
    return Matrix(f, [sum((list(m.data[i]) for m in ms), []) for i in range(n)], cols=total)


@dataclass(frozen=True)
class RrefResult:
    rref: Matrix
    transform: Matrix  # invertible; transform * input = rref
    pivot_cols: tuple
    rank: int


def _eliminate(a: list, cols: int, p: Optional[int], full: bool) -> list:
    """Row-reduce `a` in place and return its pivot columns.

    `a` is a list of equal-length row lists: ints mod p, or Fractions when p
    is None.  The pivot of column c is the first row from the top, among
    those without a pivot yet, whose entry in column c is nonzero; columns
    < cols are scanned left to right.  Row operations span the whole row, so
    columns from `cols` on carry the transform of any block appended there.
    With `full` the pivot rows are scaled to 1 and cleared above and below
    (reduced echelon form); without it elimination runs forward only and
    pivot rows keep their scale.  Left of column c the pivot row is zero, so
    every operation starts at c.
    """
    n = len(a)
    width = len(a[0]) if a else 0
    pivots = []
    for c in range(cols):
        top = len(pivots)
        if top == n:
            break
        sel = top
        while sel < n and not (a[sel][c] % p if p else a[sel][c]):
            sel += 1
        if sel == n:
            continue
        row = a[sel]
        a[sel], a[top] = a[top], row
        inv = pow(row[c], p - 2, p) if p else Fraction(1) / row[c]
        if full and inv != 1:
            if p:
                for j in range(c, width):
                    row[j] = row[j] * inv % p
            else:
                for j in range(c, width):
                    row[j] *= inv
        for i in range(0 if full else top + 1, n):
            other = a[i]
            factor = other[c] if full else other[c] * inv
            if i == top or not (factor % p if p else factor):
                continue
            if p:
                for j in range(c, width):
                    other[j] = (other[j] - factor * row[j]) % p
            else:
                for j in range(c, width):
                    other[j] -= factor * row[j]
        pivots.append(c)
    return pivots


def _combination(field: Field, coeffs: Sequence[Elem], terms: Sequence[Sequence[Sequence[Elem]]]) -> list:
    """sum_k coeffs[k] * terms[k] as a list of row lists.

    Each term is a sequence of rows, all terms of one shape; a vector is a
    term of one row.  Terms with a zero coefficient are skipped, and the
    entries come out canonical: residues in range(p) over GF(p), Fractions
    over Q.  No matrix is flattened: `spans.combine` runs this once per
    candidate of the exhaustive rank searches.
    """
    if isinstance(field, PrimeField):
        p = field.p
        acc = [[0] * len(row) for row in terms[0]]
        for c, term in zip(coeffs, terms):
            if c % p:
                for out, row in zip(acc, term):
                    for j, x in enumerate(row):
                        out[j] = (out[j] + c * x) % p
        return acc
    acc = [[Fraction(0)] * len(row) for row in terms[0]]
    for c, term in zip(coeffs, terms):
        if c:
            for out, row in zip(acc, term):
                for j, x in enumerate(row):
                    out[j] += c * x
    return acc


def _product(a_rows: Sequence[Sequence[Elem]], b_cols: Sequence[Sequence[Elem]], p: Optional[int]) -> list:
    """The rows of a * b, given a's rows and b's columns: residues mod p, or
    Fractions when p is None.  Over GF(p) an entry is one
    `sum(map(mul, row, col)) % p`, with no generator frame per entry; it
    is the inner loop of the cover walks.  Over Q each sum starts at
    Fraction(0), so an empty inner dimension still gives Fraction entries."""
    if p:
        return [[sum(map(mul, row, col)) % p for col in b_cols] for row in a_rows]
    zero = Fraction(0)
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in b_cols] for row in a_rows]


def _kron_rows(factors: Sequence[Matrix], rows: Optional[Iterable[Sequence[int]]] = None) -> Matrix:
    """The Kronecker product of `factors`, in kron's (outer, inner) index
    order, or only the rows named by `rows`, in that order: one tuple per
    output row, with one row index per factor.  A zero entry of the product
    so far gives a block of zeros unmultiplied; each prefix of row indices
    is multiplied out once per call."""
    f = factors[0].field
    if any(m.field != f for m in factors):
        raise MixedFieldsError("matrices over different fields")
    if rows is None:
        rows = itertools.product(*(range(m.rows) for m in factors))

    @lru_cache(maxsize=None)
    def product_row(idx):  # the product of rows idx of the leading len(idx) factors
        if len(idx) == 1:
            return factors[0].data[idx[0]]
        m = factors[len(idx) - 1]
        inner, zeros = m.data[idx[-1]], (f.zero(),) * m.cols
        acc = []
        for a in product_row(idx[:-1]):
            acc.extend(zeros if f.is_zero(a) else [f.mul(a, b) for b in inner])
        return acc

    return Matrix(f, [product_row(tuple(idx)) for idx in rows], cols=math.prod(m.cols for m in factors))


def _rref_annihilator(f: Field, rows: Sequence[Sequence[Elem]], n: int) -> list:
    """Rows spanning {y : y . v = 0 for every row v}, for nonzero reduced rows
    of width n.  A reduced row's pivot is its first nonzero entry, a 1; each
    free column c gives the row with 1 at c and minus column c of the rows at
    their pivots."""
    pivots = [row.index(1) for row in rows]
    piv = set(pivots)
    out = []
    for c in range(n):
        if c in piv:
            continue
        vec = [f.zero()] * n
        vec[c] = f.one()
        for row, pc in zip(rows, pivots):
            vec[pc] = f.neg(row[c])
        out.append(vec)
    return out


def _work_rows(field: Field, rows: Sequence[Sequence[Elem]], extra=None):
    """Mutable copies of `rows`, each followed by its row of `extra` if given,
    and the modulus to eliminate them with; over Q every entry becomes a
    Fraction and the modulus is None."""
    if extra is not None:
        rows = [(*row, *e) for row, e in zip(rows, extra)]
    if isinstance(field, PrimeField):
        return [list(row) for row in rows], field.p
    return [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows], None


def rref(m: Matrix) -> RrefResult:
    """Reduced row-echelon form with a recorded invertible row transform.

    Pivoting is deterministic: first nonzero entry scanning rows top-down,
    columns left-right.
    """
    f = m.field
    a, p = _work_rows(f, m.data, Matrix.identity(f, m.rows).data)
    pivots = _eliminate(a, m.cols, p, True)
    red = Matrix(f, [row[:m.cols] for row in a], cols=m.cols)
    transform = Matrix(f, [row[m.cols:] for row in a], cols=m.rows)
    return RrefResult(red, transform, tuple(pivots), len(pivots))


def rank(m: Matrix) -> int:
    """Matrix rank by forward elimination (no transform bookkeeping)."""
    return rank_of_rows(m.field, m.data, m.cols)


def rank_of_rows(field: Field, rows: Sequence[Sequence[Elem]], cols: int) -> int:
    """Rank of a list of row vectors without building a Matrix."""
    a, p = _work_rows(field, rows)
    return len(_eliminate(a, cols, p, False))


def solve(a: Matrix, b: Sequence[Elem]):
    """One solution x of a x = b, or None if inconsistent."""
    return solve_all(a, [b])[0]


def solve_all(a: Matrix, bs: Sequence[Sequence[Elem]]) -> list:
    """solve(a, b) for every b in bs, from one elimination of [a | b...].

    Pivots are taken in a's columns only; b is consistent exactly when its
    reduced column is zero below the pivot rows."""
    f, n = a.field, a.cols
    aug, p = _work_rows(f, a.data, [[b[i] for b in bs] for i in range(a.rows)])
    pivots = _eliminate(aug, n, p, True)
    out = []
    for j in range(n, n + len(bs)):
        if any(row[j] % p if p else row[j] for row in aug[len(pivots):]):
            out.append(None)
            continue
        x = [f.zero()] * n
        for row, c in zip(aug, pivots):
            x[c] = row[j]
        out.append(x)
    return out


def column_basis(field: Field, vectors: Sequence[Sequence[Elem]]):
    """The greedy basis of `vectors` and every vector's coordinates in it.

    Returns (chosen, coords): `chosen` lists the indices of the vectors
    outside the span of those before them, and vectors[j] equals
    sum_k coords[j][k] * vectors[chosen[k]].  One elimination of the matrix
    whose columns are the vectors gives both: its pivot columns are the
    greedy choice, and reduced column j holds the unique coordinates of
    vector j."""
    a, p = _work_rows(field, list(zip(*vectors)))
    chosen = _eliminate(a, len(vectors), p, True)
    return chosen, [[row[j] for row in a[:len(chosen)]] for j in range(len(vectors))]


def invert(m: Matrix) -> Matrix:
    """Inverse of a square invertible matrix."""
    if m.rows != m.cols:
        raise ShapeMismatchError("inverse of a non-square matrix")
    res = rref(m)
    if res.rank != m.rows:
        raise ShapeMismatchError("matrix is singular")
    return res.transform


# -- tracked elimination ------------------------------------------------------

_ROW, _COL, _SLICE = 0, 1, 2


def _axpy(x, y, c, p: Optional[int]):
    """x + c * y for two scalars, vectors or matrices of one shape: the one
    arithmetic op of the tracker's row, column and slice operations."""
    if type(x) is not list:
        return (x + c * y) % p if p else x + c * y
    if x and type(x[0]) is list:
        return [_axpy(a, b, c, p) for a, b in zip(x, y)]
    if p:
        return [(a + c * b) % p for a, b in zip(x, y)]
    return [a + c * b for a, b in zip(x, y)]


class _Working:
    """Matrices under tracked row, column and slice operations.

    Built from matrices X_0, ..., X_{m-1} of one shape and an optional slice
    map (rows of length m, the identity by default).  Every operation keeps

        slices[s] = sum_k maps[_SLICE][s][k] * maps[_ROW] . X_k . maps[_COL]^T

    by acting on every list indexed along its axis: the slice data and that
    axis's map.  `_ROW` indexes the rows of each slice, `_COL` the entries of
    each row and `_SLICE` the slices themselves.  The lists are updated in
    place, so aliases of `slices` and of the maps stay current.
    """

    def __init__(self, field: Field, mats: Sequence[Matrix], slice_map=None):
        self.f = field
        self.p = field.p if isinstance(field, PrimeField) else None
        self.widths = (mats[0].rows, mats[0].cols, len(mats))
        z, o = field.zero(), field.one()
        self.maps = [[[o if i == j else z for j in range(n)] for i in range(n)] for n in self.widths]
        self.slices = [[list(row) for row in m.data] for m in mats]
        if slice_map is not None:
            self.slice_transform(slice_map)

    def _along(self, axis: int) -> list:
        if axis == _SLICE:
            return [self.slices, self.maps[_SLICE]]
        if axis == _ROW:
            return [*self.slices, self.maps[_ROW]]
        return [row for s in self.slices for row in s] + [self.maps[_COL]]

    def swap(self, axis: int, a: int, b: int):
        for lst in self._along(axis):
            lst[a], lst[b] = lst[b], lst[a]

    def scale(self, axis: int, a: int, c: Elem):
        # x + (c - 1) x = c x in both fields
        self.addmul(axis, a, a, c - 1)

    def addmul(self, axis: int, dst: int, src: int, c: Elem):
        """Add c times index `src` to index `dst`."""
        for lst in self._along(axis):
            lst[dst] = _axpy(lst[dst], lst[src], c, self.p)

    def delete(self, axis: int, a: int):
        for lst in self._along(axis):
            del lst[a]

    def take(self, axis: int, idxs: Sequence[int]):
        """Keep the distinct indices `idxs`, in that order."""
        for lst in self._along(axis):
            lst[:] = [lst[i] for i in idxs]

    def slice_transform(self, coeffs: Sequence[Sequence[Elem]]):
        """Replace slice s by sum_k coeffs[s][k] * slice k."""
        f, m = self.f, self.maps[_SLICE]
        terms = [(row,) for row in m]
        self.slices[:] = [_combination(f, row, self.slices) for row in coeffs]
        m[:] = [_combination(f, row, terms)[0] for row in coeffs]

    def matrices(self, axes: Sequence[int]) -> tuple:
        """The maps of `axes`, in that order, as matrices."""
        return tuple(Matrix(self.f, self.maps[a], cols=self.widths[a]) for a in axes)
