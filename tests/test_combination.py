"""The dense kernels of `tenrank.matrix` against the per-site code they
replaced, kept here as `ref_*`: the linear-combination kernel
`matrix._combination` and `spans.combine` built on it; the product kernel
`matrix._product` behind `Matrix.mul` and the ann(V) * M rows of the cover
searches; the annihilator kernel `matrix._rref_annihilator`; and the tracker
`matrix._Working`, whose scale and slice transform now run on `_axpy` and
`_combination`; and the Kronecker kernel `matrix._kron_rows`, against
`Matrix.kron`'s own loop and the 0/1 selector products of the sqrt
certificate, with a corpus of the certificates built on it pinned.  Also
`laurent.border_le_qi_extract` over Q against the helpers it used."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenrank.engine import _narrow_certificate_inner, mamu_cube, narrow_certificate, two_direction_square
from tenrank.errors import MixedFieldsError, TenrankError
from tenrank.fields import GF, QQ, Field, PrimeField
from tenrank.io import serialize_certificate
from tenrank.laurent import border_le_qi_extract
from tenrank.matrix import (_COL, _ROW, _SLICE, Matrix, _combination, _kron_rows, _product, _rref_annihilator,
                            _Working, rank, rref)
from tenrank.pivots import rho_degeneration, sqrt_certificate
from tenrank.spans import (SliceSpan, _annihilator, combine, max_rank_exhaustive, max_rank_randomized, mixed_kron_set,
                           slice_span, span_of, subspaces)
from tenrank.tensor import Restriction, Tensor3, apply_restriction, balanced_pivot, catalog, unit

_FIELDS = (GF(2), GF(5), GF(11), QQ)


# -- the loops the kernel replaced ------------------------------------------------


def ref_combine(span: SliceSpan, coeffs) -> Matrix:
    """`spans.combine` with its own GF(p) and Q arms."""
    f = span.field
    rows, cols = span.shape
    if isinstance(f, PrimeField):
        p = f.p
        acc = [[0] * cols for _ in range(rows)]
        for c, m in zip(coeffs, span.basis):
            if c % p:
                for i, row in enumerate(m.data):
                    ai = acc[i]
                    for j, v in enumerate(row):
                        ai[j] = (ai[j] + c * v) % p
        return Matrix(f, acc, cols=cols)
    acc = [[f.zero()] * cols for _ in range(rows)]
    for c, m in zip(coeffs, span.basis):
        if not f.is_zero(c):
            for i, row in enumerate(m.data):
                ai = acc[i]
                for j, v in enumerate(row):
                    ai[j] = f.add(ai[j], f.mul(c, v))
    return Matrix(f, acc, cols=cols)


def ref_lift_coeffs(reduced_coeffs, reduction: Matrix, field: Field):
    """Coefficients over the reduced basis -> coefficients over span.basis."""
    out = [field.zero()] * reduction.cols
    for c, row in zip(reduced_coeffs, reduction.data):
        if not field.is_zero(c):
            for j, v in enumerate(row):
                out[j] = field.add(out[j], field.mul(c, v))
    return tuple(out)


def ref_span_vector(field: PrimeField, coeffs, rows):
    """The inner loop of `spans._span_vectors`: one combination of the rows."""
    n = len(rows[0])
    out = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            for j, x in enumerate(row):
                out[j] = (out[j] + c * x) % field.p
    return tuple(out)


def ref_sum_slices(t: Tensor3, direction: int) -> Matrix:
    mats = t.slices(direction)
    acc = mats[0]
    for m in mats[1:]:
        acc = acc.add(m)
    return acc


def ref_slice_sum_coeffs(evaluated_map: Matrix, f: Field):
    """Coefficients of the combined slice: column sums of the evaluated map."""
    return tuple(
        ref_sum_elems(f, [evaluated_map[i, j] for i in range(evaluated_map.rows)])
        for j in range(evaluated_map.cols)
    )


def ref_sum_elems(f: Field, xs):
    acc = f.zero()
    for x in xs:
        acc = f.add(acc, x)
    return acc


def ref_combine_tensor_slices(t: Tensor3, direction: int, coeffs) -> Matrix:
    f = t.field
    mats = t.slices(direction)
    acc = Matrix.zeros(f, mats[0].rows, mats[0].cols)
    for c, m in zip(coeffs, mats):
        if not f.is_zero(c):
            acc = acc.add(m.scale(c))
    return acc


def ref_border_le_qi_extract(d, t: Tensor3, direction: int):
    """The evaluation-point scan of `border_le_qi_extract` on the helpers
    above, without its checks on the field size and the degeneration."""
    f, q = t.field, d.claimed_r
    candidates = range(1, f.p) if isinstance(f, PrimeField) else range(1, 1000 * (q + 2))
    for xi in candidates:
        x = f.normalize(xi)
        mats = [m.evaluate(x) for m in d.maps]
        res = apply_restriction(Restriction(tuple(mats)), t)
        if rank(ref_sum_slices(res, direction)) == q:
            coeffs = ref_slice_sum_coeffs(mats[direction - 1], f)
            combined = ref_combine_tensor_slices(t, direction, coeffs)
            return x, coeffs, combined, rank(combined)
    return None


# -- strategies -------------------------------------------------------------------


def _values(f):
    """Canonical field values, as bases and tensors store them."""
    if isinstance(f, PrimeField):
        return st.integers(0, f.p - 1)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _coeffs(f, k):
    """Coefficients, zeros included: ints of either sign over GF(p), ints and
    Fractions over Q."""
    if isinstance(f, PrimeField):
        c = st.one_of(st.just(0), st.integers(-2 * f.p, 2 * f.p))
    else:
        c = st.one_of(st.just(0), st.integers(-4, 4), _values(f))
    return st.lists(c, min_size=k, max_size=k)


@st.composite
def combinations(draw, max_rows=3):
    """(field, terms, coeffs): k >= 1 terms of one shape, some of them zero."""
    f = draw(st.sampled_from(_FIELDS))
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    zero = f.zero()
    term = st.one_of(
        st.just(tuple((zero,) * cols for _ in range(rows))),
        st.lists(st.lists(_values(f), min_size=cols, max_size=cols).map(tuple),
                 min_size=rows, max_size=rows).map(tuple),
    )
    terms = draw(st.lists(term, min_size=k, max_size=k))
    return f, terms, draw(_coeffs(f, k))


def _canonical(f, rows):
    if isinstance(f, PrimeField):
        return all(type(x) is int and 0 <= x < f.p for row in rows for x in row)
    return all(type(x) is Fraction for row in rows for x in row)


def _typed(rows):
    return [[(type(x), x) for x in row] for row in rows]


# -- equivalence --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(combinations())
@example((GF(2), [((1, 0), (0, 1))], [1]))
@example((GF(5), [((0, 0),), ((0, 0),)], [0, 3]))
@example((QQ, [((Fraction(0), Fraction(0)),)], [Fraction(0)]))
@example((QQ, [((Fraction(1, 2),),), ((Fraction(3),),)], [2, Fraction(-1, 3)]))
def test_combination_matches_ref_combine(case):
    f, terms, coeffs = case
    span = span_of(f, [Matrix(f, t) for t in terms])
    want = ref_combine(span, coeffs)
    got = _combination(f, coeffs, terms)
    assert _canonical(f, got) and _canonical(f, want.data)
    assert _typed(got) == _typed(want.data)
    got_span = combine(span, coeffs)
    assert got_span == want and _typed(got_span.data) == _typed(want.data)


@settings(max_examples=300, deadline=None)
@given(combinations(max_rows=1))
@example((GF(11), [((3, 4, 5),)], [7]))
@example((QQ, [((Fraction(1), Fraction(2)),), ((Fraction(0), Fraction(0)),)], [0, 5]))
def test_combination_matches_vector_refs(case):
    f, terms, coeffs = case
    rows = [t[0] for t in terms]
    (got,) = _combination(f, coeffs, terms)
    assert _canonical(f, [got])
    want = ref_lift_coeffs(coeffs, Matrix(f, rows), f)
    assert _typed([got]) == _typed([want])
    if isinstance(f, PrimeField):
        assert _typed([got]) == _typed([ref_span_vector(f, coeffs, rows)])


@st.composite
def tensors(draw):
    f = draw(st.sampled_from(_FIELDS))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(3))
    n = dims[0] * dims[1] * dims[2]
    return Tensor3(f, dims, draw(st.lists(_values(f), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(tensors(), st.integers(1, 3), st.data())
def test_combination_matches_tensor_slice_refs(t, direction, data):
    f = t.field
    slices = t.slices(direction)
    span = span_of(f, slices)
    summed = combine(span, [f.one()] * len(slices))
    assert summed == ref_sum_slices(t, direction)
    coeffs = data.draw(_coeffs(f, len(slices)))
    want = ref_combine_tensor_slices(t, direction, coeffs)
    got = combine(span, coeffs)
    assert got == want and _typed(got.data) == _typed(want.data)
    m = Matrix(f, data.draw(st.lists(st.lists(_values(f), min_size=len(slices), max_size=len(slices)),
                                     min_size=1, max_size=3)))
    (sums,) = _combination(f, [f.one()] * m.rows, [(row,) for row in m.data])
    assert _typed([sums]) == _typed([ref_slice_sum_coeffs(m, f)])


# -- border-to-max-rank extraction over Q -------------------------------------------------


def test_border_extraction_over_q_matches_refs():
    rng = random.Random(12)
    done = 0
    while done < 3:
        t = Tensor3(QQ, (3, 3, 3), [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                                    for _ in range(27)])
        if t.is_zero():
            continue
        d = rho_degeneration(t, 2, 3)
        for direction in (1, 2, 3):
            got = border_le_qi_extract(d, t, direction)
            assert got == ref_border_le_qi_extract(d, t, direction)
            x, coeffs, combined, r = got
            assert type(x) is Fraction
            assert all(type(c) is Fraction for c in coeffs)
            assert _canonical(QQ, combined.data)
            assert d.claimed_r <= r <= min(t.dims)
        done += 1


# -- the product, annihilator and tracker code the kernels replaced --------------------


def ref_mul(a: Matrix, b: Matrix) -> Matrix:
    """`Matrix.mul` with its own GF(p) and Q arms."""
    f = a.field
    bt = list(zip(*b.data)) if b.rows else [()] * b.cols
    if isinstance(f, PrimeField):
        p = f.p
        return Matrix(f, [
            [sum(x * y for x, y in zip(row, col)) % p for col in bt]
            for row in a.data
        ], cols=b.cols)
    z = f.zero()
    out = []
    for row in a.data:
        out.append([sum((f.mul(x, y) for x, y in zip(row, col)), z) for col in bt])
    return Matrix(f, out, cols=b.cols)


def ref_ann_rows(ann, columns, q: int):
    """The rows of ann * M mod q, stacked over the matrices M, each given as
    its list of columns."""
    return [[sum(x * y for x, y in zip(row, col)) % q for col in cols]
            for cols in columns for row in ann]


def ref_rref_annihilator(f: Field, rows, pivot_cols, n: int):
    """Annihilator rows of the row space of reduced rows with these pivots."""
    piv = set(pivot_cols)
    out = []
    for c in range(n):
        if c in piv:
            continue
        vec = [f.zero()] * n
        vec[c] = f.one()
        for r, pc in enumerate(pivot_cols):
            vec[pc] = f.neg(rows[r][c])
        out.append(vec)
    return out


def ref_subspace_annihilator(v: Matrix):
    return ref_rref_annihilator(v.field, v.data, [row.index(1) for row in v.data], v.cols)


def ref_annihilator(basis: Matrix) -> Matrix:
    res = rref(basis)
    rows = ref_rref_annihilator(basis.field, res.rref.data, res.pivot_cols, basis.cols)
    return Matrix(basis.field, rows, cols=basis.cols)


def ref_scaled(x, c, p):
    """c * x for a scalar, a vector or a matrix (a list of row lists)."""
    if type(x) is not list:
        return c * x % p if p else c * x
    if x and type(x[0]) is list:
        return [ref_scaled(row, c, p) for row in x]
    return [c * a % p for a in x] if p else [c * a for a in x]


def ref_axpy(x, y, c, p):
    """x + c * y for two scalars, vectors or matrices of one shape."""
    if type(x) is not list:
        return (x + c * y) % p if p else x + c * y
    if x and type(x[0]) is list:
        return [ref_axpy(a, b, c, p) for a, b in zip(x, y)]
    if p:
        return [(a + c * b) % p for a, b in zip(x, y)]
    return [a + c * b for a, b in zip(x, y)]


class RefWorking(_Working):
    """The tracker with its own scale, add-multiple and slice transform."""

    def scale(self, axis, a, c):
        for lst in self._along(axis):
            lst[a] = ref_scaled(lst[a], c, self.p)

    def addmul(self, axis, dst, src, c):
        for lst in self._along(axis):
            lst[dst] = ref_axpy(lst[dst], lst[src], c, self.p)

    def find(self, s, rows, cols):
        f, x = self.f, self.slices[s]
        for a in rows:
            for b in cols:
                if not f.is_zero(x[a][b]):
                    return a, b
        return None

    def clear(self, axis, s, line, src, idxs):
        f, x = self.f, self.slices[s]
        for k in idxs:
            v = x[k][line] if axis == _ROW else x[line][k]
            if k != src and not f.is_zero(v):
                piv = x[src][line] if axis == _ROW else x[line][src]
                self.addmul(axis, k, src, f.neg(f.div(v, piv)))

    def slice_transform(self, coeffs):
        f, p = self.f, self.p
        for lst in self._along(_SLICE):
            new = []
            for row in coeffs:
                acc = ref_scaled(lst[0], f.zero(), p)
                for c, x in zip(row, lst):
                    if not f.is_zero(c):
                        acc = ref_axpy(acc, x, c, p)
                new.append(acc)
            lst[:] = new


_KERNEL_FIELDS = (GF(2), GF(7), GF(2**31 - 1), QQ)


def _kernel_values(f):
    """Canonical values, zero weighted up; over Q also plain ints, which a
    Matrix built without normalizing can hold."""
    if isinstance(f, PrimeField):
        return st.one_of(st.just(0), st.just(f.p - 1), st.integers(0, f.p - 1))
    return st.one_of(st.just(Fraction(0)), _values(f), st.integers(-3, 3))


def _matrix(draw, f, rows, cols, values=None):
    values = _kernel_values(f) if values is None else values
    data = [[draw(values) for _ in range(cols)] for _ in range(rows)]
    return Matrix(f, data, cols=cols)


# -- product ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_product_matches_ref_mul(data):
    f = data.draw(st.sampled_from(_KERNEL_FIELDS))
    n, k, m = (data.draw(st.integers(0, 3)) for _ in range(3))
    a = _matrix(data.draw, f, n, k)
    b = _matrix(data.draw, f, k, m)
    want = ref_mul(a, b)
    got = a.mul(b)
    assert got == want and (got.rows, got.cols) == (want.rows, want.cols)
    assert _typed(got.data) == _typed(want.data)
    p = f.p if isinstance(f, PrimeField) else None
    b_cols = list(zip(*b.data)) if k else [()] * m
    assert _typed(_product(a.data, b_cols, p)) == _typed(want.data)


def test_product_over_an_empty_inner_dimension():
    for f in _KERNEL_FIELDS:
        zeros = _typed([[f.zero()] * 3] * 2)
        a, b = Matrix(f, [[], []], cols=0), Matrix(f, [], cols=3)
        assert _typed(a.mul(b).data) == _typed(ref_mul(a, b).data) == zeros
        p = f.p if isinstance(f, PrimeField) else None
        assert _typed(_product([(), ()], [(), (), ()], p)) == zeros


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stacked_products_match_ref_ann_rows(data):
    f = data.draw(st.sampled_from(_KERNEL_FIELDS[:3]))
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    ann = _matrix(data.draw, f, data.draw(st.integers(0, n)), n).data
    columns = [list(zip(*_matrix(data.draw, f, n, m).data)) for _ in range(data.draw(st.integers(1, 3)))]
    got = [row for cols in columns for row in _product(ann, cols, f.p)]
    assert _typed(got) == _typed(ref_ann_rows(ann, columns, f.p))


# -- annihilator -----------------------------------------------------------------------


def test_subspace_annihilators_match_ref():
    for f, n in ((GF(2), 4), (GF(7), 3)):
        for dim in range(n + 1):
            for v in subspaces(f, n, dim):
                assert _typed(_rref_annihilator(f, v.data, n)) == _typed(ref_subspace_annihilator(v))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_annihilator_matches_ref(data):
    f = data.draw(st.sampled_from(_KERNEL_FIELDS))
    n = data.draw(st.integers(1, 4))
    basis = _matrix(data.draw, f, data.draw(st.integers(0, 4)), n)
    want = ref_annihilator(basis)
    got = _annihilator(basis)
    assert got == want and _typed(got.data) == _typed(want.data)
    res = rref(basis)
    reduced = res.rref.data[:res.rank]
    assert _typed(_rref_annihilator(f, reduced, n)) == _typed(
        ref_rref_annihilator(f, res.rref.data, res.pivot_cols, n))
    # every annihilator row is orthogonal to the basis
    assert all(f.is_zero(sum((x * y for x, y in zip(row, v)), f.zero())) for row in got.data for v in basis.data)


# -- tracker ---------------------------------------------------------------------------


def _same_tracker(w, ref):
    assert _typed(w.maps[_ROW]) == _typed(ref.maps[_ROW])
    assert _typed(w.maps[_COL]) == _typed(ref.maps[_COL])
    assert _typed(w.maps[_SLICE]) == _typed(ref.maps[_SLICE])
    assert len(w.slices) == len(ref.slices)
    for got, want in zip(w.slices, ref.slices):
        assert _typed(got) == _typed(want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tracker_matches_ref_tracker(data):
    f = data.draw(st.sampled_from(_KERNEL_FIELDS))
    values = _kernel_values(f)
    n_rows, n_cols, n_mats = (data.draw(st.integers(1, 3)) for _ in range(3))
    mats = [_matrix(data.draw, f, n_rows, n_cols, values) for _ in range(n_mats)]
    slice_map = None
    if data.draw(st.booleans()):
        slice_map = _matrix(data.draw, f, data.draw(st.integers(1, 3)), n_mats, values).data
    w, ref = _Working(f, mats, slice_map), RefWorking(f, mats, slice_map)
    _same_tracker(w, ref)
    for _ in range(data.draw(st.integers(1, 10))):
        axis = data.draw(st.sampled_from([_ROW, _COL, _SLICE]))
        size = len(w.maps[axis])
        index = st.integers(0, size - 1)
        op = data.draw(st.sampled_from(["swap", "scale", "addmul", "delete", "take", "transform", "find", "clear"]))
        if op == "swap":
            args = (axis, data.draw(index), data.draw(index))
        elif op == "find":
            rows, cols = (st.integers(0, len(w.maps[a]) - 1) for a in (_ROW, _COL))
            args = (data.draw(st.integers(0, len(w.slices) - 1)), data.draw(st.lists(rows)), data.draw(st.lists(cols)))
        elif op == "clear" and axis != _SLICE:
            s, src = data.draw(st.integers(0, len(w.slices) - 1)), data.draw(index)
            line = data.draw(st.integers(0, len(w.maps[_COL if axis == _ROW else _ROW]) - 1))
            if f.is_zero(w.slices[s][src][line] if axis == _ROW else w.slices[s][line][src]):
                continue
            args = (axis, s, line, src, data.draw(st.lists(index, unique=True)))
        elif op == "scale":
            args = (axis, data.draw(index), data.draw(values))
        elif op == "addmul":
            args = (axis, data.draw(index), data.draw(index), data.draw(values))
        elif op == "delete" and size > 1:
            args = (axis, data.draw(index))
        elif op == "take":
            args = (axis, data.draw(st.lists(index, min_size=1, max_size=size, unique=True)))
        elif op == "transform":
            args = (_matrix(data.draw, f, data.draw(st.integers(1, 3)), len(w.slices), values).data,)
        else:
            continue
        name = "slice_transform" if op == "transform" else op
        assert getattr(w, name)(*args) == getattr(ref, name)(*args)
        _same_tracker(w, ref)


# -- Kronecker products ----------------------------------------------------------------


def ref_kron(a: Matrix, b: Matrix) -> Matrix:
    """`Matrix.kron` with its own loop: (outer, inner) index order, and a zero
    outer entry gives a block of zeros unmultiplied."""
    a._check(b)
    f = a.field
    zeros = (f.zero(),) * b.cols
    out = []
    for ra in a.data:
        for rb in b.data:
            row = []
            for x in ra:
                row.extend(zeros if f.is_zero(x) else [f.mul(x, y) for y in rb])
            out.append(row)
    return Matrix(f, out, cols=a.cols * b.cols)


def ref_kron_rows(factors, rows=None) -> Matrix:
    """`ref_kron` folded from the left, then the rows (i_1, ..., i_k) picked by
    their flat index, as the square and the cube picked theirs."""
    acc = factors[0]
    for m in factors[1:]:
        acc = ref_kron(acc, m)
    if rows is None:
        return acc
    flat = []
    for idx in rows:
        i = 0
        for m, j in zip(factors, idx):
            i = i * m.rows + j
        flat.append(i)
    return acc.submatrix(flat, range(acc.cols))


def ref_selector(f: Field, pairs, n: int) -> Matrix:
    """The 0/1 matrix of the sqrt certificate that picks the rows (pa, pb) of
    a Kronecker product of two n-row factors."""
    ent = {(a, pa * n + pb): f.one() for a, (pa, pb) in enumerate(pairs)}
    return Matrix.from_entries(f, len(pairs), n * n, ent)


@st.composite
def kron_cases(draw):
    """(factors, rows): one to three factors over one field, with zero rows,
    zero columns, zero entries and all-zero factors, and either every row or
    arbitrary row tuples, repeats and any order included."""
    f = draw(st.sampled_from(_KERNEL_FIELDS))
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        if draw(st.integers(0, 5)) == 0:
            factors.append(Matrix.zeros(f, rows, cols))
            continue
        data = _matrix(draw, f, rows, cols).data
        factors.append(Matrix(f, [(f.zero(),) * cols if draw(st.integers(0, 3)) == 0 else row for row in data],
                              cols=cols))
    rows = None
    if all(m.rows for m in factors) and draw(st.booleans()):
        rows = draw(st.lists(st.tuples(*(st.integers(0, m.rows - 1) for m in factors)), max_size=6))
    return factors, rows


_A, _B, _C = (Matrix(GF(7), data) for data in ([[1, 2], [0, 3]], [[4, 5, 6]], [[1, 0], [2, 3], [0, 6]]))


@settings(max_examples=400, deadline=None)
@given(kron_cases())
@example(([_A, _B], None))
@example(([_A, _B, _C], [(1, 0, 2), (0, 0, 1), (1, 0, 0)]))
def test_kron_rows_match_ref_kron(case):
    factors, rows = case
    want = ref_kron_rows(factors, rows)
    got = _kron_rows(factors, rows)
    assert got == want and (got.rows, got.cols) == (want.rows, want.cols)
    assert _typed(got.data) == _typed(want.data)
    if len(factors) == 2 and rows is None:
        assert _typed(factors[0].kron(factors[1]).data) == _typed(want.data)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_paired_rows_match_ref_selector_product(data):
    f = data.draw(st.sampled_from(_KERNEL_FIELDS))
    n = data.draw(st.integers(1, 4))
    a, b = (_matrix(data.draw, f, n, data.draw(st.integers(1, 4)), _values(f)) for _ in range(2))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n + 1))
    want = ref_selector(f, pairs, n).mul(ref_kron(a, b))
    got = _kron_rows([a, b], pairs)
    assert got == want and _typed(got.data) == _typed(want.data)


def test_kron_rows_refuse_mixed_fields():
    with pytest.raises(MixedFieldsError):
        _kron_rows([Matrix.identity(GF(5), 2), Matrix.identity(GF(5), 1), Matrix.identity(GF(7), 2)])


@pytest.mark.parametrize("name, params, most", [("null_algebra", (5,), 510), ("gen_null_algebra", (6, 2), 918)])
def test_kron_rows_build_each_prefix_row_once(monkeypatch, name, params, most):
    """mamu_cube's three-factor maps over GF(11) reuse the row of each
    leading pair of factors: at most `most` field multiplications, against
    750 and 1,248 when every output row rebuilt its prefix."""
    t = catalog(GF(11), name, *params)
    wits = [max_rank_exhaustive(slice_span(t, *(x for x in (1, 2, 3) if x != d)))[1] for d in (1, 2, 3)]
    calls = []

    def counted(self, a, b, _mul=PrimeField.mul):
        calls.append(1)
        return _mul(self, a, b)

    monkeypatch.setattr(PrimeField, "mul", counted)
    mamu_cube(t, *wits)
    assert 0 < len(calls) <= most


def _elem(f, rng):
    """A random field value, zero about a third of the time."""
    if rng.random() < 0.3:
        return f.zero()
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if f is QQ else rng.randrange(f.p)


def _maps_text(maps) -> str:
    return "|".join(f"{m.cols}:" + ";".join(" ".join(map(repr, row)) for row in m.data) for m in maps)


def _degeneration_text(d) -> str:
    return "|".join(f"{m.rows}x{m.cols}:{sorted(m.entries.items())!r}" for m in d.maps)


def kron_corpus():
    """Text lines of every Kronecker-built map in the corpus, one per case:
    square, cube, sqrt and narrow certificates, mixed Kronecker sets and
    `Matrix.kron`, each entry by its repr, so a changed value or element type
    shows; a refusal is recorded with its class and message."""
    out = []

    def record(tag, fn):
        try:
            out.append(f"{tag} {fn()}")
        except TenrankError as exc:
            out.append(f"{tag} error {type(exc).__name__}: {exc}")

    rng = random.Random(19)
    for f in (GF(2), GF(3), GF(11), QQ):
        for k in range(6):
            dims = tuple(rng.randint(2, 3) for _ in range(3))
            t = Tensor3(f, dims, [_elem(f, rng) for _ in range(dims[0] * dims[1] * dims[2])])
            wits = [max_rank_randomized(slice_span(t, *[x for x in (1, 2, 3) if x != d]), 8, seed=k + d)[1]
                    for d in (1, 2, 3)]
            for i, j in ((1, 2), (1, 3), (2, 3)):
                record(f"square {f.tag} {k} {i}{j}",
                       lambda: _maps_text(two_direction_square(t, i, j, wits[i - 1], wits[j - 1]).restriction.maps))
            record(f"cube {f.tag} {k}", lambda: _maps_text(mamu_cube(t, *wits)[0].maps))
            n = rng.randint(2, 4)
            c = Tensor3(f, (n, n, n), [_elem(f, rng) for _ in range(n ** 3)])
            record(f"sqrt {f.tag} {k}", lambda: _degeneration_text(sqrt_certificate(c)))
    for n in (2, 3, 4, 5):
        record(f"sqrt unit {n}", lambda: _degeneration_text(sqrt_certificate(unit(GF(5), n))))
    for f, n in ((GF(7), 4), (GF(11), 9)):
        record(f"sqrt balanced_pivot {f.tag} {n}",
               lambda: serialize_certificate(sqrt_certificate(balanced_pivot(f, n)), f))
    for f in (GF(3), QQ):
        t = Tensor3(f, (2, 3, 1), {(1, 2, 0): f.normalize(2)})
        for m in (1, 2, 3, 4):
            record(f"narrow c1 {f.tag} {m}", lambda: _maps_text(narrow_certificate(t, m).restriction.maps))
    for k in range(3):
        perm = list(range(8))
        rng.shuffle(perm)
        ent = {(i, i, 0): 1 for i in range(8)}
        for i in range(8):
            ent[(i, perm[i], 1)] = ent.get((i, perm[i], 1), 0) + rng.randrange(1, 7)
        t = Tensor3(GF(7), (8, 8, 2), ent)
        for m, ell in ((2, 1), (2, 2)):
            record(f"narrow inner {k} {m} {ell}",
                   lambda: _maps_text(_narrow_certificate_inner(t, m, ell).restriction.maps))
    for f in (GF(3), QQ):
        mats = [Matrix(f, [[_elem(f, rng) for _ in range(2)] for _ in range(2)]) for _ in range(3)]
        for m, ell in ((1, 1), (2, 1), (3, 2)):
            record(f"mixed {f.tag} {m} {ell}", lambda: _maps_text(mixed_kron_set(mats[:2], mats[2:], m, ell)))
        a, b = mats[0], Matrix(f, [[_elem(f, rng) for _ in range(3)]])
        record(f"kron {f.tag}", lambda: _maps_text([a.kron(b), b.kron(a)]))
    return out


# sha256 of `kron_corpus()`, recorded before every Kronecker product of maps
# moved onto `matrix._kron_rows`
KRON_CORPUS_SHA256 = "d124c58236c6dc7e172ce70c0a006c95fdff2e2a8d0ee4e7844b9bc8834be71f"


def test_kron_corpus_is_pinned():
    lines = kron_corpus()
    assert len(lines) == 148 and sum(" error " in line for line in lines) == 22
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == KRON_CORPUS_SHA256
