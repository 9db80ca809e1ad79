"""One linear-combination kernel: `matrix._combination`, and `spans.combine`
built on it, against the per-site loops they replaced, kept here as `ref_*`;
and `laurent.border_le_qi_extract` over Q against the helpers it used."""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenrank.fields import GF, QQ, Field, PrimeField
from tenrank.laurent import border_le_qi_extract
from tenrank.matrix import Matrix, _combination, rank
from tenrank.pivots import rho_degeneration
from tenrank.spans import SliceSpan, combine, span_of
from tenrank.tensor import Restriction, Tensor3, apply_restriction

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
