import random
from fractions import Fraction
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenrank.errors import BadParamsError, FieldTooSmallError, ShapeMismatchError
from tenrank.fields import GF, QQ, Elem, Field
from tenrank.laurent import (
    Degeneration,
    LaurentMatrix,
    LaurentPoly,
    apply_degeneration,
    border_le_qi_extract,
    mamu_border_lb,
    verify_degeneration,
)
from tenrank.matrix import Matrix
from tenrank.pivots import rho_degeneration
from tenrank.spans import max_rank_exhaustive, slice_span
from tenrank.tensor import Restriction, Tensor3, unit


def rand_tensor(field, dims, rng):
    n = dims[0] * dims[1] * dims[2]
    return Tensor3(field, dims, [rng.randrange(field.p) for _ in range(n)])


# -- the polynomial-dict product and evaluation that column terms replaced, kept
# as the reference --


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


def ref_mul(self: LaurentMatrix, other: LaurentMatrix) -> LaurentMatrix:
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


def ref_evaluate(self: LaurentMatrix, x: Elem) -> Matrix:
    f = self.field
    ent = {}
    for key, poly in self.entries.items():
        v = poly_eval(f, poly, x)
        if not f.is_zero(v):
            ent[key] = v
    return Matrix.from_entries(f, self.rows, self.cols, ent)


_COEFFICIENTS = {
    GF(2): st.integers(0, 1),
    GF(7): st.integers(0, 6),
    QQ: st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]).map(Fraction),
}


@st.composite
def laurent_products(draw):
    """(f, A, B, x): Laurent maps A (n x k) and B (k x m) over GF(2), GF(7)
    or Q with exponents -3..3, some entries, rows and columns empty, and a
    point x of the field (0 too).  Half the time column 1 of A repeats
    column 0 and row 1 of B is minus row 0, so their products cancel."""
    f = draw(st.sampled_from(sorted(_COEFFICIENTS, key=str)))
    n, k, m = draw(st.integers(0, 3)), draw(st.integers(0, 4)), draw(st.integers(0, 3))
    polys = st.dictionaries(st.integers(-3, 3), _COEFFICIENTS[f], max_size=3)

    def entries(rows, cols):
        return {(i, j): draw(polys) for i in range(rows) for j in range(cols) if draw(st.booleans())}

    a, b = entries(n, k), entries(k, m)
    if k >= 2 and draw(st.booleans()):
        for i in range(n):
            a.pop((i, 1), None)
            if (i, 0) in a:
                a[i, 1] = a[i, 0]
        for j in range(m):
            b.pop((1, j), None)
            if (0, j) in b:
                b[1, j] = {e: f.neg(v) for e, v in b[0, j].items()}
    x = draw(st.sampled_from([0, 1, 3, 6]) if f == GF(7) else _COEFFICIENTS[f])
    return f, LaurentMatrix(f, n, k, a), LaurentMatrix(f, k, m, b), x


def outcome(fn):
    """fn()'s result, or the type and text of what it raised."""
    try:
        return "ok", fn()
    except Exception as exc:  # every error must match
        return "error", type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(laurent_products())
def test_column_term_product_and_evaluation_match_the_polynomial_dicts(case):
    f, a, b, x = case
    assert a.mul(b).entries == ref_mul(a, b).entries
    for m in (a, b, a.mul(b)):
        got = outcome(lambda: m.evaluate(x).data)
        assert got == outcome(lambda: ref_evaluate(m, x).data)


def test_cancelling_product_is_the_zero_map():
    f = GF(7)
    a = LaurentMatrix(f, 1, 2, {(0, 0): {-1: 2, 1: 3}, (0, 1): {-1: 2, 1: 3}})
    b = LaurentMatrix(f, 2, 1, {(0, 0): {2: 1}, (1, 0): {2: 6}})
    assert a.mul(b).entries == ref_mul(a, b).entries == {}
    assert a.mul(b).column_terms() == [[]]


def test_laurent_matrix_mul_and_eval():
    f = GF(7)
    a = LaurentMatrix(f, 2, 2, {(0, 0): {1: 1}, (1, 1): {-1: 1}})
    b = LaurentMatrix(f, 2, 2, {(0, 0): {-1: 1}, (1, 1): {1: 1}})
    ab = a.mul(b)
    assert ab.entries == {(0, 0): {0: 1}, (1, 1): {0: 1}}
    ev = a.evaluate(3)
    assert ev[0, 0] == 3 and ev[1, 1] == 5  # 3^-1 = 5 mod 7


def test_identity_degeneration():
    t = unit(GF(5), 3)
    d = Degeneration.from_restriction(Restriction.identity(GF(5), t.dims), 3)
    assert verify_degeneration(d, t)
    bad = Degeneration.from_restriction(Restriction.identity(GF(5), t.dims), 2)
    assert not verify_degeneration(bad, t)  # wrong claimed size


def test_apply_degeneration_shifted_support():
    f = GF(5)
    t = unit(f, 2)
    eps_scale = LaurentMatrix.from_matrix(Matrix.identity(f, 2)).scale_rows([1, 1])
    ident = LaurentMatrix.from_matrix(Matrix.identity(f, 2))
    d = Degeneration((eps_scale, ident, ident), 2)
    terms = apply_degeneration(d, t)
    assert list(terms) == [1]
    assert terms[1] == t


def test_overclaimed_size_fails():
    t = unit(GF(5), 3)
    d = Degeneration.from_restriction(Restriction.identity(GF(5), t.dims), 4)
    assert not verify_degeneration(d, t)


def test_verify_reports_negative_exponent():
    f = GF(5)
    t = unit(f, 2)
    neg = LaurentMatrix.from_matrix(Matrix.identity(f, 2)).scale_rows([-1, 0])
    ident = LaurentMatrix.from_matrix(Matrix.identity(f, 2))
    d = Degeneration((neg, ident, ident), 2)
    rep = verify_degeneration(d, t, explain=True)
    assert not rep.ok and "negative" in rep.reason


def test_border_extraction_on_identity():
    t = unit(GF(7), 3)
    d = Degeneration.from_restriction(Restriction.identity(GF(7), t.dims), 3)
    for direction in (1, 2, 3):
        x, coeffs, combined, got = border_le_qi_extract(d, t, direction)
        assert got >= 3


def test_border_extraction_random_vs_exhaustive():
    rng = random.Random(31)
    f = GF(11)
    done = 0
    while done < 20:
        t = rand_tensor(f, (3, 3, 3), rng)
        if t.is_zero():
            continue
        d = rho_degeneration(t, 2, 3)
        for direction in (1, 2, 3):
            x, coeffs, combined, got = border_le_qi_extract(d, t, direction)
            rd, cd = [a for a in (1, 2, 3) if a != direction]
            exact, _ = max_rank_exhaustive(slice_span(t, rd, cd))
            assert d.claimed_r <= got <= exact
        done += 1


def test_border_extraction_of_empty_degeneration():
    """A claimed_r = 0 degeneration (three maps with no rows) verifies; its
    maps evaluate to 0 x 2 matrices, not 0 x 0, so the extraction returns the
    zero combination of rank 0 in every direction."""
    f = GF(5)
    t = unit(f, 2)
    empty = LaurentMatrix(f, 0, 2, {})
    assert empty.evaluate(1).rows == 0 and empty.evaluate(1).cols == 2
    d = Degeneration((empty, empty, empty), 0)
    assert verify_degeneration(d, t)
    for direction in (1, 2, 3):
        x, coeffs, combined, got = border_le_qi_extract(d, t, direction)
        assert (x, coeffs, got) == (1, (0, 0), 0)
        assert combined == Matrix.zeros(f, 2, 2)


def test_border_extraction_field_too_small():
    t = unit(GF(2), 2)
    d = Degeneration.from_restriction(Restriction.identity(GF(2), t.dims), 2)
    with pytest.raises(FieldTooSmallError):
        border_le_qi_extract(d, t, 1)


def test_mamu_border_lb_values():
    assert mamu_border_lb(2, 2, 2) == 3
    assert mamu_border_lb(1, 1, 5) == 1
    assert mamu_border_lb(2, 3, 6) == 6  # e+h < l branch
    for e in range(1, 7):
        for h in range(e, 7):
            for l in range(h, 7):
                v = mamu_border_lb(e, h, l)
                assert v >= -(-3 * e * h // 4)
    with pytest.raises(BadParamsError):
        mamu_border_lb(3, 2, 2)
