import random

import pytest

from tenrank.errors import BadParamsError, FieldTooSmallError
from tenrank.fields import GF
from tenrank.laurent import (
    Degeneration,
    LaurentMatrix,
    apply_degeneration,
    border_le_qi_extract,
    mamu_border_lb,
    poly_add,
    poly_eval,
    poly_mul,
    verify_degeneration,
)
from tenrank.matrix import Matrix
from tenrank.pivots import rho_degeneration
from tenrank.spans import max_rank_exhaustive, slice_span
from tenrank.tensor import Restriction, Tensor3, unit


def rand_tensor(field, dims, rng):
    n = dims[0] * dims[1] * dims[2]
    return Tensor3(field, dims, [rng.randrange(field.p) for _ in range(n)])


def test_poly_arithmetic():
    f = GF(5)
    a = {0: 1, 2: 3}
    b = {-1: 2}
    assert poly_mul(f, a, b) == {-1: 2, 1: 1}
    assert poly_add(f, a, {0: 4}) == {2: 3}
    assert poly_eval(f, {0: 1, 1: 3}, 2) == 2  # 1 + 6 mod 5
    assert poly_eval(f, {-1: 1}, 2) == 3  # inverse of 2 mod 5


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
