from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tenrank.errors import BadParamsError, DivisionByZeroError, InfiniteFieldError
from tenrank.fields import GF, QQ, format_value, parse_field, parse_value


def test_gf_arithmetic_examples():
    f5 = GF(5)
    assert f5.mul(3, 4) == 2
    f7 = GF(7)
    assert f7.div(1, 2) == 4
    assert f7.mul(2, 4) == 1


def test_rational_arithmetic_example():
    assert QQ.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)


def test_enumerate_field():
    assert list(GF(2).elements()) == [0, 1]
    assert list(GF(3).elements()) == [0, 1, 2]
    with pytest.raises(InfiniteFieldError):
        list(QQ.elements())


def test_prime_check():
    with pytest.raises(BadParamsError):
        GF(4)
    with pytest.raises(BadParamsError):
        GF(1)
    GF(2)
    GF(2_147_483_647)  # largest 31-bit prime


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_field_axioms_exhaustive(p):
    f = GF(p)
    for a in f.elements():
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in f.elements():
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            if b != 0:
                assert f.mul(f.div(a, b), b) == a


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        GF(5).div(3, 0)
    with pytest.raises(DivisionByZeroError):
        QQ.div(Fraction(1), Fraction(0))


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_rational_field_axioms(an, bn, ad, bd):
    a, b = Fraction(an, ad), Fraction(bn, bd)
    assert QQ.add(a, QQ.zero()) == a
    assert QQ.mul(a, QQ.one()) == a
    assert QQ.sub(QQ.add(a, b), b) == a
    if b != 0:
        assert QQ.mul(QQ.div(a, b), b) == a


def test_normalize_idempotent():
    f = GF(7)
    for x in range(-20, 20):
        assert f.normalize(f.normalize(x)) == f.normalize(x)
    q = Fraction(6, -8)
    assert QQ.normalize(QQ.normalize(q)) == QQ.normalize(q) == Fraction(-3, 4)


def test_size_markers():
    assert GF(11).size() == 11
    assert QQ.size() is None


def test_parse_and_format():
    assert parse_field("gf:7") == GF(7)
    assert parse_field("q") == QQ
    with pytest.raises(BadParamsError):
        parse_field("gf:six")
    assert parse_value(GF(7), "-1") == 6
    assert parse_value(QQ, "3/6") == Fraction(1, 2)
    assert format_value(Fraction(1, 2)) == "1/2"
    assert format_value(Fraction(3)) == "3"
    assert format_value(5) == "5"
