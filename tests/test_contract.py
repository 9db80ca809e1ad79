"""The packed-row contraction kernel against the dict kernel and the
triple loops it replaced, and certificate checks on Kronecker powers that
never build the power."""

import hashlib
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tenrank.cli import main
from tenrank.engine import (
    SubrankCertificate,
    mamu_cube,
    subrank_exact,
    two_direction_square,
)
from tenrank.errors import BadParamsError, ResourceGuardError
from tenrank.fields import GF, QQ, Elem, PrimeField, RationalField
from tenrank.io import serialize_certificate, serialize_tensor
from tenrank.laurent import (
    Degeneration,
    LaurentMatrix,
    apply_degeneration,
    poly_mul,
    verify_degeneration,
)
from tenrank.matrix import Matrix
from tenrank.pivots import sqrt_certificate
from tenrank.spans import max_rank_exhaustive, max_rank_randomized, slice_span
from tenrank.tensor import (
    Restriction,
    Tensor3,
    _denominator_lcm,
    _terms_per_index,
    _times,
    apply_restriction,
    balanced_pivot,
    contract,
    matrix_terms,
    null_algebra,
    unit,
    verify_restriction,
    w_tensor,
)

FIELDS = (GF(2), GF(7), QQ)


# -- the triple loops the kernel replaced, kept as the reference ---------------


def ref_apply_restriction(r: Restriction, t: Tensor3) -> Tensor3:
    l1, l2, l3 = r.maps
    f = t.field
    out: Dict[tuple, object] = {}
    rows1 = [[(a, v) for a, v in enumerate(l1.col(i)) if not f.is_zero(v)] for i in range(l1.cols)]
    rows2 = [[(b, v) for b, v in enumerate(l2.col(j)) if not f.is_zero(v)] for j in range(l2.cols)]
    rows3 = [[(c, v) for c, v in enumerate(l3.col(k)) if not f.is_zero(v)] for k in range(l3.cols)]
    for (i, j, k), v in t.nonzero_items():
        for a, va in rows1[i]:
            va_v = f.mul(va, v)
            for b, vb in rows2[j]:
                vab = f.mul(va_v, vb)
                for c, vc in rows3[k]:
                    key = (a, b, c)
                    cur = out.get(key)
                    out[key] = f.mul(vab, vc) if cur is None else f.add(cur, f.mul(vab, vc))
    out = {k: v for k, v in out.items() if not f.is_zero(v)}
    return Tensor3(f, r.target_dims, out)


def ref_apply_degeneration(d: Degeneration, t: Tensor3) -> Dict[int, Tensor3]:
    f = t.field
    index = []
    for m in d.maps:
        idx: Dict[int, list] = {}
        for (i, j), poly in m.entries.items():
            idx.setdefault(j, []).append((i, poly))
        index.append(idx)
    ai, bi, ci = index
    acc: Dict[int, Dict[tuple, object]] = {}
    for (i, j, k), v in t.nonzero_items():
        for ra, pa in ai.get(i, ()):
            for rb, pb in bi.get(j, ()):
                pab = poly_mul(f, pa, pb)
                for rc, pc in ci.get(k, ()):
                    prod = poly_mul(f, pab, pc)
                    for e, coef in prod.items():
                        bucket = acc.setdefault(e, {})
                        key = (ra, rb, rc)
                        s = f.add(bucket.get(key, f.zero()), f.mul(coef, v))
                        if f.is_zero(s):
                            bucket.pop(key, None)
                        else:
                            bucket[key] = s
    return {e: Tensor3(f, d.target_dims, b) for e, b in sorted(acc.items()) if b}


def ref_contract(t: Tensor3, legs, *, power: int = 1):
    """The kernel before it contracted the first leg factor by factor: it
    streams all nnz(t)^power products of t's nonzeros into the first leg."""
    p = t.field.p if isinstance(t.field, PrimeField) else None
    base = [((0, i, j, k), v) for (i, j, k), v in t.nonzero_items()]
    s = 0
    if power > 1:
        # start at the leg whose map has the fewest terms per source index,
        # so that the long stream of the power shrinks first: the keys are
        # rotated by s, and 3 - s more rotations at the end undo it
        s = min(range(3), key=lambda leg: _terms_per_index(legs[leg]))
        legs = [*legs[s:], *legs[:s], *[None] * (-s % 3)]
        base = [((0, *ijk[s:], *ijk[:s]), v) for (_, *ijk), v in base]
    n1, n2, n3 = t.dims[s:] + t.dims[:s]
    scale = 1
    if p is None:
        scale = _denominator_lcm(v for _, v in base)
        base = [(key, _times(v, scale)) for key, v in base]
        scale **= power
    items = base
    for _ in range(power - 1):
        items = (((0, i * n1 + a, j * n2 + b, k * n3 + c), v * w)
                 for (_, i, j, k), v in items for (_, a, b, c), w in base)
    for terms in legs:
        # contracting the first leg moves it to the back, (e, i, j, k) ->
        # (e, j, k, a), so after three legs the key is (e, a, b, c) again
        if terms is None:
            items = (((e, j, k, i), v) for (e, i, j, k), v in items)
            continue
        if p is None:
            leg_scale = _denominator_lcm(c for col in terms for _, _, c in col)
            terms = [[(a, x, _times(c, leg_scale)) for a, x, c in col] for col in terms]
            scale *= leg_scale
        acc: Dict[tuple, int] = {}
        get = acc.get
        for (e, i, j, k), v in items:
            for a, x, c in terms[i]:
                key = (e + x, j, k, a)
                acc[key] = get(key, 0) + c * v
        items = _settled(acc, p)
    out: Dict[int, Dict[tuple, Elem]] = {}
    for (e, a, b, c), v in items:
        out.setdefault(e, {})[(a, b, c)] = v if p else Fraction(v, scale)
    return out


def _integer_terms(terms, p):
    """A leg's terms on ints and the scale they carry: over Q the
    coefficients times the lcm of their denominators, over GF(p) as given."""
    if p is not None:
        return terms, 1
    leg_scale = _denominator_lcm(c for col in terms for _, _, c in col)
    return [[(a, x, _times(c, leg_scale)) for a, x, c in col] for col in terms], leg_scale


def _settled(acc, p):
    """The accumulated sums that are nonzero, as items for the next leg;
    over GF(p) reduced mod p."""
    if p is None:
        for key, v in acc.items():
            if v:
                yield key, v
    else:
        for key, v in acc.items():
            v %= p
            if v:
                yield key, v


def ref_contract_dict(t: Tensor3, legs, *, power: int = 1):
    """The kernel before rows were packed: one dict update per product of a
    map term and an item ((e, i, j, k), v), the first leg contracted factor by
    factor, every stage and leg reduced mod p."""
    p = t.field.p if isinstance(t.field, PrimeField) else None
    base = list(t.nonzero_items())
    s = 0
    if power > 1:
        # start at the leg whose map has the fewest terms per source index,
        # so that the items of the power shrink first: the keys are rotated
        # by s, and 3 - s more rotations at the end undo it
        s = min(range(3), key=lambda leg: _terms_per_index(legs[leg]))
        legs = [*legs[s:], *legs[:s], *[None] * (-s % 3)]
        base = [(ijk[s:] + ijk[:s], v) for ijk, v in base]
    n1, n2, n3 = t.dims[s:] + t.dims[:s]
    scale = 1
    if p is None:
        scale = _denominator_lcm(v for _, v in base)
        base = [(ijk, _times(v, scale)) for ijk, v in base]
        scale **= power
    by_i = [[] for _ in range(n1)]
    for (i, j, k), v in base:
        by_i[i].append((j, k, v))
    first, *rest = legs
    if first is None:
        first = [[(x, 0, 1)] for x in range(n1**power)]
    first, leg_scale = _integer_terms(first, p)
    scale *= leg_scale
    # stage 1, the innermost factor: the key (e, j, k, row) carries in
    # row = a * n1^(power-1) + rest_digits the map's row a beside the
    # column's outer digits, which the later stages peel off innermost first
    outer = n1 ** (power - 1)
    acc: Dict[tuple, int] = {}
    get = acc.get
    for col_index, col in enumerate(first):
        rest_digits, x = divmod(col_index, n1)
        factor = by_i[x]
        for a, e, c in col:
            row = a * outer + rest_digits
            for j, k, v in factor:
                key = (e, j, k, row)
                acc[key] = get(key, 0) + c * v
    items = _settled(acc, p)
    inner2, inner3 = n2, n3
    for _ in range(power - 1):
        acc = {}
        get = acc.get
        for (e, jj, kk, row), v in items:
            row, x = divmod(row, n1)
            for j, k, w in by_i[x]:
                key = (e, j * inner2 + jj, k * inner3 + kk, row)
                acc[key] = get(key, 0) + v * w
        items = _settled(acc, p)
        inner2 *= n2
        inner3 *= n3
    for terms in rest:
        # contracting a leg moves it to the back, (e, i, j, k) -> (e, j, k, a),
        # so after three legs the key is (e, a, b, c) again
        if terms is None:
            items = (((e, j, k, i), v) for (e, i, j, k), v in items)
            continue
        terms, leg_scale = _integer_terms(terms, p)
        scale *= leg_scale
        acc = {}
        get = acc.get
        for (e, i, j, k), v in items:
            for a, x, c in terms[i]:
                key = (e + x, j, k, a)
                acc[key] = get(key, 0) + c * v
        items = _settled(acc, p)
    out: Dict[int, Dict[tuple, Elem]] = {}
    for (e, a, b, c), v in items:
        out.setdefault(e, {})[(a, b, c)] = v if p else Fraction(v, scale)
    return out


# -- strategies -----------------------------------------------------------------


def elements(f, max_den=3):
    if f == QQ:
        return st.builds(Fraction, st.integers(-2, 2), st.integers(1, max_den))
    return st.integers(0, f.p - 1)


@st.composite
def tensor_and_power(draw, fields=FIELDS, max_den=3):
    f = draw(st.sampled_from(fields))
    m = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 3 if m == 1 else 2)) for _ in range(3))
    n = dims[0] * dims[1] * dims[2]
    t = Tensor3(f, dims, draw(st.lists(elements(f, max_den), min_size=n, max_size=n)), normalize=True)
    return t, m


@st.composite
def restriction_case(draw, fields=FIELDS, max_den=3):
    t, m = draw(tensor_and_power(fields, max_den))
    f = t.field
    maps = []
    for n in t.dims:
        rows = draw(st.integers(1, 3))
        data = draw(st.lists(st.lists(elements(f, max_den), min_size=n**m, max_size=n**m),
                             min_size=rows, max_size=rows))
        maps.append(Matrix(f, data, normalize=True))
    return t, m, Restriction(tuple(maps))


@st.composite
def degeneration_case(draw, fields=FIELDS, max_den=3):
    t, m = draw(tensor_and_power(fields, max_den))
    f = t.field
    r = draw(st.integers(1, 3))
    maps = []
    for n in t.dims:
        ent = {}
        for row in range(r):
            for col in range(n**m):
                terms = draw(st.lists(st.tuples(st.integers(-2, 2), elements(f, max_den)), max_size=2))
                if terms:
                    ent[(row, col)] = dict(terms)
        maps.append(LaurentMatrix(f, r, n**m, ent))
    return t, m, Degeneration(tuple(maps), claimed_r=r, power=m)


# -- differential tests ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(restriction_case())
def test_restriction_matches_triple_loop(case):
    t, m, r = case
    power = t.kron_power(m)
    expected = ref_apply_restriction(r, power)
    assert apply_restriction(r, t, power=m) == expected
    assert verify_restriction(r, t, expected, power=m)
    assert verify_restriction(r, power, expected)
    if r.target_dims == (1, 1, 1):
        other = Tensor3(t.field, (1, 1, 1), [t.field.add(expected[0, 0, 0], t.field.one())])
        assert not verify_restriction(r, t, other, power=m)


@settings(max_examples=150, deadline=None)
@given(degeneration_case())
def test_degeneration_matches_triple_loop(case):
    t, m, d = case
    power = t.kron_power(m)
    assert apply_degeneration(d, t, power=m) == ref_apply_degeneration(d, power)
    assert verify_degeneration(d, t, power=m, explain=True) == verify_degeneration(
        d, power, explain=True
    )


@settings(max_examples=60, deadline=None)
@given(tensor_and_power(), st.integers(1, 3), st.data())
def test_single_leg_contraction_matches_identity_restriction(case, leg, data):
    t, _ = case
    f = t.field
    n = t.dims[leg - 1]
    rows = data.draw(st.integers(1, 3))
    m = Matrix(f, data.draw(st.lists(st.lists(elements(f), min_size=n, max_size=n),
                                      min_size=rows, max_size=rows)), normalize=True)
    maps = [Matrix.identity(f, n) for n in t.dims]
    maps[leg - 1] = m
    legs = [None, None, None]
    legs[leg - 1] = matrix_terms(m)
    dims = list(t.dims)
    dims[leg - 1] = m.rows
    got = Tensor3(f, tuple(dims), contract(t, legs).get(0, {}))
    assert got == ref_apply_restriction(Restriction(tuple(maps)), t)


# -- the factor-by-factor kernel against the product stream ------------------------


# exponents of Laurent terms, up to a size no certificate reaches
EXPONENTS = st.sampled_from((0, 1, -1, 2, -2, 10**12, -10**12))


@st.composite
def contract_case(draw):
    """t, legs and a power for `contract`: GF(2), GF(7), GF(2^31 - 1) or Q
    (denominators up to 50, either sign), at times with every value at its
    widest (p - 1, or -97/89 on Q) so that sums fill their slots; dimensions
    from 0; sparse maps whose columns get terms with probability 1/4 (as on
    the square's diagonal leg) or dense ones, restriction terms (one
    exponent-0 term per row) or Laurent terms with exponents up to 10^12,
    and None legs in any position."""
    f = draw(st.sampled_from((GF(2), GF(7), GF(2**31 - 1), QQ)))
    m = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(0, 3 if m == 1 else 2)) for _ in range(3))
    value = elements(f, 50)
    if draw(st.integers(0, 3)) == 0:
        value = st.just(Fraction(-97, 89) if f == QQ else f.p - 1)
    n = dims[0] * dims[1] * dims[2]
    t = Tensor3(f, dims, draw(st.lists(value, min_size=n, max_size=n)), normalize=True)
    laurent = draw(st.booleans())
    legs = []
    for n in dims:
        if draw(st.integers(0, 3)) == 0:
            legs.append(None)
            continue
        rows = st.integers(0, draw(st.integers(1, 3)) - 1)
        sparse = draw(st.booleans())
        cols = []
        for _ in range(n**m):
            if sparse and draw(st.integers(0, 3)):
                cols.append([])
            elif laurent:
                cols.append(draw(st.lists(st.tuples(rows, EXPONENTS, value), min_size=1, max_size=3)))
            else:
                cols.append([(a, 0, draw(value)) for a in sorted(draw(st.sets(rows, min_size=1)))])
        legs.append(cols)
    return t, legs, m


def assert_same_contraction(t, legs, m, ref=ref_contract):
    """contract against a reference kernel: values and element types."""
    got, want = contract(t, legs, power=m), ref(t, legs, power=m)
    assert got == want
    assert {e: {k: type(v) for k, v in d.items()} for e, d in got.items()} == {
        e: {k: type(v) for k, v in d.items()} for e, d in want.items()}
    return got


@settings(max_examples=400, deadline=None)
@given(contract_case())
def test_contract_matches_product_stream(case):
    t, legs, m = case
    # with no map at all the product stream hands back unreduced GF(p) products
    assume(m == 1 or legs != [None, None, None])
    assert_same_contraction(t, legs, m)


# -- the packed kernel against the dict kernel ------------------------------------


@settings(max_examples=400, deadline=None)
@given(contract_case())
def test_contract_matches_dict_kernel(case):
    assert_same_contraction(*case, ref=ref_contract_dict)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("f, value, coef", [(GF(7), 6, 6), (GF(2**31 - 1), 2**31 - 2, 2**31 - 2),
                                            (QQ, Fraction(-97, 89), Fraction(-5, 3))],
                         ids=["GF7", "GF(2^31-1)", "QQ"])
def test_slots_hold_the_largest_sum(f, value, coef, m):
    """Every value of t and every coefficient of one-row maps at its widest:
    the one output entry is the largest |sum| the slot width is chosen for,
    max|t|^m times each leg's sum of |coefficient|."""
    t = Tensor3(f, (2, 2, 2), [value] * 8, normalize=True)
    legs = [[[(0, 0, f.normalize(coef))] for _ in range(2**m)] for _ in range(3)]
    got = assert_same_contraction(t, legs, m, ref=ref_contract_dict)
    want = f.normalize(Fraction(value) ** m * Fraction(coef) ** 3 * 8**m)
    assert got == {0: {(0, 0, 0): want}}


@pytest.mark.parametrize("power", [0, -1])
def test_contract_refuses_powers_below_one(power):
    t = unit(GF(7), 2)
    with pytest.raises(BadParamsError):
        contract(t, [None, None, None], power=power)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# sha256 of the outputs of the 345 `contract` calls that one round of each
# benchmark workload makes (seed 5), recorded with the dict kernel
WORKLOAD_CONTRACT_SHA256 = "36590c1d28acc50467f8f4d3c0b87ae804ba9ea0f7d654b2dd12af3133a66e34"


def test_workload_contract_calls_match_dict_kernel(monkeypatch, tmp_path):
    """A fixed corpus: every call round 0 of bounds, scan, covers and replay
    makes, against the dict kernel and against the outputs recorded with it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    calls = []

    def recorded(t, legs, *, power=1):
        calls.append((t, legs, power))
        return contract(t, legs, power=power)

    monkeypatch.setattr("tenrank.tensor.contract", recorded)
    monkeypatch.setattr("tenrank.laurent.contract", recorded)
    for name in ("bounds", "scan", "covers", "replay"):
        wl = workloads.WORKLOADS[name](5, str(tmp_path))
        for item in wl.items(0):
            wl.run(item)
    assert sorted({m for _, _, m in calls}) == [1, 2]
    lines = [repr(sorted((e, sorted(d.items())) for e, d in assert_same_contraction(*call, ref=ref_contract_dict).items()))
             for call in calls]
    assert len(lines) == 345
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WORKLOAD_CONTRACT_SHA256


@pytest.mark.parametrize("f", [GF(7), QQ], ids=["GF7", "QQ"])
def test_identity_legs_give_the_power(f):
    t = Tensor3(f, (2, 1, 2), [3, 0, 5, Fraction(-4, 3) if f == QQ else 2], normalize=True)
    for m in (1, 2, 3):
        power = t.kron_power(m)
        assert contract(t, [None, None, None], power=m) == {0: dict(power.nonzero_items())}


def test_certificate_power_calls_match_product_stream(monkeypatch):
    """Every contraction the square, the cube and the sqrt certificate make,
    on the power and off it, against the product-stream kernel."""
    calls = []

    def recorded(t, legs, *, power=1):
        calls.append((t, legs, power))
        return contract(t, legs, power=power)

    monkeypatch.setattr("tenrank.tensor.contract", recorded)
    monkeypatch.setattr("tenrank.laurent.contract", recorded)
    t = null_algebra(GF(7), 4)
    w1, _, w3 = _witnesses(t)
    two_direction_square(t, 1, 3, w1, w3)
    rng = random.Random(15)
    while True:
        t = Tensor3(GF(11), (4, 3, 2), [rng.randrange(11) for _ in range(24)])
        if t.is_concise():
            break
    mamu_cube(t, *_witnesses(t))
    w = w_tensor(QQ)
    mamu_cube(w, *(max_rank_randomized(span, trials=32, seed=7 * d)[1]
                   for d, span in enumerate(_spans(w), 1)))
    sqrt_certificate(balanced_pivot(GF(7), 4))
    assert sorted({m for _, _, m in calls}) == [1, 2, 3]
    for call in calls:
        assert_same_contraction(*call)


# -- the integer kernel: wide denominators and residues, no field calls -------------

# denominators up to 50, so coprime ones make a leg's lcm grow; residues up to
# 2^31 - 2, so unreduced sums of products run far past the modulus
WIDE = (QQ, GF(2**31 - 1))


def assert_element_types(f, out):
    elem = Fraction if f == QQ else int
    assert all(type(v) is elem for terms in out.values() for v in terms.values())


@settings(max_examples=100, deadline=None)
@given(restriction_case(WIDE, max_den=50))
def test_restriction_with_wide_denominators_and_residues(case):
    t, m, r = case
    assert apply_restriction(r, t, power=m) == ref_apply_restriction(r, t.kron_power(m))
    assert_element_types(t.field, contract(t, [matrix_terms(x) for x in r.maps], power=m))


@settings(max_examples=100, deadline=None)
@given(degeneration_case(WIDE, max_den=50))
def test_degeneration_with_wide_denominators_and_residues(case):
    t, m, d = case
    assert apply_degeneration(d, t, power=m) == ref_apply_degeneration(d, t.kron_power(m))
    assert_element_types(t.field, contract(t, [x.column_terms() for x in d.maps], power=m))


@pytest.mark.parametrize("f", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_power_two_checks_make_no_field_calls(f, monkeypatch):
    rng = random.Random(10)

    def value():
        return f.normalize(Fraction(rng.randint(-4, 4), rng.randint(1, 6)) if f == QQ else rng.randrange(7))

    t = Tensor3(f, (2, 2, 2), [value() for _ in range(8)])
    r = Restriction(tuple(Matrix(f, [[value() for _ in range(4)] for _ in range(3)]) for _ in range(3)))
    d = Degeneration(tuple(
        LaurentMatrix(f, 2, 4, {(a, b): {rng.randint(-1, 1): value()} for a in range(2) for b in range(4)})
        for _ in range(3)), claimed_r=2, power=2)
    square = t.kron_power(2)
    restricted, degenerated = ref_apply_restriction(r, square), ref_apply_degeneration(d, square)
    assert not restricted.is_zero() and degenerated

    def refuse(self, a, b):
        raise AssertionError("field arithmetic called per term")

    for cls in (RationalField, PrimeField):
        monkeypatch.setattr(cls, "mul", refuse)
        monkeypatch.setattr(cls, "add", refuse)
    assert apply_restriction(r, t, power=2) == restricted
    assert apply_degeneration(d, t, power=2) == degenerated


# -- certificates on powers never build the power ---------------------------------


def _spans(t):
    """The slice spans of directions 1, 2 and 3."""
    return [slice_span(t, *[x for x in (1, 2, 3) if x != d]) for d in (1, 2, 3)]


def _witnesses(t):
    return [max_rank_exhaustive(span)[1] for span in _spans(t)]


@pytest.fixture
def no_kron(monkeypatch):
    def refuse(self, other):
        raise AssertionError("a Kronecker product of tensors was built")

    monkeypatch.setattr(Tensor3, "kron", refuse)


def test_square_and_cube_certificates_verify_without_the_power(no_kron):
    t = null_algebra(GF(7), 4)
    w1, _, w3 = _witnesses(t)
    square = two_direction_square(t, 1, 3, w1, w3)
    assert square.power == 2 and square.verify(t)

    u = unit(GF(5), 2)
    restr, bound = mamu_cube(u, *_witnesses(u))
    assert bound == 4
    _, base = subrank_exact(u)
    res = base.restriction
    cube = res.kron(res).kron(res)
    assert SubrankCertificate("restriction", 8, 3, restriction=cube).verify(u)
    assert not SubrankCertificate("restriction", 8, 3, restriction=cube).verify(null_algebra(GF(5), 2))
    deg = Degeneration.from_restriction(cube, 8, 3)
    assert SubrankCertificate("degeneration", 8, 3, degeneration=deg).verify(u)


def test_cli_verifies_power_two_certificate_without_the_power(no_kron, tmp_path, capsys):
    t = balanced_pivot(GF(7), 4)
    d = sqrt_certificate(t)
    assert d.power == 2
    cert, tens = tmp_path / "sqrt.cert", tmp_path / "t.tensor"
    cert.write_text(serialize_certificate(d, t.field))
    tens.write_text(serialize_tensor(t))
    assert main(["verify", str(cert), str(tens)]) == 0
    assert capsys.readouterr().out.strip() == "verified r=4 power=2"


def test_guard_counts_dense_entries_of_the_power(tmp_path, capsys):
    t = unit(GF(2), 4)  # 64 entries: 64^4 = 2^24 is allowed, 64^5 is not
    with pytest.raises(ResourceGuardError) as built:
        t.kron_power(5)
    sel = Matrix.from_entries(GF(2), 1, 4**5, {(0, 0): 1})
    with pytest.raises(ResourceGuardError) as streamed:
        apply_restriction(Restriction((sel, sel, sel)), t, power=5)
    assert str(streamed.value) == str(built.value)

    deg = Degeneration.from_restriction(Restriction((sel, sel, sel)), 1, 5)
    with pytest.raises(ResourceGuardError):  # too large to check is not "invalid"
        SubrankCertificate("degeneration", 1, 5, degeneration=deg).verify(t)
    sel4 = Matrix.from_entries(GF(2), 1, 4**4, {(0, 0): 1})
    deg4 = Degeneration.from_restriction(Restriction((sel4, sel4, sel4)), 1, 4)
    assert SubrankCertificate("degeneration", 1, 4, degeneration=deg4).verify(t)

    cert, tens = tmp_path / "big.cert", tmp_path / "t.tensor"
    cert.write_text(serialize_certificate(deg, t.field))
    tens.write_text(serialize_tensor(t))
    assert main(["verify", str(cert), str(tens)]) == 3
    assert str(built.value) in capsys.readouterr().err
