import ast
import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tenrank.spans
from tenrank import cli
from tenrank.errors import (
    BadParamsError,
    FieldTooSmallError,
    InfiniteFieldError,
    NotConciseError,
    ResourceGuardError,
    ZeroSpanError,
)
from tenrank.fields import GF, QQ
from tenrank.matrix import Matrix, _rref_annihilator, rank
from tenrank.spans import (
    SUBSPACE_PAIR_GUARD,
    FlandersReport,
    _annihilator,
    _covered,
    _cover_walk,
    _subspace_layer,
    basis_extension,
    combine,
    diagonalize_principal,
    epsilon,
    flanders_check,
    high_rank_slice,
    independent_basis,
    max_rank_exhaustive,
    max_rank_randomized,
    min_rank_exhaustive,
    mincov_exhaustive,
    minrk_diag_pipeline,
    minsupp_exact,
    minsupp_restrict,
    mixed_kron_count,
    mixed_kron_set,
    slice_span,
    span_of,
    staircase,
    subspace_count,
    subspace_pair_count,
    subspaces,
    verify_cover,
)
from tenrank.tensor import Tensor3, gen_null_algebra, null_algebra, unit, w_tensor


def rand_matrix(field, rows, cols, rng):
    return Matrix(field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])


def rand_tensor(field, dims, rng):
    n = dims[0] * dims[1] * dims[2]
    return Tensor3(field, dims, [rng.randrange(field.p) for _ in range(n)])


def brute_max_rank(field, mats):
    """Oracle: enumerate every coefficient tuple directly."""
    best = 0
    sp = span_of(field, mats)
    for coeffs in itertools.product(range(field.p), repeat=len(mats)):
        best = max(best, rank(combine(sp, coeffs)))
    return best


def brute_min_rank(field, mats):
    best = None
    sp = span_of(field, mats)
    for coeffs in itertools.product(range(field.p), repeat=len(mats)):
        m = combine(sp, coeffs)
        if m.is_zero():
            continue
        r = rank(m)
        if best is None or r < best:
            best = r
    return best


# -- max/min rank ------------------------------------------------------------


def test_max_rank_identity_span():
    v, wit = max_rank_exhaustive(span_of(GF(3), [Matrix.identity(GF(3), 3)]))
    assert v == 3
    assert wit.rank == 3


def test_max_rank_null_algebra_middle():
    t = null_algebra(GF(5), 4)
    v, _ = max_rank_exhaustive(slice_span(t, 1, 3))
    assert v == 2


def test_gen_null_algebra_bounds():
    t = gen_null_algebra(GF(11), 6, 2)
    q2, _ = max_rank_exhaustive(slice_span(t, 1, 3))
    assert q2 <= 3  # c + 1
    q1, _ = max_rank_exhaustive(slice_span(t, 2, 3))
    assert q1 == 6
    q3, _ = max_rank_exhaustive(slice_span(t, 1, 2))
    assert q3 <= 4  # n/c + 1


def test_exhaustive_matches_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        f = GF(rng.choice([2, 3]))
        mats = [rand_matrix(f, 3, 3, rng) for _ in range(rng.randrange(1, 4))]
        got, wit = max_rank_exhaustive(span_of(f, mats))
        assert got == brute_max_rank(f, mats)
        assert rank(combine(span_of(f, mats), wit.coeffs)) == got
        if any(not m.is_zero() for m in mats):
            gmin, witmin = min_rank_exhaustive(span_of(f, mats))
            assert gmin == brute_min_rank(f, mats)
            wm = combine(span_of(f, mats), witmin.coeffs)
            assert not wm.is_zero() and rank(wm) == gmin


def test_randomized_never_exceeds_and_matches_small():
    rng = random.Random(11)
    for trial in range(200):
        f = GF(5)
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        mats = [rand_matrix(f, rows, cols, rng) for _ in range(rng.randrange(1, 4))]
        exact, _ = max_rank_exhaustive(span_of(f, mats))
        approx, wit = max_rank_randomized(span_of(f, mats), trials=40, seed=trial)
        assert approx <= exact
        assert approx == exact  # 40 trials at q=5: miss probability is negligible and seed-fixed


def test_min_rank_errors():
    with pytest.raises(ZeroSpanError):
        min_rank_exhaustive(span_of(GF(2), [Matrix.zeros(GF(2), 2, 2)]))
    j = Matrix(QQ, [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    with pytest.raises(InfiniteFieldError):
        min_rank_exhaustive(span_of(QQ, [Matrix.identity(QQ, 2), j]))


def test_rotation_span_minrank_two_over_q():
    """The rotation span over Q: every nonzero element has rank 2, checked
    at the four witness points and by the no-three-zero-eigenvalues linear
    systems; its Kronecker square contains a rank-2 element."""
    f = QQ
    i2 = Matrix.identity(QQ, 2)
    j = Matrix(QQ, [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    for (a, b) in [(1, 0), (0, 1), (1, 1), (1, -1)]:
        m = i2.scale(Fraction(a)).add(j.scale(Fraction(b)))
        assert rank(m) == 2
    # rank of a*I(x)I + b*I(x)J + c*J(x)I + d*J(x)J equals the number of
    # nonzero values among a - d*e1*e2 + i(b*e2 + c*e1), e in {-1,1}^2;
    # requiring three of them to vanish forces a = b = c = d = 0
    patterns = list(itertools.product((1, -1), repeat=2))
    for drop in itertools.combinations(range(4), 3):
        rows = []
        for t in drop:
            e1, e2 = patterns[t]
            rows.append([1, 0, 0, -e1 * e2])  # a - d e1 e2 = 0
            rows.append([0, e2, e1, 0])  # b e2 + c e1 = 0
        m = Matrix(QQ, [[Fraction(x) for x in row] for row in rows])
        assert rank(m) == 4  # only the zero element loses three eigenvalues
    # eigenvalue-count model cross-check on random rational elements
    rng = random.Random(3)
    for _ in range(40):
        a, b, c, d = (Fraction(rng.randrange(-4, 5)) for _ in range(4))
        m = (
            i2.kron(i2).scale(a)
            .add(i2.kron(j).scale(b))
            .add(j.kron(i2).scale(c))
            .add(j.kron(j).scale(d))
        )
        cnt = 0
        for e1, e2 in patterns:
            re = a - d * e1 * e2
            im = b * e2 + c * e1
            if re != 0 or im != 0:
                cnt += 1
        assert rank(m) == cnt
    # the square of the span drops to min-rank 2 < 4
    sq = i2.kron(i2).add(j.kron(j))
    assert rank(sq) == 2


def test_diag_supermultiplicativity_exhaustive_small():
    """min-rank is supermultiplicative when one factor span is diagonal."""
    for p in (2, 3):
        f = GF(p)
        diag_spans = []
        for vals in itertools.product(range(p), repeat=2):
            for vals2 in itertools.product(range(p), repeat=2):
                m1 = Matrix.from_entries(f, 2, 2, {(0, 0): vals[0], (1, 1): vals[1]})
                m2 = Matrix.from_entries(f, 2, 2, {(0, 0): vals2[0], (1, 1): vals2[1]})
                if not (m1.is_zero() and m2.is_zero()):
                    diag_spans.append([m1, m2])
        rng = random.Random(p)
        others = [[rand_matrix(f, 2, 2, rng) for _ in range(2)] for _ in range(6)]
        checked = 0
        for da in diag_spans[:12]:
            da_live = [m for m in da if not m.is_zero()]
            mr_a = brute_min_rank(f, da_live)
            for ob in others:
                ob_live = [m for m in ob if not m.is_zero()]
                if not ob_live:
                    continue
                mr_b = brute_min_rank(f, ob_live)
                prod = [a.kron(b) for a in da_live for b in ob_live]
                mr_ab, _ = min_rank_exhaustive(span_of(f, prod))
                assert mr_ab >= mr_a * mr_b
                checked += 1
        assert checked > 20


# -- mincov and Flanders -------------------------------------------------------


def test_subspace_enumeration_counts():
    for q, n in [(2, 3), (3, 2), (5, 2)]:
        f = GF(q)
        for d in range(n + 1):
            got = sum(1 for _ in subspaces(f, n, d))
            assert got == subspace_count(q, n, d)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_subspace_pair_count_is_the_product_of_the_subspace_totals(q):
    """The count is (sum_a [n1, a]_q) * (sum_b [n2, b]_q), O(n) Gaussian
    binomials; the double sum over (a, b) it replaced is kept here."""
    for n1, n2 in itertools.product(range(7), repeat=2):
        assert subspace_pair_count(q, n1, n2) == sum(subspace_count(q, n1, a) * subspace_count(q, n2, b)
                                                     for a in range(n1 + 1) for b in range(n2 + 1))


def _gaussian_product(q, n, dim):
    """[n, dim]_q as one product divided by another, the form the counts
    had before the ratio recurrence; 0 for dim > n."""
    num = den = 1
    for i in range(dim):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("q", [2, 3, 7, 11])
def test_subspace_counts_equal_the_product_form(q):
    for n in range(9):
        assert [subspace_count(q, n, dim) for dim in range(n + 3)] == [_gaussian_product(q, n, dim)
                                                                      for dim in range(n + 3)]
    for n1, n2 in itertools.product(range(9), repeat=2):
        assert subspace_pair_count(q, n1, n2) == sum(_gaussian_product(q, n1, a) * _gaussian_product(q, n2, b)
                                                     for a in range(n1 + 1) for b in range(n2 + 1))


@pytest.mark.parametrize("n, dim", [(3, -1), (-1, 0), (-2, -1)])
def test_subspaces_refuse_negative_dimensions(n, dim):
    with pytest.raises(BadParamsError, match="n >= 0 and dim >= 0"):
        subspace_count(3, n, dim)
    with pytest.raises(BadParamsError, match="n >= 0 and dim >= 0"):
        list(subspaces(GF(3), n, dim))


def test_mincov_examples():
    f = GF(2)
    v, (v1, v2) = mincov_exhaustive(span_of(f, [Matrix.identity(f, 2)]))
    assert v == 2
    e11 = Matrix.from_entries(f, 2, 2, {(0, 0): 1})
    v, (v1, v2) = mincov_exhaustive(span_of(f, [e11]))
    assert v == 1
    assert verify_cover(span_of(f, [e11]), v1, v2)
    v, _ = mincov_exhaustive(span_of(f, [Matrix.zeros(f, 2, 2)]))
    assert v == 0
    # {[1 0], [0 1]}: V1 = F^1 covers it alone, so W, and V2, have no rows
    rows_1x2 = span_of(f, [Matrix(f, [[1, 0]]), Matrix(f, [[0, 1]])])
    v, (v1, v2) = mincov_exhaustive(rows_1x2)
    assert v == 1 and v1.data == ((1,),)
    assert v2.rows == 0 and v2.cols == 2
    assert verify_cover(rows_1x2, v1, v2)


def brute_mincov(field, mats):
    """Oracle via direct membership over all subspace pairs."""
    from tenrank.spans import _annihilator, _covered

    n1, n2 = mats[0].rows, mats[0].cols
    best = None
    for a in range(n1 + 1):
        for b in range(n2 + 1):
            if best is not None and a + b >= best:
                continue
            for v1 in subspaces(field, n1, a):
                ann1 = _annihilator(v1)
                for v2 in subspaces(field, n2, b):
                    if _covered(span_of(field, mats), ann1, _annihilator(v2)):
                        best = a + b if best is None else min(best, a + b)
                        break
                else:
                    continue
                break
    return best


def ref_mincov_two_sided(span, guard=SUBSPACE_PAIR_GUARD):
    """The two-sided (V1, V2) search mincov_exhaustive replaced, kept as the
    reference: pairs in order of increasing total, first cover wins."""
    f = span.field
    n1, n2 = span.shape
    if all(m.is_zero() for m in span.basis):
        return 0, (Matrix.zeros(f, 0, n1), Matrix.zeros(f, 0, n2))
    q = f.p
    total_pairs = sum(
        subspace_count(q, n1, a) * subspace_count(q, n2, b)
        for a in range(n1 + 1)
        for b in range(n2 + 1)
    )
    if total_pairs > guard:
        raise ResourceGuardError(
            f"subspace-pair enumeration of {total_pairs} pairs exceeds guard {guard}"
        )
    for total in range(1, n1 + n2 + 1):
        for a in range(max(0, total - n2), min(n1, total) + 1):
            b = total - a
            for v1 in subspaces(f, n1, a):
                ann1 = _annihilator(v1)
                for v2 in subspaces(f, n2, b):
                    if _covered(span, ann1, _annihilator(v2)):
                        return total, (v1, v2)
    raise AssertionError("two-sided search found no cover")


@st.composite
def small_spans(draw):
    f = GF(draw(st.sampled_from([2, 3, 5])))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gens = draw(st.integers(1, 3))
    entries = st.lists(st.integers(0, f.p - 1), min_size=rows * cols, max_size=rows * cols)
    mats = [Matrix(f, [e[i * cols:(i + 1) * cols] for i in range(rows)]) for e in draw(
        st.lists(entries, min_size=gens, max_size=gens))]
    return span_of(f, mats)


def skew_span(f):
    """E12 - E21, E13 - E31, E23 - E32: every generator has rank 2, mincov is 3."""
    return span_of(f, [Matrix.from_entries(f, 3, 3, {(i, j): 1, (j, i): f.neg(1)})
                       for i, j in ((0, 1), (0, 2), (1, 2))])


# generators of rank 2 and 1: the floor 2 is first reached at V1 = <e3>, where
# W = <(1, 0, 0)>; the term rank of the support is 3
FLOOR_AT_DIM_1 = span_of(GF(2), [Matrix(GF(2), [[1, 1, 0], [1, 1, 0], [1, 0, 0]]),
                                 Matrix.from_entries(GF(2), 3, 3, {(2, 2): 1})])


@settings(max_examples=150, deadline=None)
@given(small_spans())
@example(span_of(GF(3), [Matrix.zeros(GF(3), 2, 3)]))
@example(span_of(GF(5), [Matrix.identity(GF(5), 3)]))
@example(skew_span(GF(2)))
@example(skew_span(GF(3)))
@example(FLOOR_AT_DIM_1)
def test_mincov_one_sided_matches_two_sided(span):
    got, (v1, v2) = mincov_exhaustive(span)
    want, (w1, w2) = ref_mincov_two_sided(span)
    assert got == want
    assert v1.data == w1.data and v1.cols == w1.cols
    assert v2.data == w2.data and v2.cols == w2.cols
    assert verify_cover(span, v1, v2)


_NUMPY_STAYS_OUT = """
import sys
from pathlib import Path

from tenrank import cli, engine, spans
from tenrank.fields import GF, QQ
from tenrank.matrix import Matrix
from tenrank.tensor import gen_null_algebra, null_algebra, w_tensor


def loaded(step):
    print(step, "numpy" in sys.modules)


loaded("import")
for p in (2, 5):
    f = GF(p)
    spans.flanders_check(spans.span_of(f, [Matrix.identity(f, 3), Matrix(f, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])]))
    loaded(f"flanders gf:{p}")
for p in (3, 5, 11):
    f = GF(p)
    small = spans.span_of(f, [Matrix.identity(f, 2), Matrix(f, [[0, 1], [1, 0]])])
    for span in (small, spans.slice_span(null_algebra(f, 4), 2, 3)):
        spans.max_rank_exhaustive(span)
    spans.min_rank_exhaustive(small)
    loaded(f"ranks gf:{p}")
engine.asymptotic_bounds(null_algebra(GF(11), 4))
engine.asymptotic_bounds(w_tensor(QQ))
loaded("bounds")
work = Path(sys.argv[1])
if cli.main(["verify", str(work / "rho.cert"), str(work / "t.tensor")]) != 0:
    raise SystemExit("verify failed")
loaded("verify")
value, wit = spans.max_rank_exhaustive(spans.slice_span(gen_null_algebra(GF(11), 6, 2), 1, 3))
print(value, *wit.coeffs)
loaded("batched")
"""


def test_numpy_is_imported_only_by_the_batched_arm(tmp_path):
    """A process that runs no rank search of 256 or more combinations never
    imports numpy: not at import, not in small searches over GF(2), GF(3),
    GF(5) or GF(11), not in `asymptotic_bounds` without a batched search,
    and not in `tenrank verify`.  A search over a grid of 4^5 combinations
    takes the batched arm, loads numpy and keeps its value and witness."""
    tensor, cert = str(tmp_path / "t.tensor"), str(tmp_path / "rho.cert")
    assert cli.main(["catalog", "balanced_pivot", "4", "--field", "gf:7", "--out", tensor]) == 0
    assert cli.main(["certify", "rho", tensor, "--out", cert]) == 0
    src = str(Path(tenrank.spans.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _NUMPY_STAYS_OUT, str(tmp_path)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines() == [
        "import False", "flanders gf:2 False", "flanders gf:5 False", "ranks gf:3 False", "ranks gf:5 False",
        "ranks gf:11 False", "bounds False", "verified r=2 power=1", "verify False", "3 6 0 1 0 0 0", "batched True",
    ]


def test_batched_and_scalar_rank_search_agree(monkeypatch):
    """max/min-rank give the same value and witness on the numpy batch path
    and on the pure-Python path."""
    rng = random.Random(11)
    cases = []
    for p, dims in ((5, (3, 3, 4)), (11, (3, 4, 3)), (7, (2, 3, 5)), (3, (4, 4, 4))):
        f = GF(p)
        for _ in range(4):
            n = dims[0] * dims[1] * dims[2]
            t = Tensor3(f, dims, [rng.randrange(p) for _ in range(n)])
            cases += [slice_span(t, 1, 2), slice_span(t, 2, 3), slice_span(t, 3, 1)]
    cases.append(slice_span(null_algebra(GF(11), 4), 2, 3))
    for span in cases:
        monkeypatch.setattr(tenrank.spans, "_BATCH_THRESHOLD", 0)
        batched = [max_rank_exhaustive(span), min_rank_exhaustive(span)]
        monkeypatch.setattr(tenrank.spans, "_BATCH_THRESHOLD", 10**9)
        scalar = [max_rank_exhaustive(span), min_rank_exhaustive(span)]
        for (bv, bw), (sv, sw) in zip(batched, scalar):
            assert bv == sv and bw.coeffs == sw.coeffs and bw.rank == sw.rank


def test_mincov_guard_counts_pairs():
    f = GF(2)
    span = span_of(f, [Matrix.identity(f, 3)])
    pairs = sum(subspace_count(2, 3, d) for d in range(4))
    with pytest.raises(ResourceGuardError, match=f"{pairs * pairs} pairs exceeds guard"):
        mincov_exhaustive(span, guard=pairs * pairs - 1)
    assert mincov_exhaustive(span, guard=pairs * pairs)[0] == 3


def test_mincov_floor_cuts_the_walk(monkeypatch):
    # the identity has rank 3 = mincov, so V1 = 0 (W = F^3) ends the search;
    # the walk reads the cached layers of `_subspace_layer`, over GF(2) as the
    # bit rows of `_bit_layer`.  Both caches are filled first, so only the
    # walk's reads are counted, not the bit-row layer's build.
    walked = []
    layers = {name: getattr(tenrank.spans, name) for name in ("_subspace_layer", "_bit_layer")}
    for f in (GF(2), GF(3)):
        mincov_exhaustive(span_of(f, [Matrix.identity(f, 3)]))

    def counting(layer):
        def walk(*key):
            for entry in layer(*key):
                walked.append(entry)
                yield entry
        return walk

    for name, layer in layers.items():
        monkeypatch.setattr(tenrank.spans, name, counting(layer))
    for f in (GF(2), GF(3)):
        walked.clear()
        span = span_of(f, [Matrix.identity(f, 3)])
        value, (v1, v2) = mincov_exhaustive(span)
        assert value == 3 and len(walked) == 1
        assert verify_cover(span, v1, v2)


def test_mincov_refuses_before_ranking_generators(monkeypatch):
    refused = [
        (span_of(GF(5), [Matrix.identity(GF(5), 4)]), ResourceGuardError),
        (span_of(QQ, [Matrix.identity(QQ, 2)]), InfiniteFieldError),
    ]
    zero = span_of(GF(2), [Matrix.zeros(GF(2), 2, 2)])
    ranked = []
    monkeypatch.setattr(tenrank.spans, "rank", lambda m: ranked.append(m) or rank(m))
    for span, error in refused:
        with pytest.raises(error):
            mincov_exhaustive(span, guard=10)
    assert mincov_exhaustive(zero)[0] == 0
    assert ranked == []


def test_min_cover_stops_only_at_a_total_equal_to_the_floor():
    # no total below `bound` equals `bound`, so that floor leaves the whole search
    span = FLOOR_AT_DIM_1
    f, (n1, n2) = span.field, span.shape
    columns = [list(zip(*m.data)) for m in span.basis]
    whole = _cover_walk(f, columns, n1, n2, n1 + n2 + 1, 0)
    assert whole[0] == 2 and whole[1] == (0b100,)  # V = span{(0, 0, 1)}, as a bit row
    assert _cover_walk(f, columns, n1, n2, n1 + n2 + 1, n1 + n2 + 1) == whole


def test_spans_has_no_assert_statements():
    """No module of the package relies on `assert`, which `python -O` strips."""
    found = []
    for path in sorted(Path(tenrank.spans.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_mincov_matches_brute_force():
    rng = random.Random(17)
    f = GF(2)
    for _ in range(25):
        mats = [rand_matrix(f, 3, 3, rng) for _ in range(rng.randrange(1, 3))]
        got, witness = mincov_exhaustive(span_of(f, mats))
        assert got == brute_mincov(f, mats)
        if got:
            assert verify_cover(span_of(f, mats), *witness)


def test_flanders_small_spans():
    f = GF(2)
    e11 = Matrix.from_entries(f, 2, 2, {(0, 0): 1})
    rep = flanders_check(span_of(f, [e11]))
    assert rep.maxrank == 1 and rep.mincov == 1 and rep.ratio_ok
    rng = random.Random(23)
    for _ in range(40):
        mats = [rand_matrix(f, 3, 3, rng) for _ in range(2)]
        if all(m.is_zero() for m in mats):
            continue
        rep = flanders_check(span_of(f, mats))
        assert rep.lower_ok and rep.four_times_ok


def test_flanders_two_sided_gf5():
    rng = random.Random(29)
    f = GF(5)
    for _ in range(30):
        mats = [rand_matrix(f, 3, 3, rng) for _ in range(2)]
        rep = flanders_check(span_of(f, mats))
        assert rep.two_sided_applicable  # maxrank <= 3 < 5
        assert rep.ratio_ok


def ref_flanders_check(span, guard):
    """`flanders_check` as it was built on the public searches: the witnessed
    max-rank, then `mincov_exhaustive` with its cover."""
    mr, _ = max_rank_exhaustive(span)
    two_sided = span.field.size() > mr
    try:
        mc, _ = mincov_exhaustive(span, guard=guard)
    except ResourceGuardError:
        return FlandersReport(mr, None, (mr, 4 * mr), two_sided, True, True, None)
    return FlandersReport(mr, mc, (mc, mc), two_sided, mr <= mc, mc <= 4 * mr, (mc <= 2 * mr) if two_sided else None)


@st.composite
def flanders_spans(draw):
    """Spans of 1-4 generators of shape 1x1 to 4x4 over GF(2), GF(3), GF(5)
    and GF(7); a generator may be zero or repeat an earlier one."""
    f = GF(draw(st.sampled_from([2, 3, 5, 7])))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.lists(st.integers(0, f.p - 1), min_size=rows * cols, max_size=rows * cols)
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "zero", "repeat"]))
        if kind == "repeat" and mats:
            mats.append(draw(st.sampled_from(mats)))
        elif kind == "zero":
            mats.append(Matrix.zeros(f, rows, cols))
        else:
            e = draw(entries)
            mats.append(Matrix(f, [e[i * cols:(i + 1) * cols] for i in range(rows)]))
    return span_of(f, mats)


@settings(max_examples=200, deadline=None)
@given(flanders_spans(), st.sampled_from([SUBSPACE_PAIR_GUARD, 40]))
@example(span_of(GF(7), [Matrix.identity(GF(7), 4)]), SUBSPACE_PAIR_GUARD)
@example(span_of(GF(3), [Matrix.zeros(GF(3), 2, 3), Matrix.zeros(GF(3), 2, 3)]), 40)
@example(span_of(GF(5), [Matrix.identity(GF(5), 3), Matrix.identity(GF(5), 3)]), 40)
@example(skew_span(GF(7)), SUBSPACE_PAIR_GUARD)
@example(FLOOR_AT_DIM_1, SUBSPACE_PAIR_GUARD)
@example(span_of(GF(3), [Matrix.from_entries(GF(3), 3, 3, {(i, i): 1}) for i in range(3)]), SUBSPACE_PAIR_GUARD)
@example(span_of(GF(7), [Matrix.from_entries(GF(7), 4, 4, {(i, i): 1}) for i in range(4)]), SUBSPACE_PAIR_GUARD)
def test_flanders_values_match_the_witnessed_searches(span, guard):
    """The values-only check reports what the witnessed searches give:
    `maxrank` is max_rank_exhaustive's value, `mincov` mincov_exhaustive's,
    or None where that search refuses the guard; the whole report is equal."""
    rep = flanders_check(span, guard=guard)
    assert rep == ref_flanders_check(span, guard)
    refused = subspace_pair_count(span.field.p, *span.shape) > guard and any(not m.is_zero() for m in span.basis)
    assert (rep.mincov is None) == refused


def test_flanders_builds_no_witness_and_reads_cached_layers(monkeypatch):
    """flanders_check reduces no [V | I] (no `independent_basis`, so no lift)
    over any field, and once its layers are cached it enumerates no
    subspace: a second pass over the same spans calls no `subspaces`."""
    rng = random.Random(32)
    cases = [span_of(f, [rand_matrix(f, 3, 3, rng) for _ in range(rng.randrange(1, 4))])
             for f in (GF(2), GF(3), GF(5), GF(7)) for _ in range(10)]
    want = [ref_flanders_check(span, SUBSPACE_PAIR_GUARD) for span in cases]
    calls = {"independent_basis": [], "subspaces": []}
    for name, found in calls.items():
        inner = getattr(tenrank.spans, name)
        monkeypatch.setattr(tenrank.spans, name, lambda *a, inner=inner, found=found, **k: found.append(a) or inner(*a, **k))
    assert [flanders_check(span) for span in cases] == want
    assert calls["independent_basis"] == []
    calls["subspaces"].clear()
    assert [flanders_check(span) for span in cases] == want
    assert calls == {"independent_basis": [], "subspaces": []}


def test_gfp_layers_match_subspaces():
    """Every layer of GF(3)^n, n <= 4, and of GF(5)^n, n <= 3, lists
    `subspaces`' bases in order, each with the annihilator
    `_rref_annihilator` builds, as int-row tuples."""
    for q, top in ((3, 4), (5, 3)):
        f = GF(q)
        for n in range(top + 1):
            for dim in range(n + 1):
                want = tuple((v.data, tuple(map(tuple, _rref_annihilator(f, v.data, n)))) for v in subspaces(f, n, dim))
                assert _subspace_layer(q, n, dim) == want


def test_gfp_layers_are_built_lazily_and_once():
    """Importing tenrank builds no GF(p) layer; a search builds the layers it
    reaches, and a second search over the same (q, n, dim) builds none."""
    code = (
        "import tenrank\n"
        "from tenrank import spans\n"
        "from tenrank.fields import GF\n"
        "from tenrank.matrix import Matrix\n"
        "f = GF(3)\n"
        "layers = spans._subspace_layer.cache_info\n"
        "print(layers().currsize)\n"
        "skew = [Matrix.from_entries(f, 3, 3, {(i, j): 1, (j, i): 2}) for i, j in ((0, 1), (0, 2), (1, 2))]\n"
        "print(spans.mincov_exhaustive(spans.span_of(f, skew))[0], layers().currsize)\n"
        "built = layers().misses\n"
        "print(spans.flanders_check(spans.span_of(f, skew[:2])).mincov, layers().misses - built)\n"
    )
    src = str(Path(tenrank.spans.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "3", "3", "2", "0"]


# -- staircase and the product inequality ---------------------------------------


def test_staircase_unit_tensor():
    t = unit(GF(7), 4)
    res = staircase(t, seed=0)
    assert res.s == (1, 1, 1, 1)
    assert res.witness_maxrank3[1] * res.witness_maxrank2[1] >= 4
    assert res.witness_maxrank2[1] == 4  # first columns give the identity


def test_staircase_null_algebra():
    t = null_algebra(GF(11), 5)
    res = staircase(t, seed=0)
    assert sum(res.s) == 5
    assert res.witness_maxrank3[1] * res.witness_maxrank2[1] >= 5


def test_staircase_matmul222():
    from tenrank.tensor import matmul_tensor

    t = matmul_tensor(GF(11), 2, 2, 2)
    res = staircase(t, seed=0)
    assert sum(res.s) == 4
    assert res.witness_maxrank3[1] * res.witness_maxrank2[1] >= 4


def test_staircase_requires_concise_and_field():
    t = Tensor3(GF(2), (2, 2, 2), {(0, 0, 0): 1})
    with pytest.raises(NotConciseError):
        staircase(t)
    with pytest.raises(FieldTooSmallError):
        staircase(unit(GF(3), 3))


def test_uncertainty_principle_random_concise():
    """Exhaustive Q_i Q_j >= n_k on random concise GF(11) tensors."""
    rng = random.Random(41)
    checked = 0
    f = GF(11)
    while checked < 25:
        dims = tuple(rng.choice([2, 3, 4]) for _ in range(3))
        t = rand_tensor(f, dims, rng)
        if not t.is_concise():
            continue
        q = {}
        for d in (1, 2, 3):
            rd, cd = [x for x in (1, 2, 3) if x != d]
            q[d], _ = max_rank_exhaustive(slice_span(t, rd, cd))
        for i, j, k in itertools.permutations((1, 2, 3)):
            assert q[i] * q[j] >= t.dims[k - 1]
        checked += 1


def test_high_rank_slice():
    rng = random.Random(43)
    f = GF(3)
    found = 0
    while found < 10:
        t = rand_tensor(f, (4, 4, 2), rng)
        if not t.is_concise():
            continue
        idx, r = high_rank_slice(t)
        assert r >= 2  # ceil(max(4,4)/2)
        assert rank(t.slice(3, idx)) == r
        found += 1
    idx, r = high_rank_slice(null_algebra(GF(5), 6))
    assert r >= 2


# -- diagonalization pipeline ---------------------------------------------------


def test_diagonalize_principal_identity_only():
    f = GF(7)
    u, v, kept = diagonalize_principal(f, [Matrix.identity(f, 9)])
    assert len(kept) == 9


def test_diagonalize_principal_already_diagonal():
    f = GF(7)
    d = Matrix.from_entries(f, 6, 6, {(i, i): i % 7 for i in range(6)})
    u, v, kept = diagonalize_principal(f, [Matrix.identity(f, 6), d])
    assert len(kept) >= 2
    tr = u.mul(d).mul(v)
    for a in kept:
        for b in kept:
            if a != b:
                assert tr[a, b] == 0


def test_diagonalize_principal_random():
    rng = random.Random(47)
    f = GF(7)
    for _ in range(20):
        a = rand_matrix(f, 9, 9, rng)
        u, v, kept = diagonalize_principal(f, [Matrix.identity(f, 9), a])
        assert len(kept) >= 3
        ua = u.mul(a).mul(v)
        ui = u.mul(v)
        for x in kept:
            assert ui[x, x] == 1
            for y in kept:
                if x != y:
                    assert ua[x, y] == 0 and ui[x, y] == 0


def test_minsupp_restrict_examples():
    f = GF(2)
    i1 = minsupp_restrict(f, [(1, 1, 1, 1)])
    assert i1 == [0, 1, 2, 3]
    i2 = minsupp_restrict(f, [(1, 0, 0, 0), (1, 1, 1, 1)])
    restricted = [tuple(v[x] for x in i2) for v in [(1, 0, 0, 0), (1, 1, 1, 1)]]
    assert minsupp_exact(f, restricted) >= 2
    # the diagonals of diag(1, 1, 0) and diag(0, 1, 1) over GF(3)
    i3 = minsupp_restrict(GF(3), [(1, 1, 0), (0, 1, 1)])
    # min-rank of the restriction >= maxrank/c = 2/2 = 1
    assert len(i3) >= 1


def test_minsupp_exact_q_matches_enumeration_model():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randrange(2, 6)
        d = rng.randrange(1, 3)
        basis = [tuple(Fraction(rng.randrange(-2, 3)) for _ in range(n)) for _ in range(d)]
        if all(all(x == 0 for x in b) for b in basis):
            continue
        got = minsupp_exact(QQ, basis)
        # compare against a dense rational sample of coefficient space
        best = None
        for coeffs in itertools.product(range(-3, 4), repeat=d):
            v = [sum(Fraction(c) * b[i] for c, b in zip(coeffs, basis)) for i in range(n)]
            if any(x != 0 for x in v):
                s = sum(1 for x in v if x != 0)
                best = s if best is None else min(best, s)
        assert best is not None
        assert got <= best  # exact minimum cannot exceed any sampled support
        # and the sample should reach the minimum for these tiny spans
        assert got == best


def test_basis_extension():
    f = GF(5)
    e11 = Matrix.from_entries(f, 2, 2, {(0, 0): 1})
    e22 = Matrix.from_entries(f, 2, 2, {(1, 1): 1})
    front, back = basis_extension(f, [e11, e22], [0])
    assert len(front) == 1 and len(back) == 1
    assert back[0].submatrix([0], [0]).is_zero()
    rng = random.Random(59)
    for _ in range(20):
        mats = [rand_matrix(f, 3, 3, rng) for _ in range(3)]
        sp = span_of(f, mats)
        reduced, _ = independent_basis(sp)
        if not reduced:
            continue
        front, back = basis_extension(f, mats, [0, 1])
        width = 4
        vecs = [m.submatrix([0, 1], [0, 1]).vectorize() for m in front]
        from tenrank.matrix import rank_of_rows

        assert rank_of_rows(f, vecs, width) == len(front)
        for m in back:
            assert m.submatrix([0, 1], [0, 1]).is_zero()
        # the new collection still spans the same space
        all_new = [m.vectorize() for m in front + back]
        all_old = [m.vectorize() for m in reduced]
        assert rank_of_rows(f, all_new + all_old, 9) == len(all_old) == len(all_new)


def test_minrk_diag_pipeline_small():
    f = GF(7)
    pipe = minrk_diag_pipeline(span_of(f, [Matrix.identity(f, 9)]))
    assert pipe.minrank_jj == 9 and len(pipe.j_set) == 9

    w = w_tensor(GF(7))
    span = slice_span(w, 2, 3)
    pipe = minrk_diag_pipeline(span)
    assert Fraction(pipe.minrank_jj) >= epsilon(2) * pipe.maxrank

    rng = random.Random(61)
    done = 0
    while done < 10:
        t = rand_tensor(f, (9, 9, 2), rng)
        if not t.is_concise():
            continue
        pipe = minrk_diag_pipeline(slice_span(t, 1, 2))
        assert Fraction(pipe.minrank_jj) >= epsilon(2) * pipe.maxrank
        # diag basis restricted to J x J really is diagonal and independent
        sub = [m.submatrix(pipe.j_set, pipe.j_set) for m in pipe.diag_basis]
        for m in sub:
            for a in range(len(pipe.j_set)):
                for b in range(len(pipe.j_set)):
                    if a != b:
                        assert m[a, b] == 0
        for m in pipe.zero_basis:
            assert m.submatrix(pipe.j_set, pipe.j_set).is_zero()
        done += 1


def test_mixed_kron_set():
    f = GF(3)
    b = Matrix.identity(f, 2)
    ys = mixed_kron_set([b], [], 2, 1)
    assert len(ys) == 1 and ys[0] == Matrix.identity(f, 4)
    c = Matrix.from_entries(f, 2, 2, {(0, 1): 1})
    ys = mixed_kron_set([b], [c], 2, 1)
    assert len(ys) == 3 == mixed_kron_count(1, 2, 2, 1)


def test_mixed_kron_set_refuses_a_huge_power_at_once():
    """2^20000 products of 4^20000 entries each: refused through `refuse_over`
    before any count is formed, not after summing the 20,000 terms of
    `mixed_kron_count` into a number too long to print."""
    i2 = Matrix.identity(GF(3), 2)
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError,
                       match="^mixed kron set of 2 matrices at power 20000 visits more than 16777216 products$"):
        mixed_kron_set([i2], [i2], 20000, 1)
    assert time.perf_counter() - start < 1


def test_mixed_kron_minrank_power_bound():
    """minrank(Y) >= minrank(restricted factors)^l on small GF(3) cases."""
    rng = random.Random(67)
    f = GF(3)
    done = 0
    while done < 8:
        d1 = Matrix.from_entries(f, 2, 2, {(0, 0): rng.randrange(1, 3), (1, 1): rng.randrange(1, 3)})
        d2 = Matrix.from_entries(f, 2, 2, {(0, 0): rng.randrange(3), (1, 1): rng.randrange(3)})
        from tenrank.matrix import rank_of_rows

        if rank_of_rows(f, [d1.vectorize(), d2.vectorize()], 4) < 2:
            continue
        base, _ = min_rank_exhaustive(span_of(f, [d1, d2]))
        for m, ell in [(2, 1), (2, 2)]:
            ys = mixed_kron_set([d1, d2], [], m, ell)
            got, _ = min_rank_exhaustive(span_of(f, ys))
            assert got >= base**ell
        done += 1


def test_guards():
    f = GF(11)
    mats = [rand_matrix(f, 2, 2, random.Random(i)) for i in range(9)]
    with pytest.raises(ResourceGuardError):
        max_rank_exhaustive(span_of(f, mats), guard=100)
    with pytest.raises(ResourceGuardError):
        mincov_exhaustive(span_of(GF(5), [Matrix.identity(GF(5), 4)]), guard=10)


def test_randomized_null_algebra_full_direction():
    t = null_algebra(GF(11), 8)
    v, wit = max_rank_randomized(slice_span(t, 1, 2), trials=8, seed=0)
    assert v == 8
    assert rank(combine(slice_span(t, 1, 2), wit.coeffs)) == 8


def test_min_rank_identity_span_and_w_slices():
    f = GF(3)
    v, _ = min_rank_exhaustive(span_of(f, [Matrix.identity(f, 4)]))
    assert v == 4
    w = w_tensor(GF(2))
    v, _ = min_rank_exhaustive(slice_span(w, 1, 2))
    assert v == 1


def test_two_directions_corollary():
    """For concise tensors there are distinct directions whose max-ranks
    reach the square roots of the largest and smallest dimension."""
    rng = random.Random(71)
    f = GF(11)
    done = 0
    while done < 15:
        dims = tuple(rng.choice([2, 3, 4]) for _ in range(3))
        t = rand_tensor(f, dims, rng)
        if not t.is_concise():
            continue
        q = {}
        for d in (1, 2, 3):
            rd, cd = [x for x in (1, 2, 3) if x != d]
            q[d], _ = max_rank_exhaustive(slice_span(t, rd, cd))
        lo, hi = min(t.dims), max(t.dims)
        ok = any(
            q[i] ** 2 >= hi and q[j] ** 2 >= lo
            for i in (1, 2, 3)
            for j in (1, 2, 3)
            if i != j
        )
        assert ok, (t.dims, q)
        done += 1


def test_colspan_prefix_identity_via_retry():
    """For random A, B over GF(11) there is a U with
    col([A; (BU)|_s]) = col([A; B]), s = rank([A;B]) - rank(A); found by
    seeded retry exactly like the staircase search."""
    from tenrank.matrix import concat_cols

    rng = random.Random(73)
    f = GF(11)
    for _ in range(25):
        a = rand_matrix(f, 4, rng.randrange(1, 4), rng)
        b = rand_matrix(f, 4, 3, rng)
        full = rank(concat_cols([a, b]))
        s = full - rank(a)
        found = False
        for _ in range(32):
            u = rand_matrix(f, 3, 3, rng)
            bu = b.mul(u).submatrix(range(4), range(s))
            if rank(concat_cols([a, bu])) == full:
                found = True
                break
        assert found
