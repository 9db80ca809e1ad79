"""The max-rank searches stop at the term rank of the span's union support.

The searches before this stop are kept here as `ref_*`: the exhaustive one
stopped only at min(rows, cols), the randomized one likewise.  Both replace
their best only on a strict improvement and no element's rank exceeds the
term rank, so the value and the witness must come out the same.
"""

import itertools
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tenrank._batch
import tenrank.spans
from tenrank._batch import MAX_BATCH_PRIME, projective_count, projective_vectors
from tenrank.errors import BadParamsError
from tenrank.fields import GF, QQ, PrimeField
from tenrank.matrix import Matrix, _combination, rank
from tenrank.spans import (
    _max_matching,
    _term_rank,
    combine,
    independent_basis,
    max_rank_exhaustive,
    max_rank_randomized,
    slice_span,
    span_of,
)
from tenrank.tensor import gen_null_algebra, null_algebra


def ref_batched(red, q, c):
    import numpy as np

    from tenrank._batch import batched_rank_mod_p, projective_array

    rows, cols = red.shape
    basis = np.array([m.data for m in red.basis], dtype=np.int64).reshape(c, rows * cols)
    vecs = projective_array(q, c)
    best = None
    best_idx = None
    chunk = 1 << 12
    for lo in range(0, vecs.shape[0], chunk):
        part = vecs[lo: lo + chunk]
        mats = (part @ basis % q).reshape(-1, rows, cols)
        ranks = batched_rank_mod_p(mats, q)
        i = int(np.argmax(ranks))
        v = int(ranks[i])
        if best is None or v > best:
            best = v
            best_idx = lo + i
            if best == min(rows, cols):
                break
    return best, tuple(int(x) for x in vecs[best_idx])


def ref_max_rank_exhaustive(span):
    """Exhaustive max-rank that stops only at min(rows, cols), on the same
    scalar or batched arm as `max_rank_exhaustive`."""
    f = span.field
    mats, reduction = independent_basis(span)
    c = len(mats)
    if c == 0:
        return 0, tuple(f.zero() for _ in span.basis)
    q = f.p
    red = span_of(f, mats)
    upper = min(span.shape)
    if projective_count(q, c) >= tenrank.spans._BATCH_THRESHOLD and q <= MAX_BATCH_PRIME:
        best, best_vec = ref_batched(red, q, c)
    else:
        best = None
        best_vec = None
        for vec in projective_vectors(q, c):
            r = rank(combine(red, vec))
            if best is None or r > best:
                best, best_vec = r, vec
                if best == upper:
                    break
    (lifted,) = _combination(f, best_vec, [(row,) for row in reduction.data])
    return best, tuple(lifted)


def ref_max_rank_randomized(span, trials, seed=0):
    """Randomized max-rank that stops only at min(rows, cols)."""
    f = span.field
    rng = random.Random(seed)
    n = len(span.basis)
    h = 2 * min(span.shape) + 1
    best = 0
    best_coeffs = tuple([f.zero()] * n)
    upper = min(span.shape)
    for _ in range(max(1, trials)):
        if isinstance(f, PrimeField):
            coeffs = tuple(rng.randrange(f.p) for _ in range(n))
        else:
            coeffs = tuple(Fraction(rng.randrange(h)) for _ in range(n))
        r = rank(combine(span, coeffs))
        if r > best:
            best, best_coeffs = r, coeffs
            if best == upper:
                break
    return best, best_coeffs


def brute_min_cover(support, rows, cols):
    """Least number of rows and columns covering every position of `support`."""
    for size in range(min(rows, cols) + 1):
        for k in range(size + 1):
            for rs in itertools.combinations(range(rows), k):
                for cs in itertools.combinations(range(cols), size - k):
                    if all(i in rs or j in cs for i, j in support):
                        return size
    raise AssertionError("min(rows, cols) lines always cover")


@st.composite
def masks(draw, rows, cols):
    """Which positions may be nonzero: all, a sparse random set, or the
    union of fewer than min(rows, cols) rows and columns, where the term
    rank is below min(rows, cols)."""
    kind = draw(st.sampled_from(["dense", "sparse", "lines"]))
    if kind == "dense":
        return [[True] * cols for _ in range(rows)]
    if kind == "sparse":
        flat = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
        return [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    lines = draw(st.integers(0, min(rows, cols) - 1))
    a = draw(st.integers(max(0, lines - cols), min(lines, rows)))
    rs = draw(st.sets(st.integers(0, rows - 1), min_size=a, max_size=a))
    cs = draw(st.sets(st.integers(0, cols - 1), min_size=lines - a, max_size=lines - a))
    return [[i in rs or j in cs for j in range(cols)] for i in range(rows)]


@st.composite
def spans(draw, fields, gens, sides=(1, 4)):
    f = draw(st.sampled_from(fields))
    rows, cols = draw(st.integers(*sides)), draw(st.integers(*sides))
    mask = draw(masks(rows, cols))
    if isinstance(f, PrimeField):
        values = st.integers(0, f.p - 1)
    else:
        values = st.integers(-3, 3).map(Fraction)
    mats = []
    for _ in range(draw(gens)):
        vals = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
        mats.append(Matrix(f, [[vals[i * cols + j] if mask[i][j] else f.zero() for j in range(cols)]
                               for i in range(rows)], normalize=True))
    return span_of(f, mats)


def check_exhaustive(span):
    value, wit = max_rank_exhaustive(span)
    want = ref_max_rank_exhaustive(span)
    assert (value, wit.coeffs) == want
    assert [type(x) for x in wit.coeffs] == [type(x) for x in want[1]]
    assert wit.rank == value == rank(combine(span, wit.coeffs))
    assert value <= _term_rank(span) <= min(span.shape)


def check_randomized(span, trials, seed):
    value, wit = max_rank_randomized(span, trials, seed)
    want = ref_max_rank_randomized(span, trials, seed)
    assert (value, wit.coeffs) == want
    assert [type(x) for x in wit.coeffs] == [type(x) for x in want[1]]
    assert value <= _term_rank(span) <= min(span.shape)


# a diagonal identity stops at once; a span on one row and one column stops at 2
_ONE_ROW_ONE_COL = [Matrix(GF(3), [[1, 2, 1], [0, 0, 0], [0, 0, 0]]),
                    Matrix(GF(3), [[0, 0, 0], [1, 0, 0], [2, 0, 0]])]


@settings(max_examples=200, deadline=None)
@given(spans([GF(2), GF(3), GF(11)], st.integers(1, 4)))
@example(span_of(GF(11), [Matrix.identity(GF(11), 4)]))
@example(span_of(GF(3), _ONE_ROW_ONE_COL))
@example(span_of(GF(2), [Matrix.zeros(GF(2), 2, 3)]))
def test_exhaustive_matches_search_without_stop(span):
    check_exhaustive(span)


@settings(max_examples=60, deadline=None)
@given(st.one_of(spans([GF(11)], st.integers(4, 5), sides=(3, 5)),
                 spans([GF(3)], st.integers(6, 9), sides=(3, 5)),
                 spans([GF(2)], st.integers(9, 13), sides=(3, 5))))
def test_exhaustive_matches_search_without_stop_large_spans(span):
    """Spans of 256 or more projective combinations, when their generators
    are independent, take the batched arm; past 4096 combinations, one
    chunk of it, the stop can skip chunks."""
    check_exhaustive(span)


@settings(max_examples=200, deadline=None)
@given(spans([GF(2), GF(3), GF(11), QQ], st.integers(1, 4)), st.integers(1, 40), st.integers(0, 10**6))
@example(span_of(QQ, [Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]])]), 30, 0)
def test_randomized_matches_search_without_stop(span, trials, seed):
    check_randomized(span, trials, seed)



@pytest.mark.parametrize("trials", [0, -3])
def test_randomized_refuses_fewer_than_one_trial(trials):
    """No trial is no lower bound: the CLI refuses a negative --trials, and
    the library refuses trials < 1 rather than running one trial anyway."""
    with pytest.raises(BadParamsError, match=f"trials >= 1, have {trials}"):
        max_rank_randomized(span_of(GF(3), [Matrix.identity(GF(3), 2)]), trials)

@pytest.fixture
def ranked(monkeypatch):
    """The number of matrices of each batched rank call, as they happen."""
    sizes = []
    full = tenrank._batch.batched_rank_mod_p

    def counting(mats, q):
        sizes.append(mats.shape[0])
        return full(mats, q)

    monkeypatch.setattr(tenrank._batch, "batched_rank_mod_p", counting)
    return sizes


def test_catalog_spans_match_search_without_stop(ranked):
    """Catalog slice spans on both arms, counting the matrices the batched
    arm ranks: the stop skips chunks of 4096 and cuts the count below the
    full search's."""
    tensors = [gen_null_algebra(GF(7), 6, 2), gen_null_algebra(GF(3), 9, 3), gen_null_algebra(GF(2), 6, 3),
               gen_null_algebra(GF(11), 4, 2), null_algebra(GF(11), 4), null_algebra(GF(3), 5)]
    with_stop = without_stop = 0
    for t in tensors:
        for orient in ((2, 3), (1, 3), (1, 2)):
            span = slice_span(t, *orient)
            ranked.clear()
            value, wit = max_rank_exhaustive(span)
            with_stop += sum(ranked)
            ranked.clear()
            assert (value, wit.coeffs) == ref_max_rank_exhaustive(span)
            without_stop += sum(ranked)
            check_randomized(span, 32, 7)
    assert 0 < with_stop < without_stop


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_term_rank_is_min_row_column_cover(rows, cols, data):
    """Konig: the term rank equals the least number of rows and columns
    covering the union support, checked by brute force on 0/1 patterns
    spread over one to three generators; transposing changes nothing."""
    f = GF(2)
    owner = data.draw(st.lists(st.integers(-1, 2), min_size=rows * cols, max_size=rows * cols))
    gens = max(owner) + 1 or 1
    mats = [Matrix(f, [[int(owner[i * cols + j] == g) for j in range(cols)] for i in range(rows)])
            for g in range(gens)]
    support = {(i, j) for i in range(rows) for j in range(cols) if owner[i * cols + j] >= 0}
    span = span_of(f, mats)
    assert _term_rank(span) == brute_min_cover(support, rows, cols)
    assert _term_rank(span.transpose()) == _term_rank(span)


def test_matching_follows_long_augmenting_paths_without_recursion():
    """Row i has edges to columns i + 1 and i, in that order, and the last
    row only to its own column: the last root's augmenting path runs back
    through every row, deeper than Python's recursion limit."""
    n = 5000
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, i) for i in range(n)]
    assert _max_matching(edges) == {c: c for c in range(n)}
    span = span_of(GF(2), [Matrix(GF(2), [[int(j in (i, i + 1)) for j in range(40)] for i in range(40)])])
    assert _term_rank(span) == 40


def test_term_rank_of_catalog_slice_spans():
    """gen_null_algebra(n, c) has term rank c + 1 in direction 2 and
    n/c + 1 in direction 3, the bounds its max-ranks are known to meet;
    null_algebra has term rank 2 in direction 2."""
    for n, c in ((4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3)):
        t = gen_null_algebra(GF(11), n, c)
        assert _term_rank(slice_span(t, 1, 3)) == c + 1
        assert _term_rank(slice_span(t, 1, 2)) == n // c + 1
    for n in (3, 4, 5, 6):
        assert _term_rank(slice_span(null_algebra(GF(11), n), 1, 3)) == 2


def test_gen_null_algebra_stops_before_the_full_search(ranked):
    """Direction 2 of gen_null_algebra(6, 2) over GF(11) has 177,156
    projective combinations; its max-rank 3 equals the term rank, so the
    search ranks far fewer of them."""
    span = slice_span(gen_null_algebra(GF(11), 6, 2), 1, 3)
    assert projective_count(11, len(independent_basis(span)[0])) == 177_156
    value, wit = max_rank_exhaustive(span)
    assert value == wit.rank == 3
    assert 0 < sum(ranked) < 177_156


def test_null_algebra_over_q_stops_at_first_trial_of_rank_two(monkeypatch):
    """Direction 2 of null_algebra(5) over Q has term rank 2 below its side
    5, so the randomized search stops at the first trial of rank 2."""
    calls = []
    full = tenrank.spans.rank
    monkeypatch.setattr(tenrank.spans, "rank", lambda m: calls.append(1) or full(m))
    value, wit = max_rank_randomized(slice_span(null_algebra(QQ, 5), 1, 3), 32, 7)
    assert value == wit.rank == 2
    assert len(calls) < 32


def test_batched_search_builds_and_ranks_blocks_up_to_the_stop(ranked):
    """The batched arm ranks the projective combinations in blocks of 64,
    256, 1024, then 4096, and stops after the block that reaches the term
    rank.  Six 3x3 generators over GF(3), the first the identity (364
    combinations, term rank 3 = p, so the full order), rank one block of 64.
    Below p only the grid {1} x {0..T}^(c-1) is ranked, and the arm is
    chosen by its count: four 3x2 generators over GF(11) (1,464
    combinations, a grid of 27) take the scalar arm, and direction 2 of
    gen_null_algebra(6, 2) (a grid of 4^5) ranks two blocks."""
    f = GF(3)
    span = span_of(f, [Matrix.identity(f, 3)] + [Matrix.from_entries(f, 3, 3, {ij: 1})
                                                  for ij in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0))])
    assert projective_count(3, len(independent_basis(span)[0])) == 364
    value, wit = max_rank_exhaustive(span)
    assert (value, wit.coeffs) == (3, (1, 0, 0, 0, 0, 0))
    assert ranked == [64]
    ranked.clear()
    f = GF(11)
    span = span_of(f, [Matrix(f, [[1, 0], [0, 1], [0, 0]]), Matrix(f, [[0, 1], [0, 0], [0, 0]]),
                       Matrix(f, [[0, 0], [1, 0], [0, 0]]), Matrix(f, [[0, 0], [0, 0], [1, 3]])])
    assert projective_count(11, len(independent_basis(span)[0])) == 1464
    value, wit = max_rank_exhaustive(span)
    assert (value, wit.coeffs) == (2, (1, 0, 0, 0))
    assert ranked == []
    value, wit = max_rank_exhaustive(slice_span(gen_null_algebra(f, 6, 2), 1, 3))
    assert value == 3
    assert ranked == [64, 256]


def test_gen_null_algebra_ranks_only_the_grid(ranked):
    """The three slice spans of gen_null_algebra(6, 2) over GF(11) have term
    ranks 6, 3 and 4, all below 11: they rank 64 + 320 + 1,344 matrices of
    their grids, against 320 + 1,344 + 17,728 in the full projective order
    (direction 3's first rank-4 combination is its 14,643rd), and the
    witnesses are the full order's."""
    t = gen_null_algebra(GF(11), 6, 2)
    witnesses = [max_rank_exhaustive(slice_span(t, *orient))[1].coeffs for orient in ((2, 3), (1, 3), (1, 2))]
    assert witnesses == [(6, 0, 0, 0, 6, 0), (6, 0, 1, 0, 0, 0), (6, 1, 0, 0, 0, 1)]
    assert sum(ranked) <= 2000


_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(11), GF(13)]


@st.composite
def structured_spans(draw):
    """Spans whose max-rank may sit below their term rank, over fields where
    the term rank is below p and where it is not:
    - skew: odd n x n skew-symmetric (alternating) matrices, rank <= n - 1;
    - compression: n x n matrices vanishing on an r x s block, r + s > n,
      rank <= 2n - r - s < n;
    - lowrank: U * V_i with one n x k matrix U, rank <= k;
    - uniform: dense random matrices.
    Each may be moved to P * A * Q by random P and Q, which fills the
    support while the rank bound stays.  The number of generators keeps
    the full projective order at most 1,500 combinations."""
    f = draw(st.sampled_from(_FIELDS))
    p = f.p
    entry = st.integers(0, p - 1)
    kind = draw(st.sampled_from(["skew", "compression", "lowrank", "uniform"]))
    gens = draw(st.integers(1, max(c for c in range(1, 7) if projective_count(p, c) <= 1500)))
    if kind == "skew":
        n = m = draw(st.sampled_from([3, 5]))
    elif kind == "compression":
        n = m = draw(st.integers(3, 5))
        r = draw(st.integers(2, n - 1))
        s = draw(st.integers(n + 1 - r, n - 1))
    else:
        n, m = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    if kind == "lowrank":
        k = draw(st.integers(1, min(n, m) - 1))
        u = [[draw(entry) for _ in range(k)] for _ in range(n)]
    mats = []
    for _ in range(gens):
        a = [[draw(entry) for _ in range(m)] for _ in range(n)]
        if kind == "skew":
            a = [[a[i][j] if i < j else -a[j][i] % p if i > j else 0 for j in range(m)] for i in range(n)]
        elif kind == "compression":
            a = [[0 if i < r and j < s else a[i][j] for j in range(m)] for i in range(n)]
        elif kind == "lowrank":
            a = [[sum(u[i][l] * a[l][j] for l in range(k)) % p for j in range(m)] for i in range(n)]
        mats.append(Matrix(f, a))
    if draw(st.booleans()):
        left = Matrix(f, [[draw(entry) for _ in range(n)] for _ in range(n)])
        right = Matrix(f, [[draw(entry) for _ in range(m)] for _ in range(m)])
        mats = [left.mul(a).mul(right) for a in mats]
    return span_of(f, mats)


# a reduced basis whose first rank-3 combination is (1, 3): the witness sits
# on the edge of the grid {1} x {0..3}, T = 3
_EDGE = [Matrix(GF(11), [[1, 0, 0], [2, 0, 0], [0, 0, 1]]), Matrix(GF(11), [[0, 1, 7], [10, 0, 0], [10, 2, 2]])]


@pytest.mark.parametrize("threshold", [0, 10**9])
@settings(max_examples=150, deadline=None)
@given(span=structured_spans())
@example(span=span_of(GF(11), _EDGE))
def test_grid_search_matches_full_projective_order(threshold, span):
    """The grid search against the full projective order on both arms:
    the same max-rank and the same witness, including spans whose max-rank
    is below their term rank (the grid is then ranked whole) and a witness
    with a coefficient equal to the term rank."""
    with patch.object(tenrank.spans, "_BATCH_THRESHOLD", threshold):
        check_exhaustive(span)
