import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tenrank
from tenrank.errors import (
    BadDimsError,
    BadParamsError,
    BelowThresholdError,
    InfiniteFieldError,
    NotConciseError,
    PreconditionFailedError,
    ResourceGuardError,
    VerificationFailedError,
    WitnessInvalidError,
)
from tenrank.fields import GF, QQ
from tenrank import _gf2, engine
from tenrank.cli import _scan_one
from tenrank.engine import (
    PAIR_GUARD,
    _count_full_rank,
    _narrow_certificate_inner,
    _unit_restriction_generic,
    asymptotic_bounds,
    compute_n_threshold,
    exists_unit_restriction,
    mamu_cube,
    matmul_form_restriction,
    narrow_certificate,
    slicerank_exact,
    subrank_c2,
    subrank_exact,
    subrank_from_minrank,
    two_direction_square,
)
from tenrank.matrix import Matrix, _product, rank, rank_of_rows, solve
from tenrank.spans import (
    MaxRankWitness,
    _annihilator,
    max_rank_exhaustive,
    min_rank_exhaustive,
    slice_span,
    span_of,
    staircase,
    subspace_count,
    subspaces,
)
from tenrank.tensor import (
    Restriction,
    Tensor3,
    apply_restriction,
    balanced_pivot,
    gen_null_algebra,
    matmul_tensor,
    null_algebra,
    unit,
    verify_restriction,
    w_tensor,
)


def rand_tensor(field, dims, rng):
    n = dims[0] * dims[1] * dims[2]
    return Tensor3(field, dims, [rng.randrange(field.p) for _ in range(n)])


# -- exact oracles --------------------------------------------------------------


def test_subrank_unit_and_w():
    assert subrank_exact(unit(GF(2), 2))[0] == 2
    assert subrank_exact(unit(GF(3), 2))[0] == 2
    v, cert = subrank_exact(w_tensor(GF(2)))
    assert v == 1
    assert cert.verify(w_tensor(GF(2)))


def test_subrank_zero():
    v, cert = subrank_exact(Tensor3.zeros(GF(2), (2, 2, 2)))
    assert v == 0


def test_subrank_gf2_matches_generic_gf3():
    """The packed GF(2) path and the generic solver agree where both run."""
    rng = random.Random(3)
    for _ in range(40):
        t2 = rand_tensor(GF(2), (2, 2, 2), rng)
        v2, cert = subrank_exact(t2)
        assert cert.verify(t2)
        assert v2 == _brute_subrank_gf2_222(t2)
        # the two arms order their rows differently, so only existence is compared
        for r in range(1, 3):
            packed = exists_unit_restriction(t2, r)
            generic = _unit_restriction_generic(t2, r, PAIR_GUARD)
            assert (packed is None) == (generic is None)


def _brute_subrank_gf2_222(t):
    f = GF(2)
    vecs = list(itertools.product(range(2), repeat=2))
    best = 0
    for r in (2, 1):
        maps = [
            Matrix(f, rows)
            for rows in itertools.product(vecs, repeat=r)
        ]
        maps = [m for m in maps if rank(m) == r]
        tgt = unit(f, r)
        for l1 in maps:
            for l2 in maps:
                for l3 in maps:
                    if apply_restriction(Restriction((l1, l2, l3)), t) == tgt:
                        return r
    return 0


def ref_unit_restriction_pairs(t, r):
    """The (L2, L3) loop _unit_restriction_generic replaced, kept as the
    reference: every pair of full-rank maps in the search's row order
    (itertools.product order, or word order on a bit format), L2 major,
    solving for each of L1's rows."""
    f = t.field
    n1, n2, n3 = t.dims
    bits = engine._bit_format(f, t.dims, r)

    def full_rank_maps(n):
        vectors = [_gf2.bit_row(b, n) for b in range(1 << n)] if bits else list(itertools.product(range(f.p), repeat=n))
        for rows in itertools.product(vectors, repeat=r):
            if rank_of_rows(f, rows, n) == r:
                yield Matrix(f, rows, cols=n)

    slices = t.slices(1)
    targets = [Matrix.from_entries(f, r, r, {(a, a): f.one()}).vectorize() for a in range(r)]
    for l2 in full_rank_maps(n2):
        transformed_left = [l2.mul(s) for s in slices]
        for l3 in full_rank_maps(n3):
            l3t = l3.transpose()
            cols = [m.mul(l3t).vectorize() for m in transformed_left]
            a_mat = Matrix(f, list(zip(*cols)), cols=n1)
            rows1 = []
            for tgt in targets:
                x = solve(a_mat, tgt)
                if x is None:
                    rows1 = None
                    break
                rows1.append(x)
            if rows1 is not None:
                return Restriction((Matrix(f, rows1, cols=n1), l2, l3))
    return None


_UNIT_PAIR_TEST_GUARD = 20_000


def _unit_search_ranks(p, dims):
    """The r whose full (L2, L3) pair count the reference loop can afford."""
    return [
        r for r in range(1, min(dims) + 1)
        if _count_full_rank(p, r, dims[1]) * _count_full_rank(p, r, dims[2]) <= _UNIT_PAIR_TEST_GUARD
    ]


_ANY_FORMAT = st.tuples(st.sampled_from([2, 3, 5, 7]), st.tuples(*[st.integers(1, 3)] * 3))
# Only r >= 2 tests the shared row order, and few random formats afford it.
_MULTI_R_FORMATS = st.sampled_from([
    (p, dims) for p in (2, 3, 5, 7) for dims in itertools.product((1, 2, 3), repeat=3)
    if len(_unit_search_ranks(p, dims)) >= 2
])


@st.composite
def unit_search_tensors(draw):
    """Half uniform tensors, half a size-r unit tensor under random maps
    plus sparse noise, so that the search hits as well as misses.  The
    planted r is the largest affordable one half the time, since r = 1 hits
    almost always."""
    p, dims = draw(st.one_of(_ANY_FORMAT, _MULTI_R_FORMATS))
    vals = st.integers(0, p - 1)
    n = dims[0] * dims[1] * dims[2]
    ranks = _unit_search_ranks(p, dims)
    if not ranks or draw(st.booleans()):
        return Tensor3(GF(p), dims, draw(st.lists(vals, min_size=n, max_size=n)))
    r = ranks[-1] if draw(st.booleans()) else draw(st.sampled_from(ranks))
    return _planted_unit(draw, p, dims, r, 2)


def _planted_unit(draw, p, dims, r, max_noise):
    """The size-r unit tensor under random maps onto dims over GF(p), plus
    at most max_noise random entries."""
    vals = st.integers(0, p - 1)
    n = dims[0] * dims[1] * dims[2]
    legs = [draw(st.lists(vals, min_size=d * r, max_size=d * r)) for d in dims]
    noise = draw(st.dictionaries(st.integers(0, n - 1), vals, max_size=max_noise))
    ent = []
    for idx, (i, j, k) in enumerate(itertools.product(*(range(d) for d in dims))):
        v = sum(legs[0][i * r + a] * legs[1][j * r + a] * legs[2][k * r + a] for a in range(r))
        ent.append((v + noise.get(idx, 0)) % p)
    return Tensor3(GF(p), dims, ent)


@settings(max_examples=200, deadline=None)
@given(unit_search_tensors())
@example(unit(GF(3), 2))
@example(w_tensor(GF(3)))
@example(Tensor3.zeros(GF(7), (2, 2, 1)))
@example(Tensor3(GF(3), (2, 2, 2), [0, 0, 1, 0, 0, 1, 0, 0]))
def test_unit_restriction_matches_pair_loop(t):
    for r in _unit_search_ranks(t.field.p, t.dims):
        got = _unit_restriction_generic(t, r, _UNIT_PAIR_TEST_GUARD)
        want = ref_unit_restriction_pairs(t, r)
        assert (got is None) == (want is None)
        if got is not None:
            assert [m.data for m in got.maps] == [m.data for m in want.maps]


def ref_unit_restriction_generic(t, r, guard):
    """_unit_restriction_generic before its row filters, kept as the
    reference: every candidate pair of `_gf2.unit_pair_candidates`, in
    order, each decided by `_units_in_span`.  On a bit format the rows run
    in word order and no guard is checked, as in the search."""
    f = t.field
    _, n2, n3 = t.dims
    q = f.p
    bits = engine._bit_format(f, t.dims, r)
    pairs = _count_full_rank(q, r, n2) * _count_full_rank(q, r, n3)
    if pairs > guard and not bits:
        raise ResourceGuardError(f"unit-restriction search over {pairs} map pairs exceeds guard {guard}")
    slices = t.slices(1)
    l2_choices, l3_choices = _gf2.unit_pair_candidates(
        *([_gf2.bit_row(b, n) for b in range(1, 1 << n)] if bits else engine._leading_one_rows(q, n) for n in (n2, n3)),
        r, lambda rows: rank_of_rows(f, rows, len(rows[0])),
    )
    l3_choices = tuple(l3_choices)
    slice_cols = [list(zip(*s.data)) for s in slices]
    for l2_rows in l2_choices:
        left = [_product(l2_rows, cols, q) for cols in slice_cols]
        for l3_rows in l3_choices:
            vecs = [[sum(map(mul, x, y)) % q for x in m for y in l3_rows] for m in left]
            if engine._units_in_span(vecs, r, q):
                l2, l3 = Matrix(f, l2_rows, cols=n2), Matrix(f, l3_rows, cols=n3)
                return engine._solve_first_leg(f, slices, l2, l3, r)
    return None


def _generic_maps(search, t, r, guard=PAIR_GUARD):
    res = search(t, r, guard)
    return None if res is None else [m.data for m in res.maps]


def test_kernel_filter_keeps_every_2x2x2_gf3_witness():
    """The kernel-filtered search (r = n1 = 2) and the cached candidate
    lists (r = 1) give the unfiltered loop's maps, or None with it, on every
    2x2x2 tensor over GF(3)."""
    f = GF(3)
    found = [0, 0]
    for vals in itertools.product(range(3), repeat=8):
        t = Tensor3(f, (2, 2, 2), list(vals))
        for r in (2, 1):
            got = _generic_maps(_unit_restriction_generic, t, r)
            assert got == _generic_maps(ref_unit_restriction_generic, t, r)
            found[r - 1] += got is not None
    assert found == [6560, 3456]


def _candidate_pairs(p, r, n2, n3):
    """The pairs of `_gf2.unit_pair_candidates` over GF(p): full-rank maps up
    to row scaling, and L2 also up to row order."""
    return (_count_full_rank(p, r, n2) // ((p - 1) ** r * math.factorial(r))
            * (_count_full_rank(p, r, n3) // (p - 1) ** r))


# formats with r = n1 whose unfiltered loop visits at most 20,000 candidate
# pairs; the guard, which counts all full-rank pairs, is lifted for them
_KERNEL_FORMATS = st.sampled_from([
    (p, dims) for p in (3, 5, 11) for dims in [(1, 1, 2), (1, 3, 2), (2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3)]
    if _candidate_pairs(p, dims[0], dims[1], dims[2]) <= 20_000
])


@st.composite
def kernel_filter_tensors(draw):
    """A format with r = n1: half the time a uniform tensor, half the time
    the size-r unit tensor under random maps plus one noise entry, so that
    the filter meets hits and misses."""
    p, dims = draw(_KERNEL_FORMATS)
    if draw(st.booleans()):
        n = dims[0] * dims[1] * dims[2]
        return Tensor3(GF(p), dims, draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    return _planted_unit(draw, p, dims, dims[0], 1)


@settings(max_examples=60, deadline=None)
@given(kernel_filter_tensors())
@example(unit(GF(11), 2))
@example(w_tensor(GF(5)))
def test_kernel_filter_keeps_the_witness_over_gf3_gf5_gf11(t):
    r, guard = t.dims[0], 10 ** 12
    assert (_generic_maps(_unit_restriction_generic, t, r, guard)
            == _generic_maps(ref_unit_restriction_generic, t, r, guard))


def test_kernel_filter_ranks_fewer_pairs(monkeypatch):
    """On W over GF(3) at r = 2 no pair is accepted; the unfiltered loop
    ranks all 72 candidate pairs, the filtered search fewer."""
    calls = []
    ranks = engine._units_in_span
    monkeypatch.setattr(engine, "_units_in_span", lambda vecs, r, p: calls.append(r) or ranks(vecs, r, p))
    assert _candidate_pairs(3, 2, 2, 2) == 72
    assert ref_unit_restriction_generic(w_tensor(GF(3)), 2, PAIR_GUARD) is None
    assert len(calls) == 72
    calls.clear()
    assert _unit_restriction_generic(w_tensor(GF(3)), 2, PAIR_GUARD) is None
    assert len(calls) < 72


# formats with r < n1 < 2r - 1 at r = 3, where the rank filter, not the kernel
# test, cuts the L3 rows; none has a lane table at r = 3
_RANK_FILTER_FORMATS = [(4, 3, 3), (4, 4, 3), (4, 3, 4)]
# a 4x3x3 support with no size-3 unit restriction over GF(2) or GF(3)
_NO_UNIT_433 = {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1, (2, 2, 2): 1, (3, 1, 2): 1}


@st.composite
def rank_filter_tensors(draw):
    """The size-3 unit tensor over GF(2) on a rank-filter format, under maps
    of rank 3 (an identity block moved by row additions and a row
    permutation), plus at most one noise entry.  The search mostly hits,
    where a filter that dropped a row of the first witness would show; on a
    miss the unfiltered loop ranks every candidate pair, which is slow."""
    dims = draw(st.sampled_from(_RANK_FILTER_FORMATS))
    legs = []
    for n in dims:
        rows = [[int(i == a) for a in range(3)] for i in range(n)]
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)):
            if i != j:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[j])]
        legs.append(draw(st.permutations(rows)))
    noise = draw(st.sets(st.integers(0, dims[0] * dims[1] * dims[2] - 1), max_size=1))
    ent = [(sum(legs[0][i][a] * legs[1][j][a] * legs[2][k][a] for a in range(3)) + (idx in noise)) % 2
           for idx, (i, j, k) in enumerate(itertools.product(*map(range, dims)))]
    return Tensor3(GF(2), dims, ent)


@settings(max_examples=12, deadline=None)
@given(rank_filter_tensors())
def test_rank_filter_keeps_the_witness_on_gf2_tensors(t):
    assert not engine.packed_applies(t.field, t.dims, 3)
    assert _generic_maps(_unit_restriction_generic, t, 3) == _generic_maps(ref_unit_restriction_generic, t, 3)


def test_rank_filter_keeps_the_witness_on_two_gf3_tensors():
    """Two fixed 4x3x3 tensors over GF(3) at r = 3, the guard lifted: the
    rank-filtered search gives the unfiltered loop's maps, and None with it."""
    f, guard = GF(3), 10 ** 12
    hit = Tensor3(f, (4, 3, 3), [int(c) for c in "002010000100000002100110001000000002"])
    miss = Tensor3(f, (4, 3, 3), _NO_UNIT_433)
    found = [_generic_maps(_unit_restriction_generic, t, 3, guard) for t in (hit, miss)]
    assert found == [_generic_maps(ref_unit_restriction_generic, t, 3, guard) for t in (hit, miss)]
    assert found[0] is not None and found[1] is None


def test_rank_filter_ranks_fewer_pairs(monkeypatch):
    """On a fixed 4x3x3 GF(2) tensor at r = 3 no pair is accepted; the
    unfiltered loop ranks all 28 * 168 candidate pairs, the rank-filtered
    search fewer."""
    t = Tensor3(GF(2), (4, 3, 3), _NO_UNIT_433)
    calls = []
    ranks = engine._units_in_span
    monkeypatch.setattr(engine, "_units_in_span", lambda vecs, r, p: calls.append(r) or ranks(vecs, r, p))
    assert _candidate_pairs(2, 3, 3, 3) == 28 * 168
    assert ref_unit_restriction_generic(t, 3, PAIR_GUARD) is None
    assert len(calls) == 28 * 168
    calls.clear()
    assert _unit_restriction_generic(t, 3, PAIR_GUARD) is None
    assert len(calls) < 28 * 168


def test_filtered_search_builds_no_l3_list(monkeypatch):
    """With n1 < 2r - 1 the rank filter cuts L3's rows, and the search ranks
    only the filtered tuples: on 20 seeded 2x3x4 tensors over GF(5) at r = 2,
    the guard lifted, far fewer than the 156^2 = 24,336 tuples of the full L3
    list, which it never builds.  The GF(11) format takes 2,141,832."""
    f = GF(5)
    engine._generic_candidates.cache_clear()
    engine._unfiltered_l3s.cache_clear()
    calls = []
    ranks = engine.rank_of_rows
    monkeypatch.setattr(engine, "rank_of_rows", lambda g, rows, n: calls.append(n) or ranks(g, rows, n))
    rng = random.Random(5)
    found = 0
    for _ in range(20):
        t = Tensor3(f, (2, 3, 4), [rng.randrange(5) for _ in range(24)])
        res = _unit_restriction_generic(t, 2, 10 ** 12)
        found += res is not None and verify_restriction(res, t, unit(f, 2))
    assert found == 20
    assert 0 < calls.count(4) < 1000
    assert engine._unfiltered_l3s.cache_info().currsize == 0


def test_search_constants_are_built_on_first_use():
    """No candidate list exists after import; a search refused by its guard
    builds none; a search that passes builds one entry, of tuples, and no L3
    list when the rank filter applies (n1 = 2 < 2r - 1); the witness check's
    column cache is bounded."""
    code = (
        "from tenrank import _gf2, engine\n"
        "from tenrank.errors import ResourceGuardError\n"
        "from tenrank.fields import GF\n"
        "from tenrank.tensor import unit\n"
        "caches = (engine._generic_candidates, engine._unfiltered_l3s)\n"
        "sizes = lambda: print(*(c.cache_info().currsize for c in caches))\n"
        "sizes()\n"
        "try:\n"
        "    engine.exists_unit_restriction(unit(GF(3), 2), 2, guard=2303)\n"
        "except ResourceGuardError:\n"
        "    print('refused')\n"
        "sizes()\n"
        "engine.exists_unit_restriction(unit(GF(3), 2), 2, guard=2304)\n"
        "sizes()\n"
        "l2s, rows3 = engine._generic_candidates(GF(3), 2, 2, 2)\n"
        "l3s = engine._unfiltered_l3s(GF(3), 2, 2, 2)\n"
        "print(all(isinstance(x, tuple) for x in (l2s, l3s, rows3, *l2s, *l3s, *rows3)))\n"
        "print(_gf2._bit_columns.cache_info().maxsize)\n"
    )
    src = str(Path(engine.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "0", "refused", "0", "0", "1", "0", "True", "4096"]


@lru_cache(maxsize=None)
def ref_surjective_maps(r, n):
    """All full-rank r x n GF(2) matrices as tuples of n-bit row words."""
    out = []
    for rows in itertools.product(range(1, 1 << n), repeat=r):
        if _gf2.gf2_rank(list(rows)) == r:
            out.append(rows)
    return tuple(out)


def ref_apply_pair(slice_word, n2, n3, l2, l3, r):
    """L2 * S * L3^T for a packed (n2 x n3) slice; result packed r x r."""
    out = 0
    bit = 0
    for b in range(r):
        rowmask = l2[b]
        for c in range(r):
            colmask = l3[c]
            acc = 0
            for j in range(n2):
                if (rowmask >> j) & 1:
                    srow = (slice_word >> (j * n3)) & ((1 << n3) - 1)
                    acc ^= (srow & colmask)
            if bin(acc).count("1") & 1:
                out |= 1 << bit
            bit += 1
    return out


@lru_cache(maxsize=None)
def ref_pair_tables(n2, n3, r):
    """For each (L2, L3) pair: a lookup table from packed slice to packed
    transformed r x r slice.  Only built when the total table size is small
    (the exhaustive-format workloads); None entries mean "apply on the fly"."""
    l2s = ref_surjective_maps(r, n2)
    l3s = ref_surjective_maps(r, n3)
    width = n2 * n3
    build = width <= 12 and len(l2s) * len(l3s) * (1 << width) <= _gf2._TABLE_COST_CAP
    tables = []
    for l2 in l2s:
        for l3 in l3s:
            tbl = None
            if build:
                tbl = [ref_apply_pair(s, n2, n3, l2, l3, r) for s in range(1 << width)]
            tables.append((l2, l3, tbl))
    return tables


def ref_exists_unit_restriction_gf2(word, dims, r):
    """The packed search before it shared the generic search's candidate
    pairs, kept as the reference: every pair of full-rank maps, rows in word
    order, L2 major, solving for leg 1 in the XOR span of the transformed
    1-slices."""
    n1, n2, n3 = dims
    if r > min(dims):
        return None
    if r == 0:
        return ((), (), ())
    slices = _gf2.split_rows(word, n1, n2 * n3)
    targets = _gf2._unit_targets(r)
    size = 1 << n1
    vals = [0] * size
    for l2, l3, tbl in ref_pair_tables(n2, n3, r):
        if tbl is not None:
            trans = [tbl[s] for s in slices]
        else:
            trans = [ref_apply_pair(s, n2, n3, l2, l3, r) for s in slices]
        # vals[m] = XOR of transformed slices selected by bitmask m, so a
        # matching index is itself the corresponding row of the solved map
        for idx in range(n1):
            tv = trans[idx]
            step = 1 << idx
            if tv:
                for m in range(step):
                    vals[m | step] = vals[m] ^ tv
            else:
                for m in range(step):
                    vals[m | step] = vals[m]
        rows1 = []
        for tgt in targets:
            for m in range(size):
                if vals[m] == tgt:
                    rows1.append(m)
                    break
            else:
                rows1 = None
                break
        if rows1 is not None:
            return (tuple(rows1), l2, l3)
    return None


def _same_packed_witness(word, dims, rs):
    for r in rs:
        assert _gf2.exists_unit_restriction_gf2(word, dims, r) == ref_exists_unit_restriction_gf2(word, dims, r)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3)])
def test_packed_unit_search_matches_full_pair_loop_exhaustively(dims):
    for word in range(1 << (dims[0] * dims[1] * dims[2])):
        _same_packed_witness(word, dims, range(min(dims) + 1))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(3, 3, 2), (2, 3, 3)]).flatmap(
    lambda dims: st.tuples(st.just(dims), st.integers(0, (1 << (dims[0] * dims[1] * dims[2])) - 1))))
def test_packed_unit_search_matches_full_pair_loop(case):
    dims, word = case
    _same_packed_witness(word, dims, range(1, min(dims) + 1))


def _table_less_witness(word, dims, r):
    """exists_unit_restriction's maps on a packed GF(2) word, each row read
    back as a bit row, so they compare with the packed reference's."""
    res = exists_unit_restriction(Tensor3(GF(2), dims, _gf2.unpack_entries(word, dims)), r)
    return None if res is None else tuple(tuple(map(_gf2.pack, m.data)) for m in res.maps)


def _same_table_less_witness(word, dims, r):
    assert not engine.packed_applies(GF(2), dims, r)
    assert _table_less_witness(word, dims, r) == ref_exists_unit_restriction_gf2(word, dims, r)


# 3x3x3 at r = 3 has no lane table, so the generic search runs on bit rows: a
# unit tensor under invertible maps, whose witness has L2 rows (2, 6, 7), and
# a concise tensor with no unit restriction
@pytest.mark.parametrize("word", [0x53A0802, 0x39E792B], ids=["unit_under_maps", "no_unit"])
def test_packed_unit_search_matches_full_pair_loop_without_tables(word):
    _same_table_less_witness(word, (3, 3, 3), 3)


# the same on random words of 3x3x3 at r = 3 and of 2x2x5 at r = 2
@settings(max_examples=20, deadline=None)
@given(st.sampled_from([((3, 3, 3), 3), ((2, 2, 5), 2)]).flatmap(
    lambda case: st.tuples(st.just(case), st.integers(0, (1 << math.prod(case[0])) - 1))))
def test_table_less_unit_search_matches_full_pair_loop_on_random_words(case):
    (dims, r), word = case
    _same_table_less_witness(word, dims, r)


def test_lane_tables_match_the_per_pair_tables():
    """Every lane table with n2, n3 <= 3: for every slice, lane p (r*r data
    bits and a zero guard bit above them) is pair p's reference table entry,
    pairs in the search's order, and nothing lies past the last lane; each
    spread holds its unit target E_aa in every lane."""
    built = []
    for n2, n3 in itertools.product(range(1, 4), repeat=2):
        for r in range(1, min(n2, n3) + 1):
            l2s, l3s, table, lows, spreads = _gf2._lane_table(n2, n3, r)
            if table is None:
                continue
            built.append((n2, n3, r))
            ref = {(l2, l3): tbl for l2, l3, tbl in ref_pair_tables(n2, n3, r)}
            pairs = list(itertools.product(l2s, l3s))
            lane = r * r + 1
            assert lows == sum(1 << (p * lane) for p in range(len(pairs)))
            assert spreads == tuple(sum(1 << (p * lane + a * r + a) for p in range(len(pairs))) for a in range(r))
            for s, entry in enumerate(table):
                assert entry >> (len(pairs) * lane) == 0
                for p, pair in enumerate(pairs):
                    assert (entry >> (p * lane)) & ((1 << lane) - 1) == ref[pair][s]
    assert len(built) == 13


def test_lane_search_witnesses_on_3x3x2_are_pinned():
    """The packed search's result on every 13th 3x3x2 word for r = 1, 2,
    hashed as recorded before the search tested all pairs in one int."""
    h = hashlib.sha256()
    for word in range(0, 1 << 18, 13):
        for r in (1, 2):
            h.update(repr((word, r, _gf2.exists_unit_restriction_gf2(word, (3, 3, 2), r))).encode())
    assert h.hexdigest() == "636d5cdf15d59fd21978f800bda363523c078dce584b5452496312ed9b892f9c"


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 3, 2), (2, 3, 3), (3, 2, 3), (1, 3, 4),
                                  (4, 2, 2)], ids=lambda dims: "x".join(map(str, dims)))
def test_unit_pair_read_off_the_slices_is_the_lane_search_pair(dims):
    """At r = 1 the packed search reads its pair off the slices; on every
    word of each format it is the lane-table search's first accepted pair."""
    for word in range(1 << math.prod(dims)):
        assert _gf2.exists_unit_restriction_gf2(word, dims, 1) == _gf2._lane_search(word, dims, 1), word


def test_unit_pair_witnesses_at_r1_are_pinned():
    """The packed search's r = 1 result on every 2x2x3 and every 16th 3x3x2
    word, hashed as recorded while the lane table answered r = 1."""
    h = hashlib.sha256()
    for dims, step in (((2, 2, 3), 1), ((3, 3, 2), 16)):
        for word in range(0, 1 << math.prod(dims), step):
            h.update(repr((word, _gf2.exists_unit_restriction_gf2(word, dims, 1))).encode())
    assert h.hexdigest() == "e9edeb56f7cebf1a94b9eb95e05f2cbbe40ac2d1f89ec95cb43ab58232bb1d75"


# -- the packed witness check ---------------------------------------------------


def _bit_maps_restriction(f, maps, dims):
    """Bit-row maps as a Restriction of Matrix maps, row a of leg l over dims[l]."""
    return Restriction(tuple(Matrix(f, [[(b >> j) & 1 for j in range(n)] for b in rows], cols=n)
                             for rows, n in zip(maps, dims)))


@st.composite
def packed_words_and_bit_maps(draw):
    dims = tuple(draw(st.integers(0, 3)) for _ in range(3))
    word = draw(st.integers(0, (1 << (dims[0] * dims[1] * dims[2])) - 1))
    maps = tuple(tuple(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))) for n in dims)
    return dims, word, maps


@settings(max_examples=400, deadline=None)
@given(packed_words_and_bit_maps())
@example(((3, 3, 3), (1 << 27) - 1, ((7, 0, 5), (1, 6, 7), (3, 0, 4))))
@example(((2, 2, 3), 0b100010000001, ((1, 2), (1, 2), (1, 2))))
@example(((2, 1, 3), 0b101110, ((), (1,), (7, 0))))
def test_apply_bit_maps_matches_apply_restriction(case):
    dims, word, maps = case
    f = GF(2)
    image = apply_restriction(_bit_maps_restriction(f, maps, dims), Tensor3(f, dims, _gf2.unpack_entries(word, dims)))
    assert _gf2.apply_bit_maps(word, dims, maps) == _gf2.pack(image.entries)


def _restricts_to_unit_by_definition(support, maps, r):
    """Whether sum over T's support of L1[a,i] L2[b,j] L3[c,k] is the size-r
    unit tensor over GF(2), entry by entry."""
    l1, l2, l3 = maps
    return all(
        sum((l1[a] >> i) & (l2[b] >> j) & (l3[c] >> k) & 1 for i, j, k in support) % 2 == (a == b == c)
        for a, b, c in itertools.product(range(r), repeat=3)
    )


def test_single_bit_flips_of_packed_witnesses_are_judged_alike_by_both_checks():
    """Every accepted witness on every 2x2x3 GF(2) word, with one map entry
    flipped: the packed check and verify_restriction refuse exactly the flips
    whose image, summed entry by entry, is no longer the unit tensor.  The
    other flips meet only zeros of the tensor and leave a valid witness."""
    f, dims = GF(2), (2, 2, 3)
    refused = kept = 0
    for word in range(1 << 12):
        t = Tensor3(f, dims, _gf2.unpack_entries(word, dims))
        support = t.support()
        for r in (1, 2):
            maps = _gf2.exists_unit_restriction_gf2(word, dims, r)
            if maps is None:
                continue
            unit_word = _gf2.pack(unit(f, r).entries)
            for leg, n in enumerate(dims):
                for a, x in itertools.product(range(r), range(n)):
                    bad = [list(rows) for rows in maps]
                    bad[leg][a] ^= 1 << x
                    valid = _restricts_to_unit_by_definition(support, bad, r)
                    assert (_gf2.apply_bit_maps(word, dims, bad) == unit_word) == valid
                    assert verify_restriction(_bit_maps_restriction(f, bad, dims), t, unit(f, r)) == valid
                    refused += not valid
                    kept += valid
    assert (refused, kept) == (64392, 10137)


@pytest.mark.parametrize(
    ("change", "caller"),
    [(change, caller) for caller in ("exists_unit_restriction", "scan_item") for change in ("flip", "drop_row")],
    # the exists_unit_restriction cases are named by the change alone
    ids=["flip", "drop_row", "flip-scan_item", "drop_row-scan_item"],
)
def test_packed_branch_refuses_a_bad_witness(monkeypatch, change, caller):
    """Both users of the packed search, exists_unit_restriction and a GF(2)
    scan item, check its witness before they use it: a search that hands
    back a broken witness is refused."""
    t = Tensor3(GF(2), (2, 2, 3), {(0, 0, 0): 1, (1, 1, 1): 1, (0, 1, 2): 1})
    word = _gf2.pack(t.entries)
    assert min(t.flattening_ranks()) == 2  # so the scan item searches r = 2 first
    rows1, rows2, rows3 = _gf2.exists_unit_restriction_gf2(word, t.dims, 2)
    bad = (rows1, rows2, (rows3[0], rows3[1] ^ 2)) if change == "flip" else (rows1, rows2, rows3[:1])
    monkeypatch.setattr(_gf2, "exists_unit_restriction_gf2", lambda word, dims, r: bad)
    with pytest.raises(VerificationFailedError, match="^unit restriction failed to verify$"):
        if caller == "scan_item":
            _scan_one(word, t.dims, GF(2))
        else:
            exists_unit_restriction(t, 2)


def test_packed_subrank_witnesses_are_pinned():
    """subrank_exact's value and maps on every 2x2x2 and 2x2x3 GF(2) word,
    hashed as recorded before the packed witness check left verify_restriction."""
    h = hashlib.sha256()
    for dims in [(2, 2, 2), (2, 2, 3)]:
        for word in range(1 << (dims[0] * dims[1] * dims[2])):
            value, cert = subrank_exact(Tensor3(GF(2), dims, _gf2.unpack_entries(word, dims)))
            h.update(repr((value, cert.restriction.maps)).encode())
    assert h.hexdigest() == "60c52fab65a7a99566a6732302d2f33802a8e8d45c64c73c1239031fbf799b56"


def test_table_less_subrank_witnesses_are_pinned():
    """subrank_exact's value and maps on three seeded GF(2) tensors of each
    format whose top search has no lane table, or whose n1 exceeds r, hashed
    as recorded while the packed search still applied such pairs one at a
    time."""
    h = hashlib.sha256()
    for dims in [(3, 3, 3), (3, 3, 4), (3, 4, 3), (4, 3, 3), (4, 4, 3), (2, 2, 5), (2, 5, 2), (2, 4, 5), (3, 2, 5)]:
        rng = random.Random(repr(dims))
        for _ in range(3):
            entries = [rng.randrange(2) for _ in range(math.prod(dims))]
            value, cert = subrank_exact(Tensor3(GF(2), dims, entries))
            maps = tuple(tuple(tuple(row) for row in m.data) for m in cert.restriction.maps)
            h.update(repr((dims, entries, value, maps)).encode())
    assert h.hexdigest() == "3ac5ac597ebc77cd153601c9a1fd588b6a820df2e5a68a51cff539ba9eaa5637"


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=["gf2", "gf3", "q"])
def test_negative_unit_size_is_refused_before_any_search(field):
    with pytest.raises(BadParamsError, match="^unit tensor size -1 must not be negative$"):
        exists_unit_restriction(unit(field, 2), -1)


def test_unit_restriction_guard_counts_full_rank_pairs():
    t = unit(GF(3), 2)
    pairs = _count_full_rank(3, 2, 2) ** 2
    assert pairs == 2304
    with pytest.raises(
        ResourceGuardError,
        match=f"^unit-restriction search over {pairs} map pairs exceeds guard {pairs - 1}$",
    ):
        exists_unit_restriction(t, 2, guard=pairs - 1)
    assert exists_unit_restriction(t, 2, guard=pairs) is not None


def test_slicerank_values():
    assert slicerank_exact(unit(GF(2), 2)) == 2
    assert slicerank_exact(w_tensor(GF(2))) == 2
    assert slicerank_exact(Tensor3.zeros(GF(2), (2, 2, 2))) == 0
    with pytest.raises(InfiniteFieldError):
        slicerank_exact(unit(QQ, 2))


def _contract_one_leg(t, leg, m):
    """m applied on one leg of t, the identity on the other two."""
    maps = [Matrix.identity(t.field, n) for n in t.dims]
    maps[leg - 1] = m
    return apply_restriction(Restriction(tuple(maps)), t)


def ref_slicerank_pairs(t):
    """The (V1, V2) loop slicerank_exact replaced, kept as the reference: each
    pair contracts both quotient maps into a tensor and takes its
    direction-3 flattening rank."""
    f = t.field
    if t.is_zero():
        return 0
    n1, n2, n3 = t.dims
    best = None
    for a1 in range(n1 + 1):
        if best is not None and a1 >= best:
            break
        for v1 in subspaces(f, n1, a1):
            t1 = _contract_one_leg(t, 1, _annihilator(v1))
            for a2 in range(n2 + 1):
                if best is not None and a1 + a2 >= best:
                    break
                for v2 in subspaces(f, n2, a2):
                    t12 = _contract_one_leg(t1, 2, _annihilator(v2))
                    tot = a1 + a2 + t12.flattening_rank(3)
                    if best is None or tot < best:
                        best = tot
    return best


@st.composite
def small_tensors(draw):
    f = GF(draw(st.sampled_from([2, 3, 5])))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(3))
    n = dims[0] * dims[1] * dims[2]
    return Tensor3(f, dims, draw(st.lists(st.integers(0, f.p - 1), min_size=n, max_size=n)))


@st.composite
def low_slicerank_tensors(draw):
    """Sums of a few slice-rank-one terms x (x) M, one leg x and a matrix M
    on the other two legs, so the slice rank often lies below min(dims)."""
    p = draw(st.sampled_from([2, 3, 5]))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(3))
    vals = st.integers(0, p - 1)
    ent = {}
    for leg in range(3):
        rest = [d for x, d in enumerate(dims) if x != leg]
        for _ in range(draw(st.integers(0, 2))):
            x = draw(st.lists(vals, min_size=dims[leg], max_size=dims[leg]))
            m = draw(st.lists(vals, min_size=rest[0] * rest[1], max_size=rest[0] * rest[1]))
            for ijk in itertools.product(*(range(d) for d in dims)):
                a, b = [ijk[y] for y in range(3) if y != leg]
                ent[ijk] = ent.get(ijk, 0) + x[ijk[leg]] * m[a * rest[1] + b]
    return Tensor3(GF(p), dims, ent)


@st.composite
def full_flattening_tensors(draw):
    """3x3x3 tensors over GF(2) and GF(3) whose flattening ranks are all 3, so
    slicerank_exact has to search: sums u (x) A + B (x) v (slice rank 2,
    with u and v on legs 1 and 3) and random tensors (slice rank 3)."""
    p = draw(st.sampled_from([2, 3]))
    vals = st.integers(0, p - 1)
    if draw(st.booleans()):
        u, v = (draw(st.lists(vals, min_size=3, max_size=3)) for _ in range(2))
        a, b = (draw(st.lists(vals, min_size=9, max_size=9)) for _ in range(2))
        t = Tensor3(GF(p), (3, 3, 3), {(i, j, k): u[i] * a[3 * j + k] + b[3 * i + j] * v[k]
                                       for i, j, k in itertools.product(range(3), repeat=3)})
    else:
        t = Tensor3(GF(p), (3, 3, 3), draw(st.lists(vals, min_size=27, max_size=27)))
    assume(min(t.flattening_ranks()) == 3)
    return t


# u = v = e_2, A = identity, B a cyclic shift: flattening ranks (3, 3, 3), slice rank 2
U_A_B_V = Tensor3(GF(2), (3, 3, 3), {ijk: 1 for ijk in [
    (0, 1, 2), (1, 2, 2), (2, 0, 0), (2, 0, 2), (2, 1, 1), (2, 2, 2)]})


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_tensors(), low_slicerank_tensors(), full_flattening_tensors()))
@example(Tensor3.zeros(GF(3), (2, 3, 2)))
@example(unit(GF(5), 3))
@example(w_tensor(GF(2)))
@example(w_tensor(GF(3)))
@example(U_A_B_V)
def test_slicerank_matches_pair_loop(t):
    assert slicerank_exact(t) == ref_slicerank_pairs(t)


def _count_min_cover(monkeypatch):
    """Count slicerank_exact's calls of the cover search."""
    calls = []
    inner = tenrank.engine._cover_walk

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(tenrank.engine, "_cover_walk", counting)
    return calls


def test_slicerank_read_off_flattening_ranks(monkeypatch):
    """Every 2x2x2 tensor has a flattening of rank at most 2, which is then its
    slice rank: no cover search runs."""
    calls = _count_min_cover(monkeypatch)
    values = set()
    for idx in range(256):
        t = Tensor3(GF(2), (2, 2, 2), [(idx >> b) & 1 for b in range(8)])
        sr = slicerank_exact(t)
        assert sr == ref_slicerank_pairs(t) == min(t.flattening_ranks())
        values.add(sr)
    assert values == {0, 1, 2}
    assert calls == []
    assert slicerank_exact(U_A_B_V) == 2
    assert calls


def test_slicerank_guard_and_field_before_flattening_ranks():
    # a rank-1 flattening settles the slice rank only after the guard passes
    t = Tensor3(GF(2), (6, 6, 1), {(0, 0, 0): 1, (5, 5, 0): 1})
    assert min(t.flattening_ranks()) == 1
    pairs = sum(subspace_count(2, 6, d) for d in range(7)) ** 2
    assert pairs > tenrank.engine.SLICERANK_GUARD
    with pytest.raises(ResourceGuardError,
                       match=f"^subspace-pair enumeration of {pairs} pairs exceeds guard "
                             f"{tenrank.engine.SLICERANK_GUARD}$"):
        slicerank_exact(t)
    small = Tensor3(GF(2), (2, 2, 2), {(0, 0, 0): 1})
    pairs = sum(subspace_count(2, 2, d) for d in range(3)) ** 2
    with pytest.raises(ResourceGuardError,
                       match=f"^subspace-pair enumeration of {pairs} pairs exceeds guard {pairs - 1}$"):
        slicerank_exact(small, guard=pairs - 1)
    assert slicerank_exact(small, guard=pairs) == 1
    with pytest.raises(InfiniteFieldError):
        slicerank_exact(Tensor3(QQ, (2, 2, 2), {(0, 0, 0): 1}))


def test_slicerank_guard_counts_pairs():
    t = unit(GF(2), 3)
    pairs = sum(subspace_count(2, 3, d) for d in range(4)) ** 2
    with pytest.raises(ResourceGuardError, match=f"{pairs} pairs exceeds guard {pairs - 1}"):
        slicerank_exact(t, guard=pairs - 1)
    assert slicerank_exact(t, guard=pairs) == 3


def test_chain_on_exhaustive_gf2_222():
    f = GF(2)
    for idx in range(256):
        bits = [(idx >> b) & 1 for b in range(8)]
        t = Tensor3(f, (2, 2, 2), bits)
        q, cert = subrank_exact(t)
        sr = slicerank_exact(t)
        ranks = t.flattening_ranks()
        assert q <= sr <= min(ranks) or min(ranks) == 0
        assert cert.verify(t)


# -- the elimination construction -------------------------------------------------


def test_subrank_from_minrank_single_slice():
    f = GF(3)
    t = Tensor3(f, (2, 2, 1), {(0, 1, 0): 2})
    cert = subrank_from_minrank(t, [0])
    assert cert.r == 1 and cert.verify(t)


def test_subrank_from_minrank_diag_pair():
    f = GF(5)
    n = 5
    ent = {}
    for i in range(n):
        ent[(i, i, 0)] = 1
        v = (3 * i + 1) % 5
        if v:
            ent[(i, i, 1)] = v
    t = Tensor3(f, (n, n, 2), ent)
    mr, _ = min_rank_exhaustive(span_of(f, [t.slice(3, 0), t.slice(3, 1)]))
    assert mr >= 4
    cert = subrank_from_minrank(t, [0, 1])
    assert cert.r == 2 and cert.verify(t)


def test_subrank_from_minrank_precondition():
    f = GF(5)
    # two slices sharing all their rank in one position: min-rank 1 < 4
    t = Tensor3(f, (3, 3, 2), {(0, 0, 0): 1, (0, 0, 1): 2, (1, 1, 1): 1, (2, 2, 0): 1})
    with pytest.raises(PreconditionFailedError):
        subrank_from_minrank(t, [0, 1])


def test_subrank_from_minrank_random_high_rank():
    """Random instances built to satisfy the threshold always eliminate."""
    rng = random.Random(7)
    f = GF(7)
    done = 0
    while done < 10:
        n = 9
        d1 = {(i, i): 1 for i in range(n)}
        perm = list(range(n))
        rng.shuffle(perm)
        d2 = {(i, perm[i]): rng.randrange(1, 7) for i in range(n)}
        ent = {}
        for (i, j), v in d1.items():
            ent[(i, j, 0)] = v
        for (i, j), v in d2.items():
            ent[(i, j, 1)] = ent.get((i, j, 1), 0) + v
        t = Tensor3(f, (n, n, 2), ent)
        mats = [t.slice(3, 0), t.slice(3, 1)]
        mr, _ = min_rank_exhaustive(span_of(f, mats))
        if mr < 4:
            continue
        cert = subrank_from_minrank(t, [0, 1])
        assert cert.r == 2 and cert.verify(t)
        done += 1


# -- the dimension-2 construction --------------------------------------------------


def test_subrank_c2_requires_shape_and_conciseness():
    with pytest.raises(BadDimsError):
        subrank_c2(unit(GF(2), 2))
    t = Tensor3(GF(2), (3, 3, 2), {(0, 0, 0): 1})
    with pytest.raises(NotConciseError):
        subrank_c2(t)


def test_subrank_c2_non_concise_remark_example():
    # [[1,1],[1,1]] and [[1,1],[2,2]] give a non-concise 2x2x2 tensor
    f = GF(5)
    ent = {}
    for (i, j) in itertools.product(range(2), repeat=2):
        ent[(i, j, 0)] = 1
    ent[(0, 0, 1)] = 1
    ent[(0, 1, 1)] = 1
    ent[(1, 0, 1)] = 2
    ent[(1, 1, 1)] = 2
    t = Tensor3(f, (2, 2, 2), ent)
    with pytest.raises(BadDimsError):
        subrank_c2(t)


def test_subrank_c2_random_gf2():
    rng = random.Random(11)
    done = 0
    while done < 150:
        t = rand_tensor(GF(2), (3, 3, 2), rng)
        if not t.is_concise():
            continue
        cert = subrank_c2(t)
        assert cert.r == 2 and cert.verify(t)
        assert subrank_exact(t)[0] == 2
        done += 1


def test_subrank_c2_q_with_int_entries():
    # Tensor3 keeps int entries over Q; inverting one must give a Fraction,
    # not a float, or the certificate's maps stop being exact
    t = Tensor3(QQ, (3, 3, 2), [1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1])
    cert = subrank_c2(t)
    assert cert.r == 2 and cert.verify(t)
    assert all(type(x) is not float for m in cert.restriction.maps for row in m.data for x in row)
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction


def test_subrank_c2_sampled_gf3_342():
    rng = random.Random(13)
    done = 0
    while done < 60:
        t = rand_tensor(GF(3), (3, 4, 2), rng)
        if not t.is_concise():
            continue
        cert = subrank_c2(t)
        assert cert.r == 2 and cert.verify(t)
        done += 1


def test_subrank_c2_rationals():
    rng = random.Random(17)
    done = 0
    while done < 20:
        ent = [Fraction(rng.randrange(-3, 4)) for _ in range(4 * 3 * 2)]
        t = Tensor3(QQ, (4, 3, 2), ent)
        if not t.is_concise():
            continue
        cert = subrank_c2(t)
        assert cert.r == 2 and cert.verify(t)
        done += 1


def test_subrank_c2_low_rank_first_slice():
    """Force the rank-1 first slice branch."""
    f = GF(5)
    ent = {(0, 0, 0): 1}  # slice A = E11, rank 1
    # slice B: full rank with off-diagonal mass
    ent.update({(0, 1, 1): 1, (1, 0, 1): 1, (1, 2, 1): 1, (2, 1, 1): 2, (2, 2, 1): 1, (0, 0, 1): 3})
    t = Tensor3(f, (3, 3, 2), ent)
    if t.is_concise():
        cert = subrank_c2(t)
        assert cert.r == 2 and cert.verify(t)


def test_subrank_c2_diagonal_case():
    """Slice A = Id, slice B diagonal with distinct values (case 2b)."""
    f = GF(7)
    ent = {}
    for i in range(3):
        ent[(i, i, 0)] = 1
        ent[(i, i, 1)] = i + 1
    t = Tensor3(f, (3, 3, 2), ent)
    assert t.is_concise()
    cert = subrank_c2(t)
    assert cert.r == 2 and cert.verify(t)


def test_subrank_c2_bottom_support_only_in_pivot_column():
    """Exercise the corner where all below-block support sits in the last
    pivot column, forcing the diagonal-index swap."""
    f = GF(5)
    ent = {(0, 0, 0): 1, (1, 1, 0): 1}
    ent[(2, 1, 1)] = 1  # bottom row of B touches only column 2 (= r in 1-based)
    ent[(0, 2, 1)] = 1
    ent[(1, 0, 1)] = 1
    t = Tensor3(f, (3, 3, 2), ent)
    if t.is_concise():
        cert = subrank_c2(t)
        assert cert.r == 2 and cert.verify(t)


# -- square and cube compositions ----------------------------------------------------


def test_matmul_form_restrictions():
    t = null_algebra(GF(11), 4)
    for d in (1, 2, 3):
        rd, cd = [x for x in (1, 2, 3) if x != d]
        v, wit = max_rank_exhaustive(slice_span(t, rd, cd))
        matmul_form_restriction(t, d, wit)  # verifies internally


def test_two_direction_square_unit():
    t = unit(GF(5), 3)
    v, wit = max_rank_exhaustive(slice_span(t, 2, 3))
    cert = two_direction_square(t, 1, 2, wit, wit)
    assert cert.r == 3 and cert.power == 2
    assert cert.verify(t)


def test_two_direction_square_null_algebra():
    t = null_algebra(GF(11), 5)
    _, w1 = max_rank_exhaustive(slice_span(t, 2, 3))
    _, w3 = max_rank_exhaustive(slice_span(t, 1, 2))
    cert = two_direction_square(t, 1, 3, w1, w3)
    assert cert.r == 5 and cert.verify(t)


def test_two_direction_square_all_pairs_random():
    rng = random.Random(19)
    f = GF(11)
    done = 0
    while done < 8:
        t = rand_tensor(f, (3, 3, 3), rng)
        if not t.is_concise():
            continue
        wits = {}
        for d in (1, 2, 3):
            rd, cd = [x for x in (1, 2, 3) if x != d]
            _, wits[d] = max_rank_exhaustive(slice_span(t, rd, cd))
        for i, j in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]:
            cert = two_direction_square(t, i, j, wits[i], wits[j])
            assert cert.verify(t)
        done += 1


def test_two_direction_square_from_staircase():
    t = rand_tensor(GF(11), (4, 4, 4), random.Random(23))
    while not t.is_concise():
        t = rand_tensor(GF(11), (4, 4, 4), random.Random(24))
    st = staircase(t, seed=5)
    w3 = MaxRankWitness(st.coeffs3, st.witness_maxrank3[1])
    w2 = MaxRankWitness(st.coeffs2, st.witness_maxrank2[1])
    cert = two_direction_square(t, 3, 2, w3, w2)
    assert cert.verify(t)


def test_matmul_form_entry_points_refuse_bad_directions_and_witnesses(monkeypatch):
    """On null_algebra 3 over GF(5): a direction outside 1-3 is a
    BadParamsError, and a witness whose coefficient count is not the slice
    count of its direction a WitnessInvalidError, both before any form is
    built."""
    t = null_algebra(GF(5), 3)
    _, wit = max_rank_exhaustive(slice_span(t, 2, 3))
    short = MaxRankWitness((1,), 1)
    built = []
    monkeypatch.setattr(engine, "_matmul_form", lambda *args: built.append(args))
    with pytest.raises(BadParamsError, match="^direction 4 is not 1, 2 or 3$"):
        two_direction_square(t, 1, 4, wit, wit)
    for d in (0, 4):
        with pytest.raises(BadParamsError, match=f"^direction {d} is not 1, 2 or 3$"):
            matmul_form_restriction(t, d, wit)
    bad_count = "^witness has 1 coefficients for 3 slices$"
    with pytest.raises(WitnessInvalidError, match=bad_count):
        matmul_form_restriction(t, 1, short)
    with pytest.raises(WitnessInvalidError, match=bad_count):
        two_direction_square(t, 2, 1, wit, short)
    assert built == []


def test_mamu_cube_unit():
    t = unit(GF(5), 2)
    wits = []
    for d in (1, 2, 3):
        rd, cd = [x for x in (1, 2, 3) if x != d]
        _, w = max_rank_exhaustive(slice_span(t, rd, cd))
        wits.append(w)
    restr, bound = mamu_cube(t, *wits)
    assert bound == 4
    assert verify_restriction(restr, t.kron_power(3), matmul_tensor(GF(5), 2, 2, 2))


def test_mamu_cube_cube_root_bound():
    """The cube composition certifies base >= min dimension for concise
    tensors over large enough fields."""
    rng = random.Random(29)
    f = GF(11)
    done = 0
    while done < 5:
        t = rand_tensor(f, (2, 3, 3), rng)
        if not t.is_concise():
            continue
        wits = {}
        for d in (1, 2, 3):
            rd, cd = [x for x in (1, 2, 3) if x != d]
            _, wits[d] = max_rank_exhaustive(slice_span(t, rd, cd))
        _, bound = mamu_cube(t, wits[1], wits[2], wits[3])
        assert bound >= min(t.dims)
        done += 1


# -- narrow pipeline and threshold ---------------------------------------------------


def test_compute_n_threshold():
    assert compute_n_threshold(2) == 3072
    assert compute_n_threshold(3) < compute_n_threshold(4)
    vals = [compute_n_threshold(c) for c in (2, 3, 4, 5)]
    assert vals == sorted(vals) and len(set(vals)) == len(vals)
    with pytest.raises(BadParamsError):
        compute_n_threshold(1)


def test_narrow_certificate_c1():
    f = GF(5)
    t = Tensor3(f, (2, 2, 1), {(0, 1, 0): 3, (1, 0, 0): 1})
    assert t.is_concise()
    cert = narrow_certificate(t, 3)
    assert cert.r == 1 and cert.power == 3
    assert cert.verify(t)


_NARROW_C1_POWER_40 = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
from tenrank.engine import narrow_certificate
from tenrank.fields import GF
from tenrank.tensor import Tensor3
t = Tensor3(GF(5), (2, 2, 1), {(0, 1, 0): 3, (1, 0, 0): 1})
try:
    narrow_certificate(t, 40)
except Exception as exc:
    print(type(exc).__name__, exc)
"""


def test_narrow_certificate_c1_refuses_a_large_power_at_once():
    """4^40 dense entries are past the guard: the c = 1 branch must refuse
    before it builds 39 Kronecker products of its maps.  It runs in its own
    process under a 1.5 GB address-space limit, so that building them ends in
    MemoryError or the timeout instead of filling the memory."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tenrank.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _NARROW_C1_POWER_40],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ResourceGuardError kronecker product would have")


def test_narrow_certificate_guards():
    rng = random.Random(31)
    t = rand_tensor(GF(3), (3, 3, 2), rng)
    while not t.is_concise():
        t = rand_tensor(GF(3), (3, 3, 2), rng)
    with pytest.raises(BelowThresholdError):
        narrow_certificate(t, 16)
    ent = {(i, i, 0): 1 for i in range(5)}
    ent.update({(i, (i + 1) % 5, 1): 1 for i in range(5)})
    wide = Tensor3(GF(3), (5, 5, 2), ent)
    # below threshold even though concise; threshold error comes first
    if wide.is_concise():
        with pytest.raises(BelowThresholdError):
            narrow_certificate(wide, 16)



# sha256 of `_narrow_inner_outcomes()`, recorded before the composition's
# Kronecker maps moved onto `matrix._kron_rows`
NARROW_INNER_SHA256 = "1dd8b15ea878c7cfbbcf8091b2ff9f30f976ed7ca69750e7a9949b1b209aef3e"


def _narrow_inner_outcomes():
    """The narrow composition on criterion 10's (8, 8, 2)/GF(7) tensors, a
    permutation plus the diagonal: no input to `narrow_certificate` reaches
    it below the entry guard, so it is called directly.  One line per tensor
    and (m, l): the certificate's size, power, check and maps, or the refusal."""
    rng = random.Random(1010)
    out = []
    for k in range(6):
        perm = list(range(8))
        rng.shuffle(perm)
        ent = {(i, i, 0): 1 for i in range(8)}
        for i in range(8):
            ent[(i, perm[i], 1)] = ent.get((i, perm[i], 1), 0) + rng.randrange(1, 7)
        t = Tensor3(GF(7), (8, 8, 2), ent)
        for m, ell in ((2, 1), (2, 2)):
            try:
                cert = _narrow_certificate_inner(t, m, ell)
            except VerificationFailedError as exc:
                out.append((k, m, ell, "refused", str(exc)))
                continue
            maps = "|".join(";".join(" ".join(map(repr, row)) for row in x.data) for x in cert.restriction.maps)
            out.append((k, m, ell, cert.r, cert.power, cert.verify(t), maps))
    return out


def test_narrow_composition_is_pinned():
    out = _narrow_inner_outcomes()
    for k, m, ell, *rest in out:
        if ell == 1:
            assert rest[0] in (3, 4) and rest[1:3] == [2, True]
        else:
            assert rest[:3] == [4, 2, True] or rest == ["refused", "|Y| = 1 below 2"]
    assert {k for k, m, ell, r, *_ in out if ell == 2 and r == 4} == {5}
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == NARROW_INNER_SHA256


# -- bounds aggregation ---------------------------------------------------------------


def test_bounds_unit_tensor():
    rep = asymptotic_bounds(unit(GF(5), 3))
    assert rep.asymptotic_upper == 3
    assert rep.asymptotic_lower.base == 3 and rep.asymptotic_lower.root == 1
    rep2 = asymptotic_bounds(unit(GF(2), 3))
    assert rep2.subrank == 3  # packed-search oracle is feasible over GF(2)
    assert rep2.asymptotic_lower.base == 3 and rep2.asymptotic_lower.root == 1


def test_bounds_null_algebra():
    rep = asymptotic_bounds(null_algebra(GF(11), 5))
    # cube-root floor: lower >= 5^(1/3)
    b = rep.asymptotic_lower
    assert b.base ** 1 >= Fraction(5) ** b.root or b.base**3 >= 5**b.root
    assert (float(b.base)) ** (1 / b.root) >= 5 ** (1 / 3) - 1e-9
    assert rep.asymptotic_upper == 5


def test_bounds_builds_each_slice_span_once(monkeypatch):
    """The max-rank search and the matmul-form restriction of a direction
    read one slice span, built once."""
    built = []

    def counted(t, row_dir, col_dir):
        built.append((row_dir, col_dir))
        return slice_span(t, row_dir, col_dir)

    monkeypatch.setattr(engine, "slice_span", counted)
    t = null_algebra(GF(11), 5)
    rep = asymptotic_bounds(t)
    assert sorted(built) == [(1, 2), (1, 3), (2, 3)]
    monkeypatch.undo()
    assert rep.to_kv() == asymptotic_bounds(t).to_kv()


def test_bounds_symmetric_sqrt_path():
    rng = random.Random(37)
    f = GF(7)
    while True:
        vals = {}
        ent = {}
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    key = tuple(sorted((i, j, k)))
                    if key not in vals:
                        vals[key] = rng.randrange(7)
                    if vals[key]:
                        ent[(i, j, k)] = vals[key]
        t = Tensor3(f, (4, 4, 4), ent)
        if t.is_concise():
            break
    rep = asymptotic_bounds(t)
    b = rep.asymptotic_lower
    assert float(b.base) ** (1 / b.root) >= 2.0 - 1e-9  # sqrt(4)


def test_bounds_lower_never_exceeds_upper():
    rng = random.Random(41)
    f = GF(7)
    for _ in range(10):
        dims = tuple(rng.choice([2, 3]) for _ in range(3))
        t = rand_tensor(f, dims, rng)
        rep = asymptotic_bounds(t)
        if rep.asymptotic_lower is None or t.is_zero():
            continue
        b = rep.asymptotic_lower
        assert Fraction(rep.asymptotic_upper) ** b.root >= b.base


def test_bounds_report_formats():
    rep = asymptotic_bounds(w_tensor(GF(2)))
    text = rep.to_text()
    kv = rep.to_kv()
    assert "subrank = 1" in text
    assert "slicerank=2" in kv
    assert rep.q_values[1][0] == 2  # the off-diagonal slice pair has rank 2


def _seeded_tensor(field, dims, seed):
    return rand_tensor(field, dims, random.Random(seed))


# tensor, whether the subrank and slice-rank oracles run, and the sha256 of
# to_kv and to_text, recorded before `bounds` asked the oracles themselves
# whether a search fits its guard (BOUNDS_ORACLE_GUARD 60,000 map pairs at
# r = min(dims), BOUNDS_SLICERANK_GUARD 300,000 subspace pairs); q_2x2x2's
# to_text was re-recorded when its skip lines came to name the field instead
# of the guard
BOUNDS_AT_THE_GUARDS = {
    # 29,952 map pairs: the subrank oracle runs
    "gf3_2x2x3": (lambda: _seeded_tensor(GF(3), (2, 2, 3), 1), True, True,
                  "f6da674bee5ca5dbed00b3007f474310767194c020d4c984ad917f516b08b29e",
                  "06431d6838bcf195926347da0d046b32b2da25075be6a1b046ffaff04e31de12"),
    # 389,376 map pairs: skipped
    "gf3_2x3x3": (lambda: _seeded_tensor(GF(3), (2, 3, 3), 2), False, True,
                  "28af1aac51d4aef87e5a94e98460a2090abb1a47f480df1bb61c3488afb12517",
                  "69974c3c3d88dafbfad98c3f6d2c387e743f1dc679efb58e39469b6a7c51a55e"),
    # 195,300 map pairs, but the packed GF(2) search checks no guard
    "gf2_2x4x5": (lambda: _seeded_tensor(GF(2), (2, 4, 5), 3), True, True,
                  "093e224b1a498f95af107e485293438d8608118081215818205d2cac9c898894",
                  "65b1240beced8931542776e2a43da904d5d1e7264c8699ec619d2b75c5c646b8"),
    # no finite field: both oracles skipped
    "q_2x2x2": (lambda: Tensor3(QQ, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): Fraction(1, 2),
                                                (1, 0, 1): -3, (1, 1, 0): 2}), False, False,
                "85bdd9a7fee5aef3e67a57f8e7536f25abecf8d5e2a9472e515189067cb7e30e",
                "27d34a9ca1645de258140fdb849164710bf9c4cb2b27ec9736fde6d9f5a64135"),
    # 71,680 subspace pairs: slice rank runs
    "gf5_4x3x2": (lambda: _seeded_tensor(GF(5), (4, 3, 2), 5), False, True,
                  "f90573a13024910b44b1156a0d94c0656a43adc3c2f1c8963a3ce691aa8b5230",
                  "e44c3a882a2f2237c9f5a089af9d96d21fcb9d5bc3e1adf1ec989ebdec1e0034"),
    # 423,632 subspace pairs: skipped
    "gf7_4x3x2": (lambda: _seeded_tensor(GF(7), (4, 3, 2), 7), False, False,
                  "e506d9e2c145ee487e95a907a166d0555eb72a9d80d759aa7e5f14da6f17dbf4",
                  "122cdbde65a74e8f924be90a9ee913706f9a2f2dad909b05d9befec55b07bb30"),
}


@pytest.mark.parametrize("name", sorted(BOUNDS_AT_THE_GUARDS))
def test_bounds_reports_on_each_side_of_the_oracle_guards(name):
    make, subrank_runs, slicerank_runs, kv_sha, text_sha = BOUNDS_AT_THE_GUARDS[name]
    rep = asymptotic_bounds(make())
    assert (rep.subrank is not None) == subrank_runs
    assert (rep.slicerank is not None) == slicerank_runs
    assert hashlib.sha256(rep.to_kv().encode()).hexdigest() == kv_sha
    assert hashlib.sha256(rep.to_text().encode()).hexdigest() == text_sha


def _composition_catalog(f):
    return [null_algebra(f, 4), unit(f, 4), w_tensor(f), matmul_tensor(f, 2, 2, 2),
            balanced_pivot(f, 4), gen_null_algebra(f, 6, 2)]


def _seeded_concise(f, count, seed):
    """`count` random concise tensors over f, tensor s drawn from seed + s
    in one of four small formats."""
    out = []
    for s in range(count):
        rng = random.Random(seed + s)
        dims = [(2, 2, 3), (2, 3, 3), (3, 3, 2), (3, 2, 3)][s % 4]
        t = rand_tensor(f, dims, rng)
        while not t.is_concise():
            t = rand_tensor(f, dims, rng)
        out.append(t)
    return out


def _exhaustive_witnesses(t):
    wits = {}
    for d in (1, 2, 3):
        rd, cd = [x for x in (1, 2, 3) if x != d]
        _, wits[d] = max_rank_exhaustive(slice_span(t, rd, cd))
    return wits


def _best_pair(wits):
    return max([(1, 2), (1, 3), (2, 3)], key=lambda p: min(wits[p[0]].rank, wits[p[1]].rank))


def _candidate(rep, method):
    (b,) = [b for b in rep.lower_candidates if b.method == method]
    return b


def test_compositions_verify_on_catalog_entries():
    """Square and cube compositions yield exactly verifying unit/matmul
    restrictions on the catalog tensors and on random concise GF(11)
    tensors, and the cube's base is the `literature` cube candidate that
    `bounds` reports without composing the cube."""
    f = GF(11)
    for t in _composition_catalog(f) + _seeded_concise(f, 6, 1101):
        wits = _exhaustive_witnesses(t)
        best = _best_pair(wits)
        cert = two_direction_square(t, best[0], best[1], wits[best[0]], wits[best[1]])
        assert cert.verify(t)
        restr, bound = mamu_cube(t, wits[1], wits[2], wits[3])
        q1, q2, q3 = (wits[d].rank for d in (1, 2, 3))
        assert verify_restriction(restr, t, matmul_tensor(f, q2, q3, q1), power=3)
        cube = _candidate(asymptotic_bounds(t), "matmul restriction on the Kronecker cube")
        assert (cube.base, cube.root, cube.provenance) == (bound, 3, "literature")


def test_bounds_routes_the_power_guard_to_each_composition():
    """unit 7 has 343 entries: its square (343^2) fits the Kronecker entry
    guard and its cube (343^3) does not, so `bounds` reports the square
    certificate and skips only the cube composition."""
    t = unit(GF(11), 7)
    rep = asymptotic_bounds(t)
    square = _candidate(rep, "diagonal extraction on the Kronecker square")
    assert (square.base, square.root, square.provenance) == (7, 2, "certificate")
    assert square.certificate.verify(t)
    assert not [b for b in rep.lower_candidates if b.method == "matmul restriction on the Kronecker cube"]
    assert rep.skipped == [
        "exact subrank oracle: search space above guard",
        "exact slice rank oracle: search space above guard",
        "cube composition: kronecker product would have 40353607 entries (guard 16777216)",
    ]


@pytest.mark.parametrize("bad, square_skipped", [(3, False), (1, True)])
def test_bounds_routes_an_invalid_witness_to_the_compositions_using_it(monkeypatch, bad, square_skipped):
    """A witness claiming a rank above its matrix's fails its matmul form:
    the cube, which uses all three directions, is skipped, and the square
    only when the direction is in its pair ((1, 2) on unit 3)."""
    exhaustive = engine.max_rank_exhaustive
    calls = []

    def claims_one_more(span, **kw):
        calls.append(None)
        v, wit = exhaustive(span, **kw)
        return v, (MaxRankWitness(wit.coeffs, v + 1) if len(calls) == bad else wit)

    monkeypatch.setattr(engine, "max_rank_exhaustive", claims_one_more)
    rep = asymptotic_bounds(unit(GF(5), 3))
    line = "witness rank 3 below requested 4"
    assert [s for s in rep.skipped if "composition" in s] == (
        [f"square composition: {line}"] * square_skipped + [f"cube composition: {line}"])


def test_rank_r_matmul_forms_are_rows_of_the_full_rank_form():
    """The rank-r matmul form in direction d is the full-rank form with rows
    < r kept on its two legs other than d, for every 1 <= r <= Q_d; and the
    square certificate `bounds` takes from the full-rank forms is the one
    `two_direction_square` builds at rank r."""
    tensors = (_composition_catalog(GF(11)) + _composition_catalog(GF(3))
               + _seeded_concise(GF(3), 4, 1201) + _seeded_concise(GF(11), 4, 1301))
    for t in tensors:
        wits = _exhaustive_witnesses(t)
        for d in (1, 2, 3):
            full = matmul_form_restriction(t, d, wits[d])
            for r in range(1, wits[d].rank + 1):
                cut = tuple(m if leg == d else Matrix(t.field, m.data[:r], cols=m.cols)
                            for leg, m in zip((1, 2, 3), full.maps))
                assert cut == matmul_form_restriction(t, d, wits[d], r).maps
        i, j = _best_pair(wits)
        square = _candidate(asymptotic_bounds(t), "diagonal extraction on the Kronecker square")
        want = two_direction_square(t, i, j, wits[i], wits[j])
        assert square.certificate.r == want.r
        assert square.certificate.restriction.maps == want.restriction.maps
