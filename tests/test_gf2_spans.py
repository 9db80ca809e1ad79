"""The GF(2) arms of the span searches run on bit rows.

`_enumerate_ranks` (max-rank and min-rank) and `_cover_walk` (minimal covers,
also inside `slicerank_exact`) take packed arms over GF(2).  The generic
bodies they replaced over GF(2) are kept here as `ref_enumerate_ranks`,
`ref_min_cover` and `ref_mincov_exhaustive`; values, witnesses, refusals
and their messages must come out the same.  The sha256 pins below were
recorded on the generic bodies, before the packed arms existed.
"""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tenrank.spans
from tenrank import _gf2
from tenrank.engine import slicerank_exact
from tenrank.errors import ResourceGuardError, TenrankError, ZeroSpanError
from tenrank.fields import GF
from tenrank.matrix import Matrix, _combination, _product, _rref_annihilator, rank, rank_of_rows
from tenrank.spans import (
    _BATCH_THRESHOLD,
    _enumerate_ranks,
    _enumerate_ranks_batched,
    _cover_walk,
    _reduce_rows,
    _term_rank,
    SliceSpan,
    combine,
    flanders_check,
    independent_basis,
    max_rank_exhaustive,
    min_rank_exhaustive,
    mincov_exhaustive,
    span_of,
    subspace_pair_count,
    subspaces,
    verify_cover,
)
from tenrank.tensor import Tensor3

F2 = GF(2)


def ref_enumerate_ranks(span, *, minimize, guard):
    """`spans._enumerate_ranks` before its GF(2) arm: reduced basis by
    `independent_basis`, term rank of `Matrix` data, every combination
    ranked by `matrix.rank`."""
    f = span.field
    mats, reduction = independent_basis(span)
    c = len(mats)
    if c == 0:
        if minimize:
            raise ZeroSpanError("min-rank of the zero span")
        return 0, tuple(f.zero() for _ in span.basis)
    q = f.p
    from tenrank._batch import MAX_BATCH_PRIME, projective_count, projective_vectors

    count = projective_count(q, c)
    if count > guard:
        raise ResourceGuardError(
            f"projective enumeration of {count} combinations exceeds guard {guard}"
        )
    red = SliceSpan(f, tuple(mats))
    stop = 1 if minimize else _term_rank(red)
    top = None if minimize or stop >= q else stop
    if top is not None:
        count = (top + 1) ** (c - 1)
    if count >= tenrank.spans._BATCH_THRESHOLD and q <= MAX_BATCH_PRIME:
        best, best_vec = _enumerate_ranks_batched(red, q, c, minimize, stop, top)
    else:
        best = None
        best_vec = None
        for vec in projective_vectors(q, c, top):
            r = rank(combine(red, vec))
            if best is None or (r < best if minimize else r > best):
                best, best_vec = r, vec
                if best == stop:
                    break
    (lifted,) = _combination(f, best_vec, [(row,) for row in reduction.data])
    return best, tuple(lifted)


def ref_min_cover(f, columns, n, m, bound, floor=0):
    """The cover walk before its GF(2) arm, returning V as a `Matrix`: V
    from `subspaces`, ann(V) from `_rref_annihilator`, ann(V) * M by
    `_product`, dim W by `rank_of_rows`."""
    q = f.p
    best = None
    for a in range(n + 1):
        if a >= bound:
            break
        for v in subspaces(f, n, a):
            ann = _rref_annihilator(f, v.data, n)
            w = [row for cols in columns for row in _product(ann, cols, q)]
            total = a + rank_of_rows(f, w, m)
            if total < bound:
                bound, best = total, (total, v, w)
                if total == a or total == floor:
                    return best
    return best


def ref_mincov_exhaustive(span, guard):
    """`spans.mincov_exhaustive` before its GF(2) arm, on `ref_min_cover`."""
    f = span.field
    n1, n2 = span.shape
    if all(m.is_zero() for m in span.basis):
        return 0, (Matrix.zeros(f, 0, n1), Matrix.zeros(f, 0, n2))
    total_pairs = subspace_pair_count(f.p, n1, n2)
    if total_pairs > guard:
        raise ResourceGuardError(
            f"subspace-pair enumeration of {total_pairs} pairs exceeds guard {guard}"
        )
    columns = [list(zip(*m.data)) for m in span.basis]
    floor = max(rank(m) for m in span.basis)
    best, v1, w = ref_min_cover(f, columns, n1, n2, n1 + n2 + 1, floor=floor)
    return best, (v1, Matrix(f, _reduce_rows(f, w, n2), cols=n2))


def outcome(fn, *args, **kwargs):
    """fn's result, or the class and message of the TenrankError it raises."""
    try:
        return fn(*args, **kwargs)
    except TenrankError as exc:
        return type(exc), str(exc)


def matrix_key(m):
    return m.rows, m.cols, m.data


# -- the sha256 pins ---------------------------------------------------------------


def criterion_6_spans(step):
    """Every step-th span of criterion 6's GF(2) range: the rref bases of the
    dimension 1 and 2 subspaces of GF(2)^9, each row a 3x3 matrix."""
    bases = itertools.islice((b for d in (1, 2) for b in subspaces(F2, 9, d)), 0, None, step)
    for b in bases:
        yield b, span_of(F2, [Matrix(F2, [row[i * 3:(i + 1) * 3] for i in range(3)], cols=3) for row in b.data])


def concise_3x3x3(count, seed):
    """The first `count` concise 3x3x3 GF(2) tensors drawn with this seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = Tensor3(F2, (3, 3, 3), [rng.randrange(2) for _ in range(27)])
        if t.is_concise():
            out.append(t)
    return out


# recorded on the generic bodies: 8,790 spans (every 5th of 43,946), and 200
# concise 3x3x3 tensors with seed 27
SPANS_EVERY_5TH_SHA256 = "fd9946e81e4307b487427e6fe6a167936913d9f721d5ccf6d239a802675fa1e5"
SLICERANK_3X3X3_SHA256 = "e1c79c79a17a1afc8b13923f22eaa57cffabc1b5878b9e01dac87445d709f68b"


def test_criterion_6_span_witnesses_are_pinned():
    """Value and witness of max-rank, min-rank and mincov, with (V1, V2), on
    every 5th span of criterion 6's GF(2) range hash to the recorded sha256.
    Each witness is also checked without the packed kernels: a max-rank or
    min-rank witness, rebuilt with `combine`, has its value as its generic
    `matrix.rank`, and the cover passes `verify_cover`."""
    h = hashlib.sha256()
    n = 0
    for b, sp in criterion_6_spans(5):
        mr, w1 = max_rank_exhaustive(sp)
        nr, w2 = min_rank_exhaustive(sp)
        mc, (v1, v2) = mincov_exhaustive(sp)
        h.update(f"{b.data} {mr} {w1.coeffs} {nr} {w2.coeffs} {mc} {v1.data} {v1.cols} {v2.data} {v2.cols}\n"
                 .encode())
        n += 1
        assert rank(combine(sp, w1.coeffs)) == mr == w1.rank
        assert rank(combine(sp, w2.coeffs)) == nr == w2.rank and nr > 0
        assert verify_cover(sp, v1, v2) and v1.rows + v2.rows == mc
    assert (n, h.hexdigest()) == (8790, SPANS_EVERY_5TH_SHA256)


def test_slicerank_of_concise_3x3x3_is_pinned():
    h = hashlib.sha256()
    for t in concise_3x3x3(200, 27):
        h.update(f"{t.entries} {slicerank_exact(t)}\n".encode())
    assert h.hexdigest() == SLICERANK_3X3X3_SHA256


# -- the differential test against the generic bodies ------------------------------


@st.composite
def gf2_spans(draw):
    """GF(2) spans of 0-4 rows, 0-5 columns and 1-4 generators; a generator
    may be zero or repeat an earlier one."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat"]))
        if kind == "zero" or (kind == "repeat" and not mats):
            bits = [0] * (rows * cols)
        elif kind == "repeat":
            mats.append(mats[draw(st.integers(0, len(mats) - 1))])
            continue
        else:
            bits = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
        mats.append(Matrix(F2, [bits[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols))
    return span_of(F2, mats)


_IDENTITY_AND_ITS_REPEAT = span_of(F2, [Matrix.identity(F2, 3)] * 2)
_WIDE = span_of(F2, [Matrix(F2, [[1, 0, 1, 1, 0], [0, 1, 1, 0, 1], [1, 1, 0, 0, 0], [0, 0, 0, 1, 1]]),
                     Matrix(F2, [[0, 1, 0, 0, 1], [1, 0, 0, 1, 1], [0, 1, 1, 1, 0], [1, 0, 1, 0, 0]]),
                     Matrix.zeros(F2, 4, 5)])


@settings(max_examples=300, deadline=None)
@given(gf2_spans(), st.integers(0, 16), st.integers(0, 12))
@example(span_of(F2, [Matrix(F2, [], cols=3)]), 0, 0)
@example(span_of(F2, [Matrix(F2, [[], []])]), 5, 5)
@example(span_of(F2, [Matrix.zeros(F2, 2, 3), Matrix.zeros(F2, 2, 3)]), 1, 1)
@example(_IDENTITY_AND_ITS_REPEAT, 0, 0)
@example(_WIDE, 7, 9)
def test_gf2_arms_match_the_generic_bodies(span, rank_guard, pair_guard):
    """Max-rank, min-rank and mincov on the GF(2) arms against the generic
    bodies, at the default guards and at small ones: the same values and
    witnesses, or the same error class and message (the zero span's
    ZeroSpanError, the guards' ResourceGuardError).  `_cover_walk` is also
    compared at every bound and floor, its bit rows read as matrix rows."""
    for minimize in (False, True):
        for guard in (tenrank.spans.PROJECTIVE_GUARD, rank_guard):
            got = outcome(_enumerate_ranks, span, minimize=minimize, guard=guard)
            assert got == outcome(ref_enumerate_ranks, span, minimize=minimize, guard=guard)
            if isinstance(got[0], int):
                assert all(type(x) is int for x in got[1])
                assert rank(combine(span, got[1])) == got[0]
    for guard in (tenrank.spans.SUBSPACE_PAIR_GUARD, pair_guard * 100):
        got = outcome(mincov_exhaustive, span, guard=guard)
        want = outcome(ref_mincov_exhaustive, span, guard)
        if isinstance(got[0], int):
            (v1, v2), (w1, w2) = got[1], want[1]
            assert (got[0], matrix_key(v1), matrix_key(v2)) == (want[0], matrix_key(w1), matrix_key(w2))
            assert verify_cover(span, v1, v2)
        else:
            assert got == want
    n, m = span.shape
    columns = [list(zip(*mat.data)) for mat in span.basis]
    for bound in range(n + m + 2):
        for floor in (0, 1, 2, n + m + 1):
            got = _cover_walk(F2, columns, n, m, bound, floor)
            want = ref_min_cover(F2, columns, n, m, bound, floor=floor)
            if want is None:
                assert got is None
            else:
                v = Matrix(F2, [_gf2.bit_row(x, n) for x in got[1]], cols=n)
                w = [list(_gf2.bit_row(y, m)) for y in got[2]]
                assert (got[0], matrix_key(v), w) == (want[0], matrix_key(want[1]), want[2])


def test_batched_arm_over_gf2_keeps_its_witnesses(monkeypatch):
    """Over GF(2) only min-rank searches of 256 or more combinations take the
    batched arm, fed from the bit rows; max-rank always runs the packed loop.
    On random 4x4 spans of 1-10 and of 9-12 generators, at the default
    threshold, at 0 (every min-rank search batched) and above every count
    (none), each search returns one value and witness, the generic body's,
    whose batched arm takes max-rank searches too."""
    rng = random.Random(27)
    cases = [span_of(F2, [Matrix(F2, [[rng.randrange(2) for _ in range(4)] for _ in range(4)])
                          for _ in range(rng.randrange(*sizes))]) for sizes in ((1, 11), (9, 13)) for _ in range(40)]
    batched = []
    full = tenrank.spans._enumerate_ranks_batched
    monkeypatch.setattr(tenrank.spans, "_enumerate_ranks_batched", lambda *a: batched.append(a[3]) or full(*a))
    results = {}
    for threshold in (_BATCH_THRESHOLD, 0, 10**9):
        monkeypatch.setattr(tenrank.spans, "_BATCH_THRESHOLD", threshold)
        for k, span in enumerate(cases):
            for minimize in (False, True):
                got = outcome(_enumerate_ranks, span, minimize=minimize, guard=10**7)
                assert got == results.setdefault((k, minimize), got)
                assert got == outcome(ref_enumerate_ranks, span, minimize=minimize, guard=10**7)
    assert True in batched and False not in batched


def test_subspace_layers_match_subspaces():
    """Every bit-row layer of GF(2)^n, n <= 5, lists `subspaces`' bases in
    order, each with the annihilator `_rref_annihilator` builds."""
    for n in range(6):
        for dim in range(n + 1):
            layer = tenrank.spans._bit_layer(n, dim)
            want = [(v, _rref_annihilator(F2, v.data, n)) for v in subspaces(F2, n, dim)]
            assert len(layer) == len(want)
            for (rows, ann), (v, ann_rows) in zip(layer, want):
                assert [_gf2.bit_row(r, n) for r in rows] == list(v.data)
                assert [_gf2.bit_row(r, n) for r in ann] == [tuple(r) for r in ann_rows]


def test_layer_tables_are_built_lazily():
    """No bit-row layer exists after import, and one search builds only the
    layers it reaches: the identity reaches its floor at V1 = 0."""
    code = (
        "from tenrank import spans\n"
        "from tenrank.fields import GF\n"
        "from tenrank.matrix import Matrix\n"
        "print(spans._bit_layer.cache_info().currsize)\n"
        "spans.mincov_exhaustive(spans.span_of(GF(2), [Matrix.identity(GF(2), 3)]))\n"
        "print(spans._bit_layer.cache_info().currsize)\n"
    )
    src = str(Path(tenrank.spans.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "1"]


def test_gf2_rref_is_the_reduced_echelon_form():
    """`gf2_rref` gives the rows `matrix._eliminate` reaches with the columns
    in bit order, zero rows dropped."""
    rng = random.Random(5)
    for _ in range(500):
        width = rng.randrange(0, 9)
        rows = [rng.randrange(1 << width) if width else 0 for _ in range(rng.randrange(0, 7))]
        want = _reduce_rows(F2, [_gf2.bit_row(r, width) for r in rows], width)
        assert [_gf2.bit_row(r, width) for r in _gf2.gf2_rref(rows)] == want


def test_mincov_runs_no_max_rank_search(monkeypatch):
    """flanders_check's two searches stay independent: mincov's floor comes
    from the generators' own ranks, and mincov calls no rank search."""
    def refuse(*args, **kwargs):
        raise AssertionError("mincov called the max-rank search")

    spans_ = [sp for _, sp in itertools.islice(criterion_6_spans(97), 100)]
    want = [mincov_exhaustive(sp) for sp in spans_]
    monkeypatch.setattr(tenrank.spans, "_enumerate_ranks", refuse)
    assert [mincov_exhaustive(sp) for sp in spans_] == want
    with pytest.raises(AssertionError, match="max-rank search"):
        flanders_check(spans_[0])
