import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenrank import _gf2, engine
from tenrank.cli import _scan_one, _tensor_from_index
from tenrank.engine import slicerank_exact, subrank_exact
from tenrank.errors import BadParamsError, IndexOutOfRangeError, ResourceGuardError, TenrankError, ZeroSpanError
from tenrank.fields import GF, QQ
from tenrank.matrix import Matrix
from tenrank.spans import slice_span
from tenrank.tensor import (
    Restriction,
    Tensor3,
    apply_restriction,
    balanced_pivot,
    catalog,
    check_concise_format,
    concise_reduce,
    gen_null_algebra,
    matmul_tensor,
    null_algebra,
    unit,
    verify_restriction,
    w_tensor,
)


def rand_tensor(field, dims, rng):
    p = field.size()
    n1, n2, n3 = dims
    return Tensor3(field, dims, [rng.randrange(p) for _ in range(n1 * n2 * n3)])


def test_unit_slices():
    t = unit(GF(5), 2)
    s = t.slice(1, 0)
    assert s == Matrix.from_entries(GF(5), 2, 2, {(0, 0): 1})


def test_w_tensor_three_slices():
    t = w_tensor(GF(3))
    s0 = t.slice(3, 0)
    s1 = t.slice(3, 1)
    assert s0 == Matrix(GF(3), [[0, 0], [0, 1]])
    assert s1 == Matrix(GF(3), [[0, 1], [1, 0]])


def test_null_algebra_structure():
    t = null_algebra(GF(7), 4)
    assert t.dims == (4, 4, 4)
    assert len(t.support()) == 7
    # middle-direction slices confined to first row and column
    for j in range(4):
        s = t.slice(2, j)
        for a in range(1, 4):
            for b in range(1, 4):
                assert s[a, b] == 0
    # first 1-slice and first 3-slice are the identity
    assert t.slice(1, 0) == Matrix.identity(GF(7), 4)
    assert t.slice(3, 0) == Matrix.identity(GF(7), 4)


def test_flattening_ranks():
    assert unit(GF(2), 3).flattening_ranks() == (3, 3, 3)
    assert matmul_tensor(GF(7), 2, 2, 2).flattening_ranks() == (4, 4, 4)
    assert w_tensor(GF(2)).flattening_ranks() == (2, 2, 2)


def _generic_ranks(t):
    return tuple(t.flattening_rank(d) for d in (1, 2, 3))


def test_packed_gf2_flattening_ranks_on_all_223_words():
    """Over GF(2) flattening_ranks and is_concise run on the packed word; they
    agree with the generic ranks on every 2x2x3 tensor."""
    seen = set()
    for word in range(1 << 12):
        t = Tensor3(GF(2), (2, 2, 3), [(word >> b) & 1 for b in range(12)])
        ranks = _generic_ranks(t)
        assert t.flattening_ranks() == ranks
        assert t.is_concise() == (ranks == t.dims)
        seen.add(ranks)
    assert (2, 2, 2) in seen and (0, 0, 0) in seen


@st.composite
def gf2_tensors(draw):
    dims = tuple(draw(st.integers(0, 4)) for _ in range(3))
    n = dims[0] * dims[1] * dims[2]
    return Tensor3(GF(2), dims, draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))


@st.composite
def sparse_gf2_tensors(draw):
    """A GF(2) tensor with one leg of up to 40, the others up to 4, and one
    to six nonzero entries: rows and fibres wider than any scan format's."""
    dims = [draw(st.integers(1, 4)) for _ in range(3)]
    dims[draw(st.integers(0, 2))] = draw(st.integers(1, 40))
    support = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in dims)), min_size=1, max_size=6, unique=True))
    return Tensor3(GF(2), tuple(dims), {idx: 1 for idx in support})


@settings(max_examples=400, deadline=None)
@given(st.one_of(gf2_tensors(), sparse_gf2_tensors()))
def test_packed_gf2_flattening_ranks_match_generic(t):
    ranks = _generic_ranks(t)
    assert t.flattening_ranks() == ranks
    assert t.is_concise() == (ranks == t.dims)


def test_flattening_ranks_kept_outside_equality_and_hash():
    t, u = (Tensor3(GF(3), (2, 2, 2), [1, 0, 0, 2, 0, 1, 1, 0]) for _ in range(2))
    assert t.flattening_ranks() == (2, 2, 2)
    assert t == u and hash(t) == hash(u)
    assert u.flattening_ranks() == t.flattening_ranks()


def test_scan_item_computes_each_flattening_rank_once(monkeypatch):
    """The scan's tally and the slice-rank oracle share one computation of
    the flattening ranks per tensor."""
    calls = []
    generic = Tensor3.flattening_rank

    def counted(self, direction):
        calls.append(direction)
        return generic(self, direction)

    monkeypatch.setattr(Tensor3, "flattening_rank", counted)
    dims = (2, 2, 2)
    for word in (1, 5, 1234, 3**8 - 1):
        calls.clear()
        q_val, sr_val, ranks, concise = _scan_one(word, dims, GF(3))
        assert sorted(calls) == [1, 2, 3]
        t = _tensor_from_index(word, dims, GF(3))
        assert (sr_val, ranks) == (slicerank_exact(t), _generic_ranks(t))


def test_scan_decoding_of_gf2_words_is_the_packed_one():
    """`_tensor_from_index` reads a GF(2) index bit by bit, as the packed
    word is unpacked, so a GF(2) scan item can run on its index as the
    packed word (`engine.word_oracles`) and the generic path decodes the
    same tensor."""
    dims = (2, 2, 3)
    for word in range(1 << 12):
        entries = _tensor_from_index(word, dims, GF(2)).entries
        assert entries == _gf2.unpack_entries(word, dims)
        assert all(type(x) is int for x in entries)


def _generic_scan_key(word, dims, field):
    """A scan item's key through `Tensor3` and the two oracles: the path
    `_scan_one` takes for GF(3) and outside the packed condition."""
    t = _tensor_from_index(word, dims, field)
    ranks = t.flattening_ranks()
    return subrank_exact(t)[0], slicerank_exact(t), ranks, ranks == dims


def _outcome(fn, *args):
    """fn's result, or the class and message of the library error it raises."""
    try:
        return fn(*args)
    except TenrankError as exc:
        return type(exc), str(exc)


# (format, scan indices, whether the packed search takes the format)
_SCAN_CASES = [
    ((2, 2, 2), range(1 << 8), True),
    ((2, 2, 3), range(1 << 12), True),
    ((1, 2, 3), range(1 << 6), True),
    ((3, 2, 2), range(1 << 12), True),
    ((3, 3, 2), range(0, 1 << 18, 97), True),
    ((2, 3, 3), range(0, 1 << 18, 97), True),
    ((3, 2, 3), range(0, 1 << 18, 97), True),
    ((0, 0, 0), [0], True),
    ((2, 0, 3), [0], True),
    ((1, 1, 1), [0, 1], True),
    ((16, 1, 1), [0, 1, 0xBEEF], True),  # the slice-rank guard refuses the nonzero words
    ((1, 13, 1), [0, 1, 0x1A2B, (1 << 13) - 1], False),
    ((17, 1, 1), [0, 1, 0x1BEEF], False),
]


@pytest.mark.parametrize("dims, words, packed", _SCAN_CASES, ids=["x".join(map(str, c[0])) for c in _SCAN_CASES])
def test_scan_word_path_equals_the_generic_path(dims, words, packed):
    """A GF(2) scan item of a format the packed search takes runs on its
    word; its key, or its error's class and message, is the one the generic
    `Tensor3` path gives.  Formats outside the packed condition take the
    generic path."""
    f = GF(2)
    assert engine.packed_applies(f, dims, min(dims)) == packed
    for word in words:
        assert _outcome(_scan_one, word, dims, f) == _outcome(_generic_scan_key, word, dims, f), word


def test_scan_word_path_builds_no_tensor_or_matrix(monkeypatch):
    """A GF(2) 2x2x3 scan item, whose smallest flattening rank is at most 2,
    builds no Tensor3 and no Matrix.  3x3x3 has no lane table at r = 3, so
    its items take the `Tensor3` path, with `_generic_scan_key`'s key."""
    unit_word = _gf2.pack(unit(GF(2), 3).entries)
    built = []
    for cls in (Tensor3, Matrix):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
            built.append(_name)
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", counted)
    dims = (2, 2, 3)
    for word in range(1 << 12):
        assert min(_gf2.flattening_ranks(word, dims)) <= 2
        _scan_one(word, dims, GF(2))
    assert built == []
    assert not engine.packed_applies(GF(2), (3, 3, 3), 3)
    key = _scan_one(unit_word, (3, 3, 3), GF(2))
    assert built[0] == "Tensor3"
    assert key == _generic_scan_key(unit_word, (3, 3, 3), GF(2)) == (3, 3, (3, 3, 3), True)


# -- the strided slice reader against the per-direction bodies it replaced ------
#
# The ref_* functions keep the earlier per-direction code, with one change:
# their matrices pass cols=, so that a slice with no rows keeps its width.


def ref_slice(t, direction, index):
    n1, n2, n3 = t.dims
    e = t.entries
    if direction == 1:
        base = index * n2 * n3
        return Matrix(t.field, [e[base + j * n3: base + (j + 1) * n3] for j in range(n2)], cols=n3)
    if direction == 2:
        return Matrix(t.field, [
            e[(i * n2 + index) * n3: (i * n2 + index) * n3 + n3] for i in range(n1)
        ], cols=n3)
    return Matrix(t.field, [
        tuple(e[(i * n2 + j) * n3 + index] for j in range(n2)) for i in range(n1)
    ], cols=n2)


def ref_flattening(t, direction):
    n1, n2, n3 = t.dims
    e = t.entries
    if direction == 1:
        return Matrix(t.field, [e[i * n2 * n3: (i + 1) * n2 * n3] for i in range(n1)], cols=n2 * n3)
    if direction == 2:
        return Matrix(t.field, [
            tuple(e[(i * n2 + j) * n3 + k] for i in range(n1) for k in range(n3))
            for j in range(n2)
        ], cols=n1 * n3)
    return Matrix(t.field, [
        tuple(e[(i * n2 + j) * n3 + k] for i in range(n1) for j in range(n2))
        for k in range(n3)
    ], cols=n1 * n2)


def ref_slice_span(t, row_dir, col_dir):
    d = ({1, 2, 3} - {row_dir, col_dir}).pop()
    mats = [ref_slice(t, d, i) for i in range(t.dims[d - 1])]
    if row_dir > col_dir:
        mats = [m.transpose() for m in mats]
    return mats


def ref_is_symmetric(t):
    n1, n2, n3 = t.dims
    if not n1 == n2 == n3:
        return False
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                v = t[i, j, k]
                if v != t[i, k, j] or v != t[j, i, k] or v != t[j, k, i] or v != t[k, i, j] or v != t[k, j, i]:
                    return False
    return True


_READER_FIELDS = [GF(2), GF(7), QQ]
_ORIENTATIONS = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]


def _same(m, want):
    """Equal matrices (widths included) with entries of the same types."""
    types = lambda a: [type(x) for row in a.data for x in row]
    return m == want and types(m) == types(want)


@st.composite
def reader_tensors(draw):
    f = draw(st.sampled_from(_READER_FIELDS))
    dims = tuple(draw(st.integers(0, 4)) for _ in range(3))
    n = dims[0] * dims[1] * dims[2]
    values = st.fractions(-3, 3, max_denominator=3) if f is QQ else st.integers(0, f.size() - 1)
    return Tensor3(f, dims, draw(st.lists(values, min_size=n, max_size=n)), normalize=True)


@settings(max_examples=400, deadline=None)
@given(reader_tensors())
def test_slices_and_flattenings_match_the_per_direction_reads(t):
    for d in (1, 2, 3):
        got = t.slices(d)
        assert len(got) == t.dims[d - 1]
        for i, m in enumerate(got):
            assert _same(m, ref_slice(t, d, i))
        assert _same(t.flattening(d), ref_flattening(t, d))


@settings(max_examples=400, deadline=None)
@given(reader_tensors())
def test_slice_spans_match_the_transposed_slices(t):
    for o in _ORIENTATIONS:
        want = ref_slice_span(t, *o)
        if not want:
            with pytest.raises(ZeroSpanError):
                slice_span(t, *o)
            continue
        span = slice_span(t, *o)
        assert span.orientation == o and len(span.basis) == len(want)
        assert all(_same(m, w) for m, w in zip(span.basis, want))


@st.composite
def symmetric_tensors(draw):
    """A symmetric n x n x n tensor, and maybe the same with one entry changed."""
    f = draw(st.sampled_from(_READER_FIELDS))
    n = draw(st.integers(0, 4))
    value = st.integers(0, 1 if f is QQ else f.size() - 1)
    ent = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                v = draw(value)
                for key in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
                    ent[key] = v
    if n and draw(st.booleans()):
        key = tuple(draw(st.integers(0, n - 1)) for _ in range(3))
        ent[key] = draw(value)
    return Tensor3(f, (n, n, n), ent)


@settings(max_examples=500, deadline=None)
@given(symmetric_tensors())
def test_is_symmetric_matches_the_six_permutation_check(t):
    assert t.is_symmetric() == ref_is_symmetric(t)


@settings(max_examples=200, deadline=None)
@given(reader_tensors())
def test_is_symmetric_matches_on_any_tensor(t):
    assert t.is_symmetric() == ref_is_symmetric(t)


def test_zero_row_slices_and_flattenings_keep_their_width():
    t = Tensor3.zeros(GF(5), (2, 0, 3))
    assert t.slice(1, 0) == Matrix.zeros(GF(5), 0, 3)
    assert t.slices(3) == [Matrix.zeros(GF(5), 2, 0)] * 3
    assert t.flattening(2) == Matrix.zeros(GF(5), 0, 6)
    assert slice_span(t, 3, 2).basis == (Matrix.zeros(GF(5), 3, 0),) * 2


def test_getitem_refuses_indices_outside_the_dims():
    t = Tensor3(GF(5), (2, 2, 2), {(1, 0, 0): 3})
    assert t[1, 0, 0] == 3
    for ijk in [(0, 2, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (2, 0, 0), (0, 0, 2)]:
        with pytest.raises(IndexOutOfRangeError):
            t[ijk]


@pytest.mark.parametrize("direction", [0, 4])
def test_a_direction_outside_1_to_3_is_out_of_range(direction):
    t = unit(GF(3), 2)
    for read in (t.slices, t.flattening, lambda d: t.slice(d, 0)):
        with pytest.raises(IndexOutOfRangeError):
            read(direction)


def test_flattening_rank_is_slice_span_dim():
    rng = random.Random(5)
    f = GF(3)
    for _ in range(20):
        t = rand_tensor(f, (3, 2, 4), rng)
        for d in (1, 2, 3):
            vecs = [s.vectorize() for s in t.slices(d)]
            from tenrank.matrix import rank_of_rows

            assert t.flattening_rank(d) == rank_of_rows(f, vecs, len(vecs[0]))


def test_is_concise_and_reduce():
    f = QQ
    t = Tensor3(f, (2, 2, 2), {(0, 0, 0): 1})
    s, down, up = concise_reduce(t)
    assert s.dims == (1, 1, 1)
    assert verify_restriction(down, t, s)
    assert verify_restriction(up, s, t)

    t2 = unit(GF(5), 3)
    s2, down2, up2 = concise_reduce(t2)
    assert s2 == t2
    assert verify_restriction(down2, t2, s2)

    # 1-slices {A, 2A}: direction-1 flattening rank 1
    a = {(0, 0, 0): 1, (0, 1, 1): 1}
    ent = dict(a)
    ent.update({(1, 0, 0): 2, (1, 1, 1): 2})
    t3 = Tensor3(QQ, (2, 2, 2), {k: QQ.normalize(v) for k, v in ent.items()})
    s3, down3, up3 = concise_reduce(t3)
    assert s3.dims[0] == 1
    assert verify_restriction(down3, t3, s3)
    assert verify_restriction(up3, s3, t3)
    assert s3.is_concise()


def test_concise_reduce_zero():
    t = Tensor3.zeros(GF(2), (2, 3, 2))
    s, down, up = concise_reduce(t)
    assert s.dims == (0, 0, 0)
    assert verify_restriction(down, t, s)
    assert verify_restriction(up, s, t)


def test_concise_reduce_preserves_flattening_ranks():
    rng = random.Random(11)
    f = GF(3)
    for _ in range(30):
        t = rand_tensor(f, (3, 3, 2), rng)
        if t.is_zero():
            continue
        s, down, up = concise_reduce(t)
        assert s.is_concise()
        assert s.flattening_ranks() == t.flattening_ranks()
        assert verify_restriction(down, t, s)
        assert verify_restriction(up, s, t)


def test_apply_restriction_identity_and_projection():
    t = unit(GF(7), 3)
    r = Restriction.identity(GF(7), t.dims)
    assert apply_restriction(r, t) == t
    sel = Matrix.from_entries(GF(7), 2, 3, {(0, 0): 1, (1, 1): 1})
    proj = Restriction((sel, sel, sel))
    assert apply_restriction(proj, t) == unit(GF(7), 2)


def test_kron_units_and_power():
    assert unit(GF(5), 2).kron(unit(GF(5), 3)) == unit(GF(5), 6)
    w2 = w_tensor(GF(3)).kron_power(2)
    assert w2.dims == (4, 4, 4)


def test_kron_flattening_rank_multiplicative():
    rng = random.Random(23)
    f = GF(5)
    for _ in range(10):
        t = rand_tensor(f, (2, 3, 2), rng)
        s = rand_tensor(f, (2, 2, 3), rng)
        ts = t.kron(s)
        for d in (1, 2, 3):
            assert ts.flattening_rank(d) == t.flattening_rank(d) * s.flattening_rank(d)


def test_matmul_kron_multiplicative():
    f = GF(5)
    for a, b, c in [(1, 2, 2), (2, 1, 2), (2, 2, 2)]:
        for x, y, z in [(2, 2, 1), (1, 2, 2)]:
            prod = matmul_tensor(f, a, b, c).kron(matmul_tensor(f, x, y, z))
            target = matmul_tensor(f, a * x, b * y, c * z)
            assert prod.dims == target.dims
            # equal up to the canonical regrouping of row-major pair indices
            perm = _matmul_regroup(f, (a, b, c), (x, y, z))
            assert apply_restriction(perm, prod) == target


def _matmul_regroup(field, abc, xyz):
    a, b, c = abc
    x, y, z = xyz

    def leg(d1, d2, e1, e2):
        # kron index of ((i,j),(p,q)) -> target pair index (i*e1+p, j*e2+q)
        m = {}
        for i in range(d1):
            for j in range(d2):
                for p in range(e1):
                    for q in range(e2):
                        src = (i * d2 + j) * (e1 * e2) + (p * e2 + q)
                        dst = (i * e1 + p) * (d2 * e2) + (j * e2 + q)
                        m[(dst, src)] = field.one()
        return Matrix.from_entries(field, d1 * d2 * e1 * e2, d1 * d2 * e1 * e2, m)

    return Restriction((leg(a, b, x, y), leg(b, c, y, z), leg(c, a, z, x)))


def test_is_symmetric():
    assert unit(GF(3), 4).is_symmetric()
    assert w_tensor(GF(2)).is_symmetric()
    assert not matmul_tensor(GF(2), 2, 1, 1).is_symmetric()  # not cubical
    assert not null_algebra(GF(5), 4).is_symmetric()


def test_monotone_flattening_rank_under_restriction():
    rng = random.Random(3)
    f = GF(5)
    for _ in range(20):
        t = rand_tensor(f, (3, 3, 3), rng)
        maps = tuple(
            Matrix(f, [[rng.randrange(5) for _ in range(3)] for _ in range(2)])
            for _ in range(3)
        )
        r = Restriction(maps)
        s = apply_restriction(r, t)
        for d in (1, 2, 3):
            assert t.flattening_rank(d) >= s.flattening_rank(d)


def test_check_concise_format():
    assert check_concise_format(2, 2, 4)
    assert not check_concise_format(2, 2, 5)
    assert check_concise_format(1, 1, 1)


def test_catalog_dispatch_and_params():
    assert catalog(GF(2), "w_tensor") == w_tensor(GF(2))
    assert catalog(GF(3), "unit", 2) == unit(GF(3), 2)
    with pytest.raises(BadParamsError):
        catalog(GF(2), "nope")
    with pytest.raises(BadParamsError):
        catalog(GF(2), "gen_null_algebra", 7, 2)  # c must divide n
    with pytest.raises(BadParamsError):
        catalog(GF(2), "balanced_pivot", 5)  # not a square


def test_catalog_concise():
    f = GF(11)
    entries = [
        null_algebra(f, 3),
        null_algebra(f, 6),
        gen_null_algebra(f, 6, 2),
        gen_null_algebra(f, 6, 3),
        balanced_pivot(f, 4),
        balanced_pivot(f, 9),
        w_tensor(f),
        matmul_tensor(f, 2, 2, 2),
    ]
    for t in entries:
        assert t.is_concise(), t


def test_kron_guard():
    t = unit(GF(2), 200)
    with pytest.raises(ResourceGuardError):
        t.kron_power(4)


def test_balanced_pivot_unit_subtensor():
    f = GF(7)
    t = balanced_pivot(f, 9)
    sel = Matrix.from_entries(f, 3, 9, {(i, i): 1 for i in range(3)})
    r = Restriction((sel, sel, sel))
    assert apply_restriction(r, t) == unit(f, 3)


def test_catalog_entry_contract():
    """Expected invariant tables reproduce under the library's own
    operations (the regression contract for every catalog tensor)."""
    from tenrank.engine import slicerank_exact, subrank_exact
    from tenrank.spans import max_rank_exhaustive, slice_span
    from tenrank.tensor import catalog_entry

    def q(t, d):
        rd, cd = [x for x in (1, 2, 3) if x != d]
        return max_rank_exhaustive(slice_span(t, rd, cd))[0]

    cases = [
        ("unit", (3,), GF(2)),
        ("unit", (2,), GF(5)),
        ("matmul", (2, 2, 2), GF(3)),
        ("null_algebra", (4,), GF(11)),
        ("null_algebra", (5,), GF(11)),
        ("gen_null_algebra", (6, 2), GF(11)),
        ("balanced_pivot", (4,), GF(7)),
        ("w_tensor", (), GF(2)),
    ]
    for name, params, field in cases:
        t = catalog(field, name, *params)
        e = catalog_entry(name, *params)
        assert t.dims == e.dims
        assert t.flattening_ranks() == e.flattening_ranks
        for d, v in e.q_exact.items():
            assert q(t, d) == v, (name, params, d)
        for d, v in e.q_upper.items():
            assert q(t, d) <= v
        for d, v in e.q_lower.items():
            assert q(t, d) >= v
        if e.subrank is not None:
            assert subrank_exact(t)[0] == e.subrank
        if e.slicerank is not None:
            assert slicerank_exact(t) == e.slicerank


def test_matmul_nonzero_count():
    t = matmul_tensor(GF(3), 2, 2, 2)
    assert t.dims == (4, 4, 4)
    assert len(t.support()) == 8


def test_null_algebra_nonzero_count():
    assert len(null_algebra(GF(5), 4).support()) == 7
