import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenrank.engine import _units_in_span
from tenrank.errors import IndexOutOfRangeError, MixedFieldsError, ShapeMismatchError
from tenrank.fields import GF, QQ, PrimeField
from tenrank.matrix import Matrix, RrefResult, concat_cols, invert, rank, rref, solve


def rand_matrix(field, rows, cols, rng):
    p = field.size()
    return Matrix(field, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


def test_from_entries_keeps_cols_of_zero_rows():
    for f in (GF(5), QQ):
        m = Matrix.from_entries(f, 0, 2, {})
        assert (m.rows, m.cols) == (0, 2)
    assert Matrix.from_entries(GF(5), 2, 3, {(1, 2): 7}).data == ((0, 0, 0), (0, 0, 2))


def test_equality_and_hash_compare_cols():
    for f in (GF(5), QQ):
        empty = [Matrix.zeros(f, 0, cols) for cols in range(3)]
        assert len(set(empty)) == 3
        assert empty[0] != empty[2]
        same = Matrix.from_entries(f, 0, 2, {})
        assert same == empty[2] and hash(same) == hash(empty[2])


def test_rref_identity():
    m = Matrix.identity(GF(2), 3)
    res = rref(m)
    assert res.rank == 3
    assert res.rref == m
    assert res.pivot_cols == (0, 1, 2)


def test_rref_zero():
    m = Matrix.zeros(GF(5), 2, 4)
    res = rref(m)
    assert res.rank == 0
    assert res.pivot_cols == ()


def test_rank_proportional_rows_over_q():
    m = Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    assert rank(m) == 1


def test_rref_transform_reproduces_rref():
    rng = random.Random(7)
    for _ in range(50):
        f = GF(rng.choice([2, 3, 5, 7]))
        m = rand_matrix(f, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        res = rref(m)
        assert res.transform.mul(m) == res.rref
        assert rank(res.transform) == m.rows  # invertible
        assert len(res.pivot_cols) == res.rank == rank(m)
        # idempotence
        again = rref(res.rref)
        assert again.rref == res.rref


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for _ in range(50):
        f = GF(rng.choice([2, 3, 5]))
        m = rand_matrix(f, rng.randrange(1, 6), rng.randrange(1, 6), rng)
        assert rank(m) == rank(m.transpose())


def test_kron_identity():
    assert Matrix.identity(GF(5), 2).kron(Matrix.identity(GF(5), 3)) == Matrix.identity(GF(5), 6)


def test_kron_rank_multiplicative():
    rng = random.Random(3)
    f = GF(5)
    for _ in range(20):
        a = rand_matrix(f, 3, 3, rng)
        b = rand_matrix(f, 3, 3, rng)
        assert rank(a.kron(b)) == rank(a) * rank(b)


def test_kron_rotation_plus_identity_rank_two():
    j = Matrix(QQ, [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    jj = j.kron(j)
    s = jj.add(Matrix.identity(QQ, 4))
    assert rank(s) == 2


@st.composite
def kron_factors(draw):
    """Two matrices over one of GF(2), GF(7) and Q, with many zero entries,
    zero rows, and 0xN or Nx0 shapes."""
    f = draw(st.sampled_from([GF(2), GF(7), QQ]))
    elem = st.integers(-3, 3) if f == QQ else st.integers(0, f.p - 1)
    entry = st.one_of(st.just(0), st.just(0), elem)

    def matrix():
        rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        data = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
        data = [[0] * cols if draw(st.integers(0, 3)) == 0 else row for row in data]
        return Matrix(f, data, normalize=True, cols=cols)

    return matrix(), matrix()


@settings(max_examples=200, deadline=None)
@given(kron_factors())
def test_kron_matches_entrywise_definition(factors):
    a, b = factors
    f = a.field
    k = a.kron(b)
    assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
    want = [[f.mul(a.data[i // b.rows][j // b.cols], b.data[i % b.rows][j % b.cols])
             for j in range(k.cols)] for i in range(k.rows)]
    assert [list(row) for row in k.data] == want
    elem = Fraction if f == QQ else int
    assert all(type(v) is elem for row in k.data for v in row)


def test_concat_and_bounds():
    f = GF(3)
    a = Matrix.identity(f, 2)
    b = Matrix(f, [[1, 2, 0], [0, 1, 1]])
    c = concat_cols([a, b])
    assert (c.rows, c.cols) == (2, 5)
    rng = random.Random(5)
    for _ in range(30):
        x = rand_matrix(f, 3, 2, rng)
        y = rand_matrix(f, 3, 4, rng)
        rc = rank(concat_cols([x, y]))
        assert max(rank(x), rank(y)) <= rc <= rank(x) + rank(y)


def test_getitem_refuses_indices_outside_the_matrix():
    m = Matrix(GF(5), [[1, 2], [3, 4]])
    assert (m[0, 0], m[0, 1], m[1, 0], m[1, 1]) == (1, 2, 3, 4)
    for ij in [(-1, 0), (0, -1), (2, 0), (0, 2)]:
        with pytest.raises(IndexOutOfRangeError, match="out of range"):
            m[ij]
    with pytest.raises(IndexOutOfRangeError):
        Matrix.zeros(GF(5), 0, 3)[0, 0]


def test_submatrix_and_prefix():
    f = GF(7)
    m = Matrix.identity(f, 3)
    assert m.submatrix([0, 1], [0, 1]) == Matrix.identity(f, 2)
    p0 = m.submatrix(range(3), range(0))
    assert (p0.rows, p0.cols) == (3, 0)
    assert rank(p0) == 0


def test_mixed_fields_rejected():
    with pytest.raises(MixedFieldsError):
        Matrix.identity(GF(2), 2).kron(Matrix.identity(GF(3), 2))
    with pytest.raises(MixedFieldsError):
        concat_cols([Matrix.identity(GF(2), 2), Matrix.identity(GF(5), 2)])


def test_solve_and_invert():
    rng = random.Random(13)
    f = GF(7)
    for _ in range(30):
        m = rand_matrix(f, 3, 3, rng)
        b = [rng.randrange(7) for _ in range(3)]
        x = solve(m, b)
        if x is not None:
            got = m.mul(Matrix(f, [[v] for v in x]))
            assert [r[0] for r in got.data] == [v % 7 for v in b]
        if rank(m) == 3:
            assert x is not None
            assert invert(m).mul(m) == Matrix.identity(f, 3)


def test_shape_errors():
    f = GF(2)
    with pytest.raises(ShapeMismatchError):
        Matrix(f, [[1, 0], [1]])
    with pytest.raises(ShapeMismatchError):
        Matrix.identity(f, 2).mul(Matrix.identity(f, 3))


@pytest.mark.parametrize("op", ["add", "sub"])
def test_add_and_sub_refuse_mismatched_shapes(op):
    f = GF(5)
    a, b = Matrix(f, [[1, 2, 3], [4, 0, 1]]), Matrix(f, [[1, 1]])
    for x, y in ((a, b), (b, a), (a, a.transpose())):
        with pytest.raises(ShapeMismatchError):
            getattr(x, op)(y)
    assert a.sub(a) == Matrix.zeros(f, 2, 3)


@pytest.mark.parametrize("op", ["add", "sub", "scale"])
def test_arithmetic_keeps_the_width_of_zero_row_operands(op):
    for f in (GF(5), QQ):
        for cols in range(4):
            m = Matrix.zeros(f, 0, cols)
            out = m.scale(f.one()) if op == "scale" else getattr(m, op)(m)
            assert (out.rows, out.cols) == (0, cols)
            assert out == m


def test_batched_rank_matches_scalar():
    import numpy as np

    from tenrank._batch import batched_rank_mod_p, projective_array, projective_count

    rng = random.Random(17)
    for p in (2, 3, 5, 11):
        f = GF(p)
        mats = []
        expect = []
        for _ in range(40):
            m = rand_matrix(f, rng.randrange(1, 5), 4, rng)
            mats.append(m)
            expect.append(rank(m))
        for m, e in zip(mats, expect):
            got = batched_rank_mod_p(np.array([m.data], dtype=np.int64), p)
            assert got[0] == e
        arr = projective_array(p, 3)
        assert arr.shape == (projective_count(p, 3), 3)
        # leading nonzero of each row is 1
        for row in arr:
            nz = [x for x in row if x]
            assert nz and row[list(row != 0).index(True)] == 1


def _low_rank_matrix(field, rows, cols, r, rng):
    """A random rows x cols product of a rows x r and an r x cols factor."""
    return rand_matrix(field, rows, r, rng).mul(rand_matrix(field, r, cols, rng))


def test_batched_rank_at_largest_batch_prime():
    """p = 32749 is the largest prime below 2^15: residue products near p^2
    would show an int32 overflow as a wrong rank."""
    import numpy as np

    from tenrank._batch import MAX_BATCH_PRIME, batched_rank_mod_p

    p = 32749
    assert p < MAX_BATCH_PRIME
    f = GF(p)
    rng = random.Random(5)
    for rows, cols in ((1, 1), (2, 5), (4, 4), (5, 3), (6, 6)):
        mats = [_low_rank_matrix(f, rows, cols, rng.randrange(1, min(rows, cols) + 1), rng)
                for _ in range(30)]
        mats += [rand_matrix(f, rows, cols, rng) for _ in range(10)]
        mats += [Matrix.zeros(f, rows, cols), Matrix(f, [[p - 1] * cols for _ in range(rows)])]
        got = batched_rank_mod_p(np.array([m.data for m in mats], dtype=np.int64), p)
        assert got.tolist() == [rank(m) for m in mats]


@pytest.mark.parametrize("q", [2, 3, 11])
def test_projective_array_matches_generator(q):
    from tenrank._batch import projective_array, projective_vectors

    for d in range(6):
        assert projective_array(q, d).tolist() == [list(v) for v in projective_vectors(q, d)]


@pytest.mark.parametrize("q, dim", [(2, 0), (2, 1), (2, 9), (3, 7), (11, 6)])
def test_projective_chunks_list_every_vector_once(q, dim):
    """The blocks grow 64, 256, 1024, then stay at 4096 rows, and joined they
    are projective_vectors in order, each vector once."""
    from tenrank._batch import projective_chunks, projective_count, projective_vectors

    chunks = list(projective_chunks(q, dim))
    count = projective_count(q, dim)
    sizes = [len(c) for c in chunks]
    assert sum(sizes) == count and all(sizes)
    assert sizes[:-1] == [min(64 * 4**i, 4096) for i in range(len(sizes) - 1)]
    rows = [tuple(row) for c in chunks for row in c.tolist()]
    assert rows == list(projective_vectors(q, dim))
    assert len(set(rows)) == count


# -- the four row-reduction loops that `matrix._eliminate` replaced -------------


def ref_rank_mod_p(a: list, cols: int, p: int) -> int:
    r = 0
    rows_n = len(a)
    for c in range(cols):
        if r == rows_n:
            break
        sel = None
        for i in range(r, rows_n):
            if a[i][c] % p:
                sel = i
                break
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        pr = a[r]
        pivinv = pow(pr[c], p - 2, p)
        for i in range(r + 1, rows_n):
            factor = a[i][c]
            if factor % p:
                factor = factor * pivinv % p
                ai = a[i]
                for j in range(c, cols):
                    ai[j] = (ai[j] - factor * pr[j]) % p
        r += 1
    return r


def ref_rank_q(m: Matrix) -> int:
    a = [list(row) for row in m.data]
    r = 0
    rows_n = len(a)
    for c in range(m.cols):
        if r == rows_n:
            break
        sel = None
        for i in range(r, rows_n):
            if a[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        pr = a[r]
        pivinv = 1 / pr[c]
        for i in range(r + 1, rows_n):
            factor = a[i][c]
            if factor != 0:
                factor *= pivinv
                ai = a[i]
                for j in range(c, m.cols):
                    ai[j] -= factor * pr[j]
        r += 1
    return r


def ref_rref(m: Matrix) -> RrefResult:
    f = m.field
    a = [list(row) for row in m.data]
    t = [list(row) for row in Matrix.identity(f, m.rows).data]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        sel = None
        for i in range(r, m.rows):
            if not f.is_zero(a[i][c]):
                sel = i
                break
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        t[r], t[sel] = t[sel], t[r]
        inv = f.inv(a[r][c])
        if inv != f.one():
            a[r] = [f.mul(inv, x) for x in a[r]]
            t[r] = [f.mul(inv, x) for x in t[r]]
        for i in range(m.rows):
            if i != r:
                factor = a[i][c]
                if not f.is_zero(factor):
                    a[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[i], a[r])]
                    t[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(t[i], t[r])]
        pivots.append(c)
        r += 1
    return RrefResult(Matrix(f, a, cols=m.cols), Matrix(f, t), tuple(pivots), r)


def ref_solve(a: Matrix, b):
    f = a.field
    aug = Matrix(f, [list(row) + [bv] for row, bv in zip(a.data, b)])
    rr = ref_rref(aug)
    x = [f.zero()] * a.cols
    for r_i, c in enumerate(rr.pivot_cols):
        if c == a.cols:
            return None
        x[c] = rr.rref.data[r_i][a.cols]
    return x


def ref_units_in_span(vecs, r: int, p: int) -> bool:
    top = 0
    for c in range(r * r):
        sel = next((i for i in range(top, len(vecs)) if vecs[i][c]), None)
        if sel is None:
            continue
        vecs[top], vecs[sel] = vecs[sel], vecs[top]
        row = vecs[top]
        inv = pow(row[c], p - 2, p)
        row[:] = [x * inv % p for x in row]
        for i, other in enumerate(vecs):
            factor = other[c]
            if i != top and factor:
                other[:] = [(x - factor * y) % p for x, y in zip(other, row)]
        top += 1
    basis = {tuple(v) for v in vecs[:top]}
    return all(tuple(int(c == a * (r + 1)) for c in range(r * r)) in basis for a in range(r))


_DIFF_FIELDS = (GF(2), GF(3), GF(7), GF(32749), QQ)


@st.composite
def field_matrices(draw, max_dim=6):
    """(field, matrix, right-hand side): uniform, low-rank products and zero
    matrices of every shape up to max_dim x max_dim."""
    f = draw(st.sampled_from(_DIFF_FIELDS))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    if isinstance(f, PrimeField):
        elem = st.integers(0, f.p - 1)
    else:
        elem = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

    def block(r, c):
        return draw(st.lists(st.lists(elem, min_size=c, max_size=c), min_size=r, max_size=r))

    kind = draw(st.sampled_from(["uniform", "low rank", "zero"]))
    if kind == "zero":
        m = Matrix.zeros(f, rows, cols)
    elif kind == "low rank":
        k = draw(st.integers(0, min(rows, cols)))
        m = Matrix(f, block(rows, k), cols=k).mul(Matrix(f, block(k, cols), cols=cols))
    else:
        m = Matrix(f, block(rows, cols), cols=cols)
    if draw(st.booleans()):  # a consistent right-hand side
        b = m.mul(Matrix(f, block(cols, 1), cols=1)).col(0) if rows else ()
    else:
        b = tuple(block(1, rows)[0])
    return f, m, list(b)


@settings(max_examples=400, deadline=None)
@given(field_matrices())
def test_kernel_matches_reference_loops(case):
    f, m, b = case
    if isinstance(f, PrimeField):
        assert rank(m) == ref_rank_mod_p([list(row) for row in m.data], m.cols, f.p)
    else:
        assert rank(m) == ref_rank_q(m)
    got, want = rref(m), ref_rref(m)
    assert (got.rref, got.transform, got.pivot_cols, got.rank) == (
        want.rref, want.transform, want.pivot_cols, want.rank)
    assert solve(m, b) == ref_solve(m, b)


@st.composite
def span_vectors(draw):
    p = draw(st.sampled_from([2, 3, 7, 32749]))
    r = draw(st.integers(1, 3))
    n = draw(st.integers(0, 6))
    elem = st.integers(0, p - 1)
    vecs = draw(st.lists(st.lists(elem, min_size=r * r, max_size=r * r), min_size=n, max_size=n))
    if draw(st.booleans()):  # plant the unit vectors E_aa among mixed rows
        for a in range(min(r, n)):
            vecs[a] = [int(c == a * (r + 1)) for c in range(r * r)]
    return vecs, r, p


@settings(max_examples=400, deadline=None)
@given(span_vectors())
def test_units_in_span_matches_reference_loop(case):
    vecs, r, p = case
    got = [list(v) for v in vecs]
    want = [list(v) for v in vecs]
    assert _units_in_span(got, r, p) == ref_units_in_span(want, r, p)
    assert got == want  # both leave the same reduced echelon form


def test_q_results_are_fractions_for_int_entries():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    res = rref(m)
    assert res.rref == Matrix.identity(QQ, 2)
    assert res.transform == Matrix(QQ, [[Fraction(-2), Fraction(1)], [Fraction(3, 2), Fraction(-1, 2)]])
    entries = [x for mat in (res.rref, res.transform) for row in mat.data for x in row]
    entries += solve(m, [1, 1]) + list(invert(m).vectorize())
    assert all(type(x) is Fraction for x in entries)
    assert solve(m, [1, 1]) == [Fraction(-1), Fraction(1)]
    assert rank(Matrix(QQ, [[10**20, 1], [10**20 + 1, 1]])) == 2
