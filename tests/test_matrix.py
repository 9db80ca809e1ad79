import random
from fractions import Fraction

import pytest

from tenrank.errors import MixedFieldsError, ShapeMismatchError
from tenrank.fields import GF, QQ
from tenrank.matrix import Matrix, concat_cols, invert, rank, rref, solve


def rand_matrix(field, rows, cols, rng):
    p = field.size()
    return Matrix(field, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


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


def test_submatrix_and_prefix():
    f = GF(7)
    m = Matrix.identity(f, 3)
    assert m.submatrix([0, 1], [0, 1]) == Matrix.identity(f, 2)
    p0 = m.col_prefix(0)
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
