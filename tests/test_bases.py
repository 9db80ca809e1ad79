"""One elimination per basis: `matrix.column_basis` and `matrix.solve_all`
against the one-vector-at-a-time loops they replaced, kept here as `ref_*`,
and counts of the eliminations the constructions now run."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tenrank import matrix, pivots
from tenrank.fields import GF, QQ, PrimeField
from tenrank.matrix import Matrix, _eliminate, _work_rows, column_basis, rank_of_rows, solve_all
from tenrank.spans import _pivots_per_block, basis_extension, independent_basis, span_of
from tenrank.tensor import Tensor3, concise_reduce

_FIELDS = (GF(2), GF(3), GF(7), QQ)


# -- the loops the single eliminations replaced ---------------------------------


def ref_solve(a: Matrix, b):
    """The scalar solve: one elimination of [a | b], pivots allowed in b."""
    f = a.field
    aug, p = _work_rows(f, a.data, [[bv] for bv in b])
    pivots_ = _eliminate(aug, a.cols + 1, p, True)
    if pivots_ and pivots_[-1] == a.cols:
        return None
    x = [f.zero()] * a.cols
    for row, c in zip(aug, pivots_):
        x[c] = row[a.cols]
    return x


def ref_solve_each(a: Matrix, bs):
    """Per-vector solve, as `engine._basis_coefficients` and
    `engine._solve_first_leg` ran it."""
    return [ref_solve(a, b) for b in bs]


def ref_greedy_rank_and_solve(f, vectors):
    """Greedy rank-and-solve, as `tensor._greedy_independent_slices` ran it:
    a rank per candidate, then a solve per vector in the chosen basis."""
    chosen, basis_rows = [], []
    for idx, v in enumerate(vectors):
        if rank_of_rows(f, basis_rows + [v], len(v)) > len(basis_rows):
            basis_rows.append(v)
            chosen.append(idx)
    basis_mat = Matrix(f, list(zip(*basis_rows)), cols=len(basis_rows))
    return chosen, [ref_solve(basis_mat, v) for v in vectors]


def ref_staircase_greedy(mats):
    """Staircase column greedy: per matrix, how many of its columns join the
    basis of all columns seen so far."""
    f, n1 = mats[0].field, mats[0].rows
    s, basis = [], []
    for a in mats:
        before = len(basis)
        for j in range(a.cols):
            if rank_of_rows(f, basis + [a.col(j)], n1) > len(basis):
                basis.append(a.col(j))
        s.append(len(basis) - before)
    return s


def ref_pipeline_basis(f, a_star, reduced):
    """The pipeline's basis extension: a_star first, then each reduced matrix
    that is independent of those kept."""
    basis, vecs = [a_star], [a_star.vectorize()]
    for m in reduced:
        v = m.vectorize()
        if rank_of_rows(f, vecs + [v], len(v)) > len(vecs):
            basis.append(m)
            vecs.append(v)
    return basis


def ref_basis_extension(f, mats, j_set):
    """`spans.basis_extension` with a rank per candidate and a solve per
    remaining matrix."""
    reduced, _ = independent_basis(span_of(f, list(mats)))
    j_list = list(j_set)
    restr = [m.submatrix(j_list, j_list).vectorize() for m in reduced]
    chosen = []
    for idx in range(len(reduced)):
        if rank_of_rows(f, [restr[i] for i in chosen] + [restr[idx]], len(j_list) ** 2) > len(chosen):
            chosen.append(idx)
    front = [reduced[i] for i in chosen]
    basis_mat = Matrix(f, list(zip(*[restr[i] for i in chosen])), cols=len(chosen))
    back = []
    for idx in range(len(reduced)):
        if idx in chosen:
            continue
        m = reduced[idx]
        for coef, bm in zip(ref_solve(basis_mat, restr[idx]), front):
            if not f.is_zero(coef):
                m = m.sub(bm.scale(coef))
        back.append(m)
    return front, back


# -- strategies -------------------------------------------------------------------


def _elements(f):
    if isinstance(f, PrimeField):
        return st.integers(0, f.p - 1)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def vector_lists(draw, lengths=st.integers(0, 6), max_count=7):
    """(field, length, vectors): uniform, zero and low-rank-product vectors,
    with repeats and sums of earlier ones planted among them."""
    f = draw(st.sampled_from(_FIELDS))
    n = draw(lengths)
    count = draw(st.integers(0, max_count))
    elem = _elements(f)

    def vec():
        return draw(st.lists(elem, min_size=n, max_size=n))

    kind = draw(st.sampled_from(["uniform", "low rank", "zero"]))
    if kind == "zero":
        vecs = [[f.zero()] * n for _ in range(count)]
    elif kind == "low rank":
        k = draw(st.integers(0, 2))
        gens = [vec() for _ in range(k)]
        vecs = []
        for _ in range(count):
            v = [f.zero()] * n
            for g in gens:
                c = draw(elem)
                v = [f.add(x, f.mul(c, y)) for x, y in zip(v, g)]
            vecs.append(v)
    else:
        vecs = [vec() for _ in range(count)]
    for i in range(2, count):  # dependent vectors: a repeat or a sum
        if draw(st.integers(0, 3)) == 0:
            vecs[i] = [f.add(x, y) for x, y in zip(vecs[i - 1], vecs[i - 2])]
        elif draw(st.integers(0, 3)) == 0:
            vecs[i] = list(vecs[i - 1])
    return f, n, [tuple(v) for v in vecs]


@st.composite
def systems(draw):
    """(matrix, right-hand sides): consistent ones a x, and arbitrary ones,
    which are inconsistent whenever the matrix does not have full row rank."""
    f, rows, cols = draw(vector_lists(lengths=st.integers(0, 5), max_count=5))
    a = Matrix(f, list(zip(*cols)), cols=len(cols)) if cols else Matrix.zeros(f, rows, 0)
    elem = _elements(f)
    bs = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            x = Matrix(f, [[draw(elem)] for _ in range(a.cols)], cols=1)
            bs.append(list(a.mul(x).col(0)) if a.rows else [])
        else:
            bs.append(draw(st.lists(elem, min_size=a.rows, max_size=a.rows)))
    return a, bs


def _typed(x):
    """A result with the type of every scalar in it, so Fraction and int differ."""
    if x is None:
        return None
    if isinstance(x, Matrix):
        return _typed(x.data)
    if isinstance(x, (list, tuple)):
        return [_typed(y) for y in x]
    return (type(x), x)


# -- differential tests -------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(vector_lists())
def test_column_basis_matches_greedy_rank_and_solve(case):
    f, _, vecs = case
    chosen, coords = column_basis(f, vecs)
    want_chosen, want_coords = ref_greedy_rank_and_solve(f, vecs)
    assert chosen == want_chosen
    assert _typed(coords) == _typed(want_coords)


@settings(max_examples=400, deadline=None)
@given(systems())
def test_solve_all_matches_per_vector_solve(case):
    a, bs = case
    got, want = solve_all(a, bs), ref_solve_each(a, bs)
    assert [x is None for x in got] == [x is None for x in want]
    assert _typed(got) == _typed(want)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FIELDS), st.integers(1, 4), st.integers(0, 3), st.integers(1, 4), st.data())
def test_pivots_per_block_matches_staircase_greedy(f, rows, cols, count, data):
    elem = _elements(f)
    mats = [Matrix(f, data.draw(st.lists(st.lists(elem, min_size=cols, max_size=cols),
                                         min_size=rows, max_size=rows)), cols=cols)
            for _ in range(count)]
    if count > 1 and data.draw(st.booleans()):
        mats[-1] = mats[0]  # a repeated block adds no pivot
    assert _pivots_per_block(mats) == ref_staircase_greedy(mats)


@settings(max_examples=300, deadline=None)
@given(vector_lists(lengths=st.just(4), max_count=5), st.data())
def test_pipeline_basis_matches_reference_loop(case, data):
    f, _, vecs = case
    mats = [Matrix(f, [v[:2], v[2:]]) for v in vecs]
    assume(any(not m.is_zero() for m in mats))
    reduced, _ = independent_basis(span_of(f, mats))
    # the max-rank witness: a nonzero matrix of the span
    a_star = data.draw(st.sampled_from([m for m in mats if not m.is_zero()]))
    candidates = [a_star, *reduced]
    chosen, _ = column_basis(f, [m.vectorize() for m in candidates])
    assert [candidates[i] for i in chosen] == ref_pipeline_basis(f, a_star, reduced)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FIELDS), st.integers(1, 4), st.data())
def test_basis_extension_matches_reference_loop(f, count, data):
    elem = _elements(f)
    mats = [Matrix(f, data.draw(st.lists(st.lists(elem, min_size=3, max_size=3), min_size=3, max_size=3)))
            for _ in range(count)]
    if count > 2 and data.draw(st.booleans()):
        mats[-1] = mats[0].add(mats[1])
    j_set = data.draw(st.lists(st.integers(0, 2), unique=True, max_size=3).map(sorted))
    if all(m.is_zero() for m in mats):
        return
    got, want = basis_extension(f, mats, j_set), ref_basis_extension(f, mats, j_set)
    assert _typed([list(got[0]), list(got[1])]) == _typed([list(want[0]), list(want[1])])


# -- elimination counts ----------------------------------------------------------------


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_concise_reduce_runs_one_elimination_per_direction(monkeypatch):
    f = GF(7)
    t = Tensor3(f, (3, 3, 3), {(0, 0, 0): 1, (1, 1, 1): 2, (2, 2, 2): 3, (0, 1, 2): 4, (2, 0, 1): 5})
    assert t.is_concise()
    calls = _count_calls(monkeypatch, matrix, "_eliminate")
    s, down, up = concise_reduce(t)
    assert len(calls) == 3
    assert s.dims == (3, 3, 3)


# a member of the `replay` benchmark's sqrt pool: symmetric, 4x4x4 over GF(7)
SQRT_REPLAY_ENTRIES = [
    2, 1, 2, 1, 1, 0, 1, 1, 2, 1, 2, 3, 1, 1, 3, 6, 1, 0, 1, 1, 0, 1, 3, 5, 1, 3, 6, 5, 1, 5, 5, 2,
    2, 1, 2, 3, 1, 3, 6, 5, 2, 6, 3, 4, 3, 5, 4, 4, 1, 1, 3, 6, 1, 5, 5, 2, 3, 5, 4, 4, 6, 2, 4, 0,
]


def test_sqrt_certificate_reuses_its_pivot_bases(monkeypatch):
    t = Tensor3(GF(7), (4, 4, 4), SQRT_REPLAY_ENTRIES)
    rrefs = _count_calls(monkeypatch, pivots, "rref")
    eliminations = _count_calls(monkeypatch, matrix, "_eliminate")
    d = pivots.sqrt_certificate(t)
    assert (d.claimed_r, d.power) == (4, 2)
    # one rref per pivot basis; the other three eliminations are is_concise's
    # flattening ranks
    assert len(rrefs) == 2
    assert len(eliminations) == 5
