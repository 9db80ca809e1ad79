"""Tracked elimination: a pinned corpus of every constructive certificate
built from row, column and slice operations, and a property test of the
tracker's invariant."""

import hashlib
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tenrank import _gf2
from tenrank.engine import subrank_c2
from tenrank.errors import TenrankError
from tenrank.fields import GF, QQ, format_value
from tenrank.io import serialize_certificate
from tenrank.matrix import _COL, _ROW, _SLICE, Matrix, _Working
from tenrank.pivots import rho_degeneration
from tenrank.spans import diagonalize_principal, minrk_diag_pipeline, rank_normal_form, slice_span
from tenrank.tensor import Tensor3

# sha256 of `certificate_corpus()`: any change to a value, map or
# certificate in the corpus changes it
CORPUS_SHA256 = "00c9a85006727efc7598ea4994e18982715bea0098d3aac36e94425387e83b1b"

ORIENTATIONS = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]


def _value(f, rng):
    if f is QQ:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randrange(f.p)


def _matrix(f, rows, cols, rng, rank_cap=None, density=1.0):
    m = Matrix(f, [[_value(f, rng) if rng.random() < density else f.zero() for _ in range(cols)]
                   for _ in range(rows)], cols=cols)
    if rank_cap is not None:  # a product of thin factors has rank at most rank_cap
        b = Matrix(f, [[_value(f, rng) for _ in range(cols)] for _ in range(rank_cap)], cols=cols)
        a = Matrix(f, [[_value(f, rng) for _ in range(rank_cap)] for _ in range(rows)], cols=rank_cap)
        m = a.mul(b)
    return m


def _tensor(f, dims, rng):
    return Tensor3(f, dims, [_value(f, rng) for _ in range(dims[0] * dims[1] * dims[2])])


def _concise(f, dims, rng):
    while True:
        t = _tensor(f, dims, rng)
        if t.is_concise():
            return t


def _text(m: Matrix) -> str:
    return ";".join(" ".join(format_value(x) for x in row) for row in m.data)


def certificate_corpus():
    """Text lines of every certificate in the corpus, one per case."""
    out = []

    def record(tag, fn):
        try:
            out.append(f"{tag} {fn()}")
        except TenrankError as exc:
            out.append(f"{tag} error {type(exc).__name__}")

    def c2(t):
        return "|".join(_text(m) for m in subrank_c2(t).restriction.maps)

    dims = (3, 3, 2)
    for word in range(0, 1 << 18, 97):
        if _gf2.is_concise(word, dims):
            t = Tensor3(GF(2), dims, _gf2.unpack_entries(word, dims))
            record(f"c2 gf2 {word}", lambda: c2(t))
    rng = random.Random(7)
    for f in (GF(3), GF(7), QQ):
        for k in range(100):
            t = _concise(f, (rng.randint(3, 4), rng.randint(3, 4), 2), rng)
            record(f"c2 {f.tag} {k}", lambda: c2(t))
    for f in (GF(3), GF(7), QQ):
        for k in range(6):
            t = _tensor(f, (rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 4)), rng)
            for i, j in ORIENTATIONS:
                record(f"rho {f.tag} {k} {i}{j}",
                       lambda: serialize_certificate(rho_degeneration(t, i, j), f))
    for f in (GF(2), GF(3), GF(11), QQ):
        for k in range(25):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = _matrix(f, rows, cols, rng, rank_cap=rng.choice([None, 1, 2, 3]))

            def rnf():
                p, q, r = rank_normal_form(a)
                return f"{_text(p)}|{_text(q)}|{r}"

            record(f"rnf {f.tag} {k}", rnf)
            n = rng.randint(1, 7)
            mats = [Matrix.identity(f, n)] + [_matrix(f, n, n, rng, density=rng.choice([0.2, 0.5, 1.0]))
                                              for _ in range(rng.randint(1, 3))]

            def diag():
                u, v, kept = diagonalize_principal(f, mats)
                return f"{_text(u)}|{_text(v)}|{kept}"

            record(f"diag {f.tag} {k}", diag)
    for f in (GF(3), GF(7), QQ):
        for k in range(4):
            n = rng.randint(3, 6)
            t = _concise(f, (n, n, rng.randint(2, 3)), rng)

            def pipeline():
                res = minrk_diag_pipeline(slice_span(t, 1, 2), seed=k)
                parts = [_text(res.u), _text(res.v), str(res.j_set), str(res.minrank_jj),
                         str(res.maxrank), str(res.maxrank_exact)]
                parts += [_text(m) for m in res.diag_basis + res.zero_basis]
                return "|".join(parts)

            record(f"pipeline {f.tag} {k}", pipeline)
    return out


def test_certificate_corpus_is_pinned():
    digest = hashlib.sha256("\n".join(certificate_corpus()).encode()).hexdigest()
    assert digest == CORPUS_SHA256


def _expected_slices(f, mats, w):
    """sum_k maps[_SLICE][s][k] * maps[_ROW] . X_k . maps[_COL]^T, by Matrix.mul."""
    rows, cols, smap = w.matrices((_ROW, _COL, _SLICE))
    sandwiched = [rows.mul(m).mul(cols.transpose()) for m in mats]
    out = []
    for coeffs in smap.data:
        acc = Matrix.zeros(f, rows.rows, cols.rows)
        for c, m in zip(coeffs, sandwiched):
            acc = acc.add(m.scale(c))
        out.append(acc)
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tracker_keeps_its_invariant(data):
    f = data.draw(st.sampled_from([GF(2), GF(7), QQ]))
    if f is QQ:
        values = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        values = st.integers(0, f.p - 1)
    n_rows, n_cols, n_mats = (data.draw(st.integers(1, 4)) for _ in range(3))

    def matrix(rows, cols):
        return Matrix(f, [[data.draw(values) for _ in range(cols)] for _ in range(rows)], cols=cols)

    mats = [matrix(n_rows, n_cols) for _ in range(n_mats)]
    slice_map = None
    if data.draw(st.booleans()):
        slice_map = matrix(data.draw(st.integers(1, 3)), n_mats).data
    w = _Working(f, mats, slice_map)
    for _ in range(data.draw(st.integers(1, 12))):
        axis = data.draw(st.sampled_from([_ROW, _COL, _SLICE]))
        size = len(w.maps[axis])
        index = st.integers(0, size - 1)
        op = data.draw(st.sampled_from(["swap", "scale", "addmul", "delete", "take", "transform", "find", "clear"]))
        s = data.draw(st.integers(0, len(w.slices) - 1))
        x = w.slices[s]
        if op == "swap":
            w.swap(axis, data.draw(index), data.draw(index))
        elif op == "find":
            rows, cols = (data.draw(st.lists(st.integers(0, len(w.maps[a]) - 1))) for a in (_ROW, _COL))
            hit = w.find(s, rows, cols)
            nonzero = [(a, b) for a in rows for b in cols if not f.is_zero(x[a][b])]
            assert hit == (nonzero[0] if nonzero else None)
        elif op == "clear" and axis != _SLICE:
            src = data.draw(index)
            line = data.draw(st.integers(0, len(w.maps[_COL if axis == _ROW else _ROW]) - 1))
            entry = (lambda k: x[k][line]) if axis == _ROW else (lambda k: x[line][k])
            if f.is_zero(entry(src)):
                continue
            idxs = data.draw(st.lists(index, unique=True))
            w.clear(axis, s, line, src, idxs)
            assert all(f.is_zero(entry(k)) for k in idxs if k != src) and not f.is_zero(entry(src))
        elif op == "scale":
            w.scale(axis, data.draw(index), data.draw(values))
        elif op == "addmul":
            w.addmul(axis, data.draw(index), data.draw(index), data.draw(values))
        elif op == "delete" and size > 1:
            w.delete(axis, data.draw(index))
        elif op == "take":
            w.take(axis, data.draw(st.lists(index, min_size=1, max_size=size, unique=True)))
        elif op == "transform":
            w.slice_transform(matrix(data.draw(st.integers(1, 3)), len(w.slices)).data)
        expected = _expected_slices(f, mats, w)
        assert len(w.slices) == len(expected)
        for got, want in zip(w.slices, expected):
            assert Matrix(f, got, cols=want.cols) == want
