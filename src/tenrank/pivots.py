"""Pivots of matrix subspaces and tensors: the cover number rho, the
matching number sigma (equal by Konig's theorem), the six orientation-
sensitive tensor variants, the pivot uncertainty inequality, and the
pivot-based border-subrank certificates."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Sequence, Tuple

from .errors import (
    BadParamsError,
    DegenerateSpanError,
    NotConciseError,
    NotCubicalError,
    NotPivotMatchedError,
    VerificationFailedError,
    ZeroMatrixError,
    ZeroSpanError,
    ZeroTensorError,
    shown,
)
from .laurent import Degeneration, LaurentMatrix, verify_degeneration
from .matrix import _COL, _ROW, _SLICE, Matrix, _eliminate, _kron_rows, _work_rows, _Working, rref
from .spans import SliceSpan, _max_matching, max_rank_exhaustive, slice_span
from .tensor import Tensor3


def pivot_of(m: Matrix) -> Tuple[int, int]:
    """Lexicographically first nonzero coordinate (0-based)."""
    f = m.field
    for i in range(m.rows):
        for j in range(m.cols):
            if not f.is_zero(m[i, j]):
                return (i, j)
    raise ZeroMatrixError("pivot of the zero matrix")


@dataclass(frozen=True)
class PivotData:
    basis: Tuple[Matrix, ...]
    pivots: Tuple[Tuple[int, int], ...]
    rho: int
    sigma: int
    cover: Tuple[Tuple[int, ...], Tuple[int, ...]]  # (row lines, column lines)
    matching: Tuple[Tuple[int, int], ...]


def pivot_basis(span: SliceSpan):
    """Basis with pairwise distinct pivots (rows of the rref of the
    row-major vectorized slices), together with the canonical pivot set.

    The returned basis is normalized: each matrix is 1 at its own pivot and
    0 at every other basis matrix's pivot.
    """
    pivots, res = _pivot_rref(span)
    rows, cols = span.shape
    mats = [Matrix(span.field, [row[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols)
            for row in res.rref.data[:res.rank]]
    return mats, pivots


def _pivot_rref(span: SliceSpan):
    """The pivot set of `pivot_basis(span)` and the RrefResult it is read
    from, whose transform expresses each basis matrix in span.basis; no basis
    matrix is built."""
    f = span.field
    vecs = [m.vectorize() for m in span.basis]
    if not vecs or all(all(f.is_zero(x) for x in v) for v in vecs):
        raise ZeroSpanError("pivot basis of the zero span")
    rows, cols = span.shape
    res = rref(Matrix(f, vecs, cols=rows * cols))
    return [divmod(pc, cols) for pc in res.pivot_cols], res


def max_pivot_matching(pivots: Sequence[Tuple[int, int]]):
    """Maximum set of pivots pairwise distinct in rows and columns, sorted,
    and the matching as {col: row}."""
    match_col = _max_matching(pivots)
    return sorted((r, c) for c, r in match_col.items()), match_col


def konig_cover(pivots: Sequence[Tuple[int, int]], match_col: Dict[int, int]):
    """Minimum line cover from a maximum matching: rows not in Z plus
    columns in Z, where Z is the alternating reachability set from
    unmatched rows."""
    rows = sorted({p[0] for p in pivots})
    adj: Dict[int, List[int]] = {r: [] for r in rows}
    for (r, c) in pivots:
        adj[r].append(c)
    matched_rows = set(match_col.values())
    z_rows = {r for r in rows if r not in matched_rows}
    z_cols: set = set()
    frontier = list(z_rows)
    while frontier:
        nxt = []
        for r in frontier:
            for c in adj[r]:
                if c not in z_cols:
                    z_cols.add(c)
                    mr = match_col.get(c)
                    if mr is not None and mr not in z_rows:
                        z_rows.add(mr)
                        nxt.append(mr)
        frontier = nxt
    cover_rows = tuple(sorted(set(rows) - z_rows))
    cover_cols = tuple(sorted(z_cols))
    return cover_rows, cover_cols


def rho_sigma(span: SliceSpan) -> PivotData:
    """Pivot set with its minimum line cover and maximum matching.

    rho = sigma (Konig) and a cover meeting every pivot are checked; a
    failure raises VerificationFailedError.
    """
    mats, pivots = pivot_basis(span)
    matching, cover = _konig(pivots)
    return PivotData(
        basis=tuple(mats),
        pivots=tuple(pivots),
        rho=len(cover[0]) + len(cover[1]),
        sigma=len(matching),
        cover=cover,
        matching=tuple(matching),
    )


def _konig(pivots: Sequence[Tuple[int, int]]):
    """(maximum matching, minimum line cover) of a pivot set, after checking
    that the cover has as many lines as the matching has pivots and meets
    every pivot."""
    matching, match_col = max_pivot_matching(pivots)
    cover_rows, cover_cols = konig_cover(pivots, match_col)
    rho = len(cover_rows) + len(cover_cols)
    sigma = len(matching)
    if rho != sigma:
        raise VerificationFailedError(f"rho {rho} != sigma {sigma}")  # pragma: no cover
    for (r, c) in pivots:
        if r not in cover_rows and c not in cover_cols:
            raise VerificationFailedError("cover misses a pivot")  # pragma: no cover
    return matching, (cover_rows, cover_cols)


def _pivot_set(t: Tensor3, i: int, j: int) -> List[Tuple[int, int]]:
    """The pivots of `pivot_basis(slice_span(t, i, j))`, from one forward
    elimination of the vectorized slices with no transform.  Forward
    elimination and the reduced echelon form pivot on the same columns (the
    first column of each rank increase), so the sets agree."""
    if i == j or not {i, j} <= {1, 2, 3}:
        raise BadParamsError(f"bad orientation {shown((i, j))}")
    d, cols = 6 - i - j, t.dims[j - 1]
    a, p = _work_rows(t.field, [chain.from_iterable(t._slice_rows(d, k, i)) for k in range(t.dims[d - 1])])
    return [divmod(pc, cols) for pc in _eliminate(a, t.dims[i - 1] * cols, p, False)]


def rho_ij(t: Tensor3, i: int, j: int) -> int:
    """rho of the oriented slice span with rows indexed by direction i and
    columns by direction j.  It reads only the pivot set (`_pivot_set`): no
    pivot basis, transform or span is built."""
    if t.is_zero():
        raise ZeroTensorError("rho of the zero tensor")
    return len(_konig(_pivot_set(t, i, j))[0])


def all_rho(t: Tensor3) -> Dict[Tuple[int, int], int]:
    """rho_{i,j} of all six orientations (i, j), i != j, keyed by (i, j)."""
    return {
        (i, j): rho_ij(t, i, j)
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        if i != j
    }


@dataclass(frozen=True)
class PivotUncertaintyReport:
    entries: Tuple[dict, ...]

    @property
    def all_hold(self) -> bool:
        return all(e["ok"] for e in self.entries)


def pivot_uncertainty_check(t: Tensor3) -> PivotUncertaintyReport:
    """Check rho_{i,j} * max(Q_i, Q_j) >= n_k for all distinct i, j, k."""
    if not t.is_concise():
        raise NotConciseError("pivot uncertainty needs a concise tensor")
    q = {}
    for d in (1, 2, 3):
        rd, cd = [x for x in (1, 2, 3) if x != d]
        q[d], _ = max_rank_exhaustive(slice_span(t, rd, cd))
    out = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            k = ({1, 2, 3} - {i, j}).pop()
            rho = rho_ij(t, i, j)
            bound = rho * max(q[i], q[j])
            out.append({
                "i": i, "j": j, "k": k,
                "rho": rho, "qi": q[i], "qj": q[j],
                "nk": t.dims[k - 1],
                "ok": bound >= t.dims[k - 1],
            })
    return PivotUncertaintyReport(tuple(out))


# -- the rho-based border-subrank certificate ----------------------------------


def rho_degeneration(t: Tensor3, i: int, j: int) -> Degeneration:
    """Verified size-rho_{i,j} degeneration certificate on t itself.

    Extracts the matched pivot slices, restricts to the pivot rows/columns
    reordered so pivots sit on the diagonal with cleared pivot rows, then
    attaches the epsilon-scalings; all steps are folded into one Laurent map
    triple.
    """
    if t.is_zero():
        raise ZeroTensorError("degeneration of the zero tensor")
    f = t.field
    span = slice_span(t, i, j)
    pivots, res = _pivot_rref(span)
    matching, _ = _konig(pivots)
    r = len(matching)  # rho = sigma, checked by _konig
    slice_dir = ({1, 2, 3} - {i, j}).pop()
    # matched pivots, sorted by row
    matched = sorted(matching)
    # basis matrices are combinations of the oriented slices; the rref
    # transform holds the combination coefficients
    w = _Working(f, span.basis, [res.transform.data[pivots.index(p)] for p in matched])
    # restrict to the pivot rows/columns so matched pivot s sits at (s, s)
    w.take(_ROW, [p[0] for p in matched])
    w.take(_COL, [p[1] for p in matched])
    # clear pivot rows right of the pivot: process slices by decreasing
    # pivot column value; column operations use the pivot column only
    x = w.slices
    for s in sorted(range(r), key=lambda s: -matched[s][1]):
        piv = x[s][s][s]
        if f.is_zero(piv):
            raise VerificationFailedError("zero pivot on the matched diagonal")  # pragma: no cover
        for u in range(r):
            if u != s and not f.is_zero(x[s][s][u]):
                w.addmul(_COL, u, s, f.neg(f.div(x[s][s][u], piv)))
    # sanity: slice s now has pivot row s equal to e_s and zero rows above;
    # scale each slice so its pivot value is 1
    for s in range(r):
        piv = x[s][s][s]
        if f.is_zero(piv):
            raise VerificationFailedError("pivot vanished during clearing")  # pragma: no cover
        w.scale(_SLICE, s, f.inv(piv))
    rows, cols, slices = w.matrices((_ROW, _COL, _SLICE))

    # epsilon scalings: slice leg gets e^-s, row leg e^+a (the exponent-0
    # part is then exactly the diagonal; everything else has row > slice)
    legs: List[LaurentMatrix] = [None, None, None]
    legs[slice_dir - 1] = LaurentMatrix.from_matrix(slices).scale_rows([-s for s in range(1, r + 1)])
    legs[i - 1] = LaurentMatrix.from_matrix(rows).scale_rows(list(range(1, r + 1)))
    legs[j - 1] = LaurentMatrix.from_matrix(cols)
    d = Degeneration(tuple(legs), claimed_r=r, power=1)
    check = verify_degeneration(d, t, explain=True)
    if not check.ok:
        raise VerificationFailedError(f"rho degeneration failed: {check.reason}")
    return d


# -- pivot-matched tensors and the sqrt(n) certificate ---------------------------


def is_pivot_matched(t: Tensor3):
    """Identity-representative pivot-matched test: the multisets of pivot
    rows of the normalized 1-slice and 3-slice bases must agree.

    This is a sufficient condition; a False only means "not pivot-matched
    in the given basis".  Returns (flag, pivots of the 1-slice span, pivots
    of the 3-slice span), read by `_pivot_set`: no pivot basis is built.
    """
    n1, n2, n3 = t.dims
    if not (n1 == n2 == n3):
        raise NotCubicalError("pivot matching needs a cubical tensor")
    if not n1:
        raise ZeroSpanError("a span needs at least one generator")
    a_piv, b_piv = _pivot_set(t, 2, 3), _pivot_set(t, 1, 2)  # as many as the flattening ranks 1 and 3
    if len(a_piv) != n1 or len(b_piv) != n1:
        raise DegenerateSpanError("pivot maps need full slice span dimensions")
    return sorted(p[0] for p in a_piv) == sorted(p[0] for p in b_piv), a_piv, b_piv


def sqrt_certificate(t: Tensor3) -> Degeneration:
    """Size-n degeneration certificate on the square Kronecker power of a
    concise, cubical, pivot-matched tensor (so the asymptotic diagonalization
    measure is at least sqrt(n)).

    Construction: normalize the 1-slices and 3-slices to rref pivot bases,
    reorder so the two pivot maps share their row coordinate pointwise,
    project each leg of the product tensor onto the paired coordinates, and
    attach the epsilon scalings that push the strictly-upper part to
    positive exponents.
    """
    n1, n2, n3 = t.dims
    if not (n1 == n2 == n3):
        raise NotCubicalError("sqrt certificate needs a cubical tensor")
    n = n1
    if not t.is_concise():
        raise NotConciseError("sqrt certificate needs a concise tensor")
    f = t.field
    # is_pivot_matched's test, on the pivot bases the certificate is built
    # from; conciseness already gives the full slice spans it checks for
    a_piv, a_res = _pivot_rref(slice_span(t, 2, 3))
    b_piv, b_res = _pivot_rref(slice_span(t, 1, 2))
    if sorted(p[0] for p in a_piv) != sorted(p[0] for p in b_piv):
        raise NotPivotMatchedError("pivot rows of 1- and 3-slice bases differ")
    # pair A-slices and B-slices with equal pivot row, in pivot order
    by_row: Dict[int, List[int]] = {}
    for idx, (pr, _) in enumerate(b_piv):
        by_row.setdefault(pr, []).append(idx)
    pairing = []
    taken = {r: 0 for r in by_row}
    for idx, (pr, _) in enumerate(a_piv):
        pool = by_row.get(pr, [])
        if taken[pr] >= len(pool):
            raise NotPivotMatchedError("pivot row multiset mismatch")  # pragma: no cover
        pairing.append(pool[taken[pr]])
        taken[pr] += 1
    # after pairing, slice l of the A-basis and slice pairing[l] of the
    # B-basis have the same pivot row: f_a[l] == f_b[l]
    f_a = [p[0] for p in a_piv]
    g_a = [p[1] for p in a_piv]
    f_b = [b_piv[pairing[l]][0] for l in range(n)]
    g_b = [b_piv[pairing[l]][1] for l in range(n)]
    if f_a != f_b:
        raise VerificationFailedError("paired pivot rows differ")  # pragma: no cover

    # base changes: G turns the 1-slices into the A-basis (leg 1),
    # H turns the 3-slices into the reordered B-basis (leg 3)
    g = Matrix(f, [a_res.transform.data[l] for l in range(n)], cols=n)
    h = Matrix(f, [b_res.transform.data[pairing[l]] for l in range(n)], cols=n)

    # leg projections of T_A (x) T_B onto the paired coordinates:
    #   leg 1 keeps (l, f_a[l]), leg 2 keeps (f_b[v], g_b[v]), leg 3 keeps (g_a[w], w)
    ident = Matrix.identity(f, n)
    p1 = _kron_rows([g, ident], [(l, f_a[l]) for l in range(n)])
    p2 = _kron_rows([ident, ident], [(f_b[v], g_b[v]) for v in range(n)])
    p3 = _kron_rows([ident, h], [(g_a[w], w) for w in range(n)])
    leg1 = LaurentMatrix.from_matrix(p1).scale_rows([-(f_a[l] + 1) for l in range(n)])
    leg2 = LaurentMatrix.from_matrix(p2).scale_rows([f_b[v] + 1 for v in range(n)])
    leg3 = LaurentMatrix.from_matrix(p3)
    d = Degeneration((leg1, leg2, leg3), claimed_r=n, power=2)
    check = verify_degeneration(d, t, power=2, explain=True)
    if not check.ok:
        raise VerificationFailedError(f"sqrt certificate failed: {check.reason}")
    return d
