"""Matrix subspaces arising from tensor slices: max-rank, min-rank, minimal
covers, the staircase construction behind the max-rank product inequality,
and the diagonalization pipeline that turns large max-rank into large
min-rank on a principal submatrix.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import comb, prod
from operator import or_, xor
from typing import Dict, List, Optional, Sequence, Tuple

from . import _gf2
from ._batch import MAX_BATCH_PRIME, projective_count, projective_vectors
from .errors import (
    BadParamsError,
    FieldTooSmallError,
    InfiniteFieldError,
    NotConciseError,
    ResourceGuardError,
    RetryBudgetError,
    VerificationFailedError,
    ZeroSpanError,
    capped_power,
    refuse_over,
    shown,
)
from .fields import Elem, Field, PrimeField
from .matrix import (_COL, _ROW, Matrix, _combination, _eliminate, _kron_rows, _product, _rref_annihilator,
                     _work_rows, _Working, column_basis, concat_cols, rank, rank_of_rows, rref, solve)
from .tensor import KRON_ENTRY_GUARD, Tensor3

PROJECTIVE_GUARD = 10_000_000
SUBSPACE_PAIR_GUARD = 1_000_000
EXHAUSTIVE_U_GUARD = 100_000
_STAIRCASE_TRIES = 32
_BATCH_THRESHOLD = 256


@dataclass(frozen=True)
class SliceSpan:
    """An ordered spanning set of matrices with an orientation tag.

    `basis` keeps the tensor's slice order and may be linearly dependent;
    use `independent_basis` for a reduced basis.  `orientation` records which
    tensor direction indexes rows and which indexes columns (None for a
    free-standing span).
    """

    field: Field
    basis: Tuple[Matrix, ...]
    orientation: Optional[Tuple[int, int]] = None

    @property
    def shape(self) -> Tuple[int, int]:
        m = self.basis[0]
        return (m.rows, m.cols)

    def transpose(self) -> "SliceSpan":
        o = (self.orientation[1], self.orientation[0]) if self.orientation else None
        return SliceSpan(self.field, tuple(m.transpose() for m in self.basis), o)


def span_of(field: Field, mats: Sequence[Matrix], orientation=None) -> SliceSpan:
    if not mats:
        raise ZeroSpanError("a span needs at least one generator")
    return SliceSpan(field, tuple(mats), orientation)


def slice_span(t: Tensor3, row_dir: int, col_dir: int) -> SliceSpan:
    """Span of the slices along the direction not in {row_dir, col_dir},
    with the requested row/column orientation, each read straight from the
    tensor's entries.  A direction of size 0 has no slices and raises
    ZeroSpanError, as `span_of` does."""
    if row_dir == col_dir or not {row_dir, col_dir} <= {1, 2, 3}:
        raise BadParamsError(f"bad orientation {shown((row_dir, col_dir))}")
    d, cols = 6 - row_dir - col_dir, t.dims[col_dir - 1]
    mats = [Matrix(t.field, t._slice_rows(d, i, row_dir), cols=cols) for i in range(t.dims[d - 1])]
    return span_of(t.field, mats, (row_dir, col_dir))


def independent_basis(span: SliceSpan):
    """Reduced basis and the coefficient matrix expressing it in span.basis.

    Returns (mats, coeffs) with mats[i] = sum_j coeffs[i][j] * span.basis[j].
    """
    f = span.field
    vecs = [m.vectorize() for m in span.basis]
    n = len(vecs[0])
    # [V | I] in reduced echelon form: each row's tail records its combination
    a, p = _work_rows(f, vecs, Matrix.identity(f, len(vecs)).data)
    pivots = _eliminate(a, n + len(vecs), p, True)
    rows, cols = span.shape
    mats = []
    coeffs = []
    for row, pc in zip(a, pivots):
        if pc >= n:
            break  # rows whose pivot lies in the bookkeeping block span nothing
        mats.append(Matrix(f, [row[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols))
        coeffs.append(row[n:])
    return mats, Matrix(f, coeffs, cols=len(vecs))


@dataclass(frozen=True)
class MaxRankWitness:
    """A linear combination of span generators attaining a rank value."""

    coeffs: Tuple[Elem, ...]  # over span.basis, in order
    rank: int


def combine(span: SliceSpan, coeffs: Sequence[Elem]) -> Matrix:
    """sum_k coeffs[k] * span.basis[k]."""
    return Matrix(span.field, _combination(span.field, coeffs, [m.data for m in span.basis]), cols=span.shape[1])


def _max_matching(edges) -> Dict[int, int]:
    """A maximum matching of the bipartite graph with these (row, col) edges,
    as {col: row}.  Augmenting paths are searched depth first from each row
    in increasing order, trying a row's columns in edge order; the search
    keeps its path on a list, so long paths need no recursion."""
    adj: Dict[int, List[int]] = {}
    for r, c in edges:
        adj.setdefault(r, []).append(c)
    row_of: Dict[int, int] = {}
    for root in sorted(adj):
        seen = set()
        path = [(root, iter(adj[root]))]  # the path's rows, each with its untried columns
        cols = []  # cols[k] leads from path[k] to path[k + 1]
        while path:
            for c in path[-1][1]:
                if c not in seen:
                    break
            else:  # a dead end: back up one row
                path.pop()
                if cols:
                    cols.pop()
                continue
            seen.add(c)
            cols.append(c)
            if c not in row_of:  # augment: each row on the path takes its next column
                for (r, _), c in zip(path, cols):
                    row_of[c] = r
                break
            path.append((row_of[c], iter(adj[row_of[c]])))
    return row_of


def _term_rank(span: SliceSpan) -> int:
    """Term rank of the span's union support: the size of a largest matching
    of rows to columns among the positions nonzero in some generator.  By
    Konig's theorem it is also the least number of rows and columns covering
    that support, so no matrix of the span has a larger rank."""
    return _term_rank_of([m.data for m in span.basis])


def _term_rank_of(mats) -> int:
    """`_term_rank` of matrices given as their rows."""
    support = ((i, j) for i, row in enumerate(zip(*mats)) for j, xs in enumerate(zip(*row)) if any(xs))
    return len(_max_matching(support))


def _enumerate_ranks(span: SliceSpan, *, minimize: bool, guard: int, lift: bool = True):
    """Shared projective enumeration for max/min rank over GF(p).

    The guard counts every projective combination.  Max-rank stops at the
    term rank T of the reduced basis; when T < p it ranks only the grid
    {1} x {0..T}^(c-1) of `projective_vectors`, which holds the max-rank
    and the first combination attaining it (see `max_rank_exhaustive`).
    Searches that rank `_BATCH_THRESHOLD` or more combinations take the
    batched arm when p <= MAX_BATCH_PRIME, over GF(2) only for min-rank.

    The kernels are picked once, before the loop.  Over GF(p), p > 2, a
    matrix is its int rows: [V | I] is reduced by `independent_basis` and a
    combination is a `_combination` ranked by `rank_of_rows`.  Over GF(2) a
    matrix is one int (`_gf2.pack`): [V | I] is reduced by `_gf2.gf2_rref`
    (the reduced echelon form is unique, so the reduced basis and the
    coefficients lifting it are `independent_basis`'s), the term rank reads
    the OR of the reduced rows, and a combination is the XOR of its
    generators ranked by `_gf2.gf2_rank`.  The order, refusals and witnesses
    are the same for every p.

    Returns (value, coefficients over span.basis).  Without `lift` only the
    value is wanted: V alone is reduced, with no [V | I] bookkeeping, and
    the coefficients are None.
    """
    f = span.field
    if not isinstance(f, PrimeField):
        raise InfiniteFieldError("exhaustive rank search needs a finite field")
    q = f.p
    rows, cols = span.shape
    width = rows * cols
    if q == 2:
        # with `lift`, bit width + k of a row records generator k; rows with no
        # bit below width (pivot in the bookkeeping block) span nothing.  The
        # support, the ranks and the batched arm read only the bits below width.
        red = [w for w in _gf2.gf2_rref([_gf2.pack(itertools.chain.from_iterable(m.data)) | lift << (width + k)
                                         for k, m in enumerate(span.basis)]) if w & ((1 << width) - 1)]
        support = reduce(or_, red, 0)
        term_rank = lambda: len(_max_matching(divmod(b, cols) for b in range(width) if (support >> b) & 1))
        rank_at = lambda vec: _gf2.gf2_rank(_gf2.split_rows(reduce(xor, itertools.compress(red, vec)), rows, cols))
        int_rows = lambda: [[_gf2.bit_row(r, cols) for r in _gf2.split_rows(w, rows, cols)] for w in red]
        lifted = lambda vec: _gf2.bit_row(reduce(xor, itertools.compress(red, vec)) >> width, len(span.basis))
    else:
        if lift:
            mats, reduction = independent_basis(span)
            red = [m.data for m in mats]
        else:
            red = [[v[i * cols:(i + 1) * cols] for i in range(rows)]
                   for v in _reduce_rows(f, [m.vectorize() for m in span.basis], width)]
        term_rank = lambda: _term_rank_of(red)
        rank_at = lambda vec: rank_of_rows(f, _combination(f, vec, red), cols)
        int_rows = lambda: red
        # coefficients over the reduced basis -> coefficients over span.basis
        lifted = lambda vec: tuple(_combination(f, vec, [(row,) for row in reduction.data])[0])
    c = len(red)
    if c == 0:
        if minimize:
            raise ZeroSpanError("min-rank of the zero span")
        return 0, tuple(f.zero() for _ in span.basis) if lift else None
    count = projective_count(q, c)
    refuse_over(count, guard, "projective enumeration of {count} combinations exceeds guard {guard}")
    stop = 1 if minimize else term_rank()  # no combination can do better
    top = None if minimize or stop >= q else stop
    if top is not None:
        count = (top + 1) ** (c - 1)
    # over GF(2) the batched arm wins only on full min-rank walks of many
    # combinations; on random 4x4 spans of 9-12 generators the loop ran
    # max-rank ~4x faster
    if count >= _BATCH_THRESHOLD and q <= MAX_BATCH_PRIME and (minimize or q > 2):
        red_span = SliceSpan(f, tuple(Matrix(f, m, cols=cols) for m in int_rows()))
        best, best_vec = _enumerate_ranks_batched(red_span, q, c, minimize, stop, top)
    else:
        best = None
        best_vec = None
        for vec in projective_vectors(q, c, top):
            r = rank_at(vec)
            if best is None or (r < best if minimize else r > best):
                best, best_vec = r, vec
                if best == stop:
                    break
    return best, lifted(best_vec) if lift else None


def _enumerate_ranks_batched(red: SliceSpan, q: int, c: int, minimize: bool, stop: int, top: Optional[int]):
    """(best rank, the first vector of projective_chunks(q, c, top) attaining
    it, as ints), stopping once a block reaches `stop`."""
    import numpy as np

    from ._batch import batched_rank_mod_p, projective_chunks

    rows, cols = red.shape
    basis = np.array([m.data for m in red.basis], dtype=np.int64).reshape(c, rows * cols)
    best = None
    best_vec = None
    for part in projective_chunks(q, c, top):
        mats = (part @ basis % q).reshape(-1, rows, cols)
        ranks = batched_rank_mod_p(mats, q)
        i = int(np.argmin(ranks) if minimize else np.argmax(ranks))
        v = int(ranks[i])
        if best is None or (v < best if minimize else v > best):
            best, best_vec = v, part[i]
            if best == stop:
                break
    return best, tuple(int(x) for x in best_vec)


def max_rank_exhaustive(span: SliceSpan, *, guard: int = PROJECTIVE_GUARD):
    """Exact max-rank over a finite field with a witness combination.

    The search stops at the term rank T of the span's union support (at most
    min(shape)), which no element's rank exceeds.  When T < p it ranks only
    the combinations with a leading 1 in position 0 and every other
    coefficient at most T, in the same order.  Every k x k minor of
    sum x_i B_i (reduced basis) is homogeneous of degree k <= T, so setting
    x_1 = 1 keeps a nonzero one nonzero, of degree at most T in each
    variable; such a polynomial does not vanish on {0..T}^(c-1) (Alon's
    Combinatorial Nullstellensatz), and fixing the coordinates one at a time
    puts the lexicographically first nonzero point there too.  So the grid
    holds the max-rank and its first witness.  The guard still
    counts every projective combination, and the witness is the first
    combination attaining the max-rank, the one the full search returns.
    """
    value, coeffs = _enumerate_ranks(span, minimize=False, guard=guard)
    return value, MaxRankWitness(coeffs, value)


def min_rank_exhaustive(span: SliceSpan, *, guard: int = PROJECTIVE_GUARD):
    """Exact min-rank over nonzero span elements, with witness."""
    value, coeffs = _enumerate_ranks(span, minimize=True, guard=guard)
    return value, MaxRankWitness(coeffs, value)


def max_rank_randomized(span: SliceSpan, trials: int, seed: int = 0):
    """Best rank over `trials` random combinations: a certified lower bound.

    Over GF(p) a uniform random combination attains the true max-rank except
    with probability at most maxrank/p per trial (Schwartz-Zippel on a
    nonzero maxrank x maxrank minor); over Q integer coefficients of height
    2*min(shape)+1 give the same bound.  The returned value never exceeds
    the true max-rank.  The trials stop at the term rank of the span's union
    support, which no element's rank exceeds; the witness is the first trial
    attaining the best value, the one all `trials` trials return.
    """
    if trials < 1:
        raise BadParamsError(f"randomized max-rank needs trials >= 1, have {shown(trials)}")
    f = span.field
    rng = random.Random(seed)
    n = len(span.basis)
    h = 2 * min(span.shape) + 1
    best = 0
    best_coeffs = tuple([f.zero()] * n)
    upper = _term_rank(span)
    for _ in range(trials):
        if isinstance(f, PrimeField):
            coeffs = tuple(rng.randrange(f.p) for _ in range(n))
        else:
            coeffs = tuple(Fraction(rng.randrange(h)) for _ in range(n))
        r = rank(combine(span, coeffs))
        if r > best:
            best, best_coeffs = r, coeffs
            if best == upper:
                break
    return best, MaxRankWitness(best_coeffs, best)


# -- subspace enumeration and minimal covers -----------------------------------


def _check_dims(n: int, dim: int) -> None:
    if n < 0 or dim < 0:
        raise BadParamsError(f"subspaces need n >= 0 and dim >= 0, have n={n}, dim={dim}")


def subspaces(field: Field, n: int, dim: int):
    """All dim-dimensional subspaces of F^n as rref basis matrices."""
    if not isinstance(field, PrimeField):
        raise InfiniteFieldError("cannot enumerate subspaces over the rationals")
    _check_dims(n, dim)
    q = field.p
    if dim == 0:
        yield Matrix.zeros(field, 0, n)
        return
    for pivots in itertools.combinations(range(n), dim):
        free_pos = [
            (r, c)
            for r in range(dim)
            for c in range(pivots[r] + 1, n)
            if c not in pivots
        ]
        for vals in itertools.product(range(q), repeat=len(free_pos)):
            ent = {(r, pivots[r]): 1 for r in range(dim)}
            for (pos, v) in zip(free_pos, vals):
                if v:
                    ent[pos] = v
            yield Matrix.from_entries(field, dim, n, ent)


def _gaussian_binomials(q: int, n: int) -> List[int]:
    """[n, 0]_q, ..., [n, n]_q by the ratio recurrence
    [n, a]_q = [n, a-1]_q * (q^(n-a+1) - 1) / (q^a - 1), each division exact:
    n small divisions instead of a product of n factors per entry."""
    row = [1]
    for a in range(1, n + 1):
        row.append(row[-1] * (q ** (n - a + 1) - 1) // (q**a - 1))
    return row


def subspace_count(q: int, n: int, dim: int) -> int:
    """Gaussian binomial [n choose dim]_q, 0 for dim > n."""
    _check_dims(n, dim)
    return _gaussian_binomials(q, n)[dim] if dim <= n else 0


@lru_cache(maxsize=None)
def subspace_pair_count(q: int, n1: int, n2: int) -> int:
    """Number of pairs (V1, V2) of subspaces of GF(q)^n1 and GF(q)^n2: the
    number of subspaces of each, multiplied."""
    return prod(sum(_gaussian_binomials(q, n)) for n in (n1, n2))


@lru_cache(maxsize=None)
def subspace_pair_guard(q: int, n1: int, n2: int, guard: int) -> None:
    """Refuse a search over the subspace pairs of GF(q)^n1 x GF(q)^n2 past
    `guard` pairs; a check that passes is kept, so a repeated one costs a
    lookup."""
    refuse_over(subspace_pair_count(q, n1, n2), guard,
                "subspace-pair enumeration of {count} pairs exceeds guard {guard}")


def _annihilator(basis: Matrix) -> Matrix:
    """Rows spanning {y : y . v = 0 for all v in row span of basis}."""
    res = rref(basis)
    rows = _rref_annihilator(basis.field, res.rref.data[:res.rank], basis.cols)
    return Matrix(basis.field, rows, cols=basis.cols)


def _covered(span: SliceSpan, ann1: Matrix, ann2: Matrix) -> bool:
    for m in span.basis:
        if not ann1.mul(m).mul(ann2.transpose()).is_zero():
            return False
    return True


@lru_cache(maxsize=None)
def _subspace_layer(q: int, n: int, dim: int):
    """The dim-dimensional subspaces V of GF(q)^n as (rows of V, rows of
    ann V), int-row tuples: V's rref basis in the order of `subspaces`, each
    with the annihilator `_rref_annihilator` builds.  Each layer is built
    the first time a search asks for it and kept for the process; none is
    built at import.  The GF(2) cover walk reads the same layers as bit rows
    (`_bit_layer`)."""
    f = PrimeField(q)
    return tuple((v.data, tuple(map(tuple, _rref_annihilator(f, v.data, n)))) for v in subspaces(f, n, dim))


@lru_cache(maxsize=None)
def _bit_layer(n: int, dim: int):
    """`_subspace_layer(2, n, dim)` with each row of V and of ann V packed as
    one n-bit int (`_gf2.pack`), cached the same way."""
    return tuple((tuple(map(_gf2.pack, v)), tuple(map(_gf2.pack, ann))) for v, ann in _subspace_layer(2, n, dim))


def _cover_walk(f: PrimeField, columns, n: int, m: int, bound: int, floor: int):
    """The first subspace V of F^n, in order of increasing dimension, whose
    total dim V + dim W is least and below `bound`, with W the row span of
    the matrices ann(V) * M (each n x m matrix M given as its m columns).
    Returns (total, rows of V, rows spanning W) as the walk holds them (int
    rows over GF(p), bit rows over GF(2)), or None when no total is below
    `bound`.  It stops once dim V alone reaches the best total, and at the
    first V whose total equals `floor`, a lower bound the caller knows; the
    best is replaced only on a strict improvement, so V is the one the whole
    search would return.

    The kernels are picked once, before the walk.  Over GF(p), p > 2, it
    reads `_subspace_layer`, forms ann(V) * M by `_product` and ranks W by
    `rank_of_rows`.  Over GF(2) it reads `_bit_layer`, and each matrix M
    becomes the table of its n rows' XOR span (m-bit rows), so a row of
    ann(V) * M, the XOR of the rows of M its bits pick, is one lookup, and
    dim W is `_gf2.gf2_rank` of those rows."""
    q = f.p
    if q == 2:
        tables = [_gf2._span([_gf2.pack([col[i] for col in cols]) for i in range(n)]) for cols in columns]
        layer = partial(_bit_layer, n)

        def image(ann):
            w = [t[y] for t in tables for y in ann]
            return w, _gf2.gf2_rank(w)
    else:
        layer = partial(_subspace_layer, q, n)

        def image(ann):
            w = [row for cols in columns for row in _product(ann, cols, q)]
            return w, rank_of_rows(f, w, m)
    best = None
    for a in range(n + 1):
        if a >= bound:
            break
        for v, ann in layer(a):
            w, dim_w = image(ann)
            total = a + dim_w
            if total < bound:
                bound, best = total, (total, v, w)
                if total == a or total == floor:
                    return best
    return best


def _mincov(span: SliceSpan, guard: int):
    """`mincov_exhaustive`'s refusals, zero span and floor, then
    `_cover_walk` from F^n1 with the generators as the matrices M: (value,
    rows of V1, rows spanning V2), as the walk holds them."""
    f = span.field
    if not isinstance(f, PrimeField):
        raise InfiniteFieldError("mincov enumeration needs a finite field")
    n1, n2 = span.shape
    if all(m.is_zero() for m in span.basis):
        return 0, (), []
    subspace_pair_guard(f.p, n1, n2, guard)
    columns = [list(zip(*m.data)) for m in span.basis]
    if f.p == 2:
        floor = max(_gf2.gf2_rank(list(map(_gf2.pack, m.data))) for m in span.basis)
    else:
        floor = max(rank(m) for m in span.basis)
    return _cover_walk(f, columns, n1, n2, n1 + n2 + 1, floor)


def mincov_exhaustive(span: SliceSpan, *, guard: int = SUBSPACE_PAIR_GUARD):
    """Smallest dim V1 + dim V2 with the span inside V1 (x) F + F (x) V2.

    Returns (value, (V1 basis matrix, V2 basis matrix)).  Only V1 is
    enumerated (`_cover_walk`): for a fixed V1 the smallest valid V2 is the
    row span W of the matrices ann(V1) * M, so the best total with that V1
    is dim V1 + dim W, and V2 is the rref basis of W.  The first V1 reaching
    the minimum wins, which gives the same pair as a search over (V1, V2) in
    order of increasing total.  The guard still counts the (V1, V2) subspace
    pairs, so the same spans are refused.

    Every matrix of the span lies in V1 (x) F + F (x) V2, so its rank is at
    most dim V1 + dim V2: the largest rank of a generator is a floor on the
    value, and the search stops at the first V1 that reaches it.  The floor
    is computed after the refusals, from the generators alone, so it does
    not depend on the max-rank search.
    """
    f, (n1, n2) = span.field, span.shape
    best, v1, w = _mincov(span, guard)
    if f.p == 2:
        v1, w = [_gf2.bit_row(x, n1) for x in v1], [_gf2.bit_row(y, n2) for y in w]
    return best, (Matrix(f, v1, cols=n1), Matrix(f, _reduce_rows(f, w, n2), cols=n2))


def verify_cover(span: SliceSpan, v1: Matrix, v2: Matrix) -> bool:
    """Check that the span lies inside V1 (x) F + F (x) V2."""
    return _covered(span, _annihilator(v1), _annihilator(v2))


@dataclass(frozen=True)
class FlandersReport:
    maxrank: int
    mincov: Optional[int]
    interval: Tuple[int, int]
    two_sided_applicable: bool
    lower_ok: bool
    four_times_ok: bool
    two_times_ok: Optional[bool]

    @property
    def ratio_ok(self) -> bool:
        ok = self.lower_ok and self.four_times_ok
        if self.two_sided_applicable and self.two_times_ok is not None:
            ok = ok and self.two_times_ok
        return ok


def flanders_check(span: SliceSpan, *, guard: int = SUBSPACE_PAIR_GUARD) -> FlandersReport:
    """Check maxrank <= mincov <= 4*maxrank (and <= 2*maxrank when |F| > maxrank).

    Only the two values are computed, with the refusals of
    `max_rank_exhaustive` and `mincov_exhaustive`: the max-rank search runs
    without its witness lift, and only the cover walk's total is read.  The
    two searches stay independent: mincov's floor comes from the generators."""
    mr, _ = _enumerate_ranks(span, minimize=False, guard=PROJECTIVE_GUARD, lift=False)
    f = span.field
    two_sided = f.size() is not None and f.size() > mr
    try:
        mc = _mincov(span, guard)[0]
    except ResourceGuardError:
        return FlandersReport(mr, None, (mr, 4 * mr), two_sided, True, True, None)
    return FlandersReport(
        maxrank=mr,
        mincov=mc,
        interval=(mc, mc),
        two_sided_applicable=two_sided,
        lower_ok=mr <= mc,
        four_times_ok=mc <= 4 * mr,
        two_times_ok=(mc <= 2 * mr) if two_sided else None,
    )


# -- staircase construction ----------------------------------------------------


@dataclass(frozen=True)
class StaircaseResult:
    u: Matrix
    s: Tuple[int, ...]
    witness_maxrank3: Tuple[int, int]  # (slice index, rank)
    witness_maxrank2: Tuple[Matrix, int]  # (first-columns matrix, rank)
    coeffs3: Tuple[Elem, ...]
    coeffs2: Tuple[Elem, ...]


def staircase(t: Tensor3, *, seed: int = 0) -> StaircaseResult:
    """Find U making the left-flushed column prefixes of the transformed
    3-slices jointly independent; yields witnesses with
    witness3.rank * witness2.rank >= n1.
    """
    if not t.is_concise():
        raise NotConciseError("staircase needs a concise tensor")
    f = t.field
    n1, n2, n3 = t.dims
    if f.size() is not None and f.size() <= n1:
        raise FieldTooSmallError(f"staircase needs |F| > {n1}, have {f.size()}")
    slices = t.slices(3)
    s = _pivots_per_block(slices)
    if sum(s) != n1:
        raise NotConciseError("cumulative column ranks do not reach n1")  # pragma: no cover

    rng = random.Random(seed)

    def try_u(u: Matrix):
        prefix_cols = []
        for a, si in zip(slices, s):
            au = a.mul(u)
            for j in range(si):
                prefix_cols.append(au.col(j))
        if prefix_cols and rank_of_rows(f, prefix_cols, n1) == n1:
            return True
        return not prefix_cols and n1 == 0

    u = None
    for _ in range(_STAIRCASE_TRIES):
        if isinstance(f, PrimeField):
            cand = Matrix(f, [[rng.randrange(f.p) for _ in range(n2)] for _ in range(n2)])
        else:
            h = 2 * n1 + 1
            cand = Matrix(f, [[Fraction(rng.randrange(h)) for _ in range(n2)] for _ in range(n2)])
        if try_u(cand):
            u = cand
            break
    if u is None and isinstance(f, PrimeField):
        total = f.p ** (n2 * n2)
        if total <= EXHAUSTIVE_U_GUARD:
            for vals in itertools.product(range(f.p), repeat=n2 * n2):
                cand = Matrix(f, [vals[i * n2:(i + 1) * n2] for i in range(n2)])
                if try_u(cand):
                    u = cand
                    break
    if u is None:
        raise RetryBudgetError(f"no staircase matrix found in {_STAIRCASE_TRIES} random tries")

    i_star = max(range(n3), key=lambda i: s[i])
    w3_rank = rank(slices[i_star])
    au = [a.mul(u) for a in slices]
    m = Matrix(f, [[au[i][a, 0] for i in range(n3)] for a in range(n1)], cols=n3)
    w2_rank = rank(m)
    nz = sum(1 for si in s if si)
    if w3_rank < max(s) or w2_rank < nz or w3_rank * w2_rank < n1:
        raise VerificationFailedError("staircase postcondition failed")  # pragma: no cover
    one, zero = f.one(), f.zero()
    coeffs3 = tuple(one if i == i_star else zero for i in range(n3))
    coeffs2 = tuple(u.col(0))
    return StaircaseResult(u, tuple(s), (i_star, w3_rank), (m, w2_rank), coeffs3, coeffs2)


def _pivots_per_block(mats: Sequence[Matrix]) -> List[int]:
    """For each matrix, how many of its columns are pivot columns of
    concat_cols(mats), that is, lie outside the span of every column before
    them."""
    cat = concat_cols(mats)
    a, p = _work_rows(cat.field, cat.data)
    counts = [0] * len(mats)
    for c in _eliminate(a, cat.cols, p, False):
        counts[c // mats[0].cols] += 1
    return counts


def high_rank_slice(t: Tensor3) -> Tuple[int, int]:
    """A 3-slice of rank at least ceil(max(n1, n2) / n3), by pigeonhole on
    the pivot columns of the concatenated slices."""
    if not t.is_concise():
        raise NotConciseError("high_rank_slice needs a concise tensor")
    n1, n2, c = t.dims
    slices = t.slices(3)
    counts = _pivots_per_block(slices if n1 >= n2 else [a.transpose() for a in slices])
    best = max(range(c), key=lambda i: counts[i])
    need = -(-max(n1, n2) // c)
    got = rank(slices[best])
    if got < need:
        raise VerificationFailedError("pigeonhole slice has unexpectedly low rank")  # pragma: no cover
    return best, got


# -- diagonalization pipeline ---------------------------------------------------


def _diagonalize(w: _Working, s: int, kept: List[int]) -> List[int]:
    """Clear slice s off the diagonal on a subset of the indices `kept`, with
    tracked row and column operations that leave a diagonal slice unchanged
    on that subset; returns the subset, of size at least |kept| / 3.

    Each step takes the first active index h, clears row h with one column j
    and column h with one row i (i != j), and drops i and j.
    """
    f, a = w.f, w.slices[s]
    active = list(kept)
    prefix = []
    while active:
        h, rest = active[0], active[1:]
        drops = set()
        xs = [l for l in rest if not f.is_zero(a[h][l])]
        j = None
        if xs:
            j = xs[0]
            inv = f.inv(a[h][j])
            for l in xs[1:]:
                w.addmul(_COL, l, j, f.neg(f.mul(inv, a[h][l])))
            drops.add(j)
        ys = [l for l in rest if not f.is_zero(a[l][h])]
        ys_p = [l for l in ys if l != j]
        if ys_p:
            i = ys_p[0]
            inv = f.inv(a[i][h])
            for l in ys:
                if l not in (i, j):
                    w.addmul(_ROW, l, i, f.neg(f.mul(inv, a[l][h])))
            drops.add(i)
        prefix.append(h)
        active = [l for l in rest if l not in drops]
    if len(prefix) < -(-len(kept) // 3):
        raise VerificationFailedError("diagonalization kept fewer than d/3 indices")  # pragma: no cover
    return sorted(prefix)


def diagonalize_principal(field: Field, mats: Sequence[Matrix]):
    """Simultaneous sandwich transforms making all matrices diagonal on a
    principal submatrix of size at least 3^-(c-1) * n; the first matrix must
    be the identity and survives unchanged on the kept indices."""
    if not mats:
        raise ZeroSpanError("empty matrix collection")
    n = mats[0].rows
    if mats[0] != Matrix.identity(field, n):
        raise BadParamsError("diagonalize_principal expects mats[0] = Id")
    w = _Working(field, mats)
    kept = list(range(n))
    for s in range(1, len(mats)):
        kept = _diagonalize(w, s, kept)
    u_tot, v_t = w.matrices((_ROW, _COL))
    v_tot = v_t.transpose()
    c = len(mats)
    bound = -(-n // 3 ** (c - 1))
    if len(kept) < bound:
        raise VerificationFailedError(
            f"diagonalization kept {len(kept)} < {bound} indices"
        )  # pragma: no cover
    for m in mats:
        tr = u_tot.mul(m).mul(v_tot)
        for a in kept:
            for b in kept:
                if a != b and not field.is_zero(tr[a, b]):
                    raise VerificationFailedError("off-diagonal residue after diagonalization")
    idt = u_tot.mul(mats[0]).mul(v_tot)
    for a in kept:
        if idt[a, a] != field.one():
            raise VerificationFailedError("identity not preserved on kept indices")
    return u_tot, v_tot, kept


# -- support restriction (min-supp) ---------------------------------------------


def _supp(vec) -> frozenset:
    return frozenset(i for i, x in enumerate(vec) if x != 0 and x != Fraction(0))


def _span_vectors(field: Field, basis: Sequence[tuple]):
    """Projective enumeration of a vector subspace given by (possibly
    dependent) generators, over a finite field."""
    if not isinstance(field, PrimeField):
        raise InfiniteFieldError("cannot enumerate a subspace over the rationals")
    n = len(basis[0])
    rows = _reduce_rows(field, basis, n)
    refuse_over(projective_count(field.p, len(rows)), PROJECTIVE_GUARD, "subspace enumeration exceeds guard")
    terms = [(row,) for row in rows]
    for coeffs in projective_vectors(field.p, len(rows)):
        yield tuple(_combination(field, coeffs, terms)[0])


def minsupp_restrict(field: Field, basis: Sequence[tuple], c: Optional[int] = None):
    """Index set I with V_I nonzero and minsupp(V_I) >= maxsupp(V)/c.

    Runs the greedy set-building process with deterministic tie-breaking
    (lowest-index qualifying vector in a fixed enumeration of the subspace).
    """
    n = len(basis[0])
    dim = rank_of_rows(field, basis, n)
    if dim == 0:
        raise ZeroSpanError("minsupp restriction of the zero space")
    if c is None:
        c = dim
    if dim > c:
        raise BadParamsError(f"subspace dimension {dim} exceeds bound c = {c}")
    vectors = list(_span_vectors(field, basis))
    k = max(len(_supp(v)) for v in vectors)
    j: set = set()
    changed = True
    while changed:
        changed = False
        for v in vectors:
            new = _supp(v) - j
            if 0 < len(new) * c < k:
                j |= _supp(v)
                changed = True
                break
    i_set = [x for x in range(n) if x not in j]
    restricted = [tuple(v[x] for x in i_set) for v in vectors]
    if all(all(x == 0 for x in rv) for rv in restricted):
        raise VerificationFailedError("restricted space collapsed to zero")  # pragma: no cover
    min_supp = min(len(_supp(rv)) for rv in restricted if any(rv))
    if min_supp * c < k:
        raise VerificationFailedError("minsupp postcondition failed")  # pragma: no cover
    return i_set


def _reduce_rows(field: Field, rows: Sequence[tuple], n: int):
    """Independent row basis of a set of vectors of length n (rref rows)."""
    a, p = _work_rows(field, rows)
    return [tuple(row) for row in a[:len(_eliminate(a, n, p, True))]]


def _minsupp_argmin(field: Field, basis: Sequence[tuple]):
    """(value, vector) minimizing support size over nonzero span elements.

    GF(p): projective enumeration.  Q: recursion on single-coordinate
    kernels; any vector with a zero at a live coordinate i lies in the
    kernel of that coordinate, and a full-support vector always exists over
    an infinite field, so the minimum is found exactly.
    """
    n = len(basis[0])
    rows = _reduce_rows(field, basis, n)
    if not rows:
        raise ZeroSpanError("minsupp of the zero space")
    if isinstance(field, PrimeField):
        best, best_v = None, None
        for v in _span_vectors(field, rows):
            s = len(_supp(v))
            if best is None or s < best:
                best, best_v = s, v
                if best == 1:
                    break
        return best, best_v
    return _minsupp_argmin_q(field, rows, n)


def _minsupp_argmin_q(field: Field, rows: List[tuple], n: int):
    d = len(rows)
    live = [i for i in range(n) if any(r[i] != 0 for r in rows)]
    if d == 1:
        return len(_supp(rows[0])), tuple(rows[0])
    # full-support seed: sum_t t^i row_i avoids all coordinate kernels for
    # some t among (d-1)*|live|+1 candidates (Vandermonde root counting)
    terms = [(r,) for r in rows]
    seed = None
    for t in range(1, (d - 1) * len(live) + 2):
        tt = field.normalize(t)
        (vec,) = _combination(field, [tt ** i for i in range(d)], terms)
        if all(vec[i] != 0 for i in live):
            seed = vec
            break
    if seed is None:
        raise VerificationFailedError("no full-support seed among the Vandermonde candidates")
    best, best_v = len(live), tuple(seed)
    for i in live:
        sub = Matrix(field, [[r[i]] for r in rows], cols=1)
        ann = _annihilator(sub.transpose())
        kernel_rows = []
        for krow in ann.data:
            (vec,) = _combination(field, krow, terms)
            if any(x != 0 for x in vec):
                kernel_rows.append(tuple(vec))
        if kernel_rows:
            val, vec = _minsupp_argmin_q(field, _reduce_rows(field, kernel_rows, n), n)
            if val < best:
                best, best_v = val, vec
                if best == 1:
                    break
    return best, best_v


def minsupp_exact(field: Field, basis: Sequence[tuple]) -> int:
    """Exact minimum support size over nonzero vectors of the span."""
    return _minsupp_argmin(field, basis)[0]


def maxsupp_exact(field: Field, basis: Sequence[tuple]) -> int:
    """Exact maximum support size; over Q this is the number of live
    coordinates (a finite union of proper subspaces cannot cover the span)."""
    n = len(basis[0])
    rows = _reduce_rows(field, basis, n)
    if not rows:
        raise ZeroSpanError("maxsupp of the zero space")
    if isinstance(field, PrimeField):
        return max(len(_supp(v)) for v in _span_vectors(field, rows))
    return sum(1 for i in range(n) if any(r[i] != 0 for r in rows))


# -- basis extension -------------------------------------------------------------


def basis_extension(field: Field, mats: Sequence[Matrix], j_set: Sequence[int]):
    """Basis (B_1..B_b, B_{b+1}..B_c) of span(mats) with the first b
    restrictions to J x J linearly independent and the rest zero there."""
    reduced, _ = independent_basis(span_of(field, list(mats)))
    j_list = list(j_set)
    chosen, coords = column_basis(field, [m.submatrix(j_list, j_list).vectorize() for m in reduced])
    front = [reduced[i] for i in chosen]
    back = []
    for idx, (m, x) in enumerate(zip(reduced, coords)):
        if idx in chosen:
            continue
        m = combine(span_of(field, [m, *front]), [field.one(), *(field.neg(coef) for coef in x)])
        if not m.submatrix(j_list, j_list).is_zero():
            raise VerificationFailedError("basis extension residue on J x J")  # pragma: no cover
        back.append(m)
    return front, back


# -- the min-rank diagonalization pipeline ---------------------------------------


def epsilon(c: int) -> Fraction:
    """The pipeline's min-rank retention constant (1/c) * 3^-(c-1)."""
    if c < 1:
        raise BadParamsError("epsilon needs c >= 1")
    return Fraction(1, c * 3 ** (c - 1))


@dataclass(frozen=True)
class DiagMinrankResult:
    u: Matrix
    v: Matrix
    j_set: Tuple[int, ...]
    diag_basis: Tuple[Matrix, ...]
    zero_basis: Tuple[Matrix, ...]
    minrank_jj: int
    maxrank: int
    maxrank_exact: bool


def rank_normal_form(a: Matrix):
    """Invertible P, Q with P a Q = [[Id_k, 0], [0, 0]]; returns (P, Q, k)."""
    f = a.field
    res = rref(a)
    w = _Working(f, [res.rref])
    x = w.slices[0]
    for r, pc in enumerate(res.pivot_cols):
        for c in range(a.cols):
            if c != pc and not f.is_zero(x[r][c]):
                w.addmul(_COL, c, pc, f.neg(x[r][c]))
    # pivot columns first, in row order, then the free columns
    w.take(_COL, [*res.pivot_cols, *(c for c in range(a.cols) if c not in res.pivot_cols)])
    (q_t,) = w.matrices((_COL,))
    return res.transform, q_t.transpose(), res.rank


def minrk_diag_pipeline(span: SliceSpan, *, seed: int = 0) -> DiagMinrankResult:
    """Base changes U, V, an index set J and a split basis such that the
    basis restricted to J x J is diagonal with min-rank at least
    epsilon(c) * maxrank (and the rest restrict to zero)."""
    f = span.field
    reduced, _ = independent_basis(span)
    c = len(reduced)
    if c == 0:
        raise ZeroSpanError("pipeline on the zero span")
    red_span = span_of(f, reduced)
    exact = False
    if isinstance(f, PrimeField):
        try:
            k_val, wit = max_rank_exhaustive(red_span)
            exact = True
        except ResourceGuardError:
            k_val, wit = max_rank_randomized(red_span, 64, seed)
    else:
        k_val, wit = max_rank_randomized(red_span, 64, seed)
    a_star = combine(red_span, wit.coeffs)
    p, q, k = rank_normal_form(a_star)
    if k != k_val:
        raise VerificationFailedError(f"witness has rank {k}, not the max-rank {k_val}")
    # reorder basis to start with the max-rank element
    candidates = [a_star, *reduced]
    chosen, _ = column_basis(f, [m.vectorize() for m in candidates])
    basis = [candidates[i] for i in chosen]
    if len(basis) != c:
        raise VerificationFailedError("max-rank witness did not extend to a basis")
    transformed = [p.mul(m).mul(q) for m in basis]
    blocks = [m.submatrix(range(k), range(k)) for m in transformed]
    if blocks[0] != Matrix.identity(f, k):
        raise VerificationFailedError("rank normal form is not the identity block")
    u_k, v_k, kept = diagonalize_principal(f, blocks)
    diag_vectors = []
    for blk in blocks:
        tr = u_k.mul(blk).mul(v_k)
        diag_vectors.append(tuple(tr[i, i] for i in kept))
    if isinstance(f, PrimeField):
        i_rel = minsupp_restrict(f, diag_vectors, c)
    else:
        i_rel = _minsupp_restrict_exact_q(f, diag_vectors, c)
    j_set = tuple(kept[i] for i in i_rel)
    n1, n2 = span.shape
    u_full = _pad_block(f, u_k, n1).mul(p)
    v_full = q.mul(_pad_block(f, v_k, n2))
    final = [u_full.mul(m).mul(v_full) for m in basis]
    front, back = basis_extension(f, final, j_set)
    for m in front:
        sub = m.submatrix(j_set, j_set)
        for a in range(len(j_set)):
            for bcol in range(len(j_set)):
                if a != bcol and not f.is_zero(sub[a, bcol]):
                    raise VerificationFailedError("diag basis not diagonal on J x J")
    restricted_diags = [tuple(m.submatrix(j_set, j_set)[i, i] for i in range(len(j_set))) for m in front]
    minrank_jj = minsupp_exact(f, restricted_diags)
    eps = epsilon(c)
    if Fraction(minrank_jj) < eps * k:
        raise VerificationFailedError(
            f"pipeline min-rank {minrank_jj} below epsilon({c}) * {k}"
        )
    return DiagMinrankResult(
        u=u_full, v=v_full, j_set=j_set,
        diag_basis=tuple(front), zero_basis=tuple(back),
        minrank_jj=minrank_jj, maxrank=k, maxrank_exact=exact,
    )


def _minsupp_restrict_exact_q(field: Field, vectors: Sequence[tuple], c: int):
    """Greedy restriction over Q, driven by the exact argmin search: while
    the restricted space has a vector of support below k/c, absorb its full
    support into the removed set."""
    n = len(vectors[0])
    full_rows = _reduce_rows(field, vectors, n)
    if not full_rows:
        raise ZeroSpanError("minsupp restriction of the zero space")
    k = maxsupp_exact(field, full_rows)
    j: set = set()
    while True:
        i_set = [x for x in range(n) if x not in j]
        rows = _reduce_rows(field, [tuple(v[x] for x in i_set) for v in vectors], len(i_set))
        if not rows:
            raise VerificationFailedError("restricted space collapsed to zero")  # pragma: no cover
        val, vec = _minsupp_argmin(field, rows)
        if val * c >= k:
            return i_set
        # lift the witness back to a full vector via its coefficients
        coeffs = solve(Matrix(field, list(zip(*[tuple(r[x] for x in i_set) for r in full_rows])), cols=len(full_rows)), list(vec))
        if coeffs is None:
            raise VerificationFailedError("restricted witness does not lift to the full space")
        (full,) = _combination(field, coeffs, [(r,) for r in full_rows])
        new = _supp(full) - j
        if not new:
            raise VerificationFailedError("greedy restriction made no progress")  # pragma: no cover
        j |= _supp(full)


def _pad_block(field: Field, m: Matrix, n: int) -> Matrix:
    """Extend a k x k transform to n x n, identity on the complement."""
    k = m.rows
    z, o = field.zero(), field.one()
    return Matrix(field, [list(row) + [z] * (n - k) for row in m.data]
                  + [[o if j == i else z for j in range(n)] for i in range(k, n)], cols=n)


# -- mixed Kronecker products -----------------------------------------------------


def mixed_kron_count(b: int, c: int, m: int, l: int) -> int:
    return sum(comb(m, t) * b**t * (c - b) ** (m - t) for t in range(l, m + 1))


def mixed_kron_set(b_mats: Sequence[Matrix], c_mats: Sequence[Matrix], m: int, l: int):
    """All order-m Kronecker products of the given matrices with at least l
    factors drawn from b_mats, in lexicographic factor order.  Refused when the
    c^m products it visits, or the entries of those it keeps, pass `KRON_ENTRY_GUARD`."""
    if not (m >= l >= 1):
        raise BadParamsError("mixed_kron_set needs m >= l >= 1")
    all_mats = list(b_mats) + list(c_mats)
    b = len(b_mats)
    c = len(all_mats)
    if c == 0:
        raise ZeroSpanError("no factors")
    # the loop visits c^m products, so past the guard no count is formed
    refuse_over(capped_power(c, m, KRON_ENTRY_GUARD), KRON_ENTRY_GUARD,
                f"mixed kron set of {c} matrices at power {shown(m)} visits more than {{guard}} products")
    count = mixed_kron_count(b, c, m, l)
    rows, cols = all_mats[0].rows, all_mats[0].cols
    refuse_over(count * capped_power(rows * cols, m, KRON_ENTRY_GUARD), KRON_ENTRY_GUARD,
                f"mixed kron set of {count} matrices of shape {rows}^{m}x{cols}^{m} exceeds guard {{guard}}")
    out = []
    for combo in itertools.product(range(c), repeat=m):
        if sum(1 for i in combo if i < b) >= l:
            out.append(_kron_rows([all_mats[i] for i in combo]))
    if len(out) != count:
        raise VerificationFailedError("mixed kron count mismatch")  # pragma: no cover
    return out
