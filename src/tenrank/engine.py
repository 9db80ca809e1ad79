"""Subrank and slice-rank oracles, constructive subrank lower bounds, and
the certified asymptotic bound aggregator.

Every constructive routine returns a certificate (an exact restriction or a
Laurent degeneration) that is re-verified before being returned; a
verification failure here is always a bug, never an expected condition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from operator import mul
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import _gf2
from .errors import (
    BadDimsError,
    BadParamsError,
    BelowThresholdError,
    InfiniteFieldError,
    NotConciseError,
    NotPivotMatchedError,
    PreconditionFailedError,
    ResourceGuardError,
    VerificationFailedError,
    WitnessInvalidError,
    ZeroSpanError,
    ZeroTensorError,
    capped_power,
    refuse_over,
    shown,
)
from .fields import Field, PrimeField
from .laurent import Degeneration, verify_degeneration
from .matrix import (_COL, _ROW, _SLICE, Matrix, _eliminate, _kron_rows, _product, _Working,
                     invert, rank_of_rows, rref, solve_all)
from .pivots import all_rho, rho_degeneration, sqrt_certificate
from .spans import (
    MaxRankWitness,
    SliceSpan,
    _cover_walk,
    _subspace_layer,
    combine,
    max_rank_exhaustive,
    max_rank_randomized,
    min_rank_exhaustive,
    minrk_diag_pipeline,
    mixed_kron_set,
    slice_span,
    span_of,
    subspace_pair_guard,
)
from .tensor import (
    KRON_ENTRY_GUARD,
    Restriction,
    Tensor3,
    apply_restriction,
    matmul_tensor,
    power_dims,
    verify_restriction,
)

PAIR_GUARD = 300_000
SLICERANK_GUARD = 2_000_000
# the tighter guards of `asymptotic_bounds`: map pairs of the subrank oracle,
# subspace pairs of the slice-rank oracle, projective combinations of each
# exhaustive max-rank search
BOUNDS_ORACLE_GUARD = 60_000
BOUNDS_SLICERANK_GUARD = 300_000
BOUNDS_SPAN_GUARD = 2_000_000


@dataclass(frozen=True)
class SubrankCertificate:
    """Witness that the source tensor's power-m Kronecker product restricts
    (or degenerates) to the unit tensor of size r."""

    kind: str  # "restriction" | "degeneration"
    r: int
    power: int
    restriction: Optional[Restriction] = None
    degeneration: Optional[Degeneration] = None

    def verify(self, t: Tensor3) -> bool:
        """Re-check the certificate against the base tensor through the one
        check `tenrank verify` replays, a restriction as its exponent-0
        degeneration.  Raises ResourceGuardError when the dense power would
        exceed the Kronecker entry guard: too large to check is not the same
        as invalid."""
        d = self.degeneration or Degeneration.from_restriction(self.restriction, self.r, self.power)
        return verify_degeneration(d, t, power=self.power)


def _count_full_rank(q: int, r: int, n: int) -> int:
    total = 1
    for i in range(r):
        total *= q**n - q**i
    return total


def _leading_one_rows(q: int, n: int) -> list:
    """The vectors of GF(q)^n whose first nonzero entry is 1, in
    itertools.product order."""
    return [v for v in itertools.product(range(q), repeat=n) if next((x for x in v if x), 0) == 1]


def _unit_candidates(f: PrimeField, n2: int, n3: int, r: int, word_order: bool):
    """(L3's candidate rows, the iterators of `_gf2.unit_pair_candidates`) on
    rows from `_leading_one_rows` or, with `word_order`, the nonzero GF(2)
    rows in the packed words' order."""
    rows2, rows3 = ([_gf2.bit_row(b, n) for b in range(1, 1 << n)] if word_order else _leading_one_rows(f.p, n)
                    for n in (n2, n3))
    return (rows3, *_gf2.unit_pair_candidates(rows2, rows3, r, lambda rows: rank_of_rows(f, rows, len(rows[0]))))


@lru_cache(maxsize=None)
def _generic_candidates(f: PrimeField, n2: int, n3: int, r: int, word_order: bool = False):
    """The generic search's L2 candidates and L3's candidate rows on one
    format, as tuples (`_unit_candidates`).  Built the first time a search
    passes its guard on the format and kept for the process; none is built
    at import."""
    rows3, l2s, _ = _unit_candidates(f, n2, n3, r, word_order)
    return tuple(l2s), tuple(rows3)


@lru_cache(maxsize=None)
def _unfiltered_l3s(f: PrimeField, n2: int, n3: int, r: int, word_order: bool = False) -> tuple:
    """Every L3 candidate of the format, in order, as a tuple: built only for
    a search whose L3 rows no filter cuts (n1 >= 2r - 1), and kept for the
    process.  On 2x3x4 over GF(11) at r = 2 it holds 2,141,832 tuples."""
    return tuple(_unit_candidates(f, n2, n3, r, word_order)[2])


def _filtered_rows(rows, groups, most: int, n: int, q: int) -> list:
    """The members y of `rows`, in order, whose matrix of rows [u . y for u
    in group], one per group, has rank at most `most` over GF(q).  At 0 that
    is a kernel test: a copy of all the groups' rows is reduced once, and
    each y is tested against the reduced rows only."""
    if most:
        return [y for y in rows if len(_eliminate([[sum(map(mul, u, y)) % q for u in g] for g in groups],
                                                  len(groups[0]), q, False)) <= most]
    constraints = [list(u) for g in groups for u in g]
    top = len(_eliminate(constraints, n, q, False))
    if top == n:
        return []
    basis = constraints[:top]
    return [v for v in rows if not any(sum(map(mul, u, v)) % q for u in basis)]


def _units_in_span(vecs: List[List[int]], r: int, p: int) -> bool:
    """Whether every E_aa (row-major, length r*r) lies in the span of `vecs`
    over GF(p).  The vectors are reduced in place to reduced echelon form; a
    unit vector lies in the span exactly when it is one of its rows."""
    top = len(_eliminate(vecs, r * r, p, True))
    basis = {tuple(v) for v in vecs[:top]}
    return all(tuple(int(c == a * (r + 1)) for c in range(r * r)) in basis for a in range(r))


def _unit_restriction_generic(t: Tensor3, r: int, guard: int) -> Optional[Restriction]:
    """Search (L2, L3) surjective pairs up to scaling and a shared row order,
    then solve for L1's rows together.

    A pair is accepted when every E_aa lies in span_i{L2 S_i L3^T}, with S_i
    the direction-1 slices.  Replacing (L2, L3) by (D P L2, D' P L3), with D,
    D' invertible diagonal and P one row permutation, only permutes and
    rescales the targets, so the accepted set is closed under these moves.
    The first accepted pair in the order of all full-rank pairs (L2 major,
    rows in itertools.product order) is therefore the least of its orbit: L2
    has increasing rows with leading entry 1 and L3 has rows with leading
    entry 1.  Only such pairs are enumerated (`_gf2.unit_pair_candidates`,
    which the lane-table search shares), in the same relative order, so the
    witness is the one the full search finds.  The guard still counts all
    full-rank pairs, so it refuses the same searches as before; it is
    checked before the format's candidate lists are built.  Those lists are
    built once per (field, n2, n3, r) and kept as tuples (`_generic_candidates`;
    the L3 list, `_unfiltered_l3s`, only where no filter below applies).
    On a bit format (`_bit_format`) rows run in word order with no guard, as
    on a lane table; L1 (free columns zero) is the smallest packed solution too.

    An accepted pair has an L1 of r independent rows killing every
    (L2 S_i L3^T)[b, c], b != c, so for fixed L2 and row c = y of L3 the
    vectors ((row b of L2 S_i) . y)_i, b != c, have rank at most n1 - r
    (`_filtered_rows`; at n1 = r, y is orthogonal to each such row b), which
    cuts the L3 rows when n1 < 2r - 1.  Only L3 candidates whose every row
    passes are visited, in order, each tested for full rank as it comes, so
    the first accepted pair is unchanged;
    `_units_in_span` still decides each visited pair.  L1 is solved for only
    on the accepted pair.
    """
    f = t.field
    n1, n2, n3 = t.dims
    q = f.p
    bits = _bit_format(f, t.dims, r)
    if not bits:  # the guard counts every full-rank (L2, L3)
        refuse_over(_count_full_rank(q, r, n2) * _count_full_rank(q, r, n3), guard,
                    "unit-restriction search over {count} map pairs exceeds guard {guard}")
    slices = t.slices(1)
    l2_choices, rows3 = _generic_candidates(f, n2, n3, r, bits)
    filtered = n1 < 2 * r - 1
    l3_choices = None if filtered else _unfiltered_l3s(f, n2, n3, r, bits)
    slice_cols = [list(zip(*s.data)) for s in slices]
    for l2_rows in l2_choices:
        left = [_product(l2_rows, cols, q) for cols in slice_cols]  # L2 S_i, once per L2
        if filtered:
            allowed = [_filtered_rows(rows3, [[m[b] for m in left] for b in range(r) if b != c], n1 - r, n3, q)
                       for c in range(r)]
            l3_visit = (l3 for l3 in itertools.product(*allowed) if rank_of_rows(f, l3, n3) == r)
        else:
            l3_visit = l3_choices
        for l3_rows in l3_visit:
            # vec(L2 S_i L3^T), row-major, one vector per slice, with _product's
            # dot product.  A _product call and a flatten per slice made this
            # loop about 30% slower, and small GF(3)/GF(5) subrank searches 7-14%.
            vecs = [[sum(map(mul, x, y)) % q for x in m for y in l3_rows] for m in left]
            if _units_in_span(vecs, r, q):
                l2, l3 = Matrix(f, l2_rows, cols=n2), Matrix(f, l3_rows, cols=n3)
                return _solve_first_leg(f, slices, l2, l3, r)
    return None


def _solve_first_leg(f: PrimeField, slices, l2: Matrix, l3: Matrix, r: int) -> Restriction:
    """L1's rows for an accepted (L2, L3): row a solves
    sum_i x_i * L2 S_i L3^T = E_aa, all r rows from one elimination."""
    l3t = l3.transpose()
    cols = [l2.mul(s).mul(l3t).vectorize() for s in slices]
    a_mat = Matrix(f, list(zip(*cols)), cols=len(slices))
    rows1 = solve_all(a_mat, [[int(c == a * (r + 1)) for c in range(r * r)] for a in range(r)])
    if None in rows1:
        raise VerificationFailedError("accepted map pair has no first-leg solution")  # pragma: no cover
    return Restriction((Matrix(f, rows1, cols=len(slices)), l2, l3))


def _bit_format(f: PrimeField, dims, r: int) -> bool:
    """Whether the size-r unit search runs on GF(2) rows in word order, with no pair guard."""
    n1, n2, n3 = dims
    return f.p == 2 and n1 <= 16 and r * n2 <= 12 and r * n3 <= 12


def packed_applies(f: PrimeField, dims, r: int) -> bool:
    """Whether the size-r unit-restriction search on this format runs on the
    packed GF(2) word (`packed_unit_restriction`): a bit format, with a lane
    table at r when r >= 2.  At r <= 1 no table is built: r = 1 reads its
    pair off the slices (`_gf2._first_unit_pair`).  It does for every r
    below as well."""
    return _bit_format(f, dims, r) and (r <= 1 or _gf2._lane_table(dims[1], dims[2], r)[2] is not None)


@lru_cache(maxsize=None)
def _packed_unit_word(r: int) -> int:
    """The packed size-r unit tensor, bits a * (r*r + r + 1), built once per r."""
    return sum(1 << a * (r * r + r + 1) for a in range(r))


def packed_unit_restriction(word: int, dims, r: int) -> Optional[tuple]:
    """The packed search's restriction of a packed GF(2) tensor onto the
    size-r unit tensor, as bit-row maps (`_gf2.exists_unit_restriction_gf2`),
    or None.  The one check of the packed search's witnesses: the maps'
    image (`_gf2.apply_bit_maps`) must be the packed size-r unit tensor
    (`_packed_unit_word`), before anything is built from them.
    """
    maps = _gf2.exists_unit_restriction_gf2(word, dims, r)
    if maps is None:
        return None
    if tuple(map(len, maps)) != (r, r, r) or _gf2.apply_bit_maps(word, dims, maps) != _packed_unit_word(r):
        raise VerificationFailedError("unit restriction failed to verify")
    return maps


def exists_unit_restriction(t: Tensor3, r: int, *, guard: int = PAIR_GUARD) -> Optional[Restriction]:
    """A restriction of t onto the size-r unit tensor, if one exists (`packed_applies` picks the path)."""
    if r < 0:
        raise BadParamsError(f"unit tensor size {r} must not be negative")
    if r == 0:
        return Restriction(tuple(Matrix.zeros(t.field, 0, n) for n in t.dims))
    if r > min(t.dims):
        return None
    f = t.field
    if not isinstance(f, PrimeField):
        raise InfiniteFieldError("exhaustive subrank search needs a finite field")
    if packed_applies(f, t.dims, r):
        maps = packed_unit_restriction(_gf2.pack(t.entries), t.dims, r)
        if maps is None:
            return None
        # the maps are checked; Matrix maps are built only for the certificate
        return Restriction(tuple(Matrix(f, [_gf2.bit_row(b, n) for b in rows], cols=n)
                                 for rows, n in zip(maps, t.dims)))
    res = _unit_restriction_generic(t, r, guard)
    if res is not None and not verify_degeneration(Degeneration.from_restriction(res, r), t):
        raise VerificationFailedError("unit restriction failed to verify")  # pragma: no cover
    return res


def subrank_exact(t: Tensor3, *, guard: int = PAIR_GUARD):
    """Exact subrank by decision search for r descending from min(dims).

    Returns (value, SubrankCertificate).  The search enumerates surjective
    maps on two legs and solves for the third leg linearly, so the value is
    exact; the witness restriction is verified before returning.  Both the
    lane-table GF(2) search and the generic one visit the map pairs only up
    to row scaling and a shared row order (`_gf2.unit_pair_candidates`; see
    `_unit_restriction_generic`), which finds the same first witness.  When
    n1 < 2r - 1 the generic search also visits only the L3s whose rows pass
    the rank test an accepted pair forces, which keeps that witness.
    Both build their candidate lists once per format and r, on first use.
    On a bit format (`_bit_format`) both visit GF(2) rows in word order and
    no guard is checked; elsewhere `guard` bounds the count of all full-rank
    pairs, before anything is built.  Lane-table witnesses are checked in
    `packed_unit_restriction`, which `word_oracles` (the GF(2) items of
    `tenrank scan`) calls too, generic ones by `verify_degeneration`.
    """
    if t.is_zero():
        return 0, SubrankCertificate("restriction", 0, 1, restriction=exists_unit_restriction(t, 0))
    for r in range(min(t.dims), 0, -1):
        res = exists_unit_restriction(t, r, guard=guard)
        if res is not None:
            return r, SubrankCertificate("restriction", r, 1, restriction=res)
    raise VerificationFailedError("nonzero tensor without a unit restriction")  # pragma: no cover


def _slicerank_settled(zero: bool, guard: Callable[[], None], ranks: Iterable[int]) -> Optional[int]:
    """The steps of `slicerank_exact` before any search, in order: the zero
    test, the subspace-pair guard (`guard()` raises when it refuses), then
    the flattening shortcut on `ranks`, which is read only past the guard.
    Returns the slice rank when these steps settle it, else None."""
    if zero:
        return 0
    guard()
    best = min(ranks)
    return best if best <= 2 else None


def _ranks_when_read(t: Tensor3):
    """t's flattening ranks, computed when first read."""
    yield from t.flattening_ranks()


def slicerank_guard(p: int, dims) -> Callable[[], None]:
    """`slicerank_exact`'s subspace-pair guard at its default on a GF(p)
    format, decided once: a no-op when it passes, else the check, which
    raises the refusal each time it is called."""
    check = partial(subspace_pair_guard, p, dims[0], dims[1], SLICERANK_GUARD)
    try:
        check()
    except ResourceGuardError:
        return check
    return lambda: None


def slicerank_exact(t: Tensor3, *, guard: int = SLICERANK_GUARD) -> int:
    """Exact slice rank: the smallest a1 + a2 + a3 over subspace triples
    covering the tensor.

    Only V1 is enumerated here and contracted with the tensor: for each V1
    the direction-1 slices S_r of ann(V1) * T are formed once.  The rest of
    the slice rank is the cover number of those slices, the smallest
    dim V2 + dim W with W the row span of ann(V2) * S_r, which
    `spans._cover_walk` searches below the best total left (only the total is
    read).  V1 and its annihilator come from the cached layers of
    `spans._subspace_layer`.  The guard counts the (V1, V2) subspace pairs;
    it and the refusal over Q come first.

    The slice rank is at most every flattening rank, so the search starts
    from the smallest.  A nonzero tensor has slice rank 1 exactly when a
    flattening has rank 1 (T = u (x) M on that leg), so when the smallest
    flattening rank is at most 2 it is the slice rank and nothing is searched.
    These first steps, after the refusal over Q, are `_slicerank_settled`,
    which `word_oracles` shares.
    """
    f = t.field
    if not isinstance(f, PrimeField):
        raise InfiniteFieldError("exhaustive slice rank needs a finite field")
    n1, n2, n3 = t.dims
    q = f.p
    settled = _slicerank_settled(t.is_zero(), partial(subspace_pair_guard, q, n1, n2, guard), _ranks_when_read(t))
    if settled is not None:
        return settled
    best = min(t.flattening_ranks())
    # the columns of the n1 x (n2 * n3) flattening, so ann(V1) * T is one _product call
    fibers = list(zip(*t.flattening(1).data))
    for a1 in range(n1 + 1):
        if a1 >= best:
            break
        for _, ann in _subspace_layer(q, n1, a1):
            s_cols = [[row[k::n3] for k in range(n3)] for row in _product(ann, fibers, q)]
            cover = _cover_walk(f, s_cols, n2, n3, best - a1, 0)
            if cover is not None:
                best = a1 + cover[0]
    return best


def word_oracles(f: PrimeField, dims, guard: Callable[[], None], word: int) -> Tuple[int, int, Tuple[int, int, int]]:
    """(subrank, slice rank, flattening ranks) of a packed GF(2) tensor, for
    a format with packed_applies(f, dims, min(dims)): the values
    `subrank_exact` and `slicerank_exact` give on its `Tensor3`.  `guard` is
    the format's `slicerank_guard`.

    The flattening ranks come from `_gf2.flattening_ranks`.  A restriction
    cannot raise a flattening rank, and those of the size-r unit tensor are
    r, so the subrank search runs `packed_unit_restriction` (witness check
    included) for r descending from the smallest.  The slice rank takes the
    steps of `_slicerank_settled`; only when they leave it open is a
    `Tensor3` built, for `slicerank_exact`.  No `Matrix` is built otherwise.
    """
    ranks = _gf2.flattening_ranks(word, dims)
    sub = min(ranks)
    while sub and packed_unit_restriction(word, dims, sub) is None:
        sub -= 1
    if word and not sub:
        raise VerificationFailedError("nonzero tensor without a unit restriction")  # pragma: no cover
    sr = _slicerank_settled(not word, guard, ranks)
    if sr is None:
        sr = slicerank_exact(Tensor3(f, dims, _gf2.unpack_entries(word, dims)))
    return sub, sr, ranks


# -- elimination proofs on tracked slices -------------------------------------------


def subrank_from_minrank(t: Tensor3, slice_indices: Sequence[int], *,
                         check_precondition: bool = True) -> SubrankCertificate:
    """Verified restriction onto the unit tensor of size c from c named
    3-slices with min-rank at least 2c(c-1), by inductive elimination with
    tracked row/column deletions."""
    f = t.field
    c = len(slice_indices)
    if c == 0:
        raise BadParamsError("need at least one slice")
    mats = [t.slice(3, i) for i in slice_indices]
    prechecked = False
    if check_precondition:
        vecs = [m.vectorize() for m in mats]
        if rank_of_rows(f, vecs, len(vecs[0])) < c:
            raise PreconditionFailedError("named slices are linearly dependent")
        if c > 1 and isinstance(f, PrimeField):
            try:
                mr, _ = min_rank_exhaustive(span_of(f, mats))
                if mr < 2 * c * (c - 1):
                    raise PreconditionFailedError(
                        f"min-rank {mr} below threshold {2 * c * (c - 1)}"
                    )
                prechecked = True
            except ResourceGuardError:
                pass

    n3 = t.dims[2]
    w = _Working(f, t.slices(3), [[f.one() if k == idx else f.zero() for k in range(n3)]
                                  for idx in slice_indices])
    x, rows, cols = w.slices, w.maps[_ROW], w.maps[_COL]

    def fail(msg):
        if prechecked:
            raise VerificationFailedError(msg)  # pragma: no cover
        raise PreconditionFailedError(msg)

    for i in range(c):
        found = w.find(i, range(i, len(rows)), range(i, len(cols)))
        if found is None:
            fail(f"slice {i} vanished during elimination")
        w.swap(_ROW, i, found[0])
        w.swap(_COL, i, found[1])
        w.scale(_SLICE, i, f.inv(x[i][i][i]))
        w.clear(_ROW, i, i, i, range(i + 1, len(rows)))
        w.clear(_COL, i, i, i, range(i + 1, len(cols)))
        for s in range(c):
            if s == i:
                continue
            v = x[s][i][i]
            if not f.is_zero(v):
                w.addmul(_SLICE, s, i, f.neg(v))
            # clear row i of slice s with a helper column, then remove it;
            # the same for column i with a helper row
            helper = w.find(s, [i], range(i + 1, len(cols)))
            if helper is not None:
                w.clear(_COL, s, i, helper[1], range(i + 1, len(cols)))
                w.delete(_COL, helper[1])
            helper = w.find(s, range(i + 1, len(rows)), [i])
            if helper is not None:
                w.clear(_ROW, s, i, helper[0], range(i + 1, len(rows)))
                w.delete(_ROW, helper[0])
        if len(rows) < c or len(cols) < c:
            fail("ran out of rows or columns during elimination")
    w.take(_ROW, range(c))
    w.take(_COL, range(c))
    cert = SubrankCertificate("restriction", c, 1, restriction=Restriction(w.matrices((_ROW, _COL, _SLICE))))
    if not cert.verify(t):
        fail("eliminated slices do not form the unit tensor")
    return cert


def subrank_c2(t: Tensor3) -> SubrankCertificate:
    """Verified subrank-2 certificate for a concise tensor with third
    dimension 2 and both other dimensions above 2.

    Follows the constructive case analysis: bring the first slice to
    diagonal form, then split on its rank to reach a 2x2x2 configuration
    that reduces to the unit tensor.
    """
    n1, n2, n3 = t.dims
    if n3 != 2 or n1 <= 2 or n2 <= 2:
        raise BadDimsError(f"need dims (n1, n2, 2) with n1, n2 > 2, got {t.dims}")
    if not t.is_concise():
        raise NotConciseError("the dimension-2 construction needs a concise tensor")
    f = t.field
    w = _Working(f, t.slices(3))
    x = w.slices

    if rank_of_rows(f, x[0], n2) == 1:
        w.swap(_SLICE, 0, 1)
    # diagonalize slice 0 to [[Id_r, 0], [0, 0]]
    r = 0
    for col in range(n2):
        sel = w.find(0, range(r, n1), [col])
        if sel is None:
            continue
        w.swap(_ROW, r, sel[0])
        w.scale(_ROW, r, f.inv(x[0][r][col]))
        w.clear(_ROW, 0, col, r, range(n1))
        r += 1
        if r == n1:
            break
    # clear non-pivot columns, then move pivots onto the diagonal
    for a in range(r):
        w.clear(_COL, 0, a, w.find(0, [a], range(n2))[1], range(n2))
    for a in range(r):
        w.swap(_COL, a, w.find(0, [a], range(n2))[1])

    if 1 < r < min(n1, n2):
        _c2_case_middle_rank(w, r)
    elif r == min(n1, n2):
        _c2_case_full_rank(w, r)
    else:
        raise VerificationFailedError(f"unexpected first-slice rank {r}")  # pragma: no cover
    cert = SubrankCertificate("restriction", 2, 1, restriction=Restriction(w.matrices((_ROW, _COL, _SLICE))))
    if not cert.verify(t):
        raise VerificationFailedError("dimension-2 construction failed to verify")
    return cert


def _c2_case_middle_rank(w: _Working, r: int):
    """1 < rank < min(n1, n2): use a nonzero below-block entry of slice 2."""
    f, x = w.f, w.slices
    n1, n2 = len(w.maps[_ROW]), len(w.maps[_COL])

    below, cols = range(r, n1), [b for b in range(n2) if b != r - 1]
    spot = w.find(1, below, cols)
    if spot is None:
        # all bottom support sits in column r-1: swap it with another
        # diagonal index (rows and columns together keep slice 0 intact)
        w.swap(_ROW, 0, r - 1)
        w.swap(_COL, 0, r - 1)
        spot = w.find(1, below, cols)
        if spot is None:
            raise VerificationFailedError("no usable entry below the diagonal block")  # pragma: no cover
    a, b = spot
    w.scale(_ROW, a, f.inv(x[1][a][b]))
    w.clear(_ROW, 1, b, a, [r - 1])
    w.take(_ROW, [r - 1, a])
    w.take(_COL, [r - 1, b])
    # slices now [[1,0],[0,0]] and [[t,0],[s,1]]
    w.clear(_COL, 1, 1, 1, [0])
    t_val = x[1][0][0]
    if not f.is_zero(t_val):
        w.addmul(_SLICE, 1, 0, f.neg(t_val))


def _c2_case_full_rank(w: _Working, r: int):
    """rank = min(n1, n2) >= 3: either an off-diagonal entry of slice 2
    exists, or slice 2 is diagonal and two diagonal values differ."""
    f, x = w.f, w.slices
    n1, n2 = len(w.maps[_ROW]), len(w.maps[_COL])
    off = None
    for a in range(n1):
        for b in range(n2):
            if a != b and not f.is_zero(x[1][a][b]):
                off = (a, b)
                break
        if off:
            break
    if off is not None:
        i0, j0 = off
        k = next(y for y in range(r) if y not in (i0, j0))
        t_val = x[1][i0][j0]
        w.take(_ROW, [i0, k])
        w.take(_COL, [j0, k])
        w.swap(_ROW, 0, 1)
        w.swap(_COL, 0, 1)
        # slices: [[1,0],[0,0]] and [[*,*],[*,t]]
        w.scale(_SLICE, 1, f.inv(t_val))
        w.clear(_COL, 1, 1, 1, [0])
        w.clear(_ROW, 1, 1, 1, [0])
        rem = x[1][0][0]
        if not f.is_zero(rem):
            w.addmul(_SLICE, 1, 0, f.neg(rem))
        return
    # slice 2 diagonal: two diagonal entries differ by linear independence
    pair = None
    for a in range(r):
        for b in range(a + 1, r):
            if x[1][a][a] != x[1][b][b]:
                pair = (a, b)
                break
        if pair:
            break
    if pair is None:
        raise VerificationFailedError("slice 2 is a multiple of slice 1")  # pragma: no cover
    i0, j0 = pair
    a_val = x[1][i0][i0]
    b_val = x[1][j0][j0]
    w.take(_ROW, [i0, j0])
    w.take(_COL, [i0, j0])
    d = f.sub(a_val, b_val)
    alpha = f.neg(f.div(b_val, d))
    beta = f.div(f.one(), d)
    gamma = f.div(a_val, d)
    delta = f.neg(f.div(f.one(), d))
    w.slice_transform([[alpha, beta], [gamma, delta]])


# -- matmul-form witnesses and Kronecker-square/cube compositions ------------------


def _matmul_form_tensor(field: Field, direction: int, r: int) -> Tensor3:
    """The rank-r matmul form: dims (r, r, r) with 1 in `direction`, and the
    entries (k, k) on the other two legs."""
    legs = (1, 2, 3)
    return Tensor3(field, tuple(1 if d == direction else r for d in legs),
                   {tuple(0 if d == direction else k for d in legs): field.one() for k in range(r)})


def _check_form_input(t: Tensor3, direction: int, witness: MaxRankWitness) -> None:
    """Refuse a direction outside 1-3, or a witness whose coefficient count is not that direction's slice count."""
    if direction not in (1, 2, 3):
        raise BadParamsError(f"direction {direction} is not 1, 2 or 3")
    if len(witness.coeffs) != t.dims[direction - 1]:
        raise WitnessInvalidError(f"witness has {len(witness.coeffs)} coefficients for {t.dims[direction - 1]} slices")


def matmul_form_restriction(t: Tensor3, direction: int, witness: MaxRankWitness,
                            r: Optional[int] = None) -> Restriction:
    """Restriction of t onto the rank-r single-direction matmul form, from a
    slice-span witness of rank >= r in the given direction."""
    _check_form_input(t, direction, witness)
    rd, cd = [x for x in (1, 2, 3) if x != direction]
    return _matmul_form(t, direction, witness, witness.rank if r is None else r, slice_span(t, rd, cd))


def _matmul_form(t: Tensor3, direction: int, witness: MaxRankWitness, r: int,
                 span: SliceSpan) -> Restriction:
    """`matmul_form_restriction` on the slice span of `direction`, built once
    by the caller."""
    f = t.field
    rd, cd = span.orientation
    w = combine(span, witness.coeffs)
    res = rref(w)
    if res.rank < r:
        raise WitnessInvalidError(f"witness rank {res.rank} below requested {r}")
    p = Matrix(f, [res.transform.data[i] for i in range(r)], cols=w.rows)
    sel = Matrix.from_entries(f, r, w.cols, {(a, res.pivot_cols[a]): f.one() for a in range(r)})
    coeff_map = Matrix(f, [list(witness.coeffs)], cols=len(witness.coeffs))
    legs: List[Optional[Matrix]] = [None, None, None]
    legs[direction - 1] = coeff_map
    legs[rd - 1] = p
    legs[cd - 1] = sel
    restr = Restriction(tuple(legs))
    if not verify_restriction(restr, t, _matmul_form_tensor(f, direction, r)):
        raise VerificationFailedError("matmul-form restriction failed")  # pragma: no cover
    return restr


def two_direction_square(t: Tensor3, i: int, j: int,
                         wit_i: MaxRankWitness, wit_j: MaxRankWitness,
                         r: Optional[int] = None) -> SubrankCertificate:
    """Verified restriction of the Kronecker square onto the unit tensor of
    size r = min(witness ranks), from witnesses in two distinct directions."""
    if i == j:
        raise BadParamsError("directions must differ")
    if r is None:
        r = min(wit_i.rank, wit_j.rank)
    if r < 1:
        raise WitnessInvalidError("witness ranks must be positive")
    _check_form_input(t, i, wit_i)
    _check_form_input(t, j, wit_j)
    return _square_of_forms(t, i, j, matmul_form_restriction(t, i, wit_i, r),
                            matmul_form_restriction(t, j, wit_j, r), r)


def _square_of_forms(t: Tensor3, i: int, j: int, form_i: Restriction, form_j: Restriction,
                     r: int) -> SubrankCertificate:
    """The verified square composition of matmul-form restrictions in
    directions i and j, each of rank at least r: the rank-r forms are their
    rows < r on the two legs other than their direction."""
    power_dims(t, 2)  # the guard the check below would trip, before the maps are built
    k = ({1, 2, 3} - {i, j}).pop()
    # leg i of the product pairs form_i's one coefficient row with row b < r of
    # form_j, leg j the reverse; leg k carries pairs (a, b) in [r] x [r] and
    # keeps a == b
    rows = {i: [(0, b) for b in range(r)], j: [(a, 0) for a in range(r)], k: [(a, a) for a in range(r)]}
    maps = [_kron_rows([x, y], rows[leg]) for leg, x, y in zip((1, 2, 3), form_i.maps, form_j.maps)]
    cert = SubrankCertificate("restriction", r, 2, restriction=Restriction(tuple(maps)))
    if not cert.verify(t):
        raise VerificationFailedError("square composition failed to verify")
    return cert


def mamu_cube(t: Tensor3, wit1: MaxRankWitness, wit2: MaxRankWitness, wit3: MaxRankWitness):
    """Verified restriction of the Kronecker cube onto the matmul tensor
    (q2, q3, q1), plus the implied asymptotic bound base min_{i!=j} q_i q_j
    (whose value leans on the known asymptotic subrank of matmul tensors and
    is therefore literature-backed, not certificate-backed)."""
    f = t.field
    q1, q2, q3 = wit1.rank, wit2.rank, wit3.rank
    r2 = matmul_form_restriction(t, 2, wit2)
    r3 = matmul_form_restriction(t, 3, wit3)
    r1 = matmul_form_restriction(t, 1, wit1)
    power_dims(t, 3)  # the guard the check below would trip, before the maps are built
    # leg 3 of the product carries triples (i, 0, k) in [q2] x [1] x [q1]; the
    # matmul tensor wants (k, i) row-major
    leg3 = [(i, 0, k) for k in range(q1) for i in range(q2)]
    restr = Restriction(tuple(_kron_rows([x, y, z], leg3 if leg == 3 else None)
                              for leg, x, y, z in zip((1, 2, 3), r2.maps, r3.maps, r1.maps)))
    target = matmul_tensor(f, q2, q3, q1)
    if not verify_restriction(restr, t, target, power=3):
        raise VerificationFailedError("cube composition failed to verify")
    bound = min(q1 * q2, q1 * q3, q2 * q3)
    return restr, bound


# -- the narrow-tensor pipeline -----------------------------------------------------


def compute_n_threshold(c: int) -> int:
    """Smallest dimension threshold for the narrow pipeline: the size
    condition (eps(c) * n / c)^(1/(2c)) >= c^2 for all powers, i.e.
    n >= c^(4c+2) * 3^(c-1)."""
    if c < 2:
        raise BadParamsError("threshold defined for c >= 2")
    return c ** (4 * c + 2) * 3 ** (c - 1)


def narrow_certificate(t: Tensor3, m: int) -> SubrankCertificate:
    """Verified restriction of the m-th Kronecker power onto a unit tensor
    of size at least ceil(c^m / 2), for concise tensors of format
    (n1, n2, c) with a large enough wide dimension.

    Composes the min-rank pipeline with the mixed Kronecker products and the
    elimination construction, checking every intermediate bound.  For c >= 2
    the threshold needs max(n1, n2) >= c^(4c+2) * 3^(c-1) (3072 at c = 2) and
    m >= 8c, so (n1 * n2)^m is far above `tensor.KRON_ENTRY_GUARD` (2^24)
    and every input past the threshold is refused by the guard: only c = 1
    yields a certificate.  `_narrow_certificate_inner` runs the composition
    itself on toy tensors below the threshold.
    """
    n1, n2, c = t.dims
    if not t.is_concise():
        raise NotConciseError("narrow pipeline needs a concise tensor")
    f = t.field
    if c == 1:
        # any nonzero tensor restricts to <1>; amplify to the requested power
        power_dims(t, m)  # the guard the check below would trip, before the maps are built
        pos, val = next(iter(t.nonzero_items()))
        one = f.one()
        maps = []
        for leg, n in enumerate(t.dims):
            maps.append(Matrix.from_entries(f, 1, n, {(0, pos[leg]): one}))
        maps[0] = maps[0].scale(f.inv(val))
        restr = Restriction(tuple(_kron_rows([leg] * m) for leg in maps))
        cert = SubrankCertificate("restriction", 1, m, restriction=restr)
        if not cert.verify(t):
            raise VerificationFailedError("trivial narrow certificate failed")  # pragma: no cover
        return cert
    threshold = compute_n_threshold(c)
    if max(n1, n2) < threshold:
        raise BelowThresholdError(
            f"narrow pipeline needs max(n1, n2) >= {threshold}, have {max(n1, n2)}"
        )
    if m < 8 * c:
        raise BadParamsError(f"narrow pipeline needs power m >= {8 * c}")
    # c^m slices of n1^m * n2^m entries each; past the threshold (n1 * n2)^m
    # alone exceeds the guard, whatever the count of mixed products
    refuse_over(max(capped_power(c, m, KRON_ENTRY_GUARD), capped_power(n1 * n2, m, KRON_ENTRY_GUARD)),
                KRON_ENTRY_GUARD, f"narrow pipeline at power {shown(m)} needs about {c}^{shown(m)} slices of "
                f"shape {n1}^{shown(m)} x {n2}^{shown(m)}; exceeds guard {{guard}}")
    return _narrow_certificate_inner(t, m, -(-m // (2 * c)))


def _narrow_certificate_inner(t: Tensor3, m: int, ell: int):
    f = t.field
    c = t.dims[2]
    span = slice_span(t, 1, 2)
    dm = minrk_diag_pipeline(span)
    y = mixed_kron_set(dm.diag_basis, dm.zero_basis, m, ell)
    need = -(-(c**m) // 2)
    if len(y) < need:
        raise VerificationFailedError(f"|Y| = {len(y)} below {need}")
    yspan = span_of(f, y)
    mr, _ = min_rank_exhaustive(yspan)
    if mr < 2 * len(y) * (len(y) - 1):
        raise PreconditionFailedError(
            f"mixed products min-rank {mr} below 2|Y|(|Y|-1)"
        )
    # build the tensor with 3-slices Y and the restriction onto it
    all_b = list(dm.diag_basis) + list(dm.zero_basis)
    coeffs = Matrix(f, _basis_coefficients(f, span, dm, all_b), cols=c)
    combos = [combo for combo in itertools.product(range(len(all_b)), repeat=m)
              if sum(1 for i in combo if i < len(dm.diag_basis)) >= ell]
    to_y = Restriction((_kron_rows([dm.u] * m), _kron_rows([dm.v.transpose()] * m),
                        _kron_rows([coeffs] * m, combos)))
    t_y = apply_restriction(to_y, t, power=m)
    cert_inner = subrank_from_minrank(t_y, list(range(len(y))), check_precondition=False)
    final = cert_inner.restriction.compose(to_y)
    cert = SubrankCertificate("restriction", len(y), m, restriction=final)
    if not cert.verify(t):
        raise VerificationFailedError("narrow certificate failed to verify")  # pragma: no cover
    return cert


def _basis_coefficients(f: Field, span: SliceSpan, dm, all_b: List[Matrix]):
    """Coefficients of each pipeline basis matrix over the oriented slices."""
    inv_u = invert(dm.u)
    inv_v = invert(dm.v)
    originals = [m.vectorize() for m in span.basis]
    basis_mat = Matrix(f, list(zip(*originals)), cols=len(originals))
    out = solve_all(basis_mat, [inv_u.mul(bm).mul(inv_v).vectorize() for bm in all_b])
    if None in out:
        raise VerificationFailedError("pipeline basis matrix outside the slice span")  # pragma: no cover
    return out


# -- bound aggregation ----------------------------------------------------------


@dataclass(frozen=True)
class Bound:
    """An asymptotic bound of the form base^(1/root)."""

    base: Fraction
    root: int
    method: str
    provenance: str  # "certificate" | "exact-oracle" | "literature"
    certificate: Optional[SubrankCertificate] = None

    def approx(self) -> float:
        return float(self.base) ** (1.0 / self.root)

    def at_least(self, other: "Bound") -> bool:
        """Exact comparison self >= other."""
        return self.base**other.root >= other.base**self.root


@dataclass
class BoundsReport:
    dims: Tuple[int, int, int]
    field_tag: str
    concise: bool
    flattening_ranks: Tuple[int, int, int]
    q_values: Dict[int, Tuple[int, str]]
    rho_values: Dict[Tuple[int, int], int]
    subrank: Optional[int]
    slicerank: Optional[int]
    lower_candidates: List[Bound]
    asymptotic_lower: Optional[Bound]
    asymptotic_upper: int
    skipped: List[str]
    annotations: List[str]

    def to_text(self) -> str:
        lines = [
            f"tensor {self.dims[0]}x{self.dims[1]}x{self.dims[2]} over {self.field_tag}",
            f"concise: {self.concise}",
            f"flattening ranks: {self.flattening_ranks}",
        ]
        for d in sorted(self.q_values):
            v, how = self.q_values[d]
            lines.append(f"slice-span max-rank Q_{d} = {v} ({how})")
        for (i, j) in sorted(self.rho_values):
            lines.append(f"pivot cover rho_{i}{j} = {self.rho_values[(i, j)]}")
        if self.subrank is not None:
            lines.append(f"subrank = {self.subrank} (exact)")
        if self.slicerank is not None:
            lines.append(f"slice rank = {self.slicerank} (exact)")
        for b in self.lower_candidates:
            lines.append(
                f"lower candidate: {b.base}^(1/{b.root}) ~ {b.approx():.4f}"
                f" via {b.method} [{b.provenance}]"
            )
        if self.asymptotic_lower is not None:
            bl = self.asymptotic_lower
            lines.append(
                f"asymptotic subrank >= {bl.base}^(1/{bl.root}) ~ {bl.approx():.4f}"
                f" via {bl.method} [{bl.provenance}]"
            )
        lines.append(f"asymptotic subrank <= {self.asymptotic_upper} (min flattening rank)")
        for s in self.skipped:
            lines.append(f"skipped: {s}")
        for a in self.annotations:
            lines.append(f"note: {a}")
        return "\n".join(lines)

    def to_kv(self) -> str:
        parts = [
            f"dims={self.dims[0]},{self.dims[1]},{self.dims[2]}",
            f"field={self.field_tag}",
            f"concise={int(self.concise)}",
            f"flattening_ranks={self.flattening_ranks[0]},{self.flattening_ranks[1]},{self.flattening_ranks[2]}",
        ]
        for d in sorted(self.q_values):
            v, how = self.q_values[d]
            parts.append(f"q{d}={v}")
            parts.append(f"q{d}_method={how}")
        for (i, j) in sorted(self.rho_values):
            parts.append(f"rho{i}{j}={self.rho_values[(i, j)]}")
        if self.subrank is not None:
            parts.append(f"subrank={self.subrank}")
        if self.slicerank is not None:
            parts.append(f"slicerank={self.slicerank}")
        if self.asymptotic_lower is not None:
            bl = self.asymptotic_lower
            parts.append(f"lower_base={bl.base}")
            parts.append(f"lower_root={bl.root}")
            parts.append(f"lower_method={bl.method}")
            parts.append(f"lower_provenance={bl.provenance}")
        parts.append(f"upper={self.asymptotic_upper}")
        return "\n".join(parts)


def asymptotic_bounds(t: Tensor3) -> BoundsReport:
    """Certified interval for the asymptotic subrank with per-bound
    provenance.  Individual bounds that are inapplicable or too expensive
    are skipped with a reason; partial reports are normal."""
    f = t.field
    skipped: List[str] = []
    annotations: List[str] = []
    ranks = t.flattening_ranks()
    concise = ranks == t.dims
    candidates: List[Bound] = []
    q_values: Dict[int, Tuple[int, str]] = {}
    rho_values: Dict[Tuple[int, int], int] = {}
    subrank_val = None
    slicerank_val = None

    if t.is_zero():
        return BoundsReport(
            t.dims, f.tag, False, ranks, {}, {}, 0, 0, [],
            Bound(Fraction(0), 1, "zero tensor", "exact-oracle"), 0, [], [],
        )

    # slice-span max-ranks: exhaustive where possible, else randomized
    # verified lower bounds (the witness rank is checked, so downstream
    # certificates stay sound either way)
    witnesses: Dict[int, MaxRankWitness] = {}
    slice_spans: Dict[int, SliceSpan] = {}
    for d in (1, 2, 3):
        rd, cd = [x for x in (1, 2, 3) if x != d]
        span = slice_spans[d] = slice_span(t, rd, cd)
        try:
            v, wit = max_rank_exhaustive(span, guard=BOUNDS_SPAN_GUARD)
            q_values[d] = (v, "exhaustive")
            witnesses[d] = wit
        except (InfiniteFieldError, ResourceGuardError) as exc:
            skipped.append(f"exhaustive Q_{d}: {exc}")
            v, wit = max_rank_randomized(span, trials=32, seed=7 * d)
            if v > 0:
                q_values[d] = (v, "randomized lower bound")
                witnesses[d] = wit

    # exact oracles
    # r = min(dims) is tried first and has the most map pairs, so the guard
    # refuses a search before it starts; Q raises InfiniteFieldError
    try:
        subrank_val, cert = subrank_exact(t, guard=BOUNDS_ORACLE_GUARD)
        candidates.append(Bound(Fraction(subrank_val), 1, "exhaustive subrank search",
                                "exact-oracle", cert))
    except InfiniteFieldError:
        skipped.append("exact subrank oracle: needs a finite field")
    except ResourceGuardError:
        skipped.append("exact subrank oracle: search space above guard")
    try:
        slicerank_val = slicerank_exact(t, guard=BOUNDS_SLICERANK_GUARD)
    except InfiniteFieldError:
        skipped.append("exact slice rank oracle: needs a finite field")
    except ResourceGuardError:
        skipped.append("exact slice rank oracle: search space above guard")

    # pivot cover degeneration: rho <= border <= asymptotic
    try:
        rho_values = all_rho(t)
        best_or = max(rho_values, key=lambda k: rho_values[k])
        d = rho_degeneration(t, *best_or)
        candidates.append(Bound(
            Fraction(d.claimed_r), 1,
            f"pivot cover degeneration, orientation {best_or}",
            "certificate",
            SubrankCertificate("degeneration", d.claimed_r, 1, degeneration=d),
        ))
    except (ZeroTensorError, ZeroSpanError, ResourceGuardError) as exc:
        skipped.append(f"pivot degeneration: {exc}")

    # two-direction square and matmul cube from the three full-rank matmul-form
    # restrictions, each built and verified once
    if len(witnesses) == 3:
        forms: Dict[int, object] = {}
        for d in (1, 2, 3):
            try:
                forms[d] = _matmul_form(t, d, witnesses[d], witnesses[d].rank, slice_spans[d])
            except WitnessInvalidError as exc:
                forms[d] = exc

        def form(d: int) -> Restriction:
            if isinstance(forms[d], WitnessInvalidError):
                raise forms[d]
            return forms[d]

        pairs = [(1, 2), (1, 3), (2, 3)]
        i, j = max(pairs, key=lambda p: min(witnesses[p[0]].rank, witnesses[p[1]].rank))
        try:
            cert = _square_of_forms(t, i, j, form(i), form(j), min(witnesses[i].rank, witnesses[j].rank))
            candidates.append(Bound(Fraction(cert.r), 2,
                                    "diagonal extraction on the Kronecker square",
                                    "certificate", cert))
        except (WitnessInvalidError, ResourceGuardError) as exc:
            skipped.append(f"square composition: {exc}")
        # the power-3 restriction onto matmul (q2, q3, q1) that `mamu_cube`
        # builds is the Kronecker product of the three verified forms, so its
        # base min(q_i q_j) holds without building it; the power-3 guard still
        # decides whether the candidate is listed
        try:
            for d in (2, 3, 1):  # mamu_cube's order: its first failing form names the line
                form(d)
            power_dims(t, 3)
            q1, q2, q3 = (witnesses[d].rank for d in (1, 2, 3))
            candidates.append(Bound(Fraction(min(q1 * q2, q1 * q3, q2 * q3)), 3,
                                    "matmul restriction on the Kronecker cube",
                                    "literature"))
        except (WitnessInvalidError, ResourceGuardError) as exc:
            skipped.append(f"cube composition: {exc}")

    # sqrt path for pivot-matched cubical tensors
    if concise and t.dims[0] == t.dims[1] == t.dims[2]:
        try:
            d = sqrt_certificate(t)  # it runs is_pivot_matched's test on its own pivot bases
            candidates.append(Bound(
                Fraction(d.claimed_r), 2, "paired-pivot degeneration on the square",
                "certificate",
                SubrankCertificate("degeneration", d.claimed_r, 2, degeneration=d),
            ))
        except NotPivotMatchedError:
            skipped.append("sqrt path: not pivot-matched in the given basis")
        except ResourceGuardError as exc:
            skipped.append(f"sqrt path: {exc}")

    # slice-rank based bounds
    if slicerank_val is not None and slicerank_val > 0:
        sr = slicerank_val
        candidates.append(Bound(Fraction(3 * sr * sr, 64), 3,
                                "cover-number comparison via the Kronecker cube",
                                "literature"))
        candidates.append(Bound(Fraction(sr * sr, 16), 3,
                                "cover-number comparison, asymptotic variant",
                                "literature"))

    upper = min(ranks)
    best = None
    for b in candidates:
        if best is None or b.at_least(best):
            best = b
    if best is not None and best.base > 0:
        if Fraction(upper) ** best.root < best.base:
            raise VerificationFailedError(
                f"lower bound {best.base}^(1/{best.root}) exceeds upper {upper}"
            )  # pragma: no cover
    if subrank_val is not None and slicerank_val is not None:
        annotations.append(f"chain: subrank {subrank_val} <= slice rank {slicerank_val}"
                           f" <= min flattening rank {upper}")
    return BoundsReport(
        dims=t.dims, field_tag=f.tag, concise=concise,
        flattening_ranks=ranks, q_values=q_values, rho_values=rho_values,
        subrank=subrank_val, slicerank=slicerank_val,
        lower_candidates=candidates, asymptotic_lower=best,
        asymptotic_upper=upper, skipped=skipped, annotations=annotations,
    )
