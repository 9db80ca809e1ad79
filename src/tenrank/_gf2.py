"""Bit-packed GF(2) kernels for the exhaustive small-format workloads.

Tensors of format (n1, n2, n3) over GF(2) are packed into integers with bit
index ((i*n2)+j)*n3+k; slices pack row-major.  These kernels are exact and
are cross-checked against the generic implementations in the test suite.

The packed unit-restriction search visits the map pairs that
`unit_pair_candidates` defines, the rule the generic search in `engine`
shares, with rows in word order, on a cached lane table only: it holds every
pair's image of each packed slice in one int, one lane per pair, so one pass
over the slices' XOR span tests all pairs at once.  The lane tables, with
the unit targets spread over every lane, are built once per format and r, on
first use.  At r = 1 the search's first pair is read off the slices instead
(`_first_unit_pair`).  Its witnesses, at every r, are checked by
`apply_bit_maps`, which uses none of the search's tables or helpers; its own
bounded cache of map columns (`_bit_columns`) is keyed by the map's rows
alone and holds no search data.

The span searches in `spans` pick these kernels over GF(2): `pack` packs a
span's matrices, `gf2_rref` reduces its basis, `gf2_rank` ranks each
combination and each cover's rows, and `_span` tabulates the XOR span of a
matrix's rows.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import List, Optional, Tuple


def pack(entries) -> int:
    """GF(2) entries as one int, entry k at bit k (x % 2).  A tensor's
    entries, or a matrix's rows chained, pack row-major; one matrix row
    packs as a bit row."""
    word = 0
    for bit, x in enumerate(entries):
        if x % 2:
            word |= 1 << bit
    return word


def unpack_entries(word: int, dims) -> Tuple[int, ...]:
    n = dims[0] * dims[1] * dims[2]
    return tuple((word >> b) & 1 for b in range(n))


def gf2_rank(rows: List[int]) -> int:
    """Rank of a list of bit-row vectors."""
    r = 0
    basis = []
    for row in rows:
        cur = row
        for b in basis:
            low = b & -b
            if cur & low:
                cur ^= b
        if cur:
            basis.append(cur)
            r += 1
    return r


def gf2_rref(rows: List[int]) -> List[int]:
    """Reduced echelon form of a list of bit-row vectors, zero rows dropped.

    A row's pivot is its lowest set bit; each pivot bit is set in its own
    row only, and rows come in increasing pivot order.  The reduced echelon
    form is unique, so this is the form `matrix._eliminate` reaches with
    the columns in bit order.
    """
    basis = {}  # pivot bit -> row
    for row in rows:
        for low, b in basis.items():
            if row & low:
                row ^= b
        if row:
            low = row & -row
            for k, b in basis.items():
                if b & low:
                    basis[k] = b ^ row
            basis[low] = row
    return [basis[k] for k in sorted(basis)]


def split_rows(word: int, rows: int, cols: int) -> List[int]:
    """The rows of a packed rows x cols matrix (entry (i, j) at bit i*cols + j)."""
    mask = (1 << cols) - 1
    return [(word >> (i * cols)) & mask for i in range(rows)]


def flattening_ranks(word: int, dims) -> Tuple[int, int, int]:
    n1, n2, n3 = dims
    # the direction-3 flattening has the rank of its transpose, whose rows
    # are the word's consecutive n3-bit fibres
    fibres = split_rows(word, n1 * n2, n3)
    # row j of the direction-2 flattening joins fibre (i, j) of every 1-slice
    # i at bit i*n3, built in one pass over the fibres
    rows2 = [0] * n2
    j = shift = 0
    for fibre in fibres:
        rows2[j] |= fibre << shift
        j += 1
        if j == n2:
            j, shift = 0, shift + n3
    return (gf2_rank(split_rows(word, n1, n2 * n3)), gf2_rank(rows2), gf2_rank(fibres))


def is_concise(word: int, dims) -> bool:
    return flattening_ranks(word, dims) == dims


def unit_pair_candidates(rows2, rows3, r: int, rank):
    """The (L2, L3) map pairs an exact size-r unit-restriction search visits.

    Given each leg's candidate rows in the search's row order and a rank
    function on tuples of rows: L2 runs over the full-rank increasing r-subsets
    of rows2 (itertools.combinations order), L3 over the full-rank r-tuples of
    rows3 (itertools.product order), L2 major.  Returns an iterator over L2
    and one over L3, so a caller builds only the lists it reads.  Why the
    first witness lies among these pairs is argued in
    `engine._unit_restriction_generic`.
    """
    return ((rows for rows in itertools.combinations(rows2, r) if rank(rows) == r),
            (rows for rows in itertools.product(rows3, repeat=r) if rank(rows) == r))


_TABLE_COST_CAP = 2_000_000


@lru_cache(maxsize=None)
def _lane_table(n2: int, n3: int, r: int):
    """The packed search's candidate pairs as (L2s, L3s, table, lows, spreads).

    table[S] packs L2 S L3^T for every pair, L2 major, as one int: pair p
    takes lane p, r*r data bits (row-major) and one zero guard bit above
    them; lows has bit 0 of every lane set, and spreads[a] = E_aa * lows
    holds the unit target E_aa in every lane.  S -> table[S] is linear, so
    each entry is the XOR of the entries of S's set bits; the entry of the
    single bit (j, k) holds, at bit b*r + c of a lane, L2[b][j] * L3[c][k].
    The table is built only when pairs * 2^(n2*n3) is small (the
    exhaustive-format workloads); otherwise table, lows and spreads are None
    and the generic search in `engine` runs instead.
    """
    l2s, l3s = map(tuple, unit_pair_candidates(range(1, 1 << n2), range(1, 1 << n3), r, gf2_rank))
    width = n2 * n3
    if width > 12 or len(l2s) * len(l3s) * (1 << width) > _TABLE_COST_CAP:
        return l2s, l3s, None, None, None
    lane = r * r + 1
    units = [0] * width
    for p, (l2, l3) in enumerate(itertools.product(l2s, l3s)):
        for (b, row2), (c, row3) in itertools.product(enumerate(l2), enumerate(l3)):
            bit = 1 << (p * lane + b * r + c)
            for j, k in itertools.product(range(n2), range(n3)):
                if (row2 >> j) & (row3 >> k) & 1:
                    units[j * n3 + k] |= bit
    table = [0] * (1 << width)
    for s in range(1, 1 << width):
        low = s & -s
        table[s] = table[s ^ low] ^ units[low.bit_length() - 1]
    pairs = len(l2s) * len(l3s)
    lows = ((1 << pairs * lane) - 1) // ((1 << lane) - 1)
    return l2s, l3s, table, lows, tuple(tgt * lows for tgt in _unit_targets(r))


@lru_cache(maxsize=None)
def _unit_targets(r: int) -> Tuple[int, ...]:
    """Packed r x r matrices E_aa for a in range(r), built once per r."""
    return tuple(1 << (a * r + a) for a in range(r))


@lru_cache(maxsize=4096)
def _bit_columns(rows: Tuple[int, ...], n: int, stride: int) -> Tuple[int, ...]:
    """The n columns of a bit-row map, with row a placed at bit a * stride.

    Kept in a bounded cache keyed by the map's rows alone: an entry is a
    pure function of its key, so the cache holds no search data."""
    cols = [0] * n
    place = 1
    for row in rows:
        for x in range(n):
            if (row >> x) & 1:
                cols[x] |= place
        place <<= stride
    return tuple(cols)


def apply_bit_maps(word: int, dims, maps) -> int:
    """The packed image of a packed tensor under bit-row maps (L1, L2, L3).

    Row a of a map is the bitmask of its nonzero source indices; the image
    has format (len(L1), len(L2), len(L3)).  It is the XOR, over the word's
    set bits (i, j, k), of c1 (x) c2 (x) c3 with c1, c2, c3 columns i, j, k
    of the three maps: the definition `tensor.contract` computes.  With row a
    of each column placed at its stride in the target word, c1 (x) c2 (x) c3
    is the integer product c1 * c2 * c3, since the shifted copies it sums
    never overlap.  No search table is read, so this checks the search's
    witness independently.
    """
    l1, l2, l3 = maps
    n1, n2, n3 = dims
    r3 = len(l3)
    cols2, cols3 = _bit_columns(tuple(l2), n2, r3), _bit_columns(tuple(l3), n3, 1)
    out = 0
    bit = 0
    for c1 in _bit_columns(tuple(l1), n1, len(l2) * r3):
        for c2 in cols2:
            for c3 in cols3:
                if (word >> bit) & 1:
                    out ^= c1 * c2 * c3
                bit += 1
    return out


@lru_cache(maxsize=None)
def bit_row(bits: int, n: int) -> Tuple[int, ...]:
    """An n-bit row as the tuple of its GF(2) entries, lowest bit first."""
    return tuple((bits >> j) & 1 for j in range(n))


def _span(trans) -> List[int]:
    """vals[m] = XOR of trans[i] over the set bits i of m, so an index that
    matches a target is itself the corresponding row of the solved map."""
    vals = [0]
    for tv in trans:
        vals += [v ^ tv for v in vals]
    return vals


def exists_unit_restriction_gf2(word: int, dims, r: int) -> Optional[tuple]:
    """Decide whether the packed tensor restricts to the size-r unit tensor,
    on a lane table (`engine.packed_applies`).  Returns (l1_rows, l2_rows,
    l3_rows) as bit-row tuples, or None: the first accepted pair of
    `_lane_search`, which at r = 1 is read off the slices (`_first_unit_pair`).
    """
    if r == 1:
        return _first_unit_pair(word, dims)
    return _lane_search(word, dims, r)


def _first_unit_pair(word: int, dims) -> Optional[tuple]:
    """`_lane_search`'s answer at r = 1, read off the 1-slices S_i.

    L2 runs over the nonzero y2 in word order, and the first with some
    y2^T S_i nonzero is 1 << j for the first row j that is nonzero in some
    slice, since smaller y2 combine rows below j only.  The first y3 that
    meets one of those rows oddly is the lowest set bit of their OR, since
    every smaller y3 lies below it.  L1 then solves y2^T S_i y3 = 1 in the
    slices' span, first in word order at 1 << i for the first slice i whose
    row j has that bit.
    """
    n1, n2, n3 = dims
    width, mask = n2 * n3, (1 << n3) - 1
    for j in range(n2):
        seen = 0
        for i in range(n1):
            seen |= word >> (i * width + j * n3)
        seen &= mask
        if seen:
            low = seen & -seen
            bit = j * n3 + low.bit_length() - 1
            i0 = next(i for i in range(n1) if (word >> (i * width + bit)) & 1)
            return ((1 << i0,), (1 << j,), (low,))
    return None


def _lane_search(word: int, dims, r: int) -> Optional[tuple]:
    """The lane-table search of `exists_unit_restriction_gf2`.

    Visits the map pairs of `unit_pair_candidates` with rows in word order
    (range(1, 1 << n)) and solves for leg 1 row by row in the XOR span of
    the transformed 1-slices, all pairs at once: the span is formed lane-wise,
    a lane stays in the running for E_aa if some span element equals E_aa
    there, and the lowest lane left after all r targets is the first
    accepted pair.
    """
    n1, n2, n3 = dims
    l2s, l3s, table, lows, spreads = _lane_table(n2, n3, r)
    guards = lows << (r * r)
    vals = _span([table[s] for s in split_rows(word, n1, n2 * n3)])
    accepted = guards
    for spread in spreads:
        # a lane's guard bit survives the subtraction unless the lane is 0,
        # that is unless the span element equals the target there
        missed = guards
        for v in vals:
            missed &= ((v ^ spread) | guards) - lows
        accepted &= ~missed
        if not accepted:
            return None
    lane = r * r + 1
    p = ((accepted & -accepted).bit_length() - 1) // lane
    mask, shift = (1 << (r * r)) - 1, p * lane
    lanes = [(v >> shift) & mask for v in vals]
    return (tuple(lanes.index(tgt) for tgt in _unit_targets(r)), l2s[p // len(l3s)], l3s[p % len(l3s)])
