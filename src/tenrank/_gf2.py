"""Bit-packed GF(2) kernels for the exhaustive small-format workloads.

Tensors of format (n1, n2, n3) over GF(2) are packed into integers with bit
index ((i*n2)+j)*n3+k; slices pack row-major.  These kernels are exact and
are cross-checked against the generic implementations in the test suite.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import List, Optional, Tuple


def pack_tensor(entries, dims) -> int:
    word = 0
    for bit, v in enumerate(entries):
        if v:
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


def tensor_slices1(word: int, dims) -> Tuple[int, ...]:
    """1-slices as (n2*n3)-bit row-major words."""
    n1, n2, n3 = dims
    width = n2 * n3
    mask = (1 << width) - 1
    return tuple((word >> (i * width)) & mask for i in range(n1))


def flattening_ranks(word: int, dims) -> Tuple[int, int, int]:
    n1, n2, n3 = dims
    s1 = tensor_slices1(word, dims)
    r1 = gf2_rank(list(s1))
    rows2 = []
    for j in range(n2):
        row = 0
        bit = 0
        for i in range(n1):
            for k in range(n3):
                if (word >> ((i * n2 + j) * n3 + k)) & 1:
                    row |= 1 << bit
                bit += 1
        rows2.append(row)
    r2 = gf2_rank(rows2)
    rows3 = []
    for k in range(n3):
        row = 0
        bit = 0
        for i in range(n1):
            for j in range(n2):
                if (word >> ((i * n2 + j) * n3 + k)) & 1:
                    row |= 1 << bit
                bit += 1
        rows3.append(row)
    r3 = gf2_rank(rows3)
    return (r1, r2, r3)


def is_concise(word: int, dims) -> bool:
    return flattening_ranks(word, dims) == dims


@lru_cache(maxsize=None)
def _surjective_maps(r: int, n: int) -> Tuple[Tuple[int, ...], ...]:
    """All full-rank r x n GF(2) matrices as tuples of n-bit row words."""
    out = []
    for rows in itertools.product(range(1, 1 << n), repeat=r):
        if gf2_rank(list(rows)) == r:
            out.append(rows)
    return tuple(out)


def _apply_pair(slice_word: int, n2: int, n3: int, l2, l3, r: int) -> int:
    """L2 * S * L3^T for a packed (n2 x n3) slice; result packed r x r."""
    out = 0
    bit = 0
    for b in range(r):
        rowmask = l2[b]
        for c in range(r):
            colmask = l3[c]
            acc = 0
            for j in range(n2):
                if (rowmask >> j) & 1:
                    srow = (slice_word >> (j * n3)) & ((1 << n3) - 1)
                    acc ^= (srow & colmask)
            if bin(acc).count("1") & 1:
                out |= 1 << bit
            bit += 1
    return out


_TABLE_COST_CAP = 2_000_000


@lru_cache(maxsize=None)
def _pair_tables(n2: int, n3: int, r: int):
    """For each (L2, L3) pair: a lookup table from packed slice to packed
    transformed r x r slice.  Only built when the total table size is small
    (the exhaustive-format workloads); None entries mean "apply on the fly"."""
    l2s = _surjective_maps(r, n2)
    l3s = _surjective_maps(r, n3)
    width = n2 * n3
    build = width <= 12 and len(l2s) * len(l3s) * (1 << width) <= _TABLE_COST_CAP
    tables = []
    for l2 in l2s:
        for l3 in l3s:
            tbl = None
            if build:
                tbl = [_apply_pair(s, n2, n3, l2, l3, r) for s in range(1 << width)]
            tables.append((l2, l3, tbl))
    return tables


def _unit_targets(r: int) -> Tuple[int, ...]:
    """Packed r x r matrices E_aa for a in range(r)."""
    return tuple(1 << (a * r + a) for a in range(r))


def exists_unit_restriction_gf2(word: int, dims, r: int) -> Optional[tuple]:
    """Decide whether the packed tensor restricts to the size-r unit tensor.

    Enumerates surjective maps on legs 2 and 3 and solves for leg 1 row by
    row in the XOR span of the transformed 1-slices.  Returns
    (l1_rows, l2_rows, l3_rows) as bit-row tuples, or None.
    """
    n1, n2, n3 = dims
    if r > min(dims):
        return None
    if r == 0:
        return ((), (), ())
    slices = tensor_slices1(word, dims)
    targets = _unit_targets(r)
    size = 1 << n1
    vals = [0] * size
    for l2, l3, tbl in _pair_tables(n2, n3, r):
        if tbl is not None:
            trans = [tbl[s] for s in slices]
        else:
            trans = [_apply_pair(s, n2, n3, l2, l3, r) for s in slices]
        # vals[m] = XOR of transformed slices selected by bitmask m, so a
        # matching index is itself the corresponding row of the solved map
        for idx in range(n1):
            tv = trans[idx]
            step = 1 << idx
            if tv:
                for m in range(step):
                    vals[m | step] = vals[m] ^ tv
            else:
                for m in range(step):
                    vals[m | step] = vals[m]
        rows1 = []
        for tgt in targets:
            for m in range(size):
                if vals[m] == tgt:
                    rows1.append(m)
                    break
            else:
                rows1 = None
                break
        if rows1 is not None:
            return (tuple(rows1), l2, l3)
    return None
