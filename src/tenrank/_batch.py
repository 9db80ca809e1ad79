"""Vectorized exact kernels for GF(p) enumeration workloads.

Everything here is integer arithmetic mod p in numpy arrays; no floating
point is involved.  Elimination runs in int32: with p <= MAX_BATCH_PRIME =
2^15 every product of two residues stays below p^2 < 2^30.  Used by the
span-enumeration operations when the batch is large enough to amortize the
numpy overhead; the pure-Python paths in matrix.py/spans.py remain the
reference implementation.

numpy is imported only when an exhaustive rank search ranks 256 or more
combinations over GF(p), p <= 2^15.  The functions that use it import it
when called, so importing this module for `MAX_BATCH_PRIME`,
`projective_vectors` and `projective_count` does not load numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np

# p*p must stay inside int32 during elimination; desk-scale fields are tiny
MAX_BATCH_PRIME = 1 << 15


def inverse_table(p: int) -> np.ndarray:
    """inv[x] = x^-1 mod p for x in 1..p-1 (inv[0] unused)."""
    import numpy as np

    inv = np.zeros(p, dtype=np.int32)
    inv[1:] = [pow(x, p - 2, p) for x in range(1, p)]
    return inv


def batched_rank_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a (B, m, n) integer batch of matrices over GF(p), p <= MAX_BATCH_PRIME.

    Elimination runs one column at a time over the whole batch, along the
    shorter side.  Rows are not swapped: each matrix takes its first free row
    that is nonzero in the column as the pivot and clears that column from
    its other free rows; the rank is the number of rows taken.
    """
    import numpy as np

    if p > MAX_BATCH_PRIME:
        raise ValueError(f"prime {p} above MAX_BATCH_PRIME")
    if mats.ndim != 3:
        raise ValueError("expected a (B, m, n) array")
    a = mats % p
    if a.shape[2] > a.shape[1]:
        a = a.transpose(0, 2, 1)
    a = np.ascontiguousarray(a, dtype=np.int32)
    nb, m, n = a.shape
    inv = inverse_table(p)
    free = np.ones((nb, m), dtype=bool)
    at = np.arange(nb)
    for col in range(n):
        colv = a[:, :, col]
        cand = (colv != 0) & free
        first = np.argmax(cand, axis=1)
        free[at, first] &= ~cand[at, first]
        if col + 1 == n:
            break
        # rows without a pivot get factor 0: they have no free nonzero entry
        factors = np.where(free, colv, 0) * inv[colv[at, first]][:, None] % p
        rest = a[:, :, col + 1:]
        rest -= factors[:, :, None] * a[at, first, col + 1:][:, None, :]
        rest %= p
    return m - free.sum(axis=1)


def projective_vectors(q: int, dim: int, top: Optional[int] = None):
    """All nonzero coefficient vectors over GF(q) with leading coefficient 1.

    One representative per projective point: (q^dim - 1)/(q - 1) tuples,
    in a fixed deterministic order.  With `top` (1 <= top < q), only the grid
    {1} x {0..top}^(dim-1): the vectors with a leading 1 in position 0 and
    every later digit at most `top`, a subsequence of the same order.
    """
    from itertools import product

    digits = range(q if top is None else top + 1)
    for lead in range(dim if top is None else min(dim, 1)):
        for tail in product(digits, repeat=dim - lead - 1):
            yield (0,) * lead + (1,) + tail


def projective_count(q: int, dim: int) -> int:
    return (q**dim - 1) // (q - 1)


def projective_chunks(q: int, dim: int, top: Optional[int] = None):
    """projective_vectors(q, dim, top) as consecutive (n, dim) int64 blocks, in the same order.

    Each row is computed from its index: the block with leading 1 at
    position `lead` lists the numbers b^k .. 2b^k - 1 (k = dim - lead - 1)
    in base b = q, last position fastest.  With `top`, b = top + 1 and only
    the lead-0 block is listed: the grid {1} x {0..top}^(dim-1), whose row
    i is 1 followed by i in base top + 1.  The first block has 64 rows and
    each next one 4x as many, up to 4096 (4096 int32 6x6 matrices take
    0.6 MB, so a block's batch stays in cache), so a search that stops early
    builds only the rows it ranks.
    """
    import numpy as np

    base = q if top is None else top + 1
    place = base ** np.arange(dim - 1, -1, -1, dtype=np.int64)  # b^k for lead = 0 .. dim - 1
    count = base ** (dim - 1) if top is not None and dim else projective_count(q, dim)
    starts = np.cumsum(place) - place  # index of each lead's first row
    lo, size = 0, 64
    while lo < count:
        idx = np.arange(lo, min(count, lo + size), dtype=np.int64)
        lead = np.searchsorted(starts, idx, side="right") - 1
        yield (idx - starts[lead] + place[lead])[:, None] // place % base
        lo += size
        size = min(4 * size, 4096)


def projective_array(q: int, dim: int) -> np.ndarray:
    """projective_vectors as an (N, dim) int64 array: projective_chunks joined."""
    import numpy as np

    return np.concatenate([np.zeros((0, dim), dtype=np.int64), *projective_chunks(q, dim)])
