"""Order-3 tensors: slices, flattenings, conciseness, restriction, Kronecker
products, and the named-tensor catalog.

Entries are stored densely in lexicographic (i, j, k) order; constructors
accept sparse {(i, j, k): value} input.  All indices in the API are 0-based.

Restrictions and degenerations are applied by one kernel, `contract`, which
maps a tensor one leg at a time on packed rows: each row of an intermediate
tensor over its last leg is one Python int with one slot per index
(Kronecker substitution), wide enough that no sum reaches the next slot, so
one map term against one row is one integer multiply-add.  A certificate on
T^(x)m is checked by the same call with power=m: the first map is applied to
T one Kronecker factor at a time, so the power is never built, and only the
nonzero rows of T's slices that some column of the maps reads are packed.
KRON_ENTRY_GUARD still counts the dense entries (n1*n2*n3)^m of the power, as
when the power is built.  Its sums run on Python ints: over GF(p) on
unreduced residues, over Q fraction-free on numerators scaled by the lcm of
the denominators, with one division per output entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, Tuple

from . import _gf2
from .errors import (
    BadParamsError,
    IndexOutOfRangeError,
    MixedFieldsError,
    ShapeMismatchError,
    refuse_over,
    shown,
)
from .fields import Elem, Field, PrimeField
from .matrix import Matrix, column_basis, rank

# Dense tensors beyond this entry count are refused rather than thrashed.
KRON_ENTRY_GUARD = 1 << 24
_KRON_ENTRIES = "kronecker product would have {count} entries (guard {guard})"


class Tensor3:
    # _ranks keeps the flattening ranks once computed; equality and hashing
    # ignore it
    __slots__ = ("field", "dims", "entries", "_ranks")

    def __init__(self, field: Field, dims: Tuple[int, int, int], entries, *, normalize: bool = False):
        n1, n2, n3 = dims
        if n1 < 0 or n2 < 0 or n3 < 0:
            raise BadParamsError("negative dimension")
        size = n1 * n2 * n3
        if isinstance(entries, dict):
            z = field.zero()
            flat = [z] * size
            for (i, j, k), v in entries.items():
                if not (0 <= i < n1 and 0 <= j < n2 and 0 <= k < n3):
                    raise IndexOutOfRangeError(f"entry index {(i, j, k)} out of range")
                flat[(i * n2 + j) * n3 + k] = field.normalize(v)
            entries = tuple(flat)
        elif normalize:
            entries = tuple(field.normalize(x) for x in entries)
        else:
            entries = tuple(entries)
        if len(entries) != size:
            raise ShapeMismatchError(f"expected {size} entries, got {len(entries)}")
        self.field = field
        self.dims = (n1, n2, n3)
        self.entries = entries
        self._ranks = None

    @classmethod
    def zeros(cls, field: Field, dims: Tuple[int, int, int]) -> "Tensor3":
        return cls(field, dims, {})

    def __getitem__(self, ijk) -> Elem:
        i, j, k = ijk
        n1, n2, n3 = self.dims
        if not (0 <= i < n1 and 0 <= j < n2 and 0 <= k < n3):
            raise IndexOutOfRangeError(f"entry index {(i, j, k)} out of range")
        return self.entries[(i * n2 + j) * n3 + k]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor3)
            and other.field == self.field
            and other.dims == self.dims
            and other.entries == self.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.dims, self.entries))

    def __repr__(self) -> str:
        return f"Tensor3({self.field}, dims={self.dims}, nnz={len(self.support())})"

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for x in self.entries)

    def support(self):
        """Sorted list of (i, j, k) positions with nonzero coefficient."""
        return [pos for pos, _ in self.nonzero_items()]

    def nonzero_items(self):
        n1, n2, n3 = self.dims
        z = self.field.zero()
        idx = 0
        for i in range(n1):
            for j in range(n2):
                for k in range(n3):
                    v = self.entries[idx]
                    if v != z:
                        yield (i, j, k), v
                    idx += 1

    # -- slices and flattenings ---------------------------------------------

    def _slice_rows(self, direction: int, index: int, row_dir: int):
        """The rows of the `index`-th slice along `direction`, one per index
        of leg `row_dir`.  Each row is one stepped read of `entries` along
        the third leg, with the (i, j, k) layout's strides (n2*n3, n3, 1)."""
        if not 0 <= index < self._size(direction):
            raise IndexOutOfRangeError(f"{direction}-slice {index} out of range")
        n, e = self.dims, self.entries
        stride = (n[1] * n[2], n[2], 1)
        col_dir = 6 - direction - row_dir
        step, rs = stride[col_dir - 1], stride[row_dir - 1]
        start = index * stride[direction - 1]
        stop = start + n[col_dir - 1] * step
        return [e[start + a * rs: stop + a * rs: step] for a in range(n[row_dir - 1])]

    def _size(self, direction: int) -> int:
        """The dimension along `direction`, after the one check that it is 1, 2 or 3."""
        if direction not in (1, 2, 3):
            raise IndexOutOfRangeError(f"direction must be 1, 2 or 3, got {direction}")
        return self.dims[direction - 1]

    def slice(self, direction: int, index: int) -> Matrix:
        """The `index`-th slice along `direction` (1, 2 or 3).

        Row/column orientation follows the remaining directions in
        increasing order: 1-slices are (dir2 x dir3), 2-slices (dir1 x dir3),
        3-slices (dir1 x dir2).
        """
        rows = self._slice_rows(direction, index, 1 + (direction == 1))
        return Matrix(self.field, rows, cols=self.dims[2 - (direction == 3)])

    def slices(self, direction: int):
        return [self.slice(direction, i) for i in range(self._size(direction))]

    def flattening(self, direction: int) -> Matrix:
        """The n_i x (n_j * n_k) flattening, grouping the other two legs
        (j < k) in lexicographic column order: row i is the i-th slice along
        `direction`, read row by row."""
        row_dir = 1 + (direction == 1)
        rows = [tuple(chain.from_iterable(self._slice_rows(direction, i, row_dir)))
                for i in range(self._size(direction))]
        cols = math.prod(n for d, n in enumerate(self.dims, 1) if d != direction)
        return Matrix(self.field, rows, cols=cols)

    def flattening_rank(self, direction: int) -> int:
        return rank(self.flattening(direction))

    def flattening_ranks(self) -> Tuple[int, int, int]:
        """The three flattening ranks, computed once per tensor; over GF(2)
        on the packed word."""
        if self._ranks is None:
            if isinstance(self.field, PrimeField) and self.field.p == 2:
                self._ranks = _gf2.flattening_ranks(_gf2.pack(self.entries), self.dims)
            else:
                self._ranks = tuple(self.flattening_rank(d) for d in (1, 2, 3))
        return self._ranks

    def is_concise(self) -> bool:
        return self.flattening_ranks() == self.dims

    # -- structural operations ----------------------------------------------

    def is_symmetric(self) -> bool:
        """True iff cubical and invariant under all six leg permutations:
        equal 1- and 2-slices give the swap of the first two legs, equal 1-
        and 3-slices the 3-cycle, and the two generate the rest."""
        n1, n2, n3 = self.dims
        return n1 == n2 == n3 and self.slices(1) == self.slices(2) == self.slices(3)

    def kron(self, other: "Tensor3") -> "Tensor3":
        """Kronecker product; index pairing (outer, inner) -> outer*innerDim + inner."""
        if self.field != other.field:
            raise MixedFieldsError("kronecker product over mixed fields")
        d = tuple(a * b for a, b in zip(self.dims, other.dims))
        refuse_over(d[0] * d[1] * d[2], KRON_ENTRY_GUARD, _KRON_ENTRIES)
        f = self.field
        m1, m2, m3 = other.dims
        out: Dict[tuple, Elem] = {}
        for (i, j, k), v in self.nonzero_items():
            for (a, b, c), w in other.nonzero_items():
                out[(i * m1 + a, j * m2 + b, k * m3 + c)] = f.mul(v, w)
        return Tensor3(f, d, out)

    def kron_power(self, m: int) -> "Tensor3":
        power_dims(self, m)  # refuses what the loop below would refuse, first
        acc = self
        for _ in range(m - 1):
            acc = acc.kron(self)
        return acc


def guard_dims(dims: Tuple[int, int, int], what: str = "tensor") -> None:
    """Refuse a format from outside before anything is built: its dense
    entries n1*n2*n3 and each flattening width n_i*n_j are bounded by
    KRON_ENTRY_GUARD.  The widths matter when a dimension is 0: there are no
    entries, but a flattening still has one row or column per pair."""
    n1, n2, n3 = dims
    refuse_over(n1 * n2 * n3, KRON_ENTRY_GUARD, what + " would have {count} entries (guard {guard})")
    refuse_over(max(n1 * n2, n1 * n3, n2 * n3), KRON_ENTRY_GUARD,
                what + " would have a flattening of width {count} (guard {guard})")


def power_dims(t: Tensor3, m: int) -> Tuple[int, int, int]:
    """Dims of t^(x)m.  Raises what building the power raises: BadParamsError
    for m < 1, and ResourceGuardError at the first factor whose dense product
    would exceed KRON_ENTRY_GUARD entries.  Past m = 24 every tensor of two or
    more entries has tripped that guard, so larger m is refused for the rest
    too, before anything loops m times."""
    if m < 1:
        raise BadParamsError("kronecker power needs m >= 1")
    limit = KRON_ENTRY_GUARD.bit_length() - 1
    size = t.dims[0] * t.dims[1] * t.dims[2]
    total = size
    for _ in range(min(m, limit + 1) - 1):
        total *= size
        refuse_over(total, KRON_ENTRY_GUARD, _KRON_ENTRIES)
    refuse_over(m, limit, "kronecker power {count} exceeds the power limit {guard}")
    return tuple(n**m for n in t.dims)


def contract(t: Tensor3, legs, *, power: int = 1):
    """Apply one map per leg to t^(x)power, from t's nonzeros.

    legs[l] lists, for each source index of leg l + 1, the terms
    (row, exponent, coefficient) of that leg's map, or is None to leave the
    leg as it is.  The power is never stored; callers check the guard with
    `power_dims` first, and a power below 1 raises BadParamsError.  On a
    power the sparsest map goes first.

    Each row of the partial result over the last leg is one Python int,
    sum_K v_K * 2^(w*K) (Kronecker substitution).  The slot width w holds
    max|t|^power times each map's sum of |coefficient| (1 for None), the
    largest |sum| any step can form, plus a sign bit, so slots never
    interfere.

    The first leg's flattening of the power is the power-fold Kronecker
    product of t's, so the first map is applied one factor of t at a time,
    innermost first, with kron's index pairing outer * n + inner: a column
    I of the map meets the packed rows of t's slice at I's innermost digit,
    its row is set beside I's outer digits, and each further stage peels the
    next digit off that row and multiplies in that slice's rows, spread past
    the slots so far.  Only the nonzero rows of t whose digit some column of
    the second map reads are packed.  A term of the second map is one
    multiply-add on a row.  The third map's rows are packed in reverse, so
    the middle slot of a row times one of them is their dot product.

    Over GF(p) the sums run unreduced and are reduced once per output
    entry.  Over Q, t's values are scaled by the lcm D of their denominators
    (D^power on the power) and each leg's coefficients by that leg's own
    lcm, and each output entry is divided once by the product of the scales.
    Returns {exponent: {(a, b, c): value}} holding nonzero values only.
    """
    if power < 1:
        raise BadParamsError(f"contract needs power >= 1, got {power}")
    p = t.field.p if isinstance(t.field, PrimeField) else None
    vals = t.entries
    if not any(vals):
        return {}
    s = 0
    if power > 1:
        # start at the leg whose map has the fewest terms per source index,
        # so that the rows of the power shrink first; the output keys are
        # rotated back at the end
        s = min(range(3), key=lambda leg: _terms_per_index(legs[leg]))
    n1, n2, n3 = dims = t.dims
    stride = (n2 * n3, n3, 1)
    if s:
        legs = [*legs[s:], *legs[:s]]
        n1, n2, n3 = dims = dims[s:] + dims[:s]
        stride = stride[s:] + stride[:s]
    scale = 1
    if p is None:
        scale = _denominator_lcm(v for v in vals if v)
        vals = [_times(v, scale) if v else 0 for v in vals]
        scale **= power
    top = max(max(vals), -min(vals)) ** power
    maps = []
    for terms, n in zip(legs, dims):
        if terms is None:
            # the identity: each row holds one 1, so top stays as it is
            maps.append([[(x, 0, 1)] for x in range(n**power)])
            continue
        if p is None:
            terms, leg_scale = _integer_terms(terms)
            scale *= leg_scale
        total = 0
        for col in terms:
            for _, _, c in col:
                total += abs(c)
        top *= total
        maps.append(terms)
    first, second, third = maps
    w = top.bit_length() + 1
    # the first leg, innermost factor first: the key (e, row, j) carries in
    # row = a * n1^(power-1) + rest_digits the map's row a beside the
    # column's outer digits, which the later stages peel off innermost first
    outer = n1 ** (power - 1)
    rows = _packed_slices(vals, dims, stride, {i % n1 for i, col in enumerate(first) if col},
                          {jj % n2 for jj, col in enumerate(second) if col}, w)
    acc: Dict[tuple, int] = {}
    get = acc.get
    for col_index, col in enumerate(first):
        if col:
            rest_digits, x = divmod(col_index, n1)
            factor = rows[x]
            for a, e, c in col:
                row = a * outer + rest_digits
                for j, v in factor:
                    key = (e, row, j)
                    acc[key] = get(key, 0) + c * v
    inner2, inner3 = n2, n3
    for _ in range(power - 1):
        rows = _packed_slices(vals, dims, stride, range(n1),
                              {jj // inner2 % n2 for jj, col in enumerate(second) if col}, w * inner3)
        nxt: Dict[tuple, int] = {}
        get = nxt.get
        for (e, row, jj), v in acc.items():
            if v:
                row, x = divmod(row, n1)
                for j, u in rows[x]:
                    key = (e, row, j * inner2 + jj)
                    nxt[key] = get(key, 0) + v * u
        acc = nxt
        inner2 *= n2
        inner3 *= n3
    nxt = {}
    get = nxt.get
    for (e, a, jj), v in acc.items():
        if v:
            for b, x, c in second[jj]:
                key = (e + x, a, b)
                nxt[key] = get(key, 0) + c * v
    # the third map's rows, one per exponent: slot inner3 - 1 of a row times
    # one of them is their dot product
    low = w * (inner3 - 1)
    packed: Dict[tuple, int] = {}
    for kk, col in enumerate(third):
        shift = low - w * kk
        for c, x, coef in col:
            packed[x, c] = packed.get((x, c), 0) + (coef << shift)
    # adding half to each slot up to the middle one makes them nonnegative,
    # so the middle slot reads without a borrow from below
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    bias = half * (((1 << (low + w)) - 1) // mask)
    packed = packed.items()
    acc = {}
    get = acc.get
    for (e, a, b), v in nxt.items():
        if v:
            for (x, c), r in packed:
                dot = (((v * r + bias) >> low) & mask) - half
                if dot:
                    key = (e + x, a, b, c)
                    acc[key] = get(key, 0) + dot
    out: Dict[int, Dict[tuple, Elem]] = {}
    for (e, a, b, c), v in acc.items():
        if p:
            v %= p
        if v:
            # a, b and c index the legs s, s + 1 and s + 2
            key = (a, b, c)
            if s:
                key = key[-s:] + key[:-s]
            out.setdefault(e, {})[key] = v if p else Fraction(v, scale)
    return out


def _packed_slices(vals, dims, stride, xs, js, shift: int):
    """{x: rows} for the slices x in xs of the first leg, t's legs rotated
    to dims and stride: the nonzero rows j in js, each (j, sum_k v_k *
    2^(shift*k)) over the last leg."""
    _, n2, n3 = dims
    st1, st2, st3 = stride
    out = {}
    for x in xs:
        out[x] = factor = []
        for j in js:
            start = x * st1 + j * st2
            row = vals[start: start + n3 * st3: st3]
            if any(row):
                packed = 0
                for v in reversed(row):
                    packed = (packed << shift) + v
                factor.append((j, packed))
    return out


def _terms_per_index(terms) -> float:
    """A leg's terms per source index: 1 for the identity (None)."""
    return 1 if terms is None else sum(map(len, terms)) / max(len(terms), 1)


def _integer_terms(terms):
    """A leg's rational terms on ints, times the lcm of their denominators,
    and that lcm."""
    leg_scale = _denominator_lcm(c for col in terms for _, _, c in col)
    return [[(a, x, _times(c, leg_scale)) for a, x, c in col] for col in terms], leg_scale


def _denominator_lcm(values) -> int:
    return math.lcm(*(Fraction(v).denominator for v in values))


def _times(v, scale: int) -> int:
    """v * scale for a rational v whose denominator divides scale."""
    v = Fraction(v)
    return v.numerator * (scale // v.denominator)


def matrix_terms(m: Matrix):
    """Per column of m, its nonzero entries as (row, 0, value) terms: the
    exponent-0 case of a Laurent map, in the form `contract` takes."""
    f = m.field
    cols = [[] for _ in range(m.cols)]
    for a, row in enumerate(m.data):
        for i, v in enumerate(row):
            if not f.is_zero(v):
                cols[i].append((a, 0, v))
    return cols


def check_concise_format(n1: int, n2: int, n3: int) -> bool:
    """True iff each dimension is at most the product of the other two."""
    return n1 <= n2 * n3 and n2 <= n1 * n3 and n3 <= n1 * n2


# -- restrictions ------------------------------------------------------------


@dataclass(frozen=True)
class Restriction:
    """Linear maps (L1, L2, L3) witnessing source >= target.

    L_i has shape target_dims[i] x source_dims[i].
    """

    maps: Tuple[Matrix, Matrix, Matrix]

    @property
    def source_dims(self) -> Tuple[int, int, int]:
        return tuple(m.cols for m in self.maps)

    @property
    def target_dims(self) -> Tuple[int, int, int]:
        return tuple(m.rows for m in self.maps)

    @classmethod
    def identity(cls, field: Field, dims: Tuple[int, int, int]) -> "Restriction":
        return cls(tuple(Matrix.identity(field, n) for n in dims))

    def compose(self, inner: "Restriction") -> "Restriction":
        """self after inner: maps T -> inner -> self."""
        if inner.target_dims != self.source_dims:
            raise ShapeMismatchError("restriction composition shape mismatch")
        return Restriction(tuple(a.mul(b) for a, b in zip(self.maps, inner.maps)))

    def kron(self, other: "Restriction") -> "Restriction":
        return Restriction(tuple(a.kron(b) for a, b in zip(self.maps, other.maps)))


def apply_restriction(r: Restriction, t: Tensor3, *, power: int = 1) -> Tensor3:
    """(L1 (x) L2 (x) L3) applied to t^(x)power, streamed from t's nonzeros."""
    dims = power_dims(t, power)
    if r.source_dims != dims:
        raise ShapeMismatchError(
            f"restriction expects source dims {r.source_dims}, tensor has {dims}"
        )
    out = contract(t, [matrix_terms(m) for m in r.maps], power=power)
    return Tensor3(t.field, r.target_dims, out.get(0, {}))


def verify_restriction(r: Restriction, t: Tensor3, s: Tensor3, *, power: int = 1) -> bool:
    """Entrywise check that (L1 (x) L2 (x) L3) t^(x)power = s."""
    if r.target_dims != s.dims or r.source_dims != power_dims(t, power):
        return False
    return apply_restriction(r, t, power=power) == s


# -- conciseness reduction ----------------------------------------------------


def concise_reduce(t: Tensor3):
    """Reduce to an equivalent concise subtensor.

    Returns (s, down, up) with s concise, down mapping t to s and up mapping
    s back to t; both restrictions verify.  The zero tensor reduces to dims
    (0, 0, 0).
    """
    f = t.field
    if t.is_zero():
        s = Tensor3.zeros(f, (0, 0, 0))
        down = Restriction(tuple(Matrix.zeros(f, 0, n) for n in t.dims))
        up = Restriction(tuple(Matrix.zeros(f, n, 0) for n in t.dims))
        return s, down, up
    cur = t
    downs = []
    ups = []
    for direction in (1, 2, 3):
        # the greedy slice basis and every slice's coordinates in it
        chosen, coeffs = column_basis(f, [s.vectorize() for s in cur.slices(direction)])
        n = cur.dims[direction - 1]
        maps_d = [Matrix.identity(f, m) for m in cur.dims]
        maps_d[direction - 1] = Matrix.from_entries(f, len(chosen), n, {(a, i): f.one() for a, i in enumerate(chosen)})
        down_r = Restriction(tuple(maps_d))
        cur = apply_restriction(down_r, cur)
        maps_u = [Matrix.identity(f, m) for m in cur.dims]
        maps_u[direction - 1] = Matrix(f, coeffs)  # n x r, rows = coordinates
        downs.append(down_r)
        ups.append(Restriction(tuple(maps_u)))
    down = downs[2].compose(downs[1]).compose(downs[0])
    up = ups[0].compose(ups[1]).compose(ups[2])
    return cur, down, up


# -- catalog ------------------------------------------------------------------


# name -> (whether the constructor refuses the parameters, its message)
_REFUSALS = {
    "unit": (lambda r: r < 0, "unit tensor size must be nonnegative"),
    "matmul": (lambda a, b, c: min(a, b, c) < 1, "matmul tensor needs positive parameters"),
    "null_algebra": (lambda n: n < 1, "null_algebra needs n >= 1"),
    "gen_null_algebra": (lambda n, c: c < 1 or n % c != 0, "gen_null_algebra needs c >= 1 dividing n"),
    "balanced_pivot": (lambda n: n < 0 or math.isqrt(n) ** 2 != n, "balanced_pivot needs a perfect square n"),
}


def _check_params(name: str, *params: int) -> None:
    if name in _REFUSALS and _REFUSALS[name][0](*params):
        raise BadParamsError(_REFUSALS[name][1])


def unit(field: Field, r: int) -> Tensor3:
    """The diagonal unit tensor of size r."""
    _check_params("unit", r)
    return Tensor3(field, (r, r, r), {(i, i, i): field.one() for i in range(r)})


def matmul_tensor(field: Field, a: int, b: int, c: int) -> Tensor3:
    """Structure tensor of (a x b) by (b x c) matrix multiplication.

    Legs index the pairs (i,j) in [a]x[b], (j,k) in [b]x[c], (k,i) in [c]x[a],
    each in row-major order.
    """
    _check_params("matmul", a, b, c)
    ent = {}
    one = field.one()
    for i in range(a):
        for j in range(b):
            for k in range(c):
                ent[(i * b + j, j * c + k, k * a + i)] = one
    return Tensor3(field, (a * b, b * c, c * a), ent)


def null_algebra(field: Field, n: int) -> Tensor3:
    """Tensor with two slice directions of full max-rank and one of max-rank 2."""
    _check_params("null_algebra", n)
    one = field.one()
    ent = {(0, 0, 0): one}
    for i in range(1, n):
        ent[(0, i, i)] = one
        ent[(i, i, 0)] = one
    return Tensor3(field, (n, n, n), ent)


def gen_null_algebra(field: Field, n: int, c: int) -> Tensor3:
    """Generalization of null_algebra trading off two slice-span max-ranks.

    The two defining sums overlap in one term, so that entry carries
    coefficient 2 (which vanishes in characteristic 2).
    """
    _check_params("gen_null_algebra", n, c)
    one = field.one()
    ent: Dict[tuple, Elem] = {}

    def add(key):
        ent[key] = field.add(ent.get(key, field.zero()), one)

    for i in range(n):
        add((0, i, i))
    w = n // c
    for i in range(n):
        add((i, i % w, i // w))
    return Tensor3(field, (n, n, n), ent)


def balanced_pivot(field: Field, n: int) -> Tensor3:
    """Concise tensor with all slice-span max-ranks between sqrt(n) and 2 sqrt(n).

    Built from an injective pair map (f, g) fixed as the identity on the first
    sqrt(n) indices and row-major over the remaining off-diagonal pairs.
    """
    _check_params("balanced_pivot", n)
    s = math.isqrt(n)
    pairs = [(i, i) for i in range(s)]
    for a in range(s):
        for b in range(s):
            if a != b:
                pairs.append((a, b))
    fmap = {i: pairs[i][0] for i in range(n)}
    gmap = {i: pairs[i][1] for i in range(n)}
    one = field.one()
    ent: Dict[tuple, Elem] = {}

    def put(key):
        ent[key] = one

    for i in range(s):
        put((i, i, i))
    for i in range(s, n):
        put((i, fmap[i], gmap[i]))
        put((fmap[i], i, gmap[i]))
        put((fmap[i], gmap[i], i))
    return Tensor3(field, (n, n, n), ent)


def w_tensor(field: Field) -> Tensor3:
    """The 2x2x2 tensor with three off-diagonal unit terms."""
    one = field.one()
    return Tensor3(field, (2, 2, 2), {(0, 1, 1): one, (1, 0, 1): one, (1, 1, 0): one})


def _cube_dims(n: int, *_) -> Tuple[int, int, int]:
    return (n, n, n)


# name -> (constructor, parameter names, dims from the parameters)
CATALOG = {
    "unit": (unit, ("r",), _cube_dims),
    "matmul": (matmul_tensor, ("a", "b", "c"), lambda a, b, c: (a * b, b * c, c * a)),
    "null_algebra": (null_algebra, ("n",), _cube_dims),
    "gen_null_algebra": (gen_null_algebra, ("n", "c"), _cube_dims),
    "balanced_pivot": (balanced_pivot, ("n",), _cube_dims),
    "w_tensor": (w_tensor, (), lambda: (2, 2, 2)),
}


def catalog_dims(name: str, *params: int) -> Tuple[int, int, int]:
    """Dimensions of the named catalog tensor, after checking the name, the
    number of parameters and their values, which are refused as the
    constructor refuses them, without building anything."""
    if name not in CATALOG:
        raise BadParamsError(f"unknown catalog tensor {shown(name)} (have {sorted(CATALOG)})")
    _, argnames, dims_of = CATALOG[name]
    if len(params) != len(argnames):
        raise BadParamsError(f"{name} expects parameters {argnames}, got {shown(params)}")
    _check_params(name, *params)
    return dims_of(*params)


def catalog(field: Field, name: str, *params: int) -> Tensor3:
    """The named catalog tensor.  Raises ResourceGuardError, before any entry
    is built, when its format fails `guard_dims`."""
    guard_dims(catalog_dims(name, *params), f"catalog tensor {name}")
    return CATALOG[name][0](field, *params)


@dataclass(frozen=True)
class CatalogEntry:
    """Regression contract for a named tensor: expected invariant values
    that must reproduce under this library's own operations."""

    name: str
    params: Tuple[int, ...]
    dims: Tuple[int, int, int]
    flattening_ranks: Tuple[int, int, int]
    q_exact: Dict[int, int]  # direction -> exact slice-span max-rank
    q_upper: Dict[int, int]  # direction -> upper bound
    q_lower: Dict[int, int]  # direction -> lower bound
    subrank: "int | None" = None
    slicerank: "int | None" = None
    annotations: Tuple[str, ...] = ()


def catalog_entry(name: str, *params: int) -> CatalogEntry:
    """Expected invariants for a catalog tensor (see CatalogEntry).  The
    parameters are checked as `catalog_dims` checks them."""
    catalog_dims(name, *params)
    if name == "unit":
        (r,) = params
        return CatalogEntry(name, params, (r, r, r), (r, r, r),
                            {1: r, 2: r, 3: r}, {}, {}, subrank=r, slicerank=r)
    if name == "matmul":
        a, b, c = params
        dims = (a * b, b * c, c * a)
        return CatalogEntry(name, params, dims, dims, {}, {}, {},
                            annotations=("asymptotic diagonalization base min(ab, bc, ca) is classical",))
    if name == "null_algebra":
        (n,) = params
        ann = ()
        if n >= 5:
            ann = (f"literature: asymptotic value 2*sqrt({n}-1) = {2 * (n - 1) ** 0.5:.4f}",)
        return CatalogEntry(name, params, (n, n, n), (n, n, n),
                            {1: n, 2: 2, 3: n}, {}, {}, annotations=ann)
    if name == "gen_null_algebra":
        n, c = params
        return CatalogEntry(name, params, (n, n, n), (n, n, n),
                            {1: n}, {2: c + 1, 3: n // c + 1}, {})
    if name == "balanced_pivot":
        (n,) = params
        s = math.isqrt(n)
        return CatalogEntry(name, params, (n, n, n), (n, n, n),
                            {}, {d: 2 * s for d in (1, 2, 3)}, {d: s for d in (1, 2, 3)})
    if name == "w_tensor":
        return CatalogEntry(name, params, (2, 2, 2), (2, 2, 2),
                            {1: 2, 2: 2, 3: 2}, {}, {}, subrank=1, slicerank=2)
    raise BadParamsError(f"no catalog expectations for {shown(name)}")
