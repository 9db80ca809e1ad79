"""The four benchmark workloads: bounds, scan, covers and replay.

A workload turns a seed into rounds of items.  Every item is drawn from a
fixed pool whose members are generated from constant pool seeds, so the
reference output of every pool member can be recorded once
(``make_reference.py``) and checked on every run.  The benchmark seed
chooses the members of the cheap, numerous item classes (and the order of
the scan); the costly classes walk their pool in a fixed order.

Each workload calls the library only through public functions.  ``run`` is
the timed part of an item; ``check`` compares its output with the reference
and returns a failure reason or None.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from tenrank import cli, engine, spans, tensor
from tenrank import io as tio
from tenrank import pivots
from tenrank.fields import GF, QQ
from tenrank.matrix import Matrix
from tenrank.tensor import Tensor3


def digest(text: str) -> str:
    """Short content digest used for reference outputs."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Item:
    key: str  # reference key: identifies the pool member
    kind: str  # item class, for reports
    payload: tuple


class Workload:
    name = ""
    rounds = 1  # rounds of items in a timed run
    passes = 2  # times a timed run runs its items; each item keeps its best time
    rounds_traced = 1  # rounds in each phase of a traced run

    def __init__(self, seed: int, scratch_dir: str, max_items: Optional[int] = None):
        self.seed = seed
        self.scratch_dir = scratch_dir
        self.max_items = max_items  # truncates rounds, for smoke tests
        self._rounds: Dict[int, List[Item]] = {}

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.name, self.seed) + parts))

    def items(self, r: int) -> List[Item]:
        if r not in self._rounds:
            self._rounds[r] = self.make_round(r)[:self.max_items]
        return self._rounds[r]

    def make_round(self, r: int) -> List[Item]:
        raise NotImplementedError

    def pick(self, rng: random.Random, r: int, pool: int, count: int, seeded: bool) -> List[int]:
        """Pool indices for one class in round r.

        Seeded classes draw from the pool.  The other classes, the costly ones
        with few items in a run, walk their pool in a fixed order, so every
        run times the same members whatever its seed; drawing them would make
        a run's totals hinge on which few members it drew.
        """
        if seeded:
            return rng.sample(range(pool), count)
        return [(r * count + j) % pool for j in range(count)]

    def warm_up(self) -> None:
        """Run untimed calls so lazy imports and caches fill before timing."""

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out, ref: dict) -> Optional[str]:
        raise NotImplementedError

    def summary(self, out):
        """The part of a checked output that check_all needs."""
        return True

    def check_all(self, done: List[Tuple[Item, object]], ref: dict) -> List[str]:
        """Checks over the whole run, on summaries; returns failure reasons."""
        return []

    @classmethod
    def reference(cls, log=None) -> dict:
        """Reference outputs of every pool member (slow; see make_reference.py)."""
        raise NotImplementedError


def _pool_rng(*parts) -> random.Random:
    return random.Random("pool:" + ":".join(str(p) for p in parts))


def _dims_tag(dims) -> str:
    return "x".join(str(d) for d in dims)


# -- bounds ---------------------------------------------------------------------

F11 = GF(11)
BOUNDS_CATALOG = (
    ("null_algebra", 5),
    ("gen_null_algebra", 6, 2),
    ("balanced_pivot", 4),
    ("matmul", 2, 2, 2),
    ("unit", 4),
    ("w_tensor",),
)
# Random concise GF(11) formats: (dims, items per round, drawn by the seed).
# The counts put the median item in the middle of the 30-55 ms group (the
# three small catalog tensors and the 3x3x2 ones) and p75 in the middle of
# the 0.12-0.3 s group (null_algebra 5 and the 2x3xk ones), so neither
# statistic sits on the edge between two groups of different cost, and the
# median group is large enough that one item's noise barely moves it.  Only
# formats far from both are drawn by the seed; the others walk their pool.
# Formats whose exact slice-rank search alone takes tens of seconds per
# tensor, such as 2x4x4, are left out.
BOUNDS_FORMATS = (((2, 2, 2), 5, True), ((2, 2, 3), 6, True), ((4, 3, 2), 6, False),
                  ((3, 3, 2), 12, False), ((2, 3, 3), 7, False), ((2, 3, 4), 7, False))
BOUNDS_FORMAT_POOL = 16
BOUNDS_Q_POOL = 32


def _random_concise(field, dims, rng) -> Tensor3:
    n = dims[0] * dims[1] * dims[2]
    while True:
        t = Tensor3(field, dims, [rng.randrange(field.p) for _ in range(n)])
        if t.is_concise():
            return t


def bounds_tensor(key: str) -> Tensor3:
    kind, _, rest = key.partition(":")
    if kind == "cat":
        name, *params = rest.split(":")
        return tensor.catalog(F11, name, *(int(x) for x in params))
    if kind == "q-cat":
        name, *params = rest.split(":")
        return tensor.catalog(QQ, name, *(int(x) for x in params))
    if kind == "gf11":
        tag, idx = rest.split(":")
        dims = tuple(int(x) for x in tag.split("x"))
        return _random_concise(F11, dims, _pool_rng("bounds", tag, idx))
    if kind == "q333":
        rng = _pool_rng("bounds-q333", rest)
        return Tensor3(QQ, (3, 3, 3), [Fraction(rng.randint(-3, 3)) for _ in range(27)])
    raise KeyError(key)


def _cat_key(prefix: str, entry) -> str:
    return ":".join([prefix] + [str(x) for x in entry])


def bounds_pool_keys() -> List[str]:
    keys = [_cat_key("cat", e) for e in BOUNDS_CATALOG]
    keys.append("q-cat:null_algebra:5")
    for dims, _, _ in BOUNDS_FORMATS:
        keys += [f"gf11:{_dims_tag(dims)}:{i}" for i in range(BOUNDS_FORMAT_POOL)]
    keys += [f"q333:{i}" for i in range(BOUNDS_Q_POOL)]
    return keys


class Bounds(Workload):
    """`tenrank bounds`: asymptotic_bounds(t).to_kv() per tensor."""

    name = "bounds"

    def make_round(self, r):
        rng = self.rng(r)
        keys = [_cat_key("cat", e) for e in BOUNDS_CATALOG]
        keys.append("q-cat:null_algebra:5")
        for dims, count, seeded in BOUNDS_FORMATS:
            for i in self.pick(rng, r, BOUNDS_FORMAT_POOL, count, seeded):
                keys.append(f"gf11:{_dims_tag(dims)}:{i}")
        keys += [f"q333:{i}" for i in self.pick(rng, r, BOUNDS_Q_POOL, 1, False)]
        return [Item(k, k.split(":")[0], (bounds_tensor(k),)) for k in keys]

    def warm_up(self):
        engine.asymptotic_bounds(tensor.catalog(F11, "null_algebra", 4)).to_kv()
        engine.asymptotic_bounds(tensor.catalog(QQ, "w_tensor")).to_kv()

    def run(self, item):
        (t,) = item.payload
        rep = engine.asymptotic_bounds(t)
        return rep, rep.to_kv()

    def check(self, item, out, ref):
        (t,) = item.payload
        rep, kv = out
        for b in rep.lower_candidates:
            if b.certificate is not None and not b.certificate.verify(t):
                return f"certificate for {b.method!r} does not verify"
        low = rep.asymptotic_lower
        if low is not None and low.base > Fraction(rep.asymptotic_upper) ** low.root:
            return "lower bound exceeds upper bound"
        if item.kind in ("cat", "q-cat"):
            name, *params = item.key.split(":")[1:]
            entry = tensor.catalog_entry(name, *(int(x) for x in params))
            q = {d: v for d, (v, _) in rep.q_values.items()}
            for d, v in entry.q_exact.items():
                if q.get(d) != v:
                    return f"Q_{d} = {q.get(d)} but catalog says {v}"
            for d, v in entry.q_upper.items():
                if d in q and q[d] > v:
                    return f"Q_{d} = {q[d]} above catalog upper bound {v}"
            for d, v in entry.q_lower.items():
                if q.get(d, 0) < v:
                    return f"Q_{d} = {q.get(d)} below catalog lower bound {v}"
        if digest(kv) != ref[item.key]:
            return "to_kv text differs from the reference"
        return None

    @classmethod
    def reference(cls, log=None):
        out = {}
        for k in bounds_pool_keys():
            out[k] = digest(engine.asymptotic_bounds(bounds_tensor(k)).to_kv())
            if log:
                log(k)
        return out


# -- scan -----------------------------------------------------------------------

F2, F3 = GF(2), GF(3)
SCAN_GF2_DIMS = (2, 2, 3)  # all 4096 tensors in every round
SCAN_GF3_DIMS = (2, 2, 2)  # 6561 tensors; a round takes short windows of them
# The GF(3) windows are the same for every seed.  Per-tensor cost varies from
# 0.2 ms to 0.5 s, and a seeded 60-index window's cost spread by 37% of its
# median across positions, which would swamp any change worth detecting.
SCAN_GF3_WINDOW_LEN = 5
SCAN_GF3_STARTS = tuple(546 + 1092 * w for w in range(6))


def scan_code(key) -> str:
    """Six-digit code of one scan tally key (subrank, slice rank, ranks, concise)."""
    q_val, sr_val, ranks, concise = key
    return f"{q_val}{sr_val}{ranks[0]}{ranks[1]}{ranks[2]}{int(concise)}"


def scan_key(code: str):
    d = [int(c) for c in code]
    return (d[0], d[1], (d[2], d[3], d[4]), bool(d[5]))


def chain_violations(counts) -> int:
    """Buckets breaking subrank <= slice rank <= min flattening rank, as `tenrank scan` counts them."""
    return sum(
        cnt for (q_val, sr_val, ranks, _), cnt in counts.items()
        if not (q_val <= sr_val <= min(ranks) or min(ranks) == 0)
    )


class Scan(Workload):
    """`tenrank scan`: one-index scan_format windows whose tallies are merged."""

    name = "scan"

    def make_round(self, r):
        items = [Item(f"gf2:{i}", "gf2", (F2, SCAN_GF2_DIMS, i)) for i in range(2 ** 12)]
        total = F3.p ** 8
        for s in SCAN_GF3_STARTS:
            start = (s + r * SCAN_GF3_WINDOW_LEN) % (total - SCAN_GF3_WINDOW_LEN)
            items += [Item(f"gf3:{i}", "gf3", (F3, SCAN_GF3_DIMS, i))
                      for i in range(start, start + SCAN_GF3_WINDOW_LEN)]
        self.rng(r).shuffle(items)
        return items

    def warm_up(self):
        cli.scan_format(F2, SCAN_GF2_DIMS, offset=4095, limit=1)
        cli.scan_format(F3, SCAN_GF3_DIMS, offset=6560, limit=1)

    def run(self, item):
        field, dims, idx = item.payload
        counts, scanned = cli.scan_format(field, dims, offset=idx, limit=1)
        return counts, scanned

    def check(self, item, out, ref):
        counts, scanned = out
        field, dims, idx = item.payload
        if scanned != 1 or sum(counts.values()) != 1:
            return f"one-index window tallied {scanned} tensors"
        (key,) = counts
        want = ref[item.kind][idx * 6:(idx + 1) * 6]
        if scan_code(key) != want:
            return f"tally key {scan_code(key)} != reference {want}"
        return None

    def summary(self, out):
        return out

    def check_all(self, done, ref):
        reasons = []
        merged = {"gf2": {}, "gf3": {}}
        for item, (counts, _) in done:
            for key, cnt in counts.items():
                merged[item.kind][key] = merged[item.kind].get(key, 0) + cnt
        for kind, counts in merged.items():
            if chain_violations(counts):
                reasons.append(f"{kind}: chain_violations {chain_violations(counts)}")
        # a whole round covers the 2x2x3/GF(2) format once
        rounds, part = divmod(sum(1 for item, _ in done if item.kind == "gf2"), 2 ** 12)
        if rounds and not part:
            whole = {scan_key(code): rounds * cnt for code, cnt in ref["gf2-tally"].items()}
            if merged["gf2"] != whole:
                reasons.append("merged 2x2x3/GF(2) tally differs from the whole-range tally")
        return reasons

    @classmethod
    def reference(cls, log=None):
        out = {}
        counts, _ = cli.scan_format(F2, SCAN_GF2_DIMS)
        out["gf2-tally"] = {scan_code(key): cnt for key, cnt in sorted(counts.items())}
        for kind, field, dims in (("gf2", F2, SCAN_GF2_DIMS), ("gf3", F3, SCAN_GF3_DIMS)):
            codes = []
            for i in range(field.p ** (dims[0] * dims[1] * dims[2])):
                (key,) = cli.scan_format(field, dims, offset=i, limit=1)[0]
                codes.append(scan_code(key))
                if log and i % 500 == 0:
                    log(f"{kind} {i}")
            out[kind] = "".join(codes)
        return out


# -- covers ---------------------------------------------------------------------

F5 = GF(5)
COVERS_GF2_DIMS = (1, 2)  # every rref basis of these dimensions in F_2^9
COVERS_GF5_POOL = 1024  # walked in order: its rank-3 spans set the tail
COVERS_PER_FIELD = 50


def _subspace_counts(q: int, n: int, dim: int):
    """Members per pivot set, in the enumeration order of spans.subspaces."""
    out = []
    for piv in itertools.combinations(range(n), dim):
        free = [(r, c) for r in range(dim) for c in range(piv[r] + 1, n) if c not in piv]
        out.append((piv, free, q ** len(free)))
    return out


def subspace_at(field, n: int, dim: int, index: int) -> Matrix:
    """The index-th basis that spans.subspaces(field, n, dim) yields."""
    q = field.p
    for piv, free, count in _subspace_counts(q, n, dim):
        if index < count:
            vals = []
            for _ in free:
                index, v = divmod(index, q)
                vals.append(v)
            vals.reverse()  # itertools.product varies the last position fastest
            ent = {(r, piv[r]): 1 for r in range(dim)}
            ent.update({pos: v for pos, v in zip(free, vals) if v})
            return Matrix.from_entries(field, dim, n, ent)
        index -= count
    raise IndexError("subspace index out of range")


def gf2_basis_indices():
    """(dim, index) of every basis in criterion 6's GF(2) range, in order."""
    out = []
    for d in COVERS_GF2_DIMS:
        total = sum(c for _, _, c in _subspace_counts(2, 9, d))
        out += [(d, i) for i in range(total)]
    return out


def _span_3x3(field, rows) -> spans.SliceSpan:
    mats = [Matrix(field, [list(row[i * 3:(i + 1) * 3]) for i in range(3)], cols=3)
            for row in rows]
    return spans.span_of(field, mats)


def gf5_span(i: int) -> spans.SliceSpan:
    rng = _pool_rng("covers-gf5", i)
    while True:
        k = rng.randrange(1, 3)
        rows = [[rng.randrange(5) for _ in range(9)] for _ in range(k)]
        if any(any(r) for r in rows):
            return _span_3x3(F5, rows)


class Covers(Workload):
    """Criterion 6: flanders_check on spans of 3x3 matrices."""

    name = "covers"
    rounds = 4
    rounds_traced = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gf2_bases = gf2_basis_indices()

    def make_round(self, r):
        rng = self.rng(r)
        items = []
        for pos in rng.sample(range(len(self.gf2_bases)), COVERS_PER_FIELD):
            d, i = self.gf2_bases[pos]
            basis = subspace_at(F2, 9, d, i)
            items.append(Item(f"gf2:{pos}", "gf2", (_span_3x3(F2, basis.data),)))
        for i in self.pick(rng, r, COVERS_GF5_POOL, COVERS_PER_FIELD, False):
            items.append(Item(f"gf5:{i}", "gf5", (gf5_span(i),)))
        return items

    def warm_up(self):
        spans.flanders_check(_span_3x3(F2, [[1, 0, 0, 0, 1, 0, 0, 0, 0]]))
        spans.flanders_check(gf5_span(0))

    def run(self, item):
        return spans.flanders_check(item.payload[0])

    def check(self, item, rep, ref):
        mr, mc = rep.maxrank, rep.mincov
        if mc is None:
            return "mincov search hit its guard"
        if not mr <= mc <= 4 * mr:
            return f"maxrank {mr}, mincov {mc} break maxrank <= mincov <= 4*maxrank"
        if rep.two_sided_applicable and mc > 2 * mr:
            return f"mincov {mc} > 2*maxrank {mr} although |F| > maxrank"
        idx = int(item.key.split(":")[1])
        want = ref[item.kind][idx * 2:(idx + 1) * 2]
        if f"{mr}{mc}" != want:
            return f"(maxrank, mincov) = ({mr}, {mc}) != reference {tuple(want)}"
        return None

    @classmethod
    def reference(cls, log=None):
        gf2 = []
        for pos, (d, i) in enumerate(gf2_basis_indices()):
            rep = spans.flanders_check(_span_3x3(F2, subspace_at(F2, 9, d, i).data))
            gf2.append(f"{rep.maxrank}{rep.mincov}")
            if log and pos % 2000 == 0:
                log(f"gf2 {pos}")
        gf5 = []
        for i in range(COVERS_GF5_POOL):
            rep = spans.flanders_check(gf5_span(i))
            gf5.append(f"{rep.maxrank}{rep.mincov}")
        return {"gf2": "".join(gf2), "gf5": "".join(gf5)}


# -- replay ---------------------------------------------------------------------

F7 = GF(7)
ORIENTATIONS = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
REPLAY_POOLS = {"rho": 256, "sqrt": 64, "sq4": 16, "sq5": 16, "sq6": 16, "c2": 256}
REPLAY_CATALOG = (("null_algebra", 5), ("gen_null_algebra", 6, 2),
                  ("balanced_pivot", 4), ("matmul", 2, 2, 2))
# (kind, items per round, drawn by the seed); the catalog square cycles
# through REPLAY_CATALOG.  The squares take 0.05-2 s each and walk their
# pool.  The 6x6x6 and 5x5x5 squares are 3 of every 20 items, so p90 falls
# in the middle of the 5x5x5 group.
REPLAY_ROUND = (("rho", 6, True), ("sqrt", 3, True), ("sq4", 1, False), ("sq5", 2, False),
                ("sq6", 1, False), ("c2", 6, True))


def _symmetric(field, n, rng) -> Tensor3:
    vals, ent = {}, {}
    for i, j, k in itertools.product(range(n), repeat=3):
        key = tuple(sorted((i, j, k)))
        if key not in vals:
            vals[key] = rng.randrange(field.p)
        if vals[key]:
            ent[(i, j, k)] = vals[key]
    return Tensor3(field, (n, n, n), ent)


def _square_cert(t: Tensor3, seed: int):
    """Kronecker-square certificate from randomized max-rank witnesses in directions 1 and 2."""
    wit1 = spans.max_rank_randomized(spans.slice_span(t, 2, 3), 16, seed)[1]
    wit2 = spans.max_rank_randomized(spans.slice_span(t, 1, 3), 16, seed)[1]
    cert = engine.two_direction_square(t, 1, 2, wit1, wit2)
    return tio.certificate_of_restriction(cert.restriction, cert.r, cert.power)


def _c2_cert(t: Tensor3):
    cert = engine.subrank_c2(t)
    return tio.certificate_of_restriction(cert.restriction, cert.r, cert.power)


def replay_input(key: str) -> Tuple[Tensor3, Callable]:
    """(tensor, certificate builder) of one replay pool member.  Builders look
    library functions up when called, so that traced runs see the wrappers."""
    kind, idx = key.split(":", 1)
    if kind == "cat":
        entry = REPLAY_CATALOG[int(idx)]
        t = tensor.catalog(F7, entry[0], *entry[1:])
        return t, lambda t: _square_cert(t, 1)
    i = int(idx)
    rng = _pool_rng("replay", kind, i)
    if kind == "rho":
        while True:
            dims = tuple(rng.choice((2, 3, 4)) for _ in range(3))
            t = Tensor3(F7, dims, [rng.randrange(7) for _ in range(dims[0] * dims[1] * dims[2])])
            if not t.is_zero():
                break
        o = ORIENTATIONS[i % len(ORIENTATIONS)]
        return t, lambda t: pivots.rho_degeneration(t, *o)
    if kind == "sqrt":
        while True:
            t = _symmetric(F7, 4, rng)
            if t.is_concise() and pivots.is_pivot_matched(t)[0]:
                return t, lambda t: pivots.sqrt_certificate(t)
    if kind in ("sq4", "sq5", "sq6"):
        n = int(kind[2])
        t = Tensor3(F7, (n, n, n), [rng.randrange(1, 7) for _ in range(n ** 3)])
        return t, lambda t: _square_cert(t, i)
    if kind == "c2":
        while True:
            word = rng.randrange(1 << 18)
            t = Tensor3(F2, (3, 3, 2), [(word >> b) & 1 for b in range(18)])
            if t.is_concise():
                return t, _c2_cert
    raise KeyError(key)


def replay_pool_keys() -> List[str]:
    keys = [f"cat:{i}" for i in range(len(REPLAY_CATALOG))]
    for kind, size in REPLAY_POOLS.items():
        keys += [f"{kind}:{i}" for i in range(size)]
    return keys


class Replay(Workload):
    """Build a certificate, write it and the tensor to files, replay with `tenrank verify`."""

    name = "replay"
    rounds = 5
    rounds_traced = 3

    def make_round(self, r):
        rng = self.rng(r)
        keys = [f"cat:{r % len(REPLAY_CATALOG)}"]
        for kind, count, seeded in REPLAY_ROUND:
            keys += [f"{kind}:{i}" for i in self.pick(rng, r, REPLAY_POOLS[kind], count, seeded)]
        return [Item(k, k.split(":")[0], replay_input(k)) for k in keys]

    def warm_up(self):
        for key in ("cat:3", "rho:0", "sqrt:0", "sq4:0", "c2:0"):
            self.run(Item(key, key.split(":")[0], replay_input(key)))

    def run(self, item):
        t, build = item.payload
        d = build(t)
        cert_text = tio.serialize_certificate(d, t.field)
        cert_path = os.path.join(self.scratch_dir, "item.cert")
        tensor_path = os.path.join(self.scratch_dir, "item.tensor")
        with open(cert_path, "w", encoding="utf-8") as fh:
            fh.write(cert_text)
        with open(tensor_path, "w", encoding="utf-8") as fh:
            fh.write(tio.serialize_tensor(t))
        out, err = _stdio.StringIO(), _stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", cert_path, tensor_path])
        return code, out.getvalue().strip(), cert_text, d

    def check(self, item, out, ref):
        code, text, cert_text, d = out
        if code != 0:
            return f"verify exited {code}"
        if text != f"verified r={d.claimed_r} power={d.power}":
            return f"verify printed {text!r}"
        if digest(cert_text) != ref[item.key]:
            return "certificate text differs from the reference"
        return None

    @classmethod
    def reference(cls, log=None):
        out = {}
        for key in replay_pool_keys():
            t, build = replay_input(key)
            out[key] = digest(tio.serialize_certificate(build(t), t.field))
        return out


WORKLOADS = {w.name: w for w in (Bounds, Scan, Covers, Replay)}
