"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every numeric tolerance here is zero (exact arithmetic); "tolerance" only
appears as exact integer or rational comparisons.
"""

import itertools
import random
from fractions import Fraction

from tenrank import _gf2
from tenrank.engine import (
    asymptotic_bounds,
    slicerank_exact,
    subrank_c2,
    subrank_exact,
    subrank_from_minrank,
)
from tenrank.fields import GF, QQ
from tenrank.laurent import border_le_qi_extract, mamu_border_lb, verify_degeneration
from tenrank.matrix import Matrix, rank, rank_of_rows
from tenrank.pivots import (
    is_pivot_matched,
    rho_degeneration,
    rho_ij,
    rho_sigma,
    sqrt_certificate,
)
from tenrank.spans import (
    epsilon,
    flanders_check,
    max_rank_exhaustive,
    min_rank_exhaustive,
    mincov_exhaustive,
    minrk_diag_pipeline,
    mixed_kron_set,
    slice_span,
    span_of,
    subspaces,
)
from tenrank.tensor import (
    Restriction,
    Tensor3,
    apply_restriction,
    balanced_pivot,
    gen_null_algebra,
    matmul_tensor,
    null_algebra,
    unit,
    w_tensor,
)


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def rand_tensor(field, dims, rng):
    n = dims[0] * dims[1] * dims[2]
    return Tensor3(field, dims, [rng.randrange(field.p) for _ in range(n)])


def rand_symmetric(field, n, rng):
    vals = {}
    ent = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                key = tuple(sorted((i, j, k)))
                if key not in vals:
                    vals[key] = rng.randrange(field.p)
                if vals[key]:
                    ent[(i, j, k)] = vals[key]
    return Tensor3(field, (n, n, n), ent)


def q_exhaustive(t, d):
    rd, cd = [x for x in (1, 2, 3) if x != d]
    v, _ = max_rank_exhaustive(slice_span(t, rd, cd))
    return v


def test_criterion_1_dimension_two_exhaustive():
    """Every concise GF(2) 3x3x2 tensor has a verified subrank-2 certificate
    and exact subrank 2 (all 2^18 tensors enumerated)."""
    f = GF(2)
    dims = (3, 3, 2)
    concise_count = 0
    failures = 0
    for word in range(1 << 18):
        if not _gf2.is_concise(word, dims):
            continue
        concise_count += 1
        t = Tensor3(f, dims, _gf2.unpack_entries(word, dims))
        cert = subrank_c2(t)  # verifies internally; raises on any failure
        if cert.r != 2:
            failures += 1
            continue
        value, _ = subrank_exact(t)
        if value != 2:
            failures += 1
    _report(
        "criterion 1: exhaustive 3x3x2/GF(2) subrank-2 construction",
        failures == 0 and concise_count > 0,
        f"{concise_count} concise tensors, {failures} exceptions",
    )


def test_criterion_2_uncertainty_principle():
    """Q_i * Q_j >= n_k on 1000 random concise GF(11) tensors with dims <= 4,
    and exactly on all catalog entries up to n = 6."""
    rng = random.Random(112)
    f = GF(11)
    checked = 0
    violations = 0
    while checked < 1000:
        dims = tuple(rng.choice([2, 3, 4]) for _ in range(3))
        t = rand_tensor(f, dims, rng)
        if not t.is_concise():
            continue
        q = {d: q_exhaustive(t, d) for d in (1, 2, 3)}
        for i, j, k in itertools.permutations((1, 2, 3)):
            if q[i] * q[j] < t.dims[k - 1]:
                violations += 1
        checked += 1
    catalog_entries = [
        null_algebra(f, 3), null_algebra(f, 4), null_algebra(f, 5), null_algebra(f, 6),
        gen_null_algebra(f, 6, 2), gen_null_algebra(f, 6, 3),
        balanced_pivot(f, 4), w_tensor(f), matmul_tensor(f, 2, 2, 2),
        unit(f, 5), unit(f, 6),
    ]
    for t in catalog_entries:
        assert t.is_concise()
        q = {d: q_exhaustive(t, d) for d in (1, 2, 3)}
        for i, j, k in itertools.permutations((1, 2, 3)):
            if q[i] * q[j] < t.dims[k - 1]:
                violations += 1
    _report(
        "criterion 2: max-rank product inequality",
        violations == 0,
        f"1000 random + {len(catalog_entries)} catalog entries, {violations} violations",
    )


def test_criterion_3_catalog_regressions():
    """Catalog invariants: null_algebra Q = (n, 2, n); gen_null_algebra
    bounds; balanced_pivot window; W-tensor subrank 1 and slice rank 2."""
    bad = []
    for n in range(3, 9):
        field = GF(11) if n <= 6 else GF(2)
        t = null_algebra(field, n)
        q1, q2, q3 = (q_exhaustive(t, d) for d in (1, 2, 3))
        if (q1, q2, q3) != (n, 2, n):
            bad.append(f"null_algebra({n}) -> {(q1, q2, q3)}")
    for (n, c) in [(6, 2), (6, 3), (8, 2)]:
        field = GF(11) if n <= 6 else GF(3)
        t = gen_null_algebra(field, n, c)
        if not t.is_concise():
            bad.append(f"gen_null_algebra({n},{c}) not concise")
        if q_exhaustive(t, 2) > c + 1:
            bad.append(f"gen_null_algebra({n},{c}) Q2 > {c + 1}")
        if q_exhaustive(t, 3) > n // c + 1:
            bad.append(f"gen_null_algebra({n},{c}) Q3 > {n // c + 1}")
    import math

    for n in (4, 9, 16):
        f7 = GF(7)
        t = balanced_pivot(f7, n)
        s = math.isqrt(n)
        if not t.is_concise():
            bad.append(f"balanced_pivot({n}) not concise")
        # lower bound: the leading diagonal subtensor is a unit tensor
        sel = Matrix.from_entries(f7, s, n, {(i, i): 1 for i in range(s)})
        if apply_restriction(Restriction((sel, sel, sel)), t) != unit(f7, s):
            bad.append(f"balanced_pivot({n}) has no unit subtensor of size {s}")
        # upper bound: support confined to the first s rows plus s columns
        from tenrank.spans import verify_cover

        v_first = Matrix.from_entries(f7, s, n, {(i, i): 1 for i in range(s)})
        for d in (1, 2, 3):
            rd, cd = [x for x in (1, 2, 3) if x != d]
            span = slice_span(t, rd, cd)
            if not verify_cover(span, v_first, v_first):
                bad.append(f"balanced_pivot({n}) direction {d} not covered by 2*sqrt(n) lines")
        if n == 4:
            for d in (1, 2, 3):
                q = q_exhaustive(t, d)
                if not s <= q <= 2 * s:
                    bad.append(f"balanced_pivot(4) Q_{d} = {q} outside [{s}, {2 * s}]")
    w = w_tensor(GF(2))
    if subrank_exact(w)[0] != 1:
        bad.append("w_tensor subrank != 1")
    if slicerank_exact(w) != 2:
        bad.append("w_tensor slicerank != 2")
    _report("criterion 3: catalog regressions", not bad, "; ".join(bad) or "all values match")


def test_criterion_4_konig_and_remark():
    """rho = sigma against brute-force covers on every pivot pattern of size
    <= 3 in the 3x3 grid (these are exactly the patterns realized by GF(2)
    spans of <= 3 matrices of size <= 3x3), plus random spans, plus the
    orientation-asymmetry example."""

    def brute_cover(pivots):
        rows = sorted({p[0] for p in pivots})
        cols = sorted({p[1] for p in pivots})
        best = None
        for ra in range(len(rows) + 1):
            for rs in itertools.combinations(rows, ra):
                for ca in range(len(cols) + 1):
                    if best is not None and ra + ca >= best:
                        continue
                    for cs in itertools.combinations(cols, ca):
                        if all(p[0] in rs or p[1] in cs for p in pivots):
                            best = ra + ca if best is None else min(best, ra + ca)
                            break
        return best or 0

    f = GF(2)
    cells = [(i, j) for i in range(3) for j in range(3)]
    mismatches = 0
    patterns = 0
    for size in range(1, 4):
        for pattern in itertools.combinations(cells, size):
            mats = [Matrix.from_entries(f, 3, 3, {p: 1}) for p in pattern]
            data = rho_sigma(span_of(f, mats))
            if not (data.rho == data.sigma == brute_cover(pattern)):
                mismatches += 1
            patterns += 1
    rng = random.Random(44)
    for _ in range(500):
        mats = [
            Matrix(f, [[rng.randrange(2) for _ in range(3)] for _ in range(3)])
            for _ in range(rng.randrange(1, 4))
        ]
        if all(m.is_zero() for m in mats):
            continue
        data = rho_sigma(span_of(f, mats))
        if not (data.rho == data.sigma == brute_cover(data.pivots)):
            mismatches += 1
    remark = Tensor3(GF(2), (2, 3, 2), {(0, 2, 0): 1, (1, 0, 0): 1, (0, 1, 1): 1})
    ok_remark = rho_ij(remark, 1, 2) == 1 and rho_ij(remark, 2, 1) == 2
    _report(
        "criterion 4: cover equals matching (Konig) + orientation asymmetry",
        mismatches == 0 and ok_remark,
        f"{patterns} patterns + 500 random spans, {mismatches} mismatches",
    )


def test_criterion_5_degeneration_soundness():
    """rho degenerations on 200 random GF(7) tensors always verify, and the
    extracted slice witness lands between rho and the exhaustive max-rank."""
    rng = random.Random(55)
    f = GF(7)
    done = 0
    failures = 0
    orientations = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
    while done < 200:
        dims = tuple(rng.choice([2, 3, 4]) for _ in range(3))
        t = rand_tensor(f, dims, rng)
        if t.is_zero():
            continue
        i, j = orientations[done % 6]
        try:
            d = rho_degeneration(t, i, j)
        except Exception:
            failures += 1
            done += 1
            continue
        if not verify_degeneration(d, t):
            failures += 1
            done += 1
            continue
        for direction in (1, 2, 3):
            _, _, _, got = border_le_qi_extract(d, t, direction)
            exact = q_exhaustive(t, direction)
            if not d.claimed_r <= got <= exact:
                failures += 1
        done += 1
    _report(
        "criterion 5: degeneration soundness + border-to-max-rank extraction",
        failures == 0,
        f"200 tensors x 3 directions, {failures} failures",
    )


def test_criterion_6_flanders_suite():
    """maxrank <= mincov <= 4*maxrank on all GF(2) spans of 3x3 matrices of
    dimension <= 2 (exhaustive via rref bases), and mincov <= 2*maxrank on
    200 random GF(5) spans (|F| = 5 > maxrank <= 3)."""
    f = GF(2)
    violations = 0
    spans = 0
    for d in (1, 2):
        for basis in subspaces(f, 9, d):
            mats = [
                Matrix(f, [row[i * 3:(i + 1) * 3] for i in range(3)], cols=3)
                for row in basis.data
            ]
            rep = flanders_check(span_of(f, mats))
            if not (rep.lower_ok and rep.four_times_ok):
                violations += 1
            spans += 1
    rng = random.Random(66)
    f5 = GF(5)
    for _ in range(200):
        k = rng.randrange(1, 3)
        mats = [
            Matrix(f5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
            for _ in range(k)
        ]
        if all(m.is_zero() for m in mats):
            continue
        rep = flanders_check(span_of(f5, mats))
        if not rep.two_sided_applicable or not rep.ratio_ok:
            violations += 1
    _report(
        "criterion 6: cover-number comparison bounds",
        violations == 0,
        f"{spans} exhaustive GF(2) spans + 200 random GF(5) spans, {violations} violations",
    )


def test_criterion_7_minrank_algebra():
    """Diagonal supermultiplicativity on exhaustive small GF(2)/GF(3)
    products; the rotation-span example reproduces min-rank 2 < 4 over Q."""
    violations = 0
    checked = 0
    for p in (2, 3):
        f = GF(p)
        # all diagonal spans of 2x2 matrices (dim <= 2) via diag-vector subspaces
        diag_spans = []
        for d in (1, 2):
            for basis in subspaces(f, 2, d):
                diag_spans.append([
                    Matrix.from_entries(f, 2, 2, {(0, 0): row[0], (1, 1): row[1]})
                    for row in basis.data
                ])
        # all spans of 2x2 matrices of dim 1 plus a sample of dim 2
        other_spans = []
        for basis in subspaces(f, 4, 1):
            other_spans.append([
                Matrix(f, [basis.data[0][:2], basis.data[0][2:]], cols=2)
            ])
        rng = random.Random(p)
        for _ in range(10):
            mats = [
                Matrix(f, [[rng.randrange(p) for _ in range(2)] for _ in range(2)])
                for _ in range(2)
            ]
            if rank_of_rows(f, [m.vectorize() for m in mats], 4) == 2:
                other_spans.append(mats)
        for da in diag_spans:
            mr_a, _ = min_rank_exhaustive(span_of(f, da))
            for ob in other_spans:
                mr_b, _ = min_rank_exhaustive(span_of(f, ob))
                prod = [a.kron(b) for a in da for b in ob]
                mr_ab, _ = min_rank_exhaustive(span_of(f, prod))
                if mr_ab < mr_a * mr_b:
                    violations += 1
                checked += 1
    # rotation span over Q: min-rank 2, but its square has an element of rank 2
    i2 = Matrix.identity(QQ, 2)
    jm = Matrix(QQ, [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    ok_q = all(
        rank(i2.scale(Fraction(a)).add(jm.scale(Fraction(b)))) == 2
        for (a, b) in [(1, 0), (0, 1), (1, 1), (1, -1)]
    )
    patterns = list(itertools.product((1, -1), repeat=2))
    for drop in itertools.combinations(range(4), 3):
        rows = []
        for x in drop:
            e1, e2 = patterns[x]
            rows.append([1, 0, 0, -e1 * e2])
            rows.append([0, e2, e1, 0])
        m = Matrix(QQ, [[Fraction(v) for v in row] for row in rows])
        if rank(m) != 4:
            ok_q = False
    sq = i2.kron(i2).add(jm.kron(jm))
    ok_q = ok_q and rank(sq) == 2
    _report(
        "criterion 7: min-rank supermultiplicativity + rationals counterexample",
        violations == 0 and ok_q,
        f"{checked} diagonal products, {violations} violations; rotation square rank 2 < 4",
    )


def test_criterion_8_sqrt_path():
    """50 random symmetric concise GF(7) 4x4x4 tensors are pivot-matched and
    carry a verified size-4 degeneration on the Kronecker square."""
    rng = random.Random(88)
    f = GF(7)
    done = 0
    failures = 0
    while done < 50:
        t = rand_symmetric(f, 4, rng)
        if not t.is_concise():
            continue
        ok, _, _ = is_pivot_matched(t)
        if not ok:
            failures += 1
            done += 1
            continue
        d = sqrt_certificate(t)
        if d.claimed_r != 4 or d.power != 2 or not verify_degeneration(d, t.kron_power(2)):
            failures += 1
        done += 1
    _report(
        "criterion 8: sqrt certificates for symmetric tensors",
        failures == 0,
        f"50 tensors, {failures} failures",
    )


def test_criterion_9_bound_aggregator():
    """Aggregated lower bound reaches the cube root of the least dimension on
    concise inputs over fields larger than every dimension; border formula
    values stay above 3eh/4; the full chain holds on exhaustive 2x2x2/GF(2)."""
    rng = random.Random(99)
    f = GF(11)
    corpus = [
        null_algebra(f, 4), null_algebra(f, 5),
        gen_null_algebra(f, 6, 2), balanced_pivot(f, 4),
        matmul_tensor(f, 2, 2, 2), unit(f, 4), w_tensor(f),
    ]
    done = 0
    while done < 10:
        dims = tuple(rng.choice([2, 3, 4]) for _ in range(3))
        t = rand_tensor(f, dims, rng)
        if t.is_concise():
            corpus.append(t)
            done += 1
    bad = []
    for t in corpus:
        rep = asymptotic_bounds(t)
        b = rep.asymptotic_lower
        mind = min(t.dims)
        # exact comparison of base^(1/root) >= mind^(1/3)
        if b is None or b.base**3 < Fraction(mind) ** b.root:
            bad.append(f"{t.dims}: lower {b} below cube root of {mind}")
        if b is not None and Fraction(rep.asymptotic_upper) ** b.root < b.base:
            bad.append(f"{t.dims}: lower exceeds upper")
    for e in range(1, 7):
        for h in range(e, 7):
            for l in range(h, 7):
                if mamu_border_lb(e, h, l) < -(-3 * e * h // 4):
                    bad.append(f"border lb {(e, h, l)} below 3eh/4")
    f2 = GF(2)
    for idx in range(256):
        t = Tensor3(f2, (2, 2, 2), [(idx >> b) & 1 for b in range(8)])
        sr = slicerank_exact(t)
        for d in (1, 2, 3):
            rd, cd = [x for x in (1, 2, 3) if x != d]
            span = slice_span(t, rd, cd)
            if all(m.is_zero() for m in span.basis):
                continue
            qi, _ = max_rank_exhaustive(span)
            sri, _ = mincov_exhaustive(span)
            if not (sr <= sri <= 4 * qi):
                bad.append(f"tensor {idx}: SR {sr} <= SR_{d} {sri} <= 4 Q_{d} {4 * qi} fails")
    _report("criterion 9: bound aggregator + chain inequalities", not bad, "; ".join(bad[:3]))


def test_criterion_10_narrow_pipeline_components():
    """Pipeline components at desk scale: the diagonalization pipeline on a
    (40, 40, 2) GF(41) instance reaches eps(2) * maxrank; mixed Kronecker
    min-rank power bound holds exhaustively on small GF(3) sets; the
    elimination construction yields a verified unit pair whenever its
    threshold precondition holds."""
    f41 = GF(41)
    ent = {}
    for i in range(40):
        ent[(i, i, 0)] = 1
        ent[(i, (i * 7 + 3) % 40, 1)] = (i % 40) + 1
    t40 = Tensor3(f41, (40, 40, 2), ent)
    assert t40.is_concise()
    pipe = minrk_diag_pipeline(slice_span(t40, 1, 2))
    ok_pipe = Fraction(pipe.minrank_jj) >= epsilon(2) * pipe.maxrank and pipe.maxrank_exact

    f3 = GF(3)
    rng = random.Random(1010)
    ok_mixed = True
    done = 0
    while done < 10:
        d1 = Matrix.from_entries(f3, 2, 2, {(0, 0): rng.randrange(1, 3), (1, 1): rng.randrange(1, 3)})
        d2 = Matrix.from_entries(f3, 2, 2, {(0, 0): rng.randrange(3), (1, 1): rng.randrange(3)})
        if rank_of_rows(f3, [d1.vectorize(), d2.vectorize()], 4) < 2:
            continue
        base, _ = min_rank_exhaustive(span_of(f3, [d1, d2]))
        for m, ell in [(2, 1), (2, 2)]:
            ys = mixed_kron_set([d1, d2], [], m, ell)
            got, _ = min_rank_exhaustive(span_of(f3, ys))
            if got < base**ell:
                ok_mixed = False
        done += 1

    # elimination on instances meeting the 2c(c-1) threshold (c = 2 -> 4)
    ok_elim = True
    f7 = GF(7)
    done = 0
    while done < 20:
        n = 8
        perm = list(range(n))
        rng.shuffle(perm)
        ent = {(i, i, 0): 1 for i in range(n)}
        for i in range(n):
            ent[(i, perm[i], 1)] = ent.get((i, perm[i], 1), 0) + rng.randrange(1, 7)
        t = Tensor3(f7, (n, n, 2), ent)
        mats = [t.slice(3, 0), t.slice(3, 1)]
        mr, _ = min_rank_exhaustive(span_of(f7, mats))
        if mr < 4:
            continue
        cert = subrank_from_minrank(t, [0, 1])
        if cert.r != 2 or not cert.verify(t):
            ok_elim = False
        done += 1
    # the two 3-slices of the (40, 40, 2) instance also meet the threshold
    mr40, _ = min_rank_exhaustive(span_of(f41, [t40.slice(3, 0), t40.slice(3, 1)]))
    if mr40 >= 4:
        cert = subrank_from_minrank(t40, [0, 1])
        ok_elim = ok_elim and cert.r == 2 and cert.verify(t40)
    _report(
        "criterion 10: narrow pipeline components",
        ok_pipe and ok_mixed and ok_elim,
        f"pipeline minrank {pipe.minrank_jj} vs eps*maxrank {float(epsilon(2) * pipe.maxrank):.2f};"
        f" mixed ok {ok_mixed}; elimination ok {ok_elim}",
    )


def test_criterion_11_scan():
    """Full GF(2) 2x2x2 scan: subrank and slice rank stay within {0, 1, 2},
    the chain holds in every bucket, and results are identical across runs
    and equal to the merged tallies of interleaved offset/limit windows."""
    from tenrank.cli import scan_format

    f = GF(2)
    counts1, total1 = scan_format(f, (2, 2, 2))
    counts2, _ = scan_format(f, (2, 2, 2))
    merged, scanned = {}, 0
    for offset in [*range(0, 256, 64), *range(32, 256, 64)]:  # windows of 32, the odd ones last
        part, n = scan_format(f, (2, 2, 2), offset=offset, limit=32)
        scanned += n
        for k, v in part.items():
            merged[k] = merged.get(k, 0) + v
    ok = counts1 == counts2 == merged and total1 == scanned == 256
    ok = ok and sum(counts1.values()) == 256
    for (q, sr, ranks, concise), cnt in counts1.items():
        if not (q in (0, 1, 2) and sr in (0, 1, 2)):
            ok = False
        if min(ranks) and not (q <= sr <= min(ranks)):
            ok = False
        if concise != (ranks == (2, 2, 2)):
            ok = False
    _report(
        "criterion 11: exhaustive format scan",
        ok,
        f"{total1} tensors, {len(counts1)} value buckets, deterministic and equal to merged offset/limit windows",
    )
