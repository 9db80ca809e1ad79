"""Command-line interface: inspect tensors, compute and certify rank
parameters, verify certificate files, and run exhaustive format scans.

Exit codes: 0 success, 2 parse or file error, 3 resource guard, 4 field too
small, 5 verification failure, 1 any other library error.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .errors import (
    BadParamsError,
    FieldTooSmallError,
    InfiniteFieldError,
    ParseError,
    ResourceGuardError,
    TenrankError,
    VerificationFailedError,
    shown,
)
from .fields import PrimeField, format_value, parse_field
from .io import (
    _ints,
    certificate_of_restriction,
    parse_certificate,
    parse_tensor,
    serialize_certificate,
    serialize_tensor,
)
from .laurent import verify_degeneration
from .spans import max_rank_exhaustive, max_rank_randomized, min_rank_exhaustive, slice_span
from .tensor import CATALOG, Tensor3, catalog, catalog_entry, guard_dims
from . import engine, pivots

DEFAULT_SEED = 2024
SCAN_CAP = 1 << 20


def _read_tensor(path: str) -> Tensor3:
    if path == "-":
        return parse_tensor(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tensor(fh.read())


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_info(args) -> int:
    t = _read_tensor(args.tensor)
    ranks = t.flattening_ranks()
    lines = [
        f"dims {t.dims[0]} {t.dims[1]} {t.dims[2]}",
        f"field {t.field.tag}",
        f"nonzeros {len(t.support())}",
        f"flattening_ranks {ranks[0]} {ranks[1]} {ranks[2]}",
        f"concise {int(ranks == t.dims)}",
        f"symmetric {int(t.is_symmetric())}",
    ]
    _emit("\n".join(lines), args.out)
    return 0


def cmd_bounds(args) -> int:
    t = _read_tensor(args.tensor)
    rep = engine.asymptotic_bounds(t)
    _emit(rep.to_kv() if args.format == "kv" else rep.to_text(), args.out)
    return 0


def _guard_kw(args) -> dict:
    return {} if args.guard is None else {"guard": args.guard}


def cmd_subrank(args) -> int:
    t = _read_tensor(args.tensor)
    value, cert = engine.subrank_exact(t, **_guard_kw(args))
    lines = [f"subrank {value}"]
    if args.certify:
        d = certificate_of_restriction(cert.restriction, cert.r, cert.power)
        with open(args.certify, "w", encoding="utf-8") as fh:
            fh.write(serialize_certificate(d, t.field))
        lines.append(f"certificate {args.certify}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_slicerank(args) -> int:
    t = _read_tensor(args.tensor)
    _emit(f"slicerank {engine.slicerank_exact(t, **_guard_kw(args))}", args.out)
    return 0


def _int(word: str) -> int:
    """argparse's `type` for every integer option and argument.  It raises
    ParseError, which argparse does not catch, so `main` reports a bad word
    as a parse error quoted through `shown`."""
    return _ints([word], word)[0]


def _int_list(text: str, count: int, lowest: Optional[int] = None) -> Tuple[int, ...]:
    """The `count` comma-separated integers of an option such as `--orient 1,2`."""
    values = _ints(text.split(","), text, lowest)
    if len(values) != count:
        raise ParseError(f"expected {count} comma-separated integers, got {shown(text)}")
    return tuple(values)


def cmd_maxrank(args) -> int:
    if args.trials < 0:
        raise BadParamsError(f"--trials {shown(args.trials)} must not be negative")
    t = _read_tensor(args.tensor)
    i, j = _int_list(args.orient, 2)
    span = slice_span(t, i, j)
    if args.trials:
        value, wit = max_rank_randomized(span, args.trials, args.seed)
        how = f"randomized lower bound ({args.trials} trials)"
    else:
        value, wit = max_rank_exhaustive(span, **_guard_kw(args))
        how = "exhaustive"
    _emit(f"maxrank {value} ({how})", args.out)
    return 0


def cmd_minrank(args) -> int:
    t = _read_tensor(args.tensor)
    i, j = _int_list(args.orient, 2)
    value, _ = min_rank_exhaustive(slice_span(t, i, j), **_guard_kw(args))
    _emit(f"minrank {value}", args.out)
    return 0


def cmd_pivots(args) -> int:
    t = _read_tensor(args.tensor)
    lines = []
    for (i, j), v in sorted(pivots.all_rho(t).items()):
        lines.append(f"rho_{i}{j} {v}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_certify(args) -> int:
    t = _read_tensor(args.tensor)
    kind = args.kind
    if kind == "rho":
        i, j = _int_list(args.orient, 2)
        d = pivots.rho_degeneration(t, i, j)
    elif kind == "sqrt":
        d = pivots.sqrt_certificate(t)
    elif kind == "subrank":
        _, cert = engine.subrank_exact(t, **_guard_kw(args))
        d = certificate_of_restriction(cert.restriction, cert.r, cert.power)
    elif kind == "c2":
        cert = engine.subrank_c2(t)
        d = certificate_of_restriction(cert.restriction, cert.r, cert.power)
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown certificate kind {shown(kind)}")
    text = serialize_certificate(d, t.field)
    _emit(text, args.out)
    if not args.out:
        return 0
    sys.stdout.write(f"certificate r={d.claimed_r} power={d.power} -> {args.out}\n")
    return 0


def cmd_verify(args) -> int:
    with open(args.certificate, "r", encoding="utf-8") as fh:
        d, field = parse_certificate(fh.read())
    t = _read_tensor(args.tensor)
    if t.field != field:
        raise VerificationFailedError("certificate and tensor field tags differ")
    report = verify_degeneration(d, t, power=d.power, explain=True)
    if report.ok:
        _emit(f"verified r={d.claimed_r} power={d.power}", args.out)
        return 0
    raise VerificationFailedError(report.reason)


def cmd_power(args) -> int:
    t = _read_tensor(args.tensor)
    _emit(serialize_tensor(t.kron_power(args.m)), args.out)
    return 0


def cmd_catalog(args) -> int:
    field = parse_field(args.field)
    params = _ints(args.params, " ".join(args.params))
    if args.expect:
        entry = catalog_entry(args.name, *params)
        # every integer through format_value, which refuses one too long to print
        lines = [f"{name} ({', '.join(map(format_value, dims))})"
                 for name, dims in (("dims", entry.dims), ("flattening_ranks", entry.flattening_ranks))]
        for d, v in sorted(entry.q_exact.items()):
            lines.append(f"q{d} {format_value(v)}")
        for d, v in sorted(entry.q_lower.items()):
            lines.append(f"q{d} >= {format_value(v)}")
        for d, v in sorted(entry.q_upper.items()):
            lines.append(f"q{d} <= {format_value(v)}")
        if entry.subrank is not None:
            lines.append(f"subrank {format_value(entry.subrank)}")
        if entry.slicerank is not None:
            lines.append(f"slicerank {format_value(entry.slicerank)}")
        for a in entry.annotations:
            lines.append(f"note: {a}")
        _emit("\n".join(lines), args.out)
        return 0
    _emit(serialize_tensor(catalog(field, args.name, *params)), args.out)
    return 0


def _scan_one(word: int, dims, field) -> Tuple[int, int, Tuple[int, int, int], bool]:
    """The tally key of the tensor with scan index `word`.  Over GF(2) the
    index is the packed word, and when the packed unit-restriction search
    takes the format (`engine.packed_applies` at r = min(dims)) the item runs
    on the word alone (`engine.word_oracles`); its witnesses are checked in
    `engine.packed_unit_restriction`.  Other items decode a `Tensor3`."""
    if engine.packed_applies(field, dims, min(dims)):
        q_val, sr_val, ranks = engine.word_oracles(field, word, dims)
        return q_val, sr_val, ranks, ranks == dims
    t = _tensor_from_index(word, dims, field)
    ranks = t.flattening_ranks()  # kept on t, so the oracles below reuse it
    q_val, _ = engine.subrank_exact(t)
    sr_val = engine.slicerank_exact(t)
    return q_val, sr_val, ranks, ranks == dims


def _tensor_from_index(index: int, dims, field) -> Tensor3:
    q = field.p
    n = dims[0] * dims[1] * dims[2]
    digits = []
    for _ in range(n):
        digits.append(index % q)
        index //= q
    return Tensor3(field, dims, digits)


@lru_cache(maxsize=64)
def _scan_total(field: PrimeField, dims: Tuple[int, int, int], cap: int) -> int:
    """The number of tensors of a scan format, p^(n1*n2*n3), once the format
    passes `guard_dims` and the cap: checked once per (field, dims, cap).  A
    refusal raises, so it is never cached."""
    guard_dims(dims, "scan format")
    n = dims[0] * dims[1] * dims[2]
    if n >= cap.bit_length() or field.p**n > cap:  # p^n > cap once n reaches cap's bit length
        raise ResourceGuardError(f"scan of {field.p}^{n} tensors exceeds cap {shown(cap)}")
    return field.p**n


def scan_format(field, dims, *, offset: int = 0, limit: Optional[int] = None, cap: int = SCAN_CAP):
    """Exhaustively scan all tensors of a format over GF(q).

    Returns (counts, scanned) where counts maps
    (subrank, slicerank, flattening ranks, concise) to a tally.  The index
    range [offset, offset+limit) supports resumable chunked scans, whose
    tallies merge to the whole format's.  GF(2) items of formats the packed
    search takes run on their packed word, with no `Tensor3` or `Matrix`,
    unless the slice rank needs a search (`_scan_one`).
    """
    if not isinstance(field, PrimeField):
        raise InfiniteFieldError("scan needs a finite field")
    if offset < 0 or (limit is not None and limit < 0):
        raise BadParamsError(f"scan offset {shown(offset)} and limit {shown(limit)} must not be negative")
    total = _scan_total(field, tuple(dims), cap)
    if offset > total:
        raise BadParamsError(f"scan offset {shown(offset)} is past the end of the {shown(total)} tensors of the format")
    end = total if limit is None else min(total, offset + limit)
    counts: Dict[tuple, int] = {}
    for idx in range(offset, end):
        key = _scan_one(idx, dims, field)
        counts[key] = counts.get(key, 0) + 1
    return counts, end - offset


def format_scan_report(field, dims, counts: Dict[tuple, int], scanned: int) -> str:
    lines = [
        "scan v1",
        f"field {field.tag}",
        f"dims {dims[0]} {dims[1]} {dims[2]}",
        "columns subrank slicerank r1 r2 r3 concise count",
    ]
    for key in sorted(counts):
        q_val, sr_val, ranks, concise = key
        lines.append(
            f"row {q_val} {sr_val} {ranks[0]} {ranks[1]} {ranks[2]} {int(concise)} {counts[key]}"
        )
    lines.append(f"total {scanned}")
    return "\n".join(lines) + "\n"


def cmd_scan(args) -> int:
    field = parse_field(args.field)
    dims = _int_list(args.dims, 3, 0)
    counts, scanned = scan_format(
        field, dims, offset=args.offset, limit=args.limit,
        cap=SCAN_CAP if args.guard is None else args.guard,
    )
    # chain inequalities inside every bucket
    violations = sum(
        cnt for (q_val, sr_val, ranks, _), cnt in counts.items()
        if not (q_val <= sr_val <= min(ranks) or min(ranks) == 0)
    )
    text = format_scan_report(field, dims, counts, scanned)
    text += f"chain_violations {violations}\n"
    _emit(text, args.out)
    return 0 if violations == 0 else 5


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tenrank", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, guard=False):
        sp.add_argument("tensor", help="tensor file")
        sp.add_argument("--out", default=None, help="write output to a file")
        if guard:
            sp.add_argument("--guard", type=_int, default=None, help="resource guard override")

    sp = sub.add_parser("info", help="dimensions, field, ranks, conciseness")
    common(sp)

    sp = sub.add_parser("bounds", help="certified asymptotic subrank interval")
    common(sp)
    sp.add_argument("--format", choices=["text", "kv"], default="text")

    sp = sub.add_parser("subrank", help="exact subrank (exhaustive search)")
    common(sp, guard=True)
    sp.add_argument("--certify", default=None, help="also write a certificate file")

    sp = sub.add_parser("slicerank", help="exact slice rank (exhaustive search)")
    common(sp, guard=True)

    sp = sub.add_parser("maxrank", help="max-rank of an oriented slice span")
    common(sp, guard=True)
    sp.add_argument("--seed", type=_int, default=DEFAULT_SEED)
    sp.add_argument("--orient", default="1,2", help="row,col directions")
    sp.add_argument("--trials", type=_int, default=0, help="randomized trials (0 = exhaustive)")

    sp = sub.add_parser("minrank", help="min-rank of an oriented slice span")
    common(sp, guard=True)
    sp.add_argument("--orient", default="1,2")

    sp = sub.add_parser("pivots", help="the six oriented pivot cover numbers")
    common(sp)

    sp = sub.add_parser("certify", help="emit a certificate file")
    sp.add_argument("kind", choices=["rho", "sqrt", "subrank", "c2"])
    common(sp, guard=True)
    sp.add_argument("--orient", default="1,2")

    sp = sub.add_parser("verify", help="re-verify a certificate against a tensor")
    sp.add_argument("certificate")
    common(sp)

    sp = sub.add_parser("power", help="write a Kronecker power of a tensor")
    common(sp)
    sp.add_argument("m", type=_int)

    sp = sub.add_parser("catalog", help="write a named catalog tensor")
    sp.add_argument("name", choices=sorted(CATALOG))
    sp.add_argument("params", nargs="*")
    sp.add_argument("--field", default="gf:2")
    sp.add_argument("--out", default=None)
    sp.add_argument("--expect", action="store_true",
                    help="print the expected invariant table instead of the tensor")

    sp = sub.add_parser("scan", help="exhaustive scan of a whole format")
    sp.add_argument("--dims", required=True)
    sp.add_argument("--field", required=True)
    sp.add_argument("--offset", type=_int, default=0)
    sp.add_argument("--limit", type=_int, default=None)
    sp.add_argument("--guard", type=_int, default=None)
    sp.add_argument("--out", default=None)

    return p


_parser = lru_cache(maxsize=None)(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "guard", None) is not None and args.guard < 1:
            raise BadParamsError(f"--guard {shown(args.guard)} must be at least 1")
        # looked up per call, so a patched or wrapped command is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except FieldTooSmallError as exc:
        print(f"field too small: {exc}", file=sys.stderr)
        return 4
    except VerificationFailedError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 5
    except (OSError, UnicodeDecodeError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except TenrankError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
