"""tenrank benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run times passes over the workload's items with
tracing off and prints the end-to-end metrics.  With ``--trace 1`` it runs a
fixed number of rounds untraced, then the same items with every layer
boundary wrapped, and prints the per-layer metrics.  Every item's output is
checked against the reference recorded at the seed commit
(``reference.json``).  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

_T0 = __import__("time").perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # this process plus four set-up-only child processes
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Speed calibration: the loop's median time on the baseline machine in a
# calm spell (see BASELINE.md), how often a timed pass re-measures it, and
# how far from an item its calibrations may lie.
CAL_ITERS = 20_000
CAL_NOMINAL_S = 1.5e-3
CAL_EVERY_S = 0.05
CAL_WINDOW_S = 0.25


def import_library():
    """Import tenrank from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import tenrank
    except ImportError as exc:
        raise SystemExit(f"cannot import tenrank from {SRC}: {exc}")
    if Path(tenrank.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"tenrank imported from {tenrank.__file__}, not from {SRC}")
    return tenrank


def percentile(sorted_vals, p):
    """Linear-interpolated percentile of an ascending list."""
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail(sorted_vals):
    """(percentile, value, samples above it) for the highest ladder percentile
    that leaves at least ten samples above it; the maximum if none does."""
    n = len(sorted_vals)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            v = percentile(sorted_vals, p)
            return p, v, sum(1 for x in sorted_vals if x > v)
    return 100.0, sorted_vals[-1], 0


class Record:
    __slots__ = ("item", "seconds", "scaled", "out", "error", "checked")

    def __init__(self, item, seconds, out, error):
        self.item, self.seconds, self.out, self.error = item, seconds, out, error
        self.scaled = seconds
        self.checked = False


def calibration_loop():
    """Fixed pure-Python work, independent of tenrank, whose time tracks the
    machine's current speed."""
    s = 0
    for i in range(CAL_ITERS):
        s += i * i % 7
    return s


def run_items(wl, items, tracer=None, calibrate=False, ref=None):
    """Run items in order; with `ref`, check each output right after timing
    it, so the outputs do not pile up in the heap.

    Every item starts from a collected heap, as in a fresh `tenrank` process:
    before each item, outside its timing, a collection runs and the objects
    still alive are frozen out of the collector.  Otherwise an item pays for
    collecting the garbage of the items before it, and for scanning the
    run's own records.

    With `calibrate`, the calibration loop runs at the start, at the end and
    on a SIGALRM every CAL_EVERY_S of wall time, also in the middle of long
    items.  Its time is taken out of the item it interrupted, and each
    record's `scaled` seconds are its wall seconds times CAL_NOMINAL_S over
    the median calibration time within CAL_WINDOW_S of the item.
    """
    records, spans, cal_t, cal_s = [], [], [], []
    clock = time.perf_counter

    def on_alarm(signum, frame):
        t = clock()
        calibration_loop()
        cal_s.append(clock() - t)
        cal_t.append(t)

    if calibrate:
        on_alarm(None, None)
        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
    try:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            gc.collect()
            gc.freeze()
            t = clock()
            try:
                out, err = wl.run(item), None
            except Exception as exc:  # an item that raises counts as failed
                out, err = None, f"{type(exc).__name__}: {exc}"
            end = clock()
            spans.append((t, end))
            records.append(Record(item, end - t, out, err))
            if ref is not None:
                check_record(wl, records[-1], ref)
    finally:
        if calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            on_alarm(None, None)
    if calibrate:
        for rec, (t, end) in zip(records, spans):
            lo = bisect.bisect_left(cal_t, t)
            hi = bisect.bisect_right(cal_t, end)
            rec.seconds -= sum(cal_s[lo:hi])
            lo = bisect.bisect_left(cal_t, t - CAL_WINDOW_S)
            hi = bisect.bisect_right(cal_t, end + CAL_WINDOW_S)
            sample = cal_s[lo:hi] or cal_s
            rec.scaled = rec.seconds * CAL_NOMINAL_S / statistics.median(sample)
    return records


def timed_passes(wl, budget, ref):
    """Run the workload's items `wl.passes` times over, stopping early once the
    budget is spent (at least one pass).  Returns (records of every pass, best
    raw and best scaled seconds per item, passes run).  The best of several
    passes filters out short stalls; scaling by the calibration loop filters
    out the machine's slow spells, which last tens of seconds."""
    items = [it for r in range(wl.rounds) for it in wl.items(r)]
    records = []
    raw, scaled = [math.inf] * len(items), [math.inf] * len(items)
    start = time.perf_counter()
    for p in range(wl.passes):
        if p and time.perf_counter() - start >= budget:
            return records, raw, scaled, p
        recs = run_items(wl, items, calibrate=True, ref=ref)
        raw = [min(b, rec.seconds) for b, rec in zip(raw, recs)]
        scaled = [min(b, rec.scaled) for b, rec in zip(scaled, recs)]
        records += recs
    return records, raw, scaled, wl.passes


def check_record(wl, rec, ref):
    """Set rec.error if the item's output fails its check, then keep only the
    part of the output that the run-level checks need."""
    if rec.error is None:
        try:
            rec.error = wl.check(rec.item, rec.out, ref)
        except Exception as exc:
            rec.error = f"check raised {type(exc).__name__}: {exc}"
    if rec.out is not None:
        rec.out = wl.summary(rec.out)
    rec.checked = True


def check_records(wl, records, ref):
    """Check the records not yet checked; returns run-level failure reasons."""
    for rec in records:
        if not rec.checked:
            check_record(wl, rec, ref)
    done = [(rec.item, rec.out) for rec in records if rec.out is not None]
    return wl.check_all(done, ref)


def scaled_setup(raw_s):
    """Set-up seconds scaled like item times, by the median of nine
    calibration loops run right after the set-up."""
    cal = []
    for _ in range(9):
        t = time.perf_counter()
        calibration_loop()
        cal.append(time.perf_counter() - t)
    return raw_s * CAL_NOMINAL_S / statistics.median(cal)


def setup_samples(args, own):
    """(scaled, raw) set-up seconds of this process and of fresh set-up-only
    processes."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"]
            + ([] if args.max_items is None else ["--max-items", str(args.max_items)]),
            cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
        )
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((sample["setup_s"], sample["raw_s"]))
    return samples


def provenance(args, counts):
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    h = hashlib.sha256()
    for path in sorted((SRC / "tenrank").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": sha, "src_sha256": h.hexdigest()[:16], "items": counts,
    }


def item_counts(records):
    counts = {}
    for rec in records:
        counts[rec.item.kind] = counts.get(rec.item.kind, 0) + 1
    return counts


def item_metrics(best):
    """items_per_s, p50, tail from per-item seconds."""
    ms = sorted(b * 1000.0 for b in best)
    p, tail_ms, beyond = tail(ms)
    return len(best) / sum(best), percentile(ms, 50.0), tail_ms, p, beyond


def end_to_end(args, wl, setup_s, ref):
    records, raw, scaled, passes = timed_passes(wl, args.seconds, ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = setup_samples(args, setup_s)
    setup_scaled = statistics.median(s for s, _ in setups)
    rate, p50, tail_ms, p, beyond = item_metrics(scaled)
    raw_rate, raw_p50, raw_tail, _, _ = item_metrics(raw)
    metrics = {
        "items_per_s": (rate, "1/s"),
        "item_ms_p50": (p50, "ms"),
        "item_ms_tail": (tail_ms, "ms"),
        "setup_s": (setup_scaled, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    unscaled = {"items_per_s": raw_rate, "item_ms_p50": raw_p50, "item_ms_tail": raw_tail,
                "setup_s": statistics.median(raw for _, raw in setups)}
    notes = {
        "items_per_s": f"{len(scaled)} items in {wl.rounds} rounds, best of {passes} passes; "
                       f"unscaled {raw_rate:.6g}",
        "item_ms_p50": f"unscaled {raw_p50:.6g}",
        "item_ms_tail": f"p{p:g}, {beyond} of {len(scaled)} samples beyond; "
                        f"unscaled {raw_tail:.6g}",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s, _ in setups)
                   + f"; unscaled {unscaled['setup_s']:.4f}",
    }
    by_kind = {}
    for rec, b in zip(records, scaled):
        by_kind.setdefault(rec.item.kind, []).append(b * 1000.0)
    kind_ms = {k: {"n": len(v), "p50": statistics.median(v), "max": max(v)}
               for k, v in sorted(by_kind.items())}
    return records, metrics, notes, {"passes": passes, "tail_percentile": p,
                                     "setup_samples": setups, "kind_ms": kind_ms,
                                     "unscaled": unscaled}


def per_layer(args, wl, ref):
    """Untraced, traced, untraced again over the same items.  The overhead
    compares the traced phase with the faster untraced one, so first-call
    costs and the machine's slow spells do not read as negative overhead."""
    from tracing import Tracer

    items = [it for r in range(wl.rounds_traced) for it in wl.items(r)]

    def phase(tracer=None):
        t = time.perf_counter()
        recs = run_items(wl, items, tracer, ref=None if tracer else ref)
        return recs, time.perf_counter() - t

    before, before_s = phase()
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = phase(tracer)
    finally:
        tracer.restore()
    after, after_s = phase()
    plain_s = min(before_s, after_s)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.npz"
    tracer.save(str(path), {"items": len(items), "plain_s": plain_s, "traced_s": traced_s})
    notes = {"trace.overhead_frac": f"{len(items)} items: {before_s:.3f} s and {after_s:.3f} s "
                                    f"untraced, {traced_s:.3f} s traced; spans in {path.name}"}
    return before + traced + after, metrics, notes, {"rounds": wl.rounds_traced}


def layer_metrics(tr):
    """The per-layer metrics named in BENCHMARK.json, from one traced phase."""
    c = tr.counters

    def s(name):
        return tr.metric(name, "s")

    def calls(name):
        return tr.metric(name, "calls")

    def ratio(a, b):
        return a / b if b else 0.0

    # metric names start with a letter: _batch and _gf2 report as batch and gf2
    self_s = {f"{layer.lstrip('_')}.self_s": (v, "s") for layer, v in tr.self_s.items()}
    matrices = c.get("batch.batched_rank_mod_p.matrices", 0)
    scanned = c.get("tensor.Tensor3.nonzero_items.scanned", 0)
    yielded = c.get("tensor.Tensor3.nonzero_items.yielded", 0)
    m = {
        "batch.batched_rank_mod_p.matrices": (matrices, "count"),
        "batch.matrices_per_s": (ratio(matrices, s("_batch.batched_rank_mod_p")), "1/s"),
        "batch.projective_array.s": (s("_batch.projective_array"), "s"),
        "spans.max_rank_exhaustive.s": (s("spans.max_rank_exhaustive"), "s"),
        "spans.mincov_exhaustive.s": (s("spans.mincov_exhaustive"), "s"),
        "spans.mincov_exhaustive.calls": (calls("spans.mincov_exhaustive"), "count"),
        "spans.subspaces.yielded": (c.get("spans.subspaces.yielded", 0), "count"),
        "spans.rref_per_subspace": (ratio(c.get("rref_in_mincov", 0),
                                          c.get("subspaces_in_mincov", 0)), "ratio"),
        "matrix.rank.calls": (calls("matrix.rank"), "count"),
        "matrix.rref.calls": (calls("matrix.rref"), "count"),
        "matrix.solve.calls": (calls("matrix.solve"), "count"),
        "matrix.Matrix.mul.calls": (calls("matrix.Matrix.mul"), "count"),
        "gf2.exists_unit_restriction_gf2.calls": (calls("_gf2.exists_unit_restriction_gf2"), "count"),
        "tensor.Tensor3.kron.entries": (c.get("tensor.Tensor3.kron.entries", 0), "count"),
        "tensor.Tensor3.nonzero_items.scanned": (scanned, "count"),
        "tensor.Tensor3.nonzero_items.yielded": (yielded, "count"),
        "tensor.nnz_ratio": (ratio(yielded, scanned), "ratio"),
        "tensor.apply_restriction.calls": (calls("tensor.apply_restriction"), "count"),
        "engine.subrank_exact.s": (s("engine.subrank_exact"), "s"),
        "engine.subrank_exact.calls": (calls("engine.subrank_exact"), "count"),
        "engine.slicerank_exact.s": (s("engine.slicerank_exact"), "s"),
        "engine.mamu_cube.s": (s("engine.mamu_cube"), "s"),
        "engine.two_direction_square.s": (s("engine.two_direction_square"), "s"),
        "engine.guard_trips": (c.get("engine.guard_trips", 0), "count"),
        "pivots.all_rho.s": (s("pivots.all_rho"), "s"),
        "pivots.rho_degeneration.s": (s("pivots.rho_degeneration"), "s"),
        "pivots.sqrt_certificate.s": (s("pivots.sqrt_certificate"), "s"),
        "laurent.verify_degeneration.calls": (calls("laurent.verify_degeneration"), "count"),
        "laurent.apply_degeneration.s": (s("laurent.apply_degeneration"), "s"),
        "io.serialize_certificate.s": (s("io.serialize_certificate"), "s"),
        "io.parse_certificate.s": (s("io.parse_certificate"), "s"),
        "io.bytes": (c.get("io.bytes", 0), "B"),
        "cli.scan_format.s": (s("cli.scan_format"), "s"),
        "cli.main.s": (s("cli.main"), "s"),
    }
    m.update(self_s)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit (used for setup_s samples)")
    ap.add_argument("--max-items", type=int, default=None,
                    help="truncate every round to this many items (smoke tests)")
    args = ap.parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="items_", dir=str(OUT_DIR))
    try:
        wl = WORKLOADS[args.workload](args.seed, scratch, args.max_items)
        wl.items(0)
        wl.warm_up()
        raw_setup_s = time.perf_counter() - _T0
        setup_s = (scaled_setup(raw_setup_s), raw_setup_s)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s[0], "raw_s": setup_s[1]}))
            return 0
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            ref = json.load(fh)[args.workload]
        if args.trace:
            records, metrics, notes, extra = per_layer(args, wl, ref)
        else:
            records, metrics, notes, extra = end_to_end(args, wl, setup_s, ref)
        run_failures = check_records(wl, records, ref)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = [rec for rec in records if rec.error is not None]
    counts = item_counts(records)
    prov = provenance(args, counts)
    result = {
        "correct": not failed and not run_failures,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for k, (v, u) in metrics.items():
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"{k} {v:.6g} {u}{note}")
    print(f"failed_frac {len(failed) / len(records):.6g} ratio  "
          f"({len(failed)} of {len(records)} items)")
    for rec in failed[:10]:
        print(f"FAILED {rec.item.key}: {rec.error}")
    for reason in run_failures:
        print(f"FAILED run: {reason}")
    with open(OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, provenance=prov, notes=notes, **extra), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
