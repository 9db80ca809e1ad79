import contextlib
import io as _stdio
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenrank
from tenrank.cli import main, scan_format
from tenrank.errors import BadParamsError, ParseError, ResourceGuardError, refuse_over
from tenrank.fields import GF, QQ
from tenrank.io import (
    certificate_of_restriction,
    parse_certificate,
    parse_tensor,
    serialize_certificate,
    serialize_tensor,
)
from tenrank.laurent import verify_degeneration
from tenrank.pivots import rho_degeneration
from tenrank.tensor import Tensor3, catalog_entry, guard_dims, null_algebra, power_dims, unit, w_tensor


def rand_tensor(field, dims, rng):
    n = dims[0] * dims[1] * dims[2]
    return Tensor3(field, dims, [rng.randrange(field.p) for _ in range(n)])


def test_tensor_roundtrip_gf():
    rng = random.Random(3)
    for _ in range(20):
        t = rand_tensor(GF(7), (3, 2, 4), rng)
        assert parse_tensor(serialize_tensor(t)) == t


def test_tensor_roundtrip_q():
    t = Tensor3(QQ, (2, 2, 2), {(0, 1, 1): Fraction(3, 4), (1, 0, 0): Fraction(-2)})
    text = serialize_tensor(t)
    assert "3/4" in text
    assert parse_tensor(text) == t


def test_tensor_parse_errors():
    with pytest.raises(ParseError):
        parse_tensor("bogus\n")
    base = "tensor v1\nfield gf:2\ndims 2 2 2\n"
    with pytest.raises(ParseError):
        parse_tensor(base + "3 1 1 1\n")  # out of range
    with pytest.raises(ParseError):
        parse_tensor(base + "1 1 1 1\n1 1 1 1\n")  # duplicate
    with pytest.raises(ParseError):
        parse_tensor(base + "1 1 1 0\n")  # explicit zero
    with pytest.raises(ParseError):
        parse_tensor(base + "1 1 1\n")  # short line


def test_certificate_roundtrip():
    t = null_algebra(GF(7), 3)
    d = rho_degeneration(t, 1, 2)
    text = serialize_certificate(d, t.field)
    d2, field = parse_certificate(text)
    assert field == t.field
    assert d2.claimed_r == d.claimed_r and d2.power == d.power
    assert verify_degeneration(d2, t)
    assert serialize_certificate(d2, field) == text  # bit-exact replay


def test_certificate_of_restriction_roundtrip():
    from tenrank.engine import subrank_exact

    t = w_tensor(GF(2))
    _, cert = subrank_exact(t)
    d = certificate_of_restriction(cert.restriction, cert.r, cert.power)
    text = serialize_certificate(d, t.field)
    d2, _ = parse_certificate(text)
    assert verify_degeneration(d2, t)


def _w_certificate_text():
    from tenrank.engine import subrank_exact

    t = w_tensor(GF(2))
    _, cert = subrank_exact(t)
    d = certificate_of_restriction(cert.restriction, cert.r, cert.power)
    return t, serialize_certificate(d, t.field)


def test_certificate_parse_rejects_bad_power_r_and_duplicates():
    _, text = _w_certificate_text()
    assert "\npower 1\n" in text and "\nr 1\n" in text
    lines = text.splitlines(keepends=True)
    first = next(i for i, ln in enumerate(lines) if ln[0].isdigit())
    duplicate = "".join(lines[: first + 1] + [lines[first]] + lines[first + 1:])
    bad = [
        text.replace("power 1\n", "power 0\n"),
        text.replace("power 1\n", "power -3\n"),
        text.replace("power 1\n", "power x\n"),
        text.replace("power 1\n", "power\n"),
        text.replace("\nr 1\n", "\nr -1\n"),
        text.replace("\nr 1\n", "\nr x\n"),
        duplicate,
    ]
    for variant in bad:
        with pytest.raises(ParseError):
            parse_certificate(variant)


def test_cli_power_zero_certificate_is_not_verified(tmp_path, capsys):
    t, text = _w_certificate_text()
    tpath = tmp_path / "w.tensor"
    cpath = tmp_path / "w.cert"
    tpath.write_text(serialize_tensor(t))
    cpath.write_text(text.replace("power 1\n", "power 0\n"))
    assert run_cli("verify", str(cpath), str(tpath)) == 2
    out = capsys.readouterr()
    assert "verified" not in out.out and "parse error" in out.err


def run_cli(*argv):
    return main(list(argv))


_BAD_CERTIFICATE_EDITS = {
    "bare field": lambda text, header, first, rows: text.replace("field gf:2\n", "field\n"),
    "bad field tag": lambda text, header, first, rows: text.replace("field gf:2\n", "field gf:4\n"),
    "non-integer map header": lambda text, header, first, rows: text.replace(header, "map 1 rows x cols 2"),
    "negative map rows": lambda text, header, first, rows: text.replace(header, "map 1 rows -1 cols 2"),
    "row outside map": lambda text, header, first, rows: text.replace(first, f"{rows + 1} 1 0 1", 1),
    "column outside map": lambda text, header, first, rows: text.replace(first, "1 0 0 1", 1),
    "bad quadruple value": lambda text, header, first, rows: text.replace(
        first, first.rsplit(" ", 1)[0] + " x", 1),
    "zero quadruple": lambda text, header, first, rows: text.replace(first, first + "\n1 1 9 0", 1),
}
_BAD_TENSOR_EDITS = {
    "bare field": ("field gf:2\n", "field\n"),
    "non-integer dims": ("dims 2 2 2\n", "dims x 1 1\n"),
    "bad entry value": ("1 2 2 1\n", "1 2 2 x\n"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CERTIFICATE_EDITS))
def test_malformed_certificate_is_a_parse_error(case, tmp_path, capsys):
    t, cert = _w_certificate_text()
    header = next(ln for ln in cert.splitlines() if ln.startswith("map 1 "))
    first = next(ln for ln in cert.splitlines() if ln[0].isdigit())
    text = _BAD_CERTIFICATE_EDITS[case](cert, header, first, int(header.split()[3]))
    assert text != cert
    with pytest.raises(ParseError):
        parse_certificate(text)
    tpath = tmp_path / "w.tensor"
    cpath = tmp_path / "w.cert"
    tpath.write_text(serialize_tensor(t))
    cpath.write_text(text)
    assert run_cli("verify", str(cpath), str(tpath)) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(_BAD_TENSOR_EDITS))
def test_malformed_tensor_is_a_parse_error(case, tmp_path, capsys):
    t, cert = _w_certificate_text()
    old, new = _BAD_TENSOR_EDITS[case]
    text = serialize_tensor(t).replace(old, new)
    assert new in text
    with pytest.raises(ParseError):
        parse_tensor(text)
    tpath = tmp_path / "w.tensor"
    cpath = tmp_path / "w.cert"
    tpath.write_text(text)
    cpath.write_text(cert)
    assert run_cli("verify", str(cpath), str(tpath)) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x", "1/0", "1/x", "1.5"])
def test_bad_rational_entry_is_a_parse_error(value):
    with pytest.raises(ParseError):
        parse_tensor(f"tensor v1\nfield q\ndims 1 1 1\n1 1 1 {value}\n")


def test_huge_dims_refused_before_allocating(tmp_path, capsys):
    text = "tensor v1\nfield gf:2\ndims 100000 100000 100000\n1 1 1 1\n"
    with pytest.raises(ResourceGuardError, match="guard"):
        parse_tensor(text)
    tpath = tmp_path / "huge.tensor"
    tpath.write_text(text)
    assert run_cli("info", str(tpath)) == 3
    assert "resource guard" in capsys.readouterr().err


def test_cli_workflow(tmp_path):
    tpath = tmp_path / "w.tensor"
    cpath = tmp_path / "w.cert"
    assert run_cli("catalog", "w_tensor", "--field", "gf:2", "--out", str(tpath)) == 0
    assert run_cli("info", str(tpath)) == 0
    assert run_cli("subrank", str(tpath), "--certify", str(cpath)) == 0
    assert run_cli("verify", str(cpath), str(tpath)) == 0
    assert run_cli("pivots", str(tpath)) == 0
    assert run_cli("maxrank", str(tpath), "--orient", "2,3") == 0
    assert run_cli("minrank", str(tpath), "--orient", "2,3") == 0
    assert run_cli("slicerank", str(tpath)) == 0
    assert run_cli("bounds", str(tpath), "--format", "kv") == 0


def test_cli_certify_rho_remark(tmp_path):
    tpath = tmp_path / "r.tensor"
    t = Tensor3(GF(2), (2, 3, 2), {(0, 2, 0): 1, (1, 0, 0): 1, (0, 1, 1): 1})
    tpath.write_text(serialize_tensor(t))
    cpath = tmp_path / "r.cert"
    assert run_cli("certify", "rho", str(tpath), "--orient", "2,1", "--out", str(cpath)) == 0
    d, _ = parse_certificate(cpath.read_text())
    assert d.claimed_r == 2
    assert run_cli("verify", str(cpath), str(tpath)) == 0


def test_cli_certify_c2_and_sqrt(tmp_path):
    rng = random.Random(5)
    while True:
        t = rand_tensor(GF(2), (3, 3, 2), rng)
        if t.is_concise():
            break
    tpath = tmp_path / "c2.tensor"
    tpath.write_text(serialize_tensor(t))
    cpath = tmp_path / "c2.cert"
    assert run_cli("certify", "c2", str(tpath), "--out", str(cpath)) == 0
    assert run_cli("verify", str(cpath), str(tpath)) == 0

    u = unit(GF(5), 2)
    upath = tmp_path / "u.tensor"
    upath.write_text(serialize_tensor(u))
    spath = tmp_path / "u.cert"
    assert run_cli("certify", "sqrt", str(upath), "--out", str(spath)) == 0
    d, _ = parse_certificate(spath.read_text())
    assert d.power == 2
    assert run_cli("verify", str(spath), str(upath)) == 0


def test_cli_verify_rejects_wrong_tensor(tmp_path):
    t = unit(GF(2), 2)
    other = w_tensor(GF(2))
    tpath = tmp_path / "t.tensor"
    opath = tmp_path / "o.tensor"
    cpath = tmp_path / "t.cert"
    tpath.write_text(serialize_tensor(t))
    opath.write_text(serialize_tensor(other))
    assert run_cli("subrank", str(tpath), "--certify", str(cpath)) == 0
    assert run_cli("verify", str(cpath), str(opath)) == 5


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.tensor"
    bad.write_text("not a tensor\n")
    assert run_cli("info", str(bad)) == 2
    big = tmp_path / "big.tensor"
    big.write_text(serialize_tensor(unit(GF(11), 6)))
    assert run_cli("maxrank", str(big), "--orient", "1,2", "--guard", "10") == 3
    # border extraction needs |F| > r + 1: build via bounds on a small field
    w = tmp_path / "w.tensor"
    w.write_text(serialize_tensor(w_tensor(GF(2))))
    assert run_cli("scan", "--dims", "2,2,2", "--field", "gf:3", "--guard", "100") == 3


@pytest.mark.parametrize("guard", ["0", "-1"])
def test_guard_below_one_is_rejected(guard, tmp_path, capsys):
    tpath = tmp_path / "u.tensor"
    tpath.write_text(serialize_tensor(unit(GF(3), 2)))
    assert run_cli("subrank", str(tpath), "--guard", guard) == 1
    assert run_cli("scan", "--dims", "2,2,1", "--field", "gf:3", "--guard", guard) == 1
    assert run_cli("maxrank", str(tpath), "--trials", "3", "--guard", guard) == 1
    err = capsys.readouterr().err
    assert err.count(f"--guard {guard} must be at least 1") == 3
    assert run_cli("subrank", str(tpath), "--guard", "1") == 3
    assert run_cli("scan", "--dims", "2,2,1", "--field", "gf:3", "--guard", "1") == 3



def test_scan_over_q_names_the_infinite_field(capsys):
    assert run_cli("scan", "--dims", "1,1,1", "--field", "q") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: InfiniteFieldError: scan needs a finite field\n"

def test_scan_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit):
        run_cli("scan", "--dims", "2,2,1", "--field", "gf:2", "--workers", "2")
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("info", "--guard", "5"), ("verify", "c.cert", "--seed", "3"),
                                  ("bounds", "--seed", "3")])
def test_flags_only_where_read(argv, tmp_path, capsys):
    tpath = tmp_path / "w.tensor"
    tpath.write_text(serialize_tensor(w_tensor(GF(2))))
    command, *rest = argv
    with pytest.raises(SystemExit):
        run_cli(command, *rest, str(tpath))
    assert rest[-2] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["info", "verify"])
def test_unreadable_input_is_a_file_error(command, tmp_path, capsys):
    good = tmp_path / "w.tensor"
    good.write_text(serialize_tensor(w_tensor(GF(2))))
    binary = tmp_path / "bad.bin"
    binary.write_bytes(b"tensor v1\n\xff\n")
    for bad in (tmp_path, binary):  # a directory, then a file that is not UTF-8
        argv = [command, str(bad)] if command == "info" else [command, str(bad), str(good)]
        assert run_cli(*argv) == 2
        assert "file error" in capsys.readouterr().err


def test_catalog_size_guard_before_building(capsys):
    from tenrank.tensor import catalog

    with pytest.raises(ResourceGuardError, match="16974593 entries"):
        catalog(GF(2), "unit", 257)  # 257^3 is just over 2^24
    assert run_cli("catalog", "unit", "257") == 3
    assert "resource guard" in capsys.readouterr().err
    assert run_cli("catalog", "unit", "x") == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_power(tmp_path):
    t = unit(GF(3), 2)
    tpath = tmp_path / "u.tensor"
    out = tmp_path / "u2.tensor"
    tpath.write_text(serialize_tensor(t))
    assert run_cli("power", str(tpath), "2", "--out", str(out)) == 0
    assert parse_tensor(out.read_text()) == unit(GF(3), 4)


def test_scan_resumable_chunks():
    f = GF(2)
    full, _ = scan_format(f, (2, 2, 2))
    merged = {}
    for offset in range(0, 256, 64):
        part, n = scan_format(f, (2, 2, 2), offset=offset, limit=64)
        assert n == 64
        for k, v in part.items():
            merged[k] = merged.get(k, 0) + v
    assert merged == full


def test_scan_rejects_negative_offset_and_limit(capsys):
    for offset, limit in ((-5, 2), (0, -1)):
        with pytest.raises(BadParamsError):
            scan_format(GF(3), (2, 2, 2), offset=offset, limit=limit)
    assert run_cli("scan", "--dims", "2,2,2", "--field", "gf:3", "--offset", "-5", "--limit", "2") == 1
    out = capsys.readouterr()
    assert "total" not in out.out and "BadParamsError" in out.err


def test_scan_offset_past_the_format_is_refused(capsys):
    with pytest.raises(BadParamsError, match="past the end of the 4096 tensors"):
        scan_format(GF(2), (2, 2, 3), offset=4097, limit=3)
    assert run_cli("scan", "--dims", "2,2,3", "--field", "gf:2", "--offset", "5000", "--limit", "3") == 1
    out = capsys.readouterr()
    assert "total" not in out.out and "BadParamsError" in out.err
    assert run_cli("scan", "--dims", "2,2,3", "--field", "gf:2", "--offset", "4096", "--limit", "3") == 0
    assert "total 0\n" in capsys.readouterr().out


def test_scan_refusals_are_not_cached_and_a_passing_format_is():
    """scan_format checks a format once per (field, dims, cap), in a cache
    that keeps passing formats only: each refusal fires again, with the same
    message, on a second identical call."""
    cases = [
        ({"dims": (4096, 0, 4097)}, ResourceGuardError),  # the format guard
        ({"dims": (2, 2, 3), "cap": 4095}, ResourceGuardError),
        ({"dims": (2, 2, 3), "offset": 4097, "limit": 3}, BadParamsError),
        ({"dims": (2, 2, 3), "limit": -1}, BadParamsError),
    ]
    for kw, exc in cases:
        messages = []
        for _ in range(2):
            with pytest.raises(exc) as info:
                scan_format(GF(2), **kw)
            messages.append(str(info.value))
        assert messages[0] == messages[1], kw
    scan_format(GF(2), (2, 1, 2), offset=3, limit=1)
    hits = tenrank.cli._scan_total.cache_info().hits
    assert scan_format(GF(2), (2, 1, 2), offset=5, limit=1)[1] == 1
    assert tenrank.cli._scan_total.cache_info().hits == hits + 1


def test_cli_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    """main reuses one parser: a --guard given to one call does not reach
    the next, and a command patched after the first call is the one run."""
    assert run_cli("scan", "--dims", "2,2,1", "--field", "gf:2", "--guard", "1") == 3
    parser = tenrank.cli._parser()
    assert run_cli("scan", "--dims", "2,2,1", "--field", "gf:2") == 0
    assert "total 16\n" in capsys.readouterr().out
    assert tenrank.cli._parser() is parser
    monkeypatch.setattr(tenrank.cli, "cmd_scan", lambda args: 7)
    assert run_cli("scan", "--dims", "2,2,1", "--field", "gf:2") == 7


@pytest.mark.parametrize("dims", ["a,2,2", "2,2", "2,-1,2"])
def test_scan_bad_dims_is_a_parse_error(dims, capsys):
    assert run_cli("scan", f"--dims={dims}", "--field", "gf:3") == 2
    assert "parse error" in capsys.readouterr().err


# Written by `subrank --certify` for this tensor before the generic search
# enumerated map pairs up to scaling and row order; the witness must not move.
_GF3_222_ENTRIES = [0, 2, 0, 2, 1, 2, 2, 0]
_GF3_222_CERTIFICATE = (
    "certificate v1\nfield gf:3\npower 1\nr 2\n"
    "map 1 rows 2 cols 2\n1 1 0 2\n2 1 0 2\n2 2 0 2\n"
    "map 2 rows 2 cols 2\n1 1 0 1\n1 2 0 1\n2 1 0 1\n2 2 0 2\n"
    "map 3 rows 2 cols 2\n1 1 0 1\n1 2 0 2\n2 1 0 1\n"
)


def test_subrank_certificate_bytes_gf3_222(tmp_path):
    tpath = tmp_path / "t.tensor"
    cpath = tmp_path / "t.cert"
    tpath.write_text(serialize_tensor(Tensor3(GF(3), (2, 2, 2), _GF3_222_ENTRIES)))
    assert run_cli("subrank", str(tpath), "--certify", str(cpath)) == 0
    assert cpath.read_text() == _GF3_222_CERTIFICATE
    assert run_cli("verify", str(cpath), str(tpath)) == 0


def test_scan_chain_inequalities_gf3_tiny():
    f = GF(3)
    counts, total = scan_format(f, (2, 2, 1), cap=1 << 20)
    assert total == 3**4
    for (q, sr, ranks, concise), cnt in counts.items():
        if min(ranks):
            assert q <= sr <= min(ranks)


def test_cli_stdin_pipe(tmp_path, monkeypatch, capsys):
    """`catalog w_tensor | subrank -` style composition."""
    import io as _io

    text = serialize_tensor(w_tensor(GF(2)))
    monkeypatch.setattr("sys.stdin", _io.StringIO(text))
    assert run_cli("subrank", "-") == 0
    out = capsys.readouterr().out
    assert "subrank 1" in out


def test_cli_catalog_expect(capsys):
    assert run_cli("catalog", "null_algebra", "5", "--expect") == 0
    out = capsys.readouterr().out
    assert "q2 2" in out and "literature" in out


def test_cli_catalog_expect_does_not_build(capsys):
    assert run_cli("catalog", "unit", "257", "--expect") == 0
    assert "dims (257, 257, 257)" in capsys.readouterr().out
    assert run_cli("catalog", "unit", "--expect") == 1
    assert "expects parameters" in capsys.readouterr().err


@pytest.mark.parametrize("params, message", [
    (("null_algebra", "0"), "null_algebra needs n >= 1"),
    (("balanced_pivot", "3"), "balanced_pivot needs a perfect square n"),
    (("balanced_pivot", "-1"), "balanced_pivot needs a perfect square n"),
    (("gen_null_algebra", "4", "3"), "gen_null_algebra needs c >= 1 dividing n"),
    (("matmul", "0", "1", "1"), "matmul tensor needs positive parameters"),
    (("unit", "-1"), "unit tensor size must be nonnegative"),
])
def test_cli_catalog_refuses_what_building_refuses(params, message, capsys):
    """`--expect` builds nothing, but refuses the parameters that building
    the tensor refuses, with the same error."""
    for extra in ((), ("--expect",)):
        assert run_cli("catalog", *params, *extra) == 1
        assert capsys.readouterr().err == f"error: BadParamsError: {message}\n"
    with pytest.raises(BadParamsError, match=f"^{message}$"):
        catalog_entry(params[0], *map(int, params[1:]))


def test_cli_maxrank_refuses_negative_trials(tmp_path, capsys):
    tpath = tmp_path / "w.tensor"
    tpath.write_text(serialize_tensor(w_tensor(GF(3))))
    assert run_cli("maxrank", str(tpath), "--trials", "-3") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--trials -3 must not be negative" in captured.err
    assert run_cli("maxrank", str(tpath), "--trials", "2") == 0
    assert capsys.readouterr().out == "maxrank 2 (randomized lower bound (2 trials))\n"


@pytest.mark.parametrize("dims, orient", [("2 0 3", "1,3"), ("2 0 3", "3,1"), ("0 2 3", "2,3"), ("2 3 0", "1,2")])
@pytest.mark.parametrize("command", [["maxrank"], ["maxrank", "--trials", "4"], ["minrank"]])
def test_span_of_an_empty_slicing_direction_is_refused(command, dims, orient, tmp_path, capsys):
    """A slicing direction of size 0 gives no slices: the span is refused as
    `span_of` refuses an empty one, with exit 1 and no traceback."""
    tpath = tmp_path / "empty.tensor"
    tpath.write_text(f"tensor v1\nfield gf:5\ndims {dims}\n")
    assert run_cli(command[0], str(tpath), "--orient", orient, *command[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ZeroSpanError: a span needs at least one generator\n"


def test_cli_bounds_names_the_field_as_the_oracles_skip_reason(tmp_path, capsys):
    tpath = tmp_path / "w.tensor"
    tpath.write_text(serialize_tensor(w_tensor(QQ)))
    assert run_cli("bounds", str(tpath)) == 0
    out = capsys.readouterr().out
    assert "skipped: exact subrank oracle: needs a finite field" in out
    assert "skipped: exact slice rank oracle: needs a finite field" in out
    assert "search space above guard" not in out


def test_claimed_r_beyond_the_dims_fails_before_building(tmp_path, capsys):
    tpath, cpath = tmp_path / "w.tensor", tmp_path / "big.cert"
    tpath.write_text(serialize_tensor(w_tensor(GF(2))))
    maps = "".join(f"map {leg} rows 1000000 cols 2\n" for leg in (1, 2, 3))
    cpath.write_text(f"certificate v1\nfield gf:2\npower 1\nr 1000000\n{maps}")
    assert run_cli("verify", str(cpath), str(tpath)) == 5
    assert "claimed r 1000000 exceeds the smallest dimension 2" in capsys.readouterr().err


def _cli_process(*argv):
    """`tenrank` in its own process, so that a hang is cut by the timeout
    and a crash shows as a return code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tenrank.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "tenrank.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)


@pytest.mark.parametrize("command", ["power", "verify"])
@pytest.mark.parametrize("m", [1000, 10**12])
def test_power_beyond_the_limit_is_refused_at_once(command, m, tmp_path):
    tpath, cpath = tmp_path / "one.tensor", tmp_path / "one.cert"
    tpath.write_text("tensor v1\nfield gf:2\ndims 1 1 1\n1 1 1 1\n")
    maps = "".join(f"map {leg} rows 1 cols 1\n1 1 0 1\n" for leg in (1, 2, 3))
    cpath.write_text(f"certificate v1\nfield gf:2\npower {m}\nr 1\n{maps}")
    argv = ["power", str(tpath), str(m)] if command == "power" else ["verify", str(cpath), str(tpath)]
    done = _cli_process(*argv)
    assert done.returncode == 3
    assert f"kronecker power {m} exceeds the power limit 24" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["info", "scan"])
def test_zero_dimension_format_is_refused_at_once(command, tmp_path):
    """A zero dimension leaves no entries, but a flattening of width 10^16."""
    tpath = tmp_path / "zero.tensor"
    tpath.write_text("tensor v1\nfield gf:2\ndims 0 100000000 100000000\n")
    argv = (["info", str(tpath)] if command == "info"
            else ["scan", "--dims", "0,100000000,100000000", "--field", "gf:2"])
    done = _cli_process(*argv)
    assert done.returncode == 3
    assert "would have a flattening of width 10000000000000000" in done.stderr
    assert "Traceback" not in done.stderr


def test_scan_cap_names_the_count_without_writing_it_out(capsys):
    """2^20000 has more digits than Python converts to a string by default."""
    assert run_cli("scan", "--dims", "1,1,20000", "--field", "gf:2") == 3
    assert "scan of 2^20000 tensors exceeds cap 1048576" in capsys.readouterr().err
    assert run_cli("scan", "--dims", "2,2,3", "--field", "gf:2", "--guard", "4095") == 3
    assert "scan of 2^12 tensors exceeds cap 4095" in capsys.readouterr().err


def test_dims_guard_bounds_entries_and_flattening_widths():
    guard_dims((0, 4096, 4096))
    guard_dims((1, 1, 1 << 24))
    with pytest.raises(ResourceGuardError, match="^tensor would have 16777217 entries"):
        guard_dims((1, 1, (1 << 24) + 1))
    with pytest.raises(ResourceGuardError, match="^scan format would have a flattening of width 16781312"):
        guard_dims((4096, 0, 4097), "scan format")
    with pytest.raises(ResourceGuardError, match="flattening of width"):
        scan_format(GF(2), (1 << 24, 0, 2))


def test_bounds_skips_certificates_past_the_power_guard(tmp_path):
    """The squares and cube of unit 17 have 17^6 > 2^24 entries: their
    certificates are too large to check, so `bounds` skips them instead of
    calling them invalid."""
    tpath = tmp_path / "u17.tensor"
    assert run_cli("catalog", "unit", "17", "--field", "gf:11", "--out", str(tpath)) == 0
    done = _cli_process("bounds", str(tpath))
    assert done.returncode == 0, done.stderr
    for path in ("square composition", "cube composition", "sqrt path"):
        assert f"skipped: {path}: kronecker product would have 24137569 entries" in done.stdout


def test_power_limit_leaves_the_entry_guard_message():
    one = Tensor3(GF(2), (1, 1, 1), [1])
    assert power_dims(one, 24) == (1, 1, 1)
    with pytest.raises(ResourceGuardError, match="^kronecker power 25 exceeds the power limit 24$"):
        one.kron_power(25)
    two = Tensor3(GF(2), (2, 1, 1), [1, 1])  # 2^24 entries at m = 24, over the guard at 25
    assert power_dims(two, 24) == (2**24, 1, 1)
    for m in (25, 10**12):
        with pytest.raises(ResourceGuardError, match="^kronecker product would have 33554432 entries"):
            power_dims(two, m)


def test_refuse_over_prints_a_count_past_10_30_as_a_power_of_ten():
    refuse_over(5, 5, "{count} over {guard}")
    with pytest.raises(ResourceGuardError, match=f"^{10**30 - 1} over 5$"):
        refuse_over(10**30 - 1, 5, "{count} over {guard}")
    with pytest.raises(ResourceGuardError, match=r"^more than 10\^29 over 5$"):
        refuse_over(10**30, 5, "{count} over {guard}")
    count = 7**20000  # more digits than Python converts to a string by default
    with pytest.raises(ResourceGuardError, match=r"^search of more than 10\^\d+ pairs exceeds guard 9$") as err:
        refuse_over(count, 9, "search of {count} pairs exceeds guard {guard}")
    k = int(str(err.value).split("^")[1].split()[0])
    assert 10**k < count < 10**(k + 2)


@pytest.mark.parametrize("dims", [(51, 51, 51), (150, 150, 2)])
def test_guards_refuse_huge_counts_in_short_messages(dims, tmp_path, capsys):
    """The map pairs of 51x51x51 and the subspace pairs of 150x150x2 are
    counts of more than 4,300 digits, the other two of hundreds or more: the
    searches end in exit code 3 with a short message, and `bounds` skips
    them."""
    tpath = tmp_path / "sparse.tensor"
    tpath.write_text("tensor v1\nfield gf:7\ndims {} {} {}\n1 1 1 3\n2 2 2 1\n".format(*dims))
    for argv in (["subrank"], ["certify", "subrank"], ["slicerank"]):
        assert run_cli(*argv, str(tpath)) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource guard: ") and "more than 10^" in err and len(err) < 200
    assert run_cli("bounds", str(tpath)) == 0


# -- parsers and `verify` on any text ---------------------------------------------

# counts far beyond every guard, and counts near the edges
_HUGE = st.sampled_from([10**6, 10**12, 2**64])
_COUNTS = st.one_of(st.integers(-2, 12), _HUGE)
_LINE_NOISE = st.text(st.characters(blacklist_categories=("Cs",)), max_size=16)
_FIELD_TAGS = st.sampled_from(["gf:2"] * 6 + ["gf:3", "q", "gf:4", "gf:0", "x"])
_VALUES = st.sampled_from(["1"] * 4 + ["2", "0", "-1", "1/2", "x", "1/0"])


def _mix(draw, lines):
    """Insert noise lines, then maybe shuffle or drop lines."""
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_LINE_NOISE))
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    if lines and draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines) + "\n"


def _entry(draw, ranges, values):
    return " ".join(str(draw(x)) for x in ranges) + " " + draw(values)


@st.composite
def tensor_texts(draw):
    lines = [draw(st.sampled_from(["tensor v1", "tensor v1", "tensor v2"])),
             "field " + draw(_FIELD_TAGS),
             "dims " + " ".join(str(draw(_COUNTS)) for _ in range(3))]
    lines += [_entry(draw, [st.integers(-1, 4)] * 3, _VALUES) for _ in range(draw(st.integers(0, 4)))]
    return _mix(draw, lines)


@st.composite
def certificate_texts(draw, n=2):
    """Certificate texts for a GF(2) tensor of dims (n, n, n).  Half are well
    formed, with every count at least 1, small or huge; of those, half have
    maps of the shape a size-r unit degeneration of the power has, so they
    reach the checks past the parser.  The rest may break any line."""
    clean = draw(st.booleans())
    counts = st.one_of(st.integers(1, 12), _HUGE) if clean else _COUNTS
    power, r = draw(counts), draw(counts)
    fit = clean and draw(st.booleans())
    lines = ["certificate v1" if clean else draw(st.sampled_from(["certificate v1", "certificate v2"])),
             "field " + ("gf:2" if clean else draw(_FIELD_TAGS)), f"power {power}", f"r {r}"]
    for leg in (1, 2, 3):
        rows = r if fit else draw(counts)
        cols = n ** min(power, 24) if fit else draw(counts)
        inside = [st.integers(1, max(1, min(rows, 3))), st.integers(1, max(1, min(cols, 3))),
                  st.integers(-1, 2)]
        lines.append(f"map {leg} rows {rows} cols {cols}")
        lines += [_entry(draw, inside, st.just("1") if clean else _VALUES)
                  for _ in range(draw(st.integers(0, 2)))]
    return "\n".join(lines) + "\n" if clean else _mix(draw, lines)


_ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=200)


@settings(max_examples=300, deadline=None)
@given(st.one_of(tensor_texts(), _ANY_TEXT))
def test_parse_tensor_ends_in_a_value_or_a_named_error(text):
    try:
        assert isinstance(parse_tensor(text), Tensor3)
    except (ParseError, ResourceGuardError):
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(certificate_texts(), _ANY_TEXT))
def test_parse_certificate_ends_in_a_value_or_a_named_error(text):
    try:
        parse_certificate(text)
    except (ParseError, ResourceGuardError):
        pass


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 1]).flatmap(lambda n: st.tuples(
    st.just(n), st.one_of(certificate_texts(n), _ANY_TEXT))))
def test_verify_ends_in_an_exit_code(tmp_path_factory, case):
    n, text = case
    base = tmp_path_factory.mktemp("verify")
    tpath, cpath = base / "t.tensor", base / "c.cert"
    t = w_tensor(GF(2)) if n == 2 else Tensor3(GF(2), (1, 1, 1), [1])
    tpath.write_text(serialize_tensor(t), encoding="utf-8")
    cpath.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(_stdio.StringIO()), contextlib.redirect_stderr(_stdio.StringIO()):
        code = run_cli("verify", str(cpath), str(tpath))
    assert code in (0, 2, 3, 5)


# -- every command that reads a tensor file, on any small tensor file ------------

_SMALL_FIELDS = st.sampled_from(["gf:2", "gf:2", "gf:3", "gf:5", "q"])
_ORIENTS = st.sampled_from(["1,2", "2,3", "3,1", "2,1", "1,3", "3,2", "1,1", "1,4", "x"])
_GUARDS = st.one_of(st.none(), st.integers(1, 10_000))


@st.composite
def small_tensor_texts(draw):
    """Tensor files of dims at most 3 over GF(2), GF(3), GF(5) and Q, with
    nonzero entries; a quarter of them get noise lines, shuffles or drops."""
    tag = draw(_SMALL_FIELDS)
    dims = [draw(st.integers(0, 3)) for _ in range(3)]
    values = ["1", "-1", "2", "1/2", "-3/2"] if tag == "q" else [str(v) for v in range(1, int(tag[3:]))]
    cells = [(i, j, k) for i in range(dims[0]) for j in range(dims[1]) for k in range(dims[2])]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells))) if cells else []
    lines = ["tensor v1", f"field {tag}", "dims " + " ".join(map(str, dims))]
    lines += [f"{i + 1} {j + 1} {k + 1} {draw(st.sampled_from(values))}" for i, j, k in chosen]
    if draw(st.integers(0, 3)) == 0:
        return _mix(draw, lines)
    return "\n".join(lines) + "\n"


@st.composite
def tensor_commands(draw):
    """One argument list of a command that reads a tensor file, before the
    file; --guard, where the command takes it, is at most 10,000."""
    cmd = draw(st.sampled_from(["info", "bounds", "pivots", "maxrank", "minrank", "slicerank", "subrank",
                                "certify rho", "certify sqrt", "certify c2", "certify subrank", "power"]))
    args = cmd.split()
    if cmd in ("maxrank", "minrank", "certify rho"):
        args += ["--orient", draw(_ORIENTS)]
    if cmd == "maxrank":
        args += ["--trials", str(draw(st.integers(0, 4)))]
    if cmd == "bounds":
        args += ["--format", draw(st.sampled_from(["text", "kv"]))]
    guard = draw(_GUARDS)
    if guard is not None and cmd not in ("info", "bounds", "pivots", "power"):
        args += ["--guard", str(guard)]
    if cmd == "power":
        args.append(str(draw(st.integers(-1, 3))))
    return args


@settings(max_examples=300, deadline=None)
@given(tensor_commands(), small_tensor_texts())
def test_every_tensor_command_ends_in_an_exit_code(tmp_path_factory, argv, text):
    """Each command that reads a tensor file ends in exit 0 or in one of the
    README's exit codes on any small tensor file, never in a traceback."""
    path = tmp_path_factory.mktemp("cmd") / "t.tensor"
    path.write_text(text, encoding="utf-8")
    argv = argv[:2] + [str(path)] + argv[2:] if argv[0] == "certify" else [argv[0], str(path), *argv[1:]]
    with contextlib.redirect_stdout(_stdio.StringIO()), contextlib.redirect_stderr(_stdio.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4, 5)


# -- long words and long legs: every command ends in a short message ---------------

def _probe_files(tmp_path):
    """The W tensor and its subrank certificate, with one word replaced by
    thousands of digits: the tensor's value or field tag (5,000 digits, past
    what `int` reads), or the certificate's r or map-1 rows (4,000, within it)."""
    t, cert = _w_certificate_text()
    header = next(ln for ln in cert.splitlines() if ln.startswith("map 1 "))
    files = {
        "w.tensor": serialize_tensor(t),
        "value.tensor": "tensor v1\nfield gf:7\ndims 2 2 2\n1 1 1 " + "9" * 5000 + "\n",
        "tag.tensor": "tensor v1\nfield gf:" + "9" * 5000 + "\ndims 2 2 2\n1 1 1 1\n",
        "r.cert": cert.replace("\nr 1\n", "\nr " + "9" * 4000 + "\n"),
        "map.cert": cert.replace(header, "map 1 rows " + "9" * 4000 + " cols " + header.split()[5]),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return {name: str(tmp_path / name) for name in files}


def _run_quietly(argv):
    """main(argv)'s exit code and stderr, with stdout dropped."""
    err = _stdio.StringIO()
    with contextlib.redirect_stdout(_stdio.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_long_words_in_files_end_in_short_messages(tmp_path):
    """A tensor whose value or field tag has 5,000 digits exits 2, and a
    certificate whose r or map rows has 4,000 exits 5, each with a message
    that quotes the long word cut, and its length."""
    path = _probe_files(tmp_path)
    cases = [(["info", path["value.tensor"]], 2), (["subrank", path["value.tensor"]], 2),
             (["info", path["tag.tensor"]], 2), (["subrank", path["tag.tensor"]], 2),
             (["verify", path["r.cert"], path["w.tensor"]], 5), (["verify", path["map.cert"], path["w.tensor"]], 5)]
    for argv, want in cases:
        code, err = _run_quietly(argv)
        assert (code, "Traceback" in err) == (want, False), err[:300]
        assert len(err.encode()) < 200, err[:300]
    assert "(5000 characters)" in _run_quietly(["info", path["value.tensor"]])[1]
    assert "more than 10^3999" in _run_quietly(["verify", path["r.cert"], path["w.tensor"]])[1]


_N, _M = "9" * 5000, "9" * 4200  # past what `int` reads, and within it
_SCAN = ["scan", "--dims", "2,2,1", "--field", "gf:2"]


@pytest.mark.parametrize("argv, want", [
    pytest.param(["maxrank", "W", "--trials", _N], 2, id="trials-N"),
    pytest.param(["maxrank", "W", "--seed", _N, "--trials", "2"], 2, id="seed-N"),
    pytest.param(["subrank", "W", "--guard", _N], 2, id="guard-N"),
    pytest.param(_SCAN + ["--limit", _N], 2, id="scan-limit-N"),
    pytest.param(["power", "W", _N], 2, id="power-N"),
    pytest.param(["subrank", "W", "--guard", "-" + _M], 1, id="guard-minus-M"),
    pytest.param(["maxrank", "W", "--trials", "-" + _M], 1, id="trials-minus-M"),
    pytest.param(_SCAN + ["--offset", _M], 1, id="scan-offset-M"),
    pytest.param(_SCAN + ["--offset", "-" + _M, "--limit", "-" + _M], 1, id="scan-offset-limit-minus-M"),
    pytest.param(_SCAN + ["--guard", "-" + _M], 1, id="scan-guard-minus-M"),
    pytest.param(["catalog", "unit", "1", _M], 1, id="catalog-unit-1-M"),
    pytest.param(["maxrank", "W", "--orient", "1," + _M], 1, id="orient-1-M"),
    pytest.param(["catalog", "matmul", _M, _M, _M, "--expect"], 3, id="catalog-matmul-M-expect"),
])
def test_long_integers_on_the_command_line_end_in_short_messages(argv, want, tmp_path):
    """An integer of thousands of digits in any option, argument or list
    ends in the README's exit code with a short message and no traceback:
    one past what `int` reads is a parse error (exit 2), and one it reads
    is refused as its size is (exit 1), quoted through `shown`.  A value
    computed from such integers that is too long to print is refused as a
    resource guard (exit 3).  W stands for the W tensor's file."""
    path = tmp_path / "w.tensor"
    path.write_text(serialize_tensor(w_tensor(GF(2))))
    code, err = _run_quietly([str(path) if word == "W" else word for word in argv])
    assert (code, "Traceback" in err) == (want, False), err[:300]
    assert len(err.encode()) < 200, err[:300]
    assert {1: "more than 10^4199" in err or "less than -10^4199" in err,
            2: "(5000 characters)" in err,
            3: "cannot be written" in err}[want], err


def test_slicerank_guard_counts_a_huge_field_at_once(tmp_path):
    """The subspace pairs of 200x200 over GF(2^31 - 1) number more than
    10^186000: their count, by the ratio recurrence of the Gaussian
    binomials, is refused within 5 s."""
    path = tmp_path / "sparse.tensor"
    path.write_text("tensor v1\nfield gf:2147483647\ndims 200 200 2\n1 1 1 3\n2 2 2 1\n")
    start = time.perf_counter()
    code, err = _run_quietly(["slicerank", str(path)])
    assert time.perf_counter() - start < 5
    assert code == 3 and err.startswith("resource guard: subspace-pair enumeration of more than 10^"), err
    assert len(err.encode()) < 200


_DIGITS = st.builds(lambda n, d, sign: sign + d * n, st.integers(1000, 4000), st.sampled_from("123456789"),
                    st.sampled_from(["", "", "-"]))
_FILE_COMMANDS = ["info", "bounds", "pivots", "maxrank", "minrank", "slicerank", "subrank",
                  "certify rho", "certify sqrt", "certify c2", "certify subrank", "power", "verify"]
# where the long word goes: (line kind, file, word slots of that line); in
# about a quarter of the cases every word stays short
_PLACES = [("none", "tensor", [])] * 3 + [
    ("field", "tensor", [1]), ("field", "cert", [1]), ("dims", "tensor", [1, 2, 3]), ("entry", "tensor", [0, 1, 2]),
    ("entry", "cert", [0, 1, 2]), ("entry", "tensor", [3]), ("entry", "cert", [3]), ("power", "cert", [1]),
    ("r", "cert", [1]), ("map", "cert", [1, 3, 5])]


@st.composite
def long_word_files(draw):
    """A sparse tensor file with one leg of up to 200 and one to four
    nonzero entries, a certificate for it (a restriction onto <1> through its
    first entry), and, in most cases, one word of 1,000-4,000 digits put into
    a field, dims, index, value, power, r or map line of one of the two.
    Returns (tensor text, certificate text, whether the word is in the
    certificate)."""
    tag = draw(st.sampled_from(["gf:2", "gf:3", "gf:7", "q"]))
    dims = [draw(st.integers(1, 3)) for _ in range(3)]
    dims[draw(st.integers(0, 2))] = draw(st.integers(1, 200))
    cells = draw(st.lists(st.tuples(*(st.integers(1, n) for n in dims)), min_size=1, max_size=4, unique=True))
    values = ["1", "-1", "1/2"] if tag == "q" else [str(v) for v in range(1, int(tag[3:]))]
    first = draw(st.sampled_from(values))
    files = {"tensor": ["tensor v1", f"field {tag}", "dims {} {} {}".format(*dims)]
             + ["{} {} {} {}".format(*cells[0], first)]
             + ["{} {} {} {}".format(*cell, draw(st.sampled_from(values))) for cell in cells[1:]],
             "cert": ["certificate v1", f"field {tag}", "power 1", "r 1"]}
    inverse = "1/" + first if tag == "q" else str(pow(int(first), -1, int(tag[3:])))
    for leg, n in enumerate(dims):
        files["cert"] += [f"map {leg + 1} rows 1 cols {n}", f"1 {cells[0][leg]} 0 {inverse if leg == 0 else 1}"]
    kind, name, slots = draw(st.sampled_from(_PLACES))
    lines = files[name]
    at = [k for k, ln in enumerate(lines) if ("entry" if ln[0].isdigit() else ln.split()[0]) == kind]
    if at:
        at = draw(st.sampled_from(at))
        words = lines[at].split()
        word = draw(_DIGITS)
        if kind == "field" and draw(st.booleans()):
            word = "gf:" + word
        elif slots == [3] and tag == "q" and draw(st.booleans()):
            word = "1/" + word
        words[draw(st.sampled_from(slots))] = word
        lines[at] = " ".join(words)
    return "\n".join(files["tensor"]) + "\n", "\n".join(files["cert"]) + "\n", name == "cert"


@st.composite
def bad_cli_integers(draw):
    """An argument list with one bad integer on the command line, T standing
    for the tensor file: a word that is no integer (one of 4,301-5,000
    digits, past what `int` reads, or no number), or one below its option's
    lower bound, or an offset past the end of the format; in an option, in
    the power m, in an --orient or --dims list, or in the catalog
    parameters.  Returns (argv, whether the word is no integer).  Huge valid
    --guard and --trials values, which lift a bound, are not drawn."""
    long = "9" * draw(st.integers(4301, 5000))
    big = "9" * draw(st.integers(31, 4300))
    scan = ["scan", "--dims", "2,2,1", "--field", "gf:2"]
    below = {  # where -> (argv with {} for the word, words below the bound or past the end)
        "--guard": (draw(st.sampled_from([["subrank", "T"], ["slicerank", "T"], ["minrank", "T"],
                                          ["certify", "subrank", "T"], scan])) + ["--guard", "{}"],
                    ["0", "-1", "-" + big]),
        "--seed": (["maxrank", "T", "--trials", "2", "--seed", "{}"], []),
        "--trials": (["maxrank", "T", "--trials", "{}"], ["-1", "-" + big]),
        "--offset": (scan + ["--offset", "{}"], ["-1", "-" + big, "17", big]),
        "--limit": (scan + ["--limit", "{}"], ["-1", "-" + big]),
        "m": (["power", "T", "{}"], ["0", "-1", "-" + big]),
        "--orient": (draw(st.sampled_from([["maxrank", "T"], ["minrank", "T"], ["certify", "rho", "T"]]))
                     + ["--orient=" + draw(st.sampled_from(["1,{}", "{},2"]))], ["0", "4", big, "-" + big]),
        "--dims": (["scan", "--dims=" + draw(st.sampled_from(["{},1,1", "2,{},1"])), "--field", "gf:2"],
                   ["-1", "-" + big]),
        "catalog": (["catalog"] + draw(st.sampled_from([["unit", "{}"], ["matmul", "1", "{}", "1"],
                                                         ["null_algebra", "{}"], ["unit", "1", "{}"]])),
                    ["0", "-1", "-" + big]),
    }
    argv, words = below[draw(st.sampled_from(sorted(below)))]
    not_int = ["x", "", "1.5", "0x10", long, "-" + long]
    word = draw(st.sampled_from(not_int + words))
    return [a.format(word) if "{}" in a else a for a in argv], word in not_int


@settings(max_examples=300, deadline=None)
@given(long_word_files(), st.sampled_from(_FILE_COMMANDS), st.sampled_from(["-1", "0", "1", "3"]),
       st.one_of(st.none(), bad_cli_integers()))
def test_every_command_ends_in_a_short_message_on_long_words(tmp_path_factory, case, cmd, power, cli):
    """Each command, `verify` included, ends in one of the README's exit
    codes within 5 s, with under 200 bytes on stderr and no traceback, on
    sparse files with a long leg and, mostly, one word of thousands of
    digits, or with one bad integer on the command line, which is a parse
    error (exit 2) when it is no integer."""
    tensor, cert, in_cert = case
    base = tmp_path_factory.mktemp("long")
    tpath, cpath = base / "t.tensor", base / "c.cert"
    tpath.write_text(tensor, encoding="utf-8")
    cpath.write_text(cert, encoding="utf-8")
    cmd = "verify" if in_cert else cmd
    args = cmd.split()
    argv = {"certify": args + [str(tpath)], "power": args + [str(tpath), power],
            "verify": args + [str(cpath), str(tpath)]}.get(args[0], args + [str(tpath)])
    if cli is not None:
        argv = [str(tpath) if a == "T" else a for a in cli[0]]
    start = time.perf_counter()
    code, err = _run_quietly(argv)
    assert time.perf_counter() - start < 5, argv
    assert code in ((2,) if cli is not None and cli[1] else (0, 1, 2, 3, 4, 5)), err[:300]
    assert len(err.encode()) < 200 and "Traceback" not in err, err[:300]
