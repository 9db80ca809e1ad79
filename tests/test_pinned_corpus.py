"""The pinned corpus: recorded outputs of the CLI and of the library.

Every certificate tenrank writes must verify when anyone replays it, and the
same input must give the same bytes.  Each row of `PINS` runs its command
lines through `cli.main` in process (the `cli_run` harness of
`conftest.py`), in a fresh directory holding the row's input files.  Every
command must succeed, with under 200 bytes on stderr and no traceback, and
the test checks what they wrote: the sha256 or the whole text of an output, a line of a report.  A
tamper edit changes lines of a certificate; the test checks that the text
changed and that `verify` then refuses it (exit code 5).  The probes of
exit codes and short messages on huge counts and long words are in
`test_io_cli.py`.

The library pins follow as plain tests.  Some compare with the benchmark's
reference outputs (`perfbench/reference.json`, computed by the helpers of
`perfbench/workloads.py`).
"""

import hashlib
import importlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

import pytest

from tenrank import cli, engine, io, spans
from tenrank.errors import ResourceGuardError
from tenrank.fields import GF
from tenrank.matrix import Matrix
from tenrank.pivots import all_rho
from tenrank.tensor import Tensor3

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def shell(tmp_path, monkeypatch, cli_run):
    """Runs one command line through `cli_run` in `tmp_path`, where it must
    end in exit code `want` (0 unless given).  As in a shell, `> name`
    writes stdout to a file and `< name` feeds a file to stdin."""
    monkeypatch.chdir(tmp_path)

    def run(command: str, want: int = 0):
        argv, streams = [], {}
        words = iter(command.split())
        for word in words:
            if word in ("<", ">"):
                streams[word] = next(words)
            else:
                argv.append(word)
        stdin = Path(streams["<"]).read_text(encoding="utf-8") if "<" in streams else ""
        out = cli_run(argv, want, stdin)[0]
        if ">" in streams:
            Path(streams[">"]).write_text(out, encoding="utf-8")

    return run


@dataclass(frozen=True)
class Pin:
    """One row of the corpus.

    files: the input files, by name, or a function that builds them.
    run: command lines in order, each of which must succeed.
    sha: output file -> the sha256 of its bytes.
    text: output file -> its whole text, without the final newline.
    line: output file -> a line it must hold, the only one that starts with
        that line's first word.
    tamper: None, or (certificate, tensor, line, old, new): every line of the
        certificate that equals `old` becomes `new`, or only the line with
        that index (0 is the first, -1 the last) when it is not None.
    """

    files: Union[Dict[str, str], Callable[[], Dict[str, str]]] = field(default_factory=dict)
    run: Tuple[str, ...] = ()
    sha: Dict[str, str] = field(default_factory=dict)
    text: Dict[str, str] = field(default_factory=dict)
    line: Dict[str, str] = field(default_factory=dict)
    tamper: Optional[Tuple[str, str, Optional[int], str, str]] = None


def _tensor(head: str, entries: str) -> str:
    """A tensor file: `head` is its field and dims lines, and each word of
    `entries` one nonzero entry, its indices and value written as one word
    of single digits ("1121" is the entry 1 1 2 1)."""
    return f"tensor v1\n{head}\n" + "".join(" ".join(e) + "\n" for e in entries.split())


def _square_6x6x6() -> Dict[str, str]:
    """A seeded dense 6x6x6 GF(7) tensor and its Kronecker-square certificate
    from two randomized max-rank witnesses, written through the library."""
    rng = random.Random(6)
    t = Tensor3(GF(7), (6, 6, 6), [rng.randrange(1, 7) for _ in range(216)])
    wit1 = spans.max_rank_randomized(spans.slice_span(t, 2, 3), 16, 6)[1]
    wit2 = spans.max_rank_randomized(spans.slice_span(t, 1, 3), 16, 6)[1]
    cert = engine.two_direction_square(t, 1, 2, wit1, wit2)
    d = io.certificate_of_restriction(cert.restriction, cert.r, cert.power)
    return {"sq6.cert": io.serialize_certificate(d, t.field), "sq6.tensor": io.serialize_tensor(t)}


def _scan_pin(dims: str, digest: str, limit: str = "") -> Pin:
    """A GF(2) scan report: its sha256, and no chain violation."""
    return Pin(run=(f"scan --dims {dims} --field gf:2 {limit} --out scan.txt",),
               sha={"scan.txt": digest}, line={"scan.txt": "chain_violations 0"})


def _subrank_pin(name: str, head: str, entries: str, r: int, digests: Tuple[str, str, str], guard="") -> Pin:
    """A subrank report and certificate of a fixed tensor, and the replay."""
    files = (f"{name}.subrank", f"{name}.cert", f"{name}.verify")
    return Pin(files={f"{name}.tensor": _tensor(head, entries)},
               run=(f"subrank {name}.tensor {guard} --certify {name}.cert > {name}.subrank",
                    f"verify {name}.cert {name}.tensor > {name}.verify"),
               sha=dict(zip(files, digests)), text={f"{name}.verify": f"verified r={r} power=1"})


def _catalog_subrank_pin(name: str, r: int, digests: Tuple[str, str, str]) -> Pin:
    """A subrank report, certificate and kv bounds report of a catalog tensor of size 3 over GF(2)."""
    return Pin(run=(f"catalog {name} 3 --field gf:2 --out {name}.tensor",
                    f"subrank {name}.tensor --certify {name}.cert > {name}.subrank",
                    f"verify {name}.cert {name}.tensor > {name}.verify",
                    f"bounds {name}.tensor --format kv > {name}.bounds"),
               sha=dict(zip((f"{name}.subrank", f"{name}.cert", f"{name}.bounds"), digests)),
               text={f"{name}.verify": f"verified r={r} power=1"})


def _replay_pin(name: str, tensor: str, r: int, digest: str, at: Optional[int], old: str, new: str) -> Pin:
    """A GF(2) subrank certificate of a small tensor file: its sha256, its
    replay, and one changed map entry refused."""
    return Pin(files={f"{name}.tensor": tensor},
               run=(f"certify subrank {name}.tensor --out {name}.cert", f"verify {name}.cert {name}.tensor > out"),
               sha={f"{name}.cert": digest}, text={"out": f"verified r={r} power=1"},
               tamper=(f"{name}.cert", f"{name}.tensor", at, old, new))


def _c2_pin(name: str, tensor: str, old: str, new: str) -> Pin:
    """A c2 certificate replays, and one changed entry is refused."""
    return Pin(files={f"{name}.tensor": tensor},
               run=(f"certify c2 {name}.tensor --out {name}.cert", f"verify {name}.cert {name}.tensor > out"),
               text={"out": "verified r=2 power=1"}, tamper=(f"{name}.cert", f"{name}.tensor", None, old, new))


_Q_RHO_TENSOR = "\n".join([
    "tensor v1", "field q", "dims 3 3 2", "1 1 1 1/2", "1 1 2 -4/3", "1 2 1 1", "1 2 2 2/3", "1 3 1 1", "1 3 2 -1/5",
    "2 1 1 -2/3", "2 1 2 -2", "2 2 2 -2/3", "2 3 1 -3", "2 3 2 1/4", "3 1 1 4", "3 1 2 1/4", "3 2 1 1/5", "3 2 2 -1/5",
    "3 3 1 3/4", "3 3 2 4/3"]) + "\n"
_ORIENTS = ("1,2", 4), ("2,1", 4), ("2,3", 4), ("3,2", 4), ("1,3", 2), ("3,1", 2)

PINS = [
    # the first 20,000 tensors of the three orientations of 3x3x2 over GF(2),
    # and the whole 1x4x4 format (the packed search at r = 1, with no table)
    pytest.param(_scan_pin("3,3,2", "c2ee0432022eda6d93ecbcbe04c6c2c5b66930084e5689ea3cae0a329e0c96e4", "--limit 20000"),
                 id="scan-3x3x2"),
    pytest.param(_scan_pin("2,3,3", "641f8c82e0d254ca3ee599e9a0ea5773b92a1fc8ace86e84774d3a1678cadea1", "--limit 20000"),
                 id="scan-2x3x3"),
    pytest.param(_scan_pin("3,2,3", "56b9f5db406e50b94fae821cb8bf800d7697c1f1ca8ac25cdaacd97b7d21ae39", "--limit 20000"),
                 id="scan-3x2x3"),
    pytest.param(_scan_pin("1,4,4", "9a92bb5ef4c953dcf404818b1efdc75a2a27c8e47dcafb8bd5c52eee6c994ac4"), id="scan-1x4x4"),
    # power-2 sqrt certificates
    pytest.param(Pin(run=("catalog balanced_pivot 4 --field gf:7 --out t.tensor", "certify sqrt t.tensor --out sqrt.cert",
                          "verify sqrt.cert t.tensor > out"),
                     text={"out": "verified r=4 power=2"}, tamper=("sqrt.cert", "t.tensor", None, "3 14 0 1", "3 13 0 1")),
                 id="sqrt-balanced-pivot-4-gf7"),
    pytest.param(Pin(run=("catalog balanced_pivot 9 --field gf:11 --out t.tensor",
                          "certify sqrt t.tensor --out sqrt.cert", "verify sqrt.cert t.tensor > out"),
                     sha={"sqrt.cert": "7125c26bfe88aa42643f83cc1a3bf50d361a18b7558f065502d873224eb72518"},
                     text={"out": "verified r=9 power=2"}),
                 id="sqrt-balanced-pivot-9-gf11"),
    # certificates over Q: rho on a file with fractional entries, and sqrt
    pytest.param(Pin(files={"rho.tensor": _Q_RHO_TENSOR},
                     run=("certify rho rho.tensor --orient 1,3 --out rho.cert", "verify rho.cert rho.tensor > out"),
                     sha={"rho.cert": "801c086da0a6a217de18cbe6c6ab4e8a30c9bfa0e3670d87efb38fb618c44880"},
                     text={"out": "verified r=2 power=1"},
                     tamper=("rho.cert", "rho.tensor", None, "1 2 -1 75/398", "1 2 -1 76/398")),
                 id="rho-q"),
    pytest.param(Pin(run=("catalog balanced_pivot 4 --field q --out sqrt.tensor", "certify sqrt sqrt.tensor --out sqrt.cert",
                          "verify sqrt.cert sqrt.tensor > out"),
                     sha={"sqrt.cert": "c3863a80ff0a510bbb7fcab558723945a0b846621d7a85975197a04943097244"},
                     text={"out": "verified r=4 power=2"},
                     tamper=("sqrt.cert", "sqrt.tensor", None, "4 14 -2 1", "4 14 -2 2")),
                 id="sqrt-q"),
    pytest.param(Pin(files=_square_6x6x6, run=("verify sq6.cert sq6.tensor > out",),
                     sha={"sq6.cert": "0682b6c8494a79b738ba71c0e83a779edce5ed6b97c4bc851077270365adc4dc"},
                     text={"out": "verified r=6 power=2"}, tamper=("sq6.cert", "sq6.tensor", 5, "1 2 0 5", "1 2 0 6")),
                 id="square-6x6x6-gf7"),
    # c2 certificates: the tracker's slice transform, scale, addmul and take
    pytest.param(_c2_pin("diag", "tensor v1\nfield gf:5\ndims 3 3 2\n1 1 1 1\n2 2 1 1\n3 3 1 1\n1 1 2 1\n2 2 2 2\n3 3 2 3\n",
                         "1 1 0 2", "1 1 0 3"), id="c2-diag-gf5"),
    pytest.param(_c2_pin("mid", "tensor v1\nfield gf:7\ndims 3 4 2\n1 1 1 1\n2 2 1 3\n1 2 2 5\n3 4 2 1\n2 3 2 2\n3 1 1 4\n",
                         "1 4 0 6", "1 4 0 5"), id="c2-mid-gf7"),
    # GF(2) subrank certificates: the lane-table search at r = 2, and the
    # r = 1 pair read off the slices
    pytest.param(_replay_pin("t", "tensor v1\nfield gf:2\ndims 2 2 3\n1 1 1 1\n2 2 2 1\n1 2 3 1\n", 2,
                             "d1f0ac47449afee8373f0c7834af360bfc392cab6074e3ac08095929ea7986d8", -1, "2 2 0 1", "2 3 0 1"),
                 id="subrank-packed-2x2x3"),
    pytest.param(_replay_pin("w332", "tensor v1\nfield gf:2\ndims 3 3 2\n1 2 2 1\n1 3 1 1\n2 2 1 1\n", 1,
                             "9b5f3f74923aca78c325e9fef5e755dbe5b80113954dc9de018f22e1f5b2c550", -1, "1 1 0 1", "1 2 0 1"),
                 id="subrank-r1-3x3x2"),
    pytest.param(_replay_pin("t134", "tensor v1\nfield gf:2\ndims 1 3 4\n1 2 3 1\n1 2 4 1\n1 3 1 1\n", 1,
                             "f8ecabcc7fd26f9645e91ad7cedaa52e79600cd0f20b2dc9d3052c993c1a5126", -1, "1 3 0 1", "1 1 0 1"),
                 id="subrank-r1-1x3x4"),
    # the generic search on bit rows (r = 3 has no lane table), with n1 > r
    pytest.param(_subrank_pin("wide", "field gf:2\ndims 4 3 3",
                              "1121 1131 1211 1231 1311 1321 2211 2221 2231 2321 2331 3121 3131 3211 3221 4221 4311 4321",
                              3, ("77b2479c8ce6f9f376411bc5b7351a32df70a153c1d7f9813ffa2c61dade5c4f",
                                  "7f95b9be22b0e3503da68602ac3c9e37de29c337841c9216a90cfa6ba510b0e4",
                                  "e61cc835e28ef7cf9084d0500057007335bc98273819c8962fe17d18f7581dcc")),
                 id="subrank-wide-4x3x3-gf2"),
    pytest.param(_catalog_subrank_pin("unit", 3, ("1088c8d24c9098de76267f9584c555944cc12e9eee7855e08bfab20cc90336aa",
                                                  "379e4bf04d293e093fca70a23aca8b6e1d2c78192516851482c1ef2f8229e0c1",
                                                  "7d4004e0c4d8620bc7f0a59288dbd5ad733fe2fef94f558fd3474eb87b55e947")),
                 id="unit-3-gf2"),
    pytest.param(_catalog_subrank_pin("null_algebra", 2,
                                      ("9d30f88be9cf911b8954e233a600003c98af6d49037896f725c3b4cba4bd9471",
                                       "8c864a9595efc976d96708e28d08c211a7f89c2a13ccd88d718eb07ce961d2d8",
                                       "1aec926fb2f1b7b7e0689113799f7e1c8745efa95b3b40070461b47d23170493")),
                 id="null-algebra-3-gf2"),
    # r < n1 < 2r - 1 at r = 3, where the rank filter cuts the L3 rows
    pytest.param(_subrank_pin("gf2", "field gf:2\ndims 4 4 3",
                              "1111 1121 1131 1221 1311 1321 1331 1411 2121 2131 2221 2411 2421 3221 3231 3321 3411 4131 "
                              "4211 4221 4231 4311 4421 4431",
                              2, ("368cd67b0c377b4cd9996525ac282f80d274f8395dbcfbafe6406b83f35a1a3f",
                                  "275f5622980a8a103c831ca2d66e4c97e94d46415b84f7462d6c6836c9076708",
                                  "607be9632e5ba55ccb3cba270ea941c8b2e2db910a0e8e7b0a751bd3754d7341"),
                              guard="--guard 200000000"),
                 id="subrank-4x4x3-gf2"),
    pytest.param(_subrank_pin("gf3", "field gf:3\ndims 4 3 3", "1111 1331 2111 2221 2312 2332 3111 3222 3332 4111 4222 4232",
                              3, ("5f08b16c377f8555494c13fa39fbc873600cd8a4bb6da0f8b561167a0275266d",
                                  "213263f796b763a8fcdf034f85d81b039cb28f1e09f73270ce41ebc868659ee6",
                                  "e61cc835e28ef7cf9084d0500057007335bc98273819c8962fe17d18f7581dcc"),
                              guard="--guard 200000000"),
                 id="subrank-4x3x3-gf3"),
    # slice spans in every orientation, and the symmetry test
    pytest.param(Pin(run=("catalog null_algebra 4 --field gf:5 --out na.tensor",
                          *(f"maxrank na.tensor --orient {o} > {o}" for o, _ in _ORIENTS)),
                     text={o: f"maxrank {v} (exhaustive)" for o, v in _ORIENTS}),
                 id="orient"),
    pytest.param(Pin(run=("catalog w_tensor --field gf:2 > w.tensor", "info - < w.tensor > w.info",
                          "catalog unit 3 --field gf:7 > unit.tensor", "info - < unit.tensor > unit.info",
                          "catalog null_algebra 4 --field gf:5 > na.tensor", "info - < na.tensor > na.info"),
                     line={"w.info": "symmetric 1", "unit.info": "symmetric 1", "na.info": "symmetric 0"}),
                 id="symmetric"),
]


@pytest.mark.parametrize("pin", PINS)
def test_pinned_cli_outputs(pin, shell):
    """Each row's commands succeed and write their pinned outputs; each
    tamper edit changes its certificate, which `verify` then refuses with
    exit code 5."""
    for name, text in (pin.files() if callable(pin.files) else pin.files).items():
        Path(name).write_text(text, encoding="utf-8")
    for command in pin.run:
        shell(command)
    for name, digest in pin.sha.items():
        assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest, name
    for name, text in pin.text.items():
        assert Path(name).read_text(encoding="utf-8").rstrip("\n") == text, name
    for name, line in pin.line.items():
        head = line.split()[0]
        assert [ln for ln in Path(name).read_text(encoding="utf-8").splitlines() if ln.split()[:1] == [head]] == [line]
    if pin.tamper:
        cert, tensor, at, old, new = pin.tamper
        text = Path(cert).read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        hit = [i for i, ln in enumerate(lines) if ln.rstrip("\n") == old and (at is None or i == at % len(lines))]
        assert hit, (cert, old)
        bad = "".join(new + "\n" if i in hit else ln for i, ln in enumerate(lines))
        assert bad != text
        Path("bad.cert").write_text(bad, encoding="utf-8")
        shell(f"verify bad.cert {tensor}", 5)


# -- library pins ------------------------------------------------------------------


def _reference() -> dict:
    return json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, which builds the benchmark's pools."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_whole_2x2x3_gf2_scan_is_the_reference_tally(shell):
    shell("scan --dims 2,2,3 --field gf:2 > scan.txt")
    report = Path("scan.txt").read_text(encoding="utf-8").splitlines()
    assert "chain_violations 0" in report
    rows = {"".join(w[1:7]): int(w[7]) for w in map(str.split, report) if w[:1] == ["row"]}
    assert rows == _reference()["scan"]["gf2-tally"]


def test_every_2x2x2_gf3_tensor_scans_to_its_reference_code(workloads):
    """The kernel-filtered generic search, one scan item per tensor (6,561)."""
    want = _reference()["scan"]["gf3"]
    differ = []
    for i in range(workloads.F3.p ** 8):
        (key,) = cli.scan_format(workloads.F3, workloads.SCAN_GF3_DIMS, offset=i, limit=1)[0]
        if workloads.scan_code(key) != want[6 * i:6 * i + 6]:
            differ.append(i)
    assert (len(want), differ) == (6 * 6561, [])


def test_every_covers_pool_span_is_the_reference(workloads):
    """(maxrank, mincov) of all 43,946 GF(2) and 1,024 GF(5) covers spans."""
    want = _reference()["covers"]
    assert {kind: len(codes) // 2 for kind, codes in want.items()} == {"gf2": 43946, "gf5": 1024}
    assert workloads.Covers.reference() == want


def _span_line(sp) -> str:
    mr, w1 = spans.max_rank_exhaustive(sp)
    nr, w2 = spans.min_rank_exhaustive(sp)
    mc, (v1, v2) = spans.mincov_exhaustive(sp)
    return f"{mr} {w1.coeffs} {nr} {w2.coeffs} {mc} {v1.data} {v1.cols} {v2.data} {v2.cols}\n"


def test_seeded_span_searches_and_slice_ranks_are_pinned(workloads):
    """Max-rank, min-rank and mincov values and witnesses of the covers GF(5)
    pool (1,024) and of 600 seeded GF(3) and GF(7) spans, and slice ranks
    of 100 concise 3x3x3 GF(3) tensors: 1,724 lines."""
    h = hashlib.sha256()
    n = 0
    for i in range(workloads.COVERS_GF5_POOL):
        h.update(f"gf5:{i} {_span_line(workloads.gf5_span(i))}".encode())
        n += 1
    rng = random.Random(32)
    for p in (3, 7):
        f = GF(p)
        for i in range(300):
            mats = [Matrix(f, [[rng.randrange(p) for _ in range(3)] for _ in range(3)])
                    for _ in range(rng.randrange(1, 4))]
            h.update(f"gf{p}:{i} {_span_line(spans.span_of(f, mats))}".encode())
            n += 1
    f = GF(3)
    count = 0
    while count < 100:
        t = Tensor3(f, (3, 3, 3), [rng.randrange(3) for _ in range(27)])
        if t.is_concise():
            h.update(f"sr:{count} {t.entries} {engine.slicerank_exact(t)}\n".encode())
            count += 1
            n += 1
    assert (n, h.hexdigest()) == (1724, "98f998a3f9c8c631e1ada80ad7ca33201177b41183d35287e516ad4d6886b021")


def test_max_rank_of_the_gf11_bounds_pool_slice_spans_is_pinned(workloads):
    """Exhaustive max-rank values and witnesses, or the guard's message, of
    the three slice spans of every GF(11) tensor of the `bounds` pool (306)."""
    h = hashlib.sha256()
    n = 0
    for k in workloads.bounds_pool_keys():
        t = workloads.bounds_tensor(k)
        if t.field.tag != "gf:11":
            continue
        for d, orient in ((1, (2, 3)), (2, (1, 3)), (3, (1, 2))):
            try:
                v, wit = spans.max_rank_exhaustive(spans.slice_span(t, *orient), guard=engine.BOUNDS_SPAN_GUARD)
                line = f"{k} {d} {v} {' '.join(map(str, wit.coeffs))}\n"
            except ResourceGuardError as exc:
                line = f"{k} {d} guard {exc}\n"
            h.update(line.encode())
            n += 1
    assert (n, h.hexdigest()) == (306, "5e5120e05404868c6dee4de1c1e945f9dc667b1597616ee1060b578570c77db7")


def test_rho_of_every_small_tensor_is_pinned():
    """The six rho values of every nonzero 2x2x3 and 3x2x2 GF(2) and 2x2x2
    GF(3) tensor (14,750)."""
    h = hashlib.sha256()
    n = 0
    for p, dims in ((2, (2, 2, 3)), (2, (3, 2, 2)), (3, (2, 2, 2))):
        for vals in itertools.product(range(p), repeat=dims[0] * dims[1] * dims[2]):
            if any(vals):
                h.update(f"{p} {dims} {vals} {sorted(all_rho(Tensor3(GF(p), dims, list(vals))).items())}\n".encode())
                n += 1
    assert (n, h.hexdigest()) == (14750, "79467f8bcd575c11c870201e4b3420e0105dd39fe01fb1018509568bf1c4e779")
