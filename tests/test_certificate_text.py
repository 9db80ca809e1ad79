"""Certificate and tensor text: the one-pass reader against the reader it
replaced, a pinned corpus of certificates that must write byte for byte
as before, parse back to the same column terms and write again unchanged,
and the one certificate check against the check it replaced, on the
corpus's single-line mutants and restrictions."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenrank import engine, io, pivots, spans
from tenrank.errors import BadParamsError, ParseError, ResourceGuardError, shown
from tenrank.fields import GF, QQ, format_value, parse_field, parse_value
from tenrank.laurent import Degeneration, apply_degeneration, verify_degeneration
from tenrank.matrix import Matrix
from tenrank.tensor import (
    Restriction,
    Tensor3,
    balanced_pivot,
    power_dims,
    unit,
    verify_restriction,
    w_tensor,
)

# -- the reader before it read each entry line in one pass, kept as the reference --


def ref_read(text: str, header: str, heads: dict, block: str):
    """Read a v1 file: the reader both formats share.

    The first line that is not blank and does not start with '#' must be
    `header`; the rest of those lines are read in order.  A `field` line sets
    the field.  A line whose first word is a key of `heads` goes to that
    function of (words, line), and the last value of each key is kept; a
    `block` line's value, a shape, also starts a block of entries.  Every
    other line is an entry of the latest block: four words, the first three
    integers, of which the first len(shape) are one-based indices within the
    shape, kept zero-based (a certificate's exponent is the free third), and a
    nonzero value; a key appears at most once per block.  Returns (field or
    None, values by key, [(shape, {key: value}), ...]).
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise ParseError(f"expected '{header}' header")
    field, values, blocks = None, {}, []
    for ln in lines[1:]:
        parts = ln.split()
        word = parts[0]
        if word == "field":
            if len(parts) != 2:
                raise ParseError(f"bad field line {shown(ln)}")
            try:
                field = parse_field(parts[1])
            except BadParamsError as exc:
                raise ParseError(f"bad field line: {exc}") from exc
        elif word in heads:
            values[word] = heads[word](parts, ln)
            if word == block:
                blocks.append((values[word], {}))
        elif field is None or not blocks:
            raise ParseError(f"entry line before the field and {block} lines: {shown(ln)}")
        else:
            shape, entries = blocks[-1]
            if len(parts) != 4:
                raise ParseError(f"bad entry line {shown(ln)}")
            try:
                key = [int(w) for w in parts[:3]]
            except ValueError as exc:
                raise ParseError(f"non-integer index in {shown(ln)}") from exc
            for a, n in enumerate(shape):
                key[a] -= 1
                if not 0 <= key[a] < n:
                    raise ParseError(f"index outside its {'x'.join(map(shown, shape))} block in {shown(ln)}")
            key = tuple(key)
            if key in entries:
                raise ParseError(f"duplicate entry in {shown(ln)}")
            try:
                v = parse_value(field, parts[3])
            except BadParamsError as exc:
                raise ParseError(f"{exc} in {shown(ln)}") from exc
            if field.is_zero(v):
                raise ParseError(f"explicit zero entry in {shown(ln)}")
            entries[key] = v
    return field, values, blocks


def outcome(read, text, header, heads, block):
    """What a reader makes of text: its result, or the type and text of the
    error it raised."""
    try:
        return "ok", read(text, header, heads, block)
    except Exception as exc:  # every error must match, not only ParseError
        return "error", type(exc), str(exc)


TENSOR_READ = (io.TENSOR_HEADER, {"dims": io._dims_line}, "dims")


def cert_read():
    """The certificate reader's arguments, with the head lines of one file:
    the `map` lines' leg words are read in order, so each read needs its own."""
    return io.CERT_HEADER, io._cert_lines(), "map"


# mostly well formed, so that most texts reach the entry lines and the later
# checks: duplicates, zeros and values
_FIELDS = st.sampled_from(["gf:2", "gf:7", "gf:11", "q"] * 4 + ["gf:4", "x"])
# GF and Q values: zeros spelled several ways, wide denominators, signs and
# words that are not values
_VALUES = st.one_of(
    st.sampled_from(["1", "2", "6", "-1", "+3", "12", "1/2"] * 3
                    + ["0", "00", "-0", "7", "0/5", "1/0", "x", "1/2/3", "1_0"]),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-10**6, 10**6), st.integers(-3, 10**30)),
)
_BAD_INDEX = st.sampled_from(["-1", "0", "5", "x", "1.0", str(10**40)])


def _index(draw, n):
    """An index word for a leg of n: in range nine times in ten."""
    if n and draw(st.integers(0, 9)):
        return str(draw(st.integers(1, n)))
    return draw(_BAD_INDEX)


@st.composite
def file_texts(draw, header, preamble, block_line, blocks, exponent):
    """A tensor or certificate text: a header, the preamble, a field line,
    block lines with entries (bad and duplicate indices, explicit zeros, wide
    denominators), then noise: '#' comment lines, blank lines, an indented
    '#' line (an entry line, not a comment), and a line moved ahead of the
    field and block lines."""
    if draw(st.integers(0, 9)):
        first = header
    else:
        first = draw(st.sampled_from([" " + header, header + " x", "#" + header, "x"]))
    lines = [first, *preamble, "field " + draw(_FIELDS)]
    for b in range(blocks):
        shape = draw(st.tuples(*[st.sampled_from([1, 2, 3, 4] * 3 + [0])] * (2 if exponent else 3)))
        lines.append(block_line(b, shape))
        entries = []
        for _ in range(draw(st.integers(0, 6))):
            if entries and draw(st.integers(0, 4)) == 0:
                entries.append(draw(st.sampled_from(entries)))  # a duplicate
                continue
            third = str(draw(st.integers(-3, 3))) if exponent else _index(draw, shape[2])
            words = [_index(draw, shape[0]), _index(draw, shape[1]), third, draw(_VALUES)]
            if draw(st.integers(0, 19)) == 0:
                words = words[:draw(st.integers(1, 5))]  # too few or too many words
            entries.append(" ".join(words))
        lines += entries
    for _ in range(draw(st.integers(0, 3))):
        noise = draw(st.sampled_from(["# a comment", "#", "", "   ", "\t", "  # indented", "field", "dims 1 2"]))
        lines.insert(draw(st.integers(0 if noise[:1] in "#\t " else 1, len(lines))), noise)
    if draw(st.integers(0, 5)) == 0:
        # an entry line ahead of the field and block lines
        moved = lines.pop(draw(st.integers(1, len(lines) - 1)))
        lines.insert(draw(st.integers(1, 2)), moved)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def _dims(b, shape):
    return "dims {} {} {}".format(*shape)


def _map(b, shape):
    return "map {} rows {} cols {}".format(b + 1, *shape)


TENSOR_TEXTS = file_texts(io.TENSOR_HEADER, (), _dims, 1, exponent=False)
CERT_TEXTS = st.tuples(st.integers(1, 2), st.integers(0, 3)).flatmap(
    lambda pr: file_texts(io.CERT_HEADER, (f"power {pr[0]}", f"r {pr[1]}"), _map, 3, exponent=True))


@settings(max_examples=600, deadline=None)
@given(TENSOR_TEXTS)
def test_reader_matches_the_reference_on_tensor_texts(text):
    assert outcome(io._read, text, *TENSOR_READ) == outcome(ref_read, text, *TENSOR_READ)


@settings(max_examples=600, deadline=None)
@given(CERT_TEXTS)
def test_reader_matches_the_reference_on_certificate_texts(text):
    assert outcome(io._read, text, *cert_read()) == outcome(ref_read, text, *cert_read())


def test_reader_cases_reach_every_refusal():
    """The texts the strategies draw from, spelled out: each malformed case
    once, with the message both readers give."""
    cert = "certificate v1\nfield {}\npower 1\nr 1\nmap 1 rows 2 cols 2\n{}\n"
    cases = {
        "bad index": cert.format("gf:7", "3 1 0 1"),
        "negative index": cert.format("gf:7", "0 1 0 1"),
        "non-integer index": cert.format("gf:7", "1 x 0 1"),
        "duplicate": cert.format("gf:7", "1 1 0 1\n1 1 0 2"),
        "explicit zero": cert.format("gf:7", "1 1 0 7"),
        "zero over Q": cert.format("q", "1 1 0 0/9"),
        "wide denominator": cert.format("q", "1 1 -2 -5/123456789012345678901234567890"),
        "bad value": cert.format("q", "1 1 0 1/0"),
        "before the block": "certificate v1\nfield gf:7\n1 1 0 1\nmap 1 rows 1 cols 1\n",
        "before the field": "certificate v1\n1 1 0 1\nfield gf:7\n",
        "comment lines": "# made by hand\n" + cert.format("gf:7", "# a note\n2 2 -1 3"),
        "indented #": cert.format("gf:7", "  # not a comment"),
        "no header": "# only a comment\n\n",
    }
    seen = {}
    for name, text in cases.items():
        got = outcome(io._read, text, *cert_read())
        assert got == outcome(ref_read, text, *cert_read()), name
        seen[name] = got[2] if got[0] == "error" else "ok"
    assert seen["bad index"] == "index outside its 2x2 block in '3 1 0 1'"
    assert seen["duplicate"] == "duplicate entry in '1 1 0 2'"
    assert seen["explicit zero"] == "explicit zero entry in '1 1 0 7'"
    assert seen["before the block"].startswith("entry line before the field and map lines")
    assert seen["indented #"] == "non-integer index in '# not a comment'"
    assert seen["comment lines"] == seen["wide denominator"] == "ok"
    assert seen["no header"] == "expected 'certificate v1' header"


# -- a pinned corpus of certificates ------------------------------------------------


def _value(f, rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if f == QQ else rng.randrange(f.p)


def _concise(f, dims, seed):
    rng = random.Random(seed)
    while True:
        t = Tensor3(f, dims, [_value(f, rng) for _ in range(dims[0] * dims[1] * dims[2])], normalize=True)
        if t.is_concise():
            return t


def _square(t, seed):
    wit1 = spans.max_rank_randomized(spans.slice_span(t, 2, 3), 16, seed)[1]
    wit2 = spans.max_rank_randomized(spans.slice_span(t, 1, 3), 16, seed)[1]
    cert = engine.two_direction_square(t, 1, 2, wit1, wit2)
    return io.certificate_of_restriction(cert.restriction, cert.r, cert.power)


def certificate_corpus():
    """(name, certificate, tensor): rho certificates in all six orientations
    and sqrt certificates (negative exponents), Kronecker squares and c2
    certificates over GF(2), GF(7), GF(11) and Q, and exact subrank
    certificates over GF(2) and GF(3).  Each verifies on its tensor's power."""
    out = []
    for f in (GF(2), GF(7), GF(11), QQ):
        t = _concise(f, (3, 4, 2), 1)
        for o in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
            out.append((f"rho {f.tag} {o}", pivots.rho_degeneration(t, *o), t))
        for n in (4, 9):
            pivot = balanced_pivot(f, n)
            out.append((f"sqrt {f.tag} {n}", pivots.sqrt_certificate(pivot), pivot))
        t = _concise(f, (3, 3, 3), 2)
        out.append((f"square {f.tag}", _square(t, 3), t))
        t = _concise(f, (3, 3, 2), 4)
        cert = engine.subrank_c2(t)
        out.append((f"c2 {f.tag}", io.certificate_of_restriction(cert.restriction, cert.r, cert.power), t))
    for f, dims in ((GF(2), (2, 3, 3)), (GF(3), (2, 2, 2))):
        t = _concise(f, dims, 5)
        _, cert = engine.subrank_exact(t)
        out.append((f"subrank {f.tag}", io.certificate_of_restriction(cert.restriction, cert.r, cert.power), t))
    return out


# sha256 of the corpus texts, each after its name line, recorded with the
# per-entry polynomial dicts the maps were held in before they were column terms
CORPUS_SHA256 = "04fcbff741b1860b422d9e2eb600a10bccf8053da14f8435233e3b097fe5a9b9"


def test_corpus_writes_as_recorded_and_round_trips():
    corpus = certificate_corpus()
    assert len(corpus) == 42
    texts = [io.serialize_certificate(d, t.field) for _, d, t in corpus]
    assert any(" -" in line for text in texts for line in text.splitlines() if line[:1].isdigit())
    joined = "".join(f"{name}\n{text}" for (name, _, _), text in zip(corpus, texts))
    assert hashlib.sha256(joined.encode()).hexdigest() == CORPUS_SHA256
    for (name, d, t), text in zip(corpus, texts):
        back, field = io.parse_certificate(text)
        assert field == t.field, name
        assert io.serialize_certificate(back, field) == text, name
        assert (back.claimed_r, back.power) == (d.claimed_r, d.power), name
        assert [m.column_terms() for m in back.maps] == [m.column_terms() for m in d.maps], name
        assert [m.entries for m in back.maps] == [m.entries for m in d.maps], name


# -- the check before it read `contract`'s output as it is, kept as the reference --


def ref_degeneration_failure(d: Degeneration, t: Tensor3, power: int) -> str:
    """Why d does not verify on t^(x)power, or "" when it does."""
    dims = power_dims(t, power)  # the power guard trips before any other check
    src = tuple(m.cols for m in d.maps)
    if d.claimed_r > min(dims):
        # a degeneration onto the unit tensor of size r needs r <= every
        # flattening rank, so a larger claim fails before anything is built
        return f"claimed r {shown(d.claimed_r)} exceeds the smallest dimension {min(dims)}"
    if d.target_dims != (d.claimed_r,) * 3:
        return f"target dims {shown(d.target_dims)} != unit dims"
    if src != dims:
        return f"source dims {shown(src)} != tensor dims {dims}"
    terms = apply_degeneration(d, t, power=power)
    neg = [e for e in terms if e < 0]
    if neg:
        return f"negative exponent {shown(min(neg))} present"
    if terms.get(0, Tensor3.zeros(t.field, d.target_dims)) != unit(t.field, d.claimed_r):
        return "exponent-0 coefficient is not the unit tensor"
    return ""


def _verdict(check, d: Degeneration, t: Tensor3):
    """(verified, reason) of a check on d at its power, or the type and text
    of what the check raised."""
    try:
        if check is ref_degeneration_failure:
            reason = check(d, t, d.power)
            return not reason, reason
        report = check(d, t, power=d.power, explain=True)
        return report.ok, report.reason
    except Exception as exc:  # every error must match
        return type(exc), str(exc)


def _single_line_mutants(text: str, field):
    """Each text that differs from `text` in one line: the line deleted, or
    the exponent or coefficient of an entry line, or a `power` or `r` count,
    moved by +1 or -1."""
    lines = text.splitlines()
    for n, ln in enumerate(lines):
        edits = [None]
        words = ln.split()
        if ln[:1].isdigit():
            i, j, e, v = words
            for step in (1, -1):
                edits.append(f"{i} {j} {int(e) + step} {v}")
                edits.append(f"{i} {j} {e} {format_value(field.add(parse_value(field, v), step))}")
        elif words[0] in ("power", "r"):
            edits += [f"{words[0]} {int(words[1]) + step}" for step in (1, -1)]
        for edit in edits:
            yield "\n".join(lines[:n] + ([] if edit is None else [edit]) + lines[n + 1:]) + "\n"


def test_single_line_mutants_get_the_reference_verdict():
    """Every single-line mutant of the corpus that parses gets the verdict
    and reason of the check it replaced, from `verify_degeneration` as
    `tenrank verify` calls it."""
    seen = set()
    for name, d, t in certificate_corpus():
        for text in _single_line_mutants(io.serialize_certificate(d, t.field), t.field):
            try:
                back, _ = io.parse_certificate(text)
            except ParseError:
                continue
            want = _verdict(ref_degeneration_failure, back, t)
            assert _verdict(verify_degeneration, back, t) == want, (name, text)
            seen.add(want[1] if want[0] in (True, False) else want[0].__name__)
    # the mutants reach every reason, the power guard, and "" (some mutants
    # still verify)
    reasons = {"", "claimed", "target", "source", "negative", "exponent-0", "ResourceGuardError"}
    assert {r.split(" ")[0] for r in seen} == reasons, seen


def _corpus_restrictions():
    """(name, restriction, r, power, tensor) of each exponent-0 certificate of
    the corpus: its maps are the restriction's, at any point."""
    for name, d, t in certificate_corpus():
        if name.split()[0] in ("square", "c2", "subrank"):
            res = Restriction(tuple(m.evaluate(t.field.one()) for m in d.maps))
            yield name, res, d.claimed_r, d.power, t


def test_restriction_certificates_verify_as_verify_restriction_checks_them():
    """A restriction-kind `SubrankCertificate.verify` agrees with
    `verify_restriction` onto the unit tensor, on each corpus restriction and
    on each of them with one map entry moved by +1."""
    for name, res, r, power, t in _corpus_restrictions():
        f = t.field
        variants = [res]
        for leg, m in enumerate(res.maps):
            for i in range(m.rows):
                for j in range(m.cols):
                    rows = [list(row) for row in m.data]
                    rows[i][j] = f.add(rows[i][j], f.one())
                    maps = list(res.maps)
                    maps[leg] = Matrix(f, rows, cols=m.cols)
                    variants.append(Restriction(tuple(maps)))
        verdicts = []
        for v in variants:
            got = engine.SubrankCertificate("restriction", r, power, restriction=v).verify(t)
            assert got == verify_restriction(v, t, unit(f, r), power=power), name
            verdicts.append(got)
        assert verdicts[0] and not all(verdicts), name


def test_restriction_checks_the_power_guard_before_its_target_dims():
    """The two inputs on which the one check differs from `verify_restriction`
    onto the unit tensor.  A restriction whose target dims are not (r, r, r)
    is refused by the power guard first, as every certificate is, where
    `verify_restriction` answered False before the guard; and a negative r
    is an unverified claim where `unit` refused to build its target."""
    f = GF(2)
    t = w_tensor(f)
    res = Restriction.identity(f, t.dims)
    assert not verify_restriction(res, t, unit(f, 1), power=25)
    with pytest.raises(ResourceGuardError):
        engine.SubrankCertificate("restriction", 1, 25, restriction=res).verify(t)
    with pytest.raises(BadParamsError):
        verify_restriction(res, t, unit(f, -1))
    assert not engine.SubrankCertificate("restriction", -1, 1, restriction=res).verify(t)
