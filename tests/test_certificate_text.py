"""Certificate and tensor text: the one-pass reader against the reader it
replaced, and a pinned corpus of certificates that must write byte for byte
as before, parse back to the same column terms and write again unchanged."""

import hashlib
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tenrank import engine, io, pivots, spans
from tenrank.errors import BadParamsError, ParseError, shown
from tenrank.fields import GF, QQ, parse_field, parse_value
from tenrank.tensor import Tensor3, balanced_pivot

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
CERT_READ = (io.CERT_HEADER, io._CERT_LINES, "map")

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
    assert outcome(io._read, text, *CERT_READ) == outcome(ref_read, text, *CERT_READ)


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
        got = outcome(io._read, text, *CERT_READ)
        assert got == outcome(ref_read, text, *CERT_READ), name
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
    """(name, certificate, field): rho certificates in all six orientations
    and sqrt certificates (negative exponents), Kronecker squares and c2
    certificates over GF(2), GF(7), GF(11) and Q, and exact subrank
    certificates over GF(2) and GF(3)."""
    out = []
    for f in (GF(2), GF(7), GF(11), QQ):
        t = _concise(f, (3, 4, 2), 1)
        for o in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
            out.append((f"rho {f.tag} {o}", pivots.rho_degeneration(t, *o), f))
        for n in (4, 9):
            out.append((f"sqrt {f.tag} {n}", pivots.sqrt_certificate(balanced_pivot(f, n)), f))
        out.append((f"square {f.tag}", _square(_concise(f, (3, 3, 3), 2), 3), f))
        cert = engine.subrank_c2(_concise(f, (3, 3, 2), 4))
        out.append((f"c2 {f.tag}", io.certificate_of_restriction(cert.restriction, cert.r, cert.power), f))
    for f, dims in ((GF(2), (2, 3, 3)), (GF(3), (2, 2, 2))):
        _, cert = engine.subrank_exact(_concise(f, dims, 5))
        out.append((f"subrank {f.tag}", io.certificate_of_restriction(cert.restriction, cert.r, cert.power), f))
    return out


# sha256 of the corpus texts, each after its name line, recorded with the
# per-entry polynomial dicts the maps were held in before they were column terms
CORPUS_SHA256 = "04fcbff741b1860b422d9e2eb600a10bccf8053da14f8435233e3b097fe5a9b9"


def test_corpus_writes_as_recorded_and_round_trips():
    corpus = certificate_corpus()
    assert len(corpus) == 42
    texts = [io.serialize_certificate(d, f) for _, d, f in corpus]
    assert any(" -" in line for text in texts for line in text.splitlines() if line[:1].isdigit())
    joined = "".join(f"{name}\n{text}" for (name, _, _), text in zip(corpus, texts))
    assert hashlib.sha256(joined.encode()).hexdigest() == CORPUS_SHA256
    for (name, d, f), text in zip(corpus, texts):
        back, field = io.parse_certificate(text)
        assert field == f, name
        assert io.serialize_certificate(back, field) == text, name
        assert (back.claimed_r, back.power) == (d.claimed_r, d.power), name
        assert [m.column_terms() for m in back.maps] == [m.column_terms() for m in d.maps], name
        assert [m.entries for m in back.maps] == [m.entries for m in d.maps], name
