import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ck_spectra import (
    Bundle,
    DuplicateLabel,
    Graph,
    OMEGA,
    ParseError,
    UndeclaredVertex,
    ea_graph,
    emit_gcg,
    parse_graph,
    random_condition_k_graph,
    random_graph,
    running_example,
)
from ck_spectra import gcg
from ck_spectra.gcg import _Parser, _read_plain

from .oracles import oracle_parse_graph

seeds = st.integers(0, 10_000)


# -- parsing -------------------------------------------------------------------


def test_parse_loop_with_count():
    g = parse_graph("vertex a; edge a -> a * 2;")
    assert g.vertices == ("a",)
    assert g.bundles == (Bundle("a", "a", 2),)


def test_parse_labeled_omega_bundle():
    g = parse_graph("vertex a, b; edge f: a -> b * inf;")
    assert g.bundles == (Bundle("a", "b", OMEGA, "f"),)


def test_parse_empty_input():
    assert parse_graph("") == Graph([])
    assert parse_graph("   # just a comment\n") == Graph([])


def test_parse_comments_and_whitespace():
    src = """
    # a small graph
    vertex a, b;   # two vertices
    edge a -> b;   # one bundle
    """
    g = parse_graph(src)
    assert g.bundles == (Bundle("a", "b"),)


def test_duplicate_unlabeled_bundles_merge():
    g = parse_graph("vertex a, b; edge a -> b; edge a -> b * 2;")
    assert g.bundles == (Bundle("a", "b", 3),)
    g = parse_graph("vertex a, b; edge a -> b; edge a -> b * inf;")
    assert g.bundles == (Bundle("a", "b", OMEGA),)


# -- errors with positions -------------------------------------------------------


def err(src):
    with pytest.raises(ParseError) as info:
        parse_graph(src)
    return info.value


def test_missing_semicolon_position():
    e = err("vertex a\nvertex b;")
    assert (e.line, e.col) == (2, 1)
    assert "expected" in e.message


def test_unknown_statement_position():
    e = err("vertex a;\nfoo;")
    assert (e.line, e.col) == (2, 1)


def test_undeclared_vertex():
    e = err("vertex a; edge a -> b;")
    assert isinstance(e, UndeclaredVertex)
    assert (e.line, e.col) == (1, 21)
    e = err("edge a -> a;")
    assert isinstance(e, UndeclaredVertex)


def test_duplicate_label():
    e = err("vertex a; edge f: a -> a; edge f: a -> a;")
    assert isinstance(e, DuplicateLabel)
    assert e.line == 1 and e.col == 32


def test_duplicate_vertex_declaration():
    e = err("vertex a, a;")
    assert (e.line, e.col) == (1, 11)


def test_zero_multiplicity_rejected():
    e = err("vertex a; edge a -> a * 0;")
    assert "at least 1" in e.message


def test_bad_multiplicity_token():
    e = err("vertex a; edge a -> a * lots;")
    assert (e.line, e.col) == (1, 25)


def test_reserved_words_rejected_as_names():
    assert isinstance(err("vertex inf;"), ParseError)
    assert isinstance(err("vertex a; edge vertex -> a;"), ParseError)


def test_unexpected_character():
    e = err("vertex a; edge a -> a * 2 !")
    assert (e.line, e.col) == (1, 27)


def test_unterminated_statement():
    e = err("vertex a; edge a -> a")
    assert e.line == 1 and e.col == 22


def test_non_decimal_digit_count_is_a_parse_error():
    # str.isdigit accepts the superscript, int() does not
    e = err("vertex a, b;\nedge a -> b * ²;")
    assert (e.line, e.col) == (2, 15)
    assert "decimal" in e.message
    e = err("vertex a, b; edge a -> b * 3²;")
    assert (e.line, e.col) == (1, 28)


def test_decimal_digits_outside_ascii_still_count():
    assert parse_graph("vertex a, b; edge a -> b * ٣;").bundles == (Bundle("a", "b", 3),)
    assert parse_graph("vertex a, b; edge a -> b * 1٣;").bundles == (Bundle("a", "b", 13),)


def test_count_longer_than_int_converts_is_a_parse_error():
    e = err("vertex a; edge a -> a * " + "9" * 5000 + ";")
    assert (e.line, e.col) == (1, 25)
    assert "too long" in e.message


def test_non_ascii_names_and_stray_characters():
    g = parse_graph("vertex é, _x, a², bⅫ, é٣;")
    assert g.vertices == ("é", "_x", "a²", "bⅫ", "é٣")
    # a numeric character that is no letter cannot start a name
    e = err("vertex a;\nvertex Ⅻ;")
    assert (e.line, e.col, e.message) == (2, 8, "unexpected character 'Ⅻ'")
    # a digit run ends a name start: "3a" is a count and a name
    e = err("vertex a; edge a -> a * 3a;")
    assert (e.line, e.col) == (1, 26)
    e = err("vertex ²;")
    assert e.message == "expected a name, found '²'"


def test_lexical_errors_come_before_syntax_errors():
    # the whole text is scanned before any statement is parsed
    e = err("vertex a a;\n\x0c")
    assert (e.line, e.col, e.message) == (2, 1, "unexpected character '\\x0c'")


def test_positions_count_carriage_returns_and_tabs_as_columns():
    e = err("vertex a;\r\tedge a -> b;")
    assert (e.line, e.col) == (1, 22)
    e = err("# note\n\n  vertex a # c\n")
    assert (e.line, e.col, e.message) == (4, 1, "expected ',' or ';', found 'end of input'")


def test_word_class_is_isalnum_or_underscore():
    # the scanner cuts word runs with \w; a name goes on with str.isalnum or "_"
    chars = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\w", chars) == [c for c in chars if c.isalnum() or c == "_"]


def test_str_form_carries_position():
    assert str(err("vertex a\nvertex b;")).startswith("2:1:")


# -- round trips -------------------------------------------------------------------


def test_round_trip_fixture():
    g = running_example()
    assert parse_graph(emit_gcg(g)) == g


def test_round_trip_subset_graphs():
    for mult in (1, 2, OMEGA):
        g = ea_graph(["a", "b", "c"], mult)
        assert parse_graph(emit_gcg(g)) == g


def test_round_trip_empty():
    assert emit_gcg(Graph([])) == ""
    assert parse_graph(emit_gcg(Graph([]))) == Graph([])


def test_round_trip_hundred_random_graphs():
    for seed in range(100):
        g = random_graph(seed, seed % 9, density=0.5)
        assert parse_graph(emit_gcg(g)) == g


@given(seed=seeds, n=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_round_trip_random_property(seed, n):
    g = random_condition_k_graph(seed, n)
    assert parse_graph(emit_gcg(g)) == g


@pytest.mark.parametrize(
    "g, error",
    [
        (Graph(["vertex"]), "1:8: 'vertex' is a reserved word"),
        (Graph(["a"], [Bundle("a", "a", 1, "edge")]), "2:6: 'edge' is a reserved word"),
        (Graph(["inf"]), "1:8: 'inf' is a reserved word"),
        (Graph(["℘"]), "1:8: unexpected character '℘'"),
        (Graph(["a·b"]), "1:9: unexpected character '·'"),
    ],
)
def test_round_trip_needs_idents_that_are_not_reserved(g, error):
    # each name is a Python identifier, but a reserved word or no IDENT of the grammar
    assert all(name.isidentifier() for name in g.vertices + tuple(b.label for b in g.bundles))
    with pytest.raises(ParseError) as e:
        parse_graph(emit_gcg(g))
    assert str(e.value) == error


def test_round_trip_of_non_ascii_idents():
    g = Graph(["é", "x٣", "ǅ"], [Bundle("é", "x٣", 2, "ǅ"), Bundle("ǅ", "é", OMEGA)])
    assert parse_graph(emit_gcg(g)) == g


def test_emit_is_canonical_fixed_point():
    scrambled = "vertex b, a;\nedge a -> b * 2;\nedge a -> b * 3;\nedge z2: b -> a;\n"
    g = parse_graph(scrambled)
    text = emit_gcg(g)
    assert text == emit_gcg(parse_graph(text))
    assert "a -> b * 5" in text


@given(st.text(max_size=120))
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes(text):
    try:
        parse_graph(text)
    except ParseError:
        pass  # positioned rejection is the only acceptable failure


@given(st.text(alphabet="vertex edg;:*->,abinf3 \n#", max_size=80))
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes_near_grammar(text):
    try:
        parse_graph(text)
    except ParseError:
        pass


# -- the reference parser ------------------------------------------------------------

# Pieces of near-grammatical text: keywords, punctuation, names, counts and
# every blank, with characters outside ASCII that sit on the edges of the
# character classes: a letter (é), a digit int() rejects (²), a decimal digit
# (٣), a numeric character that is no digit or letter (Ⅻ), and the underscore.
FRAGMENTS = (
    "vertex", "edge", "inf", ",", ";", ":", "*", "->", "-", ">", "a", "b", "c",
    "f", "a1", "_", "_x", "\u00e9", "a\u00e9", "\u00b2", "\u0663", "\u216b",
    "a\u216b", "0", "1", "2", "12", "3\u00b2", "\u0663\u0663", " ", " ",
    " ", "\n", "\r", "\t", "\f", "# c\u00e9 ;\n", "#", "!", "\u00a0",
)
statements = st.one_of(
    st.builds(
        lambda names: "vertex " + ", ".join(names) + ";",
        st.lists(st.sampled_from(["a", "b", "c", "\u00e9", "_x", "a\u216b"]), min_size=1, max_size=4),
    ),
    st.builds(
        lambda label, src, dst, count: f"edge {label}{src} -> {dst}{count};",
        st.sampled_from(["", "f: ", "g : ", "inf: "]),
        st.sampled_from(["a", "b", "\u00e9", "d"]),
        st.sampled_from(["a", "b", "_x", "d"]),
        st.sampled_from(["", " * 2", " * inf", " * 0", " * \u0663", " * \u00b2", "*\t12"]),
    ),
)
seps = st.sampled_from([" ", "\n", "\r\n", "\t", "\f", " # note \u00e9\n", "\n# end"])


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return type(e), e.line, e.col, e.message
    except ValueError:
        return ValueError


def read_plain(text):
    """``_read_plain(text)``, checked against the token parser when it reads a graph."""
    g = _read_plain(text)
    if g is not None:
        want = _Parser(text).parse()
        assert (g.vertices, g.bundles) == (want.vertices, want.bundles), text
        for b in g.bundles:  # each end is the very string its declaration made
            assert b.src is g.vertices[g.index[b.src]] and b.dst is g.vertices[g.index[b.dst]]
    return g


def agrees_with_oracle(text):
    read_plain(text)
    want = outcome(oracle_parse_graph, text)
    got = outcome(parse_graph, text)
    if want is ValueError:  # the oracle's int() crashes on a count
        assert isinstance(got, tuple) and issubclass(got[0], ParseError), (text, got)
    else:
        assert got == want, text


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=30))
@settings(max_examples=400, deadline=None)
def test_parser_matches_oracle_on_fragment_soup(pieces):
    agrees_with_oracle("".join(pieces))
    agrees_with_oracle(" ".join(pieces))


@given(st.lists(st.tuples(statements, seps), max_size=6))
@settings(max_examples=150, deadline=None)
def test_parser_matches_oracle_on_every_truncation(stmts):
    text = "".join(stmt + sep for stmt, sep in stmts)
    for end in range(len(text) + 1):
        agrees_with_oracle(text[:end])


# Statements in the plain spelling, ASCII only, after "vertex a, b;", with
# each fault the plain reader must leave to the token parser: a redeclared (a)
# or undeclared (d) vertex, a reserved word as a name, a count of 0, a
# repeated label, and a blank that str.split() cuts at but the scanner rejects.
plain_statements = st.one_of(
    st.builds(
        lambda names: "vertex " + ", ".join(names),
        st.lists(st.sampled_from(["c", "e", "h", "_x", "_y", "k", "inf", "a"]), min_size=1, max_size=2),
    ),
    st.builds(
        lambda label, src, dst, count: f"edge {label}{src} -> {dst}{count}",
        st.sampled_from(["", "", "", "", "f: ", "g: ", "inf: "]),
        st.sampled_from(["a", "b", "a", "b", "d"]),
        st.sampled_from(["a", "b", "a", "b", "_x"]),
        st.sampled_from(["", "", "", " * 2", " * inf", " * 12", " * 0"]),
    ),
)
plain_seps = st.sampled_from([";\n", ";\n", ";\n", ";\n", "; ", ";\r\n", ";\t", " ;", ";\x0c", ";\x0b", ""])


@given(st.lists(st.tuples(plain_statements, plain_seps), max_size=6))
@settings(max_examples=300, deadline=None)
def test_plain_reader_matches_the_token_parser(stmts):
    agrees_with_oracle("vertex a, b;\n" + "".join(stmt + sep for stmt, sep in stmts))


@given(st.text(min_size=1, max_size=3), st.sampled_from(["vertex {};", "vertex a{};", "vertex a;edge a -> a * 3{};", "{}"]))
@settings(max_examples=400, deadline=None)
def test_parser_matches_oracle_on_any_characters(chars, template):
    agrees_with_oracle(template.format(chars))


@pytest.mark.parametrize(
    "text",
    [
        "vertex a;\x0cedge a -> a;",  # the scanner has no form feed among its blanks
        "vertex a;\x0bedge a -> a;",
        "vertex a;\x1cedge a -> a;",
        "vertex a;\u00a0edge a -> a;",
        "vertex inf;",
        "vertex a; edge inf: a -> a;",
        "vertex a; edge a -> a * inf2;",
        "vertex a; edge a -> a * 0;",
        "vertex a; edge a -> a * " + "9" * 5000 + ";",
        "vertex a; edge a -> b;",
        "vertex a; edge b -> a;",
        "edge a -> a; vertex a;",
        "vertex a, a;",
        "vertex a,, b;",
        "vertex a b;",
        "vertex a; edge f: a -> a; edge f: a -> a;",
        "vertex a; edge a -> a",
        "vertex a;;",
        "vertex a; edge a => a;",
        "vertex a; edge a -> a *;",
        "vertex a; node a;",
        # positions the one scan computes: after a comment, after a name
        # outside ASCII, and inside a word run it splits (at 2:11, 2:11, 1:27)
        "vertex a; # note\nedge a -> b;",
        "vertex \u00e9, a;\nedge \u00e9 -> c;",
        "vertex a; edge a -> a * 12ab;",
    ],
)
def test_plain_reader_leaves_every_error_to_the_token_parser(text):
    assert _read_plain(text) is None
    with pytest.raises(ParseError):
        _Parser(text).parse()
    agrees_with_oracle(text)


class CountingScanner:
    """Stands in for ``gcg._TOKEN`` and counts the scans made through it."""

    def __init__(self, pattern):
        self.pattern, self.scans = pattern, 0

    def __getattr__(self, name):
        def scan(*args, **kwargs):
            self.scans += 1
            return getattr(self.pattern, name)(*args, **kwargs)

        return scan


@pytest.mark.parametrize(
    "text",
    ["vertex a, b; edge a->b * 2;", "vertex a; # note\nedge a -> a;", "vertex \u00e9; edge \u00e9 -> \u00e9;",
     "vertex a; edge a -> b;", "vertex a; # note\nedge a -> b;", "vertex a; edge a -> a * 12ab;", "vertex a; $"],
)
def test_token_parser_scans_the_text_once(text, monkeypatch):
    scanner = CountingScanner(gcg._TOKEN)
    monkeypatch.setattr(gcg, "_TOKEN", scanner)
    assert outcome(parse_graph, text) == outcome(oracle_parse_graph, text)
    assert scanner.scans == 1


@pytest.mark.parametrize(
    "text",
    ["vertex a; # note\n", "vertex a, b; edge a->b;", "vertex \u00e9;", "vertex a; edge f : a -> a;",
     "vertex a; edge a -> a * 07;"],
)
def test_plain_reader_leaves_other_spellings_to_the_token_parser(text):
    assert _read_plain(text) is None
    assert parse_graph(text) == _Parser(text).parse()


def test_emitted_text_takes_the_plain_path():
    # were the plain reader to decline these, no other test would notice
    graphs = [running_example(), Graph([])]
    graphs += [ea_graph(["a", "b", "c"], mult) for mult in (1, 2, OMEGA)]
    graphs += [random_graph(seed, seed % 9, density=0.5) for seed in range(100)]
    for g in graphs:
        assert read_plain(emit_gcg(g)) == g


def test_every_corpus_file_takes_the_plain_path():
    corpus = pathlib.Path(__file__).parent.parent / "perfbench" / "corpus"
    paths = sorted(corpus.glob("*/*.gcg"))
    assert len(paths) > 50
    for path in paths:
        assert read_plain(path.read_text()) is not None, path


def test_parser_matches_oracle_on_the_corpus():
    corpus = pathlib.Path(__file__).parent.parent / "perfbench" / "corpus"
    for path in sorted(corpus.glob("*/*.gcg"))[::5]:
        text = path.read_text()
        assert parse_graph(text) == oracle_parse_graph(text), path
