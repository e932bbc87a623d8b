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


def agrees_with_oracle(text):
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


@given(st.text(min_size=1, max_size=3), st.sampled_from(["vertex {};", "vertex a{};", "vertex a;edge a -> a * 3{};", "{}"]))
@settings(max_examples=400, deadline=None)
def test_parser_matches_oracle_on_any_characters(chars, template):
    agrees_with_oracle(template.format(chars))


def test_parser_matches_oracle_on_the_corpus():
    corpus = pathlib.Path(__file__).parent.parent / "perfbench" / "corpus"
    for path in sorted(corpus.glob("*/*.gcg"))[::5]:
        text = path.read_text()
        assert parse_graph(text) == oracle_parse_graph(text), path
