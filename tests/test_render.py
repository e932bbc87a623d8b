"""The JSON writers against the stdlib encoder they replaced: ``emit_json`` on
any payload, and each row writer on the payload it stands for."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ck_spectra import Bundle, Graph, emit_json, quotient_graph
from ck_spectra.ideals import _walk, saturated_hereditary_sets
from ck_spectra.render import graph_json, graph_payload, ideals_json, quotient_json

from .oracles import (
    grid_poset,
    multigraphs,
    named_pairs,
    oracle_emit_json,
    oracle_ideals_payload,
    oracle_quotient_payload,
    poset_graph,
    posets,
)

# escapes, controls, the JS line separator, DEL and text beyond ASCII
TEXT = st.text(st.sampled_from('ab"\\/\u2028\u007fé∞′😀') | st.characters(max_codepoint=0x1F), max_size=6)
SCALARS = st.none() | st.booleans() | st.integers() | TEXT
# up to depth 4; mixed lists such as ["a", 1] or ["a", ["b"]] take the per-element path
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(TEXT, max_size=5)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_emit_json_matches_the_stdlib_encoder(payload):
    assert emit_json(payload) == oracle_emit_json(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        (),
        ["a", 1],
        ["a", ["b"]],
        ("a", None, True),
        [[], {}, [[]]],
        {"schema": "x", "h": ("t", "u"), "s": (), "n": -7, "big": 2**70},
        ["\x00\x1f\"\\\u2028\x7f", "é", {"é": ["∞"]}],
        [-(2**100), 0],
    ],
    ids=repr,
)
def test_emit_json_matches_the_stdlib_encoder_on_edge_payloads(payload):
    assert emit_json(payload) == oracle_emit_json(payload)


@pytest.mark.parametrize("payload", [1.5, [1.0], {"a": ["b", 0.5]}, {"a"}, ["a", {"b"}], {1: "a"}, {"a": {None: 1}}])
def test_emit_json_rejects_floats_sets_and_keys_that_are_not_strings(payload):
    with pytest.raises(TypeError):
        emit_json(payload)


def _escaped(g: Graph) -> Graph:
    """``g`` with each vertex name and label carrying characters that JSON escapes."""
    name = "{}\"\\\x00\n  é∞\u2028".format
    return Graph(map(name, g.vertices), [Bundle(name(b.src), name(b.dst), b.mult, b.label and name(b.label)) for b in g.bundles])


# OMEGA, finite multiplicities, labels and sinks, the same with escaped names,
# and the Condition (K) graphs of small posets
GRAPHS = multigraphs() | multigraphs().map(_escaped) | posets().map(lambda poset: poset_graph(*poset))
EDGE_GRAPHS = [Graph([]), Graph(["a"]), Graph(["a"], [Bundle("a", "a", 2)]), poset_graph(*grid_poset(3))]


def _rows(g: Graph) -> list:
    """The rows ``cmd_ideals`` writes, with the routes' agreement varied row by row."""
    return [(*pair, direct, k % 3 != 1) for k, (pair, direct, *_) in enumerate(_walk(g))]


def _check_graph_json(g: Graph) -> None:
    assert graph_json(g) + "\n" == oracle_emit_json(graph_payload(g))


def _check_ideals_json(g: Graph) -> None:
    sh, rows = saturated_hereditary_sets(g), _rows(g)
    assert ideals_json(g, sh, rows) + "\n" == oracle_emit_json(oracle_ideals_payload(g, sh, rows))


def _check_quotient_json(g: Graph) -> None:
    for pair in named_pairs(g):
        q = quotient_graph(g, pair)
        assert quotient_json(q) + "\n" == oracle_emit_json(oracle_quotient_payload(q)), pair


@settings(max_examples=300, deadline=None)
@given(GRAPHS)
def test_graph_json_matches_the_stdlib_encoder(g):
    _check_graph_json(g)


@settings(max_examples=200, deadline=None)
@given(GRAPHS)
def test_ideals_json_matches_the_stdlib_encoder(g):
    _check_ideals_json(g)


@settings(max_examples=100, deadline=None)
@given(GRAPHS)
def test_quotient_json_matches_the_stdlib_encoder(g):
    _check_quotient_json(g)


@pytest.mark.parametrize("g", EDGE_GRAPHS, ids=["empty", "vertex", "loop", "grid3"])
@pytest.mark.parametrize("check", [_check_graph_json, _check_ideals_json, _check_quotient_json], ids=lambda f: f.__name__[7:])
def test_row_writers_match_the_stdlib_encoder_on_edge_graphs(check, g):
    check(g)
