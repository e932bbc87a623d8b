"""``emit_json`` against the stdlib encoder it replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ck_spectra import emit_json

from .oracles import oracle_emit_json

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
