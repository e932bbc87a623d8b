import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ck_spectra import (
    Bundle,
    Graph,
    OMEGA,
    UnknownVertex,
    condition_K,
    condition_L,
    ea_graph,
    is_downward_directed,
    is_omega,
    random_condition_k_graph,
    random_graph,
    upward_set,
)
from ck_spectra.graph_core import CycleClass, _common_bound, check_mult, has_csp

from .oracles import (
    bundle_lists,
    multigraphs,
    mult_sum,
    oracle_chase_condition_L,
    oracle_common_bound,
    oracle_condition_L,
    oracle_csp_witness,
    oracle_cycle_class,
    oracle_downward_directed,
    oracle_edge_tables,
    oracle_exitless,
    oracle_expanded_classes,
    oracle_graph_bundles,
    oracle_out_edges,
    oracle_reaches,
    oracle_upward_set,
    oracle_vertex_classes,
    reach_matrix,
)

seeds = st.integers(0, 10_000)


# -- multiplicities ------------------------------------------------------------


def test_omega_is_absorbing_and_maximal():
    assert OMEGA + 3 == OMEGA
    assert 3 + OMEGA == OMEGA
    assert OMEGA * 2 == OMEGA
    assert mult_sum([1, 2, OMEGA]) == OMEGA
    assert mult_sum([1, 2, 3]) == 6
    assert OMEGA > 10**9
    assert 5 < OMEGA
    assert OMEGA >= OMEGA and OMEGA <= OMEGA
    assert not OMEGA < OMEGA


@pytest.mark.parametrize("bad", [0, -1, 1.5, 2.0, float("nan"), -OMEGA, True, "inf"])
def test_multiplicity_validation(bad):
    with pytest.raises(ValueError):
        check_mult(bad)
    with pytest.raises(ValueError):
        Graph(["a"], [Bundle("a", "a", bad)])


def test_omega_is_the_float_infinity():
    assert OMEGA == math.inf and check_mult(float("inf")) == OMEGA
    g = Graph(["a", "b"], [Bundle("a", "b", float("inf")), Bundle("a", "b", 2)])
    assert g.bundles == (Bundle("a", "b", OMEGA),) and g.class_masks[1] == 0b01


# -- graph construction --------------------------------------------------------


def test_unlabeled_duplicates_merge_saturating():
    g = Graph(["a", "b"], [Bundle("a", "b", 2), Bundle("a", "b", 3)])
    assert g.bundles == (Bundle("a", "b", 5),)
    g = Graph(["a", "b"], [Bundle("a", "b", 2), Bundle("a", "b", OMEGA)])
    assert is_omega(g.bundles[0].mult)


def test_labeled_bundles_stay_separate():
    g = Graph(["a"], [Bundle("a", "a", 1, "d"), Bundle("a", "a", 1, "e")])
    assert len(g.bundles) == 2


def test_construction_errors():
    with pytest.raises(ValueError):
        Graph(["a", "a"])
    with pytest.raises(UnknownVertex):
        Graph(["a"], [Bundle("a", "b")])
    with pytest.raises(ValueError):
        Graph(["a"], [Bundle("a", "a", 1, "f"), Bundle("a", "a", 1, "f")])


def construction(build, vertices, bundles):
    """The bundles that ``build`` gives, or the class and message of what it raises."""
    try:
        return build(vertices, bundles)
    except (ValueError, UnknownVertex) as e:
        return type(e), str(e)


def agrees_with_reference(vertices, bundles):
    got = construction(lambda vs, bs: Graph(vs, bs).bundles, vertices, bundles)
    assert got == construction(oracle_graph_bundles, vertices, bundles), bundles
    if not (got and isinstance(got[0], type)):  # built: its one walk's tables against the reference bundles
        g = Graph(vertices, bundles)
        assert (g.n, g.full_mask, g.succ_mask, g.pred_mask, g.omega_succ) == oracle_edge_tables(vertices, got), bundles
    return got


@given(drawn=bundle_lists())
@settings(max_examples=300, deadline=None)
def test_construction_matches_the_reference_on_drawn_bundles(drawn):
    agrees_with_reference(*drawn)


# any name may be unknown, a label repeat and a multiplicity be out of range
hostile_bundles = st.lists(
    st.builds(
        Bundle,
        st.sampled_from(["a", "b", "x"]),
        st.sampled_from(["a", "b", "y"]),
        st.sampled_from([1, 2, OMEGA, 0, -1, True, 1.5]),
        st.sampled_from([None, None, "f", "g", ""]),
    ),
    max_size=8,
)


@given(bundles=hostile_bundles)
@settings(max_examples=300, deadline=None)
def test_construction_matches_the_reference_on_hostile_bundles(bundles):
    agrees_with_reference(["a", "b"], bundles)


@pytest.mark.parametrize(
    "bundles, want",
    [
        ([Bundle("x", "y")], (UnknownVertex, "unknown source vertex 'x'")),
        ([Bundle("a", "b"), Bundle("a", "y", 0)], (UnknownVertex, "unknown target vertex 'y'")),
        ([Bundle("a", "a", 1, "f"), Bundle("b", "b", 2, "f")], (ValueError, "duplicate bundle label 'f'")),
        ([Bundle("a", "a", 0)], (ValueError, "multiplicity must be at least 1, got 0")),
        ([Bundle("a", "a", -1)], (ValueError, "multiplicity must be at least 1, got -1")),
        ([Bundle("a", "a", True)], (ValueError, "multiplicity must be a positive int or OMEGA, got True")),
        ([Bundle("a", "a", 1.5)], (ValueError, "multiplicity must be a positive int or OMEGA, got 1.5")),
        # repeated unlabeled pairs merge, and OMEGA absorbs what follows it
        (
            [Bundle("b", "a"), Bundle("a", "b", 2), Bundle("a", "b", OMEGA),
             Bundle("a", "b", 3), Bundle("b", "a", 4)],
            (Bundle("a", "b", OMEGA), Bundle("b", "a", 5)),
        ),
        # per pair: the unlabeled bundle, then the labeled ones by label
        (
            [Bundle("b", "a", 1, "g"), Bundle("a", "b", 1, "f"), Bundle("b", "a"),
             Bundle("a", "b", 2, "e"), Bundle("a", "b", 3)],
            (Bundle("a", "b", 3), Bundle("a", "b", 2, "e"), Bundle("a", "b", 1, "f"),
             Bundle("b", "a"), Bundle("b", "a", 1, "g")),
        ),
        # an empty label would be written as no label, and merge on the round trip
        ([Bundle("a", "a", 1, ""), Bundle("a", "a", 2)], (ValueError, "bundle label must not be empty")),
        ([Bundle("a", "a", 1, "f"), Bundle("b", "b", 1, ""), Bundle("b", "b", 1, "f")],
         (ValueError, "bundle label must not be empty")),
    ],
)
def test_construction_matches_the_reference_on_named_cases(bundles, want):
    assert agrees_with_reference(["a", "b"], bundles) == want


def test_graph_equality_and_canonical_order():
    g1 = Graph(["a", "b"], [Bundle("b", "a"), Bundle("a", "b")])
    g2 = Graph(["a", "b"], [Bundle("a", "b"), Bundle("b", "a")])
    assert g1 == g2 and hash(g1) == hash(g2)


@given(mask=st.integers(0, (1 << 40) - 1))
@settings(max_examples=80, deadline=None)
def test_listing_reads_a_mask_in_declaration_order(mask):
    g = Graph([f"v{i}" for i in reversed(range(40))])
    assert g.listing(mask) == tuple(v for i, v in enumerate(g.vertices) if mask >> i & 1)
    assert g.names(mask) == frozenset(g.listing(mask))


# -- vertex classes --------------------------------------------------------------


def test_classify_vertices_fixture(g7):
    sinks, emitters, regular = map(g7.names, g7.class_masks)
    assert sinks == {"t"}
    assert emitters == {"u", "w", "x"}
    assert regular == {"v", "y", "z"}
    assert (sinks, emitters, regular) == oracle_vertex_classes(g7)


def test_isolated_vertex_is_sink(single_sink):
    assert single_sink.class_masks == (1, 0, 0)


def test_ea_omega_all_nonterminal_vertices_emit_infinitely(ea3_omega):
    sinks, emitters, regular = ea3_omega.class_masks
    assert ea3_omega.names(sinks) == {"v_a_b_c"}
    assert regular == 0
    assert emitters.bit_count() == 6


# -- reachability -----------------------------------------------------------------


def test_reaches_fixture_facts(g7):
    assert g7.names(g7.reach[g7.index["u"]]) == {"t", "u", "v", "x", "y", "z"}
    assert oracle_reaches(g7, "u", "t")
    assert not g7.reach[g7.index["y"]] >> g7.index["w"] & 1
    assert not oracle_reaches(g7, "y", "w")
    for i in range(g7.n):
        assert g7.reach[i] >> i & 1
    with pytest.raises(UnknownVertex):
        g7.require_vertex("nope")


def test_reaches_matches_matrix_squaring(g7):
    m = reach_matrix(g7)
    for u in g7.vertices:
        for v in g7.vertices:
            assert bool(g7.reach[g7.index[u]] >> g7.index[v] & 1) == oracle_reaches(g7, u, v) == m[g7.index[u], g7.index[v]]


@given(seed=seeds, n=st.integers(0, 30), per_vertex=st.sampled_from([1, 2, None]))
@settings(max_examples=60, deadline=None)
def test_reaches_matches_oracle_random(seed, n, per_vertex):
    # 1/n and 2/n give chains of strongly connected components; 0.3 gives few
    density = 0.3 if per_vertex is None else per_vertex / max(n, 1)
    g = random_graph(seed, n, density)
    m = reach_matrix(g)
    for i in range(n):
        assert g.reach[i] == sum(1 << j for j in range(n) if m[i, j])
    for j in range(n):
        assert g.coreach[j] == sum(1 << i for i in range(n) if m[i, j])


def test_upward_set_fixture(g7):
    assert upward_set(g7, ["t"]) == {"t", "u", "v", "w", "x"}
    assert upward_set(g7, []) == frozenset()


def test_upward_set_on_subset_graph():
    g = ea_graph(["a", "b", "c"], OMEGA)
    # everything below {a, b}: its nonempty subsets
    assert upward_set(g, ["v_a_b"]) == {"v_a", "v_b", "v_a_b"}


def test_upward_set_idempotent_and_monotone_exhaustive(g7):
    for mask in range(1 << len(g7.vertices)):
        s = g7.names(mask)
        u = upward_set(g7, s)
        assert s <= u
        assert upward_set(g7, u) == u
        assert u == oracle_upward_set(g7, s)


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_upward_set_idempotent_random(seed):
    g = random_graph(seed, 6)
    s = g.names(seed % (g.full_mask + 1 or 1))
    u = upward_set(g, s)
    assert s <= u and upward_set(g, u) == u


# -- downward directedness ---------------------------------------------------------


def test_downward_directed_subset_graphs():
    for mult in (1, 2, OMEGA):
        g = ea_graph(["a", "b", "c"], mult)
        assert is_downward_directed(g, g.vertices)


def test_downward_directed_failure_with_witness(three_chain):
    verdict = is_downward_directed(three_chain, three_chain.vertices)
    assert not verdict
    u, v = verdict.witness
    assert {u, v} == {"a", "c"}


def test_downward_directed_singleton(g7):
    assert is_downward_directed(g7, ["z"])


# -- countable separation -----------------------------------------------------------


def test_has_csp_always_true_with_minimal_witness(g7):
    witness = g7.names(has_csp(g7, g7.full_mask).witness)
    assert witness == {"t", "z"} == oracle_csp_witness(g7, g7.vertices)
    # witness really separates: everything reaches into it
    for v in g7.vertices:
        assert any(oracle_reaches(g7, v, s) for s in witness)


def test_has_csp_empty():
    assert has_csp(Graph(["a"]), 0) == (True, 0)


@given(
    seed=seeds,
    n=st.integers(1, 12),
    repaired=st.booleans(),
    density=st.sampled_from([0.1, 0.25, 0.5]),
    picks=st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_mt3_and_mt4_witnesses_match_oracles(seed, n, repaired, density, picks):
    g = (random_condition_k_graph if repaired else random_graph)(seed, n, density)
    for pick in picks:
        members = sorted(g.names(pick & g.full_mask), reverse=True)
        assert g.names(has_csp(g, g.mask(members)).witness) == oracle_csp_witness(g, members)
        verdict = is_downward_directed(g, members)
        failing = oracle_downward_directed(g, members)
        assert (verdict.holds, verdict.witness) == (failing is None, failing)


def test_common_bound_of_every_fixture_mask(g7):
    for mask in range(1 << g7.n):
        assert g7.names(_common_bound(g7, mask)) == oracle_common_bound(g7, g7.names(mask)), mask


@given(
    seed=seeds,
    n=st.integers(1, 12),
    repaired=st.booleans(),
    density=st.sampled_from([0.1, 0.25, 0.5]),
    picks=st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_common_bound_matches_explicit_sets(seed, n, repaired, density, picks):
    # the members every member reaches; on a nonempty set, some exactly under MT3
    g = (random_condition_k_graph if repaired else random_graph)(seed, n, density)
    for pick in picks:
        mask = pick & g.full_mask
        members = g.names(mask)
        common = _common_bound(g, mask)
        assert g.names(common) == oracle_common_bound(g, members), sorted(members)
        if mask:
            assert (common != 0) == (oracle_downward_directed(g, members) is None), sorted(members)


# -- simple cycles -------------------------------------------------------------------


def test_cycle_class_fixture(g7):
    expected = {
        "t": CycleClass.ZERO,
        "u": CycleClass.TWO_OR_MORE,
        "v": CycleClass.TWO_OR_MORE,
        "w": CycleClass.ZERO,
        "x": CycleClass.TWO_OR_MORE,
        "y": CycleClass.ZERO,
        "z": CycleClass.TWO_OR_MORE,
    }
    assert g7.cycle_class == list(expected.values())


def test_cycle_class_single_loop(single_loop):
    assert single_loop.cycle_class == [CycleClass.ONE]


def test_cycle_class_subset_graph_acyclic(ea3_omega):
    assert set(ea3_omega.cycle_class) == {CycleClass.ZERO}


def test_cycle_class_parallel_loop_counts():
    g = Graph(["a"], [Bundle("a", "a", 2)])
    assert g.cycle_class == [CycleClass.TWO_OR_MORE]
    g = Graph(["a"], [Bundle("a", "a", OMEGA)])
    assert g.cycle_class == [CycleClass.TWO_OR_MORE]


def test_cycle_class_two_step_cycle():
    g = Graph(["a", "b"], [Bundle("a", "b"), Bundle("b", "a")])
    assert g.cycle_class == [CycleClass.ONE, CycleClass.ONE]
    assert condition_K(g).witness == "a"


def test_cycle_class_on_a_cycle_longer_than_the_recursion_limit(long_cycle):
    assert set(long_cycle.cycle_class) == {CycleClass.ONE}


def test_cycle_class_matches_walk_oracle(g7):
    for v in g7.vertices:
        assert g7.cycle_class[g7.index[v]] is oracle_cycle_class(g7, v)


@given(seed=seeds, n=st.integers(1, 8), density=st.sampled_from([0.15, 0.4]))
@settings(max_examples=80, deadline=None)
def test_cycle_class_matches_walk_oracle_random(seed, n, density):
    g = random_graph(seed, n, density)
    expected = [oracle_cycle_class(g, v) for v in g.vertices]
    assert g.cycle_class == expected, seed
    lonely = [v for v, want in zip(g.vertices, expected) if want is CycleClass.ONE]
    assert condition_K(g).witness == (lonely[0] if lonely else None)


# -- conditions K and L ------------------------------------------------------------


def test_condition_k_examples(g7, single_loop, ea3_omega):
    assert condition_K(g7)
    assert condition_K(ea3_omega)
    verdict = condition_K(single_loop)
    assert not verdict and verdict.witness == "a"


def test_condition_l_examples(g7, single_loop, ea3_omega):
    assert condition_L(g7)
    assert condition_L(ea3_omega)
    verdict = condition_L(single_loop)
    assert not verdict and verdict.witness == ("a",)


def test_condition_l_witness_is_an_exitless_cycle():
    g = Graph(
        ["a", "b", "c"],
        [Bundle("a", "b"), Bundle("b", "a"), Bundle("c", "a")],
    )
    verdict = condition_L(g)
    assert not verdict
    assert set(verdict.witness) == {"a", "b"}


@pytest.mark.parametrize(
    "bundles",
    [
        [Bundle("a", "b"), Bundle("b", "a"), Bundle("b", "c")],
        # two labeled unit bundles from a are two edges, so one is an exit
        [Bundle("a", "b", 1, "f"), Bundle("a", "b", 1, "g"), Bundle("b", "a")],
    ],
)
def test_condition_l_holds_with_an_exit(bundles):
    assert condition_L(Graph(["a", "b", "c"], bundles))


def test_condition_l_walk_stops_at_an_exit_and_goes_on():
    # the plain cycle a, b, c is walked before the loop at e, and its only
    # exit leaves from its highest member, to x below its lowest one
    g = Graph(
        ["x", "a", "b", "c", "e"],
        [Bundle("a", "b"), Bundle("b", "c"), Bundle("c", "a"), Bundle("c", "x"), Bundle("e", "e")],
    )
    assert g.condensation[0] == [g.mask("x"), g.mask("abc"), g.mask("e")]
    verdict = condition_L(g)
    assert not verdict and verdict.witness == ("e",)


@given(g=multigraphs())
@settings(max_examples=300, deadline=None)
def test_vertex_classes_and_condition_l_match_the_expanded_edges(g):
    # parallel, labeled and OMEGA bundles, each expanded into its edges
    assert tuple(map(g.names, g.class_masks)) == oracle_expanded_classes(g)
    verdict = condition_L(g)
    assert verdict.holds == oracle_condition_L(g) == oracle_chase_condition_L(g).holds
    if not verdict:
        assert oracle_exitless(oracle_out_edges(g), verdict.witness), verdict.witness


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_repaired_graphs_satisfy_condition_k(seed):
    g = random_condition_k_graph(seed, 2 + seed % 6, density=0.4)
    assert condition_K(g)
