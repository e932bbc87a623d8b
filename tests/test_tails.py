import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ck_spectra import (
    Bundle,
    BoundaryPath,
    Graph,
    InvalidPath,
    NotAMaximalTail,
    OMEGA,
    SizeLimitExceeded,
    clusters,
    ea_graph,
    finite_return_vertices,
    maximal_tails,
    mt_report,
    random_condition_k_graph,
    random_graph,
    realize_as_tail,
    tail_of_boundary,
    verify_homeomorphism,
)
from ck_spectra.graph_core import _bits
from ck_spectra.ideals import _breaking_masked
from ck_spectra.tails import _cluster_masks, _mt_faults, _mt_holds, _realize_mask

from .oracles import oracle_mt1, oracle_mt2, oracle_mt3, oracle_reaches, oracle_realize_mask, oracle_tails

seeds = st.integers(0, 10_000)


def bundle_of(g, src, dst, label=None):
    return next(
        b for b in g.bundles if b.src == src and b.dst == dst and b.label == label
    )


# -- MT reports ---------------------------------------------------------------


def test_mt_report_empty_set_vacuous(g7):
    rep = mt_report(g7, [])
    assert rep.mt1 and rep.mt2 and rep.mt3 and rep.mt4


def test_mt_report_on_a_tail(g7):
    rep = mt_report(g7, "uvwx")
    assert rep.mt1 and rep.mt2 and rep.mt3 and rep.mt4


def test_mt_report_mt1_failure_with_witness(g7):
    rep = mt_report(g7, "wx")
    assert not rep.mt1
    v, w = rep.mt1_witness  # an edge into the set
    assert w in {"w", "x"} and v not in {"w", "x"} and oracle_reaches(g7, v, w)
    assert any(b.src == v and b.dst == w for b in g7.bundles)


def test_mt_report_mt2_failure():
    g = Graph(["a", "b"], [Bundle("a", "b")])
    rep = mt_report(g, ["a"])
    assert not rep.mt2 and rep.mt2_witness == "a"


# -- enumerations ---------------------------------------------------------------


def test_fixture_has_exactly_four_tails(fixture):
    assert tuple(maximal_tails(fixture.graph)) == fixture.expected.tails


def test_single_sink_tail(single_sink):
    assert maximal_tails(single_sink) == [frozenset("a")]


def test_subset_graph_omega_tails(ea2_omega):
    got = set(maximal_tails(ea2_omega))
    assert got == {
        frozenset({"v_a"}),
        frozenset({"v_b"}),
        frozenset({"v_a", "v_b", "v_a_b"}),
    }


def test_clusters_equal_tails_everywhere(g7, ea2_omega, ea3_omega, three_chain, remark_graph):
    for g in (g7, ea2_omega, ea3_omega, three_chain, remark_graph):
        assert maximal_tails(g) == clusters(g)


def test_enumeration_matches_literal_oracle(g7, three_chain, ea2_omega):
    for g in (g7, three_chain, ea2_omega):
        assert set(clusters(g)) == oracle_tails(g)


@given(
    seed=seeds,
    n=st.integers(1, 9),
    density=st.sampled_from([0.15, 0.3, 0.5]),
    generate=st.sampled_from([random_graph, random_condition_k_graph]),
)
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_literal_oracle_random(seed, n, density, generate):
    g = generate(seed, n, density)
    assert clusters(g) == sorted(oracle_tails(g), key=g.mask)


def test_union_of_tails_but_not_cluster(three_chain):
    everything = frozenset(three_chain.vertices)
    rep = mt_report(three_chain, everything)
    assert rep.mt1 and rep.mt2 and not rep.mt3
    assert everything not in clusters(three_chain)
    assert set(maximal_tails(three_chain)) == {frozenset("ab"), frozenset("bc")}


def test_union_examples(g7):
    rep = mt_report(g7, [])
    assert rep.mt1 and rep.mt2
    assert not mt_report(g7, "yz").mt1  # x reaches y from outside


def test_enumeration_respects_size_limit():
    # one tail per vertex needs no cap; the 2^21 saturated hereditary sets do
    g = Graph([f"v{i}" for i in range(21)])
    assert clusters(g) == [frozenset({v}) for v in g.vertices]
    with pytest.raises(SizeLimitExceeded):
        verify_homeomorphism(g)


# -- boundary paths ----------------------------------------------------------------


def test_tail_of_length_zero_path_at_emitter(g7, fixture):
    assert tail_of_boundary(g7, BoundaryPath("w")) == frozenset("w")
    assert tail_of_boundary(g7, BoundaryPath("x")) == frozenset("uvwx")


def test_tail_of_periodic_path_at_z(g7, fixture):
    e_loop = bundle_of(g7, "z", "z", "e")
    path = BoundaryPath("z", (), (e_loop,))
    assert path.cycle
    assert tail_of_boundary(g7, path) == fixture.expected.full_tail


def test_tail_of_f_loop_path(g7):
    f_loop = bundle_of(g7, "x", "x", "f")
    assert tail_of_boundary(g7, BoundaryPath("x", (), (f_loop,))) == frozenset("uvwx")


def test_invalid_paths_rejected(g7):
    with pytest.raises(InvalidPath):
        tail_of_boundary(g7, BoundaryPath("v"))  # regular endpoint, no cycle
    with pytest.raises(InvalidPath, match="does not continue the path at 'y'"):
        tail_of_boundary(g7, BoundaryPath("y", (bundle_of(g7, "u", "t"),)))
    with pytest.raises(InvalidPath):
        # cycle part that does not close up
        tail_of_boundary(g7, BoundaryPath("y", (), (bundle_of(g7, "y", "z"),)))
    # a bundle outside the graph is reported as such, even where it does not
    # continue the path: from an unknown vertex, to one, or with another multiplicity
    for stray in (Bundle("x", "q"), Bundle("q", "x"), Bundle("u", "t", 2)):
        for base in ("x", "y"):
            with pytest.raises(InvalidPath, match="is not part of the graph"):
                tail_of_boundary(g7, BoundaryPath(base, (stray,)))


def test_vertex_trace():
    g = ea_graph(["a", "b"], OMEGA)
    b = bundle_of(g, "v_a", "v_a_b")
    assert BoundaryPath("v_a", (b,)).vertex_trace == {"v_a", "v_a_b"}


# -- realization ----------------------------------------------------------------------


def test_realize_singleton_tail_is_length_zero(g7):
    path = realize_as_tail(g7, ["w"])
    assert not path.cycle and path.base == "w" and not path.prefix


def test_realize_t2_round_trips(g7):
    path = realize_as_tail(g7, "uvwx")
    assert tail_of_boundary(g7, path) == frozenset("uvwx")


def test_realize_subset_graph_singleton():
    g = ea_graph(["a"], OMEGA)
    path = realize_as_tail(g, ["v_a"])
    assert path.base == "v_a" and not path.cycle


def test_realize_rejects_non_tails(g7):
    with pytest.raises(NotAMaximalTail):
        realize_as_tail(g7, [])
    with pytest.raises(NotAMaximalTail):
        realize_as_tail(g7, "wx")


def test_realize_round_trip_exhaustive(g7, ea3_omega, three_chain, remark_graph):
    for g in (g7, ea3_omega, three_chain, remark_graph):
        for t in maximal_tails(g):
            path = realize_as_tail(g, t)
            assert path.vertex_trace <= t
            assert tail_of_boundary(g, path) == t


def test_realization_matches_the_chain_fold_random():
    # one route to the common bound against the general construction, path
    # for path, on every cluster of seeded random graphs of up to 14 vertices
    for seed in range(3000):
        generate = (random_graph, random_condition_k_graph)[seed // 14 % 2]
        g = generate(seed, 1 + seed % 14, (0.1, 0.2, 0.35)[seed // 28 % 3])
        for mask in _cluster_masks(g):
            assert _realize_mask(g, mask) == oracle_realize_mask(g, mask), (seed, sorted(g.names(mask)))


def test_realization_matches_the_chain_fold_on_every_mt_mask():
    # every vertex set that passes MT1-MT3 by literal evaluation, up to 8 vertices
    for seed in range(480):
        generate = (random_graph, random_condition_k_graph)[seed // 8 % 2]
        g = generate(seed, 1 + seed % 8, (0.15, 0.3, 0.5)[seed // 16 % 3])
        for t in oracle_tails(g):
            assert realize_as_tail(g, t) == oracle_realize_mask(g, g.mask(t)), (seed, sorted(t))


@given(seed=seeds)
@settings(max_examples=50, deadline=None)
def test_realize_round_trip_random(seed):
    g = random_condition_k_graph(seed, 1 + seed % 7)
    for t in clusters(g):
        assert tail_of_boundary(g, realize_as_tail(g, t)) == t


def test_every_tail_is_downward_directed_and_mt(g7):
    # forward direction: any tail built from a boundary path passes all axioms
    for t in maximal_tails(g7):
        rep = mt_report(g7, t)
        assert rep.mt1 and rep.mt2 and rep.mt3 and rep.mt4


@given(seed=seeds, n=st.integers(1, 9), generate=st.sampled_from([random_graph, random_condition_k_graph]))
@settings(max_examples=40, deadline=None)
def test_every_cluster_mask_has_no_mt_fault_random(seed, n, generate):
    # what verify's "tails equal clusters" check asks of each cluster
    g = generate(seed, n)
    for mask in _cluster_masks(g):
        assert _mt_faults(g, mask) == (None, None, None), sorted(g.names(mask))


@given(
    seed=seeds,
    n=st.integers(1, 7),
    density=st.sampled_from([0.15, 0.3, 0.5]),
    generate=st.sampled_from([random_graph, random_condition_k_graph]),
)
@settings(max_examples=60, deadline=None)
def test_whole_mask_mt_test_matches_the_witness_search_random(seed, n, density, generate):
    # on every vertex mask, not only on complements of saturated hereditary
    # sets, where MT1 and MT2 always hold; each axiom against its literal test
    g = generate(seed, n, density)
    for mask in range(1 << g.n):
        members = g.names(mask)
        faults = _mt_faults(g, mask)
        literal = oracle_mt1(g, members), oracle_mt2(g, members), oracle_mt3(g, members)
        assert tuple(fault is None for fault in faults) == literal, sorted(members)
        assert _mt_holds(g, mask) == all(literal), sorted(members)


# -- finite-return vertices --------------------------------------------------------------


def test_fixture_finite_return_is_x(g7):
    assert finite_return_vertices(g7) == {"x"}


def test_subset_graphs_have_no_returns(ea3_omega):
    assert finite_return_vertices(ea3_omega) == frozenset()


def test_two_vertex_remark_shape():
    g = Graph(
        ["v", "w"],
        [Bundle("v", "w", OMEGA), Bundle("v", "v"), Bundle("w", "w")],
    )
    assert finite_return_vertices(g) == {"v"}


def test_omega_returner_is_not_finite_return():
    # u emits infinitely many edges whose targets come back
    g = Graph(["u", "v"], [Bundle("u", "v", OMEGA), Bundle("v", "u")])
    assert finite_return_vertices(g) == frozenset()


def finite_return_iff_breaking(g):
    """Each infinite emitter v is a finite-return vertex iff it breaks out of
    the complement of its own tail U(v)."""
    fr = finite_return_vertices(g)
    for i in _bits(g.class_masks[1]):
        h = g.full_mask & ~g.coreach[i]
        assert (g.vertices[i] in fr) == bool(_breaking_masked(g, h) >> i & 1)


def test_finite_return_iff_breaking_for_own_tail(g7, remark_graph):
    for g in (g7, remark_graph):
        finite_return_iff_breaking(g)


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_finite_return_iff_breaking_random(seed):
    finite_return_iff_breaking(random_graph(seed, 6))
