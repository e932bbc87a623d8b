"""Known answers at any size: a finite poset realized as a Condition (K) graph
by ``oracles.poset_graph``, checked against values computed from the poset
alone.

Each point x is a vertex with a double loop and each cover y < x an edge
x -> y, so reachability is the order, the maximal tails are the up-sets of the
points and the saturated hereditary sets are the down-sets.  A finite-return
point adds one point to the spectrum, just above its own, and doubles itself
in the lattice of ideals: the ideals are the down-sets of
``oracles.poset_with_returns``.
"""

from math import comb

import networkx as nx
from hypothesis import example, given, settings

from ck_spectra import clusters, finite_return_vertices, separation_report, spec_points, spec_space
from ck_spectra.ideals import admissible_pairs, saturated_hereditary_sets

from .oracles import count_down_sets, grid_poset, poset_graph, poset_with_returns, posets

# a sink below a finite-return point, beside a plain one: dropping the sink's
# cluster, deciding finite return on all edges, or counting breaking edges by
# their targets each changes a count here
VEE = (["p0", "p1", "p2"], [("p0", "p2"), ("p1", "p2")], {"p0"}, {"p2"})


@given(posets())
@example(VEE)
@settings(max_examples=80, deadline=None)
def test_poset_graph_answers_match_the_poset(poset):
    points, covers, sinks, finite_return = poset
    g = poset_graph(points, covers, sinks, finite_return)
    doubled, doubled_covers = poset_with_returns(points, covers, finite_return)
    assert len(clusters(g)) == len(points)
    assert finite_return_vertices(g) == finite_return
    assert len(spec_points(g)) == len(doubled)
    assert len(admissible_pairs(g)) == count_down_sets(doubled, doubled_covers)
    # q lies in the closure of {p} exactly when p lies below q in the doubled poset
    expected = nx.DiGraph()
    expected.add_nodes_from(doubled)
    expected.add_edges_from(doubled_covers)
    expected = nx.transitive_closure(expected)
    antichain = not doubled_covers
    for side in ("graph", "ideal"):
        sep = separation_report(spec_space(g, side))
        got = nx.DiGraph()
        got.add_nodes_from(spec_points(g))
        got.add_edges_from((p, q) for p, q in sep.specialization if p != q)
        assert nx.is_isomorphic(got, expected), side
        assert sep.t0 and sep.t1 == sep.hausdorff == antichain, side


def test_a_chain_of_1000_has_1000_points():
    points = [f"c{i}" for i in range(1000)]
    g = poset_graph(points, list(zip(points, points[1:])))
    assert len(spec_points(g)) == 1000


def test_an_antichain_of_16_has_2_to_the_16_saturated_hereditary_sets():
    g = poset_graph([f"a{i}" for i in range(16)], [])
    assert len(saturated_hereditary_sets(g)) == 2**16


def test_the_8_by_8_grid_has_16_choose_8_admissible_pairs():
    g = poset_graph(*grid_poset(8))
    assert len(admissible_pairs(g)) == comb(16, 8) == 12_870


def test_the_down_set_counter_on_closed_forms():
    chain = [f"c{i}" for i in range(6)]
    assert count_down_sets(chain, list(zip(chain, chain[1:]))) == 7
    assert count_down_sets([f"a{i}" for i in range(5)], []) == 32
    assert count_down_sets(*grid_poset(3)) == comb(6, 3)
    assert count_down_sets(*poset_with_returns(*VEE[:2], VEE[3])) == 6
