import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ck_spectra import (
    Bundle,
    ClusterPoint,
    OMEGA,
    classify_ideal,
    clusters,
    condition_K,
    condition_L,
    ea_graph,
    finite_return_vertices,
    graph_closure,
    is_downward_directed,
    maximal_tails,
    prim_points,
    random_condition_k_graph,
    random_graph,
    running_example,
    spec_points,
)
from ck_spectra.gcg import emit_gcg
from ck_spectra.generators import _repair_condition_k
from ck_spectra.graph_core import CycleClass
from ck_spectra.ideals import _breaking_masked, saturated_hereditary_sets

from .oracles import mult_sum, named_pairs, oracle_reaches, phi, px_closure, px_model

seeds = st.integers(0, 10_000)
f = frozenset


# -- the running example regression ------------------------------------------------


def test_fixture_reproduces_every_expected_fact(fixture):
    g = running_example()
    assert g == fixture.graph
    e = fixture.expected
    assert tuple(maximal_tails(g)) == e.tails
    for tail, comp, br in zip(e.tails, e.complements, e.breaking):
        assert f(g.vertices) - tail == comp
        assert g.mask(comp) in saturated_hereditary_sets(g)
        assert g.names(_breaking_masked(g, g.mask(comp))) == br
    assert finite_return_vertices(g) == e.finite_return
    primes = {p for p in named_pairs(g) if classify_ideal(g, p).is_prime}
    assert primes == set(e.prime_pairs)
    verdict = classify_ideal(g, e.return_pair)
    assert verdict.v0 == e.return_vertex


def test_fixture_return_edges_are_exactly_two():
    g = running_example()
    returning = [b for b in g.bundles if b.src == "x" and oracle_reaches(g, b.dst, "x")]
    assert {b.label for b in returning} == {"f", "g"}
    assert mult_sum(b.mult for b in returning) == 2


# -- subset graphs -------------------------------------------------------------------


def test_ea_graph_shape():
    g = ea_graph(["a", "b"], 1)
    assert g.vertices == ("v_a", "v_b", "v_a_b")
    assert g.bundles == (
        Bundle("v_a", "v_a_b"),
        Bundle("v_b", "v_a_b"),
    )


def test_ea_graph_acyclic_downward_directed_all_mults():
    for mult in (1, 3, OMEGA):
        g = ea_graph(["a", "b", "c"], mult)
        assert condition_K(g) and condition_L(g)
        assert is_downward_directed(g, g.vertices)
        assert set(g.cycle_class) == {CycleClass.ZERO}
        assert finite_return_vertices(g) == f()


def test_ea_graph_mult_one_single_tail():
    for ground in (["a"], ["a", "b"], ["a", "b", "c"]):
        g = ea_graph(ground, 1)
        assert maximal_tails(g) == [f(g.vertices)]


def test_ea_graph_omega_cluster_count():
    for k, ground in ((1, ["a"]), (2, ["a", "b"]), (3, ["a", "b", "c"])):
        g = ea_graph(ground, OMEGA)
        assert len(clusters(g)) == 2**k - 1
        assert spec_points(g) == prim_points(g)


def test_ea_graph_caps_ground_size():
    with pytest.raises(ValueError, match="ground set of 5 elements is above the cap of 4"):
        ea_graph(["a", "b", "c", "d", "e"], OMEGA)


def test_ea_graph_rejects_colliding_names():
    with pytest.raises(ValueError):
        ea_graph(["a", "a_b", "b"])  # {a_b} and {a, b} would share a name


# -- the subset-closure model -----------------------------------------------------------


def test_px_closure_examples():
    model = px_model(["a", "b"])
    fa, fb, fab = f("a"), f("b"), f("ab")
    assert px_closure(model, [fa, fb]) == {fa, fb}
    assert px_closure(model, []) == f()
    assert px_closure(model, [fab]) == {fa, fb, fab}


def test_px_closure_literal_equals_containment():
    # lemma: with a finite ground set, membership collapses to plain containment
    for ground in (["a"], ["a", "b"], ["a", "b", "c"]):
        model = px_model(ground)
        for mask in range(1 << len(model.points)):
            fam = [p for i, p in enumerate(model.points) if mask >> i & 1]
            got = px_closure(model, fam)
            simple = {t for t in model.points if any(t <= s for s in fam)}
            assert got == simple


def test_phi_structure():
    model = px_model(["a", "b"])
    assert phi(model, f("ab")) == {"v_a", "v_b", "v_a_b"}
    assert phi(model, f("a")) == {"v_a"}
    with pytest.raises(ValueError):
        phi(model, f())


def test_phi_bijection_onto_clusters():
    for ground in (["a"], ["a", "b"], ["a", "b", "c"]):
        model = px_model(ground)
        g = ea_graph(model.ground, OMEGA)
        images = [phi(model, p) for p in model.points]
        assert len(set(images)) == len(images)
        assert set(images) == set(clusters(g))


def test_phi_transports_the_closure():
    # the companion graph has no return points, so the point set closure is
    # determined by the cluster part alone
    for ground in (["a", "b"], ["a", "b", "c"]):
        model = px_model(ground)
        g = ea_graph(model.ground, OMEGA)
        for mask in range(1 << len(model.points)):
            fam = [p for i, p in enumerate(model.points) if mask >> i & 1]
            lhs = {phi(model, t) for t in px_closure(model, fam)}
            rhs = {p.members for p in graph_closure(g, [ClusterPoint(phi(model, s)) for s in fam])}
            assert lhs == rhs


# -- random graphs ------------------------------------------------------------------------


def test_random_graph_deterministic():
    assert random_graph(7, 6) == random_graph(7, 6)
    assert random_condition_k_graph(7, 6) == random_condition_k_graph(7, 6)


def test_random_empty_graph():
    g = random_condition_k_graph(0, 0)
    assert g.vertices == () and spec_points(g) == []


@given(seed=seeds, n=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_random_condition_k_always_holds(seed, n):
    assert condition_K(random_condition_k_graph(seed, n, density=0.45))


def test_repair_on_a_cycle_longer_than_the_recursion_limit(long_cycle):
    repaired = _repair_condition_k(long_cycle)
    assert condition_K(repaired)
    changed = [(a, b) for a, b in zip(long_cycle.bundles, repaired.bundles) if a != b]
    assert changed == [(Bundle("v0", "v1"), Bundle("v0", "v1", 2))]
    assert repaired.vertices == long_cycle.vertices
    assert len(repaired.bundles) == len(long_cycle.bundles)


def test_repair_golden_digests():
    # Each raw graph has two or three plain cycles; some are loops, some run
    # through a vertex whose first out-bundle leaves the cycle.
    golden = {
        (24, 6, 0.3): "f9f37b34bebc80e9bcdba6e5db0dcc5a429f713c32d50e69267ad69658ed2e47",
        (49, 9, 0.2): "1fef739d4c432af8d1cd51234aaf3ddc83eb279c7c94edb24f0049d70a99cee2",
        (5, 15, 0.1): "37c0b4c0b04ade45e807bcc33dfd3fe9fc43b22b93554102b9aab6e9d5774885",
        (8, 20, 0.08): "fdee9f555ae9d11521ad54084edccd48495f66727c1052530157f5794be82bdf",
        (13, 30, 0.05): "6cf7b1f8324dfdf8a0a0f3d9ec2e5b94439f23e9c6e343c03c1cb0ff7fb8eb53",
        (37, 60, 0.03): "f33f888105e45a3ea8f5fdac7901a061dc920ec4ddccc878ab09c4e5c6849a9e",
    }
    for (seed, n, density), digest in golden.items():
        assert not condition_K(random_graph(seed, n, density))
        text = emit_gcg(random_condition_k_graph(seed, n, density))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (seed, n, density)


def test_repair_changes_something_sometimes():
    raw_violations = sum(
        1 for seed in range(60) if not condition_K(random_graph(seed, 5, density=0.45))
    )
    assert raw_violations > 5  # the non-K generator really produces negatives


def test_vertex_classes_in_random_corpus():
    kinds = [random_condition_k_graph(s, 6).class_masks for s in range(40)]
    assert any(emitters for _, emitters, _ in kinds)
    assert any(sinks for sinks, _, _ in kinds)
