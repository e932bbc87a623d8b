import contextlib
import random
from collections import Counter
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ck_spectra import (
    AdmissiblePair,
    Bundle,
    ConditionKRequired,
    Graph,
    IdealKind,
    NotSaturatedHereditary,
    OMEGA,
    SizeLimitExceeded,
    admissible_pair,
    classify_ideal,
    classify_via_quotient,
    condition_K,
    condition_L,
    ea_graph,
    emit_gcg,
    finite_return_vertices,
    meet,
    mt_report,
    parse_graph,
    quotient_graph,
    random_condition_k_graph,
    random_graph,
)
from ck_spectra import ideals, tails
from ck_spectra.graph_core import _union_faults
from ck_spectra.ideals import (
    _breaking_masked,
    _check_admissible,
    _quotient_frame,
    _quotient_one_terminal,
    _quotient_verdict,
    _require_sat_her,
    saturated_hereditary_sets,
)
from ck_spectra.tails import _finite_return_mask

from .oracles import (
    bundle_chain,
    multigraphs,
    named_pairs,
    oracle_breaking_masked,
    oracle_breaking_vertices,
    oracle_check_admissible,
    oracle_classify_ideal,
    oracle_classify_quotient,
    oracle_downward_directed,
    oracle_finite_return_mask,
    oracle_finite_return_vertices,
    oracle_is_hereditary,
    oracle_is_saturated,
    oracle_one_terminal,
    oracle_quotient_frame,
    oracle_sat_her,
    oracle_sat_her_faults,
    oracle_vertex_classes,
)

seeds = st.integers(0, 10_000)
f = frozenset


def complement_faults(g, hmask):
    """MT1 and MT2 of the complement of a vertex mask, checked against the member
    walk: clean exactly when it is, the same MT2 witness, and an MT1 edge v -> w
    with v in the mask and w outside."""
    entry, trapped = _union_faults(g, g.full_mask & ~hmask)
    escaping, walked = oracle_sat_her_faults(g, hmask)
    assert (entry is None, trapped) == (escaping is None, walked), sorted(g.names(hmask))
    if entry is not None:
        v, w = g.vertices[entry[0]], g.vertices[entry[1]]
        assert hmask >> entry[0] & 1 and not hmask >> entry[1] & 1
        assert any(b.src == v and b.dst == w for b in g.bundles), (v, w)
    return entry, trapped


# -- predicates -----------------------------------------------------------------


def test_hereditary_saturated_fixture_sets(g7):
    assert oracle_is_hereditary(g7, "yz") and oracle_is_saturated(g7, "yz")
    for h in ((), g7.vertices):
        assert oracle_is_hereditary(g7, h) and oracle_is_saturated(g7, h)
    verdict = oracle_is_hereditary(g7, "y")
    assert not verdict and verdict.witness == Bundle("y", "z")
    assert complement_faults(g7, g7.mask("y")) == ((g7.index["y"], g7.index["z"]), None)


def test_saturation_failure_witness():
    g = Graph(["a", "b"], [Bundle("a", "b")])
    verdict = oracle_is_saturated(g, "b")
    assert not verdict and verdict.witness == "a"
    assert complement_faults(g, g.mask("b")) == (None, g.index["a"])


def test_saturated_hereditary_enumeration(fixture):
    g = fixture.graph
    got = saturated_hereditary_sets(g)
    for h in fixture.expected.complements:
        assert g.mask(h) in got
    assert got == sorted(map(g.mask, oracle_sat_her(g)))


def test_saturated_hereditary_no_edges():
    g = Graph(["a", "b", "c"])
    assert len(saturated_hereditary_sets(g)) == 8


def test_saturated_hereditary_subset_graph(ea2_omega):
    g = ea2_omega
    got = set(map(g.names, saturated_hereditary_sets(g)))
    everything = f(g.vertices)
    complements_of_clusters = {
        everything - c
        for c in map(f, [{"v_a"}, {"v_b"}, {"v_a", "v_b", "v_a_b"}])
    }
    # complements of the clusters and of the empty set, plus the complement of
    # {v_a, v_b}, which satisfies MT1-MT2 without being downward directed
    expected = complements_of_clusters | {everything, f(), f({"v_a_b"})}
    assert got == expected == oracle_sat_her(g)


@pytest.mark.parametrize("seed", range(24))
def test_saturated_hereditary_sets_stop_just_past_their_limit(seed):
    # the default limit is 2^20 (test_cli's 21 disjoint loops pass it); at
    # the exact count, every set comes out, and one below, none does
    g = random_condition_k_graph(seed, 2 + seed % 8, 0.3)
    expected = sorted(map(g.mask, oracle_sat_her(g)))
    assert saturated_hereditary_sets(g, len(expected)) == expected
    with pytest.raises(SizeLimitExceeded, match=rf"tails number more than {len(expected) - 1}\b"):
        saturated_hereditary_sets(g, len(expected) - 1)


@given(
    seed=seeds,
    n=st.integers(1, 9),
    density=st.sampled_from([0.15, 0.3, 0.5]),
    generate=st.sampled_from([random_graph, random_condition_k_graph]),
)
@settings(max_examples=40, deadline=None)
def test_saturated_hereditary_matches_oracle_random(seed, n, density, generate):
    g = generate(seed, n, density)
    assert saturated_hereditary_sets(g) == sorted(map(g.mask, oracle_sat_her(g)))


# -- breaking vertices ------------------------------------------------------------


def test_breaking_sets_fixture(fixture):
    g = fixture.graph
    for h, b in zip(fixture.expected.complements, fixture.expected.breaking):
        assert g.names(_breaking_masked(g, g.mask(h))) == b == oracle_breaking_vertices(g, h)


def test_breaking_trivial_ends(g7):
    assert _breaking_masked(g7, 0) == 0
    assert _breaking_masked(g7, g7.full_mask) == 0


def test_breaking_requires_saturated_hereditary(g7):
    with pytest.raises(NotSaturatedHereditary):
        _require_sat_her(g7, g7.mask("y"))


def test_breaking_count_uses_edges_not_targets(g7):
    # u, w, x all escape the empty set through an OMEGA bundle, so the edge
    # count says "not breaking" while the target count would say "breaking";
    # over {t, y, z} only u keeps an OMEGA escape (to v)
    emitters = g7.class_masks[1]
    for h, escaping, breaking in (("", "uwx", ""), ("tyz", "uwx", "wx"), ("yz", "uwx", "wx"), (g7.vertices, "", "")):
        hmask = g7.mask(h)
        targets = sum(1 << i for i in range(g7.n) if emitters >> i & 1 and g7.succ_mask[i] & ~hmask)
        assert g7.names(targets) == f(escaping)
        assert g7.names(_breaking_masked(g7, hmask)) == f(breaking) == oracle_breaking_vertices(g7, h)


# -- admissible pairs ----------------------------------------------------------------


def test_admissible_pairs_fixture_counts(fixture):
    g = fixture.graph
    pairs = named_pairs(g)
    for s in (f(), f("w"), f("x"), f("wx")):
        assert AdmissiblePair(f("tyz"), s) in pairs
    total = sum(2 ** _breaking_masked(g, h).bit_count() for h in saturated_hereditary_sets(g))
    assert len(pairs) == total == 12


def test_admissible_pairs_single_vertex():
    g = Graph(["a"])
    assert named_pairs(g) == [
        AdmissiblePair(f(), f()),
        AdmissiblePair(f("a"), f()),
    ]


def test_admissible_pairs_row_finite_subset_graph():
    g = ea_graph(["a", "b"], 1)
    assert all(smask == 0 for _, smask in ideals.admissible_pairs(g))


@pytest.mark.parametrize(
    "build",
    [
        *(pytest.param(lambda k=k: bundle_chain(k), id=f"chain-{k}") for k in range(1, 7)),
        *(pytest.param(lambda s=s: random_condition_k_graph(s, 2 + s % 8, 0.3, 0.5), id=f"random-{s}") for s in range(12)),
    ],
)
def test_admissible_pairs_stop_just_past_their_limit(build):
    # the running total is checked before each H's 2^|B_H| subsets are
    # expanded: at the exact count, every pair comes out, H by H, and one
    # below, none does.  Each H has at least one pair, so where the pairs
    # number as many as the sets, the sets are what stops.
    g = build()
    expected = [
        (g.mask(h), g.mask(s))
        for h in oracle_sat_her(g)
        for b in [sorted(oracle_breaking_vertices(g, h))]
        for k in range(len(b) + 1)
        for s in combinations(b, k)
    ]
    pairs = ideals.admissible_pairs(g, len(expected))
    assert sorted(pairs) == sorted(expected)
    assert list(dict.fromkeys(h for h, _ in pairs)) == saturated_hereditary_sets(g)
    stop = "tails number more than" if len(saturated_hereditary_sets(g)) == len(expected) else "sets have over"
    with pytest.raises(SizeLimitExceeded, match=rf"{stop} {len(expected) - 1}\b"):
        ideals.admissible_pairs(g, len(expected) - 1)


def test_admissible_pair_validation(g7):
    assert admissible_pair(g7, "tyz", "wx") == AdmissiblePair(f("tyz"), f("wx"))
    with pytest.raises(NotSaturatedHereditary):
        admissible_pair(g7, "y")
    with pytest.raises(NotSaturatedHereditary):
        admissible_pair(g7, "tyz", "u")  # u is not breaking for this H


# -- meet and containment ---------------------------------------------------------------


def test_meet_idempotent(g7):
    p = AdmissiblePair(f("tyz"), f("w"))
    assert meet(g7, [p]) == p
    assert meet(g7, [p, p]) == p


def test_meet_with_zero_ideal(g7):
    zero = AdmissiblePair(f(), f())
    for q in named_pairs(g7):
        assert meet(g7, [zero, q]) == zero


def test_meet_fixture_example(g7):
    a = AdmissiblePair(f("yz"), f("wx"))
    b = AdmissiblePair(f("t"), f())
    assert meet(g7, [a, b]) == AdmissiblePair(f(), f())


def test_meet_empty_family_is_whole_algebra(g7):
    assert meet(g7, []) == AdmissiblePair(f(g7.vertices), f())


def test_meet_semilattice_laws(g7):
    pairs = named_pairs(g7)
    for p in pairs:
        for q in pairs:
            pq = meet(g7, [p, q])
            assert pq == meet(g7, [q, p])
            assert pq in pairs  # result admissible
            for r in pairs[::3]:
                assert meet(g7, [pq, r]) == meet(g7, [p, q, r])


def ideal_leq(g, p, q):
    """Containment of the ideals of two pairs, through the meet."""
    return meet(g, (p, q)) == p


def test_ideal_leq_is_a_partial_order(g7):
    pairs = named_pairs(g7)
    for p in pairs:
        assert ideal_leq(g7, p, p)
        for q in pairs:
            if ideal_leq(g7, p, q) and ideal_leq(g7, q, p):
                assert p == q
            for r in pairs[::4]:
                if ideal_leq(g7, p, q) and ideal_leq(g7, q, r):
                    assert ideal_leq(g7, p, r)


def test_ideal_leq_bounds(g7):
    zero = AdmissiblePair(f(), f())
    top = AdmissiblePair(f(g7.vertices), f())
    for p in named_pairs(g7):
        assert ideal_leq(g7, zero, p)
        assert ideal_leq(g7, p, top)


def test_ideal_leq_fixture_closure_fact(g7):
    lo = AdmissiblePair(f("t"), f())
    hi = AdmissiblePair(f("tyz"), f("w"))
    assert ideal_leq(g7, lo, hi)
    assert not ideal_leq(g7, hi, lo)


def _direct_leq(g, p, q):
    """The package's direct criterion, H <= H' and S <= H' | S', on masks."""
    return ideals.ideal_leq((g.mask(p.h), g.mask(p.s)), (g.mask(q.h), g.mask(q.s)))


def test_ideal_leq_matches_direct_criterion_fixture(g7):
    pairs = named_pairs(g7)
    for p in pairs:
        for q in pairs:
            assert ideal_leq(g7, p, q) == _direct_leq(g7, p, q)


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_ideal_leq_matches_direct_criterion_random(seed):
    g = random_graph(seed, 5)
    pairs = named_pairs(g)
    for p in pairs:
        for q in pairs:
            assert ideal_leq(g, p, q) == _direct_leq(g, p, q)


# -- quotient graphs ----------------------------------------------------------------------


def test_identity_quotient(g7):
    q = quotient_graph(g7, AdmissiblePair(f(), f()))
    assert q.graph == g7 and not q.primed


def test_quotient_to_single_vertex(g7):
    q = quotient_graph(g7, AdmissiblePair(f("tuvxyz"), f()))
    assert q.graph.vertices == ("w",) and q.graph.bundles == ()


def test_quotient_with_sink_copy(g7):
    q = quotient_graph(g7, AdmissiblePair(f("tyz"), f("w")))
    assert q.graph.vertices == ("u", "v", "w", "x", "x_prime")
    assert q.primed == {"x": "x_prime"}
    into_copy = [b for b in q.graph.bundles if b.dst == "x_prime"]
    # one copy per bundle into x: from v, from w, and the loop f
    assert {(b.src, b.mult) for b in into_copy} == {("v", 1), ("w", 1), ("x", 1)}
    assert all(q.provenance[b].dst == "x" for b in into_copy)
    # sink copies emit nothing
    assert all(b.src != "x_prime" for b in q.graph.bundles)


def test_primed_vertices_are_sinks_everywhere(g7):
    for pair in named_pairs(g7):
        q = quotient_graph(g7, pair)
        for copy in q.primed.values():
            assert all(b.src != copy for b in q.graph.bundles)


def test_primed_name_collision_avoided():
    g = Graph(
        ["a", "a_prime", "b"],
        [Bundle("a", "b", OMEGA), Bundle("a", "a", 2), Bundle("b", "b", 2)],
    )
    q = quotient_graph(g, AdmissiblePair(f("b"), f()))
    assert q.primed == {"a": "a_prime_"}


def test_primed_label_collision_avoided():
    g = Graph(
        ["a", "b", "c"],
        [
            Bundle("a", "b", OMEGA),
            Bundle("a", "c"),
            Bundle("c", "a", 1, "g"),
            Bundle("c", "c", 2, "g_prime"),
        ],
    )
    q = quotient_graph(g, AdmissiblePair(f("b"), f()))
    assert q.primed == {"a": "a_prime"}
    copy = next(b for b in q.graph.bundles if b.dst == "a_prime")
    assert copy.src == "c" and copy.label == "g_prime_"
    assert q.provenance[copy] == Bundle("c", "a", 1, "g")


# -- classification -------------------------------------------------------------------------


def test_fixture_prime_ideals_exact(fixture):
    g = fixture.graph
    verdicts = {p: classify_ideal(g, p) for p in named_pairs(g)}
    primes = {p for p, c in verdicts.items() if c.is_prime}
    assert primes == set(fixture.expected.prime_pairs)
    ret = verdicts[fixture.expected.return_pair]
    assert ret.kind is IdealKind.PRIMITIVE_RETURN
    assert ret.v0 == fixture.expected.return_vertex


def test_zero_ideal_of_fixture_not_prime(g7):
    assert classify_ideal(g7, AdmissiblePair(f(), f())).kind is IdealKind.NOT_PRIME


def test_zero_ideal_of_subset_graph_primitive(ea3_omega):
    verdict = classify_ideal(ea3_omega, AdmissiblePair(f(), f()))
    assert verdict.kind is IdealKind.PRIMITIVE_TAIL


def test_whole_algebra_not_prime(g7):
    pair = AdmissiblePair(f(g7.vertices), f())
    assert classify_ideal(g7, pair).kind is IdealKind.NOT_PRIME
    assert classify_via_quotient(g7, pair).kind is IdealKind.NOT_PRIME


def test_two_sinks_in_quotient_not_prime(g7):
    pair = AdmissiblePair(f("tyz"), f())
    assert classify_via_quotient(g7, pair).kind is IdealKind.NOT_PRIME


def test_classification_requires_condition_k(single_loop):
    with pytest.raises(ConditionKRequired):
        classify_ideal(single_loop, AdmissiblePair(f(), f()))
    with pytest.raises(ConditionKRequired):
        classify_via_quotient(single_loop, AdmissiblePair(f(), f()))


def test_routes_agree_on_fixture(g7):
    for pair in named_pairs(g7):
        assert classify_ideal(g7, pair) == classify_via_quotient(g7, pair)


def test_complements_are_unions_of_tails(g7):
    for pair in named_pairs(g7):
        rep = mt_report(g7, f(g7.vertices) - pair.h)
        assert rep.mt1 and rep.mt2


def test_primitive_return_iff_finite_return_vertex(g7, remark_graph):
    from ck_spectra import finite_return_vertices

    for g in (g7, remark_graph):
        fr = finite_return_vertices(g)
        for pair in named_pairs(g):
            verdict = classify_ideal(g, pair)
            if verdict.kind is IdealKind.PRIMITIVE_RETURN:
                assert verdict.v0 in fr


def test_condition_k_iff_quotients_satisfy_l(g7):
    for pair in named_pairs(g7):
        assert condition_L(quotient_graph(g7, pair).graph)


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_non_k_graphs_have_a_bad_quotient(seed):
    g = random_graph(seed, 4, density=0.5)
    if condition_K(g):
        for pair in named_pairs(g):
            assert condition_L(quotient_graph(g, pair).graph)
    else:
        assert any(not condition_L(quotient_graph(g, p).graph) for p in named_pairs(g))


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_routes_agree_random(seed):
    g = random_condition_k_graph(seed, 1 + seed % 7)
    for pair in named_pairs(g):
        assert classify_ideal(g, pair) == classify_via_quotient(g, pair), (seed, pair)


# -- the direct route against its name-based oracle ---------------------------------------

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "lattice-rich"
ORACLE_GRAPHS = [
    *(pytest.param(lambda p=p: parse_graph(p.read_text()), id=p.stem) for p in sorted(CORPUS.glob("*.gcg"))),
    *(pytest.param(lambda s=s: random_condition_k_graph(s, 1 + s % 9), id=f"random-{s}") for s in range(18)),
]


def with_labeled_copies(seed: int, n: int) -> Graph:
    """``random_graph(seed, n)`` plus a labeled bundle of multiplicity 1, 2 or
    OMEGA beside about half of its bundles.  A graph keeps labeled bundles
    apart, so these are the parallel bundles that ``random_graph`` never draws."""
    g = random_graph(seed, n, 0.4)
    rng = random.Random(seed)
    extra = [
        Bundle(b.src, b.dst, rng.choice((1, 2, OMEGA)), f"e{k}")
        for k, b in enumerate(g.bundles)
        if rng.random() < 0.5
    ]
    return Graph(g.vertices, [*g.bundles, *extra])


LABELED_GRAPHS = [
    # a returns to itself along two labeled edges to b, and escapes to c along OMEGA
    pytest.param(
        lambda: Graph("abc", [Bundle("a", "b", 1, "p"), Bundle("a", "b", 1, "q"), Bundle("a", "c", OMEGA),
                              Bundle("b", "a"), Bundle("c", "c", 2)]),
        id="labeled-return",
    ),
    *(pytest.param(lambda s=s: with_labeled_copies(s, 2 + s % 6), id=f"labeled-{s}") for s in range(16)),
]


def test_labeled_graphs_draw_parallel_and_omega_bundles():
    graphs = [param.values[0]() for param in LABELED_GRAPHS]
    parallel = [b for g in graphs for b in g.bundles if b.label and sum(c.dst == b.dst for c in g.out_bundles[b.src]) > 1]
    assert {b.mult for b in parallel} >= {1, 2, OMEGA}
    assert sum(len(finite_return_vertices(g)) for g in graphs) >= 3


@pytest.mark.parametrize("build", [*ORACLE_GRAPHS, *LABELED_GRAPHS])
def test_edge_counts_match_their_literal_oracles(build):
    g = build()
    assert tuple(map(g.names, g.class_masks)) == oracle_vertex_classes(g)
    assert finite_return_vertices(g) == oracle_finite_return_vertices(g)
    for hmask in saturated_hereditary_sets(g):
        h = g.names(hmask)
        assert g.names(_breaking_masked(g, hmask)) == oracle_breaking_vertices(g, h), h


def outcome(fn, *args):
    """The result, or the class and message of what was raised."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err)


@pytest.mark.parametrize("build", ORACLE_GRAPHS)
def test_direct_route_matches_its_oracle_on_every_pair(build):
    g = build()
    pairs = named_pairs(g)
    assert pairs
    for pair in pairs:
        assert _check_admissible(g, pair) == oracle_check_admissible(g, pair)
        assert classify_ideal(g, pair) == oracle_classify_ideal(g, pair), pair


def test_direct_route_rejects_as_its_oracle_does(g7):
    everything = f(g7.vertices)
    subsets = [f(c) for k in range(len(everything) + 1) for c in combinations(g7.vertices, k)]
    pairs = [AdmissiblePair(h, s) for h in subsets for s in (f(), *(f({v}) for v in everything))]
    pairs += [
        AdmissiblePair(f(["nope"]), f()),
        AdmissiblePair(f(), f(["nope"])),
        AdmissiblePair(f("u"), f(["nope"])),  # H is rejected before S is read
        AdmissiblePair(f("tyz"), f(["w", "nope"])),
    ]
    kinds = Counter()
    for pair in pairs:
        assert outcome(_check_admissible, g7, pair) == outcome(oracle_check_admissible, g7, pair), pair
        assert outcome(classify_ideal, g7, pair) == outcome(oracle_classify_ideal, g7, pair), pair
        if not pair.h | pair.s <= everything:
            kinds["unknown vertex"] += 1
        elif not oracle_is_hereditary(g7, pair.h):
            kinds["not hereditary"] += 1
        elif not oracle_is_saturated(g7, pair.h):
            kinds["not saturated"] += 1
        elif not pair.s <= oracle_breaking_vertices(g7, pair.h):
            kinds["S outside B_H"] += 1
        else:
            kinds["admissible"] += 1
    assert len(kinds) == 5, kinds
    for h in subsets:
        # an edge out of H where the heredity oracle finds one, and the first
        # regular non-member with every edge in, where the saturation oracle sits
        escaping, trapped = oracle_is_hereditary(g7, h).witness, oracle_is_saturated(g7, h).witness
        entry, first_trapped = complement_faults(g7, g7.mask(h))
        assert (entry is None, first_trapped) == (escaping is None, None if trapped is None else g7.index[trapped])


@given(
    seed=seeds,
    generate=st.sampled_from([random_graph, random_condition_k_graph]),
    raw=st.integers(0, (1 << 9) - 1),
)
@settings(max_examples=150, deadline=None)
def test_heredity_from_the_complement_matches_the_member_walk(seed, generate, raw):
    # a random mask, mostly neither hereditary nor saturated, its hereditary
    # hull, and the complement of each: MT1 and MT2 of their complements find
    # a fault exactly where the member walk does
    g = generate(seed, 1 + seed % 9, 0.3)
    mask = raw & g.full_mask
    hull = 0
    for i in range(g.n):
        if mask >> i & 1:
            hull |= g.reach[i]
    for m in (mask, hull, g.full_mask & ~mask, g.full_mask & ~hull):
        complement_faults(g, m)


# -- the quotient route on masks against the named quotient graph ---------------------

# (K) graphs, whose quotients all satisfy (L), and graphs without (K), whose
# quotients may not; a quarter of the random bundles carry OMEGA.
QUOTIENT_GRAPHS = [
    *ORACLE_GRAPHS,
    # a 3-cycle whose one exit leads into H: exitless in the quotient unless
    # the exit is an OMEGA bundle and c stays as a kept breaking vertex
    *(
        pytest.param(
            lambda m=m: parse_graph(f"vertex a, b, c, d; edge a -> b; edge b -> c; edge c -> a; edge c -> d * {m};"),
            id=f"cycle-exit-{m}",
        )
        for m in ("1", "inf")
    ),
    *(
        pytest.param(lambda s=s, d=d: make(s, 1 + s % 8, d), id=f"{make.__name__}-{s}-{d}")
        for make in (random_condition_k_graph, random_graph)
        for d in (0.15, 0.3, 0.5)
        for s in range(12)
    ),
]


def masks(g, pair):
    """The ``(hmask, smask)`` of a named pair."""
    return g.mask(pair.h), g.mask(pair.s)


def quotient_verdict(g, pair):
    """``_quotient_verdict`` on a named pair: its H's frame and its kept breaking vertices."""
    hmask, smask = masks(g, pair)
    return _quotient_verdict(g, _quotient_frame(g, hmask), _breaking_masked(g, hmask) & ~smask)


@pytest.mark.parametrize("build", QUOTIENT_GRAPHS)
def test_quotient_route_matches_the_named_quotient(build):
    g = build()
    for pair in named_pairs(g):
        q = quotient_graph(g, pair)
        named = (oracle_classify_quotient(q), condition_L(q.graph).holds)
        assert quotient_verdict(g, pair) == named, pair


def test_quotient_route_meets_every_verdict_and_both_L_flags():
    # the graphs above reach sink copies (return verdicts) and exitless cycles
    seen = set()
    for make in (random_condition_k_graph, random_graph):
        for s in range(12):
            g = make(s, 1 + s % 8, 0.5)
            for pair in named_pairs(g):
                verdict, has_l = quotient_verdict(g, pair)
                seen.add((verdict.kind, has_l))
    kinds = {kind for kind, _ in seen}
    assert kinds == {IdealKind.PRIMITIVE_TAIL, IdealKind.PRIMITIVE_RETURN, IdealKind.NOT_PRIME}
    assert {has_l for _, has_l in seen} == {True, False}


@pytest.mark.parametrize("build", QUOTIENT_GRAPHS)
def test_one_terminal_component_is_downward_directed(build):
    g = build()
    for pair in named_pairs(g):
        qg = quotient_graph(g, pair).graph
        if qg.vertices:
            named = oracle_downward_directed(qg, qg.vertices) is None
            hmask, smask = masks(g, pair)
            kept = ideals._breaking_masked(g, hmask) & ~smask
            assert _quotient_one_terminal(_quotient_frame(g, hmask), kept) == named, pair


@given(g=multigraphs())
@settings(max_examples=300, deadline=None)
def test_frames_and_breaking_vertices_match_their_per_H_oracles(g):
    # every quotient frame filtered from the one component table against a
    # Tarjan search of its own, and the breaking vertices and finite-return
    # vertices read off masks against the multiplicity sums
    assert _finite_return_mask(g) == oracle_finite_return_mask(g)
    for hmask in saturated_hereditary_sets(g):
        frame, expected = _quotient_frame(g, hmask), oracle_quotient_frame(g, hmask)
        assert sorted(frame.exitless) == sorted(expected.exitless), sorted(g.names(hmask))
        assert frame.terminal == expected.terminal, sorted(g.names(hmask))
        assert frame.common == expected.common, sorted(g.names(hmask))
        assert _breaking_masked(g, hmask) == oracle_breaking_masked(g, hmask), sorted(g.names(hmask))


@given(g=multigraphs())
@settings(max_examples=200, deadline=None)
def test_every_classified_row_matches_both_classifiers(g):
    # each row of the walk against the public classifiers on its named pair,
    # which build their own kept set and frame, and against Condition (L) on
    # the named quotient graph.  Without Condition (K) the classifiers refuse,
    # and the rows match them with that guard lifted.
    rows = list(ideals._walk(g))
    assert [pair for pair, *_ in rows] == ideals.admissible_pairs(g)
    guard = contextlib.nullcontext()
    if not condition_K(g):
        with pytest.raises(ConditionKRequired):
            classify_ideal(g, ideals._named(g, rows[0][0]))
        guard = mock.patch.object(ideals, "_require_condition_k", lambda g: None)
    with guard:
        for pair, direct, quotient, has_l in rows:
            named = ideals._named(g, pair)
            assert classify_ideal(g, named) == direct, named
            assert classify_via_quotient(g, named) == quotient, named
            assert condition_L(quotient_graph(g, named).graph).holds == has_l, named


@given(
    seed=seeds,
    n=st.integers(1, 8),
    density=st.sampled_from([0.15, 0.3, 0.5]),
    omega_prob=st.sampled_from([0.2, 0.5]),
    generate=st.sampled_from([random_graph, random_condition_k_graph]),
)
@settings(max_examples=60, deadline=None)
def test_one_terminal_test_matches_the_terminal_count_random(seed, n, density, omega_prob, generate):
    # every kept subset of B_H of every saturated hereditary H (its pairs keep
    # each subset once), against the count over a frame of its own search
    g = generate(seed, n, density, omega_prob)
    for hmask, smask in ideals.admissible_pairs(g):
        kept = _breaking_masked(g, hmask) & ~smask
        expected = oracle_one_terminal(g, hmask, kept)
        assert _quotient_one_terminal(_quotient_frame(g, hmask), kept) == expected, (hmask, kept)


@pytest.mark.parametrize("build", ORACLE_GRAPHS)
def test_quotient_route_reads_nothing_of_the_direct_route(build, monkeypatch):
    text = emit_gcg(build())
    g, fresh = parse_graph(text), parse_graph(text)
    pairs = named_pairs(g)
    verdicts = [classify_ideal(g, pair) for pair in pairs]

    def forbidden(*args):
        raise AssertionError("the quotient route reads the tails")

    monkeypatch.setattr(ideals, "_mt_holds", forbidden)
    monkeypatch.setattr(tails, "_mt_faults", forbidden)
    monkeypatch.setattr(ideals, "_cluster_masks", forbidden)
    for pair, verdict in zip(pairs, verdicts):
        assert quotient_verdict(fresh, pair)[0] == verdict, pair
    assert not {"reach", "coreach"} & fresh.__dict__.keys()
    assert not [slot for slot in fresh.__dict__ if slot.startswith("_cache:ck_spectra.tails.")]


# -- both routes past the enumeration limit -------------------------------------------

LARGE_SPARSE = CORPUS.parent / "large-sparse"


@pytest.mark.parametrize(
    "name",
    [
        *(f"chain20x{k}-s{s}" for k in (15, 20) for s in (1, 2, 3)),
        *(f"chorded{n}-s{s}" for n in (300, 450) for s in (1, 2, 3)),
        "chorded1500",
    ],
)
def test_routes_agree_past_the_enumeration_limit(name):
    # chains of strongly connected blocks and chorded cycles with a doubled
    # edge: 300 to 1,500 vertices, but 21 or 2 pairs
    g = parse_graph((LARGE_SPARSE / f"{name}.gcg").read_text())
    assert g.n >= 300 and condition_K(g)
    rows = list(ideals._walk(g))
    for pair, direct, quotient, has_l in rows:
        assert (quotient, has_l) == (direct, True), pair
    assert {direct.kind for _, direct, _, _ in rows} == {IdealKind.PRIMITIVE_TAIL, IdealKind.NOT_PRIME}


def test_routes_agree_on_a_200_block_chain(chain200):
    # 200 points, so every pair but the full H is a primitive tail
    rows = list(ideals._walk(chain200))
    assert len(rows) == 201
    for pair, direct, quotient, has_l in rows:
        assert (quotient, has_l) == (direct, True), pair
    assert Counter(direct.kind for _, direct, _, _ in rows) == {
        IdealKind.PRIMITIVE_TAIL: 200,
        IdealKind.NOT_PRIME: 1,
    }


def test_routes_agree_on_random_graphs_beyond_the_oracles():
    # seeded Condition-(K) graphs of 30 to 80 vertices, where the random
    # two-route tests above stop at 9; the 3 of 100 with more than 12 tails
    # are skipped, and the rest have at most 2,596 pairs each
    kinds, checked = Counter(), 0
    for seed in range(100):
        n = 30 + seed % 51
        g = random_condition_k_graph(seed, n, 3 / n)
        if len(tails._cluster_masks(g)) > 12:
            continue
        checked += 1
        for pair, direct, quotient, has_l in ideals._walk(g):
            assert (quotient, has_l) == (direct, True), (seed, pair)
            kinds[direct.kind] += 1
    assert checked == 97 and kinds.keys() == set(IdealKind)
