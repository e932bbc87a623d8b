import gc
import inspect
import random
import weakref
from collections import Counter
from functools import cache, reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ck_spectra import (
    AdmissiblePair,
    Bundle,
    ClusterPoint,
    ConditionKRequired,
    FRPoint,
    Graph,
    OMEGA,
    VerificationFailure,
    check_kuratowski,
    classify_ideal,
    clusters,
    ea_graph,
    emit_gcg,
    graph_closure,
    h_map,
    ideal_closure,
    meet,
    parse_graph,
    prim_points,
    prim_space,
    prim_spec_density_check,
    random_condition_k_graph,
    running_example,
    separation_report,
    spec_points,
    spec_space,
    verify_homeomorphism,
)
from ck_spectra import cli, ideals, topology
from ck_spectra.graph_core import is_omega

from .oracles import (
    mult_sum,
    named_pairs,
    oracle_block_union,
    oracle_graph_closure,
    oracle_ideal_closure,
    oracle_separation,
    vertex_set,
)

seeds = st.integers(0, 10_000)
f = frozenset


def cluster(chars) -> ClusterPoint:
    return ClusterPoint(f(chars))


def bulk(mask_closure):
    """A space's bulk closure operator from a closure of one mask."""
    return lambda masks: [mask_closure(m) for m in masks]


def naive_graph_closure(g, points, ambient) -> frozenset:
    """The first cut of the graph-side closure, kept to show why it is wrong.

    Clusters enter when covered by V(X), the union of the vertex sets of the
    points of X; return vertices when they emit infinitely many edges into
    V(X).  It ignores breaking vertices, so it agrees with graph_closure only
    when there are none; in general it is neither extensive nor compatible
    with the ideal side.
    """
    covered = f().union(*(vertex_set(g, p) for p in points))
    out = []
    for p in ambient:
        if isinstance(p, ClusterPoint):
            if p.members <= covered:
                out.append(p)
        elif is_omega(mult_sum(b.mult for b in g.out_bundles[p.vertex] if b.dst in covered)):
            out.append(p)
    return f(out)


# -- points ------------------------------------------------------------------


def test_fixture_points(g7, fixture):
    pts = spec_points(g7)
    assert len(pts) == 5
    assert pts == prim_points(g7)
    assert [p for p in pts if isinstance(p, FRPoint)] == [FRPoint("x")]
    assert {p.members for p in pts if isinstance(p, ClusterPoint)} == set(
        fixture.expected.tails
    )


def test_subset_graph_points(ea3_omega):
    pts = spec_points(ea3_omega)
    assert len(pts) == 7
    assert all(isinstance(p, ClusterPoint) for p in pts)


def test_single_sink_point(single_sink):
    assert spec_points(single_sink) == [cluster("a")]


def test_points_require_condition_k(single_loop):
    with pytest.raises(ConditionKRequired):
        spec_points(single_loop)


def test_points_respect_size_limit(g7):
    from ck_spectra import SizeLimitExceeded

    with pytest.raises(SizeLimitExceeded):
        verify_homeomorphism(g7, limit=3)


def test_cluster_and_return_vertex_are_distinct_points(remark_graph):
    pts = spec_points(remark_graph)
    assert cluster("v") in pts and FRPoint("v") in pts
    assert len(pts) == 3


# -- closures ---------------------------------------------------------------------


def test_closure_of_full_tail_point_has_four_points(g7, fixture):
    x = f([cluster(fixture.expected.full_tail)])
    left = graph_closure(g7, x)
    right = ideal_closure(g7, x)
    assert left == right
    assert len(left) == 4
    assert {h_map(g7, p) for p in left} == set(fixture.expected.full_tail_closure)


def test_closure_of_empty_set_is_empty(g7):
    assert graph_closure(g7, []) == f()
    assert ideal_closure(g7, []) == f()


def test_closure_of_everything_is_everything(g7):
    pts = spec_points(g7)
    assert ideal_closure(g7, pts) == f(pts)
    assert graph_closure(g7, pts) == f(pts)


def test_subset_graph_two_singletons_closure(ea2_omega):
    x = f([cluster(["v_a"]), cluster(["v_b"])])
    assert graph_closure(ea2_omega, x) == x
    assert ideal_closure(ea2_omega, x) == x


def test_closures_are_extensive_on_fixture(g7):
    for p in spec_points(g7):
        x = f([p])
        assert x <= graph_closure(g7, x)
        assert x <= ideal_closure(g7, x)


def test_naive_closure_diverges_at_return_points(g7):
    # the coverage-only formula drops the return point itself and pulls in a
    # cluster whose ideal does not actually contain the intersection
    pts = tuple(spec_points(g7))
    x = f([FRPoint("x")])
    corrected = graph_closure(g7, x)
    naive = naive_graph_closure(g7, x, ambient=pts)
    assert corrected == ideal_closure(g7, x) == f([FRPoint("x"), cluster("uvwx")])
    assert naive == f([cluster("uvwx"), cluster("w")])
    assert not x <= naive


def test_naive_closure_agrees_without_breaking_vertices(ea3_omega):
    pts = tuple(spec_points(ea3_omega))
    for mask in range(1 << len(pts)):
        x = f(p for i, p in enumerate(pts) if mask >> i & 1)
        assert naive_graph_closure(ea3_omega, x, ambient=pts) == graph_closure(ea3_omega, x)


def test_simple_union_formula_on_row_finite_graphs():
    for seed in range(30):
        g = random_condition_k_graph(seed, 5, omega_prob=0.0)
        pts = tuple(spec_points(g))
        clus = clusters(g)
        for mask in range(1 << len(pts)):
            x = [p for i, p in enumerate(pts) if mask >> i & 1]
            covered = f().union(*(vertex_set(g, p) for p in x))
            simple = f(ClusterPoint(c) for c in clus if c <= covered)
            assert graph_closure(g, x) == simple


def test_spec_lists_point_vertices_in_declaration_order(tmp_path, capsys):
    # the fixture declares t, u, v, w, x, y, z
    path = tmp_path / "fixture.gcg"
    path.write_text(emit_gcg(running_example()))
    assert cli.main(["spec", str(path)]) == 0
    assert [line for line in capsys.readouterr().out.splitlines() if " = " in line] == [
        "  T1 = {w}",
        "  T2 = {u, v, w, x}",
        "  T3 = {t, u, v, w, x}",
        "  T4 = {u, v, w, x, y, z}",
        "  FR:x = return vertex x",
    ]


def test_points_outside_the_spectrum_are_rejected(g7):
    # a set of vertices that is no cluster, and a vertex that does not return
    for p in (ClusterPoint(f({"w", "nope"})), FRPoint("w")):
        for call in (graph_closure, ideal_closure):
            with pytest.raises(ValueError, match="points outside the space"):
                call(g7, [cluster("w"), p])
        with pytest.raises(ValueError, match="points outside the space"):
            h_map(g7, p)


# -- the h map ---------------------------------------------------------------------


def test_h_map_fixture_values(g7):
    assert h_map(g7, cluster("w")) == AdmissiblePair(f("tuvxyz"), f())
    assert h_map(g7, FRPoint("x")) == AdmissiblePair(f("tyz"), f("w"))
    assert h_map(g7, cluster("uvwxyz")) == AdmissiblePair(f("t"), f())


def test_h_map_image_is_exactly_the_primes(g7):
    pts = spec_points(g7)
    image = {h_map(g7, p) for p in pts}
    assert len(image) == len(pts)
    primes = {p for p in named_pairs(g7) if classify_ideal(g7, p).is_prime}
    assert image == primes


# -- the homeomorphism -----------------------------------------------------------------


def test_verify_homeomorphism_fixture(g7):
    rep = verify_homeomorphism(g7)
    assert rep.exhaustive
    assert rep.points == 5 and rep.spec_subsets_checked == 32


def test_verify_homeomorphism_subset_graph(ea3_omega):
    rep = verify_homeomorphism(ea3_omega)
    assert rep.points == 7 and rep.spec_subsets_checked == 128


def test_verify_homeomorphism_trivial(single_sink):
    rep = verify_homeomorphism(single_sink)
    assert rep.points == 1 and rep.spec_subsets_checked == 2


def test_verify_homeomorphism_remark_graph(remark_graph):
    assert verify_homeomorphism(remark_graph).points == 3


def test_cached_results_do_not_keep_the_graph_alive():
    g = running_example()
    verify_homeomorphism(g)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_verify_homeomorphism_requires_condition_k(single_loop):
    with pytest.raises(ConditionKRequired):
        verify_homeomorphism(single_loop)


def test_verify_homeomorphism_sampling_path(monkeypatch):
    # the pool is drawn on each call, so it takes the patched sample size
    monkeypatch.setattr(topology, "_SAMPLES", 20)
    rep = verify_homeomorphism(running_example(), exhaustive_limit=2)
    assert not rep.exhaustive
    assert rep.spec_subsets_checked == 20


def test_subset_pool_follows_the_seed():
    # no memo keeps a draw, so the seed alone picks the sampled subsets and union pairs
    pools = lambda seed: (*topology._subset_pool(17, 12, seed), *topology._union_pairs(17, seed))
    first, again, other = map(pools, (3, 3, 4))
    assert first == again
    masks, exhaustive, lefts, rights = first
    assert masks != other[0] and lefts != other[2] and rights != other[3]
    assert not exhaustive and len(masks) == len(lefts) == len(rights) == 256
    # drawn on all 17 points and on no more
    assert all(reduce(int.__or__, draw) == (1 << 17) - 1 for draw in (masks, lefts, rights))


# -- kuratowski axioms -------------------------------------------------------------------


@pytest.mark.parametrize("side", ["graph", "ideal"])
def test_kuratowski_fixture(g7, side):
    for build in (spec_space, prim_space):
        rep = check_kuratowski(build(g7, side))
        assert rep.ok, rep.failures
        assert rep.exhaustive and rep.subsets_checked == 32


def test_spec_space_rejects_an_unknown_side(g7):
    # the side is checked before the graph is read, so a graph without (K) gets the same error
    for g in (g7, parse_graph("vertex a; edge a -> a;")):
        with pytest.raises(ValueError, match="side must be 'graph' or 'ideal', got 'other'"):
            spec_space(g, "other")


@pytest.mark.parametrize("side", ["graph", "ideal"])
def test_kuratowski_subset_graph(ea3_omega, side):
    rep = check_kuratowski(spec_space(ea3_omega, side))
    assert rep.ok and rep.subsets_checked == 128


def test_kuratowski_flags_a_broken_operator(g7):
    from ck_spectra import SpecSpace

    pts = tuple(spec_points(g7))
    broken = SpecSpace(pts, bulk(lambda m: 0), "spec")  # drops everything
    rep = check_kuratowski(broken)
    assert not rep.ok
    assert any(kind == "extensive" for kind, _, _ in rep.failures)


def test_kuratowski_sweeps_many_points_without_recursion():
    from ck_spectra import SpecSpace

    pts = tuple(FRPoint(f"v{i}") for i in range(1500))
    rep = check_kuratowski(SpecSpace(pts, bulk(lambda m: m), "discrete"))
    assert rep.ok and not rep.exhaustive
    assert rep.subsets_checked == 1502  # the empty set, everything and each singleton


def test_kuratowski_flags_a_non_additive_operator_when_sampling():
    from ck_spectra import SpecSpace

    pts = tuple(FRPoint(f"v{i}") for i in range(14))
    everything = (1 << 14) - 1
    # singletons are closed, anything larger closes to everything
    spread = SpecSpace(pts, bulk(lambda m: m if m & (m - 1) == 0 else everything), "spread")
    rep = check_kuratowski(spread)
    assert not rep.ok and not rep.exhaustive
    assert {kind for kind, _, _ in rep.failures} == {"additive"}


FAILING_AXIOMS = [
    # a nonempty closure of the empty set is reported once, as "empty"
    (2, lambda m: m | 1, {"empty"}),
    (3, lambda m: m | (m << 1) & 0b111, {"idempotent"}),
    # singletons are closed, anything larger closes to everything
    (3, lambda m: m if m & (m - 1) == 0 else 0b111, {"additive", "union"}),
    # on 4 points the 10 additive failures alone would fill the report
    (4, lambda m: m if m & (m - 1) == 0 else 0b1111, {"additive", "union"}),
    # drops everything
    (5, lambda m: 0, {"extensive"}),
]


@pytest.mark.parametrize("n, mask_closure, kinds", FAILING_AXIOMS[:4], ids=["empty", "idempotent", "union", "union-4"])
def test_kuratowski_names_each_failing_axiom(n, mask_closure, kinds):
    from ck_spectra import SpecSpace

    pts = tuple(FRPoint(f"v{i}") for i in range(n))
    rep = check_kuratowski(SpecSpace(pts, bulk(mask_closure), "synthetic"))
    assert not rep.ok and rep.exhaustive
    assert {kind for kind, _, _ in rep.failures} == kinds
    assert len(rep.failures) <= 8


@pytest.mark.parametrize("n, mask_closure, kinds", FAILING_AXIOMS, ids=["empty", "idempotent", "union", "union-4", "drop-all"])
def test_kuratowski_names_the_same_failures_on_a_sampled_pool(n, mask_closure, kinds, monkeypatch):
    from ck_spectra import SpecSpace

    pts = tuple(FRPoint(f"v{i}") for i in range(n))
    space = SpecSpace(pts, bulk(mask_closure), "synthetic")
    exhaustive = check_kuratowski(space)
    monkeypatch.setattr(topology, "_SAMPLES", 3 + n)
    sampled = check_kuratowski(space, 1)
    assert exhaustive.exhaustive and not sampled.exhaustive and not sampled.ok
    assert {kind for kind, _, _ in exhaustive.failures} == {kind for kind, _, _ in sampled.failures} == kinds


def test_kuratowski_report_keeps_the_first_failure_first():
    from ck_spectra import SpecSpace

    pts = tuple(FRPoint(f"v{i}") for i in range(4))
    spread = SpecSpace(pts, bulk(lambda m: m if m & (m - 1) == 0 else 0b1111), "spread")
    rep = check_kuratowski(spread)
    # verify reports failures[0]: the sweep's first failure, at {v0, v1}
    assert rep.failures[0] == ("additive", f(pts[:2]), None)
    assert len(rep.failures) == 8 and rep.failures[-1][0] == "union"


@pytest.mark.parametrize("side", ["graph", "ideal"])
def test_kuratowski_reports_the_same_failures_without_a_memo(g7, side):
    # check_kuratowski keeps no memo of its own: a planted closure that
    # recomputes every answer gets the report of its memoised copy
    from ck_spectra import SpecSpace

    pts, kernel = tuple(spec_points(g7)), spec_space(g7, side).closures
    asked = Counter()

    def planted(m):
        asked[m] += 1
        (c,) = kernel([m])
        return c & c - 1 if m.bit_count() == 2 else c  # a pair's closure loses its lowest point

    bare = check_kuratowski(SpecSpace(pts, bulk(planted), "spec"))
    assert max(asked.values()) > 1  # some subsets were asked for again
    memoised = check_kuratowski(SpecSpace(pts, bulk(cache(planted)), "spec"))
    assert bare == memoised and not bare.ok
    assert {kind for kind, _, _ in bare.failures} == {"extensive", "idempotent", "additive", "union"}


def test_naive_closure_fails_kuratowski_here(g7):
    from ck_spectra import SpecSpace

    pts = tuple(spec_points(g7))
    index = {p: i for i, p in enumerate(pts)}
    naive = lambda m: topology._mask_of(index, naive_graph_closure(g7, topology._pick(pts, m), ambient=pts))
    space = SpecSpace(pts, bulk(naive), "spec")
    assert not check_kuratowski(space).ok


# -- separation --------------------------------------------------------------------------


def test_fixture_prim_space_is_t0_not_hausdorff(g7, fixture):
    sep = separation_report(prim_space(g7))
    assert sep.t0 and not sep.t1 and not sep.hausdorff
    assert cluster(fixture.expected.full_tail) in sep.non_closed_singletons


def test_edgeless_graph_spectrum_is_discrete():
    g = Graph(["a", "b", "c"])
    sep = separation_report(spec_space(g))
    assert sep.t0 and sep.t1 and sep.hausdorff
    assert not sep.non_closed_singletons


def test_subset_graph_not_t1(ea2_omega):
    sep = separation_report(spec_space(ea2_omega))
    assert sep.t0 and not sep.t1
    top = cluster(["v_a", "v_b", "v_a_b"])
    assert (top, cluster(["v_a"])) in sep.specialization


def test_specialization_matches_singleton_closures(g7):
    space = spec_space(g7)
    sep = separation_report(space)
    for p, q in sep.specialization:
        assert q in graph_closure(g7, [p])


# -- density -----------------------------------------------------------------------------


def test_density_fixture(g7):
    prim_spec_density_check(g7)
    assert len(spec_points(g7)) == 5


def test_density_subset_graph(ea3_omega):
    prim_spec_density_check(ea3_omega)
    assert len(spec_points(ea3_omega)) == 7


def test_density_two_loop_vertex():
    g = Graph(["a"], [Bundle("a", "a", 2)])
    prim_spec_density_check(g)
    assert len(spec_points(g)) == 1


def test_density_failure_raises(monkeypatch, tmp_path, capsys):
    # planted fault: the primitive side loses {t, u, v, w, x}, which lies in
    # the closure of no other point
    real = topology.prim_points
    monkeypatch.setattr(topology, "prim_points", lambda g: [p for p in real(g) if p != cluster("tuvwx")])
    message = "primitive points are not dense"
    for check in (prim_spec_density_check, verify_homeomorphism):
        with pytest.raises(VerificationFailure, match=message):
            check(running_example())

    path = tmp_path / "fixture.gcg"
    path.write_text(emit_gcg(running_example()))
    code = cli.main(["verify", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert message in err
    assert "kuratowski" not in out


LATTICE_RICH = sorted(
    (Path(__file__).parents[1] / "perfbench" / "corpus" / "lattice-rich").glob("*.gcg")
)
KERNEL_GRAPHS = {
    "fixture": lambda: running_example(),
    "ea3_omega": lambda: ea_graph(["a", "b", "c"], OMEGA),
    **{f"lattice-rich/{p.stem}": (lambda p=p: parse_graph(p.read_text())) for p in LATTICE_RICH},
    **{f"random-{seed}": (lambda seed=seed: random_condition_k_graph(seed, 1 + seed % 9)) for seed in range(18)},
}


@pytest.mark.parametrize("name", KERNEL_GRAPHS)
def test_mask_kernels_and_separation_match_oracles(name):
    # every subset up to 12 points; above that, the subsets verify sweeps
    g = KERNEL_GRAPHS[name]()
    pts = tuple(spec_points(g))
    graph_side, ideal_side = topology._graph_kernel(g), topology._ideal_kernel(g)
    masks = topology._subset_pool(len(pts), 12, 0)[0]
    for mask, left, right in zip(masks, graph_side(masks), ideal_side(masks)):
        x = f(p for i, p in enumerate(pts) if mask >> i & 1)
        want = oracle_graph_closure(g, x, pts)
        assert topology._pick(pts, left) == want, (name, x)
        assert topology._pick(pts, right) == oracle_ideal_closure(g, pts, x) == want
    sep = separation_report(topology.SpecSpace(pts, graph_side, "spec"))
    want = oracle_separation(pts, lambda x: oracle_graph_closure(g, x, pts))
    assert (sep.t0, sep.t1, sep.hausdorff, sep.specialization) == want


@pytest.mark.parametrize("path", LATTICE_RICH, ids=lambda p: p.stem)
def test_ideal_kernel_keeps_each_point_whose_pair_contains_the_meet(path):
    # the default pool, which holds every singleton, with containment in the meet
    # decided by ideals.ideal_leq on each point's pair, not by the kernel's complements
    g = parse_graph(path.read_text())
    pts = tuple(spec_points(g))
    pairs = [(g.mask(q.h), g.mask(q.s)) for q in (h_map(g, p) for p in pts)]
    masks = list(topology._subset_pool(len(pts), 12, 0)[0])
    assert all(1 << i in masks for i in range(len(pts)))
    for mask, closure in zip(masks, topology._ideal_kernel(g)(masks)):
        bottom = meet(g, [h_map(g, p) for i, p in enumerate(pts) if mask >> i & 1])
        bottom = (g.mask(bottom.h), g.mask(bottom.s))
        assert closure == sum(1 << i for i, q in enumerate(pairs) if ideals.ideal_leq(bottom, q)), (path.stem, mask)


@pytest.mark.parametrize("size", range(1, 41))
def test_bulk_fold_matches_the_per_mask_block_join(size):
    # tables of 1-5 blocks; lists mixing masks below and beyond the doubling
    # list with 0, the full mask and repeats, before and after ranges grow it.
    # Entry i has bit i of its own, so every bit of a mask shows in its union.
    rng = random.Random(size)
    table = [1 << i | 1 << rng.randrange(size, 2 * size) for i in range(size)]
    unions = topology._unions(table)
    fold = inspect.getclosurevars(unions).nonlocals
    full = (1 << size) - 1
    literal = lambda m: reduce(int.__or__, (t for i, t in enumerate(table) if m >> i & 1), 0)
    for grow in (0, size // 3, min(size, 10)):
        assert unions(range(1 << grow)) == list(map(literal, range(1 << grow))), (size, grow)
        below = [rng.randrange(len(fold["power"])) for _ in range(8)]
        beyond = [rng.getrandbits(size) for _ in range(24)]
        masks = below + beyond + [0, full, full] + below[:3] + beyond[:3]
        rng.shuffle(masks)
        want = [oracle_block_union(fold["blocks"], m) for m in masks]
        assert unions(masks) == want == list(map(literal, masks)), (size, grow)


@given(seed=seeds, rng=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_memoised_kernels_answer_each_query_in_any_order(seed, rng):
    # each kernel keeps the union of every folded mask and the scan of every
    # distinct union: bulk queries of shuffled and repeated masks, mixed with
    # single-mask calls and with power sets given as a range, must each get
    # the closure of their own subset, whatever was folded before
    g = random_condition_k_graph(seed, 1 + seed % 9)
    pts = tuple(spec_points(g))
    kernels = {"graph": topology._graph_kernel(g), "ideal": topology._ideal_kernel(g)}
    oracles = {
        "graph": lambda x: oracle_graph_closure(g, x, pts),
        "ideal": lambda x: oracle_ideal_closure(g, pts, x),
    }
    with pytest.MonkeyPatch.context() as m:
        m.setattr(topology, "_SAMPLES", 64)
        masks = list(topology._subset_pool(len(pts), 7, seed)[0])
    for side, kernel in kernels.items():
        queries = masks * 2
        rng.shuffle(queries)
        batches = []
        while queries:
            cut = rng.randint(1, 8)
            batches += [queries[:cut], [queries[0]], range(1 << rng.randint(0, len(pts)))]
            queries = queries[cut:]
        rng.shuffle(batches)
        for batch in batches:
            for mask, c in zip(batch, kernel(batch)):
                x = topology._pick(pts, mask)
                assert topology._pick(pts, c) == oracles[side](x), (side, sorted(map(str, x)))


def test_kernels_agree_on_a_200_block_chain(chain200):
    # point i is the tail of the first i + 1 blocks, so its closure is the
    # points of the tails inside it: points 0 to i
    n = len(spec_points(chain200))
    assert n == 200
    graph_side, ideal_side = topology._graph_kernel(chain200), topology._ideal_kernel(chain200)
    masks = [0, *(1 << i for i in range(n)), (1 << n) - 1]
    want = [0, *((1 << i + 1) - 1 for i in range(n)), (1 << n) - 1]
    assert graph_side(masks) == ideal_side(masks) == want


def test_lattice_rich_corpus_is_present():
    assert len(LATTICE_RICH) == 18


def test_planted_ideal_kernel_fault_fails_verify(tmp_path, capsys, monkeypatch):
    kernel = topology._ideal_kernel
    monkeypatch.setattr(
        topology, "_ideal_kernel", lambda g: lambda masks: [c & ~1 for c in kernel(g)(masks)]
    )
    path = tmp_path / "fixture.gcg"
    path.write_text(emit_gcg(running_example()))
    assert cli.main(["verify", str(path)]) == 1
    assert "closures disagree" in capsys.readouterr().err


def test_planted_parent_fold_fails_verify(capsys, monkeypatch):
    # the graph side's union of {p1}, the parent of every subset of p1 and
    # points after it, forgets p1: the sweep copies it into all of them
    g = running_example()
    kernel = topology._graph_kernel(g)
    kernel(range(4))  # the unions of the subsets of the first two points
    power = inspect.getclosurevars(inspect.getclosurevars(kernel).nonlocals["unions"]).nonlocals["power"]
    power[2] = power[0]
    monkeypatch.setattr(cli, "_load", lambda path: g)
    assert cli.main(["verify", "fixture.gcg"]) == 1
    assert capsys.readouterr().err == (
        f"verification counterexample: closures disagree on {[str(spec_points(g)[1])]}\n"
    )


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_homeomorphism_random(seed):
    g = random_condition_k_graph(seed, 1 + seed % 7)
    rep = verify_homeomorphism(g)
    assert rep.points >= 0
