import gc
import weakref
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
    UnknownVertex,
    VerificationFailure,
    check_kuratowski,
    classify_ideal,
    clusters,
    ea_graph,
    emit_gcg,
    graph_closure,
    h_map,
    ideal_closure,
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
from ck_spectra import cli, topology
from ck_spectra.graph_core import is_omega, mult_sum

from .oracles import named_pairs, oracle_graph_closure, oracle_ideal_closure, oracle_separation, vertex_set

seeds = st.integers(0, 10_000)
f = frozenset


def cluster(chars) -> ClusterPoint:
    return ClusterPoint(f(chars))


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
    pts = tuple(spec_points(g7))
    x = f([cluster(fixture.expected.full_tail)])
    left = graph_closure(g7, x, ambient=pts)
    right = ideal_closure(g7, pts, x)
    assert left == right
    assert len(left) == 4
    assert {h_map(g7, p) for p in left} == set(fixture.expected.full_tail_closure)


def test_closure_of_empty_set_is_empty(g7):
    pts = tuple(spec_points(g7))
    assert graph_closure(g7, [], ambient=pts) == f()
    assert ideal_closure(g7, pts, []) == f()


def test_closure_of_everything_is_everything(g7):
    pts = tuple(spec_points(g7))
    assert ideal_closure(g7, pts, pts) == f(pts)
    assert graph_closure(g7, pts, ambient=pts) == f(pts)


def test_subset_graph_two_singletons_closure(ea2_omega):
    pts = tuple(spec_points(ea2_omega))
    x = f([cluster(["v_a"]), cluster(["v_b"])])
    assert graph_closure(ea2_omega, x, ambient=pts) == x
    assert ideal_closure(ea2_omega, pts, x) == x


def test_closures_are_extensive_on_fixture(g7):
    pts = tuple(spec_points(g7))
    for p in pts:
        x = f([p])
        assert x <= graph_closure(g7, x, ambient=pts)
        assert x <= ideal_closure(g7, pts, x)


def test_naive_closure_diverges_at_return_points(g7):
    # the coverage-only formula drops the return point itself and pulls in a
    # cluster whose ideal does not actually contain the intersection
    pts = tuple(spec_points(g7))
    x = f([FRPoint("x")])
    corrected = graph_closure(g7, x, ambient=pts)
    naive = naive_graph_closure(g7, x, ambient=pts)
    assert corrected == ideal_closure(g7, pts, x) == f([FRPoint("x"), cluster("uvwx")])
    assert naive == f([cluster("uvwx"), cluster("w")])
    assert not x <= naive


def test_naive_closure_agrees_without_breaking_vertices(ea3_omega):
    pts = tuple(spec_points(ea3_omega))
    for mask in range(1 << len(pts)):
        x = f(p for i, p in enumerate(pts) if mask >> i & 1)
        assert naive_graph_closure(ea3_omega, x, ambient=pts) == graph_closure(
            ea3_omega, x, ambient=pts
        )


def test_simple_union_formula_on_row_finite_graphs():
    for seed in range(30):
        g = random_condition_k_graph(seed, 5, omega_prob=0.0)
        pts = tuple(spec_points(g))
        clus = clusters(g)
        for mask in range(1 << len(pts)):
            x = [p for i, p in enumerate(pts) if mask >> i & 1]
            covered = f().union(*(vertex_set(g, p) for p in x))
            simple = f(ClusterPoint(c) for c in clus if c <= covered)
            assert graph_closure(g, x, ambient=pts) == simple


def test_point_labels_list_vertices_in_declaration_order(g7):
    # the fixture declares t, u, v, w, x, y, z
    assert [p.label(g7) for p in spec_points(g7)] == [
        "{w}",
        "{u, v, w, x}",
        "{t, u, v, w, x}",
        "{u, v, w, x, y, z}",
        "return vertex x",
    ]
    assert cluster("zyxwvu").label(g7) == "{u, v, w, x, y, z}"


def test_cluster_label_rejects_an_unknown_vertex(g7):
    with pytest.raises(UnknownVertex):
        ClusterPoint(f({"w", "nope"})).label(g7)


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


def test_verify_homeomorphism_sampling_path(g7):
    rep = verify_homeomorphism(g7, exhaustive_limit=2, samples=20)
    assert not rep.exhaustive
    assert rep.spec_subsets_checked == 20


# -- kuratowski axioms -------------------------------------------------------------------


@pytest.mark.parametrize("side", ["graph", "ideal"])
def test_kuratowski_fixture(g7, side):
    for build in (spec_space, prim_space):
        rep = check_kuratowski(build(g7, side))
        assert rep.ok, rep.failures
        assert rep.exhaustive and rep.subsets_checked == 32


@pytest.mark.parametrize("side", ["graph", "ideal"])
def test_kuratowski_subset_graph(ea3_omega, side):
    rep = check_kuratowski(spec_space(ea3_omega, side))
    assert rep.ok and rep.subsets_checked == 128


def test_kuratowski_flags_a_broken_operator(g7):
    from ck_spectra import SpecSpace

    pts = tuple(spec_points(g7))
    broken = SpecSpace(pts, lambda m: 0, "graph", "spec")  # drops everything
    rep = check_kuratowski(broken)
    assert not rep.ok
    assert any(kind == "extensive" for kind, _, _ in rep.failures)


def test_kuratowski_sweeps_many_points_without_recursion():
    from ck_spectra import SpecSpace

    pts = tuple(FRPoint(f"v{i}") for i in range(1500))
    rep = check_kuratowski(SpecSpace(pts, lambda m: m, "graph", "discrete"))
    assert rep.ok and not rep.exhaustive
    assert rep.subsets_checked == 1502  # the empty set, everything and each singleton


def test_kuratowski_flags_a_non_additive_operator_when_sampling():
    from ck_spectra import SpecSpace

    pts = tuple(FRPoint(f"v{i}") for i in range(14))
    everything = (1 << 14) - 1
    # singletons are closed, anything larger closes to everything
    spread = SpecSpace(pts, lambda m: m if m & (m - 1) == 0 else everything, "graph", "spread")
    rep = check_kuratowski(spread)
    assert not rep.ok and not rep.exhaustive
    assert {kind for kind, _, _ in rep.failures} == {"additive"}


@pytest.mark.parametrize(
    "n, mask_closure, kinds",
    [
        # a nonempty closure of the empty set is reported once, as "empty"
        (2, lambda m: m | 1, {"empty"}),
        (3, lambda m: m | (m << 1) & 0b111, {"idempotent"}),
        # singletons are closed, anything larger closes to everything
        (3, lambda m: m if m & (m - 1) == 0 else 0b111, {"additive", "union"}),
        # on 4 points the 10 additive failures alone would fill the report
        (4, lambda m: m if m & (m - 1) == 0 else 0b1111, {"additive", "union"}),
    ],
    ids=["empty", "idempotent", "union", "union-4"],
)
def test_kuratowski_names_each_failing_axiom(n, mask_closure, kinds):
    from ck_spectra import SpecSpace

    pts = tuple(FRPoint(f"v{i}") for i in range(n))
    rep = check_kuratowski(SpecSpace(pts, mask_closure, "graph", "synthetic"))
    assert not rep.ok and rep.exhaustive
    assert {kind for kind, _, _ in rep.failures} == kinds
    assert len(rep.failures) <= 8


def test_kuratowski_report_keeps_the_first_failure_first():
    from ck_spectra import SpecSpace

    pts = tuple(FRPoint(f"v{i}") for i in range(4))
    spread = SpecSpace(pts, lambda m: m if m & (m - 1) == 0 else 0b1111, "graph", "spread")
    rep = check_kuratowski(spread)
    # verify reports failures[0]: the sweep's first failure, at {v0, v1}
    assert rep.failures[0] == ("additive", f(pts[:2]), None)
    assert len(rep.failures) == 8 and rep.failures[-1][0] == "union"


def test_naive_closure_fails_kuratowski_here(g7):
    from ck_spectra import SpecSpace

    pts = tuple(spec_points(g7))
    naive = lambda m: topology._mask_of(pts, naive_graph_closure(g7, topology._pick(pts, m), ambient=pts))
    space = SpecSpace(pts, naive, "graph", "spec")
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
        assert q in space.closure([p])


# -- density -----------------------------------------------------------------------------


def test_density_fixture(g7):
    rep = prim_spec_density_check(g7)
    assert rep.spec_point_count == rep.prim_point_count == 5


def test_density_subset_graph(ea3_omega):
    rep = prim_spec_density_check(ea3_omega)
    assert rep.spec_point_count == 7


def test_density_two_loop_vertex():
    g = Graph(["a"], [Bundle("a", "a", 2)])
    rep = prim_spec_density_check(g)
    assert rep.spec_point_count == 1


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


# -- subspace behaviour ---------------------------------------------------------------------


def test_prim_restriction_is_subspace_closure(g7):
    spec_pts = tuple(spec_points(g7))
    prim_pts = tuple(prim_points(g7))
    prim_set = f(prim_pts)
    for mask in range(1 << len(prim_pts)):
        x = f(p for i, p in enumerate(prim_pts) if mask >> i & 1)
        full = graph_closure(g7, x, ambient=spec_pts)
        restricted = graph_closure(g7, x, ambient=prim_pts)
        assert restricted == full & prim_set


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
    for pts in {tuple(spec_points(g)), tuple(prim_points(g))}:
        graph_side = topology._graph_kernel(g, pts)
        ideal_side = topology._ideal_kernel(g, pts)
        for mask in topology._subset_pool(len(pts), 12, 0, 256)[0]:
            x = f(p for i, p in enumerate(pts) if mask >> i & 1)
            want = oracle_graph_closure(g, x, pts)
            assert topology._pick(pts, graph_side(mask)) == want, (name, x)
            assert topology._pick(pts, ideal_side(mask)) == oracle_ideal_closure(g, pts, x) == want
        sep = separation_report(topology.SpecSpace(pts, graph_side, "graph", "spec"))
        want = oracle_separation(pts, lambda x: oracle_graph_closure(g, x, pts))
        assert (sep.t0, sep.t1, sep.hausdorff, sep.specialization) == want


def test_lattice_rich_corpus_is_present():
    assert len(LATTICE_RICH) == 18


def test_planted_ideal_kernel_fault_fails_verify(tmp_path, capsys, monkeypatch):
    kernel = topology._ideal_kernel
    monkeypatch.setattr(
        topology, "_ideal_kernel", lambda g, pts: lambda m: kernel(g, pts)(m) & ~1
    )
    path = tmp_path / "fixture.gcg"
    path.write_text(emit_gcg(running_example()))
    assert cli.main(["verify", str(path)]) == 1
    assert "closures disagree" in capsys.readouterr().err


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_homeomorphism_random(seed):
    g = random_condition_k_graph(seed, 1 + seed % 7)
    rep = verify_homeomorphism(g)
    assert rep.points >= 0
