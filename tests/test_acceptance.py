"""Acceptance suite: one test per criterion, at the stated tolerances.

Every test prints a single ``ACCEPTANCE <id> ... PASS`` line (visible with
``pytest -s``); a failed assertion is the fail line.  Set equalities are
exact; the differential criteria admit zero counterexamples.
"""

import random as _random
import time

import pytest

from ck_spectra import (
    ClusterPoint,
    IdealKind,
    OMEGA,
    check_kuratowski,
    classify_ideal,
    classify_via_quotient,
    clusters,
    condition_K,
    condition_L,
    ea_graph,
    emit_gcg,
    finite_return_vertices,
    graph_closure,
    h_map,
    is_downward_directed,
    maximal_tails,
    meet,
    mt_report,
    parse_graph,
    prim_points,
    prim_space,
    prim_spec_density_check,
    quotient_graph,
    random_condition_k_graph,
    random_graph,
    realize_as_tail,
    running_example,
    separation_report,
    spec_points,
    spec_space,
    tail_of_boundary,
    verify_homeomorphism,
)
from ck_spectra import cli, topology
from ck_spectra.graph_core import CycleClass, _bits
from ck_spectra.ideals import _breaking_masked, saturated_hereditary_sets

from .oracles import named_pairs, phi, px_closure, px_model

f = frozenset


class Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.label}: PASS in {elapsed:.2f}s (budget {self.budget}s)")
            assert elapsed < self.budget, f"{self.label} exceeded {self.budget}s ({elapsed:.2f}s)"
        else:
            print(f"ACCEPTANCE {self.label}: FAIL after {elapsed:.2f}s")
        return False


def test_criterion_1_running_example_regression(fixture):
    with Timer("criterion-1 running-example regression", 1.0):
        g = running_example()
        e = fixture.expected

        assert tuple(maximal_tails(g)) == e.tails
        sat = saturated_hereditary_sets(g)
        for tail, comp, br in zip(e.tails, e.complements, e.breaking):
            assert f(g.vertices) - tail == comp
            assert g.mask(comp) in sat
            assert g.names(_breaking_masked(g, g.mask(comp))) == br
        assert finite_return_vertices(g) == e.finite_return

        verdicts = {p: classify_ideal(g, p) for p in named_pairs(g)}
        primes = {p for p, c in verdicts.items() if c.is_prime}
        assert primes == set(e.prime_pairs)
        assert len(primes) == 5
        ret = verdicts[e.return_pair]
        assert ret.kind is IdealKind.PRIMITIVE_RETURN and ret.v0 == e.return_vertex

        closure = graph_closure(g, [ClusterPoint(e.full_tail)])
        assert len(closure) == 4
        assert {h_map(g, p) for p in closure} == set(e.full_tail_closure)

        sep = separation_report(prim_space(g))
        assert sep.t0 and not sep.hausdorff
        assert prim_points(g) == spec_points(g)


def test_criterion_2_subset_graph_family():
    with Timer("criterion-2 subset-graph family", 5.0):
        grounds = [["a"], ["a", "b"], ["a", "b", "c"]]
        for ground in grounds:
            model = px_model(ground)
            g = ea_graph(model.ground, OMEGA)
            assert condition_K(g) and condition_L(g)
            assert is_downward_directed(g, g.vertices)
            assert set(g.cycle_class) == {CycleClass.ZERO}
            assert finite_return_vertices(g) == f()
            clus = clusters(g)
            assert len(clus) == 2 ** len(ground) - 1
            images = {phi(model, p) for p in model.points}
            assert len(images) == len(model.points) and images == set(clus)

            for mask in range(1 << len(model.points)):
                fam = [p for i, p in enumerate(model.points) if mask >> i & 1]
                lhs = {phi(model, t) for t in px_closure(model, fam)}
                rhs = {
                    p.members
                    for p in graph_closure(g, [ClusterPoint(phi(model, s)) for s in fam])
                }
                assert lhs == rhs, (ground, fam)

        # ground set of four: sampled subsets of the 15 points
        model = px_model(["a", "b", "c", "d"])
        g = ea_graph(model.ground, OMEGA)
        assert finite_return_vertices(g) == f()
        clus = clusters(g)
        assert len(clus) == 15
        images = {phi(model, p) for p in model.points}
        assert images == set(clus)
        rng = _random.Random(20260810)
        masks = {0, (1 << 15) - 1}
        masks.update(1 << i for i in range(15))
        while len(masks) < 1000:
            masks.add(rng.randrange(1 << 15))
        for mask in sorted(masks):
            fam = [p for i, p in enumerate(model.points) if mask >> i & 1]
            lhs = {phi(model, t) for t in px_closure(model, fam)}
            rhs = {p.members for p in graph_closure(g, [ClusterPoint(phi(model, s)) for s in fam])}
            assert lhs == rhs, mask


def _leq_direct(p, q):
    return p.h <= q.h and p.s <= q.h | q.s


def test_criterion_3_differential_suite(monkeypatch):
    with Timer("criterion-3 differential suite (500 graphs)", 60.0):
        densities = (0.2, 0.3, 0.45)
        omegas = (0.1, 0.25, 0.4)
        checked_pairs = 0
        for seed in range(500):
            n = seed % 9
            g = random_condition_k_graph(
                seed, n, density=densities[seed % 3], omega_prob=omegas[seed % 5 % 3]
            )
            assert condition_K(g), seed

            # (b) tails = clusters
            tails = maximal_tails(g)
            assert tails == clusters(g), seed

            # (c) realization round-trip for every MT1-MT3 set
            for t in tails:
                path = realize_as_tail(g, t)
                assert tail_of_boundary(g, path) == t, (seed, t)

            pairs = named_pairs(g)
            checked_pairs += len(pairs)
            everything = f(g.vertices)
            for pair in pairs:
                # (a) the two classification routes agree
                assert classify_ideal(g, pair) == classify_via_quotient(g, pair), (
                    seed,
                    pair,
                )
                # (d) complements are unions of maximal tails
                rep = mt_report(g, everything - pair.h)
                assert rep.mt1 and rep.mt2, (seed, pair)
                # (i) condition (K) forces condition (L) on every quotient
                assert condition_L(quotient_graph(g, pair).graph), (seed, pair)

            # (e) finite-return vertices are the breaking vertices of their tails
            fr = finite_return_vertices(g)
            sinks, emitters, _ = g.class_masks
            for i in _bits(sinks | emitters):
                h = g.full_mask & ~g.coreach[i]
                assert (g.vertices[i] in fr) == bool(_breaking_masked(g, h) >> i & 1), (seed, i)

            # (f) kuratowski axioms for both closure operators, on 64 sampled
            # union pairs past 6 points; every graph here has 8 points at most,
            # so the subsets, and the sweep of (g), are exhaustive either way
            with monkeypatch.context() as m:
                m.setattr(topology, "_SAMPLES", 64)
                for side in ("graph", "ideal"):
                    rep = check_kuratowski(spec_space(g, side))
                    assert rep.ok, (seed, side, rep.failures)

            # (g) the homeomorphism, exhaustive up to 12 points
            verify_homeomorphism(g)
            prim_spec_density_check(g)

            # (h) containment agrees with the direct criterion
            if len(pairs) <= 40:
                samples = [(p, q) for p in pairs for q in pairs]
            else:
                rng = _random.Random(seed)
                samples = [
                    (pairs[rng.randrange(len(pairs))], pairs[rng.randrange(len(pairs))])
                    for _ in range(1600)
                ]
            for p, q in samples:
                assert (meet(g, (p, q)) == p) == _leq_direct(p, q), (seed, p, q)

        assert checked_pairs > 500  # the corpus was not degenerate

        # (i) negative controls: non-K graphs must expose a quotient without (L)
        negatives = 0
        for seed in range(200):
            g = random_graph(seed, 4 + seed % 4, density=0.4)
            if condition_K(g):
                continue
            negatives += 1
            pairs = named_pairs(g)
            assert any(
                not condition_L(quotient_graph(g, p).graph) for p in pairs
            ), seed
            if negatives >= 40:
                break
        assert negatives >= 40


def test_criterion_4_prime_not_primitive_stays_out_of_reach():
    with Timer("criterion-4 prime-not-primitive surrogate", 30.0):
        # on every supported instance the spectrum equals the primitive space,
        # and both routes agree on one of the three verdicts, none prime but not primitive
        graphs = [running_example(), ea_graph("abc", OMEGA)]
        graphs += [random_condition_k_graph(seed, 2 + seed % 7) for seed in range(150)]
        for g in graphs:
            assert spec_points(g) == prim_points(g)
            for pair in named_pairs(g):
                verdict = classify_ideal(g, pair)
                assert classify_via_quotient(g, pair) == verdict, pair
                assert verdict.kind in {IdealKind.PRIMITIVE_TAIL, IdealKind.PRIMITIVE_RETURN, IdealKind.NOT_PRIME}, pair


def test_criterion_5_parser_emitter_and_exit_codes(tmp_path, capsys):
    with Timer("criterion-5 parser/emitter round trip", 30.0):
        fixtures = [
            running_example(),
            ea_graph("ab", 1),
            ea_graph("abc", OMEGA),
        ]
        for g in fixtures:
            assert parse_graph(emit_gcg(g)) == g
        for seed in range(100):
            g = random_graph(seed, seed % 9, density=0.5)
            assert parse_graph(emit_gcg(g)) == g

        from ck_spectra import ParseError

        malformed = [
            ("vertex a\nvertex b;", 2, 1),
            ("vertex a; edge a -> b;", 1, 21),
            ("vertex a; edge a -> a * 0;", 1, 25),
            ("vertex a, a;", 1, 11),
        ]
        for src, line, col in malformed:
            with pytest.raises(ParseError) as info:
                parse_graph(src)
            assert (info.value.line, info.value.col) == (line, col), src

        # exit codes through the command surface
        good = tmp_path / "fixture.gcg"
        good.write_text(emit_gcg(running_example()))
        bad = tmp_path / "bad.gcg"
        bad.write_text("vertex a\n")
        loop = tmp_path / "loop.gcg"
        loop.write_text("vertex a; edge a -> a;\n")
        big = tmp_path / "big.gcg"
        big.write_text("vertex " + ", ".join(f"v{i}" for i in range(25)) + ";\n")

        assert cli.main(["check", str(good)]) == 0
        assert cli.main(["verify", str(good)]) == 0
        assert cli.main(["check", str(bad)]) == 2
        assert cli.main(["spec", str(loop)]) == 3
        assert cli.main(["ideals", str(big)]) == 4
        capsys.readouterr()
