import random
from typing import NamedTuple

import pytest

from ck_spectra import AdmissiblePair, Bundle, Graph, OMEGA, ea_graph, running_example


class RunningExampleFacts(NamedTuple):
    """Expected values for the running example, aligned by index."""

    tails: tuple  # maximal tails in canonical enumeration order
    complements: tuple  # matching saturated hereditary complements
    breaking: tuple  # matching breaking-vertex sets
    finite_return: frozenset
    prime_pairs: tuple  # every prime (= primitive) ideal
    return_vertex: str
    return_pair: AdmissiblePair  # the prime pair that keeps the return vertex
    full_tail: frozenset  # the tail avoiding only the sink
    full_tail_closure: frozenset  # pairs in the closure of that tail's point
    notes: tuple = ()


class GraphFixture(NamedTuple):
    graph: Graph
    expected: RunningExampleFacts


@pytest.fixture(scope="session")
def fixture():
    """``running_example()`` with the facts known about it in advance."""
    f = frozenset
    facts = RunningExampleFacts(
        tails=(f("w"), f("uvwx"), f("tuvwx"), f("uvwxyz")),
        complements=(f("tuvxyz"), f("tyz"), f("yz"), f("t")),
        breaking=(f(), f("wx"), f("wx"), f()),
        finite_return=f("x"),
        prime_pairs=(
            AdmissiblePair(f("yz"), f("wx")),
            AdmissiblePair(f("tyz"), f("wx")),
            AdmissiblePair(f("tyz"), f("w")),
            AdmissiblePair(f("tuvxyz"), f()),
            AdmissiblePair(f("t"), f()),
        ),
        return_vertex="x",
        return_pair=AdmissiblePair(f("tyz"), f("w")),
        full_tail=f("uvwxyz"),
        full_tail_closure=f(
            {
                AdmissiblePair(f("tyz"), f("wx")),
                AdmissiblePair(f("tuvxyz"), f()),
                AdmissiblePair(f("t"), f()),
                AdmissiblePair(f("tyz"), f("w")),
            }
        ),
        notes=(
            "only x has finitely many returning edges: its loop f and the route "
            "through g; u returns through infinitely many parallels, w not at all",
            "t is the unique sink; every tail either contains it or avoids it "
            "together with y and z",
        ),
    )
    return GraphFixture(running_example(), facts)


@pytest.fixture(scope="session")
def g7(fixture):
    return fixture.graph


@pytest.fixture(scope="session")
def three_chain():
    """bullet <- bullet -> bullet: a union of tails that is not a cluster."""
    return Graph(["a", "b", "c"], [Bundle("b", "a"), Bundle("b", "c")])


@pytest.fixture(scope="session")
def single_loop():
    return Graph(["a"], [Bundle("a", "a")])


@pytest.fixture(scope="session")
def single_sink():
    return Graph(["a"])


@pytest.fixture(scope="session")
def remark_graph():
    """v emits OMEGA to w plus double loops at both ends; {v} is a cluster and v in FR."""
    return Graph(
        ["v", "w"],
        [Bundle("v", "w", OMEGA), Bundle("v", "v", 2), Bundle("w", "w", 2)],
    )


@pytest.fixture(scope="session")
def long_cycle():
    """A plain 1,500-vertex cycle, longer than the default recursion limit."""
    names = [f"v{i}" for i in range(1500)]
    return Graph(names, [Bundle(a, b) for a, b in zip(names, names[1:] + names[:1])])


@pytest.fixture(scope="session")
def ea2_omega():
    return ea_graph(["a", "b"], OMEGA)


@pytest.fixture(scope="session")
def ea3_omega():
    return ea_graph(["a", "b", "c"], OMEGA)


@pytest.fixture(scope="session")
def chain200():
    """200 strongly connected blocks, each a 2-cycle with one doubled edge, and
    each joined to the next at random: ``chain_text(200, 2, 1)`` of
    ``perfbench/make_corpus.py``.  It has 200 points and 201 pairs."""
    rng = random.Random(1)
    blocks = [[f"s{b}_{i}" for i in range(2)] for b in range(200)]
    bundles = []
    for b, (u, v) in enumerate(blocks):
        bundles += [Bundle(u, v, 2), Bundle(v, u)]
        if b + 1 < len(blocks):
            bundles.append(Bundle(rng.choice((u, v)), rng.choice(blocks[b + 1])))
    return Graph([v for block in blocks for v in block], bundles)
