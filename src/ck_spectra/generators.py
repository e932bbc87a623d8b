"""Reference graphs and seeded random graph generation.

``running_example`` is the seven-vertex workhorse used throughout the tests,
which record its tails, breaking vertices, finite-return vertex and prime
ideals.  ``ea_graph`` builds the subset graph on a small ground set, whose
vertices are the nonempty subsets with one bundle for each strict inclusion;
with OMEGA bundles every non-terminal vertex is an infinite emitter, which is
the finite stand-in for the genuinely uncountable version of that
construction.  ``tests/oracles.py`` models its spectrum on the subsets of the
ground set.
"""

from __future__ import annotations

import random
from typing import Iterable

from .errors import SizeLimitExceeded
from .graph_core import (
    OMEGA,
    Bundle,
    CycleClass,
    Graph,
    Mult,
    _bits,
    check_mult,
)


def running_example() -> Graph:
    """Seven vertices, three infinite emitters, one finite-return vertex.

    The two loops d and e at z keep Condition (K); x keeps a single return
    bundle to u (labeled g) besides its loop f, so its return count is
    exactly two.
    """
    return Graph(
        "tuvwxyz",
        [
            Bundle("u", "t"),
            Bundle("u", "v", OMEGA),
            Bundle("v", "x"),
            Bundle("w", "x"),
            Bundle("w", "y", OMEGA),
            Bundle("x", "y", OMEGA),
            Bundle("x", "z"),
            Bundle("x", "t"),
            Bundle("x", "u", label="g"),
            Bundle("x", "x", label="f"),
            Bundle("y", "z"),
            Bundle("z", "z", label="d"),
            Bundle("z", "z", label="e"),
        ],
    )


# -- subset graphs -------------------------------------------------------------


def _subset_name(members: Iterable[str]) -> str:
    return "v_" + "_".join(sorted(members))


def _all_subsets(t: Iterable[str]):
    elems = sorted(t)
    for m in range(1 << len(elems)):
        yield frozenset(elems[i] for i in _bits(m))


def ea_graph(ground, mult: Mult = 1) -> Graph:
    """Subset graph on a ground set: nonempty subsets, bundles along strict inclusion.

    With ``mult=1`` this is an honest finite graph with a single maximal
    tail; with ``mult=OMEGA`` every non-terminal vertex becomes an infinite
    emitter.  The ground set is capped at four elements, which keeps the
    2**k - 1 vertices under the default vertex cap of the ideal enumeration.
    """
    elems = sorted(set(ground))
    if len(elems) > 4:
        raise SizeLimitExceeded(f"ground set of {len(elems)} elements is above the cap of 4")
    check_mult(mult)
    subsets = [s for s in _all_subsets(elems) if s]
    names = [_subset_name(s) for s in subsets]
    if len(set(names)) != len(names) or not all(n.isidentifier() for n in names):
        raise ValueError("ground-set elements produce colliding or invalid vertex names")
    bundles = [
        Bundle(_subset_name(a), _subset_name(b), mult)
        for a in subsets
        for b in subsets
        if a < b
    ]
    return Graph(names, bundles)


# -- seeded random graphs --------------------------------------------------------


def _repair_condition_k(g: Graph) -> Graph:
    """Double one bundle of every plain cycle, so that Condition (K) holds.

    A vertex is the source of exactly one simple cycle iff its strongly
    connected component is a plain cycle of multiplicity-one bundles.  For
    each such component the bundle leaving its lowest vertex inside the
    component gets a parallel edge, which lifts every vertex on the cycle to
    at least two.  Reachability, and with it every other component, is left
    as it was.
    """
    masks, comp = g.condensation
    lowest = {(m & -m).bit_length() - 1 for m in masks}
    bump = {
        b
        for b in g.bundles
        if (i := g.index[b.src]) in lowest
        and g.cycle_class[i] is CycleClass.ONE
        and comp[g.index[b.dst]] == comp[i]
    }
    if not bump:
        return g
    bumped = (Bundle(b.src, b.dst, b.mult + 1, b.label) if b in bump else b for b in g.bundles)
    return Graph(g.vertices, bumped)


def random_graph(
    seed: int,
    n: int,
    density: float = 0.3,
    omega_prob: float = 0.25,
) -> Graph:
    """Seeded random graph; may or may not satisfy Condition (K)."""
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(n))
    bundles = []
    for u in vertices:
        for w in vertices:
            if rng.random() < density:
                mult = OMEGA if rng.random() < omega_prob else rng.choice((1, 1, 1, 2))
                bundles.append(Bundle(u, w, mult))
    return Graph(vertices, bundles)


def random_condition_k_graph(
    seed: int,
    n: int,
    density: float = 0.3,
    omega_prob: float = 0.25,
) -> Graph:
    """Seeded random graph repaired to satisfy Condition (K) by ``_repair_condition_k``."""
    return _repair_condition_k(random_graph(seed, n, density, omega_prob))
