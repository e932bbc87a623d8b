"""Saturated hereditary sets, admissible pairs and the ideal classification.

An admissible pair (H, S) - a saturated hereditary vertex set H plus a set S
of its breaking vertices - names a gauge-invariant ideal of the graph
algebra.  Under Condition (K) these are all the ideals, the lattice meet is
given by an explicit intersection formula, and each ideal is classified as
primitive, prime-but-not-primitive, or not prime in two independent ways:

* :func:`classify_ideal` reads the answer off the complement of H directly
  (tail / cluster membership and the kept breaking vertices), and
* :func:`classify_via_quotient` tests the quotient graph for primeness
  (Condition (L) plus downward directedness) from the parent's bundles and
  breaking vertices alone.  The complement of H is condensed once per H, as
  a frame shared by all its pairs; each pair's sink copies are sinks, so
  they join no cycle and are added as a few mask tests on that frame.

The two must agree everywhere; the test suite uses that as its main oracle.
Past the (K) check, the quotient route reads no reachability or tails.

Breaking vertices are counted by *edges*: the saturating multiplicity sum of
the bundles escaping H must be finite and nonzero.  Counting target vertices
instead would disagree exactly where an OMEGA bundle leaves H.

Inside, a pair is ``(hmask, smask)``: enumeration, admissibility, breaking
vertices and both verdicts work on vertex bitmasks, and a named pair from
outside is validated once.  Names appear only at the boundary:
:class:`AdmissiblePair`, ``IdealClass.v0`` and the named quotient graph of
:func:`quotient_graph`, which the ``quotient`` command and rendering use.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Optional

from .errors import ConditionKRequired, NotSaturatedHereditary
from .graph_core import (
    Bundle,
    Graph,
    _bits,
    _finite_edges,
    condition_K,
    per_graph,
    strong_components,
)
from .tails import _cluster_masks, _mt_faults


class AdmissiblePair(NamedTuple):
    """(H, S): saturated hereditary H together with kept breaking vertices S."""

    h: frozenset
    s: frozenset


def _named(g: Graph, pair: tuple[int, int]) -> AdmissiblePair:
    return AdmissiblePair(g.names(pair[0]), g.names(pair[1]))


class IdealKind(enum.Enum):
    PRIMITIVE_TAIL = "primitive-tail"
    PRIMITIVE_RETURN = "primitive-return"
    PRIME_NOT_PRIMITIVE = "prime-not-primitive"
    NOT_PRIME = "not-prime"


class IdealClass(NamedTuple):
    """Classification verdict; PRIMITIVE_RETURN carries the return vertex."""

    kind: IdealKind
    v0: Optional[str] = None

    @property
    def is_prime(self) -> bool:
        return self.kind is not IdealKind.NOT_PRIME

    @property
    def is_primitive(self) -> bool:
        return self.kind in (IdealKind.PRIMITIVE_TAIL, IdealKind.PRIMITIVE_RETURN)

    def describe(self) -> str:
        if self.kind is IdealKind.PRIMITIVE_TAIL:
            return "primitive (maximal-tail complement)"
        if self.kind is IdealKind.PRIMITIVE_RETURN:
            return f"primitive (finite-return vertex {self.v0})"
        if self.kind is IdealKind.PRIME_NOT_PRIMITIVE:
            return "prime, not primitive"
        return "not prime"


# -- saturated hereditary sets ------------------------------------------------


def _sat_her_faults(g: Graph, mask: int) -> tuple:
    """The first member with a successor outside, the first regular non-member with none; or None."""
    succ = g.succ_mask
    escapes = (i for i in _bits(mask) if succ[i] & ~mask)
    trapped = (i for i in _bits(g.class_masks[2] & ~mask) if not succ[i] & ~mask)
    return next(escapes, None), next(trapped, None)


@per_graph
def saturated_hereditary_sets(g: Graph) -> list[int]:
    """Masks of the complements of the unions of tails, in increasing order.

    H is saturated hereditary exactly when its complement C satisfies MT1 and
    MT2.  Every union of tails does; conversely, following MT2 inside C from
    any member ends at a singular vertex or on a cycle, at some w whose tail
    U(w) holds that member and lies in C by MT1.
    """
    unions = {0}
    for m in _cluster_masks(g):
        unions |= {u | m for u in unions}
    return [g.full_mask ^ u for u in sorted(unions, reverse=True)]


# -- breaking vertices ---------------------------------------------------------


@per_graph
def _breaking_masked(g: Graph, hmask: int) -> int:
    """Mask of infinite emitters with a finite, nonzero edge count escaping hmask."""
    rest = g.full_mask & ~hmask
    return sum(1 << i for i in _bits(g.class_masks[1] & rest) if _finite_edges(g, i, rest))


@per_graph
def _require_sat_her(g: Graph, hmask: int) -> int:
    if _sat_her_faults(g, hmask) != (None, None):
        raise NotSaturatedHereditary(f"{sorted(g.names(hmask))} is not saturated hereditary")
    return hmask


@per_graph
def _check_admissible(g: Graph, pair: AdmissiblePair) -> tuple[int, int]:
    return _check_masks(g, _require_sat_her(g, g.mask(pair.h)), g.mask(pair.s))


def _check_masks(g: Graph, hmask: int, smask: int) -> tuple[int, int]:
    """Raise unless ``(hmask, smask)`` is admissible, naming the offending set."""
    if smask & ~_breaking_masked(g, _require_sat_her(g, hmask)):
        raise NotSaturatedHereditary(
            f"S = {sorted(g.names(smask))} is not contained in the breaking vertices of H"
        )
    return hmask, smask


def admissible_pair(g: Graph, h, s=()) -> AdmissiblePair:
    """Validated constructor."""
    pair = AdmissiblePair(frozenset(h), frozenset(s))
    _check_admissible(g, pair)
    return pair


@per_graph
def admissible_pairs(g: Graph) -> list[tuple[int, int]]:
    """Every pair as ``(hmask, smask)``, admissible by construction: each
    saturated hereditary H with each subset of its breaking vertices."""
    pairs = []
    for hmask in saturated_hereditary_sets(g):
        subsets = [0]
        for i in _bits(_breaking_masked(g, hmask)):
            subsets += [smask | 1 << i for smask in subsets]
        pairs += [(hmask, smask) for smask in subsets]
    return pairs


# -- lattice operations --------------------------------------------------------


def meet(g: Graph, pairs: Iterable[AdmissiblePair]) -> AdmissiblePair:
    """Intersection of ideals through the admissible-pair formula.

    H is the intersection of the members' H parts and S collects the common
    breaking material cut back down to B_H.  The empty family yields the
    whole-algebra pair (all vertices, no breaking vertices).
    """
    hmask, smask = _meet_masks(g, (_check_admissible(g, p) for p in pairs))
    return AdmissiblePair(g.names(hmask), g.names(smask))


def _meet_masks(g: Graph, pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """:func:`meet` on ``(hmask, smask)`` pairs that are already validated."""
    hmask = keep = g.full_mask
    for ph, ps in pairs:
        hmask &= ph
        keep &= ph | ps
    return hmask, keep & _breaking_masked(g, hmask)


def ideal_leq(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Containment of the ideals of two admissible ``(hmask, smask)`` pairs.

    (H, S) lies below (H', S') iff H is in H' and S in H' | S'.  This is
    ``_meet_masks(g, (p, q)) == p``: given H in H', the meet keeps of S
    exactly what lies in H' | S', as S is inside B_H, which misses H.
    """
    return not p[0] & ~q[0] and not p[1] & ~(q[0] | q[1])


# -- quotient graphs -----------------------------------------------------------


class QuotientGraph(NamedTuple):
    """The graph realizing the quotient by the ideal of an admissible pair.

    ``primed`` maps every kept breaking vertex (B_H minus S) to the name of
    its sink copy inside ``graph``; ``provenance`` maps every quotient bundle
    back to the source-graph bundle it came from.
    """

    graph: Graph
    primed: dict
    provenance: dict


def _fresh_name(base: str, taken: set) -> str:
    name = base
    while name in taken:
        name += "_"
    taken.add(name)
    return name


def quotient_graph(g: Graph, pair: AdmissiblePair) -> QuotientGraph:
    """Remove H, then re-attach a sink copy v' for every kept breaking vertex.

    Bundles whose target survives are kept verbatim; every bundle into a kept
    breaking vertex v is duplicated toward the sink copy v'.
    """
    hmask, smask = _check_admissible(g, pair)

    taken = set(g.vertices)
    kept = [g.vertices[i] for i in _bits(_breaking_masked(g, hmask) & ~smask)]
    primed = {v: _fresh_name(f"{v}_prime", taken) for v in kept}
    vertices = [v for i, v in enumerate(g.vertices) if not hmask >> i & 1]
    vertices += primed.values()

    labels = {b.label for b in g.bundles if b.label} if primed else set()
    provenance: dict[Bundle, Bundle] = {}
    for b in g.bundles:
        if hmask >> g.index[b.dst] & 1:
            continue
        provenance[b] = b
        if b.dst in primed:
            label = None
            if b.label is not None:
                label = _fresh_name(f"{b.label}_prime", labels)
            provenance[Bundle(b.src, primed[b.dst], b.mult, label)] = b

    return QuotientGraph(Graph(vertices, provenance), primed, provenance)


# -- classification ------------------------------------------------------------


def _classify_from_structure(
    kept_breakers: tuple,
    complement_is_tail: bool,
    complement_is_cluster: bool,
    complement_is_return_tail: bool,
) -> IdealClass:
    """Decision table shared by the direct route; inputs are plain booleans.

    With the full breaking set kept out of S the verdict depends on whether
    the complement is a maximal tail (primitive), merely a cluster (prime but
    not primitive; impossible on finite-vertex graphs but part of the
    contract), or neither.  Exactly one kept breaking vertex is primitive
    precisely when the complement is that vertex's tail; two or more kept
    breaking vertices always fail (the quotient would hold two sinks).
    """
    if not kept_breakers:
        if complement_is_tail:
            return IdealClass(IdealKind.PRIMITIVE_TAIL)
        if complement_is_cluster:
            return IdealClass(IdealKind.PRIME_NOT_PRIMITIVE)
        return IdealClass(IdealKind.NOT_PRIME)
    if len(kept_breakers) == 1 and complement_is_return_tail:
        return IdealClass(IdealKind.PRIMITIVE_RETURN, v0=kept_breakers[0])
    return IdealClass(IdealKind.NOT_PRIME)


def _require_condition_k(g: Graph) -> None:
    if not condition_K(g):
        raise ConditionKRequired("classification requires Condition (K)")


def classify_ideal(g: Graph, pair: AdmissiblePair) -> IdealClass:
    """Classify the ideal of (H, S) from the complement of H: see :func:`_direct_verdict`."""
    _require_condition_k(g)
    return _direct_verdict(g, *_check_admissible(g, pair))


@per_graph
def _direct_verdict(g: Graph, hmask: int, smask: int) -> IdealClass:
    """:func:`classify_ideal` on masks: MT1-MT3 are evaluated on the complement
    (MT4 holds on every finite vertex set) rather than looked up."""
    kept = _breaking_masked(g, hmask) & ~smask
    complement = g.full_mask & ~hmask

    is_tail = is_cluster = is_return_tail = False
    if not kept:
        is_cluster = is_tail = complement != 0 and _mt_faults(g, complement) == (None, None, None)
    elif not kept & (kept - 1):
        is_return_tail = complement == g.coreach[kept.bit_length() - 1]
    kept_names = tuple(g.vertices[i] for i in _bits(kept))
    return _classify_from_structure(kept_names, is_tail, is_cluster, is_return_tail)


def classify_via_quotient(g: Graph, pair: AdmissiblePair) -> IdealClass:
    """Classify through the quotient graph, tested for primeness on its masks.

    The quotient algebra is prime iff the quotient graph satisfies Condition
    (L) and is downward directed.  Primitivity additionally needs the
    countable separation property, which every finite vertex set has, so a
    prime quotient is primitive.  The empty quotient (H is everything) is the
    zero algebra and counts as not prime.
    """
    _require_condition_k(g)
    return _quotient_verdict(g, *_check_admissible(g, pair))[0]


class _QuotientFrame(NamedTuple):
    """The quotient of (H, S) less its sink copies, which join no cycle: the
    complement of H, with the parent's edges restricted to it, condensed."""

    exitless: list  # each exitless cycle, as its members' single unit-edge successors
    terminal: list  # each terminal component, as the mask its members reach


@per_graph
def _quotient_frame(g: Graph, hmask: int) -> _QuotientFrame:
    """The frame of every quotient with this H, from the parent's bundles alone."""
    rest, mult = g.full_mask & ~hmask, g.edge_mult
    succ = [m & rest for m in g.succ_mask]
    exitless, terminal = [], []
    for c in strong_components(succ, rest)[0]:
        out = one = 0  # what c reaches; its members with one edge, of multiplicity one
        left = c  # bits walked inline, as in strong_components
        while left:
            bit = left & -left
            left ^= bit
            i = bit.bit_length() - 1
            out |= succ[i]
            if succ[i] and not succ[i] & succ[i] - 1 and mult[i][succ[i].bit_length() - 1] == 1:
                one |= bit
        if not out & ~c:
            terminal.append(out)
            # an exitless cycle leaves no edge out of its component, so it is terminal
            if out and one == c:
                exitless.append(out)
    return _QuotientFrame(exitless, terminal)


def _quotient_has_L(frame: _QuotientFrame, kept: int) -> bool:
    """Condition (L) on the quotient: every cycle has an exit.  A member of an
    exitless cycle whose one edge runs to a kept vertex also has an edge to
    that vertex's copy, which is an exit."""
    return all(succ & kept for succ in frame.exitless)


def _quotient_one_terminal(frame: _QuotientFrame, kept: int) -> bool:
    """Downward directedness of the quotient.

    In a finite digraph every vertex reaches a terminal component, so every
    two vertices reach a common vertex iff exactly one component is terminal.
    Each copy is a terminal singleton, and a component with an edge into a
    kept vertex reaches its copy, so it is no longer terminal.
    """
    return kept.bit_count() + sum(not out & kept for out in frame.terminal) == 1


def _quotient_verdict(g: Graph, hmask: int, smask: int) -> tuple[IdealClass, bool]:
    """The verdict of :func:`classify_via_quotient` on an admissible pair, and
    whether the quotient satisfies Condition (L): the frame of H with the sink
    copies of the kept breaking vertices, B_H minus S, added."""
    frame, kept = _quotient_frame(g, hmask), _breaking_masked(g, hmask) & ~smask
    has_l = _quotient_has_L(frame, kept)
    if not (has_l and _quotient_one_terminal(frame, kept)):
        return IdealClass(IdealKind.NOT_PRIME), has_l
    if kept:  # one terminal component leaves room for one copy at most
        return IdealClass(IdealKind.PRIMITIVE_RETURN, v0=g.vertices[kept.bit_length() - 1]), has_l
    return IdealClass(IdealKind.PRIMITIVE_TAIL), has_l
