"""Saturated hereditary sets, admissible pairs and the ideal classification.

An admissible pair (H, S) - a saturated hereditary vertex set H plus a set S
of its breaking vertices - names a gauge-invariant ideal of the graph
algebra.  Under Condition (K) these are all the ideals, the lattice meet is
given by an explicit intersection formula, and each ideal is classified as
primitive or not prime in two independent ways.  A finite vertex set makes
the algebra separable, and there every prime ideal is primitive (Dixmier
1960), so no third verdict arises.  One walk over the pairs, :func:`_walk`,
yields both verdicts of each, H by H, and keeps nothing per H:

* :func:`classify_ideal` reads the answer off the complement of H directly:
  whether it is a maximal tail, and which breaking vertices are kept, and
* :func:`classify_via_quotient` tests the quotient graph for primeness
  (Condition (L) plus downward directedness) from the parent's bundles and
  breaking vertices alone.  One condensation of the parent gives each H's
  frame, shared by all its pairs; each pair's sink copies are sinks, so
  they join no cycle and are added as a few mask tests on that frame.

The two must agree everywhere; the test suite uses that as its main oracle.
Past the (K) check, the quotient route reads no reachability or tails.
``ideals`` lists the walk's rows; ``verify`` keeps only :func:`_verify_record`.
The walk stops once the pairs would number more than a cap, ``--limit``: the
size of the output is capped, not the number of vertices.

Breaking vertices are counted by *edges*: the edges escaping H must be
finitely many and at least one, so no OMEGA bundle may leave H.  Counting
target vertices instead would disagree exactly where an OMEGA bundle leaves H.

Inside, a pair is ``(hmask, smask)``: enumeration, admissibility, breaking
vertices and both verdicts work on vertex bitmasks, and a named pair from
outside is validated once.  Names appear only at the boundary:
:class:`AdmissiblePair`, ``IdealClass.v0`` and the named quotient graph of
:func:`quotient_graph`, which the ``quotient`` command and rendering use.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import NotSaturatedHereditary, SizeLimitExceeded
from .graph_core import (
    Bundle,
    Graph,
    _bits,
    _require_condition_k,
    _union_faults,
    per_graph,
)
from .tails import _cluster_masks, _mt_holds


class AdmissiblePair(NamedTuple):
    """(H, S): saturated hereditary H together with kept breaking vertices S."""

    h: frozenset
    s: frozenset


def _named(g: Graph, pair: tuple[int, int]) -> AdmissiblePair:
    return AdmissiblePair(g.names(pair[0]), g.names(pair[1]))


class IdealKind(enum.Enum):
    PRIMITIVE_TAIL = "primitive-tail"
    PRIMITIVE_RETURN = "primitive-return"
    NOT_PRIME = "not-prime"


class IdealClass(NamedTuple):
    """Classification verdict; PRIMITIVE_RETURN carries the return vertex."""

    kind: IdealKind
    v0: Optional[str] = None

    @property
    def is_prime(self) -> bool:
        return self.kind is not IdealKind.NOT_PRIME

    def describe(self) -> str:
        if self.kind is IdealKind.PRIMITIVE_TAIL:
            return "primitive (maximal-tail complement)"
        if self.kind is IdealKind.PRIMITIVE_RETURN:
            return f"primitive (finite-return vertex {self.v0})"
        return "not prime"


_NOT_PRIME = IdealClass(IdealKind.NOT_PRIME)  # the one verdict shared by every non-prime pair
_TAIL = IdealClass(IdealKind.PRIMITIVE_TAIL)  # and the one shared by every maximal-tail complement


# -- saturated hereditary sets ------------------------------------------------

# The default cap on the admissible pairs an enumeration lists (``--limit``),
# and the most subsets an exhaustive ``verify`` sweep may hold.
DEFAULT_ENUMERATION_LIMIT = 1 << 20


@per_graph
def saturated_hereditary_sets(g: Graph, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[int]:
    """Masks of the complements of the unions of tails, in increasing order.

    H is saturated hereditary exactly when its complement C satisfies MT1 and
    MT2, which ``graph_core._union_faults`` tests when a given H is validated.
    Every union of tails does; conversely, following MT2 inside C from
    any member ends at a singular vertex or on a cycle, at some w whose tail
    U(w) holds that member and lies in C by MT1.

    Raises SizeLimitExceeded once the unions number more than ``limit``, the
    cap on the pairs, as every H has at least one (k disjoint tails have 2^k
    unions); they are added one at a time, so no more are held.
    """
    unions, tails = {0}, _cluster_masks(g)
    for k, m in enumerate(tails, 1):
        for u in list(unions):
            unions.add(u | m)
            if len(unions) > limit:
                raise SizeLimitExceeded(
                    f"the unions of the first {k} of {len(tails)} tails number more than {limit}, "
                    "and so do the saturated hereditary sets"
                )
    return [g.full_mask ^ u for u in sorted(unions, reverse=True)]


# -- breaking vertices ---------------------------------------------------------


def _breaking_masked(g: Graph, hmask: int) -> int:
    """Mask of infinite emitters with a successor outside hmask and no OMEGA bundle into it:
    a finite, nonzero edge count escaping it.  Asked per H and per closure scan, so bits are walked inline."""
    rest, out = g.full_mask & ~hmask, 0
    omega, succ = g.omega_succ, g.succ_mask
    emitters = g.class_masks[1] & rest
    while emitters:
        low = emitters & -emitters
        i = low.bit_length() - 1
        if succ[i] & rest and not omega[i] & rest:
            out |= low
        emitters ^= low
    return out


@per_graph
def _require_sat_her(g: Graph, hmask: int) -> int:
    if _union_faults(g, g.full_mask & ~hmask) != (None, None):  # MT1 and MT2 of the complement
        raise NotSaturatedHereditary(f"{sorted(g.names(hmask))} is not saturated hereditary")
    return hmask


@per_graph
def _check_admissible(g: Graph, pair: AdmissiblePair) -> tuple[int, int]:
    """A named pair as ``(hmask, smask)``; raises unless it is admissible, naming the offending set."""
    hmask, smask = _require_sat_her(g, g.mask(pair.h)), g.mask(pair.s)  # H is rejected before S is read
    if smask & ~_breaking_masked(g, hmask):
        raise NotSaturatedHereditary(f"S = {sorted(g.names(smask))} is not contained in the breaking vertices of H")
    return hmask, smask


def admissible_pair(g: Graph, h, s=()) -> AdmissiblePair:
    """Validated constructor."""
    pair = AdmissiblePair(frozenset(h), frozenset(s))
    _check_admissible(g, pair)
    return pair


def admissible_pairs(g: Graph, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[tuple[int, int]]:
    """Every pair as ``(hmask, smask)``, admissible by construction: the pairs of :func:`_walk`."""
    return [pair for pair, *_ in _walk(g, limit)]


# -- lattice operations --------------------------------------------------------


def meet(g: Graph, pairs: Iterable[AdmissiblePair]) -> AdmissiblePair:
    """Intersection of ideals through the admissible-pair formula.

    H is the intersection of the members' H parts and S collects the common
    breaking material cut back down to B_H.  The empty family yields the
    whole-algebra pair (all vertices, no breaking vertices).
    """
    fold = 0
    for p in pairs:
        fold |= _meet_entry(g, *_check_admissible(g, p))
    return _named(g, _meet_masks(g, fold))


def _meet_entry(g: Graph, hmask: int, smask: int) -> int:
    """A validated pair as one int for the fold of :func:`meet`: the complements of
    H and of H | S side by side, so that a union of entries holds the complements
    of the intersections the meet needs."""
    return g.full_mask & ~hmask | (g.full_mask & ~(hmask | smask)) << g.n


def _meet_masks(g: Graph, fold: int) -> tuple[int, int]:
    """:func:`meet` as ``(hmask, smask)`` from the union of its pairs' entries: H is
    the complement of its low half, validated as saturated hereditary, and S that
    of its high half cut down to B_H, so the pair is admissible."""
    hmask = _require_sat_her(g, g.full_mask & ~fold)
    return hmask, g.full_mask & ~(fold >> g.n) & _breaking_masked(g, hmask)


def ideal_leq(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Containment of the ideals of two admissible ``(hmask, smask)`` pairs.

    (H, S) lies below (H', S') iff H is in H' and S in H' | S'.  This is
    "the meet of p and q is p": given H in H', the fold of the two keeps of S
    exactly what lies in H' | S', and the cut to B_H keeps all of it, as S is
    inside B_H, which misses H.
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
            label = None if b.label is None else _fresh_name(f"{b.label}_prime", labels)
            provenance[Bundle(b.src, primed[b.dst], b.mult, label)] = b

    return QuotientGraph(Graph(vertices, provenance), primed, provenance)


# -- classification ------------------------------------------------------------


def classify_ideal(g: Graph, pair: AdmissiblePair) -> IdealClass:
    """Classify the ideal of (H, S) from the complement of H: see :func:`_direct_verdict`."""
    _require_condition_k(g)
    hmask, smask = _check_admissible(g, pair)
    return _direct_verdict(g, hmask, _breaking_masked(g, hmask) & ~smask)


def _direct_verdict(g: Graph, hmask: int, kept: int) -> IdealClass:
    """:func:`classify_ideal` on H and its kept breaking vertices, B_H minus S, as masks.

    With no kept vertex the ideal is primitive exactly when the complement is
    a maximal tail, decided by :func:`tails._mt_holds` (MT4 holds on every
    finite vertex set).  Exactly one kept breaking vertex is primitive
    precisely when the complement is that vertex's tail; two or more always
    fail (the quotient would hold two sinks).
    """
    complement = g.full_mask & ~hmask
    if not kept:
        if complement and _mt_holds(g, complement):
            return _TAIL
    elif not kept & kept - 1 and complement == g.coreach[kept.bit_length() - 1]:
        return IdealClass(IdealKind.PRIMITIVE_RETURN, v0=g.vertices[kept.bit_length() - 1])
    return _NOT_PRIME


def classify_via_quotient(g: Graph, pair: AdmissiblePair) -> IdealClass:
    """Classify through the quotient graph, tested for primeness on its masks.

    The quotient algebra is prime iff the quotient graph satisfies Condition
    (L) and is downward directed, and then primitive, as every finite vertex
    set has the countable separation property.  The empty quotient (H is
    everything) is the zero algebra and counts as not prime.
    """
    _require_condition_k(g)
    hmask, smask = _check_admissible(g, pair)
    return _quotient_verdict(g, _quotient_frame(g, hmask), _breaking_masked(g, hmask) & ~smask)[0]


class _QuotientFrame(NamedTuple):
    """The quotient of (H, S) less its sink copies, which join no cycle: the
    complement of H, with the parent's edges restricted to it, condensed."""

    exitless: list  # each exitless cycle, as its members' single unit-edge successors
    terminal: int  # how many components are terminal
    common: int  # the AND of the terminal components' out-masks, starting from the complement of H


@per_graph
def _components(g: Graph) -> list[tuple[int, int, bool]]:
    """Each component of ``g.condensation``: its members, what they reach in one step, and
    whether it is a plain cycle, its inside bundles summing to its size as in ``simple_cycle_class``.
    The sum is its own, or ``verify``'s "quotients satisfy condition L" could not fail."""
    succ, index = g.succ_mask, g.index
    masks, comp = g.condensation
    internal = [0] * len(masks)
    for b in g.bundles:
        c = comp[index[b.src]]
        if c == comp[index[b.dst]]:
            internal[c] += b.mult
    table = []
    for c, total in zip(masks, internal):
        out = 0  # what c reaches
        for i in _bits(c):
            out |= succ[i]
        table.append((c, out, total == c.bit_count()))
    return table


def _quotient_frame(g: Graph, hmask: int) -> _QuotientFrame:
    """The frame of every quotient with this H, filtered from :func:`_components`: the
    complement of a hereditary H is a union of the parent's components, and one
    terminal in it keeps all its members' edges left in the quotient inside itself."""
    common = rest = g.full_mask & ~hmask
    exitless, terminal = [], 0
    for c, out, plain in _components(g):
        out &= rest
        if not c & hmask and not out & ~c:
            terminal += 1
            common &= out
            if plain:  # each member's edge inside c is its only one left
                exitless.append(out)
    return _QuotientFrame(exitless, terminal, common)


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
    kept vertex reaches its copy, so it is no longer terminal: the count is
    the kept vertices plus the terminal components with no edge into one.
    The count is 1 in two cases, each read in constant time: no kept vertex
    and one terminal component, or one kept vertex that every terminal
    component has an edge into, that is, one in ``frame.common``.  Two kept
    vertices are two terminal copies already.
    """
    if not kept:
        return frame.terminal == 1
    return not kept & kept - 1 and kept & frame.common != 0


def _quotient_verdict(g: Graph, frame: _QuotientFrame, kept: int) -> tuple[IdealClass, bool]:
    """The verdict of :func:`classify_via_quotient` on an admissible pair, and
    whether the quotient satisfies Condition (L): the frame of H with the sink
    copies of the kept breaking vertices, B_H minus S, added."""
    has_l = _quotient_has_L(frame, kept)
    if not (has_l and _quotient_one_terminal(frame, kept)):
        return _NOT_PRIME, has_l
    if kept:  # one terminal component leaves room for one copy at most
        return IdealClass(IdealKind.PRIMITIVE_RETURN, v0=g.vertices[kept.bit_length() - 1]), has_l
    return _TAIL, has_l


def _walk(
    g: Graph, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> Iterator[tuple[tuple[int, int], IdealClass, IdealClass, bool]]:
    """Each admissible pair, H by H with each subset of B_H, with its direct and quotient
    verdicts and whether its quotient has Condition (L), reading each H's breaking vertices
    and frame once.  Raises SizeLimitExceeded before an H's 2^|B_H| pairs take the total past ``limit``."""
    sets, total = saturated_hereditary_sets(g, limit), 0
    for k, hmask in enumerate(sets, 1):
        breaking = _breaking_masked(g, hmask)
        total += 1 << breaking.bit_count()
        if total > limit:
            raise SizeLimitExceeded(f"the first {k} of {len(sets)} saturated hereditary sets have over {limit} pairs")
        frame, kept_sets = _quotient_frame(g, hmask), [breaking]  # B_H minus S, S from empty up
        for i in _bits(breaking):
            kept_sets += [kept & ~(1 << i) for kept in kept_sets]
        for kept in kept_sets:
            yield (hmask, breaking ^ kept), _direct_verdict(g, hmask, kept), *_quotient_verdict(g, frame, kept)


class _VerifyRecord(NamedTuple):  # what verify keeps of the walk: no row per pair, nothing per H
    prime: set  # the pairs the direct route finds prime
    tails: set  # the complements of H that it finds to be maximal tails
    disagree: Optional[tuple]  # the first pair on which the two routes disagree, or None
    without_l: Optional[tuple]  # the first pair whose quotient fails Condition (L), or None


@per_graph
def _verify_record(g: Graph, limit: int) -> _VerifyRecord:
    """One walk over the pairs, kept as ``verify`` reads it: its prime pairs and first failures."""
    prime, tails, disagree, without_l = set(), set(), None, None
    for pair, direct, quotient, has_l in _walk(g, limit):
        if direct.is_prime:
            prime.add(pair)
            if direct.kind is IdealKind.PRIMITIVE_TAIL:
                tails.add(g.full_mask & ~pair[0])
        if disagree is None and direct != quotient:
            disagree = pair
        if without_l is None and not has_l:
            without_l = pair
    return _VerifyRecord(prime, tails, disagree, without_l)
