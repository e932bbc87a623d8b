"""Independent reference implementations used only to cross-check the engine.

Everything here deliberately avoids the package's bitmask machinery:
reachability comes from repeated squaring of a numpy boolean matrix, cycle
detection from networkx, and the subset predicates from literal quantifier
evaluation over explicit sets.  The closure oracles are the exception: they
are the frozenset formulas, over vertex names, through
``oracle_breaking_vertices`` and the package's ``meet`` (p lies below q when
``meet(g, (p, q)) == p``), that the point-index mask kernels in
``ck_spectra.topology`` must reproduce.  ``oracle_parse_graph`` is the
character-at-a-time tokenizer and token-object parser that the regex scanner
in ``ck_spectra.gcg`` replaced.  ``oracle_check_admissible``
and ``oracle_classify_ideal`` are the name-based bodies that the mask cores
of ``ck_spectra.ideals`` replaced, with the hereditary, saturated and MT
tests read off explicit sets; ``oracle_sat_her_faults`` is the member walk
that MT1 and MT2 of the complement, ``graph_core._union_faults``, replaced.
``oracle_common_bound`` is the set of members that every member reaches, read
off explicit sets, that the reach fold of ``graph_core._common_bound`` must
reproduce, and ``oracle_realize_mask`` the chain fold over a countable
separating set, the paper's general construction of a boundary path, that one
route to the common bound in ``tails._realize_mask`` replaced.  ``oracle_classify_quotient`` is the quotient
route on the named quotient graph, through ``oracle_chase_condition_L`` and the
package's ``is_downward_directed``, that the quotient's own masks replaced, and
``oracle_quotient_frame`` the Tarjan search per H that a filter over one
per-graph component table replaced.  ``oracle_one_terminal`` is the count of
terminal components after the sink copies that the constant-time test of
``ideals._quotient_one_terminal`` replaced.  ``mult_sum`` and ``oracle_finite_edges``
are the multiplicity sums that the mask test of ``graph_core._finite_edges``
replaced; ``oracle_breaking_masked`` and ``oracle_finite_return_mask`` run
the breaking-vertex and finite-return masks through them.  The
vertex-class, breaking-vertex and finite-return oracles over vertex names
count edges bundle by bundle over ``g.bundles``, as do the multiplicity sums
and the frame search, so no oracle shares an edge table with the code it
checks.  ``oracle_out_edges`` expands each bundle into its parallel edges;
``oracle_expanded_classes`` and ``oracle_condition_L`` read the vertex
classes and Condition (L) off that list.  ``oracle_chase_condition_L`` is
the out-degree-one chase over vertex names that ``graph_core.condition_L``
replaced with one walk per component of the condensation, read off the
cycle classes and the successor masks; it shares no code and no idea with
the quotient route's plain-cycle test.  ``oracle_emit_json`` is the
``json.dumps`` call that the string-list writer in ``ck_spectra.render``
replaced.  ``oracle_block_union`` is the per-mask join of 8-point block
unions that the bulk fold of ``topology._unions`` replaced.  ``px_model``,
``px_closure`` and ``phi`` model the spectrum of the subset graph
``ck_spectra.ea_graph(ground, OMEGA)`` on the nonempty subsets of the ground
set.  ``named_pairs`` is no oracle: it names the package's own enumeration,
``admissible_pairs``, for the tests that take pairs of vertex sets, and
``bundle_chain`` is the graph family that the pair-limit tests share,
``bundle_lists`` the hypothesis strategy of small vertex lists with parallel,
labeled and OMEGA bundles on them, and ``multigraphs`` the graphs it gives.
``oracle_graph_bundles`` is the merge and sort, keyed by vertex names, that
``Graph.__init__`` replaced with one index lookup per bundle end.
``poset_graph`` realizes a finite poset as a Condition (K) graph whose answers
follow from the poset alone: ``posets`` draws small ones, ``grid_poset`` gives
the m x m grid, ``poset_with_returns`` doubles each finite-return point, and
``count_down_sets`` counts the down-sets, the ideals, without the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import NamedTuple, Optional

import networkx as nx
import numpy as np
from hypothesis import strategies as st

from ck_spectra.errors import (
    DuplicateLabel,
    NotSaturatedHereditary,
    ParseError,
    UndeclaredVertex,
    UnknownVertex,
)
from ck_spectra.graph_core import (
    OMEGA,
    Bundle,
    Check,
    CycleClass,
    Graph,
    Mult,
    _bits,
    check_mult,
    has_csp,
    is_downward_directed,
    is_omega,
    strong_components,
    upward_set,
)
from ck_spectra.ideals import (
    AdmissiblePair,
    IdealClass,
    IdealKind,
    QuotientGraph,
    _QuotientFrame,
    _breaking_masked,
    _named,
    admissible_pairs,
    _require_condition_k,
    meet,
)
from ck_spectra.tails import BoundaryPath, _shortest_route
from ck_spectra.topology import ClusterPoint, FRPoint, h_map


def reach_matrix(g: Graph) -> np.ndarray:
    """Reflexive-transitive closure by repeated boolean matrix squaring."""
    n = len(g.vertices)
    m = np.eye(n, dtype=bool)
    for b in g.bundles:
        m[g.index[b.src], g.index[b.dst]] = True
    while True:
        nxt = m @ m
        if (nxt == m).all():
            return m
        m = nxt


def oracle_reaches(g: Graph, u: str, v: str) -> bool:
    m = reach_matrix(g)
    return bool(m[g.index[u], g.index[v]])


def oracle_upward_set(g: Graph, members) -> frozenset:
    m = reach_matrix(g)
    targets = [g.index[s] for s in members]
    return frozenset(
        v for v in g.vertices if any(m[g.index[v], t] for t in targets)
    )


def oracle_cycle_class(g: Graph, v: str) -> CycleClass:
    """Walk enumeration oracle for the simple-cycle count at v.

    Enumerates every first-return walk of length at most |vertices| + 1 as an
    explicit edge sequence, with each bundle expanded into min(mult, 2)
    distinguishable parallel edges.  If the induced subgraph on the vertices
    usable by such walks has a cycle, infinitely many walks exist; otherwise
    every walk is vertex-simple, so the bounded enumeration is complete.
    """
    m = reach_matrix(g)
    iv = g.index[v]

    # vertices (other than v) usable on a first-return walk, by quantifier:
    # reachable from v without crossing v, and reaching v without crossing v
    def avoid_v_reach(src_names, forward: bool) -> set:
        seen = set()
        frontier = [w for w in src_names if w != v]
        while frontier:
            seen.update(frontier)
            nxt = []
            for b in g.bundles:
                a, c = (b.src, b.dst) if forward else (b.dst, b.src)
                if a in seen and c not in seen and c != v:
                    nxt.append(c)
            frontier = nxt
        return seen

    r_out = avoid_v_reach([b.dst for b in g.bundles if b.src == v], True)
    r_in = avoid_v_reach([b.src for b in g.bundles if b.dst == v], False)
    support = r_out & r_in

    induced = nx.MultiDiGraph()
    induced.add_nodes_from(support)
    for b in g.bundles:
        if b.src in support and b.dst in support:
            induced.add_edge(b.src, b.dst)
    try:
        nx.find_cycle(induced)
        has_internal = True
    except nx.NetworkXNoCycle:
        has_internal = False
    if has_internal:
        return CycleClass.TWO_OR_MORE

    # expanded parallel edges: (src, dst, copy-id)
    edges = []
    for b in g.bundles:
        copies = 2 if (is_omega(b.mult) or b.mult >= 2) else 1
        for c in range(copies):
            edges.append((b.src, b.dst, b.label, c))

    bound = len(g.vertices) + 1
    count = 0

    def extend(current: str, length: int):
        nonlocal count
        if count >= 2 or length > bound:
            return
        for e in edges:
            if e[0] != current:
                continue
            if e[1] == v:
                count += 1
                if count >= 2:
                    return
            elif length < bound:
                extend(e[1], length + 1)

    extend(v, 1)
    return CycleClass(min(count, 2))


def oracle_csp_witness(g: Graph, members) -> frozenset:
    """The greedy shrink of a countable-separation witness, over explicit sets.

    Members are dropped one at a time in declaration order while every member
    still reaches some kept member.
    """
    m = reach_matrix(g)
    keep = set(members)
    witness = [v for v in g.vertices if v in keep]
    for v in list(witness):
        trial = [w for w in witness if w != v]
        if all(any(m[g.index[u], g.index[w]] for w in trial) for u in members):
            witness = trial
    return frozenset(witness)


def oracle_downward_directed(g: Graph, members):
    """The first pair in declaration order with no common lower bound among the members, or None."""
    m = reach_matrix(g)
    keep = set(members)
    order = [v for v in g.vertices if v in keep]
    for u, w in combinations(order, 2):
        if not any(m[g.index[u], g.index[c]] and m[g.index[w], g.index[c]] for c in order):
            return (u, w)
    return None


def oracle_common_bound(g: Graph, members) -> frozenset:
    """The members that every member reaches."""
    m = reach_matrix(g)
    keep = set(members)
    return frozenset(c for c in keep if all(m[g.index[u], g.index[c]] for u in keep))


def oracle_mt1(g: Graph, members: frozenset) -> bool:
    m = reach_matrix(g)
    return all(
        g.vertices[i] in members
        for i in range(len(g.vertices))
        for w in members
        if m[i, g.index[w]]
    )


def oracle_mt2(g: Graph, members: frozenset) -> bool:
    for v in members:
        out = [b for b in g.bundles if b.src == v]
        regular = bool(out) and not any(is_omega(b.mult) for b in out)
        if regular and not any(b.dst in members for b in out):
            return False
    return True


def oracle_mt3(g: Graph, members: frozenset) -> bool:
    m = reach_matrix(g)
    for u, w in combinations(sorted(members), 2):
        if not any(
            m[g.index[u], g.index[c]] and m[g.index[w], g.index[c]] for c in members
        ):
            return False
    return True


def oracle_tails(g: Graph) -> set:
    """All nonempty MT1-MT3 sets by literal quantifier evaluation."""
    verts = list(g.vertices)
    out = set()
    for mask in range(1, 1 << len(verts)):
        members = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        if oracle_mt1(g, members) and oracle_mt2(g, members) and oracle_mt3(g, members):
            out.add(members)
    return out


def oracle_realize_mask(g: Graph, mask: int) -> BoundaryPath:
    """A boundary path whose tail is a nonempty MT1-MT3 mask, by the general
    construction: fold a countable separating subset into a descending chain
    inside the set, then extend through MT2 until the walk hits a singular
    vertex or repeats."""
    base = g.vertices[next(_bits(mask))]
    current = base
    bundles: list[Bundle] = []
    for x in _bits(has_csp(g, mask).witness):  # the witness lies inside the set
        # common lower bound of x and the walk head, inside the set (MT3);
        # MT1 keeps every vertex of the connecting route inside the set.
        common = g.reach[x] & g.reach[g.index[current]] & mask
        target = g.vertices[next(_bits(common))]
        bundles.extend(_shortest_route(g, current, target))
        current = target

    regular = g.class_masks[2]
    seen_at = {current: len(bundles)}
    while regular >> g.index[current] & 1:
        step = next(b for b in g.out_bundles[current] if 1 << g.index[b.dst] & mask)
        bundles.append(step)
        current = step.dst
        if current in seen_at:
            cut = seen_at[current]
            return BoundaryPath(base, tuple(bundles[:cut]), tuple(bundles[cut:]))
        seen_at[current] = len(bundles)

    return BoundaryPath(base, tuple(bundles))


def oracle_sat_her(g: Graph) -> set:
    verts = list(g.vertices)
    out = set()
    for mask in range(1 << len(verts)):
        members = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        hereditary = all(b.dst in members for b in g.bundles if b.src in members)
        saturated = True
        for v in verts:
            outs = [b for b in g.bundles if b.src == v]
            total_omega = any(is_omega(b.mult) for b in outs)
            if outs and not total_omega and v not in members:
                if all(b.dst in members for b in outs):
                    saturated = False
                    break
        if hereditary and saturated:
            out.add(members)
    return out


def mult_sum(ms) -> Mult:
    """Saturating sum; OMEGA absorbs."""
    total: Mult = 0
    for m in ms:
        if is_omega(m):
            return OMEGA
        total += m
    return total


def oracle_finite_edges(g: Graph, i: int, into: int) -> bool:
    """The multiplicity sum that ``graph_core._finite_edges`` replaced with
    mask tests: whether vertex i has finitely many, and at least one, edges
    into the mask ``into``, summed bundle by bundle."""
    total = mult_sum(b.mult for b in g.bundles if g.index[b.src] == i and into >> g.index[b.dst] & 1)
    return total != 0 and not is_omega(total)


def oracle_breaking_masked(g: Graph, hmask: int) -> int:
    """``ideals._breaking_masked`` through :func:`oracle_finite_edges`."""
    rest = g.full_mask & ~hmask
    return sum(1 << i for i in range(g.n) if (g.class_masks[1] & rest) >> i & 1 and oracle_finite_edges(g, i, rest))


def oracle_finite_return_mask(g: Graph) -> int:
    """``tails._finite_return_mask`` through :func:`oracle_finite_edges`."""
    return sum(1 << i for i in range(g.n) if g.class_masks[1] >> i & 1 and oracle_finite_edges(g, i, g.coreach[i]))


def _oracle_frame_components(g: Graph, hmask: int) -> tuple[list, list]:
    """One Tarjan run on the complement of H with the parent's edges restricted
    to it: its exitless cycles and its terminal components, each as the mask
    its members reach."""
    rest = g.full_mask & ~hmask
    succ = [m & rest for m in g.succ_mask]
    exitless, terminal = [], []
    for c in strong_components(succ, rest)[0]:
        out = one = 0  # what c reaches; its members with one edge, of multiplicity one
        for i in range(g.n):
            if c >> i & 1:
                out |= succ[i]
                if [b.mult for b in g.bundles if g.index[b.src] == i and rest >> g.index[b.dst] & 1] == [1]:
                    one |= 1 << i
        if not out & ~c:
            terminal.append(out)
            # an exitless cycle leaves no edge out of its component, so it is terminal
            if out and one == c:
                exitless.append(out)
    return exitless, terminal


def oracle_quotient_frame(g: Graph, hmask: int) -> _QuotientFrame:
    """The frame of ``ideals._quotient_frame`` from its own search: the exitless
    cycles, the count of terminal components and the AND of their masks."""
    exitless, terminal = _oracle_frame_components(g, hmask)
    common = g.full_mask & ~hmask
    for out in terminal:
        common &= out
    return _QuotientFrame(exitless, len(terminal), common)


def oracle_one_terminal(g: Graph, hmask: int, kept: int) -> bool:
    """Whether one component of the quotient is terminal, counted over a search
    of its own: each kept vertex's copy, and each terminal component of the
    frame with no edge into a kept vertex."""
    return kept.bit_count() + sum(not out & kept for out in _oracle_frame_components(g, hmask)[1]) == 1


def _oracle_edge_count(g: Graph, src: str, into) -> object:
    """How many edges run from src into the vertex set ``into``, summed bundle
    by bundle: OMEGA when one of them carries OMEGA."""
    mults = [b.mult for b in g.bundles if b.src == src and b.dst in into]
    return OMEGA if any(is_omega(m) for m in mults) else sum(mults)


def _oracle_finitely_many(count) -> bool:
    return not is_omega(count) and count > 0


class VertexClasses(NamedTuple):
    sinks: frozenset
    infinite_emitters: frozenset
    regular: frozenset


def oracle_vertex_classes(g: Graph) -> VertexClasses:
    """Sinks emit no edge, infinite emitters infinitely many, the rest are regular."""
    counts = {v: _oracle_edge_count(g, v, g.vertices) for v in g.vertices}
    return VertexClasses(
        frozenset(v for v, c in counts.items() if c == 0),
        frozenset(v for v, c in counts.items() if is_omega(c)),
        frozenset(v for v, c in counts.items() if _oracle_finitely_many(c)),
    )


def oracle_out_edges(g: Graph) -> dict[str, list[str]]:
    """Every bundle expanded into its parallel edges: each vertex's list of
    targets, one entry per edge.  An OMEGA bundle stands in as
    :func:`oracle_edge_cap` edges: more than one, and more than all the finite
    bundles of g together."""
    cap = oracle_edge_cap(g)
    out: dict[str, list[str]] = {v: [] for v in g.vertices}
    for b in g.bundles:
        out[b.src] += [b.dst] * (cap if is_omega(b.mult) else b.mult)
    return out


def oracle_edge_cap(g: Graph) -> int:
    return 2 + sum(b.mult for b in g.bundles if not is_omega(b.mult))


def oracle_expanded_classes(g: Graph) -> VertexClasses:
    """The vertex classes by out-degree over :func:`oracle_out_edges`: none,
    at least :func:`oracle_edge_cap` (an OMEGA bundle), or anything between."""
    cap, out = oracle_edge_cap(g), oracle_out_edges(g)
    return VertexClasses(
        frozenset(v for v in g.vertices if not out[v]),
        frozenset(v for v in g.vertices if len(out[v]) >= cap),
        frozenset(v for v in g.vertices if 0 < len(out[v]) < cap),
    )


def oracle_exitless(out: dict, cycle) -> bool:
    """Whether the vertex sequence ``cycle`` is a cycle without an exit over the
    edges ``out`` of :func:`oracle_out_edges`: each member's edges are one, to the next member."""
    return all(out[v] == [cycle[(k + 1) % len(cycle)]] for k, v in enumerate(cycle))


def oracle_condition_L(g: Graph) -> bool:
    """Condition (L) over :func:`oracle_out_edges`: no simple cycle that networkx lists is exitless."""
    out = oracle_out_edges(g)
    support = nx.DiGraph((v, w) for v, targets in out.items() for w in targets)
    return not any(oracle_exitless(out, cycle) for cycle in nx.simple_cycles(support))


def oracle_chase_condition_L(g: Graph) -> Check:
    """Condition (L) by the out-degree-one chase that ``graph_core.condition_L``
    replaced, over dicts keyed by vertex names: an exitless cycle is a cycle
    all of whose vertices have total out-multiplicity one.  A vertex's one
    edge is its one bundle, of multiplicity one: two bundles from it, labeled
    parallel ones included, are two edges.  The witness is the vertex
    sequence of an exitless cycle."""
    unit: dict[str, Optional[str]] = {}  # each source's one unit edge's target, None past one edge
    for b in g.bundles:
        unit[b.src] = None if b.src in unit or b.mult != 1 else b.dst
    next_vertex = {v: w for v, w in unit.items() if w is not None}

    cleared: set[str] = set()
    for start in g.vertices:
        if start not in next_vertex or start in cleared:
            continue
        trail: list[str] = []
        pos: dict[str, int] = {}
        v = start
        while v in next_vertex and v not in cleared:
            if v in pos:
                return Check(False, tuple(trail[pos[v]:]))
            pos[v] = len(trail)
            trail.append(v)
            v = next_vertex[v]
        cleared.update(trail)
    return Check(True)


def oracle_breaking_vertices(g: Graph, h) -> frozenset:
    """Infinite emitters outside H with finitely many, but some, edges leaving H."""
    rest = frozenset(g.vertices) - frozenset(h)
    return frozenset(
        v for v in oracle_vertex_classes(g).infinite_emitters
        if v in rest and _oracle_finitely_many(_oracle_edge_count(g, v, rest))
    )


def oracle_finite_return_vertices(g: Graph) -> frozenset:
    """Infinite emitters with finitely many, but some, edges into vertices that reach back."""
    m = reach_matrix(g)
    out = set()
    for v in oracle_vertex_classes(g).infinite_emitters:
        back = [w for w in g.vertices if m[g.index[w], g.index[v]]]
        if _oracle_finitely_many(_oracle_edge_count(g, v, back)):
            out.add(v)
    return frozenset(out)


def oracle_is_hereditary(g: Graph, members) -> Check:
    mask = g.mask(members)
    for b in g.bundles:
        if 1 << g.index[b.src] & mask and not 1 << g.index[b.dst] & mask:
            return Check(False, b)
    return Check(True)


def oracle_is_saturated(g: Graph, members) -> Check:
    mask = g.mask(members)
    regular = oracle_vertex_classes(g).regular
    for v in g.vertices:
        i = g.index[v]
        if v in regular and not mask >> i & 1 and not g.succ_mask[i] & ~mask:
            return Check(False, v)
    return Check(True)


def oracle_sat_her_faults(g: Graph, mask: int) -> tuple:
    """The member walk that MT1 and MT2 of the complement replaced: the first
    member with a successor outside, the first regular non-member with none;
    or None."""
    succ = g.succ_mask
    escapes = (i for i in range(g.n) if mask >> i & 1 and succ[i] & ~mask)
    trapped = (i for i in range(g.n) if g.class_masks[2] >> i & 1 and not mask >> i & 1 and not succ[i] & ~mask)
    return next(escapes, None), next(trapped, None)


def _oracle_require_sat_her(g: Graph, members) -> int:
    mask = g.mask(members)
    h = g.names(mask)
    if not (oracle_is_hereditary(g, h) and oracle_is_saturated(g, h)):
        raise NotSaturatedHereditary(f"{sorted(h)} is not saturated hereditary")
    return mask


def oracle_check_admissible(g: Graph, pair: AdmissiblePair) -> tuple[int, int]:
    hmask = _oracle_require_sat_her(g, pair.h)
    smask = g.mask(pair.s)
    if smask & ~_breaking_masked(g, hmask):
        raise NotSaturatedHereditary(
            f"S = {sorted(pair.s)} is not contained in the breaking vertices of H"
        )
    return hmask, smask


def oracle_classify_ideal(g: Graph, pair: AdmissiblePair) -> IdealClass:
    """The direct classification over vertex names; MT1-MT3 by the literal
    quantifier oracles above (MT4 holds on every finite vertex set)."""
    _require_condition_k(g)
    hmask, smask = oracle_check_admissible(g, pair)
    breakers = _breaking_masked(g, hmask) & ~smask
    kept = tuple(v for i, v in enumerate(g.vertices) if breakers >> i & 1)
    complement = g.names(g.full_mask & ~hmask)

    if not kept:
        # a nonempty complement passing MT1-MT3 is a cluster, and a tail by MT4
        axioms = oracle_mt1(g, complement) and oracle_mt2(g, complement) and oracle_mt3(g, complement)
        if complement and axioms:
            return IdealClass(IdealKind.PRIMITIVE_TAIL)
    elif len(kept) == 1 and complement == upward_set(g, kept):
        return IdealClass(IdealKind.PRIMITIVE_RETURN, v0=kept[0])
    return IdealClass(IdealKind.NOT_PRIME)


def oracle_classify_quotient(q: QuotientGraph) -> IdealClass:
    """The quotient route on the named quotient graph: Condition (L) by
    :func:`oracle_chase_condition_L` and downward directedness by the
    package's pair scan."""
    qg = q.graph
    if not qg.vertices:
        return IdealClass(IdealKind.NOT_PRIME)
    if not (oracle_chase_condition_L(qg).holds and is_downward_directed(qg, qg.vertices).holds):
        return IdealClass(IdealKind.NOT_PRIME)
    if len(q.primed) == 1:
        (v0,) = q.primed
        return IdealClass(IdealKind.PRIMITIVE_RETURN, v0=v0)
    return IdealClass(IdealKind.PRIMITIVE_TAIL)


@cache
def vertex_set(g: Graph, p) -> frozenset:
    """The vertices a point carries: its cluster, or the tail U(v) of a return vertex."""
    return p.members if isinstance(p, ClusterPoint) else upward_set(g, [p.vertex])


@cache
def _essential(g: Graph, p) -> frozenset:
    """Members of the point's set that do not break out of its complement (plus v for FR)."""
    w = vertex_set(g, p)
    out = w - oracle_breaking_vertices(g, frozenset(g.vertices) - w)
    return out | {p.vertex} if isinstance(p, FRPoint) else out


def oracle_graph_closure(g: Graph, points, ambient) -> frozenset:
    """Graph-side closure over vertex names: p is in it iff V(X) covers W_p and
    no vertex breaking out of the complement of V(X) is essential for both."""
    covered = frozenset().union(*(vertex_set(g, p) for p in points))
    stray = oracle_breaking_vertices(g, frozenset(g.vertices) - covered)
    stray -= frozenset().union(*(_essential(g, p) for p in points))
    return frozenset(
        p for p in ambient if vertex_set(g, p) <= covered and not stray & _essential(g, p)
    )


def oracle_ideal_closure(g: Graph, ambient, points) -> frozenset:
    """Ideal-side closure through the public lattice operations on pairs."""
    bottom = meet(g, [h_map(g, p) for p in points])
    return frozenset(p for p in ambient if meet(g, (bottom, h_map(g, p))) == bottom)


def oracle_block_union(blocks, m: int) -> int:
    """The union of an index mask through ``topology._unions``' 8-point block
    tables, one mask at a time: each nonempty 8-bit block of ``m``, lowest
    first, joins its block table's entry."""
    key = 0
    while m:
        j = (m & -m).bit_length() - 1 >> 3
        key, m = key | blocks[j][m >> 8 * j & 255], m & ~(255 << 8 * j)
    return key


def oracle_separation(points, closure) -> tuple:
    """(t0, t1, hausdorff, specialization) by the pairwise definitions over the
    singleton closures; minimal open neighborhoods are {q : p in closure({q})}."""
    cl = {p: closure(frozenset([p])) for p in points}
    min_open = {p: frozenset(q for q in points if p in cl[q]) for p in points}
    distinct = [(p, q) for p in points for q in points if p != q]
    return (
        all(not (q in cl[p] and p in cl[q]) for p, q in distinct),
        all(cl[p] == {p} for p in points),
        all(min_open[p].isdisjoint(min_open[q]) for p, q in distinct),
        tuple((p, q) for p in points for q in points if q in cl[p]),
    )


# -- the spectrum of the subset graph ---------------------------------------------


class PXModel(NamedTuple):
    """Nonempty subsets of a ground set with finite-subset-containment closure."""

    ground: tuple
    points: tuple  # the nonempty subsets of ``ground``


def _subsets(t) -> list[frozenset]:
    """Every subset of ``t``, in the order of the bitmasks over its sorted elements."""
    elems = sorted(t)
    return [frozenset(e for i, e in enumerate(elems) if m >> i & 1) for m in range(1 << len(elems))]


def px_model(ground) -> PXModel:
    elems = tuple(sorted(set(ground)))
    return PXModel(elems, tuple(s for s in _subsets(elems) if s))


def px_closure(model: PXModel, family) -> frozenset:
    """Points all of whose finite subsets fit inside some member of the family.

    The quantifier is evaluated literally over every subset (all subsets are
    finite here); the collapse to plain containment is a lemma the tests
    check, not something this code assumes.
    """
    fam = [frozenset(s) for s in family]
    for s in fam:
        if s not in model.points:
            raise ValueError(f"{sorted(s)} is not a point of the model")
    return frozenset(t for t in model.points if all(any(a <= s for s in fam) for a in _subsets(t)))


def phi(model: PXModel, point) -> frozenset:
    """The cluster represented by a point: the subset-graph vertices of its nonempty subsets."""
    point = frozenset(point)
    if point not in model.points:
        raise ValueError(f"{sorted(point)} is not a point of the model")
    return frozenset("v_" + "_".join(sorted(a)) for a in _subsets(point) if a)


# -- the package's enumeration, named -------------------------------------------


def named_pairs(g: Graph) -> list[AdmissiblePair]:
    """Every admissible pair of ``admissible_pairs``, in its order, as vertex sets."""
    return [_named(g, pair) for pair in admissible_pairs(g)]


def bundle_chain(k: int) -> Graph:
    """A chain v0 -> ... -> v{k-1} -> w with a double loop at w and an OMEGA
    bundle from each v_i to a sink h: H = {h} has the k chain vertices as its
    breaking vertices, and so 2^k pairs."""
    chain = [f"v{i}" for i in range(k)] + ["w"]
    bundles = [Bundle(a, b, 1) for a, b in zip(chain, chain[1:])] + [Bundle("w", "w", 2)]
    return Graph([*chain, "h"], bundles + [Bundle(v, "h", OMEGA) for v in chain[:-1]])


@st.composite
def bundle_lists(draw) -> tuple[list[str], list[Bundle]]:
    """Up to 7 vertex names and 20 bundles on them, loops included, of
    multiplicity 1, 2 or OMEGA; a labeled bundle may run beside another
    between the same pair, and unlabeled ones repeat a pair."""
    n = draw(st.integers(1, 7))
    names = [f"v{i}" for i in range(n)]
    ends, mults = st.integers(0, n - 1), st.sampled_from([1, 1, 2, OMEGA])
    drawn = draw(st.lists(st.tuples(ends, ends, mults, st.booleans()), max_size=20))
    return names, [Bundle(names[a], names[b], m, f"e{k}" if labeled else None)
                   for k, (a, b, m, labeled) in enumerate(drawn)]


def multigraphs():
    """The graphs of ``bundle_lists``."""
    return bundle_lists().map(lambda drawn: Graph(*drawn))


def poset_graph(points, covers, sinks=(), finite_return=()) -> Graph:
    """The Condition (K) graph of a finite poset given by its cover pairs (y, x),
    y covered by x: one vertex per point with a loop of multiplicity 2, and one
    edge x -> y per cover pair, so that reachability is the order and the
    maximal tails are the up-sets of the points.  A minimal point in ``sinks``
    has no loop.  A point in ``finite_return``, which must cover some point,
    sends its downward edges with multiplicity OMEGA: an infinite emitter whose
    two loop edges alone return, so a finite-return vertex."""
    upper = {x for _, x in covers}
    assert not upper & set(sinks) and set(finite_return) <= upper
    bundles = [Bundle(x, x, 2) for x in points if x not in sinks]
    bundles += [Bundle(x, y, OMEGA if x in finite_return else 1) for y, x in covers]
    return Graph(list(points), bundles)


def grid_poset(m: int) -> tuple[list[str], list[tuple[str, str]]]:
    """The points and cover pairs of the product of two m-chains."""
    points = [f"g{i}_{j}" for i in range(m) for j in range(m)]
    covers = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(m - 1) for j in range(m)]
    covers += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(m) for j in range(m - 1)]
    return points, covers


def poset_with_returns(points, covers, finite_return) -> tuple[list[str], list[tuple[str, str]]]:
    """The poset with each finite-return point x doubled into a chain x < x+:
    x keeps what lies below it, and x+ lies below what covered x."""
    fr = set(finite_return)
    doubled = [(x + "+" if x in fr else x, z) for x, z in covers] + [(x, x + "+") for x in points if x in fr]
    return list(points) + [x + "+" for x in points if x in fr], doubled


def count_down_sets(points, covers) -> int:
    """The number of down-sets of the poset with these cover pairs (y, x), y
    below x, split on one point x at a time: the down-sets without x are those
    of the rest less everything above x, those with x those less everything
    below x."""
    order = nx.transitive_closure(nx.DiGraph(covers))
    up = {x: {x, *(order.successors(x) if x in order else ())} for x in points}
    down = {x: {x, *(order.predecessors(x) if x in order else ())} for x in points}

    @cache
    def count(rest: frozenset) -> int:
        if not rest:
            return 1
        x = min(rest)
        return count(rest - up[x]) + count(rest - down[x])

    return count(frozenset(points))


@st.composite
def posets(draw, k_max: int = 7) -> tuple[list[str], list[tuple[str, str]], set, set]:
    """Up to ``k_max`` points p0, p1, ... as (points, covers, sinks, finite_return):
    the order is the transitive closure of drawn pairs pi < pj with i < j, and
    each point may be drawn a sink, if minimal, or finite-return, if it covers
    some point."""
    k = draw(st.integers(1, k_max))
    points = [f"p{i}" for i in range(k)]
    drawn = nx.DiGraph()
    drawn.add_nodes_from(points)
    drawn.add_edges_from((points[i], points[j]) for i, j in combinations(range(k), 2) if draw(st.booleans()))
    covers = sorted(nx.transitive_reduction(drawn).edges)
    upper = {x for _, x in covers}
    sinks = {x for x in points if x not in upper and draw(st.booleans())}
    finite_return = {x for x in points if x in upper and draw(st.booleans())}
    return points, covers, sinks, finite_return


def oracle_edge_tables(vertices, bundles) -> tuple:
    """``n``, ``full_mask``, ``succ_mask``, ``pred_mask`` and ``omega_succ`` of a
    graph on these vertices with these (already merged) bundles, each mask read
    off the bundles by vertex name: bit i stands for the i-th vertex."""
    verts = list(vertices)

    def mask(names) -> int:
        return sum(1 << verts.index(v) for v in set(names))

    succ = [mask(b.dst for b in bundles if b.src == v) for v in verts]
    pred = [mask(b.src for b in bundles if b.dst == v) for v in verts]
    omega = [mask(b.dst for b in bundles if b.src == v and is_omega(b.mult)) for v in verts]
    return len(verts), mask(verts), succ, pred, omega


def oracle_graph_bundles(vertices, bundles) -> tuple[Bundle, ...]:
    """The bundles of ``Graph(vertices, bundles)``, merged in a dict keyed by
    vertex names and sorted with a key function per bundle; it raises what
    ``Graph`` raises, for the first fault in the same order."""
    verts = tuple(vertices)
    if len(set(verts)) != len(verts):
        raise ValueError("vertex identifiers must be distinct")
    index = {v: i for i, v in enumerate(verts)}
    unlabeled: dict[tuple[str, str], Bundle] = {}
    labeled: list[Bundle] = []
    seen_labels: set[str] = set()
    for b in bundles:
        if b.src not in index:
            raise UnknownVertex(f"unknown source vertex {b.src!r}")
        if b.dst not in index:
            raise UnknownVertex(f"unknown target vertex {b.dst!r}")
        check_mult(b.mult)
        if b.label is None:
            key = (b.src, b.dst)
            prev = unlabeled.get(key)
            unlabeled[key] = b if prev is None else Bundle(b.src, b.dst, prev.mult + b.mult)
        else:
            if not b.label:
                raise ValueError("bundle label must not be empty")
            if b.label in seen_labels:
                raise ValueError(f"duplicate bundle label {b.label!r}")
            seen_labels.add(b.label)
            labeled.append(b)
    order = lambda b: (index[b.src], index[b.dst], b.label is not None, b.label or "")
    return tuple(sorted([*unlabeled.values(), *labeled], key=order))


# -- the .gcg parser -----------------------------------------------------------

_KEYWORDS = {"vertex", "edge", "inf"}


@dataclass(frozen=True)
class _OracleTok:
    kind: str  # ident | nat | punct | eof
    text: str
    line: int
    col: int


def _oracle_tokenize(src: str) -> list[_OracleTok]:
    toks: list[_OracleTok] = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(src) and src[i] != "\n":
                i += 1
                col += 1
            continue
        if ch == "-" and src[i : i + 2] == "->":
            toks.append(_OracleTok("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in ",;:*":
            toks.append(_OracleTok("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            toks.append(_OracleTok("nat", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_OracleTok("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(line, col, f"unexpected character {ch!r}")
    toks.append(_OracleTok("eof", "", line, col))
    return toks


class _OracleParser:
    def __init__(self, src: str):
        self.toks = _oracle_tokenize(src)
        self.pos = 0
        self.vertices: list[str] = []
        self.declared: set[str] = set()
        self.labels: set[str] = set()
        self.bundles: list[Bundle] = []

    def peek(self) -> _OracleTok:
        return self.toks[self.pos]

    def take(self) -> _OracleTok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, text: str) -> _OracleTok:
        tok = self.take()
        if tok.kind != "punct" or tok.text != text:
            raise ParseError(tok.line, tok.col, f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return tok

    def expect_name(self) -> _OracleTok:
        tok = self.take()
        if tok.kind != "ident":
            raise ParseError(tok.line, tok.col, f"expected a name, found {tok.text or 'end of input'!r}")
        if tok.text in _KEYWORDS:
            raise ParseError(tok.line, tok.col, f"{tok.text!r} is a reserved word")
        return tok

    def parse(self) -> Graph:
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind == "ident" and tok.text == "vertex":
                self.take()
                self.vertex_stmt()
            elif tok.kind == "ident" and tok.text == "edge":
                self.take()
                self.edge_stmt()
            else:
                raise ParseError(tok.line, tok.col, f"expected 'vertex' or 'edge', found {tok.text!r}")
        return Graph(self.vertices, self.bundles)

    def vertex_stmt(self) -> None:
        while True:
            tok = self.expect_name()
            if tok.text in self.declared:
                raise ParseError(tok.line, tok.col, f"vertex {tok.text!r} already declared")
            self.declared.add(tok.text)
            self.vertices.append(tok.text)
            nxt = self.take()
            if nxt.kind == "punct" and nxt.text == ",":
                continue
            if nxt.kind == "punct" and nxt.text == ";":
                return
            raise ParseError(nxt.line, nxt.col, f"expected ',' or ';', found {nxt.text or 'end of input'!r}")

    def vertex_ref(self) -> str:
        tok = self.expect_name()
        if tok.text not in self.declared:
            raise UndeclaredVertex(tok.line, tok.col, f"vertex {tok.text!r} used before declaration")
        return tok.text

    def edge_stmt(self) -> None:
        label = None
        first = self.expect_name()
        if self.peek().kind == "punct" and self.peek().text == ":":
            self.take()
            if first.text in self.labels:
                raise DuplicateLabel(first.line, first.col, f"label {first.text!r} already used")
            self.labels.add(first.text)
            label = first.text
            src = self.vertex_ref()
        else:
            if first.text not in self.declared:
                raise UndeclaredVertex(first.line, first.col, f"vertex {first.text!r} used before declaration")
            src = first.text
        self.expect_punct("->")
        dst = self.vertex_ref()
        mult = 1
        tok = self.take()
        if tok.kind == "punct" and tok.text == "*":
            mtok = self.take()
            if mtok.kind == "ident" and mtok.text == "inf":
                mult = OMEGA
            elif mtok.kind == "nat":
                mult = int(mtok.text)
                if mult < 1:
                    raise ParseError(mtok.line, mtok.col, "multiplicity must be at least 1")
            else:
                raise ParseError(mtok.line, mtok.col, f"expected a count or 'inf', found {mtok.text or 'end of input'!r}")
            tok = self.take()
        if not (tok.kind == "punct" and tok.text == ";"):
            raise ParseError(tok.line, tok.col, f"expected ';', found {tok.text or 'end of input'!r}")
        self.bundles.append(Bundle(src, dst, mult, label))


def oracle_parse_graph(src: str) -> Graph:
    """The reference parse: same graph, or the same error class, position and
    message, except that a count ``int()`` rejects raises ``ValueError``."""
    return _OracleParser(src).parse()


def oracle_emit_json(payload) -> str:
    """The reference JSON text: the stdlib encoder, indented by two spaces."""
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
