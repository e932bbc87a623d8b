"""Maximal tails, clusters, boundary-path realization and finite-return vertices.

A vertex set is tested against the four MT axioms:

  MT1  upward closed under reachability,
  MT2  every regular member has an out-edge back into the set,
  MT3  downward directed with the common vertex inside the set,
  MT4  countable separation property (automatic at this scale).

Nonempty sets satisfying MT1-MT4 are the maximal tails; MT1-MT3 the clusters
of maximal tails; MT1-MT2 the unions of maximal tails.  On finite-vertex
graphs tails and clusters coincide, at most one per vertex: MT3 applied
repeatedly inside a cluster gives a member w that every member reaches, so by
MT1 the cluster is U(w), the set of vertices reaching w.  U(w) passes MT2
exactly when w is singular or on a cycle.  Tails are the clusters, as MT4
always holds.

The axioms are read off two mask tests of ``graph_core``, which the rest of
the package shares: ``_union_faults`` decides MT1 and MT2 (on the complement
of H it is the saturated hereditary test of ``ideals``), and ``_common_bound``
gives the members that every member reaches, which is nonzero exactly when MT3
holds on a nonempty set.  :func:`_mt_holds` joins the two for the direct
classification and :func:`realize_as_tail`, and ``verify`` reads the direct
route's verdicts on the clusters.  Only :func:`mt_report`, which names a
witness for each failing axiom, walks the pairs.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import InvalidPath, NotAMaximalTail
from .graph_core import (
    Bundle,
    Graph,
    _bits,
    _common_bound,
    _finite_edges,
    _undirected_pair,
    _union_faults,
    per_graph,
)


class MtReport(NamedTuple):
    """Per-axiom verdicts for one vertex set, with failure witnesses."""

    mt1: bool
    mt2: bool
    mt3: bool
    mt4: bool
    mt1_witness: Optional[tuple[str, str]] = None  # an edge v -> w into the set, v outside
    mt2_witness: Optional[str] = None  # regular member with no out-edge into the set
    mt3_witness: Optional[tuple[str, str]] = None  # pair with no common bound in the set


def mt_report(g: Graph, members) -> MtReport:
    """Evaluate MT1-MT4 for a vertex set; MT4 holds on every finite vertex set."""
    mt1, mt2, mt3 = _mt_faults(g, g.mask(members))
    v = g.vertices
    return MtReport(
        mt1=mt1 is None,
        mt2=mt2 is None,
        mt3=mt3 is None,
        mt4=True,
        mt1_witness=None if mt1 is None else (v[mt1[0]], v[mt1[1]]),
        mt2_witness=None if mt2 is None else v[mt2],
        mt3_witness=None if mt3 is None else (v[mt3[0]], v[mt3[1]]),
    )


def _mt_faults(g: Graph, mask: int) -> tuple:
    """MT1-MT3 on a vertex mask, each as its first failure in indices or None: an
    edge (v, w) into the mask from v outside; a regular member with no successor
    inside; two members with no common bound inside."""
    return (*_union_faults(g, mask), _undirected_pair(g, mask))


def _mt_holds(g: Graph, mask: int) -> bool:
    """Whether MT1-MT3 hold on a vertex mask, as ``_mt_faults(g, mask) == (None,
    None, None)``: some member is reached from all, unless there is none, and
    MT1 and MT2 hold."""
    return (not mask or _common_bound(g, mask) != 0) and _union_faults(g, mask) == (None, None)


def maximal_tails(g: Graph) -> list[frozenset]:
    """All nonempty sets satisfying MT1-MT4: the clusters, since MT4 holds on
    every finite vertex set, which is its own countable separating subset."""
    return clusters(g)


@per_graph
def clusters(g: Graph) -> list[frozenset]:
    """All nonempty sets satisfying MT1-MT3, as named by :func:`_cluster_masks`."""
    return [g.names(m) for m in _cluster_masks(g)]


@per_graph
def _cluster_masks(g: Graph) -> list[int]:
    """The distinct U(w), w singular or on a cycle, as masks in increasing order."""
    coreach, succ, regular = g.coreach, g.succ_mask, g.class_masks[2]
    return sorted({coreach[w] for w in range(g.n) if not regular >> w & 1 or succ[w] & coreach[w]})


class BoundaryPath(NamedTuple):
    """A finite path ending at a singular vertex, or an eventually periodic one.

    ``prefix`` is walked once from ``base``; a nonempty ``cycle`` is then
    repeated forever.  A length-zero path at a singular vertex has empty
    prefix and cycle.
    """

    base: str
    prefix: tuple[Bundle, ...] = ()
    cycle: tuple[Bundle, ...] = ()

    @property
    def end(self) -> str:
        if self.cycle:
            return self.cycle[-1].dst
        return self.prefix[-1].dst if self.prefix else self.base

    @property
    def vertex_trace(self) -> frozenset:
        seen = {self.base}
        for b in self.prefix + self.cycle:
            seen.add(b.src)
            seen.add(b.dst)
        return frozenset(seen)


def validate_boundary_path(g: Graph, path: BoundaryPath) -> None:
    """Raise InvalidPath unless the path is a boundary path of g."""
    g.require_vertex(path.base)
    at = path.base
    for b in path.prefix + path.cycle:
        if b not in g.out_bundles.get(b.src, ()):
            raise InvalidPath(f"bundle {b} is not part of the graph")
        if b.src != at:
            raise InvalidPath(f"bundle {b} does not continue the path at {at!r}")
        at = b.dst
    if path.cycle:
        if path.cycle[-1].dst != path.cycle[0].src:
            raise InvalidPath("cycle part does not close up")
    else:
        end = path.end
        if g.class_masks[2] >> g.index[end] & 1:
            raise InvalidPath(
                f"finite boundary path must end at a sink or infinite emitter, not {end!r}"
            )


def tail_of_boundary(g: Graph, path: BoundaryPath) -> frozenset:
    """T_alpha: everything that can reach the path's vertex trace."""
    return g.names(_tail_mask(g, path))


def _tail_mask(g: Graph, path: BoundaryPath) -> int:
    """:func:`tail_of_boundary` as a mask."""
    validate_boundary_path(g, path)
    out = 0
    for v in path.vertex_trace:
        out |= g.coreach[g.index[v]]
    return out


def _shortest_route(g: Graph, src: str, dst: str) -> tuple[Bundle, ...]:
    """A shortest bundle walk src -> dst; deterministic via canonical bundle order."""
    if src == dst:
        return ()
    parent: dict[str, Optional[Bundle]] = {src: None}  # the bundle each vertex was found by
    frontier = [src]
    while frontier:
        nxt: list[str] = []
        for u in frontier:
            for b in g.out_bundles[u]:
                if b.dst not in parent:
                    parent[b.dst] = b
                    if b.dst == dst:
                        route = [b]
                        while route[-1].src != src:
                            route.append(parent[route[-1].src])
                        return tuple(reversed(route))
                    nxt.append(b.dst)
        frontier = nxt
    raise InvalidPath(f"no path from {src!r} to {dst!r}")


def realize_as_tail(g: Graph, members) -> BoundaryPath:
    """Produce a boundary path whose tail is exactly the given set.

    Follows the constructive argument behind the MT characterization: on a
    finite set, the countable separating subset is one vertex of the class
    that every member reaches, so walk a shortest route from the first member
    to that class (MT3), then extend through MT2 until the walk hits a
    singular vertex or repeats.
    """
    mask = g.mask(members)
    if mask == 0 or not _mt_holds(g, mask):  # MT4 always holds
        raise NotAMaximalTail(f"{sorted(g.names(mask))} does not satisfy MT1-MT4 or is empty")
    return _realize_mask(g, mask)


def _realize_mask(g: Graph, mask: int) -> BoundaryPath:
    """:func:`realize_as_tail` on a nonempty vertex mask already known to satisfy MT1-MT3."""
    base = g.vertices[next(_bits(mask))]
    # MT1 keeps every vertex of the route to the common bound inside the set
    current = g.vertices[next(_bits(_common_bound(g, mask)))]
    bundles = list(_shortest_route(g, base, current))

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


@per_graph
def finite_return_vertices(g: Graph) -> frozenset:
    """Infinite emitters with finitely many (but at least one) returning edges,
    as named by :func:`_finite_return_mask`."""
    return g.names(_finite_return_mask(g))


@per_graph
def _finite_return_mask(g: Graph) -> int:
    """The finite-return vertices as a mask.

    An edge returns when its target can reach back to the source, that is
    when it runs into U(v).
    """
    emitters, coreach = g.class_masks[1], g.coreach
    return sum(1 << i for i in _bits(emitters) if _finite_edges(g, i, coreach[i]))
