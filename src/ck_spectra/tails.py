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
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import InvalidPath, NotAMaximalTail
from .graph_core import (
    Bundle,
    Graph,
    _bits,
    _finite_edges,
    _undirected_pair,
    has_csp,
    per_graph,
    upward_set,
)


class MtReport(NamedTuple):
    """Per-axiom verdicts for one vertex set, with failure witnesses."""

    mt1: bool
    mt2: bool
    mt3: bool
    mt4: bool
    mt1_witness: Optional[tuple[str, str]] = None  # (v, w): v >= w in the set, v outside
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
    """MT1-MT3 on a vertex mask, each as its first failure in indices or None: (v, w)
    with v outside reaching w inside; a regular member with no successor inside;
    two members with no common bound inside."""
    coreach, succ = g.coreach, g.succ_mask
    escapes = ((next(_bits(coreach[w] & ~mask)), w) for w in _bits(mask) if coreach[w] & ~mask)
    trapped = (i for i in _bits(mask & g.class_masks[2]) if not succ[i] & mask)
    return next(escapes, None), next(trapped, None), _undirected_pair(g, mask, mask)


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
    def kind(self) -> str:
        return "eventually-periodic" if self.cycle else "finite"

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
        if b not in g.bundles:
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
    validate_boundary_path(g, path)
    return upward_set(g, path.vertex_trace)


def _shortest_route(g: Graph, src: str, dst: str) -> tuple[Bundle, ...]:
    """A shortest bundle walk src -> dst; deterministic via canonical bundle order."""
    if src == dst:
        return ()
    best: dict[str, tuple[Bundle, ...]] = {src: ()}
    frontier = [src]
    while frontier:
        nxt: list[str] = []
        for u in frontier:
            for b in g.out_bundles[u]:
                if b.dst not in best:
                    best[b.dst] = best[u] + (b,)
                    if b.dst == dst:
                        return best[dst]
                    nxt.append(b.dst)
        frontier = nxt
    raise InvalidPath(f"no path from {src!r} to {dst!r}")


def realize_as_tail(g: Graph, members) -> BoundaryPath:
    """Produce a boundary path whose tail is exactly the given set.

    Follows the constructive argument behind the MT characterization: fold a
    countable separating subset into a descending chain inside the set, then
    extend through MT2 until the walk hits a singular vertex or repeats.
    """
    mask = g.mask(members)
    if mask == 0 or _mt_faults(g, mask) != (None, None, None):  # MT4 always holds
        raise NotAMaximalTail(f"{sorted(g.names(mask))} does not satisfy MT1-MT4 or is empty")

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


@per_graph
def finite_return_vertices(g: Graph) -> frozenset:
    """Infinite emitters with finitely many (but at least one) returning edges.

    An edge returns when its target can reach back to the source, that is
    when it runs into U(v).
    """
    emitters, coreach = g.class_masks[1], g.coreach
    return g.names(sum(1 << i for i in _bits(emitters) if _finite_edges(g, i, coreach[i])))
