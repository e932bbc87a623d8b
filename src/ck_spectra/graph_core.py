"""Directed multigraphs with edge multiplicities in {1, 2, ...} ∪ {ω}.

Edges are stored as *bundles*: a bundle (src, dst, mult, label) stands for
``mult`` parallel edges, where ``mult`` may be ``OMEGA`` for a countably
infinite family.  ``OMEGA`` is the float ``math.inf`` and prints as ``inf``:
it absorbs ``+``, lies above every int and equals only itself, so merged
multiplicities are plain sums.  All structural predicates used elsewhere in the
package (Condition (K), Condition (L), downward directedness, the countable
separation property) live here, together with bitmask reachability and the
one mask test of each MT axiom that the package shares: :func:`_union_faults`
(MT1, MT2) and :func:`_common_bound` (MT3).

The per-vertex edge tables are masks (successors, predecessors, OMEGA
targets), and the vertex classes are read off them.  One walk over the
bundles builds all three on first read; it stays lazy, as ``export`` reads
none of them.  The cycle classes read multiplicities off ``Graph.bundles`` in one
pass; Condition (L) reads the classes and the condensation, and its old chase is a test oracle.

Reachability, the simple-cycle classes behind Condition (K), the MT3
(downward directedness) and MT4 (countable separation) checks, and every
quotient's frame in ``ideals`` all come from one strongly connected
condensation per graph, ``Graph.condensation``, so each costs O(n + m)
big-int operations.  Its search, :func:`strong_components`, works on
successor masks alone.

Vertex subsets are plain ``frozenset`` objects at the API boundary; the
implementation works on integer bitmasks indexed by declaration order, which
is also the canonical order for all deterministic output.  ``Graph.listing``
is the one reader of that order: it lists a mask's vertices, and every
printed or rendered vertex set comes from it.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property, wraps
from itertools import compress
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .errors import ConditionKRequired, UnknownVertex


OMEGA = math.inf

Mult = Union[int, float]


def is_omega(m: Mult) -> bool:
    return m == OMEGA


def check_mult(m: Mult) -> Mult:
    """Validate a multiplicity value: a positive int or OMEGA."""
    if is_omega(m):
        return OMEGA
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError(f"multiplicity must be a positive int or OMEGA, got {m!r}")
    if m < 1:
        raise ValueError(f"multiplicity must be at least 1, got {m}")
    return m


class Bundle(NamedTuple):
    """A family of parallel edges src -> dst with the given multiplicity."""

    src: str
    dst: str
    mult: Mult = 1
    label: Optional[str] = None


class CycleClass(enum.IntEnum):
    """How many simple cycles are based at a vertex, saturated at two."""

    ZERO = 0
    ONE = 1
    TWO_OR_MORE = 2


class Check(NamedTuple):
    """Boolean predicate result carrying a witness: of a failure, or for
    :func:`has_csp` of the property itself."""

    holds: bool
    witness: object = None

    def __bool__(self) -> bool:  # a nonempty tuple would be truthy
        return self.holds


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def strong_components(succ: list[int], vertices: int) -> tuple[list[int], list[int]]:
    """Component masks, sinks first, and comp[i] (-1 off ``vertices``) of the
    digraph on the bits of ``vertices`` whose successor masks are ``succ``.

    Tarjan's algorithm (SIAM J. Comput. 1, 1972), kept on explicit stacks so
    that a cycle longer than the recursion limit is fine.  A component comes
    after every component it reaches.  Bits are walked inline, not with
    ``_bits``: on graphs of thousands of vertices a generator per vertex
    costs more than the search.
    """
    size = vertices.bit_length()
    found = [-1] * size  # discovery time
    low = [0] * size
    comp = [-1] * size
    masks: list[int] = []
    pending: list[int] = []  # discovered, not yet placed in a component
    clock = 0
    for root in range(size):
        if found[root] >= 0 or not vertices >> root & 1:
            continue
        found[root] = low[root] = clock
        clock += 1
        pending.append(root)
        work = [[root, succ[root]]]  # each vertex with its successors still to try
        while work:
            frame = work[-1]
            v, out = frame
            while out:
                bit = out & -out
                out ^= bit
                w = bit.bit_length() - 1
                if found[w] < 0:
                    frame[1] = out
                    found[w] = low[w] = clock
                    clock += 1
                    pending.append(w)
                    work.append([w, succ[w]])
                    break
                if comp[w] < 0 and found[w] < low[v]:
                    low[v] = found[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == found[v]:  # v and everything pending above it
                    members = 0
                    while pending and found[pending[-1]] >= found[v]:
                        members |= 1 << pending[-1]
                        comp[pending.pop()] = len(masks)
                    masks.append(members)
    return masks, comp


class Graph:
    """Immutable finite-vertex graph.

    Vertices are distinct identifier strings in declaration order.  Unlabeled
    bundles between the same ordered vertex pair are merged by saturating
    addition; labeled bundles keep their identity and labels must be unique.
    """

    def __init__(self, vertices: Iterable[str], bundles: Iterable[Bundle] = ()):
        verts = tuple(vertices)
        if len(set(verts)) != len(verts):
            raise ValueError("vertex identifiers must be distinct")
        index = {v: i for i, v in enumerate(verts)}

        # A caller's Bundle stays unless merged; rows sort on a unique (i, j, labeled, label).
        unlabeled: dict[tuple[int, int], Bundle] = {}
        rows: list[tuple] = []
        seen_labels: set[str] = set()
        for b in bundles:
            i = index.get(b.src)
            if i is None:
                raise UnknownVertex(f"unknown source vertex {b.src!r}")
            j = index.get(b.dst)
            if j is None:
                raise UnknownVertex(f"unknown target vertex {b.dst!r}")
            if type(b.mult) is not int or b.mult < 1:  # a plain count needs no check
                check_mult(b.mult)
            if b.label is None:
                key = (i, j)
                prev = unlabeled.get(key)
                unlabeled[key] = b if prev is None else Bundle(b.src, b.dst, prev.mult + b.mult)
            else:
                if not b.label:
                    raise ValueError("bundle label must not be empty")
                if b.label in seen_labels:
                    raise ValueError(f"duplicate bundle label {b.label!r}")
                seen_labels.add(b.label)
                rows.append((i, j, True, b.label, b))
        rows += [(i, j, False, "", b) for (i, j), b in unlabeled.items()]
        rows.sort()
        self.vertices: tuple[str, ...] = verts
        self.bundles: tuple[Bundle, ...] = tuple([row[4] for row in rows])
        self.index: dict[str, int] = index
        self.n: int = len(verts)
        self.full_mask: int = (1 << len(verts)) - 1

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.bundles == other.bundles
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.vertices, self.bundles))

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.bundles)} bundles)"

    # -- bitmask plumbing --------------------------------------------------

    def require_vertex(self, v: str) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def mask(self, names: Iterable[str]) -> int:
        m = 0
        for v in names:
            m |= 1 << self.require_vertex(v)
        return m

    def listing(self, mask: int) -> tuple[str, ...]:
        """The vertices of ``mask`` in declaration order, the canonical output order."""
        # one pass over bin(mask), low bit first: byte i is 1 iff bit i is set
        return tuple(compress(self.vertices, bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))

    def names(self, mask: int) -> frozenset:
        return frozenset(self.listing(mask))

    # -- derived structure -------------------------------------------------

    @cached_property
    def out_bundles(self) -> dict[str, tuple[Bundle, ...]]:
        out: dict[str, list[Bundle]] = {v: [] for v in self.vertices}
        for b in self.bundles:
            out[b.src].append(b)
        return {v: tuple(bs) for v, bs in out.items()}

    @cached_property
    def _edge_tables(self) -> tuple[list[int], list[int], list[int]]:
        """``succ_mask``, ``pred_mask`` and ``omega_succ`` from one walk over the bundles: per vertex, the
        mask of what its bundles run into, of where those into it start, and of what its OMEGA bundles run into."""
        index, succ, pred, omega = self.index, [0] * self.n, [0] * self.n, [0] * self.n
        for b in self.bundles:
            i, j = index[b.src], index[b.dst]
            succ[i] |= 1 << j
            pred[j] |= 1 << i
            if b.mult == OMEGA:
                omega[i] |= 1 << j
        return succ, pred, omega

    succ_mask = cached_property(lambda self: self._edge_tables[0])
    pred_mask = cached_property(lambda self: self._edge_tables[1])
    omega_succ = cached_property(lambda self: self._edge_tables[2])

    @cached_property
    def class_masks(self) -> tuple[int, int, int]:
        """:func:`classify_vertices`, computed once per graph."""
        return classify_vertices(self)

    @cached_property
    def condensation(self) -> tuple[list[int], list[int]]:
        """Strongly connected components, masks sinks first and comp[i]: the graph's one search."""
        return strong_components(self.succ_mask, self.full_mask)

    def _closure(self, step: list[int], order: Iterable[int]) -> list[int]:
        """Per-vertex closure under ``step``; a component's members share one int.

        ``order`` lists each component after every component ``step`` leads to.
        """
        masks, comp = self.condensation
        closed = [0] * len(masks)
        for c in order:
            acc = rest = masks[c]
            out = 0
            while rest:
                bit = rest & -rest
                out |= step[bit.bit_length() - 1]
                rest ^= bit
            out &= ~acc
            while out:
                acc |= closed[comp[(out & -out).bit_length() - 1]]
                out &= ~acc
            closed[c] = acc
        return [closed[c] for c in comp]

    @cached_property
    def reach(self) -> list[int]:
        """reach[i] = mask of vertices reachable from i (reflexive-transitive)."""
        return self._closure(self.succ_mask, range(len(self.condensation[0])))

    @cached_property
    def coreach(self) -> list[int]:
        """coreach[j] = mask of vertices that can reach j."""
        return self._closure(self.pred_mask, reversed(range(len(self.condensation[0]))))

    @cached_property
    def cycle_class(self) -> list[CycleClass]:
        """:func:`simple_cycle_class`, computed once per graph."""
        return simple_cycle_class(self)


def per_graph(fn: Callable) -> Callable:
    """Cache ``fn(g, *args)`` on the graph ``g`` itself.

    The memo maps the argument tuple to the result that ``fn`` computed; it
    is kept in the graph's ``__dict__``, so it dies with the graph and is
    shared by every caller holding it: cached results must not be mutated.
    """
    slot, miss = f"_cache:{fn.__module__}.{fn.__qualname__}", object()

    @wraps(fn)
    def cached(g: Graph, *args):
        memo = g.__dict__.get(slot)
        if memo is None:
            memo = g.__dict__[slot] = {}
        out = memo.get(args, miss)
        if out is miss:
            out = memo[args] = fn(g, *args)
        return out

    return cached


# -- vertex classes and simple cycles ------------------------------------------


def classify_vertices(g: Graph) -> tuple[int, int, int]:
    """The sinks, the infinite emitters and the regular vertices of g, as masks."""
    sinks = emitters = 0
    for i, (out, omega) in enumerate(zip(g.succ_mask, g.omega_succ)):
        if not out:
            sinks |= 1 << i
        elif omega:
            emitters |= 1 << i
    return sinks, emitters, g.full_mask & ~(sinks | emitters)


def simple_cycle_class(g: Graph) -> list[CycleClass]:
    """The simple cycles based at each vertex of g, by index, saturated at two.

    A simple cycle is a first-return walk: it starts and ends at v and does
    not pass through v in between (other vertices may repeat).  Parallel
    edges count as distinct cycles.  Such a walk stays inside the strongly
    connected component C of v, so the saturating sum of the multiplicities
    of the bundles inside C decides the class: 0 gives ZERO; |C| means every
    member has one internal edge of multiplicity one, so C is a plain cycle
    and the class is ONE; anything more is TWO_OR_MORE, because an internal
    edge e off the cycle through v (or a parallel copy of one on it) gives a
    second first-return walk, from v through e and back to v.
    ``tests/oracles.py::oracle_cycle_class`` counts the walks instead.
    """
    masks, comp = g.condensation
    internal: list[Mult] = [0] * len(masks)
    for b in g.bundles:
        c = comp[g.index[b.src]]
        if c == comp[g.index[b.dst]]:
            internal[c] += b.mult
    classes = [
        CycleClass.ZERO
        if total == 0
        else CycleClass.ONE
        if total == members.bit_count()
        else CycleClass.TWO_OR_MORE
        for total, members in zip(internal, masks)
    ]
    return [classes[c] for c in comp]


def _finite_edges(g: Graph, i: int, into: int) -> bool:
    """Whether vertex i has finitely many, and some, edges into ``into``: a successor, no OMEGA bundle."""
    return not g.omega_succ[i] & into and g.succ_mask[i] & into != 0


# -- reachability ------------------------------------------------------------


def upward_set(g: Graph, members: Iterable[str]) -> frozenset:
    """U(S): every vertex that can reach some element of S."""
    m = 0
    for s in members:
        m |= g.coreach[g.require_vertex(s)]
    return g.names(m)


def is_downward_directed(g: Graph, members: Iterable[str]) -> Check:
    """Whether every two members share a vertex both can reach, inside the set.

    This is the MT3 axiom.  Fails with the first violating pair in
    declaration order, scanned only when :func:`_common_bound` finds none.
    """
    pair = _undirected_pair(g, g.mask(members))
    return Check(True) if pair is None else Check(False, (g.vertices[pair[0]], g.vertices[pair[1]]))


def _union_faults(g: Graph, mask: int) -> tuple:
    """MT1 and MT2 on a vertex mask, each as its first failure in indices or None: an
    edge (v, w) into the mask from v outside, as a path enters through one; a regular
    member with no successor inside.  Both hold iff the complement is saturated hereditary."""
    pred, succ, rest = g.pred_mask, g.succ_mask, g.full_mask & ~mask
    entries = ((next(_bits(pred[w] & rest)), w) for w in _bits(mask) if pred[w] & rest)
    trapped = (i for i in _bits(mask & g.class_masks[2]) if not succ[i] & mask)
    return next(entries, None), next(trapped, None)


def _common_bound(g: Graph, mask: int) -> int:
    """The members of a vertex mask that every member reaches, stopping at 0.  On a
    nonempty mask it is nonzero iff MT3 holds: a common bound of two members and a
    third member have a common bound, which all three reach, and so on."""
    reach = g.reach
    common = mask
    for i in _bits(mask):
        common &= reach[i]
        if not common:
            break
    return common


def _undirected_pair(g: Graph, mask: int) -> Optional[tuple[int, int]]:
    """:func:`is_downward_directed` on masks: the first failing pair of indices, or None."""
    if _common_bound(g, mask):
        return None
    reach = g.reach
    idx = list(_bits(mask))
    for a, i in enumerate(idx):
        ri = reach[i]
        for j in idx[a:]:
            if not ri & reach[j] & mask:
                return i, j
    return None


def has_csp(g: Graph, mask: int) -> Check:
    """The countable separation property of a vertex mask, with a minimal witness mask.

    Every finite vertex set has the property.  The witness is what a greedy
    shrink in declaration order keeps of the set (drop a member while every
    member still reaches the rest): members that reach each other form
    classes, a class is minimal when its members reach no other member, and
    a subset covers exactly when it meets every minimal class.  So the
    witness is the highest-index member of each minimal class.
    ``tests/oracles.py::oracle_csp_witness`` is the literal shrink.
    """
    masks, comp = g.condensation
    reach = g.reach
    witness = 0
    for i in _bits(mask):
        same = masks[comp[i]]
        if not reach[i] & mask & ~same:
            witness |= 1 << (mask & same).bit_length() - 1
    return Check(True, witness)


# -- Conditions (K) and (L) ---------------------------------------------------


@per_graph
def condition_K(g: Graph) -> Check:
    """No vertex is the source of exactly one simple cycle."""
    classes = g.cycle_class
    if CycleClass.ONE in classes:
        return Check(False, g.vertices[classes.index(CycleClass.ONE)])
    return Check(True)


def _require_condition_k(g: Graph) -> None:
    """Raise ConditionKRequired, naming the vertex that ``check`` names, unless (K) holds."""
    if not (k := condition_K(g)):
        raise ConditionKRequired(f"Condition (K) fails: vertex {k.witness} has exactly one simple cycle")


@per_graph
def condition_L(g: Graph) -> Check:
    """Every cycle has an exit.

    An exitless cycle is a component of class ONE in ``g.cycle_class`` (a plain cycle: a
    labeled parallel bundle or a multiplicity above one is a second edge) whose members each
    have one successor.  Each component is walked once from its lowest member, up to the first
    member off a plain cycle or with a second successor; a walk back to the start is the witness.
    """
    classes, succ = g.cycle_class, g.succ_mask
    for members in g.condensation[0]:
        i = start = (members & -members).bit_length() - 1
        cycle = []
        while classes[i] is CycleClass.ONE and succ[i].bit_count() == 1:
            cycle.append(g.vertices[i])
            i = succ[i].bit_length() - 1
            if i == start:
                return Check(False, tuple(cycle))
    return Check(True)
