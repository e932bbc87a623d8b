"""Directed multigraphs with edge multiplicities in {1, 2, ...} ∪ {ω}.

Edges are stored as *bundles*: a bundle (src, dst, mult, label) stands for
``mult`` parallel edges, where ``mult`` may be the symbol ``OMEGA`` for a
countably infinite family.  All structural predicates used elsewhere in the
package (Condition (K), Condition (L), downward directedness, the countable
separation property) live here, together with bitmask reachability.

Reachability, the simple-cycle classes behind Condition (K), and the MT3
(downward directedness) and MT4 (countable separation) checks all come from
one strongly connected condensation per graph, ``Graph.condensation``, so each
costs O(n + m) big-int operations.  Its search, :func:`strong_components`,
works on successor masks alone: the quotient route in ``ideals`` runs it
once per saturated hereditary set H, then adds each pair's sink copies.

Vertex subsets are plain ``frozenset`` objects at the API boundary; the
implementation works on integer bitmasks indexed by declaration order, which
is also the canonical order for all deterministic output.  ``Graph.listing``
is the one reader of that order: it lists a mask's vertices, and every
printed or rendered vertex set comes from it.
"""

from __future__ import annotations

import enum
from functools import cached_property, wraps
from itertools import compress
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .errors import SizeLimitExceeded, UnknownVertex

DEFAULT_ENUMERATION_LIMIT = 20


class _Omega:
    """Countably infinite multiplicity; absorbing under + and *, above every int."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OMEGA"

    def __add__(self, other):
        return self

    __radd__ = __add__
    __mul__ = __add__
    __rmul__ = __add__

    def __eq__(self, other):
        return isinstance(other, _Omega)

    def __hash__(self):
        return hash("_Omega")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Omega)

    def __gt__(self, other):
        return not isinstance(other, _Omega)

    def __ge__(self, other):
        return True


OMEGA = _Omega()

Mult = Union[int, _Omega]


def is_omega(m: Mult) -> bool:
    return isinstance(m, _Omega)


def check_mult(m: Mult) -> Mult:
    """Validate a multiplicity value: a positive int or OMEGA."""
    if is_omega(m):
        return OMEGA
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError(f"multiplicity must be a positive int or OMEGA, got {m!r}")
    if m < 1:
        raise ValueError(f"multiplicity must be at least 1, got {m}")
    return m


def mult_sum(ms: Iterable[Mult]) -> Mult:
    """Saturating sum; OMEGA absorbs."""
    total: Mult = 0
    for m in ms:
        if is_omega(m):
            return OMEGA
        total += m
    return total


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
    ``_bits``: the quotient route condenses thousands of small graphs, where
    a generator per vertex costs more than the search.
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

        # A caller's Bundle is kept as it is unless a merge replaces it.
        unlabeled: dict[tuple[str, str], Bundle] = {}
        labeled: list[Bundle] = []
        seen_labels: set[str] = set()
        for b in bundles:
            if b.src not in index:
                raise UnknownVertex(f"unknown source vertex {b.src!r}")
            if b.dst not in index:
                raise UnknownVertex(f"unknown target vertex {b.dst!r}")
            if type(b.mult) is not int or b.mult < 1:  # a plain count needs no check
                check_mult(b.mult)
            if b.label is None:
                key = (b.src, b.dst)
                prev = unlabeled.get(key)
                unlabeled[key] = b if prev is None else Bundle(b.src, b.dst, prev.mult + b.mult)
            else:
                if b.label in seen_labels:
                    raise ValueError(f"duplicate bundle label {b.label!r}")
                seen_labels.add(b.label)
                labeled.append(b)

        order = lambda b: (index[b.src], index[b.dst], b.label is not None, b.label or "")
        self.vertices: tuple[str, ...] = verts
        self.bundles: tuple[Bundle, ...] = tuple(sorted([*unlabeled.values(), *labeled], key=order))
        self.index: dict[str, int] = index

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

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

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
    def succ_mask(self) -> list[int]:
        masks = [0] * self.n
        for b in self.bundles:
            masks[self.index[b.src]] |= 1 << self.index[b.dst]
        return masks

    @cached_property
    def pred_mask(self) -> list[int]:
        masks = [0] * self.n
        for b in self.bundles:
            masks[self.index[b.dst]] |= 1 << self.index[b.src]
        return masks

    @cached_property
    def out_mult(self) -> dict[str, Mult]:
        """Total out-multiplicity of each vertex; ``+`` saturates at OMEGA."""
        out: dict[str, Mult] = dict.fromkeys(self.vertices, 0)
        for b in self.bundles:
            out[b.src] += b.mult
        return out

    @cached_property
    def class_masks(self) -> tuple[int, int, int]:
        """:func:`classify_vertices`, computed once per graph."""
        return classify_vertices(self)

    @cached_property
    def edge_mult(self) -> list[dict[int, Mult]]:
        """edge_mult[i][j]: the edges i -> j, every bundle between them merged."""
        table: list[dict[int, Mult]] = [{} for _ in self.vertices]
        for b in self.bundles:
            row, j = table[self.index[b.src]], self.index[b.dst]
            row[j] = row.get(j, 0) + b.mult
        return table

    @cached_property
    def condensation(self) -> tuple[list[int], list[int]]:
        """Strongly connected components: masks, sinks first, and comp[i]; the
        quotient route runs :func:`strong_components` on its own masks instead."""
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
    for i, total in enumerate(g.out_mult.values()):
        if total == 0:
            sinks |= 1 << i
        elif is_omega(total):
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


def require_enumerable(g: Graph, limit: int = DEFAULT_ENUMERATION_LIMIT) -> None:
    if g.n > limit:
        raise SizeLimitExceeded(
            f"graph has {g.n} vertices, above the enumeration limit {limit}"
        )


def _finite_edges(g: Graph, i: int, into: int) -> bool:
    """Whether vertex i has finitely many, and at least one, edges into the mask ``into``."""
    total = mult_sum(m for j, m in g.edge_mult[i].items() if into >> j & 1)
    return total != 0 and not is_omega(total)


# -- reachability ------------------------------------------------------------


def upward_set(g: Graph, members: Iterable[str]) -> frozenset:
    """U(S): every vertex that can reach some element of S."""
    m = 0
    for s in members:
        m |= g.coreach[g.require_vertex(s)]
    return g.names(m)


def is_downward_directed(g: Graph, members: Iterable[str], *, witness_in_set: bool = True) -> Check:
    """Whether every two members share a vertex both can reach.

    With ``witness_in_set`` (the default) the common vertex must itself lie in
    the given set, which is the reading used for the MT3 axiom; pass False to
    allow the witness anywhere in the graph.  Fails with the first violating
    pair in declaration order.

    A vertex every member reaches settles it at once; with the witness in the
    set that is also necessary (a common bound x of u and v is a member, so x
    and w have one too, and so on).  Only otherwise are the pairs scanned.
    """
    mask = g.mask(members)
    pair = _undirected_pair(g, mask, mask if witness_in_set else g.full_mask)
    return Check(True) if pair is None else Check(False, (g.vertices[pair[0]], g.vertices[pair[1]]))


def _undirected_pair(g: Graph, mask: int, allowed: int) -> Optional[tuple[int, int]]:
    """:func:`is_downward_directed` on masks: the first failing pair of indices, or None."""
    reach = g.reach
    common = allowed
    for i in _bits(mask):
        common &= reach[i]
    if common:
        return None
    idx = list(_bits(mask))
    for a, i in enumerate(idx):
        ri = reach[i]
        for j in idx[a:]:
            if not ri & reach[j] & allowed:
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


@per_graph
def condition_L(g: Graph) -> Check:
    """Every cycle has an exit.

    An exitless cycle is exactly a cycle all of whose vertices have total
    out-multiplicity one, so it suffices to chase the out-degree-one
    subgraph.  The witness is the vertex sequence of an exitless cycle.
    """
    out, succ, names = g.out_mult, g.succ_mask, g.vertices
    next_vertex = {v: names[succ[i].bit_length() - 1] for i, v in enumerate(names) if out[v] == 1}

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
