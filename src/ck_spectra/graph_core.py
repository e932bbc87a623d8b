"""Directed multigraphs with edge multiplicities in {1, 2, ...} ∪ {ω}.

Edges are stored as *bundles*: a bundle (src, dst, mult, label) stands for
``mult`` parallel edges, where ``mult`` may be the symbol ``OMEGA`` for a
countably infinite family.  All structural predicates used elsewhere in the
package (Condition (K), Condition (L), downward directedness, the countable
separation property) live here, together with bitmask reachability.

Vertex subsets are plain ``frozenset`` objects at the API boundary; the
implementation works on integer bitmasks indexed by declaration order, which
is also the canonical order for all deterministic output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, cached_property, partial, wraps
from typing import Callable, Iterable, Iterator, Optional, Union

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


@dataclass(frozen=True)
class Bundle:
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


@dataclass(frozen=True)
class Check:
    """Boolean predicate result carrying a witness for failures."""

    holds: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class VertexClassification:
    sinks: frozenset
    infinite_emitters: frozenset
    regular: frozenset

    @property
    def singular(self) -> frozenset:
        return self.sinks | self.infinite_emitters


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable finite-vertex graph.

    Vertices are distinct identifier strings in declaration order.  Unlabeled
    bundles between the same ordered vertex pair are merged by saturating
    addition; labeled bundles keep their identity and labels must be unique.
    """

    def __init__(self, vertices: Iterable[str], bundles: Iterable[Bundle | tuple] = ()):
        verts = tuple(vertices)
        if len(set(verts)) != len(verts):
            raise ValueError("vertex identifiers must be distinct")
        index = {v: i for i, v in enumerate(verts)}

        unlabeled: dict[tuple[str, str], Mult] = {}
        labeled: list[Bundle] = []
        seen_labels: set[str] = set()
        for b in bundles:
            if not isinstance(b, Bundle):
                b = Bundle(*b)
            if b.src not in index:
                raise UnknownVertex(f"unknown source vertex {b.src!r}")
            if b.dst not in index:
                raise UnknownVertex(f"unknown target vertex {b.dst!r}")
            mult = check_mult(b.mult)
            if b.label is None:
                key = (b.src, b.dst)
                unlabeled[key] = mult_sum((unlabeled.get(key, 0), mult)) if key in unlabeled else mult
            else:
                if b.label in seen_labels:
                    raise ValueError(f"duplicate bundle label {b.label!r}")
                seen_labels.add(b.label)
                labeled.append(Bundle(b.src, b.dst, mult, b.label))

        merged = [Bundle(s, d, m) for (s, d), m in unlabeled.items()]
        order = lambda b: (index[b.src], index[b.dst], b.label is not None, b.label or "")
        self.vertices: tuple[str, ...] = verts
        self.bundles: tuple[Bundle, ...] = tuple(sorted(merged + labeled, key=order))
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

    def names(self, mask: int) -> frozenset:
        return frozenset(self.vertices[i] for i in _bits(mask))

    def sorted_set(self, names: Iterable[str]) -> tuple[str, ...]:
        """The subset listed in declaration order (canonical output order)."""
        keep = set(names)
        return tuple(v for v in self.vertices if v in keep)

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
        return {v: mult_sum(b.mult for b in self.out_bundles[v]) for v in self.vertices}

    @cached_property
    def reach(self) -> list[int]:
        """reach[i] = mask of vertices reachable from i (reflexive-transitive)."""
        succ = self.succ_mask
        reach = [(1 << i) | succ[i] for i in range(self.n)]
        changed = True
        while changed:
            changed = False
            for i in range(self.n):
                acc = reach[i]
                for j in _bits(acc):
                    acc |= reach[j]
                if acc != reach[i]:
                    reach[i] = acc
                    changed = True
        return reach

    @cached_property
    def coreach(self) -> list[int]:
        """coreach[j] = mask of vertices that can reach j."""
        co = [0] * self.n
        for i, row in enumerate(self.reach):
            bit = 1 << i
            for j in _bits(row):
                co[j] |= bit
        return co


def per_graph(fn: Callable) -> Callable:
    """Cache ``fn(g, *args)`` on the graph ``g`` itself.

    The memo is a ``functools.cache`` of ``fn`` bound to ``g``, kept in the
    graph's ``__dict__``, so it dies with the graph and is shared by every
    caller holding it: cached results must not be mutated.
    """
    slot = f"_cache:{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def cached(g: Graph, *args):
        memo = g.__dict__.get(slot)
        if memo is None:
            memo = g.__dict__[slot] = cache(partial(fn, g))
        return memo(*args)

    return cached


def require_enumerable(g: Graph, limit: int = DEFAULT_ENUMERATION_LIMIT) -> None:
    if g.n > limit:
        raise SizeLimitExceeded(
            f"graph has {g.n} vertices, above the enumeration limit {limit}"
        )


# -- vertex classification --------------------------------------------------


def classify_vertices(g: Graph) -> VertexClassification:
    """Partition the vertices into sinks, infinite emitters and regular vertices."""
    sinks, emitters, regular = [], [], []
    for v in g.vertices:
        total = g.out_mult[v]
        if total == 0:
            sinks.append(v)
        elif is_omega(total):
            emitters.append(v)
        else:
            regular.append(v)
    return VertexClassification(frozenset(sinks), frozenset(emitters), frozenset(regular))


# -- reachability ------------------------------------------------------------


def reaches(g: Graph, u: str, v: str) -> bool:
    """True iff a path (possibly of length zero) leads from u to v."""
    iu, iv = g.require_vertex(u), g.require_vertex(v)
    return bool(g.reach[iu] >> iv & 1)


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
    allow the witness anywhere in the graph.  Fails with a violating pair.
    """
    mask = g.mask(members)
    allowed = mask if witness_in_set else g.full_mask
    idx = list(_bits(mask))
    reach = g.reach
    for a, i in enumerate(idx):
        ri = reach[i]
        for j in idx[a:]:
            if not ri & reach[j] & allowed:
                return Check(False, (g.vertices[i], g.vertices[j]))
    return Check(True)


def has_csp(g: Graph, members: Iterable[str]) -> tuple[bool, frozenset]:
    """Countable separation property of a vertex set, with a minimal witness.

    Every finite-vertex graph satisfies it; the witness is shrunk greedily in
    declaration order so reports stay small and deterministic.
    """
    mask = g.mask(members)
    coreach = g.coreach
    witness = mask

    def covers(w: int) -> bool:
        covered = 0
        for j in _bits(w):
            covered |= coreach[j]
        return mask & ~covered == 0

    for i in _bits(mask):
        trial = witness & ~(1 << i)
        if covers(trial):
            witness = trial
    return True, g.names(witness)


# -- simple cycles and the structural conditions ------------------------------


def _closure_from(start: int, step: list[int], forbidden: int) -> int:
    """Vertices reachable from the start mask without entering ``forbidden``."""
    seen = start & ~forbidden
    frontier = seen
    while frontier:
        grow = 0
        for j in _bits(frontier):
            grow |= step[j]
        grow &= ~forbidden
        frontier = grow & ~seen
        seen |= frontier
    return seen


def _has_internal_cycle(g: Graph, mask: int) -> bool:
    """Whether the subgraph induced on ``mask`` contains a cycle (loops count)."""
    color = {}  # 0/absent: white, 1: on stack, 2: done
    succ = g.succ_mask
    for root in _bits(mask):
        if color.get(root):
            continue
        stack = [(root, iter(_bits(succ[root] & mask)))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                c = color.get(nxt, 0)
                if c == 1:
                    return True
                if c == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(_bits(succ[nxt] & mask))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def simple_cycle_class(g: Graph, v: str) -> CycleClass:
    """Count the simple cycles based at v, saturated at two.

    A simple cycle is a first-return walk: it starts and ends at v and does
    not pass through v in between (other vertices may repeat).  Parallel
    edges count as distinct cycles.  If the support of the first-return walks
    carries an internal cycle, or any usable bundle has multiplicity >= 2,
    there are infinitely many (or at least two) such walks; otherwise the
    walks are vertex-simple and are counted exactly.
    """
    iv = g.require_vertex(v)
    bit = 1 << iv
    r_out = _closure_from(g.succ_mask[iv], g.succ_mask, bit)
    r_in = _closure_from(g.pred_mask[iv], g.pred_mask, bit)
    support = r_out & r_in

    def on_route(b: Bundle) -> bool:
        sm = 1 << g.index[b.src]
        dm = 1 << g.index[b.dst]
        return bool((sm == bit or sm & support) and (dm == bit or dm & support))

    viable = [b for b in g.bundles if on_route(b)]
    if not viable:
        return CycleClass.ZERO
    for b in viable:
        if is_omega(b.mult) or b.mult >= 2:
            return CycleClass.TWO_OR_MORE
    if _has_internal_cycle(g, support):
        return CycleClass.TWO_OR_MORE

    # The support is acyclic and every viable bundle is simple, so counting
    # walks back to v with saturation at two is exact.  The counts are filled
    # in depth-first post-order on an explicit stack, because a support can
    # be longer than the recursion limit.
    from_vertex: dict[int, list[int]] = {}
    for b in viable:
        from_vertex.setdefault(g.index[b.src], []).append(g.index[b.dst])

    walks = {iv: 1}
    stack = list(from_vertex[iv])
    while stack:
        i = stack[-1]
        if i in walks:
            stack.pop()
            continue
        todo = [j for j in from_vertex.get(i, ()) if j not in walks]
        if todo:
            stack += todo
        else:
            walks[i] = min(sum(walks[j] for j in from_vertex.get(i, ())), 2)
            stack.pop()
    return CycleClass(min(sum(walks[j] for j in from_vertex[iv]), 2))


@per_graph
def condition_K(g: Graph) -> Check:
    """No vertex is the source of exactly one simple cycle."""
    for v in g.vertices:
        if simple_cycle_class(g, v) is CycleClass.ONE:
            return Check(False, v)
    return Check(True)


def condition_L(g: Graph) -> Check:
    """Every cycle has an exit.

    An exitless cycle is exactly a cycle all of whose vertices have total
    out-multiplicity one, so it suffices to chase the out-degree-one
    subgraph.  The witness is the vertex sequence of an exitless cycle.
    """
    next_vertex: dict[str, str] = {}
    for v in g.vertices:
        if g.out_mult[v] == 1:
            next_vertex[v] = g.out_bundles[v][0].dst

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
