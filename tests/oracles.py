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
tests read off explicit sets.  ``oracle_classify_quotient`` is the quotient
route on the named quotient graph, through the package's ``condition_L`` and
``is_downward_directed``, that the quotient's own masks replaced.  The
vertex-class, breaking-vertex and finite-return oracles count edges bundle by
bundle over ``g.bundles``, without the merged per-pair multiplicity table that
the package reads.  ``oracle_emit_json`` is the ``json.dumps`` call that the
string-list writer in ``ck_spectra.render`` replaced.  ``px_model``,
``px_closure`` and ``phi`` model the spectrum of the subset graph
``ck_spectra.ea_graph(ground, OMEGA)`` on the nonempty subsets of the ground
set.  ``named_pairs`` is no oracle: it names the package's own enumeration,
``admissible_pairs``, for the tests that take pairs of vertex sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import NamedTuple

import networkx as nx
import numpy as np

from ck_spectra.errors import DuplicateLabel, NotSaturatedHereditary, ParseError, UndeclaredVertex
from ck_spectra.graph_core import (
    OMEGA,
    Bundle,
    Check,
    CycleClass,
    Graph,
    condition_L,
    is_downward_directed,
    is_omega,
    upward_set,
)
from ck_spectra.ideals import (
    AdmissiblePair,
    IdealClass,
    IdealKind,
    QuotientGraph,
    _breaking_masked,
    _classify_from_structure,
    _named,
    admissible_pairs,
    _require_condition_k,
    meet,
)
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


def oracle_downward_directed(g: Graph, members, witness_in_set: bool = True):
    """The first pair in declaration order with no common lower bound, or None.

    The bound is looked for among the members, or among all vertices when
    ``witness_in_set`` is False.
    """
    m = reach_matrix(g)
    keep = set(members)
    order = [v for v in g.vertices if v in keep]
    bounds = order if witness_in_set else g.vertices
    for u, w in combinations(order, 2):
        if not any(m[g.index[u], g.index[c]] and m[g.index[w], g.index[c]] for c in bounds):
            return (u, w)
    return None


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

    is_tail = is_cluster = is_return_tail = False
    if not kept:
        axioms = oracle_mt1(g, complement) and oracle_mt2(g, complement) and oracle_mt3(g, complement)
        is_cluster = bool(complement) and axioms
        is_tail = is_cluster
    elif len(kept) == 1:
        is_return_tail = complement == upward_set(g, kept)
    return _classify_from_structure(kept, is_tail, is_cluster, is_return_tail)


def oracle_classify_quotient(q: QuotientGraph) -> IdealClass:
    """The quotient route on the named quotient graph: Condition (L) by its
    out-degree-one chase and downward directedness by its pair scan."""
    qg = q.graph
    if not qg.vertices:
        return IdealClass(IdealKind.NOT_PRIME)
    if not (condition_L(qg).holds and is_downward_directed(qg, qg.vertices).holds):
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
