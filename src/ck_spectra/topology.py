"""Prime spectrum and primitive ideal space as finite topological spaces.

Points are clusters of maximal tails plus finite-return vertices, kept as a
tagged disjoint union (a singleton cluster {v} and the return vertex v are
different points).  The same space is materialized along two routes:

* graph side: membership of a point in the closure of X is decided from
  reachability and bundle multiplicities alone.  Writing V(X) for the union
  of the vertex sets of the points of X, a point p with vertex set W_p lies
  in the closure iff W_p is covered by V(X) *and* no vertex that breaks out
  of the complement of V(X) stays "essential" for both X and p (essential
  vertices of a point are the members of W_p that do not break out of its
  complement, plus the return vertex itself for a return point).

* ideal side: each point is mapped through ``h_map`` to an admissible pair
  and the closure of X is everything containing the meet of the pairs of X.

On a finite vertex set MT4 holds vacuously, so the primitive points are
the prime points, in the same order: :func:`prim_points` is
:func:`spec_points`.  :func:`verify_homeomorphism` first checks that they are
dense, through :func:`prim_spec_density_check`; the checks after it concern
the one space.  It then matches the points with the prime and the
primitive pairs and sweeps the subsets once, comparing the two closures.
:func:`check_kuratowski` tests the closure axioms of a space; ``verify``
runs it once per side on the spectrum.

Both closures, the sweeps and the separation report run on point-index
bitmasks (bit i stands for the i-th point of the ambient tuple).  On a finite
space an additive closure is the down-set closure of its specialization
preorder (Alexandrov 1937), so one int holds any closed set.  Point objects
and vertex names appear only at the API and CLI boundary: the arguments and
results of :func:`graph_closure`, :func:`ideal_closure` and
:meth:`SpecSpace.closure`, and the counterexamples in the reports.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .errors import ConditionKRequired, VerificationFailure
from .graph_core import (
    DEFAULT_ENUMERATION_LIMIT,
    Graph,
    _bits,
    condition_K,
    per_graph,
    require_enumerable,
)
from .ideals import (
    AdmissiblePair,
    _breaking_masked,
    _check_masks,
    _direct_verdict,
    _meet_masks,
    _named,
    admissible_pairs,
    ideal_leq,
)
from .tails import clusters, finite_return_vertices


class ClusterPoint(NamedTuple):
    """A point of the spectrum given by a cluster of maximal tails."""

    members: frozenset

    def label(self, g: Graph) -> str:
        return "{" + ", ".join(g.listing(_point_mask(g, self))) + "}"


class FRPoint(NamedTuple):
    """A point of the spectrum given by a finite-return vertex."""

    vertex: str

    def label(self, g: Graph) -> str:
        return f"return vertex {self.vertex}"


SpecPoint = Union[ClusterPoint, FRPoint]


def spec_points(g: Graph) -> list[SpecPoint]:
    """Points of the prime spectrum: clusters, then finite-return vertices; needs (K)."""
    if not condition_K(g):
        raise ConditionKRequired("spectrum computations require Condition (K)")
    pts: list[SpecPoint] = [ClusterPoint(c) for c in clusters(g)]
    pts += [FRPoint(v) for v in g.listing(g.mask(finite_return_vertices(g)))]
    return pts


def prim_points(g: Graph) -> list[SpecPoint]:
    """Points of the primitive ideal space: maximal tails, then return vertices.

    These are the prime points, as the maximal tails are the clusters.
    """
    return spec_points(g)


@per_graph
def _point_mask(g: Graph, p: SpecPoint) -> int:
    """Mask of the vertex set carried by a point (the tail U(v) for return points)."""
    if isinstance(p, ClusterPoint):
        return g.mask(p.members)
    return g.coreach[g.require_vertex(p.vertex)]


def _essential_mask(g: Graph, p: SpecPoint) -> int:
    """Vertices of the point's set that stay essential for ideal containment.

    These are the members that do not break out of the complement of the
    point's vertex set; for a return point the return vertex itself is kept
    essential even though it breaks.
    """
    w = _point_mask(g, p)
    m = w & ~_breaking_masked(g, g.full_mask & ~w)
    if isinstance(p, FRPoint):
        m |= 1 << g.index[p.vertex]
    return m


def _mask_of(pts: tuple, xs: Iterable[SpecPoint]) -> int:
    """Point-index mask of ``xs`` (bit i for ``pts[i]``); foreign points are rejected."""
    index = {p: i for i, p in enumerate(pts)}
    xs = set(xs)
    foreign = xs - index.keys()
    if foreign:
        raise ValueError(f"points outside the ambient space: {sorted(map(str, foreign))}")
    return sum(1 << index[p] for p in xs)


def _pick(points: tuple, mask: int) -> frozenset:
    return frozenset(points[i] for i in _bits(mask))


@per_graph
def _graph_kernel(g: Graph, pts: tuple) -> Callable[[int], int]:
    """Graph-side closure on point-index masks over ``pts``, from the per-point
    vertex and essential masks and the breaking vertices out of V(X)'s complement."""
    table = [(_point_mask(g, p), _essential_mask(g, p)) for p in pts]

    @cache
    def closure(xmask: int) -> int:
        vmask = essential = 0
        while xmask:
            w, e = table[(xmask & -xmask).bit_length() - 1]
            vmask, essential, xmask = vmask | w, essential | e, xmask & xmask - 1
        smask = _breaking_masked(g, g.full_mask & ~vmask) & ~essential
        out = 0
        for i, (w, e) in enumerate(table):
            if not w & ~vmask and not smask & e:
                out |= 1 << i
        return out

    return closure


def graph_closure(
    g: Graph,
    points: Iterable[SpecPoint],
    ambient: Optional[Iterable[SpecPoint]] = None,
) -> frozenset:
    """Closure of a point set, computed from the graph alone.

    ``ambient`` defaults to the full prime spectrum; passing the primitive
    points restricts to the subspace closure.
    """
    pts = tuple(ambient) if ambient is not None else tuple(spec_points(g))
    return _pick(pts, _graph_kernel(g, pts)(_mask_of(pts, points)))


def h_map(g: Graph, p: SpecPoint) -> AdmissiblePair:
    """The admissible pair named by a point.

    A cluster C maps to (complement of C, all its breaking vertices); a
    return vertex v to (complement of U(v), breaking vertices minus v).
    """
    return _named(g, _h_masks(g, p))


@per_graph
def _h_masks(g: Graph, p: SpecPoint) -> tuple[int, int]:
    """:func:`h_map` as ``(hmask, smask)``."""
    hmask = g.full_mask & ~_point_mask(g, p)
    smask = _breaking_masked(g, hmask)
    if isinstance(p, FRPoint):
        smask &= ~(1 << g.index[p.vertex])
    return hmask, smask


@per_graph
def _ideal_kernel(g: Graph, pts: tuple) -> Callable[[int], int]:
    """Ideal-side closure on point-index masks over ``pts``, from the :func:`h_map`
    pairs and the meet formula; each pair and each meet is validated as admissible."""
    pairs = [_check_masks(g, *_h_masks(g, p)) for p in pts]

    @cache
    def above(bottom: tuple[int, int]) -> int:
        """Mask of the points whose pair contains ``bottom``."""
        _check_masks(g, *bottom)
        return sum(1 << i for i, q in enumerate(pairs) if ideal_leq(bottom, q))

    @cache
    def closure(xmask: int) -> int:
        return above(_meet_masks(g, [pairs[i] for i in _bits(xmask)]))

    return closure


def ideal_closure(
    g: Graph,
    ambient: Iterable[SpecPoint],
    points: Iterable[SpecPoint],
) -> frozenset:
    """Closure of a point set through the ideal lattice.

    Maps the points through :func:`h_map`, meets the pairs (the empty family
    meets to the whole-algebra pair, so the empty set is closed), and keeps
    the ambient points whose pair contains the meet.
    """
    pts = tuple(ambient)
    return _pick(pts, _ideal_kernel(g, pts)(_mask_of(pts, points)))


# -- spaces -------------------------------------------------------------------


class SpecSpace:
    """A finite point set together with a closure operator.

    The operator runs on point-index masks: ``mask_closure`` maps the mask of
    X (bit i for ``points[i]``) to the mask of its closure.
    """

    def __init__(self, points: Iterable[SpecPoint], mask_closure: Callable[[int], int], side: str, name: str):
        self.points = tuple(points)
        self.mask_closure = mask_closure
        self.side = side
        self.name = name

    def closure(self, xs: Iterable[SpecPoint]) -> frozenset:
        return _pick(self.points, self.mask_closure(_mask_of(self.points, xs)))

    def __repr__(self) -> str:
        return f"SpecSpace({self.name}/{self.side}, {len(self.points)} points)"


def spec_space(g: Graph, side: str = "graph") -> SpecSpace:
    return _space(g, tuple(spec_points(g)), side, "spec")


def prim_space(g: Graph, side: str = "graph") -> SpecSpace:
    return _space(g, tuple(prim_points(g)), side, "prim")


def _space(g: Graph, pts: tuple, side: str, name: str) -> SpecSpace:
    kernels = {"graph": _graph_kernel, "ideal": _ideal_kernel}
    if side not in kernels:
        raise ValueError(f"side must be 'graph' or 'ideal', got {side!r}")
    return SpecSpace(pts, kernels[side](g, pts), side, name)


# -- verification reports ------------------------------------------------------


class HomeomorphismReport(NamedTuple):
    points: int
    prime_pairs: int
    primitive_pairs: int
    spec_subsets_checked: int
    prim_subsets_checked: int
    exhaustive: bool


class KuratowskiReport(NamedTuple):
    ok: bool
    failures: tuple
    subsets_checked: int
    union_pairs_checked: int
    exhaustive: bool


class SeparationReport(NamedTuple):
    t0: bool
    t1: bool
    hausdorff: bool
    non_closed_singletons: tuple
    specialization: tuple  # (p, q) pairs with q in the closure of {p}


class DensityReport(NamedTuple):
    spec_point_count: int
    prim_point_count: int


def _subset_pool(n: int, exhaustive_limit: int, seed: int, samples: int):
    """Subset masks to sweep: everything when small, else a seeded selection."""
    if n <= exhaustive_limit:
        return list(range(1 << n)), True
    rng = random.Random(seed)
    pool = {0, (1 << n) - 1}
    pool.update(1 << i for i in range(n))
    while len(pool) < min(samples, 1 << n):
        pool.add(rng.randrange(1 << n))
    return sorted(pool), False


# Largest space whose 4^n pairs of subsets all get the literal union axiom.
_UNION_PAIR_LIMIT = 6


def verify_homeomorphism(
    g: Graph,
    exhaustive_limit: int = 12,
    *,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    seed: int = 0,
    samples: int = 256,
) -> HomeomorphismReport:
    """Check that the graph-side and ideal-side spaces are the same space.

    First checks that the primitive points are dense
    (:func:`prim_spec_density_check`); they are the prime points, so the
    primitive subspace is the spectrum itself.  Then establishes that the point-to-pair map is
    injective, that its image is exactly the prime-classified admissible
    pairs and also exactly the primitive ones, and that the two closure
    operators agree on every swept subset.  Raises
    :class:`VerificationFailure` with the offending subset otherwise.
    """
    prim_spec_density_check(g)
    pts = tuple(spec_points(g))

    image = {_h_masks(g, p) for p in pts}
    if len(image) != len(pts):
        raise VerificationFailure("point-to-ideal map is not injective", pts)
    require_enumerable(g, limit)
    verdicts = {pair: _direct_verdict(g, *pair) for pair in admissible_pairs(g)}
    prime_pairs = {pair for pair, c in verdicts.items() if c.is_prime}
    primitive_pairs = {pair for pair, c in verdicts.items() if c.is_primitive}
    named = lambda pairs: {_named(g, pair) for pair in pairs}
    if image != prime_pairs:
        raise VerificationFailure(
            "image of the point map differs from the prime-classified pairs",
            (named(image), named(prime_pairs)),
        )
    if image != primitive_pairs:
        raise VerificationFailure(
            "primitive points do not match the primitive-classified pairs",
            (named(image), named(primitive_pairs)),
        )

    masks, exhaustive = _subset_pool(len(pts), exhaustive_limit, seed, samples)
    left, right = _graph_kernel(g, pts), _ideal_kernel(g, pts)
    for m in masks:
        if left(m) != right(m):
            xs = _pick(pts, m)
            raise VerificationFailure(f"closures disagree on {sorted(str(x) for x in xs)}", xs)

    return HomeomorphismReport(
        points=len(pts),
        prime_pairs=len(prime_pairs),
        primitive_pairs=len(primitive_pairs),
        spec_subsets_checked=len(masks),
        prim_subsets_checked=len(masks),
        exhaustive=exhaustive,
    )


def check_kuratowski(
    space: SpecSpace,
    exhaustive_limit: int = 12,
    *,
    seed: int = 0,
    samples: int = 256,
) -> KuratowskiReport:
    """Test the four closure axioms on the space's power set.

    The empty set, extensivity and idempotence are checked subset by subset;
    finite additivity is checked through singleton decomposition on every
    swept subset and through the literal pairwise union axiom on all pairs of
    subsets when the space is small enough (seeded samples otherwise).  The
    report keeps the first failure of each axiom, then the earliest others,
    eight at most, in sweep order.
    """
    pts = space.points
    n = len(pts)
    cl = cache(space.mask_closure)

    unions = {0: 0}  # m -> the union of the closures of m's singletons
    failures = []
    masks, exhaustive = _subset_pool(n, exhaustive_limit, seed, samples)
    if cl(0):
        failures.append(("empty", frozenset(), None))
    for m in masks:
        c = cl(m)
        if m & ~c:
            failures.append(("extensive", _pick(pts, m), None))
        if cl(c) != c:
            failures.append(("idempotent", _pick(pts, m), None))
        chain = [m]  # down through m & (m - 1) to a known union, then back up
        while chain[-1] not in unions:
            chain.append(chain[-1] & chain[-1] - 1)
        for k in reversed(chain[:-1]):
            unions[k] = unions[k & k - 1] | cl(k & -k)
        if m and c != unions[m]:  # a nonempty cl(0) is the "empty" failure
            failures.append(("additive", _pick(pts, m), None))

    if n <= _UNION_PAIR_LIMIT:
        pair_masks = [(a, b) for a in range(1 << n) for b in range(1 << n)]
    else:
        rng = random.Random(seed + 1)
        pair_masks = [
            (rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(samples)
        ]
    for a, b in pair_masks:
        if cl(a | b) != cl(a) | cl(b):
            failures.append(("union", _pick(pts, a), _pick(pts, b)))

    firsts = {kind: i for i, (kind, *_) in reversed(list(enumerate(failures)))}.values()
    fill = [i for i in range(len(failures)) if i not in firsts][: 8 - len(firsts)]
    return KuratowskiReport(
        ok=not failures,
        failures=tuple(failures[i] for i in sorted({*firsts, *fill})),
        subsets_checked=len(masks),
        union_pairs_checked=len(pair_masks),
        exhaustive=exhaustive,
    )


def separation_report(space: SpecSpace) -> SeparationReport:
    """T0/T1/Hausdorff verdicts plus the specialization preorder.

    Works from the n singleton-closure masks: q lies in the closure of {p}
    exactly when every open set around q contains p, so the minimal open
    neighborhood of p consists of the q with p in the closure of {q}.  Two
    points are separated by opens iff those neighborhoods are disjoint, so
    the space is Hausdorff iff no singleton closure holds two points.
    """
    pts = space.points
    cl = [space.mask_closure(1 << i) for i in range(len(pts))]
    specialization = tuple((p, pts[j]) for p, c in zip(pts, cl) for j in _bits(c))
    t0 = not any(j != i and cl[j] >> i & 1 for i, c in enumerate(cl) for j in _bits(c))
    non_closed = tuple(p for i, (p, c) in enumerate(zip(pts, cl)) if c != 1 << i)
    return SeparationReport(
        t0=t0,
        t1=not non_closed,
        hausdorff=all(c.bit_count() <= 1 for c in cl),
        non_closed_singletons=non_closed,
        specialization=specialization,
    )


def prim_spec_density_check(g: Graph) -> DensityReport:
    """Primitive points must be dense in the prime spectrum."""
    spec_pts = tuple(spec_points(g))
    prim_pts = tuple(prim_points(g))
    closure = graph_closure(g, prim_pts, ambient=spec_pts)
    if closure != frozenset(spec_pts):
        raise VerificationFailure("primitive points are not dense", closure)
    return DensityReport(len(spec_pts), len(prim_pts))
