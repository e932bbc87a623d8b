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

There is one space.  A finite vertex set makes the algebra separable, and
there every prime ideal is primitive (Dixmier 1960); on the graph side MT4
holds vacuously, so the maximal tails are the clusters.  The primitive ideal
space is therefore the spectrum, in the same order: :func:`prim_points` is
:func:`spec_points` and :func:`prim_space` is :func:`spec_space` under its
other name.  :func:`verify_homeomorphism` matches the points with the
prime-classified pairs and sweeps the subsets once, comparing the two
closures.  :func:`check_kuratowski` tests the closure axioms of a space;
``verify`` runs it once per side on the spectrum.

The spectrum is built once per graph as one table of point masks, ``(vertex
mask, return-vertex bit or 0, breaking vertices out of the complement)`` in
point order, from the cluster masks and the finite-return mask; the point
objects, both closure kernels and the point-to-pair map are read from it.
Each kernel closes a whole sequence of point-index bitmasks (bit i stands
for the i-th point) in one call: an exhaustive pool's unions fill one list
indexed by mask, each from its parent's; a sampled pool is folded in bulk,
one pass over the list per 8-point block.  Each distinct union is scanned
once against per-point masks that the kernel builds once (the graph side's
V(X) against each W_p and essential mask, the ideal side's meet against the
complements of each point's H and H | S).  The sweep and both Kuratowski
passes of ``verify`` read closure lists from these calls, each on the pool
of subsets that :func:`_subset_pool` draws from the seed, its seeded values
taken in bulk calls, the same values as one draw at a time; nothing keeps the
draw, and a union the kernel has scanned for one pass costs the next pass a
lookup.  On a finite space an additive closure is the down-set closure of
its specialization preorder (Alexandrov 1937), so one int holds any closed
set.  Point objects and vertex names appear only at the API and CLI
boundary: the arguments and results of :func:`graph_closure` and
:func:`ideal_closure`, which close within the spectrum, and of
:func:`h_map`, and the counterexamples in the reports.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import SizeLimitExceeded, VerificationFailure
from .graph_core import Graph, _bits, _require_condition_k, per_graph
from .ideals import (
    DEFAULT_ENUMERATION_LIMIT,
    AdmissiblePair,
    _breaking_masked,
    _meet_entry,
    _meet_masks,
    _named,
    _require_sat_her,
    _verify_record,
)
from .tails import _cluster_masks, _finite_return_mask


class ClusterPoint(NamedTuple):
    """A point of the spectrum given by a cluster of maximal tails."""

    members: frozenset


class FRPoint(NamedTuple):
    """A point of the spectrum given by a finite-return vertex."""

    vertex: str


SpecPoint = Union[ClusterPoint, FRPoint]


@per_graph
def _spec_masks(g: Graph) -> list[tuple[int, int, int]]:
    """The spectrum as ``(vertex mask W, return-vertex bit or 0, B_H for H the complement of W)``
    in point order: each cluster, then U(v) with the bit of v for each finite-return vertex v."""
    _require_condition_k(g)
    points = [(m, 0) for m in _cluster_masks(g)] + [(g.coreach[i], 1 << i) for i in _bits(_finite_return_mask(g))]
    return [(w, r, _breaking_masked(g, g.full_mask & ~w)) for w, r in points]


@per_graph
def spec_points(g: Graph) -> list[SpecPoint]:
    """Points of the prime spectrum: clusters, then finite-return vertices; needs (K)."""
    v = g.vertices
    return [FRPoint(v[r.bit_length() - 1]) if r else ClusterPoint(g.names(w)) for w, r, _ in _spec_masks(g)]


def prim_points(g: Graph) -> list[SpecPoint]:
    """Points of the primitive ideal space: maximal tails, then return vertices.

    These are the prime points, as the maximal tails are the clusters.
    """
    return spec_points(g)


@per_graph
def _point_index(g: Graph) -> dict:
    return {p: i for i, p in enumerate(spec_points(g))}


def _mask_of(index: dict, xs: Iterable[SpecPoint]) -> int:
    """Point-index mask of ``xs`` (bit ``index[p]`` for p); foreign points are rejected."""
    xs = set(xs)
    foreign = xs - index.keys()
    if foreign:
        raise ValueError(f"points outside the space: {sorted(map(str, foreign))}")
    return sum(1 << index[p] for p in xs)


def _pick(points: Sequence[SpecPoint], mask: int) -> frozenset:
    return frozenset(points[i] for i in _bits(mask))


def _unions(table: Sequence[int]) -> Callable[[Sequence[int]], list[int]]:
    """A function that maps index masks, in bulk, to the union of ``table[i]`` over
    the bits i of each mask.

    The unions of the masks below 2^k sit in a list indexed by mask.  A range of
    masks grows it by doubling: each new mask takes its parent's union (the mask
    less its highest bit) with one more entry, so an exhaustive pool is folded in
    one step per subset.  Any other list reaching past it is folded in bulk: per 8-point
    block, one pass over the list joins the block's table of 256 unions (built the same way).
    """

    def doubled(unions: list[int], entries: Sequence[int]) -> list[int]:
        for e in entries:
            unions += [u | e for u in unions]
        return unions

    power = [0]
    blocks = [doubled([0], table[j : j + 8]) for j in range(0, len(table), 8)]

    def unions(masks: Sequence[int]) -> list[int]:
        if isinstance(masks, range) and masks.step == 1 and masks.stop <= 1 << len(table):
            doubled(power, table[len(power).bit_length() - 1 : (masks.stop - 1).bit_length()])
            return power[masks.start : masks.stop]
        if max(masks, default=0) < len(power):
            return list(map(power.__getitem__, masks))
        keys = [0] * len(masks)
        for j, block in enumerate(blocks):
            keys = [key | block[m >> 8 * j & 255] for key, m in zip(keys, masks)]
        return keys

    return unions


def _fold_kernel(table: Sequence[int], scan: Callable[[int], int]) -> Callable[[Sequence[int]], list[int]]:
    """Map point-index masks in bulk to ``scan`` of their :func:`_unions` of
    ``table``, scanning each distinct union once."""
    unions, scanned = _unions(table), {}

    def answers(masks: Sequence[int]) -> list[int]:
        keys = unions(masks)
        try:
            return list(map(scanned.__getitem__, keys))
        except KeyError:  # a union not scanned yet
            scanned.update((key, scan(key)) for key in set(keys).difference(scanned))
        return list(map(scanned.__getitem__, keys))

    return answers


@per_graph
def _graph_kernel(g: Graph) -> Callable[[Sequence[int]], list[int]]:
    """Graph-side closures of point-index masks, in bulk, from each point's vertex
    mask W_p and essential mask and the breaking vertices out of V(X)'s complement.

    The essential vertices of a point are the members of W_p that do not
    break out of its complement; for a return point the return vertex itself
    is kept essential even though it breaks.  The closure depends on X only
    through V(X) and the union of its points' essential masks, kept together
    in one int, so the scan runs once per distinct value of that int.
    """
    n, full = g.n, g.full_mask
    points = [(w, w & ~b | r) for w, r, b in _spec_masks(g)]  # (W_p, essential mask)

    def scan(key: int) -> int:
        """The closure of every X whose points' masks join to ``key``."""
        outside = full & ~key
        smask = _breaking_masked(g, outside) & ~(key >> n)
        out = 0
        for i, (w, e) in enumerate(points):
            if not w & outside and not smask & e:
                out |= 1 << i
        return out

    return _fold_kernel([w | e << n for w, e in points], scan)  # W_p in the low n bits, e above


def graph_closure(g: Graph, points: Iterable[SpecPoint]) -> frozenset:
    """Closure of a set of spectrum points, computed from the graph alone."""
    return _pick(spec_points(g), _graph_kernel(g)([_mask_of(_point_index(g), points)])[0])


def h_map(g: Graph, p: SpecPoint) -> AdmissiblePair:
    """The admissible pair named by a point of the spectrum.

    A cluster C maps to (complement of C, all its breaking vertices); a
    return vertex v to (complement of U(v), breaking vertices minus v).
    """
    index = _point_index(g)
    _mask_of(index, [p])  # a point outside the spectrum is rejected
    return _named(g, _h_masks(g)[index[p]])


@per_graph
def _h_masks(g: Graph) -> list[tuple[int, int]]:
    """:func:`h_map` of every point as ``(hmask, smask)``, in point order."""
    return [(g.full_mask & ~w, b & ~r) for w, r, b in _spec_masks(g)]


@per_graph
def _ideal_kernel(g: Graph) -> Callable[[Sequence[int]], list[int]]:
    """Ideal-side closures of point-index masks, in bulk, from the :func:`h_map` pairs and
    :func:`meet`'s fold; the H of each pair and each meet is validated as saturated hereditary,
    and each S lies in B_H by construction.  The cut to B_H and the containment scan run once per fold."""
    pairs = [(_require_sat_her(g, h), s) for h, s in _h_masks(g)]
    outside = [(~h, ~(h | s)) for h, s in pairs]  # (H, S) lies below (H', S') iff H misses ~H' and S misses ~(H' | S')

    def above(fold: int) -> int:
        """Mask of the points whose pair contains the meet with this fold."""
        h, s = _meet_masks(g, fold)
        out = 0
        for i, (not_h, not_hs) in enumerate(outside):
            if not h & not_h and not s & not_hs:
                out |= 1 << i
        return out

    return _fold_kernel([_meet_entry(g, *pair) for pair in pairs], above)


def ideal_closure(g: Graph, points: Iterable[SpecPoint]) -> frozenset:
    """Closure of a set of spectrum points through the ideal lattice.

    Maps the points through :func:`h_map`, meets the pairs (the empty family
    meets to the whole-algebra pair, so the empty set is closed), and keeps
    the points whose pair contains the meet.
    """
    return _pick(spec_points(g), _ideal_kernel(g)([_mask_of(_point_index(g), points)])[0])


# -- spaces -------------------------------------------------------------------


class SpecSpace(NamedTuple):
    """A finite point set together with a closure operator.

    The operator runs on point-index masks, in bulk: ``closures`` maps a
    sequence of masks of sets X (bit i for ``points[i]``) to the list of the
    masks of their closures.
    """

    points: Sequence[SpecPoint]
    closures: Callable[[Sequence[int]], list]
    name: str


def spec_space(g: Graph, side: str = "graph") -> SpecSpace:
    """The spectrum with one side's closure."""
    kernels = {"graph": _graph_kernel, "ideal": _ideal_kernel}
    if side not in kernels:
        raise ValueError(f"side must be 'graph' or 'ideal', got {side!r}")
    return SpecSpace(tuple(spec_points(g)), kernels[side](g), "spec")


def prim_space(g: Graph, side: str = "graph") -> SpecSpace:
    """The primitive ideal space: the spectrum under its other name."""
    return spec_space(g, side)._replace(name="prim")


# -- verification reports ------------------------------------------------------


class HomeomorphismReport(NamedTuple):
    points: int
    prime_pairs: int
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


# Largest space whose 4^n pairs of subsets all get the literal union axiom.
_UNION_PAIR_LIMIT = 6
# Subsets in a sampled pool, and pairs of subsets for a sampled union axiom.
_SAMPLES = 256


def _subset_pool(n: int, exhaustive_limit: int, seed: int) -> tuple[Sequence[int], bool]:
    """Subset masks to sweep, ascending: all of them when small, else the empty set,
    the full set, the singletons and seeded uniform draws of n bits.  The second
    item says whether the subsets are all of them."""
    if n <= exhaustive_limit and 1 << n > DEFAULT_ENUMERATION_LIMIT:  # each kernel would hold a union per subset
        raise SizeLimitExceeded(f"an exhaustive sweep of {n} points is 2^{n} subsets, above 2^20")
    if n <= exhaustive_limit:
        return range(1 << n), True
    draw = random.Random(seed).getrandbits
    pool, size = {0, (1 << n) - 1}, min(_SAMPLES, 1 << n)
    pool.update(1 << i for i in range(n))
    while len(pool) < size:  # the shortfall in one call: the draws one at a time would make, and no more
        pool.update(map(draw, repeat(n, size - len(pool))))
    return sorted(pool), False


def _union_pairs(n: int, seed: int) -> tuple[list[int], list[int]]:
    """Pairs of subsets for the union axiom, as the left and the right masks:
    every pair when small, else seeded uniform draws of n bits."""
    if n <= _UNION_PAIR_LIMIT:
        return [a for a in range(1 << n) for _ in range(1 << n)], list(range(1 << n)) * (1 << n)
    draws = list(map(random.Random(seed + 1).getrandbits, repeat(n, 2 * _SAMPLES)))
    return draws[::2], draws[1::2]


def verify_homeomorphism(
    g: Graph, exhaustive_limit: int = 12, *, limit: int = DEFAULT_ENUMERATION_LIMIT, seed: int = 0
) -> HomeomorphismReport:
    """Check that the graph-side and ideal-side spaces are the same space.

    First checks that the primitive points are dense
    (:func:`prim_spec_density_check`), then that the point-to-pair map is
    injective, that its image is exactly the prime-classified admissible pairs,
    and that the two closure operators agree on every swept subset.  Raises
    :class:`VerificationFailure` with the offending subset otherwise.  Each
    prime pair is primitive by the separability theorem of the module
    docstring, which ``verify`` reports as "primitive = prime points".
    Raises SizeLimitExceeded past ``limit`` pairs or 2^20 exhaustive subsets.
    """
    prim_spec_density_check(g)
    pts = tuple(spec_points(g))
    masks, exhaustive = _subset_pool(len(pts), exhaustive_limit, seed)

    image = set(_h_masks(g))
    if len(image) != len(pts):
        raise VerificationFailure("point-to-ideal map is not injective", pts)
    prime_pairs = _verify_record(g, limit).prime
    if image != prime_pairs:
        named = lambda pairs: {_named(g, pair) for pair in pairs}
        raise VerificationFailure(
            "image of the point map differs from the prime-classified pairs",
            (named(image), named(prime_pairs)),
        )

    left, right = _graph_kernel(g)(masks), _ideal_kernel(g)(masks)
    if left != right:
        xs = _pick(pts, next(m for m, a, b in zip(masks, left, right) if a != b))
        raise VerificationFailure(f"closures disagree on {sorted(str(x) for x in xs)}", xs)

    return HomeomorphismReport(
        points=len(pts),
        prime_pairs=len(prime_pairs),
        spec_subsets_checked=len(masks),
        prim_subsets_checked=len(masks),
        exhaustive=exhaustive,
    )


def check_kuratowski(space: SpecSpace, exhaustive_limit: int = 12, *, seed: int = 0) -> KuratowskiReport:
    """Test the four closure axioms on the space's power set.

    The empty set, extensivity and idempotence are checked subset by subset;
    finite additivity is checked through singleton decomposition on every
    swept subset and through the literal pairwise union axiom on all pairs of
    subsets when the space is small enough (seeded samples otherwise).  The
    report keeps the first failure of each axiom, then the earliest others,
    eight at most, in sweep order.  Closures come from bulk calls on the pool,
    its closures, the singletons and the union pairs; the spaces of
    :func:`spec_space` share their kernels with :func:`verify_homeomorphism`.
    Raises SizeLimitExceeded past 2^20 exhaustive subsets.
    """
    pts = space.points
    n = len(pts)
    cl = space.closures

    failures = []
    masks, exhaustive = _subset_pool(n, exhaustive_limit, seed)
    lefts, rights = _union_pairs(n, seed)
    closed, empty = cl(masks), cl([0])[0]
    again = cl(closed)
    singles = cl([1 << i for i in range(n)])
    spread = _unions(singles)(masks)  # the unions of singleton closures
    if empty:
        failures.append(("empty", frozenset(), None))
    # all pass when the closure is additive, idempotent and keeps each singleton
    if spread != closed or again != closed or any(not c >> i & 1 for i, c in enumerate(singles)):
        for m, c, cc, u in zip(masks, closed, again, spread):
            if m & ~c:
                failures.append(("extensive", _pick(pts, m), None))
            if cc != c:
                failures.append(("idempotent", _pick(pts, m), None))
            if m and c != u:  # a nonempty cl(0) is the "empty" failure
                failures.append(("additive", _pick(pts, m), None))

    joined = cl(list(map(int.__or__, lefts, rights)))
    apart = list(map(int.__or__, cl(lefts), cl(rights)))
    if joined != apart:
        for a, b, c, u in zip(lefts, rights, joined, apart):
            if c != u:
                failures.append(("union", _pick(pts, a), _pick(pts, b)))

    firsts = {kind: i for i, (kind, *_) in reversed(list(enumerate(failures)))}.values()
    fill = [i for i in range(len(failures)) if i not in firsts][: 8 - len(firsts)]
    return KuratowskiReport(
        ok=not failures,
        failures=tuple(failures[i] for i in sorted({*firsts, *fill})),
        subsets_checked=len(masks),
        union_pairs_checked=len(lefts),
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
    cl = space.closures([1 << i for i in range(len(pts))])
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


def prim_spec_density_check(g: Graph) -> None:
    """Primitive points must be dense in the prime spectrum."""
    closure = graph_closure(g, prim_points(g))
    if closure != frozenset(spec_points(g)):
        raise VerificationFailure("primitive points are not dense", closure)
