"""Spans around the package's public functions, for the traced run.

A :class:`Tracer` replaces each traced function by a wrapper at every name
the package binds it to (``tails.clusters`` is also ``topology.clusters``), so
calls between modules and inside one module both open a span.  Private
helpers are not wrapped; their time counts toward the public caller.  Only
names that the CLI commands reach are traced, and a name that a later change
removes is skipped and reported as zero.

A span's self time is its duration minus the time its child spans cover.
Verify ops open about 10^5 spans each, so spans are folded into per-function
and per caller->callee totals as they close instead of being stored one by
one; the totals are what the run writes out at its end.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = {
    "cli": ("main", "cmd_check", "cmd_tails", "cmd_ideals", "cmd_spec", "cmd_verify", "cmd_gen", "cmd_export"),
    "gcg": ("parse_graph", "emit_gcg"),
    "graph_core": (
        "classify_vertices",
        "condition_K",
        "condition_L",
        "is_downward_directed",
        "has_csp",
        "simple_cycle_class",
        "upward_set",
    ),
    "tails": ("maximal_tails", "clusters", "finite_return_vertices", "mt_report", "realize_as_tail", "tail_of_boundary"),
    "ideals": (
        "saturated_hereditary_sets",
        "admissible_pairs",
        "classify_ideal",
        "classify_via_quotient",
        "quotient_graph",
        "meet",
        "ideal_leq",
    ),
    "topology": (
        "spec_points",
        "prim_points",
        "spec_space",
        "prim_space",
        "graph_closure",
        "ideal_closure",
        "h_map",
        "verify_homeomorphism",
        "check_kuratowski",
        "separation_report",
        "prim_spec_density_check",
    ),
    "generators": ("random_condition_k_graph", "random_graph"),
    "render": ("emit_json", "graph_payload", "pair_payload"),
}

# Output counts: (traced function, counter, amount read from result and args).
HOOKS = (
    ("tails.maximal_tails", "tails.tails", lambda r, a: len(r)),
    ("tails.finite_return_vertices", "tails.fr_vertices", lambda r, a: len(r)),
    ("ideals.saturated_hereditary_sets", "ideals.sat_her_sets", lambda r, a: len(r)),
    ("ideals.admissible_pairs", "ideals.pairs", lambda r, a: len(r)),
    ("ideals.classify_ideal", "ideals.prime_pairs", lambda r, a: int(r.is_prime)),
    ("topology.spec_points", "topology.points", lambda r, a: len(r)),
    ("topology.verify_homeomorphism", "topology.subsets_swept", lambda r, a: r.spec_subsets_checked + r.prim_subsets_checked),
    ("topology.check_kuratowski", "topology.subsets_swept", lambda r, a: r.subsets_checked),
    ("topology.check_kuratowski", "topology.union_pairs", lambda r, a: r.union_pairs_checked),
    ("gcg.parse_graph", "gcg.bytes", lambda r, a: len(a[0].encode())),
    ("gcg.emit_gcg", "gcg.bytes", lambda r, a: len(r.encode())),
)
# generators.repairs is worked out in Tracer.summary.
COUNTS = tuple(dict.fromkeys(counter for _, counter, _ in HOOKS)) + ("generators.repairs",)


def _finite_mults(g) -> int:
    return sum(b.mult for b in g.bundles if isinstance(b.mult, int))


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer, functions in TRACED.items():
        for fn in functions:
            names += [f"{layer}.{fn}.busy_s", f"{layer}.{fn}.calls"]
        names.append(f"{layer}.failed")
    return names + list(COUNTS) + ["trace.overhead_pct"]


class Tracer:
    """Records spans of one op; install it in the forked child before the op."""

    def __init__(self):
        self.stack = [["<op>", 0.0]]  # open spans: [name, time covered by children]
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.edges = defaultdict(lambda: [0, 0.0])  # "caller>callee" -> [calls, seconds]
        self.failed = defaultdict(int)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._raised = []  # (layer, exception) already counted
        self._generated = []  # (args, kwargs, finite multiplicity of the result)
        self._random_graph = None

    def _wrap(self, name: str, layer: str, fn):
        stack, busy, calls, edges = self.stack, self.busy, self.calls, self.edges
        hooks = [(counter, amount) for fn_name, counter, amount in HOOKS if fn_name == name]
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._count_failure(layer, exc)
                raise
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += duration
                busy[name] += duration - frame[1]
                calls[name] += 1
                edge = edges[f"{parent[0]}>{name}"]
                edge[0] += 1
                edge[1] += duration
            for counter, amount in hooks:
                counts[counter] += amount(result, args)
            if name == "generators.random_condition_k_graph":
                self._generated.append((args, kwargs, _finite_mults(result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_failure(self, layer: str, exc: BaseException) -> None:
        if not any(seen == layer and e is exc for seen, e in self._raised):
            self._raised.append((layer, exc))
            self.failed[layer] += 1

    def install(self) -> None:
        """Wrap every traced function at each name a ck_spectra module binds it to."""
        wrappers = {}
        for layer, functions in TRACED.items():
            module = sys.modules[f"ck_spectra.{layer}"]
            for fn_name in functions:
                fn = getattr(module, fn_name, None)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", layer, fn))
        self._random_graph = getattr(sys.modules["ck_spectra.generators"], "random_graph", None)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "ck_spectra" or mod_name.startswith("ck_spectra."):
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])

    def summary(self) -> dict:
        """The op's totals; call after the op, outside its timed region."""
        if self._generated and self._random_graph is not None:
            # Repairs bump one multiplicity each, so they are the growth over
            # the unrepaired graph drawn from the same arguments.
            self.counts["generators.repairs"] = sum(
                mults - _finite_mults(self._random_graph(*args, **kwargs))
                for args, kwargs, mults in self._generated
            )
        return {
            "busy": dict(self.busy),
            "calls": dict(self.calls),
            "edges": {k: list(v) for k, v in self.edges.items()},
            "failed": dict(self.failed),
            "counts": dict(self.counts),
        }
