"""JSON and DOT output.

Every JSON payload carries a versioned top-level ``schema`` field and lists
vertices and sets in the canonical declaration order, so output is
byte-stable across runs.  DOT output renders OMEGA bundles with the label
``∞`` and quotient sink copies with a prime suffix.
"""

from __future__ import annotations

import json

from .graph_core import Graph, is_omega
from .ideals import QuotientGraph


def mult_payload(m):
    return "inf" if is_omega(m) else m


def graph_payload(g: Graph) -> dict:
    return {
        "schema": "ck-spectra/graph/1",
        "vertices": list(g.vertices),
        "bundles": [
            {
                "label": b.label,
                "src": b.src,
                "dst": b.dst,
                "mult": mult_payload(b.mult),
            }
            for b in g.bundles
        ],
    }


def quotient_payload(q: QuotientGraph) -> dict:
    return {
        "schema": "ck-spectra/quotient/1",
        "graph": graph_payload(q.graph),
        "primed": {v: q.primed[v] for v in sorted(q.primed)},
    }


def pair_payload(g: Graph, hmask: int, smask: int) -> dict:
    return {"h": g.listing(hmask), "s": g.listing(smask)}


def emit_json(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _dot_label(b) -> str:
    parts = []
    if b.label:
        parts.append(b.label)
    if is_omega(b.mult):
        parts.append("∞")
    elif b.mult != 1:
        parts.append(f"×{b.mult}")
    return " ".join(parts)


def emit_dot(obj) -> str:
    """Graphviz source for a graph or a quotient graph."""
    if isinstance(obj, QuotientGraph):
        g = obj.graph
        primed = {copy: orig for orig, copy in obj.primed.items()}
    else:
        g = obj
        primed = {}
    lines = ["digraph E {", "  rankdir=LR;"]
    for v in g.vertices:
        if v in primed:
            lines.append(f'  "{v}" [label="{primed[v]}′" shape=doublecircle];')
        else:
            lines.append(f'  "{v}";')
    for b in g.bundles:
        label = _dot_label(b)
        attr = f' [label="{label}"]' if label else ""
        lines.append(f'  "{b.src}" -> "{b.dst}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
