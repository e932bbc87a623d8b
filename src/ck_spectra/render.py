"""JSON and DOT output.

Every JSON payload carries a versioned top-level ``schema`` field and lists
vertices and sets in the canonical declaration order, so output is
byte-stable across runs.  ``emit_json`` writes the bytes of its oracle
``json.dumps(payload, indent=2, ensure_ascii=False)`` (``tests/oracles.py``),
whose ``indent`` runs the pure-Python encoder, but escapes each list of
strings in one call to the C ``encode_basestring``.  Dicts with ``str`` keys,
``str``, ``int``, ``bool``, ``None``, lists and tuples are accepted (no
payload has a float); anything else raises ``TypeError``.  DOT output renders
OMEGA bundles with the label ``∞`` and quotient sink copies with a prime suffix.
"""

from __future__ import annotations

from json.encoder import encode_basestring as _quote

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


def _write(o, pad: str) -> str:
    if isinstance(o, str):
        return _quote(o)
    if o is None or type(o) is bool:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner, sep = pad + "  ", ",\n" + pad + "  "
    if isinstance(o, dict):  # _quote raises TypeError on a key that is not a str
        body = sep.join(_quote(k) + ": " + _write(v, inner) for k, v in o.items())
        return f"{{\n{inner}{body}\n{pad}}}" if o else "{}"
    if not isinstance(o, (list, tuple)):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    try:
        body = sep.join(map(_quote, o))
    except TypeError:  # not all strings: one call per element
        body = sep.join(_write(v, inner) for v in o)
    return f"[\n{inner}{body}\n{pad}]" if o else "[]"


def emit_json(payload) -> str:
    return _write(payload, "") + "\n"


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
