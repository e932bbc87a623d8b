"""JSON and DOT output.

Every JSON payload carries a versioned top-level ``schema`` field and lists
vertices and sets in the canonical declaration order, so output is
byte-stable across runs.  Each JSON writer gives the bytes of
``json.dumps(payload, indent=2, ensure_ascii=False)`` (``oracle_emit_json``
in ``tests/oracles.py``).  ``emit_json`` writes the small payloads, of
``str``-keyed dicts, lists, tuples, ``str``, ``int``, ``bool`` and ``None``
(anything else raises ``TypeError``), as fragments joined once, each list of
strings escaped in one C call.  The graph, quotient and ideals schemas build
no payload: one template per row writes each bundle from its fields and each
vertex set from its mask, with every name quoted once per call.  DOT output
renders OMEGA bundles with the label ``∞`` and quotient sink copies with a
prime suffix.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from json.encoder import encode_basestring as _quote

from .graph_core import OMEGA, Graph, _mask_bytes, is_omega
from .ideals import IdealKind, QuotientGraph

_INF = '"inf"'  # OMEGA in the graph schema


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


def pair_payload(g: Graph, hmask: int, smask: int) -> dict:
    return {"h": g.listing(hmask), "s": g.listing(smask)}


def _array(items: list, pad: str) -> str:
    """The JSON array of the written ``items``, each on its own line one step in from ``pad``."""
    inner = "\n" + pad + "  "
    return f"[{inner}{(',' + inner).join(items)}\n{pad}]" if items else "[]"


def _write(o, pad: str, out: list) -> None:
    """Append the JSON text of ``o``, indented from ``pad``, to ``out``."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None or type(o) is bool:
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, dict):  # _quote raises TypeError on a key that is not a str
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in o.items():
            out.append(sep + _quote(k) + ": ")
            _write(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}" if o else "{}")
    elif isinstance(o, (list, tuple)):
        try:
            out.append(_array(list(map(_quote, o)), pad))
        except TypeError:  # not all strings: each element in place, between the array's delimiters
            frame = _array(["\0"] * len(o), pad).split("\0")
            out.append(frame[0])
            for v, after in zip(o, frame[1:]):
                _write(v, pad + "  ", out)
                out.append(after)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def emit_json(payload) -> str:
    out = []
    _write(payload, "", out)
    out.append("\n")
    return "".join(out)


def graph_json(g: Graph, pad: str = "") -> str:
    """The graph schema, indented from ``pad``, without a final newline."""
    quoted = dict(zip(g.vertices, map(_quote, g.vertices)))
    row = pad + "    "
    bundles = [
        f'{{\n{row}  "label": {"null" if b.label is None else _quote(b.label)},\n{row}  "src": {quoted[b.src]},'
        f'\n{row}  "dst": {quoted[b.dst]},\n{row}  "mult": {_INF if b.mult == OMEGA else int.__repr__(b.mult)}\n{row}}}'
        for b in g.bundles
    ]
    return (
        f'{{\n{pad}  "schema": "ck-spectra/graph/1",\n{pad}  "vertices": {_array(list(quoted.values()), pad + "  ")},'
        f'\n{pad}  "bundles": {_array(bundles, pad + "  ")}\n{pad}}}'
    )


def quotient_json(q: QuotientGraph) -> str:
    """The quotient schema, its graph nested one step in, without a final newline."""
    out = ['{\n  "schema": "ck-spectra/quotient/1",\n  "graph": ', graph_json(q.graph, "  "), ',\n  "primed": ']
    _write({v: q.primed[v] for v in sorted(q.primed)}, "  ", out)
    out.append("\n}")
    return "".join(out)


def ideals_json(g: Graph, sh, rows) -> str:
    """The ideals schema, without a final newline: the saturated hereditary
    masks ``sh``, then one row (hmask, smask, direct class, whether the
    quotient route agrees) per admissible pair."""
    quoted, kinds = list(map(_quote, g.vertices)), {k: _quote(k.value) for k in IdealKind}
    # each vertex set at the pad of a pair's fields, for this call only: H repeats across pairs
    listed = cache(lambda mask: _array(list(compress(quoted, _mask_bytes(mask))), "      "))
    pairs = [
        f'{{\n      "h": {listed(h)},\n      "s": {listed(s)},\n      "class": {kinds[d.kind]},'
        f'\n      "v0": {"null" if d.v0 is None else _quote(d.v0)},'
        f'\n      "quotient_route_agrees": {"true" if agree else "false"}\n    }}'
        for h, s, d, agree in rows
    ]
    # one step further out; a name's own line breaks are escaped, so each one left is layout
    sets = _array([listed(h).replace("\n  ", "\n") for h in sh], "  ")
    return f'{{\n  "schema": "ck-spectra/ideals/1",\n  "saturated_hereditary_sets": {sets},\n  "pairs": {_array(pairs, "  ")}\n}}'


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
