"""Command-line surface.

Exit codes: 0 success, 1 verification counterexample, 2 parse error or
argparse usage error, 3 precondition violation or an input that cannot be
read, 4 size limit (only ``ideals`` and ``verify``: more ideals than
``--limit``, or a ``verify`` sweep of more than 2^20 subsets), 5 internal
error, 141 (128 + SIGPIPE, as for a writer the signal ends) when stdout
closes early, as under ``| head -1``; that case prints nothing.

A plain command line is read straight from the command table ``_COMMANDS``:
the command words, then exact option strings with their values and the path.
Anything else (help, ``--version``, abbreviations, ``--opt=value``, usage
errors) goes to the argparse parser that :func:`build_parser` makes from it.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import CkSpectraError, ParseError, SizeLimitExceeded, UnknownVertex, VerificationFailure
from .gcg import emit_gcg, parse_graph
from .generators import ea_graph, random_condition_k_graph, random_graph, running_example
from .graph_core import (
    OMEGA,
    Graph,
    Mult,
    _require_condition_k,
    check_mult,
    condition_K,
    condition_L,
    has_csp,
    is_downward_directed,
)
from .ideals import (
    DEFAULT_ENUMERATION_LIMIT,
    _named,
    _verify_record,
    _walk,
    admissible_pair,
    quotient_graph,
    saturated_hereditary_sets,
)
from .render import emit_dot, emit_json, graph_json, ideals_json, pair_payload, quotient_json
from .tails import (
    BoundaryPath,
    _cluster_masks,
    _finite_return_mask,
    _realize_mask,
    _tail_mask,
    maximal_tails,
    mt_report,
    realize_as_tail,
)
from .topology import (
    _h_masks,
    _spec_masks,
    check_kuratowski,
    graph_closure,
    ideal_closure,
    prim_space,
    separation_report,
    spec_points,
    spec_space,
    verify_homeomorphism,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SIZE = 4
EXIT_INTERNAL = 5
EXIT_CLOSED_PIPE = 141


def _load(path: str) -> Graph:
    """Parse a .gcg file, or stdin for ``-``; the bytes must be UTF-8.

    The first byte that is not is a parse error at its line and column.
    """
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    # line endings as text-mode open() reads them
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[: err.start].decode("utf-8")
        line, col = head.count("\n") + 1, len(head) - head.rfind("\n")
        raise ParseError(line, col, f"byte 0x{data[err.start]:02x} is not valid UTF-8") from None
    return parse_graph(text)


def _fmt_set(g: Graph, mask: int) -> str:
    return "{" + ", ".join(g.listing(mask)) + "}"


def _fmt_pair(g: Graph, hmask: int, smask: int) -> str:
    return f"(H={_fmt_set(g, hmask)}, S={_fmt_set(g, smask)})"


def _fmt_path(path: BoundaryPath) -> str:
    def hops(bundles):
        return "".join(f" -{b.label or ''}-> {b.dst}" for b in bundles)

    text = path.base + hops(path.prefix)
    if path.cycle:
        text += " (" + path.cycle[0].src + hops(path.cycle) + " repeating)"
    return text


def _comma_set(text: str) -> frozenset:
    return frozenset(t.strip() for t in text.split(",") if t.strip())


def _point_names(g: Graph) -> dict:
    """Each point's name: T1, T2, ... for the clusters, which come first, and FR:v
    for the return vertex v."""
    return {
        p: f"FR:{g.listing(r)[0]}" if r else f"T{i}"
        for i, (p, (_, r, _)) in enumerate(zip(spec_points(g), _spec_masks(g)), 1)
    }


def _parse_points(names: dict, spec: str) -> frozenset:
    by_name = {v: k for k, v in names.items()}
    tokens = _comma_set(spec)
    unknown = sorted(tokens - by_name.keys())
    if unknown:
        raise UnknownVertex(f"unknown point {unknown[0]!r}; points are: {', '.join(names.values()) or '(none)'}")
    return frozenset(by_name[t] for t in tokens)


# -- subcommands ----------------------------------------------------------------


def cmd_check(args) -> int:
    g = _load(args.path)
    sinks, emitters, regular = g.class_masks
    k = condition_K(g)
    l = condition_L(g)
    dd = is_downward_directed(g, g.vertices)
    csp = has_csp(g, g.full_mask).witness
    if args.json:
        payload = {
            "schema": "ck-spectra/check/1",
            "vertices": len(g.vertices),
            "sinks": g.listing(sinks),
            "infinite_emitters": g.listing(emitters),
            "regular": g.listing(regular),
            "condition_k": k.holds,
            "condition_k_witness": k.witness,
            "condition_l": l.holds,
            "condition_l_witness": list(l.witness) if l.witness else None,
            "downward_directed": dd.holds,
            "downward_directed_witness": list(dd.witness) if dd.witness else None,
            "csp_witness": g.listing(csp),
        }
        sys.stdout.write(emit_json(payload))
        return EXIT_OK
    print(f"vertices: {len(g.vertices)}")
    print(f"sinks: {_fmt_set(g, sinks)}")
    print(f"infinite emitters: {_fmt_set(g, emitters)}")
    print(f"regular: {_fmt_set(g, regular)}")
    if k:
        print("condition K: yes")
    else:
        print(f"condition K: no (vertex {k.witness} has exactly one simple cycle)")
    if l:
        print("condition L: yes")
    else:
        print(f"condition L: no (exitless cycle through {', '.join(l.witness)})")
    if dd:
        print("downward directed: yes")
    else:
        u, v = dd.witness
        print(f"downward directed: no (no common vertex below {u} and {v})")
    print(f"csp witness: {_fmt_set(g, csp)}")
    return EXIT_OK


def cmd_tails(args) -> int:
    g = _load(args.path)
    # the maximal tails are the clusters, named in the order of their masks
    tails, masks, fr = maximal_tails(g), _cluster_masks(g), _finite_return_mask(g)
    if args.json:
        listed = [g.listing(m) for m in masks]
        payload = {
            "schema": "ck-spectra/tails/1",
            "maximal_tails": listed,
            "clusters": listed,
            "clusters_equal_tails": True,
            "finite_return_vertices": g.listing(fr),
        }
        sys.stdout.write(emit_json(payload))
        return EXIT_OK
    print(f"maximal tails ({len(tails)}):")
    for i, (t, m) in enumerate(zip(tails, masks), 1):
        rep = mt_report(g, t)
        flags = " ".join(
            f"{name}={'yes' if ok else 'no'}"
            for name, ok in [("mt1", rep.mt1), ("mt2", rep.mt2), ("mt3", rep.mt3), ("mt4", rep.mt4)]
        )
        print(f"  T{i} = {_fmt_set(g, m)}  [{flags}]")
        print(f"       realized by: {_fmt_path(realize_as_tail(g, t))}")
    print("clusters match maximal tails: yes")
    print(f"finite-return vertices: {_fmt_set(g, fr)}")
    return EXIT_OK


def cmd_ideals(args) -> int:
    g = _load(args.path)
    _require_condition_k(g)
    sh = saturated_hereditary_sets(g, args.limit)
    # the whole walk before any output, so a size limit prints nothing
    rows = [(*pair, direct, direct == quotient) for pair, direct, quotient, _ in _walk(g, args.limit)]
    if args.json:
        print(ideals_json(g, sh, rows))
        return EXIT_OK
    print(f"saturated hereditary sets: {len(sh)}")
    print(f"admissible pairs: {len(rows)}")
    for hmask, smask, direct, agree in rows:
        print(f"  {_fmt_pair(g, hmask, smask)} -> {direct.describe()} [{'agree' if agree else 'DISAGREE'}]")
    print(f"prime ideals: {sum(row[2].is_prime for row in rows)}")
    return EXIT_OK


def cmd_quotient(args) -> int:
    g = _load(args.path)
    pair = admissible_pair(g, _comma_set(args.H), _comma_set(args.S))
    q = quotient_graph(g, pair)
    if args.json:
        print(quotient_json(q))
    elif args.dot:
        sys.stdout.write(emit_dot(q))
    else:
        sys.stdout.write(emit_gcg(q.graph))
        for v in sorted(q.primed):
            print(f"# sink copy: {q.primed[v]} = {v}'")
    return EXIT_OK


def _space_listing(g: Graph, space, json_mode: bool) -> int:
    """Print the space's points, each from its vertex mask, return-vertex bit
    and pair, with their closures and separation verdicts."""
    pts, names = space.points, _point_names(g)
    rows = list(zip(pts, _spec_masks(g), _h_masks(g)))
    sep = separation_report(space)
    closure_of = {p: [] for p in pts}
    for p, q in sep.specialization:
        closure_of[p].append(names[q])
    closure_of = {p: sorted(closure) for p, closure in closure_of.items()}
    arrows = [[names[p], names[q]] for p, q in sep.specialization if p != q]
    if json_mode:
        payload = {
            "schema": f"ck-spectra/{space.name}/1",
            "points": [
                {
                    "name": names[p],
                    "kind": "finite-return" if r else "cluster",
                    "vertices": g.listing(r or w),
                    "ideal": pair_payload(g, *pair),
                    "closure": closure_of[p],
                }
                for p, (w, r, _), pair in rows
            ],
            "specialization": arrows,
            "non_closed_singletons": [names[p] for p in sep.non_closed_singletons],
            "t0": sep.t0,
            "t1": sep.t1,
            "hausdorff": sep.hausdorff,
        }
        sys.stdout.write(emit_json(payload))
        return EXIT_OK
    print(f"points ({len(pts)}):")
    for p, (w, r, _), pair in rows:
        print(f"  {names[p]} = {f'return vertex {g.listing(r)[0]}' if r else _fmt_set(g, w)}")
        print(f"       ideal: {_fmt_pair(g, *pair)}")
        print(f"       closure: {{{', '.join(closure_of[p])}}}")
    print("specialization (p -> q means q lies in the closure of {p}):")
    for p, q in arrows:
        print(f"  {p} -> {q}")
    print(f"non-closed singletons: {', '.join(names[p] for p in sep.non_closed_singletons) or '(none)'}")
    print(f"T0: {'yes' if sep.t0 else 'no'}")
    print(f"T1: {'yes' if sep.t1 else 'no'}")
    print(f"Hausdorff: {'yes' if sep.hausdorff else 'no'}")
    return EXIT_OK


def cmd_spec(args) -> int:
    g = _load(args.path)
    return _space_listing(g, spec_space(g), args.json)


def cmd_prim(args) -> int:
    g = _load(args.path)
    return _space_listing(g, prim_space(g), args.json)


def cmd_closure(args) -> int:
    g = _load(args.path)
    names = _point_names(g)
    xs = _parse_points(names, args.points)
    left, right = graph_closure(g, xs), ideal_closure(g, xs)
    given, graph_side, ideal_side = (sorted(names[p] for p in ps) for ps in (xs, left, right))
    if args.json:
        payload = {
            "schema": "ck-spectra/closure/1",
            "space": args.space,
            "input": given,
            "graph_side": graph_side,
            "ideal_side": ideal_side,
            "agree": left == right,
        }
        sys.stdout.write(emit_json(payload))
    else:
        print(f"input points: {', '.join(given) or '(none)'}")
        print(f"graph-side closure ({len(left)}): {', '.join(graph_side) or '(none)'}")
        print(f"ideal-side closure ({len(right)}): {', '.join(ideal_side) or '(none)'}")
        print(f"agreement: {'yes' if left == right else 'NO'}")
    return EXIT_OK if left == right else EXIT_COUNTEREXAMPLE


def cmd_verify(args) -> int:
    g = _load(args.path)
    hom = verify_homeomorphism(g, args.exhaustive_limit, limit=args.limit, seed=args.seed)
    print(
        f"homeomorphism: ok (points={hom.points}, prime pairs={hom.prime_pairs}, "
        f"spec subsets={hom.spec_subsets_checked}, prim subsets={hom.prim_subsets_checked})"
    )
    # every prime ideal of a separable C*-algebra is primitive (Dixmier), so
    # the primitive points are the prime points and the prim lines report the
    # sweeps of the one space
    lines = []
    for side in ("graph", "ideal"):
        rep = check_kuratowski(spec_space(g, side), args.exhaustive_limit, seed=args.seed)
        if not rep.ok:
            raise VerificationFailure(
                f"kuratowski axioms fail for spec/{side}: {rep.failures[0]}", rep.failures
            )
        lines.append(f"{side}: ok (subsets={rep.subsets_checked}, union pairs={rep.union_pairs_checked})")
        print(f"kuratowski spec/{lines[-1]}")
    for line in lines:
        print(f"kuratowski prim/{line}")
    print(f"primitive = prime points: ok ({hom.points} points)")
    # MT4 holds on every finite vertex set, so the direct route has decided each cluster
    record, tails = _verify_record(g, args.limit), _cluster_masks(g)
    if missing := [t for t in tails if t not in record.tails]:
        raise VerificationFailure("a cluster is not a maximal tail", g.names(missing[0]))
    print(f"tails equal clusters: ok ({len(tails)})")

    if record.disagree is not None:
        raise VerificationFailure("classification routes disagree", _named(g, record.disagree))
    print("classification agreement: ok")

    for t in tails:
        if _tail_mask(g, _realize_mask(g, t)) != t:
            raise VerificationFailure("realization does not round-trip", g.names(t))
    print("tail realization round-trip: ok")

    if record.without_l is not None:
        raise VerificationFailure("a quotient of a Condition-(K) graph violates (L)", _named(g, record.without_l))
    print("quotients satisfy condition L: ok")
    print("all checks passed")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "fixture":
        g = running_example()
    elif args.kind == "ea":
        try:
            g = ea_graph(_comma_set(args.set), args.mult)
        except ValueError as err:
            print(f"precondition violation: {err}", file=sys.stderr)
            return EXIT_PRECONDITION
    else:
        if args.allow_non_k:
            g = random_graph(args.seed, args.n, args.density, args.omega_prob)
        else:
            g = random_condition_k_graph(args.seed, args.n, args.density, args.omega_prob)
    sys.stdout.write(emit_gcg(g))
    return EXIT_OK


def cmd_export(args) -> int:
    g = _load(args.path)
    if args.dot and not args.json:  # --json wins, as in ``quotient``
        sys.stdout.write(emit_dot(g))
    else:
        print(graph_json(g))
    return EXIT_OK


# -- argument plumbing -----------------------------------------------------------


def multiplicity(text: str) -> Mult:
    """A count, or inf; argparse reports a rejected value as a usage error."""
    return OMEGA if text == "inf" else check_mult(int(text))


def count(text: str) -> int:
    """An int >= 0; argparse reports a rejected value as a usage error."""
    if (n := int(text)) < 0:
        raise ValueError(text)
    return n


def probability(text: str) -> float:
    """A float in [0, 1] (so not nan); argparse reports a rejected value as a usage error."""
    if not 0 <= (p := float(text)) <= 1:
        raise ValueError(text)
    return p


_FLAG = dict(action="store_true")
_LIMIT_HELP = "cap on the ideals (admissible pairs) enumerated; past it, exit 4 (default: %(default)s)"
_LIMIT = dict(type=count, default=DEFAULT_ENUMERATION_LIMIT, help=_LIMIT_HELP)

# In help order: (words, handler, help, takes the path, {flag: add_argument keywords}).
# No handler groups the entries after it; found by name, a wrapped cmd_* is called.
_COMMANDS = (
    (("check",), "cmd_check", "structural predicates and vertex classes", True, {"--json": _FLAG}),
    (("tails",), "cmd_tails", "maximal tails, clusters and finite-return vertices", True, {"--json": _FLAG}),
    (("ideals",), "cmd_ideals", "admissible pairs with their classification", True, {
        "--limit": _LIMIT, "--json": _FLAG,
    }),
    (("quotient",), "cmd_quotient", "quotient graph of an admissible pair", True, {
        "--H": dict(default="", help="comma-separated saturated hereditary set"),
        "--S": dict(default="", help="comma-separated kept breaking vertices"),
        "--json": _FLAG, "--dot": _FLAG,
    }),
    (("spec",), "cmd_spec", "prime spectrum with its topology", True, {"--json": _FLAG}),
    (("prim",), "cmd_prim", "primitive ideal space with its topology", True, {"--json": _FLAG}),
    (("closure",), "cmd_closure", "closure of a point set along both routes", True, {
        "--points": dict(default="", help="comma-separated point names (T1, FR:v, ...)"),
        "--space": dict(choices=("spec", "prim"), default="spec"), "--json": _FLAG,
    }),
    (("verify",), "cmd_verify", "run the full property suite on one graph", True, {
        "--limit": _LIMIT, "--exhaustive-limit": dict(type=count, default=12), "--seed": dict(type=int, default=0),
    }),
    (("gen",), None, "emit a generated graph as .gcg", False, {}),
    (("gen", "fixture"), "cmd_gen", "the seven-vertex reference example", False, {}),
    (("gen", "ea"), "cmd_gen", "subset graph on a ground set", False, {
        "--set": dict(required=True, help="comma-separated ground elements"),
        "--mult": dict(type=multiplicity, default="1", help="bundle multiplicity (count or inf)"),
    }),
    (("gen", "random"), "cmd_gen", "seeded random Condition-(K) graph", False, {
        "--seed": dict(type=int, required=True), "--n": dict(type=count, required=True),
        "--density": dict(type=probability, default=0.3), "--omega-prob": dict(type=probability, default=0.25),
        "--allow-non-k": dict(action="store_true", help="skip the repair pass"),
    }),
    (("export",), "cmd_export", "emit a parsed graph as JSON or DOT", True, {"--json": _FLAG, "--dot": _FLAG}),
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every entry of the command table."""
    parser = argparse.ArgumentParser(
        prog="ck-spectra",
        description="Ideal lattices and prime/primitive spectra of graph algebras under Condition (K).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, handler, help_text, takes_path, options in _COMMANDS:
        p = groups[words[:-1]].add_parser(words[-1], help=help_text)
        if handler is None:
            groups[words] = p.add_subparsers(dest="kind", required=True)
            continue
        if takes_path:
            p.add_argument("path", help="input .gcg file, or - for stdin")
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=globals()[handler])
    return parser


def _parse_exact(argv: list) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)`` for a plain spelling, whose one path is
    ``-`` or does not start with ``-``; None for any other."""
    for words, handler, _, takes_path, options in _COMMANDS:
        if handler and tuple(argv[: len(words)]) == words:
            break
    else:
        return None
    found = {"kind": words[1]} if len(words) > 1 else {}  # the namespace, less command and func
    given = {}
    tokens = iter(argv[len(words) :])
    for token in tokens:
        if token not in options:
            if not takes_path or "path" in found or token.startswith("-") and token != "-":
                return None
            found["path"] = token
        elif options[token].get("action"):
            given[token] = True
        elif (text := next(tokens, "-")).startswith("-"):
            return None
        else:
            try:  # as argparse reads a value: its type, then its choices
                given[token] = value = options[token].get("type", str)(text)
            except (TypeError, ValueError):
                return None
            if value not in options[token].get("choices", (value,)):
                return None
    if takes_path and "path" not in found:
        return None
    for flag, keywords in options.items():
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        elif isinstance(value := keywords.get("default", False if keywords.get("action") else None), str):
            value = keywords.get("type", str)(value)  # as argparse reads a string default
        found[flag[2:].replace("-", "_")] = value
    return argparse.Namespace(command=words[0], func=globals()[handler], **found)


def _parse(argv) -> argparse.Namespace:
    """Build the argparse parser only for what :func:`_parse_exact` declines."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return _parse_exact(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone by now shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the flush at interpreter exit would fail again and print a traceback
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimitExceeded as err:
        print(f"size limit: {err}", file=sys.stderr)
        return EXIT_SIZE
    except VerificationFailure as err:
        print(f"verification counterexample: {err}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except CkSpectraError as err:  # the precondition errors: the rest are handled above
        print(f"precondition violation: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
