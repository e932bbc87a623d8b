"""Regenerate the benchmark corpus and the expected output of every op.

    PYTHONPATH=src python3 perfbench/make_corpus.py

Writes ``perfbench/corpus/**.gcg`` and ``perfbench/expected.json``.  Graphs
made by ``ck-spectra gen`` are written from the CLI's own output; the DAGs,
cycles and chains come from the generators below.  Expectations are the exit
code and SHA-256 of stdout of each op, computed in a thread with a deep stack
and a raised recursion limit, so an op that dies of RecursionError under the
default limit still gets the output it should print.  Tail and saturated
hereditary counts printed by the ops are cross-checked against the literal
quantifier oracles in ``tests/oracles.py``.

Run it only when the corpus must change; the benchmark never calls it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import workloads as W  # noqa: E402
from ck_spectra import cli  # noqa: E402
from ck_spectra.gcg import parse_graph  # noqa: E402

EXPECTED = os.path.join(ROOT, "perfbench", "expected.json")


def dag_text(seed: int, n: int, p: float = 0.2) -> str:
    """Vertices with a multiplicity-2 loop, joined forward by bundles of 1, 2 or inf."""
    rng = random.Random(seed)
    vs = [f"d{i}" for i in range(n)]
    lines = [f"vertex {', '.join(vs)};"] + [f"edge {v} -> {v} * 2;" for v in vs]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                mult = rng.choice(("", " * 2", " * inf"))
                lines.append(f"edge {vs[i]} -> {vs[j]}{mult};")
    return "\n".join(lines) + "\n"


def cycle_text(n: int, chords: int, seed: int, *, doubled: bool) -> str:
    """A cycle c0 -> ... -> c(n-1) -> c0 plus seeded chords; c0 -> c1 doubled if asked."""
    rng = random.Random(seed)
    lines = [f"vertex {', '.join(f'c{i}' for i in range(n))};"]
    for i in range(n):
        mult = " * 2" if doubled and i == 0 else ""
        lines.append(f"edge c{i} -> c{(i + 1) % n}{mult};")
    for _ in range(chords):
        lines.append(f"edge c{rng.randrange(n)} -> c{rng.randrange(n)};")
    return "\n".join(lines) + "\n"


def chain_text(blocks: int, size: int, seed: int) -> str:
    """Strongly connected blocks (cycles with one doubled edge), each joined to the next."""
    rng = random.Random(seed)
    names = [[f"s{b}_{i}" for i in range(size)] for b in range(blocks)]
    lines = [f"vertex {', '.join(v for block in names for v in block)};"]
    for b, block in enumerate(names):
        for i in range(size):
            mult = " * 2" if i == 0 else ""
            lines.append(f"edge {block[i]} -> {block[(i + 1) % size]}{mult};")
        if b + 1 < blocks:
            lines.append(f"edge {rng.choice(block)} -> {rng.choice(names[b + 1])};")
    return "\n".join(lines) + "\n"


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def run_deep(argv) -> tuple[int, str]:
    """run_cli without the default recursion limit (deep stack in a thread)."""
    result = {}
    old_limit = sys.getrecursionlimit()
    old_stack = threading.stack_size(512 * 1024 * 1024)
    sys.setrecursionlimit(200_000)
    try:
        worker = threading.Thread(target=lambda: result.update(r=run_cli(argv)))
        worker.start()
        worker.join()
    finally:
        sys.setrecursionlimit(old_limit)
        threading.stack_size(old_stack)
    return result["r"]


def write(name: str, text: str) -> None:
    path = os.path.join(ROOT, W.gcg(name))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def make_corpus() -> None:
    for n, seeds in W.RANDOM_K.items():
        for s in seeds:
            write(W.random_k_name(n, s), run_cli(("gen", "random", "--seed", str(s), "--n", str(n)))[1])
    write("lattice-rich/fixture", run_cli(("gen", "fixture"))[1])
    write("lattice-rich/ea3-1", run_cli(("gen", "ea", "--set", "a,b,c"))[1])
    write("lattice-rich/ea3-w", run_cli(("gen", "ea", "--set", "a,b,c", "--mult", "inf"))[1])
    for n in W.DAG_SIZES:
        for s in W.DAG_SEEDS:
            write(W.dag_name(n, s), dag_text(1000 * n + s, n))
    for n in W.SPARSE_SIZES:
        for s in W.SPARSE_SEEDS:
            write(W.sparse_name(n, s), run_cli(W.sparse_gen_argv(n, s))[1])
    for n in W.CHORDED_SIZES:
        for s in W.SHAPE_SEEDS:
            write(W.chorded_name(n, s), cycle_text(n, n // 10, s, doubled=True))
    for b, k in W.CHAIN_SHAPES:
        for s in W.SHAPE_SEEDS:
            write(W.chain_name(b, k, s), chain_text(b, k, s))
    write("large-sparse/cycle1500", cycle_text(1500, 0, 1, doubled=False))
    write("large-sparse/chorded1500", cycle_text(1500, 150, 1, doubled=True))


def oracle_check(key: str, out: str) -> dict:
    """Cross-check tail and saturated-hereditary counts in an op's output."""
    from tests.oracles import oracle_sat_her, oracle_tails

    path = key.split()[-1]
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    found = {}
    if m := re.search(r"^maximal tails \((\d+)\):", out, re.M):
        found["tails"] = (int(m.group(1)), len(oracle_tails(g)))
    if m := re.search(r"^saturated hereditary sets: (\d+)", out, re.M):
        found["sat_her_sets"] = (int(m.group(1)), len(oracle_sat_her(g)))
    if key.startswith("ideals --json"):
        found["sat_her_sets"] = (len(json.loads(out)["saturated_hereditary_sets"]), len(oracle_sat_her(g)))
    if key.startswith("spec --json"):
        clusters = sum(p["kind"] == "cluster" for p in json.loads(out)["points"])
        found["tails"] = (clusters, len(oracle_tails(g)))
    for what, (printed, oracle) in found.items():
        if printed != oracle:
            raise SystemExit(f"{key}: {what} printed {printed}, oracle finds {oracle}")
    return {what: printed for what, (printed, _) in found.items()}


def make_expected() -> dict:
    expected = {}
    for workload in W.WORKLOADS:
        for op in W.ops(workload):
            code, out = run_deep(op.argv)
            data = out.encode("utf-8")
            entry = {"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
            if workload != "large-sparse":
                entry["oracle_counts"] = oracle_check(op.key, out)
            if op.command == "gen":
                n, s = int(op.argv[5]), int(op.argv[3])
                with open(os.path.join(ROOT, W.gcg(W.sparse_name(n, s))), "rb") as fh:
                    if fh.read() != data:
                        raise SystemExit(f"{op.key}: output differs from the corpus file")
            expected[op.key] = entry
            print(f"{workload}: {op.key} -> exit {code}, {len(data)} bytes", file=sys.stderr)
    return expected


if __name__ == "__main__":
    os.chdir(ROOT)
    make_corpus()
    expected = make_expected()
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
