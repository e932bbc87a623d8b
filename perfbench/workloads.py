"""The three benchmark workloads: their input pools and the op list of one pass.

An op is one ``ck-spectra <command> ...`` call.  Every input is a committed
``.gcg`` file under ``perfbench/corpus``, and each op has one stored
expectation in ``perfbench/expected.json``.  A pass runs every op of its
workload once; the run seed sets the order, so the op mix of a run does not
depend on the seed.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

CORPUS = "perfbench/corpus"

# random-k: ``gen random --seed S --n N`` at its default density, n -> seeds.
# Seed 1 is left out because its n = 14 graph has 5 points; every pool graph
# has 1-3.  With eight n = 14 graphs to two n = 15 ones, the 90th percentile
# falls inside the cluster of n = 14 verify ops instead of on the edge
# between the two sizes, where it jumped by 30% from run to run.
RANDOM_K = {14: tuple(range(2, 10)), 15: (2, 3)}

# lattice-rich: DAGs of double-loop vertices (see make_corpus.dag_text).
DAG_SIZES = tuple(range(8, 13))
DAG_SEEDS = tuple(range(3))
LATTICE_FIXED = ("fixture", "ea3-1", "ea3-w")

# large-sparse: ``gen random`` at density 2/n, chorded cycles with one doubled
# edge, chains of strongly connected blocks, and 1,500-vertex cycles.
SPARSE_SIZES = {200: "0.01", 250: "0.008", 400: "0.005"}
SPARSE_SEEDS = tuple(range(1, 5))
CHORDED_SIZES = (300, 450)
CHAIN_SHAPES = ((20, 15), (20, 20))  # (blocks, block size)
SHAPE_SEEDS = tuple(range(1, 4))

WORKLOADS = ("random-k", "lattice-rich", "large-sparse")


@dataclass(frozen=True)
class Op:
    argv: tuple  # arguments after ``ck-spectra``; paths are relative to the repo root

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        """Stable name of the op, used to look up its expectation."""
        return " ".join(self.argv)


def gcg(name: str) -> str:
    return f"{CORPUS}/{name}.gcg"


def random_k_name(n: int, seed: int) -> str:
    return f"random-k/r{n}-s{seed}"


def dag_name(n: int, seed: int) -> str:
    return f"lattice-rich/dag{n}-s{seed}"


def sparse_name(n: int, seed: int) -> str:
    return f"large-sparse/sparse{n}-s{seed}"


def chorded_name(n: int, seed: int) -> str:
    return f"large-sparse/chorded{n}-s{seed}"


def chain_name(blocks: int, size: int, seed: int) -> str:
    return f"large-sparse/chain{blocks}x{size}-s{seed}"


def sparse_gen_argv(n: int, seed: int) -> tuple:
    return ("gen", "random", "--seed", str(seed), "--n", str(n), "--density", SPARSE_SIZES[n])


def _analyse(names, commands) -> list[Op]:
    return [Op((*cmd, gcg(name))) for name in names for cmd in commands]


def ops(workload: str) -> list[Op]:
    """Every op of one pass of the workload: each pool input with each command."""
    if workload == "random-k":
        names = [random_k_name(n, s) for n, seeds in RANDOM_K.items() for s in seeds]
        return _analyse(names, (("check",), ("tails",), ("ideals",), ("spec",), ("verify",)))
    if workload == "lattice-rich":
        names = [f"lattice-rich/{f}" for f in LATTICE_FIXED] + [
            dag_name(n, s) for n in DAG_SIZES for s in DAG_SEEDS
        ]
        return _analyse(names, (("ideals", "--json"), ("spec", "--json"), ("verify",)))
    if workload == "large-sparse":
        sparse = [(n, s) for n in SPARSE_SIZES for s in SPARSE_SEEDS]
        names = (
            [sparse_name(n, s) for n, s in sparse]
            + [chorded_name(n, s) for n in CHORDED_SIZES for s in SHAPE_SEEDS]
            + [chain_name(b, k, s) for b, k in CHAIN_SHAPES for s in SHAPE_SEEDS]
            # ``check`` on this plain cycle dies with RecursionError in
            # simple_cycle_class today; it stays at 1,500 so the failure shows.
            + ["large-sparse/cycle1500"]
        )
        return (
            [Op(sparse_gen_argv(n, s)) for n, s in sparse]
            + _analyse(names, (("check",), ("export", "--json")))
            + [Op(("export", "--json", gcg("large-sparse/chorded1500")))]
        )
    raise ValueError(f"unknown workload {workload!r}")
