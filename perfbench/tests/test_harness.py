"""Self-checks of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

They take about two minutes: they fork ops, start fresh interpreters and run the
harness end to end on large-sparse.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [PERF, SRC]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ck_spectra import cli  # noqa: E402

with open(os.path.join(PERF, "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

# About 0.4 s of work: long enough to compare against a fresh process.
OP = workloads.Op(("verify", workloads.gcg(workloads.random_k_name(14, 2))))


def _cache_entries() -> int:
    """Entries held by every lru_cache in the ck_spectra modules."""
    total = 0
    for name, module in list(sys.modules.items()):
        if name == "ck_spectra" or name.startswith("ck_spectra."):
            total += sum(v.cache_info().currsize for v in vars(module).values() if hasattr(v, "cache_info"))
    return total


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _fork_vs_fresh() -> tuple[float, float, float]:
    """Medians of (fresh CLI process, setup_s sample, forked op), interleaved
    so that all three see the same machine speed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    forked, fresh, setup = [], [], []
    for _ in range(5):
        result = run.run_op(OP, EXPECTED)
        assert result.status == "ok", result.detail
        forked.append(result.elapsed)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ck_spectra.cli", *OP.argv], cwd=ROOT, env=env, capture_output=True, check=True
        )
        fresh.append(time.perf_counter() - start)
        assert hashlib.sha256(proc.stdout).hexdigest() == EXPECTED[OP.key]["sha256"]
        setup.append(run.measure_setup(1)[0][0])
    return tuple(map(statistics.median, (fresh, setup, forked)))


def test_forked_op_matches_a_fresh_cli_process_minus_setup():
    # Measured from a parent as lean as run.py's: a fork of this pytest
    # process would carry its large heap, which slows garbage collection.
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True, check=True, timeout=170)
    fresh_s, setup_s, fork_s = json.loads(proc.stdout)
    assert abs(fresh_s - setup_s - fork_s) <= 0.15 * fresh_s + 0.02, (fresh_s, setup_s, fork_s)


def test_no_lru_cache_survives_into_the_next_op():
    assert _cache_entries() == 0  # the parent has computed nothing

    def op_then_count():
        with redirect_stdout(io.StringIO()):
            cli.main(list(OP.argv))
        return _cache_entries()

    assert run.in_fork(op_then_count)[0] > 0  # an op does fill the caches ...
    assert run.run_op(OP, EXPECTED).status == "ok"
    assert run.in_fork(_cache_entries)[0] == 0  # ... but the next fork starts empty


def test_every_op_has_an_expectation():
    for workload in workloads.WORKLOADS:
        assert {op.key for op in workloads.ops(workload)} <= EXPECTED.keys()


def test_traced_names_exist_and_match_benchmark_json():
    for layer, functions in tracing.TRACED.items():
        module = sys.modules[f"ck_spectra.{layer}"]
        for fn in functions:
            assert callable(getattr(module, fn)), f"{layer}.{fn}"
    assert [m["name"] for m in BENCHMARK["per_layer"]] == tracing.metric_names()


def test_one_pass_reports_every_metric_and_counts_the_cycle_crash():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench("--workload", "large-sparse", "--seed", "0", "--seconds", "0", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        # A pass has 63 ops, one of them a check of the plain 1,500-cycle, which
        # dies of RecursionError.  The timed run needs two passes to reach
        # MIN_OPS; the traced run makes one pass, each op untraced and traced.
        assert (result["attempted"], result["failed"]) == (126, 2)
        units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(PERF, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "random-k", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    print(json.dumps(_fork_vs_fresh()))
