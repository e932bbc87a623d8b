"""ck-spectra benchmark: cold-process CLI latency, plus a traced per-layer run.

    python3 perfbench/run.py --workload random-k --seed 1 --seconds 15 --trace 0

Run from anywhere; it works on the checkout that contains it and imports the
package from its ``src``.  One op is one ``ck-spectra <command> <file>`` call,
made through ``ck_spectra.cli.main(argv)`` in a fresh fork of this process,
which has imported the package and computed nothing.  Forking gives each op
caches as cold as a new CLI process without the noise of interpreter start-up;
ops run one at a time.  Each op's exit code and stdout digest are checked
against ``perfbench/expected.json``.

A pass runs every op of the workload once, in an order drawn from ``--seed``.
``--trace 0`` repeats whole passes until ``--seconds`` have gone and at least
MIN_OPS ops have run, and reports the end-to-end metrics.  ``--trace 1`` runs
every op of a pass untraced and then traced, repeats whole passes until
``--seconds`` have gone, and reports per-layer metrics per pass plus the
tracing overhead.  The last stdout line is one JSON object; the lines before
it give every metric with its unit and sample count, raw and scaled times, and
the provenance.  A fuller record goes to ``.bench_out/`` in the checkout.

Times are scaled to a reference machine speed (see ``calibrate``): the host
this was built on switches between a fast and a 1.8x slower phase every few
seconds, which moved raw run medians by up to 50% between runs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import pickle
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
# Enough ops that ten lie beyond the 90th percentile.
MIN_OPS = 100
# calibration_work's time in the fast phase of the 2-vCPU virtual machine the
# benchmark was built on; scaled times read as seconds at that speed.
CALIBRATION_REF_S = 0.0128


@dataclass
class OpResult:
    op: workloads.Op
    elapsed: float  # wall seconds inside cli.main in the child
    status: str  # "ok", "crash" (exception escaped main or child died), "wrong"
    detail: str
    rss_mb: float
    trace: dict | None = field(default=None, repr=False)
    speed: float = 1.0  # CALIBRATION_REF_S over the calibration time around the op

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    @property
    def scaled(self) -> float:
        return self.elapsed * self.speed


def in_fork(fn, *args):
    """fn(*args) in a forked child: (its result, or None if it died; rusage; status)."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            data = pickle.dumps(fn(*args))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    return (pickle.loads(data) if data else None), usage, status  # written by the child above


def calibration_work(n: int = 13) -> int:
    """A fixed pure-Python subset scan over bitmasks.

    It stands in for the package's hot loops (bit tricks, small lists,
    frozensets) without running package code, so no change to the package can
    move it.  About 13 ms.
    """
    succ = [((i * 7 + 3) % n) | (1 << ((i + 1) % n)) for i in range(n)]
    names = [f"v{i}" for i in range(n)]
    found = 0
    for mask in range(1, 1 << n):
        members = []
        m = mask
        while m:
            low = m & -m
            members.append(low.bit_length() - 1)
            m ^= low
        if not any(not succ[i] & mask for i in members):
            found += len(frozenset(names[i] for i in members))
    return found


def _timed_calibration() -> float:
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds calibration_work takes now, in a fork of its own."""
    return in_fork(_timed_calibration)[0]


class Speedometer:
    """Scales each measurement by the calibrations taken just before and after it."""

    def __init__(self):
        self.before = calibrate()

    def speed(self) -> float:
        after = calibrate()
        speed = CALIBRATION_REF_S / ((self.before + after) / 2)
        self.before = after
        return speed


def _child(op: workloads.Op, traced: bool) -> dict:
    from ck_spectra import cli

    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    crash = None
    start = time.perf_counter()
    try:
        code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException as exc:  # a traceback is a failed op, recorded by name
        code, crash = None, f"{type(exc).__name__}: {str(exc)[:200]}"
    elapsed = time.perf_counter() - start
    out = sys.stdout.getvalue().encode("utf-8")
    return {
        "code": code,
        "crash": crash,
        "elapsed": elapsed,
        "sha256": hashlib.sha256(out).hexdigest(),
        "trace": tracer.summary() if tracer else None,
    }


def run_op(op: workloads.Op, expected: dict, traced: bool = False) -> OpResult:
    """Run one op in a fresh fork and check it against its expectation."""
    rec, usage, status = in_fork(_child, op, traced)
    rss_mb = usage.ru_maxrss / 1024
    if rec is None:
        return OpResult(op, math.inf, "crash", f"child ended with status {status} and no result", rss_mb)
    want = expected[op.key]
    if rec["crash"]:
        state, detail = "crash", rec["crash"]
    elif rec["code"] != want["exit"] or rec["sha256"] != want["sha256"]:
        state, detail = "wrong", f"exit {rec['code']} (want {want['exit']}), sha256 {rec['sha256'][:12]}"
    else:
        state, detail = "ok", ""
    return OpResult(op, rec["elapsed"], state, detail, rss_mb, rec["trace"])


def measure_setup(samples: int = SETUP_SAMPLES) -> list[tuple[float, float]]:
    """(raw, scaled) wall time of fresh interpreters importing ck_spectra.cli, after one warm-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-c", "import ck_spectra.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    meter = Speedometer()
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        raw = time.perf_counter() - start
        times.append((raw, raw * meter.speed()))
    return times


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latencies(results: list[OpResult], seconds: float, scaled: bool = True) -> list[float]:
    """Op latencies, a failed op ranking above every successful one."""
    times = [r.scaled if scaled else r.elapsed for r in results]
    worst = max([seconds] + [t for r, t in zip(results, times) if not r.failed])
    return [worst if r.failed else t for r, t in zip(results, times)]


def timed_run(ops, expected, seconds: float, rng: random.Random) -> list[OpResult]:
    """Whole passes until ``seconds`` have gone and MIN_OPS ops have run."""
    results = []
    meter = Speedometer()
    start = time.perf_counter()
    while len(results) < MIN_OPS or time.perf_counter() - start < seconds:
        for op in rng.sample(ops, len(ops)):
            result = run_op(op, expected)
            result.speed = meter.speed()
            results.append(result)
    return results


def traced_run(ops, expected, seconds: float, rng: random.Random):
    plain, traced, passes = [], [], 0
    meter = Speedometer()
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in rng.sample(ops, len(ops)):
            for runs, flag in ((plain, False), (traced, True)):
                result = run_op(op, expected, traced=flag)
                result.speed = meter.speed()
                runs.append(result)
        passes += 1
    return plain, traced, passes


def layer_metrics(plain, traced, passes: int) -> tuple[dict, dict]:
    """Per-pass totals of the traced ops, busy times scaled like latencies."""
    busy, calls, failed, counts, edges = Counter(), Counter(), Counter(), Counter(), {}
    for r in traced:
        t = r.trace or {}
        busy.update({k: v * r.speed for k, v in t.get("busy", {}).items()})
        calls.update(t.get("calls", {}))
        failed.update(t.get("failed", {}))
        counts.update(t.get("counts", {}))
        for k, (n, s) in t.get("edges", {}).items():
            e = edges.setdefault(k, [0, 0.0])
            e[0] += n
            e[1] += s * r.speed
    # Wrong outputs and children that died without a trace are charged to the entry point.
    failed["cli"] += sum(r.status == "wrong" or (r.failed and r.trace is None) for r in traced)
    metrics = {}
    for layer, functions in tracing.TRACED.items():
        for fn in functions:
            name = f"{layer}.{fn}"
            metrics[f"{name}.busy_s"] = (busy[name] / passes, "s")
            metrics[f"{name}.calls"] = (calls[name] / passes, "count")
        metrics[f"{layer}.failed"] = (failed[layer] / passes, "count")
    for name in tracing.COUNTS:
        metrics[name] = (counts[name] / passes, "count")
    plain_s = sum(r.scaled for r in plain if math.isfinite(r.elapsed))
    traced_s = sum(r.scaled for r in traced if math.isfinite(r.elapsed))
    metrics["trace.overhead_pct"] = (100 * (traced_s / plain_s - 1), "%")
    return metrics, edges


def provenance(args) -> dict:
    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.split()
        if os.path.samefile(top, ROOT):  # not the commit of some enclosing repository
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ck_spectra")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ck_spectra", "cli.py")):
        print(f"no ck_spectra package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    ops = workloads.ops(args.workload)
    missing = [op.key for op in ops if op.key not in expected]
    if missing:
        print(f"no expectation for: {missing}", file=sys.stderr)
        return 2

    setup = measure_setup()
    sys.path.insert(0, SRC)
    import ck_spectra.cli  # noqa: F401  (imported once, before any fork; computes nothing)

    rng = random.Random(f"{args.workload}/{args.seed}")
    origin = provenance(args)
    report = [f"provenance {json.dumps(origin, sort_keys=True)}"]
    if args.trace:
        plain, traced, passes = traced_run(ops, expected, args.seconds, rng)
        results = plain + traced
        metrics, edges = layer_metrics(plain, traced, passes)
        report.append(f"traced passes: {passes} of {len(ops)} ops; values are per pass")
        samples = dict.fromkeys(metrics, len(traced))
    else:
        results = timed_run(ops, expected, args.seconds, rng)
        edges = None
        lat = latencies(results, args.seconds)
        metrics = {
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "op_p50_s": (quantile(lat, 0.5), "s"),
            "op_p90_s": (quantile(lat, 0.9), "s"),
            "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
        }
        samples = dict.fromkeys(metrics, len(results))
        samples["setup_s"] = len(setup)
        raw = latencies(results, args.seconds, scaled=False)
        report += [
            f"raw (unscaled): setup_s = {statistics.median(r for r, _ in setup):.6f} s,"
            f" op_p50_s = {quantile(raw, 0.5):.6f} s, op_p90_s = {quantile(raw, 0.9):.6f} s",
            f"machine speed: median {statistics.median(r.speed for r in results):.3f} of reference",
            f"ops beyond op_p90_s: {sum(v > metrics['op_p90_s'][0] for v in lat)}",
        ]
        for command in sorted({r.op.command for r in results}):
            mine = [v for r, v in zip(results, lat) if r.op.command == command]
            report.append(f"{command}_p50_s = {quantile(mine, 0.5):.6f} s (n={len(mine)})")

    failed = [r for r in results if r.failed]
    report.append(f"ops_failed_ratio = {len(failed) / len(results):.6f} ({len(failed)}/{len(results)})")
    for (status, key, detail), n in Counter((r.status, r.op.key, r.detail) for r in failed).items():
        report.append(f"failed op x{n}: {status}: {key}: {detail}")
    for name, (value, unit) in metrics.items():
        report.append(f"{name} = {value:.6g} {unit} (n={samples[name]})")
    print("\n".join(report))

    os.makedirs(OUT, exist_ok=True)
    record = {
        "provenance": origin,
        "metrics": {k: {"value": v, "unit": u, "samples": samples[k]} for k, (v, u) in metrics.items()},
        "setup": [{"raw_s": r, "scaled_s": s} for r, s in setup],
        "ops": [
            {
                "id": i,
                "op": r.op.key,
                "status": r.status,
                "detail": r.detail,
                "elapsed_s": r.elapsed,
                "speed": r.speed,
                "rss_mb": r.rss_mb,
            }
            for i, r in enumerate(results)
        ],
        "edges": edges,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(
        json.dumps(
            {
                "correct": not any(r.status == "wrong" for r in results),
                "attempted": len(results),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
