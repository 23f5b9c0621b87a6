"""spinwitness benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload ed-rings --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each pass of the workload runs in a fresh interpreter
(``worker.py``) with a fixed BLAS thread count. Passes repeat until the
next one would overrun ``--seconds``. Every request is the same in every
pass, and the latency metrics are taken over each request's best latency
across the passes: interference from other tenants only adds time and
comes in bursts of seconds, and on a 2-vCPU VM this estimator spread far
less between runs than per-pass medians did (see README). ``setup_s`` and
``peak_rss_mb`` are medians. With ``--trace 0`` the end-to-end metrics are
printed and no wrapper is installed; with ``--trace 1`` untraced and
traced passes alternate, and the per-layer metrics of the traced passes
(medians) are printed with ``trace.overhead_s``, traced minus untraced
``wall_s``.

The second-to-last stdout line is a JSON record of the run (versions,
thread count, pass and sample counts, tail percentile, failures); the
last line is the result object. Both are also written to
``.bench_work/results/``, and the spans of the last traced pass to
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import pin_fastest

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

# One BLAS thread: dense eigh was steadier with one thread than with two
# on a 2-core box, and gains are to come from the physics, not threads.
BLAS_THREADS = 1
SETUP_SAMPLES = 5            # set-up-only interpreters per run, besides the passes
TAIL_SAMPLES_BEYOND = 10     # the tail is the highest percentile with 10 samples above it
CHILD_TIMEOUT_S = 150.0
CPUS = sorted(os.sched_getaffinity(0))

# Counters that must repeat exactly for a given seed.
EXACT_COUNTERS = ("quadrature.nodes", "exactdiag.eigensolve_dim3_sum",
                  "exactdiag.eigensolve_calls", "thermolimit.witness_evals")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, extra=()) -> dict:
    """Run one worker; returns its JSON record plus ``setup_s`` and ``elapsed_s``."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--work-dir", str(WORK_DIR), "--cpus", ",".join(map(str, CPUS)), *extra]
    pin_fastest(CPUS)  # the worker inherits this binding until it probes itself
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready_at"] - started
    record["elapsed_s"] = time.monotonic() - started
    return record


def tail_index(count: int) -> int:
    """Index into ascending samples of the value with TAIL_SAMPLES_BEYOND above it."""
    return max(0, count - 1 - TAIL_SAMPLES_BEYOND)


def best_latencies(passes) -> list[float]:
    """Each request's fastest latency over the passes, in request order."""
    return [min(column) for column in zip(*(p["latencies_s"] for p in passes))]


def run(args):
    setups = [spawn(args, ["--setup-only"]) for _ in range(SETUP_SAMPLES)]
    passes = []
    window = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        extra = []
        if traced:
            trace_dir = WORK_DIR / "traces"
            trace_dir.mkdir(exist_ok=True)
            extra = ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
        record = spawn(args, extra)
        record["traced"] = traced
        passes.append(record)
        typical = statistics.median(p["elapsed_s"] for p in passes)
        done = time.monotonic() - window + typical > args.seconds
        if done and (not args.trace or len(passes) >= 2):
            return setups, passes


def summarize(args, setups, passes):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    requests = plain[0]["attempted"]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems = []
    if any(p["wrappers_installed"] for p in plain):
        problems.append("an untraced pass had trace wrappers installed")
    if any(not p["wrappers_installed"] for p in traced):
        problems.append("a traced pass had no trace wrappers installed")
    counter_sets = {tuple(p["layers"][k] for k in EXACT_COUNTERS) for p in traced}
    if len(counter_sets) > 1:
        problems.append(f"exact counters differ between traced passes: {sorted(counter_sets)}")

    def med(values):
        return float(statistics.median(values))

    best = sorted(best_latencies(plain))
    if args.trace:
        layers = {k: med(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = sum(best_latencies(traced)) - sum(best)
        values = layers
    else:
        values = {
            "setup_s": med(p["setup_s"] for p in setups + passes),
            "wall_s": sum(best),
            "ops_per_s": len(best) / sum(best),
            "op_p50_ms": 1e3 * med(best),
            "op_tail_ms": 1e3 * best[tail_index(len(best))],
            "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
            "ok_ratio": (attempted - len(failures)) / attempted,
        }
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(values)} differ from {SPEC.name}: {sorted(units)}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": setups[0]["python"], "numpy": setups[0]["numpy"],
        "blas_threads": BLAS_THREADS, "nproc": len(CPUS),
        "passes": len(plain), "traced_passes": len(traced), "requests_per_pass": requests,
        "latency_samples": requests * len(plain),
        "tail_percentile": round(100.0 * (tail_index(requests) + 1) / requests, 2),
        "setup_samples": len(setups) + len(passes),
        "failures": failures[:20], "problems": problems,
    }
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "spinwitness" / "__init__.py").is_file():
        print(f"error: no spinwitness sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    try:
        setups, passes = run(args)
        info, result = summarize(args, setups, passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
