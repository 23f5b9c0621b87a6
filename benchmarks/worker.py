"""One pass of one workload in a fresh interpreter.

Run by ``run.py``. A fresh process per pass starts the package's
eigensystem cache cold, as it is for a CLI user. The last line of stdout
is one JSON object describing the pass.

    python3 benchmarks/worker.py --workload NAME --seed N --work-dir DIR --cpus 0,1
        [--setup-only] [--trace-out FILE]

Between requests, at most every PROBE_INTERVAL_S, the pass moves itself
to whichever allowed CPU a short probe finds fastest. On a shared VM
one vCPU is often slowed by another tenant for seconds at a time while
the other is not; the probe runs outside every timed request.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

PROBE_INTERVAL_S = 0.5


def _probe_s(cpu: int) -> float:
    """Best of three short pure-Python loops on ``cpu``."""
    os.sched_setaffinity(0, {cpu})
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i
        best = min(best, time.perf_counter() - t0)
    return best


def pin_fastest(cpus) -> None:
    """Bind this process to the fastest of ``cpus`` right now."""
    if len(cpus) > 1:
        os.sched_setaffinity(0, {min(cpus, key=_probe_s)})


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--cpus", required=True, help="comma-separated CPUs to choose from")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", help="trace this pass and write its spans here")
    args = parser.parse_args()

    import numpy
    import spinwitness  # noqa: F401  (import time is part of set-up)

    import workloads

    scratch = Path(tempfile.mkdtemp(dir=args.work_dir))
    try:
        workload = workloads.build(args.workload, args.seed, scratch)
        ready_at = time.monotonic()
        result = {"ready_at": ready_at, "python": sys.version.split()[0],
                  "numpy": numpy.__version__}
        if not args.setup_only:
            cpus = [int(c) for c in args.cpus.split(",")]
            result.update(run_pass(workload, args.trace_out, scratch, cpus))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_pass(workload, trace_out, scratch: Path, cpus) -> dict:
    import tracing  # importing installs nothing; install() does

    tracer = None
    if trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    outputs, latencies, failures = [], [], {}
    probed = time.perf_counter()
    for i, (label, thunk) in enumerate(workload.requests):
        if time.perf_counter() - probed >= PROBE_INTERVAL_S:
            pin_fastest(cpus)
            probed = time.perf_counter()
        t0 = time.perf_counter()
        try:
            output = thunk()
        except Exception as exc:  # a failed request is data, not a crash
            output = None
            failures[i] = f"{label}: {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        outputs.append(output)

    if tracer is not None:
        tracer.enabled = False
    try:
        off = workload.check(outputs)
    except Exception:
        off = {-1: "check raised: " + traceback.format_exc(limit=3)}
    for i, reason in off.items():
        failures.setdefault(i, reason)
    artifact_bytes = sum(p.stat().st_size for p in scratch.iterdir() if p.is_file())

    result = {
        "latencies_s": latencies,
        "attempted": len(latencies),
        "failures": sorted(failures.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wrappers_installed": tracing.installed(),
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["cli.artifact_bytes"] = artifact_bytes
        result["layers"] = layers
        tracer.write(trace_out)
    return result


if __name__ == "__main__":
    sys.exit(main())
