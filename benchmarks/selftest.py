"""Checks on the benchmark itself.

    python3 benchmarks/selftest.py [WORKLOAD ...]

For each workload (default: all), with one seed:
- two traced passes give identical exact counters (quadrature nodes,
  eigensolve calls and summed dim^3, witness evaluations);
- an untraced pass has no trace wrapper bound anywhere, a traced one has.
Then ``run.py`` is run in a copy holding only the benchmark files, where it
must exit non-zero without printing a result. Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SEED = 7


def check_workload(name: str) -> list[str]:
    args = argparse.Namespace(workload=name, seed=SEED)
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        traced = [run.spawn(args, ["--trace-out", str(Path(tmp) / f"trace{i}.json")])
                  for i in range(2)]
    plain = run.spawn(args)
    errors = []
    counters = [{k: p["layers"][k] for k in run.EXACT_COUNTERS} for p in traced]
    if counters[0] != counters[1]:
        errors.append(f"{name}: exact counters differ between runs: {counters}")
    if plain["wrappers_installed"] or not all(p["wrappers_installed"] for p in traced):
        errors.append(f"{name}: wrappers installed untraced={plain['wrappers_installed']}, "
                      f"traced={[p['wrappers_installed'] for p in traced]}")
    for p in (*traced, plain):
        errors += [f"{name}: {f}" for f in p["failures"]]
    print(f"{name}: counters {counters[0]}; untraced wrappers {plain['wrappers_installed']}")
    return errors


def check_refuses_without_sources() -> list[str]:
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        bench_dir = Path(__file__).resolve().parent
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(bench_dir, Path(tmp) / bench_dir.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{bench_dir.name}/run.py", "--workload", "small-chains",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run.py without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    print(f"without sources: exit {proc.returncode}, no result printed")
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=["ed-rings", "limit-plane", "small-chains"])
    names = parser.parse_args().workloads
    errors = [e for name in names for e in check_workload(name)]
    errors += check_refuses_without_sources()
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
