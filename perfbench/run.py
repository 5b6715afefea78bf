"""massform benchmark: four workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload identity --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is taken from src/.  Every
round of a workload runs in a fresh interpreter (worker.py) and performs
the same seeded list of operations; rounds repeat until --seconds have
passed and at least MIN_OPS operations were timed, or a round had no
operation succeed.  The last line of
stdout is one JSON object with correct, attempted, failed and metrics;
a fuller record goes to perfbench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
MIN_OPS = 100          # so that at least ten samples lie beyond p90
MIN_OPS_LIMIT_S = 60   # past this, rounds stop even short of MIN_OPS
SETUP_SAMPLES = 11     # fresh interpreters whose set-up time is taken
WORKER_TIMEOUT_S = 120  # a worker still running then is killed and the run fails


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and its result line."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"{workload} worker ({mode}) exited with code {code}")
    return setup_s, (json.loads(rest) if mode != "setup" else None)


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def timed_run(workload: str, seed: int, seconds: int) -> dict:
    spawn(workload, seed, "setup")   # untimed: fills the bytecode and file caches
    setups, rounds = [], []
    timed_ops = 0
    start = time.perf_counter()
    while True:
        setup_s, result = spawn(workload, seed, "round")
        setups.append(setup_s)
        rounds.append(result)
        timed_ops += len(result["latencies_ns"])
        elapsed = time.perf_counter() - start
        # Past --seconds, a round in which every operation failed ends the
        # run (the rounds are identical, so more would not reach MIN_OPS),
        # and so does MIN_OPS_LIMIT_S.
        if elapsed >= seconds and (
            timed_ops >= MIN_OPS or not result["latencies_ns"] or elapsed >= MIN_OPS_LIMIT_S
        ):
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup")[0])

    problems = [p for r in rounds for p in r["problems"]]
    if workload == "cli":
        for i, digests in enumerate(zip(*(r["digests"] for r in rounds))):
            if len({d for d in digests if d is not None}) > 1:
                problems.append(f"case {i}: stdout differs between identical invocations")
    latencies = [ns / 1e6 for r in rounds for ns in r["latencies_ns"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if not latencies:
        first = rounds[0]["errors"][:1] or ["no error recorded"]
        raise BenchError(f"all {attempted} operations failed, first: {first[0]}")
    if len(latencies) < MIN_OPS:
        problems.append(f"only {len(latencies)} operations succeeded, fewer than {MIN_OPS}")
    values = {
        "throughput_per_s": (attempted - failed) / (sum(r["timed_ns"] for r in rounds) / 1e9),
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
        "setup_s": statistics.median(setups),
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()},
        "rounds": len(rounds),
        "setup_samples_s": setups,
        "errors": sorted({e for r in rounds for e in r["errors"]}),
        "problems": problems[:20],
    }


def traced_run(workload: str, seed: int) -> dict:
    _, result = spawn(workload, seed, "trace")
    layers = result["layers"]
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()},
        "layers": layers,
        "errors": sorted(set(result["errors"])),
        "problems": result["problems"][:20],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "massform" / "__init__.py").is_file():
        print(f"no massform package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            record = traced_run(args.workload, args.seed)
        else:
            record = timed_run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in record["errors"] + record["problems"]:
        print(line, file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: record[k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
