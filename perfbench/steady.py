"""Steadiness check: run workloads over many seeds and report each metric's spread.

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --workloads surgery_kernels --seeds 1-5 --sets 2

Runs run.py once per (workload, seed), one process at a time, with
BENCHMARK.json's run_seconds unless --seconds is given.  For every
end-to-end metric it prints the median and quartiles over the seeds and the
interquartile range as a share of the median, next to the metric's bound
(the spread of setup_s is not held to its bound).  With --sets 2 the seeds
are run twice and the second set's median is compared with the first's.
Raw results go to perfbench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def check_names(result: dict, metrics: list[dict]) -> None:
    """The run must report exactly BENCHMARK.json's end-to-end metrics."""
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in metrics}
    if got != want:
        raise SystemExit(f"run.py reports {got}, BENCHMARK.json lists {want}")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse second is than first, as a share of first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    metrics = bench["end_to_end"]
    raw: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            results = []
            for seed in seeds:
                r = run_once(workload, seed, args.seconds)
                check_names(r, metrics)
                results.append(r)
                print(f"{workload} set {k + 1} seed {seed}: wall {r['wall_s']:.1f}s "
                      f"correct={r['correct']} failed={r['failed']}/{r['attempted']}",
                      flush=True)
                steady &= r["correct"]
            sets.append(results)
        raw[workload] = sets
        print(f"\n{workload}: {len(seeds)} seeds x {args.sets} set(s), {args.seconds}s runs")
        print(f"  {'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/med':>9}{'bound':>7}")
        for m in metrics:
            medians = []
            for k, results in enumerate(sets):
                values = [r["metrics"][m["name"]]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                held = m["name"] == "setup_s" or spread <= m["bound"] / 3
                steady &= m["name"] == "setup_s" or spread <= m["bound"]
                print(f"  {m['name']:<14}{k + 1:>4}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                      f"{spread:>9.3f}{m['bound']:>7}{'' if held else '  <- wide'}")
            for k in range(1, len(medians)):
                drift = worse_by(medians[0], medians[k], m["better"])
                steady &= drift <= m["bound"]
                print(f"  {m['name']:<14} set {k + 1} median worse than set 1 by "
                      f"{drift:+.3f} (bound {m['bound']})")
    out = HERE / "out" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"\n{'steady' if steady else 'NOT steady'}; raw results in {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
