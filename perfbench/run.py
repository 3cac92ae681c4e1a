"""Benchmark runner: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload surgery_kernels --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  The loop
is closed: one caller, each op starting when the previous op and its output
check have finished.  It runs whole passes over the workload's inputs until
the ops have been busy for --seconds.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it runs every op untraced and then traced
(the traced leg takes run_surgery's steps one by one for surgery_kernels),
checks that both legs give the same output, and prints the per-layer
metrics, per pass, plus the traced/untraced wall-time ratio.  Spans are
written to perfbench/out/ when the run ends.  The last line of output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import LAYERS, Tracer, direct_call
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
MIN_OPS = 100  # so that at least 10 latency samples lie beyond p90

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "moves.contract.busy_s": "s",
    "moves.contract.calls": "count",
    "moves.points_in": "count",
    "moves.pushoff.busy_s": "s",
    "pipeline.find_duplicate_pair.busy_s": "s",
    "splitting.full_split.busy_s": "s",
    "splitting.rewrites": "count",
    "splitting.points_out": "count",
    "splitting.genus_out": "count",
    "serialize.loads_document.busy_s": "s",
    "serialize.dumps_result.busy_s": "s",
    "serialize.bytes_out": "bytes",
    "words.lcs_depth.busy_s": "s",
    "words.letters_in": "count",
    "commutators.parse_expression.busy_s": "s",
    "commutators.evaluate.busy_s": "s",
    "grope.grope_from_expression.busy_s": "s",
    "grope.boundary_word.busy_s": "s",
    "pipeline.validate_kernel.busy_s": "s",
    "pipeline.check_hypotheses.busy_s": "s",
    "capped.is_pi1_null.busy_s": "s",
    "pipeline.pigeonhole_failures": "count",
    "pipeline.generate_kernel.busy_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "op.heaviest_tenth_share": "ratio",
    "tracing_overhead_ratio": "ratio",
}


def import_gropes():
    """A fresh import of the package, so repeated set-ups each pay for it."""
    for name in [m for m in sys.modules if m == "gropes" or m.startswith("gropes.")]:
        del sys.modules[name]
    gp = importlib.import_module("gropes")
    if Path(gp.__file__).resolve().parent != SRC / "gropes":
        raise SystemExit(f"imported gropes from {gp.__file__}, not from {SRC}")
    return gp


def run_op(run):
    """Time one op; returns (seconds, output, exception)."""
    start = time.perf_counter()
    try:
        out, err = run(), None
    except Exception as e:
        out, err = None, e
    return time.perf_counter() - start, out, err


def verdict(wl, gp, item, out, err, call) -> str | None:
    """None when the op gave its correct answer, else the reason it did not."""
    expected = wl.expected_error(gp, item)
    if expected is not None:
        return None if isinstance(err, expected) else f"expected {expected.__name__}, got {err!r}"
    if err is not None:
        return "".join(traceback.format_exception(err))
    try:
        return None if wl.check(gp, item, out, call) else "output check failed"
    except Exception:
        return traceback.format_exc()


def report_failure(failed: int, item, why: str) -> None:
    if failed == 1:  # the first one only; the count goes into the result
        print(f"op failed on input {str(item)[:300]}: {why}", file=sys.stderr)


def heaviest_tenth_share(seconds: list[float]) -> float:
    ordered = sorted(seconds)
    return sum(ordered[-max(1, len(ordered) // 10) :]) / sum(ordered)


def untraced(wl, seed: int, budget: float) -> tuple[int, int, dict]:
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        gp = import_gropes()
        items = wl.build(gp, seed, direct_call)
        setup.append(time.perf_counter() - start)

    per_item: list[list[float]] = [[] for _ in items]
    latencies: list[float] = []
    failed = passes = 0
    while sum(latencies) < budget or len(latencies) < MIN_OPS:
        passes += 1
        for item, samples in zip(items, per_item):
            seconds, out, err = run_op(lambda: wl.run(gp, item))
            samples.append(seconds)
            latencies.append(seconds)
            why = verdict(wl, gp, item, out, err, direct_call)
            if why is not None:
                failed += 1
                report_failure(failed, item, why)

    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": statistics.median(setup),
        # One pass at each input's median latency: noise that slows some
        # ops in one pass and others in the next does not move it.
        "ops_per_s": len(items) / sum(map(statistics.median, per_item)),
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(
        f"{wl.name}: {passes} passes of {len(items)} ops, "
        f"{len(latencies)} latency samples ({len(latencies) // 10} beyond p90), "
        f"set-up repeated {SETUP_REPEATS}x"
    )
    print(f"  fail_ratio {failed / len(latencies):.6g} ({failed}/{len(latencies)})")
    print(f"  heaviest tenth of ops: {heaviest_tenth_share(latencies):.3f} of op time")
    return len(latencies), failed, metrics


def traced(wl, seed: int, budget: float) -> tuple[int, int, dict]:
    tr = Tracer()
    gp = import_gropes()
    items = wl.build(gp, seed, tr.call)
    setup_self = tr.self_seconds()
    loop_start = len(tr.spans)

    plain: list[float] = []
    spanned: list[float] = []
    failed = passes = 0
    while sum(plain) + sum(spanned) < budget or len(plain) < MIN_OPS:
        passes += 1
        for item in items:
            op_id = len(plain)
            seconds, out, err = run_op(lambda: wl.run(gp, item))
            plain.append(seconds)
            tr.expected = wl.expected_error(gp, item)
            seconds, t_out, t_err = run_op(
                lambda: tr.root("op", op_id, wl.run_traced, gp, item, tr)
            )
            spanned.append(seconds)
            why = tr.root("check", op_id, verdict, wl, gp, item, t_out, t_err, tr.call)
            if why is None and (type(err) is not type(t_err) or out != t_out):
                why = "the traced steps gave another output than the untraced op"
            tr.expected = None
            if why is not None:
                failed += 1
                report_failure(failed, item, why)

    loop_self = tr.self_seconds(since=loop_start)
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".busy_s"):
            span = name[: -len(".busy_s")]
            value = setup_self.get(span, 0.0) + loop_self.get(span, 0.0) / passes
        else:
            value = tr.counts.get(name, 0) / passes
        metrics[name] = value
    metrics["op.heaviest_tenth_share"] = heaviest_tenth_share(plain)
    metrics["tracing_overhead_ratio"] = sum(spanned) / sum(plain)

    path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tr.write_jsonl(path)
    print(
        f"{wl.name} traced: {passes} passes of {len(items)} ops, "
        f"{len(tr.spans)} spans written to {path.relative_to(ROOT)}; "
        "per-layer values are per pass (busy_s is self time)"
    )
    return len(plain), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gropes" / "__init__.py").is_file():
        print(f"no gropes package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    mode = traced if args.trace else untraced
    attempted, failed, metrics = mode(wl, args.seed, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
