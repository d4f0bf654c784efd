"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload stream|bulk|mixed|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload's fixed work twice: once plain, once with
the layer tracer installed.  It reports the per-layer metrics and fails if
the two passes charged different ledger totals.  Both modes check every
view against a from-scratch recompute, and exit 1 on any mismatch.

The program is imported from ``src/`` next to this directory; there is
nothing to build.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    import repro
    from repro import PAPER_COSTS, Op
except ImportError as exc:  # no program to measure in this checkout
    print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
          file=sys.stderr)
    sys.exit(2)
if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    # Measuring an installed copy would report on the wrong program.
    print(f"perfbench: imported repro from {repro.__file__}, not from this "
          f"checkout's src/", file=sys.stderr)
    sys.exit(2)

from perfbench import stats
from perfbench.speed import REFERENCE_SECONDS
from perfbench.tracer import LAYERS, LayerTracer
from perfbench.workloads import (BULK, METHODS, MIXED_RATE, STREAM, Tally,
                                 run_closed, run_mixed)

WORKLOADS = ("stream", "bulk", "mixed")
#: op class -> tail quantile reported for it
TAILS = {"write": 0.99, "txn": 0.95, "read": 0.99}


def _pass(workload: str, seed: int, seconds: float, fixed: bool,
          tracer: LayerTracer | None = None) -> Tally:
    if workload == "mixed":
        return run_mixed(seed, seconds, tracer)
    spec = STREAM if workload == "stream" else BULK
    return run_closed(spec, seed, seconds, fixed, tracer)


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(tally: Tally) -> Dict[str, Dict[str, object]]:
    metrics = {"setup_s": _metric(stats.median(tally.setup), "s")}
    for method in METHODS:
        metrics[f"{method}.tuples_per_s"] = _metric(
            _ratio(*tally.work[method]), "1/s")
    # Geometric mean of the per-method medians: pooling the methods' writes
    # would put the median on the boundary between two of them.
    metrics["write.p50_ms"] = _metric(stats.finite_ms(math.prod(
        stats.median(tally.writes[method]) for method in METHODS
    ) ** (1.0 / len(METHODS))), "ms")
    metrics["success_rate"] = _metric(
        1.0 - _ratio(tally.failed, tally.attempted), "ratio")
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(plain: Tally, traced: Tally, tracer: LayerTracer) -> Dict[str, Dict[str, object]]:
    metrics: Dict[str, Dict[str, object]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = _metric(tracer.calls.get(layer, 0), "count")
        metrics[f"{layer}.self_ms"] = _metric(tracer.self_ns.get(layer, 0) / 1e6, "ms")
    cells = traced.measured_cells
    tuples = traced.tuples

    def ops(op: str, tag: str | None = None) -> float:
        return sum(count for (o, t), count in cells.items()
                   if o == op and (tag is None or t == tag))

    ios = sum(count * PAPER_COSTS.weight(Op[o]) for (o, _), count in cells.items())
    counts = tracer.counts
    per_tuple = {
        "costs.ios_per_tuple": ios,
        "cluster.network.sends_per_tuple": ops("SEND"),
        "storage.search_per_tuple": ops("SEARCH"),
        "storage.fetch_per_tuple": ops("FETCH"),
        "storage.insert_per_tuple": ops("INSERT"),
        "core.maintenance.view_rows_per_tuple": ops("INSERT", "VIEW"),
    }
    for name, total in per_tuple.items():
        metrics[name] = _metric(_ratio(total, tuples), "count")
    ratios = {
        "storage.stored_per_base_tuple": (traced.stored, traced.base_stored),
        "storage.index_hit_ratio": (counts.get("index_hits", 0),
                                    counts.get("index_searches", 0)),
        "storage.scan_per_delete": (counts.get("heap_rows_visited", 0),
                                    counts.get("heap_rows_deleted", 0)),
        "query.view_answer_ratio": (counts.get("view_answers", 0),
                                    counts.get("answers", 0)),
        "core.deferred.rows_per_refresh": (counts.get("refreshed_rows", 0),
                                           counts.get("refreshes", 0)),
        "faults.undo.records_per_txn": (counts.get("undo_records", 0),
                                        counts.get("transactions", 0)),
    }
    for name, (num, den) in ratios.items():
        metrics[name] = _metric(_ratio(num, den), "ratio")
    for kind, target in TAILS.items():
        samples = plain.latencies.get(kind, [])
        if kind != "write":
            metrics[f"{kind}.p50_ms"] = _metric(
                stats.finite_ms(stats.median(samples)) if samples else 0.0, "ms")
        metrics[f"{kind}.tail_ms"] = _metric(
            stats.finite_ms(stats.tail(samples, target)["value"]), "ms")
    metrics["error_rate"] = _metric(_ratio(plain.failed, plain.attempted), "ratio")
    lag = stats.tail(plain.lags, 0.99)["value"] if plain.lags else 0.0
    metrics["harness.sched_lag_tail_ms"] = _metric(lag * 1e3, "ms")
    metrics["harness.backlog_end"] = _metric(plain.backlog_end, "count")
    metrics["harness.trace_overhead"] = _metric(
        _ratio(traced.busy, plain.busy) - 1.0, "ratio")
    return metrics


def _commit() -> str:
    """The checked-out commit, when the checkout is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args: argparse.Namespace, tally: Tally,
                problems: List[str]) -> Dict[str, object]:
    tails = {
        kind: {k: v for k, v in stats.tail(samples, TAILS[kind]).items() if k != "value"}
        for kind, samples in sorted(tally.latencies.items())
    }
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "commit": _commit(),
        "mixed_rate_ops_per_s": MIXED_RATE, "tails": tails,
        "reference_ms": {"nominal": REFERENCE_SECONDS * 1e3,
                         "median": stats.median(tally.meter.samples) * 1e3},
        "problems": problems[:10],
    }


def run_workload(args: argparse.Namespace) -> Dict[str, object]:
    if args.trace:
        plain = _pass(args.workload, args.seed, args.seconds, fixed=True)
        tracer = LayerTracer()
        traced = _pass(args.workload, args.seed, args.seconds, fixed=True,
                       tracer=tracer)
        problems: List[str] = plain.problems + traced.problems
        if plain.ledgers != traced.ledgers or plain.measured_cells != traced.measured_cells:
            problems.append("traced and untraced ledger totals differ")
        metrics = per_layer(plain, traced, tracer)
    else:
        plain = _pass(args.workload, args.seed, args.seconds, fixed=False)
        problems = plain.problems
        metrics = end_to_end(plain)
    print(json.dumps({"env": environment(args, plain, problems)}))
    return {
        "correct": not problems,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": metrics,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload != "all":
        result = run_workload(args)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            one = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
            print(json.dumps({"workload": workload, **one}))
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for name, metric in one["metrics"].items():
                result["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
