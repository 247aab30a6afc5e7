"""One pass of one workload in a fresh interpreter.

Run by run.py, never by hand.  Prints one JSON line: when set-up ended
(interpreter start, `import tileconn` and input generation), the pass's wall
time, request latencies, check outcomes, peak RSS and, when traced, the
per-layer figures and the raw spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads  # imports tileconn

    inputs = workloads.make_inputs(args.workload, args.seed, args.scale)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    started = time.perf_counter()
    result = workloads.run_pass(args.workload, inputs, args.scale, tracer)
    wall_s = time.perf_counter() - started

    requests: dict[str, list[float]] = {}
    for kind, ms in result.requests:
        requests.setdefault(kind, []).append(ms)
    record = {
        "ready": ready,
        "wall_s": wall_s,
        "requests": requests,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures[:20],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["layers"] = layer_figures(tracer)
        record["spans"] = tracer.records()
    print(json.dumps(record))
    return 0


def layer_figures(tracer) -> dict[str, float]:
    """Self time and calls per span name, the work counters, cache sizes."""
    import tracing

    figures: dict[str, float] = {}
    for name, ns in tracer.self_times_ns().items():
        figures[name + ".ms"] = ns / 1e6
    for name, calls in tracer.call_counts().items():
        figures[name + ".calls"] = calls
    figures.update(tracer.counters)
    box = figures.get("membership.box_states", 0)
    figures["membership.survivor_ratio"] = (
        figures.get("membership.survivor_states", 0) / box if box else 0.0
    )
    figures["bench.self.ms"] = sum(v for k, v in figures.items()
                                   if k.startswith("bench.") and k.endswith(".ms"))
    figures["trace.spans"] = len(tracer.names)
    figures.update(tracing.cache_sizes(tracer))
    return figures


if __name__ == "__main__":
    sys.exit(main())
