"""tileconn benchmark: whole commands end to end, and each layer when traced.

    python3 bench/run.py --workload decide-mixed --seed 7 --seconds 44 --trace 0
    python3 bench/run.py --seconds 44            # all three workloads

Every pass runs in a fresh interpreter (bench/child.py), one at a time, so
caches start cold as they do for a command-line user and import cost lands
in setup_s.  With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and prints the per-layer
metrics, the tracing overhead among them, and writes the spans of the last
traced pass under .bench_out/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Any failed output
check makes the exit status 1; a broken checkout exits 2 with no result.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("sweep-k20", "decide-mixed", "render-calib")
MIN_SETUPS = 10  # set-up samples per run; extra set-up-only children top up
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def run_child(args: list[str], deadline: float) -> dict:
    """Run child.py once; return its record plus set-up time and duration."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass {args} did not finish in time") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {args} exited {proc.returncode}:\n{err.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - spawned
    record["elapsed_s"] = time.monotonic() - spawned
    return record


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summary(values: list[float]) -> dict:
    if not values:  # every request failed; the run reports correct: false
        return {"p50": 0.0, "p95": 0.0, "n": 0}
    return {"p50": statistics.median(values), "p95": percentile(values, 95), "n": len(values)}


def measure(workload: str, seed: int, seconds: float, scale: str, trace: bool) -> dict:
    """All passes of one run, scheduled to fit in `seconds`."""
    base = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    plain, traced = [], []
    longest = 0.0
    while True:
        use_trace = trace and len(traced) < len(plain)
        record = run_child(base + (["--trace"] if use_trace else []), deadline)
        (traced if use_trace else plain).append(record)
        longest = max(longest, record["elapsed_s"])
        if trace and not traced:
            continue
        if time.monotonic() - started + longest > seconds:
            break
    setups = [r["setup_s"] for r in plain + traced]
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(base + ["--setup-only"], deadline)["setup_s"])
    by_wall = operator.itemgetter("wall_s")
    return {
        "plain": plain,
        "traced": traced,
        "setups": setups,
        "fast": faster_half(plain, key=by_wall),
        "fast_traced": faster_half(traced, key=by_wall),
    }


def faster_half(samples: list, key=None) -> list:
    """The faster half of a run's samples.

    On shared hosts a virtual CPU runs up to twice as slow for seconds or
    minutes at a time, because of load outside this machine.  Such phases
    only ever add time, so the slower half of the samples is dropped as
    interference; on such a host this cut the run-to-run spread of the
    medians by about a third.
    """
    ranked = sorted(samples, key=key)
    return ranked[: (len(ranked) + 1) // 2]


def end_to_end(run: dict) -> dict:
    """Metric name -> (value, unit, summary) from the faster untraced passes."""
    plain = run["fast"]
    requests = [ms for r in plain for samples in r["requests"].values() for ms in samples]
    wall = summary([r["wall_s"] for r in plain])
    setup = summary(faster_half(run["setups"]))
    rss = summary([r["rss_mb"] for r in plain])
    req = summary(requests)
    return {
        "wall_s": (wall["p50"], "s", wall),
        "setup_s": (setup["p50"], "s", setup),
        "request_ms_p50": (req["p50"], "ms", req),
        "request_ms_p95": (req["p95"], "ms", req),
        "peak_rss_mb": (rss["p50"], "MB", rss),
    }


def per_layer(run: dict, catalog: list[dict]) -> dict:
    """Metric name -> (value, unit, summary): medians over the faster traced passes."""
    out = {}
    traced = run["fast_traced"]
    for metric in catalog:
        name = metric["name"]
        if name == "trace.overhead_s":
            continue
        values = [r["layers"].get(name, 0) for r in traced]
        s = summary(values)
        out[name] = (s["p50"], metric["unit"], s)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in run["fast"])
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s",
                               {"p50": traced_wall - plain_wall, "n": len(traced)})
    return out


def print_table(workload: str, metrics: dict, run: dict, attempted: int, failed: int) -> None:
    print(f"== {workload}")
    for name, (value, unit, s) in metrics.items():
        tail = f"  p95 {s['p95']:.6g}" if "p95" in s else ""
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={s['n']}{tail}")
    walls = " ".join(f"{r['wall_s']:.3f}" for r in run["plain"])
    print(f"  {'untraced passes (s)':<40} {walls}")
    kinds: dict[str, list[float]] = {}
    for r in run["fast"]:
        for kind, samples in r["requests"].items():
            kinds.setdefault(kind, []).extend(samples)
    for kind, samples in sorted(kinds.items()):
        s = summary(samples)
        print(f"  {kind + '_ms':<40} {s['p50']:>14.6g} ms     n={s['n']}  p95 {s['p95']:.6g}")
    print(f"  {'fail_ratio':<40} {failed / attempted:>14.6g} ratio  n={attempted}")
    failures = dict.fromkeys(f for r in run["plain"] + run["traced"] for f in r["failures"])
    for failure in failures:
        print(f"  FAILED: {failure}")


def write_trace(workload: str, seed: int, run: dict, env: dict, figures: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    doc = {
        "workload": workload,
        "seed": seed,
        "environment": env,
        "per_layer": {name: value for name, (value, _, _) in figures.items()},
        "span_fields": ["name", "start_ns", "end_ns", "parent"],
        "spans": run["traced"][-1]["spans"],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
    return path


def load_catalog() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, scale: str, trace: bool,
                 env: dict) -> tuple[dict, int, int]:
    run = measure(workload, seed, seconds, scale, trace)
    if trace:
        metrics = per_layer(run, load_catalog()["per_layer"])
        path = write_trace(workload, seed, run, env, metrics)
        print(f"trace: {os.path.relpath(path, ROOT)}")
    else:
        metrics = end_to_end(run)
    attempted = sum(r["attempted"] for r in run["plain"] + run["traced"])
    failed = sum(r["failed"] for r in run["plain"] + run["traced"])
    print_table(workload, metrics, run, attempted, failed)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=44)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tileconn", "__init__.py")):
        print("error: src/tileconn is missing; run from a tileconn checkout", file=sys.stderr)
        return 2
    env = environment()
    print("env: " + json.dumps(env))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    attempted = failed = 0
    try:
        for workload in workloads:
            metrics, a, f = run_workload(workload, args.seed, args.seconds, args.scale,
                                         bool(args.trace), env)
            results[workload] = metrics
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        flat = results[args.workload]
    else:
        flat = {f"{w}.{name}": m for w, ms in results.items() for name, m in ms.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in flat.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
