"""Benchmark of echtk: three workloads, each pass in a fresh child process.

Run from the repository root:

    python3 bench/run.py --workload complex_window --seed 1 --seconds 40 --trace 0

The run repeats rounds, one child process at a time, while the next
round is expected to end within ``--seconds``: a timed pass of the
workload, then SETUP_PER_ROUND children that only set up.  Each
child imports the package from ``src/``, builds its inputs, runs one pass
and checks the results after the timed part.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  In a traced run untraced and traced passes
alternate: latencies come from the untraced passes, layer numbers from
the traced ones, and their wall-time ratio is the tracing overhead.
Every child also times a fixed reference loop, and every reported time
is speed-adjusted by it (REF_NOMINAL_S below); with ``--trace 0`` the raw
medians go to standard error.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from child import COMMANDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SPANS_DIR = os.path.join(ROOT, ".bench_spans")

SETUP_PER_ROUND = 2
CHILD_TIMEOUT_S = 150
# Reported times are speed-adjusted: a child's raw time times
# REF_NOMINAL_S over its own reference-loop time (README.md, "Speed-adjusted
# times").  The constant is the loop's time in a typical phase of the
# machine the benchmark was defined on; it only sets the scale.
REF_NOMINAL_S = 0.025

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}
COMMAND_OPS = tuple(name for cmds in COMMANDS["full"].values() for name, _ in cmds)
# queries.KINDS, not imported here because importing queries imports echtk
QUERY_KINDS = ("nk", "index", "homology", "knot_filtered", "toric",
               "cz_table", "partition", "verify", "obstruct")


def layer_units() -> dict[str, str]:
    import spans

    units = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
    units.update(spans.DERIVED_UNITS)
    units.update({f"{op}_s": "s" for op in COMMAND_OPS})
    units["cli.bytes_out"] = "bytes"
    for kind in QUERY_KINDS:
        units[f"query.{kind}.p50_ms"] = "ms"
        units[f"query.{kind}.count"] = "count"
    units["machine.ref_loop_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def adjusted(seconds: float, child: dict) -> float:
    """A child's raw time in seconds at the nominal machine speed."""
    return seconds * REF_NOMINAL_S / child["ref_loop_s"]


def spawn(workload: str, seed: int, pass_index: int, size: str, mode: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CHILD, workload, str(seed), str(pass_index), size, mode],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass of {workload} failed:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    result["mode"] = mode
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               size: str) -> tuple[list[dict], list[dict]]:
    """Timed passes while the next round is expected to end within the
    window; each round adds set-up-only children, so that the set-up
    samples are spread over the run like the passes are."""
    modes = ("plain", "traced") if trace else ("plain",)
    passes: list[dict] = []
    setups: list[dict] = []
    start, longest = time.monotonic(), 0.0
    while True:
        round_start = time.monotonic()
        mode = modes[len(passes) % len(modes)]
        passes.append(spawn(workload, seed, len(passes), size, mode))
        setups.append(passes[-1])
        for _ in range(SETUP_PER_ROUND):
            setups.append(spawn(workload, seed, len(passes), size, "setup"))
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if len(passes) >= len(modes) and now - start + longest > seconds:
            return passes, setups


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes: list[dict], setups: list[dict]) -> dict[str, float]:
    """Medians over passes of speed-adjusted times.  The latency
    percentiles are taken within each pass first, so they describe one
    pass's operations, not a pool of different commands.  ops_per_s is the
    operation count over wall_s: the count of a pass is fixed, so it is the
    reciprocal of wall_s scaled."""
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not op["ok"] for p in passes for op in p["ops"])

    def per_pass(stat) -> float:
        return statistics.median(
            adjusted(stat([op["s"] for op in p["ops"]]), p) for p in passes
        )

    return {
        "setup_s": statistics.median(adjusted(c["setup_s"], c) for c in setups),
        "wall_s": statistics.median(adjusted(p["wall_s"], p) for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
        "ops_per_s": statistics.median(len(p["ops"]) / adjusted(p["wall_s"], p) for p in passes),
        "latency_p50_ms": per_pass(statistics.median) * 1e3,
        "latency_p99_ms": per_pass(lambda xs: percentile(xs, 99)) * 1e3,
    }


def per_layer(workload: str, plain: list[dict], traced: list[dict],
              units: dict[str, str]) -> dict[str, float]:
    """Medians over passes; every time but machine.ref_loop_s is speed-adjusted."""
    def times(name: str) -> list[float]:
        return [adjusted(o["s"], p) for p in plain for o in p["ops"] if o["name"] == name]

    queried = workload == "query_mix"  # query kinds and CLI operations share names
    out: dict[str, float] = {}
    for name in traced[0]["layers"]:
        timed = units[name] == "s"
        out[name] = statistics.median(
            adjusted(p["layers"][name], p) if timed else p["layers"][name] for p in traced
        )
    for op in COMMAND_OPS:
        samples = [] if queried else times(op)
        out[f"{op}_s"] = statistics.median(samples) if samples else 0.0
    out["cli.bytes_out"] = statistics.median(p["bytes_out"] for p in plain)
    for kind in QUERY_KINDS:
        samples = times(kind) if queried else []
        out[f"query.{kind}.p50_ms"] = statistics.median(samples) * 1e3 if samples else 0.0
        out[f"query.{kind}.count"] = len(samples) / len(plain)
    out["machine.ref_loop_s"] = statistics.median(p["ref_loop_s"] for p in plain + traced)
    out["trace.wall_s"] = statistics.median(adjusted(p["wall_s"], p) for p in traced)
    out["trace.overhead_ratio"] = out["trace.wall_s"] / statistics.median(
        adjusted(p["wall_s"], p) for p in plain
    )
    return out


def write_spans(workload: str, traced: list[dict]) -> None:
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["id", "name", "start", "end", "parent"],
                   "spans": traced[-1]["spans"]}, fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "echtk", "__init__.py")):
        print("error: src/echtk not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds, bool(args.trace),
                                    args.size)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not op["ok"] for p in passes for op in p["ops"])
    if args.trace:
        plain = [p for p in passes if p["mode"] == "plain"]
        traced = [p for p in passes if p["mode"] == "traced"]
        units = layer_units()
        values = per_layer(args.workload, plain, traced, units)
        write_spans(args.workload, traced)
    else:
        values, units = end_to_end(passes, setups), E2E_UNITS
        raw = {
            "machine.ref_loop_s": statistics.median(p["ref_loop_s"] for p in passes),
            "raw.setup_s": statistics.median(c["setup_s"] for c in setups),
            "raw.wall_s": statistics.median(p["wall_s"] for p in passes),
        }
        print(json.dumps(raw), file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
