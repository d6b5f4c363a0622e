"""One pass of one workload, in a fresh process with no threads.

Usage (from the repository root; ``run.py`` is the normal caller):

    python3 bench/child.py WORKLOAD SEED PASS SIZE MODE

MODE is ``plain`` (timed, untraced), ``traced`` (timed under the span
wrappers of ``spans.py``) or ``setup`` (stop once set-up is done).  The
child prints one JSON line: the monotonic time at which set-up ended and
the median time of a fixed reference loop, run REF_SAMPLES times after
set-up and, for a timed pass, REF_SAMPLES times more after the pass.  For
a timed pass it adds every operation with its latency and whether its
oracle accepted it, the pass wall time (the sum of operation latencies),
peak RSS and, when traced, the per-layer numbers.  Oracles run after the
timed loop, with tracing removed, so they neither cost measured time nor
warm the caches a later operation reads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

# The two CLI workloads: (operation name, argv).  Inputs are fixed, so these
# workloads ignore the seed.  "tiny" is the benchmark's self-test.
COMMANDS = {
    "full": {
        "complex_window": [
            ("generators", "generators --p 3 --q 4 --max-degree 300 --format csv"),
            ("homology", "homology --p 3 --q 4 --max-index 7700 --max-degree 300 --format csv"),
            ("homology_d2", "homology --p 3 --q 4 --max-index 7700 --max-degree 300 "
                            "--check-d-squared --format json"),
            ("knot_filtered", "knot-filtered --p 3 --q 4 --max-index 7700 --max-degree 300 "
                              "--filtration 150+1*d --format csv"),
        ],
        "spectrum_scan": [
            ("spectrum", "spectrum --p 3 --q 4 --k-max 200000 --format csv"),
            ("weyl", "weyl --p 2 --q 3 --k-max 1000000"),
            ("nseq", "nseq --p 3 --q 4 --k-max 1000000 --format csv"),
            ("obstruct", "obstruct --from 5,7 --to 3,4 --k-max 1000000"),
        ],
    },
    "tiny": {
        "complex_window": [
            ("generators", "generators --p 3 --q 4 --max-degree 40 --format csv"),
            ("homology", "homology --p 3 --q 4 --max-index 160 --max-degree 40 --format csv"),
            ("homology_d2", "homology --p 3 --q 4 --max-index 160 --max-degree 40 "
                            "--check-d-squared --format json"),
            ("knot_filtered", "knot-filtered --p 3 --q 4 --max-index 160 --max-degree 40 "
                              "--filtration 20+1*d --format csv"),
        ],
        "spectrum_scan": [
            ("spectrum", "spectrum --p 3 --q 4 --k-max 2000 --format csv"),
            ("weyl", "weyl --p 2 --q 3 --k-max 10000"),
            ("nseq", "nseq --p 3 --q 4 --k-max 10000 --format csv"),
            ("obstruct", "obstruct --from 5,7 --to 3,4 --k-max 10000"),
        ],
    },
}
WORKLOADS = ("complex_window", "spectrum_scan", "query_mix")
REF_SAMPLES = 5  # reference-loop runs after set-up, and again after a timed pass
KEEP_TEXT = 1 << 20  # outputs longer than this are checked by digest and line count only


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def reference_loop(n: int = 300_000) -> float:
    """Seconds for a fixed pure-Python loop that calls nothing in echtk.
    It moves with the machine's speed and not with the code, so run.py
    divides the child's timings by it (see README.md)."""
    start = time.perf_counter()
    total = 0
    for i in range(n):
        total += i * i % 7
    return time.perf_counter() - start


def run_commands(commands) -> list[dict]:
    """Run CLI commands in-process and time each; the output is captured
    in memory and reduced to what the oracles read outside the timing."""
    from echtk import cli

    ops = []
    for name, argv in commands:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv.split())
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            rc = repr(exc)
        latency = time.perf_counter() - start
        out = buf.getvalue()
        ops.append({
            "name": name,
            "argv": argv,
            "s": latency,
            "rc": rc,
            "bytes": len(out),
            "lines": out.count("\n"),
            "sha256": hashlib.sha256(out.encode()).hexdigest(),
            "text": out if len(out) <= KEEP_TEXT else None,
        })
    return ops


def run_queries(queries_list) -> tuple[list[dict], list]:
    import queries

    ops, answers = [], []
    for kind, args in queries_list:
        start = time.perf_counter()
        try:
            answer = queries.RUN[kind](*args)
        except Exception as exc:  # a crash is a failed operation
            answer = exc
        ops.append({"name": kind, "s": time.perf_counter() - start})
        answers.append(answer)
    return ops, answers


def main(argv: list[str]) -> int:
    workload, seed, pass_index, size, mode = argv
    if workload not in WORKLOADS or mode not in ("plain", "traced", "setup"):
        print(f"error: bad arguments {argv}", file=sys.stderr)
        return 2
    # set-up includes the package import; cli and crosscheck load before tracing wraps them
    from echtk import cli, crosscheck  # noqa: F401

    if workload == "query_mix":
        import queries

        inputs = queries.make_queries(int(seed), int(pass_index), size)
    else:
        inputs = COMMANDS[size][workload]
    result = {"ready": time.monotonic()}
    refs = [reference_loop() for _ in range(REF_SAMPLES)]
    if mode == "setup":
        result["ref_loop_s"] = statistics.median(refs)
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.calibrate()
        tracer.install()
    if workload == "query_mix":
        ops, answers = run_queries(inputs)
    else:
        ops = run_commands(inputs)
    result["rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    refs += [reference_loop() for _ in range(REF_SAMPLES)]
    result["ref_loop_s"] = statistics.median(refs)

    import oracles

    if workload == "query_mix":
        oracle = queries.Oracle()
        for op, (kind, args), answer in zip(ops, inputs, answers):
            op["ok"] = oracles.safe_check(oracle.check, kind, args, answer)
    else:
        digests = oracles.load_digests(size)
        for op in ops:
            op["ok"] = oracles.safe_check(oracles.check_command, op, digests.get(op["name"]))
            del op["argv"], op["text"], op["rc"]
    result["wall_s"] = sum(op["s"] for op in ops)
    result["bytes_out"] = sum(op.get("bytes", 0) for op in ops)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(result["wall_s"])
        result["spans"] = tracer.spans
    result["ops"] = ops
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
