"""The benchmark's own test, on tiny inputs.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402  (puts src/ on the path)
import oracles  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_names_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert run.QUERY_KINDS == queries.KINDS


def _complex_ops() -> tuple[list[dict], dict]:
    ops = child.run_commands(child.COMMANDS["tiny"]["complex_window"])
    digests = oracles.load_digests("tiny")
    assert all(oracles.check_command(op, digests[op["name"]]) for op in ops)
    return ops, digests


def test_cli_oracle_catches_a_corrupted_output():
    ops, digests = _complex_ops()
    for op in ops:
        if op["name"] not in ("homology", "knot_filtered"):
            continue
        # flip the rank at index 2, then make the digest agree with the
        # corruption so only the mathematical oracle can catch it
        text = op["text"].replace("\n2,1\n", "\n2,0\n")
        assert text != op["text"]
        bad = dict(op, text=text, sha256=hashlib.sha256(text.encode()).hexdigest())
        assert not oracles.check_command(bad, bad["sha256"])
        assert not oracles.check_command(dict(op, sha256="0" * 64), digests[op["name"]])


def test_d_squared_oracle_catches_a_corrupted_flag():
    ops, _ = _complex_ops()
    (op,) = [op for op in ops if op["name"] == "homology_d2"]
    doc = json.loads(op["text"])
    doc["meta"]["dSquaredZero"] = False
    bad = dict(op, text=json.dumps(doc))
    rows = hashlib.sha256(json.dumps(doc["rows"]).encode()).hexdigest()
    assert not oracles.check_command(bad, rows)


def _corrupt(kind: str, answer):
    if kind == "nk":
        return answer[0] + 1, answer[1]
    if kind == "index":
        (index, filtration, act), *rest = answer
        return [(index + 2, filtration, act), *rest]
    if kind == "homology":
        return {**answer, 1: 1}
    if kind == "knot_filtered":
        level, ranks = answer
        return level, {**ranks, 0: 0}
    if kind == "toric":
        back, verts, corners, index = answer
        return back, verts, corners, index + 1
    if kind == "cz_table":
        (label, act, cz), *rest = answer
        return [(label, act, cz + 2), *rest]
    if kind == "partition":
        # keep the sum, so only the lattice-path definition can catch it
        i = next((i for i, part in enumerate(answer) if part > 1), None)
        if i is None:
            return (2, *answer[2:])
        return (*answer[:i], *[1] * answer[i], *answer[i + 1:])
    if kind == "verify":
        return answer + 1
    return type(answer)(answer.applicable, not answer.consistent, answer.obstructed_at,
                        answer.k_max)


def test_query_oracle_catches_a_corrupted_answer():
    oracle = queries.Oracle()
    seen = set()
    for kind, args in queries.make_queries(5, 0, "tiny"):
        answer = queries.RUN[kind](*args)
        assert oracle.check(kind, args, answer), kind
        assert not oracles.safe_check(oracle.check, kind, args, _corrupt(kind, answer)), kind
        seen.add(kind)
    assert seen == set(queries.KINDS)


def test_a_failed_check_is_counted():
    passes = [{"ops": [{"s": 0.1, "ok": True}, {"s": 0.1, "ok": False}],
               "wall_s": 0.2, "rss_mb": 20.0, "setup_s": 0.1, "ref_loop_s": run.REF_NOMINAL_S}]
    assert run.end_to_end(passes, passes)["ok_ratio"] == 0.5


def test_times_are_speed_adjusted():
    # the same pass on a machine running at half speed reads the same
    fast = {"ops": [{"s": 0.1, "ok": True}], "wall_s": 0.1, "rss_mb": 20.0, "setup_s": 0.1,
            "ref_loop_s": run.REF_NOMINAL_S}
    slow = {**fast, "ops": [{"s": 0.2, "ok": True}], "wall_s": 0.2, "setup_s": 0.2,
            "ref_loop_s": 2 * run.REF_NOMINAL_S}
    assert run.end_to_end([fast], [fast]) == pytest.approx(run.end_to_end([slow], [slow]))


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_wrapper_cost_is_taken_from_callee_and_caller():
    import spans

    tracer = spans.Tracer()
    tracer.cost_in, tracer.cost_out = 1e-6, 2e-6
    tracer.self_s.update({"parent": 1.0, "leaf": 0.5})
    tracer.calls.update({"parent": 1, "leaf": 1000})
    tracer.edges.update({(None, "parent"): 1, ("parent", "leaf"): 1000})
    corrected = tracer.corrected_self_s()
    assert corrected["leaf"] == pytest.approx(0.5 - 1000 * 1e-6)
    assert corrected["parent"] == pytest.approx(1.0 - 1e-6 - 1000 * 2e-6)
    assert tracer.layer_metrics(2.0)["trace.wrapper_cost_s"] == pytest.approx(1001 * 3e-6)
