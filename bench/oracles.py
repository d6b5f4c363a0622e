"""Correctness oracles for the CLI workloads, and the recorded digests.

Every CLI output must exit 0 and hash to the sha256 digest recorded in
``digests.json``.  On top of that the complex outputs are checked for
what the mathematics fixes: homology rank 1 in even and 0 in odd
indices, ``dSquaredZero`` true, and knot-filtered rank 1 at index 2k
exactly when the threshold InfRat(N_k, repeats - 1) -- the value
``linking_threshold`` returns -- is at most the level.  N_k comes from
``NSeq``, the brute-force enumeration, so the check shares no code with
the production search.  The JSON command is digested over its rows only,
so the tool version in its metadata does not enter the digest.

To record the digests again (only when an output change is intended):

    python3 bench/oracles.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


def safe_check(check, *args) -> bool:
    """An oracle that raises counts as a failed check."""
    try:
        return bool(check(*args))
    except Exception:
        return False


def load_digests(size: str) -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[size]


def _argv_value(argv: str, flag: str) -> str:
    parts = argv.split()
    return parts[parts.index(flag) + 1]


def _csv_ranks(text: str) -> dict[int, int]:
    lines = text.splitlines()
    if lines[0] != "index,rank":
        raise ValueError("unexpected header")
    return {int(i): int(r) for i, r in (line.split(",") for line in lines[1:])}


def _thresholds(p: int, q: int, k_max: int):
    """InfRat(N_k, repeats - 1) for k = 0..k_max from the brute-force NSeq."""
    from echtk import InfRat, NSeq

    values = NSeq(p, q).prefix(k_max)
    out, run_start = [], 0
    for k, v in enumerate(values):
        if k and v != values[k - 1]:
            run_start = k
        out.append(InfRat(v, k - run_start))
    return out


def _expected_ranks(argv: str) -> dict[int, int]:
    max_index = int(_argv_value(argv, "--max-index"))
    return {i: 1 - i % 2 for i in range(max_index + 1)}


def _check_digest(op: dict, digest: str | None) -> bool:
    if op["name"] != "homology_d2":
        return op["sha256"] == digest
    rows = json.loads(op["text"])["rows"]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


def check_command(op: dict, digest: str | None) -> bool:
    """True when one CLI operation's output passes every oracle."""
    if op["rc"] != 0 or not _check_digest(op, digest):
        return False
    argv = op["argv"]
    name = op["name"]
    if name == "homology":
        return _csv_ranks(op["text"]) == _expected_ranks(argv)
    if name == "homology_d2":
        doc = json.loads(op["text"])
        ranks = {int(i): int(r) for i, r in doc["rows"]}
        return doc["meta"]["dSquaredZero"] is True and ranks == _expected_ranks(argv)
    if name == "knot_filtered":
        from echtk import InfRat

        max_index = int(_argv_value(argv, "--max-index"))
        rational, coeff = _argv_value(argv, "--filtration").split("+")
        level = InfRat(int(rational), int(coeff.removesuffix("*d")))
        p, q = int(_argv_value(argv, "--p")), int(_argv_value(argv, "--q"))
        thresholds = _thresholds(p, q, max_index // 2)
        expected = {
            i: int(i % 2 == 0 and thresholds[i // 2] <= level) for i in range(max_index + 1)
        }
        return _csv_ranks(op["text"]) == expected
    return op["lines"] > 0


def record_digests() -> dict:
    """Run every CLI command of both sizes once and digest its output."""
    import child

    recorded = {}
    for size, workloads in child.COMMANDS.items():
        recorded[size] = {}
        for commands in workloads.values():
            for op in child.run_commands(commands):
                if op["rc"] != 0:
                    raise SystemExit(f"{op['name']} failed: {op['rc']}")
                if op["name"] == "homology_d2":
                    rows = json.loads(op["text"])["rows"]
                    op["sha256"] = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
                recorded[size][op["name"]] = op["sha256"]
    return recorded


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(record_digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")
