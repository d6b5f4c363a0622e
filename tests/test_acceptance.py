"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they appear.  Tolerances and ranges are pinned here, not configurable.
Golden rows live in golden_tables.py, together with notes on the two
entries that are easy to transcribe wrongly; the T(3,4) golden list stops
mid-degree-20, so the enumeration's extra row "b p^2" is allowed there
explicitly.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, isqrt

from echtk.cli import main
from echtk.complexes import (
    ComplexSpec,
    homology,
    knot_filtered_homology,
    linking_threshold,
)
from echtk.crosscheck import verify_index_identities
from echtk.currents import KnotParams
from echtk.exact import InfRat, floor_inf
from echtk.indices import cz_table
from echtk.nseq import NSeq, lattice_count, nk_closed_form, partition
from echtk.spectra import (
    action_linking_bound,
    action_spectrum,
    calabi_mean_action_bound,
    cobordism_obstruction,
    sqrt_decimal,
)

from gf2_oracle import differential
from golden_tables import CZ_TABLE_T34, TABLE_T34, TABLE_T34_OMITTED, TABLE_T35
from nseq_oracle import nk_prefix
from weyl_oracle import weyl_error_within


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:>2} PASS: {description}")


def _cli_rows(capsys, *argv):
    start = time.monotonic()
    assert main(list(argv)) == 0
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    return out.splitlines(), elapsed


def _generator_rows(capsys, p, q, max_degree):
    lines, elapsed = _cli_rows(
        capsys, "generators", "--p", str(p), "--q", str(q),
        "--max-degree", str(max_degree), "--format", "csv",
    )
    assert lines[0] == "degree,generator,index"
    rows = []
    for line in lines[1:]:
        deg, name, idx = line.split(",")
        rows.append((int(deg), name, int(idx)))
    return rows, elapsed


def _assert_degree_grouped(rows):
    degs = [r[0] for r in rows]
    assert degs == sorted(degs)
    by_deg = {}
    for deg, _, idx in rows:
        by_deg.setdefault(deg, []).append(idx)
    for idxs in by_deg.values():
        assert idxs == sorted(idxs)


def test_criterion_1_table_t34(capsys):
    with criterion(1, "generator table for T(3,4) through degree 20"):
        rows, elapsed = _generator_rows(capsys, 3, 4, 20)
        assert sorted(rows) == sorted(TABLE_T34 + [TABLE_T34_OMITTED])
        _assert_degree_grouped(rows)
        for row in TABLE_T34:
            assert row in rows
        assert elapsed < 1.0


def test_criterion_2_table_t35(capsys):
    with criterion(2, "generator table for T(3,5) through degree 23"):
        rows, _ = _generator_rows(capsys, 3, 5, 23)
        assert sorted(rows) == sorted(TABLE_T35)
        _assert_degree_grouped(rows)


def test_criterion_3_cz_table(capsys):
    with criterion(3, "Conley-Zehnder table for T(3,4)"):
        lines, elapsed = _cli_rows(
            capsys, "cz-table", "--p", "3", "--q", "4", "--format", "csv"
        )
        assert lines[0] == "orbit,action,cz_orb"
        rows = [(ln.split(",")[0], int(ln.split(",")[2])) for ln in lines[1:]]
        assert rows == CZ_TABLE_T34
        assert [cz for _, cz in rows] == [
            3, 5, 7, 9, 11, 13, 13, 14, 15, 17, 19, 21, 23, 25, 27, 27, 28, 29,
        ]
        assert elapsed < 1.0


def test_criterion_4_d_squared_and_homology():
    with criterion(4, "d^2 = 0 and even/odd homology ranks, all 2<=p<q<=7, degree 100"):
        start = time.monotonic()
        for p in range(2, 8):
            for q in range(p + 1, 8):
                if gcd(p, q) != 1:
                    continue
                kp = KnotParams(p, q)
                spec = ComplexSpec(kp, 100)
                assert differential(spec).d_squared_is_zero()
                k_top = lattice_count(p, q, 100) - 1
                ranks = homology(spec, 2 * k_top)
                for i in range(2 * k_top + 1):
                    assert ranks[i] == (1 if i % 2 == 0 else 0), (p, q, i)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0


def test_criterion_5_index_cross_checks():
    with criterion(5, "index identities on all currents of degree <= 120, p,q <= 8"):
        total = 0
        for p in range(1, 9):
            for q in range(p, 9):
                if gcd(p, q) == 1:
                    total += verify_index_identities(p, q, 120)
        assert total > 900_000


def test_criterion_6_spectrum_and_thresholds():
    with criterion(6, "action spectrum oracle to k=1000 and linking thresholds to k=200"):
        kp = KnotParams(3, 4)
        oracle = sorted(
            Fraction(a, 3) + Fraction(b, 4)
            for a in range(40)
            for b in range(53)
            if Fraction(a, 3) + Fraction(b, 4) <= 13
        )[:1001]
        assert [e.ck for e in action_spectrum(kp, 1000)] == oracle

        values = nk_prefix(3, 4, 200)
        for k in range(201):
            level = linking_threshold(kp, k)
            run_start = k
            while run_start and values[run_start - 1] == values[k]:
                run_start -= 1
            assert level == InfRat(values[k], k - run_start)
            spec = ComplexSpec(kp, values[k])
            assert knot_filtered_homology(spec, level, 2 * k)[2 * k] == 1
            below = level - InfRat(0, 1)
            assert knot_filtered_homology(spec, below, 2 * k)[2 * k] == 0


def test_criterion_7_weyl_property():
    with criterion(7, "|e_k| <= (p+q+1)/pq on 100 <= k <= 1e5 and closed-form match"):
        start = time.monotonic()
        scale = 10**18
        tol = 10**6  # 1e-12 at the 1e-18 fixed-point scale
        for p, q in ((2, 3), (3, 4)):
            kp = KnotParams(p, q)
            values = nk_prefix(p, q, 10**5)
            bound = Fraction(p + q + 1, p * q)
            for k in range(100, 10**5 + 1):
                assert weyl_error_within(kp, k, values[k], bound), (p, q, k)
            n = 1
            while True:
                k, value, _ = nk_closed_form(p, q, n)
                if k > 10**5:
                    break
                if k >= 100:
                    # closed-form route (sqrt(8pqk+(p+q+1)^2)-(p+q+1))/(2pq)
                    # minus sqrt(2k/pq), evaluated independently in fixed point
                    c = p + q + 1
                    rad_root = isqrt((8 * p * q * k + c * c) * scale * scale)
                    root2 = isqrt(2 * k * p * q * scale * scale)
                    closed = ((rad_root - c * scale) // 2 - root2) // (p * q)
                    direct = (value * scale - root2) // (p * q)
                    assert abs(closed - direct) <= tol, (p, q, k)
                n += 1
        elapsed = time.monotonic() - start
        assert elapsed < 30.0


def test_criterion_8_lemma_identities():
    with criterion(8, "floor-sum identity p<q<=50 and closed-form self-check n<=50, p,q<=10"):
        for q in range(2, 51):
            for p in range(1, q):
                if gcd(p, q) != 1:
                    continue
                theta = InfRat(Fraction(p, q), -1)
                total = sum(floor_inf(theta * j) for j in range(1, q + 1))
                assert 2 * total == (p - 1) * (q + 1), (p, q)
        for p in range(1, 11):
            for q in range(p, 11):
                if gcd(p, q) != 1:
                    continue
                for n in range(51):
                    nk_closed_form(p, q, n)  # raises on any internal mismatch


def test_criterion_9_obstructions():
    with criterion(9, "cobordism obstruction scans"):
        res = cobordism_obstruction((2, 7), (3, 4), 100)
        assert res.applicable and not res.consistent and res.obstructed_at == 1
        res = cobordism_obstruction((3, 4), (2, 3), 10**4)
        assert res.applicable and res.consistent
        for p, q in ((2, 3), (3, 4), (5, 7), (1, 1)):
            res = cobordism_obstruction((p, q), (p, q), 2000)
            assert res.applicable and res.consistent
            # exact equality of the sequence against the independent path
            assert NSeq(p, q).prefix(2000) == nk_prefix(p, q, 2000)


def test_criterion_10_partition_golden_cases():
    with criterion(10, "partition golden cases"):
        for p in range(1, 21):
            for q in range(1, 21):
                if gcd(p, q) != 1:
                    continue
                theta = InfRat(Fraction(p, q), -1)
                assert partition(theta, q, "-") == (q,), (p, q)
        for m in range(1, 51):
            assert partition(InfRat(0, 1), m, "+") == tuple([1] * m)
            assert partition(InfRat(0, 1), m, "-") == (m,)


def test_criterion_11_bounds():
    with criterion(11, "action-linking and Calabi mean-action bounds"):
        res = action_linking_bound(KnotParams(2, 3), Fraction(1, 10), Fraction(1, 10))
        assert res.hypothesis_met is True
        assert Fraction(1, 10) < Fraction(600, 3721)  # the exact hypothesis margin
        assert res.bound_squared == Fraction(1, 60)
        assert res.bound == sqrt_decimal(Fraction(1, 60), 12)
        assert abs(Fraction(res.bound) ** 2 - Fraction(1, 60)) < Fraction(1, 10**11)

        res = action_linking_bound(KnotParams(3, 4), Fraction(1, 100), Fraction(1, 20))
        assert res.hypothesis_met is True
        assert res.bound_squared == Fraction(1, 240)
        assert res.bound == sqrt_decimal(Fraction(1, 240), 12)

        res = action_linking_bound(
            KnotParams(2, 3), Fraction(1, 10), Fraction(600, 3721)
        )
        assert res.hypothesis_met is False and res.bound is None

        res = calabi_mean_action_bound(KnotParams(2, 3), Fraction(-1, 20), Fraction(1, 20))
        assert res.hypothesis_met is True
        assert Fraction(1, 20) < Fraction(49, 600)  # calabi < pq * theta0^2
        assert res.bound_squared == Fraction(1, 120)
        assert res.bound == sqrt_decimal(Fraction(1, 120), 12)

        kp23 = KnotParams(2, 3)
        res = calabi_mean_action_bound(kp23, Fraction(0), Fraction(1, 72))
        assert res.hypothesis_met is True and res.bound_squared == Fraction(1, 432)
        res = calabi_mean_action_bound(kp23, Fraction(0), Fraction(1, 6))
        assert res.hypothesis_met is False and res.bound is None
