import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import groupby
from math import gcd

import pytest

from echtk import spectra
from echtk.cli import main
from echtk.currents import KnotParams
from echtk.exact import InfRat, render, render_fraction
from echtk.nseq import NSeq, _ordered_from, nk, nk_closed_form, repeat_count, runs
from echtk.spectra import (
    CobordismResult,
    _error_runs,
    _weyl_sup,
    action_linking_bound,
    action_spectrum,
    calabi_mean_action_bound,
    cobordism_obstruction,
    linking_spectrum,
    sqrt_decimal,
    weyl_sup,
)
from nseq_oracle import nk_prefix
from weyl_oracle import divmod_fixed, weyl_error_str, weyl_error_within, weyl_fixed

KP = KnotParams(3, 4)
COPRIME_UP_TO_8 = [(p, q) for q in range(2, 9) for p in range(1, q) if gcd(p, q) == 1]


def brute_force_sup(kp, values):
    """sup |e_k| from the oracle's fixed-point error at every index."""
    top = max(abs(weyl_fixed(kp, k, value)) for k, value in enumerate(values))
    return divmod_fixed(top, 18, 12)


def to_runs(values):
    """(first k, value, length) runs of a sorted list."""
    return [(values.index(value), value, len(list(run))) for value, run in groupby(values)]


def test_action_spectrum_examples():
    entries = action_spectrum(KP, 10)
    assert entries[0].ck == 0
    assert entries[1].ck == Fraction(1, 4)
    assert entries[10].ck == 1


def test_action_spectrum_against_fraction_oracle():
    vals = sorted(
        Fraction(a, 3) + Fraction(b, 4)
        for a in range(40)
        for b in range(53)
        if Fraction(a, 3) + Fraction(b, 4) <= 9
    )
    entries = action_spectrum(KP, 200)
    assert [e.ck for e in entries] == vals[:201]


def test_spectrum_consistency():
    entries = action_spectrum(KP, 120)
    for k, e in enumerate(entries):
        assert e.k == k
        assert e.ck * 12 == e.ck_link.rat
        assert e.ck_link == InfRat(nk(3, 4, k), repeat_count(3, 4, k) - 1)
        assert e.weyl_error == weyl_error_str(KP, k, nk(3, 4, k))
    cks = [e.ck for e in entries]
    assert cks == sorted(cks)
    links = [e.ck_link for e in entries]
    assert all(a <= b for a, b in zip(links, links[1:]))


def test_linking_spectrum_examples():
    withd = linking_spectrum(KP, 10)
    assert withd[10] == InfRat(12, 1)
    for k in range(11):
        assert withd[k] == InfRat(nk(3, 4, k), repeat_count(3, 4, k) - 1)


def test_weyl_error_zero_at_origin():
    assert weyl_error_str(KP, 0, 0) == "0.000000000000"


def test_weyl_errors_tend_to_the_subleading_constant():
    # at the special indices e_k approaches -(p+q+1)/(2pq) = -1/3 like 1/n
    target = float(-Fraction(8, 24))
    gaps = []
    for n in (20, 40, 80, 160):
        k, value, _ = nk_closed_form(3, 4, n)
        gaps.append(abs(float(weyl_error_str(KP, k, value)) - target))
    assert gaps == sorted(gaps, reverse=True)
    for n, gap in zip((20, 40, 80, 160), gaps):
        assert gap < 0.06 / n


def test_weyl_exact_bound_check():
    values = nk_prefix(2, 3, 2000)
    bound = Fraction(6, 6)
    for k in range(100, 2001):
        assert weyl_error_within(KnotParams(2, 3), k, values[k], bound)
    # a deliberately tight bound must fail somewhere
    assert not all(
        weyl_error_within(KnotParams(2, 3), k, values[k], Fraction(1, 100))
        for k in range(100, 300)
    )


def test_weyl_sup_is_the_largest_plot_data_error():
    # the rows of weyl --plot-data, read back as floats
    entries = [e for _, _, errors in _error_runs(KP, 50) for e in errors]
    sup = weyl_sup(KP, 50)
    assert len(entries) == 51
    float_sup = max(abs(float(e)) for e in entries)
    assert abs(float(sup) - float_sup) < 1e-9


def test_weyl_sup_matches_brute_force():
    for p, q in COPRIME_UP_TO_8:
        kp = KnotParams(p, q)
        sup = weyl_sup(kp, 3000)
        assert sup == brute_force_sup(kp, nk_prefix(p, q, 3000)), (p, q)
    # on N_k the largest |e_k| has sat at the negative, last end of a run; in
    # this nondecreasing sequence it sits at the first index of the run of 100
    kp, values = KnotParams(2, 3), [0, 100, 100]
    assert _weyl_sup(kp, [(0, 0, 1), (1, 100, 2)]) == brute_force_sup(kp, values)
    assert brute_force_sup(kp, values) == weyl_error_str(kp, 1, 100)


def test_weyl_sup_property_over_random_pairs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pairs = st.integers(2, 40).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q)))

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(pq=pairs, k_max=st.integers(0, 1500))
    def on_nk(pq, k_max):
        p, q = pq
        hypothesis.assume(gcd(p, q) == 1)
        kp = KnotParams(p, q)
        assert weyl_sup(kp, k_max) == brute_force_sup(kp, nk_prefix(p, q, k_max))

    # the endpoint argument needs only a nondecreasing sequence, not N_k itself
    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(pq=pairs, values=st.lists(st.integers(0, 300), min_size=1, max_size=60))
    def on_sorted_lists(pq, values):
        p, q = pq
        hypothesis.assume(gcd(p, q) == 1)
        kp = KnotParams(p, q)
        values.sort()
        assert _weyl_sup(kp, to_runs(values)) == brute_force_sup(kp, values)

    on_nk()
    on_sorted_lists()


def error_run(kp, k, value, length):
    """The texts _error_runs gives for the run (k, value, length), fed to it
    in place of the N_k runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "runs", lambda p, q, k_max: iter([(k, value, length)]))
        [(first, got_value, texts)] = _error_runs(kp, 0)
    assert (first, got_value) == (k, value)
    return texts


def k_with_error(kp, value, x, rest):
    """The k at which N = value has the floored fixed-point error
    x = (T - r) // pq, with T - r = x*pq + rest % pq: for N above pq*10^18
    (pq < 1,600 here), r = isqrt(square * k) steps by about pq*10^18/N < 1
    as k grows, so it takes every integer value and the least k with
    r^2 <= square * k gives that r."""
    r = value * 10**18 - x * kp.pq - rest % kp.pq
    square = 2 * kp.pq * 10**36
    k = -(-r * r // square)
    assert math.isqrt(square * k) == r
    return k


def test_weyl_sup_rounds_half_up_at_its_edges():
    # one run of one index whose floored error x is next to a rounding
    # edge, |x| = m*10^6 + 5*10^5 + edge: the sup is |x| rounded half up
    value = 10**22
    for p, q in [(1, 1), (2, 3), (37, 40)]:
        kp = KnotParams(p, q)
        for m in (0, 1, 123_456_789_012, 999_999_999_999):  # the last carries into 1.0
            for edge in (-1, 0, 1):
                for sign in (1, -1):
                    x = sign * (m * 10**6 + 5 * 10**5 + edge)
                    k = k_with_error(kp, value, x, 0)
                    assert _weyl_sup(kp, [(k, value, 1)]) == divmod_fixed(abs(x), 18, 12)
    assert divmod_fixed(5 * 10**5, 18, 12) == "0.000000000001"
    assert divmod_fixed(999_999_999_999_500_000, 18, 12) == "1.000000000000"


def test_error_runs_match_the_oracle_far_out():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pairs = st.integers(1, 40).flatmap(lambda q: st.tuples(st.integers(1, q), st.just(q)))

    # N is shift/100 of pq from sqrt(2pq*k): both signs and |e_k| up to 3
    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(pq=pairs, k=st.integers(0, 10**9), length=st.integers(1, 40),
                      shift=st.integers(-300, 300))
    @hypothesis.example(pq=(1, 1), k=2, length=3, shift=-100)  # e_2 = -1 exactly
    @hypothesis.example(pq=(1, 1), k=10**9, length=40, shift=250)
    def far_runs(pq, k, length, shift):
        p, q = pq
        hypothesis.assume(gcd(p, q) == 1)
        kp = KnotParams(p, q)
        value = max(0, math.isqrt(2 * kp.pq * k) + shift * kp.pq // 100)
        texts = error_run(kp, k, value, length)
        assert texts == [weyl_error_str(kp, j, value) for j in range(k, k + length)]

    # a floored error x = (T - r) // pq next to a rounding edge,
    # |x| = m*10^6 + 5*10^5 + edge
    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(pq=pairs, m=st.integers(0, 4 * 10**12), edge=st.integers(-2, 1),
                      sign=st.sampled_from([1, -1]), rest=st.integers(0, 39),
                      value=st.integers(10**22, 10**23))
    def at_rounding_edges(pq, m, edge, sign, rest, value):
        p, q = pq
        hypothesis.assume(gcd(p, q) == 1)
        kp = KnotParams(p, q)
        x = sign * (m * 10**6 + 5 * 10**5 + edge)
        k = k_with_error(kp, value, x, rest)
        assert error_run(kp, k, value, 1) == [weyl_error_str(kp, k, value)]

    far_runs()
    at_rounding_edges()
    # on N_k itself, (1,1) has rows with |e_k| >= 1
    for p, q, k_max in [(1, 1, 500), (2, 3, 300), (37, 40, 2000)]:
        kp, values = KnotParams(p, q), nk_prefix(p, q, k_max)
        texts = [e for _, _, errors in _error_runs(kp, k_max) for e in errors]
        assert texts == [weyl_error_str(kp, k, v) for k, v in enumerate(values)], (p, q)


def cli_out(capsys, fmt, *argv):
    assert main([*argv, "--format", fmt]) == 0
    return capsys.readouterr().out


def table_lines(header, rows):
    """The aligned table: each column padded to its widest cell."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in [header, *rows]]


@pytest.mark.parametrize("p,q,k_max", [
    (2, 3, 0), (2, 3, 150), (3, 4, 301), (1, 5, 40), (5, 7, 260),
    # q = 1 (p^-1 mod 1), a window of one index, and a last run cut short
    (1, 1, 0), (1, 1, 60), (1, 5, 0), (1, 5, 13), (3, 4, 9), (5, 7, 0),
])
def test_scan_commands_match_a_per_k_rendering(capsys, p, q, k_max):
    kp = KnotParams(p, q)
    window = ["--p", str(p), "--q", str(q), "--k-max", str(k_max)]
    values = nk_prefix(p, q, k_max)
    repeats = [repeat_count(p, q, k) for k in range(k_max + 1)]
    errors = [weyl_error_str(kp, k, v) for k, v in enumerate(values)]
    scans = {
        ("spectrum",): (["k", "c_k", "c_k_link", "e_k"], [
            [str(k), render_fraction(Fraction(v, kp.pq)), render(InfRat(v, r - 1)), e]
            for k, (v, r, e) in enumerate(zip(values, repeats, errors))
        ]),
        ("nseq",): (["k", "N_k", "repeats"], [
            [str(k), str(v), str(r)] for k, (v, r) in enumerate(zip(values, repeats))
        ]),
        ("weyl", "--plot-data"): (["k", "e_k"], [[str(k), e] for k, e in enumerate(errors)]),
    }
    for command, (header, rows) in scans.items():
        argv = [*command[:1], *window, *command[1:]]
        csv = cli_out(capsys, "csv", *argv)
        assert csv.splitlines() == [",".join(row) for row in [header, *rows]], command
        assert csv.endswith("\n")
        assert cli_out(capsys, "table", *argv).splitlines() == table_lines(header, rows), command
        doc = json.loads(cli_out(capsys, "json", *argv))
        assert (doc["columns"], doc["rows"]) == (header, rows), command
        assert (doc["meta"]["p"], doc["meta"]["q"], doc["meta"]["kMax"]) == (p, q, k_max)


def test_weyl_error_agrees_with_float_math():
    values = nk_prefix(3, 4, 400)
    for k in (7, 40, 123, 400):
        want = values[k] / 12 - math.sqrt(2 * k / 12)
        assert abs(float(weyl_error_str(KP, k, values[k])) - want) < 1e-9


def test_cobordism_examples():
    assert cobordism_obstruction((2, 7), (3, 4), 100).obstructed_at == 1
    res = cobordism_obstruction((3, 4), (2, 3), 10**4)
    assert res.applicable and res.consistent
    same = cobordism_obstruction((3, 4), (3, 4), 500)
    assert same.consistent


def zip_scan(frm, to, k_max):
    """The obstruction scan over two whole brute-force prefixes."""
    if frm[0] * frm[1] < to[0] * to[1]:
        return False, False, None
    src, dst = NSeq(*frm).prefix(k_max), NSeq(*to).prefix(k_max)
    for k, (a, b) in enumerate(zip(src, dst)):
        if a < b:
            return True, False, k
    return True, True, None


def test_cobordism_run_merge_equals_the_zip_scan():
    rng = random.Random(5)
    pairs = [(p, q) for q in range(1, 13) for p in range(1, 13) if gcd(p, q) == 1]
    for _ in range(50):
        frm, to, k_max = rng.choice(pairs), rng.choice(pairs), rng.randint(0, 3000)
        if frm[0] * frm[1] < to[0] * to[1] and rng.random() < 0.8:
            frm, to = to, frm  # mostly applicable pairs, where the merge runs
        res = cobordism_obstruction(frm, to, k_max)
        assert (res.applicable, res.consistent, res.obstructed_at) == zip_scan(frm, to, k_max)
        assert res.k_max == k_max


PAIRS_TO_12 = [(p, q) for q in range(1, 13) for p in range(1, 13) if gcd(p, q) == 1]


def test_cobordism_of_close_products_equals_the_zip_scan():
    # with P - P' in {1, 2} the bounds settle the order late, often past k_max
    rng = random.Random(8)
    close = [(a, b) for a in PAIRS_TO_12 for b in PAIRS_TO_12
             if a[0] * a[1] - b[0] * b[1] in (1, 2)]
    settled = []
    for frm, to in rng.sample(close, 40):
        k_max = rng.randint(0, 3000)
        res = cobordism_obstruction(frm, to, k_max)
        assert (res.applicable, res.consistent, res.obstructed_at) == zip_scan(frm, to, k_max)
        settled.append(_ordered_from(frm, to) <= k_max)
    assert any(settled) and not all(settled)


def test_the_order_holds_where_the_bounds_settle_it():
    # N_j(src) >= N_j(dst) on the 2001 indices from j0 on, by the brute-force sequences
    pairs = [(p, q) for q in range(1, 9) for p in range(1, 9) if gcd(p, q) == 1]
    seqs = {pair: NSeq(*pair) for pair in pairs}
    for frm in pairs:
        for to in pairs:
            if frm[0] * frm[1] > to[0] * to[1]:
                j0 = _ordered_from(frm, to)
                src, dst = seqs[frm].prefix(j0 + 2000), seqs[to].prefix(j0 + 2000)
                assert all(a >= b for a, b in zip(src[j0:], dst[j0:])), (frm, to, j0)


def test_the_order_is_settled_from_the_least_j_the_square_roots_allow():
    # j0 is the least j with sqrt(2Pj) - sqrt(2P'j) >= p + q + 1, here in 60-digit decimals
    with localcontext() as ctx:
        ctx.prec = 60
        for frm in PAIRS_TO_12:
            for to in PAIRS_TO_12:
                P, P2, c = frm[0] * frm[1], to[0] * to[1], frm[0] + frm[1] + 1
                if P > P2:
                    j0 = _ordered_from(frm, to)
                    gap = [Decimal(2 * P * j).sqrt() - Decimal(2 * P2 * j).sqrt()
                           for j in (j0 - 1, j0)]
                    assert gap[0] < c <= gap[1], (frm, to, j0)


def test_the_scan_reads_the_runs_up_to_where_the_order_is_settled(monkeypatch):
    tops = []

    def recorded(p, q, k_max):
        tops.append(k_max)
        return runs(p, q, k_max)

    monkeypatch.setattr(spectra, "runs", recorded)
    # the same pair in either order reads no run: N_k(p,q) = N_k(q,p)
    for frm, to, k_max, read in [((5, 7), (3, 4), 10**18, [15, 15]), ((5, 7), (3, 4), 10, [10, 10]),
                                 ((5, 6), (3, 10), 3000, [3000, 3000]), ((3, 4), (3, 4), 700, []),
                                 ((4, 3), (3, 4), 10**18, [])]:
        tops.clear()
        assert cobordism_obstruction(frm, to, k_max).consistent
        assert tops == read


def test_cobordism_of_equal_products_scans_to_k_max():
    # pq = p'q' = 30: no bound settles the order, so every index is compared
    for frm, to in [((5, 6), (3, 10)), ((3, 10), (5, 6)), ((1, 30), (2, 15)), ((6, 5), (5, 6))]:
        for k_max in (0, 1, 29, 500, 3000):
            res = cobordism_obstruction(frm, to, k_max)
            assert (res.applicable, res.consistent, res.obstructed_at) == zip_scan(frm, to, k_max)


def test_the_same_pair_in_either_order_is_consistent_up_to_k_max():
    # N_k(p,q) = N_k(q,p): the two run streams the merge reads are equal, so
    # it could find no violation, and the answer is the zip scan's
    for p, q in [(1, 1), (1, 2), (2, 3), (3, 4), (5, 7), (2, 9)]:
        for k_max in (0, 1, 17, 500):
            assert list(runs(p, q, k_max)) == list(runs(q, p, k_max))
            for frm, to in [((p, q), (q, p)), ((q, p), (p, q)), ((p, q), (p, q))]:
                res = cobordism_obstruction(frm, to, k_max)
                assert res == CobordismResult(True, True, None, k_max)
                assert res[:3] == zip_scan(frm, to, k_max)


def test_cobordism_at_a_billion():
    res = cobordism_obstruction((2, 7), (3, 4), 10**9)
    assert (res.applicable, res.obstructed_at) == (True, 1)
    assert cobordism_obstruction((3, 4), (3, 4), 10**9).consistent


def test_cobordism_not_applicable_and_validation():
    res = cobordism_obstruction((2, 3), (3, 4), 50)
    assert not res.applicable
    with pytest.raises(ValueError):
        cobordism_obstruction((2, 4), (2, 3), 10)
    # a negative k_max is refused in both directions, applicable or not
    for frm, to in [((2, 3), (3, 4)), ((3, 4), (2, 3))]:
        with pytest.raises(ValueError, match="k_max must be nonnegative"):
            cobordism_obstruction(frm, to, -1)


def test_sqrt_decimal_over_digit_counts():
    # y = sqrt_decimal(a/b, d) in units of 10^-d is x = 10^d * sqrt(a/b)
    # rounded half up, y - 1/2 <= x < y + 1/2: squared, in integers only,
    # (2y - 1)^2 * b <= 4a * 10^(2d) < (2y + 1)^2 * b (no lower bound at y = 0)
    def check(a, b, digits):
        whole, frac = sqrt_decimal(Fraction(a, b), digits).split(".")
        assert len(frac) == digits
        y, scaled = int(whole + frac), 4 * a * 10 ** (2 * digits)
        assert max(2 * y - 1, 0) ** 2 * b <= scaled < (2 * y + 1) ** 2 * b, (a, b, digits)
        return y

    for digits in range(1, 41):
        for a, b in ((1, 60), (2, 1), (10**9 + 7, 3), (0, 1)):
            check(a, b, digits)
    rng = random.Random(32)
    for _ in range(3000):
        a, b = (rng.randrange(10 ** rng.randrange(1, 41)) for _ in range(2))
        check(a, b + 1, rng.randrange(1, 41))
    # exact ties, sqrt = (2y + 1) / (2 * 10^d), round up
    for _ in range(1000):
        digits = rng.randrange(1, 41)
        y = rng.randrange(10 ** rng.randrange(1, 41))
        assert check((2 * y + 1) ** 2, 4 * 10 ** (2 * digits), digits) == y + 1
    for digits in (0, -1):
        with pytest.raises(ValueError):
            sqrt_decimal(2, digits)


def test_sqrt_decimal():
    assert sqrt_decimal(Fraction(1, 4)) == "0.500000000000"
    assert sqrt_decimal(4, digits=3) == "2.000"
    v = float(sqrt_decimal(Fraction(1, 60)))
    assert abs(v - math.sqrt(1 / 60)) < 1e-12
    with pytest.raises(ValueError):
        sqrt_decimal(-1)


def test_action_linking_bound_examples():
    res = action_linking_bound(KnotParams(2, 3), Fraction(1, 10), Fraction(1, 10))
    assert res.hypothesis_met
    assert res.bound_squared == Fraction(1, 60)
    assert res.bound == sqrt_decimal(Fraction(1, 60))
    assert abs(float(res.bound) - math.sqrt(1 / 60)) < 1e-12
    res = action_linking_bound(KP, Fraction(1, 100), Fraction(1, 20))
    assert res.hypothesis_met and res.bound_squared == Fraction(1, 240)
    # contrapositive: V at or above the threshold gives no bound
    thresh = Fraction(6) / (6 + Fraction(1, 10)) ** 2
    res = action_linking_bound(KnotParams(2, 3), Fraction(1, 10), thresh)
    assert not res.hypothesis_met and res.bound is None


def test_action_linking_bound_validation():
    with pytest.raises(ValueError):
        action_linking_bound(KP, Fraction(0), Fraction(1, 10))
    with pytest.raises(ValueError):
        action_linking_bound(KP, Fraction(1, 10), Fraction(-1))


def test_calabi_bound_examples():
    res = calabi_mean_action_bound(KnotParams(2, 3), Fraction(-1, 20), Fraction(1, 20))
    assert res.hypothesis_met
    assert res.bound_squared == Fraction(1, 120)
    assert res.bound == sqrt_decimal(Fraction(1, 120))
    assert abs(float(res.bound) - math.sqrt(1 / 120)) < 1e-12
    # d = 0 with a small Calabi invariant
    kp = KnotParams(2, 3)
    res = calabi_mean_action_bound(kp, Fraction(0), Fraction(1, 2 * 6 * 6))
    assert res.hypothesis_met and res.bound_squared == Fraction(1, 432)
    # at or above pq*theta0^2 there is no bound
    res = calabi_mean_action_bound(kp, Fraction(0), Fraction(1, 6))
    assert not res.hypothesis_met


def test_calabi_bound_validation():
    with pytest.raises(ValueError):
        calabi_mean_action_bound(KP, Fraction(1, 24), Fraction(1, 50))  # d > 0
    with pytest.raises(ValueError):
        calabi_mean_action_bound(KP, Fraction(-1, 12), Fraction(1, 50))  # d <= -1/pq
    with pytest.raises(ValueError):
        calabi_mean_action_bound(KP, Fraction(0), Fraction(0))


@pytest.mark.parametrize("p,q", [(1, 3), (2, 1)])
def test_calabi_bound_needs_p_and_q_at_least_2(p, q):
    # refused by the library, not only by the CLI; d = 0 is in (-1/pq, 0]
    with pytest.raises(ValueError, match=r"^the mean-action bound needs p, q >= 2$"):
        calabi_mean_action_bound(KnotParams(p, q), Fraction(0), Fraction(1, 100))
