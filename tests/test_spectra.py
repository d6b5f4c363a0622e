import math
from fractions import Fraction
from math import gcd

import pytest

from echtk.cli import main
from echtk.currents import KnotParams
from echtk.exact import InfRat, render, render_fraction
from echtk.nseq import nk, nk_closed_form, nk_upto, repeat_count
from echtk.spectra import (
    _fixed_to_str,
    _weyl_fixed,
    _weyl_sup,
    action_linking_bound,
    action_spectrum,
    calabi_mean_action_bound,
    cobordism_obstruction,
    linking_spectrum,
    sqrt_decimal,
    weyl_error_str,
    weyl_error_within,
    weyl_scan,
    weyl_sup,
)

KP = KnotParams(3, 4)
COPRIME_UP_TO_8 = [(p, q) for q in range(2, 9) for p in range(1, q) if gcd(p, q) == 1]


def brute_force_sup(kp, values):
    """sup |e_k| from the fixed-point error at every index."""
    scale_digits, errors = _weyl_fixed(kp, enumerate(values))
    return _fixed_to_str(max(map(abs, errors)), scale_digits, 12)


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
    exact = linking_spectrum(KP, 10, "exact_pq")
    withd = linking_spectrum(KP, 10, "pq_plus_delta")
    assert exact[0] == InfRat(0, 0)
    assert exact[1] == InfRat(3, 0)
    assert withd[10] == InfRat(12, 1)
    for k in range(11):
        assert exact[k] == InfRat(nk(3, 4, k), 0)
        assert withd[k] == InfRat(nk(3, 4, k), repeat_count(3, 4, k) - 1)
    with pytest.raises(ValueError):
        linking_spectrum(KP, 4, "other")


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
    values = nk_upto(2, 3, 2000)
    bound = Fraction(6, 6)
    for k in range(100, 2001):
        assert weyl_error_within(KnotParams(2, 3), k, values[k], bound)
    # a deliberately tight bound must fail somewhere
    assert not all(
        weyl_error_within(KnotParams(2, 3), k, values[k], Fraction(1, 100))
        for k in range(100, 300)
    )


def test_weyl_scan_reports_supremum():
    entries, sup = weyl_scan(KP, 50)
    assert len(entries) == 51
    float_sup = max(abs(float(e)) for _, e in entries)
    assert abs(float(sup) - float_sup) < 1e-9


def test_weyl_sup_matches_brute_force():
    for p, q in COPRIME_UP_TO_8:
        kp = KnotParams(p, q)
        sup = weyl_sup(kp, 3000)
        assert sup == brute_force_sup(kp, nk_upto(p, q, 3000)), (p, q)
        assert weyl_scan(kp, 3000)[1] == sup
    # on N_k the largest |e_k| has sat at the negative, last end of a run; in
    # this nondecreasing sequence it sits at the first index of the run of 100
    kp, values = KnotParams(2, 3), [0, 100, 100]
    assert _weyl_sup(kp, values) == brute_force_sup(kp, values) == weyl_error_str(kp, 1, 100)


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
        assert weyl_sup(kp, k_max) == brute_force_sup(kp, nk_upto(p, q, k_max))

    # the endpoint argument needs only a nondecreasing sequence, not N_k itself
    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(pq=pairs, values=st.lists(st.integers(0, 300), min_size=1, max_size=60))
    def on_sorted_lists(pq, values):
        p, q = pq
        hypothesis.assume(gcd(p, q) == 1)
        kp = KnotParams(p, q)
        values.sort()
        assert _weyl_sup(kp, values) == brute_force_sup(kp, values)

    on_nk()
    on_sorted_lists()


def cli_csv(capsys, *argv):
    assert main([*argv, "--format", "csv"]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("p,q,k_max", [(2, 3, 0), (2, 3, 150), (3, 4, 301), (1, 5, 40), (5, 7, 260)])
def test_scan_commands_match_a_per_k_rendering(capsys, p, q, k_max):
    kp = KnotParams(p, q)
    window = ["--p", str(p), "--q", str(q), "--k-max", str(k_max)]
    values = nk_upto(p, q, k_max)
    repeats = [repeat_count(p, q, k) for k in range(k_max + 1)]
    errors = [weyl_error_str(kp, k, v) for k, v in enumerate(values)]
    assert cli_csv(capsys, "spectrum", *window) == ["k,c_k,c_k_link,e_k"] + [
        f"{k},{render_fraction(Fraction(v, kp.pq))},{render(InfRat(v, r - 1))},{e}"
        for k, (v, r, e) in enumerate(zip(values, repeats, errors))
    ]
    assert cli_csv(capsys, "nseq", *window) == ["k,N_k,repeats"] + [
        f"{k},{v},{r}" for k, (v, r) in enumerate(zip(values, repeats))
    ]
    assert cli_csv(capsys, "weyl", *window, "--plot-data") == ["k,e_k"] + [
        f"{k},{e}" for k, e in enumerate(errors)
    ]


def test_weyl_error_agrees_with_float_math():
    values = nk_upto(3, 4, 400)
    for k in (7, 40, 123, 400):
        want = values[k] / 12 - math.sqrt(2 * k / 12)
        assert abs(float(weyl_error_str(KP, k, values[k])) - want) < 1e-9


def test_cobordism_examples():
    assert cobordism_obstruction((2, 7), (3, 4), 100).obstructed_at == 1
    res = cobordism_obstruction((3, 4), (2, 3), 10**4)
    assert res.applicable and res.consistent
    same = cobordism_obstruction((3, 4), (3, 4), 500)
    assert same.consistent


def test_cobordism_not_applicable_and_validation():
    res = cobordism_obstruction((2, 3), (3, 4), 50)
    assert not res.applicable
    with pytest.raises(ValueError):
        cobordism_obstruction((2, 4), (2, 3), 10)
    # a negative k_max is refused in both directions, applicable or not
    for frm, to in [((2, 3), (3, 4)), ((3, 4), (2, 3))]:
        with pytest.raises(ValueError, match="k_max must be nonnegative"):
            cobordism_obstruction(frm, to, -1)


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
