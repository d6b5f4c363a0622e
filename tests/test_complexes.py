import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from echtk import complexes
from echtk.cli import main
from echtk.complexes import (
    ComplexSpec,
    WindowError,
    _line_renderer,
    _lines,
    d_squared_is_zero,
    enumerate_currents,
    homology,
    homology_representative,
    knot_filtered_homology,
    linking_threshold,
    required_degree,
)
from echtk.currents import KnotParams, ReebCurrent, degree, knot_filtration
from echtk.exact import InfRat
from echtk.indices import _index_evaluator, ech_index
from echtk.nseq import nk, repeat_count
from gf2_oracle import (
    _complex,
    admissible_exponents,
    assert_ranks_match_oracle,
    bitset_columns,
    bitset_ranks,
    differential,
    keep_mask,
    line_currents,
    squares_vanish,
    subcomplex_ranks,
)

KP = KnotParams(3, 4)


def brute_enumerate(kp, max_degree):
    out = []
    for B in range(max_degree // kp.pq + 1):
        for H in (0, 1):
            for P in range(max_degree // kp.q + 1):
                for Q in range(max_degree // kp.p + 1):
                    c = ReebCurrent(B, H, P, Q)
                    if degree(c, kp) <= max_degree:
                        out.append(c)
    return out


def test_enumerate_examples():
    small = enumerate_currents(ComplexSpec(KP, 7))
    assert [c.name() for c in small] == ["1", "q", "p", "q^2", "p q"]
    deg12 = [c.name() for c in enumerate_currents(ComplexSpec(KP, 12)) if degree(c, KP) == 12]
    assert deg12 == ["p^3", "q^4", "h", "b"]
    assert [c.name() for c in enumerate_currents(ComplexSpec(KP, 0))] == ["1"]


def test_enumerate_matches_brute_force():
    for p, q in [(2, 3), (3, 4), (1, 2)]:
        kp = KnotParams(p, q)
        got = enumerate_currents(ComplexSpec(kp, 30))
        assert sorted(got, key=tuple) == sorted(
            brute_enumerate(kp, 30), key=tuple
        )


def test_enumerate_sorted_by_index_then_name():
    gens = enumerate_currents(ComplexSpec(KP, 40))
    keys = [(ech_index(c, KP), c.name()) for c in gens]
    assert keys == sorted(keys)


def test_differential_examples():
    matrix = differential(ComplexSpec(KP, 12))
    pos = {c: i for i, c in enumerate(matrix.generators)}
    col_h = matrix.columns[pos[ReebCurrent(H=1)]]
    assert len(col_h) == 2
    assert {matrix.generators[i].name() for i in col_h} == {"p^3", "q^4"}
    assert matrix.columns[pos[ReebCurrent(B=1)]] == ()
    matrix = differential(ComplexSpec(KP, 24))
    col_hq = matrix.columns[pos_of(matrix, "h q")]
    assert len(col_hq) == 2
    assert {matrix.generators[i].name() for i in col_hq} == {"p^3 q", "q^5"}


def pos_of(matrix, name):
    position = {c: i for i, c in enumerate(matrix.generators)}
    return position[ReebCurrent.from_name(name)]


def test_d_squared_zero_at_degree_120():
    for p, q in [(2, 3), (3, 4), (5, 7)]:
        spec = ComplexSpec(KnotParams(p, q), 120)
        assert differential(spec).d_squared_is_zero()
        assert d_squared_is_zero(spec)


def test_d_squared_detects_a_nonzero_square():
    matrix = differential(ComplexSpec(KP, 24))
    j = pos_of(matrix, "h q")
    target = matrix.columns[j][0]
    matrix.columns[target] = matrix.columns[j]
    assert not matrix.d_squared_is_zero()


def test_squares_vanish_detects_a_nonzero_square():
    # the oracle's d^2: one h-current hitting two points, then a column
    # through the h-current
    assert squares_vanish([(), (), (0, 1)])
    assert not squares_vanish([(), (), (0, 1), (2,)])


def moved_exponents(monkeypatch, move):
    """Patch the renderer's ``exponents`` so that ``move(kp, e)`` replaces
    each current e of every line it lists."""
    renderer = complexes._line_renderer

    def patched(kp, max_degree):
        rows, exponents = renderer(kp, max_degree)
        return rows, lambda *line: [move(kp, *e) for e in exponents(*line)]

    monkeypatch.setattr(complexes, "_line_renderer", patched)


def test_per_line_d_squared_check_refuses_a_column_outside_its_line(monkeypatch):
    moved_exponents(monkeypatch, lambda kp, b, h, P, Q: (b, h, P, Q + h))
    with pytest.raises(AssertionError, match="inside its line"):
        d_squared_is_zero(ComplexSpec(KP, 40))


@pytest.mark.parametrize("step", [-1, 1])
def test_per_line_d_squared_check_refuses_a_column_with_one_target_outside(monkeypatch, step):
    # every h-current moved one place along its line, (P, Q) -> (P + step*p,
    # Q - step*q): back, only the first one's q-target leaves the line;
    # forward, only the last one's p-target
    moved_exponents(monkeypatch, lambda kp, b, h, P, Q: (b, h, P + h * step * kp.p,
                                                        Q - h * step * kp.q))
    with pytest.raises(AssertionError, match="inside its line"):
        d_squared_is_zero(ComplexSpec(KP, 40))


def test_per_line_d_squared_check_refuses_under_python_dash_o():
    # the refusal is a raise, not an assert statement, so -O keeps the check
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "from echtk import complexes\n"
        "from echtk.currents import KnotParams\n"
        "renderer = complexes._line_renderer\n"
        "def patched(kp, max_degree):\n"
        "    rows, exponents = renderer(kp, max_degree)\n"
        "    return rows, lambda *line: [(b, h, P, Q + h) for b, h, P, Q in exponents(*line)]\n"
        "complexes._line_renderer = patched\n"
        "complexes.d_squared_is_zero(complexes.ComplexSpec(KnotParams(3, 4), 40))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.endswith("AssertionError: a column must stay inside its line\n")


def test_each_h_current_hits_the_two_points_it_sits_between():
    # h-current i of a line hits point i + 1 (P + p) and point i (Q + q),
    # the targets d_squared_is_zero looks up, so every line is a path; the
    # renderer lists the m points first, each half in name order
    for p, q in [(1, 1), (1, 2), (2, 3), (3, 4), (2, 7), (5, 7)]:
        kp = KnotParams(p, q)
        _, exponents = _line_renderer(kp, 80)
        for line in _lines(kp, 80):
            _, D, B, P0, Q0, m = line
            currents = exponents(*line)
            points, h_currents = sorted(currents[:m]), sorted(currents[m:])
            assert len(points) == m and len(h_currents) == m - 1
            assert points[0] == (B, 0, P0, Q0) and all(e[1] == 0 for e in points)
            for i, (b, h, P, Q) in enumerate(h_currents):
                assert (b, h) == (B, 1)
                assert points[i + 1] == (B, 0, P + p, Q) and points[i] == (B, 0, P, Q + q)


def test_a_small_window_grows_the_index_evaluator_only_as_far_as_its_walk(capsys):
    # the d^2 check walks the lines of the window under a huge cutoff; the
    # walk grades each line by its count, so the evaluator's prefix sums do
    # not grow at all, where one grown to the cutoff would fill 10**15 // 3
    evaluator = _index_evaluator(3, 4)
    before = (len(evaluator.sum_p), len(evaluator.sum_q))
    for cutoff in (10**6, 10**15):
        argv = ["homology", "--p", "3", "--q", "4", "--max-index", "3", "--max-degree", str(cutoff),
                "--check-d-squared", "--format", "csv"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "index,rank\n0,1\n1,0\n2,1\n3,0\n"
        assert len(evaluator.sum_q) <= max(before[1], 8)
        assert (len(evaluator.sum_p), len(evaluator.sum_q)) == before


def test_differential_structure():
    matrix = differential(ComplexSpec(KP, 40))
    assert matrix.d_squared_is_zero()
    for j, c in enumerate(matrix.generators):
        col = matrix.columns[j]
        if c.H == 0:
            assert col == ()
        else:
            assert len(col) == 2 and col[0] != col[1]
            for i in col:
                t = matrix.generators[i]
                assert matrix.grading[i] == matrix.grading[j] - 1
                assert degree(t, KP) == degree(c, KP)
                assert knot_filtration(t, KP) == knot_filtration(c, KP)


def test_homology_examples():
    ranks = homology(ComplexSpec(KP, 14), 20)
    assert all(ranks[i] == 1 for i in range(0, 21, 2))
    assert all(ranks[i] == 0 for i in range(1, 21, 2))
    ranks = homology(ComplexSpec(KnotParams(2, 3), 10), 12)
    assert all(ranks[i] == (1 if i % 2 == 0 else 0) for i in range(13))
    assert homology(ComplexSpec(KP, 0), 0) == {0: 1}


def test_homology_window_refusal():
    with pytest.raises(WindowError) as err:
        homology(ComplexSpec(KP, 5), 20)
    assert err.value.required_degree == required_degree(KP, 20) == 12


def test_total_betti_number():
    # over indices 0..2K the total rank is K + 1
    ranks = homology(ComplexSpec(KP, nk(3, 4, 16)), 32)
    assert sum(ranks.values()) == 17


def test_equal_even_index_generators_are_homologous():
    # the difference of two index-2k cycles must reduce to zero
    matrix = differential(ComplexSpec(KP, 30))
    reduced = {}
    for col in bitset_columns(matrix.columns):
        col0 = col
        while col0:
            low = col0.bit_length() - 1
            if low not in reduced:
                break
            col0 ^= reduced[low]
        if col0:
            reduced[col0.bit_length() - 1] = col0
    by_index = {}
    for i, c in enumerate(matrix.generators):
        if c.H == 0:
            by_index.setdefault(matrix.grading[i], []).append(i)
    checked = 0
    for idx, members in by_index.items():
        for a, b in zip(members, members[1:]):
            vec = (1 << a) ^ (1 << b)
            while vec:
                low = vec.bit_length() - 1
                if low not in reduced:
                    break
                vec ^= reduced[low]
            assert vec == 0, f"generators at index {idx} are not homologous"
            checked += 1
    assert checked > 10


def test_knot_filtered_homology_examples():
    spec = ComplexSpec(KP, 12)
    assert knot_filtered_homology(spec, InfRat(12, 0), 18)[18] == 1
    assert knot_filtered_homology(spec, InfRat(12, 0), 20)[20] == 0
    assert knot_filtered_homology(spec, InfRat(12, 1), 20)[20] == 1
    assert knot_filtered_homology(ComplexSpec(KP, 0), InfRat(0, 0), 0)[0] == 1


def test_classes_count_the_leading_lines_under_the_level():
    # the lines of the walk whose points and h-currents all lie at or below
    # the level, counted up to the first that does not, and capped at the
    # classes of the window: integer, non-integer and negative rational
    # parts, each with a negative, zero and positive d coefficient
    rationals = [Fraction(-1), Fraction(0), Fraction(30), Fraction(61, 2), Fraction(22, 3),
                 Fraction(-1, 2)]
    for q in range(2, 7):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            kp = KnotParams(p, q)
            spec = ComplexSpec(kp, 60)
            max_index = 0
            while required_degree(kp, max_index + 1) <= 60:
                max_index += 1
            levels = [[knot_filtration(ReebCurrent(*c), kp)
                       for c in sum(line_currents(kp, D, B), [])] for _, D, B, *_ in _lines(kp, 60)]
            for r in rationals:
                for e in (-1, 0, 2):
                    cutoff = InfRat(r, e)
                    kept = next((i for i, line in enumerate(levels)
                                 if not all(level <= cutoff for level in line)), len(levels))
                    expected = min(kept, max_index // 2 + 1)
                    assert complexes._classes(spec, max_index, cutoff) == expected, (p, q, cutoff)


def test_knot_filtered_cut_matches_the_full_window_mask():
    # knot_filtered_homology counts the lines at or below K; the
    # oracle masks the whole degree-60 window.  Negative, non-integer, inside
    # and above-the-window rational parts, each with e in {-1, 0, 2}
    rationals = [Fraction(-5, 2), Fraction(-1), Fraction(-1, 3), Fraction(0), Fraction(22, 3),
                 Fraction(30), Fraction(61, 2), Fraction(60), Fraction(121, 2), Fraction(200)]
    for q in range(2, 7):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            kp = KnotParams(p, q)
            spec = ComplexSpec(kp, 60)
            max_index = 0
            while required_degree(kp, max_index + 1) <= 60:
                max_index += 1
            exponents, grading, columns = _complex(spec)
            mask = keep_mask(kp, exponents)
            for r in rationals:
                for e in (-1, 0, 2):
                    cutoff = InfRat(r, e)
                    ranks = subcomplex_ranks(grading, columns, mask(cutoff))
                    expected = {g: ranks.get(g, 0) for g in range(max_index + 1)}
                    got = knot_filtered_homology(spec, cutoff, max_index)
                    assert got == expected, (p, q, cutoff)
                    if r < 0:
                        assert not any(got.values())


def test_bitset_oracle_counts_cycles():
    # the currents complex never closes a cycle (its columns form paths), so
    # a triangle checks the oracle where a column is dependent on the others
    grading = [0, 0, 0, 1, 1, 1]
    columns = [(), (), (), (0, 1), (1, 2), (0, 2)]
    assert bitset_ranks(grading, bitset_columns(columns)) == {0: 1, 1: 1}
    assert subcomplex_ranks(grading, columns, [True] * 5 + [False]) == {0: 1, 1: 0}
    with pytest.raises(AssertionError):
        subcomplex_ranks(grading, columns, [False] + [True] * 5)


def test_counted_ranks_match_bitset_oracle():
    # (1, 1) and every coprime p < q <= 8; the last two levels cut inside
    # the degree pq*B_top, B_top = max_degree // pq: at K = pq*B_top + e*d
    # the currents of that degree with B > e are dropped, the rest kept
    pairs = [(1, 1)] + [(p, q) for q in range(2, 9) for p in range(1, q) if gcd(p, q) == 1]
    for p, q in pairs:
        kp = KnotParams(p, q)
        for max_degree in (0, 7, 30, 60):
            b_top = max_degree // kp.pq
            levels = (
                InfRat(max_degree // 3, 0),
                InfRat(max_degree // 2, 1),
                InfRat(max_degree, -1),
                InfRat(kp.pq * b_top, 0),
                InfRat(kp.pq * b_top, b_top - 1),
            )
            assert_ranks_match_oracle(kp, max_degree, levels)


def count_currents(monkeypatch):
    """A list that grows by one entry per ReebCurrent constructed from here on."""
    built = []
    new = ReebCurrent.__new__

    def counted(cls, *args, **kwargs):
        built.append(None)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ReebCurrent, "__new__", counted)
    return built


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("command", [
    ["generators", "--max-degree", "40"],
    ["homology", "--max-index", "160", "--max-degree", "40"],
    ["homology", "--max-index", "160", "--max-degree", "40", "--check-d-squared"],
    ["homology", "--max-index", "30"],
    ["knot-filtered", "--max-index", "160", "--max-degree", "40", "--filtration", "20+1*d"],
    ["knot-filtered", "--max-index", "30", "--filtration", "13/2"],
])
def test_complex_commands_build_no_current(capsys, monkeypatch, command, fmt):
    built = count_currents(monkeypatch)
    assert main([*command, "--p", "3", "--q", "4", "--format", fmt]) == 0
    assert capsys.readouterr().out
    assert not built


def test_boundary_matrix_builds_generators_on_first_read(monkeypatch):
    built = count_currents(monkeypatch)
    matrix = differential(ComplexSpec(KP, 40))
    assert matrix.d_squared_is_zero()
    assert not built
    generators = matrix.generators
    assert len(built) == len(matrix.exponents) == len(generators)
    assert matrix.generators is generators
    assert len(built) == len(generators)
    assert generators == [ReebCurrent(*e) for e in admissible_exponents(KP, 40)]


def test_linking_threshold_scan():
    # the rank at index 2k flips from 0 to 1 exactly at N_k + d*(repeats-1)
    for k in range(0, 40):
        level = linking_threshold(KP, k)
        assert level == InfRat(nk(3, 4, k), repeat_count(3, 4, k) - 1)
        spec = ComplexSpec(KP, nk(3, 4, k))
        at = knot_filtered_homology(spec, level, 2 * k)
        assert at[2 * k] == 1
        below = knot_filtered_homology(spec, level - InfRat(0, 1), 2 * k)
        assert below[2 * k] == 0


def test_representative_examples():
    rep = homology_representative(ComplexSpec(KP, 12), 18)
    assert rep == ReebCurrent(Q=4)
    assert homology_representative(ComplexSpec(KP, 12), 20) == ReebCurrent(B=1)
    assert homology_representative(ComplexSpec(KP, 0), 0) == ReebCurrent()
    rep35 = homology_representative(ComplexSpec(KnotParams(3, 5), 15), 22)
    assert degree(rep35, KnotParams(3, 5)) == 15


def test_representative_contract():
    spec = ComplexSpec(KP, 60)
    for k in range(0, 30):
        rep = homology_representative(spec, 2 * k)
        assert rep.H == 0 and rep.P < KP.p
        assert ech_index(rep, KP) == 2 * k
        assert degree(rep, KP) == nk(3, 4, k)
    with pytest.raises(ValueError):
        homology_representative(spec, 7)
    with pytest.raises(WindowError):
        homology_representative(ComplexSpec(KP, 3), 40)
