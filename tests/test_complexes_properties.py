"""Property tests over random coprime (p,q).

Within one (degree, B) the columns of the currents complex join
neighbouring lattice points of a line qP + pQ = const, so they form paths
and are independent over GF(2); a source and both of its targets share the
knot filtration key, so every filtered subcomplex is closed under the
differential.  The library walks these lines in (degree, B) order: a
line's points share one index g, its h-currents sit at g + 1, g strictly
increases along the walk, and the lines cover the admissible currents
once each.  So the generators come out sorted line by line, the homology
is rank 1 at each line's index, and those ranks equal the bitset column
reduction in gf2_oracle.py.  Each half-line is named and ordered as one
batch, equal to its per-current names sorted, also at its ends: a first
point with P = 0, a last with Q = 0, no b or h, one point, the current
"1".  The homology is Z/2 in every certified even index and 0 in odd ones,
and the knot-filtered class of index 2k appears exactly at
``linking_threshold``.
The lines and the runs of N(p,q) are one walk: the lines of degree D are as
many as the repeats of the value D, and the k-th line is the index-2k
class, at (D, B) = (N_k, repeats - 1), with ``homology_representative``
as its first point.
The CLI's generator rows and ``enumerate_currents`` equal the independent
enumeration sorted by (index, name).  The oracle's d^2 on GF(2) columns
equals a parity count of the rows each column reaches, and on every window
both it and the library's per-line check find d^2 = 0.
The closed-form index evaluator on exponent tuples equals the ledger
expansion and the lattice-path index, has the parity of H, and satisfies
the h/b step relations."""

import contextlib
import io
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from echtk.cli import main  # noqa: E402
from echtk.complexes import (  # noqa: E402
    ComplexSpec,
    _classes,
    _generator_rows,
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
from echtk.currents import (  # noqa: E402
    KnotParams,
    ReebCurrent,
    degree,
)
from echtk.exact import InfRat  # noqa: E402
from echtk.indices import _index_evaluator, ech_index, ech_index_from_components  # noqa: E402
from echtk.nseq import lattice_count, nk, runs  # noqa: E402
from echtk.toric import current_to_path, path_index  # noqa: E402
from gf2_oracle import (  # noqa: E402
    _complex,
    admissible_exponents,
    assert_ranks_match_oracle,
    bitset_columns,
    bitset_ranks,
    differential,
    keep_mask,
    line_currents,
    squares_vanish,
)

PAIRS = st.integers(2, 16).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q)))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(
    pq=PAIRS,
    max_degree=st.integers(0, 45),
    level=st.integers(0, 45),
    delta=st.integers(-2, 2),
)
def test_counted_ranks_match_oracle_on_random_windows(pq, max_degree, level, delta):
    p, q = pq
    hypothesis.assume(gcd(p, q) == 1)
    assert_ranks_match_oracle(KnotParams(p, q), max_degree, [InfRat(level, delta)])


COPRIME_UP_TO_30 = st.tuples(st.integers(1, 30), st.integers(1, 30)).filter(
    lambda pq: gcd(*pq) == 1
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    pq=COPRIME_UP_TO_30,
    B=st.integers(0, 6),
    H=st.integers(0, 1),
    P=st.integers(0, 60),
    Q=st.integers(0, 60),
)
def test_index_evaluator_matches_independent_routes(pq, B, H, P, Q):
    p, q = pq
    kp = KnotParams(p, q)
    evaluator = _index_evaluator(p, q)
    evaluator.index(0, 0, P + p, Q + q)  # grows the sums past the p^p and q^q steps
    index = evaluator.index
    c = ReebCurrent(B, H, P, Q)
    value = index(B, H, P, Q)
    assert value == ech_index_from_components(c, kp)
    assert value == path_index(current_to_path(c, kp))
    assert value % 2 == H
    h_idx = index(B, 1, P, Q)
    assert h_idx == index(B, 0, P + p, Q) + 1
    assert h_idx == index(B, 0, P, Q + q) + 1
    assert h_idx == index(B + 1, 0, P, Q) - 1


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(pq=COPRIME_UP_TO_30, b_top=st.integers(0, 3), extra=st.integers(0, 40))
def test_blocks_are_path_graphs(pq, b_top, extra):
    """Within one (degree, B) the H = 0 rows are the lattice points of
    qP + pQ = degree - pqB, one step (p, -q) apart, and each nonzero column
    joins two neighbours on that line, each pair once.  A path has no
    cycle, so the columns are independent: the rank of the boundary map,
    read off the bitset reduction, is the number of nonzero columns."""
    p, q = pq
    exponents, grading, columns = _complex(ComplexSpec(KnotParams(p, q), b_top * p * q + extra))
    lines: dict[tuple[int, int], set[int]] = {}  # (degree, B) -> P of the rows on its line
    for B, H, P, Q in exponents:
        if not H:
            lines.setdefault((p * q * B + q * P + p * Q, B), set()).add(P)
    for (deg, B), ps in lines.items():
        rest = deg - p * q * B
        assert ps == {P for P in range(rest // q + 1) if (rest - q * P) % p == 0}
        ordered = sorted(ps)
        assert all(b - a == p for a, b in zip(ordered, ordered[1:]))
    edges = set()
    for j, col in enumerate(columns):
        if not col:
            continue
        B, H, P, Q = exponents[j]
        (B1, H1, P1, Q1), (B2, H2, P2, Q2) = (exponents[i] for i in col)
        assert H == 1 and H1 == H2 == 0 and B1 == B2 == B
        assert q * P1 + p * Q1 == q * P2 + p * Q2 == q * P + p * Q + p * q
        assert (P1 - P2, Q1 - Q2) == (p, -q)
        edges.add(col)
    n_columns = sum(1 for col in columns if col)
    assert len(edges) == n_columns
    # the columns are the odd-index generators and odd ranks read n_g - r_g
    ranks = bitset_ranks(grading, bitset_columns(columns))
    sizes = Counter(grading)
    assert sum(sizes[g] - ranks[g] for g in sizes if g % 2) == n_columns


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    pq=COPRIME_UP_TO_30,
    B=st.integers(0, 6),
    P=st.integers(0, 60),
    Q=st.integers(0, 60),
    offset=st.fractions(-2, 2, max_denominator=4),
    delta=st.integers(-2, 2),
)
def test_filtration_flags_a_source_as_both_targets(pq, B, P, Q, offset, delta):
    """The counting rule needs every filtered subcomplex to be closed under
    the differential: a kept h-current never hits a dropped target.  The
    knot filtration is in fact the same for a source and both of its
    targets, so the oracle mask gives all three one flag.  The cutoff is
    drawn near their common degree and B so that both flags occur."""
    p, q = pq
    kp = KnotParams(p, q)
    level = p * q * (B + 1) + q * P + p * Q
    mask = keep_mask(kp, [(B, 1, P, Q), (B, 0, P + p, Q), (B, 0, P, Q + q)])
    assert len(set(mask(InfRat(level + offset, B + delta)))) == 1


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(pq=COPRIME_UP_TO_30, max_index=st.integers(0, 60))
def test_homology_is_z2_in_even_indices(pq, max_index):
    kp = KnotParams(*pq)
    ranks = homology(ComplexSpec(kp, required_degree(kp, max_index)), max_index)
    assert ranks == {g: 1 - g % 2 for g in range(max_index + 1)}


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(pq=COPRIME_UP_TO_30, k=st.integers(0, 30))
def test_knot_filtered_class_appears_at_the_linking_threshold(pq, k):
    kp = KnotParams(*pq)
    spec = ComplexSpec(kp, nk(kp.p, kp.q, k))
    level = linking_threshold(kp, k)
    assert knot_filtered_homology(spec, level, 2 * k)[2 * k] == 1
    assert knot_filtered_homology(spec, level - InfRat(0, 1), 2 * k)[2 * k] == 0


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    pq=COPRIME_UP_TO_30,
    max_index=st.integers(0, 200),
    num=st.one_of(st.integers(-20, 0), st.integers(0, 900)),
    den=st.integers(1, 7),
    e=st.integers(-3, 4),
)
def test_classes_are_the_thresholds_at_or_below_the_level(pq, max_index, num, den, e):
    kp = KnotParams(*pq)
    level = InfRat(Fraction(num, den), e)
    spec = ComplexSpec(kp, required_degree(kp, max_index))
    expected = sum(linking_threshold(kp, k) <= level for k in range(max_index // 2 + 1))
    assert _classes(spec, max_index, level) == expected


WINDOWS = st.tuples(COPRIME_UP_TO_30, st.integers(0, 3), st.integers(0, 40))
# a pair and its cutoff b_top*p*q + extra, drawn from WINDOWS: the cutoff
# reaches B = b_top for every pair, and the window stays small for pq = 1
CUTOFFS = WINDOWS.map(lambda w: (w[0], w[1] * w[0][0] * w[0][1] + w[2]))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(window=WINDOWS)
def test_lines_share_one_index_and_cover_the_window_once(window):
    """Each line's m points, found by solving qP + pQ = D - pq*B, share the
    walk's index g and start at (P0, Q0); its m - 1 h-currents sit at g + 1.  The
    indices strictly increase along the walk, and the lines hold every
    admissible current of the window exactly once."""
    (p, q), b_top, extra = window
    kp = KnotParams(p, q)
    max_degree = b_top * p * q + extra
    lines = list(_lines(kp, max_degree))
    members = Counter()
    for g, D, B, P0, Q0, m in lines:
        points, h_currents = line_currents(kp, D, B)
        assert len(points) == m and len(h_currents) == m - 1 and points[0][2:] == (P0, Q0)
        assert {ech_index(ReebCurrent(*e), kp) for e in points} == {g}
        assert {ech_index(ReebCurrent(*e), kp) for e in h_currents} <= {g + 1}
        members.update(points + h_currents)
    indices = [g for g, *_ in lines]
    assert all(a < b for a, b in zip(indices, indices[1:]))
    assert members == Counter(admissible_exponents(kp, max_degree))
    assert max(members.values()) == 1


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(window=WINDOWS)
def test_generator_stream_is_sorted_by_index_then_name(window):
    (p, q), b_top, extra = window
    kp = KnotParams(p, q)
    max_degree = b_top * p * q + extra
    currents = [ReebCurrent(*e) for e in admissible_exponents(kp, max_degree)]
    expected = sorted((ech_index(c, kp), c.name(), degree(c, kp)) for c in currents)
    blocks = list(_generator_rows(ComplexSpec(kp, max_degree)))
    assert [row for block in blocks for row in block] == [
        f"{D},{text},{g}\n" for g, text, D in expected
    ]
    # one block per line: its rows share one degree, and its points one
    # index g, which its h-currents follow at g + 1
    for block in blocks:
        indices = [int(r.split(",")[2]) for r in block]
        assert block and len({r.split(",")[0] for r in block}) == 1
        assert {g - indices[0] for g in indices} <= {0, 1} and indices == sorted(indices)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(case=CUTOFFS)
@hypothesis.example(case=((1, 1), 0))
@hypothesis.example(case=((3, 4), 120))
@hypothesis.example(case=((7, 2), 120))
def test_half_line_renderer_names_and_orders_each_half_line(case):
    """``_line_renderer`` lists each line's points at g, then its h-currents
    at g + 1, each half in name order; the halves are solved here from
    qP + pQ = D - pq*(B + H), and together they hold the window once."""
    (p, q), max_degree = case
    kp = KnotParams(p, q)
    rows, ordered = _line_renderer(kp, max_degree)
    cases, listed = set(), Counter()
    for line in _lines(kp, max_degree):
        g, D, B, P0, _, _ = line
        block, expected = rows(*line), []
        for H, half in enumerate(line_currents(kp, D, B)):
            n = len(half)
            if half:
                assert ech_index(ReebCurrent(*half[0]), kp) == g + H
            named = sorted((ReebCurrent(*e).name(), e) for e in half)
            expected += [(f"{D},{name},{g + H}\n", e) for name, e in named]
            cases.update(
                case for case, hit in [
                    ("first P = 0", P0 == 0 and n > 1),
                    ("last Q = 0", n > 1 and half[-1][3] == 0),
                    ("empty prefix", B == H == 0 and n > 1),
                    ("prefix", B + H > 0 and n > 1),
                    ("single point", n == 1),
                    ("empty current", block == ["0,1,0\n"]),
                ] if hit
            )
        assert block == [row for row, _ in expected]
        assert ordered(*line) == [e for _, e in expected]
        listed.update(ordered(*line))
    assert listed == Counter(admissible_exponents(kp, max_degree))
    # the empty current is in every window; the half-line from q^q to p^p
    # (c = pq) is in every window that reaches it, behind b and behind h
    assert {"single point", "empty current"} <= cases
    if max_degree >= 2 * p * q:
        assert len(cases) == 6, cases


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(case=CUTOFFS)
@hypothesis.example(case=((1, 1), 0))
@hypothesis.example(case=((2, 1), 60))
@hypothesis.example(case=((7, 3), 120))
def test_generator_rows_match_the_exponent_reference(case):
    """The CLI's CSV rows, and enumerate_currents, are the window listed by
    the independent enumeration and sorted by (index, name)."""
    (p, q), max_degree = case
    kp = KnotParams(p, q)
    keyed = sorted((ech_index(c, kp), c.name(), c)
                   for c in map(ReebCurrent._make, admissible_exponents(kp, max_degree)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["generators", "--p", str(p), "--q", str(q),
                     "--max-degree", str(max_degree), "--format", "csv"])
    assert code == 0
    assert out.getvalue() == "degree,generator,index\n" + "".join(
        f"{degree(c, kp)},{name},{g}\n" for g, name, c in keyed
    )
    assert enumerate_currents(ComplexSpec(kp, max_degree)) == [c for _, _, c in keyed]


def squares_by_parity(columns):
    """d^2 = 0 counted out: for each column, how often each row is reached
    through the columns it names, mod 2."""
    for col in columns:
        reached = Counter(r for row in col for r in columns[row])
        if any(n % 2 for n in reached.values()):
            return False
    return True


# up to 8 columns, each naming rows of the same list: self-references, rows
# named by several columns or twice by one, and empty columns all occur
COLUMNS = st.integers(1, 8).flatmap(lambda m: st.lists(
    st.lists(st.integers(0, m - 1), max_size=4).map(tuple), min_size=m, max_size=m
))


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(columns=COLUMNS)
@hypothesis.example(columns=[])
@hypothesis.example(columns=[(), (), (0, 1), (2,)])
@hypothesis.example(columns=[(), (), (0, 1), (2,), (2,)])
@hypothesis.example(columns=[(0,)])
@hypothesis.example(columns=[(1,), (0,)])
@hypothesis.example(columns=[(), (0, 0), (1,)])
def test_squares_vanish_matches_a_parity_count(columns):
    assert squares_vanish(columns) == squares_by_parity(columns)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(window=WINDOWS)
def test_per_line_d_squared_check_agrees_with_the_whole_matrix(window):
    # the per-line check never returns False (a stray column raises), so
    # agreeing is both finding d^2 = 0
    (p, q), b_top, extra = window
    spec = ComplexSpec(KnotParams(p, q), b_top * p * q + extra)
    assert d_squared_is_zero(spec) is True
    assert differential(spec).d_squared_is_zero()


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(pq=COPRIME_UP_TO_30, max_degree=st.integers(0, 60))
def test_lines_are_the_runs_of_n(pq, max_degree):
    p, q = pq
    kp = KnotParams(p, q)
    lines = list(_lines(kp, max_degree))
    # every value up to the cutoff, its run whole: N_0..N_K with K = #lines - 1
    assert len(lines) == lattice_count(p, q, max_degree)
    spans = list(runs(p, q, len(lines) - 1))
    assert Counter(D for _, D, *_ in lines) == {value: length for _, value, length in spans}
    expected = [(value, j) for _, value, length in spans for j in range(length)]
    assert [(D, B) for _, D, B, *_ in lines] == expected
    spec = ComplexSpec(kp, max_degree)
    # the representative of index 2k is the first point of line k
    for k, (g, D, B, P0, Q0, m) in enumerate(lines):
        assert g == 2 * k
        assert homology_representative(spec, 2 * k) == ReebCurrent(B, 0, P0, Q0)
