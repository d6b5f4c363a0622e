"""Command-line front end.

Every subcommand is a thin adapter over the library: it parses flags,
calls one library entry point, and renders rows as an aligned table, CSV,
or JSON.  JSON output carries a metadata block; table and CSV sections
contain data only, so repeated runs are byte-identical.  Invalid input
exits with status 2 and an index window the degree cutoff does not
certify with status 1, each with one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction

from . import __version__
from .complexes import (
    ComplexSpec,
    WindowError,
    _sorted_currents,
    differential,
    homology,
    knot_filtered_homology,
    required_degree,
)
from .currents import KnotParams, ReebCurrent, degree
from .exact import delta_suffix, parse as parse_infrat, render, render_fraction
from .indices import cz_table
from .nseq import nk_upto, repeat_counts
from .spectra import (
    action_linking_bound,
    action_spectrum,
    calabi_mean_action_bound,
    cobordism_obstruction,
    weyl_scan,
    weyl_sup,
)
from .toric import current_to_path, path_index, svg as path_svg, vertices


class UsageError(Exception):
    pass


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational value {text!r}: {exc}") from exc


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected P,Q pair, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"bad pair {text!r}") from exc


def _k_max(args) -> int:
    if args.k_max < 0:
        raise UsageError("--k-max must be nonnegative")
    return args.k_max


def _emit(args, header: list[str], rows: Iterable[Sequence[str]], meta: dict) -> None:
    """Write the rows in the chosen format.  CSV rows are written as the
    iterable yields them; a table needs its column widths and JSON one
    list, so those two read all rows first."""
    fmt = getattr(args, "format", "table")
    out = sys.stdout
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        out.writelines(",".join(row) + "\n" for row in rows)
        return
    rows = list(rows)
    if fmt == "json":
        doc = {"meta": meta, "columns": header, "rows": rows}
        json.dump(doc, out, indent=2)
        out.write("\n")
    else:
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _meta(kp: KnotParams, **extra) -> dict:
    # "limit" is the only perturbation regime the library computes in
    meta = {"p": kp.p, "q": kp.q, "deltaMode": "limit", "toolVersion": __version__}
    meta.update(extra)
    return meta


# -- subcommands --------------------------------------------------------


def _cmd_nseq(args) -> None:
    kp = KnotParams(args.p, args.q)
    values = nk_upto(kp.p, kp.q, _k_max(args))

    def rows():
        k = 0
        for value, length in repeat_counts(values):
            text = str(value)
            for repeats in range(1, length + 1):
                yield str(k), text, str(repeats)
                k += 1

    _emit(args, ["k", "N_k", "repeats"], rows(), _meta(kp, kMax=args.k_max))


def _cmd_generators(args) -> None:
    kp = KnotParams(args.p, args.q)
    if args.max_degree < 0:
        raise UsageError("--max-degree must be nonnegative")
    rows = (
        (str(degree(c, kp)), name, str(index))
        for index, name, c in _sorted_currents(ComplexSpec(kp, args.max_degree))
    )
    _emit(args, ["degree", "generator", "index"], rows, _meta(kp, maxDegree=args.max_degree))


def _cmd_cz_table(args) -> None:
    kp = KnotParams(args.p, args.q)
    table = cz_table(kp, _parse_fraction(args.max_action))
    rows = [[label, render_fraction(act), str(cz)] for label, act, cz in table]
    _emit(args, ["orbit", "action", "cz_orb"], rows, _meta(kp, maxAction=args.max_action))


def _window_spec(args, kp: KnotParams) -> ComplexSpec:
    """The complex for --max-index, cut at --max-degree or, by default,
    at the degree that certifies the index window."""
    if args.max_index < 0:
        raise UsageError("--max-index must be nonnegative")
    if args.max_degree is None:
        return ComplexSpec(kp, required_degree(kp, args.max_index))
    if args.max_degree < 0:
        raise UsageError("--max-degree must be nonnegative")
    return ComplexSpec(kp, args.max_degree)


def _cmd_homology(args) -> None:
    kp = KnotParams(args.p, args.q)
    spec = _window_spec(args, kp)
    meta = _meta(kp, maxIndex=args.max_index, maxDegree=spec.max_degree,
                 validatedWindow=f"indices 0..{args.max_index}")
    if args.check_d_squared:
        matrix = differential(spec)
        meta["dSquaredZero"] = matrix.d_squared_is_zero()
        ranks = matrix.homology(args.max_index)
    else:
        ranks = homology(spec, args.max_index)
    rows = [[str(i), str(ranks[i])] for i in range(args.max_index + 1)]
    _emit(args, ["index", "rank"], rows, meta)


def _cmd_knot_filtered(args) -> None:
    kp = KnotParams(args.p, args.q)
    level = parse_infrat(args.filtration)
    spec = _window_spec(args, kp)
    ranks = knot_filtered_homology(spec, level, args.max_index)
    rows = [[str(i), str(ranks[i])] for i in range(args.max_index + 1)]
    _emit(
        args,
        ["index", "rank"],
        rows,
        _meta(kp, filtration=render(level), maxIndex=args.max_index,
              maxDegree=spec.max_degree),
    )


def _cmd_spectrum(args) -> None:
    kp = KnotParams(args.p, args.q)
    entries = action_spectrum(kp, _k_max(args))

    def rows():
        # c_k is rendered once per run of equal N_k; c_k_link is N_k + (repeats-1)*d
        for e in entries:
            if e.repeats == 1:
                ck, level = render_fraction(e.ck), str(e.value)
            yield str(e.k), ck, level + delta_suffix(e.repeats - 1), e.weyl_error

    _emit(args, ["k", "c_k", "c_k_link", "e_k"], rows(), _meta(kp, kMax=args.k_max))


def _cmd_weyl(args) -> None:
    kp = KnotParams(args.p, args.q)
    k_max = _k_max(args)
    if args.plot_data:
        entries, sup = weyl_scan(kp, k_max)
        header = ["k", "e_k"]
        rows = ((str(k), e) for k, e in entries)
    else:
        sup = weyl_sup(kp, k_max)
        header = ["quantity", "value"]
        rows = [("sup|e_k|", sup)]
    _emit(args, header, rows, _meta(kp, kMax=k_max, supAbsError=sup))


def _cmd_obstruct(args) -> None:
    frm = _parse_pair(getattr(args, "from"))
    to = _parse_pair(args.to)
    result = cobordism_obstruction(frm, to, _k_max(args))
    rows = [[result.describe()]]
    meta = {
        "from": list(frm),
        "to": list(to),
        "kMax": args.k_max,
        "toolVersion": __version__,
    }
    _emit(args, ["result"], rows, meta)


def _cmd_bounds(args) -> None:
    kp = KnotParams(args.p, args.q)
    if args.which == "action-linking":
        if args.Delta is None or args.V is None:
            raise UsageError("action-linking needs --Delta and --V")
        result = action_linking_bound(kp, _parse_fraction(args.Delta), _parse_fraction(args.V))
        meta = _meta(kp, Delta=args.Delta, V=args.V)
    else:
        if args.d is None or args.calabi is None:
            raise UsageError("calabi needs --d and --calabi")
        if kp.p < 2 or kp.q < 2:
            raise UsageError("the mean-action bound needs p, q >= 2")
        result = calabi_mean_action_bound(kp, _parse_fraction(args.d), _parse_fraction(args.calabi))
        meta = _meta(kp, d=args.d, calabi=args.calabi)
    rows = [
        ["hypothesis_met", str(result.hypothesis_met).lower()],
        ["bound", result.bound if result.bound is not None else "n/a"],
        [
            "bound_squared",
            render_fraction(result.bound_squared) if result.bound_squared is not None else "n/a",
        ],
    ]
    _emit(args, ["quantity", "value"], rows, meta)


def _cmd_toric(args) -> None:
    kp = KnotParams(args.p, args.q)
    current = ReebCurrent.from_name(args.current)
    path = current_to_path(current, kp)
    verts = vertices(path)
    rows = [[str(x), str(y)] for x, y in verts]
    meta = _meta(
        kp,
        current=current.name(),
        label=path.label,
        segmentSteps=path.m,
        index=path_index(path),
        filtrationValue=path.filtration_value,
    )
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(path_svg(path))
        meta["svg"] = args.svg
    _emit(args, ["x", "y"], rows, meta)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echtk",
        description="exact ECH invariants of S^3 fibered along the torus knot T(p,q)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, pq=True):
        if pq:
            sp.add_argument("--p", type=int, required=True)
            sp.add_argument("--q", type=int, required=True)
        sp.add_argument(
            "--format", choices=("table", "csv", "json"), default="table"
        )

    sp = sub.add_parser("nseq", help="the sequence N_k(p,q) with repeat counts")
    add_common(sp)
    sp.add_argument("--k-max", type=int, required=True)
    sp.set_defaults(func=_cmd_nseq)

    sp = sub.add_parser("generators", help="chain complex generators up to a degree")
    add_common(sp)
    sp.add_argument("--max-degree", type=int, required=True)
    sp.set_defaults(func=_cmd_generators)

    sp = sub.add_parser("cz-table", help="Conley-Zehnder indices by action")
    add_common(sp)
    sp.add_argument("--max-action", default="2")
    sp.set_defaults(func=_cmd_cz_table)

    sp = sub.add_parser("homology", help="homology ranks over a validated window")
    add_common(sp)
    sp.add_argument("--max-index", type=int, required=True)
    sp.add_argument("--max-degree", type=int, default=None)
    sp.add_argument("--check-d-squared", action="store_true")
    sp.set_defaults(func=_cmd_homology)

    sp = sub.add_parser("knot-filtered", help="homology of a knot filtration level")
    add_common(sp)
    sp.add_argument("--max-index", type=int, required=True)
    sp.add_argument("--filtration", required=True, help="level like 12, 7/2, or 12+1*d")
    sp.add_argument("--max-degree", type=int, default=None)
    sp.set_defaults(func=_cmd_knot_filtered)

    sp = sub.add_parser("spectrum", help="action and linking spectra with Weyl errors")
    add_common(sp)
    sp.add_argument("--k-max", type=int, required=True)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("weyl", help="Weyl-law error scan")
    add_common(sp)
    sp.add_argument("--k-max", type=int, required=True)
    sp.add_argument("--plot-data", action="store_true", help="emit per-k rows")
    sp.set_defaults(func=_cmd_weyl)

    sp = sub.add_parser("obstruct", help="symplectic cobordism obstruction scan")
    sp.add_argument("--from", required=True, metavar="P,Q")
    sp.add_argument("--to", required=True, metavar="P,Q")
    sp.add_argument("--k-max", type=int, required=True)
    add_common(sp, pq=False)
    sp.set_defaults(func=_cmd_obstruct)

    sp = sub.add_parser("bounds", help="quantitative dynamics bounds")
    sp.add_argument("which", choices=("action-linking", "calabi"))
    add_common(sp)
    sp.add_argument("--Delta", default=None, help="rotation offset (rational)")
    sp.add_argument("--V", default=None, help="contact volume (rational)")
    sp.add_argument("--d", default=None, help="boundary twist in (-1/pq, 0]")
    sp.add_argument("--calabi", default=None, help="Calabi invariant (rational)")
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("toric", help="lattice-path form of a generator")
    sp.add_argument("what", choices=("path",))
    add_common(sp)
    sp.add_argument("--current", required=True, help='generator like "h p q"')
    sp.add_argument("--svg", default=None, help="write a figure to this file")
    sp.set_defaults(func=_cmd_toric)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except WindowError as exc:  # a ValueError, so caught first: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
