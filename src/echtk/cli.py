"""Command-line front end.

Every subcommand is a thin adapter over the library: ``_cmd_x(args, kp)``
checks its flags, calls one library entry point and returns a header, its
rows as CSV lines and its metadata fields.  ``main`` builds the (p, q)
once and renders the rows as an aligned table, CSV, or JSON.  JSON output
carries a metadata block; table and CSV sections contain data only, so
repeated runs are byte-identical.  Invalid input exits with status 2 and
an index window the degree cutoff does not certify with status 1, each
with one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import __version__
from .complexes import (
    ComplexSpec,
    WindowError,
    _classes,
    _generator_rows,
    d_squared_is_zero,
    required_degree,
)
from .currents import KnotParams, ReebCurrent
from .exact import _LIMIT, delta_suffix, parse as parse_infrat, render, render_fraction
from .indices import cz_table
from .nseq import runs
from .spectra import (
    _error_runs,
    action_linking_bound,
    calabi_mean_action_bound,
    cobordism_obstruction,
    weyl_sup,
)
from .toric import current_to_path, path_index, svg as path_svg, vertices


class UsageError(Exception):
    pass


_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``, refusing first more digits, or a larger decimal
    exponent, than Python converts between int and str: ``Fraction("1e10000000")``
    alone takes seconds, and no result that large could be printed."""
    exponent = _EXPONENT.search(text)
    if sum(map(str.isdigit, text)) > _LIMIT or exponent and abs(int(exponent[1])) > _LIMIT:
        raise UsageError(
            f"bad rational value {text!r}: more than {_LIMIT} digits or exponent above {_LIMIT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational value {text!r}: {exc}") from exc


def _short_numbers(flag: str, text: str) -> str:
    """``text``, refused when a number in it has more digits than int() takes."""
    if max(map(len, re.findall(r"\d+", text)), default=0) > _LIMIT:
        raise UsageError(f"{flag} has a number of more than {_LIMIT} digits")
    return text


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


def _emit(fmt: str, header: list[str], lines: Iterable[str], meta: dict) -> None:
    """Write the rows in the chosen format.  Each row is one finished CSV
    line, its cells joined by commas and ended by a newline.  No cell holds
    a comma, a quote, a backslash or a non-ASCII or control character, so
    every format may split a line at its commas.

    CSV and JSON write one string per row as the lines come, so memory
    stays at what the command holds (one run of a scan, one line of the
    complex).  The writes stay per row, not per run: io.StringIO keeps every
    string until it is read, and run-sized strings come from the C heap and
    can stay resident after the read (12 MB more peak RSS for a 10^6-row
    nseq on CPython 3.11).  JSON has the exact layout of json.dump(indent=2),
    each line escaped whole by json's own escaper.  A table needs its column
    widths first, so it holds the lines, not their cells, and splits them
    again to render; rows are right-stripped, so the last column needs no
    width."""
    out = sys.stdout
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        out.writelines(lines)
    elif fmt == "json":
        doc = {"meta": meta, "columns": header, "rows": []}
        out.write(json.dumps(doc, indent=2).removesuffix("[]\n}"))
        sep = "[\n"
        for line in lines:
            cells = encode_basestring_ascii(line[:-1]).replace(",", '",\n      "')
            out.write(f"{sep}    [\n      {cells}\n    ]")
            sep = ",\n"
        out.write("[]\n}\n" if sep == "[\n" else "\n  ]\n}\n")
    else:
        lines = [",".join(header) + "\n", *lines]
        widths = [max(len(line.split(",", i + 1)[i]) for line in lines)
                  for i in range(len(header) - 1)]
        template = "".join(f"{{:<{w}}}  " for w in widths) + "{}"  # the last column unpadded
        out.writelines(template.format(*line.split(",")).rstrip() + "\n" for line in lines)


# -- subcommands --------------------------------------------------------

Rows = tuple[list[str], Iterable[str], dict]  # header, CSV lines, meta fields


def _cmd_nseq(args, kp: KnotParams) -> Rows:
    spans = runs(kp.p, kp.q, _k_max(args))

    def run_lines():
        tails: list[str] = []  # f"{j}\n" for j = 1 up to the longest run so far
        for k, value, length in spans:
            tails += map("{}\n".format, range(len(tails) + 1, length + 1))
            mid = f",{value},"  # N_k is rendered once per run
            yield [f"{i}{mid}{tail}" for i, tail in zip(range(k, k + length), tails)]

    return ["k", "N_k", "repeats"], chain.from_iterable(run_lines()), {"kMax": args.k_max}


def _cmd_generators(args, kp: KnotParams) -> Rows:
    if args.max_degree < 0:
        raise UsageError("--max-degree must be nonnegative")
    lines = chain.from_iterable(_generator_rows(ComplexSpec(kp, args.max_degree)))
    return ["degree", "generator", "index"], lines, {"maxDegree": args.max_degree}


def _cmd_cz_table(args, kp: KnotParams) -> Rows:
    table = cz_table(kp, _parse_fraction(args.max_action))
    lines = [f"{label},{render_fraction(act)},{cz}\n" for label, act, cz in table]
    return ["orbit", "action", "cz_orb"], lines, {"maxAction": args.max_action}


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


def _rank_rows(spec: ComplexSpec, max_index: int, level=None) -> Iterable[str]:
    """The rows ``index,rank``: 1 at the even indices below 2 * _classes."""
    top = min(2 * _classes(spec, max_index, level), max_index + 1)
    return chain((f"{i},{1 - i % 2}\n" for i in range(top)),
                 (f"{i},0\n" for i in range(top, max_index + 1)))


def _cmd_homology(args, kp: KnotParams) -> Rows:
    spec = _window_spec(args, kp)
    fields = {"maxIndex": args.max_index, "maxDegree": spec.max_degree,
              "validatedWindow": f"indices 0..{args.max_index}"}
    lines = _rank_rows(spec, args.max_index)  # refuses an uncertified window before any check
    if args.check_d_squared:  # on the complex the ranks rest on, not the whole cutoff
        window = ComplexSpec(kp, required_degree(kp, args.max_index))
        fields["dSquaredZero"] = d_squared_is_zero(window)
    return ["index", "rank"], lines, fields


def _cmd_knot_filtered(args, kp: KnotParams) -> Rows:
    level = parse_infrat(_short_numbers("--filtration", args.filtration))
    spec = _window_spec(args, kp)
    fields = {"filtration": render(level), "maxIndex": args.max_index, "maxDegree": spec.max_degree}
    return ["index", "rank"], _rank_rows(spec, args.max_index, level), fields


def _cmd_spectrum(args, kp: KnotParams) -> Rows:
    scan = _error_runs(kp, _k_max(args))

    def run_lines():
        tails: list[str] = []  # delta_suffix(j) + "," for j below the longest run so far
        for k, value, errors in scan:
            tails += map("{},".format, map(delta_suffix, range(len(tails), len(errors))))
            # c_k and N_k are rendered once per run; c_k_link is N_k + (repeats-1)*d
            mid = f",{render_fraction(Fraction(value, kp.pq))},{value}"
            yield [f"{i}{mid}{tail}{e}\n"
                   for i, tail, e in zip(range(k, k + len(errors)), tails, errors)]

    return ["k", "c_k", "c_k_link", "e_k"], chain.from_iterable(run_lines()), {"kMax": args.k_max}


def _cmd_weyl(args, kp: KnotParams) -> Rows:
    k_max = _k_max(args)
    sup = weyl_sup(kp, k_max)
    if args.plot_data:
        header = ["k", "e_k"]
        scan = _error_runs(kp, k_max)
        lines = chain.from_iterable(
            [f"{i},{e}\n" for i, e in zip(range(k, k + len(errors)), errors)]
            for k, _, errors in scan
        )
    else:
        header = ["quantity", "value"]
        lines = [f"sup|e_k|,{sup}\n"]
    return header, lines, {"kMax": k_max, "supAbsError": sup}


def _cmd_obstruct(args, kp: None) -> Rows:
    frm = _parse_pair(getattr(args, "from"))
    to = _parse_pair(args.to)
    result = cobordism_obstruction(frm, to, _k_max(args))
    fields = {"from": list(frm), "to": list(to), "kMax": args.k_max}
    return ["result"], [result.describe() + "\n"], fields


def _cmd_bounds(args, kp: KnotParams) -> Rows:
    if args.which == "action-linking":
        if args.Delta is None or args.V is None:
            raise UsageError("action-linking needs --Delta and --V")
        result = action_linking_bound(kp, _parse_fraction(args.Delta), _parse_fraction(args.V))
        flag, fields = "--V", {"Delta": args.Delta, "V": args.V}
    else:
        if args.d is None or args.calabi is None:
            raise UsageError("calabi needs --d and --calabi")
        result = calabi_mean_action_bound(kp, _parse_fraction(args.d), _parse_fraction(args.calabi))
        flag, fields = "--calabi", {"d": args.d, "calabi": args.calabi}
    squared = result.bound_squared
    # a flag inside the parse limit can still give a fraction too long to print
    if squared is not None and max(squared.numerator, squared.denominator) >= 10**_LIMIT:
        raise UsageError(f"{flag} gives a bound_squared of more than {_LIMIT} digits")
    bound = "n/a" if result.bound is None else result.bound
    squared = "n/a" if squared is None else render_fraction(squared)
    lines = [
        f"hypothesis_met,{str(result.hypothesis_met).lower()}\n",
        f"bound,{bound}\n",
        f"bound_squared,{squared}\n",
    ]
    return ["quantity", "value"], lines, fields


def _cmd_toric(args, kp: KnotParams) -> Rows:
    current = ReebCurrent.from_name(_short_numbers("--current", args.current))
    path = current_to_path(current, kp)
    lines = [f"{x},{y}\n" for x, y in vertices(path)]
    fields = {
        "current": current.name(),
        "label": path.label,
        "segmentSteps": path.m,
        "index": path_index(path),
        "filtrationValue": path.filtration_value,
    }
    if args.format == "json" and fields["index"] >= 10**_LIMIT:  # twice the digits of --current
        raise UsageError(f"--current gives a path index of more than {_LIMIT} digits")
    if args.svg:
        doc = path_svg(path)  # an over-budget figure is refused before the file is opened
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(doc)
        except OSError as exc:
            raise UsageError(f"cannot write --svg file {args.svg}: {exc.strerror or exc}") from exc
        fields["svg"] = args.svg
    return ["x", "y"], lines, fields


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echtk",
        description="exact ECH invariants of S^3 fibered along the torus knot T(p,q)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    formats = {"choices": ("table", "csv", "json"), "default": "table"}
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True)
    common.add_argument("--q", type=int, required=True)
    common.add_argument("--format", **formats)

    def command(name, func, help, parents=(common,)):
        sp = sub.add_parser(name, help=help, parents=parents)
        sp.set_defaults(func=func)
        return sp

    sp = command("nseq", _cmd_nseq, "the sequence N_k(p,q) with repeat counts")
    sp.add_argument("--k-max", type=int, required=True)

    sp = command("generators", _cmd_generators, "chain complex generators up to a degree")
    sp.add_argument("--max-degree", type=int, required=True)

    sp = command("cz-table", _cmd_cz_table, "Conley-Zehnder indices by action")
    sp.add_argument("--max-action", default="2")

    sp = command("homology", _cmd_homology, "homology ranks over a validated window")
    sp.add_argument("--max-index", type=int, required=True)
    sp.add_argument("--max-degree", type=int, default=None)
    sp.add_argument("--check-d-squared", action="store_true")

    sp = command("knot-filtered", _cmd_knot_filtered, "homology of a knot filtration level")
    sp.add_argument("--max-index", type=int, required=True)
    sp.add_argument("--filtration", required=True,
                    help="level like 12, 7/2, or 12+1*d; a negative one as --filtration=-1/2")
    sp.add_argument("--max-degree", type=int, default=None)

    sp = command("spectrum", _cmd_spectrum, "action and linking spectra with Weyl errors")
    sp.add_argument("--k-max", type=int, required=True)

    sp = command("weyl", _cmd_weyl, "Weyl-law error scan")
    sp.add_argument("--k-max", type=int, required=True)
    sp.add_argument("--plot-data", action="store_true", help="emit per-k rows")

    # no (p, q); --format last, where the help and usage have always put it
    sp = command("obstruct", _cmd_obstruct, "symplectic cobordism obstruction scan", ())
    sp.add_argument("--from", required=True, metavar="P,Q")
    sp.add_argument("--to", required=True, metavar="P,Q")
    sp.add_argument("--k-max", type=int, required=True)
    sp.add_argument("--format", **formats)

    # a positional comes first among the missing arguments an error lists, so
    # it is a parent ahead of (p, q)
    which = argparse.ArgumentParser(add_help=False)
    which.add_argument("which", choices=("action-linking", "calabi"))
    sp = command("bounds", _cmd_bounds, "quantitative dynamics bounds", (which, common))
    sp.add_argument("--Delta", default=None, help="rotation offset (rational)")
    sp.add_argument("--V", default=None, help="contact volume (rational)")
    sp.add_argument("--d", default=None, help="boundary twist in (-1/pq, 0], as --d=-1/20")
    sp.add_argument("--calabi", default=None, help="Calabi invariant (rational)")

    what = argparse.ArgumentParser(add_help=False)
    what.add_argument("what", choices=("path",))
    sp = command("toric", _cmd_toric, "lattice-path form of a generator", (what, common))
    sp.add_argument("--current", required=True, help='generator like "h p q"')
    sp.add_argument("--svg", default=None, help="write a figure to this file")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        kp = None if args.command == "obstruct" else KnotParams(args.p, args.q)
        header, lines, fields = args.func(args, kp)
        # "limit" is the only perturbation regime the library computes in
        meta = ({**fields, "toolVersion": __version__} if kp is None else
                {"p": kp.p, "q": kp.q, "deltaMode": "limit", "toolVersion": __version__, **fields})
        _emit(args.format, header, lines, meta)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the flush at exit
        # cannot raise again, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, WindowError) else 2  # an uncertified window exits 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
