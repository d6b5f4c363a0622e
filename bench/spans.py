"""Span wrappers for the traced run; the untraced runs never import this.

``Tracer.install`` replaces public functions of the ``echtk`` modules with
wrappers, in every ``echtk`` module namespace that binds them, so calls
made between modules are seen too.  Coarse calls are recorded as spans
(name, start, end, parent id).  Hot leaf calls are timed the same way but
only aggregated, not recorded, to keep memory small.  Self time is a
call's duration minus the time of the traced calls inside it, so the self
times of all wrapped calls add up to the time spent inside them.  The
wrappers' own cost would land in those self times, most of it in the
caller of each wrapped call; ``calibrate`` measures it per call on a
wrapped no-op and ``layer_metrics`` subtracts it, so a layer's self time
does not grow with the number of traced calls it makes.  ``exact`` has
no coarse boundary; its cost lands in the self time of its callers.  A
name a later version of the package no longer has is skipped and its
metrics read 0.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from time import perf_counter


def _generators(tracer, result):
    tracer.counts["complexes.generators"] += len(result)


def _boundary(tracer, result):
    columns = [c for c in getattr(result, "columns", ()) if isinstance(c, int)]
    tracer.peak("complexes.boundary_columns", sum(1 for c in columns if c))
    tracer.peak("complexes.bitset_bytes_computed", sum(c.bit_length() for c in columns) / 8)


def _nk_values(tracer, result):
    tracer.counts["nseq.nk_upto_values"] += len(result)


def _spectrum_rows(tracer, result):
    tracer.counts["spectra.rows"] += len(result)


def _weyl_rows(tracer, result):
    tracer.counts["spectra.rows"] += len(result[0])


def _checked(tracer, result):
    tracer.counts["crosscheck.currents_checked"] += result


# (module, attribute, span name, recorded as a span, hook on the result)
TARGETS = [
    ("cli", "main", "cli.command", True, None),
    ("complexes", "enumerate_currents", "complexes.enumerate", True, _generators),
    ("complexes", "differential", "complexes.differential", True, _boundary),
    ("complexes", "BoundaryMatrix.d_squared_is_zero", "complexes.d_squared", True, None),
    ("complexes", "homology", "complexes.homology", True, None),
    ("complexes", "knot_filtered_homology", "complexes.knot_filtered", True, None),
    ("complexes", "required_degree", "complexes.window", False, None),
    ("complexes", "linking_threshold", "complexes.window", False, None),
    ("indices", "ech_index", "indices.ech_index", False, None),
    ("indices", "cz_table", "indices.cz_table", True, None),
    ("currents", "knot_filtration", "currents.knot_filtration", False, None),
    ("nseq", "nk_upto", "nseq.nk_upto", True, _nk_values),
    ("nseq", "nk", "nseq.nk", False, None),
    ("nseq", "repeat_count", "nseq.repeat_count", False, None),
    ("nseq", "lattice_count", "nseq.lattice_count", False, None),
    ("nseq", "partition", "nseq.partition", True, None),
    ("spectra", "action_spectrum", "spectra.action_spectrum", True, _spectrum_rows),
    ("spectra", "weyl_scan", "spectra.weyl_scan", True, _weyl_rows),
    ("spectra", "cobordism_obstruction", "spectra.obstruction", True, None),
    ("toric", "current_to_path", "toric", False, None),
    ("toric", "path_to_current", "toric", False, None),
    ("toric", "vertices", "toric", False, None),
    ("toric", "round_corner", "toric", False, None),
    ("toric", "path_index", "toric", False, None),
    ("toric", "lattice_points_under", "toric", False, None),
    ("crosscheck", "verify_index_identities", "crosscheck.verify", True, _checked),
]

# per-layer metric -> (unit, how it is read from the tracer)
LAYER_METRICS = {
    "cli.render_s": ("s", "self", "cli.command"),
    "complexes.enumerate_s": ("s", "self", "complexes.enumerate"),
    "complexes.enumerate_calls": ("count", "calls", "complexes.enumerate"),
    "complexes.generators": ("count", "count", "complexes.generators"),
    "complexes.differential_s": ("s", "self", "complexes.differential"),
    "complexes.differential_builds": ("count", "calls", "complexes.differential"),
    "complexes.boundary_columns": ("count", "count", "complexes.boundary_columns"),
    "complexes.bitset_bytes_computed": ("bytes", "count", "complexes.bitset_bytes_computed"),
    "complexes.homology_self_s": ("s", "self", "complexes.homology"),
    "complexes.knot_filtered_self_s": ("s", "self", "complexes.knot_filtered"),
    "complexes.d_squared_s": ("s", "self", "complexes.d_squared"),
    "indices.ech_index_calls": ("count", "calls", "indices.ech_index"),
    "indices.ech_index_s": ("s", "self", "indices.ech_index"),
    "indices.cz_table_s": ("s", "self", "indices.cz_table"),
    "currents.knot_filtration_calls": ("count", "calls", "currents.knot_filtration"),
    "currents.knot_filtration_s": ("s", "self", "currents.knot_filtration"),
    "nseq.nk_upto_s": ("s", "self", "nseq.nk_upto"),
    "nseq.nk_upto_values": ("count", "count", "nseq.nk_upto_values"),
    "nseq.nk_calls": ("count", "calls", "nseq.nk"),
    "nseq.lattice_count_calls": ("count", "calls", "nseq.lattice_count"),
    "nseq.partition_s": ("s", "self", "nseq.partition"),
    "spectra.action_spectrum_s": ("s", "self", "spectra.action_spectrum"),
    "spectra.weyl_scan_s": ("s", "self", "spectra.weyl_scan"),
    "spectra.obstruction_s": ("s", "self", "spectra.obstruction"),
    "spectra.rows": ("count", "count", "spectra.rows"),
    "toric.self_s": ("s", "self", "toric"),
    "toric.calls": ("count", "calls", "toric"),
    "crosscheck.verify_s": ("s", "self", "crosscheck.verify"),
    "crosscheck.currents_checked": ("count", "count", "crosscheck.currents_checked"),
}
# derived in layer_metrics below
DERIVED_UNITS = {
    "nseq.lattice_count_per_nk": "ratio",
    "trace.wrapper_cost_s": "s",
    "trace.coverage_ratio": "ratio",
}


def _noop(a, b):
    return None


class Tracer:
    def __init__(self):
        # open calls: [time of traced calls inside, span id, name]; the root
        # frame stands for the caller of the outermost traced calls
        self.stack: list[list] = [[0.0, None, None]]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.edges: Counter = Counter()  # (caller, callee) pairs of traced calls
        self.counts: Counter = Counter()
        self.hook_s = 0.0
        self.cost_in = self.cost_out = 0.0  # set by calibrate
        self._next_id = 0
        self._undo: list[tuple] = []

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)

    def _wrap(self, name, fn, recorded, hook):
        tracer = self
        stack, self_s, calls, edges = self.stack, self.self_s, self.calls, self.edges

        def wrapper(*args, **kwargs):
            top = stack[-1]
            edges[top[2], name] += 1
            span_id = top[1]
            if recorded:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if recorded:
                    tracer.spans.append((span_id, name, start, end, top[1]))
                top[0] += duration
            if hook is not None:
                hook(tracer, result)
                hook_s = perf_counter() - end
                tracer.hook_s += hook_s
                top[0] += hook_s  # keep the hook out of the caller's self time
            return result

        return wrapper

    def calibrate(self, n: int = 20000, repeats: int = 5) -> None:
        """Measure what one wrapper adds to a call, so layer_metrics can
        take it out of the self times.  ``cost_in`` lands inside the wrapped
        call's own window and so in its self time; ``cost_out`` is spent
        outside that window and so in its caller's self time.  Each is the
        median over ``repeats`` batches of ``n`` calls to a wrapped no-op."""
        ins, outs = [], []
        for _ in range(repeats):
            probe = Tracer()
            child = probe._wrap("child", _noop, False, None)

            def wrapped():
                for _ in range(n):
                    child(1, 2)

            def bare():
                for _ in range(n):
                    _noop(1, 2)

            def empty():
                for _ in range(n):
                    pass

            for name, fn in (("wrapped", wrapped), ("bare", bare), ("empty", empty)):
                probe._wrap(name, fn, False, None)()
            per_call = {name: probe.self_s[name] / n for name in ("wrapped", "bare", "empty")}
            dispatch = per_call["bare"] - per_call["empty"]  # a plain call of _noop
            ins.append(probe.self_s["child"] / n - dispatch)
            outs.append(per_call["wrapped"] - per_call["bare"])
        self.cost_in, self.cost_out = statistics.median(ins), statistics.median(outs)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "echtk" or n.startswith("echtk.")]
        for mod_name, attr, name, recorded, hook in TARGETS:
            owner = sys.modules.get("echtk." + mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, recorded, hook)
            if path:  # a method: patch the class once
                self._patch(owner, leaf, original, wrapper)
                continue
            for module in modules:
                if getattr(module, leaf, None) is original:
                    self._patch(module, leaf, original, wrapper)

    def _patch(self, owner, leaf, original, wrapper) -> None:
        setattr(owner, leaf, wrapper)
        self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def corrected_self_s(self) -> Counter:
        """Self times with the calibrated wrapper cost taken out: cost_in
        from every call, cost_out from its traced caller."""
        out = Counter()
        for name, s in self.self_s.items():
            out[name] += s - self.calls[name] * self.cost_in
        for (caller, _), n in self.edges.items():
            if caller is not None:
                out[caller] -= n * self.cost_out
        return out

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        self_s = self.corrected_self_s()
        source = {"self": self_s, "calls": self.calls, "count": self.counts}
        out = {
            metric: source[how][key] for metric, (_, how, key) in LAYER_METRICS.items()
        }
        nk_calls = self.calls["nseq.nk"]
        attempts = self.edges["nseq.nk", "nseq.lattice_count"]
        out["nseq.lattice_count_per_nk"] = attempts / nk_calls if nk_calls else 0.0
        wrapper_s = sum(self.calls.values()) * (self.cost_in + self.cost_out)
        out["trace.wrapper_cost_s"] = wrapper_s
        # the share of the pass, tracer cost and hooks removed, that lies in spans
        untraced = wall_s - wrapper_s - self.hook_s
        out["trace.coverage_ratio"] = sum(self_s.values()) / untraced if untraced > 0 else 0.0
        return out
