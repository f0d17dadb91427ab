"""Run one ramify CLI job with spans around the public entry points of each module.

Usage (from the checkout root, with PYTHONPATH pointing at src):

    python perfbench/tracer.py SPANS_OUT JOB_ID -- <ramify arguments>

The job behaves exactly like ``python -m ramify <ramify arguments>``: same
stdin, stdout, stderr and exit code.  Every entry point listed in TARGETS is
wrapped under each module name that binds it (``covers`` imports ``compose``
by name, so ``covers.compose`` is wrapped too).  Spans stay in memory and are
written as JSON to SPANS_OUT when the job ends, also when it ends in an
uncaught exception.

A span records its name, start and end (``time.perf_counter_ns``, which is
the system-wide monotonic clock and so comparable with the parent process),
its parent span and the time covered by its child spans.  Entry points in
LEAVES are called so often (hundreds of thousands of matrix products per
Cayley table) that one record per call would not fit in memory; their calls
are folded into per-name totals and still charged to the parent's child time,
so self times add up exactly.
"""

from __future__ import annotations

import json
import os
import sys
import time

_clock = time.perf_counter_ns
_T0 = _clock()

# (module, attribute path, span name).
TARGETS = (
    ("fields", "field_create", "fields.create"),
    ("series", "LaurentSeries.inverse", "series.inverse"),
    ("series", "compose", "series.compose"),
    ("series", "hensel_lift_root", "series.hensel_lift"),
    ("series", "nth_root_of_unit", "series.nth_root"),
    ("covers", "build_artin_schreier", "covers.build"),
    ("covers", "build_kummer", "covers.build"),
    ("covers", "build_compositum_tower", "covers.build"),
    ("covers", "lower_break_table", "covers.break_table"),
    ("covers", "GaloisCover.rebuild", "covers.rebuild"),
    ("groups", "FiniteGroup.from_matrices", "groups.from_matrices"),
    ("groups", "FiniteGroup.__init__", "groups.init"),
    ("groups", "group_closure", "groups.closure"),
    ("groups", "FiniteGroup.verify_axioms", "groups.verify_axioms"),
    ("groups", "FiniteGroup.all_subgroups", "groups.all_subgroups"),
    ("groups", "enumerate_gl", "groups.enumerate_gl"),
    ("groups", "inertia_candidate_sample", "groups.sample"),
    ("ramification", "Representation.__init__", "ramification.rep_build"),
    ("ramification", "filtration_from_breaks", "ramification.filtration"),
    ("ramification", "herbrand_phi", "ramification.herbrand"),
    ("ramification", "herbrand_psi", "ramification.herbrand"),
    ("ramification", "swan_conductor", "ramification.swan"),
    ("ramification", "swan_single_break", "ramification.swan"),
    ("bounds", "inertia_structure", "bounds.inertia_structure"),
    ("bounds", "tameizing_subgroup", "bounds.tameizing"),
    ("bounds", "wild_order_bound_check", "bounds.wild_order"),
    ("bounds", "claim1_check", "bounds.claim1"),
    ("verify", "suite_lemma_pullback", "verify.lemma_pullback"),
    ("verify", "suite_hasse_arf", "verify.hasse_arf"),
    ("verify", "suite_transitivity", "verify.transitivity"),
    ("verify", "suite_claim1", "verify.claim1"),
    ("verify", "suite_claim2", "verify.claim2"),
    ("verify", "suite_counts", "verify.counts"),
    ("reporting", "make_report", "reporting.report"),
    ("reporting", "canonical_dumps", "reporting.report"),
    ("cli", "main", "cli.run"),
)
# Hot entry points folded into per-name totals: (module, attribute path, name).
LEAVES = (
    ("series", "LaurentSeries.__mul__", "series.mul"),
    ("linalg", "MatrixFF.__mul__", "linalg.matmul"),
    ("linalg", "MatrixFF.key", "linalg.key"),
)


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        # Each span: [name, start_ns, end_ns, parent index (-1: none), child_ns, attr].
        self.spans: list[list] = []
        self.stack = [-1]
        self.root_child_ns = 0
        # name -> [calls, total_ns, extra]
        self.leaves: dict[str, list[int]] = {}

    def _charge_parent(self, dt: int) -> None:
        top = self.stack[-1]
        if top < 0:
            self.root_child_ns += dt
        else:
            self.spans[top][4] += dt

    def span(self, name: str, fn, attr=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, _clock(), 0, stack[-1], 0, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = _clock()
                self._charge_parent(rec[2] - rec[1])
            if attr is not None:
                rec[5] = attr(args, result)
            return result

        return traced

    def leaf(self, name: str, fn, extra=None):
        agg = self.leaves.setdefault(name, [0, 0, 0])

        def traced(*args, **kwargs):
            if extra is not None:
                agg[2] += extra(args)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                agg[0] += 1
                agg[1] += dt
                self._charge_parent(dt)

        return traced

    def record(self, name: str, start: int, end: int) -> None:
        """A span measured outside any wrapper (the import of the CLI)."""
        self.spans.append([name, start, end, -1, 0, None])
        self.root_child_ns += end - start

    def dump(self, path: str) -> None:
        payload = {
            "job": self.job_id,
            "process_start_ns": _T0,
            "spans": self.spans,
            "leaves": self.leaves,
            "root_child_ns": self.root_child_ns,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _mul_pairs(args) -> int:
    """Computed count of coefficient pairs in the two operand windows."""
    a, b = args[0], args[1]
    return len(a.coeffs) * len(getattr(b, "coeffs", ()))


# Span name -> function of (arguments, result) stored as the span's attribute.
ATTRS = {
    "covers.build": lambda args, cover: cover.prec,
    "groups.init": lambda args, _: args[0].n ** 2,  # table cells
    "groups.sample": lambda args, groups: len(groups),
}


def _resolve(module, path: str):
    """(holder, attribute name, raw attribute) for "func" or "Class.method"."""
    owner, _, attr = path.rpartition(".")
    holder = getattr(module, owner) if owner else module
    return holder, attr, vars(holder)[attr]


def install(tracer: Tracer) -> None:
    """Wrap every target under every ramify module name that binds it."""
    import ramify

    modules = [m for name, m in sys.modules.items() if name == "ramify" or name.startswith("ramify.")]
    replacements: dict[int, object] = {}
    for table, is_leaf in ((TARGETS, False), (LEAVES, True)):
        for mod_name, path, span_name in table:
            module = getattr(ramify, mod_name)
            holder, attr, raw = _resolve(module, path)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if is_leaf:
                extra = _mul_pairs if span_name == "series.mul" else None
                wrapped = tracer.leaf(span_name, fn, extra)
            else:
                wrapped = tracer.span(span_name, fn, ATTRS.get(span_name))
            if holder is not module:  # a method or classmethod on a class
                setattr(holder, attr, classmethod(wrapped) if is_classmethod else wrapped)
            else:
                replacements[id(fn)] = (fn, wrapped)
    for module in modules:
        namespace = vars(module)
        for name, value in list(namespace.items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[name] = hit[1]
            elif isinstance(value, dict):  # dispatch tables such as verify._SUITES
                for key, item in list(value.items()):
                    hit = replacements.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[key] = hit[1]


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.stderr.write("usage: tracer.py SPANS_OUT JOB_ID -- <ramify arguments>\n")
        return 64
    spans_out, job_id, ramify_args = sys.argv[1], sys.argv[2], sys.argv[4:]
    # Mimic `python -m ramify`: the working directory leads sys.path.
    sys.path[0] = os.getcwd()
    tracer = Tracer(job_id)
    try:
        start = _clock()
        import ramify.cli

        tracer.record("cli.import", start, _clock())
        install(tracer)
        sys.argv = ["ramify", *ramify_args]
        return ramify.cli.main()
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
