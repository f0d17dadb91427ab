"""Per-layer metrics from the spans of a traced run.

Self time is a span's duration minus the time its child spans cover.  An
inclusive ``*_s`` metric sums the durations of a name's outermost spans (a
span nested in another span of the same name is not counted twice).  All
values are per round: totals over the traced passes divided by the number
of passes, so counts repeat exactly for a given seed.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = (
    "fields", "series", "covers", "groups", "linalg",
    "ramification", "bounds", "verify", "reporting", "cli",
)

# metric -> (kind, span name, unit): "calls", "self" or "incl" of one span name.
SPAN_METRICS = {
    "fields.create_calls": ("calls", "fields.create", "count"),
    "fields.create_s": ("incl", "fields.create", "s"),
    "series.mul_calls": ("calls", "series.mul", "count"),
    "series.mul_self_s": ("self", "series.mul", "s"),
    "series.inverse_calls": ("calls", "series.inverse", "count"),
    "series.inverse_self_s": ("self", "series.inverse", "s"),
    "series.compose_calls": ("calls", "series.compose", "count"),
    "series.compose_self_s": ("self", "series.compose", "s"),
    "series.hensel_lift_s": ("incl", "series.hensel_lift", "s"),
    "series.nth_root_s": ("incl", "series.nth_root", "s"),
    "covers.build_calls": ("calls", "covers.build", "count"),
    "covers.build_s": ("incl", "covers.build", "s"),
    "covers.build_self_s": ("self", "covers.build", "s"),
    "covers.break_table_s": ("incl", "covers.break_table", "s"),
    "covers.rebuilds": ("calls", "covers.rebuild", "count"),
    "groups.from_matrices_calls": ("calls", "groups.from_matrices", "count"),
    "groups.from_matrices_self_s": ("self", "groups.from_matrices", "s"),
    "groups.init_self_s": ("self", "groups.init", "s"),
    "groups.closure_self_s": ("self", "groups.closure", "s"),
    "groups.verify_axioms_s": ("incl", "groups.verify_axioms", "s"),
    "groups.all_subgroups_s": ("incl", "groups.all_subgroups", "s"),
    "groups.enumerate_gl_s": ("incl", "groups.enumerate_gl", "s"),
    "linalg.matmul_calls": ("calls", "linalg.matmul", "count"),
    "linalg.matmul_self_s": ("self", "linalg.matmul", "s"),
    "linalg.key_calls": ("calls", "linalg.key", "count"),
    "linalg.key_self_s": ("self", "linalg.key", "s"),
    "ramification.rep_build_s": ("incl", "ramification.rep_build", "s"),
    "ramification.filtration_s": ("incl", "ramification.filtration", "s"),
    "ramification.herbrand_s": ("incl", "ramification.herbrand", "s"),
    "ramification.swan_s": ("incl", "ramification.swan", "s"),
    "bounds.inertia_structure_s": ("incl", "bounds.inertia_structure", "s"),
    "bounds.tameizing_s": ("incl", "bounds.tameizing", "s"),
    "bounds.wild_order_s": ("incl", "bounds.wild_order", "s"),
    "bounds.claim1_s": ("incl", "bounds.claim1", "s"),
    "verify.lemma_pullback_s": ("incl", "verify.lemma_pullback", "s"),
    "verify.hasse_arf_s": ("incl", "verify.hasse_arf", "s"),
    "verify.transitivity_s": ("incl", "verify.transitivity", "s"),
    "verify.claim1_s": ("incl", "verify.claim1", "s"),
    "verify.claim2_s": ("incl", "verify.claim2", "s"),
    "verify.counts_s": ("incl", "verify.counts", "s"),
    "reporting.report_s": ("incl", "reporting.report", "s"),
    "cli.import_s": ("incl", "cli.import", "s"),
    "cli.run_s": ("incl", "cli.run", "s"),
}


class Totals:
    """Sums over every traced job of calls, self and inclusive time per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.extra = defaultdict(int)
        self.selfcheck_ns = 0  # compose inside the build_* cover constructors
        self.sample_closures = 0  # group_closure calls inside inertia_candidate_sample
        self.final_precs = []
        self.by_layer = defaultdict(int)  # self time per layer
        self.wall_ns = 0
        self.root_ns = 0

    def add_job(self, trace: dict, wall_ns: int) -> None:
        spans = trace["spans"]
        names = [s[0] for s in spans]

        def has_ancestor(idx: int, name: str) -> bool:
            parent = spans[idx][3]
            while parent >= 0:
                if names[parent] == name:
                    return True
                parent = spans[parent][3]
            return False

        precs = []
        for idx, (name, start, end, _parent, child_ns, attr) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.self_ns[name] += dur - child_ns
            if not has_ancestor(idx, name):
                self.incl_ns[name] += dur
            if name == "series.compose" and has_ancestor(idx, "covers.build"):
                self.selfcheck_ns += dur
            elif name == "groups.closure" and has_ancestor(idx, "groups.sample"):
                self.sample_closures += 1
            elif name == "covers.build":
                precs.append(attr)
            if attr is not None and name in ("groups.init", "groups.sample"):
                self.extra[name] += attr
        for name, (calls, total_ns, extra) in trace["leaves"].items():
            self.calls[name] += calls
            self.self_ns[name] += total_ns
            self.incl_ns[name] += total_ns
            self.extra[name] += extra
        if precs:
            self.final_precs.append(max(precs))
        root_ns = trace["root_child_ns"]
        by_layer = _self_by_layer(spans, trace["leaves"])
        layer_self = sum(by_layer.values())
        if layer_self != root_ns or root_ns > wall_ns:
            raise AssertionError(
                f"{trace['job']}: span self times {layer_self} ns do not add up to "
                f"the traced span time {root_ns} ns (wall {wall_ns} ns)"
            )
        for layer, ns in by_layer.items():
            self.by_layer[layer] += ns
        self.wall_ns += wall_ns
        self.root_ns += root_ns


def _self_by_layer(spans, leaves) -> dict[str, int]:
    out = defaultdict(int)
    for name, start, end, _parent, child_ns, _attr in spans:
        out[name.split(".")[0]] += end - start - child_ns
    for name, (_calls, total_ns, _extra) in leaves.items():
        out[name.split(".")[0]] += total_ns
    return out


def layer_metrics(plain, traced, round_size: int):
    """(metrics, units, notes) per round from untraced and traced JobRuns."""
    passes = len(traced) // round_size
    totals = Totals()
    for run in traced:
        totals.add_job(run.spans, run.end_ns - run.start_ns)
    metrics, units, notes = {}, {}, {}

    def put(name, value, unit, note):
        metrics[name], units[name], notes[name] = value, unit, note

    per_pass = f"per round of {round_size} jobs, mean of {passes} traced pass(es)"
    for name, (kind, span, unit) in SPAN_METRICS.items():
        if kind == "calls":
            value = totals.calls[span] / passes
        else:
            ns = (totals.self_ns if kind == "self" else totals.incl_ns)[span]
            value = ns / 1e9 / passes
        put(name, value, unit, f"{totals.calls[span] // passes} spans {per_pass}")
    put("series.mul_pairs", totals.extra["series.mul"] / passes, "count",
        f"computed: coefficient pairs in the operand windows, {per_pass}")
    build_ns = totals.incl_ns["covers.build"]
    put("covers.selfcheck_share", totals.selfcheck_ns / build_ns if build_ns else 0.0, "ratio",
        f"compose inside build_* calls {totals.selfcheck_ns / 1e9 / passes:.4f} s / "
        f"build_* time {build_ns / 1e9 / passes:.4f} s")
    precs = totals.final_precs
    put("covers.final_prec", sum(precs) / len(precs) if precs else 0.0, "terms",
        f"mean final precision of {len(precs)} cover-building jobs")
    put("groups.table_cells", totals.extra["groups.init"] / passes, "count",
        f"sum of n^2 over {totals.calls['groups.init'] // passes} tables {per_pass}")
    closures = totals.sample_closures
    put("groups.sample_yield", totals.extra["groups.sample"] / closures if closures else 0.0,
        "ratio", f"{totals.extra['groups.sample']} groups returned / {closures} group_closure "
        "calls while sampling")
    plain_ns = sum(r.end_ns - r.start_ns for r in plain)
    put("reporting.report_bytes", sum(len(r.stdout) for r in traced) / passes, "bytes",
        f"stdout bytes {per_pass}")
    for kind in ("json_error", "traceback", "timeout"):
        count = sum(1 for r in traced if r.outcome.failure == kind)
        put(f"cli.{kind}s", count / passes, "count", f"{count} of {len(traced)} traced jobs")
    put("cli.trace_overhead_frac", totals.wall_ns / plain_ns - 1, "ratio",
        f"traced wall {totals.wall_ns / 1e9:.3f} s / untraced wall {plain_ns / 1e9:.3f} s - 1")
    for layer in LAYERS:
        put(f"{layer}.self_s", totals.by_layer[layer] / 1e9 / passes, "s",
            f"self time of all {layer} spans {per_pass}")
    put("trace.unattributed_s", (totals.wall_ns - totals.root_ns) / 1e9 / passes, "s",
        "traced wall outside every span (interpreter start-up, exit) " + per_pass)
    put("trace.traced_wall_s", totals.wall_ns / 1e9 / passes, "s",
        f"layer self times plus unattributed, {per_pass}")
    put("trace.untraced_wall_s", plain_ns / 1e9 / passes, "s", f"same jobs untraced, {per_pass}")
    return metrics, units, notes
