"""Command-line front end: JSON job in, canonical JSON report out.

Exit codes: 0 success, 1 input or computation error (a machine-readable
error object is emitted), 2 a verification suite found a violated
invariant (the report is still emitted).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds, corpus, verify
from .covers import BreakTable, lower_break_table
from .errors import InputSchemaError, OverflowPolicyExceeded, RamifyError
from .fields import field_create
from .groups import (
    FiniteGroup,
    abelian_p_bound_probe,
    inertia_candidate_sample,
    max_ell_element_order,
)
from .ramification import (
    filtration_from_breaks,
    hasse_arf_check,
    herbrand_phi,
    herbrand_psi,
    swan_conductor,
    swan_single_break,
    upper_jumps,
)
from .reporting import canonical_dumps, make_report, rational_pair, write_atomic

COMMANDS = ("filtration", "herbrand", "swan", "bound", "verify", "enum")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputSchemaError(message)


def _get_base(job: dict):
    base = job.get("base")
    _require(isinstance(base, dict), "missing or invalid 'base'")
    _require(
        isinstance(base.get("p"), int) and isinstance(base.get("a"), int) and base["a"] >= 1,
        "'base' needs integer fields p and a, with a >= 1",
    )
    return field_create(base["p"], base["a"])


def _group_from_table(cfg: dict) -> FiniteGroup:
    _require(
        isinstance(cfg.get("labels"), list) and isinstance(cfg.get("mul_table"), list),
        "'break_table' needs 'labels' and 'mul_table'",
    )
    try:
        group = FiniteGroup(cfg["mul_table"], cfg["labels"])
    except RamifyError:
        raise
    except Exception as exc:
        raise InputSchemaError(f"invalid multiplication table: {exc}")
    if not group.verify_axioms():
        raise InputSchemaError("multiplication table is not associative")
    return group


def _break_data(job: dict, prec: int | None):
    """Cover (from its spec) or a directly supplied break table."""
    if "cover" in job:
        base = _get_base(job)
        cover = corpus.build_cover(job["base"], job["cover"], prec=prec)
        bt = lower_break_table(cover)
        return cover, bt, base.p
    if "break_table" in job:
        cfg = job["break_table"]
        _require(isinstance(cfg, dict), "'break_table' must be a JSON object")
        base = _get_base(job)
        group = _group_from_table(cfg)
        i_g = cfg.get("iG", {})
        _require(isinstance(i_g, dict), "'break_table.iG' must be a JSON object")
        i_map = {}
        for label, value in i_g.items():
            _require(label in group.labels, f"'break_table.iG' has unknown label {label!r}")
            _require(isinstance(value, int) and value >= 1, "break values must be >= 1")
            i_map[group.label_index(label)] = value
        _require(
            set(i_map) == set(range(group.n)) - {group.identity},
            "'iG' must cover every nontrivial element exactly once",
        )
        return None, BreakTable(group, i_map), base.p
    raise InputSchemaError("job needs either 'cover' or 'break_table'")


def _rep_for(job: dict, group: FiniteGroup, p: int):
    cfg = job.get("rep")
    _require(isinstance(cfg, dict), "missing or invalid 'rep'")
    for key in ("ell", "r", "images"):
        _require(key in cfg, f"'rep' needs field {key!r}")
    _require(isinstance(cfg["ell"], int), "'rep.ell' must be an integer")
    n = cfg.get("n", 1)
    _require(isinstance(n, int) and n >= 1, "'rep.n' must be a positive integer")
    _require(cfg["ell"] != p, "rep characteristic ell must differ from p")
    images = cfg["images"]
    _require(
        isinstance(images, dict) and len(images) > 0,
        "'rep.images' must be a non-empty object of generator label -> matrix",
    )
    for label, rows in images.items():
        _require(label in group.labels, f"'rep.images' has unknown label {label!r}")
        _require(
            isinstance(rows, list)
            and all(
                isinstance(row, list)
                and all(isinstance(x, int) or corpus.coordinates_ok(x, n) for x in row)
                for row in rows
            ),
            f"'rep.images.{label}' must be a list of rows of ints or lists of at most {n} ints",
        )
    rep = corpus.representation_from_spec(group, cfg)
    _require(rep.r == cfg["r"], "rank of the images differs from declared r")
    _require(rep.group.n == group.n, "rep group size does not match the cover group")
    return rep


def _filtration_results(bt: BreakTable, p: int, cover=None) -> dict:
    filt = filtration_from_breaks(bt, p)
    results = {
        "i_G": bt.by_label(),
        "filtration": [
            [i, sorted(bt.group.labels[g] for g in filt.subgroup_at(i))]
            for i in range(filt.i_max + 2)
        ],
        "i_max": filt.i_max,
        "group_order": bt.group.n,
    }
    if cover is not None:
        results["e"] = cover.e
        results["degree"] = cover.degree
    return results, filt


def _herbrand_payload(filt) -> dict:
    phi = herbrand_phi(filt)
    psi = herbrand_psi(phi)
    g0, _ = filt.group.subgroup(filt.subgroup_at(0))
    payload = {
        "phi": {
            "breakpoints": [[u, v] for u, v in phi.breakpoints],
            "final_slope": phi.final_slope,
            "unit_slopes": list(phi.unit_slopes or ()),
        },
        "psi": {
            "breakpoints": [[u, v] for u, v in psi.breakpoints],
            "final_slope": psi.final_slope,
        },
        "upper_jumps": list(upper_jumps(filt)),
        "hasse_arf": hasse_arf_check(filt) if g0.is_abelian() else None,
    }
    return payload


def _cmd_filtration(job: dict, options: dict):
    cover, bt, p = _break_data(job, options.get("precision"))
    results, _ = _filtration_results(bt, p, cover)
    return results, [], False


def _cmd_herbrand(job: dict, options: dict):
    cover, bt, p = _break_data(job, options.get("precision"))
    results, filt = _filtration_results(bt, p, cover)
    results.update(_herbrand_payload(filt))
    return results, [], False


def _cmd_swan(job: dict, options: dict):
    cover, bt, p = _break_data(job, options.get("precision"))
    rep = _rep_for(job, bt.group, p)
    filt = filtration_from_breaks(bt, p)
    report = swan_conductor(rep, filt)
    phi = herbrand_phi(filt)
    try:
        single = swan_single_break(rep, filt, phi)
    except RamifyError:
        single = None
    results = {
        "swan": rational_pair(report.swan),
        "breaks": [[lam, mult] for lam, mult in report.breaks],
        "per_jump_terms": [[x, inc] for x, inc in report.per_jump_terms],
        "single_break": single,
        "rank": rep.r,
    }
    return results, [], False


def _cmd_bound(job: dict, options: dict):
    cover, bt, p = _break_data(job, options.get("precision"))
    rep = _rep_for(job, bt.group, p)
    filt = filtration_from_breaks(bt, p)
    params = job.get("params", {})
    big_n = params.get("N")
    _require(isinstance(big_n, int) and big_n >= 0, "'params.N' must be a non-negative integer")
    jordan_table = options.get("jordan_table")
    structure = bounds.inertia_structure(rep.image_matrices(), p)
    tame = bounds.tameizing_subgroup(structure)
    wild = bounds.wild_order_bound_check(
        structure, filt, rep, big_n, jordan_table=jordan_table
    )
    j_value = bounds.jordan_bound(rep.r, jordan_table)
    consts = bounds.explicit_constants(rep.r, p, structure.ell, big_n, j_value)
    _, image_order, prime_to_p = bounds.restricted_image_through(
        rep, structure, tame.H_indices
    )
    results = {
        "inertia": {
            "order": structure.group.n,
            "P_order": structure.P_order,
            "M": structure.M,
            "n": structure.n,
            "M_prime": structure.M_prime,
        },
        "claim1": bounds.claim1_check(structure, rep.r),
        "tameizing": {
            "H_order": tame.H_order,
            "index_tame": tame.index_tame,
            "alpha_image_order": tame.alpha_image_order,
        },
        "restricted_through_H": {
            "image_order": image_order,
            "prime_to_p": prime_to_p,
        },
        "constants": {
            "N_prime": consts.N_prime,
            "M0": _printable("constants.M0", consts.M0),
            "M_crude": _printable("constants.M_crude", consts.M_crude)
            if consts.M_crude is not None
            else list(consts.M_crude_descriptor),
        },
        "wild_bound": {
            "swan": wild.swan,
            "N_prime": wild.N_prime,
            "N_prime_exact": wild.N_prime_exact,
            "jumps_visible": wild.jumps_visible,
            "P_order": wild.P_order,
            "torus_bound_holds": wild.torus_bound_holds,
            "linear_bound_holds": wild.linear_bound_holds,
            "ok": wild.ok,
        },
    }
    return results, list(wild.warnings), False


def _printable(name: str, value: int) -> int:
    """``value``, unless its decimal form is longer than the interpreter's
    int -> str digit limit, so that no report could be written."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and abs(value) >= 10 ** limit:
        raise OverflowPolicyExceeded(f"{name} has more than {limit} decimal digits")
    return value


# Least admissible value of each integer parameter of the enum ops.
_ENUM_INTS = {
    "max_ell_element_order": {"r": 1, "ell": 2, "n": 1},
    "inertia_candidate_sample": {"r": 1, "ell": 2, "n": 1, "p": 2, "count": 0},
    "abelian_p_bound_probe": {"r": 1, "ell": 2, "p": 2, "s": 0},
}


def _cmd_enum(job: dict, options: dict):
    params = job.get("params", {})
    op = params.get("op")
    _require(isinstance(op, str) and op in _ENUM_INTS, f"unknown enum op {op!r}")
    for key, least in _ENUM_INTS[op].items():
        value = params.get(key)
        _require(
            isinstance(value, int) and value >= least,
            f"'params.{key}' must be an integer >= {least}",
        )
    if op == "max_ell_element_order":
        value = max_ell_element_order(params["r"], params["ell"], params["n"])
        return {"op": op, "max_order": value, "mode": "exhaustive"}, [], False
    if op == "inertia_candidate_sample":
        seed = options.get("seed", 0)
        groups = inertia_candidate_sample(
            params["r"], params["ell"], params["n"], params["p"], params["count"], seed
        )
        orders = [g.n for g in groups]
        return {"op": op, "seed": seed, "orders": orders, "mode": "sampled"}, [], False
    probe = abelian_p_bound_probe(params["r"], params["ell"], params["p"], params["s"])
    results = {"op": op, "mode": "constructed"}
    for key in ("max_order_found", "le_linear_bound", "le_torus_bound", "n_used"):
        results[key] = getattr(probe, key)
    return results, [], False


def _cmd_verify(job: dict, options: dict):
    params = job.get("params", {})
    suite = params.get("suite", "all")
    _require(isinstance(suite, str), "'params.suite' must be a string")
    results = verify.run_suite(
        suite,
        {
            "seed": options.get("seed", 0),
            "exhaustive": options.get("exhaustive", False),
            "jordan_table": options.get("jordan_table"),
        },
    )
    return results, [], not results["ok"]


_HANDLERS = {
    "filtration": _cmd_filtration,
    "herbrand": _cmd_herbrand,
    "swan": _cmd_swan,
    "bound": _cmd_bound,
    "enum": _cmd_enum,
    "verify": _cmd_verify,
}


def run(job: dict, options: dict | None = None):
    """Execute one job; returns (report dict, exit code)."""
    options = dict(options or {})
    _require(isinstance(job, dict), "job must be a JSON object")
    command = job.get("command")
    _require(command in COMMANDS, f"'command' must be one of {COMMANDS}")
    params = job.get("params", {})
    _require(isinstance(params, dict), "'params' must be a JSON object")
    # Precedence: explicit CLI flag, then the job's params, then defaults.
    if options.get("precision") is None:
        prec = params.get("precision")
        _require(
            prec is None or (isinstance(prec, int) and prec >= 1),
            "'params.precision' must be a positive integer",
        )
        options["precision"] = prec
    if options.get("seed") is None:
        seed = params.get("seed")
        _require(
            seed is None or isinstance(seed, int),
            "'params.seed' must be an integer",
        )
        options["seed"] = seed if seed is not None else 0
    results, warnings, violated = _HANDLERS[command](job, options)
    report = make_report(command, job, results, warnings)
    return report, (2 if violated else 0)


def _load_jordan_table(path: str | None) -> dict[int, int] | None:
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputSchemaError(f"cannot read jordan table: {exc}")
    if not isinstance(raw, dict):
        raise InputSchemaError("jordan table must be a JSON object")
    table = {}
    for k, v in raw.items():
        try:
            rank = int(k)
        except ValueError:
            raise InputSchemaError(f"jordan table key {k!r} is not an integer")
        if not isinstance(v, int) or v < 1:
            raise InputSchemaError(f"jordan table value for rank {rank} must be a positive integer")
        table[rank] = v
    return table


def _reject_inexact(literal: str):
    raise InputSchemaError(f"the job has the number {literal}; jobs take exact integers only")


def _emit(payload: dict, output: str | None) -> None:
    text = canonical_dumps(payload)
    if output:
        write_atomic(output, text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ramify",
        description="Exact ramification invariants of local-field covers.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    run_p = sub.add_parser("run", help="execute a JSON job from stdin or --input")
    run_p.add_argument("--input", help="job file (default: stdin)")
    ver_p = sub.add_parser("verify", help="run a verification suite")
    ver_p.add_argument("suite", help=f"one of {verify.SUITE_NAMES}")
    for p in (run_p, ver_p):
        p.add_argument("--output", help="write the report here (atomic)")
        p.add_argument("--precision", type=int, help="series precision override")
        p.add_argument("--seed", type=int, help="seed for sampled computations")
        p.add_argument("--jordan-table", help="JSON file of rank -> bound")
        p.add_argument("--exhaustive", action="store_true", help="force exhaustive modes")

    args = parser.parse_args(argv)
    output = args.output
    try:
        options = {
            "precision": args.precision,
            "seed": args.seed,
            "jordan_table": _load_jordan_table(args.jordan_table),
            "exhaustive": args.exhaustive,
        }
        if args.mode == "run":
            if args.input:
                try:
                    with open(args.input, "r", encoding="utf-8") as fh:
                        text = fh.read()
                except OSError as exc:
                    raise InputSchemaError(f"cannot read input: {exc}")
            else:
                text = sys.stdin.read()
            try:
                job = json.loads(text, parse_float=_reject_inexact, parse_constant=_reject_inexact)
            except json.JSONDecodeError as exc:
                raise InputSchemaError(f"invalid JSON: {exc}")
        else:
            job = {"command": "verify", "params": {"suite": args.suite}}
        report, code = run(job, options)
        _emit(report, output)
        return code
    except RamifyError as err:
        _emit({"error": {"type": err.code, "message": str(err)}}, output)
        return 1


if __name__ == "__main__":
    sys.exit(main())
