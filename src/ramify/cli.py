"""usage: ramify run [--input FILE] [FLAGS] | ramify verify SUITE [FLAGS]
FLAGS: --output FILE --precision N --seed N --jordan-table FILE

Each flag is one '--flag value' pair; the last of a repeated flag wins.
`run` reads a JSON job from FILE or stdin, `verify` runs a suite (or all);
the canonical JSON report goes to stdout or --output.  Exit codes: 0
success, 1 an input or computation error, the command line's included (an
error object is emitted), 2 a suite found a violated invariant.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from typing import NoReturn

from . import bounds, corpus, verify
from .corpus import COMMANDS
from .errors import InputSchemaError, NotAbelian, RamifyError
from .groups import abelian_p_bound_probe, inertia_candidate_sample, max_ell_element_order
from .ramification import (
    filtration_from_breaks, hasse_arf_check, herbrand_phi, herbrand_psi,
    swan_conductor, swan_single_break, upper_jumps,
)
from .reporting import canonical_dumps, make_report, rational_pair, write_atomic


def _filtration_results(job: dict, options: dict):
    """(results, filtration) of the job's cover or break table."""
    cover, bt, p = corpus.break_data(job, options["precision"])
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
        results["e"] = results["degree"] = cover.group.n  # totally ramified
    return results, filt


def _herbrand_payload(filt) -> dict:
    phi = herbrand_phi(filt)
    psi = herbrand_psi(phi)
    upper = upper_jumps(filt, phi)
    try:
        hasse_arf = hasse_arf_check(filt, upper)
    except NotAbelian:  # Hasse-Arf is stated for abelian G_0 only
        hasse_arf = None
    g0 = filt.order_at(0)
    return {
        "phi": {
            "breakpoints": [[u, v] for u, v in phi.breakpoints],
            "final_slope": phi.final_slope,
            # the slope |G_i| / |G_0| of each unit segment (i - 1, i]
            "unit_slopes": [Fraction(filt.order_at(i), g0) for i in range(1, filt.i_max + 2)],
        },
        "psi": {
            "breakpoints": [[u, v] for u, v in psi.breakpoints],
            "final_slope": psi.final_slope,
        },
        "upper_jumps": list(upper),
        "hasse_arf": hasse_arf,
    }


def _cmd_filtration(job: dict, params: dict, options: dict):
    return _filtration_results(job, options)[0], [], False


def _cmd_herbrand(job: dict, params: dict, options: dict):
    results, filt = _filtration_results(job, options)
    return {**results, **_herbrand_payload(filt)}, [], False


def _cmd_swan(job: dict, params: dict, options: dict):
    cover, bt, p = corpus.break_data(job, options["precision"])
    rep = corpus.representation(bt.group, job.get("rep"), p)
    filt = filtration_from_breaks(bt, p)
    report = swan_conductor(rep, filt)
    try:
        single = swan_single_break(rep, filt)
    except RamifyError:
        single = None
    return {
        "swan": rational_pair(report.swan),
        "breaks": [[lam, mult] for lam, mult in report.breaks],
        "per_jump_terms": [[x, inc] for x, inc in report.per_jump_terms],
        "single_break": single,
        "rank": rep.r,
    }, [], False


def _cmd_bound(job: dict, params: dict, options: dict):
    cover, bt, p = corpus.break_data(job, options["precision"])
    rep = corpus.representation(bt.group, job.get("rep"), p)
    filt = filtration_from_breaks(bt, p)
    big_n = corpus.read_int(params.get("N"), "params.N", 0)
    structure = bounds.inertia_structure(rep.images, p)
    tame = bounds.tameizing_subgroup(structure)
    wild = bounds.wild_order_bound_check(
        structure, filt, rep, big_n, jordan_table=options.get("jordan_table")
    )
    consts = wild.constants
    results = {
        "inertia": {
            "order": structure.group.n,
            "P_order": structure.P_order,
            "M": structure.M,
            "n": structure.n,
            "M_prime": structure.M_prime,
        },
        "claim1": bounds.claim1_check(structure),
        "tameizing": {
            "H_order": tame.H_order,
            "index_tame": tame.index_tame,
            "alpha_image_order": tame.alpha_image_order,
        },
        # structure.group is the image group of rep, so the images lying in
        # H are H itself, and tameizing_subgroup has refused gcd(|H|, p) != 1.
        "restricted_through_H": {"image_order": tame.H_order, "prime_to_p": True},
        "constants": {
            "N_prime": consts.N_prime,
            "M0": _printable("constants.M0", consts.M0),
            "M_crude": _printable("constants.M_crude", consts.M_crude)
            if consts.M_crude is not None
            else [consts.M0, "factorial"],
        },
        "wild_bound": {
            "swan": wild.swan,
            "N_prime": consts.N_prime,
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
    bounds.check_digit_limit(name, lambda limit: abs(value) >= 10 ** limit)
    return value


def _cmd_enum(job: dict, params: dict, options: dict):
    op, args = corpus.enum_args(params)
    if op == "max_ell_element_order":
        return {"op": op, "max_order": max_ell_element_order(**args), "mode": "exhaustive"}, [], False
    if op == "inertia_candidate_sample":
        seed = options["seed"]
        orders = [g.n for g in inertia_candidate_sample(**args, seed=seed)]
        return {"op": op, "seed": seed, "orders": orders, "mode": "sampled"}, [], False
    probe = abelian_p_bound_probe(**args)
    results = {"op": op, "mode": "constructed"}
    for key in ("max_order_found", "le_linear_bound", "le_torus_bound", "n_used"):
        results[key] = getattr(probe, key)
    return results, [], False


def _cmd_verify(job: dict, params: dict, options: dict):
    suite = corpus.read(params.get("suite", "all"), "params.suite", str)
    results = verify.run_suite(suite, options)
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
    """Execute one job; returns (report dict, exit code).

    The report's ``results`` are the handler's own values (Fractions,
    tuples, frozensets); ``canonical_dumps`` converts them when the report
    is written."""
    command, params, options = corpus.read_job(job, options or {})
    results, warnings, violated = _HANDLERS[command](job, params, options)
    report = make_report(command, job, results, warnings)
    return report, (2 if violated else 0)


def _emit(payload: dict, output: str | None) -> None:
    text = canonical_dumps(payload)
    if not output:
        sys.stdout.write(text + "\n")
        return
    try:
        write_atomic(output, text + "\n")
    except OSError as exc:  # str(exc) would name the random temp file
        raise InputSchemaError(f"cannot write --output {output}: {exc.strerror}") from None


def _error(err: RamifyError) -> dict:
    return {"error": {"type": err.code, "message": str(err)}}


def main(argv=None) -> int:
    output = None
    try:
        args = corpus.read_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(__doc__)
            return 0
        output = args["--output"]
        options = {
            "precision": args["--precision"],
            "seed": args["--seed"],
            "jordan_table": corpus.jordan_table(args["--jordan-table"]),
        }
        if args["suite"] is None:
            job = corpus.read_file(args["--input"], "the job")
        else:
            job = {"command": "verify", "params": {"suite": args["suite"]}}
        report, code = run(job, options)
    except RamifyError as err:
        report, code = _error(err), 1
    try:
        _emit(report, output)
    except InputSchemaError as err:
        _emit(_error(err), None)
        return 1
    return code


def exit_main() -> NoReturn:
    """The ``ramify`` script and ``python -m ramify``: run ``main`` and end
    the process with its code.

    Once the report is written and stdout and stderr flush cleanly, nothing
    is left for interpreter finalization to do: every file is written in a
    ``with`` block, and ramify registers no ``atexit`` handler and starts no
    thread or child process.  So the process ends at once by ``os._exit``.
    A flush that raises (stdout a closed pipe) takes the normal exit instead,
    which reports the unwritten output as it always has."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)
