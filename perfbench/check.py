"""Per-job correctness checks: exit code, JSON report, reference digest, closed forms.

A job *fails* if it times out, leaves a traceback, exits with an unexpected
code, prints no JSON object, or prints an error object.  A job is *wrong* if
it prints a report that differs from the recorded reference or from a closed
form that holds for any seed.  Wrong answers make a run incorrect; failures
are counted.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from jobs import JORDAN_TABLE, Job, least_power_at_least

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
FACTORIAL_CAP = 5000  # ramify.bounds.FACTORIAL_CAP at the commit the reference was recorded
INT_STR_DIGITS = 4300  # CPython's default int -> str digit limit


@dataclass(frozen=True)
class Outcome:
    failure: str | None = None  # timeout, traceback, exit_code, no_json, json_error
    wrong: str | None = None  # why the report is not the right answer
    known_defect: bool = False  # a traceback the int -> str digit limit explains

    @property
    def ok(self) -> bool:
        return self.failure is None and self.wrong is None


def load_reference(path: Path = REFERENCE_PATH) -> dict[str, str]:
    if not path.is_file():
        return {}
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def _rational(x):
    if isinstance(x, dict):
        return x["num"] / x["den"] if x["den"] != 1 else x["num"]
    return x


def _bound_digits_defect(p: int, r: int, ell: int, big_n: int, j: int) -> bool:
    """Whether printing M0 = r * p^(ell*r*j*N) * j or M0! exceeds the int -> str digit limit."""
    exponent = ell * r * j * big_n
    if exponent * math.log10(p) + math.log10(r * j) > INT_STR_DIGITS:
        return True
    m0 = r * p ** exponent * j
    return m0 <= FACTORIAL_CAP and math.lgamma(m0 + 1) / math.log(10) > INT_STR_DIGITS


def predicts_digit_limit_defect(job: Job) -> bool:
    if not job.stdin:
        return False
    payload = json.loads(job.stdin)
    if payload.get("command") != "bound":
        return False
    rep = payload["rep"]
    r = rep["r"]
    j = 1 if r == 1 else JORDAN_TABLE[str(r)]
    return _bound_digits_defect(payload["base"]["p"], r, rep["ell"], payload["params"]["N"], j)


def check(job: Job, code: int | None, stdout: bytes, stderr: bytes, reference: dict) -> Outcome:
    """Classify one finished job; ``code`` is None when the job timed out."""
    if code is None:
        return Outcome(failure="timeout")
    if b"Traceback (most recent call last)" in stderr:
        known = b"integer string conversion" in stderr and predicts_digit_limit_defect(job)
        return Outcome(failure="traceback", known_defect=known)
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except ValueError:
        report = None
    if not isinstance(report, dict):
        return Outcome(failure="no_json")
    if "error" in report:
        return Outcome(failure="json_error")
    if code != 0:
        if code == 2 and job.argv[0] == "verify":
            return Outcome(wrong="verification suite reports a violated invariant")
        return Outcome(failure="exit_code")
    expected = reference.get(job.ref_key)
    if expected is not None and digest(stdout) != expected:
        return Outcome(wrong="report differs from the reference digest")
    reason = closed_form_violation(job, report.get("results", {}))
    return Outcome(wrong=reason) if reason else Outcome()


def closed_form_violation(job: Job, res: dict) -> str | None:
    """First closed-form fact the report contradicts, or None."""
    exp = job.expect
    kind = exp.get("kind")
    try:
        if kind in ("artin_schreier", "tower"):
            return _check_cover(exp, res)
        if kind == "semidirect":
            return _check_semidirect(exp, res)
        if kind == "sample":
            orders = res["orders"]
            if len(orders) != exp["count"]:
                return f"sampled {len(orders)} groups, asked for {exp['count']}"
            if any(exp["gl_order"] % n for n in orders):
                return f"a sampled group order in {orders} does not divide |GL2| = {exp['gl_order']}"
            return None
        if kind == "max_order":
            if res["max_order"] != exp["max_order"]:
                return f"max ell-element order {res['max_order']} != least ell^d >= r = {exp['max_order']}"
            return None
        if kind == "probe":
            if res["max_order_found"] != exp["max_order"] or not res["le_torus_bound"]:
                return f"probe maximum {res['max_order_found']} != p^(rs) = {exp['max_order']}"
            return None
        if kind == "verify":
            return _check_verify(res)
    except (KeyError, TypeError, IndexError) as exc:
        return f"report lacks an expected field ({exc!r})"
    return f"no closed form for job kind {kind!r}"


def _check_cover(exp: dict, res: dict) -> str | None:
    command, p, m = exp["command"], exp["p"], exp["m"]
    if command in ("filtration", "herbrand"):
        if exp["kind"] == "artin_schreier":
            wanted = {lbl: m + 1 for lbl in res["i_G"]}
            if len(res["i_G"]) != p - 1 or res["i_G"] != wanted:
                return f"i(sigma) {res['i_G']} != m + 1 = {m + 1} for every sigma"
        elif any(v != (1 if "tau" in lbl else m + 1) for lbl, v in res["i_G"].items()):
            return f"tower breaks {res['i_G']}: wild elements need i = {m + 1}, the rest 1"
        if command == "herbrand" and exp["kind"] == "artin_schreier" and res["upper_jumps"] != [m]:
            return f"upper jumps {res['upper_jumps']} != [{m}]"
        return None
    swan = exp["swan"]
    if command == "swan":
        if _rational(res["swan"]) != swan:
            return f"Swan {res['swan']} != {swan}"
        if swan and res["single_break"] != swan:
            return f"single_break {res['single_break']} != Swan {swan}"
        return None
    wild = res["wild_bound"]
    if wild["swan"] != swan or not wild["ok"]:
        return f"bound job: Swan {wild['swan']} (want {swan}), ok={wild['ok']}"
    consts = res["constants"]
    n_prime = exp["ell"] * exp["N"]
    m0 = p ** n_prime
    if consts["N_prime"] != n_prime or consts["M0"] != m0:
        return f"constants {consts['N_prime']}, M0 != ell*N = {n_prime}, p^(ell*N)"
    crude = math.factorial(m0) if m0 <= FACTORIAL_CAP else [m0, "factorial"]
    if consts["M_crude"] != crude:
        return "crude bound is not M0!"
    return None


def _check_semidirect(exp: dict, res: dict) -> str | None:
    u = exp["swan"]
    if exp["command"] == "swan":
        if _rational(res["swan"]) != u or res["single_break"] != u:
            return f"faithful rank-m Swan {res['swan']} / single break {res['single_break']} != u = {u}"
        return None
    wild, inertia = res["wild_bound"], res["inertia"]
    if wild["swan"] != u or not wild["ok"]:
        return f"bound job: Swan {wild['swan']} (want {u}), ok={wild['ok']}"
    if inertia["order"] != exp["order"] or inertia["P_order"] != exp["p"]:
        return f"inertia {inertia['order']}/{inertia['P_order']} != {exp['order']}/{exp['p']}"
    return None


def _check_verify(res: dict) -> str | None:
    if not res["ok"] or not all(inst["pass"] for inst in res["instances"]):
        return "a verification instance does not pass"
    for inst in res["instances"]:
        name = inst["name"]
        if name.startswith("gl") and "max_ell_order" in inst:
            r, ell, _ = _parse_gl_name(name)
            want = least_power_at_least(ell, r)
            if inst["max_ell_order"] != want:
                return f"{name}: max ell-element order {inst['max_ell_order']} != {want}"
    return None


def _parse_gl_name(name: str):
    """'gl2_f3^1' -> (2, 3, 1); 'gl3_f2' -> (3, 2, 1)."""
    head, field = name[2:].split("_f")
    ell, _, n = field.partition("^")
    return int(head), int(ell), int(n or 1)
