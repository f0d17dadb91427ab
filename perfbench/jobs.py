"""Deterministic job generators for the three benchmark workloads.

A workload is an endless sequence of *rounds*.  A round is a fixed list of
job slots (which command, which cover or group size); the workload seed and
the round index pick only the values inside each slot: coefficients,
characters, breaks, N, ell.  Every round of every seed therefore costs about
the same, and every job carries the closed-form facts the checker verifies
for any seed.

The program under test sees only the generated job: the JSON on stdin and
the command-line arguments after ``python -m ramify``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("series-covers", "group-oracles", "verify-corpus")

# Ranks >= 2 need a user-supplied Jordan bound.  J(r) = r is the index of the
# abelian normal subgroup Z/p in the rank-r monomial groups used here.
JORDAN_TABLE = {str(r): r for r in range(2, 13)}
JORDAN_TABLE_PATH = ".bench_build/jordan_table.json"

# Natural range of coefficient characteristics for characters.
ELL_LIMIT = 128

VERIFY_SUITES = (
    "lemma_pullback",
    "hasse_arf",
    "transitivity",
    "claim1",
    "claim2",
    "counts",
    "all",
)
# Suites whose report does not depend on --seed.
SEED_FREE_SUITES = frozenset(VERIFY_SUITES) - {"counts", "all"}


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    stdin: str = ""
    expect: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def ref_key(self) -> str:
        """Key into the reference digests.

        Seed-free verify suites share one key across seeds; every other job
        is keyed by its exact argv and stdin.
        """
        if self.argv[0] == "verify" and self.argv[1] in SEED_FREE_SUITES:
            return f"verify:{self.argv[1]}"
        blob = json.dumps([list(self.argv), self.stdin], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Small number theory, kept local so the generator never imports ramify.


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_with_roots(order: int, exclude: int) -> list[int]:
    """Primes ell < ELL_LIMIT, ell != exclude, with order | ell - 1."""
    return [
        ell
        for ell in range(3, ELL_LIMIT)
        if is_prime(ell) and ell != exclude and (ell - 1) % order == 0
    ]


def root_of_unity(ell: int, order: int) -> int:
    """Least-generator power: a primitive order-th root of unity mod ell."""
    for g in range(2, ell):
        if all(pow(g, (ell - 1) // q, ell) != 1 for q in _prime_factors(ell - 1)):
            return pow(g, (ell - 1) // order, ell)
    raise ValueError(f"no generator mod {ell}")


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _run_job(job_id: str, payload: dict, extra=(), expect=None) -> Job:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return Job(job_id, ("run", *extra), text, expect or {})


# ---------------------------------------------------------------------------
# series-covers: Artin-Schreier covers on the (p, m, prec) grid, plus towers.

# (label, p, m, prec, copies per round).  Cheap grid points run more often,
# as the small jobs users run most would.  The copies put the median and the
# tail rank of a two-round run inside groups of like jobs (9 cheap jobs of
# about 0.3 s per round; the tail rank falls among the p=7 towers), not in a
# gap between two groups, where machine noise would move them most.
SERIES_GRID = (
    ("as_p2_m1_prec64", 2, 1, 64, 3),
    ("as_p2_m1_prec128", 2, 1, 128, 1),
    ("as_p2_m1_prec256", 2, 1, 256, 1),
    ("as_p3_m1_prec64", 3, 1, 64, 2),
    ("as_p5_m1_prec64", 5, 1, 64, 1),
    ("as_p11_m1_prec64", 11, 1, 64, 1),
    ("as_p2_m3_prec64", 2, 3, 64, 3),
)
# (label, p, a, tame degree, copies per round); the wild datum has pole 1.
TOWER_GRID = (
    ("tower_z6", 2, 2, 3, 3),
    ("tower_p7_m3", 7, 1, 3, 2),
)
SERIES_COMMANDS = ("swan", "herbrand", "filtration", "bound")


def _character(rng, p: int, tame: int = 1):
    """Rank-1 character sigma -> zeta_p^j (and tau -> zeta_tame^k)."""
    ell = rng.choice(primes_with_roots(p * tame, p))
    j = rng.randrange(p)
    images = {"sigma": [[[pow(root_of_unity(ell, p), j, ell)]]]}
    if tame > 1:
        k = rng.randrange(tame)
        images["tau"] = [[[pow(root_of_unity(ell, tame), k, ell)]]]
    return {"ell": ell, "n": 1, "r": 1, "images": images}, j != 0


def _series_job(job_id, rng, base, cover, prec, swan_if_wild, expect):
    command = rng.choice(SERIES_COMMANDS)
    payload = {
        "command": command,
        "base": base,
        "cover": cover,
        "params": {"precision": prec},
    }
    expect = dict(expect, command=command)
    if command in ("swan", "bound"):
        tame = expect.get("tame", 1)
        rep, wild = _character(rng, base["p"], tame)
        payload["rep"] = rep
        swan = swan_if_wild if wild else 0
        expect["swan"] = swan
        if command == "bound":
            big_n = rng.randint(swan, swan + 3)
            payload["params"]["N"] = big_n
            expect.update(ell=rep["ell"], N=big_n)
    return _run_job(job_id, payload, expect=expect)


def series_round(seed: int, round_index: int) -> list[Job]:
    rng = _rng("series-covers", seed, round_index)
    jobs = []
    for label, p, m, prec, copies in SERIES_GRID:
        for c in range(copies):
            lead = rng.randrange(1, p)
            f = [[-m, [lead]]]
            for e in range(-m + 1, 0):  # extra lower-order pole terms
                coef = rng.randrange(p)
                if coef:
                    f.append([e, [coef]])
            jobs.append(
                _series_job(
                    f"r{round_index}.{label}.{c}",
                    rng,
                    {"p": p, "a": 1},
                    {"type": "artin_schreier", "f": f},
                    prec,
                    m,
                    {"kind": "artin_schreier", "p": p, "m": m},
                )
            )
    for label, p, a, tame, copies in TOWER_GRID:
        for c in range(copies):
            q = p ** a
            key = rng.randrange(1, q)
            lead = [(key // p ** i) % p for i in range(a)]
            jobs.append(
                _series_job(
                    f"r{round_index}.{label}.{c}",
                    rng,
                    {"p": p, "a": a},
                    {"type": "tower", "m": tame, "f": [[-1, lead]]},
                    64,
                    1,
                    {"kind": "tower", "p": p, "m": tame, "tame": tame},
                )
            )
    return jobs


# ---------------------------------------------------------------------------
# group-oracles: matrix-group enumeration and break_table semidirect products.

# inertia_candidate_sample slots: (ell, candidate p values, count, sampler seed).
# Sampling paths are heavy-tailed: on GL2(F5) a sampler seed costs 0.01 s to
# 19 s.  So each slot keeps one sampler seed in every round and for every
# workload seed.  Seed 11 on GL2(F5) closes the whole group once, one
# 480-element Cayley table; seed 0 on GL2(F7) hits the size cap once and
# builds a 144-element table.  GL2(F7) runs twice per round so that the tail
# rank of a three-round run falls among these like jobs, not in a gap
# between two groups of jobs, where machine noise would move it most.
SAMPLE_SLOTS = (
    (3, (2,), 2, 0),
    (5, (2, 3), 1, 11),
    (7, (2, 3), 1, 0),
    (7, (2, 3), 1, 0),
)
# Exhaustive max_ell_element_order cases (r, ell, n), chosen from per round.
MAX_ORDER_CASES = (
    (1, 2, 1), (1, 3, 1), (1, 5, 1), (2, 2, 1), (2, 3, 1),
    (2, 2, 2), (3, 2, 1), (2, 5, 1),
)
MAX_ORDER_SLOTS = 4
# abelian_p_bound_probe slots: (r, s, p, n).  The seed picks ell among the
# primes for which F_{ell^n} is the least field holding the p^s-th roots of
# unity, within the probe's field-size cap.
PROBE_SLOTS = ((1, 1, 3, 2), (2, 1, 7, 3), (3, 1, 5, 1))
PROBE_FIELD_CAP = 1 << 16  # default field_cap of abelian_p_bound_probe
# Semidirect products Z/p x| Z/m (m | p - 1), order 6 to 55: (p, m, command).
SEMIDIRECT_SLOTS = (
    (3, 2, "swan"),
    (5, 2, "bound"),
    (5, 4, "swan"),
    (7, 3, "bound"),
    (7, 6, "swan"),
    (11, 5, "swan"),
    (13, 4, "bound"),
)


def least_power_at_least(ell: int, r: int) -> int:
    x = 1
    while x < r:
        x *= ell
    return x


def semidirect_table(p: int, m: int, a: int):
    """Labels and multiplication table of Z/p x| Z/m.

    Element index y*p + x stands for sigma^x tau^y, with
    tau sigma tau^-1 = sigma^a, so (x1, y1)(x2, y2) = (x1 + a^y1 x2, y1 + y2).
    """
    def label(x, y):
        if x == 0 and y == 0:
            return "1"
        parts = []
        if x:
            parts.append("sigma" if x == 1 else f"sigma^{x}")
        if y:
            parts.append("tau" if y == 1 else f"tau^{y}")
        return "*".join(parts)

    n = p * m
    labels = [label(i % p, i // p) for i in range(n)]
    table = []
    for i in range(n):
        x1, y1 = i % p, i // p
        row = []
        for j in range(n):
            x2, y2 = j % p, j // p
            x = (x1 + pow(a, y1, p) * x2) % p
            y = (y1 + y2) % m
            row.append(y * p + x)
        table.append(row)
    return labels, table


def monomial_rep(p: int, m: int, a: int, ell: int, zeta_power: int):
    """Faithful rank-m rep: sigma -> diag(z^(a^-j)), tau -> cyclic shift."""
    zeta = pow(root_of_unity(ell, p), zeta_power, ell)
    a_inv = pow(a, -1, p)
    sigma = [
        [[pow(zeta, pow(a_inv, i, p), ell) if i == j else 0] for j in range(m)]
        for i in range(m)
    ]
    tau = [[[1 if i == (j + 1) % m else 0] for j in range(m)] for i in range(m)]
    return {"ell": ell, "n": 1, "r": m, "images": {"sigma": sigma, "tau": tau}}


def _order_mod(a: int, p: int) -> int:
    k, x = 1, a % p
    while x != 1:
        x = (x * a) % p
        k += 1
    return k


def group_round(seed: int, round_index: int) -> list[Job]:
    rng = _rng("group-oracles", seed, round_index)
    jobs = []
    for idx, (ell, ps, count, sampler_seed) in enumerate(SAMPLE_SLOTS):
        p = rng.choice(ps)
        params = {
            "op": "inertia_candidate_sample",
            "r": 2, "ell": ell, "n": 1, "p": p, "count": count,
            "seed": sampler_seed,
        }
        gl_order = (ell ** 2 - 1) * (ell ** 2 - ell)
        jobs.append(
            _run_job(
                f"r{round_index}.sample_{idx}_gl2_f{ell}",
                {"command": "enum", "params": params},
                expect={"kind": "sample", "count": count, "gl_order": gl_order},
            )
        )
    for idx, (r, ell, n) in enumerate(rng.sample(MAX_ORDER_CASES, MAX_ORDER_SLOTS)):
        params = {"op": "max_ell_element_order", "r": r, "ell": ell, "n": n}
        jobs.append(
            _run_job(
                f"r{round_index}.max_order_{idx}",
                {"command": "enum", "params": params},
                expect={"kind": "max_order", "max_order": least_power_at_least(ell, r)},
            )
        )
    for idx, (r, s, p, n) in enumerate(PROBE_SLOTS):
        ell = rng.choice([q for q in range(2, ELL_LIMIT) if is_prime(q) and q != p
                          and _order_mod(q, p ** s) == n and q ** n <= PROBE_FIELD_CAP])
        params = {"op": "abelian_p_bound_probe", "r": r, "ell": ell, "p": p, "s": s}
        jobs.append(
            _run_job(
                f"r{round_index}.probe_{idx}",
                {"command": "enum", "params": params},
                expect={"kind": "probe", "max_order": p ** (r * s)},
            )
        )
    for p, m, command in SEMIDIRECT_SLOTS:
        a = rng.choice([x for x in range(2, p) if _order_mod(x, p) == m])
        u = rng.choice([x for x in range(1, 2 * p + 1) if x % p])
        ell = rng.choice(primes_with_roots(p, p))
        labels, table = semidirect_table(p, m, a)
        i_g = {
            labels[i]: (u + 1 if i < p else 1) for i in range(1, p * m)
        }
        payload = {
            "command": command,
            "base": {"p": p, "a": 1},
            "break_table": {"labels": labels, "mul_table": table, "iG": i_g},
            "rep": monomial_rep(p, m, a, ell, rng.randrange(1, p)),
        }
        expect = {"kind": "semidirect", "command": command, "swan": u, "order": p * m, "p": p}
        if command == "bound":
            payload["params"] = {"N": rng.randint(u, u + 3)}
        jobs.append(
            _run_job(
                f"r{round_index}.semidirect_{p}_{m}.{command}",
                payload,
                extra=("--jordan-table", JORDAN_TABLE_PATH),
                expect=expect,
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# verify-corpus: every verification suite over the built-in corpus.


def verify_round(seed: int, round_index: int) -> list[Job]:
    return [
        Job(
            f"r{round_index}.verify_{suite}",
            ("verify", suite, "--seed", str(seed)),
            "",
            {"kind": "verify", "suite": suite},
        )
        for suite in VERIFY_SUITES
    ]


ROUNDS = {
    "series-covers": series_round,
    "group-oracles": group_round,
    "verify-corpus": verify_round,
}


def make_round(workload: str, seed: int, round_index: int) -> list[Job]:
    return ROUNDS[workload](seed, round_index)
