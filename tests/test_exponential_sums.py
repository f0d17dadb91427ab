"""The global Swan conductor against exponential sums.

For f in F_p[t, 1/t] and U = P^1 minus the poles of f, the Artin-Schreier
sheaf psi(f) on U has the L-function L(T) = exp(sum_k S_k T^k / k), with

    S_k = sum over x in U(F_{p^k}) of zeta_p^(Tr f(x)),

and L is a polynomial of degree D = -chi_c(U) + sum_x deg(x) Sw_x
(Grothendieck-Ogg-Shafarevich; chi_c(A^1) = 1, chi_c(G_m) = 0; for a
polynomial f this is Weil's degree m - 1: A. Weil, PNAS 34, 1948;
P. Deligne, "Sommes trigonometriques", SGA 4 1/2).  The local Swan
conductors Sw_0 and Sw_oo come from ramify's own ``swan`` jobs through
``cli.main``: the Artin-Schreier cover of f's principal part at 0, and of
its positive part with t -> 1/u at oo, each with a faithful character of
Z/p over F_ell.  The oracle sums S_k by brute force over F_{p^k}, built
with sympy's ``galoistools`` so that it shares no arithmetic with
``ramify.fields``, finds L's coefficients by Newton's identities over
Q(zeta_p), and requires the coefficient at D to be nonzero and the two
above it to vanish.
"""

import io
import itertools
import json
from fractions import Fraction

import pytest

from ramify import cli

galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ

# (p, {exponent: coefficient}).
CASES = {
    "t^3 over F_2": (2, {3: 1}),
    "t^5 + t^3 over F_2": (2, {5: 1, 3: 1}),
    "t^7 over F_2": (2, {7: 1}),
    "t^2 + t over F_3": (3, {2: 1, 1: 1}),
    "t^4 + 2t over F_3": (3, {4: 1, 1: 2}),
    "t^3 over F_5": (5, {3: 1}),
    "t^2 over F_7": (7, {2: 1}),
    "t + 1/t over F_2": (2, {1: 1, -1: 1}),
    "t + 1/t over F_3": (3, {1: 1, -1: 1}),
    "t^3 + t^-3 over F_2": (2, {3: 1, -3: 1}),
    "t^2 + t^-1 over F_3": (3, {2: 1, -1: 1}),
    "t^2 + 2t^-1 over F_5": (5, {2: 1, -1: 2}),
    # The pole order 3 = p at oo reduces to 1 (t^3 - t is an AS coboundary),
    # so Sw_oo = 1 and L = 1.
    "t^3 + t over F_3": (3, {3: 1, 1: 1}),
}


def _character(p: int) -> dict:
    """sigma -> a primitive p-th root of unity in the least prime field F_ell with p | ell - 1."""
    ell = next(q for q in range(p + 1, 10 * p, p) if all(q % d for d in range(2, q)))
    zeta = next(x for x in range(2, ell) if pow(x, p, ell) == 1)
    return {"ell": ell, "n": 1, "r": 1, "images": {"sigma": [[[zeta]]]}}


def _local_swan(p: int, principal: dict, capsys, monkeypatch) -> int:
    """Sw of psi at the pole whose principal part is {-order: coefficient}, by a ``swan`` job."""
    job = {
        "command": "swan",
        "base": {"p": p, "a": 1},
        "cover": {"type": "artin_schreier", "f": [[e, c] for e, c in sorted(principal.items())]},
        "rep": _character(p),
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    code = cli.main(["run"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, report
    swan = report["results"]["swan"]
    assert swan["den"] == 1
    return swan["num"]


def _irreducible(p: int, k: int) -> list:
    """The least monic irreducible of degree k over F_p, big-endian, by galoistools."""
    for tail in itertools.product(range(p), repeat=k):
        g = [1, *tail]
        if galoistools.gf_irreducible_p(g, p, ZZ):
            return g
    raise AssertionError("no irreducible")  # unreachable


def _trace_counts(p: int, k: int, f: dict) -> list:
    """counts[j] = #{x in U(F_{p^k}) : Tr f(x) = j}, with U = A^1 or G_m.

    The nonzero x are the powers gamma^i of a generator, so f(gamma^i) has
    trace sum_e c_e Tr(gamma^(i e mod q - 1)): one table of traces, no
    products per element."""
    g = _irreducible(p, k)
    q = p ** k

    def mul(x, y):
        return galoistools.gf_rem(galoistools.gf_mul(x, y, p, ZZ), g, p, ZZ)

    # Tr is F_p-linear: Tr(sum y_j X^j) = sum y_j Tr(X^j).
    basis = []
    for j in range(k):
        y, total = [1] + [0] * j, []
        for _ in range(k):
            total = galoistools.gf_add(total, y, p, ZZ)
            y = galoistools.gf_pow_mod(y, p, g, p, ZZ)
        assert len(total) <= 1
        basis.append(int(total[0]) if total else 0)
    for digits in itertools.product(range(p), repeat=k):
        gamma = galoistools.gf_strip(list(digits))
        if not gamma:
            continue
        powers = [[1]]
        while len(powers) < q and (nxt := mul(powers[-1], gamma)) != [1]:
            powers.append(nxt)
        if len(powers) == q - 1:
            break
    trace = [sum(c * t for c, t in zip(reversed(y), basis)) % p for y in powers]
    counts = [0] * p
    for i in range(q - 1):
        counts[sum(c * trace[i * e % (q - 1)] for e, c in f.items()) % p] += 1
    if min(f) >= 0:  # x = 0 lies in U = A^1
        counts[k * f.get(0, 0) % p] += 1
    return counts


# Q(zeta_p) as the group ring Q[Z/p] modulo the multiples of 1 + zeta + ... +
# zeta^(p-1): an element is zero there exactly when its p coordinates agree.


def _ring_mul(x: list, y: list) -> list:
    p = len(x)
    out = [Fraction(0)] * p
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[(i + j) % p] += a * b
    return out


def _is_zero(x: list) -> bool:
    return all(c == x[0] for c in x)


def _l_coefficients(sums: list) -> list:
    """c_0 .. c_n of exp(sum_k S_k T^k / k), from S_1 .. S_n, by Newton's identities."""
    p = len(sums[0])
    coeffs = [[Fraction(1)] + [Fraction(0)] * (p - 1)]
    for n in range(1, len(sums) + 1):
        acc = [Fraction(0)] * p
        for k in range(1, n + 1):
            acc = [a + b for a, b in zip(acc, _ring_mul(sums[k - 1], coeffs[n - k]))]
        coeffs.append([a / n for a in acc])
    return coeffs


@pytest.mark.parametrize("p,f", CASES.values(), ids=CASES)
def test_l_function_degree_is_the_global_swan_conductor(p, f, capsys, monkeypatch):
    positive = {-e: c for e, c in f.items() if e > 0}  # t -> 1/u at oo
    principal = {e: c for e, c in f.items() if e < 0}
    degree = _local_swan(p, positive, capsys, monkeypatch)
    if principal:
        degree += _local_swan(p, principal, capsys, monkeypatch)  # U = G_m
    else:
        degree -= 1  # U = A^1
    sums = [[Fraction(n) for n in _trace_counts(p, k, f)] for k in range(1, degree + 3)]
    coeffs = _l_coefficients(sums)
    assert not _is_zero(coeffs[degree])
    assert _is_zero(coeffs[degree + 1]) and _is_zero(coeffs[degree + 2])
