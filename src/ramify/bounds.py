"""Structure of finite inertia-shaped matrix groups and explicit bounds.

An inertia-shaped group has a normal p-Sylow subgroup with cyclic
prime-to-p quotient.  From that shape the pipeline extracts the subgroup
over which the action becomes tame, together with fully explicit numeric
bounds on the wild part, and checks the bounds against exact group data.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Sequence

from .errors import (
    InconsistentCounts,
    NoBoundConfigured,
    NoSuchQuotient,
    NotAGroup,
    NotPrime,
    OverflowPolicyExceeded,
    PreconditionFailed,
)
from .fields import is_prime, split_prime_power
from .groups import FiniteGroup, inertia_shape, nilpotency_exponent_ok
from .linalg import MatrixFF
from .ramification import RamFiltration, Representation, swan_conductor

FACTORIAL_CAP = 5000

DEFAULT_JORDAN_TABLE = {1: 1}


# ---------------------------------------------------------------------------
# Inertia shape.


class InertiaStructure(namedtuple("InertiaStructure", "group p ell r P_indices M n M_prime")):
    __slots__ = ()

    @property
    def P_order(self) -> int:
        return len(self.P_indices)


def inertia_structure(elements: Sequence[MatrixFF], p: int) -> InertiaStructure:
    """Identify the normal p-Sylow and the cyclic prime-to-p quotient.

    The input must be closed under multiplication; the expected shape is
    guaranteed for images of local Galois groups but not for arbitrary
    matrix groups, so every property that can fail is verified, loudly.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if not elements:
        raise NotAGroup("empty element list")
    ell = elements[0].field.p
    if ell == p:
        raise PreconditionFailed("matrix characteristic must differ from p")
    group = FiniteGroup.from_matrices(elements)
    subset, M = inertia_shape(group, p)
    n, M_prime = split_prime_power(M, ell)
    return InertiaStructure(
        group=group,
        p=p,
        ell=ell,
        r=elements[0].n,
        P_indices=subset,
        M=M,
        n=n,
        M_prime=M_prime,
    )


def claim1_check(structure: InertiaStructure) -> bool:
    """ell^{n-1} <= r, re-derived from nilpotency degrees of ell-elements."""
    r = structure.r
    if structure.n > 0 and structure.ell ** (structure.n - 1) > r:
        return False
    group = structure.group
    return all(
        nilpotency_exponent_ok(group.matrices[i], group.order_of(i), structure.ell, r)
        for i in group.p_elements(structure.ell)
    )


TameizingReport = namedtuple("TameizingReport", "H_indices H_order index_tame alpha_image_order")


def tameizing_subgroup(structure: InertiaStructure) -> TameizingReport:
    """H, the kernel of the conjugation action of the tame quotient on P.

    H is read off its definition: the elements of order prime to p that
    commute with every element of P.  Let C = C_G(P), normal in G as P is.
    Its p-elements lie in the normal p-Sylow P, so C meet P = Z(P) is C's
    normal p-Sylow, and it is central in C.  By Schur-Zassenhaus C =
    Z(P) x K for a complement K, and (x, k) has order prime to p iff x = 1:
    so H = K, a subgroup, characteristic in C and so normal in G, of order
    |C| / |Z(P)|, prime to p.  H equals <g> meet C for every complement <g>
    of P (an element g of order M): <g> meet C is a subgroup of C of order
    prime to p, so lies in H; and H, normal of order prime to p, lies in a
    conjugate of <g> (it is a complement of P in PH, conjugate there to PH
    meet <g> by Schur-Zassenhaus), so in <g> itself.  |H| divides M, and
    [G:H] = |P| * (M / |H|) is the degree over which the action becomes
    tame.
    """
    group, p, mul = structure.group, structure.p, structure.group.mul
    h = tuple(
        c
        for c in range(group.n)
        if group.order_of(c) % p and all(mul[c][s] == mul[s][c] for s in structure.P_indices)
    )
    return TameizingReport(
        H_indices=h,
        H_order=len(h),
        index_tame=group.n // len(h),
        alpha_image_order=structure.M // len(h),
    )


# ---------------------------------------------------------------------------
# Explicit constants.


def jordan_bound(r: int, table: dict[int, int] | None = None) -> int:
    """Configured bound on the index of an abelian normal subgroup.

    Only r = 1 ships by default (subgroups of 1 x 1 matrices are abelian);
    other ranks need a user-supplied table entry.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    merged = dict(DEFAULT_JORDAN_TABLE)
    if table:
        merged.update(table)
    if r not in merged:
        raise NoBoundConfigured(f"no bound configured for rank {r}")
    value = merged[r]
    if not isinstance(value, int) or value < 1:
        raise NoBoundConfigured(f"invalid bound {value!r} for rank {r}")
    return value


class ExplicitConstants(namedtuple("ExplicitConstants", "N_prime M0 M_crude")):
    """``M_crude`` is M0!, or None when it stays symbolic."""

    __slots__ = ()

    def crude_at_least(self, value: int) -> bool:
        """Whether the crude bound M0! is >= value, exactly, symbolic or not.

        The running product 1 * 2 * ... * k stops as soon as it reaches
        ``value`` (so after about log2(value) steps) or when k = M0, where it
        equals M0!.
        """
        product = 1
        for k in range(2, self.M0 + 1):
            if product >= value:
                break
            product *= k
        return product >= value


def check_digit_limit(name: str, exceeds) -> None:
    """Refuse ``name`` if ``exceeds(limit)`` for the interpreter's int -> str
    digit limit (0: none), past which no report could hold it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and exceeds(limit):
        raise OverflowPolicyExceeded(f"{name} has more than {limit} decimal digits")


def explicit_constants(
    r: int,
    p: int,
    ell: int,
    N: int,
    J: int,
) -> ExplicitConstants:
    """N' = ell*r*J*N, M0 = r*p^{N'}*J, crude bound M0 factorial.

    As M0 >= 2^(N' (bits(p) - 1)), an M0 longer than the digit limit is
    refused from that bit count, before any p^{N'} is formed.  The
    factorial is computed exactly up to M0 <= FACTORIAL_CAP and returned
    symbolically beyond.
    """
    if min(r, p, ell, J) < 1 or N < 0:
        raise ValueError("inputs must be positive (N may be zero)")
    if ell == p:
        raise PreconditionFailed("ell must differ from p")
    n_prime = ell * r * J * N
    bits = n_prime * (p.bit_length() - 1)  # M0 >= 2^bits
    check_digit_limit("constants.M0", lambda limit: bits >= (10 ** limit).bit_length())
    m0 = r * p ** n_prime * J
    if m0 <= FACTORIAL_CAP:
        return ExplicitConstants(n_prime, m0, math.factorial(m0))
    return ExplicitConstants(n_prime, m0, None)


# ---------------------------------------------------------------------------
# Wild-order bound check.


class WildOrderReport(namedtuple("WildOrderReport", "swan N_prime_exact jumps_visible P_order torus_bound"
                                 " torus_bound_holds linear_bound_holds ok constants warnings", defaults=((),))):
    """``constants`` is the ``explicit_constants`` record, whose N' and
    M0 = r p^{N'} J (the linear bound) the checks use."""

    __slots__ = ()


def _abelian_normal_part(group: FiniteGroup) -> frozenset:
    if group.is_abelian():
        return frozenset(range(group.n))
    best = frozenset({group.identity})
    for sub in group.all_subgroups():
        if len(sub) > len(best) and group.is_normal(sub) and group.is_abelian(sub):
            best = sub
    return best


def wild_order_bound_check(
    structure: InertiaStructure,
    filt: RamFiltration,
    rep: Representation,
    N: int,
    *,
    jordan_table: dict[int, int] | None = None,
) -> WildOrderReport:
    """Exact verification of the wild-part order bounds for one datum.

    Checks, in order: Sw <= N; the number of representation-visible
    positive jumps is at most Sw; every element of the p-part of the
    abelian part has order dividing p^{N'}; and |P| <= p^{r N'} J.  The
    linear variant M0 = r p^{N'} J is recorded but not asserted.  It refuses
    Sw > N, then a rank with no Jordan bound J, then (in
    ``explicit_constants``) an M0 over the digit limit.
    """
    sw, _, per_jump = swan_conductor(rep, filt)
    if sw > N:
        raise PreconditionFailed(f"Swan conductor {sw} exceeds N = {N}")
    J = jordan_bound(rep.r, jordan_table)
    constants = explicit_constants(rep.r, structure.p, structure.ell, N, J)
    n_prime = constants.N_prime
    n_prime_exact = structure.ell ** structure.n * J * N

    visible = len(per_jump)  # the jumps where the fixed space grows

    # o divides p^{N'} iff p^{N'} mod o == 0; for N' = 0 that holds iff o == 1.
    p_ok = all(
        pow(structure.p, n_prime, structure.group.order_of(i)) == 0
        for i in structure.P_indices & _abelian_normal_part(structure.group)
    )
    p_order = structure.P_order
    torus_bound = structure.p ** (rep.r * n_prime) * J
    ok = visible <= sw and p_ok and p_order <= torus_bound  # sw <= N: refused above
    warnings = (
        "N_prime uses the linear form ell*r*J*N; the exponential variant "
        "ell^r*J*N is intentionally not used",
    )
    return WildOrderReport(
        swan=sw,
        N_prime_exact=n_prime_exact,
        jumps_visible=visible,
        P_order=p_order,
        torus_bound=torus_bound,
        torus_bound_holds=p_order <= torus_bound,
        linear_bound_holds=p_order <= constants.M0,
        ok=ok,
        constants=constants,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Decomposition counts.


DecompositionData = namedtuple("DecompositionData", "order_I t e f_sep f_insep p")
CountsReport = namedtuple("CountsReport", "order_IC tame")


def decomposition_counts(data: DecompositionData) -> CountsReport:
    """|stabilizer| = e * f_insep = |I| / (t * f_sep), and the tameness flag."""
    if min(data.order_I, data.t, data.e, data.f_sep, data.f_insep) < 1:
        raise InconsistentCounts("all counts must be positive")
    if split_prime_power(data.f_insep, data.p)[1] != 1:
        raise InconsistentCounts(
            f"inseparable degree {data.f_insep} is not a power of {data.p}"
        )
    if data.order_I != data.t * data.e * data.f_sep * data.f_insep:
        raise InconsistentCounts(
            f"|I| = {data.order_I} != t*e*f_sep*f_insep = "
            f"{data.t * data.e * data.f_sep * data.f_insep}"
        )
    order_ic = data.e * data.f_insep  # = |I| / (t * f_sep), by the test above
    tame = data.f_insep == 1 and math.gcd(data.e, data.p) == 1
    return CountsReport(order_IC=order_ic, tame=tame)


StarKernelReport = namedtuple("StarKernelReport", "passes kernel_order kernel_p_sylow_order")


def star_kernel_check(
    group: FiniteGroup,
    stabilizer: Sequence[int],
    f_sep: int,
    e: int,
    f_insep: int,
    p: int,
) -> StarKernelReport:
    """Kernel of stabilizer -> residue automorphisms has order e * f_insep.

    The kernel K is the first subgroup of the group lying in the stabilizer
    S, in (order, indices) order, that is normal in S with S/K cyclic
    of order f_sep, so |K| = |S| / f_sep = e * f_insep by the order test.
    S/K is cyclic iff some gK has order f_sep, and gK has order
    |<g>| / |<g> meet K|, the least k with g^k in K.  K's p-part must be a
    unique p-Sylow, whose order is reported: for p prime (else NotPrime)
    that holds iff K has |K|_p elements of p-power order, as a Sylow
    p-subgroup has |K|_p of them, so it is then all of them.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    stab = frozenset(stabilizer)
    if not group.is_subgroup(stab):
        raise NoSuchQuotient("stabilizer is not a subgroup")
    if len(stab) != e * f_sep * f_insep:
        raise NoSuchQuotient(
            f"stabilizer order {len(stab)} != e*f_sep*f_insep = {e * f_sep * f_insep}"
        )
    for kernel in group.all_subgroups():
        if (
            len(kernel) * f_sep == len(stab)
            and kernel <= stab
            and all(group.conjugate(t, k) in kernel for t in stab for k in kernel)
            and any(group.order_of(g) == f_sep * len(group.closure([g]) & kernel) for g in stab)
        ):
            p_part = len(kernel) // split_prime_power(len(kernel), p)[1]
            p_elements = sum(split_prime_power(group.order_of(k), p)[1] == 1 for k in kernel)
            return StarKernelReport(p_elements == p_part, len(kernel), p_part)
    raise NoSuchQuotient(f"no normal subgroup of index {f_sep} with cyclic quotient")
