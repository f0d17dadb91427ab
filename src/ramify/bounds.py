"""Structure of finite inertia-shaped matrix groups and explicit bounds.

An inertia-shaped group has a normal p-Sylow subgroup with cyclic
prime-to-p quotient.  From that shape the pipeline extracts the subgroup
over which the action becomes tame, together with fully explicit numeric
bounds on the wild part, and checks the bounds against exact group data.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    ComplementNotFound,
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


class InertiaStructure(NamedTuple):
    group: FiniteGroup
    p: int
    ell: int
    r: int
    P_indices: frozenset
    M: int
    n: int
    M_prime: int

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
    subset, quot = inertia_shape(group, p)
    M = quot.n
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
    for i in range(group.n):
        o = group.order_of(i)
        if split_prime_power(o, structure.ell)[1] != 1:
            continue
        if not nilpotency_exponent_ok(group.matrices[i], o, structure.ell, r):
            return False
    return True


class TameizingReport(NamedTuple):
    H_indices: tuple[int, ...]
    H_order: int
    index_tame: int
    alpha_image_order: int


def tameizing_subgroup(structure: InertiaStructure) -> TameizingReport:
    """Kernel of the conjugation action of the tame quotient on the p-Sylow.

    A cyclic complement <gen> of order M is found by exhaustive search (it
    always exists for this shape).  Its centralizing part H, <gen> meet the
    centralizer of P, is a subgroup, so |H| divides |I|, and is verified
    normal; [I:H] is the degree over which the action becomes tame.
    """
    group = structure.group
    M = structure.M
    gen = None
    for i in range(group.n):
        if group.order_of(i) == M:
            gen = i
            break
    if gen is None:
        raise ComplementNotFound(f"no element of order {M}; shape verification bug")
    complement = []
    x = group.identity
    for _ in range(M):
        complement.append(x)
        x = group.product(x, gen)
    h = [
        c
        for c in complement
        if all(group.product(c, s) == group.product(s, c) for s in structure.P_indices)
    ]
    if not group.is_normal(frozenset(h)):
        raise ComplementNotFound("tameizing subgroup is not normal")
    if math.gcd(len(h), structure.p) != 1:
        raise ComplementNotFound("tameizing subgroup order shares a factor with p")
    index = group.n // len(h)
    if index != structure.P_order * (M // len(h)):
        raise ComplementNotFound("order bookkeeping failed")
    return TameizingReport(
        H_indices=tuple(sorted(h)),
        H_order=len(h),
        index_tame=index,
        alpha_image_order=M // len(h),
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


class ExplicitConstants(NamedTuple):
    N_prime: int
    M0: int
    M_crude: int | None  # M0!, or None when it stays symbolic

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


class WildOrderReport(NamedTuple):
    """``constants`` is the ``explicit_constants`` record, whose N' and
    M0 = r p^{N'} J (the linear bound) the checks use."""

    swan: Fraction
    N_prime_exact: int
    jumps_visible: int
    P_order: int
    torus_bound: int
    torus_bound_holds: bool
    linear_bound_holds: bool
    ok: bool
    constants: ExplicitConstants
    warnings: tuple[str, ...] = ()


def _abelian_normal_part(group: FiniteGroup) -> frozenset:
    if group.is_abelian():
        return frozenset(range(group.n))
    best, mul = frozenset({group.identity}), group.mul
    for sub in group.all_subgroups():
        if len(sub) > len(best) and group.is_normal(sub) and all(
            mul[a][b] == mul[b][a] for a in sub for b in sub
        ):
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


class DecompositionData(NamedTuple):
    order_I: int
    t: int
    e: int
    f_sep: int
    f_insep: int
    p: int


class CountsReport(NamedTuple):
    order_IC: int
    tame: bool


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


class StarKernelReport(NamedTuple):
    passes: bool
    kernel_order: int
    kernel_p_sylow_order: int


def star_kernel_check(
    group: FiniteGroup,
    stabilizer: Sequence[int],
    f_sep: int,
    e: int,
    f_insep: int,
    p: int,
) -> StarKernelReport:
    """Kernel of stabilizer -> residue automorphisms has order e * f_insep.

    The kernel is a normal subgroup of the stabilizer with cyclic quotient
    of order f_sep, searched for among its subgroups.  Its p-part must form
    a unique p-Sylow, whose order is reported.
    """
    stab = frozenset(stabilizer)
    if not group.is_subgroup(stab):
        raise NoSuchQuotient("stabilizer is not a subgroup")
    if len(stab) != e * f_sep * f_insep:
        raise NoSuchQuotient(
            f"stabilizer order {len(stab)} != e*f_sep*f_insep = {e * f_sep * f_insep}"
        )
    s_grp, _ = group.subgroup(stab)
    for k_local in s_grp.all_subgroups():
        if len(k_local) * f_sep != s_grp.n or not (
            s_grp.is_normal(k_local) and s_grp.quotient(k_local)[0].is_cyclic()
        ):
            continue
        kernel_p = k_local & frozenset(s_grp.p_elements(p))
        p_part = len(k_local) // split_prime_power(len(k_local), p)[1]
        unique_sylow = len(kernel_p) == p_part and s_grp.is_subgroup(kernel_p)
        return StarKernelReport(
            passes=(len(k_local) == e * f_insep) and unique_sylow,
            kernel_order=len(k_local),
            kernel_p_sylow_order=p_part,
        )
    raise NoSuchQuotient(
        f"no normal subgroup of index {f_sep} with cyclic quotient"
    )
