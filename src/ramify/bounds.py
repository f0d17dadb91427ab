"""Structure of finite inertia-shaped matrix groups and explicit bounds.

An inertia-shaped group has a normal p-Sylow subgroup with cyclic
prime-to-p quotient.  From that shape the pipeline extracts the subgroup
over which the action becomes tame, together with fully explicit numeric
bounds on the wild part, and checks the bounds against exact group data.
"""

from __future__ import annotations

import math
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
    matrix groups, so every property is verified and failures are loud.
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


def claim1_check(structure: InertiaStructure, r: int | None = None) -> bool:
    """ell^{n-1} <= r, re-derived from nilpotency degrees of ell-elements."""
    if r is None:
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
    complement_indices: tuple[int, ...]
    H_order: int
    index_tame: int
    alpha_image_order: int


def tameizing_subgroup(structure: InertiaStructure) -> TameizingReport:
    """Kernel of the conjugation action of the tame quotient on the p-Sylow.

    A cyclic complement of order M is found by exhaustive search (it always
    exists for this shape); H is its centralizing part, verified normal,
    with [I:H] the degree over which the action becomes tame.
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
    h_set = frozenset(h)
    if not group.is_subgroup(h_set):
        raise ComplementNotFound("centralizing part of the complement is not a subgroup")
    if not group.is_normal(h_set):
        raise ComplementNotFound("tameizing subgroup is not normal")
    if math.gcd(len(h), structure.p) != 1:
        raise ComplementNotFound("tameizing subgroup order shares a factor with p")
    index = group.n // len(h)
    if index * len(h) != group.n or index != structure.P_order * (M // len(h)):
        raise ComplementNotFound("order bookkeeping failed")
    return TameizingReport(
        H_indices=tuple(sorted(h)),
        complement_indices=tuple(sorted(complement)),
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
    M_crude: int | None
    M_crude_descriptor: tuple[int, str] | None

    def crude_at_least(self, value: int) -> bool:
        """Whether the crude bound M0! is >= value, exactly.

        In symbolic form the running product 1 * 2 * ... * k stops as soon
        as it reaches ``value`` (so after about log2(value) steps) or when
        k = M0, where it equals M0!.
        """
        if self.M_crude is not None:
            return self.M_crude >= value
        product = 1
        for k in range(2, self.M0 + 1):
            if product >= value:
                break
            product *= k
        return product >= value


def explicit_constants(
    r: int,
    p: int,
    ell: int,
    N: int,
    J: int,
    *,
    factorial_cap: int = FACTORIAL_CAP,
    exact_factorial: bool = False,
) -> ExplicitConstants:
    """N' = ell*r*J*N, M0 = r*p^{N'}*J, crude bound M0 factorial.

    The factorial is computed exactly up to M0 <= factorial_cap and
    returned symbolically beyond; requesting exactness above the cap
    raises OverflowPolicyExceeded.
    """
    if min(r, p, ell, J) < 1 or N < 0:
        raise ValueError("inputs must be positive (N may be zero)")
    if ell == p:
        raise PreconditionFailed("ell must differ from p")
    n_prime = ell * r * J * N
    m0 = r * p ** n_prime * J
    if m0 <= factorial_cap:
        return ExplicitConstants(n_prime, m0, math.factorial(m0), None)
    if exact_factorial:
        raise OverflowPolicyExceeded(
            f"M0 = {m0} exceeds the exact-factorial cap {factorial_cap}"
        )
    return ExplicitConstants(n_prime, m0, None, (m0, "factorial"))


# ---------------------------------------------------------------------------
# Wild-order bound check.


class WildOrderReport(NamedTuple):
    swan: Fraction
    N: int
    N_prime: int
    N_prime_exact: int
    jumps_total: int
    jumps_visible: int
    max_p_element_order: int
    p_exponent_ok: bool
    P_order: int
    torus_bound: int
    torus_bound_holds: bool
    linear_bound: int
    linear_bound_holds: bool
    abelian_part_order: int
    ok: bool
    warnings: tuple[str, ...] = ()


def _abelian_normal_part(group: FiniteGroup) -> frozenset:
    if group.is_abelian():
        return frozenset(range(group.n))
    best = frozenset({group.identity})
    for sub in group.all_subgroups():
        mat_sub, _ = group.subgroup(sub)
        if mat_sub.is_abelian() and group.is_normal(sub) and len(sub) > len(best):
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
    linear variant r p^{N'} J is recorded but not asserted.
    """
    sw = swan_conductor(rep, filt).swan
    if sw > N:
        raise PreconditionFailed(f"Swan conductor {sw} exceeds N = {N}")
    J = jordan_bound(rep.r, jordan_table)
    n_prime = structure.ell * rep.r * J * N
    n_prime_exact = structure.ell ** structure.n * J * N

    jumps_total = len(filt.positive_jumps())
    visible = 0
    for u in filt.positive_jumps():
        inc = rep.fixed_dim(filt.subgroup_at(u + 1)) - rep.fixed_dim(
            filt.subgroup_at(u)
        )
        if inc > 0:
            visible += 1

    abelian_part = _abelian_normal_part(structure.group)
    max_order = 1
    p_ok = True
    for i in structure.P_indices & abelian_part:
        o = structure.group.order_of(i)
        max_order = max(max_order, o)
        if n_prime == 0:
            p_ok = p_ok and o == 1
        else:
            p_ok = p_ok and (structure.p ** n_prime) % o == 0
    p_order = structure.P_order
    torus_bound = structure.p ** (rep.r * n_prime) * J
    linear_bound = rep.r * structure.p ** n_prime * J
    ok = (
        visible <= sw <= N
        and p_ok
        and p_order <= torus_bound
    )
    warnings = (
        "N_prime uses the linear form ell*r*J*N; the exponential variant "
        "ell^r*J*N is intentionally not used",
    )
    return WildOrderReport(
        swan=sw,
        N=N,
        N_prime=n_prime,
        N_prime_exact=n_prime_exact,
        jumps_total=jumps_total,
        jumps_visible=visible,
        max_p_element_order=max_order,
        p_exponent_ok=p_ok,
        P_order=p_order,
        torus_bound=torus_bound,
        torus_bound_holds=p_order <= torus_bound,
        linear_bound=linear_bound,
        linear_bound_holds=p_order <= linear_bound,
        abelian_part_order=len(abelian_part),
        ok=ok,
        warnings=warnings,
    )


def restricted_image_through(
    rep: Representation, structure: InertiaStructure, h_indices: Sequence[int]
):
    """Subgroup of the source whose image lies in H, and its image order.

    Returns (source subgroup size, image order, prime_to_p: bool).
    """
    h_mats = {structure.group.matrices[i].key() for i in h_indices}
    src = [g for g in range(rep.group.n) if rep.images[g].key() in h_mats]
    image_keys = {rep.images[g].key() for g in src}
    order = len(image_keys)
    return len(src), order, math.gcd(order, structure.p) == 1


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
    order_ic = data.e * data.f_insep
    assert order_ic == data.order_I // (data.t * data.f_sep)
    tame = data.f_insep == 1 and math.gcd(data.e, data.p) == 1
    return CountsReport(order_IC=order_ic, tame=tame)


class StarKernelReport(NamedTuple):
    passes: bool
    kernel_order: int
    kernel_p_sylow_order: int
    kernel_indices: tuple[int, ...]


def star_kernel_check(
    group: FiniteGroup,
    stabilizer: Sequence[int],
    f_sep: int,
    e: int,
    f_insep: int,
    p: int,
    kernel: Sequence[int] | None = None,
) -> StarKernelReport:
    """Kernel of stabilizer -> residue automorphisms has order e * f_insep.

    The kernel may be supplied; otherwise a normal subgroup of the
    stabilizer with cyclic quotient of order f_sep is searched for.  Its
    p-part must form a unique p-Sylow, whose order is reported.
    """
    stab = frozenset(stabilizer)
    if not group.is_subgroup(stab):
        raise NoSuchQuotient("stabilizer is not a subgroup")
    if len(stab) != e * f_sep * f_insep:
        raise NoSuchQuotient(
            f"stabilizer order {len(stab)} != e*f_sep*f_insep = {e * f_sep * f_insep}"
        )
    s_grp, idx = group.subgroup(stab)
    pos = {g: i for i, g in enumerate(idx)}
    candidates = []
    if kernel is not None:
        k_local = frozenset(pos[g] for g in kernel)
        candidates.append(k_local)
    else:
        for sub in s_grp.all_subgroups():
            if len(sub) * f_sep == s_grp.n and s_grp.is_normal(sub):
                quot, _ = s_grp.quotient(sub)
                if quot.is_cyclic():
                    candidates.append(sub)
    for k_local in candidates:
        if not s_grp.is_subgroup(k_local) or not s_grp.is_normal(k_local):
            continue
        quot, _ = s_grp.quotient(k_local)
        if quot.n != f_sep or not quot.is_cyclic():
            continue
        pe = s_grp.p_elements(p)
        kernel_p = [i for i in k_local if i in set(pe)]
        p_part = len(k_local) // split_prime_power(len(k_local), p)[1]
        unique_sylow = len(kernel_p) == p_part and s_grp.is_subgroup(frozenset(kernel_p))
        return StarKernelReport(
            passes=(len(k_local) == e * f_insep) and unique_sylow,
            kernel_order=len(k_local),
            kernel_p_sylow_order=p_part,
            kernel_indices=tuple(sorted(idx[i] for i in k_local)),
        )
    raise NoSuchQuotient(
        f"no normal subgroup of index {f_sep} with cyclic quotient"
    )
