"""Ramification filtrations, Herbrand functions, and Swan conductors.

Numbering convention: G_u = G_{ceil(u)} for real u > 0, so the transition
function phi has slope |G_i| / |G_0| on the segment (i-1, i] and satisfies
phi(v) = (1/|G_0|) * (|G_1| + ... + |G_v|) at positive integers v.  All
values are exact rationals; no floating point enters any computation.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import ceil, floor
from typing import NamedTuple, Sequence

from .covers import BreakTable, GaloisCover, lower_break_table
from .errors import (
    GroupMismatch,
    MismatchDetected,
    NotAbelian,
    NotAHomomorphism,
    NotPGroupWildPart,
    PreconditionFailed,
)
from .fields import split_prime_power
from .groups import FiniteGroup
from .linalg import MatrixFF, fixed_dim


def _same_group(g: FiniteGroup, h: FiniteGroup) -> bool:
    return g is h or (g.n == h.n and g.mul == h.mul and g.labels == h.labels)


# ---------------------------------------------------------------------------
# Filtrations.


class RamFiltration(NamedTuple):
    """Lower-numbering subgroups G_0 >= G_1 >= ... >= G_{i_max+1} = 1, kept at
    the jumps: ``levels[k]`` is G_u for u = ``jumps[k]`` (increasing, each
    level smaller than the one before), G_i is the level of the least jump
    >= i, and the identity after the last jump."""

    group: FiniteGroup
    p: int
    jumps: tuple[int, ...]
    levels: tuple[frozenset, ...]

    @property
    def i_max(self) -> int:
        return self.jumps[-1] if self.jumps else -1

    @property
    def subgroups(self) -> tuple[frozenset, ...]:
        return tuple(self.subgroup_at(i) for i in range(self.i_max + 2))

    def subgroup_at(self, i: int) -> frozenset:
        k = bisect_left(self.jumps, i)
        return self.levels[k] if k < len(self.levels) else frozenset({self.group.identity})

    def order_at(self, i: int) -> int:
        return len(self.subgroup_at(i))

    def positive_jumps(self) -> list[int]:
        return [u for u in self.jumps if u >= 1]


def filtration_from_breaks(bt: BreakTable, p: int) -> RamFiltration:
    """G_i = {sigma != 1 : i(sigma) >= i + 1} united with the identity; it
    changes only at the jumps u = i(sigma) - 1, so each level is built and
    checked once: as a subgroup, since a break table need not come from a
    filtration, but not as normal, since ``BreakTable`` has checked that i is
    a class function, so each level is a union of conjugacy classes."""
    group = bt.group
    jumps = sorted({v - 1 for v in bt.i_map.values()})
    levels = [
        frozenset({group.identity, *(s for s, v in bt.i_map.items() if v > u)})
        for u in jumps
    ]
    for sub in levels:
        if not group.is_subgroup(sub):
            raise MismatchDetected("filtration member is not a subgroup")
    filt = RamFiltration(group=group, p=p, jumps=tuple(jumps), levels=tuple(levels))
    if split_prime_power(len(filt.subgroup_at(1)), p)[1] != 1:
        raise NotPGroupWildPart(
            f"wild part has order {len(filt.subgroup_at(1))}, not a power of {p}"
        )
    return filt


def restrict_break_table(bt: BreakTable, indices: Sequence[int]) -> BreakTable:
    """Break table of a subgroup, whose ``group`` it is (breaks restrict
    unchanged)."""
    sub, idx = bt.group.subgroup(indices)
    pos = {g: i for i, g in enumerate(idx)}
    return BreakTable(sub, {pos[g]: v for g, v in bt.i_map.items() if g in pos})


# ---------------------------------------------------------------------------
# Herbrand functions.


class HerbrandFunction:
    """Piecewise linear, concave, strictly increasing, phi(0) = 0.

    ``breakpoints`` are exact rational vertices; beyond the last vertex the
    graph continues with ``final_slope``.
    """

    __slots__ = ("breakpoints", "final_slope")

    def __init__(self, breakpoints, final_slope):
        self.breakpoints = tuple(
            (Fraction(u), Fraction(v)) for u, v in breakpoints
        )
        self.final_slope = Fraction(final_slope)

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        if x < 0:
            raise ValueError("transition functions are defined for x >= 0")
        pts = self.breakpoints
        if x <= pts[0][0]:
            return pts[0][1]
        for (u0, v0), (u1, v1) in zip(pts, pts[1:]):
            if x <= u1:
                return v0 + (x - u0) * (v1 - v0) / (u1 - u0)
        u_last, v_last = pts[-1]
        return v_last + (x - u_last) * self.final_slope

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HerbrandFunction)
            and self.breakpoints == other.breakpoints
            and self.final_slope == other.final_slope
        )

    def __repr__(self) -> str:
        pts = ", ".join(f"({u}, {v})" for u, v in self.breakpoints)
        return f"HerbrandFunction([{pts}], final_slope={self.final_slope})"


def herbrand_phi(filt: RamFiltration) -> HerbrandFunction:
    """Between vertices G_i is constant, so each vertex adds its run length
    times |G_u| / |G_0| once."""
    g0 = filt.order_at(0)
    vertex_us = set(filt.positive_jumps())
    if filt.order_at(0) != filt.order_at(1):
        vertex_us.add(1)
    points = [(Fraction(0), Fraction(0))]
    for u in sorted(vertex_us):
        u0, v0 = points[-1]  # G_i = G_u for u0 < i <= u
        points.append((Fraction(u), v0 + (u - u0) * Fraction(filt.order_at(u), g0)))
    return HerbrandFunction(points, Fraction(1, g0))


def herbrand_psi(hf: HerbrandFunction) -> HerbrandFunction:
    pts = [(v, u) for u, v in hf.breakpoints]
    return HerbrandFunction(pts, 1 / hf.final_slope)


def upper_jumps(filt: RamFiltration, phi: HerbrandFunction) -> tuple[Fraction, ...]:
    """phi(u) for each lower jump u, with ``phi`` = herbrand_phi(filt)."""
    return tuple(phi.evaluate(u) for u in filt.jumps)


def hasse_arf_check(filt: RamFiltration, upper: Sequence[Fraction]) -> bool:
    """Integrality of ``upper``, the upper jumps of ``filt``; only stated
    for abelian G_0."""
    g0, mul = filt.subgroup_at(0), filt.group.mul
    if any(mul[a][b] != mul[b][a] for a in g0 for b in g0):
        raise NotAbelian("Hasse-Arf integrality requires an abelian group")
    return all(x.denominator == 1 for x in upper)


def quotient_filtration_by_herbrand(
    filt: RamFiltration, h_indices: Sequence[int], phi_sub: HerbrandFunction
) -> RamFiltration:
    """Filtration of G/H computed through (G/H)_{phi_H(u)} = G_u H / H.

    Used as an independent cross-check against a directly computed
    filtration of the quotient cover.  (G/H)_v = G_{psi_H(v)} H / H changes
    between v and v + 1 only if psi_H(v) <= u < psi_H(v + 1) for a jump u
    of G, that is at v = floor(phi_H(u)); those are the candidate jumps.
    """
    quot, proj = filt.group.quotient(frozenset(h_indices))
    psi_sub = herbrand_psi(phi_sub)
    # Walk down from the top; a candidate is a jump if its level differs
    # from the level above it (the identity, above the highest).
    jumps, levels = [], [frozenset({quot.identity})]
    for v in sorted({floor(phi_sub.evaluate(u)) for u in filt.jumps}, reverse=True):
        level = frozenset(proj[g] for g in filt.subgroup_at(ceil(psi_sub.evaluate(v))))
        if level != levels[-1]:
            jumps.append(v)
            levels.append(level)
    return RamFiltration(quot, filt.p, tuple(jumps[::-1]), tuple(levels[:0:-1]))


# ---------------------------------------------------------------------------
# Representations.


class Representation:
    """Homomorphism into invertible matrices over F_{ell^n}, given by the
    images of some elements that generate the group.

    The constructor walks the group from the identity: it sets
    images[e] = 1 and, for every reached g and every given h, sets or checks
    images[g h] = images[g] * images[h], in n * |gens| products.  That
    proves the full law.  If the law holds for all a at b, then at b * h:
    images[a b h] = images[a b] images[h] = images[a] images[b] images[h] =
    images[a] images[b h].  It holds at b = e since images[e] = 1, and
    every element is a nonempty word in the given elements (they generate
    the group, and inverses are positive powers in a finite group), so
    induction on the word length covers every b.  Every image is then
    invertible, since images[g]^ord(g) = images[e] = 1.  Mixed shapes or
    fields raise ``DimensionMismatch`` or ``FieldMismatch`` in the first
    products.
    """

    __slots__ = ("group", "images", "r", "ell", "field")

    def __init__(self, group: FiniteGroup, gen_images: dict[str, MatrixFF]):
        gens = {group.label_index(lbl): m for lbl, m in gen_images.items()}
        if not gens:
            raise NotAHomomorphism("need at least one generator image")
        m0 = next(iter(gens.values()))
        images: list[MatrixFF | None] = [None] * group.n
        images[group.identity] = MatrixFF.identity(m0.field, m0.n)
        frontier = [group.identity]
        while frontier:
            g = frontier.pop()
            for h, mh in gens.items():
                gh = group.product(g, h)
                cand = images[g] * mh
                if images[gh] is None:
                    images[gh] = cand
                    frontier.append(gh)
                elif images[gh] != cand:
                    raise NotAHomomorphism("generator images are inconsistent")
        if any(m is None for m in images):
            raise NotAHomomorphism("given generators do not generate the group")
        field = m0.field
        self.group, self.images, self.r, self.ell, self.field = group, tuple(images), m0.n, field.p, field

    @classmethod
    def _proved(cls, group: FiniteGroup, images: Sequence[MatrixFF]) -> "Representation":
        """Images proved to satisfy the law, as the constructor's walk does, stored unchecked."""
        rep, field = cls.__new__(cls), images[0].field
        rep.group, rep.images, rep.r, rep.ell, rep.field = group, tuple(images), images[0].n, field.p, field
        return rep

    def fixed_dim(self, subset) -> int:
        return fixed_dim([self.images[i] for i in subset])


class SwanReport(NamedTuple):
    swan: Fraction
    breaks: tuple[tuple[Fraction, int], ...]
    per_jump_terms: tuple[tuple[Fraction, int], ...]


def _check_pair(rep: Representation, filt: RamFiltration) -> None:
    if not _same_group(rep.group, filt.group):
        raise GroupMismatch("representation and filtration have different groups")
    if rep.ell == filt.p:
        raise PreconditionFailed("coefficient characteristic must differ from p")


def swan_conductor(rep: Representation, filt: RamFiltration) -> SwanReport:
    """Swan conductor, computed two ways and required to agree exactly.

    For the positive jumps u_1 < ... < u_k, ``dims`` holds dim V^{G_{u_j}}
    and then r: G_1 = G_{u_1}, and G_{u_j + 1} is G_{u_{j+1}}, or the
    identity after u_k.  So each level's fixed space is computed once.
    Route one sums (|G_i| / |G_0|) * (r - dim V^{G_i}) over i >= 1, one
    term per run of equal G_i; route two sums phi(u_j) times the
    multiplicity dims[j] - dims[j - 1] over the break multiset, whose
    break 0 has multiplicity dim V^{G_1}.  They telescope to dims[-1] = r.
    """
    _check_pair(rep, filt)
    g0 = filt.order_at(0)
    jumps = filt.positive_jumps()
    dims = [rep.fixed_dim(filt.subgroup_at(u)) for u in jumps] + [rep.r]
    total = sum(  # G_i = G_u for prev < i <= u
        ((u - prev) * Fraction(filt.order_at(u), g0) * (rep.r - dim)
         for prev, u, dim in zip([0, *jumps], jumps, dims)),
        Fraction(0),
    )
    phi = herbrand_phi(filt)
    per_jump = tuple(
        (phi.evaluate(u), after - dim)
        for u, dim, after in zip(jumps, dims, dims[1:])
        if after != dim
    )
    breaks = ((Fraction(0), dims[0]),) + per_jump if dims[0] else per_jump
    by_breaks = sum((lam * mult for lam, mult in breaks), Fraction(0))
    if by_breaks != total:
        raise MismatchDetected(
            f"filtration sum {total} != break-decomposition sum {by_breaks}"
        )
    return SwanReport(swan=total, breaks=breaks, per_jump_terms=per_jump)


def swan_single_break(rep: Representation, filt: RamFiltration) -> Fraction:
    """phi(u) * r for the unique positive jump u, when the whole space moves.

    Preconditions: exactly one u >= 1 with G_u != G_{u+1} and
    dim V^{G_u} = 0; the value must agree with swan_conductor.  With one
    positive jump, G_1 = ... = G_u, so phi(u) = u * |G_u| / |G_0|.
    """
    _check_pair(rep, filt)
    jumps = filt.positive_jumps()
    if len(jumps) != 1:
        raise PreconditionFailed(f"expected a unique positive jump, found {jumps}")
    u = jumps[0]
    sub = filt.subgroup_at(u)
    if rep.fixed_dim(sub) != 0:
        raise PreconditionFailed("fixed space at the jump is nonzero")
    return Fraction(u * len(sub), filt.order_at(0)) * rep.r


# ---------------------------------------------------------------------------
# Tower statements.


def _check_intermediate(cover: GaloisCover) -> None:
    if cover.intermediate is None:
        raise PreconditionFailed("cover has no marked intermediate field")


def tower_filtrations(cover: GaloisCover) -> tuple[RamFiltration, RamFiltration]:
    """Filtrations of G = Gal(L/K) and of H = Gal(L/K'), for the cover's
    marked intermediate field K'; breaks restrict to H unchanged."""
    _check_intermediate(cover)
    bt = lower_break_table(cover)
    bt_h = restrict_break_table(bt, cover.intermediate.H_indices)
    return filtration_from_breaks(bt, cover.p), filtration_from_breaks(bt_h, cover.p)


class PullbackReport(NamedTuple):
    sw_base: Fraction
    sw_prime: Fraction
    degree: int
    holds: bool
    equality: bool


def pullback_bound_check(cover: GaloisCover, rep: Representation, filt, filt_h) -> PullbackReport:
    """Sw over K' against [K':K] Sw over K, ``(filt, filt_h) = tower_filtrations(cover)``.
    ``rep`` restricts to a homomorphism on H, stored unchecked; ``swan_conductor``
    checks its group against that of ``filt_h``."""
    _check_intermediate(cover)
    if not _same_group(rep.group, cover.group):
        raise GroupMismatch("representation is not on the cover group")
    sub, idx = rep.group.subgroup(cover.intermediate.H_indices)
    degree = cover.group.n // sub.n
    sw_base = swan_conductor(rep, filt).swan
    sw_prime = swan_conductor(Representation._proved(sub, [rep.images[g] for g in idx]), filt_h).swan
    bound = degree * sw_base
    return PullbackReport(sw_base, sw_prime, degree, sw_prime <= bound, sw_prime == bound)


class TransitivityReport(NamedTuple):
    """``quotient_matches``: the filtration of G/H through (G/H)_{phi_H(u)}
    = G_u H / H has the subgroup orders of the tame layer's own.  A nonzero
    residual raises, so a returned report has every residual zero."""

    points: tuple[Fraction, ...]
    residuals: tuple[Fraction, ...]
    quotient_matches: bool


def phi_transitivity_check(cover: GaloisCover, filt, filt_h, filt_low) -> TransitivityReport:
    """phi_{L/K} = phi_{K'/K} o phi_{L/K'} at breakpoints and small integers,
    with ``(filt, filt_h) = tower_filtrations(cover)`` and ``filt_low`` the
    filtration of the tame layer ``cover.intermediate.lower``.

    Both sides are computed from independent break data: the left from the
    full cover, the right from the subgroup restriction and from the tame
    layer's own series.  The quotient filtration by Herbrand's theorem is
    checked against the tame layer's too.
    """
    _check_intermediate(cover)
    phi_full = herbrand_phi(filt)
    phi_up = herbrand_phi(filt_h)
    phi_low = herbrand_phi(filt_low)

    points = {Fraction(u) for u, _ in phi_full.breakpoints}
    points |= {Fraction(u) for u, _ in phi_up.breakpoints}
    points |= {Fraction(v) for v in range(filt.i_max + 3)}
    points = tuple(sorted(points))
    residuals = tuple(
        phi_full.evaluate(u) - phi_low.evaluate(phi_up.evaluate(u)) for u in points
    )
    for u, res in zip(points, residuals):
        if res != 0:
            raise MismatchDetected(f"transitivity fails at u = {u}: residual {res}")
    quot = quotient_filtration_by_herbrand(filt, cover.intermediate.H_indices, phi_up)
    quotient_matches = [len(s) for s in quot.subgroups] == [len(s) for s in filt_low.subgroups]
    return TransitivityReport(
        points=points, residuals=residuals, quotient_matches=quotient_matches
    )
