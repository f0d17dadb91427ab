"""Ramification filtrations, Herbrand functions, and Swan conductors.

Numbering convention: G_u = G_{ceil(u)} for real u > 0, so the transition
function phi has slope |G_i| / |G_0| on the segment (i-1, i] and satisfies
phi(v) = (1/|G_0|) * (|G_1| + ... + |G_v|) at positive integers v.  All
values are exact rationals; no floating point enters any computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
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
from .fields import FiniteField, split_prime_power
from .groups import FiniteGroup
from .linalg import MatrixFF, fixed_subspace


def _same_group(g: FiniteGroup, h: FiniteGroup) -> bool:
    return g.n == h.n and g.mul == h.mul and g.labels == h.labels


# ---------------------------------------------------------------------------
# Filtrations.


class RamFiltration(NamedTuple):
    """Lower-numbering subgroups G_0 >= G_1 >= ... >= G_{i_max+1} = 1."""

    group: FiniteGroup
    p: int
    subgroups: tuple[frozenset, ...]
    i_max: int

    def subgroup_at(self, i: int) -> frozenset:
        if i < len(self.subgroups):
            return self.subgroups[i]
        return frozenset({self.group.identity})

    def order_at(self, i: int) -> int:
        return len(self.subgroup_at(i))

    def lower_jumps(self) -> list[int]:
        return [
            u
            for u in range(self.i_max + 1)
            if self.subgroup_at(u) != self.subgroup_at(u + 1)
        ]

    def positive_jumps(self) -> list[int]:
        return [u for u in self.lower_jumps() if u >= 1]


def filtration_from_breaks(bt: BreakTable, p: int) -> RamFiltration:
    """G_i = {sigma != 1 : i(sigma) >= i + 1} united with the identity."""
    group = bt.group
    i_max = max(bt.i_map.values(), default=0) - 1
    subgroups = []
    for i in range(i_max + 2):
        members = {s for s, v in bt.i_map.items() if v >= i + 1}
        members.add(group.identity)
        subgroups.append(frozenset(members))
    filt = RamFiltration(group=group, p=p, subgroups=tuple(subgroups), i_max=i_max)
    for sub in subgroups:
        if not group.is_subgroup(sub):
            raise MismatchDetected("filtration member is not a subgroup")
        if not group.is_normal(sub):
            raise MismatchDetected("filtration member is not normal")
    if split_prime_power(len(filt.subgroup_at(1)), p)[1] != 1:
        raise NotPGroupWildPart(
            f"wild part has order {len(filt.subgroup_at(1))}, not a power of {p}"
        )
    return filt


def restrict_break_table(bt: BreakTable, indices: Sequence[int]):
    """Break table of a subgroup (breaks restrict unchanged); returns
    (subgroup FiniteGroup, restricted BreakTable, index map into the parent)."""
    sub, idx = bt.group.subgroup(indices)
    pos = {g: i for i, g in enumerate(idx)}
    i_map = {pos[g]: v for g, v in bt.i_map.items() if g in pos}
    return sub, BreakTable(sub, i_map), idx


# ---------------------------------------------------------------------------
# Herbrand functions.


class HerbrandFunction:
    """Piecewise linear, concave, strictly increasing, phi(0) = 0.

    ``breakpoints`` are exact rational vertices; beyond the last vertex the
    graph continues with ``final_slope``.  ``unit_slopes`` (when present)
    records |G_i| / |G_0| on each unit segment up to i_max + 1.
    """

    __slots__ = ("breakpoints", "final_slope", "unit_slopes")

    def __init__(self, breakpoints, final_slope, unit_slopes=None):
        self.breakpoints = tuple(
            (Fraction(u), Fraction(v)) for u, v in breakpoints
        )
        self.final_slope = Fraction(final_slope)
        self.unit_slopes = (
            tuple(Fraction(s) for s in unit_slopes) if unit_slopes is not None else None
        )

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

    def __call__(self, x) -> Fraction:
        return self.evaluate(x)

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
    g0 = filt.order_at(0)
    unit_slopes = [
        Fraction(filt.order_at(i), g0) for i in range(1, filt.i_max + 2)
    ]
    vertex_us = set(filt.positive_jumps())
    if filt.order_at(0) != filt.order_at(1):
        vertex_us.add(1)
    points = [(Fraction(0), Fraction(0))]
    acc = Fraction(0)
    prev = 0
    for u in sorted(vertex_us):
        for i in range(prev + 1, u + 1):
            slope = Fraction(filt.order_at(i), g0)
            acc += slope
        points.append((Fraction(u), acc))
        prev = u
    return HerbrandFunction(points, Fraction(1, g0), unit_slopes)


def herbrand_psi(hf: HerbrandFunction) -> HerbrandFunction:
    pts = [(v, u) for u, v in hf.breakpoints]
    return HerbrandFunction(pts, 1 / hf.final_slope)


def upper_jumps(filt: RamFiltration) -> tuple[Fraction, ...]:
    phi = herbrand_phi(filt)
    return tuple(phi.evaluate(u) for u in filt.lower_jumps())


def hasse_arf_check(filt: RamFiltration) -> bool:
    """Integrality of the upper jumps; only stated for abelian G_0."""
    g0, _ = filt.group.subgroup(filt.subgroup_at(0))
    if not g0.is_abelian():
        raise NotAbelian("Hasse-Arf integrality requires an abelian group")
    return all(x.denominator == 1 for x in upper_jumps(filt))


def quotient_filtration_by_herbrand(
    filt: RamFiltration, h_indices: Sequence[int], phi_sub: HerbrandFunction
) -> RamFiltration:
    """Filtration of G/H computed through (G/H)_{phi_H(u)} = G_u H / H.

    Used as an independent cross-check against a directly computed
    filtration of the quotient cover.
    """
    group = filt.group
    h_set = frozenset(h_indices)
    quot, proj = group.quotient(h_set)
    psi_sub = herbrand_psi(phi_sub)

    def quotient_at(v: int) -> frozenset:
        u = psi_sub.evaluate(v)
        idx = ceil(u) if u > 0 else 0
        return frozenset(proj[g] for g in filt.subgroup_at(idx))

    subgroups = [quotient_at(0)]
    v = 0
    while len(subgroups[-1]) > 1:
        v += 1
        subgroups.append(quotient_at(v))
        if v > filt.i_max + 2 and len(subgroups[-1]) > 1:
            raise MismatchDetected("quotient filtration does not terminate")
    i_max = len(subgroups) - 2
    return RamFiltration(group=quot, p=filt.p, subgroups=tuple(subgroups), i_max=i_max)


# ---------------------------------------------------------------------------
# Representations.


class Representation:
    """Homomorphism into invertible matrices over F_{ell^n}.

    The constructor checks images[a * g] = images[a] * images[g] for every
    element a and every g in ``group.generators()`` (the identity alone for
    the trivial group): n * |gens| products instead of n^2.  That implies
    the full law.  Taking a = e gives images[g] = images[e] * images[g], so
    images[e] = 1 since images[g] is invertible.  If the law holds for all a
    at b, then at b * g: images[a b g] = images[a b] images[g] =
    images[a] images[b] images[g] = images[a] images[b g].  Every element is
    a nonempty word in the generators (the greedy set generates the group,
    and inverses are positive powers in a finite group), so induction on the
    word length covers every b.
    """

    __slots__ = ("group", "images", "r", "ell", "n_ext", "field")

    def __init__(self, group: FiniteGroup, images: Sequence[MatrixFF]):
        images = tuple(images)
        if len(images) != group.n:
            raise NotAHomomorphism("need one image per group element")
        field = images[0].field
        r = images[0].n
        for m in images:
            if m.field != field or m.n != r:
                raise NotAHomomorphism("images of mixed shape or field")
            if not m.is_invertible():
                raise NotAHomomorphism("image is not invertible")
        mul = group.mul
        for g in group.generators() or [group.identity]:
            image_g = images[g]
            for a in range(group.n):
                if images[mul[a][g]] != images[a] * image_g:
                    raise NotAHomomorphism(
                        f"not multiplicative at ({group.labels[a]}, {group.labels[g]})"
                    )
        self.group = group
        self.images = images
        self.r = r
        self.ell = field.p
        self.n_ext = field.a
        self.field = field

    @classmethod
    def from_generator_images(
        cls, group: FiniteGroup, gen_images: dict[str, MatrixFF]
    ) -> "Representation":
        field = next(iter(gen_images.values())).field
        r = next(iter(gen_images.values())).n
        images: list[MatrixFF | None] = [None] * group.n
        images[group.identity] = MatrixFF.identity(field, r)
        gens = {group.label_index(lbl): m for lbl, m in gen_images.items()}
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
        return cls(group, images)

    @classmethod
    def trivial(cls, group: FiniteGroup, field: FiniteField, r: int = 1) -> "Representation":
        ident = MatrixFF.identity(field, r)
        return cls(group, [ident] * group.n)

    def restrict(self, indices: Sequence[int]):
        """Restriction to a subgroup; returns (Representation, index map)."""
        sub, idx = self.group.subgroup(indices)
        return Representation(sub, [self.images[g] for g in idx]), idx

    def direct_sum(self, other: "Representation") -> "Representation":
        if not _same_group(self.group, other.group):
            raise GroupMismatch("direct sum over different groups")
        if self.field != other.field:
            raise GroupMismatch("direct sum over different coefficient fields")
        zero = self.field.zero()
        out = []
        for a, b in zip(self.images, other.images):
            n = a.n + b.n
            rows = []
            for i in range(a.n):
                rows.append(list(a.rows[i]) + [zero] * b.n)
            for i in range(b.n):
                rows.append([zero] * a.n + list(b.rows[i]))
            out.append(MatrixFF(self.field, rows))
        return Representation(self.group, out)

    def image_matrices(self) -> list[MatrixFF]:
        """Distinct images, canonically ordered."""
        seen = {}
        for m in self.images:
            seen.setdefault(m.key(), m)
        return [seen[k] for k in sorted(seen)]

    def is_faithful(self) -> bool:
        ident = MatrixFF.identity(self.field, self.r)
        return sum(1 for m in self.images if m == ident) == 1

    def fixed_dim(self, subset) -> int:
        mats = [self.images[i] for i in sorted(subset)]
        return fixed_subspace(mats)[0]


class SwanReport(NamedTuple):
    swan: Fraction
    breaks: tuple[tuple[Fraction, int], ...]
    per_jump_terms: tuple[tuple[Fraction, int], ...]


def _check_pair(rep: Representation, filt: RamFiltration) -> None:
    if not _same_group(rep.group, filt.group):
        raise GroupMismatch("representation and filtration have different groups")
    if rep.ell == filt.p:
        raise PreconditionFailed("coefficient characteristic must differ from p")


def _break_multiset(rep: Representation, filt: RamFiltration):
    phi = herbrand_phi(filt)
    breaks = []
    tame_mult = rep.fixed_dim(filt.subgroup_at(1))
    if tame_mult:
        breaks.append((Fraction(0), tame_mult))
    per_jump = []
    for u in filt.positive_jumps():
        inc = rep.fixed_dim(filt.subgroup_at(u + 1)) - rep.fixed_dim(
            filt.subgroup_at(u)
        )
        if inc:
            lam = phi.evaluate(u)
            breaks.append((lam, inc))
            per_jump.append((lam, inc))
    return tuple(breaks), tuple(per_jump)


def swan_conductor(rep: Representation, filt: RamFiltration) -> SwanReport:
    """Swan conductor, computed two ways and required to agree exactly.

    Route one sums (|G_i| / |G_0|) * (r - dim V^{G_i}) over i >= 1; route
    two sums slope * multiplicity over the break multiset.
    """
    _check_pair(rep, filt)
    g0 = filt.order_at(0)
    total = Fraction(0)
    for i in range(1, filt.i_max + 2):
        sub = filt.subgroup_at(i)
        if len(sub) == 1:
            continue
        total += Fraction(len(sub), g0) * (rep.r - rep.fixed_dim(sub))
    breaks, per_jump = _break_multiset(rep, filt)
    by_breaks = sum((lam * mult for lam, mult in breaks), Fraction(0))
    if by_breaks != total:
        raise MismatchDetected(
            f"filtration sum {total} != break-decomposition sum {by_breaks}"
        )
    if sum(mult for _, mult in breaks) != rep.r:
        raise MismatchDetected("break multiplicities do not add up to the rank")
    return SwanReport(swan=total, breaks=breaks, per_jump_terms=per_jump)


def break_decomposition(rep: Representation, filt: RamFiltration):
    """Multiset of (slope, multiplicity); slopes are 0 or upper jumps."""
    _check_pair(rep, filt)
    return _break_multiset(rep, filt)[0]


def swan_single_break(
    rep: Representation, filt: RamFiltration, hf: HerbrandFunction
) -> Fraction:
    """phi(u) * r for the unique positive jump u, when the whole space moves.

    Preconditions: exactly one u >= 1 with G_u != G_{u+1} and
    dim V^{G_u} = 0; the value must agree with swan_conductor.
    """
    _check_pair(rep, filt)
    jumps = filt.positive_jumps()
    if len(jumps) != 1:
        raise PreconditionFailed(f"expected a unique positive jump, found {jumps}")
    u = jumps[0]
    if rep.fixed_dim(filt.subgroup_at(u)) != 0:
        raise PreconditionFailed("fixed space at the jump is nonzero")
    return hf.evaluate(u) * rep.r


# ---------------------------------------------------------------------------
# Tower statements.


class PullbackReport(NamedTuple):
    sw_base: Fraction
    sw_prime: Fraction
    degree: int
    holds: bool
    equality: bool
    phi_base: HerbrandFunction
    phi_prime: HerbrandFunction


def pullback_bound_check(cover: GaloisCover, rep: Representation) -> PullbackReport:
    """Sw over the intermediate field against degree times Sw over the base."""
    if cover.intermediate is None:
        raise PreconditionFailed("cover has no marked intermediate field")
    if not _same_group(rep.group, cover.group):
        raise GroupMismatch("representation is not on the cover group")
    bt = lower_break_table(cover)
    filt = filtration_from_breaks(bt, cover.p)
    sw_base = swan_conductor(rep, filt).swan

    h_idx = cover.intermediate.H_indices
    sub, bt_h, idx = restrict_break_table(bt, h_idx)
    filt_h = filtration_from_breaks(bt_h, cover.p)
    rep_h, _ = rep.restrict(h_idx)
    sw_prime = swan_conductor(rep_h, filt_h).swan

    degree = cover.group.n // len(h_idx)
    return PullbackReport(
        sw_base=sw_base,
        sw_prime=sw_prime,
        degree=degree,
        holds=sw_prime <= degree * sw_base,
        equality=sw_prime == degree * sw_base,
        phi_base=herbrand_phi(filt),
        phi_prime=herbrand_phi(filt_h),
    )


class TransitivityReport(NamedTuple):
    points: tuple[Fraction, ...]
    residuals: tuple[Fraction, ...]
    ok: bool


def phi_transitivity_check(cover: GaloisCover) -> TransitivityReport:
    """phi_{L/K} = phi_{K'/K} o phi_{L/K'} at breakpoints and small integers.

    Both sides are computed from independent break data: the left from the
    full cover, the right from the subgroup restriction and from the tame
    layer's own series.
    """
    if cover.intermediate is None:
        raise PreconditionFailed("cover has no marked intermediate field")
    bt = lower_break_table(cover)
    filt = filtration_from_breaks(bt, cover.p)
    phi_full = herbrand_phi(filt)

    _, bt_h, _ = restrict_break_table(bt, cover.intermediate.H_indices)
    filt_h = filtration_from_breaks(bt_h, cover.p)
    phi_up = herbrand_phi(filt_h)

    lower = cover.intermediate.lower
    bt_low = lower_break_table(lower)
    filt_low = filtration_from_breaks(bt_low, cover.p)
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
    return TransitivityReport(points=points, residuals=residuals, ok=True)
