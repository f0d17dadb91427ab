"""Ramification filtrations, Herbrand functions, and Swan conductors.

Numbering convention: G_u = G_{ceil(u)} for real u > 0, so the transition
function phi has slope |G_i| / |G_0| on the segment (i-1, i] and satisfies
phi(v) = (1/|G_0|) * (|G_1| + ... + |G_v|) at positive integers v.  All
values are exact rationals; no floating point enters any computation.

A subgroup H keeps G's indices: its filtration H_i = G_i meet H is a
``RamFiltration`` on G, so a representation of G serves H as it is.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import ceil, floor

from .covers import BreakTable, GaloisCover, lower_break_table
from .errors import (
    GroupMismatch,
    MismatchDetected,
    NotAbelian,
    NotAHomomorphism,
    NotPGroupWildPart,
    PreconditionFailed,
    SizeCapExceeded,
)
from .fields import split_prime_power
from .groups import FiniteGroup, _spanning_tree
from .linalg import MatrixFF, fixed_dim

# Bound on n * |S| * r^3, the work of a representation's law check: at the
# cap the walk takes 0.45 s over F_3 (n = 2, r = 161) and 1.2 s over
# F_{2^16} (n = 3, r = 140) on a 2-CPU Xeon.
REP_WORK_CAP = 1 << 23


_Fraction = None  # fractions.Fraction, bound by the first _ratio call


def _ratio(x, den=None) -> Fraction:
    """x or x / den, exact: the one place a rational is built, so ``fractions``
    loads only in the jobs that build one.  The class is bound once: an
    import statement costs more than the Fraction it would build."""
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    return _Fraction(x, den)


def _same_group(g: FiniteGroup, h: FiniteGroup) -> bool:
    return g is h or (g.n == h.n and g.mul == h.mul and g.labels == h.labels)


# ---------------------------------------------------------------------------
# Filtrations.


class RamFiltration(namedtuple("RamFiltration", "group p jumps levels")):
    """Lower-numbering subgroups G_0 >= G_1 >= ... >= G_{i_max+1} = 1, kept at
    the jumps: ``levels[k]`` is G_u for u = ``jumps[k]`` (increasing, each
    level smaller than the one before), G_i is the level of the least jump
    >= i, and the identity after the last jump."""

    __slots__ = ()

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


# ---------------------------------------------------------------------------
# Herbrand functions.


class HerbrandFunction:
    """Piecewise linear, concave, strictly increasing, phi(0) = 0.

    ``breakpoints`` are exact rational vertices; beyond the last vertex the
    graph continues with ``final_slope``.
    """

    __slots__ = ("breakpoints", "final_slope")

    def __init__(self, breakpoints, final_slope):
        self.breakpoints = tuple((_ratio(u), _ratio(v)) for u, v in breakpoints)
        self.final_slope = _ratio(final_slope)

    def evaluate(self, x) -> Fraction:
        x = _ratio(x)
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
    times |G_u| to the integer sum |G_1| + ... + |G_u|, over |G_0|."""
    g0 = filt.order_at(0)
    vertex_us = set(filt.positive_jumps())
    if g0 != filt.order_at(1):
        vertex_us.add(1)
    points, total = [(0, 0)], 0
    for u in sorted(vertex_us):
        total += (u - points[-1][0]) * filt.order_at(u)  # G_i = G_u after the last vertex, up to u
        points.append((u, _ratio(total, g0)))
    return HerbrandFunction(points, _ratio(1, g0))


def herbrand_psi(hf: HerbrandFunction) -> HerbrandFunction:
    pts = [(v, u) for u, v in hf.breakpoints]
    return HerbrandFunction(pts, 1 / hf.final_slope)


def upper_jumps(filt: RamFiltration, phi: HerbrandFunction) -> tuple[Fraction, ...]:
    """phi(u) for each lower jump u, with ``phi`` = herbrand_phi(filt)."""
    return tuple(phi.evaluate(u) for u in filt.jumps)


def hasse_arf_check(filt: RamFiltration, upper: Sequence[Fraction]) -> bool:
    """Integrality of ``upper``, the upper jumps of ``filt``; only stated
    for abelian G_0."""
    if not filt.group.is_abelian(filt.subgroup_at(0)):
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


def law_walk(group: FiniteGroup, given: Iterable[int], r: int):
    """The ``_spanning_tree`` that the law check of a representation of
    rank r walks: on the greedy generating subset S of the given indices
    (in index order, the identity skipped).  It depends on the table and
    the indices alone, so the job reader calls it before any image entry
    is read.  A walk whose work n * |S| * r^3 exceeds ``REP_WORK_CAP``
    raises ``SizeCapExceeded``."""
    mul = group.mul
    tree = _spanning_tree(group.n, lambda x, s: mul[x][s], sorted(set(given) - {group.identity}))
    work = group.n * len(tree[0]) * r ** 3
    if work > REP_WORK_CAP:
        raise SizeCapExceeded(
            f"the law check's work, group order * generators walked * 'rep.r'^3 = {work}, "
            f"exceeds {REP_WORK_CAP}"
        )
    return tree


class Representation:
    """Homomorphism into invertible matrices over F_{ell^n}, given by the
    images of some elements that generate the group.

    The constructor takes the greedy generating subset S of the given
    elements that ``_spanning_tree`` picks on the group table (in index
    order, the identity skipped), sets images[e] = 1 and walks the group:
    for every reached g and every s in S it sets or checks
    images[g s] = images[g] * images[s], in n * |S| products.  That proves
    the full law.  If the law holds for all a at b, then at b * s:
    images[a b s] = images[a b] images[s] = images[a] images[b] images[s] =
    images[a] images[b s].  It holds at b = e since images[e] = 1, and
    every element is a nonempty word in S (S generates the group, and
    inverses are positive powers in a finite group), so induction on the
    word length covers every b.  A homomorphism is fixed by its values on
    a generating set, so every other given image must equal the walked one,
    by key.  Every image is invertible, since images[g]^ord(g) = images[e]
    = 1.  Before any product, mixed shapes or fields raise
    ``DimensionMismatch`` or ``FieldMismatch``, and a walk whose work
    n * |S| * r^3 exceeds ``REP_WORK_CAP`` raises ``SizeCapExceeded``.
    """

    __slots__ = ("group", "images", "r", "ell", "field", "_fixed")

    def __init__(self, group: FiniteGroup, gen_images: dict[str, MatrixFF]):
        given = {group.label_index(lbl): m for lbl, m in gen_images.items()}
        if not given:
            raise NotAHomomorphism("need at least one generator image")
        m0 = next(iter(given.values()))
        for m in given.values():
            m0._check(m)
        e, r = group.identity, m0.n
        gens, order, _, _, right = law_walk(group, given, r)
        images: list[MatrixFF | None] = [None] * group.n
        images[e] = MatrixFF.identity(m0.field, r)
        for s in gens:
            images[s] = given[s]
        for g in order:
            for s, column in zip(gens, right):
                cand = images[g] * images[s]
                gs = column[g]
                if images[gs] is None:
                    images[gs] = cand
                elif images[gs] != cand:
                    raise NotAHomomorphism("generator images are inconsistent")
        if any(images[h] != m for h, m in given.items()):
            raise NotAHomomorphism("generator images are inconsistent")
        if any(m is None for m in images):
            raise NotAHomomorphism("given generators do not generate the group")
        self.group, self.images, self.r, self.ell, self.field = group, tuple(images), r, m0.field.p, m0.field
        self._fixed: dict[frozenset, int] = {}

    def fixed_dim(self, subset) -> int:
        """dim V^H for the subgroup H given by its indices, formed once per H."""
        key = frozenset(subset)
        if key not in self._fixed:
            self._fixed[key] = fixed_dim([self.images[i] for i in key])
        return self._fixed[key]


SwanReport = namedtuple("SwanReport", "swan breaks per_jump_terms")


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
    Route one sums the integers |G_i| * (r - dim V^{G_i}) over i >= 1, one
    term per run of equal G_i, and divides by |G_0| once; route two sums
    phi(u_j) times the multiplicity dims[j] - dims[j - 1] over the break
    multiset, whose break 0 has multiplicity dim V^{G_1}.  They telescope
    to dims[-1] = r.
    """
    _check_pair(rep, filt)
    jumps = filt.positive_jumps()
    dims = [rep.fixed_dim(filt.subgroup_at(u)) for u in jumps] + [rep.r]
    total = _ratio(sum(  # G_i = G_u for prev < i <= u
        (u - prev) * filt.order_at(u) * (rep.r - dim) for prev, u, dim in zip([0, *jumps], jumps, dims)
    ), filt.order_at(0))
    phi = herbrand_phi(filt)
    per_jump = tuple(
        (phi.evaluate(u), after - dim)
        for u, dim, after in zip(jumps, dims, dims[1:])
        if after != dim
    )
    breaks = ((_ratio(0), dims[0]),) + per_jump if dims[0] else per_jump
    by_breaks = sum(lam * mult for lam, mult in breaks)
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
    return _ratio(u * len(sub) * rep.r, filt.order_at(0))


# ---------------------------------------------------------------------------
# Tower statements.


def _check_intermediate(cover: GaloisCover) -> None:
    if cover.intermediate is None:
        raise PreconditionFailed("cover has no marked intermediate field")


def tower_filtrations(cover: GaloisCover) -> tuple[RamFiltration, RamFiltration]:
    """Filtrations of G = Gal(L/K) and of H = Gal(L/K'), for the cover's
    marked intermediate field K', both on G's indices: H_i is G_i meet H
    (Herbrand), so H's breaks are G's on H."""
    _check_intermediate(cover)
    bt, H = lower_break_table(cover), set(cover.intermediate.H_indices)
    # H is normal (K'/K is Galois); BreakTable's conjugation check proves it again.
    bt_h = BreakTable(bt.group, {g: v for g, v in bt.i_map.items() if g in H})
    return filtration_from_breaks(bt, cover.p), filtration_from_breaks(bt_h, cover.p)


PullbackReport = namedtuple("PullbackReport", "sw_base sw_prime degree holds equality")


def pullback_bound_check(cover: GaloisCover, rep: Representation, filt, filt_h) -> PullbackReport:
    """Sw over K' against [K':K] Sw over K, ``(filt, filt_h) = tower_filtrations(cover)``.
    ``filt_h`` is H's filtration on G's indices, so Sw over K' is that of
    ``rep`` itself against it: only the elements of H enter."""
    _check_intermediate(cover)
    if not _same_group(rep.group, cover.group):
        raise GroupMismatch("representation is not on the cover group")
    degree = cover.group.n // len(cover.intermediate.H_indices)
    sw_base = swan_conductor(rep, filt).swan
    sw_prime = swan_conductor(rep, filt_h).swan
    if filt.order_at(0) != cover.group.n or filt_h.subgroup_at(0) != frozenset(cover.intermediate.H_indices):
        raise GroupMismatch("filtrations are not those of G and H")
    bound = degree * sw_base
    return PullbackReport(sw_base, sw_prime, degree, sw_prime <= bound, sw_prime == bound)


class TransitivityReport(namedtuple("TransitivityReport", "points residuals quotient_matches")):
    """``quotient_matches``: the filtration of G/H through (G/H)_{phi_H(u)}
    = G_u H / H has the subgroup orders of the tame layer's own.  A nonzero
    residual raises, so a returned report has every residual zero."""

    __slots__ = ()


def phi_transitivity_check(cover: GaloisCover, filt, filt_h, filt_low) -> TransitivityReport:
    """phi_{L/K} = phi_{K'/K} o phi_{L/K'} at breakpoints and small integers,
    with ``(filt, filt_h) = tower_filtrations(cover)`` and ``filt_low`` the
    filtration of the tame layer ``cover.intermediate.lower``.

    Both sides are computed from independent break data: the left from the
    full cover, the right from H's breaks on G's indices and from the tame
    layer's own series.  The quotient filtration by Herbrand's theorem is
    checked against the tame layer's too.
    """
    _check_intermediate(cover)
    phi_full = herbrand_phi(filt)
    phi_up = herbrand_phi(filt_h)
    phi_low = herbrand_phi(filt_low)

    points = {u for u, _ in phi_full.breakpoints}
    points |= {u for u, _ in phi_up.breakpoints}
    points |= {_ratio(v) for v in range(filt.i_max + 3)}
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
