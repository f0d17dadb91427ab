"""Explicit Galois covers of k((t)) and their break data.

Three families are built here, all totally ramified:

* degree-p wild covers  y^p - y = f(t)  with a pole of order m prime to p,
* tame cyclic covers    s^m = t         with m | p^a - 1 (m = 1: K itself),
* their composita       (group Z/p x Z/m), which build their tame layer
  and keep it marked as an intermediate field.

For the wild family the uniformizer is s = t^a * y^b where a*p - b*m = 1
and b is the least non-negative solution.  The expansion of t in s is
obtained by Newton lifting from the algebraic relation E(s, t) = 0, where
E is the product of (Z - image of s) over the deck transformations.  Its
Z-coefficients are the elementary symmetric functions of the conjugates
t^a (y + j)^b, computed as series in t from their power sums by Newton's
identities (the power sums of the y + j follow a linear recurrence in f),
so y never appears in them.  The expansion of y follows from
y^b = s * t^{-a} by extracting a b-th root.  Everything downstream
(action series, break numbers) is then honest series arithmetic.  The
builders check the defining relation and what each generator does to t
and y (for a tower, to s' and y); the builder docstrings prove that these
imply the group law and invariance of t, which the tests check in full.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import (
    MismatchDetected,
    NotGaloisOverBase,
    PoleOrderDivisibleByP,
    PrecisionExhausted,
    SizeCapExceeded,
)
from .fields import FieldElement, FiniteField
from .groups import FiniteGroup
from .series import DEFAULT_PRECISION, LaurentSeries, compose, hensel_lift_root, nth_root_of_unit, precision_cap


class TowerParts(NamedTuple):
    """Marked intermediate data of a compositum tower."""

    lower: "GaloisCover"        # tame cover of the base, group Gal(K'/K)
    H_indices: tuple[int, ...]  # Gal(L/K') inside the full group


class GaloisCover:
    """A finite Galois extension L/K with explicit series data.

    ``sigma_action[i]`` is the series sigma_i(s) in s; ``t_in_s`` expresses
    the base uniformizer in s and is fixed by the whole group.  Every cover
    is totally ramified, so e = [L:K] = ``group.n``.
    """

    __slots__ = (
        "base_field",
        "p",
        "group",
        "t_in_s",
        "sigma_action",
        "prec",
        "intermediate",
        "_rebuild",
    )

    def __init__(
        self,
        *,
        base_field: FiniteField,
        group: FiniteGroup,
        t_in_s: LaurentSeries,
        sigma_action: dict[int, LaurentSeries],
        prec: int,
        intermediate: TowerParts | None = None,
        rebuild: Callable[[int], "GaloisCover"] | None = None,
    ):
        self.base_field = base_field
        self.p = base_field.p
        self.group = group
        self.t_in_s = t_in_s
        self.sigma_action = dict(sigma_action)
        self.prec = prec
        self.intermediate = intermediate
        self._rebuild = rebuild

    def rebuild(self, prec: int) -> "GaloisCover":
        if self._rebuild is None:
            raise PrecisionExhausted("cover cannot be rebuilt at higher precision")
        return self._rebuild(prec)

    def __repr__(self) -> str:
        return f"GaloisCover(degree={self.group.n})"


class BreakTable:
    """i(sigma) = v_L(sigma(s) - s) for each nontrivial deck transformation.

    Invariance i(g s g^-1) = i(s) is checked for g in ``group.generators()``
    only (the identity for the trivial group).  That suffices: conjugation
    by g is injective, so it permutes the keys and keeps the values; by a
    word, it is the composite of the conjugations by its letters; and every
    element is a positive word in the generators (inverses are positive
    powers in a finite group).
    """

    __slots__ = ("group", "i_map")

    def __init__(self, group: FiniteGroup, i_map: dict[int, int]):
        for i, v in i_map.items():
            if v < 1:
                raise MismatchDetected(f"break value {v} < 1 at {group.labels[i]}")
        for t in group.generators() or [group.identity]:
            if any(i_map.get(group.conjugate(t, s)) != v for s, v in i_map.items()):
                raise MismatchDetected("break numbers are not conjugation-invariant")
        self.group = group
        self.i_map = dict(i_map)

    def by_label(self) -> dict[str, int]:
        return {self.group.labels[i]: v for i, v in sorted(self.i_map.items())}


# ---------------------------------------------------------------------------
# Artin-Schreier covers.


def artin_schreier_reduce(f: LaurentSeries) -> LaurentSeries:
    """Normalize the defining function so its pole order is prime to p.

    Pole terms of order divisible by p are removed by f -> f - (g^p - g);
    if the pole disappears entirely the datum defines no totally ramified
    degree-p cover and PoleOrderDivisibleByP is raised.
    """
    field = f.field
    p = field.p
    if not f.is_exact:
        raise PrecisionExhausted("cover datum must be an exact series")
    while True:
        if f.is_exact_zero() or f.valuation() >= 0:
            raise PoleOrderDivisibleByP(
                "function reduces to one without poles; the cover degenerates"
            )
        m = -f.valuation()
        if m % p != 0:
            return f
        c = f.coeff(-m)
        g = LaurentSeries.monomial(field, c.pth_root(), -m // p)
        f = f - (g ** p - g)


def _conjugate_elementary(f: LaurentSeries, a_exp: int, b: int) -> list[LaurentSeries]:
    """e_0, ..., e_p of the conjugates c_j = t^a (y + j)^b of s, as series in t.

    Every root r = y + j of X^p - X - f satisfies r^p = r + f, so the power
    sums S_n = sum_j (y + j)^n obey S_n = S_{n-p+1} + f * S_{n-p}, starting
    from S_0 = ... = S_{p-2} = 0 and S_{p-1} = -1.  The conjugates have power
    sums P_k = t^{ak} S_{bk}, and Newton's identities
    k e_k = sum_{i=1}^{k} (-1)^{i-1} e_{k-i} P_i give e_k for k < p, where k
    is invertible.  e_p is the norm t^{ap} ((-1)^{p+1} f)^b = t^{ap} f^b
    (the sign is 1 for odd p and -1 = 1 for p = 2).
    """
    field = f.field
    p = field.p
    zero = LaurentSeries.zero(field)
    sums = [zero] * (p - 1) + [-LaurentSeries.one(field)]
    for n in range(p, b * (p - 1) + 1):
        sums.append(sums[n - p + 1] + f * sums[n - p])
    power = [None] + [sums[b * k].shift(a_exp * k) for k in range(1, p)]
    e = [LaurentSeries.one(field)]
    for k in range(1, p):
        acc = zero
        for i in range(1, k + 1):
            term = e[k - i] * power[i]
            acc = acc + term if i % 2 else acc - term
        e.append(acc.scale(field.from_int(k).inverse()))
    e.append((f ** b).shift(a_exp * p))
    return e


def _relation_polynomial(f: LaurentSeries, a_exp: int, b: int) -> list[LaurentSeries]:
    """Coefficients d_k(s) of the relation P(t) = 0 satisfied by t over k((s)).

    P(Z) = prod_j (Z - c_j) over the conjugates of s is
    sum_k (-1)^k e_k Z^{p-k}, with e_k polynomials in t (see
    ``_conjugate_elementary``); regrouping by powers of t gives polynomial
    coefficients in s.
    """
    field = f.field
    p = field.p
    by_t: dict[int, dict[int, FieldElement]] = {}
    for k, e_k in enumerate(_conjugate_elementary(f, a_exp, b)):
        for t_exp, c in (e_k if k % 2 == 0 else -e_k).support():
            if t_exp < 0:
                raise MismatchDetected("relation coefficient has a pole")
            by_t.setdefault(t_exp, {})[p - k] = c
    return [
        LaurentSeries.from_terms(field, by_t.get(k, {})) for k in range(max(by_t) + 1)
    ]


def _check_zero(series: LaurentSeries, what: str) -> None:
    if not series.is_zero_known():
        raise MismatchDetected(f"consistency check failed: {what}")


def _check_work(p: int, f: LaurentSeries, prec: int | None, tame: int = 1) -> None:
    """Refuse a wild build over ``precision_cap()``: an explicit ``prec``
    above it, or a Newton-lift window p + pole + 4 above it, where pole is
    ``tame`` times the pole order of f as given (reduction only lowers it).
    The default precision is not checked, so it passes under any cap."""
    cap = precision_cap()
    pole = 0 if f.is_zero_known() else tame * max(0, -f.valuation())
    if prec is not None and prec > cap:
        raise SizeCapExceeded(f"precision {prec} exceeds the precision cap {cap}")
    if p + pole + 4 > cap:
        raise SizeCapExceeded(
            f"pole order {pole} needs precision {p + pole + 4}, over the precision cap {cap}"
        )


def build_artin_schreier(
    base: FiniteField, f: LaurentSeries, prec: int | None = None
) -> GaloisCover:
    """Totally ramified degree-p cover defined by y^p - y = f.

    The pole order m of the reduced f is prime to p; the deck group is
    Z/p acting by y -> y + j, and every break equals m + 1.  The work is
    checked against the precision cap before any series work.

    Self-checks: the relation y^p - y = f(t), and sigma(t) = t and
    sigma(y) = y + 1 for sigma: F -> F(action[1]), a continuous k-algebra
    map as v(action[1]) = 1.  They imply the group law: sigma sends
    action[i] = t^a (y + i)^b to t^a (y + i + 1)^b = action[i + 1], and
    y + p = y closes the cycle at t^a y^b = s.  So sigma^i(s) = action[i],
    sigma^i(t) = t, and, as a continuous map is fixed by the image of s,
    action[1](action[i]) = sigma^i(sigma(s)) = action[i + 1].
    Precision: t is known to O(s^N), N the working precision, that is to
    relative precision R = N - p; y and each action[i] keep R (a product
    keeps the smaller one), so action[i] is known mod s^(1 + R).  The two
    checks hold to relative precision R, so sigma(action[i]) = action[i + 1]
    mod s^(1 + R); sigma keeps congruences mod s^k, and action[1] taken at
    action[i] moves by a multiple of action[i] - sigma^i(s).  So the law
    holds mod s^(1 + R), all that the full check can see, and t is fixed
    mod s^(p + R), the precision of t.
    """
    if f.field != base:
        raise NotGaloisOverBase("defining function is not over the base field")
    _check_work(base.p, f, prec)
    return _artin_schreier(base, f, prec)[0]


def _artin_schreier(
    base: FiniteField, f: LaurentSeries, prec: int | None
) -> tuple[GaloisCover, LaurentSeries, int]:
    """(cover, y in s, a) for ``build_artin_schreier``'s cover of f over
    base, s = t^a y^b; the caller has checked f's field and the work."""
    p = base.p
    f = artin_schreier_reduce(f)
    m = -f.valuation()
    c = f.coeff(-m)

    b = next(bb for bb in range(1, p) if (1 + bb * m) % p == 0)
    a_exp = (1 + b * m) // p
    tau = c.inverse() ** b
    eta = c ** a_exp

    requested = prec if prec is not None else DEFAULT_PRECISION
    target = max(requested, p + m + 4)

    coeffs = _relation_polynomial(f, a_exp, b)
    x0 = LaurentSeries.monomial(base, tau, p)
    t_in_s = hensel_lift_root(coeffs, x0, target)
    if t_in_s.valuation() != p or t_in_s.coeff(p) != tau:
        raise MismatchDetected("lifted base uniformizer does not start with the seed")

    s_mono = LaurentSeries.uniformizer(base)
    t_pow = t_in_s ** a_exp
    w = s_mono * t_pow.inverse()  # equals y^b
    unit = w * LaurentSeries.monomial(base, (eta ** b).inverse(), b * m)
    root = unit if b == 1 else nth_root_of_unit(unit, b)
    y_in_s = root.shift(-m).scale(eta)

    _check_zero(y_in_s ** p - y_in_s - compose(f, t_in_s), "defining relation of y")

    group = FiniteGroup.cyclic(p, "sigma")
    action: dict[int, LaurentSeries] = {0: s_mono}
    for j in range(1, p):
        yj = y_in_s + LaurentSeries.constant(base, base.from_int(j))
        a_j = t_pow * (yj ** b)
        if a_j.valuation() != 1:
            raise MismatchDetected("action series is not a uniformizer")
        action[j] = a_j

    # The generator fixes t and shifts y; the docstring derives the law.
    _check_zero(compose(t_in_s, action[1]) - t_in_s, "t is not fixed")
    _check_zero(compose(y_in_s, action[1]) - y_in_s - LaurentSeries.one(base), "y + 1 action")

    cover = GaloisCover(
        base_field=base,
        group=group,
        t_in_s=t_in_s,
        sigma_action=action,
        prec=target,
        rebuild=lambda pr, _base=base, _f=f: build_artin_schreier(_base, _f, prec=pr),
    )
    return cover, y_in_s, a_exp


# ---------------------------------------------------------------------------
# Tame cyclic covers.


def build_kummer(base: FiniteField, m: int, prec: int | None = None) -> GaloisCover:
    """Tame cover s^m = t, the identity extension when m = 1; requires the
    m-th roots of unity in the base."""
    if m < 1:
        raise NotGaloisOverBase("tame degree must be at least 1")
    zeta = base.root_of_unity(m)
    action = {k: LaurentSeries.monomial(base, zeta ** k, 1) for k in range(m)}
    return GaloisCover(
        base_field=base,
        group=FiniteGroup.cyclic(m, "tau"),
        t_in_s=LaurentSeries.monomial(base, base.one(), m),
        sigma_action=action,
        prec=prec if prec is not None else DEFAULT_PRECISION,
        rebuild=lambda pr, _base=base, _m=m: build_kummer(_base, _m, prec=pr),
    )


# ---------------------------------------------------------------------------
# Composita.


def build_compositum_tower(
    base: FiniteField, m: int, upper_f: LaurentSeries, prec: int | None = None
) -> GaloisCover:
    """Compositum of the tame layer s'^m = t, built by ``build_kummer``, with
    the wild layer y^p - y = upper_f pulled back from K.

    The result is Galois over K with group Z/p x Z/m; the tame layer stays
    marked so transitivity and pullback statements can be tested against it.
    It is built first, so missing roots of unity are refused before the work
    is checked against the precision cap, and both before any series work.

    Self-checks: the wild layer's build checks that sigma: F -> F(action[m])
    (its sigma_action[1]) fixes s' and sends y to y + 1; for m > 1, two
    more compositions check that tau: F -> F(action[1]), action[1] =
    zeta^a s, sends s' to zeta s' and fixes y.  They imply the rest.
    s = s'^a y^b, so a continuous k-algebra map is fixed by its images of
    s' and y, and psi_(j,k): s' -> zeta^k s', y -> y + j is sigma^j tau^k
    in either order.  It sends s to zeta^(ak) sigma_j(s) = action[j m + k]
    and t = s'^m to (zeta^k s')^m = t, and these maps compose by adding
    (j, k) mod (p, m) (zeta^m = 1, y + p = y): the product of
    ``FiniteGroup.direct_product`` on the index j m + k.  tau is an exact
    stretch, so as in ``build_artin_schreier`` the law holds mod s^(1 + R)
    and t is fixed mod s^(p m + R), R the wild layer's relative precision.
    """
    lower = build_kummer(base, m, prec=prec)
    if upper_f.field != base:
        raise NotGaloisOverBase("wild datum is not over the base field")
    p = base.p
    _check_work(p, upper_f, prec, tame=m)
    zeta = base.root_of_unity(m)

    pulled = compose(upper_f, lower.t_in_s)
    upper, y_in_s, a_exp = _artin_schreier(base, pulled, prec)
    s_prime = upper.t_in_s

    group = FiniteGroup.direct_product(upper.group, lower.group)
    t_in_s = s_prime ** m
    if t_in_s.valuation() != p * m:
        raise MismatchDetected("base uniformizer has wrong valuation in the tower")

    action: dict[int, LaurentSeries] = {}
    for j in range(p):
        for k in range(m):
            action[j * m + k] = upper.sigma_action[j].scale(zeta ** (a_exp * k))

    if m > 1:
        tame = compose(s_prime, action[1]) - s_prime.scale(zeta)
        _check_zero(tame, "tame action on the intermediate uniformizer")
        _check_zero(compose(y_in_s, action[1]) - y_in_s, "tame action on y")

    return GaloisCover(
        base_field=base,
        group=group,
        t_in_s=t_in_s,
        sigma_action=action,
        prec=upper.prec,
        intermediate=TowerParts(lower, tuple(range(0, p * m, m))),
        rebuild=lambda pr, _base=base, _m=m, _f=upper_f: build_compositum_tower(
            _base, _m, _f, prec=pr
        ),
    )


# ---------------------------------------------------------------------------
# Break data.


def _break_table_once(cover: GaloisCover) -> BreakTable:
    s_mono = LaurentSeries.uniformizer(cover.base_field)
    i_map: dict[int, int] = {}
    for i in range(cover.group.n):
        if i == cover.group.identity:
            continue
        diff = cover.sigma_action[i] - s_mono
        if diff.is_exact_zero():
            raise NotGaloisOverBase("action is not faithful")
        if diff.is_zero_known():
            raise PrecisionExhausted(
                f"break of {cover.group.labels[i]} exceeds O(s^{diff.abs_prec})"
            )
        i_map[i] = diff.valuation()
    return BreakTable(cover.group, i_map)


def lower_break_table(cover: GaloisCover) -> BreakTable:
    """Break numbers of the cover, escalating precision when needed."""
    cap = precision_cap()
    current = cover
    while True:
        try:
            return _break_table_once(current)
        except PrecisionExhausted:
            nxt = max(current.prec * 2, 8)
            if nxt > cap:
                raise
            current = current.rebuild(nxt)
