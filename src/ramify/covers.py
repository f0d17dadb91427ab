"""Explicit Galois covers of k((t)) and their break data.

Three families are built here, all totally ramified:

* degree-p wild covers  y^p - y = f(t)  with a pole of order m prime to p,
* tame cyclic covers    s^m = t         with gcd(m, p) = 1,
* their composita       (group Z/p x Z/m), with the tame layer marked as an
  intermediate field.

For the wild family the uniformizer is s = t^a * y^b where a*p - b*m = 1
and b is the least non-negative solution.  The expansion of t in s is
obtained by Newton lifting from the algebraic relation E(s, t) = 0, where
E is the product of (Z - image of s) over the deck transformations,
expanded in the basis 1, y, ..., y^{p-1}; the expansion of y follows from
y^b = s * t^{-a} by extracting a b-th root.  Everything downstream
(action series, break numbers) is then honest series arithmetic, and the
builder cross-checks the defining relation, the group law on generators,
and invariance of t before returning.
"""

from __future__ import annotations

from math import comb
from typing import Callable

from .errors import (
    MismatchDetected,
    NotGaloisOverBase,
    PoleOrderDivisibleByP,
    PrecisionExhausted,
)
from .fields import FieldElement, FiniteField
from .groups import FiniteGroup
from .series import DEFAULT_PRECISION, LaurentSeries, compose, hensel_lift_root, nth_root_of_unit, precision_cap


class TowerParts:
    """Marked intermediate data of a compositum tower."""

    __slots__ = ("lower", "upper", "H_indices", "proj_to_lower")

    def __init__(self, lower, upper, H_indices, proj_to_lower):
        self.lower = lower                  # tame cover of the base, group Gal(K'/K)
        self.upper = upper                  # wild cover of K', group Gal(L/K')
        self.H_indices = tuple(H_indices)   # Gal(L/K') inside the full group
        self.proj_to_lower = tuple(proj_to_lower)


class GaloisCover:
    """A finite Galois extension L/K with explicit series data.

    ``sigma_action[i]`` is the series sigma_i(s) in s; ``t_in_s`` expresses
    the base uniformizer in s and is fixed by the whole group.
    """

    __slots__ = (
        "base_field",
        "p",
        "group",
        "t_in_s",
        "sigma_action",
        "e",
        "degree",
        "kind",
        "prec",
        "intermediate",
        "_rebuild",
        "_y_in_s",
        "_a_exp",
        "_b",
        "_m",
        "_zeta",
    )

    def __init__(
        self,
        *,
        base_field: FiniteField,
        group: FiniteGroup,
        t_in_s: LaurentSeries,
        sigma_action: dict[int, LaurentSeries],
        e: int,
        degree: int,
        kind: str,
        prec: int,
        intermediate: TowerParts | None = None,
        rebuild: Callable[[int], "GaloisCover"] | None = None,
        y_in_s: LaurentSeries | None = None,
        a_exp: int | None = None,
        b: int | None = None,
        m: int | None = None,
        zeta: FieldElement | None = None,
    ):
        self.base_field = base_field
        self.p = base_field.p
        self.group = group
        self.t_in_s = t_in_s
        self.sigma_action = dict(sigma_action)
        self.e = e
        self.degree = degree
        self.kind = kind
        self.prec = prec
        self.intermediate = intermediate
        self._rebuild = rebuild
        self._y_in_s = y_in_s
        self._a_exp = a_exp
        self._b = b
        self._m = m
        self._zeta = zeta

    def rebuild(self, prec: int) -> "GaloisCover":
        if self._rebuild is None:
            raise PrecisionExhausted("cover cannot be rebuilt at higher precision")
        return self._rebuild(prec)

    def __repr__(self) -> str:
        return f"GaloisCover({self.kind}, degree={self.degree}, e={self.e})"


class BreakTable:
    """i(sigma) = v_L(sigma(s) - s) for each nontrivial deck transformation."""

    __slots__ = ("group", "i_map")

    def __init__(self, group: FiniteGroup, i_map: dict[int, int]):
        for i, v in i_map.items():
            if v < 1:
                raise MismatchDetected(f"break value {v} < 1 at {group.labels[i]}")
        for t in range(group.n):
            for s, v in i_map.items():
                c = group.conjugate(t, s)
                if i_map.get(c) != v:
                    raise MismatchDetected(
                        "break numbers are not conjugation-invariant"
                    )
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


def _binomial_coeff(field: FiniteField, b: int, i: int, j: int) -> FieldElement:
    """C(b, i) * j^{b-i} as an element of the prime subfield."""
    return field.from_int(comb(b, i) * pow(j, b - i))


def _conjugate_poly(field: FiniteField, a_exp: int, b: int, j: int, p: int):
    """t^a * (y + j)^b in the basis 1, y, ..., y^{p-1}; x tracks t."""
    elem = [dict() for _ in range(p)]
    for i in range(b + 1):
        c = _binomial_coeff(field, b, i, j)
        if c:
            elem[i][a_exp] = c
    return elem


def _rp_reduce(elem, f_terms, p):
    """Reduce y-degree below p using y^p = y + f."""
    while len(elem) > p:
        top = elem.pop()
        k = len(elem) - p  # the removed slot had y-degree len(elem)
        up, low = elem[k + 1], elem[k]
        # y^{p+k} = y^{k+1} + f * y^k
        for exp, c in top.items():
            up[exp] = up[exp] + c if exp in up else c
        for fe, fc in f_terms.items():
            for exp, c in top.items():
                key = exp + fe
                prod = fc * c
                low[key] = low[key] + prod if key in low else prod
    return elem


def _rp_mul(u, v, f_terms, p, field):
    out = [dict() for _ in range(len(u) + len(v) - 1)]
    for du, tu in enumerate(u):
        for eu, cu in tu.items():
            if not cu:
                continue
            for dv, tv in enumerate(v):
                for ev, cv in tv.items():
                    if not cv:
                        continue
                    slot = out[du + dv]
                    key = eu + ev
                    prod = cu * cv
                    if key in slot:
                        slot[key] = slot[key] + prod
                    else:
                        slot[key] = prod
    out = _rp_reduce(out, f_terms, p)
    while len(out) < p:
        out.append(dict())
    return [
        {e: c for e, c in slot.items() if c} for slot in out[:p]
    ]


def _rp_sub(u, v):
    out = []
    for tu, tv in zip(u, v):
        slot = dict(tu)
        for e, c in tv.items():
            if e in slot:
                s = slot[e] - c
                if s:
                    slot[e] = s
                else:
                    del slot[e]
            else:
                slot[e] = -c
        out.append(slot)
    return out


def _relation_polynomial(field: FiniteField, f: LaurentSeries, a_exp: int, b: int):
    """Coefficients d_k(s) of the relation P(t) = 0 satisfied by t over k((s)).

    P is assembled from the product of (Z - conjugate of s) over the deck
    group, expanded in the y-basis; its Z^i coefficients are polynomials in
    t, and regrouping by powers of t gives polynomial coefficients in s.
    """
    p = field.p
    f_terms = dict(f.support())
    one = [dict() for _ in range(p)]
    one[0][0] = field.one()
    # prod accumulates the Z-coefficients, each an element of the y-basis ring.
    prod = [one]
    for j in range(p):
        conj = _conjugate_poly(field, a_exp, b, j, p)
        new = []
        for k in range(len(prod) + 1):
            term = [dict() for _ in range(p)]
            if k > 0:
                term = prod[k - 1]
            if k < len(prod):
                term = _rp_sub(term, _rp_mul(prod[k], conj, f_terms, p, field))
            new.append(term)
        prod = new
    lead = prod[p]
    if any(lead[d] for d in range(1, p)) or lead[0] != {0: field.one()}:
        raise MismatchDetected("relation product is not monic")
    by_t: dict[int, dict[int, FieldElement]] = {}
    for i in range(p):
        q_i = prod[i]
        for d in range(1, p):
            if q_i[d]:
                raise MismatchDetected("relation coefficient has residual y part")
        for t_exp, c in q_i[0].items():
            if t_exp < 0:
                raise MismatchDetected("relation coefficient has a pole")
            by_t.setdefault(t_exp, {})[i] = c
    by_t.setdefault(0, {})[p] = field.one()  # the Z^p term
    top = max(by_t)
    coeffs = []
    for k in range(top + 1):
        coeffs.append(LaurentSeries.from_terms(field, by_t.get(k, {})))
    return coeffs


def _check_zero(series: LaurentSeries, what: str) -> None:
    if not series.is_zero_known():
        raise MismatchDetected(f"consistency check failed: {what}")


def build_artin_schreier(
    base: FiniteField, f: LaurentSeries, prec: int | None = None
) -> GaloisCover:
    """Totally ramified degree-p cover defined by y^p - y = f.

    The pole order m of the reduced f is prime to p; the deck group is
    Z/p acting by y -> y + j, and every break equals m + 1.
    """
    if f.field != base:
        raise NotGaloisOverBase("defining function is not over the base field")
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

    coeffs = _relation_polynomial(base, f, a_exp, b)
    x0 = LaurentSeries.monomial(base, tau, p)
    t_in_s = hensel_lift_root(coeffs, x0, target)
    if t_in_s.valuation() != p:
        raise MismatchDetected("lifted base uniformizer has wrong valuation")

    s_mono = LaurentSeries.uniformizer(base)
    w = s_mono * (t_in_s.inverse() ** a_exp)  # equals y^b
    unit = w * LaurentSeries.monomial(base, (eta ** b).inverse(), b * m)
    root = unit if b == 1 else nth_root_of_unit(unit, b, p)
    y_in_s = root.shift(-m).scale(eta)

    _check_zero(
        (y_in_s ** p) - y_in_s - compose(f, t_in_s),
        "defining relation of y",
    )

    group = FiniteGroup.cyclic(p, "sigma")
    t_pow = t_in_s ** a_exp
    action: dict[int, LaurentSeries] = {0: s_mono}
    for j in range(1, p):
        yj = y_in_s + LaurentSeries.constant(base, base.from_int(j))
        a_j = t_pow * (yj ** b)
        if a_j.valuation() != 1:
            raise MismatchDetected("action series is not a uniformizer")
        action[j] = a_j

    # Group law on the generator, and invariance of the base uniformizer.
    for i in range(p):
        expected = action[(i + 1) % p]
        _check_zero(compose(action[1], action[i]) - expected, "group law")
    _check_zero(compose(t_in_s, action[1]) - t_in_s, "t is not fixed")
    _check_zero(
        compose(y_in_s, action[1])
        - (y_in_s + LaurentSeries.constant(base, base.from_int(1))),
        "y + 1 action",
    )

    return GaloisCover(
        base_field=base,
        group=group,
        t_in_s=t_in_s,
        sigma_action=action,
        e=p,
        degree=p,
        kind="artin_schreier",
        prec=target,
        rebuild=lambda pr, _base=base, _f=f: build_artin_schreier(_base, _f, prec=pr),
        y_in_s=y_in_s,
        a_exp=a_exp,
        b=b,
        m=m,
    )


# ---------------------------------------------------------------------------
# Tame cyclic covers.


def build_kummer(base: FiniteField, m: int, prec: int | None = None) -> GaloisCover:
    """Tame cover s^m = t; requires the m-th roots of unity in the base."""
    if m < 2:
        raise NotGaloisOverBase("tame degree must be at least 2")
    zeta = base.root_of_unity(m)
    group = FiniteGroup.cyclic(m, "tau")
    t_in_s = LaurentSeries.monomial(base, base.one(), m)
    action = {
        k: LaurentSeries.monomial(base, zeta ** k, 1) for k in range(m)
    }
    return GaloisCover(
        base_field=base,
        group=group,
        t_in_s=t_in_s,
        sigma_action=action,
        e=m,
        degree=m,
        kind="kummer",
        prec=prec if prec is not None else DEFAULT_PRECISION,
        rebuild=lambda pr, _base=base, _m=m: build_kummer(_base, _m, prec=pr),
        m=m,
        zeta=zeta,
    )


def trivial_cover(base: FiniteField) -> GaloisCover:
    """The identity extension; used as the degenerate tame layer."""
    group = FiniteGroup.cyclic(1, "tau")
    s_mono = LaurentSeries.uniformizer(base)
    return GaloisCover(
        base_field=base,
        group=group,
        t_in_s=s_mono,
        sigma_action={0: s_mono},
        e=1,
        degree=1,
        kind="trivial",
        prec=DEFAULT_PRECISION,
        rebuild=lambda pr, _base=base: trivial_cover(_base),
        m=1,
        zeta=base.one(),
    )


# ---------------------------------------------------------------------------
# Composita.


def build_compositum_tower(
    lower: GaloisCover, upper_f: LaurentSeries, prec: int | None = None
) -> GaloisCover:
    """Compositum of a tame layer K'/K with a wild layer pulled back from K.

    The result is Galois over K with group Z/p x Z/m; the tame layer stays
    marked so transitivity and pullback statements can be tested against it.
    """
    if lower.kind not in ("kummer", "trivial"):
        raise NotGaloisOverBase("lower layer must be a tame cyclic cover")
    base = lower.base_field
    if upper_f.field != base:
        raise NotGaloisOverBase("wild datum is not over the base field")
    m = lower.e
    p = base.p
    zeta = lower._zeta

    pulled = compose(upper_f, LaurentSeries.monomial(base, base.one(), m))
    upper = build_artin_schreier(base, pulled, prec=prec)
    a_exp = upper._a_exp
    s_prime = upper.t_in_s
    y_in_s = upper._y_in_s

    group = FiniteGroup.direct_product(
        FiniteGroup.cyclic(p, "sigma"), FiniteGroup.cyclic(m, "tau")
    )
    t_in_s = s_prime ** m
    if t_in_s.valuation() != p * m:
        raise MismatchDetected("base uniformizer has wrong valuation in the tower")

    action: dict[int, LaurentSeries] = {}
    for j in range(p):
        for k in range(m):
            action[j * m + k] = upper.sigma_action[j].scale(zeta ** (a_exp * k))

    # The tame generator multiplies s' by zeta and fixes y; the wild one
    # fixes s' and shifts y.  Verify all four facts from the series alone.
    tau_idx, sigma_idx = 1 % group.n, m % group.n
    if m > 1:
        _check_zero(
            compose(s_prime, action[tau_idx]) - s_prime.scale(zeta),
            "tame action on the intermediate uniformizer",
        )
        _check_zero(compose(y_in_s, action[tau_idx]) - y_in_s, "tame action on y")
    _check_zero(
        compose(s_prime, action[sigma_idx]) - s_prime,
        "wild action fixes the intermediate uniformizer",
    )
    _check_zero(
        compose(y_in_s, action[sigma_idx])
        - (y_in_s + LaurentSeries.constant(base, base.from_int(1))),
        "wild action on y",
    )
    for gen in {tau_idx, sigma_idx}:
        _check_zero(compose(t_in_s, action[gen]) - t_in_s, "t is not fixed")
        for i in range(group.n):
            expected = action[group.product(i, gen)]
            _check_zero(compose(action[gen], action[i]) - expected, "group law")

    parts = TowerParts(
        lower=lower,
        upper=upper,
        H_indices=[j * m for j in range(p)],
        proj_to_lower=[k for j in range(p) for k in range(m)],
    )
    return GaloisCover(
        base_field=base,
        group=group,
        t_in_s=t_in_s,
        sigma_action=action,
        e=p * m,
        degree=p * m,
        kind="tower",
        prec=upper.prec,
        intermediate=parts,
        rebuild=lambda pr, _lo=lower, _f=upper_f: build_compositum_tower(
            _lo, _f, prec=pr
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


def lower_break_table(cover: GaloisCover, cap: int | None = None) -> BreakTable:
    """Break numbers of the cover, escalating precision when needed."""
    if cap is None:
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
