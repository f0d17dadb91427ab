"""Explicit Galois covers of k((t)) and their break data.

Three families are built here, all totally ramified:

* degree-p wild covers  y^p - y = f(t)  with a pole of order M prime to p,
* tame cyclic covers    s^m = t         with m | p^a - 1 (m = 1: K itself),
* their composita       (group Z/p x Z/m), which build their tame layer
  and keep it marked as an intermediate field (the cached Kummer cover).

A wild layer is built once, over K, in the uniformizer sigma = t^a y^(bm)
of K(y), where a p - b m M = 1 and b is least: m = 1 for a wild cover,
whose s is sigma, and a tower's s has s^m = sigma (e is multiplicative in
towers).  With c the leading coefficient of f, tau = c^(-bm) and eta = c^a,
t = tau sigma^p u^(bm) and y = eta sigma^-M u^-a give t^a y^(bm) = sigma
for every unit u, so no root is taken.  The builder Newton-lifts u from 1
on one equation with a unit derivative (von zur Gathen & Gerhard, Modern
Computer Algebra, 9.4): G(u) = sigma^(pM) (y^p - y - f(t)), whose
derivative sigma^(pM) (a y - b m t f'(t)) / u (y^p has derivative 0) is a
unit, as v(t f'(t)) = -pM, v(y) = -M and p divides neither b nor m;
v(G(1)) >= 1, as eta^p = c tau^-M.  Each series in s is the stretch
sigma -> s^m of one in sigma: t, and the unit of each action
zeta^(ak) s (1 + j/y)^b, twisted by zeta^(ak) before it is stretched.
With R_sigma the relative precision of the lift, the p - 1 units
(1 + j z)^b, z = 1/y, are binomial sums: v(z^i) = i M, so the terms with
i M >= R_sigma vanish mod sigma^R_sigma, and all p - 1 sums come from one
Paterson-Stockmeyer pass that shares the powers of z
(``series._evaluate_at``).  f is read only as far as it reaches the window
(``_artin_schreier``), and the rest is honest series arithmetic.

The wild layer is checked by its arithmetic, not by composing series.
Besides the seed, the builder checks y^p - y = f(t), y z = 1,
t^a y^(bm) = sigma and the unit of j = 1 against (1 + z)^b, each to
relative precision R_sigma.  They make sigma -> sigma (1 + z)^(bm) the
wild generator y -> y + 1 (Serre, Local Fields, GTM 67, IV 1-2):

* G' is a unit, so G has one root u* = 1 + O(sigma) in k[[sigma]]; with
  its t and y, y^p - y = f(t), t^a y^(bm) = sigma and v(t) = p.  So
  K = k((t)) has index e = p in k((sigma)), which is L = K(y), and sigma
  is a uniformizer of L.
* psi: y -> y + 1 is a K-automorphism of L, as (y + 1)^p - (y + 1) =
  y^p - y.  It keeps v, so it is continuous, and psi(sigma) =
  t^a (y + 1)^(bm) = sigma (1 + z)^(bm).
* A continuous k-algebra map of k((sigma)) is fixed by the image of
  sigma: it sends x(sigma) to x(psi(sigma)).
* The Newton exit, and the relation check, give G(u) = 0 mod
  sigma^R_sigma, so u = u* mod sigma^R_sigma (Hensel uniqueness: G(u) -
  G(u*) is u - u* times a unit, as G' is a unit).  So t is L's mod
  sigma^(p + R_sigma), y is L's to relative precision R_sigma, and so is
  z, by y z = 1.
* phi: sigma -> sigma U_1^m, with U_1 the stored unit of j = 1, equal to
  (1 + z)^b mod sigma^R_sigma, so agrees with psi mod
  sigma^(1 + R_sigma).  Moving sigma by O(sigma^(1 + R_sigma)) moves a
  series of valuation v by O(sigma^(v + R_sigma)), and phi keeps v.  So
  phi(t) = t mod sigma^(p + R_sigma) and phi(y) = y + 1 mod
  sigma^(R_sigma - M): the congruences that the builder once checked by
  composing t and y with phi, and that the builders' docstrings turn
  into the group law and the invariance of t.  The tests check both by
  composition.

t^a y^(bm) = sigma holds for every u by construction, but t and y are
formed from separate powers of u: u^(bm), and u^a, which y and z share.
No other check ties these powers together.  y z = 1 and the unit check
follow z, and the relation reads y only to O(sigma^(R_sigma - pM)), that
is to relative precision R_sigma - (p - 1) M.  The check gives y^(bm) =
sigma t^-a to relative precision R_sigma.  x -> x^(bm) is one-to-one on
the units 1 + sigma k[[sigma]] mod sigma^R_sigma, a p-group, as p does
not divide bm.  So y is fixed by t to relative precision R_sigma up to a
root of unity lambda in k; the relation fixes y's leading term, so
lambda^p = 1 and lambda = 1.  So a wrong power of u shared by y and z is
caught, such as u^(a + 1), which the other checks pass (a test runs it).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb

from .errors import (
    MismatchDetected,
    NotGaloisOverBase,
    PoleOrderDivisibleByP,
    PrecisionExhausted,
    SizeCapExceeded,
)
from .fields import FiniteField
from .groups import FiniteGroup
from .series import PRECISION_CAP, LaurentSeries, _evaluate_at, _stretch, compose, hensel_lift_root


# The largest deck group a cover has: its degree p, m or p * m.  A table
# has n^2 cells and its axiom check takes n^2 * |gens| steps; as one process
# on a 2-CPU Xeon, an Artin-Schreier cover of degree 127 takes about 1 s,
# of degree 251 5.4 s.
GROUP_CAP = 128


class TowerParts(namedtuple("TowerParts", "lower H_indices")):
    """Marked intermediate data of a compositum tower: ``lower`` is the tame
    cover of the base, group Gal(K'/K), and ``H_indices`` are the indices of
    Gal(L/K') inside the full group."""

    __slots__ = ()


class GaloisCover:
    """A finite Galois extension L/K with explicit series data.

    ``sigma_action[i]`` is the series sigma_i(s) in s; ``t_in_s`` expresses
    the base uniformizer in s and is fixed by the whole group.  Every cover
    is totally ramified, so e = [L:K] = ``group.n``.  ``prec`` is the wild
    layer's working precision N; a Kummer cover, whose series are exact,
    stores 1.
    """

    __slots__ = (
        "base_field",
        "p",
        "group",
        "t_in_s",
        "sigma_action",
        "prec",
        "intermediate",
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
    ):
        self.base_field = base_field
        self.p = base_field.p
        self.group = group
        self.t_in_s = t_in_s
        self.sigma_action = dict(sigma_action)
        self.prec = prec
        self.intermediate = intermediate

    def rebuild(self, prec: int) -> "GaloisCover":
        """Always raises (see ``lower_break_table``); kept only while
        ``perfbench/tracer.py`` wraps this name."""
        raise PrecisionExhausted("cover cannot be rebuilt at higher precision")

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


@lru_cache(maxsize=None)
def deck_group(kind: str, p: int, m: int) -> FiniteGroup:
    """The deck group, once a process: Z/p (sigma^j) for an 'artin_schreier'
    cover, Z/m (tau^k) for a 'kummer' one, Z/p x Z/m (index j m + k) for a
    'tower'.  An order over ``GROUP_CAP`` is refused before any table is built."""
    order = p * m if kind == "tower" else p if kind == "artin_schreier" else m
    if order > GROUP_CAP:
        raise SizeCapExceeded(f"deck group of order {order} exceeds the group cap {GROUP_CAP}")
    if kind == "tower":
        return FiniteGroup.direct_product(deck_group("artin_schreier", p, 1), deck_group("kummer", p, m))
    return FiniteGroup.cyclic(p, "sigma") if kind == "artin_schreier" else FiniteGroup.cyclic(m, "tau")


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
        g = LaurentSeries.monomial(field, field.pth_root_key(c), -m // p)
        f = f - (g ** p - g)


def _check_zero(series: LaurentSeries, what: str) -> None:
    if not series.is_zero_known():
        raise MismatchDetected(f"consistency check failed: {what}")


def build_artin_schreier(
    base: FiniteField, f: LaurentSeries, prec: int | None = None
) -> GaloisCover:
    """Totally ramified degree-p cover defined by y^p - y = f.

    The pole order M of the reduced f is prime to p; the deck group is
    Z/p acting by y -> y + j, and every break equals M + 1.  The build
    works at the break window p + M + 4, or at a larger ``prec``, checked
    against the precision cap, and p against ``GROUP_CAP`` before that,
    before any series work.

    Self-checks: the seed, the relation y^p - y = f(t), y z = 1, t^a y^b = s
    and the unit of j = 1 against (1 + z)^b.  By the module docstring they
    make sigma: F -> F(action[1]), a continuous k-algebra map as
    v(action[1]) = 1, the automorphism y -> y + 1 of L = K(y) = k((s)) to
    relative precision R: sigma(t) = t and sigma(y) = y + 1, which the tests
    check by composition.  These imply the group law: sigma sends action[i] =
    t^a (y + i)^b to t^a (y + i + 1)^b = action[i + 1], and y + p = y closes
    the cycle at t^a y^b = s.  So sigma^i(s) = action[i], sigma^i(t) = t,
    and, as a continuous map is fixed by the image of s,
    action[1](action[i]) = sigma^i(sigma(s)) = action[i + 1].
    Precision: f is read only as far as it reaches the working precision N
    (``_artin_schreier``); t is known to O(s^N), that is to
    relative precision R = N - p; y and each action[i] keep R (a product
    keeps the smaller one), so action[i] is known mod s^(1 + R).  The two
    facts hold to relative precision R, so sigma(action[i]) = action[i + 1]
    mod s^(1 + R); sigma keeps congruences mod s^k, and action[1] taken at
    action[i] moves by a multiple of action[i] - sigma^i(s).  So the law
    holds mod s^(1 + R), all that the full check can see, and t is fixed
    mod s^(p + R), the precision of t.
    """
    if f.field != base:
        raise NotGaloisOverBase("defining function is not over the base field")
    group = deck_group("artin_schreier", base.p, 1)
    t_in_s, action, target = _artin_schreier(base, f, prec, 1)
    return GaloisCover(base_field=base, group=group, t_in_s=t_in_s, sigma_action=action, prec=target)


def _artin_schreier(
    base: FiniteField, f: LaurentSeries, prec: int | None, m: int
) -> tuple[LaurentSeries, dict[int, LaurentSeries], int]:
    """(t, {j m + k: zeta^(ak) s (1 + j/y)^b}, N) of the wild layer of f,
    in s with s^m = sigma (module docstring): m is 1, whose one twist is 1,
    for ``build_artin_schreier``, the tame degree for a tower.  The caller
    has checked f's field; ``prec`` and the window p + m M + 4 of f as given
    are checked against the precision cap first.  The lift and its checks
    run in sigma on R_sigma = ceil(R / m) terms, R = N - p; each unit is
    twisted in sigma, placed at stride m in s (``series._stretch``:
    x(sigma) -> x(s^m), a copy when m = 1, with no precision of its own) and
    cut to relative precision R <= m R_sigma, inside what x(s^m) knows.

    The reduced f is cut once, at O(t^K), K = ceil((R_sigma - p M) / p).  In
    sigma, t has valuation p and y^p - y is known to O(sigma^(R_sigma - pM)),
    so a term sigma^(pM) t^e with p (M + e) >= R_sigma changes neither G(u)
    nor G'(u) mod sigma^R_sigma, so no Newton step (each is cut there), nor
    the unique lifted unit u, nor the checked relation.  ``compose`` cuts an
    approximate f at ``f.abs_prec`` p >= R_sigma - p M (f_M at (K + M) p >=
    R_sigma), so every series keeps the precision of the uncut build.

    The unit of sigma_j is (1 + j z)^b = sum_i C(b, i) j^i z^i, z = 1/y of
    valuation M, known to relative precision R_sigma.  As v(z^i) = i M, the
    terms with i M >= R_sigma vanish mod sigma^R_sigma, so each unit is the
    row of keys C(b, i) j^i mod p, i <= K = min(b, floor((R_sigma - 1) / M)),
    evaluated at z cut to O(sigma^R_sigma): one ``_evaluate_at`` call for all
    p - 1 rows.  Each row's coefficient of z is b j != 0 mod p, so each unit
    keeps relative precision R_sigma, as the power did, and equals it under
    ==.  The stored unit of j = 1 is checked against the one power
    (1 + z)^b, b < p, so that row and the cut are checked: a row one term
    short is wrong at sigma^(K M), below R_sigma, and so is a wrong key."""
    p = base.p
    if prec is not None and prec > PRECISION_CAP:
        raise SizeCapExceeded(f"precision {prec} exceeds the precision cap {PRECISION_CAP}")
    given = 0 if f.is_zero_known() else m * max(0, -f.valuation())  # reduction only lowers it
    if p + given + 4 > PRECISION_CAP:
        raise SizeCapExceeded(f"pole order {given} needs precision {p + given + 4}, "
                              f"over the precision cap {PRECISION_CAP}")
    f = artin_schreier_reduce(f)
    pole = -f.valuation()
    c = f.coeff(-pole)
    target = max(prec or 0, p + m * pole + 4)  # the break window (lower_break_table)
    rel = target - p
    rel_sigma = -(-rel // m)
    f = f.truncate(-(-(rel_sigma - p * pole) // p))

    b = next(bb for bb in range(1, p) if (1 + bb * m * pole) % p == 0)
    a_exp, bm = (1 + b * m * pole) // p, b * m
    tau = base.pow_key(c, -bm)
    eta = base.pow_key(c, a_exp)

    # f(t) = f_M(t) t^-M and t f'(t) = theta_M(t) t^-M, with power series f_M, theta_M.
    f_m = f.shift(pole)
    theta_m = LaurentSeries.from_terms(base, {e + pole: base.mul_key(k, e % p) for e, k in f.support()})
    c_inv = base.inverse_key(c)

    def value_and_derivative(u):
        """(G(u), G'(u)) of the module docstring, with the one inverse
        w = 1/u: sigma^M y = eta w^a, t = tau sigma^p u^(bm) and, as
        ap = 1 + bmM, sigma^(pM) t^-M = tau^-M w^(bmM) = (sigma^M y)^p u / c."""
        w = u.inverse()
        sy = (w ** a_exp).scale(eta)
        sy_p, y_pm = sy ** p, sy.shift((p - 1) * pole)  # (sigma^M y)^p and sigma^(pM) y
        st = (sy_p * u).scale(c_inv)
        t = (u ** bm).shift(p).scale(tau)
        value = sy_p - y_pm - compose(f_m, t) * st
        slope = y_pm.scale(a_exp % p) - (compose(theta_m, t) * st).scale(bm % p)
        return value, slope * w

    # An approximate seed keeps every evaluation to relative precision R_sigma.
    u = hensel_lift_root(value_and_derivative, LaurentSeries.one(base).truncate(rel_sigma), rel_sigma)
    t = (u ** bm).shift(p).scale(tau)
    if t.valuation() != p or t.coeff(p) != tau:
        raise MismatchDetected("lifted base uniformizer does not start with the seed")
    u_a = u ** a_exp
    y = u_a.inverse().shift(-pole).scale(eta)
    z = u_a.shift(pole).scale(base.inverse_key(eta))  # 1/y

    _check_zero(y ** p - y - compose(f, t), "defining relation of y")
    _check_zero(y * z - LaurentSeries.one(base), "y z = 1")
    # Ties y and z, from u^a, to t, from u^(bm): the relation reads y only to
    # O(sigma^(R_sigma - pM)) (module docstring).
    _check_zero(t ** a_exp * y ** bm - LaurentSeries.uniformizer(base), "t^a y^(bm) = sigma")

    # sigma_j(s) = s (1 + j z)^b, the unit factor sum_(i <= K) C(b, i) j^i z^i
    # mod sigma^R_sigma, K = min(b, floor((R_sigma - 1) / M)): one row of keys each.
    cut = min(b, (rel_sigma - 1) // pole)
    rows = [[comb(b, i) * pow(j, i, p) % p for i in range(cut + 1)] for j in range(1, p)]
    units = _evaluate_at(base, rows, z.truncate(rel_sigma))
    # The wild generator's unit: with the two checks above it makes the generator
    # y -> y + 1 of K(y) (module docstring); the builders derive the law.
    _check_zero(units[0] - (z + LaurentSeries.one(base)).truncate(rel_sigma) ** b, "unit of y -> y + 1")

    # zeta^(ak), twists[0] = 1 (all an AS cover has), so unit k = 0 is not scaled.
    twists = base.powers_key(base.pow_key(base.root_of_unity(m), a_exp), m)
    action = {k: LaurentSeries.monomial(base, twist, 1) for k, twist in enumerate(twists)}
    for j, unit in enumerate(units, 1):
        twisted = [unit] + [unit.scale(twist) for twist in twists[1:]]
        action.update((j * m + k, _stretch(x, 1, m).truncate(rel).shift(1)) for k, x in enumerate(twisted))
    return _stretch(t, 1, m).truncate(p * m + rel), action, target


# ---------------------------------------------------------------------------
# Tame cyclic covers.


@lru_cache(maxsize=None)
def build_kummer(base: FiniteField, m: int) -> GaloisCover:
    """Tame cover s^m = t, the identity extension when m = 1; requires the
    m-th roots of unity in the base.  Built once a process, as ``deck_group``
    is, and shared (it is a tower's tame layer too), so it must not be mutated."""
    if m < 1:
        raise NotGaloisOverBase("tame degree must be at least 1")
    zeta = base.root_of_unity(m)
    action = {k: LaurentSeries.monomial(base, c, 1) for k, c in enumerate(base.powers_key(zeta, m))}
    return GaloisCover(
        base_field=base,
        group=deck_group("kummer", base.p, m),
        t_in_s=LaurentSeries.monomial(base, 1, m),
        sigma_action=action,
        prec=1,
    )


# ---------------------------------------------------------------------------
# Composita.


def build_compositum_tower(
    base: FiniteField, m: int, upper_f: LaurentSeries, prec: int | None = None
) -> GaloisCover:
    """Compositum of the tame layer s'^m = t, built by ``build_kummer``, with
    the wild layer y^p - y = upper_f of K, built once over K at the break
    window p + m M + 4 (M the reduced pole of upper_f) or a larger ``prec``.

    The result is Galois over K with group Z/p x Z/m; the tame layer stays
    marked so transitivity and pullback statements can be tested against it.
    It is built first, so missing roots of unity are refused before the deck
    group is checked against ``GROUP_CAP`` and the work against the
    precision cap, and all three before any table or series work.

    Self-checks: those of ``_artin_schreier``, in sigma = s^m: the seed,
    the relation, y z = 1, t^a y^(bm) = sigma and the unit of j = 1
    against (1 + z)^b.  By the module docstring they make phi: sigma ->
    sigma (1 + z)^(bm), z = 1/y, the automorphism y -> y + 1 of
    K(y) = k((sigma)), so phi fixes t and sends y to y + 1, to relative
    precision ceil(R / m).  That implies the rest.  s' = c^-b s^p u^b has
    s'^m = t and s'^a y^b = s, so a continuous k-algebra map is fixed by
    its images of s' and y.  The
    tame generator tau: s -> action[1] = zeta^a s needs no check: it fixes
    every series in s^m, as zeta^(am) = 1, so it fixes u and y, and
    tau(s') = zeta^(ap) s' = zeta s', as a p = 1 + b m M.  psi: s ->
    action[m] = s (1 + z)^b sends sigma to phi(sigma), so psi(t) = t,
    psi(y) = y + 1, psi(s')^m = s'^m and psi(s')^a = psi(s) (y + 1)^-b =
    s'^a; gcd(a, m) = 1 gives psi(s') = s'.  So psi_(j,k): s' -> zeta^k s',
    y -> y + j is psi^j tau^k in either order; it sends s to
    zeta^(ak) s (1 + j z)^b = action[j m + k] and t = s'^m to
    (zeta^k s')^m = t, and these maps compose by adding (j, k) mod (p, m)
    (zeta^m = 1, y + p = y): the product of ``FiniteGroup.direct_product``
    on the index j m + k.  phi's two facts hold in sigma to relative
    precision ceil(R / m), so to R = N - p in s, and tau is exact on
    series in s^m: as in ``build_artin_schreier`` the law holds mod
    s^(1 + R) and t is fixed mod s^(p m + R).
    """
    lower = build_kummer(base, m)
    if upper_f.field != base:
        raise NotGaloisOverBase("wild datum is not over the base field")
    group = deck_group("tower", base.p, m)
    t_in_s, action, target = _artin_schreier(base, upper_f, prec, m)
    return GaloisCover(
        base_field=base,
        group=group,
        t_in_s=t_in_s,
        sigma_action=action,
        prec=target,
        intermediate=TowerParts(lower, tuple(range(0, base.p * m, m))),
    )


# ---------------------------------------------------------------------------
# Break data.


def lower_break_table(cover: GaloisCover) -> BreakTable:
    """Break numbers i(sigma) = v_L(sigma(s) - s), read once at the build
    precision.  A break that does not show raises ``PrecisionExhausted``,
    which no built cover reaches, as each sigma(s) - s is known past its
    valuation:

    * Artin-Schreier, pole M: the working precision is N >= p + M + 4, so
      R = N - p >= M + 4, and action[i] is known mod s^(1 + R)
      (``build_artin_schreier``).  Every break is M + 1 <= R.
    * Kummer: each action is the exact monomial zeta^k s, so
      sigma(s) - s = (zeta^k - 1) s is exact and nonzero for k != 0.
    * Tower, wild pole M: sigma_j(s) = s (1 + j/y)^b is known mod
      s^(1 + R), R >= m M + 4 (``build_compositum_tower``), so its break
      m M + 1 shows (k = 0).  Action (j, k) is zeta^(ak) sigma_j(s); for
      k != 0, (zeta^(ak) - 1) s + zeta^(ak) (sigma_j(s) - s) has valuation
      exactly 1: the last term has valuation >= 2 and is known mod
      s^(1 + R), and a p - b m M = 1 gives gcd(a, m) = 1, so zeta^(ak) != 1.
    """
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
