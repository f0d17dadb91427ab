"""Truncated Laurent series over a finite field, with precision accounting.

A series is either *exact* (finitely supported, no truncation error) or
*approximate*: its coefficients are known for every exponent strictly below
``abs_prec`` and nothing is asserted from ``abs_prec`` on.  In both cases the
support is contained in ``[v0, oo)``.  Every operation derives the best
absolute precision it can honestly guarantee for its result; nothing is ever
rounded, so equal windows mean equal coefficients.

Coefficients are field keys (``ramify.fields``: the base-p digits of the
coordinates, so just the residue over a prime field): the one constructor
takes, and ``coeffs`` holds, the window of known coefficients from ``v0``
on, and ``from_terms``, ``coeff``, ``support`` and ``scale`` take or give
keys too.

A product is one big-integer multiplication of two windows in the field's
window layout (``FiniteField.pack_window``, Kronecker substitution): slot
i*(2a-1)+k of one integer holds coordinate k of coefficient i, slots are
wide enough that no sum overflows, and CPython's Karatsuba multiplies the
two packed operands; ``unpack_window`` reads the keys back.  Inverses
use Newton doubling w <- w(2 - uw) (Brent & Kung, J. ACM 25, 1978), so
they cost a few products instead of a quadratic recurrence.

Composition f(g) has one evaluator for a non-monomial g: f = t^v F with F
a power series and v = min(v(f), 0), and f(g) = F(g) (g^{-1})^{-v}.  F(g)
is evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2, 1973): about
2 sqrt(n) products for n terms instead of Horner's n.  The powers
g^0 .. g^(k-1) are packed once, each block of k coefficients of F is a sum
of those packed integers times F's keys packed by ``FiniteField.pack``,
and Horner in g^k over the blocks reduces once a step.  The evaluator takes
several rows of keys at one g, and the rows share g's powers, their packs
and the packed g^k: ``compose`` passes one row, and a wild cover's build its
p - 1 action units (``covers._artin_schreier``).  The pole factor is one
``power`` of the inverse.  An exact monomial g is a coefficient stretch.
The result equals Horner's under ==, precision included; ``compose`` gives
the argument.

An exact non-monomial is inverted to ``DEFAULT_PRECISION`` (64) terms
unless told otherwise, and ``PRECISION_CAP`` (4096) bounds cover builds and
job fields.  Nothing escalates precision: a cover is built at its break
window, which shows every break (``covers.lower_break_table``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import isqrt

from .errors import (
    CompositionUndefined,
    FieldMismatch,
    NotSimpleRoot,
    PrecisionExhausted,
    ZeroElement,
)
from .fields import FiniteField, power

DEFAULT_PRECISION = 64
PRECISION_CAP = 4096


# ---------------------------------------------------------------------------
# Kronecker substitution on windows of keys.

def _mul_keys(field: FiniteField, xs: Sequence[int], ys: Sequence[int], n: int) -> list[int]:
    """Keys of the first n coefficients of the product of two key windows."""
    square = xs is ys
    xs, ys = xs[:n], ys[:n]
    if not xs or not ys:
        return [0] * n
    bits = field.window_bits(min(len(xs), len(ys)))  # a slot sums min(len) products
    x = field.pack_window(xs, bits)
    y = x if square else field.pack_window(ys, bits)
    full = len(xs) + len(ys) - 1
    m = min(n, full)
    return field.unpack_window(x * y, full, m, bits) + [0] * (n - m)


def _inverse_keys(field: FiniteField, u: Sequence[int], n: int) -> list[int]:
    """Keys of the inverse of the unit power series u modulo t^n."""
    w = [field.inverse_key(u[0])]
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        err = _mul_keys(field, u, w, k2)[k:]  # u*w = 1 + t^k * err mod t^k2
        w = w + field.neg_keys(_mul_keys(field, w, err, k2 - k))
        k = k2
    return w


class LaurentSeries:
    __slots__ = ("field", "v0", "coeffs", "abs_prec")

    def __init__(self, field: FiniteField, v0: int, keys: Sequence[int], abs_prec: int | None):
        """The series with keys[i] at t^(v0 + i), cut to ``abs_prec``, with its
        zero ends trimmed; prefer the factory classmethods."""
        if abs_prec is not None:
            want = abs_prec - v0
            if want <= 0:
                keys = ()
            elif len(keys) != want:
                if len(keys) > want:
                    keys = keys[:want]
                else:
                    raise ValueError("window shorter than declared precision")
        lo, hi = 0, len(keys)
        while lo < hi and not keys[lo]:
            lo += 1
        if abs_prec is None:
            while hi > lo and not keys[hi - 1]:
                hi -= 1
        if lo == hi:
            v0 = 0 if abs_prec is None else abs_prec
        else:
            v0 += lo
        self.field = field
        self.v0 = v0
        self.coeffs = tuple(keys[lo:hi])
        self.abs_prec = abs_prec

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_terms(cls, field: FiniteField, terms: dict[int, int]) -> "LaurentSeries":
        """The exact series with the key terms[e] at t^e."""
        keys = {e: c for e, c in terms.items() if c}
        if not keys:
            return cls.zero(field)
        lo = min(keys)
        return cls(field, lo, [keys.get(e, 0) for e in range(lo, max(keys) + 1)], None)

    @classmethod
    def monomial(cls, field: FiniteField, coeff: int, exp: int) -> "LaurentSeries":
        return cls.from_terms(field, {exp: coeff})

    @classmethod
    def zero(cls, field: FiniteField) -> "LaurentSeries":
        return cls(field, 0, (), None)

    @classmethod
    def one(cls, field: FiniteField) -> "LaurentSeries":
        return cls.monomial(field, 1, 0)

    @classmethod
    def uniformizer(cls, field: FiniteField) -> "LaurentSeries":
        return cls.monomial(field, 1, 1)

    # -- predicates -------------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.abs_prec is None

    def is_zero_known(self) -> bool:
        """No known nonzero coefficient (true for the exact zero too)."""
        return not self.coeffs

    def is_exact_zero(self) -> bool:
        return self.abs_prec is None and not self.coeffs

    # -- inspection ---------------------------------------------------------------

    def valuation(self) -> int:
        if self.coeffs:
            return self.v0
        if self.is_exact:
            raise ZeroElement("valuation of the exact zero series")
        raise PrecisionExhausted(
            f"series is zero to O(t^{self.abs_prec}); valuation unknown"
        )

    def coeff(self, e: int) -> int:
        if self.abs_prec is not None and e >= self.abs_prec:
            raise PrecisionExhausted(f"coefficient of t^{e} beyond O(t^{self.abs_prec})")
        return self._key(e)

    def _key(self, e: int) -> int:
        idx = e - self.v0
        if 0 <= idx < len(self.coeffs):
            return self.coeffs[idx]
        return 0

    def _window(self, lo: int, hi: int) -> list[int]:
        """Keys at exponents lo .. hi-1, with 0 outside the known window."""
        n = hi - lo
        if n <= 0:
            return []
        i0 = lo - self.v0
        head = [0] * min(n, max(0, -i0))
        body = list(self.coeffs[max(i0, 0) : max(i0 + n, 0)])
        return head + body + [0] * (n - len(head) - len(body))

    def support(self) -> list[tuple[int, int]]:
        return [(self.v0 + i, c) for i, c in enumerate(self.coeffs) if c]

    def __repr__(self) -> str:
        body = " + ".join(
            f"{c}*t^{self.v0 + i}" for i, c in enumerate(self.coeffs) if c
        ) or "0"
        tail = "" if self.is_exact else f" + O(t^{self.abs_prec})"
        return f"<{body}{tail}>"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.field == other.field
            and self.v0 == other.v0
            and self.coeffs == other.coeffs
            and self.abs_prec == other.abs_prec
        )

    def __hash__(self) -> int:
        return hash((self.field, self.v0, self.coeffs, self.abs_prec))

    def _check(self, other: "LaurentSeries") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("series over different fields")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self._add(other, 1)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self._add(other, -1)

    def _add(self, other: "LaurentSeries", sign: int) -> "LaurentSeries":
        """self + sign * other over the window both operands know."""
        self._check(other)
        if self.is_exact and other.is_exact:
            ap = None
            known = [x for x in (self, other) if x.coeffs]
            if not known:
                return LaurentSeries.zero(self.field)
            lo = min(x.v0 for x in known)
            hi = max(x.v0 + len(x.coeffs) for x in known)
        else:
            ap = min(x.abs_prec for x in (self, other) if x.abs_prec is not None)
            lo = min(self.v0, other.v0, ap)
            hi = ap
        window = self._window(lo, hi)
        start = max(other.v0, lo)
        stop = min(other.v0 + len(other.coeffs), hi)
        if start < stop:
            i, j = start - lo, stop - lo
            window[i:j] = self.field.add_keys(
                window[i:j], other.coeffs[start - other.v0 : stop - other.v0], sign
            )
        return LaurentSeries(self.field, lo, window, ap)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(
            self.field, self.v0, self.field.neg_keys(self.coeffs), self.abs_prec
        )

    def scale(self, c: int) -> "LaurentSeries":
        """c times the series, for the key c of a field element (0: the exact zero)."""
        if not c:
            return LaurentSeries.zero(self.field)
        return LaurentSeries(
            self.field, self.v0, self.field.scale_keys(c, self.coeffs), self.abs_prec
        )

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t^k."""
        ap = None if self.abs_prec is None else self.abs_prec + k
        return LaurentSeries(self.field, self.v0 + k, self.coeffs, ap)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        if self.is_exact_zero() or other.is_exact_zero():
            return LaurentSeries.zero(self.field)
        lo = self.v0 + other.v0
        if self.is_exact and other.is_exact:
            ap = None
            size = len(self.coeffs) + len(other.coeffs) - 1
        else:
            caps = []
            if self.abs_prec is not None:
                caps.append(self.abs_prec + other.v0)
            if other.abs_prec is not None:
                caps.append(other.abs_prec + self.v0)
            ap = min(caps)
            size = ap - lo
            if size <= 0:
                return LaurentSeries(self.field, ap, (), ap)
        window = _mul_keys(self.field, self.coeffs, other.coeffs, size)
        return LaurentSeries(self.field, lo, window, ap)

    def __pow__(self, k: int) -> "LaurentSeries":
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return LaurentSeries.one(self.field)
        return power(self, k)

    def truncate(self, ap: int) -> "LaurentSeries":
        """Forget everything from exponent ap on."""
        if self.abs_prec is not None and self.abs_prec <= ap:
            return self
        lo = min(self.v0, ap)
        return LaurentSeries(self.field, lo, self._window(lo, ap), ap)

    def inverse(self, prec: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse.

        For approximate input the full known relative precision is used (a
        smaller ``prec`` may be requested; prec <= 0 gives the empty window
        O(t^(prec - v))).  Exact input needs a target relative precision,
        except for monomials which invert exactly.
        """
        if self.is_exact_zero():
            raise ZeroElement("inverse of the exact zero series")
        if self.is_zero_known():
            raise PrecisionExhausted(
                f"cannot invert a series that is zero to O(t^{self.abs_prec})"
            )
        field = self.field
        v = self.v0
        if self.is_exact and len(self.coeffs) == 1:
            return LaurentSeries(field, -v, [field.inverse_key(self.coeffs[0])], None)
        if self.abs_prec is not None:
            rel = self.abs_prec - v
            if prec is not None:
                rel = min(rel, prec)
        else:
            rel = prec if prec is not None else DEFAULT_PRECISION
        w = _inverse_keys(field, self.coeffs[:rel], rel) if rel > 0 else []
        return LaurentSeries(field, -v, w, -v + rel)


def _evaluate_at(field: FiniteField, rows: Sequence[Sequence[int]], g: LaurentSeries) -> list[LaurentSeries]:
    """sum keys[e] * g^e over e >= 0 for each row of keys, by Paterson-Stockmeyer
    (see ``compose``), one series a row.  The rows share g's powers
    g^0 .. g^k, cut at the largest row precision, their packs and the packed
    g^k, so a row costs no product: only its blocks and giant steps on packed
    integers.  Each row keeps its own length (trailing zeros cut), and its
    own Horner precision, below which the shared powers agree with those cut
    at it; a row of at most one key is its exact constant."""
    rows = [keys[: len(keys) - next((i for i, c in enumerate(reversed(keys)) if c), len(keys))] for keys in rows]
    n = max(map(len, rows))
    if n <= 1:
        return [LaurentSeries(field, 0, keys, None) for keys in rows]
    w = g.v0
    # Horner's precision: P + (j - 1) w for the least j >= 1 with f_j != 0 (a
    # constant is exact, as is every result at an exact g).
    lead = [next((j for j in range(1, len(keys)) if keys[j]), None) for keys in rows]
    caps = [None if g.is_exact or j is None else g.abs_prec + (j - 1) * w for j in lead]
    if g.is_exact:
        span = (n - 1) * (w + len(g.coeffs) - 1) + 1  # the longest result's terms
    else:
        span = max(ap for ap in caps if ap is not None)
        g = LaurentSeries(field, w, g._window(w, span), span)
    k = n if n <= 3 else isqrt(n - 1) + 1  # n = 3: g^2 and one block, no giant step
    powers = [LaurentSeries.one(field), g]
    for j in range(2, k + 1 if n > k else k):
        half = powers[j // 2]
        power = half * half if j % 2 == 0 else powers[j - 1] * g
        powers.append(power if g.is_exact else power.truncate(span))

    # Everything below is on packed integers as in _mul_keys, with slots wide
    # enough for a product of two windows of the result plus k more terms.
    bits = field.window_bits(span + k)
    windows = [s._window(0, s.v0 + len(s.coeffs)) for s in powers]
    packs = [field.pack_window(x, bits) for x in windows[:k]]
    reach = max(map(len, windows[:k]))  # coefficients a block can fill
    giant = windows[k] if n > k else []
    packed = field.pack_window(giant, bits)
    results = []
    for keys, ap in zip(rows, caps):
        # Block i is sum_j keys[ik + j] g^j: small-int multiples of the packs, as
        # slot k of a scalar shifts a pack by x^k.  Horner in g^k runs over the
        # blocks, one reduction a step.
        scalars = field.pack(keys, bits)
        blocks = [sum(c * x for c, x in zip(scalars[i : i + k], packs) if c)
                  for i in range(0, len(keys) or 1, k)]
        acc = field.unpack_window(blocks.pop(), reach, reach, bits)
        for block in reversed(blocks):
            full = max(len(acc) + len(giant) - 1, reach)
            value = field.pack_window(acc, bits) * packed + block
            acc = field.unpack_window(value, full, full if ap is None else ap, bits)
        results.append(LaurentSeries(field, 0, acc, ap))
    return results


def _stretch(f: LaurentSeries, c: int, w: int) -> LaurentSeries:
    """f(c t^w) for an exact monomial: f_e c^e at exponent e w, no product."""
    field = f.field
    keys = [0] * ((len(f.coeffs) - 1) * w + 1)
    if c == 1:
        keys[::w] = f.coeffs
    else:
        scalars = field.scale_keys(field.pow_key(c, f.v0), field.powers_key(c, len(f.coeffs)))
        for i, (fk, ck) in enumerate(zip(f.coeffs, scalars)):
            if fk:
                keys[i * w] = field.mul_key(fk, ck)
    return LaurentSeries(field, f.v0 * w, keys, None)


def compose(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """Substitution f(g(t)).

    Requires v(g) >= 1.  When f has a pole, g is inverted (allowed since
    v(g) >= 1 makes it a unit times a positive power).  The result carries
    the precision the arithmetic can actually guarantee, including the
    truncation term O(g^{abs_prec(f)}) when f is approximate.

    The result is, under ==, the one Horner's rule gives (acc <- acc*g + f_e
    for the polynomial part, acc <- (acc + f_-k) g^{-1} for the pole part),
    at far fewer products.  An exact monomial g = c t^w needs none: f(c t^w)
    has f_e c^e at exponent e w.  Otherwise f = t^v F with v = min(v(f), 0)
    and F a power series, and f(g) = F(g) h^m with h = g^{-1} and m = -v.
    F(g) takes about 2 sqrt(n) products for n terms by Paterson-Stockmeyer
    (SIAM J. Comput. 2, 1973): with k = ceil(sqrt(n)), the blocks
    sum_j F_{ik+j} g^j, j < k, are sums of small multiples of g^0 .. g^(k-1)
    as packed integers, and Horner in g^k runs over the blocks.  h^m takes
    about 2 log2(m) products.

    Exactness.  Let g have valuation w, precision P and relative precision
    R = P - w (both infinite for exact g), and G its known window as a
    polynomial.  A product's precision is the sum of the valuations plus
    the smaller relative precision.  Without a pole, Horner's accumulator
    keeps relative precision R, so by induction its precision after step e
    is (j - e) w + R, with j the least index above e where f_j != 0; at
    e = 0 it is N = P + (j - 1) w for the least j >= 1 with f_j != 0 (the
    result is the exact f_0 when there is none).  Horner's arithmetic is
    honest, so its coefficients below N are those of sum f_e G^e, which is
    what Paterson-Stockmeyer computes modulo t^N from G + O(t^N) before the
    cut at N.  With a pole of order m, h has valuation -w and relative
    precision R_h <= R (64 for exact g); Horner's pole loop
    multiplies by h m times, so its result is known to -m w + R_h, below
    the polynomial part's N.  Here F(g) has valuation 0 (F_0 = f_v) and
    precision at least P > R_h, and h^m keeps relative precision R_h, so
    F(g) h^m is known to exactly -m w + R_h as well.  Both are honest, so
    below that both are f(G): v0, coefficients and precision agree.
    """
    f._check(g)
    field = f.field
    if g.is_exact_zero():
        if f.is_exact and f.v0 >= 0:
            return LaurentSeries(field, 0, [f._key(0)], None)
        raise CompositionUndefined("cannot substitute the zero series into a pole")
    w = g.valuation()
    if w < 1:
        raise CompositionUndefined(f"substitution target has valuation {w} < 1")

    if f.is_zero_known():
        if f.is_exact:
            return LaurentSeries.zero(field)
        return LaurentSeries(field, f.abs_prec * w, (), f.abs_prec * w)

    if g.is_exact and len(g.coeffs) == 1:
        result = _stretch(f, g.coeffs[0], w)
    else:
        v = min(f.v0, 0)
        result = _evaluate_at(field, [f._window(v, f.v0 + len(f.coeffs))], g)[0]
        if v < 0:
            result = result * g.inverse() ** -v
    if f.abs_prec is not None:
        result = result.truncate(f.abs_prec * w)
    return result


def hensel_lift_root(
    value_and_derivative: Callable[[LaurentSeries], tuple[LaurentSeries, LaurentSeries]],
    x0: LaurentSeries,
    target_prec: int,
) -> LaurentSeries:
    """Newton-lift a simple root of F from seed x0, where
    ``value_and_derivative(x)`` gives (F(x), F'(x)).

    Requires F(x0) ~ 0 (valuation >= 1, or zero to the seed's precision)
    and F'(x0) a unit; convergence is then quadratic.  The result agrees
    with x0 and satisfies F(x) = 0 to O(t^target_prec); it is known to
    O(t^target_prec), or exact when F vanishes exactly there.  As F'(x) is
    a unit, an F(x) that is zero to O(t^k) gives a correction zero to
    O(t^k), so the lift ends only when F(x) vanishes to the target.
    """
    x = x0
    p, d = value_and_derivative(x)
    if d.is_zero_known() or d.valuation() != 0:
        raise NotSimpleRoot("derivative at the seed is not a unit")
    if not p.is_zero_known() and p.valuation() < 1:
        raise NotSimpleRoot("seed is not an approximate root")

    for _ in range(80):
        if p.is_exact_zero() or (p.is_zero_known() and p.abs_prec >= target_prec):
            return x if p.is_exact else x.truncate(target_prec)
        x = (x - p * d.inverse(prec=target_prec + 2)).truncate(target_prec)
        p, d = value_and_derivative(x)
    raise PrecisionExhausted("Newton iteration did not converge")


def nth_root_of_unit(u: LaurentSeries, b: int) -> LaurentSeries:
    """b-th root of a unit series with constant term 1, for gcd(b, p) = 1:
    ``hensel_lift_root`` on z^b - u from 1, to u's precision
    (``DEFAULT_PRECISION`` for an exact u)."""
    field = u.field
    if b % field.p == 0:
        raise ValueError("root degree divisible by the characteristic")
    if u.is_zero_known() or u.valuation() != 0 or u.coeffs[0] != 1:
        raise ValueError("expected a unit series with constant term 1")
    prec = DEFAULT_PRECISION if u.is_exact else u.abs_prec
    seed = LaurentSeries.one(field).truncate(prec)
    return hensel_lift_root(lambda z: (z ** b - u, (z ** (b - 1)).scale(b % field.p)), seed, prec)
