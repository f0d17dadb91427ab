"""Truncated Laurent series over a finite field, with precision accounting.

A series is either *exact* (finitely supported, no truncation error) or
*approximate*: its coefficients are known for every exponent strictly below
``abs_prec`` and nothing is asserted from ``abs_prec`` on.  In both cases the
support is contained in ``[v0, oo)``.  Every operation derives the best
absolute precision it can honestly guarantee for its result; nothing is ever
rounded, so equal windows mean equal coefficients.

Coefficients are stored as plain ints: the one constructor takes, and
``coeffs`` holds, the window of known coefficients from ``v0`` on, each the
key of its field element (the base-p digits of its coordinates, so just the
residue over a prime field).  FieldElement objects appear only where callers
see coefficients: ``from_terms`` and the factories on it, ``coeff``,
``support`` and ``scale``.

A product is one big-integer multiplication (Kronecker substitution, as in
D. Harvey, J. Symbolic Comput. 44, 2009): coordinate k of coefficient i is
packed into slot i*(2a-1)+k of one integer, with slots wide enough that no
sum overflows, and CPython's Karatsuba multiplies the two packed operands.
Unpacking reads coordinate k of each product coefficient from its slot and
folds x^k for k >= a back by the field's modulus, from the top down.  Inverses
use Newton doubling w <- w(2 - uw) (Brent & Kung, J. ACM 25, 1978), so
they cost a few products instead of a quadratic recurrence.

Composition f(g) has one evaluator for a non-monomial g: f = t^v F with F
a power series and v = min(v(f), 0), and f(g) = F(g) (g^{-1})^{-v}.  F(g)
is evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2, 1973): about
2 sqrt(n) products for n terms instead of Horner's n.  The powers
g^0 .. g^(k-1) are packed once, each block of k coefficients of F is a sum
of small multiples of those packed integers, and Horner in g^k over the
blocks reduces once a step.  The pole factor is one ``power`` of the
inverse.  An exact monomial g is a coefficient stretch.  The result equals
Horner's under ==, precision included; ``compose`` gives the argument.

The working default is 64 known terms.  ``precision_cap`` (4096, or the
positive integer in RAMIFY_PRECISION_CAP) bounds cover builds and job
fields.  Nothing escalates precision: a cover is built to a precision that
shows every break (``covers.lower_break_table``).
"""

from __future__ import annotations

import os
import sys
from math import isqrt
from typing import Sequence

from .errors import (
    CompositionUndefined,
    FieldMismatch,
    InputSchemaError,
    NotSimpleRoot,
    PrecisionExhausted,
    ZeroElement,
)
from .fields import FieldElement, FiniteField, power

DEFAULT_PRECISION = 64
DEFAULT_PRECISION_CAP = 4096


def precision_cap() -> int:
    """Hard ceiling for cover builds and job fields: RAMIFY_PRECISION_CAP
    if set, in ASCII decimal digits and at least 1, as --precision."""
    raw = os.environ.get("RAMIFY_PRECISION_CAP")
    if raw is None:
        return DEFAULT_PRECISION_CAP
    try:
        val = int(raw) if raw.isascii() and raw.isdigit() else 0
    except ValueError:  # more digits than the interpreter converts
        val = 0
    if val < 1:
        raise InputSchemaError(
            f"RAMIFY_PRECISION_CAP must be a positive integer, got {raw!r}"
        )
    return val


# ---------------------------------------------------------------------------
# Kronecker substitution on windows of keys.

# Native unsigned formats a memoryview can cast packed little-endian slots to,
# by width in bytes (none on a big-endian machine).
_CAST_CODES = (
    {memoryview(bytes(8)).cast(code).itemsize: code for code in "BHIQ"}
    if sys.byteorder == "little"
    else {}
)


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for slot values up to ``bound``."""
    need = (bound.bit_length() + 7) // 8
    return min((w for w in _CAST_CODES if w >= need), default=need)


def _pack(field: FiniteField, keys: Sequence[int], width: int, size: int) -> int:
    """Coordinate k of keys[i] in slot i*width + k of one integer, ``size`` bytes a slot."""
    step = width * size
    cb = ((field.p - 1).bit_length() + 7) // 8  # bytes of one coordinate
    buf = bytearray(len(keys) * step)
    for k, col in enumerate(field.key_columns(keys)):
        for j in range(cb):
            plane = col if cb == 1 else [x >> 8 * j & 255 for x in col]
            buf[k * size + j :: step] = bytes(plane)
    return int.from_bytes(buf, "little")


def _unpack(value: int, count: int, size: int) -> Sequence[int]:
    """The ``count`` slots of ``size`` bytes that ``value`` packs."""
    data = value.to_bytes(count * size, "little")
    code = _CAST_CODES.get(size)
    if code is None:
        return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]
    return memoryview(data).cast(code)


def _unpack_keys(field: FiniteField, value: int, full: int, m: int, width: int, size: int) -> list[int]:
    """Keys of the first m of the ``full`` coefficients in value, in ``_pack``'s slots."""
    slots = _unpack(value, full * width, size)
    return field.keys_from_columns([slots[k : m * width : width] for k in range(width)])


def _mul_keys(field: FiniteField, xs: Sequence[int], ys: Sequence[int], n: int) -> list[int]:
    """Keys of the first n coefficients of the product of two key windows."""
    square = xs is ys
    xs, ys = xs[:n], ys[:n]
    if not xs or not ys:
        return [0] * n
    a = field.a
    width = 2 * a - 1
    # A slot sums at most min(len) * a products of two coordinates.
    size = _slot_bytes(min(len(xs), len(ys)) * a * (field.p - 1) ** 2)
    x = _pack(field, xs, width, size)
    y = x if square else _pack(field, ys, width, size)
    full = len(xs) + len(ys) - 1
    m = min(n, full)
    return _unpack_keys(field, x * y, full, m, width, size) + [0] * (n - m)


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
    def from_terms(
        cls,
        field: FiniteField,
        terms: dict[int, FieldElement],
        abs_prec: int | None = None,
    ) -> "LaurentSeries":
        keys = {e: c.key() for e, c in terms.items() if c}
        if not keys:
            return cls(field, 0 if abs_prec is None else abs_prec, (), abs_prec)
        lo = min(keys)
        hi = max(keys) + 1 if abs_prec is None else abs_prec
        return cls(field, lo, [keys.get(e, 0) for e in range(lo, hi)], abs_prec)

    @classmethod
    def monomial(cls, field: FiniteField, coeff: FieldElement, exp: int) -> "LaurentSeries":
        return cls.from_terms(field, {exp: coeff})

    @classmethod
    def zero(cls, field: FiniteField) -> "LaurentSeries":
        return cls(field, 0, (), None)

    @classmethod
    def one(cls, field: FiniteField) -> "LaurentSeries":
        return cls.monomial(field, field.one(), 0)

    @classmethod
    def uniformizer(cls, field: FiniteField) -> "LaurentSeries":
        return cls.monomial(field, field.one(), 1)

    @classmethod
    def constant(cls, field: FiniteField, c: FieldElement) -> "LaurentSeries":
        return cls.from_terms(field, {0: c})

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

    def coeff(self, e: int) -> FieldElement:
        if self.abs_prec is not None and e >= self.abs_prec:
            raise PrecisionExhausted(f"coefficient of t^{e} beyond O(t^{self.abs_prec})")
        return self._known(e)

    def _known(self, e: int) -> FieldElement:
        return self.field.from_key(self._key(e))

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

    def support(self) -> list[tuple[int, FieldElement]]:
        from_key = self.field.from_key
        return [(self.v0 + i, from_key(c)) for i, c in enumerate(self.coeffs) if c]

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

    def scale(self, c: FieldElement) -> "LaurentSeries":
        if not c:
            if self.is_exact:
                return LaurentSeries.zero(self.field)
            return LaurentSeries(self.field, self.abs_prec, (), self.abs_prec)
        if c.field is not self.field and c.field != self.field:
            raise FieldMismatch("scalar from a different field")
        n = len(self.coeffs)
        return LaurentSeries(
            self.field, self.v0, _mul_keys(self.field, self.coeffs, [c.key()], n), self.abs_prec
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
        smaller ``prec`` may be requested).  Exact input needs a target
        relative precision, except for monomials which invert exactly.
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
        w = _inverse_keys(field, self.coeffs[:rel], rel)
        return LaurentSeries(field, -v, w, -v + rel)


def _evaluate_at(field: FiniteField, keys: Sequence[int], g: LaurentSeries) -> LaurentSeries:
    """sum keys[e] * g^e over e >= 0, by Paterson-Stockmeyer (see ``compose``)."""
    n = len(keys)
    while n and not keys[n - 1]:
        n -= 1
    if n <= 1:
        return LaurentSeries(field, 0, keys[:n], None)
    w = g.v0
    if g.abs_prec is None:
        ap = None
        span = (n - 1) * (w + len(g.coeffs) - 1) + 1  # the result's terms
    else:
        # Horner's precision: P + (j - 1) w for the least j >= 1 with f_j != 0.
        ap = span = g.abs_prec + (next(j for j in range(1, n) if keys[j]) - 1) * w
        g = LaurentSeries(field, w, g._window(w, ap), ap)
    k = n if n <= 3 else isqrt(n - 1) + 1  # n = 3: g^2 and one block, no giant step
    powers = [LaurentSeries.one(field), g]
    for j in range(2, k + 1 if n > k else k):
        half = powers[j // 2]
        power = half * half if j % 2 == 0 else powers[j - 1] * g
        powers.append(power if ap is None else power.truncate(ap))

    # Everything below is on packed integers as in _mul_keys, with slots wide
    # enough for a product of two windows of the result plus k more terms.
    a = field.a
    width = 2 * a - 1
    size = _slot_bytes((span + k) * a * (field.p - 1) ** 2)
    windows = [s._window(0, s.v0 + len(s.coeffs)) for s in powers]
    packs = [_pack(field, x, width, size) for x in windows[:k]]
    cols = field.key_columns(keys[:n])
    scalars = cols[0] if a == 1 else [
        sum(c << 8 * size * i for i, c in enumerate(cs)) for cs in zip(*cols)
    ]

    def block(i: int) -> int:
        """sum_j keys[ik + j] g^j, packed: small-int multiples of the packs."""
        return sum(c * x for c, x in zip(scalars[i * k : i * k + k], packs) if c)

    # Giant steps: Horner in g^k over the blocks, one reduction a step.
    count = -(-n // k)
    reach = max(map(len, windows[:k]))  # coefficients a block can fill
    acc = _unpack_keys(field, block(count - 1), reach, reach, width, size)
    if count > 1:
        giant = windows[k]
        packed = _pack(field, giant, width, size)
        for i in range(count - 2, -1, -1):
            full = max(len(acc) + len(giant) - 1, reach)
            m = full if ap is None else ap
            value = _pack(field, acc, width, size) * packed + block(i)
            acc = _unpack_keys(field, value, full, m, width, size)
    return LaurentSeries(field, 0, acc, ap)


def _stretch(f: LaurentSeries, c: int, w: int) -> LaurentSeries:
    """f(c t^w) for an exact monomial: f_e c^e at exponent e w, no product."""
    field = f.field
    keys = [0] * ((len(f.coeffs) - 1) * w + 1)
    if c == 1:
        keys[::w] = f.coeffs
    else:
        x = field.from_key(c)
        power = x ** f.v0
        for i, fk in enumerate(f.coeffs):
            if fk:
                keys[i * w] = (field.from_key(fk) * power).key()
            power = power * x
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
        result = _evaluate_at(field, f._window(v, f.v0 + len(f.coeffs)), g)
        if v < 0:
            result = result * g.inverse() ** -v
    if f.abs_prec is not None:
        result = result.truncate(f.abs_prec * w)
    return result


def _value_and_derivative(coeffs: Sequence[LaurentSeries], x: LaurentSeries):
    """(P(x), P'(x)) for P = sum coeffs[k] * x^k, in one Horner pass."""
    value = coeffs[-1]
    deriv = LaurentSeries.zero(x.field)
    for c in reversed(coeffs[:-1]):
        deriv = deriv * x + value
        value = value * x + c
    return value, deriv


def hensel_lift_root(
    coeffs: Sequence[LaurentSeries], x0: LaurentSeries, target_prec: int
) -> LaurentSeries:
    """Newton-lift a simple root of P(x) = sum coeffs[k] * x^k from seed x0.

    Requires P(x0) ~ 0 (valuation >= 1, or zero to the seed's precision)
    and P'(x0) a unit; convergence is then quadratic.  The result agrees
    with x0 and satisfies P(x) = 0 to O(t^target_prec).  Each step takes
    P(x) and P'(x) from one Horner pass, the seed's check included.  As
    P'(x) is a unit, a P(x) that is zero to O(t^k) gives a correction zero
    to O(t^k), so the lift ends only when P(x) vanishes to the target.
    """
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    field = x0.field
    for c in coeffs:
        if c.field != field:
            raise FieldMismatch("polynomial coefficients over a different field")
    x = x0
    p, d = _value_and_derivative(coeffs, x)
    if d.is_zero_known() or d.valuation() != 0:
        raise NotSimpleRoot("derivative at the seed is not a unit")
    if not p.is_zero_known() and p.valuation() < 1:
        raise NotSimpleRoot("seed is not an approximate root")

    for _ in range(80):
        if p.is_exact_zero() or (p.is_zero_known() and p.abs_prec >= target_prec):
            return x
        x = (x - p * d.inverse(prec=target_prec + 2)).truncate(target_prec)
        p, d = _value_and_derivative(coeffs, x)
    raise PrecisionExhausted("Newton iteration did not converge")


def nth_root_of_unit(u: LaurentSeries, b: int) -> LaurentSeries:
    """b-th root of a unit series with constant term 1, for gcd(b, p) = 1.

    Not routed through ``hensel_lift_root``: Horner on x^b - u makes b
    products per evaluation where this loop uses ``power``; the roots of AS
    covers with b = 6 to 12 (p = 7 to 13) took 1.9-2.9x as long that way.
    """
    field = u.field
    if b % field.p == 0:
        raise ValueError("root degree divisible by the characteristic")
    if u.is_zero_known() or u.valuation() != 0 or u.coeffs[0] != 1:
        raise ValueError("expected a unit series with constant term 1")
    b_inv = field.from_int(b).inverse()
    x = LaurentSeries.one(field)
    for _ in range(80):
        err = x ** b - u
        if err.is_zero_known():
            return x
        corr = (err * (x ** (b - 1)).inverse()).scale(b_inv)
        x = x - corr
    raise PrecisionExhausted("root iteration did not converge")
