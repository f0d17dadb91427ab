import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify.errors import (
    CompositionUndefined,
    FieldMismatch,
    NotSimpleRoot,
    PrecisionExhausted,
    ZeroElement,
)
from ramify.fields import FiniteField, field_create
from ramify.series import LaurentSeries, compose, hensel_lift_root

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F5 = field_create(5, 1)


def sparse(field, pairs):
    return LaurentSeries.from_terms(field, {e: field.from_coeffs(c) for e, c in pairs})


def test_valuation_examples():
    f = sparse(F2, [[-1, [1]], [0, [1]], [1, [1]]])
    assert f.valuation() == -1
    t = sparse(F2, [[1, [1]]])
    t_inv = sparse(F2, [[-1, [1]]])
    assert (t * t_inv) == LaurentSeries.one(F2)


def test_inverse_geometric_series():
    # Oracle: sum of t^i must multiply back to 1 within the window.
    f = sparse(F2, [[0, [1]], [1, [1]]])
    inv = f.inverse(prec=4)
    expected = {i: F2.one() for i in range(4)}
    assert dict(inv.support()) == expected
    back = f * inv
    assert back.coeff(0) == F2.one()
    assert all(not back.coeff(i) for i in range(1, back.abs_prec))


def test_inverse_of_inverse_roundtrips():
    f = sparse(F5, [[-2, [3]], [0, [1]], [3, [4]]]).truncate(20)
    double = f.inverse().inverse()
    assert (double - f).is_zero_known()


def test_inverse_monomial_is_exact():
    m = sparse(F3, [[5, [2]]])
    inv = m.inverse()
    assert inv.is_exact
    assert (m * inv) == LaurentSeries.one(F3)


def test_zero_inversion_errors():
    with pytest.raises(ZeroElement):
        LaurentSeries.zero(F2).inverse()
    approx_zero = LaurentSeries(F2, 3, [], 3)
    with pytest.raises(PrecisionExhausted):
        approx_zero.inverse()
    with pytest.raises(PrecisionExhausted):
        approx_zero.valuation()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        LaurentSeries.one(F2) + LaurentSeries.one(F3)


coeff_lists = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(-5, 5), st.integers(-5, 5))
def test_product_valuation_additive(cs1, cs2, v1, v2):
    f = LaurentSeries(F5, v1, cs1, v1 + len(cs1)).truncate(v1 + 32)
    g = LaurentSeries(F5, v2, cs2, v2 + len(cs2)).truncate(v2 + 32)
    if f.is_zero_known() or g.is_zero_known():
        return
    assert (f * g).valuation() == f.valuation() + g.valuation()


@settings(max_examples=40, deadline=None)
@given(coeff_lists)
def test_inv_inv_identity_property(cs):
    if cs[0] % 5 == 0:
        cs = [1] + cs
    f = LaurentSeries(F5, -2, cs, -2 + len(cs)).truncate(30)
    assert (f.inverse().inverse() - f).is_zero_known()


def test_compose_examples():
    t = sparse(F2, [[1, [1]]])
    s2 = sparse(F2, [[2, [1]]])
    assert compose(t, s2) == s2
    t_inv = sparse(F2, [[-1, [1]]])
    assert compose(t_inv, s2) == sparse(F2, [[-2, [1]]])
    mixed = sparse(F2, [[-1, [1]], [1, [1]]])
    s3 = sparse(F2, [[3, [1]]])
    assert compose(mixed, s3) == sparse(F2, [[-3, [1]], [3, [1]]])


def test_compose_requires_positive_valuation():
    f = sparse(F2, [[1, [1]]])
    unit = sparse(F2, [[0, [1]], [1, [1]]])
    with pytest.raises(CompositionUndefined):
        compose(f, unit)


def test_compose_associative_on_valid_triples():
    f = sparse(F3, [[-1, [2]], [0, [1]], [2, [1]]])
    g = sparse(F3, [[1, [1]], [2, [2]]]).truncate(16)
    h = sparse(F3, [[1, [2]], [3, [1]]]).truncate(16)
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    assert (left - right).is_zero_known()
    assert min(left.abs_prec, right.abs_prec) >= 4


def test_compose_precision_tracks_truncation():
    f = sparse(F3, [[0, [1]], [1, [1]]]).truncate(5)
    g = sparse(F3, [[2, [1]], [3, [1]]])
    out = compose(f, g)
    assert out.abs_prec is not None
    assert out.abs_prec <= 10  # O(g^{prec(f)}) = O(s^10)


def test_hensel_identity_case():
    t = sparse(F2, [[1, [1]]])
    coeffs = [-t, LaurentSeries.one(F2)]
    assert hensel_lift_root(coeffs, t, 10) == t


def test_hensel_square_root_mod3():
    one_plus_s = sparse(F3, [[0, [1]], [1, [1]]])
    coeffs = [-one_plus_s, LaurentSeries.zero(F3), LaurentSeries.one(F3)]
    root = hensel_lift_root(coeffs, LaurentSeries.one(F3), 12)
    assert root.coeff(0) == F3.one()
    assert root.coeff(1) == F3.from_int(2)
    residual = root * root - one_plus_s
    assert residual.is_zero_known() and residual.abs_prec >= 12


def test_hensel_not_simple_root():
    one_plus_s = sparse(F2, [[0, [1]], [1, [1]]])
    coeffs = [-one_plus_s, LaurentSeries.zero(F2), LaurentSeries.one(F2)]
    with pytest.raises(NotSimpleRoot):
        hensel_lift_root(coeffs, LaurentSeries.one(F2), 8)


def test_hensel_bad_seed_rejected():
    # P(x) = x - 1 - s with seed of valuation 0 but P(seed) a unit offset.
    coeffs = [sparse(F3, [[0, [1]], [1, [1]]]).scale(-F3.one()), LaurentSeries.one(F3)]
    root = hensel_lift_root(coeffs, LaurentSeries.one(F3), 8)
    assert root.coeff(1) == F3.one()
    bad = [sparse(F3, [[0, [2]], [1, [1]]]).scale(-F3.one()), LaurentSeries.one(F3)]
    with pytest.raises(NotSimpleRoot):
        hensel_lift_root(bad, LaurentSeries.one(F3), 8)


def _two_pass_lift(coeffs, x0, target_prec):
    """Newton's lift with P(x) and P'(x) in two Horner passes, P' over the
    scaled coefficient list: the oracle for ``hensel_lift_root``."""

    def evaluate(cs, x):
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = acc * x + c
        return acc

    field = x0.field
    deriv = [c.scale(field.from_int(k)) for k, c in enumerate(coeffs) if k >= 1]
    x = x0
    for _ in range(80):
        p = evaluate(coeffs, x)
        if p.is_exact_zero() or (p.is_zero_known() and p.abs_prec >= target_prec):
            return x
        corr = p * evaluate(deriv, x).inverse(prec=target_prec + 2)
        if corr.is_zero_known() and corr.abs_prec is not None and corr.abs_prec >= target_prec:
            return x.truncate(target_prec)
        x = (x - corr).truncate(target_prec)
    raise PrecisionExhausted("Newton iteration did not converge")


def test_one_pass_lift_matches_the_two_pass_oracle(monkeypatch):
    from ramify import covers

    cases = []
    for p in (2, 3, 5, 7, 11, 13):
        field = field_create(p, 1)
        for m in (1, 2, 3):
            if m % p == 0:
                continue
            f = sparse(field, [[-m, [1]], [-1, [1]], [0, [1]]])
            b = next(bb for bb in range(1, p) if (1 + bb * m) % p == 0)
            a = (1 + b * m) // p
            x0 = LaurentSeries.monomial(field, field.one(), p)  # the seed of t, as c = 1
            for prec in (16, 64, 256):
                cases.append((covers._relation_polynomial(f, a, b), x0, max(prec, p + m + 4)))
    # The wild layer of a tower over F_4, lifted inside the builder.
    lift = covers.hensel_lift_root

    def spy(*args):
        cases.append(args)
        return lift(*args)

    monkeypatch.setattr(covers, "hensel_lift_root", spy)
    F4 = field_create(2, 2)
    covers.build_compositum_tower(F4, 3, sparse(F4, [[-1, [0, 1]], [0, [1, 1]]]), prec=64)
    assert len(cases) == 16 * 3 + 1
    for coeffs, x0, target in cases:
        root = hensel_lift_root(coeffs, x0, target)
        assert root == _two_pass_lift(coeffs, x0, target)
        assert root.abs_prec == target


def test_truncate_then_add_tracks_min_precision():
    f = sparse(F5, [[0, [1]], [4, [2]]]).truncate(6)
    g = sparse(F5, [[1, [3]]]).truncate(9)
    assert (f + g).abs_prec == 6


def test_shift_and_scale():
    f = sparse(F5, [[0, [1]], [1, [2]]])
    assert f.shift(3).valuation() == 3
    assert f.scale(F5.from_int(2)).coeff(1) == F5.from_int(4)
    assert f.scale(F5.zero()).is_exact_zero()


# ---------------------------------------------------------------------------
# Differential test: products, inverses and composition against a schoolbook
# oracle.  The oracle sees a series only through support() and abs_prec, as
# (terms, abs_prec) with terms the nonzero coefficients, and re-derives the
# precision rules term by term with boxed field arithmetic.

F4 = field_create(2, 2)
F9 = field_create(3, 2)
F11 = field_create(11, 1)
# 2^31 - 1 is prime; its products need slots wider than 8 bytes.
F_WIDE = FiniteField(2**31 - 1, 1, (0,))
DIFF_FIELDS = [F2, F11, F4, F9, F_WIDE]


def ref_of(s):
    return dict(s.support()), s.abs_prec


def ref_v0(ref):
    terms, ap = ref
    if terms:
        return min(terms)
    return 0 if ap is None else ap


def ref_clean(terms, ap):
    return {e: c for e, c in terms.items() if c and (ap is None or e < ap)}, ap


def ref_add(x, y, field):
    (tx, px), (ty, py) = x, y
    caps = [ap for ap in (px, py) if ap is not None]
    ap = min(caps) if caps else None
    out = dict(tx)
    for e, c in ty.items():
        out[e] = out.get(e, field.zero()) + c
    return ref_clean(out, ap)


def ref_mul(x, y, field):
    (tx, px), (ty, py) = x, y
    if (px is None and not tx) or (py is None and not ty):
        return {}, None
    caps = []
    if px is not None:
        caps.append(px + ref_v0(y))
    if py is not None:
        caps.append(py + ref_v0(x))
    ap = min(caps) if caps else None
    out = {}
    for e1, c1 in tx.items():
        for e2, c2 in ty.items():
            out[e1 + e2] = out.get(e1 + e2, field.zero()) + c1 * c2
    return ref_clean(out, ap)


def ref_inverse(x, field, prec=None):
    terms, ap = x
    v = min(terms)
    c0 = terms[v]
    if ap is None and len(terms) == 1:
        return {-v: c0.inverse()}, None
    if ap is not None:
        rel = ap - v if prec is None else min(ap - v, prec)
    else:
        rel = 64 if prec is None else prec
    zero = field.zero()
    w = [c0.inverse()]
    for j in range(1, rel):
        s = zero
        for i in range(1, j + 1):
            s = s + terms.get(v + i, zero) * w[j - i]
        w.append(-(w[0] * s))
    return ref_clean({-v + j: c for j, c in enumerate(w)}, -v + rel)


def ref_truncate(x, ap):
    if x[1] is not None and x[1] <= ap:
        return x
    return ref_clean(x[0], ap)


def ref_compose(f, g, field):
    """Horner's rule on the polynomial part and in g^{-1} on the pole part."""
    tf, pf = f
    w = min(g[0])
    if not tf:
        return ({}, None) if pf is None else ({}, pf * w)
    result = None
    if max(tf) >= 0:
        acc = ({}, None)
        for e in range(max(tf), -1, -1):
            acc = ref_add(ref_mul(acc, g, field), ref_clean({0: tf.get(e, field.zero())}, None), field)
        result = acc
    if min(tf) < 0:
        h = ref_inverse(g, field)
        acc = ({}, None)
        for k in range(-min(tf), 0, -1):
            acc = ref_mul(ref_add(acc, ref_clean({0: tf.get(-k, field.zero())}, None), field), h, field)
        result = acc if result is None else ref_add(result, acc, field)
    return result if pf is None else ref_truncate(result, pf * w)


def assert_matches(s, ref):
    terms, ap = ref
    assert s.abs_prec == ap
    assert s.v0 == ref_v0(ref)
    assert dict(s.support()) == terms
    hi = ap if ap is not None else max(terms, default=0) + 1
    for e in range(s.v0 - 2, hi):
        assert s.coeff(e) == terms.get(e, s.field.zero())


@st.composite
def series_in(draw, field, min_v0=-4, max_v0=4, unit=False):
    """Exact or approximate series; ``unit`` makes the first coefficient nonzero."""
    keys = draw(st.lists(st.integers(0, field.order - 1), min_size=1 if unit else 0, max_size=7))
    if unit:
        keys[0] = draw(st.integers(1, field.order - 1))
    v0 = draw(st.integers(min_v0, max_v0))
    if draw(st.booleans()):
        return LaurentSeries(field, v0, keys, None)
    known = draw(st.integers(1 if unit else 0, len(keys)))
    return LaurentSeries(field, v0, keys, v0 + known)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DIFF_FIELDS), st.data())
def test_product_matches_schoolbook(field, data):
    f = data.draw(series_in(field))
    g = data.draw(series_in(field))
    assert_matches(f * g, ref_mul(ref_of(f), ref_of(g), field))
    assert_matches(f * f, ref_mul(ref_of(f), ref_of(f), field))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DIFF_FIELDS), st.data())
def test_inverse_matches_schoolbook(field, data):
    f = data.draw(series_in(field, unit=True))
    prec = data.draw(st.one_of(st.none(), st.integers(1, 12)))
    assert_matches(f.inverse(prec=prec), ref_inverse(ref_of(f), field, prec))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(DIFF_FIELDS), st.data())
def test_compose_matches_schoolbook(field, data):
    f = data.draw(series_in(field, min_v0=-3))
    g = data.draw(series_in(field, min_v0=1, max_v0=3, unit=True))
    assert_matches(compose(f, g), ref_compose(ref_of(f), ref_of(g), field))


# ---------------------------------------------------------------------------
# Paterson-Stockmeyer compose against the Horner oracle.  With up to 100
# terms in f, the baby-step blocks take every shape: full, ragged last
# block, single block, and blocks that are entirely zero (sparse f).


@st.composite
def long_series(draw, field, max_len=100):
    """Exact or approximate f with up to max_len terms, dense or sparse, maybe with a pole."""
    n = draw(st.integers(0, max_len))
    if draw(st.booleans()):
        keys = draw(st.lists(st.integers(0, field.order - 1), min_size=n, max_size=n))
    else:
        spots = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=6)) if n else []
        keys = [0] * n
        for i in spots:
            keys[i] = draw(st.integers(1, field.order - 1))
    v0 = draw(st.integers(-40, 2))
    if draw(st.booleans()):
        return LaurentSeries(field, v0, keys, None)
    return LaurentSeries(field, v0, keys, v0 + draw(st.integers(0, n)))


@st.composite
def substitutions(draw, field):
    """g with v(g) >= 1: an exact monomial, a short exact polynomial, or approximate."""
    kind = draw(st.sampled_from(["monomial", "exact", "approximate"]))
    v0 = draw(st.integers(1, 3))
    lead = draw(st.integers(1, field.order - 1))
    if kind == "monomial":
        return LaurentSeries.monomial(field, field.from_key(lead), v0)
    size = 3 if kind == "exact" else 12
    rest = draw(st.lists(st.integers(0, field.order - 1), max_size=size - 1))
    keys = [lead] + rest
    if kind == "exact":
        return LaurentSeries(field, v0, keys, None)
    return LaurentSeries(field, v0, keys, v0 + draw(st.integers(1, len(keys))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DIFF_FIELDS), st.data())
def test_compose_of_long_series_matches_horner(field, data):
    f = data.draw(long_series(field))
    g = data.draw(substitutions(field))
    assert_matches(compose(f, g), ref_compose(ref_of(f), ref_of(g), field))


def test_compose_needs_about_two_sqrt_n_products(monkeypatch):
    # Horner's rule would take one product per term: 1,024 here, and one
    # more per pole term.  A pole of order m adds about 2 log2(m) products.
    n = 1024
    g = LaurentSeries(F5, 1, [1, 2, 3] * 400, 1201)
    calls = []
    inner = LaurentSeries.__mul__

    def counted(x, y):
        calls.append(1)
        return inner(x, y)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    k = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    for v0, abs_prec, head in ((0, 1201, (1, 2, 2)), (-1023, 177, (1,))):
        f = LaurentSeries(F5, v0, [1 + e % 4 for e in range(n)], None)
        calls.clear()
        out = compose(f, g)
        assert len(calls) <= 2 * k + 2 + 2 * (-v0).bit_length()
        assert out.abs_prec == abs_prec and out.v0 == v0 and out.coeffs[: len(head)] == head
