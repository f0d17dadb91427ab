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
from ramify import series
from ramify.series import LaurentSeries, compose, hensel_lift_root, nth_root_of_unit

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F5 = field_create(5, 1)


def sparse(field, pairs):
    """The exact series with the element of coordinates c at t^e, for each [e, c]."""
    return LaurentSeries.from_terms(field, {e: sum(x * field.p ** i for i, x in enumerate(c)) for e, c in pairs})


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
    expected = {i: 1 for i in range(4)}
    assert dict(inv.support()) == expected
    back = f * inv
    assert back.coeff(0) == 1
    assert all(not back.coeff(i) for i in range(1, back.abs_prec))


def test_inverse_of_inverse_roundtrips():
    f = sparse(F5, [[-2, [3]], [0, [1]], [3, [4]]]).truncate(20)
    double = f.inverse().inverse()
    assert (double - f).is_zero_known()


def test_inverse_to_no_terms_is_the_empty_window():
    # prec <= 0 asks for no coefficient: the honest answer is O(t^(prec - v)),
    # not an IndexError from an empty window.
    for f in (LaurentSeries.from_terms(F3, {0: 1, 1: 1}), sparse(F3, [[2, [1]], [3, [2]]]).truncate(5)):
        v = f.valuation()
        for prec in (0, -1, -3):
            assert f.inverse(prec=prec) == LaurentSeries(F3, prec - v, [], prec - v)


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
    assert hensel_lift_root(lambda x: (x - t, LaurentSeries.one(F2)), t, 10) == t


def test_hensel_square_root_mod3():
    one_plus_s = sparse(F3, [[0, [1]], [1, [1]]])
    root = hensel_lift_root(lambda x: (x * x - one_plus_s, x.scale(2)), LaurentSeries.one(F3), 12)
    assert root.coeff(0) == 1
    assert root.coeff(1) == 2
    residual = root * root - one_plus_s
    assert residual.is_zero_known() and residual.abs_prec >= 12


def test_hensel_not_simple_root():
    # x^2 - (1 + s) over F_2: the derivative 2x is 0.
    one_plus_s = sparse(F2, [[0, [1]], [1, [1]]])
    with pytest.raises(NotSimpleRoot):
        hensel_lift_root(lambda x: (x * x - one_plus_s, x.scale(0)), LaurentSeries.one(F2), 8)


def test_hensel_bad_seed_rejected():
    # F(x) = x - 1 - s from seed 1; F(x) = x - 2 - s is a unit at seed 1.
    one = LaurentSeries.one(F3)
    good, bad = (sparse(F3, [[0, [c]], [1, [1]]]) for c in (1, 2))
    assert hensel_lift_root(lambda x: (x - good, one), one, 8).coeff(1) == 1
    with pytest.raises(NotSimpleRoot):
        hensel_lift_root(lambda x: (x - bad, one), one, 8)


def test_hensel_lift_keeps_the_target_precision_at_a_seed_that_is_a_root():
    # F(1) = 1 - (1 + O(t^12)) is zero to the target, so 1 is the root, but
    # known only to O(t^12) (test_hensel_identity_case: an F that vanishes
    # exactly keeps an exact root).
    one = LaurentSeries.one(F3)
    root = hensel_lift_root(lambda x: (x * x - one.truncate(12), x.scale(2)), one, 12)
    assert root == one.truncate(12)


def test_nth_root_of_unit_keeps_the_units_precision():
    # A cube root over F_5 to O(t^20), and the cube root of 1 + O(t^20),
    # which is 1 known to O(t^20), not the exact 1; an exact u gives 64 terms.
    u = LaurentSeries(F5, 0, [1] + [(3 * i + 1) % 5 for i in range(19)], 20)
    root = nth_root_of_unit(u, 3)
    err = root ** 3 - u
    assert err.is_zero_known() and err.abs_prec == root.abs_prec == 20
    assert nth_root_of_unit(LaurentSeries.one(F5).truncate(20), 3).abs_prec == 20
    assert nth_root_of_unit(sparse(F5, [[0, [1]], [1, [1]]]), 3).abs_prec == 64


def test_truncate_then_add_tracks_min_precision():
    f = sparse(F5, [[0, [1]], [4, [2]]]).truncate(6)
    g = sparse(F5, [[1, [3]]]).truncate(9)
    assert (f + g).abs_prec == 6


def test_shift_and_scale():
    f = sparse(F5, [[0, [1]], [1, [2]]])
    assert f.shift(3).valuation() == 3
    assert f.scale(2).coeff(1) == 4
    assert f.scale(0).is_exact_zero()
    assert f.truncate(4).scale(0) == LaurentSeries.zero(F5) == f.truncate(4) * LaurentSeries.monomial(F5, 0, 0)


@pytest.mark.parametrize("field", [F2, F5, field_create(2, 2), field_create(3, 2), field_create(2, 6)])
def test_scale_is_the_product_by_a_constant(field):
    # Oracle: the key product of each coefficient, and the series product
    # by the constant series, which is the exact zero at c = 0.
    f = LaurentSeries(field, -3, [(7 * i + 3) % field.order for i in range(40)], 37)
    for c in range(field.order):
        scaled = f.scale(c)
        assert scaled == f * LaurentSeries.monomial(field, c, 0)
        assert scaled.coeffs == (tuple(field.mul_key(c, x) for x in f.coeffs) if c else ())
    assert f.scale(0).is_exact_zero()


# ---------------------------------------------------------------------------
# Differential test: products, inverses and composition against a schoolbook
# oracle.  The oracle sees a series only through support() and abs_prec, as
# (terms, abs_prec) with terms the nonzero coefficients, and re-derives the
# precision rules term by term with one field operation at a time.

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


def plus(field, x, y):
    return field.add_keys([x], [y])[0]


def ref_add(x, y, field):
    (tx, px), (ty, py) = x, y
    caps = [ap for ap in (px, py) if ap is not None]
    ap = min(caps) if caps else None
    out = dict(tx)
    for e, c in ty.items():
        out[e] = plus(field, out.get(e, 0), c)
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
            out[e1 + e2] = plus(field, out.get(e1 + e2, 0), field.mul_key(c1, c2))
    return ref_clean(out, ap)


def ref_inverse(x, field, prec=None):
    terms, ap = x
    v = min(terms)
    c0 = terms[v]
    if ap is None and len(terms) == 1:
        return {-v: field.inverse_key(c0)}, None
    if ap is not None:
        rel = ap - v if prec is None else min(ap - v, prec)
    else:
        rel = 64 if prec is None else prec
    w = [field.inverse_key(c0)]
    for j in range(1, rel):
        s = 0
        for i in range(1, j + 1):
            s = plus(field, s, field.mul_key(terms.get(v + i, 0), w[j - i]))
        w.append(field.neg_keys([field.mul_key(w[0], s)])[0])
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
            acc = ref_add(ref_mul(acc, g, field), ref_clean({0: tf.get(e, 0)}, None), field)
        result = acc
    if min(tf) < 0:
        h = ref_inverse(g, field)
        acc = ({}, None)
        for k in range(-min(tf), 0, -1):
            acc = ref_mul(ref_add(acc, ref_clean({0: tf.get(-k, 0)}, None), field), h, field)
        result = acc if result is None else ref_add(result, acc, field)
    return result if pf is None else ref_truncate(result, pf * w)


def assert_matches(s, ref):
    terms, ap = ref
    assert s.abs_prec == ap
    assert s.v0 == ref_v0(ref)
    assert dict(s.support()) == terms
    hi = ap if ap is not None else max(terms, default=0) + 1
    for e in range(s.v0 - 2, hi):
        assert s.coeff(e) == terms.get(e, 0)


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
        return LaurentSeries.monomial(field, lead, v0)
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


@st.composite
def key_rows(draw, field):
    """One to five rows of keys of unequal length (0 to 60), dense or sparse,
    some with trailing zeros or a single key."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 60))
        keys = draw(st.lists(st.integers(0, field.order - 1), min_size=n, max_size=n))
        if draw(st.booleans()):
            keys = [c if draw(st.integers(0, 4)) == 0 else 0 for c in keys]
        rows.append(keys + [0] * draw(st.integers(0, 3)))
    return rows


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DIFF_FIELDS), st.data())
def test_evaluating_rows_at_once_matches_one_compose_per_row(field, data):
    # The rows share g's powers, their packs and the giant step, but each
    # result has its own row's length and precision: == one compose each,
    # and the products of the longest row alone.
    rows = data.draw(key_rows(field))
    g = data.draw(substitutions(field))  # compose stretches at a monomial
    out = series._evaluate_at(field, rows, g)
    assert out == [compose(LaurentSeries(field, 0, keys, None), g) for keys in rows]


def test_rows_take_the_products_of_the_longest_row(monkeypatch):
    g = LaurentSeries(F5, 1, [1, 2, 3] * 40, 121)
    rows = [[1 + e % 4 for e in range(n)] for n in (100, 37, 2, 1, 0)]
    calls = []
    inner = LaurentSeries.__mul__
    monkeypatch.setattr(LaurentSeries, "__mul__", lambda x, y: calls.append(1) or inner(x, y))
    series._evaluate_at(F5, rows[:1], g)
    alone = len(calls)
    calls.clear()
    out = series._evaluate_at(F5, rows, g)
    # g^2 .. g^10 for k = 10; the giant steps multiply packed integers.
    assert len(calls) == alone == 9
    assert [x.abs_prec for x in out] == [121, 121, 121, None, None]


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
