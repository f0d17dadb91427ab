import random
from math import comb

import pytest

from ramify import corpus, covers
from ramify.covers import (
    BreakTable,
    GaloisCover,
    artin_schreier_reduce,
    build_artin_schreier,
    build_compositum_tower,
    build_kummer,
    lower_break_table,
)
from ramify.errors import (
    InputSchemaError,
    MismatchDetected,
    MissingRootsOfUnity,
    NotGaloisOverBase,
    NotSimpleRoot,
    PoleOrderDivisibleByP,
    PrecisionExhausted,
    SizeCapExceeded,
)
from ramify.fields import field_create
from ramify.linalg import MatrixFF
from ramify.ramification import Representation, filtration_from_breaks, swan_conductor
from ramify.series import DEFAULT_PRECISION_CAP, LaurentSeries, compose, precision_cap

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)
F5 = field_create(5, 1)


def as_break_oracle(p, m, j):
    """Independent break computation via valuations in the y-basis.

    With v(t) = p and v(y) = -m, the action difference t^a((y+j)^b - y^b)
    expands into monomials t^a y^i of valuation a*p - m*i; distinct i give
    distinct valuations mod p, so the minimum over nonzero terms is exact.
    """
    b = next(bb for bb in range(1, p) if (1 + bb * m) % p == 0)
    a = (1 + b * m) // p
    vals = []
    for i in range(b):
        coeff = comb(b, i) * pow(j, b - i) % p
        if coeff:
            vals.append(a * p - m * i)
    return min(vals)


def as_sparse(field, pairs):
    return LaurentSeries.from_terms(field, {e: field.from_coeffs(c) for e, c in pairs})


@pytest.mark.parametrize(
    "field,p,m",
    [(F2, 2, 1), (F2, 2, 3), (F3, 3, 1), (F3, 3, 2), (F5, 5, 1)],
)
def test_artin_schreier_breaks_match_oracle(field, p, m):
    cover = build_artin_schreier(field, as_sparse(field, [[-m, [1]]]), prec=16)
    assert cover.group.n == p
    bt = lower_break_table(cover)
    for j in range(1, p):
        assert bt.i_map[j] == as_break_oracle(p, m, j) == m + 1


@pytest.mark.parametrize(
    "field,p,m,terms",
    [
        (F5, 5, 3, [[-3, [2]], [-1, [1]], [0, [4]]]),
        (F3, 3, 4, [[-4, [2]], [-1, [2]]]),
        (F4, 2, 3, [[-3, [0, 1]], [-1, [1, 1]]]),
    ],
)
def test_artin_schreier_nonunit_leading_coeff(field, p, m, terms):
    # Exercises the general leading-data path (tau, eta != 1) and the
    # b-th root extraction with b > 1.
    cover = build_artin_schreier(field, as_sparse(field, terms), prec=20)
    bt = lower_break_table(cover)
    for j in range(1, p):
        assert bt.i_map[j] == as_break_oracle(p, m, j) == m + 1


def test_tower_with_nonunit_coefficient():
    tower = build_compositum_tower(F4, 3, as_sparse(F4, [[-1, [0, 1]]]), prec=24)
    by_label = lower_break_table(tower).by_label()
    assert by_label["sigma"] == 4
    assert by_label["tau"] == 1


def test_as_p2_m1_series_against_closed_form():
    cover = build_artin_schreier(F2, as_sparse(F2, [[-1, [1]]]), prec=20)
    # Closed form: t = s^2 / (1 + s), via a different code path (inverse).
    s2 = as_sparse(F2, [[2, [1]]])
    denom = as_sparse(F2, [[0, [1]], [1, [1]]])
    expected = s2 * denom.inverse(prec=24)
    assert (cover.t_in_s - expected).is_zero_known()
    # sigma(s) - s = t * s-unit has valuation 2
    diff = cover.sigma_action[1] - LaurentSeries.uniformizer(F2)
    assert diff.valuation() == 2


def test_cover_action_valuations_and_group_law():
    cover = build_artin_schreier(F3, as_sparse(F3, [[-2, [1]]]), prec=16)
    s = LaurentSeries.uniformizer(F3)
    for i, act in cover.sigma_action.items():
        assert act.valuation() == 1
    for i in range(cover.group.n):
        for j in range(cover.group.n):
            k = cover.group.product(j, i)
            lhs = compose(cover.sigma_action[j], cover.sigma_action[i])
            assert (lhs - cover.sigma_action[k]).is_zero_known()
    assert (compose(cover.t_in_s, cover.sigma_action[1]) - cover.t_in_s).is_zero_known()


def test_artin_schreier_reduction_equivalent_cover():
    # t^-2 over F_2 reduces to t^-1; the reduced cover must have the same breaks.
    direct = build_artin_schreier(F2, as_sparse(F2, [[-1, [1]]]), prec=16)
    reduced = build_artin_schreier(F2, as_sparse(F2, [[-2, [1]]]), prec=16)
    assert lower_break_table(direct).by_label() == lower_break_table(reduced).by_label()
    red = artin_schreier_reduce(as_sparse(F2, [[-2, [1]]]))
    assert red.valuation() == -1


def test_artin_schreier_trivializing_input_rejected():
    with pytest.raises(PoleOrderDivisibleByP):
        build_artin_schreier(F2, as_sparse(F2, [[-2, [1]], [-1, [1]]]))
    with pytest.raises(PoleOrderDivisibleByP):
        build_artin_schreier(F2, as_sparse(F2, [[0, [1]]]))


def test_kummer_examples():
    cover = build_kummer(F4, 3)
    assert cover.group.n == 3
    bt = lower_break_table(cover)
    assert bt.by_label() == {"tau": 1, "tau^2": 1}
    assert cover.t_in_s == as_sparse(F4, [[3, [1]]])

    cover2 = build_kummer(F3, 2)
    assert lower_break_table(cover2).by_label() == {"tau": 1}

    with pytest.raises(MissingRootsOfUnity):
        build_kummer(F2, 3)


def test_kummer_of_degree_one_is_the_identity_extension():
    cover = build_kummer(F4, 1)
    assert cover.group.n == 1 and cover.group.labels == ("1",)
    s = LaurentSeries.uniformizer(F4)
    assert cover.t_in_s == cover.sigma_action[0] == s
    assert lower_break_table(cover).i_map == {}


def test_tame_degree_zero_is_refused():
    with pytest.raises(NotGaloisOverBase):
        build_kummer(F4, 0)
    with pytest.raises(NotGaloisOverBase):
        build_compositum_tower(F4, 0, as_sparse(F4, [[-1, [1, 0]]]))


def test_tower_refuses_missing_roots_before_the_precision_cap():
    # Both faults at once: F_2 has no cube root of unity, and the pole 3 * 4095
    # is over the cap.  The tame layer is built first, so its error wins.
    with pytest.raises(MissingRootsOfUnity):
        build_compositum_tower(F2, 3, as_sparse(F2, [[-4095, [1]]]))


def test_tower_z6_breaks():
    tower = build_compositum_tower(F4, 3, as_sparse(F4, [[-1, [1, 0]]]), prec=24)
    assert tower.group.n == 6
    bt = lower_break_table(tower)
    by_label = bt.by_label()
    # Oracle: the wild generator acts through the rank-3 pole over the tame
    # layer, so its break is the oracle value for (p, m') = (2, 3); every
    # element moving the tame layer has break 1.
    assert by_label["sigma"] == as_break_oracle(2, 3, 1) == 4
    for label in ("tau", "tau^2", "sigma*tau", "sigma*tau^2"):
        assert by_label[label] == 1
    assert tower.intermediate is not None
    assert len(tower.intermediate.H_indices) == 2


def test_tower_z10_breaks():
    tower = build_compositum_tower(F5, 2, as_sparse(F5, [[-1, [1]]]), prec=24)
    bt = lower_break_table(tower).by_label()
    for j in (1, 2, 3, 4):
        label = "sigma" if j == 1 else f"sigma^{j}"
        assert bt[label] == as_break_oracle(5, 2, j) == 3
    assert bt["tau"] == 1 and bt["sigma*tau"] == 1


def test_tower_degenerate_tame_layer():
    tower = build_compositum_tower(F2, 1, as_sparse(F2, [[-1, [1]]]), prec=16)
    plain = build_artin_schreier(F2, as_sparse(F2, [[-1, [1]]]), prec=16)
    assert lower_break_table(tower).by_label() == lower_break_table(plain).by_label()
    assert tower.intermediate is not None
    assert tower.group.labels == plain.group.labels


def test_tower_reducible_pullback_still_builds():
    # f = t^-2 pulled back through degree 3 has pole order 6; reduction
    # inside the wild layer brings it to 3 and the tower still closes up.
    tower = build_compositum_tower(F4, 3, as_sparse(F4, [[-2, [1, 0]]]), prec=24)
    assert lower_break_table(tower).by_label()["sigma"] == 4


def test_tower_trivializing_pullback_rejected():
    with pytest.raises(PoleOrderDivisibleByP):
        build_compositum_tower(F4, 3, as_sparse(F4, [[-2, [1, 0]], [-1, [1, 0]]]), prec=24)


def test_break_table_is_class_function():
    tower = build_compositum_tower(F4, 3, as_sparse(F4, [[-1, [1, 0]]]), prec=24)
    bt = lower_break_table(tower)
    g = tower.group
    for t in range(g.n):
        for s, v in bt.i_map.items():
            assert bt.i_map[g.conjugate(t, s)] == v


def test_break_table_rejects_values_below_one():
    z2 = build_kummer(F3, 2).group
    with pytest.raises(MismatchDetected):
        BreakTable(z2, {1: 0})


def test_break_table_rejects_non_class_function():
    from ramify.groups import group_closure
    from ramify.linalg import MatrixFF

    F7 = field_create(7, 1)
    s3 = group_closure(
        [
            MatrixFF.from_int_rows(F7, [[0, 1], [1, 0]]),
            MatrixFF.from_int_rows(F7, [[0, 6], [1, 6]]),
        ]
    )
    orders = [s3.order_of(i) for i in range(s3.n)]
    i_map = {}
    seen_transposition = False
    for i, o in enumerate(orders):
        if o == 2:
            i_map[i] = 2 if not seen_transposition else 1
            seen_transposition = True
        elif o == 3:
            i_map[i] = 1
    with pytest.raises(MismatchDetected):
        BreakTable(s3, i_map)


def _break_table_groups():
    from ramify.groups import group_closure

    F7 = field_create(7, 1)
    s3 = group_closure(
        [MatrixFF.from_int_rows(F7, [[0, 1], [1, 0]]), MatrixFF.from_int_rows(F7, [[0, 6], [1, 6]])]
    )
    # x -> 2x + b over F_7: Z/7 x| Z/3, nonabelian of order 21.
    z7_z3 = group_closure(
        [MatrixFF.from_int_rows(F7, [[2, 0], [0, 1]]), MatrixFF.from_int_rows(F7, [[1, 1], [0, 1]])]
    )
    tower = build_compositum_tower(F4, 3, as_sparse(F4, [[-1, [1, 0]]]), prec=24)
    return [s3, z7_z3, tower.group]


def test_break_table_checks_invariance_on_generators_only():
    """The generator check accepts exactly the maps the full scan over every
    conjugating element accepts, on invariant and non-invariant maps."""
    rng = random.Random(11)
    for group in _break_table_groups():
        assert group.n in (6, 21)
        classes = {frozenset(group.conjugate(t, x) for t in range(group.n)) for x in range(group.n)}
        nontrivial = [x for x in range(group.n) if x != group.identity]
        outcomes = set()
        for trial in range(60):
            if trial % 2:
                value = {cls: rng.randint(1, 3) for cls in classes}
                i_map = {x: value[cls] for cls in classes for x in cls if x != group.identity}
            else:
                keys = rng.sample(nontrivial, rng.randint(1, len(nontrivial)))
                i_map = {x: rng.randint(1, 2) for x in keys}
            full = all(
                i_map.get(group.conjugate(t, x)) == v
                for t in range(group.n)
                for x, v in i_map.items()
            )
            try:
                BreakTable(group, i_map)
                accepted = True
            except MismatchDetected as exc:
                assert "conjugation-invariant" in str(exc)
                accepted = False
            assert accepted == full
            outcomes.add(accepted)
        assert outcomes == ({True} if group.is_abelian() else {True, False})


def test_a_break_past_the_build_precision_raises():
    base = build_artin_schreier(F2, as_sparse(F2, [[-3, [1]]]), prec=16)
    # Doctor a copy whose action series are truncated below the break 4.
    doctored = GaloisCover(
        base_field=base.base_field,
        group=base.group,
        t_in_s=base.t_in_s,
        sigma_action={i: a.truncate(3) for i, a in base.sigma_action.items()},
        prec=4,
    )
    with pytest.raises(PrecisionExhausted, match=r"break of sigma exceeds O\(s\^3\)"):
        lower_break_table(doctored)
    for cover in (doctored, base):
        with pytest.raises(PrecisionExhausted, match="cannot be rebuilt"):
            cover.rebuild(32)


def _closed_form_breaks(p, m, pole):
    """Element j m + k of the tower with tame degree m over a wild datum of
    pole order ``pole`` breaks at m * pole + 1 when k = 0 and at 1 otherwise.
    An AS cover is the case m = 1, a Kummer layer the case p = 1."""
    return {
        j * m + k: m * pole + 1 if k == 0 else 1
        for j in range(p)
        for k in range(m)
        if j or k
    }


def test_no_built_cover_is_rebuilt():
    # Every built cover shows each break at its build precision (the proof
    # is in lower_break_table's docstring), with the closed-form value.
    rng = random.Random(18)
    F9 = field_create(3, 2)
    built = []
    for field in (F2, F3, F4, F5, field_create(7, 1), F9):
        p = field.p
        for m in (1, 2, 3, 4, 5, 7, 11, 13):
            if m % p == 0:
                continue
            lower_term = [[-1, [rng.randrange(p)]]] if m > 1 else []
            f = as_sparse(field, [[-m, [1 + rng.randrange(p - 1)]]] + lower_term)
            for prec in (1, 2, 8, None):
                built.append((build_artin_schreier(field, f, prec=prec), (p, 1, m)))
    for field, tame in ((F4, (1, 3)), (F9, (1, 2, 4, 8))):
        for m in tame:
            for pole in (1, 2, 4, 5, 7):
                if pole % field.p == 0:
                    continue
                for prec in (1, 8, None):
                    cover = build_compositum_tower(field, m, as_sparse(field, [[-pole, [1]]]), prec=prec)
                    built.append((cover, (field.p, m, pole)))
    for cover_id in corpus.cover_ids():
        cover = corpus.get_cover(cover_id)
        spec = corpus._cover_spec(cover_id)["cover"]
        m = spec.get("m", 1)
        pole = -min(exp for exp, _ in spec.get("f", [[0, 0]]))
        built.append((cover, (1 if spec["type"] == "kummer" else cover.p, m, pole)))
        if cover.intermediate is not None:
            built.append((cover.intermediate.lower, (1, m, 0)))
    for cover, shape in built:
        assert lower_break_table(cover).i_map == _closed_form_breaks(*shape), shape
    assert len(built) == 250


def test_precision_cap_parses_the_environment(monkeypatch):
    monkeypatch.delenv("RAMIFY_PRECISION_CAP", raising=False)
    assert precision_cap() == DEFAULT_PRECISION_CAP
    monkeypatch.setenv("RAMIFY_PRECISION_CAP", "512")
    assert precision_cap() == 512
    for raw in ("abc", "", "1e3", "0", "-4", "1_0", " 64", "\u0666\u0664"):
        monkeypatch.setenv("RAMIFY_PRECISION_CAP", raw)
        with pytest.raises(InputSchemaError, match="RAMIFY_PRECISION_CAP"):
            precision_cap()


def _no_series_work(*args, **kwargs):
    raise AssertionError("series work before the precision cap check")


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_artin_schreier(F2, as_sparse(F2, [[-1, [1]]]), prec=DEFAULT_PRECISION_CAP + 1),
        lambda: build_artin_schreier(F2, as_sparse(F2, [[-4091, [1]]])),
        lambda: build_artin_schreier(F2, as_sparse(F2, [[-4096, [1]]])),
        lambda: build_compositum_tower(F2, 1, as_sparse(F2, [[-1, [1]]]), prec=10 ** 8),
        lambda: build_compositum_tower(F2, 1, as_sparse(F2, [[-4091, [1]]])),
        lambda: build_compositum_tower(F4, 3, as_sparse(F4, [[-1364, [1]]])),
    ],
)
def test_builders_refuse_work_over_the_cap_before_any_series_work(build, monkeypatch):
    monkeypatch.delenv("RAMIFY_PRECISION_CAP", raising=False)
    for name in ("artin_schreier_reduce", "compose", "hensel_lift_root", "_relation_polynomial"):
        monkeypatch.setattr(covers, name, _no_series_work)
    with pytest.raises(SizeCapExceeded, match="precision cap 4096"):
        build()


def test_builders_allow_the_largest_window_and_precision_under_the_cap(monkeypatch):
    # p + m + 4 = 4096 and prec = 4096 pass the check; the lift is stopped
    # right after it so the test stays cheap.
    monkeypatch.delenv("RAMIFY_PRECISION_CAP", raising=False)
    monkeypatch.setattr(covers, "hensel_lift_root", _no_series_work)
    for f, prec in (([[-4089, [1]]], None), ([[-1, [1]]], DEFAULT_PRECISION_CAP)):
        with pytest.raises(AssertionError, match="series work"):
            build_artin_schreier(F2, as_sparse(F2, f), prec=prec)
    with pytest.raises(AssertionError, match="series work"):
        build_compositum_tower(F4, 3, as_sparse(F4, [[-1363, [1]]]))


def test_raising_the_precision_cap_lets_a_pole_order_through(monkeypatch):
    # Under the default cap t^-4096 is refused before reduction; with a
    # larger cap it is reduced to t^-1, the cover with break 2.
    f = as_sparse(F2, [[-4096, [1]]])
    monkeypatch.delenv("RAMIFY_PRECISION_CAP", raising=False)
    with pytest.raises(SizeCapExceeded):
        build_artin_schreier(F2, f)
    monkeypatch.setenv("RAMIFY_PRECISION_CAP", "8192")
    assert lower_break_table(build_artin_schreier(F2, f)).by_label() == {"sigma": 2}
    # A cap of 16 refuses m = 11 over F_2 (window 17), a cap of 17 builds it,
    # and the default precision 64 stays allowed under both.
    f = as_sparse(F2, [[-11, [1]]])
    monkeypatch.setenv("RAMIFY_PRECISION_CAP", "16")
    with pytest.raises(SizeCapExceeded, match="needs precision 17"):
        build_artin_schreier(F2, f)
    monkeypatch.setenv("RAMIFY_PRECISION_CAP", "17")
    cover = build_artin_schreier(F2, f)
    assert cover.prec == 64
    assert lower_break_table(cover).by_label() == {"sigma": 12}


def test_defining_function_must_match_base():
    with pytest.raises(NotGaloisOverBase):
        build_artin_schreier(F2, as_sparse(F3, [[-1, [1]]]))


def _character_of_order(group, p):
    """A faithful character of Z/p over the least prime field F_ell with p | ell - 1."""
    ell = next(q for q in range(p + 1, 200, p) if all(q % d for d in range(2, q)))
    zeta = next(x for x in range(2, ell) if pow(x, p, ell) == 1)
    field = field_create(ell, 1)
    return Representation(
        group, {"sigma": MatrixFF.from_int_rows(field, [[zeta]])}
    )


def _counting_compose(monkeypatch):
    calls = []
    inner = covers.compose

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(covers, "compose", counted)
    return calls


def _check_full_group_law(cover):
    """The group law against every element for each generator, and t fixed
    by every element: the loops the builders derive from the generator
    facts (see their docstrings).  Each difference is known at least to
    the precision the docstrings certify: that of the approximate action
    series, and that of t."""
    group, action, t = cover.group, cover.sigma_action, cover.t_in_s
    known = min(a.abs_prec for a in action.values() if a.abs_prec is not None)
    for gen in group.generators():
        for i in range(group.n):
            diff = compose(action[gen], action[i]) - action[group.product(i, gen)]
            assert diff.is_zero_known() and (diff.is_exact or diff.abs_prec >= known)
    for i in range(group.n):
        diff = compose(t, action[i]) - t
        assert diff.is_zero_known() and (diff.is_exact or diff.abs_prec >= t.abs_prec)


def test_artin_schreier_closed_form_grid(monkeypatch):
    """i(sigma) = m + 1 and Sw = m for y^p - y = t^-m, on the whole small grid.

    Counting compose calls pins the builders' checks: an Artin-Schreier
    build runs the defining relation plus two generator checks (t fixed,
    y -> y + 1), so none can silently disappear.  The group law they imply
    is checked here in full.
    """
    calls = _counting_compose(monkeypatch)
    for p in (2, 3, 5, 7, 11):
        field = field_create(p, 1)
        for m in (1, 2, 3):
            if m % p == 0:
                continue
            calls.clear()
            cover = build_artin_schreier(field, as_sparse(field, [[-m, [1]]]), prec=32)
            assert len(calls) == 1 + 2
            _check_full_group_law(cover)
            bt = lower_break_table(cover)
            assert bt.i_map == {j: m + 1 for j in range(1, p)}
            filt = filtration_from_breaks(bt, p)
            assert swan_conductor(_character_of_order(cover.group, p), filt).swan == m


def test_artin_schreier_at_precision_2048_runs_every_self_check(monkeypatch):
    # High precision is within reach: the build keeps all 1 + 2 checks.
    calls = _counting_compose(monkeypatch)
    cover = build_artin_schreier(F2, as_sparse(F2, [[-1, [1]]]), prec=2048)
    assert cover.prec == 2048
    assert len(calls) == 1 + 2
    _check_full_group_law(cover)
    assert lower_break_table(cover).i_map == {1: 2}


@pytest.mark.parametrize("field,tame", [(F4, 3), (F2, 1), (field_create(7, 1), 3)])
def test_tower_runs_every_self_check(monkeypatch, field, tame):
    calls = _counting_compose(monkeypatch)
    tower = build_compositum_tower(field, tame, as_sparse(field, [[-1, [1]]]), prec=24)
    # Pull-back of the datum, the wild layer's own build (relation, s'
    # fixed, y -> y + 1), and the tame generator's action on s' and y when
    # tame > 1.  The group law and t fixed they imply are checked here.
    assert len(calls) == 1 + (1 + 2) + (2 if tame > 1 else 0)
    _check_full_group_law(tower)
    assert lower_break_table(tower).by_label()["sigma"] == tame + 1


# ---------------------------------------------------------------------------
# The relation polynomial P(Z) = prod_j (Z - t^a (y + j)^b) against oracles.


def _relation_terms(f):
    """{(Z-degree, t-degree): key} of the relation of y^p - y = f, and (m, a, b)."""
    p = f.field.p
    m = -f.valuation()
    b = next(bb for bb in range(1, p) if (1 + bb * m) % p == 0)
    a = (1 + b * m) // p
    coeffs = covers._relation_polynomial(f, a, b)
    terms = {(i, k): c.key() for k, d in enumerate(coeffs) for i, c in d.support()}
    return terms, (m, a, b)


def _random_datum(rng, field, m):
    """[[exponent, coordinates], ...]: a nonzero t^-m term and three random terms."""
    p, deg = field.p, field.a
    pairs = [[-m, [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(deg - 1)]]]
    for e in sorted(rng.sample(range(-m + 1, 3), 3)):
        pairs.append([e, [rng.randrange(p) for _ in range(deg)]])
    return pairs


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_relation_polynomial_matches_the_resultant(p):
    """Res_x(t^m (x^p - x - f), Z - t^a x^b) = t^{mb} P(Z), over Z then mod p."""
    sympy = pytest.importorskip("sympy")
    x, z, t = sympy.symbols("x z t")
    field = field_create(p, 1)
    rng = random.Random(p)
    # One pole order for every b in 1..p-1 (b = -1/m mod p), plus a larger one.
    for m in [-pow(b, -1, p) % p for b in range(1, p)] + [p + 1]:
        pairs = _random_datum(rng, field, m)
        ours, (_, a, b) = _relation_terms(as_sparse(field, pairs))
        f = sum(coords[0] * t ** e for e, coords in pairs)
        g = sympy.expand(t ** m * (x ** p - x - f))
        res = sympy.Poly(sympy.resultant(g, z - t ** a * x ** b, x), z, t)
        terms = {mon: c % p for mon, c in res.terms() if c % p}
        ((lead_t, lead),) = [(k, c) for (i, k), c in terms.items() if i == p]
        inv = pow(lead, -1, p)
        oracle = {(i, k - lead_t): c * inv % p for (i, k), c in terms.items()}
        assert ours == oracle, (p, m, b)


@pytest.mark.parametrize("p,deg", [(2, 2), (2, 3), (3, 2)])
def test_relation_polynomial_closed_form_for_b_one(p, deg):
    """b = 1 (m = -1 mod p): P(Z) = Z^p - t^{a(p-1)} Z - t^{ap} f."""
    field = field_create(p, deg)
    rng = random.Random(p ** deg)
    for m in (p - 1, 2 * p - 1):
        for _ in range(3):
            f = as_sparse(field, _random_datum(rng, field, m))
            ours, (_, a, b) = _relation_terms(f)
            assert b == 1
            expected = {(p, 0): 1, (1, a * (p - 1)): (-field.one()).key()}
            for e, c in f.support():
                expected[(0, a * p + e)] = (-c).key()
            assert ours == expected


@pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 3), (7, 2)])
def test_corrupted_elementary_function_is_caught(monkeypatch, p, m):
    """Perturbing any e_k within the working precision fails a builder check."""
    field = field_create(p, 1)
    f = as_sparse(field, [[-m, [1]], [0, [1]]])
    exact = covers._conjugate_elementary
    for k in range(1, p + 1):
        for deg in (0, 1):
            def corrupted(*args, k=k, deg=deg):
                e = exact(*args)
                e[k] = e[k] + LaurentSeries.monomial(field, field.one(), deg)
                return e

            monkeypatch.setattr(covers, "_conjugate_elementary", corrupted)
            with pytest.raises((MismatchDetected, NotSimpleRoot)):
                build_artin_schreier(field, f, prec=32)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 1), (5, 2), (7, 3)])
def test_corrupted_lift_or_root_is_caught(monkeypatch, p, m):
    """A term added to the lifted t above the seed, or to the b-th root
    behind y, anywhere inside its known precision, fails a kept check."""
    field = field_create(p, 1)
    f = as_sparse(field, [[-m, [1]], [0, [1]]])
    for name in ("hensel_lift_root", "nth_root_of_unit"):
        exact = getattr(covers, name)
        results = []

        def spy(*args):
            results.append(exact(*args))
            return results[-1]

        monkeypatch.setattr(covers, name, spy)
        build_artin_schreier(field, f, prec=32)
        if not results:
            assert name == "nth_root_of_unit" and p == 2  # b = 1 takes no root
            continue
        (result,) = results
        for deg in range(result.valuation() + 1, result.abs_prec):
            def corrupted(*args, deg=deg):
                return exact(*args) + LaurentSeries.monomial(field, field.one(), deg)

            monkeypatch.setattr(covers, name, corrupted)
            with pytest.raises(MismatchDetected):
                build_artin_schreier(field, f, prec=32)
        monkeypatch.setattr(covers, name, exact)
