import inspect
import random
import time
from math import comb

import pytest

from ramify import corpus, covers, series
from ramify.covers import (
    BreakTable,
    GaloisCover,
    artin_schreier_reduce,
    build_artin_schreier,
    build_compositum_tower,
    build_kummer,
    deck_group,
    lower_break_table,
)
from ramify.errors import (
    MismatchDetected,
    MissingRootsOfUnity,
    NotGaloisOverBase,
    NotSimpleRoot,
    PoleOrderDivisibleByP,
    PrecisionExhausted,
    SizeCapExceeded,
)
from ramify.fields import field_create, power
from ramify.groups import FiniteGroup
from ramify.linalg import MatrixFF
from ramify.ramification import Representation, filtration_from_breaks, swan_conductor
from ramify.series import PRECISION_CAP, LaurentSeries, compose, hensel_lift_root

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)
F5 = field_create(5, 1)
F64 = field_create(2, 6)


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
    """The exact series with the element of coordinates c at t^e, for each [e, c]."""
    return LaurentSeries.from_terms(field, {e: sum(x * field.p ** i for i, x in enumerate(c)) for e, c in pairs})


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
            k = cover.group.mul[j][i]
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
            MatrixFF(F7, 2, [0, 1, 1, 0]),
            MatrixFF(F7, 2, [0, 6, 1, 6]),
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
        [MatrixFF(F7, 2, [0, 1, 1, 0]), MatrixFF(F7, 2, [0, 6, 1, 6])]
    )
    # x -> 2x + b over F_7: Z/7 x| Z/3, nonabelian of order 21.
    z7_z3 = group_closure(
        [MatrixFF(F7, 2, [2, 0, 0, 1]), MatrixFF(F7, 2, [1, 1, 0, 1])]
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
            for prec in (1, 2, 8, 64, None):
                built.append((build_artin_schreier(field, f, prec=prec), (p, 1, m)))
    for field, tame in ((F4, (1, 3)), (F9, (1, 2, 4, 8))):
        for m in tame:
            for pole in (1, 2, 4, 5, 7):
                if pole % field.p == 0:
                    continue
                for prec in (1, 8, 64, None):
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
    assert len(built) == 316


@pytest.mark.parametrize("cover_id", corpus.cover_ids())
def test_corpus_covers_keep_their_breaks_at_the_break_window(cover_id):
    spec = corpus._cover_spec(cover_id)
    base = corpus.base_field(spec["base"])
    cfg = spec["cover"]
    m = cfg.get("m", 1)
    at_window = corpus.build_cover(base, cfg)
    if cfg["type"] == "kummer":  # exact series: it takes no precision and stores 1
        at_24, window = build_kummer(base, m), 1
    else:
        f = corpus._datum(base, cfg)
        if cfg["type"] == "artin_schreier":
            at_24 = build_artin_schreier(base, f, prec=24)
        else:
            at_24 = build_compositum_tower(base, m, f, prec=24)
        window = base.p + m * -f.valuation() + 4
        assert at_24.prec == 24 > window
    assert at_window.prec == window
    assert lower_break_table(at_window).by_label() == lower_break_table(at_24).by_label()


@pytest.mark.parametrize("cover_id", corpus.cover_ids())
def test_corpus_covers_have_the_deck_group_of_their_kind(cover_id):
    spec = corpus._cover_spec(cover_id)
    group = corpus.get_cover(cover_id).group
    expected = deck_group(spec["cover"]["type"], spec["base"]["p"], spec["cover"].get("m", 1))
    assert (group.mul, group.labels) == (expected.mul, expected.labels)


@pytest.mark.parametrize("tower_id,kummer_id", [("tower_z6", "kummer_p2a2_m3"), ("tower_z10", "kummer_p5_m2")])
def test_a_towers_tame_layer_is_the_corpus_kummer_cover(tower_id, kummer_id):
    # build_kummer is cached, so the tame layer's break data is formed once.
    assert corpus.get_cover(tower_id).intermediate.lower is corpus.get_cover(kummer_id)


def _no_series_work(*args, **kwargs):
    raise AssertionError("series work before the precision cap check")


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_artin_schreier(F2, as_sparse(F2, [[-1, [1]]]), prec=PRECISION_CAP + 1),
        lambda: build_artin_schreier(F2, as_sparse(F2, [[-4091, [1]]])),
        lambda: build_artin_schreier(F2, as_sparse(F2, [[-4096, [1]]])),
        lambda: build_compositum_tower(F2, 1, as_sparse(F2, [[-1, [1]]]), prec=10 ** 8),
        lambda: build_compositum_tower(F2, 1, as_sparse(F2, [[-4091, [1]]])),
        lambda: build_compositum_tower(F4, 3, as_sparse(F4, [[-1364, [1]]])),
    ],
)
def test_builders_refuse_work_over_the_cap_before_any_series_work(build, monkeypatch):
    for name in ("artin_schreier_reduce", "compose", "hensel_lift_root"):
        monkeypatch.setattr(covers, name, _no_series_work)
    with pytest.raises(SizeCapExceeded, match="precision cap 4096"):
        build()


def test_a_deck_group_over_the_group_cap_is_refused_before_its_table(monkeypatch):
    # Over F_127 with m = 63 the tower's group has 8,001 elements, and its
    # Cayley table of 64 million cells was built before any check.
    monkeypatch.setattr(covers, "_artin_schreier", _no_series_work)
    monkeypatch.setattr(FiniteGroup, "direct_product", _no_series_work)
    f127, f131, f256 = field_create(127, 1), field_create(131, 1), field_create(2, 8)
    builds = [
        (lambda: build_compositum_tower(f127, 63, as_sparse(f127, [[-1, [1]]])), 8001),
        (lambda: build_artin_schreier(f131, as_sparse(f131, [[-1, [1]]])), 131),
        (lambda: build_kummer(f256, 255), 255),
        (lambda: deck_group("tower", 2, 65), 130),
    ]
    for build, order in builds:
        start = time.perf_counter()
        with pytest.raises(SizeCapExceeded, match=f"deck group of order {order} exceeds the group cap 128"):
            build()
        assert time.perf_counter() - start < 0.5
    assert corpus.GROUP_CAP is covers.GROUP_CAP == 128
    monkeypatch.undo()
    assert deck_group("tower", 2, 64).n == covers.GROUP_CAP


def test_builders_allow_the_largest_window_and_precision_under_the_cap(monkeypatch):
    # A window p + m + 4 of exactly 4096 (F_5, pole 4087) or 4095 (F_2,
    # pole 4089; the F_4 tower, pole 3 * 1363) and prec = 4096 pass the
    # check; the lift is stopped right after it so the test stays cheap.
    monkeypatch.setattr(covers, "hensel_lift_root", _no_series_work)
    for field, f, prec in ((F5, [[-4087, [1]]], None), (F2, [[-4089, [1]]], None), (F2, [[-1, [1]]], PRECISION_CAP)):
        with pytest.raises(AssertionError, match="series work"):
            build_artin_schreier(field, as_sparse(field, f), prec=prec)
    with pytest.raises(AssertionError, match="series work"):
        build_compositum_tower(F4, 3, as_sparse(F4, [[-1363, [1]]]))


def test_defining_function_must_match_base():
    with pytest.raises(NotGaloisOverBase):
        build_artin_schreier(F2, as_sparse(F3, [[-1, [1]]]))
    with pytest.raises(NotGaloisOverBase, match="wild datum is not over the base field"):
        build_compositum_tower(F4, 3, as_sparse(F2, [[-1, [1]]]))


def _character_of_order(group, p):
    """A faithful character of Z/p over the least prime field F_ell with p | ell - 1."""
    ell = next(q for q in range(p + 1, 200, p) if all(q % d for d in range(2, q)))
    zeta = next(x for x in range(2, ell) if pow(x, p, ell) == 1)
    field = field_create(ell, 1)
    return Representation(group, {"sigma": MatrixFF(field, 1, [zeta])})


def _counting_checks(monkeypatch):
    """The labels of the builders' ``_check_zero`` calls, in order."""
    labels = []
    inner = covers._check_zero

    def counted(series, what):
        labels.append(what)
        return inner(series, what)

    monkeypatch.setattr(covers, "_check_zero", counted)
    return labels


# Before the unit check replaced the wild generator's two compositions:
# ["defining relation of y", "t is not fixed", "y + 1 action"]; before y
# was checked against t: the same list without "t^a y^(bm) = sigma".
_AS_CHECKS = ["defining relation of y", "y z = 1", "t^a y^(bm) = sigma", "unit of y -> y + 1"]


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
            diff = compose(action[gen], action[i]) - action[group.mul[i][gen]]
            assert diff.is_zero_known() and (diff.is_exact or diff.abs_prec >= known)
    for i in range(group.n):
        diff = compose(t, action[i]) - t
        assert diff.is_zero_known() and (diff.is_exact or diff.abs_prec >= t.abs_prec)


def _spy_wild_layers(monkeypatch):
    """[u, units] of each wild build: the lifted unit and the action units."""
    layers = []
    lift, evaluate = covers.hensel_lift_root, covers._evaluate_at

    def lifted(*args):
        layers.append([lift(*args), None])
        return layers[-1][0]

    def evaluated(field, rows, g):
        layers[-1][1] = evaluate(field, rows, g)
        return layers[-1][1]

    monkeypatch.setattr(covers, "hensel_lift_root", lifted)
    monkeypatch.setattr(covers, "_evaluate_at", evaluated)
    return layers


def _check_wild_generator(cover, f, m, layer):
    """The two compositions the builders ran before the unit check replaced
    them (the ``covers`` module docstring proves it equivalent): phi: sigma
    -> sigma (1 + z)^(bm), formed from the stored unit of j = 1, fixes t
    and sends y to y + 1 in sigma = s^m, each to the precision of t and of
    y.  t and y are formed from the lifted unit u, and t stretched to s is
    the cover's t."""
    (u, units), field, p = layer, cover.base_field, cover.p
    f = artin_schreier_reduce(f)
    pole, c = -f.valuation(), f.coeff(f.valuation())
    b = _b(p, m, pole)
    a = (1 + b * m * pole) // p
    t = (u ** (b * m)).shift(p).scale(field.pow_key(c, -b * m))
    y = (u ** a).inverse().shift(-pole).scale(field.pow_key(c, a))
    assert compose(t, LaurentSeries.monomial(field, 1, m)).truncate(p * m + cover.prec - p) == cover.t_in_s
    phi = (units[0] ** m).shift(1)
    fixed = compose(t, phi) - t
    shifted = compose(y, phi) - y - LaurentSeries.one(field)
    assert fixed.is_zero_known() and fixed.abs_prec >= t.abs_prec
    assert shifted.is_zero_known() and shifted.abs_prec >= y.abs_prec


def test_artin_schreier_closed_form_grid(monkeypatch):
    """i(sigma) = m + 1 and Sw = m for y^p - y = t^-m, on the whole small grid.

    The labels of the self-checks pin the builders' checks: an
    Artin-Schreier build runs the defining relation, y z = 1 and the unit
    of the wild generator against (1 + z)^b, so none can silently
    disappear.  The generator facts (t fixed, y -> y + 1) and the group law
    they imply are checked here in full.
    """
    checks = _counting_checks(monkeypatch)
    layers = _spy_wild_layers(monkeypatch)
    for p in (2, 3, 5, 7, 11):
        field = field_create(p, 1)
        for m in (1, 2, 3):
            if m % p == 0:
                continue
            checks.clear()
            f = as_sparse(field, [[-m, [1]]])
            cover = build_artin_schreier(field, f, prec=32)
            assert checks == _AS_CHECKS
            _check_wild_generator(cover, f, 1, layers[-1])
            _check_full_group_law(cover)
            bt = lower_break_table(cover)
            assert bt.i_map == {j: m + 1 for j in range(1, p)}
            filt = filtration_from_breaks(bt, p)
            assert swan_conductor(_character_of_order(cover.group, p), filt).swan == m


def test_artin_schreier_at_precision_2048_runs_every_self_check(monkeypatch):
    # High precision is within reach: the build keeps all three checks.
    checks = _counting_checks(monkeypatch)
    layers = _spy_wild_layers(monkeypatch)
    f = as_sparse(F2, [[-1, [1]]])
    cover = build_artin_schreier(F2, f, prec=2048)
    assert cover.prec == 2048
    assert checks == _AS_CHECKS
    _check_wild_generator(cover, f, 1, layers[-1])
    _check_full_group_law(cover)
    assert lower_break_table(cover).i_map == {1: 2}


@pytest.mark.parametrize(
    "field,tame", [(F4, 3), (F2, 1), (field_create(7, 1), 3), (field_create(11, 1), 5), (field_create(2, 6), 9)]
)
def test_tower_runs_every_self_check(monkeypatch, field, tame):
    checks = _counting_checks(monkeypatch)
    layers = _spy_wild_layers(monkeypatch)
    f = as_sparse(field, [[-1, [1]]])
    tower = build_compositum_tower(field, tame, f, prec=24)
    # The wild layer's own checks, run over K in sigma = s^tame (relation,
    # y z = 1, the unit of y -> y + 1), for every tame degree: the tame
    # generator s -> zeta^a s fixes every series in s^tame, u and y among
    # them, so it needs no check (``build_compositum_tower``).  The wild
    # generator's action on t and y, in sigma, and the group law and t fixed
    # they imply, in s, are checked here in full.
    assert checks == _AS_CHECKS
    _check_wild_generator(tower, f, tame, layers[-1])
    _check_full_group_law(tower)
    assert lower_break_table(tower).by_label()["sigma"] == tame + 1


def _tower_over_k_prime(field, m, f, prec):
    """(t_in_s, sigma_action, prec) of the tower built the way it was before
    its wild layer was lifted over K: ``build_artin_schreier`` on the
    pulled-back datum f(s'^m) over K' = k((s')), t = s'^m, and the wild
    action series twisted by zeta^(ak), a the exponent of the pulled datum."""
    pulled = compose(f, LaurentSeries.monomial(field, 1, m))
    upper = build_artin_schreier(field, pulled, prec=prec)
    _, a, _ = _exponents(artin_schreier_reduce(pulled))
    twists = field.powers_key(field.pow_key(field.root_of_unity(m), a), m)
    action = {j * m + k: upper.sigma_action[j].scale(c) for j in range(field.p) for k, c in enumerate(twists)}
    return upper.t_in_s ** m, action, upper.prec


def test_a_tower_equals_its_wild_layer_built_over_k_prime():
    # Every tame degree m | q - 1 with p m <= 128, over six fields, on a
    # datum whose t^(-2p) term is reduced away and whose other terms are
    # random.
    rng = random.Random(48)
    built = 0
    for p, deg in ((2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (2, 6)):
        field = field_create(p, deg)
        q = p ** deg
        for m in (m for m in range(1, 128 // p + 1) if (q - 1) % m == 0):
            coords = [[rng.randrange(p) for _ in range(deg)] for _ in range(3)]
            pairs = [[-2 * p, [1]], [-p - 1, [0, 1]], [-1, coords[0]], [0, coords[1]], [1, coords[2]]]
            f = as_sparse(field, pairs)
            for prec in (None, 200):
                tower = build_compositum_tower(field, m, f, prec=prec)
                assert (tower.t_in_s, tower.sigma_action, tower.prec) == _tower_over_k_prime(field, m, f, prec)
                built += 1
    assert built == 60


# ---------------------------------------------------------------------------
# The relation polynomial P(Z) = prod_j (Z - t^a (y + j)^b): the builders'
# lift before the direct one, kept here as an oracle for t.


def _conjugate_elementary(f, a_exp, b):
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
        e.append(acc.scale(field.inverse_key(k)))
    e.append((f ** b).shift(a_exp * p))
    return e


def _relation_polynomial(f, a_exp, b):
    """Coefficients d_k(s) of the relation P(t) = 0 satisfied by t over k((s)):
    P(Z) = sum_k (-1)^k e_k Z^{p-k}, regrouped by powers of t."""
    field = f.field
    p = field.p
    by_t = {}
    for k, e_k in enumerate(_conjugate_elementary(f, a_exp, b)):
        for t_exp, c in (e_k if k % 2 == 0 else -e_k).support():
            assert t_exp >= 0, "relation coefficient has a pole"
            by_t.setdefault(t_exp, {})[p - k] = c
    return [LaurentSeries.from_terms(field, by_t.get(k, {})) for k in range(max(by_t) + 1)]


def _horner(coeffs):
    """x -> (P(x), P'(x)) for P = sum coeffs[k] x^k, in one Horner pass."""

    def value_and_derivative(x):
        value, deriv = coeffs[-1], LaurentSeries.zero(x.field)
        for c in reversed(coeffs[:-1]):
            deriv = deriv * x + value
            value = value * x + c
        return value, deriv

    return value_and_derivative


def _two_pass_lift(coeffs, x0, target_prec):
    """Newton's lift with P(x) and P'(x) in two Horner passes, P' over the
    scaled coefficient list: the oracle for ``hensel_lift_root``."""

    def evaluate(cs, x):
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = acc * x + c
        return acc

    field = x0.field
    deriv = [c.scale(k % field.p) for k, c in enumerate(coeffs) if k >= 1]
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


def _exponents(f):
    """(m, a, b) of the reduced datum f: pole m, and s = t^a y^b."""
    p, m = f.field.p, -f.valuation()
    b = next(bb for bb in range(1, p) if (1 + bb * m) % p == 0)
    return m, (1 + b * m) // p, b


def _relation_terms(f):
    """{(Z-degree, t-degree): key} of the relation of y^p - y = f, and (m, a, b)."""
    m, a, b = _exponents(f)
    coeffs = _relation_polynomial(f, a, b)
    terms = {(i, k): c for k, d in enumerate(coeffs) for i, c in d.support()}
    return terms, (m, a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31])
def test_the_relation_polynomial_lift_gives_the_builders_t(p):
    """Newton on P from the seed s^p (c = 1), with P and P' from one Horner
    pass, gives the builder's t under ==, precision included, and so does
    the two-pass oracle."""
    field = field_create(p, 1)
    x0 = LaurentSeries.monomial(field, 1, p)
    for m in (1, 2, 3):
        if m % p == 0:
            continue
        f = as_sparse(field, [[-m, [1]], [-1, [1]], [0, [1]]])
        coeffs = _relation_polynomial(f, *_exponents(f)[1:])
        for prec in (16, 64, 256):
            target = max(prec, p + m + 4)
            root = hensel_lift_root(_horner(coeffs), x0, target)
            assert root.abs_prec == target
            assert root == _two_pass_lift(coeffs, x0, target)
            assert root == build_artin_schreier(field, f, prec=prec).t_in_s, (m, prec)


def test_the_relation_polynomial_lift_gives_a_towers_t():
    # The wild layer of a tower over F_4 lifts the pulled-back datum, and the
    # tower's t is the m-th power of that layer's t.
    datum = as_sparse(F4, [[-1, [0, 1]], [0, [1, 1]]])
    tower = build_compositum_tower(F4, 3, datum, prec=64)
    pulled = artin_schreier_reduce(compose(datum, tower.intermediate.lower.t_in_s))
    m, a, b = _exponents(pulled)
    tau = F4.pow_key(pulled.coeff(-m), -b)
    coeffs = _relation_polynomial(pulled, a, b)
    root = hensel_lift_root(_horner(coeffs), LaurentSeries.monomial(F4, tau, 2), 64)
    assert root == _two_pass_lift(coeffs, LaurentSeries.monomial(F4, tau, 2), 64)
    assert root ** 3 == tower.t_in_s


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
            expected = {(p, 0): 1, (1, a * (p - 1)): field.neg_keys([1])[0]}
            for e, c in f.support():
                expected[(0, a * p + e)] = field.neg_keys([c])[0]
            assert ours == expected


@pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 3), (7, 2)])
def test_a_corrupted_lift_is_caught(monkeypatch, p, m):
    """A wrong G or a wrong seed for the unit u fails a check.

    G is off by s^k for every k from 1 to R - 1, R = 32 - p the precision
    the lift works to; off by s^R, it leaves the cover unchanged, as the
    lift reads nothing past O(s^R).  The seed is off in its valuation, or
    (for p > 2) in its constant term, so it is no approximate simple root.
    """
    field = field_create(p, 1)
    f = as_sparse(field, [[-m, [1]], [0, [1]]])
    lift = covers.hensel_lift_root
    rel = 32 - p

    def with_g_off_by(k):
        def corrupted(value_and_derivative, x0, target):
            def wrong(x):
                value, deriv = value_and_derivative(x)
                return value + LaurentSeries.monomial(field, 1, k), deriv

            return lift(wrong, x0, target)

        return corrupted

    def with_seed(move):
        return lambda value_and_derivative, x0, target: lift(value_and_derivative, move(x0), target)

    exact = build_artin_schreier(field, f, prec=32)
    monkeypatch.setattr(covers, "hensel_lift_root", with_g_off_by(rel))
    past = build_artin_schreier(field, f, prec=32)
    assert (past.t_in_s, past.sigma_action, past.prec) == (exact.t_in_s, exact.sigma_action, exact.prec)

    corruptions = [with_g_off_by(k) for k in range(1, rel)] + [with_seed(lambda x: x.shift(-1))]
    if p > 2:
        corruptions.append(with_seed(lambda x: x.scale(2)))
    for corrupted in corruptions:
        monkeypatch.setattr(covers, "hensel_lift_root", corrupted)
        with pytest.raises((MismatchDetected, NotSimpleRoot)):
            build_artin_schreier(field, f, prec=32)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 1), (5, 2), (7, 3)])
def test_corrupted_lift_or_root_is_caught(monkeypatch, p, m):
    """A term added to the lifted unit u, anywhere above its constant term
    and inside its known precision, fails a kept check; so y, which comes
    from u with no root taken, is checked too."""
    field = field_create(p, 1)
    f = as_sparse(field, [[-m, [1]], [0, [1]]])
    exact = covers.hensel_lift_root
    results = []

    def spy(*args):
        results.append(exact(*args))
        return results[-1]

    monkeypatch.setattr(covers, "hensel_lift_root", spy)
    build_artin_schreier(field, f, prec=32)
    (result,) = results
    assert result.valuation() == 0 and result.abs_prec == 32 - p
    for deg in range(1, result.abs_prec):
        def corrupted(*args, deg=deg):
            return exact(*args) + LaurentSeries.monomial(field, 1, deg)

        monkeypatch.setattr(covers, "hensel_lift_root", corrupted)
        with pytest.raises(MismatchDetected):
            build_artin_schreier(field, f, prec=32)


def test_y_of_a_one_term_datum_keeps_the_relative_precision_of_the_lift(monkeypatch):
    # AS p=127, f = t^-500: N = p + m + 4, so y = eta s^-m u^-a is known to
    # O(s^(R - m)) = O(s^4), R = N - p; a y taken as an exact monomial made
    # the action powers run on exact windows of about b m terms.
    # y is read off the "y z = 1" check, the one product of a series of
    # valuation -500 with one of valuation 500 (it was read off the wild
    # generator's composition with y while the builder formed one).
    field = field_create(127, 1)
    products = []
    real_mul = LaurentSeries.__mul__

    def mul(x, other):
        products.append((x, other))
        return real_mul(x, other)

    monkeypatch.setattr(LaurentSeries, "__mul__", mul)
    _, _, prec = covers._artin_schreier(field, LaurentSeries.monomial(field, 1, -500), None, 1)
    assert prec == 127 + 504
    (y_in_s,) = [x for x, other in products if (x.valuation(), other.valuation()) == (-500, 500)]
    assert y_in_s.valuation() == -500 and y_in_s.abs_prec == 4


# (field, tame degree m, pole M) of a one-term datum t^-M: AS covers for
# m = 1, towers otherwise.
_CUT_CASES = [(F2, 1, 7), (F3, 1, 5), (F5, 1, 7), (F4, 3, 5), (F64, 63, 5)]
_CUT_IDS = ["as_p2", "as_p3", "as_p5", "tower_F4_m3", "tower_F64_m63"]


def _cut(p, m, pole):
    """K of ``_artin_schreier`` at the break window: the reduced datum is
    read to O(t^K), K = ceil((R_sigma - p M) / p), R_sigma = ceil(R / m)."""
    rel_sigma = -(-(m * pole + 4) // m)
    return -(-(rel_sigma - p * pole) // p)


def _wild_build(field, m, datum, prec=None):
    """The cover of a datum, given as a series or as {exponent: key}."""
    f = datum if isinstance(datum, LaurentSeries) else LaurentSeries.from_terms(field, datum)
    return build_artin_schreier(field, f, prec) if m == 1 else build_compositum_tower(field, m, f, prec)


@pytest.mark.parametrize("field,m,pole", _CUT_CASES, ids=_CUT_IDS)
def test_a_datum_term_at_or_past_the_cut_leaves_the_cover_unchanged(field, m, pole):
    # The cut is exact: a term at K or later changes no series, one at
    # K - 1 changes t.
    cut = _cut(field.p, m, pole)
    assert -pole < cut - 1
    plain = _wild_build(field, m, {-pole: 1})
    for e in (cut, cut + 5, 4000):
        cover = _wild_build(field, m, {-pole: 1, e: 1})
        assert (cover.t_in_s, cover.sigma_action, cover.prec) == (plain.t_in_s, plain.sigma_action, plain.prec)
    assert _wild_build(field, m, {-pole: 1, cut - 1: 1}).t_in_s != plain.t_in_s


@pytest.mark.parametrize("field,m,pole", _CUT_CASES, ids=_CUT_IDS)
def test_no_datum_term_at_or_past_the_cut_is_composed(field, m, pole, monkeypatch):
    # The datum is composed at t, of valuation p in sigma: f itself (a
    # pole) and the power series f_M and theta_M, shifted by t^M.
    cut = _cut(field.p, m, pole)
    composed = []
    real = covers.compose
    monkeypatch.setattr(covers, "compose", lambda f, g: composed.append((f, g)) or real(f, g))
    _wild_build(field, m, {-pole: 1, cut: 1, cut + 5: 1, 4000: 1})
    data = [f for f, g in composed if g.valuation() == field.p]
    assert len(data) >= 3
    for f in data:
        shift = 0 if f.valuation() < 0 else pole
        assert max(e for e, _ in f.support()) - shift < cut


def test_an_approximate_datum_is_refused():
    f = as_sparse(F2, [[-1, [1]]]).truncate(10)
    with pytest.raises(PrecisionExhausted, match="cover datum must be an exact series"):
        build_artin_schreier(F2, f)


@pytest.mark.parametrize(
    "field,pole,move",
    [(F2, 1, lambda u: u.shift(1)), (F5, 2, lambda u: u.shift(1)), (F5, 2, lambda u: u.scale(2))],
    ids=["p2_shifted", "p5_shifted", "p5_scaled"],
)
def test_a_lifted_unit_off_its_seed_is_caught(field, pole, move, monkeypatch):
    # t = tau sigma^p u^(bm) must start with tau sigma^p: u shifted by sigma
    # moves its valuation, and 2u (p = 5, M = 2, so b m = 2) its leading
    # coefficient by 2^2 = 4.
    lift = covers.hensel_lift_root
    monkeypatch.setattr(covers, "hensel_lift_root", lambda *args: move(lift(*args)))
    with pytest.raises(MismatchDetected, match="does not start with the seed"):
        build_artin_schreier(field, as_sparse(field, [[-pole, [1]]]))


# ---------------------------------------------------------------------------
# The action units (1 + j z)^b, z = 1/y, from one shared Paterson-Stockmeyer
# pass on their binomial rows, against their powers.


def _capture_units(monkeypatch, change=None):
    """The (rows, g, units) of each ``_evaluate_at`` call a build makes, the
    rows first passed through ``change`` when one is given."""
    calls = []
    real = series._evaluate_at

    def spy(field, rows, g):
        rows = change(rows) if change else rows
        calls.append((rows, g, real(field, rows, g)))
        return calls[-1][2]

    monkeypatch.setattr(covers, "_evaluate_at", spy)
    return calls


def _b(p, m, pole):
    return next(b for b in range(1, p) if (1 + b * m * pole) % p == 0)


def _assert_units_are_powers(monkeypatch, field, m, f, prec):
    """Build, then check each unit against (1 + j z)^b by ``power``, ==
    with its precision R_sigma, and the stretched unit against the action
    of (j, 0); returns K, the number of terms past the constant in a row."""
    calls = _capture_units(monkeypatch)
    cover = _wild_build(field, m, f, prec)
    p, pole = field.p, -artin_schreier_reduce(f).valuation()
    rel = cover.prec - p
    rel_sigma = -(-rel // m)
    ((rows, z, units),) = calls
    assert z.valuation() == pole and z.abs_prec == rel_sigma
    one = LaurentSeries.one(field)
    s_m = LaurentSeries.monomial(field, 1, m)
    for j, unit in enumerate(units, 1):
        assert unit == power(one + z.scale(j), _b(p, m, pole))
        assert unit.abs_prec == rel_sigma
        assert cover.sigma_action[j * m] == compose(unit, s_m).truncate(rel).shift(1)
    return {len(row) - 1 for row in rows}


_UNIT_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (127, 1), (2, 2), (3, 2), (2, 6), (127, 2)]


@pytest.mark.parametrize("p,deg", _UNIT_FIELDS, ids=[f"F_{p}^{deg}" for p, deg in _UNIT_FIELDS])
def test_the_action_units_of_a_wild_cover_are_their_powers(monkeypatch, p, deg):
    # M = 1 at precision 2048: K = b, so every binomial term survives; over
    # F_(127^2) at 300, where K = b = 126 as well (R_sigma = 173), as the
    # build and its 126 oracle powers take about 9 s at 2048.  M the least
    # pole >= 4 prime to p, at the break window p + M + 4, where
    # R_sigma = M + 4: K = 1, the row 1 + b j z.
    field = field_create(p, deg)
    f = LaurentSeries.monomial(field, 1, -1)
    prec = 300 if field.order == 127 ** 2 else 2048
    assert _assert_units_are_powers(monkeypatch, field, 1, f, prec) == {_b(p, 1, 1)}
    pole = 5 if p == 2 else 4
    f = LaurentSeries.from_terms(field, {-pole: 1, -1: field.order - 1, 3: 1})
    assert _assert_units_are_powers(monkeypatch, field, 1, f, None) == {1}


@pytest.mark.parametrize("p,deg,m", [(3, 1, 2), (7, 1, 3), (3, 2, 8), (2, 6, 63)])
@pytest.mark.parametrize("prec", [None, 64, 200])
def test_the_action_units_of_a_tower_are_their_powers(monkeypatch, p, deg, m, prec):
    field = field_create(p, deg)
    f = LaurentSeries.from_terms(field, {-1: 1, 2: field.order - 1})
    rel_sigma = -(-(max(prec or 0, p + m + 4) - p) // m)
    assert _assert_units_are_powers(monkeypatch, field, m, f, prec) == {min(_b(p, m, 1), rel_sigma - 1)}


@pytest.mark.parametrize("p,pole,prec", [(5, 1, 64), (7, 2, None), (13, 1, None), (13, 3, 200)])
def test_a_wrong_binomial_key_for_j_at_least_two_breaks_the_group_law(monkeypatch, p, pole, prec):
    # A wrong key in the row of j = 2 changes sigma_2(s) alone.  The builder
    # checks only the wild generator, whose unit is that of j = 1, so the
    # build passes its self-checks; the full group law, here in the test,
    # is what catches it: sigma(sigma(s)) != sigma_2(s).
    field = field_create(p, 1)
    f = LaurentSeries.monomial(field, 1, -pole)

    def wrong(rows):
        rows = [list(row) for row in rows]
        rows[1][1] = (rows[1][1] + 1) % p
        return rows

    _capture_units(monkeypatch, wrong)
    cover = build_artin_schreier(field, f, prec)
    with pytest.raises(AssertionError):
        _check_full_group_law(cover)


@pytest.mark.parametrize(
    "p,deg,m,pole,prec",
    [(2, 1, 1, 1, None), (3, 1, 1, 1, 2048), (5, 1, 1, 4, None), (127, 1, 1, 1, 300),
     (2, 2, 3, 1, 64), (3, 2, 8, 1, 200), (7, 1, 3, 2, None), (2, 6, 63, 1, None)],
)
def test_a_unit_cut_one_term_short_is_caught(monkeypatch, p, deg, m, pole, prec):
    # Dropping term K of every row leaves sigma_1(s) wrong mod
    # sigma^R_sigma, as K M < R_sigma: the builder's check of the unit of
    # j = 1 against (1 + z)^b catches it (the match was "t is not fixed|y \+
    # 1 action" while the builder composed t and y with the wild generator).
    # A term past K changes nothing: it vanishes mod sigma^R_sigma.
    field = field_create(p, deg)
    f = LaurentSeries.monomial(field, 1, -pole)
    b = _b(p, m, pole)
    plain = _wild_build(field, m, f, prec)

    def longer(rows):
        return [row + [comb(b, len(row)) * pow(j, len(row), p) % p] for j, row in enumerate(rows, 1)]

    _capture_units(monkeypatch, longer)
    cover = _wild_build(field, m, f, prec)
    assert (cover.t_in_s, cover.sigma_action, cover.prec) == (plain.t_in_s, plain.sigma_action, plain.prec)
    _capture_units(monkeypatch, lambda rows: [row[:-1] for row in rows])
    with pytest.raises(MismatchDetected, match="unit of y -> y \\+ 1"):
        _wild_build(field, m, f, prec)


# ---------------------------------------------------------------------------
# Mutants of the wild layer, on data with three terms: each is caught by a
# kept builder check, the seed, the relation, y z = 1, t^a y^(bm) = sigma
# or the unit of j = 1.

_KEPT_CHECKS = ("does not start with the seed|defining relation of y|y z = 1|t\\^a y\\^\\(bm\\) = sigma"
                "|unit of y -> y \\+ 1")
_MUTANT_FIELDS = [(2, 1, 5), (3, 1, 4), (5, 1, 3), (7, 1, 3), (11, 1, 2), (2, 3, 3), (3, 2, 2)]
_MUTANT_IDS = [f"F_{p}^{deg}" for p, deg, _ in _MUTANT_FIELDS]


def _three_terms(field, pole):
    return LaurentSeries.from_terms(field, {-pole: 1, -1: field.order - 1, 2: 1})


def _mutant_builder(old, new):
    """``build_artin_schreier`` of a copy of the ``covers`` source with its
    one line ``old`` replaced by ``new``; the module itself is unchanged."""
    source = inspect.getsource(covers)
    assert source.count(old) == 1
    namespace = {"__name__": covers.__name__, "__package__": covers.__package__}
    exec(compile(source.replace(old, new), covers.__file__, "exec"), namespace)
    return namespace["build_artin_schreier"]


@pytest.mark.parametrize("p,deg,pole", _MUTANT_FIELDS, ids=_MUTANT_IDS)
def test_a_term_added_to_u_y_or_z_is_caught(monkeypatch, p, deg, pole):
    # A term at every known place above the leading one: u and y are tied to
    # f by the relation (and y, past what the relation sees, to z), z to y
    # by y z = 1.  R_sigma = M + 4 at the break window.
    field = field_create(p, deg)
    f = _three_terms(field, pole)
    rel_sigma = pole + 4
    y_line = "y = u_a.inverse().shift(-pole).scale(eta)"
    z_line = "z = u_a.shift(pole).scale(base.inverse_key(eta))"
    lift = covers.hensel_lift_root
    for d in range(1, rel_sigma):
        builders = [
            _mutant_builder(y_line, f"{y_line} + LaurentSeries.monomial(base, 1, {d} - pole)"),
            _mutant_builder(z_line, f"{z_line} + LaurentSeries.monomial(base, 1, {d} + pole)"),
        ]
        for build in builders:
            with pytest.raises(MismatchDetected, match=_KEPT_CHECKS):
                build(field, f)
        monkeypatch.setattr(covers, "hensel_lift_root", lambda *args, d=d: lift(*args) + LaurentSeries.monomial(field, 1, d))
        with pytest.raises(MismatchDetected, match=_KEPT_CHECKS):
            build_artin_schreier(field, f)
        monkeypatch.undo()


@pytest.mark.parametrize("p,deg,pole", _MUTANT_FIELDS, ids=_MUTANT_IDS)
def test_a_wrong_row_of_j_one_is_caught_and_of_j_two_only_by_the_group_law(monkeypatch, p, deg, pole):
    # Row j = 1 cut one term short, or with any one key wrong, fails the
    # check of its unit against (1 + z)^b.  A wrong key in row j = 2 passes
    # every builder check, and only the full group law catches it.
    field = field_create(p, deg)
    f = _three_terms(field, pole)
    calls = _capture_units(monkeypatch)
    build_artin_schreier(field, f)
    ((rows, _, _),) = calls
    changes = [lambda rows: [rows[0][:-1]] + rows[1:]]
    for i in range(len(rows[0])):
        changes.append(lambda rows, i=i: [rows[0][:i] + [(rows[0][i] + 1) % p] + rows[0][i + 1:]] + rows[1:])
    for change in changes:
        _capture_units(monkeypatch, change)
        with pytest.raises(MismatchDetected, match="unit of y -> y \\+ 1"):
            build_artin_schreier(field, f)
    if p > 2:
        _capture_units(monkeypatch, lambda rows: [rows[0], [(rows[1][0] + 1) % p] + rows[1][1:]] + rows[2:])
        cover = build_artin_schreier(field, f)
        with pytest.raises(AssertionError):
            _check_full_group_law(cover)


def test_a_wrong_exponent_in_the_shared_power_of_u_is_caught_where_it_changes_the_cover():
    # y and z both come from one u ** a.  With a + 1 they stay inverse, the
    # unit check follows z, and the relation reads y only to
    # O(sigma^(R_sigma - pM)), so only the check of y against t,
    # t^a y^(bm) = sigma, sees it.  Without that check the mutant built four
    # wrong covers here: over F_2 and F_8 with M = 3, F_3 and F_9 with M = 2.
    # Where u = 1 mod sigma^R_sigma the mutant changes nothing.
    mutant = _mutant_builder("u_a = u ** a_exp", "u_a = u ** (a_exp + 1)")
    caught = []
    for p, deg in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 3), (3, 2)):
        field = field_create(p, deg)
        for pole in range(2, 12):
            if pole % p == 0:
                continue
            f = _three_terms(field, pole)
            cover = build_artin_schreier(field, f)
            try:
                wrong = mutant(field, f)
            except MismatchDetected as exc:
                assert "t^a y^(bm) = sigma" in str(exc)
                caught.append((field.order, pole))
                continue
            assert (wrong.t_in_s, wrong.sigma_action, wrong.prec) == (cover.t_in_s, cover.sigma_action, cover.prec)
    assert {(2, 3), (8, 3), (3, 2), (9, 2)} <= set(caught)
    assert len(caught) == 13


@pytest.mark.parametrize(
    "field,m", [(F2, 1), (F3, 1), (F4, 3), (F64, 63)], ids=["as_p2", "as_p3", "tower_F4_m3", "tower_F64_m63"]
)
def test_a_wild_build_composes_only_the_datum_at_t(field, m, monkeypatch):
    # compose evaluates f_M and theta_M at t in each Newton step and f at t
    # in the relation check, and nothing after it: no wild generator is
    # formed, and each series is stretched from sigma to s without compose.
    events = []
    real_compose, real_check = covers.compose, covers._check_zero
    monkeypatch.setattr(covers, "compose", lambda f, g: events.append(("compose", f, g)) or real_compose(f, g))
    monkeypatch.setattr(covers, "_check_zero", lambda x, what: events.append(("check", what)) or real_check(x, what))
    cover = _wild_build(field, m, {-5: 1, -1: 1, 3: 1})
    assert [e[1] for e in events if e[0] == "check"] == _AS_CHECKS
    first_check = events.index(("check", _AS_CHECKS[0]))
    assert all(e[0] == "check" for e in events[first_check:])
    composed = [e for e in events[:first_check] if e[0] == "compose"]
    assert all(g.valuation() == field.p and not g.is_exact for _, _, g in composed)
    # The last is the relation's f(t): the datum itself, with its pole.
    _, datum, t = composed[-1]
    assert datum.valuation() == -5
    assert compose(t, LaurentSeries.monomial(field, 1, m)).truncate(cover.t_in_s.abs_prec) == cover.t_in_s


def test_an_identity_action_is_not_faithful():
    s = LaurentSeries.uniformizer(F2)
    cover = GaloisCover(
        base_field=F2,
        group=deck_group("artin_schreier", 2, 1),
        t_in_s=LaurentSeries.monomial(F2, 1, 2),
        sigma_action={0: s, 1: s},
        prec=1,
    )
    with pytest.raises(NotGaloisOverBase, match="action is not faithful"):
        lower_break_table(cover)
