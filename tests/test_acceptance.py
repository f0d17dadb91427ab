"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every assertion is exact (tolerance zero); a failure anywhere
means the criterion does not hold.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from ramify import cli
from ramify.bounds import (
    DecompositionData,
    decomposition_counts,
    explicit_constants,
    inertia_structure,
    jordan_bound,
    tameizing_subgroup,
    wild_order_bound_check,
)
from ramify.corpus import cover_ids, get_cover, get_representation, rep_ids
from ramify.covers import lower_break_table
from ramify.errors import InconsistentCounts, PreconditionFailed
from ramify.fields import field_create
from ramify.groups import max_ell_element_order
from ramify.linalg import MatrixFF
from ramify.ramification import (
    Representation,
    filtration_from_breaks,
    hasse_arf_check,
    herbrand_phi,
    herbrand_psi,
    phi_transitivity_check,
    pullback_bound_check,
    swan_conductor,
    swan_single_break,
    tower_filtrations,
    upper_jumps,
)
from table_oracles import subgroup_table

AS_FIXTURES = {
    (2, 1): "as_p2_m1",
    (2, 3): "as_p2_m3",
    (3, 1): "as_p3_m1",
    (3, 2): "as_p3_m2",
    (5, 1): "as_p5_m1",
}

AS_CHARACTERS = {
    (2, 1): "as_p2_m1.chi",
    (2, 3): "as_p2_m3.chi",
    (3, 1): "as_p3_m1.chi",
    (3, 2): "as_p3_m2.chi",
    (5, 1): "as_p5_m1.chi",
}


def _filt(cover):
    return filtration_from_breaks(lower_break_table(cover), cover.p)


def _passed(number, text):
    print(f"[criterion {number:2d}] PASS  {text}")


def test_criterion_01_artin_schreier_conductors():
    for (p, m), cover_id in AS_FIXTURES.items():
        cover = get_cover(cover_id)
        filt = _filt(cover)
        assert filt.i_max == m
        for i in range(m + 1):
            assert filt.subgroup_at(i) == frozenset(range(p))
            assert len(filt.subgroup_at(i)) == p
        assert filt.subgroup_at(m + 1) == frozenset({cover.group.identity})
        _, _, rep, _ = get_representation(AS_CHARACTERS[(p, m)])
        ident = MatrixFF.identity(rep.field, rep.r)
        assert sum(m == ident for m in rep.images) == 1  # faithful
        assert swan_conductor(rep, filt).swan == Fraction(m)
    _passed(1, "G_0 = ... = G_m = Z/p, G_{m+1} = 1 and Sw(chi) = m for all five (p, m)")


def test_criterion_02_tameness():
    kummer_ids = [c for c in cover_ids() if c.startswith("kummer")]
    assert kummer_ids
    for cover_id in kummer_ids:
        cover = get_cover(cover_id)
        filt = _filt(cover)
        assert hasse_arf_check(filt, upper_jumps(filt, herbrand_phi(filt)))
        for rep_id in rep_ids():
            c_id, _, rep, _ = get_representation(rep_id)
            c = get_cover(c_id)
            if c is not cover:
                continue
            assert swan_conductor(rep, filt).swan == 0
        ident = MatrixFF.identity(field_create(7 if cover.p != 7 else 11, 1), 1)
        triv = Representation(cover.group, dict.fromkeys(cover.group.labels, ident))
        assert swan_conductor(triv, filt).swan == 0
    _passed(2, "every tame fixture has Swan = 0 and integral upper jumps")


def test_criterion_03_herbrand_properties():
    for cover_id in cover_ids():
        cover = get_cover(cover_id)
        filt = _filt(cover)
        phi = herbrand_phi(filt)
        psi = herbrand_psi(phi)
        assert phi.evaluate(0) == 0
        grid = [Fraction(k, 3) for k in range(3 * (filt.i_max + 3))]
        vals = [phi.evaluate(x) for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))  # strictly increasing
        slopes = [
            (v2 - v1) / (x2 - x1)
            for (x1, v1), (x2, v2) in zip(zip(grid, vals), zip(grid[1:], vals[1:]))
        ]
        assert all(s2 <= s1 for s1, s2 in zip(slopes, slopes[1:]))  # concave
        for u, v in phi.breakpoints:
            assert psi.evaluate(v) == u and phi.evaluate(u) == v
        g0 = filt.order_at(0)
        for v in range(1, filt.i_max + 3):
            direct = Fraction(sum(filt.order_at(i) for i in range(1, v + 1)), g0)
            assert phi.evaluate(v) == direct
    _passed(3, "phi concave/increasing, psi o phi = id, integer-point sum formula exact")


def test_criterion_04_transitivity():
    for cover_id in ("tower_z6", "tower_z10"):
        cover = get_cover(cover_id)
        report = phi_transitivity_check(cover, *tower_filtrations(cover), _filt(cover.intermediate.lower))
        assert all(r == 0 for r in report.residuals)
        filt = _filt(cover)
        integer_points = {Fraction(v) for v in range(filt.i_max + 3)}
        assert integer_points <= set(report.points)
    _passed(4, "phi_{L/K} = phi_{K'/K} o phi_{L/K'} exactly on both towers")


def test_criterion_05_hasse_arf():
    for cover_id in cover_ids():
        cover = get_cover(cover_id)
        filt = _filt(cover)
        sub, _ = subgroup_table(cover.group, filt.subgroup_at(0))
        assert sub.is_abelian()
        upper = upper_jumps(filt, herbrand_phi(filt))
        assert hasse_arf_check(filt, upper)
        assert all(x.denominator == 1 for x in upper)
    _passed(5, "all abelian fixtures have integral upper-numbering jumps")


def test_criterion_06_pullback_bound():
    checked = 0
    for rep_id in rep_ids(kinds=("tower",)):
        cover_id, _, rep, _ = get_representation(rep_id)
        cover = get_cover(cover_id)
        report = pullback_bound_check(cover, rep, *tower_filtrations(cover))
        assert report.holds
        assert report.sw_prime <= report.degree * report.sw_base
        # Both towers are totally tame base changes: equality must hold.
        assert report.equality
        checked += 1
    assert checked >= 8
    _passed(6, f"Sw(rho|K') <= [K':K] Sw(rho) on all {checked} tower pairs, with equality")


def test_criterion_07_swan_consistency():
    for rep_id in rep_ids():
        cover_id, _, rep, _ = get_representation(rep_id)
        cover = get_cover(cover_id)
        filt = _filt(cover)
        report = swan_conductor(rep, filt)  # internally checks both routes
        breaks = report.breaks
        assert sum((lam * mult for lam, mult in breaks), Fraction(0)) == report.swan
        assert sum(mult for _, mult in breaks) == rep.r
        try:
            single = swan_single_break(rep, filt)
        except PreconditionFailed:
            single = None
        if single is not None:
            assert single == report.swan
    _passed(7, "filtration sum, break decomposition, and single-break formula agree")


def test_criterion_08_claim1_exhaustive():
    for r in (1, 2):
        for ell, n in ((2, 1), (3, 1), (2, 2)):
            best = max_ell_element_order(r, ell, n)
            d = 0
            o = best
            while o > 1:
                o //= ell
                d += 1
            assert d == 0 or ell ** (d - 1) <= r
    assert max_ell_element_order(3, 2, 1) == 4
    _passed(8, "every ell-element of GL_r(F_{ell^n}) obeys ell^{d-1} <= r; GL_3(F_2) max is 4")


def test_criterion_09_proposition_pipeline():
    for rep_id in rep_ids():
        cover_id, _, rep, big_n = get_representation(rep_id)
        cover = get_cover(cover_id)
        assert big_n in (1, 3)
        filt = _filt(cover)
        st = inertia_structure(rep.images, cover.p)
        assert swan_conductor(rep, filt).swan <= big_n
        tame = tameizing_subgroup(st)
        assert math.gcd(tame.H_order, cover.p) == 1
        h_set = frozenset(tame.H_indices)
        assert st.group.is_normal(h_set)
        h_mats = {st.group.matrices[i].key() for i in tame.H_indices}
        assert len({m.key() for m in rep.images} & h_mats) == tame.H_order
        report = wild_order_bound_check(st, filt, rep, big_n)
        assert report.ok
        j = jordan_bound(rep.r)
        assert report.P_order <= cover.p ** (rep.r * report.constants.N_prime) * j
        assert isinstance(report.linear_bound_holds, bool)  # recorded, not asserted
    _passed(9, "inertia structure, taming subgroup, and wild-order bounds hold corpus-wide")


def test_criterion_10_explicit_constants():
    ec = explicit_constants(1, 3, 2, 1, 1)
    assert ec.N_prime == 2
    assert ec.M0 == 9
    assert ec.M_crude == 362880
    _passed(10, "explicit_constants(1,3,2,1,1) = {N' = 2, M0 = 9, M0! = 362880}")


def test_criterion_11_decomposition_counts():
    rng = random.Random(2026)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        t, e, f_sep = rng.randint(1, 7), rng.randint(1, 9), rng.randint(1, 7)
        f_insep = p ** rng.randint(0, 2)
        data = DecompositionData(t * e * f_sep * f_insep, t, e, f_sep, f_insep, p)
        report = decomposition_counts(data)
        assert report.order_IC == e * f_insep == data.order_I // (t * f_sep)
        assert report.tame == (f_insep == 1 and math.gcd(e, p) == 1)
        bad = DecompositionData(data.order_I + 1, t, e, f_sep, f_insep, p)
        with pytest.raises(InconsistentCounts):
            decomposition_counts(bad)
    _passed(11, "200 seeded instances satisfy the counting identity; invalid ones rejected")


def test_criterion_12_determinism(capsys):
    code1 = cli.main(["verify", "all"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["verify", "all"])
    out2 = capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert hashlib.sha256(out1.encode()).hexdigest() == (
        "6b2a0314b0c18d4eed56dd5578ba6baa1cf97ecced8bdb17972395629c0e7b1c"
    )
    report = json.loads(out1)
    assert report["results"]["ok"] is True
    _passed(12, "verify all is green and byte-identical across runs")
