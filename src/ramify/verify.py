"""Property suites over the built-in corpus, one report row per instance.

Every suite is deterministic for a fixed seed: instances are listed in a
canonical order and all computed values are exact integers or rationals.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

from . import bounds, corpus
from .covers import GaloisCover, lower_break_table
from .errors import InconsistentCounts, UnknownSuite
from .fields import split_prime_power
from .groups import FiniteGroup, abelian_p_bound_probe, max_ell_element_order
from .ramification import (
    RamFiltration,
    filtration_from_breaks,
    hasse_arf_check,
    herbrand_phi,
    phi_transitivity_check,
    pullback_bound_check,
    tower_filtrations,
    upper_jumps,
)


def suite_lemma_pullback(options) -> list[dict]:
    instances = []
    for rep_id in corpus.rep_ids(kinds=("tower",)):
        cover, rep, _ = corpus.get_representation(rep_id)
        report = pullback_bound_check(cover, rep, *_filtrations(cover))
        # Our towers are totally tame base changes: equality (so holds) is expected.
        passed = report.equality
        instances.append(
            {"name": rep_id, **report._asdict(), "tame_base_change": True, "pass": passed}
        )
    return instances


@lru_cache(maxsize=None)
def _filtrations(cover: GaloisCover) -> tuple[RamFiltration, ...]:
    """``(filt,)`` for a corpus cover, ``tower_filtrations`` for a tower: formed once a process."""
    if cover.intermediate is None:
        return (filtration_from_breaks(lower_break_table(cover), cover.p),)
    return tower_filtrations(cover)


def suite_hasse_arf(options) -> list[dict]:
    instances = []
    for cover_id in corpus.cover_ids():
        filt = _filtrations(corpus.get_cover(cover_id))[0]
        jumps = upper_jumps(filt, herbrand_phi(filt))
        integral = hasse_arf_check(filt, jumps)
        instances.append(
            {
                "name": cover_id,
                "upper_jumps": list(jumps),
                "integral": integral,
                "pass": integral,
            }
        )
    return instances


def suite_transitivity(options) -> list[dict]:
    instances = []
    for cover_id in corpus.cover_ids(kinds=("tower",)):
        cover = corpus.get_cover(cover_id)
        report = phi_transitivity_check(cover, *_filtrations(cover), _filtrations(cover.intermediate.lower)[0])
        instances.append(
            {
                "name": cover_id,
                "points": list(report.points),
                "residuals": list(report.residuals),
                "quotient_filtration_matches": report.quotient_matches,
                "pass": report.quotient_matches,  # a nonzero residual raises
            }
        )
    return instances


@lru_cache(maxsize=None)
def _inertia_structure(rep_id: str) -> bounds.InertiaStructure:
    """The inertia structure of a corpus representation's image, formed once
    a process for `claim1` and `claim2` both, as the representation is."""
    cover, rep, _ = corpus.get_representation(rep_id)
    return bounds.inertia_structure(rep.images, cover.p)


def suite_claim1(options) -> list[dict]:
    instances = []
    for r, ell, n in ((1, 2, 1), (1, 3, 1), (1, 2, 2), (2, 2, 1), (2, 3, 1), (2, 2, 2)):
        best = max_ell_element_order(r, ell, n)
        d = split_prime_power(best, ell)[0]
        passed = d == 0 or ell ** (d - 1) <= r
        instances.append(
            {
                "name": f"gl{r}_f{ell}^{n}",
                "max_ell_order": best,
                "mode": "exhaustive",
                "pass": passed,
            }
        )
    best3 = max_ell_element_order(3, 2, 1)
    instances.append(
        {
            "name": "gl3_f2",
            "max_ell_order": best3,
            "mode": "exhaustive",
            "pass": best3 == 4,
        }
    )
    for rep_id in corpus.rep_ids():
        structure = _inertia_structure(rep_id)
        passed = bounds.claim1_check(structure)
        instances.append(
            {"name": f"image:{rep_id}", "n": structure.n, "pass": passed}
        )
    return instances


def suite_claim2(options) -> list[dict]:
    instances = []
    for rep_id in corpus.rep_ids():
        cover, rep, big_n = corpus.get_representation(rep_id)
        filt = _filtrations(cover)[0]
        structure = _inertia_structure(rep_id)
        tame = bounds.tameizing_subgroup(structure)
        wild = bounds.wild_order_bound_check(
            structure, filt, rep, big_n, jordan_table=options.get("jordan_table")
        )
        consts = wild.constants
        crude_ok = True
        if structure.P_order <= consts.M0:
            crude_ok = consts.crude_at_least(tame.index_tame)
        # structure.group is the image group of rep, so the images lying in
        # H are H itself, and tameizing_subgroup has refused gcd(|H|, p) != 1.
        passed = wild.ok and crude_ok
        instances.append(
            {
                "name": rep_id,
                "N": big_n,
                "swan": wild.swan,
                "N_prime": consts.N_prime,
                "P_order": wild.P_order,
                "torus_bound": wild.torus_bound,
                "torus_bound_holds": wild.torus_bound_holds,
                "linear_bound": consts.M0,
                "linear_bound_holds": wild.linear_bound_holds,
                "H_order": tame.H_order,
                "index_tame": tame.index_tame,
                "restricted_prime_to_p": True,
                "crude_bound_ok": crude_ok,
                "pass": passed,
            }
        )
    probe = abelian_p_bound_probe(2, 2, 3, 1)
    instances.append(
        {
            "name": "abelian_probe_r2_p3_s1_l2",
            "max_order_found": probe.max_order_found,
            "linear_variant_bound": probe.linear_bound,
            "linear_variant_holds": probe.le_linear_bound,
            "torus_bound": probe.torus_bound,
            "torus_bound_holds": probe.le_torus_bound,
            "pass": probe.le_torus_bound,
        }
    )
    return instances


def _random_counts(rng: random.Random) -> bounds.DecompositionData:
    p = rng.choice((2, 3, 5, 7))
    t = rng.randint(1, 6)
    e = rng.randint(1, 8)
    f_sep = rng.randint(1, 6)
    f_insep = p ** rng.randint(0, 2)
    return bounds.DecompositionData(
        order_I=t * e * f_sep * f_insep,
        t=t,
        e=e,
        f_sep=f_sep,
        f_insep=f_insep,
        p=p,
    )


def suite_counts(options) -> list[dict]:
    seed = options.get("seed", 0)
    rng = random.Random(seed)
    instances = []
    for k in range(200):
        data = _random_counts(rng)
        report = bounds.decomposition_counts(data)
        identity_ok = (
            report.order_IC == data.e * data.f_insep
            and report.order_IC * data.t * data.f_sep == data.order_I
        )
        tame_ok = report.tame == (
            data.f_insep == 1 and math.gcd(data.e, data.p) == 1
        )
        instances.append(
            {
                "name": f"counts_{k}",
                "t": data.t,
                "e": data.e,
                "f_sep": data.f_sep,
                "f_insep": data.f_insep,
                "p": data.p,
                "order_IC": report.order_IC,
                "tame": report.tame,
                "pass": identity_ok and tame_ok,
            }
        )
    rejected = 0
    for k in range(20):
        data = _random_counts(rng)
        try:
            bounds.decomposition_counts(data._replace(order_I=data.order_I + 1))
        except InconsistentCounts:
            rejected += 1
    instances.append(
        {"name": "invalid_rejected", "rejected": rejected, "pass": rejected == 20}
    )
    z6 = FiniteGroup.cyclic(6, "g")
    star = bounds.star_kernel_check(z6, range(6), f_sep=3, e=2, f_insep=1, p=2)
    instances.append(
        {
            "name": "star_kernel_z6",
            "kernel_order": star.kernel_order,
            "kernel_p_sylow_order": star.kernel_p_sylow_order,
            "pass": star.passes,
        }
    )
    return instances


# The suites in report order; a module-level dict, so that a tracer can
# wrap its entries in place.
_SUITES = {
    "lemma_pullback": suite_lemma_pullback,
    "hasse_arf": suite_hasse_arf,
    "transitivity": suite_transitivity,
    "claim1": suite_claim1,
    "claim2": suite_claim2,
    "counts": suite_counts,
}


SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, options: dict | None = None) -> dict:
    """Run one named suite (or all, in ``_SUITES`` order); returns
    {"suite", "instances", "ok"}."""
    options = dict(options or {})
    if name == "all":
        instances = [dict(inst, suite=sub) for sub, suite in _SUITES.items() for inst in suite(options)]
    elif name in _SUITES:
        instances = _SUITES[name](options)
    else:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    ok = all(inst.get("pass", False) for inst in instances)
    return {"suite": name, "instances": instances, "ok": ok}
