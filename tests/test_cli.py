import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ramify import bounds, cli, corpus, ramification, reporting, series, verify
from ramify.bounds import ExplicitConstants
from ramify.errors import InputSchemaError
from ramify.fields import FiniteField
from ramify.groups import FiniteGroup
from ramify.linalg import MatrixFF
from ramify.ramification import SwanReport
from ramify.reporting import canonical_dumps


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


SWAN_JOB = {
    "command": "swan",
    "base": {"p": 2, "a": 1},
    "cover": {"type": "artin_schreier", "f": [[-1, [1]]]},
    "rep": {"ell": 3, "n": 1, "r": 1, "images": {"sigma": [[[2]]]}},
}


def test_a_swan_job_whose_images_do_not_generate_the_group_exits_1(capsys, monkeypatch):
    # A tower's group is Z/2 x Z/3 here; an image at sigma alone reaches
    # only Z/2, so the representation is refused.
    job = dict(SWAN_JOB, base={"p": 2, "a": 2}, cover={"type": "tower", "m": 3, "f": [[-1, [1]]]},
               rep={"ell": 7, "n": 1, "r": 1, "images": {"sigma": [[6]]}})
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "NotAHomomorphism"
    assert "do not generate the group" in report["error"]["message"]


def test_swan_job_golden(capsys, monkeypatch):
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(SWAN_JOB), monkeypatch=monkeypatch)
    assert code == 0
    assert report["command"] == "swan"
    assert report["results"]["swan"] == {"num": 1, "den": 1}
    assert report["results"]["breaks"] == [[1, 1]]
    assert report["results"]["single_break"] == 1
    assert report["version"] == "0.1.0"
    assert isinstance(report["inputs_digest"], str) and len(report["inputs_digest"]) == 64


def test_report_version_is_the_package_version():
    """One version literal: reports carry ``ramify.__version__``, which is
    the ``[project] version`` of pyproject.toml."""
    import ramify

    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == ramify.__version__
    assert reporting.make_report("verify", {}, {}, [])["version"] == ramify.__version__


def test_dispatch_and_job_validation_name_the_same_commands():
    """``corpus.read_job`` admits ``corpus.COMMANDS`` and ``cli.run``
    dispatches on ``cli._HANDLERS``: a command in one only would be a
    KeyError traceback or an unreachable handler."""
    assert sorted(cli._HANDLERS) == sorted(corpus.COMMANDS)


def test_herbrand_job_tame(capsys, monkeypatch):
    job = {"command": "herbrand", "base": {"p": 2, "a": 2}, "cover": {"type": "kummer", "m": 3}}
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0
    phi = report["results"]["phi"]
    assert phi["breakpoints"] == [[0, 0], [1, {"num": 1, "den": 3}]]
    assert phi["final_slope"] == {"num": 1, "den": 3}
    assert report["results"]["hasse_arf"] is True


def _count_group_tables(monkeypatch) -> dict:
    """Orders of the group tables formed from now on: every table, and the
    quotient tables by their normal subgroup's order.  The library has no
    subgroup-table constructor, so a subgroup table shows among "tables"."""
    sizes = {"tables": [], "quotients": []}
    init, quotient = FiniteGroup.__init__, FiniteGroup.quotient

    def counted_init(group, *args, **kwargs):
        init(group, *args, **kwargs)
        sizes["tables"].append(group.n)

    def counted_quotient(group, normal):
        sizes["quotients"].append(len(normal))
        return quotient(group, normal)

    monkeypatch.setattr(FiniteGroup, "__init__", counted_init)
    monkeypatch.setattr(FiniteGroup, "quotient", counted_quotient)
    return sizes


def test_herbrand_job_builds_no_subgroup_table(capsys, monkeypatch):
    """Hasse-Arf is stated for abelian G_0 only: S3 reports null, Z/4 its
    integrality, and either way G_0 is tested on the job's own table: each
    job forms that table and no other."""
    sizes = _count_group_tables(monkeypatch)
    s3 = _dihedral_table(3, "herbrand")
    s3["break_table"]["iG"] = {x: 2 if i < 3 else 1 for i, x in enumerate(s3["break_table"]["labels"]) if i}
    for job, hasse_arf in ((s3, None), (_cyclic_table(4, 2, "herbrand"), True)):
        code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
        assert code == 0 and report["results"]["hasse_arf"] is hasse_arf
    assert sizes == {"tables": [6, 4], "quotients": []}


def _semidirect_bound_job(p, m, a, ell, zeta):
    """A bound job on Z/p x| Z/m (index y*p + x is sigma^x tau^y, with
    tau sigma tau^-1 = sigma^a) with i = 2 on the rotations, and its
    faithful monomial rep: sigma -> diag(zeta^(a^-i)), tau -> cyclic shift."""
    def label(x, y):
        parts = [f"sigma^{x}" if x > 1 else "sigma"] * (x > 0) + [f"tau^{y}" if y > 1 else "tau"] * (y > 0)
        return "*".join(parts) or "1"

    labels = [label(i % p, i // p) for i in range(p * m)]
    table = [[(i // p + j // p) % m * p + (i % p + pow(a, i // p, p) * (j % p)) % p for j in range(p * m)]
             for i in range(p * m)]
    a_inv = pow(a, -1, p)
    sigma = [[pow(zeta, pow(a_inv, i, p), ell) if i == j else 0 for j in range(m)] for i in range(m)]
    tau = [[int(i == (j + 1) % m) for j in range(m)] for i in range(m)]
    return {"command": "bound", "base": {"p": p, "a": 1}, "params": {"N": 4},
            "break_table": {"labels": labels, "mul_table": table,
                            "iG": {x: 2 if i < p else 1 for i, x in enumerate(labels) if i}},
            "rep": {"ell": ell, "r": m, "images": {"sigma": sigma, "tau": tau}}}


def test_hasse_arf_and_a_nonabelian_bound_job_build_no_subgroup_table(monkeypatch):
    """Whether G_0, or a candidate for the abelian normal part, commutes is
    read on the group's own table: ``verify hasse_arf`` over the formed
    filtrations and a bound job whose image is Z/7 x| Z/3 build no subgroup
    table.  Nor does the bound job form a quotient table: whether G/P is
    cyclic is read off element orders."""
    cli.run({"command": "verify", "params": {"suite": "hasse_arf"}})  # forms the filtrations
    sizes = _count_group_tables(monkeypatch)
    report, code = cli.run({"command": "verify", "params": {"suite": "hasse_arf"}})
    assert code == 0 and len(report["results"]["instances"]) == 10
    job = _semidirect_bound_job(7, 3, 2, 29, 16)  # 16 has order 7 mod 29
    report, code = cli.run(job, {"jordan_table": {3: 3}})
    assert code == 0 and report["results"]["inertia"]["order"] == 21
    assert report["results"]["inertia"]["P_order"] == 7
    # The job's own table and the group of its images, both of order 21.
    assert sizes == {"tables": [21, 21], "quotients": []}


def test_jobs_build_phi_once_and_each_fixed_space_once(capsys, monkeypatch):
    """A herbrand or swan job builds phi once, and swan_conductor computes
    one fixed space per positive jump: Z/8 with jumps 1, 4, 9 and the
    Artin-Schreier job with jump 1."""
    from ramify import ramification

    calls = {"phi": 0, "fixed_dim": 0}
    inside_swan = []
    phi, fixed_dim, swan = ramification.herbrand_phi, ramification.Representation.fixed_dim, cli.swan_conductor

    def counted_phi(filt):
        calls["phi"] += 1
        return phi(filt)

    def counted_fixed_dim(rep, subset):
        calls["fixed_dim"] += 1
        return fixed_dim(rep, subset)

    def counted_swan(rep, filt):
        before = calls["fixed_dim"]
        report = swan(rep, filt)
        inside_swan.append((calls["fixed_dim"] - before, len(filt.positive_jumps())))
        return report

    for module in (ramification, cli):
        monkeypatch.setattr(module, "herbrand_phi", counted_phi)
    monkeypatch.setattr(ramification.Representation, "fixed_dim", counted_fixed_dim)
    monkeypatch.setattr(cli, "swan_conductor", counted_swan)
    z8 = _cyclic_table(8)
    z8["break_table"]["iG"] = {str(x): 2 if x % 2 else 5 if x % 4 else 10 for x in range(1, 8)}
    z8_swan = dict(z8, command="swan", rep={"ell": 17, "n": 1, "r": 1, "images": {"1": [[9]]}})
    for job, jumps in ((dict(z8, command="herbrand"), None), (z8_swan, 3), (SWAN_JOB, 1)):
        calls["phi"] = 0
        inside_swan.clear()
        code, _ = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
        assert code == 0 and calls["phi"] == 1
        assert inside_swan == ([] if jumps is None else [(jumps, jumps)])


def test_filtration_job_with_direct_break_table(capsys, monkeypatch):
    job = {
        "command": "filtration",
        "base": {"p": 2, "a": 1},
        "break_table": {
            "labels": ["1", "s"],
            "mul_table": [[0, 1], [1, 0]],
            "iG": {"s": 2},
        },
    }
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0
    assert report["results"]["filtration"] == [[0, ["1", "s"]], [1, ["1", "s"]], [2, ["1"]]]



def test_swan_job_on_direct_break_table(capsys, monkeypatch):
    job = {
        "command": "swan",
        "base": {"p": 2, "a": 1},
        "break_table": {
            "labels": ["1", "s"],
            "mul_table": [[0, 1], [1, 0]],
            "iG": {"s": 2},
        },
        "rep": {"ell": 3, "n": 1, "r": 1, "images": {"s": [[[2]]]}},
    }
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0
    assert report["results"]["swan"] == {"num": 1, "den": 1}


def test_bound_job(capsys, monkeypatch):
    job = dict(SWAN_JOB)
    job["command"] = "bound"
    job["params"] = {"N": 1}
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0
    results = report["results"]
    assert results["inertia"]["P_order"] == 2
    assert results["tameizing"]["index_tame"] == 2
    assert results["constants"]["N_prime"] == 3
    assert results["wild_bound"]["ok"] is True
    assert report["warnings"]


def test_enum_probe_job(capsys, monkeypatch):
    job = {
        "command": "enum",
        "params": {"op": "abelian_p_bound_probe", "r": 2, "ell": 2, "p": 3, "s": 1},
    }
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0
    assert report["results"]["max_order_found"] == 9
    assert report["results"]["le_linear_bound"] is False
    assert report["results"]["le_torus_bound"] is True


def test_enum_max_order_and_sample_jobs(capsys, monkeypatch):
    job = {"command": "enum", "params": {"op": "max_ell_element_order", "r": 2, "ell": 2, "n": 1}}
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0
    assert report["results"] == {"op": "max_ell_element_order", "max_order": 2, "mode": "exhaustive"}

    job = {
        "command": "enum",
        "params": {"op": "inertia_candidate_sample", "r": 2, "ell": 3, "n": 1, "p": 2, "count": 2},
    }
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0
    assert len(report["results"]["orders"]) == 2


def test_params_seed_reaches_sampling(capsys, monkeypatch):
    job = {
        "command": "enum",
        "params": {
            "op": "inertia_candidate_sample",
            "r": 2, "ell": 3, "n": 1, "p": 2, "count": 3, "seed": 17,
        },
    }
    _, r1 = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    _, r2 = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert r1["results"] == r2["results"]
    assert r1["results"]["seed"] == 17


def test_malformed_json_exit_one(capsys, monkeypatch):
    code, report = run_cli(capsys, ["run"], stdin="{not json", monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "InputSchemaError"


def test_module_error_surfaced_with_name(capsys, monkeypatch):
    job = {"command": "filtration", "base": {"p": 2, "a": 1}, "cover": {"type": "kummer", "m": 3}}
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "MissingRootsOfUnity"


def test_cross_field_validation(capsys, monkeypatch):
    job = dict(SWAN_JOB)
    job["rep"] = {"ell": 2, "n": 1, "r": 1, "images": {"sigma": [[[1]]]}}
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "InputSchemaError"


def _swan_with(**fields):
    return dict(SWAN_JOB, **fields)


def _rep_with(**fields):
    return _swan_with(rep=dict(SWAN_JOB["rep"], **fields))


def _as_cover(f):
    return _swan_with(cover={"type": "artin_schreier", "f": f})


_TABLE_JOB = {
    "command": "filtration",
    "base": {"p": 2, "a": 1},
    "break_table": {"labels": ["1", "s"], "mul_table": [[0, 1], [1, 0]], "iG": {"q": 2}},
}


def _labelled(labels, command="filtration"):
    """A break-table job whose only fault is in ``labels``."""
    table = {"labels": labels, "mul_table": [[0, 1], [1, 0]], "iG": {"s": 2}}
    if len(labels) == 1:
        table.update(mul_table=[[0]], iG={})
    return dict(_TABLE_JOB, command=command, break_table=table)


@pytest.mark.parametrize(
    "job,field",
    [
        (_swan_with(cover={"type": "artin_schreier"}), "cover.f"),
        (_as_cover([[-1]]), "cover.f[0]"),
        (_as_cover([["x", [1]]]), "cover.f[0]"),
        (_as_cover(5), "cover.f"),
        (_as_cover([[-1, [1, 1]]]), "cover.f[0]"),
        (_swan_with(cover={"type": "kummer", "m": "x"}), "cover.m"),
        (_swan_with(cover={"type": "tower", "m": "x", "f": [[-1, [1]]]}), "cover.m"),
        (_rep_with(n="x"), "rep.n"),
        (_swan_with(cover=[]), "'cover'"),
        (_rep_with(images=[]), "rep.images"),
        (_rep_with(images={"sigma": [[["x"]]]}), "rep.images.sigma"),
        (_rep_with(images={"q": [[2]]}), "rep.images"),
        (_TABLE_JOB, "break_table.iG"),
        (dict(SWAN_JOB, command="bound", params=[1]), "params"),
        (dict(SWAN_JOB, command="bound", params="N"), "params"),
        ({"command": "enum", "params": [1]}, "params"),
        ({"command": "enum", "params": "op"}, "params"),
        ({"command": "verify", "params": [1]}, "params"),
        ({"command": "verify", "params": "all"}, "params"),
        (_swan_with(cover={"type": "tower", "m": 0, "f": [[-1, [1]]]}), "cover.m"),
        (_swan_with(cover={"type": "tower", "m": -1, "f": [[-1, [1]]]}), "cover.m"),
        (dict(_swan_with(cover={"type": "tower", "m": -1, "f": [[-1, [1]]]}), command="filtration"), "cover.m"),
        ({"command": "verify", "params": {"suite": ["all"]}}, "params.suite"),
        ({"command": "enum", "params": {"op": ["x"]}}, "enum op"),
        ({"command": "enum", "params": {"op": "abelian_p_bound_probe", "r": 1, "ell": 0, "p": 3, "s": 1}}, "params.ell"),
        ({"command": "enum", "params": {"op": "abelian_p_bound_probe", "r": 1, "ell": 2, "p": 0, "s": 1}}, "params.p"),
        ({"command": "enum", "params": {"op": "abelian_p_bound_probe", "r": 1, "ell": 2, "p": 3, "s": -1}}, "params.s"),
        ({"command": "enum", "params": {"op": "max_ell_element_order", "r": 1, "ell": 2, "n": 0}}, "params.n"),
        ({"command": "enum", "params": {"op": "inertia_candidate_sample", "r": 0, "ell": 3, "n": 1, "p": 2, "count": 1}}, "params.r"),
        (dict(SWAN_JOB, note=0.5), "0.5"),
        (dict(SWAN_JOB, params={"precision": float("nan")}), "NaN"),
        (dict(_TABLE_JOB, break_table=dict(_TABLE_JOB["break_table"], iG={"s": True})), "break_table.iG.s"),
        (_rep_with(r=True), "rep.r"),
        (_rep_with(r="x"), "rep.r"),
        (dict(SWAN_JOB, command="bound", params={"N": True}), "params.N"),
        (_swan_with(base={"p": 2, "a": True}), "base.a"),
        (_rep_with(images={"sigma": [[2, 1]]}), "rep.images.sigma"),
        (_rep_with(images={"sigma": [[2], [1]]}), "rep.images.sigma"),
        (dict(SWAN_JOB, break_table=_TABLE_JOB["break_table"]), "'cover' and 'break_table'"),
        *((_labelled([label, "s"]), "'break_table.labels[0]' must be a string") for label in (1, [1], {"x": 1}, None)),
        (_labelled([None, "s"], "herbrand"), "'break_table.labels[0]' must be a string"),
        (_labelled(["s", "s"]), "'break_table.labels[1]' repeats"),
        (_labelled(["s", "s"], "herbrand"), "'break_table.labels[1]' repeats"),
        (_labelled([5]), "'break_table.labels[0]' must be a string"),
    ],
)
def test_malformed_job_names_the_bad_field(job, field, capsys, monkeypatch):
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "InputSchemaError"
    assert field in report["error"]["message"]


@pytest.mark.parametrize("raw", ["0", "-5"])
def test_precision_flag_below_one_is_a_json_error(raw, capsys, monkeypatch):
    # --precision is no flag at all: whatever its value, 'run' and 'verify'
    # refuse it as an unknown flag, before any input is read.
    for argv in (["run", "--precision", raw], ["verify", "all", "--precision", raw]):
        monkeypatch.setattr(sys, "stdin", _UnreadableStdin())
        code = cli.main(argv)
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["error"]["type"] == "InputSchemaError"
        assert f"'--precision' is not a flag of '{argv[0]}'" in report["error"]["message"]


@pytest.mark.parametrize("raw", ["16", "lots"])
def test_the_environment_sets_no_precision_cap(raw, capsys, monkeypatch):
    # t^-11 over F_2 needs the window 17; the cap is 4096 whatever the
    # environment holds.
    job = dict(_as_cover([[-11, [1]]]), command="filtration")
    expected = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    monkeypatch.setenv("RAMIFY_PRECISION_CAP", raw)
    assert run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch) == expected
    assert expected[0] == 0
    assert expected[1]["results"]["i_G"] == {"sigma": 12}


# One job per command.  Every cover is built at its break window, whatever
# the job's precision, so each job stays cheap at any admitted precision.
_ONE_JOB_PER_COMMAND = [
    {"command": "filtration", "base": {"p": 7, "a": 1}, "cover": {"type": "kummer", "m": 3}},
    dict(_labelled(["1", "s"]), command="herbrand"),
    {"command": "verify", "params": {"suite": "counts"}},
    {"command": "enum", "params": {"op": "max_ell_element_order", "r": 1, "ell": 2, "n": 1}},
    SWAN_JOB,
    dict(SWAN_JOB, command="bound", params={"N": 1}),
]


def _at_precision(job, precision):
    return dict(job, params={**job.get("params", {}), "precision": precision})


@pytest.mark.parametrize("job", _ONE_JOB_PER_COMMAND, ids=lambda job: job["command"])
def test_params_precision_over_the_cap_is_refused_for_every_command(job, capsys, monkeypatch):
    job = _at_precision(job, 4097)
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "SizeCapExceeded"
    message = report["error"]["message"]
    assert "'params.precision'" in message and "precision cap 4096" in message
    assert "4097" not in message


@pytest.mark.parametrize("job", _ONE_JOB_PER_COMMAND, ids=lambda job: job["command"])
def test_params_precision_at_the_cap_is_admitted(job, capsys, monkeypatch):
    expected = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)[1]["results"]
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(_at_precision(job, 4096)), monkeypatch=monkeypatch)
    assert code == 0
    assert report["results"] == expected


@pytest.mark.parametrize(
    "cover,products",
    [
        ({"base": {"p": 31, "a": 1}, "cover": {"type": "artin_schreier", "f": [[-1, 1]]}}, 71),
        ({"base": {"p": 2, "a": 6}, "cover": {"type": "tower", "m": 63, "f": [[-1, 1]]}}, 85),
    ],
    ids=["as_p31", "tower_F64_m63"],
)
def test_a_jobs_precision_sets_no_work(cover, products, monkeypatch):
    # Built at max(precision, window), it took 1365, 1365 and 2237 products
    # for AS over F_31, and 318, 318 and 523 for the tower.  LaurentSeries.scale
    # makes no product: it took 31 of the 1322 for AS over F_31 and 129 of
    # the 318 for the tower when it did.  The lift from the relation
    # polynomial took 1291 and 189, the lift of t 302 and 167, and the lift
    # of the unit u 305 and 157.  Built once over K in sigma = s^m and
    # stretched, with no t^a and no y + j, they took 275 and 82; with the 30
    # action units of AS over F_31 taken from one shared Paterson-Stockmeyer
    # pass, not 30 powers (1 + j/y)^b, it took 67 and 82.  With the unit of
    # y -> y + 1 checked against one power (1 + z)^b, not the wild generator
    # composed with t and y, it took 63 and 69.  The check of y against t,
    # t^a y^(bm) = sigma, adds the products of its two powers: 71 and 85.
    counts = []
    real = series._mul_keys

    def counting(*args):
        counts[-1] += 1
        return real(*args)

    monkeypatch.setattr(series, "_mul_keys", counting)
    for params in ({}, {"precision": 64}, {"precision": 4096}):
        counts.append(0)
        assert cli.run(dict(cover, command="filtration", params=params))[1] == 0
    assert counts == [products] * 3


# Artin-Schreier covers over F_2, F_5 and F_31, towers over F_3 and F_4, a
# Kummer cover and the corpus covers.
_PROBE_COVERS = {
    "as_p2": ({"p": 2, "a": 1}, {"type": "artin_schreier", "f": [[-5, 1], [-3, 1], [-1, 1]]}),
    "as_p5": ({"p": 5, "a": 1}, {"type": "artin_schreier", "f": [[-3, 2], [-1, 1]]}),
    "as_p31": ({"p": 31, "a": 1}, {"type": "artin_schreier", "f": [[-1, 1]]}),
    "tower_p3_m2": ({"p": 3, "a": 1}, {"type": "tower", "m": 2, "f": [[-2, 1]]}),
    "tower_p2a2_m3": ({"p": 2, "a": 2}, {"type": "tower", "m": 3, "f": [[-1, [0, 1]]]}),
    "kummer_p7_m3": ({"p": 7, "a": 1}, {"type": "kummer", "m": 3}),
    **{spec["id"]: (spec["base"], spec["cover"]) for spec in corpus._raw()["covers"]},
}


@pytest.mark.parametrize("base,cover", _PROBE_COVERS.values(), ids=_PROBE_COVERS)
def test_every_report_is_the_same_at_every_precision(base, cover):
    for command in ("filtration", "herbrand"):
        reports = set()
        for params in ({}, {"precision": 1}, {"precision": 64}, {"precision": 1024}):
            report, code = cli.run({"command": command, "base": base, "cover": cover, "params": params})
            assert code == 0
            del report["inputs_digest"]  # hashes the job text, precision included
            reports.add(canonical_dumps(report))
        assert len(reports) == 1


@pytest.mark.parametrize(
    "mul_table,error",
    [
        ([[False, True], [True, False]], ("InputSchemaError", "'break_table.mul_table[0][0]' must be an integer")),
        ([[0, 1], [1, "0"]], ("InputSchemaError", "'break_table.mul_table[1][1]' must be an integer")),
        ([[0, 1], [1, None]], ("InputSchemaError", "'break_table.mul_table[1][1]' must be an integer")),
        ([[0, 1], 5], ("InputSchemaError", "'break_table.mul_table[1]' must be a list")),
        ([[0, 1], [1, 2]], ("NotAGroup", "table entry out of range")),
        ([[0, 1], [1, -1]], ("NotAGroup", "table entry out of range")),
    ],
)
def test_break_table_cells_are_read_as_integers(mul_table, error, capsys, monkeypatch):
    job = _labelled(["1", "s"])
    job["break_table"]["mul_table"] = mul_table
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"] == dict(zip(("type", "message"), error))


@pytest.mark.parametrize(
    "f,repeat,first",
    [([[-1, 1], [-3, 1], [-3, 0]], 2, 1), ([[-3, 0], [-1, 1], [-3, 1]], 2, 0)],
)
def test_a_repeated_exponent_of_cover_f_is_refused(f, repeat, first, capsys, monkeypatch):
    for command in ("filtration", "swan"):
        for cover in ({"type": "artin_schreier", "f": f}, {"type": "tower", "m": 1, "f": f}):
            job = dict(SWAN_JOB, command=command, cover=cover)
            code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
            assert code == 1
            assert report["error"] == {
                "type": "InputSchemaError",
                "message": f"'cover.f[{repeat}][0]' repeats the exponent of 'cover.f[{first}][0]'",
            }


def test_the_usage_names_exactly_the_flags_of_the_command_line():
    usage = cli.__doc__.split("\n\n")[0]
    assert tuple(re.findall(r"--[a-z-]+", usage)) == corpus._FLAGS


def test_unknown_suite(capsys):
    code, report = run_cli(capsys, ["verify", "nonsense"])
    assert code == 1
    assert report["error"]["type"] == "UnknownSuite"


def test_verify_all_passes_and_is_deterministic(capsys):
    code1 = cli.main(["verify", "all"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["verify", "all"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["results"]["ok"] is True
    assert all(inst["pass"] for inst in report["results"]["instances"])


def test_verify_exit_two_on_violation(capsys, monkeypatch):
    def failing_suite(options):
        return [{"name": "stub", "pass": False}]

    monkeypatch.setitem(verify._SUITES, "hasse_arf", failing_suite)
    code = cli.main(["verify", "hasse_arf"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["results"]["ok"] is False


def test_no_floats_anywhere_in_reports(capsys, monkeypatch):
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(SWAN_JOB), monkeypatch=monkeypatch)

    def scan(node):
        assert not isinstance(node, float), node
        if isinstance(node, dict):
            for k, v in node.items():
                scan(k)
                scan(v)
        elif isinstance(node, list):
            for v in node:
                scan(v)

    scan(report)
    code = cli.main(["verify", "all"])
    scan(json.loads(capsys.readouterr().out))


def test_output_file_written_atomically(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.json"
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(SWAN_JOB))
    code = cli.main(["run", "--input", str(job_file), "--output", str(target)])
    assert code == 0
    report = json.loads(target.read_text())
    assert report["results"]["swan"] == {"num": 1, "den": 1}
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".ramify-")]
    assert leftovers == []


@pytest.mark.parametrize("target", ["missing-dir/report.json", "a-dir"])
@pytest.mark.parametrize("argv", [["verify", "counts"], ["run", "--input", "no-such-job.json"]],
                         ids=["succeeds", "fails"])
def test_an_unwritable_output_is_an_error_object_on_stdout(argv, target, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-dir").mkdir()
    code = cli.main([*argv, "--output", target])
    out = capsys.readouterr().out
    reason = "Is a directory" if target == "a-dir" else "No such file or directory"
    assert code == 1
    assert json.loads(out) == {"error": {
        "type": "InputSchemaError", "message": f"cannot write --output {target}: {reason}",
    }}
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a-dir"]


def test_same_job_same_report_bytes(capsys, monkeypatch):
    _, r1 = run_cli(capsys, ["run"], stdin=json.dumps(SWAN_JOB), monkeypatch=monkeypatch)
    _, r2 = run_cli(capsys, ["run"], stdin=json.dumps(SWAN_JOB), monkeypatch=monkeypatch)
    assert canonical_dumps(r1) == canonical_dumps(r2)


def test_jordan_table_flag(tmp_path, capsys, monkeypatch):
    table = tmp_path / "jordan.json"
    table.write_text(json.dumps({"1": 1, "2": 12}))
    job = dict(SWAN_JOB)
    job["command"] = "bound"
    job["params"] = {"N": 1}
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(job))
    code = cli.main(["run", "--input", str(job_file), "--jordan-table", str(table)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"x": 1}))
    code = cli.main(["run", "--input", str(job_file), "--jordan-table", str(bad)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["error"]["type"] == "InputSchemaError"


def test_bound_writes_a_symbolic_crude_bound_as_a_descriptor(capsys, monkeypatch):
    # N = 5 gives N' = 15 and M0 = 2^15, over FACTORIAL_CAP, so M0! is not
    # formed and the report names it.
    job = dict(SWAN_JOB, command="bound", params={"N": 5})
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0
    assert report["results"]["constants"] == {"N_prime": 15, "M0": 2 ** 15, "M_crude": [2 ** 15, "factorial"]}


@pytest.mark.parametrize("big_n,field", [(1, "constants.M_crude"), (1300, "constants.M0")])
def test_bound_constants_over_the_digit_limit_are_a_json_error(big_n, field, capsys, monkeypatch):
    # M0 = 2^(11 N): at N = 1 its factorial M_crude has about 5,900 digits;
    # at N = 1300, M0 itself has about 4,300.
    import sys

    job = dict(SWAN_JOB)
    job["command"] = "bound"
    job["rep"] = {"ell": 11, "n": 1, "r": 1, "images": {"sigma": [[[10]]]}}
    job["params"] = {"N": big_n}
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 1
    assert report["error"]["type"] == "OverflowPolicyExceeded"
    assert field in report["error"]["message"]


def test_tower_of_tame_degree_one_is_the_wild_layer(capsys, monkeypatch):
    job = {"command": "filtration", "base": {"p": 2, "a": 1},
           "cover": {"type": "tower", "m": 1, "f": [[-1, [1]]]}}
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0
    assert report["results"]["degree"] == 2
    assert report["results"]["i_G"] == {"sigma": 2}


@pytest.mark.parametrize(
    "job",
    [
        _as_cover([[-100001, [1]]]),
        dict(SWAN_JOB, params={"precision": 100000000}),
        _as_cover([[-4095, [1]]]),
        dict(SWAN_JOB, cover={"type": "tower", "m": 1, "f": [[-4095, [1]]]}),
    ],
)
def test_work_over_the_precision_cap_is_refused_up_front(job, capsys, monkeypatch):
    start = time.perf_counter()
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert report["error"]["type"] == "SizeCapExceeded"
    assert "precision cap 4096" in report["error"]["message"]


def _enum(op, **params):
    return {"command": "enum", "params": dict(params, op=op)}


def _cyclic_table(n, i_g=1, command="filtration"):
    labels = [str(i) for i in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return {"command": command, "base": {"p": 2, "a": 1},
            "break_table": {"labels": labels, "mul_table": table, "iG": {x: i_g for x in labels[1:]}}}


def _dihedral_table(p, command):
    """Z/p x| Z/2 with i = 4096 on the rotations and 1 on the reflections;
    element e*p + k is r^k s^e."""
    labels = ["1", "r"] + [f"r^{k}" for k in range(2, p)] + ["s"] + [f"r^{k}s" for k in range(1, p)]
    table = [[(e1 + e2) % 2 * p + (k1 + (-1) ** e1 * k2) % p for e2 in (0, 1) for k2 in range(p)]
             for e1 in (0, 1) for k1 in range(p)]
    i_g = {x: 4096 if i < p else 1 for i, x in enumerate(labels) if i}
    return {"command": command, "base": {"p": p, "a": 1},
            "break_table": {"labels": labels, "mul_table": table, "iG": i_g}}


@pytest.mark.parametrize(
    "job",
    [
        _dihedral_table(7, "filtration"),
        {"command": "filtration", "base": {"p": 3, "a": 1}, "cover": {"type": "tower", "m": 2, "f": [[-2, 1]]}},
        {"command": "filtration", "base": {"p": 2, "a": 1},
         "break_table": {"labels": ["1"], "mul_table": [[0]], "iG": {}}},
    ],
    ids=["dihedral_p7", "tower_p3_m2", "trivial_group"],
)
def test_filtration_rows_match_a_per_index_sort(job):
    # Each level's labels are sorted once and shared by every index in it:
    # the rows equal a sort of G_i for each i, and there are as many
    # distinct rows as levels, the trivial one after the last jump included.
    results, filt = cli._filtration_results(job)
    labels = filt.group.labels
    oracle = [[i, sorted(labels[g] for g in filt.subgroup_at(i))] for i in range(filt.i_max + 2)]
    assert results["filtration"] == oracle
    assert len({id(row) for _, row in results["filtration"]}) == len(filt.levels) + 1


def _rank_job(r, command="swan"):
    """SWAN_JOB at rank r, sigma -> -1: the law check's work is 2 * 1 * r^3."""
    minus_one = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    return dict(SWAN_JOB, command=command, rep={"ell": 3, "r": r, "images": {"sigma": minus_one}})


# The cyclic corner's character: 1 -> -1 over F_3, Swan conductor 4095.
_CORNER_CHARACTER = {"ell": 3, "r": 1, "images": {"1": [[2]]}}
# Monomial rank-2 rep of Z/61 x| Z/2 over F_367: zeta = 2^6 has order 61.
_CORNER_MONOMIAL = {"ell": 367, "r": 2, "images": {
    "r": [[64, 0], [0, pow(64, -1, 367)]], "s": [[0, 1], [1, 0]]}}


@pytest.mark.parametrize(
    "job,field",
    [
        (_enum("max_ell_element_order", r=4, ell=2, n=1), "'params.r'"),
        (_enum("max_ell_element_order", r=2, ell=13, n=1), "'params.ell'"),
        (_enum("max_ell_element_order", r=2, ell=2, n=3), "'params.n'"),
        (_enum("max_ell_element_order", r=1, ell=4099, n=1), "'params.ell'"),
        (_enum("max_ell_element_order", r=20000, ell=2, n=1), "'params.r'"),
        (_enum("max_ell_element_order", r=2, ell=7, n=1), "'params.ell'"),
        (_enum("inertia_candidate_sample", r=1, ell=4093, n=1, p=2, count=16), "'params.count'"),
        (_enum("inertia_candidate_sample", r=1, ell=3, n=1, p=2, count=100), "'params.count'"),
        (_enum("inertia_candidate_sample", r=1, ell=3, n=1, p=2, count=1000), "'params.count'"),
        (_enum("abelian_p_bound_probe", r=2, ell=367, p=61, s=1), "'params.s'"),
        (_enum("abelian_p_bound_probe", r=10 ** 6, ell=3, p=2, s=0), "'params.r'"),
        (_enum("abelian_p_bound_probe", r=1, ell=3, p=2, s=10 ** 30), "'params.s'"),
        ({"command": "filtration", "base": {"p": 2, "a": 11}, "cover": {"type": "kummer", "m": 2047}}, "'cover.m'"),
        ({"command": "filtration", "base": {"p": 2, "a": 12}, "cover": {"type": "kummer", "m": 4095}}, "'cover.m'"),
        ({"command": "filtration", "base": {"p": 2, "a": 16}, "cover": {"type": "kummer", "m": 65535}}, "'cover.m'"),
        (dict(SWAN_JOB, base={"p": 251, "a": 1}), "'base.p'"),
        (dict(SWAN_JOB, cover={"type": "tower", "m": 127, "f": [[-1, [1]]]}, base={"p": 2, "a": 7}), "'cover.m'"),
        (_cyclic_table(256), "'break_table.labels'"),
        (dict(_TABLE_JOB, break_table=dict(_TABLE_JOB["break_table"], iG={"s": 10 ** 5})), "'break_table.iG.s'"),
        (dict(_TABLE_JOB, break_table=dict(_TABLE_JOB["break_table"], iG={"s": 10 ** 6})), "'break_table.iG.s'"),
        (_rank_job(162), "'rep.r'"),
        (dict(_rank_job(300, "bound"), params={"N": 1}), "'rep.r'"),
        # p = 2^61 - 1 is prime: the cap comes before trial division would end.
        (_enum("abelian_p_bound_probe", r=1, ell=3, p=2 ** 61 - 1, s=0), "'params.p'"),
        (_enum("inertia_candidate_sample", r=1, ell=3, n=1, p=2 ** 61 - 1, count=1), "'params.p'"),
        # The same for ell, which the probe's own bounds leave unbounded.
        (_enum("abelian_p_bound_probe", r=1, ell=2 ** 61 - 1, p=3, s=1), "'params.ell'"),
    ],
)
def test_work_over_a_job_bound_is_refused_up_front(job, field, capsys, monkeypatch):
    start = time.perf_counter()
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert report["error"]["type"] == "SizeCapExceeded"
    assert field in report["error"]["message"]


def _as_filtration(p, f, a=1):
    return {"command": "filtration", "base": {"p": p, "a": a}, "cover": {"type": "artin_schreier", "f": f}}


def _f64_tower_filtration(f):
    return {"command": "filtration", "base": {"p": 2, "a": 6}, "cover": {"type": "tower", "m": 63, "f": f}}


# (job, series products): AS p=127 with f = t^-50 (35 s before the direct
# lift) and t^-500 (over 45 s), AS p=2 with f = t^-3969 + t^-63 (7.8 s), and
# AS p=127 with f = t^-3965 (21.6 s as a process while the lift of t took a
# b-th root for y, which came out as an exact monomial).  The lift of t made
# 999, 787, 699 and 1,214 products; the lift of u made 1,012, 807, 687 and
# 1,244, on windows that are never falsely exact, and with sigma_j(s) taken
# as s (1 + j/y)^b (no t^a, no y + j) it made 881, 671, 671 and 1,103.
# The 126 action units of AS p=127 come from one shared Paterson-Stockmeyer
# pass on their binomial rows, not from 126 powers: 125, 167 and 221.
# The wild generator's unit is checked against one power (1 + z)^b, with
# y z = 1, and t and y are no longer composed with the generator (the
# module docstring of ``covers`` proves it fixes t and sends y to y + 1):
# 125 -> 101, 167 -> 129, 361 -> 195, 221 -> 173, the three towers
# 206 -> 159 and 381 -> 211.  That admits AS over F_64 with f = t^-3969
# and with t^4096 + t^-4089: 2.4-3.5 s as processes while the generator
# was composed with t and y, 0.6-1.2 s after, on a shared 2-CPU machine.
# The check of y against t, t^a y^(bm) = sigma, adds the products of its
# two powers: 101 -> 113, 129 -> 144, 195 -> 211, 173 -> 196, the three
# towers 159 -> 185, 211 -> 231, and AS over F_64 195 -> 211, 211 -> 231.
# Towers over F_64 with m = 63, f = t^-63 and t^-63 + t^-1 (2.7 s and 12.5 s
# as processes, 387 and 697 products, while the wild layer was built a
# second time over K' on the pulled-back datum of pole 63 * 63): their
# wild layer is lifted over K on ceil(R / 63) terms and stretched.  A build
# reads f only to O(t^K), K = ceil((R_sigma - p M) / p), so the t^-63 of the
# AS p=2 corner (K = -1982) and the t^-1 of the tower (K = -31) are not
# composed (671 and 241 products while the whole datum was), nor are the
# far terms of the last two corners: the tower with t^4096 (4.0 s as a
# process, 398 products) and AS p=2 with t^4096 + t^-4089 (1.2 s, 651).
_COVER_CORNERS = [
    (_as_filtration(127, [[-50, 1]]), 113),
    (_as_filtration(127, [[-500, 1]]), 144),
    (_as_filtration(2, [[-3969, 1], [-63, 1]]), 211),
    (_as_filtration(127, [[-3965, 1]]), 196),
    (_f64_tower_filtration([[-63, 1]]), 185),
    (_f64_tower_filtration([[-63, 1], [-1, 1]]), 185),
    (_f64_tower_filtration([[4096, 1], [-63, 1]]), 185),
    (_as_filtration(2, [[4096, 1], [-4089, 1]]), 231),
    (_as_filtration(2, [[-3969, 1]], 6), 211),
    (_as_filtration(2, [[4096, 1], [-4089, 1]], 6), 231),
]


@pytest.mark.parametrize(
    "job",
    [
        _enum("max_ell_element_order", r=2, ell=5, n=1),
        _enum("max_ell_element_order", r=1, ell=2, n=7),
        _enum("inertia_candidate_sample", r=2, ell=7, n=1, p=2, count=1),
        _enum("abelian_p_bound_probe", r=3, ell=11, p=5, s=1),
        _cyclic_table(128),
        {"command": "filtration", "base": {"p": 2, "a": 7}, "cover": {"type": "kummer", "m": 127}},
        # Samplers that find fewer groups than asked for: the cell budget ends them.
        _enum("inertia_candidate_sample", r=1, ell=509, n=1, p=2, count=4),
        _enum("inertia_candidate_sample", r=1, ell=2, n=8, p=3, count=16),
        _enum("inertia_candidate_sample", r=1, ell=257, n=1, p=2, count=8),
        # Break tables at GROUP_CAP x the precision cap: one level per jump.
        _cyclic_table(128, 4096),
        _cyclic_table(128, 4096, "herbrand"),
        dict(_cyclic_table(128, 4096, "swan"), rep=_CORNER_CHARACTER),
        dict(_cyclic_table(128, 4096, "bound"), rep=_CORNER_CHARACTER, params={"N": 4095}),
        _dihedral_table(61, "filtration"),
        _dihedral_table(61, "herbrand"),
        dict(_dihedral_table(61, "swan"), rep=_CORNER_MONOMIAL),
        _rank_job(161),
        # The largest prime residue characteristic under the p cap.
        _enum("abelian_p_bound_probe", r=1, ell=3, p=65521, s=0),
        _enum("inertia_candidate_sample", r=1, ell=3, n=1, p=65521, count=1),
        # Artin-Schreier covers with a large pole, minutes long before t was
        # lifted from one equation instead of the degree-p relation, and the
        # two F_64 towers, seconds long while their wild layer was built over K',
        # and two data with a far term, seconds long while it was composed;
        # AS over F_64, seconds long while the wild generator was composed.
        *(job for job, _ in _COVER_CORNERS),
    ],
)
def test_work_at_a_job_bound_is_admitted(job, capsys, monkeypatch):
    start = time.perf_counter()
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 2.0
    assert code == 0, report


@pytest.mark.parametrize(
    "job",
    [
        _enum("abelian_p_bound_probe", r=1, ell=5, p=4, s=1),
        _enum("inertia_candidate_sample", r=2, ell=3, n=1, p=4, count=1),
        _enum("abelian_p_bound_probe", r=1, ell=3, p=65535, s=0),
        _enum("inertia_candidate_sample", r=1, ell=3, n=1, p=1001, count=0),
    ],
)
def test_a_composite_residue_characteristic_is_refused(job, capsys, monkeypatch):
    # params.p is the residue characteristic p of F_{p^a}, so it must be prime.
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "NotPrime"
    assert "'params.p'" in report["error"]["message"]


@pytest.mark.parametrize(
    "job",
    [
        _enum("max_ell_element_order", r=1, ell=4, n=1),
        _enum("inertia_candidate_sample", r=1, ell=4, n=1, p=3, count=1),
        _enum("abelian_p_bound_probe", r=1, ell=4, p=3, s=1),
        _enum("abelian_p_bound_probe", r=1, ell=65535, p=2, s=0),
    ],
)
def test_a_composite_ell_is_refused_by_its_path(job, capsys, monkeypatch):
    # ell is the characteristic of F_{ell^n}: refused as one NotPrime that
    # names 'params.ell' by every op (max_ell_element_order raised NotAGroup).
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"] == {"type": "NotPrime", "message": f"'params.ell' = {job['params']['ell']} is not prime"}


def test_a_probe_with_ell_equal_to_p_is_refused_up_front(capsys, monkeypatch):
    # No field of characteristic 3 holds the cube roots of unity, so the
    # probe searched to the field cap and blamed mu_3; with s = 0 it is
    # answered.
    job = _enum("abelian_p_bound_probe", r=1, ell=3, p=3, s=1)
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "InputSchemaError"
    assert "'params.ell'" in report["error"]["message"] and "'params.p'" in report["error"]["message"]
    job["params"]["s"] = 0
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0 and report["results"]["max_order_found"] == 1


def test_a_rep_given_on_every_element_walks_only_its_generator(capsys, monkeypatch):
    # Z/128 over F_257 at rank 16, every element's image given: the law check
    # walks the one greedy generator, n * |S| = 128 products (each given
    # image was walked before, 16,384 products and about 6 s), and compares
    # the other 127 images by key.
    from ramify.linalg import MatrixFF

    calls = []
    product = MatrixFF.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(MatrixFF, "__mul__", counted)
    zeta = 9  # of order 128 mod 257
    images = {str(k): [[pow(zeta, k * (i + 1), 257) if i == j else 0 for j in range(16)] for i in range(16)]
              for k in range(128)}
    job = dict(_cyclic_table(128, command="swan"), rep={"ell": 257, "r": 16, "images": images})
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0, report
    assert len(calls) == 128


def test_a_rep_refused_by_its_work_bound_converts_no_entry(capsys, monkeypatch):
    # The r = 1500 zero image (6.75 MB of JSON): the law check's work is
    # refused from the labels and the shape alone, before any of its
    # 2,250,000 entries becomes a key, with the same stdout as when every
    # entry was read first.
    converted = []
    element = corpus._element

    def counted(field, x, path, degree):
        converted.append(path)
        return element(field, x, path, degree)

    monkeypatch.setattr(corpus, "_element", counted)
    job = _rank_job(1500)
    job["rep"]["images"]["sigma"] = [[0] * 1500 for _ in range(1500)]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(job)))
    assert cli.main(["run"]) == 1
    assert capsys.readouterr().out == (
        '{"error":{"message":"the law check\'s work, group order * generators walked * '
        '\'rep.r\'^3 = 6750000000, exceeds 8388608","type":"SizeCapExceeded"}}\n'
    )
    assert converted == ["cover.f[0][1]"]


def test_a_rep_over_its_work_bound_reports_its_shape_before_the_bound_and_the_bound_before_its_entries(
    capsys, monkeypatch
):
    misshapen = _rank_job(162)
    misshapen["rep"]["images"]["sigma"].pop()
    bad_entry = _rank_job(162)
    bad_entry["rep"]["images"]["sigma"][0][0] = "2"
    for job, error, field in ((misshapen, "InputSchemaError", "'rep.images.sigma'"),
                              (bad_entry, "SizeCapExceeded", "'rep.r'")):
        code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
        assert code == 1
        assert report["error"]["type"] == error
        assert field in report["error"]["message"]


def test_a_swan_job_forms_the_fixed_space_at_its_jump_once(capsys, monkeypatch):
    # AS p = 3, f = t^-1, sigma -> diagonal blocks [[0, 1], [1, 1]] over
    # F_{2^16}: swan_conductor and swan_single_break both ask for the fixed
    # space of G_1, and the representation forms it once.
    formed = []
    fixed_dim = ramification.fixed_dim

    def counted(mats):
        formed.append(len(mats))
        return fixed_dim(mats)

    monkeypatch.setattr(ramification, "fixed_dim", counted)
    r = 14
    sigma = [[0] * r for _ in range(r)]
    for i in range(0, r, 2):
        sigma[i][i + 1] = sigma[i + 1][i] = sigma[i + 1][i + 1] = 1
    job = dict(SWAN_JOB, base={"p": 3, "a": 1}, rep={"ell": 2, "n": 16, "r": r, "images": {"sigma": sigma}})
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0, report
    assert formed == [3]
    results = report["results"]
    assert results["swan"] == {"num": r, "den": 1} and results["single_break"] == r
    assert results["breaks"] == [[1, r]]


@pytest.mark.parametrize(
    "job,products",
    _COVER_CORNERS,
    ids=[
        "as_p127_pole50", "as_p127_pole500", "as_p2_two_terms", "as_p127_pole3965",
        "tower_F64_m63", "tower_F64_two_terms", "tower_F64_far_term", "as_p2_far_term",
        "as_F64_pole3969", "as_F64_far_term",
    ],
)
def test_a_cover_corner_makes_a_pinned_number_of_products(job, products, monkeypatch):
    # The corners of test_work_at_a_job_bound_is_admitted, bounded by their
    # work rather than by the wall clock.
    counts = []
    real = series._mul_keys
    monkeypatch.setattr(series, "_mul_keys", lambda *args: counts.append(1) or real(*args))
    assert cli.run(job)[1] == 0
    assert len(counts) == products


@pytest.mark.parametrize(
    "job,keys",
    [(_COVER_CORNERS[4][0], 4910), (_COVER_CORNERS[5][0], 4910)],
    ids=["tower_F64_m63", "tower_F64_two_terms"],
)
def test_an_f64_tower_corner_scales_a_pinned_number_of_keys(job, keys, monkeypatch):
    # The twists zeta^(ak), k != 0, scale each unit in sigma = s^63, on
    # ceil(R / 63) terms, before it is stretched (267,548 and 267,549 keys
    # while every twist scaled a stretched action series in s; the second
    # tower's t^-1, past the cut at O(t^-31), cost one key more; 4,974 while
    # the one unit 1 + z was formed as one + z.scale(1)).  The job
    # runs once first, so the field's generator and the Kummer layer, built
    # once a process, are not counted.
    assert cli.run(job)[1] == 0
    counts = []
    real = FiniteField.scale_keys
    monkeypatch.setattr(FiniteField, "scale_keys", lambda self, c, ks: counts.append(len(ks)) or real(self, c, ks))
    assert cli.run(job)[1] == 0
    assert sum(counts) == keys


def test_sampler_job_at_its_bound_makes_a_bounded_number_of_products(capsys, monkeypatch):
    # The sampler job of test_work_at_a_job_bound_is_admitted[job7], bounded
    # by its work rather than by the wall clock: 5,882 products since each
    # closure reads its table off its own walk (12,274 before).
    from ramify.linalg import MatrixFF

    calls = []
    product = MatrixFF.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(MatrixFF, "__mul__", counted)
    job = _enum("inertia_candidate_sample", r=1, ell=2, n=8, p=3, count=16)
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0, report
    assert len(calls) <= 5882


@pytest.mark.parametrize(
    "raw",
    [b'{"command": ' + b"1" * 5000 + b"}", b'{"command": "\xff"}'],
    ids=["int-over-the-digit-limit", "not-utf-8"],
)
def test_input_that_does_not_decode_is_a_json_error(raw, tmp_path, capsys):
    job_file = tmp_path / "job.json"
    job_file.write_bytes(raw)
    code = cli.main(["run", "--input", str(job_file)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["error"]["type"] == "InputSchemaError"


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


# Lists 992 deep overflow the parser's recursion; 495 deep under an unknown
# key, the report writer's.  1e400 is past the float range.
_UNREADABLE = {
    "lists-495": _nested(495),
    "lists-992": _nested(992),
    "unknown-key-495": '{"command": "verify", "params": {"suite": "counts"}, "extra": ' + _nested(495) + "}",
    "1e400": '{"command": "verify", "params": {"suite": "counts", "seed": 1e400}}',
}


@pytest.mark.parametrize("text", list(_UNREADABLE.values()), ids=list(_UNREADABLE))
@pytest.mark.parametrize("entry", ["stdin", "--input", "--jordan-table"])
def test_deep_or_inexact_json_is_one_input_error_at_every_entry_point(entry, text, tmp_path, capsys, monkeypatch):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = {
        "stdin": ["run"],
        "--input": ["run", "--input", str(path)],
        "--jordan-table": ["verify", "counts", "--jordan-table", str(path)],
    }[entry]
    code, report = run_cli(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "InputSchemaError"
    assert ("jordan table" if entry == "--jordan-table" else "the job") in report["error"]["message"]


def test_nesting_is_read_up_to_its_bound_and_refused_past_it():
    for deepest in (_nested(corpus.JSON_DEPTH), '{"k": ' * corpus.JSON_DEPTH + "1" + "}" * corpus.JSON_DEPTH):
        assert corpus.decode(deepest, "x") == json.loads(deepest)
        with pytest.raises(InputSchemaError, match=f"cannot read x: .* more than {corpus.JSON_DEPTH} deep"):
            corpus.decode(f"[{deepest}]", "x")


def test_datum_exponents_beyond_the_cap_are_refused_before_the_series_is_built(capsys, monkeypatch):
    # The window of f is dense, so t^5000 alone would store 5,000 coefficients.
    job = _as_cover([[-1, [1]], [5000, [1]]])
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "SizeCapExceeded"
    assert "'cover.f[1]' has exponent 5000" in report["error"]["message"]


@pytest.mark.parametrize("obj", [0.5, {"x": [1, (2, float("nan"))]}, {"k": {"j": -1.0}}])
def test_floats_are_refused_at_any_depth(obj):
    with pytest.raises(TypeError, match="floating point"):
        canonical_dumps(obj)


@pytest.mark.parametrize(
    "record",
    [
        SwanReport(swan=Fraction(1), breaks=((Fraction(1), 1),), per_jump_terms=()),
        ExplicitConstants(3, 24, 6),
    ],
)
def test_records_are_not_serialized_as_lists(record):
    with pytest.raises(TypeError, match=f"cannot serialize {type(record).__name__}"):
        canonical_dumps(record)
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_dumps({"results": [record]})


def test_a_non_associative_break_table_is_an_input_error(capsys, monkeypatch):
    # Z/6 with 1 * 1 = 0 keeps its identity and inverses, but (1 * 1) * 2 = 2
    # and 1 * (1 * 2) = 4.
    job = _cyclic_table(6)
    job["break_table"]["mul_table"][1][1] = 0
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"] == {
        "type": "InputSchemaError",
        "message": "'break_table.mul_table' is not associative",
    }


def _values(tree) -> int:
    """Values in a decoded JSON tree, containers included."""
    if isinstance(tree, dict):
        return 1 + sum(map(_values, tree.values()))
    if isinstance(tree, list):
        return 1 + sum(map(_values, tree))
    return 1


def test_the_writer_converts_each_value_once(capsys, monkeypatch):
    calls = []
    convert = reporting.to_jsonable

    def counting(obj, lists=None):
        calls.append(obj)
        return convert(obj, lists)

    # to_jsonable recurses through the module name, so every value is counted.
    monkeypatch.setattr(reporting, "to_jsonable", counting)
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(SWAN_JOB), monkeypatch=monkeypatch)
    assert code == 0
    # Each Fraction of this report is integral, so one call writes one value:
    # one walk of the report, one of the job for its digest.
    assert len(calls) == _values(report) + _values(SWAN_JOB)


def _values_once(tree, seen):
    """Values in a report before conversion, the contents of a list or tuple
    met again not counted again."""
    if isinstance(tree, dict):
        return 1 + sum(_values_once(v, seen) for v in tree.values())
    if isinstance(tree, (list, tuple)) and id(tree) not in seen:
        seen.add(id(tree))
        return 1 + sum(_values_once(x, seen) for x in tree)
    return 1


def test_a_filtration_report_converts_each_level_list_once(monkeypatch):
    # AS p = 5, f = t^-3999: 4,001 rows [i, labels], whose label lists are
    # the two levels' (G_i = G below the break 4,000, then the identity).
    # Each list is converted once, its labels with it.
    job = {"command": "filtration", "base": {"p": 5, "a": 1},
           "cover": {"type": "artin_schreier", "f": [[-3999, 1]]}}
    report, code = cli.run(job)
    assert code == 0
    rows = report["results"]["filtration"]
    levels = {id(labels): labels for _, labels in rows}
    assert len(rows) == 4001 and sorted(map(len, levels.values())) == [1, 5]
    calls = []
    convert = reporting.to_jsonable

    def counting(obj, lists=None):
        calls.append(obj)
        return convert(obj, lists)

    monkeypatch.setattr(reporting, "to_jsonable", counting)
    text = canonical_dumps(report)
    monkeypatch.undo()
    assert len(calls) == _values_once(report, set())
    # Once per label of the two levels; a call per row's labels would make 20,001.
    assert sum(x in ("1", "sigma", "sigma^2", "sigma^3", "sigma^4") for x in calls) == 6
    assert text == canonical_dumps(json.loads(text))


@pytest.mark.parametrize(
    "job,digest",
    [
        (
            {"command": "herbrand", "base": {"p": 2, "a": 2}, "cover": {"type": "kummer", "m": 3}},
            "9309c02c9b0b1ab979e7f6446a2862a80140e944b141e66fbec9e3dfb78b91b4",
        ),
        (
            _cyclic_table(128, 4096, "herbrand"),
            "4cb0b6bb314ef61b0131bb929189503f27417dd7cd637cfb0fb1046396af5b47",
        ),
        (
            {"command": "verify", "params": {"suite": "all"}},
            "6b2a0314b0c18d4eed56dd5578ba6baa1cf97ecced8bdb17972395629c0e7b1c",
        ),
    ],
    ids=["herbrand", "herbrand-z128-corner", "verify-all"],
)
def test_one_walk_writes_the_bytes_of_two(job, digest):
    report, code = cli.run(job)
    text = canonical_dumps(report)
    # The earlier writer converted the results in make_report and again here.
    assert text == canonical_dumps(dict(report, results=reporting.to_jsonable(report["results"])))
    assert hashlib.sha256((text + "\n").encode("ascii")).hexdigest() == digest


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# Block-buffered stdout, as in a user's shell: the report is still in the
# buffer when main returns, so an exit that skipped the flush would lose it.
ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = SRC


def test_cli_import_loads_no_introspection_modules():
    # -S keeps site-packages .pth hooks, which may import anything, out.
    probe = (
        "import ramify.cli, sys; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=ENV,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def _python_m_ramify(argv, stdin=b"", stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, "-m", "ramify", *argv], input=stdin, env=ENV, stdout=stdout, stderr=subprocess.PIPE
    )


@pytest.mark.parametrize(
    "argv,stdin",
    [
        (["run"], json.dumps(SWAN_JOB)),
        (["run"], "{"),
        (["run"], "[" * 992 + "]" * 992),
        (["verify", "claim1"], ""),
        (["run", "--precision", "0"], ""),
    ],
    ids=["swan", "input-error", "deep-input-error", "suite", "usage-error"],
)
def test_python_m_ramify_prints_what_main_prints(argv, stdin, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out = capsys.readouterr().out
    proc = _python_m_ramify(argv, stdin.encode())
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"")


def test_the_exit_keeps_a_violated_suites_code_two(capsys, monkeypatch):
    rows = [{"name": "stub", "pass": False}]
    monkeypatch.setitem(verify._SUITES, "counts", lambda options: rows)
    code = cli.main(["verify", "counts"])
    out = capsys.readouterr().out
    probe = (
        f"import sys; from ramify import cli, verify; verify._SUITES['counts'] = lambda options: {rows!r}; "
        "sys.argv = ['ramify', 'verify', 'counts']; cli.exit_main()"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=ENV, capture_output=True)
    assert code == 2
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"")


def test_verify_all_at_seed_5_keeps_its_digest(capsys):
    # The seeded rows of the counts suite, beside the seed-0 digest above.
    assert cli.main(["verify", "all", "--seed", "5"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "35d8d11c3d8dea0641fce0041491cc9439bbc8414cc64adfcf311827ac6cfa43"
    )


def test_a_large_report_goes_whole_through_a_pipe():
    # The Z/128 corner of test_one_walk_writes_the_bytes_of_two: 2.7 MB.
    proc = _python_m_ramify(["run"], json.dumps(_cyclic_table(128, 4096, "herbrand")).encode())
    assert proc.returncode == 0 and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "4cb0b6bb314ef61b0131bb929189503f27417dd7cd637cfb0fb1046396af5b47"
    )


def test_an_output_file_is_complete_when_the_process_ends(tmp_path):
    target = tmp_path / "report.json"
    proc = _python_m_ramify(["verify", "all", "--output", str(target)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "6b2a0314b0c18d4eed56dd5578ba6baa1cf97ecced8bdb17972395629c0e7b1c"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_a_closed_stdout_ends_as_a_normal_exit_does():
    # A small report is still buffered when main returns; the flush into a
    # pipe with no reader fails, and the interpreter's own exit reports it:
    # status 120 and one "Exception ignored" note, no traceback.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python_m_ramify(["run"], json.dumps(SWAN_JOB).encode(), stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert proc.stderr.endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")


def test_a_job_leaves_no_exit_hook_and_no_thread():
    # os._exit skips atexit handlers and does not wait for threads, so the
    # exit is safe only while ramify registers and starts none.
    probe = (
        "import atexit, io, sys, threading; hooks = atexit._ncallbacks(); "
        "from ramify import cli; "
        f"sys.stdin = io.StringIO({json.dumps(SWAN_JOB)!r}); "
        "codes = [cli.main(['run']), cli.main(['verify', 'all'])]; "
        "print(codes, atexit._ncallbacks() - hooks, threading.active_count(), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=ENV, capture_output=True, text=True, check=True)
    assert proc.stderr == "[0, 0] 0 1\n"


def test_a_huge_prime_base_is_refused_by_the_size_cap_first(capsys, monkeypatch):
    # 2^61 - 1 is prime; trial division to its square root would not end.
    job = {"command": "filtration", "base": {"p": 2305843009213693951, "a": 1},
           "cover": {"type": "kummer", "m": 2}}
    start = time.perf_counter()
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert report["error"]["type"] == "SizeCapExceeded"


@pytest.mark.parametrize("big_n", [10 ** 6, 10 ** 9])
def test_bound_with_a_huge_N_is_refused_before_any_power(big_n, capsys, monkeypatch):
    # AS p=3, f = t^-1, sigma -> 2 over F_7: M0 = 3^(7 N), far over the
    # digit limit; no power of 3 is formed before the refusal.
    import sys

    job = {
        "command": "bound",
        "base": {"p": 3, "a": 1},
        "cover": {"type": "artin_schreier", "f": [[-1, [1]]]},
        "rep": {"ell": 7, "n": 1, "r": 1, "images": {"sigma": [[[2]]]}},
        "params": {"N": big_n},
    }
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        start = time.perf_counter()
        code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
        elapsed = time.perf_counter() - start
    finally:
        sys.set_int_max_str_digits(saved)
    assert elapsed < 1.0
    assert code == 1
    assert report["error"] == {
        "type": "OverflowPolicyExceeded",
        "message": "constants.M0 has more than 4300 decimal digits",
    }


def test_bound_with_swan_over_N_is_refused_as_before_at_a_huge_N_prime(capsys, monkeypatch):
    # ell = 65521 makes N' = 65521 N pass the digit limit at N = 1, but
    # Sw = 2 > N is reported first, as without the early digit check.
    job = {
        "command": "bound",
        "base": {"p": 3, "a": 1},
        "cover": {"type": "artin_schreier", "f": [[-2, [1]]]},
        "rep": {"ell": 65521, "n": 1, "r": 1, "images": {"sigma": [[[pow(17, 65520 // 3, 65521)]]]}},
        "params": {"N": 1},
    }
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "PreconditionFailed"
    assert "exceeds N = 1" in report["error"]["message"]


def test_enum_with_a_huge_prime_ell_is_refused_by_the_size_cap_first(capsys, monkeypatch):
    # 2^61 - 1 is prime; trial division to its square root would not end.
    job = {"command": "enum",
           "params": {"op": "max_ell_element_order", "r": 1, "ell": 2305843009213693951, "n": 1}}
    start = time.perf_counter()
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert report["error"]["type"] == "SizeCapExceeded"
    job["params"]["ell"] = 4  # a small composite ell is refused by its path
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"] == {"type": "NotPrime", "message": "'params.ell' = 4 is not prime"}


class _UnreadableStdin(io.TextIOBase):
    """A stdin that fails the test when anything reads it."""

    def read(self, *args):
        raise AssertionError("stdin was read")

    readline = read


@pytest.mark.parametrize(
    "argv,named",
    [
        ([], "'run [FLAGS]'"),
        (["--bogus"], "'run [FLAGS]'"),
        (["run", "--precision", "x"], "'--precision'"),
        (["run", "--precision", "1_0"], "'--precision'"),
        (["run", "--seed", "٣"], "'--seed'"),
        (["run", "--input"], "'--input'"),
        (["run", "--prec", "5"], "'--prec'"),
        (["verify"], "'verify SUITE [FLAGS]'"),
        (["verify", "--seed", "3"], "'verify SUITE [FLAGS]'"),
        (["verify", "all", "extra"], "'extra'"),
        (["verify", "all", "--input", "job.json"], "'--input'"),
        (["run", "--jordan-table", "no-such-table.json", "--seed", "1.5"], "'--seed'"),
    ],
)
def test_a_command_line_error_is_a_json_error_before_any_input_is_read(argv, named, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", _UnreadableStdin())
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out.count("\n") == 1
    error = json.loads(captured.out)["error"]
    assert error["type"] == "InputSchemaError"
    assert named in error["message"]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "all", "-h"], ["run", "--bogus", "--help"]])
def test_help_prints_the_usage_and_exits_zero(argv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", _UnreadableStdin())
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: ramify run")
    assert captured.err == ""


@pytest.mark.parametrize(
    "raw,value",
    [("7", 7), ("-3", -3), ("0", 0), ("1_0", None), (" 7", None), ("+7", None), ("7.0", None),
     ("1e3", None), ("", None), ("-", None), ("٣", None),
     pytest.param("1" * 5000, None, id="more-digits-than-the-interpreter-converts")],
)
def test_seed_flag_is_read_as_params_seed_is(raw, value, capsys, monkeypatch):
    job = {"command": "verify", "params": {"suite": "counts"}}
    code, report = run_cli(capsys, ["run", "--seed", raw], stdin=json.dumps(job), monkeypatch=monkeypatch)
    if value is None:
        assert code == 1
        assert report["error"] == {"type": "InputSchemaError", "message": "'--seed' must be an integer"}
    else:
        job["params"]["seed"] = value
        assert code == 0
        expected = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)[1]
        assert report["results"] == expected["results"]


def test_the_last_of_a_repeated_flag_wins(capsys, monkeypatch):
    job = {"command": "verify", "params": {"suite": "counts"}}
    argv = ["run", "--seed", "x", "--seed", "1", "--seed", "17"]
    _, twice = run_cli(capsys, argv, stdin=json.dumps(job), monkeypatch=monkeypatch)
    _, once = run_cli(capsys, ["run", "--seed", "17"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert twice == once


@pytest.mark.parametrize(
    "table,message",
    [
        ({"1_0": 1}, "jordan table key '1_0' is not an integer"),
        ({" 1": 1}, "jordan table key ' 1' is not an integer"),
        ({"٣": 1}, "jordan table key '٣' is not an integer"),
        ({"1": 1.5}, "jordan table has the number 1.5"),
        ({"1": 0}, "'jordan_table.1' must be an integer >= 1"),
        ([1], "'jordan_table' must be a JSON object"),
    ],
)
def test_jordan_table_is_read_strictly(table, message, tmp_path, capsys):
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(table))
    code = cli.main(["verify", "claim2", "--jordan-table", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["error"]["type"] == "InputSchemaError"
    assert message in report["error"]["message"]


def test_run_without_options_reads_the_job_alone():
    job = {"command": "filtration", "base": {"p": 2, "a": 2}, "cover": {"type": "kummer", "m": 3}}
    report, code = cli.run(job)
    assert code == 0
    assert report["results"]["degree"] == 3


def test_transitivity_builds_only_the_towers(monkeypatch):
    builds = []
    build = corpus.build_cover

    def counting(base, cfg):
        builds.append(cfg["type"])
        return build(base, cfg)

    monkeypatch.setattr(corpus, "build_cover", counting)
    # A cache of its own, empty, so that every cover the suite reads is built here.
    monkeypatch.setattr(corpus, "get_cover", functools.lru_cache(maxsize=None)(corpus.get_cover.__wrapped__))
    report, code = cli.run({"command": "verify", "params": {"suite": "transitivity"}})
    assert code == 0
    assert builds == ["tower", "tower"]  # the parent built all 10 corpus covers
    assert hashlib.sha256((canonical_dumps(report) + "\n").encode("ascii")).hexdigest() == (
        "a73d564b7bc6f9bcc6218f000785ccf5869971b4e9ccbb26e717a369ebf228f2"
    )


def test_verify_all_forms_each_inertia_structure_once(monkeypatch):
    calls = []
    form = bounds.inertia_structure

    def counting(*args):
        calls.append(args)
        return form(*args)

    monkeypatch.setattr(bounds, "inertia_structure", counting)
    verify._inertia_structure.cache_clear()
    report, code = cli.run({"command": "verify", "params": {"suite": "all"}})
    assert code == 0
    # claim1 and claim2 read the same 17 structures; the parent formed 34.
    assert len(calls) == len(corpus.rep_ids()) == 17


def _count_break_data(monkeypatch):
    counts = {"lower_break_table": 0, "filtration_from_breaks": 0}
    for module in (verify, ramification):
        for name in counts:
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
    verify._filtrations.cache_clear()
    return counts


def test_verify_all_forms_each_cover_filtration_once(monkeypatch):
    counts = _count_break_data(monkeypatch)
    report, code = cli.run({"command": "verify", "params": {"suite": "all"}})
    assert code == 0
    # hasse_arf forms the 10 corpus covers' filtrations, with both of each
    # tower's (10 break tables, 12 filtrations), and lemma_pullback, claim2
    # and transitivity read them.  A tower's tame layer is its corpus Kummer
    # cover, so transitivity reads that one's too (the parent formed 12, 14).
    assert len(corpus.cover_ids()) == 10
    assert counts == {"lower_break_table": 10, "filtration_from_breaks": 12}
    assert hashlib.sha256((canonical_dumps(report) + "\n").encode("ascii")).hexdigest() == (
        "6b2a0314b0c18d4eed56dd5578ba6baa1cf97ecced8bdb17972395629c0e7b1c"
    )


def _fresh_work_counts(monkeypatch) -> dict:
    """Empty caches for the corpus and the suites, restored afterwards, and
    counters of cover builds, MatrixFF products and series products."""
    for module, name in ((corpus, "get_cover"), (corpus, "get_representation"),
                         (verify, "_filtrations"), (verify, "_inertia_structure")):
        monkeypatch.setattr(module, name, functools.lru_cache(maxsize=None)(getattr(module, name).__wrapped__))
    counts = {"build_cover": 0, "matmul": 0, "series_mul": 0}
    for owner, name, key in ((corpus, "build_cover", "build_cover"), (MatrixFF, "__mul__", "matmul"),
                             (series, "_mul_keys", "series_mul")):
        def counting(*args, _real=getattr(owner, name), _key=key, **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


def test_claim1_builds_no_cover_and_no_series(monkeypatch):
    counts = _fresh_work_counts(monkeypatch)
    assert verify.run_suite("claim1")["ok"]
    # The parent built all 10 corpus covers: 741 series products.
    assert counts["build_cover"] == counts["series_mul"] == 0


def test_verify_all_makes_a_pinned_number_of_products(monkeypatch):
    counts = _fresh_work_counts(monkeypatch)
    report, code = cli.run({"command": "verify", "params": {"suite": "all"}})
    assert code == 0
    # Building the covers at precision 24 and walking every matrix of
    # claim1's groups took 1,319 matrix and 741 series products; 43 of 428
    # series products were LaurentSeries.scale's, which now makes none.  The
    # lift from the relation polynomial took 385 series products; the direct
    # lift makes more, smaller ones, and verify all takes less time.  The
    # lift of t took 443, the lift of the unit u 436, and the wild layer
    # built once over K, in sigma = s^m, 400.  With every action unit from
    # one shared Paterson-Stockmeyer pass, not a power each, it took 390.
    # With the wild generator's unit checked against one power (1 + z)^b
    # and y z = 1, not the generator composed with t and y, it took 326;
    # the check of y against t, t^a y^(bm) = sigma, makes it 342.
    assert counts == {"build_cover": 10, "matmul": 625, "series_mul": 342}


def test_lemma_pullback_forms_each_towers_break_data_once(monkeypatch):
    counts = _count_break_data(monkeypatch)
    sizes = _count_group_tables(monkeypatch)
    report, code = cli.run({"command": "verify", "params": {"suite": "lemma_pullback"}})
    assert code == 0
    # 8 representations on 2 towers: one break table and one pair of
    # filtrations per tower, both on G's indices, so no subgroup table of H
    # (an earlier version formed one per tower: 2) and no quotient table.
    assert len(report["results"]["instances"]) == 8
    assert counts == {"lower_break_table": 2, "filtration_from_breaks": 4}
    assert sizes["quotients"] == []


# A kummer job of degree 1 or 0, a tower with no tame layer, and an F_2 tower
# that lacks the cube roots of unity and whose pole 3 * 4095 is over the cap:
# the missing roots are reported, not the cap.
@pytest.mark.parametrize(
    "job,code,digest",
    [
        (
            {"command": "filtration", "base": {"p": 2, "a": 2}, "cover": {"type": "kummer", "m": 1}},
            1,
            "22b7a913003dc1b0b30b11da2bbe27b38afb61002fe308bbe2b40a09d2cf268d",
        ),
        (
            {"command": "filtration", "base": {"p": 2, "a": 2}, "cover": {"type": "kummer", "m": 0}},
            1,
            "22b7a913003dc1b0b30b11da2bbe27b38afb61002fe308bbe2b40a09d2cf268d",
        ),
        (
            {"command": "herbrand", "base": {"p": 2, "a": 1}, "cover": {"type": "tower", "m": 1, "f": [[-1, [1]]]}},
            0,
            "ff009be96ce9f449f35a589118f9c3a9264a14790c0a21c27adf2f8fc385c7c1",
        ),
        (
            {"command": "filtration", "base": {"p": 2, "a": 1}, "cover": {"type": "tower", "m": 3, "f": [[-4095, [1]]]}},
            1,
            "ad6eccf4978a3307dc9c8c1f242fa63182e84053b08f50e0f749800649593312",
        ),
    ],
    ids=["kummer-m1", "kummer-m0", "tower-m1", "tower-missing-roots-over-cap"],
)
def test_tame_layer_edge_jobs_keep_their_bytes(job, code, digest, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(job)))
    assert cli.main(["run"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest


def test_verify_all_runs_the_suites_in_their_listed_order(capsys):
    assert verify.SUITE_NAMES == (*verify._SUITES, "all")
    code = cli.main(["verify", "all"])
    suites = [inst["suite"] for inst in json.loads(capsys.readouterr().out)["results"]["instances"]]
    assert code == 0
    assert list(dict.fromkeys(suites)) == list(verify._SUITES)
