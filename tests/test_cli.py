import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ramify import bounds, cli, corpus, ramification, reporting, verify
from ramify.bounds import ExplicitConstants
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


def _count_subgroup_tables(monkeypatch) -> list:
    """Sizes of the subgroup tables built from now on."""
    from ramify.groups import FiniteGroup

    sizes = []
    subgroup = FiniteGroup.subgroup

    def counted(group, subset):
        sizes.append(len(frozenset(subset)))
        return subgroup(group, subset)

    monkeypatch.setattr(FiniteGroup, "subgroup", counted)
    return sizes


def test_herbrand_job_builds_no_subgroup_table(capsys, monkeypatch):
    """Hasse-Arf is stated for abelian G_0 only: S3 reports null, Z/4 its
    integrality, and either way G_0 is tested on the job's own table."""
    sizes = _count_subgroup_tables(monkeypatch)
    s3 = _dihedral_table(3, "herbrand")
    s3["break_table"]["iG"] = {x: 2 if i < 3 else 1 for i, x in enumerate(s3["break_table"]["labels"]) if i}
    for job, hasse_arf in ((s3, None), (_cyclic_table(4, 2, "herbrand"), True)):
        code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
        assert code == 0 and report["results"]["hasse_arf"] is hasse_arf
    assert sizes == []


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
    table."""
    cli.run({"command": "verify", "params": {"suite": "hasse_arf"}})  # forms the filtrations
    sizes = _count_subgroup_tables(monkeypatch)
    report, code = cli.run({"command": "verify", "params": {"suite": "hasse_arf"}})
    assert code == 0 and len(report["results"]["instances"]) == 10
    job = _semidirect_bound_job(7, 3, 2, 29, 16)  # 16 has order 7 mod 29
    report, code = cli.run(job, {"jordan_table": {3: 3}})
    assert code == 0 and report["results"]["inertia"]["order"] == 21
    assert report["results"]["inertia"]["P_order"] == 7
    assert sizes == []


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


@pytest.mark.parametrize("raw", ["lots", "", "2.5", "0", "-8", "1_0", " 64", "\u0666\u0664"])
def test_malformed_precision_cap_is_a_json_error(raw, capsys, monkeypatch):
    monkeypatch.setenv("RAMIFY_PRECISION_CAP", raw)
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(SWAN_JOB), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "InputSchemaError"
    assert "RAMIFY_PRECISION_CAP" in report["error"]["message"]


@pytest.mark.parametrize("raw", ["0", "-5"])
def test_precision_flag_below_one_is_a_json_error(raw, capsys, monkeypatch):
    # The same least value as params.precision.
    argv = ["run", "--precision", raw]
    code, report = run_cli(capsys, argv, stdin=json.dumps(SWAN_JOB), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "InputSchemaError"
    assert "--precision" in report["error"]["message"]


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
    ],
)
def test_work_over_a_job_bound_is_refused_up_front(job, field, capsys, monkeypatch):
    start = time.perf_counter()
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert report["error"]["type"] == "SizeCapExceeded"
    assert field in report["error"]["message"]


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
    ],
)
def test_work_at_a_job_bound_is_admitted(job, capsys, monkeypatch):
    start = time.perf_counter()
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 2.0
    assert code == 0, report


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

    def counting(obj):
        calls.append(obj)
        return convert(obj)

    # to_jsonable recurses through the module name, so every value is counted.
    monkeypatch.setattr(reporting, "to_jsonable", counting)
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(SWAN_JOB), monkeypatch=monkeypatch)
    assert code == 0
    # Each Fraction of this report is integral, so one call writes one value:
    # one walk of the report, one of the job for its digest.
    assert len(calls) == _values(report) + _values(SWAN_JOB)


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
        (["verify", "claim1"], ""),
        (["run", "--precision", "0"], ""),
    ],
    ids=["swan", "input-error", "suite", "usage-error"],
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
    job["params"]["ell"] = 4  # a small composite ell is still no group
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"] == {"type": "NotAGroup", "message": "4 is not prime"}


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


@pytest.mark.parametrize("raw,ok", [("32", True), ("1", True), ("0", False), ("-5", False), ("032", True),
                                    ("3_2", False), ("32 ", False), ("true", False)])
def test_precision_flag_is_read_as_params_precision_is(raw, ok, capsys, monkeypatch):
    code, report = run_cli(capsys, ["run", "--precision", raw], stdin=json.dumps(SWAN_JOB), monkeypatch=monkeypatch)
    if ok:
        assert code == 0
        job = dict(SWAN_JOB, params={"precision": int(raw)})
        assert report["results"] == run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)[1]["results"]
    else:
        assert code == 1
        assert report["error"] == {"type": "InputSchemaError", "message": "'--precision' must be an integer >= 1"}


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

    def counting(base, cfg, prec=None):
        builds.append(cfg["type"])
        return build(base, cfg, prec)

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
    # and transitivity read them; transitivity adds the 2 tame layers'.
    assert len(corpus.cover_ids()) == 10
    assert counts == {"lower_break_table": 12, "filtration_from_breaks": 14}
    assert hashlib.sha256((canonical_dumps(report) + "\n").encode("ascii")).hexdigest() == (
        "6b2a0314b0c18d4eed56dd5578ba6baa1cf97ecced8bdb17972395629c0e7b1c"
    )


def test_lemma_pullback_forms_each_towers_break_data_once(monkeypatch):
    counts = _count_break_data(monkeypatch)
    report, code = cli.run({"command": "verify", "params": {"suite": "lemma_pullback"}})
    assert code == 0
    # 8 representations on 2 towers: one break table and one pair of
    # filtrations per tower.
    assert len(report["results"]["instances"]) == 8
    assert counts == {"lower_break_table": 2, "filtration_from_breaks": 4}


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
