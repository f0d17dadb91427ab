import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ramify import cli, verify
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


def test_herbrand_job_tame(capsys, monkeypatch):
    job = {"command": "herbrand", "base": {"p": 2, "a": 2}, "cover": {"type": "kummer", "m": 3}}
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0
    phi = report["results"]["phi"]
    assert phi["breakpoints"] == [[0, 0], [1, {"num": 1, "den": 3}]]
    assert phi["final_slope"] == {"num": 1, "den": 3}
    assert report["results"]["hasse_arf"] is True


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
    ],
)
def test_malformed_job_names_the_bad_field(job, field, capsys, monkeypatch):
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "InputSchemaError"
    assert field in report["error"]["message"]


@pytest.mark.parametrize("raw", ["lots", "", "2.5", "0", "-8"])
def test_malformed_precision_cap_is_a_json_error(raw, capsys, monkeypatch):
    monkeypatch.setenv("RAMIFY_PRECISION_CAP", raw)
    code, report = run_cli(capsys, ["run"], stdin=json.dumps(SWAN_JOB), monkeypatch=monkeypatch)
    assert code == 1
    assert report["error"]["type"] == "InputSchemaError"
    assert "RAMIFY_PRECISION_CAP" in report["error"]["message"]


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
        ExplicitConstants(3, 24, 6, None),
    ],
)
def test_records_are_not_serialized_as_lists(record):
    with pytest.raises(TypeError, match=f"cannot serialize {type(record).__name__}"):
        canonical_dumps(record)
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_dumps({"results": [record]})


def test_cli_import_loads_no_introspection_modules():
    # -S keeps site-packages .pth hooks, which may import anything, out.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = (
        "import ramify.cli, sys; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
