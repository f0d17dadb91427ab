"""Self-tests of the benchmark: generator, checker, tracer and tail rule.

    python3 -m pytest perfbench -q -p no:cacheprovider

Run from the checkout root; the tracer test starts a few short ramify jobs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import check
import jobs
import stats
from layers import Totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONDONTWRITEBYTECODE": "1",
}


def _signature(round_jobs):
    return [(j.id, j.argv, j.stdin, j.expect) for j in round_jobs]


def _job(workload: str, id_part: str, seed: int = 0) -> jobs.Job:
    return next(j for j in jobs.make_round(workload, seed, 0) if id_part in j.id)


def _run(job: jobs.Job, tmp_path: Path, traced: bool = False):
    if traced:
        spans = tmp_path / "spans.json"
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), job.id, "--"]
    else:
        argv = [sys.executable, "-m", "ramify"]
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    (ROOT / jobs.JORDAN_TABLE_PATH).write_text(json.dumps(jobs.JORDAN_TABLE))
    proc = subprocess.run(
        argv + list(job.argv), input=job.stdin.encode(), capture_output=True,
        cwd=ROOT, env=ENV, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_generator_is_deterministic_per_seed():
    for workload in jobs.WORKLOADS:
        for seed in (0, 1, 12345):
            for round_index in (0, 3):
                first = jobs.make_round(workload, seed, round_index)
                again = jobs.make_round(workload, seed, round_index)
                assert _signature(first) == _signature(again)
    for workload in ("series-covers", "group-oracles"):
        assert _signature(jobs.make_round(workload, 0, 0)) != _signature(
            jobs.make_round(workload, 1, 0)
        )


def test_rounds_have_fixed_slots_for_every_seed():
    for workload in jobs.WORKLOADS:
        ids = [j.id for j in jobs.make_round(workload, 0, 0)]
        for seed in (1, 2, 99):
            assert [j.id for j in jobs.make_round(workload, seed, 0)] == ids


def test_tail_rule_keeps_ten_samples_beyond():
    rng = random.Random(0)
    for n in range(11, 400, 7):
        values = [rng.random() for _ in range(n)]
        value, percentile, beyond = stats.tail(values)
        above = sum(1 for x in values if x > value)
        assert beyond == stats.TAIL_BEYOND == above
        # The next order statistic would leave only nine beyond it.
        assert sorted(values).index(value) == n - 11
        assert abs(percentile - 100 * (n - 10) / n) < 1e-9
    value, percentile, beyond = stats.tail([3.0, 1.0, 2.0])
    assert (value, percentile) == (2.0, 50.0) and beyond < stats.TAIL_BEYOND


def test_checker_accepts_report_and_rejects_doctored_one(tmp_path):
    job = _job("group-oracles", "semidirect_3_2.swan")
    code, out, err = _run(job, tmp_path)
    assert check.check(job, code, out, err, {}).ok
    reference = {job.ref_key: check.digest(out)}
    assert check.check(job, code, out, err, reference).ok

    report = json.loads(out)
    report["results"]["swan"]["num"] += 1
    doctored = (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()
    assert check.check(job, code, doctored, err, {}).wrong  # closed form
    assert check.check(job, code, doctored, err, reference).wrong  # digest


def test_checker_counts_traceback_and_errors_as_failures():
    job = _job("series-covers", "as_p2_m1_prec64.0")
    stderr = (
        b"Traceback (most recent call last):\n  ...\nValueError: Exceeds the limit "
        b"(4300 digits) for integer string conversion\n"
    )
    outcome = check.check(job, 1, b"", stderr, {})
    assert outcome.failure == "traceback" and not outcome.ok
    error = b'{"error":{"message":"x","type":"InputSchemaError"}}\n'
    assert check.check(job, 1, error, b"", {}).failure == "json_error"
    assert check.check(job, None, b"", b"", {}).failure == "timeout"
    assert check.check(job, 0, b"not json\n", b"", {}).failure == "no_json"


def test_known_defect_is_predicted_for_the_reproducer():
    payload = {
        "command": "bound",
        "base": {"p": 2, "a": 1},
        "cover": {"type": "artin_schreier", "f": [[-1, [1]]]},
        "rep": {"ell": 11, "n": 1, "r": 1, "images": {"sigma": [[[10]]]}},
        "params": {"N": 1},
    }
    job = jobs.Job("repro", ("run",), json.dumps(payload))
    assert check.predicts_digit_limit_defect(job)  # M0 = 2^11, M0! has 5895 digits


def test_tracing_leaves_report_bytes_unchanged(tmp_path):
    for workload, id_part in (
        ("group-oracles", "semidirect_5_4.swan"),
        ("series-covers", "tower_z6.0"),
        ("verify-corpus", "verify_counts"),
    ):
        job = _job(workload, id_part)
        plain = _run(job, tmp_path)
        traced = _run(job, tmp_path, traced=True)
        assert traced[:2] == plain[:2], job.id
        trace = json.loads((tmp_path / "spans.json").read_text())
        names = {span[0] for span in trace["spans"]}
        assert {"cli.import", "cli.run", "reporting.report"} <= names
        Totals().add_job(trace, wall_ns=10**12)  # self times add up exactly
