"""Every name the benchmark's tracer wraps still exists in the package, and
the representation build it wraps is the one every job goes through."""

import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import ramify
import ramify.cli  # noqa: F401  (the tracer resolves its names after this import)
from ramify import cli
from ramify.ramification import Representation

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SWAN_JOB = {
    "command": "swan",
    "base": {"p": 2, "a": 1},
    "cover": {"type": "artin_schreier", "f": [[-1, [1]]]},
    "rep": {"ell": 3, "n": 1, "r": 1, "images": {"sigma": [[[2]]]}},
}


def test_tracer_resolves_every_target_and_leaf():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, path, _ in tracer.TARGETS + tracer.LEAVES:
        _, _, raw = tracer._resolve(getattr(ramify, mod_name), path)
        assert callable(raw) or isinstance(raw, classmethod), (mod_name, path)


def test_a_traced_swan_job_records_a_timed_representation_build(tmp_path):
    spans_out = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans_out), "swan-job", "--", "run"],
        input=json.dumps(SWAN_JOB).encode(), capture_output=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    builds = [end - start for name, start, end, *_ in json.loads(spans_out.read_text())["spans"]
              if name == "ramification.rep_build"]
    assert len(builds) == 1 and builds[0] > 0


def test_swan_and_bound_jobs_build_their_representation_through_the_constructor(monkeypatch, capsys):
    calls = []
    init = Representation.__init__

    def counted(self, *args):
        calls.append(1)
        init(self, *args)

    monkeypatch.setattr(Representation, "__init__", counted)
    for job in (SWAN_JOB, dict(SWAN_JOB, command="bound", params={"N": 1})):
        calls.clear()
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(job)))
        assert cli.main(["run"]) == 0, capsys.readouterr().out
        assert len(calls) == 1, job["command"]
