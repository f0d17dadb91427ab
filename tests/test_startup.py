"""What a job loads: ``import ramify.cli`` brings in every ramify module the
benchmark's tracer wraps, and none of the standard modules that only a few
jobs use (OpenSSL's ``_hashlib``, ``fractions`` with ``decimal`` and
``numbers``, ``importlib.resources``, ``tempfile``)."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
LAZY = ("_hashlib", "hashlib", "fractions", "decimal", "numbers", "importlib.resources", "tempfile")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _loaded_after_import() -> set[str]:
    # -S keeps site-packages .pth hooks, which may import anything, out.
    probe = "import json, sys, ramify.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=ENV, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out))


def _imported_by_job(job: dict) -> set[str]:
    """The modules a ``python -m ramify run`` process imports, read from
    ``-X importtime``, which names each module on stderr as it loads."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "ramify", "run"],
        input=json.dumps(job), env=ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["command"] == job["command"]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


def test_cli_import_loads_no_module_that_few_jobs_use():
    assert sorted(set(LAZY) & _loaded_after_import()) == []


def test_cli_import_loads_every_module_the_tracer_wraps():
    """The tracer wraps what ``sys.modules`` holds right after ``import
    ramify.cli``, so no traced module may be left to load later."""
    tracer = _tracer()
    wanted = {f"ramify.{mod}" for mod, _, _ in tracer.TARGETS + tracer.LEAVES}
    assert wanted - _loaded_after_import() == set()


@pytest.mark.parametrize(
    "job,loads_fractions",
    [
        ({"command": "enum", "params": {"op": "max_ell_element_order", "r": 1, "ell": 2, "n": 1}}, False),
        ({"command": "herbrand", "base": {"p": 2, "a": 2}, "cover": {"type": "kummer", "m": 3}}, True),
    ],
    ids=["enum", "herbrand"],
)
def test_a_job_loads_fractions_only_when_it_builds_a_rational(job, loads_fractions):
    imported = _imported_by_job(job)
    assert "ramify.cli" in imported
    assert ("fractions" in imported) == loads_fractions
    assert "_hashlib" not in imported
