"""What a job loads: ``import ramify.cli`` brings in every ramify module the
benchmark's tracer wraps, and none of the standard modules that only a few
jobs use (OpenSSL's ``_hashlib``, ``fractions`` with ``decimal`` and
``numbers``, ``tempfile``).  No job loads ``typing`` or the file helpers
of ``importlib.resources``: the records are ``collections.namedtuple``
classes, and the corpus is read through the package's own loader, which
works from a zip too."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
LAZY = ("_hashlib", "hashlib", "fractions", "decimal", "numbers", "importlib.resources", "tempfile")
# Loaded by no job at all, the verify suites and the corpus included.
NEVER = ("typing", "importlib.resources", "pathlib", "zipfile", "tempfile")


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


def _imported_by(*args: str, stdin: str = "") -> tuple[set[str], dict]:
    """The modules a ``python -m ramify`` process imports, read from
    ``-X importtime``, which names each module on stderr as it loads, and
    its report."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "ramify", *args],
        input=stdin, env=ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout
    lines = proc.stderr.splitlines()
    return {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}, json.loads(proc.stdout)


def _imported_by_job(job: dict) -> set[str]:
    imported, report = _imported_by("run", stdin=json.dumps(job))
    assert report["command"] == job["command"]
    return imported


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
        ({"command": "filtration", "base": {"p": 2, "a": 2}, "cover": {"type": "kummer", "m": 3}}, False),
        ({"command": "swan", "base": {"p": 2, "a": 1}, "cover": {"type": "artin_schreier", "f": [[-1, [1]]]},
          "rep": {"ell": 3, "n": 1, "r": 1, "images": {"sigma": [[[2]]]}}}, True),
        (("verify", "claim1"), False),
        (("verify", "counts"), False),
        (("verify", "claim2"), True),
    ],
    ids=["enum", "herbrand", "filtration", "swan", "verify-claim1", "verify-counts", "verify-claim2"],
)
def test_a_job_loads_fractions_only_when_it_builds_a_rational(job, loads_fractions):
    """A job given as a tuple is a ``verify`` command line."""
    if isinstance(job, dict):
        imported = _imported_by_job(job)
    else:
        imported, report = _imported_by(*job)
        assert report["command"] == "verify"
    assert "ramify.cli" in imported
    assert ("fractions" in imported) == loads_fractions
    assert "_hashlib" not in imported


def test_cli_import_and_a_verify_job_load_neither_typing_nor_file_helpers():
    assert sorted(set(NEVER) & _loaded_after_import()) == []
    imported, report = _imported_by("verify", "claim1")
    assert report["command"] == "verify" and "ramify.corpus" in imported
    assert sorted(set(NEVER) & imported) == []


def _imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_no_module_imports_typing_or_importlib_resources():
    found = {
        str(path.relative_to(ROOT)): sorted(name for name in _imports(path) if name.split(".")[0] == "typing"
                                            or name.startswith("importlib.resources"))
        for path in sorted((ROOT / "src" / "ramify").rglob("*.py"))
    }
    assert {path: names for path, names in found.items() if names} == {}


def test_only_ramification_imports_fractions():
    """``ramification._ratio`` builds every rational; the report writer
    knows one by its ``denominator``."""
    found = {
        path.relative_to(ROOT).as_posix() for path in sorted((ROOT / "src" / "ramify").rglob("*.py"))
        if any(name.split(".")[0] == "fractions" for name in _imports(path))
    }
    assert found == {"src/ramify/ramification.py"}


def test_reports_of_ints_strings_lists_and_dicts_need_no_fractions():
    """With ``fractions`` made unimportable, a report without a rational
    is written as in this process."""
    from ramify.reporting import canonical_dumps

    value = {"b": [1, "two", [3, {"c": True}]], "a": None, "n": -(10 ** 30)}
    probe = (
        "import json, sys; sys.modules['fractions'] = None; from ramify.reporting import canonical_dumps; "
        "print(canonical_dumps(json.loads(sys.argv[1])))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe, json.dumps(value)], env=ENV, capture_output=True, text=True, check=True,
    ).stdout
    assert out == canonical_dumps(value) + "\n"


def test_imports_are_read_from_every_form_of_import_statement(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import typing\nfrom typing import NamedTuple\nfrom importlib import resources\nfrom . import x\n")
    assert {"typing", "typing.NamedTuple", "importlib.resources"} <= _imports(source)


def test_the_corpus_is_read_from_a_zipped_package(tmp_path):
    """Zipped, the package has no files on disk: ``corpus._raw`` reads the
    corpus through ``zipimporter.get_data``."""
    from ramify import corpus

    package = ROOT / "src" / "ramify"
    archive = tmp_path / "ramify.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in [*sorted(package.glob("*.py")), package / "data" / "corpus.json"]:
            zf.write(path, str(path.relative_to(package.parent)))
    probe = (
        "import json, sys; import ramify.corpus as c; "
        "print(json.dumps([c.__file__, type(c.__loader__).__name__, c.cover_ids(), c.rep_ids(), "
        "sorted(set(sys.argv[1:]) & set(sys.modules))]))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe, *NEVER], env={**os.environ, "PYTHONPATH": str(archive)},
        capture_output=True, text=True, check=True,
    ).stdout
    where, loader, cover_ids, rep_ids, loaded = json.loads(out)
    assert where.startswith(str(archive)) and loader == "zipimporter"
    assert cover_ids == corpus.cover_ids() and len(cover_ids) > 1
    assert rep_ids == corpus.rep_ids() and rep_ids
    assert loaded == []
