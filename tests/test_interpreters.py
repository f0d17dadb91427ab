"""The ``requires-python >= 3.10`` promise: every other ``python3.X`` on PATH
with X >= 10 that starts gives the pinned ``verify all`` reports, byte for
byte, at seeds 0 and 5.  Interpreters that do not start (a version manager's
shim for a version it does not select, say) are skipped, as is the
interpreter running the tests, which ``tests/test_cli.py`` covers."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
DIGESTS = {
    (): "6b2a0314b0c18d4eed56dd5578ba6baa1cf97ecced8bdb17972395629c0e7b1c",
    ("--seed", "5"): "35d8d11c3d8dea0641fce0041491cc9439bbc8414cc64adfcf311827ac6cfa43",
}
IDENTITY = "import sys; print(sys.prefix, sys.version)"


def _on_path() -> list[str]:
    """The first file on PATH named python3.X, X >= 10, for each X."""
    found = {}
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        try:
            names = os.listdir(directory or ".")
        except OSError:
            continue
        for name in names:
            match = re.fullmatch(r"python3\.(\d+)", name)
            if match and int(match[1]) >= 10:
                found.setdefault(name, os.path.join(directory, name))
    return [found[name] for name in sorted(found, key=lambda n: int(n[8:]))]


@pytest.mark.parametrize("interpreter", _on_path(), ids=os.path.basename)
def test_verify_all_keeps_its_digests_under_each_interpreter(interpreter):
    try:
        probe = subprocess.run([interpreter, "-c", IDENTITY], capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired) as exc:
        pytest.skip(f"{interpreter} does not start: {exc}")
    if probe.returncode != 0:
        pytest.skip(f"{interpreter} does not start")
    if probe.stdout.strip() == f"{sys.prefix} {sys.version}":
        pytest.skip(f"{interpreter} is the interpreter running the tests")
    for flags, digest in DIGESTS.items():
        proc = subprocess.run(
            [interpreter, "-m", "ramify", "verify", "all", *flags], env=ENV, capture_output=True, timeout=600
        )
        assert (proc.returncode, proc.stderr) == (0, b""), (flags, proc.stderr[-2000:])
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, (interpreter, flags)
