"""Static check: ``corpus.py`` is the one reader of input.

Walks the AST of every module under src/ramify but ``corpus.py`` and
rejects an import of ``argparse``, a use of ``json.load`` or ``json.loads``
(as an attribute of the module or of an alias, or imported by name), and a
file opened for reading: an ``open`` or ``fdopen`` call whose mode is
absent, not a string literal, or has ``r`` or ``+`` in it, and any
``read_text`` or ``read_bytes`` call.

The environment has one reader too, ``series.precision_cap``: in every
module, ``corpus.py`` included, a use of ``os.environ`` or ``os.getenv``
(of the module or of an alias, or imported by name) anywhere else is
rejected.
"""

import ast
from pathlib import Path

import pytest

import ramify

SOURCE = Path(ramify.__file__).parent
READER = "corpus.py"
JSON_READERS = {"load", "loads"}
ENV_READER = ("series.py", "precision_cap")
ENV_NAMES = {"environ", "getenv", "environb", "getenvb"}


def _reads(call: ast.Call) -> bool:
    """Whether an ``open``/``fdopen`` call may open its file for reading."""
    mode = call.args[1] if len(call.args) > 1 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return True
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return "r" in mode.value or "+" in mode.value


def input_violations(source: str, filename: str = "<source>") -> list[str]:
    """One message per argparse import, JSON decode or file read."""
    tree = ast.parse(source, filename)
    json_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "json"
    }
    found = []

    def report(node, what):
        found.append(f"{filename}:{node.lineno}: {what}")

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "argparse":
                    report(node, "import argparse")
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "argparse":
                report(node, "from argparse import")
            elif node.module == "json":
                for alias in node.names:
                    if alias.name == "*" or alias.name in JSON_READERS:
                        report(node, f"from json import {alias.name}")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in json_names
            and node.attr in JSON_READERS
        ):
            report(node, f"json.{node.attr}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "fdopen") and _reads(node):
                report(node, f"{name}() for reading")
            elif name in ("read_text", "read_bytes"):
                report(node, f"{name}()")
    return found


def environment_violations(source: str, filename: str = "<source>") -> list[str]:
    """One message per use of the environment outside ``ENV_READER``."""
    tree = ast.parse(source, filename)
    os_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "os"
    }
    found = []

    def visit(node, function):
        if (filename, function) == ENV_READER:
            return
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name == "*" or alias.name in ENV_NAMES:
                    found.append(f"{filename}:{node.lineno}: from os import {alias.name}")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
            and node.attr in ENV_NAMES
        ):
            found.append(f"{filename}:{node.lineno}: os.{node.attr}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_corpus_reads_input():
    files = sorted(path for path in SOURCE.rglob("*.py") if path.name != READER)
    assert files
    found = [v for path in files for v in input_violations(path.read_text(), path.name)]
    assert found == []


def test_corpus_is_the_reader():
    assert input_violations((SOURCE / READER).read_text(), READER)


@pytest.mark.parametrize(
    "snippet",
    [
        "import argparse\n",
        "import argparse as ap\n",
        "from argparse import ArgumentParser\n",
        "import json\nx = json.loads('1')\n",
        "import json as j\nx = j.load(fh)\n",
        "from json import loads\n",
        "from json import *\n",
        "fh = open(path)\n",
        "fh = open(path, 'rb')\n",
        "fh = open(path, mode='r', encoding='utf-8')\n",
        "fh = open(path, 'w+')\n",
        "fh = open(path, mode)\n",
        "import os\nfh = os.fdopen(fd)\n",
        "fh = path.open()\n",
        "text = path.read_text()\n",
        "data = path.read_bytes()\n",
    ],
)
def test_lint_rejects_input_readers(snippet):
    assert input_violations(snippet)


@pytest.mark.parametrize(
    "snippet",
    [
        "import json\ntext = json.dumps({})\n",
        "from json import dumps\n",
        "fh = open(path, 'w', encoding='utf-8')\n",
        "import os\nfh = os.fdopen(fd, 'w', encoding='utf-8')\n",
        "fh = open(path, mode='xb')\n",
        "import sys\nsys.stdout.write('x')\n",
    ],
)
def test_lint_accepts_other_code(snippet):
    assert input_violations(snippet) == []


def test_only_precision_cap_reads_the_environment():
    files = sorted(SOURCE.rglob("*.py"))
    found = [v for path in files for v in environment_violations(path.read_text(), path.name)]
    assert found == []


def test_precision_cap_is_the_environment_reader():
    source = (SOURCE / ENV_READER[0]).read_text()
    assert environment_violations(source, "other.py")


@pytest.mark.parametrize(
    "snippet",
    [
        "import os\nx = os.environ['A']\n",
        "import os\nos.environ['A'] = '1'\n",
        "import os\nx = os.getenv('A')\n",
        "import os as o\nx = o.environ.get('A')\n",
        "import os\nx = os.environb\n",
        "from os import environ\n",
        "from os import getenv as g\n",
        "from os import *\n",
        "import os\ndef precision_cap():\n    return os.environ.get('A')\n",
        "import os\ndef cap():\n    return os.getenv('A')\n",
    ],
)
def test_lint_rejects_environment_readers(snippet):
    assert environment_violations(snippet)


@pytest.mark.parametrize(
    "snippet",
    [
        "import os\npath = os.path.join('a', 'b')\n",
        "environ = {}\nx = environ.get('A')\n",
        "import sys\nx = sys.argv\n",
        "from os import path\n",
    ],
)
def test_lint_accepts_code_without_the_environment(snippet):
    assert environment_violations(snippet) == []


def test_lint_accepts_the_environment_in_precision_cap_only():
    snippet = "import os\ndef precision_cap():\n    return os.environ.get('A')\n"
    assert environment_violations(snippet, "series.py") == []
    assert environment_violations(snippet + "x = os.getenv('B')\n", "series.py")
