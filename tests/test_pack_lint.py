"""Static check: ``fields.py`` is the one module that lays keys into integers.

Both packed layouts of a key product (``FiniteField.pack`` and
``FiniteField.pack_window``, with their inverses) live in ``fields``.  This
walks the AST of every other module under src/ramify and rejects the byte
tools a second codec would need: the ``from_bytes`` and ``to_bytes``
methods (of ``int`` or of any value), and any use of the ``memoryview`` or
``bytearray`` builtins.
"""

import ast
from pathlib import Path

import pytest

import ramify

SOURCE = Path(ramify.__file__).parent
CODEC = "fields.py"
BYTE_METHODS = {"from_bytes", "to_bytes"}
BYTE_BUILTINS = {"memoryview", "bytearray"}


def packing_violations(source: str, filename: str = "<source>") -> list[str]:
    """One message per byte-level method or builtin in the source."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Attribute) and node.attr in BYTE_METHODS:
            found.append(f"{filename}:{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in BYTE_BUILTINS:
            found.append(f"{filename}:{node.lineno}: {node.id}")
    return found


def test_only_fields_packs_keys_into_integers():
    files = sorted(path for path in SOURCE.rglob("*.py") if path.name != CODEC)
    assert len(files) > 5
    found = [v for path in files for v in packing_violations(path.read_text(), path.name)]
    assert found == []


def test_the_codec_module_is_where_the_layouts_live():
    assert packing_violations((SOURCE / CODEC).read_text(), CODEC)


@pytest.mark.parametrize(
    "snippet",
    [
        "x = int.from_bytes(buf, 'little')\n",
        "data = value.to_bytes(8, 'little')\n",
        "slots = memoryview(data).cast('Q')\n",
        "buf = bytearray(16)\n",
        "cast = memoryview\n",
        # The window codec series.py kept before it moved into fields.
        "def _unpack(value, count, size):\n"
        "    data = value.to_bytes(count * size, 'little')\n"
        "    code = _CAST_CODES.get(size)\n"
        "    if code is None:\n"
        "        return [int.from_bytes(data[i : i + size], 'little') for i in range(0, len(data), size)]\n"
        "    return memoryview(data).cast(code)\n",
    ],
)
def test_lint_rejects_byte_packing(snippet):
    assert packing_violations(snippet)


@pytest.mark.parametrize(
    "snippet",
    [
        "x = field.pack_window(keys, bits) * y\n",
        "keys = field.unpack_window(value, full, count, bits)\n",
        "digest = hashlib.sha256(text.encode()).hexdigest()\n",
        "n = (bound.bit_length() + 7) // 8\n",
    ],
)
def test_lint_accepts_codec_calls(snippet):
    assert packing_violations(snippet) == []
