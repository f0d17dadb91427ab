"""The report writer: its SHA-256 is hashlib's, from the built-in module or
from the fallback, and its converter keeps exact numbers only."""

import hashlib
import importlib.util
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from ramify import corpus, reporting
from ramify.reporting import canonical_dumps, job_digest, to_jsonable


def _random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randint(-(2 ** rng.randrange(1, 200)), 2 ** rng.randrange(1, 200))
    if kind == 2:
        codes = [rng.choice([rng.randrange(32, 127), rng.randrange(0x80, 0x3000)]) for _ in range(rng.randrange(8))]
        return "".join(map(chr, codes))
    if kind == 3:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 12))
    if kind == 4:
        return rng.choice(["swan", "herbrand", "filtration", "bound", "enum", "verify"])
    if kind == 5:
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 6:
        return tuple(_random_value(rng, depth + 1) for _ in range(rng.randrange(4)))
    keys = [_random_value(rng, 4) if rng.random() < 0.2 else f"k{i}" for i in range(rng.randrange(5))]
    return {key: _random_value(rng, depth + 1) for key in keys}


def _jobs() -> list:
    """Every record of the built-in corpus, the corpus itself, and 500
    seeded random jobs."""
    raw = corpus._raw()
    rng = random.Random(20260)
    random_jobs = [{"command": _random_value(rng, 4), "params": _random_value(rng, 1)} for _ in range(500)]
    return [raw, *raw["covers"], *raw["representations"], *random_jobs]


def _reporting_without(monkeypatch, *hidden: str):
    """A fresh copy of ``ramify.reporting`` loaded while the modules
    ``hidden`` cannot be imported; the shared module is left as it is."""
    for name in hidden:
        monkeypatch.setitem(sys.modules, name, None)  # None in sys.modules: ImportError
    spec = importlib.util.find_spec("ramify.reporting")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_job_digest_is_hashlibs_sha256():
    jobs = _jobs()
    assert len(jobs) > 500
    for job in jobs:
        expected = hashlib.sha256(canonical_dumps(job).encode("ascii")).hexdigest()
        assert job_digest(job) == expected


def test_the_digest_takes_no_openssl_hash():
    assert reporting.sha256 is not hashlib.sha256
    assert reporting.sha256.__module__ in ("_sha256", "_sha2")


def test_the_hashlib_fallback_gives_the_same_digests(monkeypatch):
    fallback = _reporting_without(monkeypatch, "_sha256", "_sha2")
    assert fallback.sha256 is hashlib.sha256
    for job in _jobs():
        assert fallback.job_digest(job) == job_digest(job)


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(6, 3), 2),
        (Fraction(-4, 1), -4),
        (Fraction(0), 0),
        (Fraction(2 ** 80, 1), 2 ** 80),
        (Fraction(1, 3), {"num": 1, "den": 3}),
        (Fraction(-7, 4), {"num": -7, "den": 4}),
        ([Fraction(1, 2), (Fraction(3), frozenset({2, 1}))], [{"num": 1, "den": 2}, [3, [1, 2]]]),
        ({"a": {"b": Fraction(9, 6)}}, {"a": {"b": {"num": 3, "den": 2}}}),
    ],
)
def test_a_fraction_becomes_an_int_or_a_pair(value, expected):
    out = to_jsonable(value)
    assert out == expected
    assert canonical_dumps(value) == canonical_dumps(expected)
    if isinstance(expected, int):
        assert type(out) is int


def test_rational_pair_of_an_int_or_a_fraction():
    assert reporting.rational_pair(Fraction(-3, 6)) == {"num": -1, "den": 2}
    assert reporting.rational_pair(5) == {"num": 5, "den": 1}


def test_a_bool_stays_a_bool():
    assert to_jsonable(True) is True
    assert to_jsonable([False, 1]) == [False, 1]
    assert canonical_dumps({"x": True}) == '{"x":true}'


# Floats and records: tests/test_cli.py.
@pytest.mark.parametrize("value", [Decimal("1.5"), Decimal(2), 1j, complex(2, 0)])
def test_other_numbers_are_refused(value):
    with pytest.raises(TypeError):
        to_jsonable(value)
    with pytest.raises(TypeError):
        to_jsonable({"nested": [value]})

