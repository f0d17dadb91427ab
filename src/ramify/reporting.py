"""Canonical JSON reports: sorted keys, exact numbers only, stable digests."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from fractions import Fraction

from . import __version__


def rational_pair(x) -> dict:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def to_jsonable(obj):
    """Recursively convert to JSON-safe data.

    Fractions become ints when integral and {"num", "den"} pairs otherwise;
    floats are rejected outright so no report can carry one.  Records
    (NamedTuples, recognised by ``_fields``) are rejected like any other
    object: a report lists the fields it publishes, by name.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        raise TypeError("floating point values are not allowed in reports")
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return int(obj)
        return rational_pair(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)) and not hasattr(obj, "_fields"):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, frozenset):
        return sorted(to_jsonable(x) for x in obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def job_digest(job: dict) -> str:
    return hashlib.sha256(canonical_dumps(job).encode("ascii")).hexdigest()


def make_report(command: str, job: dict, results, warnings) -> dict:
    return {
        "command": command,
        "inputs_digest": job_digest(job),
        "results": results,
        "warnings": list(warnings),
        "version": __version__,
    }


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ramify-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
