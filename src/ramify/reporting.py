"""Canonical JSON reports: sorted keys, exact numbers only, stable digests.

Every job loads this module, so neither ``hashlib`` (OpenSSL) nor ``tempfile``
is imported here.  A rational is recognised by its ``denominator``, not by a
type whose module only the jobs that build a rational load."""

from __future__ import annotations

import json
import os

try:  # the built-in module, as random.py takes SHA-512: hashlib is heavy to load
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # its name from Python 3.12 on
    except ImportError:
        from hashlib import sha256

from . import __version__


def rational_pair(x) -> dict:  # x an int or an exact rational
    return {"num": x.numerator, "den": x.denominator}


def to_jsonable(obj, lists=None):
    """Recursively convert to JSON-safe data.

    Rationals become ints when integral and {"num", "den"} pairs otherwise;
    floats are rejected outright so no report can carry one.  Records
    (named tuples, recognised by ``_fields``) are rejected like any other
    object: a report lists the fields it publishes, by name.  A list or
    tuple met again in one walk, such as the label list that the rows of a
    filtration level share, is converted once: ``lists`` maps its id to its
    conversion, and every object it names is held by ``obj`` for the walk.
    """
    lists = {} if lists is None else lists
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        raise TypeError("floating point values are not allowed in reports")
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v, lists) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)) and not hasattr(obj, "_fields"):
        return lists.get(id(obj)) or lists.setdefault(id(obj), [to_jsonable(x, lists) for x in obj])
    if isinstance(obj, frozenset):
        return sorted(to_jsonable(x, lists) for x in obj)
    if hasattr(obj, "denominator"):  # a Fraction; ints and bools are handled above
        return obj.numerator if obj.denominator == 1 else rational_pair(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def job_digest(job: dict) -> str:
    return sha256(canonical_dumps(job).encode("ascii")).hexdigest()


def make_report(command: str, job: dict, results, warnings) -> dict:
    return {
        "command": command,
        "inputs_digest": job_digest(job),
        "results": results,
        "warnings": list(warnings),
        "version": __version__,
    }


def write_atomic(path: str, text: str) -> None:
    import tempfile
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
