"""Generated and mutated JSON jobs, run through ``cli.main(["run"])`` in process.

Whatever the job, the CLI must end in exit 0, 1 or 2 with exactly one JSON
object on stdout, and an error object must carry a ``type`` and a
``message``.  Integers stay small so every job is cheap: the fuzzer looks
for tracebacks, not for the size caps.
"""

import contextlib
import copy
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import cli

REP = {"ell": 3, "n": 1, "r": 1, "images": {"sigma": [[[2]]]}}
AS_COVER = {"type": "artin_schreier", "f": [[-1, [1]]]}

SEED_JOBS = [
    {"command": "swan", "base": {"p": 2, "a": 1}, "cover": AS_COVER, "rep": REP},
    {"command": "bound", "base": {"p": 2, "a": 1}, "cover": AS_COVER, "rep": REP, "params": {"N": 1}},
    {"command": "herbrand", "base": {"p": 2, "a": 2}, "cover": {"type": "kummer", "m": 3}},
    {
        "command": "filtration",
        "base": {"p": 2, "a": 2},
        "cover": {"type": "tower", "m": 3, "f": [[-1, [1]], [2, [0, 1]]]},
        "params": {"precision": 32},
    },
    {
        "command": "swan",
        "base": {"p": 2, "a": 1},
        "break_table": {"labels": ["1", "s"], "mul_table": [[0, 1], [1, 0]], "iG": {"s": 2}},
        "rep": {"ell": 3, "n": 1, "r": 1, "images": {"s": [[[2]]]}},
    },
    {"command": "enum", "params": {"op": "abelian_p_bound_probe", "r": 2, "ell": 2, "p": 3, "s": 1}},
    {"command": "enum", "params": {"op": "max_ell_element_order", "r": 1, "ell": 2, "n": 1}},
    {
        "command": "enum",
        "params": {"op": "inertia_candidate_sample", "r": 1, "ell": 3, "n": 1, "p": 2, "count": 1},
    },
    {"command": "verify", "params": {"suite": "counts", "seed": 3}},
]

small_ints = st.integers(-2, 4)
junk = st.one_of(
    st.none(),
    st.booleans(),
    small_ints,
    st.sampled_from([0.5, -1.0, float("nan")]),
    st.text(max_size=3),
    st.lists(small_ints, max_size=3),
    st.lists(st.lists(small_ints, max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), small_ints, max_size=2),
)


def _paths(node, prefix=()):
    """The key path of every node below the root of the job tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(job, draw):
    for _ in range(draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(job))
        if not paths:
            return draw(junk, label="whole job")
        path = draw(st.sampled_from(paths), label="path")
        parent = job
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "delete", "insert"]), label="action")
        if action == "replace":
            parent[key] = draw(junk, label="value")
        elif isinstance(parent, dict):
            if action == "delete":
                del parent[key]
            else:
                parent[draw(st.text(max_size=6), label="new key")] = draw(junk)
        elif action == "delete":
            del parent[key]
        else:
            parent.insert(key, draw(junk, label="new item"))
    return job


@st.composite
def job_texts(draw):
    job = copy.deepcopy(draw(st.sampled_from(SEED_JOBS), label="seed job"))
    kind = draw(st.sampled_from(["mutated", "mutated", "mutated", "truncated", "junk"]))
    if kind == "junk":
        return json.dumps(draw(junk))
    if kind == "truncated":
        text = json.dumps(job)
        return text[: draw(st.integers(0, len(text) - 1))]
    return json.dumps(_mutate(job, draw))


def run_job(text: str):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["run"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(job_texts())
def test_every_job_ends_in_one_json_object(text):
    code, out = run_job(text)
    assert code in (0, 1, 2), (code, text)
    assert out.endswith("\n") and out.count("\n") == 1, (out, text)
    payload = json.loads(out)
    assert isinstance(payload, dict), text
    if code == 1:
        error = payload["error"]
        assert isinstance(error["type"], str) and error["type"], text
        assert isinstance(error["message"], str), text
    else:
        assert payload["command"] in cli.COMMANDS, text
