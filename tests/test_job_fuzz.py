"""Generated and mutated JSON jobs, run through ``cli.main(["run"])`` in process.

Whatever the job, the CLI must end in exit 0, 1 or 2 with exactly one JSON
object on stdout, and an error object must carry a ``type`` and a
``message``.  The mutating fuzzer keeps integers small, so every job is
cheap and it looks for tracebacks; the huge-integer fuzzer puts values over
every cap at the integer positions of the seed jobs and requires each job to
end, refused or not, within a time bound.  The argv fuzzer draws command
lines from the modes, flags, suite names and junk, with a small job on
stdin, and requires the same of each.  The one-path sweep is exhaustive
where the fuzzers sample: it puts each of a fixed list of values at every
path of every seed job, and deletes the path, one path at a time.
"""

import contextlib
import copy
import io
import json
import re
import sys
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import cli, corpus, verify

REP = {"ell": 3, "n": 1, "r": 1, "images": {"sigma": [[[2]]]}}
AS_COVER = {"type": "artin_schreier", "f": [[-1, [1]]]}
# A break table that a filtration report sorts the labels of.
TABLE_JOB = {
    "command": "filtration",
    "base": {"p": 2, "a": 1},
    "break_table": {"labels": ["1", "a"], "mul_table": [[0, 1], [1, 0]], "iG": {"a": 2}},
}

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
    TABLE_JOB,
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

# At or above 10^6: over the field, precision and group caps, and the enum
# bounds.
HUGE_INTS = (10 ** 6, 10 ** 9, 2 ** 61 - 1, 2 ** 64, 10 ** 30)
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


@st.composite
def huge_int_job_texts(draw):
    job = copy.deepcopy(draw(st.sampled_from(SEED_JOBS), label="seed job"))
    slots = []
    for path in _paths(job):
        parent = job
        for key in path[:-1]:
            parent = parent[key]
        if type(parent[path[-1]]) is int:
            slots.append((parent, path[-1]))
    chosen = draw(st.lists(st.sampled_from(range(len(slots))), min_size=1, max_size=3, unique=True))
    for i in chosen:
        parent, key = slots[i]
        parent[key] = draw(st.sampled_from(HUGE_INTS), label="value")
    return json.dumps(job)


# --output is left out: it would write a file named by a junk token.  The
# help tokens are left out: they print the usage, not a JSON object.
ARGV_TOKENS = ("run", "verify", *verify.SUITE_NAMES, "--input", "--precision", "--seed", "--jordan-table")
argv_junk = st.one_of(
    st.sampled_from(["", "-", "--", "-1", "0", "7", "64", "1_0", "٣", " 5", "--prec", "--bogus", "job.json"]),
    st.text(max_size=3).filter(lambda t: t not in ("-h", "--help")),
)
argv_lists = st.lists(st.one_of(st.sampled_from(ARGV_TOKENS), argv_junk), max_size=6)


def run_job(text: str, argv=("run",)):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def check_outcome(text: str, argv=("run",)) -> dict:
    code, out = run_job(text, argv)
    assert code in (0, 1, 2), (code, argv, text)
    assert out.endswith("\n") and out.count("\n") == 1, (out, argv, text)
    payload = json.loads(out)
    assert isinstance(payload, dict), text
    if code == 1:
        error = payload["error"]
        assert isinstance(error["type"], str) and error["type"], text
        assert isinstance(error["message"], str), text
    else:
        assert payload["command"] in corpus.COMMANDS, text
    return payload


@settings(max_examples=300, deadline=None, derandomize=True)
@given(job_texts())
def test_every_job_ends_in_one_json_object(text):
    check_outcome(text)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(huge_int_job_texts())
def test_huge_integers_end_in_time(text):
    start = time.perf_counter()
    check_outcome(text)
    assert time.perf_counter() - start < 2.0, text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv_lists)
def test_every_command_line_ends_in_one_json_object(argv):
    check_outcome(json.dumps(SEED_JOBS[0]), argv)


SWEEP_VALUES = (
    None, True, False, 0, -1, 1, 2, 3, 10 ** 6, 10 ** 30, 0.5, float("nan"),
    "", "x", "1", [], [0], [[0]], [[0, 0]], {}, {"x": 1}, {"1": 1},
)
DELETE = object()


def _spelled(path) -> str:
    """A key path as error messages spell it: 'rep.images.sigma[0][0]'."""
    out = ""
    for key in path:
        out += f"[{key}]" if type(key) is int else f".{key}" if out else key
    return out


def _one_path_mutants():
    """(path, value, job text) for each seed job, path and sweep value or
    deletion."""
    for seed in SEED_JOBS:
        for path in _paths(seed):
            for value in (*SWEEP_VALUES, DELETE):
                job = copy.deepcopy(seed)
                parent = job
                for key in path[:-1]:
                    parent = parent[key]
                if value is DELETE:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = copy.deepcopy(value)
                yield path, value, json.dumps(job)


def _names_the_mutation(message: str, path) -> bool:
    """Whether ``message`` quotes the mutated path, one of its ancestors,
    or a path inside the value put there ('base.p' when 'base' became {})."""
    spelled = _spelled(path)
    ancestors = {_spelled(path[:k]) for k in range(1, len(path))}
    return any(
        q == spelled or q in ancestors or q.startswith((spelled + ".", spelled + "["))
        for q in re.findall(r"'([^']*)'", message)
    )


def test_every_one_path_mutation_ends_in_one_json_object_naming_its_path():
    """A float is refused when the text is parsed, before any path is known,
    so its refusal names none."""
    jobs = 0
    for path, value, text in _one_path_mutants():
        jobs += 1
        error = check_outcome(text).get("error")
        if error is None or error["type"] != "InputSchemaError" or type(value) is float:
            continue
        assert _names_the_mutation(error["message"], path), (path, value, error)
    assert jobs > 3000
