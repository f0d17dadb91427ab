"""The job format, and the built-in fixtures written in it.

This module owns every input: the command line, the JSON text of a job, a
Jordan table and the fixture file are read here and nowhere else.  Every
field of a job is read here, once, before any arithmetic: one bool-safe
integer reader and one element reader serve all of them, and an error
names the field by its JSON path (or the flag by its name).  The same pass
bounds each job's work (field size, the precision cap, ``GROUP_CAP`` and
the enum bounds) with ``SizeCapExceeded``.  ``GROUP_CAP`` is the deck
group cap of ``covers``; it also bounds a break table's order and the
probe's diagonal group, and a cover's degree is checked against it here
first, so that the error names the field.  The fixtures the test and
verify suites run over (``data/corpus.json``) are specs in the same
format and go through the same readers.
"""

from __future__ import annotations

import json
import os
import sys
from functools import lru_cache

from .covers import (
    GROUP_CAP,
    BreakTable,
    GaloisCover,
    build_artin_schreier,
    build_compositum_tower,
    build_kummer,
    deck_group,
    lower_break_table,
)
from .errors import InputSchemaError, NotGaloisOverBase, NotPrime, SizeCapExceeded
from .fields import DEFAULT_SIZE_CAP, FiniteField, check_size_cap, field_create, is_prime
from .groups import FiniteGroup
from .linalg import MatrixFF
from .ramification import Representation, law_walk
from .series import PRECISION_CAP, LaurentSeries

COMMANDS = ("filtration", "herbrand", "swan", "bound", "verify", "enum")

# The deepest nesting of lists and objects in a JSON input.  The job
# format's deepest path, 'rep.images.<label>[i][j][k]', is 6 deep; the
# bound keeps the parser and the report's recursive writer far from
# Python's recursion limit.
JSON_DEPTH = 32

# Least admissible value of each integer argument of the enum ops, by the
# name of the op's parameter.
_ENUM_INTS = {
    "max_ell_element_order": {"r": 1, "ell": 2, "n": 1},
    "inertia_candidate_sample": {"r": 1, "ell": 2, "n": 1, "p": 2, "count": 0},
    "abelian_p_bound_probe": {"r": 1, "ell": 2, "p": 2, "s": 0},
}

# The flags of the command line; all but --input are flags of 'verify' too.
_FLAGS = ("--input", "--output", "--seed", "--jordan-table")


def read_int(value, path: str, least: int | None = None) -> int:
    """``value`` if it is a JSON integer (``true`` and ``false`` are not) of
    at least ``least``."""
    if type(value) is int and (least is None or value >= least):
        return value
    bound = "" if least is None else f" >= {least}"
    raise InputSchemaError(f"'{path}' must be an integer{bound}")


_KINDS = {dict: "a JSON object", list: "a list", str: "a string"}


def read(value, path: str, kind: type):
    """``value`` if it is a JSON object, list or string, as ``kind`` says."""
    if type(value) is kind:
        return value
    raise InputSchemaError(f"'{path}' must be {_KINDS[kind]}")


def _decimal(text: str):
    """The integer that ``text`` spells in ASCII decimal (an optional '-',
    then digits), else ``text`` itself, which ``read_int`` then refuses."""
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter converts
            pass
    return text


def read_argv(argv) -> dict | None:
    """The command line ``run [FLAGS]`` or ``verify SUITE [FLAGS]`` as
    {"suite": SUITE or None, flag: value or None for each flag}, or None
    when a token is -h or --help.  Flags are ``--flag value`` pairs, the
    last of a repeated flag winning; --seed is read as params.seed is.
    No file is read here."""
    if "-h" in argv or "--help" in argv:
        return None
    mode, *rest = argv or [""]
    suite = None
    if mode == "verify" and rest and not rest[0].startswith("-"):
        suite, *rest = rest
    elif mode != "run":
        raise InputSchemaError("the command line must be 'run [FLAGS]' or 'verify SUITE [FLAGS]'")
    flags = _FLAGS if mode == "run" else _FLAGS[1:]
    for flag in rest[::2]:
        if flag not in flags:
            raise InputSchemaError(f"{flag!r} is not a flag of '{mode}'; its flags are {flags}")
    if len(rest) % 2:
        raise InputSchemaError(f"the flag {rest[-1]!r} needs a value")
    args = {**dict.fromkeys(_FLAGS), **dict(zip(rest[::2], rest[1::2])), "suite": suite}
    if args["--seed"] is not None:
        args["--seed"] = read_int(_decimal(args["--seed"]), "--seed")
    return args


def decode(data: bytes | str, what: str):
    """The JSON value in ``data``.  Bad UTF-8, bad JSON, floats, NaN and
    lists and objects nested more than ``JSON_DEPTH`` deep are an
    ``InputSchemaError`` that names ``what``."""
    def inexact(literal: str):
        raise InputSchemaError(f"{what} has the number {literal}; jobs take exact integers only")

    try:
        text = data.decode("utf-8") if type(data) is bytes else data
        value = json.loads(text, parse_float=inexact, parse_constant=inexact)
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a text
        raise InputSchemaError(f"cannot read {what}: {exc}")
    level = [value]
    for _ in range(JSON_DEPTH):
        level = [v for x in level if type(x) in (list, dict) for v in (x.values() if type(x) is dict else x)]
    if any(type(x) in (list, dict) for x in level):
        raise InputSchemaError(f"cannot read {what}: lists and objects nest more than {JSON_DEPTH} deep")
    return value


def read_file(path: str | None, what: str):
    """The JSON value in the file at ``path``, or on stdin when it is None."""
    try:
        if path is None:
            data = sys.stdin.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except (OSError, ValueError) as exc:
        raise InputSchemaError(f"cannot read {what}: {exc}")
    return decode(data, what)


def jordan_table(path: str | None) -> dict[int, int] | None:
    """The Jordan table in the file at ``path``: a JSON object of rank
    (ASCII decimal) -> bound >= 1."""
    if path is None:
        return None
    table = {}
    for key, value in read(read_file(path, "jordan table"), "jordan_table", dict).items():
        rank = _decimal(key)
        if type(rank) is not int:
            raise InputSchemaError(f"jordan table key {key!r} is not an integer")
        table[rank] = read_int(value, f"jordan_table.{key}", 1)
    return table


def _element(field: FiniteField, x, path: str, degree: str) -> int:
    """The key of an int (its image in the prime field) or of a list of at
    most ``a`` int coordinates; ``degree`` is the path that sets ``a``."""
    if type(x) is int:
        x = [x]
    if type(x) is list and len(x) <= field.a and all(type(c) is int for c in x):
        return sum(c % field.p * field.p ** i for i, c in enumerate(x))
    raise InputSchemaError(
        f"'{path}' must be an integer or a list of at most '{degree}' = {field.a} integers")


def _cap(base: int, cap: int, what: str, exp: int = 1) -> None:
    """Refuse base^exp > cap (a base below 2 passes), bit lengths first; exp
    is clipped at bits(cap), so no huge power or decimal string is formed."""
    try:
        check_size_cap(base, min(exp, cap.bit_length()), cap)
    except SizeCapExceeded:
        raise SizeCapExceeded(f"{what} exceeds {cap}") from None


def read_job(job, options: dict) -> tuple[str, dict, dict]:
    """(command, params, options) of a job: params.precision is bounded but
    not used (covers are built at their break window), and the seed, when
    not set on the command line (None), is taken from the params or 0."""
    command = read(job, "job", dict).get("command")
    if command not in COMMANDS:
        raise InputSchemaError(f"'command' must be one of {COMMANDS}")
    params = read(job.get("params", {}), "params", dict)
    if params.get("precision") is not None:
        if read_int(params["precision"], "params.precision", 1) > PRECISION_CAP:
            raise SizeCapExceeded(f"'params.precision' exceeds the precision cap {PRECISION_CAP}")
    if options.get("seed") is None:
        options = {**options, "seed": read_int(params.get("seed", 0), "params.seed")}
    return command, params, options


def base_field(cfg) -> FiniteField:
    """The residue field of 'base'."""
    cfg = read(cfg, "base", dict)
    return field_create(read_int(cfg.get("p"), "base.p"), read_int(cfg.get("a"), "base.a", 1))


def _datum(base: FiniteField, cover_cfg: dict) -> LaurentSeries:
    """The series 'cover.f', [[exponent, element], ...], each exponent
    given once.  Its window is stored densely, so no exponent may pass the
    precision cap; a build reads only the terms that reach its window."""
    terms, first = {}, {}
    for i, pair in enumerate(read(cover_cfg.get("f"), "cover.f", list)):
        path = f"cover.f[{i}]"
        if len(read(pair, path, list)) != 2:
            raise InputSchemaError(f"'{path}' must be a pair [exponent, element]")
        exp = read_int(pair[0], path + "[0]")
        if abs(exp) > PRECISION_CAP:
            raise SizeCapExceeded(f"'{path}' has exponent {exp}, beyond the precision cap {PRECISION_CAP}")
        if exp in first:
            raise InputSchemaError(f"'{path}[0]' repeats the exponent of 'cover.f[{first[exp]}][0]'")
        first[exp] = i
        terms[exp] = _element(base, pair[1], path + "[1]", "base.a")
    return LaurentSeries.from_terms(base, terms)


def build_cover(base: FiniteField, cfg) -> GaloisCover:
    """The cover 'cover' over ``base``, its wild layer at its break window."""
    cfg = read(cfg, "cover", dict)
    kind = cfg.get("type")
    if kind == "kummer":
        m = read_int(cfg.get("m"), "cover.m")
        _cap(m, GROUP_CAP, "the group order 'cover.m'")
        if m < 2:
            raise NotGaloisOverBase("tame degree must be at least 2")
        return build_kummer(base, m)
    if kind == "artin_schreier":
        _cap(base.p, GROUP_CAP, "the group order 'base.p'")
        return build_artin_schreier(base, _datum(base, cfg))
    if kind == "tower":
        m = read_int(cfg.get("m"), "cover.m", 1)
        _cap(base.p * m, GROUP_CAP, "the group order 'base.p' * 'cover.m'")
        return build_compositum_tower(base, m, _datum(base, cfg))
    raise InputSchemaError("'cover.type' must be 'artin_schreier', 'kummer' or 'tower'")


def break_table(cfg) -> BreakTable:
    """The break table 'break_table': a group table and i(g) for each g != 1."""
    cfg = read(cfg, "break_table", dict)
    labels = read(cfg.get("labels"), "break_table.labels", list)
    rows = read(cfg.get("mul_table"), "break_table.mul_table", list)
    _cap(len(labels), GROUP_CAP, "the group order len('break_table.labels')")
    for i, label in enumerate(labels):
        if read(label, f"break_table.labels[{i}]", str) in labels[:i]:
            raise InputSchemaError(f"'break_table.labels[{i}]' repeats the label {label!r}")
    for i, row in enumerate(rows):
        for j, x in enumerate(read(row, f"break_table.mul_table[{i}]", list)):
            if type(x) is not int:  # the cell's path is formed for its error only
                read_int(x, f"break_table.mul_table[{i}][{j}]")
    group = FiniteGroup(rows, labels)
    if not group.verify_axioms():
        raise InputSchemaError("'break_table.mul_table' is not associative")
    i_g = read(cfg.get("iG", {}), "break_table.iG", dict)
    i_map = {}
    for label, value in i_g.items():
        if label not in group.labels:
            raise InputSchemaError(
                f"'break_table.iG' has the label {label!r}, which is not in 'break_table.labels'")
        path = f"break_table.iG.{label}"
        _cap(read_int(value, path, 1), PRECISION_CAP, f"the precision that '{path}' needs")
        i_map[group.label_index(label)] = value
    if set(i_map) != set(range(group.n)) - {group.identity}:
        raise InputSchemaError("'break_table.iG' must cover every nontrivial element exactly once")
    return BreakTable(group, i_map)


def break_data(job: dict):
    """(cover or None, break table, p) from the job's 'cover' or its 'break_table'."""
    if ("cover" in job) == ("break_table" in job):
        raise InputSchemaError("job needs exactly one of 'cover' and 'break_table'")
    base = base_field(job.get("base"))
    if "cover" in job:
        cover = build_cover(base, job["cover"])
        return cover, lower_break_table(cover), base.p
    return None, break_table(job["break_table"]), base.p


def representation(group: FiniteGroup, cfg, p: int) -> Representation:
    """The representation 'rep' of ``group`` over F_{ell^n}, ell != p,
    given by r x r matrices at generator labels.  Every label and matrix
    shape is checked, and then the law check's work bound (``law_walk``),
    before any entry is read."""
    cfg = read(cfg, "rep", dict)
    ell = read_int(cfg.get("ell"), "rep.ell")
    n = read_int(cfg.get("n", 1), "rep.n", 1)
    r = read_int(cfg.get("r"), "rep.r", 1)
    if ell == p:
        raise InputSchemaError("'rep.ell' must differ from the residue characteristic 'base.p'")
    images = read(cfg.get("images"), "rep.images", dict)
    if not images:
        raise InputSchemaError("'rep.images' must map at least one generator label to a matrix")
    field = field_create(ell, n)
    for label, rows in images.items():
        if label not in group.labels:
            raise InputSchemaError(f"'rep.images' has unknown label {label!r}")
        if not (type(rows) is list and len(rows) == r
                and all(type(row) is list and len(row) == r for row in rows)):
            raise InputSchemaError(f"'rep.images.{label}' must be an r x r matrix, r = 'rep.r' = {r}")
    law_walk(group, map(group.label_index, images), r)
    return Representation(group, {
        label: MatrixFF(field, r, [
            _element(field, x, f"rep.images.{label}[{i}][{j}]", "rep.n")
            for i, row in enumerate(rows) for j, x in enumerate(row)
        ])
        for label, rows in images.items()
    })


def enum_args(params: dict) -> tuple[str, dict]:
    """The op of an enum job and its integer arguments, refused when the
    op's work is over its bound."""
    op = params.get("op")
    if type(op) is not str or op not in _ENUM_INTS:
        raise InputSchemaError(f"'params.op' must name an enum op, one of {tuple(_ENUM_INTS)}")
    args = {key: read_int(params.get(key), f"params.{key}", least)
            for key, least in _ENUM_INTS[op].items()}
    r = args["r"]
    if op == "max_ell_element_order":
        # The |GL_r(F_q)| < q^(r^2) matrices, each raised to the ell-th power
        # at most n r(r-1)/2 times (< q^r); q^(r^2) * q^r bounds the product.
        _cap(args["ell"], 1 << 14, "q^(r^2 + r), q = 'params.ell' ** 'params.n', r = 'params.r',",
             args["n"] * (r * r + r))
    elif op == "inertia_candidate_sample":
        # Up to 200 * count random subgroups, closed from q^(r^2) candidates;
        # the benchmark's largest slot is GL2(F7), 7^4 = 2401 candidates.
        _cap(args["count"], 16, "'params.count'")
        _cap(args["ell"], (1 << 12) // max(args["count"], 1),
             "q^(r^2), q = 'params.ell' ** 'params.n', r = 'params.r', at this 'params.count',",
             args["n"] * r * r)
    else:
        # The field and group caps of the probe, checked before it forms
        # p^s; an order of 1 counts as 2, so that r is bounded for s = 0 too.
        _cap(args["p"], DEFAULT_SIZE_CAP, "'params.p' ** 'params.s'", args["s"])
        _cap(max(args["p"] ** args["s"], 2), GROUP_CAP,
             "the diagonal group ('params.p' ** 'params.s') ** 'params.r'", r)
    for key in ("p", "ell"):
        # A residue or coefficient characteristic, bounded as fields are
        # before trial division.
        if key in args:
            _cap(args[key], DEFAULT_SIZE_CAP, f"'params.{key}'")
            if not is_prime(args[key]):
                raise NotPrime(f"'params.{key}' = {args[key]} is not prime")
    if op == "abelian_p_bound_probe" and args["ell"] == args["p"] and args["s"]:
        # No field of characteristic p holds a primitive p^s-th root of unity.
        raise InputSchemaError("'params.ell' must differ from 'params.p' when 'params.s' >= 1")
    return op, args


@lru_cache(maxsize=1)
def _raw() -> dict:
    """The corpus file, read through the loader that imported this module
    (what ``pkgutil.get_data`` does), so a zipped package finds it too."""
    path = os.path.join(os.path.dirname(__file__), "data", "corpus.json")
    return decode(__loader__.get_data(path), "the corpus")


def cover_ids(kinds: tuple[str, ...] | None = None) -> list[str]:
    return [c["id"] for c in _raw()["covers"] if kinds is None or c["cover"]["type"] in kinds]


def rep_ids(kinds: tuple[str, ...] | None = None) -> list[str]:
    covers = set(cover_ids(kinds))
    return [entry["id"] for entry in _raw()["representations"] if entry["cover"] in covers]


def _cover_spec(cover_id: str) -> dict:
    for c in _raw()["covers"]:
        if c["id"] == cover_id:
            return c
    raise KeyError(cover_id)


@lru_cache(maxsize=None)
def get_cover(cover_id: str) -> GaloisCover:
    spec = _cover_spec(cover_id)
    return build_cover(base_field(spec["base"]), spec["cover"])


@lru_cache(maxsize=None)
def get_representation(rep_id: str):
    """(cover id, p, representation, N), on the cover's ``deck_group``: no series is built."""
    for entry in _raw()["representations"]:
        if entry["id"] == rep_id:
            spec = _cover_spec(entry["cover"])
            p, cfg = base_field(spec["base"]).p, spec["cover"]
            rep = representation(deck_group(cfg["type"], p, cfg.get("m", 1)), entry, p)
            return entry["cover"], p, rep, read_int(entry["N"], "N", 0)
    raise KeyError(rep_id)
