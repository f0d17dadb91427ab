"""The job format, and the built-in fixtures written in it.

This module owns every input: the command line, the JSON text of a job, a
Jordan table and the fixture file are read here and nowhere else.  Every
field of a job is read here, once, before any arithmetic: one bool-safe
integer reader and one element reader serve all of them, and an error
names the field by its JSON path (or the flag by its name).  The same pass
bounds each job's work (field size, precision, ``GROUP_CAP`` and the enum
bounds) with ``SizeCapExceeded``.  The fixtures the test and verify suites
run over (``data/corpus.json``) are specs in the same format and go
through the same readers.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from importlib import resources

from .covers import (
    BreakTable,
    GaloisCover,
    build_artin_schreier,
    build_compositum_tower,
    build_kummer,
    lower_break_table,
)
from .errors import InputSchemaError, NotGaloisOverBase, RamifyError, SizeCapExceeded
from .fields import FieldElement, FiniteField, check_size_cap, field_create
from .groups import FiniteGroup
from .linalg import MatrixFF
from .ramification import Representation
from .series import LaurentSeries, precision_cap

COMMANDS = ("filtration", "herbrand", "swan", "bound", "verify", "enum")
CORPUS_PRECISION = 24

# The largest group a job builds: a cover's degree (p, m or p * m), a break
# table's order and the probe's diagonal group.  A table has n^2 cells and
# its axiom check takes n^2 * |gens| steps; as one process on a 2-CPU
# Xeon, an Artin-Schreier cover of degree 127 takes about 1 s, of degree
# 251 5.4 s.
GROUP_CAP = 128

# Least admissible value of each integer argument of the enum ops, by the
# name of the op's parameter.
_ENUM_INTS = {
    "max_ell_element_order": {"r": 1, "ell": 2, "n": 1},
    "inertia_candidate_sample": {"r": 1, "ell": 2, "n": 1, "p": 2, "count": 0},
    "abelian_p_bound_probe": {"r": 1, "ell": 2, "p": 2, "s": 0},
}

# The flags of the command line; all but --input are flags of 'verify' too.
_FLAGS = ("--input", "--output", "--precision", "--seed", "--jordan-table")


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
    last of a repeated flag winning; --precision and --seed are read as
    params.precision and params.seed are.  No file is read here."""
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
    for flag, least in (("--precision", 1), ("--seed", None)):
        if args[flag] is not None:
            args[flag] = read_int(_decimal(args[flag]), flag, least)
    return args


def decode(data: bytes | str, what: str):
    """The JSON value in ``data``.  Bad UTF-8, bad JSON, floats and NaN are
    an ``InputSchemaError`` that names ``what``."""
    def inexact(literal: str):
        raise InputSchemaError(f"{what} has the number {literal}; jobs take exact integers only")

    try:
        text = data.decode("utf-8") if type(data) is bytes else data
        return json.loads(text, parse_float=inexact, parse_constant=inexact)
    except ValueError as exc:  # also an integer too long to convert
        raise InputSchemaError(f"cannot read {what}: {exc}")


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


def _element(field: FiniteField, x, path: str) -> FieldElement:
    """An int (its image in the prime field) or a list of at most ``a``
    int coordinates."""
    if type(x) is int:
        return field.from_int(x)
    if type(x) is list and len(x) <= field.a and all(type(c) is int for c in x):
        return field.from_coeffs(x)
    raise InputSchemaError(f"'{path}' must be an integer or a list of at most {field.a} integers")


def _cap(base: int, cap: int, what: str, exp: int = 1) -> None:
    """Refuse base^exp > cap (a base below 2 passes), bit lengths first; exp
    is clipped at bits(cap), so no huge power or decimal string is formed."""
    try:
        check_size_cap(base, min(exp, cap.bit_length()), cap)
    except SizeCapExceeded:
        raise SizeCapExceeded(f"{what} exceeds {cap}") from None


def read_job(job, options: dict) -> tuple[str, dict, dict]:
    """(command, params, options) of a job.  An option not set on the
    command line (None) is taken from the job's params, then defaulted."""
    command = read(job, "job", dict).get("command")
    if command not in COMMANDS:
        raise InputSchemaError(f"'command' must be one of {COMMANDS}")
    params = read(job.get("params", {}), "params", dict)
    options = {"precision": None, **options}
    if options["precision"] is not None:
        options["precision"] = read_int(options["precision"], "--precision", 1)
    elif params.get("precision") is not None:
        options["precision"] = read_int(params["precision"], "params.precision", 1)
    if options.get("seed") is None:
        options["seed"] = read_int(params.get("seed", 0), "params.seed")
    return command, params, options


def base_field(cfg) -> FiniteField:
    """The residue field of 'base'."""
    cfg = read(cfg, "base", dict)
    return field_create(read_int(cfg.get("p"), "base.p"), read_int(cfg.get("a"), "base.a", 1))


def _datum(base: FiniteField, cover_cfg: dict) -> LaurentSeries:
    """The series 'cover.f', [[exponent, element], ...].  Its window is
    stored densely, so no exponent may pass the precision cap."""
    cap = precision_cap()
    terms = {}
    for i, pair in enumerate(read(cover_cfg.get("f"), "cover.f", list)):
        path = f"cover.f[{i}]"
        if len(read(pair, path, list)) != 2:
            raise InputSchemaError(f"'{path}' must be a pair [exponent, element]")
        exp = read_int(pair[0], path + "[0]")
        if abs(exp) > cap:
            raise SizeCapExceeded(f"'{path}' has exponent {exp}, beyond the precision cap {cap}")
        terms[exp] = _element(base, pair[1], path + "[1]")
    return LaurentSeries.from_terms(base, terms)


def build_cover(base: FiniteField, cfg, prec: int | None = None) -> GaloisCover:
    """The cover 'cover' over ``base``."""
    cfg = read(cfg, "cover", dict)
    kind = cfg.get("type")
    if kind == "kummer":
        m = read_int(cfg.get("m"), "cover.m")
        _cap(m, GROUP_CAP, "the group order 'cover.m'")
        if m < 2:
            raise NotGaloisOverBase("tame degree must be at least 2")
        return build_kummer(base, m, prec=prec)
    if kind == "artin_schreier":
        _cap(base.p, GROUP_CAP, "the group order 'base.p'")
        return build_artin_schreier(base, _datum(base, cfg), prec=prec)
    if kind == "tower":
        m = read_int(cfg.get("m"), "cover.m", 1)
        _cap(base.p * m, GROUP_CAP, "the group order 'base.p' * 'cover.m'")
        return build_compositum_tower(base, m, _datum(base, cfg), prec=prec)
    raise InputSchemaError("'cover.type' must be 'artin_schreier', 'kummer' or 'tower'")


def break_table(cfg) -> BreakTable:
    """The break table 'break_table': a group table and i(g) for each g != 1."""
    cfg = read(cfg, "break_table", dict)
    labels = read(cfg.get("labels"), "break_table.labels", list)
    table = read(cfg.get("mul_table"), "break_table.mul_table", list)
    _cap(len(labels), GROUP_CAP, "the group order len('break_table.labels')")
    for i, label in enumerate(labels):
        if read(label, f"break_table.labels[{i}]", str) in labels[:i]:
            raise InputSchemaError(f"'break_table.labels[{i}]' repeats the label {label!r}")
    try:
        group = FiniteGroup(table, labels)
    except RamifyError:
        raise
    except Exception as exc:
        raise InputSchemaError(f"'break_table.mul_table' is not a multiplication table: {exc}")
    if not group.verify_axioms():
        raise InputSchemaError("'break_table.mul_table' is not associative")
    i_g = read(cfg.get("iG", {}), "break_table.iG", dict)
    i_map = {}
    for label, value in i_g.items():
        if label not in group.labels:
            raise InputSchemaError(f"'break_table.iG' has unknown label {label!r}")
        path = f"break_table.iG.{label}"
        _cap(read_int(value, path, 1), precision_cap(), f"the precision that '{path}' needs")
        i_map[group.label_index(label)] = value
    if set(i_map) != set(range(group.n)) - {group.identity}:
        raise InputSchemaError("'break_table.iG' must cover every nontrivial element exactly once")
    return BreakTable(group, i_map)


def break_data(job: dict, prec: int | None = None):
    """(cover or None, break table, p) from the job's 'cover' or its 'break_table'."""
    if ("cover" in job) == ("break_table" in job):
        raise InputSchemaError("job needs exactly one of 'cover' and 'break_table'")
    base = base_field(job.get("base"))
    if "cover" in job:
        cover = build_cover(base, job["cover"], prec)
        return cover, lower_break_table(cover), base.p
    return None, break_table(job["break_table"]), base.p


def representation(group: FiniteGroup, cfg, p: int) -> Representation:
    """The representation 'rep' of ``group`` over F_{ell^n}, ell != p,
    given by r x r matrices at generator labels."""
    cfg = read(cfg, "rep", dict)
    ell = read_int(cfg.get("ell"), "rep.ell")
    n = read_int(cfg.get("n", 1), "rep.n", 1)
    r = read_int(cfg.get("r"), "rep.r", 1)
    if ell == p:
        raise InputSchemaError("'rep.ell' must differ from the residue characteristic p")
    images = read(cfg.get("images"), "rep.images", dict)
    if not images:
        raise InputSchemaError("'rep.images' must map at least one generator label to a matrix")
    field = field_create(ell, n)
    gen_images = {}
    for label, rows in images.items():
        if label not in group.labels:
            raise InputSchemaError(f"'rep.images' has unknown label {label!r}")
        path = f"rep.images.{label}"
        if not (type(rows) is list and len(rows) == r
                and all(type(row) is list and len(row) == r for row in rows)):
            raise InputSchemaError(f"'{path}' must be an r x r matrix, r = 'rep.r' = {r}")
        gen_images[label] = MatrixFF(field, [
            [_element(field, x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ])
    return Representation(group, gen_images)


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
        _cap(args["p"], 1 << 16, "'params.p' ** 'params.s'", args["s"])
        _cap(max(args["p"] ** args["s"], 2), GROUP_CAP,
             "the diagonal group ('params.p' ** 'params.s') ** 'params.r'", r)
    return op, args


@lru_cache(maxsize=1)
def _raw() -> dict:
    return decode(resources.files("ramify").joinpath("data/corpus.json").read_bytes(), "the corpus")


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
    return build_cover(base_field(spec["base"]), spec["cover"], prec=CORPUS_PRECISION)


@lru_cache(maxsize=None)
def get_representation(rep_id: str):
    """Returns (cover, representation, N) for a corpus representation."""
    for entry in _raw()["representations"]:
        if entry["id"] == rep_id:
            cover = get_cover(entry["cover"])
            rep = representation(cover.group, entry, cover.p)
            return cover, rep, read_int(entry["N"], "N", 0)
    raise KeyError(rep_id)
