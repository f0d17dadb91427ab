"""Built-in fixtures: the covers and representations the test and verify
suites run over, shipped as versioned data so everything works offline and
deterministically."""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .covers import (
    GaloisCover,
    build_artin_schreier,
    build_compositum_tower,
    build_kummer,
    trivial_cover,
)
from .errors import InputSchemaError
from .fields import field_create
from .groups import FiniteGroup
from .linalg import MatrixFF
from .ramification import Representation
from .series import LaurentSeries

CORPUS_PRECISION = 24


@lru_cache(maxsize=1)
def _raw() -> dict:
    path = resources.files("ramify").joinpath("data/corpus.json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def cover_ids() -> list[str]:
    return [c["id"] for c in _raw()["covers"]]


def rep_ids(kinds: tuple[str, ...] | None = None) -> list[str]:
    out = []
    for entry in _raw()["representations"]:
        if kinds is not None:
            spec = _cover_spec(entry["cover"])["cover"]
            if spec["type"] not in kinds:
                continue
        out.append(entry["id"])
    return out


def _cover_spec(cover_id: str) -> dict:
    for c in _raw()["covers"]:
        if c["id"] == cover_id:
            return c
    raise KeyError(cover_id)


def coordinates_ok(x, a: int) -> bool:
    """Whether ``x`` encodes an element of F_{p^a}: a list of at most a ints."""
    return isinstance(x, list) and len(x) <= a and all(isinstance(c, int) for c in x)


def _int_field(cover_cfg: dict, key: str) -> int:
    value = cover_cfg.get(key)
    if not isinstance(value, int):
        raise InputSchemaError(f"'cover.{key}' must be an integer")
    return value


def _datum(base, cover_cfg: dict) -> LaurentSeries:
    """The series 'cover.f', given as [[exponent, coordinates], ...]."""
    pairs = cover_cfg.get("f")
    if not isinstance(pairs, list):
        raise InputSchemaError("'cover.f' must be a list of [exponent, coordinates] pairs")
    for i, pair in enumerate(pairs):
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and isinstance(pair[0], int)
            and coordinates_ok(pair[1], base.a)
        ):
            raise InputSchemaError(
                f"'cover.f[{i}]' must be [exponent, coordinates] with at most "
                f"{base.a} integer coordinates"
            )
    return LaurentSeries.from_sparse(base, pairs)


def build_cover(base_cfg: dict, cover_cfg: dict, prec: int | None = None) -> GaloisCover:
    """Construct a cover from its serialized description (also the CLI path)."""
    base = field_create(int(base_cfg["p"]), int(base_cfg["a"]))
    if not isinstance(cover_cfg, dict):
        raise InputSchemaError("'cover' must be a JSON object")
    kind = cover_cfg.get("type")
    if kind == "artin_schreier":
        return build_artin_schreier(base, _datum(base, cover_cfg), prec=prec)
    if kind == "kummer":
        return build_kummer(base, _int_field(cover_cfg, "m"), prec=prec)
    if kind == "tower":
        m = _int_field(cover_cfg, "m")
        lower = build_kummer(base, m, prec=prec) if m >= 2 else trivial_cover(base)
        return build_compositum_tower(lower, _datum(base, cover_cfg), prec=prec)
    raise InputSchemaError(f"unknown cover type {kind!r}")


def representation_from_spec(group: FiniteGroup, rep_cfg: dict) -> Representation:
    field = field_create(int(rep_cfg["ell"]), int(rep_cfg.get("n", 1)))
    gen_images = {}
    for label, rows in rep_cfg["images"].items():
        gen_images[label] = MatrixFF.from_int_rows(field, rows)
    return Representation.from_generator_images(group, gen_images)


@lru_cache(maxsize=None)
def get_cover(cover_id: str) -> GaloisCover:
    spec = _cover_spec(cover_id)
    return build_cover(spec["base"], spec["cover"], prec=CORPUS_PRECISION)


@lru_cache(maxsize=None)
def get_representation(rep_id: str):
    """Returns (cover, representation, N) for a corpus representation."""
    for entry in _raw()["representations"]:
        if entry["id"] == rep_id:
            cover = get_cover(entry["cover"])
            rep = representation_from_spec(cover.group, entry)
            return cover, rep, int(entry["N"])
    raise KeyError(rep_id)
