"""JSON descriptions of generators and piecewise fields.

A description is a plain dict with a ``kind`` tag naming one of the
supported constructions; nested constructions (rotations of catalog
entries, combinations of product forms, ...) nest their descriptions.
The same shapes appear in generator provenance (``from_starlike``
records its map as a ``catalog`` or ``polynomial`` description), so the
dicts a report emits can be fed back in and rebuild the same array.
Loading a generator decides nothing about its membership: a field is
screened when ``HerglotzField.build`` admits it.

Field schedules are lists of ``{"until": t, "generator": ...}`` entries;
an entry without ``until`` is the tail generator, and when every entry
has a breakpoint the pure dilation tail is appended automatically.
Nested descriptions must be objects and list fields lists; a malformed
description raises ``DomainError`` (``JetShapeError`` for a bad shape).
"""

from __future__ import annotations

import json
import math
from typing import Union

from .catalog import catalog_generator, catalog_get
from .evolution import HerglotzField
from .generators import (
    AtomicMeasure,
    Generator,
    convex_combination,
    dilation_generator,
    from_starlike,
    product_form,
    rotate_generator,
    shear_linear,
    shear_quadratic,
)
from .jets import DomainError, JetMap, Normalization, check_jet_shape, jet_from_json

__all__ = [
    "generator_from_json",
    "field_from_json",
]

GENERATOR_KINDS = (
    "catalog",
    "dilation",
    "rotation",
    "product-form",
    "convex-combination",
    "polynomial",
    "from-starlike",
    "shear-linear",
    "shear-quadratic",
)


def _require(obj: dict, key: str, kind: str):
    if key not in obj:
        raise DomainError(f"{kind!r} description is missing the {key!r} field")
    return obj[key]


def _list(obj: dict, key: str, kind: str) -> list:
    value = _require(obj, key, kind)
    if not isinstance(value, (list, tuple)):
        raise DomainError(f"{kind!r} field {key!r} must be a list, got {type(value).__name__}")
    return list(value)


def _decoded(obj, what: str):
    """A description given as JSON text, decoded; any other value as it is."""
    try:
        return json.loads(obj) if isinstance(obj, str) else obj
    except ValueError as exc:
        raise DomainError(f"{what} is not valid JSON: {exc}") from exc


def _int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} must be an integer, got {value!r}") from exc


def _floats(values, what: str) -> list[float]:
    """Finite floats from a description list; NaN and infinities are refused."""
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} must be numbers: {exc}") from exc
    if not all(math.isfinite(v) for v in out):
        raise DomainError(f"{what} must be finite, got {out}")
    return out


def _optional_dim(obj: dict):
    dim = obj.get("dim")
    return None if dim is None else _int(dim, "'dim'")


def _polynomial_map(obj: dict, normalization: Normalization) -> JetMap:
    comps = tuple(jet_from_json(c) for c in _list(obj, "components", "polynomial"))
    return JetMap(comps, normalization)


def _starlike_source(obj: dict, degree: int):
    """The map of a from-starlike description.

    A catalog map without its own ``degree`` is built at the generator's
    degree (at least 2, the catalog's least), so its jet is not cut short.
    """
    if not isinstance(obj, dict):
        raise DomainError("the map of a from-starlike description must be a JSON object")
    kind = _require(obj, "kind", "from-starlike map")
    if kind == "catalog":
        return catalog_get(
            _require(obj, "name", kind),
            dim=_optional_dim(obj),
            degree=_int(obj.get("degree", max(degree, 2)), "'degree'"),
        )
    if kind == "polynomial":
        return _polynomial_map(obj, Normalization.UNIVALENT)
    raise DomainError(f"a starlike source must be 'catalog' or 'polynomial', got {kind!r}")


def generator_from_json(obj: Union[dict, str], *, default_degree: int = 4) -> Generator:
    """Build a generator from its JSON description (dict or JSON text)."""
    return _generator(_decoded(obj, "generator description"), default_degree)


def _generator(obj, default_degree: int) -> Generator:
    if isinstance(obj, dict) and "provenance" in obj and "kind" not in obj:
        obj = obj["provenance"]
    if not isinstance(obj, dict):
        raise DomainError("generator description must be a JSON object")
    kind = _require(obj, "kind", "generator")
    degree = _int(obj.get("degree", default_degree), "'degree'")

    if kind == "catalog":
        return catalog_generator(_require(obj, "name", kind), dim=_optional_dim(obj), degree=degree)
    if kind == "dilation":
        dim = _int(_require(obj, "dim", kind), "'dim'")
        check_jet_shape(dim, degree)
        return dilation_generator(dim, degree=degree)
    if kind == "rotation":
        base = _generator(_require(obj, "base", kind), default_degree)
        return rotate_generator(base, _floats(_list(obj, "angles", kind), "rotation angles"))
    if kind == "product-form":
        selectors = [_int(s, "selectors") for s in _list(obj, "selectors", kind)]
        check_jet_shape(len(selectors), degree)
        raw = _list(obj, "measures", kind)
        measures = [None if m is None else AtomicMeasure.from_json(m) for m in raw]
        return product_form(selectors, measures, degree=degree)
    if kind in ("convex-combination", "convex-combo"):
        parts = [_generator(p, default_degree) for p in _list(obj, "parts", kind)]
        return convex_combination(parts, _floats(_list(obj, "weights", kind), "weights"))
    if kind == "polynomial":
        jet = _polynomial_map(obj, Normalization.GENERATOR)
        return Generator(jet, jet, {"kind": "polynomial", "components": obj["components"]})
    if kind == "from-starlike":
        source = _starlike_source(_require(obj, "map", kind), degree)
        check_jet_shape(source.dim, degree)
        return from_starlike(source, degree=degree)
    if kind in ("shear-linear", "shear-quadratic"):
        base = _generator(_require(obj, "base", kind), default_degree)
        fn = shear_linear if kind == "shear-linear" else shear_quadratic
        return fn(base)
    raise DomainError(f"unknown generator kind {kind!r}; known: {', '.join(GENERATOR_KINDS)}")


def field_from_json(obj: Union[dict, list, str], *, default_degree: int = 4) -> HerglotzField:
    """Build a piecewise field from a schedule description.

    The field is built by ``HerglotzField.build``, so its generators pass
    ``generators.require_admissible`` (``MembershipError`` otherwise).
    """
    obj = _decoded(obj, "field description")
    schedule = obj.get("schedule") if isinstance(obj, dict) else obj
    if not isinstance(schedule, list) or not schedule:
        raise DomainError("field description needs a nonempty 'schedule' list")
    gens = []
    breaks = []
    for i, entry in enumerate(schedule):
        if not isinstance(entry, dict) or "generator" not in entry:
            raise DomainError(f"schedule entry {i} must be an object with a 'generator'")
        gens.append(_generator(entry["generator"], default_degree))
        if "until" in entry:
            breaks.extend(_floats([entry["until"]], f"schedule entry {i} 'until'"))
        elif i != len(schedule) - 1:
            raise DomainError("only the final schedule entry may omit 'until'")
    if len(breaks) == len(gens):
        gens.append(dilation_generator(gens[0].dim, degree=max(default_degree, gens[0].degree)))
    return HerglotzField.build(gens, breaks)
