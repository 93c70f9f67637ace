"""JSON interchange for every artifact the CLI reads or writes.

Algebra: {"n", "zero", "meet", "join", "diff", "cap"} with row-major tables.
Space: {"E", "B", "p", "band"}, band entries null across fibers, key omitted
for plain spaces.  Partial map: {"domain", "values"} aligned by position.
Homomorphism / space morphism carry "source" and "target" either inline or
as a file path.  Extra keys are tolerated so annotated outputs re-validate.
"""

from __future__ import annotations

import json
import operator
import os
import sys
from itertools import islice

from .core_algebra import StructuralError, make_algebra
from .ideals_spectra import make_space
from .morphisms_duality import Homomorphism, SpaceMorphism
from .spaces_sections import PartialMap


def algebra_to_dict(A):
    return {"n": A.n, "zero": A.zero,
            "meet": A.meet_table.tolist(),
            "join": A.join_table.tolist(),
            "diff": A.diff_table.tolist(),
            "cap": A.cap_table.tolist()}


def algebra_from_dict(obj):
    try:
        return make_algebra(obj["n"], obj["zero"], obj["meet"], obj["join"],
                            obj["diff"], obj["cap"])
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"not an algebra object: {exc}") from exc


def space_to_dict(sp):
    out = {"E": sp.size_e, "B": sp.size_b, "p": list(sp.p)}
    if sp.band is not None:
        out["band"] = [list(r) for r in sp.band]
    return out


def space_from_dict(obj):
    try:
        return make_space(obj["E"], obj["B"], obj["p"], obj.get("band"))
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"not a space object: {exc}") from exc


def partial_map_to_dict(pm):
    return {"domain": list(pm.domain), "values": list(pm.values)}


def partial_map_from_dict(obj):
    try:
        return PartialMap(tuple(operator.index(x) for x in obj["domain"]),
                          tuple(operator.index(v) for v in obj["values"]))
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"not a partial map object: {exc}") from exc


def points_to_dict(points):
    return {"points": [{"prime": pt.prime, "rep": pt.rep} for pt in points]}


def sections_to_dict(sections):
    return {"sections": [list(s) for s in sections]}


def _resolve(obj, base_dir, reader):
    if isinstance(obj, str):
        path = obj if os.path.isabs(obj) else os.path.join(base_dir, obj)
        with open(path, encoding="utf-8") as fh:
            return reader(json.load(fh))
    return reader(obj)


def hom_from_dict(obj, base_dir="."):
    try:
        source = _resolve(obj["source"], base_dir, algebra_from_dict)
        target = _resolve(obj["target"], base_dir, algebra_from_dict)
        return Homomorphism(source, target, tuple(operator.index(v) for v in obj["map"]))
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"not a homomorphism object: {exc}") from exc


def morphism_to_dict(m):
    return {"g": partial_map_to_dict(m.g), "h": partial_map_to_dict(m.h),
            "source": space_to_dict(m.source), "target": space_to_dict(m.target)}


def morphism_from_dict(obj, base_dir="."):
    try:
        source = _resolve(obj["source"], base_dir, space_from_dict)
        target = _resolve(obj["target"], base_dir, space_from_dict)
        return SpaceMorphism(source, target,
                             partial_map_from_dict(obj["g"]),
                             partial_map_from_dict(obj["h"]))
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"not a space morphism object: {exc}") from exc


def sniff_kind(obj):
    """Which artifact a decoded JSON object describes."""
    if not isinstance(obj, dict):
        raise StructuralError("top-level JSON value must be an object")
    if {"n", "zero", "meet"} <= obj.keys():
        return "algebra"
    if {"E", "B", "p"} <= obj.keys():
        return "space"
    if {"g", "h"} <= obj.keys():
        return "morphism"
    if "map" in obj:
        return "hom"
    raise StructuralError("object matches no known artifact shape")


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def dumps(obj):
    """Canonical serialization used by every command (byte-stable)."""
    return _ENCODER.encode(obj)


def dump(obj, fh=None):
    """Write dumps(obj) and a newline to fh (by default the sys.stdout of the
    moment).  The encoder's chunks go out in batches, so a large document is
    never held whole; one write per chunk would be several times slower."""
    out = sys.stdout if fh is None else fh
    chunks = _ENCODER.iterencode(obj)
    while batch := list(islice(chunks, 65536)):
        out.write("".join(batch))
    out.write("\n")
