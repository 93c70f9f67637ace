"""JSON interchange for every artifact the CLI reads or writes.

Algebra: {"n", "zero", "meet", "join", "diff", "cap"} with row-major tables.
Space: {"E", "B", "p", "band"}, band the E x E rows with entries null across
fibers, key omitted for plain spaces.  A space keeps one band table per
fiber (RectSkewSpace); the reader splits the rows into those tables, and the
writer streams the rows back from them one at a time, so a space's E x E
band is never built here.  Partial map: {"domain", "values"} aligned by position.
Homomorphism / space morphism carry "source" and "target" either inline or
as a file path.  Extra keys are tolerated so annotated outputs re-validate.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from types import GeneratorType

import numpy as np

from .core_algebra import INDEX_DTYPE, StructuralError, as_ints, make_algebra
from .ideals_spectra import _band_rows, make_space
from .morphisms_duality import Homomorphism, SpaceMorphism
from .spaces_sections import PartialMap


def algebra_to_dict(A):
    """The algebra's own read-only int16 tables, which dump writes as rows."""
    return {"n": A.n, "zero": A.zero, "meet": A.meet_table, "join": A.join_table,
            "diff": A.diff_table, "cap": A.cap_table}


def algebra_from_dict(obj):
    try:
        return make_algebra(obj["n"], obj["zero"], obj["meet"], obj["join"],
                            obj["diff"], obj["cap"])
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"not an algebra object: {exc}") from exc


def space_to_dict(sp):
    """The space's fields; "band", for a space with one, is the generator of
    its rows (_band_rows), which dump writes a row at a time."""
    out = {"E": sp.size_e, "B": sp.size_b, "p": list(sp.p)}
    if sp.tables is not None:
        out["band"] = _band_rows(sp)
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
        return PartialMap(tuple(as_ints(obj["domain"])), tuple(as_ints(obj["values"])))
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"not a partial map object: {exc}") from exc


def points_to_dict(points):
    return {"points": [{"prime": pt.prime, "rep": pt.rep} for pt in points]}


def sections_to_dict(sections):
    return {"sections": [list(s) for s in sections]}


def load(path):
    """Decode the JSON file at path.  A document nested too deep for the
    decoder raises JSONDecodeError, like any other malformed one."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deep to decode", text, 0) from None


def _resolve(obj, base_dir, reader):
    if isinstance(obj, str):
        path = obj if os.path.isabs(obj) else os.path.join(base_dir, obj)
        return reader(load(path))
    return reader(obj)


def hom_from_dict(obj, base_dir="."):
    try:
        source = _resolve(obj["source"], base_dir, algebra_from_dict)
        target = _resolve(obj["target"], base_dir, algebra_from_dict)
        return Homomorphism(source, target, tuple(as_ints(obj["map"])))
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


def dump(obj, fh=None):
    """Write obj to fh (by default the sys.stdout of the moment) as
    json.dumps(obj, indent=2, sort_keys=True) followed by a newline.

    Covers what the CLI writes: dicts with str keys, lists, tuples, str, int,
    float, bool and None, operation tables: non-empty 2-D int16 arrays
    whose entries lie in 0..cols-1, written as the list of their rows, and
    a space's band rows (space_to_dict), written as the list of those rows
    with null for -1.  Any other value, any other ndarray included, raises
    TypeError.  A list of plain ints is formatted in one join, a table row
    or a band row in one gather and one join, and each row goes to fh as
    soon as it is formatted, so a large document is never held whole.
    """
    write = (sys.stdout if fh is None else fh).write
    _write(obj, write, "\n")
    write("\n")


def dumps(obj):
    """The canonical bytes dump writes, without the final newline, as a
    string.  No command calls it; it serves callers that want a document as
    text (writing fixtures, comparing output)."""
    fh = io.StringIO()
    dump(obj, fh)
    return fh.getvalue()[:-1]


def _write(obj, write, newline):
    """Write obj at the nesting level whose line break and indent is
    newline: its items go on lines starting newline + "  ", its closing
    bracket on one starting newline."""
    if isinstance(obj, str):
        write(encode_basestring_ascii(obj))
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, float):
        write(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + "  "
        if set(map(type, obj)) == {int}:
            items = ("," + inner).join(map(repr, obj))
            write("[" + inner + items + newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            write(sep)
            _write(item, write, inner)
            sep = "," + inner
        write(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            write(sep + encode_basestring_ascii(key) + ": ")
            _write(value, write, inner)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(obj, (np.ndarray, GeneratorType)):
        _write_table(obj, write, newline)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_table(rows, write, newline):
    """Write the rows of an operation table, or a space's band rows
    (_band_rows), at the nesting level of newline.  Entry v of a row, in
    0..cols-1 or -1 for null, is the text texts[v] (its line break, indent,
    digits or null, and ","), so a row is one gather and one join."""
    if isinstance(rows, np.ndarray) and not (
            rows.ndim == 2 and rows.dtype == INDEX_DTYPE and rows.size
            and 0 <= rows.min() and rows.max() < rows.shape[1]):
        raise TypeError(f"ndarray of {rows.dtype} and shape {rows.shape} is not "
                        "a table with entries in 0..cols-1")
    inner = newline + "  "
    sep, texts = "[" + inner + "[", None
    for row in rows:
        if texts is None:
            texts = np.array([f"{inner}  {v}," for v in range(len(row))] + [inner + "  null,"],
                             dtype=object)
        write(sep + "".join(texts[row].tolist())[:-1] + inner + "]")
        sep = "," + inner + "["
    write("[]" if texts is None else newline + "]")


def _float_text(x):
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)
