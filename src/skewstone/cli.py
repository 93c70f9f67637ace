"""Command-line surface: validation, spectra, dualization, round trips,
morphism analysis, corpus generation, and DOT export.

Exit codes: 0 on success, 1 on a domain failure (invalid instance, failed
check), 2 on unreadable input, 3 when a size limit stops the work.  All
randomness flows from --seed; identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

import numpy as np

from . import jsonio
from .core_algebra import (
    EXHAUSTIVE_N,
    SizeCapError,
    StructuralError,
    _certified_form,
    leq_matrix,
    validate_algebra,
)
from .ideals_spectra import skew_spectrum
from .lattice_sections import find_global_section, find_lattice_section
from .morphisms_duality import (
    _roundtrip_map,
    check_variant_dualities,
    classify_hom,
    decompose_morphism,
    enumerate_homs,
    space_roundtrip_iso,
    validate_hom,
    validate_space_morphism,
)
from .spaces_sections import dual_algebra, random_space, validate_space


def _print_report(report, fmt):
    if fmt == "json":
        jsonio.dump({"ok": report.ok,
                     "failures": [[law, list(w)] for law, w in report.failures],
                     "warnings": [[law, list(w)] for law, w in report.warnings]})
    else:
        if report.ok:
            print("ok")
        for law, witness in report.failures:
            print(f"FAIL {law} witness={witness}")
        for law, witness in report.warnings:
            print(f"WARN {law} witness={witness}")


def cmd_validate(cfg):
    obj = jsonio.load(cfg.paths[0])
    kind = jsonio.sniff_kind(obj)
    if kind == "algebra":
        report = validate_algebra(jsonio.algebra_from_dict(obj), max_n=cfg.max_size)
    elif kind == "space":
        report = validate_space(jsonio.space_from_dict(obj))
    elif kind == "morphism":
        report = validate_space_morphism(_morphism_of_valid_spaces(cfg, obj))
    elif kind == "hom":
        f = jsonio.hom_from_dict(obj, os.path.dirname(cfg.paths[0]) or ".")
        _valid_algebra(cfg, f.source)
        _valid_algebra(cfg, f.target)
        report = validate_hom(f)
    else:
        raise StructuralError(f"cannot validate objects of kind {kind}")
    _print_report(report, cfg.fmt)
    return 0 if report.ok else 1


def _valid_algebra(cfg, A):
    report = validate_algebra(A, max_n=cfg.max_size)
    if not report.ok:
        raise ValueError(f"input algebra is invalid: {report.failures[0]}")
    return A


def _valid_space(sp):
    report = validate_space(sp)
    if not report.ok:
        raise ValueError(f"input space is invalid: {report.failures[0]}")
    return sp


def _morphism_of_valid_spaces(cfg, obj):
    m = jsonio.morphism_from_dict(obj, os.path.dirname(cfg.paths[0]) or ".")
    _valid_space(m.source)
    _valid_space(m.target)
    return m


def cmd_spectrum(cfg):
    A = _valid_algebra(cfg, jsonio.algebra_from_dict(jsonio.load(cfg.paths[0])))
    space, points = skew_spectrum(A)
    out = jsonio.space_to_dict(space)
    out.update(jsonio.points_to_dict(points))
    jsonio.dump(out)
    return 0


def cmd_dualize(cfg):
    sp = _valid_space(jsonio.space_from_dict(jsonio.load(cfg.paths[0])))
    algebra, sections = dual_algebra(sp)
    out = jsonio.algebra_to_dict(algebra)
    if cfg.with_sections:
        out.update(jsonio.sections_to_dict(sections))
    jsonio.dump(out)
    return 0


def cmd_roundtrip(cfg):
    obj = jsonio.load(cfg.paths[0])
    kind = jsonio.sniff_kind(obj)
    if kind == "algebra":
        A = _valid_algebra(cfg, jsonio.algebra_from_dict(obj))
        image = _roundtrip_map(A)         # the checked map; the target is not printed
        if cfg.fmt == "json":
            jsonio.dump({"isomorphic": True, "size": A.n, "map": image.tolist()})
        else:
            print(f"isomorphic, |A|={A.n}")
    elif kind == "space":
        sp = _valid_space(jsonio.space_from_dict(obj))
        iso = space_roundtrip_iso(sp)
        if cfg.fmt == "json":
            jsonio.dump({"isomorphic": True, "E": sp.size_e, "B": sp.size_b,
                         "g": list(iso.g.values), "h": list(iso.h.values)})
        else:
            print(f"isomorphic, |E|={sp.size_e}, |B|={sp.size_b}")
    else:
        raise StructuralError(f"cannot round-trip objects of kind {kind}")
    return 0


def cmd_homs(cfg):
    A = _valid_algebra(cfg, jsonio.algebra_from_dict(jsonio.load(cfg.paths[0])))
    B = _valid_algebra(cfg, jsonio.algebra_from_dict(jsonio.load(cfg.paths[1])))
    rows = []
    for f in enumerate_homs(A, B):
        flags = classify_hom(f)
        rows.append({"map": list(f.map),
                     "flags": {"leq_cofinal": flags.leq_cofinal,
                               "preceq_cofinal": flags.preceq_cofinal,
                               "D_saturated": flags.D_saturated,
                               "leq_ideal_inclusion": flags.leq_ideal_inclusion,
                               "image_ideal_preceq_closed": flags.image_ideal_preceq_closed},
                     "dual_agrees": check_variant_dualities(f)})
    if cfg.fmt == "json":
        jsonio.dump({"homs": rows})
    else:
        print(f"{len(rows)} homomorphisms")
        for row in rows:
            flags = " ".join(f"{k}={'1' if v else '0'}" for k, v in row["flags"].items())
            print(f"map={row['map']} {flags} dual_agrees={'1' if row['dual_agrees'] else '0'}")
    return 0


def cmd_decompose(cfg):
    if cfg.out is None:
        raise ValueError("decompose needs --out DIR for its two output files")
    morphism = _morphism_of_valid_spaces(cfg, jsonio.load(cfg.paths[0]))
    part_identity, pullback_part = decompose_morphism(morphism)
    os.makedirs(cfg.out, exist_ok=True)
    for name, part in (("partial_identity", part_identity), ("pullback_part", pullback_part)):
        path = os.path.join(cfg.out, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            jsonio.dump(jsonio.morphism_to_dict(part), fh)
        print(path)
    return 0


def cmd_section(cfg):
    obj = jsonio.load(cfg.paths[0])
    kind = jsonio.sniff_kind(obj)
    if kind == "algebra":
        A = _valid_algebra(cfg, jsonio.algebra_from_dict(obj))
        jsonio.dump({"choice": list(find_lattice_section(A).choice)})
    elif kind == "space":
        sp = _valid_space(jsonio.space_from_dict(obj))
        jsonio.dump({"section": list(find_global_section(sp).points)})
    else:
        raise StructuralError(f"no section search for objects of kind {kind}")
    return 0


def cmd_generate(cfg):
    if cfg.out is None:
        raise ValueError("generate needs --out DIR")
    band = cfg.band
    if band == "product":
        band = ("product", cfg.k_left, cfg.k_right)
    os.makedirs(cfg.out, exist_ok=True)
    for i in range(cfg.count):
        sp = random_space(cfg.size_b, cfg.max_fiber, cfg.seed + i, band)
        path = os.path.join(cfg.out, f"space_{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            jsonio.dump(jsonio.space_to_dict(sp), fh)
        print(path)
    return 0


def _hasse_edges(A):
    """The covering pairs x < y of the natural order of a valid A, in C
    order, read off the support sizes of A's product form.  x < y forces
    supp x to be a proper subset of supp y, and y covers x exactly when supp
    y has one fiber more: with two or more, y restricted to supp x and one
    of them lies strictly between x and y."""
    size = (_certified_form(A).digits > 0).sum(axis=1)
    covers = leq_matrix(A) & (size[None, :] == size[:, None] + 1)
    return [(x, y) for x, y in np.argwhere(covers).tolist()]


def cmd_export_dot(cfg):
    obj = jsonio.load(cfg.paths[0])
    kind = jsonio.sniff_kind(obj)
    lines = []
    if kind == "algebra":
        A = _valid_algebra(cfg, jsonio.algebra_from_dict(obj))
        lines.append("digraph hasse {")
        lines.append("  rankdir=BT;")
        for x in A.elements:
            shape = ' shape=doublecircle' if x == A.zero else ""
            lines.append(f'  n{x} [label="{x}"{shape}];')
        for x, y in _hasse_edges(A):
            lines.append(f"  n{x} -> n{y};")
        lines.append("}")
    elif kind == "space":
        sp = _valid_space(jsonio.space_from_dict(obj))
        lines.append("graph fibration {")
        for b in range(sp.size_b):
            lines.append(f'  b{b} [label="b{b}" shape=box];')
        for e in range(sp.size_e):
            lines.append(f'  e{e} [label="e{e}"];')
        for e in range(sp.size_e):
            lines.append(f"  e{e} -- b{sp.p[e]};")
        lines.append("}")
    else:
        raise StructuralError(f"no DOT export for objects of kind {kind}")
    print("\n".join(lines))
    return 0


COMMANDS = {
    "validate": (cmd_validate, 1),
    "spectrum": (cmd_spectrum, 1),
    "dualize": (cmd_dualize, 1),
    "roundtrip": (cmd_roundtrip, 1),
    "homs": (cmd_homs, 2),
    "decompose": (cmd_decompose, 1),
    "section": (cmd_section, 1),
    "generate": (cmd_generate, 0),
    "export-dot": (cmd_export_dot, 1),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewstone",
        description="Finite skew Boolean algebras with intersections and their dual spaces.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for anything random")
    common.add_argument("--max-size", type=int, default=EXHAUSTIVE_N,
                        help="cap on n for the exhaustive report on an input algebra "
                             "that the certificate refuses")
    common.add_argument("--format", dest="fmt", choices=("json", "text"),
                        default="text", help="output format where applicable")
    common.add_argument("--out", default=None, help="output directory for file-producing commands")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, arity) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for i in range(arity):
            p.add_argument(f"path{i}" if arity > 1 else "path", nargs=None)
        if name == "dualize":
            p.add_argument("--sections", dest="with_sections", action="store_true",
                           help="embed the section labels in the output")
        if name == "generate":
            p.add_argument("--size-b", type=int, default=2)
            p.add_argument("--max-fiber", type=int, default=2)
            p.add_argument("--band", choices=("none", "right", "left", "product"),
                           default="none")
            p.add_argument("--k-left", type=int, default=2)
            p.add_argument("--k-right", type=int, default=1)
            p.add_argument("--count", type=int, default=1)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    func, arity = COMMANDS[args.command]
    args.paths = tuple(getattr(args, f"path{i}" if arity > 1 else "path")
                       for i in range(arity))
    try:
        return func(args)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"error: limit: {exc}", file=sys.stderr)
        return 3
    except (StructuralError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    """The process entry point of `skewstone`, `python -m skewstone` and
    `python -m skewstone.cli`.  Everything made at import (numpy's objects
    and this package's) moves to the collector's permanent generation before
    the command runs, so neither the command's own collections nor the last
    one at exit walk it; the command's own objects are collected as before.
    main(argv) does not freeze: called in process, it would keep whatever
    cyclic garbage the caller holds."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
