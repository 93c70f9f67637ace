"""Command-line surface: validation, spectra, dualization, round trips,
morphism analysis, corpus generation, and DOT export.

COMMANDS is the one table of the CLI: each command takes the files, the
kinds of file and the options its row lists, and nothing else.  Every file
goes through one reader, _read.

Exit codes: 0 on success, 1 on a domain failure (invalid instance, failed
check, a file of a kind the command does not take), 2 on unreadable input
or a usage error, 3 when a size limit stops the work.  All randomness flows
from --seed; identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import namedtuple
from dataclasses import asdict

import numpy as np

from . import jsonio
from .core_algebra import (
    EXHAUSTIVE_N,
    SizeCapError,
    StructuralError,
    _certified_form,
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


def _report(cfg, kind, x):
    """The validation report on x, the object a file of kind describes."""
    if kind == "algebra":
        return validate_algebra(x, max_n=cfg.max_size)
    if kind == "space":
        return validate_space(x)
    if kind == "morphism":
        return validate_space_morphism(x)
    return validate_hom(x)


def _valid(cfg, kind, x):
    report = _report(cfg, kind, x)
    if not report.ok:
        raise ValueError(f"input {kind} is invalid: {report.failures[0]}")
    return x


def _read(cfg, path, check=True):
    """The kind of the file at path and the object it describes.  A kind
    the command does not take is refused before anything is built.  The two
    spaces of a morphism and the two algebras of a hom are checked, and with
    check the object itself."""
    obj = jsonio.load(path)
    kind = jsonio.sniff_kind(obj)
    kinds = COMMANDS[cfg.command].kinds
    if kind not in kinds:
        raise StructuralError(f"{cfg.command} reads {' or '.join(kinds)} files, "
                              f"not {kind} files")
    if kind == "algebra":
        x = jsonio.algebra_from_dict(obj)
    elif kind == "space":
        x = jsonio.space_from_dict(obj)
    else:
        build, part = ((jsonio.morphism_from_dict, "space") if kind == "morphism"
                       else (jsonio.hom_from_dict, "algebra"))
        x = build(obj, os.path.dirname(path) or ".")
        _valid(cfg, part, x.source)
        _valid(cfg, part, x.target)
    return kind, _valid(cfg, kind, x) if check else x


def cmd_validate(cfg):
    report = _report(cfg, *_read(cfg, cfg.paths[0], check=False))
    _print_report(report, cfg.fmt)
    return 0 if report.ok else 1


def cmd_spectrum(cfg):
    space, points = skew_spectrum(_read(cfg, cfg.paths[0])[1])
    out = jsonio.space_to_dict(space)
    out.update(jsonio.points_to_dict(points))
    jsonio.dump(out)
    return 0


def cmd_dualize(cfg):
    algebra, sections = dual_algebra(_read(cfg, cfg.paths[0])[1])
    out = jsonio.algebra_to_dict(algebra)
    if cfg.with_sections:
        out.update(jsonio.sections_to_dict(sections))
    jsonio.dump(out)
    return 0


def cmd_roundtrip(cfg):
    kind, x = _read(cfg, cfg.paths[0])
    if kind == "algebra":
        image = _roundtrip_map(x)         # the checked map; the target is not printed
        if cfg.fmt == "json":
            jsonio.dump({"isomorphic": True, "size": x.n, "map": image.tolist()})
        else:
            print(f"isomorphic, |A|={x.n}")
    else:
        iso = space_roundtrip_iso(x)
        if cfg.fmt == "json":
            jsonio.dump({"isomorphic": True, "E": x.size_e, "B": x.size_b,
                         "g": list(iso.g.values), "h": list(iso.h.values)})
        else:
            print(f"isomorphic, |E|={x.size_e}, |B|={x.size_b}")
    return 0


def cmd_homs(cfg):
    A, B = (_read(cfg, path)[1] for path in cfg.paths)
    rows = []
    for f in enumerate_homs(A, B):
        rows.append({"map": list(f.map), "flags": asdict(classify_hom(f)),
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
    part_identity, pullback_part = decompose_morphism(_read(cfg, cfg.paths[0])[1])
    os.makedirs(cfg.out, exist_ok=True)
    for name, part in (("partial_identity", part_identity), ("pullback_part", pullback_part)):
        path = os.path.join(cfg.out, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            jsonio.dump(jsonio.morphism_to_dict(part), fh)
        print(path)
    return 0


def cmd_section(cfg):
    kind, x = _read(cfg, cfg.paths[0])
    if kind == "algebra":
        jsonio.dump({"choice": list(find_lattice_section(x).choice)})
    else:
        jsonio.dump({"section": list(find_global_section(x).points)})
    return 0


def cmd_generate(cfg):
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
    order, read off A's product form.  x <= y exactly when x is y restricted
    to supp x, so y covers x exactly when x is y with one digit dropped: for
    each digit of y, the element whose code is y's less that digit's."""
    form = _certified_form(A)
    y, b = np.nonzero(form.digits)
    x = form.rank[(form.digits @ form.radix)[y] - form.digits[y, b] * form.radix[b]]
    order = np.lexsort((y, x))
    return list(zip(x[order].tolist(), y[order].tolist()))


def cmd_export_dot(cfg):
    kind, x = _read(cfg, cfg.paths[0])
    if kind == "algebra":
        lines = (["digraph hasse {", "  rankdir=BT;"]
                 + [f'  n{a} [label="{a}"{" shape=doublecircle" if a == x.zero else ""}];'
                    for a in x.elements]
                 + [f"  n{a} -> n{c};" for a, c in _hasse_edges(x)])
    else:
        lines = (["graph fibration {"]
                 + [f'  b{b} [label="b{b}" shape=box];' for b in range(x.size_b)]
                 + [f'  e{e} [label="e{e}"];' for e in range(x.size_e)]
                 + [f"  e{e} -- b{b};" for e, b in enumerate(x.p)])
    print("\n".join(lines + ["}"]))
    return 0


# One row per command: its handler, its positional file arguments, the
# kinds of file each of them may be, and the options the handler reads.
Command = namedtuple("Command", "handler files kinds options")


OPTIONS = {
    "--seed": dict(type=int, default=0, help="seed for anything random"),
    "--max-size": dict(type=int, default=EXHAUSTIVE_N,
                       help="cap on n for the exhaustive report on an input algebra "
                            "that the certificate refuses"),
    "--format": dict(dest="fmt", choices=("json", "text"), default="text",
                     help="output format"),
    "--out": dict(required=True, help="output directory"),
    "--sections": dict(dest="with_sections", action="store_true",
                       help="embed the section labels in the output"),
    "--size-b": dict(type=int, default=2),
    "--max-fiber": dict(type=int, default=2),
    "--band": dict(choices=("none", "right", "left", "product"), default="none"),
    "--k-left": dict(type=int, default=2),
    "--k-right": dict(type=int, default=1),
    "--count": dict(type=int, default=1),
}

ONE_FILE, ALGEBRA_OR_SPACE = ("path",), ("algebra", "space")
COMMANDS = {
    "validate": Command(cmd_validate, ONE_FILE, ("algebra", "space", "morphism", "hom"),
                        ("--max-size", "--format")),
    "spectrum": Command(cmd_spectrum, ONE_FILE, ("algebra",), ("--max-size",)),
    "dualize": Command(cmd_dualize, ONE_FILE, ("space",), ("--sections",)),
    "roundtrip": Command(cmd_roundtrip, ONE_FILE, ALGEBRA_OR_SPACE, ("--max-size", "--format")),
    "homs": Command(cmd_homs, ("path0", "path1"), ("algebra",), ("--max-size", "--format")),
    "decompose": Command(cmd_decompose, ONE_FILE, ("morphism",), ("--out",)),
    "section": Command(cmd_section, ONE_FILE, ALGEBRA_OR_SPACE, ("--max-size",)),
    "generate": Command(cmd_generate, (), (), ("--seed", "--out", "--size-b", "--max-fiber",
                                               "--band", "--k-left", "--k-right", "--count")),
    "export-dot": Command(cmd_export_dot, ONE_FILE, ALGEBRA_OR_SPACE, ("--max-size",)),
}


class _CommandParser(argparse.ArgumentParser):
    """The parser of one command.  An option it does not take is a usage
    error under the command's own usage line: the first such option is
    named, with the value that follows it when OPTIONS gives that option
    one, as argparse may have read that value as the command's file.  Other
    stray arguments are left to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        option = next((arg for arg in extras if arg.startswith("-")), None)
        if option is not None:
            at = args.index(option) + 1
            takes_value = option in OPTIONS and OPTIONS[option].get("action") != "store_true"
            if takes_value and at < len(args):
                option += " " + args[at]
            self.error(f"unrecognized arguments: {option}")
        return namespace, extras


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewstone",
        description="Finite skew Boolean algebras with intersections and their dual spaces.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        for file in command.files:
            p.add_argument(file)
        for option in command.options:
            p.add_argument(option, **OPTIONS[option])
    return parser


def main(argv=None):
    cfg = build_parser().parse_args(argv)
    command = COMMANDS[cfg.command]
    cfg.paths = tuple(getattr(cfg, file) for file in command.files)
    try:
        return command.handler(cfg)
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
