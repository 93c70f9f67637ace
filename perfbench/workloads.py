"""The four workloads: inputs made from a seed, one timed operation, and the
checks on its output.

Every workload goes through a fixed list of shapes (fiber sizes and band
kinds) in every round; the seed only chooses how points are labelled, which
fiber each point lies in, and which table entries are mutated.  So the work
in a round is the same for every seed, while no two operations of a run see
value-equal inputs (except on survey, where reuse is the point).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import skewstone as sk

from oracles import (
    OPS,
    build_section_algebra,
    check_iso,
    check_lattice_section,
    check_report_on_mutant,
    check_section_algebra,
    check_space_iso,
    check_spectrum,
    sorted_labels,
    expected_handedness,
    fibers_of,
    first_violations,
    green_block_sizes,
    hom_count,
    is_hom,
    mutate,
    require,
    section_count,
    tables_of,
)

NO_CAP = float("inf")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_space(sizes, kind, rng):
    """Seeded labelling of a space with the given fiber sizes.  kind is
    "plain" or a band kind per fiber: "right", "left" or "grid" (the 2 x 2
    rectangular band, which needs fibers of 4 points)."""
    kinds = [kind] * len(sizes) if isinstance(kind, str) else list(kind)
    p = [b for b, s in enumerate(sizes) for _ in range(s)]
    rng.shuffle(p)
    size_e = len(p)
    if kinds[0] == "plain":
        return sk.make_space(size_e, len(sizes), p)
    band = [[None] * size_e for _ in range(size_e)]
    for f, k in zip(fibers_of(SimpleNamespace(size_b=len(sizes), p=p)), kinds):
        pos = {e: i for i, e in enumerate(f)}
        for x in f:
            for y in f:
                if k == "grid":
                    band[x][y] = f[pos[x] // 2 * 2 + pos[y] % 2]
                else:
                    band[x][y] = y if k == "right" else x
    return sk.make_space(size_e, len(sizes), p, band)


def space_key(sp):
    """The section algebra depends only on how E splits into fibers and on
    the bands, not on the names of base points."""
    fib = sorted(tuple(f) for f in fibers_of(sp))
    band = None if sp.band is None else tuple(sp.band[x][y] for f in fib for x in f for y in f)
    return tuple(fib), band


def fresh_space(sizes, kind, rng, seen, key=space_key):
    """A labelling whose key (by default: its section algebra) is not in
    ``seen`` yet."""
    for _ in range(1000):
        sp = make_space(sizes, kind, rng)
        k = key(sp)
        if k not in seen:
            seen.add(k)
            return sp
    raise RuntimeError(f"no fresh labelling left for {sizes} {kind}")


def own_algebra(sp):
    """Section algebra built by the benchmark (not by dual_algebra), as the
    program's value plus the benchmark's own tables."""
    t, zero = build_section_algebra(sp)
    A = sk.make_algebra(len(t["meet"]), zero, *(t[name].tolist() for name in OPS))
    return A, t


# ---------------------------------------------------------------------------
# The duality pipeline shared by ladder and survey
# ---------------------------------------------------------------------------

def pipeline(sp, tr, survey):
    """space -> section algebra -> laws -> Green / handedness -> spectrum
    -> both round trips -> lattice sections when right-handed.  survey adds
    the pullback decomposition, as scripts/duality_survey.py runs it."""
    out = {}
    A, labels = tr.call("spaces_sections.dual_algebra", sk.dual_algebra, sp)
    out["algebra"], out["labels"] = A, labels
    out["report"] = tr.call("core_algebra.validate_algebra", sk.validate_algebra, A, max_n=A.n)
    if not survey:
        out["green"] = tr.call("core_algebra.green_partitions", sk.green_partitions, A)
    out["hand"] = tr.call("core_algebra.handedness", sk.handedness, A)
    out["spectrum"] = tr.call("ideals_spectra.skew_spectrum", sk.skew_spectrum, A)
    out["aiso"] = tr.call("morphisms_duality.algebra_roundtrip_iso", sk.algebra_roundtrip_iso, A)
    out["siso"] = tr.call("morphisms_duality.space_roundtrip_iso", sk.space_roundtrip_iso, sp)
    if survey:
        out["decomp"] = tr.call("core_algebra.second_decomposition_check",
                                sk.second_decomposition_check, A)
    if out["hand"] in ("right", "commutative"):
        out["sections"] = tr.call("lattice_sections.section_equivalence_check",
                                  sk.section_equivalence_check, A)
    return out


def check_pipeline(sp, out, what):
    A = out["algebra"]
    sizes = [len(f) for f in fibers_of(sp)]
    require(A.n == section_count(sizes), f"{what}: n = {A.n}, expected {section_count(sizes)}")
    t = tables_of(A)
    check_section_algebra(sp, t, A.zero, out["labels"])
    require(out["report"].ok and not out["report"].failures,
            f"{what}: section algebra fails {out['report'].failures[:1]}")
    hand = expected_handedness(sp)
    require(out["hand"] == hand, f"{what}: handedness {out['hand']}, expected {hand}")
    if "green" in out:
        got = [sorted(len(b) for b in part.blocks) for part in out["green"]]
        require(got == list(green_block_sizes(sp)), f"{what}: Green classes have wrong sizes")
    space, points = out["spectrum"]
    check_spectrum(sp, space, points, f"{what}: spectrum")
    f = out["aiso"]
    check_iso(t, A.zero, tables_of(f.target), f.target.zero, f.map, f"{what}: algebra round trip")
    m = out["siso"]
    require(m.g.domain == tuple(range(sp.size_e)) and m.h.domain == tuple(range(sp.size_b)),
            f"{what}: space round trip is not total")
    check_space_iso(sp, m.target, m.g.values, m.h.values, f"{what}: space round trip")
    if "decomp" in out:
        require(out["decomp"] is True, f"{what}: pullback decomposition fails")
    if hand in ("right", "commutative"):
        require(out.get("sections") is True, f"{what}: lattice-section equivalence fails")


def pipeline_counts(out):
    n = out["algebra"].n
    return {"spaces_sections.table_entries": 4 * n * n,
            "core_algebra.validate_algebra.law_instances": law_instances(n),
            "ideals_spectra.spectrum_points": out["spectrum"][0].size_e}


def law_instances(n):
    """Axiom instances of one exhaustive check, computed from n: four unary
    laws, eight binary and six ternary ones."""
    return 4 * n + 8 * n ** 2 + 6 * n ** 3


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

# Stops at n = 256: the n = 512 step alone takes 35-47 s here, so a run
# could hold one pass, and 22 such runs a third of the benchmark's time
# (README).  Add it back, and n = 1024, with a fast validator.
LADDER = (
    ("prod22-n125", (4, 4, 4), "grid"),
    ("prod22-n25", (4, 4), "grid"),
    ("plain-n64", (3, 3, 3), "plain"),
    ("plain-n256", (3, 3, 3, 3), "plain"),
    ("left-n64", (3, 3, 3), "left"),
    ("left-n125", (4, 4, 4), "left"),
    ("plain-n128", (3, 3, 3, 1), "plain"),
)

LADDER_STAGES = (
    "spaces_sections.dual_algebra", "core_algebra.validate_algebra",
    "core_algebra.green_partitions", "core_algebra.handedness",
    "ideals_spectra.skew_spectrum", "morphisms_duality.algebra_roundtrip_iso",
    "morphisms_duality.space_roundtrip_iso", "lattice_sections.section_equivalence_check",
)


class Ladder:
    """One instance per step of a fixed size ladder, through the whole
    pipeline.  One operation is a pass over the whole ladder: single
    instances of 0.5 s swung by up to 40% with this host's speed, so a
    median over a few of them was no steady figure (README).  Each instance
    gets its own span, named ``ladder.<instance>``."""

    round_seconds = 7.0

    def __init__(self, workdir):
        self.seen = set()

    def inputs(self, rng):
        return [("ladder", [(name, fresh_space(sizes, kind, rng, self.seen))
                            for name, sizes, kind in LADDER])]

    def warm_inputs(self, rng):
        return [("warm", [("warm", make_space((2, 1), "plain", rng))])]

    def run(self, inp, tr):
        return [tr.call(f"ladder.{name}", pipeline, sp, tr, False) for name, sp in inp[1]]

    def check(self, inp, out):
        for (name, sp), result in zip(inp[1], out):
            check_pipeline(sp, result, name)

    def counts(self, inp, out):
        total = {}
        for result in out:
            for k, v in pipeline_counts(result).items():
                total[k] = total.get(k, 0) + v
        return total


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

def _survey_shapes():
    """Every shape with at most four base points, fibers of 1..4 points and
    12 <= n <= 54, once plain and once per band kind; the largest grid shape
    (n = 125); and shapes that mix band kinds across fibers.
    Shapes with fewer than 20 labellings are left out so that a run never
    runs short of fresh instances."""
    from itertools import combinations_with_replacement
    from math import factorial, prod

    shapes = []
    for b in range(1, 5):
        for sizes in combinations_with_replacement((4, 3, 2, 1), b):
            labellings = factorial(sum(sizes)) // prod(factorial(s) for s in sizes)
            if 12 <= section_count(sizes) <= 54 and labellings >= 20:
                shapes += [(sizes, kind) for kind in ("plain", "right", "left")]
    shapes += [((4, 4), "grid"), ((4, 4, 4), "grid"),
               ((4, 2), ("grid", "left")), ((4, 3), ("grid", "right")),
               ((3, 2, 2), ("left", "right", "right")), ((2, 2, 2), ("right", "left", "left")),
               ((4, 1, 1), ("grid", "left", "right"))]
    return tuple(shapes)


SURVEY_SHAPES = _survey_shapes()
MUTATE_MAX_N = 27


class Survey:
    """A sweep of distinct small instances of every shape and band kind,
    with one-entry mutations of the small tables."""

    round_seconds = 5.0

    def __init__(self, workdir):
        self.seen = set()

    def inputs(self, rng):
        out = []
        for sizes, kind in SURVEY_SHAPES:
            # distinct spaces; their algebras may recur, which is the reuse
            # this workload measures
            sp = fresh_space(sizes, kind, rng, self.seen, key=lambda s: (s.p, s.band))
            mutant = None
            if section_count(sizes) <= MUTATE_MAX_N:
                t, zero = build_section_algebra(sp)
                while True:
                    m = mutate(t, rng)
                    if first_violations(m, zero):
                        break
                mutant = (sk.make_algebra(len(m["meet"]), zero, *(m[k].tolist() for k in OPS)), m)
            out.append((f"{kind}-{sizes}", sp, mutant))
        return out

    def warm_inputs(self, rng):
        return [("warm", make_space((1, 1), "plain", rng), None)]

    def run(self, inp, tr):
        out = pipeline(inp[1], tr, survey=True)
        if inp[2] is not None:
            out["mutant"] = tr.call("core_algebra.validate_algebra", sk.validate_algebra, inp[2][0])
        return out

    def check(self, inp, out):
        check_pipeline(inp[1], out, inp[0])
        if inp[2] is not None:
            check_report_on_mutant(inp[2][1], inp[2][0].zero, out["mutant"], f"{inp[0]} mutant")

    def counts(self, inp, out):
        c = pipeline_counts(out)
        if inp[2] is not None:
            c["core_algebra.validate_algebra.law_instances"] += law_instances(inp[2][0].n)
        return c


# ---------------------------------------------------------------------------
# homs
# ---------------------------------------------------------------------------

HOM_PAIRS = (
    (((2, 2, 2), "plain"), ((3, 2), "plain")),
    (((2, 2, 2), "plain"), ((3, 3), "right")),
    (((3, 2, 1), "plain"), ((3, 3), "plain")),
    (((3, 2, 1), "plain"), ((4, 4), "grid")),
    (((3, 1, 1), "plain"), ((2, 2, 1), "plain")),
    (((3, 3, 1), "plain"), ((3, 2, 1), "plain")),
    (((3, 3, 1), "plain"), ((4, 4), "grid")),
    (((3, 3, 1), "plain"), ((3, 3), "plain")),
    (((4, 4), "grid"), ((4, 4), "grid")),
    (((4, 2), ("grid", "left")), ((4, 4), "grid")),
    (((3, 3), "left"), ((3, 3), "left")),
    (((2, 2, 1), "left"), ((3, 2), "left")),
    (((2, 2, 1), "left"), ((2, 2, 2), "left")),
    (((2, 2, 1), "left"), ((3, 3, 3), "plain")),
    (((2, 2, 2), "left"), ((4, 2), ("grid", "left"))),
)


class Homs:
    """Ordered pairs of section algebras; one operation is a pair's whole
    hom-set, classified, with its dual space morphisms."""

    round_seconds = 7.5
    max_rounds = 5      # the (2,2,1)-left shape has 15 labellings, 3 used a round

    def __init__(self, workdir):
        self.seen = set()

    def _pair(self, x, y, rng, seen):
        sx, sy = fresh_space(*x, rng, seen), fresh_space(*y, rng, seen)
        return (f"{x[1]}-{x[0]}>{y[1]}-{y[0]}", sx, sy) + own_algebra(sx) + own_algebra(sy)

    def inputs(self, rng):
        return [self._pair(x, y, rng, self.seen) for x, y in HOM_PAIRS]

    def warm_inputs(self, rng):
        return [self._pair(((1,), "plain"), ((2,), "plain"), rng, set())]

    def run(self, inp, tr):
        _, _, _, A, _, B, _ = inp
        homs = tr.call("morphisms_duality.enumerate_homs", sk.enumerate_homs, A, B,
                       max_candidates=NO_CAP)
        flags = [tr.call("morphisms_duality.classify_hom", sk.classify_hom, f) for f in homs]
        dual = [tr.call("morphisms_duality.check_variant_dualities", sk.check_variant_dualities, f)
                for f in homs]
        spec_a = tr.call("ideals_spectra.skew_spectrum", sk.skew_spectrum, A)[0]
        spec_b = tr.call("ideals_spectra.skew_spectrum", sk.skew_spectrum, B)[0]
        morphs = tr.call("morphisms_duality.enumerate_space_morphisms",
                         sk.enumerate_space_morphisms, spec_b, spec_a)
        return {"homs": homs, "flags": flags, "dual": dual, "morphisms": morphs,
                "spectra": (spec_a, spec_b)}

    def check(self, inp, out):
        what, sx, sy, A, ta, B, tb = inp
        want = hom_count(sx, sy)
        maps = [f.map for f in out["homs"]]
        require(len(maps) == want, f"{what}: {len(maps)} homomorphisms, expected {want}")
        require(all(a < b for a, b in zip(maps, maps[1:])), f"{what}: maps repeat or are unsorted")
        for m in maps:
            require(is_hom(ta, A.zero, tb, B.zero, m), f"{what}: {m} is not a homomorphism")
        require(all(d is True for d in out["dual"]), f"{what}: a variant duality fails")
        require(len(out["flags"]) == want, f"{what}: not every homomorphism classified")
        require(len(out["morphisms"]) == want,
                f"{what}: {len(out['morphisms'])} dual space morphisms, expected {want}")

    def counts(self, inp, out):
        return {"morphisms_duality.homs_found": len(out["homs"]),
                "ideals_spectra.spectrum_points": sum(s.size_e for s in out["spectra"])}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def child_env(root):
    """Environment of every child process: the checkout's sources only,
    fixed hashing, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


BIG = str(10 ** 18)


class Cli:
    """`python -m skewstone` as one child process at a time; every command
    runs twice on the same files, so its bytes can be compared."""

    round_seconds = 11.0

    def __init__(self, workdir):
        self.workdir = workdir
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = child_env(self.root)
        self.seen = set()
        self.rounds = 0
        self.first_output = {}

    def _write(self, directory, name, obj):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def _space_file(self, directory, name, sp):
        obj = {"E": sp.size_e, "B": sp.size_b, "p": list(sp.p)}
        if sp.band is not None:
            obj["band"] = [list(r) for r in sp.band]
        return self._write(directory, name, obj)

    def _algebra_file(self, directory, name, sp):
        t, zero = build_section_algebra(sp)
        obj = {"n": len(t["meet"]), "zero": zero, **{k: t[k].tolist() for k in OPS}}
        return self._write(directory, name, obj), t

    def inputs(self, rng):
        directory = os.path.join(self.workdir, f"round{self.rounds}")
        self.rounds += 1
        os.makedirs(directory, exist_ok=True)
        new = lambda sizes, kind: fresh_space(sizes, kind, rng, self.seen)
        big, grid, plain, left = (new((3, 3, 3, 3, 1), "plain"), new((4, 4, 4), "grid"),
                                  new((3, 3, 3), "plain"), new((3, 3, 3), "left"))
        hx, hy = new((2, 1, 1), "plain"), new((4, 4), "grid")
        grid_alg, _ = self._algebra_file(directory, "grid_algebra.json", grid)
        plain_alg, plain_t = self._algebra_file(directory, "plain_algebra.json", plain)
        hx_alg, hx_t = self._algebra_file(directory, "hom_source.json", hx)
        hy_alg, hy_t = self._algebra_file(directory, "hom_target.json", hy)
        big_f = self._space_file(directory, "big_space.json", big)
        grid_f = self._space_file(directory, "grid_space.json", grid)
        left_f = self._space_file(directory, "left_space.json", left)
        calls = (
            ("dualize", ["dualize", "--sections", big_f], big),
            ("dualize", ["dualize", "--sections", grid_f], grid),
            ("validate", ["validate", "--max-size", "125", grid_alg], None),
            ("validate", ["validate", big_f], None),
            ("roundtrip", ["roundtrip", "--format", "json", plain_alg], plain),
            ("roundtrip", ["roundtrip", "--format", "json", left_f], left),
            ("spectrum", ["spectrum", plain_alg], plain),
            ("homs", ["homs", "--format", "json", "--max-size", BIG, hx_alg, hy_alg],
             (hx, hy, hx_t, hy_t)),
            ("section", ["section", plain_alg], (plain, plain_t)),
            ("section", ["section", left_f], left),
        )
        # each invocation twice in a row; the second compares bytes with the first
        return [(cmd, args, ctx, rep, sum(os.path.getsize(a) for a in args if a.endswith(".json")))
                for cmd, args, ctx in calls for rep in (0, 1)]

    def warm_inputs(self, rng):
        return []

    def run(self, inp, tr):
        cmd, args = inp[0], inp[1]
        proc = tr.call(f"cli.{cmd}", subprocess.run,
                       [sys.executable, "-m", "skewstone", *args], env=self.env,
                       cwd=self.workdir, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return proc

    def check(self, inp, out):
        cmd, args, ctx, rep, _ = inp
        what = " ".join(["skewstone", cmd] + [os.path.basename(a) for a in args[1:]])
        require(out.returncode == 0, f"{what}: exit {out.returncode}: {out.stderr[-300:]!r}")
        key = tuple(args)
        if rep == 1:
            require(out.stdout == self.first_output.pop(key),
                    f"{what}: output differs between two runs")
            return
        self.first_output[key] = out.stdout
        text = out.stdout.decode()
        if cmd == "validate":
            require(text == "ok\n", f"{what}: printed {text[:80]!r}")
            return
        obj = json.loads(text)
        if cmd == "dualize":
            sp = ctx
            t = {k: np.asarray(obj[k], dtype=np.int64) for k in OPS}
            require(obj["n"] == section_count(len(f) for f in fibers_of(sp)), f"{what}: wrong n")
            check_section_algebra(sp, t, obj["zero"], [tuple(s) for s in obj["sections"]])
        elif cmd == "roundtrip" and "map" in obj:
            n = section_count(len(f) for f in fibers_of(ctx))
            require(obj["isomorphic"] is True and obj["size"] == n
                    and sorted(obj["map"]) == list(range(n)), f"{what}: not a bijection")
        elif cmd == "roundtrip":
            require(obj["isomorphic"] is True and (obj["E"], obj["B"]) == (ctx.size_e, ctx.size_b)
                    and sorted(obj["g"]) == list(range(ctx.size_e))
                    and sorted(obj["h"]) == list(range(ctx.size_b)), f"{what}: not a bijection")
        elif cmd == "spectrum":
            space = SimpleNamespace(size_e=obj["E"], size_b=obj["B"], p=obj["p"], band=obj["band"])
            check_spectrum(ctx, space, obj["points"], what)
        elif cmd == "homs":
            hx, hy, tx, ty = ctx
            rows = obj["homs"]
            want = hom_count(hx, hy)
            require(len(rows) == want, f"{what}: {len(rows)} rows, expected {want}")
            maps = [tuple(r["map"]) for r in rows]
            require(all(a < b for a, b in zip(maps, maps[1:])), f"{what}: maps unsorted")
            require(all(is_hom(tx, 0, ty, 0, m) for m in maps), f"{what}: a row is no homomorphism")
            require(all(r["dual_agrees"] is True for r in rows), f"{what}: duality disagrees")
        elif cmd == "section" and "choice" in obj:
            sp, t = ctx
            check_lattice_section(sp, t, 0, sorted_labels(sp), obj["choice"], what)
        else:
            require(sorted(ctx.p[e] for e in obj["section"]) == list(range(ctx.size_b)),
                    f"{what}: not one point per fiber")

    def counts(self, inp, out):
        cmd = inp[0]
        c = {"jsonio.bytes_out": len(out.stdout), "jsonio.bytes_in": inp[4]}
        if cmd == "dualize":
            n = section_count(len(f) for f in fibers_of(inp[2]))
            c["spaces_sections.table_entries"] = 4 * n * n
        return c


WORKLOADS = {"ladder": Ladder, "survey": Survey, "homs": Homs, "cli": Cli}
