"""Self-tests of the benchmark's oracles and checkers.

    python3 -m pytest perfbench -q

The oracles are checked against brute force, and every workload's checker
must reject a deliberately wrong output.
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import skewstone as sk  # noqa: E402

import oracles as o  # noqa: E402
import workloads as w  # noqa: E402
from run import per_layer_units  # noqa: E402
from tracing import Tracer  # noqa: E402


def surjections(max_e):
    """Every surjection p : E -> B with |E| <= max_e, B = {0..k-1}."""
    for e in range(1, max_e + 1):
        for p in product(range(e), repeat=e):
            if set(p) == set(range(max(p) + 1)):
                yield sk.make_space(e, max(p) + 1, p)


def shapes(max_e):
    """One surjection per multiset of fiber sizes, |E| <= max_e."""
    seen = {}
    for sp in surjections(max_e):
        seen.setdefault(tuple(sorted(len(f) for f in o.fibers_of(sp))), sp)
    return list(seen.values())


def banded(sizes, kind, seed=0):
    return w.make_space(sizes, kind, random.Random(seed))


def brute_hom_count(x, y):
    """Maps Sec x -> Sec y preserving zero and the four operations, by trying
    all of them at once."""
    ta, za = o.build_section_algebra(x)
    tb, zb = o.build_section_algebra(y)
    na, nb = len(ta["meet"]), len(tb["meet"])
    maps = np.array(list(product(range(nb), repeat=na)), dtype=np.int64).reshape(-1, na)
    ok = maps[:, za] == zb
    for name in o.OPS:
        for a in range(na):
            for b in range(na):
                ok &= maps[:, ta[name][a, b]] == tb[name][maps[:, a], maps[:, b]]
    return int(ok.sum())


TINY = [banded(s, k) for s, k in (((1,), "plain"), ((2,), "plain"), ((1, 1), "plain"),
                                  ((3,), "plain"), ((2, 1), "plain"), ((1, 1, 1), "plain"),
                                  ((2,), "left"), ((3,), "left"), ((2, 1), "left"),
                                  ((4,), "grid"), ((2,), "right"))]


@pytest.mark.parametrize("x", TINY, ids=lambda s: str(o.fiber_classes(s)))
def test_hom_count_closed_form_matches_brute_force(x):
    pairs = 0
    for y in TINY:
        na = o.section_count(len(f) for f in o.fibers_of(x))
        nb = o.section_count(len(f) for f in o.fibers_of(y))
        if nb ** na <= 300_000:
            assert o.hom_count(x, y) == brute_hom_count(x, y), (x, y)
            pairs += 1
    assert pairs >= 3


def test_n_formula_on_all_surjections_up_to_five_points():
    count = 0
    for sp in surjections(5):
        sizes = [len(f) for f in o.fibers_of(sp)]
        n = o.section_count(sizes)
        assert len(o.brute_sections(sp)) == n
        A, labels = sk.dual_algebra(sp)
        assert A.n == n
        o.check_section_algebra(sp, o.tables_of(A), A.zero, labels)
        count += 1
    assert count == 1 + 3 + 13 + 75 + 541


def test_space_morphism_count_on_all_shapes_up_to_five_points():
    plain = shapes(5)
    assert len(plain) == 18
    for src in plain:
        for dst in plain:
            if (dst.size_e + 1) ** src.size_e <= 8000:
                assert o.space_morphism_count(src, dst) == o.brute_space_morphisms(src, dst)


@pytest.mark.parametrize("src,dst", [
    (((2, 1), "left"), ((2,), "left")), (((4,), "grid"), ((4,), "grid")),
    (((4, 1), ("grid", "right")), ((2,), "right")), (((3,), "left"), ((2, 1), "left")),
    (((2, 2), "right"), ((2,), "right")), (((4,), "grid"), ((2,), "left")),
])
def test_space_morphism_count_on_banded_spaces(src, dst):
    s, d = banded(*src, seed=1), banded(*dst, seed=2)
    assert o.space_morphism_count(s, d) == o.brute_space_morphisms(s, d)


def test_law_oracle_agrees_with_program_on_mutants():
    rng = random.Random(7)
    for sizes, kind in (((2, 1), "plain"), ((4,), "grid"), ((2, 2), "left"), ((1, 1, 1), "plain")):
        t, zero = o.build_section_algebra(banded(sizes, kind))
        assert o.first_violations(t, zero) == {}
        for _ in range(10):
            m = o.mutate(t, rng)
            A = sk.make_algebra(len(m["meet"]), zero, *(m[k].tolist() for k in o.OPS))
            report = sk.validate_algebra(A)
            if o.first_violations(m, zero):
                o.check_report_on_mutant(m, zero, report, "mutant")
            else:
                assert report.ok


# ---------------------------------------------------------------------------
# Each checker rejects a wrong output
# ---------------------------------------------------------------------------

def _run(workload, inp):
    out = workload.run(inp, Tracer())
    workload.check(inp, out)
    return out


def _rejects(workload, inp, out):
    with pytest.raises(o.CheckFailed):
        workload.check(inp, out)


def test_pipeline_checker_rejects_wrong_outputs():
    ladder = w.Ladder(None)
    sp = banded((3, 2), "plain", seed=3)
    inp = ("ladder", [("small", sp)])
    out = _run(ladder, inp)[0]
    iso = out["aiso"]
    broken = list(iso.map)
    broken[1] = broken[0]
    _rejects(ladder, inp, [dict(out, aiso=replace(iso, map=tuple(broken)))])
    swapped = list(iso.map)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    _rejects(ladder, inp, [dict(out, aiso=replace(iso, map=tuple(swapped)))])
    _rejects(ladder, inp, [dict(out, hand="left")])
    m = out["siso"]
    g = list(m.g.values)
    other = next(e for e in range(sp.size_e) if sp.p[e] != sp.p[0])
    g[0], g[other] = g[other], g[0]
    _rejects(ladder, inp, [dict(out, siso=replace(m, g=replace(m.g, values=tuple(g))))])
    space, points = out["spectrum"]
    _rejects(ladder, inp, [dict(out, spectrum=(space, points[:-1]))])
    _rejects(ladder, inp, [dict(out, report=replace(out["report"], ok=False))])
    _rejects(ladder, inp, [dict(out, sections=False)])
    A = out["algebra"]
    meet = [list(r) for r in A.meet_table]
    meet[1][2] = (meet[1][2] + 1) % A.n
    wrong = sk.make_algebra(A.n, A.zero, meet, A.join_table, A.diff_table, A.cap_table)
    _rejects(ladder, inp, [dict(out, algebra=wrong)])
    labels = list(out["labels"])
    labels[1], labels[2] = labels[2], labels[1]
    _rejects(ladder, inp, [dict(out, labels=tuple(labels))])
    d, l, r = out["green"]
    _rejects(ladder, inp, [dict(out, green=(l, d, r))])


def test_survey_checker_rejects_wrong_reports():
    survey = w.Survey(None)
    inp = next(i for i in survey.inputs(random.Random(4)) if i[2] is not None)
    out = _run(survey, inp)
    report = out["mutant"]
    _rejects(survey, inp, dict(out, mutant=replace(report, ok=True, failures=())))
    law, witness = report.failures[0]
    moved = ((law, tuple(v + 1 if v + 1 < inp[2][0].n else 0 for v in witness)),)
    _rejects(survey, inp, dict(out, mutant=replace(report, failures=moved + report.failures[1:])))
    _rejects(survey, inp, dict(out, decomp=False))


def test_homs_checker_rejects_wrong_outputs():
    homs = w.Homs(None)
    inp = homs._pair(((2, 1), "plain"), ((2, 1), "left"), random.Random(5), set())
    out = _run(homs, inp)
    hs = out["homs"]
    assert len(hs) == o.hom_count(inp[1], inp[2]) > 2
    _rejects(homs, inp, dict(out, homs=hs[:-1]))
    _rejects(homs, inp, dict(out, homs=hs[::-1]))
    not_a_hom = replace(hs[1], map=(1,) * len(hs[1].map))
    _rejects(homs, inp, dict(out, homs=hs[:1] + (not_a_hom,) + hs[2:]))
    _rejects(homs, inp, dict(out, dual=[False] + out["dual"][1:]))
    _rejects(homs, inp, dict(out, morphisms=out["morphisms"][1:]))


def test_cli_checker_rejects_wrong_outputs(tmp_path):
    cli = w.Cli(str(tmp_path))
    inputs = cli.inputs(random.Random(6))
    by_cmd = {}
    for inp in inputs:
        if inp[0] == "dualize" and "grid_space.json" not in inp[1][-1]:
            continue    # the n = 512 dualize is covered by the benchmark itself
        out = _run(cli, inp)
        by_cmd.setdefault((inp[0], inp[3]), (inp, out))
    inp, out = by_cmd[("homs", 0)]
    cli.first_output.clear()
    obj = json.loads(out.stdout)
    obj["homs"] = obj["homs"][:-1]
    fake = subprocess.CompletedProcess(out.args, 0, json.dumps(obj).encode(), b"")
    _rejects(cli, inp, fake)
    obj = json.loads(out.stdout)
    obj["homs"][1]["map"] = [0] * len(obj["homs"][1]["map"])
    _rejects(cli, inp, subprocess.CompletedProcess(out.args, 0, json.dumps(obj).encode(), b""))
    _rejects(cli, inp, subprocess.CompletedProcess(out.args, 1, out.stdout, b"error"))
    cli.first_output[tuple(inp[1])] = out.stdout
    repeat = inputs[inputs.index(inp) + 1]
    _rejects(cli, repeat, subprocess.CompletedProcess(out.args, 0, b"{}", b""))
    inp, out = by_cmd[("dualize", 0)]
    obj = json.loads(out.stdout)
    obj["join"][1][2] = (obj["join"][1][2] + 1) % obj["n"]
    _rejects(cli, inp, subprocess.CompletedProcess(out.args, 0, json.dumps(obj).encode(), b""))
    inp, out = by_cmd[("section", 0)]
    obj = json.loads(out.stdout)
    if "choice" in obj:
        obj["choice"] = obj["choice"][::-1]
    else:
        obj["section"] = obj["section"][:-1]
    _rejects(cli, inp, subprocess.CompletedProcess(out.args, 0, json.dumps(obj).encode(), b""))


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "wall_s", "cpu_s", "op_p50_ms", "peak_rss_mib"]
    assert {x["name"] for x in spec["workloads"]} <= set(w.WORKLOADS)
