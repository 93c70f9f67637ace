"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
check is exact; no tolerances are involved anywhere.
"""

import itertools

import numpy as np
import pytest

from catalog import boolean_algebra, one_element, primitive_right, right_three
from definitions import partial_map_oracle_tables
from helpers import (
    all_surjection_spaces,
    corpus_params,
    seeded_rect_space,
    small_test_algebras,
)
from oracles import law_holds, tables_of
from skewstone import (
    algebra_roundtrip_iso,
    check_variant_dualities,
    compose_homs,
    compose_space_morphisms,
    dual_algebra,
    dual_of_hom,
    enumerate_homs,
    enumerate_space_morphisms,
    from_space_pair,
    handedness,
    identity_hom,
    identity_space_morphism,
    left_band,
    make_algebra,
    partial_map_algebra,
    product_band,
    random_space,
    right_band,
    second_decomposition_check,
    section_equivalence_check,
    skew_spectrum,
    space_roundtrip_iso,
    spaces_isomorphic,
    to_space_pair,
    validate_algebra,
    validate_space_morphism,
)
from skewstone.cli import main as cli_main
from skewstone.lattice_sections import find_lattice_section


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_spaces():
    out = []
    for i in range(200):
        size_b, max_fiber, kind = corpus_params(i)
        out.append(random_space(size_b, max_fiber, seed=1000 + i, band=kind))
    return out


@pytest.fixture(scope="module")
def corpus_algebras(corpus_spaces):
    algebras = [dual_algebra(sp)[0] for sp in corpus_spaces]
    for x_size, y_size in ((1, 1), (1, 2), (2, 2)):
        for band in (right_band(y_size), left_band(y_size)):
            algebras.append(partial_map_algebra(x_size, y_size, band)[0])
    algebras.extend(A for _, A in small_test_algebras())
    return algebras


MUTATIONS = [
    ("three", "meet", 1, 2, 1, "absorb_join_over_meet_right"),
    ("three", "meet", 1, 1, 0, "meet_idempotent"),
    ("three", "join", 1, 1, 0, "join_idempotent"),
    ("three", "join", 0, 1, 0, "zero_neutral_join"),
    ("three", "join", 1, 0, 0, "zero_neutral_join"),
    ("three", "cap", 1, 2, 1, "cap_is_lower_bound"),
    ("three", "cap", 1, 1, 0, "cap_idempotent"),
    ("three", "diff", 1, 2, 1, "complement_meet_zero"),
    ("three", "diff", 1, 0, 0, "complement_join_restore"),
    ("three", "diff", 2, 1, 2, "complement_meet_zero"),
    ("bool4", "meet", 1, 3, 3, "absorb_meet_over_join_left"),
    ("bool4", "join", 1, 2, 1, "absorb_meet_over_join_right"),
    ("bool4", "meet", 3, 3, 0, "meet_idempotent"),
    ("bool4", "cap", 1, 2, 3, "cap_is_lower_bound"),
    ("bool4", "diff", 3, 1, 3, "complement_meet_zero"),
    ("bool4", "join", 0, 3, 0, "zero_neutral_join"),
    ("bool4", "cap", 2, 3, 1, "cap_is_lower_bound"),
    ("right4", "meet", 1, 2, 1, "absorb_join_over_meet_right"),
    ("right4", "join", 2, 3, 3, "absorb_meet_over_join_left"),
    ("right4", "cap", 1, 3, 1, "cap_is_lower_bound"),
]


def _mutated(base_name, table, i, j, value):
    base = {"three": right_three(), "bool4": boolean_algebra(2),
            "right4": primitive_right(3)}[base_name]
    tables = {name: getattr(base, name + "_table").tolist()
              for name in ("meet", "join", "diff", "cap")}
    tables[table][i][j] = value
    return make_algebra(base.n, base.zero, tables["meet"], tables["join"],
                        tables["diff"], tables["cap"])


def test_criterion_01_axioms(corpus_algebras):
    problems = []
    for name, A in (("three", right_three()), ("bool4", boolean_algebra(2)),
                    ("one", one_element())):
        if not validate_algebra(A).ok:
            problems.append(f"{name} rejected")
    for k, A in enumerate(corpus_algebras):
        if not validate_algebra(A, max_n=128).ok:
            problems.append(f"corpus[{k}] rejected")
    assert len(MUTATIONS) == 20
    for base_name, table, i, j, value, expected_law in MUTATIONS:
        bad = _mutated(base_name, table, i, j, value)
        rep = validate_algebra(bad)
        if rep.ok:
            problems.append(f"mutation {base_name}.{table}[{i}][{j}]={value} accepted")
            continue
        laws = [law for law, _ in rep.failures]
        if expected_law not in laws:
            problems.append(f"mutation {base_name}.{table}[{i}][{j}] missing {expected_law}")
        for law, witness in rep.failures:
            if law_holds(tables_of(bad), bad.zero, law, witness):
                problems.append(f"witness for {law} at {witness} is not genuine")
    report(1, "axiom validation over corpus and mutants", not problems,
           "; ".join(problems[:3]))


def test_criterion_02_two_point_spectra():
    sp3, _ = skew_spectrum(right_three())
    sp4, _ = skew_spectrum(boolean_algebra(2))
    ok = (sp3.size_e, sp3.size_b) == (2, 1) and (sp4.size_e, sp4.size_b) == (2, 2)
    report(2, "two-point spectra over bases of size 1 and 2", ok,
           f"got {(sp3.size_e, sp3.size_b)} and {(sp4.size_e, sp4.size_b)}")


def test_criterion_03_object_roundtrip_algebra_side():
    problems = []
    for sp in all_surjection_spaces(5):
        A, _ = dual_algebra(sp)
        try:
            algebra_roundtrip_iso(A)
        except RuntimeError as exc:
            problems.append(f"plain |E|={sp.size_e}: {exc}")
    for i in range(100):
        sp = seeded_rect_space(i)
        A, _ = dual_algebra(sp)
        try:
            algebra_roundtrip_iso(A)
        except RuntimeError as exc:
            problems.append(f"rect seed {i}: {exc}")
    report(3, "algebra round trip on all small and 100 seeded instances",
           not problems, "; ".join(problems[:3]))


def test_criterion_04_object_roundtrip_space_side():
    problems = []
    for sp in all_surjection_spaces(6):
        try:
            iso = space_roundtrip_iso(sp)
            if not validate_space_morphism(iso).ok:
                problems.append(f"plain |E|={sp.size_e} invalid square")
        except RuntimeError as exc:
            problems.append(f"plain |E|={sp.size_e}: {exc}")
    for i in range(100):
        sp = seeded_rect_space(i)
        try:
            iso = space_roundtrip_iso(sp)
            if not validate_space_morphism(iso).ok:
                problems.append(f"rect seed {i} invalid square")
        except RuntimeError as exc:
            problems.append(f"rect seed {i}: {exc}")
    report(4, "space round trip on all small and 100 seeded instances",
           not problems, "; ".join(problems[:3]))


def test_criterion_05_morphism_duality_counts():
    problems = []
    three = right_three()
    homs = enumerate_homs(three, three)
    if [f.map for f in homs] != [(0, 0, 0), (0, 1, 2), (0, 2, 1)]:
        problems.append(f"expected 3 homs, got {[f.map for f in homs]}")
    duals = [dual_of_hom(f) for f in homs]
    morphisms = enumerate_space_morphisms(skew_spectrum(three)[0], skew_spectrum(three)[0])
    if len(set(duals)) != 3 or sorted(duals, key=repr) != sorted(morphisms, key=repr):
        problems.append("duals do not biject with the 3 space morphisms")
    small = [A for _, A in small_test_algebras()]
    hom_sets = {}
    for A, B in itertools.product(range(len(small)), repeat=2):
        hom_sets[(A, B)] = [(f, dual_of_hom(f)) for f in enumerate_homs(small[A], small[B])]
    for i, A in enumerate(small):
        if dual_of_hom(identity_hom(A)) != identity_space_morphism(skew_spectrum(A)[0]):
            problems.append(f"identity functoriality fails on corpus[{i}]")
    for a, b, c in itertools.product(range(len(small)), repeat=3):
        for f, df in hom_sets[(a, b)]:
            for g, dg in hom_sets[(b, c)]:
                if dual_of_hom(compose_homs(g, f)) != compose_space_morphisms(df, dg):
                    problems.append(f"composition functoriality fails at {(a, b, c)}")
                    break
    report(5, "hom-set duality count and functoriality", not problems,
           "; ".join(problems[:3]))


def test_criterion_06_partial_map_construction():
    problems = []
    for x_size in range(1, 4):
        for y_size in range(1, 4):
            bands = [("right", right_band(y_size)), ("left", left_band(y_size))]
            if y_size == 2:
                bands.append(("product21", product_band(2, 1)))
            for band_name, band in bands:
                A, _ = partial_map_algebra(x_size, y_size, band)
                if not validate_algebra(A).ok:
                    problems.append(f"({x_size},{y_size},{band_name}) invalid")
            maps, tables = partial_map_oracle_tables(x_size, y_size)
            A, labels = partial_map_algebra(x_size, y_size, right_band(y_size))
            if labels != maps or not all(np.array_equal(getattr(A, name + "_table"), tables[name])
                                         for name in ("meet", "join", "diff", "cap")):
                problems.append(f"({x_size},{y_size}) differs from the oracle")
    report(6, "partial-map algebras validate and match the oracle",
           not problems, "; ".join(problems[:3]))


def test_criterion_07_second_decomposition(corpus_algebras):
    failing = [k for k, A in enumerate(corpus_algebras)
               if not second_decomposition_check(A)]
    report(7, "second decomposition pullback on every corpus algebra",
           not failing, f"indices {failing[:5]}")


def test_criterion_08_variant_duality_equivalences():
    small = [A for _, A in small_test_algebras()]
    problems = []
    checked = 0
    for A, B in itertools.product(small, repeat=2):
        for f in enumerate_homs(A, B):
            checked += 1
            if not check_variant_dualities(f):
                problems.append(f"{A.n}->{B.n} map {f.map}")
    assert checked >= 200
    report(8, f"morphism-class equivalences on {checked} homomorphisms",
           not problems, "; ".join(problems[:3]))


def test_criterion_09_lattice_sections(corpus_algebras):
    problems = []
    count = 0
    for k, A in enumerate(corpus_algebras):
        if handedness(A) not in ("right", "commutative"):
            continue
        count += 1
        if find_lattice_section(A) is None:
            problems.append(f"corpus[{k}] has no lattice section")
            continue
        if not section_equivalence_check(A):
            problems.append(f"corpus[{k}] fails the section equivalence")
    assert count >= 100
    report(9, f"section equivalence on {count} right-handed algebras",
           not problems, "; ".join(problems[:3]))


def test_criterion_10_pair_equivalence():
    problems = []
    for i in range(100):
        k_left = 1 + i % 3
        k_right = 1 + (i // 3) % 3
        sp = random_space(1 + i % 3, 1, seed=3000 + i, band=("product", k_left, k_right))
        left, right = to_space_pair(sp)
        back = from_space_pair(left, right)
        if spaces_isomorphic(sp, back) is None:
            problems.append(f"seed {3000 + i}")
    report(10, "pair split and merge round trip on 100 seeded spaces",
           not problems, "; ".join(problems[:3]))


def test_criterion_11_cli_determinism(tmp_path, capsys):
    problems = []
    args = ["generate", "--seed", "11", "--size-b", "2", "--max-fiber", "3",
            "--band", "right", "--count", "5"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for target in (dir_a, dir_b):
        if cli_main(args + ["--out", str(target)]) != 0:
            problems.append("generate failed")
    capsys.readouterr()
    for i in range(5):
        name = f"space_{i:03d}.json"
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            problems.append(f"{name} differs between runs")
        if cli_main(["validate", str(dir_a / name)]) != 0:
            problems.append(f"{name} does not re-validate")
        capsys.readouterr()
    with capsys.disabled():
        report(11, "seeded CLI runs are byte-identical and re-validate",
               not problems, "; ".join(problems[:3]))


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
