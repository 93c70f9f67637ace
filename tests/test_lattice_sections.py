import math
import random
import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import boolean_algebra
from definitions import (
    find_lattice_section_oracle,
    global_section_to_lattice_oracle,
    is_lattice_section_oracle,
    lattice_section_to_global_oracle,
)
from helpers import (
    corpus_dual_algebras,
    corpus_params,
    mixed_space,
    outcome,
    renumbered,
    small_test_algebras,
)
from skewstone import (
    StructuralError,
    basic_copen,
    dual_algebra,
    find_global_section,
    find_lattice_section,
    green_partitions,
    handedness,
    make_space,
    random_space,
    section_equivalence_check,
)
from skewstone.ideals_spectra import fibers, spectrum_data
from skewstone.lattice_sections import (
    GlobalSection,
    LatticeSection,
    global_section_to_lattice,
    is_lattice_section,
    lattice_section_to_global,
)


class TestLatticeSectionSearch:
    def test_three(self, three):
        section = find_lattice_section(three)
        assert section.choice == (0, 1)
        assert is_lattice_section(three, section.choice)

    def test_commutative_is_identity_like(self, bool4):
        section = find_lattice_section(bool4)
        assert section.choice == (0, 1, 2, 3)

    def test_left_handed_rejected(self, mirror_three):
        with pytest.raises(ValueError):
            find_lattice_section(mirror_three)

    def test_choice_respects_classes(self, catalog):
        for name, A in catalog:
            if handedness(A) not in ("right", "commutative"):
                continue
            section = find_lattice_section(A)
            assert section is not None, name
            d = green_partitions(A)[0]
            for i, c in enumerate(section.choice):
                assert d.labels[c] == i

    def test_read_off_matches_the_search(self):
        """On every right-handed or commutative catalog and corpus algebra,
        the Boolean algebras of 0 to 10 atoms and a renumbered copy of each,
        the read-off section is the one the depth-first search finds."""
        algebras = [A for _, A in small_test_algebras()] + corpus_dual_algebras()
        algebras = [A for A in algebras if handedness(A) in ("right", "commutative")]
        algebras += [boolean_algebra(k) for k in range(11)]
        algebras += [renumbered(A, seed) for seed, A in enumerate(algebras)]
        for A in algebras:
            assert find_lattice_section(A) == find_lattice_section_oracle(A)
        assert len(algebras) == 2 * (131 + 11)      # 131 catalog and corpus algebras

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_right_handed_instances_always_have_sections(self, seed):
        size_b, max_fiber, _ = corpus_params(seed % 79)
        A, _ = dual_algebra(random_space(size_b, max_fiber, seed, "right"))
        assert find_lattice_section(A) is not None


class TestIsLatticeSection:
    # per-fiber grids (rows, columns) of mixed-band spaces: every handedness
    GRIDS = (((1, 2), (2, 1)), ((2, 2), (1, 1)), ((1, 3), (1, 2)), ((2, 1), (3, 1)),
             ((1, 1), (1, 1), (1, 2)), ((2, 1), (2, 1), (1, 1)), ((2, 2),),
             ((1, 2), (1, 2), (2, 1)), ((2, 2), (1, 2)), ((1, 3), (1, 3)), ((2, 2), (2, 2)),
             ((1, 2), (2, 1), (1, 1)), ((3, 1), (1, 2)), ((1, 2), (1, 2), (1, 1)),
             ((2, 1), (1, 1), (2, 1)))

    def test_matches_the_pairwise_oracle(self):
        """The digit-row check answers as the class-pair check on the
        catalog, the corpus and mixed-band algebras (n = 5 to 27) with a
        renumbered copy of each: every per-class choice where there are at
        most 2000, else 20 seeded ones, and the found section of each
        right-handed or commutative algebra.  The lemma holds for any
        handedness, so all four are checked, with both answers."""
        mixed = [dual_algebra(mixed_space(g, seed=i))[0] for i, g in enumerate(self.GRIDS)]
        algebras = ([A for _, A in small_test_algebras()] + corpus_dual_algebras()
                    + mixed + [renumbered(A, i) for i, A in enumerate(mixed)])
        rng = random.Random(30)
        counts = Counter()
        for A in algebras:
            blocks = green_partitions(A)[0].blocks
            if math.prod(map(len, blocks)) <= 2000:
                choices = list(product(*blocks))
            else:
                choices = [tuple(rng.choice(block) for block in blocks) for _ in range(20)]
            if handedness(A) in ("right", "commutative"):
                choices.append(find_lattice_section(A).choice)
            for choice in choices:
                got = is_lattice_section(A, choice)
                assert got == is_lattice_section_oracle(A, choice), choice
                counts[handedness(A), got] += 1
        assert counts == {("commutative", True): 148, ("right", True): 256,
                          ("right", False): 4700, ("left", True): 115, ("left", False): 1710,
                          ("neither", True): 896, ("neither", False): 13244}

    def test_non_elements_are_refused_by_name(self):
        # classes {0} and {1, 2}; the spectrum has the points 0 and 1 over
        # one prime.  A negative index does not wrap, and a bool is no integer
        A = dual_algebra(make_space(2, 1, [0, 0]))[0]
        assert green_partitions(A)[0].blocks == ((0,), (1, 2))
        assert is_lattice_section(A, (0, 1)) and is_lattice_section(A, [0, 2])
        for choice in ((0, True), (0, 1.0), (0, -1), (0, 3), (0, "1")):
            assert is_lattice_section(A, choice) is False, choice
        # and one element of each class, in class order
        for choice in ((), (0,), (0, 1, 2), (0, 0), (1, 2), (2, 0)):
            assert is_lattice_section(A, choice) is False, choice
        for bad, text in ((-1, "-1"), (True, "True"), (3, "3"), (1.0, "1.0")):
            with pytest.raises(StructuralError, match=f"^{text} is not an element 0..2$"):
                lattice_section_to_global(A, LatticeSection((0, bad)))
        for bad, text in ((-1, "-1"), (True, "True"), (2, "2"), (1.0, "1.0")):
            with pytest.raises(StructuralError, match=f"^{text} is not a point 0..1$"):
                global_section_to_lattice(A, GlobalSection((bad,)))
        assert lattice_section_to_global(A, LatticeSection((0, 2))) == GlobalSection((1,))
        assert global_section_to_lattice(A, GlobalSection((1,))) == LatticeSection((0, 2))

    def test_wrong_length_choices_name_both_lengths(self):
        # classes {0} and {1, 2}: a choice of one or of three elements
        # raised a bare IndexError or a NumPy broadcast error
        A = dual_algebra(make_space(2, 1, [0, 0]))[0]
        for choice in ((0,), (0, 1, 2)):
            with pytest.raises(ValueError, match=f"^choice has length {len(choice)}, "
                                                 "expected 2, one element per D-class$"):
                lattice_section_to_global(A, LatticeSection(choice))

    def test_the_section_check_builds_no_class_table(self):
        # on the Boolean algebras of 1024 and 4096 elements (ten and twelve
        # one-point fibers, as many D-classes), with the form, Green's
        # relations and the spectrum built, the check holds rows of digits:
        # no n x n class table (2 MiB as int16 at n = 1024, 32 MiB at 4096)
        # is made.  The lattice section read off the form converts to a
        # global section and back to itself, and at n = 4096 it is the
        # section the depth-first search of the oracle finds
        for atoms, bound in ((10, 2 * 2 ** 20), (12, 64 * 2 ** 20)):
            A = dual_algebra(make_space(atoms, atoms, range(atoms)))[0]
            assert A.n == 2 ** atoms
            green_partitions(A)
            spectrum_data(A)
            tracemalloc.start()
            try:
                assert section_equivalence_check(A)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound
            section = find_lattice_section(A)
            assert global_section_to_lattice(A, lattice_section_to_global(A, section)) == section
        assert section == find_lattice_section_oracle(A)


class TestGlobalSectionSearch:
    def test_least_point_chosen(self):
        section = find_global_section(make_space(2, 1, [0, 0]))
        assert section.points == (0,)

    def test_empty_space(self):
        assert find_global_section(make_space(0, 0, [])).points == ()

    def test_shuffled_fibers(self):
        sp = random_space(3, 3, seed=4, band="none")
        section = find_global_section(sp)
        assert sorted(sp.p[e] for e in section.points) == list(range(sp.size_b))


class TestConversions:
    def test_lattice_to_global_is_union_of_basic_sections(self, three):
        section = find_lattice_section(three)
        glued = lattice_section_to_global(three, section)
        expected = set()
        for c in section.choice:
            expected |= set(basic_copen(three, c))
        assert set(glued.points) == expected

    def test_global_to_lattice_round_trip(self, catalog):
        for name, A in catalog:
            if handedness(A) not in ("right", "commutative"):
                continue
            section = find_lattice_section(A)
            glued = lattice_section_to_global(A, section)
            back = global_section_to_lattice(A, glued)
            assert back == section, name

    def test_conversions_match_the_oracles(self):
        """On every right-handed catalog and corpus algebra and the Boolean
        algebras of 1 to 8 atoms: the found sections and three seeded
        one-per-class choices, and three seeded global sections, convert
        with the outcome and message of the point-set loops."""
        algebras = ([A for _, A in small_test_algebras()] + corpus_dual_algebras()
                    + [boolean_algebra(k) for k in range(1, 9)])
        rng = random.Random(25)
        counts = {"ok": 0, "raised": 0}
        for A in algebras:
            if handedness(A) not in ("right", "commutative"):
                continue
            blocks = green_partitions(A)[0].blocks
            fib = fibers(spectrum_data(A).space)
            choices = [find_lattice_section(A)] + [
                LatticeSection(tuple(rng.choice(block) for block in blocks)) for _ in range(3)]
            sections = [find_global_section(spectrum_data(A).space)] + [
                GlobalSection(tuple(sorted(rng.choice(f) for f in fib))) for _ in range(3)]
            for convert, oracle, inputs in (
                    (lattice_section_to_global, lattice_section_to_global_oracle, choices),
                    (global_section_to_lattice, global_section_to_lattice_oracle, sections)):
                for section in inputs:
                    got = outcome(convert, A, section)
                    assert got == outcome(oracle, A, section)
                    counts[got[0]] += 1
        assert counts == {"ok": 1012, "raised": 100}   # 139 algebras, 8 inputs each

    def test_two_points_over_one_base_point_are_named(self, three):
        with pytest.raises(ValueError, match="section has two points over base point 0"):
            global_section_to_lattice(three, GlobalSection((0, 1)))

    def test_global_section_acts_as_lattice_section_on_duals(self):
        # picking the global section under each base subset preserves meets
        # and joins of the section algebra
        for seed in range(6):
            sp = random_space(2, 3, seed=seed, band="none")
            A, labels = dual_algebra(sp)
            index = {s: i for i, s in enumerate(labels)}
            global_points = find_global_section(sp).points
            subsets = [frozenset(v for v in range(sp.size_b) if mask & (1 << v))
                       for mask in range(1 << sp.size_b)]
            select = {u: index[tuple(sorted(e for e in global_points if sp.p[e] in u))]
                      for u in subsets}
            for u in subsets:
                for v in subsets:
                    assert A.meet(select[u], select[v]) == select[u & v]
                    assert A.join(select[u], select[v]) == select[u | v]

    def test_section_equivalence_on_catalog(self, catalog):
        for name, A in catalog:
            if handedness(A) in ("right", "commutative"):
                assert section_equivalence_check(A), name

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_section_equivalence_random(self, seed):
        size_b, max_fiber, kind = corpus_params(seed % 73)
        if kind == "left":
            kind = "right"
        A, _ = dual_algebra(random_space(size_b, max_fiber, seed, kind))
        if handedness(A) in ("right", "commutative"):
            assert section_equivalence_check(A)
