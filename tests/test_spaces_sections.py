
import gc
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import boolean_algebra
from definitions import (
    leq_oracle,
    partial_map_oracle_tables,
    section_algebra,
    validate_coherent_family,
)
from helpers import (
    all_surjection_spaces,
    corpus_params,
    corpus_spaces,
    pointwise_family,
    space_from_fibers,
)
from skewstone import (
    RectSkewSpace,
    SizeCapError,
    StructuralError,
    algebras_isomorphic,
    dual_algebra,
    enumerate_sections,
    handedness,
    left_band,
    make_space,
    partial_map_algebra,
    product_band,
    random_space,
    reflection_check,
    right_band,
    skew_spectrum,
    spaces_isomorphic,
    validate_algebra,
    validate_hom,
    validate_space,
)
from skewstone import core_algebra
from skewstone.core_algebra import (
    ROW_BLOCK,
    green_partitions,
    mirror,
    quotient_by,
)
from skewstone.ideals_spectra import basic_copen, fibers, spectrum_data
from skewstone.jsonio import dumps, space_to_dict
from skewstone.lattice_sections import find_lattice_section
from skewstone.morphisms_duality import Homomorphism, enumerate_homs
from skewstone.spaces_sections import (
    BandOnY,
    PartialMap,
    band_law_witness,
)


def right_band_space(fiber_sizes):
    p = [b for b, s in enumerate(fiber_sizes) for _ in range(s)]
    n = len(p)
    band = [[y if p[x] == p[y] else None for y in range(n)] for x in range(n)]
    return make_space(n, len(fiber_sizes), p, band)


class TestValidateSpace:
    def test_right_band_over_point_ok(self):
        assert validate_space(right_band_space([2])).ok

    def test_empty_ok(self):
        assert validate_space(make_space(0, 0, [])).ok

    def test_not_surjective(self):
        report = validate_space(make_space(1, 2, [0]))
        assert not report.ok
        assert ("p_surjective", (1,)) in report.failures

    def test_band_pattern_enforced(self):
        sp = make_space(2, 2, [0, 1], [[0, 1], [None, 1]])
        report = validate_space(sp)
        assert not report.ok
        assert any(law == "band_defined_iff_same_fiber" for law, _ in report.failures)

    def test_band_laws_checked_per_fiber(self):
        # "band" that projects onto the other element is not idempotent
        sp = make_space(2, 1, [0, 0], [[1, 1], [0, 0]])
        report = validate_space(sp)
        assert any(law == "band_idempotent" for law, _ in report.failures)

    def test_negative_base_size_is_refused(self):
        # it used to validate ok with no points and no base
        with pytest.raises(StructuralError, match="B = -1 is negative"):
            make_space(0, -1, [])

    @pytest.mark.parametrize("args", [
        (True, 1, [0]), (1, True, [0]), (2, 1, [0, False]),
        (2, 1, [0, 0], [[0, True], [0, 1]]),
    ], ids=["E", "B", "p", "band"])
    def test_bools_are_not_integers(self, args):
        # JSON's true and false once read as 1 and 0
        with pytest.raises(TypeError, match="'bool' object cannot be interpreted"):
            make_space(*args)

    @pytest.mark.parametrize("args, message", [
        ((True, 1, (0,)), "E = True is not an integer"),
        ((1, True, (0,)), "B = True is not an integer"),
        ((2, 1, (0, False)), "p[1] = False out of range"),
    ], ids=["E", "B", "p"])
    def test_direct_constructor_refuses_bools(self, args, message):
        # RectSkewSpace(2, 1, (0, False)) once kept False in p
        with pytest.raises(StructuralError) as err:
            RectSkewSpace(*args)
        assert str(err.value) == message


class TestSections:
    def test_counts(self):
        assert len(enumerate_sections(make_space(2, 1, [0, 0]))) == 3
        assert enumerate_sections(make_space(0, 0, [])) == ((),)
        assert len(enumerate_sections(make_space(2, 2, [0, 1]))) == 4

    def test_count_formula(self):
        for sp in all_surjection_spaces(6):
            sizes = {}
            for b in sp.p:
                sizes[b] = sizes.get(b, 0) + 1
            expected = 1
            for s in sizes.values():
                expected *= 1 + s
            assert len(enumerate_sections(sp)) == expected


class TestDualAlgebras:
    def test_two_to_one_is_three(self, three):
        algebra, labels = dual_algebra(make_space(2, 1, [0, 0]))
        assert algebra == three
        assert labels == ((), (0,), (1,))

    def test_identity_space_gives_boolean(self):
        algebra, _ = dual_algebra(make_space(3, 3, [0, 1, 2]))
        assert algebras_isomorphic(algebra, boolean_algebra(3)) is not None

    def test_empty_space_gives_one_element(self, trivial):
        algebra, _ = dual_algebra(make_space(0, 0, []))
        assert algebra == trivial

    def test_rect_left_band_gives_mirror(self, three):
        sp = make_space(2, 1, [0, 0], [[0, 0], [1, 1]])
        algebra, _ = dual_algebra(sp)
        assert algebra == mirror(three)

    def test_rect_with_right_band_matches_right_dual(self):
        for i in range(25):
            size_b, max_fiber, _ = corpus_params(i)
            sp = random_space(size_b, max_fiber, seed=500 + i, band="right")
            plain = make_space(sp.size_e, sp.size_b, sp.p)
            rect, _ = dual_algebra(sp)
            right, _ = dual_algebra(plain)
            assert rect == right

    def test_product_fiber_two_by_two_is_neither(self):
        sp = random_space(1, 1, seed=0, band=("product", 2, 2))
        algebra, _ = dual_algebra(sp)
        assert validate_algebra(algebra).ok
        assert handedness(algebra) == "neither"

    def test_natural_order_is_inclusion(self):
        for sp in all_surjection_spaces(5):
            algebra, labels = dual_algebra(sp)
            leq = leq_oracle(algebra)
            for i, s in enumerate(labels):
                for j, r in enumerate(labels):
                    assert leq[i][j] == (set(s) <= set(r))

    def test_section_cap_raises_before_building_tables(self):
        sp = space_from_fibers((4,) * 6)  # 5^6 = 15625 sections
        start = time.perf_counter()
        with pytest.raises(SizeCapError, match="more than 4096 sections"):
            dual_algebra(sp)
        assert time.perf_counter() - start < 1.0

    def test_reflection(self):
        for sp in all_surjection_spaces(6):
            assert reflection_check(sp)
        assert reflection_check(random_space(3, 2, seed=11, band="right"))
        assert reflection_check(random_space(2, 1, seed=3, band=("product", 2, 2)))


class TestSectionAlgebraOracle:
    """The product builder against the section algebra of the benchmark's
    oracles (definitions.section_algebra), built by mixed-radix digits."""

    @staticmethod
    def assert_matches_oracle(sp):
        algebra, labels = dual_algebra(sp)
        assert (algebra, labels) == section_algebra(sp)

    def test_seeded_corpus(self):
        for sp in corpus_spaces():
            self.assert_matches_oracle(sp)

    def test_all_small_surjections(self):
        for sp in all_surjection_spaces(6):
            self.assert_matches_oracle(sp)

    def test_every_band_kind(self):
        for kind in ("none", "right", "left", ("product", 2, 1), ("product", 1, 2)):
            self.assert_matches_oracle(random_space(3, 3, seed=31, band=kind))
        grid = random_space(3, 1, seed=32, band=("product", 2, 2))
        assert [len(f) for f in fibers(grid)] == [4, 4, 4]
        self.assert_matches_oracle(grid)

    def test_ragged_last_row_block(self):
        # n = 3 * 4 * 5 * 5 = 300 is not a multiple of the rows in one block
        plain = space_from_fibers((2, 3, 4, 4))
        assert plain.size_e == 13 and 300 % (ROW_BLOCK // 300) != 0
        left = make_space(plain.size_e, plain.size_b, plain.p,
                          [[x if plain.p[x] == plain.p[y] else None for y in range(plain.size_e)]
                           for x in range(plain.size_e)])
        for sp in (plain, left):
            self.assert_matches_oracle(sp)

    def test_one_large_fiber(self):
        # one plain fiber of 255 points and one 15 x 17 band fiber (n = 256):
        # each part the builder gathers from a band is 256 x 256
        for sp in (space_from_fibers((255,)), random_space(1, 1, 33, ("product", 15, 17))):
            self.assert_matches_oracle(sp)

    def test_partial_maps(self):
        cases = [(y_size, band) for y_size in (1, 2, 3)
                 for band in (right_band(y_size), left_band(y_size))]
        cases.append((4, product_band(2, 2)))
        mixed = [left_band(2), right_band(2), product_band(2, 1)]
        for x_size in (1, 2, 3):
            for y_size, band in cases + [(2, mixed[:x_size])]:
                bands = band if isinstance(band, list) else [band] * x_size
                algebra, labels = partial_map_algebra(x_size, y_size, band)
                maps, tables = partial_map_oracle_tables(x_size, y_size, bands)
                assert labels == maps
                assert algebra.zero == labels.index(PartialMap((), ())) == 0
                for name in ("meet", "join", "diff", "cap"):
                    assert np.array_equal(getattr(algebra, name + "_table"), tables[name])


class TestDerivedStructureLifetime:
    def test_dual_algebra_is_built_once_per_space(self):
        sp = random_space(2, 2, seed=3, band="right")
        assert dual_algebra(sp) is dual_algebra(sp)

    def test_derived_structure_is_freed_with_its_objects(self):
        sp = random_space(2, 2, seed=3, band="right")
        A, _ = dual_algebra(sp)
        for derive in (green_partitions, spectrum_data):
            derive(A)
        fibers(sp)
        refs = (weakref.ref(A), weakref.ref(sp))
        del A, sp
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_section_algebra_dies_after_every_consumer(self):
        # with the cyclic collector off: the product form and what is read
        # off it hold no reference back to the algebra
        A, _ = dual_algebra(random_space(3, 2, seed=4, band=("product", 2, 1)))
        gc.collect()
        gc.disable()
        try:
            assert validate_algebra(A).ok
            for consume in (green_partitions, handedness, spectrum_data,
                            lambda A: quotient_by(A, green_partitions(A)[0]),
                            lambda A: basic_copen(A, A.zero)):
                consume(A)
            assert "_memo__product_form" in A.__dict__
            ref = weakref.ref(A)
            del A
            assert ref() is None
        finally:
            gc.enable()

    def test_product_form_is_decoded_from_the_tables(self, monkeypatch):
        # dual_algebra builds A with _product_tables, once, and hands it no
        # form: the first consumer decodes A's own tables and checks them
        # without the builder, and later readers of the form, the validator
        # too, share that one decode
        calls = {"_product_tables": 0, "_atoms": 0}

        def counting(name):
            fn = getattr(core_algebra, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(core_algebra, name, counting(name))
        A, _ = dual_algebra(random_space(2, 3, seed=6, band="left"))
        assert calls == {"_product_tables": 1, "_atoms": 0}
        assert "_memo__product_form" not in A.__dict__
        green_partitions(A)
        form = A.__dict__["_memo__product_form"]
        assert form.refused is None
        assert calls == {"_product_tables": 1, "_atoms": 1}
        assert validate_algebra(A).ok
        for consume in (handedness, spectrum_data,
                        lambda A: quotient_by(A, green_partitions(A)[0]),
                        lambda A: basic_copen(A, A.zero)):
            consume(A)
        assert calls == {"_product_tables": 1, "_atoms": 1}
        assert A.__dict__["_memo__product_form"] is form

    @pytest.mark.parametrize("search", [
        find_lattice_section,
        lambda A: enumerate_homs(A, A),
        lambda A: algebras_isomorphic(A, A),
        # 9 candidates: each of two one-point fibers left out or sent to one of two
        lambda A: pytest.raises(SizeCapError, enumerate_homs, A, A, max_candidates=8),
    ], ids=["lattice_section", "homs", "isomorphic", "homs_over_budget"])
    def test_search_leaves_no_cycle(self, search):
        # with the cyclic collector off, the algebra must die with its last
        # reference, so the recursive search left no cycle holding it
        A, _ = dual_algebra(random_space(2, 2, seed=3, band="right"))
        gc.collect()
        gc.disable()
        try:
            search(A)
            ref = weakref.ref(A)
            del A
            assert ref() is None
        finally:
            gc.enable()


class TestPartialMapAlgebra:
    def test_smallest_cases(self, three):
        algebra, maps = partial_map_algebra(1, 1, right_band(1))
        assert algebra.n == 2
        assert algebras_isomorphic(algebra, boolean_algebra(1)) is not None
        algebra, _ = partial_map_algebra(1, 2, right_band(2))
        assert algebras_isomorphic(algebra, three) is not None

    def test_right_band_matches_independent_oracle(self):
        for x_size, y_size in ((1, 1), (1, 2), (2, 2), (2, 3)):
            maps, tables = partial_map_oracle_tables(x_size, y_size)
            algebra, labels = partial_map_algebra(x_size, y_size, right_band(y_size))
            assert labels == maps
            assert np.array_equal(algebra.meet_table, tables["meet"])
            assert np.array_equal(algebra.join_table, tables["join"])
            assert np.array_equal(algebra.diff_table, tables["diff"])
            assert np.array_equal(algebra.cap_table, tables["cap"])

    def test_all_band_kinds_validate(self):
        for band in (right_band(2), left_band(2), product_band(2, 1)):
            algebra, _ = partial_map_algebra(2, 2, band)
            assert validate_algebra(algebra).ok

    def test_natural_order_is_graph_inclusion(self):
        algebra, maps = partial_map_algebra(2, 2, left_band(2))
        leq = leq_oracle(algebra)
        for i, f in enumerate(maps):
            for j, g in enumerate(maps):
                assert leq[i][j] == (f.graph() <= g.graph())
                assert maps[algebra.cap(i, j)].graph() == f.graph() & g.graph()

    def test_operations_commute_with_restriction(self):
        band = product_band(2, 1)
        algebra, maps = partial_map_algebra(2, 2, band)
        index = {m: i for i, m in enumerate(maps)}
        subsets = ((), (0,), (1,), (0, 1))
        for name in ("meet", "join", "diff", "cap"):
            op = getattr(algebra, name)
            for i, f in enumerate(maps):
                for j, g in enumerate(maps):
                    whole = maps[op(i, j)]
                    for sub in subsets:
                        restricted = maps[op(index[f.restrict(sub)], index[g.restrict(sub)])]
                        assert whole.restrict(sub) == restricted, (name, f, g, sub)

    def test_pointwise_families_are_coherent(self):
        bands = [right_band(m) for m in (1, 2, 3)] + [left_band(m) for m in (1, 2, 3)]
        bands += [product_band(2, 1), product_band(2, 2)]
        for band in bands:
            assert validate_coherent_family(2, band.m, pointwise_family([band] * 2)) is None
        assert validate_coherent_family(
            2, 2, pointwise_family([left_band(2), right_band(2)])) is None

    def test_incoherent_family_detected(self):
        # swaps the operands only on singleton domains
        base = pointwise_family([left_band(2)] * 2)

        def warped(f, g):
            if len(f.domain) == 1:
                return base(g, f)
            return base(f, g)

        assert validate_coherent_family(2, 2, warped) is not None

    def test_family_builder_agrees_with_pointwise(self):
        # one band per point, all equal, is the one-band algebra
        for band in (left_band(2), product_band(2, 1)):
            direct, maps = partial_map_algebra(2, 2, band)
            general, labels = partial_map_algebra(2, 2, [band, band])
            assert direct == general
            assert labels == maps

    def test_family_whose_band_varies_by_point(self):
        bands = [left_band(2), right_band(2)]
        algebra, labels = partial_map_algebra(2, 2, bands)
        maps, tables = partial_map_oracle_tables(2, 2, bands)
        assert labels == maps
        assert algebra.zero == 0
        for name in ("meet", "join", "diff", "cap"):
            assert np.array_equal(getattr(algebra, name + "_table"), tables[name])
        assert validate_algebra(algebra).ok
        assert handedness(algebra) == "neither"

    def test_coherent_family_that_drops_points_is_refused(self):
        # restricting the empty map gives the empty map, so this is coherent,
        # yet it is no band on the values at any point; partial_map_algebra
        # takes bands, so such a family has no way in
        def forget(f, g):
            return PartialMap((), ())

        assert validate_coherent_family(2, 2, forget) is None

    def test_per_point_bands_are_checked_one_by_one(self):
        with pytest.raises(ValueError, match="1 bands for 2 points"):
            partial_map_algebra(2, 2, [left_band(2)])
        with pytest.raises(ValueError, match="3 bands for 2 points"):
            partial_map_algebra(2, 2, [left_band(2)] * 3)
        with pytest.raises(ValueError, match="band size"):
            partial_map_algebra(2, 2, [left_band(2), right_band(3)])
        for bands in ([BandOnY(((1, 1), (0, 0))), left_band(2)],
                      [left_band(2), BandOnY(((1, 1), (0, 0)))]):
            with pytest.raises(ValueError, match="not a rectangular band: band_idempotent"):
                partial_map_algebra(2, 2, bands)

    def test_band_refusal_names_the_law_and_its_witness(self):
        with pytest.raises(ValueError) as err:
            partial_map_algebra(2, 2, BandOnY(((1, 1), (0, 0))))
        assert str(err.value) == "not a rectangular band: band_idempotent at (0,)"

    def test_band_table_validator(self):
        assert band_law_witness(right_band(3).table) is None
        assert band_law_witness(((1, 1), (0, 0))) == ("band_idempotent", (0,))

    def test_dual_algebra_embeds_into_partial_maps(self):
        # sections, viewed as partial maps base -> total space, form a
        # subalgebra of the ambient partial-map algebra; the ambient band
        # must restrict to the fiber bands
        def grid_global_band(sp, k_left):
            fib = fibers(sp)
            pos = {e: i for f in fib for i, e in enumerate(f)}
            table = []
            for u in range(sp.size_e):
                fu = fib[sp.p[u]]
                table.append(tuple(fu[(pos[u] // k_left) * k_left + pos[v] % k_left]
                                   for v in range(sp.size_e)))
            return BandOnY(tuple(table))

        cases = [
            (random_space(2, 2, seed=21, band="right"), "right"),
            (random_space(2, 1, seed=22, band=("product", 2, 2)), "grid"),
        ]
        for sp, kind in cases:
            ambient_band = right_band(sp.size_e) if kind == "right" else grid_global_band(sp, 2)
            assert ambient_band.m == sp.size_e
            assert band_law_witness(ambient_band.table) is None
            algebra, labels = dual_algebra(sp)
            ambient, maps = partial_map_algebra(sp.size_b, sp.size_e, ambient_band)
            index = {m: i for i, m in enumerate(maps)}
            image = []
            for s in labels:
                pairs = sorted((sp.p[e], e) for e in s)
                image.append(index[PartialMap(tuple(b for b, _ in pairs),
                                              tuple(e for _, e in pairs))])
            hom = Homomorphism(algebra, ambient, tuple(image))
            assert len(set(image)) == algebra.n
            assert validate_hom(hom).ok


class TestRandomSpace:
    def test_determinism(self):
        a = random_space(3, 3, seed=42, band="right")
        b = random_space(3, 3, seed=42, band="right")
        assert dumps(space_to_dict(a)) == dumps(space_to_dict(b))
        assert a == b

    def test_empty(self):
        sp = random_space(0, 3, seed=1)
        assert (sp.size_e, sp.size_b) == (0, 0)

    def test_product_two_one_behaves_like_right_band(self):
        sp = random_space(2, 1, seed=9, band=("product", 2, 1))
        for x in range(sp.size_e):
            for y in range(sp.size_e):
                if sp.p[x] == sp.p[y]:
                    assert sp.band[x][y] == y

    @pytest.mark.parametrize("max_fiber, band, name", [
        (0, "none", "max_fiber"), (-1, "left", "max_fiber"),
        (2, ("product", 0, 1), "k_left"), (2, ("product", 2, 0), "k_right"),
    ], ids=["max_fiber_none", "max_fiber_left", "k_left", "k_right"])
    def test_sizes_below_one_are_refused(self, max_fiber, band, name):
        # max_fiber 0 used to fail inside randrange, k_left 0 to give a
        # space whose fibers are all empty
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            random_space(2, max_fiber, 0, band)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_generated_spaces_are_valid(self, seed):
        size_b, max_fiber, kind = corpus_params(seed % 83)
        assert validate_space(random_space(size_b, max_fiber, seed, kind)).ok


class TestSpaceIsomorphism:
    def test_relabeled_plain_space(self):
        a = make_space(3, 2, [0, 0, 1])
        b = make_space(3, 2, [1, 0, 1])
        assert spaces_isomorphic(a, b) is not None

    def test_different_profiles_rejected(self):
        a = make_space(3, 2, [0, 0, 1])
        b = make_space(3, 2, [0, 1, 1])
        # isomorphic after swapping the base, so this is found
        assert spaces_isomorphic(a, b) is not None
        c = make_space(3, 1, [0, 0, 0])
        assert spaces_isomorphic(a, c) is None

    def test_band_kinds_distinguished(self):
        r = random_space(1, 1, seed=0, band=("product", 2, 1))
        l = random_space(1, 1, seed=0, band=("product", 1, 2))
        assert spaces_isomorphic(r, r) is not None
        assert spaces_isomorphic(r, l) is None

    def test_plain_space_matches_its_spectrum_and_right_twin(self):
        # a plain space's band is read as the right band x y = y, so it is
        # isomorphic to the same space with the right band, and to the
        # (banded) spectrum of its section algebra
        for seed in range(30):
            size_b = 1 + seed % 3
            sp = random_space(size_b, 3, seed=seed, band="none")
            twin = random_space(size_b, 3, seed=seed, band="right")
            assert twin.p == sp.p and twin.band is not None
            spectrum = skew_spectrum(dual_algebra(sp)[0])[0]
            for other in (twin, spectrum):
                assert spaces_isomorphic(sp, other) is not None
                assert spaces_isomorphic(other, sp) is not None
        # one fiber of three points: the left band is not the right one
        left = random_space(1, 3, seed=5, band="left")
        assert spaces_isomorphic(random_space(1, 3, seed=5, band="none"), left) is None

    def test_verified_maps_returned(self):
        sp = random_space(2, 1, seed=6, band=("product", 2, 2))
        g_total, g_base = spaces_isomorphic(sp, sp)
        assert sorted(g_total) == list(range(sp.size_e))
        assert sorted(g_base) == list(range(sp.size_b))


class TestSpaceIsomorphismOracle:
    def test_matches_bruteforce_search(self):
        from itertools import permutations

        from skewstone.ideals_spectra import fibers

        def band(sp, x, y):
            # a plain space's band is the right band x y = y on each fiber
            if sp.band is not None:
                return sp.band[x][y]
            return y if sp.p[x] == sp.p[y] else None

        def raw_iso_exists(sp1, sp2):
            if (sp1.size_e, sp1.size_b) != (sp2.size_e, sp2.size_b):
                return False
            fib1, fib2 = fibers(sp1), fibers(sp2)

            def try_fibers(gb, b, ge):
                if b == sp1.size_b:
                    for x in range(sp1.size_e):
                        for y in range(sp1.size_e):
                            v, w = band(sp1, x, y), band(sp2, ge[x], ge[y])
                            if (v is None) != (w is None):
                                return False
                            if v is not None and ge[v] != w:
                                return False
                    return True
                for perm in permutations(fib2[gb[b]]):
                    ge2 = dict(ge)
                    ge2.update(zip(fib1[b], perm))
                    if try_fibers(gb, b + 1, ge2):
                        return True
                return False

            for gb in permutations(range(sp1.size_b)):
                if any(len(fib1[b]) != len(fib2[gb[b]]) for b in range(sp1.size_b)):
                    continue
                if try_fibers(gb, 0, {}):
                    return True
            return False

        cases = []
        for i in range(8):
            k_left, k_right = 1 + i % 3, 1 + (i // 3) % 3
            cases.append(random_space(1 + i % 2, 1, seed=i, band=("product", k_left, k_right)))
            cases.append(random_space(1 + i % 3, 3, seed=100 + i, band="none"))
        for a in cases:
            for b in cases:
                assert (spaces_isomorphic(a, b) is not None) == raw_iso_exists(a, b)
