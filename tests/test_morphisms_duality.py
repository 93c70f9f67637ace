import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from catalog import boolean_algebra
from definitions import (
    algebras_isomorphic_search,
    dual_of_hom_oracle,
    enumerate_homs_bruteforce,
    enumerate_homs_search,
    enumerate_space_morphisms_search,
    spectrum_data_oracle,
    validate_hom_oracle,
    validate_space_morphism_oracle,
)
from helpers import (
    all_surjection_spaces,
    corpus_dual_algebras,
    corpus_spaces,
    enumerate_homs_transport_route,
    mixed_space,
    outcome,
    renumbered,
    round_trip_algebras,
    seeded_rect_space,
    small_test_algebras,
    space_from_fibers,
)
from oracles import hom_count, is_hom, space_morphism_count, tables_of
from skewstone import (
    Homomorphism,
    SizeCapError,
    SpaceMorphism,
    StructuralError,
    algebra_roundtrip_iso,
    algebras_isomorphic,
    basic_copen,
    check_variant_dualities,
    classify_hom,
    classify_space_morphism,
    compose_homs,
    compose_space_morphisms,
    decompose_morphism,
    dual_algebra,
    dual_of_hom,
    enumerate_homs,
    enumerate_space_morphisms,
    from_space_pair,
    handedness,
    hom_factorization,
    hom_of_space_morphism,
    identity_hom,
    identity_space_morphism,
    make_space,
    mirror,
    morphisms_duality,
    random_space,
    skew_spectrum,
    space_roundtrip_iso,
    spaces_isomorphic,
    to_space_pair,
    validate_hom,
    validate_space_morphism,
    zero_hom,
)
from skewstone.ideals_spectra import fiber_bands, spectrum_data
from skewstone.morphisms_duality import is_partial_identity_up_to_iso
from skewstone.spaces_sections import partial_map


def two():
    return boolean_algebra(1)


class TestHomomorphisms:
    def test_homs_three_three(self, three):
        homs = enumerate_homs(three, three)
        assert [h.map for h in homs] == [(0, 0, 0), (0, 1, 2), (0, 2, 1)]

    def test_collapse_rejected_on_cap(self, three):
        f = Homomorphism(three, three, (0, 1, 1))
        report = validate_hom(f)
        assert not report.ok
        assert ("preserves_cap", (1, 2)) in report.failures

    def test_map_entries_must_be_integers(self, bool4):
        """A float is refused, not truncated: (0, 1.5, 2, 3) once passed as
        the identity, and so did (0, True, 2, 3).  NumPy integers are integers."""
        for bad in ((0, 1.5, 2, 3), (0, 1, 2, 3.9), (0, 1.0, 2, 3), (0, "1", 2, 3),
                    (0, None, 2, 3), (0, 1, 2), (0, 1, 2, 4), (0, -1, 2, 3), (0, True, 2, 3)):
            with pytest.raises(StructuralError, match="not a total map into the target"):
                validate_hom(Homomorphism(bool4, bool4, bad))
        for good in ((np.int64(0), np.int32(1), np.uint8(2), 3), np.arange(4)):
            assert validate_hom(Homomorphism(bool4, bool4, good)).ok
        report = validate_hom(Homomorphism(bool4, bool4, (0, np.int64(2), 1, 1)))
        assert report == validate_hom_oracle(Homomorphism(bool4, bool4, (0, 2, 1, 1)))
        assert not report.ok

    def test_zero_map_always_valid(self, catalog):
        for _, A in catalog:
            for _, B in catalog:
                assert validate_hom(zero_hom(A, B)).ok

    def test_backtracking_matches_bruteforce(self, catalog):
        small = [A for _, A in catalog if A.n <= 4]
        for A, B in itertools.product(small, repeat=2):
            assert enumerate_homs(A, B) == enumerate_homs_bruteforce(A, B, max_candidates=10 ** 6)


class TestDualOfHom:
    def test_identity_dualizes_to_identity(self, three):
        m = dual_of_hom(identity_hom(three))
        assert m == identity_space_morphism(skew_spectrum(three)[0])

    def test_zero_map_dualizes_to_undefined(self, three):
        m = dual_of_hom(zero_hom(three, three))
        assert m.g.domain == () and m.h.domain == ()

    def test_swap_dualizes_to_fiber_swap(self, three):
        m = dual_of_hom(Homomorphism(three, three, (0, 2, 1)))
        assert m.h.domain == (0,) and m.h.values == (0,)
        assert m.g.domain == (0, 1) and m.g.values == (1, 0)

    def test_hom_sets_biject_with_space_morphisms(self, three):
        cases = [(three, three), (two(), three), (three, two()),
                 (boolean_algebra(2), three)]
        for A, B in cases:
            homs = enumerate_homs(A, B)
            duals = [dual_of_hom(f) for f in homs]
            space_morphisms = enumerate_space_morphisms(
                skew_spectrum(B)[0], skew_spectrum(A)[0])
            assert len(set(duals)) == len(homs)
            assert sorted(duals, key=repr) == sorted(space_morphisms, key=repr)

    def test_every_corpus_hom_matches_the_oracle(self):
        # the 400 ordered pairs of the first 20 corpus algebras
        algebras = corpus_dual_algebras(20)
        count = 0
        for A, B in itertools.product(algebras, repeat=2):
            for f in enumerate_homs(A, B):
                assert dual_of_hom(f) == dual_of_hom_oracle(f)
                count += 1
        assert count == 14609

    def test_maps_that_are_not_homs_raise_as_the_oracle(self):
        # seeded zero-preserving maps: a preimage that is not prime, a
        # point with two images, or a square that fails validation
        rng = random.Random(3)
        algebras = corpus_dual_algebras(20)
        kinds = ("is not prime", "not well defined", "dual morphism invalid")
        outcomes = set()
        for _ in range(300):
            A, B = rng.choice(algebras), rng.choice(algebras)
            image = [rng.randrange(B.n) for _ in range(A.n)]
            image[A.zero] = B.zero
            f = Homomorphism(A, B, tuple(image))
            got = outcome(dual_of_hom, f)
            assert got == outcome(dual_of_hom_oracle, f)
            outcomes.add(got[0] if got[0] == "ok" else next(k for k in kinds if k in got[2]))
        assert outcomes == {"ok", *kinds}

    def test_functoriality_on_identities(self, catalog):
        for _, A in catalog:
            assert dual_of_hom(identity_hom(A)) == identity_space_morphism(
                skew_spectrum(A)[0])

    def test_functoriality_on_compositions(self, three, mirror_three):
        algebras = [two(), three, mirror_three]
        for A, B, C in itertools.product(algebras, repeat=3):
            homs_ab = enumerate_homs(A, B)
            homs_bc = enumerate_homs(B, C)
            for f in homs_ab:
                for g in homs_bc:
                    lhs = dual_of_hom(compose_homs(g, f))
                    rhs = compose_space_morphisms(dual_of_hom(f), dual_of_hom(g))
                    assert lhs == rhs

    def test_naturality_of_basic_sections(self, three, mirror_three):
        # the dual morphism pulls the basic section of a back to that of f(a)
        for A, B in itertools.product([two(), three, mirror_three], repeat=2):
            for f in enumerate_homs(A, B):
                m = dual_of_hom(f)
                g = m.g.as_dict()
                for a in A.elements:
                    pulled = tuple(sorted(
                        e for e, ge in g.items() if ge in set(basic_copen(A, a))))
                    assert pulled == basic_copen(B, f.map[a])


class TestHomOfSpaceMorphism:
    def test_identity(self):
        sp = make_space(2, 1, [0, 0])
        f = hom_of_space_morphism(identity_space_morphism(sp))
        assert f.map == tuple(range(f.source.n))

    def test_everywhere_undefined_gives_zero_map(self, three):
        sp = skew_spectrum(three)[0]
        from skewstone.spaces_sections import PartialMap

        m = type(identity_space_morphism(sp))(sp, sp, PartialMap((), ()), PartialMap((), ()))
        assert validate_space_morphism(m).ok
        f = hom_of_space_morphism(m)
        assert all(v == f.target.zero for v in f.map)

    def test_fiber_swap_gives_swap_hom(self):
        sp = make_space(2, 1, [0, 0])
        from skewstone.spaces_sections import PartialMap

        m = type(identity_space_morphism(sp))(
            sp, sp, PartialMap((0, 1), (1, 0)), PartialMap((0,), (0,)))
        f = hom_of_space_morphism(m)
        # sections (), (0,), (1,) swap the two singletons
        assert f.map == (0, 2, 1)

    def test_functoriality(self):
        spaces = [make_space(2, 1, [0, 0]), make_space(2, 2, [0, 1])]
        for sp1, sp2, sp3 in itertools.product(spaces, repeat=3):
            for m1 in enumerate_space_morphisms(sp1, sp2):
                for m2 in enumerate_space_morphisms(sp2, sp3):
                    lhs = hom_of_space_morphism(compose_space_morphisms(m2, m1))
                    rhs = compose_homs(hom_of_space_morphism(m1),
                                       hom_of_space_morphism(m2))
                    assert lhs == rhs

    def test_round_trip_through_unit(self, three):
        # transporting the dual of a space morphism along the two canonical
        # isomorphisms recovers the original homomorphism
        for A, B in ((three, three), (two(), three)):
            phi_a = algebra_roundtrip_iso(A)
            phi_b = algebra_roundtrip_iso(B)
            inverse_phi_b = [0] * B.n
            for x, v in enumerate(phi_b.map):
                inverse_phi_b[v] = x
            for f in enumerate_homs(A, B):
                induced = hom_of_space_morphism(dual_of_hom(f))
                transported = tuple(inverse_phi_b[induced.map[phi_a.map[a]]]
                                    for a in A.elements)
                assert transported == f.map


class TestRoundTripIsos:
    def test_algebra_side_catalog(self, catalog):
        for name, A in catalog:
            iso = algebra_roundtrip_iso(A)
            assert sorted(iso.map) == list(range(A.n)), name

    def test_space_side_small(self):
        for sp in all_surjection_spaces(5):
            iso = space_roundtrip_iso(sp)
            assert validate_space_morphism(iso).ok

    def test_space_side_rect(self):
        for i in range(10):
            sp = seeded_rect_space(i)
            iso = space_roundtrip_iso(sp)
            assert validate_space_morphism(iso).ok

    def test_psi_naturality(self):
        spaces = [make_space(2, 1, [0, 0]), make_space(2, 2, [0, 1])]
        for sp1, sp2 in itertools.product(spaces, repeat=2):
            psi_1 = space_roundtrip_iso(sp1)
            psi_2 = space_roundtrip_iso(sp2)
            for m in enumerate_space_morphisms(sp1, sp2):
                lhs = compose_space_morphisms(psi_2, m)
                rhs = compose_space_morphisms(dual_of_hom(hom_of_space_morphism(m)), psi_1)
                assert lhs == rhs

    def test_phi_naturality(self, three, mirror_three):
        for A, B in itertools.product([two(), three, mirror_three], repeat=2):
            phi_a = algebra_roundtrip_iso(A)
            phi_b = algebra_roundtrip_iso(B)
            for f in enumerate_homs(A, B):
                lhs = compose_homs(phi_b, f)
                rhs = compose_homs(hom_of_space_morphism(dual_of_hom(f)), phi_a)
                assert lhs == rhs

    def test_target_is_the_section_algebra_of_the_spectrum(self):
        # the target is A's tables relabelled; dual_algebra builds the same
        # algebra from the spectrum's bands with _product_tables.  On
        # round_trip_algebras with 20 corpus algebras (up to n = 1024, sixteen
        # row blocks of the target) and a second left-banded algebra of five
        # fibers of three (n = 1024), each also renumbered
        left = dual_algebra(mixed_space([(1, 3)] * 5, seed=1))[0]
        assert left.n == 1024 and handedness(left) == "left"
        algebras = round_trip_algebras(20) + [left]
        assert max(A.n for A in algebras) >= 1024
        for i, A in enumerate(algebras):
            for B in (A, renumbered(A, i)):
                f = algebra_roundtrip_iso(B)
                assert f.target == dual_algebra(spectrum_data(B).space)[0], i
                assert validate_hom(f).ok, i

    @pytest.mark.parametrize("patch", ["basic_rows", "fiber_band"])
    def test_a_spectrum_fiber_not_band_isomorphic_to_A_is_refused(self, patch, monkeypatch):
        # two points of a 2 x 2 fiber swapped in every basic row, or the
        # fiber's band made the left band: the basic sections still biject
        # with the sections, but the fiber is no longer A's fiber relabelled
        A = dual_algebra(mixed_space([(1, 3), (2, 2)], seed=3))[0]
        sd = spectrum_data(A)
        space = sd.space
        pi = next(pi for pi, band in enumerate(fiber_bands(space)) if len(band) == 4)
        if patch == "basic_rows":
            rows = sd.rows.copy()
            rows[:, pi] = np.array([0, 2, 1, 3, 4])[rows[:, pi]]
            monkeypatch.setitem(A.__dict__, "_memo_spectrum_data", replace(sd, rows=rows))
        else:
            bands = list(fiber_bands(space))
            bands[pi] = np.tile(np.arange(4)[:, None], (1, 4))
            monkeypatch.setitem(space.__dict__, "_memo_fiber_bands", tuple(bands))
        with pytest.raises(RuntimeError, match="round-trip map is not a homomorphism"):
            algebra_roundtrip_iso(A)


class TestSpacePairs:
    def test_right_band_space_splits_into_base_and_total(self):
        sp = random_space(2, 3, seed=3, band="right")
        left, right = to_space_pair(sp)
        assert left.size_e == sp.size_b          # fibers collapse
        assert right.size_e == sp.size_e         # equality relation keeps points
        assert left.size_b == right.size_b == sp.size_b

    def test_product_band_fiber_sizes(self):
        sp = random_space(2, 1, seed=5, band=("product", 3, 2))
        left, right = to_space_pair(sp)
        # 2 R-classes and 3 L-classes per fiber
        assert left.size_e == 2 * sp.size_b
        assert right.size_e == 3 * sp.size_b

    def test_round_trip_small(self):
        for i in range(20):
            sp = seeded_rect_space(i)
            left, right = to_space_pair(sp)
            assert spaces_isomorphic(sp, from_space_pair(left, right)) is not None

    def test_pair_round_trip_other_direction(self):
        left = make_space(3, 2, [0, 0, 1])
        right = make_space(2, 2, [0, 1])
        sp = from_space_pair(left, right)
        back_left, back_right = to_space_pair(sp)
        assert spaces_isomorphic(left, back_left) is not None
        assert spaces_isomorphic(right, back_right) is not None

    def test_requires_band(self):
        with pytest.raises(ValueError):
            to_space_pair(make_space(2, 1, [0, 0]))


class TestDecomposition:
    def test_total_morphism_decomposes_trivially(self, three):
        m = dual_of_hom(Homomorphism(three, three, (0, 2, 1)))
        part_identity, pullback_part = decompose_morphism(m)
        assert is_partial_identity_up_to_iso(part_identity)
        flags = classify_space_morphism(pullback_part)
        assert flags.total

    def test_undefined_morphism_decomposes_to_empty(self, three):
        m = dual_of_hom(zero_hom(three, three))
        part_identity, pullback_part = decompose_morphism(m)
        assert pullback_part.source.size_e == 0
        assert pullback_part.source.size_b == 0

    def test_dual_of_ideal_inclusion_has_nontrivial_identity_part(self, three):
        inclusion = Homomorphism(two(), three, (0, 1))
        assert validate_hom(inclusion).ok
        m = dual_of_hom(inclusion)
        part_identity, pullback_part = decompose_morphism(m)
        # the restriction drops one of the two spectrum points
        assert m.source.size_e == 2
        assert part_identity.target.size_e == 1
        assert classify_space_morphism(pullback_part).total

    def test_invalid_input_is_refused_by_its_first_failure(self):
        two_points, one_point = make_space(2, 1, [0, 0]), make_space(1, 1, [0])
        cases = [
            # g defined over a base point outside dom h
            (two_points, one_point, {0: 0}, {}, ("square_commutes", (0,))),
            # g not one to one from the piece over 0 onto the fiber over 0
            (two_points, two_points, {0: 0, 1: 0}, {0: 0}, ("fiber_bijection", (0,))),
            (two_points, one_point, {}, {0: 0}, ("fiber_bijection", (0,))),
            # the identity onto the left band, which the plain space's right band is not
            (two_points, make_space(2, 1, [0, 0], band=[[0, 0], [1, 1]]), {0: 0, 1: 1}, {0: 0},
             ("band_preserved", (0, 1))),
        ]
        for sp, tp, g, h, first in cases:
            m = SpaceMorphism(sp, tp, partial_map(g), partial_map(h))
            assert validate_space_morphism_oracle(m).failures[0] == first
            with pytest.raises(ValueError) as caught:
                decompose_morphism(m)
            assert str(caught.value) == f"input morphism is invalid: {first}"

    def test_every_enumerated_morphism_decomposes(self):
        spaces = [make_space(2, 1, [0, 0]), make_space(3, 2, [0, 0, 1])]
        for sp1, sp2 in itertools.product(spaces, repeat=2):
            for m in enumerate_space_morphisms(sp1, sp2):
                part_identity, pullback_part = decompose_morphism(m)
                assert compose_space_morphisms(pullback_part, part_identity) == m
                flags = classify_space_morphism(pullback_part)
                assert flags.total


class TestClassification:
    def test_identity_all_true(self, three):
        m = dual_of_hom(identity_hom(three))
        flags = classify_space_morphism(m)
        assert flags.total and flags.semitotal and flags.saturated and flags.section_lifting
        hflags = classify_hom(identity_hom(three))
        assert all((hflags.leq_cofinal, hflags.preceq_cofinal, hflags.D_saturated,
                    hflags.leq_ideal_inclusion, hflags.image_ideal_preceq_closed))

    def test_dual_of_zero_map(self, three):
        m = dual_of_hom(zero_hom(three, three))
        flags = classify_space_morphism(m)
        assert not flags.total and not flags.semitotal
        assert flags.saturated
        # the zero map is D-saturated, so its dual must lift sections
        assert flags.section_lifting
        assert check_variant_dualities(zero_hom(three, three))

    def test_ideal_inclusion_flags(self, three):
        inclusion = Homomorphism(two(), three, (0, 1))
        flags = classify_hom(inclusion)
        assert flags.leq_ideal_inclusion
        assert flags.preceq_cofinal and not flags.leq_cofinal
        assert not flags.image_ideal_preceq_closed
        m = dual_of_hom(inclusion)
        assert is_partial_identity_up_to_iso(m)
        sflags = classify_space_morphism(m)
        assert sflags.semitotal and not sflags.total and not sflags.saturated

    def test_variant_dualities_over_catalog(self):
        algebras = [A for _, A in small_test_algebras()]
        for A, B in itertools.product(algebras, repeat=2):
            for f in enumerate_homs(A, B):
                assert check_variant_dualities(f), (A.n, B.n, f.map)

    def test_total_iff_pullback_and_homeo_criterion(self):
        # every total enumerated morphism is fiber-bijective by validity; if
        # additionally the bases biject it is an isomorphism of spaces
        spaces = [make_space(2, 1, [0, 0]), make_space(3, 2, [0, 0, 1])]
        for sp1, sp2 in itertools.product(spaces, repeat=2):
            for m in enumerate_space_morphisms(sp1, sp2):
                flags = classify_space_morphism(m)
                total = len(m.g.domain) == sp1.size_e and len(m.h.domain) == sp1.size_b
                assert flags.total == total
                if flags.total and len(set(m.h.values)) == sp2.size_b == sp1.size_b:
                    assert sorted(m.g.values) == list(range(sp2.size_e))


class TestFactorization:
    def test_surjective_factorization_is_trivial(self, three):
        f = Homomorphism(three, three, (0, 2, 1))
        corestriction, inclusion = hom_factorization(f)
        assert inclusion.map == tuple(three.elements)
        assert corestriction.map == f.map

    def test_zero_map_factors_through_zero(self, three):
        corestriction, inclusion = hom_factorization(zero_hom(three, three))
        assert corestriction.target.n == 1
        assert inclusion.map == (0,)

    def test_image_ideal_example(self, three):
        f = Homomorphism(two(), three, (0, 1))
        corestriction, inclusion = hom_factorization(f)
        assert inclusion.map == (0, 1)
        assert algebras_isomorphic(corestriction.target, two()) is not None

    def test_factorization_composes_back(self, catalog):
        small = [A for _, A in catalog if A.n <= 4]
        for A, B in itertools.product(small, repeat=2):
            for f in enumerate_homs(A, B):
                corestriction, inclusion = hom_factorization(f)
                assert compose_homs(inclusion, corestriction) == f


class TestEnumerationOracle:
    def test_structured_enumeration_matches_raw_filter(self, three):
        # raw path: every pair of partial maps, kept iff it validates
        def raw(sp, tp):
            out = []
            from skewstone.spaces_sections import PartialMap
            from skewstone.morphisms_duality import SpaceMorphism

            for h_choice in itertools.product(
                    *[(None,) + tuple(range(tp.size_b)) for _ in range(sp.size_b)]):
                h = {x: v for x, v in enumerate(h_choice) if v is not None}
                for g_choice in itertools.product(
                        *[(None,) + tuple(range(tp.size_e)) for _ in range(sp.size_e)]):
                    g = {y: v for y, v in enumerate(g_choice) if v is not None}
                    m = SpaceMorphism(
                        sp, tp,
                        PartialMap(tuple(sorted(g)), tuple(g[k] for k in sorted(g))),
                        PartialMap(tuple(sorted(h)), tuple(h[k] for k in sorted(h))))
                    if validate_space_morphism_oracle(m).ok:
                        out.append(m)
            return sorted(out, key=lambda m: (m.h.domain, m.h.values,
                                              m.g.domain, m.g.values))

        spaces = [make_space(2, 1, [0, 0]),
                  make_space(3, 2, [0, 0, 1]),
                  skew_spectrum(three)[0],
                  random_space(1, 1, seed=2, band=("product", 2, 2))]
        for sp in spaces:
            for tp in spaces:
                assert list(enumerate_space_morphisms(sp, tp)) == raw(sp, tp)


class TestRowColumnSearch:
    """enumerate_space_morphisms builds each fiber map as a row map times a
    column map; the search over every injection, filtered by
    validate_space_morphism_oracle, is its oracle, and the closed-form count
    prod_x (1 + sum_y P(a_x, a_y) P(b_x, b_y)) gives the size."""

    @staticmethod
    def spaces():
        # the seeds give plain, right and left fibers of 3, and of 2 and 3
        seeded = [random_space(size_b, max_fiber, seed, kind)
                  for size_b, max_fiber, seed, kind in [
                      (2, 3, 611, "none"), (1, 3, 606, "none"),
                      (2, 3, 617, "right"), (1, 3, 607, "right"),
                      (2, 3, 618, "left"), (1, 3, 609, "left"),
                      (1, 1, 0, ("product", 2, 2)), (2, 1, 0, ("product", 2, 1)),
                      (1, 1, 0, ("product", 1, 3)), (1, 1, 0, ("product", 3, 1)),
                      (2, 1, 0, ("product", 1, 2))]]
        seeded.append(space_from_fibers((3, 1)))
        seeded += [mixed_space(grids, seed=650 + i) for i, grids in enumerate([
            ((2, 1), (1, 2)), ((1, 1), (2, 2)), ((3, 1), (1, 3)), ((2, 1), (1, 1), (1, 2))])]
        return seeded + [skew_spectrum(dual_algebra(sp)[0])[0] for sp in seeded]

    def test_equals_the_filtered_search_on_every_pair(self):
        spaces = self.spaces()
        assert len(spaces) >= 32
        nonempty = 0
        for sp, tp in itertools.product(spaces, repeat=2):
            found = enumerate_space_morphisms(sp, tp)
            assert found == enumerate_space_morphisms_search(sp, tp)
            assert len(found) == space_morphism_count(sp, tp)
            nonempty += len(found) > 1
        assert nonempty > len(spaces) ** 2 // 2

    def test_two_sided_fibers_count_only_valid_pieces(self):
        # one 2 x 2 fiber: 24 bijections onto it, 2! * 2! of them preserve
        # the band; the base point is left out or takes one of 4 pieces
        grid = random_space(1, 1, seed=0, band=("product", 2, 2))
        assert len(enumerate_space_morphisms(grid, grid, max_candidates=5)) == 5
        with pytest.raises(SizeCapError, match="more than 4 candidate assignments"):
            enumerate_space_morphisms(grid, grid, max_candidates=4)

    def test_band_that_is_not_rectangular_is_refused(self):
        semilattice = make_space(2, 1, [0, 0], [[0, 0], [0, 1]])
        with pytest.raises(ValueError, match="not a rectangular band"):
            enumerate_space_morphisms(semilattice, semilattice)

    def test_each_fiber_band_is_decoded_once(self, monkeypatch):
        # a space keeps its fiber decodes: two enumerations, an isomorphism
        # search and a pair split decode each band of sp and tp once
        decoded = []

        def counted(table):
            decoded.append(table)
            return decode(table)

        decode = morphisms_duality._rectangle
        monkeypatch.setattr(morphisms_duality, "_rectangle", counted)
        sp, tp = random_space(3, 2, 5, "left"), random_space(2, 3, 7, "right")
        for _ in range(2):
            assert enumerate_space_morphisms(sp, tp)
        assert spaces_isomorphic(sp, sp) is not None
        to_space_pair(sp)
        assert sorted(map(id, decoded)) == sorted(map(id, fiber_bands(sp) + fiber_bands(tp)))


class TestEnumerationCaps:
    def test_candidate_budget_is_counted(self):
        from skewstone import SizeCapError, dual_algebra, random_space

        A, _ = dual_algebra(random_space(2, 2, seed=9, band="right"))
        assert A.n == 9
        homs = enumerate_homs(A, A)
        assert len(homs) == 25
        assert enumerate_homs(A, A, max_candidates=9 ** 9) == homs
        with pytest.raises(SizeCapError, match="more than 10 candidate assignments"):
            enumerate_homs(A, A, max_candidates=10)


class TestBandedHomSetBijection:
    def test_two_sided_duals_biject_with_band_preserving_morphisms(self, three, mirror_three):
        from catalog import fiber_product_over_reflection

        neither5, _ = fiber_product_over_reflection(three, mirror_three)
        for A, B in ((neither5, neither5), (neither5, three), (three, neither5)):
            homs = enumerate_homs(A, B)
            duals = [dual_of_hom(f) for f in homs]
            morphisms = enumerate_space_morphisms(skew_spectrum(B)[0],
                                                  skew_spectrum(A)[0])
            assert len(set(duals)) == len(homs)
            assert sorted(duals, key=repr) == sorted(morphisms, key=repr)


def left_space(fiber_sizes):
    sp = space_from_fibers(fiber_sizes)
    band = [[x if sp.p[x] == sp.p[y] else None for y in range(sp.size_e)]
            for x in range(sp.size_e)]
    return make_space(sp.size_e, sp.size_b, sp.p, band)


def banded_space(fiber_sizes, kind):
    """space_from_fibers with a band on every fiber: "right" (x y = y),
    "left" (x y = x) or "grid" (the 2 x 2 rectangle, on fibers of four)."""
    sp = space_from_fibers(fiber_sizes)
    fiber = [[e for e in range(sp.size_e) if sp.p[e] == sp.p[x]] for x in range(sp.size_e)]

    def point(x, y):
        if kind == "grid":
            return fiber[x][(fiber[x].index(x) // 2) * 2 + fiber[x].index(y) % 2]
        return y if kind == "right" else x

    band = [[point(x, y) if sp.p[x] == sp.p[y] else None for y in range(sp.size_e)]
            for x in range(sp.size_e)]
    return make_space(sp.size_e, sp.size_b, sp.p, band)


class TestPlainSpaceIsTheRightBand:
    """A plain space's section algebra uses the right band x y = y, so a
    morphism between a plain and a banded space must preserve that band."""

    @pytest.mark.parametrize("kind, fiber_sizes, count", [
        ("right", (2,), 3), ("left", (2,), 1), ("grid", (4,), 1),
        ("right", (2, 1), 10), ("left", (2, 1), 6), ("grid", (4, 4), 1),
    ])
    def test_morphisms_against_a_banded_space(self, kind, fiber_sizes, count):
        plain, banded = space_from_fibers(fiber_sizes), banded_space(fiber_sizes, kind)
        for sp, tp in ((plain, banded), (banded, plain)):
            morphisms = enumerate_space_morphisms(sp, tp)
            assert len(morphisms) == count
            # each is dual to a homomorphism, and the hom set, read through
            # the spectra (which always carry a band), has as many
            for m in morphisms:
                assert validate_hom(hom_of_space_morphism(m)).ok
            assert len(enumerate_homs(dual_algebra(tp)[0], dual_algebra(sp)[0])) == count

    def test_fiber_bijection_that_breaks_the_right_band(self):
        plain, left = space_from_fibers((2,)), banded_space((2,), "left")
        ident = identity_space_morphism(plain)
        for sp, tp in ((plain, left), (left, plain)):
            m = type(ident)(sp, tp, ident.g, ident.h)
            assert validate_space_morphism(m).failures == (("band_preserved", (0, 1)),
                                                           ("band_preserved", (1, 0)))

    def test_plain_spaces_keep_every_fiber_map(self):
        # per source fiber: nothing, or an injection from a target fiber into it
        plain = space_from_fibers((3, 2))
        assert len(enumerate_space_morphisms(plain, plain)) == (1 + 6 + 6) * (1 + 0 + 2)


def assert_all_homs(homs, A, B, sp_a, sp_b):
    """homs is Hom(A, B), for A and B the section algebras of sp_a and sp_b:
    as many distinct maps as the closed-form count (hom_count), each a
    homomorphism (is_hom)."""
    ta, tb = tables_of(A), tables_of(B)
    assert len({f.map for f in homs}) == len(homs) == hom_count(sp_a, sp_b)
    assert all(is_hom(ta, A.zero, tb, B.zero, f.map) for f in homs)


class TestDualRouteMatchesSearch:
    """enumerate_homs and algebras_isomorphic read per-fiber choices off the
    two product forms; the element-wise backtracking searches and the
    closed-form count (hom_count) are their oracles.  The route through the
    spectra (helpers.enumerate_homs_transport_route) is a second route,
    compared beside the count and a check of every member (is_hom)."""

    def test_homs_equal_search_on_catalog_pairs(self, catalog):
        for (_, A), (_, B) in itertools.product(catalog, repeat=2):
            assert enumerate_homs(A, B) == enumerate_homs_search(A, B)

    @pytest.mark.parametrize("source, target", [
        (space_from_fibers((2, 1, 1)), random_space(2, 1, seed=5, band=("product", 2, 2))),
        (left_space((3, 3)), left_space((3, 3))),
    ], ids=["plain12_grid25", "left16_left16"])
    def test_homs_equal_search_beyond_bruteforce(self, source, target):
        A, B = dual_algebra(source)[0], dual_algebra(target)[0]
        homs = enumerate_homs(A, B)
        assert homs == enumerate_homs_search(A, B)
        assert len(homs) == len(enumerate_space_morphisms(skew_spectrum(B)[0],
                                                          skew_spectrum(A)[0]))

    def test_isomorphism_agrees_with_search_on_seeded_corpus(self):
        spaces = [random_space(size_b, max_fiber, seed=300 + i, band=kind)
                  for i, (size_b, max_fiber, kind) in enumerate(itertools.product(
                      (1, 2, 3), (1, 2), ("none", "right", "left")))]
        spaces += [random_space(size_b, 1, seed=400 + i, band=("product", k_left, k_right))
                   for i, (size_b, k_left, k_right) in enumerate(
                       ((1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2)))]
        algebras = [dual_algebra(sp)[0] for sp in spaces]
        algebras += [mirror(A) for A in algebras]
        assert max(A.n for A in algebras) <= 27
        found = missing = 0
        for A, B in itertools.product(algebras, repeat=2):
            if A.n != B.n:
                continue
            iso = algebras_isomorphic(A, B)
            assert (iso is None) == (algebras_isomorphic_search(A, B) is None)
            if iso is None:
                missing += 1
                continue
            found += 1
            assert sorted(iso) == list(range(B.n))
            assert validate_hom(Homomorphism(A, B, iso)).ok
        assert found > len(algebras) and missing > 20

    def test_homs_and_isomorphisms_need_no_spectrum(self):
        """Homs and isomorphisms are read off the two product forms: after
        enumerate_homs and algebras_isomorphic no algebra holds its
        spectrum."""
        sp_a, sp_b = space_from_fibers((2, 1)), random_space(2, 1, seed=5, band=("product", 2, 2))
        A, B = dual_algebra(sp_a)[0], dual_algebra(sp_b)[0]
        C = renumbered(B, seed=3)
        homs = enumerate_homs(A, B)
        iso = algebras_isomorphic(B, C)
        assert iso is not None and validate_hom(Homomorphism(B, C, iso)).ok
        assert not any("_memo_spectrum_data" in X.__dict__ for X in (A, B, C))
        assert homs == enumerate_homs_transport_route(A, B) and len(homs) > 10
        assert_all_homs(homs, A, B, sp_a, sp_b)

    def test_homs_equal_the_transport_oracle_on_corpus_pairs(self):
        spaces = corpus_spaces(20)
        algebras = [dual_algebra(sp)[0] for sp in spaces]
        for (A, sp_a), (B, sp_b) in itertools.product(zip(algebras, spaces), repeat=2):
            homs = enumerate_homs(A, B)
            assert homs == enumerate_homs_transport_route(A, B)
            assert_all_homs(homs, A, B, sp_a, sp_b)

    def test_homs_equal_the_transport_oracle_on_mirrored_and_renumbered_copies(self):
        # the closed-form count, on the spaces of the oracle's spectra
        algebras = corpus_dual_algebras(20)[::4]
        algebras += [mirror(A) for A in algebras] + [renumbered(A, seed=i)
                                                     for i, A in enumerate(algebras)]
        found = 0
        for A, B in itertools.product(algebras, repeat=2):
            homs = enumerate_homs(A, B)
            assert homs == enumerate_homs_transport_route(A, B)
            assert_all_homs(homs, A, B, spectrum_data_oracle(A).space,
                            spectrum_data_oracle(B).space)
            found += len(homs)
        assert found > len(algebras) ** 2

    def test_budget_edge_on_four_plain_fibers_of_two(self):
        # each of the four fibers of B is left out or takes one of A's four
        # fibers with one of its two bijections: 9^4 choice combinations
        A = dual_algebra(space_from_fibers((2,) * 4))[0]
        B = renumbered(A, seed=4)
        assert (A.n, B.n) == (81, 81)
        assert len(enumerate_homs(A, B, max_candidates=6561)) == 6561
        with pytest.raises(SizeCapError, match="more than 6560 candidate assignments"):
            enumerate_homs(A, B, max_candidates=6560)

    @pytest.mark.parametrize("source, target, count", [
        ((3, 3, 3), (4, 4), 5329),
        ((2,) * 4, (2,) * 4, 6561),
    ], ids=["plain64_plain25", "plain81_plain81"])
    def test_hom_counts_are_the_closed_form(self, source, target, count):
        A = dual_algebra(space_from_fibers(source))[0]
        B = renumbered(dual_algebra(space_from_fibers(target))[0], seed=6)
        homs = enumerate_homs(A, B)
        assert len(homs) == count == space_morphism_count(skew_spectrum(B)[0],
                                                          skew_spectrum(A)[0])
        assert all(f.map < g.map for f, g in zip(homs, homs[1:]))
        assert all(validate_hom(f).ok for f in homs[::97])

    def test_budget_counts_space_morphism_candidates(self, three):
        # Sk(right3) has one base point with two points over it.  It is left
        # out, or sent to itself with one of its two fiber bijections: three
        # candidates in all, each a morphism
        assert len(enumerate_homs(three, three, max_candidates=3)) == 3
        with pytest.raises(SizeCapError, match="more than 2 candidate assignments"):
            enumerate_homs(three, three, max_candidates=2)

    def test_budget_does_not_count_unvisited_base_maps(self):
        # seven plain fibers of 2 (n = 3^7) into seven of 1 (n = 2^7): the
        # 8^7 partial base maps of Sk(B) -> Sk(A) exceed the default budget,
        # but no fiber of one point maps onto a fiber of two, so the search
        # has one candidate, the empty morphism, dual to the zero hom
        A, _ = dual_algebra(space_from_fibers((2,) * 7))
        B, _ = dual_algebra(space_from_fibers((1,) * 7))
        assert (A.n, B.n) == (2187, 128)
        assert enumerate_homs(A, B) == (zero_hom(A, B),)


class TestValidateHomOracle:
    def test_one_entry_mutants_report_as_the_loop(self, catalog):
        rng = random.Random(11)
        pairs = [(A, B) for (_, A), (_, B) in itertools.product(catalog, repeat=2)]
        pairs.append((dual_algebra(space_from_fibers((2, 1, 1)))[0],
                      dual_algebra(random_space(2, 1, seed=5, band=("product", 2, 2)))[0]))
        checked = failing = 0
        for A, B in pairs:
            for f in enumerate_homs(A, B):
                assert validate_hom(f) == validate_hom_oracle(f)
                for _ in range(3):
                    image = list(f.map)
                    image[rng.randrange(A.n)] = rng.randrange(B.n)
                    mutant = Homomorphism(A, B, tuple(image))
                    report = validate_hom(mutant)
                    assert report == validate_hom_oracle(mutant)
                    checked += 1
                    failing += not report.ok
        assert failing > checked // 2
