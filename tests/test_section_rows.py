"""Sections as digit rows: the label order and the section algebra made from
the rows, and the space morphisms read as per-fiber band maps: the preimage
gather of hom_of_space_morphism and the section-lifting count of
classify_space_morphism, each against an independent oracle."""

import itertools
import random
import re
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest

import test_morphisms_duality
from definitions import (
    classify_space_morphism_oracle,
    hom_of_space_morphism_oracle,
    section_algebra,
    validate_space_morphism_oracle,
)
from helpers import (
    mixed_space,
    small_test_algebras,
    space_from_fibers,
)
from oracles import fiber_classes, sorted_labels
from skewstone import (
    PartialMap,
    SizeCapError,
    SpaceMorphism,
    SpaceMorphismFlags,
    check_variant_dualities,
    classify_space_morphism,
    dual_algebra,
    enumerate_homs,
    enumerate_sections,
    enumerate_space_morphisms,
    hom_of_space_morphism,
    identity_space_morphism,
    make_space,
    random_space,
    skew_spectrum,
    space_roundtrip_iso,
    validate_space,
    validate_space_morphism,
)
from skewstone.morphisms_duality import _decoded
from skewstone.spaces_sections import _section_rows, fibers, partial_map


def seeded_spaces():
    """Plain, right, left, 2 x 2 and mixed spaces with shuffled p, the empty
    base and one-point fibers."""
    out = [make_space(0, 0, []), space_from_fibers((1,)), space_from_fibers((1, 3))]
    # fibers of 4, 4 and 4 (seed 406), of 4, 4 and 2 (seed 409)
    out += [random_space(3, 4, seed=seed, band=kind)
            for seed in (406, 409) for kind in ("none", "right", "left")]
    for seed in range(12):
        size_b = 1 + seed % 3
        for kind in ("none", "right", "left"):
            out.append(random_space(size_b, 4, seed=100 + seed, band=kind))
        out.append(random_space(1 + seed % 2, 1, seed=200 + seed, band=("product", 2, 2)))
        grids = [((1 + (seed + b) % 2), 1 + (seed // 2 + b) % 2) for b in range(1 + seed % 3)]
        out.append(mixed_space(grids, seed=300 + seed))
    return out


class TestSectionRows:
    def test_spaces_have_shuffled_projections(self):
        spaces = seeded_spaces()
        assert any(list(sp.p) != sorted(sp.p) for sp in spaces if sp.band is None)
        assert any(list(sp.p) != sorted(sp.p) for sp in spaces if sp.band is not None)
        assert any(dual_algebra(sp)[0].n > 100 for sp in spaces)

    def test_labels_and_tables_equal_the_oracle(self):
        for sp in seeded_spaces():
            oracle, labels = section_algebra(sp)
            assert enumerate_sections(sp) == labels
            assert dual_algebra(sp) == (oracle, labels)

    def test_rows_are_the_labels_digits(self):
        for sp in seeded_spaces():
            rows, radix, rank, digit = _section_rows(sp)
            labels = enumerate_sections(sp)
            fib = fibers(sp)
            for e in range(sp.size_e):
                assert fib[sp.p[e]][digit[e] - 1] == e
            assert rows.shape == (len(labels), sp.size_b)
            for row, label in zip(rows.tolist(), labels):
                assert tuple(sorted(fib[b][d - 1] for b, d in enumerate(row) if d)) == label
            assert np.array_equal(rank[rows @ radix], np.arange(len(labels)))

    def test_labels_at_the_carrier_cap(self):
        # six fibers of three points, p shuffled: 4^6 = 4096 sections
        sp = random_space(6, 1, seed=11, band=("product", 1, 3))
        assert list(sp.p) != sorted(sp.p)
        labels = enumerate_sections(sp)
        assert len(labels) == 4096
        assert list(labels) == sorted_labels(sp)

    def test_one_section_past_the_cap(self):
        # fibers of 16 and 240 points: 17 * 241 = 4097 sections
        sp = space_from_fibers((16, 240))
        for build in (enumerate_sections, dual_algebra):
            with pytest.raises(SizeCapError) as caught:
                build(sp)
            assert str(caught.value) == "more than 4096 sections"


def row_column_spaces():
    """The spaces whose morphisms TestRowColumnSearch checks: plain, right,
    left, 2 x 2 and mixed fibers, and their spectra."""
    return test_morphisms_duality.TestRowColumnSearch.spaces()


def catalog_spectra():
    return [skew_spectrum(A)[0] for _, A in small_test_algebras()]


class TestMorphismGathers:
    """hom_of_space_morphism and classify_space_morphism read a morphism as
    one band map per fiber (_decoded): the first gathers preimages off
    the section rows, the second counts fiber sizes for section lifting.
    The tuple loops they replaced are their oracles."""

    @pytest.mark.parametrize("spaces", [catalog_spectra, row_column_spaces],
                             ids=["catalog_spectra", "row_column_pairs"])
    def test_every_morphism_matches_the_oracles(self, spaces):
        spaces = spaces()
        count = lifting = 0
        for sp, tp in itertools.product(spaces, repeat=2):
            for m in enumerate_space_morphisms(sp, tp):
                assert hom_of_space_morphism(m).map == hom_of_space_morphism_oracle(m).map
                flags = classify_space_morphism(m)
                assert flags == classify_space_morphism_oracle(m)
                count += 1
                lifting += flags.section_lifting
        assert 0 < lifting < count

    @staticmethod
    def broken(kind, m, rng):
        """m with one of the four conditions broken, or None if it cannot be:
        g defined over a base point outside dom h, a square that does not
        commute, g not a bijection from a piece onto its target fiber, or
        a band that g does not keep: two g-values swapped in a piece over a
        fiber of two rows and two columns or more, kept only when
        validate_space_morphism_oracle refuses the swap."""
        sp, tp = m.source, m.target
        g, h = m.g.as_dict(), m.h.as_dict()
        if kind == "outside_dom_h":
            over = sorted({sp.p[y] for y in g})
            if not over:
                return None
            del h[rng.choice(over)]
        elif kind == "square":
            y = rng.choice(sorted(g)) if g else None
            other = [e for e in range(tp.size_e) if y is not None and tp.p[e] != tp.p[g[y]]]
            if not other:
                return None
            g[y] = rng.choice(other)
        elif kind == "bijection":
            if not g:
                return None
            y = rng.choice(sorted(g))
            same = [z for z in g if z != y and sp.p[z] == sp.p[y]]
            if same and rng.random() < 0.5:
                g[y] = g[rng.choice(same)]               # not injective
            else:
                del g[y]                                 # misses a point
        else:
            classes = fiber_classes(tp)               # (size, rows, columns)
            two_sided = [x for x, t in sorted(h.items()) if min(classes[t][1:]) > 1]
            if not two_sided:
                return None
            x = rng.choice(two_sided)
            y1, y2 = rng.sample([y for y in sorted(g) if sp.p[y] == x], 2)
            g[y1], g[y2] = g[y2], g[y1]
            swapped = SpaceMorphism(sp, tp, partial_map(g), partial_map(h))
            return None if validate_space_morphism_oracle(swapped).ok else swapped
        return SpaceMorphism(sp, tp, partial_map(g), partial_map(h))

    @pytest.mark.parametrize("kind", ["outside_dom_h", "square", "bijection", "band"])
    def test_broken_morphisms_raise_as_the_oracle(self, kind):
        rng = random.Random(kind)
        spaces = row_column_spaces()
        tried = 0
        for sp, tp in itertools.product(spaces, repeat=2):
            morphisms = enumerate_space_morphisms(sp, tp)
            if kind == "band":
                # few morphisms reach a two-sided fiber, and each of those
                # has six swaps or more: try three on every morphism
                morphisms = morphisms * 3
            else:
                morphisms = rng.sample(morphisms, min(3, len(morphisms)))
            for m in morphisms:
                bad = self.broken(kind, m, rng)
                if bad is None:
                    continue
                with pytest.raises(RuntimeError):
                    hom_of_space_morphism_oracle(bad)
                with pytest.raises(RuntimeError):
                    hom_of_space_morphism(bad)
                tried += 1
        assert tried > 100

    def test_seeded_partial_maps_raise_where_the_oracle_does(self):
        rng = random.Random(5)
        spaces = row_column_spaces()
        raised = kept = 0
        for sp, tp in itertools.product(spaces[:16], repeat=2):
            for _ in range(3):
                h = {x: rng.randrange(tp.size_b) for x in range(sp.size_b) if rng.random() < 0.8}
                g = {y: rng.choice(fibers(tp)[h[sp.p[y]]]) for y in range(sp.size_e)
                     if sp.p[y] in h and rng.random() < 0.9}
                m = SpaceMorphism(sp, tp, partial_map(g), partial_map(h))
                try:
                    expected = hom_of_space_morphism_oracle(m).map
                except RuntimeError:
                    with pytest.raises(RuntimeError):
                        hom_of_space_morphism(m)
                    raised += 1
                else:
                    assert hom_of_space_morphism(m).map == expected
                    kept += 1
        assert raised > 0 and kept > 0

    def test_empty_fibers_match_the_oracles(self):
        # every partial map between spaces with empty fibers, which
        # validate_space refuses (p is not onto) but the morphism functions
        # take: a target base point outside the image of h lifts only if
        # its fiber has a point
        spaces = [make_space(2, 3, [0, 2]), make_space(3, 3, [0, 0, 2]), make_space(1, 2, [1]),
                  make_space(0, 1, []), make_space(2, 2, [0, 1]),
                  make_space(2, 2, [0, 0], band=[[0, 1], [0, 1]])]
        valid = lifting = 0
        for sp, tp in itertools.product(spaces, repeat=2):
            for h_choice in product([None, *range(tp.size_b)], repeat=sp.size_b):
                h = {x: t for x, t in enumerate(h_choice) if t is not None}
                for g_choice in product(*[(None, *fibers(tp)[h[x]]) if x in h else (None,)
                                          for x in sp.p]):
                    g = {y: e for y, e in enumerate(g_choice) if e is not None}
                    m = SpaceMorphism(sp, tp, partial_map(g), partial_map(h))
                    if not validate_space_morphism_oracle(m).ok:
                        with pytest.raises(RuntimeError):
                            classify_space_morphism(m)
                        continue
                    flags = classify_space_morphism(m)
                    assert flags == classify_space_morphism_oracle(m)
                    assert hom_of_space_morphism(m).map == hom_of_space_morphism_oracle(m).map
                    valid += 1
                    lifting += flags.section_lifting
        assert 0 < lifting < valid

    def test_dual_of_the_identity_makes_no_square_array(self):
        # five plain fibers of three (n = 1024), the algebra built first: the
        # identity's dual is one gather of the rows, with no 1024 x 1024
        # array (2 MiB as int16) and no check of the tables
        sp = make_space(15, 5, [b for b in range(5) for _ in range(3)])
        A = dual_algebra(sp)[0]
        tracemalloc.start()
        try:
            f = hom_of_space_morphism(identity_space_morphism(sp))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.map == tuple(range(A.n)) == tuple(range(1024))
        assert peak < 2 ** 20

    def test_lifting_past_the_section_cap(self):
        # fibers of 16 and 240 points: the identity has 17 * 241 = 4097
        # target sections, and its flags need none of them
        m = identity_space_morphism(space_from_fibers((16, 240)))
        assert classify_space_morphism(m) == SpaceMorphismFlags(True, True, True, True)


class TestMorphismCheck:
    """validate_space_morphism reports from the per-fiber decode of
    hom_of_space_morphism and classify_space_morphism: one band map
    comparison per fiber, with pairs listed only where a fiber fails.  The
    walk over every pair of points in a fiber is its oracle, and the two
    reports must be equal, failures in the same order."""

    @staticmethod
    def mutants(m, rng):
        """m with one entry changed, in each of five ways where it can be: a
        g-value moved, an h-entry dropped, a g-point dropped, an h-value
        moved, and two g-values swapped."""
        sp, tp = m.source, m.target
        g, h = m.g.as_dict(), m.h.as_dict()
        out = []
        if g and tp.size_e:
            out.append(({**g, rng.choice(sorted(g)): rng.randrange(tp.size_e)}, h))
        if h:
            out.append((g, {x: t for x, t in h.items() if x != rng.choice(sorted(h))}))
        if g:
            out.append(({y: e for y, e in g.items() if y != rng.choice(sorted(g))}, h))
        if h and tp.size_b:
            out.append((g, {**h, rng.choice(sorted(h)): rng.randrange(tp.size_b)}))
        if len(g) > 1:
            y1, y2 = rng.sample(sorted(g), 2)
            out.append(({**g, y1: g[y2], y2: g[y1]}, h))
        return [SpaceMorphism(sp, tp, partial_map(g2), partial_map(h2)) for g2, h2 in out]

    @staticmethod
    def random_map(sp, tp, rng):
        """A partial map pair, g mostly over h and sometimes anywhere."""
        h = {x: rng.randrange(tp.size_b) for x in range(sp.size_b)
             if tp.size_b and rng.random() < 0.8}
        g = {}
        for y in range(sp.size_e):
            over = fibers(tp)[h[sp.p[y]]] if sp.p[y] in h else ()
            if over and rng.random() < 0.8:
                g[y] = rng.choice(over)
            elif tp.size_e and rng.random() < 0.3:
                g[y] = rng.randrange(tp.size_e)
        return SpaceMorphism(sp, tp, partial_map(g), partial_map(h))

    @staticmethod
    def assert_same_reports(maps):
        """The reports are equal, and where m is invalid the functions that
        read it, taken in turn, raise naming the first failure."""
        kinds, valid = set(), 0
        for i, m in enumerate(maps):
            report = validate_space_morphism(m)
            assert report == validate_space_morphism_oracle(m), m
            kinds.update(law for law, _ in report.failures)
            valid += report.ok
            if not report.ok:
                with pytest.raises(RuntimeError) as caught:
                    (hom_of_space_morphism, classify_space_morphism)[i % 2](m)
                assert str(caught.value) == f"invalid space morphism: {report.failures[0]}"
        assert kinds == {"square_commutes", "fiber_bijection", "band_preserved"}
        assert 0 < valid < len(maps)
        return len(maps)

    def test_seeded_mutants_and_random_maps_report_as_the_walk(self):
        rng = random.Random(34)
        maps = []
        for sp, tp in itertools.product(row_column_spaces(), repeat=2):
            morphisms = enumerate_space_morphisms(sp, tp)
            for m in rng.sample(morphisms, min(2, len(morphisms))):
                maps += [m, *self.mutants(m, rng), self.random_map(sp, tp, rng)]
        assert self.assert_same_reports(maps) > 8000

    def test_one_plain_fiber_of_1023_reports_as_the_walk(self):
        # n = 1024: the space round trip holds; on three one-entry mutants
        # of its morphism the report equals the pairwise walk of the oracle,
        # and the per-fiber check takes a fifth of the walk's time or less
        sp = make_space(1023, 1, [0] * 1023)
        iso = space_roundtrip_iso(sp)
        assert iso.target.size_e == 1023
        g, h = iso.g.as_dict(), iso.h.as_dict()
        y1, y2, y3 = random.Random(1).sample(sorted(g), 3)
        mutants = [SpaceMorphism(sp, iso.target, partial_map(gm), partial_map(hm))
                   for gm, hm in (({**g, y1: g[y2]}, h),
                                  ({y: e for y, e in g.items() if y != y3}, h), (g, {}))]
        fast = slow = 0.0
        for m in [iso] + mutants:
            t0 = time.perf_counter()
            got = validate_space_morphism(m)
            t1 = time.perf_counter()
            want = validate_space_morphism_oracle(m)
            fast, slow = fast + t1 - t0, slow + time.perf_counter() - t1
            assert got == want and got.ok == (m is iso), (got.failures[:3], want.failures[:3])
        assert 5 * fast < slow, (fast, slow)

    def test_every_map_between_tiny_spaces_reports_as_the_walk(self):
        # empty fibers, plain against right, left and mixed bands, and the
        # 2 x 2 grid; g ranges over every partial map, over h or not
        spaces = [make_space(2, 3, [0, 2]), make_space(3, 3, [0, 0, 2]), make_space(1, 2, [1]),
                  make_space(0, 1, []), make_space(2, 2, [0, 1]),
                  make_space(2, 2, [0, 0], band=[[0, 1], [0, 1]]),
                  make_space(2, 1, [0, 0], band=[[0, 0], [1, 1]]),
                  mixed_space([(2, 1), (1, 1)], seed=3),
                  random_space(1, 1, seed=0, band=("product", 2, 2))]
        maps = [SpaceMorphism(sp, tp, partial_map({y: e for y, e in enumerate(g) if e is not None}),
                              partial_map({x: t for x, t in enumerate(h) if t is not None}))
                for sp, tp in itertools.product(spaces, repeat=2)
                for h in product([None, *range(tp.size_b)], repeat=sp.size_b)
                for g in product([None, *range(tp.size_e)], repeat=sp.size_e)]
        assert self.assert_same_reports(maps) > 20000


class TestDecodedOnce:
    """A band that leaves its fiber is named by the decode, and each
    morphism is decoded once."""

    @pytest.mark.parametrize("band, pair, message", [
        ([[1, None], [None, 1]], (0, 0), "band[0][0] = 1 is not a point of the fiber over 0"),
        ([[0, None], [None, 0]], (1, 1), "band[1][1] = 0 is not a point of the fiber over 1"),
    ], ids=["first_fiber", "second_fiber"])
    @pytest.mark.parametrize("call", [
        validate_space_morphism, hom_of_space_morphism,
        lambda m: enumerate_space_morphisms(m.source, m.target),
    ], ids=["validate", "hom_of_space_morphism", "enumerate"])
    def test_a_band_that_leaves_its_fiber_is_named(self, band, pair, message, call):
        # validate_space refuses such a space; the three calls raised a bare KeyError
        sp = make_space(2, 2, [0, 1], band=band)
        assert ("band_in_fiber", pair) in validate_space(sp).failures
        with pytest.raises(ValueError, match=re.escape(message)):
            call(identity_space_morphism(sp))

    def test_a_missing_product_in_a_fiber_is_named(self):
        sp = make_space(2, 1, [0, 0], band=[[0, None], [1, 1]])
        with pytest.raises(ValueError, match=re.escape("band[0][1] = None is not a point")):
            validate_space_morphism(identity_space_morphism(sp))

    def test_check_variant_dualities_decodes_its_dual_once(self, monkeypatch):
        # a decode reads g and h as dicts once; dual_of_hom checks the dual
        # and classify_space_morphism reads its pieces from the same decode
        A = dual_algebra(random_space(2, 2, seed=3, band="right"))[0]
        f = enumerate_homs(A, A)[5]
        calls = []
        as_dict = PartialMap.as_dict
        monkeypatch.setattr(PartialMap, "as_dict", lambda pm: calls.append(pm) or as_dict(pm))
        assert check_variant_dualities(f) is True
        assert len(calls) == 2

    def test_pieces_are_read_only(self):
        pieces = _decoded(identity_space_morphism(random_space(2, 3, seed=1, band="left")))[0]
        assert isinstance(pieces, tuple) and len(pieces) == 2
        for _, at in pieces:
            with pytest.raises(ValueError):
                at[0] = 0
