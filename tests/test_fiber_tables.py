"""A space keeps one band table per fiber (RectSkewSpace).  The E x E band
of the interchange format is read by make_space and made back by
sp.band and the JSON writer.  These tests hold the three to the E x E
oracles of definitions.py (band_rows_oracle, the pairwise walk of
validate_space_oracle, band_error_oracle, fiber_bands_error_oracle) on every
catalog and corpus space and on seeded mutants of them, and bound the work
on large fibers.
"""

import json
import random
import tracemalloc

import numpy as np
import pytest

from definitions import (
    band_error_oracle,
    band_rows_oracle,
    fiber_bands_error_oracle,
    section_algebra,
    validate_space_oracle,
)
from helpers import (
    corpus_spaces,
    space_from_fibers,
    traced_peak,
)
from skewstone import (
    RectSkewSpace,
    StructuralError,
    dual_algebra,
    hom_of_space_morphism,
    identity_space_morphism,
    left_band,
    make_space,
    random_space,
    reflection_check,
    right_band,
    skew_spectrum,
    validate_space,
)
from skewstone.core_algebra import _certified_form
from skewstone.spaces_sections import fiber_bands
from skewstone.jsonio import dumps, space_to_dict


@pytest.fixture(scope="module")
def spaces(catalog):
    """The spectra of the catalog and the corpus spaces."""
    return [skew_spectrum(A)[0] for _, A in catalog] + corpus_spaces()


def fiber_bands_error(sp):
    try:
        fiber_bands(sp)
    except ValueError as exc:
        return str(exc)
    return None


def same_fiber_cell(sp, rng, outside=False):
    """A seeded pair (x, y) of one fiber, with a point of another fiber
    when outside is set; None when the space has no such cell."""
    fib = [[e for e in range(sp.size_e) if sp.p[e] == b] for b in range(sp.size_b)]
    others = [f for f in fib if f]
    if not others or (outside and len(others) < 2):
        return None
    f = rng.choice(others)
    x, y = rng.choice(f), rng.choice(f)
    if not outside:
        return x, y, None
    return x, y, rng.choice([e for g in others if g is not f for e in g])


def mutant(sp, rows, kind, rng):
    """rows with one seeded cell (or row) broken as kind says, or None
    when sp has no such cell.  "pair" breaks two cells, so the order of
    the report matters."""
    rows = [list(row) for row in rows]
    size_e = sp.size_e
    if kind == "none_inside":
        cell = same_fiber_cell(sp, rng)
        if cell is None:
            return None
        rows[cell[0]][cell[1]] = None
    elif kind == "across":
        pairs = [(x, y) for x in range(size_e) for y in range(size_e) if sp.p[x] != sp.p[y]]
        if not pairs:
            return None
        x, y = rng.choice(pairs)
        rows[x][y] = rng.randrange(size_e)
    elif kind == "outside":
        cell = same_fiber_cell(sp, rng, outside=True)
        if cell is None:
            return None
        x, y, v = cell
        rows[x][y] = v
    elif kind == "pair":
        for inner in ("outside", "none_inside"):
            rows = mutant(sp, rows, inner, rng) or mutant(sp, rows, "none_inside", rng)
            if rows is None:
                return None
    elif kind == "bool":
        rows[rng.randrange(size_e)][rng.randrange(size_e)] = rng.choice([True, False])
    elif kind == "ragged":
        row = rows[rng.randrange(size_e)]
        if rng.random() < 0.5:
            row.append(0)
        else:
            row.pop()
    elif kind == "rows":
        rows.pop()
    elif kind == "out_of_range":
        rows[rng.randrange(size_e)][rng.randrange(size_e)] = rng.choice([-1, size_e, 10 ** 30])
    return rows


KINDS = ("none_inside", "across", "outside", "pair", "bool", "ragged", "rows", "out_of_range")


class TestAgainstTheOracles:
    def test_band_and_report_are_the_oracles(self, spaces):
        for sp in spaces:
            rows = band_rows_oracle(sp)
            assert sp.band == rows and sp.band is sp.band
            assert validate_space(sp).failures == validate_space_oracle(
                sp.size_e, sp.size_b, sp.p, rows)
            assert sp.stray == ()

    def test_spaces_read_from_rows_equal_those_built_per_fiber(self, spaces):
        # random_space and the spectrum build per fiber, make_space reads the
        # E x E rows, as lists or as tuples: the same space, equal and hashed
        # alike, written as the standard library writes its rows
        for sp in spaces:
            rows = band_rows_oracle(sp)
            band = None if rows is None else [list(row) for row in rows]
            for twin in (make_space(sp.size_e, sp.size_b, list(sp.p), band),
                         make_space(sp.size_e, sp.size_b, sp.p, rows)):
                assert twin == sp and hash(twin) == hash(sp)
                assert twin.band == rows
            obj = {"E": sp.size_e, "B": sp.size_b, "p": list(sp.p)}
            if band is not None:
                obj["band"] = band
            assert dumps(space_to_dict(sp)) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mutants_are_read_and_reported_as_the_oracles(self, spaces, kind):
        rng = random.Random(kind)
        tried = 0
        for sp in spaces:
            rows = band_rows_oracle(sp)
            if rows is None or not sp.size_e:
                continue
            band = mutant(sp, rows, kind, rng)
            if band is None:
                continue
            tried += 1
            want = band_error_oracle(sp.size_e, band)
            if kind == "bool":
                # make_space refuses bools before it builds anything
                with pytest.raises(TypeError, match="'bool' object cannot be interpreted"):
                    make_space(sp.size_e, sp.size_b, list(sp.p), band)
            if want:
                if kind != "bool":
                    with pytest.raises(StructuralError) as exc:
                        make_space(sp.size_e, sp.size_b, list(sp.p), band)
                    assert str(exc.value) == want
                continue
            got = make_space(sp.size_e, sp.size_b, sp.p, tuple(map(tuple, band)))
            twin = make_space(sp.size_e, sp.size_b, list(sp.p), band)
            assert got.band == twin.band == tuple(map(tuple, band))
            assert got == twin and hash(got) == hash(twin) and got != sp
            assert validate_space(got).failures == validate_space_oracle(
                sp.size_e, sp.size_b, sp.p, band)
            assert fiber_bands_error(got) == fiber_bands_error_oracle(
                sp.size_e, sp.size_b, sp.p, band)
            assert dumps(space_to_dict(got)) == json.dumps(
                {"E": sp.size_e, "B": sp.size_b, "p": list(sp.p), "band": band},
                indent=2, sort_keys=True)
        assert tried >= 20

    def test_a_base_point_with_no_points_comes_first(self, spaces):
        # p not onto, and a None inside a fiber: p_surjective, then the cell
        rng = random.Random(5)
        for sp in spaces:
            rows = band_rows_oracle(sp)
            if rows is None or not sp.size_e:
                continue
            band = mutant(sp, rows, "none_inside", rng)
            got = make_space(sp.size_e, sp.size_b + 1, list(sp.p), band)
            want = validate_space_oracle(sp.size_e, sp.size_b + 1, sp.p, band)
            assert want[0] == ("p_surjective", (sp.size_b,)) and len(want) == 2
            assert validate_space(got).failures == want


class TestTheConstructorChecksItsTables:
    """RectSkewSpace(E, B, p, tables=...) refuses what is not one table per
    fiber on its points, naming the fiber, where a bad entry used to surface
    later as a bare IndexError from validate_space and sp.band."""

    @pytest.mark.parametrize("p, tables, stray, message", [
        ((0, 0), [[[0, 5], [0, 1]]], (), "band table over 0 has entry 5 outside 0..1"),
        ((0, 0), [[[0.0, 1.0], [0.0, 1.0]]], (),
         "band table over 0 is not a 2 x 2 integer table"),
        ((0, 0, 1), [[[0, 1], [0, 1]], [[0, 0]]], (),
         "band table over 1 is not a 1 x 1 integer table"),
        ((0, 0), [[[0, 1], [0]]], (), "band table over 0 is not a 2 x 2 integer table"),
        ((0, 0), [[[0, 1], [0, 1]]] * 2, (), "2 band tables for B = 1"),
        ((0, 0), [[[0, -1], [0, 1]]], ((1, 0, None),),
         "band table over 0 has entry -1 outside 0..1"),
        ((0, 0), [[[0, -2], [0, 1]]], ((0, 1, None),),
         "band table over 0 has entry -2 outside 0..1"),
    ], ids=["out_of_range", "float", "shape", "ragged", "count", "unlisted", "below_minus_one"])
    def test_a_table_that_is_not_a_fiber_table_is_refused(self, p, tables, stray, message):
        with pytest.raises(StructuralError) as exc:
            RectSkewSpace(len(p), 1 + max(p), p, tables=tables, stray=stray)
        assert str(exc.value) == message

    def test_the_stray_cells_of_make_space_are_accepted(self):
        # a None inside a fiber and a value outside it are -1 in the table
        sp = make_space(3, 2, [0, 0, 1], [[0, None, None], [2, 1, None], [None, None, 2]])
        assert sp.stray == ((0, 1, None), (1, 0, 2))
        twin = RectSkewSpace(3, 2, (0, 0, 1), tables=[[[0, -1], [-1, 1]], [[0]]],
                             stray=sp.stray)
        assert twin == sp and twin.band == sp.band
        assert validate_space(twin).failures == (("band_defined_iff_same_fiber", (0, 1)),
                                                 ("band_in_fiber", (1, 0)))


class TestLargeFibers:
    def test_a_plain_fiber_band_is_a_view(self, spaces):
        # one plain fiber of 4095 points: the right band is a broadcast view
        # of one row, where an m x m intp table took 128 MiB
        sp = space_from_fibers((4095,))
        assert traced_peak(fiber_bands, sp) < 2 ** 20
        (band,) = fiber_bands(sp)
        assert band.shape == (4095, 4095) and not band.flags.writeable
        assert np.array_equal(band[[0, 17, 4094]], np.tile(np.arange(4095), (3, 1)))
        # and the section algebra the view builds is the oracle's
        for sp in spaces[-40:]:
            assert dual_algebra(sp) == section_algebra(sp)

    def test_one_plain_fiber_of_4095_is_read_and_validated_in_place(self):
        # no band to read and none to make: make_space and validate_space
        # hold the map p and its fibers
        p = [0] * 4095

        def read_and_validate():
            assert validate_space(make_space(4095, 1, p)).ok

        assert traced_peak(read_and_validate) < 2 ** 20

    def test_one_band_fiber_of_4095_is_decoded_without_a_placement_grid(self):
        # one 63 x 65 band fiber: validate_space decodes its 128 MiB intp
        # table with one comparison, against the band gathered as uint16
        # from the 63 x 65 grid (32 MiB); the m x m placement grid and its
        # gather took 128 MiB each
        sp = random_space(1, 1, 0, ("product", 63, 65))
        assert sp.size_e == 4095
        assert traced_peak(lambda: validate_space(sp).ok) < 64 * 2 ** 20
        assert validate_space(sp).ok

    @pytest.mark.parametrize("kind", ["right", "left"])
    def test_a_right_or_left_fiber_of_1730_is_made_as_one_array(self, kind):
        # random_space makes each band as an intp table, where a tuple of
        # m^2 ints per fiber took 146 MiB traced at m = 1730; right_band and
        # left_band are the same tables
        assert traced_peak(random_space, 1, 2000, 0, kind) < 32 * 2 ** 20
        (band,) = random_space(1, 2000, 0, kind).tables
        m = len(band)
        assert m == 1730 and band.shape == (m, m)
        positions = np.arange(m)
        assert (band == (positions if kind == "right" else positions[:, None])).all()
        small = (right_band if kind == "right" else left_band)(4)
        assert small.tolist() == [[y if kind == "right" else x for y in range(4)]
                                  for x in range(4)]

    def test_space_morphisms_at_n_4096_stay_small(self):
        # six plain fibers of three (n = 4096), the algebra and its product
        # form built first: the identity's dual homomorphism is one gather
        # of the section rows and the reflection check reads supports;
        # neither makes a 4096 x 4096 array (32 MiB as int16), so each stays
        # under a 16 MiB traced peak
        sp = make_space(18, 6, [b for b in range(6) for _ in range(3)])
        A = dual_algebra(sp)[0]
        _certified_form(A)
        dual_map = lambda: hom_of_space_morphism(identity_space_morphism(sp)).map
        for what, run, want in (("dual homomorphism", dual_map, tuple(range(4096))),
                                ("reflection check", lambda: reflection_check(sp), True)):
            tracemalloc.start()
            try:
                got = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want, what
            assert peak < 16 * 2 ** 20, (what, peak)
