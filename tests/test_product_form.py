"""The product form of a certified algebra against the pairwise oracles:
Green's relations, handedness, the spectrum and the basic sections read
off the digits, and the commutative reflection (the quotient by D), equal
the oracles' on the catalog, the seeded corpus, spaces of every band kind
up to n = 256, the edge cases, and renumbered copies, whose element order
is not the builder's.  An algebra the certificate refuses has no derived
structure: every consumer raises the one gate's ValueError, which names
the certificate's check that refused it."""

import pytest

from catalog import boolean_algebra, one_element
from definitions import (
    basic_copens_oracle,
    basic_rows_oracle,
    green_partitions_oracle,
    handedness_oracle,
    quotient_by_oracle,
    spectrum_data_oracle,
)
from helpers import (
    corpus_dual_algebras,
    mixed_space,
    outcome,
    pinned_refusals,
    refusal,
    renumbered,
    retabled,
    small_test_algebras,
    space_from_fibers,
)
from skewstone import (
    algebra_roundtrip_iso,
    basic_copen,
    dual_algebra,
    enumerate_homs,
    enumerate_prime_ideals,
    find_lattice_section,
    green_partitions,
    handedness,
    quotient_by,
    random_space,
    second_decomposition_check,
    skew_spectrum,
    validate_algebra,
)
from skewstone.core_algebra import _certificate, _certified_form
from skewstone.lattice_sections import is_lattice_section
from skewstone.ideals_spectra import fiber_bands, spectrum_data

FIELDS = ("primes", "points", "space")


def check_against_oracles(A):
    assert _certificate(A) is None
    green = green_partitions_oracle(A)
    assert green_partitions(A) == green
    assert handedness(A) == handedness_oracle(A)
    assert quotient_by(A, green[0]) == quotient_by_oracle(A, green[0])
    sd, expected = spectrum_data(A), spectrum_data_oracle(A)
    for name in FIELDS:
        assert getattr(sd, name) == getattr(expected, name), name
    assert sd.rows.tolist() == basic_rows_oracle(A, expected)
    assert tuple(basic_copen(A, a) for a in A.elements) == basic_copens_oracle(A, expected)


def seeded_spaces():
    """Plain, right, left, 2 x 2 and mixed per-fiber bands, n = 27 to 256."""
    # fibers of 3, 3, 3, 3 (n = 256) and 3, 3, 3, 2 (n = 192)
    spaces = [random_space(4, 3, seed, kind)
              for seed, kind in ((95, "none"), (44, "right"), (116, "left"))]
    spaces += [random_space(3, 3, 20 + seed, kind)
               for seed, kind in enumerate(("none", "right", "left"))]
    spaces.append(random_space(3, 1, 4, ("product", 2, 2)))
    spaces.append(random_space(2, 1, 6, ("product", 3, 1)))
    spaces += [mixed_space(grids, seed=700 + i) for i, grids in enumerate((
        ((2, 1), (1, 2), (2, 2)), ((1, 3), (3, 1), (2, 2)), ((2, 2), (1, 1), (1, 4))))]
    return spaces


def test_catalog_and_corpus():
    algebras = [A for _, A in small_test_algebras()] + corpus_dual_algebras(200)
    for A in algebras:
        check_against_oracles(A)


def test_seeded_spaces_up_to_256():
    algebras = [dual_algebra(sp)[0] for sp in seeded_spaces()]
    assert max(A.n for A in algebras) == 256
    assert {handedness(A) for A in algebras} >= {"right", "left", "neither"}
    for A in algebras:
        check_against_oracles(A)


@pytest.mark.parametrize("build", [
    one_element,
    lambda: dual_algebra(space_from_fibers(()))[0],
    lambda: dual_algebra(space_from_fibers((255,)))[0],
    lambda: dual_algebra(space_from_fibers((1,) * 7))[0],
    lambda: boolean_algebra(3),
], ids=["one_element", "empty_space", "one_fiber_of_255", "boolean_128", "boolean_8"])
def test_edge_cases(build):
    check_against_oracles(build())


def test_renumbered_algebras():
    algebras = [dual_algebra(sp)[0] for sp in seeded_spaces()]
    algebras += [A for _, A in small_test_algebras()]
    algebras += corpus_dual_algebras(20, base_seed=4000)
    for i, A in enumerate(algebras):
        B = renumbered(A, seed=i)
        assert validate_algebra(B).ok
        check_against_oracles(B)


def test_the_spectrum_is_the_forms_numbering():
    """The product form numbers its fibers and points as the spectrum does,
    so the basic rows are the form's digits, the same array, and the bands
    the form's decodes give are the oracle's fiber bands, on the 200 corpus
    algebras and a renumbered copy of each, whose element order is not the
    builder's."""
    for i, A in enumerate(corpus_dual_algebras(200)):
        for B in (A, renumbered(A, seed=i)):
            form, sd, expected = _certified_form(B), spectrum_data(B), spectrum_data_oracle(B)
            assert sd.rows is form.digits
            for name in FIELDS:
                assert getattr(sd, name) == getattr(expected, name), name
            assert sd.rows.tolist() == basic_rows_oracle(B, expected)
            assert ([grid[row[:, None], col].tolist() for row, col, grid in form.rectangles]
                    == [band.tolist() for band in fiber_bands(expected.space)])


def test_one_entry_mutant_is_refused_by_name():
    A, _ = dual_algebra(random_space(2, 2, 5, "left"))
    B = retabled(A, "meet", [(3, 4, (A.meet(3, 4) + 1) % A.n)])
    assert _certificate(A) is None and _certificate(B) == "meet"
    assert not validate_algebra(B).ok
    consumers = (green_partitions, handedness, spectrum_data,
                 lambda B: quotient_by(B, green_partitions(B)[0]),
                 lambda B: basic_copen(B, B.zero))
    for consume in consumers:
        assert outcome(consume, B) == refusal(B), consume.__name__
    # and each answers on the certified A
    for consume in consumers:
        consume(A)


def test_pinned_refusals_are_refused_by_name_everywhere():
    """Each pinned refusal (helpers.pinned_refusals) raises the gate's
    ValueError, naming the check that refused it, through every consumer of
    derived structure, and as either argument of a hom search."""
    valid = boolean_algebra(1)
    consumers = {
        "green_partitions": green_partitions,
        "handedness": handedness,
        "quotient by D": lambda B: quotient_by(B, green_partitions(B)[0]),
        "is_lattice_section": lambda B: is_lattice_section(B, (B.zero,)),
        "skew_spectrum": skew_spectrum,
        "enumerate_prime_ideals": enumerate_prime_ideals,
        "basic_copen": lambda B: basic_copen(B, B.zero),
        "second_decomposition_check": second_decomposition_check,
        "find_lattice_section": find_lattice_section,
        "algebra_roundtrip_iso": algebra_roundtrip_iso,
        "enumerate_homs(B, valid)": lambda B: enumerate_homs(B, valid),
        "enumerate_homs(valid, B)": lambda B: enumerate_homs(valid, B),
    }
    for check, B in pinned_refusals().items():
        expected = refusal(B)
        assert expected[2].endswith(f"(certificate check {check})")
        for name, consume in consumers.items():
            assert outcome(consume, B) == expected, (check, name)
