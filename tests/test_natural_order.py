"""The natural order has no n x n home in the library: on a certified
algebra the generated ideals, is_ideal, classify_hom and reflection_check
read the order and the preorder off the product form, and export-dot reads
the covers of the order off the form's digit codec; only the exhaustive
report on a refused algebra makes an order mask, from the meet table it
reads.  Each reader is checked against the pairwise loop it replaced, kept
as an oracle in definitions.py: the generated ideals, classify_hom,
reflection_check and the Hasse edges of export-dot give equal results,
and raise the same exception types with the same messages, on the catalog,
seeded section algebras of every band kind and spaces whose bands are not
rectangular; on an algebra the certificate refuses (one-entry mutants,
section algebras of those spaces), the generated ideals, reflection_check
and the Hasse edges raise the certificate's refusal instead."""

import random

import numpy as np
import pytest

from definitions import (
    classify_hom_oracle,
    hasse_edges_oracle,
    leq_ideal_generated_oracle,
    preceq_ideal_generated_oracle,
    reflection_check_oracle,
)
from helpers import (
    corpus_dual_algebras,
    corpus_spaces,
    mixed_space,
    outcome,
    refusal,
    retabled,
    round_trip_algebras,
    small_test_algebras,
    space_from_fibers,
    traced_peak,
)
from skewstone import (
    HomFlags,
    StructuralError,
    dual_algebra,
    enumerate_homs,
    green_partitions,
    handedness,
    leq_ideal_generated,
    make_space,
    preceq_ideal_generated,
    quotient_by,
    random_space,
    reflection_check,
)
from skewstone.cli import _hasse_edges
from skewstone.core_algebra import _certificate, _certified_form
from skewstone.ideals_spectra import is_ideal
from skewstone.morphisms_duality import classify_hom
from test_validator_fast_path import LADDER_1024

OPS = ("meet", "join", "diff", "cap")


@pytest.fixture(scope="module")
def algebras():
    """The catalog, seeded section algebras of every band kind (n = 1 to
    25) and the commutative reflection of each."""
    out = [A for _, A in small_test_algebras()] + corpus_dual_algebras(24)
    return out + [quotient_by(A, green_partitions(A)[0])[0] for A in out]


def mutants(algebras, count, seed):
    """Algebras with one entry of one table changed."""
    rng = random.Random(seed)
    for _ in range(count):
        A = rng.choice([A for A in algebras if A.n > 1])
        table, x, y = rng.choice(OPS), rng.randrange(A.n), rng.randrange(A.n)
        value = (getattr(A, table + "_table")[x][y] + rng.randrange(1, A.n)) % A.n
        yield retabled(A, table, [(x, y, value)])


def test_generated_ideals_match_the_loop(algebras):
    rng = random.Random(29)
    refused = 0
    for A in algebras + list(mutants(algebras, 40, 5)):
        for _ in range(6):
            subset = rng.sample(range(A.n), rng.randint(0, min(4, A.n)))
            if _certificate(A) is not None:
                assert outcome(leq_ideal_generated, A, subset) == refusal(A)
                assert outcome(preceq_ideal_generated, A, subset) == refusal(A)
                refused += 1
                continue
            members = leq_ideal_generated(A, subset)
            assert members == leq_ideal_generated_oracle(A, subset)
            ideal = preceq_ideal_generated(A, subset)
            assert ideal == preceq_ideal_generated_oracle(A, subset)
            assert is_ideal(A, ideal.members)
    assert refused > 0


def test_generators_must_be_elements(algebras):
    for A in algebras[:9]:
        for bad in (-1, A.n, 1.5, True):
            for generate in (leq_ideal_generated, preceq_ideal_generated):
                with pytest.raises(StructuralError, match="are not all elements"):
                    generate(A, [A.zero, bad])


def test_hasse_edges_match_the_loop(algebras):
    refused = 0
    for A in algebras + list(mutants(algebras, 40, 7)):
        if _certificate(A) is not None:
            assert outcome(_hasse_edges, A) == refusal(A)
            refused += 1
            continue
        edges = _hasse_edges(A)
        assert edges == hasse_edges_oracle(A)
        assert all(type(edge) is tuple and type(v) is int for edge in edges for v in edge)
    assert refused > 0


def test_hasse_edges_are_read_off_the_support_sizes():
    """The digit codec's covers: every catalog and corpus algebra (all four
    band kinds), the Boolean algebras of 0 to 10 atoms, the benchmark
    ladder's shapes, two spaces of mixed bands (n = 40 and 45) and plain
    fibers (3, 3, 3, 3, 3), n = 1024."""
    mixed = [mixed_space(grids, seed=i) for i, grids in enumerate((
        [(1, 3), (2, 2), (1, 1)], [(2, 1), (1, 2), (2, 2)]))]
    extra = [dual_algebra(sp)[0] for sp in mixed + [space_from_fibers((3,) * 5)]]
    assert [A.n for A in extra] == [40, 45, 1024]
    for A in round_trip_algebras(200) + extra:
        assert _hasse_edges(A) == hasse_edges_oracle(A)


@pytest.mark.parametrize("shape", LADDER_1024)
def test_the_hasse_edges_make_no_n_by_n_array(shape):
    """At n = 1024, on many small fibers and on one large one alike, the
    covers of a certified algebra take under 1 MiB: a 1024 x 1024 boolean
    array alone is 1 MiB."""
    A = dual_algebra(LADDER_1024[shape]())[0]
    assert A.n == 1024
    _certified_form(A)
    assert traced_peak(_hasse_edges, A) < 2 ** 20
    assert _hasse_edges(A) == hasse_edges_oracle(A)


def test_the_hasse_edges_of_4096_elements():
    """On six plain fibers of three (n = 4096) there is one cover per digit
    of each element, sum over y of |supp y| = 6 * 3 * 4^5 = 18432 of them,
    found in under 4 MiB (a 4096 x 4096 boolean array is 16 MiB).  Each
    drops one digit of its upper element, and they come in C order."""
    A = dual_algebra(space_from_fibers((3,) * 6))[0]
    assert A.n == 4096
    digits = _certified_form(A).digits
    assert traced_peak(_hasse_edges, A) < 4 * 2 ** 20
    edges = _hasse_edges(A)
    assert len(edges) == 6 * 3 * 4 ** 5 == 18432
    assert edges == sorted(set(edges))
    x, y = np.array(edges).T
    assert ((digits[x] == digits[y]) | (digits[x] == 0)).all()
    assert ((digits[y] > 0).sum(axis=1) == (digits[x] > 0).sum(axis=1) + 1).all()


def test_classify_hom_matches_the_loop():
    """Pairs of the first corpus algebra of each size up to 12, and pairs of
    left-banded, 2 x 2-banded and right-handed corpus algebras up to
    n = 27: left ones of 3, 6, 8, 12 and 18 elements, two of 25 with two
    2 x 2 fibers, and one of 27 with three plain fibers of two."""
    corpus = corpus_dual_algebras(40)
    by_size = {}
    for A in corpus[:24]:
        by_size.setdefault(A.n, A)
    small = [A for n, A in sorted(by_size.items()) if n <= 12]
    banded = [corpus[i] for i in (6, 22, 34, 14, 26, 3, 7, 5)]
    assert [handedness(A) for A in banded] == ["left"] * 5 + ["neither"] * 2 + ["right"]
    pairs = [(A, B) for group in (small, banded) for A in group for B in group if A is not B]
    flags = set()
    for A, B in pairs:
        homs = enumerate_homs(A, B)
        assert homs
        for f in homs:
            got = classify_hom(f)
            assert got == classify_hom_oracle(f)
            assert all(type(getattr(got, name)) is bool for name in HomFlags.__dataclass_fields__)
            flags.add(tuple(vars(got).values()))
    assert len(flags) > 6      # the pairs reach several flag combinations


def random_banded_space(rng):
    """A space of at most five points whose fiber band entries are random
    points of the fiber, rarely a rectangular band."""
    size_b = rng.randint(1, 3)
    p = [rng.randrange(size_b) for _ in range(rng.randint(1, 5))]
    fiber = lambda x: [e for e, b in enumerate(p) if b == p[x]]
    band = [[rng.choice(fiber(x)) if p[x] == p[y] else None for y in range(len(p))]
            for x in range(len(p))]
    return make_space(len(p), size_b, p, band)


def test_reflection_check_matches_the_loop():
    spaces = corpus_spaces(24) + [make_space(1, 2, [0]), make_space(2, 3, [0, 1])]
    rng = random.Random(31)
    spaces += [random_banded_space(rng) for _ in range(60)]
    results = [outcome(reflection_check, sp) for sp in spaces]
    refused = 0
    for sp, got in zip(spaces, results):
        A = dual_algebra(sp)[0]
        if _certificate(A) is not None:
            # Green's relations of a section algebra the certificate refuses
            # (its bands are not rectangular) are refused by name, before
            # any other check, where the oracle reads them pair by pair
            assert got == refusal(A)
            assert outcome(reflection_check_oracle, sp)[:2] != ("ok", True)
            refused += 1
        else:
            assert got == outcome(reflection_check_oracle, sp)
    assert {r[:2] for r in results} >= {("ok", True), ("ok", False)}
    assert refused == sum(r[0] == "raised" for r in results) > 0
    # 70 base points, one fiber: too few sections to cover the subsets of B
    # (and more than an int64 bit set could hold)
    assert reflection_check(make_space(1, 70, [0])) is False


def test_reflection_check_names_the_fibers_by_their_atoms():
    """The section algebra's fibers come in the order of their primes, by
    the bytes of their supports' masks, the base points in index order, so
    on these spaces the bijection sigma between them that reflection_check
    reads off the atoms is not the identity, and the images still match
    sigma of the supports."""
    spaces = [make_space(len(p), 1 + max(p), p) for p in ([0, 1], [2, 0, 1, 1], [1, 2, 0, 2, 0])]
    spaces += [random_space(3, 2, seed, "left") for seed in (0, 2, 3)]
    for sp in spaces:
        A, labels = dual_algebra(sp)
        digits = _certified_form(A).digits
        sigma = {int(np.flatnonzero(digits[labels.index((e,))])[0]): sp.p[e]
                 for e in range(sp.size_e)}
        assert sorted(sigma) == list(range(sp.size_b))
        assert any(fiber != base for fiber, base in sigma.items())
        assert reflection_check(sp) is True
        assert reflection_check_oracle(sp) is True
