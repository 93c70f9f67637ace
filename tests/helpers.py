"""Fixtures of the test suite: the catalog and the seeded corpora, one-entry
mutants and the certificate's pinned refusals, renumbered copies, a traced
peak, and the route through the spectra that enumerate_homs is compared
with.  These call skewstone freely; the oracles, which do not, are in
definitions.py."""

import random
import tracemalloc

import numpy as np

from catalog import (
    boolean_algebra,
    fiber_product_over_reflection,
    left_three,
    one_element,
    primitive_right,
    right_three,
)
from skewstone import (
    Homomorphism,
    SkewAlgebra,
    algebra_roundtrip_iso,
    dual_algebra,
    enumerate_space_morphisms,
    hom_of_space_morphism,
    make_algebra,
    make_space,
    mirror,
    product_band,
    random_space,
    skew_spectrum,
)
from skewstone.core_algebra import _certificate
from skewstone.spaces_sections import PartialMap


def retabled(A, table, changes):
    """A with entries (i, j, value) of one table replaced."""
    tables = {name: getattr(A, name + "_table").tolist()
              for name in ("meet", "join", "diff", "cap")}
    for i, j, value in changes:
        tables[table][i][j] = value
    return make_algebra(A.n, A.zero, tables["meet"], tables["join"],
                        tables["diff"], tables["cap"])


def zero_not_least():
    """Eight elements whose meet table makes three atoms 1, 2, 3 lie below
    the zero 0 but not below 4, whose only lower neighbour is 5, so that
    (non-transitive order) 4 has no atom below it.  Every element gets
    distinct digits, and the product's zero is 4, not 0.  The other tables
    are all 0."""
    below = {(1, 0), (2, 0), (3, 0), (1, 5), (2, 5), (5, 4), (1, 6), (3, 6), (2, 7), (3, 7)}
    meet = [[x if x == y or (x, y) in below else y if (y, x) in below else 0
             for y in range(8)] for x in range(8)]
    zeros = [[0] * 8 for _ in range(8)]
    return make_algebra(8, 0, meet, zeros, zeros, zeros)


def pinned_refusals():
    """One input per check of the certificate, keyed by the check that is
    first to refuse it.  The four-element Boolean algebra has 0, a = 1,
    b = 2 and top = 3 as bit sets; its one-entry mutants break the fibers
    (a ^ a = 0), a band (a ^ a = b), the digits (a ^ top = 0, so top has
    the atoms of b) and the meet, join and diff tables at (0, 0).  The cap
    mutant lowers cap of a and top to 0: a lower bound, not the greatest.
    zero_not_least breaks the zero."""
    B4 = boolean_algebra(2)
    return {
        "fibers": retabled(B4, "meet", [(1, 1, 0)]),
        "band": retabled(B4, "meet", [(1, 1, 2)]),
        "digits": retabled(B4, "meet", [(1, 3, 0)]),
        "zero": zero_not_least(),
        "meet": retabled(B4, "meet", [(0, 0, 1)]),
        "join": retabled(B4, "join", [(0, 0, 1)]),
        "diff": retabled(B4, "diff", [(0, 0, 1)]),
        "cap": retabled(B4, "cap", [(1, 3, 0), (3, 1, 0)]),
    }


def outcome(fn, *args):
    """("ok", what a call returns), or ("raised", the type and message of
    what it raises), to compare with an oracle's or with refusal()."""
    try:
        return "ok", fn(*args)
    except Exception as err:   # compared by the caller, never dropped
        return "raised", type(err), str(err)


def refusal(A):
    """What every derived call on an algebra the certificate refuses
    raises, as outcome() reports it: ValueError naming the refusing check."""
    check = _certificate(A)
    assert check is not None
    return ("raised", ValueError,
            f"not a skew Boolean algebra with intersections (certificate check {check})")


def small_test_algebras():
    """Named corpus of algebras with at most five elements, covering the
    commutative, right-handed, left-handed and two-sided cases."""
    neither5, _ = fiber_product_over_reflection(right_three(), left_three())
    return (
        ("one", one_element()),
        ("two", boolean_algebra(1)),
        ("right3", right_three()),
        ("left3", left_three()),
        ("bool4", boolean_algebra(2)),
        ("right4", primitive_right(3)),
        ("left4", mirror(primitive_right(3))),
        ("right5", primitive_right(4)),
        ("neither5", neither5),
    )


def partitions(n, max_part=None):
    """Fiber-size multisets: every surjection with |E| = n up to relabeling."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for k in range(min(n, max_part), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def space_from_fibers(fiber_sizes):
    p = [b for b, s in enumerate(fiber_sizes) for _ in range(s)]
    return make_space(len(p), len(fiber_sizes), p)


def all_surjection_spaces(max_e, min_e=0):
    return [space_from_fibers(f)
            for n in range(min_e, max_e + 1) for f in partitions(n)]


def corpus_params(i):
    """Deterministic parameter schedule for the seeded corpus: mixes plain,
    right, left and product bands while keeping |E| <= 8 and the section
    algebras within the default validation cap."""
    kind_sel = i % 4
    if kind_sel == 3:
        k_left, k_right = 1 + i % 2, 1 + (i // 2) % 2
        return 1 + i % 2, 1, ("product", k_left, k_right)
    size_b = 1 + i % 3
    max_fiber = 1 + (i // 3) % 3
    if size_b * max_fiber > 8:
        max_fiber = 8 // size_b
    return size_b, max_fiber, ("none", "right", "left")[kind_sel]


def corpus_spaces(count=200, base_seed=1000):
    out = []
    for i in range(count):
        size_b, max_fiber, kind = corpus_params(i)
        out.append(random_space(size_b, max_fiber, seed=base_seed + i, band=kind))
    return out


def corpus_dual_algebras(count=200, base_seed=1000):
    return [dual_algebra(sp)[0] for sp in corpus_spaces(count, base_seed)]


def round_trip_algebras(corpus_count):
    """The catalog, corpus_count corpus algebras, the Boolean algebras of 0
    to 10 atoms (n = 1024 at the last), the benchmark ladder's shapes (plain
    fibers of three, left bands and 2 x 2 bands, n = 25 to 256) and a
    left-banded algebra of five fibers of three (n = 1024)."""
    ladder = [space_from_fibers(f) for f in ((3, 3, 3), (3, 3, 3, 3), (3, 3, 3, 1))]
    ladder += [mixed_space(grids, seed=i) for i, grids in enumerate((
        [(1, 3)] * 3, [(1, 4)] * 3, [(2, 2)] * 2, [(2, 2)] * 3, [(1, 3)] * 5))]
    return ([A for _, A in small_test_algebras()] + corpus_dual_algebras(corpus_count)
            + [boolean_algebra(k) for k in range(11)]
            + [dual_algebra(sp)[0] for sp in ladder])


def seeded_rect_space(i, base_seed=7000, max_grid=3, max_b=2):
    k_left = 1 + i % max_grid
    k_right = 1 + (i // max_grid) % max_grid
    size_b = 1 + i % max_b
    return random_space(size_b, 1, seed=base_seed + i, band=("product", k_left, k_right))


def mixed_space(grids, seed):
    """A space whose fiber over b carries product_band(*grids[b]), so the
    fibers may carry different bands; the points are shuffled by the seed."""
    p = [b for b, (k_left, k_right) in enumerate(grids) for _ in range(k_left * k_right)]
    random.Random(seed).shuffle(p)
    band = [[None] * len(p) for _ in p]
    for b, grid in enumerate(grids):
        f = [e for e, pe in enumerate(p) if pe == b]
        local = product_band(*grid)
        for i, x in enumerate(f):
            for j, y in enumerate(f):
                band[x][y] = f[local[i, j]]
    return make_space(len(p), len(grids), p, band)


def renumbered(A, seed):
    """A isomorphic copy of A, its elements renumbered by a seeded
    permutation: element x of A is element perm[x] of the copy.  The tables
    are made as int16, the type SkewAlgebra keeps without a copy."""
    perm = np.random.default_rng(seed).permutation(A.n).astype(np.int16)
    inverse = np.argsort(perm)
    both = np.ix_(inverse, inverse)
    return SkewAlgebra(A.n, int(perm[A.zero]),
                       *(perm[getattr(A, name + "_table")[both]]
                         for name in ("meet", "join", "diff", "cap")))


def traced_peak(fn, *args):
    """The tracemalloc peak of fn(*args), in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pointwise_family(bands):
    """The family on partial maps X -> Y that applies bands[x] to the
    values at each point x of the common domain."""
    def sand(f, g):
        return PartialMap(f.domain, tuple(int(bands[x][u][v])
                                          for x, u, v in zip(f.domain, f.values, g.values)))
    return sand


def enumerate_homs_transport_route(A, B):
    """enumerate_homs by the route through the spectra, a second route
    through skewstone and no oracle: every test that compares with it
    also compares with an oracle of definitions.py. each space
    morphism m : Sk(B) -> Sk(A) gives iso_B^-1 . hom_of_space_morphism(m)
    . iso_A, with iso_A and iso_B the algebra round-trip isomorphisms and
    hom_of_space_morphism a gather of the section rows through m's fiber
    maps, a homomorphism by the digitwise argument in its docstring (no
    table is checked); the result is in lexicographic map order."""
    to_sections = list(algebra_roundtrip_iso(A).map)
    from_sections = np.argsort(algebra_roundtrip_iso(B).map)
    morphisms = enumerate_space_morphisms(skew_spectrum(B)[0], skew_spectrum(A)[0])
    return tuple(sorted((Homomorphism(A, B, tuple(
        from_sections[list(hom_of_space_morphism(m).map)][to_sections].tolist()))
        for m in morphisms), key=lambda f: f.map))
