"""validate_algebra accepts an algebra that its product certificate
(core_algebra._certificate) rebuilds table for table; otherwise a proof runs,
and the exhaustive check (core_algebra._exhaustive_report) gives the report
on any failed step.  These tests hold the three to the same verdicts and the
two reporting paths to the same reports on inputs that break each step.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from helpers import (
    band_law_witness_oracle,
    corpus_dual_algebras,
    glb_law_holds_oracle,
    law_holds_at,
    retabled,
    seeded_rect_space,
    space_from_fibers,
)
from skewstone import (
    SizeCapError,
    SkewAlgebra,
    ValidationReport,
    dual_algebra,
    left_band,
    make_algebra,
    mirror,
    partial_map_algebra,
    product_band,
    random_space,
    validate_algebra,
)
from skewstone.catalog import boolean_algebra, one_element
from skewstone.core_algebra import (
    _certificate,
    _exhaustive_report,
    _product_algebra,
    _unproved_step,
    band_law_witness,
)

OPS = ("meet", "join", "diff", "cap")


@pytest.fixture(scope="module")
def section_algebras():
    """Plain, right, left and grid-banded section algebras, n = 6 to 81."""
    spaces = [space_from_fibers(f) for f in ((1, 1, 1), (2, 1), (2, 2), (3, 3), (2, 2, 2),
                                             (2, 2, 2, 2))]
    for seed in range(3):
        for band in ("right", "left", ("product", 2, 2), ("product", 1, 2)):
            spaces.append(random_space(2, 3, seed, band))
    return [dual_algebra(sp)[0] for sp in spaces]


def with_diff_and_cap(meet, join):
    """Complete meet and join tables (zero 0) with the least relative
    complement and the greatest-lower-bound cap, where they exist."""
    n = len(meet)
    xyx = [[meet[meet[x][y]][x] for y in range(n)] for x in range(n)]
    diff = [[next(d for d in range(n) if meet[d][xyx[x][y]] == 0 and join[d][xyx[x][y]] == x)
             for y in range(n)] for x in range(n)]
    leq = [[meet[x][y] == x and meet[y][x] == x for y in range(n)] for x in range(n)]
    cap = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            lower = [z for z in range(n) if leq[z][x] and leq[z][y]]
            cap[x][y] = next(z for z in lower if all(leq[w][z] for w in lower))
    return make_algebra(n, 0, meet, join, diff, cap)


def first_rejecting_step(B):
    """Check B all three ways; return the first fast step that rejects it."""
    report = validate_algebra(B)
    assert report == _exhaustive_report(B)
    assert _certificate(B) is report.ok
    for law, witness in report.failures + report.warnings:
        assert not law_holds_at(B, law, witness), (law, witness)
    step = _unproved_step(B)
    if step is None:
        assert report.ok and report.warnings == ()
    return step


def test_one_entry_mutants(section_algebras):
    rng = random.Random(20261018)
    steps = []
    for _ in range(400):
        A = rng.choice(section_algebras)
        table = rng.choice(("meet", "join", "diff", "cap"))
        change = (rng.randrange(A.n), rng.randrange(A.n), rng.randrange(A.n))
        steps.append(first_rejecting_step(retabled(A, table, [change])))
    assert None in steps                     # the changes that keep the old entry
    assert len(set(steps)) > 5


def test_every_section_algebra_is_proved_fast(section_algebras, catalog):
    for A in section_algebras + [A for _, A in catalog]:
        assert _unproved_step(A) is None


def test_proof_at_n_512():
    A = dual_algebra(space_from_fibers((3, 3, 3, 3, 1)))[0]
    assert A.n == 512
    assert validate_algebra(A, max_n=512).ok
    # step 6 runs over two blocks of 256 rows here; a fault in the last
    # pair x > y with a nonzero cap lies in the second
    x, y = np.argwhere(np.tril(A.cap_table != A.zero, -1))[-1]
    cap = A.cap_table.copy()
    cap[x, y] = cap[y, x] = A.zero
    B = SkewAlgebra(A.n, A.zero, A.meet_table, A.join_table, A.diff_table, cap)
    assert x >= 256 and _unproved_step(B) == "cap_is_greatest_lower_bound"


def test_proof_with_every_element_a_generator_stays_small():
    """One fiber of 255 points: G is all of A (n = 256), the worst case for
    the steps that loop over G.  Each keeps its temporaries near n x n; a
    |G| x |G| x |G| gather in step 5 alone would trace 272 MiB."""
    A = dual_algebra(space_from_fibers((255,)))[0]
    assert A.n == 256
    tracemalloc.start()
    try:
        assert _unproved_step(A) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


# Meet and join tables that pass the laws of step 1 but are rejected later,
# found by enumerating every algebra with n <= 6 that passes step 1 and has
# an associative join.
NOT_GENERATED = (
    [[0, 0, 0, 0, 0], [0, 1, 2, 1, 0], [0, 2, 2, 2, 2], [0, 3, 0, 3, 4], [0, 4, 4, 4, 4]],
    [[0, 1, 2, 3, 4], [1, 1, 1, 3, 3], [2, 1, 2, 3, 4], [3, 1, 1, 3, 3], [4, 1, 2, 3, 4]],
)
ONLY_LEFT_DISTRIBUTIVE = (
    [[0, 0, 0, 0], [0, 1, 2, 1], [0, 2, 2, 2], [0, 3, 0, 3]],
    [[0, 1, 2, 3], [1, 1, 1, 3], [2, 1, 2, 3], [3, 1, 1, 3]],
)


def test_each_step_is_first_to_reject_some_input(section_algebras):
    """Steps 2, 3, 4 (both sides) and 6 each reject an input first.  Step 5
    (meet associativity) is missing: that enumeration found no algebra that
    passes steps 1 to 4 and fails it, and one-entry mutants of section
    algebras stop at step 1 or 3."""
    boolean8 = section_algebras[0]
    leq = [[boolean8.meet(x, y) == x for y in range(8)] for x in range(8)]
    # meet of two incomparable elements forgotten: still a lower bound
    forgetful = [[boolean8.meet(x, y) if leq[x][y] or leq[y][x] else 0 for y in range(8)]
                 for x in range(8)]
    four_fibers = dual_algebra(space_from_fibers((2, 2)))[0]
    inputs = {
        "generators": with_diff_and_cap(*NOT_GENERATED),
        "join_associative": retabled(four_fibers, "join", [(1, 5, 3)]),
        "meet_distributes_left": with_diff_and_cap(forgetful, boolean8.join_table),
        "meet_distributes_right": with_diff_and_cap(*ONLY_LEFT_DISTRIBUTIVE),
    }
    for step, B in inputs.items():
        assert first_rejecting_step(B) == step

    # cap of a pair lowered to 0 on both sides: a lower bound, not the greatest
    rng = random.Random(7)
    glb_steps = set()
    for A in section_algebras:
        pairs = [(x, y) for x in range(A.n) for y in range(x) if A.cap(x, y) != A.zero]
        x, y = rng.choice(pairs)
        B = retabled(A, "cap", [(x, y, A.zero), (y, x, A.zero)])
        glb_steps.add(first_rejecting_step(B))
    assert glb_steps == {"cap_is_greatest_lower_bound"}


def test_atoms_step_agrees_with_the_all_z_oracle(section_algebras):
    """The cap of one to three pairs, both ways round, moved to another
    common lower bound.  Such a table passes steps 1 to 5, so the proof
    fails at step 6 exactly where the glb law fails for some z.  Fibers
    (3, 3, 3) give nine atoms, more than one byte of bits."""
    rng = random.Random(20261019)
    verdicts = set()
    for A in section_algebras + [dual_algebra(space_from_fibers((3, 3, 3)))[0]]:
        leq = [[A.meet(x, y) == x == A.meet(y, x) for y in range(A.n)] for x in range(A.n)]
        for _ in range(40):
            changes = []
            for _ in range(rng.randint(1, 3)):
                x, y = rng.sample(range(A.n), 2)
                z = rng.choice([z for z in range(A.n) if leq[z][x] and leq[z][y]])
                changes += [(x, y, z), (y, x, z)]
            B = retabled(A, "cap", changes)
            step = _unproved_step(B)
            assert step in (None, "cap_is_greatest_lower_bound")
            assert (step is None) is glb_law_holds_oracle(B) is _exhaustive_report(B).ok
            assert _certificate(B) is (step is None)
            verdicts.add(step)
    assert verdicts == {None, "cap_is_greatest_lower_bound"}


def test_table_only_step_6_rejects():
    """The four-element Boolean algebra (0, a = 1, b = 2 and top = 3 as bit
    sets) with a cap top lowered to 0: a lower bound of a and top, not the
    greatest.  Its exhaustive report stays what it was."""
    ops = (lambda x, y: x & y, lambda x, y: x | y, lambda x, y: x & ~y, lambda x, y: x & y)
    meet, join, diff, cap = ([[op(x, y) for y in range(4)] for x in range(4)] for op in ops)
    cap[1][3] = cap[3][1] = 0
    B = make_algebra(4, 0, meet, join, diff, cap)
    assert first_rejecting_step(B) == "cap_is_greatest_lower_bound"
    assert not glb_law_holds_oracle(B)
    assert _exhaustive_report(B) == ValidationReport(
        ok=False, failures=(("cap_is_greatest_lower_bound", (1, 3, 1)),), warnings=())


def test_cap_bounds_only_the_exhaustive_report():
    """Past max_n a valid algebra is still proved; an invalid one raises
    SizeCapError naming the step that failed."""
    A = dual_algebra(space_from_fibers((2, 2)))[0]
    assert validate_algebra(A, max_n=2).ok
    x, y = next((x, y) for x in range(A.n) for y in range(x) if A.cap(x, y) != A.zero)
    B = retabled(A, "cap", [(x, y, A.zero), (y, x, A.zero)])
    with pytest.raises(SizeCapError, match="n=9 fails proof step cap_is_greatest_lower_bound"):
        validate_algebra(B, max_n=8)
    assert validate_algebra(B, max_n=9) == _exhaustive_report(B)


def every_one_entry_mutant(A):
    """A with one entry of one table moved to each other value."""
    for table in ("meet", "join", "diff", "cap"):
        T = getattr(A, table + "_table")
        for x, y, value in itertools.product(range(A.n), range(A.n), range(A.n)):
            if T[x, y] != value:
                yield retabled(A, table, [(x, y, value)])


def test_carriers_without_atoms_or_with_one():
    """n = 1 (the proof's G is the zero alone) and n = 2 (one atom), with
    the zero at either index: the proof and the exhaustive report agree on
    the algebra, on every one-entry mutant, and on seeded tables (none of
    those is valid: a valid algebra on two elements is the Boolean one)."""
    one, two = one_element(), boolean_algebra(1)
    swapped = make_algebra(2, 1, [[0, 1], [1, 1]], [[0, 0], [0, 1]],
                           [[1, 0], [1, 1]], [[0, 1], [1, 1]])
    rng = random.Random(20261020)
    seeded = [make_algebra(2, rng.randrange(2),
                           *([[rng.randrange(2) for _ in range(2)] for _ in range(2)]
                             for _ in range(4)))
              for _ in range(200)]
    steps = []
    for A in (one, two, swapped):
        assert first_rejecting_step(A) is None
        steps += [first_rejecting_step(B) for B in every_one_entry_mutant(A)]
    steps += [first_rejecting_step(B) for B in seeded]
    assert None not in steps and len(set(steps)) > 5


# ---------------------------------------------------------------------------
# The product certificate
# ---------------------------------------------------------------------------

def verdicts(B):
    """Whether the certificate, the proof and the exhaustive report accept B."""
    return _certificate(B), _unproved_step(B) is None, _exhaustive_report(B).ok


def relabelled(A, rng):
    """A with its elements renumbered by a random permutation."""
    perm = np.array(rng.sample(range(A.n), A.n))         # element x becomes perm[x]
    old = np.argsort(perm)
    tables = [perm[getattr(A, name + "_table")[np.ix_(old, old)]] for name in OPS]
    return SkewAlgebra(A.n, int(perm[A.zero]), *tables)


def test_certificate_accepts_every_valid_algebra(section_algebras, catalog):
    """So the proof is never what says ok: the catalog, the seeded corpora,
    plain, left and 2 x 2 bands, partial maps, mirrors, the one fiber of 255
    points, n = 1 and n = 2, each also with its elements renumbered."""
    rng = random.Random(20261021)
    valid = (section_algebras + [A for _, A in catalog] + corpus_dual_algebras()
             + [dual_algebra(seeded_rect_space(i))[0] for i in range(9)]
             + [partial_map_algebra(2, 2, left_band(2))[0],
                partial_map_algebra(1, 4, product_band(2, 2))[0],
                dual_algebra(space_from_fibers((255,)))[0],
                make_algebra(2, 1, [[0, 1], [1, 1]], [[0, 0], [0, 1]],
                             [[1, 0], [1, 1]], [[0, 1], [1, 1]])])
    valid += [mirror(A) for A in section_algebras]
    valid += [relabelled(A, rng) for A in valid]
    for A in valid:
        assert verdicts(A) == (True, True, True)
        assert validate_algebra(A, max_n=0) == ValidationReport(ok=True, failures=(), warnings=())


def test_certificate_agrees_on_two_entry_zero_and_cap_mutants(section_algebras):
    """Two entries changed in one or two tables, the zero moved to another
    element, and the cap of a pair changed on both sides: the three verdicts
    agree, and validate_algebra gives the exhaustive report."""
    rng = random.Random(20261022)
    seen = set()
    for _ in range(300):
        A = rng.choice(section_algebras)
        B = A
        for _ in range(2):
            B = retabled(B, rng.choice(OPS), [(rng.randrange(A.n), rng.randrange(A.n),
                                               rng.randrange(A.n))])
        seen.add(verdicts(B))
        assert validate_algebra(B) == _exhaustive_report(B)
    for A in section_algebras:
        for zero in rng.sample([x for x in range(A.n) if x != A.zero], 3):
            B = SkewAlgebra(A.n, zero, A.meet_table, A.join_table, A.diff_table, A.cap_table)
            assert verdicts(B) == (False, False, False)
        x, y = rng.sample(range(A.n), 2)
        value = rng.choice([v for v in range(A.n) if v != A.cap(x, y)])
        B = retabled(A, "cap", [(x, y, value), (y, x, value)])
        assert verdicts(B) == (False, False, False)
        assert validate_algebra(B) == _exhaustive_report(B)
    assert seen == {(True, True, True), (False, False, False)}


def test_certificate_compares_every_table():
    """For each table, a mutant that differs from a valid algebra only
    there: the certificate refuses each, so it reads all four tables."""
    A = dual_algebra(random_space(2, 2, 3, ("product", 2, 2)))[0]
    for name in OPS:
        T = getattr(A, name + "_table")
        B = next(B for x, y, v in itertools.product(range(A.n), repeat=3) if T[x, y] != v
                 for B in [retabled(A, name, [(x, y, v)])] if not _exhaustive_report(B).ok)
        assert not _certificate(B), name
        assert validate_algebra(B) == _exhaustive_report(B)


def test_product_builder_refuses_digits_that_do_not_number_it():
    """Two one-point coordinates give a product of four elements: the
    builder refuses three or five digit rows, and two equal ones."""
    bands = [[[0]], [[0]]]
    assert _product_algebra(bands, [[0, 0], [1, 0], [0, 1], [1, 1]]).n == 4
    for digits in ([[0, 0], [1, 0], [0, 1]], [[0, 0], [1, 0], [0, 1], [1, 1], [1, 1]]):
        with pytest.raises(ValueError, match="digit rows for a product of 4 elements"):
            _product_algebra(bands, digits)
    with pytest.raises(ValueError, match="two digit rows give the same element"):
        _product_algebra(bands, [[0, 0], [1, 0], [0, 1], [0, 1]])


def test_certificate_refuses_elements_with_the_same_atoms():
    """The four-element Boolean algebra with a ^ top moved to 0: a is no
    longer below top, so top has the same atoms below it as b, though there
    are (1 + 1) * (1 + 1) elements."""
    B = retabled(boolean_algebra(2), "meet", [(3, 1, 0)])
    assert verdicts(B) == (False, False, False)
    assert validate_algebra(B) == _exhaustive_report(B)


def test_certificate_refuses_fewer_elements_than_the_product():
    """0 and two atoms a = 1 and b = 2 in fibers of their own, with no
    a v b: three elements where the product of the two fibers has four."""
    meet = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
    join = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]
    diff = [[0, 0, 0], [1, 0, 1], [2, 2, 0]]
    B = make_algebra(3, 0, meet, join, diff, meet)
    assert verdicts(B) == (False, False, False)
    assert validate_algebra(B) == _exhaustive_report(B)


def test_certificate_checks_that_each_band_is_rectangular():
    """One fiber of three points whose meet is the third point: idempotent,
    commutative, no point below another, but not associative.  The product
    built from that table decodes and compares equal to itself; only the
    band check refuses it."""
    steiner = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
    assert band_law_witness(steiner) == ("band_associative", (0, 0, 1))
    B = _product_algebra([steiner], [[0], [1], [2], [3]])
    assert verdicts(B) == (False, False, False)
    assert validate_algebra(B) == _exhaustive_report(B)


def test_band_check_agrees_with_the_triple_loop():
    """Every table on two and three points, and rectangular bands a x b
    renumbered, with one-entry mutants: band_law_witness decodes the
    rectangle and gives the loop's first witness when it fails."""
    tables = [[list(v[i:i + m]) for i in range(0, m * m, m)]
              for m in (1, 2, 3) for v in itertools.product(range(m), repeat=m * m)]
    rng = random.Random(20261023)
    for a, b in itertools.product(range(1, 5), repeat=2):
        perm = rng.sample(range(a * b), a * b)
        old = np.argsort(perm)
        band = np.reshape(product_band(a, b).table, (a * b, a * b))
        T = np.take(perm, band[np.ix_(old, old)])
        tables.append(T.tolist())
        for _ in range(10):
            x, y, v = (rng.randrange(a * b) for _ in range(3))
            mutant = T.copy()
            mutant[x, y] = v
            tables.append(mutant.tolist())
    outcomes = {band_law_witness(T) is None for T in tables}
    for T in tables:
        assert band_law_witness(T) == band_law_witness_oracle(T)
        assert band_law_witness(tuple(map(tuple, T))) == band_law_witness_oracle(T)
        assert band_law_witness(np.array(T)) == band_law_witness_oracle(T)
    assert outcomes == {True, False}
