"""validate_algebra proves validity with a fast path and falls back to the
exhaustive check (core_algebra._exhaustive_report) on any failed step.  These
tests hold the two paths to the same reports on inputs that break each step.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from helpers import glb_law_holds_oracle, law_holds_at, retabled, space_from_fibers
from skewstone import (
    SizeCapError,
    SkewAlgebra,
    ValidationReport,
    dual_algebra,
    make_algebra,
    random_space,
    validate_algebra,
)
from skewstone.catalog import boolean_algebra, one_element
from skewstone.core_algebra import _exhaustive_report, _unproved_step


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
    """Check B both ways; return the first fast step that rejects it."""
    report = validate_algebra(B)
    assert report == _exhaustive_report(B)
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
