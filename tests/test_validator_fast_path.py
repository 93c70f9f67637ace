"""validate_algebra accepts an algebra that its product certificate
(core_algebra._certificate) checks table for table; the exhaustive check
(core_algebra._exhaustive_report) gives the report on any algebra the
certificate refuses.  These tests hold the two to the same verdicts, and
validate_algebra to the exhaustive report, on inputs that break each law
and each of the certificate's checks.
"""

import ast
import itertools
import pathlib
import random
import re
import tracemalloc

import numpy as np
import pytest

from catalog import boolean_algebra, one_element
from definitions import (
    band_law_witness_oracle,
    glb_law_holds_oracle,
    rectangle_oracle,
)
from helpers import (
    corpus_dual_algebras,
    corpus_spaces,
    pinned_refusals,
    retabled,
    seeded_rect_space,
    space_from_fibers,
    traced_peak,
)
from oracles import law_holds, tables_of
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
    skew_spectrum,
    validate_algebra,
    validate_hom,
)
from skewstone import core_algebra, spaces_sections
from skewstone.core_algebra import (
    ROW_BLOCK,
    _certificate,
    _exhaustive_report,
    _rectangle,
)
from skewstone.ideals_spectra import spectrum_data
from skewstone.morphisms_duality import algebra_roundtrip_iso
from skewstone.spaces_sections import RectSkewSpace, band_law_witness, fiber_bands

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


def checked_report(B):
    """validate_algebra's report on B, held to the exhaustive report and to
    the certificate's verdict, with each witness re-checked on its own."""
    report = validate_algebra(B)
    assert report == _exhaustive_report(B)
    assert (_certificate(B) is None) is report.ok
    tables = tables_of(B)
    for law, witness in report.failures + report.warnings:
        assert not law_holds(tables, B.zero, law, witness), (law, witness)
    if report.ok:
        assert report.warnings == ()
    return report


def refusal_of(B):
    """The certificate check named when validate_algebra refuses B past
    its cap."""
    with pytest.raises(SizeCapError) as caught:
        validate_algebra(B, max_n=B.n - 1)
    text = (rf"n={B.n} fails certificate check (\w+); "
            rf"the exhaustive report is capped at n={B.n - 1}")
    match = re.fullmatch(text, str(caught.value))
    assert match, str(caught.value)
    return match[1]


def test_one_entry_mutants(section_algebras):
    rng = random.Random(20261018)
    reports = []
    for _ in range(400):
        A = rng.choice(section_algebras)
        table = rng.choice(("meet", "join", "diff", "cap"))
        change = (rng.randrange(A.n), rng.randrange(A.n), rng.randrange(A.n))
        reports.append(checked_report(retabled(A, table, [change])))
    assert any(r.ok for r in reports)        # the changes that keep the old entry
    assert len({r.failures[0][0] for r in reports if not r.ok}) > 5


def test_every_section_algebra_is_proved_fast(section_algebras, catalog):
    """The certificate alone accepts each section algebra and each catalog
    algebra, so validate_algebra needs no exhaustive pass, even at max_n=0."""
    for A in section_algebras + [A for _, A in catalog]:
        assert _certificate(A) is None
        assert validate_algebra(A, max_n=0).ok


def test_proof_at_n_512():
    """The certificate proves a valid algebra of 512 elements, and refuses
    a fault in the last pair x > y with a nonzero cap: rows x >= 256, in a
    later block of the rebuilt cap table than the first."""
    A = dual_algebra(space_from_fibers((3, 3, 3, 3, 1)))[0]
    assert A.n == 512
    assert validate_algebra(A, max_n=0).ok
    x, y = np.argwhere(np.tril(A.cap_table != A.zero, -1))[-1]
    cap = A.cap_table.copy()
    cap[x, y] = cap[y, x] = A.zero
    B = SkewAlgebra(A.n, A.zero, A.meet_table, A.join_table, A.diff_table, cap)
    assert x >= 256 and refusal_of(B) == "cap"
    report = _exhaustive_report(B)
    assert report == ValidationReport(ok=False, failures=(
        ("cap_is_greatest_lower_bound", (510, 511, 511)),
        ("cap_associative", (5, 175, 510))), warnings=())
    assert (_certificate(B) is None) is report.ok


def test_proof_with_every_element_a_generator_stays_small():
    """One fiber of 255 points: every element but the zero is an atom
    (n = 256).  The certificate decodes one band of 255 points and checks
    A's tables in place, one at a time, in blocks of rows; it stays under
    32 MiB traced."""
    A = dual_algebra(space_from_fibers((255,)))[0]
    assert A.n == 256
    tracemalloc.start()
    try:
        assert _certificate(A) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


# Meet and join tables that pass the laws with n or n^2 instances but break
# others, found by enumerating every algebra with n <= 6 that passes those
# and has an associative join: NOT_GENERATED is not the join closure of its
# zero and atoms, ONLY_LEFT_DISTRIBUTIVE fails the right-hand law.
NOT_GENERATED = (
    [[0, 0, 0, 0, 0], [0, 1, 2, 1, 0], [0, 2, 2, 2, 2], [0, 3, 0, 3, 4], [0, 4, 4, 4, 4]],
    [[0, 1, 2, 3, 4], [1, 1, 1, 3, 3], [2, 1, 2, 3, 4], [3, 1, 1, 3, 3], [4, 1, 2, 3, 4]],
)
ONLY_LEFT_DISTRIBUTIVE = (
    [[0, 0, 0, 0], [0, 1, 2, 1], [0, 2, 2, 2], [0, 3, 0, 3]],
    [[0, 1, 2, 3], [1, 1, 1, 3], [2, 1, 2, 3], [3, 1, 1, 3]],
)


def test_each_step_is_first_to_reject_some_input(section_algebras):
    """Each check of the certificate is the first to refuse some input, and
    names it past the cap: the pinned refusals (helpers.pinned_refusals)
    and four more.  The cap mutant's exhaustive report has the glb law's
    witness."""
    pinned = pinned_refusals()
    for name, B in pinned.items():
        assert refusal_of(B) == name
        assert not checked_report(B).ok
    assert _exhaustive_report(pinned["cap"]) == ValidationReport(
        ok=False, failures=(("cap_is_greatest_lower_bound", (1, 3, 1)),), warnings=())
    assert not glb_law_holds_oracle(pinned["cap"])

    boolean8 = section_algebras[0]
    leq = [[boolean8.meet(x, y) == x for y in range(8)] for x in range(8)]
    # meet of two incomparable elements forgotten: still a lower bound
    forgetful = [[boolean8.meet(x, y) if leq[x][y] or leq[y][x] else 0 for y in range(8)]
                 for x in range(8)]
    four_fibers = dual_algebra(space_from_fibers((2, 2)))[0]
    inputs = (
        ("digits", with_diff_and_cap(*NOT_GENERATED)),
        ("fibers", with_diff_and_cap(*ONLY_LEFT_DISTRIBUTIVE)),
        ("join", retabled(four_fibers, "join", [(1, 5, 3)])),
        ("meet", with_diff_and_cap(forgetful, boolean8.join_table)),
    )
    for name, B in inputs:
        assert refusal_of(B) == name
        assert not checked_report(B).ok

    # cap of a pair lowered to 0 on both sides: a lower bound, not the greatest
    rng = random.Random(7)
    for A in section_algebras:
        pairs = [(x, y) for x in range(A.n) for y in range(x) if A.cap(x, y) != A.zero]
        x, y = rng.choice(pairs)
        B = retabled(A, "cap", [(x, y, A.zero), (y, x, A.zero)])
        assert refusal_of(B) == "cap"
        assert checked_report(B).failures[0][0] == "cap_is_greatest_lower_bound"


def test_table_only_step_6_rejects():
    """The four-element Boolean algebra (0, a = 1, b = 2 and top = 3 as bit
    sets) with a cap top lowered to 0: a lower bound of a and top, not the
    greatest.  Only the rebuilt cap table tells it apart; the certificate
    refuses it by that table, and its exhaustive report stays what it was."""
    ops = (lambda x, y: x & y, lambda x, y: x | y, lambda x, y: x & ~y, lambda x, y: x & y)
    meet, join, diff, cap = ([[op(x, y) for y in range(4)] for x in range(4)] for op in ops)
    cap[1][3] = cap[3][1] = 0
    B = make_algebra(4, 0, meet, join, diff, cap)
    assert refusal_of(B) == "cap"
    assert checked_report(B).failures[0][0] == "cap_is_greatest_lower_bound"
    assert not glb_law_holds_oracle(B)
    assert _exhaustive_report(B) == ValidationReport(
        ok=False, failures=(("cap_is_greatest_lower_bound", (1, 3, 1)),), warnings=())


def test_certificate_agrees_with_the_all_z_oracle(section_algebras):
    """The cap of one to three pairs, both ways round, moved to another
    common lower bound.  Such a table is valid exactly when the glb law
    holds for every z, and the certificate accepts exactly those.  Fibers
    (3, 3, 3) give nine atoms, more than one byte of bits in the oracle."""
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
            refused = _certificate(B)
            assert refused in (None, "cap")
            assert (refused is None) is glb_law_holds_oracle(B) is _exhaustive_report(B).ok
            verdicts.add(refused)
    assert verdicts == {None, "cap"}


def test_cap_bounds_only_the_exhaustive_report():
    """Past max_n a valid algebra is still certified; an invalid one raises
    SizeCapError naming the certificate's check that refused it."""
    A = dual_algebra(space_from_fibers((2, 2)))[0]
    assert validate_algebra(A, max_n=2).ok
    x, y = next((x, y) for x in range(A.n) for y in range(x) if A.cap(x, y) != A.zero)
    B = retabled(A, "cap", [(x, y, A.zero), (y, x, A.zero)])
    with pytest.raises(SizeCapError, match="^n=9 fails certificate check cap; the "
                                           "exhaustive report is capped at n=8$"):
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
    """n = 1 (no atoms) and n = 2 (one atom), with the zero at either
    index: the certificate and the exhaustive report agree on the algebra,
    on every one-entry mutant, and on seeded tables (none of those is
    valid: a valid algebra on two elements is the Boolean one)."""
    one, two = one_element(), boolean_algebra(1)
    swapped = make_algebra(2, 1, [[0, 1], [1, 1]], [[0, 0], [0, 1]],
                           [[1, 0], [1, 1]], [[0, 1], [1, 1]])
    rng = random.Random(20261020)
    seeded = [make_algebra(2, rng.randrange(2),
                           *([[rng.randrange(2) for _ in range(2)] for _ in range(2)]
                             for _ in range(4)))
              for _ in range(200)]
    reports = []
    for A in (one, two, swapped):
        assert checked_report(A).ok
        reports += [checked_report(B) for B in every_one_entry_mutant(A)]
    reports += [checked_report(B) for B in seeded]
    assert not any(r.ok for r in reports)
    assert len({r.failures[0][0] for r in reports}) > 5


# ---------------------------------------------------------------------------
# The product certificate
# ---------------------------------------------------------------------------

def verdicts(B):
    """Whether the certificate and the exhaustive report accept B."""
    return _certificate(B) is None, _exhaustive_report(B).ok


def relabelled(A, rng):
    """A with its elements renumbered by a random permutation."""
    perm = np.array(rng.sample(range(A.n), A.n))         # element x becomes perm[x]
    old = np.argsort(perm)
    tables = [perm[getattr(A, name + "_table")[np.ix_(old, old)]] for name in OPS]
    return SkewAlgebra(A.n, int(perm[A.zero]), *tables)


def test_certificate_accepts_every_valid_algebra(section_algebras, catalog):
    """So a valid algebra never reaches the exhaustive report or its cap:
    the catalog, the seeded corpora, plain, left and 2 x 2 bands, partial
    maps, mirrors, the one fiber of 255 points, n = 1 and n = 2, each also
    with its elements renumbered."""
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
        assert verdicts(A) == (True, True)
        assert validate_algebra(A, max_n=0) == ValidationReport(ok=True, failures=(), warnings=())


def test_certificate_agrees_on_two_entry_zero_and_cap_mutants(section_algebras):
    """Two entries changed in one or two tables, the zero moved to another
    element, and the cap of a pair changed on both sides: the two verdicts
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
            assert verdicts(B) == (False, False)
        x, y = rng.sample(range(A.n), 2)
        value = rng.choice([v for v in range(A.n) if v != A.cap(x, y)])
        B = retabled(A, "cap", [(x, y, value), (y, x, value)])
        assert verdicts(B) == (False, False)
        assert validate_algebra(B) == _exhaustive_report(B)
    assert seen == {(True, True), (False, False)}


def test_certificate_compares_every_table():
    """For each table, a mutant that differs from a valid algebra only
    there: the certificate refuses each by that table's name, so it reads
    all four tables."""
    A = dual_algebra(random_space(2, 2, 3, ("product", 2, 2)))[0]
    for name in OPS:
        T = getattr(A, name + "_table")
        B = next(B for x, y, v in itertools.product(range(A.n), repeat=3) if T[x, y] != v
                 for B in [retabled(A, name, [(x, y, v)])] if not _exhaustive_report(B).ok)
        assert _certificate(B) == name
        assert validate_algebra(B) == _exhaustive_report(B)


def test_certificate_refuses_elements_with_the_same_atoms():
    """The four-element Boolean algebra with a ^ top moved to 0: a is no
    longer below top, so top has the same atoms below it as b, though there
    are (1 + 1) * (1 + 1) elements."""
    B = retabled(boolean_algebra(2), "meet", [(3, 1, 0)])
    assert _certificate(B) == "digits"
    assert verdicts(B) == (False, False)
    assert validate_algebra(B) == _exhaustive_report(B)


def test_certificate_refuses_fewer_elements_than_the_product():
    """0 and two atoms a = 1 and b = 2 in fibers of their own, with no
    a v b: three elements where the product of the two fibers has four."""
    meet = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
    join = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]
    diff = [[0, 0, 0], [1, 0, 1], [2, 2, 0]]
    B = make_algebra(3, 0, meet, join, diff, meet)
    assert _certificate(B) == "digits"
    assert verdicts(B) == (False, False)
    assert validate_algebra(B) == _exhaustive_report(B)


def test_certificate_checks_that_each_band_is_rectangular():
    """One fiber of three points whose meet is the third point: idempotent,
    commutative, no point below another, but not associative.  The product
    built from that table decodes and compares equal to itself; only the
    band check refuses it.  The space constructor checks a band's range,
    not its laws, so dual_algebra builds it."""
    steiner = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
    assert band_law_witness(steiner) == ("band_associative", (0, 0, 1))
    B = dual_algebra(RectSkewSpace(3, 1, (0, 0, 0), tables=[steiner]))[0]
    assert _certificate(B) == "band"
    assert verdicts(B) == (False, False)
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
        band = product_band(a, b)
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


def rectangle_mutants(T, rng):
    """Seeded tables near the rectangular band T that are no band: an entry
    out of range, two elements placed at one (row, column), a row key too
    many (rows times columns past m), one wrong entry off row 0 and column
    0, T without its last column, and T as bools."""
    m = len(T)
    out = []
    x, y = rng.randrange(m), rng.randrange(m)
    for value in (m, -1) if T.dtype.kind == "i" else (m,):
        mutant = T.copy()
        mutant[x, y] = value
        out.append(mutant)
    if m >= 3:
        x, z = rng.sample(range(1, m), 2)
        mutant = T.copy()
        mutant[x, 0], mutant[0, x] = T[z, 0], T[0, z]
        out.append(mutant)
    keys = T[:, 0].tolist()
    spare = [v for v in range(m) if v not in keys]
    twice = [x for x in range(1, m) if keys.count(keys[x]) > 1]
    if spare and twice:
        mutant = T.copy()
        mutant[twice[0], 0] = spare[0]
        out.append(mutant)
    if m >= 2:
        x, y = rng.randrange(1, m), rng.randrange(1, m)
        mutant = T.copy()
        mutant[x, y] = (T[x, y] + rng.randrange(1, m)) % m
        out.append(mutant)
    return out + [T[:, :-1], T.astype(bool)]


def test_the_rectangle_decode_agrees_with_the_placement_grid(catalog):
    """_rectangle labels the rows and columns first and fills an R x C grid;
    rectangle_oracle places each element in an m x m grid.  They give the
    same decode, or both None, on every fiber band of the catalog's spectra
    and of the corpus spaces, as intp, int16 and uint8 tables, and on seeded
    mutants of each and of rectangular bands a x b renumbered, and on empty
    tables."""
    def same(T):
        got, want = _rectangle(T), rectangle_oracle(T)
        if want is None:
            return got is None
        return got is not None and all(g.dtype == w.dtype and np.array_equal(g, w)
                                       for g, w in zip(got, want))

    spaces = [skew_spectrum(A)[0] for _, A in catalog] + corpus_spaces()
    bands = [np.asarray(band) for sp in spaces for band in fiber_bands(sp)]
    rng = random.Random(20261020)
    for a, b in itertools.product(range(1, 6), repeat=2):
        perm = rng.sample(range(a * b), a * b)
        old = np.argsort(perm)
        band = product_band(a, b)
        bands.append(np.take(perm, band[np.ix_(old, old)]))
    tables = [np.empty((0, 0), dtype=np.intp), np.empty(0, dtype=np.intp)]
    for T in bands:
        for typed in (T.astype(np.intp), T.astype(np.int16), T.astype(np.uint8)):
            tables += [typed] + rectangle_mutants(typed, rng)
    outcomes = {rectangle_oracle(T) is None for T in tables}
    assert outcomes == {True, False}
    for T in tables:
        assert same(T), T.tolist()


def block_edge_swap(k, seed):
    """A builder that makes _product_tables' tables with two differing
    entries of table k swapped in one row at the edge of a row block (the
    first row of a block or the last of the one before), or, where that
    row is constant, in its column, all chosen by seed."""
    build = spaces_sections._product_tables

    def faulty(bands, digits, radix, rank):
        tables = build(bands, digits, radix, rank).copy()
        T, n = tables[k], len(tables[k])
        rows = ROW_BLOCK // n
        rng = random.Random(seed)
        x = rows * rng.randrange(1, n // rows) - rng.randrange(2)
        y = rng.randrange(n)
        if (T[x] != T[x, y]).any():
            z = rng.choice(np.flatnonzero(T[x] != T[x, y]).tolist())
            T[x, y], T[x, z] = T[x, z], T[x, y]
        else:                    # x v y = x on one plain fiber: swap in column y
            z = rng.choice(np.flatnonzero(T[:, y] != T[x, y]).tolist())
            T[x, y], T[z, y] = T[z, y], T[x, y]
        return tables

    return faulty


@pytest.mark.parametrize("k, name", enumerate(OPS))
def test_a_fault_of_the_builder_is_refused(monkeypatch, k, name):
    """The certificate shares no code with the builder: with a block-edge
    swap in each table in turn built into the section algebra of five
    plain fibers of three, and of one plain fiber of 1023 (n = 1024), it
    names that table, and past the exhaustive report's cap validate_algebra
    says so.  On the one fiber every element but the zero is an atom, so
    the decode reads every meet entry off the zero's row and column, and a
    meet swap is refused by the band check, which reads meet."""
    monkeypatch.setattr(spaces_sections, "_product_tables", block_edge_swap(k, seed=1024 + k))
    for sizes, refused in (((3,) * 5, name), ((1023,), "band" if name == "meet" else name)):
        A = dual_algebra(space_from_fibers(sizes))[0]
        assert A.n == 1024
        assert _certificate(A) == refused
        with pytest.raises(SizeCapError) as exc:
            validate_algebra(A)
        assert str(exc.value).endswith(
            f"fails certificate check {refused}; the exhaustive report is capped at n=256")


def test_the_certificate_cannot_reach_the_builder():
    """core_algebra, the home of the certificate, defines neither the
    builder nor the band-law search, and imports no skewstone module at any
    depth: both live in spaces_sections, which imports core_algebra, so
    nothing the certificate calls makes tables the way the builder does.
    The source is read with ast."""
    tree = ast.parse(pathlib.Path(core_algebra.__file__).read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    builder = {"_product_algebra", "_product_tables", "band_law_witness"}
    assert not defined & builder
    assert builder <= set(vars(spaces_sections))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules
    for module in modules:
        assert not module.startswith(".") and module.split(".")[0] != "skewstone", module


def test_the_certificate_and_the_round_trip_work_in_row_blocks():
    """On five plain fibers of three (n = 1024, 2 MiB per int16 table) the
    certificate checks A's tables in buffers of ROW_BLOCK entries, and the
    round trip relabels them into its target's one int16 block of tables a
    block of rows at a time: neither makes another n x n array."""
    A = dual_algebra(space_from_fibers((3,) * 5))[0]
    assert traced_peak(validate_algebra, A) < 4 * 2 ** 20
    assert _certificate(A) is None
    assert traced_peak(algebra_roundtrip_iso, A) < (8 + 4) * 2 ** 20


LADDER_1024 = {
    "five plain fibers of three": lambda: space_from_fibers((3,) * 5),
    "the Boolean algebra on ten points": lambda: space_from_fibers((1,) * 10),
    "one plain fiber of 1023": lambda: space_from_fibers((1023,)),
    "one 31 x 33 band fiber": lambda: random_space(1, 1, 0, ("product", 31, 33)),
}


@pytest.mark.parametrize("shape", LADDER_1024)
def test_the_pipeline_stays_small_on_every_shape(shape):
    """At n = 1024, on many small fibers and on one large one alike: the
    builder holds its 8 MiB of tables and one band's int16 codes and parts,
    no (1 + m)^2 digit table (8 MiB as int64 at m = 1023); the certificate,
    on a copy with nothing memoized, reads the decode of each band; and the
    round trip, after the spectrum, holds its target's 8 MiB of tables."""
    sp = LADDER_1024[shape]()
    A = dual_algebra(sp)[0]
    assert A.n == 1024
    assert traced_peak(dual_algebra.__wrapped__, sp) < 20 * 2 ** 20
    copy = SkewAlgebra(A.n, A.zero, A.meet_table, A.join_table, A.diff_table, A.cap_table)
    assert traced_peak(validate_algebra, copy) < 16 * 2 ** 20
    assert validate_algebra(copy).ok
    spectrum_data(A)
    assert traced_peak(algebra_roundtrip_iso, A) < (8 + 4) * 2 ** 20


LADDER_4096 = {
    "six plain fibers of three": lambda: space_from_fibers((3,) * 6),
    "one plain fiber of 4095": lambda: space_from_fibers((4095,)),
    "one 63 x 65 band fiber": lambda: random_space(1, 1, 0, ("product", 63, 65)),
}


@pytest.mark.parametrize("shape", LADDER_4096)
def test_the_certificate_checks_the_tables_in_place_at_n_4096(shape):
    """At n = 4096, one shape at a time.  dual_algebra writes the four
    tables into one 128 MiB block and, besides it, holds one band's int16
    codes and parts: under 128 + 160 MiB.  validate_algebra finds the atoms
    and checks the tables in row blocks of at most ROW_BLOCK entries, with
    no n x n array (32 MiB as int16) on six fibers of three, so it stays
    under 16 MiB there; on one fiber it holds one fiber's masks and band,
    and its decode, under 256 MiB.  One swap of two diff entries, in the
    first row of the second row block, is refused by name, also past the
    exhaustive report's cap."""
    sp = LADDER_4096[shape]()
    tracemalloc.start()
    try:
        A = dual_algebra(sp)[0]
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert validate_algebra(A).ok
        checked = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert A.n == 4096
    assert built < (128 + 160) * 2 ** 20, built
    assert checked < (16 if shape.startswith("six") else 256) * 2 ** 20, checked
    diff = A.diff_table.copy()
    x = ROW_BLOCK // A.n
    diff[x, [0, x]] = diff[x, [x, 0]]
    B = SkewAlgebra(A.n, A.zero, A.meet_table, A.join_table, diff, A.cap_table)
    assert _certificate(B) == "diff"
    with pytest.raises(SizeCapError) as exc:
        validate_algebra(B)
    assert str(exc.value).startswith("n=4096 fails certificate check diff; ")


def test_the_certificate_gathers_in_place_on_one_fiber(monkeypatch):
    """On one plain fiber of 1023 points (n = 1024) each part of the
    certificate, the codes of one digit operation, is a 1024 x 1024 int16
    array of 2 MiB.  The parts are C-ordered, so each row-block take reads
    its part in place and allocates nothing: an F-ordered part was copied
    whole by each of its takes, one per block of ROW_BLOCK entries and table."""
    A = dual_algebra(space_from_fibers((1023,)))[0]
    take, peaks = np.take, []

    def traced_take(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = take(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(core_algebra.np, "take", traced_take)
    tracemalloc.start()
    try:
        assert _certificate(A) is None
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2 * 4 * 1024 // (ROW_BLOCK // 1024)
    assert max(peaks) < 64 * 2 ** 10


def test_validate_hom_gathers_int16_labels():
    """On the round-trip map of five plain fibers of three (n = 1024)
    validate_hom gathers the map through each table of A as int16, the
    type of the target's tables it is compared with: the two n x n images
    of each operation take 2 MiB each, where an intp gather took 8 MiB."""
    A = dual_algebra(space_from_fibers((3,) * 5))[0]
    iso = algebra_roundtrip_iso(A)
    assert validate_hom(iso).ok
    assert traced_peak(validate_hom, iso) < 8 * 2 ** 20
