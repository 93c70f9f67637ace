"""The whole-table kernels and the readings of the product form against
the pairwise loops they replaced, kept as oracles in definitions.py: is_ideal,
enumerate_prime_ideals, ideal_congruence, is_congruence, green_partitions,
the basic sections, quotients, subalgebras, the pullback check and
glb_cap_table give equal results, and raise the same exception types with
the same messages, on valid algebras, on sets that are not ideals and on
partitions that are not congruences.  The kernels of an arbitrary
partition or table (is_congruence, glb_cap_table) are compared on
one-entry mutants too; derived structure of a mutant (its primes, its
ideals and their congruences, Green's relations, the pullback check) is
refused by the certificate, by name.  Each of the pullback check's three
checks is seen to refuse on Green's relations seeded into the memo."""

import itertools
import random
import re

import numpy as np
import pytest

from catalog import boolean_algebra
from definitions import (
    basic_copens_oracle,
    enumerate_prime_ideals_oracle,
    glb_cap_table_oracle,
    green_partitions_oracle,
    ideal_congruence_oracle,
    is_congruence_oracle,
    is_ideal_oracle,
    quotient_by_oracle,
    second_decomposition_check_oracle,
    spectrum_data_oracle,
    subalgebra_on_oracle,
)
from helpers import (
    mixed_space,
    outcome,
    refusal,
    renumbered,
    retabled,
    small_test_algebras,
    traced_peak,
)
from skewstone import (
    basic_copen,
    dual_algebra,
    enumerate_prime_ideals,
    green_partitions,
    ideal_congruence,
    make_space,
    quotient_by,
    random_space,
    second_decomposition_check,
)
from skewstone.core_algebra import (
    _certificate,
    glb_cap_table,
    is_congruence,
    partition_from_labels,
    subalgebra_on,
)
from skewstone.ideals_spectra import is_ideal, spectrum_data
from skewstone.spaces_sections import fibers

OPS = ("meet", "join", "diff", "cap")


@pytest.fixture(scope="module")
def algebras():
    """The catalog, then seeded section algebras of every band kind: plain,
    right, left and the 2 x 2 grid (n = 1 to 27)."""
    out = [A for _, A in small_test_algebras()]
    for seed in range(3):
        for band in ("none", "right", "left", ("product", 2, 2)):
            out.append(dual_algebra(random_space(2, 3, seed, band))[0])
        out.append(dual_algebra(random_space(3, 2, 10 + seed, "none"))[0])
    return out


def mutants(A, count, seed):
    """A with one entry of one table changed, count times."""
    rng = random.Random(seed)
    for _ in range(count):
        table, x, y = rng.choice(OPS), rng.randrange(A.n), rng.randrange(A.n)
        value = (getattr(A, table + "_table")[x][y] + rng.randrange(1, A.n)) % A.n
        yield retabled(A, table, [(x, y, value)])


def test_prime_ideals_match_the_loop(algebras):
    for A in algebras:
        assert enumerate_prime_ideals(A) == enumerate_prime_ideals_oracle(A)


def test_prime_ideals_on_mutants_fail_as_the_loop(algebras):
    """No mutant is certified, and each is refused by name.  The pairwise
    oracle reads only the tables, so on a mutant it may answer; it is
    compared on the valid algebras only (test_prime_ideals_match_the_loop)."""
    refused = set()
    for i, A in enumerate(a for a in algebras if 3 <= a.n <= 16):
        for B in mutants(A, 30, seed=i):
            assert outcome(enumerate_prime_ideals, B) == refusal(B)
            refused.add(_certificate(B))
    assert {"fibers", "band", "digits", "meet", "join", "diff", "cap"} <= refused


def test_ideal_congruences_match_the_loop(algebras):
    for A in algebras:
        for prime in enumerate_prime_ideals(A):
            assert ideal_congruence(A, prime) == ideal_congruence_oracle(A, prime)
        for members in ((A.zero,), tuple(A.elements)):
            assert ideal_congruence(A, members) == ideal_congruence_oracle(A, members)


def test_sets_that_are_not_ideals(algebras):
    rng = random.Random(5)
    refused = 0
    for A in algebras:
        for _ in range(20):
            members = tuple(sorted(rng.sample(range(A.n), rng.randint(1, A.n))))
            assert is_ideal(A, members) == is_ideal_oracle(A, members)
            got = outcome(ideal_congruence, A, members)
            assert got == outcome(ideal_congruence_oracle, A, members)
            refused += got[0] == "raised"
    assert refused > 0


def test_ideal_congruence_refuses_what_is_not_an_ideal():
    """The spectrum hands its primes, proved to be ideals, straight to the
    congruence; the public ideal_congruence still checks its argument.
    Members are read as integers (as_ints), so a bool, a float, a string or
    None is no element, as an int out of range is not, and makes no ideal."""
    A = boolean_algebra(2)                   # 0, a = 1, b = 2, top = 3
    for members in ((1,), (0, 3), (0, 1, 2), (0, 4), (), (0, -1), (0, True), (False, 1),
                    (0, 1.0), (0, 1.5), (0, "1"), (0, None)):
        assert is_ideal(A, members) is False
        with pytest.raises(ValueError, match=re.escape(f"{members} is not an ideal")):
            ideal_congruence(A, members)
    assert ideal_congruence(A, (0, 1)).labels == (0, 0, 1, 1)


def test_ideal_congruences_on_mutants_fail_as_the_loop(algebras):
    """The ideals of a mutant and their congruences are refused by name, as
    all its derived structure is; the pairwise oracle, which reads only
    the tables, is compared on the valid algebras
    (test_ideal_congruences_match_the_loop)."""
    for i, A in enumerate(a for a in algebras if 3 <= a.n <= 16):
        primes = enumerate_prime_ideals(A)
        for B in mutants(A, 20, seed=100 + i):
            for prime in primes:
                assert outcome(is_ideal, B, prime.members) == refusal(B)
                assert outcome(ideal_congruence, B, prime.members) == refusal(B)


def test_random_partitions_match_the_loop(algebras):
    rng = random.Random(9)
    witnesses = 0
    for A in algebras:
        for _ in range(20):
            k = rng.randint(1, A.n)
            part = partition_from_labels([rng.randrange(k) for _ in A.elements])
            for op_names in (("meet", "join", "diff"), OPS, ("cap",)):
                got = is_congruence(A, part, op_names)
                assert got == is_congruence_oracle(A, part, op_names)
                witnesses += got is not None
        for part in green_partitions(A):
            assert is_congruence(A, part, OPS) == is_congruence_oracle(A, part, OPS)
    assert witnesses > 0


def test_green_partitions_on_mutants_fail_as_the_loop(algebras):
    """Green's relations of a mutant are refused by name, never read off
    its tables; on every valid algebra they are the pairwise oracle's."""
    for i, A in enumerate(a for a in algebras if 3 <= a.n <= 27):
        for B in mutants(A, 30, seed=200 + i):
            assert outcome(green_partitions, B) == refusal(B)
    for A in algebras:
        assert green_partitions(A) == green_partitions_oracle(A)


def test_basic_sections_match_the_scan(algebras):
    for A in algebras:
        expected = basic_copens_oracle(A, spectrum_data_oracle(A))
        assert tuple(basic_copen(A, a) for a in A.elements) == expected


def test_quotients_match_the_loop(algebras):
    rng = random.Random(11)
    refused = 0
    for A in algebras:
        parts = list(green_partitions(A))
        parts += [ideal_congruence(A, prime) for prime in enumerate_prime_ideals(A)]
        for _ in range(10):
            k = rng.randint(1, A.n)
            parts.append(partition_from_labels([rng.randrange(k) for _ in A.elements]))
        for part in parts:
            got = outcome(quotient_by, A, part)
            assert got == outcome(quotient_by_oracle, A, part)
            refused += got[0] == "raised"
    assert refused > 0


def test_subalgebras_match_the_loop(algebras):
    rng = random.Random(13)
    refused = 0
    for A in algebras:
        for _ in range(10):
            subset = {A.zero} | set(rng.sample(range(A.n), rng.randint(0, A.n - 1)))
            got = outcome(subalgebra_on, A, subset)
            assert got == outcome(subalgebra_on_oracle, A, subset)
            refused += got[0] == "raised"
        assert subalgebra_on(A, A.elements) == subalgebra_on_oracle(A, A.elements)
    assert refused > 0


def test_pullback_check_matches_the_loop(algebras):
    for A in algebras:
        assert second_decomposition_check(A) is second_decomposition_check_oracle(A) is True
    for i, A in enumerate(a for a in algebras if 3 <= a.n <= 16):
        for B in mutants(A, 20, seed=300 + i):
            assert outcome(second_decomposition_check, B) == refusal(B)


def test_ideal_congruences_and_the_pullback_check_at_n_4096_and_3125():
    """Six plain fibers of three and five 2 x 2 grid fibers, and a
    renumbered copy of each: the pullback check holds, and each prime's
    congruence has 1 + |fiber| classes with the prime as its zero class.
    With Green's relations made, the check makes no n x n array: its
    traced peak stays under 4 MiB.  Each algebra is built afresh and
    dropped before the next, so at most two are held at once, while one is
    renumbered."""
    spaces = (lambda: make_space(18, 6, [b for b in range(6) for _ in range(3)]),
              lambda: mixed_space([(2, 2)] * 5, seed=1))
    sizes, parts = [], 0
    for (i, space), copy in itertools.product(enumerate(spaces), (False, True)):
        A = dual_algebra(space())[0]
        if copy:
            A = renumbered(A, seed=i)
        sizes.append(A.n)
        green_partitions(A)
        assert traced_peak(second_decomposition_check, A) < 4 * 2 ** 20
        assert second_decomposition_check(A) is True
        for p, f in zip(spectrum_data(A).primes, fibers(spectrum_data(A).space)):
            c = ideal_congruence(A, p)
            assert len(c.blocks) == 1 + len(f) and c.blocks[c.labels[A.zero]] == p.members
            parts += 1
    assert sizes == [4096, 4096, 3125, 3125]
    assert parts == 22


def test_pullback_check_refuses_seeded_relations():
    """Green's relations seeded into the memo of a copy.  Every case but
    R = L = D breaks one count of the check and keeps the other, so neither
    can be dropped.  On a 2 x 2 grid fiber (n = 5), R = L = D.  On the
    four-element Boolean algebra (0, a = 1, b = 2, top = 3), with
    partitions that are congruences: one D-class with discrete R and L, a
    pullback of 16 pairs; one D-class with R = L = "same b", a map that is
    not one-to-one; D = "same a", L = "same b" and discrete R, an element
    whose R-class and L-class lie in different D-classes.  The check reads
    no table: on a certified algebra R and L are congruences."""
    grid = dual_algebra(mixed_space([(2, 2)], seed=0))[0]
    d = green_partitions(grid)[0]
    assert grid.n == 5
    B4 = boolean_algebra(2)
    one, discrete = partition_from_labels([0] * 4), partition_from_labels(range(4))
    same_a, same_b = partition_from_labels([0, 1, 0, 1]), partition_from_labels([0, 0, 1, 1])
    assert is_congruence(B4, same_a) is is_congruence(B4, same_b) is None
    cases = [(grid, (d, d, d)),
             (B4, (one, discrete, discrete)), (B4, (one, same_b, same_b)),
             (B4, (same_a, same_b, discrete))]
    for A, green in cases:
        assert second_decomposition_check(A) is True
        copy = retabled(A, "meet", [])               # with its own memos
        copy.__dict__["_memo_green_partitions"] = green
        assert second_decomposition_check(copy) is False, green


def glb_outcome(fn, B):
    got = outcome(fn, B.n, B.meet_table.tolist(), B.join_table.tolist())
    return ("ok", np.asarray(got[1]).tolist()) if got[0] == "ok" else got


def test_glb_cap_tables_match_the_loop(algebras):
    for A in algebras:
        assert glb_outcome(glb_cap_table, A) == ("ok", A.cap_table.tolist())
        assert glb_cap_table_oracle(A.n, A.meet_table.tolist(),
                                    A.join_table.tolist()) == A.cap_table.tolist()
    outcomes = set()
    for i, A in enumerate(a for a in algebras if 3 <= a.n <= 16):
        # the same mutants as the pullback check's, then some of their own
        for B in list(mutants(A, 20, seed=300 + i)) + list(mutants(A, 20, seed=900 + i)):
            got = glb_outcome(glb_cap_table, B)
            assert got == glb_outcome(glb_cap_table_oracle, B)
            outcomes.add(got[0] if got[0] == "ok" else got[2].split(" for ")[0])
    assert outcomes == {"ok", "no common lower bound", "no greatest lower bound"}
