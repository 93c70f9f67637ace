import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from definitions import (
    enumerate_ideals,
    enumerate_prime_ideals_bruteforce,
    green_partitions_oracle,
    leq_oracle,
    quotient_by_oracle,
    saturate,
)
from helpers import corpus_params, renumbered, round_trip_algebras
from skewstone import (
    Ideal,
    StructuralError,
    basic_copen,
    dual_algebra,
    enumerate_prime_ideals,
    ideal_congruence,
    leq_ideal_generated,
    natural_preceq,
    preceq_ideal_generated,
    random_space,
    skew_spectrum,
    validate_space,
)
from skewstone.core_algebra import is_congruence, partition_from_labels
from skewstone.ideals_spectra import is_ideal, spectrum_data
from skewstone.spaces_sections import fibers

OPS = ("meet", "join", "diff", "cap")


class TestIdeals:
    def test_ideals_of_three(self, three):
        assert [i.members for i in enumerate_ideals(three)] == [(0,), (0, 1, 2)]

    def test_prime_ideals_examples(self, three, bool4, trivial):
        assert [p.members for p in enumerate_prime_ideals(three)] == [(0,)]
        assert [p.members for p in enumerate_prime_ideals(bool4)] == [(0, 1), (0, 2)]
        assert enumerate_prime_ideals(trivial) == ()

    def test_enumerator_matches_bruteforce_oracle(self, catalog):
        for name, A in catalog:
            fast = [p.members for p in enumerate_prime_ideals(A)]
            slow = [p.members for p in enumerate_prime_ideals_bruteforce(A)]
            assert fast == slow, name

    def test_is_ideal(self, three):
        assert is_ideal(three, (0,))
        assert is_ideal(three, (0, 1, 2))
        assert not is_ideal(three, (0, 1))          # 2 preceq 1 but missing
        assert not is_ideal(three, (1, 2))          # no zero

    def test_reflection_bijection(self, catalog):
        # each prime of A maps, by its blockwise image, to a prime of A/D,
        # one to one and onto
        for name, A in catalog:
            Q, to_d = quotient_by_oracle(A, green_partitions_oracle(A)[0])
            index_q = {p.members: p.index for p in enumerate_prime_ideals(Q)}
            mapping = [index_q[tuple(sorted({to_d[x] for x in p.members}))]
                       for p in enumerate_prime_ideals(A)]
            assert sorted(mapping) == list(range(len(index_q))), name


class TestIdealCongruence:
    def test_three_prime_gives_identity(self, three):
        part = ideal_congruence(three, Ideal((0,)))
        assert part.blocks == ((0,), (1,), (2,))

    def test_bool4_prime_gives_two_blocks(self, bool4):
        part = ideal_congruence(bool4, Ideal((0, 1)))
        assert part.blocks == ((0, 1), (2, 3))

    def test_whole_algebra_collapses(self, catalog):
        for _, A in catalog:
            part = ideal_congruence(A, Ideal(tuple(A.elements)))
            assert len(part.blocks) == 1

    def test_non_ideal_rejected(self, three):
        with pytest.raises(ValueError):
            ideal_congruence(three, Ideal((0, 1)))


class TestSpectrum:
    def test_known_spectra(self, three, bool4):
        sp3, pts3 = skew_spectrum(three)
        sp4, pts4 = skew_spectrum(bool4)
        assert (sp3.size_e, sp3.size_b) == (2, 1)
        assert (sp4.size_e, sp4.size_b) == (2, 2)
        assert pts3 == tuple(pts3)
        assert [(pt.prime, pt.rep) for pt in pts3] == [(0, 1), (0, 2)]

    def test_empty_spectrum(self, trivial):
        sp, pts = skew_spectrum(trivial)
        assert (sp.size_e, sp.size_b, pts) == (0, 0, ())

    def test_spectrum_is_valid_space(self, catalog):
        for name, A in catalog:
            sp, _ = skew_spectrum(A)
            assert validate_space(sp).ok, name

    def test_basic_copen_examples(self, three, bool4):
        assert basic_copen(three, 0) == ()
        assert basic_copen(three, 1) != basic_copen(three, 2)
        assert len(basic_copen(three, 1)) == 1
        assert basic_copen(bool4, 3) == (0, 1)

    def test_zero_always_empty(self, catalog):
        for _, A in catalog:
            assert basic_copen(A, A.zero) == ()

    @pytest.mark.parametrize("a", [-1, 3, True, False, 2.0, 1.5, "1", None])
    def test_basic_copen_refuses_non_elements(self, three, a):
        # a row gather would wrap -1 round to element 2, and bools and
        # floats are no elements
        with pytest.raises(StructuralError, match="is not an element 0..2"):
            basic_copen(three, a)

    def test_saturate(self, three):
        sp, _ = skew_spectrum(three)
        assert saturate(sp, ()) == ()
        assert saturate(sp, (0,)) == (0, 1)
        assert saturate(sp, saturate(sp, (1,))) == saturate(sp, (1,))


class TestBasicSectionIdentities:
    def test_cap_meet_join_identities(self, catalog):
        for name, A in catalog:
            sd = spectrum_data(A)
            sp = sd.space
            copens = {a: set(basic_copen(A, a)) for a in A.elements}
            for a in A.elements:
                for b in A.elements:
                    assert copens[a] & copens[b] == copens[A.cap(a, b)], name
                    aba = A.meet(A.meet(a, b), a)
                    assert copens[aba] == set(saturate(sp, copens[b])) & copens[a]
                    aoba = A.join(A.join(a, b), a)
                    assert copens[aoba] == copens[a] | (copens[b] - set(saturate(sp, copens[a])))

    def test_preimage_of_base_copen(self, catalog):
        # points over the primes missing a are exactly the union of the basic
        # sections of the elements below a in the preorder
        for _, A in catalog:
            sd = spectrum_data(A)
            for a in A.elements:
                primes_with_a = {pi for pi, p in enumerate(sd.primes)
                                 if a not in p.members}
                lhs = {e for e in range(sd.space.size_e)
                       if sd.space.p[e] in primes_with_a}
                rhs = set()
                for b in A.elements:
                    if natural_preceq(A, b, a):
                        rhs |= set(basic_copen(A, b))
                assert lhs == rhs

    def test_order_isomorphism_onto_sections(self, catalog):
        from skewstone import enumerate_sections

        for _, A in catalog:
            sd = spectrum_data(A)
            copens = [basic_copen(A, a) for a in A.elements]
            assert len(set(copens)) == A.n
            assert set(copens) == set(enumerate_sections(sd.space))
            leq = leq_oracle(A)
            for a in A.elements:
                for b in A.elements:
                    assert leq[a][b] == (set(copens[a]) <= set(copens[b]))

    def test_band_matches_meet_on_representatives(self, catalog):
        for _, A in catalog:
            sd = spectrum_data(A)
            sp = sd.space
            for x in range(sp.size_e):
                for y in range(sp.size_e):
                    if sp.p[x] != sp.p[y]:
                        assert sp.band[x][y] is None
                        continue
                    pi = sp.p[x]
                    m = A.meet(sd.points[x].rep, sd.points[y].rep)
                    assert sp.band[x][y] == fibers(sp)[pi][sd.rows[m, pi] - 1]


class TestRowsAgainstTableRoute:
    def test_row_classes_are_the_ideal_congruences(self):
        # the basic rows are read off the product form.  Each prime's digit
        # column is checked on B's own tables: it is a congruence for all
        # four operations whose zero class is the prime, and a four-operation
        # congruence is fixed by its zero class (TestIdealCongruenceBijection),
        # so it is the prime's congruence; ideal_congruence gives it too.
        # On round_trip_algebras with 200 corpus algebras (up to n = 1024),
        # each also renumbered
        algebras = round_trip_algebras(200)
        assert max(A.n for A in algebras) >= 1024
        for i, A in enumerate(algebras):
            for B in (A, renumbered(A, i)):
                sd = spectrum_data(B)
                assert sd.rows.shape == (B.n, len(sd.primes)), i
                for pi, prime in enumerate(sd.primes):
                    digit = sd.rows[:, pi]
                    part = partition_from_labels(digit.tolist())
                    assert is_congruence(B, part, OPS) is None, i
                    assert part.blocks[part.labels[B.zero]] == prime.members, i
                    assert ideal_congruence(B, prime) == part, i
                    reps = [sd.points[e].rep for e in fibers(sd.space)[pi]]
                    assert reps == sorted(reps), i          # points by least element
                    assert reps == [np.argmax(digit == 1 + j) for j in range(len(reps))], i


class TestPrimeLemmas:
    def test_complement_splits_across_primes(self, catalog):
        for _, A in catalog:
            for p in enumerate_prime_ideals(A):
                mem = set(p.members)
                for x in A.elements:
                    for y in A.elements:
                        assert x in mem or A.diff(y, x) in mem

    def test_lower_elements_outside_prime_are_congruent(self, catalog):
        for _, A in catalog:
            sd = spectrum_data(A)
            leq = leq_oracle(A)
            for pi, p in enumerate(sd.primes):
                digit = sd.rows[:, pi]
                mem = set(p.members)
                for x in A.elements:
                    for y in A.elements:
                        if leq[x][y] and x not in mem:
                            assert digit[x] == digit[y]

    def test_cut_across_witness(self, catalog):
        # c = (a^b^a) v b v (a^b^a) lies outside P, is congruent to a, and is
        # D-related to b
        from skewstone import green_partitions

        for _, A in catalog:
            sd = spectrum_data(A)
            d = green_partitions(A)[0]
            for pi, p in enumerate(sd.primes):
                digit = sd.rows[:, pi]
                mem = set(p.members)
                for a in A.elements:
                    for b in A.elements:
                        if a in mem or b in mem:
                            continue
                        aba = A.meet(A.meet(a, b), a)
                        c = A.join(A.join(aba, b), aba)
                        assert c not in mem
                        assert digit[c] == digit[a]
                        assert d.labels[c] == d.labels[b]


class TestGeneratedIdeals:
    def test_examples_in_three(self, three):
        assert leq_ideal_generated(three, {1}) == (0, 1)
        assert leq_ideal_generated(three, set()) == (0,)
        assert preceq_ideal_generated(three, {1}).members == (0, 1, 2)

    def test_cofinality_examples(self, three, bool4):
        # a subset is cofinal when the ideal it generates is the algebra
        leq_cofinal = lambda A, subset: len(leq_ideal_generated(A, subset)) == A.n
        preceq_cofinal = lambda A, subset: len(preceq_ideal_generated(A, subset).members) == A.n
        assert leq_cofinal(three, set(three.elements))
        assert preceq_cofinal(three, set(three.elements))
        assert not leq_cofinal(three, {1})
        assert preceq_cofinal(three, {1})
        assert not leq_cofinal(bool4, {0})
        assert not preceq_cofinal(bool4, {0})

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 255))
    def test_generated_sets_are_ideals(self, seed, mask):
        size_b, max_fiber, kind = corpus_params(seed % 89)
        A, _ = dual_algebra(random_space(size_b, max_fiber, seed, kind))
        subset = {x for x in A.elements if mask & (1 << (x % 8))}
        leq_ideal = leq_ideal_generated(A, subset)
        leq = leq_oracle(A)
        assert all(y in set(leq_ideal)
                   for x in leq_ideal for y in A.elements if leq[y][x])
        assert all(A.join(x, y) in set(leq_ideal) for x in leq_ideal for y in leq_ideal)
        assert is_ideal(A, preceq_ideal_generated(A, subset).members)


class TestIdealCongruenceBijection:
    def test_every_full_congruence_comes_from_its_zero_class(self, catalog):
        # congruences for all four operations biject with ideals, and the
        # membership formula recovers each one from its zero class
        def all_partitions(n):
            def rec(prefix, kmax):
                if len(prefix) == n:
                    yield partition_from_labels(prefix)
                    return
                for v in range(kmax + 1):
                    yield from rec(prefix + [v], max(kmax, v + 1))
            yield from rec([0], 1)

        for name, A in catalog:
            if A.n > 5:
                continue
            congruences = [p for p in all_partitions(A.n)
                           if is_congruence(A, p, OPS) is None]
            ideals = enumerate_ideals(A)
            assert len(congruences) == len(ideals), name
            for c in congruences:
                zero_class = c.blocks[c.labels[A.zero]]
                assert ideal_congruence(A, zero_class) == c, name
