
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from catalog import boolean_algebra, fiber_product_over_reflection
from definitions import (
    leq_oracle,
    natural_leq_via_join,
    natural_preceq_via_join,
)
from helpers import corpus_params, retabled
from oracles import law_holds, tables_of
from skewstone import (
    CongruenceError,
    StructuralError,
    algebras_isomorphic,
    dual_algebra,
    green_partitions,
    handedness,
    make_algebra,
    mirror,
    natural_leq,
    natural_preceq,
    quotient_by,
    random_space,
    second_decomposition_check,
    validate_algebra,
)
from skewstone.core_algebra import (
    _first_bad,
    partition_from_labels,
    subalgebra_on,
)


class TestValidate:
    def test_catalog_examples_are_valid(self, catalog):
        for name, A in catalog:
            report = validate_algebra(A)
            assert report.ok, (name, report.failures)
            assert report.warnings == ()

    def test_one_element_degenerate(self, trivial):
        assert validate_algebra(trivial).ok

    def test_mutated_meet_is_rejected_with_genuine_witness(self, three):
        bad = retabled(three, "meet", [(1, 2, 1)])
        report = validate_algebra(bad)
        assert not report.ok
        names = {law for law, _ in report.failures}
        assert names & {"absorb_join_over_meet_right", "complement_join_restore"}
        for law, witness in report.failures:
            assert not law_holds(tables_of(bad), bad.zero, law, witness)

    def test_structural_error_is_not_a_law_failure(self):
        with pytest.raises(StructuralError):
            make_algebra(2, 0, [[0, 0]], [[0, 1], [1, 1]], [[0, 0], [1, 0]], [[0, 0], [0, 1]])
        with pytest.raises(StructuralError):
            make_algebra(2, 3, [[0, 0], [0, 1]], [[0, 1], [1, 1]],
                         [[0, 0], [1, 0]], [[0, 0], [0, 1]])

    def test_derived_laws_reported_as_warnings_only(self, three):
        # breaking associativity usually breaks normality too; the normality
        # report must stay in the warning channel
        bad = retabled(three, "meet", [(2, 1, 2)])
        report = validate_algebra(bad)
        assert not report.ok
        assert all(law not in ("normal_band", "regular_join_band")
                   for law, _ in report.failures)


class TestNaturalOrders:
    def test_zero_is_bottom(self, three):
        assert natural_leq(three, 0, 1)
        assert natural_leq(three, 0, 2)

    def test_d_related_elements_incomparable(self, three):
        assert not natural_leq(three, 1, 2)
        assert natural_preceq(three, 1, 2)
        assert natural_preceq(three, 2, 1)

    def test_reflexive(self, catalog):
        for _, A in catalog:
            assert all(natural_leq(A, x, x) for x in A.elements)

    def test_join_formulations_agree(self, catalog):
        for _, A in catalog:
            for x in A.elements:
                for y in A.elements:
                    assert natural_leq(A, x, y) == natural_leq_via_join(A, x, y)
                    assert natural_preceq(A, x, y) == natural_preceq_via_join(A, x, y)

    def test_preceq_is_preorder_containing_leq(self, catalog):
        for _, A in catalog:
            pre = [[natural_preceq(A, x, y) for y in A.elements] for x in A.elements]
            leq = leq_oracle(A)
            for x in A.elements:
                assert pre[x][x]
                for y in A.elements:
                    if leq[x][y]:
                        assert pre[x][y]
                    for z in A.elements:
                        if pre[x][y] and pre[y][z]:
                            assert pre[x][z]

    def test_leq_antisymmetric(self, catalog):
        for _, A in catalog:
            leq = leq_oracle(A)
            for x in A.elements:
                for y in A.elements:
                    if leq[x][y] and leq[y][x]:
                        assert x == y


class TestGreen:
    def test_three(self, three):
        d, l, r = green_partitions(three)
        assert d.blocks == ((0,), (1, 2))
        assert l.blocks == ((0,), (1,), (2,))
        assert r.blocks == ((0,), (1, 2))

    def test_commutative_collapses(self, bool4):
        d, l, r = green_partitions(bool4)
        assert d.blocks == l.blocks == r.blocks == ((0,), (1,), (2,), (3,))

    def test_d_is_join_of_l_and_r(self, catalog):
        for _, A in catalog:
            d, l, r = green_partitions(A)
            # transitive closure of L union R
            reach = [set(l.blocks[l.labels[x]]) | set(r.blocks[r.labels[x]])
                     for x in A.elements]
            changed = True
            while changed:
                changed = False
                for x in A.elements:
                    for y in tuple(reach[x]):
                        if not reach[y] <= reach[x]:
                            reach[x] |= reach[y]
                            changed = True
            for x in A.elements:
                assert reach[x] == set(d.blocks[d.labels[x]])

    def test_d_is_kernel_of_preorder_reflection(self, catalog):
        for _, A in catalog:
            d = green_partitions(A)[0]
            for x in A.elements:
                for y in A.elements:
                    assert (d.labels[x] == d.labels[y]) == (natural_preceq(A, x, y)
                                                            and natural_preceq(A, y, x))


class TestPerObjectMemo:
    def test_equal_objects_keep_their_own_results(self, three):
        twin = mirror(mirror(three))
        assert green_partitions(three) is green_partitions(three)
        assert green_partitions(twin) == green_partitions(three)
        assert green_partitions(twin) is not green_partitions(three)

    def test_memo_leaves_equality_hash_and_repr_alone(self, three):
        fresh = mirror(mirror(three))
        for derive in (green_partitions, handedness):
            derive(three)
        assert three == fresh
        assert hash(three) == hash(fresh)
        assert repr(three) == repr(fresh)


class TestQuotients:
    def test_three_mod_d_is_two(self, three):
        d = green_partitions(three)[0]
        q, qmap = quotient_by(three, d)
        assert q == boolean_algebra(1)
        assert qmap == (0, 1, 1)

    def test_identity_congruence(self, three):
        q, qmap = quotient_by(three, partition_from_labels(range(3)))
        assert q == three
        assert qmap == (0, 1, 2)

    def test_commutative_d_trivial(self, bool4):
        q, _ = quotient_by(bool4, green_partitions(bool4)[0])
        assert q == bool4

    def test_quotient_by_d_is_commutative_and_valid(self, catalog):
        for _, A in catalog:
            q, _ = quotient_by(A, green_partitions(A)[0])
            assert handedness(q) == "commutative"
            assert validate_algebra(q).ok

    def test_non_congruence_rejected_with_witness(self, three):
        part = partition_from_labels((0, 0, 1))
        with pytest.raises(CongruenceError) as err:
            quotient_by(three, part)
        op = err.value.op_name
        x, x2, y = err.value.witness
        f = getattr(three, op)
        lab = part.labels
        assert lab[x] == lab[x2]
        assert lab[f(x, y)] != lab[f(x2, y)] or lab[f(y, x)] != lab[f(y, x2)]


class TestHandedness:
    def test_examples(self, three, mirror_three, bool4):
        assert handedness(three) == "right"
        assert handedness(mirror_three) == "left"
        assert handedness(bool4) == "commutative"

    def test_pullback_is_neither(self, three, mirror_three):
        A, labels = fiber_product_over_reflection(three, mirror_three)
        assert A.n == 5
        assert len(labels) == 5
        assert handedness(A) == "neither"
        assert validate_algebra(A).ok


class TestSecondDecomposition:
    def test_catalog(self, catalog):
        for name, A in catalog:
            assert second_decomposition_check(A), name

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_section_algebras(self, seed):
        size_b, max_fiber, kind = corpus_params(seed % 97)
        A, _ = dual_algebra(random_space(size_b, max_fiber, seed, kind))
        assert second_decomposition_check(A)


class TestDerivedInvariants:
    def test_meet_below_reversed_join(self, catalog):
        for _, A in catalog:
            leq = leq_oracle(A)
            for x in A.elements:
                for y in A.elements:
                    assert leq[A.meet(x, y)][A.join(y, x)]

    def test_top_forces_commutative(self, catalog):
        for _, A in catalog:
            leq = leq_oracle(A)
            tops = [t for t in A.elements if all(leq[x][t] for x in A.elements)]
            if tops:
                assert handedness(A) == "commutative"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_normality_and_regularity_hold(self, seed):
        size_b, max_fiber, kind = corpus_params(seed % 101)
        A, _ = dual_algebra(random_space(size_b, max_fiber, seed, kind))
        report = validate_algebra(A)
        assert report.ok
        assert report.warnings == ()


class TestIsomorphismSearch:
    def test_relabeled_copy_found(self, three):
        perm = (0, 2, 1)
        inv = (0, 2, 1)
        t = lambda tab: [[perm[tab[inv[x]][inv[y]]] for y in range(3)] for x in range(3)]
        relabeled = make_algebra(3, 0, t(three.meet_table), t(three.join_table),
                                 t(three.diff_table), t(three.cap_table))
        iso = algebras_isomorphic(three, relabeled)
        assert iso is not None
        for x in range(3):
            for y in range(3):
                assert iso[three.meet(x, y)] == relabeled.meet(iso[x], iso[y])

    def test_mirror_not_isomorphic_to_original(self, three, mirror_three):
        assert algebras_isomorphic(three, mirror_three) is None

    def test_subalgebra_reindexes(self, three):
        sub, embedding = subalgebra_on(three, (0, 1))
        assert embedding == (0, 1)
        assert sub == boolean_algebra(1)
        with pytest.raises(ValueError):
            subalgebra_on(three, (1, 2))

    def test_mirror_involution(self, catalog):
        for _, A in catalog:
            assert mirror(mirror(A)) == A
            assert validate_algebra(mirror(A)).ok


class TestNonCanonicalZeroIndex:
    def test_pipeline_with_zero_at_slot_two(self, three):
        from skewstone import (
            algebra_roundtrip_iso,
            find_lattice_section,
            skew_spectrum,
        )

        perm = (2, 0, 1)
        inv = (1, 2, 0)
        t = lambda tab: [[perm[tab[inv[x]][inv[y]]] for y in range(3)] for x in range(3)]
        moved = make_algebra(3, 2, t(three.meet_table), t(three.join_table),
                             t(three.diff_table), t(three.cap_table))
        assert validate_algebra(moved).ok
        assert algebras_isomorphic(three, moved) is not None
        sp, _ = skew_spectrum(moved)
        assert (sp.size_e, sp.size_b) == (2, 1)
        assert sorted(algebra_roundtrip_iso(moved).map) == [0, 1, 2]
        assert second_decomposition_check(moved)
        assert find_lattice_section(moved) is not None


class TestFirstBad:
    """_first_bad is np.argwhere's first row, read with any() and argmax."""

    @staticmethod
    def expected(mask):
        found = np.argwhere(mask)
        return tuple(int(v) for v in found[0]) if len(found) else None

    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6)))
    @settings(max_examples=300, deadline=None)
    def test_random_masks(self, mask):
        assert _first_bad(mask) == self.expected(mask)

    @given(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6))
    @settings(max_examples=60, deadline=None)
    def test_all_false_and_a_single_last_true(self, shape):
        mask = np.zeros(shape, dtype=bool)
        assert _first_bad(mask) is None
        mask[(-1,) * len(shape)] = True
        assert _first_bad(mask) == tuple(s - 1 for s in shape) == self.expected(mask)

    def test_transposed_view(self):
        mask = np.zeros((3, 4), dtype=bool)
        mask[2, 1] = mask[1, 3] = True
        assert _first_bad(mask.T) == (1, 2) == self.expected(mask.T)
