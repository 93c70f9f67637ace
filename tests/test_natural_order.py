"""The natural order and preorder are held once per algebra, as the arrays
leq_matrix / preceq_matrix, and every reader of them works on masks.  Each
reader is checked against the pairwise loop it replaced, kept as an oracle
in helpers: the generated ideals, classify_hom, reflection_check and the
Hasse edges of export-dot give equal results, and raise the same exception
types with the same messages, on the catalog, seeded section algebras,
one-entry mutants and spaces whose bands are not rectangular; on every
space whose section algebra the certificate refuses, reflection_check
raises the certificate's refusal instead."""

import random

import numpy as np
import pytest

from helpers import (
    classify_hom_oracle,
    corpus_dual_algebras,
    corpus_spaces,
    hasse_edges_oracle,
    leq_ideal_generated_oracle,
    outcome,
    preceq_ideal_generated_oracle,
    reflection_check_oracle,
    refusal,
    retabled,
    small_test_algebras,
)
from skewstone import (
    HomFlags,
    dual_algebra,
    enumerate_homs,
    leq_ideal_generated,
    make_space,
    natural_leq,
    natural_preceq,
    preceq_ideal_generated,
    reflection_check,
)
from skewstone.cli import _hasse_edges
from skewstone.core_algebra import _certificate, leq_matrix, preceq_matrix, reflection
from skewstone.morphisms_duality import classify_hom

OPS = ("meet", "join", "diff", "cap")


@pytest.fixture(scope="module")
def algebras():
    """The catalog, seeded section algebras of every band kind (n = 1 to
    25) and the commutative reflection of each."""
    out = [A for _, A in small_test_algebras()] + corpus_dual_algebras(24)
    return out + [reflection(A)[0] for A in out]


def mutants(algebras, count, seed):
    """Algebras with one entry of one table changed."""
    rng = random.Random(seed)
    for _ in range(count):
        A = rng.choice([A for A in algebras if A.n > 1])
        table, x, y = rng.choice(OPS), rng.randrange(A.n), rng.randrange(A.n)
        value = (getattr(A, table + "_table")[x][y] + rng.randrange(1, A.n)) % A.n
        yield retabled(A, table, [(x, y, value)])


@pytest.mark.parametrize("order, related", [(leq_matrix, natural_leq),
                                            (preceq_matrix, natural_preceq)])
def test_each_order_is_one_read_only_boolean_array(algebras, order, related):
    for A in algebras + list(mutants(algebras, 20, 3)):
        held = order(A)
        assert isinstance(held, np.ndarray) and held.dtype == np.bool_
        assert held.shape == (A.n, A.n)
        assert not held.flags.writeable
        assert order(A) is held
        assert held.tolist() == [[related(A, x, y) for y in A.elements] for x in A.elements]


def test_generated_ideals_match_the_loop(algebras):
    rng = random.Random(29)
    for A in algebras + list(mutants(algebras, 40, 5)):
        for _ in range(6):
            subset = rng.sample(range(A.n), rng.randint(0, min(4, A.n)))
            assert leq_ideal_generated(A, subset) == leq_ideal_generated_oracle(A, subset)
            assert (outcome(preceq_ideal_generated, A, subset)
                    == outcome(preceq_ideal_generated_oracle, A, subset))


def test_hasse_edges_match_the_loop(algebras):
    for A in algebras + list(mutants(algebras, 40, 7)):
        edges = _hasse_edges(A)
        assert edges == hasse_edges_oracle(A)
        assert all(type(v) is int for edge in edges for v in edge)


def test_classify_hom_matches_the_loop():
    by_size = {}
    for A in corpus_dual_algebras(24):
        by_size.setdefault(A.n, A)
    small = [A for n, A in sorted(by_size.items()) if n <= 12]
    pairs = [(A, B) for A in small for B in small if A is not B]
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
