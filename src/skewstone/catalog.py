"""Named small instances used across tests, scripts and the CLI docs."""

from __future__ import annotations

from .core_algebra import glb_cap_table, make_algebra, mirror, reflection
from .ideals_spectra import make_space
from .spaces_sections import dual_algebra


def one_element():
    """The degenerate algebra {0}."""
    return make_algebra(1, 0, [[0]], [[0]], [[0]], [[0]])


def boolean_algebra(k):
    """Powerset of k atoms as a (commutative) Boolean algebra; element i is
    the bitmask i, so 2**k - 1 is the top."""
    n = 1 << k
    rng = range(n)
    meet = [[x & y for y in rng] for x in rng]
    join = [[x | y for y in rng] for x in rng]
    diff = [[x & ~y for y in rng] for x in rng]
    return make_algebra(n, 0, meet, join, diff, meet)


def right_three():
    """Right-handed algebra on {0, 1, 2} with D-classes {0} and {1, 2}:
    x ^ y = y and x v y = x on the nonzero class, 1 cap 2 = 0."""
    return make_algebra(
        3, 0,
        [[0, 0, 0], [0, 1, 2], [0, 1, 2]],
        [[0, 1, 2], [1, 1, 1], [2, 2, 2]],
        [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 2]])


def left_three():
    return mirror(right_three())


def primitive_right(k):
    """Right-handed algebra with a single nonzero D-class of k elements
    (the section algebra of the one-fiber space with k points)."""
    algebra, _ = dual_algebra(make_space(k, 1, [0] * k))
    return algebra


def fiber_product_over_reflection(A, B):
    """Fiber product of two algebras over their common commutative reflection.

    Requires the two D-quotients to coincide table-for-table.  Meet, join and
    complement act componentwise; the intersection is recomputed as the
    greatest lower bound inside the product carrier.
    Returns (algebra, pair labels).
    """
    QA, to_a = reflection(A)
    QB, to_b = reflection(B)
    if QA != QB:
        raise ValueError("the two reflections differ; relabel the inputs first")
    pairs = [(a, b) for a in A.elements for b in B.elements if to_a[a] == to_b[b]]
    index = {p: i for i, p in enumerate(pairs)}
    n = len(pairs)

    def table(fa, fb):
        return [[index[(fa(pairs[i][0], pairs[j][0]), fb(pairs[i][1], pairs[j][1]))]
                 for j in range(n)] for i in range(n)]

    meet = table(A.meet, B.meet)
    join = table(A.join, B.join)
    diff = table(A.diff, B.diff)
    cap = glb_cap_table(n, meet, join)
    return make_algebra(n, index[(A.zero, B.zero)], meet, join, diff, cap), tuple(pairs)
