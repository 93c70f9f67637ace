"""Lattice sections of right-handed algebras versus global sections of spaces.

A lattice section picks one element per D-class so that zero, meet and join
are preserved; a global section of a space picks one point per fiber.  On a
finite instance each exists exactly when the other does, and either witness
converts into the other.

Every finite base is trivially a finite union of copen sets, so here a
section always exists; right-handed algebras without lattice sections only
appear over genuinely infinite bases (an uncountable ordinal works), which
are outside what this package can represent.  The suite therefore pins the
finite existence statement instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_algebra import green_partitions, handedness, reflection
from .ideals_spectra import _basic_rows, _row_tuples, fibers, spectrum_data
from .morphisms_duality import _basic_labels
from .spaces_sections import _section_rows


@dataclass(frozen=True)
class LatticeSection:
    """choice[d] is the chosen element of D-class d."""

    choice: tuple[int, ...]


@dataclass(frozen=True)
class GlobalSection:
    """Section meeting every fiber: the projection restricts to a bijection."""

    points: tuple[int, ...]


def _require_right_handed(A):
    kind = handedness(A)
    if kind not in ("right", "commutative"):
        raise ValueError(f"lattice-section search needs a right-handed algebra, got {kind}")


def is_lattice_section(A, choice):
    """Check one element per D-class, zero preserved, meet and join preserved."""
    d = green_partitions(A)[0]
    if len(choice) != len(d.blocks):
        return False
    for i, c in enumerate(choice):
        if d.labels[c] != i:
            return False
    AD, to_d = reflection(A)
    if choice[to_d[A.zero]] != A.zero:
        return False
    c = np.asarray(choice)
    return all(np.array_equal(getattr(A, op)[np.ix_(c, c)], np.take(c, getattr(AD, op)))
               for op in ("meet_table", "join_table"))


def find_lattice_section(A):
    """Depth-first search over per-class choices, least candidates first,
    pruning as soon as a meet or join of chosen elements leaves the partial
    choice.  Returns the first section found, or None.  The search keeps its
    own stack, one candidate index per class, so its depth is not bounded by
    Python's recursion limit."""
    _require_right_handed(A)
    d = green_partitions(A)[0]
    AD, to_d = reflection(A)
    k = AD.n
    # per table of A: the class pairs (i, j) with the class q of i . j, as
    # the columns of one (3, k * k) array sorted by the last of i, j and q
    # to be filled, and where the run of each class t starts; a run is
    # checked when its class is filled
    r = np.arange(k, dtype=np.int32)
    checks = []
    for op in ("meet_table", "join_table"):
        Q = getattr(AD, op).ravel()
        last = np.maximum(np.maximum.outer(r, r).ravel(), Q)
        order = np.argsort(last, kind="stable").astype(np.int32)
        triples = np.stack((order // k, order % k, Q[order]))
        starts = np.searchsorted(last[order], np.arange(k + 1)).tolist()
        checks.append((getattr(A, op), triples, starts))
    choice = np.zeros(k, dtype=np.intp)

    def consistent(t):
        for T, triples, starts in checks:
            x, y, q = choice[triples[:, starts[t]:starts[t + 1]]]
            if not (T[x, y] == q).all():
                return False
        return True

    candidates = [(A.zero,) if t == to_d[A.zero] else d.blocks[t] for t in range(k)]
    tried = [0] * k                  # next candidate to try at each class
    t = 0
    while 0 <= t < k:
        if tried[t] == len(candidates[t]):
            tried[t] = 0
            t -= 1
            continue
        choice[t] = candidates[t][tried[t]]
        tried[t] += 1
        if consistent(t):
            t += 1
    if t < 0:
        return None
    section = LatticeSection(tuple(choice.tolist()))
    if not is_lattice_section(A, section.choice):
        raise RuntimeError("search returned a non-section")
    return section


def find_global_section(sp):
    """Least point of every fiber; always succeeds on a finite surjection."""
    fib = fibers(sp)
    if any(not f for f in fib):
        return None
    return GlobalSection(tuple(f[0] for f in fib))


def lattice_section_to_global(A, section):
    """Glue the basic sections of the chosen elements into a global section
    of the spectrum, verifying the gluing compatibilities on the way.  The
    pieces are digit rows; class i's support is its representative's row."""
    sd = spectrum_data(A)
    AD, _ = reflection(A)
    rows = _basic_rows(A)[list(section.choice)]
    supp = _class_supports(A)
    for i in range(AD.n):
        # the local pieces agree on overlaps
        bad = (rows[AD.meet_table[i]] != np.where(supp[i] & supp, rows, 0)).any(axis=1)
        if bad.any():
            raise ValueError(f"local sections disagree above classes ({i}, {int(np.argmax(bad))})")
    glued = rows.max(axis=0)
    if not (glued > 0).all() or (np.where(rows > 0, rows, glued) != glued).any():
        raise ValueError("glued section does not hit every fiber exactly once")
    return GlobalSection(_row_tuples(sd.space, glued[None])[0])


def global_section_to_lattice(A, section):
    """Carve the global section of the spectrum into basic pieces, one per
    D-class (its row masked by the class's support), and read the chosen
    elements back through the section bijection."""
    sp = spectrum_data(A).space
    _, radix, rank, digit = _section_rows(sp)
    row = np.zeros(sp.size_b, dtype=np.int64)
    for e in sorted(set(section.points)):
        if row[sp.p[e]]:
            raise ValueError(f"section has two points over base point {sp.p[e]}")
        row[sp.p[e]] = digit[e]
    pieces = np.where(_class_supports(A), row, 0)
    choice = np.argsort(_basic_labels(A))[rank[pieces @ radix]]
    result = LatticeSection(tuple(choice.tolist()))
    if not is_lattice_section(A, result.choice):
        raise ValueError("converted choice is not a lattice section")
    return result


def _class_supports(A):
    """[i, b]: D-class i lies outside the prime over b."""
    return _basic_rows(A)[[block[0] for block in green_partitions(A)[0].blocks]] > 0


def section_equivalence_check(A):
    """A right-handed algebra has a lattice section exactly when its spectrum
    has a global section; both witnesses are produced and converted into each
    other, with every conversion validated."""
    _require_right_handed(A)
    lattice = find_lattice_section(A)
    sd = spectrum_data(A)
    global_ = find_global_section(sd.space)
    if (lattice is None) != (global_ is None):
        return False
    if lattice is None:
        return True
    try:
        lattice_section_to_global(A, lattice)
        global_section_to_lattice(A, global_)
    except ValueError:
        return False
    return True
