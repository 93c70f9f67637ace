"""Lattice sections of right-handed algebras versus global sections of spaces.

A lattice section picks one element per D-class so that zero, meet and join
are preserved; a global section of a space picks one point per fiber.  On a
finite instance each exists exactly when the other does, and either witness
converts into the other.  Both are one digit row: a lattice section is the
top class's choice restricted to each class (is_lattice_section), and the
glued global section is that row.

Every finite base is trivially a finite union of copen sets, so here a
section always exists; right-handed algebras without lattice sections only
appear over genuinely infinite bases (an uncountable ordinal works), which
are outside what this package can represent.  The suite therefore pins the
finite existence statement instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_algebra import _certified_form, _elements, _indices, green_partitions, handedness
from .ideals_spectra import spectrum_data
from .spaces_sections import _row_tuples, fibers


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
    """One element of A per D-class, in class order (False for a non-element),
    whose digit rows in A's product form (_certified_form) agree wherever two
    have a digit: for any handedness, exactly when zero, meet and join are
    preserved.  A computes digitwise; a meet or join has a digit where both
    or either operand has one, there a product of their points in that
    fiber's rectangular band.  If the rows agree, each such product is
    v v = v, so c_i ^ c_j and c_i v c_j are g = max of the rows restricted to
    the supports' intersection and union: c_(i ^ j), c_(i v j).  0's class is {0}.
    Conversely, let g be the choice in the top class (full support): for
    each class i, c_i ^ g = c_i = g ^ c_i, so at each digit s of c_i and r
    of g, s r = s = r s and r = r s r = s (a rectangular band has x y x = x;
    Leech, Algebra Universalis 27, 1990): every c_i is g on its support."""
    d = green_partitions(A)[0]
    c = _indices(choice, A.n)
    if c is None or len(c) != len(d.blocks) or (np.take(d.labels, c) != np.arange(len(c))).any():
        return False
    rows = _certified_form(A).digits[c]
    return bool((rows == np.where(rows > 0, rows.max(axis=0), 0)).all())


def find_lattice_section(A):
    """Read off A's product form (_certified_form), with no search: in each
    D-class in turn, the first element that agrees with the digits fixed so
    far (a class holds every digit row on its support), whose digits are
    then fixed.  A choice is a lattice section exactly when its rows agree
    on overlaps (is_lattice_section), so this is the first one a depth-first
    search over the classes finds.  Checked with is_lattice_section; never None."""
    _require_right_handed(A)
    digits = _certified_form(A).digits
    fixed = np.zeros(digits.shape[1], dtype=digits.dtype)      # 0: not fixed yet
    choice = []
    for block in green_partitions(A)[0].blocks:
        rows = digits[list(block)]
        x = int(np.argmax(((rows == fixed) | (rows == 0) | (fixed == 0)).all(axis=1)))
        fixed = np.where(fixed > 0, fixed, rows[x])
        choice.append(block[x])
    section = LatticeSection(tuple(choice))
    if not is_lattice_section(A, section.choice):
        raise RuntimeError("the read-off choice is not a lattice section")
    return section


def find_global_section(sp):
    """Least point of every fiber; always succeeds on a finite surjection."""
    fib = fibers(sp)
    if any(not f for f in fib):
        return None
    return GlobalSection(tuple(f[0] for f in fib))


def lattice_section_to_global(A, section):
    """Glue the basic sections (digit rows) of the chosen elements into a
    global section of the spectrum.  They agree on overlaps exactly when each
    is the top class's restricted to its class's support (is_lattice_section):
    ValueError naming the first class i that is not as (i, top), or naming
    both lengths if the choice is not one element per D-class."""
    sd = spectrum_data(A)
    choice, supp = _elements(section.choice, A.n), _class_supports(A)
    if len(choice) != len(supp):
        raise ValueError(f"choice has length {len(choice)}, expected {len(supp)}, "
                         "one element per D-class")
    rows = sd.rows[choice]
    top = int(np.argmax(supp.all(axis=1)))
    bad = (rows != np.where(supp, rows[top], 0)).any(axis=1)
    if bad.any():
        raise ValueError(f"local sections disagree above classes ({int(np.argmax(bad))}, {top})")
    glued = rows.max(axis=0)
    if not (glued > 0).all() or (np.where(rows > 0, rows, glued) != glued).any():
        raise ValueError("glued section does not hit every fiber exactly once")
    return GlobalSection(_row_tuples(sd.space, glued[None])[0])


def global_section_to_lattice(A, section):
    """Carve the global section of the spectrum into basic pieces, one per
    D-class (its digit row masked by the class's support), and read the
    chosen elements off the codec of A's product form (_certified_form),
    which numbers its fibers and points as the spectrum does: a point's
    digit is 1 + its place in its fiber."""
    form, sp = _certified_form(A), spectrum_data(A).space
    points = _elements(section.points, sp.size_e, "a point")
    row = np.zeros(sp.size_b, dtype=np.int64)
    for e in sorted(set(points.tolist())):
        if row[sp.p[e]]:
            raise ValueError(f"section has two points over base point {sp.p[e]}")
        row[sp.p[e]] = 1 + fibers(sp)[sp.p[e]].index(e)
    pieces = np.where(_class_supports(A), row, 0)
    choice = form.rank[pieces @ form.radix]
    result = LatticeSection(tuple(choice.tolist()))
    if not is_lattice_section(A, result.choice):
        raise ValueError("converted choice is not a lattice section")
    return result


def _class_supports(A):
    """[i, b]: D-class i lies outside the prime over b."""
    return spectrum_data(A).rows[[block[0] for block in green_partitions(A)[0].blocks]] > 0


def section_equivalence_check(A):
    """A right-handed algebra has a lattice section exactly when its spectrum
    has a global section; both witnesses are produced and converted into each
    other, with every conversion validated."""
    _require_right_handed(A)
    lattice = find_lattice_section(A)
    global_ = find_global_section(spectrum_data(A).space)      # the spectrum has no empty fiber
    try:
        lattice_section_to_global(A, lattice)
        global_section_to_lattice(A, global_)
    except ValueError:
        return False
    return True
