"""Ideals, prime ideals, the congruences they generate, and the skew spectrum.

The skew spectrum of an algebra is a space (spaces_sections.RectSkewSpace)
over its prime ideals: the fiber over a prime P consists of the non-zero
classes of the congruence generated by P, and carries a rectangular band.
On a finite discrete base a copen set is any subset, so the basic copen set
of an element is one point over each prime that does not hold it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_algebra import (
    StructuralError,
    _certified_form,
    _elements,
    _indices,
    _order_keys,
    partition_from_labels,
    per_object,
)
from .spaces_sections import RectSkewSpace, _row_tuples


@dataclass(frozen=True)
class Ideal:
    """Subset closed downward under the natural preorder and under joins."""

    members: tuple[int, ...]


@dataclass(frozen=True)
class PrimeIdeal:
    """Proper ideal with a ^ b in P forcing a in P or b in P."""

    members: tuple[int, ...]
    index: int


@dataclass(frozen=True)
class SpectrumPoint:
    """A spectrum point: prime-ideal index plus the least element of its
    congruence class outside the prime."""

    prime: int
    rep: int


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------

def is_ideal(A, members):
    """Preorder-downward closed, join closed, contains zero: the members are
    elements 0..n-1 (as_ints; False otherwise) and equal the ideal they
    generate, the least ideal holding them (_generated).  A must be
    certified (_certified_form)."""
    S = _indices(members, A.n)
    if S is None:
        return False
    inS = np.zeros(A.n, dtype=bool)
    inS[S] = True
    return bool(np.array_equal(inS, _generated(A, S)[1]))


def enumerate_prime_ideals(A):
    """All prime ideals, sorted by their members, read off A's product form
    (spectrum_data): one per fiber, the elements without a digit there.
    These are the primes pulled back from A/D, P_a = {x : not a <= x} for
    an atom a of A/D, the support of one fiber."""
    return spectrum_data(A).primes


def ideal_congruence(A, ideal):
    """Least congruence whose zero class contains the ideal: x and y are
    related when (x \\ (x cap y)) v (y \\ (x cap y)) lies in the ideal.

    Read off A's product form (_certified_form): x cap y keeps the digits
    where x and y agree, so x \\ (x cap y) keeps x's digits where the two
    differ, and the join has a digit at fiber b exactly where x and y
    differ there.  The ideal is the set of elements whose support lies in
    the union U of its members' supports (is_ideal), so x and y are related
    exactly when they have the same digits at every fiber outside U.  Each
    operation acts digitwise, so that is a congruence for all four, and its
    zero class is the ideal.  ValueError if the members are not elements
    forming an ideal.
    """
    members = ideal.members if isinstance(ideal, (Ideal, PrimeIdeal)) else tuple(ideal)
    if not is_ideal(A, members):
        raise ValueError(f"{members} is not an ideal")
    digits = _certified_form(A).digits
    outside = ~digits[list(members)].any(axis=0)
    return partition_from_labels(map(tuple, digits[:, outside].tolist()))


# ---------------------------------------------------------------------------
# The skew spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectrumData:
    """Spectrum of an algebra with the lookup structure the duality needs.
    rows[x, pi] is x's basic section as a digit row: 0 when x is in prime
    pi, 1 + i when it holds the i-th point of the fiber over pi.  Read-only."""

    primes: tuple[PrimeIdeal, ...]
    space: RectSkewSpace
    points: tuple[SpectrumPoint, ...]
    rows: np.ndarray


@per_object
def spectrum_data(A):
    """The primes, the points, the space and the basic rows of the spectrum
    (skew_spectrum), read off A's digits.  A is a product of rectangular
    bands with a zero adjoined (_certified_form): fiber b gives the prime
    P_b of the elements without a digit there, and P_b generates the
    congruence "same digit at b", as (x \\ (x cap y)) v (y \\ (x cap y)) has
    a digit at b exactly where x and y differ there.  The form numbers its
    fibers in the order of these primes and each fiber's points by their
    least element, the point's rep, so the basic rows are A's digits.  The
    band is A's meet on the reps, read back through the digits; it does
    not come from the form's band, so _basic_rows_witness compares two
    routes."""
    form = _certified_form(A)
    primes, points, bands = [], [], []
    for pi, (digits, (row, _, _)) in enumerate(zip(form.digits.T, form.rectangles)):
        reps = np.argmax(digits[:, None] == np.arange(1, 1 + len(row)), axis=0)   # least x
        primes.append(PrimeIdeal(tuple(np.flatnonzero(digits == 0).tolist()), pi))
        points += (SpectrumPoint(prime=pi, rep=int(r)) for r in reps)
        bands.append(digits[A.meet_table[reps[:, None], reps]] - 1)
    space = RectSkewSpace(len(points), len(primes), [pt.prime for pt in points], tables=bands)
    return SpectrumData(primes=tuple(primes), space=space, points=tuple(points), rows=form.digits)


@per_object
def _prime_index(sd):
    """The index of each prime of the spectrum data sd, keyed by the bytes
    of its membership mask, (sd.rows[:, pi] == 0).tobytes()."""
    return {column.tobytes(): pi for pi, column in enumerate((sd.rows == 0).T)}


def skew_spectrum(A):
    """The skew spectrum as a rectangular space plus its point labeling.

    The base consists of the prime ideals in canonical order; the fiber over
    a prime P holds the non-zero classes of the congruence generated by P,
    ordered by least representative; the band multiplies representatives
    with the algebra meet.
    """
    sd = spectrum_data(A)
    return sd.space, sd.points


def basic_copen(A, a):
    """E-points of the basic section attached to an element: one point over
    every prime not containing it.  StructuralError for a non-element."""
    sd = spectrum_data(A)
    return _row_tuples(sd.space, sd.rows[_elements([a], A.n)])[0]


# ---------------------------------------------------------------------------
# Generated ideals, read off the product form
# ---------------------------------------------------------------------------

def _generated(A, subset):
    """The <=-ideal and the ideal that the subset generates, as masks: the x
    whose points each have the row of a point of the subset there and the
    column of one, and the x whose support lies in the union of the subset's
    supports (_order_keys).  StructuralError for a non-element."""
    S = _indices(subset, A.n)
    if S is None:
        raise StructuralError(f"generators are not all elements 0..{A.n - 1}")
    supports, keys = _order_keys(A)
    has = np.zeros((2, A.n), dtype=bool)
    for side, key in zip(has, keys):
        side[key[np.r_[S, A.zero]]] = True
    return ((has[0][keys[0]] & has[1][keys[1]]).all(axis=1),
            (supports & ~np.bitwise_or.reduce(supports[S])) == 0)


def leq_ideal_generated(A, subset):
    """Least set containing the subset that is downward closed for the
    natural partial order and closed under joins, as a sorted tuple: the x
    whose points lie in the rectangles the subset's points span (_generated).
    That set holds the zero and the subset and is closed both ways, as
    x v y takes its row from y and its column from x; and each member is
    the join of its one-digit restrictions, each t v s for restrictions of
    generators s and t."""
    return tuple(np.flatnonzero(_generated(A, subset)[0]).tolist())


def preceq_ideal_generated(A, subset):
    """Least ideal containing the subset: the x whose support lies in the
    union of the subset's supports (_generated).  That set holds the zero
    and the subset and is closed both ways, as supp(x v y) is the union of
    the supports; and each member is the join of its one-digit restrictions,
    each below a generator.  A must be certified (_certified_form)."""
    return Ideal(tuple(np.flatnonzero(_generated(A, subset)[1]).tolist()))
