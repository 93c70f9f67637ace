"""Ideals, prime ideals, the congruences they generate, and the skew spectrum.

A finite "Boolean space" is a finite discrete space, so a skew Boolean space
degenerates to a surjection p : E -> B of finite sets and a copen set is any
subset.  The skew spectrum of an algebra lives over its prime ideals: the
fiber over a prime P consists of the non-zero classes of the congruence
generated by P, and carries a rectangular band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_algebra import (
    MAX_CARRIER,
    SizeCapError,
    StructuralError,
    _certified_form,
    _elements,
    _indices,
    _order_keys,
    as_int,
    as_ints,
    partition_from_labels,
    per_object,
)


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


@dataclass(frozen=True)
class RectSkewSpace:
    """Map p : E -> B of finite sets, with an optional fiberwise band table.

    band[x][y] is meaningful only when p[x] == p[y]; entries across fibers
    are None.  With band omitted this doubles as a plain skew Boolean space.
    """

    size_e: int
    size_b: int
    p: tuple[int, ...]
    band: tuple[tuple[int | None, ...], ...] | None = None

    def __post_init__(self):
        for name, size in (("E", self.size_e), ("B", self.size_b)):
            if isinstance(size, bool):
                raise StructuralError(f"{name} = {size} is not an integer")
        if self.size_b < 0:
            raise StructuralError(f"B = {self.size_b} is negative")
        if self.size_b > max(self.size_e, MAX_CARRIER):
            # such a p cannot be onto: refused before any per-base-point work
            raise SizeCapError(f"B = {self.size_b} is past both E = {self.size_e} and "
                               f"MAX_CARRIER = {MAX_CARRIER}, so p cannot be onto")
        if len(self.p) != self.size_e:
            raise StructuralError(f"p has length {len(self.p)}, expected {self.size_e}")
        for e, b in enumerate(self.p):
            if not (isinstance(b, int) and not isinstance(b, bool) and 0 <= b < self.size_b):
                raise StructuralError(f"p[{e}] = {b!r} out of range")
        if self.band is not None:
            if len(self.band) != self.size_e:
                raise StructuralError("band has wrong number of rows")
            for x, row in enumerate(self.band):
                if len(row) != self.size_e:
                    raise StructuralError(f"band row {x} has wrong length")
                for v in row:
                    if v is not None and not (isinstance(v, int) and not isinstance(v, bool)
                                              and 0 <= v < self.size_e):
                        raise StructuralError(f"band[{x}] contains invalid entry {v!r}")


def make_space(size_e, size_b, p, band=None):
    """Build a RectSkewSpace from plain lists (None entries allowed in band).
    Entries must be integers (TypeError otherwise, also for 2.5, "0" or True)."""
    frozen_band = None
    if band is not None:
        frozen_band = tuple(tuple(None if v is None else as_int(v) for v in row)
                            for row in band)
    return RectSkewSpace(as_int(size_e), as_int(size_b), tuple(as_ints(p)), frozen_band)


def _banded_space(size_b, p, bands):
    """The space p : E -> B whose fiber over b carries bands[b], a table of
    ints on the positions 0..m-1 of that fiber's points in index order.
    This is the one builder that fills a band table cell by cell."""
    size_e = len(p)
    fib = [[] for _ in range(size_b)]
    for e, b in enumerate(p):
        fib[b].append(e)
    band = [[None] * size_e for _ in range(size_e)]
    for f, table in zip(fib, bands):
        for x, row in zip(f, table):
            for y, v in zip(f, row):
                band[x][y] = f[v]
    return make_space(size_e, size_b, p, band)


@per_object
def fibers(sp):
    """E-points of each fiber, in index order, indexed by base point."""
    out = [[] for _ in range(sp.size_b)]
    for e, b in enumerate(sp.p):
        out[b].append(e)
    return tuple(tuple(f) for f in out)


@per_object
def fiber_bands(sp):
    """Each fiber's band as a table on the positions 0..m-1 of its points; a
    plain fiber carries the right band x y = y.  ValueError naming the first
    pair whose product leaves its fiber (validate_space reports it)."""
    out = []
    for b, f in enumerate(fibers(sp)):
        if sp.band is None:
            table = np.tile(np.arange(len(f)), (len(f), 1))
        else:
            pos = {e: i for i, e in enumerate(f)}
            rows = [[pos.get(sp.band[x][y], -1) for y in f] for x in f]
            table = np.array(rows, dtype=np.intp).reshape(len(f), len(f))
            if (table < 0).any():
                i, j = np.argwhere(table < 0)[0].tolist()
                raise ValueError(f"band[{f[i]}][{f[j]}] = {sp.band[f[i]][f[j]]!r} is not "
                                 f"a point of the fiber over {b}")
        table.setflags(write=False)
        out.append(table)
    return tuple(out)


def _row_points(sp, rows):
    """The points of each digit row of sp (0 for no point, 1 + i for the i-th
    point of that fiber), in increasing order and padded at the end with -1."""
    fib = fibers(sp)
    absent = sp.size_e                           # sorts after every point
    lookup = np.array([e for f in fib for e in (absent, *f)], dtype=np.int64)
    starts = np.cumsum([0] + [1 + len(f) for f in fib[:-1]])
    points = np.sort(np.take(lookup, rows + starts), axis=1)
    points[points == absent] = -1
    return points


def _row_tuples(sp, rows):
    """Digit rows in their public form, each as the sorted tuple of its points."""
    counts = np.count_nonzero(rows, axis=1).tolist()
    return tuple(tuple(row[:k]) for row, k in zip(_row_points(sp, rows).tolist(), counts))


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
    for pi, (digits, band) in enumerate(zip(form.digits.T, form.bands)):
        reps = np.argmax(digits[:, None] == np.arange(1, 1 + len(band)), axis=0)   # least x
        primes.append(PrimeIdeal(tuple(np.flatnonzero(digits == 0).tolist()), pi))
        points += (SpectrumPoint(prime=pi, rep=int(r)) for r in reps)
        bands.append((digits[A.meet_table[reps[:, None], reps]] - 1).tolist())
    space = _banded_space(len(primes), [pt.prime for pt in points], bands)
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
