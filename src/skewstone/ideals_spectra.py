"""Ideals, prime ideals, the congruences they generate, and the skew spectrum.

A finite "Boolean space" is a finite discrete space, so a skew Boolean space
degenerates to a surjection p : E -> B of finite sets and a copen set is any
subset.  The skew spectrum of an algebra lives over its prime ideals: the
fiber over a prime P consists of the non-zero classes of the congruence
generated by P, and carries a rectangular band.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby

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


_INT_OR_NONE = frozenset((int, type(None)))


@dataclass(frozen=True, eq=False, init=False)
class RectSkewSpace:
    """Map p : E -> B of finite sets, with an optional fiberwise band.

    The band is kept as one read-only intp table per fiber: tables[b][i, j]
    is the position of the product of the i-th and j-th points of the fiber
    over b, its points taken in index order.  A plain space keeps none
    (tables is None) and is read as carrying the right band x y = y.

    RectSkewSpace(E, B, p, tables=..., stray=...) takes the tables as they
    are, kept as read-only intp arrays (views where they are intp).
    make_space reads the band in the E x E form, band[x][y] meaningful only
    when p[x] == p[y] and None across fibers, and sp.band gives that form
    back, made from the tables on its first read and kept on the space.  A
    cell the tables cannot hold, a value across fibers, None inside a fiber
    or a value outside its fiber, is invalid input: it is kept in stray, the
    sorted tuple of such (x, y, value), with -1 at its place in its fiber's
    table.  validate_space reports these cells, so a space it accepts has
    none.  Spaces compare and hash by value.
    """

    size_e: int
    size_b: int
    p: tuple[int, ...]
    tables: tuple[np.ndarray, ...] | None
    stray: tuple[tuple[int, int, int | None], ...]

    def __init__(self, size_e, size_b, p, *, tables=None, stray=()):
        for name, size in (("E", size_e), ("B", size_b)):
            if isinstance(size, bool):
                raise StructuralError(f"{name} = {size} is not an integer")
        if size_b < 0:
            raise StructuralError(f"B = {size_b} is negative")
        if size_b > max(size_e, MAX_CARRIER):
            # such a p cannot be onto: refused before any per-base-point work
            raise SizeCapError(f"B = {size_b} is past both E = {size_e} and "
                               f"MAX_CARRIER = {MAX_CARRIER}, so p cannot be onto")
        if len(p) != size_e:
            raise StructuralError(f"p has length {len(p)}, expected {size_e}")
        for e, b in enumerate(p):
            if not (isinstance(b, int) and not isinstance(b, bool) and 0 <= b < size_b):
                raise StructuralError(f"p[{e}] = {b!r} out of range")
        if tables is not None:
            tables = tuple(np.broadcast_to(np.asarray(t, dtype=np.intp), np.shape(t))
                           for t in tables)
        self.__dict__.update(size_e=size_e, size_b=size_b, p=tuple(p), tables=tables,
                             stray=stray)

    @cached_property
    def band(self):
        """The E x E form: the rows of _band_rows as tuples, None for -1."""
        if self.tables is not None:
            return tuple(tuple(None if v < 0 else v for v in row.tolist())
                         for row in _band_rows(self))

    def __eq__(self, other):
        key = lambda sp: (sp.size_e, sp.size_b, sp.p, sp.stray, sp.tables is None)
        same = isinstance(other, RectSkewSpace) and key(self) == key(other)
        return self is other or same and all(
            map(np.array_equal, self.tables or (), other.tables or ()))

    def __hash__(self):
        return hash((self.size_e, self.size_b, self.p, self.stray))


def make_space(size_e, size_b, p, band=None):
    """Build a RectSkewSpace from plain lists (None entries allowed in band).
    Entries must be integers (TypeError otherwise, also for 2.5, "0" or True):
    a band row holding anything but ints and None is converted entry by entry."""
    if band is not None:
        band = [row if isinstance(row, (list, tuple)) and _INT_OR_NONE.issuperset(map(type, row))
                else [None if v is None else as_int(v) for v in row] for row in band]
    sp = RectSkewSpace(as_int(size_e), as_int(size_b), tuple(as_ints(p)))
    return sp if band is None else _read_band(sp, band)


def _read_band(sp, band):
    """The space sp with the fiber tables and stray cells of band, E x E
    rows of ints and None (make_space), as a new space.  Each row is checked
    in order for its length and the range of its entries, a pass at C speed
    per check; only a row that fails one is looked through for its first
    invalid entry, so StructuralError names the first fault in row order.
    The cells are then read in NumPy, and each fiber's table is one gather
    of positions."""
    if len(band) != sp.size_e:
        raise StructuralError("band has wrong number of rows")
    allowed = {None, *range(sp.size_e)}
    for x, row in enumerate(band):
        if len(row) != sp.size_e:
            raise StructuralError(f"band row {x} has wrong length")
        if not allowed.issuperset(row):
            bad = next(v for v in row if v not in allowed)
            raise StructuralError(f"band[{x}] contains invalid entry {bad!r}")
    try:
        cells = np.fromiter(chain.from_iterable(band), dtype=np.intp).reshape(sp.size_e, sp.size_e)
    except TypeError:                            # a None, read as -1
        cells = np.fromiter(chain.from_iterable(band), dtype=object).reshape(sp.size_e, sp.size_e)
        cells = np.where(np.equal(cells, None), -1, cells).astype(np.intp)
    stray, tables = cells >= 0, []
    for f in map(list, fibers(sp)):
        where = np.full(sp.size_e + 1, -1, dtype=np.intp)     # where[-1] reads a None
        where[f] = np.arange(len(f))
        # on a space of one fiber the positions are the points: cells is the table
        tables.append(cells if len(f) == sp.size_e else where[cells[np.ix_(f, f)]])
        stray[np.ix_(f, f)] = tables[-1] < 0
    x, y = np.nonzero(stray)
    values = [None if v < 0 else v for v in cells[x, y].tolist()]
    return RectSkewSpace(sp.size_e, sp.size_b, sp.p, tables=tables,
                         stray=tuple(zip(x.tolist(), y.tolist(), values)))


@per_object
def fibers(sp):
    """E-points of each fiber, in index order, indexed by base point."""
    out = [[] for _ in range(sp.size_b)]
    for e, b in enumerate(sp.p):
        out[b].append(e)
    return tuple(tuple(f) for f in out)


@per_object
def fiber_bands(sp):
    """Each fiber's band as a read-only table on the positions 0..m-1 of its
    points: the space's own tables, or for a plain fiber a broadcast view of
    the right band x y = y.  ValueError naming the first pair, by fiber and
    then in C order, whose product is None or leaves its fiber (a stray cell
    inside a fiber; validate_space reports it)."""
    if sp.tables is None:
        return tuple(np.broadcast_to(np.arange(len(f)), (len(f), len(f))) for f in fibers(sp))
    bad = min(((sp.p[x], x, y, v) for x, y, v in sp.stray if sp.p[x] == sp.p[y]), default=None)
    if bad:
        raise ValueError("band[{1}][{2}] = {3!r} is not a point of the fiber over {0}"
                         .format(*bad))
    return sp.tables


def _band_rows(sp):
    """The rows of sp.band, one intp array at a time with -1 for None, made
    from the fiber tables and the stray cells: the one writer of the E x E
    form (sp.band, and the JSON writer, which streams them)."""
    fib = [np.array(f, dtype=np.intp) for f in fibers(sp)]
    stray = {x: list(cells) for x, cells in groupby(sp.stray, lambda cell: cell[0])}
    for x, f in enumerate(fib[b] for b in sp.p):
        row = np.full(sp.size_e, -1, dtype=np.intp)
        row[f] = f[sp.tables[sp.p[x]][np.searchsorted(f, x)]]
        for _, y, v in stray.get(x, ()):
            row[y] = -1 if v is None else v
        yield row


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
