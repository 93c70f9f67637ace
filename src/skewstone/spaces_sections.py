"""Finite skew Boolean spaces: the space, its bands, its checks, its sections.

A finite "Boolean space" is a finite discrete space, so a rectangular skew
Boolean space degenerates to a surjection p : E -> B of finite sets with a
rectangular band on each fiber.  This module holds that object: its type
and its reader (RectSkewSpace, make_space), its fibers and fiber tables,
its bands (product_band, each band an m x m integer table), their
decodes and the search for a failed band law (band_law_witness), its check
(validate_space), the constructions on it (restrict_space, to_space_pair,
from_space_pair), its sections, the one builder of products of bands with
a zero adjoined (_product_algebra) and the algebras it makes, and seeded
instances (random_space).  core_algebra, which certifies an algebra, does
not import this module, so its certificate cannot reach the builder.

A section of p is a subset of E meeting each fiber at most once: one
independent choice per base point, either no point or a point of that
fiber.  All four operations act base point by base point through the fiber
band (a plain space carries the right band, and its sections form a
right-handed algebra; other bands give two-sided ones).  So the section
algebra is the product of tiny per-fiber algebras, and one builder makes it.
Partial maps X -> Y are the sections of X x Y -> X, so the partial-map
algebra with a rectangular band at each point, the ambient algebra of both
constructions, comes out of the same builder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby

import numpy as np

from .core_algebra import (
    INDEX_DTYPE,
    MAX_CARRIER,
    ROW_BLOCK,
    SizeCapError,
    SkewAlgebra,
    StructuralError,
    ValidationReport,
    _certified_form,
    _elements,
    _rectangle,
    as_int,
    as_ints,
    per_object,
)


@dataclass(frozen=True)
class PartialMap:
    """Partial map stored as a sorted domain with aligned values."""

    domain: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.domain) != len(self.values):
            raise ValueError("domain and values must align")
        if any(a >= b for a, b in zip(self.domain, self.domain[1:])):
            raise ValueError("domain must be strictly increasing")

    def __call__(self, x):
        return self.values[self.domain.index(x)]

    def as_dict(self):
        return dict(zip(self.domain, self.values))

    def restrict(self, subset):
        keep = [i for i, x in enumerate(self.domain) if x in subset]
        return PartialMap(tuple(self.domain[i] for i in keep),
                          tuple(self.values[i] for i in keep))

    def graph(self):
        return frozenset(zip(self.domain, self.values))


def partial_map(mapping):
    """PartialMap from a dict."""
    dom = tuple(sorted(mapping))
    return PartialMap(dom, tuple(mapping[x] for x in dom))


# ---------------------------------------------------------------------------
# The space and its fiber tables
# ---------------------------------------------------------------------------

_INT_OR_NONE = frozenset((int, type(None)))


@dataclass(frozen=True, eq=False, init=False)
class RectSkewSpace:
    """Map p : E -> B of finite sets, with an optional fiberwise band.

    The band is kept as one read-only intp table per fiber: tables[b][i, j]
    is the position of the product of the i-th and j-th points of the fiber
    over b, its points taken in index order.  A plain space keeps none
    (tables is None) and is read as carrying the right band x y = y.

    RectSkewSpace(E, B, p, tables=..., stray=...) checks the tables
    (_checked_tables) and keeps them as read-only intp arrays (views where
    they are intp).  make_space reads the band in the E x E form,
    band[x][y] meaningful only when p[x] == p[y] and None across fibers,
    and sp.band gives that form back, made from the tables on its first
    read and kept on the space.  A cell the tables cannot hold, a value
    across fibers, None inside a fiber or a value outside its fiber, is
    invalid input: it is kept in stray, the sorted tuple of such
    (x, y, value), with -1 at its place in its fiber's table.
    validate_space reports these cells, so a space it accepts has none.
    Spaces compare and hash by value.
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
        self.__dict__.update(size_e=size_e, size_b=size_b, p=tuple(p), tables=None,
                             stray=stray)
        if tables is not None:
            self.__dict__["tables"] = _checked_tables(self, tables)

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


def _checked_tables(sp, tables):
    """tables as the fiber tables of sp, read-only intp arrays (views where
    they are intp).  StructuralError naming the fiber unless there are B
    tables, each an m x m integer table, m the size of its fiber, whose
    entries lie in 0..m-1 but for a -1 at a cell that sp.stray lists.  A
    table in range costs one max, of its entries read as unsigned; only one
    past it is looked through, in NumPy, for its first bad entry in C order."""
    if len(tables) != sp.size_b:
        raise StructuralError(f"{len(tables)} band tables for B = {sp.size_b}")
    listed = np.array([x * sp.size_e + y for x, y, _ in sp.stray], dtype=np.int64)
    out = []
    for b, (f, t) in enumerate(zip(fibers(sp), tables)):
        m = len(f)
        try:
            t = np.asarray(t)
        except ValueError:                       # ragged rows
            t = np.empty(0)
        if t.shape != (m, m) or t.dtype.kind not in "iu":
            raise StructuralError(f"band table over {b} is not a {m} x {m} integer table")
        out.append(np.broadcast_to(t.astype(np.intp, copy=False), t.shape))
        if m and out[-1].view(np.uintp).max() >= m:     # a negative entry reads as past m
            i, j = np.nonzero((t < 0) | (t >= m))
            bad = (t[i, j] != -1) | ~np.isin(np.take(f, i) * sp.size_e + np.take(f, j), listed)
            if bad.any():
                raise StructuralError(f"band table over {b} has entry {t[i, j][bad][0]} "
                                      f"outside 0..{m - 1}")
    return tuple(out)


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


@per_object
def _fiber_rectangles(sp):
    """The decode (_rectangle) of each fiber band of sp, None for a band
    that is not rectangular, made once per space."""
    return tuple(map(_rectangle, fiber_bands(sp)))


def _rectangular(sp):
    """_fiber_rectangles(sp); ValueError if a band is not rectangular."""
    if any(rect is None for rect in _fiber_rectangles(sp)):
        raise ValueError("a fiber band is not a rectangular band")
    return _fiber_rectangles(sp)


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


# ---------------------------------------------------------------------------
# Bands
# ---------------------------------------------------------------------------

def right_band(m):
    """The right band x y = y on m points."""
    return product_band(m, 1)


def left_band(m):
    """The left band x y = x on m points."""
    return product_band(1, m)


def product_band(k_left, k_right):
    """Rectangular band on k_left * k_right points with k_left classes of the
    Green L relation and k_right classes of R, as a read-only m x m intp
    table.  Point r * k_left + l has coordinates (r, l); the operation keeps
    r from the left operand and l from the right one."""
    e = np.arange(k_left * k_right)
    table = (e // k_left * k_left)[:, None] + e % k_left
    return np.broadcast_to(table, table.shape)     # a read-only view


def band_law_witness(table):
    """First violated rectangular-band law, or None: idempotency,
    associativity, and the rectangle identity x ^ y ^ z = x ^ z.  A table
    that decodes as a rectangle (_rectangle) has none; only one that does
    not pays for the search of the first witness over m^3 triples."""
    try:
        T = np.asarray(table)
    except ValueError:                           # ragged rows
        T = np.empty(0)
    if _rectangle(T) is not None:
        return None
    m = len(table)
    for x in range(m):
        if table[x][x] != x:
            return ("band_idempotent", (x,))
    for x in range(m):
        for y in range(m):
            for z in range(m):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return ("band_associative", (x, y, z))
                if table[table[x][y]][z] != table[x][z]:
                    return ("band_rectangular", (x, y, z))
    return None


# ---------------------------------------------------------------------------
# Products of bands with a zero adjoined: the one builder
# ---------------------------------------------------------------------------

def _product_algebra(bands, digits, radix, rank):
    """Algebra of independent choices, one per coordinate: nothing, or a
    point of that coordinate's rectangular band.  bands[b] is the band of
    coordinate b as a table on 0..m-1.  digits is an (n, k) integer array:
    digits[x, b] is 0 if element x has no point at coordinate b and 1 + i
    if it has point i.  radix and rank are the caller's codec of the digit
    rows, which number the product's prod(1 + m) elements once each:
    rank[digits[x] @ radix] is x, radix the mixed radix of the sizes 1 + m.
    So the caller's element x stays element x, and rank[0] is the zero."""
    return SkewAlgebra(len(digits), int(rank[0]), *_product_tables(bands, digits, radix, rank))


def _product_tables(bands, digits, radix, rank):
    """The four tables of _product_algebra(bands, digits, radix, rank) as
    one read-only (4, n, n) int16 block of C-contiguous tables: meet, join,
    diff and cap.

    Every operation acts digitwise; with s the left operand and r the right:
    meet is band(s, r) where both are present, join keeps a lone point and
    combines two as band(r, s), diff keeps s where r is absent, and cap
    keeps s where the two agree.  The part of an operation at a coordinate
    is the (1 + m) x n array of the mixed-radix codes of that operation on
    each digit s and each element's digit there, gathered from the band's
    codes (meet and join) or written from the digits (diff and cap).  A
    table row is the sum over the coordinates of the part's row at the
    row's digit, renumbered by rank into the caller's order.  The codes lie
    below n, so they are int16 like the tables.  Rows are made in blocks of
    at most ROW_BLOCK entries straight into the block, so besides it a call
    holds two such blocks, each band's codes as an m x m int16 array, and
    the parts of one table at a time.
    """
    n = len(digits)
    rank = np.asarray(rank, dtype=INDEX_DTYPE)
    # per coordinate: the codes of band(s, r) as int16, the digits, the
    # present digits less one, and the code of each digit s
    coordinates = [((np.array(band, dtype=INDEX_DTYPE) + 1) * weight,
                    column, column[column > 0] - 1, np.arange(1 + len(band)) * weight)
                   for band, column, weight in zip(bands, digits.T, radix.tolist())]
    tables = np.empty((4, n, n), dtype=INDEX_DTYPE)
    rows = max(1, ROW_BLOCK // n)
    # two block buffers, made once: malloc maps a fresh 128 KiB block anew
    code_buffer, term_buffer = (np.empty((min(rows, n), n), dtype=INDEX_DTYPE) for _ in range(2))
    for k, out in enumerate(tables):
        # per coordinate, the code each digit s of a row gives each column y;
        # the gathers refuse a digit past its band, so the clip takes stay in range
        parts = []
        for coded, column, at, codes in coordinates:
            part = np.zeros((len(codes), n), dtype=INDEX_DTYPE)
            if k in (0, 1):              # meet: band(s, r), join: band(r, s), on two points
                part[1:, column > 0] = (coded, coded.T)[k][:, at]
            if k in (1, 2):              # join and diff: s where r is absent
                part[:, column == 0] = codes[:, None]
            if k in (1, 3):              # join: r where s is absent; cap: s where s = r
                part[0 if k == 1 else column, np.arange(n)] = codes[column]
            parts.append(part)
        for start in range(0, n, rows):
            block = digits[start:start + rows]
            code, term = code_buffer[:len(block)], term_buffer[:len(block)]
            code.fill(0)
            for part, d in zip(parts, block.T):
                code += np.take(part, d, axis=0, out=term, mode="clip")
            np.take(rank, code, out=out[start:start + rows], mode="clip")
    tables.setflags(write=False)
    return tables


# ---------------------------------------------------------------------------
# Space validation and sections
# ---------------------------------------------------------------------------

def validate_space(sp):
    """Check surjectivity and, when a band is present, that it is defined on
    exactly the fiber-diagonal pairs, stays inside fibers, and makes every
    fiber a rectangular band.  The cells that break the first two are the
    space's stray cells (RectSkewSpace), in C order: a value inside a fiber
    that lies outside it fails band_in_fiber, any other
    band_defined_iff_same_fiber.  Each band is decoded once, in the space's
    memo (_fiber_rectangles); only one that does not decode is searched for
    its first failed law (band_law_witness)."""
    failures = [("p_surjective", (b,)) for b, f in enumerate(fibers(sp)) if not f]
    failures += [("band_in_fiber" if v is not None and sp.p[x] == sp.p[y]
                  else "band_defined_iff_same_fiber", (x, y)) for x, y, v in sp.stray]
    if sp.tables is not None and not failures:
        for f, band, rect in zip(fibers(sp), fiber_bands(sp), _fiber_rectangles(sp)):
            if rect is None:
                law, witness = band_law_witness(band)
                failures.append((law, tuple(f[i] for i in witness)))
    return ValidationReport(ok=not failures, failures=tuple(failures))


def _mixed_rows(sizes, what):
    """Every digit row with digit b in 0..sizes[b]-1, in mixed-radix order
    (the first digit turns fastest), and the radix: rows @ radix is each
    row's index.  SizeCapError past MAX_CARRIER rows."""
    n = 1
    for size in sizes:
        n *= size
        if n > MAX_CARRIER:
            raise SizeCapError(f"more than {MAX_CARRIER} {what}")
    radix = np.cumprod([1] + sizes, dtype=np.int64)[:-1]
    return np.arange(n)[:, None] // radix % np.array(sizes, dtype=np.int64), radix


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


@per_object
def _section_rows(sp):
    """The sections of sp as (rows, radix, rank, digit): rows[k, b] is 0 if
    section k has no point over b, 1 + i if it has the i-th point of that
    fiber, and digit[e] is that 1 + i for the point e.  rank[rows[k] @ radix]
    is k.  Labels follow the lexicographic order of the sorted point tuples,
    one lexsort of the rows' points padded with -1 (a tuple comes before the
    longer ones it begins).  SizeCapError past MAX_CARRIER sections."""
    mixed, radix = _mixed_rows([1 + len(f) for f in fibers(sp)], "sections")
    order = np.lexsort(_row_points(sp, mixed).T[::-1]) if sp.size_b else np.arange(1)
    rank = np.empty(len(mixed), dtype=np.intp)
    rank[order] = np.arange(len(mixed))
    digit = np.zeros(sp.size_e, dtype=np.int64)
    for f in fibers(sp):
        digit[list(f)] = np.arange(1, 1 + len(f))
    out = mixed[order], radix, rank, digit
    for array in out:
        array.setflags(write=False)
    return out


def enumerate_sections(sp):
    """All sections as canonical sorted tuples, in lexicographic order: there
    are prod_b (1 + |fiber(b)|) of them, at most MAX_CARRIER."""
    return _row_tuples(sp, _section_rows(sp)[0])


@per_object
def dual_algebra(sp):
    """Section algebra of a space, through its fiber bands (the right band on
    a plain space).  Returns the algebra and the section labels: element i
    is labels[i], in lexicographic order, so element 0 is the empty section.
    """
    rows, radix, rank, _ = _section_rows(sp)
    return _product_algebra(fiber_bands(sp), rows, radix, rank), _row_tuples(sp, rows)


def reflection_check(sp):
    """Verify that taking base images is the lattice reflection of the section
    algebra: a surjective {0, meet, join}-map onto the subsets of B whose
    kernel is the Green D relation, with the preorder matching image
    inclusion.  Base images are bit sets, bit b for base point b; they cover
    the subsets of B only when 2^|B| <= n <= MAX_CARRIER, so they fit in an
    int64.  D is "same support" and the preorder is support inclusion
    (_certified_form), so the last two conditions make support to image an
    order isomorphism of subset lattices: image = sigma(support), sigma a
    bijection of fibers onto base points read off the atoms.  Supports come
    from the algebra's tables, images from the space.  A section algebra the
    certificate refuses raises its ValueError first.

    Meet and join need no pass over the tables.  The certificate has
    compared A's tables with the product of its form, where a meet
    has a digit where both arguments have one and a join where either has:
    supp(x ^ y) = supp x & supp y and supp(x v y) = supp x | supp y.  With
    img = sigma(supp) and sigma one to one onto single bits,
    img(x ^ y) = img x & img y and img(x v y) = img x | img y."""
    A, _ = dual_algebra(sp)
    supp = _certified_form(A).digits > 0
    if A.n < 1 << sp.size_b:
        return False
    img = (_section_rows(sp)[0] > 0) @ (1 << np.arange(sp.size_b, dtype=np.int64))
    if not np.array_equal(np.unique(img), np.arange(1 << sp.size_b)) or img[A.zero] != 0:
        return False
    atoms = supp.sum(axis=1) == 1
    sigma = np.zeros(supp.shape[1], dtype=np.int64)
    sigma[np.nonzero(supp[atoms])[1]] = img[atoms]
    return (sorted(sigma.tolist()) == [1 << b for b in range(sp.size_b)]
            and np.array_equal(supp @ sigma, img))


# ---------------------------------------------------------------------------
# Constructions on spaces: subspaces, and rectangular spaces versus pairs of
# plain spaces
# ---------------------------------------------------------------------------

def restrict_space(sp, e_subset, b_subset):
    """Subspace on the given points with reindexed projection and band.  A
    value of e_subset that is no point of sp, or then of b_subset that is
    no base point, raises StructuralError naming the first (_elements), and
    a kept point over a base point that is not kept ValueError naming the
    first such point.  A product of kept points that is not kept is -1 in
    its table, so points not closed under a fiber's band are refused by the
    constructor (StructuralError, a ValueError, naming the fiber's new
    index)."""
    e_list = tuple(np.unique(_elements(list(e_subset), sp.size_e, "a point")).tolist())
    b_list = tuple(np.unique(_elements(list(b_subset), sp.size_b, "a base point")).tolist())
    b_pos = {b: i for i, b in enumerate(b_list)}
    dropped = next((e for e in e_list if sp.p[e] not in b_pos), None)
    if dropped is not None:
        raise ValueError(f"point {dropped} lies over base point {sp.p[dropped]}, "
                         "which is not kept")
    p = [b_pos[sp.p[e]] for e in e_list]
    if sp.tables is None:
        return make_space(len(e_list), len(b_list), p), e_list, b_list
    kept, tables = set(e_list), []
    for b in b_list:
        keep = [i for i, e in enumerate(fibers(sp)[b]) if e in kept]
        renumber = np.full(len(fibers(sp)[b]), -1)
        renumber[keep] = np.arange(len(keep))
        tables.append(renumber[fiber_bands(sp)[b][np.ix_(keep, keep)]])
    return RectSkewSpace(len(p), len(b_list), p, tables=tables), e_list, b_list


def to_space_pair(sp):
    """Split a rectangular space into (R-quotient, L-quotient) over the same
    base, the fiberwise coequalizers of the band's Green relations.  With a
    right band R is the full fiber relation and L is equality, so the first
    component collapses onto the base and the second keeps the total space."""
    if sp.tables is None:
        raise ValueError("pair decomposition needs a band")
    shapes = [grid.shape for _, _, grid in _rectangular(sp)]

    def quotient(side):
        p_q = [b for b, shape in enumerate(shapes) for _ in range(shape[side])]
        return make_space(len(p_q), sp.size_b, p_q)

    return quotient(0), quotient(1)


def from_space_pair(left, right):
    """Fiber product of two plain spaces over their common base, with the
    grid band (u1, v1) ^ (u2, v2) = (u1, v2): the point (u, v) of a fiber
    sits at u * |V| + v, and that is product_band(|V|, |U|)."""
    if left.size_b != right.size_b:
        raise ValueError("pair components have different bases")
    if left.tables is not None or right.tables is not None:
        raise ValueError("pair components must be plain spaces")
    shapes = [(len(u), len(v)) for u, v in zip(fibers(left), fibers(right))]
    p = [b for b, (u, v) in enumerate(shapes) for _ in range(u * v)]
    return RectSkewSpace(len(p), left.size_b, p, tables=[product_band(v, u) for u, v in shapes])


# ---------------------------------------------------------------------------
# Partial-map algebras
# ---------------------------------------------------------------------------

def partial_map_algebra(x_size, y_size, band):
    """Skew algebra on all partial maps X -> Y, with a band on the values
    applied pointwise on overlaps: band is one m x m table for every point,
    or a sequence of x_size of them, bands[x] at the point x.
    f ^ g = f|c sand g|c on c = dom f & dom g,
    f v g = f|(F-G) | g|(G-F) | (g ^ f),
    f \\ g = f|(F-G), and cap is graph intersection.
    These are the sections of X x Y -> X with bands[x] on the fiber over x,
    so the algebra is built as one, on the mixed-radix digit rows (0 where
    a map is undefined, 1 + f(x) where it is defined), and the labels are
    sorted by (domain, values): one lexsort of the rows' domains and values,
    each padded with -1 (a tuple comes before the longer ones it begins).
    A pointwise lift commutes with restrictions by construction, so the
    family is coherent, and a coherent family is pointwise: at each x it
    applies the table it gives on the maps defined at x alone.  The bands
    are those of the space X x Y -> X, its point (x, y) numbered
    x * y_size + y, so its constructor refuses a band that is not a
    y_size x y_size integer table on 0..y_size-1 (StructuralError naming
    the point x); the band laws themselves are checked here.  A count of
    maps past MAX_CARRIER, known from the sizes, is refused before that
    space is built.
    """
    single = np.ndim(band[:1]) == 2              # the first row of one table
    if not single and len(band) != x_size:
        raise ValueError(f"{len(band)} bands for {x_size} points")
    rows, radix = _mixed_rows([1 + y_size] * x_size, "partial maps")
    p = [x for x in range(x_size) for _ in range(y_size)]
    space = RectSkewSpace(len(p), x_size, p, tables=[band] * x_size if single else band)
    for b in fiber_bands(space):
        bad = band_law_witness(b)
        if bad is not None:
            raise ValueError(f"not a rectangular band: {bad[0]} at {bad[1]}")
    defined = np.argsort(rows == 0, axis=1, kind="stable")   # the domain first
    values = np.take_along_axis(rows, defined, axis=1) - 1
    present = values >= 0
    domains = np.where(present, defined, -1)
    order = np.lexsort(np.concatenate((domains, values), axis=1).T[::-1]) if x_size else [0]
    rank = np.empty(len(rows), dtype=np.intp)
    rank[order] = np.arange(len(rows))
    labels = tuple(PartialMap(tuple(d[:k]), tuple(v[:k])) for d, v, k in zip(
        domains[order].tolist(), values[order].tolist(), present[order].sum(axis=1).tolist()))
    return _product_algebra(fiber_bands(space), rows[order], radix, rank), labels


# ---------------------------------------------------------------------------
# Instance generator
# ---------------------------------------------------------------------------

def random_space(size_b, max_fiber, seed, band="none"):
    """Deterministic pseudorandom surjection with optional fiber band.

    band is one of "none", "right", "left", or ("product", k_left, k_right);
    product bands fix every fiber to the k_left * k_right grid (max_fiber is
    ignored in that case).  Every band is made as product_band's table, an
    m x m intp array: a right fiber of m points is the m x 1 grid, a left
    one the 1 x m grid.  A max_fiber, k_left or k_right below 1 raises
    ValueError.  Identical arguments give identical spaces.
    """
    rng = random.Random(seed)
    if isinstance(band, tuple):
        kind, k_left, k_right = band
        if kind != "product":
            raise ValueError(f"unknown band kind {band!r}")
        for name, k in (("k_left", k_left), ("k_right", k_right)):
            if k < 1:
                raise ValueError(f"{name} must be at least 1, got {k}")
        sizes = [k_left * k_right] * size_b
        tables = [product_band(k_left, k_right)] * size_b
    else:
        if band not in ("none", "right", "left"):
            raise ValueError(f"unknown band kind {band!r}")
        if max_fiber < 1:
            raise ValueError(f"max_fiber must be at least 1, got {max_fiber}")
        sizes = [rng.randint(1, max_fiber) for _ in range(size_b)]
        tables = [(right_band if band == "right" else left_band)(s)
                  for s in sizes if band != "none"]
    p = [b for b, s in enumerate(sizes) for _ in range(s)]
    rng.shuffle(p)
    return RectSkewSpace(len(p), size_b, p, tables=None if band == "none" else tables)
