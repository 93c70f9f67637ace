"""Finite skew Boolean algebras with intersections, given by operation tables.

Elements are dense indices 0..n-1.  The four binary operations (meet, join,
relative complement, intersection) are stored as n x n tables, so
``meet_table[x, y]`` is x ^ y.  Everything here is a pure function of
immutable values; results and reported witnesses are deterministic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import wraps

import numpy as np


class StructuralError(ValueError):
    """Malformed carrier data (bad table shape or out-of-range entry)."""


class SizeCapError(RuntimeError):
    """An exhaustive check or search was asked to go past its limit."""


# The limit policy.  validate_algebra certifies a valid algebra at any n;
# only the cubic exhaustive report it gives on an algebra the certificate
# refuses is capped.  EXHAUSTIVE_N is that cap's default, in validate_algebra
# and in the CLI's --max-size.  MAX_CARRIER caps the carriers the builders
# enumerate (sections, partial maps).  Homomorphisms and space morphisms are
# combinations of per-fiber choices, and MAX_CANDIDATES, the default
# max_candidates of enumerate_homs and enumerate_space_morphisms, bounds how
# many combinations are built.  TABLE_N is the most elements an algebra can
# have: INDEX_DTYPE, the one dtype of element indices in operation tables
# and in the labels gathered through them, holds 0..TABLE_N - 1.
EXHAUSTIVE_N = 256
MAX_CARRIER = 4096
MAX_CANDIDATES = 10 ** 6
INDEX_DTYPE = np.int16
TABLE_N = np.iinfo(INDEX_DTYPE).max + 1

_OPS = ("meet", "join", "diff", "cap")


class CongruenceError(ValueError):
    """A partition handed to a quotient is not a congruence; carries a witness."""

    def __init__(self, op_name, witness):
        self.op_name = op_name
        self.witness = witness
        super().__init__(f"not a congruence for {op_name}, witness {witness}")


def per_object(fn):
    """Memoize a one-argument function on its argument.  The result is kept
    in the object's own ``__dict__`` (frozen dataclasses allow that), so it
    is computed once per object and freed together with the object."""
    key = "_memo_" + fn.__name__

    @wraps(fn)
    def memoized(obj):
        try:
            return obj.__dict__[key]
        except KeyError:
            value = obj.__dict__[key] = fn(obj)
            return value

    return memoized


def as_ints(values):
    """values as a list of ints through operator.index, refusing bools too
    (JSON's true and false are not integers here): TypeError for 1.9, "0"
    or True.  A list of plain ints costs one pass at C speed."""
    values = list(values)
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values
    out = list(map(operator.index, values))
    if bool in kinds:
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return out


def as_int(v):
    """as_ints for a single value."""
    return as_ints((v,))[0]


def _indices(values, n):
    """values as an intp array if they are integers in 0..n-1 (as_ints), else None."""
    try:
        m = np.array(as_ints(values), dtype=np.intp)
    except (TypeError, OverflowError):
        return None
    return m if ((m >= 0) & (m < n)).all() else None


def _elements(values, n, what="an element"):
    """_indices, or StructuralError naming the first value not in 0..n-1."""
    index = _indices(values, n)
    if index is None:
        bad = next(v for v in values if _indices([v], n) is None)
        raise StructuralError(f"{bad!r} is not {what} 0..{n - 1}")
    return index


_BOOLS = frozenset((bool, np.bool_))


def _within_table_n(n):
    """SizeCapError if n is past TABLE_N, so no table of n elements is read."""
    if n > TABLE_N:
        raise SizeCapError(f"n = {n} is past TABLE_N = {TABLE_N}: operation tables "
                           f"hold element indices as {np.dtype(INDEX_DTYPE)}")


def _check_table(name, table, n):
    """table as a read-only, C-contiguous int16 n x n array, n at most
    TABLE_N.  Such an array is kept as given and made read-only; anything
    else is copied into one.  The range scan below, one maximum of the
    entries read as unsigned at two bytes or more (a negative entry then
    reads as TABLE_N or more, so n or more), is what puts them in int16's range
    and in range of every gather that reads them.
    A table that is not n x n integers in 0..n-1 raises StructuralError,
    naming its first fault in row order.  Bools are not integers here: an
    array of them is not an integer table, and rows given as lists are
    looked through for them, as an array made of ints and bools is one."""
    listed = not isinstance(table, np.ndarray)
    try:
        T = np.asarray(table)
    except ValueError:                           # ragged rows
        T = None
    if T is not None and T.dtype.kind in "iu" and T.dtype.itemsize == 1:
        T = T.astype(INDEX_DTYPE)                # an int8 -100 would read as 156
    if (T is None or T.shape != (n, n) or T.dtype.kind not in "iu"
            or T.view(T.dtype.str.replace("i", "u")).max() >= n
            or (listed and any(not _BOOLS.isdisjoint(map(type, row)) for row in table))):
        rows = table if listed else table.tolist()
        if len(rows) != n:
            raise StructuralError(f"{name} table has {len(rows)} rows, expected {n}")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise StructuralError(f"{name} table row {i} has length {len(row)}")
            for v in row:
                if not (isinstance(v, int) and 0 <= v < n) or (listed and isinstance(v, bool)):
                    raise StructuralError(f"{name}[{i}] contains invalid entry {v!r}")
        raise StructuralError(f"{name} table is not an integer table")
    T = np.ascontiguousarray(T, dtype=INDEX_DTYPE)
    T.setflags(write=False)
    return T


@dataclass(frozen=True, eq=False)
class SkewAlgebra:
    """Carrier 0..n-1 with designated zero and the four operation tables.

    Each table is a read-only, C-contiguous int16 n x n array, made so on
    construction; n past TABLE_N raises SizeCapError before any table is
    read.  Algebras compare by value: equal n, zero and tables make equal
    algebras, with equal hashes."""

    n: int
    zero: int
    meet_table: np.ndarray
    join_table: np.ndarray
    diff_table: np.ndarray
    cap_table: np.ndarray

    def __post_init__(self):
        if isinstance(self.n, bool):
            raise StructuralError(f"n = {self.n} is not an integer")
        if self.n < 1:
            raise StructuralError("carrier must be non-empty")
        _within_table_n(self.n)
        if isinstance(self.zero, bool) or not (0 <= self.zero < self.n):
            raise StructuralError(f"zero index {self.zero} out of range")
        for name in _OPS:
            object.__setattr__(self, name + "_table",
                               _check_table(name, getattr(self, name + "_table"), self.n))

    def __eq__(self, other):
        if not isinstance(other, SkewAlgebra):
            return NotImplemented
        return self is other or (
            (self.n, self.zero) == (other.n, other.zero)
            and all(np.array_equal(getattr(self, name + "_table"), getattr(other, name + "_table"))
                    for name in _OPS))

    def __hash__(self):
        return hash((self.n, self.zero) + tuple(getattr(self, name + "_table").tobytes()
                                                for name in _OPS))

    def meet(self, x, y):
        return self.meet_table.item(x, y)

    def join(self, x, y):
        return self.join_table.item(x, y)

    def diff(self, x, y):
        return self.diff_table.item(x, y)

    def cap(self, x, y):
        return self.cap_table.item(x, y)

    @property
    def elements(self):
        return range(self.n)


def make_algebra(n, zero, meet, join, diff, cap):
    """Build a SkewAlgebra from list-of-list tables.  Entries must be
    integers (TypeError otherwise, also for 1.9, "0" or True).  n past
    TABLE_N raises SizeCapError before any row is read.  The rows, checked
    here, reach SkewAlgebra as one array per table, so it does not look
    through them for bools again."""
    n = as_int(n)
    _within_table_n(n)

    def as_table(t):
        rows = [as_ints(row) for row in t]
        try:
            return np.array(rows)
        except ValueError:                       # ragged rows: SkewAlgebra names them
            return rows
    return SkewAlgebra(n, as_int(zero), as_table(meet),
                       as_table(join), as_table(diff), as_table(cap))


@dataclass(frozen=True)
class Partition:
    """Partition of 0..n-1; labels are block ids, blocks listed by least element."""

    labels: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def n(self):
        return len(self.labels)


def partition_from_labels(raw_labels):
    """Canonicalize arbitrary hashable labels into a Partition."""
    seen = {}
    labels = tuple(seen.setdefault(lab, len(seen)) for lab in raw_labels)
    blocks = [[] for _ in seen]
    for x, lab in enumerate(labels):
        blocks[lab].append(x)
    return Partition(labels, tuple(map(tuple, blocks)))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an exhaustive law check: witnesses for every violated law."""

    ok: bool
    failures: tuple[tuple[str, tuple[int, ...]], ...]
    warnings: tuple[tuple[str, tuple[int, ...]], ...] = field(default=())


# ---------------------------------------------------------------------------
# Natural orders
# ---------------------------------------------------------------------------

def natural_leq(A, x, y):
    """Natural partial order: x ^ y = y ^ x = x."""
    return A.meet(x, y) == x and A.meet(y, x) == x


def natural_preceq(A, x, y):
    """Natural preorder: x ^ y ^ x = x."""
    return A.meet(A.meet(x, y), x) == x


# The most entries in one block of rows of an n x n array.  Tables are
# built, checked and gathered a block of rows at a time, so that the
# temporaries of each block (an intp index is 512 KiB) stay in cache.
ROW_BLOCK = 2 ** 16


def _take(table, index):
    """np.take(table, index) for an n x n index of entries in range.  take
    gathers faster than fancy indexing, but through an intp copy of its
    index, so it runs one block of rows at a time (_by_row_blocks)."""
    return _by_row_blocks(np.empty(index.shape, dtype=table.dtype),
                          lambda b, out: np.take(table, index[b], out=out, mode="clip"))


def _by_row_blocks(out, fill):
    """out, an n x n array, filled one block b of rows of at most ROW_BLOCK
    entries at a time by fill(b, out[b]).  fill writes its rows in place:
    its gathers take mode="clip", as take buffers out under mode="raise"."""
    n = len(out)
    size = max(1, ROW_BLOCK // n)
    for lo in range(0, n, size):
        fill(slice(lo, lo + size), out[lo:lo + size])
    return out


def _first_bad(mask):
    """First index tuple (C order) where a boolean violation mask is True,
    or None.  A mask with no True entry costs one any()."""
    if not mask.any():
        return None
    return tuple(int(v) for v in np.unravel_index(np.argmax(mask), mask.shape))


def _atoms(M, zero):
    """The atoms of the natural order of the meet table M, as a list: each
    a != zero with no b other than zero and a below it.  The elements below
    each a, b with M[b, a] = b = M[a, b], are counted a block of rows b at
    a time, so no n x n array is made."""
    n = len(M)
    rows = max(1, ROW_BLOCK // n)
    count = np.zeros(n, dtype=np.intp)
    for lo in range(0, n, rows):
        b = np.arange(lo, min(n, lo + rows), dtype=M.dtype)[:, None]
        below = M[lo:lo + rows] == b                 # [b, a]: b ^ a = b
        below &= M[:, lo:lo + rows].T == b           # and a ^ b = b
        count += np.count_nonzero(below, axis=0)
    others = (count - ((M[zero] == zero) & (M[:, zero] == zero))   # [a]: b < a, b != zero
              - (np.diagonal(M) == np.arange(n)))
    return [a for a in np.flatnonzero(others == 0).tolist() if a != zero]


# ---------------------------------------------------------------------------
# A as a product of rectangular bands with a zero adjoined: the certificate
# ---------------------------------------------------------------------------

def _rectangle(T):
    """Decode T, an m x m table on 0..m-1, as a rectangular band, or None if
    T is not one: (row, col, grid), with row and col the row and the column
    of each element as int arrays, rows and columns numbered in the order of
    their first element, and grid[row, col] the element there, grid.shape
    the band's (rows, columns).  In a rectangular band R x C,
    x y = (row(x), col(y)): rows are equal exactly when their first entries
    are, and columns when their first entries are.  So x is placed at the
    row of T[x, 0] among the values of column 0 and the column of T[0, x]
    among those of row 0, and T is a rectangular band exactly when these
    places fill the R x C grid, R C = m, and T[x, y] is the element placed
    at (row(x), col(y)), gathered in the least dtype that holds 0..m-1 for
    the one m x m comparison.  Anything that is not an integer table on
    0..m-1 gives None."""
    m = len(T)
    if m == 0 or T.shape != (m, m) or T.dtype.kind not in "iu" or T.min() < 0 or T.max() >= m:
        return None
    row, col = (np.array(partition_from_labels(keys.tolist()).labels) for keys in (T[:, 0], T[0]))
    shape = (1 + row.max(), 1 + col.max())
    if shape[0] * shape[1] != m:
        return None
    grid = np.full(shape, -1, dtype=np.intp)
    grid[row, col] = np.arange(m)
    if (grid < 0).any() or not np.array_equal(
            T, grid.astype(np.min_scalar_type(m - 1))[row[:, None], col]):
        return None
    for array in (row, col, grid):
        array.setflags(write=False)
    return row, col, grid


@dataclass(frozen=True, eq=False)
class _ProductForm:
    """A read as a product of rectangular bands with a zero adjoined, one
    factor per fiber of atoms, numbered as A's spectrum numbers its primes
    and points (spectrum_data): fibers by the bytes of their supports'
    masks, (digits[:, b] > 0).tobytes(), and each fiber's atoms by the
    least element above them.  rectangles[b] is the band of fiber b, the
    meet on its atoms at their positions 0..m-1, held as its decode
    (_rectangle): band(i, j) is grid[row[i], col[j]].  digits is the
    (n, len(rectangles)) array of each element's digits: 0 where no atom of
    the fiber lies below it, 1 + i where atom i does.  radix and rank are
    the codec of the digit rows: rank[digits[x] @ radix] is x.  refused is
    None when A's tables are, entry for entry, those of the product this
    form describes, and otherwise the name of the check that refused A
    (_certificate); a refused form holds nothing else."""

    rectangles: tuple = ()
    digits: np.ndarray | None = None
    radix: np.ndarray | None = None
    rank: np.ndarray | None = None
    refused: str | None = None


@per_object
def _product_form(A):
    """A's product form, decoded from A's own tables and checked against
    them (validate_algebra's docstring has the argument).  The fibers are
    checked in the order of their first atom and numbered afterwards; the
    order is no part of the argument.  Each fiber's meet table on its atoms
    is made as int16 only for its decode to read.  The check builds no
    product: it reads A's tables in place, a block of rows at a time,
    against digit operations written out here from the decodes
    (_differing_table), and calls nothing that the builder
    (spaces_sections._product_tables) makes tables with, so a fault of the
    builder cannot certify itself: this module imports no other.
    The form is memoized on A and never handed in by a builder, for the
    same reason."""
    n, M, zero = A.n, A.meet_table, A.zero
    atoms = np.array(_atoms(M, zero), dtype=np.intp)
    fibers = []
    if len(atoms):
        meets = M[np.ix_(atoms, atoms)] != zero      # [a, b]: a ^ b is not zero
        first = np.argmax(meets, axis=1)             # the first atom each atom meets
        if not np.array_equal(meets, first[:, None] == first[None, :]):
            return _ProductForm(refused="fibers")
        fibers = [atoms[first == i] for i in np.flatnonzero(first == np.arange(len(atoms)))]
    rectangles, digits = [], np.zeros((n, len(fibers)), dtype=np.int64)
    for b, f in enumerate(fibers):
        below = (M[f] == f[:, None]) & (M[:, f].T == f[:, None])   # [i, x]: atom i <= x
        by_least = np.argsort(np.argmax(below, axis=1), kind="stable")   # least element above
        f, below = f[by_least], below[by_least]
        where = np.full(n, -1, dtype=INDEX_DTYPE)    # a meet that leaves the fiber stays -1
        where[f] = np.arange(len(f))
        rectangle = _rectangle(where[M[np.ix_(f, f)]])
        if rectangle is None:
            return _ProductForm(refused="band")
        rectangles.append(rectangle)
        count = below.sum(axis=0)
        if count.max() > 1:
            return _ProductForm(refused="digits")
        digits[:, b] = np.where(count > 0, np.argmax(below, axis=0) + 1, 0)
    # the fibers in the order of their primes' members (spectrum_data): P_b
    # comes before P_c when the first element in only one of them is in P_b,
    # so the masks of the elements outside them compare as bytes in that order
    order = sorted(range(len(fibers)), key=lambda b: (digits[:, b] > 0).tobytes())
    rectangles = [rectangles[b] for b in order]
    digits = digits[:, order]
    # the codec: distinct codes below prod(1 + m) = n number the product once each
    sizes = [1 + len(row) for row, _, _ in rectangles]
    radix = np.cumprod([1] + sizes)[:-1]
    code = digits @ radix
    rank = np.full(n, -1, dtype=np.int32)
    if math.prod(sizes) == n:
        rank[code] = np.arange(n)
    if (rank < 0).any():
        return _ProductForm(refused="digits")
    if rank[0] != zero:
        return _ProductForm(refused="zero")
    refused = _differing_table(A, rectangles, digits, radix, code)
    if refused is not None:
        return _ProductForm(refused=refused)
    for array in (digits, radix, rank):
        array.setflags(write=False)
    return _ProductForm(tuple(rectangles), digits, radix, rank)


def _differing_table(A, rectangles, digits, radix, code):
    """The first of _OPS whose table in A differs anywhere from the product
    of the bands, given by their decodes (_rectangle), with a zero adjoined
    on these digit rows, or None.  code is digits @ radix, each element's
    mixed-radix code, one to one onto 0..n-1.  The digit operations are
    written out here from their definitions (the builder's docstring,
    spaces_sections._product_tables), with s the left digit and r the
    right, 0 for absent: meet is the band on two present digits and absent
    otherwise; join is the other digit where one is absent and the band
    reversed, band(r, s), on two; diff is s where r is absent; cap is s
    where s = r.  The band is read off its decode padded with an absent row
    and column: the code of band(s, r) at (1 + row(s), 1 + col(r)), and 0
    at row or column 0.  Each row block x of A's table T is checked by the
    forward route: the code of T[x, y] equals the sum over the coordinates
    of the code of the digit operation at (x, y).  The tables are checked
    in _OPS order, each to its first differing block, in buffers of at most
    ROW_BLOCK entries, reused for every block and table."""
    n = len(digits)
    rows = min(n, max(1, ROW_BLOCK // n))
    element_codes = code.astype(INDEX_DTYPE)
    want, term, got = (np.empty((rows, n), dtype=INDEX_DTYPE) for _ in range(3))
    index = np.empty((rows, n), dtype=np.intp)
    differs = np.empty((rows, n), dtype=bool)
    digit_rows = np.ascontiguousarray(digits.T)
    coordinates = []
    for (row, col, grid), column, weight in zip(rectangles, digit_rows, radix.tolist()):
        padded = np.zeros((1 + len(grid), 1 + grid.shape[1]), dtype=INDEX_DTYPE)
        padded[1:, 1:] = (grid + 1) * weight
        codes = (np.arange(1 + len(row))[:, None] * weight).astype(INDEX_DTYPE)   # [s]: s's code
        coordinates.append((padded, [np.concatenate(([0], 1 + key)) for key in (row, col)],
                            column, codes))
    for k, name in enumerate(_OPS):
        T = getattr(A, name + "_table")
        # [s, y]: the code of the digit operation of s and y's digit r, each
        # gathered or made C-ordered, so the takes below copy nothing
        parts = []
        for padded, (row_key, col_key), column, codes in coordinates:
            if k == 0:                   # band(s, r), absent at the padding
                parts.append(padded[row_key[:, None], col_key[column]])
            elif k == 1:                 # band(r, s), and a lone digit kept
                part = padded[row_key[column], col_key[:, None]]
                part += codes * (column == 0)
                part[0] = codes[column, 0]
                parts.append(part)
            else:                        # s where r is absent, s where s = r
                parts.append(codes * (column == 0 if k == 2 else codes == codes[column, 0]))
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            w, t, g, i, d = (buffer[:hi - lo] for buffer in (want, term, got, index, differs))
            w.fill(0)
            for part, column in zip(parts, digit_rows):
                w += np.take(part, column[lo:hi], axis=0, out=t, mode="clip")
            np.copyto(i, T[lo:hi])
            np.take(element_codes, i, out=g, mode="clip")
            if np.not_equal(w, g, out=d).any():
                return name
    return None


def _certified_form(A):
    """A's product form, the one source of A's derived structure.  Whatever
    is read off it holds of A itself: the certificate has compared every
    entry of A's four tables with the product this same form describes, so
    A is that product, in A's own element order.  The certificate is
    complete, so an A it refuses is no skew Boolean algebra with
    intersections, and has no derived structure: ValueError, naming the
    check that refused it (_certificate)."""
    form = _product_form(A)
    if form.refused is not None:
        raise ValueError("not a skew Boolean algebra with intersections "
                         f"(certificate check {form.refused})")
    return form


@per_object
def _order_keys(A):
    """The natural order read off A's product form (_certified_form): x <= y
    exactly when x is y restricted to supp(x), and x is below y in the
    preorder exactly when supp(x) lies in supp(y).  Read-only (supports,
    keys): supports[x] is supp(x) as a bit mask, bit b for fiber b, and
    keys[:, x, b] number the row and the column of x's point at b (the
    band's decode, _rectangle), or its absence, apart from those of other
    fibers, all below n."""
    form = _certified_form(A)
    keys = np.empty((2,) + form.digits.shape, dtype=np.intp)
    start = 0
    for b, (row, col, _) in enumerate(form.rectangles):
        first = np.stack((np.r_[0, row + 1], np.r_[0, col + 1]))
        keys[:, :, b] = start + first[:, form.digits[:, b]]
        start += 1 + len(row)
    supports = (form.digits > 0) @ (1 << np.arange(len(form.rectangles), dtype=np.int64))
    for array in (supports, keys):
        array.setflags(write=False)
    return supports, keys


def _certificate(A):
    """None if A is, table for table, the product of rectangular bands with a
    zero adjoined that its atoms describe (validate_algebra's docstring has
    the argument).  Otherwise the name of the check that refused A: "fibers"
    (meeting is not an equivalence on the atoms), "band" (a fiber's meet
    table is not a rectangular band), "digits" (the atoms below the elements
    do not number the product), or the first of "zero", "meet", "join",
    "diff" and "cap" that differs anywhere from the product."""
    return _product_form(A).refused


def validate_algebra(A, max_n=EXHAUSTIVE_N):
    """Check every axiom, returning all violated laws with witnesses.

    Axioms: idempotency and associativity of meet and join, the four
    absorption identities, both meet-distributivity identities, zero neutral
    for join, the two relative-complement identities, intersection being the
    greatest lower bound for the natural partial order, and intersection
    commutative, associative, idempotent.  Normality of meet and regularity
    of join are implied by the axioms, so violations of those are reported
    as warnings (useful when hunting for which axiom a broken table loses).

    A certificate (``_certificate``) decides, at every n, in about the time
    of building four tables but with none built: it reads A's tables in
    place, a block of rows at a time.  On a finite discrete base the
    section algebra of a rectangular space is the product over the base
    points of the fiber bands, each with a zero adjoined.  The certificate
    reads such a product off A's atoms: two atoms lie in one fiber when
    their meet is not the zero, which must be an equivalence; a fiber's
    band is the meet table on its atoms; an element's digits are the atoms
    below it, at most one per fiber.  It checks that the zero has no digit
    and that each entry of A's four tables has the digits that the
    product's operation, applied digit by digit, gives its operands'.  If
    all five agree, A is valid, and the report is ok with no warnings:

    - Every band is checked to be rectangular, so each factor, a
      rectangular band with a zero adjoined, is a skew Boolean algebra with
      intersections (Leech, "Skew Boolean algebras", Algebra Universalis
      27, 1990), and so is the product.  Every law but the glb law is an
      identity, so it holds coordinatewise.  The natural order of a product
      is coordinatewise, and cap, coordinatewise the greatest lower bound,
      is the greatest lower bound.  Normality and regularity are theorems
      of the axioms (Leech 1990), so there are no warnings.
    - n = prod(1 + |fiber|) and the elements' digits, read as mixed-radix
      codes, are distinct (refused as "digits" otherwise), so they number
      the product's elements once each.  With the five comparisons, A is
      isomorphic to the product.

    Soundness rests on these checks alone; how the fibers and digits were
    read needs no proof.  Completeness: every valid A passes.  It is the
    section algebra of its spectrum, whose atoms are the one-point
    sections, and that is the product read off.

    An algebra the certificate refuses is therefore invalid, and the
    exhaustive check (``_exhaustive_report``) gives its report: failures,
    first witnesses (C order) and warnings.  That check is cubic, so past
    n = max_n it is not run: SizeCapError is raised instead, naming the
    certificate's check that refused A.  Completeness is what makes that
    cap safe: a valid algebra never reaches it, at any n.
    """
    refused = _certificate(A)
    if refused is None:
        return ValidationReport(ok=True, failures=(), warnings=())
    if A.n > max_n:
        raise SizeCapError(f"n={A.n} fails certificate check {refused}; the exhaustive "
                           f"report is capped at n={max_n}")
    return _exhaustive_report(A)


def _exhaustive_report(A):
    """Check every law on every instance, one n x n slice at a time; report
    each violated law with its first witness in C order, and the derived
    laws that fail as warnings."""
    n = A.n
    M, J, D, C = A.meet_table, A.join_table, A.diff_table, A.cap_table
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    failures = []

    def law(name, bad_mask):
        w = _first_bad(bad_mask)
        if w is not None:
            failures.append((name, w))

    def sliced_law(name, slice_mask):
        # one n x n slice per first index keeps memory flat on large carriers
        for x in range(n):
            w = _first_bad(slice_mask(x))
            if w is not None:
                failures.append((name, (x,) + w))
                return

    law("meet_idempotent", np.diagonal(M) != np.arange(n))
    law("join_idempotent", np.diagonal(J) != np.arange(n))
    sliced_law("meet_associative", lambda x: M[M[x]] != M[x][M])
    sliced_law("join_associative", lambda x: J[J[x]] != J[x][J])
    law("absorb_meet_over_join_left", M[rows, J] != rows)
    law("absorb_meet_over_join_right", M[J.T, rows] != rows)
    law("absorb_join_over_meet_left", J[rows, M] != rows)
    law("absorb_join_over_meet_right", J[M.T, rows] != rows)
    sliced_law("meet_distributes_left",
               lambda x: M[x][J] != J[M[x][:, None], M[x][None, :]])
    sliced_law("meet_distributes_right",
               lambda x: M[J, x] != J[M[:, x][:, None], M[:, x][None, :]])
    law("zero_neutral_join", (J[A.zero] != np.arange(n)) | (J[:, A.zero] != np.arange(n)))
    # x ^ y ^ x, indexed by (x, y)
    W = M[M, rows]
    law("complement_meet_zero", M[D, W] != A.zero)
    law("complement_join_restore", J[D, W] != rows)

    leq = (M == rows) & (M.T == rows)                   # [x, y]: x <= y
    law("cap_is_lower_bound", ~(leq[C, rows] & leq[C, cols]))
    leq_t = leq.T
    # premise: z <= x and z <= y; conclusion: z <= x cap y
    sliced_law("cap_is_greatest_lower_bound",
               lambda x: (leq_t[x][None, :] & leq_t) & ~leq_t[C[x]])
    law("cap_commutative", C != C.T)
    sliced_law("cap_associative", lambda x: C[C[x]] != C[x][C])
    law("cap_idempotent", np.diagonal(C) != np.arange(n))

    warnings = []
    # Derived identities.  Normality quantifies over a fourth element, but
    # x^y^z^w = x^z^y^w for every w just says the two triple products have
    # identical meet rows, so classifying equal rows once cuts it to cubic.
    _, row_class = np.unique(M, axis=0, return_inverse=True)
    for x in range(n):
        m3 = M[M[x]]                                    # [y, z] : x^y^z
        w = _first_bad(row_class[m3] != row_class[m3.T])
        if w is not None:
            y, z = w
            u, v = int(m3[y, z]), int(m3[z, y])
            w_first = int(np.nonzero(M[u] != M[v])[0][0])
            warnings.append(("normal_band", (x, y, z, w_first)))
            break
    for a in range(n):
        va = J[J[a], a]                                 # [b] : a v b v a
        lhs = J[J[va], a]                               # [b, c] : a v b v a v c v a
        rhs = J[J[J[a]], a]                             # [b, c] : a v b v c v a
        w = _first_bad(lhs != rhs)
        if w is not None:
            warnings.append(("regular_join_band", (a,) + w))
            break

    return ValidationReport(ok=not failures, failures=tuple(failures),
                            warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# Green's relations and quotients
# ---------------------------------------------------------------------------

def is_congruence(A, part, op_names=("meet", "join", "diff")):
    """Return None if part is a congruence for the named ops, else a witness.

    The witness has the form (op_name, x, x_equiv, y): substituting x_equiv
    for x in one argument slot changes the block of the result.  The ops
    are checked in the order given.  Every element is compared with its
    block's least element in a whole row and a whole column of the table of
    result labels; the witness is the first failing element in (block,
    element) order, its row before its column, and y the first failing
    position.  A congruence costs two comparisons per op: every row with
    its least element's row, then, in the rows of least elements, every
    column with its least element's column.  Only a failing op pays for
    the search of the witness.  A part that does not partition A's elements
    raises StructuralError: its non-empty blocks list A.n elements in all,
    and its A.n labels are each the index of the block that lists it.
    """
    members = _indices([x for block in part.blocks for x in block], A.n)
    listed = np.full(A.n, -1, dtype=np.intp)     # [x]: the block that lists x
    if members is not None and len(members) == A.n and all(part.blocks):
        listed[members] = np.repeat(np.arange(len(part.blocks)), list(map(len, part.blocks)))
    labels = _indices(part.labels, len(part.blocks))
    if labels is None or not np.array_equal(listed, labels):
        raise StructuralError(f"not a partition of the {A.n} elements")
    lab = np.asarray(part.labels, dtype=INDEX_DTYPE)
    reps = np.array([block[0] for block in part.blocks])
    if len(reps) == len(lab):
        return None
    least = np.take(reps, lab)
    for name in op_names:
        LT = _take(lab, getattr(A, name + "_table"))     # [x, y]: block of x . y
        LR = np.take(LT, reps, axis=0)                   # [b, y]: least of block b . y
        row = LT != np.take(LR, lab, axis=0)          # [x, y]: x . y against least(x) . y
        if not row.any() and np.array_equal(LR, np.take(LR, least, axis=1)):
            continue
        col = LT != np.take(LT, least, axis=1)        # [y, x]: y . x against y . least(x)
        row_bad = row.any(axis=1)
        order = [x for block in part.blocks for x in block[1:]]
        bad = (row_bad | col.any(axis=0))[order]
        x = order[int(np.argmax(bad))]
        y = int(np.argmax(row[x] if row_bad[x] else col[:, x]))
        return (name, int(least[x]), x, y)
    return None


@per_object
def green_partitions(A):
    """Green's relations as partitions: (D, L, R).

    x R y iff x^y = y and y^x = x;  x L y iff x^y = x and y^x = y;
    D is the kernel of the poset reflection of the natural preorder.

    A is a product of rectangular bands with a zero adjoined
    (_certified_form), and the relations are read off its digits
    (_order_keys): x is below y in the preorder exactly when y has a digit
    wherever x has one, so D is "same support"; on a common support x^y = y
    exactly when x and y lie in the same row of every band, so R is "same
    support and the same row at every digit", and L the same with columns.
    Meet, join and diff give each digit's presence from the operands'
    supports, its row from their rows and its column from their columns, so
    these are congruences for all three (intersections are not generally
    compatible).
    """
    supports, (rows, cols) = _order_keys(A)
    return tuple(map(partition_from_labels, (supports.tolist(), map(tuple, cols.tolist()),
                                             map(tuple, rows.tolist()))))


def glb_cap_table(n, meet, join):
    """Intersection table computed as greatest lower bounds of the order
    induced by meet, as an int16 array.  Lower bounds of a pair commute, so
    folding them with join, in increasing order, yields the candidate
    maximum, which is then verified.  Each z takes two passes over the
    pairs above it: one folds z into their candidates, one checks that z
    lies below them.  Raises ValueError at the first pair (C order) with no common lower
    bound or no greatest one."""
    M, J = np.asarray(meet), np.asarray(join)
    rows = np.arange(n)[:, None]
    leq = (M == rows) & (M.T == rows)
    above = [np.ix_(up, up) for up in map(np.flatnonzero, leq)]
    cap = np.full((n, n), -1, dtype=INDEX_DTYPE)    # -1: no lower bound yet
    for z, pairs in enumerate(above):
        m = cap[pairs]
        cap[pairs] = np.where(m < 0, z, J[m, z])   # J[-1, z] is read and dropped
    ok = (cap >= 0) & leq[cap, rows] & leq[cap, rows.T]
    for z, pairs in enumerate(above):
        ok[pairs] &= leq[z, cap[pairs]]
    bad = _first_bad(~ok)
    if bad is not None:
        what = "common" if cap[bad] < 0 else "greatest"
        raise ValueError(f"no {what} lower bound for {bad}")
    return cap


def quotient_by(A, part):
    """Quotient algebra by a congruence, with the induced quotient map.

    The partition must be a congruence for meet, join and diff (witness
    raised otherwise).  Block representatives are least indices, and each
    table is one gather of labels at them.  When the partition is also
    compatible with intersections the quotient cap is induced directly;
    otherwise (the Green quotients) the quotient is a skew Boolean algebra
    in its own right and its cap is recomputed as the greatest-lower-bound
    table.  The quotient by Green's D is the commutative reflection A/D.
    """
    bad = is_congruence(A, part)
    if bad is not None:
        raise CongruenceError(bad[0], bad[1:])
    reps = [block[0] for block in part.blocks]
    lab = np.asarray(part.labels, dtype=INDEX_DTYPE)
    meet, join, diff, cap = (lab[getattr(A, name + "_table")[np.ix_(reps, reps)]]
                             for name in _OPS)
    if is_congruence(A, part, op_names=("cap",)) is not None:
        cap = glb_cap_table(len(part.blocks), meet, join)
    return SkewAlgebra(len(part.blocks), part.labels[A.zero], meet, join, diff, cap), part.labels


@per_object
def handedness(A):
    """One of 'commutative', 'right', 'left', 'neither'.  A is a product of
    rectangular bands with a zero adjoined (_certified_form), and the answer
    is read off the band shapes: all 1 x 1 (or no fiber) is commutative,
    all with one row right (x ^ y ^ x = y ^ x), all with one column left
    (x ^ y ^ x = x ^ y), anything else neither."""
    shapes = [grid.shape for _, _, grid in _certified_form(A).rectangles]
    one_row = all(rows == 1 for rows, _ in shapes)
    one_col = all(cols == 1 for _, cols in shapes)
    if one_row and one_col:
        return "commutative"
    return "right" if one_row else "left" if one_col else "neither"


def second_decomposition_check(A):
    """Check that A -> A/R x_{A/D} A/L (canonical map into the pullback of the
    Green quotients) is an isomorphism of skew algebras (Leech 1990).

    On a certified A, R and L are congruences for meet, join and diff
    (green_partitions), so A/R and A/L carry those operations and
    x -> ([x]_R, [x]_L) is a homomorphism for them into A/R x A/L.  Two
    checks then suffice, on Green's relations alone, with no quotient
    algebra, glb table or pullback built:
    - every x lands in the pullback (its R-class and its L-class lie in one
      D-class), and no two elements share an image;
    - the pullback has n pairs: the sum over the D-classes of the number of
      R-classes in it times the number of L-classes in it.
    Then the map is a bijective {meet, join, diff}-homomorphism onto the
    pullback, so an isomorphism for those operations: its inverse preserves
    them too.  The natural order is read off meet, so the map preserves it
    both ways, and carries A's cap, the greatest lower bound, to the
    greatest lower bound of the pullback.  Conversely, if the map is such an
    isomorphism, both checks hold.
    """
    d, l, r = green_partitions(A)
    d_label = np.asarray(d.labels)
    r_label, l_label = np.asarray(r.labels), np.asarray(l.labels)
    r_to_d = d_label[[block[0] for block in r.blocks]]     # the D-class of each R-class
    l_to_d = d_label[[block[0] for block in l.blocks]]
    if not np.array_equal(r_to_d[r_label], l_to_d[l_label]):
        return False
    if len(np.unique(r_label * len(l.blocks) + l_label)) != A.n:
        return False
    r_count, l_count = (np.bincount(to_d, minlength=len(d.blocks)) for to_d in (r_to_d, l_to_d))
    return int(r_count @ l_count) == A.n


# ---------------------------------------------------------------------------
# Subalgebras and mirrors
# ---------------------------------------------------------------------------

def subalgebra_on(A, subset):
    """Restrict A to a subset closed under all operations.

    Returns (algebra, embedding) where embedding[i] is the element of A that
    the i-th subalgebra element came from.  StructuralError naming the first
    member of the subset that is not an element (_elements).
    """
    members = tuple(np.unique(_elements(list(subset), A.n)).tolist())
    if A.zero not in members:
        raise ValueError("subset does not contain zero")
    pos = np.full(A.n, -1, dtype=INDEX_DTYPE)
    pos[list(members)] = np.arange(len(members))
    both = np.ix_(members, members)
    tables = [pos[getattr(A, name + "_table")[both]] for name in _OPS]
    for name, T in zip(_OPS, tables):
        bad = _first_bad(T < 0)
        if bad is not None:
            x, y = (members[i] for i in bad)
            raise ValueError(f"subset not closed under {name} at ({x}, {y})")
    return SkewAlgebra(len(members), int(pos[A.zero]), *tables), members


def mirror(A):
    """Opposite algebra: meet and join arguments swapped.  The natural order
    is unchanged, so diff and cap carry over."""
    return SkewAlgebra(A.n, A.zero, A.meet_table.T, A.join_table.T, A.diff_table, A.cap_table)
