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


# The limit policy.  validate_algebra proves a valid algebra at any n; only
# the cubic exhaustive report it falls back on, when a step of that proof
# fails, is capped.  EXHAUSTIVE_N is that cap's default, in validate_algebra
# and in the CLI's --max-size.  MAX_CARRIER caps the carriers the builders
# enumerate (sections, partial maps).  Homomorphisms are read off the space
# morphisms between the spectra, and that search counts its own work:
# MAX_CANDIDATES, the default max_candidates of enumerate_homs and
# enumerate_space_morphisms, counts every partial base map and every
# combination of fiber maps it tries.
EXHAUSTIVE_N = 256
MAX_CARRIER = 4096
MAX_CANDIDATES = 10 ** 6

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


def _check_table(name, table, n):
    """table as a read-only, C-contiguous int32 n x n array.  Such an array
    is kept as given and made read-only; anything else is copied into one.
    A table that is not n x n integers in 0..n-1 raises StructuralError,
    naming its first fault in row order."""
    try:
        T = np.asarray(table)
    except ValueError:                           # ragged rows
        T = None
    if (T is None or T.shape != (n, n) or T.dtype.kind not in "biu"
            or T.min() < 0 or T.max() >= n):
        rows = table.tolist() if isinstance(table, np.ndarray) else table
        if len(rows) != n:
            raise StructuralError(f"{name} table has {len(rows)} rows, expected {n}")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise StructuralError(f"{name} table row {i} has length {len(row)}")
            for v in row:
                if not (isinstance(v, int) and 0 <= v < n):
                    raise StructuralError(f"{name}[{i}] contains invalid entry {v!r}")
        raise StructuralError(f"{name} table is not an integer table")
    T = np.ascontiguousarray(T, dtype=np.int32)
    T.setflags(write=False)
    return T


@dataclass(frozen=True, eq=False)
class SkewAlgebra:
    """Carrier 0..n-1 with designated zero and the four operation tables.

    Each table is a read-only, C-contiguous int32 n x n array, made so on
    construction.  Algebras compare by value: equal n, zero and tables make
    equal algebras, with equal hashes."""

    n: int
    zero: int
    meet_table: np.ndarray
    join_table: np.ndarray
    diff_table: np.ndarray
    cap_table: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError("carrier must be non-empty")
        if not (0 <= self.zero < self.n):
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
    integers (TypeError otherwise, also for 1.9 or "0")."""
    as_rows = lambda t: [[operator.index(v) for v in row] for row in t]
    return SkewAlgebra(operator.index(n), operator.index(zero), as_rows(meet),
                       as_rows(join), as_rows(diff), as_rows(cap))


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
    labels = []
    for lab in raw_labels:
        if lab not in seen:
            seen[lab] = len(seen)
        labels.append(seen[lab])
    blocks = [[] for _ in range(len(seen))]
    for x, lab in enumerate(labels):
        blocks[lab].append(x)
    return Partition(tuple(labels), tuple(tuple(b) for b in blocks))


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


def _take(table, index):
    """np.take(table, index) for an n x n index.  take gathers faster than
    fancy indexing, but through an intp copy of its index, so it runs one
    block of rows at a time (_by_row_blocks)."""
    return _by_row_blocks(len(index), table.dtype, lambda b: np.take(table, index[b]))


def _gather(T, i, j):
    """T[i, j] for index arrays i and j that broadcast to n x n, as flat
    gathers: T[i, j] is T.ravel()[i * n + j], made and gathered one block
    of rows at a time (_by_row_blocks)."""
    n = T.shape[1]
    w = n if n * n < 2**31 else np.int64(n)
    part = lambda a, b: a[b] if a.ndim == 2 else a      # a row vector serves every row
    return _by_row_blocks(n, T.dtype, lambda b: np.take(T.ravel(), part(i, b) * w + part(j, b)))


def _by_row_blocks(n, dtype, make_rows):
    """The n x n array whose rows b are make_rows(b), made one block of rows
    at a time, so that a block's intp index stays near n x n bytes.  A
    single block is returned as made."""
    blocks = _row_blocks(n, 8 * n)
    if len(blocks) == 1:
        return make_rows(blocks[0])
    out = np.empty((n, n), dtype=dtype)
    for b in blocks:
        out[b] = make_rows(b)
    return out


@per_object
def leq_matrix(A):
    """leq[x, y] is natural_leq(A, x, y): the natural partial order as a
    read-only boolean array, the one every module reads."""
    M = A.meet_table
    rows = np.arange(A.n)[:, None]
    leq = (M == rows) & (M.T == rows)
    leq.setflags(write=False)
    return leq


@per_object
def preceq_matrix(A):
    """pre[x, y] is natural_preceq(A, x, y): the natural preorder as a
    read-only boolean array.  Green's relations, the prime ideals and their
    congruences all read it."""
    M = A.meet_table
    rows = np.arange(A.n)[:, None]
    pre = _gather(M, M, rows) == rows
    pre.setflags(write=False)
    return pre


def _first_bad(mask):
    """First index tuple (C order) where a boolean violation mask is True,
    or None.  A mask with no True entry costs one any()."""
    if not mask.any():
        return None
    return tuple(int(v) for v in np.unravel_index(np.argmax(mask), mask.shape))


def _atoms(leq, zero):
    """The atoms of a natural order leq, as a list: each a != zero with no
    b other than zero and a below it."""
    others = leq.sum(axis=0) - leq[zero] - np.diagonal(leq)   # [a]: b < a, b != zero
    return [a for a in np.flatnonzero(others == 0).tolist() if a != zero]


# ---------------------------------------------------------------------------
# Products of rectangular bands with a zero adjoined
# ---------------------------------------------------------------------------

def _is_rectangular_band(T):
    """True if T, an m x m table on 0..m-1, is a rectangular band, decided
    by decoding it.  In a rectangular band R x C, x y = (row(x), col(y)):
    rows are equal exactly when their first entries are, and columns when
    their first entries are.  So x is placed at (T[x, 0], T[0, x]), and T
    is a rectangular band exactly when these places are a bijection onto
    R x C (R the values of column 0, C those of row 0) and T[x, y] is the
    element placed at (T[x, 0], T[0, y]).  Anything that is not an integer
    table on 0..m-1 gives False."""
    m = len(T)
    if m == 0 or T.shape != (m, m) or T.dtype.kind not in "iu" or T.min() < 0 or T.max() >= m:
        return False
    row, col = T[:, 0], T[0]
    at = np.full((m, m), -1)
    at[row, col] = np.arange(m)
    placed = at >= 0
    return (np.count_nonzero(placed) == m
            and np.count_nonzero(placed.any(axis=1)) * np.count_nonzero(placed.any(axis=0)) == m
            and np.array_equal(T, at[row[:, None], col]))


def band_law_witness(table):
    """First violated rectangular-band law, or None: idempotency,
    associativity, and the rectangle identity x ^ y ^ z = x ^ z.  A table
    that decodes as a rectangle (_is_rectangular_band) has none; only one
    that does not pays for the search of the first witness over m^3 triples."""
    try:
        T = np.asarray(table)
    except ValueError:                           # ragged rows
        T = np.empty(0)
    if _is_rectangular_band(T):
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


ROW_BLOCK = 2 ** 16


def _product_algebra(bands, digits):
    """Algebra of independent choices, one per coordinate: nothing, or a
    point of that coordinate's rectangular band.  bands[b] is the band of
    coordinate b as a table on 0..m-1.  digits is an (n, k) integer array:
    digits[x, b] is 0 if element x has no point at coordinate b and 1 + i
    if it has point i.  The caller's element x stays element x, so the rows
    of digits, read as mixed-radix codes, must number the product's
    prod(1 + m) elements once each; ValueError otherwise."""
    zero, tables = _product_tables(bands, digits)
    return SkewAlgebra(len(digits), zero, *tables)


def _product_tables(bands, digits):
    """The zero of _product_algebra(bands, digits), and an iterator that
    makes its four tables one at a time, in _OPS order.

    Every operation acts digitwise; with s the left operand and r the right:
    meet is band(s, r) where both are present, join keeps a lone point and
    combines two as band(r, s), diff keeps s where r is absent, and cap
    keeps s where the two agree.  A table row is these digit tables read at
    the row's digits and summed as mixed-radix codes, then renumbered into
    the caller's order.  The codes lie below n, so they are int32 like the
    tables.  Rows are made in blocks of at most ROW_BLOCK entries into the
    int32 table, so no other n x n array exists.
    """
    digits = np.asarray(digits, dtype=np.int64)
    n = len(digits)
    sizes = [1 + len(band) for band in bands]
    if math.prod(sizes) != n:
        raise ValueError(f"{n} digit rows for a product of {math.prod(sizes)} elements")
    radix = np.cumprod([1] + sizes)[:-1]
    rank = np.full(n, -1, dtype=np.int32)
    rank[digits @ radix] = np.arange(n)
    if (rank < 0).any():
        raise ValueError("two digit rows give the same element")
    ops = []
    for band in bands:
        m = len(band)
        s, r = np.ogrid[:m + 1, :m + 1]
        both = np.zeros((m + 1, m + 1), dtype=np.int64)
        both[1:, 1:] = np.reshape(band, (m, m)) + 1
        ops.append((np.where((s > 0) & (r > 0), both, 0),
                    np.where(r == 0, s, np.where(s == 0, r, both.T)),
                    np.where(r == 0, s, 0),
                    np.where(s == r, s, 0)))
    rows = max(1, ROW_BLOCK // n)

    def table(k):
        # per coordinate, the code that each digit of a row gives each column
        parts = [np.take(op[k] * weight, col, axis=1).astype(np.int32)
                 for col, op, weight in zip(digits.T, ops, radix)]
        out = np.empty((n, n), dtype=np.int32)
        for start in range(0, n, rows):
            block = digits[start:start + rows]
            code = np.zeros((len(block), n), dtype=np.int32)
            for part, d in zip(parts, block.T):
                code += np.take(part, d, axis=0)
            np.take(rank, code, out=out[start:start + rows])
        return out

    return int(rank[0]), map(table, range(4))


def _certificate(A):
    """True if A is, table for table, the product of rectangular bands with
    a zero adjoined that its atoms describe (validate_algebra's docstring
    has the argument); False if A does not decode as one or differs."""
    n, M, zero = A.n, A.meet_table, A.zero
    leq = leq_matrix(A)
    atoms = np.array(_atoms(leq, zero), dtype=np.intp)
    fibers = []
    if len(atoms):
        meets = M[np.ix_(atoms, atoms)] != zero      # [a, b]: a ^ b is not zero
        first = np.argmax(meets, axis=1)             # the first atom each atom meets
        if not np.array_equal(meets, first[:, None] == first[None, :]):
            return False                             # not an equivalence
        fibers = [atoms[first == i] for i in np.flatnonzero(first == np.arange(len(atoms)))]
    bands, digits = [], np.zeros((n, len(fibers)), dtype=np.int64)
    for b, f in enumerate(fibers):
        where = np.full(n, -1, dtype=np.intp)
        where[f] = np.arange(len(f))
        band = where[M[np.ix_(f, f)]]
        if not _is_rectangular_band(band):
            return False
        bands.append(band)
        below = leq[f]                               # [i, x]: point i of fiber b is below x
        count = below.sum(axis=0)
        if count.max() > 1:
            return False
        digits[:, b] = np.where(count > 0, np.argmax(below, axis=0) + 1, 0)
    try:
        product_zero, tables = _product_tables(bands, digits)
    except ValueError:                               # the digits do not number the product
        return False
    return product_zero == zero and all(
        np.array_equal(T, getattr(A, name + "_table")) for name, T in zip(_OPS, tables))


def validate_algebra(A, max_n=EXHAUSTIVE_N):
    """Check every axiom, returning all violated laws with witnesses.

    Axioms: idempotency and associativity of meet and join, the four
    absorption identities, both meet-distributivity identities, zero neutral
    for join, the two relative-complement identities, intersection being the
    greatest lower bound for the natural partial order, and intersection
    commutative, associative, idempotent.  Normality of meet and regularity
    of join are implied by the axioms, so violations of those are reported
    as warnings (useful when hunting for which axiom a broken table loses).

    A certificate (``_certificate``) runs first, at every n, at the cost of
    building four tables and comparing them.  On a finite discrete base the
    section algebra of a rectangular space is the product over the base
    points of the fiber bands, each with a zero adjoined.  The certificate
    reads such a product off A's atoms: two atoms lie in one fiber when
    their meet is not the zero, which must be an equivalence; a fiber's
    band is the meet table on its atoms; an element's digits are the atoms
    below it, at most one per fiber.  It builds that product in A's element
    order and compares the zero and the four tables with A's.  If all five
    agree, A is valid, and the report is ok with no warnings:

    - Every band is checked to be rectangular, so each factor, a
      rectangular band with a zero adjoined, is a skew Boolean algebra with
      intersections (Leech 1990, cited in 8), and so is the product.  Every
      law but the glb law is an identity, so it holds coordinatewise.  The
      natural order of a product is coordinatewise, and cap, coordinatewise
      the greatest lower bound, is the greatest lower bound.
    - n = prod(1 + |fiber|) and the elements' digits, read as mixed-radix
      codes, are distinct (the builder refuses them otherwise), so they
      number the product's elements once each.  With the five
      comparisons, A is isomorphic to the product.

    Soundness rests on these checks alone; how the fibers and digits were
    read needs no proof.  Every valid A passes: it is the section algebra
    of its spectrum, whose atoms are the one-point sections, and that is
    the product read off.

    If the certificate refuses A, the fallback runs: a proof costing
    n^2 * |G| (``_unproved_step``), at every n, and, if a step of it fails,
    the exhaustive check (``_exhaustive_report``), which gives the report.
    So failures, first witnesses (C order) and warnings are always the
    exhaustive ones.  That check is cubic, so past n = max_n it is not run:
    SizeCapError is raised instead, naming the failed step.  The proof's
    steps, each sound given those before it:

    1. The laws with n or n^2 instances, on the whole table: both
       idempotents, the four absorptions, zero neutral, both complement
       laws, cap lower bound, cap commutative, cap idempotent.  Absorption
       with zero neutral gives 0 ^ y = y ^ 0 = 0, so 0 <= y for every y.
    2. Generators.  G is 0 and the atoms (x != 0 with only 0 and x below
       it); the left-bracketed join closure of G from 0 must be all of A,
       so every element is (...((0 v g1) v g2) ...) v gk with gi in G.
       Join-irreducibles would not do: on a 2 x 2 band a point section is
       the join of two other point sections.
    3. Join associativity by Light's test (Clifford and Preston, The
       Algebraic Theory of Semigroups I, 1.2): (x v g) v y = x v (g v y)
       for g in G.  The middles m with (x v m) v y = x v (m v y) for all
       x, y are closed under join: (x v (m v m')) v y = ((x v m) v m') v y
       = (x v m) v (m' v y) = x v (m v (m' v y)) = x v ((m v m') v y).
       They include G, which generates A, so they are all of A.
    4. Both meet distributivities for z in G.  Given 3, the z with
       x ^ (y v z) = (x ^ y) v (x ^ z) for all x, y are closed under join:
       x ^ (y v z v z') = (x ^ (y v z)) v (x ^ z')
       = (x ^ y) v (x ^ z) v (x ^ z') = (x ^ y) v (x ^ (z v z')).
       They include G, so they are all of A.  The right-hand law is the
       mirror image of the same argument.
    5. Meet associativity on G^3.  By 4 both distributivities hold on all
       of A, so (x ^ y) ^ z and x ^ (y ^ z) are join homomorphisms in each
       of x, y and z separately, e.g. ((x v x') ^ y) ^ z
       = ((x ^ y) v (x' ^ y)) ^ z = ((x ^ y) ^ z) v ((x' ^ y) ^ z).  G
       generates A under join (2), so agreement on G^3 extends to every x
       with y, z in G, then to every x, y with z in G, then everywhere.
    Steps 3 to 5 are run on the atoms alone: for the zero they follow from
    1, which gives x v 0 = 0 v x = x and x ^ 0 = 0 ^ x = 0.  So
    (x v 0) v y = x v y = x v (0 v y); x ^ (y v 0) = x ^ y = (x ^ y) v 0
    = (x ^ y) v (x ^ 0), and the mirror law alike; and both bracketings
    of a triple with a 0 in it are 0.
    6. The glb law for atoms z: an atom below x and below y must lie below
       x cap y (n^2 * |G| / 16 byte operations on the atoms below each
       element as packed bits, as the law is symmetric in x and y once cap
       is commutative).  That is enough.  By 1 to 5, A is a skew Boolean
       algebra, so each down-set of c is a Boolean lattice under the
       restricted operations, closed under join (Leech 1990, cited in 8).
       Let z lie below x and y.  Each atom of the down-set of z is an atom
       of A, so by this step it lies below x cap y, and z, the top of its
       finite Boolean lattice, is the join of those atoms.  The down-set of
       x cap y is closed under join, so z lies below x cap y.  (z = 0 lies
       below everything by 1.)
    7. Cap associativity needs no check.  By 1 and 5 the natural order is
       a partial order, and by 1 and 6 x cap y is the greatest lower bound
       of {x, y}, so both bracketings are the greatest lower bound of
       {x, y, z}.
    8. Warnings: normality of meet and regularity of join are theorems of
       the axioms (Leech, "Skew Boolean algebras", Algebra Universalis 27,
       1990), so a valid A has none.
    """
    if _certificate(A):
        return ValidationReport(ok=True, failures=(), warnings=())
    step = _unproved_step(A)
    if step is None:
        return ValidationReport(ok=True, failures=(), warnings=())
    if A.n > max_n:
        raise SizeCapError(f"n={A.n} fails proof step {step}; the exhaustive report "
                           f"is capped at n={max_n}")
    return _exhaustive_report(A)


def _unproved_step(A):
    """Run the proof in validate_algebra's docstring.  Return None if every
    step passes (A is valid), else the name of the first step that failed:
    a law of step 1, "generators", or the law steps 3 to 6 check."""
    n = A.n
    M, J, D, C = A.meet_table, A.join_table, A.diff_table, A.cap_table
    idx = np.arange(n)
    rows = idx[:, None]
    leq = leq_matrix(A)

    def table_laws():
        # Only any() is read, so a mask may be its law's transpose [y, x].
        yield "meet_idempotent", np.diagonal(M) != idx
        yield "join_idempotent", np.diagonal(J) != idx
        yield "absorb_meet_over_join_left", _gather(M, rows, J) != rows
        yield "absorb_meet_over_join_right", _gather(M, J, idx) != idx
        yield "absorb_join_over_meet_left", _gather(J, rows, M) != rows
        yield "absorb_join_over_meet_right", _gather(J, M, idx) != idx
        yield "zero_neutral_join", (J[A.zero] != idx) | (J[:, A.zero] != idx)
        W = _gather(M, M, rows)                  # [x, y]: x ^ y ^ x
        yield "complement_meet_zero", _gather(M, D, W) != A.zero
        yield "complement_join_restore", _gather(J, D, W) != rows
        yield "cap_is_lower_bound", ~(_gather(leq, C, rows) & _gather(leq, C, idx))
        yield "cap_commutative", C != C.T
        yield "cap_idempotent", np.diagonal(C) != idx

    for name, bad in table_laws():
        if bad.any():
            return name

    atoms = _atoms(leq, A.zero)
    reached = np.zeros(n, dtype=bool)
    reached[A.zero] = True
    frontier = np.array([A.zero])
    JG = J[:, atoms]                             # x v 0 = x adds nothing
    while frontier.size:
        new = np.zeros(n, dtype=bool)
        new[JG[frontier]] = True
        new &= ~reached
        reached |= new
        frontier = np.flatnonzero(new)
    if not reached.all():
        return "generators"

    # Steps 3 to 5 loop over the atoms (the zero is covered by step 1) and
    # over blocks of rows, so that each int32 temporary stays near n x n
    # bytes: a |G| x n x n gather would not.
    blocks = _row_blocks(n, 4 * n)
    for g in atoms:                              # [x, y]: (x v g) v y, x v (g v y)
        for b in blocks:
            if not np.array_equal(np.take(J, J[b, g], axis=0), np.take(J[b], J[g], axis=1)):
                return "join_associative"
    # J[i, j] is Jf[i * n + j]; Mn stays int32 wherever n * n fits in it.
    Jf, Mn = J.ravel(), M * (n if n * n < 2**31 else np.int64(n))
    for g in atoms:                              # [x, y]: x ^ (y v g), (x ^ y) v (x ^ g)
        for b in blocks:
            if not np.array_equal(np.take(M[b], J[:, g], axis=1), Jf[Mn[b] + M[b, g, None]]):
                return "meet_distributes_left"
    for g in atoms:                              # [y, x]: (y v g) ^ x, (y ^ x) v (g ^ x)
        for b in blocks:
            if not np.array_equal(np.take(M, J[b, g], axis=0), Jf[Mn[b] + M[g]]):
                return "meet_distributes_right"
    g = np.array(atoms, dtype=np.intp)
    MG, Mg = M[np.ix_(g, g)], M[g]
    for z in atoms:                              # [x, y] in atoms^2: (x ^ y) ^ z, x ^ (y ^ z)
        if not np.array_equal(np.take(M[:, z], MG), np.take(Mg, M[g, z], axis=1)):
            return "meet_associative"

    # The glb law for atoms z.  It is symmetric in x and y (cap is
    # commutative by step 1), so a block of rows from x0 checks the y >= x0.
    bits = np.packbits(leq[atoms].T, axis=1)     # bits[x]: the atoms below x
    for b in _row_blocks(n, n * bits.shape[1]):
        if (bits[b, None] & bits[b.start:] & ~bits[C[b, b.start:]]).any():
            return "cap_is_greatest_lower_bound"
    return None


def _row_blocks(n, row_bytes):
    """Slices that cover rows 0..n-1, each of as many rows of row_bytes as
    fit in n x n bytes, or in 256 KiB on small carriers (at least one)."""
    size = max(1, max(n * n, 2**18) // max(1, row_bytes))
    return [slice(lo, lo + size) for lo in range(0, n, size)]


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

    leq = leq_matrix(A)
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
    the search of the witness.
    """
    lab = np.asarray(part.labels, dtype=np.int32)
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
    Each partition is verified to be a congruence for meet, join and diff
    (intersections are not generally compatible, so they are left out).
    """
    M = A.meet_table
    rows = np.arange(A.n)[:, None]
    cols = rows.T
    pre = preceq_matrix(A)
    # Each element is labelled by the least member of its class.
    least = lambda related: partition_from_labels(np.argmax(related, axis=1).tolist())
    d = least(pre & pre.T)
    l = least((M == rows) & (M.T == cols))
    r = least((M == cols) & (M.T == rows))
    for name, part in (("D", d), ("L", l), ("R", r)):
        bad = is_congruence(A, part)
        if bad is not None:
            raise CongruenceError(f"green {name} / {bad[0]}", bad[1:])
    return d, l, r


def glb_cap_table(n, meet, join):
    """Intersection table computed as greatest lower bounds of the order
    induced by meet, as an int32 array.  Lower bounds of a pair commute, so
    folding them with join, in increasing order, yields the candidate
    maximum, which is then verified.  Each z takes two passes over the
    pairs above it: one folds z into their candidates, one checks that z
    lies below them.  Raises ValueError at the first pair (C order) with no common lower
    bound or no greatest one."""
    M, J = np.asarray(meet), np.asarray(join)
    rows = np.arange(n)[:, None]
    leq = (M == rows) & (M.T == rows)
    above = [np.ix_(up, up) for up in map(np.flatnonzero, leq)]
    cap = np.full((n, n), -1, dtype=np.int32)    # -1: no lower bound yet
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
    raised otherwise).  Block representatives are least indices.  When the
    partition is also compatible with intersections the quotient cap is
    induced directly; otherwise (the Green quotients) the quotient is a skew
    Boolean algebra in its own right and its cap is recomputed as the
    greatest-lower-bound table.
    """
    bad = is_congruence(A, part)
    if bad is not None:
        raise CongruenceError(bad[0], bad[1:])
    return _quotient(A, part)


def _quotient(A, part):
    """quotient_by for a partition known to be a congruence for meet, join
    and diff.  Each table is one gather of labels at the representatives."""
    reps = [block[0] for block in part.blocks]
    lab = np.asarray(part.labels, dtype=np.int32)
    meet, join, diff, cap = (lab[getattr(A, name + "_table")[np.ix_(reps, reps)]]
                             for name in _OPS)
    if is_congruence(A, part, op_names=("cap",)) is not None:
        cap = glb_cap_table(len(part.blocks), meet, join)
    return SkewAlgebra(len(part.blocks), part.labels[A.zero], meet, join, diff, cap), part.labels


@per_object
def reflection(A):
    """The commutative reflection A/D with its quotient map.  D is a
    congruence for meet, join and diff: green_partitions checks that."""
    return _quotient(A, green_partitions(A)[0])


def handedness(A):
    """One of 'commutative', 'right', 'left', 'neither' by exhaustive test."""
    M = A.meet_table
    if np.array_equal(M, M.T):
        return "commutative"
    xyx = _gather(M, M, np.arange(A.n)[:, None])
    if np.array_equal(xyx, M.T):
        return "right"
    if np.array_equal(xyx, M):
        return "left"
    return "neither"


def second_decomposition_check(A):
    """Check that A -> A/R x_{A/D} A/L (canonical map into the pullback of the
    Green quotients) is an isomorphism of skew algebras."""
    d, l, r = green_partitions(A)
    AR, to_r = _quotient(A, r)
    AL, to_l = _quotient(A, l)
    AD, to_d = reflection(A)
    # Induced maps to the reflection (R and L refine D).
    r_to_d = [to_d[block[0]] for block in r.blocks]
    l_to_d = [to_d[block[0]] for block in l.blocks]
    pairs = [(i, j) for i in range(AR.n) for j in range(AL.n) if r_to_d[i] == l_to_d[j]]
    index = np.full((AR.n, AL.n), -1, dtype=np.int32)
    for k, p in enumerate(pairs):
        index[p] = k
    canon = index[to_r, to_l]
    if (canon < 0).any() or len(set(canon.tolist())) != len(pairs) or len(pairs) != A.n:
        return False
    inverse = np.argsort(canon)
    on_r, on_l = np.array(pairs).T
    meet, join, diff = (index[getattr(AR, name + "_table")[np.ix_(on_r, on_r)],
                              getattr(AL, name + "_table")[np.ix_(on_l, on_l)]]
                        for name in _OPS[:3])
    cap = canon[A.cap_table[np.ix_(inverse, inverse)]]
    try:
        pullback = SkewAlgebra(len(pairs), int(canon[A.zero]), meet, join, diff, cap)
    except StructuralError:
        return False
    # Transported cap must be the pullback's genuine GLB, and the canonical
    # map must preserve the component-wise operations.
    if not validate_algebra(pullback, max_n=pullback.n).ok:
        return False
    both = np.ix_(canon, canon)
    return all(np.array_equal(canon[getattr(A, name + "_table")],
                              getattr(pullback, name + "_table")[both])
               for name in _OPS[:3])


# ---------------------------------------------------------------------------
# Subalgebras and mirrors
# ---------------------------------------------------------------------------

def subalgebra_on(A, subset):
    """Restrict A to a subset closed under all operations.

    Returns (algebra, embedding) where embedding[i] is the element of A that
    the i-th subalgebra element came from.
    """
    members = tuple(sorted(set(subset)))
    if A.zero not in members:
        raise ValueError("subset does not contain zero")
    pos = np.full(A.n, -1, dtype=np.int32)
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
