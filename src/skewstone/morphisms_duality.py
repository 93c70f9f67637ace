"""Homomorphisms, space morphisms, and the duality functors on both levels.

A space morphism (g, h) : p -> p' is a commuting square of partial maps in
which g restricts to a bijection from each fiber piece onto the fiber over
the image base point, and preserves the band, a plain space's band being
the right band x y = y.  One pass (_decoded) decides and reports all three
conditions, reading a morphism as one band map per fiber; every check of
a space morphism, validate_space_morphism among them, is that pass.
The dual of a homomorphism acts by preimages; the dual of a space morphism
acts on sections by preimage under g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .core_algebra import (
    INDEX_DTYPE,
    MAX_CANDIDATES,
    SizeCapError,
    SkewAlgebra,
    StructuralError,
    ValidationReport,
    _OPS,
    _by_row_blocks,
    _certified_form,
    _first_bad,
    _indices,
    _order_keys,
    _rectangle,
    _take,
    per_object,
    subalgebra_on,
)
from .ideals_spectra import (
    RectSkewSpace,
    _generated,
    _prime_index,
    fiber_bands,
    fibers,
    leq_ideal_generated,
    make_space,
    spectrum_data,
)
from .spaces_sections import (
    PartialMap,
    _section_rows,
    _product_table,
    dual_algebra,
    partial_map,
)


@dataclass(frozen=True)
class Homomorphism:
    """Total map between algebras preserving zero and all four operations."""

    source: object
    target: object
    map: tuple[int, ...]

    def __call__(self, x):
        return self.map[x]


@dataclass(frozen=True)
class SpaceMorphism:
    """Pair of partial maps (g on total spaces, h on bases) forming a
    commuting square with g bijective on fibers."""

    source: object
    target: object
    g: PartialMap
    h: PartialMap


@dataclass(frozen=True)
class SpaceMorphismFlags:
    total: bool
    semitotal: bool
    saturated: bool
    section_lifting: bool


@dataclass(frozen=True)
class HomFlags:
    leq_cofinal: bool
    preceq_cofinal: bool
    D_saturated: bool
    leq_ideal_inclusion: bool
    image_ideal_preceq_closed: bool


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

def validate_hom(f):
    """Exhaustive preservation check for zero, meet, join, diff and cap.
    Each operation is one gather, m[T_A] against T_B[m x m], both of the
    tables' dtype; the witness is the first violated pair in C order.  The
    map must be n_A integers in 0..n_B-1 (StructuralError otherwise, also
    for 1.5, "1" or True)."""
    A, B = f.source, f.target
    m = _indices(f.map, B.n)
    if m is None or m.shape != (A.n,):
        raise StructuralError("homomorphism map is not a total map into the target")
    m = m.astype(INDEX_DTYPE)
    failures = []
    if m[A.zero] != B.zero:
        failures.append(("preserves_zero", (A.zero,)))
    for name in _OPS:
        table = name + "_table"
        image = np.take(np.take(getattr(B, table), m, axis=0), m, axis=1)
        witness = _first_bad(_take(m, getattr(A, table)) != image)
        if witness is not None:
            failures.append((f"preserves_{name}", witness))
    return ValidationReport(ok=not failures, failures=tuple(failures))


def identity_hom(A):
    return Homomorphism(A, A, tuple(A.elements))


def zero_hom(A, B):
    return Homomorphism(A, B, (B.zero,) * A.n)


def compose_homs(outer, inner):
    if inner.target != outer.source:
        raise ValueError("homomorphisms do not compose")
    return Homomorphism(inner.source, outer.target,
                        tuple(outer.map[v] for v in inner.map))


def enumerate_homs(A, B, max_candidates=MAX_CANDIDATES):
    """All homomorphisms A -> B, in lexicographic map order, read off the
    product forms (_certified_form) of A and B.  By the duality they are the
    space morphisms Sk(B) -> Sk(A), and those are independent choices, one
    per fiber x of B (_choices): x is left out, or takes A's fiber y through
    an injective band map phi of y's band into x's.  A combination of
    choices sends a to the element of B whose digit at x is phi(a's digit
    at y), or 0 where x is left out (_maps), and that map is a
    homomorphism:

    - The certificate has compared B's tables with the product of B's
      form, so B computes every operation digitwise on its digits, as
      A does on its own.
    - Each digit operation is read off the band, presence (digit 0) and
      equality of digits (_product_tables).  An injective band map that
      fixes 0 keeps all three, so digit x of f(a * b) is digit x of
      f(a) * f(b); the constant 0 of a left-out fiber keeps them too, as
      each operation sends two absent digits to 0.  The zero, with no
      digit, goes to B's zero.

    A and B must be valid algebras; one that the certificate refuses
    raises ValueError, naming the refusing check (see validate_algebra).
    max_candidates bounds the number of choice combinations, and past it
    SizeCapError is raised before any map is built.
    """
    target, source = _certified_form(B), _certified_form(A)
    choices = _choices(target.rectangles, source.rectangles, max_candidates)
    return tuple(Homomorphism(A, B, tuple(row.tolist()))
                 for row in _maps(source.digits, target.radix, target.rank, choices))


def algebras_isomorphic(A, B):
    """The map of an isomorphism A -> B, or None.  A and B are isomorphic
    exactly when their product forms have the same band shapes: the map is
    the one choice per fiber of _band_isomorphism, read as in enumerate_homs.

    A and B of one size must be valid algebras; one that the certificate
    refuses raises ValueError, naming the refusing check.
    """
    if A.n != B.n:
        return None
    source, target = _certified_form(A), _certified_form(B)
    matched = _band_isomorphism(source.rectangles, target.rectangles)
    if matched is None:
        return None
    choices = [None] * len(matched)
    for y, x, at in matched:
        choices[x] = [(y, at)]
    return tuple(_maps(source.digits, target.radix, target.rank, choices)[0].tolist())


def _maps(digits, radix, rank, choices):
    """The maps of every combination of choices, one list of None or (y, at)
    per target fiber x, as the sorted rows of an int32 array: source
    element a goes to the target element whose digit at x is 0 for None,
    and for (y, at) 0 where digits[a, y] is 0 and 1 + at[i] where it is
    1 + i.  Each choice is one column of mixed-radix codes of the target's
    digits (radix), and the codes of a combination are the sum of its
    columns, renumbered into the target's order (rank)."""
    n = len(digits)
    codes = np.zeros((1, n), dtype=np.int32)
    for x, pieces in enumerate(choices):
        column = np.zeros((len(pieces), n), dtype=np.int32)
        for i, piece in enumerate(pieces):
            if piece is not None:
                column[i] = np.r_[0, 1 + piece[1]][digits[:, piece[0]]] * radix[x]
        codes = (codes[:, None] + column).reshape(-1, n)
    np.take(rank, codes, out=codes)
    return codes[np.lexsort(codes.T[::-1])]


# ---------------------------------------------------------------------------
# Space morphisms
# ---------------------------------------------------------------------------

def validate_space_morphism(m):
    """Check the commuting square, fiber bijectivity, and band preservation,
    in that order (_decoded).  A plain space's band is read as the right
    band x y = y, the one its section algebra uses, so a morphism between
    two plain spaces always preserves it."""
    failures = _decoded(m)[1]
    return ValidationReport(ok=not failures, failures=failures)


@per_object
def _decoded(m):
    """m : sp -> tp read in _choices form, with every failure of the three
    conditions, as (pieces, failures), decoded once per morphism.  pieces
    has one entry per base point x of sp: (h(x), at) where x passes, at[i]
    (read-only) the position in x's fiber of the point that g sends to
    point i of h(x)'s fiber, and None elsewhere.  failures names
    square_commutes for each y in dom g that g does not send into the fiber
    over h(p(y)), by y; fiber_bijection for each x in dom h whose piece g
    does not map one to one onto the fiber over h(x), by x; and
    band_preserved for each pair (y1, y2) in dom g over one base point
    whose product g leaves undefined or does not send to g(y1) g(y2), in C
    order.

    A piece that g maps one to one onto its fiber keeps the band exactly
    when band_x[at, at] == at[band_t], one comparison per fiber, and then
    no pair in it fails.  Pairs are listed (_band_failures) only over a
    base point that fails that test or that g reaches outside dom h.
    StructuralError if a map leaves its space."""
    sp, tp = m.source, m.target
    sizes = ((m.g.domain, sp.size_e), (m.g.values, tp.size_e),
             (m.h.domain, sp.size_b), (m.h.values, tp.size_b))
    if any(not 0 <= v < size for values, size in sizes for v in values):
        raise StructuralError("morphism maps reference out-of-range points")
    g, h = m.g.as_dict(), m.h.as_dict()
    square = [y for y, e in g.items() if tp.p[e] != h.get(sp.p[y])]
    failures, pairs = [("square_commutes", (y,)) for y in square], []
    pieces = [None] * sp.size_b
    for x in sorted(h.keys() | {sp.p[y] for y in square}):
        if x in h:
            image = sorted((g[y], i) for i, y in enumerate(fibers(sp)[x]) if y in g)
            at = np.array([i for _, i in image], dtype=np.intp)
            if [e for e, _ in image] != list(fibers(tp)[h[x]]):
                failures.append(("fiber_bijection", (x,)))
            elif (fiber_bands(sp)[x][at[:, None], at] == at[fiber_bands(tp)[h[x]]]).all():
                at.setflags(write=False)
                pieces[x] = (h[x], at)
                continue
        pairs += _band_failures(sp, tp, g, x)
    return tuple(pieces), tuple(failures + [("band_preserved", pair) for pair in sorted(pairs)])


def _band_failures(sp, tp, g, x):
    """The pairs (y1, y2) of points over x in dom g such that g is not
    defined at y1 y2 or does not send it to g(y1) g(y2).  In a banded
    target two points of different fibers have no product; in a plain one
    their product is the right band's, g(y2)."""
    fiber = np.array(fibers(sp)[x], dtype=np.intp)
    gx = np.array([g.get(y, -1) for y in fiber.tolist()], dtype=np.intp)
    kept = np.flatnonzero(gx >= 0)
    image, got = gx[kept], gx[fiber_bands(sp)[x][np.ix_(kept, kept)]]
    want = np.tile(image, (len(image), 1)) if tp.tables is None else np.full_like(got, -1)
    over = np.take(tp.p, image)
    for t in set(over.tolist()):
        i = np.flatnonzero(over == t)
        at = np.searchsorted(fibers(tp)[t], image[i])
        want[np.ix_(i, i)] = np.take(fibers(tp)[t], fiber_bands(tp)[t][np.ix_(at, at)])
    r, c = np.nonzero((got < 0) | (got != want))
    return list(zip(fiber[kept[r]].tolist(), fiber[kept[c]].tolist()))


def _pieces(m):
    """The pieces of _decoded; RuntimeError naming the first failure unless
    m is a valid space morphism."""
    pieces, failures = _decoded(m)
    if failures:
        raise RuntimeError(f"invalid space morphism: {failures[0]}")
    return pieces


def identity_space_morphism(sp):
    ids = PartialMap(tuple(range(sp.size_e)), tuple(range(sp.size_e)))
    idb = PartialMap(tuple(range(sp.size_b)), tuple(range(sp.size_b)))
    return SpaceMorphism(sp, sp, ids, idb)


def compose_space_morphisms(outer, inner):
    if inner.target != outer.source:
        raise ValueError("space morphisms do not compose")
    og, oh = outer.g.as_dict(), outer.h.as_dict()
    g = {y: og[v] for y, v in zip(inner.g.domain, inner.g.values) if v in og}
    h = {x: oh[v] for x, v in zip(inner.h.domain, inner.h.values) if v in oh}
    return SpaceMorphism(inner.source, outer.target, partial_map(g), partial_map(h))


@per_object
def _fiber_rectangles(sp):
    """The decode (_rectangle) of each fiber band of sp, made once per
    space.  ValueError if a band is not rectangular."""
    rects = tuple(map(_rectangle, fiber_bands(sp)))
    if any(rect is None for rect in rects):
        raise ValueError("a fiber band is not a rectangular band")
    return rects


def _choices(x_rects, y_rects, max_candidates):
    """For each x band, [None] + [(y, at)]: each y band with each injective
    band map of it into the x band, at[i] the point that y's point i goes
    to; the bands are given by their decodes (_rectangle).  Between
    rectangles such a map is an injective row map times an injective
    column map (a plain band is one row), so x has
    1 + sum_y P(a_x, a_y) * P(b_x, b_y) choices, a x b the band's shape.
    Past max_candidates combinations SizeCapError is raised before any
    choice is built."""
    y_shapes = [grid.shape for _, _, grid in y_rects]
    if math.prod(1 + sum(math.perm(a, c) * math.perm(b, d) for c, d in y_shapes)
                 for a, b in (grid.shape for _, _, grid in x_rects)) > max_candidates:
        raise SizeCapError(f"space morphism search tried more than {max_candidates} "
                           "candidate assignments (fiber-map combinations)")
    return [[None] + [(y, grid[np.take(row_map, row), np.take(col_map, col)])
                      for y, ((row, col, _), (c, d)) in enumerate(zip(y_rects, y_shapes))
                      for row_map in permutations(range(len(grid)), c)
                      for col_map in permutations(range(grid.shape[1]), d)]
            for _, _, grid in x_rects]


def enumerate_space_morphisms(sp, tp, max_candidates=MAX_CANDIDATES):
    """All valid space morphisms sp -> tp, in (h, g) order.

    Over x sent to y, g inverts an injective band map from the fiber over y
    into the one over x, one of the choices of _choices.  Each combination
    of these choices is one candidate, and each is built (_space_morphism)
    and valid; past max_candidates SizeCapError is raised before any is
    built.  A band that is not rectangular raises ValueError.
    """
    choices = [[c if c is None else (c[0], c[1].tolist()) for c in options]
               for options in _choices(_fiber_rectangles(sp), _fiber_rectangles(tp),
                                       max_candidates)]
    out = [_space_morphism(sp, tp, pieces) for pieces in product(*choices)]
    return tuple(sorted(out, key=lambda m: (m.h.domain, m.h.values, m.g.domain, m.g.values)))


def _band_isomorphism(rects1, rects2):
    """A bijection of bands given by their decodes (_rectangle), as
    (b1, b2, at) with at[i] the point of band b2 that band b1's point i
    goes to, or None.  Bands are matched by shape, in order within a shape,
    and points by their (row, column); None if the shapes differ."""
    shapes1, shapes2 = ([grid.shape for _, _, grid in rects] for rects in (rects1, rects2))
    if sorted(shapes1) != sorted(shapes2):
        return None
    order = lambda shapes: sorted(range(len(shapes)), key=lambda b: (shapes[b], b))
    return [(b1, b2, rects2[b2][2][rects1[b1][0], rects1[b1][1]])
            for b1, b2 in zip(order(shapes1), order(shapes2))]


def spaces_isomorphic(sp1, sp2):
    """Isomorphism (total E-bijection over a base bijection, preserving bands,
    a plain space's read as the right band) between two spaces, as (g, h), or None.

    Fibers and their points are matched by _band_isomorphism, which keeps
    each point's (row, column), so every fiber goes onto its match through
    a band isomorphism and the morphism built from the matches
    (_space_morphism) is valid.  A band that is not rectangular raises
    ValueError.
    """
    if (sp1.size_e, sp1.size_b) != (sp2.size_e, sp2.size_b):
        return None
    matched = _band_isomorphism(_fiber_rectangles(sp1), _fiber_rectangles(sp2))
    if matched is None:
        return None
    pieces = [None] * sp1.size_b
    for b1, b2, at in matched:
        pieces[b1] = (b2, np.argsort(at).tolist())
    m = _space_morphism(sp1, sp2, pieces)
    return m.g.values, m.h.values


def _space_morphism(sp, tp, pieces):
    """The space morphism sp -> tp of one choice per base point x of sp, in
    the form _decoded reads, with at a list of ints: None leaves x out of
    h, and (t, at) sends x to t and the point at at[i] of x's fiber to
    point i of t's fiber."""
    src, tgt = fibers(sp), fibers(tp)
    g, h = {}, {}
    for x, piece in enumerate(pieces):
        if piece is not None:
            t, at = piece
            h[x] = t
            g.update((src[x][i], e) for i, e in zip(at, tgt[t]))
    return SpaceMorphism(sp, tp, partial_map(g), partial_map(h))


# ---------------------------------------------------------------------------
# The duality functors on morphisms
# ---------------------------------------------------------------------------

def dual_of_hom(f):
    """Dual space morphism Sk(target) -> Sk(source) of a homomorphism.

    The base map sends a prime to its preimage when that is proper; the
    total-space map sends (P, t) to (preimage P, a) whenever t is congruent
    mod P to some value f(a) outside P.  Both read the basic rows: column j
    of the target's rows at f(a) is 0 on the preimage of prime j, and pairs
    its digits with the source's at h(j).  The result is validated in full.
    """
    sd_a, sd_b = spectrum_data(f.source), spectrum_data(f.target)
    rows_a, rows_b = sd_a.rows, sd_b.rows[list(f.map)]
    prime_of = _prime_index(sd_a)
    inside = (rows_b == 0).T
    h = {}
    for j in np.flatnonzero(~inside.all(axis=1)).tolist():
        h[j] = prime_of.get(inside[j].tobytes())
        if h[j] is None:
            raise RuntimeError(f"preimage {tuple(np.flatnonzero(inside[j]).tolist())} "
                               "of a prime is not prime")
    fib_a, fib_b = fibers(sd_a.space), fibers(sd_b.space)
    g = {}
    for j, i in h.items():
        pair = np.zeros(1 + len(fib_b[j]), dtype=np.int64)
        pair[rows_b[:, j]] = rows_a[:, i]
        if (pair[rows_b[:, j]] != rows_a[:, i]).any():
            raise RuntimeError("dual point is not well defined")
        g.update((fib_b[j][d], fib_a[i][c - 1]) for d, c in enumerate(pair[1:].tolist()) if c)
    morphism = SpaceMorphism(sd_b.space, sd_a.space, partial_map(g), partial_map(h))
    report = validate_space_morphism(morphism)
    if not report.ok:
        raise RuntimeError(f"dual morphism invalid: {report.failures}")
    return morphism


def hom_of_space_morphism(m):
    """Dual homomorphism (sections of target) -> (sections of source) acting
    by preimage under g: the one combination of m's pieces, read by _maps
    on the section rows (_section_rows) of the target into the codec of the
    source's.  m is read by _decoded, and RuntimeError names its
    first failure unless it is a valid space morphism.  Over x in dom h
    the preimage's digit is 1 + at[i] where the section's digit at h(x) is
    1 + i, and 0 where that digit is 0; outside dom h it is 0.  That map is a
    homomorphism, by the digitwise argument of enumerate_homs:

    - dual_algebra builds both section algebras as products on the digit
      rows, so each computes every operation digitwise.
    - Each at is an injective band map (_decoded), and with 0 fixed it
      keeps the band, presence (digit 0) and equality of digits, so the
      digit at x of the preimage of s * r is that of the preimage of s
      times that of the preimage of r.  A digit outside dom h is the
      constant 0, which each operation keeps.  The empty section, the
      zero, goes to the empty section.

    So the map is checked on no table of either algebra."""
    pieces = _pieces(m)
    (_, radix, rank, _), (tgt_rows, _, _, _) = _section_rows(m.source), _section_rows(m.target)
    image = _maps(tgt_rows, radix, rank, [[piece] for piece in pieces])[0]
    return Homomorphism(dual_algebra(m.target)[0], dual_algebra(m.source)[0],
                        tuple(image.tolist()))


# ---------------------------------------------------------------------------
# Round-trip isomorphisms
# ---------------------------------------------------------------------------

def _basic_labels(A):
    """The section label (_section_rows) of each element's basic section in
    the spectrum of A; RuntimeError unless they biject with the sections."""
    sd = spectrum_data(A)
    rows, radix, rank, _ = _section_rows(sd.space)
    image = rank[sd.rows @ radix]
    if len(rows) != A.n or len(set(image.tolist())) != A.n:
        raise RuntimeError("basic sections do not biject with spectrum sections")
    return image


def _basic_rows_witness(A):
    """None if the basic rows are A's digits and each fiber band of the
    spectrum is the band of A's product form (_certified_form), else what
    fails.  The spectrum's band is read off meet on the points' reps
    (spectrum_data), the form's decode off meet on A's atoms, so the two
    routes are compared.  O(n k + sum m^2)."""
    form, sd = _certified_form(A), spectrum_data(A)
    if sd.rows is not form.digits:
        return "the basic rows are not A's digits"
    for pi, (band, (row, col, grid)) in enumerate(zip(fiber_bands(sd.space), form.rectangles)):
        if not np.array_equal(band, grid.astype(INDEX_DTYPE)[row[:, None], col]):
            return f"spectrum fiber {pi} does not carry the band of A's fiber {pi}"
    return None


def _roundtrip_map(A):
    """The map of algebra_roundtrip_iso, a to its basic section's label,
    checked to be an isomorphism onto the section algebra of the spectrum
    (_basic_labels, _basic_rows_witness; the proof is in algebra_roundtrip_iso)."""
    image = _basic_labels(A)
    witness = _basic_rows_witness(A)
    if witness is not None:
        raise RuntimeError(f"round-trip map is not a homomorphism: {witness}")
    return image


def algebra_roundtrip_iso(A):
    """Canonical isomorphism from A onto the section algebra of its spectrum
    (a is sent to its basic section), checked and built on product forms,
    with no second product built and no n x n check of the map.

    _roundtrip_map checks, with _basic_labels, that the map is a bijection
    onto the sections, and with _basic_rows_witness that the basic rows are
    A's digits and that each fiber of the spectrum carries the band of A's
    fiber of the same index.  That makes the map an isomorphism, and the
    section algebra is A's tables relabelled through it:
    T'[image[x], image[y]] = image[T[x, y]], written block of rows by block
    of rows into one (4, n, n) int16 block, as the builder does.

    - The certificate has compared A's tables with the product of A's form,
      so A computes every operation digitwise on its digits.
    - The section algebra of the spectrum is the product of its fiber
      bands with a zero adjoined, on the sections' digit rows: an
      operation on two sections is the section whose digit row is the
      digitwise operation on theirs (_product_tables).
    - Each digit operation is read off the band, presence (digit 0) and
      equality of digits.  With the same band at fiber b, the four digit
      operations of A's fiber b are those of the spectrum's fiber b.
    - So the basic row of x * y is the digitwise x * y on the basic rows of
      x and y, for each operation *, and image[x * y] is the section
      image[x] * image[y].  With the bijection, every pair of sections is
      such an image[x], image[y] once, which gives the whole table.

    Any failed check here means a bug, so failures raise with a witness."""
    image = _roundtrip_map(A)
    inverse = np.argsort(image)                      # the element sent to each section
    relabel = image.astype(INDEX_DTYPE)
    tables = np.empty((4, A.n, A.n), dtype=INDEX_DTYPE)
    for name, out in zip(_OPS, tables):
        T = getattr(A, name + "_table")
        _by_row_blocks(out, lambda b, rows: np.take(
            relabel, np.take(np.take(T, inverse[b], axis=0), inverse, axis=1),
            out=rows, mode="clip"))
    tables.setflags(write=False)
    return Homomorphism(A, SkewAlgebra(A.n, int(image[A.zero]), *tables), tuple(image.tolist()))


def space_roundtrip_iso(sp):
    """Canonical isomorphism from a space onto the spectrum of its section
    algebra: a base point goes to the prime of sections missing it, a total
    point to the class of its singleton section, the point its basic row
    names over that prime."""
    sd = spectrum_data(dual_algebra(sp)[0])
    rows, radix, rank, digit = _section_rows(sp)
    h = [_prime_index(sd).get((column == 0).tobytes()) for column in rows.T]
    if None in h:
        raise RuntimeError(f"point {h.index(None)} does not induce a prime of the section algebra")
    start = np.searchsorted(sd.space.p, np.arange(sd.space.size_b))   # each fiber's first point
    over = np.take(np.array(h, dtype=np.intp), sp.p)
    singleton = rank[digit * np.take(radix, sp.p)]
    g = (start[over] + sd.rows[singleton, over] - 1).tolist()
    if sorted(g) != list(range(sd.space.size_e)) or sorted(h) != list(range(sd.space.size_b)):
        raise RuntimeError("round-trip maps are not bijections")
    total_e = PartialMap(tuple(range(sp.size_e)), tuple(g))
    total_b = PartialMap(tuple(range(sp.size_b)), tuple(h))
    morphism = SpaceMorphism(sp, sd.space, total_e, total_b)
    report = validate_space_morphism(morphism)
    if not report.ok:
        raise RuntimeError(f"round-trip square does not commute: {report.failures}")
    return morphism


# ---------------------------------------------------------------------------
# Rectangular spaces versus pairs of plain spaces
# ---------------------------------------------------------------------------

def to_space_pair(sp):
    """Split a rectangular space into (R-quotient, L-quotient) over the same
    base, the fiberwise coequalizers of the band's Green relations.  With a
    right band R is the full fiber relation and L is equality, so the first
    component collapses onto the base and the second keeps the total space."""
    if sp.tables is None:
        raise ValueError("pair decomposition needs a band")
    shapes = [grid.shape for _, _, grid in _fiber_rectangles(sp)]

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
    return RectSkewSpace(len(p), left.size_b, p, tables=[_product_table(v, u) for u, v in shapes])


# ---------------------------------------------------------------------------
# Decomposition and classification of morphisms
# ---------------------------------------------------------------------------

def restrict_space(sp, e_subset, b_subset):
    """Subspace on the given points with reindexed projection and band;
    ValueError if the points kept in a fiber are not closed under its band."""
    e_list = tuple(sorted(e_subset))
    b_list = tuple(sorted(b_subset))
    b_pos = {b: i for i, b in enumerate(b_list)}
    p = [b_pos[sp.p[e]] for e in e_list]
    if sp.tables is None:
        return make_space(len(e_list), len(b_list), p), e_list, b_list
    kept, tables = set(e_list), []
    for b in b_list:
        keep = [i for i, e in enumerate(fibers(sp)[b]) if e in kept]
        renumber = np.full(len(fibers(sp)[b]), -1)
        renumber[keep] = np.arange(len(keep))
        tables.append(renumber[fiber_bands(sp)[b][np.ix_(keep, keep)]])
        if (tables[-1] < 0).any():
            raise ValueError(f"the points kept over {b} are not closed under the band")
    return RectSkewSpace(len(p), len(b_list), p, tables=tables), e_list, b_list


def decompose_morphism(m):
    """Split a morphism into a partial identity onto the restriction to its
    domains, followed by a total morphism out of it (total and bijective on
    fibers, hence a pullback square).  Their composite is the original.
    ValueError naming the first failure unless m is a valid space morphism;
    then both parts are valid, and the second total, by construction."""
    failures = validate_space_morphism(m).failures
    if failures:
        raise ValueError(f"input morphism is invalid: {failures[0]}")
    sub, e_list, b_list = restrict_space(m.source, m.g.domain, m.h.domain)
    e_pos = {e: i for i, e in enumerate(e_list)}
    b_pos = {b: i for i, b in enumerate(b_list)}
    part_identity = SpaceMorphism(
        m.source, sub,
        PartialMap(m.g.domain, tuple(e_pos[e] for e in m.g.domain)),
        PartialMap(m.h.domain, tuple(b_pos[b] for b in m.h.domain)))
    pullback_part = SpaceMorphism(
        sub, m.target,
        PartialMap(tuple(range(len(e_list))), m.g.values),
        PartialMap(tuple(range(len(b_list))), m.h.values))
    if compose_space_morphisms(pullback_part, part_identity) != m:
        raise RuntimeError("decomposition does not compose back to the morphism")
    return part_identity, pullback_part


def classify_space_morphism(m):
    """Totality, semitotality, saturation of the domain, and the section
    lifting property: for every U in the target base, the g-preimages of
    the sections over exactly U cover the sections over exactly h^-1(U).
    m must be valid (RuntimeError otherwise, naming _decoded's first failure).

    Section lifting is a count.  A section over exactly U picks a point
    over each t in U, independently, and its preimage picks, over each x
    with h(x) = t, the point at[i] for the point i it picks over t.  So
    lifting at U is the product over t in U of one map per t, from the
    fiber over t into the product of the fibers over h^-1(t), and holds at
    every U exactly when each of these maps is onto (taking U = {t}; a
    product of onto maps is onto).  Over t in the image of h the map is
    one to one, as each at is, so it is onto exactly when |fiber(t)| is
    the product of |fiber(x)| over h(x) = t.  Over any other t it goes
    onto the one empty choice exactly when the fiber over t has a point."""
    sp, tp = m.source, m.target
    _pieces(m)
    total = len(m.g.domain) == sp.size_e and len(m.h.domain) == sp.size_b
    semitotal = len(m.h.domain) == sp.size_b
    # g lies over h, so it is defined at every point over dom h when it has as many
    saturated = len(m.g.domain) == sum(len(fibers(sp)[x]) for x in m.h.domain)
    over = {}                                   # t in the image: prod |fiber(x)|, h(x) = t
    for x, t in zip(m.h.domain, m.h.values):
        over[t] = over.get(t, 1) * len(fibers(sp)[x])
    lifting = all(len(f) == over[t] if t in over else len(f) > 0
                  for t, f in enumerate(fibers(tp)))
    return SpaceMorphismFlags(total=total, semitotal=semitotal, saturated=saturated,
                              section_lifting=lifting)


def is_partial_identity_up_to_iso(m):
    """True when both components map their domains bijectively onto the whole
    target, which makes the morphism an inclusion-of-restriction in disguise."""
    return (len(set(m.g.values)) == len(m.g.values) == m.target.size_e
            and len(set(m.h.values)) == len(m.h.values) == m.target.size_b)


@per_object
def classify_hom(f):
    """Algebraic counterparts of the space-morphism classes, as masks read
    off the target's product form (_order_keys), with I the image of f and
    J and K the <=-ideal and the ideal it generates.  leq_cofinal and
    preceq_cofinal: J, resp. K, is everything.  D_saturated: I holds each
    element with the support of a member (D is "same support").
    leq_ideal_inclusion: f is injective and I is <=-downward closed, that
    is, I == J, as I holds the zero and is closed under joins.
    image_ideal_preceq_closed: J is downward closed for the preorder; as K
    holds J, and such a J is an ideal holding I, that is J == K."""
    B = f.target
    J, K = _generated(B, f.map)
    supports = _order_keys(B)[0]
    image, image_supports = np.zeros((2, B.n), dtype=bool)
    image[list(f.map)] = True
    image_supports[supports[image]] = True      # supports are bit masks below 2^|fibers| <= n
    return HomFlags(leq_cofinal=bool(J.all()),
                    preceq_cofinal=bool(K.all()),
                    D_saturated=not (image_supports[supports] & ~image).any(),
                    leq_ideal_inclusion=(len(set(f.map)) == f.source.n
                                         and bool(np.array_equal(image, J))),
                    image_ideal_preceq_closed=bool(np.array_equal(J, K)))


def check_variant_dualities(f):
    """The five morphism-class equivalences, checked by comparing algebraic
    flags with the flags of the dual space morphism."""
    hf = classify_hom(f)
    dual = dual_of_hom(f)
    sf = classify_space_morphism(dual)
    return (hf.leq_cofinal == sf.total
            and hf.preceq_cofinal == sf.semitotal
            and hf.leq_ideal_inclusion == is_partial_identity_up_to_iso(dual)
            and hf.D_saturated == sf.section_lifting
            and hf.image_ideal_preceq_closed == sf.saturated)


def hom_factorization(f):
    """Factor a homomorphism through the order ideal generated by its image:
    a cofinal corestriction followed by an ideal inclusion."""
    members = leq_ideal_generated(f.target, set(f.map))
    sub, embedding = subalgebra_on(f.target, members)
    pos = {a: i for i, a in enumerate(embedding)}
    corestriction = Homomorphism(f.source, sub, tuple(pos[v] for v in f.map))
    inclusion = Homomorphism(sub, f.target, embedding)
    if compose_homs(inclusion, corestriction) != f:
        raise RuntimeError("factorization does not compose back to the homomorphism")
    if not classify_hom(corestriction).leq_cofinal:
        raise RuntimeError("first factor is not cofinal")
    if not classify_hom(inclusion).leq_ideal_inclusion:
        raise RuntimeError("second factor is not an ideal inclusion")
    return corestriction, inclusion
