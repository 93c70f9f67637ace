"""Finite skew Boolean spaces, their section algebras, and partial-map algebras.

A section of p : E -> B is a subset of E meeting each fiber at most once:
one independent choice per base point, either no point or a point of that
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

import numpy as np

from .core_algebra import (
    MAX_CARRIER,
    SizeCapError,
    ValidationReport,
    _certified_form,
    _product_algebra,
    band_law_witness,
    per_object,
)
from .ideals_spectra import (
    RectSkewSpace,
    _row_points,
    _row_tuples,
    fiber_bands,
    fibers,
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


@dataclass(frozen=True)
class BandOnY:
    """Total rectangular band table on a value set."""

    table: tuple[tuple[int, ...], ...]

    @property
    def m(self):
        return len(self.table)

    def __call__(self, x, y):
        return self.table[x][y]


def right_band(m):
    """The right band x y = y on m points."""
    return product_band(m, 1)


def left_band(m):
    """The left band x y = x on m points."""
    return product_band(1, m)


def product_band(k_left, k_right):
    """Rectangular band on k_left * k_right points with k_left classes of the
    Green L relation and k_right classes of R.  Point r * k_left + l has
    coordinates (r, l); the operation keeps r from the left operand and l
    from the right one."""
    return BandOnY(tuple(map(tuple, _product_table(k_left, k_right).tolist())))


def _product_table(k_left, k_right):
    """product_band's table as an intp array."""
    e = np.arange(k_left * k_right)
    return (e // k_left * k_left)[:, None] + e % k_left


# ---------------------------------------------------------------------------
# Space validation and sections
# ---------------------------------------------------------------------------

def validate_space(sp):
    """Check surjectivity and, when a band is present, that it is defined on
    exactly the fiber-diagonal pairs, stays inside fibers, and makes every
    fiber a rectangular band.  The cells that break the first two are the
    space's stray cells (RectSkewSpace), in C order: a value inside a fiber
    that lies outside it fails band_in_fiber, any other
    band_defined_iff_same_fiber."""
    failures = [("p_surjective", (b,)) for b, f in enumerate(fibers(sp)) if not f]
    failures += [("band_in_fiber" if v is not None and sp.p[x] == sp.p[y]
                  else "band_defined_iff_same_fiber", (x, y)) for x, y, v in sp.stray]
    if sp.tables is not None and not failures:
        for f, bad in zip(fibers(sp), map(band_law_witness, fiber_bands(sp))):
            if bad is not None:
                failures.append((bad[0], tuple(f[i] for i in bad[1])))
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
    rows = _section_rows(sp)[0]
    return _product_algebra(fiber_bands(sp), rows), _row_tuples(sp, rows)


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
# Partial-map algebras
# ---------------------------------------------------------------------------

def partial_map_algebra(x_size, y_size, band):
    """Skew algebra on all partial maps X -> Y, with a band on the values
    applied pointwise on overlaps: band is one BandOnY for every point, or a
    sequence of x_size of them, bands[x] at the point x.
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
    applies the table it gives on the maps defined at x alone.  The band
    laws themselves are checked here.
    """
    single = isinstance(band, BandOnY)
    bands = [band] if single else list(band)
    if not single and len(bands) != x_size:
        raise ValueError(f"{len(bands)} bands for {x_size} points")
    for b in bands:
        bad = band_law_witness(b.table)
        if bad is not None:
            raise ValueError(f"not a rectangular band: {bad[0]} at {bad[1]}")
        if b.m != y_size:
            raise ValueError("band size does not match the value set")
    rows, _ = _mixed_rows([1 + y_size] * x_size, "partial maps")
    defined = np.argsort(rows == 0, axis=1, kind="stable")   # the domain first
    values = np.take_along_axis(rows, defined, axis=1) - 1
    present = values >= 0
    domains = np.where(present, defined, -1)
    order = np.lexsort(np.concatenate((domains, values), axis=1).T[::-1]) if x_size else [0]
    labels = tuple(PartialMap(tuple(d[:k]), tuple(v[:k])) for d, v, k in zip(
        domains[order].tolist(), values[order].tolist(), present[order].sum(axis=1).tolist()))
    tables = [band.table] * x_size if single else [b.table for b in bands]
    return _product_algebra(tables, rows[order]), labels


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
        tables = [_product_table(k_left, k_right)] * size_b
    else:
        if band not in ("none", "right", "left"):
            raise ValueError(f"unknown band kind {band!r}")
        if max_fiber < 1:
            raise ValueError(f"max_fiber must be at least 1, got {max_fiber}")
        sizes = [rng.randint(1, max_fiber) for _ in range(size_b)]
        tables = [_product_table(s, 1) if band == "right" else _product_table(1, s)
                  for s in sizes if band != "none"]
    p = [b for b, s in enumerate(sizes) for _ in range(s)]
    rng.shuffle(p)
    return RectSkewSpace(len(p), size_b, p, tables=None if band == "none" else tables)
