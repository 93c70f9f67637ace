"""Finite skew Boolean spaces, their section algebras, and partial-map algebras.

A section of p : E -> B is a subset of E meeting each fiber at most once:
one independent choice per base point, either no point or a point of that
fiber.  All four operations act base point by base point through the fiber
band (a plain space carries the right band, and its sections form a
right-handed algebra; other bands give two-sided ones).  So the section
algebra is the product of tiny per-fiber algebras, and one builder makes it.
Partial maps X -> Y are the sections of X x Y -> X, so the partial-map
algebra of a coherent family of rectangular bands, the ambient algebra of
both constructions, comes out of the same builder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .core_algebra import (
    MAX_CARRIER,
    SizeCapError,
    SkewAlgebra,
    ValidationReport,
    _product_algebra,
    band_law_witness,
    green_partitions,
    per_object,
    preceq_matrix,
)
from .ideals_spectra import fibers, make_space


@dataclass(frozen=True)
class Section:
    """Subset of E on which the projection is injective."""

    points: tuple[int, ...]

    @classmethod
    def of(cls, sp, points):
        pts = tuple(sorted(set(points)))
        if not is_section(sp, pts):
            raise ValueError(f"{pts} is not a section: projection repeats a base point")
        return cls(pts)


def is_section(sp, points):
    seen = set()
    for e in points:
        b = sp.p[e]
        if b in seen:
            return False
        seen.add(b)
    return True


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

    def defined_at(self, x):
        return x in self.domain

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
    return BandOnY(tuple(tuple(y for y in range(m)) for _ in range(m)))


def left_band(m):
    return BandOnY(tuple(tuple(x for _ in range(m)) for x in range(m)))


def product_band(k_left, k_right):
    """Rectangular band on k_left * k_right points with k_left classes of the
    Green L relation and k_right classes of R.  Point r * k_left + l has
    coordinates (r, l); the operation keeps r from the left operand and l
    from the right one."""
    m = k_left * k_right
    table = []
    for e1 in range(m):
        r1 = e1 // k_left
        table.append(tuple(r1 * k_left + (e2 % k_left) for e2 in range(m)))
    return BandOnY(tuple(table))


# ---------------------------------------------------------------------------
# Space validation and sections
# ---------------------------------------------------------------------------

def validate_space(sp):
    """Check surjectivity and, when a band is present, that it is defined on
    exactly the fiber-diagonal pairs, stays inside fibers, and makes every
    fiber a rectangular band."""
    failures = []
    fib = fibers(sp)
    for b in range(sp.size_b):
        if not fib[b]:
            failures.append(("p_surjective", (b,)))
    if sp.band is not None:
        for x in range(sp.size_e):
            for y in range(sp.size_e):
                v = sp.band[x][y]
                same = sp.p[x] == sp.p[y]
                if (v is None) == same:
                    failures.append(("band_defined_iff_same_fiber", (x, y)))
                elif v is not None and sp.p[v] != sp.p[x]:
                    failures.append(("band_in_fiber", (x, y)))
        if not failures:
            for f in fib:
                bad = band_law_witness(_fiber_band(sp, f))
                if bad is not None:
                    law, w = bad
                    failures.append((law, tuple(f[i] for i in w)))
    return ValidationReport(ok=not failures, failures=tuple(failures))


def enumerate_sections(sp):
    """All sections as canonical sorted tuples, in lexicographic order.

    There are prod_b (1 + |fiber(b)|) of them, at most MAX_CARRIER.
    """
    count = 1
    for f in fibers(sp):
        count *= 1 + len(f)
        if count > MAX_CARRIER:
            raise SizeCapError(f"more than {MAX_CARRIER} sections")
    out = []
    for choice in product(*[(None,) + f for f in fibers(sp)]):
        out.append(tuple(sorted(e for e in choice if e is not None)))
    return tuple(sorted(out))


def _fiber_band(sp, fiber):
    """Band of one fiber as a table on the positions 0..|fiber|-1 of its
    points; a plain space carries the right band x y = y."""
    if sp.band is None:
        return [list(range(len(fiber)))] * len(fiber)
    pos = {e: i for i, e in enumerate(fiber)}
    return [[pos[sp.band[x][y]] for y in fiber] for x in fiber]


@per_object
def dual_algebra(sp):
    """Section algebra of a space, through its fiber bands (the right band on
    a plain space).  Returns the algebra and the section labels: element i
    is labels[i], in lexicographic order, so element 0 is the empty section.
    """
    sections = enumerate_sections(sp)
    fib = fibers(sp)
    digit = [0] * sp.size_e                      # 1 + the position of e in its fiber
    for f in fib:
        for i, e in enumerate(f):
            digit[e] = 1 + i
    digits = []
    for s in sections:
        row = [0] * len(fib)
        for e in s:
            row[sp.p[e]] = digit[e]
        digits.append(row)
    return _product_algebra([_fiber_band(sp, f) for f in fib], digits), sections


def reflection_check(sp):
    """Verify that taking base images is the lattice reflection of the section
    algebra: a surjective {0, meet, join}-map onto the subsets of B whose
    kernel is the Green D relation, with the preorder matching image
    inclusion.  Base images are bit sets, bit b for base point b, and each
    condition is one whole-table comparison.  The images can cover the
    subsets of B only when 2^|B| <= n <= MAX_CARRIER, so then every bit set
    fits in an int64."""
    A, sections = dual_algebra(sp)
    if A.n < 1 << sp.size_b:
        return False
    img = np.array([sum(1 << sp.p[e] for e in s) for s in sections], dtype=np.int64)
    if not np.array_equal(np.unique(img), np.arange(1 << sp.size_b)) or img[A.zero] != 0:
        return False
    i, j = img[:, None], img[None, :]
    if not (np.array_equal(np.take(img, A.meet_table), i & j)
            and np.array_equal(np.take(img, A.join_table), i | j)):
        return False
    d = np.asarray(green_partitions(A)[0].labels)
    return (np.array_equal(d[:, None] == d[None, :], i == j)
            and np.array_equal(preceq_matrix(A), (i & ~j) == 0))


# ---------------------------------------------------------------------------
# Partial-map algebras
# ---------------------------------------------------------------------------

def all_partial_maps(x_size, y_size):
    """Every partial map X -> Y, sorted by (domain, values); at most MAX_CARRIER."""
    if (y_size + 1) ** x_size > MAX_CARRIER:
        raise SizeCapError(f"more than {MAX_CARRIER} partial maps")
    maps = []
    for choice in product(*[(None,) + tuple(range(y_size)) for _ in range(x_size)]):
        dom = tuple(x for x, v in enumerate(choice) if v is not None)
        maps.append(PartialMap(dom, tuple(choice[x] for x in dom)))
    return tuple(sorted(maps, key=lambda f: (f.domain, f.values)))


def pointwise_family(band):
    """Coherent family induced by applying one band to values pointwise."""
    def sand(f, g):
        return PartialMap(f.domain, tuple(band(u, v) for u, v in zip(f.values, g.values)))
    return sand


def validate_coherent_family(x_size, y_size, sand):
    """Exhaustively check that a family commutes with restrictions: for
    E <= D and f, g defined on D, (f sand g)|E = f|E sand g|E.  Returns a
    witness (D, E, f, g) or None."""
    maps = all_partial_maps(x_size, y_size)
    by_domain = {}
    for f in maps:
        by_domain.setdefault(f.domain, []).append(f)
    for dom, fs in by_domain.items():
        subs = [tuple(c) for k in range(len(dom) + 1) for c in combinations(dom, k)]
        for f in fs:
            for g in fs:
                whole = sand(f, g)
                for sub in subs:
                    if whole.restrict(sub) != sand(f.restrict(sub), g.restrict(sub)):
                        return (dom, sub, f, g)
    return None


def partial_map_algebra(x_size, y_size, band):
    """Skew algebra on all partial maps X -> Y, with the band applied
    pointwise on overlaps:
    f ^ g = f|c sand g|c on c = dom f & dom g,
    f v g = f|(F-G) | g|(G-F) | (g ^ f),
    f \\ g = f|(F-G), and cap is graph intersection.
    These are the sections of X x Y -> X with the band on every fiber, so
    the algebra is built as one; the labels are in all_partial_maps order.
    A pointwise lift commutes with restrictions by construction, so the
    family is coherent; the band laws themselves are checked here.
    """
    bad = band_law_witness(band.table)
    if bad is not None:
        raise ValueError(f"not a rectangular band: {bad[0]} at {bad[1]}")
    if band.m != y_size:
        raise ValueError("band size does not match the value set")
    maps = all_partial_maps(x_size, y_size)
    return _product_algebra([band.table] * x_size, _map_digits(maps, x_size)), maps


def _map_digits(maps, x_size):
    """The digits of partial maps as sections of X x Y -> X: 1 + f(x) where
    f is defined at x, else 0."""
    digits = np.zeros((len(maps), x_size), dtype=np.int64)
    for k, f in enumerate(maps):
        digits[k, list(f.domain)] = np.add(f.values, 1)
    return digits


def partial_map_algebra_from_family(x_size, y_size, sand):
    """Same construction for an arbitrary user-supplied family; the coherence
    equation is validated first.  Coherence makes the family pointwise:
    f sand g applies at each x the table that the family gives on the
    singleton maps at x, which is read off here."""
    witness = validate_coherent_family(x_size, y_size, sand)
    if witness is not None:
        raise ValueError(f"family is not coherent: witness {witness}")
    maps = all_partial_maps(x_size, y_size)
    bands = []
    for x in range(x_size):
        table = [[sand(PartialMap((x,), (u,)), PartialMap((x,), (v,))) for v in range(y_size)]
                 for u in range(y_size)]
        for h in (h for row in table for h in row):
            if h.domain != (x,) or not 0 <= h.values[0] < y_size:
                raise ValueError(f"family gives no value table at {x}: "
                                 f"two maps defined at {x} alone give {h}")
        bands.append([[h.values[0] for h in row] for row in table])
    return _product_algebra(bands, _map_digits(maps, x_size)), maps


# ---------------------------------------------------------------------------
# Instance generator
# ---------------------------------------------------------------------------

def random_space(size_b, max_fiber, seed, band="none"):
    """Deterministic pseudorandom surjection with optional fiber band.

    band is one of "none", "right", "left", or ("product", k_left, k_right);
    product bands fix every fiber to the k_left * k_right grid (max_fiber is
    ignored in that case).  Identical arguments give identical spaces.
    """
    rng = random.Random(seed)
    if isinstance(band, tuple):
        kind, k_left, k_right = band
        if kind != "product":
            raise ValueError(f"unknown band kind {band!r}")
        sizes = [k_left * k_right] * size_b
    else:
        if band not in ("none", "right", "left"):
            raise ValueError(f"unknown band kind {band!r}")
        sizes = [rng.randint(1, max_fiber) for _ in range(size_b)]
    p = [b for b, s in enumerate(sizes) for _ in range(s)]
    rng.shuffle(p)
    size_e = len(p)
    if band == "none":
        return make_space(size_e, size_b, p)
    fib = [[] for _ in range(size_b)]
    for e, b in enumerate(p):
        fib[b].append(e)
    table = [[None] * size_e for _ in range(size_e)]
    for f in fib:
        pos = {e: i for i, e in enumerate(f)}
        for x in f:
            for y in f:
                if band == "right":
                    table[x][y] = y
                elif band == "left":
                    table[x][y] = x
                else:
                    _, k_left, _ = band
                    r = pos[x] // k_left
                    l = pos[y] % k_left
                    table[x][y] = f[r * k_left + l]
    return make_space(size_e, size_b, p, table)


# ---------------------------------------------------------------------------
# Isomorphism of spaces
# ---------------------------------------------------------------------------

def fiber_band_classes(sp, fiber):
    """R-classes and L-classes of one fiber band, ordered by least element."""
    def classes(rel):
        out = []
        for e in fiber:
            for c in out:
                if rel(c[0], e):
                    c.append(e)
                    break
            else:
                out.append([e])
        return out

    band = sp.band
    r_cls = classes(lambda x, y: band[x][y] == y and band[y][x] == x)
    l_cls = classes(lambda x, y: band[x][y] == x and band[y][x] == y)
    return r_cls, l_cls


def spaces_isomorphic(sp1, sp2):
    """Isomorphism (total E-bijection over a base bijection, preserving bands
    when present) between two spaces, or None.

    Rectangular fibers are matched through their R x L coordinates; the
    constructed candidate is verified in full before being returned.
    """
    if sp1.size_e != sp2.size_e or sp1.size_b != sp2.size_b:
        return None
    if (sp1.band is None) != (sp2.band is None):
        return None
    fib1, fib2 = fibers(sp1), fibers(sp2)

    def invariant(sp, f):
        if sp.band is None:
            return (len(f),)
        r_cls, l_cls = fiber_band_classes(sp, f)
        return (len(f), len(r_cls), len(l_cls))

    inv1 = sorted(range(sp1.size_b), key=lambda b: (invariant(sp1, fib1[b]), b))
    inv2 = sorted(range(sp2.size_b), key=lambda b: (invariant(sp2, fib2[b]), b))
    g_base = [0] * sp1.size_b
    g_total = [0] * sp1.size_e
    for b1, b2 in zip(inv1, inv2):
        f1, f2 = fib1[b1], fib2[b2]
        if invariant(sp1, f1) != invariant(sp2, f2):
            return None
        g_base[b1] = b2
        if sp1.band is None:
            for e1, e2 in zip(f1, f2):
                g_total[e1] = e2
        else:
            r1, l1 = fiber_band_classes(sp1, f1)
            r2, l2 = fiber_band_classes(sp2, f2)
            coord2 = {}
            for ri, rc in enumerate(r2):
                for e in rc:
                    coord2.setdefault(e, [None, None])[0] = ri
            for li, lc in enumerate(l2):
                for e in lc:
                    coord2.setdefault(e, [None, None])[1] = li
            target = {tuple(v): e for e, v in coord2.items()}
            for ri, rc in enumerate(r1):
                for e in rc:
                    li = next(i for i, lc in enumerate(l1) if e in lc)
                    g_total[e] = target[(ri, li)]
    if sorted(g_total) != list(range(sp1.size_e)):
        return None
    for e in range(sp1.size_e):
        if sp2.p[g_total[e]] != g_base[sp1.p[e]]:
            return None
    if sp1.band is not None:
        for x in range(sp1.size_e):
            for y in range(sp1.size_e):
                v = sp1.band[x][y]
                w = sp2.band[g_total[x]][g_total[y]]
                if (v is None) != (w is None):
                    return None
                if v is not None and g_total[v] != w:
                    return None
    return tuple(g_total), tuple(g_base)
