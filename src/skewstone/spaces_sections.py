"""Finite skew Boolean spaces, their section algebras, and partial-map algebras.

A section of p : E -> B is a subset of E meeting each fiber at most once.
The sections of a space form a right-handed algebra; a fiberwise rectangular
band upgrades them to a two-sided one.  Partial maps X -> Y with a coherent
family of rectangular bands form the ambient algebra both constructions
restrict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product

from .core_algebra import (
    SizeCapError,
    ValidationReport,
    green_partitions,
    make_algebra,
    per_object,
    preceq_matrix,
)
from .ideals_spectra import fibers, make_space, saturate


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


def band_law_witness(table):
    """First violated rectangular-band law, or None: idempotency,
    associativity, and the rectangle identity x ^ y ^ z = x ^ z."""
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
                pos = {e: i for i, e in enumerate(f)}
                local = [[pos[sp.band[x][y]] for y in f] for x in f]
                bad = band_law_witness(local)
                if bad is not None:
                    law, w = bad
                    failures.append((law, tuple(f[i] for i in w)))
    return ValidationReport(ok=not failures, failures=tuple(failures))


def enumerate_sections(sp, max_sections=4096):
    """All sections as canonical sorted tuples, in lexicographic order.

    There are prod_b (1 + |fiber(b)|) of them.
    """
    count = 1
    for f in fibers(sp):
        count *= 1 + len(f)
        if count > max_sections:
            raise SizeCapError(f"more than {max_sections} sections")
    out = []
    for choice in product(*[(None,) + f for f in fibers(sp)]):
        out.append(tuple(sorted(e for e in choice if e is not None)))
    return tuple(sorted(out))


def _section_tools(sp, sections):
    index = {s: i for i, s in enumerate(sections)}
    sets = [frozenset(s) for s in sections]
    sats = [frozenset(saturate(sp, s)) for s in sections]
    over = [{sp.p[e]: e for e in s} for s in sections]
    return index, sets, sats, over


def dual_algebra_right(sp):
    """Right-handed section algebra of a plain space.

    With sigma the fiber saturation: S ^ R = sigma(S) & R,
    S v R = S | (R - sigma(S)), S \\ R = S - sigma(R), S cap R = S & R.
    Returns the algebra and the section labels (element i is labels[i]).
    """
    sections = enumerate_sections(sp)
    index, sets, sats, _ = _section_tools(sp, sections)
    n = len(sections)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    diff = [[0] * n for _ in range(n)]
    cap = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            meet[i][j] = index[tuple(sorted(sats[i] & sets[j]))]
            join[i][j] = index[tuple(sorted(sets[i] | (sets[j] - sats[i])))]
            diff[i][j] = index[tuple(sorted(sets[i] - sats[j]))]
            cap[i][j] = index[tuple(sorted(sets[i] & sets[j]))]
    return make_algebra(n, index[()], meet, join, diff, cap), sections


def dual_algebra_rect(sp):
    """Two-sided section algebra of a rectangular space.

    The meet combines the overlapping parts of two sections through the
    fiber band; join, complement and intersection only add set algebra:
    S ^ R = (S & sigma(R)) band (sigma(S) & R) fiberwise,
    S v R = (S - sigma(R)) | (R - sigma(S)) | (R ^ S).
    """
    if sp.band is None:
        raise ValueError("space carries no band; use dual_algebra_right")
    sections = enumerate_sections(sp)
    index, sets, sats, over = _section_tools(sp, sections)
    n = len(sections)

    def banded_meet(i, j):
        # one point per base point covered by both sections
        return frozenset(sp.band[over[i][b]][over[j][b]] for b in over[i] if b in over[j])

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    diff = [[0] * n for _ in range(n)]
    cap = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            meet[i][j] = index[tuple(sorted(banded_meet(i, j)))]
            join[i][j] = index[tuple(sorted((sets[i] - sats[j]) | (sets[j] - sats[i])
                                            | banded_meet(j, i)))]
            diff[i][j] = index[tuple(sorted(sets[i] - sats[j]))]
            cap[i][j] = index[tuple(sorted(sets[i] & sets[j]))]
    return make_algebra(n, index[()], meet, join, diff, cap), sections


@per_object
def dual_algebra(sp):
    """Section algebra matching the space kind: banded if a band is present."""
    if sp.band is None:
        return dual_algebra_right(sp)
    return dual_algebra_rect(sp)


def reflection_check(sp):
    """Verify that taking base images is the lattice reflection of the section
    algebra: a surjective {0, meet, join}-map onto the subsets of B whose
    kernel is the Green D relation, with the preorder matching image
    inclusion."""
    A, sections = dual_algebra(sp)
    img = [frozenset(sp.p[e] for e in s) for s in sections]
    if {frozenset(u) for u in img} != {frozenset(c) for k in range(sp.size_b + 1)
                                       for c in combinations(range(sp.size_b), k)}:
        return False
    if img[A.zero] != frozenset():
        return False
    for i in range(A.n):
        for j in range(A.n):
            if img[A.meet(i, j)] != img[i] & img[j]:
                return False
            if img[A.join(i, j)] != img[i] | img[j]:
                return False
    d = green_partitions(A)[0]
    pre = preceq_matrix(A)
    for i in range(A.n):
        for j in range(A.n):
            if (d.labels[i] == d.labels[j]) != (img[i] == img[j]):
                return False
            if pre[i][j] != (img[i] <= img[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# Partial-map algebras
# ---------------------------------------------------------------------------

def all_partial_maps(x_size, y_size, max_carrier=4096):
    """Every partial map X -> Y, sorted by (domain, values)."""
    if (y_size + 1) ** x_size > max_carrier:
        raise SizeCapError(f"more than {max_carrier} partial maps")
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


def validate_coherent_family(x_size, y_size, sand, max_carrier=4096):
    """Exhaustively check that a family commutes with restrictions: for
    E <= D and f, g defined on D, (f sand g)|E = f|E sand g|E.  Returns a
    witness (D, E, f, g) or None."""
    maps = all_partial_maps(x_size, y_size, max_carrier)
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


def _partial_map_tables(maps, sand):
    index = {f: i for i, f in enumerate(maps)}
    n = len(maps)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    diff = [[0] * n for _ in range(n)]
    cap = [[0] * n for _ in range(n)]
    for i, f in enumerate(maps):
        fd = set(f.domain)
        fg = f.graph()
        for j, g in enumerate(maps):
            gd = set(g.domain)
            common = fd & gd
            m = sand(f.restrict(common), g.restrict(common))
            meet[i][j] = index[m]
            w = sand(g.restrict(common), f.restrict(common))
            joined = dict(w.as_dict())
            joined.update({x: f(x) for x in fd - gd})
            joined.update({x: g(x) for x in gd - fd})
            join[i][j] = index[partial_map(joined)]
            diff[i][j] = index[f.restrict(fd - gd)]
            cap[i][j] = index[PartialMap(*zip(*sorted(fg & g.graph())) if fg & g.graph() else ((), ()))]
    zero = index[PartialMap((), ())]
    return make_algebra(n, zero, meet, join, diff, cap)


def partial_map_algebra(x_size, y_size, band, max_carrier=4096):
    """Skew algebra on all partial maps X -> Y, with the band applied
    pointwise on overlaps:
    f ^ g = f|c sand g|c on c = dom f & dom g,
    f v g = f|(F-G) | g|(G-F) | (g ^ f),
    f \\ g = f|(F-G), and cap is graph intersection.
    A pointwise lift commutes with restrictions by construction, so the
    family is coherent; the band laws themselves are checked here.
    """
    bad = band_law_witness(band.table)
    if bad is not None:
        raise ValueError(f"not a rectangular band: {bad[0]} at {bad[1]}")
    if band.m != y_size:
        raise ValueError("band size does not match the value set")
    maps = all_partial_maps(x_size, y_size, max_carrier)
    return _partial_map_tables(maps, pointwise_family(band)), maps


def partial_map_algebra_from_family(x_size, y_size, sand, max_carrier=4096):
    """Same construction for an arbitrary user-supplied family; the coherence
    equation is validated first."""
    witness = validate_coherent_family(x_size, y_size, sand, max_carrier)
    if witness is not None:
        raise ValueError(f"family is not coherent: witness {witness}")
    maps = all_partial_maps(x_size, y_size, max_carrier)
    return _partial_map_tables(maps, sand), maps


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
