"""The test suite's oracles: each fast path of skewstone recomputed from the
paper's definitions, by pairwise loops, brute force or set formulas.

The rule: nothing here calls the code it checks.  From skewstone this
module imports only value types, exceptions, constructors and the candidate
budget (test_definitions.py holds it to that list), and it reads only the
public attributes of values: n, zero, the tables and the operations of an
algebra, size_e, size_b, p, tables, stray and band of a space, and the maps
of morphisms.  The facts the benchmark's checks already compute come from
perfbench/oracles.py, which imports nothing from skewstone: the section
algebra (build_section_algebra, sorted_labels, check_section_algebra), the
laws at one tuple (law_holds) and over the cube (first_violations), the band
shape of a fiber (fiber_classes) and the closed-form morphism count
(space_morphism_count, hom_count).  Fixtures, corpora and the route
comparisons that do call skewstone live in helpers.py.

Each fast path and its oracle:

  core_algebra
    validate_algebra .............. law_holds at every witness,
                                    first_violations (perfbench/oracles.py)
    _rectangle, band_law_witness .. rectangle_oracle, band_law_witness_oracle
    the glb law ................... glb_law_holds_oracle
    natural_leq, natural_preceq ... natural_leq_via_join, natural_preceq_via_join,
                                    leq_oracle, preceq_oracle
    green_partitions .............. green_partitions_oracle
    handedness .................... handedness_oracle
    is_congruence ................. is_congruence_oracle
    quotient_by ................... quotient_by_oracle
    glb_cap_table ................. glb_cap_table_oracle
    subalgebra_on ................. subalgebra_on_oracle
    second_decomposition_check .... second_decomposition_check_oracle
  ideals_spectra
    is_ideal ...................... is_ideal_oracle
    enumerate_prime_ideals ........ enumerate_prime_ideals_oracle,
                                    enumerate_prime_ideals_bruteforce
    ideal_congruence .............. ideal_congruence_oracle
    spectrum_data, skew_spectrum .. spectrum_data_oracle
    basic_copen ................... basic_copens_oracle
    spectrum_data's rows .......... basic_rows_oracle
    leq_ideal_generated ........... leq_ideal_generated_oracle
    preceq_ideal_generated ........ preceq_ideal_generated_oracle
  spaces_sections
    make_space, sp.band ........... band_rows_oracle, band_error_oracle
    fiber_bands ................... fiber_bands_error_oracle
    validate_space ................ validate_space_oracle
    dual_algebra, enumerate_sections  section_algebra
    partial_map_algebra ........... partial_map_oracle_tables,
                                    validate_coherent_family
    reflection_check .............. reflection_check_oracle
  morphisms_duality
    validate_hom .................. validate_hom_oracle
    enumerate_homs ................ enumerate_homs_search,
                                    enumerate_homs_bruteforce, hom_count
    algebras_isomorphic ........... algebras_isomorphic_search
    validate_space_morphism ....... validate_space_morphism_oracle
    enumerate_space_morphisms ..... enumerate_space_morphisms_search,
                                    space_morphism_count
    classify_space_morphism ....... classify_space_morphism_oracle
    hom_of_space_morphism ......... hom_of_space_morphism_oracle
    dual_of_hom ................... dual_of_hom_oracle
    classify_hom .................. classify_hom_oracle
  lattice_sections
    is_lattice_section ............ is_lattice_section_oracle
    find_lattice_section .......... find_lattice_section_oracle
    lattice_section_to_global ..... lattice_section_to_global_oracle
    global_section_to_lattice ..... global_section_to_lattice_oracle
  cli
    _hasse_edges (export-dot) ..... hasse_edges_oracle
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations, product

import numpy as np

from oracles import (
    OPS,
    build_section_algebra,
    fibers_of,
    first_violations,
    sorted_labels,
    tables_of,
)
from skewstone import (
    CongruenceError,
    HomFlags,
    Homomorphism,
    Ideal,
    PrimeIdeal,
    SizeCapError,
    SkewAlgebra,
    SpaceMorphism,
    SpaceMorphismFlags,
    StructuralError,
    ValidationReport,
    make_algebra,
    make_space,
)
from skewstone.core_algebra import MAX_CANDIDATES, partition_from_labels
from skewstone.ideals_spectra import SpectrumPoint
from skewstone.lattice_sections import GlobalSection, LatticeSection
from skewstone.spaces_sections import PartialMap, partial_map


# ---------------------------------------------------------------------------
# Spaces: the E x E band of the interchange format, read and written cell
# by cell, and morphisms between spaces as walks over points and fibers.
# ---------------------------------------------------------------------------

def saturate(sp, points):
    """Union of the fibers that meet the given set of E-points."""
    hit = {sp.p[e] for e in points}
    return tuple(e for e in range(sp.size_e) if sp.p[e] in hit)


def band_rows_oracle(sp):
    """sp.band from its definition, or None for a plain space: band[x][y]
    is the point of x's fiber at position tables[b][i][j] when x and y are
    its i-th and j-th points, None across fibers, and a stray cell's own
    value where the space keeps one."""
    if sp.tables is None:
        return None
    band = [[None] * sp.size_e for _ in range(sp.size_e)]
    for b in range(sp.size_b):
        f = [e for e in range(sp.size_e) if sp.p[e] == b]
        for i, x in enumerate(f):
            for j, y in enumerate(f):
                band[x][y] = f[int(sp.tables[b][i][j])]
    for x, y, v in sp.stray:
        band[x][y] = v
    return tuple(tuple(row) for row in band)


def band_error_oracle(size_e, band):
    """The StructuralError text make_space gives on an E x E band, or None:
    the walk over the rows, each for its length and then its entries,
    stopping at the first entry that is no int 0..E-1 and not None (a bool
    make_space refuses before, with TypeError)."""
    if len(band) != size_e:
        return "band has wrong number of rows"
    for x, row in enumerate(band):
        if len(row) != size_e:
            return f"band row {x} has wrong length"
        for v in row:
            if v is not None and not (isinstance(v, int) and not isinstance(v, bool)
                                      and 0 <= v < size_e):
                return f"band[{x}] contains invalid entry {v!r}"
    return None


def fiber_bands_error_oracle(size_e, size_b, p, band):
    """The ValueError text of fiber_bands on an E x E band, or None: the
    first pair of one fiber, by fiber and then in C order, whose product is
    None or a point of another fiber."""
    for b in range(size_b):
        f = [e for e in range(size_e) if p[e] == b]
        for x in f:
            for y in f:
                if band[x][y] not in f:
                    return f"band[{x}][{y}] = {band[x][y]!r} is not a point of the fiber over {b}"
    return None


def validate_space_oracle(size_e, size_b, p, band):
    """validate_space's failures by the pairwise walk over an E x E band
    (None for a plain space): p_surjective by base point, then
    band_defined_iff_same_fiber and band_in_fiber over every pair (x, y) in
    C order, then, only if none failed, the first band law each fiber's
    table breaks (band_law_witness_oracle)."""
    failures = [("p_surjective", (b,)) for b in range(size_b) if b not in p]
    if band is None:
        return tuple(failures)
    for x in range(size_e):
        for y in range(size_e):
            v = band[x][y]
            same = p[x] == p[y]
            if (v is None) == same:
                failures.append(("band_defined_iff_same_fiber", (x, y)))
            elif v is not None and p[v] != p[x]:
                failures.append(("band_in_fiber", (x, y)))
    if not failures:
        for b in range(size_b):
            f = [e for e in range(size_e) if p[e] == b]
            bad = band_law_witness_oracle([[f.index(band[x][y]) for y in f] for x in f])
            if bad is not None:
                failures.append((bad[0], tuple(f[i] for i in bad[1])))
    return tuple(failures)


def band_law_witness_oracle(table):
    """Oracle for band_law_witness: the first violated law among
    idempotency, associativity and the rectangle identity x y z = x z,
    searched over every element and every triple."""
    m = len(table)
    for x in range(m):
        if table[x][x] != x:
            return ("band_idempotent", (x,))
    for x, y, z in product(range(m), repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return ("band_associative", (x, y, z))
        if table[table[x][y]][z] != table[x][z]:
            return ("band_rectangular", (x, y, z))
    return None


def validate_space_morphism_oracle(m):
    """Oracle for validate_space_morphism: the walk over every point of g,
    every base point of h and every pair of points of g in one fiber, with
    a plain space's band read as the right band x y = y."""
    sp, tp = m.source, m.target
    sizes = ((m.g.domain, sp.size_e), (m.g.values, tp.size_e),
             (m.h.domain, sp.size_b), (m.h.values, tp.size_b))
    if any(not 0 <= v < size for values, size in sizes for v in values):
        raise StructuralError("morphism maps reference out-of-range points")
    failures = []
    g, h = m.g.as_dict(), m.h.as_dict()
    src_fib, tgt_fib = fibers_of(sp), fibers_of(tp)
    for y, gy in g.items():
        if sp.p[y] not in h or tp.p[gy] != h[sp.p[y]]:
            failures.append(("square_commutes", (y,)))
    for x, hx in h.items():
        # the sorted image of the piece over x, repeats kept, is the fiber over hx
        if sorted(g[y] for y in src_fib[x] if y in g) != tgt_fib[hx]:
            failures.append(("fiber_bijection", (x,)))
    if sp.band is not None or tp.band is not None:
        band = lambda space, x, y: y if space.band is None else space.band[x][y]
        for y1 in g:
            for y2 in (y for y in src_fib[sp.p[y1]] if y in g):
                v = band(sp, y1, y2)
                if v not in g or g[v] != band(tp, g[y1], g[y2]):
                    failures.append(("band_preserved", (y1, y2)))
    return ValidationReport(ok=not failures, failures=tuple(failures))


def enumerate_space_morphisms_search(sp, tp, max_candidates=MAX_CANDIDATES):
    """Oracle for enumerate_space_morphisms: every partial base map, and
    over it every combination of injections of a piece of each source fiber
    onto its target fiber, kept when validate_space_morphism_oracle accepts it.
    The base map is one candidate, each combination one more; SizeCapError
    past max_candidates of them."""
    src_fib, tgt_fib = fibers_of(sp), fibers_of(tp)
    out = []
    tried = 0
    for h_choice in product(*[(None,) + tuple(range(tp.size_b)) for _ in range(sp.size_b)]):
        h = {x: v for x, v in enumerate(h_choice) if v is not None}
        options = [[dict(zip(chosen, tgt_fib[hx]))
                    for chosen in permutations(src_fib[x], len(tgt_fib[hx]))]
                   for x, hx in h.items()]
        for combo in chain([None], product(*options)):
            tried += 1
            if tried > max_candidates:
                raise SizeCapError(f"space morphism search tried more than {max_candidates} "
                                   "candidate assignments (partial base maps and fiber-map "
                                   "combinations)")
            if combo is None:
                continue
            g = {}
            for piece in combo:
                g.update(piece)
            cand = SpaceMorphism(sp, tp, partial_map(g), partial_map(h))
            if validate_space_morphism_oracle(cand).ok:
                out.append(cand)
    return tuple(sorted(out, key=lambda m: (m.h.domain, m.h.values, m.g.domain, m.g.values)))


def _sections_above(sp, base_points):
    """All sections whose base image is exactly the given set."""
    pools = [fibers_of(sp)[x] for x in base_points]
    if any(not pool for pool in pools):
        return []
    return [tuple(sorted(choice)) for choice in product(*pools)]


def classify_space_morphism_oracle(m):
    """Oracle for classify_space_morphism: totality, semitotality and
    saturation from the domains, and section lifting by a walk over every
    subset U of the target base, which every source section over h^-1(U)
    must be the g-preimage of a target section over U."""
    sp, tp = m.source, m.target
    g, h = m.g.as_dict(), m.h.as_dict()
    lifting = True
    for U in chain.from_iterable(combinations(range(tp.size_b), k)
                                 for k in range(tp.size_b + 1)):
        pre_base = tuple(sorted(x for x, hx in h.items() if hx in U))
        lifts = {tuple(sorted(y for y, gy in g.items() if gy in r))
                 for r in _sections_above(tp, U)}
        if any(s not in lifts for s in _sections_above(sp, pre_base)):
            lifting = False
            break
    return SpaceMorphismFlags(
        total=len(m.g.domain) == sp.size_e and len(m.h.domain) == sp.size_b,
        semitotal=len(m.h.domain) == sp.size_b,
        saturated=set(m.g.domain) == {y for y in range(sp.size_e) if sp.p[y] in h},
        section_lifting=lifting)


# ---------------------------------------------------------------------------
# Section algebras, built by the benchmark's oracles, and partial maps as
# dicts, with operations written from their set-theoretic definitions.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def section_algebra(sp):
    """The section algebra of sp as the benchmark's oracles build it
    (build_section_algebra, by mixed-radix digits from the fiber bands, a
    plain fiber read as the right band x y = y), with its sections as
    sorted point tuples in sorted order (sorted_labels): the algebra and
    the labels dual_algebra gives.  Memoized per space value."""
    tables, zero = build_section_algebra(sp)
    algebra = SkewAlgebra(len(tables["meet"]), zero, *(tables[name] for name in OPS))
    return algebra, tuple(sorted_labels(sp))


def hom_of_space_morphism_oracle(m):
    """Oracle for hom_of_space_morphism: each target section's preimage under
    g as a sorted tuple, looked up among the source's sections, with its base
    image checked against the h-preimage of the section's base image, in
    the section algebras of section_algebra.
    RuntimeError where either check fails or the map is not a homomorphism."""
    A_src, src_sections = section_algebra(m.source)
    A_tgt, tgt_sections = section_algebra(m.target)
    src_index = {s: i for i, s in enumerate(src_sections)}
    g, h = m.g.as_dict(), m.h.as_dict()
    image = []
    for s in tgt_sections:
        sset = set(s)
        pre = tuple(sorted(y for y, gy in g.items() if gy in sset))
        if pre not in src_index:
            raise RuntimeError(f"preimage {pre} of a section is not a section")
        base_pre = sorted({m.source.p[y] for y in pre})
        base_s = {m.target.p[e] for e in s}
        if base_pre != sorted(x for x, hx in h.items() if hx in base_s):
            raise RuntimeError("preimage does not respect base inverse images")
        image.append(src_index[pre])
    f = Homomorphism(A_tgt, A_src, tuple(image))
    if not validate_hom_oracle(f).ok:
        raise RuntimeError("dual homomorphism invalid")
    return f


def reflection_check_oracle(sp):
    """Oracle for reflection_check: base images as frozensets, every
    condition checked pair by pair, on the section algebra of
    section_algebra."""
    A, sections = section_algebra(sp)
    img = [frozenset(sp.p[e] for e in s) for s in sections]
    if set(img) != {frozenset(c) for k in range(sp.size_b + 1)
                    for c in combinations(range(sp.size_b), k)}:
        return False
    if img[A.zero] != frozenset():
        return False
    for i in A.elements:
        for j in A.elements:
            if img[A.meet(i, j)] != img[i] & img[j]:
                return False
            if img[A.join(i, j)] != img[i] | img[j]:
                return False
    d, pre = green_partitions_oracle(A)[0], preceq_oracle(A)
    for i in A.elements:
        for j in A.elements:
            if (d.labels[i] == d.labels[j]) != (img[i] == img[j]):
                return False
            if pre[i, j] != (img[i] <= img[j]):
                return False
    return True


def _o_meet(f, g, bands):
    return {x: int(bands[x][f[x]][g[x]]) for x in f if x in g}


def _o_join(f, g, bands):
    out = {x: v for x, v in f.items() if x not in g}
    out.update((x, v) for x, v in g.items() if x not in f)
    out.update(_o_meet(g, f, bands))
    return out


def _o_diff(f, g, bands):
    return {x: f[x] for x in f if x not in g}


def _o_cap(f, g, bands):
    return {x: f[x] for x in f if x in g and g[x] == f[x]}


def all_partial_maps(x_size, y_size):
    """Every partial map X -> Y, one choice of None or a value per point,
    sorted by (domain, values)."""
    maps = []
    for choice in product(*[(None,) + tuple(range(y_size)) for _ in range(x_size)]):
        dom = tuple(x for x, v in enumerate(choice) if v is not None)
        maps.append(PartialMap(dom, tuple(choice[x] for x in dom)))
    return tuple(sorted(maps, key=lambda f: (f.domain, f.values)))


def partial_map_oracle_tables(x_size, y_size, bands=None):
    """Operation tables of the partial-map algebra with band bands[x], an
    m x m table, at point x (by default the right band everywhere) computed
    by a from-scratch dict implementation, over the canonical carrier order."""
    if bands is None:
        bands = [[range(y_size)] * y_size] * x_size
    maps = all_partial_maps(x_size, y_size)
    dicts = [m.as_dict() for m in maps]
    index = {tuple(sorted(d.items())): i for i, d in enumerate(dicts)}
    look = lambda d: index[tuple(sorted(d.items()))]
    n = len(maps)
    tables = {}
    for name, op in (("meet", _o_meet), ("join", _o_join),
                     ("diff", _o_diff), ("cap", _o_cap)):
        tables[name] = tuple(tuple(look(op(dicts[i], dicts[j], bands)) for j in range(n))
                             for i in range(n))
    return maps, tables


def validate_coherent_family(x_size, y_size, sand):
    """Oracle for the coherence of a family: exhaustively check that it
    commutes with restrictions, for E <= D and f, g defined on D,
    (f sand g)|E = f|E sand g|E.  Returns a witness (D, E, f, g) or None."""
    by_domain = {}
    for f in all_partial_maps(x_size, y_size):
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


# ---------------------------------------------------------------------------
# The natural order, Green's relations and the certificate's pieces, each
# read off the tables from its definition.
# ---------------------------------------------------------------------------

def leq_oracle(A):
    """The natural partial order of A from its definition on the meet
    table, as an n x n boolean array: [x, y] is True when x ^ y = y ^ x = x."""
    M = np.asarray(A.meet_table)
    x = np.arange(A.n)[:, None]
    return (M == x) & (M.T == x)


def preceq_oracle(A):
    """The natural preorder of A from its definition on the meet table, as
    an n x n boolean array: [x, y] is True when x ^ y ^ x = x.  Made a block
    of rows at a time, so no n x n index array is held."""
    M, n = A.meet_table, A.n
    out = np.empty((n, n), dtype=bool)
    for lo in range(0, n, 256):
        x = np.arange(lo, min(n, lo + 256))[:, None]
        out[lo:lo + 256] = M[M[lo:lo + 256], x] == x
    return out


def natural_leq_via_join(A, x, y):
    """Equivalent join formulation: x v y = y v x = y."""
    return A.join(x, y) == y and A.join(y, x) == y


def natural_preceq_via_join(A, x, y):
    """Equivalent join formulation: y v x v y = y."""
    return A.join(A.join(y, x), y) == y


def hasse_edges_oracle(A):
    """Oracle for cli._hasse_edges, which reads the covers off the digit
    codec of A's product form: the strict pairs x < y of leq_oracle with no
    w strictly between them, each pair tested against a column, in C order."""
    strict = leq_oracle(A) & ~np.eye(A.n, dtype=bool)
    return [(x, y) for x, y in np.argwhere(strict).tolist()
            if not (strict[x] & strict[:, y]).any()]


def _classes(related):
    """The partition of an equivalence given as an n x n boolean array, each
    element labelled by the least element related to it (0 if none)."""
    return partition_from_labels(np.argmax(related, axis=1).tolist())


def green_d_oracle(A):
    """Green's D from its definition: x D y when each lies below the other
    in the natural preorder (preceq_oracle)."""
    pre = preceq_oracle(A)
    return _classes(pre & pre.T)


def is_congruence_oracle(A, part, op_names=("meet", "join", "diff")):
    """Oracle for is_congruence: one row and one column per block member."""
    lab = np.asarray(part.labels, dtype=np.int64)
    for name in op_names:
        T = np.asarray(getattr(A, name + "_table"), dtype=np.int64)
        LT = lab[T]
        for block in part.blocks:
            base = block[0]
            for x in block[1:]:
                bad = np.nonzero(LT[x] != LT[base])[0]
                if len(bad):
                    return (name, base, x, int(bad[0]))
                bad = np.nonzero(LT[:, x] != LT[:, base])[0]
                if len(bad):
                    return (name, base, x, int(bad[0]))
    return None


def green_partitions_oracle(A):
    """Oracle for green_partitions: each relation read off the meet table
    from its definition, D by green_d_oracle, x L y when x ^ y = x and
    y ^ x = y, x R y when x ^ y = y and y ^ x = x, each element labelled by
    the least member of its class (0 if it has none), then checked with
    is_congruence_oracle in the order D, L, R."""
    M = A.meet_table
    x, y = np.arange(A.n)[:, None], np.arange(A.n)[None, :]
    d, l, r = green_d_oracle(A), _classes((M == x) & (M.T == y)), _classes((M == y) & (M.T == x))
    for name, part in (("D", d), ("L", l), ("R", r)):
        bad = is_congruence_oracle(A, part)
        if bad is not None:
            raise CongruenceError(f"green {name} / {bad[0]}", bad[1:])
    return d, l, r


def handedness_oracle(A):
    """Oracle for handedness: the identities x ^ y = y ^ x, then
    x ^ y ^ x = y ^ x and x ^ y ^ x = x ^ y, tested on the whole meet table."""
    M = A.meet_table
    if np.array_equal(M, M.T):
        return "commutative"
    xyx = M[M, np.arange(A.n)[:, None]]          # [x, y]: x ^ y ^ x
    if np.array_equal(xyx, M.T):
        return "right"
    if np.array_equal(xyx, M):
        return "left"
    return "neither"


def glb_cap_table_oracle(n, meet, join):
    """Oracle for glb_cap_table: for each pair, its lower bounds listed and
    folded with join, then the fold checked against each of them."""
    leq = [[meet[x][y] == x and meet[y][x] == x for y in range(n)] for x in range(n)]
    cap = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            lower = [z for z in range(n) if leq[z][x] and leq[z][y]]
            if not lower:
                raise ValueError(f"no common lower bound for ({x}, {y})")
            m = lower[0]
            for u in lower[1:]:
                m = join[m][u]
            if not (leq[m][x] and leq[m][y] and all(leq[u][m] for u in lower)):
                raise ValueError(f"no greatest lower bound for ({x}, {y})")
            cap[x][y] = m
    return cap


def glb_law_holds_oracle(A):
    """Oracle for the glb law: x cap y lies above every z below both x and
    y, checked for every z, one row x at a time with the z below each
    element as packed bits."""
    M, C = A.meet_table, A.cap_table
    rows = np.arange(A.n)[:, None]
    below = np.packbits(((M == rows) & (M.T == rows)).T, axis=1)
    return not any(((below[x] & below) & ~below[C[x]]).any() for x in range(A.n))


def rectangle_oracle(T):
    """Oracle for core_algebra._rectangle, which decodes a table as a
    rectangular band: each x is placed at (T[x, 0], T[0, x]) in an m x m
    placement grid, and T is a band exactly when the places are one to one,
    the rows used times the columns used is m, and T[x, y] is the element
    placed at (T[x, 0], T[0, y]).  It returns (row, col, grid) as the
    decode does, or None."""
    m = len(T)
    if m == 0 or T.shape != (m, m) or T.dtype.kind not in "iu" or T.min() < 0 or T.max() >= m:
        return None
    row, col = T[:, 0], T[0]
    at = np.full((m, m), -1)
    at[row, col] = np.arange(m)
    placed = at >= 0
    if not (np.count_nonzero(placed) == m
            and np.count_nonzero(placed.any(axis=1)) * np.count_nonzero(placed.any(axis=0)) == m
            and np.array_equal(T, at[row[:, None], col])):
        return None
    row, col = (np.array(partition_from_labels(keys.tolist()).labels) for keys in (row, col))
    grid = np.empty((1 + row.max(), 1 + col.max()), dtype=np.intp)
    grid[row, col] = np.arange(m)
    for array in (row, col, grid):
        array.setflags(write=False)
    return row, col, grid


# ---------------------------------------------------------------------------
# Quotients, subalgebras and the pullback of the Green quotients.
# ---------------------------------------------------------------------------

def quotient_by_oracle(A, part):
    """Oracle for quotient_by: the congruence check of is_congruence_oracle,
    then each quotient table entry read pair by pair at the least block
    representatives."""
    bad = is_congruence_oracle(A, part)
    if bad is not None:
        raise CongruenceError(bad[0], bad[1:])
    reps = [block[0] for block in part.blocks]
    k = len(reps)
    lab = part.labels
    table = lambda f: [[lab[f(reps[i], reps[j])] for j in range(k)] for i in range(k)]
    meet, join, diff = table(A.meet), table(A.join), table(A.diff)
    if is_congruence_oracle(A, part, ("cap",)) is None:
        cap = table(A.cap)
    else:
        cap = glb_cap_table_oracle(k, meet, join)
    return make_algebra(k, lab[A.zero], meet, join, diff, cap), tuple(lab)


def subalgebra_on_oracle(A, subset):
    """Oracle for subalgebra_on: closure checked pair by pair, operation by
    operation, then the tables reindexed entry by entry."""
    members = tuple(sorted(set(subset)))
    if A.zero not in members:
        raise ValueError("subset does not contain zero")
    pos = {a: i for i, a in enumerate(members)}
    for op in ("meet", "join", "diff", "cap"):
        f = getattr(A, op)
        for x in members:
            for y in members:
                if f(x, y) not in pos:
                    raise ValueError(f"subset not closed under {op} at ({x}, {y})")
    table = lambda f: [[pos[f(x, y)] for y in members] for x in members]
    sub = make_algebra(len(members), pos[A.zero], table(A.meet), table(A.join),
                       table(A.diff), table(A.cap))
    return sub, members


def second_decomposition_check_oracle(A):
    """Oracle for second_decomposition_check: the pullback of the Green
    quotients (built by quotient_by_oracle) as pairs, its tables and the
    canonical map's preservation checked pair by pair, and the pullback's
    laws on the whole cube (first_violations)."""
    d, l, r = green_partitions_oracle(A)
    AR, to_r = quotient_by_oracle(A, r)
    AL, to_l = quotient_by_oracle(A, l)
    AD, to_d = quotient_by_oracle(A, d)
    r_to_d = [to_d[block[0]] for block in r.blocks]
    l_to_d = [to_d[block[0]] for block in l.blocks]
    pairs = [(i, j) for i in range(AR.n) for j in range(AL.n) if r_to_d[i] == l_to_d[j]]
    index = {p: k for k, p in enumerate(pairs)}
    canon = [index.get((to_r[a], to_l[a])) for a in A.elements]
    if None in canon or len(set(canon)) != len(pairs) or len(pairs) != A.n:
        return False
    inverse = [0] * A.n
    for a, k in enumerate(canon):
        inverse[k] = a
    k_n = len(pairs)
    table = lambda fr, fl: [[index[(fr(pairs[i][0], pairs[j][0]), fl(pairs[i][1], pairs[j][1]))]
                             for j in range(k_n)] for i in range(k_n)]
    cap = [[canon[A.cap(inverse[i], inverse[j])] for j in range(k_n)] for i in range(k_n)]
    try:
        pullback = make_algebra(k_n, canon[A.zero], table(AR.meet, AL.meet),
                                table(AR.join, AL.join), table(AR.diff, AL.diff), cap)
    except StructuralError:
        return False
    if first_violations(tables_of(pullback), pullback.zero):
        return False
    return all(canon[getattr(A, op)(x, y)] == getattr(pullback, op)(canon[x], canon[y])
               for x in A.elements for y in A.elements for op in ("meet", "join", "diff"))


# ---------------------------------------------------------------------------
# Ideals, prime ideals, their congruences and the spectrum, by pairwise
# loops and brute force over subsets.
# ---------------------------------------------------------------------------

def join_closure_oracle(A, seed):
    """The closure of seed under join, as the generated-ideal oracles take
    it: join every closed element with every new one, both ways, until
    nothing new appears."""
    closed = set(seed)
    frontier = list(closed)
    while frontier:
        fresh = []
        for x in tuple(closed):
            for y in frontier:
                for v in (A.join(x, y), A.join(y, x)):
                    if v not in closed:
                        closed.add(v)
                        fresh.append(v)
        frontier = fresh
    return tuple(sorted(closed))


def _down_closure_oracle(A, related, subset):
    """The zero and every y with related[y, s] for some s of the subset."""
    down = {A.zero}
    for s in set(subset):
        down.update(y for y in A.elements if related[y, s])
    return down


def leq_ideal_generated_oracle(A, subset):
    """Oracle for leq_ideal_generated: downclose element by element, then
    join-close."""
    return join_closure_oracle(A, _down_closure_oracle(A, leq_oracle(A), subset))


def preceq_ideal_generated_oracle(A, subset):
    """Oracle for preceq_ideal_generated: preorder downclose element by
    element, join-close, then check the result is an ideal."""
    members = join_closure_oracle(A, _down_closure_oracle(A, preceq_oracle(A), subset))
    if not is_ideal_oracle(A, members):
        raise RuntimeError(f"generated set {members} is not an ideal")
    return Ideal(members)


def is_ideal_oracle(A, members):
    """Oracle for is_ideal: preorder-downward closed (preceq_oracle, pair by
    pair), join closed, contains zero."""
    mem = set(members)
    if A.zero not in mem:
        return False
    pre = preceq_oracle(A)
    for x in mem:
        for y in A.elements:
            if y not in mem and pre[y, x]:
                return False
    for x in mem:
        for y in mem:
            if A.join(x, y) not in mem:
                return False
    return True


def enumerate_ideals(A, max_n=16):
    """Oracle: all ideals by brute force over subsets (exponential; capped)."""
    if A.n > max_n:
        raise SizeCapError(f"n={A.n} exceeds brute-force cap {max_n}")
    rest = [x for x in A.elements if x != A.zero]
    found = []
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            cand = tuple(sorted((A.zero,) + extra))
            if is_ideal_oracle(A, cand):
                found.append(Ideal(cand))
    return tuple(sorted(found, key=lambda i: i.members))


def _is_prime_members(A, members):
    mem = set(members)
    if len(mem) == A.n:
        return False
    for a in A.elements:
        for b in A.elements:
            if A.meet(a, b) in mem and a not in mem and b not in mem:
                return False
    return True


def enumerate_prime_ideals_bruteforce(A, max_n=16):
    """Oracle for enumerate_prime_ideals: filter the brute-force ideal
    enumeration for primality."""
    return tuple(PrimeIdeal(i.members, k) for k, i in enumerate(
        i for i in enumerate_ideals(A, max_n=max_n) if _is_prime_members(A, i.members)))


def enumerate_prime_ideals_oracle(A):
    """Oracle for enumerate_prime_ideals: the candidates pulled back from the
    atoms of A/D, checked pair by pair.  A/D is built from the pairwise Green
    D and its order read through joins, so nothing here reads the product
    form."""
    Q, to_d = quotient_by_oracle(A, green_partitions_oracle(A)[0])
    leq_q = lambda x, y: natural_leq_via_join(Q, x, y)
    nonzero = [x for x in Q.elements if x != Q.zero]
    atoms = [a for a in nonzero if not any(leq_q(b, a) and b != a for b in nonzero)]
    found = []
    for atom in atoms:
        members = tuple(x for x in A.elements if not leq_q(atom, to_d[x]))
        found.append(members)
    found.sort()
    primes = []
    for k, members in enumerate(found):
        mem = set(members)
        if not is_ideal_oracle(A, members):
            raise RuntimeError(f"enumerated prime candidate {members} is not an ideal")
        if not any(x not in mem for x in A.elements):
            raise RuntimeError(f"prime candidate {members} is trivial")
        for x in A.elements:
            for y in A.elements:
                if ((A.meet(x, y) not in mem) != (x not in mem and y not in mem)) or \
                   ((A.join(x, y) not in mem) != (x not in mem or y not in mem)):
                    raise RuntimeError(
                        f"prime candidate {members} fails the lattice-map "
                        f"characterization at ({x}, {y})")
        primes.append(PrimeIdeal(members, k))
    return tuple(primes)


def ideal_congruence_oracle(A, ideal):
    """Oracle for ideal_congruence: greedy classes by the pairwise relation."""
    members = ideal.members if isinstance(ideal, (Ideal, PrimeIdeal)) else tuple(ideal)
    if not is_ideal_oracle(A, members):
        raise ValueError(f"{members} is not an ideal")
    mem = set(members)

    def related(x, y):
        c = A.cap(x, y)
        return A.join(A.diff(x, c), A.diff(y, c)) in mem

    reps = []
    labels = []
    for x in A.elements:
        for i, r in enumerate(reps):
            if related(r, x):
                labels.append(i)
                break
        else:
            labels.append(len(reps))
            reps.append(x)
    part = partition_from_labels(labels)
    for x in A.elements:
        for y in A.elements:
            if related(x, y) != (part.labels[x] == part.labels[y]):
                raise ValueError(f"congruence formula is not transitive at ({x}, {y})")
    bad = is_congruence_oracle(A, part, op_names=("meet", "join", "diff", "cap"))
    if bad is not None:
        raise ValueError(f"ideal congruence failed compatibility: {bad}")
    zero_class = part.blocks[part.labels[A.zero]]
    if set(zero_class) != mem:
        raise ValueError("zero class of the ideal congruence differs from the ideal")
    return part


@dataclass(frozen=True)
class OracleSpectrum:
    """spectrum_data_oracle's record: the primes, their congruences (thetas),
    the space, the points, and label_index[prime, label], the point of the
    class with that label."""

    primes: tuple
    thetas: tuple
    space: object
    points: tuple
    label_index: dict

    def point_of(self, prime_index, element):
        """E-index of the point (prime, class of element); element not in P."""
        return self.label_index[prime_index, self.thetas[prime_index].labels[element]]


@lru_cache(maxsize=512)
def spectrum_data_oracle(A):
    """Oracle for spectrum_data: the primes and their congruences by the
    pairwise oracles, a point for each class outside its prime, at its least
    element, and the band filled pair by pair with the meet of those.  It
    reads nothing of spectrum_data, and returns its own record type,
    memoized per algebra value (SkewAlgebra hashes its tables)."""
    primes = enumerate_prime_ideals_oracle(A)
    thetas = tuple(ideal_congruence_oracle(A, prime) for prime in primes)
    points, label_index = [], {}
    for pi, theta in enumerate(thetas):
        for label, block in enumerate(theta.blocks):
            if A.zero not in block:
                label_index[pi, label] = len(points)
                points.append(SpectrumPoint(prime=pi, rep=block[0]))
    band = [[label_index[s.prime, thetas[s.prime].labels[A.meet(s.rep, t.rep)]]
             if s.prime == t.prime else None for t in points] for s in points]
    space = make_space(len(points), len(primes), [pt.prime for pt in points], band)
    return OracleSpectrum(primes=primes, thetas=thetas, space=space,
                          points=tuple(points), label_index=label_index)


def basic_copens_oracle(A, sd):
    """Oracle for basic_copen on every element, given the oracle's spectrum
    sd of A (spectrum_data_oracle): for each element, the point of its class over every prime it is
    not in."""
    return tuple(tuple(sorted(sd.label_index[pi, theta.labels[a]]
                              for pi, (prime, theta) in enumerate(zip(sd.primes, sd.thetas))
                              if a not in prime.members))
                 for a in A.elements)


def basic_rows_oracle(A, sd):
    """The basic rows of A given the oracle's spectrum sd of A
    (spectrum_data_oracle): over prime pi, 0 on the prime, else 1 + the
    position of the element's class among the points of that fiber."""
    start = {}
    for e, pt in enumerate(sd.points):
        start.setdefault(pt.prime, e)
    return [[0 if a in prime.members else 1 + sd.point_of(pi, a) - start[pi]
             for pi, prime in enumerate(sd.primes)] for a in A.elements]


# ---------------------------------------------------------------------------
# Homomorphisms: the pairwise check, searches over maps, and the duals.
# ---------------------------------------------------------------------------

def validate_hom_oracle(f):
    """Oracle for validate_hom: the pairwise loop, first witness in C order."""
    A, B, m = f.source, f.target, f.map
    failures = []
    if m[A.zero] != B.zero:
        failures.append(("preserves_zero", (A.zero,)))
    for name in ("meet", "join", "diff", "cap"):
        fa, fb = getattr(A, name), getattr(B, name)
        witness = next(((x, y) for x in A.elements for y in A.elements
                        if m[fa(x, y)] != fb(m[x], m[y])), None)
        if witness is not None:
            failures.append((f"preserves_{name}", witness))
    return ValidationReport(ok=not failures, failures=tuple(failures))


def enumerate_homs_bruteforce(A, B, max_candidates=10 ** 4):
    """Oracle for enumerate_homs: try every map and keep the ones that validate."""
    if B.n ** A.n > max_candidates:
        raise SizeCapError(f"{B.n}^{A.n} candidate maps exceed {max_candidates}")
    out = []
    for image in product(range(B.n), repeat=A.n):
        f = Homomorphism(A, B, image)
        if validate_hom_oracle(f).ok:
            out.append(f)
    return tuple(out)


def enumerate_homs_search(A, B, max_candidates=10 ** 6):
    """Oracle for enumerate_homs: backtracking over the elements of A.

    Elements are assigned in index order; each operation instance is checked
    as soon as its arguments and result are all assigned, which prunes most
    of the |B|^|A| raw candidates.  Output is in lexicographic map order.
    Every value tried for an element is one candidate assignment; the search
    raises SizeCapError once it has tried more than max_candidates.
    """
    ops = [(getattr(A, name), getattr(B, name)) for name in ("meet", "join", "diff", "cap")]
    # constraints[(k)] lists (op_idx, i, j) checkable once element k is assigned
    constraints = [[] for _ in range(A.n)]
    for oi, (fa, _) in enumerate(ops):
        for i in range(A.n):
            for j in range(A.n):
                constraints[max(i, j, fa(i, j))].append((oi, i, j))
    image = [0] * A.n
    found = []
    tried = 0

    def extend(k):
        nonlocal tried
        if k == A.n:
            found.append(Homomorphism(A, B, tuple(image)))
            return
        options = (B.zero,) if k == A.zero else range(B.n)
        for v in options:
            tried += 1
            if tried > max_candidates:
                raise SizeCapError(f"hom search tried more than {max_candidates} candidate "
                                   f"assignments; it had reached element {k} of {A.n}")
            image[k] = v
            if all(image[ops[oi][0](i, j)] == ops[oi][1](image[i], image[j])
                   for oi, i, j in constraints[k]):
                extend(k + 1)

    try:
        extend(0)
    finally:
        del extend  # it refers to itself through its cell: break that cycle
    return tuple(found)


def _iso_invariants(A):
    leq, pre = leq_oracle(A), preceq_oracle(A)
    d, l, r = green_partitions_oracle(A)
    out = []
    for x in A.elements:
        out.append((x == A.zero,
                    sum(leq[y][x] for y in A.elements),
                    sum(leq[x][y] for y in A.elements),
                    sum(pre[y][x] for y in A.elements),
                    sum(pre[x][y] for y in A.elements),
                    len(d.blocks[d.labels[x]]),
                    len(l.blocks[l.labels[x]]),
                    len(r.blocks[r.labels[x]])))
    return out


def algebras_isomorphic_search(A, B):
    """Oracle for algebras_isomorphic: find an isomorphism A -> B (zero to
    zero, all four operations), or None.

    Canonical invariant vectors prune the backtracking search, so symmetric
    instances do not blow up factorially.
    """
    if A.n != B.n:
        return None
    inv_a = _iso_invariants(A)
    inv_b = _iso_invariants(B)
    if sorted(inv_a) != sorted(inv_b):
        return None
    candidates = [[y for y in B.elements if inv_b[y] == inv_a[x]] for x in A.elements]
    ops = [(getattr(A, op), getattr(B, op)) for op in ("meet", "join", "diff", "cap")]
    assignment = [None] * A.n
    used = [False] * B.n

    def extend(k):
        if k == A.n:
            return True
        for y in candidates[k]:
            if used[y]:
                continue
            assignment[k] = y
            ok = True
            for fa, fb in ops:
                for j in range(k + 1):
                    img = assignment[j]
                    for a, b, c, d_ in ((k, j, y, img), (j, k, img, y)):
                        v = fa(a, b)
                        if v <= k and assignment[v] != fb(c, d_):
                            ok = False
                            break
                        if v > k and fb(c, d_) in assignment[:k + 1]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                used[y] = True
                if extend(k + 1):
                    return True
                used[y] = False
        assignment[k] = None
        return False

    found = extend(0)
    del extend  # it refers to itself through its cell: break that cycle
    return tuple(assignment) if found else None


def dual_of_hom_oracle(f):
    """Oracle for dual_of_hom: each prime's preimage as a sorted member
    tuple, looked up among the source's primes, and each point's candidates
    in the source found by a scan of its elements."""
    sd_a = spectrum_data_oracle(f.source)
    sd_b = spectrum_data_oracle(f.target)
    prime_index_a = {p.members: p.index for p in sd_a.primes}
    carrier = set(f.source.elements)
    h = {}
    for pj, prime in enumerate(sd_b.primes):
        mem = set(prime.members)
        pre = tuple(sorted(x for x in carrier if f.map[x] in mem))
        if len(pre) < f.source.n:
            if pre not in prime_index_a:
                raise RuntimeError(f"preimage {pre} of a prime is not prime")
            h[pj] = prime_index_a[pre]
    g = {}
    for e, pt in enumerate(sd_b.points):
        pj = pt.prime
        if pj not in h:
            continue
        theta_b = sd_b.thetas[pj]
        mem = set(sd_b.primes[pj].members)
        cands = [a for a in f.source.elements
                 if f.map[a] not in mem and theta_b.labels[f.map[a]] == theta_b.labels[pt.rep]]
        if not cands:
            continue
        pi = h[pj]
        theta_a = sd_a.thetas[pi]
        if len({theta_a.labels[a] for a in cands}) != 1:
            raise RuntimeError("dual point is not well defined")
        g[e] = sd_a.point_of(pi, cands[0])
    morphism = SpaceMorphism(sd_b.space, sd_a.space, partial_map(g), partial_map(h))
    report = validate_space_morphism_oracle(morphism)
    if not report.ok:
        raise RuntimeError(f"dual morphism invalid: {report.failures}")
    return morphism


def classify_hom_oracle(f):
    """Oracle for classify_hom: each flag as a set comprehension over pairs."""
    B = f.target
    image = set(f.map)
    ideal = set(leq_ideal_generated_oracle(B, image))
    leq_cofinal = len(ideal) == B.n
    preceq_cofinal = len(preceq_ideal_generated_oracle(B, image).members) == B.n
    d = green_partitions_oracle(B)[0]
    image_classes = {d.labels[v] for v in image}
    d_saturated = all(b in image for b in B.elements if d.labels[b] in image_classes)
    leq, pre = leq_oracle(B), preceq_oracle(B)
    down_closed = all(y in image for y in B.elements for v in image if leq[y, v])
    injective = len(image) == f.source.n
    ideal_pre_closed = all(y in ideal for x in ideal for y in B.elements
                           if pre[y, x])
    return HomFlags(leq_cofinal=leq_cofinal,
                    preceq_cofinal=preceq_cofinal,
                    D_saturated=d_saturated,
                    leq_ideal_inclusion=injective and down_closed,
                    image_ideal_preceq_closed=ideal_pre_closed)


# ---------------------------------------------------------------------------
# Lattice sections, class pair by class pair.
# ---------------------------------------------------------------------------

def _class_tables(A):
    """Green's D of A and the meet and join tables of A/D, gathered from A's
    own tables at the least class members (int32, k x k)."""
    d = green_d_oracle(A)
    reps = [block[0] for block in d.blocks]
    labels = np.asarray(d.labels, dtype=np.int32)
    return d, [labels[getattr(A, op)[np.ix_(reps, reps)]] for op in ("meet_table", "join_table")]


def is_lattice_section_oracle(A, choice):
    """Oracle for is_lattice_section, class pair by class pair: one element
    of A per D-class, in class order, the zero's class choosing the zero,
    and c_i ^ c_j = c_(i ^ j) and c_i v c_j = c_(i v j) for every pair of
    classes i, j, read in A/D's tables (_class_tables)."""
    d, tables = _class_tables(A)
    if len(choice) != len(d.blocks):
        return False
    for i, c in enumerate(choice):
        if (not isinstance(c, (int, np.integer)) or isinstance(c, bool)
                or not 0 <= c < A.n or d.labels[c] != i):
            return False
    if choice[d.labels[A.zero]] != A.zero:
        return False
    c = np.asarray(choice, dtype=np.intp)
    return all(np.array_equal(getattr(A, op)[np.ix_(c, c)], c[Q])
               for op, Q in zip(("meet_table", "join_table"), tables))


def find_lattice_section_oracle(A):
    """Oracle for find_lattice_section: depth-first search over per-class
    choices, least candidates first, pruning as soon as a meet or join of
    chosen elements leaves the partial choice.  Returns the first section
    found, or None.  The search keeps its own stack, one candidate index per
    class, so its depth is not bounded by Python's recursion limit."""
    kind = handedness_oracle(A)
    if kind not in ("right", "commutative"):
        raise ValueError(f"lattice-section search needs a right-handed algebra, got {kind}")
    d, tables = _class_tables(A)
    k = len(d.blocks)
    # per table of A: the class pairs (i, j) with the class q of i . j, as
    # the columns of one (3, k * k) array sorted by the last of i, j and q
    # to be filled, and where the run of each class t starts; a run is
    # checked when its class is filled.  The triples are int16 while every
    # class fits, and each table's are built in place, its sort keys freed
    # before the next table's
    dtype = np.int16 if k <= np.iinfo(np.int16).max else np.int32
    r = np.arange(k, dtype=dtype)
    checks = []
    for op in ("meet_table", "join_table"):
        Q = tables.pop(0).ravel()
        last = np.maximum.outer(r, r).ravel()
        np.maximum(last, Q, out=last, casting="unsafe")
        order = np.argsort(last, kind="stable")
        starts = np.searchsorted(last, np.arange(k + 1), sorter=order).tolist()
        triples = np.empty((3, k * k), dtype=dtype)
        np.divmod(order, k, out=(triples[0], triples[1]), casting="unsafe")
        np.take(Q, order, out=triples[2], mode="clip")   # in range: clip writes unbuffered
        del Q, last, order
        checks.append((getattr(A, op), triples, starts))
    choice = np.zeros(k, dtype=np.intp)

    def consistent(t):
        for T, triples, starts in checks:
            x, y, q = choice[triples[:, starts[t]:starts[t + 1]]]
            if not (T[x, y] == q).all():
                return False
        return True

    candidates = [(A.zero,) if t == d.labels[A.zero] else d.blocks[t] for t in range(k)]
    tried = [0] * k                  # next candidate to try at each class
    t = 0
    while 0 <= t < k:
        if tried[t] == len(candidates[t]):
            tried[t] = 0
            t -= 1
            continue
        choice[t] = candidates[t][tried[t]]
        tried[t] += 1
        if consistent(t):
            t += 1
    if t < 0:
        return None
    section = LatticeSection(tuple(choice.tolist()))
    if not is_lattice_section_oracle(A, section.choice):
        raise RuntimeError("search returned a non-section")
    return section


def lattice_section_to_global_oracle(A, section):
    """Oracle for lattice_section_to_global: the basic sections as point
    sets (basic_copens_oracle), each class's base as a set of primes, and
    each chosen piece checked against the top class's piece restricted to
    that base."""
    sd = spectrum_data_oracle(A)
    base_of = [frozenset(pi for pi, p in enumerate(sd.primes) if block[0] not in p.members)
               for block in green_d_oracle(A).blocks]
    top = base_of.index(frozenset(range(len(sd.primes))))
    basic = basic_copens_oracle(A, sd)
    copens = [frozenset(basic[c]) for c in section.choice]
    for i, base in enumerate(base_of):
        if copens[i] != frozenset(e for e in copens[top] if sd.space.p[e] in base):
            raise ValueError(f"local sections disagree above classes ({i}, {top})")
    points = sorted(frozenset().union(*copens)) if copens else []
    if sorted(sd.space.p[e] for e in points) != list(range(sd.space.size_b)):
        raise ValueError("glued section does not hit every fiber exactly once")
    return GlobalSection(tuple(points))


def global_section_to_lattice_oracle(A, section):
    """Oracle for global_section_to_lattice: each class's piece of the
    section as a sorted point tuple, looked up among the basic sections."""
    sd = spectrum_data_oracle(A)
    d = green_d_oracle(A)
    element_of = {copen: a for a, copen in enumerate(basic_copens_oracle(A, sd))}
    pts = set(section.points)
    choice = []
    for i, block in enumerate(d.blocks):
        above = frozenset(pi for pi, p in enumerate(sd.primes) if block[0] not in p.members)
        piece = tuple(sorted(e for e in pts if sd.space.p[e] in above))
        if piece not in element_of:
            raise ValueError(f"restriction of the section above class {i} is not basic")
        choice.append(element_of[piece])
    if not is_lattice_section_oracle(A, choice):
        raise ValueError("converted choice is not a lattice section")
    return LatticeSection(tuple(choice))
