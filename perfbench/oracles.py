"""Independent checks for the benchmark's outputs.

Nothing here calls into skewstone: every check is recomputed from the
paper's definitions with plain Python and NumPy, so a fault in the program
cannot hide behind the same fault in its checker.  The only things read from
the program are the public attributes of its values (``n``, ``zero``, the
``*_table`` tuples, ``size_e``, ``size_b``, ``p`` and ``band``).
"""

from __future__ import annotations

from itertools import product
from math import prod

import numpy as np

OPS = ("meet", "join", "diff", "cap")

AXIOMS = (
    "meet_idempotent", "join_idempotent", "meet_associative", "join_associative",
    "absorb_meet_over_join_left", "absorb_meet_over_join_right",
    "absorb_join_over_meet_left", "absorb_join_over_meet_right",
    "meet_distributes_left", "meet_distributes_right", "zero_neutral_join",
    "complement_meet_zero", "complement_join_restore", "cap_is_lower_bound",
    "cap_is_greatest_lower_bound", "cap_commutative", "cap_associative",
    "cap_idempotent",
)


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent computation."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Spaces: fibers, band classes and counting formulas
# ---------------------------------------------------------------------------

def fibers_of(sp):
    out = [[] for _ in range(sp.size_b)]
    for e, b in enumerate(sp.p):
        out[b].append(e)
    return out


def fiber_classes(sp):
    """Per fiber, (size, R-classes, L-classes) of its band.  A plain space
    behaves as a right band (x y = y): one R-class, every point its own
    L-class.  x R y iff xy = y and yx = x; x L y iff xy = x and yx = y."""
    out = []
    for f in fibers_of(sp):
        if sp.band is None:
            out.append((len(f), 1, len(f)))
            continue
        band = sp.band

        def count(rel):
            reps = []
            for e in f:
                if not any(rel(r, e) for r in reps):
                    reps.append(e)
            return len(reps)

        r = count(lambda x, y: band[x][y] == y and band[y][x] == x)
        l = count(lambda x, y: band[x][y] == x and band[y][x] == y)
        out.append((len(f), r, l))
    return out


def section_count(sizes):
    """n = prod over base points of (1 + |fiber|)."""
    return prod(1 + s for s in sizes)


def falling(a, b):
    """a! / (a - b)!, the number of injections of a b-set into an a-set."""
    return prod(range(a - b + 1, a + 1)) if 0 <= b <= a else 0


def embeddings(src, dst):
    """Band embeddings of a rectangular fiber src = (size, R, L) into dst:
    sub-rectangles of dst times isomorphisms, which act on rows and columns
    independently."""
    return falling(dst[1], src[1]) * falling(dst[2], src[2])


def space_morphism_count(src, dst):
    """Number of space morphisms src -> dst: a partial base map h, and over
    each x in its domain a band isomorphism from a sub-band of the fiber
    over x onto the fiber over h(x).  Sum over h of the product of fiber
    counts, which factorizes over the source base points.  Holds for two
    plain or two banded spaces: the program checks bands only when both
    spaces carry one."""
    a, b = fiber_classes(src), fiber_classes(dst)
    return prod(1 + sum(embeddings(fy, fx) for fy in b) for fx in a)


def hom_count(x_space, y_space):
    """|Hom(Sec X, Sec Y)| = number of space morphisms Y -> X (the duality
    reverses arrows)."""
    return space_morphism_count(y_space, x_space)


def expected_handedness(sp):
    """Handedness of the section algebra from the band kind of the fibers."""
    cls = fiber_classes(sp)
    if all(s == 1 for s, _, _ in cls):
        return "commutative"
    if all(r == 1 for _, r, _ in cls):
        return "right"
    if all(l == 1 for _, _, l in cls):
        return "left"
    return "neither"


def green_block_sizes(sp):
    """Expected sorted block sizes of Green's D, L and R on the section
    algebra.  The D-class of a section is its base image U; inside it two
    sections are R- (L-) related iff they are in every fiber of U."""
    cls = fiber_classes(sp)
    d, l, r = [], [], []
    for mask in product((0, 1), repeat=len(cls)):
        chosen = [c for c, keep in zip(cls, mask) if keep]
        size = prod(s for s, _, _ in chosen)
        d.append(size)
        r += [prod(s // rc for s, rc, _ in chosen)] * prod(rc for _, rc, _ in chosen)
        l += [prod(s // lc for s, _, lc in chosen)] * prod(lc for _, _, lc in chosen)
    return sorted(d), sorted(l), sorted(r)


def brute_sections(sp):
    """Every subset of E on which p is injective (oracle for the n formula)."""
    out = []
    for mask in range(1 << sp.size_e):
        pts = [e for e in range(sp.size_e) if mask >> e & 1]
        if len({sp.p[e] for e in pts}) == len(pts):
            out.append(tuple(pts))
    return out


def brute_space_morphisms(src, dst):
    """Count space morphisms by trying every partial map g on total spaces;
    h is forced by g because fibers are non-empty."""
    fs, ft = fibers_of(src), fibers_of(dst)
    count = 0
    for choice in product((None,) + tuple(range(dst.size_e)), repeat=src.size_e):
        h = {}
        ok = True
        for y, v in enumerate(choice):
            if v is None:
                continue
            x, hx = src.p[y], dst.p[v]
            if h.setdefault(x, hx) != hx:
                ok = False
                break
        if not ok:
            continue
        for x, hx in h.items():
            piece = [choice[y] for y in fs[x] if choice[y] is not None]
            if sorted(piece) != ft[hx]:
                ok = False
                break
            if src.band is not None and dst.band is not None:
                for y1 in fs[x]:
                    for y2 in fs[x]:
                        if choice[y1] is None or choice[y2] is None:
                            continue
                        v = choice[src.band[y1][y2]]
                        if v is None or v != dst.band[choice[y1]][choice[y2]]:
                            ok = False
        count += ok
    return count


# ---------------------------------------------------------------------------
# Section algebras, built and checked coordinatewise
# ---------------------------------------------------------------------------

def _local_bands(sp):
    """Per fiber, the band as a table on fiber positions 0..f-1."""
    out = []
    for f in fibers_of(sp):
        pos = {e: i for i, e in enumerate(f)}
        if sp.band is None:
            out.append(np.tile(np.arange(len(f)), (len(f), 1)))
        else:
            out.append(np.array([[pos[sp.band[x][y]] for y in f] for x in f],
                                dtype=np.int64).reshape(len(f), len(f)))
    return out


def _digit_tables(sp):
    """Per fiber, the four operations on digits 0 (absent) .. f (a point):
    meet = band(s, r) where both are present; join keeps a lone point and
    combines two as band(r, s); diff keeps s where r is absent; cap keeps s
    where both agree.  These are the section formulas read one base point
    at a time."""
    out = []
    for lb in _local_bands(sp):
        f = len(lb)
        d = np.arange(f + 1)
        s, r = d[:, None], d[None, :]
        both = (s > 0) & (r > 0)
        band = np.zeros((f + 1, f + 1), dtype=np.int64)
        band[1:, 1:] = lb + 1
        meet = np.where(both, band, 0)
        join = np.where(r == 0, s, np.where(s == 0, r, band.T))
        diff = np.where(r == 0, s, 0)
        cap = np.where(s == r, s, 0)
        out.append({"meet": meet, "join": join, "diff": diff, "cap": cap})
    return out


def section_digits(sp, labels):
    """Digit matrix of the program's section labels: row i gives, per base
    point, 0 or 1 + the position of the chosen point in its fiber."""
    fib = fibers_of(sp)
    pos = {e: i for f in fib for i, e in enumerate(f)}
    n = section_count(len(f) for f in fib)
    require(len(labels) == n, f"{len(labels)} section labels, expected {n}")
    digits = np.zeros((n, sp.size_b), dtype=np.int64)
    for i, s in enumerate(labels):
        require(list(s) == sorted(set(s)), f"label {i} is not a sorted set")
        bases = [sp.p[e] for e in s]
        require(len(set(bases)) == len(bases), f"label {i} repeats a base point")
        for e in s:
            digits[i, sp.p[e]] = pos[e] + 1
    require(len({tuple(r) for r in digits.tolist()}) == n, "section labels repeat")
    return digits


def check_section_algebra(sp, tables, zero, labels):
    """Every table entry of the program's section algebra must be the
    section the coordinatewise formulas give, read through its labels."""
    digits = section_digits(sp, labels)
    require(not digits[zero].any(), "zero is not the empty section")
    for b, ops in enumerate(_digit_tables(sp)):
        col = digits[:, b]
        for name in OPS:
            want = ops[name][col[:, None], col[None, :]]
            got = col[tables[name]]
            require(np.array_equal(got, want), f"{name} table disagrees at base point {b}")


def build_section_algebra(sp):
    """The section algebra built from scratch by mixed-radix digits, then
    renumbered so that elements are in the order of their sections as sorted
    tuples (element 0 is the empty section).  Returns (tables, zero)."""
    sizes = [len(f) for f in fibers_of(sp)]
    radix = [prod(1 + s for s in sizes[:b]) for b in range(len(sizes))]
    n = section_count(sizes)
    codes = np.arange(n)
    tables = {name: np.zeros((n, n), dtype=np.int64) for name in OPS}
    for b, ops in enumerate(_digit_tables(sp)):
        col = codes // radix[b] % (1 + sizes[b])
        for name in OPS:
            tables[name] += ops[name][col[:, None], col[None, :]] * radix[b]
    labels = _code_labels(sp)
    order = np.array(sorted(range(n), key=labels.__getitem__), dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return {name: rank[t[order][:, order]] for name, t in tables.items()}, 0


def _code_labels(sp):
    """Section of each mixed-radix code, as a sorted tuple."""
    fib = fibers_of(sp)
    return [tuple(sorted(f[d - 1] for f, d in zip(fib, digits) if d))
            for digits in (tuple(reversed(c)) for c in
                           product(*[range(1 + len(f)) for f in reversed(fib)]))]


def sorted_labels(sp):
    """Section of each element of build_section_algebra."""
    return sorted(_code_labels(sp))


def tables_of(A):
    return {name: np.asarray(getattr(A, name + "_table"), dtype=np.int64) for name in OPS}


# ---------------------------------------------------------------------------
# Homomorphisms and isomorphisms
# ---------------------------------------------------------------------------

def is_hom(src, src_zero, dst, dst_zero, mapping):
    m = np.asarray(mapping, dtype=np.int64)
    if m.shape != (len(src["meet"]),) or m.min() < 0 or m.max() >= len(dst["meet"]):
        return False
    if m[src_zero] != dst_zero:
        return False
    return all(np.array_equal(m[src[name]], dst[name][m[:, None], m[None, :]])
               for name in OPS)


def check_iso(src, src_zero, dst, dst_zero, mapping, what):
    require(sorted(mapping) == list(range(len(src["meet"]))), f"{what}: map is not a bijection")
    require(len(dst["meet"]) == len(src["meet"]), f"{what}: carriers differ in size")
    require(is_hom(src, src_zero, dst, dst_zero, mapping), f"{what}: map is not a homomorphism")


def check_space_iso(sp, tp, g, h, what):
    """(g, h) : sp -> tp is a bijection on points and on base points that
    commutes with the projections and carries the band of sp (or, for a
    plain sp, the right band) onto the band of tp."""
    require(sorted(g) == list(range(sp.size_e)) and tp.size_e == sp.size_e,
            f"{what}: point map is not a bijection")
    require(sorted(h) == list(range(sp.size_b)) and tp.size_b == sp.size_b,
            f"{what}: base map is not a bijection")
    for e in range(sp.size_e):
        require(tp.p[g[e]] == h[sp.p[e]], f"{what}: square fails at point {e}")
    require(tp.band is not None, f"{what}: target carries no band")
    for f in fibers_of(sp):
        for x in f:
            for y in f:
                v = y if sp.band is None else sp.band[x][y]
                require(g[v] == tp.band[g[x]][g[y]], f"{what}: band not preserved at {(x, y)}")


def check_spectrum(sp, space, points, what):
    """The spectrum of Sec(sp) has |B| primes, |E| points, and fibers whose
    sizes and band class counts match those of sp."""
    require(space.size_b == sp.size_b, f"{what}: {space.size_b} primes, expected {sp.size_b}")
    require(space.size_e == sp.size_e and len(points) == sp.size_e,
            f"{what}: {space.size_e} points, expected {sp.size_e}")
    require(sorted(fiber_classes(space)) == sorted(fiber_classes(sp)),
            f"{what}: fiber sizes or band classes differ from the input space")
    for x in range(space.size_e):
        for y in range(space.size_e):
            same = space.p[x] == space.p[y]
            v = space.band[x][y]
            require((v is not None) == same and (v is None or space.p[v] == space.p[x]),
                    f"{what}: band undefined inside a fiber or defined across fibers")


# ---------------------------------------------------------------------------
# The axioms, pointwise and over the whole cube
# ---------------------------------------------------------------------------

def _leq(t, a, b):
    M = t["meet"]
    return (M[a, b] == a) & (M[b, a] == a)


def law_holds(t, zero, law, w):
    """One axiom at one tuple; works on ints or broadcast index arrays."""
    M, J, D, C = t["meet"], t["join"], t["diff"], t["cap"]
    x = w[0]
    y = w[1] if len(w) > 1 else None
    z = w[2] if len(w) > 2 else None
    if law == "meet_idempotent":
        return M[x, x] == x
    if law == "join_idempotent":
        return J[x, x] == x
    if law == "cap_idempotent":
        return C[x, x] == x
    if law == "zero_neutral_join":
        return (J[zero, x] == x) & (J[x, zero] == x)
    if law == "absorb_meet_over_join_left":
        return M[x, J[x, y]] == x
    if law == "absorb_meet_over_join_right":
        return M[J[y, x], x] == x
    if law == "absorb_join_over_meet_left":
        return J[x, M[x, y]] == x
    if law == "absorb_join_over_meet_right":
        return J[M[y, x], x] == x
    if law == "complement_meet_zero":
        return M[D[x, y], M[M[x, y], x]] == zero
    if law == "complement_join_restore":
        return J[D[x, y], M[M[x, y], x]] == x
    if law == "cap_is_lower_bound":
        return _leq(t, C[x, y], x) & _leq(t, C[x, y], y)
    if law == "cap_commutative":
        return C[x, y] == C[y, x]
    if law == "meet_associative":
        return M[M[x, y], z] == M[x, M[y, z]]
    if law == "join_associative":
        return J[J[x, y], z] == J[x, J[y, z]]
    if law == "cap_associative":
        return C[C[x, y], z] == C[x, C[y, z]]
    if law == "meet_distributes_left":
        return M[x, J[y, z]] == J[M[x, y], M[x, z]]
    if law == "meet_distributes_right":
        return M[J[y, z], x] == J[M[y, x], M[z, x]]
    if law == "cap_is_greatest_lower_bound":
        return ~(_leq(t, z, x) & _leq(t, z, y)) | _leq(t, z, C[x, y])
    if law == "normal_band":
        u = w[3]
        return M[M[M[x, y], z], u] == M[M[M[x, z], y], u]
    if law == "regular_join_band":
        return J[J[J[J[x, y], x], z], x] == J[J[J[x, y], z], x]
    raise KeyError(law)


ARITY = {law: 1 for law in ("meet_idempotent", "join_idempotent", "cap_idempotent",
                            "zero_neutral_join")}
ARITY.update({law: 3 for law in ("meet_associative", "join_associative", "cap_associative",
                                 "meet_distributes_left", "meet_distributes_right",
                                 "cap_is_greatest_lower_bound", "regular_join_band")})
ARITY["normal_band"] = 4


def first_violations(t, zero):
    """For every axiom, the first violating tuple in C order, by evaluating
    the law on the whole n^arity cube.  Meant for small n (27^3 tuples)."""
    n = len(t["meet"])
    out = {}
    for law in AXIOMS:
        k = ARITY.get(law, 2)
        grid = np.indices((n,) * k)
        holds = np.broadcast_to(law_holds(t, zero, law, tuple(grid)), (n,) * k)
        bad = np.argwhere(~holds)
        if len(bad):
            out[law] = tuple(int(v) for v in bad[0])
    return out


def check_report_on_mutant(t, zero, report, what):
    """A mutated table must be rejected; for n <= 27 every reported law and
    first witness must equal the brute-force search, and every witness
    (failure or warning) must violate its law when evaluated here."""
    require(not report.ok, f"{what}: mutated table accepted")
    for law, w in tuple(report.failures) + tuple(report.warnings):
        require(not law_holds(t, zero, law, tuple(w)), f"{what}: {law} holds at reported {w}")
    if len(t["meet"]) <= 27:
        got = {law: tuple(w) for law, w in report.failures}
        require(got == first_violations(t, zero), f"{what}: witnesses differ from brute force")


def mutate(t, rng):
    """Copy of the tables with one seeded entry changed."""
    n = len(t["meet"])
    name = rng.choice(OPS)
    x, y = rng.randrange(n), rng.randrange(n)
    v = rng.choice([u for u in range(n) if u != t[name][x, y]])
    out = {k: v_.copy() for k, v_ in t.items()}
    out[name][x, y] = v
    return out


# ---------------------------------------------------------------------------
# Lattice sections
# ---------------------------------------------------------------------------

def check_lattice_section(sp, t, zero, labels, choice, what):
    """choice[k] lies in the k-th D-class (base images, numbered by least
    element), zero is chosen, and the choice is closed under meet and join."""
    classes = {}
    for s in labels:
        classes.setdefault(frozenset(sp.p[e] for e in s), len(classes))
    require(len(choice) == len(classes) == 2 ** sp.size_b, f"{what}: {len(choice)} classes chosen")
    for k, c in enumerate(choice):
        require(classes[frozenset(sp.p[e] for e in labels[c])] == k,
                f"{what}: choice {k} lies outside its D-class")
    require(zero in choice, f"{what}: zero not chosen")
    chosen = set(choice)
    for a in choice:
        for b in choice:
            require(int(t["meet"][a, b]) in chosen and int(t["join"][a, b]) in chosen,
                    f"{what}: not closed at {(a, b)}")
