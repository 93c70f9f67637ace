"""Shared corpus builders and independent oracles for the test suite."""

from itertools import combinations, product

from skewstone import (
    Homomorphism,
    Ideal,
    PrimeIdeal,
    SizeCapError,
    ValidationReport,
    dual_algebra,
    enumerate_prime_ideals,
    green_partitions,
    leq_ideal_generated,
    make_algebra,
    make_space,
    mirror,
    natural_leq,
    preceq_ideal_generated,
    random_space,
    right_band,
    validate_hom,
)
from skewstone.catalog import (
    boolean_algebra,
    fiber_product_over_reflection,
    left_three,
    one_element,
    primitive_right,
    right_three,
)
from skewstone.core_algebra import leq_matrix, partition_from_labels, preceq_matrix, reflection
from skewstone.ideals_spectra import is_ideal
from skewstone.spaces_sections import all_partial_maps


def small_test_algebras():
    """Named corpus of algebras with at most five elements, covering the
    commutative, right-handed, left-handed and two-sided cases."""
    neither5, _ = fiber_product_over_reflection(right_three(), left_three())
    return (
        ("one", one_element()),
        ("two", boolean_algebra(1)),
        ("right3", right_three()),
        ("left3", left_three()),
        ("bool4", boolean_algebra(2)),
        ("right4", primitive_right(3)),
        ("left4", mirror(primitive_right(3))),
        ("right5", primitive_right(4)),
        ("neither5", neither5),
    )


def partitions(n, max_part=None):
    """Fiber-size multisets: every surjection with |E| = n up to relabeling."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for k in range(min(n, max_part), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def space_from_fibers(fiber_sizes):
    p = [b for b, s in enumerate(fiber_sizes) for _ in range(s)]
    return make_space(len(p), len(fiber_sizes), p)


def all_surjection_spaces(max_e, min_e=0):
    return [space_from_fibers(f)
            for n in range(min_e, max_e + 1) for f in partitions(n)]


def corpus_params(i):
    """Deterministic parameter schedule for the seeded corpus: mixes plain,
    right, left and product bands while keeping |E| <= 8 and the section
    algebras within the default validation cap."""
    kind_sel = i % 4
    if kind_sel == 3:
        k_left, k_right = 1 + i % 2, 1 + (i // 2) % 2
        return 1 + i % 2, 1, ("product", k_left, k_right)
    size_b = 1 + i % 3
    max_fiber = 1 + (i // 3) % 3
    if size_b * max_fiber > 8:
        max_fiber = 8 // size_b
    return size_b, max_fiber, ("none", "right", "left")[kind_sel]


def corpus_spaces(count=200, base_seed=1000):
    out = []
    for i in range(count):
        size_b, max_fiber, kind = corpus_params(i)
        out.append(random_space(size_b, max_fiber, seed=base_seed + i, band=kind))
    return out


def corpus_dual_algebras(count=200, base_seed=1000):
    return [dual_algebra(sp)[0] for sp in corpus_spaces(count, base_seed)]


def seeded_rect_space(i, base_seed=7000, max_grid=3, max_b=2):
    k_left = 1 + i % max_grid
    k_right = 1 + (i // max_grid) % max_grid
    size_b = 1 + i % max_b
    return random_space(size_b, 1, seed=base_seed + i, band=("product", k_left, k_right))


# ---------------------------------------------------------------------------
# Enumerative oracle for the section algebra: sections as sets of points,
# operations written with fiber saturation and the fiber band.
# ---------------------------------------------------------------------------

def section_algebra_oracle(sp):
    """Section algebra of sp from set formulas over its enumerated sections.
    With sigma the fiber saturation and the fiber band (the right band
    x y = y on a plain space) applied where two sections share a base point:
    S ^ R = (S & sigma(R)) band (sigma(S) & R),
    S v R = (S - sigma(R)) | (R - sigma(S)) | (R ^ S),
    S \\ R = S - sigma(R) and S cap R = S & R.
    Returns the algebra and the sections as sorted tuples, in sorted order."""
    fib = [[e for e in range(sp.size_e) if sp.p[e] == b] for b in range(sp.size_b)]
    sections = sorted(tuple(sorted(e for e in choice if e is not None))
                      for choice in product(*[[None] + f for f in fib]))
    band = (lambda x, y: y) if sp.band is None else (lambda x, y: sp.band[x][y])
    index = {s: i for i, s in enumerate(sections)}
    sets = [frozenset(s) for s in sections]
    sats = [frozenset(e for x in s for e in fib[sp.p[x]]) for s in sections]
    over = [{sp.p[e]: e for e in s} for s in sections]

    def banded_meet(i, j):
        return frozenset(band(over[i][b], over[j][b]) for b in over[i] if b in over[j])

    look = lambda points: index[tuple(sorted(points))]
    rng = range(len(sections))
    meet = [[look(banded_meet(i, j)) for j in rng] for i in rng]
    join = [[look((sets[i] - sats[j]) | (sets[j] - sats[i]) | banded_meet(j, i)) for j in rng]
            for i in rng]
    diff = [[look(sets[i] - sats[j]) for j in rng] for i in rng]
    cap = [[look(sets[i] & sets[j]) for j in rng] for i in rng]
    return make_algebra(len(sections), index[()], meet, join, diff, cap), tuple(sections)


# ---------------------------------------------------------------------------
# Independent oracle for the partial-map algebra: partial maps as dicts,
# operations written directly from their set-theoretic definitions.
# ---------------------------------------------------------------------------

def _o_meet(f, g, bands):
    return {x: bands[x](f[x], g[x]) for x in f if x in g}


def _o_join(f, g, bands):
    out = {x: v for x, v in f.items() if x not in g}
    out.update((x, v) for x, v in g.items() if x not in f)
    out.update(_o_meet(g, f, bands))
    return out


def _o_diff(f, g, bands):
    return {x: f[x] for x in f if x not in g}


def _o_cap(f, g, bands):
    return {x: f[x] for x in f if x in g and g[x] == f[x]}


def partial_map_oracle_tables(x_size, y_size, bands=None):
    """Operation tables of the partial-map algebra with band bands[x] at
    point x (by default the right band everywhere) computed by a
    from-scratch dict implementation, over the canonical carrier order."""
    if bands is None:
        bands = [right_band(y_size)] * x_size
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


def enumerate_homs_bruteforce(A, B, max_candidates=10 ** 4):
    """Oracle for enumerate_homs: try every map and keep the ones that validate."""
    if B.n ** A.n > max_candidates:
        raise SizeCapError(f"{B.n}^{A.n} candidate maps exceed {max_candidates}")
    out = []
    for image in product(range(B.n), repeat=A.n):
        f = Homomorphism(A, B, image)
        if validate_hom(f).ok:
            out.append(f)
    return tuple(out)


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
    leq = leq_matrix(A)
    pre = preceq_matrix(A)
    d, l, r = green_partitions(A)
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


def enumerate_ideals(A, max_n=16):
    """Oracle: all ideals by brute force over subsets (exponential; capped)."""
    if A.n > max_n:
        raise SizeCapError(f"n={A.n} exceeds brute-force cap {max_n}")
    rest = [x for x in A.elements if x != A.zero]
    found = []
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            cand = tuple(sorted((A.zero,) + extra))
            if is_ideal(A, cand):
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


# ---------------------------------------------------------------------------
# Alternative characterizations, checked against the library's definitions
# ---------------------------------------------------------------------------

def identity_partition(n):
    return partition_from_labels(range(n))


def natural_leq_via_join(A, x, y):
    """Equivalent join formulation: x v y = y v x = y."""
    return A.join(x, y) == y and A.join(y, x) == y


def natural_preceq_via_join(A, x, y):
    """Equivalent join formulation: y v x v y = y."""
    return A.join(A.join(y, x), y) == y


def saturate(sp, points):
    """Union of the fibers that meet the given set of E-points."""
    hit = {sp.p[e] for e in points}
    return tuple(e for e in range(sp.size_e) if sp.p[e] in hit)


def is_leq_cofinal(A, subset):
    return len(leq_ideal_generated(A, subset)) == A.n


def is_preceq_cofinal(A, subset):
    return len(preceq_ideal_generated(A, subset).members) == A.n


def prime_reflection_bijection(A):
    """Map each prime ideal of A to the prime of A/D given by blockwise image;
    verified bijective.  Returns a tuple of indices into the primes of A/D."""
    Q, to_d = reflection(A)
    primes_a = enumerate_prime_ideals(A)
    primes_q = enumerate_prime_ideals(Q)
    index_q = {p.members: p.index for p in primes_q}
    mapping = []
    for p in primes_a:
        image = tuple(sorted({to_d[x] for x in p.members}))
        if image not in index_q:
            raise RuntimeError(f"image {image} of prime {p.members} is not prime in A/D")
        mapping.append(index_q[image])
    if sorted(mapping) != list(range(len(primes_q))):
        raise RuntimeError("prime reflection is not a bijection")
    return tuple(mapping)


# Law catalogue.  Each law has a pointwise predicate so that any witness a
# validator reports can be re-checked independently of the vectorized path.

LAW_PREDICATES = {
    "meet_idempotent": lambda A, w: A.meet(w[0], w[0]) == w[0],
    "join_idempotent": lambda A, w: A.join(w[0], w[0]) == w[0],
    "meet_associative": lambda A, w: A.meet(A.meet(w[0], w[1]), w[2]) == A.meet(w[0], A.meet(w[1], w[2])),
    "join_associative": lambda A, w: A.join(A.join(w[0], w[1]), w[2]) == A.join(w[0], A.join(w[1], w[2])),
    "absorb_meet_over_join_left": lambda A, w: A.meet(w[0], A.join(w[0], w[1])) == w[0],
    "absorb_meet_over_join_right": lambda A, w: A.meet(A.join(w[1], w[0]), w[0]) == w[0],
    "absorb_join_over_meet_left": lambda A, w: A.join(w[0], A.meet(w[0], w[1])) == w[0],
    "absorb_join_over_meet_right": lambda A, w: A.join(A.meet(w[1], w[0]), w[0]) == w[0],
    "meet_distributes_left": lambda A, w: A.meet(w[0], A.join(w[1], w[2])) == A.join(A.meet(w[0], w[1]), A.meet(w[0], w[2])),
    "meet_distributes_right": lambda A, w: A.meet(A.join(w[1], w[2]), w[0]) == A.join(A.meet(w[1], w[0]), A.meet(w[2], w[0])),
    "zero_neutral_join": lambda A, w: A.join(A.zero, w[0]) == w[0] and A.join(w[0], A.zero) == w[0],
    "complement_meet_zero": lambda A, w: A.meet(A.diff(w[0], w[1]), A.meet(A.meet(w[0], w[1]), w[0])) == A.zero,
    "complement_join_restore": lambda A, w: A.join(A.diff(w[0], w[1]), A.meet(A.meet(w[0], w[1]), w[0])) == w[0],
    "cap_is_lower_bound": lambda A, w: natural_leq(A, A.cap(w[0], w[1]), w[0]) and natural_leq(A, A.cap(w[0], w[1]), w[1]),
    "cap_is_greatest_lower_bound": lambda A, w: not (natural_leq(A, w[2], w[0]) and natural_leq(A, w[2], w[1])) or natural_leq(A, w[2], A.cap(w[0], w[1])),
    "cap_commutative": lambda A, w: A.cap(w[0], w[1]) == A.cap(w[1], w[0]),
    "cap_associative": lambda A, w: A.cap(A.cap(w[0], w[1]), w[2]) == A.cap(w[0], A.cap(w[1], w[2])),
    "cap_idempotent": lambda A, w: A.cap(w[0], w[0]) == w[0],
    # Derived laws, reported as warnings: they follow from the axioms.
    "normal_band": lambda A, w: A.meet(A.meet(A.meet(w[0], w[1]), w[2]), w[3]) == A.meet(A.meet(A.meet(w[0], w[2]), w[1]), w[3]),
    "regular_join_band": lambda A, w: A.join(A.join(A.join(A.join(w[0], w[1]), w[0]), w[2]), w[0]) == A.join(A.join(A.join(w[0], w[1]), w[2]), w[0]),
}


def law_holds_at(A, law, witness):
    """Re-check a single law instance; used to confirm reported witnesses."""
    return LAW_PREDICATES[law](A, tuple(witness))
