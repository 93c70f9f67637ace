"""Shared corpus builders and independent oracles for the test suite."""

from itertools import combinations, product

import numpy as np

from skewstone import (
    CongruenceError,
    HomFlags,
    Homomorphism,
    Ideal,
    PrimeIdeal,
    SizeCapError,
    StructuralError,
    ValidationReport,
    dual_algebra,
    enumerate_prime_ideals,
    green_partitions,
    leq_ideal_generated,
    make_algebra,
    make_space,
    mirror,
    natural_leq,
    natural_preceq,
    preceq_ideal_generated,
    random_space,
    right_band,
    validate_algebra,
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
from skewstone.core_algebra import (
    leq_matrix,
    partition_from_labels,
    preceq_matrix,
    reflection,
)
from skewstone.ideals_spectra import is_ideal, spectrum_data
from skewstone.spaces_sections import all_partial_maps


def retabled(A, table, changes):
    """A with entries (i, j, value) of one table replaced."""
    tables = {name: getattr(A, name + "_table").tolist()
              for name in ("meet", "join", "diff", "cap")}
    for i, j, value in changes:
        tables[table][i][j] = value
    return make_algebra(A.n, A.zero, tables["meet"], tables["join"],
                        tables["diff"], tables["cap"])


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
# Loop oracles for the spectrum kernels: the pairwise loops that the
# whole-table masks of ideals_spectra and core_algebra.is_congruence replaced.
# ---------------------------------------------------------------------------

def is_ideal_oracle(A, members):
    """Oracle for is_ideal: preorder-downward closed, join closed, contains zero."""
    mem = set(members)
    if A.zero not in mem:
        return False
    pre = preceq_matrix(A)
    for x in mem:
        for y in A.elements:
            if pre[y][x] and y not in mem:
                return False
    for x in mem:
        for y in mem:
            if A.join(x, y) not in mem:
                return False
    return True


def enumerate_prime_ideals_oracle(A):
    """Oracle for enumerate_prime_ideals: the candidates pulled back from the
    atoms of A/D, checked pair by pair."""
    Q, to_d = reflection(A)
    leq_q = leq_matrix(Q)
    nonzero = [x for x in Q.elements if x != Q.zero]
    atoms = [a for a in nonzero if not any(leq_q[b][a] and b != a for b in nonzero)]
    found = []
    for atom in atoms:
        members = tuple(x for x in A.elements if not leq_q[atom][to_d[x]])
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
    """Oracle for green_partitions: each relation read pair by pair, each
    element labelled by the least member of its class (0 if it has none),
    then checked with is_congruence_oracle in the order D, L, R."""
    def least(related):
        return partition_from_labels([next((y for y in A.elements if related(x, y)), 0)
                                      for x in A.elements])

    def pre(x, y):
        return A.meet(A.meet(x, y), x) == x

    d = least(lambda x, y: pre(x, y) and pre(y, x))
    l = least(lambda x, y: A.meet(x, y) == x and A.meet(y, x) == y)
    r = least(lambda x, y: A.meet(x, y) == y and A.meet(y, x) == x)
    for name, part in (("D", d), ("L", l), ("R", r)):
        bad = is_congruence_oracle(A, part)
        if bad is not None:
            raise CongruenceError(f"green {name} / {bad[0]}", bad[1:])
    return d, l, r


def basic_copen_oracle(A, a):
    """Oracle for basic_copen: scan every prime's members for a."""
    sd = spectrum_data(A)
    return tuple(sorted(sd.point_of(pi, a) for pi, prime in enumerate(sd.primes)
                        if a not in prime.members))


# ---------------------------------------------------------------------------
# Loop oracles for the readers of the natural order: the pairwise loops that
# the masks over leq_matrix / preceq_matrix replaced, with each order read
# through natural_leq / natural_preceq.
# ---------------------------------------------------------------------------

def _down_closure_oracle(A, related, subset):
    down = {A.zero}
    for s in set(subset):
        down.update(y for y in A.elements if related(A, y, s))
    return down


def leq_ideal_generated_oracle(A, subset):
    """Oracle for leq_ideal_generated: downclose element by element, then
    join-close."""
    return join_closure_oracle(A, _down_closure_oracle(A, natural_leq, subset))


def preceq_ideal_generated_oracle(A, subset):
    """Oracle for preceq_ideal_generated: preorder downclose element by
    element, join-close, then check the result is an ideal."""
    members = join_closure_oracle(A, _down_closure_oracle(A, natural_preceq, subset))
    if not is_ideal_oracle(A, members):
        raise RuntimeError(f"generated set {members} is not an ideal")
    return Ideal(members)


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
    down_closed = all(y in image for y in B.elements for v in image if natural_leq(B, y, v))
    injective = len(image) == f.source.n
    ideal_pre_closed = all(y in ideal for x in ideal for y in B.elements
                           if natural_preceq(B, y, x))
    return HomFlags(leq_cofinal=leq_cofinal,
                    preceq_cofinal=preceq_cofinal,
                    D_saturated=d_saturated,
                    leq_ideal_inclusion=injective and down_closed,
                    image_ideal_preceq_closed=ideal_pre_closed)


def reflection_check_oracle(sp):
    """Oracle for reflection_check: base images as frozensets, every
    condition checked pair by pair."""
    A, sections = dual_algebra(sp)
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
    d = green_partitions_oracle(A)[0]
    for i in A.elements:
        for j in A.elements:
            if (d.labels[i] == d.labels[j]) != (img[i] == img[j]):
                return False
            if natural_preceq(A, i, j) != (img[i] <= img[j]):
                return False
    return True


def hasse_edges_oracle(A):
    """Oracle for cli._hasse_edges: x < y with no w strictly between them,
    in C order."""
    strict = lambda x, y: x != y and natural_leq(A, x, y)
    return [(x, y) for x in A.elements for y in A.elements
            if strict(x, y) and not any(strict(x, w) and strict(w, y) for w in A.elements)]


# ---------------------------------------------------------------------------
# Alternative characterizations, checked against the library's definitions
# ---------------------------------------------------------------------------

def join_closure_oracle(A, seed):
    """Oracle for ideals_spectra._join_closure: join every closed element
    with every new one, both ways, until nothing new appears."""
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


def glb_law_holds_oracle(A):
    """Oracle for the last step of the validator's proof: x cap y lies above
    every z below both x and y, checked for every z (not only the atoms),
    one row x at a time with the z below each element as packed bits."""
    M, C = A.meet_table, A.cap_table
    rows = np.arange(A.n)[:, None]
    below = np.packbits(((M == rows) & (M.T == rows)).T, axis=1)
    return not any(((below[x] & below) & ~below[C[x]]).any() for x in range(A.n))


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
    canonical map's preservation checked pair by pair."""
    d, l, r = green_partitions(A)
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
    if not validate_algebra(pullback, max_n=k_n).ok:
        return False
    return all(canon[getattr(A, op)(x, y)] == getattr(pullback, op)(canon[x], canon[y])
               for x in A.elements for y in A.elements for op in ("meet", "join", "diff"))


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
