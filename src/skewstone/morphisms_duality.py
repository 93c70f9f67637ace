"""Homomorphisms, space morphisms, and the duality functors on both levels.

A space morphism (g, h) : p -> p' is a commuting square of partial maps in
which g restricts to a bijection from each fiber piece onto the fiber over
the image base point, and preserves the band, a plain space's band being
the right band x y = y.
The dual of a homomorphism acts by preimages; the dual of a space morphism
acts on sections by preimage under g.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, combinations, permutations, product

import numpy as np

from .core_algebra import (
    MAX_CANDIDATES,
    SizeCapError,
    StructuralError,
    ValidationReport,
    _OPS,
    _first_bad,
    _take,
    green_partitions,
    leq_matrix,
    per_object,
    preceq_matrix,
    subalgebra_on,
)
from .ideals_spectra import (
    _basic_copens,
    fibers,
    leq_ideal_generated,
    make_space,
    preceq_ideal_generated,
    spectrum_data,
)
from .spaces_sections import (
    PartialMap,
    dual_algebra,
    fiber_band_classes,
    partial_map,
    spaces_isomorphic,
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
    Each operation is one gather, m[T_A] against T_B[m x m]; the witness is
    the first violated pair in C order.  The map must be n_A integers in
    0..n_B-1 (StructuralError otherwise, also for 1.5 or "1")."""
    A, B = f.source, f.target
    try:
        m = np.array([operator.index(v) for v in f.map], dtype=np.intp)
    except (TypeError, OverflowError):
        m = None
    if m is None or m.shape != (A.n,) or m.min() < 0 or m.max() >= B.n:
        raise StructuralError("homomorphism map is not a total map into the target")
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
    duality: Hom(A, B) is in bijection with the space morphisms
    Sk(B) -> Sk(A), and m gives iso_B^-1 . hom_of_space_morphism(m) . iso_A
    with the round-trip isomorphisms iso_A and iso_B.

    A and B must be valid algebras (see validate_algebra); the spectra are
    not a duality otherwise.  max_candidates bounds the space-morphism
    search: every partial base map and every combination of fiber maps it
    tries is one candidate, and it raises SizeCapError past the bound.
    """
    morphisms = enumerate_space_morphisms(spectrum_data(B).space, spectrum_data(A).space,
                                          max_candidates)
    return tuple(sorted(_transport(A, B, morphisms), key=lambda f: f.map))


def algebras_isomorphic(A, B):
    """The map of an isomorphism A -> B, or None, read off the spectra:
    A and B are isomorphic exactly when Sk(A) and Sk(B) are, and a space
    isomorphism Sk(B) -> Sk(A) transports to an isomorphism A -> B.

    A and B must be valid algebras (see validate_algebra).
    """
    if A.n != B.n:
        return None
    sk_a, sk_b = spectrum_data(A).space, spectrum_data(B).space
    found = spaces_isomorphic(sk_b, sk_a)
    if found is None:
        return None
    g, h = found
    m = SpaceMorphism(sk_b, sk_a, PartialMap(tuple(range(sk_b.size_e)), g),
                      PartialMap(tuple(range(sk_b.size_b)), h))
    return _transport(A, B, [m])[0].map


def _transport(A, B, morphisms):
    """The homomorphism A -> B dual to each space morphism Sk(B) -> Sk(A),
    iso_B^-1 . hom_of_space_morphism(m) . iso_A."""
    to_sections = algebra_roundtrip_iso(A).map
    from_sections = [0] * B.n
    for b, s in enumerate(algebra_roundtrip_iso(B).map):
        from_sections[s] = b
    homs = []
    for m in morphisms:
        image = hom_of_space_morphism(m).map
        homs.append(Homomorphism(A, B, tuple(from_sections[image[s]] for s in to_sections)))
    return homs


# ---------------------------------------------------------------------------
# Space morphisms
# ---------------------------------------------------------------------------

def validate_space_morphism(m):
    """Check the commuting square, fiber bijectivity, and band preservation.
    A plain space's band is read as the right band x y = y, the one its
    section algebra uses, so a morphism between two plain spaces always
    preserves it."""
    sp, tp = m.source, m.target
    if any(not 0 <= y < sp.size_e for y in m.g.domain) or \
       any(not 0 <= v < tp.size_e for v in m.g.values) or \
       any(not 0 <= x < sp.size_b for x in m.h.domain) or \
       any(not 0 <= v < tp.size_b for v in m.h.values):
        raise StructuralError("morphism maps reference out-of-range points")
    failures = []
    g, h = m.g.as_dict(), m.h.as_dict()
    for y, gy in g.items():
        if sp.p[y] not in h or tp.p[gy] != h[sp.p[y]]:
            failures.append(("square_commutes", (y,)))
    tgt_fibers = fibers(tp)
    for x, hx in h.items():
        piece = sorted(g[y] for y in fibers(sp)[x] if y in g)
        if piece != sorted(set(piece)) or piece != list(tgt_fibers[hx]):
            failures.append(("fiber_bijection", (x,)))
    if sp.band is not None or tp.band is not None:
        band = lambda space, x, y: y if space.band is None else space.band[x][y]
        for y1 in g:
            for y2 in g:
                if sp.p[y1] != sp.p[y2]:
                    continue
                v = band(sp, y1, y2)
                if v not in g or g[v] != band(tp, g[y1], g[y2]):
                    failures.append(("band_preserved", (y1, y2)))
    return ValidationReport(ok=not failures, failures=tuple(failures))


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


def enumerate_space_morphisms(sp, tp, max_candidates=MAX_CANDIDATES):
    """All valid space morphisms sp -> tp.

    Base maps are enumerated first; over each base point in the domain the
    fiber map is an injection from a subset of the fiber onto the whole
    target fiber, so those are enumerated directly instead of filtering all
    partial maps on E.  Every partial base map and every combination of
    fiber maps tried is one candidate; past max_candidates of them it
    raises SizeCapError.
    """
    src_fib, tgt_fib = fibers(sp), fibers(tp)
    out = []
    tried = 0
    for h_choice in product(*[(None,) + tuple(range(tp.size_b)) for _ in range(sp.size_b)]):
        h = {x: v for x, v in enumerate(h_choice) if v is not None}
        options = [[dict(zip(chosen, tgt_fib[hx]))
                    for chosen in permutations(src_fib[x], len(tgt_fib[hx]))]
                   for x, hx in h.items()]
        # the base map is one candidate, each combination of fiber maps one more
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
            if validate_space_morphism(cand).ok:
                out.append(cand)
    return tuple(sorted(out, key=lambda m: (m.h.domain, m.h.values, m.g.domain, m.g.values)))


# ---------------------------------------------------------------------------
# The duality functors on morphisms
# ---------------------------------------------------------------------------

def dual_of_hom(f):
    """Dual space morphism Sk(target) -> Sk(source) of a homomorphism.

    The base map sends a prime to its preimage when that is proper; the
    total-space map sends (P, t) to (preimage P, a) whenever t is congruent
    mod P to some value f(a) outside P.  The result is validated in full.
    """
    sd_a = spectrum_data(f.source)
    sd_b = spectrum_data(f.target)
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
    report = validate_space_morphism(morphism)
    if not report.ok:
        raise RuntimeError(f"dual morphism invalid: {report.failures}")
    return morphism


def hom_of_space_morphism(m):
    """Dual homomorphism (sections of target) -> (sections of source) acting
    by preimage under g; checks base images behave as inverse images under h
    on the way."""
    A_src, src_sections = dual_algebra(m.source)
    A_tgt, tgt_sections = dual_algebra(m.target)
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
        base_expect = sorted(x for x, hx in h.items() if hx in base_s)
        if base_pre != base_expect:
            raise RuntimeError("preimage does not respect base inverse images")
        image.append(src_index[pre])
    f = Homomorphism(A_tgt, A_src, tuple(image))
    report = validate_hom(f)
    if not report.ok:
        raise RuntimeError(f"dual homomorphism invalid: {report.failures}")
    return f


# ---------------------------------------------------------------------------
# Round-trip isomorphisms
# ---------------------------------------------------------------------------

def algebra_roundtrip_iso(A):
    """Canonical isomorphism from A onto the section algebra of its spectrum
    (a is sent to its basic section).  Any failed check here means a bug, so
    failures raise with a witness."""
    sd = spectrum_data(A)
    # not memoized on the spectrum, which lives as long as A does: its
    # section algebra is as large as A and is wanted only here
    dual, labels = dual_algebra.__wrapped__(sd.space)
    index = {s: i for i, s in enumerate(labels)}
    image = []
    for a, section in enumerate(_basic_copens(A)):
        if section not in index:
            raise RuntimeError(f"basic section of {a} is not a section of the spectrum")
        image.append(index[section])
    f = Homomorphism(A, dual, tuple(image))
    if len(set(image)) != A.n or dual.n != A.n:
        raise RuntimeError("basic sections do not biject with spectrum sections")
    report = validate_hom(f)
    if not report.ok:
        raise RuntimeError(f"round-trip map is not a homomorphism: {report.failures}")
    return f


def space_roundtrip_iso(sp):
    """Canonical isomorphism from a space onto the spectrum of its section
    algebra: a base point goes to the prime of sections missing it, a total
    point to the class of any section through it."""
    A, labels = dual_algebra(sp)
    sd = spectrum_data(A)
    base_image = [frozenset(sp.p[e] for e in s) for s in labels]
    prime_index = {p.members: p.index for p in sd.primes}
    h = []
    for x in range(sp.size_b):
        members = tuple(i for i in range(A.n) if x not in base_image[i])
        if members not in prime_index:
            raise RuntimeError(f"point {x} does not induce a prime of the section algebra")
        h.append(prime_index[members])
    singleton = {s[0]: i for i, s in enumerate(labels) if len(s) == 1}
    g = [sd.point_of(h[sp.p[y]], singleton[y]) for y in range(sp.size_e)]
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
    if sp.band is None:
        raise ValueError("pair decomposition needs a band")

    def quotient(selector):
        p_q = []
        for b, f in enumerate(fibers(sp)):
            for _ in selector(sp, f):
                p_q.append(b)
        return make_space(len(p_q), sp.size_b, p_q)

    left = quotient(lambda s, f: fiber_band_classes(s, f)[0])
    right = quotient(lambda s, f: fiber_band_classes(s, f)[1])
    return left, right


def from_space_pair(left, right):
    """Fiber product of two plain spaces over their common base, with the
    grid band (u1, v1) ^ (u2, v2) = (u1, v2)."""
    if left.size_b != right.size_b:
        raise ValueError("pair components have different bases")
    if left.band is not None or right.band is not None:
        raise ValueError("pair components must be plain spaces")
    points = []
    for b in range(left.size_b):
        for u in fibers(left)[b]:
            for v in fibers(right)[b]:
                points.append((b, u, v))
    index = {pt: i for i, pt in enumerate(points)}
    n = len(points)
    band = [[None] * n for _ in range(n)]
    for i, (b1, u1, _) in enumerate(points):
        for j, (b2, _, v2) in enumerate(points):
            if b1 == b2:
                band[i][j] = index[(b1, u1, v2)]
    return make_space(n, left.size_b, [pt[0] for pt in points], band)


# ---------------------------------------------------------------------------
# Decomposition and classification of morphisms
# ---------------------------------------------------------------------------

def restrict_space(sp, e_subset, b_subset):
    """Subspace on the given points with reindexed projection and band."""
    e_list = tuple(sorted(e_subset))
    b_list = tuple(sorted(b_subset))
    b_pos = {b: i for i, b in enumerate(b_list)}
    p = [b_pos[sp.p[e]] for e in e_list]
    band = None
    if sp.band is not None:
        e_pos = {e: i for i, e in enumerate(e_list)}
        band = [[None if sp.band[x][y] is None or sp.band[x][y] not in e_pos
                 else e_pos[sp.band[x][y]]
                 for y in e_list] for x in e_list]
    return make_space(len(e_list), len(b_list), p, band), e_list, b_list


def decompose_morphism(m):
    """Split a morphism into a partial identity onto the restriction to its
    domains, followed by a total morphism out of it (total and bijective on
    fibers, hence a pullback square).  Their composite is the original."""
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
    for part in (part_identity, pullback_part):
        report = validate_space_morphism(part)
        if not report.ok:
            raise RuntimeError(f"decomposition component invalid: {report.failures}")
    if len(pullback_part.g.domain) != sub.size_e or len(pullback_part.h.domain) != sub.size_b:
        raise RuntimeError("second component of the decomposition is not total")
    if compose_space_morphisms(pullback_part, part_identity) != m:
        raise RuntimeError("decomposition does not compose back to the morphism")
    return part_identity, pullback_part


def _sections_above(sp, base_points):
    """All sections whose base image is exactly the given set."""
    fib = fibers(sp)
    pools = [fib[x] for x in base_points]
    if any(not pool for pool in pools):
        return []
    return [tuple(sorted(choice)) for choice in product(*pools)]


def classify_space_morphism(m):
    """Totality, semitotality, saturation of the domain, and the section
    lifting property, each by exhaustive test."""
    sp, tp = m.source, m.target
    total = len(m.g.domain) == sp.size_e and len(m.h.domain) == sp.size_b
    semitotal = len(m.h.domain) == sp.size_b
    h = m.h.as_dict()
    saturated = set(m.g.domain) == {y for y in range(sp.size_e) if sp.p[y] in h}
    g = m.g.as_dict()
    lifting = True
    base_subsets = [frozenset(c) for k in range(tp.size_b + 1)
                    for c in combinations(range(tp.size_b), k)]
    for U in base_subsets:
        pre_base = tuple(sorted(x for x, hx in h.items() if hx in U))
        for s in _sections_above(sp, pre_base):
            found = False
            for r in _sections_above(tp, tuple(sorted(U))):
                rset = set(r)
                if tuple(sorted(y for y, gy in g.items() if gy in rset)) == s:
                    found = True
                    break
            if not found:
                lifting = False
                break
        if not lifting:
            break
    return SpaceMorphismFlags(total=total, semitotal=semitotal,
                              saturated=saturated, section_lifting=lifting)


def is_partial_identity_up_to_iso(m):
    """True when both components map their domains bijectively onto the whole
    target, which makes the morphism an inclusion-of-restriction in disguise."""
    return (len(set(m.g.values)) == len(m.g.values) == m.target.size_e
            and len(set(m.h.values)) == len(m.h.values) == m.target.size_b)


@per_object
def classify_hom(f):
    """Algebraic counterparts of the space-morphism classes, as masks over
    the image of f and the order ideal it generates."""
    B = f.target
    image = np.zeros(B.n, dtype=bool)
    image[list(f.map)] = True
    ideal = np.zeros(B.n, dtype=bool)
    ideal[list(leq_ideal_generated(B, f.map))] = True
    preceq_cofinal = len(preceq_ideal_generated(B, f.map).members) == B.n
    d = np.asarray(green_partitions(B)[0].labels)
    image_classes = np.zeros(B.n, dtype=bool)
    image_classes[d[image]] = True
    # a set S is down-closed for an order when nothing outside S lies below a member
    down_closed = lambda order, S: not (order[:, S].any(axis=1) & ~S).any()
    return HomFlags(leq_cofinal=bool(ideal.all()),
                    preceq_cofinal=preceq_cofinal,
                    D_saturated=not (image_classes[d] & ~image).any(),
                    leq_ideal_inclusion=(len(set(f.map)) == f.source.n
                                         and down_closed(leq_matrix(B), image)),
                    image_ideal_preceq_closed=down_closed(preceq_matrix(B), ideal))


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
