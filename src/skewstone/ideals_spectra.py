"""Ideals, prime ideals, the congruences they generate, and the skew spectrum.

A finite "Boolean space" is a finite discrete space, so a skew Boolean space
degenerates to a surjection p : E -> B of finite sets and a copen set is any
subset.  The skew spectrum of an algebra lives over its prime ideals: the
fiber over a prime P consists of the non-zero classes of the congruence
generated by P, and carries a rectangular band.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .core_algebra import (
    Partition,
    StructuralError,
    is_congruence,
    leq_matrix,
    partition_from_labels,
    per_object,
    preceq_matrix,
    reflection,
)


@dataclass(frozen=True)
class Ideal:
    """Subset closed downward under the natural preorder and under joins."""

    members: tuple[int, ...]


@dataclass(frozen=True)
class PrimeIdeal:
    """Proper ideal with a ^ b in P forcing a in P or b in P."""

    members: tuple[int, ...]
    index: int


@dataclass(frozen=True)
class SpectrumPoint:
    """A spectrum point: prime-ideal index plus the least element of its
    congruence class outside the prime."""

    prime: int
    rep: int


@dataclass(frozen=True)
class RectSkewSpace:
    """Map p : E -> B of finite sets, with an optional fiberwise band table.

    band[x][y] is meaningful only when p[x] == p[y]; entries across fibers
    are None.  With band omitted this doubles as a plain skew Boolean space.
    """

    size_e: int
    size_b: int
    p: tuple[int, ...]
    band: tuple[tuple[int | None, ...], ...] | None = None

    def __post_init__(self):
        if len(self.p) != self.size_e:
            raise StructuralError(f"p has length {len(self.p)}, expected {self.size_e}")
        for e, b in enumerate(self.p):
            if not (isinstance(b, int) and 0 <= b < self.size_b):
                raise StructuralError(f"p[{e}] = {b!r} out of range")
        if self.band is not None:
            if len(self.band) != self.size_e:
                raise StructuralError("band has wrong number of rows")
            for x, row in enumerate(self.band):
                if len(row) != self.size_e:
                    raise StructuralError(f"band row {x} has wrong length")
                for v in row:
                    if v is not None and not (isinstance(v, int) and 0 <= v < self.size_e):
                        raise StructuralError(f"band[{x}] contains invalid entry {v!r}")


def make_space(size_e, size_b, p, band=None):
    """Build a RectSkewSpace from plain lists (None entries allowed in band).
    Entries must be integers (TypeError otherwise, also for 2.5 or "0")."""
    frozen_band = None
    if band is not None:
        frozen_band = tuple(tuple(None if v is None else operator.index(v) for v in row)
                            for row in band)
    return RectSkewSpace(operator.index(size_e), operator.index(size_b),
                         tuple(operator.index(v) for v in p), frozen_band)


@per_object
def fibers(sp):
    """E-points of each fiber, in index order, indexed by base point."""
    out = [[] for _ in range(sp.size_b)]
    for e, b in enumerate(sp.p):
        out[b].append(e)
    return tuple(tuple(f) for f in out)


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------

def is_ideal(A, members):
    """Preorder-downward closed, join closed, contains zero."""
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


def _reflection_atoms(Q):
    leq = leq_matrix(Q)
    nonzero = [x for x in Q.elements if x != Q.zero]
    return [a for a in nonzero
            if not any(leq[b][a] and b != a for b in nonzero)]


def enumerate_prime_ideals(A):
    """All prime ideals, via the commutative reflection.

    Primes correspond to primes of A/D, which in a finite generalized
    Boolean algebra are indexed by atoms: P_a = {x : not a <= x}.  Each
    pulled-back candidate is then verified to be an ideal whose indicator
    map to the two-element lattice preserves 0, meet and join and is not
    constantly zero, which is exactly primality.
    """
    Q, to_d = reflection(A)
    leq_q = leq_matrix(Q)
    found = []
    for atom in _reflection_atoms(Q):
        members = tuple(x for x in A.elements if not leq_q[atom][to_d[x]])
        found.append(members)
    found.sort()
    primes = []
    for k, members in enumerate(found):
        mem = set(members)
        if not is_ideal(A, members):
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


def ideal_congruence(A, ideal):
    """Least congruence whose zero class contains the ideal.

    Membership is decided by (x \\ (x cap y)) v (y \\ (x cap y)) lying in the
    ideal.  The result is verified to be a congruence for all four operations
    and to have the ideal itself as its zero class.
    """
    members = ideal.members if isinstance(ideal, (Ideal, PrimeIdeal)) else tuple(ideal)
    if not is_ideal(A, members):
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
    bad = is_congruence(A, part, op_names=("meet", "join", "diff", "cap"))
    if bad is not None:
        raise ValueError(f"ideal congruence failed compatibility: {bad}")
    zero_class = part.blocks[part.labels[A.zero]]
    if set(zero_class) != mem:
        raise ValueError("zero class of the ideal congruence differs from the ideal")
    return part


# ---------------------------------------------------------------------------
# The skew spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectrumData:
    """Spectrum of an algebra with the lookup structure the duality needs."""

    primes: tuple[PrimeIdeal, ...]
    thetas: tuple[Partition, ...]
    space: RectSkewSpace
    points: tuple[SpectrumPoint, ...]
    label_index: dict[tuple[int, int], int]

    def point_of(self, prime_index, element):
        """E-index of the point (prime, class of element); element not in P."""
        label = self.thetas[prime_index].labels[element]
        return self.label_index[(prime_index, label)]


@per_object
def spectrum_data(A):
    primes = enumerate_prime_ideals(A)
    thetas = tuple(ideal_congruence(A, p) for p in primes)
    points = []
    label_index = {}
    p_map = []
    for pi, (prime, theta) in enumerate(zip(primes, thetas)):
        mem = set(prime.members)
        for label, block in enumerate(theta.blocks):
            if block[0] in mem:
                continue
            label_index[(pi, label)] = len(points)
            points.append(SpectrumPoint(prime=pi, rep=block[0]))
            p_map.append(pi)
    size_e = len(points)
    band = [[None] * size_e for _ in range(size_e)]
    for x in range(size_e):
        for y in range(size_e):
            if p_map[x] != p_map[y]:
                continue
            pi = p_map[x]
            theta = thetas[pi]
            m = A.meet(points[x].rep, points[y].rep)
            band[x][y] = label_index[(pi, theta.labels[m])]
    space = make_space(size_e, len(primes), p_map, band)
    return SpectrumData(primes=primes, thetas=thetas, space=space,
                        points=tuple(points), label_index=label_index)


def skew_spectrum(A):
    """The skew spectrum as a rectangular space plus its point labeling.

    The base consists of the prime ideals in canonical order; the fiber over
    a prime P holds the non-zero classes of the congruence generated by P,
    ordered by least representative; the band multiplies representatives
    with the algebra meet.
    """
    sd = spectrum_data(A)
    return sd.space, sd.points


def basic_copen(A, a):
    """E-points of the basic section attached to an element: one point over
    every prime not containing it."""
    sd = spectrum_data(A)
    out = []
    for pi, prime in enumerate(sd.primes):
        if a not in prime.members:
            out.append(sd.point_of(pi, a))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Generated ideals and cofinality
# ---------------------------------------------------------------------------

def _join_closure(A, seed):
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
    return closed


def leq_ideal_generated(A, subset):
    """Least set containing the subset that is downward closed for the
    natural partial order and closed under joins (downclose, then join)."""
    leq = leq_matrix(A)
    down = {A.zero}
    for s in set(subset):
        down.update(y for y in A.elements if leq[y][s])
    return tuple(sorted(_join_closure(A, down)))


def preceq_ideal_generated(A, subset):
    """Least ideal containing the subset: preorder downclose, then join-close."""
    pre = preceq_matrix(A)
    down = {A.zero}
    for s in set(subset):
        down.update(y for y in A.elements if pre[y][s])
    members = tuple(sorted(_join_closure(A, down)))
    if not is_ideal(A, members):
        raise RuntimeError(f"generated set {members} is not an ideal")
    return Ideal(members)
