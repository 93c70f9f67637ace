"""Finite skew Boolean algebras with intersections, given by operation tables.

Elements are dense indices 0..n-1.  The four binary operations (meet, join,
relative complement, intersection) are stored as row-major n x n tables, so
``meet_table[x][y]`` is x ^ y.  Everything here is a pure function of
immutable values; results and reported witnesses are deterministic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import wraps

import numpy as np


class StructuralError(ValueError):
    """Malformed carrier data (bad table shape or out-of-range entry)."""


class SizeCapError(RuntimeError):
    """An exhaustive check or search was asked to go past its limit."""


# The limit policy.  EXHAUSTIVE_N caps n for the cubic law check: it is the
# default of validate_algebra, of the CLI's --max-size and the survey's cap.
# MAX_CARRIER caps the carriers the builders enumerate (sections, partial
# maps).  Homomorphisms are read off the space morphisms between the spectra,
# and that search counts its own work: enumerate_homs.max_candidates (10^6
# by default, also the bound of enumerate_space_morphisms) counts every
# partial base map and every combination of fiber maps it tries.
EXHAUSTIVE_N = 256
MAX_CARRIER = 4096


class CongruenceError(ValueError):
    """A partition handed to a quotient is not a congruence; carries a witness."""

    def __init__(self, op_name, witness):
        self.op_name = op_name
        self.witness = witness
        super().__init__(f"not a congruence for {op_name}, witness {witness}")


def per_object(fn):
    """Memoize a one-argument function on its argument.  The result is kept
    in the object's own ``__dict__`` (frozen dataclasses allow that), so it
    is computed once per object and freed together with the object."""
    key = "_memo_" + fn.__name__

    @wraps(fn)
    def memoized(obj):
        try:
            return obj.__dict__[key]
        except KeyError:
            value = obj.__dict__[key] = fn(obj)
            return value

    return memoized


def _check_table(name, table, n):
    if len(table) != n:
        raise StructuralError(f"{name} table has {len(table)} rows, expected {n}")
    for i, row in enumerate(table):
        if len(row) != n:
            raise StructuralError(f"{name} table row {i} has length {len(row)}")
        for v in row:
            if not (isinstance(v, int) and 0 <= v < n):
                raise StructuralError(f"{name}[{i}] contains invalid entry {v!r}")


@dataclass(frozen=True)
class SkewAlgebra:
    """Carrier 0..n-1 with designated zero and the four operation tables."""

    n: int
    zero: int
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    diff_table: tuple[tuple[int, ...], ...]
    cap_table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError("carrier must be non-empty")
        if not (0 <= self.zero < self.n):
            raise StructuralError(f"zero index {self.zero} out of range")
        for name in ("meet", "join", "diff", "cap"):
            _check_table(name, getattr(self, name + "_table"), self.n)

    def meet(self, x, y):
        return self.meet_table[x][y]

    def join(self, x, y):
        return self.join_table[x][y]

    def diff(self, x, y):
        return self.diff_table[x][y]

    def cap(self, x, y):
        return self.cap_table[x][y]

    @property
    def elements(self):
        return range(self.n)


def make_algebra(n, zero, meet, join, diff, cap):
    """Build a SkewAlgebra from list-of-list tables (freezes them to tuples).
    Entries must be integers (TypeError otherwise, also for 1.9 or "0")."""
    as_tuple = lambda t: tuple(tuple(operator.index(v) for v in row) for row in t)
    return SkewAlgebra(operator.index(n), operator.index(zero), as_tuple(meet),
                       as_tuple(join), as_tuple(diff), as_tuple(cap))


@dataclass(frozen=True)
class Partition:
    """Partition of 0..n-1; labels are block ids, blocks listed by least element."""

    labels: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def n(self):
        return len(self.labels)


def partition_from_labels(raw_labels):
    """Canonicalize arbitrary hashable labels into a Partition."""
    seen = {}
    labels = []
    for lab in raw_labels:
        if lab not in seen:
            seen[lab] = len(seen)
        labels.append(seen[lab])
    blocks = [[] for _ in range(len(seen))]
    for x, lab in enumerate(labels):
        blocks[lab].append(x)
    return Partition(tuple(labels), tuple(tuple(b) for b in blocks))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an exhaustive law check: witnesses for every violated law."""

    ok: bool
    failures: tuple[tuple[str, tuple[int, ...]], ...]
    warnings: tuple[tuple[str, tuple[int, ...]], ...] = field(default=())


# ---------------------------------------------------------------------------
# Natural orders
# ---------------------------------------------------------------------------

def natural_leq(A, x, y):
    """Natural partial order: x ^ y = y ^ x = x."""
    return A.meet(x, y) == x and A.meet(y, x) == x


def natural_preceq(A, x, y):
    """Natural preorder: x ^ y ^ x = x."""
    return A.meet(A.meet(x, y), x) == x


def _as_rows(mask):
    return tuple(map(tuple, mask.tolist()))


@per_object
def leq_matrix(A):
    """leq[x][y] is natural_leq(A, x, y)."""
    M = np.asarray(A.meet_table, dtype=np.int64)
    rows = np.arange(A.n)[:, None]
    return _as_rows((M == rows) & (M.T == rows))


@per_object
def preceq_matrix(A):
    """pre[x][y] is natural_preceq(A, x, y)."""
    M = np.asarray(A.meet_table, dtype=np.int64)
    rows = np.arange(A.n)[:, None]
    return _as_rows(M[M, rows] == rows)


def _first_bad(mask):
    """First index tuple (C order) where a boolean violation mask is True."""
    idx = np.argwhere(mask)
    if len(idx) == 0:
        return None
    return tuple(int(v) for v in idx[0])


def validate_algebra(A, max_n=EXHAUSTIVE_N):
    """Check every axiom, returning all violated laws with witnesses.

    Axioms: idempotency and associativity of meet and join, the four
    absorption identities, both meet-distributivity identities, zero neutral
    for join, the two relative-complement identities, intersection being the
    greatest lower bound for the natural partial order, and intersection
    commutative, associative, idempotent.  Normality of meet and regularity
    of join are implied by the axioms, so violations of those are reported
    as warnings (useful when hunting for which axiom a broken table loses).

    A proof costing n^2 * |G| (``_unproved_step``) runs first.  If every
    step passes, A is valid and the report is ok with no warnings.  If one
    fails, the exhaustive check (``_exhaustive_report``) gives the report,
    so failures, first witnesses (C order) and warnings are always the
    exhaustive ones.  The steps, each sound given those before it:

    1. The laws with n or n^2 instances, on the whole table: both
       idempotents, the four absorptions, zero neutral, both complement
       laws, cap lower bound, cap commutative, cap idempotent.  Absorption
       with zero neutral gives 0 ^ y = y ^ 0 = 0, so 0 <= y for every y.
    2. Generators.  G is 0 and the atoms (x != 0 with only 0 and x below
       it); the left-bracketed join closure of G from 0 must be all of A,
       so every element is (...((0 v g1) v g2) ...) v gk with gi in G.
       Join-irreducibles would not do: on a 2 x 2 band a point section is
       the join of two other point sections.
    3. Join associativity by Light's test (Clifford and Preston, The
       Algebraic Theory of Semigroups I, 1.2): (x v g) v y = x v (g v y)
       for g in G.  The middles m with (x v m) v y = x v (m v y) for all
       x, y are closed under join: (x v (m v m')) v y = ((x v m) v m') v y
       = (x v m) v (m' v y) = x v (m v (m' v y)) = x v ((m v m') v y).
       They include G, which generates A, so they are all of A.
    4. Both meet distributivities for z in G.  Given 3, the z with
       x ^ (y v z) = (x ^ y) v (x ^ z) for all x, y are closed under join:
       x ^ (y v z v z') = (x ^ (y v z)) v (x ^ z')
       = (x ^ y) v (x ^ z) v (x ^ z') = (x ^ y) v (x ^ (z v z')).
       They include G, so they are all of A.  The right-hand law is the
       mirror image of the same argument.
    5. Meet associativity for z in G.  By 4, z -> (x ^ y) ^ z and
       z -> x ^ (y ^ z) are join homomorphisms; they agree on G, which
       generates A, so they agree everywhere.
    6. The glb law on every triple, as bit sets: for each x, no z may lie
       below x and y but not below x cap y (n^3 / 16 byte operations, as
       the law is symmetric in x and y once cap is commutative).
    7. Cap associativity needs no check.  By 1 and 5 the natural order is
       a partial order, and by 1 and 6 x cap y is the greatest lower bound
       of {x, y}, so both bracketings are the greatest lower bound of
       {x, y, z}.
    8. Warnings: normality of meet and regularity of join are theorems of
       the axioms (Leech, "Skew Boolean algebras", Algebra Universalis 27,
       1990), so a valid A has none.
    """
    if A.n > max_n:
        raise SizeCapError(f"n={A.n} exceeds the exhaustive-check cap {max_n}")
    if _unproved_step(A) is None:
        return ValidationReport(ok=True, failures=(), warnings=())
    return _exhaustive_report(A)


def _unproved_step(A):
    """Run the proof in validate_algebra's docstring.  Return None if every
    step passes (A is valid), else the name of the first step that failed:
    a law of step 1, "generators", or the law steps 3 to 6 check."""
    n = A.n
    M = np.asarray(A.meet_table, dtype=np.int64)
    J = np.asarray(A.join_table, dtype=np.int64)
    D = np.asarray(A.diff_table, dtype=np.int64)
    C = np.asarray(A.cap_table, dtype=np.int64)
    idx = np.arange(n)
    rows = idx[:, None]
    leq = (M == rows) & (M.T == rows)

    def table_laws():
        yield "meet_idempotent", np.diagonal(M) != idx
        yield "join_idempotent", np.diagonal(J) != idx
        yield "absorb_meet_over_join_left", M[rows, J] != rows
        yield "absorb_meet_over_join_right", M[J.T, rows] != rows
        yield "absorb_join_over_meet_left", J[rows, M] != rows
        yield "absorb_join_over_meet_right", J[M.T, rows] != rows
        yield "zero_neutral_join", (J[A.zero] != idx) | (J[:, A.zero] != idx)
        W = M[M, rows]
        yield "complement_meet_zero", M[D, W] != A.zero
        yield "complement_join_restore", J[D, W] != rows
        yield "cap_is_lower_bound", ~(leq[C, rows] & leq[C, idx])
        yield "cap_commutative", C != C.T
        yield "cap_idempotent", np.diagonal(C) != idx

    for name, bad in table_laws():
        if bad.any():
            return name

    G = [A.zero] + np.flatnonzero(leq.sum(axis=0) == 2).tolist()
    reached = np.zeros(n, dtype=bool)
    reached[A.zero] = True
    frontier = np.array([A.zero])
    JG = J[:, G]
    while frontier.size:
        new = np.zeros(n, dtype=bool)
        new[JG[frontier]] = True
        new &= ~reached
        reached |= new
        frontier = np.flatnonzero(new)
    if not reached.all():
        return "generators"

    # Each loop keeps its temporaries n x n: a |G| x n x n gather would not.
    JT = np.ascontiguousarray(J.T)
    for g in G:                                  # [x, y]: (x v g) v y, x v (g v y)
        if not np.array_equal(np.take(J, J[:, g], axis=0), np.take(J, J[g], axis=1)):
            return "join_associative"
    for g in G:                                  # [x, y]: x ^ (y v g), (x ^ y) v (x ^ g)
        if not np.array_equal(np.take(M, J[:, g], axis=1),
                              np.take_along_axis(np.take(JT, M[:, g], axis=0), M, axis=1)):
            return "meet_distributes_left"
    for g in G:                                  # [y, x]: (y v g) ^ x, (y ^ x) v (g ^ x)
        if not np.array_equal(np.take(M, J[:, g], axis=0),
                              np.take_along_axis(np.take(J, M[g], axis=1), M, axis=0)):
            return "meet_distributes_right"
    for g in G:                                  # [x, y]: (x ^ y) ^ g, x ^ (y ^ g)
        if not np.array_equal(np.take(M[:, g], M), np.take(M, M[:, g], axis=1)):
            return "meet_associative"

    # The glb law is symmetric in x and y (cap is commutative by step 1) and
    # holds at x = y (cap idempotent), so the pairs y > x suffice.
    below = np.packbits(leq.T, axis=1)           # below[x]: the z <= x, as bits
    for x in range(n):
        if ((below[x] & below[x + 1:]) & ~below[C[x, x + 1:]]).any():
            return "cap_is_greatest_lower_bound"
    return None


def _exhaustive_report(A):
    """Check every law on every instance, one n x n slice at a time; report
    each violated law with its first witness in C order, and the derived
    laws that fail as warnings."""
    n = A.n
    M = np.asarray(A.meet_table, dtype=np.int64)
    J = np.asarray(A.join_table, dtype=np.int64)
    D = np.asarray(A.diff_table, dtype=np.int64)
    C = np.asarray(A.cap_table, dtype=np.int64)
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    failures = []

    def law(name, bad_mask):
        w = _first_bad(bad_mask)
        if w is not None:
            failures.append((name, w))

    def sliced_law(name, slice_mask):
        # one n x n slice per first index keeps memory flat on large carriers
        for x in range(n):
            w = _first_bad(slice_mask(x))
            if w is not None:
                failures.append((name, (x,) + w))
                return

    law("meet_idempotent", np.diagonal(M) != np.arange(n))
    law("join_idempotent", np.diagonal(J) != np.arange(n))
    sliced_law("meet_associative", lambda x: M[M[x]] != M[x][M])
    sliced_law("join_associative", lambda x: J[J[x]] != J[x][J])
    law("absorb_meet_over_join_left", M[rows, J] != rows)
    law("absorb_meet_over_join_right", M[J.T, rows] != rows)
    law("absorb_join_over_meet_left", J[rows, M] != rows)
    law("absorb_join_over_meet_right", J[M.T, rows] != rows)
    sliced_law("meet_distributes_left",
               lambda x: M[x][J] != J[M[x][:, None], M[x][None, :]])
    sliced_law("meet_distributes_right",
               lambda x: M[J, x] != J[M[:, x][:, None], M[:, x][None, :]])
    law("zero_neutral_join", (J[A.zero] != np.arange(n)) | (J[:, A.zero] != np.arange(n)))
    # x ^ y ^ x, indexed by (x, y)
    W = M[M, rows]
    law("complement_meet_zero", M[D, W] != A.zero)
    law("complement_join_restore", J[D, W] != rows)

    # leq[x, y] is x <= y in the natural partial order
    leq = (M == rows) & (M.T == rows)
    law("cap_is_lower_bound", ~(leq[C, rows] & leq[C, cols]))
    leq_t = leq.T
    # premise: z <= x and z <= y; conclusion: z <= x cap y
    sliced_law("cap_is_greatest_lower_bound",
               lambda x: (leq_t[x][None, :] & leq_t) & ~leq_t[C[x]])
    law("cap_commutative", C != C.T)
    sliced_law("cap_associative", lambda x: C[C[x]] != C[x][C])
    law("cap_idempotent", np.diagonal(C) != np.arange(n))

    warnings = []
    # Derived identities.  Normality quantifies over a fourth element, but
    # x^y^z^w = x^z^y^w for every w just says the two triple products have
    # identical meet rows, so classifying equal rows once cuts it to cubic.
    _, row_class = np.unique(M, axis=0, return_inverse=True)
    for x in range(n):
        m3 = M[M[x]]                                    # [y, z] : x^y^z
        w = _first_bad(row_class[m3] != row_class[m3.T])
        if w is not None:
            y, z = w
            u, v = int(m3[y, z]), int(m3[z, y])
            w_first = int(np.nonzero(M[u] != M[v])[0][0])
            warnings.append(("normal_band", (x, y, z, w_first)))
            break
    for a in range(n):
        va = J[J[a], a]                                 # [b] : a v b v a
        lhs = J[J[va], a]                               # [b, c] : a v b v a v c v a
        rhs = J[J[J[a]], a]                             # [b, c] : a v b v c v a
        w = _first_bad(lhs != rhs)
        if w is not None:
            warnings.append(("regular_join_band", (a,) + w))
            break

    return ValidationReport(ok=not failures, failures=tuple(failures),
                            warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# Green's relations and quotients
# ---------------------------------------------------------------------------

def is_congruence(A, part, op_names=("meet", "join", "diff")):
    """Return None if part is a congruence for the named ops, else a witness.

    The witness has the form (op_name, x, x_equiv, y): substituting x_equiv
    for x in one argument slot changes the block of the result.
    """
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


@per_object
def green_partitions(A):
    """Green's relations as partitions: (D, L, R).

    x R y iff x^y = y and y^x = x;  x L y iff x^y = x and y^x = y;
    D is the kernel of the poset reflection of the natural preorder.
    Each partition is verified to be a congruence for meet, join and diff
    (intersections are not generally compatible, so they are left out).
    """
    M = np.asarray(A.meet_table, dtype=np.int64)
    rows = np.arange(A.n)[:, None]
    cols = rows.T
    pre = M[M, rows] == rows
    # Each element is labelled by the least member of its class.
    least = lambda related: partition_from_labels(np.argmax(related, axis=1).tolist())
    d = least(pre & pre.T)
    l = least((M == rows) & (M.T == cols))
    r = least((M == cols) & (M.T == rows))
    for name, part in (("D", d), ("L", l), ("R", r)):
        bad = is_congruence(A, part)
        if bad is not None:
            raise CongruenceError(f"green {name} / {bad[0]}", bad[1:])
    return d, l, r


def glb_cap_table(n, meet, join):
    """Intersection table computed as greatest lower bounds of the order
    induced by meet.  Lower bounds of a pair commute, so folding them with
    join yields the candidate maximum, which is then verified."""
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


def quotient_by(A, part):
    """Quotient algebra by a congruence, with the induced quotient map.

    The partition must be a congruence for meet, join and diff (witness
    raised otherwise).  Block representatives are least indices.  When the
    partition is also compatible with intersections the quotient cap is
    induced directly; otherwise (the Green quotients) the quotient is a skew
    Boolean algebra in its own right and its cap is recomputed as the
    greatest-lower-bound table.
    """
    bad = is_congruence(A, part)
    if bad is not None:
        raise CongruenceError(bad[0], bad[1:])
    reps = [block[0] for block in part.blocks]
    k = len(reps)
    lab = part.labels
    meet = [[lab[A.meet(reps[i], reps[j])] for j in range(k)] for i in range(k)]
    join = [[lab[A.join(reps[i], reps[j])] for j in range(k)] for i in range(k)]
    diff = [[lab[A.diff(reps[i], reps[j])] for j in range(k)] for i in range(k)]
    if is_congruence(A, part, op_names=("cap",)) is None:
        cap = [[lab[A.cap(reps[i], reps[j])] for j in range(k)] for i in range(k)]
    else:
        cap = glb_cap_table(k, meet, join)
    quotient = make_algebra(k, lab[A.zero], meet, join, diff, cap)
    return quotient, tuple(lab)


@per_object
def reflection(A):
    """The commutative reflection A/D with its quotient map."""
    return quotient_by(A, green_partitions(A)[0])


def handedness(A):
    """One of 'commutative', 'right', 'left', 'neither' by exhaustive test."""
    M = np.asarray(A.meet_table, dtype=np.int64)
    rows = np.arange(A.n)[:, None]
    if np.array_equal(M, M.T):
        return "commutative"
    xyx = M[M, rows]
    if np.array_equal(xyx, M.T):
        return "right"
    if np.array_equal(xyx, M):
        return "left"
    return "neither"


def second_decomposition_check(A):
    """Check that A -> A/R x_{A/D} A/L (canonical map into the pullback of the
    Green quotients) is an isomorphism of skew algebras."""
    d, l, r = green_partitions(A)
    AR, to_r = quotient_by(A, r)
    AL, to_l = quotient_by(A, l)
    AD, to_d = reflection(A)
    # Induced maps to the reflection (R and L refine D).
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
    meet = [[index[(AR.meet(pairs[i][0], pairs[j][0]), AL.meet(pairs[i][1], pairs[j][1]))]
             for j in range(k_n)] for i in range(k_n)]
    join = [[index[(AR.join(pairs[i][0], pairs[j][0]), AL.join(pairs[i][1], pairs[j][1]))]
             for j in range(k_n)] for i in range(k_n)]
    diff = [[index[(AR.diff(pairs[i][0], pairs[j][0]), AL.diff(pairs[i][1], pairs[j][1]))]
             for j in range(k_n)] for i in range(k_n)]
    cap = [[canon[A.cap(inverse[i], inverse[j])] for j in range(k_n)] for i in range(k_n)]
    try:
        pullback = make_algebra(k_n, canon[A.zero], meet, join, diff, cap)
    except StructuralError:
        return False
    # Transported cap must be the pullback's genuine GLB, and the canonical
    # map must preserve the component-wise operations.
    if not validate_algebra(pullback, max_n=k_n).ok:
        return False
    for x in A.elements:
        for y in A.elements:
            if canon[A.meet(x, y)] != pullback.meet(canon[x], canon[y]):
                return False
            if canon[A.join(x, y)] != pullback.join(canon[x], canon[y]):
                return False
            if canon[A.diff(x, y)] != pullback.diff(canon[x], canon[y]):
                return False
    return True


# ---------------------------------------------------------------------------
# Subalgebras and mirrors
# ---------------------------------------------------------------------------

def subalgebra_on(A, subset):
    """Restrict A to a subset closed under all operations.

    Returns (algebra, embedding) where embedding[i] is the element of A that
    the i-th subalgebra element came from.
    """
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


def mirror(A):
    """Opposite algebra: meet and join arguments swapped.  The natural order
    is unchanged, so diff and cap carry over."""
    t = lambda tab: tuple(tuple(tab[y][x] for y in A.elements) for x in A.elements)
    return SkewAlgebra(A.n, A.zero, t(A.meet_table), t(A.join_table),
                       A.diff_table, A.cap_table)
