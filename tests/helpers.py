"""Shared corpus builders and independent oracles for the test suite."""

from itertools import product

from skewstone import Homomorphism, SizeCapError, dual_algebra, make_space, random_space, validate_hom
from skewstone.spaces_sections import all_partial_maps


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
# Independent oracle for the right-handed partial-map algebra: partial maps
# as dicts, operations written directly from their set-theoretic definitions.
# ---------------------------------------------------------------------------

def _o_meet(f, g):
    return {x: g[x] for x in f if x in g}


def _o_join(f, g):
    out = dict(f)
    for x, v in g.items():
        if x not in f:
            out[x] = v
    return out


def _o_diff(f, g):
    return {x: f[x] for x in f if x not in g}


def _o_cap(f, g):
    return {x: f[x] for x in f if x in g and g[x] == f[x]}


def partial_map_oracle_tables(x_size, y_size):
    """Operation tables of the right-handed partial-map algebra computed by a
    from-scratch dict implementation, over the canonical carrier order."""
    maps = all_partial_maps(x_size, y_size)
    dicts = [m.as_dict() for m in maps]
    index = {tuple(sorted(d.items())): i for i, d in enumerate(dicts)}
    look = lambda d: index[tuple(sorted(d.items()))]
    n = len(maps)
    tables = {}
    for name, op in (("meet", _o_meet), ("join", _o_join),
                     ("diff", _o_diff), ("cap", _o_cap)):
        tables[name] = tuple(tuple(look(op(dicts[i], dicts[j])) for j in range(n))
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
