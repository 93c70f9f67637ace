#!/usr/bin/env python3
"""Sweep seeded spaces through the whole pipeline and tabulate the outcome.

For every generated space: build the section algebra, validate it, run both
round-trip isomorphisms, the pullback decomposition check, and (when the
algebra is right-handed) the lattice-section equivalence.  An instance above
a size cap is listed as "limit" and counted apart from the failures; the exit
status is 1 only when some law or check fails.
"""

import argparse
import os
import sys
import time
from math import prod

# the checkout's sources come first, so the script runs without an install
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from skewstone import (
    SizeCapError,
    algebra_roundtrip_iso,
    dual_algebra,
    handedness,
    random_space,
    second_decomposition_check,
    section_equivalence_check,
    space_roundtrip_iso,
    validate_algebra,
)
from skewstone.spaces_sections import fibers

KINDS = ("none", "right", "left", ("product", 2, 1), ("product", 2, 2))


def survey(count, base_seed, size_b, max_fiber):
    rows = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        sp = random_space(1 + i % size_b, max_fiber, seed=base_seed + i, band=kind)
        t0 = time.perf_counter()
        n = prod(1 + len(f) for f in fibers(sp))
        try:
            A, _ = dual_algebra(sp)
            ok_valid = validate_algebra(A).ok
            algebra_roundtrip_iso(A)
            space_roundtrip_iso(sp)
            ok_decomp = second_decomposition_check(A)
            hand = handedness(A)
            ok_section = (section_equivalence_check(A)
                          if hand in ("right", "commutative") else None)
        except SizeCapError:
            # over a cap: the row carries hand "limit" and no verdicts
            hand, ok_valid, ok_decomp, ok_section = "limit", None, None, None
        rows.append((base_seed + i, str(kind), sp.size_e, n, hand,
                     ok_valid, ok_decomp, ok_section, time.perf_counter() - t0))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size-b", type=int, default=3)
    parser.add_argument("--max-fiber", type=int, default=3)
    args = parser.parse_args(argv)
    for flag, value in (("--size-b", args.size_b), ("--max-fiber", args.max_fiber)):
        if value < 1:
            parser.error(f"argument {flag}: must be at least 1, got {value}")
    rows = survey(args.count, args.seed, args.size_b, args.max_fiber)
    header = f"{'seed':>6} {'band':<18} {'|E|':>4} {'|A|':>4} {'hand':<12} valid decomp section    t"
    print(header)
    print("-" * len(header))
    bad = limited = 0
    verdict = lambda ok: "-" if ok is None else ("yes" if ok else "NO")
    for seed, kind, size_e, n, hand, ok_valid, ok_decomp, ok_section, dt in rows:
        if hand == "limit":
            limited += 1
        else:
            bad += not (ok_valid and ok_decomp and ok_section in (None, True))
        print(f"{seed:>6} {kind:<18} {size_e:>4} {n:>4} {hand:<12} "
              f"{verdict(ok_valid):>5} {verdict(ok_decomp):>6} "
              f"{verdict(ok_section):>7} {dt * 1000:>5.0f}ms")
    print(f"\n{len(rows)} instances, {bad} failures, {limited} over the size cap")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
