#!/usr/bin/env python3
"""Write a seeded corpus of spaces and their section algebras to a directory.

Files come in pairs: space_###.json and its dual algebra_###.json, all in the
interchange format the CLI reads, so each can be fed back through
`skewstone validate`, `skewstone roundtrip`, and friends.
"""

import argparse
import os
import sys

# the checkout's sources come first, so the script runs without an install
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from skewstone import dual_algebra, jsonio, random_space

KINDS = ("none", "right", "left", ("product", 2, 2))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size-b", type=int, default=2)
    parser.add_argument("--max-fiber", type=int, default=3)
    args = parser.parse_args(argv)
    for flag, value in (("--size-b", args.size_b), ("--max-fiber", args.max_fiber)):
        if value < 1:
            parser.error(f"argument {flag}: must be at least 1, got {value}")
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        sp = random_space(args.size_b, args.max_fiber, seed=args.seed + i,
                          band=KINDS[i % len(KINDS)])
        A, _ = dual_algebra(sp)
        for name, payload in ((f"space_{i:03d}", jsonio.space_to_dict(sp)),
                              (f"algebra_{i:03d}", jsonio.algebra_to_dict(A))):
            path = os.path.join(args.out, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                jsonio.dump(payload, fh)
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
