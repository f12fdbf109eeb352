#!/usr/bin/env python3
"""Sweep rational classes on a catalog example and tabulate Novikov numbers.

Sanity experiment: over a grid of classes, b_k should only jump at the
zero class (for the catalog surfaces), and the alternating sum must equal
the cell Euler number everywhere.  A class with a stuck degree is marked
``(stuck)``: its b is exact, so the identity is checked there too, but
the stuck degree's q is unknown.

Usage: python scripts/novikov_sweep.py [--example genus2] [--steps 5]
"""

import argparse
import itertools
import sys
from fractions import Fraction

from morsetwist.catalog import get_example
from morsetwist.chains import euler_cells
from morsetwist.invariants import novikov_numbers
from morsetwist.morse import LocalSystem, build_complex


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--example", default="genus2")
    ap.add_argument("--steps", type=int, default=3,
                    help="grid points per axis on [-1, 1]")
    args = ap.parse_args()

    entry = get_example(args.example)
    d = entry.datum
    nforms = len(d.basis_forms)
    chi = euler_cells(build_complex(d, LocalSystem.trivial()))
    grid = [Fraction(2 * i, args.steps - 1) - 1 if args.steps > 1 else Fraction(0)
            for i in range(args.steps)]

    print(f"{args.example}: {nforms} basis form(s), euler {chi}")
    bad = 0
    for cls in itertools.product(grid, repeat=nforms):
        nn = novikov_numbers(d, cls)
        alt = sum((-1) ** k * b for k, b in enumerate(nn.b))
        flag = "" if alt == chi else "  <-- MISMATCH"
        bad += 0 if not flag else 1
        cls_txt = ",".join(str(c) for c in cls)
        stuck = "" if nn.complete else " (stuck)"
        print(f"  class ({cls_txt:>{6 * nforms}}): b={nn.b} q={nn.q}"
              f"{stuck}{flag}")
    if bad:
        print(f"{bad} mismatches")
        return 1
    print("euler identity held at every grid point")
    return 0


if __name__ == "__main__":
    sys.exit(main())
