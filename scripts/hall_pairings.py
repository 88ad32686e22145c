#!/usr/bin/env python3
"""Print Hall bases of the free Lie algebra, their Gram matrices under the
word-basis inner product, and the classical degree-5 bracket pairings.

The Gram matrices are exact (Fraction entries); off-diagonal zeros in
degrees 3 and 4 show the orthogonality of distinct basic commutators, and
the degree-5 block shows where orthogonality first fails.

Usage: python scripts/hall_pairings.py [-m LETTERS] [-K MAXDEG]
"""

import argparse

from chenlie import hall_basis, expand, inner, witt_number
from chenlie.ncalg import Alphabet, default_letters
from chenlie.parser import parse_lie


def gram(alphabet: Alphabet, k: int):
    exps = hall_basis(alphabet, k).expansions()
    return [[inner(a, b) for b in exps] for a in exps]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-m", type=int, default=2, help="alphabet size")
    ap.add_argument("-K", type=int, default=5, help="largest degree")
    args = ap.parse_args()

    try:
        alphabet = Alphabet(default_letters(args.m))
    except ValueError as e:
        ap.error(str(e))
    print(f"alphabet: {' '.join(alphabet.letters)}")
    for k in range(1, args.K + 1):
        basis = hall_basis(alphabet, k)
        print(f"\ndegree {k}: {len(basis.elements)} elements "
              f"(Witt number {witt_number(args.m, k)})")
        for tree in basis.elements:
            print(f"  {tree}")
        g = gram(alphabet, k)
        width = max(len(str(x)) for row in g for x in row)
        print("  Gram matrix:")
        for row in g:
            print("   ", "  ".join(str(x).rjust(width) for x in row))

    if args.m == 2:
        print("\nselected degree-5 pairings, evaluated as written:")
        for left, right in [
            ("[y,[x,[x,[x,y]]]]", "[[x,y],[x,[x,y]]]"),
            ("[y,[y,[x,[x,y]]]]", "[[x,y],[y,[x,y]]]"),
        ]:
            xy = Alphabet(("x", "y"))
            val = inner(expand(parse_lie(left), xy),
                        expand(parse_lie(right), xy))
            print(f"  <{left}, {right}> = {val}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
