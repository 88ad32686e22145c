#!/usr/bin/env python3
"""Tabulate the leading Melnikov coefficients C_k.

For the diagonal connection with weights (w1, w2), C_k is the pairing of
the order-k integrand block carrying one copy of the first form against
the left-nested bracket [[om1,om2],om2,...].  The script prints C_k
symbolically, confirms the closed form

    C_k = (w2 - w1) * prod_{i=1}^{k-2} (i - w1 - (i-1) w2)

and the shift recursion C_k(w1, w2) = (w2 - w1) C_{k-1}(w1 + w2 - 1, w2),
then evaluates everything at rational witness weights.  A nonzero value at
a single rational point certifies the polynomial is not identically zero.

Usage: python scripts/ck_table.py [-K MAXDEG] [--weights W1,W2]
"""

import argparse
from fractions import Fraction

from chenlie import WeightPair, ck, ck_closed_form
from chenlie.ncalg import scalar_str


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-K", type=int, default=8, help="largest order")
    ap.add_argument("--weights", default="1/3,1/2",
                    help="rational witness weights w1,w2")
    args = ap.parse_args()

    w1_s, w2_s = args.weights.split(",")
    witness = WeightPair(Fraction(w1_s), Fraction(w2_s))
    symbolic = WeightPair.symbolic()
    shifted = WeightPair(symbolic.w1 + symbolic.w2 - 1, symbolic.w2)

    print(f"witness weights: w1 = {witness.w1}, w2 = {witness.w2}\n")
    header = f"{'k':>2}  {'C_k(w1, w2)':<58} {'at witness':>12}"
    print(header)
    print("-" * len(header))
    for k in range(2, args.K + 1):
        sym = ck(symbolic, k)
        assert sym == ck_closed_form(symbolic, k)
        if k > 2:
            assert sym == (symbolic.w2 - symbolic.w1) * ck_closed_form(shifted, k - 1)
        num = ck(witness, k)
        print(f"{k:>2}  {scalar_str(sym):<58} {str(num):>12}")
    print("\nclosed form and recursion hold symbolically at every order "
          "shown; all witness values are nonzero"
          if all(ck(witness, k) != 0 for k in range(2, args.K + 1))
          else "\nwarning: witness vanishes at some order")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
