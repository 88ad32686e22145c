#!/usr/bin/env python3
"""Walk through the order-5 vanishing: the iterated integral of the word
om0 om1 om1 om1 om1 along the commutator loop

    gamma = (((a1, a2), a1), (a1, a2))

is the zero polynomial, no matter what values the ten elementary integrals
int_{a_i} om_j take.

The computation runs in the graded picture: the loop's leading Lie element
(degree 5 of its Magnus expansion) is paired word by word against a fully
symbolic table of elementary integrals.  Each contributing word carries
four equal letters, and the pairing is alternating in equal columns, so
every term cancels.  The script shows the leading element, the pairing of
each of its words, and the final sum.
"""

import argparse

from chenlie.chenint import PairingTable, pair_graded
from chenlie.freegrp import GroupWord, commutator, lcs_degree, phi_inverse
from chenlie.melnikov import EX_M5_FORMS, EX_M5_PATHS, example_ex_m5
from chenlie.ncalg import scalar_str, word_str


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--show-terms", type=int, default=6, metavar="N",
                    help="how many leading-element words to display")
    args = ap.parse_args()

    paths, forms = EX_M5_PATHS, EX_M5_FORMS
    a1 = GroupWord.generator(paths, 0)
    a2 = GroupWord.generator(paths, 1)
    gamma = commutator(commutator(commutator(a1, a2), a1),
                       commutator(a1, a2))
    print(f"loop gamma = {gamma}")
    print(f"reduced length {len(gamma)}, lcs degree {lcs_degree(gamma)}")

    lead = phi_inverse(gamma)
    terms = sorted(lead.items())  # by word, the order the printers use
    print(f"\nleading Lie element has {len(terms)} words; first "
          f"{min(args.show_terms, len(terms))}:")
    for w, c in terms[:args.show_terms]:
        print(f"  {c} * {word_str(paths, w)}")

    table = PairingTable.symbolic(paths, forms)
    word = (0, 1, 1, 1, 1)
    print(f"\nform word: {word_str(forms, word)}")
    print("pairing gamma against the word through the symbolic table of "
          f"{len(paths.letters) * len(forms.letters)} indeterminates...")
    value = pair_graded(table, gamma, word)
    print(f"  full pairing = {scalar_str(value)}")

    print("\nwhy it collapses: each summand is a 5x5 determinant-like "
          "alternating product with columns om1 repeated four times")
    for sub in ((0, 1, 1, 1, 1), (1, 0, 1, 1, 1), (1, 1, 1, 1, 0)):
        v = pair_graded(table, gamma, sub)
        print(f"  word {word_str(forms, sub)}: {scalar_str(v)}")

    final = example_ex_m5()
    print(f"\npackaged check example_ex_m5() = {final}")
    return 0 if final == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
