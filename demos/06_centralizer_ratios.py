#!/usr/bin/env python3
"""Semisimple centralizer shapes over GF(2) and their degree ratios.

A shape records the factorization K x GL-type factors of the centralizer of
a semisimple element in a classical group over GF(2).  The degree of the
attached irreducible character is the odd part of the index times the
Steinberg degree of the centralizer.  Merging two factors into one produces
comparison characters whose degree ratios stay above 81/320 (or 81/272 for
the doubled unitary merge), uniformly over the sweep.
"""

from fractions import Fraction

from chardeg.claims import SITUATION_AMBIENTS, SITUATION_MAX_DK, SITUATION_NS, SITUATION_R
from chardeg.lie import (
    centralizer_order, comparison_shapes, iter_situation_ratios, make_shape,
    semisimple_degree, situation_ratio,
)

shape = make_shape("O+", 12, 2, 1, [(4, 1, 1), (3, 1, 1), (2, 1, 1), (1, 1, 1)])
print("shape: orthogonal plus ambient, n = 12, block m = 2, factors",
      [(f.d, f.k, f.eps) for f in shape.factors])
print(f"centralizer order {centralizer_order(shape)}")
print(f"attached degree has {semisimple_degree(shape).bit_length()} bits")

for i, j in ((1, 2), (1, 3), (2, 4)):
    sits = [s for s, _ in comparison_shapes(shape, i, j)]
    print(f"pair ({i},{j}): applicable situations {sits}")
    for s in sits:
        ratio = situation_ratio(shape, i, j, s)
        print(f"  situation {s}: ratio {ratio} ~ {float(ratio):.4f}")

print(f"\nsweeping every realizable {SITUATION_R}-factor shape of n in {SITUATION_NS}, "
      f"ambients {SITUATION_AMBIENTS}, with factor dimension <= {SITUATION_MAX_DK}:")
worst = {}
for _, _, _, situation, r in iter_situation_ratios(SITUATION_NS, SITUATION_AMBIENTS,
                                                   SITUATION_R, SITUATION_MAX_DK):
    if situation not in worst or r < worst[situation]:
        worst[situation] = r
for situation, r in sorted(worst.items()):
    bound = Fraction(81, 272) if situation == "iv" else Fraction(81, 320)
    print(f"  situation {situation}: minimum ratio {r} ~ {float(r):.4f} "
          f"(> {bound} ~ {float(bound):.4f})")
