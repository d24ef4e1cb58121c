#!/usr/bin/env python3
"""Hook lengths and character degrees of symmetric groups.

A partition of n is a weakly decreasing tuple; the hook length of a diagram
node counts the nodes to its right, above it, and itself.  Dividing n! by
the product of all hook lengths gives the degree of the corresponding
irreducible character, which we cross-check against an explicit count of
standard fillings.
"""

from math import factorial

from chardeg.partitions import (
    boundary_nodes, conjugate, hook_degree, partitions_of, standard_tableaux_count,
)

lam = (4, 2, 1)
conj = conjugate(lam)
print(f"partition {lam}, transpose {conj}")
print("hook lengths by (column, row), h(i, j) = 1 + lam[j-1] + conj[i-1] - i - j:")
for j, lam_j in enumerate(lam, start=1):
    for i in range(1, lam_j + 1):
        print(f"  {(i, j)}: {1 + lam_j + conj[i - 1] - i - j}")
print(f"degree = 7!/prod(hooks) = {hook_degree(lam)}")
print(f"standard fillings counted directly: {standard_tableaux_count(lam)}")

print("\nsum of squared degrees recovers n!:")
for n in range(1, 9):
    total = sum(hook_degree(mu) ** 2 for mu in partitions_of(n))
    print(f"  n={n}: sum = {total:6d} = {n}! is {total == factorial(n)}")

print("\nbranching: adding one node at a time carries degree upward")
addable, removable = boundary_nodes(lam)
print(f"addable nodes of {lam}: {sorted(addable)}")
print(f"removable nodes of {lam}: {sorted(removable)}")
up = (sum(lam) + 1) * hook_degree(lam)
print(f"(n+1) * degree = {up}, matching the sum over one-node extensions")
