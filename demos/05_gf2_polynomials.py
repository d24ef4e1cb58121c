#!/usr/bin/env python3
"""Counting irreducible polynomials over the two-element field.

Polynomials are stored as integers, constant term in the lowest bit.  The
Moebius necklace formula counts irreducibles of each degree; a separate
closed form counts the self-reciprocal ones (equal to their own coefficient
reversal), and both are validated against brute-force enumeration.
"""

from chardeg.gf2poly import (
    count_irreducible_monic, count_self_reciprocal, irreducible_polys,
    reciprocal_pair_count, srim_count_of_degree,
)

print("irreducible counts n_d and the lower bound 4 d n_d >= 3 * 2^d:")
for d in range(1, 13):
    n_d = count_irreducible_monic(d)
    print(f"  d={d:2d}: n_d = {n_d:4d}   4*d*n_d = {4*d*n_d:6d} >= {3 * 2**d:6d}")

print("\nself-reciprocal irreducible counts by half-degree "
      "(degree 2d polynomials):")
for d in range(1, 11):
    formula = count_self_reciprocal(d)
    brute = count_self_reciprocal(d, "brute_force")
    print(f"  d={d:2d}: formula {formula:3d}, brute force {brute:3d}")

print("\nthe degree-6 self-reciprocal irreducibles, as hex bit strings:")
for f in irreducible_polys(6):
    bits = format(f, "b")
    if bits == bits[::-1]:
        print(f"  {f:x}")

print("\npolynomial pools (reversal pairs plus self-reciprocal irreducibles):")
for d0 in range(2, 11):
    pool = reciprocal_pair_count(d0) + srim_count_of_degree(d0)
    print(f"  d0={d0:2d}: pool size {pool:4d} "
          f">= n_d0/2 = {count_irreducible_monic(d0) / 2}")
