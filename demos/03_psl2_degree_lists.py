#!/usr/bin/env python3
"""Closed-form degree data for the two-dimensional projective linear groups.

The degree multiset is assembled series by series; its squared sum recovers
the group order, and the epsilon invariant (squared degrees strictly below
the maximum, over the maximum squared) exceeds 1, which forces the order
between 2*b**2 and 2*e**2.
"""

import json
from fractions import Fraction

from chardeg.bounds import e_of, epsilon_of, simple_bound_report
from chardeg.claims import PSL2_CLASS_FROM
from chardeg.exactmath import positive_from, positivity_certificate
from chardeg.psl2 import (
    class_polynomials, extendible_witness_even, psl2_degrees, psl2_order,
    theta2_stabilizer_odd,
)

for q in (5, 7, 8, 9, 11, 13):
    ds = psl2_degrees(q)
    rep = simple_bound_report(ds)
    print(f"q={q:2d}: degrees {ds.entries}")
    print(f"      order {rep.order} = |PSL2({q})|: {rep.order == psl2_order(q)}; "
          f"epsilon = {epsilon_of(ds)}; 2b^2 < |S| < 2e^2: "
          f"{rep.gt_2b2 and rep.lt_2e2}")

print("\neven q: a character fixed by every field automorphism")
for q in (8, 16, 32, 64):
    w = extendible_witness_even(q)
    print(f"  q={q}: {w.family} at index {w.index}, degree {w.degree}")

print("\nodd q: the first even-index theta character is moved by every")
print("proper field automorphism power, so its stabilizer is as small as possible")
for q in (9, 27, 125):
    rep = theta2_stabilizer_odd(q)
    print(f"  q={q}: checks {rep.checks} -> stabilizer index {rep.stabilizer_index}")

print("\ndecomposing |S| = d (d + e) at the largest degree:")
for q in (5, 7, 9):
    ds = psl2_degrees(q)
    dec = e_of(ds.sum_squares, ds.max_degree)
    print(f"  q={q}: |S| = {dec.order}, b = {dec.d}, e = {dec.e}")

print("\nevery q = 3 mod 4 at once: the margin 2e^2 - |S| as a polynomial in q,")
print("certified positive from q = 7 on and re-checked from its JSON alone")
cls = "3 mod 4"
cert = positivity_certificate(class_polynomials(cls)["margins"]["order < 2e^2"],
                              PSL2_CLASS_FROM[cls])
print(f"  {json.dumps(cert)}")
print(f"  re-check: {positive_from([Fraction(c) for c in cert['poly']], Fraction(cert['from']))}")
