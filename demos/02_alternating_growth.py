#!/usr/bin/env python3
"""Growth of the largest alternating-group degree that extends to the full
symmetric group.

Only partitions different from their transpose contribute extendible
characters.  The headline inequality rho(n) > (n!/2)**(3/8) is checked
exactly: for 7 <= n <= 87 by one certificate partition per n whose degree
meets 8 * f**8 > (n!)**3 (any such partition bounds rho(n) from below), and
for every n >= 87 through three growth inequalities, each bounded below by
a polynomial in v = (n+1)**(1/8) whose Taylor shift to v = 7/4 has no
negative coefficient.
"""

from math import factorial, log

from chardeg.exactmath import positivity_certificate, taylor_shift
from chardeg.partitions import hook_degree
from chardeg.symalt import (
    RHO_TAIL_FROM, RHO_TAIL_R, TAIL_START, rho_an, rho_certificates, rho_tail_polynomials,
    rho_witness, verify_rho_growth,
)

print("rho(n) and its witness partition, by brute force:")
for n in range(7, 16):
    print(f"  n={n:2d}: rho = {rho_an(n):6d}  from {rho_witness(n)}")

certs = dict(rho_certificates())
print("\ncertificates: 8 * f**8 > (n!)**3 for f the degree of one partition")
print("(the margin ln(8 * f**8 / (n!)**3) is smallest at n = 8):")
for n in (7, 8, 10, 20, 40, 74, TAIL_START):
    f = hook_degree(certs[n])
    margin = log(8 * f**8) - log(factorial(n) ** 3)
    print(f"  n={n:2d}: margin {margin:7.2f}  from {certs[n]}")

print(f"\nthe tail, every n >= {TAIL_START}: v = (n+1)**(1/8) >= {RHO_TAIL_FROM} "
      f"and r = {RHO_TAIL_R}, r*r >= 2")
for name, poly in rho_tail_polynomials().items():
    shifted = taylor_shift(poly, RHO_TAIL_FROM)
    print(f"  {name}: {positivity_certificate(poly, RHO_TAIL_FROM)}")
    print(f"    in s = v - {RHO_TAIL_FROM}: constant {float(shifted[0]):.3f}, "
          f"least coefficient {float(min(shifted)):.3f}")
print(f"  failures {verify_rho_growth()}")
print(f"\nthe seam: the certificates cover n = {min(certs)}..{max(certs)} and the "
      f"tail n >= {TAIL_START}, so no n >= 7 is left unchecked")
