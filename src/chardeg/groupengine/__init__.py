"""Explicit small finite groups and their exact character tables.

Groups are built by breadth-first closure of permutation or matrix
generators; character tables come from the modular eigenvector method with
exact cyclotomic lifting, checked by evaluation at the roots of unity modulo
a prime that splits completely, all in int64 arithmetic modulo primes.  They
serve as the brute-force oracle behind every degree claim about the witness
constructions.
"""

from .constructions import (
    alternating_group,
    build_example_group,
    build_galois_twisted_group,
    cyclic_group,
    dihedral_group,
    frobenius_21,
    gl2_3,
    quaternion_group,
    sl2_3,
    symmetric_group,
)
from .dixon import CharacterTable, dixon_character_table
from .elements import FrobMat, Mat, Perm, matrix
from .field import GF, gf
from .gagola import GagolaReport, gagola_analyze
from .groupfile import group_from_dict, load_group_file
from .table import GroupTable, close_group

__all__ = [
    "GF", "gf", "Perm", "Mat", "FrobMat", "matrix",
    "GroupTable", "close_group",
    "CharacterTable", "dixon_character_table",
    "GagolaReport", "gagola_analyze",
    "group_from_dict", "load_group_file",
    "build_example_group", "build_galois_twisted_group",
    "cyclic_group", "dihedral_group", "symmetric_group", "alternating_group",
    "quaternion_group", "sl2_3", "gl2_3", "frobenius_21",
]
