"""chardeg: exact verification toolkit for character-degree bounds.

Writing the order of a finite group as d (d + e) for an irreducible
character degree d, the package machine-checks, in exact arithmetic, the
quantitative facts surrounding the bound |G| <= e**4 - e**3: hook-length
degree identities, the growth of extendible alternating-group degrees,
Steinberg-degree comparisons across the groups of Lie type, two-dimensional
linear group degree lists, self-reciprocal polynomial counts over GF(2),
semisimple-centralizer degree ratios, and the extremal family of groups
with a character vanishing off two classes.

Importing the package loads none of its modules: each is imported by name
(`from chardeg import groupengine`, `import chardeg.lie`), so a caller that
needs only the group engine does not load or compile the rest.
"""

import os

# chardeg makes no BLAS call, and an OpenBLAS worker thread busy-waits once
# numpy loads and makes the --jobs pool fork a threaded process.  So no worker
# unless the caller chose otherwise; this runs before any module imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

__all__ = [
    "bounds", "degrees", "exactmath", "gf2poly", "groupengine",
    "lie", "partitions", "psl2", "symalt",
]
