"""Loading user-supplied group descriptions from JSON files.

A group specification is a JSON object with:

    {
      "name": "D8",
      "kind": "permutation" | "matrix",
      "degree": 4,                      # permutation: number of points
      "dimension": 3, "field": 5,      # matrix: size and field order
      "generators": [[...], ...]       # images, or row-major field codes
    }

Matrix entries are field codes 0..q-1 (base-p digit encoding of the
coefficients on the power basis of GF(q) over its prime field).  Every
integer field must be a JSON integer: `true` and `false` are refused, though
Python reads them as 1 and 0.
"""

from __future__ import annotations

import json
from pathlib import Path

from .elements import Mat, Perm
from .field import gf
from .table import GroupTable, close_group


def group_from_dict(data: dict) -> GroupTable:
    if not isinstance(data, dict):
        raise ValueError("group specification must be a JSON object")
    kind = data.get("kind")
    gens_raw = data.get("generators")
    if (not isinstance(gens_raw, list) or not gens_raw
            or not all(isinstance(g, list) and all(type(x) is int for x in g)
                       for g in gens_raw)):
        raise ValueError("group specification needs a nonempty list of integer lists")
    if kind == "permutation":
        degree = data.get("degree")
        if type(degree) is not int:
            raise ValueError("permutation specification needs an integer degree")
        gens = []
        for images in gens_raw:
            if len(images) != degree:
                raise ValueError("generator length does not match the degree")
            gens.append(Perm(images))
        return close_group(gens)
    if kind == "matrix":
        dim = data.get("dimension")
        q = data.get("field")
        if type(dim) is not int or type(q) is not int:
            raise ValueError("matrix specification needs dimension and field order")
        field = gf(q)
        gens = []
        for entries in gens_raw:
            if len(entries) != dim * dim:
                raise ValueError("generator entry count does not match the dimension")
            gens.append(Mat(field, dim, entries))
        return close_group(gens)
    raise ValueError(f"unknown representation kind {kind!r}")


def load_group_file(path) -> tuple[str, GroupTable]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    group = group_from_dict(data)
    name = data.get("name", Path(path).stem)
    if not isinstance(name, str):
        raise ValueError(f"{path}: the group name must be a string, got {name!r}")
    return name, group
