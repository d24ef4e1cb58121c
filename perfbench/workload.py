"""The char-tables workload in one process: build every group from its spec
dict through `groupengine.group_from_dict`, compute its Dixon character table,
and write one result per group.

    PYTHONPATH=src python perfbench/workload.py specs.json out.json

run.py spawns this for the timed runs and calls `run` in its own process
for the traced run.
"""

from __future__ import annotations

import json
import sys
import traceback


def _char_table(groupengine, spec: dict) -> dict:
    group = groupengine.group_from_dict(spec)
    table = groupengine.dixon_character_table(group)
    return {"order": group.order, "classes": table.num_classes,
            "degrees": sorted(table.degrees)}


def run(specs: list[dict]) -> list[dict]:
    """One result per spec, in order; a group whose table raises records
    the error and the remaining groups still run."""
    from chardeg import groupengine

    results = []
    for spec in specs:
        try:
            out = _char_table(groupengine, spec)
        except Exception:  # reported per group; run.py counts it failed
            out = {"error": traceback.format_exc(limit=3)}
        results.append(dict(out, name=spec["name"]))
    return results


if __name__ == "__main__":
    spec_path, out_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        specs = json.load(fh)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(run(specs), fh)
