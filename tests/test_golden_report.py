"""The verify-all report, pinned: every claim's status and witnesses must
equal `tests/data/verify_all.report.json`, the report of

    chardeg verify-all --degrees tests/data/degree_records.jsonl

with every `seconds` field removed.  A change that alters a witness on
purpose regenerates the file in the same change with

    PYTHONPATH=src python tests/test_golden_report.py
"""

import json
from pathlib import Path

from chardeg.claims import CLAIMS, RunConfig, ingest_degree_records, run_claims

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "data" / "verify_all.report.json"


def verify_all_report() -> list[dict]:
    """The report entries, as JSON reads them back, without their times."""
    records = ingest_degree_records(ROOT / "tests" / "data" / "degree_records.jsonl")
    reports = run_claims(list(CLAIMS), RunConfig(degree_records=tuple(records)))
    entries = json.loads(json.dumps([r.to_json() for r in reports]))
    for entry in entries:
        del entry["seconds"]
    return entries


def test_verify_all_report_matches_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    report = verify_all_report()
    assert [e["claim"] for e in report] == [e["claim"] for e in golden]
    for want, got in zip(golden, report):
        claim = want["claim"]
        assert got["status"] == want["status"], (claim, want["status"], got["status"])
        for i, (w, g) in enumerate(zip(want["witnesses"], got["witnesses"])):
            assert g == w, f"{claim}: witness {i} is {g!r}, the golden file has {w!r}"
        assert len(got["witnesses"]) == len(want["witnesses"]), \
            f"{claim}: {len(got['witnesses'])} witnesses, the golden file has " \
            f"{len(want['witnesses'])}"
    assert report == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(verify_all_report(), indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
