"""Contracts of chardeg's record types: the frozen ones refuse assignment,
every one survives a pickle round trip (so `pickle` and `copy` rebuild even
the classes whose `__setattr__` refuses assignment), and a character table
still drops its checked evaluation when a field is assigned."""

import pickle

import pytest

from chardeg import bounds, groupengine, lie, psl2
from chardeg.claims import (
    DegreeRecord, RunConfig, VerificationReport, ingest_degree_records, run_claims,
)
from chardeg.degrees import DegreeMultiset

D8 = {"name": "D8", "kind": "permutation", "degree": 4,
      "generators": [[1, 2, 3, 0], [3, 2, 1, 0]]}


def _frozen_records():
    ds = psl2.psl2_degrees(5)
    dec = bounds.e_of(60, 5)
    gid = lie.SimpleGroupId("B", 9, 3)
    shape = lie.make_shape("O+", 9, 2, 1, [(3, 2, 1), (1, 1, 1)])
    return [
        dec, bounds.verify_e4_bound(dec), bounds.simple_bound_report(ds),
        bounds.composition_bound(5, 7, 5, 7), bounds.gagola_arithmetic(24, 2, 4, 2, 8),
        ds, psl2.Psl2Char(8, "theta", 3), DegreeRecord("A5", 60, ds),
        RunConfig(degree_records=(DegreeRecord("A5", 60, ds),)),
        gid, lie.seitz_check(gid), shape.factors[0], shape,
    ]


def _mutable_records():
    return [psl2.theta2_stabilizer_odd(9),
            VerificationReport("sec3/nd-counts", "pass", ["d<=16", {"d": [1, 2]}], 0.5),
            groupengine.gagola_analyze(groupengine.group_from_dict(D8))]


@pytest.mark.parametrize("record", _frozen_records(), ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record):
    name = type(record).__name__
    field = "entries" if name == "DegreeMultiset" else record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unknown_field = None


@pytest.mark.parametrize("record", _frozen_records() + _mutable_records(),
                         ids=lambda r: type(r).__name__)
def test_records_survive_a_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == repr(record)


def test_claim_reports_survive_a_pickle_round_trip():
    [report] = run_claims(["lem3.5/composition-bound"], RunConfig())
    copy = pickle.loads(pickle.dumps(report))
    assert copy.to_json() == report.to_json() and copy.status == "pass"


def test_degree_records_pickle_with_their_multisets(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"name": "S3", "order": 6, "degrees": [[1, 2], [2, 1]]}\n')
    cfg = RunConfig(degree_records=tuple(ingest_degree_records(path)))
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and copy.degree_records[0].degrees == DegreeMultiset(((2, 1), (1, 2)))


def test_character_table_pickles_and_drops_its_evaluation_on_assignment():
    table = groupengine.dixon_character_table(groupengine.group_from_dict(D8))
    assert table.evaluated is not None
    copy = pickle.loads(pickle.dumps(table))
    # the group has no equality of its own; every other field comes back
    for field in ("class_reps", "class_sizes", "exponent", "degrees", "values",
                  "galois", "evaluated"):
        assert getattr(copy, field) == getattr(table, field), field
    copy.degrees = list(copy.degrees)
    assert copy.evaluated is None and table.evaluated is not None
