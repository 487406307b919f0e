"""The public result records: immutable, picklable values with stable
defaults and rendering."""

import pickle

import pytest

from corekit import (
    Budgets,
    Graph,
    TheoremReport,
    VertexSet,
    check,
    classify_ke_unicyclic,
    classify_shape,
    critical_difference_bruteforce,
    decompose,
    fixture,
    search_problem1,
    serialize,
    sweep,
)

RECORDS = {
    "Budgets": lambda: Budgets(enum_n=5),
    "ShapeClass": lambda: classify_shape(fixture("uni9-ke")),
    "CriticalReport": lambda: critical_difference_bruteforce(fixture("uni8-nonke")),
    "PendantTree": lambda: decompose(fixture("uni9-ke")).pendant_trees[0],
    "Decomposition": lambda: decompose(fixture("uni9-ke")),
    "KeClassification": lambda: classify_ke_unicyclic(fixture("uni10-nonke")),
    "TheoremReport": lambda: check("MAIN", fixture("uni10-nonke"), "uni10-nonke"),
    "SweepSummary": lambda: sweep([("c5", fixture("c5"))], ["MAIN", "TH3"], family="c5"),
    "Problem1Report": lambda: search_problem1(6),
}


def _plain(value):
    """A value with every record replaced by its fields, every graph by its
    serialization and every vertex set by its labels, so that copies compare
    equal: a graph equals only itself."""
    if type(value).__name__ in RECORDS:
        return tuple(_plain(getattr(value, f)) for f in type(value).__annotations__)
    if isinstance(value, Graph):
        return serialize(value)
    if isinstance(value, VertexSet):
        return value.labels()
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value


@pytest.mark.parametrize("name", RECORDS)
def test_record_pickles_and_is_immutable(name):
    rec = RECORDS[name]()
    assert type(rec).__name__ == name
    copy = pickle.loads(pickle.dumps(rec))
    assert type(copy) is type(rec)
    assert _plain(copy) == _plain(rec)
    field = next(iter(type(rec).__annotations__))
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = None


def test_records_the_pool_ships_round_trip_equal():
    for name in ("Budgets", "TheoremReport"):
        rec = RECORDS[name]()
        assert pickle.loads(pickle.dumps(rec)) == rec


def test_record_defaults_and_rendering():
    b = Budgets()
    assert (b.enum_n, b.subset_n, b.bb_n, b.matching_limit) == (20, 20, 40, 10**6)
    assert repr(b) == "Budgets(enum_n=20, subset_n=20, bb_n=40, matching_limit=1000000)"
    rep = TheoremReport("MAIN", "g", False, None)
    assert rep.witness == ()
    assert rep.counterexample == ()
