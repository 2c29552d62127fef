"""The engine's records: construction, defaults, equality, hashing, repr
and immutability, pinned class by class.

The value records, ValidationReport among them, are named tuples, and
FiniteGroup and MultiGroupSpace are frozen classes with their fields as
instance attributes. Each repr is the text the records printed when they
were dataclasses, so a report or a log that prints one reads as before;
ValidationReport's fields are tuples where they were lists.
"""

import pytest

from multigroup import (Classification, CompositionChain, CosetDecomposition,
                        FiniteGroup, GeneratingSet, GenerationWitness,
                        LengthInvariance, Limits, MaximalSeriesResult,
                        MultiGroupSpace, NormalSeries, OrientedOperationSequence,
                        SubsetRef, SubspaceEvidence, ValidationReport, Violation)
from multigroup.series import NormalityEvidence, SequenceLengths


def _cases():
    """(class, fields with their values in order) for all 18 records."""
    z2 = (("0", "1"), (("0", "1"), ("1", "0")))
    ref, low = (("0", "1"), ("+", "*")), (("0",), ("+",))
    series = ((SubsetRef(*ref), SubsetRef(*low)), ("+",), ("TERMINAL_MISMATCH",))
    return [
        (Limits, dict(max_group_order=5, max_exhaustive_universe=6,
                      max_generator_candidates=7)),
        (Violation, dict(category="axiom", kind="inverse", message="no inverse",
                         op_ids=("*",), witness=("a",))),
        (ValidationReport, dict(violations=(Violation("structural", "closure", "m"),),
                                notes=("n",))),
        (FiniteGroup, dict(op_id="+", carrier=z2[0], table=z2[1], identity="0")),
        (CompositionChain, dict(links=(("0", "1"), ("0",)))),
        (MultiGroupSpace, dict(universe=("0", "1"),
                               groups=(FiniteGroup("+", *z2, "0"),))),
        (Classification, dict(tag="field", convention="exact")),
        (SubsetRef, dict(elements=ref[0], retained_ops=ref[1])),
        (SubspaceEvidence, dict(ok=True, intersections=(("+", ("0",)),),
                                parts=(("+", ("0",)),), reason=None)),
        (CosetDecomposition, dict(transversal=("0", "1"), cosets=(("0",), ("1",)))),
        (GeneratingSet, dict(seeds=("1",))),
        (GenerationWitness, dict(generators=("1",), minimal=True)),
        (OrientedOperationSequence, dict(order=("+", "*"))),
        (NormalityEvidence, dict(ok=False, witness=("+", "1", "0", "1"))),
        (NormalSeries, dict(chain=series[0], step_ops=series[1], anomalies=series[2])),
        (MaximalSeriesResult, dict(series=(NormalSeries(*series),),
                                   rejected=((NormalSeries(*series), "r"),))),
        (SequenceLengths, dict(order=("+",), lengths=(1,), constant=1,
                               series_count=1, anomalies=())),
        (LengthInvariance, dict(per_sequence=(SequenceLengths(("+",), (1,), 1, 1, ()),),
                                cross_sequence_constant=None)),
    ]


# the reprs of _cases() as the dataclass records printed them
REPRS = {
    "Limits": (
        'Limits(max_group_order=5, max_exhaustive_universe=6, '
        'max_generator_candidates=7)'),
    "Violation": (
        "Violation(category='axiom', kind='inverse', message='no inverse', "
        "op_ids=('*',), witness=('a',))"),
    "ValidationReport": (
        "ValidationReport(violations=(Violation(category='structural', "
        "kind='closure', message='m', op_ids=(), witness=()),), notes=('n',))"),
    "FiniteGroup": (
        "FiniteGroup(op_id='+', carrier=('0', '1'), table=(('0', '1'), ('1', "
        "'0')), identity='0')"),
    "CompositionChain": (
        "CompositionChain(links=(('0', '1'), ('0',)))"),
    "MultiGroupSpace": (
        "MultiGroupSpace(universe=('0', '1'), groups=(FiniteGroup(op_id='+', "
        "carrier=('0', '1'), table=(('0', '1'), ('1', '0')), identity='0'),))"),
    "Classification": (
        "Classification(tag='field', convention='exact')"),
    "SubsetRef": (
        "SubsetRef(elements=('0', '1'), retained_ops=('+', '*'))"),
    "SubspaceEvidence": (
        "SubspaceEvidence(ok=True, intersections=(('+', ('0',)),), parts=(('+', "
        "('0',)),), reason=None)"),
    "CosetDecomposition": (
        "CosetDecomposition(transversal=('0', '1'), cosets=(('0',), ('1',)))"),
    "GeneratingSet": (
        "GeneratingSet(seeds=('1',))"),
    "GenerationWitness": (
        "GenerationWitness(generators=('1',), minimal=True)"),
    "OrientedOperationSequence": (
        "OrientedOperationSequence(order=('+', '*'))"),
    "NormalityEvidence": (
        "NormalityEvidence(ok=False, witness=('+', '1', '0', '1'))"),
    "NormalSeries": (
        "NormalSeries(chain=(SubsetRef(elements=('0', '1'), retained_ops=('+', "
        "'*')), SubsetRef(elements=('0',), retained_ops=('+',))), step_ops=('+',), "
        "anomalies=('TERMINAL_MISMATCH',))"),
    "MaximalSeriesResult": (
        "MaximalSeriesResult(series=(NormalSeries(chain=(SubsetRef(elements=('0', '1'), "
        "retained_ops=('+', '*')), SubsetRef(elements=('0',), "
        "retained_ops=('+',))), step_ops=('+',), "
        "anomalies=('TERMINAL_MISMATCH',)),), "
        "rejected=((NormalSeries(chain=(SubsetRef(elements=('0', '1'), "
        "retained_ops=('+', '*')), SubsetRef(elements=('0',), "
        "retained_ops=('+',))), step_ops=('+',), "
        "anomalies=('TERMINAL_MISMATCH',)), 'r'),))"),
    "SequenceLengths": (
        "SequenceLengths(order=('+',), lengths=(1,), constant=1, series_count=1, "
        'anomalies=())'),
    "LengthInvariance": (
        "LengthInvariance(per_sequence=(SequenceLengths(order=('+',), "
        'lengths=(1,), constant=1, series_count=1, anomalies=()),), '
        'cross_sequence_constant=None)'),
}

CASES = _cases()
# the first field's value in the inequality check, "other" unless the
# constructor refuses it: a space's universe holds its carriers
OTHER = {"MultiGroupSpace": ("1", "0")}


@pytest.mark.parametrize("cls, fields", CASES, ids=[c.__name__ for c, _ in CASES])
def test_records_construct_compare_hash_and_print_as_before(cls, fields):
    record = cls(*fields.values())
    assert record == cls(**fields) == cls(*fields.values())
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert repr(record) == REPRS[cls.__name__]
    name = next(iter(fields))
    assert cls(**{**fields, name: OTHER.get(cls.__name__, "other")}) != record
    assert hash(record) == hash(cls(**fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == fields[name]
    assert record.__eq__(object()) is NotImplemented


def test_record_defaults():
    assert Limits() == Limits(24, 12, 200_000)
    assert (Limits().max_group_order, Limits().max_exhaustive_universe,
            Limits().max_generator_candidates) == (24, 12, 200_000)
    series = NormalSeries((SubsetRef(("0",), ("+",)),), ())
    assert series.anomalies == () and series.length == 0
    assert ValidationReport() == ValidationReport((), ()) == ((), ())
    bare = Violation("axiom", "k", "m")
    assert bare.op_ids == bare.witness == ()
    assert Classification("group") == Classification("group", None)
    assert SubspaceEvidence(False, (), None).reason is None
    assert NormalityEvidence(True).witness is None
    assert not NormalityEvidence(False) and not SubspaceEvidence(False, (), None)


@pytest.mark.parametrize("build, message", [
    (lambda: FiniteGroup("+", ("0", "0"), (("0", "0"), ("0", "0")), "0"),
     "duplicate element in carrier of '+'"),
    (lambda: FiniteGroup("+", ("0", "1"), (("0", "1"),), "0"),
     "table of '+' is not 2x2"),
    (lambda: FiniteGroup("+", ("0", "1"), (("0", "1"), ("1",)), "0"),
     "table of '+' is not 2x2"),
    (lambda: FiniteGroup("+", ("0", "1"), (("0", "1"), ("1", "0")), "2"),
     "identity '2' not in carrier of '+'"),
    (lambda: FiniteGroup("+", ("0", "1"), (("0", "1"), ("1", "0")), ["0"]),
     "identity ['0'] not in carrier of '+'"),
    (lambda: MultiGroupSpace(("0", "1", "0"), ()), "duplicate element in universe"),
    (lambda: MultiGroupSpace((), ()), "universe is empty"),
], ids=["duplicate-carrier", "rows", "row", "identity", "unhashable-identity",
        "duplicate-universe", "empty-universe"])
def test_frozen_classes_refuse_malformed_fields(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message

