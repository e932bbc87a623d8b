"""The result records: immutable, printed as ``Name(field=value)`` and hashed
as the tuple of their fields, so set order and every output byte stay put."""

import pytest

from ck_spectra import (
    OMEGA,
    AdmissiblePair,
    Bundle,
    Check,
    ClusterPoint,
    FRPoint,
    IdealClass,
    IdealKind,
)

RECORDS = [
    (
        Bundle("u", "v", OMEGA),
        ("u", "v", OMEGA, None),
        "Bundle(src='u', dst='v', mult=inf, label=None)",
    ),
    (
        Bundle("x", "u", 2, "g"),
        ("x", "u", 2, "g"),
        "Bundle(src='x', dst='u', mult=2, label='g')",
    ),
    (
        AdmissiblePair(frozenset({"t"}), frozenset()),
        (frozenset({"t"}), frozenset()),
        "AdmissiblePair(h=frozenset({'t'}), s=frozenset())",
    ),
    (
        IdealClass(IdealKind.PRIMITIVE_RETURN, v0="x"),
        (IdealKind.PRIMITIVE_RETURN, "x"),
        "IdealClass(kind=<IdealKind.PRIMITIVE_RETURN: 'primitive-return'>, v0='x')",
    ),
    (
        IdealClass(IdealKind.NOT_PRIME),
        (IdealKind.NOT_PRIME, None),
        "IdealClass(kind=<IdealKind.NOT_PRIME: 'not-prime'>, v0=None)",
    ),
    (
        ClusterPoint(frozenset({"z"})),
        (frozenset({"z"}),),
        "ClusterPoint(members=frozenset({'z'}))",
    ),
    (
        FRPoint("x"),
        ("x",),
        "FRPoint(vertex='x')",
    ),
]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=lambda r: type(r).__name__)
def test_record_prints_and_hashes_as_its_fields(record, fields, text):
    assert repr(record) == text
    assert hash(record) == hash(fields)
    assert record == type(record)(*fields)


@pytest.mark.parametrize("record", [r for r, _, _ in RECORDS] + [Check(True)], ids=lambda r: type(r).__name__)
def test_record_is_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, next(iter(type(record).__annotations__)), None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_check_is_truthy_exactly_when_it_holds():
    assert bool(Check(False)) is False
    assert bool(Check(False, "witness")) is False
    assert bool(Check(True)) is True


def test_points_of_different_kinds_never_compare_equal():
    assert ClusterPoint(frozenset({"v"})) != FRPoint("v")
    assert len({ClusterPoint(frozenset({"v"})), FRPoint("v")}) == 2
