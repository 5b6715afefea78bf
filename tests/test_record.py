"""Value semantics of the record classes: what `@dataclass(frozen=True)`
gave them, kept without importing `dataclasses`.

Each record is equal to an instance of its own class with equal compared
fields, and hashed as the tuple of them; an instance of any other class
holding the same values, a subclass of the same name included, is never
equal.  The memos some records carry take no part in equality, the hash
or the repr, and each repr below is the text the class printed before
it was a record (the dataclass's, for all but TruncatedSeriesFq), except
MassReport's: its fields are now the datum and the mass.
"""

import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from massform.algebra import PolyQ, TruncatedSeriesQ, ratfun
from massform.csa import RamifiedPlace, parse_shorthand
from massform.finitefield import FqField, TruncatedSeriesFq
from massform.funcfield import (
    FunctionFieldData,
    class_number_A,
    places_of_degree,
    zeta_special_value,
)
from massform.localmodels import LocalModel, ModelCheckReport
from massform.massengine import mass
from massform.orderzeta import order_zeta_at_zero
from massform.record import Record

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "massform").glob("*.py"))

K3 = FunctionFieldData.rational(3)
K2_G1 = FunctionFieldData(q=2, genus=1, l_poly=PolyQ((1, 1, 2)), deg_inf=1)
F4 = FqField.of_order(4)
DATUM = "inf:1/2,1:1/2"


def _fill_field_memos(field):
    places_of_degree(field, 12)
    zeta_special_value(field, 2)
    class_number_A(field)
    mass(parse_shorthand(DATUM, field, rank=2))
    order_zeta_at_zero(parse_shorthand(DATUM, field, rank=2))


# name -> (a factory of one instance, what fills its memos, the memo
# names, its repr as printed before it was a record)
RECORDS = {
    "RationalFunctionQ": (
        lambda: ratfun(PolyQ((2, 4)), PolyQ((3, -9))),
        None, (),
        "RationalFunctionQ(num=PolyQ(-2 + -4*u), den=PolyQ(-3 + 9*u))",
    ),
    "TruncatedSeriesQ": (
        lambda: TruncatedSeriesQ(3, (1, 4, 10, 20)),
        None, (),
        "TruncatedSeriesQ(order=3, coeffs=(1, 4, 10, 20))",
    ),
    "RamifiedPlace": (
        lambda: RamifiedPlace(2, -1, 3),
        None, (),
        "RamifiedPlace(degree=2, inv_num=-1, inv_den=3, is_infinity=False)",
    ),
    "RamificationData": (
        lambda: parse_shorthand(DATUM, K3, rank=2),
        None, (),
        "RamificationData(field=FunctionFieldData(q=3, genus=0, l_poly=PolyQ(1), "
        "deg_inf=1), rank=2, places=(RamifiedPlace(degree=1, inv_num=1, inv_den=2, "
        "is_infinity=True), RamifiedPlace(degree=1, inv_num=1, inv_den=2, "
        "is_infinity=False)))",
    ),
    "FunctionFieldData": (
        lambda: FunctionFieldData(q=2, genus=1, l_poly=PolyQ((1, 1, 2)), deg_inf=1),
        _fill_field_memos,
        ("_counts", "_points", "_zeta_values", "_mass_parts", "_closed_form_values",
         "_closed_form_parts", "_class_number"),
        "FunctionFieldData(q=2, genus=1, l_poly=PolyQ(1 + u + 2*u^2), deg_inf=1)",
    ),
    "LocalModel": (
        lambda: LocalModel(3, 2, 1),
        None, (),
        "LocalModel(q_v=3, d=2, b=1, m_bez=1, precision=6, residue_field=FqField(q=9))",
    ),
    "MassReport": (
        lambda: mass(parse_shorthand(DATUM, K2_G1, rank=2)),
        None, (),
        "MassReport(data=RamificationData(field=FunctionFieldData(q=2, genus=1, "
        "l_poly=PolyQ(1 + u + 2*u^2), deg_inf=1), rank=2, places=(RamifiedPlace("
        "degree=1, inv_num=1, inv_den=2, is_infinity=True), RamifiedPlace(degree=1, "
        "inv_num=1, inv_den=2, is_infinity=False))), mass=Fraction(44, 3))",
    ),
    "TruncatedSeriesFq": (
        lambda: TruncatedSeriesFq(F4, 3, (1, 2, 3)),
        None, (),
        "TruncatedSeriesFq(field=FqField(q=4), precision=3, coeffs=(1, 2, 3))",
    ),
}


def test_every_record_class_is_listed_and_model_check_report_stays_a_dataclass():
    for path in SOURCES:
        # as massform, not as a second package root massform.__init__
        importlib.import_module(f"massform.{path.stem}".removesuffix(".__init__"))
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(RECORDS)
    assert all("__slots__" in vars(cls) for cls in Record.__subclasses__())
    # perfbench copies it with dataclasses.replace
    assert dataclasses.is_dataclass(ModelCheckReport)


def _values(record):
    return tuple(getattr(record, name) for name in record._fields)


def _rebuilt(cls, record):
    """An instance of cls made from record's constructor arguments: its
    compared fields, less those the constructor derives (LocalModel's
    m_bez and residue_field)."""
    params = inspect.signature(cls).parameters
    return cls(**{name: getattr(record, name) for name in record._fields if name in params})


@pytest.mark.parametrize("make, fill, memos, text", RECORDS.values(), ids=RECORDS)
def test_equal_and_hashed_by_the_compared_fields(make, fill, memos, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    values = _values(a)
    assert hash(a) == hash(b) == hash(values)
    assert _rebuilt(type(a), a) == a
    for name in a._fields:
        changed = make()
        object.__setattr__(changed, name, object())
        assert changed != a, name


@pytest.mark.parametrize("make, fill, memos, text", RECORDS.values(), ids=RECORDS)
def test_never_equal_to_another_class_with_the_same_values(make, fill, memos, text):
    a = make()
    twin_class = type(type(a).__name__, (type(a),), {})
    twin = _rebuilt(twin_class, a)
    assert _values(twin) == _values(a)
    assert twin != a and a != twin
    assert a != _values(a)


@pytest.mark.parametrize(
    "make, fill, memos, text",
    [row for row in RECORDS.values() if row[1] is not None],
    ids=[name for name, row in RECORDS.items() if row[1] is not None],
)
def test_memos_stay_out_of_equality_hash_and_repr(make, fill, memos, text):
    filled, fresh = make(), make()
    fill(filled)
    for name in memos:
        assert getattr(filled, name) != getattr(fresh, name), name
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh) == text
    assert not any(name in text for name in memos)


@pytest.mark.parametrize("make, fill, memos, text", RECORDS.values(), ids=RECORDS)
def test_repr_is_the_dataclass_text(make, fill, memos, text):
    assert repr(make()) == text
