import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enerscale.errors import DomainError, IncompatibleUnits, KindError
from enerscale.series import SeriesKind
from enerscale.units import EJ_PER_YR_PER_GW, Quantity, Unit, finite, floats, to_unit

CONVERTIBLE_PAIRS = [(Unit.GW, Unit.EJ_PER_YR), (Unit.EJ_PER_YR, Unit.GW)]


@pytest.mark.parametrize("member", [*Unit, *SeriesKind], ids=repr)
def test_a_tag_prints_as_its_value(member):
    """``str`` and f-strings give the tag itself, not ``Unit.GW``."""
    assert str(member) == f"{member}" == member.value


def test_gw_to_ej_definitional_constant():
    assert to_unit(1.0, Unit.GW, Unit.EJ_PER_YR) == 0.0315360


def test_gw_to_ej_scales():
    # 20000 x 0.031536, by hand
    assert to_unit(20000.0, Unit.GW, Unit.EJ_PER_YR) == pytest.approx(630.72, rel=1e-12)


def test_identity_conversion():
    assert to_unit(3.5, Unit.PPMV, Unit.PPMV) == 3.5


def test_no_path_between_unrelated_units():
    with pytest.raises(IncompatibleUnits):
        to_unit(1.0, Unit.GTC_PER_YR, Unit.PPMV)


@given(
    value=st.floats(min_value=1e-6, max_value=1e6),
    pair=st.sampled_from(CONVERTIBLE_PAIRS),
)
def test_round_trip_exact(value, pair):
    source, target = pair
    back = to_unit(to_unit(value, source, target), target, source)
    assert back == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize(
    "value, source, target",
    [
        (1e308, Unit.EJ_PER_YR, Unit.GW),  # overflows: 1e308 / 0.031536
        (float("inf"), Unit.GW, Unit.EJ_PER_YR),
        (float("nan"), Unit.GW_PER_TUSD, Unit.EJ_PER_YR_PER_TUSD),
        (float("inf"), Unit.PPMV, Unit.PPMV),
    ],
)
def test_conversion_rejects_non_finite_result(value, source, target):
    """Each of these used to return inf or nan with no error."""
    with pytest.raises(DomainError, match="not a finite value"):
        to_unit(value, source, target)


def test_quantity_rejects_an_int_too_large_for_a_float():
    """10**400 used to raise a raw OverflowError from the finiteness check."""
    with pytest.raises(DomainError, match="quantity value must be a finite number"):
        Quantity(10**400, Unit.GW)
    with pytest.raises(DomainError, match="quantity value must be a finite number"):
        Quantity(-(10**400), Unit.GW)


def test_identity_conversion_rejects_an_int_too_large_for_a_float():
    with pytest.raises(DomainError, match="not a finite value"):
        to_unit(10**400, Unit.GW, Unit.GW)


@pytest.mark.parametrize("source, target", CONVERTIBLE_PAIRS)
def test_conversion_rejects_an_int_too_large_for_a_float(source, target):
    """The multiplication or division used to raise a raw OverflowError."""
    with pytest.raises(DomainError, match="not a finite value"):
        to_unit(10**400, source, target)


def test_quantity_rejects_non_finite():
    with pytest.raises(DomainError):
        Quantity(float("nan"), Unit.GW)
    with pytest.raises(DomainError):
        Quantity(float("inf"), Unit.TUSD)


@pytest.mark.parametrize("unit", [0.0, "GW"], ids=["float", "str"])
def test_quantity_refuses_a_unit_that_is_not_a_unit_member(unit):
    """Quantity(1.0, 0.0) used to be accepted and fail later in to_unit with AttributeError."""
    with pytest.raises(KindError, match="quantity unit must be a Unit"):
        Quantity(1.0, unit)


@pytest.mark.parametrize("value", ["1.0", None], ids=["str", "none"])
def test_quantity_refuses_a_value_that_is_not_a_number(value):
    """math.isfinite used to raise a raw TypeError."""
    with pytest.raises(DomainError, match="quantity value must be a finite number"):
        Quantity(value, Unit.GW)


def test_conversion_factor_is_365_day_year():
    assert math.isclose(EJ_PER_YR_PER_GW, 86400 * 365 * 1e9 / 1e18, rel_tol=1e-15)


def test_gw_to_ej_multiplies_and_ej_to_gw_divides(snapshot):
    # The reciprocal 1/k rounds differently: 3 of the 38 bundled energy values
    # (e.g. 337.72 EJ/yr) land on other bits as e * (1/k) than as e / k.
    values = snapshot.energy.values
    assert sum(e / EJ_PER_YR_PER_GW != e * (1.0 / EJ_PER_YR_PER_GW) for e in values) == 3
    for e in values:
        assert to_unit(e, Unit.EJ_PER_YR, Unit.GW) == e / EJ_PER_YR_PER_GW
        assert to_unit(e, Unit.GW, Unit.EJ_PER_YR) == e * EJ_PER_YR_PER_GW
        assert to_unit(e, Unit.GW_PER_TUSD, Unit.EJ_PER_YR_PER_TUSD) == e * EJ_PER_YR_PER_GW


def test_public_functions_reject_units_without_a_path():
    from enerscale.projection import (
        committed_equilibrium,
        max_carbonization_coefficient,
        required_clean_capacity,
    )

    with pytest.raises(DomainError):
        required_clean_capacity(Quantity(1.0, Unit.PPMV), 0.02)
    with pytest.raises(DomainError):
        max_carbonization_coefficient(Quantity(5.9, Unit.GW))
    with pytest.raises(DomainError):
        committed_equilibrium(
            Quantity(1.0, Unit.TUSD), Quantity(5.9, Unit.EJ_PER_YR), Quantity(0.02, Unit.GTC_PER_EJ)
        )


def test_gw_ej_factor_is_used_only_in_units():
    """Every GW <-> EJ/yr conversion goes through ``units.to_unit``.

    Outside ``units.py`` the factor may be re-exported (``__init__.py``) but
    never read, and neither it nor its reciprocal may appear as a literal.
    """
    import ast
    from pathlib import Path

    import enerscale

    factors = {EJ_PER_YR_PER_GW, 1.0 / EJ_PER_YR_PER_GW}
    offenders = []
    for path in sorted(Path(enerscale.__file__).parent.glob("*.py")):
        if path.name == "units.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            read = (isinstance(node, ast.Name) and node.id == "EJ_PER_YR_PER_GW") or (
                isinstance(node, ast.Attribute) and node.attr == "EJ_PER_YR_PER_GW"
            )
            literal = isinstance(node, ast.Constant) and node.value in factors
            if read or literal:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


@pytest.mark.parametrize("value", ["1", b"1", bytearray(b"1"), None, [1.0], 1j, 10**400,
                                   math.nan, math.inf])
def test_finite_is_false_for_a_value_that_is_not_a_finite_number(value):
    assert finite(value) is False


def test_floats_keeps_an_all_float_tuple_and_converts_other_numbers():
    """A finite sum is the fast check; a sum that overflows is checked value by value."""
    for values in ((1.0, 2.5), (1.7e308, 1.7e308)):
        assert floats(values, "x") is values
    for values, expected in (([1, True, 2.5], (1.0, 1.0, 2.5)), ((1, 2.5, -3), (1.0, 2.5, -3.0))):
        converted = floats(values, "x")
        assert converted == expected and all(type(v) is float for v in converted)
    assert floats((), "x") == ()


@pytest.mark.parametrize("values, shown", [
    ((1.0, "1.5"), "'1.5'"),
    ([2, None], "None"),
    ((1.0, math.nan, "x"), "nan"),
    ((-(10**400),), "-1" + "0" * 400),
    ((1.0, math.inf), "inf"),
    ((math.nan, 1.0), "nan"),
])
def test_floats_names_the_first_value_that_is_not_a_finite_number(values, shown):
    with pytest.raises(DomainError, match=f"^knots must be finite numbers, got {shown}$"):
        floats(values, "knots")
