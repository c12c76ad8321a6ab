"""Unit tags, the scalar Quantity type, the fixed conversion table, and the
package's one rule for what a number is (``finite`` and ``floats``).

Canonical internal units are T$2010/yr for production, EJ/yr for energy,
GtC/yr for emissions and ppmv for concentration; gigawatts appear only at
presentation boundaries.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import Iterable

from .errors import DomainError, IncompatibleUnits, KindError
from .records import Record

# Exact GW -> EJ/yr factor pinned for the whole artifact (1 GW over a
# 365-day year: 86400 * 365 * 1e9 J / 1e18).
EJ_PER_YR_PER_GW = 0.0315360

# Days per (Julian) year, for capacity-per-day arithmetic.
DAYS_PER_YEAR = 365.25


class Unit(str, Enum):
    """Enumerated unit tags understood by the package."""

    TUSD = "T$2010"
    TUSD_PER_YR = "T$2010/yr"
    EJ_PER_YR = "EJ/yr"
    GW = "GW"
    GTC_PER_YR = "GtC/yr"
    GTC_PER_EJ = "GtC/EJ"
    PPMV = "ppmv"
    PERSONS = "persons"
    GW_PER_TUSD = "GW/T$2010"
    EJ_PER_YR_PER_TUSD = "(EJ/yr)/T$2010"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: How each convertible pair applies EJ_PER_YR_PER_GW: GW -> EJ/yr multiplies,
#: EJ/yr -> GW divides, and a scaling per T$2010 converts like its numerator.
_CONVERSIONS = {
    (Unit.GW, Unit.EJ_PER_YR): operator.mul,
    (Unit.EJ_PER_YR, Unit.GW): operator.truediv,
    (Unit.GW_PER_TUSD, Unit.EJ_PER_YR_PER_TUSD): operator.mul,
}


def finite(value: object) -> bool:
    """Whether ``value`` is a finite number: ``math.isfinite(value)``, but False, not an
    error, for a value it refuses, such as text (which ``float`` would parse), bytes,
    None, a list or an int too large for a float."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


def floats(values: Iterable[float], what: str) -> tuple[float, ...]:
    """``values`` as a tuple of finite floats; an all-float tuple is returned as it is.

    Raises DomainError naming ``what`` for a ``values`` that is not iterable or is
    encoded text, or for its first value that ``finite`` refuses.
    """
    try:
        if hasattr(values, "decode"):  # bytes would iterate as their ints
            raise TypeError
        values = tuple(values)
    except TypeError:
        raise DomainError(f"{what} must be a sequence of numbers, got {shown(values)}") from None
    all_float = set(map(type, values)) == {float}
    if all_float and math.isfinite(sum(values)):  # a finite sum has no inf or NaN term
        return values
    try:
        all_finite = all(map(math.isfinite, values))
    except (OverflowError, TypeError):  # a value that finite refuses
        all_finite = False
    if not all_finite:
        bad = next(v for v in values if not finite(v))
        raise DomainError(f"{what} must be finite numbers, got {shown(bad)}")
    return values if all_float else tuple(map(float, values))


def shown(value: object) -> str:
    """``repr(value)`` for a message, or an int's sign and bit length if it has too many digits."""
    try:
        return repr(value)
    except ValueError:  # more decimal digits than sys.get_int_max_str_digits()
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"


def to_unit(value: float, source: Unit, target: Unit) -> float:
    """``value`` in ``source`` expressed in ``target``: the one GW <-> EJ/yr path.

    GW -> EJ/yr multiplies by ``EJ_PER_YR_PER_GW`` and EJ/yr -> GW divides by
    it (multiplying by the reciprocal rounds differently for some inputs).
    Raises IncompatibleUnits when no conversion path exists (context-dependent
    conversions such as GtC/yr -> ppmv are deliberately not unit conversions),
    and DomainError when ``value`` or the result is not a finite number.
    """
    if source is not target:
        try:
            direction = _CONVERSIONS[(source, target)]
        except KeyError:
            message = f"no conversion path from {source.value} to {target.value}"
            raise IncompatibleUnits(message) from None
    if finite(value):
        result = value if source is target else direction(value, EJ_PER_YR_PER_GW)
        if math.isfinite(result):
            return result
    raise DomainError(f"{shown(value)} {source.value} is not a finite value in {target.value}")


class Quantity(Record):
    """A finite scalar with a unit tag."""

    __slots__ = _fields = ("value", "unit")
    value: float
    unit: Unit

    def __init__(self, value: float, unit: Unit) -> None:
        if not finite(value):
            raise DomainError(f"quantity value must be a finite number, got {shown(value)}")
        if not isinstance(unit, Unit):
            raise KindError(f"quantity unit must be a Unit, got {shown(unit)}")
        super().__init__(value, unit)
