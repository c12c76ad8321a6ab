"""Exception hierarchy shared by all enerscale modules."""


class EnerscaleError(Exception):
    """Base class for every error raised by this package."""


class KindError(EnerscaleError):
    """A series of the wrong kind (or a unit inconsistent with its kind) was supplied."""


class DomainError(EnerscaleError):
    """A value violates the domain rules of its quantity (sign, finiteness, ordering)."""


class IncompatibleUnits(DomainError):
    """No conversion path exists between the requested unit tags."""


class InvalidPeriod(EnerscaleError):
    """Period bounds are not a strictly increasing pair of years."""


class EmptySlice(EnerscaleError):
    """A slice or alignment produced no data points."""


class ParseError(EnerscaleError):
    """A delimited text file could not be parsed; message carries the row number."""


class SchemaError(EnerscaleError):
    """A required column is missing from an input file."""


class GapError(EnerscaleError):
    """An operation requiring a contiguous annual series received one with gaps."""


class TooFewPoints(EnerscaleError):
    """Not enough knots for the requested interpolation."""


class MissingYearOne(EnerscaleError):
    """Initial-wealth calibration needs the series to cover year 1 CE."""
