"""The one-box atmosphere's parameters, shared by the emissions statistics and the projections.

The atmosphere model is a single linear sink: d(delta)/dt = kappa*C - sigma*delta,
where delta is the CO2 concentration perturbation above the pre-industrial
baseline. The sink rate sigma acts on the instantaneous perturbation (the
observations behind its default value used decadal averages; the difference
is a documented simplification). ``projection`` integrates it.
"""

from __future__ import annotations

from .errors import DomainError
from .records import Record
from .units import finite

#: Default linear sink rate band supported by the observational record.
SIGMA_BAND = (0.019, 0.027)


class CarbonCycleParams(Record):
    """Sink rate (1/yr), airborne conversion (ppmv/GtC) and baseline (ppmv)."""

    __slots__ = _fields = ("sigma", "kappa_a", "preindustrial", "allow_sigma_out_of_band")
    sigma: float
    kappa_a: float
    preindustrial: float
    allow_sigma_out_of_band: bool

    def __init__(
        self,
        sigma: float = 0.023,
        kappa_a: float = 0.47,
        preindustrial: float = 275.0,
        allow_sigma_out_of_band: bool = False,
    ) -> None:
        if not all(finite(v) and v > 0 for v in (sigma, kappa_a, preindustrial)):
            raise DomainError("carbon-cycle parameters must be finite and strictly positive")
        low, high = SIGMA_BAND
        if not allow_sigma_out_of_band and not (low <= sigma <= high):
            raise DomainError(
                f"sigma={sigma} outside the supported band {SIGMA_BAND}; "
                "pass allow_sigma_out_of_band=True to override"
            )
        super().__init__(sigma, kappa_a, preindustrial, allow_sigma_out_of_band)

    def committed_delta(self, emissions: float) -> float:
        """kappa*C/sigma, ppmv: the perturbation at which emissions C (GtC/yr) balance the sink."""
        return self.kappa_a * emissions / self.sigma
