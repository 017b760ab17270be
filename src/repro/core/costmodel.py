"""Cost model — Equations 5 and 6.

``C = T × C_{j,u}`` (Eq. 5) with the configuration's unit cost
``C_{j,u} = Σ_i m_{j,i} · c_i`` (Eq. 6).  Prices come from the catalog
(the paper takes them from the vendor's website); costs are linear in
time — billing quantization is a *measurement* effect modeled by the
engine, never by the analytical model.
"""

from __future__ import annotations

import numpy as np

from repro.core.sweepkernel import canonical_sums
from repro.errors import ValidationError
from repro.units import SECONDS_PER_HOUR

__all__ = ["canonical_cost", "configuration_unit_cost", "predict_cost"]


def configuration_unit_cost(configurations: np.ndarray,
                            prices_per_hour: np.ndarray) -> np.ndarray:
    """Eq. 6: hourly cost ``C_{j,u}`` of each configuration row ($/h).

    Rows are reduced in the canonical arithmetic of
    :func:`~repro.core.sweepkernel.canonical_sums`, as Algorithm 1 does.
    """
    prices = np.asarray(prices_per_hour, dtype=np.float64)
    if prices.ndim != 1 or np.any(prices <= 0) or np.any(~np.isfinite(prices)):
        raise ValidationError("prices must be a 1-D positive vector")
    configs = np.asarray(configurations)
    if configs.ndim == 1:
        configs = configs.reshape(1, -1)
    if configs.shape[1] != prices.size:
        raise ValidationError(
            f"configuration width {configs.shape[1]} does not match "
            f"{prices.size} prices"
        )
    if np.any(configs < 0):
        raise ValidationError("node counts must be non-negative")
    return canonical_sums(configs, prices)


def predict_cost(time_hours: float | np.ndarray,
                 unit_cost_per_hour: float | np.ndarray) -> float | np.ndarray:
    """Eq. 5: execution cost in dollars.  Broadcasts over arrays."""
    t = np.asarray(time_hours, dtype=np.float64)
    cu = np.asarray(unit_cost_per_hour, dtype=np.float64)
    if np.any(t < 0) or np.any(cu < 0):
        raise ValidationError("time and unit cost must be non-negative")
    result = t * cu
    return float(result) if result.ndim == 0 else result


def canonical_cost(demand_gi: float | np.ndarray,
                   capacity_gips: float | np.ndarray,
                   unit_cost_per_hour: float | np.ndarray
                   ) -> float | np.ndarray:
    """Eq. 5 from demand, ``U`` and ``C_u`` as Algorithm 1 computes it.

    ``fl(fl(D·fl(C_u/U))/3600)``: the cost of a
    :class:`~repro.core.selection.ParetoPoint` and of
    :meth:`~repro.core.celia.Celia.predict`, bit for bit.  Broadcasts
    over arrays; no validation (callers pass positive capacities).
    """
    return demand_gi * (unit_cost_per_hour / capacity_gips) / SECONDS_PER_HOUR
