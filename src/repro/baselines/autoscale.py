"""Reactive autoscaling — the resource-elasticity alternative to CELIA.

The paper's related work (Mao et al., AWS Auto Scaling) meets deadlines
by *reacting*: monitor progress, grow or shrink the allocation each
epoch.  CELIA instead commits to one statically optimal configuration up
front.  The two philosophies trade differently under uncertainty:

* with an accurate demand estimate, the static plan is cheapest (it
  never over-provisions and pays no scaling lag);
* when demand was *under*-estimated, the static plan simply misses the
  deadline, while the autoscaler notices the slip and buys capacity —
  at a premium.

:func:`simulate_autoscaler` plays the reactive policy on the simulated
cloud, epoch by epoch, against the *true* demand, while its planning
believes a (possibly wrong) estimate only through what it observes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.catalog import Catalog
from repro.core.sweepkernel import canonical_sums
from repro.errors import ValidationError
from repro.units import SECONDS_PER_HOUR
from repro.utils.rng import derive_rng

__all__ = ["AutoscaleOutcome", "simulate_autoscaler"]


@dataclass(frozen=True)
class AutoscaleOutcome:
    """Result of one autoscaled execution."""

    completed_on_time: bool
    elapsed_hours: float
    cost_dollars: float
    scaling_actions: int
    peak_nodes: int
    configuration_history: tuple[tuple[int, ...], ...]

    @property
    def epochs(self) -> int:
        """Number of scaling epochs executed."""
        return len(self.configuration_history)


def _greedy_capacity(catalog: Catalog, capacities: np.ndarray,
                     required_gips: float) -> np.ndarray:
    """Cheapest-per-GI/s greedy packing reaching ``required_gips``."""
    config = np.zeros(len(catalog), dtype=np.int64)
    if required_gips <= 0:
        return config
    efficiency = capacities / catalog.prices
    order = np.argsort(efficiency)[::-1]
    total = 0.0
    for i in order:
        while config[i] < catalog.quotas[i] and total < required_gips:
            config[i] += 1
            total += capacities[i]
        if total >= required_gips:
            break
    return config


def simulate_autoscaler(
    catalog: Catalog,
    capacities_gips: np.ndarray,
    true_demand_gi: float,
    deadline_hours: float,
    *,
    epoch_hours: float = 1.0,
    headroom: float = 1.05,
    jitter_sigma: float = 0.03,
    max_epochs: int = 10_000,
    seed: int = 0,
) -> AutoscaleOutcome:
    """Reactive deadline-driven autoscaling against the true demand.

    Policy per epoch: from the work actually remaining, compute the rate
    needed to finish by the deadline, multiply by ``headroom``, and
    provision the greedy cheapest capacity mix that reaches it (scaling
    both up and down).  Execution then burns one epoch of work at the
    provisioned (jittered) rate and bills the epoch at full hours.

    The autoscaler never needs a demand *model* — it observes remaining
    work directly — which is exactly its advantage over a static plan
    built on a wrong estimate.
    """
    capacities = np.asarray(capacities_gips, dtype=float)
    if capacities.shape != (len(catalog),):
        raise ValidationError("capacities must align with the catalog")
    if true_demand_gi <= 0 or deadline_hours <= 0:
        raise ValidationError("demand and deadline must be positive")
    if epoch_hours <= 0 or headroom < 1.0:
        raise ValidationError("epoch must be positive and headroom >= 1")

    remaining = true_demand_gi
    now = 0.0
    cost = 0.0
    actions = 0
    peak = 0
    history: list[tuple[int, ...]] = []
    previous = np.zeros(len(catalog), dtype=np.int64)
    rng = derive_rng(seed, "autoscaler")

    for _ in range(max_epochs):
        if remaining <= 0:
            return AutoscaleOutcome(
                completed_on_time=now <= deadline_hours,
                elapsed_hours=now,
                cost_dollars=cost,
                scaling_actions=actions,
                peak_nodes=peak,
                configuration_history=tuple(history),
            )
        time_left = max(deadline_hours - now, epoch_hours)
        required = remaining / (time_left * SECONDS_PER_HOUR) * headroom
        config = _greedy_capacity(catalog, capacities, required)
        if config.sum() == 0:
            config = previous.copy() if previous.sum() else \
                _greedy_capacity(catalog, capacities, 1e-9)
        if not np.array_equal(config, previous):
            actions += 1
            previous = config.copy()
        history.append(tuple(int(v) for v in config))
        peak = max(peak, int(config.sum()))

        row = config[None, :]
        rate = float(canonical_sums(row, capacities)[0])
        unit_cost = float(canonical_sums(row, catalog.prices)[0])
        jitter = rng.lognormal(0.0, jitter_sigma) if jitter_sigma else 1.0
        work_done = rate * jitter * epoch_hours * SECONDS_PER_HOUR
        if work_done >= remaining:
            # Partial epoch; EC2 2017 still bills the full hour.
            fraction = remaining / work_done
            now += fraction * epoch_hours
            cost += unit_cost * np.ceil(epoch_hours)
            remaining = 0.0
        else:
            remaining -= work_done
            now += epoch_hours
            cost += unit_cost * epoch_hours
    raise ValidationError("autoscaler exceeded max_epochs — check inputs")
