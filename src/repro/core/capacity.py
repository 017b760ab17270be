"""Capacity model — Equations 3 and 4.

The capacity of resource type ``i`` is ``W_i = W_{i,vCPU} × v_i`` (Eq. 4)
and a configuration's total capacity is ``U_j = Σ_i m_{j,i} · W_i``
(Eq. 3).  Capacities are in GI/s throughout.
"""

from __future__ import annotations

import numpy as np

from repro.core.sweepkernel import canonical_sums
from repro.errors import ValidationError

__all__ = ["capacity_from_per_vcpu", "capacity_per_type", "configuration_capacity"]


def capacity_from_per_vcpu(per_vcpu_gips: np.ndarray | float,
                           vcpus: np.ndarray | int) -> np.ndarray | float:
    """Eq. 4: whole-type capacity from per-vCPU rate and vCPU count."""
    w = np.multiply(per_vcpu_gips, vcpus)
    if np.any(np.asarray(w) <= 0):
        raise ValidationError("capacities must be positive")
    return w


def capacity_per_type(capacities_gips: np.ndarray) -> np.ndarray:
    """Validate and return a per-type capacity vector ``W`` (GI/s)."""
    w = np.asarray(capacities_gips, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("capacity vector must be 1-D and non-empty")
    if np.any(~np.isfinite(w)) or np.any(w <= 0):
        raise ValidationError("capacities must be positive and finite")
    return w


def configuration_capacity(configurations: np.ndarray,
                           capacities_gips: np.ndarray) -> np.ndarray:
    """Eq. 3: total capacity ``U_j`` of each configuration row (GI/s).

    ``configurations`` is an (S, M) node-count matrix (any integer dtype).
    Each row is reduced in the canonical arithmetic of
    :func:`~repro.core.sweepkernel.canonical_sums`, so a row's ``U`` is
    the value Algorithm 1 and :meth:`~repro.core.celia.Celia.predict`
    compute for that configuration, bit for bit.
    """
    w = capacity_per_type(capacities_gips)
    configs = np.asarray(configurations)
    if configs.ndim == 1:
        configs = configs.reshape(1, -1)
    if configs.shape[1] != w.size:
        raise ValidationError(
            f"configuration width {configs.shape[1]} does not match "
            f"{w.size} capacity entries"
        )
    if np.any(configs < 0):
        raise ValidationError("node counts must be non-negative")
    return canonical_sums(configs, w)
