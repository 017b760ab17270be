"""Shared utilities: seeded RNG plumbing, table rendering, math helpers."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.utils.rng": ["derive_rng", "spawn_seed"],
    "repro.utils.tables": ["TextTable"],
    "repro.utils.mathutil": [
        "relative_error", "percent_error", "approx_gradient",
        "geometric_mean",
    ],
})
