"""Spot-market execution — the alternative CELIA deliberately avoids.

The paper's related work (Marathe et al., Gong et al.) optimizes cost by
running on spot instances with checkpointing, and CELIA restricts itself
to on-demand resources because spot "risks abrupt termination, thus, is
difficult to guarantee time deadline satisfaction".  This package makes
that argument quantitative: it simulates spot execution of the same
elastic applications with a mean-reverting price process, bid-crossing
interruptions and periodic checkpointing, and compares cost and
deadline-satisfaction probability against CELIA's on-demand plan.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.spot.checkpoint": ["CheckpointPolicy"],
    "repro.spot.execution": [
        "SpotRunConfig", "SpotOutcome", "simulate_spot_run",
    ],
    "repro.spot.comparison": ["SpotStudy", "compare_spot_vs_ondemand"],
})
