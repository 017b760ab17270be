"""Baseline strategies CELIA is compared against.

The paper argues for (a) *measured* capacities over spec-sheet estimates
(Section IV-B) and (b) *exhaustive* search over heuristics (its Algorithm
1 "guarantees to find all optimal configurations").  This package
implements the alternatives so both claims can be quantified:

* :mod:`~repro.baselines.specbound` — capacity from the spec-sheet
  frequency (the strawman the paper rejects);
* :mod:`~repro.baselines.random_search` — uniform random configuration
  sampling;
* :mod:`~repro.baselines.greedy` — pack capacity by cost-efficiency;
* :mod:`~repro.baselines.hillclimb` — local search in configuration
  space (a CherryPick-flavoured sequential optimizer);
* :mod:`~repro.baselines.comparison` — a harness measuring each
  baseline's optimality gap against the exhaustive optimum.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.baselines.specbound": ["spec_capacities", "spec_prediction_error"],
    "repro.baselines.random_search": ["random_search_min_cost"],
    "repro.baselines.greedy": ["greedy_min_cost"],
    "repro.baselines.hillclimb": ["hillclimb_min_cost"],
    "repro.baselines.autoscale": ["AutoscaleOutcome", "simulate_autoscaler"],
    "repro.baselines.comparison": ["BaselineOutcome", "compare_baselines"],
})
