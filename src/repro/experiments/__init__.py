"""Experiment harness: regenerate every table and figure of the paper.

Each module reproduces one artifact of the evaluation section and renders
the same rows/series the paper reports:

========================  ==========================================
module                    paper artifact
========================  ==========================================
:mod:`.figure2`           Fig. 2 — demand vs problem size / accuracy
:mod:`.figure3`           Fig. 3 — normalized performance per cost
:mod:`.table3`            Table III — EC2 resource types
:mod:`.table4`            Table IV — model validation
:mod:`.figure4`           Fig. 4 — configuration space + Pareto front
:mod:`.figure5`           Fig. 5 — cost of scaling problem size
:mod:`.figure6`           Fig. 6 — cost of scaling accuracy
:mod:`.observations`      Observations 1–3 quantified
========================  ==========================================

Run them all with ``python -m repro.experiments.registry`` (or the
installed ``celia-experiments`` script).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.experiments.common": ["ExperimentContext"],
})
