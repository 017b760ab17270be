"""Workflows — CELIA extended to DAGs of inter-dependent stages.

The paper optimizes single "highly-parallelizable" applications and cites
workflow schedulers (Mao & Humphrey, Kllapi et al., Zhou et al.) as
complementary related work.  This package closes that gap: a workflow is
a DAG of *stages* (each a bag of independent tasks), and CELIA's
time/cost machinery generalizes with one change — predicted time becomes
the maximum of the work bound ``D_total / U_j`` and the *critical-path*
bound (the chain of dependent stages cannot finish faster than its
serial executions on the fastest vCPU), so wide-but-shallow and
narrow-but-deep workflows price differently on the same configuration.

Contents:

* :mod:`~repro.workflow.dag` — the stage DAG (networkx-backed),
  demand aggregation, critical-path extraction, common topology builders;
* :mod:`~repro.workflow.model` — the two-bound analytical time model and
  workflow-aware configuration selection over the full space;
* :mod:`~repro.workflow.scheduler` — a discrete-event precedence
  scheduler that executes workflows on simulated clusters, validating
  the analytical bound the way Table IV validates Eq. 2.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.workflow.dag": [
        "Stage", "WorkflowDAG", "chain", "fork_join", "diamond",
    ],
    "repro.workflow.model": [
        "WorkflowPrediction", "predict_workflow",
        "select_workflow_configurations",
    ],
    "repro.workflow.scheduler": ["WorkflowReport", "execute_workflow"],
})
