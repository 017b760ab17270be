"""Discrete-event execution engine — the simulated "actual" runs.

The analytical CELIA models predict time and cost; Table IV validates
those predictions against *measured* executions on EC2.  This engine plays
EC2's role: it executes an application's task decomposition on a cluster
of provisioned instances with the mechanisms the analytical model ignores
(per-instance contention, runtime jitter, BSP barrier losses, master
dispatch serialization, node startup, hourly billing), producing the
"Actual" columns.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.engine.events": ["EventSimulator"],
    "repro.engine.cluster": ["SimCluster", "NodeState"],
    "repro.engine.schedulers": [
        "simulate_independent", "simulate_bsp", "simulate_workqueue",
        "ScheduleOutcome",
    ],
    "repro.engine.runner": [
        "EngineConfig", "ExecutionReport", "run_on_configuration",
        "time_single_node_run",
    ],
})
