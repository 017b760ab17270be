"""Cloud substrate: a simulated IaaS provider standing in for Amazon EC2.

CELIA consumes three things from the cloud: a catalog of instance types
with prices and vCPU counts (Table III), per-type instruction-execution
capacity (obtained by running scale-down baselines on real instances), and
on-demand billing.  This package simulates all three, including the
virtualization effects (overhead, processor sharing between tenants) that
make the paper's validation errors non-zero.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.cloud.instance": [
        "InstanceType", "Instance", "ResourceCategory", "StorageKind",
    ],
    "repro.cloud.catalog": ["Catalog", "ec2_catalog", "make_catalog"],
    "repro.cloud.pricing": [
        "BillingModel", "LinearBilling", "HourlyQuantizedBilling",
        "PerSecondBilling", "SpotPriceProcess",
    ],
    "repro.cloud.virtualization": ["VirtualizationModel"],
    "repro.cloud.faults": ["ProvisioningFaultModel"],
    "repro.cloud.provider": ["CloudProvider", "Lease"],
    "repro.cloud.billing": ["BillingLedger", "LedgerEntry"],
})
