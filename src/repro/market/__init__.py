"""The simulated spot market.

CELIA proper buys only on-demand capacity; this package makes the
spot-vs-on-demand trade-off a first-class planning axis.  It provides:

* per-instance-type seeded price streams, correlated within a resource
  family (:mod:`repro.market.streams`);
* bid policies mapping a market view to a per-type bid price
  (:mod:`repro.market.bids`);
* a spot :class:`~repro.cloud.pricing.BillingModel` and path-integrated
  realized billing (:mod:`repro.market.billing`);
* purchase planning — splitting a configuration into an on-demand +
  spot purchasing vector with expected cost and interruption risk
  computed against the market (:mod:`repro.market.plan`);
* a :class:`~repro.market.fleet.SpotFleet` that launches spot nodes,
  assigns their seeded interruption times and bills them at the market
  price (:mod:`repro.market.fleet`).

Everything is deterministic under a seed: price paths, interruption
times and bills replay bit-for-bit, which is what lets the adaptive
runtime (:mod:`repro.runtime`) treat spot kills as just another chaos
event with an auditable timeline.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.market.bids": [
        "BidPolicy", "FixedFractionBid", "OnDemandCapBid", "AdaptiveBid",
        "bid_policy", "bid_policy_names",
    ],
    "repro.market.billing": ["SpotExpectedBilling"],
    "repro.market.fleet": ["SpotFleet", "SpotAllocation", "SpotNode"],
    "repro.market.plan": [
        "MarketPolicy", "PurchasePlan", "purchase_plan",
        "split_configuration",
    ],
    "repro.market.streams": ["SpotMarket", "SpotMarketConfig"],
})
