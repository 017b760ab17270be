"""Differential tests of the structured Algorithm-1 path.

:class:`~repro.core.selection.StructuredIndex` answers from the sum
structure of Eq. 3 / Eq. 6 instead of a sweep.  Every answer must equal,
bit for bit, the streamed scan over a swept evaluation and a brute-force
enumeration in the canonical arithmetic — including on catalogs with
duplicated types (exact ``(U, P)`` ties) and on deadlines and budgets
placed exactly on, or one ulp beside, a configuration's own time or
cost, where the count's slack band is exercised.

The Hypothesis tests run on the pinned ``ci`` profile (derandomized, no
deadline) whatever profile the session loads, so every run draws the
same examples.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.catalog import Catalog, ec2_catalog, make_catalog
from repro.core import selection
from repro.core.celia import Celia
from repro.core.configspace import ConfigurationSpace
from repro.core.selection import StructuredIndex, select_configurations
from repro.core.sweepkernel import ChunkKernel
from tests.conftest import brute_force_space, canonical_sums_brute


@st.composite
def catalogs(draw):
    """2–5 types, quotas 1–3, some types duplicated (same W and price)."""
    n = draw(st.integers(2, 5))
    kinds = []
    for _ in range(n):
        if kinds and draw(st.booleans()):
            kinds.append(draw(st.sampled_from(kinds)))  # exact duplicate
        else:
            kinds.append((draw(st.floats(0.3, 8.0)),
                          draw(st.floats(0.01, 1.5))))
    quotas = tuple(draw(st.integers(1, 3)) for _ in range(n))
    base = make_catalog([(f"t{i}", 2, 2.0, price)
                         for i, (_, price) in enumerate(kinds)])
    return (Catalog(types=base.types, quotas=quotas),
            np.array([w for w, _ in kinds]))


def brute_force(catalog, capacities, demand, deadline, budget,
                excluded=()):
    """Algorithm 1 by enumeration: (count, frontier configurations).

    Canonical sums by definition and an O(k²) nondomination filter over
    ``(−U, r)``.
    """
    configs = brute_force_space(catalog)
    if excluded:
        configs = configs[(configs[:, list(excluded)] == 0).all(axis=1)]
    capacity = canonical_sums_brute(configs, capacities)
    ratio = canonical_sums_brute(configs, catalog.prices) / capacity
    times = demand / capacity / 3600.0
    costs = demand * ratio / 3600.0
    feasible = (times < deadline) & (costs < budget)
    u, r = capacity[feasible], ratio[feasible]
    dominated = ((u[None, :] >= u[:, None]) & (r[None, :] <= r[:, None])
                 & ((u[None, :] > u[:, None]) | (r[None, :] < r[:, None])))
    frontier = configs[feasible][~dominated.any(axis=1)]
    return int(feasible.sum()), {tuple(int(v) for v in c) for c in frontier}


def boundary_queries(catalog, capacities, demand, row):
    """Deadlines and budgets on one configuration's exact time and cost,
    and one ulp either side of them."""
    config = brute_force_space(catalog)[row]
    u = canonical_sums_brute(config, capacities)[0]
    r = canonical_sums_brute(config, catalog.prices)[0] / u
    t, c = demand / u / 3600.0, demand * r / 3600.0
    steps = (-math.inf, None, math.inf)
    for dt in steps:
        for dc in steps:
            yield (t if dt is None else math.nextafter(t, dt),
                   c if dc is None else math.nextafter(c, dc))


def check_query(index, evaluation, catalog, capacities, demand, deadline,
                budget, excluded=()):
    structured = index.select(demand, deadline, budget)
    if excluded:
        mask = evaluation.space.mask_using_types(list(excluded))
    else:
        mask = None
    streamed = select_configurations(evaluation, demand, deadline, budget,
                                     method="streamed", exclude_mask=mask,
                                     chunk_size=7)
    assert structured == streamed
    count, frontier = brute_force(catalog, capacities, demand, deadline,
                                  budget, excluded)
    assert structured.feasible_count == count
    assert {p.configuration for p in structured.pareto} == frontier


class TestDifferential:
    @settings(settings.get_profile("ci"), max_examples=60)
    @given(data=st.data(), catalog=catalogs(),
           demand=st.floats(1e2, 1e6))
    def test_frontier_count_and_select_match_oracles(self, data, catalog,
                                                     demand):
        catalog, capacities = catalog
        space = ConfigurationSpace(catalog)
        evaluation = space.evaluate(capacities)
        index = StructuredIndex(space, capacities)
        # The demand-invariant frontier equals the evaluation's.
        assert index.frontier_rows.tobytes() == \
            evaluation.frontier_index().frontier_rows.tobytes()
        row = data.draw(st.integers(0, space.size - 1))
        queries = list(boundary_queries(catalog, capacities, demand, row))
        queries.append((data.draw(st.floats(1e-3, 1e3)),
                        data.draw(st.floats(1e-3, 1e3))))
        # Small blocks make these small halves span several blocks.
        block = data.draw(st.sampled_from([1, 2, 3, 64]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(selection, "_HALF_BLOCK", block)
            for deadline, budget in queries:
                check_query(index, evaluation, catalog, capacities, demand,
                            deadline, budget)
            batch = index.select_batch([demand] * len(queries),
                                       [t for t, _ in queries],
                                       [c for _, c in queries])
        assert batch == [index.select(demand, t, c) for t, c in queries]

    def test_paper_catalog_at_quota_3(self):
        """Table III at quota 3: 1,024 right half-sums in 16 blocks."""
        catalog = ec2_catalog(max_nodes_per_type=3)
        capacities = np.array([1.9, 3.7, 7.5, 2.2, 4.4, 8.8, 2.0, 4.1, 8.3])
        space = ConfigurationSpace(catalog)
        evaluation = space.evaluate(capacities)
        index = StructuredIndex(space, capacities)
        assert index.frontier_rows.tobytes() == \
            evaluation.frontier_index().frontier_rows.tobytes()
        rng = np.random.default_rng(17)
        queries = [(d, t, c) for d, t, c in zip(
            rng.uniform(1e5, 3e6, 20), rng.uniform(1.0, 60.0, 20),
            rng.uniform(5.0, 400.0, 20))]
        for row in rng.integers(0, space.size, 4):
            d = 1e6
            t, c = on_row(evaluation, int(row), d)
            queries += [(d, t, 1e9), (d, 1e9, c),
                        (d, math.nextafter(t, math.inf),
                         math.nextafter(c, math.inf))]
        for d, t, c in queries:
            assert index.select(d, t, c) == select_configurations(
                evaluation, d, t, c, method="streamed")

    @settings(settings.get_profile("ci"), max_examples=40)
    @given(data=st.data(), catalog=catalogs(),
           demand=st.floats(1e2, 1e6))
    def test_excluded_types_match_the_masked_scan(self, data, catalog,
                                                  demand):
        catalog, capacities = catalog
        space = ConfigurationSpace(catalog)
        evaluation = space.evaluate(capacities)
        excluded = data.draw(st.sets(st.integers(0, len(catalog) - 1),
                                     min_size=1, max_size=len(catalog)))
        index = StructuredIndex(space, capacities, excluded_types=excluded)
        row = data.draw(st.integers(0, space.size - 1))
        for deadline, budget in boundary_queries(catalog, capacities,
                                                 demand, row):
            check_query(index, evaluation, catalog, capacities, demand,
                        deadline, budget, tuple(sorted(excluded)))


SMALL = make_catalog([("a.small", 2, 2.0, 0.10), ("a.big", 4, 2.0, 0.21),
                      ("b.small", 2, 2.5, 0.16), ("b.twin", 2, 2.5, 0.16)],
                     quota=3)
SMALL_CAPACITIES = np.array([2.0, 4.2, 1.5, 1.5])


@pytest.fixture(scope="module")
def small():
    space = ConfigurationSpace(SMALL)
    return (space, space.evaluate(SMALL_CAPACITIES),
            StructuredIndex(space, SMALL_CAPACITIES))


def on_row(evaluation, row, demand):
    """A (deadline, budget) exactly on one row's time and cost."""
    u = float(evaluation.capacity_gips[row])
    r = float(evaluation.cost_ratio()[row])
    return demand / u / 3600.0, demand * r / 3600.0


class TestBandAndFallback:
    def test_forced_band_is_resolved_exactly(self, small, monkeypatch):
        space, evaluation, index = small
        resolved = []
        original = selection._count_feasible

        def spy(capacity, *args):
            resolved.append(capacity.size)
            return original(capacity, *args)

        monkeypatch.setattr(selection, "_count_feasible", spy)
        demand = 5e4
        for row in range(0, space.size, 17):
            deadline, budget = on_row(evaluation, row, demand)
            for t, c in ((deadline, budget),
                         (math.nextafter(deadline, math.inf), 1e9),
                         (1e9, math.nextafter(budget, math.inf))):
                streamed = select_configurations(
                    evaluation, demand, t, c, method="streamed")
                assert index.feasible_count(demand, t, c) == \
                    streamed.feasible_count
        assert any(resolved)  # some band pairs were summed in full

    def test_oversized_band_falls_back_to_the_exhaustive_count(
            self, small, monkeypatch):
        space, evaluation, index = small
        monkeypatch.setattr(selection, "_BAND_LIMIT", 0)
        fallbacks = []
        original = StructuredIndex._exhaustive_count

        def spy(self, *args):
            fallbacks.append(args)
            return original(self, *args)

        monkeypatch.setattr(StructuredIndex, "_exhaustive_count", spy)
        demand = 5e4
        deadline, budget = on_row(evaluation, 40, demand)
        for t, c in ((deadline, 1e9), (1e9, budget), (deadline, budget)):
            streamed = select_configurations(evaluation, demand, t, c,
                                             method="streamed")
            assert index.select(demand, t, c) == streamed
        assert fallbacks

    @pytest.mark.parametrize("demand, deadline, budget, expected", [
        # Even the largest finite ratio costs less than $1: the ratio
        # cutoff is +inf and every row counts.
        (5e-324, 1e300, 1.0, "all"),
        # C'·3600/D overflows; the cutoff is finite, far above every row.
        (5e-324, 1e300, 1e-300, "all"),
        # C'·3600/D underflows to zero; no row is affordable.
        (1e300, 1e300, 5e-324, "none"),
        # No capacity is fast enough.
        (1e300, 5e-324, 1e300, "none"),
    ])
    def test_extreme_cutoffs(self, small, demand, deadline, budget,
                             expected):
        space, evaluation, index = small
        streamed = select_configurations(evaluation, demand, deadline,
                                         budget, method="streamed")
        assert streamed.feasible_count == \
            (space.size if expected == "all" else 0)
        assert index.select(demand, deadline, budget) == streamed


class TestBroadcastSweep:
    @pytest.mark.parametrize("quota, chunks", [(1, (1, 7, 64)),
                                               (3, (97, 1001, 1 << 18))])
    def test_identical_to_the_kernel_over_any_spans(self, quota, chunks):
        catalog = ec2_catalog(max_nodes_per_type=quota)
        space = ConfigurationSpace(catalog)
        capacities = np.linspace(0.7, 3.1, len(catalog))
        evaluation = space.evaluate(capacities, collect_candidates=False)
        rng = np.random.default_rng(quota)
        for chunk in chunks:
            kernel = ChunkKernel(space.strides, space.radices, capacities,
                                 catalog.prices, max_chunk=chunk)
            cuts = np.unique(np.concatenate(
                [[1, space.size + 1],
                 rng.integers(1, space.size + 1, size=5)]))
            capacity = np.empty(space.size)
            unit_cost = np.empty(space.size)
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                for start in range(lo, hi, chunk):
                    stop = min(start + chunk, hi)
                    kernel.evaluate_into(start, stop,
                                         capacity[start - 1:stop - 1],
                                         unit_cost[start - 1:stop - 1])
            assert capacity.tobytes() == evaluation.capacity_gips.tobytes()
            assert unit_cost.tobytes() == \
                evaluation.unit_cost_per_hour.tobytes()

    @pytest.mark.slow
    def test_identical_to_the_kernel_at_quota_5(self):
        catalog = ec2_catalog()
        space = ConfigurationSpace(catalog)
        capacities = np.linspace(0.7, 3.1, len(catalog))
        evaluation = space.evaluate(capacities, collect_candidates=False)
        kernel = ChunkKernel(space.strides, space.radices, capacities,
                             catalog.prices, max_chunk=1 << 21)
        capacity = np.empty(space.size)
        unit_cost = np.empty(space.size)
        kernel.evaluate_into(1, space.size + 1, capacity, unit_cost)
        assert capacity.tobytes() == evaluation.capacity_gips.tobytes()
        assert unit_cost.tobytes() == evaluation.unit_cost_per_hour.tobytes()


class TestPaperScale:
    @pytest.mark.slow
    def test_figure4_pin(self):
        """Figure 4: galaxy P(65536, 8000) under 24 h / $350 at quota 5."""
        from repro.apps import application_by_name

        celia = Celia(ec2_catalog(), cache_dir=False, workers=None)
        app = application_by_name("galaxy")
        structured = celia.select(app, 65536, 8000, 24.0, 350.0)
        assert structured.feasible_count == 5_560_701
        assert len(structured.pareto) == 59
        assert structured == celia.select(app, 65536, 8000, 24.0, 350.0,
                                          method="streamed")
