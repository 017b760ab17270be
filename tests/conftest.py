"""Shared fixtures.

Expensive artefacts (the full Table III catalog's 10M-configuration
evaluation, the experiment context) are session-scoped so the whole suite
pays for them once; most unit tests use the small 3-type catalog instead.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

# Pinned Hypothesis profile for CI: per-example deadlines are meaningless
# on shared runners (a noisy neighbour fails a healthy test), and
# derandomization keeps every matrix entry running the identical example
# set — a red build always reproduces locally with HYPOTHESIS_PROFILE=ci.
hypothesis_settings.register_profile("ci", deadline=None, derandomize=True)
_profile = os.environ.get(
    "HYPOTHESIS_PROFILE", "ci" if os.environ.get("CI") else "default")
hypothesis_settings.load_profile(_profile)

from repro.apps import GalaxyApp, SandApp, X264App
from repro.apps.base import PerformanceProfile
from repro.apps.demand import LinearTerm, QuadraticTerm, SeparableDemand
from repro.apps.synthetic import SyntheticApp
from repro.cloud.catalog import Catalog, ec2_catalog, make_catalog
from repro.cloud.instance import ResourceCategory
from repro.core.celia import Celia
from repro.core.configspace import ConfigurationSpace
from repro.engine.runner import EngineConfig


@pytest.fixture(scope="session", autouse=True)
def _isolated_evaluation_cache(tmp_path_factory):
    """Point the persistent evaluation cache at a session tmpdir.

    Keeps the suite from reading or writing the user's real
    ``~/.cache/celia`` (tests must be hermetic and not leave hundreds of
    megabytes behind).
    """
    from repro.cache import CACHE_DIR_ENV

    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(tmp_path_factory.mktemp("celia-cache"))
    yield
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous


@pytest.fixture(scope="session")
def ec2() -> Catalog:
    """The paper's nine-type catalog, quota 5."""
    return ec2_catalog()


@pytest.fixture()
def small_catalog() -> Catalog:
    """A 3-type catalog with quota 2: 26 configurations, brute-forceable."""
    return make_catalog(
        [("a.small", 2, 2.0, 0.10), ("a.big", 4, 2.0, 0.21),
         ("b.small", 2, 2.5, 0.16)],
        quota=2,
    )


@pytest.fixture()
def small_capacities(small_catalog) -> np.ndarray:
    """A made-up measured-capacity vector matching ``small_catalog``."""
    return np.array([2.0, 4.2, 1.5])


@pytest.fixture()
def simple_app() -> SyntheticApp:
    """A deterministic synthetic app: D = n * (1 + 0.5 a^2) GI."""
    return SyntheticApp(
        SeparableDemand(
            size_term=LinearTerm(slope=1.0),
            accuracy_term=QuadraticTerm(a=1.0, b=0.0, c=0.5),
            scale=1.0,
        ),
        profile=PerformanceProfile(
            ipc_by_category={
                ResourceCategory.COMPUTE: 1.0,
                ResourceCategory.GENERAL: 0.8,
                ResourceCategory.MEMORY: 0.6,
            },
            local_ipc=1.0,
        ),
        name="simple",
        task_size_sigma=0.0,
    )


@pytest.fixture()
def ideal_engine() -> EngineConfig:
    """Deterministic, overhead-free engine config."""
    return EngineConfig.ideal()


@pytest.fixture(scope="session")
def celia_ec2() -> Celia:
    """A CELIA instance on the full catalog, shared across the session.

    Characterizations and space evaluations are cached inside, so the
    first test touching an app pays the cost once.
    """
    return Celia(ec2_catalog(), seed=42)


@pytest.fixture(scope="session")
def galaxy() -> GalaxyApp:
    return GalaxyApp()


@pytest.fixture(scope="session")
def sand() -> SandApp:
    return SandApp(seed=42)


@pytest.fixture(scope="session")
def x264() -> X264App:
    return X264App(seed=42)


def brute_force_space(catalog: Catalog) -> np.ndarray:
    """All non-empty configurations of a catalog via itertools (small only)."""
    import itertools

    quotas = catalog.quotas
    rows = [
        np.array(combo)
        for combo in itertools.product(*[range(q + 1) for q in quotas])
        if sum(combo) > 0
    ]
    return np.vstack(rows)


def canonical_sums_brute(configs: np.ndarray, weights) -> np.ndarray:
    """Eq. 3 / Eq. 6 of each row by definition, in plain Python floats.

    ``acc = fl(acc + fl(m_i·W_i))`` left to right in catalog order — the
    one arithmetic every sum in the package must reproduce bit for bit.
    """
    w = [float(x) for x in weights]
    out = []
    for row in np.atleast_2d(configs):
        acc = float(row[0]) * w[0]
        for m, wi in zip(row[1:], w[1:]):
            acc = acc + float(m) * wi
        out.append(acc)
    return np.array(out)


@pytest.fixture()
def small_space(small_catalog) -> ConfigurationSpace:
    return ConfigurationSpace(small_catalog)
