"""Start-up cost guards: each process imports only what it runs.

* The planning path never loads scipy (an optional dependency, the x264
  reference encoder's DCT): importing it costs about half a second,
  which every ``celia`` command, fleet front end and worker would pay.
* The fleet front end plans nothing, so ``celia fleet serve`` loads no
  numpy at all.
* A plan imports nothing inside its timed region: every module it runs
  is loaded when its process sets up.
* Every package ``__init__`` is a lazy re-export table
  (:mod:`repro._lazy`): each exported name resolves, is listed by
  ``dir()`` and is bound by ``from pkg import *``, and each package
  resolves its names from a fresh interpreter, which catches import
  cycles that an eager import order would hide.

The interpreter-level checks run in fresh subprocesses.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = ["repro"] + sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if m.ispkg)


def _run(program: str) -> dict:
    """Run ``program`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


PROGRAM = """
import json, sys
import repro.cli
from repro import Celia, application_by_name, ec2_catalog

celia = Celia(ec2_catalog(max_nodes_per_type=2), cache_dir=False)
app = application_by_name("sand")
result = celia.select(app, 4.0e6, 0.32, 48.0, 350.0)
print(json.dumps({
    "accuracy_fit": celia.demand_model(app).accuracy_fit.kind,
    "feasible": result.feasible_count,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_cli_import_and_a_plan_load_no_scipy():
    report = _run(PROGRAM)
    assert report["accuracy_fit"] == "log"  # the fit that used curve_fit
    assert report["feasible"] > 0
    assert report["scipy"] == []


def test_fleet_front_end_loads_no_numpy():
    report = _run("""
import json, sys
import repro
import repro.cli
import repro.fleet.frontend
import repro.fleet.supervisor
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "numpy")))
""")
    assert report == []


def test_a_first_plan_imports_no_module():
    report = _run("""
import json, sys
import repro.apps
import repro.cloud
import repro.core.celia

celia = repro.core.celia.Celia(repro.cloud.ec2_catalog(max_nodes_per_type=2),
                               cache_dir=False)
app = repro.apps.X264App()
before = set(sys.modules)
result = celia.select(app, 100.0, 10.0, 48.0, 350.0)
print(json.dumps({"feasible": result.feasible_count,
                  "added": sorted(set(sys.modules) - before)}))
""")
    assert report["feasible"] > 0
    assert report["added"] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_exports_resolve_list_and_star_import(package):
    module = importlib.import_module(package)
    names = module.__all__
    assert names and len(set(names)) == len(names)
    listed = dir(module)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    for name in names:
        assert getattr(module, name) is namespace[name], name
        assert name in listed, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")


@pytest.mark.parametrize("package", PACKAGES)
def test_each_package_resolves_alone_in_a_fresh_interpreter(package):
    report = _run(f"""
import json
import {package} as package
print(json.dumps([type(getattr(package, n)).__name__
                  for n in package.__all__]))
""")
    assert len(report) == len(importlib.import_module(package).__all__)
