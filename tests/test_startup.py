"""Start-up cost guard: the planning path never loads scipy.

scipy is an optional dependency (the x264 reference encoder's DCT).
Importing it costs about half a second, which every ``celia`` command,
fleet front end and worker would pay, so this checks in a fresh
interpreter that the CLI import plus a plan that runs the demand fit
(sand's accuracy demand is logarithmic) leaves no ``scipy`` module in
``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["accuracy_fit"] == "log"  # the fit that used curve_fit
    assert report["feasible"] > 0
    assert report["scipy"] == []
