"""Self-test of the benchmark suite (quota 2, 1-second phases).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import client
import compare
import hostspeed
from ledger import Recorder, instrument, patch_points

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_suite(tmp_path: Path, *args: str) -> "tuple[list[str], dict]":
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quota", "2",
         "--seconds", "1", "--seed", "3", "--workdir", str(tmp_path), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _printed_metric_names(lines: "list[str]") -> set[str]:
    """Names from the human-readable ``  name  value unit`` lines."""
    units = {m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    names = set()
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and line.startswith("  ") and parts[2] in units:
            names.add(parts[0])
    return names


def test_every_printed_name_is_declared(tmp_path):
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    lines, result = _run_suite(tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for workload in (w["name"] for w in SPEC["workloads"]):
        names = {k.split("/", 1)[1] for k in result["metrics"]
                 if k.startswith(workload + "/")}
        assert names == end_to_end, workload
    assert _printed_metric_names(lines) == end_to_end

    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for workload in ("cold-plan", "serve-churn"):
        lines, result = _run_suite(tmp_path, "--workload", workload,
                                   "--trace", "1")
        assert result["correct"]
        assert set(result["metrics"]) == per_layer
        assert _printed_metric_names(lines) == per_layer
        assert all(math.isfinite(m["value"])
                   for m in result["metrics"].values())


class _StallingHandler(BaseHTTPRequestHandler):
    """Answers ``{}`` at once, except that one request stalls the server."""

    protocol_version = "HTTP/1.1"
    lock = threading.Lock()
    served = 0
    stall_at = 20

    def do_POST(self):  # noqa: N802 (http.server naming)
        self.rfile.read(int(self.headers["Content-Length"]))
        with _StallingHandler.lock:  # one request at a time, server-wide
            _StallingHandler.served += 1
            if _StallingHandler.served == _StallingHandler.stall_at:
                time.sleep(0.2)
        # One write: split head and body would meet delayed ACKs.
        self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")

    def log_message(self, *args):
        pass


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        rate = 100.0
        schedule = [(i / rate, "/v1/select", b"{}") for i in range(100)]
        outcomes = client.open_loop("127.0.0.1", server.server_port,
                                    schedule, connections=2)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert all(o.ok for o in outcomes)
    slow = [o for o in outcomes if o.latency_ms >= 50.0]
    # About 20 requests fall due during the 200 ms stall.  A client that
    # timed from the moment it sent would see only the two in flight;
    # timed from the due time, every request due inside the stall is slow.
    assert len(slow) >= 10
    assert max(o.latency_ms for o in outcomes) >= 150.0
    assert max(o.queue_ms for o in outcomes) >= 100.0
    assert sum(o.latency_ms < 10.0 for o in outcomes) >= 60


def _record(workload: str, **values) -> dict:
    metrics = {"setup_s": 1.0, "p50_ms": 10.0, "p95_ms": 20.0,
               "rss_mb": 500.0}
    metrics.update(values)
    return {"workload": workload, "trace": 0, "correct": True,
            "attempted": 100, "failed": 0, "end_to_end": metrics}


def _verdicts(report: dict, workload: str) -> dict:
    return {row["metric"]: row["verdict"]
            for row in report["workloads"][workload]["rows"]}


def test_compare_applies_the_bound_rule():
    tight = [_record("cold-plan", p50_ms=10.0 + 0.01 * i) for i in range(10)]
    same = compare.compare(SPEC, tight, tight)
    assert set(_verdicts(same, "cold-plan").values()) == {"ok"}

    slower = [_record("cold-plan", p50_ms=13.0 + 0.01 * i) for i in range(10)]
    verdicts = _verdicts(compare.compare(SPEC, tight, slower), "cold-plan")
    assert verdicts["p50_ms"] == "regression"  # +30% > bound 0.25
    assert verdicts["p95_ms"] == "ok"
    rate = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.2}
    assert compare.judge(rate, [100.0] * 5, [70.0] * 5)["verdict"] == \
        "regression"
    assert compare.judge(rate, [100.0] * 5, [130.0] * 5)["verdict"] == \
        "better"

    wide = [_record("cold-plan", p50_ms=v, setup_s=v / 10)
            for v in (5, 8, 10, 12, 15, 18, 20, 9, 11, 10)]
    verdicts = _verdicts(compare.compare(SPEC, wide, tight), "cold-plan")
    assert verdicts["p50_ms"] == "unresolved"
    faster = [_record("cold-plan", p50_ms=4.0 - 0.01 * i) for i in range(10)]
    verdicts = _verdicts(compare.compare(SPEC, wide, faster), "cold-plan")
    assert verdicts["p50_ms"] == "better"  # every B run beats every A run
    # Every metric follows the spread rule, setup_s included.
    assert _verdicts(compare.compare(SPEC, wide), "cold-plan") == {
        "setup_s": "unresolved", "p50_ms": "unresolved", "p95_ms": "ok",
        "rss_mb": "ok"}

    failing = [dict(r, failed=5) for r in tight]
    report = compare.compare(SPEC, tight, failing)
    assert report["workloads"]["cold-plan"]["failure_share"] == {
        "a": 0.0, "b": 0.05}


def test_compare_cli_exit_codes(tmp_path, capsys):
    a, b, bad = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "x"
    a.write_text("".join(json.dumps(_record("serve-unique")) + "\n"
                         for _ in range(5)))
    b.write_text("".join(json.dumps(_record("serve-unique", p95_ms=40.0))
                         + "\n" for _ in range(5)))
    bad.write_text("not json\n")
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(bad)]) == 2
    assert "regression" in capsys.readouterr().out


def test_host_speed_scales_an_interval_by_the_samples_around_it():
    nominal = hostspeed.REFERENCE_NOMINAL_S
    host = hostspeed.HostSpeed()
    host.samples = [hostspeed.Sample(0.0, 1.0, 0.04),
                    hostspeed.Sample(5.0, 6.0, 0.08),
                    hostspeed.Sample(9.0, 10.0, 0.02)]
    assert host.factor(1.0, 5.0) == pytest.approx(nominal / 0.06)
    assert host.normalize(3.0, 6.0, 9.0) == pytest.approx(3.0 * nominal
                                                          / 0.05)
    # A sample taken inside the interval counts as well.
    assert host.factor(1.0, 9.0) == pytest.approx(nominal / (0.14 / 3))

    allowed = os.sched_getaffinity(0)
    host.sample()
    assert os.sched_getaffinity(0) == allowed
    assert gc.isenabled()
    assert host.samples[-1].seconds > 0


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_wrappers_record_spans_and_restore_the_originals():
    from repro import Celia, application_by_name, ec2_catalog

    originals = [(owner, attr, _current(owner, attr))
                 for _, owner, attr in patch_points()]
    recorder = Recorder()
    with pytest.raises(RuntimeError):
        with instrument(recorder):
            assert all(_current(o, a) is not f for o, a, f in originals)
            with recorder.span("root") as root:
                celia = Celia(ec2_catalog(max_nodes_per_type=1),
                              cache_dir=False)
                app = application_by_name("galaxy")
                celia.selection_index(app)
                celia.select(app, 65536, 2000, 48, 350)
            raise RuntimeError("leave the block by an exception")
    assert all(_current(o, a) is f for o, a, f in originals)

    names = {s.name for s in recorder.spans}
    assert {"configspace.sweep", "selection.frontier_build",
            "selection.select", "characterization.characterize"} <= names
    totals = recorder.layer_totals(root.id)
    own_root = recorder.self_times()[root.id]
    assert own_root >= 0
    assert sum(totals.values()) + own_root == pytest.approx(root.duration)
