"""Smoke test of the benchmark: every workload's code path on the ``tiny``
preset, traced and untraced, in well under a minute.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q

It is not collected by a plain ``pytest`` run (``testpaths`` names only
``tests`` and ``benchmarks``). It uses the repository's ``spark`` fixture
(root ``conftest.py``) instead of the command's pinned session, so it checks
code paths and metric names, not timings.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
# Spark's Python workers inherit this when the fixture launches the JVM.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
)

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_on_tiny(spark, name):
    wl = replace(bench.WORKLOADS[name], preset="tiny")
    plain = bench.run(spark, wl, seed=0, seconds=0, trace=False)
    assert plain["failed"] == 0, plain["problems"]
    assert sorted(plain["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(v > 0 for v, _ in plain["metrics"].values())

    traced = bench.run(spark, wl, seed=1, seconds=0, trace=True)
    assert traced["failed"] == 0, traced["problems"]
    layers = traced["layer_metrics"]
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])

    calls = {k: v for k, (v, _) in layers.items() if k.endswith(".calls")}
    if name == "ti_lastfm":
        assert calls["influence.rrset.generate_spark.calls"] == 0
        assert calls["baselines.tim.kpt_estimation.calls"] > 0
    elif name == "rrgen_livejournal":
        assert calls["influence.rrset.generate_local.calls"] == 0
        assert calls["influence.rrset.generate_spark.calls"] == 2
        assert all(v == 0 for k, v in calls.items() if k.startswith("core."))
    else:
        assert calls["core.search.search.calls"] > 0
        assert layers["core.rma.rounds"][0] > 0

    # Spans outside every op and set-up repetition come only from the calls
    # between ops: an α cell's cost matrix and the output checks.
    outside = {sp["name"] for sp in traced["spans"] if sp["op"] is None}
    assert outside <= {"costs.incentives.seed_costs", "influence.evaluate.evaluate_revenue"}
    for sp in traced["spans"]:
        assert -1e-9 <= sp["self_s"] <= sp["end"] - sp["start"] + 1e-9


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/, the command exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ti_lastfm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
