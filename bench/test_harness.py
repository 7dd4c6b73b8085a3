"""Fast self-check of the benchmark harness.

    python3 -m pytest -q bench/test_harness.py

Runs every workload at the tiny size, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit; checks the
self-time arithmetic on a synthetic call tree.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["evolve-chemo-radio", "fit-oracle-cancer",
                                      "gen-chemo-radio"])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        assert any(line.startswith(f"{workload}  {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


def test_self_time_on_a_synthetic_call_tree():
    log = tracing.SpanLog()
    root = log.open("root", 0.0)
    a = log.open("a", 1.0)
    a1 = log.open("a1", 2.0)
    log.close(a1, 3.0)
    log.close(a, 4.0)
    b = log.open("b", 5.0)
    log.close(b, 9.0)
    log.close(root, 10.0)
    cols = log.columns()
    assert list(cols["parent"]) == [-1, root, a, root]
    own = tracing.self_times(cols["start"], cols["end"], cols["parent"])
    np.testing.assert_allclose(own, [10 - 3 - 4, 3 - 1, 1, 4])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # parent [0, 10]; children [1, 5] and [3, 7] overlap, [8, 12] overruns the parent
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    own = tracing.self_times(start, end, [-1, 0, 0, 0])
    np.testing.assert_allclose(own, [10 - 6 - 2, 4, 4, 4])


def test_layer_metrics_split_derivative_time_by_caller():
    log = tracing.SpanLog()
    log.run_id = 1
    t = 0.0
    for caller in ("engine.loss_and_grad", "optim.validate_pass", "engine.rollout_mse",
                   "systems.generate_dataset"):
        outer = log.open(caller, t)
        inner = log.open("engine.derivatives", t + 1.0)
        log.close(inner, t + 3.0)
        log.close(outer, t + 4.0)
        t += 10.0
    m = tracing.layer_metrics(log, units=2)
    for name in ("in_loss_s", "in_validate_s", "in_rollout_s", "in_generate_s"):
        assert m[f"engine.derivatives.{name}"] == pytest.approx(1.0)
    assert m["engine.derivatives_calls"] == 2.0
    assert m["engine.loss_and_grad_self_s"] == pytest.approx(1.0)
    assert m["systems.generate_dataset_self_s"] == pytest.approx(1.0)
    assert set(m) == set(tracing.LAYER_UNITS)
