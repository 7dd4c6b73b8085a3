"""The benchmark's units run against the current source.

`test_imports.py` checks that every name the benchmark looks up
resolves; this runs each workload of `bench/workloads.py` at its tiny
size, set-up, `run` and `check`, so a changed signature of a function
the benchmark calls fails here too.  At the tiny size the quality checks
(test scores, the oracle's parameter errors) fail by design; the checks
asserted are those that hold at any size.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()

# the checks of each workload that hold at any size
SIZE_FREE_CHECKS = {
    "evolve-chemo-radio": {"no_generation_faults", "best_curve_non_increasing"},
    "fit-oracle-cancer": set(),
    "gen-chemo-radio": {"reload_bit_equal", "true_model_train_mse_le_1e-12",
                        "trajectory_count_and_rows"},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_each_workload_runs_and_checks_at_the_tiny_size(name, tmp_path):
    unit = WORKLOADS.WORKLOADS[name](seed=3, **WORKLOADS.SIZES["tiny"][name])
    checks = unit.check(unit.run(tmp_path), tmp_path)["checks"]
    assert all(checks[check] for check in SIZE_FREE_CHECKS[name]), checks
