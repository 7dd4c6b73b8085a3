"""hdtwin benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 7 --seconds 50

Runs one workload (or, with `all`, each in turn) in its own child process
(bench/child.py), never two at once, with BLAS limited to one thread.

--trace 0  one untraced child measures for S seconds; prints every
           end-to-end metric of BENCHMARK.json by name with its unit.
           wall_s and the rates are corrected towards a reference machine
           speed by a calibration loop timed between units (see NOTES.md);
           the raw median unit time is printed as info raw_wall_s.
--trace 1  an untraced child and then a traced child (tracing.py wraps the
           library's public functions) measure for S/2 seconds each; prints
           the per-layer metrics (raw times) and trace.overhead_s, the
           traced minus the untraced wall_s.

Quality numbers, output hashes, the failed-operation ratio and provenance
are printed as `info` lines and kept, with every metric, in
bench/out/result-<workload>-seed<N>-trace<T>.json; the traced run also
writes its spans to bench/out/spans-<workload>-seed<N>.npz. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Exits non-zero, printing no result, when the library sources
are missing or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("evolve-chemo-radio", "fit-oracle-cancer", "gen-chemo-radio")
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "transitions_per_s": "1/s",
    "trajectories_per_s": "1/s",
}
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Timed-region metrics are corrected towards the machine speed at which
# child.py's calibration loop takes this long (its median on the box in
# NOTES.md), with this exponent on the speed factor: the lowest slope of log
# unit time on log calibration time measured over the workloads, so that the
# correction never over-corrects one of them (NOTES.md, "Reference machine speed").
CALIBRATION_REFERENCE_S = 0.02
CALIBRATION_EXPONENT = 0.5
CHILD_TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_ENV:
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, setup_reps: int,
              size: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--setup-reps", str(setup_reps), "--size", size, "--out", str(OUT)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def provenance(child: dict) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True)
            git_sha = res.stdout.strip() or None
        except OSError:  # git is not installed
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        **child["versions"],
        "thread_env": {var: _child_env()[var] for var in THREAD_ENV},
        "git_sha": git_sha,
        "src_py_lines": src_lines,
    }


def _ops(children: list[dict]) -> tuple[bool, int, int]:
    reports = [r for c in children for r in c["reports"]]
    correct = all(all(r["checks"].values()) for r in reports)
    return (correct, sum(r["attempted"] for r in reports),
            sum(r["failed"] for r in reports))


def speed_factor(child: dict) -> float:
    """Reference calibration time over the run's median calibration time:
    below 1 while the shared machine runs slow."""
    return CALIBRATION_REFERENCE_S / statistics.median(child["calibration_s"])


def unit_wall(child: dict) -> float:
    """Median unit wall time, corrected towards the reference machine speed."""
    return statistics.median(child["walls_s"]) * speed_factor(child) ** CALIBRATION_EXPONENT


def end_to_end(child: dict) -> dict[str, float]:
    wall = unit_wall(child)
    work = child["reports"][0]["work"]
    return {
        "wall_s": wall,
        "setup_s": child["setup_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "transitions_per_s": work["transitions"] / wall,
        "trajectories_per_s": work["trajectories"] / wall,
    }


def info(children: list[dict]) -> dict:
    """Numbers shown but not gated: quality, hashes, failure ratio."""
    reports = [r for c in children for r in c["reports"]]
    first = reports[0]
    _, attempted, failed = _ops(children)
    return {
        "raw_wall_s": statistics.median(children[-1]["walls_s"]),
        "speed_factor": speed_factor(children[-1]),
        "failed_op_ratio": failed / attempted,
        "units": len(reports),
        "quality": first["quality"],
        "hashes": first["hashes"],
        "units_identical": all(r["quality"] == first["quality"]
                               and r["hashes"] == first["hashes"] for r in reports),
        "failed_checks": sorted({k for r in reports for k, ok in r["checks"].items() if not ok}),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    if trace:
        plain = run_child(workload, seed, seconds / 2, 0, 1, size)
        traced = run_child(workload, seed, seconds / 2, 1, 1, size)
        children = [plain, traced]
        metrics = {name: (m["value"], m["unit"]) for name, m in traced["layers"].items()}
        metrics["trace.overhead_s"] = (unit_wall(traced) - unit_wall(plain), "s")
    else:
        children = [run_child(workload, seed, seconds, 0, 3, size)]
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(children[0]).items()}
    correct, attempted, failed = _ops(children)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "info": info(children),
        "provenance": provenance(children[0]),
        "children": children,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return record


def print_record(record: dict):
    w = record["workload"]
    for name, m in record["metrics"].items():
        print(f"{w}  {name} = {m['value']!r} {m['unit']}")
    inf = record["info"]
    print(f"{w}  info raw_wall_s = {inf['raw_wall_s']!r} s (speed_factor"
          f" {inf['speed_factor']!r})")
    print(f"{w}  info failed_op_ratio = {inf['failed_op_ratio']!r} ratio"
          f" ({record['failed']} of {record['attempted']} operations)")
    for name, value in inf["quality"].items():
        print(f"{w}  info {name} = {value!r}")
    for name, value in inf["hashes"].items():
        print(f"{w}  info {name} = {value}")
    print(f"{w}  info units = {inf['units']}, identical outputs across units:"
          f" {inf['units_identical']}")
    if inf["failed_checks"]:
        print(f"{w}  info FAILED CHECKS: {', '.join(inf['failed_checks'])}")
    print(f"{w}  info provenance = {json.dumps(record['provenance'], sort_keys=True)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "criterion", "tiny"), default="full",
                    help="criterion: the acceptance-criteria sizes (bench/NOTES.md);"
                         " tiny: the harness self-check")
    args = ap.parse_args()
    if not (ROOT / "src" / "hdtwin").is_dir() or not (ROOT / "tests" / "replay_fixtures.py").is_file():
        print(f"error: the hdtwin sources (src/hdtwin, tests/replay_fixtures.py) are not"
              f" under {ROOT}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in names:
            print_record(run_workload(workload, args.seed, args.seconds, args.trace, args.size))
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
