"""One workload in its own process, started by the runner, run.py.

Times the imports and `--setup-reps` constructions of the workload (the
set-up), then repeats the workload's unit for `--seconds` seconds (at
least once), checking every unit's outputs outside the timed region.
Before each unit it times a fixed calibration loop three times, which
run.py uses to correct unit times towards a reference machine speed. With
`--trace 1` the library is wrapped by tracing.install after set-up;
without it nothing is patched. Prints one JSON object as the last line of
standard output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402  (imports hdtwin)

IMPORT_S = time.perf_counter() - T0


_CAL_ROW = numpy.array([[0.7, 1.3]])


def calibrate() -> float:
    """Seconds for a fixed loop of single-row numpy operations and Python
    work, the mix of the library's hot paths, without library code. Its
    time tracks how fast this shared machine runs at the moment."""
    t = time.perf_counter()
    acc, scratch = 0.0, {}
    for i in range(3000):
        y = numpy.maximum(_CAL_ROW * 1.5 + 0.5, 1e-8)
        scratch[i % 7] = float(y[0, 0])
        acc += float(numpy.log(y).sum())
    return time.perf_counter() - t


def _blas() -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-reps", type=int, default=3)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    make = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size][args.workload]
    setups = []
    for _ in range(max(1, args.setup_reps)):
        t = time.perf_counter()
        wl = make(args.seed, **size)
        setups.append(time.perf_counter() - t)

    log = None
    if args.trace:
        import tracing
        log = tracing.SpanLog()
        tracing.install(log)

    args.out.mkdir(parents=True, exist_ok=True)
    walls, calibrations, reports = [], [], []
    with tempfile.TemporaryDirectory(dir=args.out) as tmp:
        started = time.perf_counter()
        # start another unit only if one more of median length still ends in time
        while not walls or (time.perf_counter() - started
                            + statistics.median(walls) <= args.seconds):
            calibrations += [calibrate() for _ in range(3)]
            unit_dir = Path(tmp) / f"unit-{len(walls) + 1}"
            if log is not None:
                log.run_id, log.active = len(walls) + 1, True
            t = time.perf_counter()
            outcome = wl.run(unit_dir)
            walls.append(time.perf_counter() - t)
            if log is not None:
                log.active = False
            reports.append(wl.check(outcome, unit_dir))
            shutil.rmtree(unit_dir, ignore_errors=True)

    doc = {
        "workload": args.workload,
        "import_s": IMPORT_S,
        "setup_reps_s": setups,
        "setup_s": IMPORT_S + statistics.median(setups),
        "walls_s": walls,
        "calibration_s": calibrations,
        "reports": reports,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "blas": _blas()},
    }
    if log is not None:
        spans = args.out / f"spans-{args.workload}-seed{args.seed}.npz"
        log.save(spans)
        doc["layers"] = {name: {"value": value, "unit": tracing.LAYER_UNITS[name]}
                         for name, value in tracing.layer_metrics(log, len(walls)).items()}
        doc["spans"] = len(log.start)
        doc["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
