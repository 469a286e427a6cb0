"""One pass of one workload in a fresh interpreter; prints one JSON line.

run.py starts a new worker for every pass and never reuses one, so every pass
pays the imports and fills the library's per-process caches (the group()
cache, coords_matrix, f_table, mult_table, the generator right-multiplication
columns) the way one CLI invocation does.  With --probe the worker only
imports the library and reports when it was ready.
"""

import sys
import time

import numpy

import extraspecial
from extraspecial import cli, oracle, verifysuite  # noqa: F401  (all layers loaded)

# CLOCK_MONOTONIC is system-wide, so run.py can subtract its own spawn time.
READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _peak_rss_mib() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    if sys.flags.optimize:
        print("worker: refusing to run under python -O", file=sys.stderr)
        return 2
    if Path(extraspecial.__file__).resolve().parent.parent != SRC:
        print(f"worker: imported extraspecial from {extraspecial.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    record = {"ready": READY, "numpy": numpy.__version__}
    if args.probe:
        print(json.dumps(record))
        return 0

    import probes
    import workloads
    from speed import SpeedProbe

    tally = workloads.Tally()
    if args.trace:
        tracer, installation = probes.start(extraspecial.CapExceeded)
        t0 = time.perf_counter()
        try:
            workloads.run(args.workload, args.seed, tally)
        finally:
            wall = time.perf_counter() - t0
            installation.undo()
        tally.check(installation.restored(), "a traced attribute was not restored")
        record["layers"] = probes.metrics(tracer)
        record["unwrapped"] = installation.missing
    else:
        # untraced passes give the end-to-end times; the probe's samples
        # would be charged to whichever span is open, so traced ones go without
        with SpeedProbe() as speed:
            t0 = time.perf_counter()
            workloads.run(args.workload, args.seed, tally)
            wall = time.perf_counter() - t0
        record.update(wall_ref=speed.in_reference_units(wall), speed_samples=len(speed.samples),
                      speed_sample_s=statistics.mean(speed.samples))
    record.update(wall_s=wall, rss_mib=_peak_rss_mib(), attempted=tally.attempted,
                  failed=tally.failed, notes=tally.notes)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
