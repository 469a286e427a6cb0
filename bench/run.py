"""Benchmark for extraspecial: time to a cross-checked answer, per workload.

    python3 bench/run.py --workload orbit-partition --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all              # every workload in turn

Every pass runs in a fresh worker interpreter (worker.py) started one at a
time, with numpy's thread pools pinned to one thread.  Passes repeat while
the next one should still end within --seconds, with at least two untraced
passes (one untraced and one traced with --trace 1).  The run prints one
JSON record line (machine facts, source line count, every pass, sample
counts, raw wall_s, fail_frac) and, as its last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: wall_ref (median pass
time to a checked answer, in units of the reference work that speed.py
samples all through the pass, so that the shared host's drifting speed
cancels out), setup_s (median time from spawning an interpreter until numpy
and every extraspecial module are imported), peak_rss_mb (median peak
resident memory of a pass) and ok_frac (1 - fail_frac: operations whose
outcome matched the expected one, over operations attempted).  With --trace 1
traced and untraced passes alternate; the metrics are the per-layer ones from
the traced passes plus trace.overhead_s.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
WORKLOADS = ("orbit-partition", "degeneration", "census-oracle", "group-law")
SETUP_PROBES = 10  # interpreter starts per run that only import, for setup_s
MIN_PASSES = 2  # untraced passes per untraced run, however long a pass takes
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: list, deadline: float) -> dict:
    """Run one worker to completion; its record plus its setup time."""
    t0 = _clock()
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=_worker_env(), stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed nothing")
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("ready") - t0
    return record


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    sources = sorted((SRC / "extraspecial").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def _layer_metrics(traced: list, notes: list) -> dict:
    """Per-layer metrics over the traced passes: medians of times, and
    counts and ratios that must repeat exactly from pass to pass."""
    out = {}
    for name, (value, unit) in traced[0]["layers"].items():
        values = [r["layers"][name][0] for r in traced]
        if unit == "s":
            value = statistics.median(values)
        elif any(v != value for v in values):
            notes.append(f"{name} differs between traced passes: {values}")
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    start = _clock()
    deadline = start + DEADLINE_S
    setups = [_spawn(["--probe"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    spent = {False: [], True: []}  # seconds per pass, spawn to exit, by tracing
    min_plain = 1 if trace else MIN_PASSES
    while True:
        tracing = trace and len(traced) < len(plain)
        t0 = _clock()
        rec = _spawn(["--workload", workload, "--seed", str(seed),
                      "--trace", str(int(tracing))], deadline)
        spent[tracing].append(_clock() - t0)
        setups.append(rec["setup_s"])
        (traced if tracing else plain).append(rec)
        if len(plain) < min_plain or (trace and not traced):
            continue
        # start another pass only if it should end inside the window
        upcoming = trace and len(traced) < len(plain)
        if _clock() - start + statistics.median(spent[upcoming]) > seconds:
            break
    passes = plain + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    notes = [n for r in passes for n in r["notes"]][:10]
    wall = statistics.median(r["wall_s"] for r in plain)
    end_to_end = {
        "wall_ref": {"value": statistics.median(r["wall_ref"] for r in plain), "unit": "ref"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["rss_mib"] for r in plain), "unit": "MiB"},
        "ok_frac": {"value": 1 - failed / attempted if attempted else 0.0, "unit": "ratio"},
    }
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "machine": dict(machine_facts(), numpy=plain[0]["numpy"]),
        "samples": {"wall_ref": len(plain), "setup_s": len(setups)},
        "wall_s": {"value": wall, "unit": "s"},
        "speed_sample_s": {"value": statistics.median(r["speed_sample_s"] for r in plain),
                           "unit": "s"},
        "fail_frac": {"value": failed / attempted if attempted else 1.0, "unit": "ratio"},
        "end_to_end": end_to_end,
        "passes": [{k: r.get(k) for k in ("wall_s", "wall_ref", "speed_samples", "speed_sample_s",
                                          "setup_s", "rss_mib", "attempted", "failed")}
                   | {"trace": tracing}
                   for tracing, group in ((False, plain), (True, traced)) for r in group],
    }
    metrics = end_to_end
    if trace:
        metrics = _layer_metrics(traced, notes)
        overhead = statistics.median(r["wall_s"] for r in traced) - wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        record["unwrapped"] = traced[0]["unwrapped"]
    record["notes"] = notes
    result = {"correct": attempted > 0 and failed == 0 and not notes,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        # verifysuite's checks are bare asserts, which -O strips
        print("run.py: refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / "extraspecial" / "__init__.py").is_file():
        print(f"run.py: no extraspecial sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            record, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(record), flush=True)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
