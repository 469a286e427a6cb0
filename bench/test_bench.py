"""Tests of the benchmark's tracer and runner (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import probes  # noqa: E402
from spans import Tracer, traced  # noqa: E402
from speed import SpeedProbe  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _span(tracer, clock, name, start, end, children=()):
    """Open name at start, run children (callables), close it at end."""
    clock.now = start
    tracer.enter(name)
    for child in children:
        child()
    clock.now = end
    tracer.exit()


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    t = Tracer(clock=clock)
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and a second a [5, 9]
    _span(t, clock, "x.a", 0, 10, [
        lambda: _span(t, clock, "y.b", 1, 4, [lambda: _span(t, clock, "z.c", 2, 3)]),
        lambda: _span(t, clock, "x.a", 5, 9),
    ])
    assert t.self_s == {"x.a": (10 - 3 - 4) + 4, "y.b": 3 - 1, "z.c": 1}
    assert t.layer_self_s("x") == 7 and t.layer_self_s("y") == 2
    assert sum(t.self_s.values()) == 10  # self times partition the root span
    assert t.edges == {(None, "x.a"): 1, ("x.a", "y.b"): 1, ("y.b", "z.c"): 1,
                       ("x.a", "x.a"): 1}
    assert t.calls("x.a") == 2


def test_refusal_counts_once_at_the_layer_entry():
    clock = FakeClock()
    t = Tracer(clock=clock, refusal=KeyError)

    def inner():
        raise KeyError("cap")

    outer = traced(t, "orbits.outer", traced(t, "orbits.inner", inner))
    entry = traced(t, "other.entry", lambda: outer())
    with pytest.raises(KeyError):
        entry()
    assert t.refusals == {"orbits": 1, "other": 1}
    assert t.stack == []


def test_generator_is_charged_only_inside_next():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def gen():
        for i in range(3):
            clock.now += 1  # work done producing an item
            yield i

    def nested():
        yield from traced(t, "m.enum", gen)()

    items = []
    for item in traced(t, "m.enum", nested)():
        clock.now += 100  # the consumer's own work between items
        items.append(item)
    assert items == [0, 1, 2]
    assert t.self_s["m.enum"] == 3
    assert t.items["m.enum"] == 3  # re-yielded items count once
    assert t.calls("m.enum") == 8  # 4 nexts each, the last raising StopIteration


def test_wrappers_sit_where_names_are_looked_up_and_are_restored():
    from extraspecial import modp, morphisms, oracle, orbits, symplectic
    from extraspecial.errors import CapExceeded
    from extraspecial.groups import Group
    from extraspecial.modp import Mat
    from extraspecial.morphisms import Morphism

    sites = {
        (oracle, "rank"): modp.rank,
        (morphisms, "pairing"): symplectic.pairing,
        (orbits, "enumerate_automorphisms"): morphisms.enumerate_automorphisms,
        (orbits, "build_endo_es2"): morphisms.build_endo_es2,
        (Group, "mul"): Group.mul,
        (Mat, "mul_vec"): Mat.mul_vec,
        (Morphism, "apply_coords"): Morphism.apply_coords,
        (Morphism, "table"): Morphism.table,
    }
    tracer, installation = probes.start(CapExceeded)
    try:
        assert installation.missing == []
        for (owner, name), original in sites.items():
            assert getattr(owner, name) is not original, f"{owner.__name__}.{name}"
        oracle.rank(Mat(3, [[1, 0], [0, 1]]))
        assert tracer.calls("modp.rank") == 1 and tracer.calls("modp.rref") == 1
    finally:
        installation.undo()
    assert installation.restored()
    for (owner, name), original in sites.items():
        assert getattr(owner, name) is original, f"{owner.__name__}.{name}"


def test_speed_probe_samples_through_a_pass_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.01) as speed:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_reference_units_leave_out_the_samples_own_time():
    speed = SpeedProbe()
    speed.samples = [0.1, 0.3]  # mean 0.2 s, 0.4 s of the pass spent sampling
    assert speed.in_reference_units(2.4) == pytest.approx(10)


def _traced_pass(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", "5", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    return json.loads(proc.stdout.splitlines()[-1])


def test_layer_counts_repeat_exactly_between_two_traced_runs():
    first, second = _traced_pass("group-law"), _traced_pass("group-law")
    assert first["failed"] == second["failed"] == 0
    counts = {k: v for k, v in first["layers"].items() if v[1] != "s"}
    assert counts == {k: v for k, v in second["layers"].items() if v[1] != "s"}
    assert counts["groups.mul.calls"][0] > 0


def test_refuses_to_run_under_python_O():
    proc = subprocess.run([sys.executable, "-O", str(BENCH / "run.py"),
                           "--workload", "group-law", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "group-law",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
