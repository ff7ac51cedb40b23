"""Span self times and reference-speed scaling on hand-made inputs.

    python3 -m pytest bench/test_harness.py
"""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import speed  # noqa: E402
import tracing  # noqa: E402


def test_self_time_excludes_direct_children():
    mod = types.SimpleNamespace()
    mod.leaf = leaf = lambda: sum(range(20000))
    mod.outer = lambda: [mod.leaf() for _ in range(3)]
    tracer = tracing.Tracer()
    tracer._wrap(mod, "leaf", "leaf", None)
    tracer._wrap(mod, "outer", "outer", None)
    mod.outer()
    mod.leaf()
    tracer.remove()
    s = tracer.summary()
    assert s["leaf"][0] == 4 and s["outer"][0] == 1
    assert s["leaf"][1] == pytest.approx(s["leaf"][2])
    spans = list(zip(tracer.name, tracer.parent, tracer.start, tracer.end))
    outer = next(i for i, sp in enumerate(spans) if tracer.names[sp[0]] == "outer")
    children = sum(e - b for n, p, b, e in spans if p == outer)
    assert s["outer"][2] == pytest.approx(s["outer"][1] - children, abs=1e-12)
    assert all(p == outer for n, p, b, e in spans[outer + 1:outer + 4])
    assert spans[-1][1] == -1
    assert mod.leaf is leaf


def sampler(at, took):
    s = speed.Sampler()
    s.at.extend(at)
    s.took.extend(took)
    return s


def test_reference_speed_scales_and_drops_kernel_time():
    nominal = speed.NOMINAL
    s = sampler([0.0, 0.02, 0.04, 0.06], [2 * nominal] * 4)
    # 0.04 s of wall time, two kernel runs inside, machine twice as slow
    assert s.at_reference(0.01, 0.05) == pytest.approx((0.04 - 4 * nominal) / 2)


def test_reference_speed_ignores_a_stalled_kernel_run():
    nominal = speed.NOMINAL
    s = sampler([0.0, 0.02, 0.04, 0.06, 0.08], [nominal, nominal, 50 * nominal, nominal, nominal])
    # the 50x run is taken out of the interval but not used for the speed
    assert s.at_reference(0.03, 0.07) == pytest.approx(0.04 - 51 * nominal)


def test_reference_speed_widens_to_the_nearest_sample():
    s = sampler([0.0, 1.0], [speed.NOMINAL, speed.NOMINAL])
    assert s.at_reference(0.4, 0.5) == pytest.approx(0.1)
    with pytest.raises(RuntimeError):
        sampler([], []).at_reference(0.4, 0.5)
