"""The sign-change rule that turns sampled values into root brackets, the
refiner that turns a bracket and its two samples into a root and its
sample: a port of scipy's brentq that must find the same root after the
same calls of f, the two end values included; and Newton's method on the
slopes that samples carry."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from arcstab import branch
from arcstab.branch import Sample, newton, refine, sign_changes


@pytest.mark.parametrize(
    "vals, brackets",
    [
        ([], []),
        ([1.0, 1.0], []),
        ([1.0, -1.0], [(0, 1)]),
        ([0.0, 1.0], [(0, 0)]),
        ([-1.0, 0.0], [(1, 1)]),
        # a zero sample is one hit, never also the end of a bracket
        ([1.0, 0.0, -1.0], [(1, 1)]),
        ([math.nan, 1.0, -1.0], [(1, 2)]),
        ([2.0, -1.0, 3.0, 0.0], [(0, 1), (1, 2), (3, 3)]),
    ],
)
def test_sign_changes(vals, brackets):
    assert list(sign_changes(vals)) == brackets


@pytest.mark.parametrize(
    "start, stop, num",
    [
        # the CLI's default grids, then a reversed, an empty-width and an
        # integer range, and the one- and no-sample cases
        (0.05, 1.2, 200),
        (-2.7815926535897932, -0.02, 200),
        (1e-4, 2.8, 100),
        (0.0, 0.99, 257),
        (1.5, -0.5, 9),
        (0.3, 0.3, 4),
        (0, 3, 7),
        (0.05, 1.2, 1),
        (0.05, 1.2, 0),
    ],
)
def test_linspace_is_numpys_bit_for_bit(start, stop, num):
    # the grids of every command output, so --out keeps its bytes without numpy
    got = branch.linspace(start, stop, num)
    assert all(type(v) is float for v in got)
    assert got == np.linspace(start, stop, num).tolist()


def test_refine_returns_a_zero_sample_unevaluated():
    def f(x):
        raise AssertionError("a zero sample needs no evaluation")

    fs = [1.0, Sample(0.0, "record"), -1.0]
    root, sample = refine(f, [0.5, 1.0, 2.0], fs, 1, 1, 1e-15)
    assert root == 1.0 and sample is fs[1]


@pytest.mark.parametrize("xtol", [1e-15, 1e-13])
def test_refine_is_brentq_with_4_eps_rtol(xtol):
    f = lambda x: math.cos(x) - x / 3.0
    xs = [0.0, 0.5, 1.0, 1.5, 2.0]
    fs = [f(x) for x in xs]
    (i, j), = sign_changes(fs)
    root, sample = refine(f, xs, fs, i, j, xtol)
    assert root == brentq(f, xs[i], xs[j], xtol=xtol, rtol=4.0 * 2.0**-52)
    assert sample == f(root)
    assert abs(sample) < 1e-15


def test_refine_returns_fs_own_value_and_reads_no_end_again():
    # the root's sample is what f returned there, record and all, and f is
    # never called at the two samples the caller holds
    calls = []

    def f(x):
        calls.append(x)
        return Sample(math.cos(x) - x / 3.0, ("state", x))

    xs = [0.0, 0.5, 1.0, 1.5, 2.0]
    fs = [f(x) for x in xs]
    (i, j), = sign_changes(fs)
    del calls[:]
    root, sample = refine(f, xs, fs, i, j, 1e-15)
    assert xs[i] not in calls and xs[j] not in calls
    assert sample.record == ("state", root)
    assert root in calls and len(calls) == len(set(calls))


def _sampled(g, dg, calls, rounding=0.0):
    # f with its slope and a rounding bound, counting its calls
    def f(x):
        calls.append(x)
        return Sample(g(x), ("state", x), dg(x), rounding)

    return f


def test_refine_steps_newton_from_the_smaller_end_before_brentq():
    # samples with slopes: Newton from the end of smaller |f|, inside the
    # bracket, reads neither end again and needs fewer values than brentq
    g, dg = (lambda x: math.cos(x) - x / 3.0), (lambda x: -math.sin(x) - 1.0 / 3.0)
    calls = []
    f = _sampled(g, dg, calls)
    xs = [0.0, 0.5, 1.0, 1.5, 2.0]
    fs = [f(x) for x in xs]
    (i, j), = sign_changes(fs)
    del calls[:]
    root, sample = refine(f, xs, fs, i, j, 1e-15)
    assert xs[i] not in calls and xs[j] not in calls
    assert sample.record == ("state", root) and len(calls) == len(set(calls))
    want = brentq(g, xs[i], xs[j], xtol=1e-15, rtol=4.0 * 2.0**-52)
    assert abs(root - want) <= 1e-15 + 4.0 * 2.0**-52 * want
    # slope-less samples go to brentq, which takes more values here
    plain_calls = []

    def plain_f(x):
        plain_calls.append(x)
        return Sample(g(x), ("state", x))

    plain = [Sample(float(v), v.record) for v in fs]
    slopeless = refine(plain_f, xs, plain, i, j, 1e-15)[0]
    assert len(calls) < len(plain_calls)
    # slopes that send Newton out of the bracket hand the refinement to
    # brentq from the same two ends, which finds the slope-less root
    wrong = _sampled(g, lambda x: 1e-3, [])
    assert refine(wrong, xs, [wrong(x) for x in xs], i, j, 1e-15)[0] == slopeless


def test_newton_stops_within_brentqs_tolerance_on_an_evaluated_root():
    # the last step is at most xtol + 4 eps |x|, and the root returned is
    # the last iterate, with f's own sample there: no x is evaluated twice
    # and none after the root
    calls = []
    f = _sampled(lambda x: math.cos(x) - x / 3.0, lambda x: -math.sin(x) - 1.0 / 3.0, calls)
    root, sample = newton(f, 1.2, 1.0, 1.5, 1e-15)
    assert root == calls[-1] and sample.record == ("state", root)
    assert len(calls) == len(set(calls)) <= 5
    want = brentq(lambda x: math.cos(x) - x / 3.0, 1.0, 1.5, xtol=1e-15, rtol=4.0 * 2.0**-52)
    assert abs(root - want) <= 1e-15 + 4.0 * 2.0**-52 * want


def test_newton_stops_at_the_rounding_bound():
    # a value within its rounding bound ends the solve at once, whatever
    # step the slope asks for
    calls = []
    f = _sampled(lambda x: x - 1.0, lambda x: 1e-6, calls, rounding=1e-3)
    assert newton(f, 1.0005, 0.9, 1.1, 1e-15)[0] == 1.0005
    assert calls == [1.0005]


@pytest.mark.parametrize("g, dg, x", [
    # the first step leaves the window
    (lambda x: x - 2.0, lambda x: 1.0, 1.0),
    # a zero, infinite or NaN slope
    (lambda x: x - 1.1, lambda x: 0.0, 1.0),
    (lambda x: x - 1.1, lambda x: math.inf, 1.0),
    (lambda x: x - 1.1, lambda x: math.nan, 1.0),
    # steps that do not shrink: x^(1/3) doubles each Newton step
    (lambda x: math.copysign(abs(x - 1.0) ** (1 / 3), x - 1.0),
     lambda x: abs(x - 1.0) ** (-2 / 3) / 3.0, 1.001),
], ids=["leaves-window", "zero-slope", "inf-slope", "nan-slope", "diverging"])
def test_newton_hands_over(g, dg, x):
    calls = []
    assert newton(_sampled(g, dg, calls), x, 0.9, 1.2, 1e-15) is None
    assert len(calls) == len(set(calls))


# families of f(x - r) with one root at d = x - r = 0: steep, flat (whose
# products underflow, so Brent's extrapolation divides by zero), jumps,
# and multiple or near-multiple roots
_FAMILIES = {
    "linear": lambda d: d,
    "steep": lambda d: math.tanh(200.0 * d),
    "jump": lambda d: math.atan(1e8 * d),
    "step": lambda d: math.copysign(1.0, d),
    "flat": lambda d: 1e-200 * d,
    "flat-quintic": lambda d: 1e-160 * d**5,
    "triple": lambda d: d**3,
    "near-triple": lambda d: d * ((d - 1e-7) ** 2 + 1e-14),
    "exponential": lambda d: math.expm1(d),
    "wavy": lambda d: d + 0.9 * math.sin(d) ** 3,
}


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


def _outcome(solve, f):
    """(root or exception type, calls of f) of one solve."""
    g = _counted(f)
    try:
        return solve(g), g.calls
    except (ValueError, RuntimeError) as exc:
        return type(exc), g.calls


def _scipy(f, a, b, xtol):
    return brentq(f, a, b, xtol=xtol, rtol=4.0 * 2.0**-52)


def _port(f, a, b, xtol):
    # the caller samples the ends in scipy's order, so the calls match
    return branch._brentq(f, a, b, f(a), f(b), xtol)[0]


def test_brentq_port_matches_scipy_on_random_brackets():
    rng = random.Random(20120121)
    names = sorted(_FAMILIES)
    for _ in range(6000):
        name = rng.choice(names)
        r = rng.uniform(-3.0, 3.0)
        scale = rng.choice([1e-6, 1e-3, 1.0, 100.0])
        a = r - scale * rng.uniform(1e-9, 5.0)
        b = r + scale * rng.uniform(1e-9, 5.0)
        if rng.random() < 0.5:
            a, b = b, a
        xtol = rng.choice([1e-15, 1e-13, 1e-10, 1e-6])
        f = lambda x, family=_FAMILIES[name], r=r: family(x - r)
        want = _outcome(lambda g: _scipy(g, a, b, xtol), f)
        got = _outcome(lambda g: _port(g, a, b, xtol), f)
        assert got == want, (name, r, a, b, xtol)


@pytest.mark.parametrize(
    "f, a, b, xtol",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0, 1e-12),
        # end values whose product underflows to zero have the same sign too
        (lambda x: 1e-200 * (x * x + 1.0), -1.0, 1.0, 1e-12),
        (lambda x: math.nan, 0.0, 1.0, 1e-12),
        # NaN at an iterate, not at an end
        (lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0, 1e-12),
        # -0.0 is a zero, not a negative value
        (lambda x: -0.0 if x == 0.0 else x + 1.0, 0.0, 1.0, 1e-12),
        (lambda x: -0.0 if x == 1.0 else x + 1.0, 0.0, 1.0, 1e-12),
        # bisection from 2e30 down to 4 eps * 1e-20 needs over 100 iterations
        (lambda x: math.copysign(1.0, x - 1e-20), -1e30, 1e30, 1e-300),
    ],
    ids=["same-sign", "same-sign-tiny", "nan-end", "nan-iterate", "minus-zero-a", "minus-zero-b",
         "no-convergence"],
)
def test_brentq_port_error_paths_match_scipy(request, f, a, b, xtol):
    want = _outcome(lambda g: _scipy(g, a, b, xtol), f)
    if request.node.callspec.id == "nan-end":
        # scipy stops at its first call, f(a); the port is handed f(a) and
        # f(b) by its caller and refuses the NaN among them
        assert want == (ValueError, 1)
        want = (ValueError, 2)
    assert _outcome(lambda g: _port(g, a, b, xtol), f) == want


def test_cli_runs_on_the_standard_library_alone(tmp_path):
    # a fresh interpreter, so no other test has imported numpy or scipy
    # yet; neither the import nor any command, design-profile with each of
    # its laws included, loads any numpy or scipy module
    table = tmp_path / "law.csv"
    table.write_text("psi,beta\n0,-1\n0.4,-1.3\n0.9,-0.8\n")
    commands = [
        ["critical-1dof"],
        ["trace-1dof"],
        ["design-profile", "--law", "constant"],
        ["design-profile", "--law", "sinusoidal"],
        ["design-profile", "--law", "circular"],
        ["design-profile", "--law", "tabulated", "--table", str(table)],
        ["critical-rod"],
        ["trace-elastica", "--scenario", "fig7"],
    ]
    script = (
        "import sys\n"
        "import arcstab\n"
        "from arcstab import cli\n"
        "loaded = lambda: sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "assert loaded() == [], loaded()\n"
        "out = sys.argv[1]\n"
        "for argv in %r:\n"
        "    assert cli.main([*argv, '--out', out]) == 0, argv\n"
        "    assert loaded() == [], (argv, loaded())\n"
        "print(loaded())\n" % (commands,)
    )
    src = str(Path(branch.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    # design-profile prints its report line first
    assert run.stdout.splitlines()[-1] == "[]"
