"""Spans around the public functions of each arcstab layer.

The tracer replaces each function by a wrapper under the name its caller
looks it up by (elastica imports the elliptic functions into its own
namespace, so they are wrapped there).  Spans live in flat in-memory
arrays of (name, parent, start, end) until the run writes them out.
"""

import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from arcstab import cli, elastica, onedof, profiledesign, rodlinear

ELLIPTIC = ("ellint_F", "jacobi_am", "jacobi_dn", "jacobi_epsilon")


def _points(bound, result):
    return len(result.points)


def _samples(bound, result):
    return bound.arguments["n"]


# (module, attribute, span name, tally of the call); the same span name
# under two modules counts one function reached through both namespaces
WRAPPED = (
    *((elastica, name, "elliptic." + name, None) for name in ELLIPTIC),
    (elastica, "compatibility_residual", "elastica.residual", None),
    (elastica, "solve_R", "elastica.solve_R", None),
    (elastica, "trace_branch", "elastica.trace_branch", None),
    (elastica, "shape_export", "elastica.shape_export", None),
    (elastica, "find_critical_loads", "rodlinear.find_critical_loads", None),
    (rodlinear, "find_critical_loads", "rodlinear.find_critical_loads", None),
    (rodlinear, "characteristic", "rodlinear.characteristic", None),
    (onedof, "trace_branch", "onedof.trace", _points),
    (onedof, "trace_branch_arc", "onedof.trace", _points),
    (onedof, "equilibrium_force", "onedof.equilibrium_force", None),
    (profiledesign, "equilibrium_force", "onedof.equilibrium_force", None),
    (profiledesign, "export_profile_csv", "profiledesign.export", _samples),
    (profiledesign, "closed_loop_validate", "profiledesign.validate", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """Records one span per wrapped call; install() and remove() patch the layers."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tallies = Counter()
        self._stack = [-1]
        self._originals = []

    def _wrap(self, module, attr, span, tally):
        fn = getattr(module, attr)
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        sig = inspect.signature(fn) if tally is not None else None
        names, parents, stack = self.name, self.parent, self._stack
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if tally is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.tallies[span] += tally(bound, result)
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, fn))

    def install(self):
        for module, attr, span, tally in WRAPPED:
            self._wrap(module, attr, span, tally)

    def remove(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def summary(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def save(self, path):
        """Write every span as arrays name, parent, start, end plus the name table."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def layer_metrics(summary, tallies, passes):
    """Per-pass layer metrics from a span summary of `passes` traced passes."""

    def calls(span):
        return summary.get(span, (0, 0.0, 0.0))[0] / passes

    def total(span):
        return summary.get(span, (0, 0.0, 0.0))[1] / passes

    def own(span):
        return summary.get(span, (0, 0.0, 0.0))[2] / passes

    def ratio(a, b):
        return a / b if b else 0.0

    ell_calls = sum(calls("elliptic." + n) for n in ELLIPTIC)
    ell_self = sum(own("elliptic." + n) for n in ELLIPTIC)
    residuals = calls("elastica.residual")
    solves = calls("elastica.solve_R")
    return {
        "elliptic.calls": (ell_calls, "count"),
        "elliptic.calls_per_residual": (ratio(ell_calls, residuals), "ratio"),
        "elliptic.self_s": (ell_self, "s"),
        "elliptic.us_per_call": (1e6 * ratio(ell_self, ell_calls), "us"),
        "elastica.residual_calls": (residuals, "count"),
        "elastica.residuals_per_solve": (ratio(residuals, solves), "ratio"),
        "elastica.residual_self_s": (own("elastica.residual"), "s"),
        "elastica.solve_calls": (solves, "count"),
        "elastica.solve_self_s": (own("elastica.solve_R"), "s"),
        "elastica.trace_s": (total("elastica.trace_branch"), "s"),
        "elastica.shape_export_s": (total("elastica.shape_export"), "s"),
        "rodlinear.find_calls": (calls("rodlinear.find_critical_loads"), "count"),
        "rodlinear.characteristic_calls": (calls("rodlinear.characteristic"), "count"),
        "rodlinear.find_s": (total("rodlinear.find_critical_loads"), "s"),
        "onedof.trace_s": (total("onedof.trace"), "s"),
        "onedof.points": (tallies["onedof.trace"] / passes, "count"),
        "onedof.equilibrium_force_calls": (calls("onedof.equilibrium_force"), "count"),
        "profiledesign.export_s": (total("profiledesign.export"), "s"),
        "profiledesign.export_samples": (tallies["profiledesign.export"] / passes, "count"),
        "profiledesign.validate_s": (total("profiledesign.validate"), "s"),
        "cli.commands": (calls("cli.main"), "count"),
        "cli.self_s": (own("cli.main"), "s"),
    }
