"""Seeded inputs, operations and output checks of the benchmark workloads.

Importing this module imports arcstab, so the caller puts the checkout's
src directory on sys.path first.  The oracles are imported only when the
checks run, which keeps scipy.integrate and mpmath out of the set-up time
and the peak memory of the timed passes.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from arcstab import cli, elastica

# fig7 preset of the CLI: the rod on a quarter-length circle.
FIG7 = dict(B=1.0, l=1.0, k_r=0.0, R_c=0.25)
FIG7_SCHEDULE = np.linspace(1e-4, 2.8, 100)
FIG7_SHAPE_PHI = (0.7853981633974483, 1.5707963267948966)
FIG7_SHAPE_SAMPLES = 400

# CLI defaults the design-tables commands rely on.
TRACE_1DOF_POINTS = 200
TRACE_1DOF_T_PAD = 0.02
PROFILE_SAMPLES = 601
PROFILE_VALIDATE = 200
PROFILE_PSI_MAX = 0.99
ROD_ALPHA_L_MAX = 6.0 * math.pi
ROD_MAX_MODES = 3

COLD_SOLVES_PER_PASS = 200

# One design-tables pass, by command.  The counts put the median latency
# inside the design-profile group and the 90th percentile inside the
# critical-rod group, away from the gaps between command latencies.
DESIGN_MIX = (
    ("critical-1dof", 3),
    ("trace-1dof-circular", 3),
    ("trace-1dof-s_shaped", 3),
    ("design-profile-constant", 3),
    ("design-profile-sinusoidal", 3),
    ("design-profile-circular", 2),
    ("critical-rod", 5),
)


@dataclass
class Op:
    """One timed operation: a CLI call (argv without --out) or a cold solve."""

    kind: str
    argv: list = None
    solve: tuple = None
    params: dict = field(default_factory=dict)


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def _fig7_ops(rng):
    return [Op("trace-elastica", argv=["trace-elastica", "--scenario", "fig7"])]


def _cold_solve_ops(rng):
    ops = []
    for _ in range(COLD_SOLVES_PER_PASS):
        params = dict(
            B=1.0,
            l=1.0,
            R_c=float(rng.uniform(0.2, 0.8)),
            k_r=float(rng.uniform(0.0, 0.5)),
            half=("left", "right")[int(rng.integers(2))],
        )
        theta0 = float(rng.uniform(1e-3, 0.6))
        problem = elastica.ElasticaProblem(**params)
        ops.append(Op("solve_R", solve=(theta0, problem), params=params))
    return ops


def _rod_scan_sound(chi, k):
    """False near the curvatures where the rod tables drop roots.

    rodlinear.find_critical_loads scans alpha l in steps of pi/50 from
    pi/50 on.  It misses a root below the first step, which exists where a
    critical load passes through zero: on chi < 0 along
    1/|chi| + k (1/|chi| - 1/2) = 0, and for the clamped end at chi = -2.
    It also misses the close root pairs of the clamped end just above
    chi = -1.  Curvatures within 0.01 of these are not drawn.
    """
    if abs(chi + 1.0) < 0.01 or abs(chi + 2.0) < 0.01:
        return False
    return chi >= 0.0 or abs(1.0 / abs(chi) + k * (1.0 / abs(chi) - 0.5)) >= 0.01


def _design_op(kind, rng):
    if kind == "critical-1dof":
        grid = [float(v) for v in rng.uniform(-6.0, 6.0, 25)]
        return Op(kind, argv=["critical-1dof", "--chi-hat-grid=" + _floats(grid)],
                  params=dict(grid=grid))
    if kind.startswith("trace-1dof-"):
        profile = kind[len("trace-1dof-"):]
        chi = float(rng.choice((-1.0, 1.0)) * rng.uniform(1.5, 6.0))
        phi0 = float(rng.uniform(-0.02, 0.02))
        argv = ["trace-1dof", "--profile", profile, "--chi-hat=%r" % chi, "--phi0=%r" % phi0]
        return Op("trace-1dof", argv=argv, params=dict(profile=profile, chi=chi, phi0=phi0))
    if kind.startswith("design-profile-"):
        law = kind[len("design-profile-"):]
        if law == "constant":
            params = dict(beta=float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)))
        elif law == "sinusoidal":
            base = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.8, 1.5))
            params = dict(base=base,
                          amplitude=float(abs(base) * rng.uniform(0.1, 0.6)),
                          lobes=float(rng.uniform(1.0, 4.0)))
        else:
            params = dict(center=float(rng.uniform(-0.8, -0.2)),
                          radius=float(rng.uniform(1.5, 2.0)))
        argv = ["design-profile", "--law", law]
        argv += ["--%s=%r" % (key, val) for key, val in params.items()]
        return Op("design-profile", argv=argv, params=dict(law=law, **params))
    spring_k = float(rng.uniform(0.0, 5.0))
    grid = []
    while len(grid) < 11:
        chi = float(rng.uniform(-6.0, 6.0))
        if _rod_scan_sound(chi, spring_k):
            grid.append(chi)
    argv = ["critical-rod", "--chi-hat-grid=" + _floats(grid), "--spring-k=%r" % spring_k]
    return Op("critical-rod", argv=argv, params=dict(grid=grid, spring_k=spring_k))


def _design_tables_ops(rng):
    ops = [_design_op(kind, rng) for kind, count in DESIGN_MIX for _ in range(count)]
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {
    "fig7-continuation": _fig7_ops,
    "cold-solve": _cold_solve_ops,
    "design-tables": _design_tables_ops,
}


def make_ops(workload, seed):
    """The fixed list of operations one pass of the workload runs."""
    return WORKLOADS[workload](np.random.default_rng(seed))


def run_op(op, out_dir):
    """Run one operation; a CLI call writes into out_dir.

    Returns the solved state's (theta0, R, phi, F, delta) for a cold
    solve and None for a CLI call; raises RuntimeError on a nonzero exit.
    """
    if op.solve is not None:
        st = elastica.solve_R(*op.solve)
        return (st.theta0, st.R, st.phi, st.F, st.delta)
    code = cli.main([*op.argv, "--out", out_dir])
    if code != 0:
        raise RuntimeError("%s exited %d" % (" ".join(op.argv), code))
    return None


def check_op(op, result, out_dir):
    """Check one operation's output against the oracles; raises CheckError."""
    import oracles

    p = op.params

    def path(name):
        return os.path.join(out_dir, name)

    if op.kind == "solve_R":
        theta0 = op.solve[0]
        if result[0] != theta0:
            raise oracles.CheckError("solve_R returned theta0=%r for %r" % (result[0], theta0))
        oracles.check_elastica_state(*result, **p, where="solve_R")
    elif op.kind == "trace-elastica":
        rows = {}
        for branch, half in (("tensile", "left"), ("compressive", "right")):
            rows[branch] = oracles.check_branch_csv(
                path("elastica_%s.csv" % branch), half=half,
                schedule=FIG7_SCHEDULE, **FIG7)
            for phi in FIG7_SHAPE_PHI:
                oracles.check_shape_csv(
                    path("shape_%s_phi%.6g.csv" % (branch, phi)), rows[branch],
                    half=half, phi_target=phi, samples=FIG7_SHAPE_SAMPLES, **FIG7)
        oracles.check_branch_shift(path("branch_shift.txt"),
                                   R_c=FIG7["R_c"], l=FIG7["l"])
    elif op.kind == "critical-1dof":
        oracles.check_critical_1dof(path("critical_1dof.csv"), grid=p["grid"])
    elif op.kind == "trace-1dof":
        pad, n = TRACE_1DOF_T_PAD, TRACE_1DOF_POINTS
        t = np.linspace(pad, math.pi - pad, n)
        chi, phi0 = p["chi"], p["phi0"]
        if p["profile"] == "circular":
            files = [("trace_1dof.csv", chi, t)]
            lobe_of_phi0 = chi
        else:
            mag = abs(chi)
            files = [("trace_1dof_tensile.csv", -mag, t),
                     ("trace_1dof_compressive.csv", mag, np.linspace(-math.pi + pad, -pad, n))]
            lobe_of_phi0 = -mag if phi0 >= 0.0 else mag
        for name, lobe, grid in files:
            oracles.check_trace_1dof(path(name), chi=lobe, phi0=phi0, t_grid=grid,
                                     lobe_of_phi0=lobe_of_phi0)
    elif op.kind == "design-profile":
        oracles.check_profile_csv(path("profile.csv"), law=p["law"], params=p,
                                  psi_max=PROFILE_PSI_MAX, samples=PROFILE_SAMPLES)
        oracles.check_design_report(path("design_report.txt"),
                                    n_validate=PROFILE_VALIDATE)
    elif op.kind == "critical-rod":
        for name, k, clamped in (("critical_rod_k0.csv", 0.0, False),
                                 ("critical_rod_spring.csv", p["spring_k"], False),
                                 ("critical_rod_clamped.csv", 0.0, True)):
            oracles.check_rod_table(path(name), grid=p["grid"], B=1.0, l=1.0, k=k,
                                    clamped=clamped, alpha_l_max=ROD_ALPHA_L_MAX,
                                    max_modes=ROD_MAX_MODES)
    else:
        raise ValueError("no check for %r" % op.kind)
