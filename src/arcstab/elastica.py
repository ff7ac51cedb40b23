"""Postcritical elastica of a rod clamped at one end, pinned to a circle.

The rod (bending stiffness B, length l) slides at s = 0 with a pin and
rotational spring k_r on a fixed circle of radius R_c; the far end s = l is
clamped to stay parallel to the load axis and free to move along it.  The
constraint reaction R acts along the pin-center line, which serves as the
local x1 axis, so theta obeys theta'' = (R/B) sin theta and the solution
comes out in Jacobi elliptic functions of modulus k, with k >= 1 legal in
the roller case.  Compatibility pins the clamp to the horizontal through
the circle center: [x1(l) - c] sin phi - x2(l) cos phi = 0 with c = +-R_c,
and the axial dead load follows as F = R cos phi, so the load changes sign
exactly where the pin tops the circle at phi = pi/2.

Sign conventions: only theta0 >= 0 is computed; the mirror branch follows
by negating x2 and phi.  half = "left" places the center between pin and
clamp (the assembly that buckles under tension when R_c < l), half =
"right" places it beyond the pin (the compressive assembly).

Accuracy note: tensile states (R > 0) push the modulus toward 1 as
theta0 -> 0 like k - 1 ~ theta0^2/8.  The turning point quantities stay
conditioned in the Carlson forms, so the remaining floor is the m -> 1
Jacobi series inside scipy's ellipj: residuals are clean to ~5e-12 at
theta0 = 1e-4 and degrade to ~2e-10 by 1e-6.  Continuation schedules
start at 1e-4, where solved reactions are good to ~2e-7 absolute.
Compressive states keep a large modulus and stay clean at any theta0.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .branch import BranchTrace, sign_changes
from .elliptic import _E_sym, _F_sym, _jacobi, ellint_F
# unused here; the benchmark tracer (bench/tracing.py) wraps them under this module's name
from .elliptic import jacobi_am, jacobi_dn, jacobi_epsilon  # noqa: F401
from .errors import ContinuationError, DegenerateGeometryError
from .rodlinear import RodModel, critical_force, find_critical_loads

__all__ = [
    "ElasticaProblem",
    "ElasticaState",
    "PostcriticalPoint",
    "MultipleRootWarning",
    "modulus_from",
    "make_state",
    "theta_at",
    "coordinates_at",
    "compatibility_residual",
    "solve_R",
    "trace_branch",
    "refine_on_trace",
    "shape_export",
    "write_branch_csv",
    "write_shape_csv",
]

_HALVES = ("left", "right")
_SCAN_POINTS = 200
_BRENTQ_RTOL = 4.0 * np.finfo(float).eps
# warm solves: first ratio off the seed, its growth exponent, and the last ratio
_WARM_FIRST_RATIO = 1.02
_WARM_GROWTH = 1.6
_WARM_MAX_RATIO = 5.0
# continuity guard of trace_branch: the largest |R/R_prev - 1| and
# |phi - phi_prev| (rad) of an accepted step, and the halvings of a
# rejected theta0 step before the trace stops
_GUARD_R_RATIO = 0.25
_GUARD_PHI = 0.5
_GUARD_HALVINGS = 6


class MultipleRootWarning(UserWarning):
    """A cold solve's reaction scan window bracketed more than one root
    (higher modes)."""


@dataclass(frozen=True)
class ElasticaProblem:
    """Rod on a circular constraint; half selects the trivial assembly side."""

    B: float
    l: float
    k_r: float = 0.0
    R_c: float = 1.0
    half: str = "left"

    def __post_init__(self):
        if not self.B > 0.0:
            raise ValueError("bending stiffness B must be positive")
        if not self.l > 0.0:
            raise ValueError("length l must be positive")
        if not self.R_c > 0.0:
            raise ValueError("constraint radius R_c must be positive")
        if self.k_r < 0.0:
            raise ValueError("spring stiffness k_r must be nonnegative")
        if self.half not in _HALVES:
            raise ValueError("half must be 'left' or 'right'")


@dataclass(frozen=True)
class ElasticaState:
    """One elastica configuration at fixed (theta0, R).

    delta is the clamp displacement along the load axis, zero at the
    undeformed assembly; it is physically meaningful once R solves the
    compatibility condition.  u0 and angle_offset are the elliptic origin
    shift F(beta0, k) and the H(R) pi branch offset of the rotation field;
    eps0 and dn0 cache epsilon(u0) and dn(u0) from the well conditioned
    turning point form for use in the coordinate quadratures.
    """

    theta0: float
    R: float
    modulus: float
    alpha_tilde: float
    beta0: float
    phi: float
    F: float
    delta: float
    problem: ElasticaProblem
    u0: float
    angle_offset: float
    eps0: float
    dn0: float


@dataclass(frozen=True)
class PostcriticalPoint:
    theta0: float
    R: float
    F: float
    phi: float
    delta: float


def _rotation_denominator(theta0, R, k_r, B):
    """(den, spring, half_trig, at2) of the half-angle modulus identity."""
    if R == 0.0:
        raise DegenerateGeometryError("zero reaction leaves the modulus undefined")
    at2 = abs(R) / B
    half_trig = math.cos(theta0 / 2.0) if R > 0.0 else math.sin(theta0 / 2.0)
    spring = theta0 * k_r / B
    den = spring * spring + 4.0 * at2 * half_trig * half_trig
    if den <= 0.0:
        raise DegenerateGeometryError("degenerate rotation field: vanishing modulus denominator")
    return den, spring, half_trig, at2


def modulus_from(theta0, R, k_r=0.0, B=1.0):
    """Elliptic modulus of the rotation field.

    Evaluated through half-angle identities,
    den = (theta0 k_r/B)^2 + 4 (|R|/B) cos^2(theta0/2)   for R > 0,
    with sin^2 in place of cos^2 for R < 0, which equals the raw form
    (theta0 k_r/B)^2 + 2 (|R|/B) (sgn(R) cos theta0 + 1) but avoids the
    catastrophic cancellation that otherwise corrupts small theta0.
    """
    den, _, _, at2 = _rotation_denominator(theta0, R, k_r, B)
    return 2.0 * math.sqrt(at2) / math.sqrt(den)


def _rod_point(s, k, at, R, u0, eps0, dn0, offset):
    """(theta, x1, x2) at arclength s from one Jacobi evaluation at s alpha/k + u0."""
    u = s * at / k
    am, dn, eps = _jacobi(u + u0, k)
    pref = math.copysign(1.0, R) * 2.0 / (k * at)
    return (
        2.0 * am + offset,
        pref * ((1.0 - 0.5 * k * k) * u + eps0 - eps),
        pref * (dn - dn0),
    )


def _state_and_defect(theta0, R, problem):
    """The rod at a trial reaction R and its closure defect
    [x1(l) - c] sin phi - x2(l) cos phi, c = +-R_c."""
    if theta0 < 0.0:
        raise ValueError("theta0 must be nonnegative; mirror states negate x2 and phi")
    den, spring, half_trig, at2 = _rotation_denominator(theta0, R, problem.k_r, problem.B)
    at = math.sqrt(at2)
    k = 2.0 * at / math.sqrt(den)
    offset = math.pi if R > 0.0 else 0.0
    beta0 = (theta0 - offset) / 2.0
    if k > 1.0:
        # turning point at the pin: sin(gamma) = k sin(beta0), and the
        # complement cos^2(gamma) = (theta0 k_r/B)^2/den is kept in closed
        # form; squaring an arcsin here would cost sqrt(eps) of phase
        m1 = den / (4.0 * at2)
        sg = math.copysign(2.0 * at * half_trig / math.sqrt(den), beta0)
        c2 = spring * spring / den
        w = (1.0 - m1) + m1 * c2
        u0 = _F_sym(sg, c2, w) / k
        eps0 = (_E_sym(sg, c2, w, m1) - (1.0 - m1) * k * u0) / (k * m1)
        dn0 = math.sqrt(c2)
    else:
        u0 = ellint_F(beta0, k)
        _, dn0, eps0 = _jacobi(u0, k)
    phi, x1, x2 = _rod_point(problem.l, k, at, R, u0, eps0, dn0, offset)
    c = problem.R_c if problem.half == "left" else -problem.R_c
    if abs(math.cos(phi)) >= abs(math.sin(phi)):
        lam = (x1 - c) / math.cos(phi)
    else:
        lam = x2 / math.sin(phi)
    state = ElasticaState(
        theta0=theta0,
        R=R,
        modulus=k,
        alpha_tilde=at,
        beta0=beta0,
        phi=phi,
        F=R * math.cos(phi),
        delta=lam + c - problem.l,
        problem=problem,
        u0=u0,
        angle_offset=offset,
        eps0=eps0,
        dn0=dn0,
    )
    return state, (x1 - c) * math.sin(phi) - x2 * math.cos(phi)


def make_state(theta0, R, problem):
    """Build the elliptic representation of the rod at a trial reaction R."""
    return _state_and_defect(theta0, R, problem)[0]


def _state_point(s, state):
    """_rod_point of a state at arclength s in [0, l]."""
    l = state.problem.l
    if s < -1e-9 * l or s > l * (1.0 + 1e-9):
        raise ValueError("arclength s must lie in [0, l]")
    return _rod_point(
        s, state.modulus, state.alpha_tilde, state.R, state.u0, state.eps0, state.dn0,
        state.angle_offset,
    )


def theta_at(s, state):
    """Rod rotation theta(s) = 2 am(s alpha/k + u0, k) + angle offset."""
    return _state_point(s, state)[0]


def coordinates_at(s, state):
    """Rod centerline point (x1, x2); the pin sits at the origin."""
    if s == 0.0:
        return 0.0, 0.0
    return _state_point(s, state)[1:]


def compatibility_residual(R, theta0, problem):
    """Closure defect [x1(l) - c] sin phi - x2(l) cos phi, c = +-R_c.

    The cos phi regularization keeps the same roots as the tan phi form
    while staying finite where branches legitimately cross phi = pi/2.
    """
    return _state_and_defect(theta0, R, problem)[1]


def _nd_problem(problem):
    return ElasticaProblem(
        B=1.0,
        l=1.0,
        k_r=problem.k_r * problem.l / problem.B,
        R_c=problem.R_c / problem.l,
        half=problem.half,
    )


def _default_seed(ndp):
    # linearized critical load of the matching sliding-rod model
    chi_hat = -1.0 / ndp.R_c if ndp.half == "left" else 1.0 / ndp.R_c
    model = RodModel(B=1.0, l=1.0, k=ndp.k_r, chi_hat=chi_hat)
    load_sign = "tension" if ndp.half == "left" else "compression"
    modes = find_critical_loads(model, load_sign)
    if not modes:
        raise ValueError(
            "no linearized critical load exists for this geometry; pass a seed reaction"
        )
    return critical_force(modes[0], model)


def _refine(f, xs, i, j):
    """brentq root of f on the bracket (xs[i], xs[j]); xs[i] itself when i == j."""
    return xs[i] if i == j else brentq(f, xs[i], xs[j], xtol=1e-15, rtol=_BRENTQ_RTOL)


def _nearest_root(f, seed):
    """Root of f nearest to seed in ratio, or None past seed*[1/5, 5].

    Samples seed, then seed/r and seed*r for r = 1.02, 1.02**1.6, ...,
    capped at 5, and refines the first bracket that appears; when both
    sides bracket at the same r, the smaller magnitude side wins.
    """
    xs, fs, r = [seed], [f(seed)], 1.0
    while True:
        c = len(xs) // 2
        brackets = list(sign_changes(fs))
        if brackets:
            i, j = min(brackets, key=lambda b: (max(c - b[0], b[1] - c), b[0]))
            return _refine(f, xs, i, j)
        if r >= _WARM_MAX_RATIO:
            return None
        r = _WARM_FIRST_RATIO if r == 1.0 else min(r**_WARM_GROWTH, _WARM_MAX_RATIO)
        xs = [seed / r, *xs, seed * r]
        fs = [f(xs[0]), *fs, f(xs[-1])]


def solve_R(theta0, problem, seed=None):
    """Solve the compatibility condition for the constraint reaction.

    With a seed (a warm start), the search widens from it in ratio:
    residuals at seed/r and seed*r for r = 1.02, then r**1.6, up to 5,
    and brentq refines the first sign change between neighbouring
    samples, so the root nearest the seed wins and a nearby higher mode
    raises no warning.  Without a seed (a cold start), the seed is the
    linearized critical load of the matching sliding-rod model, the whole
    window seed*[0.2, 5] is scanned at 200 points, and a
    MultipleRootWarning marks a window holding several roots, of which
    the smallest in magnitude is kept.  Either way a ContinuationError
    names the window seed*[0.2, 5] when it holds no sign change.  The
    solve runs on the unit-B, unit-l problem and rescales at the boundary.
    """
    if not theta0 > 0.0:
        raise ValueError("theta0 must be positive")
    ndp = _nd_problem(problem)
    scale = problem.B / problem.l**2
    f = lambda R: compatibility_residual(R, theta0, ndp)
    if seed is not None:
        seed_nd = seed / scale
        root = _nearest_root(f, seed_nd)
        roots = [] if root is None else [root]
    else:
        seed_nd = _default_seed(ndp)
        grid = seed_nd * np.geomspace(0.2, 5.0, _SCAN_POINTS)
        roots = [_refine(f, grid, i, j) for i, j in sign_changes([f(R) for R in grid])]
    if not roots:
        lo, hi = sorted((0.2 * seed_nd * scale, 5.0 * seed_nd * scale))
        raise ContinuationError(
            "no sign change of the compatibility residual in the reaction window "
            f"[{lo:.6g}, {hi:.6g}] at theta0={theta0:.6g}"
        )
    if len(roots) > 1:
        warnings.warn(
            f"{len(roots)} reaction roots in the scan window at theta0={theta0:.6g}; "
            "keeping the smallest in magnitude",
            MultipleRootWarning,
            stacklevel=2,
        )
    return make_state(theta0, min(roots, key=abs) * scale, problem)


def _branch_problem(problem, branch):
    if branch == "tensile":
        return replace(problem, half="left")
    if branch == "compressive":
        return replace(problem, half="right")
    raise ValueError("branch must be 'tensile' or 'compressive'")


def _guard_rejection(st, prev):
    """Why the state st breaks the continuity bounds against the accepted
    state prev, or "" when it keeps them."""
    dR, dphi = abs(st.R / prev.R - 1.0), abs(st.phi - prev.phi)
    if dR <= _GUARD_R_RATIO and dphi <= _GUARD_PHI:
        return ""
    return (
        f"rejected R={st.R:.6g}, phi={st.phi:.6g} with |R/R_prev - 1|={dR:.3g} "
        f"and |phi - phi_prev|={dphi:.3g} (bounds {_GUARD_R_RATIO:g} and {_GUARD_PHI:g} rad)"
    )


def _guarded_step(problem, start, theta0):
    """(state at theta0, "") continued from the solved state start, or
    (None, reason) when the continuity guard stops the step.

    Each solve is warm started from the last accepted state and accepted
    only within _GUARD_R_RATIO and _GUARD_PHI of it.  A rejected step, or
    one whose solve fails, is halved, at most _GUARD_HALVINGS times; the
    states accepted short of theta0 only seed the next solve.
    """
    n = 2**_GUARD_HALVINGS  # theta0 positions in units of 1/n of the step
    last, pos, step = start, 0, n
    while True:
        nxt = pos + step
        th = theta0 if nxt == n else start.theta0 + (theta0 - start.theta0) * nxt / n
        try:
            st = solve_R(th, problem, seed=last.R)
        except (ContinuationError, DegenerateGeometryError) as exc:
            why = str(exc)
        else:
            why = _guard_rejection(st, last)
            if not why:
                if nxt == n:
                    return st, ""
                last, pos = st, nxt
                continue
        if step == 1:
            return None, (
                f"stopped at theta0={th:.6g} after {_GUARD_HALVINGS} step halvings "
                f"past the last accepted theta0={last.theta0:.6g}: {why}"
            )
        step //= 2


def trace_branch(problem, theta0_schedule, branch, seed=None):
    """Continue a postcritical branch over an increasing theta0 schedule.

    branch selects the assembly: "tensile" starts from the tensile
    bifurcation (half = "left"), "compressive" from the compressive one.
    The first point is solved from seed (cold when seed is None), and each
    later one is warm started from the previous reaction.  A continuity
    guard accepts a step only when |R/R_prev - 1| <= 0.25 and
    |phi - phi_prev| <= 0.5 rad; otherwise, or when the solve fails, the
    theta0 step is halved, at most 6 times, and the intermediate states
    only warm start the next solve, so the points follow the schedule.
    When the guard gives up, or the first solve fails, the trace stops
    with complete = False and a diagnostic naming the theta0 it stopped
    at, the last accepted theta0 and the rejected (R, phi) or the solve
    failure.  The load-sign transition,
    where the pin tops the circle at phi = pi/2, is recorded in events
    after refinement with refine_on_trace.
    """
    pr = _branch_problem(problem, branch)
    schedule = np.asarray(theta0_schedule, dtype=float)
    if schedule.size == 0 or not np.all(schedule > 0.0) or not np.all(np.diff(schedule) > 0.0):
        raise ValueError("theta0_schedule must be strictly increasing positives")

    trace = BranchTrace(label=branch, points=[])
    prev = None
    for th0 in schedule:
        if prev is None:
            try:
                st, why = solve_R(th0, pr, seed=seed), ""
            except (ContinuationError, DegenerateGeometryError) as exc:
                st, why = None, f"stopped at theta0={th0:.6g}: {exc}"
        else:
            st, why = _guarded_step(pr, prev, th0)
        if st is None:
            trace.complete = False
            trace.diagnostic = why
            break
        trace.points.append(PostcriticalPoint(st.theta0, st.R, st.F, st.phi, st.delta))
        prev = st

    st = refine_on_trace(problem, trace, lambda p: p.phi, math.pi / 2.0)
    if st is not None:
        trace.events["load_sign_transition"] = PostcriticalPoint(
            st.theta0, st.R, st.F, st.phi, st.delta
        )
    return trace


def refine_on_trace(problem, trace, value, target):
    """Solved state where value(state) == target on a traced branch.

    The first sign change of value - target over the trace points is
    refined by brentq in theta0, each trial solve warm started from the
    reaction interpolated between the pair; a point on target is solved
    again in place.  value must accept both trace points and states (both
    carry theta0, R, F, phi and delta).  trace.label selects the assembly
    as in trace_branch.  Returns None when nothing brackets target.
    """
    pr = _branch_problem(problem, trace.label)
    pts = trace.points
    for i, j in sign_changes([value(p) - target for p in pts]):
        a, b = pts[i], pts[j]
        if i == j:
            return solve_R(a.theta0, pr, seed=a.R)

        def solve(th0):
            w = (th0 - a.theta0) / (b.theta0 - a.theta0)
            return solve_R(th0, pr, seed=a.R + w * (b.R - a.R))

        th = brentq(lambda th0: value(solve(th0)) - target, a.theta0, b.theta0,
                    xtol=1e-13, rtol=_BRENTQ_RTOL)
        return solve(th)
    return None


def shape_export(state, n):
    """Deformed centerline sampled uniformly in s: columns (s, x1, x2, theta)."""
    if n < 2:
        raise ValueError("need at least two samples")
    out = np.empty((n, 4))
    for i, s in enumerate(np.linspace(0.0, state.problem.l, n)):
        theta, x1, x2 = _state_point(s, state)
        out[i] = (s, x1, x2, theta)
    out[0] = (0.0, 0.0, 0.0, state.theta0)
    return out


def write_branch_csv(path, trace, problem):
    """Branch table with the load also normalized as 4 F l^2/(B pi^2)."""
    norm = 4.0 * problem.l**2 / (problem.B * math.pi**2)
    with open(path, "w", newline="") as fh:
        fh.write("theta0,R,F,phi,delta,normalized_F\n")
        for p in trace.points:
            row = (p.theta0, p.R, p.F, p.phi, p.delta, p.F * norm)
            fh.write(",".join("%.16e" % v for v in row) + "\n")


def write_shape_csv(path, shape):
    with open(path, "w", newline="") as fh:
        fh.write("s,x1,x2,theta\n")
        for row in shape:
            fh.write(",".join("%.16e" % v for v in row) + "\n")
