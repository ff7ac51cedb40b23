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
theta0 -> 0 like k - 1 ~ theta0^2/8.  For k > 1 the pin's Jacobi
functions come from the half-angle identities in closed form, the rod
point's from one AGM at s alpha, whose complement
1 - 1/k^2 = sin^2(theta0/2) - (theta0 k_r/B)^2/(4R/B) is in closed form
too, and the addition theorems join the two; no integral is taken at the
pin.  The floor left is rounding: at most about 2e-16 absolute in the
residual, whose slope in R falls like theta0.  For B = l = 1 and
R_c = 1/4, cold solves return R within 1.2e-13 of a 40-digit reference at
theta0 = 1e-3, 6.7e-13 at 1e-4, 1.0e-11 at 1e-5 and 1.4e-10 at 1e-6.
A spring stiffer than the reaction puts small tensile rotations just
below k = 1; there 1 - k^2 = ((theta0 k_r/B)^2 - 4 (R/B) sin^2(theta0/2))/den
is kept in closed form as well, and R_c = 0.333, k_r = 0.894 at
theta0 = 1e-4 (k = 1 - 9e-11) solves to 9e-12 of its reference.
Compressive states keep a large modulus and stay clean at any theta0.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .branch import BranchTrace, refine, sign_changes
from . import elliptic
# unused here; the benchmark tracer (bench/tracing.py) wraps them under this module's name
from .elliptic import ellint_F, jacobi_am, jacobi_dn, jacobi_epsilon  # noqa: F401
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
]

_HALVES = ("left", "right")
# cold solves: the rotation the branch is entered at, and the halvings of
# theta0 below which a step ends following it
_THETA_START = 1e-3
_FOLLOW_HALVINGS = 12
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
    """A reaction scan bracketed more than one root (higher modes).

    solve_R no longer emits it: a cold solve follows the bifurcating
    branch and takes one root.  The benchmark still imports and counts
    it, so it goes when the benchmark does.
    """


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
        if not self.k_r >= 0.0:
            raise ValueError("spring stiffness k_r must be nonnegative")
        if self.half not in _HALVES:
            raise ValueError("half must be 'left' or 'right'")


@dataclass(frozen=True)
class ElasticaState:
    """One elastica configuration at fixed (theta0, R).

    delta is the clamp displacement along the load axis, zero at the
    undeformed assembly; it is physically meaningful once R solves the
    compatibility condition.  angle_offset is the H(R) pi branch offset
    of the rotation field.  mc is the complement of the Jacobi parameter
    the rod points are evaluated at, in closed form: 1 - m1 with
    m1 = 1/k^2 for k > 1, and 1 - k^2 for k <= 1.
    pin holds what every rod point takes from the pin, s = 0.  For k > 1
    it is (sn, cn, dn) at parameter m1 of the pin's argument F(gamma, 1/k),
    sin(gamma) = k sin(beta0), which are sin(gamma), cos(gamma) and
    sqrt(1 - m1 sin(gamma)^2), all in closed form.  For k <= 1 it is
    (u0, eps0, dn0): the elliptic origin shift F(beta0, k), E(beta0, k)
    and dn(u0) = cos(gamma).
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
    angle_offset: float
    mc: float
    pin: tuple[float, float, float]


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


def _rod_point(s, k, at, R, offset, mc, pin):
    """(theta, x1, x2) at arclength s from one Jacobi evaluation.

    k > 1: the Jacobi functions at v = s alpha and parameter m1 = 1/k^2,
    with the pin's (sn, cn, dn) at w0 = F(gamma, 1/k), give those at v + w0
    by the addition theorems (DLMF 22.8.1-3): D sn = S, D cn = C and
    D dn = Delta with D = 1 - m1 sn(v)^2 sin(gamma)^2 > 0, and
    eps(v + w0) - eps(w0) = eps(v) - m1 sn(v) sin(gamma) sn(v + w0)
    (DLMF 22.16.27).  k <= 1: the Jacobi functions at s alpha/k + u0.
    """
    if k <= 1.0:
        u0, eps0, dn0 = pin
        u = s * at / k
        am, dn, eps = elliptic._jacobi(u + u0, k, mc)
        pref = math.copysign(1.0, R) * 2.0 / (k * at)
        return (
            2.0 * am + offset,
            pref * ((1.0 - 0.5 * k * k) * u + eps0 - eps),
            pref * (dn - dn0),
        )
    sg, cg, dg = pin
    v = s * at
    m1 = k ** -2
    sn, cn, dn, _, eps = elliptic._ellipj_reduced(v, m1, mc)
    # 1 - m1 sn^2 sg^2 without cancellation, as sg^2 = 1 - cg^2
    D = dn * dn + m1 * sn * sn * cg * cg
    S = sn * cg * dg + sg * cn * dn
    C = cn * cg - sn * sg * dn * dg
    Delta = dn * dg - m1 * sn * sg * cn * cg
    pref = math.copysign(2.0, R) / at
    # x1 = pref ((1 - k^2/2) m1 v + mc v + eps(w0) - eps(v + w0)), and
    # (1 - k^2/2) m1 + mc = 1/2
    return (
        2.0 * math.atan2(S / k, Delta) + offset,
        pref * (0.5 * v - eps + m1 * sn * sg * S / D),
        pref / k * (C / D - cg),
    )


def _state_and_defect(theta0, R, problem):
    """The fields of the rod's ElasticaState at a trial reaction R, as a
    tuple in field order, and its closure defect
    [x1(l) - c] sin phi - x2(l) cos phi, c = +-R_c; a residual builds no
    state."""
    # pure-Python arithmetic on numpy scalars is several times slower
    theta0, R = float(theta0), float(R)
    if theta0 < 0.0:
        raise ValueError("theta0 must be nonnegative; mirror states negate x2 and phi")
    den, spring, half_trig, at2 = _rotation_denominator(theta0, R, problem.k_r, problem.B)
    at = math.sqrt(at2)
    k = 2.0 * at / math.sqrt(den)
    offset = math.pi if R > 0.0 else 0.0
    beta0 = (theta0 - offset) / 2.0
    # the pin's angle gamma, sin(gamma) = k sin(beta0), has
    # cos^2(gamma) = 1 - k^2 sin^2(beta0) = (theta0 k_r/B)^2/den in closed
    # form; squaring an arcsin here would cost sqrt(eps) of phase.  The
    # Jacobi complement mc is kept in closed form too, from
    # other_trig^2 = sin^2(theta0/2) for R > 0 (cos^2 for R < 0), where
    # 1 - m would cancel next to k = 1
    c2 = spring * spring / den
    other_trig = math.sin(theta0 / 2.0) if R > 0.0 else math.cos(theta0 / 2.0)
    if k > 1.0:
        # the turning point at the pin is in closed form
        m1 = den / (4.0 * at2)
        mc = other_trig * other_trig - spring * spring / (4.0 * at2)
        if not mc > 0.0:  # rounding next to k = 1 with a spring
            mc = (k - 1.0) * (k + 1.0) * m1
        sg = math.copysign(2.0 * at * half_trig / math.sqrt(den), beta0)
        pin = (sg, math.sqrt(c2), math.sqrt(mc + m1 * c2))
    else:
        mc = (spring * spring - 4.0 * at2 * other_trig * other_trig) / den
        if not mc > 0.0:  # rounding next to k = 1
            mc = (1.0 - k) * (1.0 + k)
        # c2 is also dn(u0)^2 and the complement F and E take
        pin = (*elliptic._FE_reduced(beta0, k * k, c2), math.sqrt(c2))
    phi, x1, x2 = _rod_point(problem.l, k, at, R, offset, mc, pin)
    c = problem.R_c if problem.half == "left" else -problem.R_c
    if abs(math.cos(phi)) >= abs(math.sin(phi)):
        lam = (x1 - c) / math.cos(phi)
    else:
        lam = x2 / math.sin(phi)
    fields = (theta0, R, k, at, beta0, phi, R * math.cos(phi), lam + c - problem.l, problem,
              offset, mc, pin)
    return fields, (x1 - c) * math.sin(phi) - x2 * math.cos(phi)


def make_state(theta0, R, problem):
    """Build the elliptic representation of the rod at a trial reaction R."""
    return ElasticaState(*_state_and_defect(theta0, R, problem)[0])


def _state_point(s, state):
    """_rod_point of a state at arclength s in [0, l]."""
    # pure-Python arithmetic on numpy scalars is several times slower
    s, l = float(s), state.problem.l
    if s < -1e-9 * l or s > l * (1.0 + 1e-9):
        raise ValueError("arclength s must lie in [0, l]")
    return _rod_point(
        s, state.modulus, state.alpha_tilde, state.R, state.angle_offset, state.mc, state.pin
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


def _default_seed(problem):
    # linearized critical load of the matching sliding-rod model
    left = problem.half == "left"
    chi_hat = (-problem.l if left else problem.l) / problem.R_c
    model = RodModel(B=problem.B, l=problem.l, k=problem.k_r, chi_hat=chi_hat)
    load_sign = "tension" if left else "compression"
    modes = find_critical_loads(model, load_sign, max_modes=1)
    if not modes:
        raise ValueError(
            "no linearized critical load exists for this geometry; pass a seed reaction"
        )
    return critical_force(modes[0], model)


def _nearest_root(f, seed, xtol):
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
            return refine(f, xs, i, j, xtol)
        if r >= _WARM_MAX_RATIO:
            return None
        r = _WARM_FIRST_RATIO if r == 1.0 else min(r**_WARM_GROWTH, _WARM_MAX_RATIO)
        xs = [seed / r, *xs, seed * r]
        fs = [f(xs[0]), *fs, f(xs[-1])]


def _warm_fields(theta0, problem, seed):
    """State fields (as _state_and_defect gives them) at the reaction root
    nearest seed, or ContinuationError naming the window seed*[0.2, 5]."""
    xtol = 1e-15 * problem.B / problem.l**2
    root = _nearest_root(lambda R: compatibility_residual(R, theta0, problem), seed, xtol)
    if root is None:
        lo, hi = sorted((0.2 * seed, 5.0 * seed))
        raise ContinuationError(
            "no sign change of the compatibility residual in the reaction window "
            f"[{lo:.6g}, {hi:.6g}] at theta0={theta0:.6g}"
        )
    return _state_and_defect(theta0, root, problem)[0]


def _follow_branch(theta0, problem):
    """State fields at theta0 on the branch that bifurcates at the
    linearized load R_cr.

    The branch is entered by a warm solve at _THETA_START seeded with
    R_cr, which fixes Koiter's coefficient R2 in R = R_cr + R2 theta0^2.
    Below _THETA_START that law seeds the one solve at theta0.  Above it,
    steps toward theta0 are seeded by the secant in theta0^2 through the
    last two accepted points, the first being (0, R_cr), and phi by the
    secant in theta0 from phi = 0 there.  A step is accepted within the
    continuity bounds of trace_branch and then doubled; it is halved when
    its solve fails or breaks the bounds, or, without a solve, when the
    prediction already breaks them.  Following stops once a step falls
    below theta0/2**_FOLLOW_HALVINGS.
    """
    R_cr = _default_seed(problem)
    last = _warm_fields(_THETA_START, problem, R_cr)
    if theta0 <= _THETA_START:
        if theta0 == _THETA_START:
            return last
        R2 = (last[1] - R_cr) / _THETA_START**2
        return _warm_fields(theta0, problem, R_cr + R2 * theta0 * theta0)
    # fields are (theta0, R, ...) with phi at index 5; the point before
    # the first accepted one is the bifurcation (0, R_cr, phi = 0)
    prev = (0.0, R_cr, 0.0)
    step, min_step = theta0 - _THETA_START, theta0 / 2**_FOLLOW_HALVINGS
    while True:
        th = min(last[0] + step, theta0)
        u = last[0] * last[0]
        seed = last[1] + (last[1] - prev[1]) * (th * th - u) / (u - prev[0] * prev[0])
        phi = last[5] + (last[5] - prev[2]) * (th - last[0]) / (last[0] - prev[0])
        why = _guard_rejection(seed, phi, last[1], last[5])
        if why:
            why = "predicted " + why
        else:
            try:
                fields = _warm_fields(th, problem, seed)
            except (ContinuationError, DegenerateGeometryError) as exc:
                why = str(exc)
            else:
                why = _guard_rejection(fields[1], fields[5], last[1], last[5])
                if not why:
                    if th == theta0:
                        return fields
                    prev, last = (last[0], last[1], last[5]), fields
                    step *= 2.0
                    continue
        step /= 2.0
        if step < min_step:
            raise ContinuationError(
                f"stopped at theta0={th:.6g} with steps below theta0/2**{_FOLLOW_HALVINGS} "
                f"past the last accepted theta0={last[0]:.6g}: {why}"
            )


def solve_R(theta0, problem, seed=None):
    """Solve the compatibility condition for the constraint reaction.

    With a seed (a warm start), the search widens from it in ratio:
    residuals at seed/r and seed*r for r = 1.02, then r**1.6, up to 5,
    and brentq refines the first sign change between neighbouring
    samples, so the root nearest the seed wins; a ContinuationError names
    the window seed*[0.2, 5] when it holds no sign change.  Without a
    seed (a cold start), the root is followed along the branch that
    bifurcates at the linearized critical load R_cr of the matching
    sliding-rod model: a warm solve at theta0 = 1e-3 seeded with R_cr,
    Koiter's law R = R_cr + R2 theta0^2 below that, and secant-predicted
    warm steps in theta0^2 above it, each kept within the continuity
    bounds of trace_branch.  When following stops, the ContinuationError
    names the theta0 it stopped at, the last accepted theta0 and the
    rejected (R, phi) or the solve failure.
    """
    if not theta0 > 0.0:
        raise ValueError("theta0 must be positive")
    if seed is None:
        return ElasticaState(*_follow_branch(theta0, problem))
    return ElasticaState(*_warm_fields(theta0, problem, seed))


def _branch_problem(problem, branch):
    if branch == "tensile":
        return replace(problem, half="left")
    if branch == "compressive":
        return replace(problem, half="right")
    raise ValueError("branch must be 'tensile' or 'compressive'")


def _guard_rejection(R, phi, R_prev, phi_prev):
    """Why the state (R, phi) breaks the continuity bounds against the
    accepted state (R_prev, phi_prev), or "" when it keeps them."""
    dR, dphi = abs(R / R_prev - 1.0), abs(phi - phi_prev)
    if dR <= _GUARD_R_RATIO and dphi <= _GUARD_PHI:
        return ""
    return (
        f"rejected R={R:.6g}, phi={phi:.6g} with |R/R_prev - 1|={dR:.3g} "
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
            why = _guard_rejection(st.R, st.phi, last.R, last.phi)
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
    thetas = [p.theta0 for p in pts]
    for i, j in sign_changes([value(p) - target for p in pts]):
        a, b = pts[i], pts[j]

        def solve(th0):
            w = (th0 - a.theta0) / (b.theta0 - a.theta0) if i != j else 0.0
            return solve_R(th0, pr, seed=a.R + w * (b.R - a.R))

        return solve(refine(lambda th0: value(solve(th0)) - target, thetas, i, j, 1e-13))
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
