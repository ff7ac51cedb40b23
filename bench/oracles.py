"""Independent correctness checks for the benchmark's outputs.

Nothing here imports arcstab.  Each check recomputes what the program
claims from the model equations, with different numerics from the
program's own:

* elastica states and shapes against a direct DOP853 integration of
  theta'' = (R/B) sin theta, x1' = cos theta, x2' = sin theta,
* linearized rod roots against the determinant of the two-unknown
  boundary-value system, scanned on a grid 40 times finer than the
  program's,
* rigid-bar rows against virtual work along the constraint circle,
* designed profiles against the defining integral evaluated by
  mpmath.quad.

Every check raises CheckError with a message naming the first violation.
"""

import csv
import math
import re

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

# Elastica residuals of the program stay near 1e-12 of the rod length; the
# DOP853 oracle at rtol 1e-12 agrees with them to a few 1e-12 on fig7.
ELASTICA_TOL = 1e-10
# Closed-form and quadrature comparisons on rigid-bar and profile outputs.
RIGID_TOL = 1e-10
# Linearized critical load against the first elastica row at theta0 = 1e-4,
# where the postcritical correction is O(theta0^2).
LINEAR_LIMIT_RTOL = 1e-6
CLOSED_LOOP_LIMIT = 1e-6
# Fine scan of the rod determinant, as a fraction of pi.
ROD_FINE_STEP = math.pi / 2000.0


class CheckError(AssertionError):
    """An output disagrees with its independent oracle."""


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def read_table(path):
    """CSV header and rows; numeric cells become floats, others stay text."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for raw in reader:
            row = []
            for cell in raw:
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
            rows.append(row)
    return header, rows


def _require_header(path, header, expected):
    _require(header == expected, "%s: header %r, expected %r" % (path, header, expected))


# ------------------------------------------------------------------ elastica


def integrate_rod(theta0, R, B, l, k_r, s_eval=None):
    """Pin-to-clamp integration; returns the solution at s = l, or at s_eval."""
    ratio = R / B

    def rhs(_s, y):
        th = y[0]
        return [y[1], ratio * math.sin(th), math.cos(th), math.sin(th)]

    sol = solve_ivp(
        rhs,
        (0.0, l),
        [theta0, theta0 * k_r / B, 0.0, 0.0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-15 * max(theta0, 1e-300),
        t_eval=s_eval,
    )
    _require(sol.success, "oracle integration failed: %s" % sol.message)
    return sol.y if s_eval is not None else sol.y[:, -1]


def _center(R_c, half):
    return R_c if half == "left" else -R_c


def check_elastica_state(theta0, R, phi, F, delta, *, B, l, k_r, R_c, half, where=""):
    """One solved state against the integrated rod.

    Compares theta(l) with phi, the closure defect [x1(l) - c] sin phi -
    x2(l) cos phi, delta (clamp travel along the load axis from the
    straight assembly) and F = R cos phi.
    """
    th_l, _, x1, x2 = integrate_rod(theta0, R, B, l, k_r)
    c = _center(R_c, half)
    closure = (x1 - c) * math.sin(phi) - x2 * math.cos(phi)
    reach = (x1 - c) * math.cos(phi) + x2 * math.sin(phi)
    errs = {
        "theta(l) - phi": th_l - phi,
        "closure defect": closure / l,
        "delta": (reach + c - l - delta) / l,
        "F - R cos(phi)": (F - R * math.cos(phi)) / max(abs(R), B / l**2),
    }
    for name, err in errs.items():
        _require(
            abs(err) <= ELASTICA_TOL,
            "%s theta0=%.17g R=%.17g: %s off by %.3e" % (where, theta0, R, name, err),
        )


_BRANCH_HEADER = ["theta0", "R", "F", "phi", "delta", "normalized_F"]
_SHAPE_HEADER = ["s", "x1", "x2", "theta"]


def check_branch_csv(path, *, B, l, k_r, R_c, half, schedule):
    """Branch table: every row an equilibrium, the schedule complete, the
    load-sign row present where phi crosses pi/2, the first row at the
    linearized critical load."""
    header, rows = read_table(path)
    _require_header(path, header, _BRANCH_HEADER)
    data = np.array(rows, dtype=float)
    norm = 4.0 * l**2 / (B * math.pi**2)
    for i, (th0, R, F, phi, delta, fn) in enumerate(data):
        check_elastica_state(th0, R, phi, F, delta, B=B, l=l, k_r=k_r, R_c=R_c,
                             half=half, where="%s row %d" % (path, i + 1))
        _require(abs(fn - F * norm) <= 1e-15 * max(1.0, abs(fn)),
                 "%s row %d: normalized_F is not 4 F l^2/(B pi^2)" % (path, i + 1))
    theta0 = data[:, 0]
    _require(np.all(np.diff(theta0) > 0.0), "%s: theta0 not increasing" % path)

    on_axis = np.abs(data[:, 3] - math.pi / 2.0) <= 1e-9
    crossing = np.any(np.diff(np.sign(data[~on_axis, 3] - math.pi / 2.0)) != 0)
    if crossing:
        _require(on_axis.sum() == 1, "%s: expected one load-sign row at phi = pi/2" % path)
        F0 = data[on_axis, 2][0]
        _require(abs(F0) <= 1e-9 * B / l**2, "%s: load-sign row has F = %.3e" % (path, F0))
    scheduled = theta0[~on_axis] if crossing else theta0
    want = np.asarray(schedule, dtype=float)
    _require(scheduled.size == want.size,
             "%s: %d scheduled rows, expected %d" % (path, scheduled.size, want.size))
    _require(np.allclose(scheduled, want, rtol=1e-15, atol=0.0),
             "%s: theta0 column is not the continuation schedule" % path)

    chi = -l / R_c if half == "left" else l / R_c
    sign = "tension" if half == "left" else "compression"
    x = first_rod_root(sign, chi=chi, k=k_r, B=B, l=l)
    F_lin = (1.0 if sign == "tension" else -1.0) * B * x * x / l**2
    _require(abs(data[0, 2] - F_lin) <= LINEAR_LIMIT_RTOL * abs(F_lin),
             "%s: first row F = %.17g, linearized critical load %.17g"
             % (path, data[0, 2], F_lin))
    return data


def _shoot_reaction(theta0, phi, R_guess, B, l, k_r):
    """Reaction R whose integrated rod ends at theta(l) = phi, near R_guess."""

    def gap(R):
        return integrate_rod(theta0, R, B, l, k_r)[0] - phi

    step = 1e-3 * abs(R_guess)
    lo, hi = R_guess - step, R_guess + step
    g_lo, g_hi = gap(lo), gap(hi)
    for _ in range(30):
        if g_lo * g_hi <= 0.0:
            return brentq(gap, lo, hi, xtol=1e-15, rtol=1e-14)
        step *= 2.0
        lo, hi = R_guess - step, R_guess + step
        g_lo, g_hi = gap(lo), gap(hi)
    raise CheckError("no reaction reproduces the shape's end rotation near R=%.6g" % R_guess)


def check_shape_csv(path, branch_rows, *, B, l, k_r, R_c, half, phi_target, samples):
    """Deformed shape against the integrated rod through the same end angles.

    The shape file does not carry R, so the oracle shoots for the R that
    takes theta0 (row 0) to the written end rotation, starting from the
    branch table; the shape must then match the integration at every
    sample, close on the circle, and have arclength l.
    """
    header, rows = read_table(path)
    _require_header(path, header, _SHAPE_HEADER)
    s, x1, x2, th = np.array(rows, dtype=float).T
    _require(s.size == samples, "%s: %d samples, expected %d" % (path, s.size, samples))
    _require(np.allclose(s, np.linspace(0.0, l, samples), rtol=0.0, atol=1e-15 * l),
             "%s: s is not a uniform grid on [0, l]" % path)
    theta0, phi = th[0], th[-1]
    _require(abs(phi - phi_target) <= 1e-9,
             "%s: end rotation %.17g, requested %.17g" % (path, phi, phi_target))
    R_guess = float(np.interp(theta0, branch_rows[:, 0], branch_rows[:, 1]))
    R = _shoot_reaction(theta0, phi, R_guess, B, l, k_r)
    ref = integrate_rod(theta0, R, B, l, k_r, s_eval=s)
    for name, got, want in (("theta", th, ref[0]), ("x1", x1, ref[2]), ("x2", x2, ref[3])):
        err = np.max(np.abs(got - want))
        _require(err <= ELASTICA_TOL * max(1.0, l),
                 "%s: %s off the integrated rod by %.3e" % (path, name, err))
    c = _center(R_c, half)
    closure = (x1[-1] - c) * math.sin(phi) - x2[-1] * math.cos(phi)
    _require(abs(closure) <= ELASTICA_TOL * l,
             "%s: clamp off the circle-center horizontal by %.3e" % (path, closure))
    # chord lengths corrected by the turning of theta over each segment
    dth = np.diff(th) / 2.0
    sinc = np.where(dth == 0.0, 1.0, np.sin(dth) / np.where(dth == 0.0, 1.0, dth))
    length = np.sum(np.hypot(np.diff(x1), np.diff(x2)) / sinc)
    _require(abs(length - l) <= 1e-7 * l,
             "%s: centerline length %.12g, rod length %.12g" % (path, length, l))


_SHIFT_LINE = re.compile(
    r"F = (\S+): delta_t = (\S+) delta_c = (\S+) shift = (\S+)$"
)


def check_branch_shift(path, *, R_c, l, lines_expected=5):
    """Every shift of the tensile over the compressive branch equals 2 R_c."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    _require(len(lines) == lines_expected + 1,
             "%s: %d lines, expected %d shifts and a summary"
             % (path, len(lines), lines_expected))
    for line in lines[:-1]:
        m = _SHIFT_LINE.match(line)
        _require(m is not None, "%s: malformed line %r" % (path, line))
        _, dt, dc, shift = (float(v) for v in m.groups())
        _require(abs(shift - (dt - dc)) <= 1e-15 * l,
                 "%s: shift is not delta_t - delta_c in %r" % (path, line))
        _require(abs(shift - 2.0 * R_c) <= 1e-9 * l,
                 "%s: shift %.17g, expected 2 R_c = %.17g" % (path, shift, 2.0 * R_c))
    _require(lines[-1].startswith("max_shift_spread = "),
             "%s: missing the spread summary" % path)


# ------------------------------------------------------------- rigid bar


def check_critical_1dof(path, *, grid):
    """Rows (chi, F l/k) against the closed form -1/(1 + chi)."""
    header, rows = read_table(path)
    _require_header(path, header, ["chi_hat", "Fcr_normalized"])
    _require(len(rows) == len(grid), "%s: %d rows for %d curvatures" % (path, len(rows), len(grid)))
    for (chi, fn), want_chi in zip(rows, grid):
        _require(chi == want_chi, "%s: row for chi=%r, expected %r" % (path, chi, want_chi))
        want = math.inf if chi == -1.0 else -1.0 / (1.0 + chi)
        _require(fn == want or abs(fn - want) <= 1e-14 * abs(want),
                 "%s: chi=%r gives %r, expected %r" % (path, chi, fn, want))


def _lobe_height(psi, chi):
    return (1.0 - math.sqrt(max(1.0 - chi * chi * psi * psi, 0.0))) / chi


def _bar_energy(t, F, *, chi, phi0, f0):
    # spring energy minus load work along the lobe, in units of k (l = 1)
    phi = math.asin(math.sin(t) / abs(chi))
    delta = math.cos(phi) - math.cos(phi0) - (1.0 - math.cos(t)) / chi + f0
    return 0.5 * (phi - phi0) ** 2 - F * delta


def check_trace_1dof(path, *, chi, phi0, t_grid, lobe_of_phi0):
    """Rigid-bar trace on one circular lobe against virtual work.

    The pin angle t is recovered from each row's delta; it must reproduce
    the row's phi and walk the commanded pin-angle grid.  The force is
    then F l/k = (phi - phi0) cos t / -(sin phi cos t + sgn(chi) sin t cos phi),
    the stationarity of the spring energy against the load work in t, and
    the stability label follows the sign of the energy's second derivative.
    """
    header, rows = read_table(path)
    _require_header(path, header, ["phi", "F_normalized", "delta_over_l", "stability"])
    _require(len(rows) == len(t_grid),
             "%s: %d rows for %d pin angles" % (path, len(rows), len(t_grid)))
    f0 = _lobe_height(math.sin(phi0), lobe_of_phi0)
    sg = math.copysign(1.0, chi)
    for i, ((phi, fn, dl, stab), t_cmd) in enumerate(zip(rows, t_grid)):
        where = "%s row %d" % (path, i + 1)
        height = math.cos(phi) - math.cos(phi0) + f0 - dl
        t = math.copysign(math.acos(max(-1.0, min(1.0, 1.0 - chi * height))), t_cmd)
        _require(abs(t - t_cmd) <= 1e-8, "%s: pin angle %.17g, commanded %.17g" % (where, t, t_cmd))
        _require(abs(math.sin(phi) * abs(chi) - math.sin(t)) <= RIGID_TOL,
                 "%s: phi is not on the lobe at the recovered pin angle" % where)
        den = -(math.sin(phi) * math.cos(t) + sg * math.sin(t) * math.cos(phi))
        want = (phi - phi0) * math.cos(t) / den
        _require(abs(fn - want) <= RIGID_TOL * max(1.0, abs(want)),
                 "%s: F l/k = %.17g, virtual work gives %.17g" % (where, fn, want))
        h = 1e-4
        e = [_bar_energy(t + d, want, chi=chi, phi0=phi0, f0=f0) for d in (-h, 0.0, h)]
        d2 = (e[0] - 2.0 * e[1] + e[2]) / (h * h)
        if abs(d2) > 1e-5:
            label = "stable" if d2 > 0.0 else "unstable"
            _require(stab == label, "%s: labelled %s, energy says %s" % (where, stab, label))


# ------------------------------------------------------------ profile design


def law_beta_of_tau(law, params):
    """Target force beta(sin tau) as an mpmath function of the angle tau."""
    if law == "constant":
        b = mpmath.mpf(params["beta"])
        return lambda tau: b
    if law == "sinusoidal":
        base, amp, lobes = (mpmath.mpf(params[k]) for k in ("base", "amplitude", "lobes"))
        return lambda tau: base + amp * mpmath.sin(lobes * tau)
    if law == "circular":
        center, radius = mpmath.mpf(params["center"]), mpmath.mpf(params["radius"])
        return lambda tau: center - mpmath.sqrt(radius**2 - tau**2)
    raise ValueError("unknown law %r" % law)


def check_profile_csv(path, *, law, params, psi_max, samples):
    """Profile heights against f(psi) = sqrt(1 - psi^2) - int_0^asin(psi) tau/beta dtau.

    The integral is accumulated over the sample intervals with mpmath.quad
    (Gauss-Legendre) at 20 digits.
    """
    header, rows = read_table(path)
    _require_header(path, header, ["psi", "f"])
    psi, f = np.array(rows, dtype=float).T
    _require(psi.size == samples, "%s: %d samples, expected %d" % (path, psi.size, samples))
    _require(np.allclose(psi, np.linspace(0.0, psi_max, samples), rtol=0.0, atol=1e-15),
             "%s: psi is not a uniform grid on [0, %g]" % (path, psi_max))
    beta = law_beta_of_tau(law, params)
    with mpmath.workdps(20):
        integral = mpmath.mpf(0)
        prev = mpmath.mpf(0)
        for i, p in enumerate(psi):
            tau = mpmath.asin(mpmath.mpf(float(p)))
            if i:
                integral += mpmath.quad(lambda x: x / beta(x), [prev, tau],
                                        method="gauss-legendre")
            prev = tau
            want = float(mpmath.sqrt(1 - mpmath.mpf(float(p)) ** 2) - integral)
            _require(abs(f[i] - want) <= RIGID_TOL * max(1.0, abs(want)),
                     "%s row %d: f(%.17g) = %.17g, integral gives %.17g"
                     % (path, i + 1, p, f[i], want))


_REPORT_LINE = re.compile(
    r"closed_loop_max_error = (\S+) over (\d+) phi points in \[(\S+), (\S+)\]$"
)


def check_design_report(path, *, n_validate):
    """The designed profile reproduces its target force to 1e-6."""
    with open(path) as fh:
        text = fh.read().strip()
    m = _REPORT_LINE.match(text)
    _require(m is not None, "%s: malformed report %r" % (path, text))
    err, n = float(m.group(1)), int(m.group(2))
    _require(n == n_validate, "%s: %d validation points, expected %d" % (path, n, n_validate))
    _require(0.0 <= err <= CLOSED_LOOP_LIMIT,
             "%s: closed-loop error %.3e exceeds %.0e" % (path, err, CLOSED_LOOP_LIMIT))


# --------------------------------------------------------------- linear rod


def rod_determinant(x, load_sign, *, chi, k, B, l, clamped, lib=np):
    """Determinant of the linearized rod's boundary-value system.

    With v = A + C z + D c(alpha z) + E s(alpha z), (c, s) = (cosh, sinh)
    in tension and (cos, sin) in compression, the clamp v(0) = v'(0) = 0
    and the end shear B v''' - F v' = F phi (the reaction points at the
    circle center) leave two unknowns, D and the pin-line rotation phi.
    The remaining rows are the spring moment balance
    -B v''(l) = k (phi + v'(l)) (clamped: phi + v'(l) = 0) and the
    kinematic constraint phi = chi v(l) / l.  Vectorized over x = alpha l
    with lib=numpy; lib=mpmath evaluates one mpf x, for the cases where the
    cosh^2-sized terms of a large tension root cancel to a few units of
    double rounding.
    """
    if lib is np:
        x = np.asarray(x, dtype=float)
    a = x / l
    if load_sign == "tension":
        c, s, sg = lib.cosh(x), lib.sinh(x), 1.0
    else:
        c, s, sg = lib.cos(x), lib.sin(x), -1.0
    # v(l), v'(l), v''(l) as (coefficient of D, coefficient of phi)
    v = (c - 1.0, s / a - l)
    vp = (sg * a * s, c - 1.0)
    vpp = (sg * a * a * c, sg * a * s)
    if clamped:
        m_row = vp[0], 1.0 + vp[1]
    else:
        m_row = B * vpp[0] + k * vp[0], B * vpp[1] + k * (1.0 + vp[1])
    k_row = (chi / l) * v[0], (chi / l) * v[1] - 1.0
    return m_row[0] * k_row[1] - m_row[1] * k_row[0]


def rod_root_cells(load_sign, *, chi, k, B, l, clamped, x_max):
    """Fine-grid cells (lo, hi) in (0, x_max] where the determinant changes sign."""
    xs = ROD_FINE_STEP * np.arange(1, int(x_max / ROD_FINE_STEP + 1e-9) + 1)
    d = rod_determinant(xs, load_sign, chi=chi, k=k, B=B, l=l, clamped=clamped)
    idx = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0.0)[0]
    return [(xs[i], xs[i + 1]) for i in idx]


def first_rod_root(load_sign, *, chi, k, B, l, clamped=False, x_max=6.0 * math.pi):
    """Smallest positive alpha l of the rod determinant, by bisection."""
    cells = rod_root_cells(load_sign, chi=chi, k=k, B=B, l=l, clamped=clamped, x_max=x_max)
    _require(bool(cells), "no %s root of the rod determinant below %g" % (load_sign, x_max))
    lo, hi = cells[0]

    def g(x):
        return float(rod_determinant(x, load_sign, chi=chi, k=k, B=B, l=l, clamped=clamped))

    return brentq(g, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)


def check_rod_table(path, *, grid, B, l, k, clamped, alpha_l_max, max_modes):
    """Rod table against sign changes of the determinant.

    For each curvature and load sign the table must list, in order, the
    first max_modes sign changes found on the fine grid, each alpha_l
    inside its cell and straddled by a sign change at +-1e-9 relative,
    with Fcr = +-alpha_l^2/pi^2 and xi = pi/alpha_l.  The clamped
    chi = -1 compression determinant only touches zero, at 2 pi n.
    """
    header, rows = read_table(path)
    _require_header(path, header,
                    ["chi_hat", "sign", "mode_index", "alpha_l", "Fcr_normalized", "xi"])
    want_keys = []
    for chi in grid:
        for sign in ("tension", "compression"):
            if clamped and chi == -1.0:
                n = int(alpha_l_max / (2.0 * math.pi) + 1e-15) if sign == "compression" else 0
                cells = [(2.0 * math.pi * (i + 1),) * 2 for i in range(n)]
            else:
                cells = rod_root_cells(sign, chi=chi, k=k, B=B, l=l, clamped=clamped,
                                       x_max=alpha_l_max)
            for i, cell in enumerate(cells[:max_modes]):
                want_keys.append((chi, sign, i + 1, cell))
    _require(len(rows) == len(want_keys),
             "%s: %d rows, the determinant has %d roots to list"
             % (path, len(rows), len(want_keys)))
    for row, (chi, sign, mode, (lo, hi)) in zip(rows, want_keys):
        r_chi, r_sign, r_mode, x, fcr, xi = row
        where = "%s chi=%r %s mode %d" % (path, chi, sign, mode)
        _require((r_chi, r_sign, int(r_mode)) == (chi, sign, mode),
                 "%s: row is %r" % (where, row[:3]))
        _require(lo - 1e-12 <= x <= hi + 1e-12,
                 "%s: alpha_l=%.17g outside the root cell [%.6g, %.6g]" % (where, x, lo, hi))
        if lo != hi:
            with mpmath.workdps(40):
                d = [rod_determinant(mpmath.mpf(x) * (1 + e), sign, chi=chi, k=k, B=B, l=l,
                                     clamped=clamped, lib=mpmath) for e in (-1e-9, 1e-9)]
            _require(d[0] * d[1] < 0, "%s: no sign change at alpha_l=%.17g" % (where, x))
        sg = 1.0 if sign == "tension" else -1.0
        _require(abs(fcr - sg * x * x / math.pi**2) <= 1e-15 * abs(fcr),
                 "%s: Fcr_normalized %r is not %+g alpha_l^2/pi^2" % (where, fcr, sg))
        _require(abs(xi - math.pi / x) <= 1e-15 * xi,
                 "%s: xi %r is not pi/alpha_l" % (where, xi))
