import csv
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from arcstab.errors import QuadratureError
from arcstab.onedof import OneDofSystem, ProfileShape, elongation, equilibrium_force
from arcstab.profiledesign import (
    _EPS50,
    _N,
    _TAIL,
    TargetForceLaw,
    _clenshaw,
    _panel,
    closed_loop_validate,
    design_profile,
    export_profile_csv,
    law_circular,
    law_constant,
    law_sinusoidal,
    neutral_profile,
)

# frozen values (40-digit quadrature), default law parameters
F_SIN_06 = 1.0813102301259203
F_CIRC_06 = 0.90740074654192832
F_NEUT_05 = 1.0031032426884575


def quad_oracle(law, psi):
    # independent route: integrate in psi with the endpoint weight left in
    val, err = quad(
        lambda g: np.arcsin(g) / (law.beta(g) * np.sqrt(1.0 - g * g)),
        0.0,
        psi,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    assert err < 1e-9
    return np.sqrt(1.0 - psi * psi) - val


def test_neutral_profile_closed_form():
    p = neutral_profile(-1.0)
    assert p.f(0.0) == 1.0
    assert abs(p.f(0.5) - F_NEUT_05) < 1e-15
    h = 1e-6
    assert abs((p.f(h) - p.f(-0.0)) / h) < 1e-5
    assert abs((p.f(0.3 + h) - p.f(0.3 - h)) / (2 * h) - p.fp(0.3)) < 1e-9
    with pytest.raises(ValueError):
        neutral_profile(0.0)


def test_neutral_profile_curvature_sets_critical_load():
    # beta = Fcr l / k by construction
    for beta in (-1.0, -0.5, 0.7, 2.0):
        p = neutral_profile(beta)
        assert np.isclose(-1.0 / (1.0 + p.fpp(0.0)), beta, rtol=1e-12)


@pytest.mark.parametrize("beta", [-1.0, -2.0, 0.7])
def test_slope_and_curvature_at_unit_psi_are_their_limits(beta):
    # f' and f'' grow as (-1 - asin(1)/beta) / sqrt(1 - psi^2)^(1 or 3):
    # the designed profile divided by zero there, and the closed form gave
    # f''(1) = +inf for beta = -2 where f''(1 - 1e-9) = -2.4e12
    want = math.copysign(math.inf, -1.0 - math.asin(1.0) / beta)
    for p in (neutral_profile(beta), design_profile(law_constant(beta, psi_max=1.0))):
        assert p.fp(1.0) == want
        assert p.fpp(1.0) == want
        assert math.copysign(1.0, p.fp(1.0 - 1e-9)) == math.copysign(1.0, want)
        assert math.copysign(1.0, p.fpp(1.0 - 1e-9)) == math.copysign(1.0, want)


def test_design_profile_starts_at_unit_height():
    for law in (law_constant(-1.0), law_sinusoidal(), law_circular()):
        p = design_profile(law, tol=1e-10)
        assert p.f(0.0) == 1.0
        h = 1e-6
        assert abs((p.fp(h) - p.fp(0.0)) / 1.0) < 1e-4  # fp stays near 0


def test_design_constant_law_reproduces_neutral_profile():
    p = design_profile(law_constant(-1.0), tol=1e-12)
    q = neutral_profile(-1.0)
    for psi in np.linspace(0.0, 0.95, 20):
        assert abs(p.f(psi) - q.f(psi)) < 1e-11
        assert abs(p.fp(psi) - q.fp(psi)) < 1e-12
        assert abs(p.fpp(psi) - q.fpp(psi)) < 1e-9


def test_design_profile_frozen_values():
    p = design_profile(law_sinusoidal(), tol=1e-12)
    assert abs(p.f(0.6) - F_SIN_06) < 1e-12
    p = design_profile(law_circular(), tol=1e-12)
    assert abs(p.f(0.6) - F_CIRC_06) < 1e-12


def test_design_profile_matches_independent_quadrature():
    for law in (law_sinusoidal(), law_circular()):
        p = design_profile(law, tol=1e-10)
        for psi in (0.2, 0.5, 0.8):
            assert abs(p.f(psi) - quad_oracle(law, psi)) < 1e-9


def test_design_profile_derivatives_consistent():
    h = 1e-6
    for law in (law_sinusoidal(), law_circular()):
        p = design_profile(law, tol=1e-10)
        for psi in (0.15, 0.45, 0.75):
            fp_fd = (p.f(psi + h) - p.f(psi - h)) / (2 * h)
            fpp_fd = (p.fp(psi + h) - p.fp(psi - h)) / (2 * h)
            assert abs(fp_fd - p.fp(psi)) < 1e-6
            assert abs(fpp_fd - p.fpp(psi)) < 1e-6 * max(1.0, abs(p.fpp(psi)))


def test_numeric_dbeta_fallback_matches_analytic():
    law = law_sinusoidal()
    bare = TargetForceLaw(beta=law.beta, psi_max=law.psi_max)
    p = design_profile(law, tol=1e-10)
    q = design_profile(bare, tol=1e-10)
    for psi in (0.1, 0.5, 0.9):
        assert abs(p.fpp(psi) - q.fpp(psi)) < 1e-6


def test_closed_loop_roundtrip():
    grid = np.linspace(0.05, 1.2, 24)
    for law in (law_constant(-1.0), law_sinusoidal(), law_circular()):
        p = design_profile(law, tol=1e-10)
        assert closed_loop_validate(p, law, grid) < 1e-6


def test_closed_loop_neutral():
    grid = np.linspace(0.05, 1.2, 24)
    p = neutral_profile(-1.0)
    assert closed_loop_validate(p, law_constant(-1.0), grid) < 1e-12


def test_closed_loop_detects_perturbation():
    law = law_constant(-1.0)
    p = neutral_profile(-1.0)
    bent = ProfileShape(
        f=lambda s: p.f(s) + 1e-3 * s * s,
        fp=lambda s: p.fp(s) + 2e-3 * s,
        fpp=lambda s: p.fpp(s) + 2e-3,
        domain=p.domain,
        curvature_right_at_0=p.curvature_right_at_0 + 2e-3,
        curvature_left_at_0=p.curvature_left_at_0 + 2e-3,
    )
    assert closed_loop_validate(bent, law, np.linspace(0.05, 1.2, 24)) > 1e-4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_target_rejected(bad):
    # a NaN beta passed the |beta| < 1e-9 probe, and the profile came out NaN
    law = TargetForceLaw(beta=lambda s: bad if 0.4 < s < 0.6 else -1.0, psi_max=0.99)
    with pytest.raises(ValueError, match="not finite"):
        design_profile(law, tol=1e-10)


def test_closed_loop_keeps_a_nan_gap():
    # max(worst, nan) is worst, so a NaN gap after the first point read as 0
    law = TargetForceLaw(beta=lambda s: math.nan if s > 0.4 else -1.0, psi_max=0.99)
    grid = np.linspace(0.05, 1.2, 24)
    assert math.isnan(closed_loop_validate(neutral_profile(-1.0), law, grid))


def test_displacement_identity_for_designed_profiles():
    # l (sqrt(1 - psi^2) - f) equals the generic end-displacement formula
    # because designed profiles carry f(0) = 1
    p = design_profile(law_sinusoidal(), tol=1e-10)
    sys = OneDofSystem(k=1.0, l=1.0, phi0=0.0, profile=p)
    for phi in (0.1, 0.4, 0.9, 1.3):
        psi = np.sin(phi)
        assert abs((np.sqrt(1 - psi**2) - p.f(psi)) - elongation(phi, sys)) < 1e-12


def test_vanishing_target_rejected():
    crossing = TargetForceLaw(beta=lambda s: s - 0.5, psi_max=0.99)
    with pytest.raises(ValueError):
        design_profile(crossing, tol=1e-10)
    tiny = TargetForceLaw(beta=lambda s: 1e-14, psi_max=0.99)
    with pytest.raises(ValueError):
        design_profile(tiny, tol=1e-10)
    # a table whose sign flips between two probes of the uniform grid: the
    # breaks are probed too
    nodes, betas = [0.0, 0.5, 0.5001, 0.5002, 0.99], [-1.0, -1.0, 1.0, -1.0, -1.0]
    spike = TargetForceLaw(beta=lambda s: float(np.interp(s, nodes, betas)),
                           psi_max=0.99, breaks=tuple(nodes[1:-1]))
    with pytest.raises(ValueError, match="vanishes"):
        design_profile(spike, tol=1e-10)


def test_design_limit_outside_unit_interval_rejected():
    for psi_max in (0.0, -0.5, 2.0, float("nan")):
        with pytest.raises(ValueError, match="psi_max"):
            TargetForceLaw(beta=lambda s: -1.0, psi_max=psi_max)
        with pytest.raises(ValueError, match="psi_max"):
            law_constant(-1.0, psi_max=psi_max)
        with pytest.raises(ValueError, match="psi_max"):
            law_sinusoidal(psi_max=psi_max)
    # the closed interval's end is a valid design limit
    assert law_constant(-1.0, psi_max=1.0).psi_max == 1.0
    assert law_constant(-1.0, psi_max=0.5).psi_max == 0.5
    assert law_constant(-1.0).psi_max == 0.99


def test_unreachable_tolerance_reported():
    wild = TargetForceLaw(
        beta=lambda s: -1.5 + 0.4999 * np.sin(5000.0 * np.arcsin(s)), psi_max=0.99
    )
    p = design_profile(wild, tol=1e-13)
    with pytest.raises(QuadratureError):
        p.f(0.9)


def test_tolerance_below_rounding_reported():
    # the error estimate never falls below 50 eps times the integral of |g|
    p = design_profile(law_sinusoidal(), tol=1e-20)
    assert p.f(0.0) == 1.0
    with pytest.raises(QuadratureError, match="unreachable"):
        p.f(0.5)


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
def test_nonpositive_tolerance_rejected(tol):
    with pytest.raises(ValueError, match="tolerance"):
        design_profile(law_constant(-1.0), tol=tol)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-0.7, 1.3), (0.4, 0.1)])
def test_panel_integrates_polynomials_to_degree_n(a, b):
    # the antiderivative of a panel is exact for degree <= _N at any upper
    # limit inside the panel, not only at its end
    for degree in range(_N + 1):
        coef = [(-1.0) ** k * (k + 1.0) / 3.0 for k in range(degree + 1)]
        poly = np.polynomial.Polynomial(coef)
        anti = poly.integ()
        _, _, coefs, err, floored = _panel(lambda x: float(poly(x)), a, b)
        scale = float(np.polynomial.Polynomial(np.abs(coef)).integ()(max(abs(a), abs(b))))
        for u in (0.0, 0.13, 0.5, 0.71, 0.96, 1.0):
            t = a + u * (b - a)
            got = _clenshaw(coefs, (2.0 * t - a - b) / (b - a))
            assert abs(got - (anti(t) - anti(a))) <= 8e-16 * max(1.0, scale), (degree, u)
        if degree <= _N - _TAIL:
            # the trailing coefficients vanish, so the error estimate sits at
            # its floor, 50 eps times the panel's integral of |p|
            x = np.linspace(a, b, 20001)
            floor = _EPS50 * abs(np.trapezoid(np.abs(poly(x)), x))
            assert 0.9 * floor <= err <= 1.1 * floor, degree
            assert floored, degree
    # two degrees higher, the interpolant is no longer exact
    _, _, coefs, err, floored = _panel(lambda x: x ** (_N + 2), -1.0, 1.0)
    assert abs(sum(coefs) - 2.0 / (_N + 3)) > 1e-10
    assert err > 1e-10 and not floored


def test_tabulated_law_with_kinks_matches_split_reference():
    nodes = [0.0, 0.15, 0.4, 0.55, 0.7, 0.85, 0.95]
    betas = [-1.0, -1.4, -0.6, -1.1, -0.8, -1.5, -0.9]
    law = TargetForceLaw(beta=lambda s: float(np.interp(s, nodes, betas)),
                         psi_max=nodes[-1], breaks=tuple(nodes[1:-1]))
    p = design_profile(law, tol=1e-12)
    mp_nodes = [mpmath.mpf(v) for v in nodes]

    def beta(tau):
        s = mpmath.sin(tau)
        i = max(i for i in range(len(nodes) - 1) if mp_nodes[i] <= s)
        w = (s - mp_nodes[i]) / (mp_nodes[i + 1] - mp_nodes[i])
        return (1 - w) * betas[i] + w * betas[i + 1]

    for psi in (0.1, 0.15, 0.3, 0.4, 0.62, 0.8, 0.9, 0.95):
        with mpmath.workdps(30):
            tau = mpmath.asin(mpmath.mpf(psi))
            cuts = [0, *(mpmath.asin(v) for v in mp_nodes[1:] if v < psi), tau]
            want = mpmath.sqrt(1 - mpmath.mpf(psi) ** 2) - mpmath.quad(
                lambda t: t / beta(t), cuts)
        assert abs(p.f(psi) - float(want)) < 1e-12, psi


def test_heights_match_frozen_quad_heights():
    # heights of scipy.integrate.quad (epsabs = epsrel = 1e-10, limit 200,
    # one integral from 0 per height) at default tol, on the 601-point grid
    # of the profile export and at 40 random points off it
    laws = {"constant": law_constant(-1.0), "sinusoidal": law_sinusoidal(),
            "circular": law_circular()}
    profiles = {name: design_profile(law) for name, law in laws.items()}
    with open(Path(__file__).parent / "data" / "quad_heights.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * (601 + 40)
    for name, law in laws.items():
        grid = [float(r["psi"]) for r in rows if r["law"] == name][:601]
        assert grid == [float(v) for v in np.linspace(0.0, law.psi_max, 601)]
    for r in rows:
        psi = float(r["psi"])
        assert abs(profiles[r["law"]].f(psi) - float(r["f"])) <= 1e-14, (r["law"], psi)


def counted(law):
    """law with a beta that counts its calls in the returned list."""
    calls = [0]

    def beta(psi):
        calls[0] += 1
        return law.beta(psi)

    return TargetForceLaw(beta=beta, psi_max=law.psi_max, dbeta=law.dbeta), calls


def test_integrand_budget_of_a_design_and_its_export(tmp_path):
    # the heights come from the design pass's panels: the export evaluates
    # no integrand, where one integral per height made 8,985 calls
    law, calls = counted(law_sinusoidal())
    p = design_profile(law)
    export_profile_csv(p, tmp_path / "profile.csv", n=601)
    assert calls[0] <= 1000, calls[0]
    calls[0] = 0
    export_profile_csv(p, tmp_path / "profile.csv", n=601)
    assert calls[0] == 0


def test_heights_of_a_law_with_a_large_integral():
    # the whole integral, -1.32, met max(tol, tol |integral|) while the
    # error sat below psi = 0.35, where the height is -0.145: that height
    # was refused.  An absolute sum of estimates bounds every height
    law = law_sinusoidal(base=-0.815326169776961, amplitude=0.47858526690392234,
                         lobes=3.755194229385701)
    p = design_profile(law)
    heights = [p.f(psi) for psi in np.linspace(0.0, law.psi_max, 601).tolist()]
    assert len(heights) == 601
    for psi in (0.3498, 0.6, 0.9):
        assert abs(p.f(psi) - quad_oracle(law, psi)) < 1e-9


def test_pass_ends_where_estimates_sit_at_their_floor():
    # with |beta| = 0.002 the integral of |g| is 511, and the floors alone
    # sum to 5.7e-12 > tol / 100: bisecting further lowers nothing, where the
    # pass once ran to 200 panels and 7,042 integrand calls
    law, calls = counted(law_constant(-0.002))
    p = design_profile(law)
    assert calls[0] <= 1000, calls[0]
    q = neutral_profile(-0.002)
    for psi in np.linspace(0.0, law.psi_max, 61).tolist():
        assert abs(p.f(psi) - q.f(psi)) <= 1e-12 * max(1.0, abs(q.f(psi))), psi


def test_profile_csv_export(tmp_path):
    p = neutral_profile(-1.0)
    path = tmp_path / "profile.csv"
    export_profile_csv(p, path, n=11)
    lines = path.read_text().splitlines()
    assert lines[0] == "psi,f"
    assert len(lines) == 12
    assert p.domain == (0.0, 1.0)
    psi, f = lines[6].split(",")
    assert abs(float(psi) - 0.5) < 1e-15
    assert abs(float(f) - p.f(float(psi))) < 1e-16
    # fixed-width scientific format, 17 significant digits
    assert "e" in psi and len(psi.split("e")[0].split(".")[1]) == 16
