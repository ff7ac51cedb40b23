"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained: closed-form oracles and quadrature references
are redefined here rather than imported from the unit-test modules, so a
failure localizes to the behaviour under test.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from arcstab import cli, elastica, onedof, profiledesign, rodlinear
from arcstab.elliptic import ellint_F, jacobi_am, jacobi_dn, jacobi_epsilon

THREE_QUARTER_PI = 3.0 * math.pi / 4.0


# ------------------------------------------------------------ local oracles

def force_circle(phi, chi, phi0=0.0, k=1.0, l=1.0):
    S = math.sqrt(1.0 - chi**2 * math.sin(phi) ** 2)
    return -k * (phi - phi0) * S / (l * math.sin(phi) * (chi * math.cos(phi) + S))


def stable_circle(phi, chi, phi0=0.0):
    S = math.sqrt(1.0 - chi**2 * math.sin(phi) ** 2)
    return 1.0 - chi**2 * math.sin(phi) ** 2 - (phi - phi0) * (
        1.0 / math.tan(phi) - chi * math.sin(phi) * S
    )


def energy(phi, F, sys_):
    p = sys_.profile
    return 0.5 * sys_.k * (phi - sys_.phi0) ** 2 - F * sys_.l * (
        math.cos(phi) - math.cos(sys_.phi0) - p.f(math.sin(phi)) + p.f(math.sin(sys_.phi0))
    )


def oracle_F(beta, k):
    if k <= 1.0:
        val, _ = quad(lambda t: 1.0 / np.sqrt(1.0 - (k * np.sin(t)) ** 2),
                      0.0, beta, epsabs=1e-13, epsrel=1e-13, limit=200)
        return val
    gamma = np.arcsin(min(1.0, k * np.sin(beta)))
    val, _ = quad(lambda w: 1.0 / np.sqrt(k * k - np.sin(w) ** 2),
                  0.0, gamma, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def oracle_E(beta, k):
    if k <= 1.0:
        val, _ = quad(lambda t: np.sqrt(1.0 - (k * np.sin(t)) ** 2),
                      0.0, beta, epsabs=1e-13, epsrel=1e-13, limit=200)
        return val
    gamma = np.arcsin(min(1.0, k * np.sin(beta)))
    val, _ = quad(lambda w: np.cos(w) ** 2 / np.sqrt(k * k - np.sin(w) ** 2),
                  0.0, gamma, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def refine_on_trace(pr, trace, value, target):
    # bracket by consecutive trace points, then root in theta0 on cold
    # solves, which follow the branch from its bifurcation and take no seed
    for a, b in zip(trace.points, trace.points[1:]):
        if (value(a) - target) * (value(b) - target) <= 0.0:
            th0 = brentq(lambda t: value(elastica.solve_R(t, pr)) - target,
                         a.theta0, b.theta0, xtol=1e-13)
            return elastica.solve_R(th0, pr)
    return None


@pytest.fixture(scope="module")
def roller_traces():
    prob = elastica.ElasticaProblem(B=1.0, l=1.0, k_r=0.0, R_c=0.25)
    sched = np.linspace(1e-4, 3.05, 60)
    return {
        "problem": prob,
        "tensile": elastica.trace_branch(replace(prob, half="left"), sched),
        "compressive": elastica.trace_branch(replace(prob, half="right"), sched),
    }


# -------------------------------------------------------------------- tests

def test_criterion_01_one_dof_closed_form_critical_loads():
    systems = [
        (onedof.OneDofSystem(k=1.0, l=1.0, phi0=0.0, profile=p), want)
        for p, want in (
            (onedof.profile_straight(), -1.0),
            (onedof.profile_circular(-4.0), 1.0 / 3.0),
            (onedof.profile_circular(4.0), -0.2),
        )
    ]
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        got = [onedof.critical_load(s) for s, _ in systems]
        best = min(best, time.perf_counter() - t0)
    for g, (_, want) in zip(got, systems):
        assert abs(g - want) <= 1e-14
    assert best < 1e-3


def test_criterion_02_circle_closed_form_agreement():
    checked = 0
    for chi in (0.5, -0.5, 4.0, -4.0):
        sys_ = onedof.OneDofSystem(
            k=1.0, l=1.0, phi0=0.0, profile=onedof.profile_circular(chi)
        )
        lim = math.asin(min(1.0, 1.0 / abs(chi))) * 0.999
        for phi in np.linspace(-lim, lim, 133):
            if abs(phi) < 1e-3:
                continue
            F = onedof.equilibrium_force(phi, sys_)
            assert abs(F - force_circle(phi, chi)) < 1e-12
            cond = stable_circle(phi, chi)
            if abs(cond) > 1e-9:
                want = "stable" if cond > 0 else "unstable"
                assert onedof.stability_of(phi, F, sys_) == want
            checked += 1
    assert checked >= 500


def test_criterion_03_energy_stationary_at_traced_equilibria():
    h = 1e-6
    cases = (
        (onedof.profile_circular(-4.0), 0.01, 0.24),
        (onedof.profile_circular(4.0), 0.01, 0.24),
        (onedof.profile_circular(-0.5), 0.01, 1.2),
        (onedof.profile_s_shaped(4.0), 0.01, 0.24),
    )
    total = 0
    for profile, lo, hi in cases:
        sys_ = onedof.OneDofSystem(k=1.0, l=1.0, phi0=0.0, profile=profile)
        for pt in onedof.trace_branch(sys_, np.linspace(lo, hi, 250)).points:
            dW = (energy(pt.phi + h, pt.F, sys_) - energy(pt.phi - h, pt.F, sys_)) / (2 * h)
            assert abs(dW) < 1e-8 * sys_.k
            total += 1
    assert total == 1000


def test_criterion_04_profile_design_closes_the_loop():
    t0 = time.perf_counter()
    sys_ = onedof.OneDofSystem(
        k=1.0, l=1.0, phi0=0.0, profile=profiledesign.neutral_profile(-1.0)
    )
    for phi in np.linspace(0.05, 1.2, 200):
        assert abs(onedof.equilibrium_force(phi, sys_) + 1.0) < 1e-6
    for law in (profiledesign.law_sinusoidal(), profiledesign.law_circular()):
        profile = profiledesign.design_profile(law)
        grid = np.linspace(0.05, math.asin(0.95 * law.psi_max), 120)
        assert profiledesign.closed_loop_validate(profile, law, grid) < 1e-6
    assert time.perf_counter() - t0 < 1.0


def test_criterion_05_elliptic_roundtrips_and_quadrature_oracle():
    for k in (0.1, 0.5, 0.9, 1.2):
        if k <= 1.0:
            betas = np.linspace(-1.5, 1.5, 200)
        else:
            bstar = math.asin(1.0 / k)
            betas = np.linspace(-bstar, bstar, 200)
        for beta in betas:
            u = ellint_F(beta, k)
            am = jacobi_am(u, k)
            assert abs(am - beta) < 1e-10
            dn = jacobi_dn(u, k)
            s = k * math.sin(am)
            assert abs(dn * dn + s * s - 1.0) < 1e-10
    rng = np.random.default_rng(20260823)
    for _ in range(500):
        k = rng.uniform(0.0, 1.5)
        if k <= 1.0:
            beta = rng.uniform(-1.5, 1.5)
        else:
            beta = rng.uniform(-1.0, 1.0) * math.asin(1.0 / k)
        assert abs(ellint_F(beta, k) - oracle_F(beta, k)) < 1e-9
        assert abs(jacobi_epsilon(ellint_F(beta, k), k) - oracle_E(beta, k)) < 1e-9


def test_criterion_06_rod_characteristic_roots():
    for chi in (-5.0, -1.25, -0.8, 0.0, 0.5, 1.0, 2.0):
        model = rodlinear.RodModel(B=1.0, l=1.0, k=0.0, chi_hat=chi)
        t0 = time.perf_counter()
        coarse = [m.alpha_l for m in
                  rodlinear.find_critical_loads(model, "compression", step=math.pi / 50)]
        fine = [m.alpha_l for m in
                rodlinear.find_critical_loads(model, "compression", step=math.pi / 100)]
        assert time.perf_counter() - t0 < 1.0
        assert len(coarse) == len(fine)
        assert all(abs(a - b) < 1e-12 for a, b in zip(coarse, fine))
    for chi in (0.5, 1.0, -0.8):
        model = rodlinear.RodModel(B=1.0, l=1.0, k=0.0, chi_hat=chi)
        assert rodlinear.find_critical_loads(model, "tension") == []
    for chi, tension_weaker in ((-5.0, True), (-1.25, False)):
        model = rodlinear.RodModel(B=1.0, l=1.0, k=0.0, chi_hat=chi)
        ft = rodlinear.critical_force(
            rodlinear.find_critical_loads(model, "tension")[0], model)
        fc = rodlinear.critical_force(
            rodlinear.find_critical_loads(model, "compression")[0], model)
        assert ft > 0.0 > fc
        assert (abs(ft) < abs(fc)) == tension_weaker


def test_criterion_07_linear_limit_matches_rod_tables():
    t0 = time.perf_counter()
    for R_c in (0.2, 0.25, 0.8):
        prob = elastica.ElasticaProblem(B=1.0, l=1.0, k_r=0.0, R_c=R_c)
        for half, sign in (("left", "tension"), ("right", "compression")):
            chi = -1.0 / R_c if half == "left" else 1.0 / R_c
            model = rodlinear.RodModel(B=1.0, l=1.0, k=0.0, chi_hat=chi)
            F_lin = rodlinear.critical_force(
                rodlinear.find_critical_loads(model, sign)[0], model)
            st = elastica.solve_R(1e-4, replace(prob, half=half))
            assert abs(st.F - F_lin) / abs(F_lin) < 1e-3
    assert time.perf_counter() - t0 < 10.0


def check_field_equations(st):
    l, B, R = st.problem.l, st.problem.B, st.R
    at2 = abs(R) / B
    sgn = math.copysign(1.0, R)
    k = st.modulus
    # governing equation, central second difference
    h = 1e-4 * l
    for s in np.linspace(0.1 * l, 0.9 * l, 20):
        tm = elastica.theta_at(s - h, st)
        tc = elastica.theta_at(s, st)
        tp = elastica.theta_at(s + h, st)
        res = (tm - 2.0 * tc + tp) / h**2 - (R / B) * math.sin(tc)
        assert abs(res) < 1e-4 * abs(R) / B
    # first integral with a finite-differenced slope
    hd = 1e-6 * l
    for s in np.linspace(0.15 * l, 0.85 * l, 7):
        dth = (elastica.theta_at(s + hd, st) - elastica.theta_at(s - hd, st)) / (2 * hd)
        rhs = 2.0 * at2 * (2.0 / k**2 - 1.0 - sgn * math.cos(elastica.theta_at(s, st)))
        if abs(rhs) < 1e-3 * at2:
            continue  # too close to an inflexion for a relative check
        assert abs(dth * dth - rhs) / abs(rhs) < 1e-6
    # boundary conditions
    assert abs(elastica.theta_at(0.0, st) - st.theta0) < 1e-10
    assert abs(elastica.theta_at(l, st) - st.phi) < 1e-10
    hb = 3e-5 * l
    fd0 = (
        -3.0 * elastica.theta_at(0.0, st)
        + 4.0 * elastica.theta_at(hb, st)
        - elastica.theta_at(2.0 * hb, st)
    ) / (2.0 * hb)
    target = st.theta0 * st.problem.k_r / B
    if target == 0.0:
        assert abs(fd0) < 1e-6 * max(1.0, abs(R))
    else:
        assert abs(fd0 - target) / abs(target) < 1e-6
    # inextensibility of the exported centerline
    shape = np.array(elastica.shape_export(st, 1000))
    seg = np.hypot(np.diff(shape[:, 1]), np.diff(shape[:, 2]))
    assert abs(seg.sum() - l) < 1e-4 * l


def test_criterion_08_elastica_field_equations(roller_traces):
    prob = roller_traces["problem"]
    states = []
    for phi_t in np.linspace(0.25, THREE_QUARTER_PI, 11):
        st = refine_on_trace(
            replace(prob, half="left"), roller_traces["tensile"], lambda p: p.phi, phi_t
        )
        assert st is not None
        states.append(st)
    for phi_t in np.linspace(0.3, 2.2, 5):
        st = refine_on_trace(
            replace(prob, half="right"), roller_traces["compressive"], lambda p: p.phi, phi_t
        )
        assert st is not None
        states.append(st)
    # spring-hinged variant: nonzero end curvature theta0*k_r/B at the pin
    spring = elastica.ElasticaProblem(B=1.0, l=1.0, k_r=0.5, R_c=0.25, half="left")
    spring_trace = elastica.trace_branch(spring, np.linspace(0.01, 0.95, 20))
    assert spring_trace.complete
    for i in (4, 9, 14, 19):
        p = spring_trace.points[i]
        states.append(elastica.solve_R(p.theta0, spring, seed=p.R))
    assert len(states) == 20
    phis = [st.phi for st in states]
    assert min(phis) <= 0.3
    assert max(phis) >= THREE_QUARTER_PI - 1e-9
    for st in states:
        check_field_equations(st)


def test_criterion_09_postcritical_branch_structure(roller_traces):
    prob = roller_traces["problem"]
    for br in ("tensile", "compressive"):
        tr = roller_traces[br]
        assert tr.complete
        F = np.array([p.F for p in tr.points])
        d = np.array([p.delta for p in tr.points])
        order = np.argsort(d)
        assert np.all(np.diff(F[order]) <= 1e-6)  # softening: F non-increasing vs delta
        ev = tr.events["load_sign_transition"]
        assert abs(ev.phi - math.pi / 2) < 1e-9
        assert abs(ev.F) < 1e-12 * np.abs(F).max()
    ft = [p.F for p in roller_traces["tensile"].points]
    fc = [p.F for p in roller_traces["compressive"].points]
    lo = max(min(ft), min(fc))
    hi = min(max(ft), max(fc))
    assert lo < 0.0 < hi  # the branches share loads of both signs
    shifts = []
    for Ft in np.linspace(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), 5):
        st = refine_on_trace(
            replace(prob, half="left"), roller_traces["tensile"], lambda p: p.F, Ft
        )
        sc = refine_on_trace(
            replace(prob, half="right"), roller_traces["compressive"], lambda p: p.F, Ft
        )
        assert st is not None and sc is not None
        shifts.append(st.delta - sc.delta)
    assert max(shifts) - min(shifts) < 1e-6


def test_criterion_10_imperfection_sign_asymmetry():
    profile = onedof.profile_s_shaped(4.0)
    sys_p = onedof.OneDofSystem(k=1.0, l=1.0, phi0=0.01, profile=profile)
    pts = onedof.trace_branch_arc(sys_p, np.linspace(0.02, math.pi - 0.2, 400)).points
    F = np.array([p.F for p in pts])
    ipk = int(np.argmax(F))
    assert 0 < ipk < len(F) - 1  # interior force peak
    assert all(p.stability == "stable" for p in pts[: ipk - 1])
    assert any(p.stability == "unstable" for p in pts[ipk + 2 :])
    sys_m = onedof.OneDofSystem(k=1.0, l=1.0, phi0=-0.01, profile=profile)
    pts = onedof.trace_branch(sys_m, np.linspace(-0.0099, -1e-4, 200)).points
    F = np.array([p.F for p in pts])
    assert np.all(np.diff(F) > 0)  # no peak: the force keeps rising
    assert all(p.stability == "stable" for p in pts)


def test_criterion_11_cli_reproducibility_and_scenario_suite(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["critical-1dof", "--scenario", "fig1", "--out", str(a)]) == 0
    assert cli.main(["critical-1dof", "--scenario", "fig1", "--out", str(b)]) == 0
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and names
    for n in names:
        assert (a / n).read_bytes() == (b / n).read_bytes()
    t0 = time.perf_counter()
    for scen, cmd in (
        ("fig1", "critical-1dof"),
        ("fig2", "trace-1dof"),
        ("neutral", "design-profile"),
        ("fig7", "trace-elastica"),
    ):
        out = tmp_path / scen
        assert cli.main([cmd, "--scenario", scen, "--out", str(out)]) == 0
    assert time.perf_counter() - t0 < 60.0
