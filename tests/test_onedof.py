import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcstab import onedof
from arcstab.errors import DegenerateGeometryError, SingularConfigurationError
from arcstab.onedof import (
    OneDofSystem,
    critical_load,
    critical_loads_s_shaped,
    elongation,
    equilibrium_force,
    profile_circular,
    profile_s_shaped,
    profile_straight,
    stability_of,
    trace_branch,
    trace_branch_arc,
)
from arcstab.profiledesign import neutral_profile

EPS = 2.0**-52


# closed-form oracles for the circular constraint, k = l = 1 unless passed
def force_circle(phi, chi, phi0=0.0, k=1.0, l=1.0):
    S = np.sqrt(1.0 - chi**2 * np.sin(phi) ** 2)
    return -k * (phi - phi0) * S / (l * np.sin(phi) * (chi * np.cos(phi) + S))


def stable_circle(phi, chi, phi0=0.0):
    S = np.sqrt(1.0 - chi**2 * np.sin(phi) ** 2)
    return 1.0 - chi**2 * np.sin(phi) ** 2 - (phi - phi0) * (
        1.0 / np.tan(phi) - chi * np.sin(phi) * S
    )


def energy(phi, F, sys):
    p = sys.profile
    return 0.5 * sys.k * (phi - sys.phi0) ** 2 - F * sys.l * (
        np.cos(phi) - np.cos(sys.phi0) - p.f(np.sin(phi)) + p.f(np.sin(sys.phi0))
    )


def energy_in_pin_angle(t, F, chi, sys):
    # spring energy minus load work with the pin at angle t on a lobe of
    # curvature chi, on either side of its vertical tangent
    phi = np.arcsin(np.sin(t) / abs(chi))
    f0 = sys.profile.f(np.sin(sys.phi0))
    delta = np.cos(phi) - np.cos(sys.phi0) - (1.0 - np.cos(t)) / chi + f0
    return 0.5 * sys.k * (phi - sys.phi0) ** 2 - F * sys.l * delta


def energy_label(t, F, chi, sys, h=1e-4):
    """Stability by a central second difference of the energy in t, or
    None where the difference is too small to tell."""
    e = [energy_in_pin_angle(t + d, F, chi, sys) for d in (-h, 0.0, h)]
    d2 = (e[0] - 2.0 * e[1] + e[2]) / (h * h)
    if abs(d2) <= 1e-5:
        return None
    return "stable" if d2 > 0.0 else "unstable"


def system(profile, k=1.0, l=1.0, phi0=0.0):
    return OneDofSystem(k=k, l=l, phi0=phi0, profile=profile)


# frozen closed-form values (40-digit arithmetic), k = l = 1, phi0 = 0
F_CIRC_4_01 = -0.18753701804557388
F_CIRC_M4_01 = 0.29979503758271423
F_CIRC_M4_015 = 0.25518296643350286
F_CIRC_05_10 = -0.91570598902708041
DELTA_CIRC_4_01 = -0.025794419105445339
ARC_F_03 = 0.3151918806775156        # s-shaped mag 4, tensile lobe, pin angle 0.3
ARC_D_03 = 0.0084330124252063047
ARC_F_20 = -0.097373182367951523     # same lobe past the force-sign transition
ARC_D_20 = 0.32785580776240412


def test_circular_profile_construction():
    for chi in (4.0, -4.0, 0.5, -2.0):
        p = profile_circular(chi)
        assert np.isclose(p.fpp(0.0), chi, rtol=0, atol=1e-12)
        assert p.f(0.0) == 0.0
        assert p.fp(0.0) == 0.0
        assert p.curvature_right_at_0 == chi
        assert p.curvature_left_at_0 == chi


def test_profile_derivatives_consistent_by_finite_differences():
    h = 1e-6
    for chi in (4.0, -4.0, 0.5, -2.0):
        p = profile_circular(chi)
        lim = min(1.0, 1.0 / abs(chi))
        for psi in np.linspace(-0.8 * lim, 0.8 * lim, 11):
            fp_fd = (p.f(psi + h) - p.f(psi - h)) / (2 * h)
            fpp_fd = (p.fp(psi + h) - p.fp(psi - h)) / (2 * h)
            assert abs(fp_fd - p.fp(psi)) < 1e-6
            assert abs(fpp_fd - p.fpp(psi)) < 1e-6 * max(1.0, abs(p.fpp(psi)))
    # construction example: curvature recovered at the origin
    p = profile_circular(-4.0)
    fpp_fd = (p.fp(h) - p.fp(-h)) / (2 * h)
    assert abs(fpp_fd + 4.0) < 1e-6


def test_profile_domain_errors():
    p = profile_circular(4.0)
    with pytest.raises(ValueError):
        p.f(0.3)
    with pytest.raises(ValueError):
        p.fp(-0.26)
    # a lobe flatter than the unit circle, and the straight constraint,
    # which is the lobe of zero curvature, end at |psi| = 1
    for p in (profile_circular(0.5), profile_circular(0.0)):
        with pytest.raises(ValueError):
            p.f(1.01)
        with pytest.raises(ValueError):
            p.fpp(-1.01)


def test_zero_curvature_lobe_is_the_straight_constraint():
    straight = profile_straight()
    for p in (profile_circular(0.0), profile_circular(-0.0), straight):
        assert p.domain == (-1.0, 1.0)
        assert p.curvature_right_at_0 == p.curvature_left_at_0 == 0.0
        for psi in np.linspace(-1.0, 1.0, 41):
            for name in ("f", "fp", "fpp"):
                assert getattr(p, name)(psi) == getattr(straight, name)(psi) == 0.0


@pytest.mark.parametrize("chi", [0.5, -0.5, 4.0, -4.0])
def test_lobe_height_matches_mpmath(chi):
    # (1 - sqrt(1 - chi^2 psi^2))/chi cancelled at small psi: off by 2.9 %
    # at chi = 4, psi = 1e-8, and by 2.8e-10 at psi = 1e-4
    p = profile_circular(chi)
    hi = p.domain[1]
    for psi in np.geomspace(1e-12, hi, 200):
        for x in (float(psi), -float(psi)):
            with mpmath.workdps(40):
                want = float((1 - mpmath.sqrt(1 - (mpmath.mpf(chi) * x) ** 2)) / chi)
            assert abs(p.f(x) - want) <= 2 * EPS * abs(want), (chi, x)


def test_s_shaped_construction():
    p = profile_s_shaped(4.0)
    assert p.curvature_right_at_0 == -4.0
    assert p.curvature_left_at_0 == 4.0
    assert p.f(0.0) == 0.0
    # continuity of f and f' at the curvature jump
    assert abs(p.f(1e-9) - p.f(-1e-9)) < 1e-15
    assert abs(p.fp(1e-9) - p.fp(-1e-9)) < 1e-8
    # opposite-lobe heights mirror each other
    assert np.isclose(p.f(0.2), -p.f(-0.2), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        profile_s_shaped(-1.0)


def test_equilibrium_force_zero_numerator():
    p = profile_s_shaped(4.0)
    assert equilibrium_force(0.2, system(p, phi0=0.2)) == 0.0


def test_equilibrium_force_straight_profile():
    sys = system(profile_straight())
    assert np.isclose(equilibrium_force(0.3, sys), -0.3 / np.sin(0.3), rtol=1e-15)


def test_equilibrium_force_matches_circle_closed_form():
    assert abs(equilibrium_force(0.1, system(profile_circular(4.0))) - F_CIRC_4_01) < 1e-15
    assert abs(equilibrium_force(0.1, system(profile_circular(-4.0))) - F_CIRC_M4_01) < 1e-15
    assert abs(equilibrium_force(0.15, system(profile_circular(-4.0))) - F_CIRC_M4_015) < 1e-15
    assert abs(equilibrium_force(1.0, system(profile_circular(0.5))) - F_CIRC_05_10) < 1e-15


def test_closed_form_agreement_sampled():
    # 500 angles across several curvatures, both signs of phi
    for chi in (4.0, -4.0, 2.0, -2.0, 0.5):
        sys = system(profile_circular(chi))
        lim = np.arcsin(min(1.0, 1.0 / abs(chi))) * 0.999
        for phi in np.linspace(-lim, lim, 101):
            if abs(phi) < 1e-3:
                continue
            assert abs(equilibrium_force(phi, sys) - force_circle(phi, chi)) < 1e-12


def test_critical_load():
    assert np.isclose(critical_load(system(profile_straight())), -1.0, rtol=1e-15)
    assert np.isclose(critical_load(system(profile_circular(-4.0))), 1.0 / 3.0, rtol=1e-15)
    assert np.isclose(critical_load(system(profile_circular(4.0))), -0.2, rtol=1e-15)
    # scaling in k and l
    assert np.isclose(critical_load(system(profile_circular(4.0), k=3.0, l=2.0)), -0.3, rtol=1e-15)
    with pytest.raises(DegenerateGeometryError):
        critical_load(system(profile_circular(-1.0)))
    with pytest.raises(ValueError):
        critical_load(system(profile_straight(), phi0=0.1))


def test_critical_loads_s_shaped():
    Ft, Fc = critical_loads_s_shaped(system(profile_s_shaped(4.0)))
    assert np.isclose(Ft, 1.0 / 3.0, rtol=1e-15)
    assert np.isclose(Fc, -0.2, rtol=1e-15)
    Ft, Fc = critical_loads_s_shaped(system(profile_s_shaped(2.0)))
    assert np.isclose(Ft, 1.0, rtol=1e-15)
    assert np.isclose(Fc, -1.0 / 3.0, rtol=1e-15)
    # flat-constraint limit: both loads collapse onto -k/l
    Ft, Fc = critical_loads_s_shaped(system(profile_s_shaped(1e-8)))
    assert np.isclose(Ft, -1.0, rtol=1e-6)
    assert np.isclose(Fc, -1.0, rtol=1e-6)


def test_stability_trivial_configuration():
    sys = system(profile_straight())
    assert stability_of(0.0, -0.5, sys) == "stable"
    assert stability_of(0.0, 0.5, sys) == "stable"
    assert stability_of(0.0, -1.5, sys) == "unstable"
    assert stability_of(0.0, -1.0 + 1e-12, sys) == "critical"


def test_stability_sign_matches_circle_condition():
    for chi in (4.0, -4.0, 2.0, -2.0, 0.5):
        sys = system(profile_circular(chi))
        lim = np.arcsin(min(1.0, 1.0 / abs(chi))) * 0.999
        for phi in np.linspace(-lim, lim, 101):
            if abs(phi) < 1e-3:
                continue
            cond = stable_circle(phi, chi)
            if abs(cond) < 1e-9:
                continue
            F = equilibrium_force(phi, sys)
            want = "stable" if cond > 0 else "unstable"
            assert stability_of(phi, F, sys) == want


def test_stability_on_branch_example():
    sys = system(profile_circular(-4.0))
    F = equilibrium_force(0.2, sys)
    cond = stable_circle(0.2, -4.0)
    assert (stability_of(0.2, F, sys) == "stable") == (cond > 0)


def test_elongation():
    p = profile_s_shaped(4.0)
    assert elongation(0.2, system(p, phi0=0.2)) == 0.0
    sys = system(profile_straight())
    assert np.isclose(elongation(np.pi / 3, sys), -0.5, rtol=1e-15)
    # geometric reconstruction on the circle
    assert abs(elongation(0.1, system(profile_circular(4.0))) - DELTA_CIRC_4_01) < 1e-15


def test_energy_stationarity_along_branch():
    h = 1e-6
    for chi in (4.0, -4.0, 0.5):
        sys = system(profile_circular(chi))
        lim = np.arcsin(min(1.0, 1.0 / abs(chi))) * 0.95
        tr = trace_branch(sys, np.linspace(0.05, lim, 20))
        for pt in tr.points:
            dw = (energy(pt.phi + h, pt.F, sys) - energy(pt.phi - h, pt.F, sys)) / (2 * h)
            assert abs(dw) < 1e-8 * sys.k


def test_small_angle_limit_recovers_critical_load():
    for chi in (4.0, -4.0, 0.5):
        sys = system(profile_circular(chi))
        Fcr = critical_load(sys)
        gaps = [abs(equilibrium_force(phi, sys) - Fcr) for phi in (1e-2, 1e-3, 1e-4)]
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 10.0 * 1e-4 * abs(Fcr)


def test_singular_configuration_reported():
    sys = system(profile_straight())
    with pytest.raises(SingularConfigurationError) as err:
        equilibrium_force(0.0, sys)
    assert err.value.phi == 0.0
    # a trace stops at the singular point and keeps the points before it
    tr = trace_branch(sys, [0.1, 0.0, -0.1])
    assert len(tr.points) == 1
    assert not tr.complete
    assert "phi=0.0" in tr.diagnostic
    # on the unit circle the load path goes vertical past t = pi/2
    tr = trace_branch_arc(system(profile_circular(1.0)), [0.3, 2.0, 2.5])
    assert len(tr.points) == 1
    assert not tr.complete
    assert "pin angle 2.0" in tr.diagnostic


def test_arc_trace_stops_at_pole_without_raising():
    # on the unit circle the load path is singular everywhere past t = pi/2;
    # the trace keeps the points before it, none of them rounding noise
    ts = np.linspace(0.02, np.pi - 0.02, 200)
    tr = trace_branch_arc(system(profile_circular(1.0)), ts)
    assert len(tr.points) == 100
    assert not tr.complete
    assert "load_sign_transition" not in tr.events
    assert all(abs(p.F) < 1.0 for p in tr.points)


@pytest.mark.parametrize("chi", [-4.0, 2.5])
def test_arc_trace_evaluates_no_pin_angle_twice(monkeypatch, chi):
    # the force zero is refined from the trace points' own forces and comes
    # back as its point: no force is evaluated again at a bracket end, and
    # the event point is not rebuilt
    forces = []
    force = onedof._force

    def recording(phi, fp, sys):
        forces.append((phi, fp))
        return force(phi, fp, sys)

    monkeypatch.setattr(onedof, "_force", recording)
    tr = trace_branch_arc(system(profile_circular(chi)), np.linspace(0.02, np.pi - 0.02, 200))
    assert abs(tr.events["load_sign_transition"].F) < 1e-12
    assert len(forces) > len(tr.points)
    assert len(forces) == len(set(forces))


def test_arc_trace_rejects_unreachable_pin_angle():
    # on a lobe flatter than the unit circle the bar reaches t <= asin|chi|
    sys = system(profile_circular(0.5))
    assert len(trace_branch_arc(sys, [np.arcsin(0.5) - 1e-3]).points) == 1
    with pytest.raises(ValueError, match="leaves the reachable arc"):
        trace_branch_arc(sys, [1.0])


def test_arc_trace_refuses_the_straight_constraint():
    # the zero-curvature lobe has no pin angle to trace by
    for profile in (profile_straight(), profile_circular(0.0)):
        for ts in ([0.1, 0.2], [2.0]):
            with pytest.raises(ValueError, match="curved constraint"):
                trace_branch_arc(system(profile), ts)


def test_arc_trace_refuses_a_profile_that_is_not_its_lobe():
    # the arc trace took any profile as the circle of its curvature at 0: on
    # the constant-force profile of beta = -2 (curvature -0.5 at 0) it gave
    # F = -1.98, -1.93, -1.85 where the force is -2 everywhere
    sys = system(neutral_profile(-2.0))
    with pytest.raises(ValueError, match="circular lobes"):
        trace_branch_arc(sys, [0.1, 0.2, 0.3])
    # circles and S-shaped profiles still trace, also from a grid that
    # starts next to the vertical tangent, as an S-shaped compressive lobe does
    for profile in (profile_circular(-4.0), profile_circular(0.5), profile_s_shaped(4.0)):
        lim = np.pi if abs(profile.curvature_right_at_0) > 1.0 else np.arcsin(0.5)
        for ts in (np.linspace(0.02, lim - 0.02, 40), np.linspace(-lim + 1e-3, -0.02, 40)):
            assert len(trace_branch_arc(system(profile), ts).points) == 40


def test_trace_branch_points_consistent():
    sys = system(profile_circular(-4.0))
    grid = np.linspace(0.02, 0.24, 12)
    tr = trace_branch(sys, grid)
    assert len(tr.points) == len(grid)
    for phi, pt in zip(grid, tr.points):
        assert pt.phi == phi
        assert pt.F == equilibrium_force(phi, sys)
        assert pt.delta == elongation(phi, sys)
        assert pt.stability == stability_of(phi, pt.F, sys)


def test_trace_branch_straight_limit():
    tr = trace_branch(system(profile_straight()), [1e-6])
    assert np.isclose(tr.points[0].F, -1.0, rtol=0, atol=1e-9)


@pytest.mark.parametrize("phi0", [0.0, 0.01, -0.01])
@pytest.mark.parametrize("chi", [4.0, -4.0, 1.5, 0.5])
def test_arc_trace_elongation_matches_mpmath(chi, phi0):
    # delta on the CLI's pin-angle grid of trace-1dof --profile circular.
    # The lobe height (1 - cos t)/chi and cos phi - cos phi0 cancelled at
    # small t: at t = 0.02 on the chi = -4 lobe, delta was
    # 3.749992182816575e-05 against 3.749992182819036e-05, and up to 2,960
    # eps relative over these grids
    sys = system(profile_circular(chi), phi0=phi0)
    t_stop = (np.pi if abs(chi) > 1.0 else np.arcsin(abs(chi))) - 0.02
    grid = np.linspace(0.02, t_stop, 200)
    tr = trace_branch_arc(sys, grid)
    assert len(tr.points) == len(grid)
    for t, pt in zip(grid, tr.points):
        with mpmath.workdps(40):
            t, c, p0 = mpmath.mpf(float(t)), mpmath.mpf(chi), mpmath.mpf(phi0)
            phi = mpmath.asin(mpmath.sin(t) / abs(c))
            f0 = (1 - mpmath.sqrt(1 - (c * mpmath.sin(p0)) ** 2)) / c
            want = float(mpmath.cos(phi) - mpmath.cos(p0) - (1 - mpmath.cos(t)) / c + f0)
        assert abs(pt.delta - want) <= 4 * EPS * abs(want), (chi, phi0, float(t))


def test_arc_trace_frozen_values():
    sys = system(profile_s_shaped(4.0))
    tr = trace_branch_arc(sys, [0.3, 2.0])
    assert abs(tr.points[0].F - ARC_F_03) < 1e-15
    assert abs(tr.points[0].delta - ARC_D_03) < 1e-15
    assert abs(tr.points[1].F - ARC_F_20) < 1e-15
    assert abs(tr.points[1].delta - ARC_D_20) < 1e-15


def test_arc_trace_agrees_with_phi_trace_before_transition():
    sys = system(profile_s_shaped(4.0))
    ts = np.linspace(0.05, 1.4, 25)
    tr = trace_branch_arc(sys, ts)
    for t, pt in zip(ts, tr.points):
        phi = np.arcsin(np.sin(t) / 4.0)
        assert abs(pt.phi - phi) < 1e-15
        assert abs(pt.F - equilibrium_force(phi, sys)) < 1e-13
        assert abs(pt.delta - elongation(phi, sys)) < 1e-15
        assert pt.stability == stability_of(phi, pt.F, sys)


def test_load_sign_transition_on_sharp_circles():
    # |curvature| > 1: force vanishes where the constraint tangent goes
    # vertical and changes sign across that pin position
    for mag in (4.0, 2.0, 1.25):
        sys = system(profile_s_shaped(mag))
        tr = trace_branch_arc(sys, [np.pi / 2 - 0.1, np.pi / 2, np.pi / 2 + 0.1])
        a, mid, b = [pt.F for pt in tr.points]
        assert abs(mid) < 1e-12
        assert a > 0 > b
        ev = tr.events["load_sign_transition"]
        assert abs(ev.F) < 1e-12
        assert abs(ev.phi - np.arcsin(1.0 / mag)) < 1e-9


@pytest.mark.parametrize("chi", [2.0, -2.0])
@pytest.mark.parametrize("phi0", [0.01, -0.01])
def test_load_sign_event_skips_the_pole_at_the_lobe_joint(chi, phi0):
    # across t = 0 the force changes sign through the pole of the joint
    # (|F| grew to 2e12 and 5e12 there), and again through a zero at
    # phi = phi0; the event is the zero, wherever the two fall on the grid
    tr = trace_branch_arc(system(profile_circular(chi), phi0=phi0), np.linspace(-1.0, 1.0, 200))
    assert tr.complete
    ev = tr.events["load_sign_transition"]
    assert abs(ev.phi - phi0) < 1e-15
    assert abs(ev.F) < 1e-15


def test_no_load_sign_transition_on_shallow_circle():
    # |curvature| < 1: the pin reaches the bar-horizontal position first,
    # the force keeps its sign on the whole branch
    sys = system(profile_circular(0.5))
    Fs = [equilibrium_force(phi, sys) for phi in np.linspace(0.01, np.pi / 2, 200)]
    assert all(F < 0 for F in Fs)


def test_tensile_branch_decreases_from_bifurcation():
    sys = system(profile_s_shaped(4.0))
    ts = np.linspace(1e-3, np.pi / 2, 100)
    tr = trace_branch_arc(sys, ts)
    Fs = np.array([pt.F for pt in tr.points])
    assert abs(Fs[0] - 1.0 / 3.0) < 1e-4
    assert np.all(np.diff(Fs) < 0)
    assert Fs[-1] < 1e-12


def test_branch_shift_property():
    # tensile and compressive paths of the s-shaped system coincide in the
    # force-displacement plane after one horizontal shift
    sys = system(profile_s_shaped(4.0))
    ts = np.linspace(0.05, np.pi - 0.05, 60)
    tens = trace_branch_arc(sys, ts)
    comp = trace_branch_arc(sys, -(np.pi - ts))
    shifts = [a.delta - b.delta for a, b in zip(tens.points, comp.points)]
    shift = np.mean(shifts)
    assert np.isclose(shift, 0.5, rtol=0, atol=1e-12)  # 2 l / |curvature|
    for a, b in zip(tens.points, comp.points):
        assert abs(a.F - b.F) < 1e-9
        assert abs(a.delta - b.delta - shift) < 1e-9


def test_arc_stability_consistent_with_angle_form():
    # both sides of the fold, against the energy in the pin angle
    sys = system(profile_s_shaped(4.0))
    ts = np.linspace(0.05, np.pi - 0.05, 60)
    tr = trace_branch_arc(sys, ts)
    assert len(tr.points) == len(ts)
    checked = 0
    for t, pt in zip(ts, tr.points):
        want = energy_label(t, pt.F, -4.0, sys)
        if want is not None:
            assert pt.stability == want
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("chi", [1.25, -1.25, 2.0, -2.0, 4.0, -4.0])
@pytest.mark.parametrize("phi0", [0.0, 0.01, -0.01])
def test_arc_trace_past_vertical_tangent_matches_pin_angle_forms(chi, phi0):
    # on the lobe's far branch (cos t < 0): force by virtual work in t and
    # stability by the energy's second difference in t
    sys = system(profile_circular(chi), phi0=phi0)
    ts = np.linspace(np.pi / 2 + 0.02, np.pi - 0.02, 40)
    tr = trace_branch_arc(sys, ts)
    assert tr.complete and len(tr.points) == len(ts)
    sg = np.sign(chi)
    labelled = 0
    for t, pt in zip(ts, tr.points):
        assert np.cos(t) < 0.0
        phi = pt.phi
        want = (phi - phi0) * np.cos(t) / -(np.sin(phi) * np.cos(t) + sg * np.sin(t) * np.cos(phi))
        assert abs(pt.F - want) <= 1e-12 * max(1.0, abs(want))
        label = energy_label(t, pt.F, chi, sys)
        if label is not None:
            assert pt.stability == label
            labelled += 1
    assert labelled > 30


def test_imperfection_sign_asymmetry():
    # positive imperfection: load peak, then loss of stability
    sys = system(profile_s_shaped(4.0), phi0=0.01)
    ts = np.linspace(0.02, np.pi - 0.2, 400)
    tr = trace_branch_arc(sys, ts)
    Fs = np.array([pt.F for pt in tr.points])
    ipk = int(np.argmax(Fs))
    assert 0 < ipk < len(Fs) - 1
    assert Fs[ipk] < 1.0 / 3.0
    assert all(pt.stability == "stable" for pt in tr.points[: ipk - 1])
    # instability sets in past the peak and lasts through the whole
    # tensile stretch of the path
    after = tr.points[ipk + 2 :]
    assert all(pt.stability == "unstable" for pt in after if pt.F > 0)
    assert any(pt.stability == "unstable" for pt in after)
    # negative imperfection: monotone rise, metastable all the way
    sys = system(profile_s_shaped(4.0), phi0=-0.01)
    phis = np.linspace(-0.0099, -1e-4, 200)
    tr = trace_branch(sys, phis)
    Fs = np.array([pt.F for pt in tr.points])
    assert np.all(Fs > 0)
    assert np.all(np.diff(Fs) > 0)
    assert all(pt.stability == "stable" for pt in tr.points)


def test_system_validation():
    with pytest.raises(ValueError):
        OneDofSystem(k=-1.0, l=1.0, phi0=0.0, profile=profile_straight())
    with pytest.raises(ValueError):
        OneDofSystem(k=1.0, l=0.0, phi0=0.0, profile=profile_straight())
    with pytest.raises(ValueError):
        OneDofSystem(k=1.0, l=1.0, phi0=2.0, profile=profile_straight())


@pytest.mark.parametrize("field", ["k", "l"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_system_rejects_non_finite_parameters(field, value):
    # k = inf gave a critical load of -inf
    params = dict(k=1.0, l=1.0, phi0=0.0, profile=profile_straight())
    params[field] = value
    with pytest.raises(ValueError, match="%s must be positive and finite" % field):
        OneDofSystem(**params)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    chi=st.floats(min_value=-4.5, max_value=4.5).filter(
        lambda c: abs(c) > 0.05 and abs(abs(c) - 1.0) > 1e-3
    ),
    frac=st.floats(min_value=0.05, max_value=0.95),
)
def test_equilibria_make_energy_stationary(chi, frac):
    sys = system(profile_circular(chi))
    phi = frac * np.arcsin(min(1.0, 1.0 / abs(chi))) * 0.999
    F = equilibrium_force(phi, sys)
    h = 1e-6
    dw = (energy(phi + h, F, sys) - energy(phi - h, F, sys)) / (2 * h)
    assert abs(dw) < 1e-8 * sys.k
