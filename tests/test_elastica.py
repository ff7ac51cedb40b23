import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from arcstab import cli, elastica, elliptic
from arcstab.branch import BranchTrace
from arcstab.elastica import (
    ElasticaProblem,
    ElasticaState,
    MultipleRootWarning,
    PostcriticalPoint,
    compatibility_residual,
    coordinates_at,
    make_state,
    modulus_from,
    refine_on_trace,
    shape_export,
    solve_R,
    theta_at,
    trace_branch,
)
from arcstab.errors import ContinuationError, DegenerateGeometryError
from arcstab.rodlinear import RodModel, critical_force, find_critical_loads

# Frozen reference states, B = l = 1.  Obtained by direct high-precision
# integration of theta'' = R sin(theta), theta(0) = theta0,
# theta'(0) = theta0*k_r, together with x1' = cos(theta), x2' = sin(theta);
# values stable to better than 1e-30 under precision doubling.
# key (theta0, R, k_r) -> (theta(l/2), theta(l), x1(l), x2(l))
EVAL_STATES = {
    (0.8, 1.3, 0.0): (
        0.9187314497199579, 1.2985633821026036,
        0.5659309264124333, 0.8112894696392232,
    ),
    (0.8, -1.3, 0.0): (
        0.6856631564094444, 0.3706703040852442,
        0.7881533429252395, 0.6017641175037958,
    ),
    (0.9, 1.0, 3.0): (
        2.3654517789645204, 3.9718331199119276,
        -0.4662798241260271, 0.4436629148777443,
    ),
    (0.6, 1.1, 0.7): (
        0.8966749612457645, 1.4082745211948672,
        0.5804014091998336, 0.7810232756911796,
    ),
}

# Solved equilibria on the R_c = l/4 circle with roller ends, theta0 = 1/2,
# same integration route plus a 30-digit root solve of the compatibility
# condition: (R, F, phi, delta)
SOLVED_TENSILE = (
    0.9942949249772154, 0.7236709022676214,
    0.7556540299217027, 0.0503485891628836,
)
SOLVED_COMPRESSIVE = (
    -0.5895887109715406, -0.5508029378386857,
    0.3647427845911475, -0.0212570219159560,
)

SCHEDULE = np.geomspace(1e-4, 2.8, 100)


def linearized_load(Rc, load_sign):
    # first critical load of the matching sliding-rod model, B = l = 1
    chi = -1.0 / Rc if load_sign == "tension" else 1.0 / Rc
    model = RodModel(B=1.0, l=1.0, k=0.0, chi_hat=chi)
    return critical_force(find_critical_loads(model, load_sign)[0], model)


def tensile_problem(Rc=0.25, k_r=0.0, B=1.0, l=1.0):
    return ElasticaProblem(B=B, l=l, k_r=k_r, R_c=Rc, half="left")


def compressive_problem(Rc=0.25, k_r=0.0, B=1.0, l=1.0):
    return ElasticaProblem(B=B, l=l, k_r=k_r, R_c=Rc, half="right")


@pytest.fixture(scope="module")
def traced_tensile():
    return trace_branch(tensile_problem(), SCHEDULE, "tensile")


@pytest.fixture(scope="module")
def traced_compressive():
    return trace_branch(compressive_problem(), SCHEDULE, "compressive")


def solve_at_phi(problem, trace, phi_target):
    # bracket by consecutive trace points, then root in theta0 with warm seeds
    for a, b in zip(trace.points, trace.points[1:]):
        if (a.phi - phi_target) * (b.phi - phi_target) <= 0.0:
            def g(th0):
                w = (th0 - a.theta0) / (b.theta0 - a.theta0)
                return solve_R(th0, problem, seed=a.R + w * (b.R - a.R)).phi - phi_target
            th0 = brentq(g, a.theta0, b.theta0, xtol=1e-13)
            w = (th0 - a.theta0) / (b.theta0 - a.theta0)
            return solve_R(th0, problem, seed=a.R + w * (b.R - a.R))
    raise AssertionError("phi target not bracketed by the trace")


def solve_at_force(problem, trace, F_target):
    for a, b in zip(trace.points, trace.points[1:]):
        if (a.F - F_target) * (b.F - F_target) <= 0.0:
            def g(th0):
                w = (th0 - a.theta0) / (b.theta0 - a.theta0)
                return solve_R(th0, problem, seed=a.R + w * (b.R - a.R)).F - F_target
            th0 = brentq(g, a.theta0, b.theta0, xtol=1e-13)
            w = (th0 - a.theta0) / (b.theta0 - a.theta0)
            return solve_R(th0, problem, seed=a.R + w * (b.R - a.R))
    raise AssertionError("force target not bracketed by the trace")


def test_problem_validation():
    with pytest.raises(ValueError):
        ElasticaProblem(B=0.0, l=1.0, R_c=0.25)
    with pytest.raises(ValueError):
        ElasticaProblem(B=1.0, l=-1.0, R_c=0.25)
    with pytest.raises(ValueError):
        ElasticaProblem(B=1.0, l=1.0, R_c=0.0)
    with pytest.raises(ValueError):
        ElasticaProblem(B=1.0, l=1.0, R_c=0.25, k_r=-0.1)
    with pytest.raises(ValueError):
        ElasticaProblem(B=1.0, l=1.0, R_c=0.25, k_r=math.nan)
    with pytest.raises(ValueError):
        ElasticaProblem(B=1.0, l=1.0, R_c=0.25, half="top")


def test_modulus_small_rotation_limit():
    # roller, R > 0: k = 1/cos(theta0/2) -> 1
    assert modulus_from(1e-8, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert modulus_from(0.01, 2.7) == pytest.approx(1.0 / math.cos(0.005), rel=1e-14)


def test_modulus_right_angle_value():
    # roller, R > 0, theta0 = pi/2: k^2 = 2
    k = modulus_from(math.pi / 2, 3.0)
    assert k * k == pytest.approx(2.0, rel=1e-14)


def test_modulus_spring_direct_formula():
    # independent arithmetic, k_r = B = 1, theta0 = 0.3, R = 2
    at2 = 2.0
    den = (0.3 * 1.0) ** 2 + 2.0 * at2 * (math.cos(0.3) + 1.0)
    expected = math.sqrt(4.0 * at2 / den)
    assert modulus_from(0.3, 2.0, k_r=1.0, B=1.0) == pytest.approx(expected, rel=1e-12)


def test_modulus_raw_formula_consistency():
    for th0 in (0.2, 0.9, 1.7, 2.6):
        for R in (1.4, -1.4, 0.3, -0.3):
            for kr in (0.0, 0.8):
                at2 = abs(R)
                den = (th0 * kr) ** 2 + 2.0 * at2 * (math.copysign(1.0, R) * math.cos(th0) + 1.0)
                expected = math.sqrt(4.0 * at2 / den)
                assert modulus_from(th0, R, k_r=kr) == pytest.approx(expected, rel=1e-12)


def test_modulus_zero_reaction_degenerate():
    with pytest.raises(DegenerateGeometryError):
        modulus_from(0.3, 0.0)


def test_modulus_reciprocal_regime_is_legal():
    # roller states sit at or above modulus one
    k = modulus_from(0.8, 1.3)
    assert k == pytest.approx(1.0 / math.cos(0.4), rel=1e-14)
    assert k > 1.0
    # folded tensile limit keeps a finite, huge modulus
    assert modulus_from(math.pi, 1.0) > 1e12


def test_state_field_consistency():
    pr = tensile_problem()
    st = make_state(0.8, 1.3, pr)
    assert st.alpha_tilde == pytest.approx(math.sqrt(1.3), rel=1e-15)
    assert st.modulus == pytest.approx(modulus_from(0.8, 1.3), rel=1e-15)
    assert st.beta0 == pytest.approx((0.8 - math.pi) / 2.0, rel=1e-15)
    assert st.phi == theta_at(1.0, st)
    assert st.F == pytest.approx(st.R * math.cos(st.phi), rel=1e-15)
    with pytest.raises(ValueError):
        make_state(-0.1, 1.3, pr)


@pytest.mark.parametrize("key", sorted(EVAL_STATES))
def test_rotation_field_against_integration(key):
    th0, R, kr = key
    st = make_state(th0, R, ElasticaProblem(B=1.0, l=1.0, k_r=kr, R_c=0.25, half="left"))
    th_half, phi, _, _ = EVAL_STATES[key]
    assert abs(theta_at(0.0, st) - th0) < 1e-10
    assert abs(theta_at(0.5, st) - th_half) < 2e-11
    assert abs(theta_at(1.0, st) - phi) < 2e-11
    assert st.phi == theta_at(1.0, st)


@pytest.mark.parametrize("key", sorted(EVAL_STATES))
def test_coordinates_against_integration(key):
    th0, R, kr = key
    st = make_state(th0, R, ElasticaProblem(B=1.0, l=1.0, k_r=kr, R_c=0.25, half="left"))
    _, _, x1_ref, x2_ref = EVAL_STATES[key]
    assert coordinates_at(0.0, st) == (0.0, 0.0)
    x1, x2 = coordinates_at(1.0, st)
    assert abs(x1 - x1_ref) < 2e-11
    assert abs(x2 - x2_ref) < 2e-11


def test_initial_slope_matches_spring_moment():
    # dtheta/ds at s = 0 equals theta0*k_r/B; zero slope for the roller
    h = 1e-5
    for (th0, R, kr), _ in EVAL_STATES.items():
        st = make_state(th0, R, ElasticaProblem(B=1.0, l=1.0, k_r=kr, R_c=0.25, half="left"))
        slope = (-3.0 * theta_at(0.0, st) + 4.0 * theta_at(h, st) - theta_at(2 * h, st)) / (2 * h)
        if kr == 0.0:
            assert abs(slope) < 1e-6
        else:
            assert slope == pytest.approx(th0 * kr, rel=1e-6)


def test_first_integral_along_rod():
    h = 1e-5
    for (th0, R, kr), _ in EVAL_STATES.items():
        st = make_state(th0, R, ElasticaProblem(B=1.0, l=1.0, k_r=kr, R_c=0.25, half="left"))
        a2 = st.alpha_tilde**2
        k2 = st.modulus**2
        sgn = math.copysign(1.0, R)
        for s in (1.0 / 3.0, 0.5, 2.0 / 3.0):
            dth = (theta_at(s + h, st) - theta_at(s - h, st)) / (2 * h)
            rhs = 2.0 * a2 * (2.0 / k2 - 1.0 - sgn * math.cos(theta_at(s, st)))
            assert dth * dth == pytest.approx(rhs, rel=1e-8, abs=1e-10)
        # denser sweep at the looser contract tolerance
        for s in np.linspace(0.05, 0.95, 19):
            dth = (theta_at(s + h, st) - theta_at(s - h, st)) / (2 * h)
            rhs = 2.0 * a2 * (2.0 / k2 - 1.0 - sgn * math.cos(theta_at(s, st)))
            assert dth * dth == pytest.approx(rhs, rel=1e-6, abs=1e-8)


def test_rod_equation_residual():
    # central second difference against (R/B) sin theta
    h = 1e-4
    for (th0, R, kr), _ in EVAL_STATES.items():
        st = make_state(th0, R, ElasticaProblem(B=1.0, l=1.0, k_r=kr, R_c=0.25, half="left"))
        for s in np.linspace(0.05, 0.95, 20):
            d2 = (theta_at(s + h, st) - 2.0 * theta_at(s, st) + theta_at(s - h, st)) / h**2
            assert abs(d2 - R * math.sin(theta_at(s, st))) < 1e-4 * abs(R)


def test_coordinate_derivatives_are_rod_tangent():
    h = 1e-6
    for (th0, R, kr), _ in EVAL_STATES.items():
        st = make_state(th0, R, ElasticaProblem(B=1.0, l=1.0, k_r=kr, R_c=0.25, half="left"))
        x1p, x2p = coordinates_at(0.5 + h, st)
        x1m, x2m = coordinates_at(0.5 - h, st)
        th = theta_at(0.5, st)
        assert (x1p - x1m) / (2 * h) == pytest.approx(math.cos(th), abs=1e-6)
        assert (x2p - x2m) / (2 * h) == pytest.approx(math.sin(th), abs=1e-6)


def test_straight_limit_recovers_undeformed_rod():
    for R in (1.0, -1.0):
        st = make_state(1e-8, R, tensile_problem())
        x1, x2 = coordinates_at(1.0, st)
        assert abs(x1 - 1.0) < 1e-6
        assert abs(x2) < 1e-6


def test_residual_vanishes_at_solved_root():
    for pr, ref in ((tensile_problem(), SOLVED_TENSILE),
                    (compressive_problem(), SOLVED_COMPRESSIVE)):
        st = solve_R(0.5, pr)
        assert abs(compatibility_residual(st.R, 0.5, pr)) < 1e-10


def test_residual_order_in_small_rotation():
    # at the linearized critical load the residual decays at least
    # quadratically in theta0 (measured decay is cubic)
    pr = compressive_problem()
    R_lin = linearized_load(0.25, "compression")
    res = [compatibility_residual(R_lin, th0, pr) for th0 in (1e-3, 1e-4, 1e-5)]
    assert abs(res[1]) < 2e-2 * abs(res[0])
    assert abs(res[2]) < 2e-2 * abs(res[1])
    pr = tensile_problem()
    R_lin = linearized_load(0.25, "tension")
    res = [compatibility_residual(R_lin, th0, pr) for th0 in (1e-2, 1e-3)]
    assert abs(res[1]) < 2e-2 * abs(res[0])


def test_residual_sign_flip_across_root():
    pr = tensile_problem()
    st = solve_R(0.5, pr)
    assert compatibility_residual(0.9 * st.R, 0.5, pr) * compatibility_residual(1.1 * st.R, 0.5, pr) < 0.0


@pytest.fixture
def ellipj_calls(monkeypatch):
    # arguments of every call of the sn/cn/dn kernel the elliptic layer makes
    calls = []
    ellipj = elliptic._ellipj_reduced

    def counting(*args):
        calls.append(args)
        return ellipj(*args)

    monkeypatch.setattr(elliptic, "_ellipj_reduced", counting)
    return calls


@pytest.mark.parametrize("k_r, R, calls", [(0.0, 1.3, 1), (5.0, 0.5, 1)])
def test_residual_makes_one_jacobi_evaluation_per_rod_point(ellipj_calls, k_r, R, calls):
    # only the clamp needs Jacobi functions: k > 1 adds the pin's, known in
    # closed form, through the addition theorems, and k < 1 takes the pin's
    # F, E and dn from one Carlson loop and the closed-form complement
    assert (modulus_from(0.8, R, k_r) > 1.0) == (k_r == 0.0)
    compatibility_residual(R, 0.8, tensile_problem(k_r=k_r))
    assert len(ellipj_calls) == calls


def test_shape_export_one_jacobi_evaluation_per_sample(ellipj_calls):
    st = make_state(0.8, 1.3, tensile_problem())
    ellipj_calls.clear()
    shape_export(st, 9)
    assert len(ellipj_calls) == 9


@pytest.fixture
def carlson_calls(monkeypatch):
    # arguments of every call of the Carlson duplication loop
    calls = []
    rf_rd = elliptic._rf_rd

    def counting(*args):
        calls.append(args)
        return rf_rd(*args)

    monkeypatch.setattr(elliptic, "_rf_rd", counting)
    return calls


@pytest.mark.parametrize("k_r, R", [(0.0, 1.3), (0.0, -1.3), (0.7, 1.1), (1.0, -1.0)])
def test_no_carlson_integral_where_modulus_above_one(carlson_calls, k_r, R):
    # the addition theorems take the pin's Jacobi functions in closed form,
    # so neither a residual nor a shape export needs F or E at the pin
    assert modulus_from(0.8, R, k_r) > 1.0
    problem = tensile_problem(k_r=k_r)
    compatibility_residual(R, 0.8, problem)
    shape_export(make_state(0.8, R, problem), 9)
    assert carlson_calls == []


def test_carlson_integral_at_the_pin_where_modulus_below_one(carlson_calls):
    assert modulus_from(0.8, 0.5, 5.0) < 1.0
    compatibility_residual(0.5, 0.8, tensile_problem(k_r=5.0))
    assert len(carlson_calls) == 1


@pytest.fixture
def states_built(monkeypatch):
    # one entry per ElasticaState the elastica module constructs
    built = []
    state = elastica.ElasticaState

    def counting(*args, **kwargs):
        built.append(args)
        return state(*args, **kwargs)

    monkeypatch.setattr(elastica, "ElasticaState", counting)
    return built


@pytest.mark.parametrize("problem", [tensile_problem(), compressive_problem(k_r=0.5)])
def test_one_state_per_solve(states_built, problem):
    # residuals build no state; a cold and a warm solve build one, of the root
    compatibility_residual(1.3, 0.8, problem)
    assert states_built == []
    cold = solve_R(0.5, problem)
    assert len(states_built) == 1
    warm = solve_R(0.55, problem, seed=cold.R)
    assert len(states_built) == 2
    assert isinstance(cold, ElasticaState) and isinstance(warm, ElasticaState)


@pytest.mark.parametrize("half", ["left", "right"])
@pytest.mark.parametrize("key", sorted(EVAL_STATES))
def test_residual_is_closure_defect_of_state(half, key):
    # the residual reuses the end point of make_state; both routes agree exactly
    th0, R, k_r = key
    pr = ElasticaProblem(B=1.0, l=1.0, k_r=k_r, R_c=0.25, half=half)
    st = make_state(th0, R, pr)
    x1, x2 = coordinates_at(pr.l, st)
    c = 0.25 if half == "left" else -0.25
    defect = (x1 - c) * math.sin(st.phi) - x2 * math.cos(st.phi)
    assert compatibility_residual(R, th0, pr) == defect


def test_solved_tensile_state_frozen():
    st = solve_R(0.5, tensile_problem())
    R, F, phi, delta = SOLVED_TENSILE
    assert st.R == pytest.approx(R, rel=1e-6)
    assert st.F == pytest.approx(F, rel=1e-6)
    assert st.phi == pytest.approx(phi, rel=1e-6)
    assert st.delta == pytest.approx(delta, abs=1e-6)


def test_solved_compressive_state_frozen():
    st = solve_R(0.5, compressive_problem())
    R, F, phi, delta = SOLVED_COMPRESSIVE
    assert st.R == pytest.approx(R, rel=1e-8)
    assert st.F == pytest.approx(F, rel=1e-8)
    assert st.phi == pytest.approx(phi, rel=1e-8)
    assert st.delta == pytest.approx(delta, abs=1e-8)


@pytest.mark.parametrize("Rc", [0.2, 0.25, 0.8])
def test_small_rotation_matches_linearized_loads(Rc):
    st = solve_R(1e-4, tensile_problem(Rc))
    assert st.F == pytest.approx(linearized_load(Rc, "tension"), rel=1e-3)
    st = solve_R(1e-4, compressive_problem(Rc))
    assert st.F == pytest.approx(linearized_load(Rc, "compression"), rel=1e-3)


def integrated_clamp(theta0, R, k_r=0.0):
    # (theta(l), x1(l), x2(l)) by DOP853 from the pin, B = l = 1
    sol = solve_ivp(lambda s, y: [y[1], R * math.sin(y[0]), math.cos(y[0]), math.sin(y[0])],
                    (0.0, 1.0), [theta0, theta0 * k_r, 0.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-15 * theta0)
    th, _, x1, x2 = sol.y[:, -1]
    return th, x1, x2


def assert_integrated_equilibrium(theta0, R, phi, Rc=0.25):
    # the integrated clamp angle is phi, and the clamp sits on the
    # horizontal through the circle center
    th, x1, x2 = integrated_clamp(theta0, R)
    assert abs(th - phi) <= 1e-10, (theta0, R)
    assert abs((x1 - Rc) * math.sin(phi) - x2 * math.cos(phi)) <= 1e-10, (theta0, R)


@pytest.mark.parametrize("theta0", [1e-5, 1e-6])
def test_cold_solve_at_tiny_rotation_keeps_first_mode(theta0):
    # 1 - 1/k^2 = sin^2(theta0/2) is below 3e-11 here; formed as 1 - m1 it
    # lost its digits and the cold solve landed at R = 1.0969 (theta(l) - phi
    # off by 9.6e-8 at theta0 = 1e-5).  R tends to the linearized load as
    # theta0^2
    st = solve_R(theta0, tensile_problem())
    assert abs(st.R / linearized_load(0.25, "tension") - 1.0) < 1e-8
    assert_integrated_equilibrium(theta0, st.R, st.phi)


# Tensile roots on the R_c = l/4 circle with roller ends, B = l = 1, from a
# 40-digit solve of the compatibility condition on the integrated rod:
# theta0 -> (R, bound).  The bounds are the errors of the earlier form,
# which took F and E at the pin from Carlson integrals; k - 1 ~ theta0^2/8
# here, and the residual's slope in R falls like theta0
TINY_TENSILE_ROOTS = {
    1e-6: (1.0692009832004969, 8e-10),
    1e-5: (1.0692009831661602, 5e-11),
    1e-4: (1.0692009797324804, 1.2e-11),
    1e-3: (1.0692006363647386, 1e-12),
}


@pytest.mark.parametrize("theta0", sorted(TINY_TENSILE_ROOTS))
def test_cold_solve_at_tiny_rotation_against_reference(theta0):
    R, bound = TINY_TENSILE_ROOTS[theta0]
    assert abs(solve_R(theta0, tensile_problem()).R - R) <= bound


def test_spring_tensile_solve_just_below_modulus_one():
    # k = 1 - 9.2e-11: 1 - k^2 formed from k kept 6 digits and put R 4e-9
    # off; in closed form the solve is good to about 1e-11.  Reference: a
    # 40-digit root on the integrated rod
    problem = tensile_problem(Rc=0.333, k_r=0.894)
    st = solve_R(1e-4, problem)
    assert -1e-10 < st.modulus - 1.0 < 0.0
    assert abs(st.R - 0.74465226497386224) < 1e-10


def test_residual_where_spring_puts_modulus_next_to_one():
    # k = 1 + 2.2e-16, while the closed form of 1 - 1/k^2 rounds to -1.1e-16:
    # the Jacobi complement then comes from k, and the residual is the
    # closure defect of the integrated rod
    th0, k_r, R = 1.54, 1.98, 4.796501602842921
    assert modulus_from(th0, R, k_r) > 1.0
    res = compatibility_residual(R, th0, tensile_problem(k_r=k_r))
    th, x1, x2 = integrated_clamp(th0, R, k_r)
    assert abs(res - ((x1 - 0.25) * math.sin(th) - x2 * math.cos(th))) < 1e-9


def test_cli_tensile_trace_from_tiny_rotation(tmp_path):
    args = ["trace-elastica", "--R-c", "0.25", "--branch", "tensile", "--theta0-min", "1e-5",
            "--theta0-max", "1e-3", "--n-points", "5", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    rows = np.loadtxt(tmp_path / "elastica_tensile.csv", delimiter=",", skiprows=1)
    assert len(rows) == 5
    R_lin = linearized_load(0.25, "tension")
    for th0, R, _, phi, _, _ in rows:
        assert abs(R / R_lin - 1.0) < 1e-6
        assert_integrated_equilibrium(th0, R, phi)


def test_solve_rejects_bad_rotation():
    with pytest.raises(ValueError):
        solve_R(0.0, tensile_problem())
    with pytest.raises(ValueError):
        solve_R(-0.2, tensile_problem())


def test_cold_solve_takes_one_root_without_warning():
    # a 200-point scan of the window seed*[0.2, 5] around the linearized
    # load also bracketed a higher mode at theta0 = 1.5 and warned; the
    # branch follower meets one root, the smaller reaction
    pr = ElasticaProblem(B=1.0, l=1.0, R_c=0.6, half="left")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = solve_R(1.5, pr)
    assert st.R == pytest.approx(1.518790597515453, rel=1e-13)


# Tensile problems (theta0, R_c, k_r), B = l = 1, whose branch root left the
# window seed*[0.2, 5] of the linearized load, so the window scan returned a
# root of another family
OFF_WINDOW_ROOTS = [
    (0.5095776685937039, 0.7994155293943626, 0.13107339809499474),
    (0.5351349311966491, 0.7840761648598478, 0.14920061150843783),
    (0.50160738992129, 0.7801831436999447, 0.15975472303918598),
    (0.5786695624554797, 0.7644359750977971, 0.324577670405393),
]


def test_cold_solve_stays_on_softening_branch():
    # a strongly softening tensile branch: its root at theta0 = 0.51 lies
    # below the window seed*[0.2, 5] = [4.97, 124] around the linearized
    # load, and the window scan returned R = 66.436 (phi = 3.551), a root
    # of another family
    theta0, Rc, k_r = OFF_WINDOW_ROOTS[0]
    st = solve_R(theta0, tensile_problem(Rc=Rc, k_r=k_r))
    assert st.R == pytest.approx(4.158705495683579, rel=1e-13)
    assert st.phi == pytest.approx(1.903, abs=1e-3)


@pytest.mark.parametrize("theta0, Rc, k_r", OFF_WINDOW_ROOTS)
def test_cold_solve_agrees_with_trace(theta0, Rc, k_r):
    pr = tensile_problem(Rc=Rc, k_r=k_r)
    tr = trace_branch(pr, np.linspace(1e-3, theta0, 200), "tensile")
    assert tr.complete
    assert solve_R(theta0, pr).R == pytest.approx(tr.points[-1].R, rel=1e-12)


def test_cold_solve_follows_branch_out_of_the_window():
    # a stiff spring: R = -31.85 lies far below the window seed*[0.2, 5] =
    # [-13.76, -0.55] of the linearized load, where the window scan raised
    pr = compressive_problem(k_r=2.0)
    st = solve_R(2.3, pr)
    assert st.R == pytest.approx(-31.85030868469067, rel=1e-13)
    tr = trace_branch(pr, np.linspace(1e-4, 2.3, 400), "compressive")
    assert tr.complete
    assert st.R == pytest.approx(tr.points[-1].R, rel=1e-12)


def test_cold_solve_names_where_following_stopped():
    # past theta0 ~ 2.464 the nearest root jumps phi by 3.7 rad, and a fine
    # trace stops there too
    pr = compressive_problem(k_r=2.0)
    stopped = r"stopped at theta0=(\S+) .*past the last accepted theta0=(\S+): rejected R="
    with pytest.raises(ContinuationError, match=stopped) as err:
        solve_R(2.6, pr)
    at, last = map(float, re.search(stopped, str(err.value)).groups())
    tr = trace_branch(pr, np.linspace(1e-4, 2.6, 400), "compressive")
    assert not tr.complete
    trace_at = float(re.search(stopped, tr.diagnostic).group(1))
    assert last < at and abs(at - trace_at) < 0.005


def test_warm_solve_takes_nearest_root_without_warning():
    # a warm start next to a higher mode widens from the seed and stops at
    # the first bracket, so the other roots of the old window stay unseen
    with warnings.catch_warnings():
        warnings.simplefilter("error", MultipleRootWarning)
        st = solve_R(0.01, compressive_problem(), seed=-20.6)
    assert st.R == pytest.approx(-20.594, rel=1e-4)


@pytest.fixture
def residual_calls(monkeypatch):
    # solve_R looks compatibility_residual up at call time, so this counts
    # every residual it evaluates
    calls = []
    residual = elastica.compatibility_residual

    def counting(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(elastica, "compatibility_residual", counting)
    return calls


@pytest.mark.parametrize(
    "half, theta0",
    [("left", 0.5), ("left", 2.0), ("right", 0.01), ("right", 0.5), ("right", 2.0)],
)
@pytest.mark.parametrize("offset", [0.99, 0.9999, 1.0001, 1.01])
def test_warm_solve_residual_budget(residual_calls, half, theta0, offset):
    # a seed within 1 % of its root is bracketed at the first ratio, 1.02,
    # where the old 200-point window cost over 200 residuals per warm solve.
    # Tensile states below theta0 ~ 0.03 are left out: their residual is
    # noisy near 1e-12 (module docstring), and brentq spends up to ~40
    # calls shrinking the bracket through that noise.
    problem = ElasticaProblem(B=1.0, l=1.0, R_c=0.25, half=half)
    root = solve_R(theta0, problem)
    residual_calls.clear()
    st = solve_R(theta0, problem, seed=offset * root.R)
    assert len(residual_calls) <= 24
    assert st.R == pytest.approx(root.R, rel=1e-13)


@pytest.mark.parametrize("problem, budget", [(tensile_problem(), 60),
                                             (compressive_problem(k_r=0.5), 30)])
def test_cold_solve_residual_budget(residual_calls, problem, budget):
    # the window scan made 207 residuals per cold solve
    solve_R(0.5, problem)
    assert len(residual_calls) <= budget


def test_solve_without_bracket_reports_interval():
    # the searched window 0.2*[1/5, 5] tops out below the first reaction
    # root at ~1.07 (windows above it always catch a higher mode instead)
    with pytest.raises(ContinuationError, match=r"no sign change .* \[0\.04, 1\] at theta0=0\.001"):
        solve_R(1e-3, tensile_problem(), seed=0.2)


def test_solve_needs_seed_when_no_linearized_load():
    # R_c > l: no tensile bifurcation, so no default seed either
    with pytest.raises(ValueError, match="seed"):
        solve_R(0.3, tensile_problem(Rc=1.5))


def test_tensile_trace_structure(traced_tensile):
    tr = traced_tensile
    assert isinstance(tr, BranchTrace)
    assert tr.label == "tensile"
    assert tr.complete
    assert len(tr.points) == len(SCHEDULE)
    assert isinstance(tr.points[0], PostcriticalPoint)
    assert tr.points[0].F == pytest.approx(linearized_load(0.25, "tension"), rel=1e-3)
    assert abs(tr.points[0].delta) < 1e-6
    F = [p.F for p in tr.points]
    d = [p.delta for p in tr.points]
    R = [p.R for p in tr.points]
    assert all(b <= a + 1e-6 for a, b in zip(F, F[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(d, d[1:]))
    assert max(abs(b - a) for a, b in zip(R, R[1:])) < 0.1
    assert F[0] > 0.0 > F[-1]
    assert d[-1] > 0.2


def test_compressive_trace_structure(traced_compressive):
    tr = traced_compressive
    assert tr.label == "compressive"
    assert tr.complete
    assert tr.points[0].F == pytest.approx(linearized_load(0.25, "compression"), rel=1e-3)
    assert abs(tr.points[0].delta) < 1e-6
    F = [p.F for p in tr.points]
    d = [p.delta for p in tr.points]
    assert all(b >= a - 1e-6 for a, b in zip(F, F[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(d, d[1:]))
    assert F[0] < 0.0 < F[-1]
    assert d[-1] < -0.2


@pytest.mark.parametrize("branch", ["tensile", "compressive"])
def test_trace_records_transition_events(branch, traced_tensile, traced_compressive):
    tr = traced_tensile if branch == "tensile" else traced_compressive
    # the pin tops the circle (phi = pi/2) exactly where the load changes sign
    ev = tr.events["load_sign_transition"]
    scale = max(abs(p.F) for p in tr.points)
    assert abs(ev.phi - math.pi / 2) < 1e-9
    assert abs(ev.F) < 1e-12 * scale


def test_branch_shift_congruence(traced_tensile, traced_compressive):
    # one branch is the other translated by 2 R_c along delta
    pr_t, pr_c = tensile_problem(), compressive_problem()
    for target in (-0.45, -0.2, 0.1, 0.4, 0.7):
        st_t = solve_at_force(pr_t, traced_tensile, target)
        st_c = solve_at_force(pr_c, traced_compressive, target)
        assert st_t.delta - st_c.delta == pytest.approx(0.5, abs=1e-6)


def test_refine_on_trace_matches_local_bisection(traced_tensile, traced_compressive):
    # the trace label picks the assembly, whatever half the problem names
    for tr, pr in ((traced_tensile, tensile_problem()),
                   (traced_compressive, compressive_problem())):
        st = refine_on_trace(tensile_problem(), tr, lambda p: p.phi, math.pi / 4)
        assert st == solve_at_phi(pr, tr, math.pi / 4)
        assert refine_on_trace(pr, tr, lambda p: p.F, 1e6) is None


def test_trace_is_deterministic(traced_tensile):
    again = trace_branch(tensile_problem(), SCHEDULE, "tensile")
    assert len(again.points) == len(traced_tensile.points)
    for a, b in zip(again.points, traced_tensile.points):
        assert a == b
    assert again.events["load_sign_transition"] == traced_tensile.events["load_sign_transition"]


def test_trace_partial_on_bracket_loss():
    # geometry without a tensile bifurcation: the first solve finds no root
    tr = trace_branch(tensile_problem(Rc=1.5), np.geomspace(1e-4, 1.0, 10), "tensile", seed=1.0)
    assert not tr.complete
    assert len(tr.points) == 0
    assert "no sign change" in tr.diagnostic


def guarded_trace(monkeypatch, problem, schedule, branch):
    """trace_branch with every solve it makes recorded: returns the trace and
    the (previous, new) state pairs of the steps the guard accepted.

    A warm solve is seeded with the reaction of the last accepted state, so
    a state is accepted when it is a trace point or seeds a later solve.
    """
    solves = []
    solve = elastica.solve_R

    def recording(theta0, pr, seed=None):
        st = solve(theta0, pr, seed=seed)
        solves.append((seed, st))
        return st

    monkeypatch.setattr(elastica, "solve_R", recording)
    tr = trace_branch(problem, schedule, branch)
    accepted = {p.R for p in tr.points} | {seed for seed, _ in solves}
    by_R = {st.R: st for _, st in solves}
    steps = [(by_R[seed], st) for seed, st in solves if seed in by_R and st.R in accepted]
    assert len(steps) >= len(tr.points) - 1
    return tr, steps


def assert_steps_within_guard(steps):
    for a, b in steps:
        assert abs(b.R / a.R - 1.0) <= 0.25, (a, b)
        assert abs(b.phi - a.phi) <= 0.5, (a, b)


def test_guard_stops_runaway_compressive_branch(monkeypatch):
    # a stiff spring on a wide circle: past theta0 ~ 1.93 the window scan
    # jumped to another branch (phi 0.45 -> 3.43) and later stopped anyway
    pr = ElasticaProblem(B=1.0, l=1.0, R_c=2.0, k_r=1.0)
    tr, steps = guarded_trace(monkeypatch, pr, np.linspace(1e-4, 3.0, 60), "compressive")
    assert not tr.complete
    assert "theta0=" in tr.diagnostic and "step halvings" in tr.diagnostic
    assert_steps_within_guard(steps)


def test_guard_follows_spring_hinged_compressive_branch(monkeypatch):
    # the window scan jumped phi 1.58 -> 3.95 at theta0 = 2.687 and still
    # reported a complete trace; the nearest root stays on the branch
    pr = ElasticaProblem(B=1.0, l=1.0, R_c=0.8, k_r=0.5)
    tr, steps = guarded_trace(monkeypatch, pr, np.linspace(1e-4, 2.8, 100), "compressive")
    assert tr.complete
    assert len(tr.points) == 100
    assert max(abs(b.phi - a.phi) for a, b in zip(tr.points, tr.points[1:])) < 0.1
    assert_steps_within_guard(steps)


def test_guard_stops_instead_of_jumping(monkeypatch):
    # the window scan reported a complete trace across a single step of
    # |dphi| = 13.1; the guarded trace stops and names where
    pr = ElasticaProblem(B=1.0, l=1.0, R_c=0.25, k_r=2.0)
    tr, steps = guarded_trace(monkeypatch, pr, np.linspace(1e-4, 2.8, 100), "compressive")
    assert not tr.complete
    assert "last accepted theta0=" in tr.diagnostic and "rejected R=" in tr.diagnostic
    assert tr.points
    assert_steps_within_guard(steps)


def test_shape_export_samples_and_arclength():
    st = solve_R(0.5, tensile_problem())
    shape = shape_export(st, 1000)
    assert shape.shape == (1000, 4)
    assert tuple(shape[0]) == (0.0, 0.0, 0.0, 0.5)
    seg = np.hypot(np.diff(shape[:, 1]), np.diff(shape[:, 2]))
    assert abs(seg.sum() - 1.0) < 1e-4
    with pytest.raises(ValueError):
        shape_export(st, 1)


def test_shape_export_endpoint_compatibility(traced_tensile):
    # at phi = pi/4 the exported end point satisfies the closure condition
    pr = tensile_problem()
    st = solve_at_phi(pr, traced_tensile, math.pi / 4)
    shape = shape_export(st, 200)
    _, x1, x2, phi = shape[-1]
    assert abs((x1 - 0.25) * math.sin(phi) - x2 * math.cos(phi)) < 1e-8


def test_dimensional_wrappers_scale_consistently():
    # same dimensionless geometry at B = 2, l = 3
    nd = solve_R(0.5, tensile_problem())
    dim = solve_R(0.5, tensile_problem(Rc=0.75, B=2.0, l=3.0))
    assert dim.R == pytest.approx(nd.R * 2.0 / 9.0, rel=1e-12)
    assert dim.F == pytest.approx(nd.F * 2.0 / 9.0, rel=1e-12)
    assert dim.phi == pytest.approx(nd.phi, rel=1e-12)
    assert dim.delta == pytest.approx(nd.delta * 3.0, rel=1e-12)
    assert dim.modulus == pytest.approx(nd.modulus, rel=1e-12)
    assert dim.alpha_tilde == pytest.approx(nd.alpha_tilde / 3.0, rel=1e-12)
    # a warm solve in the same units lands on the same root
    warm = solve_R(0.5, tensile_problem(Rc=0.75, B=2.0, l=3.0), seed=1.1 * dim.R)
    assert warm.R == pytest.approx(dim.R, rel=1e-12)
    th = theta_at(1.5, dim)
    assert th == pytest.approx(theta_at(0.5, nd), rel=1e-12)
    x1, x2 = coordinates_at(3.0, dim)
    x1n, x2n = coordinates_at(1.0, nd)
    assert x1 == pytest.approx(3.0 * x1n, rel=1e-12)
    assert x2 == pytest.approx(3.0 * x2n, rel=1e-12)


def test_branch_csv_round_trip(tmp_path, traced_tensile):
    out = tmp_path / "branch.csv"
    header = "theta0,R,F,phi,delta,normalized_F"
    rows = cli._branch_rows(tensile_problem(), traced_tensile)
    cli._write_rows(out, header, rows)
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == header
    assert len(lines) == len(rows) + 1
    assert len(rows) >= len(traced_tensile.points)
    first = lines[1].split(",")
    assert len(first) == 6
    p = traced_tensile.points[0]
    assert float(first[1]) == p.R
    assert float(first[5]) == pytest.approx(4.0 * p.F / math.pi**2, rel=1e-15)
    # fixed format, byte-identical rewrite
    assert first[1] == "%.16e" % p.R
    cli._write_rows(tmp_path / "again.csv", header,
                    cli._branch_rows(tensile_problem(), traced_tensile))
    assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()


def test_shape_csv_round_trip(tmp_path):
    st = solve_R(0.5, tensile_problem())
    shape = shape_export(st, 50)
    out = tmp_path / "shape.csv"
    cli._write_rows(out, "s,x1,x2,theta", shape)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "s,x1,x2,theta"
    assert len(lines) == 51
    row = lines[7].split(",")
    assert [float(c) for c in row] == list(shape[6])
