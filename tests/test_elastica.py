import math
import re
import warnings

import mpmath
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


def branch_problem(branch, **kwargs):
    return (tensile_problem if branch == "tensile" else compressive_problem)(**kwargs)


@pytest.fixture(scope="module")
def traced_tensile():
    return trace_branch(tensile_problem(), SCHEDULE)


@pytest.fixture(scope="module")
def traced_compressive():
    return trace_branch(compressive_problem(), SCHEDULE)


def solve_at(problem, trace, value, target):
    # bracket by consecutive trace points, then root in theta0 on cold
    # solves, which follow the branch from its bifurcation and take no seed
    for a, b in zip(trace.points, trace.points[1:]):
        if (value(a) - target) * (value(b) - target) <= 0.0:
            th0 = brentq(lambda t: value(solve_R(t, problem)) - target,
                         a.theta0, b.theta0, xtol=1e-13)
            return solve_R(th0, problem)
    raise AssertionError("target not bracketed by the trace")


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


@pytest.mark.parametrize("field", ["B", "l", "R_c"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_problem_rejects_non_finite_parameters(field, value):
    # B = inf failed later with "pass a seed reaction", and l = inf with
    # "curvature chi_hat must be finite"
    params = dict(B=1.0, l=1.0, R_c=0.25)
    params[field] = value
    with pytest.raises(ValueError, match="%s must be positive and finite" % field):
        ElasticaProblem(**params)


@pytest.mark.parametrize("half", ["left", "right"])
def test_problem_rejects_a_clamped_pin(half):
    # k_r = inf fixes theta0 = 0, so no branch exists: the left half used to
    # ask for a seed reaction and the right half to fail every solve
    with pytest.raises(ValueError, match="k_r must be nonnegative and finite"):
        ElasticaProblem(B=1.0, l=1.0, R_c=0.25, k_r=math.inf, half=half)


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
    # only the clamp needs Jacobi functions: at either modulus the pin's are
    # known in closed form, and the addition theorems add them to the clamp's
    assert (modulus_from(0.8, R, k_r) > 1.0) == (k_r == 0.0)
    compatibility_residual(R, 0.8, tensile_problem(k_r=k_r))
    assert len(ellipj_calls) == calls


@pytest.mark.parametrize("n", [2, 3, 9, 400, 1000])
def test_shape_export_jacobi_evaluations_on_its_grid(ellipj_calls, n):
    # the pin, s = 0, is (0, 0, 0, theta0) without an evaluation; the
    # export takes c = ceil(sqrt(n - 1)) grid points off the pin and adds
    # c - 1 offsets to them: 5 evaluations at n = 9 and 39 at n = 400
    st = make_state(0.8, 1.3, tensile_problem())
    ellipj_calls.clear()
    shape_export(st, n)
    assert len(ellipj_calls) <= 2 * math.ceil(math.sqrt(n - 1)) - 1


@pytest.fixture
def integral_calls(monkeypatch):
    # arguments of every call of the incomplete integral F, by its public
    # name in either module or by its forward Landen pass
    calls = []

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(module, name, wrapped)

    counting(elliptic, "ellint_F")
    counting(elastica, "ellint_F")
    counting(elliptic, "_F_landen")
    return calls


@pytest.mark.parametrize("k_r, R", [(0.0, 1.3), (0.0, -1.3), (0.7, 1.1), (1.0, -1.0), (5.0, 0.5)])
def test_no_incomplete_integral_at_any_modulus(integral_calls, k_r, R):
    # the addition theorems take the pin's Jacobi functions in closed form,
    # so neither a residual nor a shape export needs F at the pin; k_r = 5
    # puts the modulus below one
    assert (modulus_from(0.8, R, k_r) > 1.0) == (k_r < 5.0)
    problem = tensile_problem(k_r=k_r)
    compatibility_residual(R, 0.8, problem)
    shape_export(make_state(0.8, R, problem), 9)
    assert integral_calls == []


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
def test_one_state_per_solve(monkeypatch, states_built, problem):
    # residuals build no state; each warm solve builds one, of its root, and
    # a solve returns the state of its last warm solve
    warm_states = []
    warm = elastica._warm_state

    def solving(theta0, pr, seed):
        warm_states.append(warm(theta0, pr, seed))
        return warm_states[-1]

    monkeypatch.setattr(elastica, "_warm_state", solving)
    compatibility_residual(1.3, 0.8, problem)
    assert states_built == []
    cold = solve_R(0.5, problem)
    assert len(warm_states) > 1 and len(states_built) == len(warm_states)
    assert cold is warm_states[-1]
    warm = solve_R(0.55, problem, seed=cold.R)
    assert len(states_built) == len(warm_states)
    assert warm is warm_states[-1]
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
# theta0 -> (R, bound).  k - 1 ~ theta0^2/8 here, and the residual's slope
# in R falls like theta0.  The bounds pin the entry solve and Koiter's seed
# below it (errors 4.4e-16, 4.4e-16, 8.9e-15, 6.1e-13): entering by a first
# follower step from R_cr instead was off by 3.5e-13, 3.5e-11, 9.9e-12 and
# 6.1e-13, and the Carlson-integral form before that by up to 8e-10
TINY_TENSILE_ROOTS = {
    1e-6: (1.0692009832004969, 2e-15),
    1e-5: (1.0692009831661602, 2e-15),
    1e-4: (1.0692009797324804, 2e-14),
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


@pytest.mark.parametrize("theta0", [3.0, 3.3, 3.6])
@pytest.mark.parametrize("k_r", [0.0, 0.01, 0.1])
def test_compressive_state_past_pi_keeps_its_rotation(theta0, k_r):
    # R < 0 and theta0 > pi: beta0 = theta0/2 > pi/2 lies on the oscillation
    # about 2 pi.  Taken about 0, theta(0) came out as 2 pi - theta0 for
    # k > 1 (2.9832 at theta0 = 3.3, k_r = 0.01)
    st = make_state(theta0, -1.0, compressive_problem(k_r=k_r))
    assert theta_at(0.0, st) == pytest.approx(theta0, rel=2e-16, abs=0.0)
    th, x1, x2 = integrated_clamp(theta0, -1.0, k_r)
    assert theta_at(1.0, st) == pytest.approx(th, abs=1e-10)
    assert coordinates_at(1.0, st) == pytest.approx((x1, x2), abs=1e-10)


@pytest.mark.parametrize("theta0, R, k_r", [(7.0, 1.0, 0.0), (7.0, 1.0, 0.01), (10.0, -1.0, 0.0),
                                        (7.0, 0.5, 5.0), (13.0, 0.5, 5.0), (13.0, -0.5, 5.0)])
def test_state_past_a_full_turn_keeps_its_rotation(theta0, R, k_r):
    # theta0 more than pi from the angle the rotation oscillates about:
    # the offset moves by 2 pi per turn, so |beta0| <= pi/2.  About pi
    # alone, theta(0) came out as 5.5664 at theta0 = 7, R = 1 (k > 1)
    st = make_state(theta0, R, ElasticaProblem(B=1.0, l=1.0, k_r=k_r, R_c=0.5))
    assert abs(st.beta0) <= math.pi / 2
    assert theta_at(0.0, st) == pytest.approx(theta0, rel=2e-16, abs=0.0)
    th, x1, x2 = integrated_clamp(theta0, R, k_r)
    assert theta_at(1.0, st) == pytest.approx(th, abs=1e-9)
    assert coordinates_at(1.0, st) == pytest.approx((x1, x2), abs=1e-10)


def test_rod_point_at_modulus_exactly_one():
    # den rounds so that k = 1.0 and the closed form of 1 - k^2 to 0, where
    # the AGM would not stop; the complement is floored at the smallest
    # float.  Reference: am = gd(u), dn = sech(u), eps = tanh(u) at k = 1
    st = make_state(1.1394660547478594, -1.0292099090649256,
                    ElasticaProblem(B=1.0, l=1.0, k_r=1.4993944220972553, R_c=0.5))
    assert st.modulus == 1.0
    assert elastica._state_points((0.5,), st)[0] == pytest.approx(
        (1.8688701696996075, 0.022141491563047892, 0.48846168826917435), rel=0.0, abs=1e-14)
    th, x1, x2 = integrated_clamp(st.theta0, st.R, 1.4993944220972553)
    assert elastica._state_points((1.0,), st)[0] == pytest.approx((th, x1, x2), rel=0.0, abs=1e-10)


def mp_rod(theta0, R, q, s=1):
    """(theta, theta', x1, x2) at arclength s of a state with k < 1,
    B = l = 1, theta'(0) = q, at 40 digits: theta = 2 am(u + u0) + offset
    and, with pref = sgn(R) 2/(k alpha),
    x1 = pref ((1 - k^2/2) u + E(beta0) - E(am(u + u0))) and
    x2 = pref (dn(u + u0) - dn(u0)), at u = s alpha/k and u0 = F(beta0, k)."""
    with mpmath.workdps(40):
        theta0, R, q, s = (mpmath.mpf(v) for v in (theta0, R, q, s))
        at = mpmath.sqrt(abs(R))
        half_trig = mpmath.cos(theta0 / 2) if R > 0 else mpmath.sin(theta0 / 2)
        k = 2 * at / mpmath.sqrt(q**2 + 4 * at**2 * half_trig**2)
        m = k * k
        offset = mpmath.pi if R > 0 else 0  # theta0 < pi
        beta0 = (theta0 - offset) / 2
        u = s * at / k
        v = u + mpmath.ellipf(beta0, m)
        sn, cn = mpmath.ellipfun("sn", v, m=m), mpmath.ellipfun("cn", v, m=m)
        dn = mpmath.ellipfun("dn", v, m=m)
        # the continued amplitude is within pi/2 of pi v / (2 K)
        am = mpmath.atan2(sn, cn)
        turns = (v * mpmath.pi / (2 * mpmath.ellipk(m)) - am) / (2 * mpmath.pi)
        am += 2 * mpmath.pi * mpmath.nint(turns)
        pref = mpmath.sign(R) * 2 / (k * at)
        dn0 = mpmath.sqrt(1 - m * mpmath.sin(beta0) ** 2)
        return (
            2 * am + offset,
            2 * at / k * dn,
            pref * ((1 - m / 2) * u + mpmath.ellipe(beta0, m) - mpmath.ellipe(am, m)),
            pref * (dn - dn0),
        )


def mp_rod_point(theta0, R, k_r, s):
    """40-digit (theta, x1, x2) of mp_rod, k < 1, as floats."""
    with mpmath.workdps(40):
        theta, _, x1, x2 = mp_rod(theta0, R, mpmath.mpf(theta0) * k_r, s)
        return float(theta), float(x1), float(x2)


_TAYLOR_BITS = 160


def integrated_rod(theta0, R, q):
    """(theta, theta', x1, x2) at s = 1 of theta'' = R sin(theta),
    theta(0) = theta0, theta'(0) = q and x' = (cos, sin)(theta), B = l = 1.

    Taylor series of degree 60 in 160-bit fixed point (48 digits), with
    sin and cos of theta carried by their own series, over steps of at
    most 1/(8 (|q| + 2 sqrt(2 |R|) + 1)), where |q| + 2 sqrt(2 |R|) bounds
    |theta'| by the first integral.  test_integrated_rod_matches_odefun
    checks it against mpmath.odefun."""
    one = 1 << _TAYLOR_BITS

    def fixed(v):
        return int(mpmath.mpf(v) * one)

    a, th, dth = fixed(R), fixed(theta0), fixed(q)
    with mpmath.workprec(_TAYLOR_BITS + 20):
        sin, cos = fixed(mpmath.sin(mpmath.mpf(theta0))), fixed(mpmath.cos(mpmath.mpf(theta0)))
    x1 = x2 = 0
    steps = int(8 * (abs(float(q)) + 2 * math.sqrt(2 * abs(float(R))) + 1)) + 1
    h = one // steps
    ah2 = (a * h >> _TAYLOR_BITS) * h >> _TAYLOR_BITS
    for _ in range(steps):
        # normalized Taylor coefficients of theta, sin(theta), cos(theta)
        t, ss, cc = [th, dth * h >> _TAYLOR_BITS], [sin], [cos]
        for n in range(60):
            t.append((ah2 * ss[n] >> _TAYLOR_BITS) // ((n + 1) * (n + 2)))
            ds = dc = 0
            for j in range(1, n + 2):
                ds += j * t[j] * cc[n + 1 - j]
                dc += j * t[j] * ss[n + 1 - j]
            ss.append((ds >> _TAYLOR_BITS) // (n + 1))
            cc.append(-((dc >> _TAYLOR_BITS) // (n + 1)))
        th = sum(t)
        dth = (sum(n * tn for n, tn in enumerate(t)) << _TAYLOR_BITS) // h
        x1 += h * sum(cn // (n + 1) for n, cn in enumerate(cc[:60])) >> _TAYLOR_BITS
        x2 += h * sum(sn // (n + 1) for n, sn in enumerate(ss[:60])) >> _TAYLOR_BITS
        sin, cos = sum(ss), sum(cc)
    return tuple(mpmath.mpf(v) / one for v in (th, dth, x1, x2))


def mp_defect_slopes(rod, theta0, R, q, c):
    """(df/dR, q df/dq, S) of the closure defect f of rod at 40 digits,
    the derivatives by mpmath.diff with steps 1e-15 relative, and
    S = -(f + c sin phi) + kappa [(x1 - c) cos phi + x2 sin phi], l = 1."""
    def defect(R, q):
        phi, _, x1, x2 = rod(theta0, R, q)
        return (x1 - c) * mpmath.sin(phi) - x2 * mpmath.cos(phi)

    with mpmath.workdps(40):
        R, q = mpmath.mpf(R), mpmath.mpf(q)
        dR = mpmath.diff(lambda r: defect(r, q), R, h=abs(R) * mpmath.mpf(1e-15))
        qdq = q * mpmath.diff(lambda p: defect(R, p), q, h=q * mpmath.mpf(1e-15)) if q else 0
        phi, kappa, x1, x2 = rod(theta0, R, q)
        f = (x1 - c) * mpmath.sin(phi) - x2 * mpmath.cos(phi)
        S = -(f + c * mpmath.sin(phi)) + kappa * ((x1 - c) * mpmath.cos(phi) + x2 * mpmath.sin(phi))
        return dR, qdq, S


def test_integrated_rod_matches_odefun():
    # mpmath.odefun at 40 digits, theta'(0) = theta0 k_r formed in mpmath,
    # gives (theta, theta', x1, x2)(1) = (1.2985633821026035667,
    # 1.0546763105309902101, 0.56593092641243333842, 0.81128946963922321085)
    # at (theta0, R, k_r) = (0.8, 1.3, 0)
    want = ("1.2985633821026035667", "1.0546763105309902101",
            "0.56593092641243333842", "0.81128946963922321085")
    with mpmath.workdps(40):
        for got, w in zip(integrated_rod(0.8, 1.3, 0.0), want):
            assert abs(got - mpmath.mpf(w)) < 1e-19


@pytest.mark.parametrize("k_lo, k_hi, bounds", [
    (0.9, 1.0, (1e-13, 1e-13, 1e-13)),
    (0.1, 0.9, (1e-13, 1e-13, 1e-13)),
    # theta doubles an amplitude that grows like 1/k; x1 takes
    # (1 - k^2/2) u - eps(u) from the AGM's sums, where the difference
    # cancelled like 1/k^2
    (0.01, 0.1, (3e-13, 1e-14, 1e-14)),
    (0.001, 0.01, (4e-12, 1e-14, 1e-14)),
    (0.0001, 0.001, (5e-11, 1e-12, 1e-14)),
])
def test_rod_point_below_modulus_one_matches_mpmath(k_lo, k_hi, bounds):
    # random states at s = l, k uniform in [k_lo, k_hi) (log-uniform below
    # 0.1), with k = 1 - 10^-15 .. 1 - 10^-2 mixed into the top band
    rng = np.random.default_rng(19)
    for _ in range(24):
        if k_hi == 1.0 and rng.random() < 0.3:
            k = 1.0 - 10.0 ** rng.uniform(-15.0, -2.0)
        elif k_lo < 0.1:
            k = math.exp(rng.uniform(math.log(k_lo), math.log(k_hi)))
        else:
            k = rng.uniform(k_lo, k_hi)
        theta0 = rng.uniform(1e-3, 2.8)
        R = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0)
        half_trig = math.cos(theta0 / 2.0) if R > 0.0 else math.sin(theta0 / 2.0)
        k_r = math.sqrt(4.0 * abs(R) * (1.0 / (k * k) - half_trig**2)) / theta0
        st = make_state(theta0, R, ElasticaProblem(B=1.0, l=1.0, k_r=k_r, R_c=0.5))
        assert k_lo <= st.modulus < k_hi
        want = mp_rod_point(theta0, R, k_r, 1.0)
        for got, ref, bound in zip(elastica._state_points((1.0,), st)[0], want, bounds):
            assert abs(got - ref) <= bound, (theta0, R, k_r, got, ref)


@pytest.mark.parametrize("s", [0.25, 0.5, 1.0])
def test_rod_point_just_below_modulus_one_matches_mpmath(s):
    # the spring-hinged tensile root at theta0 = 1e-4 of
    # test_spring_tensile_solve_just_below_modulus_one, k = 1 - 9.2e-11
    st = make_state(1e-4, 0.74465226497386224, tensile_problem(Rc=0.333, k_r=0.894))
    assert -1e-10 < st.modulus - 1.0 < 0.0
    got = elastica._state_points((s,), st)[0]
    want = mp_rod_point(1e-4, 0.74465226497386224, 0.894, s)
    assert got == pytest.approx(want, rel=0.0, abs=1e-13)


def spring_for_modulus(theta0, R, k):
    # the k_r that puts a state of B = l = 1 at modulus k
    half_trig = math.cos(theta0 / 2.0) if R > 0.0 else math.sin(theta0 / 2.0)
    return math.sqrt(4.0 * abs(R) * (1.0 / (k * k) - half_trig**2)) / theta0


# (theta0, R, k_r, half, bound) on R_c = 0.3 with B = l = 1, and the largest
# |df/dR - reference| of the closed-form slope
SLOPE_STATES = {
    # k > 1 without a spring, the slope is S/(2R)
    "k>1": (0.8, 1.3, 0.0, "left", 1e-15),
    "k>1-compressive": (2.35, -3.32, 0.0, "right", 1e-15),
    # k > 1 with a spring
    "k>1-spring": (0.845, -3.06, 2.14, "left", 1e-15),
    "k>1-spring-right": (0.869, 2.51, 0.982, "right", 1e-15),
    # k <= 1, over the top of the pin
    "k<1": (1.38, 0.503, 2.4, "left", 2e-15),
    "k<1-right": (0.975, 3.74, 2.49, "right", 2e-15),
    "k<1-compressive": (2.58, -4.38, 2.08, "left", 1e-15),
    # theta0 = 1e-4: fig7's tensile root (k - 1 = 1.2e-9), the spring-hinged
    # tensile root (1 - k = 9.2e-11) and a compressive state.  The slope
    # is about 3e-5 there, and phi, the rounding of angle_offset = pi plus
    # an angle next to -pi, limits it to about eps absolute
    "tiny-fig7": (1e-4, 1.0692009797324804, 0.0, "left", 3e-16),
    "tiny-spring": (1e-4, 0.74465226497386224, 0.894, "left", 3e-16),
    "tiny-spring-k>1": (1e-4, 1.2, 0.3, "left", 3e-16),
    "tiny-compressive": (1e-4, -1.3, 0.3, "right", 3e-16),
    # the small-k bands of the rod-point tests: the slope is the small
    # difference of S/(2R) and the spring's share, each up to 1e4
    "k=0.05": (1.1, 2.3, spring_for_modulus(1.1, 2.3, 0.05), "left", 1e-14),
    "k=0.005": (0.7, -1.7, spring_for_modulus(0.7, -1.7, 0.005), "right", 1e-13),
    "k=0.0005": (2.2, 0.6, spring_for_modulus(2.2, 0.6, 0.0005), "left", 1e-12),
}


@pytest.mark.parametrize("key", SLOPE_STATES)
def test_defect_slope_matches_mpmath(key):
    # the residual's slope in closed form against mpmath.diff of the rod at
    # 40 digits: integrated where k > 1, and the closed form of the
    # rod-point tests where k <= 1, where theta' ~ 2 alpha/k makes the
    # integration long.  The reference derivatives also satisfy the
    # scaling identity 2 R df/dR + q df/dq = S the closed form rests on
    theta0, R, k_r, half, bound = SLOPE_STATES[key]
    pr = ElasticaProblem(B=1.0, l=1.0, k_r=k_r, R_c=0.3, half=half)
    res = compatibility_residual(R, theta0, pr)
    q = theta0 * k_r
    rod = integrated_rod if res.record[2] > 1.0 else mp_rod
    dR, qdq, S = mp_defect_slopes(rod, theta0, R, q, 0.3 if half == "left" else -0.3)
    assert abs(res.slope - dR) <= bound, (res.slope, dR)
    with mpmath.workdps(40):
        assert abs(2 * R * dR + qdq - S) <= 1e-20 * max(1, abs(S))


# the largest |partial - reference| / max(1, |reference|) of the theta0
# partials, where it exceeds 1e-14: the small-k bands, where f_theta0 is a
# difference of terms up to about 1/k larger than itself
THETA0_PARTIAL_BOUNDS = {"k=0.005": 5e-13, "k=0.0005": 1e-12}


@pytest.mark.parametrize("key", SLOPE_STATES)
def test_theta0_partials_match_mpmath(key):
    # df/dtheta0 and dphi/dtheta0 at fixed R in closed form, on the states
    # of the slope test (both halves, k_r = 0 and k_r > 0, k above, next to
    # and below one), against mpmath.diff of the same 40-digit rods, with
    # theta'(0) = theta0 k_r moving with theta0
    theta0, R, k_r, half, _ = SLOPE_STATES[key]
    pr = ElasticaProblem(B=1.0, l=1.0, k_r=k_r, R_c=0.3, half=half)
    st = make_state(theta0, R, pr)
    c = 0.3 if half == "left" else -0.3
    rod = integrated_rod if st.modulus > 1.0 else mp_rod
    seen = {}

    def clamp(t):
        if t not in seen:
            phi, _, x1, x2 = rod(t, R, t * k_r)
            seen[t] = ((x1 - c) * mpmath.sin(phi) - x2 * mpmath.cos(phi), phi)
        return seen[t]

    with mpmath.workdps(40):
        t, bound = mpmath.mpf(theta0), THETA0_PARTIAL_BOUNDS.get(key, 1e-14)
        refs = [mpmath.diff(lambda u: clamp(u)[i], t, h=t * mpmath.mpf(1e-15)) for i in (0, 1)]
        for got, ref in zip(elastica._theta0_partials(st), refs):
            assert abs(got - ref) <= bound * max(1, abs(ref)), (got, ref)


# (theta0, R, half, k - 1) with the k_r that puts the state at modulus k,
# away from small theta0.  Measured: the slope is off by 6.4e-7, 1.1e-6
# and 6.9e-7 relative, and the theta0 partials by up to 8.3e-9, 8.9e-9
# and 2.6e-9 relative to max(1, |value|)
NEAR_ONE_STATES = {
    "left-below": (1.5, 2.0, "left", -1e-8),
    "right-below": (2.2, 0.9, "right", -1e-8),
    "right-above": (2.2, 0.9, "right", 1e-8),
}
NEAR_ONE_XFAIL = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="FOUND line 156 in CHANGES.md, ROADMAP item 7: the 1/mc terms of _clamp_terms "
    "cancel like eps/mc as the modulus nears one")


def near_one_state(key):
    theta0, R, half, dk = NEAR_ONE_STATES[key]
    k_r = spring_for_modulus(theta0, R, 1.0 + dk)
    pr = ElasticaProblem(B=1.0, l=1.0, k_r=k_r, R_c=0.3, half=half)
    st = make_state(theta0, R, pr)
    assert st.modulus - 1.0 == pytest.approx(dk, rel=1e-6)
    return st, (mp_rod if st.modulus < 1.0 else integrated_rod), (0.3 if half == "left" else -0.3)


@NEAR_ONE_XFAIL
@pytest.mark.parametrize("key", NEAR_ONE_STATES)
def test_defect_slope_next_to_modulus_one_matches_mpmath(key):
    st, rod, c = near_one_state(key)
    res = compatibility_residual(st.R, st.theta0, st.problem)
    dR, _, _ = mp_defect_slopes(rod, st.theta0, st.R, st.theta0 * st.problem.k_r, c)
    assert abs(res.slope - dR) <= 1e-10 * abs(dR), (res.slope, dR)


@NEAR_ONE_XFAIL
@pytest.mark.parametrize("key", NEAR_ONE_STATES)
def test_theta0_partials_next_to_modulus_one_match_mpmath(key):
    st, rod, c = near_one_state(key)
    R, k_r = st.R, st.problem.k_r

    def clamp(t, i):
        phi, _, x1, x2 = rod(t, R, t * k_r)
        return ((x1 - c) * mpmath.sin(phi) - x2 * mpmath.cos(phi), phi)[i]

    with mpmath.workdps(40):
        t = mpmath.mpf(st.theta0)
        refs = [mpmath.diff(lambda u: clamp(u, i), t, h=t * mpmath.mpf(1e-15)) for i in (0, 1)]
        for got, ref in zip(elastica._theta0_partials(st), refs):
            assert abs(got - ref) <= 1e-10 * max(1, abs(ref)), (got, ref)


@pytest.mark.parametrize("theta0, problem", [
    (0.5, tensile_problem()),
    (0.5, compressive_problem(k_r=0.5)),
    (0.3, tensile_problem(Rc=0.333, k_r=0.894)),
    (1.2, compressive_problem(Rc=0.8, k_r=0.5)),
], ids=["tensile", "compressive-spring", "tensile-spring-k<1", "compressive-wide"])
def test_branch_tangent_matches_centred_difference(theta0, problem):
    # dR/dtheta0 = -f_theta0/f_R and dphi/dtheta0 at a solved state against
    # centred differences, h = 1e-12, of two 40-digit roots on the same
    # rods; the largest error, 1.3e-14, is next to k = 1 (k = 0.9957)
    st = solve_R(theta0, problem)
    c = problem.R_c if problem.half == "left" else -problem.R_c
    rod = integrated_rod if st.modulus > 1.0 else mp_rod

    def root(t):
        def defect(R):
            phi, _, x1, x2 = rod(t, R, t * problem.k_r)
            return (x1 - c) * mpmath.sin(phi) - x2 * mpmath.cos(phi)

        R0 = mpmath.mpf(st.R)
        R = mpmath.findroot(defect, (R0, R0 * (1 + mpmath.mpf(1e-9))), tol=mpmath.mpf(10) ** -70)
        return R, rod(t, R, t * problem.k_r)[0]

    with mpmath.workdps(40):
        t, h = mpmath.mpf(theta0), mpmath.mpf(10) ** -12
        (Ra, phia), (Rb, phib) = root(t - h), root(t + h)
        refs = ((Rb - Ra) / (2 * h), (phib - phia) / (2 * h))
        for got, ref in zip(elastica._tangent(st), refs):
            assert abs(got - ref) <= 5e-14 * max(1, abs(ref)), (got, ref)


def test_state_without_a_tangent_keeps_the_old_predictor(monkeypatch):
    # at theta0 = 1.54 with k_r = 1.98 and R = 4.7965..., k = 1 + 2.2e-16
    # and the closed form of 1 - 1/k^2 rounds below zero (see
    # test_residual_where_spring_puts_modulus_next_to_one): the slope and
    # the tangent are NaN.  R_c is set so that R solves the right half
    # there, and a trace seeded with R starts at that state.  The step
    # after the next point is predicted by the secant in theta0^2 through
    # both, and the later points agree with a trace seeded at that point
    th0, k_r, R = 1.54, 1.98, 4.796501602842921
    st = make_state(th0, R, ElasticaProblem(B=1.0, l=1.0, k_r=k_r, R_c=0.25))
    _, x1, x2 = elastica._state_points((1.0,), st)[0]
    pr = compressive_problem(Rc=x2 / math.tan(st.phi) - x1, k_r=k_r)
    tried, warm = [], elastica._warm_state

    def solving(theta0, problem, seed):
        tried.append((theta0, seed))
        return warm(theta0, problem, seed)

    monkeypatch.setattr(elastica, "_warm_state", solving)
    tr = trace_branch(pr, [th0, 1.6, 1.7, 1.8], seed=R)
    assert tr.complete
    first = tr.points[0]
    assert first.R == R and first.clamp is None
    assert all(math.isnan(v) for v in elastica._tangent(first))
    # one point predicts itself until a step from it is accepted at t2
    i = next(n for n, (_, seed) in enumerate(tried) if seed != R)
    (t2, _), (t3, seed3) = tried[i - 1], tried[i]
    r2 = solve_R(t2, pr, seed=R).R
    assert seed3 == r2 + (r2 - R) * (t3 * t3 - t2 * t2) / (t2 * t2 - th0 * th0)
    assert all(math.isfinite(v) for p in tr.points[1:] for v in elastica._tangent(p))
    later = trace_branch(pr, [t2, 1.6, 1.7, 1.8], seed=r2)
    for a, b in zip(tr.points[1:], later.points[1:], strict=True):
        assert (b.R, b.phi) == pytest.approx((a.R, a.phi), rel=1e-11)


def test_missing_tangent_mid_trace_falls_back_to_the_theta0_squared_secant(monkeypatch):
    # a trace point whose tangent is NaN, as next to k = 1: the steps from
    # it are predicted by the secant in theta0^2 through it and the point
    # accepted before it, and the trace goes on to the unpatched trace's
    # points
    pr = tensile_problem()
    schedule = np.linspace(1e-4, 2.8, 30)
    ref = trace_branch(pr, schedule)
    nan_at = float(schedule[10])
    tangent, point, warm = elastica._tangent, elastica._point, elastica._warm_state
    kept, tried = [], []

    def patched(st):
        return (math.nan, math.nan) if st.theta0 == nan_at else tangent(st)

    def keeping(st):
        kept.append(point(st))
        return kept[-1]

    def solving(theta0, problem, seed):
        tried.append((len(kept), theta0, seed))
        return warm(theta0, problem, seed)

    monkeypatch.setattr(elastica, "_tangent", patched)
    monkeypatch.setattr(elastica, "_point", keeping)
    monkeypatch.setattr(elastica, "_warm_state", solving)
    tr = trace_branch(pr, schedule)
    assert tr.complete, tr.diagnostic
    n = next(i for i, p in enumerate(kept) if p[0] == nan_at)
    assert math.isnan(kept[n][3])
    (t1, r1, *_), (t2, r2, *_) = kept[n - 1:n + 1]
    after = [(th, seed) for m, th, seed in tried if m == n + 1]
    assert after
    for th, seed in after:
        assert seed == r2 + (r2 - r1) * (th * th - t2 * t2) / (t2 * t2 - t1 * t1)
    assert tr.points[:11] == ref.points[:11]
    for a, b in zip(tr.points[11:], ref.points[11:], strict=True):
        assert (a.R, a.phi) == pytest.approx((b.R, b.phi), rel=1e-11)
    ev, ref_ev = tr.events["load_sign_transition"], ref.events["load_sign_transition"]
    assert (ev.theta0, ev.R) == pytest.approx((ref_ev.theta0, ref_ev.R), rel=1e-11)


def test_residual_is_continuous_through_zero_reaction():
    # the spring-hinged tensile branch that stops as R nears zero (see
    # test_spring_hinged_tensile_trace_stops_as_R_nears_zero) has k -> 0
    # like sqrt|R| there; while x1 lost digits like 1/k^2, the residuals at
    # theta0 = 0.77 and R = +-1e-12 differed by 8e-6
    pr = tensile_problem(Rc=0.333, k_r=0.894)
    for R in (1e-12, 1e-14):
        gap = compatibility_residual(R, 0.77, pr) - compatibility_residual(-R, 0.77, pr)
        assert abs(gap) < 1e-11, R


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
    # an infinite rotation passed the positivity check, and the branch
    # follower then looped on inf - inf without end
    for theta0 in (0.0, -0.2, math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_R(theta0, tensile_problem())
    for schedule in ([math.inf], [0.1, math.nan]):
        with pytest.raises(ValueError):
            trace_branch(tensile_problem(), schedule)
    for seed in (math.inf, math.nan, 0.0, -0.0):
        with pytest.raises(ValueError, match="finite"):
            solve_R(0.5, tensile_problem(), seed=seed)
        with pytest.raises(ValueError, match="finite"):
            trace_branch(tensile_problem(), [0.5], seed=seed)


@pytest.mark.parametrize("half", ["left", "right"])
@pytest.mark.parametrize("theta0", [1e-3, 0.1, 2.0])
@pytest.mark.parametrize("R", [1e308, -1e308])
def test_overflowing_reaction_is_degenerate(R, theta0, half):
    # 4|R|/B overflowed, the modulus came out 0 and a rod point divided
    # by it: a ZeroDivisionError instead of the error R = 0 raises
    pr = ElasticaProblem(B=1.0, l=1.0, R_c=0.25, half=half)
    with pytest.raises(DegenerateGeometryError, match="overflows"):
        compatibility_residual(R, theta0, pr)


@pytest.mark.parametrize("k_r", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("half", ["left", "right"])
@pytest.mark.parametrize("theta0", [1e-3, 0.1, 2.0])
def test_tiny_reaction_with_spring_is_finite_or_degenerate(theta0, half, k_r):
    # with a spring, x1 and x2 scale as 1/|R| and overflowed to inf or nan
    # for |R| up to 1e-307: the residual returned a non-finite defect
    pr = ElasticaProblem(B=1.0, l=1.0, k_r=k_r, R_c=0.25, half=half)
    raised = 0
    for e in range(34 * 4):
        for R in (10.0 ** (-323 + e / 4), -(10.0 ** (-323 + e / 4))):
            try:
                assert math.isfinite(compatibility_residual(R, theta0, pr)), R
            except DegenerateGeometryError as exc:
                assert "closure defect" in str(exc)
                raised += 1
    assert raised > 0


@pytest.mark.parametrize("k_r", [0.0, 0.3])
@pytest.mark.parametrize("half", ["left", "right"])
@pytest.mark.parametrize("theta0", [1e-300, 1e-160, 1e-20])
def test_residual_at_extreme_scales_has_a_value_or_is_degenerate(theta0, half, k_r):
    # the slope terms divide by the Jacobi parameter, its complement and
    # products with den, which underflow to zero here: with a spring at
    # theta0 = 1e-300 and R = -1e300 the residual raised ZeroDivisionError.
    # A finite residual may carry NaN slopes, and its state a NaN tangent
    pr = ElasticaProblem(B=1.0, l=1.0, k_r=k_r, R_c=0.25, half=half)
    for R in (5e-324, 1e-300, 1.3, 1e300):
        for R in (R, -R):
            try:
                assert math.isfinite(compatibility_residual(R, theta0, pr)), R
                elastica._tangent(make_state(theta0, R, pr))
            except DegenerateGeometryError:
                pass


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
    tr = trace_branch(pr, np.linspace(1e-3, theta0, 200))
    assert tr.complete
    assert solve_R(theta0, pr).R == pytest.approx(tr.points[-1].R, rel=1e-12)


def test_cold_solve_follows_branch_out_of_the_window():
    # a stiff spring: R = -31.85 lies far below the window seed*[0.2, 5] =
    # [-13.76, -0.55] of the linearized load, where the window scan raised
    pr = compressive_problem(k_r=2.0)
    st = solve_R(2.3, pr)
    assert st.R == pytest.approx(-31.85030868469067, rel=1e-13)
    tr = trace_branch(pr, np.linspace(1e-4, 2.3, 400))
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
    assert at == 2.46548
    tr = trace_branch(pr, np.linspace(1e-4, 2.6, 400))
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
    # at least the seed, a bracket end and one brentq step: a solve that
    # went round compatibility_residual would count fewer
    assert 3 <= len(residual_calls) <= 24
    # brentq starts from the widening search's samples at the bracket ends,
    # and the state comes from the root's own residual: each reaction is
    # evaluated once
    assert len(residual_calls) == len(set(residual_calls))
    assert st.R == pytest.approx(root.R, rel=1e-13)


@pytest.mark.parametrize(
    "theta0, problem, low, high",
    [
        (0.5, tensile_problem(), 9, 12),
        (0.5, compressive_problem(k_r=0.5), 7, 11),
        (OFF_WINDOW_ROOTS[0][0], tensile_problem(*OFF_WINDOW_ROOTS[0][1:]), 65, 76),
        (2.3, compressive_problem(k_r=2.0), 58, 71),
    ],
    ids=["tensile", "compressive", "softening", "stiff-spring"],
)
def test_cold_solve_residual_budget(residual_calls, theta0, problem, low, high):
    # steps predicted on the branch tangent make 10, 9, 70 and 64 residuals
    # here, where the secant and quadratic predictors made 11, 9, 176 and
    # 83, brentq on the first bracket 31, 12, 201 and 132, the window scan
    # 207 per cold solve, and steps seeded by the secant in theta0^2 38,
    # 16, 329 and 251: on the softening branch it predicted R 5-10 % low at
    # each step.  The lower bounds fail a follower whose solves go round
    # compatibility_residual
    solve_R(theta0, problem)
    assert low <= len(residual_calls) <= high


def cold_solve_draws(seed):
    """The problems of one pass of the benchmark's cold-solve workload
    (bench/workloads.py), drawn in its order."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        R_c, k_r = rng.uniform(0.2, 0.8), rng.uniform(0.0, 0.5)
        half = ("left", "right")[int(rng.integers(2))]
        rng.uniform(1e-3, 0.6)  # the draw's theta0
        yield ElasticaProblem(B=1.0, l=1.0, k_r=float(k_r), R_c=float(R_c), half=half)


def test_entry_solve_residual_budget(residual_calls):
    # the cold follower's entry solve at theta0 = 1e-3, seeded with R_cr
    # within 0.15 % of its root, over the 4,000 cold-solve draws of seeds
    # 1-20: Newton takes 2 to 4 residuals, 3.17 on average, where brentq on
    # the first bracket took 5 to 30, 9.80 on average.  The lower bound
    # fails an entry that goes round compatibility_residual
    counts = []
    for seed in range(1, 21):
        for pr in cold_solve_draws(seed):
            R_cr = elastica._default_seed(pr)
            residual_calls.clear()
            elastica._warm_state(elastica._THETA_START, pr, R_cr)
            counts.append(len(residual_calls))
    assert len(counts) == 4000
    assert min(counts) >= 2 and max(counts) <= 4
    assert 3.0 < sum(counts) / len(counts) < 3.3


@pytest.mark.parametrize("theta0, problem", [
    (0.5, tensile_problem()), (1e-4, tensile_problem()), (0.5, compressive_problem(k_r=0.5)),
    (1e-4, tensile_problem(Rc=0.333, k_r=0.894)),
])
def test_warm_solve_at_its_own_root_takes_one_residual(residual_calls, theta0, problem):
    # the root's residual says Newton's next step is within brentq's
    # tolerance, or the residual is within its rounding bound: a solve
    # seeded there stops at the seed, and its residual holds the state
    root = solve_R(theta0, problem)
    residual_calls.clear()
    st = solve_R(theta0, problem, seed=root.R)
    assert len(residual_calls) == 1
    assert st == root


def test_newton_keeps_the_nearest_root_order(monkeypatch):
    # three roots within 7 % of each other, R = -46.88, -48.74 and -50.26
    # (the guard's runaway compressive branch at theta0 = 2.7458): from
    # every seed the solve takes the root _nearest_root takes alone, also
    # where Newton's root lies above the seed and seed/1.02 brackets the
    # one below.  Each side of a seed's first window, seed*[1/1.02, 1.02],
    # holds at most one of these roots, where the two orders agree
    pr, theta0 = ElasticaProblem(B=1.0, l=1.0, R_c=2.0, k_r=1.0, half="right"), 2.7458
    nearest = elastica._nearest_root
    handed_over = []

    def counting(f, seed, xtol):
        handed_over.append(seed)
        return nearest(f, seed, xtol)

    monkeypatch.setattr(elastica, "_nearest_root", counting)
    for seed in np.linspace(-45.5, -52.0, 131):
        found = nearest(lambda R: compatibility_residual(R, theta0, pr), float(seed), 1e-15)
        assert solve_R(theta0, pr, seed=float(seed)).R == pytest.approx(found[0], rel=1e-12)
    assert 0 < len(handed_over) < 131


@pytest.fixture
def state_calls(monkeypatch):
    # one entry per rod state evaluated, residual or not
    calls = []
    state_and_defect = elastica._state_and_defect

    def counting(*args):
        calls.append(args)
        return state_and_defect(*args)

    monkeypatch.setattr(elastica, "_state_and_defect", counting)
    return calls


@pytest.mark.parametrize("seed", [None, 1.3], ids=["cold", "warm"])
def test_solve_keeps_the_state_at_its_root(residual_calls, state_calls, seed):
    # the root is a reaction the search evaluated, and its residual holds
    # the state's fields: no state is evaluated twice
    st = solve_R(0.5, tensile_problem(), seed=seed)
    assert len(state_calls) == len(residual_calls) > 0
    assert st == make_state(0.5, st.R, tensile_problem())


def test_seed_above_its_root_samples_nothing_above_it(residual_calls):
    # seed/r is sampled first, and a bracket there ends the search before
    # seed*r is tried: when both would bracket, seed/r wins anyway
    root = solve_R(0.5, tensile_problem()).R
    seed = 1.01 * root
    residual_calls.clear()
    assert solve_R(0.5, tensile_problem(), seed=seed).R == pytest.approx(root, rel=1e-13)
    assert max(R for R, _, _ in residual_calls) == seed


@pytest.fixture
def agm_calls(monkeypatch):
    calls = []
    agm = elliptic._agm

    def counting(*args):
        calls.append(args)
        return agm(*args)

    monkeypatch.setattr(elliptic, "_agm", counting)
    return calls


@pytest.mark.parametrize("k_r, R", [(0.0, 1.3), (5.0, 0.5)])
def test_residual_and_shape_export_take_one_agm(agm_calls, k_r, R):
    # every rod point of a state shares the state's parameter, so one AGM
    # serves a residual and one a whole export, at either modulus
    st = make_state(0.8, R, tensile_problem(k_r=k_r))
    agm_calls.clear()
    compatibility_residual(R, 0.8, tensile_problem(k_r=k_r))
    assert len(agm_calls) == 1
    agm_calls.clear()
    rows = shape_export(st, 400)
    assert len(agm_calls) == 1
    assert rows[-1][1:] == (*coordinates_at(1.0, st), theta_at(1.0, st))


# Wide-sweep draws (theta0, R_c, k_r, branch), B = l = 1, beyond the
# benchmark's theta0 <= 0.6 and k_r <= 0.5, where the ln R predictor's steps
# differ most from those of the theta0^2 secant
FAR_DRAWS = [
    (0.9263614316950102, 0.8703989534079591, 1.3038651298125947, "tensile"),
    (1.566640152437627, 0.7266818316890227, 0.5798991379315948, "tensile"),
    (0.956289091518668, 0.8641289426880493, 0.9967255378829694, "tensile"),
    (1.6948484482648933, 0.6959014745965266, 1.949540114489485, "compressive"),
]


@pytest.mark.parametrize("theta0, Rc, k_r, branch", FAR_DRAWS)
def test_cold_solve_agrees_with_trace_far_out(theta0, Rc, k_r, branch):
    pr = branch_problem(branch, Rc=Rc, k_r=k_r)
    tr = trace_branch(pr, np.linspace(1e-4, theta0, 400))
    assert tr.complete
    st = solve_R(theta0, pr)
    assert st.R == pytest.approx(tr.points[-1].R, rel=1e-11)


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
    assert tr.points[0].problem.half == "left"
    assert tr.complete
    assert len(tr.points) == len(SCHEDULE)
    assert isinstance(tr.points[0], ElasticaState)
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
    assert tr.points[0].problem.half == "right"
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


@pytest.mark.parametrize("branch", ["tensile", "compressive"])
def test_trace_points_are_states_shape_export_takes(branch, traced_tensile,
                                                   traced_compressive):
    # a trace point and the load-sign event are the states solved there,
    # so they go straight into shape_export, whose last row closes the
    # compatibility condition
    tr = traced_tensile if branch == "tensile" else traced_compressive
    c = 0.25 if branch == "tensile" else -0.25
    for st in (tr.points[60], tr.events["load_sign_transition"]):
        assert type(st) is ElasticaState
        _, x1, x2, phi = shape_export(st, 20)[-1]
        assert phi == st.phi
        assert abs((x1 - c) * math.sin(phi) - x2 * math.cos(phi)) < 1e-13


def test_branch_shift_congruence(traced_tensile, traced_compressive):
    # one branch is the other translated by 2 R_c along delta
    pr_t, pr_c = tensile_problem(), compressive_problem()
    for target in (-0.45, -0.2, 0.1, 0.4, 0.7):
        st_t = solve_at(pr_t, traced_tensile, lambda p: p.F, target)
        st_c = solve_at(pr_c, traced_compressive, lambda p: p.F, target)
        assert st_t.delta - st_c.delta == pytest.approx(0.5, abs=1e-6)


def assert_roller_mirror(left, right, R_c):
    """Without a spring, the left-half state (theta0, R, phi) maps to the
    right-half state (pi - theta0, -R, pi - phi), with the same F and
    delta_left - delta_right = 2 R_c: each right point is checked against
    the left point mirrored on their common schedule, symmetric about
    pi/2.  Bounds: about 6 to 10 times the worst of 100-point traces at
    R_c = 0.25 and 0.6 (R and F 1.7e-11 relative to |R|, phi 4.4e-15,
    shift 1.9e-15); the schedule's own asymmetry is one ulp of pi."""
    assert left.complete, left.diagnostic
    n = len(left.points)
    for j, b in enumerate(right.points):
        a = left.points[n - 1 - j]
        assert a.theta0 + b.theta0 == pytest.approx(math.pi, abs=1e-15), j
        assert abs(a.R + b.R) <= 1e-10 * abs(a.R), (j, a.R, b.R)
        assert abs(a.phi + b.phi - math.pi) <= 5e-14, (j, a.phi, b.phi)
        assert abs(a.F - b.F) <= 1e-10 * abs(a.R), (j, a.F, b.F)
        assert abs(a.delta - b.delta - 2.0 * R_c) <= 2e-14, (j, a.delta, b.delta)


def roller_halves(R_c, n=100):
    schedule = np.linspace(1e-4, math.pi - 1e-4, n)
    return (trace_branch(tensile_problem(Rc=R_c), schedule),
            trace_branch(compressive_problem(Rc=R_c), schedule))


# seeded roller draws, R_c from U(0.2, 0.8) as the cold-solve benchmark
# draws it.  A sweep of 241 R_c over [0.2, 0.8] found no right half that
# stops short of pi (FOUND line 208 in CHANGES.md, pinned at R_c = 0.9 by
# the strict xfail below), so each draw must complete
ROLLER_DRAWS = [float(R_c) for R_c in np.random.default_rng(39).uniform(0.2, 0.8, 4)]


@pytest.mark.parametrize("R_c", [0.25, 0.6] + [
    pytest.param(R_c, id="draw%d" % i) for i, R_c in enumerate(ROLLER_DRAWS)])
def test_roller_halves_trace_one_branch_from_both_ends(R_c):
    left, right = roller_halves(R_c)
    assert right.complete, right.diagnostic
    assert_roller_mirror(left, right, R_c)
    # the right half's residual at each mapped left root.  The left root is
    # known to within its own residual's rounding bound, and at the mapped
    # theta0 = 1e-4 the right residual's bound (about 6e-20, with no pi in
    # its angles) is 1e3 to 1e4 times smaller than the left's, so the
    # defect is measured against the sum of the two.  It reads at most 0.98
    # of that sum on these six R_c, and 1.12 on eight more draws, against
    # up to 7.5e3 of the right bound alone
    for a in left.points:
        own = compatibility_residual(a.R, a.theta0, tensile_problem(Rc=R_c))
        mapped = compatibility_residual(-a.R, math.pi - a.theta0, compressive_problem(Rc=R_c))
        assert abs(mapped) <= 4.0 * (mapped.rounding + own.rounding), (a.theta0, mapped, own)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND line 208 in CHANGES.md, ROADMAP item 4: the follower cannot "
                   "split the schedule's last 9.9e-4 into steps of at least theta0/2**12")
def test_roller_right_half_reaches_the_image_of_the_left_start():
    # the left trace completes, and its image reaches R = -89.596 at
    # pi - 1e-4; the right trace keeps the map up to theta0 = 3.1405 and
    # stops at 3.14149 with a predicted |R/R_prev - 1| = 0.316
    left, right = roller_halves(0.9)
    assert_roller_mirror(left, right, 0.9)
    assert right.complete, right.diagnostic


def test_refine_on_trace_matches_local_bisection(traced_tensile, traced_compressive):
    # the trace points carry the assembly they were solved on; the
    # bisection's cold solves agree with the refinement to about 3e-15
    for tr, pr in ((traced_tensile, tensile_problem()),
                   (traced_compressive, compressive_problem())):
        st = refine_on_trace(tr, "phi", math.pi / 4)
        ref = solve_at(pr, tr, lambda p: p.phi, math.pi / 4)
        assert (st.theta0, st.R) == pytest.approx((ref.theta0, ref.R), rel=1e-12, abs=0.0)
        assert st.phi == pytest.approx(math.pi / 4, abs=1e-12)
        assert refine_on_trace(tr, "F", 1e6) is None


@pytest.mark.parametrize("kwargs, n_points", [
    (dict(Rc=0.8429431558737941), 3),
    (dict(Rc=0.8676911466641781, k_r=0.7861721511231718), 4),
])
def test_refine_on_trace_hits_its_target_between_sparse_points(kwargs, n_points):
    # trials seeded by R interpolated between the bracket's points landed on
    # another root past theta0 ~ 0.19, where phi jumps, and brentq converged
    # onto the jump: phi = 1.7451 and 1.7112 were returned for phi = 2
    pr = tensile_problem(**kwargs)
    st = refine_on_trace(trace_branch(pr, np.linspace(1e-4, 2.5, n_points)), "phi", 2.0)
    ref = refine_on_trace(trace_branch(pr, np.linspace(1e-4, 2.5, 600)), "phi", 2.0)
    assert st.phi == pytest.approx(2.0, abs=1e-12)
    assert (st.theta0, st.R) == pytest.approx((ref.theta0, ref.R), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kwargs, schedule", [
    (dict(Rc=0.8312407764289671), [1e-4, 1e-3, 2.8]),
    (dict(Rc=0.7994155293943626, k_r=0.13107339809499474), [1e-3, 1.1e-3, 2.0]),
])
def test_load_sign_event_between_far_sparse_points(kwargs, schedule):
    # each trial of the load-sign refinement started with an unbounded
    # step from the bracket's two points, so the cubic Hermite in ln|R|
    # extrapolated about 3,000 of their spacings, exp overflowed in the
    # predictor and an OverflowError escaped trace_branch
    pr = tensile_problem(**kwargs)
    tr = trace_branch(pr, schedule)
    assert tr.complete, tr.diagnostic
    ev = tr.events["load_sign_transition"]
    dense = trace_branch(pr, np.linspace(schedule[0], schedule[-1], 400))
    ref = dense.events["load_sign_transition"]
    assert ev.phi == pytest.approx(math.pi / 2, abs=1e-12)
    assert (ev.theta0, ev.R) == pytest.approx((ref.theta0, ref.R), rel=1e-12, abs=0.0)


def test_refine_on_trace_solves_each_theta0_once(monkeypatch, traced_tensile):
    # the refined theta0 is one of brentq's trials, each a branch-follower
    # step from the bracket's left point, so its state is not solved again
    thetas = []
    advance = elastica._advance

    def counting(problem, pts, theta0, step=math.inf):
        thetas.append(theta0)
        return advance(problem, pts, theta0, step)

    monkeypatch.setattr(elastica, "_advance", counting)
    st = refine_on_trace(traced_tensile, "phi", math.pi / 4)
    assert st.phi == pytest.approx(math.pi / 4, abs=1e-12)
    assert st.theta0 in thetas
    assert len(thetas) == len(set(thetas))


@pytest.mark.parametrize("branch", ["tensile", "compressive"])
def test_refine_on_trace_solves_the_traced_problem(branch, traced_tensile):
    # each trial is solved on the problem of the trace points.  A problem
    # once passed beside the trace went unchecked: refining a tensile trace
    # of R_c = 0.25 at phi = 1, for theta0 = 0.68426 and R = 0.94334, gave
    # R = 0.99050 with B = 1.05 passed, and with R_c = 0.3 either a state
    # of that problem at theta0 = 0.62050 or a brentq ValueError, by bracket
    if branch == "tensile":
        tr = traced_tensile
    else:
        tr = trace_branch(branch_problem(branch, k_r=0.5), np.linspace(1e-3, 1.5, 20))
    st = refine_on_trace(tr, "phi", 1.0)
    assert st.problem == tr.points[0].problem
    assert st.problem.half == ("left" if branch == "tensile" else "right")
    assert abs(compatibility_residual(st.R, st.theta0, st.problem)) < 1e-13
    if branch == "tensile":
        assert (st.theta0, st.R) == pytest.approx((0.68426, 0.94334), abs=1e-5)


def test_trace_is_deterministic(traced_tensile):
    again = trace_branch(tensile_problem(), SCHEDULE)
    assert len(again.points) == len(traced_tensile.points)
    for a, b in zip(again.points, traced_tensile.points):
        assert a == b
    assert again.events["load_sign_transition"] == traced_tensile.events["load_sign_transition"]


def test_trace_partial_on_bracket_loss():
    # geometry without a tensile bifurcation: the first solve finds no root
    tr = trace_branch(tensile_problem(Rc=1.5), np.geomspace(1e-4, 1.0, 10), seed=1.0)
    assert not tr.complete
    assert len(tr.points) == 0
    assert "no sign change" in tr.diagnostic


def guarded_trace(monkeypatch, problem, schedule):
    """trace_branch with its continuity checks recorded: returns the trace
    and the (previous, new) (R, phi) pairs of the solved steps the guard
    accepted.  The trace's steps are checked to form one chain from the
    first trace point through every later one, and each step of its
    load-sign refinement after them to leave a trace point or end the
    step before.

    A check of a solved step compares the state just solved; the other
    checks compare predictions and are left out.
    """
    solved, steps, refined = [], [], []
    warm, guard = elastica._warm_state, elastica._guard_rejection
    refine = elastica.refine_on_trace

    def solving(theta0, pr, seed):
        st = warm(theta0, pr, seed)
        solved.append((st.R, st.phi))
        return st

    def checking(R, phi, R_prev, phi_prev):
        why = guard(R, phi, R_prev, phi_prev)
        if not why and solved and (R, phi) == solved[-1]:
            steps.append(((R_prev, phi_prev), (R, phi)))
        return why

    def refining(*args):
        refined.append(len(steps))
        return refine(*args)

    monkeypatch.setattr(elastica, "_warm_state", solving)
    monkeypatch.setattr(elastica, "_guard_rejection", checking)
    monkeypatch.setattr(elastica, "refine_on_trace", refining)
    tr = trace_branch(problem, schedule)
    (split,) = refined
    states = [(p.R, p.phi) for p in tr.points]
    # the steps of the cold follow up to the first point lead into it
    first = next((i for i, (a, _) in enumerate(steps[:split]) if a == states[0]), None)
    assert first is not None, "no accepted step leaves the first trace point"
    chain = steps[first:split]
    for (_, b), (c, _) in zip(chain, chain[1:]):
        assert b == c
    walked = iter([chain[0][0], *(b for _, b in chain)])
    assert all(st in walked for st in states), "a trace point is off the chain of steps"
    refinement = steps[split:]
    for (_, b), (c, _) in zip([(None, None), *refinement], refinement):
        assert c == b or c in states, "a refinement step leaves neither a trace point nor a step"
    return tr, chain + refinement


def assert_steps_within_guard(steps):
    for (Ra, phia), (Rb, phib) in steps:
        assert abs(Rb / Ra - 1.0) <= 0.25, (Ra, Rb)
        assert abs(phib - phia) <= 0.5, (phia, phib)


def test_guard_stops_runaway_compressive_branch(monkeypatch):
    # a stiff spring on a wide circle: past theta0 ~ 1.93 the window scan
    # jumped to another branch (phi 0.45 -> 3.43) and later stopped anyway
    pr = compressive_problem(Rc=2.0, k_r=1.0)
    tr, steps = guarded_trace(monkeypatch, pr, np.linspace(1e-4, 3.0, 60))
    assert not tr.complete
    assert "theta0=" in tr.diagnostic and "step halvings" in tr.diagnostic
    # pinned to the message's 6 digits, so that no predictor moves the stop
    assert tr.diagnostic.startswith("stopped at theta0=2.77119 ")
    assert_steps_within_guard(steps)


def test_guard_follows_spring_hinged_compressive_branch(monkeypatch):
    # the window scan jumped phi 1.58 -> 3.95 at theta0 = 2.687 and still
    # reported a complete trace; the nearest root stays on the branch
    pr = compressive_problem(Rc=0.8, k_r=0.5)
    tr, steps = guarded_trace(monkeypatch, pr, np.linspace(1e-4, 2.8, 100))
    assert tr.complete
    assert len(tr.points) == 100
    assert max(abs(b.phi - a.phi) for a, b in zip(tr.points, tr.points[1:])) < 0.1
    assert_steps_within_guard(steps)


def test_guard_stops_instead_of_jumping(monkeypatch):
    # the window scan reported a complete trace across a single step of
    # |dphi| = 13.1; the guarded trace stops and names where
    pr = compressive_problem(k_r=2.0)
    tr, steps = guarded_trace(monkeypatch, pr, np.linspace(1e-4, 2.8, 100))
    assert not tr.complete
    assert "last accepted theta0=" in tr.diagnostic and "rejected R=" in tr.diagnostic
    assert tr.diagnostic.startswith("stopped at theta0=2.46504 ")
    assert tr.points
    assert_steps_within_guard(steps)


def test_follower_repeats_no_solve(monkeypatch):
    # a rejected step that had been cut short at the schedule point halved
    # the uncut step, which could still reach that point: the same solve,
    # from the same seed, ran again and was rejected again
    calls = []
    warm = elastica._warm_state

    def solving(theta0, pr, seed):
        calls.append((theta0, seed))
        return warm(theta0, pr, seed)

    monkeypatch.setattr(elastica, "_warm_state", solving)
    pr = ElasticaProblem(B=1.0, l=1.0, k_r=0.9276487201667345, R_c=0.2886052752897865)
    tr = trace_branch(pr, np.linspace(1e-3, 1.773671988484576, 78))
    assert len(tr.points) > 1
    assert all(a != b for a, b in zip(calls, calls[1:]))


@pytest.mark.parametrize("theta0", [1e-4, 0.3])
@pytest.mark.parametrize("branch", ["tensile", "compressive"])
def test_trace_starts_with_the_cold_solve(theta0, branch):
    # a trace is the cold follower walked through its schedule
    pr = branch_problem(branch, k_r=0.3)
    st = solve_R(theta0, pr)
    tr = trace_branch(pr, [theta0, 2.0 * theta0])
    assert tr.points[0] == st


@pytest.mark.parametrize("branch", ["tensile", "compressive"])
def test_seeded_trace_follows_the_unseeded_one(branch):
    # a seed only moves the first solve; the next step starts from that
    # point alone and the follower picks the branch up from there
    pr, schedule = branch_problem(branch), np.linspace(1e-4, 2.8, 100)
    tr = trace_branch(pr, schedule)
    seeded = trace_branch(pr, schedule, seed=1.001 * tr.points[0].R)
    assert tr.complete and seeded.complete
    for a, b in zip(tr.points, seeded.points, strict=True):
        assert (b.R, b.F, b.phi, b.delta) == pytest.approx((a.R, a.F, a.phi, a.delta), rel=1e-11)


def test_spring_hinged_tensile_trace_stops_as_R_nears_zero():
    # the guard's ratio bound cannot hold as R -> 0 on this branch
    pr = ElasticaProblem(B=1.0, l=1.0, R_c=0.333, k_r=0.894, half="left")
    tr = trace_branch(pr, np.linspace(1e-4, 0.946, 100))
    assert not tr.complete
    at = float(re.search(r"stopped at theta0=(\S+) ", tr.diagnostic).group(1))
    assert at == 0.769539
    assert "past the last accepted theta0=" in tr.diagnostic


# a spring-hinged tensile problem whose follower stops before its schedule
# ends, as R nears zero, keeping two points on either side of phi = pi/2
# (R = 46.19, then 1.441)
STOPPED_BEFORE_REFINEMENT = (1.7491601471353802, 0.8529824103012318, 1.1599756942688444)


def stopped_before_refinement():
    k_r, Rc, theta0 = STOPPED_BEFORE_REFINEMENT
    return trace_branch(tensile_problem(Rc=Rc, k_r=k_r), np.linspace(1e-4, theta0, 3))


def test_load_sign_refinement_steps_from_the_trace_point():
    # the trial at theta0 = 0.4165 was seeded by R = 14.06, interpolated
    # between the points, and found no sign change in [2.81, 70.3]; a
    # follower step from the point at 1e-4 finds the crossing at 0.04255
    tr = stopped_before_refinement()
    assert [p.R for p in tr.points] == pytest.approx([46.186951282713309, 1.4414937842005], rel=1e-12)
    assert tr.points[0].phi < math.pi / 2.0 < tr.points[1].phi
    ev = tr.events["load_sign_transition"]
    assert abs(ev.F) <= 1e-12 * max(abs(p.F) for p in tr.points)
    assert tr.points[0].theta0 < ev.theta0 < tr.points[1].theta0
    assert tr.diagnostic.startswith("stopped at theta0=") and "; " not in tr.diagnostic


def test_trace_keeps_its_points_when_the_load_sign_refinement_fails(monkeypatch):
    # the refinement's ContinuationError escaped trace_branch
    def failing(trace, value, target):
        raise ContinuationError("no sign change (refinement made to fail)")

    monkeypatch.setattr(elastica, "refine_on_trace", failing)
    tr = stopped_before_refinement()
    assert not tr.complete
    assert [p.R for p in tr.points] == pytest.approx([46.186951282713309, 1.4414937842005], rel=1e-12)
    assert "load_sign_transition" not in tr.events
    follower, refinement = tr.diagnostic.split("; ")
    assert follower.startswith("stopped at theta0=")
    assert refinement == ("load-sign refinement at phi = pi/2 failed: "
                          "no sign change (refinement made to fail)")


def test_follower_halves_a_step_whose_solve_fails(monkeypatch):
    # a step whose warm solve raises is halved like a rejected one, and the
    # stop names the last solve's failure
    tried, warm = [], elastica._warm_state

    def failing(theta0, pr, seed):
        tried.append(theta0)
        if theta0 > 0.3:
            raise ContinuationError("no root at theta0=%r" % theta0)
        return warm(theta0, pr, seed)

    monkeypatch.setattr(elastica, "_warm_state", failing)
    tr = trace_branch(tensile_problem(), [0.2, 0.5])
    assert not tr.complete and len(tr.points) == 1
    start = tried.index(0.5)
    assert tried[start:start + 3] == pytest.approx([0.5, 0.35, 0.275], rel=1e-15)
    assert tr.diagnostic.endswith(": no root at theta0=%r" % tried[-1])
    stop = re.search(r"stopped at theta0=(\S+) .* theta0=(\S+):", tr.diagnostic)
    at, last = map(float, stop.groups())
    assert at == pytest.approx(tried[-1], rel=1e-5)
    assert 0.3 - 0.5 / 2**12 < last <= 0.3 < at


def test_shape_export_samples_and_arclength():
    st = solve_R(0.5, tensile_problem())
    shape = shape_export(st, 1000)
    # a list of (s, x1, x2, theta) float tuples
    assert len(shape) == 1000
    assert all(type(row) is tuple and len(row) == 4 for row in shape)
    assert all(type(v) is float for row in shape for v in row)
    assert shape[0] == (0.0, 0.0, 0.0, 0.5)
    _, x1, x2, _ = np.array(shape).T
    seg = np.hypot(np.diff(x1), np.diff(x2))
    assert abs(seg.sum() - 1.0) < 1e-4
    with pytest.raises(ValueError):
        shape_export(st, 1)


def export_states(traces):
    """(key, state, bounds) on both halves: the states of fig7's problem at
    phi = pi/4 and pi/2 on traces, and spring-hinged states at k <= 1
    (k_r = 5), |k - 1| = 1e-8 and k = 1e-3.  bounds (a, r, b) bound
    |row - point-by-point| of their shape_export by a + r |theta| in theta
    and b in x1 and x2.  fig7's are 2e-15 absolute (1.0e-15 measured).
    Elsewhere theta, which grows like 1/k, is within 8 eps (1 + |theta|)
    (5.7 eps max(1, |theta|) measured, at k = 1e-3), and x1 and x2 within
    2e-15 (1.4e-15 measured, next to k = 1)."""
    eps = math.ulp(1.0)
    for trace in traces:
        for phi in (math.pi / 4, math.pi / 2):
            st = refine_on_trace(trace, "phi", phi)
            yield "fig7-%s-%.4f" % (st.problem.half, phi), st, (2e-15, 0.0, 2e-15)
    draws = [(0.8, 0.5, "left", None), (0.8, -0.5, "right", None), (2.5, 3.0, "left", None),
             (1.5, 2.0, "left", 1.0 - 1e-8), (2.2, 0.9, "right", 1.0 + 1e-8),
             (1.5, -2.0, "right", 1.0 - 1e-8), (1.1, -0.7, "left", 1.0 + 1e-8),
             (0.7, 1.7, "left", 1e-3), (2.6, -4.0, "right", 1e-3)]
    for theta0, R, half, k in draws:
        k_r = 5.0 if k is None else spring_for_modulus(theta0, R, k)
        st = make_state(theta0, R, ElasticaProblem(B=1.0, l=1.0, k_r=k_r, R_c=0.3, half=half))
        yield "%s-%g-%g-k%.9g" % (half, theta0, R, st.modulus), st, (8 * eps, 8 * eps, 2e-15)


def test_shape_export_grid_matches_the_point_by_point_rod(traced_tensile, traced_compressive):
    # grid rows are taken off the pin, the others are offsets from the grid
    # row above them; every row is checked against _state_points, which
    # takes each arclength off the pin, and the last row is the residual's
    # own clamp, bit for bit
    for key, st, (a, r, b) in export_states((traced_tensile, traced_compressive)):
        for n in (2, 3, 9, 400, 1000):
            rows = shape_export(st, n)
            assert rows[0] == (0.0, 0.0, 0.0, st.theta0)
            points = elastica._state_points([row[0] for row in rows[1:]], st)
            for (_, x1, x2, theta), ref in zip(rows[1:], points):
                assert abs(theta - ref[0]) <= a + r * abs(ref[0]), (key, n, theta, ref)
                assert abs(x1 - ref[1]) <= b and abs(x2 - ref[2]) <= b, (key, n, x1, x2, ref)
            l = st.problem.l
            assert rows[-1] == (l, *coordinates_at(l, st), theta_at(l, st))
            assert rows[-1][3] == st.phi


def test_shape_export_endpoint_compatibility(traced_tensile):
    # at phi = pi/4 the exported end point satisfies the closure condition
    pr = tensile_problem()
    st = solve_at(pr, traced_tensile, lambda p: p.phi, math.pi / 4)
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
