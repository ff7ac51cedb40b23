import numpy as np
import pytest
from scipy.integrate import quad

from arcstab.errors import QuadratureError
from arcstab.onedof import OneDofSystem, ProfileShape, elongation, equilibrium_force
from arcstab.profiledesign import (
    TargetForceLaw,
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
