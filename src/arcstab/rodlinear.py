"""Linearized buckling of a rod clamped at one end and sliding on a circle.

The straight prestressed state has transverse perturbation v(z) obeying
B v'''' - F v'' = 0 with alpha^2 = |F|/B.  The sliding end follows a circular
profile of signed dimensionless curvature chi_hat = +-l/R_c and carries a
rotational spring k; chi_hat = 0 is the straight-constraint limit and k -> inf
the clamped limit.  Critical loads are roots in x = alpha*l of a transcendental
characteristic function, evaluated here in separately derived real forms for
tension and compression.
"""

import math
from dataclasses import dataclass

import numpy as np

from .branch import refine, sign_changes

__all__ = [
    "RodModel",
    "BucklingMode",
    "characteristic",
    "find_critical_loads",
    "critical_force",
    "effective_length_factor",
    "mode_shape",
]

_SIGNS = {"tension": 1.0, "compression": -1.0}
_DEFAULT_STEP = math.pi / 50.0


@dataclass(frozen=True)
class RodModel:
    """Rod of bending stiffness B and length l on a curved sliding support."""

    B: float
    l: float
    k: float = 0.0
    chi_hat: float = 0.0
    clamped: bool = False

    def __post_init__(self):
        if not self.B > 0.0:
            raise ValueError("bending stiffness B must be positive")
        if not self.l > 0.0:
            raise ValueError("length l must be positive")
        if not self.k >= 0.0:
            raise ValueError("spring stiffness k must be nonnegative")


@dataclass(frozen=True)
class BucklingMode:
    load_sign: str
    alpha_l: float
    F_cr_normalized: float
    xi: float
    mode_index: int


def _load_sign(load_sign):
    try:
        return _SIGNS[load_sign]
    except KeyError:
        raise ValueError("load_sign must be 'tension' or 'compression'") from None


def characteristic(alpha_l, load_sign, model):
    """Characteristic function whose positive roots are the critical loads.

    Tension keeps the hyperbolic form; compression uses the trigonometric
    reduction (cosh(ix) = cos x, sinh(ix) = i sin x, the i factors cancel).
    The clamped limit keeps only the spring bracket; chi_hat = 0 divides
    through by the diverging 1/|chi_hat| factor first.
    """
    sgn = _load_sign(load_sign)
    if not alpha_l > 0.0:
        raise ValueError("alpha_l must be positive")
    x = alpha_l
    chi = model.chi_hat
    if chi == 0.0:
        if sgn > 0.0:
            first, bracket = x * math.cosh(x), x * math.sinh(x)
        else:
            first, bracket = -x * math.cos(x), -x * math.sin(x)
    else:
        s = math.copysign(1.0, chi)
        a = 1.0 / abs(chi) + s
        if sgn > 0.0:
            first = a * x * math.cosh(x) - s * math.sinh(x)
            bracket = a * x * math.sinh(x) + s * (1.0 - math.cosh(x))
        else:
            first = -a * x * math.cos(x) + s * math.sin(x)
            bracket = -a * x * math.sin(x) + s * (1.0 - math.cos(x))
    if model.clamped:
        return bracket
    return first + model.k * model.l / (model.B * x) * bracket


def find_critical_loads(model, load_sign, alpha_l_max=6.0 * math.pi,
                        max_modes=None, step=_DEFAULT_STEP):
    """All characteristic roots in (0, alpha_l_max], sorted, as BucklingMode.

    Sign changes on the grid step * (1e-3, 1, 2, ...), refined by brentq.
    Near zero the function is a power of x times a constant, e.g.
    -x (1/|chi_hat| + (k l/B)(1/|chi_hat| + sgn(chi_hat)/2)) in compression,
    so the first sample keeps a root below step.  The clamped
    chi_hat = -1 case degenerates: 1/|chi_hat| + sgn(chi_hat) = 0 and the
    compression equation collapses to -(1 - cos x), touching zero at
    x = 2 pi n without a sign change, so those roots are emitted analytically.
    """
    sgn = _load_sign(load_sign)
    if not 0.0 < alpha_l_max < math.inf:
        raise ValueError("alpha_l_max must be positive and finite")
    if max_modes is not None and max_modes < 1:
        raise ValueError("max_modes must be at least 1")
    if model.clamped and model.chi_hat == -1.0:
        roots = []
        if sgn < 0.0:
            n = 1
            while 2.0 * math.pi * n <= alpha_l_max * (1.0 + 1e-15):
                roots.append(2.0 * math.pi * n)
                n += 1
    else:
        f = lambda x: characteristic(x, load_sign, model)
        count = int(alpha_l_max / step + 1e-9)
        xs = step * np.concatenate(([1e-3], np.arange(1, count + 1)))
        roots = [refine(f, xs, i, j, 1e-14) for i, j in sign_changes([f(x) for x in xs])]
    if max_modes is not None:
        roots = roots[:max_modes]
    return [
        BucklingMode(load_sign=load_sign, alpha_l=x,
                     F_cr_normalized=sgn * x**2 / math.pi**2, xi=math.pi / x,
                     mode_index=i)
        for i, x in enumerate(roots, start=1)
    ]


def critical_force(mode, model):
    """Signed dimensional critical load of a mode, F = sgn * B (alpha_l/l)^2."""
    return _SIGNS[mode.load_sign] * model.B * (mode.alpha_l / model.l) ** 2


def effective_length_factor(F_cr, model):
    """xi = pi sqrt(B/|F_cr|)/l, so that |F_cr| = pi^2 B/(xi l)^2."""
    if F_cr == 0.0:
        raise ValueError("effective length factor undefined at zero load")
    return math.pi * math.sqrt(model.B / abs(F_cr)) / model.l


def _bc_system(x, sgn, model):
    # homogeneous system in (C1..C4, phi): v(0) = 0, v'(0) = 0, shear balance
    # sgn F/alpha^2 v'''(l) = phi + v'(l) (via the first integral of the ODE it
    # collapses to C3 = -phi, i.e. transverse end reaction = -F phi), moment
    # balance -B v''(l) = k (phi + v'(l)) (clamped: phi + v'(l) = 0),
    # compatibility phi = chi v(l)/l
    B, l, k, chi = model.B, model.l, model.k, model.chi_hat
    alpha = x / l
    if sgn > 0.0:
        b1, b2 = math.cosh(x), math.sinh(x)
        d1, d2 = alpha * math.sinh(x), alpha * math.cosh(x)
        w1, w2 = B * alpha**2 * math.cosh(x), B * alpha**2 * math.sinh(x)
    else:
        b1, b2 = math.cos(x), math.sin(x)
        d1, d2 = -alpha * math.sin(x), alpha * math.cos(x)
        w1, w2 = -B * alpha**2 * math.cos(x), -B * alpha**2 * math.sin(x)
    rows = [
        [1.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, alpha, 1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, -1.0],
    ]
    if model.clamped:
        rows.append([d1, d2, 1.0, 0.0, 1.0])
    else:
        rows.append([-w1 - k * d1, -w2 - k * d2, -k, 0.0, -k])
    rows.append([-(chi / l) * b1, -(chi / l) * b2, -chi, -chi / l, 1.0])
    return np.array(rows)


def mode_shape(mode, model, n_samples=201):
    """Sampled buckling shape (z, v, phi), null vector of the BC system.

    Normalized so that the sample of largest magnitude equals +1; phi is the
    end rotation carried by the same null vector, scaled identically.
    """
    sgn = _load_sign(mode.load_sign)
    M = _bc_system(mode.alpha_l, sgn, model)
    _, sv, vt = np.linalg.svd(M)
    if sv[-1] > 1e-6 * sv[0]:
        raise ValueError("alpha_l is not a critical load of this model")
    coeffs = vt[-1]
    alpha = mode.alpha_l / model.l
    z = np.linspace(0.0, model.l, n_samples)
    if sgn > 0.0:
        basis = np.stack([np.cosh(alpha * z), np.sinh(alpha * z), z,
                          np.ones_like(z)])
    else:
        basis = np.stack([np.cos(alpha * z), np.sin(alpha * z), z,
                          np.ones_like(z)])
    v = coeffs[:4] @ basis
    peak = v[np.argmax(np.abs(v))]
    return z, v / peak, coeffs[4] / peak
