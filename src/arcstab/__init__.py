"""Buckling and postcritical analysis of elastic structures whose ends slide
on curved constraints: rigid-bar systems, inverse constraint design, the
linearized rod, and the full nonlinear elastica on circular constraints.

The modules keep their own namespaces (both onedof and elastica trace
branches, for instance); only the core model types and entry points are
lifted to the package level.
"""

from . import elastica, elliptic, onedof, profiledesign, rodlinear
from .elastica import ElasticaProblem, solve_R
from .onedof import (
    OneDofSystem,
    critical_load,
    equilibrium_force,
    profile_circular,
    profile_s_shaped,
    profile_straight,
)
from .profiledesign import design_profile, neutral_profile
from .rodlinear import RodModel, critical_force, find_critical_loads

__all__ = [
    "elastica",
    "elliptic",
    "onedof",
    "profiledesign",
    "rodlinear",
    "ElasticaProblem",
    "solve_R",
    "OneDofSystem",
    "critical_load",
    "equilibrium_force",
    "profile_circular",
    "profile_s_shaped",
    "profile_straight",
    "design_profile",
    "neutral_profile",
    "RodModel",
    "critical_force",
    "find_critical_loads",
]

__version__ = "0.1.0"
