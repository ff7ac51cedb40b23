"""Command line front end for buckling tables, branch traces, profile design.

Every subcommand resolves its settings from built-in defaults, an optional
scenario preset, an optional INI config file, and per-command flags, in
that order of increasing precedence.  The fully resolved configuration is
echoed next to the outputs so a run can be repeated exactly; all floats
print with 17 significant digits and reruns are byte identical.

Exit codes: 0 success, 2 invalid configuration, 3 singular configuration
reached mid-run (partial output kept), 4 continuation failure (partial
output kept).
"""

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import elastica, onedof, profiledesign, rodlinear
from .errors import (
    ConfigError,
    ContinuationError,
    DegenerateGeometryError,
    SingularConfigurationError,
)

# ------------------------------------------------------------- configuration

def _resolve_config(command, args):
    spec = _COMMANDS[command]
    cfg = {spec.section: {key: default for key, (default, _) in spec.keys.items()}}
    if args.scenario is not None:
        owner = next((c for c, s in _COMMANDS.items() if args.scenario in s.scenarios), None)
        if owner is None:
            raise ConfigError(
                "unknown scenario %r (choose from %s)" % (args.scenario, _scenario_names())
            )
        if owner != command:
            raise ConfigError(
                "scenario %r belongs to command %r" % (args.scenario, owner)
            )
        cfg[spec.section].update(spec.scenarios[args.scenario])
    if args.config is not None:
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        try:
            with open(args.config) as fh:
                cp.read_file(fh)
        except OSError as exc:
            raise ConfigError("cannot read config file: %s" % exc)
        except configparser.Error as exc:
            raise ConfigError("malformed config file: %s" % exc)
        for sec in cp.sections():
            if sec not in cfg:
                raise ConfigError(
                    "unknown config section [%s] for command %s" % (sec, command)
                )
            for key, val in cp[sec].items():
                if key not in cfg[sec]:
                    raise ConfigError("unknown config key %s.%s" % (sec, key))
                cfg[sec][key] = val
    for sec, keys in cfg.items():
        for key in keys:
            val = getattr(args, key, None)
            if val is not None:
                cfg[sec][key] = val
    return cfg


def _write_echo(command, cfg, out):
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    for sec, keys in cfg.items():
        cp[sec] = keys
    path = os.path.join(out, command.replace("-", "_") + "_config.ini")
    with open(path, "w", newline="") as fh:
        cp.write(fh)


def _cfg_float(cfg, sec, key):
    raw = cfg[sec][key]
    try:
        return float(raw)
    except ValueError:
        raise ConfigError("%s.%s: not a number: %r" % (sec, key, raw.strip()))


def _cfg_int(cfg, sec, key):
    raw = cfg[sec][key]
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("%s.%s: not an integer: %r" % (sec, key, raw.strip()))


def _cfg_float_list(cfg, sec, key):
    raw = cfg[sec][key].strip()
    if not raw:
        return []
    out = []
    for tok in raw.split(","):
        try:
            out.append(float(tok))
        except ValueError:
            raise ConfigError("%s.%s: not a number: %r" % (sec, key, tok.strip()))
    return out


def _cfg_choice(cfg, sec, key, choices):
    raw = cfg[sec][key].strip()
    if raw not in choices:
        raise ConfigError(
            "%s.%s: %r is not one of %s" % (sec, key, raw, ", ".join(choices))
        )
    return raw


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(
                ",".join(v if isinstance(v, str) else "%.16e" % v for v in row)
                + "\n"
            )


# ------------------------------------------------------------- critical-1dof

def cmd_critical_1dof(cfg, out):
    grid = _cfg_float_list(cfg, "onedof", "chi_hat_grid")
    k = _cfg_float(cfg, "onedof", "k")
    l = _cfg_float(cfg, "onedof", "l")
    rows = []
    for chi in grid:
        profile = (
            onedof.profile_straight() if chi == 0.0 else onedof.profile_circular(chi)
        )
        sys_ = onedof.OneDofSystem(k=k, l=l, phi0=0.0, profile=profile)
        try:
            fn = onedof.critical_load(sys_) * l / k
        except DegenerateGeometryError:
            fn = math.inf
        rows.append((chi, fn))
    _write_rows(os.path.join(out, "critical_1dof.csv"), "chi_hat,Fcr_normalized", rows)
    return 0


# ---------------------------------------------------------------- trace-1dof

def cmd_trace_1dof(cfg, out):
    kind = _cfg_choice(cfg, "onedof", "profile", ("s_shaped", "circular", "straight"))
    chi = _cfg_float(cfg, "onedof", "chi_hat")
    k = _cfg_float(cfg, "onedof", "k")
    l = _cfg_float(cfg, "onedof", "l")
    phi0 = _cfg_float(cfg, "onedof", "phi0")
    n = _cfg_int(cfg, "onedof", "n_points")
    t_pad = _cfg_float(cfg, "onedof", "t_pad")
    if n < 1:
        raise ConfigError("onedof.n_points: need at least one trace point")

    if kind == "straight":
        profile = onedof.profile_straight()
        trace_fn = onedof.trace_branch
        grid = np.linspace(
            _cfg_float(cfg, "onedof", "phi_start"),
            _cfg_float(cfg, "onedof", "phi_stop"),
            n,
        )
        lobes = [("trace_1dof.csv", grid)]
    else:
        if chi == 0.0:
            raise ConfigError("onedof.chi_hat: curved tracing needs a nonzero curvature")
        # the bar reaches psi = sin(t)/|chi| <= 1 only up to t = asin|chi|
        # on a lobe flatter than the unit circle, and on the unit circle
        # the force is singular past t = pi/2
        t_stop = (math.pi if abs(chi) > 1.0 else math.asin(abs(chi))) - t_pad
        if not t_pad < t_stop:
            raise ConfigError("onedof.t_pad: no reachable pin angles left on the lobe")
        trace_fn = onedof.trace_branch_arc
        t_grid = np.linspace(t_pad, t_stop, n)
        if kind == "circular":
            profile = onedof.profile_circular(chi)
            lobes = [("trace_1dof.csv", t_grid)]
        else:
            profile = onedof.profile_s_shaped(abs(chi))
            lobes = [
                ("trace_1dof_tensile.csv", t_grid),
                ("trace_1dof_compressive.csv", np.linspace(-t_stop, -t_pad, n)),
            ]
    sys_ = onedof.OneDofSystem(k=k, l=l, phi0=phi0, profile=profile)
    for name, grid in lobes:
        trace = trace_fn(sys_, grid)
        rows = [(p.phi, p.F * l / k, p.delta / l, p.stability) for p in trace.points]
        _write_rows(os.path.join(out, name), "phi,F_normalized,delta_over_l,stability", rows)
        if not trace.complete:
            print("error: %s" % trace.diagnostic, file=sys.stderr)
            return 3
    return 0


# ------------------------------------------------------------ design-profile

def _tabulated_law(path):
    if not path:
        raise ConfigError("profiledesign.table: tabulated law needs a table file")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError("cannot read table: %s" % exc)
    except ValueError as exc:
        raise ConfigError("malformed table %s: %s" % (path, exc))
    if data.shape[0] < 2 or data.shape[1] != 2:
        raise ConfigError("table %s: need at least two psi,beta rows" % path)
    psis, betas = data[:, 0], data[:, 1]
    if psis[0] < 0.0 or psis[-1] >= 1.0 or not np.all(np.diff(psis) > 0.0):
        raise ConfigError("table %s: psi must increase within [0, 1)" % path)
    return profiledesign.TargetForceLaw(
        beta=lambda p: float(np.interp(p, psis, betas)),
        psi_max=float(psis[-1]),
    )


def cmd_design_profile(cfg, out):
    sec = "profiledesign"
    kind = _cfg_choice(cfg, sec, "law", ("constant", "sinusoidal", "circular", "tabulated"))
    if kind == "constant":
        law = profiledesign.law_constant(_cfg_float(cfg, sec, "beta"))
    elif kind == "sinusoidal":
        law = profiledesign.law_sinusoidal(
            base=_cfg_float(cfg, sec, "base"),
            amplitude=_cfg_float(cfg, sec, "amplitude"),
            lobes=_cfg_float(cfg, sec, "lobes"),
            psi_max=_cfg_float(cfg, sec, "psi_max"),
        )
    elif kind == "circular":
        law = profiledesign.law_circular(
            center=_cfg_float(cfg, sec, "center"),
            radius=_cfg_float(cfg, sec, "radius"),
            psi_max=_cfg_float(cfg, sec, "psi_max"),
        )
    else:
        law = _tabulated_law(cfg[sec]["table"].strip())

    profile = profiledesign.design_profile(law)
    profiledesign.export_profile_csv(
        profile, os.path.join(out, "profile.csv"), n=_cfg_int(cfg, sec, "n_samples")
    )
    phi_hi = math.asin(0.95 * law.psi_max)
    grid = np.linspace(0.05, phi_hi, _cfg_int(cfg, sec, "n_validate"))
    worst = profiledesign.closed_loop_validate(profile, law, grid)
    line = "closed_loop_max_error = %.3e over %d phi points in [%.6g, %.6g]" % (
        worst,
        grid.size,
        grid[0],
        grid[-1],
    )
    with open(os.path.join(out, "design_report.txt"), "w", newline="") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


# -------------------------------------------------------------- critical-rod

def cmd_critical_rod(cfg, out):
    sec = "rodlinear"
    grid = _cfg_float_list(cfg, sec, "chi_hat_grid")
    B = _cfg_float(cfg, sec, "B")
    l = _cfg_float(cfg, sec, "l")
    spring_k = _cfg_float(cfg, sec, "spring_k")
    alpha_l_max = _cfg_float(cfg, sec, "alpha_l_max")
    max_modes = _cfg_int(cfg, sec, "max_modes")
    tables = (
        ("critical_rod_k0.csv", dict(k=0.0)),
        ("critical_rod_spring.csv", dict(k=spring_k)),
        ("critical_rod_clamped.csv", dict(k=0.0, clamped=True)),
    )
    for name, extra in tables:
        models = [rodlinear.RodModel(B=B, l=l, chi_hat=c, **extra) for c in grid]
        rodlinear.write_table_csv(
            os.path.join(out, name),
            models,
            alpha_l_max=alpha_l_max,
            max_modes=max_modes,
        )
    return 0


# ------------------------------------------------------------ trace-elastica

def _shift_report(path, problem, traces):
    tens, comp = traces["tensile"], traces["compressive"]
    ft = [p.F for p in tens.points]
    fc = [p.F for p in comp.points]
    lo = max(min(ft), min(fc))
    hi = min(max(ft), max(fc))
    lines = []
    shifts = []
    if lo < hi:
        targets = np.linspace(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), 5)
        for F in targets:
            st = elastica.refine_on_trace(problem, tens, lambda p: p.F, F)
            sc = elastica.refine_on_trace(problem, comp, lambda p: p.F, F)
            if st is None or sc is None:
                continue
            shift = st.delta - sc.delta
            shifts.append(shift)
            lines.append(
                "F = %.6e: delta_t = %.16e delta_c = %.16e shift = %.16e"
                % (F, st.delta, sc.delta, shift)
            )
    if shifts:
        spread = max(shifts) - min(shifts)
        lines.append(
            "max_shift_spread = %.3e (2 R_c = %.6g)" % (spread, 2.0 * problem.R_c)
        )
    else:
        lines.append("max_shift_spread = nan (branches share no load interval)")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_trace_elastica(cfg, out):
    sec = "elastica"
    problem = elastica.ElasticaProblem(
        B=_cfg_float(cfg, sec, "B"),
        l=_cfg_float(cfg, sec, "l"),
        k_r=_cfg_float(cfg, sec, "k_r"),
        R_c=_cfg_float(cfg, sec, "R_c"),
    )
    branch = _cfg_choice(cfg, sec, "branch", ("tensile", "compressive", "both"))
    branches = ("tensile", "compressive") if branch == "both" else (branch,)
    th_min = _cfg_float(cfg, sec, "theta0_min")
    th_max = _cfg_float(cfg, sec, "theta0_max")
    n = _cfg_int(cfg, sec, "n_points")
    if n < 2 or not 0.0 < th_min < th_max:
        raise ConfigError("elastica: need n_points >= 2 and 0 < theta0_min < theta0_max")
    schedule = np.linspace(th_min, th_max, n)
    shape_targets = _cfg_float_list(cfg, sec, "shape_phi")
    if len({"%.6g" % phi for phi in shape_targets}) < len(shape_targets):
        raise ConfigError(
            "elastica.shape_phi: values equal to 6 significant digits share a shape file"
        )
    shape_samples = _cfg_int(cfg, sec, "shape_samples")
    seed = _cfg_float(cfg, sec, "seed") if cfg[sec]["seed"].strip() else None

    code = 0
    traces = {}
    for br in branches:
        trace = elastica.trace_branch(problem, schedule, br, seed=seed)
        pts = list(trace.points)
        ev = trace.events.get("load_sign_transition")
        if ev is not None and all(abs(ev.theta0 - p.theta0) > 1e-12 for p in pts):
            pts = sorted([*pts, ev], key=lambda p: p.theta0)
        elastica.write_branch_csv(
            os.path.join(out, "elastica_%s.csv" % br),
            replace(trace, points=pts),
            problem,
        )
        if not trace.complete:
            print("error: %s" % trace.diagnostic, file=sys.stderr)
            code = 4
            continue
        traces[br] = trace
        for phi in shape_targets:
            st = elastica.refine_on_trace(problem, trace, lambda p: p.phi, phi)
            if st is None:
                print(
                    "note: phi=%.6g outside the traced %s branch, no shape written"
                    % (phi, br),
                    file=sys.stderr,
                )
                continue
            elastica.write_shape_csv(
                os.path.join(out, "shape_%s_phi%.6g.csv" % (br, phi)),
                elastica.shape_export(st, shape_samples),
            )
    if {"tensile", "compressive"} <= set(traces):
        _shift_report(os.path.join(out, "branch_shift.txt"), problem, traces)
    return code


# -------------------------------------------------------------------- parser

@dataclass(frozen=True)
class _Command:
    """One subcommand: runner, help line, config section and settings.

    keys maps each setting, in config echo order, to (default, help);
    scenarios maps preset names to overrides of some of those keys.
    """

    run: Callable
    help: str
    section: str
    keys: dict
    scenarios: dict = field(default_factory=dict)


_COMMANDS = {
    "critical-1dof": _Command(
        cmd_critical_1dof,
        "buckling loads of the rigid bar over a curvature grid",
        "onedof",
        {
            "chi_hat_grid": ("-4, 0, 4", "comma separated signed curvature values"),
            "k": ("1.0", "rotational spring stiffness"),
            "l": ("1.0", "structure length"),
        },
        {"fig1": {"chi_hat_grid": "-4, 0, 4"}},
    ),
    "trace-1dof": _Command(
        cmd_trace_1dof,
        "postcritical force-rotation trace of the rigid bar",
        "onedof",
        {
            "profile": ("s_shaped", "constraint profile: s_shaped, circular or straight"),
            "chi_hat": ("4.0", "signed curvature of the constraint"),
            "k": ("1.0", "rotational spring stiffness"),
            "l": ("1.0", "structure length"),
            "phi0": ("0.0", "imperfection angle in radians"),
            "n_points": ("200", "number of trace points"),
            "t_pad": ("0.02", "pin-angle margin kept clear of the lobe ends"),
            "phi_start": ("0.05", "first bar rotation of a straight-profile trace"),
            "phi_stop": ("1.2", "last bar rotation of a straight-profile trace"),
        },
        {"fig2": {"profile": "s_shaped", "chi_hat": "4.0", "phi0": "0.0"}},
    ),
    "design-profile": _Command(
        cmd_design_profile,
        "constraint profile producing a prescribed force law",
        "profiledesign",
        {
            "law": ("constant", "target force law: constant, sinusoidal, circular or tabulated"),
            "beta": ("-1.0", "constant target force as F*l/k"),
            "base": ("-1.0", "mean level of the sinusoidal law"),
            "amplitude": ("0.3", "amplitude of the sinusoidal law"),
            "lobes": ("3.0", "oscillation count of the sinusoidal law"),
            "center": ("-0.5", "center level of the circular law"),
            "radius": ("1.5", "radius of the circular law"),
            "psi_max": ("0.99", "upper design limit of psi = sin(phi)"),
            "table": ("", "CSV file with psi,beta rows for the tabulated law"),
            "n_samples": ("601", "profile samples written to the CSV"),
            "n_validate": ("200", "closed-loop validation points"),
        },
        {"neutral": {"law": "constant", "beta": "-1.0"}},
    ),
    "critical-rod": _Command(
        cmd_critical_rod,
        "linearized buckling tables for the sliding rod",
        "rodlinear",
        {
            "chi_hat_grid": (
                "-5, -2, -1.25, -1, -0.8, -0.5, 0, 0.5, 1, 2, 5",
                "comma separated signed curvature values",
            ),
            "B": ("1.0", "bending stiffness"),
            "l": ("1.0", "structure length"),
            "spring_k": ("1.0", "end spring stiffness of the spring-hinged table"),
            "alpha_l_max": ("%.17g" % (6.0 * math.pi), "upper bound of the root scan in alpha*l"),
            "max_modes": ("3", "modes kept per load sign"),
        },
    ),
    "trace-elastica": _Command(
        cmd_trace_elastica,
        "postcritical branches of the rod on a circular constraint",
        "elastica",
        {
            "B": ("1.0", "bending stiffness"),
            "l": ("1.0", "structure length"),
            "k_r": ("0.0", "rotational end spring stiffness"),
            "R_c": ("0.25", "constraint circle radius"),
            "branch": ("both", "tensile, compressive or both"),
            "theta0_min": ("1e-4", "first end rotation of the continuation schedule"),
            "theta0_max": ("2.8", "last end rotation of the continuation schedule"),
            "n_points": ("100", "number of schedule points"),
            "shape_phi": ("", "comma separated clamp rotations for shape exports"),
            "shape_samples": ("400", "arclength samples per exported shape"),
            "seed": ("", "reaction seed overriding the linearized default"),
        },
        {
            "fig7": {
                "R_c": "0.25",
                "k_r": "0.0",
                "branch": "both",
                "shape_phi": "0.7853981633974483, 1.5707963267948966",
            }
        },
    ),
}


def _scenario_names():
    return ", ".join(sorted(name for spec in _COMMANDS.values() for name in spec.scenarios))


def _build_parser():
    parser = argparse.ArgumentParser(
        description="stability of bars and rods with ends sliding on curved profiles"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        p.add_argument("--config", help="INI file overriding the defaults")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--scenario", help="named preset (%s)" % _scenario_names())
        for key, (_, key_help) in spec.keys.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=key_help)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args.command, args)
        os.makedirs(args.out, exist_ok=True)
        _write_echo(args.command, cfg, args.out)
        return _COMMANDS[args.command].run(cfg, args.out)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (SingularConfigurationError, DegenerateGeometryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ContinuationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
