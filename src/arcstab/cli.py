"""Command line front end for buckling tables, branch traces, profile design.

Every subcommand resolves its settings from built-in defaults, an optional
scenario preset, an optional INI config file, and per-command flags, in
that order of increasing precedence.  Every setting of the command is then
parsed and range-checked by the parser next to its default in _COMMANDS,
before any output is written, and the command runs on the parsed values.
The fully resolved configuration is echoed next to the outputs so a run can
be repeated exactly; all floats print with 17 significant digits and reruns
are byte identical.  The rigid-bar and rod-table outputs are normalized, so
those commands take no k, l or B, and critical-rod's spring_k is the
dimensionless end stiffness k l/B.

Exit codes: 0 success, 2 invalid configuration, 3 singular configuration
reached mid-run (partial output kept), 4 continuation failure (partial
output kept), 5 a profile height missed its quadrature tolerance (partial
output kept).  A command and the library constructors it calls check some
conditions only on the parsed values, before the command writes its first
file; the echo is therefore written when the run ends with 0, 3, 4 or 5,
and exit 2 leaves --out empty.  A setting the command replaces by the
value it used (psi_max of a tabulated law) is echoed with that value.
"""

import argparse
import configparser
import csv
import functools
import math
import os
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable

from . import elastica, onedof, profiledesign, rodlinear
from .branch import linspace
from .errors import (
    ConfigError,
    ContinuationError,
    DegenerateGeometryError,
    QuadratureError,
    SingularConfigurationError,
)

# ------------------------------------------------------------- configuration

def _resolve_config(command, args):
    """The command's settings as text, keyed by name, and the names of the
    settings a scenario, the config file or a flag gave."""
    spec = _COMMANDS[command]
    raw = {key: default for key, (default, _, _) in spec.keys.items()}
    given = set()
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
        raw.update(spec.scenarios[args.scenario])
        given.update(spec.scenarios[args.scenario])
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
            if sec != spec.section:
                raise ConfigError(
                    "unknown config section [%s] for command %s" % (sec, command)
                )
            for key, val in cp[sec].items():
                if key not in raw:
                    raise ConfigError("unknown config key %s.%s" % (sec, key))
                raw[key] = val
                given.add(key)
    for key in raw:
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
            given.add(key)
    return raw, given


def _write_echo(command, raw, out):
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp[_COMMANDS[command].section] = raw
    path = os.path.join(out, command.replace("-", "_") + "_config.ini")
    with open(path, "w", newline="") as fh:
        cp.write(fh)


def _number(kind, least=None):
    """Parser of one finite number of type kind, no smaller than least if given."""
    noun = "an integer" if kind is int else "a number"

    def parse(raw):
        try:
            val = kind(raw)
        except ValueError:
            raise ValueError("not %s: %r" % (noun, raw.strip())) from None
        if kind is float and not math.isfinite(val):
            raise ValueError("need a finite number, got %s" % raw.strip())
        if least is not None and val < least:
            raise ValueError("need at least %g, got %s" % (least, raw.strip()))
        return val

    return parse


_float = _number(float)


def _float_list(raw):
    return [_float(tok) for tok in raw.split(",")] if raw.strip() else []


def _optional_float(raw):
    return _float(raw) if raw.strip() else None


class _Choice:
    """Parser of one of a fixed set of words."""

    def __init__(self, *choices):
        self.choices = choices

    def __call__(self, raw):
        raw = raw.strip()
        if raw not in self.choices:
            raise ValueError("%r is not one of %s" % (raw, ", ".join(self.choices)))
        return raw


def _parse_settings(spec, raw):
    """Every setting of a command parsed by its parser, as attributes."""
    values = {}
    for key, (_, parse, _) in spec.keys.items():
        try:
            values[key] = parse(raw[key])
        except ValueError as exc:
            raise ConfigError("%s.%s: %s" % (spec.section, key, exc)) from None
    return argparse.Namespace(**values)


def _write_rows(path, header, rows, fmt=None):
    """CSV of a header line and one line fmt % row per row tuple; fmt
    defaults to a number with 17 significant digits per header column."""
    if fmt is None:
        fmt = ",".join(["%.16e"] * len(header.split(",")))
    line = fmt + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n" + "".join(line % row for row in rows))


# ------------------------------------------------------------- critical-1dof

def cmd_critical_1dof(opts, out):
    rows = []
    for chi in opts.chi_hat_grid:
        sys_ = onedof.OneDofSystem(k=1.0, l=1.0, phi0=0.0, profile=onedof.profile_circular(chi))
        try:
            fn = onedof.critical_load(sys_)
        except DegenerateGeometryError:
            fn = math.inf
        rows.append((chi, fn))
    _write_rows(os.path.join(out, "critical_1dof.csv"), "chi_hat,Fcr_normalized", rows)
    return 0


# ---------------------------------------------------------------- trace-1dof

def cmd_trace_1dof(opts, out):
    chi, n, t_pad = opts.chi_hat, opts.n_points, opts.t_pad
    if opts.profile == "straight":
        profile = onedof.profile_straight()
        trace_fn = onedof.trace_branch
        lobes = [("trace_1dof.csv", linspace(opts.phi_start, opts.phi_stop, n))]
    else:
        if chi == 0.0:
            raise ConfigError("onedof.chi_hat: curved tracing needs a nonzero curvature")
        # the bar reaches psi = sin(t)/|chi| <= 1 only up to t = asin|chi|
        # on a lobe flatter than the unit circle, and on the unit circle
        # the force is singular past t = pi/2
        t_stop = (math.pi if abs(chi) > 1.0 else math.asin(abs(chi))) - t_pad
        if not t_pad > 0.0:
            # t = 0 is the lobe joint, where the force is singular
            raise ConfigError("onedof.t_pad: need a positive pin-angle margin")
        if not t_pad < t_stop:
            raise ConfigError("onedof.t_pad: no reachable pin angles left on the lobe")
        trace_fn = onedof.trace_branch_arc
        t_grid = linspace(t_pad, t_stop, n)
        if opts.profile == "circular":
            profile = onedof.profile_circular(chi)
            lobes = [("trace_1dof.csv", t_grid)]
        else:
            profile = onedof.profile_s_shaped(abs(chi))
            lobes = [
                ("trace_1dof_tensile.csv", t_grid),
                ("trace_1dof_compressive.csv", linspace(-t_stop, -t_pad, n)),
            ]
    sys_ = onedof.OneDofSystem(k=1.0, l=1.0, phi0=opts.phi0, profile=profile)
    for name, grid in lobes:
        trace = trace_fn(sys_, grid)
        rows = [(p.phi, p.F, p.delta, p.stability) for p in trace.points]
        _write_rows(os.path.join(out, name), "phi,F_normalized,delta_over_l,stability", rows,
                    "%.16e,%.16e,%.16e,%s")
        if not trace.complete:
            print("error: %s" % trace.diagnostic, file=sys.stderr)
            return 3
    return 0


# ------------------------------------------------------------ design-profile

def _tabulated_law(path):
    """The law of a psi,beta table: linear between the rows, constant below
    the first, ending at the last psi; every row's psi is a break."""
    if not path:
        raise ConfigError("profiledesign.table: tabulated law needs a table file")
    try:
        with open(path, newline="") as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:] if row]
    except OSError as exc:
        raise ConfigError("cannot read table: %s" % exc)
    except ValueError as exc:
        raise ConfigError("malformed table %s: %s" % (path, exc))
    if len(rows) < 2 or any(len(row) != 2 for row in rows):
        raise ConfigError("table %s: need at least two psi,beta rows" % path)
    psis, betas = zip(*rows)
    if psis[0] < 0.0 or psis[-1] >= 1.0 or not all(a < b for a, b in zip(psis, psis[1:])):
        raise ConfigError("table %s: psi must increase within [0, 1)" % path)
    if not all(map(math.isfinite, betas)):
        raise ConfigError("table %s: beta must be finite" % path)

    def beta(p):
        # numpy.interp's formula, constant outside the table
        j = bisect_right(psis, p) - 1
        if j < 0 or j == len(psis) - 1:
            return betas[max(j, 0)]
        slope = (betas[j + 1] - betas[j]) / (psis[j + 1] - psis[j])
        return slope * (p - psis[j]) + betas[j]

    return profiledesign.TargetForceLaw(beta=beta, psi_max=psis[-1], breaks=psis[:-1])


def cmd_design_profile(opts, out):
    if opts.law == "constant":
        law = profiledesign.law_constant(opts.beta, psi_max=opts.psi_max)
    elif opts.law == "sinusoidal":
        law = profiledesign.law_sinusoidal(
            base=opts.base, amplitude=opts.amplitude, lobes=opts.lobes, psi_max=opts.psi_max
        )
    elif opts.law == "circular":
        law = profiledesign.law_circular(
            center=opts.center, radius=opts.radius, psi_max=opts.psi_max
        )
    else:
        law = _tabulated_law(opts.table)
        if "psi_max" in opts.given and opts.psi_max != law.psi_max:
            raise ConfigError(
                "profiledesign.psi_max: a tabulated law ends at its last psi, "
                "%r, not at psi_max=%r" % (law.psi_max, opts.psi_max)
            )
        opts.echo["psi_max"] = repr(law.psi_max)

    phi_hi = math.asin(0.95 * law.psi_max)
    if phi_hi < 0.05:
        raise ConfigError(
            "design limit psi_max=%g: the closed-loop check from phi = 0.05 needs "
            "psi_max >= %.6g" % (law.psi_max, math.sin(0.05) / 0.95)
        )
    grid = linspace(0.05, phi_hi, opts.n_validate)
    profile = profiledesign.design_profile(law)
    profiledesign.export_profile_csv(
        profile, os.path.join(out, "profile.csv"), n=opts.n_samples
    )
    worst = profiledesign.closed_loop_validate(profile, law, grid)
    line = "closed_loop_max_error = %.3e over %d phi points in [%.6g, %.6g]" % (
        worst,
        len(grid),
        grid[0],
        grid[-1],
    )
    with open(os.path.join(out, "design_report.txt"), "w", newline="") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


# -------------------------------------------------------------- critical-rod

def cmd_critical_rod(opts, out):
    def rows(k):
        return [
            (chi, m.load_sign, m.mode_index, m.alpha_l, m.F_cr_normalized, m.xi)
            for chi in opts.chi_hat_grid
            for sign in ("tension", "compression")
            for m in rodlinear.find_critical_loads(
                rodlinear.RodModel(B=1.0, l=1.0, k=k, chi_hat=chi), sign,
                alpha_l_max=opts.alpha_l_max, max_modes=opts.max_modes,
            )
        ]

    # every table is computed before the first file is written
    tables = {
        "critical_rod_k0.csv": rows(0.0),
        "critical_rod_spring.csv": rows(opts.spring_k),
        "critical_rod_clamped.csv": rows(math.inf),
    }
    header = "chi_hat,sign,mode_index,alpha_l,Fcr_normalized,xi"
    for name, table in tables.items():
        _write_rows(os.path.join(out, name), header, table, "%.16e,%s,%d,%.16e,%.16e,%.16e")
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
        targets = linspace(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), 5)
        for F in targets:
            st = elastica.refine_on_trace(tens, "F", F)
            sc = elastica.refine_on_trace(comp, "F", F)
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


def _branch_rows(problem, trace):
    """Rows of a branch table: the traced points, with the load-sign event
    inserted in theta0 order, and the load also normalized as
    4 F l^2/(B pi^2)."""
    norm = 4.0 * problem.l**2 / (problem.B * math.pi**2)
    pts = list(trace.points)
    ev = trace.events.get("load_sign_transition")
    if ev is not None and all(abs(ev.theta0 - p.theta0) > 1e-12 for p in pts):
        pts = sorted([*pts, ev], key=lambda p: p.theta0)
    return [(p.theta0, p.R, p.F, p.phi, p.delta, p.F * norm) for p in pts]


def cmd_trace_elastica(opts, out):
    problem = elastica.ElasticaProblem(B=opts.B, l=opts.l, k_r=opts.k_r, R_c=opts.R_c)
    branches = ("tensile", "compressive") if opts.branch == "both" else (opts.branch,)
    if opts.seed is not None and len(branches) > 1:
        raise ConfigError(
            "elastica.seed: a seed serves one branch (tensile reactions are positive, "
            "compressive ones negative); choose tensile or compressive for elastica.branch"
        )
    if not 0.0 < opts.theta0_min < opts.theta0_max:
        raise ConfigError("elastica.theta0_min: need 0 < theta0_min < theta0_max")
    schedule = linspace(opts.theta0_min, opts.theta0_max, opts.n_points)
    if len({"%.6g" % phi for phi in opts.shape_phi}) < len(opts.shape_phi):
        raise ConfigError(
            "elastica.shape_phi: values equal to 6 significant digits share a shape file"
        )

    code = 0
    traces = {}
    for br in branches:
        half = "left" if br == "tensile" else "right"
        trace = elastica.trace_branch(replace(problem, half=half), schedule, seed=opts.seed)
        _write_rows(
            os.path.join(out, "elastica_%s.csv" % br),
            "theta0,R,F,phi,delta,normalized_F",
            _branch_rows(problem, trace),
        )
        if not trace.complete:
            print("error: %s" % trace.diagnostic, file=sys.stderr)
            code = 4
            continue
        traces[br] = trace
        for phi in opts.shape_phi:
            # the trace has refined phi = pi/2 already, as its load-sign event
            if phi == math.pi / 2.0:
                st = trace.events.get("load_sign_transition")
            else:
                st = elastica.refine_on_trace(trace, "phi", phi)
            if st is None:
                print(
                    "note: phi=%.6g outside the traced %s branch, no shape written"
                    % (phi, br),
                    file=sys.stderr,
                )
                continue
            _write_rows(
                os.path.join(out, "shape_%s_phi%.6g.csv" % (br, phi)),
                "s,x1,x2,theta",
                elastica.shape_export(st, opts.shape_samples),
            )
    if {"tensile", "compressive"} <= set(traces):
        _shift_report(os.path.join(out, "branch_shift.txt"), problem, traces)
    return code


# -------------------------------------------------------------------- parser

@dataclass(frozen=True)
class _Command:
    """One subcommand: runner, help line, config section and settings.

    keys maps each setting, in config echo order, to (default, parser,
    help); a parser turns the setting's text into its value or raises
    ValueError.  scenarios maps preset names to overrides of some keys.
    run(opts, out) receives every parsed setting as an attribute of opts,
    with opts.given, the names of the settings a scenario, the config file
    or a flag gave, and opts.echo, the settings as text that the echo file
    will hold.
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
            "chi_hat_grid": ("-4, 0, 4", _float_list, "comma separated signed curvature values"),
        },
        {"fig1": {"chi_hat_grid": "-4, 0, 4"}},
    ),
    "trace-1dof": _Command(
        cmd_trace_1dof,
        "postcritical force-rotation trace of the rigid bar",
        "onedof",
        {
            "profile": (
                "s_shaped", _Choice("s_shaped", "circular", "straight"), "constraint profile"
            ),
            "chi_hat": ("4.0", _float, "signed curvature of the constraint"),
            "phi0": ("0.0", _float, "imperfection angle in radians"),
            "n_points": ("200", _number(int, 1), "number of trace points"),
            "t_pad": ("0.02", _float, "pin-angle margin kept clear of the lobe ends"),
            "phi_start": ("0.05", _float, "first bar rotation of a straight-profile trace"),
            "phi_stop": ("1.2", _float, "last bar rotation of a straight-profile trace"),
        },
        {"fig2": {"profile": "s_shaped", "chi_hat": "4.0", "phi0": "0.0"}},
    ),
    "design-profile": _Command(
        cmd_design_profile,
        "constraint profile producing a prescribed force law",
        "profiledesign",
        {
            "law": (
                "constant",
                _Choice("constant", "sinusoidal", "circular", "tabulated"),
                "target force law",
            ),
            "beta": ("-1.0", _float, "constant target force as F*l/k"),
            "base": ("-1.0", _float, "mean level of the sinusoidal law"),
            "amplitude": ("0.3", _float, "amplitude of the sinusoidal law"),
            "lobes": ("3.0", _float, "oscillation count of the sinusoidal law"),
            "center": ("-0.5", _float, "center level of the circular law"),
            "radius": ("1.5", _float, "radius of the circular law"),
            "psi_max": ("0.99", _float, "upper design limit of psi = sin(phi)"),
            "table": ("", str.strip, "CSV file with psi,beta rows for the tabulated law"),
            "n_samples": ("601", _number(int, 1), "profile samples written to the CSV"),
            "n_validate": ("200", _number(int, 1), "closed-loop validation points"),
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
                _float_list,
                "comma separated signed curvature values",
            ),
            "spring_k": (
                "1.0", _number(float, 0.0), "dimensionless end stiffness k l/B of the spring table"
            ),
            "alpha_l_max": (
                "%.17g" % (6.0 * math.pi), _float, "upper bound of the root scan in alpha*l"
            ),
            "max_modes": ("3", _number(int, 1), "modes kept per load sign"),
        },
    ),
    "trace-elastica": _Command(
        cmd_trace_elastica,
        "postcritical branches of the rod on a circular constraint",
        "elastica",
        {
            "B": ("1.0", _float, "bending stiffness"),
            "l": ("1.0", _float, "structure length"),
            "k_r": ("0.0", _float, "rotational end spring stiffness"),
            "R_c": ("0.25", _float, "constraint circle radius"),
            "branch": ("both", _Choice("tensile", "compressive", "both"), "branches to trace"),
            "theta0_min": ("1e-4", _float, "first end rotation of the continuation schedule"),
            "theta0_max": ("2.8", _float, "last end rotation of the continuation schedule"),
            "n_points": ("100", _number(int, 2), "number of schedule points"),
            "shape_phi": ("", _float_list, "comma separated clamp rotations for shape exports"),
            "shape_samples": ("400", _number(int, 2), "arclength samples per exported shape"),
            "seed": ("", _optional_float, "reaction seed overriding the linearized default"),
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


# the command table is constant, so one parser serves every call in the process
@functools.cache
def _build_parser():
    # a prefix of a flag is refused rather than taken for the flag
    parser = argparse.ArgumentParser(
        description="stability of bars and rods with ends sliding on curved profiles",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help, allow_abbrev=False)
        p.add_argument("--config", help="INI file overriding the defaults")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--scenario", help="named preset (%s)" % _scenario_names())
        for key, (_, parse, key_help) in spec.keys.items():
            if isinstance(parse, _Choice):
                *head, last = parse.choices
                key_help += ": %s or %s" % (", ".join(head), last)
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=key_help)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    spec = _COMMANDS[args.command]
    try:
        raw, given = _resolve_config(args.command, args)
        opts = _parse_settings(spec, raw)
        opts.given, opts.echo = given, raw
        os.makedirs(args.out, exist_ok=True)
        code = spec.run(opts, args.out)
    except (ConfigError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (SingularConfigurationError, DegenerateGeometryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = 3
    except ContinuationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = 4
    except QuadratureError as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = 5
    _write_echo(args.command, raw, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
