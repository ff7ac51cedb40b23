import math
import os
import subprocess
import sys

import numpy as np
import pytest

from arcstab import cli, elastica, profiledesign
from arcstab.errors import ContinuationError, QuadratureError
from arcstab.profiledesign import neutral_profile


def run(args, out):
    return cli.main([*args, "--out", str(out)])


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return header, rows


# ---------------------------------------------------------------- critical-1dof

def test_critical_1dof_default_values(tmp_path):
    assert run(["critical-1dof"], tmp_path) == 0
    header, rows = read_csv(tmp_path / "critical_1dof.csv")
    assert header == "chi_hat,Fcr_normalized"
    got = {float(a): float(b) for a, b in rows}
    assert abs(got[-4.0] - 1.0 / 3.0) < 1e-14
    assert abs(got[0.0] + 1.0) < 1e-14
    assert abs(got[4.0] + 0.2) < 1e-14


def test_critical_1dof_pole_flagged_inf(tmp_path):
    assert run(["critical-1dof", "--chi-hat-grid", "-1"], tmp_path) == 0
    _, rows = read_csv(tmp_path / "critical_1dof.csv")
    assert len(rows) == 1
    assert float(rows[0][1]) == math.inf


def test_critical_1dof_empty_grid(tmp_path):
    assert run(["critical-1dof", "--chi-hat-grid", ""], tmp_path) == 0
    header, rows = read_csv(tmp_path / "critical_1dof.csv")
    assert header == "chi_hat,Fcr_normalized"
    assert rows == []


@pytest.mark.parametrize(
    "argv",
    [
        ["critical-1dof", "--scenario", "fig1"],
        ["trace-1dof", "--scenario", "fig2"],
        ["design-profile", "--scenario", "neutral"],
        ["trace-elastica", "--scenario", "fig7"],
        ["critical-rod"],
        ["trace-1dof", "--profile", "circular"],
        ["design-profile", "--law", "circular"],
    ],
    ids=["fig1", "fig2", "neutral", "fig7", "critical-rod", "trace-1dof-circular",
         "design-profile-circular"],
)
@pytest.mark.filterwarnings("error::arcstab.elastica.MultipleRootWarning")
def test_scenario_reruns_byte_identical(argv, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(argv, a) == 0
    assert run(argv, b) == 0
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and names
    for n in names:
        assert (a / n).read_bytes() == (b / n).read_bytes()


# --------------------------------------------------------------- configuration

def test_config_echo_lists_resolved_values(tmp_path):
    assert run(["critical-rod", "--chi-hat-grid", "2.0"], tmp_path) == 0
    echo = (tmp_path / "critical_rod_config.ini").read_text()
    assert "[rodlinear]" in echo
    assert "chi_hat_grid = 2.0" in echo
    assert "spring_k = 1.0" in echo  # untouched default is echoed too


def test_parser_is_built_once_and_keeps_no_flag(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    assert run(["critical-1dof", "--chi-hat-grid", "2.0"], tmp_path / "a") == 0
    assert run(["critical-1dof"], tmp_path / "b") == 0
    echo = (tmp_path / "b" / "critical_1dof_config.ini").read_text()
    assert "chi_hat_grid = -4, 0, 4" in echo


def test_config_file_overrides_defaults(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[onedof]\nchi_hat_grid = 2.5\n")
    outd = tmp_path / "out"
    assert run(["critical-1dof", "--config", str(cfgfile)], outd) == 0
    _, rows = read_csv(outd / "critical_1dof.csv")
    assert len(rows) == 1
    assert abs(float(rows[0][1]) + 1.0 / 3.5) < 1e-14


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[onedof]\nbogus = 1\n")
    assert run(["critical-1dof", "--config", str(cfgfile)], tmp_path / "o") == 2
    assert "bogus" in capsys.readouterr().err


def test_wrong_scenario_for_command_exits_2(tmp_path, capsys):
    assert run(["critical-rod", "--scenario", "fig1"], tmp_path) == 2
    assert "scenario" in capsys.readouterr().err.lower()


def test_unknown_scenario_exits_2(tmp_path):
    assert run(["critical-1dof", "--scenario", "nope"], tmp_path) == 2


def test_malformed_numeric_exits_2(tmp_path, capsys):
    assert run(["critical-1dof", "--chi-hat-grid", "1, spam"], tmp_path) == 2
    assert "spam" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["critical-rod", "--max-modes", "-1"], "rodlinear.max_modes"),
        (["design-profile", "--n-validate", "0"], "profiledesign.n_validate"),
        (["design-profile", "--n-samples", "0"], "profiledesign.n_samples"),
        (["trace-elastica", "--scenario", "fig7", "--shape-samples", "1"],
         "elastica.shape_samples"),
        (["trace-elastica", "--n-points", "1"], "elastica.n_points"),
        (["critical-rod", "--spring-k", "-1"], "rodlinear.spring_k"),
        # a key the circular profile never reads is still parsed
        (["trace-1dof", "--profile", "circular", "--phi-start", "abc"], "onedof.phi_start"),
        # NaN passes every range check and inf overflows the rod scan's grid size
        (["critical-rod", "--spring-k", "nan"], "rodlinear.spring_k: need a finite number"),
        (["critical-rod", "--alpha-l-max", "inf"],
         "rodlinear.alpha_l_max: need a finite number"),
        (["trace-elastica", "--shape-phi", "0.5, nan"],
         "elastica.shape_phi: need a finite number"),
        (["critical-1dof", "--chi-hat-grid", "-inf, 0"],
         "onedof.chi_hat_grid: need a finite number"),
        # checked after parsing, by the command or by a library constructor,
        # whose message names the quantity
        (["trace-elastica", "--k-r", "-1"], "spring stiffness k_r"),
        (["trace-elastica", "--l", "-1"], "length l"),
        (["trace-elastica", "--B", "0"], "bending stiffness B"),
        (["critical-rod", "--alpha-l-max", "-1"], "alpha_l_max"),
        # past the rod scan's limit cosh overflows, and 1e12 asks for a huge grid
        (["critical-rod", "--alpha-l-max", "800", "--chi-hat-grid=0.5"],
         "alpha_l_max=800 exceeds the scan limit 700"),
        (["critical-rod", "--alpha-l-max", "1e12"],
         "alpha_l_max=1000000000000 exceeds the scan limit 700"),
        (["trace-elastica", "--R-c", "0"], "constraint radius R_c"),
        (["trace-elastica", "--theta0-min", "3"], "elastica.theta0_min"),
        (["trace-1dof", "--profile", "circular", "--chi-hat", "0"], "onedof.chi_hat"),
        (["design-profile", "--beta", "0"], "zero target force"),
        # a margin of 0 starts at the lobe joint, a negative one on the other lobe
        (["trace-1dof", "--t-pad", "0"], "onedof.t_pad: need a positive"),
        (["trace-1dof", "--t-pad=-0.1"], "onedof.t_pad: need a positive"),
        (["design-profile", "--law", "constant", "--psi-max", "0"], "psi_max"),
        (["design-profile", "--law", "constant", "--psi-max", "2"], "psi_max"),
        (["design-profile", "--law", "sinusoidal", "--psi-max", "0"], "psi_max"),
        (["design-profile", "--law", "sinusoidal", "--psi-max", "2"], "psi_max"),
        # the closed-loop check starts at phi = 0.05, past this design limit
        (["design-profile", "--law", "constant", "--psi-max", "0.04"], "psi_max=0.04"),
    ],
    ids=["max-modes", "n-validate", "n-samples", "shape-samples", "elastica-n-points",
         "spring-k", "unused-phi-start", "spring-k-nan", "alpha-l-max-inf", "shape-phi-nan",
         "chi-hat-grid-inf", "elastica-k-r", "elastica-l", "elastica-B",
         "alpha-l-max-negative",
         "alpha-l-max-800", "alpha-l-max-1e12", "R-c",
         "theta0-min", "chi-hat-zero", "beta-zero", "t-pad-zero", "t-pad-negative",
         "constant-psi-max-0", "constant-psi-max-2", "sinusoidal-psi-max-0",
         "sinusoidal-psi-max-2", "psi-max-below-check"],
)
def test_bad_setting_exits_2_before_any_output(argv, message, tmp_path, capsys):
    assert run(argv, tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_normalized_commands_take_no_k_l_or_B():
    # k, l and B divide out of the rigid-bar and rod-table outputs
    keys = {command: list(spec.keys) for command, spec in cli._COMMANDS.items()}
    assert keys["critical-1dof"] == ["chi_hat_grid"]
    assert not {"k", "l"} & set(keys["trace-1dof"])
    assert not {"B", "l"} & set(keys["critical-rod"])
    assert {"B", "l"} <= set(keys["trace-elastica"])
    assert sum(map(len, keys.values())) == 34


@pytest.mark.parametrize(
    "command, key",
    [("critical-1dof", "k"), ("critical-1dof", "l"), ("trace-1dof", "k"),
     ("trace-1dof", "l"), ("critical-rod", "B"), ("critical-rod", "l")],
)
def test_removed_setting_exits_2_before_any_output(command, key, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--" + key, "2.0"], tmp_path / "flag")
    assert exc.value.code == 2
    assert "unrecognized arguments: --%s 2.0" % key in capsys.readouterr().err
    assert not (tmp_path / "flag").exists()
    cfg = tmp_path / "run.ini"
    cfg.write_text("[%s]\n%s = 2.0\n" % (cli._COMMANDS[command].section, key))
    assert run([command, "--config", str(cfg)], tmp_path / "config") == 2
    assert "unknown config key %s.%s" % (cli._COMMANDS[command].section, key) in (
        capsys.readouterr().err)


@pytest.mark.parametrize(
    "command, prefix, flag",
    [("critical-rod", "--spring", "--spring-k"), ("trace-elastica", "--k", "--k-r")],
)
def test_flag_prefix_exits_2_before_any_output(command, prefix, flag, tmp_path, capsys):
    # argparse took a unique prefix for its flag, so both ran and exited 0
    with pytest.raises(SystemExit) as exc:
        run([command, prefix, "0.5"], tmp_path / "prefix")
    assert exc.value.code == 2
    assert "unrecognized arguments: %s 0.5" % prefix in capsys.readouterr().err
    assert not (tmp_path / "prefix").exists()
    # the full name parses as before
    args = cli._build_parser().parse_args([command, flag, "0.5"])
    assert getattr(args, flag[2:].replace("-", "_")) == "0.5"
    assert not (tmp_path / "config").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["critical-1dof", "--config", "{tmp}/missing.ini"], "cannot read config file"),
        (["critical-1dof", "--config", "{tmp}/no_section.ini"],
         "malformed config file: File contains no section headers"),
        (["critical-1dof", "--config", "{tmp}/rod_section.ini"],
         "unknown config section [rodlinear] for command critical-1dof"),
        (["design-profile", "--law", "bogus"],
         "profiledesign.law: 'bogus' is not one of constant, sinusoidal, circular, tabulated"),
        (["design-profile", "--law", "tabulated"],
         "profiledesign.table: tabulated law needs a table file"),
        (["design-profile", "--law", "tabulated", "--table", "{tmp}/missing.csv"],
         "cannot read table"),
        (["design-profile", "--law", "tabulated", "--table", "{tmp}/words.csv"],
         "malformed table"),
        (["design-profile", "--law", "tabulated", "--table", "{tmp}/one_row.csv"],
         "need at least two psi,beta rows"),
        (["design-profile", "--law", "tabulated", "--table", "{tmp}/falling.csv"],
         "psi must increase within [0, 1)"),
    ],
    ids=["config-unreadable", "config-malformed", "config-unknown-section", "law-unknown",
         "table-none", "table-unreadable", "table-malformed", "table-one-row",
         "table-psi-falling"],
)
def test_bad_config_or_table_exits_2_before_any_output(argv, message, tmp_path, capsys):
    (tmp_path / "no_section.ini").write_text("chi_hat_grid = 1\n")
    (tmp_path / "rod_section.ini").write_text("[rodlinear]\nchi_hat_grid = 1\n")
    (tmp_path / "words.csv").write_text("psi,beta\n0,-1\n0.5,spam\n")
    (tmp_path / "one_row.csv").write_text("psi,beta\n0,-1\n")
    (tmp_path / "falling.csv").write_text("psi,beta\n0.5,-1\n0.2,-1\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run([arg.format(tmp=tmp_path) for arg in argv], out) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(out) == []


def test_write_rows_format(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [(0.1, "tension", 3, -5.0), (1.0, "compression", 12, 2.5e-300)]
    cli._write_rows(path, "a,sign,mode_index,b", rows, "%.16e,%s,%d,%.16e")
    assert path.read_text().splitlines() == [
        "a,sign,mode_index,b",
        "1.0000000000000001e-01,tension,3,-5.0000000000000000e+00",
        "1.0000000000000000e+00,compression,12,2.5000000000000000e-300",
    ]
    # without a format every column is a number with 17 significant
    # digits, which round-trips every double
    rows = [(-math.pi, 0.0, 2.5e-300), (np.float64(1.0) / 3.0, math.inf, -1e308)]
    cli._write_rows(path, "a,b,c", rows)
    lines = path.read_text().splitlines()
    assert lines[1] == "-3.1415926535897931e+00,0.0000000000000000e+00,2.5000000000000000e-300"
    assert [[float(c) for c in line.split(",")] for line in lines[1:]] == [list(r) for r in rows]


# ------------------------------------------------------------------ trace-1dof

def test_trace_1dof_s_shaped_writes_both_branches(tmp_path):
    assert run(["trace-1dof", "--scenario", "fig2"], tmp_path) == 0
    ht, rt = read_csv(tmp_path / "trace_1dof_tensile.csv")
    hc, rc = read_csv(tmp_path / "trace_1dof_compressive.csv")
    assert ht == hc == "phi,F_normalized,delta_over_l,stability"
    # branch starts sit next to the two buckling loads of the S profile
    assert abs(float(rt[0][1]) - 1.0 / 3.0) < 5e-3
    assert abs(float(rc[-1][1]) + 0.2) < 5e-3
    assert {r[3] for r in rt} <= {"stable", "unstable", "critical"}


def test_trace_1dof_zero_grid_exits_2(tmp_path):
    assert run(["trace-1dof", "--n-points", "0"], tmp_path) == 2


def test_trace_1dof_singular_midtrace_partial_exit_3(tmp_path, capsys):
    code = run(
        ["trace-1dof", "--profile", "straight", "--phi-start", "-0.1",
         "--phi-stop", "0.1", "--n-points", "3"],
        tmp_path,
    )
    assert code == 3
    _, rows = read_csv(tmp_path / "trace_1dof.csv")
    assert len(rows) == 1  # points before the vertical tangent are kept
    assert "vertical" in capsys.readouterr().err


@pytest.mark.parametrize("profile", ["circular", "s_shaped"])
@pytest.mark.parametrize("chi", ["0.5", "-0.5", "0.99"])
def test_trace_1dof_shallow_lobe_stays_on_reachable_arc(profile, chi, tmp_path):
    # |chi_hat| < 1: the bar reaches the lobe only up to pin angle asin|chi_hat|
    assert run(["trace-1dof", "--profile", profile, "--chi-hat", chi,
                "--n-points", "50"], tmp_path) == 0
    names = sorted(p.name for p in tmp_path.glob("trace_1dof*.csv"))
    assert len(names) == (1 if profile == "circular" else 2)
    for n in names:
        _, rows = read_csv(tmp_path / n)
        assert len(rows) == 50
        assert all(math.isfinite(float(v)) for r in rows for v in r[:3])


def test_trace_1dof_unit_circle_stops_at_quarter_turn(tmp_path):
    # past pin angle pi/2 the unit circle's load path is singular
    assert run(["trace-1dof", "--profile", "circular", "--chi-hat", "1.0"], tmp_path) == 0
    _, rows = read_csv(tmp_path / "trace_1dof.csv")
    assert len(rows) == 200
    assert all(math.isfinite(float(v)) for r in rows for v in r[:3])


def test_trace_1dof_no_reachable_pin_angle_exits_2(tmp_path, capsys):
    # asin(0.01) is below twice the default pad of 0.02
    assert run(["trace-1dof", "--profile", "circular", "--chi-hat", "0.01"], tmp_path) == 2
    assert "onedof.t_pad" in capsys.readouterr().err


def test_trace_1dof_curved_profile_of_zero_curvature_exits_2(tmp_path, capsys):
    # the straight constraint is traced by bar rotation, not by pin angle
    assert run(["trace-1dof", "--profile", "circular", "--chi-hat", "0"], tmp_path) == 2
    assert "onedof.chi_hat" in capsys.readouterr().err
    assert not list(tmp_path.glob("trace_1dof*.csv"))


def test_trace_1dof_imperfection_sign_controls_peak(tmp_path):
    # positive imperfection: interior force peak on the tensile lobe
    assert run(["trace-1dof", "--phi0", "0.01"], tmp_path / "plus") == 0
    _, rows = read_csv(tmp_path / "plus" / "trace_1dof_tensile.csv")
    F = [float(r[1]) for r in rows]
    i = F.index(max(F))
    assert 0 < i < len(F) - 1
    # negative imperfection: no interior peak on the same lobe
    assert run(["trace-1dof", "--phi0", "-0.01"], tmp_path / "minus") == 0
    _, rows = read_csv(tmp_path / "minus" / "trace_1dof_tensile.csv")
    F = [float(r[1]) for r in rows]
    assert F.index(max(F)) in (0, len(F) - 1)


# --------------------------------------------------------------- design-profile

def test_design_profile_constant_matches_closed_form(tmp_path, capsys):
    assert run(["design-profile"], tmp_path) == 0
    header, rows = read_csv(tmp_path / "profile.csv")
    assert header == "psi,f"
    ref = neutral_profile(-1.0)
    for r in rows[:: max(1, len(rows) // 7)]:
        psi, f = float(r[0]), float(r[1])
        assert abs(f - ref.f(psi)) < 1e-10
    report = (tmp_path / "design_report.txt").read_text()
    assert "closed_loop_max_error" in report
    err = float(report.split("=")[1].split()[0])
    assert err < 1e-6
    assert "closed_loop_max_error" in capsys.readouterr().out


def test_design_profile_sinusoidal_roundtrip(tmp_path):
    assert run(["design-profile", "--law", "sinusoidal"], tmp_path) == 0
    err = float((tmp_path / "design_report.txt").read_text().split("=")[1].split()[0])
    assert err < 1e-6


def test_design_profile_constant_law_reads_psi_max(tmp_path):
    assert run(["design-profile", "--law", "constant", "--psi-max", "0.5"], tmp_path) == 0
    _, rows = read_csv(tmp_path / "profile.csv")
    assert float(rows[-1][0]) == 0.5
    report = (tmp_path / "design_report.txt").read_text()
    assert report.split(", ")[-1].strip() == "%.6g]" % math.asin(0.95 * 0.5)
    assert float(report.split("=")[1].split()[0]) < 1e-6


def test_design_profile_zero_target_exits_2(tmp_path):
    assert run(["design-profile", "--beta", "0"], tmp_path) == 2


def test_design_profile_tabulated_law(tmp_path):
    tab = tmp_path / "law.csv"
    tab.write_text(
        "psi,beta\n"
        + "\n".join("%.6f,%.6f" % (p, -1.0) for p in np.linspace(0.0, 0.95, 20))
        + "\n"
    )
    outd = tmp_path / "ok"
    assert run(["design-profile", "--law", "tabulated", "--table", str(tab)], outd) == 0
    err = float((outd / "design_report.txt").read_text().split("=")[1].split()[0])
    assert err < 1e-6


def test_design_profile_tabulated_zero_crossing_exits_2(tmp_path):
    tab = tmp_path / "law.csv"
    tab.write_text(
        "psi,beta\n"
        + "\n".join("%.6f,%.6f" % (p, -1.0 + 2.4 * p) for p in np.linspace(0.0, 0.95, 20))
        + "\n"
    )
    assert run(["design-profile", "--law", "tabulated", "--table", str(tab)],
               tmp_path / "bad") == 2


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
def test_design_profile_tabulated_non_finite_beta_exits_2(tmp_path, capsys, beta):
    # a row 0.5,nan used to pass, write a profile.csv of nan and exit 3 with
    # "load path tangent vertical at phi=0.05"
    tab = tmp_path / "law.csv"
    tab.write_text("psi,beta\n0,-1\n0.5,%s\n0.9,-0.8\n" % beta)
    out = tmp_path / "bad"
    assert run(["design-profile", "--law", "tabulated", "--table", str(tab)], out) == 2
    assert "beta must be finite" in capsys.readouterr().err
    assert os.listdir(out) == []


def _short_table(tmp_path):
    tab = tmp_path / "law.csv"
    tab.write_text("psi,beta\n0,-1\n0.3,-1.2\n")
    return tab


def test_design_profile_tabulated_refuses_other_psi_max(tmp_path, capsys):
    # the table ends at psi = 0.3; a psi_max of 0.9 by flag or config used
    # to be dropped without a word, while the echo still said 0.9
    tab = _short_table(tmp_path)
    argv = ["design-profile", "--law", "tabulated", "--table", str(tab)]
    assert run([*argv, "--psi-max", "0.9"], tmp_path / "flag") == 2
    assert "psi_max" in capsys.readouterr().err
    assert os.listdir(tmp_path / "flag") == []
    cfg = tmp_path / "run.ini"
    cfg.write_text("[profiledesign]\npsi_max = 0.9\n")
    assert run([*argv, "--config", str(cfg)], tmp_path / "config") == 2
    assert os.listdir(tmp_path / "config") == []


def test_design_profile_tabulated_echoes_psi_max_used(tmp_path):
    tab = _short_table(tmp_path)
    argv = ["design-profile", "--law", "tabulated", "--table", str(tab)]
    assert run(argv, tmp_path / "a") == 0
    echo = tmp_path / "a" / "design_profile_config.ini"
    assert "psi_max = 0.3\n" in echo.read_text()
    _, rows = read_csv(tmp_path / "a" / "profile.csv")
    assert float(rows[-1][0]) == 0.3
    # the echo reruns as it stands, and a flag equal to the table's end is kept
    assert run(["design-profile", "--config", str(echo)], tmp_path / "b") == 0
    assert run([*argv, "--psi-max", "0.3"], tmp_path / "c") == 0
    for name in ("profile.csv", "design_report.txt", "design_profile_config.ini"):
        want = (tmp_path / "a" / name).read_bytes()
        assert (tmp_path / "b" / name).read_bytes() == want
        assert (tmp_path / "c" / name).read_bytes() == want


def test_design_profile_quadrature_failure_exits_5(tmp_path, monkeypatch, capsys):
    def unreachable(law):
        raise QuadratureError("requested tolerance 1e-10 unreachable")

    monkeypatch.setattr(profiledesign, "design_profile", unreachable)
    assert run(["design-profile"], tmp_path) == 5
    assert "error: requested tolerance" in capsys.readouterr().err
    assert (tmp_path / "design_profile_config.ini").exists()


def test_design_profile_law_with_large_integral_exits_0(tmp_path):
    # a design-tables draw whose heights below psi = 0.35 were refused (exit
    # 5) although the whole integral met its tolerance
    argv = ["design-profile", "--law", "sinusoidal", "--base=-0.815326169776961",
            "--amplitude=0.47858526690392234", "--lobes=3.755194229385701"]
    assert run(argv, tmp_path) == 0
    _, rows = read_csv(tmp_path / "profile.csv")
    assert len(rows) == 601


# ---------------------------------------------------------------- critical-rod

def test_critical_rod_three_tables(tmp_path):
    assert run(["critical-rod"], tmp_path) == 0
    for name in ("critical_rod_k0.csv", "critical_rod_spring.csv",
                 "critical_rod_clamped.csv"):
        header, rows = read_csv(tmp_path / name)
        assert header == "chi_hat,sign,mode_index,alpha_l,Fcr_normalized,xi"
        assert all(r[1] != "tension" for r in rows if float(r[0]) == 0.5)
        assert all(r[1] in ("tension", "compression") and r[2].isdigit() for r in rows)
        for r in rows[::11]:
            xi, al, Fn = float(r[5]), float(r[3]), float(r[4])
            assert abs(xi * al - math.pi) < 1e-10
            assert abs(xi * math.sqrt(abs(Fn)) - 1.0) < 1e-12
    _, rows = read_csv(tmp_path / "critical_rod_k0.csv")
    for chi in (-5.0, -0.5, 0.0, 2.0):
        comp = [r for r in rows if float(r[0]) == chi and r[1] == "compression"]
        assert len(comp) >= 3


def test_critical_rod_bad_grid_exits_2(tmp_path):
    assert run(["critical-rod", "--chi-hat-grid", "1, spam"], tmp_path) == 2


# -------------------------------------------------------------- trace-elastica

@pytest.fixture(scope="module")
def fig7_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig7")
    assert cli.main(["trace-elastica", "--scenario", "fig7", "--out", str(out)]) == 0
    return out


def test_elastica_branch_files_and_event_row(fig7_dir):
    for br in ("tensile", "compressive"):
        header, rows = read_csv(fig7_dir / f"elastica_{br}.csv")
        assert header == "theta0,R,F,phi,delta,normalized_F"
        th = [float(r[0]) for r in rows]
        assert th == sorted(th)
        ev = [r for r in rows if abs(float(r[3]) - math.pi / 2) < 1e-9]
        assert ev and abs(float(ev[0][2])) < 1e-12
        mid = rows[len(rows) // 2]
        assert abs(float(mid[5]) - 4.0 * float(mid[2]) / math.pi**2) < 1e-14


def test_elastica_shape_files(fig7_dir):
    names = sorted(p.name for p in fig7_dir.glob("shape_*.csv"))
    assert len(names) == 4
    for n in names:
        header, rows = read_csv(fig7_dir / n)
        assert header == "s,x1,x2,theta"
        first = [float(v) for v in rows[0]]
        assert first[:3] == [0.0, 0.0, 0.0]


def test_elastica_shift_report(fig7_dir):
    txt = (fig7_dir / "branch_shift.txt").read_text()
    assert "shift" in txt
    spread = float(txt.splitlines()[-1].split("=")[1].split()[0])
    assert spread < 1e-6


def test_elastica_shift_report_without_a_shared_load(tmp_path):
    # up to theta0 = 0.3 every tensile load is positive and every compressive
    # one negative
    assert run(["trace-elastica", "--theta0-max=0.3", "--n-points=20"], tmp_path) == 0
    txt = (tmp_path / "branch_shift.txt").read_text()
    assert txt == "max_shift_spread = nan (branches share no load interval)\n"


def test_fig7_residual_budget(tmp_path, monkeypatch):
    # the traces walk the cold solve's branch follower through the
    # schedule, predicting each step on the branch tangent, and warm solves
    # run Newton from that seed on the residual's exact slope; the 14
    # refinements run Newton in theta0 on the branch tangent: 505
    # residuals, where refinements by brentq in theta0 made 562,
    # predictions by secants and quadratics 883, brentq on the first
    # bracket 1,661, refinements that solved their bracket ends again
    # 1,764, the window scan 65,591, a trace seeded by the last reaction
    # 2,163, and solves that sampled both sides of the seed at once and the
    # CLI's second refinement of phi = pi/2 2,000.  The lower bound fails a
    # trace whose solves go round compatibility_residual
    calls = []
    residual = elastica.compatibility_residual

    def counting(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(elastica, "compatibility_residual", counting)
    assert run(["trace-elastica", "--scenario", "fig7"], tmp_path) == 0
    assert 492 < len(calls) < 517


def test_fig7_pi_half_shape_is_the_load_sign_event(tmp_path, monkeypatch):
    # each trace refines phi = pi/2 as its load-sign event, and the CLI
    # exports that state rather than refining it again: 14 refinements per
    # fig7 call (2 events, 2 shapes at phi = pi/4 and 10 shift targets)
    traces, exported, refinements = [], {}, []
    trace_branch, shape_export = elastica.trace_branch, elastica.shape_export
    refine_on_trace = elastica.refine_on_trace

    def tracing(*args, **kwargs):
        traces.append(trace_branch(*args, **kwargs))
        return traces[-1]

    def exporting(state, n):
        exported[id(state)] = state
        return shape_export(state, n)

    def refining(*args):
        refinements.append(args)
        return refine_on_trace(*args)

    monkeypatch.setattr(elastica, "trace_branch", tracing)
    monkeypatch.setattr(elastica, "shape_export", exporting)
    monkeypatch.setattr(elastica, "refine_on_trace", refining)
    assert run(["trace-elastica", "--scenario", "fig7"], tmp_path) == 0
    assert len(traces) == 2
    for trace in traces:
        event = trace.events["load_sign_transition"]
        assert exported.get(id(event)) is event
        branch = "tensile" if trace.points[0].problem.half == "left" else "compressive"
        _, rows = read_csv(tmp_path / ("shape_%s_phi1.5708.csv" % branch))
        assert [float(v) for v in rows[-1]] == list(shape_export(event, 400)[-1])
    assert len(refinements) == 14


def test_fig7_refinements_land_on_their_targets(tmp_path, monkeypatch):
    # the 14 refinements of a fig7 call (2 load-sign events, 2 shapes at
    # phi = pi/4 and 10 shift targets in F) run Newton in theta0 on the
    # branch tangent from the root of the cubic Hermite through their
    # bracket ends: every refined field within 2e-15 of its target (9.4e-16
    # at worst, where brentq in theta0 left 1.4e-14 in phi and 8.9e-15 in
    # F) and 71 residuals in all, where brentq took 128
    refined, calls, inside = [], [], []
    residual, refine_on_trace = elastica.compatibility_residual, elastica.refine_on_trace

    def counting(*args):
        if inside:
            calls.append(args)
        return residual(*args)

    def refining(trace, value, target):
        inside.append(True)
        try:
            st = refine_on_trace(trace, value, target)
        finally:
            inside.pop()
        refined.append((getattr(st, value), target))
        return st

    monkeypatch.setattr(elastica, "compatibility_residual", counting)
    monkeypatch.setattr(elastica, "refine_on_trace", refining)
    assert run(["trace-elastica", "--scenario", "fig7"], tmp_path) == 0
    assert len(refined) == 14
    for got, target in refined:
        assert abs(got - target) <= 2e-15, (got, target)
    assert len(calls) < 90


def test_fig7_refinements_solve_no_trace_point_again(tmp_path, monkeypatch):
    # a refinement brackets on the trace points' own values: no warm solve
    # at a trace point's theta0, where each bracket end was solved again
    # (28 solves per fig7 call), and a point on target is returned itself
    traces, solved, refining = [], [], []
    trace_branch, warm = elastica.trace_branch, elastica._warm_state
    refine_on_trace = elastica.refine_on_trace

    def tracing(*args, **kwargs):
        traces.append(trace_branch(*args, **kwargs))
        return traces[-1]

    def solving(theta0, problem, seed):
        if refining:
            solved.append(theta0)
        return warm(theta0, problem, seed)

    def refine(*args):
        refining.append(True)
        try:
            return refine_on_trace(*args)
        finally:
            refining.pop()

    monkeypatch.setattr(elastica, "trace_branch", tracing)
    monkeypatch.setattr(elastica, "_warm_state", solving)
    monkeypatch.setattr(elastica, "refine_on_trace", refine)
    assert run(["trace-elastica", "--scenario", "fig7"], tmp_path) == 0
    assert len(traces) == 2 and solved
    assert not {p.theta0 for trace in traces for p in trace.points} & set(solved)
    for trace in traces:
        for p in trace.points[::9]:
            assert elastica.refine_on_trace(trace, "theta0", p.theta0) is p


def test_elastica_continuation_failure_exits_4(tmp_path, capsys):
    code = run(
        ["trace-elastica", "--R-c", "1.5", "--branch", "tensile",
         "--seed", "1.0", "--n-points", "5"],
        tmp_path,
    )
    assert code == 4
    assert "no sign change" in capsys.readouterr().err
    header, rows = read_csv(tmp_path / "elastica_tensile.csv")
    assert header == "theta0,R,F,phi,delta,normalized_F"
    assert rows == []  # partial data kept, nothing solved here


# a spring-hinged tensile trace that stops as R nears zero, with two points
# on either side of phi = pi/2
STOPPED_BEFORE_REFINEMENT = ["trace-elastica", "--R-c=0.8529824103012318",
                             "--k-r=1.7491601471353802", "--theta0-max=1.1599756942688444",
                             "--n-points=3"]


def test_elastica_stop_before_the_schedule_ends_keeps_the_load_sign_event(tmp_path, capsys):
    # the load-sign trial at theta0 = 0.4165, seeded by R interpolated
    # between the points, found no sign change; a follower step from the
    # first point refines the event, and the follower's stop alone exits 4
    assert run(STOPPED_BEFORE_REFINEMENT, tmp_path) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: stopped at theta0=") and "load-sign" not in err
    _, rows = read_csv(tmp_path / "elastica_tensile.csv")
    assert len(rows) == 3 and abs(float(rows[1][3]) - math.pi / 2) < 1e-12


def test_elastica_failed_load_sign_refinement_exits_4_with_both_tables(tmp_path, capsys,
                                                                       monkeypatch):
    # the tensile trace's load-sign refinement raised out of the command,
    # which exited 4 with no table written
    refine_on_trace = elastica.refine_on_trace

    def failing(trace, value, target):
        if trace.points[0].problem.half == "left":
            raise ContinuationError("no sign change (refinement made to fail)")
        return refine_on_trace(trace, value, target)

    monkeypatch.setattr(elastica, "refine_on_trace", failing)
    assert run(STOPPED_BEFORE_REFINEMENT, tmp_path) == 4
    err = capsys.readouterr().err
    assert "load-sign refinement at phi = pi/2 failed" in err and "Traceback" not in err
    assert len(read_csv(tmp_path / "elastica_tensile.csv")[1]) == 2
    assert len(read_csv(tmp_path / "elastica_compressive.csv")[1]) == 3
    assert not (tmp_path / "branch_shift.txt").exists()


def test_elastica_shape_lands_on_its_phi_between_sparse_points(tmp_path):
    # the shape's refinement, seeded by R interpolated between the points,
    # converged onto a jump of phi to another root and wrote the shape at
    # phi = 1.7451 under the name of phi = 2
    argv = ["trace-elastica", "--R-c=0.8429431558737941", "--n-points=3",
            "--theta0-max=2.5", "--branch=tensile", "--shape-phi=2.0"]
    assert run(argv, tmp_path) == 0
    _, rows = read_csv(tmp_path / "shape_tensile_phi2.csv")
    assert abs(float(rows[-1][3]) - 2.0) < 1e-12


def test_elastica_failed_shape_refinement_exits_4(tmp_path, capsys, monkeypatch):
    # a shape refinement's trials are follower steps, so a follower stop
    # there leaves the command as a ContinuationError
    trace_branch = elastica.trace_branch

    def failing(theta0, problem, seed):
        raise ContinuationError("no root at theta0=%r" % theta0)

    def tracing(*args, **kwargs):
        trace = trace_branch(*args, **kwargs)
        monkeypatch.setattr(elastica, "_warm_state", failing)
        return trace

    monkeypatch.setattr(elastica, "trace_branch", tracing)
    argv = ["trace-elastica", "--branch=tensile", "--n-points=10", "--shape-phi=0.5"]
    assert run(argv, tmp_path) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: stopped at theta0=") and ": no root at theta0=" in err
    assert len(read_csv(tmp_path / "elastica_tensile.csv")[1]) == 11
    assert not list(tmp_path.glob("shape_*.csv"))


def test_elastica_shape_phi_off_the_branch_writes_a_note(tmp_path, capsys):
    argv = ["trace-elastica", "--branch=tensile", "--n-points=10", "--shape-phi=-1"]
    assert run(argv, tmp_path) == 0
    err = capsys.readouterr().err
    assert err == "note: phi=-1 outside the traced tensile branch, no shape written\n"
    assert not list(tmp_path.glob("shape_*.csv"))


def test_elastica_seed_not_a_number_exits_2(tmp_path, capsys):
    assert run(["trace-elastica", "--seed", "abc"], tmp_path) == 2
    assert "elastica.seed: not a number" in capsys.readouterr().err


def test_elastica_shape_phi_file_name_collision_exits_2(tmp_path, capsys):
    # both values print as phi0.785398, so their shape files would collide
    code = run(["trace-elastica", "--shape-phi", "0.7853981633974483, 0.78539816"],
               tmp_path)
    assert code == 2
    assert "elastica.shape_phi" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_elastica_without_viable_seed_exits_2(tmp_path):
    assert run(["trace-elastica", "--R-c", "1.5", "--branch", "tensile"],
               tmp_path) == 2


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["trace-elastica", "--seed=0", "--branch=tensile"], 2),
        (["trace-elastica", "--seed=-0.0", "--branch=tensile"], 2),
        (["trace-elastica", "--seed=1e308", "--branch=tensile"], 4),
        (["trace-elastica", "--R-c=1e6"], 2),
        (["trace-elastica", "--k-r=1e12"], 2),
        (["design-profile", "--beta=1e300"], 3),
    ],
    ids=["seed-zero", "seed-negative-zero", "seed-1e308", "R-c-1e6", "k-r-1e12", "beta-1e300"],
)
def test_extreme_flag_exits_with_documented_code(argv, expected, tmp_path):
    # a zero seed was reported as a continuation failure (exit 4), and a
    # seed of 1e308 overflowed the modulus and raised ZeroDivisionError
    code = run(argv, tmp_path)
    assert code == expected
    if code == 2:
        assert not list(tmp_path.iterdir())


def test_elastica_seed_needs_one_branch(tmp_path, capsys):
    # tensile reactions are positive and compressive ones negative, so one
    # seed for both branches failed one of them (exit 4) on every run
    assert run(["trace-elastica", "--seed=0.7"], tmp_path / "both") == 2
    assert "elastica.seed" in capsys.readouterr().err
    assert not list((tmp_path / "both").iterdir())
    assert run(["trace-elastica", "--seed=0.7", "--branch=tensile"], tmp_path / "one") == 0


# ----------------------------------------------------------------- entry point

def test_module_entry_help():
    # -W error turns the runpy warning about a package that imports its own
    # __main__ module eagerly into a failure
    res = subprocess.run(
        [sys.executable, "-W", "error", "-m", "arcstab.cli", "--help"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert res.stderr == ""
    for cmd in ("critical-1dof", "trace-1dof", "design-profile",
                "critical-rod", "trace-elastica"):
        assert cmd in res.stdout


def test_subcommand_help_documents_every_key(capsys):
    for command, spec in cli._COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
        for flag in ("--config", "--out", "--scenario"):
            assert flag in text
        for key, (_, _, key_help) in spec.keys.items():
            assert "--%s %s %s" % (key.replace("_", "-"), key.upper(), key_help) in text
    # a choice key's help lists its parser's choices
    for command, line in (
        ("trace-1dof", "--profile PROFILE constraint profile: s_shaped, circular or straight"),
        ("design-profile",
         "--law LAW target force law: constant, sinusoidal, circular or tabulated"),
        ("trace-elastica", "--branch BRANCH branches to trace: tensile, compressive or both"),
    ):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert line in " ".join(capsys.readouterr().out.split())
    with pytest.raises(SystemExit):
        cli.main(["trace-elastica", "--help"])
    assert "--R-c R_C constraint circle radius" in " ".join(capsys.readouterr().out.split())
