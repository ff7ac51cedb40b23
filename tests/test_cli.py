import math
import os
import subprocess
import sys

import numpy as np
import pytest

from arcstab import cli, elastica
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
    "command, scenario",
    [
        ("critical-1dof", "fig1"),
        ("trace-1dof", "fig2"),
        ("design-profile", "neutral"),
        ("trace-elastica", "fig7"),
    ],
    ids=["fig1", "fig2", "neutral", "fig7"],
)
@pytest.mark.filterwarnings("error::arcstab.elastica.MultipleRootWarning")
def test_scenario_reruns_byte_identical(command, scenario, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run([command, "--scenario", scenario], a) == 0
    assert run([command, "--scenario", scenario], b) == 0
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and names
    for n in names:
        assert (a / n).read_bytes() == (b / n).read_bytes()


# --------------------------------------------------------------- configuration

def test_config_echo_lists_resolved_values(tmp_path):
    assert run(["critical-1dof", "--k", "2.0"], tmp_path) == 0
    echo = (tmp_path / "critical_1dof_config.ini").read_text()
    assert "[onedof]" in echo
    assert "k = 2.0" in echo
    assert "l = 1.0" in echo  # untouched default is echoed too


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


# ---------------------------------------------------------------- critical-rod

def test_critical_rod_three_tables(tmp_path):
    assert run(["critical-rod"], tmp_path) == 0
    for name in ("critical_rod_k0.csv", "critical_rod_spring.csv",
                 "critical_rod_clamped.csv"):
        header, rows = read_csv(tmp_path / name)
        assert header == "chi_hat,sign,mode_index,alpha_l,Fcr_normalized,xi"
        assert all(r[1] != "tension" for r in rows if float(r[0]) == 0.5)
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


def test_fig7_residual_budget(tmp_path, monkeypatch):
    # warm solves widen from their seed instead of scanning a 200-point
    # window: 3,544 residuals where the window scan made 65,591
    calls = []
    residual = elastica.compatibility_residual

    def counting(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(elastica, "compatibility_residual", counting)
    assert run(["trace-elastica", "--scenario", "fig7"], tmp_path) == 0
    assert len(calls) < 5000


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


def test_subcommand_help_documents_every_key():
    res = subprocess.run(
        [sys.executable, "-m", "arcstab.cli", "trace-elastica", "--help"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    for flag in ("--config", "--out", "--scenario", "--R-c", "--k-r",
                 "--theta0-min", "--shape-phi", "--seed"):
        assert flag in res.stdout
    assert "constraint circle radius" in res.stdout
