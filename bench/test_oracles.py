"""Each oracle accepts the program's output and rejects a corrupted copy.

    python3 -m pytest bench/test_oracles.py

The outputs come from running the program here, once per module; the
corruptions are small (a 1e-6 relative change, a dropped row, a flipped
sign) so that a check passing on them would show it is too loose.
"""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import workloads  # noqa: E402
from arcstab import cli, elastica  # noqa: E402
from oracles import CheckError  # noqa: E402


def corrupt(src, dst, edit):
    """Copy text file src to dst with its lines passed through edit."""
    lines = Path(src).read_text().splitlines()
    Path(dst).write_text("\n".join(edit(lines)) + "\n")
    return str(dst)


def scale_cell(line, col, factor):
    cells = line.split(",")
    cells[col] = "%.16e" % (float(cells[col]) * factor)
    return ",".join(cells)


def edit_row(i, col, factor):
    def edit(lines):
        lines[i] = scale_cell(lines[i], col, factor)
        return lines

    return edit


def drop_row(i):
    def edit(lines):
        del lines[i]
        return lines

    return edit


def run_cli(argv, out):
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out


# ------------------------------------------------------------------ elastica


@pytest.fixture(scope="module")
def fig7(tmp_path_factory):
    return run_cli(["trace-elastica", "--scenario", "fig7"], tmp_path_factory.mktemp("fig7"))


def branch(fig7, name, path=None, **kw):
    half = "left" if name == "tensile" else "right"
    return oracles.check_branch_csv(path or str(fig7 / ("elastica_%s.csv" % name)),
                                    half=half, schedule=workloads.FIG7_SCHEDULE,
                                    **workloads.FIG7, **kw)


@pytest.mark.parametrize("name", ["tensile", "compressive"])
def test_branch_accepts_program_output(fig7, name):
    branch(fig7, name)


@pytest.mark.parametrize(
    "edit",
    [edit_row(50, 1, 1.0 + 1e-6), edit_row(20, 3, 1.0 + 1e-8), edit_row(30, 4, 1.0 + 1e-6),
     edit_row(60, 2, -1.0), drop_row(70), drop_row(44)],
    ids=["R", "phi", "delta", "F-sign", "dropped-row", "dropped-load-sign-row"],
)
def test_branch_rejects_corruption(fig7, tmp_path, edit):
    bad = corrupt(fig7 / "elastica_tensile.csv", tmp_path / "t.csv", edit)
    with pytest.raises(CheckError):
        branch(fig7, "tensile", bad)


def test_cold_states_and_corruptions():
    prob = dict(B=1.0, l=1.0, k_r=0.3, R_c=0.5, half="right")
    st = elastica.solve_R(0.4, elastica.ElasticaProblem(**prob))
    state = [st.theta0, st.R, st.phi, st.F, st.delta]
    oracles.check_elastica_state(*state, **prob)
    for col, factor in ((1, 1.0 + 1e-6), (2, 1.0 + 1e-8), (3, -1.0), (4, 1.0 + 1e-6)):
        bad = list(state)
        bad[col] *= factor
        with pytest.raises(CheckError):
            oracles.check_elastica_state(*bad, **prob)
    with pytest.raises(CheckError):
        oracles.check_elastica_state(*state, **dict(prob, k_r=0.0))


def shape(fig7, path, name="tensile", phi=math.pi / 2):
    half = "left" if name == "tensile" else "right"
    rows = branch(fig7, name)
    oracles.check_shape_csv(path, rows, half=half, phi_target=phi,
                            samples=workloads.FIG7_SHAPE_SAMPLES, **workloads.FIG7)


@pytest.mark.parametrize("name", ["tensile", "compressive"])
@pytest.mark.parametrize("phi", workloads.FIG7_SHAPE_PHI)
def test_shape_accepts_program_output(fig7, name, phi):
    shape(fig7, str(fig7 / ("shape_%s_phi%.6g.csv" % (name, phi))), name, phi)


@pytest.mark.parametrize(
    "edit",
    [edit_row(1, 3, 1.0 + 1e-6), edit_row(200, 2, 1.0 + 1e-8), edit_row(300, 1, -1.0),
     drop_row(150)],
    ids=["theta0", "x2", "x1-sign", "dropped-row"],
)
def test_shape_rejects_corruption(fig7, tmp_path, edit):
    bad = corrupt(fig7 / "shape_tensile_phi1.5708.csv", tmp_path / "s.csv", edit)
    with pytest.raises(CheckError):
        shape(fig7, bad)


def test_branch_shift(fig7, tmp_path):
    path = fig7 / "branch_shift.txt"
    oracles.check_branch_shift(str(path), R_c=0.25, l=1.0)

    def shift(lines):
        lines[2] = lines[2].replace("shift = 5.0", "shift = 5.1")
        return lines

    for edit in (shift, drop_row(0)):
        bad = corrupt(path, tmp_path / "b.txt", edit)
        with pytest.raises(CheckError):
            oracles.check_branch_shift(bad, R_c=0.25, l=1.0)
    with pytest.raises(CheckError):
        oracles.check_branch_shift(str(path), R_c=0.26, l=1.0)


# ------------------------------------------------------------- rigid bar


def test_critical_1dof(tmp_path):
    grid = [-5.5, -1.5, -0.5, 0.0, 2.25, 6.0]
    out = run_cli(["critical-1dof", "--chi-hat-grid=" + ",".join(map(repr, grid))], tmp_path)
    path = out / "critical_1dof.csv"
    oracles.check_critical_1dof(str(path), grid=grid)
    for edit in (edit_row(3, 1, -1.0), drop_row(2), edit_row(5, 1, 1.0 + 1e-12)):
        bad = corrupt(path, tmp_path / "c.csv", edit)
        with pytest.raises(CheckError):
            oracles.check_critical_1dof(bad, grid=grid)


@pytest.fixture(scope="module")
def s_shaped(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace1dof")
    return run_cli(["trace-1dof", "--profile", "s_shaped", "--chi-hat=3.5", "--phi0=-0.013"], out)


def trace_1dof(path, lobe=-3.5, grid=None):
    t = np.linspace(0.02, math.pi - 0.02, 200) if grid is None else grid
    oracles.check_trace_1dof(path, chi=lobe, phi0=-0.013, t_grid=t, lobe_of_phi0=3.5)


def test_trace_1dof_accepts_program_output(s_shaped):
    trace_1dof(str(s_shaped / "trace_1dof_tensile.csv"))
    trace_1dof(str(s_shaped / "trace_1dof_compressive.csv"), 3.5,
               np.linspace(-math.pi + 0.02, -0.02, 200))


def flip_label(lines):
    i = next(i for i, line in enumerate(lines) if line.endswith(",unstable"))
    lines[i] = lines[i].replace(",unstable", ",stable")
    return lines


@pytest.mark.parametrize(
    "edit",
    [edit_row(40, 1, 1.0 + 1e-6), edit_row(90, 2, 1.0 + 1e-6), edit_row(10, 0, 1.0 + 1e-6),
     edit_row(120, 1, -1.0), drop_row(77), flip_label],
    ids=["F", "delta", "phi", "F-sign", "dropped-row", "stability"],
)
def test_trace_1dof_rejects_corruption(s_shaped, tmp_path, edit):
    bad = corrupt(s_shaped / "trace_1dof_tensile.csv", tmp_path / "t.csv", edit)
    with pytest.raises(CheckError):
        trace_1dof(bad)


# ------------------------------------------------------------ profile design


@pytest.fixture(scope="module")
def sinusoidal(tmp_path_factory):
    out = tmp_path_factory.mktemp("profile")
    return run_cli(["design-profile", "--law", "sinusoidal", "--base=-1.2",
                    "--amplitude=0.4", "--lobes=2.5"], out)


SINE = dict(base=-1.2, amplitude=0.4, lobes=2.5)


def test_profile_accepts_program_output(sinusoidal):
    oracles.check_profile_csv(str(sinusoidal / "profile.csv"), law="sinusoidal", params=SINE,
                              psi_max=0.99, samples=601)
    oracles.check_design_report(str(sinusoidal / "design_report.txt"), n_validate=200)


@pytest.mark.parametrize("edit",
                         [edit_row(300, 1, 1.0 + 1e-8), drop_row(600), edit_row(5, 0, -1.0)],
                         ids=["f", "dropped-row", "psi-sign"])
def test_profile_rejects_corruption(sinusoidal, tmp_path, edit):
    bad = corrupt(sinusoidal / "profile.csv", tmp_path / "p.csv", edit)
    with pytest.raises(CheckError):
        oracles.check_profile_csv(bad, law="sinusoidal", params=SINE, psi_max=0.99, samples=601)


def test_profile_rejects_other_law(sinusoidal):
    with pytest.raises(CheckError):
        oracles.check_profile_csv(str(sinusoidal / "profile.csv"), law="sinusoidal",
                                  params=dict(SINE, lobes=2.5 + 1e-6), psi_max=0.99, samples=601)


def test_design_report_rejects_large_error(sinusoidal, tmp_path):
    def loosen(lines):
        lines[0] = re.sub(r"= \S+ over", "= 2.000e-06 over", lines[0])
        return lines

    bad = corrupt(sinusoidal / "design_report.txt", tmp_path / "r.txt", loosen)
    with pytest.raises(CheckError):
        oracles.check_design_report(bad, n_validate=200)


# --------------------------------------------------------------- linear rod


def test_rod_determinant_matches_quarter_circle_equations():
    # R_c = l/4: tanh x = 3x/4 in tension, tan x = 5x/4 in compression
    x_t = oracles.first_rod_root("tension", chi=-4.0, k=0.0, B=1.0, l=1.0)
    x_c = oracles.first_rod_root("compression", chi=4.0, k=0.0, B=1.0, l=1.0)
    assert abs(math.tanh(x_t) - 0.75 * x_t) < 1e-15
    assert abs(math.tan(x_c) - 1.25 * x_c) < 1e-14


ROD_GRID = [-5.0, -2.5, -1.25, -0.8, -0.5, 0.0, 0.5, 1.0, 3.0]


@pytest.fixture(scope="module")
def rod(tmp_path_factory):
    out = tmp_path_factory.mktemp("rod")
    return run_cli(["critical-rod", "--chi-hat-grid=" + ",".join(map(repr, ROD_GRID)),
                    "--spring-k=2.5"], out)


TABLES = [("critical_rod_k0.csv", 0.0, False), ("critical_rod_spring.csv", 2.5, False),
          ("critical_rod_clamped.csv", 0.0, True)]


def rod_table(path, k, clamped):
    oracles.check_rod_table(path, grid=ROD_GRID, B=1.0, l=1.0, k=k, clamped=clamped,
                            alpha_l_max=6.0 * math.pi, max_modes=3)


@pytest.mark.parametrize("name,k,clamped", TABLES)
def test_rod_accepts_program_output(rod, name, k, clamped):
    rod_table(str(rod / name), k, clamped)


@pytest.mark.parametrize("edit", [drop_row(7), edit_row(4, 3, 1.0 + 1e-6), edit_row(9, 4, -1.0),
                                  edit_row(12, 5, 1.0 + 1e-6)],
                         ids=["dropped-row", "alpha_l", "Fcr-sign", "xi"])
@pytest.mark.parametrize("name,k,clamped", TABLES)
def test_rod_rejects_corruption(rod, tmp_path, edit, name, k, clamped):
    bad = corrupt(rod / name, tmp_path / "r.csv", edit)
    with pytest.raises(CheckError):
        rod_table(bad, k, clamped)


def test_rod_rejects_wrong_spring(rod):
    with pytest.raises(CheckError):
        rod_table(str(rod / "critical_rod_spring.csv"), 2.6, False)


def test_rod_accepts_a_large_tension_root(tmp_path):
    # tension root near alpha l = 17.6, where the determinant's cosh^2
    # terms cancel to a few units of double rounding
    grid = [-1.060246201117339]
    out = run_cli(["critical-rod", "--chi-hat-grid=%r" % grid[0], "--spring-k=0"], tmp_path)
    oracles.check_rod_table(str(out / "critical_rod_k0.csv"), grid=grid, B=1.0, l=1.0, k=0.0,
                            clamped=False, alpha_l_max=6.0 * math.pi, max_modes=3)
