import inspect
import json
import os
import re
import subprocess
import sys
import types
import warnings

import pytest

import annulab
from annulab import cli
from annulab import sweep as sweep_module
from annulab.checks import geometry_report
from annulab.cli import build_parser, main
from annulab.fem import ProblemKind
from annulab.mesh import Resolution
from annulab.radial_oracle import concentric_eigenvalue
from annulab.shape import finite_difference_tau_prime
from annulab.spectral import solve_eigenproblem
from annulab.sweep import (
    analyze_dn_ratio,
    bracket_critical_ratio,
    convergence_study,
    sweep_translation,
)
from annulab.symmetrize import sample_rings

FAST = ["--n-theta", "32", "--n-rad", "6"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch) -> list:
    """A list that gains an item at each ``os.fork`` call."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def test_solve(tmp_path, capsys):
    code, out, _ = run(
        ["solve", "--R0", "1", "--R1", "5", "--s", "3", "--kind", "nd",
         "--out-dir", str(tmp_path)] + FAST,
        capsys,
    )
    assert code == 0
    assert "first eigenvalue" in out
    assert (tmp_path / "eig_nd_s3.csv").exists()


def test_solve_converges_on_thin_concentric_annuli(tmp_path, capsys):
    # tau_1 / tau_2 tends to 1 as the annulus thins, which plain inverse
    # iteration pays for in steps: R0 = 4 ran into the 400-step cap and
    # R0 = 3.75 took 326 steps
    res = ["--n-theta", "128", "--n-rad", "32", "--out-dir", str(tmp_path)]
    values, steps = {}, {}
    for r0 in (4.0, 3.75):
        code, out, _ = run(["solve", "--R0", f"{r0:g}", "--R1", "5", "--s", "0"] + res,
                           capsys)
        assert code == 0, r0
        steps[r0] = int(re.search(r"after (\d+) iterations", out).group(1))
        low, values[r0] = map(float, re.search(r"tau1 in \[(\S+), (\S+)\]", out).groups())
        assert f"first eigenvalue (nd, s=0): {values[r0]!r}" in out
        assert 0.0 < low < values[r0], r0
    oracle = concentric_eigenvalue(ProblemKind.ND, 4.0, 5.0)
    assert abs(values[4.0] - oracle) <= 5e-3 * oracle  # criterion 1's bound
    assert steps[3.75] < 40


def test_solve_is_scale_free(tmp_path, capsys):
    # tau(c Omega) = tau(Omega) / c^2, and the stopping test is relative to
    # the eigenvalue: the default domain at 1/1000 scale converges as well
    res = ["--n-theta", "128", "--n-rad", "32", "--s", "0", "--out-dir", str(tmp_path)]
    values = []
    for r0, r1 in (("1", "5"), ("0.001", "0.005")):
        code, out, _ = run(["solve", "--R0", r0, "--R1", r1] + res, capsys)
        assert code == 0, r0
        values.append(float(re.search(r"first eigenvalue \(nd, s=0\): (\S+)", out).group(1)))
    assert abs(values[1] * 1e-6 - values[0]) <= 1e-12 * values[0]


def test_solve_with_vtk(tmp_path, capsys):
    code, _, _ = run(
        ["solve", "--R0", "1", "--R1", "2", "--s", "0", "--vtk",
         "--out-dir", str(tmp_path)] + FAST,
        capsys,
    )
    assert code == 0
    assert (tmp_path / "eig_nd_s0.vtk").exists()


def test_invalid_domain_exit_code(tmp_path, capsys):
    code, _, err = run(
        ["solve", "--R0", "1", "--R1", "0.5", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "R0" in err


def test_unknown_flag_exit_code(capsys):
    assert main(["solve", "--no-such-flag"]) == 2
    # each subcommand takes only the flags it reads
    for argv in (["sweep", "--vtk"], ["solve", "--svg"], ["torsion", "--svg"],
                 ["shape-derivative", "--out-dir", "x"],
                 ["converge", "--out-dir", "x"],
                 ["converge", "--base-n-theta", "16"]):
        assert main(argv) == 2, argv


@pytest.mark.parametrize(
    "command", ["solve", "torsion", "symmetry-check", "shape-derivative", "sweep"]
)
def test_resolution_flag_defaults(command):
    args = build_parser().parse_args([command])
    res = Resolution()
    assert (args.n_theta, args.n_rad, args.grading) == (
        res.n_theta, res.n_rad, res.grading
    )


def default(fn, name):
    return inspect.signature(fn).parameters[name].default


# (subcommand, flag dest, library functions taking that default, parameter)
SHARED_DEFAULTS = [
    ("solve", "tol", solve_eigenproblem, "tol"),
    ("symmetry-check", "tol", solve_eigenproblem, "tol"),
    ("shape-derivative", "tol", finite_difference_tau_prime, "tol"),
    ("shape-derivative", "fd_step", sweep_translation, "fd_step"),
    ("sweep", "tol", sweep_translation, "tol"),
    ("sweep", "fd_step", sweep_translation, "fd_step"),
    ("sweep", "threads", sweep_translation, "threads"),
    ("dn-analyze", "tol", analyze_dn_ratio, "tol"),
    ("dn-analyze", "tol", bracket_critical_ratio, "tol"),
    ("dn-analyze", "s_points", analyze_dn_ratio, "s_points"),
    ("dn-analyze", "s_points", bracket_critical_ratio, "s_points"),
    ("dn-analyze", "bracket_width", bracket_critical_ratio, "width"),
    ("converge", "tol", convergence_study, "tol"),
    ("symmetry-check", "exclusion", geometry_report, "exclusion"),
    ("symmetry-check", "rings", sample_rings, "n_rings"),
    ("symmetry-check", "ring_samples", sample_rings, "m"),
]


@pytest.mark.parametrize(
    "command, dest, fn, param", SHARED_DEFAULTS,
    ids=[f"{c}-{d}-{f.__name__}" for c, d, f, _ in SHARED_DEFAULTS],
)
def test_cli_defaults_match_the_library(command, dest, fn, param):
    args = build_parser().parse_args([command])
    assert getattr(args, dest) == default(fn, param)


def test_unusable_out_dir_exit_code(tmp_path, capsys, monkeypatch):
    # the directory is made after the solve, whose field files are formatted
    # on two processes
    monkeypatch.setattr(sweep_module, "WORKERS", 2)
    monkeypatch.setattr(cli, "FORK_VERTICES", 0)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for command in ("solve", "torsion"):
        code, out, err = run(
            [command, "--R0", "1", "--R1", "2", "--vtk",
             "--out-dir", str(blocker / "sub")] + FAST,
            capsys,
        )
        assert code == 2
        assert out == "" and err.startswith("error:")
        assert_no_child()


def test_torsion(tmp_path, capsys):
    code, out, _ = run(
        ["torsion", "--R0", "1", "--R1", "2", "--s", "0.3",
         "--out-dir", str(tmp_path)] + FAST,
        capsys,
    )
    assert code == 0
    assert "torsional rigidity" in out
    assert (tmp_path / "torsion_s0.3.csv").exists()


def test_shape_derivative(capsys):
    code, out, _ = run(
        ["shape-derivative", "--R0", "1", "--R1", "5", "--s", "2",
         "--n-theta", "64", "--n-rad", "16"],
        capsys,
    )
    assert code == 0
    assert "boundary integral" in out
    assert "finite difference" in out


def test_sweep_and_determinism(tmp_path, capsys):
    args = ["sweep", "--R0", "1", "--R1", "5", "--s-grid", "0.5:1:2.5",
            "--n-theta", "48", "--n-rad", "8",
            "--threads", "1"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(args + ["--out-dir", str(out1)], capsys)[0] == 0
    assert run(args + ["--out-dir", str(out2)], capsys)[0] == 0
    b1 = (out1 / "sweep.csv").read_bytes()
    b2 = (out2 / "sweep.csv").read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header.startswith("s,tau1,lambda1,nu1,T,")


def test_sweep_reports_each_violation_once(tmp_path):
    # the geometry checks fail at s = 0 on a 16 x 4 mesh; in a fresh process
    # the CLI's line is the one report
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(annulab.__file__)))
    cp = subprocess.run(
        [sys.executable, "-m", "annulab.cli", "sweep", "--s-grid", "0:1:3",
         "--n-theta", "16", "--n-rad", "4", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert cp.returncode == 4
    assert cp.stderr.splitlines() == ["assertion failed: geometry checks failed at s=0.0"]


def test_sweep_does_not_depend_on_the_number_of_cores(tmp_path):
    # OpenBLAS splits a dot product of more than about 10k entries across
    # its threads, which moves the last bits of every eigenvalue; 320 x 64
    # gives about 20k unknowns
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(annulab.__file__)))
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        cp = subprocess.run(
            [sys.executable, "-m", "annulab.cli", "sweep", "--s-grid", "2:1:2",
             "--n-theta", "320", "--n-rad", "64", "--out-dir", str(out)],
            capture_output=True, text=True, env=dict(env, OPENBLAS_NUM_THREADS=threads),
        )
        assert cp.returncode == 0, cp.stderr
        csvs.append((out / "sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]


NO_CHILD_LEFT = """
import os, sys
from annulab.cli import main
code = main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child process is left", file=sys.stderr)
except ChildProcessError:
    pass
sys.exit(code)
"""


def test_sweep_nonconvergence_exits_3_alike_on_any_number_of_workers(tmp_path):
    # every record fails its first solve; the worker's error comes back
    # pickled, and the first record's is the one reported
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(annulab.__file__)))
    errs = []
    for threads in ("1", "2"):
        cp = subprocess.run(
            [sys.executable, "-c", NO_CHILD_LEFT, "sweep", "--s-grid", "0:0.9:3.6",
             "--n-theta", "32", "--n-rad", "8", "--tol", "1e-300",
             "--threads", threads, "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert cp.returncode == 3, cp.stderr
        errs.append(cp.stderr)
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: ") and errs[0].count("\n") == 1


@pytest.mark.parametrize("threads", ["0", "-1", "1.5"])
def test_sweep_threads_must_be_a_positive_integer_before_solving(
    capsys, monkeypatch, threads
):
    monkeypatch.setattr(cli, "sweep_translation", fail_if_solved)
    code, out, err = run(["sweep", "--threads", threads] + FAST, capsys)
    assert code == 2
    assert out == ""
    assert "argument --threads: " in err


def test_sweep_grid_parsing(tmp_path, capsys):
    code, out, _ = run(
        ["sweep", "--R0", "1", "--R1", "5", "--s-grid", "1:2:3",
         "--n-theta", "48", "--n-rad", "8",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3  # header + s = 1, 3


def test_grid_points_are_rounded_relative_to_the_step():
    assert cli._parse_grid("0:0.4:3.6") == [
        0.0, 0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2, 3.6
    ]
    assert cli._parse_grid("0:1e-50:3e-50") == [0.0, 1e-50, 2e-50, 3e-50]
    for text in ("0:inf:1", "0:nan:1", "nan:1:2", "0:1:inf", "0:0:1", "2:1:1"):
        with pytest.raises(Exception, match="bad grid"):
            cli._parse_grid(text)


def test_sweep_on_a_tiny_annulus_repeats_the_unit_sweep(tmp_path, capsys):
    # the sweep of the grid 0:1:3 on (1, 5), scaled by 1e-50; both exit 4,
    # as the 16 x 4 mesh fails the s = 0 geometry checks at every scale
    rows = {}
    for c in (1.0, 1e-50):
        out_dir = tmp_path / f"{c:g}"
        code, out, _ = run(
            ["sweep", "--R0", f"{c:g}", "--R1", f"{5 * c:g}",
             "--s-grid", f"0:{c:g}:{3 * c:g}", "--n-theta", "16", "--n-rad", "4",
             "--out-dir", str(out_dir)],
            capsys,
        )
        assert (code, out) == (4, f"4 records written to {out_dir / 'sweep.csv'}\n")
        lines = (out_dir / "sweep.csv").read_text().splitlines()[1:]
        rows[c] = [[float(x) for x in line.split(",")[:2]] for line in lines]
    assert [r[0] for r in rows[1e-50]] == [0.0, 1e-50, 2e-50, 3e-50]
    for (_, tau), (_, tau_c) in zip(rows[1.0], rows[1e-50]):
        assert tau_c * 1e-100 == pytest.approx(tau, rel=1e-12)


@pytest.mark.parametrize("flags", [
    ["--s", "0.1"], ["--s", "3.85"], ["--R0", "0.01", "--R1", "0.05", "--s", "0.02"],
])
def test_shape_derivative_default_step_fits_the_room(capsys, flags):
    code, out, err = run(["shape-derivative"] + flags + FAST, capsys)
    assert (code, err) == (0, "")
    assert "finite difference" in out


def test_symmetry_check(tmp_path, capsys):
    code, out, _ = run(
        ["symmetry-check", "--R0", "1", "--R1", "5", "--s", "2",
         "--n-theta", "64", "--n-rad", "16", "--rings", "16",
         "--ring-samples", "64",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads((tmp_path / "symmetry_s2.json").read_text())
    assert payload["all_passed"] is True
    assert payload["rearrangement_deviation"] <= 0.02
    assert payload["worst_polarization_deviation"] <= 0.02


def fail_if_solved(*args, **kwargs):
    raise AssertionError("solved before validating the flags")


@pytest.mark.parametrize("exclusion", ["-0.25", "nan", "inf"])
def test_symmetry_check_rejects_bad_exclusion(tmp_path, capsys, monkeypatch, exclusion):
    monkeypatch.setattr(cli, "solve_eigenproblem", fail_if_solved)
    code, _, err = run(
        ["symmetry-check", "--R0", "1", "--R1", "5", "--s", "2",
         "--exclusion", exclusion, "--out-dir", str(tmp_path)] + FAST,
        capsys,
    )
    assert code == 2
    assert "exclusion must be finite and >= 0" in err
    assert not (tmp_path / "symmetry_s2.json").exists()


def test_symmetry_check_exclusion_covering_the_domain(tmp_path, capsys):
    # every vertex lies within 20 of (+-5, 0): the masked checks have no
    # test points, and say so instead of failing
    code, _, _ = run(
        ["symmetry-check", "--R0", "1", "--R1", "5", "--s", "2",
         "--exclusion", "20", "--out-dir", str(tmp_path)] + FAST,
        capsys,
    )
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = (tmp_path / "symmetry_s2.json").read_text()
    checks = json.loads(text, parse_constant=reject)["checks"]
    empty = {name for name, c in checks.items() if c["detail"] == "no test points"}
    assert empty == {"affine_radial", "axial_cap", "outer_axial", "tangential_sign",
                     "gradient_nonzero", "reflection_ordering"}
    assert all(checks[name]["worst"] is None for name in empty)


@pytest.mark.parametrize("step", ["-1", "0", "nan", "x"])
@pytest.mark.parametrize("command", ["sweep", "shape-derivative"])
def test_fd_step_must_be_positive_before_solving(capsys, monkeypatch, command, step):
    monkeypatch.setattr(cli, "solve_eigenproblem", fail_if_solved)
    monkeypatch.setattr(cli, "sweep_translation", fail_if_solved)
    code, out, err = run([command, "--fd-step", step] + FAST, capsys)
    assert code == 2
    assert out == ""
    assert "argument --fd-step: " in err


def test_shape_derivative_rejects_a_step_beyond_the_room_before_solving(
    capsys, monkeypatch
):
    monkeypatch.setattr(cli, "solve_eigenproblem", fail_if_solved)
    code, out, err = run(["shape-derivative", "--s", "2", "--fd-step", "5"] + FAST,
                         capsys)
    assert code == 2
    assert out == ""
    assert "step 5.0 too large; must be <= 0.5" in err


def test_symmetry_check_rejects_bad_ring_counts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_eigenproblem", fail_if_solved)
    base = ["symmetry-check", "--R0", "1", "--R1", "5", "--s", "2",
            "--out-dir", str(tmp_path)] + FAST
    for flags in (["--ring-samples", "0"], ["--ring-samples", "7"], ["--rings", "0"]):
        code, _, err = run(base + flags, capsys)
        assert code == 2, flags
        assert "ring" in err, flags
    assert not (tmp_path / "symmetry_s2.json").exists()


def test_converge_rejects_levels_before_solving(capsys, monkeypatch):
    monkeypatch.setattr(cli, "concentric_eigenvalue", fail_if_solved)
    monkeypatch.setattr(cli, "convergence_study", fail_if_solved)
    code, out, err = run(["converge", "--s", "0", "--levels", "2"] + FAST, capsys)
    assert code == 2
    assert out == ""
    assert "3 levels" in err


@pytest.mark.parametrize("R1", ["inf", "nan", "1e308"])
@pytest.mark.parametrize(
    "command", ["solve", "torsion", "symmetry-check", "shape-derivative", "converge"]
)
def test_non_finite_radii_exit_before_solving(capsys, monkeypatch, command, R1):
    for name in ("solve_eigenproblem", "solve_torsion", "concentric_eigenvalue",
                 "convergence_study"):
        monkeypatch.setattr(cli, name, fail_if_solved)
    code, out, err = run([command, "--R1", R1] + FAST, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: need")


@pytest.mark.parametrize("radii", [["--R1", "1e60"], ["--R0", "1e-60", "--R1", "1e-59"]],
                         ids=["large", "small"])
@pytest.mark.parametrize(
    "command", ["solve", "torsion", "symmetry-check", "shape-derivative", "sweep",
                "dn-analyze", "converge"]
)
def test_radii_outside_the_range_exit_before_solving(capsys, monkeypatch, command, radii):
    for module in (cli, sweep_module):
        for name in ("solve_eigenproblem", "solve_torsion"):
            monkeypatch.setattr(module, name, fail_if_solved)
    monkeypatch.setattr(cli, "concentric_eigenvalue", fail_if_solved)
    if command == "dn-analyze":
        radii = radii[-2:]  # R0 is a ratio of R1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run([command] + radii + FAST, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: need 1e-50 <= R0 and R1 <= 1e+50, got R0=")


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "x"])
@pytest.mark.parametrize(
    "command", ["solve", "symmetry-check", "shape-derivative", "sweep", "dn-analyze",
                "converge"]
)
def test_tol_must_be_positive_before_solving(capsys, monkeypatch, command, tol):
    for name in ("solve_eigenproblem", "sweep_translation", "analyze_dn_ratio",
                 "concentric_eigenvalue", "convergence_study"):
        monkeypatch.setattr(cli, name, fail_if_solved)
    code, out, err = run([command, "--tol", tol] + FAST, capsys)
    assert code == 2
    assert out == ""
    assert "argument --tol: " in err


def test_converge(capsys):
    code, out, _ = run(
        ["converge", "--R0", "1", "--R1", "2", "--s", "0", "--kind", "nd",
         "--levels", "3", "--n-theta", "16", "--n-rad", "4",
         "--grading", "1.0"],
        capsys,
    )
    assert code == 0
    assert "radial reference" in out
    # the coarsest level comes from --n-theta / --n-rad
    assert "\n1        16       4 " in out
    assert "extrapolated limit" in out


def test_converge_warns_once_when_values_rise(capsys, monkeypatch):
    values = iter([1.0, 1.5, 1.75])
    monkeypatch.setattr(sweep_module, "discretize", lambda *args: None)
    monkeypatch.setattr(sweep_module, "solve_eigenproblem",
                        lambda *args: types.SimpleNamespace(value=next(values)))
    code, out, err = run(["converge", "--s", "0.3"] + FAST, capsys)
    assert code == 0
    assert "extrapolated limit" in out
    assert err.splitlines() == [
        "warning: eigenvalues did not decrease monotonically under refinement"
    ]


def test_dn_analyze(tmp_path, capsys):
    code, out, _ = run(
        ["dn-analyze", "--R1", "5", "--ratios", "0.6", "--s-points", "12",
         "--n-theta", "48", "--n-rad", "8",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads((tmp_path / "dn_analysis.json").read_text())
    assert payload["ratios"][0]["classification"] == "monotone_decreasing"


def test_dn_analyze_rejects_empty_ratio_list(tmp_path, capsys):
    code, _, err = run(
        ["dn-analyze", "--ratios", ",", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "ratios" in err
    assert not (tmp_path / "dn_analysis.json").exists()


@pytest.mark.parametrize("ratios", ["0.1,1.5", "0,0.5", "0.1,1", "nan"])
def test_dn_analyze_rejects_ratios_outside_the_unit_interval(
    tmp_path, capsys, monkeypatch, ratios
):
    monkeypatch.setattr(cli, "analyze_dn_ratio", fail_if_solved)
    code, out, err = run(
        ["dn-analyze", "--ratios", ratios, "--out-dir", str(tmp_path)] + FAST, capsys
    )
    assert code == 2
    assert out == ""
    assert "ratios must lie in (0, 1)" in err
    assert not (tmp_path / "dn_analysis.json").exists()


@pytest.mark.parametrize("width", ["0", "-1", "nan"])
def test_dn_analyze_rejects_bad_bracket_width_before_solving(
    tmp_path, capsys, monkeypatch, width
):
    monkeypatch.setattr(cli, "analyze_dn_ratio", fail_if_solved)
    code, _, err = run(
        ["dn-analyze", "--bracket", "--bracket-width", width,
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "bracket width must be positive" in err
    assert not (tmp_path / "dn_analysis.json").exists()


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_theta": 32, "n_rad": 6, "out_dir": str(tmp_path)}))
    code, out, _ = run(
        ["--config", str(cfg), "solve", "--R0", "1", "--R1", "2", "--s", "0.4"],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "eig_nd_s0.4.csv").exists()


@pytest.mark.parametrize("key, value", [("n_theta", 64.0), ("n_rad", 8.0)])
def test_config_non_integer_resolution_exit_code(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, _, err = run(
        ["--config", str(cfg), "solve", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("command, key, value, solver", [
    ("solve", "s", None, "build_mesh"),
    ("sweep", "threads", 0, "sweep_translation"),
    ("sweep", "s_grid", [0, 1], "sweep_translation"),
    ("solve", "vtk", 1, "build_mesh"),
])
def test_config_values_pass_their_flags_checks_before_solving(
    tmp_path, capsys, monkeypatch, command, key, value, solver
):
    # each value is parsed as its flag's text is: null is no offset, 0 no
    # number of processes, and an on/off flag takes true or false
    monkeypatch.setattr(cli, solver, fail_if_solved)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run(["--config", str(cfg), command, "--out-dir", str(tmp_path)],
                         capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: config key {key}: ") and err.count("\n") == 1


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 3}))
    code, _, err = run(["--config", str(cfg), "solve"], capsys)
    assert code == 2
    assert "bogus_key" in err
    # a key is checked against the flags of the chosen subcommand
    cfg.write_text(json.dumps({"vtk": True}))
    code, _, err = run(["--config", str(cfg), "sweep"], capsys)
    assert code == 2
    assert "vtk" in err


def failed_solve_stderr(tmp_path, capsys, monkeypatch, flags, expected):
    """The stderr of a ``solve`` that exits ``expected``, alike on one and two
    processes; it leaves neither a field file nor a child."""
    monkeypatch.setattr(cli, "FORK_VERTICES", 0)
    errs = []
    for workers in (1, 2):
        monkeypatch.setattr(sweep_module, "WORKERS", workers)
        out = tmp_path / str(workers)
        code, _, err = run(["solve", "--R0", "1", "--R1", "2", "--s", "0.3", "--vtk",
                            "--out-dir", str(out)] + flags + FAST, capsys)
        assert code == expected
        assert not out.exists()
        assert_no_child()
        errs.append(err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: ") and errs[0].count("\n") == 1
    return errs[0]


def test_nonconvergence_exit_code(tmp_path, capsys, monkeypatch):
    # a residual below 1e-300 of the eigenvalue is out of reach of rounding
    err = failed_solve_stderr(tmp_path, capsys, monkeypatch, ["--tol", "1e-300"], 3)
    assert "converge" in err


def test_not_positive_definite_exit_code(tmp_path, capsys, monkeypatch):
    import annulab.fem as fem

    stiffness = fem.p1_local_stiffness
    monkeypatch.setattr(fem, "p1_local_stiffness", lambda coords: -stiffness(coords))
    # a LinAlgError is a ValueError, yet this is no validation error (2)
    err = failed_solve_stderr(tmp_path, capsys, monkeypatch, [], 5)
    assert "not positive definite: pivot 1 of" in err


def test_outputs_hold_no_numpy_reprs(tmp_path, capsys):
    # numpy 2 scalars format as ``np.float64(...)``; every writer must
    # convert to Python numbers first
    sweep_res = ["--n-theta", "48", "--n-rad", "8"]
    commands = [
        ["solve", "--R0", "1", "--R1", "2", "--s", "0.5", "--vtk"] + FAST,
        ["torsion", "--R0", "1", "--R1", "2", "--s", "0.5", "--vtk"] + FAST,
        ["symmetry-check", "--R0", "1", "--R1", "5", "--s", "2",
         "--n-theta", "64", "--n-rad", "16", "--rings", "16", "--ring-samples", "64"],
        ["sweep", "--R0", "1", "--R1", "5", "--s-grid", "0.5:1:2.5", "--svg",
         "--threads", "1"] + sweep_res,
        ["dn-analyze", "--R1", "5", "--ratios", "0.6", "--s-points", "12"] + sweep_res,
    ]
    for argv in commands:
        code, out, _ = run(argv + ["--out-dir", str(tmp_path)], capsys)
        assert code == 0, argv
        out = out.replace(str(tmp_path), "")
        assert "np." not in out and "float64" not in out, argv
    assert {"eig_nd_s0.5.vtk", "torsion_s0.5.vtk", "symmetry_s2.json", "sweep.csv",
            "sweep.svg", "dn_analysis.json"} <= {p.name for p in tmp_path.iterdir()}
    for path in tmp_path.iterdir():
        text = path.read_text()
        assert "np." not in text and "float64" not in text, path.name


def test_negative_zero_offset_names_files_as_zero(tmp_path, capsys):
    argvs = {
        "eig_nd_s0.csv": ["solve"],
        "torsion_s0.csv": ["torsion"],
        "symmetry_s0.json": ["symmetry-check", "--rings", "8", "--ring-samples", "32"],
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"s": -0.0}))
    # (flags before the command, flags after it)
    offsets = {"0": ([], ["--s", "0"]), "-0.0": ([], ["--s", "-0.0"]),
               "config": (["--config", str(config)], [])}
    for name, argv in argvs.items():
        for label, (before, after) in offsets.items():
            out = tmp_path / label
            code, stdout, _ = run(before + argv + ["--R0", "1", "--R1", "2",
                                                   "--out-dir", str(out)] + after + FAST,
                                  capsys)
            assert code in (0, 4), (argv, label)
            assert "s=-0" not in stdout and "s-0" not in stdout
        for label in ("-0.0", "config"):
            assert sorted(p.name for p in (tmp_path / label).iterdir()) == sorted(
                p.name for p in (tmp_path / "0").iterdir())
            assert ((tmp_path / label / name).read_bytes()
                    == (tmp_path / "0" / name).read_bytes())


def exit_in_child(fn):
    """``fn``, except that in a forked child it ends the process with code 9,
    and that the caller first waits for a child to end: any task runs in
    whichever process takes it first, and this makes a child take one."""
    parent = os.getpid()

    def wrapped(*args):
        if os.getpid() != parent:
            os._exit(9)
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        return fn(*args)

    return wrapped


@pytest.mark.parametrize("command", ["sweep", "solve"])
def test_a_dying_worker_exits_6_without_a_traceback(tmp_path, capsys, monkeypatch,
                                                     command):
    monkeypatch.setattr(sweep_module, "WORKERS", 2)
    if command == "sweep":
        monkeypatch.setattr(sweep_module, "_solve_record",
                            exit_in_child(sweep_module._solve_record))
        argv = ["sweep", "--s-grid", "0:1:1", "--threads", "2"]
    else:
        monkeypatch.setattr(cli, "FORK_VERTICES", 0)
        # the caller's task, the solve, waits for the child's, the mesh text
        monkeypatch.setattr(cli, "Discretization", exit_in_child(cli.Discretization))
        monkeypatch.setattr(cli, "mesh_text", exit_in_child(cli.mesh_text))
        argv = ["solve", "--vtk"]
    code, out, err = run(argv + ["--out-dir", str(tmp_path)] + FAST, capsys)
    assert code == 6
    assert err == "error: worker process exited with code 9\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == []
    assert_no_child()


@pytest.mark.parametrize("command", ["solve", "torsion"])
def test_field_files_do_not_depend_on_the_number_of_processes(
    tmp_path, capsys, monkeypatch, command
):
    # 256 x 64 has 32768 triangles, more than one CELLS_BLOCK, and 16640
    # vertices, at least FORK_VERTICES
    argv = [command, "--R0", "1", "--R1", "5", "--s", "2", "--n-theta", "256",
            "--n-rad", "64", "--vtk", "--out-dir", "out"]
    forks = count_forks(monkeypatch)
    runs = []
    for mode in ("one", "two", "no-affinity"):
        forks.clear()
        (tmp_path / mode).mkdir()
        with monkeypatch.context() as m:
            m.setattr(sweep_module, "WORKERS", 1 if mode == "one" else 2)
            if mode == "no-affinity":
                m.delattr(os, "sched_setaffinity")
            m.chdir(tmp_path / mode)
            code, out, err = run(argv, capsys)
        assert (code, err) == (0, ""), mode
        assert len(forks) == (mode == "two"), mode
        files = {p.name: p.read_bytes() for p in (tmp_path / mode / "out").iterdir()}
        runs.append((out, files))
    assert len(runs[0][1]) == 2
    assert runs[0] == runs[1] == runs[2]
    assert_no_child()


@pytest.mark.parametrize("command", ["solve", "torsion"])
def test_only_a_mesh_of_fork_vertices_forks(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(sweep_module, "WORKERS", 2)
    forks = count_forks(monkeypatch)
    vertices = 32 * 7  # of the FAST mesh
    for threshold in (vertices + 1, vertices):
        forks.clear()
        monkeypatch.setattr(cli, "FORK_VERTICES", threshold)
        code, _, err = run([command, "--R0", "1", "--R1", "2", "--vtk",
                            "--out-dir", str(tmp_path / str(threshold))] + FAST, capsys)
        assert (code, err) == (0, "")
        assert len(forks) == (threshold == vertices)
    assert_no_child()
