"""CLI tests: commands, exit codes, determinism of output files."""

import csv
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from motslab import cli, grids, spectra
from motslab.errors import InvalidInputError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(args, tmp_path, sub="run"):
    out = tmp_path / sub
    return cli.main(args + ["--out", str(out)]), out


def run_fresh(args, out, then="", first=""):
    """Run the CLI in a new interpreter, with the statements ``first``
    before it and ``then`` after it; the process exits with the CLI's
    code."""
    script = ("import sys\n" + first + "\nfrom motslab import cli\n"
              "code = cli.main(sys.argv[1:])\n" + then
              + "\nsys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", script, *args,
                           "--out", str(out)],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_surface_runs_without_scipy(tmp_path):
    # the surface command's geometry is numpy alone
    proc = run_fresh(["surface", "--data", "schwarzschild-pg:m=1",
                      "--surface", "sphere:r=1,cx=0.4", "--grid", "32x64"],
                     tmp_path, "assert 'scipy' not in sys.modules, "
                     "sorted(m for m in sys.modules if 'scipy' in m)")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "surface.csv").exists()


def test_sweep_first_import_race_byte_identical(tmp_path):
    # in a fresh process the workers import spectra (and scipy) for the
    # first time at once; a short switch interval interleaves them finely
    args = ["sweep", "--sweep-command", "eigen", "--sweep-param", "surface:r",
            "--sweep-from", "0.8", "--sweep-to", "1.2", "--sweep-steps", "4",
            "--operator", "L", "--data", "schwarzschild-pg:m=1",
            "--surface", "sphere:r=1.0,cx=0.2", "--grid", "16x32"]
    outs = []
    for workers in ("1", "4"):
        out = tmp_path / f"workers{workers}"
        proc = run_fresh(args + ["--workers", workers], out,
                         first="sys.setswitchinterval(1e-6)")
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]


def test_catalog(tmp_path, capsys):
    code, out = run(["catalog"], tmp_path)
    assert code == 0
    rows = list(csv.reader((out / "catalog.csv").read_text().splitlines()))
    assert rows[0] == ["name", "params", "cosmological_constant"]
    assert {r[0]: r[2] for r in rows[1:]} == {
        "minkowski_flat": "0", "schwarzschild_isotropic": "0",
        "hyperboloidal_flat": "3", "schwarzschild_pg": "0"}
    assert ("schwarzschild_isotropic      params[m=1] cosmological_constant=0"
            in capsys.readouterr().out)


def test_constraints_minkowski(tmp_path):
    code, out = run(["constraints", "--data", "minkowski", "--samples", "50"],
                    tmp_path)
    assert code == 0
    lines = (out / "constraints.csv").read_text().splitlines()
    assert lines[0] == "x,y,z,mu,J_x,J_y,J_z,J_norm,dec"
    assert len(lines) == 51
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.max(np.abs(data[:, 3])) < 1e-10


# |gauss_bonnet_residual| bound: the benchmark's (2e-2 pi) over 100
GB_RESIDUAL_TOL = 2e-2 * np.pi / 100


def test_surface_summary(tmp_path):
    cases = [
        ("minkowski", "sphere:r=1",
         {"hawking_energy": (0.0, 1e-6), "area": (4.0 * np.pi, 1e-5),
          "gauss_bonnet_residual": (0.0, GB_RESIDUAL_TOL)}),
        # an oblate ellipsoid where Brioschi's K of the induced metric
        # misses Gauss-Bonnet by 0.085 at 64x128; the Gauss-equation K by
        # 1.7e-4
        ("schwarzschild-iso:m=1", "ellipsoid:a=2,b=2,c=0.8125",
         {"gauss_bonnet_residual": (0.0, GB_RESIDUAL_TOL)}),
    ]
    for k, (data, surface, expected) in enumerate(cases):
        code, out = run(["surface", "--data", data, "--surface", surface,
                         "--grid", "64x128"], tmp_path, f"run{k}")
        assert code == 0
        header, values = csv.reader((out / "surface.csv").read_text()
                                    .splitlines())
        row = dict(zip(header, values))
        for column, (value, tol) in expected.items():
            assert abs(float(row[column]) - value) < tol, \
                (surface, column, row[column])


def test_eigen_horizon(tmp_path):
    code, out = run(["eigen", "--operator", "Ls", "--bc", "closed",
                     "--data", "schwarzschild-iso:m=1",
                     "--surface", "sphere:r=0.5", "--grid", "64x128"],
                    tmp_path)
    assert code == 0
    text = (out / "eigen.csv").read_text().splitlines()
    row = dict(zip(text[0].split(","), text[1].split(",")))
    assert abs(float(row["lambda1"]) - 0.25) < 0.01 * 0.25
    assert row["positive"] == "true"
    assert (out / "eigenfunction.csv").exists()


def test_audit_index_exit_codes(tmp_path):
    code, _ = run(["audit", "--theorem", "index", "--genus", "0",
                   "--boundary", "10", "--index", "1"], tmp_path)
    assert code == 1
    code, _ = run(["audit", "--theorem", "index", "--genus", "0",
                   "--boundary", "3", "--index", "1"], tmp_path, "ok")
    assert code == 0
    code, _ = run(["audit", "--theorem", "index", "--genus", "0",
                   "--boundary", "3", "--index", "2"], tmp_path, "na")
    assert code == 2


def test_audit_surface_theorems(tmp_path):
    code, out = run(["audit", "--theorem", "cy-estimate",
                     "--data", "minkowski", "--surface", "sphere:r=1",
                     "--grid", "32x64"], tmp_path)
    assert code == 0
    text = (out / "audit_cy-estimate.csv").read_text()
    assert "verdict,Holds" in text

    code, _ = run(["audit", "--theorem", "cohn-vossen",
                   "--data", "schwarzschild-iso:m=1",
                   "--surface", "sphere:r=0.5", "--grid", "32x64"],
                  tmp_path, "cv")
    assert code == 2


def test_audit_collar(tmp_path):
    code, out = run(["audit", "--theorem", "collar", "--data", "hyperboloidal",
                     "--surface", "sphere:r=1", "--grid", "16x32",
                     "--zeta", "0.2"], tmp_path)
    assert code == 0
    text = (out / "audit_collar.csv").read_text().splitlines()
    assert abs(float(text[1].split(",")[2]) - 3.0) < 1e-9


def test_numerical_failure_exit_code(tmp_path):
    # surface falls outside the excised Schwarzschild chart domain
    code, _ = run(["surface", "--data", "schwarzschild-iso:m=1",
                   "--surface", "sphere:r=0.01", "--grid", "16x32"], tmp_path)
    assert code == 3


def test_sweep_eigen_rows(tmp_path):
    code, out = run(["sweep", "--sweep-command", "eigen",
                     "--sweep-param", "surface:r",
                     "--sweep-from", "0.4", "--sweep-to", "0.6",
                     "--sweep-steps", "3",
                     "--operator", "Ls", "--bc", "closed",
                     "--data", "schwarzschild-iso:m=1",
                     "--surface", "sphere:r=0.5", "--grid", "16x32",
                     "--workers", "2"], tmp_path)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("step,")


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    # keys are the long flag names, with dashes or underscores
    cfgfile.write_text("data = minkowski\nsurface = sphere:r=2.0\n"
                       "grid = 16x32\nsweep_steps = 3\ntheta-tol = 0.5\n")
    code, out = run(["surface", "--config", str(cfgfile),
                     "--surface", "sphere:r=1.0"], tmp_path)
    assert code == 0
    row = (out / "surface.csv").read_text().splitlines()[1]
    # the flag override wins over the config value
    assert abs(float(row.split(",")[3]) - 4.0 * np.pi) < 1e-3


def test_tolerance_flags_do_not_leak(tmp_path):
    # theta+ = 2/r = 0.4 on a flat sphere of radius 5: a MOTS only under the
    # loosened tolerance, and only in the run that sets it
    args = ["audit", "--theorem", "cohn-vossen", "--data", "minkowski",
            "--surface", "sphere:r=5", "--grid", "16x32"]
    _, out = run(args + ["--theta-tol", "0.5"], tmp_path, "loose")
    assert "flag:is_mots,ok" in (out / "audit_cohn-vossen.csv").read_text()
    _, out = run(args, tmp_path, "default")
    assert "flag:is_mots,unmet" in (out / "audit_cohn-vossen.csv").read_text()


def test_determinism_byte_identical(tmp_path):
    args = ["constraints", "--data", "schwarzschild-pg:m=1",
            "--samples", "64", "--seed", "99"]
    _, out1 = run(args, tmp_path, "a")
    _, out2 = run(args, tmp_path, "b")
    assert (out1 / "constraints.csv").read_bytes() == \
        (out2 / "constraints.csv").read_bytes()

    args = ["eigen", "--operator", "L", "--bc", "robin:free",
            "--data", "minkowski", "--surface", "disk:r=1.0",
            "--grid", "16x32"]
    _, out1 = run(args, tmp_path, "c")
    _, out2 = run(args, tmp_path, "d")
    assert (out1 / "eigen.csv").read_bytes() == (out2 / "eigen.csv").read_bytes()
    assert (out1 / "eigenfunction.csv").read_bytes() == \
        (out2 / "eigenfunction.csv").read_bytes()


@pytest.mark.parametrize("bc, surface, message", [
    ("closed", "disk:r=1", "closed problems require sphere topology"),
    ("robin:free", "sphere:r=1", "Robin problems require disk topology"),
    ("robin:gamma=3.2", "disk:r=1",
     "gamma must lie in (0, pi) away from the endpoints by 1e-3"),
    # only the documented words: a word that merely starts with "robin"
    # once ran as robin:free
    ("robin-sym", "disk:r=1", "unknown boundary condition 'robin-sym'"),
    ("robinhood", "disk:r=1", "unknown boundary condition 'robinhood'"),
    ("robin:", "disk:r=1", "unknown boundary condition 'robin:'"),
    ("robin", "disk:r=1", "unknown boundary condition 'robin'"),
    # an empty word once ran as closed, with an empty bc column
    ("", "sphere:r=1", "unknown boundary condition ''"),
    ("  ", "sphere:r=1", "unknown boundary condition ''"),
])
def test_bc_must_match_the_surface(tmp_path, capsys, bc, surface, message):
    code, _ = run(["eigen", "--operator", "L", "--bc", bc, "--data",
                   "minkowski", "--surface", surface, "--grid", "16x32"],
                  tmp_path)
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bc_angle_that_is_not_a_number_names_the_flag(tmp_path, capsys):
    code, _ = run(["eigen", "--operator", "L", "--bc", "robin:gamma=x",
                   "--data", "minkowski", "--surface", "disk:r=1",
                   "--grid", "16x32"], tmp_path)
    assert code == 3
    assert capsys.readouterr().err == (
        "error: --bc 'robin:gamma=x': the contact angle 'x' is not a "
        "number\n")


def test_bc_word_is_written_stripped(tmp_path, capsys):
    # the spaces around a --bc word change neither the run nor its bytes
    outputs = []
    for sub, bc in (("plain", "robin:sym"), ("spaced", " robin:sym ")):
        code, out = run(["eigen", "--operator", "L", "--bc", bc,
                         "--data", "minkowski", "--surface", "disk:r=1",
                         "--grid", "16x32"], tmp_path, sub)
        assert code == 0
        outputs.append(((out / "eigen.csv").read_bytes(),
                        (out / "eigenfunction.csv").read_bytes(),
                        capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert b",robin:sym," in outputs[0][0]


@pytest.mark.parametrize("operator, warned", [("L", True), ("Ls", False)])
def test_q_hypothesis_warning_follows_the_drift(tmp_path, operator, warned):
    # q = 1 > 0 on the ball-support flat disk: the warning goes with the
    # drift of L, and the symmetric L_s carries none
    code, out = run(["eigen", "--operator", operator, "--bc", "robin:free",
                     "--data", "minkowski", "--surface",
                     "disk:r=1,support=ball:r=1", "--grid", "16x32"],
                    tmp_path)
    assert code == 0
    with open(out / "eigen.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert bool(row["q_hypothesis_warning"]) == warned
    if warned:
        assert "q > 0" in row["q_hypothesis_warning"]


def test_graph_surface_from_file(tmp_path):
    import numpy as np
    from motslab import grids as g

    grid = g.make_grid(g.SPHERE, 16, 32)
    rho = 1.0 + 0.1 * np.sin(grid.meshgrid()[0]) ** 2
    path = tmp_path / "rho.csv"
    path.write_text("rho\n" + "\n".join("%.17g" % v for v in rho.ravel()))
    code, out = run(["surface", "--data", "minkowski",
                     "--surface", f"graph:file={path}", "--grid", "16x32"],
                    tmp_path)
    assert code == 0
    row = (out / "surface.csv").read_text().splitlines()[1].split(",")
    area = float(row[3])
    assert 4.0 * np.pi < area < 4.0 * np.pi * 1.21**2


def test_sweep_audit_exit_precedence(tmp_path):
    # indices l = 8, 10 straddle the even-genus threshold: one step violates
    code, out = run(["sweep", "--sweep-command", "audit",
                     "--sweep-param", "surface:r",
                     "--sweep-from", "0.8", "--sweep-to", "1.2",
                     "--sweep-steps", "2",
                     "--theorem", "cy-estimate", "--data", "hyperboloidal",
                     "--surface", "sphere:r=1.0", "--grid", "16x32"],
                    tmp_path)
    # r = 1.2 sphere in the de Sitter slice has H < |P|: HypothesisUnmet
    assert code == 2
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].endswith("Holds") and lines[2].endswith("HypothesisUnmet")


def test_sweep_without_param_exits_numerical(tmp_path, capsys):
    code, _ = run(["sweep", "--grid", "16x32"], tmp_path)
    assert code == 3
    assert "surface:r or data:m" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--theta-tol", "-1"],
                                  ["--sweep-steps", "1"],
                                  ["--samples", "0"],
                                  ["--config", "no-such-motslab.cfg"],
                                  ["--config", "operator = bogus"],
                                  ["--config", "opertor = L"]])
def test_bad_config_value_exits_numerical(tmp_path, capsys, flag):
    if "=" in flag[1]:
        # a config file holding this one line
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(flag[1] + "\n")
        flag = ["--config", str(cfgfile)]
    code, _ = run(["audit", "--theorem", "cohn-vossen", "--data", "minkowski",
                   "--surface", "sphere:r=1", "--grid", "16x32"] + flag,
                  tmp_path)
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [["--data", "schwarzschild-iso:mm=3"],
                                  ["--data", "hyperboloidal:m=3"],
                                  ["--surface", "sphere:r=1.5,rr=2"],
                                  ["--surface", "sphere:r=1,support=plane"],
                                  ["--surface",
                                   "disk:r=1,support=cylinder:rr=1"]])
def test_unknown_spec_parameter_exits_numerical(tmp_path, capsys, spec):
    code, out = run(["surface", "--data", "minkowski",
                     "--surface", "sphere:r=1", "--grid", "16x32"] + spec,
                    tmp_path)
    assert code == 3
    assert not (out / "surface.csv").exists()
    assert "takes no parameter" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["surface", "--data", "schwarzschild-iso:m=1,m=2"],
    ["surface", "--surface", "sphere:r=1,r=3"],
    ["surface", "--surface", "disk:r=1,support=plane,support=cylinder:r=1"],
    ["sweep", "--sweep-param", "data:m", "--data",
     "schwarzschild-iso:m=1,m=2"],
    ["sweep", "--sweep-param", "surface:r", "--surface", "sphere:cx=0,cx=1"],
])
def test_repeated_spec_parameter_exits_numerical(tmp_path, capsys, args):
    # neither value may silently win; later flags override the defaults
    code, out = run(["--data", "minkowski", "--surface", "sphere:r=1",
                     "--grid", "16x32"] + args, tmp_path)
    assert code == 3
    assert not out.exists() or not any(out.iterdir())
    assert "given twice" in capsys.readouterr().err


def test_repeated_support_parameter_is_refused():
    with pytest.raises(InvalidInputError, match="z given twice"):
        cli.resolve_support("plane:z=0,z=1")


@pytest.mark.parametrize("command", [["constraints"],
                                     ["surface", "--surface", "sphere:r=1",
                                      "--grid", "16x32"]])
@pytest.mark.parametrize("spec", ["hyperboloidal:scale=-1",
                                  "hyperboloidal:scale=nan",
                                  "hyperboloidal:scale=inf",
                                  "hyperboloidal:scale=0",
                                  "schwarzschild-pg:m=nan",
                                  "schwarzschild-iso:m=inf"])
def test_data_that_is_not_a_metric_exits_numerical(tmp_path, capsys, command,
                                                   spec):
    code, out = run(command + ["--data", spec], tmp_path)
    assert code == 3
    assert not out.exists() or not any(out.iterdir())
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("spec, message", [
    ("sphere:r=1,cx=inf", "cx must be finite"),
    ("sphere:r=1,cz=nan", "cz must be finite"),
    ("sphere:r=0", "r must be positive"),
    ("ellipsoid:a=0", "a must be positive"),
    ("ellipsoid:a=1,b=1,c=-1.5", "c must be positive"),
    ("disk:r=1,z=nan,support=plane:z=nan", "z must be finite"),
    ("disk:r=1,support=plane:z=inf", "z must be finite"),
    ("disk:r=-1,support=plane", "r must be positive"),
    ("disk:r=1,support=cylinder:r=0", "r must be positive"),
    ("cap:r=0.8,support=ball:r=nan", "r must be finite"),
])
def test_bad_surface_value_exits_numerical(tmp_path, capsys, spec, message):
    # a NaN centre flips the normal inward, a NaN plane passes the support
    # level check and a zero semi-axis gives a degenerate chart: each would
    # run to exit 0 on nonsense
    with pytest.raises(InvalidInputError, match=message):
        cli.resolve_surface(spec, (16, 32))
    code, out = run(["surface", "--data", "minkowski", "--surface", spec,
                     "--grid", "16x32"], tmp_path)
    assert code == 3
    assert not (out / "surface.csv").exists()
    assert message in capsys.readouterr().err


def test_csv_quotes_specs_with_commas(tmp_path):
    spec = "sphere:r=2,cx=0.1"
    code, out = run(["surface", "--data", "minkowski", "--surface", spec,
                     "--grid", "16x32"], tmp_path)
    assert code == 0
    with open(out / "surface.csv", newline="", encoding="utf-8") as fh:
        header, row = list(csv.reader(fh))
    assert len(row) == len(header)
    assert dict(zip(header, row))["surface"] == spec


@pytest.mark.parametrize("case", ["negative", "nan", "rows", "missing",
                                  "no-file"])
def test_bad_graph_radii_exit_numerical(tmp_path, capsys, case):
    rho = np.full(16 * 32, 2.0)
    if case == "negative":
        rho[100] = -1.0
    elif case == "nan":
        rho[100] = np.nan
    elif case == "rows":
        rho = rho[:-1]
    path = tmp_path / "rho.csv"
    path.write_text("rho\n" + "\n".join("%.17g" % v for v in rho))
    if case == "missing":
        path.unlink()
    spec = "graph:" if case == "no-file" else f"graph:file={path}"
    code, out = run(["surface", "--data", "minkowski",
                     "--surface", spec, "--grid", "16x32"], tmp_path)
    assert code == 3
    assert not (out / "surface.csv").exists()
    err = capsys.readouterr().err
    assert {"negative": "<= 0", "nan": "non-finite", "rows": "512 rows",
            "missing": "not found", "no-file": "file=<path>"}[case] in err


@pytest.mark.parametrize("command", ["surface", "eigen", "audit"])
def test_sweep_workers_byte_identical(tmp_path, command):
    args = ["sweep", "--sweep-command", command, "--sweep-param", "surface:r",
            "--sweep-from", "0.8", "--sweep-to", "1.2", "--sweep-steps", "3",
            "--operator", "L", "--theorem", "cy-estimate",
            "--data", "hyperboloidal", "--surface", "sphere:r=1.0",
            "--grid", "16x32"]
    code1, out1 = run(args + ["--workers", "1"], tmp_path, "one")
    code2, out2 = run(args + ["--workers", "2"], tmp_path, "two")
    assert code1 == code2
    assert (out1 / "sweep.csv").read_bytes() == \
        (out2 / "sweep.csv").read_bytes()


_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 1.0, 5e-324, 1e300, -1e-300,
                                0.1, float("inf"), float("nan")])
_GRIDS = [(grids.SPHERE, 8, 16), (grids.DISK, 8, 16), (grids.SPHERE, 10, 24),
          (grids.DISK, 12, 20), (grids.SPHERE, 16, 32)]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(_GRIDS).flatmap(lambda shape: st.tuples(
    st.just(shape), arrays(np.float64, shape[1:],
                           elements=st.one_of(_EDGE_FLOATS, st.floats())))))
def test_node_values_write_the_same_bytes(case):
    # the grid-factored eigenfunction writer and the csv.writer/_fmt rows
    # of the same (u, v, phi) nodes must give the same file
    (topology, n_u, n_v), phi = case
    grid = grids.make_grid(topology, n_u, n_v)
    U, V = grid.meshgrid()
    rows = list(zip(U.ravel(), V.ravel(), phi.ravel()))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("a.csv", "b.csv")]
        cli._write_csv(paths[0], ["u", "v", "phi"],
                       cli._NodeValues(grid, phi))
        cli._write_csv(paths[1], ["u", "v", "phi"], rows)
        a, b = (pathlib.Path(p).read_bytes() for p in paths)
    assert a == b



@pytest.mark.parametrize("flags", [
    ["--theorem", "growth-bounds", "--q", "nan"],
    ["--theorem", "growth-bounds", "--q", "inf"],
    ["--theorem", "growth-bounds", "--c", "nan"],
    ["--theorem", "growth-bounds", "--c", "1", "--a", "nan"],
    ["--theorem", "growth-bounds", "--c", "1", "--a", "inf"],
    ["--theorem", "index", "--c", "0.5", "--area", "nan"],
    ["--theorem", "collar", "--zeta", "nan"],
    ["--theorem", "cohn-vossen", "--theta-tol", "nan"],
    ["--theorem", "cohn-vossen", "--stab-tol=-inf"],
    ["--theorem", "growth-bounds", "--c", "1", "--a", "one"],
])
def test_non_finite_float_flags_exit_3(tmp_path, capsys, flags):
    code, _ = run(["audit", "--surface", "sphere:r=1", "--grid", "16x32"]
                  + flags, tmp_path)
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_non_finite_config_value_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theorem = growth-bounds\nq = nan\n")
    code, _ = run(["audit", "--config", str(cfg), "--surface", "sphere:r=1",
                   "--grid", "16x32"], tmp_path)
    assert code == 3
    assert "error:" in capsys.readouterr().err


def record_solves(monkeypatch):
    """Wrap every factor spectra makes; returns the list of its splu calls
    and the list of the ``trans`` of every solve on those factors."""
    factors, solves = [], []
    splu = spectra.splu

    class Recording:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs, trans="N"):
            solves.append(trans)
            return self.lu.solve(rhs, trans=trans)

    def recording(*args, **kwargs):
        factors.append(args[0].shape)
        return Recording(splu(*args, **kwargs))

    monkeypatch.setattr(spectra, "splu", recording)
    return factors, solves


_PG_OFF = ["--data", "schwarzschild-pg:m=1",
           "--surface", "sphere:r=4.1,cx=0.45"]
_DISK = ["--data", "minkowski", "--surface",
         "disk:r=1,z=0.3,support=cylinder:r=1"]


def test_audits_make_no_transposed_solve(monkeypatch, tmp_path):
    # no audit reads an adjoint eigenvalue, so none solves with K^T; the
    # off-centre spheres have no constant eigenfunction, so solves happen
    _, solves = record_solves(monkeypatch)
    pg = ["--data", "schwarzschild-pg:m=1", "--surface"]
    for theorem, where in (("hawking-bound", pg + ["sphere:r=3"]),
                           ("cy-estimate", _PG_OFF),
                           ("g-quantity", _PG_OFF),
                           ("cohn-vossen", pg + ["sphere:r=2"]),
                           ("growth-bounds", _PG_OFF + ["--c", "1"]),
                           ("area-boundary", _DISK),
                           ("diameter", _DISK)):
        code, _ = run(["audit", "--theorem", theorem, "--grid", "16x32"]
                      + where, tmp_path, theorem)
        assert code in (0, 1, 2)
    assert solves and "T" not in solves


def test_offcentre_eigen_factors_once(monkeypatch, tmp_path):
    # the adjoint eigenvalue of the eigen command takes transposed solves
    # of the forward factor, at the forward shift: one splu per job
    factors, solves = record_solves(monkeypatch)
    code, out = run(["eigen", "--operator", "L", "--grid", "32x64"]
                    + _PG_OFF[:2] + ["--surface", "sphere:r=1,cx=0.4"],
                    tmp_path)
    assert code == 0
    assert len(factors) == 1
    assert "N" in solves and "T" in solves
    with open(out / "eigen.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    lam, adjoint = float(row["lambda1"]), float(row["adjoint_lambda1"])
    assert abs(adjoint - lam) <= 1e-9 * abs(lam)
