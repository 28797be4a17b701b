"""CLI tests: commands, exit codes, determinism of output files."""

import csv
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motslab import cli


def run(args, tmp_path, sub="run"):
    out = tmp_path / sub
    return cli.main(args + ["--out", str(out)]), out


def test_catalog(tmp_path, capsys):
    code, out = run(["catalog"], tmp_path)
    assert code == 0
    assert (out / "catalog.csv").exists()
    assert "schwarzschild_isotropic" in capsys.readouterr().out


def test_constraints_minkowski(tmp_path):
    code, out = run(["constraints", "--data", "minkowski", "--samples", "50"],
                    tmp_path)
    assert code == 0
    lines = (out / "constraints.csv").read_text().splitlines()
    assert lines[0] == "x,y,z,mu,J_x,J_y,J_z,J_norm,dec"
    assert len(lines) == 51
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.max(np.abs(data[:, 3])) < 1e-10


def test_surface_summary(tmp_path, capsys):
    code, out = run(["surface", "--data", "minkowski",
                     "--surface", "sphere:r=1", "--grid", "64x128"], tmp_path)
    assert code == 0
    text = (out / "surface.csv").read_text().splitlines()
    row = dict(zip(text[0].split(","), text[1].split(",")))
    assert abs(float(row["hawking_energy"])) < 1e-6
    assert abs(float(row["area"]) - 4.0 * np.pi) < 1e-5


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
])
def test_bc_must_match_the_surface(tmp_path, capsys, bc, surface, message):
    code, _ = run(["eigen", "--operator", "L", "--bc", bc, "--data",
                   "minkowski", "--surface", surface, "--grid", "16x32"],
                  tmp_path)
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


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


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(*[st.one_of(_EDGE_FLOATS, st.floats())] * 3),
                max_size=20))
def test_array_rows_write_the_same_bytes(rows):
    # a float array takes the one-format path, a list of rows goes through
    # csv.writer and _fmt; both must give the same file
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("a.csv", "b.csv")]
        cli._write_csv(paths[0], ["u", "v", "phi"],
                       np.array(rows, dtype=float).reshape(-1, 3))
        cli._write_csv(paths[1], ["u", "v", "phi"], rows)
        a, b = (pathlib.Path(p).read_bytes() for p in paths)
    assert a == b
