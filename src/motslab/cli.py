"""Command-line interface: catalog, constraints, surface, eigen, audit, sweep.

Configuration is a flat ``key = value`` text file whose keys are the long
flag names (with dashes or underscores); its values pass through the same
parser as the flags, with the same types and choices, and command-line
flags override them. An unknown key or a bad value exits 3. All outputs
are UTF-8 text, CSV values carry 17 significant digits, and re-running
with the same configuration and seed reproduces byte-identical files.

``sweep`` runs the surface, eigen or audit command once per step, on a
copy of the configuration with one spec parameter patched.

Exit codes: 0 all verdicts hold, 1 some inequality violated, 2 some
hypothesis unmet or audit not applicable, 3 numerical failure or invalid
input. Across a multi-step run the precedence is 3 > 2 > 1 > 0.
"""

import argparse
import csv
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from . import audits, grids, initialdata as idata, spectra, surfaces
from .errors import InvalidInputError, MotslabError, TopologyError

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_UNMET = 2
EXIT_NUMERICAL = 3


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def _write_csv(path, header, rows):
    """Write a CSV file; a field holding a comma (a spec such as
    ``sphere:r=2,cx=0.1``) is quoted. ``rows`` given as a 2-D float array
    is formatted in one string operation, to the same bytes."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            fh.write((line * rows.shape[0]) % tuple(rows.ravel().tolist()))
        else:
            writer.writerows([_fmt(v) for v in row] for row in rows)
    os.replace(tmp, path)


def _parse_grid(text):
    nu, _, nv = text.lower().partition("x")
    n_u, n_v = int(nu), int(nv)
    for n in (n_u, n_v):
        if not 8 <= n <= 1024:
            raise ValueError(f"grid axis {n} outside [8, 1024]")
    return n_u, n_v


_SUPPORT_KEYS = {"plane": ("z",), "cylinder": ("r",), "ball": ("r",)}
_SURFACE_KEYS = {"sphere": ("r", "cx", "cy", "cz"),
                 "ellipsoid": ("a", "b", "c"),
                 "graph": ("file", "cx", "cy", "cz"),
                 "disk": ("r", "z", "support"),
                 "cap": ("r", "support")}


def resolve_support(spec):
    if spec is None:
        return None
    spec = spec.strip()
    if spec == "plane-z0":
        return surfaces.PlaneSupport(0.0)
    name, _, rest = spec.partition(":")
    if name not in _SUPPORT_KEYS:
        raise ValueError(f"unknown support {name!r}")
    params = {k: float(v) for k, v in
              idata.spec_params(name, rest, _SUPPORT_KEYS[name]).items()}
    if name == "plane":
        return surfaces.PlaneSupport(params.get("z", 0.0))
    if name == "cylinder":
        return surfaces.CylinderSupport(params.get("r", 1.0))
    return surfaces.BallSupport(params.get("r", 1.0))


def resolve_surface(spec, grid_shape):
    """Build a surface chart from a CLI spec string like ``sphere:r=2.0``."""
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name not in _SURFACE_KEYS:
        raise ValueError(f"unknown surface {name!r}")
    params = idata.spec_params(name, rest, _SURFACE_KEYS[name])
    support = resolve_support(params.pop("support", None))

    if name == "sphere":
        grid = grids.make_grid(grids.SPHERE, *grid_shape)
        center = (float(params.get("cx", 0.0)), float(params.get("cy", 0.0)),
                  float(params.get("cz", 0.0)))
        return surfaces.sphere_chart(grid, float(params.get("r", 1.0)), center)
    if name == "ellipsoid":
        grid = grids.make_grid(grids.SPHERE, *grid_shape)
        return surfaces.ellipsoid_chart(grid, float(params.get("a", 1.0)),
                                        float(params.get("b", 1.0)),
                                        float(params.get("c", 1.5)))
    if name == "graph":
        if "file" not in params:
            raise InvalidInputError("a graph surface needs file=<path>")
        grid = grids.make_grid(grids.SPHERE, *grid_shape)
        rho = np.loadtxt(params["file"], delimiter=",", skiprows=1, ndmin=1)
        if rho.shape != (grid.n_nodes,):
            raise InvalidInputError(
                f"graph file {params['file']} holds values of shape "
                f"{rho.shape}; a {grid.n_u}x{grid.n_v} grid needs one "
                f"column of {grid.n_nodes} rows")
        rho = rho.reshape(grid.shape)
        center = (float(params.get("cx", 0.0)), float(params.get("cy", 0.0)),
                  float(params.get("cz", 0.0)))
        return surfaces.radial_graph_chart(grid, rho, center)
    if name == "disk":
        grid = grids.make_grid(grids.DISK, *grid_shape)
        r = float(params.get("r", 1.0))
        return surfaces.flat_disk_chart(grid, r, float(params.get("z", 0.0)),
                                        support=support)
    grid = grids.make_grid(grids.DISK, *grid_shape)
    return surfaces.cap_chart(grid, float(params.get("r", 1.0)),
                              support=support)


_OPERATORS = {
    "L": spectra.MOTS_L,
    "Ls": spectra.MOTS_LS,
    "Hstab-N": spectra.HSTAB_NORMAL,
    "Hstab-lminus": spectra.HSTAB_MINUS_LMINUS,
}


def resolve_bc(text):
    """Robin source and contact angle of a ``--bc`` word; (None, None) for
    ``closed``."""
    text = (text or "closed").strip()
    if text == "closed":
        return None, None
    if text.startswith("robin"):
        _, _, rest = text.partition(":")
        if rest == "free" or rest == "":
            return spectra.Q_FREE, None
        if rest == "sym":
            return spectra.Q_SYMMETRIZED, None
        if rest.startswith("gamma="):
            return spectra.Q_CAPILLARY, float(rest[6:])
    raise ValueError(f"unknown boundary condition {text!r}")


def _verdict_code(verdict):
    if verdict == audits.HOLDS:
        return EXIT_OK
    if verdict == audits.VIOLATED:
        return EXIT_VIOLATED
    return EXIT_UNMET


def _combine(codes):
    for level in (EXIT_NUMERICAL, EXIT_UNMET, EXIT_VIOLATED):
        if level in codes:
            return level
    return EXIT_OK


# ---------------------------------------------------------------------------
# commands


def cmd_catalog(cfg):
    rows = []
    for entry in idata.catalog():
        pstr = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(entry.params.items()))
        rows.append((entry.name, pstr,
                     "yes" if entry.extension is not None else "no"))
        print(f"{entry.name:28s} params[{pstr}] "
              f"extension={'yes' if entry.extension is not None else 'no'}")
    _write_csv(os.path.join(cfg.out, "catalog.csv"),
               ["name", "params", "extension"], rows)
    return EXIT_OK


def _sample_points(data, n, seed):
    rng = np.random.default_rng(seed)
    pts = []
    attempts = 0
    while len(pts) < n and attempts < 100 * n:
        x = rng.uniform(-3.0, 3.0, size=3)
        attempts += 1
        if np.linalg.norm(x) > 0.3 and data.in_domain(x):
            pts.append(x)
    if len(pts) < n:
        raise MotslabError("could not sample enough in-domain points")
    return np.array(pts)


def cmd_constraints(cfg):
    data = idata.resolve(cfg.data)
    pts = _sample_points(data, cfg.samples, cfg.seed)
    jet = idata.evaluate(data, pts)
    mu, J, jn = jet.mu, jet.J, jet.j_norm
    rows = [(p[0], p[1], p[2], m, j[0], j[1], j[2], n, m - n)
            for p, m, j, n in zip(pts, mu, J, jn)]
    _write_csv(os.path.join(cfg.out, "constraints.csv"),
               ["x", "y", "z", "mu", "J_x", "J_y", "J_z", "J_norm", "dec"],
               rows)
    margin = float(np.min(mu - jn))
    print(f"[constraints] {data.name}: {cfg.samples} samples, "
          f"max|mu|={np.max(np.abs(mu)):.3e}, max|J|={np.max(jn):.3e}, "
          f"dec margin={margin:.6g}")
    return EXIT_OK


class _Run(NamedTuple):
    """One surface, eigen or audit run: the summary row a sweep step
    writes, the exit code, the command's own files (name -> (header,
    rows)) and its console report."""
    row: list
    code: int
    files: dict
    report: str


def _emit(cfg, run):
    for name, (header, rows) in run.files.items():
        _write_csv(os.path.join(cfg.out, name), header, rows)
    print(run.report)
    return run.code


def _geometry(cfg):
    data = idata.resolve(cfg.data)
    chart = resolve_surface(cfg.surface, _parse_grid(cfg.grid))
    return data, surfaces.compute_geometry(chart, data)


_SURFACE_HEADER = ["data", "surface", "grid", "area", "boundary_length",
                   "theta_plus_min", "theta_plus_max", "theta_minus_min",
                   "theta_minus_max", "hawking_energy",
                   "gauss_bonnet_residual"]


def run_surface(cfg):
    _, geom = _geometry(cfg)
    metric = geom.metric
    k_int = grids.gauss_curvature(metric)
    if geom.grid.topology == grids.SPHERE:
        blen = ""
        e_h = surfaces.hawking_energy(geom)
        gb = grids.integrate(metric, k_int) - 4.0 * np.pi
    else:
        blen = geom.boundary_length()
        e_h = ""
        gb = (grids.integrate(metric, k_int)
              + grids.boundary_integrate(
                  metric, grids.boundary_geodesic_curvature(metric))
              - 2.0 * np.pi)
    row = [cfg.data, cfg.surface, cfg.grid, geom.area, blen,
           float(np.min(geom.theta_p)), float(np.max(geom.theta_p)),
           float(np.min(geom.theta_m)), float(np.max(geom.theta_m)),
           e_h, gb]
    return _Run(row, EXIT_OK, {"surface.csv": (_SURFACE_HEADER, [row])},
                "[surface] " + " ".join(f"{k}={_fmt(v)}" for k, v
                                        in zip(_SURFACE_HEADER, row)))


def cmd_surface(cfg):
    return _emit(cfg, run_surface(cfg))


_EIGEN_HEADER = ["data", "surface", "grid", "operator", "bc", "lambda1",
                 "residual", "iterations", "positive", "adjoint_lambda1",
                 "q_hypothesis_warning"]


def run_eigen(cfg):
    _, geom = _geometry(cfg)
    q_source, gamma = resolve_bc(cfg.bc)
    if (q_source is None) != (geom.grid.topology == grids.SPHERE):
        raise TopologyError("closed problems require sphere topology"
                            if q_source is None else
                            "Robin problems require disk topology")
    spec = spectra.OperatorSpec(_OPERATORS[cfg.operator], geom,
                                q_source=q_source, gamma=gamma,
                                qbar_variant=cfg.qbar)
    result = spectra.principal_eigenvalue(spectra.assemble(spec))
    row = [cfg.data, cfg.surface, cfg.grid, cfg.operator, cfg.bc,
           result.lambda1, result.residual, result.iterations,
           result.positive, result.adjoint_lambda1,
           "; ".join(result.warnings)]
    U, V = geom.grid.meshgrid()
    nodes = np.column_stack([U.ravel(), V.ravel(),
                             result.eigenfunction.ravel()])
    return _Run(row, EXIT_OK,
                {"eigen.csv": (_EIGEN_HEADER, [row]),
                 "eigenfunction.csv": (["u", "v", "phi"], nodes)},
                f"[eigen] {cfg.operator} ({cfg.bc}): "
                f"lambda1={result.lambda1!r} "
                f"residual={result.residual:.2e} iters={result.iterations} "
                f"positive={result.positive} "
                f"adjoint={result.adjoint_lambda1!r}")


def cmd_eigen(cfg):
    return _emit(cfg, run_eigen(cfg))


def _audit_report(cfg):
    tid = cfg.theorem
    if tid == "index":
        return audits.audit_index_bounds(cfg.genus, cfg.boundary, cfg.index,
                                         c=cfg.c, area=cfg.area)
    data, geom = _geometry(cfg)
    tols = {"theta_tol": cfg.theta_tol, "stab_tol": cfg.stab_tol}
    if tid == "cy-estimate":
        return audits.audit_cy_estimate(geom, data)
    if tid == "hawking-bound":
        return audits.audit_hawking_bound(geom, data)
    if tid == "cohn-vossen":
        return audits.audit_cohn_vossen(geom, data, **tols)
    if tid == "growth-bounds":
        qf = np.full(geom.grid.shape, cfg.q) if cfg.q is not None else None
        return audits.audit_growth_bounds(geom, a=cfg.a, c=cfg.c, q_field=qf,
                                          stab_tol=cfg.stab_tol)
    if tid == "g-quantity":
        return audits.audit_theorem_481(geom, data, stab_tol=cfg.stab_tol)
    if tid == "area-boundary":
        return audits.audit_I_sigma(geom, data, **tols)
    if tid == "diameter":
        return audits.audit_diameter(geom, data, **tols)
    raise ValueError(f"theorem {tid!r} has no audit report")


def _report_rows(rep):
    rows = [("theorem", rep.theorem_id), ("lhs", rep.lhs), ("rhs", rep.rhs),
            ("margin", rep.margin), ("verdict", rep.verdict)]
    for f in rep.hypothesis_flags:
        rows.append((f"flag:{f.name}", "ok" if f.satisfied else "unmet"))
        rows.append((f"flag:{f.name}:evidence", f.evidence))
    for name, value in rep.equality_diagnostics:
        rows.append((f"diagnostic:{name}", value))
    for key in sorted(rep.extras):
        rows.append((f"extra:{key}", rep.extras[key]))
    if rep.notes:
        rows.append(("notes", rep.notes.replace(",", ";")))
    return rows


def _report_text(rep):
    lines = [f"[audit {rep.theorem_id}] lhs={_fmt(rep.lhs)} "
             f"rhs={_fmt(rep.rhs)} margin={_fmt(rep.margin)}"]
    for f in rep.hypothesis_flags:
        state = "ok   " if f.satisfied else "UNMET"
        lines.append(f"  flag {state} {f.name} (evidence={_fmt(f.evidence)})")
    for name, value in rep.equality_diagnostics:
        lines.append(f"  equality residual {name} = {_fmt(value)}")
    if rep.notes:
        lines.append(f"  note: {rep.notes}")
    lines.append(f"  verdict: {rep.verdict}")
    return "\n".join(lines)


_AUDIT_HEADER = ["data", "surface", "theorem", "lhs", "rhs", "margin",
                 "verdict"]


def run_audit(cfg):
    rep = _audit_report(cfg)
    row = [cfg.data, cfg.surface, rep.theorem_id, rep.lhs, rep.rhs,
           rep.margin, rep.verdict]
    return _Run(row, _verdict_code(rep.verdict),
                {f"audit_{rep.theorem_id}.csv":
                 (["key", "value"], _report_rows(rep))},
                _report_text(rep))


def run_collar(cfg):
    data, geom = _geometry(cfg)
    value = audits.collar_infimum(data, geom, cfg.zeta,
                                  which=cfg.collar_field)
    row = [cfg.collar_field, cfg.zeta, value]
    return _Run(row, EXIT_OK,
                {"audit_collar.csv": (["quantity", "zeta", "infimum"], [row])},
                f"[collar] inf over zeta={cfg.zeta}: {value!r}")


def cmd_audit(cfg):
    run = run_collar if cfg.theorem == "collar" else run_audit
    return _emit(cfg, run(cfg))


def _patch_spec(spec, key, value):
    name, _, rest = spec.partition(":")
    params = idata.spec_params(name, rest)
    params[key] = _fmt(float(value))
    body = ",".join(f"{k}={v}" for k, v in params.items())
    return f"{name}:{body}"


def cmd_sweep(cfg):
    """Run the swept command once per step on a patched config and write
    the steps' summary rows to sweep.csv."""
    target, _, key = (cfg.sweep_param or "").partition(":")
    if target not in ("surface", "data") or not key:
        raise ValueError("sweep parameter must look like surface:r or data:m")
    run, header = {"surface": (run_surface, _SURFACE_HEADER),
                   "eigen": (run_eigen, _EIGEN_HEADER),
                   "audit": (run_audit, _AUDIT_HEADER)}[cfg.sweep_command]
    values = np.linspace(cfg.sweep_from, cfg.sweep_to, cfg.sweep_steps)

    def step(value):
        patched = _patch_spec(getattr(cfg, target), key, value)
        return run(argparse.Namespace(**{**vars(cfg), target: patched}))

    with ThreadPoolExecutor(max_workers=max(1, cfg.workers)) as pool:
        runs = list(pool.map(step, values))
    _write_csv(os.path.join(cfg.out, "sweep.csv"), ["step"] + header,
               [[v] + r.row for v, r in zip(values, runs)])
    code = _combine([r.code for r in runs])
    print(f"[sweep] {cfg.sweep_steps} steps of {cfg.sweep_param} in "
          f"[{cfg.sweep_from}, {cfg.sweep_to}]: exit={code}")
    return code


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """Raises on bad input, which ``main`` maps to exit 3; argparse's own
    exit code 2 would read as an unmet hypothesis."""

    def error(self, message):
        raise InvalidInputError(message)


def build_parser():
    """The one declaration of every option: its name, type, choices and
    default. Config-file keys are these options' long names."""
    parser = _Parser(
        prog="motslab", allow_abbrev=False,
        description="surface stability and inequality audits on analytic "
                    "initial data sets")
    parser.add_argument("command",
                        choices=["catalog", "constraints", "surface", "eigen",
                                 "audit", "sweep"])
    parser.add_argument("--config", default=None,
                        help="flat key = value configuration file")
    parser.add_argument("--data", default="minkowski")
    parser.add_argument("--surface", default="sphere:r=1.0")
    parser.add_argument("--grid", default="64x128")
    parser.add_argument("--operator", default="Ls", choices=list(_OPERATORS))
    parser.add_argument("--bc", default="closed")
    parser.add_argument("--qbar", default="proof", choices=["proof", "lemma"])
    parser.add_argument("--theorem", default="cy-estimate",
                        choices=["cy-estimate", "hawking-bound",
                                 "cohn-vossen", "growth-bounds", "g-quantity",
                                 "area-boundary", "diameter", "index",
                                 "collar"])
    parser.add_argument("--genus", type=int, default=0)
    parser.add_argument("--boundary", type=int, default=1)
    parser.add_argument("--index", type=int, default=1)
    parser.add_argument("--c", type=float, default=None)
    parser.add_argument("--area", type=float, default=None)
    parser.add_argument("--a", type=float, default=1.0)
    parser.add_argument("--q", type=float, default=None)
    parser.add_argument("--zeta", type=float, default=0.1)
    parser.add_argument("--collar-field", default="dec",
                        choices=["dec", "boundary"])
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--theta-tol", type=float, default=audits.THETA_TOL,
                        help="MOTS tolerance for audits")
    parser.add_argument("--stab-tol", type=float, default=audits.STAB_TOL,
                        help="stability tolerance for audits")
    parser.add_argument("--out", default=os.environ.get("MOTSLAB_OUT", "."))
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--sweep-param", default=None)
    parser.add_argument("--sweep-from", type=float, default=1.0)
    parser.add_argument("--sweep-to", type=float, default=2.0)
    parser.add_argument("--sweep-steps", type=int, default=2)
    parser.add_argument("--sweep-command", default="surface",
                        choices=["surface", "eigen", "audit"])
    return parser


def _config_flags(path):
    """The ``key = value`` lines of a config file as ``--key=value``."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, _, val = line.partition("=")
                flags.append(f"--{key.strip().replace('_', '-')}="
                             f"{val.strip()}")
    return flags


def parse_config(argv=None):
    """Parse argv, with the ``--config`` file's lines as flags placed
    before it so that flags win, and check the values' ranges."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    cfg = parser.parse_args(argv)
    if cfg.config:
        cfg = parser.parse_args(_config_flags(cfg.config) + argv)
    for name in ("theta_tol", "stab_tol"):
        if getattr(cfg, name) <= 0.0:
            raise ValueError(f"{name} must be positive")
    if cfg.sweep_steps < 2:
        raise ValueError("sweeps need at least 2 steps")
    os.makedirs(cfg.out, exist_ok=True)
    return cfg


def main(argv=None):
    try:
        cfg = parse_config(argv)
        return {
            "catalog": cmd_catalog,
            "constraints": cmd_constraints,
            "surface": cmd_surface,
            "eigen": cmd_eigen,
            "audit": cmd_audit,
            "sweep": cmd_sweep,
        }[cfg.command](cfg)
    except (MotslabError, ValueError, OSError, np.linalg.LinAlgError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
