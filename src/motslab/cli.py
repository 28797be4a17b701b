"""Command-line interface: catalog, constraints, surface, eigen, audit, sweep.

Configuration is a flat ``key = value`` text file whose keys are the long
flag names (with dashes or underscores); its values pass through the same
parser as the flags, with the same types and choices, and command-line
flags override them. An unknown key or a bad value exits 3. All outputs
are UTF-8 text, CSV values carry 17 significant digits, and re-running
with the same configuration and seed reproduces byte-identical files.

``sweep`` runs the surface, eigen or audit command once per step, on a
copy of the configuration with one spec parameter patched.

The spectra and audits layers, and scipy with them, are imported by the
commands that run them, so ``catalog``, ``constraints`` and ``surface``
start on numpy alone.

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

from . import grids, initialdata as idata, surfaces
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


class _NodeValues(NamedTuple):
    """One float per grid node, written as (u, v, value) rows in node
    order."""
    grid: grids.Grid2
    values: np.ndarray

    def text(self):
        """The rows as ``_fmt`` writes them. The u and v columns take only
        n_u + n_v distinct values: each is formatted once, into a template
        that formats every value in one ``%`` operation."""
        us = ["%.17g," % u for u in self.grid.u.tolist()]
        vs = ["%.17g,%%.17g\n" % v for v in self.grid.v.tolist()]
        template = "".join([u + v for u in us for v in vs])
        return template % tuple(self.values.ravel().tolist())


def _write_csv(path, header, rows):
    """Write a CSV file; a field holding a comma (a spec such as
    ``sphere:r=2,cx=0.1``) is quoted. ``rows`` is a list of rows or a
    ``_NodeValues``."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, _NodeValues):
            fh.write(rows.text())
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
# the spec keys that are radii or semi-axes
_LENGTH_KEYS = ("r", "a", "b", "c")


def _spec_floats(name, rest, known):
    """The parameters of a surface or support spec, each but ``file`` and
    ``support`` a float. A value that is not finite, or a radius or
    semi-axis <= 0, raises InvalidInputError."""
    params = idata.spec_params(name, rest, known)
    for key, val in params.items():
        if key in ("file", "support"):
            continue
        value = float(val)
        if not np.isfinite(value):
            raise InvalidInputError(f"{name} parameter {key} must be finite")
        if key in _LENGTH_KEYS and value <= 0.0:
            raise InvalidInputError(
                f"{name} parameter {key} must be positive")
        params[key] = value
    return params


def resolve_support(spec):
    if spec is None:
        return None
    spec = spec.strip()
    if spec == "plane-z0":
        return surfaces.PlaneSupport(0.0)
    name, _, rest = spec.partition(":")
    if name not in _SUPPORT_KEYS:
        raise ValueError(f"unknown support {name!r}")
    params = _spec_floats(name, rest, _SUPPORT_KEYS[name])
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
    params = _spec_floats(name, rest, _SURFACE_KEYS[name])
    support = resolve_support(params.pop("support", None))
    center = tuple(params.get(key, 0.0) for key in ("cx", "cy", "cz"))

    if name == "sphere":
        grid = grids.make_grid(grids.SPHERE, *grid_shape)
        return surfaces.sphere_chart(grid, params.get("r", 1.0), center)
    if name == "ellipsoid":
        grid = grids.make_grid(grids.SPHERE, *grid_shape)
        return surfaces.ellipsoid_chart(grid, params.get("a", 1.0),
                                        params.get("b", 1.0),
                                        params.get("c", 1.5))
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
        return surfaces.radial_graph_chart(grid, rho, center)
    if name == "disk":
        grid = grids.make_grid(grids.DISK, *grid_shape)
        return surfaces.flat_disk_chart(grid, params.get("r", 1.0),
                                        params.get("z", 0.0), support=support)
    grid = grids.make_grid(grids.DISK, *grid_shape)
    return surfaces.cap_chart(grid, params.get("r", 1.0), support=support)


# the (c, drift, q) of each --operator
_OPERATORS = {
    "L": surfaces.mots_coefficients,
    "Ls": surfaces.symmetrized_coefficients,
    "Hstab-N": surfaces.hstab_normal_coefficients,
    "Hstab-lminus": surfaces.hstab_minus_lminus_coefficients,
}

# the Robin q of each --bc word but the contact angle robin:gamma=<rad>
_ROBIN_Q = {
    "robin:free": surfaces.free_boundary_q,
    "robin:sym": lambda geom: surfaces.symmetrized_coefficients(geom)[2],
}


def resolve_bc(text):
    """The Robin q of a ``--bc`` word, a function of the geometry; None
    for ``closed``."""
    text = text.strip()
    if text == "closed":
        return None
    if text in _ROBIN_Q:
        return _ROBIN_Q[text]
    if text.startswith("robin:gamma="):
        angle = text[len("robin:gamma="):]
        try:
            gamma = float(angle)
        except ValueError:
            raise ValueError(f"--bc {text!r}: the contact angle {angle!r} "
                             "is not a number") from None
        return lambda geom: surfaces.capillary_q(geom, gamma)
    raise ValueError(f"unknown boundary condition {text!r}")


def _verdict_code(verdict):
    from . import audits

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
        lam = _fmt(entry.cosmological_constant)
        rows.append((entry.name, pstr, lam))
        print(f"{entry.name:28s} params[{pstr}] cosmological_constant={lam}")
    _write_csv(os.path.join(cfg.out, "catalog.csv"),
               ["name", "params", "cosmological_constant"], rows)
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
    jet = idata.evaluate(data, pts.T)
    mu, J, jn = jet.mu, jet.J, jet.j_norm
    rows = [(p[0], p[1], p[2], m, j[0], j[1], j[2], n, m - n)
            for p, m, j, n in zip(pts, mu, J.T, jn)]
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
    total = grids.total_curvature(geom.metric, geom.K)
    if geom.grid.topology == grids.SPHERE:
        blen = ""
        e_h = surfaces.hawking_energy(geom)
        gb = total - 4.0 * np.pi
    else:
        blen = geom.boundary_length()
        e_h = ""
        gb = total - 2.0 * np.pi
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
    from . import spectra

    _, geom = _geometry(cfg)
    bc = cfg.bc.strip()
    q_of = resolve_bc(bc)
    if (q_of is None) != (geom.grid.topology == grids.SPHERE):
        raise TopologyError("closed problems require sphere topology"
                            if q_of is None else
                            "Robin problems require disk topology")
    # the --bc word, not the operator, sets q
    q = None if q_of is None else q_of(geom)
    c, drift, _ = _OPERATORS[cfg.operator](geom)
    # the one command that reports the adjoint eigenvalue: transposed
    # solves on the forward factor, none for a symmetric pencil
    opmat = spectra.assemble(geom, c, drift, q)
    factor = spectra.factors(opmat)
    result = spectra.principal_eigenvalue(opmat, factor)
    adjoint = result.lambda1 if opmat.symmetric else \
        spectra.adjoint_eigenvalue(opmat, factor, result.shift)
    row = [cfg.data, cfg.surface, cfg.grid, cfg.operator, bc,
           result.lambda1, result.residual, result.iterations,
           result.positive, adjoint, "; ".join(result.warnings)]
    nodes = _NodeValues(geom.grid, result.eigenfunction)
    return _Run(row, EXIT_OK,
                {"eigen.csv": (_EIGEN_HEADER, [row]),
                 "eigenfunction.csv": (["u", "v", "phi"], nodes)},
                f"[eigen] {cfg.operator} ({bc}): "
                f"lambda1={result.lambda1!r} "
                f"residual={result.residual:.2e} iters={result.iterations} "
                f"positive={result.positive} "
                f"adjoint={adjoint!r}")


def cmd_eigen(cfg):
    return _emit(cfg, run_eigen(cfg))


def _audit_report(cfg):
    from . import audits

    tid = cfg.theorem
    if tid == "index":
        return audits.audit_index_bounds(cfg.genus, cfg.boundary, cfg.index,
                                         c=cfg.c, area=cfg.area)
    _, geom = _geometry(cfg)
    tols = {"theta_tol": cfg.theta_tol, "stab_tol": cfg.stab_tol}
    if tid == "cy-estimate":
        return audits.audit_cy_estimate(geom)
    if tid == "hawking-bound":
        return audits.audit_hawking_bound(geom)
    if tid == "cohn-vossen":
        return audits.audit_cohn_vossen(geom, **tols)
    if tid == "growth-bounds":
        qf = np.full(geom.grid.shape, cfg.q) if cfg.q is not None else None
        return audits.audit_growth_bounds(geom, a=cfg.a, c=cfg.c, q_field=qf,
                                          stab_tol=cfg.stab_tol)
    if tid == "g-quantity":
        return audits.audit_theorem_481(geom, stab_tol=cfg.stab_tol)
    if tid == "area-boundary":
        return audits.audit_I_sigma(geom, **tols)
    if tid == "diameter":
        return audits.audit_diameter(geom, **tols)
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
    from . import audits

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


def _finite_float(text):
    """Float option type: a non-number, NaN or an infinity exits 3."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


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
    parser.add_argument("--theorem", default="cy-estimate",
                        choices=["cy-estimate", "hawking-bound",
                                 "cohn-vossen", "growth-bounds", "g-quantity",
                                 "area-boundary", "diameter", "index",
                                 "collar"])
    parser.add_argument("--genus", type=int, default=0)
    parser.add_argument("--boundary", type=int, default=1)
    parser.add_argument("--index", type=int, default=1)
    parser.add_argument("--c", type=_finite_float, default=None)
    parser.add_argument("--area", type=_finite_float, default=None)
    parser.add_argument("--a", type=_finite_float, default=1.0)
    parser.add_argument("--q", type=_finite_float, default=None)
    parser.add_argument("--zeta", type=_finite_float, default=0.1)
    parser.add_argument("--collar-field", default="dec",
                        choices=["dec", "boundary"])
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--theta-tol", type=_finite_float,
                        default=surfaces.THETA_TOL,
                        help="MOTS tolerance for audits")
    parser.add_argument("--stab-tol", type=_finite_float,
                        default=surfaces.STAB_TOL,
                        help="stability tolerance for audits")
    parser.add_argument("--out", default=os.environ.get("MOTSLAB_OUT", "."))
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--sweep-param", default=None)
    parser.add_argument("--sweep-from", type=_finite_float, default=1.0)
    parser.add_argument("--sweep-to", type=_finite_float, default=2.0)
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
    if cfg.samples < 1:
        raise ValueError("constraints need at least 1 sample")
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
