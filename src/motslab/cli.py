"""Command-line interface: catalog, constraints, surface, eigen, audit, sweep.

Configuration is a flat ``key = value`` text file; command-line flags
override file values. All outputs are UTF-8 text, CSV values carry 17
significant digits, and re-running with the same configuration and seed
reproduces byte-identical files.

Exit codes: 0 all verdicts hold, 1 some inequality violated, 2 some
hypothesis unmet or audit not applicable, 3 numerical failure. Across a
multi-step run the precedence is 3 > 2 > 1 > 0.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import audits, grids, initialdata as idata, spectra, surfaces
from .errors import InvalidInputError, MotslabError

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
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    os.replace(tmp, path)


def _parse_kv(text):
    params = {}
    if not text:
        return params
    for item in text.split(","):
        key, _, val = item.partition("=")
        params[key.strip()] = val.strip()
    return params


def _parse_grid(text):
    nu, _, nv = text.lower().partition("x")
    n_u, n_v = int(nu), int(nv)
    for n in (n_u, n_v):
        if not 8 <= n <= 1024:
            raise ValueError(f"grid axis {n} outside [8, 1024]")
    return n_u, n_v


def resolve_support(spec):
    if spec is None:
        return None
    spec = spec.strip()
    if spec == "plane-z0":
        return surfaces.PlaneSupport(0.0)
    name, _, rest = spec.partition(":")
    params = {k: float(v) for k, v in _parse_kv(rest).items()}
    if name == "plane":
        return surfaces.PlaneSupport(params.get("z", 0.0))
    if name == "cylinder":
        return surfaces.CylinderSupport(params.get("r", 1.0))
    if name == "ball":
        return surfaces.BallSupport(params.get("r", 1.0))
    raise ValueError(f"unknown support {name!r}")


def resolve_surface(spec, grid_shape):
    """Build a surface chart from a CLI spec string like ``sphere:r=2.0``."""
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    raw = _parse_kv(rest)
    support = resolve_support(raw.pop("support", None))
    params = {k: v for k, v in raw.items()}

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
    if name == "cap":
        grid = grids.make_grid(grids.DISK, *grid_shape)
        return surfaces.cap_chart(grid, float(params.get("r", 1.0)),
                                  support=support)
    raise ValueError(f"unknown surface {name!r}")


_OPERATORS = {
    "L": spectra.MOTS_L,
    "Ls": spectra.MOTS_LS,
    "Hstab-N": spectra.HSTAB_NORMAL,
    "Hstab-lminus": spectra.HSTAB_MINUS_LMINUS,
}


def resolve_bc(text):
    text = (text or "closed").strip()
    if text == "closed":
        return spectra.BC_CLOSED, spectra.Q_FREE, None
    if text.startswith("robin"):
        _, _, rest = text.partition(":")
        if rest == "free" or rest == "":
            return spectra.BC_ROBIN, spectra.Q_FREE, None
        if rest == "sym":
            return spectra.BC_ROBIN, spectra.Q_SYMMETRIZED, None
        if rest.startswith("gamma="):
            return spectra.BC_ROBIN, spectra.Q_CAPILLARY, float(rest[6:])
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


def _surface_row(cfg, geom):
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
    return [cfg.data, cfg.surface, cfg.grid, geom.area, blen,
            float(np.min(geom.theta_p)), float(np.max(geom.theta_p)),
            float(np.min(geom.theta_m)), float(np.max(geom.theta_m)),
            e_h, gb]


_SURFACE_HEADER = ["data", "surface", "grid", "area", "boundary_length",
                   "theta_plus_min", "theta_plus_max", "theta_minus_min",
                   "theta_minus_max", "hawking_energy",
                   "gauss_bonnet_residual"]


def cmd_surface(cfg):
    data = idata.resolve(cfg.data)
    chart = resolve_surface(cfg.surface, _parse_grid(cfg.grid))
    geom = surfaces.compute_geometry(chart, data)
    row = _surface_row(cfg, geom)
    _write_csv(os.path.join(cfg.out, "surface.csv"), _SURFACE_HEADER, [row])
    print("[surface] " + " ".join(f"{k}={_fmt(v)}"
                                  for k, v in zip(_SURFACE_HEADER, row)))
    return EXIT_OK


_EIGEN_HEADER = ["data", "surface", "grid", "operator", "bc", "lambda1",
                 "residual", "iterations", "positive", "adjoint_lambda1",
                 "q_hypothesis_warning"]


def _eigen_row(cfg, result):
    return [cfg.data, cfg.surface, cfg.grid, cfg.operator, cfg.bc,
            result.lambda1, result.residual, result.iterations,
            result.positive, result.adjoint_lambda1,
            "; ".join(result.warnings)]


def cmd_eigen(cfg):
    data = idata.resolve(cfg.data)
    chart = resolve_surface(cfg.surface, _parse_grid(cfg.grid))
    geom = surfaces.compute_geometry(chart, data)
    bc, q_source, gamma = resolve_bc(cfg.bc)
    spec = spectra.OperatorSpec(_OPERATORS[cfg.operator], geom, bc=bc,
                                q_source=q_source, gamma=gamma,
                                qbar_variant=cfg.qbar)
    result = spectra.principal_eigenvalue(spectra.assemble(spec))
    row = _eigen_row(cfg, result)
    _write_csv(os.path.join(cfg.out, "eigen.csv"), _EIGEN_HEADER, [row])
    U, V = geom.grid.meshgrid()
    nodes = zip(U.ravel(), V.ravel(), result.eigenfunction.ravel())
    _write_csv(os.path.join(cfg.out, "eigenfunction.csv"),
               ["u", "v", "phi"], nodes)
    print(f"[eigen] {cfg.operator} ({cfg.bc}): lambda1={result.lambda1!r} "
          f"residual={result.residual:.2e} iters={result.iterations} "
          f"positive={result.positive} adjoint={result.adjoint_lambda1!r}")
    return EXIT_OK


def _run_audit(cfg, geom, data):
    tid = cfg.theorem
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
    raise ValueError(f"unknown theorem id {cfg.theorem!r}")


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


def _print_report(rep):
    print(f"[audit {rep.theorem_id}] lhs={_fmt(rep.lhs)} rhs={_fmt(rep.rhs)} "
          f"margin={_fmt(rep.margin)}")
    for f in rep.hypothesis_flags:
        state = "ok   " if f.satisfied else "UNMET"
        print(f"  flag {state} {f.name} (evidence={_fmt(f.evidence)})")
    for name, value in rep.equality_diagnostics:
        print(f"  equality residual {name} = {_fmt(value)}")
    if rep.notes:
        print(f"  note: {rep.notes}")
    print(f"  verdict: {rep.verdict}")


def cmd_audit(cfg):
    if cfg.theorem == "index":
        rep = audits.audit_index_bounds(cfg.genus, cfg.boundary, cfg.index,
                                        c=cfg.c, area=cfg.area)
    elif cfg.theorem == "collar":
        data = idata.resolve(cfg.data)
        chart = resolve_surface(cfg.surface, _parse_grid(cfg.grid))
        geom = surfaces.compute_geometry(chart, data)
        value = audits.collar_infimum(data, geom, cfg.zeta,
                                      which=cfg.collar_field)
        _write_csv(os.path.join(cfg.out, "audit_collar.csv"),
                   ["quantity", "zeta", "infimum"],
                   [(cfg.collar_field, cfg.zeta, value)])
        print(f"[collar] inf over zeta={cfg.zeta}: {value!r}")
        return EXIT_OK
    else:
        data = idata.resolve(cfg.data)
        chart = resolve_surface(cfg.surface, _parse_grid(cfg.grid))
        geom = surfaces.compute_geometry(chart, data)
        rep = _run_audit(cfg, geom, data)
    _write_csv(os.path.join(cfg.out, f"audit_{rep.theorem_id}.csv"),
               ["key", "value"], _report_rows(rep))
    _print_report(rep)
    return _verdict_code(rep.verdict)


def _patch_spec(spec, key, value):
    name, sep, rest = spec.partition(":")
    params = _parse_kv(rest) if sep else {}
    params[key] = _fmt(float(value))
    body = ",".join(f"{k}={v}" for k, v in params.items())
    return f"{name}:{body}"


def cmd_sweep(cfg):
    import copy

    target, _, key = cfg.sweep_param.partition(":")
    if target not in ("surface", "data") or not key:
        raise ValueError("sweep parameter must look like surface:r or data:m")
    values = np.linspace(cfg.sweep_from, cfg.sweep_to, cfg.sweep_steps)

    def one(step_value):
        sub = copy.copy(cfg)
        patched = _patch_spec(getattr(cfg, target), key, step_value)
        setattr(sub, target, patched)
        sub.out = cfg.out
        if cfg.sweep_command == "surface":
            data = idata.resolve(sub.data)
            chart = resolve_surface(sub.surface, _parse_grid(sub.grid))
            geom = surfaces.compute_geometry(chart, data)
            return _surface_row(sub, geom), EXIT_OK
        if cfg.sweep_command == "eigen":
            data = idata.resolve(sub.data)
            chart = resolve_surface(sub.surface, _parse_grid(sub.grid))
            geom = surfaces.compute_geometry(chart, data)
            bc, q_source, gamma = resolve_bc(sub.bc)
            spec = spectra.OperatorSpec(_OPERATORS[sub.operator], geom,
                                        bc=bc, q_source=q_source, gamma=gamma,
                                        qbar_variant=sub.qbar)
            res = spectra.principal_eigenvalue(spectra.assemble(spec))
            return _eigen_row(sub, res), EXIT_OK
        if cfg.sweep_command == "audit":
            data = idata.resolve(sub.data)
            chart = resolve_surface(sub.surface, _parse_grid(sub.grid))
            geom = surfaces.compute_geometry(chart, data)
            rep = _run_audit(sub, geom, data)
            row = [sub.data, sub.surface, rep.theorem_id, rep.lhs, rep.rhs,
                   rep.margin, rep.verdict]
            return row, _verdict_code(rep.verdict)
        raise ValueError(f"cannot sweep command {cfg.sweep_command!r}")

    with ThreadPoolExecutor(max_workers=max(1, cfg.workers)) as pool:
        results = list(pool.map(one, values))

    if cfg.sweep_command == "surface":
        header = ["step"] + _SURFACE_HEADER
    elif cfg.sweep_command == "eigen":
        header = ["step"] + _EIGEN_HEADER
    else:
        header = ["step", "data", "surface", "theorem", "lhs", "rhs",
                  "margin", "verdict"]
    rows = [[v] + list(row) for v, (row, _) in zip(values, results)]
    _write_csv(os.path.join(cfg.out, "sweep.csv"), header, rows)
    codes = [code for _, code in results]
    print(f"[sweep] {cfg.sweep_steps} steps of {cfg.sweep_param} in "
          f"[{cfg.sweep_from}, {cfg.sweep_to}]: exit={_combine(codes)}")
    return _combine(codes)


# ---------------------------------------------------------------------------
# argument plumbing


def _load_config(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_FLOAT_KEYS = {"c", "area", "a", "q", "zeta", "sweep_from", "sweep_to",
               "theta_tol", "stab_tol"}
_INT_KEYS = {"seed", "samples", "genus", "boundary", "index", "sweep_steps",
             "workers"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="motslab",
        description="surface stability and inequality audits on analytic "
                    "initial data sets")
    parser.add_argument("command",
                        choices=["catalog", "constraints", "surface", "eigen",
                                 "audit", "sweep"])
    parser.add_argument("--config", default=None,
                        help="flat key = value configuration file")
    parser.add_argument("--data", default=None)
    parser.add_argument("--surface", default=None)
    parser.add_argument("--grid", default=None)
    parser.add_argument("--operator", default=None,
                        choices=list(_OPERATORS) + [None])
    parser.add_argument("--bc", default=None)
    parser.add_argument("--qbar", default=None, choices=["proof", "lemma", None])
    parser.add_argument("--theorem", default=None)
    parser.add_argument("--genus", type=int, default=None)
    parser.add_argument("--boundary", type=int, default=None)
    parser.add_argument("--index", type=int, default=None)
    parser.add_argument("--c", type=float, default=None)
    parser.add_argument("--area", type=float, default=None)
    parser.add_argument("--a", type=float, default=None)
    parser.add_argument("--q", type=float, default=None)
    parser.add_argument("--zeta", type=float, default=None)
    parser.add_argument("--collar-field", default=None,
                        choices=["dec", "boundary", None])
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--theta-tol", type=float, default=None,
                        help="MOTS tolerance override for audits")
    parser.add_argument("--stab-tol", type=float, default=None,
                        help="stability tolerance override for audits")
    parser.add_argument("--out", default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--sweep-param", default=None)
    parser.add_argument("--sweep-from", type=float, default=None)
    parser.add_argument("--sweep-to", type=float, default=None)
    parser.add_argument("--sweep-steps", type=int, default=None)
    parser.add_argument("--sweep-command", default=None,
                        choices=["surface", "eigen", "audit", None])
    return parser


_DEFAULTS = {
    "data": "minkowski",
    "surface": "sphere:r=1.0",
    "grid": "64x128",
    "operator": "Ls",
    "bc": "closed",
    "qbar": "proof",
    "theorem": "cy-estimate",
    "genus": 0, "boundary": 1, "index": 1,
    "a": 1.0, "zeta": 0.1, "collar_field": "dec",
    "samples": 200, "seed": 1234,
    "theta_tol": audits.THETA_TOL, "stab_tol": audits.STAB_TOL,
    "workers": 1,
    "sweep_steps": 2, "sweep_from": 1.0, "sweep_to": 2.0,
    "sweep_command": "surface",
}


def finalize_config(args):
    cfg = argparse.Namespace(**vars(args))
    file_values = _load_config(args.config) if args.config else {}
    for key, raw in file_values.items():
        if getattr(cfg, key, None) is None:
            if key in _FLOAT_KEYS:
                setattr(cfg, key, float(raw))
            elif key in _INT_KEYS:
                setattr(cfg, key, int(raw))
            else:
                setattr(cfg, key, raw)
    for key, val in _DEFAULTS.items():
        if getattr(cfg, key, None) is None:
            setattr(cfg, key, val)
    if cfg.out is None:
        cfg.out = os.environ.get("MOTSLAB_OUT", ".")
    os.makedirs(cfg.out, exist_ok=True)
    for name in ("theta_tol", "stab_tol"):
        if getattr(cfg, name) <= 0.0:
            raise ValueError(f"{name} must be positive")
    if cfg.sweep_steps is not None and cfg.sweep_steps < 2:
        raise ValueError("sweeps need at least 2 steps")
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = {
        "catalog": cmd_catalog,
        "constraints": cmd_constraints,
        "surface": cmd_surface,
        "eigen": cmd_eigen,
        "audit": cmd_audit,
        "sweep": cmd_sweep,
    }[args.command]
    try:
        return command(finalize_config(args))
    except (MotslabError, ValueError, OSError, np.linalg.LinAlgError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
