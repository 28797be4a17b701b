"""Seeded job generators and output checks for the motslab benchmark.

A workload is an endless sequence of cycles. A cycle is a short, fixed
list of job kinds whose parameters are drawn from the seed; the benchmark
runs whole cycles, so every run sees the same mix of kinds. A job is one
``motslab`` command line (without ``--out``) plus the check of the files
it writes. Only the generated argv reaches the program.

Parameters that steer the amount of work (the mass and radius of
off-centre spheres, which set the power-iteration count because the
resolvent shift has a fixed unit part) are drawn from narrow bands, so
run-to-run cost does not depend on the seed.
Reference jobs keep a fixed radius-to-mass ratio, so their discretisation
error, and with it ``ref_err.max``, is the same for every seed.
"""

import csv
import math
import os
import random
from dataclasses import dataclass, field

# Every workload runs at 64x128. At 128x256 a run holds a fifth as many
# jobs, and in paired runs on a 2-core VM whose speed drifted by up to 2x
# the geometry-survey spread (quartile distance over median, six seeds)
# was 0.17 at 128x256 against 0.08 at 64x128.
GRID = "64x128"
N_NODES = 64 * 128

# Tolerances of the output checks.
E_H_TOL = 5e-3          # relative, Hawking energy of centred spheres vs m
THETA_TOL = 1e-5        # max |theta+| on a horizon
GB_TOL = 2e-2 * math.pi  # |Gauss-Bonnet residual| of a closed sphere
LAMBDA_TOL = 1e-2       # relative, horizon lambda1 vs 1/(4 m^2)
EQUAL_TOL = 1e-6        # lambda1(L) = lambda1(Ls) on the horizon
# lambda1(L) <= lambda1(Ls) + tol on off-centre PG spheres, relative to
# lambda1(Ls). The pair is an equality case to
# within discretisation error, so the sign of the discrete gap follows the
# sphere's placement against the grid poles: at r = 1, m = 1 it is +2.5e-3
# for an offset of 0.4 along z and -8.5e-4 along x (64x128), four times
# that at 32x64. An absolute 1e-7 would flag every polar offset. Closer to
# the puncture the error grows (+8.8e-3 at r = 0.95, offset 0.45 along z).
COMPARE_REL_TOL = 1e-2
ADJOINT_TOL = 1e-7      # |lambda1 - adjoint lambda1|
DIAMETER_TOL = 1e-2     # relative, flat-disk diameter vs 2R
AREA_BOUNDARY_TOL = 1e-9  # relative, flat-disk I(Sigma) vs 2 pi

EXIT_CODES = {"Holds": 0, "Violated": 1, "HypothesisUnmet": 2,
              "NotApplicable": 2}

# Excision radii as fractions of m, widened by a safety factor of four.
_EXCISION = {"schwarzschild-iso": 4 * 0.05, "schwarzschild-pg": 4 * 0.1}


@dataclass
class Outcome:
    """What a job check found: problems (empty when it passed), the
    relative error against a closed form (reference jobs only) and the
    parsed values that cycle checks compare."""

    problems: list = field(default_factory=list)
    ref_err: float | None = None
    values: dict = field(default_factory=dict)


@dataclass
class Job:
    kind: str
    argv: list
    check: object       # callable(out_dir, exit_code) -> Outcome


@dataclass
class Cycle:
    jobs: list
    checks: list = field(default_factory=list)  # callable(outcomes) -> problems


def _num(x):
    return repr(round(float(x), 6))


def _unit_vector(rng):
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(1.0 - z * z)
    return (s * math.cos(phi), s * math.sin(phi), z)


def _sphere(r, centre=(0.0, 0.0, 0.0)):
    spec = f"sphere:r={_num(r)}"
    for axis, c in zip("xyz", centre):
        if c != 0.0:
            spec += f",c{axis}={_num(c)}"
    return spec


def _offcentre(rng, data, m, r_band, offset_band):
    """Seeded radius and centre, both in units of m, checked in-domain."""
    r = round(m * rng.uniform(*r_band), 4)
    off = m * rng.uniform(*offset_band)
    centre = tuple(round(off * u, 4) for u in _unit_vector(rng))
    nearest = r - math.sqrt(sum(c * c for c in centre))
    if nearest <= _EXCISION[data] * m:
        raise ValueError(f"sphere r={r} centre={centre} enters the excision")
    return r, centre


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _read_table(out_dir, name):
    """Header and single row of a summary CSV, matched from the right: the
    program writes the surface spec unquoted, so a spec with a comma in it
    (``sphere:r=1,cx=0.4``) adds fields to the left of the numbers."""
    header, row = _read_rows(os.path.join(out_dir, name))[:2]
    return dict(zip(reversed(header), reversed(row)))


def _read_report(out_dir, theorem):
    # diagnostic names may hold commas (``max|G(l-,l-)|``); values do not
    rows = _read_rows(os.path.join(out_dir, f"audit_{theorem}.csv"))
    return {",".join(row[:-1]): row[-1] for row in rows[1:]}


def _finite(values, names, problems):
    out = {}
    for name in names:
        value = float(values[name])
        if not math.isfinite(value):
            problems.append(f"{name} is not finite")
        out[name] = value
    return out


def _rel(value, exact):
    return abs(value - exact) / abs(exact)


def _expect_code(code, expected, problems):
    if code != expected:
        problems.append(f"exit code {code}, expected {expected}")


# ---------------------------------------------------------------------------
# surface jobs


def _surface_check(m, horizon):
    """Every sphere: finite output, positive area, Gauss-Bonnet. Centred
    horizons, the reference jobs: E_H = m and theta+ = 0."""
    def check(out_dir, code):
        out = Outcome()
        _expect_code(code, 0, out.problems)
        row = _read_table(out_dir, "surface.csv")
        v = _finite(row, ["area", "theta_plus_min", "theta_plus_max",
                          "hawking_energy", "gauss_bonnet_residual"],
                    out.problems)
        if not v["area"] > 0.0:
            out.problems.append("area not positive")
        if abs(v["gauss_bonnet_residual"]) > GB_TOL:
            out.problems.append(
                f"Gauss-Bonnet residual {v['gauss_bonnet_residual']:.3e}")
        if horizon:
            out.ref_err = _rel(v["hawking_energy"], m)
            if out.ref_err > E_H_TOL:
                out.problems.append(f"E_H relative error {out.ref_err:.3e}")
            tp = max(abs(v["theta_plus_min"]), abs(v["theta_plus_max"]))
            if tp > THETA_TOL:
                out.problems.append(f"horizon max|theta+| = {tp:.3e}")
        return out
    return check


def _surface_job(kind, data, m, surface, horizon=False):
    argv = ["surface", "--data", f"{data}:m={_num(m)}", "--surface", surface,
            "--grid", GRID]
    return Job(kind, argv, _surface_check(m, horizon))


def geometry_cycle(rng):
    iso = "schwarzschild-iso"
    pg = "schwarzschild-pg"
    m_iso = round(rng.uniform(0.5, 2.0), 4)
    m_pg = round(rng.uniform(0.5, 2.0), 4)
    m_iso_off = round(rng.uniform(0.5, 2.0), 4)
    m_pg_off = round(rng.uniform(0.5, 2.0), 4)
    r_iso, c_iso = _offcentre(rng, iso, m_iso_off, (1.0, 3.0), (0.1, 0.5))
    r_pg, c_pg = _offcentre(rng, pg, m_pg_off, (2.5, 5.0), (0.1, 0.5))
    return Cycle([
        _surface_job("iso-horizon", iso, m_iso, _sphere(m_iso / 2),
                     horizon=True),
        _surface_job("pg-horizon", pg, m_pg, _sphere(2 * m_pg), horizon=True),
        _surface_job("iso-offcentre", iso, m_iso_off, _sphere(r_iso, c_iso)),
        _surface_job("pg-offcentre", pg, m_pg_off, _sphere(r_pg, c_pg)),
    ])


# ---------------------------------------------------------------------------
# eigen jobs


def _eigen_check(lambda_exact=None):
    def check(out_dir, code):
        out = Outcome()
        _expect_code(code, 0, out.problems)
        row = _read_table(out_dir, "eigen.csv")
        v = _finite(row, ["lambda1", "residual", "adjoint_lambda1"],
                    out.problems)
        if row["positive"] != "true":
            out.problems.append("eigenfunction not positive")
        if abs(v["lambda1"] - v["adjoint_lambda1"]) > ADJOINT_TOL:
            out.problems.append("adjoint gap "
                                f"{abs(v['lambda1'] - v['adjoint_lambda1']):.3e}")
        phi = [float(r[2]) for r in
               _read_rows(os.path.join(out_dir, "eigenfunction.csv"))[1:]]
        if len(phi) != N_NODES:
            out.problems.append(f"{len(phi)} eigenfunction rows, "
                                f"expected {N_NODES}")
        elif not (min(phi) > 0.0 and max(phi) == 1.0):
            out.problems.append("eigenfunction not positive with max 1")
        if lambda_exact is not None:
            out.ref_err = _rel(v["lambda1"], lambda_exact)
            if out.ref_err > LAMBDA_TOL:
                out.problems.append(f"lambda1 relative error {out.ref_err:.3e}")
        out.values = v
        return out
    return check


def _eigen_job(kind, data, m, surface, operator, lambda_exact=None):
    argv = ["eigen", "--operator", operator, "--bc", "closed",
            "--data", f"{data}:m={_num(m)}", "--surface", surface,
            "--grid", GRID]
    return Job(kind, argv, _eigen_check(lambda_exact))


def _horizon_equal(i, j):
    def check(outcomes):
        lam_ls, lam_l = (outcomes[k].values["lambda1"] for k in (i, j))
        if abs(lam_l - lam_ls) > EQUAL_TOL:
            return [f"horizon lambda1(L) = {lam_l!r} != lambda1(Ls) = {lam_ls!r}"]
        return []
    return check


def _offcentre_compare(i, j):
    def check(outcomes):
        lam_l, lam_ls = (outcomes[k].values["lambda1"] for k in (i, j))
        tol = COMPARE_REL_TOL * abs(lam_ls)
        if lam_l > lam_ls + tol:
            return [f"lambda1(L) = {lam_l!r} > lambda1(Ls) = {lam_ls!r} "
                    f"+ {tol:.3e}"]
        return []
    return check


def eigen_cycle(rng):
    iso = "schwarzschild-iso"
    pg = "schwarzschild-pg"
    m_h = round(rng.uniform(0.5, 2.0), 4)
    horizon = _sphere(m_h / 2)
    exact = 1.0 / (4.0 * m_h * m_h)
    # r = m with the centre 0.4 m out, the configuration of the ROADMAP
    # baseline; lambda1 and the iteration count change fast as the sphere
    # nears the puncture, so only the mass and the direction are seeded.
    m = round(rng.uniform(0.95, 1.05), 4)
    r, c = _offcentre(rng, pg, m, (1.0, 1.0), (0.4, 0.4))
    off = _sphere(r, c)
    # The horizon's lambda1 is exact to rounding (the eigenfunction is
    # constant), so the surface job's Hawking energy, whose error is
    # discretisation, is the reference that sets ref_err.max here.
    return Cycle([
        _surface_job("iso-horizon", iso, m_h, horizon, horizon=True),
        _eigen_job("iso-horizon-Ls", iso, m_h, horizon, "Ls", exact),
        _eigen_job("iso-horizon-L", iso, m_h, horizon, "L", exact),
        _eigen_job("pg-offcentre-L", pg, m, off, "L"),
        _eigen_job("pg-offcentre-Ls", pg, m, off, "Ls"),
    ], checks=[_horizon_equal(1, 2), _offcentre_compare(3, 4)])


# ---------------------------------------------------------------------------
# audit jobs


def _audit_check(theorem, verdict, ok_flags=(), reference=None):
    """``reference`` is (report key, exact value, tolerance) or None."""
    def check(out_dir, code):
        out = Outcome()
        _expect_code(code, EXIT_CODES[verdict], out.problems)
        rep = _read_report(out_dir, theorem)
        if rep.get("verdict") != verdict:
            out.problems.append(f"verdict {rep.get('verdict')}, "
                                f"expected {verdict}")
        for flag in ok_flags:
            if rep.get(f"flag:{flag}") != "ok":
                out.problems.append(f"flag {flag} not ok")
        if reference is not None:
            key, exact, tol = reference
            err = _rel(float(rep[key]), exact)
            if not err <= tol:
                out.problems.append(f"{key} relative error {err:.3e}")
            out.ref_err = err
        return out
    return check


def _audit_job(theorem, data, surface, verdict, ok_flags=(), reference=None):
    argv = ["audit", "--theorem", theorem, "--data", data,
            "--surface", surface, "--grid", GRID]
    return Job(theorem, argv,
               _audit_check(theorem, verdict, ok_flags, reference))


def audit_cycle(rng):
    pg = "schwarzschild-pg"
    m_ref = round(rng.uniform(0.5, 2.0), 4)
    m_h = round(rng.uniform(0.5, 2.0), 4)
    m = round(rng.uniform(0.95, 1.05), 4)
    r, c = _offcentre(rng, pg, m, (4.0, 4.2), (0.3, 0.6))
    off = _sphere(r, c)
    pg_off = f"{pg}:m={_num(m)}"
    radius = round(rng.uniform(0.5, 2.5), 4)
    z0 = round(rng.uniform(-1.0, 1.0), 4)
    disk = (f"disk:r={_num(radius)},z={_num(z0)},"
            f"support=cylinder:r={_num(radius)}")
    return Cycle([
        _audit_job("hawking-bound", f"{pg}:m={_num(m_ref)}",
                   _sphere(3 * m_ref), "Holds",
                   reference=("rhs", m_ref, E_H_TOL)),
        _audit_job("cy-estimate", pg_off, off, "Holds",
                   ok_flags=("spacelike_mean_curvature",)),
        _audit_job("g-quantity", pg_off, off, "HypothesisUnmet"),
        _audit_job("cohn-vossen", f"{pg}:m={_num(m_h)}", _sphere(2 * m_h),
                   "HypothesisUnmet", ok_flags=("is_mots", "stable")),
        _audit_job("area-boundary", "minkowski", disk, "Holds",
                   ok_flags=("is_mots", "stable"),
                   reference=("lhs", 2.0 * math.pi, AREA_BOUNDARY_TOL)),
        _audit_job("diameter", "minkowski", disk, "Holds",
                   reference=("extra:diameter", 2.0 * radius, DIAMETER_TOL)),
    ])


CYCLES = {
    "geometry-survey": geometry_cycle,
    "eigen-offcenter": eigen_cycle,
    "audit-mix": audit_cycle,
}
WORKLOADS = tuple(CYCLES)


def cycles(workload, seed):
    """Endless seeded cycle sequence of a workload."""
    rng = random.Random(f"{workload}/{seed}")
    make = CYCLES[workload]
    while True:
        yield make(rng)


def argv_list(workload, seed, n_cycles):
    """The argv of the first ``n_cycles`` cycles, flattened."""
    gen = cycles(workload, seed)
    return [job.argv for _ in range(n_cycles) for job in next(gen).jobs]
