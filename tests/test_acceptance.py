"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with -s to see them). Tolerances are pinned here and
nowhere else."""

import time
from dataclasses import replace

import numpy as np
from scipy import sparse

from intrinsic_oracle import gauss_curvature
from synthetic_fields import with_overrides
from variation_oracle import NORMAL_N, variation_oracle
from motslab import audits, cli, grids, initialdata as idata, spectra
from motslab.grids import make_grid, total_curvature
from motslab.spectra import assemble, principal_eigenvalue
from motslab.surfaces import (
    compute_geometry,
    ellipsoid_chart,
    flat_disk_chart,
    free_boundary_q,
    hawking_energy,
    mots_coefficients,
    sphere_chart,
    symmetrized_coefficients,
)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {status} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _sample_points(data, n, seed=42):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        x = rng.uniform(-3.0, 3.0, size=3)
        if np.linalg.norm(x) > 0.3 and data.in_domain(x):
            pts.append(x)
    return np.array(pts)


def test_criterion_1_constraint_auditor():
    t0 = time.perf_counter()
    worst = 0.0
    for entry in (idata.minkowski_flat(), idata.schwarzschild_isotropic(1.0),
                  idata.schwarzschild_pg(1.0)):
        pts = _sample_points(entry, 200)
        jet = idata.evaluate(entry, pts.T)
        worst = max(worst, float(np.max(np.abs(jet.mu))),
                    float(np.max(jet.j_norm)))
    hyp = idata.hyperboloidal_flat()
    pts = _sample_points(hyp, 200)
    jet = idata.evaluate(hyp, pts.T)
    mu_err = float(np.max(np.abs(jet.mu - 3.0)))
    j_err = float(np.max(np.abs(jet.J)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and mu_err < 1e-8 and j_err < 1e-8 and elapsed < 5.0
    _report(1, ok, f"vacuum max {worst:.2e}, hyperboloidal mu err "
                   f"{mu_err:.2e}, J err {j_err:.2e}, {elapsed:.2f}s")


def test_criterion_2_null_expansion_identities():
    cases = [
        (sphere_chart(make_grid(grids.SPHERE, 64, 128), 1.3),
         idata.minkowski_flat()),
        (ellipsoid_chart(make_grid(grids.SPHERE, 64, 128)),
         idata.hyperboloidal_flat()),
        (sphere_chart(make_grid(grids.SPHERE, 64, 128), 1.0, (0.4, 0.1, 0.0)),
         idata.schwarzschild_pg(1.0)),
        (flat_disk_chart(make_grid(grids.DISK, 64, 128)),
         idata.minkowski_flat()),
    ]
    worst = 0.0
    slowest = 0.0
    for chart, data in cases:
        t0 = time.perf_counter()
        geom = compute_geometry(chart, data)
        scale = max(1.0, float(np.max(np.abs(geom.H))),
                    float(np.max(np.abs(geom.P))))
        e1 = np.max(np.abs(geom.theta_p - (geom.H + geom.P)))
        e2 = np.max(np.abs(geom.theta_m - (geom.P - geom.H)))
        e3 = np.max(np.abs(-geom.theta_p * geom.theta_m
                           - (geom.H**2 - geom.P**2)))
        worst = max(worst, float(max(e1, e2, e3) / scale**2))
        slowest = max(slowest, time.perf_counter() - t0)
    ok = worst < 1e-12 and slowest < 1.0
    _report(2, ok, f"worst identity residual {worst:.2e}, slowest surface "
                   f"{slowest:.2f}s")


def test_criterion_3_horizon_reproduction():
    geom = compute_geometry(sphere_chart(make_grid(grids.SPHERE, 64, 128), 0.5),
                            idata.schwarzschild_isotropic(1.0))
    max_tp = float(np.max(np.abs(geom.theta_p)))
    e_h = hawking_energy(geom)
    ok = max_tp < 1e-5 and abs(e_h - 1.0) < 0.005
    _report(3, ok, f"max|theta+| = {max_tp:.2e}, E_H = {e_h:.6f}")


def test_criterion_4_variation_oracle():
    data = idata.minkowski_flat()
    devs = {}
    for n, eps in ((64, 1e-3), (128, 5e-4)):
        chart = sphere_chart(make_grid(grids.SPHERE, n, 2 * n), 1.0)
        U, _ = chart.grid.meshgrid()
        for tag, phi in (("one", np.ones(chart.grid.shape)),
                         ("cosu", np.cos(U))):
            res = variation_oracle(chart, data, phi, NORMAL_N, [eps])
            devs[tag, n] = res.max_deviation("theta_plus")
    base_ok = devs["one", 64] < 1e-3 and devs["cosu", 64] < 1e-3
    # the deviation of the configuration is its max over the two test
    # functions; the phi = 1 case alone sits at the eps^2 rounding floor
    shrink = (max(devs["one", 64], devs["cosu", 64])
              / max(devs["one", 128], devs["cosu", 128]))
    ok = base_ok and shrink >= 3.0
    _report(4, ok, f"dev(1)={devs['one', 64]:.2e}, dev(cos u)="
                   f"{devs['cosu', 64]:.2e}, shrink {shrink:.1f}x")


def test_criterion_5_appendix_eigensolver():
    t0 = time.perf_counter()
    horizon = compute_geometry(
        sphere_chart(make_grid(grids.SPHERE, 64, 128), 0.5),
        idata.schwarzschild_isotropic(1.0))
    disk = compute_geometry(flat_disk_chart(make_grid(grids.DISK, 64, 128)),
                            idata.minkowski_flat())

    def with_adjoint(op):
        # the adjoint eigenvalue by transposed solves on the forward factor
        # (the eigen command copies lambda_1 for these symmetric pencils)
        factor = spectra.factors(op)
        res = principal_eigenvalue(op, factor)
        return res, spectra.adjoint_eigenvalue(op, factor, res.shift)

    res, adj = with_adjoint(assemble(horizon,
                                     *symmetrized_coefficients(horizon)))
    # L_s with the free boundary q
    res_d, adj_d = with_adjoint(assemble(
        disk, *symmetrized_coefficients(disk)[:2], free_boundary_q(disk)))
    elapsed = time.perf_counter() - t0
    const_dev = float(np.max(np.abs(res_d.eigenfunction - 1.0)))
    ok = (abs(res.lambda1 - 0.25) < 0.01 * 0.25
          and res.positive
          and abs(adj - res.lambda1) < 1e-7
          and abs(res_d.lambda1) < 1e-8
          and const_dev < 1e-6
          and res_d.positive and abs(adj_d - res_d.lambda1) < 1e-7
          and elapsed < 30.0)
    _report(5, ok, f"horizon lambda1 = {res.lambda1:.6f}, disk lambda1 = "
                   f"{res_d.lambda1:.2e}, const dev {const_dev:.1e}, "
                   f"{elapsed:.1f}s")


def test_criterion_6_symmetric_comparison():
    cases = []

    def lam(op):
        return principal_eigenvalue(op).lambda1

    def operator(geom, coefficients):
        return assemble(geom, *coefficients(geom))

    # W = 0 equality cases: Neumann disk, Schwarzschild horizon,
    # de Sitter slice sphere
    disk = compute_geometry(flat_disk_chart(make_grid(grids.DISK, 32, 64)),
                            idata.minkowski_flat())
    cases.append(("disk", lam(operator(disk, mots_coefficients)),
                  lam(operator(disk, symmetrized_coefficients)), True))
    horizon = compute_geometry(
        sphere_chart(make_grid(grids.SPHERE, 32, 64), 0.5),
        idata.schwarzschild_isotropic(1.0))
    cases.append(("horizon",
                  lam(operator(horizon, mots_coefficients)),
                  lam(operator(horizon, symmetrized_coefficients)), True))
    desitter = compute_geometry(
        sphere_chart(make_grid(grids.SPHERE, 32, 64), 1.0),
        idata.hyperboloidal_flat())
    cases.append(("desitter",
                  lam(operator(desitter, mots_coefficients)),
                  lam(operator(desitter, symmetrized_coefficients)), True))

    # W = grad h similarity cases: exact discrete conjugates of L_s
    for tag, hfun in (("conj-cosu", lambda U, V: 0.3 * np.cos(U)),
                      ("conj-m1", lambda U, V: 0.2 * np.sin(U) * np.cos(V))):
        geom = compute_geometry(
            sphere_chart(make_grid(grids.SPHERE, 32, 64), 1.0),
            idata.minkowski_flat())
        op_s = operator(geom, symmetrized_coefficients)
        U, V = geom.grid.meshgrid()
        h = hfun(U, V).ravel()
        conj = spectra.OperatorMatrix(
            weak=(sparse.diags(np.exp(-h)) @ op_s.weak
                  @ sparse.diags(np.exp(h))).tocsr(),
            mass=op_s.mass, c=op_s.c, symmetric=False,
            robin_q=None, geometry=geom)
        cases.append((tag, lam(conj), lam(op_s), True))

    # genuinely non-gradient W (off-center sphere in the PG slice)
    off = compute_geometry(
        sphere_chart(make_grid(grids.SPHERE, 32, 64), 1.0, (0.4, 0.0, 0.0)),
        idata.schwarzschild_pg(1.0))
    cases.append(("pg-offcenter",
                  lam(operator(off, mots_coefficients)),
                  lam(operator(off, symmetrized_coefficients)), False))

    ok = True
    details = []
    for tag, l_full, l_sym, equality in cases:
        ok = ok and (l_full <= l_sym + 1e-7)
        if equality:
            ok = ok and abs(l_full - l_sym) < 1e-6
        details.append(f"{tag}: {l_full:.6f} <= {l_sym:.6f}")
    ok = ok and len(cases) >= 5
    _report(6, ok, "; ".join(details))


def test_criterion_7_gauss_bonnet():
    tol = 1e-2 * 2.0 * np.pi

    def defect(metric, chi):
        return (total_curvature(metric, gauss_curvature(metric))
                - 2.0 * np.pi * chi)

    def metrics(n):
        gs = make_grid(grids.SPHERE, n, 2 * n)
        gd = make_grid(grids.DISK, n, 2 * n)
        sphere = compute_geometry(sphere_chart(gs, 1.2),
                                  idata.minkowski_flat()).metric
        ell = compute_geometry(ellipsoid_chart(gs),
                               idata.minkowski_flat()).metric
        disk = compute_geometry(flat_disk_chart(gd),
                                idata.minkowski_flat()).metric
        return sphere, ell, disk

    s64, e64, d64 = metrics(64)
    defs64 = [defect(s64, 2.0), defect(e64, 2.0), defect(d64, 1.0)]
    ok = all(abs(d) < tol for d in defs64)

    s128, e128, _ = metrics(128)
    defs128 = [defect(s128, 2.0), defect(e128, 2.0)]
    # the flat disk defect is exact to rounding, so the refinement is
    # measured on the curved surfaces: second order or better, where the
    # spectral Brioschi reference and Fejer's rule leave rounding alone
    ok = ok and all(abs(fine) <= abs(coarse) / 3.6 or abs(fine) <= 1e-9
                    for coarse, fine in zip(defs64, defs128))
    _report(7, ok, f"defects at 64x128: "
                   f"{', '.join('%.2e' % d for d in defs64)}; "
                   f"at 128x256: {', '.join('%.2e' % d for d in defs128)}")


def test_criterion_8_index_arithmetic():
    ok = True
    for g in range(6):
        for l in range(1, 21):
            rep = audits.audit_index_bounds(g, l, 1)
            should_fail = l >= (10 if g % 2 == 0 else 14)
            ok = ok and ((rep.verdict == audits.VIOLATED) == should_fail)
            rep2 = audits.audit_index_bounds(g, l, 1, c=0.25, area=5.0)
            bound = 2.0 * np.pi * (7.0 - (-1.0) ** g - l) / 0.25
            ok = ok and ((rep2.verdict == audits.VIOLATED)
                         == (should_fail or 5.0 > bound))
    _report(8, ok, "thresholds l<10 (even), l<14 (odd), area bound "
                   "2 pi (7-(-1)^g-l)/c over (g,l) in [0,5]x[1,20]")


def test_criterion_9_audit_soundness():
    checks = []

    # cy-estimate on the flat round sphere: discrete closed form
    geom = compute_geometry(sphere_chart(make_grid(grids.SPHERE, 48, 96), 1.0),
                            idata.minkowski_flat())
    rep = audits.audit_cy_estimate(geom)
    expected = 1.0 - 4.0 * geom.area / (24.0 * np.pi)
    checks.append(("cy rhs", abs(rep.rhs - expected) <= 1e-6 * abs(expected)))
    checks.append(("cy verdict", rep.verdict == audits.HOLDS))

    # hawking-bound equality in flat space
    rep = audits.audit_hawking_bound(geom)
    checks.append(("hawking margin", abs(rep.margin) < 1e-4))
    checks.append(("hawking diagnostics",
                   all(v < 1e-8 for _, v in rep.equality_diagnostics)))

    # g-quantity constant field on two data sets
    for data in (idata.minkowski_flat(), idata.hyperboloidal_flat()):
        g2 = compute_geometry(
            sphere_chart(make_grid(grids.SPHERE, 32, 64), 2.0), data)
        gfield = audits.compute_G_quantity(g2)
        checks.append((f"G const {data.name}",
                       np.max(np.abs(gfield - 0.75)) < 1e-6 * 0.75))

    # area-boundary equality case and synthetic zero margin
    disk = compute_geometry(flat_disk_chart(make_grid(grids.DISK, 32, 64)),
                            idata.minkowski_flat())
    rep = audits.audit_I_sigma(disk)
    checks.append(("I lhs", abs(rep.lhs - disk.boundary_length())
                   <= 1e-6 * rep.lhs))
    s1 = 0.5
    s2 = (2.0 * np.pi - s1 * disk.area) / disk.boundary_length()
    # Minkowski data: J = 0 and W = 0, so the infima are the injected mu
    # and H_dM; Q is kept, so the stability solves are unchanged
    rep = audits.audit_I_sigma(replace(
        disk, mu=np.full(disk.grid.shape, s1),
        boundary=replace(disk.boundary, H_dM=np.full(disk.grid.n_v, s2))))
    checks.append(("I synthetic margin", abs(rep.margin) < 1e-10))
    checks.append(("I equality diagnostics",
                   all(v < 1e-6 for _, v in rep.equality_diagnostics)))

    # diameter with injected energy: arithmetic and flag precedence
    synth = with_overrides(disk, dec=3.0)
    rep = audits.audit_diameter(synth)
    checks.append(("diameter bound",
                   abs(rep.extras["bound_dec"] - 2.0 * np.pi / 3.0) < 1e-12))
    checks.append(("diameter precedence",
                   rep.verdict == audits.HYPOTHESIS_UNMET))

    # cohn-vossen synthetic injection reaching the bound exactly
    r = 1.7
    sph = compute_geometry(sphere_chart(make_grid(grids.SPHERE, 32, 64), r),
                           idata.minkowski_flat())
    rep = audits.audit_cohn_vossen(
        replace(sph, mu=np.full(sph.grid.shape, 1.0 / (2 * r * r))))
    checks.append(("cohn-vossen synthetic",
                   abs(rep.lhs - sph.area / (2 * r * r)) < 1e-12))

    ok = all(flag for _, flag in checks)
    failed = [name for name, flag in checks if not flag]
    _report(9, ok, "all closed-form reproductions within tolerance"
            if ok else f"failed: {failed}")


def test_criterion_10_determinism(tmp_path):
    def run(sub):
        out = tmp_path / sub
        args = ["audit", "--theorem", "cy-estimate", "--data", "hyperboloidal",
                "--surface", "sphere:r=0.5", "--grid", "32x64",
                "--seed", "7", "--out", str(out)]
        code = cli.main(args)
        return code, (out / "audit_cy-estimate.csv").read_bytes()

    code1, bytes1 = run("one")
    code2, bytes2 = run("two")

    def run_eigen(sub):
        out = tmp_path / sub
        code = cli.main(["eigen", "--operator", "Ls", "--bc", "closed",
                         "--data", "schwarzschild-iso:m=1",
                         "--surface", "sphere:r=0.5", "--grid", "32x64",
                         "--seed", "7", "--out", str(out)])
        return (out / "eigen.csv").read_bytes(), \
            (out / "eigenfunction.csv").read_bytes()

    e1 = run_eigen("three")
    e2 = run_eigen("four")
    ok = code1 == code2 and bytes1 == bytes2 and e1 == e2
    _report(10, ok, "byte-identical audit and eigen outputs across reruns")
