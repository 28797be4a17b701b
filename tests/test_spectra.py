"""Tests for operator assembly and the eigenvalue machinery."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import eigsh

import stiffness_oracle
from synthetic_fields import with_overrides
from motslab import grids, initialdata as idata, spectra, surfaces
from motslab.errors import (
    IterationFailureError,
    TopologyError,
    UnsupportedOperationError,
)
from motslab.grids import make_grid
from motslab.spectra import (
    assemble,
    principal_eigenvalue,
)
from motslab.surfaces import (
    capillary_q,
    compute_geometry,
    ellipsoid_chart,
    flat_disk_chart,
    free_boundary_q,
    hstab_minus_lminus_coefficients,
    hstab_normal_coefficients,
    mots_coefficients,
    radial_graph_chart,
    sphere_chart,
    symmetrized_coefficients,
)


def unit_sphere_geom(n=32, data=None, r=1.0):
    grid = make_grid(grids.SPHERE, n, 2 * n)
    return compute_geometry(sphere_chart(grid, r),
                            data or idata.minkowski_flat())


def horizon_geom(n=64, m=1.0):
    grid = make_grid(grids.SPHERE, n, 2 * n)
    return compute_geometry(sphere_chart(grid, 0.5 * m),
                            idata.schwarzschild_isotropic(m))


def neumann_disk_geom(n=32):
    grid = make_grid(grids.DISK, n, 2 * n)
    return compute_geometry(flat_disk_chart(grid, 1.0), idata.minkowski_flat())


def operator(geom, coefficients):
    """The assembled operator whose (c, drift, q) ``coefficients`` gives."""
    return assemble(geom, *coefficients(geom))


def with_q(geom, coefficients, q):
    """The operator of ``coefficients`` with the Robin q in place of its
    own."""
    c, drift, _ = coefficients(geom)
    return assemble(geom, c, drift, q)


def forward_and_adjoint(op):
    """The principal eigenpair and the adjoint eigenvalue by transposed
    solves on the forward factor, for symmetric pencils too (the eigen
    command copies lambda_1 for those)."""
    factor = spectra.factors(op)
    res = principal_eigenvalue(op, factor)
    return res, spectra.adjoint_eigenvalue(op, factor, res.shift)


def dirichlet_energy(geom):
    """The assembled stiffness of -Laplace (c = 0; on the disk, Robin with
    the free boundary q)."""
    return assemble(geom, np.zeros(geom.grid.shape),
                    q=free_boundary_q(geom)).weak


def lowest_eigenvalues(op, count):
    """Lowest ``count`` eigenvalues of a symmetric pencil (K, diag(mass)),
    ascending: ARPACK Lanczos in shift-invert mode at sigma = -delta, the
    principal solve's first shift, which lies below the spectrum."""
    return np.sort(eigsh(op.weak, k=count, M=sparse.diags(op.mass),
                         sigma=-spectra._shift(op), which="LM",
                         v0=np.ones(op.mass.size), rng=0,
                         return_eigenvectors=False))


def test_row_sums_vanish_on_constants():
    # the free boundary q of the flat disk in the cylinder support is 0
    for geom in (unit_sphere_geom(16), neumann_disk_geom(16)):
        pure = dirichlet_energy(geom)
        ones = np.ones(geom.grid.n_nodes)
        assert np.max(np.abs(pure @ ones)) < 1e-10


def twisted_disk_geom(n, s=0.3):
    # the flat unit disk in the chart (u, v) -> u (cos(v + s u^2),
    # sin(v + s u^2), 0): g_uv != 0 up to and on the boundary
    grid = make_grid(grids.DISK, n, 2 * n)
    u, v = grid.meshgrid()
    ph = v + s * u**2
    e = np.stack([np.cos(ph), np.sin(ph), np.zeros_like(u)])
    e_perp = np.stack([-np.sin(ph), np.cos(ph), np.zeros_like(u)])
    base = flat_disk_chart(grid, 1.0)
    chart = replace(
        base, F=u * e, Fu=e + 2.0 * s * u**2 * e_perp, Fv=u * e_perp,
        Fuu=6.0 * s * u * e_perp - 4.0 * s**2 * u**3 * e,
        Fuv=e_perp - 2.0 * s * u**2 * e, Fvv=-u * e)
    return compute_geometry(chart, idata.minkowski_flat())


def test_dirichlet_energy_is_compact():
    # every coupling stays within one ring and one column (cyclically); on
    # the pole and center rings also within one column of the antipode
    ellipsoid = compute_geometry(
        ellipsoid_chart(make_grid(grids.SPHERE, 16, 32), 1.0, 1.3, 1.5),
        idata.minkowski_flat())
    disk = twisted_disk_geom(16)
    # the cross terms are present, on the disk up to the boundary ring
    assert np.max(np.abs(ellipsoid.metric.iuv)) > 0.1
    assert np.min(np.abs(disk.metric.iuv[-1])) > 0.1
    for geom in (ellipsoid, disk):
        grid = geom.grid
        K = dirichlet_energy(geom).copy()
        K.eliminate_zeros()
        K = K.tocoo()
        assert K.nnz / grid.n_nodes < 9
        ri, rj = np.divmod(K.row, grid.n_v)
        ci, cj = np.divmod(K.col, grid.n_v)

        def column_gap(d):
            d = np.abs(d) % grid.n_v
            return np.minimum(d, grid.n_v - d)

        near = (np.abs(ri - ci) <= 1) & (column_gap(rj - cj) <= 1)
        closure_rings = [0] if grid.topology == grids.DISK \
            else [0, grid.n_u - 1]
        antipodal = (np.isin(ri, closure_rings) & (ri == ci)
                     & (column_gap(rj - cj - grid.n_v // 2) <= 1))
        assert np.all(near | antipodal)


def test_laplace_spectrum_second_order():
    errors = []
    for n in (32, 64):
        geom = unit_sphere_geom(n)
        op = assemble(geom, np.zeros(geom.grid.shape))
        vals = lowest_eigenvalues(op, 9)
        errors.append((np.max(np.abs(vals[1:4] - 2.0)),
                       np.max(np.abs(vals[4:9] - 6.0))))
    (l1_coarse, l2_coarse), (l1_fine, l2_fine) = errors
    assert l1_coarse / l1_fine >= 3.5
    assert l2_coarse / l2_fine >= 3.5
    assert l1_fine < 2.5e-3
    assert l2_fine < 0.012


def _low_harmonics(U, V):
    x, y, z = np.sin(U) * np.cos(V), np.sin(U) * np.sin(V), np.cos(U)
    return [x, y, z, x * y, x * z, y * z, x**2 - y**2, 0.5 * (3 * z**2 - 1)]


@settings(max_examples=12, deadline=None, database=None)
@given(eps=st.floats(-0.2, 0.2),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)
       .filter(lambda c: sum(abs(a) for a in c) > 1e-3))
def test_dirichlet_energy_symmetric_and_exact_on_constants(eps, coeffs):
    total = sum(abs(a) for a in coeffs)

    def rho(U, V):
        return 1.0 + eps * sum(a * Y for a, Y in
                               zip(coeffs, _low_harmonics(U, V))) / total

    geom = compute_geometry(
        radial_graph_chart(make_grid(grids.SPHERE, 16, 32), rho),
        idata.minkowski_flat())
    K = dirichlet_energy(geom)
    assert abs(K - K.T).max() == 0.0
    scale = sparse.linalg.norm(K, np.inf)
    assert np.max(np.abs(K @ np.ones(K.shape[0]))) <= 1e-10 * scale


_FIELDS = 7     # smooth fields per example: metric (3), c, drift (2), q


def _smooth_fields(grid, coeffs):
    """Smooth fields on ``grid``, each a combination of five low modes in
    (u, v) with coefficients in [-1, 1]."""
    U, V = grid.meshgrid()
    modes = [np.ones_like(U), np.cos(U), np.sin(U) * np.cos(V),
             np.sin(U) * np.sin(V), U * np.cos(2.0 * V)]
    return [sum(a * f for a, f in zip(coeffs[5 * k:5 * k + 5], modes))
            for k in range(_FIELDS)]


@settings(max_examples=30, deadline=None, database=None)
@given(topology=st.sampled_from([grids.SPHERE, grids.DISK]),
       n_u=st.sampled_from([8, 12]),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=5 * _FIELDS,
                       max_size=5 * _FIELDS))
def test_direct_fill_matches_sparse_products(topology, n_u, coeffs):
    # random smooth metric, potential, drift and Robin q: the filled K is
    # the sparse-product K to rounding, on exactly the stencil pattern,
    # and symmetric to the bit without drift
    grid = make_grid(topology, n_u, 2 * n_u)
    s_uu, s_vv, s_uv, c, w_u, w_v, q = _smooth_fields(grid, coeffs)
    guu, gvv = np.exp(0.5 * s_uu), np.exp(0.5 * s_vv)
    metric = grids.Metric2Field(grid, guu, 0.9 * np.tanh(s_uv)
                                * np.sqrt(guu * gvv), gvv)
    drift = np.stack([w_u, w_v])
    robin_q = q[-1] if topology == grids.DISK else None
    for drift_cov in (drift, None):
        K = spectra._weak_form(metric, c.ravel(), drift_cov, robin_q)
        ref = stiffness_oracle.weak_form(metric, c, drift_cov, robin_q)
        scale = np.max(np.abs(K.data))
        assert abs(K - ref).max() <= 1e-14 * scale
        rows, cols = spectra._stencil_pattern(grid)
        structure = K.tocoo()
        assert structure.nnz == rows.size
        assert np.array_equal(np.sort(structure.row * grid.n_nodes
                                      + structure.col),
                              np.sort(rows * grid.n_nodes + cols))
        if drift_cov is None:
            assert abs(K - K.T).max() == 0.0


def test_symmetry_of_mots_ls():
    for geom in (unit_sphere_geom(16, idata.hyperboloidal_flat()),
                 neumann_disk_geom(16)):
        op = operator(geom, symmetrized_coefficients)
        gap = sparse.linalg.norm(op.weak - op.weak.T, np.inf)
        scale = sparse.linalg.norm(op.weak, np.inf)
        assert gap < 1e-10 * scale


def test_mots_l_equals_ls_when_w_vanishes():
    geom = horizon_geom(32)
    assert np.max(np.abs(geom.W_cov)) < 1e-12
    op_l = operator(geom, mots_coefficients)
    op_ls = operator(geom, symmetrized_coefficients)
    diff = sparse.linalg.norm(op_l.weak - op_ls.weak, np.inf)
    assert diff < 1e-12 * sparse.linalg.norm(op_ls.weak, np.inf)


def test_horizon_potential_reduces_to_curvature():
    geom = horizon_geom(32)
    assert np.max(np.abs(geom.Q - 0.25)) < 1e-9
    assert np.max(np.abs(geom.chi_p)) < 1e-10


def test_neumann_disk_principal_eigenvalue_zero():
    geom = neumann_disk_geom(32)
    op = with_q(geom, symmetrized_coefficients, free_boundary_q(geom))
    assert op.robin_q is not None and np.max(np.abs(op.robin_q)) < 1e-12
    res, adjoint = forward_and_adjoint(op)
    assert abs(res.lambda1) < 1e-8
    f = res.eigenfunction
    assert np.max(np.abs(f - 1.0)) < 1e-8
    assert res.positive and res.residual < 1e-8
    assert abs(adjoint - res.lambda1) < 1e-7


def test_horizon_eigenvalue_quarter():
    geom = horizon_geom(64)
    res, adjoint = forward_and_adjoint(
        operator(geom, symmetrized_coefficients))
    assert abs(res.lambda1 - 0.25) < 0.01 * 0.25
    assert res.positive
    assert abs(adjoint - res.lambda1) < 1e-7
    assert np.max(np.abs(res.eigenfunction - 1.0)) < 1e-6


def test_round_sphere_low_spectrum():
    geom = unit_sphere_geom(32)
    op = assemble(geom, np.zeros(geom.grid.shape))
    vals = lowest_eigenvalues(op, 4)
    assert abs(vals[0]) < 1e-8
    assert np.max(np.abs(vals[1:] - 2.0)) < 0.02


def test_gauge_similarity_conjugated_operator():
    # lambda_1 of the exact discrete conjugate Lambda^{-1} K_s Lambda (a
    # consistent discretization of the operator with W = grad h) computed
    # through the non-self-adjoint Arnoldi solve equals lambda_1(L_s).
    geom = unit_sphere_geom(32)
    op_s = operator(geom, symmetrized_coefficients)
    res_s = principal_eigenvalue(op_s)
    U, _ = geom.grid.meshgrid()
    h = 0.3 * np.cos(U).ravel()
    lam = sparse.diags(np.exp(h))
    lam_inv = sparse.diags(np.exp(-h))
    conj = spectra.OperatorMatrix(
        weak=(lam_inv @ op_s.weak @ lam).tocsr(),
        mass=op_s.mass, c=op_s.c, symmetric=False,
        robin_q=None, geometry=geom)
    res_c = principal_eigenvalue(conj)
    assert abs(res_c.lambda1 - res_s.lambda1) < 1e-6
    assert res_c.positive


def test_formula_assembled_gradient_drift_consistency():
    # Assembling MotsL with an injected W = grad h agrees with lambda_1 of
    # L_s at the discretization level (O(h^2), not exact).
    geom = unit_sphere_geom(32)
    U, _ = geom.grid.meshgrid()
    h = 0.3 * np.cos(U)
    w_cov = np.stack([grids.d_u(geom.grid, h, 1.0),
                      grids.d_v(geom.grid, h)])
    synth = with_overrides(geom, W_cov=w_cov)
    res_w = principal_eigenvalue(operator(synth, mots_coefficients))
    res_s = principal_eigenvalue(operator(geom, symmetrized_coefficients))
    assert abs(res_w.lambda1 - res_s.lambda1) < 5e-3
    assert res_w.positive


def test_lambda1_refinement_invariance():
    # Richardson-extrapolated pairs agree across resolutions.
    lams = {}
    for n in (32, 64, 128):
        lams[n] = principal_eigenvalue(
            operator(horizon_geom(n), symmetrized_coefficients)).lambda1
    rich1 = (4.0 * lams[64] - lams[32]) / 3.0
    rich2 = (4.0 * lams[128] - lams[64]) / 3.0
    assert abs(rich1 - rich2) < 5e-3 * abs(rich2)


def mots_and_symmetrized_lambda1(geom):
    """lambda_1 of L and of L_s on a MOTS (max |theta_+| < THETA_TOL), and
    the Robin q of L (None on a sphere)."""
    assert np.max(np.abs(geom.theta_p)) < surfaces.THETA_TOL
    c, drift, q = mots_coefficients(geom)
    lam_L = principal_eigenvalue(assemble(geom, c, drift, q)).lambda1
    lam_Ls = principal_eigenvalue(
        operator(geom, symmetrized_coefficients)).lambda1
    return lam_L, lam_Ls, q


def test_stability_and_symmetric_comparison_cases():
    # the horizon is a stable MOTS with W = 0, so L = L_s
    lam_L, lam_Ls, q = mots_and_symmetrized_lambda1(horizon_geom(32))
    assert lam_L >= -surfaces.STAB_TOL
    assert abs(lam_L - lam_Ls) < 1e-9
    assert q is None and lam_L <= lam_Ls + 1e-7

    # the unit sphere in Minkowski data is no MOTS (theta_+ = 2)
    sphere = unit_sphere_geom(16)
    assert np.max(np.abs(sphere.theta_p)) >= surfaces.THETA_TOL

    # the Neumann disk: q = 0, lambda_1 = 0 with a constant eigenfunction
    lam_L, lam_Ls, q = mots_and_symmetrized_lambda1(neumann_disk_geom(32))
    assert lam_L >= -surfaces.STAB_TOL and abs(lam_L) < 1e-8
    assert np.max(q) <= 0.0 and lam_L <= lam_Ls + 1e-7


def test_robin_capillary_coefficient_and_guards():
    geom = neumann_disk_geom(16)
    q_free = free_boundary_q(geom)
    assert np.max(np.abs(q_free)) < 1e-12
    # capillary coefficient at gamma = pi/2 reduces to Pi(nubar, nubar)
    # with nubar = -N, which for the cylinder support is the (negative
    # curvature direction) value 0 along z... use the ball support instead.
    ball = compute_geometry(
        flat_disk_chart(make_grid(grids.DISK, 16, 32), 1.0,
                        support=surfaces.BallSupport(1.0)),
        idata.minkowski_flat())
    q_cap = capillary_q(ball, np.pi / 2)
    assert np.max(np.abs(q_cap - ball.boundary.Pi_NN)) < 1e-10
    with pytest.raises(ValueError):
        capillary_q(ball, np.pi)
    # the Robin q comes with a boundary and only with one
    with pytest.raises(TopologyError):
        assemble(ball, np.zeros(ball.grid.shape))
    sphere = unit_sphere_geom(16)
    with pytest.raises(TopologyError):
        assemble(sphere, np.zeros(sphere.grid.shape),
                 q=np.zeros(sphere.grid.n_v))


def test_hstab_operators_assemble():
    geom = unit_sphere_geom(32, idata.hyperboloidal_flat(), r=0.5)
    # H = 4 > |P| = 2: normal-direction H-stability operator is defined
    res = principal_eigenvalue(operator(geom, hstab_normal_coefficients))
    assert np.isfinite(res.lambda1)
    res2 = principal_eigenvalue(
        operator(geom, hstab_minus_lminus_coefficients))
    # c-field is the exact constant Qbar = -2/r^2 = -8 on this sphere
    assert np.max(np.abs(res2.eigenfunction - 1.0)) < 1e-6
    assert abs(res2.lambda1 + 8.0) < 1e-6
    flat = unit_sphere_geom(16)
    with pytest.raises(UnsupportedOperationError):
        # the guard to test is H > 0 failing on an inward-oriented sphere
        chart = replace(flat.chart, flip_normal=True)
        geom_in = compute_geometry(chart, idata.minkowski_flat())
        operator(geom_in, hstab_normal_coefficients)


def test_symmetric_comparison_manufactured_gradient_w():
    # Horizon geometry with an injected gradient connection form stays a
    # MOTS; lambda_1(L) <= lambda_1(L_s) holds on it (q is None).
    geom = horizon_geom(32)
    U, _ = geom.grid.meshgrid()
    h = 0.25 * np.cos(U)
    w_cov = np.stack([grids.d_u(geom.grid, h, 1.0),
                      grids.d_v(geom.grid, h)])
    synth = with_overrides(geom, W_cov=w_cov)
    lam_L, lam_Ls, q = mots_and_symmetrized_lambda1(synth)
    assert q is None and lam_L <= lam_Ls + 1e-7


def test_positive_robin_q_warning_recorded():
    from motslab.surfaces import BallSupport

    ball = compute_geometry(
        flat_disk_chart(make_grid(grids.DISK, 16, 32), 1.0,
                        support=BallSupport(1.0)),
        idata.minkowski_flat())
    op = operator(ball, mots_coefficients)
    assert any("q > 0" in w for w in op.warnings)
    res = principal_eigenvalue(op)
    assert any("q > 0" in w for w in res.warnings)
    assert res.lambda1 < 0.0 and res.positive


def test_capillary_robin_bessel_oracle():
    # Flat unit disk in the unit ball support at contact angle gamma has
    # the constant Robin coefficient q = sin(gamma), and the principal
    # eigenvalue of -Laplace solves k I1(k) = q I0(k), lambda = -k^2.
    # Independent special-function oracle for the capillary Robin path;
    # the boundary closure converges at first order, hence the tolerance.
    from scipy.optimize import brentq
    from scipy.special import i0, i1
    from motslab.surfaces import BallSupport

    gamma = 1.2
    q = np.sin(gamma)
    k = brentq(lambda s: s * i1(s) - q * i0(s), 0.3, 3.0)
    geom = compute_geometry(
        flat_disk_chart(make_grid(grids.DISK, 64, 128), 1.0,
                        support=BallSupport(1.0)),
        idata.minkowski_flat())
    qfield = capillary_q(geom, gamma)
    assert np.max(np.abs(qfield - q)) < 1e-12
    res, adjoint = forward_and_adjoint(
        with_q(geom, mots_coefficients, qfield))
    assert abs(res.lambda1 + k * k) < 1.5e-3
    assert res.positive and abs(adjoint - res.lambda1) < 1e-7


# ---------------------------------------------------------------------------
# principal eigenvalue: oracle, convergence gate, factor pattern


def backward_error(op, lam, x):
    """|Kx - lam Mx| / ((|K| + |lam| |M|) |x|) in the max norm."""
    knorm = sparse.linalg.norm(op.weak, np.inf)
    resid = np.max(np.abs(op.weak @ x - lam * op.mass * x))
    return resid / ((knorm + abs(lam) * np.max(op.mass)) * np.max(np.abs(x)))


def pg_sphere_geom(n, r, centre):
    return compute_geometry(
        sphere_chart(make_grid(grids.SPHERE, n, 2 * n), r, centre),
        idata.schwarzschild_pg(1.0))


def disk_geom(n, support):
    return compute_geometry(
        flat_disk_chart(make_grid(grids.DISK, n, 2 * n), 1.0, support=support),
        idata.minkowski_flat())


def _oracle_operators():
    """Name -> a function that assembles the case's operator."""
    near = pg_sphere_geom(16, 1.0, (0.4, 0.0, 0.0))
    far = pg_sphere_geom(16, 4.1, (0.45, 0.0, 0.0))
    cylinder = disk_geom(16, surfaces.CylinderSupport(1.0))
    ball = disk_geom(16, surfaces.BallSupport(1.0))
    return {
        "PG L": lambda: operator(near, mots_coefficients),
        "PG Ls": lambda: operator(near, symmetrized_coefficients),
        "PG HStabNormal": lambda: operator(near, hstab_normal_coefficients),
        "PG HStabMinusLminus": lambda: operator(
            near, hstab_minus_lminus_coefficients),
        "PG r=4.1 HStabNormal": lambda: operator(far,
                                                 hstab_normal_coefficients),
        "PG r=4.1 HStabMinusLminus": lambda: operator(
            far, hstab_minus_lminus_coefficients),
        "Robin free disk": lambda: operator(cylinder, mots_coefficients),
        "q > 0 ball disk": lambda: operator(ball, mots_coefficients),
        "capillary disk": lambda: with_q(ball, mots_coefficients,
                                         capillary_q(ball, 1.2)),
    }


@pytest.mark.parametrize("name", list(_oracle_operators()))
def test_principal_eigenvalue_dense_oracle(name):
    # lambda_1 is the eigenvalue of smallest real part of the dense pencil
    # (K, M), its eigenfunction is one-signed, and the eigenpair meets the
    # backward-error gate; the adjoint eigenvalue is the same number.
    from scipy.linalg import eig

    op = _oracle_operators()[name]()
    dense = eig(op.weak.toarray(), np.diag(op.mass), right=False)
    ref = dense[np.argmin(dense.real)]
    assert abs(ref.imag) <= 1e-12 * max(1.0, abs(ref))
    res, adjoint = forward_and_adjoint(op)
    scale = max(abs(ref.real), 1e-2)
    assert abs(res.lambda1 - ref.real) <= 1e-9 * scale
    assert abs(adjoint - ref.real) <= 1e-9 * scale
    phi = res.eigenfunction.ravel()
    assert res.positive and np.min(phi) > 0.0 and np.max(phi) == 1.0
    assert backward_error(op, res.lambda1, phi) <= 1e-12


def test_offcentre_ls_converges_on_the_residual():
    # The symmetric operator on the off-centre PG sphere once stopped on a
    # stalled Rayleigh ratio with a residual of 4e-6 (backward error 5e-10).
    op = operator(pg_sphere_geom(32, 1.0, (0.4, 0.0, 0.0)),
                  symmetrized_coefficients)
    res = principal_eigenvalue(op)
    err = backward_error(op, res.lambda1, res.eigenfunction.ravel())
    assert err <= 1e-12
    assert res.residual <= 1e-8
    # the reported residual is that backward error, the gated quantity
    assert res.residual == pytest.approx(err, rel=1e-6)


def test_principal_eigenvalue_gate_raises(monkeypatch):
    op = operator(pg_sphere_geom(16, 1.0, (0.4, 0.0, 0.0)),
                  mots_coefficients)
    monkeypatch.setattr(spectra, "_BACKWARD_TOL", 1e-20)
    with pytest.raises(IterationFailureError):
        principal_eigenvalue(op)


def test_constant_eigenfunction_skips_the_factorization(monkeypatch):
    # horizons and flat free disks have the constant eigenfunction: the
    # gate accepts it before any factorization or resolvent application
    def no_factor(matrix):
        raise AssertionError("factorized a pencil with a constant "
                             "eigenfunction")

    monkeypatch.setattr(spectra, "splu", no_factor)
    for geom in (horizon_geom(32),
                 disk_geom(16, surfaces.CylinderSupport(1.0))):
        res = principal_eigenvalue(operator(geom, mots_coefficients))
        assert res.iterations == 0
        assert np.all(res.eigenfunction == 1.0)


def test_factor_input_has_the_grid_pattern():
    # Entries that cancel to 0 (g_uv on the flat disk, on the symmetry
    # planes of the ellipsoid; absent drift) stay in the matrix handed to
    # splu as explicit zeros, so its pattern depends on the grid alone:
    # 9 per node on the sphere; on the disk the boundary ring has no
    # antipodal partners (-3) but the one-sided d/du column (+1).
    n = 16
    ellipsoid = compute_geometry(
        ellipsoid_chart(make_grid(grids.SPHERE, n, 2 * n), 1.0, 1.3, 1.5),
        idata.minkowski_flat())
    flat = disk_geom(n, surfaces.CylinderSupport(1.0))
    U, _ = flat.grid.meshgrid()
    drift = np.stack([0.3 * U, np.zeros_like(U)])
    sphere_ops = [operator(ellipsoid, symmetrized_coefficients),
                  operator(unit_sphere_geom(n), symmetrized_coefficients),
                  operator(pg_sphere_geom(n, 1.0, (0.4, 0.0, 0.0)),
                           mots_coefficients)]
    disk_ops = [operator(flat, mots_coefficients),
                operator(twisted_disk_geom(n), mots_coefficients),
                operator(with_overrides(flat, W_cov=drift), mots_coefficients)]
    n_nodes, n_v = ellipsoid.grid.n_nodes, ellipsoid.grid.n_v
    for ops, expected in ((sphere_ops, 9 * n_nodes),
                          (disk_ops, 9 * n_nodes - 2 * n_v)):
        for op in ops:
            assert spectra._shifted_matrix(op, 1.0).nnz == expected


def test_one_signed_check_with_positive_robin_q():
    # q = 1 > 0 on the ball-support flat disk. A shift of 1 leaves
    # lambda_1 + delta < 0; at 32x64 the dominant xi of that resolvent is
    # real and positive but belongs to lambda = -0.0016, whose eigenvector
    # changes sign, and only the one-signed test rejects it and enlarges
    # the shift. The principal eigenvalue is -k^2 with k I1(k) = q I0(k)
    # (boundary closure of first order, hence the tolerance).
    from scipy.optimize import brentq
    from scipy.special import i0, i1

    k = brentq(lambda s: s * i1(s) - i0(s), 0.3, 3.0)
    ball = disk_geom(32, surfaces.BallSupport(1.0))
    q = free_boundary_q(ball)
    assert np.max(np.abs(q - 1.0)) < 1e-12
    op = operator(ball, mots_coefficients)
    lam, vec, _, delta, _ = spectra._principal(
        op.weak, op.mass, lambda d: spectra._factor(op, d), "N", 1.0)
    assert delta > 1.0
    assert np.min(vec) > 0.0
    assert abs(lam + k * k) < 5e-3
    res = principal_eigenvalue(op)
    assert res.positive and abs(res.lambda1 - lam) < 1e-12


def count_factors(monkeypatch):
    calls = []
    factor = spectra.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return factor(*args, **kwargs)

    monkeypatch.setattr(spectra, "splu", counting)
    return calls


def test_positive_robin_q_shift_factors_once(monkeypatch):
    # the first shift leaves room for the Robin boundary term q dl / M, so
    # the ball-support disk (q = 1) needs no second shift and no second LU
    calls = count_factors(monkeypatch)
    ball = disk_geom(32, surfaces.BallSupport(1.0))
    res = principal_eigenvalue(operator(ball, mots_coefficients))
    assert res.positive
    assert len(calls) == 1


def test_scale_aware_shift_needs_fewer_applications():
    # the first shift's part above -min c is 4 pi / |Sigma|, not 1: on the
    # large PG r = 4.1 sphere (|Sigma| = 211) and on the off-centre m = 2
    # sphere the forward Arnoldi needs fewer resolvent applications, at the
    # same lambda_1 (counts measured at 32x64 and pinned)
    heavy = compute_geometry(
        sphere_chart(make_grid(grids.SPHERE, 32, 64), 2.0, (0.8, 0.0, 0.0)),
        idata.schwarzschild_pg(2.0))
    far = pg_sphere_geom(32, 4.1, (0.45, 0.0, 0.0))
    for geom, coefficients, scaled, unit in (
            (far, hstab_normal_coefficients, 10, 22),
            (heavy, mots_coefficients, 13, 16)):
        op = operator(geom, coefficients)
        res = principal_eigenvalue(op)
        lam, _, applications, _, _ = spectra._principal(
            op.weak, op.mass, spectra.factors(op), "N",
            max(0.0, -float(np.min(op.c))) + 1.0)
        assert (res.iterations, applications) == (scaled, unit)
        assert abs(res.lambda1 - lam) <= 1e-12 * abs(lam)


def test_minimum_degree_factor_fill():
    # minimum degree on the symmetric stencil pattern: 631k entries in
    # L + U at 64x128, against 1.16M for the column ordering COLAMD
    op = operator(pg_sphere_geom(64, 1.0, (0.4, 0.0, 0.0)),
                  mots_coefficients)
    assert spectra._factor(op, spectra._shift(op)).nnz <= 700_000


def test_symmetric_spectrum_agrees_with_principal_eigenvalue():
    # Lanczos (eigsh) and Arnoldi with the backward-error gate agree on the
    # lowest eigenvalue of Ls and of the G-quantity potential of the
    # H-stability topology audit
    from motslab import audits

    near = pg_sphere_geom(32, 1.0, (0.4, 0.0, 0.0))
    far = pg_sphere_geom(32, 4.1, (0.45, 0.0, 0.0))
    pot = (far.K + far.theta_p / (2.0 * far.theta_m) * far.chihat_m2
           - audits.compute_G_quantity(far))
    for op in (operator(near, symmetrized_coefficients),
               assemble(far, pot)):
        lam = principal_eigenvalue(op).lambda1
        assert abs(lowest_eigenvalues(op, 1)[0] - lam) <= 1e-12 * abs(lam)
