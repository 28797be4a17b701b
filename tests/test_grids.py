"""Tests for the grid calculus: operators, quadrature, curvature."""

import numpy as np
import pytest

from intrinsic_oracle import gauss_curvature
from variation_oracle import gradient, laplace_beltrami
from motslab import grids
from motslab.errors import DegenerateMetricError, NonFiniteInputError, TopologyError
from motslab.grids import (
    Metric2Field,
    boundary_geodesic_curvature,
    divergence,
    integrate,
    make_grid,
    total_curvature,
)


def round_sphere_metric(grid, r=1.0):
    U, _ = grid.meshgrid()
    guu = np.full(grid.shape, r * r)
    guv = np.zeros(grid.shape)
    gvv = (r * np.sin(U)) ** 2
    return Metric2Field(grid, guu, guv, gvv)


def flat_disk_metric(grid, R=1.0):
    U, _ = grid.meshgrid()
    guu = np.full(grid.shape, R * R)
    guv = np.zeros(grid.shape)
    gvv = (R * U) ** 2
    return Metric2Field(grid, guu, guv, gvv)


def ellipsoid_metric(grid, a=1.0, c=1.5):
    # Surface (a sin u cos v, a sin u sin v, c cos u); v-independent metric.
    U, _ = grid.meshgrid()
    guu = (a * np.cos(U)) ** 2 + (c * np.sin(U)) ** 2
    guv = np.zeros(grid.shape)
    gvv = (a * np.sin(U)) ** 2
    return Metric2Field(grid, guu, guv, gvv)


def ellipsoid_gauss_curvature(U, a=1.0, c=1.5):
    # Closed form for the spheroid of semi-axes (a, a, c):
    # K = c^2 / (a^2 cos^2 u + c^2 sin^2 u)^2.
    return c**2 / ((a * np.cos(U)) ** 2 + (c * np.sin(U)) ** 2) ** 2


def test_grid_construction_invariants():
    g = make_grid(grids.SPHERE, 16, 32)
    assert g.u[0] > 0 and g.u[-1] < np.pi
    assert g.boundary_index.size == 0
    d = make_grid(grids.DISK, 16, 32)
    assert d.u[0] > 0 and d.u[-1] == 1.0
    assert list(d.boundary_index) == list((d.n_u - 1) * d.n_v + np.arange(d.n_v))
    with pytest.raises(ValueError):
        make_grid(grids.SPHERE, 4, 32)
    with pytest.raises(ValueError):
        make_grid(grids.SPHERE, 16, 31)
    with pytest.raises(TopologyError):
        make_grid("torus", 16, 32)


def test_degenerate_metric_reports_node():
    g = make_grid(grids.SPHERE, 8, 16)
    guu = np.ones(g.shape)
    gvv = np.ones(g.shape)
    gvv[3, 5] = -1.0
    with pytest.raises(DegenerateMetricError) as err:
        Metric2Field(g, guu, np.zeros(g.shape), gvv)
    assert err.value.node == (3, 5)


def test_laplace_sphere_eigenfunction():
    g = make_grid(grids.SPHERE, 64, 128)
    m = round_sphere_metric(g)
    U, _ = g.meshgrid()
    f = np.cos(U)
    err = np.max(np.abs(laplace_beltrami(m, f) + 2.0 * f))
    assert err < 5e-3


def test_laplace_constant_is_zero():
    for topo in (grids.SPHERE, grids.DISK):
        g = make_grid(topo, 16, 32)
        m = round_sphere_metric(g) if topo == grids.SPHERE else flat_disk_metric(g)
        out = laplace_beltrami(m, np.full(g.shape, 3.7))
        assert np.max(np.abs(out)) < 1e-12


def test_laplace_nonaxisymmetric_harmonics():
    # l=1,m=1 and l=2,m=2 spherical harmonics exercise the antipodal pole
    # closure for v-dependent fields. Odd-m fields see the classical
    # 1/sin(u) amplification of the v-stencil error on the first ring, so
    # the m=1 tolerance is looser; even-m fields are uniformly second order.
    g = make_grid(grids.SPHERE, 64, 128)
    m = round_sphere_metric(g)
    U, V = g.meshgrid()
    f1 = np.sin(U) * np.cos(V)
    err1 = np.max(np.abs(laplace_beltrami(m, f1) + 2.0 * f1))
    assert err1 < 5e-2
    f2 = np.sin(U) ** 2 * np.cos(2.0 * V)
    err2 = np.max(np.abs(laplace_beltrami(m, f2) + 6.0 * f2))
    assert err2 < 2.5e-2


def test_laplace_ellipsoid_symbolic_oracle():
    # For a v-independent f on a v-independent metric,
    # Delta f = (1/sqrt(g)) d_u(sqrt(g) f_u / guu).
    # With f = cos(u) on the spheroid metric the closed form is
    # computed here analytically and compared at nodes.
    a, c = 1.0, 1.5
    errs = []
    for n in (32, 64):
        g = make_grid(grids.SPHERE, n, 2 * n)
        m = ellipsoid_metric(g, a, c)
        U, _ = g.meshgrid()
        f = np.cos(U)
        guu = (a * np.cos(U)) ** 2 + (c * np.sin(U)) ** 2
        sq = np.sqrt(guu) * a * np.sin(U)
        # d/du [ sq * (-sin u) / guu ] / sq, expanded symbolically:
        fu = -np.sin(U)
        dguu = 2.0 * np.cos(U) * np.sin(U) * (c**2 - a**2)
        dsq = (0.5 * dguu / np.sqrt(guu)) * a * np.sin(U) + np.sqrt(guu) * a * np.cos(U)
        dfu = -np.cos(U)
        exact = (dsq * fu / guu + sq * dfu / guu - sq * fu * dguu / guu**2) / sq
        errs.append(np.max(np.abs(laplace_beltrami(m, f) - exact)))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 5e-3


def test_gradient_divergence_compose_to_laplacian():
    g = make_grid(grids.SPHERE, 32, 64)
    m = ellipsoid_metric(g)
    U, V = g.meshgrid()
    f = np.sin(U) * np.cos(V) + 0.3 * np.cos(U)
    lhs = divergence(m, gradient(m, f))
    rhs = laplace_beltrami(m, f)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_gradient_of_constant_vanishes():
    g = make_grid(grids.DISK, 16, 32)
    m = flat_disk_metric(g)
    wu, wv = gradient(m, np.full(g.shape, 2.0))
    assert np.max(np.abs(wu)) < 1e-13 and np.max(np.abs(wv)) < 1e-13


def test_divergence_sphere_symbolic_oracle():
    # w = grad(cos u) on the round sphere: div w = -2 cos u exactly.
    errs = []
    for n in (32, 64):
        g = make_grid(grids.SPHERE, n, 2 * n)
        m = round_sphere_metric(g)
        U, _ = g.meshgrid()
        w = (-np.sin(U), np.zeros(g.shape))
        errs.append(np.max(np.abs(divergence(m, w) + 2.0 * np.cos(U))))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 2e-3


def test_integrate_areas_and_linearity():
    g = make_grid(grids.SPHERE, 64, 128)
    m = round_sphere_metric(g, r=2.0)
    area = integrate(m, np.ones(g.shape))
    assert abs(area - 16.0 * np.pi) < 0.001 * 16.0 * np.pi

    d = make_grid(grids.DISK, 64, 128)
    md = flat_disk_metric(d)
    area_d = integrate(md, np.ones(d.shape))
    assert abs(area_d - np.pi) < 0.001 * np.pi

    U, V = g.meshgrid()
    f1 = np.sin(U)
    f2 = np.cos(V) ** 2
    lin = integrate(m, 2.0 * f1 - 3.0 * f2)
    assert abs(lin - (2.0 * integrate(m, f1) - 3.0 * integrate(m, f2))) < 1e-10

    with pytest.raises(NonFiniteInputError):
        bad = np.ones(g.shape)
        bad[0, 0] = np.nan
        integrate(m, bad)


@pytest.mark.parametrize("n_u", [8, 9, 64])
def test_sphere_ring_weights_are_fejers_rule(n_u):
    # w_i = ring weight * sin u_i are Fejer's first-rule weights: positive,
    # summing to 2, exact on int_0^pi cos^k u sin u du for every k < n_u
    g = make_grid(grids.SPHERE, n_u, 16)
    w = g.ring_weights * np.sin(g.u)
    assert np.all(w > 0.0)
    assert abs(np.sum(w) - 2.0) <= 4.4e-16
    for k in range(n_u):
        exact = (1.0 + (-1.0) ** k) / (k + 1.0)
        assert abs(w @ np.cos(g.u) ** k - exact) <= 4.4e-16, k


def test_disk_integrals_keep_the_corrected_midpoint_rule():
    # the disk's ring weights are the midpoint rule with Euler-Maclaurin
    # corrections from one-sided slopes, written here as that formula
    def corrected_midpoint(metric, f):
        g = metric.grid
        base = float(np.sum(f * metric.dmu))
        row = np.sum(f * metric.sqrt_det, axis=1) * g.dv
        h = g.du
        slope0 = (9.0 * row[0] - row[1]) / (3.0 * h)
        slope1 = (3.0 * row[-1] - 4.0 * row[-2] + row[-3]) / (2.0 * h)
        return base - h**2 * (slope1 / 12.0 + slope0 / 24.0)

    d = make_grid(grids.DISK, 32, 64)
    U, V = d.meshgrid()
    cap = Metric2Field(d, np.full(d.shape, (0.5 * np.pi) ** 2),
                       np.zeros(d.shape), np.sin(0.5 * np.pi * U) ** 2)
    for metric in (flat_disk_metric(d, 1.3), cap):
        for f in (np.ones(d.shape), np.exp(U * np.cos(V)), U**3 * np.sin(V)**2):
            ref = corrected_midpoint(metric, f)
            assert abs(integrate(metric, f) - ref) <= 1e-14 * abs(ref)


def test_gauss_curvature_round_sphere_and_flat_disk():
    g = make_grid(grids.SPHERE, 64, 128)
    m = round_sphere_metric(g, r=2.0)
    K = gauss_curvature(m)
    assert np.max(np.abs(K - 0.25)) < 2.5e-2 * 0.25

    d = make_grid(grids.DISK, 32, 64)
    md = flat_disk_metric(d)
    assert np.max(np.abs(gauss_curvature(md))) < 1e-8


def test_gauss_curvature_ellipsoid_closed_form():
    errs = []
    for n in (32, 64):
        g = make_grid(grids.SPHERE, n, 2 * n)
        m = ellipsoid_metric(g)
        U, _ = g.meshgrid()
        errs.append(np.max(np.abs(gauss_curvature(m) - ellipsoid_gauss_curvature(U))))
    # second order or better: the spectral reference is at its rounding
    # floor on both grids (1.7e-11 and 1.9e-10; Brioschi's 1/det^2 amplifies
    # rounding toward the poles)
    assert errs[1] <= errs[0] / 3.0 or errs[1] <= 1e-8, errs
    assert errs[1] < 2.5e-2


def test_gauss_bonnet_catalog():
    # chi = 2 for the sphere and ellipsoid, chi = 1 for the disk and cap.
    g = make_grid(grids.SPHERE, 64, 128)
    for metric in (round_sphere_metric(g, 1.3), ellipsoid_metric(g)):
        total = total_curvature(metric, gauss_curvature(metric))
        assert abs(total - 4.0 * np.pi) < 1e-2 * 2.0 * np.pi

    d = make_grid(grids.DISK, 64, 128)
    Ud, _ = d.meshgrid()
    cap = Metric2Field(d, np.full(d.shape, (0.5 * np.pi) ** 2),
                       np.zeros(d.shape), np.sin(0.5 * np.pi * Ud) ** 2)
    for md in (flat_disk_metric(d), cap):
        total = total_curvature(md, gauss_curvature(md))
        assert abs(total - 2.0 * np.pi) < 1e-2 * 2.0 * np.pi


def _spheroid_symbolic_oracles(a=1.0, c=1.5):
    """Exact Laplace-Beltrami, gradient, and divergence of test fields on the
    spheroid metric, prepared with a computer algebra pass. The test field
    sin(u)^2 cos(2v) is even in the azimuthal mode so the pole rings stay
    uniformly second order in the max norm."""
    import sympy as sp

    u, v = sp.symbols("u v", positive=True)
    guu = (a * sp.cos(u)) ** 2 + (c * sp.sin(u)) ** 2
    gvv = (a * sp.sin(u)) ** 2
    sq = sp.sqrt(guu * gvv)
    f = sp.sin(u) ** 2 * sp.cos(2 * v)
    lap = (sp.diff(sq / guu * sp.diff(f, u), u)
           + sp.diff(sq / gvv * sp.diff(f, v), v)) / sq
    grad_u = sp.diff(f, u) / guu
    grad_v = sp.diff(f, v) / gvv
    w_u = -sp.sin(u) / guu         # w = gradient(cos u), raised components
    div_w = sp.diff(sq * w_u, u) / sq
    syms = (u, v)
    return (sp.lambdify(syms, sp.simplify(lap), "numpy"),
            sp.lambdify(syms, sp.simplify(grad_u), "numpy"),
            sp.lambdify(syms, sp.simplify(grad_v), "numpy"),
            sp.lambdify(syms, sp.simplify(div_w), "numpy"))


def test_convergence_order_under_doubling():
    # Max-norm errors of the stencils should drop by roughly 4x when both
    # axes double.
    lap_fn, gu_fn, gv_fn, divw_fn = _spheroid_symbolic_oracles()

    def errors(n):
        g = make_grid(grids.SPHERE, n, 2 * n)
        m = ellipsoid_metric(g)
        U, V = g.meshgrid()
        f = np.sin(U) ** 2 * np.cos(2.0 * V)
        e_lap = np.max(np.abs(laplace_beltrami(m, f) - lap_fn(U, V)))
        wu, wv = gradient(m, f)
        e_grad = max(np.max(np.abs(wu - gu_fn(U, V))),
                     np.max(np.abs(wv - gv_fn(U, V))))
        w = (-np.sin(U) / m.guu, np.zeros(g.shape))
        e_div = np.max(np.abs(divergence(m, w) - divw_fn(U, V)))
        e_K = np.max(np.abs(gauss_curvature(m) - ellipsoid_gauss_curvature(U)))
        ms = round_sphere_metric(g, r=1.3)
        e_int = abs(integrate(ms, np.ones(g.shape)) - 4.0 * np.pi * 1.3**2)
        return np.array([e_lap, e_grad, e_div]), e_K, e_int

    e1, k1, i1 = errors(32)
    e2, k2, i2 = errors(64)
    ratios = e1 / e2
    assert np.all(ratios > 3.6) and np.all(ratios < 4.4), ratios
    # the spectral curvature reference is second order or better; here it
    # sits at its rounding floor on both grids
    assert k2 <= k1 / 3.6 or k2 <= 1e-8, (k1, k2)
    # Fejer's rule is exact on the round sphere's area up to rounding
    area = 4.0 * np.pi * 1.3**2
    assert i1 <= 1e-13 * area and i2 <= 1e-13 * area


def test_boundary_geodesic_curvature_flat_disk():
    d = make_grid(grids.DISK, 32, 64)
    md = flat_disk_metric(d, R=1.0)
    kappa = boundary_geodesic_curvature(md)
    assert np.max(np.abs(kappa - 1.0)) < 0.05
    g = make_grid(grids.SPHERE, 16, 32)
    with pytest.raises(TopologyError):
        boundary_geodesic_curvature(round_sphere_metric(g))
