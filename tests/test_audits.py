"""Tests for the theorem audits: hand-computed closed forms, flag logic,
and equality diagnostics."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthetic_fields import with_overrides
from motslab import audits, grids, initialdata as idata, spectra, surfaces
from motslab.audits import (
    HOLDS,
    HYPOTHESIS_UNMET,
    NOT_APPLICABLE,
    VIOLATED,
    audit_cohn_vossen,
    audit_cy_estimate,
    audit_diameter,
    audit_growth_bounds,
    audit_hawking_bound,
    audit_index_bounds,
    audit_I_sigma,
    audit_theorem_481,
    collar_infimum,
    compute_G_quantity,
    intrinsic_diameter,
)
from motslab.errors import DomainError, UnsupportedOperationError
from motslab.grids import make_grid
from motslab.surfaces import (
    BallSupport,
    PlaneSupport,
    cap_chart,
    compute_geometry,
    ellipsoid_chart,
    flat_disk_chart,
    sphere_chart,
)


def sphere_geom(r=1.0, data=None, n=48):
    grid = make_grid(grids.SPHERE, n, 2 * n)
    return compute_geometry(sphere_chart(grid, r), data or idata.minkowski_flat())


def disk_geom(n=32, support=None):
    grid = make_grid(grids.DISK, n, 2 * n)
    return compute_geometry(flat_disk_chart(grid, 1.0, support=support),
                            idata.minkowski_flat())


def injected(geom, mu, h_dm=None):
    """Copy of a surface in Minkowski data (J = 0, W = 0) with constant mu
    and, on a disk, constant H_dM: mu + J(N) = mu - |J| = mu and
    H_dM - <W, nu> = h_dm. Q is kept, so the stability solves see the
    surface unchanged."""
    fields = {"mu": np.full(geom.grid.shape, float(mu))}
    if h_dm is not None:
        fields["boundary"] = replace(geom.boundary,
                                     H_dM=np.full(geom.grid.n_v, float(h_dm)))
    return replace(geom, **fields)


# ---------------------------------------------------------------------------
# cy-estimate


def test_cy_flat_sphere_holds():
    geom = sphere_geom(1.0)
    rep = audit_cy_estimate(geom)
    expected_rhs = 1.0 - 4.0 * geom.area / (24.0 * np.pi)
    assert abs(rep.rhs - expected_rhs) < 1e-12 * max(1.0, abs(expected_rhs))
    assert abs(rep.rhs - 1.0 / 3.0) < 1e-6
    assert abs(rep.lhs) < 1e-9
    assert rep.verdict == HOLDS
    assert rep.flag("spacelike_mean_curvature").satisfied


def test_cy_horizon_not_applicable():
    geom = sphere_geom(0.5, idata.schwarzschild_isotropic(1.0))
    rep = audit_cy_estimate(geom)
    assert rep.verdict == NOT_APPLICABLE


def test_cy_hyperboloidal_closed_form():
    # r = 1/2 sphere in the de Sitter slice: hand-integrated constants give
    # rhs = 1 - 12 A / 24 pi and lhs = -3 A / 12 pi with the discrete area A.
    r = 0.5
    geom = sphere_geom(r, idata.hyperboloidal_flat())
    rep = audit_cy_estimate(geom)
    A = geom.area
    assert abs(rep.rhs - (1.0 - 12.0 * A / (24.0 * np.pi))) < 1e-10
    assert abs(rep.lhs - (-3.0 * A / (12.0 * np.pi))) < 1e-10
    assert abs(rep.margin - 0.75) < 1e-4
    assert rep.verdict == HOLDS
    assert "margin_alt_nabla_sign" in rep.extras


def test_cy_hypothesis_unmet_when_timelike():
    # r > 1 spheres in the de Sitter slice have H < |P|.
    rep = audit_cy_estimate(sphere_geom(2.0, idata.hyperboloidal_flat()))
    assert rep.verdict == HYPOTHESIS_UNMET
    assert not rep.flag("spacelike_mean_curvature").satisfied


# ---------------------------------------------------------------------------
# hawking-bound


def test_hawking_flat_sphere_equality():
    rep = audit_hawking_bound(sphere_geom(1.3))
    assert abs(rep.lhs) < 1e-12
    assert abs(rep.rhs) < 1e-6
    assert rep.verdict == HOLDS
    for name, value in rep.equality_diagnostics:
        assert value < 1e-8, name


def test_hawking_schwarzschild_holds():
    data = idata.schwarzschild_isotropic(1.0)
    rep = audit_hawking_bound(sphere_geom(0.5, data, n=64))
    assert abs(rep.rhs - 1.0) < 0.005
    assert abs(rep.lhs) < 1e-12
    assert rep.verdict == HOLDS

    rep = audit_hawking_bound(sphere_geom(50.0, data, n=64))
    assert abs(rep.rhs - 1.0) < 0.02
    assert rep.verdict == HOLDS


# ---------------------------------------------------------------------------
# cohn-vossen


def test_cohn_vossen_horizon_flag_logic():
    geom = sphere_geom(0.5, idata.schwarzschild_isotropic(1.0), n=48)
    rep = audit_cohn_vossen(geom)
    assert rep.flag("is_mots").satisfied
    assert rep.flag("stable").satisfied
    assert not rep.flag("dec_strictly_positive").satisfied
    assert rep.verdict == HYPOTHESIS_UNMET
    assert abs(rep.lhs) < 1e-9
    assert rep.rhs == pytest.approx(2.0 * np.pi)


@pytest.mark.parametrize("m", [1.0, 1.3])
def test_cohn_vossen_rounding_is_not_a_sign(m):
    # the Schwarzschild horizon is vacuum, so min(mu - |J|) is zero up to
    # rounding of either sign, in both slicings. Below the dec floor it is
    # no strict sign: the flag stays unmet, and the note names the value.
    for r, data in ((0.5 * m, idata.schwarzschild_isotropic(m)),
                    (2.0 * m, idata.schwarzschild_pg(m))):
        geom = sphere_geom(r, data, n=32)
        dec_min = float(np.min(geom.mu - geom.j_norm))
        for shift in (0.0, 2.0 * abs(dec_min)):
            rep = audit_cohn_vossen(replace(geom, mu=geom.mu + shift))
            flag = rep.flag("dec_strictly_positive")
            assert not flag.satisfied
            assert rep.verdict == HYPOTHESIS_UNMET
            if flag.evidence != 0.0:
                assert f"inf(mu - |J|) = {flag.evidence:.3g} counts as zero" \
                    in rep.notes
    # clear of the floor, a positive minimum is a sign
    rep = audit_cohn_vossen(injected(sphere_geom(1.0), 1e-6))
    assert rep.flag("dec_strictly_positive").satisfied
    assert "counts as zero" not in rep.notes


def test_cohn_vossen_synthetic_injection():
    r = 1.7
    geom = sphere_geom(r)
    rep = audit_cohn_vossen(injected(geom, 1.0 / (2.0 * r * r)))
    expected = geom.area / (2.0 * r * r)
    assert abs(rep.lhs - expected) < 1e-12
    assert abs(rep.lhs - 2.0 * np.pi) < 1e-6 * 2.0 * np.pi
    assert abs(rep.margin) < 1e-6


def test_cohn_vossen_monotone_truncation():
    # larger truncations of a nonnegative integrand never decrease the lhs
    values = [audit_cohn_vossen(injected(sphere_geom(r), 0.1)).lhs
              for r in (1.0, 1.5, 2.0)]
    assert values[0] < values[1] < values[2]


# ---------------------------------------------------------------------------
# growth bounds


def test_growth_distance_bound_round_sphere():
    geom = sphere_geom(1.0)
    rep = audit_growth_bounds(geom, a=1.0, c=1.0)
    assert rep.flag("operator_nonnegative").satisfied
    assert abs(rep.extras["lambda1_operator"]) < 1e-6
    assert abs(rep.rhs - np.pi * 2.0 / np.sqrt(3.0)) < 1e-12
    assert abs(rep.lhs - np.pi) < 0.03 * np.pi
    assert rep.verdict == HOLDS


def test_growth_bounds_round_sphere_factors_nothing(monkeypatch):
    # a K - c is constant on a round sphere, so the constant function is
    # the eigenfunction and the principal-eigenvalue gate accepts it with
    # no factorization
    def no_factor(*args, **kwargs):
        raise AssertionError("factorized a pencil with a constant "
                             "eigenfunction")

    monkeypatch.setattr(spectra, "splu", no_factor)
    for form in ({"c": 1.0}, {"q_field": np.zeros((24, 48))}):
        rep = audit_growth_bounds(sphere_geom(1.0, n=24), a=1.0, **form)
        assert rep.flag("operator_nonnegative").satisfied


def test_growth_bound_precondition():
    with pytest.raises(ValueError):
        audit_growth_bounds(sphere_geom(1.0), a=0.25, c=1.0)


def test_growth_area_bound_flat_disk():
    geom = disk_geom(48)
    rep = audit_growth_bounds(geom, a=1.0, q_field=np.zeros(geom.grid.shape))
    assert rep.flag("operator_nonnegative").satisfied
    assert abs(rep.lhs - 2.0 * np.pi / 3.0) < 0.15
    assert abs(rep.rhs - 2.0 * np.pi * 2.0 ** (2.0 / 3.0)) < 1e-9
    assert rep.verdict == HOLDS


# ---------------------------------------------------------------------------
# G quantity


def test_g_quantity_flat_and_hyperboloidal():
    r = 2.0
    g1 = compute_G_quantity(sphere_geom(r))
    assert np.max(np.abs(g1 - 3.0 / r**2)) < 1e-10
    g2 = compute_G_quantity(sphere_geom(r, idata.hyperboloidal_flat()))
    assert np.max(np.abs(g2 - 3.0 / r**2)) < 1e-10


@pytest.mark.parametrize("data, chart", [
    (idata.schwarzschild_pg(1.0), lambda g: sphere_chart(g, 4.1,
                                                         (0.45, 0.0, 0.0))),
    (idata.hyperboloidal_flat(), lambda g: sphere_chart(g, 2.0)),
])
def test_g_quantity_potential_is_qbar(data, chart):
    # the g-quantity operator's potential K + (theta+/2 theta-)|chihat_-|^2
    # - G is the proof variant of Qbar
    geom = compute_geometry(chart(make_grid(grids.SPHERE, 32, 64)), data)
    qbar = surfaces.qbar_potential(geom)
    by_hand = (geom.K + geom.theta_p / (2.0 * geom.theta_m) * geom.chihat_m2
               - compute_G_quantity(geom))
    assert np.max(np.abs(qbar - by_hand)) <= 1e-14 * np.max(np.abs(qbar))


def test_g_quantity_horizon_raises():
    geom = sphere_geom(0.5, idata.schwarzschild_isotropic(1.0))
    with pytest.raises(UnsupportedOperationError):
        compute_G_quantity(geom)


def test_theorem_481_report():
    rep = audit_theorem_481(sphere_geom(1.5))
    assert abs(rep.extras["min_G"] - 3.0 / 1.5**2) < 1e-9
    # flat spheres are not H-stable along -l_-: flag precedence applies
    assert rep.verdict == HYPOTHESIS_UNMET
    assert "case (1)" in rep.notes


def _same(a, b):
    return (a is None) == (b is None) and (a is None or np.array_equal(a, b))


def _record_solves(monkeypatch, geom, operators):
    """The name in ``operators`` (name -> the (c, drift, q) of an operator
    on ``geom``) of the operator of each ``spectra.assemble`` call, and of
    the assembled operator of each ``principal_eigenvalue`` call, in
    order."""
    assembled, solved, ops = [], [], []
    assemble, solve = spectra.assemble, spectra.principal_eigenvalue

    def recorded_assemble(geometry, c, drift=None, q=None):
        opmat = assemble(geometry, c, drift, q)
        assert geometry is geom
        assembled.append(next(
            name for name, expected in operators.items()
            if all(_same(a, b) for a, b in zip((c, drift, q), expected))))
        ops.append(opmat)
        return opmat

    def recorded_solve(opmat, *args, **kwargs):
        solved.append(next(name for name, op in zip(assembled, ops)
                           if op is opmat))
        return solve(opmat, *args, **kwargs)

    monkeypatch.setattr(spectra, "assemble", recorded_assemble)
    monkeypatch.setattr(spectra, "principal_eigenvalue", recorded_solve)
    return assembled, solved


def test_theorem_481_solves_once(monkeypatch):
    geom = sphere_geom(1.5, n=16)
    assembled, solved = _record_solves(monkeypatch, geom, {
        "Qbar potential": (surfaces.qbar_potential(geom), None, None),
        "HStabMinusLminus": surfaces.hstab_minus_lminus_coefficients(geom)})
    audit_theorem_481(geom)
    assert assembled == solved == ["Qbar potential", "HStabMinusLminus"]


# ---------------------------------------------------------------------------
# I(Sigma) and the diameter estimate


def test_I_sigma_solves_each_operator_once(monkeypatch):
    geom = disk_geom(16)
    assembled, solved = _record_solves(monkeypatch, geom, {
        "L": surfaces.mots_coefficients(geom),
        "Ls": surfaces.symmetrized_coefficients(geom)})
    audit_I_sigma(geom)
    assert assembled == solved == ["L", "Ls"]


def test_I_sigma_raises_when_L_solve_fails(monkeypatch):
    def fail(opmat, *args, **kwargs):
        raise UnsupportedOperationError("no principal eigenvalue")

    monkeypatch.setattr(spectra, "principal_eigenvalue", fail)
    with pytest.raises(UnsupportedOperationError):
        audit_I_sigma(disk_geom(16))


def test_I_sigma_flat_disk_cylinder_equality_case():
    rep = audit_I_sigma(disk_geom(32))
    # inf(H_dM - <W,nu>) = 1/R = 1, |dSigma| = 2 pi: the rigidity case
    assert abs(rep.lhs - rep.extras["boundary_length"]) < 1e-10
    assert abs(rep.margin) < 5e-3
    assert rep.verdict == HOLDS
    assert abs(rep.extras["chi_gauss_bonnet"] - 1.0) < 1e-2
    for name, value in rep.equality_diagnostics:
        assert value < 1e-6, (name, value)


def test_I_sigma_ball_support_flag_fails():
    rep = audit_I_sigma(disk_geom(32, support=BallSupport(1.0)))
    assert not rep.flag("Pi_NN_nonpositive").satisfied
    assert rep.verdict == HYPOTHESIS_UNMET
    assert abs(rep.lhs - 4.0 * np.pi) < 0.01


def test_I_sigma_synthetic_equality_margin_zero():
    geom = disk_geom(32)
    blen = geom.boundary_length()
    s1 = 0.5
    s2 = (2.0 * np.pi - s1 * geom.area) / blen
    rep = audit_I_sigma(injected(geom, s1, h_dm=s2))
    assert abs(rep.margin) < 1e-10
    for name, value in rep.equality_diagnostics:
        assert value < 1e-6, (name, value)


def test_I_sigma_capillary_not_applicable():
    # tilt the contact angle by using a cap on a cylinder (gamma != pi/2)
    grid = make_grid(grids.DISK, 16, 32)
    chart = cap_chart(grid, 1.0, support=surfaces.PlaneSupport(0.0))
    geom = compute_geometry(chart, idata.minkowski_flat())
    # cap on its plane is honestly free boundary; force capillary by moving
    # the support plane so gamma deviates: use a ball support of radius 1,
    # whose normal at the equator coincides with the cap normal (gamma = 0)
    chart2 = cap_chart(grid, 1.0, support=BallSupport(1.0))
    geom2 = compute_geometry(chart2, idata.minkowski_flat())
    rep = audit_I_sigma(geom2)
    assert rep.verdict == NOT_APPLICABLE


def test_index_bounds_arithmetic():
    rep = audit_index_bounds(0, 1, 1)
    assert rep.verdict == HOLDS
    rep = audit_index_bounds(0, 10, 1)
    assert rep.verdict == VIOLATED
    rep = audit_index_bounds(1, 3, 1, c=0.5, area=10.0)
    assert rep.verdict == HOLDS
    assert abs(rep.extras["area_bound"] - 20.0 * np.pi) < 1e-12
    rep = audit_index_bounds(0, 3, 2)
    assert rep.verdict == NOT_APPLICABLE
    with pytest.raises(ValueError):
        audit_index_bounds(0, 0, 1)
    # the area bound needs both c and area: one alone once dropped it
    with pytest.raises(ValueError):
        audit_index_bounds(0, 3, 1, c=1.0)
    with pytest.raises(ValueError):
        audit_index_bounds(0, 3, 1, area=10.0)


def test_index_bounds_property_grid():
    # thresholds exactly as published: l < 10 (even genus), l < 14 (odd)
    for g in range(6):
        for l in range(1, 21):
            rep = audit_index_bounds(g, l, 1)
            should_fail = l >= (10 if g % 2 == 0 else 14)
            assert (rep.verdict == VIOLATED) == should_fail, (g, l)
            rep2 = audit_index_bounds(g, l, 1, c=0.5, area=1.0)
            bound = 2.0 * np.pi * (7.0 - (-1.0) ** g - l) / 0.5
            area_fail = 1.0 > bound
            assert (rep2.verdict == VIOLATED) == (should_fail or area_fail), (g, l)


def test_diameter_synthetic_flag_precedence():
    geom = disk_geom(32)
    synth = with_overrides(geom, dec=3.0)
    rep = audit_diameter(synth)
    # the diameter part holds with margin ~ 2 pi/3 - 2 ~ 0.094, but the
    # injected energy makes the disk unstable: flag precedence wins
    assert rep.verdict == HYPOTHESIS_UNMET
    assert not rep.flag("stable").satisfied
    assert abs(rep.extras["bound_dec"] - 2.0 * np.pi / 3.0) < 1e-12
    assert abs(rep.extras["margin_diameter"] - 0.094) < 0.05


def test_diameter_not_applicable_when_infima_vanish():
    geom = disk_geom(16)
    rep = audit_diameter(injected(geom, 0.0, h_dm=0.0))
    assert rep.verdict == NOT_APPLICABLE


def test_diameter_cap_hausdorff_cross_check():
    grid = make_grid(grids.DISK, 32, 64)
    cap = compute_geometry(cap_chart(grid, 1.0), idata.minkowski_flat())
    rep = audit_diameter(injected(cap, 0.1, h_dm=0.1))
    assert abs(rep.extras["hausdorff_2"] - 2.0 * np.pi) < 0.01 * 2.0 * np.pi
    assert abs(rep.extras["hausdorff_1"] - 2.0 * np.pi) < 0.01 * 2.0 * np.pi


def test_intrinsic_diameter_disk_and_sphere():
    # closed-form metrics: the flat unit disk du^2 + u^2 dv^2, and the
    # round sphere of radius r, r^2 (du^2 + sin^2 u dv^2)
    d = make_grid(grids.DISK, 48, 96)
    U, _ = d.meshgrid()
    flat_disk = grids.Metric2Field(d, np.ones(d.shape), np.zeros(d.shape),
                                   U**2)
    assert abs(intrinsic_diameter(flat_disk) - 2.0) < 0.03 * 2.0
    g = make_grid(grids.SPHERE, 48, 96)
    r = 1.5
    U, _ = g.meshgrid()
    sphere = grids.Metric2Field(g, np.full(g.shape, r * r), np.zeros(g.shape),
                                (r * np.sin(U)) ** 2)
    assert abs(intrinsic_diameter(sphere) - np.pi * r) < 0.03 * np.pi * r


def all_sources_diameter(metric):
    """The largest finite distance over a Dijkstra search from every
    sample source, with no pruning."""
    dist = audits._csgraph_dijkstra(audits._edge_graph(metric),
                                    directed=False,
                                    indices=audits._diameter_sources(
                                        metric.grid))
    return float(np.max(dist[np.isfinite(dist)]))


def _surface(kind, n, size, shape, m):
    """Metric of a disk, cap, ellipsoid or off-centre sphere at n x 2n."""
    disk, sphere = (make_grid(t, n, 2 * n) for t in (grids.DISK,
                                                     grids.SPHERE))
    a, b, c = shape
    if kind == "flat":
        chart, data = flat_disk_chart(disk, size, b), idata.minkowski_flat()
    elif kind == "plane":
        chart = flat_disk_chart(disk, size, b, support=PlaneSupport(b))
        data = idata.schwarzschild_isotropic(m)
    elif kind == "cap":
        chart, data = cap_chart(disk, size), idata.schwarzschild_isotropic(m)
    elif kind == "ellipsoid":
        chart = ellipsoid_chart(sphere, size * a, size * b, size * c)
        data = idata.schwarzschild_pg(m)
    else:
        chart = sphere_chart(sphere, size, tuple(0.3 * size * x
                                                 for x in shape))
        data = idata.schwarzschild_pg(m)
    return compute_geometry(chart, data).metric


@settings(max_examples=30, deadline=None, database=None)
@given(st.sampled_from(["flat", "plane", "cap", "ellipsoid", "sphere"]),
       st.sampled_from([16, 32]), st.floats(0.5, 2.0),
       st.tuples(*[st.floats(0.6, 1.4)] * 3), st.floats(0.05, 0.3))
def test_pruned_diameter_is_the_all_sources_maximum(kind, n, size, shape, m):
    # the eccentricity bounds skip sources, never the answer: the same
    # float, to the bit, as searching from every sample source
    metric = _surface(kind, n, size, shape, m)
    assert intrinsic_diameter(metric) == all_sources_diameter(metric)


def test_diameter_search_counts(monkeypatch):
    # the audit-mix flat disk (cylinder support) needs at most 10 of its 31
    # sample sources searched at 64x128; on a round sphere every source is
    # as far from its antipode, so no bound can skip one
    searched = []
    search = audits._csgraph_dijkstra

    def counting(graph, **kwargs):
        searched.append(np.size(kwargs["indices"]))
        return search(graph, **kwargs)

    monkeypatch.setattr(audits, "_csgraph_dijkstra", counting)
    flat = idata.minkowski_flat()
    disk = compute_geometry(
        flat_disk_chart(make_grid(grids.DISK, 64, 128), 1.3, 0.2), flat)
    sphere = compute_geometry(
        sphere_chart(make_grid(grids.SPHERE, 64, 128), 1.0), flat)
    counts = []
    for geom in (disk, sphere):
        searched.clear()
        intrinsic_diameter(geom.metric)
        counts.append((sum(searched),
                       audits._diameter_sources(geom.grid).size))
    assert counts[0][1] == counts[1][1] == 31
    assert counts[0][0] <= 10
    assert counts[1][0] == 31


@pytest.mark.parametrize("n", [32, 64])
def test_diameter_horizon_hemispheres_agree(n):
    # The Schwarzschild horizon hemisphere on its plane of symmetry, in the
    # isotropic (r = m/2) and PG (r = 2m) slicings: vacuum and a totally
    # geodesic plane make mu - |J| and H_dM - <W, nu> zero, which rounding
    # leaves at +-1e-16 with a sign that differs between the slicings. Both
    # count as zero, so both audits find the bound empty, and no bound is
    # divided by rounding noise.
    reports = [audit_diameter(compute_geometry(
        cap_chart(make_grid(grids.DISK, n, 2 * n), r), data))
        for r, data in ((0.5, idata.schwarzschild_isotropic(1.0)),
                        (2.0, idata.schwarzschild_pg(1.0)))]
    for rep in reports:
        assert rep.verdict == NOT_APPLICABLE
        assert (rep.lhs, rep.rhs) == (0.0, 0.0)
        assert "counts as zero" in rep.notes


# ---------------------------------------------------------------------------
# collar


def test_collar_infima():
    geom = sphere_geom(1.0)
    assert abs(collar_infimum(idata.minkowski_flat(), geom, 0.2)) < 1e-10
    geom_h = sphere_geom(1.0, idata.hyperboloidal_flat())
    assert abs(collar_infimum(idata.hyperboloidal_flat(), geom_h, 0.2) - 3.0) < 1e-9

    data = idata.schwarzschild_isotropic(1.0)
    geom_s = sphere_geom(0.5, data)
    # the unit normal has coordinate length psi^-2 = 1/4 at the horizon, so
    # the collar reaches the excised ball once zeta exceeds ~1.8
    with pytest.raises(DomainError):
        collar_infimum(data, geom_s, 2.0)

    disk = disk_geom(16)
    val = collar_infimum(idata.minkowski_flat(), disk, 0.1, which="boundary")
    assert abs(val - 1.0) < 1e-10
