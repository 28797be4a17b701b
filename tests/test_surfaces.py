"""Tests for the surface engine: extrinsic geometry, Hawking energy, and
the first-variation finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthetic_fields import with_overrides
from motslab import audits, grids, initialdata as idata, surfaces
from motslab.errors import TopologyError, UnsupportedOperationError
from motslab.grids import integrate, make_grid
from motslab.surfaces import (
    BallSupport,
    CylinderSupport,
    PlaneSupport,
    cap_chart,
    compute_geometry,
    ellipsoid_chart,
    flat_disk_chart,
    hawking_energy,
    radial_graph_chart,
    sphere_chart,
    variation_oracle,
)


def grid64():
    return make_grid(grids.SPHERE, 64, 128)


def test_round_sphere_flat_geometry():
    geom = compute_geometry(sphere_chart(grid64(), 2.0), idata.minkowski_flat())
    assert np.max(np.abs(geom.H - 1.0)) < 1e-10
    assert np.max(np.abs(geom.P)) < 1e-12
    assert np.max(np.abs(geom.theta_p - 1.0)) < 1e-10
    assert np.max(np.abs(geom.theta_m + 1.0)) < 1e-10
    assert np.max(np.abs(geom.W_cov)) < 1e-12
    assert abs(geom.area - 16.0 * np.pi) < 0.001 * 16.0 * np.pi
    # A = g_S / r for the round sphere
    assert np.max(np.abs(geom.A - geom.gS / 2.0)) < 1e-10


def _count_ddg(data):
    calls = []
    ddg = data.ddg

    def counted(x):
        calls.append(x.shape[1:])
        return ddg(x)

    data.ddg = counted
    return calls


def test_one_ambient_evaluation_per_point_set():
    data = idata.schwarzschild_isotropic(1.0)
    calls = _count_ddg(data)
    geom = compute_geometry(sphere_chart(make_grid(grids.SPHERE, 16, 32), 0.5),
                            data)
    assert len(calls) == 1
    calls.clear()
    audits.collar_infimum(data, geom, 0.05, which="dec")
    assert len(calls) == 11

    data = idata.minkowski_flat()
    calls = _count_ddg(data)
    compute_geometry(flat_disk_chart(make_grid(grids.DISK, 16, 32), 1.0), data)
    # surface nodes, then boundary nodes
    assert calls == [(16, 32), (32,)]


def test_definitional_identities_node_wise():
    cases = [
        (sphere_chart(grid64(), 1.3), idata.minkowski_flat()),
        (ellipsoid_chart(grid64()), idata.hyperboloidal_flat()),
        (sphere_chart(grid64(), 1.0, center=(0.3, 0.0, 0.2)),
         idata.schwarzschild_pg(1.0)),
    ]
    for chart, data in cases:
        geom = compute_geometry(chart, data)
        assert np.max(np.abs(geom.theta_p - (geom.H + geom.P))) < 1e-12
        assert np.max(np.abs(geom.theta_m - (geom.P - geom.H))) < 1e-12
        lhs = -geom.theta_p * geom.theta_m
        rhs = geom.H**2 - geom.P**2
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale
        assert np.max(np.abs(geom.chi_p - (geom.k_S + geom.A))) < 1e-12
        # trace-free part of chi_-
        tr = np.einsum("...ab,...ab->...", geom.gS_inv, geom.chihat_m)
        assert np.max(np.abs(tr)) < 1e-10
        # unit normal
        g3 = data.g(np.moveaxis(geom.F, -1, 0))
        nn = np.einsum("ij...,...i,...j->...", g3, geom.N, geom.N)
        assert np.max(np.abs(nn - 1.0)) < 1e-12


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=30, deadline=None, database=None)
@given(st.one_of(
    st.builds(lambda r, c: sphere_chart(make_grid(grids.SPHERE, 16, 32), r,
                                        tuple(0.5 * x for x in c)),
              st.floats(1.5, 3.0), st.tuples(_UNIT, _UNIT, _UNIT)),
    st.builds(lambda a, b, c: ellipsoid_chart(make_grid(grids.SPHERE, 16, 32),
                                              a, b, c),
              st.floats(1.5, 3.0), st.floats(1.5, 3.0), st.floats(1.5, 3.0)),
    st.builds(lambda r, z: flat_disk_chart(make_grid(grids.DISK, 16, 32),
                                           r, z),
              st.floats(0.5, 2.0), st.floats(0.3, 1.0))))
def test_orientation_flip_swaps_expansions(chart):
    from dataclasses import replace

    # Painleve-Gullstrand data: k is not umbilic, so P and W are nonzero
    data = idata.schwarzschild_pg(1.0)
    geom = compute_geometry(chart, data)
    geom_in = compute_geometry(replace(chart, flip_normal=True), data)
    # the flipped normal swaps theta_+ and theta_- to the bit
    assert np.array_equal(geom_in.theta_p, geom.theta_m)
    assert np.array_equal(geom_in.theta_m, geom.theta_p)
    assert np.array_equal(geom_in.W_cov, -geom.W_cov)
    assert np.array_equal(geom_in.H, -geom.H)
    assert np.array_equal(geom_in.P, geom.P)


GB_TOL = 2e-2 * np.pi


@settings(max_examples=20, deadline=None, database=None)
@given(st.sampled_from(["iso", "pg"]), st.floats(0.5, 1.5),
       st.one_of(st.tuples(st.just("sphere"), st.floats(0.8, 2.0),
                           st.tuples(_UNIT, _UNIT, _UNIT)),
                 st.tuples(st.just("ellipsoid"),
                           st.tuples(*[st.floats(0.8, 2.0)] * 3))))
def test_gauss_bonnet_within_bound(data_kind, m, shape):
    # The bound is the benchmark's, set for 64x128: the Brioschi residual is
    # second order, and at 32x64 a round sphere already sits at -5.3e-2.
    data = (idata.schwarzschild_isotropic(m) if data_kind == "iso"
            else idata.schwarzschild_pg(m))
    if shape[0] == "sphere":
        r = m * shape[1]
        chart = sphere_chart(grid64(), r, tuple(0.4 * r * c for c in shape[2]))
    else:
        chart = ellipsoid_chart(grid64(), *(m * a for a in shape[1]))
    geom = compute_geometry(chart, data)
    # intrinsic (Brioschi) curvature and the ambient Gauss equation
    for K in (grids.gauss_curvature(geom.metric), geom.K):
        assert abs(integrate(geom.metric, K) - 4.0 * np.pi) < GB_TOL


def test_schwarzschild_horizon_is_marginally_trapped():
    # Closed-form H(r) = 2(1 - m/(2r)) / (r psi^3) has its root at r = m/2.
    data = idata.schwarzschild_isotropic(1.0)
    geom = compute_geometry(sphere_chart(grid64(), 0.5), data)
    assert np.max(np.abs(geom.theta_p)) < 1e-10
    assert np.max(np.abs(geom.A)) < 1e-10
    # off-horizon spheres match the closed-form mean curvature
    for r in (0.4, 0.7, 2.0):
        geom = compute_geometry(sphere_chart(grid64(), r), data)
        psi = 1.0 + 0.5 / r
        h_exact = 2.0 * (1.0 - 0.5 / r) / (r * psi**3)
        assert np.max(np.abs(geom.H - h_exact)) < 1e-10, r


def test_hyperboloidal_sphere_expansions():
    geom = compute_geometry(sphere_chart(grid64(), 2.0),
                            idata.hyperboloidal_flat())
    assert np.max(np.abs(geom.P - 2.0)) < 1e-10
    assert np.max(np.abs(geom.theta_p - 3.0)) < 1e-10


def test_pg_horizon():
    data = idata.schwarzschild_pg(1.0)
    geom = compute_geometry(sphere_chart(grid64(), 2.0), data)
    assert np.max(np.abs(geom.theta_p)) < 1e-10
    # centered spheres have W = 0 by spherical symmetry
    assert np.max(np.abs(geom.W_cov)) < 1e-12
    # off-center spheres carry a nonzero connection one-form
    geom_off = compute_geometry(sphere_chart(grid64(), 1.0, (0.5, 0.0, 0.0)),
                                data)
    assert np.max(np.abs(geom_off.W_cov)) > 1e-3


def test_gauss_equation_residual():
    # 1/2 (R_S - R_M - |A|^2 - H^2) + Ric(N,N) + |A|^2 = 0 at interior nodes,
    # with R_S evaluated intrinsically (Brioschi on the induced metric) as an
    # independent cross-check of the extrinsic route used inside the engine.
    for chart, data in [
        (ellipsoid_chart(grid64()), idata.minkowski_flat()),
        (sphere_chart(grid64(), 1.0), idata.schwarzschild_isotropic(1.0)),
    ]:
        geom = compute_geometry(chart, data)
        r_intrinsic = 2.0 * grids.gauss_curvature(geom.metric)
        res = (0.5 * (r_intrinsic - geom.R_M - geom.absA2 - geom.H**2)
               + geom.RicNN + geom.absA2)
        assert np.max(np.abs(res[8:-8])) < 2e-2, data.name


def test_hawking_energy_values():
    # flat: 0; horizon: m; large Schwarzschild sphere: m (Misner-Sharp).
    geom = compute_geometry(sphere_chart(grid64(), 1.7), idata.minkowski_flat())
    assert abs(hawking_energy(geom)) < 1e-6 * 1.7

    data = idata.schwarzschild_isotropic(1.0)
    geom = compute_geometry(sphere_chart(grid64(), 0.5), data)
    assert abs(hawking_energy(geom) - 1.0) < 0.005

    geom = compute_geometry(sphere_chart(grid64(), 50.0), data)
    assert abs(hawking_energy(geom) - 1.0) < 0.02

    disk = flat_disk_chart(make_grid(grids.DISK, 32, 64))
    with pytest.raises(TopologyError):
        hawking_energy(compute_geometry(disk, idata.minkowski_flat()))


def test_disk_boundary_data_cylinder():
    grid = make_grid(grids.DISK, 32, 64)
    geom = compute_geometry(flat_disk_chart(grid, 1.0), idata.minkowski_flat())
    b = geom.boundary
    assert np.max(np.abs(b.cos_gamma)) < 1e-12          # free boundary
    assert np.max(np.abs(b.Pi_NN)) < 1e-12              # cylinder is flat along z
    assert np.max(np.abs(b.H_dM - 1.0)) < 1e-12         # cylinder H = 1/R
    assert np.max(np.abs(b.W_nu)) < 1e-12
    assert abs(geom.boundary_length() - 2.0 * np.pi) < 1e-3
    assert abs(geom.area - np.pi) < 0.001 * np.pi


def test_disk_in_ball_and_cap_on_plane():
    grid = make_grid(grids.DISK, 32, 64)
    geom = compute_geometry(flat_disk_chart(grid, 1.0, support=BallSupport(1.0)),
                            idata.minkowski_flat())
    b = geom.boundary
    assert np.max(np.abs(b.cos_gamma)) < 1e-12
    assert np.max(np.abs(b.Pi_NN - 1.0)) < 1e-12        # ball curves against N
    assert np.max(np.abs(b.H_dM - 2.0)) < 1e-12

    cap = compute_geometry(cap_chart(grid, 1.0), idata.minkowski_flat())
    bc = cap.boundary
    assert np.max(np.abs(bc.cos_gamma)) < 1e-12
    assert np.max(np.abs(bc.Pi_NN)) < 1e-12
    assert np.max(np.abs(bc.H_dM)) < 1e-12
    assert abs(cap.area - 2.0 * np.pi) < 0.002 * 2.0 * np.pi
    assert abs(cap.boundary_length() - 2.0 * np.pi) < 1e-3
    assert np.max(np.abs(cap.theta_p - 2.0)) < 1e-10


def test_variation_oracle_unit_sphere_constant():
    # phi = 1 on the unit sphere in flat data: formula value is -2.
    chart = sphere_chart(grid64(), 1.0)
    data = idata.minkowski_flat()
    res = variation_oracle(chart, data, 1.0, surfaces.NORMAL_N, [1e-3])
    assert np.max(np.abs(res.formula_fields["theta_plus"] + 2.0)) < 1e-9
    # the floor is the eps^2 term of the central difference of 2/(1+eps)
    assert res.max_deviation("theta_plus") < 5e-6


def test_variation_oracle_cos_u():
    chart = sphere_chart(grid64(), 1.0)
    data = idata.minkowski_flat()
    U, _ = chart.grid.meshgrid()
    res = variation_oracle(chart, data, np.cos(U), surfaces.NORMAL_N, [1e-3])
    assert res.max_deviation("theta_plus") < 1e-3
    assert res.max_deviation("H2_normal") < 5e-3


def test_variation_oracle_converges():
    data = idata.minkowski_flat()
    devs = []
    for n, eps in ((32, 1e-3), (64, 5e-4)):
        chart = sphere_chart(make_grid(grids.SPHERE, n, 2 * n), 1.0)
        U, _ = chart.grid.meshgrid()
        res = variation_oracle(chart, data, np.cos(U), surfaces.NORMAL_N, [eps])
        devs.append(res.max_deviation("theta_plus"))
    assert devs[0] / devs[1] >= 3.0


def test_variation_oracle_minus_lminus_hyperboloidal():
    # Hand value: for the round sphere of radius r in the de Sitter slice,
    # d/deps |H|^2 along -l_- with phi = 1 equals (8/r^2)(1 - 1/r).
    r = 2.0
    chart = sphere_chart(grid64(), r)
    data = idata.hyperboloidal_flat()
    res = variation_oracle(chart, data, 1.0, surfaces.MINUS_L_MINUS,
                           [1e-3, 5e-4], qbar="both")
    expected = (8.0 / r**2) * (1.0 - 1.0 / r)
    for name in ("H2_lminus_proof", "H2_lminus_lemma"):
        assert np.max(np.abs(res.formula_fields[name] - expected)) < 1e-9
        assert res.max_deviation(name, 1e-3) < 1e-5
    # the two Qbar variants agree identically in two dimensions
    diff = np.max(np.abs(res.formula_fields["H2_lminus_proof"]
                         - res.formula_fields["H2_lminus_lemma"]))
    assert diff < 1e-11


def test_variation_oracle_minus_lminus_guards():
    chart = sphere_chart(grid64(), 1.0)
    U, _ = chart.grid.meshgrid()
    with pytest.raises(UnsupportedOperationError):
        variation_oracle(chart, idata.hyperboloidal_flat(), np.cos(U),
                         surfaces.MINUS_L_MINUS, [1e-3])
    with pytest.raises(UnsupportedOperationError):
        variation_oracle(chart, idata.schwarzschild_isotropic(1.0), 1.0,
                         surfaces.MINUS_L_MINUS, [1e-3])


def test_overrides_recompute_q():
    geom = compute_geometry(sphere_chart(grid64(), 1.0), idata.minkowski_flat())
    synth = with_overrides(geom, mu=0.25, J_N=0.0)
    assert np.max(np.abs(synth.Q - (geom.K - 0.25 - 0.5 * geom.chi_p2))) < 1e-12
    U, V = geom.grid.meshgrid()
    h = 0.3 * np.cos(U)
    gu, gv = grids.gradient(geom.metric, h)
    w_cov = np.stack([grids.d_u(geom.grid, h, 1.0), grids.d_v(geom.grid, h)], -1)
    synth = with_overrides(geom, W_cov=w_cov)
    lap = grids.laplace_beltrami(geom.metric, h)
    assert np.max(np.abs(synth.divW - lap)) < 1e-10


def test_variation_oracle_nonzero_w():
    # Off-center sphere in the Painleve-Gullstrand slice: the connection
    # one-form W is nonzero and non-gradient, so every term of the theta_+
    # variation formula faces the finite difference. The deviation carries
    # the odd-azimuthal pole-layer truncation, so the assertion is on
    # convergence rather than a tight absolute bound.
    data = idata.schwarzschild_pg(1.0)
    devs = []
    for n, eps in ((32, 2e-4), (64, 1e-4)):
        grid = make_grid(grids.SPHERE, n, 2 * n)
        chart = sphere_chart(grid, 1.0, (0.4, 0.0, 0.0))
        U, V = grid.meshgrid()
        phi = 1.0 + 0.3 * np.cos(U) + 0.2 * np.sin(U) * np.cos(V)
        geom = compute_geometry(chart, data)
        assert np.max(np.abs(geom.W_cov)) > 1e-3
        res = variation_oracle(chart, data, phi, surfaces.NORMAL_N, [eps])
        devs.append(res.max_deviation("theta_plus"))
    assert devs[0] / devs[1] > 3.0
    assert devs[1] < 3e-2


def test_variation_oracle_drift_term():
    # PG sphere off the puncture in two directions, where the drift term
    # 2 <W, grad phi> of the shared operator coefficients is O(0.2): both
    # the theta_+ and the |H|^2 formula meet the finite difference to a few
    # 1e-3 at 64x128, while a sign slip in the drift moves them by ~0.4.
    data = idata.schwarzschild_pg(1.0)
    grid = make_grid(grids.SPHERE, 64, 128)
    chart = sphere_chart(grid, 1.5, (0.4, 0.0, 0.3))
    U, V = grid.meshgrid()
    phi = 1.0 + 0.3 * np.cos(U) + 0.2 * np.sin(U) * np.cos(V)
    geom = compute_geometry(chart, data)
    gu, gv = grids.gradient(geom.metric, phi, order=4)
    drift = 2.0 * (geom.W_cov[..., 0] * gu + geom.W_cov[..., 1] * gv)
    assert np.max(np.abs(drift)) > 0.1
    res = variation_oracle(chart, data, phi, surfaces.NORMAL_N, [5e-4])
    assert res.max_deviation("theta_plus") < 1e-2
    assert res.max_deviation("H2_normal") < 4e-2


def test_variation_oracle_bumpy_graph():
    # Non-round radial graph in flat data: curvature terms of both the
    # theta_+ and |H|^2 variation formulas against the finite difference.
    devs_t, devs_h = [], []
    for n, eps in ((32, 2e-4), (64, 1e-4)):
        grid = make_grid(grids.SPHERE, n, 2 * n)
        U, V = grid.meshgrid()
        rho = 1.0 + 0.15 * np.sin(U) ** 2 * np.cos(2.0 * V)
        chart = radial_graph_chart(grid, rho)
        res = variation_oracle(chart, idata.minkowski_flat(), np.cos(U),
                               surfaces.NORMAL_N, [eps])
        devs_t.append(res.max_deviation("theta_plus"))
        devs_h.append(res.max_deviation("H2_normal"))
    assert devs_t[0] / devs_t[1] > 3.0 and devs_t[1] < 5e-4
    assert devs_h[0] / devs_h[1] > 3.0 and devs_h[1] < 2e-3


def test_variation_oracle_h2_with_momentum_terms():
    # P != 0 and W != 0 simultaneously: the P/H drift and source terms of
    # the |H|^2 variation face the finite difference.
    data = idata.schwarzschild_pg(1.0)
    devs = []
    for n, eps in ((32, 2e-4), (64, 1e-4)):
        grid = make_grid(grids.SPHERE, n, 2 * n)
        chart = sphere_chart(grid, 1.0, (0.4, 0.0, 0.0))
        U, _ = grid.meshgrid()
        res = variation_oracle(chart, data, 1.0 + 0.3 * np.cos(U),
                               surfaces.NORMAL_N, [eps])
        devs.append(res.max_deviation("H2_normal"))
    assert devs[0] / devs[1] > 3.0


# ---------------------------------------------------------------------------
# node-by-node reference geometry


def _anisotropic_data(eps=0.3, seed=5):
    """g = delta + eps x x^T and k = p + q.x: g is neither diagonal nor
    conformally flat, so an index slip in a contraction shows."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-1.0, 1.0, (3, 3))
    p = p + p.T
    q = rng.uniform(-1.0, 1.0, (3, 3, 3))
    q = q + q.transpose(1, 0, 2)                     # q_ijm

    def lift(t, x):
        return np.broadcast_to(t.reshape(t.shape + (1,) * (x.ndim - 1)),
                               t.shape + x.shape[1:])

    def g(x):
        return lift(np.eye(3), x) + eps * x[:, None] * x[None, :]

    def dg(x):
        return eps * (np.einsum("mi...,j...->mij...", lift(np.eye(3), x), x)
                      + np.einsum("mj...,i...->mij...", lift(np.eye(3), x),
                                  x))

    def ddg(x):
        e = np.eye(3)
        return eps * lift(np.einsum("mi,lj->lmij", e, e)
                          + np.einsum("li,mj->lmij", e, e), x)

    return idata.InitialData(
        name="anisotropic", params={}, g=g, dg=dg, ddg=ddg,
        k=lambda x: lift(p, x) + np.einsum("ijm,m...->ij...", q, x),
        dk=lambda x: lift(np.moveaxis(q, -1, 0), x),
        in_domain=lambda x: np.ones(np.shape(x)[1:], dtype=bool))


def _node_reference(data, chart, i, j):
    """The geometric fields at node (i, j) from the index formulas, one
    point at a time, with LAPACK's inverse and the full derivative of the
    Christoffel symbols."""
    x = chart.F[i, j]
    g, dg, ddg = data.g(x), data.dg(x), data.ddg(x)
    k, dk = data.k(x), data.dk(x)
    ginv = np.linalg.inv(g)
    dginv = -np.einsum("ia,mab,bl->mil", ginv, dg, ginv)
    low = (np.einsum("jlk->ljk", dg) + np.einsum("kjl->ljk", dg) - dg)
    gam = 0.5 * np.einsum("il,ljk->ijk", ginv, low)
    dlow = (np.einsum("mjlk->mljk", ddg) + np.einsum("mkjl->mljk", ddg)
            - ddg)
    dgam = 0.5 * (np.einsum("mil,ljk->mijk", dginv, low)
                  + np.einsum("il,mljk->mijk", ginv, dlow))
    ric = (np.einsum("iijk->jk", dgam) - np.einsum("jiik->jk", dgam)
           + np.einsum("iip,pjk->jk", gam, gam)
           - np.einsum("ijp,pik->jk", gam, gam))
    R = np.einsum("jk,jk", ginv, ric)
    trk = np.einsum("ij,ij", ginv, k)
    mu = 0.5 * (R + trk**2 - np.einsum("ia,jb,ij,ab", ginv, ginv, k, k))
    dtrk = (np.einsum("mab,ab->m", dginv, k)
            + np.einsum("ab,mab->m", ginv, dk))
    nabla_k = (dk - np.einsum("pmi,pj->mij", gam, k)
               - np.einsum("pmj,ip->mij", gam, k))          # (nabla_m k)_ij
    J = np.einsum("ab,abj->j", ginv, nabla_k) - dtrk

    E = np.array([chart.Fu[i, j], chart.Fv[i, j]])
    second = np.array([[chart.Fuu[i, j], chart.Fuv[i, j]],
                       [chart.Fuv[i, j], chart.Fvv[i, j]]])
    gS = E @ g @ E.T
    gS_inv = np.linalg.inv(gS)
    n_cov = np.cross(E[0], E[1])
    N = ginv @ n_cov / np.sqrt(n_cov @ ginv @ n_cov)
    kind, ref = chart.normal_ref
    side = (g @ N) @ (x - ref) if kind == "center" else N @ ref
    N = N if side >= 0.0 else -N
    A = -np.einsum("i,abi->ab", g @ N,
                   second + np.einsum("ijk,aj,bk->abi", gam, E, E))
    k_S = E @ k @ E.T
    H, P = np.sum(gS_inv * A), np.sum(gS_inv * k_S)
    chi_p = k_S + A
    RicNN = N @ ric @ N
    R_S = R - 2.0 * RicNN + H**2 - np.einsum("ac,bd,ab,cd", gS_inv, gS_inv,
                                             A, A)
    J_N = J @ N
    return {
        "N": N, "gS": gS, "A": A, "k_S": k_S, "H": H, "P": P,
        "theta_p": P + H, "theta_m": P - H, "W_cov": E @ k @ N,
        "mu": mu, "J_N": J_N, "RicNN": RicNN, "R_M": R, "trk": trk,
        "Q": 0.5 * R_S - mu - J_N - 0.5 * np.einsum(
            "ac,bd,ab,cd", gS_inv, gS_inv, chi_p, chi_p),
        "nabla_N_P": N @ dtrk - np.einsum("mij,m,i,j", nabla_k, N, N, N),
    }, (g, ginv, gam, k, E, gS_inv, N)


def _boundary_reference(data, chart, j):
    """cos gamma, Pi, Pi(N, N), H_dM and W(nu) at boundary node j."""
    _, (g, ginv, gam, k, E, gS_inv, N) = _node_reference(data, chart, -1, j)
    support = chart.support
    x = chart.F[-1, j]
    s = support.sign * support.grad(x)
    hess = support.sign * support.hess(x)
    dginv = -np.einsum("ia,mab,bl->mil", ginv, data.dg(x), ginv)
    L = np.sqrt(s @ ginv @ s)
    dL = (np.einsum("mab,a,b->m", dginv, s, s)
          + 2.0 * hess @ ginv @ s) / (2.0 * L)
    Pi = hess / L - np.outer(dL, s) / L**2 - np.einsum("p,pij->ij", s / L,
                                                       gam)
    nu_chart = gS_inv[0] / np.sqrt(gS_inv[0, 0])
    return {"cos_gamma": N @ s / L, "shape_op": Pi, "Pi_NN": N @ Pi @ N,
            "H_dM": np.sum(ginv * Pi), "W_nu": (E @ k @ N) @ nu_chart}


@pytest.mark.parametrize("case", [
    "pg-sphere", "iso-sphere", "anisotropic-ellipsoid",
    "iso-cylinder-disk", "iso-ball-disk", "pg-plane-cap",
    "anisotropic-cylinder-disk",
])
def test_geometry_matches_node_reference(case):
    # The contractions of compute_geometry against the index formulas at 16
    # seeded nodes, and the boundary data at 8 seeded boundary nodes.
    sphere = make_grid(grids.SPHERE, 16, 32)
    disk = make_grid(grids.DISK, 12, 32)
    iso, pg = idata.schwarzschild_isotropic(1.0), idata.schwarzschild_pg(1.0)
    chart, data = {
        "pg-sphere": (sphere_chart(sphere, 1.0, (0.4, 0.1, -0.3)), pg),
        "iso-sphere": (sphere_chart(sphere, 0.6, (0.1, 0.05, 0.1)), iso),
        "anisotropic-ellipsoid": (ellipsoid_chart(sphere, 1.0, 1.2, 1.5),
                                  _anisotropic_data()),
        "iso-cylinder-disk": (flat_disk_chart(disk, 1.0, 0.5), iso),
        "iso-ball-disk": (flat_disk_chart(disk, 1.0, 0.5,
                                          BallSupport(np.sqrt(1.25))), iso),
        "pg-plane-cap": (cap_chart(disk, 2.5), pg),
        "anisotropic-cylinder-disk": (flat_disk_chart(disk, 1.2, -0.4),
                                      _anisotropic_data()),
    }[case]
    geom = compute_geometry(chart, data)
    rng = np.random.default_rng(11)
    nodes = zip(rng.integers(0, chart.grid.n_u, 16),
                rng.integers(0, chart.grid.n_v, 16))
    for i, j in nodes:
        ref, _ = _node_reference(data, chart, i, j)
        for name, expected in ref.items():
            got = getattr(geom, name)[i, j]
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(got - expected)) <= 1e-12 * scale, \
                (name, i, j)
    if geom.boundary is None:
        return
    for j in rng.integers(0, chart.grid.n_v, 8):
        for name, expected in _boundary_reference(data, chart, j).items():
            got = getattr(geom.boundary, name)[j]
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(got - expected)) <= 1e-12 * scale, (name, j)
