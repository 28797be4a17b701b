"""Tests for the initial data catalog and constraint evaluation."""

import numpy as np
import pytest

from motslab import initialdata as idata
from motslab.errors import DomainError


def sample_points(data, n, seed=7):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        x = rng.uniform(-3.0, 3.0, size=3)
        if np.linalg.norm(x) > 0.35 and data.in_domain(x):
            pts.append(x)
    return np.array(pts)


@pytest.mark.parametrize("entry", idata.catalog(), ids=lambda d: d.name)
def test_analytic_derivative_consistency(entry):
    pts = sample_points(entry, 25)
    fd = idata.finite_difference_clone(entry, step=1e-5)
    scale = max(1.0, np.max(np.abs(entry.dg(pts))))
    assert np.max(np.abs(entry.dg(pts) - fd.dg(pts))) < 1e-6 * scale
    scale = max(1.0, np.max(np.abs(entry.ddg(pts))))
    assert np.max(np.abs(entry.ddg(pts) - fd.ddg(pts))) < 1e-4 * scale
    scale = max(1.0, np.max(np.abs(entry.dk(pts))))
    assert np.max(np.abs(entry.dk(pts) - fd.dk(pts))) < 1e-6 * scale


def test_minkowski_and_basic_values():
    mink = idata.minkowski_flat()
    x = np.array([[0.3, -1.2, 2.0]])
    assert np.allclose(mink.g(x)[0], np.eye(3))
    assert np.allclose(mink.k(x), 0.0)
    jet = idata.evaluate(mink, x)
    assert abs(jet.mu[0]) < 1e-10 and np.max(np.abs(jet.J)) < 1e-10

    sch = idata.schwarzschild_isotropic(1.0)
    x = np.array([0.5, 0.0, 0.0])
    assert np.allclose(sch.g(x), 16.0 * np.eye(3), rtol=1e-12)

    hyp = idata.hyperboloidal_flat()
    pts = sample_points(hyp, 10)
    ginv = idata.evaluate(hyp, pts).ginv
    trk = np.einsum("...ij,...ij->...", ginv, hyp.k(pts))
    assert np.allclose(trk, 3.0, atol=1e-12)


def test_vacuum_constraints():
    for entry in (idata.schwarzschild_isotropic(1.0), idata.schwarzschild_pg(1.0)):
        pts = sample_points(entry, 60)
        jet = idata.evaluate(entry, pts)
        assert np.max(np.abs(jet.mu)) < 1e-8, entry.name
        assert np.max(jet.j_norm) < 1e-8, entry.name


def test_hyperboloidal_constraints():
    hyp = idata.hyperboloidal_flat()
    pts = sample_points(hyp, 40)
    jet = idata.evaluate(hyp, pts)
    assert np.allclose(jet.mu, 3.0, atol=1e-10)
    assert np.max(np.abs(jet.J)) < 1e-10


def test_dec_margin():
    pts = sample_points(idata.minkowski_flat(), 30)
    assert abs(idata.dec_margin(idata.minkowski_flat(), pts)) < 1e-10
    assert abs(idata.dec_margin(idata.hyperboloidal_flat(), pts) - 3.0) < 1e-9
    sch = idata.schwarzschild_isotropic(1.0)
    assert abs(idata.dec_margin(sch, sample_points(sch, 30))) < 1e-8
    with pytest.raises(ValueError):
        idata.dec_margin(idata.minkowski_flat(), np.zeros((0, 3)))


def test_constraint_fd_oracle_agreement():
    # Pure finite-difference recomputation (ignoring analytic derivatives)
    # agrees with the analytic constraint evaluation.
    rng_pts = 100
    for entry in idata.catalog():
        pts = sample_points(entry, rng_pts, seed=13)
        fd = idata.finite_difference_clone(entry, step=2e-5)
        jet_a = idata.evaluate(entry, pts)
        jet_f = idata.evaluate(fd, pts)
        assert np.max(np.abs(jet_a.mu - jet_f.mu)) < 1e-5, entry.name
        assert np.max(np.abs(jet_a.J - jet_f.J)) < 1e-5, entry.name


def test_chart_rescaling_leaves_mu_invariant():
    for entry in (idata.schwarzschild_isotropic(1.0), idata.hyperboloidal_flat(),
                  idata.schwarzschild_pg(1.0)):
        pts = sample_points(entry, 20)
        c = 1.7
        scaled = idata.rescaled_clone(entry, c)
        mu = idata.evaluate(entry, pts).mu
        mu_s = idata.evaluate(scaled, c * pts).mu
        assert np.max(np.abs(mu - mu_s)) < 1e-9, entry.name


def test_extension_consistency():
    # G(tau, tau) = mu and G(tau, e_i) = J_i at sample points.
    tau = (1.0, np.zeros(3))
    for entry in idata.catalog():
        pts = sample_points(entry, 20)
        jet = idata.evaluate(entry, pts)
        gtt = entry.extension.contract(jet, tau, tau)
        assert np.max(np.abs(gtt - jet.mu)) < 1e-8, entry.name
        for i in range(3):
            e = (0.0, np.eye(3)[i])
            gti = entry.extension.contract(jet, tau, e)
            assert np.max(np.abs(gti - jet.J[..., i])) < 1e-8, entry.name


def test_schwarzschild_domain_excision():
    sch = idata.schwarzschild_isotropic(1.0)
    with pytest.raises(DomainError):
        idata.evaluate(sch, np.array([1e-3, 0.0, 0.0]))


def test_resolve_cli_names():
    d = idata.resolve("schwarzschild-iso:m=2.0")
    assert d.params["m"] == 2.0
    assert idata.resolve("minkowski").name == "minkowski_flat"
    with pytest.raises(ValueError):
        idata.resolve("kerr")


def test_ricci_schwarzschild_scalar_flat():
    # Isotropic Schwarzschild is scalar flat; a strong check of the
    # Christoffel/Ricci machinery against the exact conformal structure.
    sch = idata.schwarzschild_isotropic(1.0)
    pts = sample_points(sch, 40)
    scal = idata.evaluate(sch, pts).R
    assert np.max(np.abs(scal)) < 1e-9


def test_slice_family_hyperboloidal():
    hyp = idata.hyperboloidal_flat()
    shifted = hyp.slice_family(0.25)
    x = np.array([1.0, 0.0, 0.0])
    assert np.allclose(shifted.g(x), np.exp(0.5) * np.eye(3))
    mu = idata.evaluate(shifted, x).mu
    assert abs(mu - 3.0) < 1e-10


def test_nonpositive_mass_rejected():
    with pytest.raises(ValueError):
        idata.schwarzschild_isotropic(0.0)
    with pytest.raises(ValueError):
        idata.schwarzschild_pg(-1.0)
