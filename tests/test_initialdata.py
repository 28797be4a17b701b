"""Tests for the initial data catalog and constraint evaluation."""

import collections
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from data_oracles import finite_difference_clone, rescaled_clone, slice_family
from motslab import grids, initialdata as idata, surfaces
from motslab.errors import (
    DegenerateMetricError,
    DomainError,
    InvalidInputError,
)


def sample_points(data, n, seed=7):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        x = rng.uniform(-3.0, 3.0, size=3)
        if np.linalg.norm(x) > 0.35 and data.in_domain(x):
            pts.append(x)
    return np.array(pts).T


@pytest.mark.parametrize("entry", idata.catalog(), ids=lambda d: d.name)
def test_analytic_derivative_consistency(entry):
    pts = sample_points(entry, 25)
    fd = finite_difference_clone(entry, step=1e-5)
    scale = max(1.0, np.max(np.abs(entry.dg(pts))))
    assert np.max(np.abs(entry.dg(pts) - fd.dg(pts))) < 1e-6 * scale
    scale = max(1.0, np.max(np.abs(entry.ddg(pts))))
    assert np.max(np.abs(entry.ddg(pts) - fd.ddg(pts))) < 1e-4 * scale
    scale = max(1.0, np.max(np.abs(entry.dk(pts))))
    assert np.max(np.abs(entry.dk(pts) - fd.dk(pts))) < 1e-6 * scale


def test_minkowski_and_basic_values():
    mink = idata.minkowski_flat()
    x = np.array([[0.3], [-1.2], [2.0]])
    assert np.allclose(mink.g(x)[..., 0], np.eye(3))
    assert np.allclose(mink.k(x), 0.0)
    jet = idata.evaluate(mink, x)
    assert abs(jet.mu[0]) < 1e-10 and np.max(np.abs(jet.J)) < 1e-10

    sch = idata.schwarzschild_isotropic(1.0)
    x = np.array([0.5, 0.0, 0.0])
    assert np.allclose(sch.g(x), 16.0 * np.eye(3), rtol=1e-12)

    hyp = idata.hyperboloidal_flat()
    pts = sample_points(hyp, 10)
    ginv = idata.evaluate(hyp, pts).ginv
    trk = np.einsum("ij...,ij...->...", ginv, hyp.k(pts))
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
        idata.dec_margin(idata.minkowski_flat(), np.zeros((3, 0)))


def test_constraint_fd_oracle_agreement():
    # Pure finite-difference recomputation (ignoring analytic derivatives)
    # agrees with the analytic constraint evaluation.
    rng_pts = 100
    for entry in idata.catalog():
        pts = sample_points(entry, rng_pts, seed=13)
        fd = finite_difference_clone(entry, step=2e-5)
        jet_a = idata.evaluate(entry, pts)
        jet_f = idata.evaluate(fd, pts)
        assert np.max(np.abs(jet_a.mu - jet_f.mu)) < 1e-5, entry.name
        assert np.max(np.abs(jet_a.J - jet_f.J)) < 1e-5, entry.name


def test_chart_rescaling_leaves_mu_invariant():
    for entry in (idata.schwarzschild_isotropic(1.0), idata.hyperboloidal_flat(),
                  idata.schwarzschild_pg(1.0)):
        pts = sample_points(entry, 20)
        c = 1.7
        scaled = rescaled_clone(entry, c)
        mu = idata.evaluate(entry, pts).mu
        mu_s = idata.evaluate(scaled, c * pts).mu
        assert np.max(np.abs(mu - mu_s)) < 1e-9, entry.name


def test_every_entry_is_a_lambda_vacuum():
    # G = -Lambda h gives G(tau, tau) = Lambda and G(tau, e_i) = 0, which
    # the constraints make mu and J_i at sample points.
    for entry in idata.catalog():
        pts = sample_points(entry, 20)
        jet = idata.evaluate(entry, pts)
        lam = entry.cosmological_constant
        assert np.max(np.abs(jet.mu - lam)) < 1e-8, entry.name
        assert np.max(np.abs(jet.J)) < 1e-8, entry.name


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
    shifted = slice_family(hyp)(0.25)
    x = np.array([1.0, 0.0, 0.0])
    assert np.allclose(shifted.g(x), np.exp(0.5) * np.eye(3))
    mu = idata.evaluate(shifted, x).mu
    assert abs(mu - 3.0) < 1e-10


def test_nonpositive_mass_rejected():
    with pytest.raises(ValueError):
        idata.schwarzschild_isotropic(0.0)
    with pytest.raises(ValueError):
        idata.schwarzschild_pg(-1.0)


@pytest.mark.parametrize("scale", [-1.0, 0.0, np.nan, np.inf])
def test_inverse_rejects_a_non_metric(scale):
    # c * delta for c <= 0 or not finite, and an indefinite g with a
    # positive diagonal: each is refused, never inverted to Inf or NaN.
    for g in (np.diag([scale] * 3), 2.0 * np.ones((3, 3)) - np.eye(3)):
        data = idata.InitialData(
            name="bad", params={}, g=lambda x, g=g: g[..., None],
            dg=lambda x: np.zeros((3, 3, 3, 1)),
            ddg=lambda x: np.zeros((3, 3, 3, 3, 1)),
            k=lambda x: np.zeros((3, 3, 1)),
            dk=lambda x: np.zeros((3, 3, 3, 1)),
            in_domain=lambda x: np.ones(np.shape(x)[1:], dtype=bool),
            cosmological_constant=0.0)
        with pytest.raises(DegenerateMetricError):
            idata.evaluate(data, np.array([[0.5], [0.0], [1.0]]))


@pytest.mark.parametrize("scale", [-1.0, 0.0, np.nan])
def test_nonpositive_scale_rejected(scale):
    with pytest.raises(ValueError):
        idata.hyperboloidal_flat(scale)


@pytest.mark.parametrize("spec", ["hyperboloidal:scale=nan",
                                  "schwarzschild-iso:m=inf",
                                  "schwarzschild-pg:m=-inf"])
def test_resolve_requires_finite_values(spec):
    with pytest.raises(InvalidInputError, match="must be finite"):
        idata.resolve(spec)


def _textbook_jet(g, dg, ddg, k, dk):
    """The ambient fields from the index formulas, contracted one einsum
    at a time through the full derivative of the Christoffel symbols."""
    ginv = np.moveaxis(np.linalg.inv(np.moveaxis(g, (0, 1), (-2, -1))),
                       (-2, -1), (0, 1))
    A = (np.einsum("jlk...->ljk...", dg) + np.einsum("kjl...->ljk...", dg)
         - dg)
    gam = 0.5 * np.einsum("il...,ljk...->ijk...", ginv, A)
    dginv = -np.einsum("ia...,mab...,bl...->mil...", ginv, dg, ginv)
    dA = (np.einsum("mjlk...->mljk...", ddg)
          + np.einsum("mkjl...->mljk...", ddg) - ddg)
    dgam = 0.5 * (np.einsum("mil...,ljk...->mijk...", dginv, A)
                  + np.einsum("il...,mljk...->mijk...", ginv, dA))
    ric = (np.einsum("iijk...->jk...", dgam)
           - np.einsum("jiik...->jk...", dgam)
           + np.einsum("iip...,pjk...->jk...", gam, gam)
           - np.einsum("ijp...,pik...->jk...", gam, gam))
    scal = np.einsum("jk...,jk...->...", ginv, ric)
    trk = np.einsum("ij...,ij...->...", ginv, k)
    k2 = np.einsum("ia...,jb...,ij...,ab...->...", ginv, ginv, k, k)
    dtrk = (np.einsum("mab...,ab...->m...", dginv, k)
            + np.einsum("ab...,mab...->m...", ginv, dk))
    div_k = (np.einsum("ik...,ikj...->j...", ginv, dk)
             - np.einsum("ik...,lik...,lj...->j...", ginv, gam, k)
             - np.einsum("ik...,lij...,kl...->j...", ginv, gam, k))
    J = div_k - dtrk
    j_norm = np.sqrt(np.maximum(
        np.einsum("ij...,i...,j...->...", ginv, J, J), 0.0))
    return {"gam": gam, "dginv": dginv, "ric": ric, "R": scal, "trk": trk,
            "absk2": k2, "dtrk": dtrk, "mu": 0.5 * (scal + trk**2 - k2),
            "J": J, "j_norm": j_norm}


def _sym(a, i, j):
    return 0.5 * (a + np.swapaxes(a, i, j))


def _polynomial_data(seed, eps):
    """g = delta + eps S(x) with S a symmetric quadratic polynomial and k a
    symmetric linear field, all derivatives exact: neither flat nor
    conformally flat, and g_ij is not diagonal."""
    rng = np.random.default_rng(seed)
    a = _sym(rng.uniform(-1, 1, (3, 3)), 0, 1)
    b = _sym(rng.uniform(-1, 1, (3, 3, 3)), 0, 1)              # b_ijm
    c = _sym(_sym(rng.uniform(-1, 1, (3, 3, 3, 3)), 0, 1), 2, 3)  # c_ijlm
    p = _sym(rng.uniform(-1, 1, (3, 3)), 0, 1)
    q = _sym(rng.uniform(-1, 1, (3, 3, 3)), 0, 1)              # q_ijm

    def batch(t, x):
        """The constant components t broadcast over the points x[i, ...]."""
        return np.broadcast_to(t.reshape(t.shape + (1,) * (x.ndim - 1)),
                               t.shape + x.shape[1:])

    def g(x):
        S = (batch(a, x) + np.einsum("ijm,m...->ij...", b, x)
             + np.einsum("ijlm,l...,m...->ij...", c, x, x))
        return batch(np.eye(3), x) + eps * S

    def dg(x):
        dS = (batch(np.moveaxis(b, -1, 0), x)
              + 2.0 * np.einsum("ijml,l...->mij...", c, x))
        return eps * dS

    def ddg(x):
        return eps * batch(2.0 * np.transpose(c, (2, 3, 0, 1)), x)

    def k(x):
        return batch(p, x) + np.einsum("ijm,m...->ij...", q, x)

    def dk(x):
        return batch(np.moveaxis(q, -1, 0), x)

    return idata.InitialData(
        name="polynomial", params={}, g=g, dg=dg, ddg=ddg, k=k, dk=dk,
        in_domain=lambda x: np.ones(np.asarray(x).shape[1:], dtype=bool),
        cosmological_constant=0.0)


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.02, 0.2))
def test_jet_matches_textbook_formulas(seed, eps):
    # Catalog metrics are flat or conformally flat; this one is neither,
    # so an index slip in the second-derivative contractions shows.
    data = _polynomial_data(seed, eps)
    x = np.moveaxis(np.random.default_rng(seed + 1).uniform(-1.0, 1.0,
                                                            (4, 5, 3)), -1, 0)
    assume(np.min(np.linalg.eigvalsh(
        np.moveaxis(data.g(x), (0, 1), (-2, -1)))) > 0.2)
    jet = idata.evaluate(data, x)
    ref = _textbook_jet(jet.g, data.dg(x), data.ddg(x), jet.k, jet.dk)
    for name, expected in ref.items():
        got = getattr(jet, name)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(got - expected)) <= 1e-13 * scale, name


_JET_FIELDS = [f.name for f in dataclasses.fields(idata.AmbientJet)]
_EVALUATORS = ("g", "dg", "ddg", "k", "dk", "in_domain")


def _rewrap(data, wrap):
    """The same entry with every evaluator f replaced by wrap(name, f)."""
    return idata.InitialData(
        name=data.name, params=data.params,
        **{name: wrap(name, getattr(data, name)) for name in _EVALUATORS},
        cosmological_constant=data.cosmological_constant)


def _strip_marks(data):
    """The same entry through plain lambdas, which carry no mark, so that
    evaluate takes the general path."""
    return _rewrap(data, lambda name, f: lambda x: f(x))


def _assert_same_jet(fast, slow, rel):
    """Every jet field of ``fast`` within ``rel`` of the field's scale
    max(1, max|field|) of ``slow``; bit for bit when ``rel`` is 0."""
    for name in _JET_FIELDS:
        got, expected = getattr(fast, name), getattr(slow, name)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(got - expected)) <= rel * scale, name
        if rel == 0.0:
            assert np.array_equal(got, expected), name


@pytest.mark.parametrize(
    "entry", idata.catalog() + [idata.hyperboloidal_flat(2.0),
                                idata.schwarzschild_pg(0.7)], ids=repr)
def test_zero_field_shortcut_gives_the_general_jet(entry):
    # the general path contracts the zero fields out in full, and gives the
    # zero-marked entries' jets to the bit. Isotropic Schwarzschild's
    # closed-form conformal curvature sums in another order, so it agrees
    # to rounding only.
    rel = 1e-13 if hasattr(entry.g, "psi") else 0.0
    grid = grids.make_grid(grids.SPHERE, 12, 24)
    nodes = surfaces.sphere_chart(grid, 1.0, (0.1, -0.2, 0.3)).F
    for x in (nodes, sample_points(entry, 30, seed=11)):
        _assert_same_jet(idata.evaluate(entry, x),
                         idata.evaluate(_strip_marks(entry), x), rel)


@pytest.mark.parametrize("entry, ddg_calls, g_calls", [
    (idata.schwarzschild_pg(1.0), 0, 1), (idata.minkowski_flat(), 0, 1),
    (idata.hyperboloidal_flat(), 0, 1),
    (idata.schwarzschild_isotropic(1.0), 0, 0)], ids=repr)
def test_wrapped_zero_evaluators_keep_the_shortcut(entry, ddg_calls, g_calls):
    # a timing wrapper made with functools.wraps, as a tracer makes it,
    # copies the marks, so traced runs skip the same work as untraced ones;
    # a conformally flat metric comes from its factor's jet alone, so g and
    # dg are called once each (g_calls) or not at all
    calls = collections.Counter()

    def wrap(name, f):
        @functools.wraps(f)
        def counted(x):
            calls[name] += 1
            return f(x)
        return counted

    idata.evaluate(_rewrap(entry, wrap), sample_points(entry, 10))
    assert calls["ddg"] == ddg_calls
    assert [calls[name] for name in ("g", "dg", "k", "dk")] == \
        [g_calls, g_calls, 1, 1]


def test_unmarked_evaluator_is_never_skipped():
    # PG with the second derivatives of g_ij = x_i x_j in place of its zero
    # ddg: the mark belongs to the evaluator, so the swap reaches Ricci
    pg = idata.schwarzschild_pg(1.0)
    eye = np.eye(3)
    hess = (np.einsum("li,mj->lmij", eye, eye)
            + np.einsum("lj,mi->lmij", eye, eye))
    pg.ddg = lambda x: np.broadcast_to(
        hess.reshape(hess.shape + (1,) * (np.ndim(x) - 1)),
        hess.shape + np.shape(x)[1:])
    jet = idata.evaluate(pg, sample_points(pg, 10))
    assert np.min(np.abs(jet.R)) > 1.0
    assert np.min(np.abs(jet.ric[0, 0])) > 1.0


def _puncture_psi(masses, centres):
    """The jet of the Brill-Lindquist factor psi = 1 + sum_i m_i /
    (2 |x - c_i|)."""
    def psi(x):
        p, dp, ddp = 1.0, 0.0, 0.0
        for m, c in zip(masses, centres):
            y = x - np.reshape(c, (3,) + (1,) * (x.ndim - 1))
            r = np.sqrt(np.einsum("i...,i...->...", y, y))
            p = p + 0.5 * m / r
            dp = dp - (0.5 * m / r**3) * y
            ddp = (ddp + (1.5 * m / r**5) * y[:, None] * y[None, :]
                   - (0.5 * m / r**3)
                   * np.eye(3).reshape((3, 3) + (1,) * (x.ndim - 1)))
        return p, dp, ddp
    return psi


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_conformal_jet_matches_the_general_path(seed, punctures):
    # several punctures break the spherical symmetry an index slip could
    # hide behind; a constant k that is not marked zero sends Gamma and
    # d g^-1 through J as well
    rng = np.random.default_rng(seed)
    masses = rng.uniform(0.2, 2.0, punctures)
    centres = rng.uniform(-1.0, 1.0, (punctures, 3))
    k0 = _sym(rng.uniform(-1.0, 1.0, (3, 3)), 0, 1)
    g, dg, ddg = idata.conformally_flat(_puncture_psi(masses, centres))
    data = idata.InitialData(
        name="punctures", params={}, g=g, dg=dg, ddg=ddg,
        k=lambda x: np.broadcast_to(
            k0.reshape((3, 3) + (1,) * (x.ndim - 1)), (3, 3) + x.shape[1:]),
        dk=lambda x: np.zeros((3, 3, 3) + x.shape[1:]),
        in_domain=lambda x: np.ones(np.shape(x)[1:], dtype=bool),
        cosmological_constant=0.0)
    x = rng.uniform(-2.0, 2.0, (3, 400))
    gap = np.linalg.norm(x[:, None] - centres.T[:, :, None], axis=0)
    x = x[:, np.min(gap, axis=0) > 0.3].reshape(3, -1, 1)
    _assert_same_jet(idata.evaluate(data, x),
                     idata.evaluate(_strip_marks(data), x), 1e-13)


@pytest.mark.parametrize("swap", ["unmarked", "other psi"])
def test_conformal_path_needs_one_psi_on_every_metric_evaluator(swap):
    # iso m = 1 with the second derivatives of the m = 2 metric: the ddg
    # that evaluate reads is then not that of g, so R = 0 fails wherever
    # the swap reaches Ricci, as it must
    iso = idata.schwarzschild_isotropic(1.0)
    other = idata.schwarzschild_isotropic(2.0)
    iso.ddg = (lambda x: other.ddg(x)) if swap == "unmarked" else other.ddg
    pts = sample_points(iso, 10)
    assert np.min(np.abs(idata.evaluate(iso, pts).R)) > 1e-2
    assert np.max(np.abs(idata.evaluate(
        idata.schwarzschild_isotropic(1.0), pts).R)) < 1e-12
