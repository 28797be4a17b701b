"""Extrinsic geometry of parametrized 2-surfaces in initial data sets.

A surface chart carries nodal embedding values and their first and second
parameter derivatives. Radial graphs differentiate the radius field with
the grid stencils and the direction field analytically, so coordinate
spheres are exact to rounding. From the chart and an initial data set the
engine assembles the full extrinsic package: induced metric, second
fundamental form, null expansions and null second fundamental forms, the
connection one-form W, the potential Q of the stability operator, and the
boundary data of capillary/free-boundary configurations.

Each stability operator -Laplace + 2 <drift, grad .> + c has its one
definition of (c, drift) here: ``spectra.assemble`` factors it and the
first-variation formulas of theta_+ and |H|^2 apply it in strong form. A
finite-difference variation oracle checks those formulas against
recomputed geometry of perturbed surfaces.
"""

from dataclasses import dataclass, replace
import numpy as np

from . import grids
from . import initialdata as idata
from .errors import (
    DegenerateMetricError,
    ImmersionError,
    InvalidInputError,
    TopologyError,
    UnsupportedOperationError,
)
from .grids import (
    Metric2Field,
    d_u,
    d_uu,
    d_v,
    d_vv,
    divergence,
    integrate,
)

# ---------------------------------------------------------------------------
# supporting boundary hypersurfaces (analytic level sets)


class LevelSetSupport:
    """Analytic level set {s(x) = 0} bounding the ambient region M.

    Subclasses provide ``level``, ``grad``, ``hess`` (all batched,
    component-major like the ambient jet: points ``x[i, ...]``) and an
    orientation sign such that sign * grad(s) points out of M.
    """

    sign = 1.0

    def level(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def hess(self, x):
        raise NotImplementedError

    def unit_normal(self, jet):
        """Outward unit normal of the boundary of M at the points of an
        ambient jet, normalized with g."""
        s = self.sign * self.grad(jet.x)
        s_up = idata.mat_vec(jet.ginv, s)
        length = np.sqrt(idata.dot(s, s_up))
        return s / length, s_up / length

    def shape_operator(self, jet):
        """Covariant derivative Pi_ij = nabla_i Nbar_j of the unit conormal.

        Contracting with vectors tangent to the boundary gives the second
        fundamental form of the boundary of M.
        """
        s = self.sign * self.grad(jet.x)
        hess = self.sign * self.hess(jet.x)
        s_up = idata.mat_vec(jet.ginv, s)
        L2 = idata.dot(s, s_up)
        L = np.sqrt(L2)
        dginv_s = np.einsum("mij...,j...->mi...", jet.dginv, s)
        dL = (0.5 / L) * (np.einsum("mi...,i...->m...", dginv_s, s)
                          + 2.0 * idata.mat_vec(hess, s_up))
        dn = hess / L - dL[:, None] * s[None, :] / L2
        gam_n = np.einsum("i...,ijk...->jk...", s / L, jet.gam)
        return dn - gam_n

    def mean_curvature(self, jet):
        """Mean curvature of the boundary of M with respect to the outward
        normal: trace of the shape operator over the tangent space."""
        return np.einsum("ij...,ij...->...", jet.ginv,
                         self.shape_operator(jet))


class PlaneSupport(LevelSetSupport):
    """Totally geodesic plane z = z0 bounding M = {z >= z0}."""

    sign = -1.0

    def __init__(self, z0=0.0):
        self.z0 = float(z0)

    def level(self, x):
        return np.asarray(x, dtype=float)[2] - self.z0

    def grad(self, x):
        out = np.zeros(np.shape(x))
        out[2] = 1.0
        return out

    def hess(self, x):
        return np.zeros((3,) + np.shape(x))


class CylinderSupport(LevelSetSupport):
    """Cylinder x^2 + y^2 = R^2 bounding the solid cylinder M."""

    sign = 1.0

    def __init__(self, radius=1.0):
        self.radius = float(radius)

    def level(self, x):
        x = np.asarray(x, dtype=float)
        return x[0] ** 2 + x[1] ** 2 - self.radius**2

    def grad(self, x):
        out = 2.0 * np.asarray(x, dtype=float)
        out[2] = 0.0
        return out

    def hess(self, x):
        out = np.zeros((3,) + np.shape(x))
        out[0, 0] = 2.0
        out[1, 1] = 2.0
        return out


class BallSupport(LevelSetSupport):
    """Round sphere |x| = R bounding the ball M."""

    sign = 1.0

    def __init__(self, radius=1.0):
        self.radius = float(radius)

    def level(self, x):
        x = np.asarray(x, dtype=float)
        return idata.dot(x, x) - self.radius**2

    def grad(self, x):
        return 2.0 * np.asarray(x, dtype=float)

    def hess(self, x):
        return np.multiply.outer(2.0 * np.eye(3), np.ones(np.shape(x)[1:]))


# ---------------------------------------------------------------------------
# surface charts


@dataclass
class SurfaceChart:
    """Nodal embedding of a parametrized surface with derivative arrays.

    ``representation`` is "radial" for radial graphs (center + rho * mhat)
    and "explicit" for charts built from analytic maps or nodal arrays.
    ``normal_ref`` orients the unit normal: ("center", p) picks the sign
    with g(N, F - p) > 0, ("vector", w) picks g(N, w) > 0 in the flat
    chart pairing.
    """

    grid: grids.Grid2
    F: np.ndarray
    Fu: np.ndarray
    Fv: np.ndarray
    Fuu: np.ndarray
    Fuv: np.ndarray
    Fvv: np.ndarray
    representation: str = "explicit"
    normal_ref: tuple = ("vector", np.array([0.0, 0.0, 1.0]))
    support: LevelSetSupport | None = None
    center: np.ndarray | None = None
    rho: np.ndarray | None = None
    name: str = "surface"
    flip_normal: bool = False


def _direction_arrays(grid):
    U, V = grid.meshgrid()
    su, cu = np.sin(U), np.cos(U)
    sv, cv = np.sin(V), np.cos(V)
    mh = np.stack([su * cv, su * sv, cu], axis=-1)
    mh_u = np.stack([cu * cv, cu * sv, -su], axis=-1)
    mh_v = np.stack([-su * sv, su * cv, np.zeros_like(U)], axis=-1)
    mh_uu = -mh
    mh_uv = np.stack([-cu * sv, cu * cv, np.zeros_like(U)], axis=-1)
    mh_vv = np.stack([-su * cv, -su * sv, np.zeros_like(U)], axis=-1)
    return mh, mh_u, mh_v, mh_uu, mh_uv, mh_vv


def radial_graph_chart(grid, rho, center=(0.0, 0.0, 0.0), name="radial-graph",
                       jet=None):
    """Radial graph F = center + rho(u, v) * mhat(u, v) over a sphere grid.

    The direction field is differentiated analytically and the radius field
    with the grid stencils, so constant-radius spheres carry exact
    derivatives. An analytic ``jet`` callable (U, V) -> (rho, rho_u, rho_v,
    rho_uu, rho_uv, rho_vv) replaces the stencil derivatives when the
    closed form is available. A non-finite radius raises
    NonFiniteInputError, a radius <= 0 InvalidInputError.
    """
    if grid.topology != grids.SPHERE:
        raise TopologyError("radial graphs require sphere topology")
    center = np.asarray(center, dtype=float)
    U, V = grid.meshgrid()
    if jet is not None:
        rho, ru, rv, ruu, ruv, rvv = (np.broadcast_to(np.asarray(a, float),
                                                      grid.shape)
                                      for a in jet(U, V))
    else:
        if callable(rho):
            rho = np.asarray(rho(U, V), dtype=float)
        else:
            rho = np.broadcast_to(np.asarray(rho, dtype=float),
                                  grid.shape).copy()
        ru = d_u(grid, rho, 1.0)
        rv = d_v(grid, rho)
        ruu = d_uu(grid, rho, 1.0)
        ruv = d_v(grid, d_u(grid, rho, 1.0))
        rvv = d_vv(grid, rho)
    grids._check_finite("radial_graph_chart", rho)
    if np.min(rho) <= 0.0:
        i, j = np.unravel_index(np.argmin(rho), grid.shape)
        raise InvalidInputError(
            f"radial graph radius {rho[i, j]:.6g} <= 0 at node ({i}, {j})")
    mh, mh_u, mh_v, mh_uu, mh_uv, mh_vv = _direction_arrays(grid)

    def mul(a, B):
        return a[..., None] * B

    F = center + mul(rho, mh)
    Fu = mul(ru, mh) + mul(rho, mh_u)
    Fv = mul(rv, mh) + mul(rho, mh_v)
    Fuu = mul(ruu, mh) + 2.0 * mul(ru, mh_u) + mul(rho, mh_uu)
    Fuv = mul(ruv, mh) + mul(ru, mh_v) + mul(rv, mh_u) + mul(rho, mh_uv)
    Fvv = mul(rvv, mh) + 2.0 * mul(rv, mh_v) + mul(rho, mh_vv)
    return SurfaceChart(grid, F, Fu, Fv, Fuu, Fuv, Fvv,
                        representation="radial",
                        normal_ref=("center", center),
                        center=center, rho=rho, name=name)


def sphere_chart(grid, radius, center=(0.0, 0.0, 0.0)):
    """Coordinate sphere of the given radius as a radial graph."""
    return radial_graph_chart(grid, float(radius), center,
                              name=f"sphere(r={radius})")


def ellipsoid_chart(grid, a=1.0, b=1.0, c=1.5):
    """Origin-centered ellipsoid with semi-axes (a, b, c) in the stretched
    polar parametrization (a sin u cos v, b sin u sin v, c cos u), with
    analytic derivatives."""
    if grid.topology != grids.SPHERE:
        raise TopologyError("the ellipsoid chart requires sphere topology")
    U, V = grid.meshgrid()
    su, cu = np.sin(U), np.cos(U)
    sv, cv = np.sin(V), np.cos(V)
    zero = np.zeros_like(U)

    def vec(x, y, z):
        return np.stack([a * x, b * y, c * z], axis=-1)

    F = vec(su * cv, su * sv, cu)
    Fu = vec(cu * cv, cu * sv, -su)
    Fv = vec(-su * sv, su * cv, zero)
    Fuu = -F
    Fuv = vec(-cu * sv, cu * cv, zero)
    Fvv = vec(-su * cv, -su * sv, zero)
    return SurfaceChart(grid, F, Fu, Fv, Fuu, Fuv, Fvv,
                        representation="explicit",
                        normal_ref=("center", np.zeros(3)),
                        name=f"ellipsoid({a},{b},{c})")


def flat_disk_chart(grid, radius=1.0, z0=0.0, support=None):
    """Flat disk of the given radius in the plane z = z0.

    With a cylinder support of the same radius this is the standard
    free-boundary configuration (contact angle pi/2, q = 0).
    """
    if grid.topology != grids.DISK:
        raise TopologyError("flat disk requires disk topology")
    R = float(radius)
    U, V = grid.meshgrid()
    cv, sv = np.cos(V), np.sin(V)
    zero = np.zeros_like(U)
    zcol = np.full_like(U, z0)
    F = np.stack([R * U * cv, R * U * sv, zcol], axis=-1)
    Fu = np.stack([R * cv, R * sv, zero], axis=-1)
    Fv = np.stack([-R * U * sv, R * U * cv, zero], axis=-1)
    Fuu = np.zeros_like(F)
    Fuv = np.stack([-R * sv, R * cv, zero], axis=-1)
    Fvv = np.stack([-R * U * cv, -R * U * sv, zero], axis=-1)
    if support is None:
        support = CylinderSupport(R)
    return SurfaceChart(grid, F, Fu, Fv, Fuu, Fuv, Fvv,
                        representation="explicit",
                        normal_ref=("vector", np.array([0.0, 0.0, 1.0])),
                        support=support, name=f"disk(r={R})")


def cap_chart(grid, radius=1.0, support=None):
    """Upper hemisphere of a round sphere, meeting the plane z = 0
    orthogonally (an honest free-boundary disk on a plane support)."""
    if grid.topology != grids.DISK:
        raise TopologyError("cap requires disk topology")
    R = float(radius)
    U, V = grid.meshgrid()
    al = 0.5 * np.pi * U
    c = 0.5 * np.pi
    sa, ca = np.sin(al), np.cos(al)
    cv, sv = np.cos(V), np.sin(V)
    zero = np.zeros_like(U)
    F = R * np.stack([sa * cv, sa * sv, ca], axis=-1)
    Fu = R * c * np.stack([ca * cv, ca * sv, -sa], axis=-1)
    Fv = R * np.stack([-sa * sv, sa * cv, zero], axis=-1)
    Fuu = -(c**2) * F
    Fuv = R * c * np.stack([-ca * sv, ca * cv, zero], axis=-1)
    Fvv = R * np.stack([-sa * cv, -sa * sv, zero], axis=-1)
    if support is None:
        support = PlaneSupport(0.0)
    return SurfaceChart(grid, F, Fu, Fv, Fuu, Fuv, Fvv,
                        representation="explicit",
                        normal_ref=("center", np.zeros(3)),
                        support=support, name=f"cap(r={R})")


def nodal_chart(base, F, Fu, Fv, Fuu, Fuv, Fvv):
    """Explicit chart carrying perturbed nodal arrays, inheriting grid,
    orientation, and support from a base chart."""
    return replace(base, F=F, Fu=Fu, Fv=Fv, Fuu=Fuu, Fuv=Fuv, Fvv=Fvv,
                   representation="explicit", rho=None)


# ---------------------------------------------------------------------------
# surface geometry


@dataclass
class BoundaryData:
    """Per-boundary-node geometric data of a capillary configuration."""

    points: np.ndarray
    nu_chart: np.ndarray        # outward conormal, chart components (2,)
    nu: np.ndarray              # outward conormal in M
    normal: np.ndarray          # surface normal N at the boundary
    nbar: np.ndarray            # outward unit normal of the support
    cos_gamma: np.ndarray
    gamma: np.ndarray
    shape_op: np.ndarray        # nabla Nbar, covariant (3, 3)
    Pi_NN: np.ndarray
    A_nunu: np.ndarray
    W_nu: np.ndarray
    H_dM: np.ndarray
    length_element: np.ndarray

    def Pi_nubar(self, gamma):
        """Pi(nubar, nubar) for the capillary conormal at contact angle
        gamma: nubar = -sin(gamma) N + cos(gamma) nu."""
        gamma = np.broadcast_to(np.asarray(gamma, dtype=float),
                                self.gamma.shape)
        nubar = -np.sin(gamma) * self.normal.T + np.cos(gamma) * self.nu.T
        return idata.bilinear(np.moveaxis(self.shape_op, 0, -1), nubar, nubar)


@dataclass
class SurfaceGeometry:
    """All per-node geometric fields of a surface in an initial data set."""

    chart: SurfaceChart
    data_name: str
    metric: Metric2Field
    F: np.ndarray
    e_u: np.ndarray
    e_v: np.ndarray
    N: np.ndarray
    gS: np.ndarray              # induced metric, stacked (..., 2, 2)
    gS_inv: np.ndarray
    A: np.ndarray               # second fundamental form (..., 2, 2)
    H: np.ndarray
    k_S: np.ndarray
    P: np.ndarray
    W_cov: np.ndarray           # connection one-form, covariant (..., 2)
    chi_p: np.ndarray
    chi_m: np.ndarray
    chihat_m: np.ndarray
    theta_p: np.ndarray
    theta_m: np.ndarray
    K: np.ndarray
    R_S: np.ndarray
    mu: np.ndarray
    J_N: np.ndarray
    j_norm: np.ndarray
    Q: np.ndarray
    chi_p2: np.ndarray
    chi_m2: np.ndarray
    chihat_m2: np.ndarray
    absA2: np.ndarray
    absk2: np.ndarray
    trk: np.ndarray
    kNN: np.ndarray
    A_dot_kS: np.ndarray
    RicNN: np.ndarray
    R_M: np.ndarray
    nabla_N_P: np.ndarray
    divW: np.ndarray
    W2: np.ndarray
    area: float
    G_lplm: np.ndarray | None = None
    G_lmlm: np.ndarray | None = None
    G_lplp: np.ndarray | None = None
    boundary: BoundaryData | None = None

    @property
    def grid(self):
        return self.chart.grid

    @property
    def has_extension(self):
        return self.G_lplm is not None

    def boundary_length(self):
        if self.boundary is None:
            raise TopologyError("surface has no boundary")
        return float(np.sum(self.boundary.length_element))


def _sym2_dot(ginv2, S, T):
    """<S, T> = g^{ac} g^{bd} S_ab T_cd for stacked 2x2 symmetric fields, by
    components: a batched 2x2 matmul takes four times as long."""
    X, Y = ([[ginv2[..., a, 0] * M[..., 0, b]
              + ginv2[..., a, 1] * M[..., 1, b] for b in (0, 1)]
             for a in (0, 1)] for M in (S, T))
    return (X[0][0] * Y[0][0] + X[0][1] * Y[1][0] + X[1][0] * Y[0][1]
            + X[1][1] * Y[1][1])


def _sym2(a00, a01, a11):
    """Stack three component fields into symmetric (..., 2, 2) blocks."""
    return np.stack([np.stack([a00, a01], -1), np.stack([a01, a11], -1)], -2)


def compute_geometry(surface, data):
    """Assemble the full SurfaceGeometry of a chart in an initial data set.

    The ambient contractions run component-major (``x[i, u, v]``, as in
    ``initialdata``); the fields of the result keep their node-first shapes.
    """
    grid = surface.grid
    x, e_u, e_v, F_uu, F_uv, F_vv = (
        np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in
        (surface.F, surface.Fu, surface.Fv, surface.Fuu, surface.Fuv,
         surface.Fvv))
    jet = idata.evaluate(data, x)
    dot, mat_vec = idata.dot, idata.mat_vec
    g_u, g_v = mat_vec(jet.g, e_u), mat_vec(jet.g, e_v)
    guu, guv, gvv = dot(e_u, g_u), dot(e_u, g_v), dot(e_v, g_v)
    try:
        metric = Metric2Field(grid, guu, guv, gvv)
    except DegenerateMetricError as err:
        raise ImmersionError(f"chart fails to immerse at node {err.node}") from err

    gS = _sym2(guu, guv, gvv)
    det = metric.det
    gS_inv = _sym2(gvv / det, -guv / det, guu / det)

    # unit normal: flat cross product gives a covector annihilating both
    # tangents; raise with g and normalize.
    n_cov = np.cross(e_u, e_v, axis=0)
    N = mat_vec(jet.ginv, n_cov)
    norm = np.sqrt(dot(n_cov, N))
    kind, ref = surface.normal_ref
    if kind == "center":
        sign_field = dot(n_cov, x - np.reshape(ref, (3, 1, 1)))
    else:
        sign_field = dot(N, ref)
    sign = np.where(sign_field >= 0.0, 1.0, -1.0)
    if surface.flip_normal:
        sign = -sign
    N *= sign / norm
    N_cov = n_cov * (sign / norm)

    # A_ab = -g(N, F_ab + Gamma(e_a, e_b))
    gam_N = np.einsum("i...,ijk...->jk...", N_cov, jet.gam)
    gam_Nu, gam_Nv = mat_vec(gam_N, e_u), mat_vec(gam_N, e_v)
    A = _sym2(-(dot(N_cov, F_uu) + dot(e_u, gam_Nu)),
              -(dot(N_cov, F_uv) + dot(e_u, gam_Nv)),
              -(dot(N_cov, F_vv) + dot(e_v, gam_Nv)))
    H = np.sum(gS_inv * A, axis=(-2, -1))

    k_u, k_v = mat_vec(jet.k, e_u), mat_vec(jet.k, e_v)
    k_S = _sym2(dot(e_u, k_u), dot(e_u, k_v), dot(e_v, k_v))
    P = np.sum(gS_inv * k_S, axis=(-2, -1))
    k_N = mat_vec(jet.k, N)
    W_cov = np.stack([dot(e_u, k_N), dot(e_v, k_N)], -1)

    chi_p = k_S + A
    chi_m = k_S - A
    theta_p = P + H
    theta_m = P - H
    chihat_m = chi_m - 0.5 * theta_m[..., None, None] * gS

    J_N = dot(jet.J, N)

    chi_p2 = _sym2_dot(gS_inv, chi_p, chi_p)
    chi_m2 = _sym2_dot(gS_inv, chi_m, chi_m)
    chihat_m2 = _sym2_dot(gS_inv, chihat_m, chihat_m)
    absA2 = _sym2_dot(gS_inv, A, A)

    RicNN = idata.bilinear(jet.ric, N, N)

    # intrinsic curvature via the traced Gauss equation; the ambient data is
    # analytic, so this is exact wherever the chart derivatives are (the
    # Brioschi evaluation of the induced metric remains available as an
    # independent intrinsic cross-check).
    R_S = jet.R - 2.0 * RicNN + H**2 - absA2
    K = 0.5 * R_S
    Q = 0.5 * R_S - jet.mu - J_N - 0.5 * chi_p2
    kNN = dot(k_N, N)
    A_dot_kS = _sym2_dot(gS_inv, A, k_S)

    # N(tr k) - (nabla_N k)(N, N)
    nab_trk = dot(N, jet.dtrk)
    dk_N = np.einsum("mij...,j...->mi...", jet.dk, N)
    gam_NN = np.einsum("ij...,j...->i...",
                       np.einsum("ijk...,k...->ij...", jet.gam, N), N)
    nab_kNN = idata.bilinear(dk_N, N, N) - 2.0 * dot(gam_NN, k_N)
    nabla_N_P = nab_trk - nab_kNN

    wu, wv = metric.raise_covector(W_cov[..., 0], W_cov[..., 1])
    divW = divergence(metric, (wu, wv))
    W2 = metric.norm2_covector(W_cov[..., 0], W_cov[..., 1])

    area = integrate(metric, np.ones(grid.shape))

    G_lplm = G_lmlm = G_lplp = None
    if data.extension is not None:
        lp = (1.0, N)
        lm = (1.0, -N)
        G_lplm = data.extension.contract(jet, lp, lm)
        G_lmlm = data.extension.contract(jet, lm, lm)
        G_lplp = data.extension.contract(jet, lp, lp)

    boundary = None
    if grid.topology == grids.DISK:
        boundary = _boundary_data(surface, data, metric, gS_inv, e_u, e_v,
                                  N, W_cov, A)

    return SurfaceGeometry(
        chart=surface, data_name=data.name, metric=metric, F=surface.F,
        e_u=surface.Fu, e_v=surface.Fv, N=np.moveaxis(N, 0, -1), gS=gS,
        gS_inv=gS_inv, A=A, H=H, k_S=k_S, P=P,
        W_cov=W_cov, chi_p=chi_p, chi_m=chi_m, chihat_m=chihat_m,
        theta_p=theta_p, theta_m=theta_m, K=K, R_S=R_S, mu=jet.mu, J_N=J_N,
        j_norm=jet.j_norm, Q=Q, chi_p2=chi_p2, chi_m2=chi_m2,
        chihat_m2=chihat_m2, absA2=absA2, absk2=jet.absk2, trk=jet.trk,
        kNN=kNN, A_dot_kS=A_dot_kS,
        RicNN=RicNN, R_M=jet.R, nabla_N_P=nabla_N_P, divW=divW, W2=W2,
        area=area, G_lplm=G_lplm, G_lmlm=G_lmlm, G_lplp=G_lplp,
        boundary=boundary)


def _boundary_data(surface, data, metric, gS_inv, e_u, e_v, N, W_cov, A):
    """Boundary data from the component-major tangents and normal."""
    if surface.support is None:
        raise UnsupportedOperationError(
            "disk chart requires a supporting boundary hypersurface")
    xb = surface.F[-1]
    level = surface.support.level(xb.T)
    scale = max(1.0, float(np.max(np.abs(xb))))
    if np.max(np.abs(level)) > 1e-8 * scale:
        raise ImmersionError(
            f"boundary nodes off the support level set by "
            f"{np.max(np.abs(level)):.2e}")

    iuu = gS_inv[-1, :, 0, 0]
    iuv = gS_inv[-1, :, 0, 1]
    nu_chart = np.stack([np.sqrt(iuu), iuv / np.sqrt(iuu)], -1)
    nu = nu_chart[:, 0] * e_u[:, -1] + nu_chart[:, 1] * e_v[:, -1]
    Nb = N[:, -1]

    jet = idata.evaluate(data, np.ascontiguousarray(xb.T))
    _, nbar = surface.support.unit_normal(jet)
    cosg = idata.bilinear(jet.g, Nb, nbar)
    gamma = np.arccos(np.clip(cosg, -1.0, 1.0))
    shape_op = surface.support.shape_operator(jet)
    Pi_NN = idata.bilinear(shape_op, Nb, Nb)
    A_nunu = idata.bilinear(np.moveaxis(A[-1], 0, -1), nu_chart.T, nu_chart.T)
    W_nu = (W_cov[-1, :, 0] * nu_chart[..., 0]
            + W_cov[-1, :, 1] * nu_chart[..., 1])
    H_dM = np.einsum("ij...,ij...->...", jet.ginv, shape_op)
    return BoundaryData(points=xb, nu_chart=nu_chart, nu=nu.T, normal=Nb.T,
                        nbar=nbar.T, cos_gamma=cosg, gamma=gamma,
                        shape_op=np.moveaxis(shape_op, -1, 0), Pi_NN=Pi_NN,
                        A_nunu=A_nunu, W_nu=W_nu, H_dM=H_dM,
                        length_element=metric.boundary_line_element())


# ---------------------------------------------------------------------------
# derived scalars


def hawking_energy(geom):
    """Hawking energy sqrt(|S|/16 pi) (1 + (1/16 pi) int theta+ theta-)."""
    if geom.grid.topology != grids.SPHERE:
        raise TopologyError("Hawking energy requires a closed (sphere) surface")
    integral = integrate(geom.metric, geom.theta_p * geom.theta_m)
    return float(np.sqrt(geom.area / (16.0 * np.pi))
                 * (1.0 + integral / (16.0 * np.pi)))


# ---------------------------------------------------------------------------
# stability operators -Laplace + 2 <drift, grad .> + c: their (c, drift)


def mots_coefficients(geom):
    """c = Q + div W - |W|^2 and drift W of the MOTS stability operator L."""
    return geom.divW - geom.W2 + geom.Q, geom.W_cov


def symmetrized_coefficients(geom):
    """c = Q and no drift: the symmetrized MOTS operator L_s."""
    return geom.Q, None


def hstab_normal_coefficients(geom):
    """c and drift -(P/H) W of the normal H-stability operator (H > 0)."""
    if np.min(geom.H) <= 0.0:
        raise UnsupportedOperationError(
            "the normal-direction H-stability operator requires H > 0")
    ratio = geom.P / geom.H
    c = (0.5 * (geom.R_S - 2.0 * geom.mu - geom.trk**2 + geom.absk2
                - geom.absA2 - geom.H**2)
         - ratio * (-geom.J_N + geom.divW + geom.H * geom.kNN
                    - geom.A_dot_kS))
    return c, -ratio[..., None] * geom.W_cov


def qbar_potential(geom, variant="proof"):
    """The potential of the -l_- variation of |H|^2 (requires theta_- != 0).

    The "lemma" and "proof" variants carry the coefficient pairs
    (1/2 theta- theta+, |chi_-|^2) and (3/4 theta- theta+, |chihat_-|^2).
    In two dimensions |chi_-|^2 = |chihat_-|^2 + theta_-^2 / 2, which makes
    the two expressions agree identically; both are kept so the oracle can
    report the comparison explicitly.
    """
    if not geom.has_extension:
        raise UnsupportedOperationError(
            "Qbar requires a spacetime extension on the initial data set")
    if np.min(np.abs(geom.theta_m)) < 1e-12:
        raise UnsupportedOperationError("theta_- vanishes somewhere")
    base = 0.5 * geom.R_S - 0.5 * geom.G_lplm
    ratio = geom.theta_p / (2.0 * geom.theta_m)
    if variant == "proof":
        return (base + ratio * (geom.chihat_m2 + geom.G_lmlm)
                + 0.75 * geom.theta_m * geom.theta_p)
    if variant == "lemma":
        return (base + ratio * (geom.chi_m2 + geom.G_lmlm)
                + 0.5 * geom.theta_m * geom.theta_p)
    raise ValueError(f"unknown qbar variant {variant!r}")


def hstab_minus_lminus_coefficients(geom, variant="proof"):
    """c = div W - |W|^2 + Qbar and drift W: the -l_- H-stability operator."""
    return geom.divW - geom.W2 + qbar_potential(geom, variant), geom.W_cov


def _strong_form(geom, coefficients, phi):
    """-Laplace phi + 2 <drift, grad phi> + c phi for (c, drift). Fourth-order
    stencils keep truncation below the oracle's finite-difference error."""
    c, drift = coefficients
    gu, gv = grids.gradient(geom.metric, phi, order=4)
    return (-divergence(geom.metric, (gu, gv), order=4)
            + 2.0 * (drift[..., 0] * gu + drift[..., 1] * gv) + c * phi)


def delta_theta_plus(geom, phi):
    """First variation of theta_+ under phi N: L phi (``mots_coefficients``)
    plus the off-MOTS term (theta_+ tr k - theta_+^2 / 2) phi."""
    return (_strong_form(geom, mots_coefficients(geom), phi)
            + (geom.theta_p * geom.trk - 0.5 * geom.theta_p**2) * phi)


def delta_H2_normal(geom, phi):
    """First variation of |H|^2 = H^2 - P^2 under phi N: 2H HStabNormal phi."""
    return 2.0 * geom.H * _strong_form(geom, hstab_normal_coefficients(geom),
                                       phi)


def delta_H2_minus_lminus(geom, phi, variant="proof"):
    """First variation of |H|^2 under X = -phi l_-: -2 theta_- times the
    HStabMinusLminus operator applied to phi."""
    return -2.0 * geom.theta_m * _strong_form(
        geom, hstab_minus_lminus_coefficients(geom, variant), phi)


# ---------------------------------------------------------------------------
# finite-difference variation oracle


def _vector_field_jet(grid, X):
    """First and second grid derivatives of a Cartesian vector field,
    with fourth-order stencils (displacement jets feed the oracle)."""
    from .grids import d_u4, d_uu4, d_v4, d_vv4

    comps = [X[..., c] for c in range(3)]
    du1 = np.stack([d_u4(grid, c, 1.0) for c in comps], -1)
    dv1 = np.stack([d_v4(grid, c) for c in comps], -1)
    duu1 = np.stack([d_uu4(grid, c, 1.0) for c in comps], -1)
    duv1 = np.stack([d_v4(grid, d_u4(grid, c, 1.0)) for c in comps], -1)
    dvv1 = np.stack([d_vv4(grid, c) for c in comps], -1)
    return du1, dv1, duu1, duv1, dvv1


def displaced_chart(geom, phi, eps):
    """Chart of the surface displaced by eps * phi * N, with derivative
    arrays built from grid stencils of the displacement field."""
    chart = geom.chart
    X = phi[..., None] * geom.N
    du1, dv1, duu1, duv1, dvv1 = _vector_field_jet(chart.grid, X)
    return nodal_chart(chart,
                       F=chart.F + eps * X,
                       Fu=chart.Fu + eps * du1,
                       Fv=chart.Fv + eps * dv1,
                       Fuu=chart.Fuu + eps * duu1,
                       Fuv=chart.Fuv + eps * duv1,
                       Fvv=chart.Fvv + eps * dvv1)


NORMAL_N = "normal"
MINUS_L_MINUS = "minus-l-minus"


@dataclass
class OracleEntry:
    quantity: str
    eps: float
    deviation: float


@dataclass
class OracleResult:
    direction: str
    entries: list
    orders: dict
    formula_fields: dict

    def max_deviation(self, quantity, eps=None):
        devs = [e.deviation for e in self.entries
                if e.quantity == quantity and (eps is None or e.eps == eps)]
        return max(devs)


def variation_oracle(surface, data, phi, direction, eps_list,
                     qbar="proof"):
    """Compare first-variation formulas against central finite differences
    of recomputed geometry.

    For the normal direction the surface is displaced by +-eps phi N within
    the same data set (checks the theta_+ variation and, where H > 0, the
    |H|^2 variation). For the -l_- direction the displacement splits into
    phi N within the slice and a slide of the slice itself, which is only
    representable for constant phi on data sets carrying a unit-lapse
    slice family.
    """
    if surface.representation != "radial":
        raise UnsupportedOperationError(
            "the variation oracle requires a radial-graph surface")
    phi = np.broadcast_to(np.asarray(phi, dtype=float), surface.grid.shape)
    geom0 = compute_geometry(surface, data)

    if direction == NORMAL_N:
        checks = [("theta_plus", delta_theta_plus(geom0, phi),
                   lambda g: g.theta_p)]
        if np.min(geom0.H) > 0.0:
            checks.append(("H2_normal", delta_H2_normal(geom0, phi),
                           lambda g: g.H**2 - g.P**2))

        def slice_at(t):
            return data

    elif direction == MINUS_L_MINUS:
        if np.max(np.abs(phi - phi.flat[0])) > 1e-12:
            raise UnsupportedOperationError(
                "the -l_- oracle supports constant phi only")
        if data.slice_family is None:
            raise UnsupportedOperationError(
                f"{data.name} has no unit-lapse slice family")
        variants = ("proof", "lemma") if qbar == "both" else (qbar,)
        checks = [(f"H2_lminus_{v}",
                   delta_H2_minus_lminus(geom0, phi, variant=v),
                   lambda g: g.H**2 - g.P**2) for v in variants]
        c = float(phi.flat[0])

        def slice_at(t):    # the slice the surface displaced by t lies in
            return data.slice_family(-t * c)

    else:
        raise ValueError(f"unknown direction {direction!r}")

    entries = []
    for eps in eps_list:
        gp, gm = (compute_geometry(displaced_chart(geom0, phi, t), slice_at(t))
                  for t in (float(eps), -float(eps)))
        for name, formula, extract in checks:
            fd = (extract(gp) - extract(gm)) / (2.0 * float(eps))
            dev = float(np.max(np.abs(fd - formula)))
            entries.append(OracleEntry(name, float(eps), dev))

    orders = {}
    eps_sorted = sorted({e.eps for e in entries}, reverse=True)
    for name, _, _ in checks:
        seq = [next(e.deviation for e in entries
                    if e.quantity == name and e.eps == ep)
               for ep in eps_sorted]
        orders[name] = [float(np.log2(seq[i] / seq[i + 1]))
                        if seq[i + 1] > 0 else np.inf
                        for i in range(len(seq) - 1)]
    return OracleResult(direction, entries, orders,
                        {name: formula for name, formula, _ in checks})
