"""Extrinsic geometry of parametrized 2-surfaces in initial data sets.

A surface chart carries nodal embedding values and their first and second
parameter derivatives. Radial graphs differentiate the radius field with
the grid stencils and the direction field analytically, so coordinate
spheres are exact to rounding. From the chart and an initial data set the
engine assembles the full extrinsic package: induced metric, second
fundamental form, null expansions and null second fundamental forms, the
connection one-form W, the potential Q of the stability operator, and the
boundary data of capillary/free-boundary configurations.

Every surface field has one layout, component-major with the nodes last,
as in ``initialdata``: chart arrays and vectors are ``F[i, u, v]``,
covectors ``W_cov[a, u, v]``, 2-tensors ``A[a, b, u, v]``, and boundary
data ``nu[i, v]``. The induced metric and its inverse are held once, in
the ``Metric2Field``.

Each stability operator -Laplace + 2 <drift, grad .> + c, with the Robin
condition d/dnu phi = q phi on a boundary, is its coefficients: one
function here returns its (c, drift, q), q None on a closed surface, and
``spectra.assemble`` takes those arrays. The free boundary and capillary q
are defined here too.
"""

from dataclasses import dataclass, fields
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

# max |theta_+| of a MOTS, and the most negative lambda_1 counted as stable
THETA_TOL = 1e-6
STAB_TOL = 1e-8

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
    """Nodal embedding of a parametrized surface with derivative arrays,
    each of shape (3, n_u, n_v).

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
    normal_ref: tuple = ("vector", np.array([0.0, 0.0, 1.0]))
    support: LevelSetSupport | None = None
    flip_normal: bool = False


def _direction_arrays(grid):
    U, V = grid.meshgrid()
    su, cu = np.sin(U), np.cos(U)
    sv, cv = np.sin(V), np.cos(V)
    mh = np.stack([su * cv, su * sv, cu])
    mh_u = np.stack([cu * cv, cu * sv, -su])
    mh_v = np.stack([-su * sv, su * cv, np.zeros_like(U)])
    mh_uu = -mh
    mh_uv = np.stack([-cu * sv, cu * cv, np.zeros_like(U)])
    mh_vv = np.stack([-su * cv, -su * sv, np.zeros_like(U)])
    return mh, mh_u, mh_v, mh_uu, mh_uv, mh_vv


def radial_graph_chart(grid, rho, center=(0.0, 0.0, 0.0)):
    """Radial graph F = center + rho(u, v) * mhat(u, v) over a sphere grid.

    ``rho`` is a nodal array, a constant, or a callable (U, V) -> rho. The
    direction field is differentiated analytically and the radius field
    with the grid stencils, so constant-radius spheres carry exact
    derivatives. A non-finite radius raises NonFiniteInputError, a radius
    <= 0 InvalidInputError.
    """
    if grid.topology != grids.SPHERE:
        raise TopologyError("radial graphs require sphere topology")
    center = np.asarray(center, dtype=float)
    if callable(rho):
        rho = np.asarray(rho(*grid.meshgrid()), dtype=float)
    else:
        rho = np.broadcast_to(np.asarray(rho, dtype=float), grid.shape).copy()
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
    F = np.reshape(center, (3, 1, 1)) + rho * mh
    Fu = ru * mh + rho * mh_u
    Fv = rv * mh + rho * mh_v
    Fuu = ruu * mh + 2.0 * (ru * mh_u) + rho * mh_uu
    Fuv = ruv * mh + ru * mh_v + rv * mh_u + rho * mh_uv
    Fvv = rvv * mh + 2.0 * (rv * mh_v) + rho * mh_vv
    return SurfaceChart(grid, F, Fu, Fv, Fuu, Fuv, Fvv,
                        normal_ref=("center", center))


def sphere_chart(grid, radius, center=(0.0, 0.0, 0.0)):
    """Coordinate sphere of the given radius as a radial graph."""
    return radial_graph_chart(grid, float(radius), center)


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
        return np.stack([a * x, b * y, c * z])

    F = vec(su * cv, su * sv, cu)
    Fu = vec(cu * cv, cu * sv, -su)
    Fv = vec(-su * sv, su * cv, zero)
    Fuu = -F
    Fuv = vec(-cu * sv, cu * cv, zero)
    Fvv = vec(-su * cv, -su * sv, zero)
    return SurfaceChart(grid, F, Fu, Fv, Fuu, Fuv, Fvv,
                        normal_ref=("center", np.zeros(3)))


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
    F = np.stack([R * U * cv, R * U * sv, zcol])
    Fu = np.stack([R * cv, R * sv, zero])
    Fv = np.stack([-R * U * sv, R * U * cv, zero])
    Fuu = np.zeros_like(F)
    Fuv = np.stack([-R * sv, R * cv, zero])
    Fvv = np.stack([-R * U * cv, -R * U * sv, zero])
    if support is None:
        support = CylinderSupport(R)
    return SurfaceChart(grid, F, Fu, Fv, Fuu, Fuv, Fvv,
                        normal_ref=("vector", np.array([0.0, 0.0, 1.0])),
                        support=support)


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
    F = R * np.stack([sa * cv, sa * sv, ca])
    Fu = R * c * np.stack([ca * cv, ca * sv, -sa])
    Fv = R * np.stack([-sa * sv, sa * cv, zero])
    Fuu = -(c**2) * F
    Fuv = R * c * np.stack([-ca * sv, ca * cv, zero])
    Fvv = R * np.stack([-sa * cv, -sa * sv, zero])
    if support is None:
        support = PlaneSupport(0.0)
    return SurfaceChart(grid, F, Fu, Fv, Fuu, Fuv, Fvv,
                        normal_ref=("center", np.zeros(3)),
                        support=support)


# ---------------------------------------------------------------------------
# surface geometry


@dataclass
class BoundaryData:
    """Per-boundary-node geometric data of a capillary configuration,
    component-major over the n_v boundary nodes: vectors (3, n_v)."""

    points: np.ndarray
    nu_chart: np.ndarray        # outward conormal, chart components (2, n_v)
    nu: np.ndarray              # outward conormal in M
    normal: np.ndarray          # surface normal N at the boundary
    cos_gamma: np.ndarray
    gamma: np.ndarray
    shape_op: np.ndarray        # nabla Nbar, covariant (3, 3, n_v)
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
        nubar = -np.sin(gamma) * self.normal + np.cos(gamma) * self.nu
        return idata.bilinear(self.shape_op, nubar, nubar)


@dataclass
class SurfaceGeometry:
    """All per-node geometric fields of a surface in an initial data set,
    component-major: vectors (3, n_u, n_v), covectors (2, n_u, n_v),
    2-tensors (2, 2, n_u, n_v), scalars (n_u, n_v). The induced metric
    and its inverse are ``metric``'s components."""

    chart: SurfaceChart
    metric: Metric2Field
    F: np.ndarray
    N: np.ndarray
    A: np.ndarray               # second fundamental form
    H: np.ndarray
    k_S: np.ndarray
    P: np.ndarray
    W_cov: np.ndarray           # connection one-form, covariant
    chi_p: np.ndarray
    chihat_m: np.ndarray
    theta_p: np.ndarray
    theta_m: np.ndarray
    K: np.ndarray
    mu: np.ndarray
    J_N: np.ndarray
    j_norm: np.ndarray
    Q: np.ndarray
    chi_p2: np.ndarray
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
    G_lplm: np.ndarray
    G_lmlm: np.ndarray
    boundary: BoundaryData | None = None

    @property
    def grid(self):
        return self.chart.grid

    def boundary_length(self):
        if self.boundary is None:
            raise TopologyError("surface has no boundary")
        return float(np.sum(self.boundary.length_element))


def _trace(metric, S):
    """g^{ab} S_ab of a symmetric 2-tensor S[a, b, ...]: the terms added
    onto +0.0 in the order uu, uv, vu, vv, the start and order of
    ``np.sum`` over a (2, 2) block, so a trace of -0.0 terms is +0.0."""
    return ((((0.0 + metric.iuu * S[0, 0]) + metric.iuv * S[0, 1])
             + metric.iuv * S[1, 0]) + metric.ivv * S[1, 1])


def _sym2_dot(metric, S, T):
    """<S, T> = g^{ac} g^{bd} S_ab T_cd for symmetric 2-tensors S[a, b, ...],
    by components: a batched 2x2 matmul takes four times as long."""
    ginv = ((metric.iuu, metric.iuv), (metric.iuv, metric.ivv))
    X, Y = ([[ginv[a][0] * M[0, b] + ginv[a][1] * M[1, b] for b in (0, 1)]
             for a in (0, 1)] for M in (S, T))
    return (X[0][0] * Y[0][0] + X[0][1] * Y[1][0] + X[1][0] * Y[0][1]
            + X[1][1] * Y[1][1])


def _sym2(a00, a01, a11):
    """Stack three component fields into a symmetric 2-tensor S[a, b, ...]."""
    return np.stack([np.stack([a00, a01]), np.stack([a01, a11])])


def compute_geometry(surface, data):
    """Assemble the full SurfaceGeometry of a chart in an initial data set.

    One ambient jet at the chart's nodes feeds every field, the boundary
    data included. The chart, the jet and the result are all
    component-major (``x[i, u, v]``, as in ``initialdata``), so every
    contraction runs over the contiguous node axis and no field is
    transposed on the way in or out.
    """
    grid = surface.grid
    x, e_u, e_v = surface.F, surface.Fu, surface.Fv
    jet = idata.evaluate(data, x)
    dot, mat_vec = idata.dot, idata.mat_vec
    g_u, g_v = mat_vec(jet.g, e_u), mat_vec(jet.g, e_v)
    guu, guv, gvv = dot(e_u, g_u), dot(e_u, g_v), dot(e_v, g_v)
    try:
        metric = Metric2Field(grid, guu, guv, gvv)
    except DegenerateMetricError as err:
        raise ImmersionError(f"chart fails to immerse at node {err.node}") from err

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
    A = _sym2(-(dot(N_cov, surface.Fuu) + dot(e_u, gam_Nu)),
              -(dot(N_cov, surface.Fuv) + dot(e_u, gam_Nv)),
              -(dot(N_cov, surface.Fvv) + dot(e_v, gam_Nv)))
    H = _trace(metric, A)

    k_u, k_v = mat_vec(jet.k, e_u), mat_vec(jet.k, e_v)
    k_S = _sym2(dot(e_u, k_u), dot(e_u, k_v), dot(e_v, k_v))
    P = _trace(metric, k_S)
    k_N = mat_vec(jet.k, N)
    W_cov = np.stack([dot(e_u, k_N), dot(e_v, k_N)])

    chi_p = k_S + A
    theta_p = P + H
    theta_m = P - H
    chihat_m = k_S - A - 0.5 * theta_m * _sym2(guu, guv, gvv)

    J_N = dot(jet.J, N)

    chi_p2 = _sym2_dot(metric, chi_p, chi_p)
    chihat_m2 = _sym2_dot(metric, chihat_m, chihat_m)
    absA2 = _sym2_dot(metric, A, A)

    RicNN = idata.bilinear(jet.ric, N, N)

    # intrinsic curvature via the traced Gauss equation; the ambient data is
    # analytic, so this is exact wherever the chart derivatives are
    K = 0.5 * (jet.R - 2.0 * RicNN + H**2 - absA2)
    Q = K - jet.mu - J_N - 0.5 * chi_p2
    kNN = dot(k_N, N)
    A_dot_kS = _sym2_dot(metric, A, k_S)

    # N(tr k) - (nabla_N k)(N, N)
    nab_trk = dot(N, jet.dtrk)
    dk_N = np.einsum("mij...,j...->mi...", jet.dk, N)
    gam_NN = np.einsum("ij...,j...->i...",
                       np.einsum("ijk...,k...->ij...", jet.gam, N), N)
    nab_kNN = idata.bilinear(dk_N, N, N) - 2.0 * dot(gam_NN, k_N)
    nabla_N_P = nab_trk - nab_kNN

    divW = divergence(metric, metric.raise_covector(*W_cov))
    W2 = metric.norm2_covector(*W_cov)

    area = integrate(metric, np.ones(grid.shape))

    # G = -Lambda h of the Lambda-vacuum development at l+- = (1, +-N),
    # where G(l+, l+) = G(l-, l-). G(l-, l-) is added onto +0.0 so that at
    # Lambda = 0 a node with g(N, N) > 1 gives +0.0, not -0.0.
    lam = data.cosmological_constant
    gNN = idata.bilinear(jet.g, N, N)
    G_lplm = lam * (1.0 + gNN)
    G_lmlm = 0.0 + lam * (1.0 - gNN)

    boundary = None
    if grid.topology == grids.DISK:
        boundary = _boundary_data(surface, jet, metric, N, W_cov, A)

    return SurfaceGeometry(
        chart=surface, metric=metric, F=surface.F, N=N, A=A, H=H, k_S=k_S,
        P=P, W_cov=W_cov, chi_p=chi_p, chihat_m=chihat_m,
        theta_p=theta_p, theta_m=theta_m, K=K, mu=jet.mu, J_N=J_N,
        j_norm=jet.j_norm, Q=Q, chi_p2=chi_p2, chihat_m2=chihat_m2,
        absA2=absA2, absk2=jet.absk2, trk=jet.trk,
        kNN=kNN, A_dot_kS=A_dot_kS,
        RicNN=RicNN, R_M=jet.R, nabla_N_P=nabla_N_P, divW=divW, W2=W2,
        area=area, G_lplm=G_lplm, G_lmlm=G_lmlm,
        boundary=boundary)


def _boundary_data(surface, jet, metric, N, W_cov, A):
    """Boundary data on the last ring, from the surface's ambient jet: the
    ring's jet is every jet field at that ring, ``[..., -1, :]``."""
    if surface.support is None:
        raise UnsupportedOperationError(
            "disk chart requires a supporting boundary hypersurface")
    xb = surface.F[:, -1].copy()
    level = surface.support.level(xb)
    scale = max(1.0, float(np.max(np.abs(xb))))
    # phrased so that a NaN level fails too
    if not np.max(np.abs(level)) <= 1e-8 * scale:
        raise ImmersionError(
            f"boundary nodes off the support level set by "
            f"{np.max(np.abs(level)):.2e}")

    iuu, iuv = metric.iuu[-1], metric.iuv[-1]
    nu_chart = np.stack([np.sqrt(iuu), iuv / np.sqrt(iuu)])
    nu = nu_chart[0] * surface.Fu[:, -1] + nu_chart[1] * surface.Fv[:, -1]
    Nb = N[:, -1].copy()

    ring = idata.AmbientJet(**{f.name: getattr(jet, f.name)[..., -1, :]
                               for f in fields(jet)})
    _, nbar = surface.support.unit_normal(ring)
    cosg = idata.bilinear(ring.g, Nb, nbar)
    gamma = np.arccos(np.clip(cosg, -1.0, 1.0))
    shape_op = surface.support.shape_operator(ring)
    Pi_NN = idata.bilinear(shape_op, Nb, Nb)
    A_nunu = idata.bilinear(A[:, :, -1], nu_chart, nu_chart)
    W_nu = W_cov[0, -1] * nu_chart[0] + W_cov[1, -1] * nu_chart[1]
    H_dM = np.einsum("ij...,ij...->...", ring.ginv, shape_op)
    return BoundaryData(points=xb, nu_chart=nu_chart, nu=nu, normal=Nb,
                        cos_gamma=cosg, gamma=gamma,
                        shape_op=shape_op, Pi_NN=Pi_NN,
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
# stability operators -Laplace + 2 <drift, grad .> + c, with the Robin
# condition d/dnu phi = q phi on a boundary: their (c, drift, q), q None on
# a closed surface


def free_boundary_q(geom):
    """q = Pi(N, N) of the free boundary; None on a closed surface."""
    return None if geom.boundary is None else geom.boundary.Pi_NN


def capillary_q(geom, gamma):
    """q = (Pi(nubar, nubar) - cos(gamma) A(nu, nu)) / sin(gamma) of the
    capillary boundary at contact angle gamma, which must lie in (0, pi)
    away from the endpoints by 1e-3."""
    gamma = float(gamma)
    if not 1e-3 < gamma < np.pi - 1e-3:
        raise ValueError("gamma must lie in (0, pi) away from the "
                         "endpoints by 1e-3")
    b = geom.boundary
    return (-np.cos(gamma) / np.sin(gamma) * b.A_nunu
            + b.Pi_nubar(gamma) / np.sin(gamma))


def mots_coefficients(geom):
    """c = Q + div W - |W|^2, drift W and the free boundary q of the MOTS
    stability operator L."""
    return geom.divW - geom.W2 + geom.Q, geom.W_cov, free_boundary_q(geom)


def symmetrized_coefficients(geom):
    """c = Q, no drift and q = Pi(N, N) - <W, nu>: the symmetrized MOTS
    operator L_s."""
    q = free_boundary_q(geom)
    return geom.Q, None, None if q is None else q - geom.boundary.W_nu


def hstab_normal_coefficients(geom):
    """c, drift -(P/H) W and the free boundary q of the normal H-stability
    operator (H > 0)."""
    if np.min(geom.H) <= 0.0:
        raise UnsupportedOperationError(
            "the normal-direction H-stability operator requires H > 0")
    ratio = geom.P / geom.H
    c = (0.5 * (2.0 * geom.K - 2.0 * geom.mu - geom.trk**2 + geom.absk2
                - geom.absA2 - geom.H**2)
         - ratio * (-geom.J_N + geom.divW + geom.H * geom.kNN
                    - geom.A_dot_kS))
    return c, -ratio * geom.W_cov, free_boundary_q(geom)


def qbar_potential(geom):
    """The potential Qbar of the -l_- variation of |H|^2 (requires
    theta_- != 0): K - 1/2 G(l+, l-) + 3/4 theta- theta+
    + (theta+ / 2 theta-) (|chihat_-|^2 + G(l-, l-)).

    The lemma states it with (1/2 theta- theta+, |chi_-|^2) in place of
    (3/4 theta- theta+, |chihat_-|^2); in two dimensions
    |chi_-|^2 = |chihat_-|^2 + theta_-^2 / 2, so the two forms agree.
    """
    if np.min(np.abs(geom.theta_m)) < 1e-12:
        raise UnsupportedOperationError("theta_- vanishes somewhere")
    base = geom.K - 0.5 * geom.G_lplm
    ratio = geom.theta_p / (2.0 * geom.theta_m)
    return (base + ratio * (geom.chihat_m2 + geom.G_lmlm)
            + 0.75 * geom.theta_m * geom.theta_p)


def hstab_minus_lminus_coefficients(geom):
    """c = div W - |W|^2 + Qbar, drift W and the free boundary q: the -l_-
    H-stability operator."""
    return (geom.divW - geom.W2 + qbar_potential(geom), geom.W_cov,
            free_boundary_q(geom))
