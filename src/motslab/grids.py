"""Structured grids on sphere and disk parameter domains and metric-aware calculus.

Fields live on a cell-centered (u, v) grid, stored as arrays of shape
``(n_u, n_v)``. The v direction is periodic. Sphere grids cover the polar
coordinate u in (0, pi) with no node at either pole; disk grids cover the
radius u in (0, 1] with the outermost ring exactly on the boundary circle.

Derivatives in u close the stencils across the pole (or disk center) using
the antipodal continuation f(-u, v) = parity * f(u, v + pi), which is exact
for smooth fields pulled back from the surface. Tensor components pick up a
sign per u index (parity -1), scalars continue evenly (parity +1). At the
disk boundary ring one-sided second-order stencils are used.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import (
    DegenerateMetricError,
    NonFiniteInputError,
    TopologyError,
)

SPHERE = "sphere"
DISK = "disk"


@dataclass(frozen=True)
class Grid2:
    """Cell-centered structured grid on a sphere or disk parameter domain.

    Attributes
    ----------
    topology : str
        Either ``"sphere"`` or ``"disk"``.
    n_u, n_v : int
        Grid resolution. ``n_v`` must be even so the antipodal pole closure
        maps grid meridians onto grid meridians.
    u, v : ndarray
        Node coordinates along each axis.
    du, dv : float
        Grid spacings.
    boundary_index : ndarray
        Flat node ids of the boundary ring (empty for the sphere).
    """

    topology: str
    n_u: int
    n_v: int
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    du: float
    dv: float
    boundary_index: np.ndarray = field(repr=False)

    @property
    def n_nodes(self):
        return self.n_u * self.n_v

    @property
    def shape(self):
        return (self.n_u, self.n_v)

    def meshgrid(self):
        """Return (U, V) coordinate arrays of shape (n_u, n_v)."""
        return np.meshgrid(self.u, self.v, indexing="ij")

    def node_id(self, i, j):
        return i * self.n_v + j


def make_grid(topology, n_u, n_v):
    """Build a Grid2.

    Sphere: u_i = (i + 1/2) * pi/n_u, cell-centered away from the poles.
    Disk:   u_i = (i + 1/2) / (n_u - 1/2), so the last ring sits exactly
    at u = 1 and the first ring is half a cell away from the center.
    """
    if topology not in (SPHERE, DISK):
        raise TopologyError(f"unknown topology {topology!r}")
    if n_u < 8:
        raise ValueError(f"n_u = {n_u} below minimum of 8")
    if n_v < 16:
        raise ValueError(f"n_v = {n_v} below minimum of 16")
    if n_v % 2 != 0:
        raise ValueError("n_v must be even for the antipodal pole closure")
    dv = 2.0 * np.pi / n_v
    v = dv * np.arange(n_v)
    if topology == SPHERE:
        du = np.pi / n_u
        u = du * (np.arange(n_u) + 0.5)
        boundary = np.array([], dtype=int)
    else:
        du = 1.0 / (n_u - 0.5)
        u = du * (np.arange(n_u) + 0.5)
        u[-1] = 1.0
        boundary = (n_u - 1) * n_v + np.arange(n_v)
    return Grid2(topology, n_u, n_v, u, v, du, dv, boundary)


# ---------------------------------------------------------------------------
# finite differences


def _antipode(row_or_field):
    """Shift by half a period in v (the meridian through the pole)."""
    n_v = row_or_field.shape[-1]
    return np.roll(row_or_field, n_v // 2, axis=-1)


def d_v(grid, f):
    """Periodic centered first derivative in v."""
    return (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2.0 * grid.dv)


def d_vv(grid, f):
    """Periodic centered second derivative in v."""
    return (np.roll(f, -1, axis=1) - 2.0 * f + np.roll(f, 1, axis=1)) / grid.dv**2


def d_u(grid, f, parity=1.0):
    """Centered first derivative in u with pole/center closure.

    ``parity`` is +1 for scalar-like fields and -1 for fields carrying one
    u index (e.g. covector u-components, radial fluxes).
    """
    out = np.empty_like(f)
    h2 = 2.0 * grid.du
    out[1:-1] = (f[2:] - f[:-2]) / h2
    out[0] = (f[1] - parity * _antipode(f[0])) / h2
    if grid.topology == SPHERE:
        out[-1] = (parity * _antipode(f[-1]) - f[-2]) / h2
    else:
        out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / h2
    return out


def d_uu(grid, f, parity=1.0):
    """Second derivative in u, same closure rules as ``d_u``."""
    out = np.empty_like(f)
    h2 = grid.du**2
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2
    out[0] = (f[1] - 2.0 * f[0] + parity * _antipode(f[0])) / h2
    if grid.topology == SPHERE:
        out[-1] = (parity * _antipode(f[-1]) - 2.0 * f[-1] + f[-2]) / h2
    else:
        out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2
    return out


def _extend_u(grid, f, parity, width=2):
    """Pad a field with ghost rings across the pole (and across both poles
    for the sphere) using the antipodal continuation. The disk boundary has
    no ghosts: callers fall back to one-sided stencils there."""
    top = [parity * _antipode(f[k]) for k in range(width)]
    rows = [t[None, :] for t in reversed(top)]
    rows.append(f)
    if grid.topology == SPHERE:
        bot = [parity * _antipode(f[-1 - k]) for k in range(width)]
        rows.extend(t[None, :] for t in bot)
    return np.concatenate(rows, axis=0)


def d_v4(grid, f):
    """Fourth-order periodic first derivative in v."""
    fp1, fm1 = np.roll(f, -1, axis=1), np.roll(f, 1, axis=1)
    fp2, fm2 = np.roll(f, -2, axis=1), np.roll(f, 2, axis=1)
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * grid.dv)


def d_vv4(grid, f):
    """Fourth-order periodic second derivative in v."""
    fp1, fm1 = np.roll(f, -1, axis=1), np.roll(f, 1, axis=1)
    fp2, fm2 = np.roll(f, -2, axis=1), np.roll(f, 2, axis=1)
    return (-fp2 + 16.0 * fp1 - 30.0 * f + 16.0 * fm1 - fm2) / (12.0 * grid.dv**2)


def d_u4(grid, f, parity=1.0):
    """Fourth-order centered first derivative in u via antipodal ghost rings.

    Near the chart degeneracy the curvature formulas divide by det(g)^2,
    which amplifies stencil truncation by 1/u^2; fourth-order stencils keep
    the amplified error at O(h^2) uniformly. At the disk boundary the last
    two rings use one-sided second-order stencils.
    """
    ext = _extend_u(grid, f, parity)
    out = np.empty_like(f)
    h12 = 12.0 * grid.du
    n = grid.n_u
    core = (-ext[4:] + 8.0 * ext[3:-1] - 8.0 * ext[1:-3] + ext[:-4]) / h12
    if grid.topology == SPHERE:
        out[:] = core
    else:
        out[: n - 2] = core
        h2 = 2.0 * grid.du
        out[-2] = (f[-1] - f[-3]) / h2
        out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / h2
    return out


def d_uu4(grid, f, parity=1.0):
    """Fourth-order centered second derivative in u (see ``d_u4``)."""
    ext = _extend_u(grid, f, parity)
    out = np.empty_like(f)
    h12 = 12.0 * grid.du**2
    n = grid.n_u
    core = (-ext[4:] + 16.0 * ext[3:-1] - 30.0 * ext[2:-2]
            + 16.0 * ext[1:-3] - ext[:-4]) / h12
    if grid.topology == SPHERE:
        out[:] = core
    else:
        out[: n - 2] = core
        h2 = grid.du**2
        out[-2] = (f[-1] - 2.0 * f[-2] + f[-3]) / h2
        out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2
    return out


# ---------------------------------------------------------------------------
# metric fields


class Metric2Field:
    """Induced 2-metric sampled at grid nodes, with quadrature weights.

    Parameters
    ----------
    grid : Grid2
    guu, guv, gvv : ndarray of shape (n_u, n_v)
        Metric components in the (u, v) chart.

    Raises
    ------
    DegenerateMetricError
        If the metric is not positive definite at some node.
    """

    def __init__(self, grid, guu, guv, gvv):
        guu = np.asarray(guu, dtype=float)
        guv = np.asarray(guv, dtype=float)
        gvv = np.asarray(gvv, dtype=float)
        det = guu * gvv - guv * guv
        bad = ~((guu > 0.0) & (det > 0.0))
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise DegenerateMetricError((int(i), int(j)),
                                        f"guu={guu[i, j]:.3e} det={det[i, j]:.3e}")
        self.grid = grid
        self.guu, self.guv, self.gvv = guu, guv, gvv
        self.det = det
        self.sqrt_det = np.sqrt(det)
        self.iuu = gvv / det
        self.iuv = -guv / det
        self.ivv = guu / det
        # Per-node cell widths in u; the disk boundary ring owns half a cell.
        w_u = np.full(grid.n_u, grid.du)
        if grid.topology == DISK:
            w_u[-1] = 0.5 * grid.du
        self.w_u = w_u
        self.dmu = self.sqrt_det * w_u[:, None] * grid.dv

    def boundary_line_element(self):
        """Arc length weight per boundary node (disk only)."""
        if self.grid.topology != DISK:
            raise TopologyError("boundary line element requires disk topology")
        return np.sqrt(self.gvv[-1]) * self.grid.dv

    def raise_covector(self, w_u, w_v):
        """Index-raise covariant components (w_u, w_v) with the inverse metric."""
        return (self.iuu * w_u + self.iuv * w_v,
                self.iuv * w_u + self.ivv * w_v)

    def norm2_covector(self, w_u, w_v):
        """Squared metric norm of a covector field."""
        return self.iuu * w_u**2 + 2.0 * self.iuv * w_u * w_v + self.ivv * w_v**2


def _check_finite(name, *fields):
    for f in fields:
        if not np.all(np.isfinite(f)):
            raise NonFiniteInputError(f"non-finite values in input to {name}")


# ---------------------------------------------------------------------------
# differential operators


def _stencils(order):
    if order == 4:
        return d_u4, d_v4
    return d_u, d_v


def _log_density_derivatives(metric, order=2):
    """Derivatives of log sqrt(det g), split for pole regularity.

    The area density behaves like sin(u) (sphere) or u (disk) at the chart
    degeneracy, so d_u log sqrt(g) is computed as the exact singular part
    cot(u) or 1/u plus the derivative of the smooth even remainder
    log(sqrt(det)/sin u). Differencing sqrt(det) itself across the pole
    would hit the |sin u| kink and lose consistency on the first ring.
    """
    g = metric.grid
    du1, dv1 = _stencils(order)
    U, _ = g.meshgrid()
    if g.topology == SPHERE:
        sing = np.cos(U) / np.sin(U)
        smooth = metric.sqrt_det / np.sin(U)
    else:
        sing = 1.0 / U
        smooth = metric.sqrt_det / U
    lu = sing + du1(g, np.log(smooth), parity=1.0)
    lv = 0.5 * dv1(g, metric.det) / metric.det
    return lu, lv


def gradient(metric, f, order=2):
    """Index-raised gradient: components g^{ab} d_b f."""
    _check_finite("gradient", f)
    g = metric.grid
    du1, dv1 = _stencils(order)
    fu = du1(g, f, parity=1.0)
    fv = dv1(g, f)
    return metric.raise_covector(fu, fv)


def divergence(metric, w, order=2):
    """Metric divergence of a vector field given by raised components (w^u, w^v).

    Computed as d_a w^a + w^a d_a log sqrt(g); the u-component ghosts use
    odd parity (one u index), the density derivative is pole-regularized.
    """
    wu, wv = w
    _check_finite("divergence", wu, wv)
    g = metric.grid
    du1, dv1 = _stencils(order)
    lu, lv = _log_density_derivatives(metric, order)
    return du1(g, wu, parity=-1.0) + dv1(g, wv) + wu * lu + wv * lv


def laplace_beltrami(metric, f, order=2):
    """Laplace-Beltrami operator, realized as divergence of the gradient."""
    return divergence(metric, gradient(metric, f, order), order)


def integrate(metric, f):
    """Area integral of a scalar field.

    Midpoint quadrature per cell, plus Euler-Maclaurin endpoint corrections
    in u built from the one-sided slopes of the v-summed integrand (the
    area density vanishes at poles and at the disk center, so the slope
    terms are the entire O(h^2) endpoint defect). The correction lifts the
    quadrature to roughly fourth order on smooth fields.
    """
    _check_finite("integrate", f)
    g = metric.grid
    base = float(np.sum(f * metric.dmu))
    row = np.sum(f * metric.sqrt_det, axis=1) * g.dv
    h = g.du
    slope0 = (9.0 * row[0] - row[1]) / (3.0 * h)
    if g.topology == SPHERE:
        slope_pi = -(9.0 * row[-1] - row[-2]) / (3.0 * h)
        corr = h**2 / 24.0 * (slope_pi - slope0)
    else:
        slope1 = (3.0 * row[-1] - 4.0 * row[-2] + row[-3]) / (2.0 * h)
        corr = -(h**2) * (slope1 / 12.0 + slope0 / 24.0)
    return base + corr


def boundary_integrate(metric, f_boundary):
    """Line integral over the disk boundary of per-boundary-node values."""
    _check_finite("boundary_integrate", f_boundary)
    return float(np.sum(f_boundary * metric.boundary_line_element()))


def _brioschi(metric, order):
    g = metric.grid
    E, F, G = metric.guu, metric.guv, metric.gvv
    if order == 4:
        du1, dv1, dvv1, duu1 = d_u4, d_v4, d_vv4, d_uu4
    else:
        du1, dv1, dvv1, duu1 = d_u, d_v, d_vv, d_uu
    Eu = du1(g, E, 1.0)
    Ev = dv1(g, E)
    Evv = dvv1(g, E)
    Fu = du1(g, F, -1.0)
    Fv = dv1(g, F)
    Fuv = dv1(g, du1(g, F, -1.0))
    Gu = du1(g, G, 1.0)
    Gv = dv1(g, G)
    Guu = duu1(g, G, 1.0)

    a11 = -0.5 * Evv + Fuv - 0.5 * Guu
    a12 = 0.5 * Eu
    a13 = Fu - 0.5 * Ev
    a21 = Fv - 0.5 * Gu
    b11 = 0.0
    b12 = 0.5 * Ev
    b13 = 0.5 * Gu

    def det3(m11, m12, m13, m21, m22, m23, m31, m32, m33):
        return (m11 * (m22 * m33 - m23 * m32)
                - m12 * (m21 * m33 - m23 * m31)
                + m13 * (m21 * m32 - m22 * m31))

    det_m1 = det3(a11, a12, a13, a21, E, F, 0.5 * Gv, F, G)
    det_m2 = det3(b11, b12, b13, b12, E, F, b13, F, G)
    return (det_m1 - det_m2) / metric.det**2


def gauss_curvature(metric):
    """Gauss curvature from the Brioschi formula in the (u, v) chart.

    Metric derivatives use parity-aware stencils (g_uu and g_vv continue
    evenly across the pole, g_uv oddly). Brioschi divides by det(g)^2,
    which amplifies stencil truncation by 1/u^2 toward the chart
    degeneracy, so a band of rings nearest the pole (or disk center) is
    evaluated with fourth-order stencils while the rest uses second order;
    the result is uniformly second-order accurate in the max norm.
    """
    g = metric.grid
    K = _brioschi(metric, order=2)
    band = max(4, g.n_u // 4)
    K4 = _brioschi(metric, order=4)
    K[:band] = K4[:band]
    if g.topology == SPHERE:
        K[-band:] = K4[-band:]
    return K


def boundary_geodesic_curvature(metric):
    """Geodesic curvature of the disk boundary circle inside the surface.

    Returns one value per boundary node. Sign convention: the flat unit
    disk boundary has curvature +1, so that Gauss-Bonnet reads
    int K dmu + oint kappa dl = 2 pi chi.
    """
    g = metric.grid
    if g.topology != DISK:
        raise TopologyError("geodesic curvature requires a boundary (disk topology)")
    dgvv_u = d_u(g, metric.gvv, 1.0)[-1]
    dguv_v = d_v(g, metric.guv)[-1]
    dgvv_v = d_v(g, metric.gvv)[-1]
    iuu = metric.iuu[-1]
    iuv = metric.iuv[-1]
    gamma_u_vv = 0.5 * (iuu * (2.0 * dguv_v - dgvv_u) + iuv * dgvv_v)
    return -gamma_u_vv / (metric.gvv[-1] * np.sqrt(iuu))


def _edge_graph(metric):
    """Sparse graph of 8-neighbor metric edge lengths on the grid."""
    g = metric.grid
    n_u, n_v = g.n_u, g.n_v
    ids = np.arange(g.n_nodes).reshape(n_u, n_v)
    rows, cols, lengths = [], [], []

    def add_edges(di, dj):
        i_src = np.arange(0, n_u - di)
        i_dst = i_src + di
        src = ids[i_src]
        dst = np.roll(ids[i_dst], -dj, axis=1)
        guu_m = 0.5 * (metric.guu.reshape(-1)[src] + metric.guu.reshape(-1)[dst])
        guv_m = 0.5 * (metric.guv.reshape(-1)[src] + metric.guv.reshape(-1)[dst])
        gvv_m = 0.5 * (metric.gvv.reshape(-1)[src] + metric.gvv.reshape(-1)[dst])
        su = di * g.du
        sv = dj * g.dv
        ell = np.sqrt(np.maximum(guu_m * su * su + 2.0 * guv_m * su * sv
                                 + gvv_m * sv * sv, 0.0))
        rows.append(src.ravel())
        cols.append(dst.ravel())
        lengths.append(ell.ravel())

    for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1)):
        add_edges(di, dj)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    lengths = np.concatenate(lengths)
    n = g.n_nodes
    return csr_matrix((lengths, (rows, cols)), shape=(n, n))


def _diameter_sources(grid):
    """Deterministic source sample: polar rings plus a global stride."""
    n_v = grid.n_v
    step = max(1, n_v // 8)
    first = grid.node_id(0, 0) + np.arange(0, n_v, step)
    last = grid.node_id(grid.n_u - 1, 0) + np.arange(0, n_v, step)
    stride = max(1, grid.n_nodes // 16)
    spread = np.arange(0, grid.n_nodes, stride)
    return np.unique(np.concatenate([first, last, spread]))


def intrinsic_diameter(metric):
    """Intrinsic diameter estimate from Dijkstra on the 8-neighbor edge graph.

    The graph metric overestimates geodesic distances by at most the grid
    anisotropy factor and underestimates the diameter by O(h) because no
    node sits exactly at the poles; both effects stay within a few percent
    at production resolutions.
    """
    graph = _edge_graph(metric)
    sources = _diameter_sources(metric.grid)
    dist = _csgraph_dijkstra(graph, directed=False, indices=sources)
    finite = dist[np.isfinite(dist)]
    return float(finite.max())


def ball_profile(metric, source_node):
    """Geodesic distances from one node, for metric-ball areas and integrals."""
    graph = _edge_graph(metric)
    dist = _csgraph_dijkstra(graph, directed=False, indices=[source_node])[0]
    return dist
