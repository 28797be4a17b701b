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

On these stencils sit the metric divergence and the boundary geodesic
curvature; ``make_grid`` stores the area quadrature, one weight per ring.
``total_curvature`` is the Gauss-Bonnet sum of a Gauss curvature it is
given, which the surface layer takes from the Gauss equation.
"""

from dataclasses import dataclass, field

import numpy as np

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
    ring_weights : ndarray
        Quadrature weight per ring (see ``make_grid`` and ``integrate``).
    """

    topology: str
    n_u: int
    n_v: int
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    du: float
    dv: float
    boundary_index: np.ndarray = field(repr=False)
    ring_weights: np.ndarray = field(repr=False)

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

    Sphere: u_i = (i + 1/2) * pi/n_u, cell-centered away from the poles:
    the nodes of Fejer's first rule (Waldvogel, BIT 46, 195 (2006)), whose
    weights w_i integrate h(u) sin u exactly for h a polynomial in cos u of
    degree below n_u; the ring weight is w_i / sin u_i.
    Disk:   u_i = (i + 1/2) / (n_u - 1/2), so the last ring sits exactly
    at u = 1 and the first ring is half a cell away from the center; the
    ring weights are the midpoint rule with Euler-Maclaurin corrections from
    one-sided slopes, du [7/8, 1 + 1/72, 1, ..., 1, 1 - 1/24, 1 + 1/6, 3/8].
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
        j = np.arange(1, n_u // 2 + 1)
        weights = (2.0 / n_u) * (1.0 - 2.0 * np.cos(2.0 * np.outer(u, j))
                                 @ (1.0 / (4.0 * j * j - 1.0))) / np.sin(u)
    else:
        du = 1.0 / (n_u - 0.5)
        u = du * (np.arange(n_u) + 0.5)
        u[-1] = 1.0
        boundary = (n_u - 1) * n_v + np.arange(n_v)
        weights = du * np.array([7 / 8, 1 + 1 / 72] + [1.0] * (n_u - 5)
                                + [1 - 1 / 24, 1 + 1 / 6, 3 / 8])
    return Grid2(topology, n_u, n_v, u, v, du, dv, boundary, weights)


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


def _log_density_derivatives(metric):
    """Derivatives of log sqrt(det g), split for pole regularity.

    The area density behaves like sin(u) (sphere) or u (disk) at the chart
    degeneracy, so d_u log sqrt(g) is computed as the exact singular part
    cot(u) or 1/u plus the derivative of the smooth even remainder
    log(sqrt(det)/sin u). Differencing sqrt(det) itself across the pole
    would hit the |sin u| kink and lose consistency on the first ring.
    """
    g = metric.grid
    U, _ = g.meshgrid()
    if g.topology == SPHERE:
        sing = np.cos(U) / np.sin(U)
        smooth = metric.sqrt_det / np.sin(U)
    else:
        sing = 1.0 / U
        smooth = metric.sqrt_det / U
    lu = sing + d_u(g, np.log(smooth), parity=1.0)
    lv = 0.5 * d_v(g, metric.det) / metric.det
    return lu, lv


def divergence(metric, w):
    """Metric divergence of a vector field given by raised components (w^u, w^v).

    Computed as d_a w^a + w^a d_a log sqrt(g); the u-component ghosts use
    odd parity (one u index), the density derivative is pole-regularized.
    """
    wu, wv = w
    _check_finite("divergence", wu, wv)
    g = metric.grid
    lu, lv = _log_density_derivatives(metric)
    return d_u(g, wu, parity=-1.0) + d_v(g, wv) + wu * lu + wv * lv


def integrate(metric, f):
    """Area integral of a scalar field: the grid's ring weights applied to
    the v-sums of f sqrt(g), times dv (see ``make_grid``)."""
    _check_finite("integrate", f)
    g = metric.grid
    return float(g.dv * (g.ring_weights @ np.sum(f * metric.sqrt_det, axis=1)))


def boundary_integrate(metric, f_boundary):
    """Line integral over the disk boundary of per-boundary-node values."""
    _check_finite("boundary_integrate", f_boundary)
    return float(np.sum(f_boundary * metric.boundary_line_element()))


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


def total_curvature(metric, K):
    """The Gauss-Bonnet sum of the Gauss curvature K: int K dmu on a
    sphere, and int K dmu + oint kappa dl on a disk, which is 2 pi chi up
    to discretisation error."""
    total = integrate(metric, K)
    if metric.grid.topology == DISK:
        total = total + boundary_integrate(
            metric, boundary_geodesic_curvature(metric))
    return total
