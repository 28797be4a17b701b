"""Intrinsic reference of the Gauss curvature, for the tests.

The package takes K from the Gauss equation (``surfaces.compute_geometry``),
so the tests check it, and the Gauss-Bonnet sum ``grids.total_curvature``,
against Brioschi's formula on the induced metric alone. Brioschi divides by
det(g)^2, which the polar chart sends to 0 at the poles, so stencil errors
are amplified there. On sphere grids the metric derivatives are therefore
spectral, on the double Fourier sphere: each field is continued across both
poles to u in (0, 2 pi), where the doubled cell-centred nodes are
equispaced and periodic. On disk grids the band of rings nearest the centre
takes fourth-order stencils. The same fourth-order stencils keep the strong
form of ``variation_oracle`` below its finite-difference error.
"""

import numpy as np
from scipy import fft

from motslab.grids import SPHERE, _antipode, d_u, d_uu, d_v, d_vv


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


def _fourier(f, order, axis):
    """``order``-th derivative of a field that is 2 pi-periodic along
    ``axis`` on equispaced nodes, by FFT (the Nyquist mode of an odd
    derivative dropped)."""
    n = f.shape[axis]
    factor = (1j * np.arange(n // 2 + 1)) ** order
    if order % 2 and n % 2 == 0:
        factor[-1] = 0.0
    shape = [1] * f.ndim
    shape[axis] = factor.size
    return fft.irfft(factor.reshape(shape) * fft.rfft(f, axis=axis), n,
                     axis=axis)


def _dfs_u(order):
    """Spectral ``order``-th u derivative on a sphere grid: the field is
    doubled across the poles by f(2 pi - u, v) = parity f(u, v + pi)."""
    def deriv(grid, f, parity=1.0):
        doubled = np.concatenate([f, parity * _antipode(f[::-1])], axis=0)
        return _fourier(doubled, order, 0)[: grid.n_u]
    return deriv


def _dfs_v(order):
    """Spectral ``order``-th v derivative."""
    return lambda grid, f: _fourier(f, order, 1)


def _brioschi(metric, stencils):
    """Brioschi's K with the stencils (d_u, d_v, d_uu, d_vv) of one order."""
    g = metric.grid
    E, F, G = metric.guu, metric.guv, metric.gvv
    du1, dv1, duu1, dvv1 = stencils
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

    Metric derivatives are parity-aware (g_uu and g_vv continue evenly
    across the pole, g_uv oddly). On a sphere grid they are spectral (see
    the module docstring). On a disk grid, where Brioschi's division by
    det(g)^2 amplifies stencil truncation by 1/u^2 toward the centre, a band
    of rings nearest the centre is evaluated with fourth-order stencils and
    the rest with second order, so the result is uniformly second-order
    accurate in the max norm.
    """
    g = metric.grid
    if g.topology == SPHERE:
        return _brioschi(metric, (_dfs_u(1), _dfs_v(1), _dfs_u(2), _dfs_v(2)))
    K = _brioschi(metric, (d_u, d_v, d_uu, d_vv))
    band = max(4, g.n_u // 4)
    K[:band] = _brioschi(metric, (d_u4, d_v4, d_uu4, d_vv4))[:band]
    return K
