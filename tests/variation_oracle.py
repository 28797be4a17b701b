"""Finite-difference variation oracle of the stability operators.

The first variations of theta_+ and |H|^2 apply the (c, drift) of a
stability operator, as ``surfaces`` defines it for ``spectra.assemble``, in
strong form. The oracle compares them against central finite differences
of the geometry ``surfaces.compute_geometry`` recomputes on displaced
surfaces, so it checks what the solver assembles. The fourth-order
stencils of ``intrinsic_oracle`` keep the strong form's truncation below
the finite-difference error.

The second-order ``gradient`` and ``laplace_beltrami`` here are the
references of ``grids.divergence`` in the grid tests.
"""

from dataclasses import dataclass, replace

import numpy as np

from data_oracles import slice_family
from intrinsic_oracle import d_u4, d_uu4, d_v4, d_vv4
from motslab import grids
from motslab.errors import UnsupportedOperationError
from motslab.surfaces import (
    compute_geometry,
    hstab_minus_lminus_coefficients,
    hstab_normal_coefficients,
    mots_coefficients,
)

# ---------------------------------------------------------------------------
# strong-form calculus


def gradient(metric, f):
    """Index-raised gradient: components g^{ab} d_b f."""
    g = metric.grid
    return metric.raise_covector(grids.d_u(g, f, parity=1.0),
                                 grids.d_v(g, f))


def laplace_beltrami(metric, f):
    """Laplace-Beltrami operator, realized as divergence of the gradient."""
    return grids.divergence(metric, gradient(metric, f))


def gradient4(metric, f):
    """``gradient`` with fourth-order stencils."""
    g = metric.grid
    return metric.raise_covector(d_u4(g, f, parity=1.0), d_v4(g, f))


def divergence4(metric, w):
    """``grids.divergence`` with fourth-order stencils, the derivative of
    log sqrt(det g) split into its exact singular part at the chart
    degeneracy and a smooth remainder in the same way."""
    wu, wv = w
    g = metric.grid
    U, _ = g.meshgrid()
    if g.topology == grids.SPHERE:
        sing = np.cos(U) / np.sin(U)
        smooth = metric.sqrt_det / np.sin(U)
    else:
        sing = 1.0 / U
        smooth = metric.sqrt_det / U
    lu = sing + d_u4(g, np.log(smooth), parity=1.0)
    lv = 0.5 * d_v4(g, metric.det) / metric.det
    return d_u4(g, wu, parity=-1.0) + d_v4(g, wv) + wu * lu + wv * lv


def strong_form(geom, coefficients, phi):
    """-Laplace phi + 2 <drift, grad phi> + c phi for (c, drift, q) (q
    plays no part in the interior)."""
    c, drift, _ = coefficients
    gu, gv = gradient4(geom.metric, phi)
    return (-divergence4(geom.metric, (gu, gv))
            + 2.0 * (drift[0] * gu + drift[1] * gv) + c * phi)


# ---------------------------------------------------------------------------
# first-variation formulas


def delta_theta_plus(geom, phi):
    """First variation of theta_+ under phi N: L phi (``mots_coefficients``)
    plus the off-MOTS term (theta_+ tr k - theta_+^2 / 2) phi."""
    return (strong_form(geom, mots_coefficients(geom), phi)
            + (geom.theta_p * geom.trk - 0.5 * geom.theta_p**2) * phi)


def delta_H2_normal(geom, phi):
    """First variation of |H|^2 = H^2 - P^2 under phi N: 2H HStabNormal phi."""
    return 2.0 * geom.H * strong_form(geom, hstab_normal_coefficients(geom),
                                      phi)


def delta_H2_minus_lminus(geom, phi):
    """First variation of |H|^2 under X = -phi l_-: -2 theta_- times the
    HStabMinusLminus operator applied to phi."""
    return -2.0 * geom.theta_m * strong_form(
        geom, hstab_minus_lminus_coefficients(geom), phi)


# ---------------------------------------------------------------------------
# finite-difference variation oracle


def _vector_field_jet(grid, X):
    """First and second grid derivatives of a Cartesian vector field
    X[i, u, v], with fourth-order stencils."""
    du1 = np.stack([d_u4(grid, c, 1.0) for c in X])
    dv1 = np.stack([d_v4(grid, c) for c in X])
    duu1 = np.stack([d_uu4(grid, c, 1.0) for c in X])
    duv1 = np.stack([d_v4(grid, d_u4(grid, c, 1.0)) for c in X])
    dvv1 = np.stack([d_vv4(grid, c) for c in X])
    return du1, dv1, duu1, duv1, dvv1


def displaced_chart(geom, phi, eps):
    """Chart of the surface displaced by eps * phi * N, with derivative
    arrays built from grid stencils of the displacement field."""
    chart = geom.chart
    X = phi * geom.N
    du1, dv1, duu1, duv1, dvv1 = _vector_field_jet(chart.grid, X)
    return replace(chart,
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
    entries: list
    formula_fields: dict

    def max_deviation(self, quantity, eps=None):
        devs = [e.deviation for e in self.entries
                if e.quantity == quantity and (eps is None or e.eps == eps)]
        return max(devs)


def variation_oracle(surface, data, phi, direction, eps_list):
    """Compare first-variation formulas against central finite differences
    of recomputed geometry.

    For the normal direction the surface is displaced by +-eps phi N within
    the same data set (checks the theta_+ variation and, where H > 0, the
    |H|^2 variation). For the -l_- direction the displacement splits into
    phi N within the slice and a slide of the slice itself, which is only
    representable for constant phi on data sets carrying a unit-lapse
    slice family.
    """
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
        family = slice_family(data)
        if family is None:
            raise UnsupportedOperationError(
                f"{data.name} has no unit-lapse slice family")
        checks = [("H2_lminus", delta_H2_minus_lminus(geom0, phi),
                   lambda g: g.H**2 - g.P**2)]
        c = float(phi.flat[0])

        def slice_at(t):    # the slice the surface displaced by t lies in
            return family(-t * c)

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
    return OracleResult(entries,
                        {name: formula for name, formula, _ in checks})
