"""Surface geometries with injected synthetic fields, for the tests that
need a matter or connection field no catalog data set produces.
"""

from dataclasses import replace

import numpy as np

from motslab.grids import divergence


def with_overrides(geom, mu=None, J_N=None, W_cov=None, dec=None):
    """Copy of ``geom`` with injected synthetic fields; Q and the W-derived
    fields (div W, |W|^2 and W_nu on the boundary) are recomputed so
    operator assembly stays self-consistent. ``dec`` sets mu to the
    dominant-energy margin plus |J|."""
    new = replace(geom)
    if mu is not None:
        new.mu = np.broadcast_to(np.asarray(mu, float), geom.mu.shape).copy()
    if J_N is not None:
        new.J_N = np.broadcast_to(np.asarray(J_N, float),
                                  geom.J_N.shape).copy()
    if dec is not None:
        margin = np.broadcast_to(np.asarray(dec, float), geom.mu.shape)
        new.mu = margin + new.j_norm
    if W_cov is not None:
        new.W_cov = np.asarray(W_cov, float)
        new.divW = divergence(new.metric,
                              new.metric.raise_covector(*new.W_cov))
        new.W2 = new.metric.norm2_covector(*new.W_cov)
        if new.boundary is not None:
            nb = replace(new.boundary)
            nb.W_nu = (new.W_cov[0, -1] * nb.nu_chart[0]
                       + new.W_cov[1, -1] * nb.nu_chart[1])
            new.boundary = nb
    new.Q = new.K - new.mu - new.J_N - 0.5 * new.chi_p2
    return new
