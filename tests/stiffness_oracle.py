"""Sparse-product assembly of the weak-form operator: the oracle of
``spectra._weak_form``.

Each term is a product of sparse stencil matrices (node-centred
differences, face differences and face averages), the construction
``spectra.assemble`` used before it filled the stencil pattern directly.
"""

import numpy as np
from scipy import sparse

from motslab import grids


def _node_ids(grid):
    return np.arange(grid.n_nodes).reshape(grid.shape)


def dvc_matrix(grid):
    """Centred d/dv for scalar fields."""
    ids = _node_ids(grid)
    rows = np.repeat(ids.ravel(), 2)
    cols = np.stack([np.roll(ids, -1, axis=1).ravel(),
                     np.roll(ids, 1, axis=1).ravel()], axis=1).ravel()
    vals = np.tile([1.0, -1.0], grid.n_nodes) / (2.0 * grid.dv)
    return sparse.csr_matrix((vals, (rows, cols)),
                             shape=(grid.n_nodes, grid.n_nodes))


def duc_matrix(grid, boundary_points=3):
    """Node-centered d/du for scalar fields: centered in the interior,
    antipodal ghosts at poles/center, one-sided at the disk boundary over
    ``boundary_points`` rings (3: second order; 2: stays within one ring)."""
    ids = _node_ids(grid)
    n_v = grid.n_v
    h2 = 2.0 * grid.du
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(np.broadcast_to(v, r.shape).ravel())

    interior = ids[1:-1]
    add(interior, ids[2:], 1.0 / h2)
    add(interior, ids[:-2], -1.0 / h2)
    anti0 = np.roll(ids[0], n_v // 2)
    add(ids[0], ids[1], 1.0 / h2)
    add(ids[0], anti0, -1.0 / h2)
    if grid.topology == grids.SPHERE:
        anti1 = np.roll(ids[-1], n_v // 2)
        add(ids[-1], anti1, 1.0 / h2)
        add(ids[-1], ids[-2], -1.0 / h2)
    elif boundary_points == 2:
        add(ids[-1], ids[-1], 2.0 / h2)
        add(ids[-1], ids[-2], -2.0 / h2)
    else:
        add(ids[-1], ids[-1], 3.0 / h2)
        add(ids[-1], ids[-2], -4.0 / h2)
        add(ids[-1], ids[-3], 1.0 / h2)
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_nodes, grid.n_nodes))


def _face_ops(plus, minus, h, n_nodes):
    """Compact difference (plus - minus) / h and averaging maps from the
    nodes onto the faces between the node pairs (plus, minus)."""
    nf = plus.size
    fid = np.arange(nf)
    idx = (np.concatenate([fid, fid]), np.concatenate([plus, minus]))
    D = sparse.csr_matrix(
        (np.concatenate([np.full(nf, 1.0 / h), np.full(nf, -1.0 / h)]), idx),
        shape=(nf, n_nodes))
    Avg = sparse.csr_matrix((np.full(2 * nf, 0.5), idx), shape=(nf, n_nodes))
    return D, Avg


def dirichlet_energy(metric):
    """Exactly symmetric stiffness of the Dirichlet form int <grad u, grad v>.

    Compact 9-point form with coefficients K = sqrt(g) g^{-1}: the u-face
    family (between rings) alone carries the K^uu term and the v-face
    family (within rings) alone the K^vv term, each at full weight, both
    with two-point differences; the K^uv cross terms are averaged over the
    two families, the v-faces of the disk boundary ring taking the
    two-ring one-sided d/du.
    """
    grid = metric.grid
    kuu = (metric.sqrt_det * metric.iuu).ravel()
    kuv = (metric.sqrt_det * metric.iuv).ravel()
    kvv = (metric.sqrt_det * metric.ivv).ravel()
    ids = _node_ids(grid)

    Du_f, Uavg = _face_ops(ids[1:].ravel(), ids[:-1].ravel(), grid.du,
                           grid.n_nodes)
    w_f = grid.du * grid.dv
    a = sparse.diags(w_f * (Uavg @ kuu))
    b = sparse.diags(0.5 * w_f * (Uavg @ kuv))
    Gv_f = Uavg @ dvc_matrix(grid)
    cross = Du_f.T @ b @ Gv_f

    Dv_g, Vavg = _face_ops(np.roll(ids, -1, axis=1).ravel(), ids.ravel(),
                           grid.dv, grid.n_nodes)
    w_g = np.repeat(metric.w_u, grid.n_v) * grid.dv
    c = sparse.diags(w_g * (Vavg @ kvv))
    b = sparse.diags(0.5 * w_g * (Vavg @ kuv))
    Gu_g = Vavg @ duc_matrix(grid, boundary_points=2)
    cross = cross + Gu_g.T @ b @ Dv_g

    # symmetric summands summed pairwise, so K is symmetric to the bit
    return (Du_f.T @ a @ Du_f + Dv_g.T @ c @ Dv_g) + (cross + cross.T)


def weak_form(metric, c, drift_cov, robin_q):
    """K of -Laplace + 2 <W, grad .> + c: the Dirichlet energy, the lumped
    potential c M, minus the Robin boundary term q dl when ``robin_q`` is
    given, plus M times the node-centred drift rows when ``drift_cov`` is."""
    grid = metric.grid
    n = grid.n_nodes
    mass = metric.dmu.ravel()
    K = dirichlet_energy(metric) + sparse.diags(np.ravel(c) * mass)
    if robin_q is not None:
        dl = metric.boundary_line_element()
        bid = grid.boundary_index
        K = K - sparse.csr_matrix((robin_q * dl, (bid, bid)), shape=(n, n))
    if drift_cov is not None:
        wu, wv = metric.raise_covector(*drift_cov)
        drift = (sparse.diags(2.0 * wu.ravel()) @ duc_matrix(grid)
                 + sparse.diags(2.0 * wv.ravel()) @ dvc_matrix(grid))
        K = K + sparse.diags(mass) @ drift
    return K.tocsr()
