"""Stability operators of MOTS and H-stable surfaces, and their spectra.

The elliptic operators all share the shape L = -Laplace + 2 <W, grad .> +
c(x), closed on the sphere or with a Robin condition d/dnu phi = q phi on
the disk boundary. Assembly is in weak form: the -Laplace block is the
discrete Dirichlet energy, a compact 9-point stencil on the (u, v) chart
in which the faces between rings carry the u-u coefficient, the faces
within rings the v-v coefficient, and the two face families share the
mixed u-v terms (exactly symmetric, exact on constants); the Robin data
enters as the boundary term of the integration by parts, and first-order
drift rows are added with node-centered stencils. The generalized
problem is K phi = lambda M phi with the lumped area mass M.

The principal eigenvalue of the (generally non-self-adjoint) operator is
computed by the positive-resolvent construction: shift by delta with
c + delta > 0, factorize once, and power-iterate the solution operator;
the limit ratio xi gives lambda_1 = 1/xi - delta with a positive
eigenfunction, and the transposed solves give the adjoint eigenvalue.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh, splu

from . import grids, surfaces
from .errors import (
    IterationFailureError,
    NotAMOTSError,
    TopologyError,
    UnsupportedOperationError,
)

MOTS_L = "MotsL"
MOTS_LS = "MotsLs"
HSTAB_NORMAL = "HStabNormal"
HSTAB_MINUS_LMINUS = "HStabMinusLminus"
CUSTOM_SYMMETRIC = "CustomSymmetric"

BC_CLOSED = "closed"
BC_ROBIN = "robin"

Q_FREE = "free"
Q_CAPILLARY = "capillary"
Q_SYMMETRIZED = "sym"


@dataclass
class OperatorSpec:
    """Selection of operator kind, boundary condition, and parameters."""

    kind: str
    geometry: surfaces.SurfaceGeometry
    bc: str = BC_CLOSED
    q_source: str = Q_FREE
    gamma: float | None = None
    qbar_variant: str = "proof"
    c_field: np.ndarray | None = None     # CustomSymmetric only

    def validate(self):
        topo = self.geometry.grid.topology
        if self.bc == BC_CLOSED and topo != grids.SPHERE:
            raise TopologyError("closed problems require sphere topology")
        if self.bc == BC_ROBIN and topo != grids.DISK:
            raise TopologyError("Robin problems require disk topology")
        if self.bc == BC_ROBIN and self.q_source == Q_CAPILLARY:
            if self.gamma is None:
                raise ValueError("capillary Robin data requires gamma")
            if not 1e-3 < self.gamma < np.pi - 1e-3:
                raise ValueError("gamma must lie in (0, pi) away from the "
                                 "endpoints by 1e-3")


def mots_spec(geometry, kind=MOTS_L):
    """The MOTS operator of ``kind`` (MOTS_L or MOTS_LS) for the surface's
    topology: closed on the sphere; on the disk, Robin with the free
    boundary q for L and the symmetrized q for L_s."""
    if geometry.grid.topology == grids.SPHERE:
        return OperatorSpec(kind, geometry, bc=BC_CLOSED)
    return OperatorSpec(kind, geometry, bc=BC_ROBIN,
                        q_source=Q_SYMMETRIZED if kind == MOTS_LS else Q_FREE)


@dataclass
class OperatorMatrix:
    """Weak-form operator pencil (K, M) with boundary-condition metadata."""

    n: int
    weak: sparse.csr_matrix
    mass: np.ndarray
    c: np.ndarray
    kind: str
    symmetric: bool
    robin_q: np.ndarray | None
    geometry: surfaces.SurfaceGeometry
    warnings: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# difference matrices


def _node_ids(grid):
    return np.arange(grid.n_nodes).reshape(grid.shape)


def _dvc_matrix(grid):
    ids = _node_ids(grid)
    rows = np.repeat(ids.ravel(), 2)
    cols = np.stack([np.roll(ids, -1, axis=1).ravel(),
                     np.roll(ids, 1, axis=1).ravel()], axis=1).ravel()
    vals = np.tile([1.0, -1.0], grid.n_nodes) / (2.0 * grid.dv)
    return sparse.csr_matrix((vals, (rows, cols)),
                             shape=(grid.n_nodes, grid.n_nodes))


def _duc_matrix(grid, boundary_points=3):
    """Node-centered d/du for scalar fields: centered in the interior,
    antipodal ghosts at poles/center, one-sided at the disk boundary over
    ``boundary_points`` rings (3: second order; 2: stays within one ring)."""
    ids = _node_ids(grid)
    n_u, n_v = grid.shape
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


def _u_face_ops(grid):
    """Compact difference and averaging maps onto u-faces (between rings)."""
    ids = _node_ids(grid)
    n_u, n_v = grid.shape
    nf = (n_u - 1) * n_v
    fid = np.arange(nf)
    left = ids[:-1].ravel()
    right = ids[1:].ravel()
    D = sparse.csr_matrix(
        (np.concatenate([np.full(nf, 1.0 / grid.du),
                         np.full(nf, -1.0 / grid.du)]),
         (np.concatenate([fid, fid]), np.concatenate([right, left]))),
        shape=(nf, grid.n_nodes))
    Avg = sparse.csr_matrix(
        (np.full(2 * nf, 0.5),
         (np.concatenate([fid, fid]), np.concatenate([right, left]))),
        shape=(nf, grid.n_nodes))
    return D, Avg


def _v_face_ops(grid):
    """Compact difference and averaging maps onto v-faces (within rings)."""
    ids = _node_ids(grid)
    n = grid.n_nodes
    fid = np.arange(n)
    here = ids.ravel()
    nxt = np.roll(ids, -1, axis=1).ravel()
    D = sparse.csr_matrix(
        (np.concatenate([np.full(n, 1.0 / grid.dv),
                         np.full(n, -1.0 / grid.dv)]),
         (np.concatenate([fid, fid]), np.concatenate([nxt, here]))),
        shape=(n, n))
    Avg = sparse.csr_matrix(
        (np.full(2 * n, 0.5),
         (np.concatenate([fid, fid]), np.concatenate([nxt, here]))),
        shape=(n, n))
    return D, Avg


def _dirichlet_energy(geometry):
    """Exactly symmetric stiffness of the Dirichlet form int <grad u, grad v>.

    Compact 9-point form with coefficients K = sqrt(g) g^{-1}: the u-face
    family (between rings) alone carries the K^uu term and the v-face
    family (within rings) alone the K^vv term, each at full weight, both
    with two-point differences; the K^uv cross terms are averaged over the
    two families, the v-faces of the disk boundary ring taking the
    two-ring one-sided d/du. Every node couples only to its ring and
    column neighbours (and, on the pole/center rings, to the antipodal
    ones).
    """
    grid = geometry.grid
    m = geometry.metric
    kuu = (m.sqrt_det * m.iuu).ravel()
    kuv = (m.sqrt_det * m.iuv).ravel()
    kvv = (m.sqrt_det * m.ivv).ravel()

    Du_f, Uavg = _u_face_ops(grid)
    w_f = grid.du * grid.dv
    a = sparse.diags(w_f * (Uavg @ kuu))
    b = sparse.diags(0.5 * w_f * (Uavg @ kuv))
    Gv_f = Uavg @ _dvc_matrix(grid)
    cross = Du_f.T @ b @ Gv_f

    Dv_g, Vavg = _v_face_ops(grid)
    w_g = np.repeat(m.w_u, grid.n_v) * grid.dv
    c = sparse.diags(w_g * (Vavg @ kvv))
    b = sparse.diags(0.5 * w_g * (Vavg @ kuv))
    Gu_g = Vavg @ _duc_matrix(grid, boundary_points=2)
    cross = cross + Gu_g.T @ b @ Dv_g

    # symmetric summands summed pairwise, so K is symmetric to the bit
    return (Du_f.T @ a @ Du_f + Dv_g.T @ c @ Dv_g) + (cross + cross.T)


# ---------------------------------------------------------------------------
# operator assembly


def robin_coefficient(geometry, q_source, gamma=None):
    """Per-boundary-node Robin coefficient q for the requested source."""
    b = geometry.boundary
    if b is None:
        raise TopologyError("Robin data requires a surface with boundary")
    if q_source == Q_FREE:
        return b.Pi_NN.copy()
    if q_source == Q_CAPILLARY:
        if gamma is None:
            raise ValueError("capillary Robin data requires gamma")
        gamma = float(gamma)
        return (-np.cos(gamma) / np.sin(gamma) * b.A_nunu
                + b.Pi_nubar(gamma) / np.sin(gamma))
    if q_source == Q_SYMMETRIZED:
        base = robin_coefficient(geometry, Q_CAPILLARY, gamma) \
            if gamma is not None else robin_coefficient(geometry, Q_FREE)
        return base - b.W_nu
    raise ValueError(f"unknown Robin source {q_source!r}")


def _zeroth_and_drift(spec):
    geom = spec.geometry
    if spec.kind == MOTS_L:
        return geom.divW - geom.W2 + geom.Q, geom.W_cov
    if spec.kind == MOTS_LS:
        return geom.Q, None
    if spec.kind == HSTAB_NORMAL:
        if np.min(geom.H) <= 0.0:
            raise UnsupportedOperationError(
                "the normal-direction H-stability operator requires H > 0")
        ratio = geom.P / geom.H
        c = (0.5 * (geom.R_S - 2.0 * geom.mu - geom.trk**2 + geom.absk2
                    - geom.absA2 - geom.H**2)
             - ratio * (-geom.J_N + geom.divW + geom.H * geom.kNN
                        - geom.A_dot_kS))
        return c, -ratio[..., None] * geom.W_cov
    if spec.kind == HSTAB_MINUS_LMINUS:
        qb = surfaces.qbar_potential(geom, spec.qbar_variant)
        return geom.divW - geom.W2 + qb, geom.W_cov
    if spec.kind == CUSTOM_SYMMETRIC:
        if spec.c_field is None:
            raise ValueError("CustomSymmetric requires c_field")
        return np.asarray(spec.c_field, dtype=float), None
    raise ValueError(f"unknown operator kind {spec.kind!r}")


def assemble(spec):
    """Assemble the weak-form operator pencil for an OperatorSpec."""
    spec.validate()
    geom = spec.geometry
    grid = geom.grid
    c2d, drift_cov = _zeroth_and_drift(spec)
    c = np.asarray(c2d, dtype=float).ravel()
    mass = geom.metric.dmu.ravel()

    K = _dirichlet_energy(geom) + sparse.diags(c * mass)

    warnings = []
    robin_q = None
    if spec.bc == BC_ROBIN:
        robin_q = robin_coefficient(geom, spec.q_source, spec.gamma)
        dl = geom.metric.boundary_line_element()
        bid = grid.boundary_index
        K = K - sparse.csr_matrix(
            (robin_q * dl, (bid, bid)), shape=(grid.n_nodes, grid.n_nodes))
        if spec.kind in (MOTS_L, HSTAB_NORMAL, HSTAB_MINUS_LMINUS) \
                and np.max(robin_q) > 0.0:
            warnings.append(
                "q > 0 somewhere on the boundary: the sign hypothesis of the "
                "principal-eigenvalue theorem (beta = -q >= 0) is violated")

    symmetric = drift_cov is None
    if drift_cov is not None:
        wu, wv = geom.metric.raise_covector(drift_cov[..., 0],
                                            drift_cov[..., 1])
        drift = (sparse.diags(2.0 * wu.ravel()) @ _duc_matrix(grid)
                 + sparse.diags(2.0 * wv.ravel()) @ _dvc_matrix(grid))
        if np.max(np.abs(drift_cov)) == 0.0:
            symmetric = True
        K = K + sparse.diags(mass) @ drift

    return OperatorMatrix(n=grid.n_nodes, weak=K.tocsr(), mass=mass, c=c,
                          kind=spec.kind, symmetric=symmetric,
                          robin_q=robin_q, geometry=geom, warnings=warnings)


# ---------------------------------------------------------------------------
# eigensolvers


@dataclass
class EigenResult:
    lambda1: float
    eigenfunction: np.ndarray
    residual: float
    iterations: int
    positive: bool
    adjoint_lambda1: float
    warnings: list

    @property
    def adjoint_gap(self):
        return abs(self.lambda1 - self.adjoint_lambda1)


def principal_eigenvalue(opmat, tol=1e-12, max_iters=10000):
    """Principal eigenvalue by inverse power iteration on the shifted
    resolvent, following the positive-operator construction: pick delta
    with c + delta > 0, factorize K + delta M once, and iterate
    x <- (K + delta M)^{-1} M x. The Rayleigh ratio converges to
    1/(lambda_1 + delta); transposed solves give the adjoint eigenvalue.
    """
    delta = max(0.0, -float(np.min(opmat.c))) + 1.0
    M = sparse.diags(opmat.mass)

    def iterate(lu, trans):
        x = np.ones(opmat.n)
        xi_prev = None
        for it in range(1, max_iters + 1):
            mx = opmat.mass * x
            y = lu.solve(mx, trans=trans)
            xi = float(y @ mx) / float(x @ mx)
            y = y / np.max(np.abs(y))
            converged = xi_prev is not None and abs(xi - xi_prev) <= tol * max(1.0, abs(xi))
            x = y
            xi_prev = xi
            if converged:
                return xi, x, it
        raise IterationFailureError(
            f"power iteration did not converge within {max_iters} iterations")

    # The shift must satisfy lambda_1 + delta > 0 for the resolvent to be
    # positivity improving; with a boundary coefficient q > 0 the default
    # shift from the zeroth-order field alone can be insufficient, so it is
    # enlarged until the iteration sees a positive ratio.
    for attempt in range(8):
        lu = splu((opmat.weak + delta * M).tocsc())
        xi, vec, iters = iterate(lu, "N")
        if xi > 0.0:
            break
        delta = 4.0 * delta + abs(1.0 / xi)
    else:
        raise IterationFailureError("could not find a positivity-improving "
                                    "shift for the resolvent iteration")
    lam = 1.0 / xi - delta
    xi_adj, _, _ = iterate(lu, "T")
    lam_adj = 1.0 / xi_adj - delta

    imax = int(np.argmax(np.abs(vec)))
    vec = vec / vec[imax]
    resid = (np.max(np.abs(opmat.weak @ vec / opmat.mass - lam * vec))
             / np.max(np.abs(vec)))
    return EigenResult(
        lambda1=lam,
        eigenfunction=vec.reshape(opmat.geometry.grid.shape),
        residual=float(resid),
        iterations=iters,
        positive=bool(np.min(vec) > 0.0),
        adjoint_lambda1=lam_adj,
        warnings=list(opmat.warnings))


def symmetric_spectrum(opmat, count):
    """Lowest eigenvalues of a symmetric pencil (stiffness vs lumped mass)."""
    if not opmat.symmetric:
        raise UnsupportedOperationError(
            "symmetric spectrum requires a symmetric operator kind")
    sym = 0.5 * (opmat.weak + opmat.weak.T)
    M = sparse.diags(opmat.mass)
    sigma = min(0.0, float(np.min(opmat.c))) - 1.0
    if opmat.robin_q is not None and np.max(opmat.robin_q) > 0.0:
        sigma -= float(np.max(opmat.robin_q)
                       * np.max(opmat.geometry.metric.boundary_line_element()
                                / opmat.mass[opmat.geometry.grid.boundary_index]))
    count = min(count, opmat.n - 2)
    v0 = np.ones(opmat.n)
    vals = eigsh(sym.tocsc(), k=count, M=M.tocsc(), sigma=sigma,
                 which="LM", v0=v0, return_eigenvectors=False)
    vals = np.sort(vals)
    if vals[0] < sigma:
        vals = eigsh(sym.tocsc(), k=count, M=M.tocsc(),
                     sigma=2.0 * vals[0] - sigma, which="LM", v0=v0,
                     return_eigenvectors=False)
        vals = np.sort(vals)
    return vals


def morse_index(opmat, tol_index=None):
    """Number of negative eigenvalues of the symmetrized stability form."""
    if not opmat.symmetric:
        raise UnsupportedOperationError("Morse index requires MotsLs or a "
                                        "symmetric custom operator")
    k = 8
    while True:
        vals = symmetric_spectrum(opmat, k)
        scale = max(1.0, float(np.max(np.abs(vals))))
        tol = 1e-8 * scale if tol_index is None else tol_index
        if vals[-1] >= -tol or k >= opmat.n - 2:
            return int(np.sum(vals < -tol))
        k = min(2 * k, opmat.n - 2)


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class StabilityVerdict:
    lambda1_L: float
    lambda1_Ls: float
    stable: bool
    comparison_ok: bool | None
    max_theta_plus: float
    q_max: float | None


def stability_verdict(geometry, kind=MOTS_L, theta_tol=1e-6, tol=1e-8):
    """Stability of a MOTS: lambda_1 of the full operator, the symmetric
    comparison lambda_1(L) <= lambda_1(L_s) when q <= 0, and the verdict."""
    max_tp = float(np.max(np.abs(geometry.theta_p)))
    if kind == MOTS_L and max_tp >= theta_tol:
        raise NotAMOTSError(max_tp, theta_tol)
    q_max = None
    if geometry.grid.topology != grids.SPHERE:
        q_max = float(np.max(robin_coefficient(geometry, Q_FREE)))
    res_L = principal_eigenvalue(assemble(mots_spec(geometry, MOTS_L)))
    res_Ls = principal_eigenvalue(assemble(mots_spec(geometry, MOTS_LS)))
    comparison = None
    if q_max is None or q_max <= 0.0:
        comparison = bool(res_L.lambda1 <= res_Ls.lambda1 + 1e-7)
    return StabilityVerdict(
        lambda1_L=res_L.lambda1,
        lambda1_Ls=res_Ls.lambda1,
        stable=bool(res_L.lambda1 >= -tol),
        comparison_ok=comparison,
        max_theta_plus=max_tp,
        q_max=q_max)
