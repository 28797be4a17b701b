"""Stability operators of MOTS and H-stable surfaces, and their spectra.

The elliptic operators all share the shape L = -Laplace + 2 <W, grad .> +
c(x), with (c, W) per kind from the one definition in ``surfaces`` that
the first-variation formulas also apply. The surface decides the boundary
condition: closed on the sphere, Robin d/dnu phi = q phi on the disk
boundary. Assembly is in weak form: the -Laplace block is the
discrete Dirichlet energy, a compact 9-point stencil on the (u, v) chart
in which the faces between rings carry the u-u coefficient, the faces
within rings the v-v coefficient, and the two face families share the
mixed u-v terms (exactly symmetric, exact on constants); the Robin data
enters as the boundary term of the integration by parts, and first-order
drift rows are added with node-centered stencils. The generalized
problem is K phi = lambda M phi with the lumped area mass M.

The principal eigenvalue of the (generally non-self-adjoint) operator is
real and has the smallest real part, with a one-signed eigenfunction. It
is computed by shift-invert Arnoldi on the positive resolvent: shift by
delta with lambda_1 + delta > 0, factorize K + delta M once, and let
ARPACK find the largest-magnitude eigenvalue xi of x -> (K + delta M)^{-1}
M x, which is lambda_1 = 1/xi - delta; transposed solves on the same
factor give the adjoint eigenvalue (a symmetric pencil is its own adjoint
and skips them). Convergence is declared from the backward error of the
eigenpair, never from a stalled ratio.

Both eigensolvers factorize through one helper, ``_factor``: SuperLU of
K + delta M over the grid's fixed stencil pattern, ordered by minimum
degree on the pattern of A^T + A. The pattern is symmetric, so this
ordering roughly halves the fill of the column ordering (COLAMD) meant
for unsymmetric patterns. The principal eigenvalue and the lowest
eigenvalues of a symmetric pencil (``eigsh``, handed the factor's solve
as its shift-inverse) share the shift ``_shift`` and this factor, made
once per shift (``_factors``); no solver factorizes on its own.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import (
    ArpackError,
    LinearOperator,
    eigs,
    eigsh,
    splu,
)

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

Q_FREE = "free"
Q_CAPILLARY = "capillary"
Q_SYMMETRIZED = "sym"


@dataclass
class OperatorSpec:
    """Selection of operator kind and parameters. The boundary condition
    follows the surface: closed on a sphere; on a disk, Robin with the q
    that ``q_source`` (and ``gamma``) select."""

    kind: str
    geometry: surfaces.SurfaceGeometry
    q_source: str = Q_FREE
    gamma: float | None = None
    qbar_variant: str = "proof"
    c_field: np.ndarray | None = None     # CustomSymmetric only


def mots_spec(geometry, kind=MOTS_L):
    """The MOTS operator of ``kind`` (MOTS_L or MOTS_LS): on the disk its
    Robin q is the free boundary q for L and the symmetrized q for L_s."""
    return OperatorSpec(kind, geometry,
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


def _u_face_ops(grid):
    """Face maps onto u-faces (between rings)."""
    ids = _node_ids(grid)
    return _face_ops(ids[1:].ravel(), ids[:-1].ravel(), grid.du, grid.n_nodes)


def _v_face_ops(grid):
    """Face maps onto v-faces (within rings)."""
    ids = _node_ids(grid)
    return _face_ops(np.roll(ids, -1, axis=1).ravel(), ids.ravel(), grid.dv,
                     grid.n_nodes)


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


def _stencil_pattern(grid):
    """Row and column indices of every coupling an assembled operator on
    ``grid`` can hold: the 9-point stencil, the antipodal partners of the
    pole/center rings, and the drift column two rings in from the disk
    boundary (the one-sided d/du). Sparse sums and products drop entries
    that cancel to 0, so this, not the assembled matrix, is the structure
    the factorization sees."""
    ids = _node_ids(grid)
    n_u, n_v = grid.shape
    rows, cols = [], []
    for di in (-1, 0, 1):
        lo, hi = max(0, -di), n_u - max(0, di)
        for dj in (-1, 0, 1):
            rows.append(ids[lo:hi])
            cols.append(np.roll(ids, -dj, axis=1)[lo + di:hi + di])
    closure = [0] if grid.topology == grids.DISK else [0, n_u - 1]
    for i in closure:
        for dj in (-1, 0, 1):
            rows.append(ids[i])
            cols.append(np.roll(ids[i], -(n_v // 2 + dj)))
    if grid.topology == grids.DISK:
        rows.append(ids[-1])
        cols.append(ids[-3])
    return (np.concatenate([r.ravel() for r in rows]),
            np.concatenate([c.ravel() for c in cols]))


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
        if not 1e-3 < gamma < np.pi - 1e-3:
            raise ValueError("gamma must lie in (0, pi) away from the "
                             "endpoints by 1e-3")
        return (-np.cos(gamma) / np.sin(gamma) * b.A_nunu
                + b.Pi_nubar(gamma) / np.sin(gamma))
    if q_source == Q_SYMMETRIZED:
        base = robin_coefficient(geometry, Q_CAPILLARY, gamma) \
            if gamma is not None else robin_coefficient(geometry, Q_FREE)
        return base - b.W_nu
    raise ValueError(f"unknown Robin source {q_source!r}")


def _custom_coefficients(spec):
    if spec.c_field is None:
        raise ValueError("CustomSymmetric requires c_field")
    return spec.c_field, None


# zeroth-order coefficient c and drift covector of each operator kind
_COEFFICIENTS = {
    MOTS_L: lambda spec: surfaces.mots_coefficients(spec.geometry),
    MOTS_LS: lambda spec: surfaces.symmetrized_coefficients(spec.geometry),
    HSTAB_NORMAL: lambda spec: surfaces.hstab_normal_coefficients(
        spec.geometry),
    HSTAB_MINUS_LMINUS: lambda spec: surfaces.hstab_minus_lminus_coefficients(
        spec.geometry, spec.qbar_variant),
    CUSTOM_SYMMETRIC: _custom_coefficients,
}


def assemble(spec):
    """Assemble the weak-form operator pencil for an OperatorSpec: closed
    on a sphere, with the Robin boundary term on a surface with boundary."""
    geom = spec.geometry
    grid = geom.grid
    robin_q = None
    if geom.boundary is not None:
        robin_q = robin_coefficient(geom, spec.q_source, spec.gamma)
    if spec.kind not in _COEFFICIENTS:
        raise ValueError(f"unknown operator kind {spec.kind!r}")
    c2d, drift_cov = _COEFFICIENTS[spec.kind](spec)
    c = np.asarray(c2d, dtype=float).ravel()
    mass = geom.metric.dmu.ravel()

    K = _dirichlet_energy(geom) + sparse.diags(c * mass)

    warnings = []
    if robin_q is not None:
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


# Arnoldi basis size: scipy's default of 20 would make every eigensolve
# cost at least 21 resolvent applications
_NCV = 6
_BACKWARD_TOL = 1e-12   # eigenpair backward error that declares convergence
_REAL_TOL = 1e-10       # |Im xi| / |xi| below which xi counts as real
_SHIFT_ATTEMPTS = 8


def _shifted_matrix(opmat, delta):
    """K + delta M in CSC form over the grid's full stencil pattern
    (explicit zeros where entries cancel), so the factorization's ordering
    and fill depend on the grid alone."""
    k = opmat.weak.tocoo()
    rows, cols = _stencil_pattern(opmat.geometry.grid)
    diag = np.arange(opmat.n)
    return sparse.coo_matrix(
        (np.concatenate([k.data, delta * opmat.mass, np.zeros(rows.size)]),
         (np.concatenate([k.row, diag, rows]),
          np.concatenate([k.col, diag, cols]))),
        shape=k.shape).tocsc()


def _shift(opmat):
    """delta that makes K + delta M positive: above -min c by 1, plus the
    largest boundary term q dl / M of a Robin q > 0 (bounded by max q times
    max dl / M)."""
    delta = max(0.0, -float(np.min(opmat.c))) + 1.0
    if opmat.robin_q is not None and np.max(opmat.robin_q) > 0.0:
        metric = opmat.geometry.metric
        boundary_mass = opmat.mass[opmat.geometry.grid.boundary_index]
        delta += float(np.max(opmat.robin_q)
                       * np.max(metric.boundary_line_element() / boundary_mass))
    return delta


def _factor(opmat, delta):
    """SuperLU factor of K + delta M, ordered by minimum degree on the
    symmetric stencil pattern (A^T + A)."""
    return splu(_shifted_matrix(opmat, delta), permc_spec="MMD_AT_PLUS_A")


def _factors(opmat):
    """``factor(delta)``: the ``_factor`` of K + delta M, made once per shift
    and held until another shift is asked for."""
    held = {}

    def factor(delta):
        if delta not in held:
            held.clear()
            held[delta] = _factor(opmat, delta)
        return held[delta]

    return factor


def _backward_error(weak, mass, lam, x):
    """Normwise backward error |Kx - lam Mx| / ((|K| + |lam| |M|) |x|) of an
    eigenpair of the pencil (K, M), in the max norm."""
    knorm = float(abs(weak).sum(axis=1).max())
    resid = np.max(np.abs(weak @ x - lam * (mass * x)))
    return float(resid / ((knorm + abs(lam) * np.max(mass))
                          * np.max(np.abs(x))))


def _principal(weak, mass, factor, trans, delta, tol, max_iters):
    """Principal eigenpair of the pencil (weak, diag(mass)).

    ``factor(delta)`` returns the SuperLU factor of K + delta M, solved
    with ``trans`` ("T" for the adjoint, where weak = K^T). The constant
    vector is tried first (it is the eigenfunction on horizons, centred
    spheres and flat disks); otherwise ARPACK runs on the resolvent
    x -> (weak + delta M)^{-1} M x, enlarging delta until its dominant
    eigenvalue xi is real and positive with a one-signed eigenvector.
    Returns lambda, the eigenvector scaled to max 1, the number of
    resolvent applications, and the final delta.
    """
    ones = np.ones(mass.size)
    lam = float(np.sum(weak @ ones)) / float(np.sum(mass))
    if _backward_error(weak, mass, lam, ones) <= _BACKWARD_TOL:
        return lam, ones, 0, delta

    applications = 0
    for _ in range(_SHIFT_ATTEMPTS):
        lu = factor(delta)

        def resolvent(x):
            nonlocal applications
            applications += 1
            return lu.solve(mass * x, trans=trans)

        op = LinearOperator((mass.size, mass.size), matvec=resolvent,
                            dtype=float)
        try:
            vals, vecs = eigs(op, k=1, which="LM", ncv=_NCV, tol=tol,
                              maxiter=max_iters, v0=ones, rng=0)
        except ArpackError as exc:
            raise IterationFailureError(
                f"shift-invert Arnoldi failed: {exc}") from exc
        xi = vals[0]
        if abs(xi.imag) <= _REAL_TOL * abs(xi) and xi.real > 0.0:
            vec = vecs[:, 0].real
            vec = vec / vec[int(np.argmax(np.abs(vec)))]
            if np.min(vec) > 0.0:
                break
        # lambda_1 + delta <= 0: the resolvent is not positive and its
        # dominant eigenvalue is another one
        delta = 4.0 * delta + abs(1.0 / xi)
    else:
        raise IterationFailureError("could not find a positivity-improving "
                                    "shift for the resolvent")
    lam = float(1.0 / xi.real - delta)
    err = _backward_error(weak, mass, lam, vec)
    if err > _BACKWARD_TOL:
        raise IterationFailureError(
            f"principal eigenpair backward error {err:.2e} exceeds "
            f"{_BACKWARD_TOL:.0e}")
    return lam, vec, applications, delta


def principal_eigenvalue(opmat, tol=1e-13, max_iters=10000):
    """Principal eigenvalue, eigenfunction and adjoint eigenvalue.

    Shift-invert Arnoldi (ARPACK, ``tol`` and ``max_iters`` passed on) on
    the positive resolvent (K + delta M)^{-1} M, with delta from ``_shift``
    (c + delta > 0, with room for a Robin q > 0) and enlarged while the
    dominant eigenvalue xi is not real and positive with a one-signed
    eigenvector; then lambda_1 = 1/xi - delta. K + delta M is factorized
    once (``_factor``) and its transposed solves give the adjoint
    eigenvalue, which for a symmetric pencil is lambda_1 itself. A
    constant eigenfunction is recognised before any solve. The eigenpair
    must meet a backward error of 1e-12, else IterationFailureError.
    ``iterations`` counts the forward resolvent applications.
    """
    factor = _factors(opmat)
    lam, vec, applications, delta = _principal(
        opmat.weak, opmat.mass, factor, "N", _shift(opmat), tol, max_iters)
    if opmat.symmetric:
        lam_adj = lam
    else:
        lam_adj = _principal(opmat.weak.T, opmat.mass, factor, "T", delta,
                             tol, max_iters)[0]

    resid = (np.max(np.abs(opmat.weak @ vec / opmat.mass - lam * vec))
             / np.max(np.abs(vec)))
    return EigenResult(
        lambda1=lam,
        eigenfunction=vec.reshape(opmat.geometry.grid.shape),
        residual=float(resid),
        iterations=applications,
        positive=bool(np.min(vec) > 0.0),
        adjoint_lambda1=lam_adj,
        warnings=list(opmat.warnings))


def _lowest(opmat, count, factor, sigma):
    """Lowest ``count`` eigenvalues of a symmetric pencil by ARPACK in
    shift-invert mode at ``sigma`` over ``factor(-sigma)``, retried once at
    2 lambda_min - sigma if they land below sigma; and the final sigma."""
    M = sparse.diags(opmat.mass)
    count = min(count, opmat.n - 2)
    v0 = np.ones(opmat.n)

    def lowest(sigma):
        opinv = LinearOperator((opmat.n, opmat.n),
                               matvec=factor(-sigma).solve, dtype=float)
        return np.sort(eigsh(opmat.weak, k=count, M=M, sigma=sigma,
                             which="LM", v0=v0, rng=0, OPinv=opinv,
                             return_eigenvectors=False))

    vals = lowest(sigma)
    if vals[0] < sigma:
        sigma = 2.0 * vals[0] - sigma
        vals = lowest(sigma)
    return vals, sigma


def symmetric_spectrum(opmat, count):
    """Lowest eigenvalues of a symmetric pencil (stiffness vs lumped mass):
    ARPACK in shift-invert mode at sigma = -delta, with the inverse of
    K - sigma M applied through ``_factor``."""
    if not opmat.symmetric:
        raise UnsupportedOperationError(
            "symmetric spectrum requires a symmetric operator kind")
    return _lowest(opmat, count, _factors(opmat), -_shift(opmat))[0]


def morse_index(opmat, tol_index=None):
    """Number of negative eigenvalues of the symmetrized stability form,
    asking for twice as many eigenvalues until one is nonnegative; every
    round starts at the last round's shift and reuses its factor."""
    if not opmat.symmetric:
        raise UnsupportedOperationError("Morse index requires MotsLs or a "
                                        "symmetric custom operator")
    factor, sigma = _factors(opmat), -_shift(opmat)
    k = 8
    while True:
        vals, sigma = _lowest(opmat, k, factor, sigma)
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
    op_L = assemble(mots_spec(geometry, MOTS_L))
    q_max = None if op_L.robin_q is None else float(np.max(op_L.robin_q))
    res_L = principal_eigenvalue(op_L)
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
