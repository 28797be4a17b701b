"""Stability operators of MOTS and H-stable surfaces, and their spectra.

The elliptic operators all share the shape L = -Laplace + 2 <W, grad .> +
c(x), with the Robin condition d/dnu phi = q phi on a disk boundary and
none on a closed sphere. An operator is its coefficients: ``assemble``
takes the arrays (c, drift, q) that one function in ``surfaces`` returns
per operator (the same (c, drift) the tests' first-variation oracle
applies), or a caller's own potential c with the free boundary q. A Robin
q > 0 next to a drift breaks the sign hypothesis of the
principal-eigenvalue theorem, and the assembled pencil carries a warning
then.

Assembly is in weak form: the -Laplace block is the discrete Dirichlet
energy, a compact 9-point stencil on the (u, v) chart in which the faces
between rings carry the u-u coefficient, the faces within rings the v-v
coefficient, and the two face families share the mixed u-v terms (exactly symmetric, exact on constants); the Robin data
enters as the boundary term of the integration by parts, and first-order
drift rows are added with node-centered stencils. ``_weak_form`` writes
every entry straight into the CSC structure of the grid's fixed stencil
pattern (``_stencil_pattern``, explicit zeros included), built on each
call. The generalized problem is K phi = lambda M phi with the lumped
area mass M.

The principal eigenvalue of the (generally non-self-adjoint) operator is
real and has the smallest real part, with a one-signed eigenfunction. It
is computed by shift-invert Arnoldi on the positive resolvent: shift by
delta with lambda_1 + delta > 0, factorize K + delta M once, and let
ARPACK find the largest-magnitude eigenvalue xi of x -> (K + delta M)^{-1}
M x, which is lambda_1 = 1/xi - delta. The first delta lies above -min c
by 4 pi / |Sigma|, a part that scales with the surface, since the
iteration converges as |(lambda_1 + delta) / (lambda_2 + delta)|.
Convergence is declared from the backward error of the eigenpair, never
from a stalled ratio. ``principal_eigenvalue`` returns the forward
eigenpair only: no audit reads the adjoint eigenvalue. The eigen command
asks ``adjoint_eigenvalue`` for it, which runs transposed solves on the
forward factor at the forward shift.

Both solves factorize through one helper, ``_factor``: SuperLU of
K + delta M (``_shifted_matrix``: a copy of K with delta M on the
diagonal slots) over the fixed stencil pattern, ordered by minimum
degree on the pattern of A^T + A. The pattern is symmetric, so this
ordering roughly halves the fill of the column ordering (COLAMD) meant
for unsymmetric patterns. The principal eigenvalue and its adjoint get
the factor from ``factors``, which makes it once per shift. Every
audit's lambda_1 is a principal eigenvalue.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, splu
# unused here; perfbench/tracing.py wraps spectra.eigsh, so the name stays
from scipy.sparse.linalg import eigsh  # noqa: F401

from . import grids, surfaces
from .errors import IterationFailureError, TopologyError


@dataclass
class OperatorMatrix:
    """Weak-form operator pencil (K, M) with boundary-condition metadata."""

    weak: sparse.csc_matrix
    mass: np.ndarray
    c: np.ndarray
    symmetric: bool
    robin_q: np.ndarray | None
    geometry: surfaces.SurfaceGeometry
    warnings: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# stencil pattern


def _stencil_blocks(grid):
    """The couplings an assembled operator on ``grid`` can hold, as blocks
    (di, dj, rings): row (i, j) of each ring i in ``rings`` couples to
    column (i + di, j + dj mod n_v). They are the 9-point stencil, the
    antipodal partners (dj = n_v/2 - 1, n_v/2, n_v/2 + 1) of the pole or
    center rings, and the drift column two rings in from the disk boundary
    (di = -2, the one-sided d/du)."""
    n_u, n_v = grid.shape
    half = n_v // 2
    blocks = [(di, dj % n_v, np.arange(max(0, -di), n_u - max(0, di)))
              for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    closure = np.array([0] if grid.topology == grids.DISK else [0, n_u - 1])
    blocks += [(0, half + dj, closure) for dj in (-1, 0, 1)]
    if grid.topology == grids.DISK:
        blocks.append((-2, 0, np.array([n_u - 1])))
    return blocks


def _stencil_pattern(grid):
    """Row and column indices of every coupling of ``_stencil_blocks``, in
    block order. Assembly stores all of them (explicit zeros where entries
    cancel), so this, not the values, is the structure the factorization
    sees."""
    n_v = grid.n_v
    j = np.arange(n_v)
    rows, cols = [], []
    for di, dj, rings in _stencil_blocks(grid):
        rows.append((rings[:, None] * n_v + j).ravel())
        cols.append(((rings + di)[:, None] * n_v + (j + dj) % n_v).ravel())
    return np.concatenate(rows), np.concatenate(cols)


def _weak_form(metric, c, drift_cov, robin_q):
    """K of L = -Laplace + 2 <W, grad .> + c in weak form, written straight
    into the CSC structure of the grid's ``_stencil_pattern``.

    K is the Dirichlet energy (below), plus c M on the diagonal, minus the
    Robin boundary term q dl on the boundary ring when ``robin_q`` is
    given, plus M times the node-centred drift 2 W^u d/du + 2 W^v d/dv when
    ``drift_cov`` is (d/du centred, with antipodal ghosts at the poles or
    center and the one-sided (3, -4, 1) at the disk boundary).

    The Dirichlet energy is the compact 9-point form of int <grad u, grad v>
    with coefficients sqrt(g) g^{-1}: the u-faces (between rings) alone
    carry the uu term and the v-faces (within rings) alone the vv term,
    both with two-point differences; the uv cross terms are averaged over
    the two face families, the v-faces taking the node-centred d/du (its
    antipodal ghosts at the poles or center, the two-ring one-sided
    difference at the disk boundary). The cross terms X enter as X + X^T,
    each entry the sum of the same two numbers as its mirror, so the
    energy is symmetric to the bit, and exact on constants.
    """
    grid = metric.grid
    n_u, n_v = grid.shape
    du, dv = grid.du, grid.dv
    half = n_v // 2
    disk = grid.topology == grids.DISK
    every, lower, upper = slice(None), slice(0, -1), slice(1, None)
    first, last, inner = slice(0, 1), slice(n_u - 1, n_u), slice(1, n_u - 1)
    blocks = _stencil_blocks(grid)
    # K[di, dj][i, j]: the entry of row (i, j) at column (i + di, j + dj)
    K = {(di, dj): np.zeros(grid.shape) for di, dj, _ in blocks}
    # the cross terms stay within the 9-point stencil and the antipodal
    # partners, a set of offsets closed under mirroring
    X = {(di, dj): np.zeros(grid.shape) for di, dj, _ in blocks
         if abs(di) <= 1}

    def add(vals, di, dj, rings, value):
        vals[di, dj % n_v][rings] += value

    kuu = metric.sqrt_det * metric.iuu
    kuv = metric.sqrt_det * metric.iuv
    kvv = metric.sqrt_det * metric.ivv
    w_u = metric.w_u[:, None]

    # uu term on the u-face between rings i and i + 1
    a = dv / du * 0.5 * (kuu[:-1] + kuu[1:])
    add(K, 0, 0, lower, a)
    add(K, 0, 0, upper, a)
    add(K, 1, 0, lower, -a)
    add(K, -1, 0, upper, -a)
    # vv term on the v-face between columns j and j + 1
    cv = w_u / dv * 0.5 * (kvv + np.roll(kvv, -1, axis=1))
    cv_prev = np.roll(cv, 1, axis=1)
    add(K, 0, 0, every, cv + cv_prev)
    add(K, 0, 1, every, -cv)
    add(K, 0, -1, every, -cv_prev)

    # cross term of the u-faces: d/du across the face times the face
    # average of the centred d/dv of its two nodes
    b = (kuv[:-1] + kuv[1:]) / 16.0
    for dj, sign in ((1, -1.0), (-1, 1.0)):
        add(X, 0, dj, lower, sign * b)
        add(X, 1, dj, lower, sign * b)
        add(X, -1, dj, upper, -sign * b)
        add(X, 0, dj, upper, -sign * b)

    # cross term of the v-faces: d/dv across the face times the face
    # average of the node-centred d/du of its two nodes. ``ew`` is the
    # v-face's weight times the coefficient that the d/du of a ring gives
    # the ring above it (minus that on the ring below); ``reach`` puts it
    # on row ring i + di, columns shifted by sigma (n_v/2 for an antipodal
    # ghost).
    ew = w_u * (kuv + np.roll(kuv, -1, axis=1)) / (16.0 * du)
    if disk:
        ew[-1] *= 2.0       # (phi_{n-1} - phi_{n-2}) / du

    def reach(value, di, rings, sigma):
        at_j = np.roll(value, sigma, axis=1)
        at_next = np.roll(value, sigma + 1, axis=1)
        add(X, -di, 1 - sigma, rings, at_j)
        add(X, -di, -sigma, rings, at_next - at_j)
        add(X, -di, -1 - sigma, rings, -at_next)

    reach(ew[:-1], 1, upper, 0)
    reach(-ew[1:], -1, lower, 0)
    reach(-ew[:1], 0, first, half)
    reach(ew[-1:], 0, last, 0 if disk else half)

    # X + X^T; rows outside a block's rings are never read, so the rolls
    # may wrap around in u
    for di, dj in X:
        back = np.roll(X[-di, -dj % n_v], (-di, -dj), axis=(0, 1))
        K[di, dj] += X[di, dj] + back

    mass = metric.dmu
    add(K, 0, 0, every, np.reshape(c, grid.shape) * mass)
    if robin_q is not None:
        add(K, 0, 0, last, -robin_q * metric.boundary_line_element())
    if drift_cov is not None:
        wu, wv = metric.raise_covector(*drift_cov)
        fu, fv = mass * wu / du, mass * wv / dv
        add(K, 0, 1, every, fv)
        add(K, 0, -1, every, -fv)
        add(K, 1, 0, lower, fu[:-1])
        add(K, -1, 0, inner, -fu[inner])
        add(K, 0, half, first, -fu[:1])
        if disk:
            add(K, 0, 0, last, 3.0 * fu[-1:])
            add(K, -1, 0, last, -4.0 * fu[-1:])
            add(K, -2, 0, last, fu[-1:])
        else:
            add(K, 0, half, last, fu[-1:])
            add(K, -1, 0, last, -fu[-1:])

    # CSC: the pattern sorted by column, then row
    n = grid.n_nodes
    rows, cols = _stencil_pattern(grid)
    order = np.argsort(cols * n + rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    values = np.concatenate([K[di, dj][rings].ravel()
                             for di, dj, rings in blocks])
    return sparse.csc_matrix((values[order], rows[order], indptr),
                             shape=(n, n))


# ---------------------------------------------------------------------------
# operator assembly


def assemble(geometry, c, drift=None, q=None):
    """Weak-form pencil of -Laplace + 2 <drift, grad .> + c on ``geometry``,
    with the Robin term of ``q`` (one value per boundary node), which is
    given exactly when the surface has a boundary. A q > 0 somewhere next
    to a drift is recorded as a warning: without a drift the pencil is
    symmetric and lambda_1 is a Rayleigh minimum whatever the sign of q."""
    if (q is None) != (geometry.boundary is None):
        raise TopologyError("Robin data requires a surface with boundary"
                            if q is not None else
                            "a surface with boundary requires Robin data")
    c = np.asarray(c, dtype=float).ravel()
    warnings = []
    if drift is not None and q is not None and np.max(q) > 0.0:
        warnings.append(
            "q > 0 somewhere on the boundary: the sign hypothesis of the "
            "principal-eigenvalue theorem (beta = -q >= 0) is violated")
    return OperatorMatrix(
        weak=_weak_form(geometry.metric, c, drift, q),
        mass=geometry.metric.dmu.ravel(), c=c,
        symmetric=drift is None or np.max(np.abs(drift)) == 0.0,
        robin_q=q, geometry=geometry, warnings=warnings)


# ---------------------------------------------------------------------------
# eigensolvers


@dataclass
class EigenResult:
    lambda1: float
    eigenfunction: np.ndarray
    residual: float         # the eigenpair's backward error
    iterations: int
    positive: bool
    shift: float            # the final delta of K + delta M
    warnings: list


# Arnoldi basis size: scipy's default of 20 would make every eigensolve
# cost at least 21 resolvent applications
_NCV = 6
_ARPACK_TOL = 1e-13     # ARPACK's relative accuracy of the Ritz value
_ARPACK_MAXITER = 10000
_BACKWARD_TOL = 1e-12   # eigenpair backward error that declares convergence
_REAL_TOL = 1e-10       # |Im xi| / |xi| below which xi counts as real
_SHIFT_ATTEMPTS = 8


def _shifted_matrix(opmat, delta):
    """K + delta M in CSC form: a copy of K plus delta M on its diagonal
    slots. An assembled K holds the grid's full stencil pattern (explicit
    zeros where entries cancel), so the factorization's ordering and fill
    depend on the grid alone."""
    shifted = opmat.weak.tocsc(copy=True)
    diagonal = shifted.indices == np.repeat(np.arange(opmat.mass.size),
                                            np.diff(shifted.indptr))
    shifted.data[diagonal] += delta * opmat.mass
    return shifted


def _shift(opmat):
    """First delta of K + delta M: above -min c by 4 pi / |Sigma| (|Sigma|
    the sum of the lumped mass; the lowest nonzero eigenvalue of -Laplace
    on a round sphere is 8 pi / |Sigma|), plus the largest boundary term
    q dl / M of a Robin q > 0 (bounded by max q times max dl / M). The
    resolvent converges as |(lambda_1 + delta) / (lambda_2 + delta)|, so a
    delta that scales with the surface keeps that ratio small on large
    surfaces, where a fixed unit part would sit far above the gap."""
    delta = max(0.0, -float(np.min(opmat.c))) + 4.0 * np.pi / float(
        np.sum(opmat.mass))
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


def factors(opmat):
    """``factor(delta)``: the ``_factor`` of K + delta M, made once per shift
    and held until another shift is asked for (or the caller drops it)."""
    held = {}

    def factor(delta):
        if delta not in held:
            held.clear()
            held[delta] = _factor(opmat, delta)
        return held[delta]

    return factor


def _backward_error(weak, knorm, mass, lam, x):
    """Normwise backward error |Kx - lam Mx| / ((|K| + |lam| |M|) |x|) of an
    eigenpair of the pencil (K, M), in the max norm; ``knorm`` is |K|, the
    largest absolute row sum of ``weak``."""
    resid = np.max(np.abs(weak @ x - lam * (mass * x)))
    return float(resid / ((knorm + abs(lam) * np.max(mass))
                          * np.max(np.abs(x))))


def _principal(weak, mass, factor, trans, delta):
    """Principal eigenpair of the pencil (weak, diag(mass)).

    ``factor(delta)`` returns the SuperLU factor of K + delta M, solved
    with ``trans`` ("T" for the adjoint, where weak = K^T). The constant
    vector is tried first (it is the eigenfunction on horizons, centred
    spheres and flat disks); otherwise ARPACK runs on the resolvent
    x -> (weak + delta M)^{-1} M x, enlarging delta until its dominant
    eigenvalue xi is real and positive with a one-signed eigenvector.
    Returns lambda, the eigenvector scaled to max 1, the number of
    resolvent applications, the final delta, and the pair's backward error.
    """
    knorm = float(abs(weak).sum(axis=1).max())
    ones = np.ones(mass.size)
    lam = float(np.sum(weak @ ones)) / float(np.sum(mass))
    err = _backward_error(weak, knorm, mass, lam, ones)
    if err <= _BACKWARD_TOL:
        return lam, ones, 0, delta, err

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
            vals, vecs = eigs(op, k=1, which="LM", ncv=_NCV, tol=_ARPACK_TOL,
                              maxiter=_ARPACK_MAXITER, v0=ones, rng=0)
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
    err = _backward_error(weak, knorm, mass, lam, vec)
    if err > _BACKWARD_TOL:
        raise IterationFailureError(
            f"principal eigenpair backward error {err:.2e} exceeds "
            f"{_BACKWARD_TOL:.0e}")
    return lam, vec, applications, delta, err


def principal_eigenvalue(opmat, factor=None):
    """Principal eigenvalue and eigenfunction of the pencil (K, M).

    Shift-invert Arnoldi (ARPACK) on the positive resolvent
    (K + delta M)^{-1} M, with delta from ``_shift`` (c + delta > 0 by a
    part that scales with the surface, with room for a Robin q > 0) and
    enlarged while the dominant eigenvalue xi is not real and positive
    with a one-signed eigenvector; then lambda_1 = 1/xi - delta. K + delta
    M is factorized once, through ``factor`` (a ``factors(opmat)``, made
    here when not given; a caller that wants the adjoint eigenvalue passes
    its own and hands it on to ``adjoint_eigenvalue``). A constant
    eigenfunction is recognised before any solve. The eigenpair must meet
    a backward error of 1e-12, else IterationFailureError; ``residual`` is
    that backward error. ``iterations`` counts the resolvent applications
    and ``shift`` is the final delta.
    """
    lam, vec, applications, delta, err = _principal(
        opmat.weak, opmat.mass, factor or factors(opmat), "N", _shift(opmat))
    return EigenResult(
        lambda1=lam,
        eigenfunction=vec.reshape(opmat.geometry.grid.shape),
        residual=err,
        iterations=applications,
        positive=bool(np.min(vec) > 0.0),
        shift=delta,
        warnings=list(opmat.warnings))


def adjoint_eigenvalue(opmat, factor, delta):
    """Principal eigenvalue of the adjoint pencil (K^T, M): the same
    Arnoldi iteration on transposed solves of ``factor(delta)``, the
    factor a ``principal_eigenvalue`` call made at its final shift, so no
    second factorization is made. Equal to lambda_1 up to the solver's
    accuracy; a symmetric pencil is its own adjoint."""
    return _principal(opmat.weak.T, opmat.mass, factor, "T", delta)[0]

