"""Numerical audits of the inequality theorems.

Every audit evaluates both sides of one inequality on a concrete
(surface, data) pair, records hypothesis flags with numerical evidence,
reports the margin (rhs - lhs, nonnegative when the inequality is
satisfied), and attaches equality-case residuals. Flag precedence: a
failed hypothesis always dominates the margin sign.

Ambient infima are approximated by declared finite sample sets (surface
nodes, boundary nodes, or collar samples); each report records which.

Every lambda_1 an audit reports comes from ``spectra.principal_eigenvalue``
on an operator assembled from its coefficients (c, drift, q): those of a
stability operator in ``surfaces``, or an audit's own potential c with the
free boundary q on a disk. The audits read the surface geometry alone; the
collar infimum also evaluates the initial data off the surface. Intrinsic
distances (the diameter and the growth-bounds metric ball) come from
Dijkstra on the grid's 8-neighbour metric edge graph.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from . import grids, initialdata as idata, spectra, surfaces
from .errors import TopologyError, UnsupportedOperationError
from .grids import boundary_geodesic_curvature, integrate

HOLDS = "Holds"
VIOLATED = "Violated"
HYPOTHESIS_UNMET = "HypothesisUnmet"
NOT_APPLICABLE = "NotApplicable"


@dataclass
class HypothesisFlag:
    name: str
    satisfied: bool
    evidence: float


@dataclass
class AuditReport:
    theorem_id: str
    lhs: float
    rhs: float
    margin: float
    hypothesis_flags: list
    equality_diagnostics: list
    verdict: str
    notes: str = ""
    extras: dict = field(default_factory=dict)

    def flag(self, name):
        for f in self.hypothesis_flags:
            if f.name == name:
                return f
        raise KeyError(name)


def _finish(theorem_id, lhs, rhs, flags, diagnostics, notes="", extras=None,
            not_applicable=False):
    lhs = float(lhs)
    rhs = float(rhs)
    margin = rhs - lhs
    tol = 1e-6 * max(1.0, abs(rhs))
    if not_applicable:
        verdict = NOT_APPLICABLE
    elif not all(f.satisfied for f in flags):
        verdict = HYPOTHESIS_UNMET
    elif margin < -tol:
        verdict = VIOLATED
    else:
        verdict = HOLDS
    return AuditReport(theorem_id, lhs, rhs, margin, flags, diagnostics,
                       verdict, notes, extras or {})


def _principal_or_error(geom, coefficients):
    """Principal eigenpair of the operator whose (c, drift, q) the
    ``surfaces`` function ``coefficients`` gives on ``geom``, or the error
    that leaves it undefined."""
    try:
        return spectra.principal_eigenvalue(
            spectra.assemble(geom, *coefficients(geom)))
    except (UnsupportedOperationError, ValueError) as err:
        return err


def _lambda1_or_nan(geom, coefficients):
    res = _principal_or_error(geom, coefficients)
    return float("nan") if isinstance(res, Exception) else res.lambda1


# ---------------------------------------------------------------------------
# intrinsic distances: Dijkstra on the grid's metric edge graph


def _edge_graph(metric):
    """Symmetric sparse graph of 8-neighbor metric edge lengths on the
    grid."""
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
    # each edge in both directions, so the searches run directed; a zero
    # length stays an explicit edge
    rows, cols = np.concatenate(rows + cols), np.concatenate(cols + rows)
    lengths = np.concatenate(lengths + lengths)
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


# relative margin on the eccentricity bounds of intrinsic_diameter
_ECC_MARGIN = 1e-9


def intrinsic_diameter(metric):
    """Intrinsic diameter estimate from Dijkstra on the 8-neighbor edge graph.

    The largest finite graph distance from a fixed sample of source nodes
    (``_diameter_sources``), that is the largest eccentricity ecc(s) of a
    sample source. Graph distances are consistent only along grid lines
    (ROADMAP item 13). Where a diameter runs along them the estimate is too
    long at first order: the unit round sphere gives 3.1821, 3.1636 and
    3.1533 at 32x64, 64x128 and 128x256 against pi, and the flat unit disk
    2.0071 at 64x128. Elsewhere the error stalls: the unit sphere charted
    about a point (0.3, 0.2, 0.1) from its centre reads diameter - pi =
    0.0469, 0.0319, 0.0236 and 0.0228 at 16x32 ... 128x256.

    Not every source is searched. A search from s' gives ecc(s') and
    d(s', s) for every source s, and the triangle inequality bounds
    ecc(s) <= ecc(s') + d(s', s). Each source's bound is the least of
    these over the sources searched so far (infinite while none reaches
    it), raised by a relative 1e-9, and the next search starts from the
    source with the largest bound (the first of equal ones). The loop ends
    when every bound lies strictly below the largest eccentricity found.
    The margin covers the rounding of the searches' path sums (relative
    n_nodes * 2^-53 at most, 4e-12 at 128x256), so a skipped source's
    computed eccentricity lies below that largest one, and the result is
    the maximum over all sample sources to the bit. A round sphere, where
    every source is as far from its antipode, skips none.
    """
    graph = _edge_graph(metric)
    sources = _diameter_sources(metric.grid)
    bound = np.full(sources.size, np.inf)
    best = -np.inf
    while True:
        i = int(np.argmax(bound))
        if bound[i] < best:
            return float(best)
        dist = _csgraph_dijkstra(graph, indices=sources[i])
        ecc = float(np.max(dist[np.isfinite(dist)]))
        best = max(best, ecc)
        bound = np.minimum(bound, (ecc + dist[sources]) * (1.0 + _ECC_MARGIN))
        bound[i] = -np.inf


def ball_profile(metric, source_node):
    """Geodesic distances from one node, for metric-ball areas and integrals."""
    return _csgraph_dijkstra(_edge_graph(metric), indices=source_node)


# ---------------------------------------------------------------------------
# H-stable surface estimates


def audit_cy_estimate(geom):
    """Hawking-mass type estimate for volume-preserving H-stable spheres:

        1 + (1/24pi) int theta+ theta- >= (1/12pi) int (mu + J(N)
            - theta+ k(N,N) - 2 (theta+/H) grad_N P).

    Degenerate mean curvature (H and P both ~ 0, the horizon case) makes
    the theta+/H term undefined and yields NotApplicable.
    """
    if geom.grid.topology != grids.SPHERE:
        raise TopologyError("the estimate applies to sphere topology")
    h_scale = max(1.0, float(np.max(np.abs(geom.theta_p))),
                  float(np.max(np.abs(geom.theta_m))))
    degenerate = np.max(np.abs(geom.H)) < 1e-8 * h_scale

    spacelike = float(np.min(geom.H - np.abs(geom.P)))
    flags = [HypothesisFlag("spacelike_mean_curvature", spacelike > 0.0,
                            spacelike)]

    extras = {}
    if not degenerate and np.min(geom.H) > 0.0:
        extras["lambda1_hstab_normal"] = _lambda1_or_nan(
            geom, surfaces.hstab_normal_coefficients)

    if degenerate:
        return _finish("cy-estimate", 0.0, 0.0, flags, [],
                       notes="mean curvature vanishes (marginally trapped); "
                             "theta_+/H undefined", extras=extras,
                       not_applicable=True)

    m = geom.metric
    rhs = 1.0 + integrate(m, geom.theta_p * geom.theta_m) / (24.0 * np.pi)
    core = geom.mu + geom.J_N - geom.theta_p * geom.kNN
    grad_term = 2.0 * (geom.theta_p / geom.H) * geom.nabla_N_P
    lhs = integrate(m, core - grad_term) / (12.0 * np.pi)
    lhs_alt = integrate(m, core + grad_term) / (12.0 * np.pi)
    extras["margin_alt_nabla_sign"] = rhs - lhs_alt

    diagnostics = [("max|k_S + A|", float(np.max(np.sqrt(geom.chi_p2)))),
                   ("max|W|", float(np.max(np.sqrt(geom.W2))))]
    notes = ("H-stability in the normal direction is assumed by the theorem "
             "and reported in extras, not flagged; the alternate margin uses "
             "the opposite sign convention for grad_N P")
    return _finish("cy-estimate", lhs, rhs, flags, diagnostics, notes, extras)


def audit_hawking_bound(geom):
    """Hawking energy bound for H-stable spheres in spacetime:

        E_H >= sqrt(|S|)/(48 pi^{3/2}) int G(l+, l-).
    """
    if geom.grid.topology != grids.SPHERE:
        raise TopologyError("the bound applies to sphere topology")
    nec = float(np.min(geom.G_lmlm))
    flags = [HypothesisFlag("null_energy_sampled", nec >= -1e-10, nec)]
    extras = {"min_spacelike_margin": float(np.min(geom.H - np.abs(geom.P)))}
    if np.min(np.abs(geom.theta_m)) > 1e-12:
        extras["lambda1_hstab_lminus"] = _lambda1_or_nan(
            geom, surfaces.hstab_minus_lminus_coefficients)

    rhs = surfaces.hawking_energy(geom)
    lhs = (np.sqrt(geom.area) / (48.0 * np.pi**1.5)
           * integrate(geom.metric, geom.G_lplm))
    diagnostics = [
        ("max|chihat_-|", float(np.max(np.sqrt(geom.chihat_m2)))),
        ("max|W|", float(np.max(np.sqrt(geom.W2)))),
        ("max|G(l-,l-)|", float(np.max(np.abs(geom.G_lmlm)))),
    ]
    notes = ("H-stability with respect to -l_- is assumed by the theorem and "
             "reported in extras, not flagged")
    return _finish("hawking-bound", lhs, rhs, flags, diagnostics, notes,
                   extras)


# ---------------------------------------------------------------------------
# stable MOTS estimates


def audit_cohn_vossen(geom, theta_tol=surfaces.THETA_TOL,
                      stab_tol=surfaces.STAB_TOL):
    """Cohn-Vossen type bound for complete non-compact stable MOTS:

        int (mu + J(N)) dmu <= 2 pi.

    Compact grids truncate the theorem's non-compact surface; the report
    records that the audit is indicative (a lower bound of the full
    integral when the integrand is nonnegative). min(mu - |J|) counts as
    positive only above its floor (``_dec_floor``); the note names a
    minimum that is not 0.0 but within it.
    """
    max_tp = float(np.max(np.abs(geom.theta_p)))
    is_mots = max_tp < theta_tol
    lam1 = float("nan")
    if is_mots:
        lam1 = _lambda1_or_nan(geom, surfaces.mots_coefficients)
    stable = is_mots and np.isfinite(lam1) and lam1 >= -stab_tol

    dec_min = float(np.min(geom.mu - geom.j_norm))
    floor = _dec_floor(geom)

    flags = [
        HypothesisFlag("is_mots", is_mots, max_tp),
        HypothesisFlag("stable", stable, lam1),
        HypothesisFlag("dec_strictly_positive", dec_min > floor, dec_min),
    ]
    lhs = integrate(geom.metric, geom.mu + geom.J_N)
    notes = ("surface is a compact truncation of the theorem's non-compact "
             "Sigma; the integral is monotone under enlargement for "
             "nonnegative integrands"
             + _zero_notes((("mu - |J|", dec_min, floor),)) + ".")
    return _finish("cohn-vossen", lhs, 2.0 * np.pi, flags, [], notes,
                   extras={"lambda1_L": lam1})


def audit_growth_bounds(geom, a, c=None, q_field=None,
                        stab_tol=surfaces.STAB_TOL):
    """Distance bound and area-growth bound for surfaces with a
    nonnegative operator -Laplace + a K - c (resp. - q).

    With ``c`` given the distance estimate is audited:
        diam <= pi sqrt((1 + 1/(4a-1)) a / c);
    with ``q_field`` given the area-growth estimate is audited:
        (8a^2/(4a-1)) |B(x0,R')|/R^2 + (1 - R'/R)^2 int_B q
            <= 2 pi a (1 - R'/R)^{2/(1-4a)},
    centred at node 0, with R the distance from it to the boundary on a
    disk (0.9 of the largest distance on a sphere) and R' = R/2.
    """
    a = float(a)
    if a <= 0.25:
        raise ValueError("the growth bounds require a > 1/4")
    if (c is None) == (q_field is None):
        raise ValueError("provide exactly one of c or q_field")

    m = geom.metric
    if q_field is None:
        c = float(c)
        if c <= 0.0:
            raise ValueError("the distance bound requires c > 0")
        pot = a * geom.K - c
    else:
        q_field = np.broadcast_to(np.asarray(q_field, dtype=float),
                                  geom.grid.shape)
        pot = a * geom.K - q_field
    op = spectra.assemble(geom, pot, q=surfaces.free_boundary_q(geom))
    lam1 = spectra.principal_eigenvalue(op).lambda1
    flags = [HypothesisFlag("operator_nonnegative", lam1 >= -stab_tol, lam1)]

    if q_field is None:
        lhs = intrinsic_diameter(m)
        rhs = np.pi * np.sqrt((1.0 + 1.0 / (4.0 * a - 1.0)) * a / c)
        notes = ("distance bound: the intrinsic diameter stands in for "
                 "sup_p dist(p, boundary)")
        extras = {"lambda1_operator": lam1}
        return _finish("growth-bounds", lhs, rhs, flags, [], notes, extras)

    dist = ball_profile(m, 0)
    if geom.grid.topology == grids.DISK:
        R = float(np.min(dist[geom.grid.boundary_index]))
    else:
        R = 0.9 * float(np.max(dist[np.isfinite(dist)]))
    Rp = 0.5 * R
    inside = (dist <= Rp).reshape(geom.grid.shape)
    ball_area = float(np.sum(geom.metric.dmu[inside]))
    q_ball = float(np.sum((q_field * geom.metric.dmu)[inside]))
    frac = 1.0 - Rp / R
    lhs = (8.0 * a**2 / (4.0 * a - 1.0)) * ball_area / R**2 + frac**2 * q_ball
    rhs = 2.0 * np.pi * a * frac ** (2.0 / (1.0 - 4.0 * a))
    extras = {"lambda1_operator": lam1, "R": R, "Rprime": Rp,
              "ball_area": ball_area, "ball_q_integral": q_ball}
    notes = "area-growth bound on the metric ball B(x0, R')"
    return _finish("growth-bounds", lhs, rhs, flags, [], notes, extras)


# ---------------------------------------------------------------------------
# the scalar G quantity and its topology consequences


def compute_G_quantity(geom):
    """G(Sigma) = -3/4 theta+ theta- + 1/2 G(l+,l-)
    - (theta+ / 2 theta-) G(l-,l-)."""
    if np.min(np.abs(geom.theta_m)) < 1e-12:
        raise UnsupportedOperationError("theta_- vanishes somewhere")
    return (-0.75 * geom.theta_p * geom.theta_m + 0.5 * geom.G_lplm
            - geom.theta_p / (2.0 * geom.theta_m) * geom.G_lmlm)


def audit_theorem_481(geom, stab_tol=surfaces.STAB_TOL):
    """Report on the topology consequences of H-stability in the -l_-
    direction: the sign of lambda_1 of the operator
    -Laplace + K + (theta+/2 theta-) |chihat_-|^2 - G(Sigma), whose
    potential is ``surfaces.qbar_potential``, the case constant inf G, and
    the informational topology claims.
    """
    min_g = float(np.min(compute_G_quantity(geom)))
    op = spectra.assemble(geom, surfaces.qbar_potential(geom),
                          q=surfaces.free_boundary_q(geom))
    lam1 = spectra.principal_eigenvalue(op).lambda1

    min_tm = float(np.min(np.abs(geom.theta_m)))
    lam1_hstab = _lambda1_or_nan(geom,
                                 surfaces.hstab_minus_lminus_coefficients)
    flags = [
        HypothesisFlag("theta_minus_nonvanishing", min_tm > 1e-12, min_tm),
        HypothesisFlag("hstable_lminus_certified", lam1_hstab >= -stab_tol,
                       lam1_hstab),
    ]
    if min_g > 0.0:
        claim = ("consistent with case (1): G >= c > 0, so a complete "
                 "surface is compact and topologically S^2 or RP^2")
    elif min_g >= -1e-10:
        claim = ("consistent with case (2): G >= 0, at most quadratic area "
                 "growth of the universal cover and integrable G; infinite "
                 "fundamental group would force chihat_- = 0 and G = 0 "
                 "(cylinder, Moebius strip, torus, or Klein bottle)")
    else:
        claim = "G changes sign; no topology case applies"
    extras = {"min_G": min_g, "lambda1_tilde_L": lam1}
    return _finish("g-quantity", 0.0, lam1, flags, [],
                   notes="topology claims are the source theorems', keyed to "
                         "the certified hypotheses: " + claim,
                   extras=extras)


# ---------------------------------------------------------------------------
# free boundary MOTS estimates


def _free_boundary_flags(geom, theta_tol, stab_tol):
    """Hypothesis flags of a free boundary stable MOTS, the largest
    contact-angle deviation from pi/2, and the principal eigenpair of the
    Robin MOTS operator L (or the error that leaves it undefined)."""
    b = geom.boundary
    gamma_dev = float(np.max(np.abs(b.gamma - 0.5 * np.pi)))
    max_tp = float(np.max(np.abs(geom.theta_p)))
    is_mots = max_tp < theta_tol
    res_L = _principal_or_error(geom, surfaces.mots_coefficients)
    lam1 = float("nan") if isinstance(res_L, Exception) else res_L.lambda1
    stable = is_mots and np.isfinite(lam1) and lam1 >= -stab_tol
    pi_max = float(np.max(b.Pi_NN))
    flags = [
        HypothesisFlag("is_mots", is_mots, max_tp),
        HypothesisFlag("stable", stable, lam1),
        HypothesisFlag("Pi_NN_nonpositive", pi_max <= 1e-10, pi_max),
    ]
    return flags, gamma_dev, res_L


def audit_I_sigma(geom, theta_tol=surfaces.THETA_TOL,
                  stab_tol=surfaces.STAB_TOL):
    """Area-boundary functional bound for free boundary stable MOTS:

        I(Sigma) = |Sigma| inf (mu + J(N)) + |dSigma| inf (H_dM - <W, nu>)
                 <= 2 pi chi(Sigma).
    """
    if geom.grid.topology != grids.DISK:
        raise TopologyError("I(Sigma) requires a surface with boundary")
    flags, gamma_dev, res_L = _free_boundary_flags(geom, theta_tol, stab_tol)
    if gamma_dev > 1e-6:
        return _finish("area-boundary", 0.0, 0.0, flags, [],
                       notes=f"capillary input (max |gamma - pi/2| = "
                             f"{gamma_dev:.2e}); the functional is stated "
                             "for free boundaries",
                       not_applicable=True)
    if isinstance(res_L, Exception):
        raise res_L

    b = geom.boundary
    inf_mu = float(np.min(geom.mu + geom.J_N))
    inf_bd = float(np.min(b.H_dM - b.W_nu))
    blen = geom.boundary_length()
    lhs = geom.area * inf_mu + blen * inf_bd
    chi = 1.0
    rhs = 2.0 * np.pi * chi

    kappa = boundary_geodesic_curvature(geom.metric)
    chi_gb = grids.total_curvature(geom.metric, geom.K) / (2.0 * np.pi)

    # equality diagnostics per the rigidity case
    res_Ls = spectra.principal_eigenvalue(spectra.assemble(
        geom, *surfaces.symmetrized_coefficients(geom)))
    phi = res_L.eigenfunction
    logphi = np.log(np.maximum(phi, 1e-300))
    dlog = np.stack([grids.d_u(geom.grid, logphi, 1.0),
                     grids.d_v(geom.grid, logphi)])
    w_gap = float(np.max(np.sqrt(geom.metric.norm2_covector(
        *(geom.W_cov - dlog)))))
    diagnostics = [
        ("max|chi_+|", float(np.max(np.sqrt(geom.chi_p2)))),
        ("max|Q|", float(np.max(np.abs(geom.Q)))),
        ("max|W - grad log phi|", w_gap),
        ("max|q - <W,nu>|", float(np.max(np.abs(b.Pi_NN - b.W_nu)))),
        ("kappa constancy", float(np.max(kappa) - np.min(kappa))),
        ("|lambda1_Ls| + |lambda1_L|",
         abs(res_Ls.lambda1) + abs(res_L.lambda1)),
    ]
    extras = {"area": geom.area, "boundary_length": blen,
              "inf_mu_plus_JN": inf_mu, "inf_HdM_minus_Wnu": inf_bd,
              "chi_gauss_bonnet": chi_gb, "lambda1_L": res_L.lambda1,
              "lambda1_Ls": res_Ls.lambda1}
    notes = ("infima over grid samples (surface nodes, boundary nodes); "
             "chi from disk topology, cross-checked by Gauss-Bonnet")
    return _finish("area-boundary", lhs, rhs, flags, diagnostics, notes,
                   extras)


def audit_index_bounds(genus, boundary_components, index_s, c=None,
                       area=None):
    """Pure arithmetic audit of the low-index consequences: index one
    forces l < 10 (even genus) or l < 14 (odd genus), and with
    mu - |J| >= c > 0 the area satisfies
    |Sigma| <= 2 pi (7 - (-1)^g - l) / c. The area bound is audited when
    both c and area are given; one of them alone raises ValueError.
    """
    g = int(genus)
    l = int(boundary_components)
    i_s = int(index_s)
    if l < 1:
        raise ValueError("at least one boundary component required")
    if g < 0:
        raise ValueError("genus must be nonnegative")

    flags = [HypothesisFlag("index_is_one", i_s == 1, float(i_s))]
    bound_l = 10 if g % 2 == 0 else 14
    margin_l = float(bound_l - 1 - l)
    extras = {"boundary_bound": bound_l, "margin_boundary_count": margin_l}
    not_applicable = i_s != 1

    if (c is None) != (area is None):
        raise ValueError("the area bound needs both c and area")
    if c is not None:
        c = float(c)
        area = float(area)
        flags.append(HypothesisFlag("dec_constant_positive", c > 0.0, c))
        rhs_area = 2.0 * np.pi * (7.0 - (-1.0) ** g - l) / c if c > 0 else np.nan
        extras["area_bound"] = rhs_area
        lhs, rhs = area, rhs_area
        margin = min(margin_l, rhs_area - area)
        report = _finish("index", lhs, rhs, flags, [],
                         notes=f"boundary-count bound l < {bound_l} audited "
                               "jointly with the area bound",
                         extras=extras, not_applicable=not_applicable)
        report.margin = margin
        if report.verdict in (HOLDS, VIOLATED):
            report.verdict = VIOLATED if margin < -1e-12 else HOLDS
        return report
    return _finish("index", float(l), float(bound_l - 1), flags, [],
                   notes=f"strict integer bound l < {bound_l}",
                   extras=extras, not_applicable=not_applicable)


# an infimum within this share of the size of its terms counts as zero: its
# sign is then the sign of rounding
_ZERO_SHARE = 1e-12


def _dec_floor(geom):
    """Zero floor of inf(mu - |J|): _ZERO_SHARE times the largest sum at a
    node of the absolute terms it is made of, mu, |J| and the terms of
    2 mu = R + (tr k)^2 - |k|^2, with R split by the Gauss equation,
    R = 2 K + 2 Ric(N, N) + |A|^2 - H^2."""
    terms = (np.abs(geom.mu) + geom.j_norm + np.abs(geom.K)
             + np.abs(geom.RicNN)
             + 0.5 * (geom.absA2 + geom.H**2 + geom.trk**2 + geom.absk2))
    return _ZERO_SHARE * float(np.max(terms))


def _boundary_floor(geom):
    """Zero floor of inf(H_dM - <W, nu>): _ZERO_SHARE times the largest sum
    at a boundary node of |k| >= |<W, nu>| and the terms g^ij Pi_ij of
    H_dM, bounded by max |g^kl| times the sum of |Pi_ij| over every
    component of Pi = nabla Nbar, so that the connection terms
    Gamma^k_ij Nbar_k count where g^ij is zero (g^-1 from the orthonormal
    frame N, nu and the unit boundary tangent)."""
    b = geom.boundary
    tau = geom.chart.Fv[:, -1] / np.sqrt(geom.metric.gvv[-1])
    ginv = sum(e[:, None] * e[None, :] for e in (b.normal, b.nu, tau))
    terms = (np.max(np.abs(ginv), axis=(0, 1))
             * np.sum(np.abs(b.shape_op), axis=(0, 1))
             + np.sqrt(geom.absk2[-1]))
    return _ZERO_SHARE * float(np.max(terms))


def _zero_notes(infima):
    """The note on each (name, value, floor) whose value is not 0.0 but
    within its floor, so that it counts as zero."""
    return "".join(
        f"; inf({name}) = {value:.3g} counts as zero (floor {floor:.3g}, "
        f"{_ZERO_SHARE:.0e} of its terms)"
        for name, value, floor in infima
        if value != 0.0 and abs(value) <= floor)


def audit_diameter(geom, theta_tol=surfaces.THETA_TOL,
                   stab_tol=surfaces.STAB_TOL):
    """Diameter and area-boundary estimates for stable free boundary MOTS:

        diam <= min(2 pi / sqrt(3 inf (mu - |J|)),
                    (pi + 8/3) / inf (H_dM - <W, nu>)),
        0 < inf(mu-|J|) H^2(Sigma) + inf(H_dM - <W,nu>) H^1(dSigma)
          <= 2 pi chi.

    An infimum counts as positive above its floor (``_dec_floor``,
    ``_boundary_floor``) and as nonnegative above minus its floor; the
    note names an infimum that is not 0.0 but within its floor.
    """
    if geom.grid.topology != grids.DISK:
        raise TopologyError("the diameter estimate requires a disk")
    flags, gamma_dev, _ = _free_boundary_flags(geom, theta_tol, stab_tol)
    flags.insert(0, HypothesisFlag("free_boundary", gamma_dev <= 1e-6,
                                   gamma_dev))
    b = geom.boundary
    inf1 = float(np.min(geom.mu - geom.j_norm))
    inf2 = float(np.min(b.H_dM - b.W_nu))
    floor1, floor2 = _dec_floor(geom), _boundary_floor(geom)
    pos1, pos2 = inf1 > floor1, inf2 > floor2
    case_i = pos1 and inf2 >= -floor2
    case_ii = inf1 >= -floor1 and pos2
    flags.append(HypothesisFlag("case_i_or_ii", case_i or case_ii,
                                float(max(inf1, inf2))))
    zeros = _zero_notes((("mu - |J|", inf1, floor1),
                         ("H_dM - <W, nu>", inf2, floor2)))
    if not (pos1 or pos2):
        return _finish("diameter", 0.0, 0.0, flags, [],
                       notes="both infima nonpositive; the bound is empty"
                             + zeros,
                       not_applicable=True)

    bound1 = 2.0 * np.pi / np.sqrt(3.0 * inf1) if pos1 else np.inf
    bound2 = (np.pi + 8.0 / 3.0) / inf2 if pos2 else np.inf
    diam = intrinsic_diameter(geom.metric)
    rhs = float(min(bound1, bound2))

    h2 = geom.area
    h1 = geom.boundary_length()
    area_lhs = inf1 * h2 + inf2 * h1
    chi = 1.0
    margin_area = 2.0 * np.pi * chi - area_lhs
    extras = {"diameter": diam, "bound_dec": bound1, "bound_boundary": bound2,
              "hausdorff_2": h2, "hausdorff_1": h1,
              "area_identity_lhs": area_lhs,
              "area_identity_positive": bool(area_lhs > 0.0),
              "margin_area_identity": margin_area,
              "margin_diameter": rhs - diam}
    report = _finish("diameter", diam, rhs, flags, [],
                     notes="infima over surface/boundary node samples; "
                           "both inequalities audited, margin is their "
                           "minimum" + zeros,
                     extras=extras)
    combined = min(report.margin, margin_area,
                   area_lhs - 0.0 if area_lhs > 0 else -1.0)
    report.margin = float(combined)
    if report.verdict in (HOLDS, VIOLATED):
        tol = 1e-6 * max(1.0, abs(rhs))
        report.verdict = VIOLATED if combined < -tol else HOLDS
    return report


def collar_infimum(data, geom, zeta, which="dec"):
    """Minimum of the requested quantity over the straight-line collar
    {F + s N : s in [-zeta, zeta]}, sampled at 11 equispaced s.

    ``which`` selects the dominant-energy margin mu - |J| over the surface
    collar, or H_dM - <W, nu> over the boundary collar (support data
    evaluated at the displaced points, frame transported trivially; a
    first-order approximation for small zeta).
    """
    zeta = float(zeta)
    svals = np.linspace(-zeta, zeta, 11)
    if which == "dec":
        return min(idata.dec_margin(data, geom.F + s * geom.N)
                   for s in svals)
    if which == "boundary":
        if geom.boundary is None:
            raise TopologyError("boundary collar requires a disk surface")
        b = geom.boundary
        support = geom.chart.support
        best = np.inf
        for s in svals:
            jet = idata.evaluate(data, b.points + s * b.normal)
            h = support.mean_curvature(jet)
            wnu = idata.bilinear(jet.k, b.nu, b.normal)
            best = min(best, float(np.min(h - wnu)))
        return best
    raise ValueError(f"unknown collar quantity {which!r}")
