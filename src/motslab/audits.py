"""Numerical audits of the inequality theorems.

Every audit evaluates both sides of one inequality on a concrete
(surface, data) pair, records hypothesis flags with numerical evidence,
reports the margin (rhs - lhs, nonnegative when the inequality is
satisfied), and attaches equality-case residuals. Flag precedence: a
failed hypothesis always dominates the margin sign.

Ambient infima are approximated by declared finite sample sets (surface
nodes, boundary nodes, or collar samples); each report records which.

Every lambda_1 an audit reports comes from ``spectra.principal_eigenvalue``.
The audits read the surface geometry alone; the collar infimum also
evaluates the initial data off the surface.
"""

from dataclasses import dataclass, field

import numpy as np

from . import grids, initialdata as idata, spectra, surfaces
from .errors import TopologyError, UnsupportedOperationError
from .grids import (
    ball_profile,
    boundary_geodesic_curvature,
    boundary_integrate,
    gauss_curvature,
    integrate,
    intrinsic_diameter,
)

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


def _principal_or_error(spec):
    """Principal eigenpair of ``spec``, or the error that leaves it undefined."""
    try:
        return spectra.principal_eigenvalue(spectra.assemble(spec))
    except (UnsupportedOperationError, ValueError) as err:
        return err


def _lambda1_or_nan(spec):
    res = _principal_or_error(spec)
    return float("nan") if isinstance(res, Exception) else res.lambda1


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
            spectra.OperatorSpec(spectra.HSTAB_NORMAL, geom))

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
    if not geom.has_extension:
        return _finish("hawking-bound", 0.0, 0.0, [
            HypothesisFlag("spacetime_extension", False, float("nan"))], [],
            notes="initial data set carries no spacetime extension",
            not_applicable=True)

    nec = float(min(np.min(geom.G_lplp), np.min(geom.G_lmlm)))
    flags = [
        HypothesisFlag("spacetime_extension", True, 1.0),
        HypothesisFlag("null_energy_sampled", nec >= -1e-10, nec),
    ]
    extras = {"min_spacelike_margin": float(np.min(geom.H - np.abs(geom.P)))}
    if np.min(np.abs(geom.theta_m)) > 1e-12:
        extras["lambda1_hstab_lminus"] = _lambda1_or_nan(
            spectra.OperatorSpec(spectra.HSTAB_MINUS_LMINUS, geom))

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


def audit_cohn_vossen(geom, theta_tol=spectra.THETA_TOL,
                      stab_tol=spectra.STAB_TOL):
    """Cohn-Vossen type bound for complete non-compact stable MOTS:

        int (mu + J(N)) dmu <= 2 pi.

    Compact grids truncate the theorem's non-compact surface; the report
    records that the audit is indicative (a lower bound of the full
    integral when the integrand is nonnegative).
    """
    max_tp = float(np.max(np.abs(geom.theta_p)))
    is_mots = max_tp < theta_tol
    lam1 = float("nan")
    if is_mots:
        lam1 = _lambda1_or_nan(spectra.mots_spec(geom))
    stable = is_mots and np.isfinite(lam1) and lam1 >= -stab_tol

    dec_min = float(np.min(geom.mu - geom.j_norm))

    flags = [
        HypothesisFlag("is_mots", is_mots, max_tp),
        HypothesisFlag("stable", stable, lam1),
        HypothesisFlag("dec_strictly_positive", dec_min > 0.0, dec_min),
    ]
    lhs = integrate(geom.metric, geom.mu + geom.J_N)
    notes = ("surface is a compact truncation of the theorem's non-compact "
             "Sigma; the integral is monotone under enlargement for "
             "nonnegative integrands.")
    return _finish("cohn-vossen", lhs, 2.0 * np.pi, flags, [], notes,
                   extras={"lambda1_L": lam1})


def audit_growth_bounds(geom, a, c=None, q_field=None,
                        stab_tol=spectra.STAB_TOL):
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
    op = spectra.assemble(spectra.OperatorSpec(
        spectra.CUSTOM_SYMMETRIC, geom, c_field=pot))
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
    if not geom.has_extension:
        raise UnsupportedOperationError(
            "the G quantity requires a spacetime extension")
    if np.min(np.abs(geom.theta_m)) < 1e-12:
        raise UnsupportedOperationError("theta_- vanishes somewhere")
    return (-0.75 * geom.theta_p * geom.theta_m + 0.5 * geom.G_lplm
            - geom.theta_p / (2.0 * geom.theta_m) * geom.G_lmlm)


def audit_theorem_481(geom, stab_tol=spectra.STAB_TOL):
    """Report on the topology consequences of H-stability in the -l_-
    direction: the sign of lambda_1 of the operator
    -Laplace + K + (theta+/2 theta-) |chihat_-|^2 - G(Sigma), whose
    potential is ``surfaces.qbar_potential``, the case constant inf G, and
    the informational topology claims.
    """
    min_g = float(np.min(compute_G_quantity(geom)))
    op = spectra.assemble(spectra.OperatorSpec(
        spectra.CUSTOM_SYMMETRIC, geom, c_field=surfaces.qbar_potential(geom)))
    lam1 = spectra.principal_eigenvalue(op).lambda1

    min_tm = float(np.min(np.abs(geom.theta_m)))
    lam1_hstab = _lambda1_or_nan(spectra.OperatorSpec(
        spectra.HSTAB_MINUS_LMINUS, geom))
    flags = [
        HypothesisFlag("spacetime_extension", True, 1.0),
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
    res_L = _principal_or_error(spectra.mots_spec(geom))
    lam1 = float("nan") if isinstance(res_L, Exception) else res_L.lambda1
    stable = is_mots and np.isfinite(lam1) and lam1 >= -stab_tol
    pi_max = float(np.max(b.Pi_NN))
    flags = [
        HypothesisFlag("is_mots", is_mots, max_tp),
        HypothesisFlag("stable", stable, lam1),
        HypothesisFlag("Pi_NN_nonpositive", pi_max <= 1e-10, pi_max),
    ]
    return flags, gamma_dev, res_L


def audit_I_sigma(geom, theta_tol=spectra.THETA_TOL,
                  stab_tol=spectra.STAB_TOL):
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
    chi_gb = (integrate(geom.metric, gauss_curvature(geom.metric))
              + boundary_integrate(geom.metric, kappa)) / (2.0 * np.pi)

    # equality diagnostics per the rigidity case
    res_Ls = spectra.principal_eigenvalue(spectra.assemble(
        spectra.mots_spec(geom, spectra.MOTS_LS)))
    phi = res_L.eigenfunction
    logphi = np.log(np.maximum(phi, 1e-300))
    dlog = np.stack([grids.d_u(geom.grid, logphi, 1.0),
                     grids.d_v(geom.grid, logphi)], -1)
    wdiff = geom.W_cov - dlog
    w_gap = float(np.max(np.sqrt(geom.metric.norm2_covector(
        wdiff[..., 0], wdiff[..., 1]))))
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
    |Sigma| <= 2 pi (7 - (-1)^g - l) / c.
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

    if c is not None and area is not None:
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


def audit_diameter(geom, theta_tol=spectra.THETA_TOL,
                   stab_tol=spectra.STAB_TOL):
    """Diameter and area-boundary estimates for stable free boundary MOTS:

        diam <= min(2 pi / sqrt(3 inf (mu - |J|)),
                    (pi + 8/3) / inf (H_dM - <W, nu>)),
        0 < inf(mu-|J|) H^2(Sigma) + inf(H_dM - <W,nu>) H^1(dSigma)
          <= 2 pi chi.
    """
    if geom.grid.topology != grids.DISK:
        raise TopologyError("the diameter estimate requires a disk")
    flags, gamma_dev, _ = _free_boundary_flags(geom, theta_tol, stab_tol)
    flags.insert(0, HypothesisFlag("free_boundary", gamma_dev <= 1e-6,
                                   gamma_dev))
    b = geom.boundary
    inf1 = float(np.min(geom.mu - geom.j_norm))
    inf2 = float(np.min(b.H_dM - b.W_nu))
    case_i = inf1 > 0.0 and inf2 >= 0.0
    case_ii = inf1 >= 0.0 and inf2 > 0.0
    flags.append(HypothesisFlag("case_i_or_ii", case_i or case_ii,
                                float(max(inf1, inf2))))
    if inf1 <= 0.0 and inf2 <= 0.0:
        return _finish("diameter", 0.0, 0.0, flags, [],
                       notes="both infima nonpositive; the bound is empty",
                       not_applicable=True)

    bound1 = 2.0 * np.pi / np.sqrt(3.0 * inf1) if inf1 > 0.0 else np.inf
    bound2 = (np.pi + 8.0 / 3.0) / inf2 if inf2 > 0.0 else np.inf
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
                           "minimum",
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
        collar = (np.moveaxis(geom.F + s * geom.N, -1, 0) for s in svals)
        return min(idata.dec_margin(data, x) for x in collar)
    if which == "boundary":
        if geom.boundary is None:
            raise TopologyError("boundary collar requires a disk surface")
        b = geom.boundary
        support = geom.chart.support
        best = np.inf
        for s in svals:
            jet = idata.evaluate(data, (b.points + s * b.normal).T)
            h = support.mean_curvature(jet)
            wnu = idata.bilinear(jet.k, b.nu.T, b.normal.T)
            best = min(best, float(np.min(h - wnu)))
        return best
    raise ValueError(f"unknown collar quantity {which!r}")
