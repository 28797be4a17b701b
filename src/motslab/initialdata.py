"""Analytic catalog of initial data sets (M, g, k) with exact derivatives.

Every entry evaluates the spatial metric g, the extrinsic curvature k, and
their first (and for g, second) coordinate derivatives in closed form at
batched points. The energy and momentum densities are always derived from
the constraint equations

    2 mu = R_g + (tr k)^2 - |k|^2,      J = div(k - (tr k) g),

never supplied by hand, so catalog entries are constraint-consistent by
construction. Each entry's spacetime development is a Lambda-vacuum, whose
Einstein tensor G = -Lambda h the entry gives as the one number
``cosmological_constant``.

``evaluate`` computes the whole ambient jet at a point set (g, its inverse
and derivatives, k, the Christoffel symbols, Ricci, and the
constraint-derived mu, J and |J|) and is the single source of (mu, J) for
every other module. It builds Ricci from contractions of g^-1 with the
second derivatives of g, without forming the derivative of the Christoffel
symbols.

``evaluate`` skips the work on fields that vanish identically. The zero
evaluators that ``_zeros`` makes carry the function attribute
``vanishes``, which survives ``functools.wraps`` (a timing wrapper copies
it). When dg and ddg are both marked (a constant metric: Minkowski,
Painleve-Gullstrand, the de Sitter flat slice), Gamma, d g^-1, Ric and R
are zero fields and ddg is never evaluated. When k and dk are both marked
(time-symmetric data: Minkowski, isotropic Schwarzschild), so are tr k,
|k|^2, d tr k and J.

Conformally flat metrics g = psi^4 delta (isotropic Schwarzschild) are
written once, as the jet of psi: ``conformally_flat`` returns the g, dg and
ddg evaluators, each carrying the jet evaluator as the function attribute
``psi``, which ``functools.wraps`` copies like ``vanishes``. When g, dg and
ddg all carry the same psi, ``evaluate`` calls psi's jet once and forms
Gamma, d g^-1 and Ric in closed form from it, and never calls g, dg or
ddg. Any unmarked evaluator, or one marked with another psi, takes the
general path.

Index conventions are component-major, batch last: points are
``x[i, ...]``, and ``g[i, j, ...]``, ``dg[m, i, j, ...] = d_m g_ij``,
``ddg[l, m, i, j, ...] = d_l d_m g_ij``, ``dk[m, i, j, ...] = d_m k_ij``.
Every contraction is a two-operand ``np.einsum`` whose inner loop runs over
the contiguous node axis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, DomainError, InvalidInputError

# ---------------------------------------------------------------------------
# initial data sets


class InitialData:
    """An analytic initial data set.

    ``params`` are the entry's named parameters, ``g``, ``dg``, ``ddg``,
    ``k`` and ``dk`` closed-form evaluator callables over batched points
    ``x[i, ...]``, ``in_domain`` the evaluator of the chart domain, and
    ``cosmological_constant`` the Lambda of its Lambda-vacuum spacetime
    development, whose Einstein tensor is G = -Lambda h.
    """

    def __init__(self, name, params, g, dg, ddg, k, dk, in_domain,
                 cosmological_constant):
        self.name = name
        self.params = dict(params)
        self.g = g
        self.dg = dg
        self.ddg = ddg
        self.k = k
        self.dk = dk
        self.in_domain = in_domain
        self.cosmological_constant = cosmological_constant

    def __repr__(self):
        pstr = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"InitialData({self.name}{':' if pstr else ''}{pstr})"

    def check_domain(self, x):
        ok = self.in_domain(np.asarray(x, dtype=float))
        if not np.all(ok):
            raise DomainError(f"point outside domain of {self.name}")


def _delta(value, batch):
    """value * delta_ij: two component axes after the leading axes of
    ``value`` and before the trailing ``batch`` axes."""
    value = np.asarray(value, dtype=float)
    lead = value.shape[:max(value.ndim - len(batch), 0)]
    out = np.zeros(lead + (3, 3) + batch)
    for a in range(3):
        out[(slice(None),) * len(lead) + (a, a)] = value
    return out


def _zero(shape):
    """A read-only zero field of ``shape`` that holds no memory."""
    return np.broadcast_to(0.0, shape)


def _zeros(rank):
    """Evaluator of the zero field with ``rank`` component axes, marked
    ``vanishes`` for ``evaluate``. The mark is a function attribute
    because ``functools.wraps`` copies the wrapped function's ``__dict__``,
    so a timing wrapper keeps it."""
    def zero(x):
        return _zero((3,) * rank + np.shape(x)[1:])

    zero.vanishes = True
    return zero


def _vanish(*evaluators):
    """Whether every evaluator is marked as the zero field."""
    return all(getattr(f, "vanishes", False) for f in evaluators)


def _norm(x):
    return np.sqrt(np.einsum("i...,i...->...", x, x))


def _everywhere(x):
    return np.ones(np.shape(x)[1:], dtype=bool)


def minkowski_flat():
    """Flat slice of Minkowski space: g = delta, k = 0."""
    return InitialData(
        name="minkowski_flat", params={},
        g=lambda x: _delta(1.0, np.shape(x)[1:]), dg=_zeros(3), ddg=_zeros(4),
        k=_zeros(2), dk=_zeros(3), in_domain=_everywhere,
        cosmological_constant=0.0,
    )


def hyperboloidal_flat(scale=1.0):
    """Flat slice of de Sitter space: g = c delta, k = c delta (c = scale).

    The constraints give mu = 3 and J = 0 for every c > 0: the development
    is de Sitter space with unit Hubble rate, the Lambda-vacuum with
    Lambda = 3, whose Einstein tensor is G = -3 h.
    """
    c = float(scale)
    if not c > 0.0:
        raise ValueError("scale must be positive")

    def g(x):
        return _delta(c, np.shape(x)[1:])

    return InitialData(
        name="hyperboloidal_flat", params={"scale": c},
        g=g, dg=_zeros(3), ddg=_zeros(4), k=g, dk=_zeros(3),
        in_domain=_everywhere,
        cosmological_constant=3.0,
    )


def conformally_flat(psi):
    """Evaluators g, dg, ddg of the conformally flat metric g = psi^4 delta.

    ``psi`` evaluates the jet of the conformal factor at points
    ``x[i, ...]``: the triple (psi, d_m psi, d_l d_m psi), component-major.
    Each evaluator carries ``psi`` as the function attribute ``psi``
    (copied by ``functools.wraps``, like ``vanishes``), from which
    ``evaluate`` builds the curvature of the metric in closed form.
    """
    def g(x):
        p, _, _ = psi(np.asarray(x, dtype=float))
        return _delta(p**4, p.shape)

    def dg(x):
        p, dp, _ = psi(np.asarray(x, dtype=float))
        return _delta(4.0 * p**3 * dp, p.shape)

    def ddg(x):
        p, dp, ddp = psi(np.asarray(x, dtype=float))
        return _delta(12.0 * p**2 * dp[:, None] * dp[None, :]
                      + 4.0 * p**3 * ddp, p.shape)

    for f in (g, dg, ddg):
        f.psi = psi
    return g, dg, ddg


def _conformal_psi(*evaluators):
    """The conformal factor's jet evaluator that all of ``evaluators``
    carry, or None when one of them carries none or another one."""
    psi = getattr(evaluators[0], "psi", None)
    same = all(getattr(f, "psi", None) is psi for f in evaluators)
    return psi if same else None


def schwarzschild_isotropic(mass=1.0, excision_factor=0.05):
    """Time-symmetric Schwarzschild slice in isotropic coordinates.

    g = psi^4 delta with psi = 1 + m/(2r), k = 0. The horizon is the
    coordinate sphere r = m/2. A ball r < excision_factor * m around the
    puncture is excluded from the chart domain.
    """
    m = float(mass)
    if not m > 0.0:
        raise ValueError("mass must be positive")
    r_min = excision_factor * m

    def psi(x):
        r = _norm(x)
        ddpsi = (1.5 * m / r**5) * x[:, None] * x[None, :]
        for a in range(3):
            ddpsi[a, a] -= 0.5 * m / r**3
        return 1.0 + 0.5 * m / r, (-0.5 * m / r**3) * x, ddpsi

    g, dg, ddg = conformally_flat(psi)
    return InitialData(
        name="schwarzschild_isotropic", params={"m": m},
        g=g, dg=dg, ddg=ddg, k=_zeros(2), dk=_zeros(3),
        in_domain=lambda x: _norm(np.asarray(x, dtype=float)) > r_min,
        cosmological_constant=0.0,
    )


def schwarzschild_pg(mass=1.0, excision_factor=0.05):
    """Painleve-Gullstrand slice of Schwarzschild: flat g, nonzero k.

    k_ij = -sqrt(2m) (delta_ij r^{-3/2} - (3/2) x_i x_j r^{-7/2}). The sign
    is the ingoing slicing, placing the marginally trapped sphere for the
    outward normal at areal radius r = 2m.
    """
    m = float(mass)
    if not m > 0.0:
        raise ValueError("mass must be positive")
    r_min = excision_factor * 2.0 * m
    s2m = np.sqrt(2.0 * m)

    def k(x):
        x = np.asarray(x, dtype=float)
        r = _norm(x)
        out = (1.5 * s2m / r**3.5) * x[:, None] * x[None, :]
        for a in range(3):
            out[a, a] -= s2m / r**1.5
        return out

    def dk(x):
        # dk[l, i, j] = -sqrt(2m) (21/4 x_l x_i x_j r^{-11/2}
        #     - 3/2 (delta_ij x_l + delta_il x_j + delta_jl x_i) r^{-7/2})
        x = np.asarray(x, dtype=float)
        r = _norm(x)
        out = ((-5.25 * s2m / r**5.5) * x[:, None, None] * x[None, :, None]
               * x[None, None, :])
        u = (1.5 * s2m / r**3.5) * x
        for a in range(3):
            out[:, a, a] += u
            out[a, :, a] += u
            out[a, a] += u
        return out

    data = InitialData(
        name="schwarzschild_pg", params={"m": m},
        g=lambda x: _delta(1.0, np.shape(x)[1:]), dg=_zeros(3), ddg=_zeros(4),
        k=k, dk=dk,
        in_domain=lambda x: _norm(np.asarray(x, dtype=float)) > r_min,
        cosmological_constant=0.0,
    )
    return data


def catalog():
    """Default catalog instances."""
    return [
        minkowski_flat(),
        schwarzschild_isotropic(1.0),
        hyperboloidal_flat(),
        schwarzschild_pg(1.0),
    ]


# CLI name -> (constructor, {spec key: constructor keyword})
_CLI_NAMES = {
    "minkowski": (minkowski_flat, {}),
    "minkowski-flat": (minkowski_flat, {}),
    "hyperboloidal": (hyperboloidal_flat, {"scale": "scale"}),
    "hyperboloidal-flat": (hyperboloidal_flat, {"scale": "scale"}),
    "schwarzschild-iso": (schwarzschild_isotropic, {"m": "mass"}),
    "schwarzschild-pg": (schwarzschild_pg, {"m": "mass"}),
}


def spec_params(name, text, known=None):
    """The ``key=value`` pairs of a spec's parameter text, as strings.

    With ``known``, a key outside it raises InvalidInputError, so a typo
    cannot silently fall back to a default. A key given twice raises it
    too, so neither value silently wins.
    """
    params = {}
    if text:
        for item in text.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key in params:
                raise InvalidInputError(f"{name}: {key} given twice")
            params[key] = val.strip()
    if known is not None:
        for key in params:
            if key not in known:
                raise InvalidInputError(
                    f"{name} takes no parameter {key!r}; it takes "
                    f"{', '.join(sorted(known)) or 'none'}")
    return params


def resolve(spec):
    """Resolve a CLI data spec string like ``schwarzschild-iso:m=1.0``."""
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name not in _CLI_NAMES:
        raise ValueError(f"unknown initial data set {name!r}; "
                         f"known: {sorted(_CLI_NAMES)}")
    make, keywords = _CLI_NAMES[name]
    params = spec_params(name, rest, keywords)
    for key, val in params.items():
        if not np.isfinite(float(val)):
            raise InvalidInputError(f"{name} parameter {key} must be finite")
    return make(**{keywords[key]: float(val) for key, val in params.items()})


# ---------------------------------------------------------------------------
# curvature and constraint evaluation


@dataclass(frozen=True)
class AmbientJet:
    """The ambient fields of an initial data set at one batched point set,
    component-major: ``gam[i, j, k, ...] = Gamma^i_jk``,
    ``dginv[m, i, j, ...] = d_m g^ij``, ``dtrk[m, ...] = d_m tr k``;
    ``absk2`` is |k|^2 and ``j_norm`` is |J|_g.
    """

    x: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    k: np.ndarray
    dk: np.ndarray
    gam: np.ndarray
    dginv: np.ndarray
    ric: np.ndarray
    R: np.ndarray
    trk: np.ndarray
    absk2: np.ndarray
    dtrk: np.ndarray
    mu: np.ndarray
    J: np.ndarray
    j_norm: np.ndarray


def dot(a, b):
    """a_i b^i over the leading component axis."""
    return np.einsum("i...,i...->...", a, b)


def mat_vec(M, b):
    """(M b)_i = M_ij b^j over the leading component axes."""
    return np.einsum("ij...,j...->i...", M, b)


def bilinear(M, a, b):
    """M(a, b) = M_ij a^i b^j for component-major fields and vectors."""
    return dot(a, mat_vec(M, b))


def _inverse(g):
    """Inverse of a symmetric 3x3 field g[i, j, ...], cofactors over det.

    Raises DegenerateMetricError at the first point where g is not positive
    definite (a leading principal minor <= 0, Sylvester's criterion) or the
    inverse is not finite, so NaN or Inf never leave this function.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        c00 = g[1, 1] * g[2, 2] - g[1, 2] ** 2
        c01 = g[0, 2] * g[1, 2] - g[0, 1] * g[2, 2]
        c02 = g[0, 1] * g[1, 2] - g[0, 2] * g[1, 1]
        c11 = g[0, 0] * g[2, 2] - g[0, 2] ** 2
        c12 = g[0, 1] * g[0, 2] - g[0, 0] * g[1, 2]
        c22 = g[0, 0] * g[1, 1] - g[0, 1] ** 2
        det = g[0, 0] * c00 + g[0, 1] * c01 + g[0, 2] * c02
        ginv = np.stack([c00, c01, c02, c01, c11, c12, c02, c12, c22])
        ginv = ginv.reshape((3, 3) + det.shape) / det
    ok = ((g[0, 0] > 0.0) & (c22 > 0.0) & (det > 0.0)
          & np.isfinite(ginv).all(axis=(0, 1)))
    if not np.all(ok):
        node = tuple(int(i) for i in np.argwhere(~ok)[0])
        raise DegenerateMetricError(
            node, f"ambient g_00={g[(0, 0) + node]:.3e} det={det[node]:.3e}")
    return ginv


def _conformal_curvature(psi, dpsi, ddpsi):
    """Gamma^i_jk, d_m g^ij and Ric_jk of g = psi^4 delta from the jet of
    psi, component-major:

        Gamma^i_jk = 2 psi^-1 (delta^i_j d_k psi + delta^i_k d_j psi
                               - delta_jk d_i psi),
        d_m g^ij = -4 psi^-5 d_m psi delta^ij,
        Ric_jk = -2 psi^-1 d_j d_k psi + 6 psi^-2 d_j psi d_k psi
                 - delta_jk (2 psi^-1 Laplace psi + 2 psi^-2 |d psi|^2).
    """
    batch = psi.shape
    inv = 1.0 / psi
    u = (2.0 * inv) * dpsi
    gam = np.zeros((3, 3, 3) + batch)
    for a in range(3):
        gam[a, a] += u
        gam[a, :, a] += u
        gam[:, a, a] -= u
    dginv = _delta(-4.0 * inv**5 * dpsi, batch)
    ric = (6.0 * inv**2) * dpsi[:, None] * dpsi[None, :] - (2.0 * inv) * ddpsi
    trace = (2.0 * inv) * (ddpsi[0, 0] + ddpsi[1, 1] + ddpsi[2, 2]) \
        + (2.0 * inv**2) * dot(dpsi, dpsi)
    for a in range(3):
        ric[a, a] -= trace
    return gam, dginv, ric


def evaluate(data, x):
    """Evaluate the ambient jet of ``data`` at points ``x[i, ...]``.

    Checks the domain once and calls each analytic evaluator at most once.
    The energy density mu and momentum density J come from the constraint
    equations; this is the single source of truth for (mu, J) downstream.

    Ricci is built from the second derivatives directly,

        2 Ric_jk = g^il (d_i d_j g_lk + d_i d_k g_jl - d_i d_l g_jk
                         - d_j d_k g_il)
                   + d_i g^il A_ljk - d_j g^il d_k g_il
                   + 2 (Gamma^i_ip Gamma^p_jk - Gamma^i_jp Gamma^p_ik),

    with A_ljk = 2 Gamma_ljk, which is d_i Gamma^i_jk - d_j Gamma^i_ik plus
    the quadratic terms (d_j Gamma^i_ik uses Gamma^i_ik = g^il d_k g_il / 2),
    so the derivative of the Christoffel symbols is never formed. The
    second-derivative terms are freed before the constraints are formed.

    Work on fields that vanish identically is skipped. When the evaluators
    of dg and ddg both carry the zero-field mark of ``_zeros`` (a constant
    metric), Gamma, d g^-1, Ric and R are zero fields and ``data.ddg`` is
    never called; when those of k and dk do (time-symmetric data), so are
    tr k, |k|^2, d tr k and J. Zero fields are read-only zero-stride views
    of the shapes the general path gives, and mu and |J| come from the same
    formulas either way, so the jet has the same values.

    When g, dg and ddg all carry the same ``psi`` mark of
    ``conformally_flat`` (g = psi^4 delta), psi's jet is called once and
    none of the three is: g = psi^4 delta goes through the same inverse,
    and Gamma, d g^-1 and Ric come from ``_conformal_curvature``. They
    equal the general path's fields up to rounding.
    """
    x = np.ascontiguousarray(x, dtype=float)
    data.check_domain(x)
    batch = x.shape[1:]
    flat = _vanish(data.dg, data.ddg)
    psi = _conformal_psi(data.g, data.dg, data.ddg)
    if psi is None:
        g = data.g(x)
        dg = data.dg(x)
    else:
        p, dp, ddp = psi(x)
        g = _delta(p**4, batch)
    ginv = _inverse(g)
    k = data.k(x)
    dk = data.dk(x)

    if flat:
        gam = dginv = _zero((3, 3, 3) + batch)
        ric = _zero((3, 3) + batch)
    elif psi is not None:
        gam, dginv, ric = _conformal_curvature(p, dp, ddp)
    else:
        ddg = data.ddg(x)
        # A[l, j, k] = d_j g_lk + d_k g_jl - d_l g_jk
        A = dg.swapaxes(0, 1) + dg.swapaxes(0, 2) - dg
        gam = 0.5 * np.einsum("il...,ljk...->ijk...", ginv, A)
        dginv = -np.einsum("mib...,bl...->mil...",
                           np.einsum("ia...,mab...->mib...", ginv, dg), ginv)

        # g^il d_i d_j g_lk, g^il d_i d_l g_jk and g^il d_j d_k g_il
        cross = np.einsum("il...,ijlk...->jk...", ginv, ddg)
        box = np.einsum("il...,iljk...->jk...", ginv, ddg)
        hess_ln = np.einsum("jkil...,il...->jk...", ddg, ginv)
        del ddg
        div_ginv = np.einsum("iil...->l...", dginv)
        first = (np.einsum("l...,ljk...->jk...", div_ginv, A)
                 - np.einsum("jil...,kil...->jk...", dginv, dg))
        del A
        quad = (np.einsum("p...,pjk...->jk...",
                          np.einsum("iip...->p...", gam), gam)
                - np.einsum("ijp...,pik...->jk...", gam, gam))
        ric = (0.5 * (cross + cross.swapaxes(0, 1) - box - hess_ln + first)
               + quad)
        del cross, box, hess_ln, first, quad
    scal = (_zero(batch) if flat
            else np.einsum("ij...,ij...->...", ginv, ric))

    if _vanish(data.k, data.dk):
        trk = k2 = _zero(batch)
        dtrk = J = _zero((3,) + batch)
    else:
        trk = np.einsum("ij...,ij...->...", ginv, k)
        k_up = np.einsum("ia...,aj...->ij...", ginv, k)
        k2 = np.einsum("ij...,ji...->...", k_up, k_up)
        dtrk = (np.einsum("mij...,ij...->m...", dginv, k)
                + np.einsum("mij...,ij...->m...", dk, ginv))
        gam_trace = np.einsum("lik...,ik...->l...", gam, ginv)
        div_k = (np.einsum("ab...,abj...->j...", ginv, dk)
                 - np.einsum("l...,lj...->j...", gam_trace, k)
                 - np.einsum("ba...,abj...->j...", k_up, gam))
        J = div_k - dtrk
    mu = 0.5 * (scal + trk**2 - k2)
    j_norm = np.sqrt(np.maximum(bilinear(ginv, J, J), 0.0))
    return AmbientJet(x=x, g=g, ginv=ginv, k=k, dk=dk, gam=gam,
                      dginv=dginv, ric=ric, R=scal, trk=trk, absk2=k2,
                      dtrk=dtrk, mu=mu, J=J, j_norm=j_norm)


def dec_margin(data, sample_points):
    """min over the samples ``x[i, ...]`` of mu - |J|_g (dominant energy
    condition margin)."""
    pts = np.asarray(sample_points, dtype=float)
    if pts.size == 0:
        raise ValueError("empty sample set")
    jet = evaluate(data, pts)
    return float(np.min(jet.mu - jet.j_norm))
