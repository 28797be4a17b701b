"""Analytic catalog of initial data sets (M, g, k) with exact derivatives.

Every entry evaluates the spatial metric g, the extrinsic curvature k, and
their first (and for g, second) coordinate derivatives in closed form at
batched points of shape (..., 3). The energy and momentum densities are
always derived from the constraint equations

    2 mu = R_g + (tr k)^2 - |k|^2,      J = div(k - (tr k) g),

never supplied by hand, so catalog entries are constraint-consistent by
construction. ``evaluate`` computes the whole ambient jet at a point set
(g, its inverse and derivatives, k, the Christoffel symbols, Ricci, and the
constraint-derived mu, J and |J|) and is the single source of (mu, J) for
every other module. It contracts with batched matrix products, and builds
Ricci from contractions of g^-1 with the second derivatives of g, without
forming the derivative of the Christoffel symbols.

Index conventions: ``dg[..., m, i, j] = d_m g_ij``,
``ddg[..., l, m, i, j] = d_l d_m g_ij``, ``dk[..., m, i, j] = d_m k_ij``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError

_EYE = np.eye(3)


# ---------------------------------------------------------------------------
# spacetime extensions (Einstein tensor contractions in closed form)


class ZeroExtension:
    """Einstein tensor of a vacuum development: all contractions vanish."""

    vacuum = True

    def contract(self, jet, a, b):
        return np.zeros(jet.x.shape[:-1])


class DeSitterExtension:
    """Einstein tensor G = -3 h of de Sitter space with unit Hubble rate.

    The flat slicing carries g = c * delta, k = c * delta on each slice, so
    G(a, b) = -3 (-a_t b_t + g_ij a^i b^j) for 4-vectors split into a time
    component along tau and a spatial part in the chart basis.
    """

    vacuum = False

    def contract(self, jet, a, b):
        at, asp = a
        bt, bsp = b
        spatial = bilinear(jet.g, np.broadcast_to(asp, jet.x.shape),
                           np.broadcast_to(bsp, jet.x.shape))
        return -3.0 * (-np.asarray(at) * np.asarray(bt) + spatial)


# ---------------------------------------------------------------------------
# initial data sets


class InitialData:
    """An analytic initial data set.

    Parameters are closed-form evaluator callables over batched points.
    ``slice_family`` maps a time offset t to the initial data induced on the
    slice at unit-lapse coordinate time t, when the entry belongs to a known
    unit-lapse slicing (used by the spacetime-direction variation oracle);
    entries without one set it to None.
    """

    def __init__(self, name, params, g, dg, ddg, k, dk, in_domain,
                 extension=None, slice_family=None):
        self.name = name
        self.params = dict(params)
        self.g = g
        self.dg = dg
        self.ddg = ddg
        self.k = k
        self.dk = dk
        self.in_domain = in_domain
        self.extension = extension
        self.slice_family = slice_family

    def __repr__(self):
        pstr = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"InitialData({self.name}{':' if pstr else ''}{pstr})"

    def check_domain(self, x):
        ok = self.in_domain(np.asarray(x, dtype=float))
        if not np.all(ok):
            raise DomainError(f"point outside domain of {self.name}")


def _zeros33(x):
    return np.zeros(x.shape[:-1] + (3, 3))


def _zeros333(x):
    return np.zeros(x.shape[:-1] + (3, 3, 3))


def _zeros3333(x):
    return np.zeros(x.shape[:-1] + (3, 3, 3, 3))


def minkowski_flat():
    """Flat slice of Minkowski space: g = delta, k = 0."""

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(_EYE, x.shape[:-1] + (3, 3)).copy()

    data = InitialData(
        name="minkowski_flat", params={},
        g=g, dg=_zeros333, ddg=_zeros3333, k=_zeros33, dk=_zeros333,
        in_domain=lambda x: np.ones(np.asarray(x).shape[:-1], dtype=bool),
        extension=ZeroExtension(),
    )
    data.slice_family = lambda t: data
    return data


def hyperboloidal_flat(scale=1.0):
    """Flat slice of de Sitter space: g = c delta, k = c delta (c = scale).

    The constraints give mu = 3 and J = 0 for every c, and the ambient
    Einstein tensor is G = -3 h. Sliding along the unit-lapse time of the
    flat slicing rescales c by e^{2t}.
    """
    c = float(scale)

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(c * _EYE, x.shape[:-1] + (3, 3)).copy()

    data = InitialData(
        name="hyperboloidal_flat", params={"scale": c},
        g=g, dg=_zeros333, ddg=_zeros3333, k=g, dk=_zeros333,
        in_domain=lambda x: np.ones(np.asarray(x).shape[:-1], dtype=bool),
        extension=DeSitterExtension(),
        slice_family=lambda t: hyperboloidal_flat(scale=c * np.exp(2.0 * t)),
    )
    return data


def schwarzschild_isotropic(mass=1.0, excision_factor=0.05):
    """Time-symmetric Schwarzschild slice in isotropic coordinates.

    g = psi^4 delta with psi = 1 + m/(2r), k = 0. The horizon is the
    coordinate sphere r = m/2. A ball r < excision_factor * m around the
    puncture is excluded from the chart domain.
    """
    m = float(mass)
    if m <= 0.0:
        raise ValueError("mass must be positive")
    r_min = excision_factor * m

    def _r(x):
        return np.linalg.norm(x, axis=-1)

    def _psi_jet(x):
        x = np.asarray(x, dtype=float)
        r = _r(x)
        psi = 1.0 + 0.5 * m / r
        dpsi = -0.5 * m * x / r[..., None] ** 3
        rr = r[..., None, None]
        xx = x[..., :, None] * x[..., None, :]
        ddpsi = -0.5 * m * (_EYE / rr**3 - 3.0 * xx / rr**5)
        return psi, dpsi, ddpsi

    def g(x):
        psi, _, _ = _psi_jet(x)
        return psi[..., None, None] ** 4 * _EYE

    def dg(x):
        psi, dpsi, _ = _psi_jet(x)
        coef = 4.0 * psi[..., None] ** 3 * dpsi
        return coef[..., :, None, None] * _EYE

    def ddg(x):
        psi, dpsi, ddpsi = _psi_jet(x)
        coef = (12.0 * psi[..., None, None] ** 2
                * (dpsi[..., :, None] * dpsi[..., None, :])
                + 4.0 * psi[..., None, None] ** 3 * ddpsi)
        return coef[..., :, :, None, None] * _EYE

    data = InitialData(
        name="schwarzschild_isotropic", params={"m": m},
        g=g, dg=dg, ddg=ddg, k=_zeros33, dk=_zeros333,
        in_domain=lambda x: _r(np.asarray(x, dtype=float)) > r_min,
        extension=ZeroExtension(),
    )
    return data


def schwarzschild_pg(mass=1.0, excision_factor=0.05):
    """Painleve-Gullstrand slice of Schwarzschild: flat g, nonzero k.

    k_ij = -sqrt(2m) (delta_ij r^{-3/2} - (3/2) x_i x_j r^{-7/2}). The sign
    is the ingoing slicing, placing the marginally trapped sphere for the
    outward normal at areal radius r = 2m.
    """
    m = float(mass)
    if m <= 0.0:
        raise ValueError("mass must be positive")
    r_min = excision_factor * 2.0 * m
    s2m = np.sqrt(2.0 * m)

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(_EYE, x.shape[:-1] + (3, 3)).copy()

    def k(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)[..., None, None]
        xx = x[..., :, None] * x[..., None, :]
        return -s2m * (_EYE / r**1.5 - 1.5 * xx / r**3.5)

    def dk(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)[..., None, None, None]
        xl = x[..., :, None, None]
        xi = x[..., None, :, None]
        xj = x[..., None, None, :]
        eye_ij = _EYE[None, :, :]
        # delta_il x_j + delta_jl x_i, with axes (l, i, j)
        d_il_xj = _EYE[:, :, None] * xj
        d_jl_xi = _EYE[:, None, :] * xi
        return -s2m * (-1.5 * eye_ij * xl / r**3.5
                       - 1.5 * (d_il_xj + d_jl_xi) / r**3.5
                       + 5.25 * xi * xj * xl / r**5.5)

    data = InitialData(
        name="schwarzschild_pg", params={"m": m},
        g=g, dg=_zeros333, ddg=_zeros3333, k=k, dk=dk,
        in_domain=lambda x: np.linalg.norm(np.asarray(x, dtype=float),
                                           axis=-1) > r_min,
        extension=ZeroExtension(),
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
    cannot silently fall back to a default.
    """
    params = {}
    if text:
        for item in text.split(","):
            key, _, val = item.partition("=")
            params[key.strip()] = val.strip()
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
    return make(**{keywords[key]: float(val) for key, val in params.items()})


# ---------------------------------------------------------------------------
# curvature and constraint evaluation


@dataclass(frozen=True)
class AmbientJet:
    """The ambient fields of an initial data set at one batched point set.

    ``gam[..., i, j, k] = Gamma^i_jk``, ``dginv[..., m, i, j] = d_m g^ij``,
    ``dtrk[..., m] = d_m tr k``; ``absk2`` is |k|^2 and ``j_norm`` is |J|_g.
    """

    x: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
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


def bilinear(M, a, b):
    """M(a, b) = M_ij a^i b^j for batched square fields and vectors."""
    return np.sum(a * (M @ b[..., None])[..., 0], axis=-1)


def evaluate(data, x):
    """Evaluate the ambient jet of ``data`` at batched points ``x``.

    Checks the domain once and calls each analytic evaluator once. The
    energy density mu and momentum density J come from the constraint
    equations; this is the single source of truth for (mu, J) downstream.

    Every contraction is a batched matrix product over 3x3 blocks or over
    index pairs flattened to 9. Ricci is built from the second derivatives
    directly,

        2 Ric_jk = g^il (d_i d_j g_lk + d_i d_k g_jl - d_i d_l g_jk
                         - d_j d_k g_il)
                   + d_i g^il A_ljk - d_j g^il d_k g_il
                   + 2 (Gamma^i_ip Gamma^p_jk - Gamma^i_jp Gamma^p_ik),

    with A_ljk = 2 Gamma_ljk, which is d_i Gamma^i_jk - d_j Gamma^i_ik plus
    the quadratic terms (d_j Gamma^i_ik uses Gamma^i_ik = g^il d_k g_il / 2),
    so the derivative of the Christoffel symbols is never formed.
    """
    x = np.asarray(x, dtype=float)
    data.check_domain(x)
    g = data.g(x)
    ginv = np.linalg.inv(g)
    dg = data.dg(x)
    ddg = data.ddg(x)
    k = data.k(x)
    dk = data.dk(x)
    batch = x.shape[:-1]

    def flat(a, rows, cols):
        return a.reshape(batch + (rows, cols))

    # A[l, j, k] = d_j g_lk + d_k g_jl - d_l g_jk
    A = dg.swapaxes(-3, -2) + dg.swapaxes(-3, -1) - dg
    gam = 0.5 * flat(ginv @ flat(A, 3, 9), 3, 9).reshape(batch + (3, 3, 3))
    dginv = -(ginv[..., None, :, :] @ dg @ ginv[..., None, :, :])

    ginv_row = flat(ginv, 1, 9)
    ddg_99 = flat(ddg, 9, 9)
    # g^il d_i d_j g_lk, g^il d_i d_l g_jk and g^il d_j d_k g_il
    cross = flat(ginv_row @ flat(ddg.swapaxes(-3, -2), 9, 9), 3, 3)
    box = flat(ginv_row @ ddg_99, 3, 3)
    hess_ln = flat(ddg_99 @ flat(ginv, 9, 1), 3, 3)
    div_ginv = np.trace(dginv, axis1=-3, axis2=-2)
    first = (flat(div_ginv[..., None, :] @ flat(A, 3, 9), 3, 3)
             - flat(dginv, 3, 9) @ flat(dg, 3, 9).swapaxes(-1, -2))
    gam_jip = gam.swapaxes(-3, -2)
    quad = (flat(np.trace(gam, axis1=-3, axis2=-2)[..., None, :]
                 @ flat(gam, 3, 9), 3, 3)
            - flat(gam_jip, 3, 9) @ flat(gam_jip, 9, 3))
    ric = 0.5 * (cross + cross.swapaxes(-1, -2) - box - hess_ln + first) + quad
    scal = np.sum(ginv * ric, axis=(-2, -1))

    trk = np.sum(ginv * k, axis=(-2, -1))
    k_up = ginv @ k
    k2 = np.sum(k_up * k_up.swapaxes(-1, -2), axis=(-2, -1))
    mu = 0.5 * (scal + trk**2 - k2)
    dtrk = (flat(dginv, 3, 9) @ flat(k, 9, 1)
            + flat(dk, 3, 9) @ flat(ginv, 9, 1))[..., 0]
    div_k = (ginv_row @ flat(dk, 9, 3)
             - (flat(gam, 3, 9) @ flat(ginv, 9, 1)).swapaxes(-1, -2) @ k
             - flat(k_up.swapaxes(-1, -2), 1, 9) @ flat(gam, 9, 3))[..., 0, :]
    J = div_k - dtrk
    j_norm = np.sqrt(np.maximum(bilinear(ginv, J, J), 0.0))
    return AmbientJet(x=x, g=g, ginv=ginv, dg=dg, k=k, dk=dk, gam=gam,
                      dginv=dginv, ric=ric, R=scal, trk=trk, absk2=k2,
                      dtrk=dtrk, mu=mu, J=J, j_norm=j_norm)


def dec_margin(data, sample_points):
    """min over the samples of mu - |J|_g (dominant energy condition margin)."""
    pts = np.asarray(sample_points, dtype=float)
    if pts.size == 0:
        raise ValueError("empty sample set")
    jet = evaluate(data, pts)
    return float(np.min(jet.mu - jet.j_norm))


# ---------------------------------------------------------------------------
# validation helpers


def finite_difference_clone(data, step=1e-5):
    """Clone of an initial data set whose derivative evaluators are central
    finite differences of g and k, ignoring the analytic ones. Used as an
    independent oracle for constraint self-consistency."""
    h = float(step)

    def dg(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (3, 3, 3))
        for m in range(3):
            e = h * _EYE[m]
            out[..., m, :, :] = (data.g(x + e) - data.g(x - e)) / (2.0 * h)
        return out

    def dk(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (3, 3, 3))
        for m in range(3):
            e = h * _EYE[m]
            out[..., m, :, :] = (data.k(x + e) - data.k(x - e)) / (2.0 * h)
        return out

    def ddg(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (3, 3, 3, 3))
        for l in range(3):
            for m in range(3):
                el, em = h * _EYE[l], h * _EYE[m]
                if l == m:
                    out[..., l, m, :, :] = (
                        data.g(x + el) - 2.0 * data.g(x) + data.g(x - el)
                    ) / h**2
                else:
                    out[..., l, m, :, :] = (
                        data.g(x + el + em) - data.g(x + el - em)
                        - data.g(x - el + em) + data.g(x - el - em)
                    ) / (4.0 * h**2)
        return out

    return InitialData(
        name=data.name + "_fd", params=data.params,
        g=data.g, dg=dg, ddg=ddg, k=data.k, dk=dk,
        in_domain=data.in_domain, extension=data.extension,
    )


def rescaled_clone(data, factor):
    """Pullback of an initial data set under x -> factor * x.

    Used to check that mu transforms as a scalar under constant chart
    rescalings.
    """
    c = float(factor)

    def pull(x):
        return np.asarray(x, dtype=float) / c

    return InitialData(
        name=data.name + "_rescaled", params=data.params,
        g=lambda x: data.g(pull(x)) / c**2,
        dg=lambda x: data.dg(pull(x)) / c**3,
        ddg=lambda x: data.ddg(pull(x)) / c**4,
        k=lambda x: data.k(pull(x)) / c**2,
        dk=lambda x: data.dk(pull(x)) / c**3,
        in_domain=lambda x: data.in_domain(pull(x)),
        extension=data.extension,
    )
