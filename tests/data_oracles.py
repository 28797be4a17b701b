"""Independent constructions of initial data sets, for the tests of the
analytic catalog and of the variation oracle: finite-difference and
rescaled clones of an entry, and the unit-lapse slice families of the flat
entries.
"""

import numpy as np

from motslab import initialdata as idata

_EYE = np.eye(3)


def finite_difference_clone(data, step=1e-5):
    """Clone of an initial data set whose derivative evaluators are central
    finite differences of g and k, ignoring the analytic ones. Used as an
    independent oracle for constraint self-consistency."""
    h = float(step)

    def shift(x, m):
        return h * _EYE[m].reshape((3,) + (1,) * (x.ndim - 1))

    def first(f):
        def df(x):
            x = np.asarray(x, dtype=float)
            return np.stack([(f(x + shift(x, m)) - f(x - shift(x, m)))
                             / (2.0 * h) for m in range(3)])
        return df

    def ddg(x):
        x = np.asarray(x, dtype=float)
        out = np.empty((3, 3, 3, 3) + x.shape[1:])
        for l in range(3):
            for m in range(3):
                el, em = shift(x, l), shift(x, m)
                if l == m:
                    out[l, m] = (data.g(x + el) - 2.0 * data.g(x)
                                 + data.g(x - el)) / h**2
                else:
                    out[l, m] = (
                        data.g(x + el + em) - data.g(x + el - em)
                        - data.g(x - el + em) + data.g(x - el - em)
                    ) / (4.0 * h**2)
        return out

    return idata.InitialData(
        name=data.name + "_fd", params=data.params,
        g=data.g, dg=first(data.g), ddg=ddg, k=data.k, dk=first(data.k),
        in_domain=data.in_domain,
        cosmological_constant=data.cosmological_constant,
    )


def rescaled_clone(data, factor):
    """Pullback of an initial data set under x -> factor * x.

    Used to check that mu transforms as a scalar under constant chart
    rescalings.
    """
    c = float(factor)

    def pull(x):
        return np.asarray(x, dtype=float) / c

    return idata.InitialData(
        name=data.name + "_rescaled", params=data.params,
        g=lambda x: data.g(pull(x)) / c**2,
        dg=lambda x: data.dg(pull(x)) / c**3,
        ddg=lambda x: data.ddg(pull(x)) / c**4,
        k=lambda x: data.k(pull(x)) / c**2,
        dk=lambda x: data.dk(pull(x)) / c**3,
        in_domain=lambda x: data.in_domain(pull(x)),
        cosmological_constant=data.cosmological_constant,
    )


def slice_family(data):
    """The map from a time offset t to the initial data induced on the
    slice at unit-lapse coordinate time t, for the catalog entries that
    belong to a known unit-lapse slicing; None for the others.

    Every flat slice of Minkowski space carries the same data. Sliding
    along the unit-lapse time of de Sitter's flat slicing rescales the
    scale c of ``hyperboloidal_flat`` by e^{2t}.
    """
    if data.name == "minkowski_flat":
        return lambda t: data
    if data.name == "hyperboloidal_flat":
        c = data.params["scale"]
        return lambda t: idata.hyperboloidal_flat(scale=c * np.exp(2.0 * t))
    return None
