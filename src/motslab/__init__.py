"""motslab: numerical laboratory for stability of surfaces and MOTS.

Discretizes spacelike 2-surfaces embedded in analytic initial data sets,
assembles MOTS stability operators with capillary and free-boundary Robin
conditions, computes principal eigenvalues, and audits geometric inequality
theorems with hypothesis flags and equality-case diagnostics.

Importing the package loads no submodule: ``motslab.spectra`` and the
other layers are imported on first attribute access, so a process loads
scipy only when it reaches the spectra or the audits.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("audits", "cli", "errors", "grids", "initialdata", "spectra",
               "surfaces")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
