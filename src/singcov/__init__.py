"""Structured shrinkage estimators for singular sample covariance matrices.

The package bundles three families of rotation- and permutation-averaged
covariance estimators together with the exact combinatorics behind them:

- ``haar``: averages over random orthogonal compressions of the sample
  covariance, with closed-form moments driven by symmetric functions.
- ``ewens``: averages over permutations and partial injections drawn
  from cycle-weighted measures, in closed form where one exists and by
  Monte Carlo elsewhere.
- ``toeplitz``: banded and geometrically decaying ground-truth models
  whose transforms and limiting spectra are available analytically.

``bench`` and ``cli`` wrap the estimators in reproducible experiment
drivers; ``linalg`` and ``combinatorics`` carry the shared machinery.
"""

from . import combinatorics, ewens, haar, linalg, toeplitz
from .combinatorics import *
from .ewens import *
from .haar import *
from .linalg import *
from .toeplitz import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *linalg.__all__,
    *combinatorics.__all__,
    *haar.__all__,
    *ewens.__all__,
    *toeplitz.__all__,
]
