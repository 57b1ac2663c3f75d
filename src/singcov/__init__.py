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

from .combinatorics import (
    CycleType,
    HookShape,
    Partition,
    enumerate_cycle_types,
    enumerate_partitions,
    hook_character,
    hook_lengths,
    schur_bialternant,
    schur_hook_derivative_coeffs,
    schur_hook_powersum,
)
from .ewens import (
    Injection,
    Permutation,
    cycle_count,
    enumerate_injections,
    ewens_estimator,
    ewens_estimator_bruteforce,
    ewens_probability,
    hybrid_estimator,
    hybrid_estimator_bruteforce,
    hybrid_inverse_bruteforce,
    hybrid_inverse_diagonal,
    hybrid_inverse_inductive_step,
    hybrid_inverse_mc,
    injection_probability,
    injection_probability_enumerated,
    sample_ewens,
    sample_ewens_batch,
)
from .haar import (
    InvcovSpectrum,
    LoadingParameters,
    MomentCoefficients,
    MonteCarloEstimate,
    cov_p_closed,
    cov_p_mc,
    diagonal_loading,
    invcov_p_mc,
    invcov_spectrum,
    moment_matrix_coeffs,
    trace_moment,
)
from .linalg import (
    EmpiricalSpectralDistribution,
    RandomSource,
    SpectralDecomposition,
    WelfordAccumulator,
    block_pinv_update,
    eig_hermitian,
    esd,
    frobenius_norm,
    levy_bound,
    load_matrix_csv,
    pseudoinverse,
    sample_gaussian_covariance,
    sample_haar_stiefel_batch,
    save_density_csv,
    save_esd_csv,
    save_matrix_csv,
)
from .toeplitz import (
    LimitingMeasure,
    PowerToeplitz,
    SupportInterval,
    SymbolFunction,
    TridiagonalToeplitz,
    ewens_transform_closedform,
    limiting_density,
    limiting_measure,
    power_det,
    power_inverse,
    rescaled_symbol,
    toeplitz_truth,
    tridiag_eigensystem,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg
    "RandomSource",
    "SpectralDecomposition",
    "EmpiricalSpectralDistribution",
    "WelfordAccumulator",
    "eig_hermitian",
    "pseudoinverse",
    "block_pinv_update",
    "frobenius_norm",
    "levy_bound",
    "esd",
    "sample_gaussian_covariance",
    "sample_haar_stiefel_batch",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_esd_csv",
    "save_density_csv",
    # combinatorics
    "Partition",
    "HookShape",
    "CycleType",
    "enumerate_partitions",
    "enumerate_cycle_types",
    "hook_lengths",
    "hook_character",
    "schur_hook_powersum",
    "schur_bialternant",
    "schur_hook_derivative_coeffs",
    # haar
    "MonteCarloEstimate",
    "InvcovSpectrum",
    "LoadingParameters",
    "cov_p_closed",
    "cov_p_mc",
    "invcov_p_mc",
    "invcov_spectrum",
    "trace_moment",
    "MomentCoefficients",
    "moment_matrix_coeffs",
    "diagonal_loading",
    # ewens
    "Permutation",
    "Injection",
    "cycle_count",
    "ewens_probability",
    "sample_ewens",
    "sample_ewens_batch",
    "ewens_estimator",
    "ewens_estimator_bruteforce",
    "enumerate_injections",
    "injection_probability",
    "injection_probability_enumerated",
    "hybrid_estimator",
    "hybrid_estimator_bruteforce",
    "hybrid_inverse_diagonal",
    "hybrid_inverse_bruteforce",
    "hybrid_inverse_mc",
    "hybrid_inverse_inductive_step",
    # toeplitz
    "SupportInterval",
    "SymbolFunction",
    "TridiagonalToeplitz",
    "PowerToeplitz",
    "tridiag_eigensystem",
    "power_det",
    "power_inverse",
    "LimitingMeasure",
    "limiting_measure",
    "limiting_density",
    "ewens_transform_closedform",
    "rescaled_symbol",
    "toeplitz_truth",
]
