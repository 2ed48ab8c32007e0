"""Variance bounds for quadratic forms in weakly dependent sequences,
spectral limits of sample covariance matrices, and kernel long-run
variance estimation, with a config-driven experiment runner."""

from .config import ConfigError, ExperimentConfig, canonical_hash, load_config, validate
from .longrun import (
    BiasDecomposition,
    Kernel,
    KernelAssumptions,
    MSEReport,
    check_assumptions,
    cumulant_sum,
    estimate_lrv,
    exact_bias,
    fourth_cumulant,
    gamma_q,
    kernel_envelope,
    kernel_eval,
    kernel_kq,
    lrv_true,
    mse_bound,
    variance_bound_c_free,
)
from .models import (
    CovarianceModel,
    DependenceProfile,
    GaussianAR1,
    GaussianMA,
    RademacherIID,
    RademacherProductMDS,
    autocovariance,
    covariance_matrix,
    dependence_profile,
    exact_product_moment,
    generate_paths,
    isserlis_fourth_moment,
    min_phi_double_sum,
    path_rng,
)
from .quadform import (
    BoundReport,
    VarianceEstimate,
    brute_force_variance,
    fourth_moment_bound,
    gaussian_exact_variance,
    gaussian_test_matrix,
    general_variance_bound,
    hollow_variance_bound,
    linear_process_variance_bound,
    mc_fourth_moment,
    mc_variance,
)
from .runner import ResultRecord, assertions_pass, emit, run
from .spectral import (
    ConvergenceError,
    SpectralModel,
    StieltjesValue,
    density_grid,
    effective_spectral_model,
    kolmogorov_distance,
    limit_cdf,
    limit_stieltjes,
    mp_stieltjes,
    population_sigma,
    sample_covariance_matrix,
    scaled_paths,
    solve_stieltjes,
    symmetric_eigenvalues,
)

__version__ = "0.1.0"
