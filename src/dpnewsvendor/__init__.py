"""Privacy-preserving feature-based newsvendor policies.

Learn linear ordering rules from historical demand/feature records by
minimizing a kernel-smoothed newsvendor cost with noisy clipped
gradient descent, releasing the coefficients under Gaussian
differential privacy.  See the README for the CLI and the benchmark
harness.
"""

from .data import (
    ErrorDist,
    SyntheticSpec,
    Whitener,
    error_quantile,
    generate_synthetic,
    load_csv,
    train_test_split,
    true_beta_star,
    whitener_from,
)
from .evaluation import (
    ReplicationConfig,
    ReplicationReport,
    estimation_error,
    out_of_sample_cost,
    run_replications,
)
from .kernels import KernelConstants, check_loss, constants, smoothed_check_loss
from .model import (
    Dataset,
    Problem,
    smoothed_empirical_cost,
    smoothed_gradient,
    smoothed_hessian,
)
from .optimizer import (
    FitResult,
    HyperParams,
    NoiseSource,
    clip,
    default_bandwidth,
    fit,
    noisy_step,
    smoothed_erm,
)
from .privacy import (
    EpsDelta,
    PrivacyCertificate,
    calibrate_sigma,
    compose_gdp,
    eps_delta_tradeoff,
    gdp_to_eps_delta,
    gdp_tradeoff,
    one_step_sensitivity,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EpsDelta",
    "ErrorDist",
    "FitResult",
    "HyperParams",
    "KernelConstants",
    "NoiseSource",
    "PrivacyCertificate",
    "Problem",
    "ReplicationConfig",
    "ReplicationReport",
    "SyntheticSpec",
    "Whitener",
    "calibrate_sigma",
    "check_loss",
    "clip",
    "compose_gdp",
    "constants",
    "default_bandwidth",
    "eps_delta_tradeoff",
    "error_quantile",
    "estimation_error",
    "fit",
    "gdp_to_eps_delta",
    "gdp_tradeoff",
    "generate_synthetic",
    "load_csv",
    "noisy_step",
    "one_step_sensitivity",
    "out_of_sample_cost",
    "run_replications",
    "smoothed_check_loss",
    "smoothed_empirical_cost",
    "smoothed_erm",
    "smoothed_gradient",
    "smoothed_hessian",
    "train_test_split",
    "true_beta_star",
    "whitener_from",
]
