"""The package's public surface."""

import dpnewsvendor

PUBLIC_NAMES = [
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


def test_public_names_are_pinned_and_resolve():
    # a name added to or dropped from __all__ must show up in this list's diff
    assert sorted(dpnewsvendor.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(dpnewsvendor, name) is not None
