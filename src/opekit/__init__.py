"""Off-policy evaluation toolkit.

Importance-weighted value estimators with additive baselines, their
self-normalised counterparts, closed-form variance and remainder
diagnostics, position-wise ranking variants, synthetic environments with
exact enumeration oracles, and a seeded Monte Carlo study harness.

``import opekit`` loads no submodule: each public name is imported from
its submodule when it is first used (PEP 562), so a command loads only
the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The public names of each submodule.
_EXPORTS = {
    "analysis": (
        "RemainderDiagnostics", "VarianceGapReport", "beta_ips_variance", "hoeffding_tail_bound",
        "remainder_diagnostics", "snips_avar", "variance_gap",
    ),
    "config": ("LoadedStudy", "load_study_config"),
    "data": ("Dataset", "Estimate", "RankedDataset"),
    "errors": (
        "DegenerateWeights", "EstimationError", "OpeKitError", "StudyError", "ValidationError", "ZeroWeightSum",
    ),
    "estimators": (
        "CrossFitConfig", "MomentSummary", "beta_ips", "beta_star_hat", "beta_star_ips", "cross_fitted_beta_ips",
        "empirical_moments", "ips", "snips",
    ),
    "experiments": (
        "OracleReport", "ReplicateMatrix", "StudyConfig", "StudyReport", "StudyRow", "bias_rate_study",
        "decay_rate_study", "dominance_check", "fit_loglog_slope", "mse_decompose", "oracle_report",
        "paired_mse_difference", "paired_variance_difference", "replicate_estimates", "run_mc_study",
    ),
    "io": ("RunManifest", "build_manifest", "read_logs", "write_logs"),
    "ranking": ("PositionwiseReport", "beta_ipm", "beta_perp_star_hat", "beta_perp_star_ipm", "ipm", "snipm"),
    "simulator": (
        "BanditEnv", "BanditScenario", "PolicyTable", "PositionModel", "RankingEnv", "get_scenario", "preset_names",
        "sample_logs", "sample_ranked_logs",
    ),
}

_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    """Import a public name from its submodule on first use, and keep it here."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
