"""Equivalence testing for functional data.

Frequentist bootstrap TOST and a Bayesian Gaussian-process engine for
deciding whether two measurement channels agree: mean difference within
additive bands, variance ratios within multiplicative bands, at every point
of the observation grid.
"""

from .fdata import (
    BandKind,
    BandPair,
    FunctionalSample,
    Grid,
    GroupedPairedSample,
    PairedFunctionalSample,
    ValidationError,
    band_contains,
    equispaced_grid,
    make_cosine_bands,
)
from .estimators import (
    AnovaDecomposition,
    MetricEstimates,
    adjusted_random_effects,
    anova_decompose,
    estimate_metrics_grouped,
    estimate_metrics_paired,
)
from .tost import (
    BootstrapConfig,
    Design,
    Metric,
    TostDecision,
    TostReport,
    run_tost,
)
from .simlab import (
    ScenarioSequence,
    StudyResult,
    TruthSpec,
    boundary_violation_scenarios,
    default_truth,
    generate_dataset,
    interior_scenarios,
    run_study,
)
from .curvefile import CurveFileError, read_curves, write_curves

__version__ = "0.1.0"


def __getattr__(name):
    # run_cli loads on first use, so that importing the package does not
    # import feqt.cli and ``python -m feqt.cli`` runs that module only once
    if name == "run_cli":
        from .cli import run_cli

        return run_cli
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BandKind",
    "BandPair",
    "FunctionalSample",
    "Grid",
    "GroupedPairedSample",
    "PairedFunctionalSample",
    "ValidationError",
    "band_contains",
    "equispaced_grid",
    "make_cosine_bands",
    "AnovaDecomposition",
    "MetricEstimates",
    "adjusted_random_effects",
    "anova_decompose",
    "estimate_metrics_grouped",
    "estimate_metrics_paired",
    "BootstrapConfig",
    "Design",
    "Metric",
    "TostDecision",
    "TostReport",
    "run_tost",
    "ScenarioSequence",
    "StudyResult",
    "TruthSpec",
    "boundary_violation_scenarios",
    "default_truth",
    "generate_dataset",
    "interior_scenarios",
    "run_study",
    "CurveFileError",
    "read_curves",
    "write_curves",
    "run_cli",
    "__version__",
]
