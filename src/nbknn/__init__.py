"""Evidence-based nearest neighbor classification for imbalanced data.

The core idea: instead of voting among a fixed number of neighbors, walk
neighbors in distance order and measure, for each k, how many neighbors
it takes to collect k minority-class points.  Under exchangeable labels
that count is negative binomial, so each k yields a mid-p value; the
strongest evidence over k = 1..k_max decides the class.  No weights, no
synthetic points, and every result is exactly reproducible.
"""

from .baselines import KnnConfig, knn_classify_batch, knn_with_cv, select_k_cv
from .binary import BinaryEvidenceClassifier, binary_evidence_batch, classify_binary_batch, fit_binary
from .benchmark import run_csv_benchmark
from .data_io import (
    CsvDataset,
    CsvFormatError,
    SplitSpec,
    StandardizationParams,
    balanced_split,
    load_csv,
    split_indices,
    standardize,
)
from .dataset import LabeledDataset
from .metrics import (
    ConfusionMatrix,
    MetricSummary,
    PrfReport,
    TrialReport,
    aggregate_trials,
    confusion,
    efficiency_scores,
    prf,
)
from .multiclass import classify_ovo_plus_batch, classify_ovr_plus_batch, ovr_evidence_batch
from .negbin import adjusted_pvalue_many
from .rng import Stream, fold_seed, mix64, stream_id
from .simulation import (
    GaussianClassSpec,
    bayes_classify_batch,
    location_specs,
    run_location_experiment,
    run_scale_experiment,
    sample_mixture,
    scale_specs,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryEvidenceClassifier",
    "ConfusionMatrix",
    "CsvDataset",
    "CsvFormatError",
    "GaussianClassSpec",
    "KnnConfig",
    "LabeledDataset",
    "MetricSummary",
    "PrfReport",
    "SplitSpec",
    "StandardizationParams",
    "Stream",
    "TrialReport",
    "adjusted_pvalue_many",
    "aggregate_trials",
    "balanced_split",
    "bayes_classify_batch",
    "binary_evidence_batch",
    "classify_binary_batch",
    "classify_ovo_plus_batch",
    "classify_ovr_plus_batch",
    "confusion",
    "efficiency_scores",
    "fit_binary",
    "fold_seed",
    "knn_classify_batch",
    "knn_with_cv",
    "load_csv",
    "location_specs",
    "mix64",
    "ovr_evidence_batch",
    "prf",
    "run_csv_benchmark",
    "run_location_experiment",
    "run_scale_experiment",
    "sample_mixture",
    "scale_specs",
    "select_k_cv",
    "split_indices",
    "standardize",
    "stream_id",
]
