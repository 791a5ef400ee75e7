"""The public surface of the package, pinned name by name."""

import re
from pathlib import Path

import nbknn

PUBLIC = [
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


def test_all_is_the_pinned_sorted_set():
    assert nbknn.__all__ == PUBLIC
    assert sorted(PUBLIC) == PUBLIC
    assert len(set(PUBLIC)) == len(PUBLIC)


def test_every_name_resolves_and_star_import_matches():
    for name in nbknn.__all__:
        assert getattr(nbknn, name) is not None, name
    namespace: dict = {}
    exec("from nbknn import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC


def test_readme_quickstart_runs(capsys):
    # The README's library quickstart is run as written, so that it
    # cannot drift from the API it shows.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library quickstart\n+```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(code, {})
    assert capsys.readouterr().out == "[2 1]\n"
