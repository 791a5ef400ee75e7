"""CSV benchmark protocol: repeated balanced splits, standardize, score."""

from __future__ import annotations

from .baselines import KnnConfig
from .data_io import CsvDataset, SplitSpec, balanced_split, held_out_per_class, standardize
from .methods import KNN, WNN, run_trials, score_trial, validate_methods
from .metrics import PrfReport, TrialReport
from .rng import fold_seed

BENCH_CV_PURPOSE = 5


def _benchmark_trial(args) -> dict[str, PrfReport]:
    data, spec, trial, methods, k_max = args
    train, test = balanced_split(data, spec, trial)
    train_std, (test_std,), _ = standardize(train, [test])
    return score_trial(train_std, test_std, methods, k_max,
                       lambda j: fold_seed(spec.seed, BENCH_CV_PURPOSE, trial, j))


def run_csv_benchmark(
    csv_data: CsvDataset,
    spec: SplitSpec,
    methods,
    k_max: int = 45,
    jobs: int = 1,
) -> list[TrialReport]:
    """Score the requested methods over ``spec.trials`` random splits.

    Each trial re-standardizes with its own training statistics; the
    test rows never influence the standardization.  A class too small for
    the k-NN baselines' cross-validation stops the run before any trial.
    """
    data = csv_data.data
    methods = validate_methods(methods, n_classes=data.n_classes)
    if {KNN, WNN} & set(methods):  # each trial holds out as many rows per class
        kept = data.class_counts - held_out_per_class(data.class_counts, spec.minority_test_fraction)
        folds = KnnConfig().cv_folds
        if kept.min() < folds:
            vote = " and ".join(name for name in methods if name in (KNN, WNN))
            raise ValueError(f"class {csv_data.class_name(int(kept.argmin()) + 1)!r} keeps {kept.min()} "
                             f"training rows in each trial, fewer than the cv_folds={folds} that {vote} need")
    args = [(data, spec, t, methods, int(k_max)) for t in range(spec.trials)]
    return run_trials(_benchmark_trial, args, methods, jobs)
