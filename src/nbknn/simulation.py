"""Gaussian simulation designs, Bayes oracle, and experiment drivers.

Two designs are built in, both bivariate with an imbalanced training
sample (minority fraction alpha) and a class-balanced test sample:

* location: majority N(0, I) vs minority N((1,1), I);
* scale: N(0, I) vs N(0, 2I), with either one as the minority.

The Bayes oracle uses equal priors, matching the balanced test samples
against which everything is scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import KnnConfig
from .dataset import LabeledDataset
from .methods import KNN, SIMULATION_METHODS, WNN, run_trials, score_trial, validate_methods
from .metrics import PrfReport, TrialReport
from .rng import Stream, fold_seed, stream_id

TRAIN_PURPOSE = 2
TEST_PURPOSE = 3
CV_PURPOSE = 4

MINORITY_ROLES = ("wide", "narrow")


@dataclass(frozen=True)
class GaussianClassSpec:
    """Spherical Gaussian component: mean vector, variance scale, prior."""

    mean: tuple[float, ...]
    sigma2: float
    prior: float

    def __post_init__(self) -> None:
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if not 0.0 < self.prior < 1.0:
            raise ValueError(f"prior must lie in (0, 1), got {self.prior}")
        object.__setattr__(self, "mean", tuple(float(x) for x in self.mean))


def _class_counts(n: int, proportions) -> np.ndarray:
    props = np.asarray(proportions, dtype=np.float64)
    if props.ndim != 1 or props.size == 0:
        raise ValueError("proportions must be a nonempty vector")
    if np.any(props <= 0) or abs(props.sum() - 1.0) > 1e-9:
        raise ValueError(f"proportions must be positive and sum to 1, got {proportions}")
    counts = np.array([round(p * n) for p in props], dtype=np.int64)
    counts[int(np.argmax(counts))] += n - counts.sum()
    if counts.min() < 1:
        raise ValueError(f"class counts {counts.tolist()} include an empty class")
    return counts


def sample_mixture(
    specs: list[GaussianClassSpec] | tuple[GaussianClassSpec, ...],
    n: int,
    proportions,
    seed: int,
    stream: int,
) -> LabeledDataset:
    """Draw a labeled sample, class by class, from one random stream.

    Per-class counts are round(proportion * n) with the rounding
    remainder assigned to the largest class.
    """
    if len(specs) != len(tuple(proportions)):
        raise ValueError("one proportion per class spec is required")
    counts = _class_counts(n, proportions)
    rng = Stream(seed, stream)
    dim = len(specs[0].mean)
    blocks = []
    labels = []
    for cls, (spec, count) in enumerate(zip(specs, counts), start=1):
        if len(spec.mean) != dim:
            raise ValueError("all class means must share one dimension")
        z = rng.normal(int(count) * dim).reshape(int(count), dim)
        blocks.append(np.asarray(spec.mean) + math.sqrt(spec.sigma2) * z)
        labels.append(np.full(int(count), cls, dtype=np.int64))
    return LabeledDataset(np.vstack(blocks), np.concatenate(labels), len(specs))


def _log_density_matrix(specs, queries: np.ndarray) -> np.ndarray:
    q = np.asarray(queries, dtype=np.float64)
    dim = q.shape[1]
    out = np.empty((q.shape[0], len(specs)), dtype=np.float64)
    for j, spec in enumerate(specs):
        diff = q - np.asarray(spec.mean)
        sq = np.sum(diff * diff, axis=1)
        out[:, j] = (
            math.log(spec.prior)
            - 0.5 * dim * math.log(2.0 * math.pi * spec.sigma2)
            - sq / (2.0 * spec.sigma2)
        )
    return out


def bayes_classify_batch(specs, queries) -> np.ndarray:
    """Prior-weighted maximum density labels; ties to the smaller id."""
    logd = _log_density_matrix(specs, np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    return np.argmax(logd, axis=1).astype(np.int64) + 1


def location_specs() -> tuple[GaussianClassSpec, GaussianClassSpec]:
    return (
        GaussianClassSpec(mean=(0.0, 0.0), sigma2=1.0, prior=0.5),
        GaussianClassSpec(mean=(1.0, 1.0), sigma2=1.0, prior=0.5),
    )


def scale_specs(minority_role: str) -> tuple[GaussianClassSpec, GaussianClassSpec]:
    if minority_role not in MINORITY_ROLES:
        raise ValueError(f"minority_role must be one of {MINORITY_ROLES}, got {minority_role!r}")
    narrow = GaussianClassSpec(mean=(0.0, 0.0), sigma2=1.0, prior=0.5)
    wide = GaussianClassSpec(mean=(0.0, 0.0), sigma2=2.0, prior=0.5)
    # Class 1 is the majority; class 2 (the minority) takes the named role.
    return (narrow, wide) if minority_role == "wide" else (wide, narrow)


def _simulation_trial(args) -> dict[str, PrfReport]:
    (specs, alpha, seed, trial, methods, k_max, train_size, test_size) = args
    train = sample_mixture(specs, train_size, (1.0 - alpha, alpha), seed, stream_id(TRAIN_PURPOSE, trial))
    test = sample_mixture(specs, test_size, (0.5, 0.5), seed, stream_id(TEST_PURPOSE, trial))
    return score_trial(train, test, methods, k_max, lambda j: fold_seed(seed, CV_PURPOSE, trial, j),
                       lambda q: bayes_classify_batch(specs, q))


def _run_design(
    specs, alpha, trials, seed, methods, k_max, train_size, test_size, jobs
) -> list[TrialReport]:
    methods = validate_methods(methods, valid=SIMULATION_METHODS)
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5], got {alpha}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for sample, n, proportions, flag in (
        (f"training sample at alpha {alpha}", train_size, (1.0 - alpha, alpha), "--train-size"),
        ("test sample", test_size, (0.5, 0.5), "--test-size"),
    ):
        try:
            _class_counts(int(n), proportions)
        except ValueError as exc:
            raise ValueError(f"the {sample} (size {n}): {exc}; raise {flag}") from None
    if {KNN, WNN} & set(methods):  # every trial draws the same class counts
        counts, folds = _class_counts(int(train_size), (1.0 - alpha, alpha)), KnnConfig().cv_folds
        if counts.min() < folds:
            vote = " and ".join(name for name in methods if name in (KNN, WNN))
            raise ValueError(f"the training sample at alpha {alpha} (size {train_size}) gives its minority, "
                             f"class {int(counts.argmin()) + 1}, {counts.min()} rows, fewer than the "
                             f"cv_folds={folds} that {vote} need; raise --train-size")
    args = [
        (specs, float(alpha), int(seed), t, methods, int(k_max), int(train_size), int(test_size))
        for t in range(trials)
    ]
    return run_trials(_simulation_trial, args, methods, jobs)


def run_location_experiment(
    alpha: float,
    trials: int,
    seed: int,
    methods,
    k_max: int = 45,
    train_size: int = 1000,
    test_size: int = 1000,
    jobs: int = 1,
) -> list[TrialReport]:
    """Normal location design: minority mean (1,1) at fraction alpha."""
    return _run_design(
        location_specs(), alpha, trials, seed, methods, k_max, train_size, test_size, jobs
    )


def run_scale_experiment(
    alpha: float,
    minority_role: str,
    trials: int,
    seed: int,
    methods,
    k_max: int = 45,
    train_size: int = 1000,
    test_size: int = 1000,
    jobs: int = 1,
) -> list[TrialReport]:
    """Normal scale design: variance 1 vs 2, minority role selectable."""
    return _run_design(
        scale_specs(minority_role), alpha, trials, seed, methods, k_max, train_size, test_size, jobs
    )
