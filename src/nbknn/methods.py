"""Method dispatch and trial scoring shared by the simulation and benchmark
drivers, and the evidence decision that trials and fit-predict share."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .baselines import KnnConfig, cv_vote
from .binary import evidence, fit_binary
from .dataset import LabeledDataset
from .metrics import PrfReport, TrialReport, aggregate_trials, confusion, prf
from .multiclass import _ovo_round, _ovr_round, ovr_evidence, reduction
from .neighbors import Ranking

PROPOSED = "proposed"
OVO_PLUS = "ovo_plus"
OVR_PLUS = "ovr_plus"
KNN = "knn"
WNN = "wnn"
BAYES = "bayes"

# The Gaussian designs are binary and come with a Bayes oracle.
SIMULATION_METHODS = (PROPOSED, KNN, WNN, BAYES)
CSV_METHODS = (PROPOSED, OVO_PLUS, OVR_PLUS, KNN, WNN)


class MethodNameError(ValueError):
    """A method list that is empty, names an unknown method or repeats one."""


def default_methods(n_classes: int) -> tuple[str, ...]:
    if n_classes == 2:
        return (PROPOSED, KNN, WNN)
    return (OVO_PLUS, OVR_PLUS, KNN, WNN)


def validate_methods(methods, n_classes: int | None = None, valid=CSV_METHODS) -> tuple[str, ...]:
    """The method names as a tuple, each checked against ``valid``.

    Raises MethodNameError for a string, an empty list, an unknown name
    or a repeated one, and ValueError for data of fewer than 2 classes or
    when 'proposed' meets data without exactly 2 classes.
    """
    if isinstance(methods, str):
        raise MethodNameError(f"expected a sequence of method names, got the string {methods!r}")
    out = tuple(methods)
    for i, name in enumerate(out):
        if name not in valid:
            raise MethodNameError(
                f"unknown method {name!r}; valid methods: {', '.join(sorted(valid))}"
            )
        if name in out[:i]:
            raise MethodNameError(f"method {name!r} is listed more than once")
    if not out:
        raise MethodNameError("at least one method is required")
    if n_classes is not None and n_classes < 2:
        raise ValueError(f"the data hold {n_classes} class; every method needs at least 2")
    if n_classes is not None and n_classes != 2 and PROPOSED in out:
        raise ValueError("method 'proposed' requires exactly 2 classes; use ovo_plus/ovr_plus")
    return out


def trial_ranking(train: LabeledDataset, queries, methods, k_max: int) -> Ranking:
    """One ranking of ``queries`` deep enough for every method of a trial:
    the evidence sweeps at ``k_max`` and k-NN votes over the default grid."""
    evidence = {PROPOSED, OVO_PLUS, OVR_PLUS} & set(methods)
    vote = {KNN, WNN} & set(methods)
    return Ranking(train, queries, k_max if evidence else 0, max(KnnConfig().k_grid) if vote else 0)


def decide(name: str, ranking: Ranking, k_max: int, emit: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Labels of the queries of ``ranking`` by the evidence method ``name``,
    and its evidence columns, one row per query: E1 and E2 for 'proposed',
    the first one-vs-rest round for the reductions.  'ovr_plus' has them
    at no cost; 'ovo_plus' plays that round only if ``emit``, else None."""
    if name == PROPOSED:
        preds, e1, e2 = evidence(fit_binary(ranking.train, k_max), ranking)
        return preds, np.column_stack([e1, e2])
    if name == OVR_PLUS:
        return reduction(_ovr_round, ranking, k_max)
    if name == OVO_PLUS:
        return reduction(_ovo_round, ranking, k_max)[0], ovr_evidence(ranking, k_max) if emit else None
    raise ValueError(f"{name!r} is not an evidence method")


def predict_with_method(
    name: str,
    train: LabeledDataset,
    queries: np.ndarray,
    ranking: Ranking,
    k_max: int,
    cv_seed: int,
    bayes_oracle=None,
) -> np.ndarray:
    """Run one named method end to end for a single trial, reading
    ``ranking``, the trial's one ranking of ``train`` against ``queries``."""
    if name in (PROPOSED, OVO_PLUS, OVR_PLUS):
        return decide(name, ranking, k_max, False)[0]
    if name in (KNN, WNN):
        cfg = KnnConfig(weighting="uniform" if name == KNN else "inverse-class-size")
        return cv_vote(ranking, cfg, cv_seed)
    if name == BAYES:
        if bayes_oracle is None:
            raise ValueError("method 'bayes' is only available in simulations")
        return bayes_oracle(queries)
    raise ValueError(f"unknown method {name!r}")


def score_trial(
    train: LabeledDataset, test: LabeledDataset, methods, k_max: int, cv_seed, bayes_oracle=None
) -> dict[str, PrfReport]:
    """Each method's scores on ``test``, all methods reading one ranking;
    method j cross-validates with seed ``cv_seed(j)``."""
    ranking = trial_ranking(train, test.points, methods, k_max)
    out: dict[str, PrfReport] = {}
    for j, name in enumerate(methods):
        preds = predict_with_method(name, train, test.points, ranking, k_max, cv_seed(j), bayes_oracle)
        out[name] = prf(confusion(test.labels, preds, train.n_classes))
    return out


def map_trials(fn, args_list, jobs: int = 1) -> list:
    """Run ``fn`` over per-trial argument tuples, in up to ``jobs`` worker
    processes but no more than there are trials, since a pool forks all of
    its workers at once.  Results come back in submission order and each
    trial's randomness is derived from its own stream, so the output is
    identical for any job count."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(args_list) <= 1:
        return [fn(args) for args in args_list]
    chunk = max(1, len(args_list) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=min(jobs, len(args_list))) as pool:
        return list(pool.map(fn, args_list, chunksize=chunk))


def run_trials(trial, args_list, methods, jobs: int = 1) -> list[TrialReport]:
    """Each method's scores from ``trial`` over ``args_list``, aggregated."""
    per_trial = map_trials(trial, args_list, jobs)
    return [aggregate_trials([res[name] for res in per_trial], name) for name in methods]
