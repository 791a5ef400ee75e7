"""Seeded input generators for the CSV workloads.

The program under test receives only the files written here (and the
seed flag); the oracles rebuild the same arrays from the seed instead
of going through the program's CSV reader.
"""

from __future__ import annotations

import numpy as np

LABEL = "label"

# csv_multiclass: 4 classes, 6 features, class c centred at 1.5 * e_c.
MULTICLASS_COUNTS = (600, 400, 250, 150)
MULTICLASS_DIM = 6
MULTICLASS_SHIFT = 1.5

# fit_predict_wide: 12 features, minority fraction 0.1, minority mean 0.5 * ones.
WIDE_DIM = 12
WIDE_MINORITY_FRACTION = 0.1
WIDE_SHIFT = 0.5
WIDE_CLASSES = ("neg", "pos")  # majority, minority


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, tag])


def _write_csv(path, points: np.ndarray, labels=None) -> None:
    header = [f"x{j}" for j in range(points.shape[1])]
    if labels is not None:
        header.append(LABEL)
    lines = [",".join(header)]
    for i in range(points.shape[0]):
        cells = [repr(float(v)) for v in points[i]]
        if labels is not None:
            cells.append(labels[i])
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def multiclass_csv(path, seed: int, scale: int = 1) -> None:
    """Shuffled 4-class CSV; ``scale`` divides the class counts (warm-up)."""
    rng = _rng(seed, 1)
    blocks, labels = [], []
    for c, count in enumerate(MULTICLASS_COUNTS):
        count //= scale
        mean = np.zeros(MULTICLASS_DIM)
        mean[c] = MULTICLASS_SHIFT
        blocks.append(mean + rng.standard_normal((count, MULTICLASS_DIM)))
        labels += [f"class{c}"] * count
    points = np.vstack(blocks)
    perm = rng.permutation(points.shape[0])
    _write_csv(path, points[perm], [labels[i] for i in perm])


def wide_arrays(seed: int, n_train: int, n_queries: int):
    """(train_points, train_is_minority, query_points) for fit_predict_wide."""
    rng = _rng(seed, 2)
    n_min = round(WIDE_MINORITY_FRACTION * n_train)
    is_min = np.zeros(n_train, dtype=bool)
    is_min[rng.choice(n_train, n_min, replace=False)] = True
    train = rng.standard_normal((n_train, WIDE_DIM)) + WIDE_SHIFT * is_min[:, None]
    query_is_min = rng.random(n_queries) < 0.5
    queries = rng.standard_normal((n_queries, WIDE_DIM)) + WIDE_SHIFT * query_is_min[:, None]
    return train, is_min, queries


def wide_csvs(train_path, query_path, seed: int, n_train: int, n_queries: int) -> None:
    """Binary training CSV plus a label-less query CSV; ``repr`` round-trips
    float64, so the files hold exactly the arrays of :func:`wide_arrays`."""
    train, is_min, queries = wide_arrays(seed, n_train, n_queries)
    _write_csv(train_path, train, [WIDE_CLASSES[int(m)] for m in is_min])
    _write_csv(query_path, queries)
