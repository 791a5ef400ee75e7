"""Training data container shared by all classifiers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with 1-based integer class labels.

    Arrays are copied and marked read-only at construction, so a fitted
    classifier can hold a reference without defensive copies and
    concurrent readers are safe.  ``n_classes`` defaults to the largest
    label; pass it explicitly to keep a parent label space on subsets
    (intermediate classes may then be empty).
    """

    points: np.ndarray
    labels: np.ndarray
    n_classes: int | None = None
    class_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=np.float64, copy=True)
        if points.ndim != 2:
            raise ValueError(f"points must be a 2-D matrix, got shape {points.shape}")
        if points.shape[0] == 0:
            raise ValueError("dataset must contain at least one row")
        if not np.all(np.isfinite(points)):
            raise ValueError("all feature values must be finite")

        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != points.shape[0]:
            raise ValueError(
                f"labels must be 1-D with one entry per row; got {labels.shape} "
                f"for {points.shape[0]} rows"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        labels = labels.astype(np.int64, copy=True)
        if labels.min() < 1:
            raise ValueError("class labels are 1-based; found a label below 1")

        n_classes = int(labels.max()) if self.n_classes is None else int(self.n_classes)
        if labels.max() > n_classes:
            raise ValueError(
                f"label {int(labels.max())} exceeds n_classes={n_classes}"
            )
        counts = np.bincount(labels, minlength=n_classes + 1)[1:]

        for arr in (points, labels, counts):
            arr.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_classes", n_classes)
        object.__setattr__(self, "class_counts", counts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def gram_columns(self) -> np.ndarray:
        """The points transposed, then their squared norms, then ones: the
        ``(dim + 2) x n`` training side of ``neighbors``' distance bound,
        made once per training set and read-only."""
        cols = np.empty((self.dim + 2, self.n))
        cols[: self.dim] = self.points.T
        np.einsum("ij,ij->i", self.points, self.points, out=cols[self.dim])
        cols[self.dim + 1] = 1.0
        cols.setflags(write=False)
        return cols

    def subset(self, indices) -> "LabeledDataset":
        """Rows ``indices`` as a new dataset in the same label space."""
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.points[idx], self.labels[idx], self.n_classes)
