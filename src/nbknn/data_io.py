"""CSV ingestion, standardization, and the balanced split protocol.

A CSV file is UTF-8 text with a header row, parsed by one ``np.loadtxt``
call when it is clean and by the csv module otherwise (:func:`_read_csv`).

The split protocol: per trial, m = round(fraction * smallest-class
size) rows are drawn without replacement from every class to form the
test set (so the test set is class-balanced with m rows per class) and
the remainder trains.  Rounding is banker's rounding.  Randomness comes
from the stream addressed by (seed, split-purpose, trial), so each
trial is reproducible in isolation and trials can run in parallel.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .rng import Stream, stream_id

SPLIT_PURPOSE = 1


class CsvFormatError(ValueError):
    """The input file violates the expected CSV schema."""


@dataclass(frozen=True)
class SplitSpec:
    minority_test_fraction: float = 0.25
    seed: int = 0
    trials: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.minority_test_fraction < 1.0:
            raise ValueError(
                f"minority_test_fraction must lie in (0, 1), got {self.minority_test_fraction}"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature training mean/SD; constant features are dropped."""

    mean: np.ndarray
    std: np.ndarray
    kept: tuple[int, ...]
    dropped: tuple[int, ...]


@dataclass(frozen=True)
class CsvDataset:
    """A loaded CSV: data plus the name mappings needed to report back."""

    data: LabeledDataset
    label_column: str
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]

    def class_name(self, label: int) -> str:
        return self.class_names[label - 1]


def _header(path, names: list[str]) -> list[str]:
    """The stripped header names; raises on a duplicate."""
    header = [h.strip() for h in names]
    for i, name in enumerate(header):
        if name in header[:i]:
            raise CsvFormatError(f"{path}: duplicate column name {name!r} in the header")
    return header


def _read_csv(path, select) -> tuple[list[str], np.ndarray, list[str]]:
    """Header, float matrix of the feature columns, and the label cells.

    ``select(header)`` checks the stripped header and returns the
    positions of the feature columns, in output order, and the position
    of the label column or None.  Header names must be unique, every
    nonblank row must have one field per name, every feature cell must
    parse as a finite float and every label cell must be nonblank; errors
    cite the row and column, and a file that is not UTF-8 is named.

    A file with no quote and no carriage return is read by numpy's parser
    (:func:`_read_plain`).  Every other file, and every file that fails a
    check there, is read by the csv module (:func:`_read_rows`), which
    gives the same values and labels and is the only source of messages.
    """
    with open(path, "rb") as fh:
        parsed = _read_plain(path, fh, select)
    return _read_rows(path, select) if parsed is None else parsed


def _read_plain(path, fh, select) -> tuple[list[str], np.ndarray, list[str]] | None:
    """:func:`_read_csv` of the binary file ``fh`` by one ``np.loadtxt``,
    or None if the file holds a quote or a carriage return, or a check
    fails.  Without them the csv module splits a line at every comma, as
    numpy does.

    The header is the first line, after a UTF-8 byte-order mark, split at
    its commas.  ``loadtxt`` reads the body into one field per name, a
    float for a feature column and a str for any other, so it refuses a
    row of any other length.  It refuses every cell that ``float`` refuses,
    and a few that it takes (``1_0``, non-ASCII digits, lines of spaces),
    which the csv module then reads; it takes ``nan`` and ``inf``, which
    the csv module then names.
    """
    for block in iter(lambda: fh.read(1 << 18), b""):
        if b'"' in block or b"\r" in block:
            return None
    fh.seek(0)
    fh.seek(3 if fh.read(3) == b"\xef\xbb\xbf" else 0)
    line = fh.readline()
    if not line:
        return None  # an empty file
    try:
        names = line.removesuffix(b"\n").decode("utf-8")
    except UnicodeDecodeError:
        return None
    header = _header(path, names.split(",") if names else [])
    positions, label_pos = select(header)
    start = fh.tell()
    if all(blank == b"\n" for blank in fh):
        return None  # no data rows; loadtxt would warn
    fh.seek(start)
    dtype = [(str(i), "f8" if i in positions else "O") for i in range(len(header))]
    try:
        rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar=None,
                          ndmin=1, encoding="utf-8")
    except ValueError:  # UnicodeDecodeError too
        return None
    values = np.stack([rows[str(i)] for i in positions], axis=1)
    labels = [] if label_pos is None else [cell.strip() for cell in rows[str(label_pos)].tolist()]
    return (header, values, labels) if all(labels) and np.isfinite(values).all() else None


def _read_rows(path, select) -> tuple[list[str], np.ndarray, list[str]]:
    """:func:`_read_csv` by the csv module: the values go straight into
    one flat buffer of 8 bytes a cell, which the matrix views."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a byte-order mark
            reader = csv.reader(fh)
            try:
                header = _header(path, next(reader))
            except StopIteration:
                raise CsvFormatError(f"{path}: file is empty") from None
            positions, label_pos = select(header)

            values = array("d")
            raw_labels: list[str] = []
            bad_cells: list[str] = []
            n_rows = 0
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise CsvFormatError(
                        f"{path}: row {line_no} has {len(row)} fields, expected {len(header)}"
                    )
                for i in positions:
                    cell = row[i]
                    try:
                        v = float(cell)
                    except ValueError:
                        bad_cells.append(
                            f"row {line_no}, column {header[i]!r}: non-numeric value {cell.strip()!r}"
                        )
                        continue
                    if not math.isfinite(v):
                        bad_cells.append(
                            f"row {line_no}, column {header[i]!r}: non-finite value {cell.strip()!r}"
                        )
                        continue
                    values.append(v)
                n_rows += 1
                if label_pos is not None:
                    raw_labels.append(row[label_pos].strip())
                    if not raw_labels[-1]:
                        bad_cells.append(f"row {line_no}, column {header[label_pos]!r}: empty label")
    except UnicodeDecodeError:
        raise CsvFormatError(f"{path}: not valid UTF-8 text") from None

    if bad_cells:
        shown = "; ".join(bad_cells[:5])
        more = f" (and {len(bad_cells) - 5} more)" if len(bad_cells) > 5 else ""
        raise CsvFormatError(f"{path}: {shown}{more}")
    if not n_rows:
        raise CsvFormatError(f"{path}: no data rows")
    return header, np.frombuffer(values, dtype=np.float64).reshape(n_rows, len(positions)), raw_labels


def load_csv(path, label_column: str) -> CsvDataset:
    """Read a headered CSV into a dataset.

    Class labels are re-encoded to 1..J by descending class count (ties
    by first appearance); every non-label column must parse as a finite
    float, and every label must be nonblank.
    """

    def select(header: list[str]) -> tuple[list[int], int]:
        if label_column not in header:
            raise CsvFormatError(
                f"{path}: label column {label_column!r} not found; "
                f"available columns: {', '.join(header)}"
            )
        positions = [i for i, h in enumerate(header) if h != label_column]
        if not positions:
            raise CsvFormatError(f"{path}: no feature columns besides the label")
        return positions, header.index(label_column)

    header, points, raw_labels = _read_csv(path, select)

    # Encode by descending count, ties by first appearance (Counter order, kept by the stable sort).
    counts = Counter(raw_labels)
    ordered = sorted(counts, key=lambda lab: -counts[lab])
    encoding = {lab: i + 1 for i, lab in enumerate(ordered)}
    labels = np.array([encoding[lab] for lab in raw_labels], dtype=np.int64)

    return CsvDataset(
        data=LabeledDataset(points, labels),
        label_column=label_column,
        feature_names=tuple(h for h in header if h != label_column),
        class_names=tuple(ordered),
    )


def load_queries(path, train: CsvDataset) -> np.ndarray:
    """Query rows of a headered CSV, columns in the training feature order.

    The header must name exactly the training features, plus optionally
    the training label column, whose values are ignored.
    """

    def select(header: list[str]) -> tuple[list[int], None]:
        expected = set(train.feature_names)
        if train.label_column in header:
            expected.add(train.label_column)
        got = set(header)
        if got != expected:
            parts = []
            if expected - got:
                parts.append(f"missing columns: {', '.join(sorted(expected - got))}")
            if got - expected:
                parts.append(f"unexpected columns: {', '.join(sorted(got - expected))}")
            raise CsvFormatError(
                f"{path}: query schema does not match training schema; " + "; ".join(parts)
            )
        return [header.index(name) for name in train.feature_names], None

    return _read_csv(path, select)[1]


def standardize(
    train: LabeledDataset, others: list[LabeledDataset] | tuple[LabeledDataset, ...] = ()
) -> tuple[LabeledDataset, list[LabeledDataset], StandardizationParams]:
    """Z-score all datasets with the training mean/SD (denominator n-1).

    Constant training features carry no distance information and are
    dropped everywhere; dropping them all is an error.
    """
    mean = train.points.mean(axis=0)
    std = train.points.std(axis=0, ddof=1) if train.n > 1 else np.zeros(train.dim)
    keep = std > 0.0
    if not np.any(keep):
        raise ValueError("every feature is constant on the training data")
    kept = tuple(int(i) for i in np.flatnonzero(keep))
    dropped = tuple(int(i) for i in np.flatnonzero(~keep))
    params = StandardizationParams(
        mean=mean[keep], std=std[keep], kept=kept, dropped=dropped
    )

    def apply(ds: LabeledDataset) -> LabeledDataset:
        pts = (ds.points[:, keep] - params.mean) / params.std
        return LabeledDataset(pts, ds.labels, ds.n_classes)

    return apply(train), [apply(ds) for ds in others], params


def split_indices(
    data: LabeledDataset, spec: SplitSpec, trial: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (train, test) for one trial of the split protocol."""
    if trial < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial}")
    counts = data.class_counts
    if counts.min() < 1:
        raise ValueError("every class needs at least one training row")
    smallest = int(counts.min())
    if smallest < 4:
        raise ValueError(f"smallest class has {smallest} rows; need at least 4 to split")
    m = round(spec.minority_test_fraction * smallest)
    if m == 0:
        raise ValueError(
            f"test allocation rounds to zero rows per class "
            f"(fraction {spec.minority_test_fraction} of {smallest})"
        )
    if m >= smallest:
        raise ValueError(f"test allocation {m} (fraction {spec.minority_test_fraction} of "
                         f"{smallest}) leaves the smallest class no training rows")

    stream = Stream(spec.seed, stream_id(SPLIT_PURPOSE, trial))
    test_parts = []
    for cls in range(1, data.n_classes + 1):
        idx = np.flatnonzero(data.labels == cls)
        perm = stream.permutation(idx.size)
        test_parts.append(idx[perm[:m]])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.ones(data.n, dtype=bool)
    mask[test_idx] = False
    return np.flatnonzero(mask), test_idx


def balanced_split(
    data: LabeledDataset, spec: SplitSpec, trial: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """One trial's (train, test) datasets; test is balanced per class."""
    train_idx, test_idx = split_indices(data, spec, trial)
    return data.subset(train_idx), data.subset(test_idx)
