"""Survival datasets: CSV reading and writing, standardization, stratified splits.

This module holds the only CSV reader and the only CSV writer.  A file has
one header row.  The ``time`` and ``event`` columns are required for
training and evaluation; for prediction they are optional and not read.
Every other column is a covariate.  Without a column list the covariates
are kept in header order; with one (the checkpoint's) they are bound by
header name, so the file may order them freely, and the result follows the
list's order.  A covariate column missing from the file or not in the list,
a duplicate column, an empty, non-numeric or non-finite cell, and a
negative time are data errors that name the column and, for a cell, the
row.  ``write_columns`` writes every CSV the package produces, floats as
their ``repr``, so a write -> read round trip is exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, IngestionError

RESERVED_COLUMNS = ("time", "event")


@dataclass
class SurvivalData:
    """Covariates, observed times and event indicators for n subjects."""

    x: np.ndarray
    time: np.ndarray
    event: np.ndarray
    columns: tuple

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.time = np.asarray(self.time, dtype=np.float64)
        self.event = np.asarray(self.event, dtype=np.int64)
        n = len(self.time)
        if self.x.ndim != 2 or self.x.shape[0] != n or len(self.event) != n:
            raise IngestionError(
                f"inconsistent dataset shapes: x {self.x.shape}, "
                f"time {self.time.shape}, event {self.event.shape}")
        if not np.all(np.isfinite(self.x)):
            raise IngestionError("covariates contain non-finite values")
        if np.any(self.time < 0) or not np.all(np.isfinite(self.time)):
            raise IngestionError("observed times must be finite and nonnegative")
        if not np.all((self.event == 0) | (self.event == 1)):
            raise IngestionError("event indicator must be 0 or 1")

    def __len__(self):
        return len(self.time)

    @property
    def n_features(self):
        return self.x.shape[1]

    def subset(self, idx) -> "SurvivalData":
        return SurvivalData(self.x[idx], self.time[idx], self.event[idx], self.columns)


def _number(path, cell, column, row_no) -> float:
    if cell == "":
        raise IngestionError(f"{path}: missing value in column {column!r}, row {row_no}")
    try:
        value = float(cell)
    except ValueError:
        raise IngestionError(
            f"{path}: non-numeric value {cell!r} in column {column!r}, row {row_no}"
        ) from None
    if not math.isfinite(value):
        raise IngestionError(
            f"{path}: non-finite value {cell!r} in column {column!r}, row {row_no}")
    return value


def _column(path, rows, j, column) -> np.ndarray:
    """Field ``j`` of every row as floats; a bad cell is an error naming its row."""
    try:
        values = np.array([float(row[j]) for row in rows])
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        # cell by cell, so the error names the first bad cell's row
        values = np.array([_number(path, row[j], column, i + 2)
                           for i, row in enumerate(rows)])
    return values


def _read(path, columns, outcomes: bool):
    """Parse a CSV into (x, time, event, covariate names); see the module doc."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise IngestionError(f"{path}: cannot read CSV: {err}") from None
    if header is None:
        raise IngestionError(f"{path}: empty file")
    duplicates = sorted({c for c in header if header.count(c) > 1})
    if duplicates:
        raise IngestionError(f"{path}: duplicate columns {duplicates}")
    if outcomes:
        for required in RESERVED_COLUMNS:
            if required not in header:
                raise IngestionError(f"{path}: missing required column {required!r}")
    present = [c for c in header if c not in RESERVED_COLUMNS]
    if columns is None:
        columns = present
        if not columns:
            raise IngestionError(f"{path}: no covariate columns")
    else:
        columns = list(columns)
        missing = [c for c in columns if c not in present]
        unexpected = [c for c in present if c not in columns]
        if missing or unexpected:
            raise IngestionError(f"{path}: covariate columns missing {missing}, "
                                 f"unexpected {unexpected}")
    if not rows:
        raise IngestionError(f"{path}: no data rows")

    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise IngestionError(f"{path}: row {i + 2} has {len(row)} fields, "
                                 f"expected {len(header)}")
    x = np.column_stack([_column(path, rows, header.index(c), c) for c in columns])
    if not outcomes:
        return x, None, None, tuple(columns)
    t = header.index("time")
    time = _column(path, rows, t, "time")
    negative = np.flatnonzero(time < 0)
    if len(negative):
        i = int(negative[0])
        raise IngestionError(
            f"{path}: negative value {rows[i][t]!r} in column 'time', row {i + 2}")
    e = header.index("event")
    events = [row[e] for row in rows]
    for i, cell in enumerate(events):
        if cell not in ("0", "1", "0.0", "1.0"):
            raise IngestionError(
                f"{path}: event must be 0 or 1, got {cell!r} in row {i + 2}")
    event = np.array([int(float(cell)) for cell in events], dtype=np.int64)
    return x, time, event, tuple(columns)


def load_csv(path, columns=None) -> SurvivalData:
    """Read a survival CSV; ``columns`` binds the covariates by name."""
    return SurvivalData(*_read(path, columns, outcomes=True))


def load_covariates(path, columns) -> np.ndarray:
    """Covariates of a CSV bound by name to ``columns``; time and event are not read."""
    return _read(path, columns, outcomes=False)[0]


def write_columns(path, header, columns) -> None:
    """Write ``header`` and then one row per position of ``columns``.

    Array columns are written through ``.tolist()``; the csv module writes a
    float as its ``repr`` and ``None`` as an empty cell.  Columns of unequal
    length raise ``ValueError``.
    """
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))


def save_csv(data: SurvivalData, path) -> None:
    write_columns(path, [*data.columns, "time", "event"],
                  [*data.x.T, data.time, data.event])


class Standardizer:
    """Zero-mean unit-variance transform fitted on the training split."""

    def __init__(self, mean=None, scale=None):
        self.mean = None if mean is None else np.asarray(mean, dtype=np.float64)
        self.scale = None if scale is None else np.asarray(scale, dtype=np.float64)

    def fit(self, x) -> "Standardizer":
        x = np.asarray(x, dtype=np.float64)
        self.mean = x.mean(axis=0)
        std = x.std(axis=0)
        self.scale = np.where(std > 0, std, 1.0)
        return self

    def transform(self, x):
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.scale


def stratified_split(data: SurvivalData, val_fraction: float, rng):
    """Index split stratified by the event indicator.

    Guarantees at least one event in the validation part whenever the data
    contains two or more events.
    """
    event_idx = np.flatnonzero(data.event == 1)
    censor_idx = np.flatnonzero(data.event == 0)
    rng.shuffle(event_idx)
    rng.shuffle(censor_idx)
    n_val_e = int(round(val_fraction * len(event_idx)))
    if len(event_idx) >= 2:
        n_val_e = min(max(n_val_e, 1), len(event_idx) - 1)
    else:
        n_val_e = 0
    n_val_c = int(round(val_fraction * len(censor_idx)))
    n_val_c = min(n_val_c, max(len(censor_idx) - 1, 0))
    val_idx = np.concatenate([event_idx[:n_val_e], censor_idx[:n_val_c]])
    train_idx = np.concatenate([event_idx[n_val_e:], censor_idx[n_val_c:]])
    train_idx.sort()
    val_idx.sort()
    if len(train_idx) == 0 or data.event[train_idx].sum() == 0:
        raise DegenerateDataError("training split has no events after splitting")
    return train_idx, val_idx
