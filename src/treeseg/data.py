"""Tabular data ingestion, encoding, splitting, and standardization.

Everything downstream (tree building, leaf models, evaluation) consumes the
dense numeric `Dataset` produced here. Categorical columns are one-hot
encoded at ingestion; rows with missing or unparseable cells are dropped and
counted so the loss is visible in the ingestion report.

This module is the one place that opens and decodes the files treeseg
reads: data CSVs (`load_csv`, `ingest`), and run configs and model
documents (`read_json`). Each is read as UTF-8, a leading byte-order mark
skipped. Content that is not UTF-8, not CSV or not a JSON object raises
`DataError`; a file that cannot be opened raises `OSError`, unchanged.

The CSV reader works through the file in blocks of rows and parses each
column of a block in one pass, with no Python call per cell. The rule for
a cell is Python's `float` on the stripped cell, and a row is kept only if
every value it parses to is finite.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

COLUMN_KINDS = ("numeric", "categorical", "target")
TRANSFORMS = ("none", "log")


class DataError(ValueError):
    """Raised when a file, column spec, or split request cannot be honored."""


# The number rules for every value read from a JSON document: run configs and model documents.
def _integer(name: str, value) -> int:
    """A whole number; integral floats such as 70.0 count, booleans do not."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise DataError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """A finite number; integers count, booleans, NaN and infinities do not."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise DataError(f"{name} must be a finite number, got {value!r}")


def read_json(path: str) -> dict:
    """The JSON object a UTF-8 file holds; a leading byte-order mark is skipped.

    Raises DataError when the file is not UTF-8, is not JSON, is nested too
    deeply to parse or holds anything but an object. OSError, as from a
    missing file, passes through.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        # ValueError covers bad UTF-8, bad JSON and integers too long to convert.
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path} is not a UTF-8 JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path} must hold a JSON object")
    return doc


@dataclass(frozen=True)
class ColumnSpec:
    """How one source column is interpreted during ingestion.

    kind:
        "numeric"     parsed as float and used as a feature
        "categorical" one-hot encoded into a block of indicator features
        "target"      parsed as float and used as the response
    transform:
        "log" takes the natural log; only valid when every observed value of
        the column is strictly positive, and never valid for categoricals.
    """

    name: str
    kind: str = "numeric"
    transform: str = "none"

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise DataError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.transform not in TRANSFORMS:
            raise DataError(f"unknown transform {self.transform!r} for {self.name!r}")
        if self.kind == "categorical" and self.transform != "none":
            raise DataError(f"transform {self.transform!r} not valid for categorical column {self.name!r}")


_COLUMN_KEYS = frozenset(f.name for f in fields(ColumnSpec))


def columns_from_doc(items) -> list[ColumnSpec]:
    """Column specs from a JSON list of column objects (a run config's or a
    model document's): each an object with a string "name" and no key
    besides ColumnSpec's fields."""
    if not isinstance(items, list):
        raise DataError(f"columns must be a list of column objects, got {items!r}")
    for c in items:
        if not (isinstance(c, dict) and isinstance(c.get("name"), str)):
            raise DataError(f"a column must be an object with a string \"name\", got {c!r}")
        unknown = sorted(set(c) - _COLUMN_KEYS)
        if unknown:
            raise DataError(f"unknown key {unknown[0]!r} in column {c['name']!r}")
    return [ColumnSpec(name=c["name"], kind=str(c.get("kind", "numeric")),
                       transform=str(c.get("transform", "none"))) for c in items]


def recipe_from_doc(doc) -> tuple[list[ColumnSpec], dict[str, tuple[str, ...]]] | None:
    """The column specs and known category levels of a model document's
    ingestion recipe. A recipe is null, or an object whose "columns" is a
    list of column objects and whose "levels", when present, maps column
    names to lists of strings."""
    if doc is None:
        return None
    if not isinstance(doc, dict) or "columns" not in doc:
        raise DataError(f"an ingestion recipe must be an object with \"columns\", got {doc!r}")
    specs = columns_from_doc(doc["columns"])
    levels = doc.get("levels", {})
    if not isinstance(levels, dict):
        raise DataError(f"ingestion levels must be an object keyed by column, got {levels!r}")
    for name, lv in levels.items():
        if not (isinstance(lv, list) and all(isinstance(v, str) for v in lv)):
            raise DataError(f"levels of {name!r} must be a list of strings, got {lv!r}")
    return specs, {name: tuple(lv) for name, lv in levels.items()}


@dataclass(frozen=True)
class Dataset:
    """Dense numeric feature matrix plus response vector.

    Immutable after construction; the arrays are marked read-only so they can
    be shared across threads without copying.
    """

    features: np.ndarray
    response: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        resp = np.ascontiguousarray(np.asarray(self.response, dtype=np.float64))
        if feats.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if resp.ndim != 1 or resp.shape[0] != feats.shape[0]:
            raise DataError("response must be a vector with one entry per row")
        if len(self.feature_names) != feats.shape[1]:
            raise DataError("feature_names length must equal the number of feature columns")
        if feats.size and not np.all(np.isfinite(feats)):
            raise DataError("features contain non-finite values")
        if resp.size and not np.all(np.isfinite(resp)):
            raise DataError("response contains non-finite values")
        feats.setflags(write=False)
        resp.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "response", resp)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @functools.cached_property
    def feature_order(self) -> np.ndarray:
        """Stable sort order of every feature: row j lists the row indices
        in rising order of feature j, equal values in rising row index.

        d x n and read-only; sorted on first use, then shared by every tree
        grown on this dataset.
        """
        order = np.ascontiguousarray(np.argsort(self.features, axis=0, kind="stable").T)
        order.setflags(write=False)
        return order

    def take(self, indices) -> "Dataset":
        """New Dataset holding the given rows (fancy indexing, copies)."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.features[idx], self.response[idx], self.feature_names)


@dataclass(frozen=True)
class SplitPair:
    """Disjoint train/test row split of one source dataset."""

    train: Dataset
    test: Dataset


@dataclass
class IngestionReport:
    """What happened while turning a CSV file into a Dataset."""

    path: str
    rows_read: int = 0
    rows_dropped: int = 0
    unseen_category_rows: int = 0
    encodings: dict[str, tuple[str, ...]] = field(default_factory=dict)
    n_rows: int = 0
    n_features: int = 0
    header: list[str] = field(default_factory=list)  # column names, stripped
    columns: list[ColumnSpec] = field(default_factory=list)  # the specs read
    rows: list[list[str]] | None = None  # raw cells of the kept rows (keep_rows)

    def recipe(self) -> dict:
        """The ingestion recipe a model document carries, as
        `recipe_from_doc` reads it: the column specs read and the category
        levels found."""
        return {
            "columns": [asdict(c) for c in self.columns],
            "levels": {name: list(levels) for name, levels in self.encodings.items()},
        }

    def to_text(self) -> str:
        lines = [
            f"file: {self.path}",
            f"rows_read: {self.rows_read}",
            f"rows_dropped: {self.rows_dropped}",
            f"rows_kept: {self.n_rows}",
            f"feature_columns: {self.n_features}",
        ]
        for name, levels in self.encodings.items():
            lines.append(f"encoded: {name} -> {len(levels)} indicator columns")
        if self.unseen_category_rows:
            lines.append(f"rows_with_unseen_categories: {self.unseen_category_rows}")
        return "\n".join(lines)


def _parse_float(cell: str) -> float | None:
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


# Rows parsed per block. Each column of a block is parsed in one pass, and
# only one block's cell strings are alive at a time. The tracemalloc peak of
# `load_csv` on a 20640 x 9 file of repr floats is 3.1 MB in blocks of 1024
# rows, 7.4 MB in blocks of 4096 and 18.8 MB with the whole file's columns
# at once, for the same speed; a reader holding every row's values peaks
# at 12.9 MB.
_BLOCK_ROWS = 1024


def _parse_column(cells: list[str]) -> np.ndarray:
    """`float` of every cell in one pass; NaN wherever `_parse_float`
    rejects a cell, so the finiteness mask drops its row."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return np.array([math.nan if (v := _parse_float(c)) is None else v for c in cells],
                        dtype=np.float64)


def _read_rows(path: str, specs: list[ColumnSpec] | None, keep_rows: bool):
    """Parse the CSV in one pass, a block of `_BLOCK_ROWS` rows at a time:
    the per-spec values of the kept rows (a float64 array for a numeric or
    target column, a list of stripped strings for a categorical one), and a
    report of the header, the specs read, the counts and (with keep_rows)
    the raw cells of the kept rows. With specs None, every column of the
    header is read as numeric and the last one as the target.

    Within a block each column is parsed in one pass, but the rule for a
    cell is the per-cell one: Python's `float` on the stripped cell, and a
    row is kept only if all its numeric values are finite and none of its
    categorical cells is empty. Blank lines are skipped and not counted;
    a row with too few cells is read and dropped.

    A column that a spec reads must appear once in the header; other
    columns may repeat. Text that is not UTF-8, or that the csv module
    cannot split into rows (a cell over its field size limit, say), raises
    DataError naming the file, and the line for a CSV error.
    """
    import csv

    report = IngestionReport(path=path, rows=[] if keep_rows else None)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"empty file: {path}")
            header = report.header = [h.strip() for h in header]
            if specs is None:
                if len(header) < 2:
                    raise DataError(
                        f"{path} needs at least one feature column and a target column")
                specs = [*map(ColumnSpec, header[:-1]), ColumnSpec(header[-1], kind="target")]
            specs = report.columns = list(specs)
            if not specs:
                raise DataError(f"no columns to read from {path}")
            col_idx = []
            for spec in specs:
                if spec.name not in header:
                    raise DataError(f"column {spec.name!r} not found in header of {path}")
                if header.count(spec.name) > 1:
                    raise DataError(
                        f"column {spec.name!r} appears twice in the header of {path}")
                col_idx.append(header.index(spec.name))
            min_len = max(col_idx) + 1
            parts = [[] for _ in specs]
            for block in iter(lambda: list(itertools.islice(reader, _BLOCK_ROWS)), []):
                rows = [raw for raw in block if raw and (len(raw) > 1 or raw[0].strip())]
                report.rows_read += len(rows)
                full = [raw for raw in rows if len(raw) >= min_len]
                n = len(full)
                keep = np.ones(n, dtype=bool)
                values = []
                for spec, j in zip(specs, col_idx):
                    cells = [raw[j].strip() for raw in full]
                    if spec.kind == "categorical":
                        if "" in cells:
                            keep &= np.array([c != "" for c in cells], dtype=bool)
                        values.append(cells)
                    else:
                        col = _parse_column(cells)
                        keep &= np.isfinite(col)
                        values.append(col)
                n_kept = int(np.count_nonzero(keep))
                report.rows_dropped += len(rows) - n_kept
                if n_kept < n:
                    values = [v[keep] if isinstance(v, np.ndarray)
                              else list(itertools.compress(v, keep)) for v in values]
                    full = list(itertools.compress(full, keep))
                for part, v in zip(parts, values):
                    part.append(v)
                if keep_rows:
                    report.rows.extend(full)
        except csv.Error as exc:
            raise DataError(f"{path}, line {reader.line_num}: not valid CSV: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    columns = {}
    for spec, part in zip(specs, parts):
        if spec.kind == "categorical":
            columns[spec.name] = list(itertools.chain.from_iterable(part))
        else:
            columns[spec.name] = np.concatenate(part) if part else np.empty(0)
    report.n_rows = report.rows_read - report.rows_dropped
    return columns, report


def _apply_transform(spec: ColumnSpec, col: np.ndarray) -> np.ndarray:
    if spec.transform == "log":
        if col.size and np.min(col) <= 0.0:
            raise DataError(f"log transform on {spec.name!r} requires strictly positive values")
        return np.log(col)
    return col


def ingest(path: str, specs: list[ColumnSpec] | None,
           levels: dict[str, tuple[str, ...]] | None = None, keep_rows: bool = False):
    """Core CSV ingestion shared by training and scoring paths.

    Reads exactly the given specs, of which at most one is the target, or
    with specs None every column as numeric and the last as the target.
    Returns ``(features, response, feature_names, report)``; ``response`` is
    None when no target is read (scoring inputs), and ``report.columns`` is
    the specs read. When ``levels`` is provided, categorical columns are
    encoded against those known levels and rows showing unseen levels get
    an all-zero indicator block (counted in the report); otherwise levels
    are discovered from the file and sorted. With ``keep_rows`` the report
    also carries the raw cells of every kept row, aligned with the feature
    rows, from the same single pass over the file.
    """
    if specs is not None:
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names in specs")
        n_targets = sum(s.kind == "target" for s in specs)
        if n_targets > 1:
            raise DataError(f"at most one target column allowed, got {n_targets}")

    columns, report = _read_rows(path, specs, keep_rows)
    specs = report.columns
    target = next((s for s in specs if s.kind == "target"), None)
    n = report.n_rows

    feature_blocks: list[np.ndarray] = []
    feature_names: list[str] = []
    unseen_rows = np.zeros(n, dtype=bool)
    for spec in specs:
        if spec.kind == "target":
            continue
        if spec.kind == "numeric":
            col = _apply_transform(spec, columns[spec.name])
            feature_blocks.append(col.reshape(n, 1) if n else np.empty((0, 1)))
            feature_names.append(spec.name)
        else:
            observed = columns[spec.name]
            if levels is not None and spec.name in levels:
                lv = tuple(levels[spec.name])
            else:
                lv = tuple(sorted(set(observed)))
            if not lv and n:
                raise DataError(f"categorical column {spec.name!r} has no levels")
            block = np.zeros((n, len(lv)), dtype=np.float64)
            pos = {name: j for j, name in enumerate(lv)}
            for i, val in enumerate(observed):
                j = pos.get(val)
                if j is None:
                    unseen_rows[i] = True
                else:
                    block[i, j] = 1.0
            feature_blocks.append(block)
            feature_names.extend(f"{spec.name}={name}" for name in lv)
            report.encodings[spec.name] = lv

    features = np.hstack(feature_blocks) if feature_blocks else np.empty((n, 0))
    response = None if target is None else _apply_transform(target, columns[target.name])

    report.unseen_category_rows = int(unseen_rows.sum())
    report.n_features = features.shape[1]
    return features, response, feature_names, report


def load_csv(path: str, specs: list[ColumnSpec] | None) -> tuple[Dataset, IngestionReport]:
    """Load a CSV file into a Dataset per the column specs, which hold
    exactly one target; with specs None, every column is numeric and the
    last one is the target.

    Categorical columns are one-hot encoded (levels sorted for determinism),
    the target is extracted and transformed per its spec, and rows with
    missing or unparseable cells are dropped. The report carries the drop
    count, the encoding summary and the recipe of what was read.
    """
    if specs is not None:
        if (n_targets := sum(s.kind == "target" for s in specs)) != 1:
            raise DataError(f"exactly one target column required, got {n_targets}")
        if len(specs) < 2:
            raise DataError(f"{path} needs at least one feature column and a target column")
    features, response, names, report = ingest(path, specs)
    return Dataset(features, response, tuple(names)), report


def train_test_split(data: Dataset, train_fraction: float, seed: int) -> SplitPair:
    """Deterministic uniform random split; |train| = round(fraction * N)."""
    n = data.n_rows
    if n < 2:
        raise DataError("need at least 2 rows to split")
    if not 0.0 < train_fraction < 1.0:
        raise DataError("train_fraction must lie strictly between 0 and 1")
    n_train = int(round(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise DataError(f"train_fraction={train_fraction} produces an empty train or test set for N={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return SplitPair(train=data.take(perm[:n_train]), test=data.take(perm[n_train:]))


@dataclass(frozen=True)
class Scaler:
    """Per-feature mean/std estimated on training data only.

    A zero-variance feature is passed through unchanged (its std is treated
    as 1 when transforming). The response is never scaled. `safe_std`, the
    std with each 0 replaced by 1, is derived once at construction; it is
    not a field, so documents and comparisons never see it.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        safe_std = np.where(std == 0.0, 1.0, std)
        for name, value in (("mean", mean), ("std", std), ("safe_std", safe_std)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def fit(cls, features: np.ndarray) -> "Scaler":
        feats = np.asarray(features, dtype=np.float64)
        if feats.shape[0] == 0:
            raise DataError("cannot fit a scaler on an empty matrix")
        return cls(mean=feats.mean(axis=0), std=feats.std(axis=0))

    def transform(self, features: np.ndarray) -> np.ndarray:
        return standardize(np.asarray(features, dtype=np.float64), self.mean, self.safe_std)


def standardize(features: np.ndarray, mean: np.ndarray, safe_std: np.ndarray) -> np.ndarray:
    """(features - mean) / safe_std, the one rule for standardized inputs.

    `mean` and `safe_std` are one scaler's d-vectors or, row by row, the
    scalers of a batch's rows, so either form gives each entry the same two
    operations.
    """
    z = features - mean
    z /= safe_std
    return z

