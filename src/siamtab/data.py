"""Tabular data pipeline: CSV ingestion, imputation, normalization, splits.

Missing cells are represented as NaN inside a float64 grid; the label column
is never allowed to be missing. All randomized operations take an explicit
integer seed and are deterministic for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NOMINAL = "nominal"
CONTINUOUS = "continuous"
DISCRETE = "discrete"
_KINDS = (NOMINAL, CONTINUOUS, DISCRETE)

# Tokens that mark a missing cell in the CSV dialect we read and write.
_MISSING_TOKENS = ("", "NA")
_CHUNK_ROWS = 256  # table rows save_table_csv joins per write; bounds the text held


@dataclass(frozen=True)
class ColumnSpec:
    """One typed column: name, statistical kind, and whether it is the label."""

    name: str
    kind: str
    is_label: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown column kind {self.kind!r} for {self.name!r}")


def framingham_schema() -> list[ColumnSpec]:
    """Column schema of the Framingham CHD csv, in file order.

    7 nominal columns (label included), 8 continuous, 1 discrete.
    """
    return [
        ColumnSpec("male", NOMINAL),
        ColumnSpec("age", CONTINUOUS),
        ColumnSpec("education", DISCRETE),
        ColumnSpec("currentSmoker", NOMINAL),
        ColumnSpec("cigsPerDay", CONTINUOUS),
        ColumnSpec("BPMeds", NOMINAL),
        ColumnSpec("prevalentStroke", NOMINAL),
        ColumnSpec("prevalentHyp", NOMINAL),
        ColumnSpec("diabetes", NOMINAL),
        ColumnSpec("totChol", CONTINUOUS),
        ColumnSpec("sysBP", CONTINUOUS),
        ColumnSpec("diaBP", CONTINUOUS),
        ColumnSpec("BMI", CONTINUOUS),
        ColumnSpec("heartRate", CONTINUOUS),
        ColumnSpec("glucose", CONTINUOUS),
        ColumnSpec("TenYearCHD", NOMINAL, is_label=True),
    ]


def synthetic_schema(d: int) -> list[ColumnSpec]:
    """Generic schema for a synthetic table: d continuous features + label."""
    cols = [ColumnSpec(f"f{i:02d}", CONTINUOUS) for i in range(d)]
    cols.append(ColumnSpec("label", NOMINAL, is_label=True))
    return cols


def _label_index(schema: list[ColumnSpec]) -> int:
    idx = [i for i, c in enumerate(schema) if c.is_label]
    if len(idx) != 1:
        raise ValueError(f"schema must have exactly one label column, found {len(idx)}")
    return idx[0]


@dataclass
class RawTable:
    """Row-major numeric grid with NaN for missing cells, plus its schema."""

    schema: list[ColumnSpec]
    cells: np.ndarray  # (n_rows, n_cols) float64, NaN = missing

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.float64)
        if self.cells.ndim != 2 or self.cells.shape[1] != len(self.schema):
            raise ValueError(
                f"cell grid shape {self.cells.shape} does not match "
                f"{len(self.schema)} schema columns"
            )

    @property
    def n_rows(self) -> int:
        return self.cells.shape[0]

    def missing_counts(self) -> dict[str, int]:
        miss = np.isnan(self.cells).sum(axis=0)
        return {c.name: int(miss[j]) for j, c in enumerate(self.schema)}


@dataclass
class FeatureTable:
    """Dense feature matrix plus 0/1 label vector, no missing values."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in {0, 1}
    schema: list[ColumnSpec] = field(default_factory=list)  # non-label columns

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must equal the number of feature rows")
        if self.schema and len(self.schema) != self.features.shape[1]:
            raise ValueError("schema length must equal the feature width")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass
class NormStats:
    """Per-column mean and population stddev (clamped below by 1e-8)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be 1-D vectors of equal length")
        if np.any(self.std < STD_FLOOR):
            raise ValueError(f"stddev entries must be >= {STD_FLOOR}")


STD_FLOOR = 1e-8


def _raw_cell(tok: str) -> float:
    """The value of one raw token; the one rule for what load_csv reads.
    "" and "NA", spaces around them allowed, read as NaN (missing). Any
    other token must be a finite number that float() reads, written without
    "_" (float() reads "1_5" as 15) and on one line (float() reads a quoted
    "1\\n"), or it raises ValueError."""
    if "\r" in tok or "\n" in tok:
        raise ValueError("line break inside a cell")
    try:
        value = float(tok)
    except ValueError:
        if tok.strip() in _MISSING_TOKENS:
            return math.nan
        raise ValueError(f"non-numeric value {tok.strip()!r}") from None
    if "_" in tok or not math.isfinite(value):
        raise ValueError(f"non-numeric value {tok.strip()!r}")
    return value


def _raw_row_fault(row: list[str], schema: list[ColumnSpec], label_j: int) -> str | None:
    """Why load_csv refuses a raw row, or None: its width first, then each
    cell in column order by _raw_cell (a missing label is a fault there),
    then the label's value."""
    if len(row) != len(schema):
        return f"expected {len(schema)} cells, got {len(row)}"
    for tok, col in zip(row, schema):
        try:
            value = _raw_cell(tok)
        except ValueError as exc:
            return f"{exc} in column {col.name!r}"
        if col.is_label and math.isnan(value):
            return f"missing value in label column {col.name!r}"
    label = float(row[label_j])
    return None if label in (0.0, 1.0) else f"label must be 0 or 1, got {label}"


def load_csv(path: str | Path, schema: list[ColumnSpec]) -> RawTable:
    """Read a comma-separated file into a RawTable.

    The header row must match the schema names in order. Each cell reads
    by _raw_cell: empty strings and "NA" are missing; any other token that
    is not a finite number ("nan", "inf" and "1_5" included) is an error,
    as are a missing value in the label column and a quoted cell, header
    cells included, that spans lines, so every line an error names is a line
    of the file. The body is parsed by one np.loadtxt call with _raw_cell as
    its converter; only when that parse refuses it is the file rescanned row
    by row, and the error names the first faulty line. A byte that does not
    decode names its line too. This is the reader for raw input; the
    program's own tables go through load_table_csv.
    """
    path = Path(path)
    label_j = _label_index(schema)
    with open(path, newline="") as raw:
        try:
            text = raw.read()
        except UnicodeDecodeError as exc:
            # decoded whole, so exc.start counts from the file's first byte
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}: line {line}: {exc}") from None
    fh = io.StringIO(text, newline="")  # iterates by the file's own lines
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    for cell in header:
        # else the header spans lines, and every line named below is off
        if "\r" in cell or "\n" in cell:
            raise ValueError(f"{path}: line 1: line break inside header cell {cell!r}")
    names = [h.strip() for h in header]
    expected = [c.name for c in schema]
    if names != expected:
        raise ValueError(
            f"{path}: header mismatch: expected {expected}, got {names}"
        )
    body = list(fh)
    if not body:
        raise ValueError(f"{path}: empty table (header only)")
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a body of empty lines, which the shape check refuses
            warnings.simplefilter("ignore", UserWarning)
            # encoding=None, or numpy < 2 hands the converter bytes
            cells = np.loadtxt(path, delimiter=",", quotechar='"', converters=_raw_cell,
                               comments=None, skiprows=reader.line_num, ndmin=2, encoding=None)
        # loadtxt skips empty lines, and takes a file of equally short rows whole
        if cells.shape == (len(body), len(schema)) and np.isin(cells[:, label_j], (0, 1)).all():
            return RawTable(schema, cells)
        fault = f"np.loadtxt read a grid of shape {cells.shape}"
    except ValueError as exc:
        fault = str(exc)
    for line, row in enumerate(csv.reader(body), start=2):
        if row_fault := _raw_row_fault(row, schema, label_j):
            raise ValueError(f"{path}: line {line}: {row_fault}")
    # the rescan disagrees with numpy: pass numpy's own words on
    raise ValueError(f"{path}: {fault}")


def impute(table: RawTable) -> RawTable:
    """Fill missing cells: column median for continuous columns, column mode
    for nominal and discrete (ties broken by the smallest value)."""
    cells = table.cells.copy()
    for j, col in enumerate(table.schema):
        colvals = cells[:, j]
        miss = np.isnan(colvals)
        if not miss.any():
            continue
        observed = colvals[~miss]
        if observed.size == 0:
            raise ValueError(f"column {col.name!r} is entirely missing")
        if col.kind == CONTINUOUS:
            fill = float(np.median(observed))
        else:
            values, counts = np.unique(observed, return_counts=True)
            fill = float(values[np.argmax(counts)])  # unique() sorts: ties -> smallest
        colvals[miss] = fill
    return RawTable(table.schema, cells)


def to_features(table: RawTable) -> FeatureTable:
    """Split an imputed table into a feature matrix and a label vector."""
    if np.isnan(table.cells).any():
        raise ValueError("table still contains missing cells; impute first")
    label_j = _label_index(table.schema)
    feature_cols = [j for j in range(len(table.schema)) if j != label_j]
    features = table.cells[:, feature_cols]
    labels = table.cells[:, label_j].astype(np.int64)
    schema = [table.schema[j] for j in feature_cols]
    return FeatureTable(features, labels, schema)


def fit_norm(ft: FeatureTable) -> NormStats:
    """Per-column mean and population stddev of the feature matrix."""
    if ft.n < 2:
        raise ValueError(f"need at least 2 rows to fit normalization, got {ft.n}")
    mean = ft.features.mean(axis=0)
    std = np.maximum(ft.features.std(axis=0), STD_FLOOR)
    return NormStats(mean, std)


def apply_norm(ft: FeatureTable, stats: NormStats) -> FeatureTable:
    """Z-score every feature cell: (x - mean) / std. Labels are untouched."""
    if stats.mean.shape[0] != ft.d:
        raise ValueError(
            f"normalization stats have {stats.mean.shape[0]} columns, table has {ft.d}"
        )
    features = (ft.features - stats.mean) / stats.std
    return FeatureTable(features, ft.labels.copy(), ft.schema)


def stratified_split_indices(
    labels: np.ndarray, fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Partition row indices so the second part holds ~`fraction` per class.

    Returns (rest, held) index arrays, each sorted, disjoint, covering all rows.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    held_parts = []
    rest_parts = []
    for c in (0, 1):
        idx_c = np.flatnonzero(labels == c)
        if idx_c.size == 0:
            raise ValueError(f"class {c} has no samples")
        perm = rng.permutation(idx_c)
        k = round(fraction * idx_c.size)
        held_parts.append(perm[:k])
        rest_parts.append(perm[k:])
    held = np.sort(np.concatenate(held_parts))
    rest = np.sort(np.concatenate(rest_parts))
    return rest, held


def take_rows(ft: FeatureTable, idx: np.ndarray) -> FeatureTable:
    """Row-subset of a FeatureTable."""
    return FeatureTable(ft.features[idx], ft.labels[idx], ft.schema)


def stratified_split(
    ft: FeatureTable, fraction: float, seed: int
) -> tuple[FeatureTable, FeatureTable]:
    """Split into (rest, held) parts with per-class proportions ~= fraction
    in the held part, within one sample per class. Deterministic per seed."""
    rest, held = stratified_split_indices(ft.labels, fraction, seed)
    return take_rows(ft, rest), take_rows(ft, held)


# Cluster mean offset per coordinate; total inter-cluster separation is
# 2 * SYNTH_OFFSET_SCALE standard deviations regardless of dimension.
SYNTH_OFFSET_SCALE = 2.0


def synth_generate(n: int, d: int, imbalance: float, seed: int) -> FeatureTable:
    """Two Gaussian clusters labeled 0/1 with class-1 fraction = imbalance.

    Cluster means sit at -+ SYNTH_OFFSET_SCALE/sqrt(d) per coordinate with unit
    variance, so the clusters overlap slightly but are separable. Rows are
    shuffled; output is deterministic per seed.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if not 0.0 < imbalance < 1.0:
        raise ValueError(f"imbalance must be in (0, 1), got {imbalance}")
    rng = np.random.default_rng(seed)
    n1 = round(n * imbalance)
    n0 = n - n1
    offset = SYNTH_OFFSET_SCALE / np.sqrt(d)
    x0 = rng.normal(-offset, 1.0, size=(n0, d))
    x1 = rng.normal(offset, 1.0, size=(n1, d))
    features = np.vstack([x0, x1])
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    perm = rng.permutation(n)
    feature_cols = [c for c in synthetic_schema(d) if not c.is_label]
    return FeatureTable(features[perm], labels[perm], feature_cols)


def table_sidecar(path: str | Path) -> Path:
    """Where save_table_csv puts the binary copy of the table at `path`."""
    return Path(path).with_suffix(".npz")


def _table_text(ft: FeatureTable, label_name: str):
    """The CSV bytes of a table: its header, then one block per _CHUNK_ROWS rows.

    Each column's distinct floats are formatted once with repr, floats being
    told apart by bit pattern so that -0.0 keeps its sign; a block joins
    those texts and each row's label, by str, into its lines.
    """
    names = [c.name for c in ft.schema] if ft.schema else [f"f{i:02d}" for i in range(ft.d)]
    yield (",".join(names + [label_name]) + "\n").encode()
    columns = []
    # column by column, so np.unique's temporaries are one column's size
    for bits in ft.features.view(np.uint64).T:
        floats, float_of = np.unique(bits, return_inverse=True)
        texts = np.array(list(map(repr, floats.view(np.float64).tolist())), dtype=object)
        columns.append(texts[float_of])
    columns.append(list(map(str, ft.labels.tolist())))
    for start in range(0, ft.n, _CHUNK_ROWS):
        block = [column[start : start + _CHUNK_ROWS] for column in columns]
        yield "".join([",".join(row) + "\n" for row in zip(*block)]).encode()


def save_table_csv(ft: FeatureTable, path: str | Path, label_name: str = "label"):
    """Persist a FeatureTable in the same CSV dialect we read (label last).

    Floats are written with repr so a round trip reproduces values exactly,
    and labels with str; rows go out one write per block of _CHUNK_ROWS
    rows, joined as _table_text describes. The float64 grid, in file order,
    goes to the table's sidecar (table_sidecar) too, which is what
    load_table_csv reads.
    """
    with open(path, "wb") as fh:
        fh.writelines(_table_text(ft, label_name))
    grid = np.column_stack([ft.features, ft.labels.astype(np.float64)])
    np.savez(table_sidecar(path), grid=grid)


def load_table_csv(path: str | Path, schema: list[ColumnSpec]) -> FeatureTable:
    """Read back the table save_table_csv wrote to `path`, from its sidecar.

    The grid must be float64 with one column per schema entry and at least
    one row, every value finite and every label 0 or 1; a fault, a sidecar
    that is no zip archive or holds no readable grid included, is a
    one-line error naming the sidecar.
    """
    side = table_sidecar(path)
    try:
        # opened as a zip archive whatever it holds: np.load would return a
        # bare array for an .npy file
        with open(side, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as npz:
            grid = npz["grid"]
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
        # ValueError is numpy's own, on a pickled object array say
        raise ValueError(
            f"{side}: not a readable table sidecar ({type(exc).__name__}: {exc})"
        ) from None
    if grid.dtype != np.float64 or grid.ndim != 2 or grid.shape[1] != len(schema):
        raise ValueError(
            f"{side}: grid is {grid.dtype} of shape {grid.shape}, "
            f"expected float64 of {len(schema)} columns"
        )
    if grid.shape[0] == 0:
        raise ValueError(f"{side}: empty table")
    if not np.isfinite(grid).all():
        raise ValueError(f"{side}: the table holds a non-finite value")
    if not np.isin(grid[:, _label_index(schema)], (0.0, 1.0)).all():
        raise ValueError(f"{side}: a label is not 0 or 1")
    return to_features(RawTable(schema, grid))


def _check_header(path: str | Path, line: str, names: list[str], kind: str):
    header = [h.strip() for h in line.rstrip("\r\n").split(",")]
    if header != names:
        raise ValueError(f"{path}: not a {kind} file: expected header {names}, got {header}")


def read_grid_csv(path: str | Path, names: list[str], dtype, kind: str) -> np.ndarray:
    """The body of a program-written CSV artifact as a grid of dtype.

    A plain dtype gives an (n, len(names)) grid; a structured dtype, one
    field per column, gives n records. The header cells must equal `names`,
    or the file is "not a <kind> file". The body is parsed by one np.loadtxt
    call; empty lines are not rows, and a body with no rows is an empty grid.
    A body the parse refuses, or rows of the wrong width, is a one-line
    error naming the file.
    """
    dtype = np.dtype(dtype)
    with open(path, newline="") as fh:
        _check_header(path, fh.readline(), names, kind)
        # loadtxt skips empty lines, and warns when it finds no row at all
        no_rows = not any(line.rstrip("\r\n") for line in fh)
    if no_rows:
        return np.empty((0,) if dtype.names else (0, len(names)), dtype=dtype)
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads an integer cell "1.0" through float, under only
            # a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            # Given a path, loadtxt reads the file in blocks; given an open
            # file it iterates line by line, which takes about 1.7x as long.
            grid = np.loadtxt(
                path,
                delimiter=",",
                dtype=dtype,
                ndmin=1 if dtype.names else 2,
                comments=None,
                skiprows=1,
            )
    except (ValueError, DeprecationWarning) as exc:
        raise ValueError(f"{path}: malformed {kind} row: {exc}") from None
    # loadtxt itself refuses a row whose width differs from the fields', but
    # takes a plain grid of equally short rows whole
    if not dtype.names and grid.shape[1] != len(names):
        raise ValueError(f"{path}: malformed {kind} row: expected {len(names)} cells per row")
    return grid


def save_schema_csv(schema: list[ColumnSpec], path: str | Path):
    with open(path, "w", newline="\n") as fh:
        fh.write("name,kind,is_label\n")
        for c in schema:
            fh.write(f"{c.name},{c.kind},{int(c.is_label)}\n")


def load_schema_csv(path: str | Path) -> list[ColumnSpec]:
    """Read back a schema written by save_schema_csv.

    The header must be name,kind,is_label, or the file is "not a schema
    file"; empty lines are not rows. A row of the wrong width, with a bad
    kind, or with an is_label other than 0 or 1 is an error naming the file
    and line, and so is a schema without exactly one label column.
    """
    schema = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["name", "kind", "is_label"]:
            raise ValueError(f"{path}: not a schema file")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != 3:
                    raise ValueError(f"expected 3 cells, got {len(row)}")
                if row[2] not in ("0", "1"):
                    raise ValueError(f"is_label must be 0 or 1, got {row[2]!r}")
                schema.append(ColumnSpec(row[0], row[1], row[2] == "1"))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    try:
        _label_index(schema)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return schema


def save_norm_stats_csv(stats: NormStats, schema: list[ColumnSpec], path: str | Path):
    with open(path, "w", newline="\n") as fh:
        fh.write("column,mean,stddev\n")
        for j, c in enumerate(schema):
            fh.write(f"{c.name},{float(stats.mean[j])!r},{float(stats.std[j])!r}\n")
