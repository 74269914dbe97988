"""Cleveland heart-disease ingestion and preprocessing.

The pipeline is ``load_raw`` -> ``clean`` -> ``discretize`` -> ``split``:

* ``load_raw`` reads the comma-separated table as a tuple of rows of 14
  string cells ("?" marks a missing cell).
* ``clean`` drops rows with missing cells, binarizes the diagnosis and
  recodes every categorical attribute to contiguous 0-based indices; it
  returns a read-only (n, 14) float array in ``RAW_COLUMNS`` order.
* ``discretize`` bins the five continuous columns of that array into
  categories, giving the :class:`DataTable` every later stage reads.
* ``split`` produces a seeded train/test partition.

The five continuous attributes are binned with fixed thresholds
(:class:`CutpointConfig`).  Four of them cut the raw value; maximum heart
rate is age-dependent, so ``thalach`` is cut on the age-adjusted sum
``thalach + age`` (the default threshold 200 marks rates more than 20 bpm
below the age-predicted maximum of 220 - age).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from numbers import Real
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import Variable, _frozen
from .errors import (
    MalformedRowError,
    NonMonotoneCutpointsError,
    SchemaMismatchError,
    UnknownCategoryError,
)

MISSING = "?"

RAW_COLUMNS = (
    "age", "sex", "cp", "trestbps", "chol", "fbs", "restecg",
    "thalach", "exang", "oldpeak", "slope", "ca", "thal", "target",
)
N_FIELDS = len(RAW_COLUMNS)

# Raw category codes accepted per column, mapped to 0-based indices in
# ascending order of raw code (thal 3/6/7 -> 0/1/2, cp 1..4 -> 0..3, ...).
# A column's states are its distinct indices.
_RECODE = {
    "sex": {0: 0, 1: 1},
    "cp": {1: 0, 2: 1, 3: 2, 4: 3},
    "fbs": {0: 0, 1: 1},
    "restecg": {0: 0, 1: 1, 2: 2},
    "exang": {0: 0, 1: 1},
    "slope": {1: 0, 2: 1, 3: 2},
    "ca": {0: 0, 1: 1, 2: 2, 3: 3},
    "thal": {3: 0, 6: 1, 7: 2},
    "target": {0: 0, 1: 1, 2: 1, 3: 1, 4: 1},
}

# Bins per continuous column; a binned column is renamed name + "C".
_BINS = {"age": 3, "trestbps": 3, "chol": 3, "thalach": 2, "oldpeak": 2}
CONTINUOUS = tuple(_BINS)
DISCRETIZED_NAME = {name: name + "C" for name in CONTINUOUS}

# Bound on a state index in a table file: read_table_csv refuses a cell at
# or above it, so one large cell cannot infer a huge column.
MAX_STATES = 1000


def _states(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def heart_schema() -> tuple[Variable, ...]:
    """Variables of the fully discretized table, in column order."""
    return tuple(
        Variable(DISCRETIZED_NAME[c], _states(_BINS[c])) if c in _BINS
        else Variable(c, _states(len(set(_RECODE[c].values()))))
        for c in RAW_COLUMNS
    )


def cleveland_path() -> Path:
    """Path of the bundled copy of the 303-row Cleveland table."""
    return Path(str(resources.files("heartbn").joinpath("data/processed.cleveland.data")))


@dataclass(frozen=True, eq=False)
class DataTable:
    """Fully categorical table: a schema of Variables plus state-index rows.

    ``rows`` is a read-only int64 array stored column by column.  Column
    names must be distinct: a repeated one raises :class:`SchemaMismatchError`.
    """

    schema: tuple[Variable, ...]
    rows: np.ndarray
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    cards: np.ndarray = field(init=False, repr=False, compare=False)  # states per column
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "names", tuple(v.name for v in self.schema))
        index = {name: j for j, name in enumerate(self.names)}
        if len(index) < len(self.names):
            repeated = sorted({name for name in self.names if self.names.count(name) > 1})
            raise SchemaMismatchError(f"column names must be distinct, not {repeated}")
        object.__setattr__(self, "_index", index)
        # column-major: the counting kernels gather whole columns
        rows = _frozen(np.asarray(self.rows, dtype=np.int64), order="F")
        if rows.ndim != 2 or rows.shape[1] != len(self.schema):
            raise ValueError("rows must be a 2-D array with one column per variable")
        cards = _frozen(np.array([v.cardinality for v in self.schema], dtype=np.int64))
        bad = (rows.min(axis=0, initial=0) < 0) | (rows.max(axis=0, initial=0) >= cards)
        if bad.any():
            raise ValueError(f"column {self.names[bad.argmax()]!r} has state indices out of range")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cards", cards)

    def __reduce__(self):  # copy and pickle rebuild it, so its arrays stay frozen
        return DataTable, (self.schema, self.rows)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaMismatchError(f"no column named {name!r}") from None

    def variable(self, name: str) -> Variable:
        return self.schema[self.index(name)]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.index(name)]

    def take(self, indices: Sequence[int]) -> "DataTable":
        return DataTable(self.schema, self.rows[np.asarray(indices, dtype=int)])

    def row_assignment(self, i: int, exclude: Iterable[str] = ()) -> dict[str, int]:
        skip = set(exclude)
        return {
            v.name: int(self.rows[i, j])
            for j, v in enumerate(self.schema)
            if v.name not in skip
        }


@dataclass(frozen=True)
class CutpointConfig:
    """Strictly increasing bin thresholds for the five continuous attributes.

    A value v falls in the first bin i with v <= thresholds[i], else in the
    last bin.  Bin counts are fixed by the discretized schema: age 3,
    trestbps 3, chol 3, thalach 2, oldpeak 2.  Every threshold must be a
    finite real number.  The ``thalach`` thresholds apply to the
    age-adjusted value ``thalach + age``, not to the raw rate.
    """

    age: tuple[float, float] = (45.0, 64.0)
    trestbps: tuple[float, float] = (120.0, 140.0)
    chol: tuple[float, float] = (200.0, 240.0)
    thalach: tuple[float] = (200.0,)
    oldpeak: tuple[float] = (2.0,)

    def __post_init__(self):
        for attr in CONTINUOUS:
            cuts = tuple(getattr(self, attr))
            if not all(isinstance(c, Real) and not isinstance(c, bool) and math.isfinite(c)
                       for c in cuts):
                raise NonMonotoneCutpointsError(f"{attr} thresholds must be finite numbers, got {cuts}")
            cuts = tuple(float(c) for c in cuts)
            object.__setattr__(self, attr, cuts)
            n_cuts = _BINS[attr] - 1
            if len(cuts) != n_cuts:
                raise NonMonotoneCutpointsError(f"{attr} needs {n_cuts} thresholds, got {len(cuts)}")
            if any(b <= a for a, b in zip(cuts, cuts[1:])):
                raise NonMonotoneCutpointsError(f"{attr} thresholds must strictly increase")


DEFAULT_CUTPOINTS = CutpointConfig()


def load_raw(path) -> tuple[tuple[str, ...], ...]:
    """Read a comma-separated table as rows of 14 string cells.

    Blank lines are skipped; an empty file yields zero rows.  Raises
    :class:`MalformedRowError` with the 1-based line number otherwise.
    """
    rows: list[tuple[str, ...]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = tuple(cell.strip() for cell in line.split(","))
            if len(fields) != N_FIELDS:
                raise MalformedRowError(lineno, f"expected {N_FIELDS} fields, got {len(fields)}")
            rows.append(fields)
    return tuple(rows)


def load_cleveland() -> tuple[tuple[str, ...], ...]:
    """The bundled 303-row Cleveland table."""
    return load_raw(cleveland_path())


def clean(raw: Sequence[Sequence[str]] | np.ndarray) -> np.ndarray:
    """Drop rows with missing cells, binarize the diagnosis and recode categoricals.

    Returns a read-only (n, 14) float64 array in ``RAW_COLUMNS`` order: the
    continuous columns hold raw measurements, all others small integer state
    indices.  Diagnosis grades 1-4 all map to 1 (disease present).
    Categorical codes are recoded to contiguous 0-based indices in ascending
    order of raw code.  A cell that is not a finite number raises
    :class:`UnknownCategoryError` naming its row and column.  Passing an
    already clean array returns it unchanged, so the operation is idempotent.
    """
    if isinstance(raw, np.ndarray):
        return raw
    kept: list[list[float]] = []
    for rownum, fields in enumerate(raw, start=1):
        if MISSING in fields:
            continue
        out: list[float] = []
        for col, cell in zip(RAW_COLUMNS, fields):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise UnknownCategoryError(
                    f"row {rownum}: {cell!r} in column {col!r} is not a finite number"
                )
            if col in CONTINUOUS:
                out.append(value)
                continue
            code = int(value)  # ca arrives as "0.0" etc.; cast before recoding
            mapping = _RECODE[col]
            if code != value or code not in mapping:
                raise UnknownCategoryError(
                    f"row {rownum}: code {cell!r} outside the domain of {col!r}"
                )
            out.append(float(mapping[code]))
        kept.append(out)
    return _frozen(np.array(kept, dtype=float).reshape(len(kept), N_FIELDS))


def discretize(table: np.ndarray, cutpoints: CutpointConfig = DEFAULT_CUTPOINTS) -> DataTable:
    """Bin the continuous columns of :func:`clean`'s array, yielding the heart table.

    Row count and row order are preserved; continuous columns are renamed
    (age -> ageC, ...).  ``thalach`` is binned on ``thalach + age``.
    Anything but a 2-D array with 14 columns raises ``TypeError``.
    """
    if not isinstance(table, np.ndarray) or table.ndim != 2 or table.shape[1] != N_FIELDS:
        raise TypeError(f"discretize expects the cleaned (n, {N_FIELDS}) array, before binning")
    columns = dict(zip(RAW_COLUMNS, table.T))
    cols: list[np.ndarray] = []
    for name, raw_col in columns.items():
        if name in CONTINUOUS:
            value = raw_col + columns["age"] if name == "thalach" else raw_col
            # the first bin i with value <= thresholds[i], else the last
            cols.append(np.searchsorted(getattr(cutpoints, name), value))
        else:
            cols.append(raw_col.astype(np.int64))
    return DataTable(heart_schema(), np.column_stack(cols))


def _check_ratio(ratio: float) -> None:
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")


def split(table: DataTable, ratio: float, seed: int) -> tuple[DataTable, DataTable]:
    """Seeded shuffle and exact partition into (train, test).

    The training set takes ``floor(n * ratio)`` rows, 0 < ratio < 1, the
    test set the rest (297 rows at ratio 0.8 give a 237/60 partition).
    """
    _check_ratio(ratio)
    n = table.n_rows
    n_train = math.floor(n * ratio)
    perm = np.random.default_rng(seed).permutation(n)
    return table.take(perm[:n_train]), table.take(perm[n_train:])


def _is_index_text(text: str) -> bool:  # ASCII 0-9 only: no sign, space or other digits
    return text.isascii() and text.isdigit()


def write_table_csv(table: DataTable, path) -> None:
    """Comma-separated state indices with a header row of variable names."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(table.names) + "\n")
        for row in table.rows:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def read_table_csv(path, schema: Sequence[Variable] | None = None) -> DataTable:
    """Read a table written by :func:`write_table_csv`.

    Without an explicit schema, the heart schema is used when the header
    matches it; otherwise each column's states are inferred as 0..max.  A
    cell is a state index below :data:`MAX_STATES` written in ASCII digits
    0-9 only (no sign, space or digit separator).  An empty header name, one
    with leading or trailing space, a data row with a cell too few or too
    many, or any other cell, raises :class:`MalformedRowError` naming the
    file, line and column; a file without data rows raises
    :class:`SchemaMismatchError`.  A UTF-8 byte-order mark before the
    header, as spreadsheet programs write, is skipped.
    """
    rows = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        header = fh.readline().strip()
        if not header:
            raise SchemaMismatchError(f"{path}: empty table file")
        names = tuple(header.split(","))
        for column, name in enumerate(names, start=1):
            if not name:
                raise MalformedRowError(1, f"{path}, column {column}: empty header name")
            if name != name.strip():
                raise MalformedRowError(
                    1, f"{path}, column {column}: header name {name!r} has surrounding space"
                )
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(names):
                column = min(len(cells), len(names)) + 1
                raise MalformedRowError(
                    lineno, f"{path}, column {column}: {len(cells)} cells for {len(names)} columns"
                )
            row = []
            for column, cell in enumerate(cells, start=1):
                if not _is_index_text(cell):
                    raise MalformedRowError(
                        lineno, f"{path}, column {column}: {cell!r} is not a state index (digits 0-9)"
                    )
                row.append(int(cell))
                if row[-1] >= MAX_STATES:
                    raise MalformedRowError(
                        lineno, f"{path}, column {column}: state index {cell} is not below {MAX_STATES}"
                    )
            rows.append(row)
    if not rows:
        raise SchemaMismatchError(f"{path}: a header and no data rows")
    data = np.array(rows, dtype=np.int64).reshape(len(rows), len(names))
    if schema is None:
        by_name = {v.name: v for v in heart_schema()}
        if set(names) <= set(by_name):
            schema = tuple(by_name[n] for n in names)
        else:
            schema = tuple(
                Variable(n, _states(max(2, int(data[:, j].max()) + 1))) for j, n in enumerate(names)
            )
    else:
        schema = tuple(schema)
        if tuple(v.name for v in schema) != names:
            raise SchemaMismatchError("schema does not match the file header")
    return DataTable(schema, data)


def save_cutpoints(cfg: CutpointConfig, path) -> None:
    doc = {attr: list(getattr(cfg, attr)) for attr in CONTINUOUS}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_cutpoints(path) -> CutpointConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not all(isinstance(cuts, list) for cuts in doc.values()):
        raise NonMonotoneCutpointsError("a cutpoint file holds a JSON object of threshold lists")
    unknown = set(doc) - set(CONTINUOUS)
    if unknown:
        raise NonMonotoneCutpointsError(f"unknown attributes in cutpoint file: {sorted(unknown)}")
    return CutpointConfig(**doc)
