"""Cleveland heart-disease ingestion and preprocessing.

The pipeline is ``load_raw`` -> ``clean`` -> ``discretize`` -> ``split``:

* ``load_raw`` reads the comma-separated table ("?" marks a missing cell).
* ``clean`` drops rows with missing cells, binarizes the diagnosis and
  recodes every categorical attribute to contiguous 0-based indices.
* ``discretize`` bins the five continuous attributes into categories.
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
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import Variable
from .errors import (
    MalformedRowError,
    NonMonotoneCutpointsError,
    SchemaMismatchError,
    UnknownCategoryError,
)

N_FIELDS = 14
MISSING = "?"

RAW_COLUMNS = (
    "age", "sex", "cp", "trestbps", "chol", "fbs", "restecg",
    "thalach", "exang", "oldpeak", "slope", "ca", "thal", "target",
)
CONTINUOUS = ("age", "trestbps", "chol", "thalach", "oldpeak")
DISCRETIZED_NAME = {
    "age": "ageC", "trestbps": "trestbpsC", "chol": "cholC",
    "thalach": "thalachC", "oldpeak": "oldpeakC",
}

# Raw category codes accepted per column, mapped to 0-based indices in
# ascending order of raw code (thal 3/6/7 -> 0/1/2, cp 1..4 -> 0..3, ...).
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

_CARDINALITY = {
    "ageC": 3, "sex": 2, "cp": 4, "trestbpsC": 3, "cholC": 3, "fbs": 2,
    "restecg": 3, "thalachC": 2, "exang": 2, "oldpeakC": 2, "slope": 3,
    "ca": 4, "thal": 3, "target": 2,
}


def _states(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def heart_schema() -> tuple[Variable, ...]:
    """Variables of the fully discretized table, in column order."""
    return tuple(
        Variable(DISCRETIZED_NAME.get(c, c), _states(_CARDINALITY[DISCRETIZED_NAME.get(c, c)]))
        for c in RAW_COLUMNS
    )


def cleveland_path() -> Path:
    """Path of the bundled copy of the 303-row Cleveland table."""
    return Path(str(resources.files("heartbn").joinpath("data/processed.cleveland.data")))


@dataclass(frozen=True)
class RawTable:
    """Rows of raw string cells, 14 fields each; "?" marks a missing value."""

    rows: tuple[tuple[str, ...], ...]

    @property
    def n_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class CleanTable:
    """Intermediate table: categoricals recoded, continuous columns still raw.

    ``values`` is float64 with one column per entry of ``columns``; the
    columns named in ``continuous`` hold raw measurements, all others hold
    small integer state indices.
    """

    columns: tuple[str, ...]
    values: np.ndarray
    continuous: frozenset[str]

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


@dataclass(frozen=True)
class DataTable:
    """Fully categorical table: a schema of Variables plus state-index rows.

    ``rows`` is a read-only int64 array stored column by column.
    """

    schema: tuple[Variable, ...]
    rows: np.ndarray
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    cards: np.ndarray = field(init=False, repr=False, compare=False)  # states per column
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "names", tuple(v.name for v in self.schema))
        # reversed, so a repeated name keeps its first column, as tuple.index does
        index = {name: j for j, name in reversed(tuple(enumerate(self.names)))}
        object.__setattr__(self, "_index", index)
        # column-major: the counting kernels gather whole columns
        rows = np.array(self.rows, dtype=np.int64, order="F")
        if rows.ndim != 2 or rows.shape[1] != len(self.schema):
            raise ValueError("rows must be a 2-D array with one column per variable")
        cards = np.array([v.cardinality for v in self.schema], dtype=np.int64)
        bad = (rows.min(axis=0, initial=0) < 0) | (rows.max(axis=0, initial=0) >= cards)
        if bad.any():
            raise ValueError(f"column {self.names[bad.argmax()]!r} has state indices out of range")
        rows.setflags(write=False)
        cards.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cards", cards)

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
    trestbps 3, chol 3, thalach 2, oldpeak 2.  The ``thalach`` thresholds
    apply to the age-adjusted value ``thalach + age``, not to the raw rate.
    """

    age: tuple[float, float] = (45.0, 64.0)
    trestbps: tuple[float, float] = (120.0, 140.0)
    chol: tuple[float, float] = (200.0, 240.0)
    thalach: tuple[float] = (200.0,)
    oldpeak: tuple[float] = (2.0,)

    def __post_init__(self):
        for attr, n_bins in (("age", 3), ("trestbps", 3), ("chol", 3),
                             ("thalach", 2), ("oldpeak", 2)):
            cuts = tuple(float(c) for c in getattr(self, attr))
            object.__setattr__(self, attr, cuts)
            if len(cuts) != n_bins - 1:
                raise NonMonotoneCutpointsError(
                    f"{attr} needs {n_bins - 1} thresholds, got {len(cuts)}"
                )
            if any(b <= a for a, b in zip(cuts, cuts[1:])):
                raise NonMonotoneCutpointsError(f"{attr} thresholds must strictly increase")

    def thresholds(self, attr: str) -> tuple[float, ...]:
        return getattr(self, attr)


DEFAULT_CUTPOINTS = CutpointConfig()


def load_raw(path) -> RawTable:
    """Read a comma-separated table, validating 14 fields per line.

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
    return RawTable(tuple(rows))


def load_cleveland() -> RawTable:
    """The bundled 303-row Cleveland table."""
    return load_raw(cleveland_path())


def clean(raw: RawTable | CleanTable) -> CleanTable:
    """Drop rows with missing cells, binarize the diagnosis and recode categoricals.

    Diagnosis grades 1-4 all map to 1 (disease present).  Categorical codes
    are recoded to contiguous 0-based indices in ascending order of raw code.
    Passing an already clean table returns it unchanged, so the operation is
    idempotent.
    """
    if isinstance(raw, CleanTable):
        return raw
    kept: list[list[float]] = []
    for rownum, fields in enumerate(raw.rows, start=1):
        if MISSING in fields:
            continue
        out: list[float] = []
        for col, cell in zip(RAW_COLUMNS, fields):
            try:
                value = float(cell)
            except ValueError:
                raise UnknownCategoryError(
                    f"row {rownum}: cannot parse {cell!r} in column {col!r}"
                ) from None
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
    values = np.array(kept, dtype=float).reshape(len(kept), N_FIELDS)
    return CleanTable(RAW_COLUMNS, values, frozenset(CONTINUOUS))


def _bin(values: np.ndarray, cuts: Sequence[float]) -> np.ndarray:
    out = np.full(values.shape, len(cuts), dtype=np.int64)
    for i in range(len(cuts) - 1, -1, -1):
        out[values <= cuts[i]] = i
    return out


def discretize(table: CleanTable, cutpoints: CutpointConfig | None = None) -> DataTable:
    """Bin the continuous columns, yielding a fully categorical table.

    Row count and row order are preserved; continuous columns are renamed
    (age -> ageC, ...).  ``thalach`` is binned on ``thalach + age``.
    """
    cfg = cutpoints if cutpoints is not None else DEFAULT_CUTPOINTS
    if not isinstance(table, CleanTable):
        raise TypeError("discretize expects the cleaned table, before binning")
    if not table.continuous:
        raise SchemaMismatchError("table has no continuous columns left to discretize")
    schema: list[Variable] = []
    cols: list[np.ndarray] = []
    age_raw = table.column("age")
    for name in table.columns:
        raw_col = table.column(name)
        if name in table.continuous:
            new_name = DISCRETIZED_NAME[name]
            value = raw_col + age_raw if name == "thalach" else raw_col
            cols.append(_bin(value, cfg.thresholds(name)))
            schema.append(Variable(new_name, _states(_CARDINALITY[new_name])))
        else:
            cols.append(raw_col.astype(np.int64))
            schema.append(Variable(name, _states(_CARDINALITY[name])))
    return DataTable(tuple(schema), np.column_stack(cols))


def split(table: DataTable, ratio: float, seed: int) -> tuple[DataTable, DataTable]:
    """Seeded shuffle and exact partition into (train, test).

    The training set takes ``floor(n * ratio)`` rows, the test set the rest
    (297 rows at ratio 0.8 give a 237/60 partition).
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    n = table.n_rows
    n_train = math.floor(n * ratio)
    perm = np.random.default_rng(seed).permutation(n)
    return table.take(perm[:n_train]), table.take(perm[n_train:])


def write_table_csv(table: DataTable, path) -> None:
    """Comma-separated state indices with a header row of variable names."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(table.names) + "\n")
        for row in table.rows:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def read_table_csv(path, schema: Sequence[Variable] | None = None) -> DataTable:
    """Read a table written by :func:`write_table_csv`.

    Without an explicit schema, the heart schema is used when the header
    matches it; otherwise each column's states are inferred as 0..max.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise SchemaMismatchError(f"{path}: empty table file")
        names = tuple(header.split(","))
        rows = [[int(cell) for cell in line.strip().split(",")]
                for line in fh if line.strip()]
    data = np.array(rows, dtype=np.int64).reshape(len(rows), len(names))
    if schema is None:
        by_name = {v.name: v for v in heart_schema()}
        if set(names) <= set(by_name):
            schema = tuple(by_name[n] for n in names)
        else:
            schema = tuple(
                Variable(n, _states(max(2, int(data[:, j].max()) + 1 if len(data) else 2)))
                for j, n in enumerate(names)
            )
    else:
        schema = tuple(schema)
        if tuple(v.name for v in schema) != names:
            raise SchemaMismatchError("schema does not match the file header")
    return DataTable(schema, data)


def save_cutpoints(cfg: CutpointConfig, path) -> None:
    doc = {attr: list(cfg.thresholds(attr)) for attr in CONTINUOUS}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_cutpoints(path) -> CutpointConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    unknown = set(doc) - set(CONTINUOUS)
    if unknown:
        raise NonMonotoneCutpointsError(f"unknown attributes in cutpoint file: {sorted(unknown)}")
    kwargs = {attr: tuple(doc[attr]) for attr in doc}
    return CutpointConfig(**kwargs)
