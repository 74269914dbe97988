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
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from numbers import Real
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import Variable, _frozen, _name_set, _numbers
from .errors import (
    HeartBnError,
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

# Bound on a state index in a table file whose columns are not all heart
# columns: read_table_csv refuses a cell at or above it, so one large cell
# cannot infer a huge column.
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

    ``rows`` is a read-only int64 array stored column by column, built from
    integers or whole-valued floats; any other cell raises ``ValueError``.
    Column names must be distinct: a repeated one raises :class:`SchemaMismatchError`.
    """

    schema: tuple[Variable, ...]
    rows: np.ndarray
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    cards: np.ndarray = field(init=False, repr=False, compare=False)  # states per column
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        schema = self.schema
        if not (isinstance(schema, (tuple, list)) and all(isinstance(v, Variable) for v in schema)):
            raise ValueError(f"schema must be a tuple of Variables, not {schema!r}")
        object.__setattr__(self, "schema", tuple(schema))
        object.__setattr__(self, "names", tuple(v.name for v in self.schema))
        index = {name: j for j, name in enumerate(self.names)}
        if len(index) < len(self.names):
            repeated = sorted({name for name in self.names if self.names.count(name) > 1})
            raise SchemaMismatchError(f"column names must be distinct, not {repeated}")
        object.__setattr__(self, "_index", index)
        rows = _numbers(self.rows)
        if rows is None or not np.array_equal(rows, np.floor(rows)):
            raise ValueError("rows must hold whole-number state indices")
        if rows.ndim != 2 or rows.shape[1] != len(self.schema):
            raise ValueError("rows must be a 2-D array with one column per variable")
        cards = _frozen(np.array([v.cardinality for v in self.schema], dtype=np.int64))
        bad = (rows.min(axis=0, initial=0) < 0) | (rows.max(axis=0, initial=0) >= cards)
        if bad.any():
            raise ValueError(f"column {self.names[bad.argmax()]!r} has state indices out of range")
        # column-major: the counting kernels gather whole columns
        object.__setattr__(self, "rows", _frozen(rows.astype(np.int64, copy=False), order="F"))
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
        """The rows at ``indices``, which must be non-negative integers, else ``ValueError``."""
        picks = np.asarray(indices)
        if picks.size and (picks.dtype.kind not in "iu" or picks.min() < 0):
            raise ValueError(f"row indices must be non-negative integers, not {picks.dtype} {picks}")
        return DataTable(self.schema, self.rows[picks.astype(int)])

    def row_assignment(self, i: int, exclude: Iterable[str] = ()) -> dict[str, int]:
        skip = _name_set(exclude, "exclude")
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
    """Read a comma-separated table as rows of 14 string cells, each stripped of space.

    Blank lines are skipped; an empty file yields zero rows.  A line of another
    number of cells raises :class:`MalformedRowError` naming the file, line and column.
    """
    with _reading(path) as fh:
        return tuple(tuple(cell.strip() for cell in cells) for _, cells in _records(fh, N_FIELDS, 1))


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
    return _clean(enumerate(raw, start=1), "row {0}")


def _clean_file(path) -> np.ndarray:
    """:func:`clean` of :func:`load_raw`'s rows; an error names the file, line and column."""
    with _reading(path) as fh:
        rows = ((n, [cell.strip() for cell in cells]) for n, cells in _records(fh, N_FIELDS, 1))
        return _clean(rows, "line {0}, column {1}")


def _clean(rows: Iterable, where: str) -> np.ndarray:
    """:func:`clean` of ``(number, cells)`` pairs; an error starts with ``where`` formatted
    with the number and the cell's 1-based column."""
    kept: list[list[float]] = []
    for number, fields in rows:
        if MISSING in fields:
            continue
        out: list[float] = []
        for column, (col, cell) in enumerate(zip(RAW_COLUMNS, fields), start=1):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise UnknownCategoryError(
                    f"{where.format(number, column)}: "
                    f"{cell!r} in column {col!r} is not a finite number"
                )
            if col in CONTINUOUS:
                out.append(value)
                continue
            code = int(value)  # ca arrives as "0.0" etc.; cast before recoding
            mapping = _RECODE[col]
            if code != value or code not in mapping:
                raise UnknownCategoryError(
                    f"{where.format(number, column)}: "
                    f"code {cell!r} outside the domain of {col!r}"
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


def _index_below(text: str, bound: int) -> int | None:
    """The value of index text if below ``bound``, else None; leading zeros aside, text with
    more digits than ``bound`` is refused unconverted, within Python's int digit limit."""
    digits = text.lstrip("0") or "0"
    short = _is_index_text(text) and len(digits) <= len(str(bound))
    return int(digits) if short and int(digits) < bound else None


@contextmanager
def _reading(path, encoding: str = "utf-8"):
    """The text file at ``path``, open; a :class:`HeartBnError` or ``ValueError`` raised while
    it is open gets ``"<path>: "`` in front of its message.  A ``HeartBnError`` keeps its type
    and attributes; a ``ValueError`` (an undecodable byte, a JSON syntax error) is raised anew."""
    with open(path, "r", encoding=encoding) as fh:
        try:
            yield fh
        except HeartBnError as exc:
            exc.args = (f"{path}: {exc}",)
            raise
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _records(lines: Iterable[str], width: int, start: int):
    """(line number, cells) for each non-blank line, numbered from ``start``; a line of
    other than ``width`` cells raises :class:`MalformedRowError` at its first odd column."""
    for lineno, line in enumerate(lines, start=start):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:  # the error names the first column past the shorter count
            raise MalformedRowError(lineno, min(len(cells), width) + 1,
                                    f"{len(cells)} cells for {width} columns")
        yield lineno, cells


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(doc, path) -> None:
    """``doc`` as JSON indented by two spaces, with a final newline."""
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def write_table_csv(table: DataTable, path) -> None:
    """Comma-separated state indices with a header row of variable names."""
    lines = [",".join(table.names), *(",".join(map(str, row)) for row in table.rows.tolist())]
    _write_text(path, "\n".join(lines) + "\n")


def read_table_csv(path) -> DataTable:
    """Read a table written by :func:`write_table_csv`.

    The header decides the schema: the heart variables when it names heart
    columns only, otherwise each column's states inferred as 0..max.  A cell
    is a state index below its column's bound, written in ASCII digits 0-9
    only (no sign, space or digit separator); the bound is the heart
    variable's number of states, else :data:`MAX_STATES`.  An empty header
    name, one with leading or trailing space, a data row with a cell too few
    or too many, or any other cell, raises :class:`MalformedRowError` naming
    the line and column; a file without data rows or with a repeated name
    :class:`SchemaMismatchError`, and a byte that is not UTF-8 a ``ValueError``;
    each message starts with the file's path.  A UTF-8 byte-order mark before
    the header, as spreadsheet programs write, is skipped.
    """
    with _reading(path, "utf-8-sig") as fh:
        header = fh.readline().strip()
        if not header:
            raise SchemaMismatchError("empty table file")
        names = tuple(header.split(","))
        for column, name in enumerate(names, start=1):
            if not name:
                raise MalformedRowError(1, column, "empty header name")
            if name != name.strip():
                raise MalformedRowError(1, column, f"header name {name!r} has surrounding space")
        by_name = {v.name: v for v in heart_schema()}
        heart = set(names) <= set(by_name)
        bounds = [by_name[name].cardinality if heart else MAX_STATES for name in names]
        rows = []
        for lineno, cells in _records(fh, len(names), 2):
            row = [_index_below(cell, bound) for cell, bound in zip(cells, bounds)]
            if None in row:
                j = row.index(None)
                cell, bound = cells[j], bounds[j]
                problem = (f"state index {cell} is not below {bound}" if _is_index_text(cell)
                           else f"{cell!r} is not a state index (digits 0-9)")
                raise MalformedRowError(lineno, j + 1, problem)
            rows.append(row)
        if not rows:
            raise SchemaMismatchError("a header and no data rows")
        data = np.array(rows, dtype=np.int64).reshape(len(rows), len(names))
        schema = tuple(
            by_name[n] if heart else Variable(n, _states(max(2, int(data[:, j].max()) + 1)))
            for j, n in enumerate(names)
        )
        return DataTable(schema, data)


def save_cutpoints(cfg: CutpointConfig, path) -> None:
    _write_json({attr: list(getattr(cfg, attr)) for attr in CONTINUOUS}, path)


def load_cutpoints(path) -> CutpointConfig:
    """The JSON object of threshold lists that :func:`save_cutpoints` writes; an error in
    it is a :class:`NonMonotoneCutpointsError` or ``ValueError`` naming the file."""
    with _reading(path) as fh:
        doc = json.load(fh)
        if not isinstance(doc, dict) or not all(isinstance(cuts, list) for cuts in doc.values()):
            raise NonMonotoneCutpointsError("a cutpoint file holds a JSON object of threshold lists")
        unknown = set(doc) - set(CONTINUOUS)
        if unknown:
            raise NonMonotoneCutpointsError(f"unknown attributes in cutpoint file: {sorted(unknown)}")
        return CutpointConfig(**doc)
