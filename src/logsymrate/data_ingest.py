"""Ingestion of raw mortality records into observation tables.

The raw unit is a ``MortalityRecord`` (one sex/site/age-band/year stratum
as it appears in a registry extract). Records are aggregated into an
``ObservationTable`` of unique (age midpoint, period midpoint) cells, a
zero-count policy makes every cell's count strictly positive, and the
table is then shared read-only by both fitting engines.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Iterable, Union

import numpy as np

from .errors import DataFormatError, DataValidationError

SEXES = ("female", "male")
ZERO_POLICIES = ("drop", "add_half", "add_one")
YEAR_RANGE = (1900, 2100)  # admissible years of a raw record

MORTALITY_HEADER = ["sex", "site", "age_lo", "age_hi", "year", "deaths", "population"]
TABLE_HEADER = ["age_mid", "period_mid", "deaths_raw", "t_value", "population", "log_rate"]


@dataclass(frozen=True)
class MortalityRecord:
    """One raw stratum: sex, site, inclusive age band, year, count, exposure.
    The band, year and count are whole numbers (not booleans), stored as int."""

    sex: str
    site: str
    age_lo: int
    age_hi: int
    year: int
    deaths: int
    population: float

    def __post_init__(self):
        if self.sex not in SEXES:
            raise DataValidationError(f"unknown sex {self.sex!r}; expected one of {SEXES}")
        for name in ("age_lo", "age_hi", "year", "deaths"):
            value = getattr(self, name)
            if type(value) is int:  # the CSV reader's case, kept cheap
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not float(value).is_integer():
                raise DataValidationError(f"{name} must be a whole number, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not YEAR_RANGE[0] <= self.year <= YEAR_RANGE[1]:
            raise DataValidationError(f"year {self.year} outside admissible range {YEAR_RANGE}")
        if self.age_lo > self.age_hi:
            raise DataValidationError(
                f"age_lo {self.age_lo} exceeds age_hi {self.age_hi}"
            )
        if self.deaths < 0:
            raise DataValidationError(f"negative death count {self.deaths}")
        if not 0 < self.population < math.inf:
            raise DataValidationError(
                f"population must be positive and finite, got {self.population}"
            )


@dataclass(frozen=True)
class ObservationCell:
    """One aggregated (age_mid, period_mid) cell.

    ``log_t`` and ``log_pop`` are stored precomputed so the fitting code
    never re-derives them; ``log_t = log(t_value)`` exactly by construction.
    ``t_value`` may still be zero before a zero policy has been applied, in
    which case ``log_t`` is NaN.
    """

    age_mid: float
    period_mid: float
    deaths_raw: int
    t_value: float
    population: float
    log_t: float
    log_pop: float


_COLUMNS = ("age", "period", "deaths", "t_value", "population")


def _check_entries(age, period, deaths, t_value, population, where=lambda i: "") -> None:
    """The rules every cell obeys, on float columns: raise DataValidationError
    at the first entry that breaks one, its message prefixed by ``where(i)``."""
    for name, col, ok, what in (
            ("age_mid", age, np.isfinite(age), "finite"),
            ("period_mid", period, np.isfinite(period), "finite"),
            ("deaths", deaths, (deaths >= 0) & (deaths < math.inf) & (np.floor(deaths) == deaths),
             "a nonnegative integer"),
            ("population", population, (population > 0) & (population < math.inf),
             "positive and finite"),
            ("t_value", t_value, (t_value >= 0) & (t_value < math.inf), "nonnegative and finite")):
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise DataValidationError(f"{where(bad[0])}{name} must be {what}, got {col[bad[0]]}")


def _logs(values: np.ndarray) -> np.ndarray:
    """math.log per entry, NaN at 0. np.log differs from math.log in the
    last bit for some inputs, and log_t has always been math.log's."""
    out = np.full(len(values), math.nan)
    pos = values > 0
    out[pos] = np.fromiter(map(math.log, values[pos].tolist()), float)
    return out


def make_cell(age_mid: float, period_mid: float, deaths_raw: int,
              t_value: float, population: float) -> ObservationCell:
    """Canonical cell constructor: the row of a one-row table, so a cell
    obeys the table's rules and carries its log fields."""
    row = ObservationTable([age_mid], [period_mid], [deaths_raw], [t_value], [population])
    return ObservationCell(row.age[0].item(), row.period[0].item(), int(row.deaths[0]),
                           row.t_value[0].item(), row.population[0].item(),
                           row.log_t[0].item(), row.log_pop[0].item())


@dataclass(frozen=True)
class TableMeta:
    sex: str = ""
    site: str = ""
    zero_policy: Union[str, None] = None
    dropped: int = 0


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """Cells as read-only float columns, sorted by unique (age, period) key.

    Entry i of each column belongs to cell i; ``deaths`` holds the raw
    counts. ``log_t`` (NaN where ``t_value`` is 0) and ``log_pop`` are
    derived at construction, so ``dataclasses.replace`` derives them again.
    """

    age: np.ndarray
    period: np.ndarray
    deaths: np.ndarray
    t_value: np.ndarray
    population: np.ndarray
    meta: TableMeta = TableMeta()
    log_t: np.ndarray = field(init=False, repr=False)
    log_pop: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cols = {name: np.array(getattr(self, name), dtype=float) for name in _COLUMNS}
        if len({col.shape for col in cols.values()}) != 1 or cols["age"].ndim != 1:
            raise DataValidationError("table columns must be vectors of one length")
        _check_entries(**cols)
        a, p = cols["age"], cols["period"]
        if not np.all((a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & (p[1:] > p[:-1]))):
            raise DataValidationError("cells must be sorted by unique (age_mid, period_mid)")
        cols["log_t"], cols["log_pop"] = _logs(cols["t_value"]), _logs(cols["population"])
        for name, col in cols.items():
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.age)

    @property
    def cell_keys(self) -> tuple:
        return tuple(zip(self.age.tolist(), self.period.tolist()))


def _as_text_lines(source) -> Iterable[str]:
    if isinstance(source, str):
        text = source
    elif isinstance(source, (bytes, bytearray)):
        text = bytes(source).decode("utf-8")
    elif hasattr(source, "read"):
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, (bytes, bytearray)) else raw
    else:
        raise DataFormatError(f"unsupported CSV source type {type(source).__name__}")
    return io.StringIO(text)


def _csv_rows(source, expected, what: str):
    """Yield (line number, fields) for each non-blank data row of a CSV
    whose header must be exactly ``expected``. Line numbers are 1-based
    with the header on line 1."""
    reader = csv.reader(_as_text_lines(source))
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("empty CSV: missing header") from None
    fields = [f.strip() for f in header]
    missing = [c for c in expected if c not in fields]
    if missing:
        raise DataFormatError(f"{what} header missing column(s): {', '.join(missing)}")
    if fields != expected:
        raise DataFormatError(
            f"{what} header must be exactly {','.join(expected)}, got {','.join(fields)}"
        )
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) != len(expected):
            raise DataFormatError(
                f"line {lineno}: expected {len(expected)} fields, got {len(row)}"
            )
        yield lineno, row


def parse_mortality_csv(source) -> list:
    """Parse a raw mortality CSV (header ``sex,site,...,population``).

    Returns one ``MortalityRecord`` per data row in row order. No
    aggregation happens here; duplicate strata stay duplicated.
    Errors cite 1-based line numbers (header is line 1).
    """
    records = []
    for lineno, row in _csv_rows(source, MORTALITY_HEADER, "mortality CSV"):
        sex, site, age_lo, age_hi, year, deaths, population = [f.strip() for f in row]
        try:
            age_lo_i = int(age_lo)
            age_hi_i = int(age_hi)
            year_i = int(year)
        except ValueError:
            raise DataValidationError(
                f"line {lineno}: non-integer age band or year "
                f"({age_lo!r}, {age_hi!r}, {year!r})"
            ) from None
        try:
            deaths_i = int(deaths)
        except ValueError:
            raise DataValidationError(f"line {lineno}: non-numeric deaths {deaths!r}") from None
        try:
            population_f = float(population)
        except ValueError:
            raise DataValidationError(
                f"line {lineno}: non-numeric population {population!r}"
            ) from None
        try:
            rec = MortalityRecord(sex, site, age_lo_i, age_hi_i, year_i,
                                  deaths_i, population_f)
        except DataValidationError as exc:
            raise DataValidationError(f"line {lineno}: {exc}") from None
        records.append(rec)
    return records


def aggregate_cells(records, sex: str, site: str) -> ObservationTable:
    """Aggregate records for one (sex, site) into an ObservationTable.

    Cells are keyed by (age midpoint, year); deaths and population are
    summed over duplicate keys. Population sums use ``math.fsum`` so the
    result is independent of record order.
    """
    selected = [r for r in records if r.sex == sex and r.site == site]
    if not selected:
        raise DataValidationError(f"no records for sex={sex!r}, site={site!r}")

    deaths: dict = {}
    pops: dict = {}
    for r in selected:
        key = ((r.age_lo + r.age_hi) / 2.0, float(r.year))
        deaths[key] = deaths.get(key, 0) + r.deaths
        pops.setdefault(key, []).append(r.population)

    keys = sorted(deaths)
    counts = [deaths[k] for k in keys]
    ages, periods = zip(*keys)
    return ObservationTable(ages, periods, counts, counts, [math.fsum(pops[k]) for k in keys],
                            meta=TableMeta(sex=sex, site=site))


def apply_zero_policy(table: ObservationTable, policy: str) -> ObservationTable:
    """Make every cell's t_value strictly positive.

    drop: remove zero-death cells (counted in meta); add_half: zero cells
    get t_value 0.5; add_one: every cell gets t_value deaths_raw + 1.
    """
    if policy not in ZERO_POLICIES:
        raise DataValidationError(f"unknown zero policy {policy!r}; expected one of {ZERO_POLICIES}")
    zero = table.deaths == 0
    meta = replace(table.meta, zero_policy=policy)
    if policy == "drop":
        return ObservationTable(*(getattr(table, name)[~zero] for name in _COLUMNS),
                                meta=replace(meta, dropped=table.meta.dropped + int(zero.sum())))
    if policy == "add_half":
        t_value = np.where(zero, table.deaths + 0.5, table.t_value)
    else:  # add_one applies to all cells
        t_value = table.deaths + 1.0
    return replace(table, t_value=t_value, meta=meta)


def observed_log_rate(cell: ObservationCell) -> float:
    """log of the observed rate, log(t_value / population)."""
    if not cell.t_value > 0:
        raise DataValidationError("observed_log_rate requires t_value > 0; apply a zero policy")
    return cell.log_t - cell.log_pop


def observed_log_rates(table: ObservationTable) -> np.ndarray:
    if not np.all(table.t_value > 0):
        raise DataValidationError("observed_log_rate requires t_value > 0; apply a zero policy")
    return table.log_t - table.log_pop


def _fmt(x: float) -> str:
    # repr gives the shortest string that round-trips the double exactly
    return repr(float(x))


def table_to_csv(table: ObservationTable) -> str:
    """Serialize to the table CSV schema (see TABLE_HEADER)."""
    # log_t is NaN where t_value is 0, so is the rate
    rate = table.log_t - table.log_pop
    lines = [",".join(TABLE_HEADER)]
    for age, period, deaths, t_value, pop, r in zip(
            table.age.tolist(), table.period.tolist(), table.deaths.astype(int).tolist(),
            table.t_value.tolist(), table.population.tolist(), rate.tolist()):
        lines.append(",".join([
            _fmt(age), _fmt(period), str(deaths), _fmt(t_value), _fmt(pop), _fmt(r),
        ]))
    return "\n".join(lines) + "\n"


def table_from_csv(source, meta: Union[TableMeta, None] = None) -> ObservationTable:
    """Parse a table CSV produced by ``table_to_csv``.

    log_t and log_pop are recomputed from t_value and population, which
    reproduces the original bits (same inputs, same log).
    """
    linenos, rows = [], []
    for lineno, row in _csv_rows(source, TABLE_HEADER, "table CSV"):
        try:
            rows.append([float(row[0]), float(row[1]), int(row[2]),
                         float(row[3]), float(row[4])])
        except ValueError:
            raise DataValidationError(f"line {lineno}: non-numeric field in {row}") from None
        linenos.append(lineno)
    cols = np.array(rows, dtype=float).reshape(-1, 5).T
    _check_entries(*cols, where=lambda i: f"line {linenos[i]}: ")
    return ObservationTable(*cols, meta=meta or TableMeta())


def write_table_csv(table: ObservationTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(table_to_csv(table))


def read_table_csv(path) -> ObservationTable:
    with open(path, "rb") as fh:
        return table_from_csv(fh)


def records_to_csv(records) -> str:
    """Serialize raw records back to the mortality CSV schema."""
    lines = [",".join(MORTALITY_HEADER)]
    for r in records:
        lines.append(",".join([
            r.sex, r.site, str(r.age_lo), str(r.age_hi), str(r.year),
            str(r.deaths), _fmt(r.population),
        ]))
    return "\n".join(lines) + "\n"
