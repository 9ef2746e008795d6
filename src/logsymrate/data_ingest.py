"""Ingestion of raw mortality records into observation tables.

Raw records (one sex/site/age-band/year stratum each, as in a registry
extract) are held as ``MortalityColumns``, one checked column per field,
and a CSV is read into that form. Records are aggregated into an
``ObservationTable`` of unique (age midpoint, period midpoint) cells, a
zero-count policy makes every cell's count strictly positive, and the
table is then shared read-only by both fitting engines.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Union

import numpy as np

from .errors import DataFormatError, DataValidationError

SEXES = ("female", "male")
ZERO_POLICIES = ("drop", "add_half", "add_one")
YEAR_RANGE = (1900, 2100)  # admissible years of a raw record

MORTALITY_HEADER = ["sex", "site", "age_lo", "age_hi", "year", "deaths", "population"]
_WHOLE_FIELDS = ("age_lo", "age_hi", "year", "deaths")
# a whole number has at most 18 digits, so it and the sum of two fit an int64
_WHOLE_LIMIT = 10 ** 18


# CSV number fields, ASCII only and case-insensitive: a whole number is up to 18
# digits, a real a float() literal without "_" separators. Each string has one
# parse, so a failed match does not backtrack over the ways to split its digits.
_WHOLE = re.compile(r"[+-]?[0-9]{1,18}", re.ASCII)
_REAL = re.compile(r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)",
                   re.ASCII | re.IGNORECASE)


def _stratum_problem(sex, site):
    """Why a record's sex and site break the record rules, or None: a known
    sex, and a site that is a str without leading or trailing whitespace (a
    CSV field reads back stripped). ``TruthSpec`` applies the same rules."""
    if sex not in SEXES:
        return f"unknown sex {sex!r}; expected one of {SEXES}"
    if not isinstance(site, str):
        return f"site must be a str, got {site!r}"
    if site != site.strip():
        return f"site {site!r} has leading or trailing whitespace"
    return None


def _positive_problem(name, value):
    """Why ``value`` is not positive and finite, or None: the record rule for
    a population, which ``TruthSpec`` applies to its population and phi."""
    if not 0 < value < math.inf:
        return f"{name} must be positive and finite, got {value}"
    return None


def _zero_policy_problem(policy):
    """Why ``policy`` is not a zero policy, or None. The specs that declare
    one apply it too."""
    if policy not in ZERO_POLICIES:
        return f"unknown zero policy {policy!r}; expected one of {ZERO_POLICIES}"
    return None


def _first_bad(pattern, *cols) -> int:
    """Index of the first row at which a column's field breaks ``pattern``,
    or the row count."""
    return min(next((i for i, f in enumerate(col) if not pattern.fullmatch(f)), len(col))
               for col in cols)


@dataclass(frozen=True, eq=False)
class MortalityColumns:
    """Raw records as columns; row i is record i.

    ``sex`` and ``site`` are tuples of str, the band, year and deaths
    read-only int64 arrays and ``population`` a read-only float array.
    Every record rule is checked here, at construction: a known sex and a
    site that is a str without leading or trailing whitespace
    (``_stratum_problem``), whole numbers (an integer dtype) of at most 18
    digits, a year in ``YEAR_RANGE``, ``age_lo <= age_hi``, nonnegative
    deaths and a positive finite population. The first row that breaks a rule is reported; with
    ``lines``, the error names its CSV line.
    """

    sex: tuple
    site: tuple
    age_lo: np.ndarray
    age_hi: np.ndarray
    year: np.ndarray
    deaths: np.ndarray
    population: np.ndarray
    lines: Union[tuple, None] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sex", tuple(self.sex))
        object.__setattr__(self, "site", tuple(self.site))
        n, given = len(self.sex), {}
        for name in _WHOLE_FIELDS + ("population",):
            col, whole = np.asarray(getattr(self, name)), name != "population"
            if col.shape != (n,) or len(self.site) != n:
                raise DataValidationError("record columns must be vectors of one length")
            if whole and col.size and col.dtype.kind not in "iu":
                raise DataValidationError(f"{name} must be whole numbers, got dtype {col.dtype}")
            given[name] = col
            col = col.astype(np.int64 if whole else float)  # a copy, so read-only is ours
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        strata = [_stratum_problem(sex, site) for sex, site in zip(self.sex, self.site)]
        y, lo, hi = self.year, self.age_lo, self.age_hi
        # in a row, the first rule broken is reported; the digit rule reads
        # the columns as given, since an unsigned value past int64 wraps
        checks = (
            (np.array([p is not None for p in strata], dtype=bool), strata.__getitem__),
            *(((given[name] >= _WHOLE_LIMIT) | (given[name] <= -_WHOLE_LIMIT),
               lambda i, name=name: f"{name} must have at most 18 digits, got {given[name][i]}")
              for name in _WHOLE_FIELDS),
            ((y < YEAR_RANGE[0]) | (y > YEAR_RANGE[1]),
             lambda i: f"year {y[i]} outside admissible range {YEAR_RANGE}"),
            (lo > hi, lambda i: f"age_lo {lo[i]} exceeds age_hi {hi[i]}"),
            (self.deaths < 0, lambda i: f"negative death count {self.deaths[i]}"),
            (~((self.population > 0) & (self.population < math.inf)),
             lambda i: _positive_problem("population", self.population[i])),
        )
        wrong = np.zeros(n, dtype=bool)
        for mask, _ in checks:
            wrong |= mask
        if wrong.any():
            i = int(np.argmax(wrong))
            where = f"line {self.lines[i]}: " if self.lines is not None else ""
            raise DataValidationError(where + next(msg(i) for mask, msg in checks if mask[i]))

    def __len__(self) -> int:
        return len(self.sex)


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


def _check_entries(age, period, deaths, t_value, population) -> None:
    """The rules every cell obeys, on float columns: raise DataValidationError
    at the first entry that breaks one."""
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
            raise DataValidationError(f"{name} must be {what}, got {col[bad[0]]}")


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
        try:
            text = bytes(source).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"CSV is not UTF-8 text: {exc}") from None
    else:
        raise DataFormatError(f"unsupported CSV source type {type(source).__name__}")
    return io.StringIO(text.removeprefix("\ufeff"))  # a byte-order mark


def parse_mortality_csv(source) -> MortalityColumns:
    """Parse a raw mortality CSV (header ``sex,site,...,population``).

    Returns the data rows as ``MortalityColumns``, in row order. No
    aggregation happens here; duplicate strata stay duplicated. Blank rows
    are skipped. A whole number is an optional sign and 1 to 18 ASCII
    digits; a population is a ``float()`` literal in ASCII without ``_``
    separators. Errors cite the 1-based line a record starts on (header is
    line 1; a quoted field may span lines), and the first bad record is the
    one reported. A leading byte-order mark is dropped.
    """
    reader = csv.reader(_as_text_lines(source))
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("empty CSV: missing header") from None
    except csv.Error as exc:  # an unclosed quote that outgrows the field limit, say
        raise DataFormatError(f"line 1: {exc}") from None
    fields = [f.strip() for f in header]
    missing = [c for c in MORTALITY_HEADER if c not in fields]
    if missing:
        raise DataFormatError(f"mortality CSV header missing column(s): {', '.join(missing)}")
    if fields != MORTALITY_HEADER:
        raise DataFormatError(
            f"mortality CSV header must be exactly {','.join(MORTALITY_HEADER)}, "
            f"got {','.join(fields)}"
        )
    # the record that ends the read, a short one or one the csv module cannot
    # parse, is reported after the rows above it are checked
    rows, lines, stop = [], [], None
    start = reader.line_num + 1  # a quoted field may hold line breaks
    try:
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not "".join(row).strip():
                continue
            if len(row) != len(MORTALITY_HEADER):
                stop = DataFormatError(
                    f"line {lineno}: expected {len(MORTALITY_HEADER)} fields, got {len(row)}")
                break
            rows.append(row)
            lines.append(lineno)
    except csv.Error as exc:
        stop = DataFormatError(f"line {start}: {exc}")
    cols = [list(map(str.strip, col)) for col in zip(*rows)] or [[]] * len(MORTALITY_HEADER)
    sex, site, age_lo, age_hi, year, deaths, population = cols
    # the first row whose number fields break the grammar ends the parse;
    # the rows above it are checked first
    bad = min(_first_bad(_WHOLE, age_lo, age_hi, year), _first_bad(_WHOLE, deaths),
              _first_bad(_REAL, population))
    ints = [np.fromiter(map(int, col[:bad]), np.int64, bad)
            for col in (age_lo, age_hi, year, deaths)]
    records = MortalityColumns(sex[:bad], site[:bad], *ints,
                               np.fromiter(map(float, population[:bad]), float, bad),
                               lines=tuple(lines[:bad]))
    if bad < len(rows):
        where = f"line {lines[bad]}"
        if not all(_WHOLE.fullmatch(col[bad]) for col in (age_lo, age_hi, year)):
            raise DataValidationError(f"{where}: non-integer age band or year "
                                      f"({age_lo[bad]!r}, {age_hi[bad]!r}, {year[bad]!r})")
        if not _WHOLE.fullmatch(deaths[bad]):
            raise DataValidationError(f"{where}: non-numeric deaths {deaths[bad]!r}")
        raise DataValidationError(f"{where}: non-numeric population {population[bad]!r}")
    if stop is not None:
        raise stop
    return records


def aggregate_cells(records: MortalityColumns, sex: str, site: str) -> ObservationTable:
    """Aggregate records for one (sex, site) into an ObservationTable.

    Cells are keyed by (age midpoint, year) and sorted by that key; deaths
    (as exact integers) and population are summed over duplicate keys.
    Population sums use ``math.fsum`` so the result is independent of
    record order. Records whose age bands differ but share a midpoint and
    a year raise DataValidationError: a cell has one age band.
    """
    keep = np.array([a == sex and b == site for a, b in zip(records.sex, records.site)],
                    dtype=bool)
    if not keep.any():
        raise DataValidationError(f"no records for sex={sex!r}, site={site!r}")

    lo, hi, year = records.age_lo[keep], records.age_hi[keep], records.year[keep]
    mid = (lo + hi) / 2.0
    order = np.lexsort((lo, year, mid))
    lo, hi, year, mid = lo[order], hi[order], year[order], mid[order]
    deaths, pops = records.deaths[keep][order], records.population[keep][order]
    same = (mid[1:] == mid[:-1]) & (year[1:] == year[:-1])
    clash = np.flatnonzero(same & (lo[1:] != lo[:-1]))
    if clash.size:
        i = clash[0]
        raise DataValidationError(
            f"age bands {lo[i]}-{hi[i]} and {lo[i + 1]}-{hi[i + 1]} in {year[i]} share "
            f"the midpoint {mid[i]:g}; records of one cell need one age band")
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    counts = deaths[starts].astype(float)
    pop = pops[starts]
    ends = np.append(starts[1:], len(mid))
    for g in np.flatnonzero(ends - starts > 1).tolist():
        s, e = starts[g], ends[g]
        counts[g] = sum(deaths[s:e].tolist())  # exact, then rounded once
        pop[g] = math.fsum(pops[s:e].tolist())
    return ObservationTable(mid[starts], year[starts].astype(float), counts, counts, pop,
                            meta=TableMeta(sex=sex, site=site))


def apply_zero_policy(table: ObservationTable, policy: str) -> ObservationTable:
    """Make every cell's t_value strictly positive.

    drop: remove zero-death cells (counted in meta); add_half: zero cells
    get t_value 0.5; add_one: every cell gets t_value deaths_raw + 1.
    """
    problem = _zero_policy_problem(policy)
    if problem:
        raise DataValidationError(problem)
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


def observed_log_rates(table: ObservationTable) -> np.ndarray:
    """log of each cell's observed rate, log(t_value / population)."""
    if not np.all(table.t_value > 0):
        raise DataValidationError("observed_log_rates requires t_value > 0; apply a zero policy")
    return table.log_t - table.log_pop


def _fmt_column(values) -> Iterable[str]:
    """The text of each number in ``values`` as a double: repr gives the
    shortest string that round-trips it exactly."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def _csv_text(header, rows) -> str:
    """CSV text of a header and rows of str fields, each line ended by a
    line feed. A field holding a comma, a quote or a line break is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def records_to_csv(records: MortalityColumns) -> str:
    """Serialize raw records to the mortality CSV schema: ``str`` of each
    whole number and ``repr`` of each population, so it reads back exactly."""
    return _csv_text(MORTALITY_HEADER, zip(
        records.sex, records.site,
        *(map(str, getattr(records, name).tolist()) for name in _WHOLE_FIELDS),
        _fmt_column(records.population)))
