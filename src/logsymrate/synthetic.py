"""Synthetic mortality-like tables with known ground truth.

Used by the oracle tests (parameter recovery, envelope calibration) and
by the CLI to produce end-to-end runnable inputs without any registry
data. The truth surface is additive on the log-rate scale:

    log rate(age, period) = beta0 + beta_age * age + beta_period * period
                            + f_age(age) + f_period(period)

with optional nonlinear parts given as callables. Noise is either
Poisson counts at the implied means or a log-symmetric response around
the log-scale median.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .data_ingest import MortalityColumns, ObservationTable, TableMeta, _WHOLE_LIMIT, \
    _stratum_problem
from .errors import DataValidationError, SpecificationError, _at_least, _finite, _flag, _list, \
    _positive
from .logsym_family import GeneratorSpec, sample_with_rng

NOISE_KINDS = ("poisson_counts", "logsym")


@dataclass(frozen=True)
class TruthSpec:
    ages: tuple
    periods: tuple
    beta0: float = 0.0
    beta_age: float = 0.0
    beta_period: float = 0.0
    f_age: Union[Callable, None] = None
    f_period: Union[Callable, None] = None
    population: Union[float, tuple] = 1e5
    noise: str = "poisson_counts"
    generator: Union[GeneratorSpec, None] = None
    phi: Union[float, Callable, None] = None  # 0.05 under logsym noise
    round_counts: bool = False
    sex: str = "female"
    site: str = "synthetic"

    def __post_init__(self):
        if callable(self.population):
            raise SpecificationError("population must be a number or a per-cell table, "
                                     "got a callable")
        table = isinstance(self.population, (list, tuple))
        for name in ("ages", "periods"):
            grid = tuple(_finite(v, name) for v in _list(getattr(self, name), name))
            # a population table's rows and columns follow the grids as given
            if table and not all(a < b for a, b in zip(grid, grid[1:])):
                raise SpecificationError(f"{name} must be strictly increasing with a "
                                         f"population table, got {grid}")
            object.__setattr__(self, name, tuple(sorted(set(grid))))
        if not self.ages or not self.periods:
            raise SpecificationError("age and period grids must be non-empty")
        for name in ("beta0", "beta_age", "beta_period"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        # a callable phi is checked where it is used
        if self.phi is not None and not callable(self.phi):
            object.__setattr__(self, "phi", _positive(self.phi, "phi"))
        _flag(self.round_counts, "noise round_counts")
        if self.noise not in NOISE_KINDS:
            raise SpecificationError(
                f"unknown noise kind {self.noise!r}; expected one of {NOISE_KINDS}"
            )
        if self.noise == "poisson_counts" and (self.generator is not None or self.round_counts
                                               or self.phi is not None):
            raise SpecificationError("poisson_counts noise takes no generator and no "
                                     "round_counts or phi; only logsym noise reads them")
        if self.noise == "logsym" and self.generator is None:
            raise SpecificationError("logsym noise needs a generator")
        if self.noise == "logsym" and self.phi is None:
            object.__setattr__(self, "phi", 0.05)
        problem = _stratum_problem(self.sex, self.site)
        if problem:
            raise SpecificationError(problem)
        if not table:
            object.__setattr__(self, "population", _positive(self.population, "population"))
        else:
            # entries as positive numbers; the shape, a flat list's included, is checked next
            object.__setattr__(self, "population", tuple(
                tuple(_positive(v, "population") for v in row) if isinstance(row, (list, tuple))
                else _positive(row, "population") for row in self.population))
            try:
                shape = np.asarray(self.population, dtype=float).shape
            except ValueError:  # ragged rows
                shape = None
            if shape != (len(self.ages), len(self.periods)):
                raise SpecificationError(
                    f"population table must be {len(self.ages)} x {len(self.periods)} "
                    f"(ages x periods), got shape {shape}")

    def grid(self):
        """Cells in table order: (age, period) pairs sorted lexicographically."""
        return [(a, p) for a in self.ages for p in self.periods]

    def log_rate_surface(self) -> np.ndarray:
        out = []
        for a, p in self.grid():
            val = self.beta0 + self.beta_age * a + self.beta_period * p
            if self.f_age is not None:
                val += float(self.f_age(a))
            if self.f_period is not None:
                val += float(self.f_period(p))
            out.append(val)
        arr = np.array(out, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise SpecificationError("log-rate surface must be finite")
        return arr

    def population_surface(self) -> np.ndarray:
        if np.isscalar(self.population):
            return np.full(len(self.grid()), float(self.population))
        return np.asarray(self.population, dtype=float).ravel()

    def phi_surface(self) -> np.ndarray:
        if callable(self.phi):
            phi = np.array([float(self.phi(a, p)) for a, p in self.grid()])
        else:
            phi = np.full(len(self.grid()), float(self.phi))
        if np.any(~(phi > 0)):
            raise SpecificationError("dispersion surface must be positive")
        return phi


@dataclass
class SimulatedTable:
    table: ObservationTable
    log_rate: np.ndarray
    expected: np.ndarray
    phi: Union[np.ndarray, None]
    truth: TruthSpec
    seed: int


def simulate_table(truth: TruthSpec, seed: int) -> SimulatedTable:
    """Draw one table. Deterministic given (truth, seed).

    poisson_counts: deaths ~ Poisson(population * exp(log rate)), cells may
    hold zero counts (a zero policy applies downstream as with real data).
    logsym: log T = log population + log rate + sqrt(phi) * eps; the
    continuous t_value is kept unless round_counts is set, and deaths_raw
    is always the rounded value.
    """
    seed = _at_least(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    grid = truth.grid()
    log_rate = truth.log_rate_surface()
    pop = truth.population_surface()
    meta = TableMeta(sex=truth.sex, site=truth.site)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = pop * np.exp(log_rate)
    if not np.all(expected < _WHOLE_LIMIT):
        raise SpecificationError(
            f"expected deaths must be finite and below {_WHOLE_LIMIT:.0e} (the digit limit "
            f"of a record), got {expected.max()}; check the log-rate surface and population")

    if truth.noise == "poisson_counts":
        phi = None
        deaths = rng.poisson(expected)
        t_value = deaths
    else:
        phi = truth.phi_surface()
        eps = sample_with_rng(truth.generator, len(grid), rng)
        y = np.log(pop) + log_rate + np.sqrt(phi) * eps
        with np.errstate(over="ignore"):
            t = np.exp(y)
        if not np.all(np.isfinite(t)):
            raise SpecificationError("simulated response overflowed; check phi and the surface")
        deaths = np.rint(t)
        t_value = np.maximum(deaths, 1.0) if truth.round_counts else t
    table = ObservationTable(age=[a for a, _ in grid], period=[p for _, p in grid],
                             deaths=deaths, t_value=t_value, population=pop, meta=meta)
    return SimulatedTable(table=table, log_rate=log_rate, expected=expected, phi=phi,
                          truth=truth, seed=seed)


def simulated_to_records(sim: SimulatedTable, band_width: int = 5) -> MortalityColumns:
    """Rewrite a simulated table as raw mortality records so the CLI
    pipeline can run end to end on it.

    Age midpoints must sit on integer band boundaries for the chosen
    width, and periods must be whole years. Continuous t_values are
    dropped; the records carry the rounded counts.
    """
    band_width = _at_least(band_width, "band_width", 1)
    table = sim.table
    lo = table.age - (band_width - 1) / 2.0
    off_band = np.abs(lo - np.round(lo)) > 1e-9
    if off_band.any():
        raise DataValidationError(f"age midpoint {table.age[off_band][0]} is not representable "
                                  f"as a width-{band_width} integer band")
    year = np.round(table.period)
    off_year = np.abs(table.period - year) > 1e-9
    if off_year.any():
        raise DataValidationError(
            f"period midpoint {table.period[off_year][0]} is not a whole year")
    age_lo, n = np.round(lo).astype(np.int64), len(table)
    return MortalityColumns((sim.truth.sex,) * n, (sim.truth.site,) * n, age_lo,
                            age_lo + (band_width - 1), year.astype(np.int64),
                            table.deaths.astype(np.int64), table.population)
