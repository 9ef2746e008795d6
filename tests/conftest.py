import numpy as np
import pytest

from logsymrate import (
    GeneratorSpec,
    ModelSpec,
    SubmodelSpec,
    TruthSpec,
    apply_zero_policy,
    normal_spec,
    simulate_table,
)

AGES = tuple(float(a) for a in range(35, 80, 5))          # 9 bands
PERIODS = tuple(float(p) for p in range(1994, 2014, 2))   # 10 years

LINEAR_TRUTH = dict(beta0=-24.0, beta_age=0.075, beta_period=0.006)

TABLE_COLUMNS = ("age", "period", "deaths", "t_value", "population", "log_t", "log_pop")


def same_cells(a, b):
    """Every column of two tables equal bit for bit, NaN equal to NaN."""
    return all(np.array_equal(getattr(a, c), getattr(b, c), equal_nan=True)
               for c in TABLE_COLUMNS)


def small_poisson_table(seed=9, population=200000.0):
    truth = TruthSpec(ages=AGES, periods=PERIODS, population=population,
                      noise="poisson_counts", **LINEAR_TRUTH)
    sim = simulate_table(truth, seed)
    return apply_zero_policy(sim.table, "add_half")


def small_logsym_table(seed=9, phi=0.04, generator=None):
    truth = TruthSpec(ages=AGES, periods=PERIODS, population=200000.0,
                      noise="logsym", generator=generator or normal_spec(),
                      phi=phi, **LINEAR_TRUTH)
    sim = simulate_table(truth, seed)
    return apply_zero_policy(sim.table, "add_half")


def plain_spec(generator=None, **kwargs):
    """Offset rate model, parametric age and period, constant dispersion."""
    return ModelSpec(
        generator=generator or normal_spec(),
        location=SubmodelSpec(covariates=("intercept", "age", "period"),
                              use_offset=True),
        dispersion=SubmodelSpec(covariates=("intercept",)),
        **kwargs,
    )


ALL_GENERATORS = (
    normal_spec(),
    GeneratorSpec(family="student", nu=5.0),
    GeneratorSpec(family="powerexp", zeta=0.4),
    GeneratorSpec(family="powerexp", zeta=-0.4),
    GeneratorSpec(family="contnormal", nu1=0.15, nu2=0.25),
)


@pytest.fixture(scope="session")
def poisson_table():
    return small_poisson_table()


@pytest.fixture(scope="session")
def logsym_table():
    return small_logsym_table()


@pytest.fixture
def rng():
    return np.random.default_rng(20130)
