"""Export fitted spline components for plotting.

Fits a model with smooth age and period effects in the location and a
smooth age effect in the dispersion, then writes every centered
component curve to a CSV next to this script.
"""

import math
from pathlib import Path

from logsymrate import (
    ModelSpec,
    SplineTerm,
    SubmodelSpec,
    TruthSpec,
    all_component_curves,
    fit,
    normal_spec,
    simulate_table,
)
from logsymrate.diagnostics import curves_to_csv

SEED = 477
OUT = Path(__file__).resolve().parent / "component_curves.csv"


def make_truth():
    return TruthSpec(
        ages=tuple(range(30, 95, 5)),
        periods=tuple(range(1994, 2014, 2)),
        beta0=-21.5,
        f_age=lambda a: 0.9 * math.sin((a - 30.0) / 22.0),
        f_period=lambda p: 0.004 * (p - 2004.0),
        population=120_000.0,
        noise="logsym",
        generator=normal_spec(),
        phi=lambda a, p: math.exp(-3.5 + 1.2 * (a - 30.0) / 65.0),
    )


def main():
    sim = simulate_table(make_truth(), seed=SEED)
    spec = ModelSpec(
        generator=normal_spec(),
        location=SubmodelSpec(
            covariates=("intercept",),
            terms=(SplineTerm(kind="ncs", covariate="age", lam=10.0),
                   SplineTerm(kind="ncs", covariate="period", lam=10.0)),
            use_offset=True,
        ),
        dispersion=SubmodelSpec(
            covariates=("intercept",),
            terms=(SplineTerm(kind="psp", covariate="age",
                              basis_dim=10, lam=50.0),),
        ),
    )
    result = fit(spec, sim.table)
    print(f"converged {result.converged} after {result.iterations} iterations")
    for label in sorted(result.edf):
        print(f"  {label}: lambda {result.lam[label]:.3g}, "
              f"edf {result.edf[label]:.2f}")

    curves = all_component_curves(result, grid_size=200)
    OUT.write_text(curves_to_csv(curves))
    rows = sum(len(g) for _, g, _ in curves)
    print(f"wrote {len(curves)} curves ({rows} rows) to {OUT.name}")


if __name__ == "__main__":
    main()
