"""Spline bases and roughness penalties.

The natural-cubic penalty is validated against direct numerical
integration of the squared second derivative of the interpolating
spline, which is an independent construction of the same quantity.
The numpy basis evaluators are held bit for bit to the scipy.interpolate
routines they replace, which the package itself no longer imports.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline, CubicSpline
from scipy.linalg import solve_banded

from logsymrate import SplineTerm, build_term_block, center_block, spline_bases
from logsymrate.errors import SpecificationError
from logsymrate.spline_bases import (
    PSP_DEGREE,
    BasisBlock,
    _bspline_matrix,
    _gtsv,
    _ncs_coefficients,
    _ncs_eval_matrix,
    ncs_build,
    psp_build,
    term_label,
)


def ncs_rows(knots, x):
    """The package's cardinal natural-cubic-spline rows at x."""
    return _ncs_eval_matrix(knots, _ncs_coefficients(knots), x)


def scipy_ncs_rows(knots, x):
    """Cardinal natural-cubic-spline rows from scipy's CubicSpline,
    continued linearly outside the knots by its first derivative."""
    cs = CubicSpline(knots, np.eye(len(knots)), axis=0, bc_type="natural")
    ds = cs.derivative(1)
    out = np.empty((len(x), len(knots)))
    inside = (x >= knots[0]) & (x <= knots[-1])
    if np.any(inside):
        out[inside] = cs(x[inside])
    lo = x < knots[0]
    if np.any(lo):
        out[lo] = cs(knots[0]) + np.outer(x[lo] - knots[0], ds(knots[0]))
    hi = x > knots[-1]
    if np.any(hi):
        out[hi] = cs(knots[-1]) + np.outer(x[hi] - knots[-1], ds(knots[-1]))
    return out


def scipy_bspline_rows(t, x):
    return BSpline.design_matrix(x, t, PSP_DEGREE, extrapolate=True).toarray()


def probes(lo, hi, knots):
    """Rows below, at and above both ends, on every knot and in between."""
    ends = [np.nextafter(lo, -np.inf), lo, np.nextafter(lo, np.inf),
            np.nextafter(hi, -np.inf), hi, np.nextafter(hi, np.inf)]
    span = hi - lo
    return np.concatenate([np.linspace(lo - 0.3 * span, hi + 0.3 * span, 241), knots, ends])


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def ncs_quadrature_energy(knots, a):
    """Integral of f''(x)^2 for the natural interpolating cubic spline."""
    cs = CubicSpline(knots, a, bc_type="natural")
    d2 = cs.derivative(2)
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        # f'' is linear inside each interval; Simpson is exact for its square
        xs = np.linspace(lo, hi, 5)
        ys = d2(xs) ** 2
        total += (hi - lo) / 12.0 * (ys[0] + 4 * ys[1] + 2 * ys[2] + 4 * ys[3] + ys[4])
    return total


class TestNcsPenalty:
    def test_frozen_tent_value(self):
        # hand-checked: knots 0,1,2 with values (0,1,0) give energy 6
        K = ncs_build(np.array([0.0, 1.0, 2.0])).K
        a = np.array([0.0, 1.0, 0.0])
        assert float(a @ K @ a) == pytest.approx(6.0, rel=1e-12)

    def test_matches_quadrature_20_vectors(self):
        rng = np.random.default_rng(7)
        knots = np.sort(rng.uniform(20.0, 90.0, 11))
        K = ncs_build(knots).K
        for _ in range(20):
            a = rng.normal(size=11)
            quad = ncs_quadrature_energy(knots, a)
            assert float(a @ K @ a) == pytest.approx(quad, rel=1e-6)

    def test_null_space(self):
        knots = np.array([30.0, 40.0, 55.0, 62.5, 80.0])
        K = ncs_build(knots).K
        ones = np.ones(5)
        assert np.max(np.abs(K @ ones)) <= 1e-10
        assert np.max(np.abs(K @ knots)) <= 1e-10 * np.max(np.abs(K)) * np.max(knots)

    def test_psd(self):
        rng = np.random.default_rng(3)
        knots = np.sort(rng.uniform(0, 10, 8))
        K = ncs_build(knots).K
        w = np.linalg.eigvalsh(K)
        assert w.min() >= -1e-10 * max(1.0, w.max())


class TestNcsBasis:
    def test_interpolates_at_knots(self):
        knots = np.array([1.0, 2.0, 4.0, 7.0])
        blk = ncs_build(knots)
        np.testing.assert_allclose(blk.evaluate(knots), np.eye(4), atol=1e-12)

    def test_linear_extrapolation(self):
        knots = np.array([0.0, 1.0, 3.0])
        blk = ncs_build(knots)
        coef = np.array([0.5, -1.0, 2.0])
        # beyond the boundary the curve continues as a straight line
        left = blk.evaluate(np.array([-2.0, -1.0, 0.0])) @ coef
        assert left[2] - left[1] == pytest.approx(left[1] - left[0], abs=1e-10)
        right = blk.evaluate(np.array([3.0, 4.0, 5.0])) @ coef
        assert right[2] - right[1] == pytest.approx(right[1] - right[0], abs=1e-10)

    def test_needs_three_distinct(self):
        with pytest.raises(SpecificationError):
            ncs_build(np.array([1.0, 1.0, 2.0]))

    def test_interpolant_coefficients_computed_once_per_build(self):
        # the centered block carries ncs_build's coefficients, and evaluating
        # it computes none, bit for bit the rows from fresh ones
        x = np.repeat(np.arange(40.0, 70.0, 3.0), 4)
        probe = np.array([38.0, 40.0, 50.5, 67.0, 71.0])
        with mock.patch.object(spline_bases, "_ncs_coefficients",
                               wraps=spline_bases._ncs_coefficients) as spy:
            blk = build_term_block(SplineTerm("ncs", "age", 1.0), x)
            assert spy.call_count == 1
            rows = [blk.evaluate(probe) for _ in range(3)]
            assert spy.call_count == 1
        for got in rows:
            assert same_bits(got, ncs_rows(blk.knots, probe) @ blk.transform)
        # a block built by hand computes them from its knots
        with mock.patch.object(spline_bases, "_ncs_coefficients",
                               wraps=spline_bases._ncs_coefficients) as spy:
            hand = BasisBlock(kind="ncs", B=blk.B, K=blk.K, knots=blk.knots, x_min=blk.x_min,
                              x_max=blk.x_max, centered=True, transform=blk.transform)
            assert same_bits(hand.evaluate(probe), rows[0])
        assert spy.call_count == 1


class TestPspBasis:
    def test_partition_of_unity(self):
        x = np.linspace(10.0, 20.0, 57)
        blk = psp_build(x, basis_dim=9)
        np.testing.assert_allclose(blk.B.sum(axis=1), 1.0, atol=1e-12)

    def test_penalty_null_space(self):
        x = np.linspace(0.0, 1.0, 40)
        blk = psp_build(x, basis_dim=10, diff_order=2)
        # second-difference penalty annihilates constant and linear
        # coefficient sequences
        q = blk.K.shape[0]
        for a in (np.ones(q), np.arange(q, dtype=float)):
            assert float(a @ blk.K @ a) <= 1e-10

    def test_diff_order_one(self):
        x = np.linspace(0.0, 1.0, 30)
        blk = psp_build(x, basis_dim=8, diff_order=1)
        q = blk.K.shape[0]
        assert float(np.ones(q) @ blk.K @ np.ones(q)) <= 1e-12
        a = np.arange(q, dtype=float)
        assert float(a @ blk.K @ a) > 1.0

    def test_out_of_range_warns(self):
        x = np.linspace(0.0, 1.0, 30)
        blk = psp_build(x, basis_dim=8)
        with pytest.warns(UserWarning):
            blk.evaluate(np.array([2.5]))


class TestCentering:
    def test_column_sums_vanish(self):
        x = np.linspace(5.0, 9.0, 25)
        blk = center_block(psp_build(x, basis_dim=7))
        np.testing.assert_allclose(blk.B.sum(axis=0), 0.0, atol=1e-9)

    def test_idempotent(self):
        x = np.linspace(5.0, 9.0, 25)
        blk = center_block(psp_build(x, basis_dim=7))
        again = center_block(blk)
        assert again is blk

    def test_evaluate_matches_training_matrix(self):
        x = np.sort(np.random.default_rng(11).uniform(2.0, 6.0, 30))
        blk = center_block(ncs_build(np.unique(x)))
        np.testing.assert_allclose(blk.evaluate(np.unique(x)), blk.B, atol=1e-10)

    def test_penalty_energy_preserved(self):
        # centered penalty is the restriction of the original quadratic form
        x = np.linspace(1.0, 4.0, 9)
        raw = ncs_build(x)
        cen = center_block(raw)
        rng = np.random.default_rng(5)
        for _ in range(5):
            b = rng.normal(size=cen.K.shape[0])
            a = cen.transform @ b
            assert float(b @ cen.K @ b) == pytest.approx(float(a @ raw.K @ a), rel=1e-10)


class TestTermPlumbing:
    def test_label(self):
        t = SplineTerm(kind="ncs", covariate="age", lam=1.0)
        assert term_label("location", t) == "location:ncs(age)"

    def test_build_term_block_centers(self):
        x = np.linspace(30, 80, 40)
        t = SplineTerm(kind="psp", covariate="age", lam=2.0, basis_dim=8)
        blk = build_term_block(t, x)
        assert blk.centered
        assert blk.ncols == 7

    def test_select_marker(self):
        t = SplineTerm(kind="ncs", covariate="age", lam=None)
        assert t.lam is None

    @pytest.mark.parametrize("field, value", [
        ("lam", "select"), ("lam", [1.0]), ("basis_dim", 7.5), ("basis_dim", True),
        ("diff_order", 7.5), ("diff_order", "2"),
    ])
    def test_non_number_fields_are_named(self, field, value):
        name = "lambda" if field == "lam" else field
        with pytest.raises(SpecificationError, match=f"^term {name} must be"):
            SplineTerm(kind="psp", covariate="age", **{"lam": 1.0, field: value})
        if field != "lam":
            # checked before any knots are formed
            with pytest.raises(SpecificationError, match=f"^term {name} must be a whole number"):
                psp_build(np.linspace(0.0, 10.0, 25), **{field: value})

    def test_integral_float_sizes_read_as_ints(self):
        # as every other count, and as a spec file's basis_dim 8.0 always read
        term = SplineTerm(kind="psp", covariate="age", lam=1.0, basis_dim=8.0, diff_order=2.0)
        assert (term.basis_dim, term.diff_order) == (8, 2)
        assert type(term.basis_dim) is int and type(term.diff_order) is int
        x = np.linspace(0.0, 10.0, 25)
        assert np.array_equal(psp_build(x, basis_dim=8.0, diff_order=2.0).B,
                              psp_build(x, basis_dim=8, diff_order=2).B)

    def test_numpy_integers_are_integers(self):
        x = np.linspace(0.0, 10.0, 25)
        term = SplineTerm("psp", "age", np.float64(2.0), basis_dim=np.int64(8),
                          diff_order=np.int32(2))
        built = psp_build(x, basis_dim=term.basis_dim, diff_order=term.diff_order)
        assert np.array_equal(built.B, psp_build(x, basis_dim=8, diff_order=2).B)

    def test_validation(self):
        with pytest.raises(SpecificationError):
            SplineTerm(kind="cubic", covariate="age", lam=1.0)
        with pytest.raises(SpecificationError):
            SplineTerm(kind="ncs", covariate="age", lam=-2.0)

    @pytest.mark.parametrize("basis_dim, diff_order, message", [
        (3, 2, "psp basis_dim 3 must exceed the degree 3"),
        (2, 1, "psp basis_dim 2 must exceed the degree 3"),
        (2, 2, r"psp basis_dim 2 too small for diff_order 2; need at least diff_order \+ 1"),
        (9, 0, "diff_order must be >= 1, got 0"),
    ])
    def test_psp_sizes_checked_alike(self, basis_dim, diff_order, message):
        # the term and the basis builder apply one set of rules, so a bad
        # size fails when the spec is read, not at fit time
        with pytest.raises(SpecificationError, match=f"^{message}$"):
            SplineTerm("psp", "age", 1.0, basis_dim=basis_dim, diff_order=diff_order)
        with pytest.raises(SpecificationError, match=f"^{message}$"):
            psp_build(np.linspace(0.0, 10.0, 25), basis_dim, diff_order)

    def test_smallest_psp_sizes_build(self):
        x = np.linspace(0.0, 10.0, 25)
        assert build_term_block(SplineTerm("psp", "age", 1.0, basis_dim=4, diff_order=3),
                                x).ncols == 3
        # basis_dim and diff_order bind a psp term only
        assert SplineTerm("ncs", "age", 1.0, basis_dim=3).basis_dim == 3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=4, max_size=12, unique=True))
def test_ncs_energy_nonnegative_property(vals):
    knots = np.sort(np.asarray(vals))
    if np.min(np.diff(knots)) < 1e-3:
        return
    blk = ncs_build(knots)
    rng = np.random.default_rng(1)
    a = rng.normal(size=len(knots))
    assert float(a @ blk.K @ a) >= -1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(-5, 5), st.floats(-2, 2))
def test_affine_coefficients_cost_nothing_property(c0, c1):
    knots = np.array([10.0, 12.0, 15.0, 19.0, 24.0])
    blk = ncs_build(knots)
    a = c0 + c1 * knots
    scale = max(1.0, abs(c0), abs(c1)) ** 2
    assert abs(float(a @ blk.K @ a)) <= 1e-8 * scale


class TestDistinctValueEvaluation:
    """A basis is evaluated once per distinct covariate value and gathered.
    The oracle evaluates every row, as the bases did before."""

    # a 91-age x 80-period table in key order: age repeats, period cycles
    AGES = np.repeat(np.arange(0.0, 91.0), 80)
    PERIODS = np.tile(np.arange(1940.0, 2020.0), 91)

    @staticmethod
    def every_row(block, x):
        if block.kind == "ncs":
            return scipy_ncs_rows(block.knots, x)
        return scipy_bspline_rows(block.knots, x)

    @pytest.mark.parametrize("term", [SplineTerm("ncs", "age", 1.0),
                                      SplineTerm("psp", "age", 1.0, basis_dim=10),
                                      SplineTerm("psp", "age", 1.0, basis_dim=23, diff_order=3)])
    @pytest.mark.parametrize("covariate", ["AGES", "PERIODS"])
    def test_bit_identical_to_every_row(self, term, covariate):
        x = getattr(self, covariate)
        assert len(x) == 7280
        built = ncs_build(x) if term.kind == "ncs" else psp_build(x, term.basis_dim,
                                                                  term.diff_order)
        oracle = BasisBlock(kind=built.kind, B=self.every_row(built, x), K=built.K,
                            knots=built.knots, x_min=float(np.min(x)),
                            x_max=float(np.max(x)))
        assert np.array_equal(built.B, oracle.B)
        assert (built.x_min, built.x_max) == (oracle.x_min, oracle.x_max)
        centered, expected = build_term_block(term, x), center_block(oracle)
        for name in ("B", "K", "transform"):
            assert np.array_equal(getattr(centered, name), getattr(expected, name)), name


class TestEvaluatorsMatchScipy:
    """The numpy evaluators give the bits of the scipy.interpolate calls
    they replace, inside the knots, on them and extrapolated."""

    @pytest.mark.parametrize("basis_dim", range(4, 25))
    @pytest.mark.parametrize("lo, hi", [(0.0, 90.0), (1940.0, 2019.0), (-3.3, 7.1)])
    def test_bspline_rows(self, basis_dim, lo, hi):
        t = psp_build(np.array([lo, hi]), basis_dim=basis_dim).knots
        x = probes(lo, hi, t)
        assert same_bits(_bspline_matrix(t, x), scipy_bspline_rows(t, x))

    @pytest.mark.parametrize("q", range(3, 60))
    @pytest.mark.parametrize("spacing", ["uniform", "irregular"])
    def test_natural_cubic_rows(self, q, spacing):
        if spacing == "uniform":
            knots = 1940.0 + 1.5 * np.arange(q)
        else:
            knots = np.unique(np.random.default_rng(q).uniform(0.0, 90.0, q))
        x = probes(knots[0], knots[-1], knots)
        assert same_bits(ncs_rows(knots, x), scipy_ncs_rows(knots, x))


class TestTridiagonalSolve:
    """``_gtsv`` gives the bits of ``scipy.linalg.solve_banded`` on a (1, 1)
    band, LAPACK dgtsv, with and without row interchanges. An interchange
    leaves its fill-in in dl, which is 0 wherever no rows were swapped."""

    def test_random_systems(self):
        rng = np.random.default_rng(3)
        swapped = 0
        for q in range(2, 41):
            for nrhs in (1, 3, 7):
                # a small diagonal makes the system far from dominant
                d = rng.standard_normal(q) * (0.01 if nrhs == 3 else 1.0)
                dl, du = rng.standard_normal(q - 1), rng.standard_normal(q - 1)
                b = rng.standard_normal((q, nrhs))
                ab = np.zeros((3, q))
                ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
                expected = solve_banded((1, 1), ab, b)
                fill = dl.copy()
                assert same_bits(_gtsv(fill, d.copy(), du.copy(), b.copy()), expected)
                swapped += bool(np.any(fill[:-1]))
        assert swapped > 0

    def test_uneven_knot_gaps(self):
        # a gap much longer than the one before can swap rows (the first
        # rows swap when h_1 > 2 h_0); evenly spread knots never swap
        knot_sets = [[1.0, 100.0] * 6, [100.0, 1.0] * 6 + [100.0],
                     [1.0, 1.0, 100.0, 100.0, 1.0, 100.0, 1.0, 1.0],
                     np.random.default_rng(5).choice([1.0, 100.0], size=25)]
        swapped = 0
        for gaps in knot_sets:
            knots = 1940.0 + np.concatenate([[0.0], np.cumsum(gaps)])
            x = probes(knots[0], knots[-1], knots)
            with mock.patch.object(spline_bases, "_gtsv", wraps=_gtsv) as spy:
                rows = ncs_rows(knots, x)
            assert same_bits(rows, scipy_ncs_rows(knots, x))
            swapped += bool(np.any(spy.call_args.args[0][:-1]))
        assert swapped > 0

    def test_singular_system(self):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _gtsv(np.zeros(2), np.zeros(3), np.ones(2), np.ones((3, 2)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=30, unique=True),
       st.lists(st.floats(-2e3, 2e3), min_size=1, max_size=20))
def test_natural_cubic_rows_match_scipy_property(vals, xs):
    knots = np.sort(np.asarray(vals))
    if np.min(np.diff(knots)) < 1e-6:
        return
    x = np.concatenate([np.asarray(xs), knots])
    assert same_bits(ncs_rows(knots, x), scipy_ncs_rows(knots, x))


@settings(max_examples=60, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(4, 30),
       st.lists(st.floats(-3e3, 3e3), min_size=1, max_size=20))
def test_bspline_rows_match_scipy_property(lo, span, basis_dim, xs):
    t = psp_build(np.array([lo, lo + span]), basis_dim=basis_dim).knots
    x = np.concatenate([np.asarray(xs), t])
    assert same_bits(_bspline_matrix(t, x), scipy_bspline_rows(t, x))
