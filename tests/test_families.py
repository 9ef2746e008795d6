"""Generator-family math against independent numerical oracles.

Scoring weights and information constants are checked by finite
differencing and quadrature of the log-density itself, never against
reimplementations of the same formulas. Two exceptions pin bits:
TestContnormalBits holds the contaminated normal to the expressions it
was evaluated with before its mixtures were formed on demand, and
TestStudentCdfBits holds the Student-t CDF to ``scipy.stats.t.cdf``,
whose ``scipy.special.stdtr`` it calls directly.
"""

import math


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from logsymrate import GeneratorSpec, cdf, dispersion_info_const, logpdf, normal_spec
from logsymrate.errors import SpecificationError
from logsymrate.logsym_family import sample_with_rng, weight_v, weight_v_prime

from .conftest import ALL_GENERATORS

# z=0 value of the standard normal log-density, frozen from -log(sqrt(2*pi))
NORMAL_LOGPDF_AT_0 = -0.9189385332046727


def quad_tail(f):
    # Split at a mid-range breakpoint so heavy-tailed integrands (z^4 times a
    # Student-like density) get a sharp error estimate on each piece.
    head, err_h = integrate.quad(f, 0.0, 8.0, limit=300,
                                 epsabs=1e-12, epsrel=1e-12)
    tail, err_t = integrate.quad(f, 8.0, np.inf, limit=300,
                                 epsabs=1e-12, epsrel=1e-12)
    assert err_h + err_t < 1e-8
    return head + tail


class TestDensity:
    def test_normal_at_zero(self):
        assert logpdf(normal_spec(), np.array(0.0)) == pytest.approx(
            NORMAL_LOGPDF_AT_0, abs=1e-15)

    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.label())
    def test_integrates_to_one(self, gen):
        total = 2.0 * quad_tail(lambda z: np.exp(float(logpdf(gen, np.array(z)))))
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.label())
    def test_symmetric(self, gen):
        z = np.linspace(0.01, 6.0, 40)
        np.testing.assert_allclose(logpdf(gen, z), logpdf(gen, -z), rtol=0, atol=1e-13)

    def test_powerexp_zeta_zero_is_normal(self):
        z = np.linspace(-4, 4, 33)
        pe = GeneratorSpec(family="powerexp", zeta=0.0)
        np.testing.assert_allclose(logpdf(pe, z), logpdf(normal_spec(), z), atol=1e-12)

    def test_student_heavy_tail(self):
        t = GeneratorSpec(family="student", nu=3.0)
        assert logpdf(t, np.array(6.0)) > logpdf(normal_spec(), np.array(6.0))


class TestWeights:
    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.label())
    def test_v_is_neg2_dlogg_du(self, gen):
        # v(z) = -2 d log g(u) / du at u = z^2, by central difference in u.
        # The normalizing constant drops out of the derivative.
        for u in (0.25, 1.0, 2.5, 7.0):
            h = 1e-6 * u
            lo = float(logpdf(gen, np.array(np.sqrt(u - h))))
            hi = float(logpdf(gen, np.array(np.sqrt(u + h))))
            fd = -2.0 * (hi - lo) / (2 * h)
            v = float(weight_v(gen, np.array(np.sqrt(u))))
            assert v == pytest.approx(fd, rel=1e-5)

    def test_student_closed_value(self):
        # (nu+1)/(nu+z^2) at nu=5, z=2
        t = GeneratorSpec(family="student", nu=5.0)
        assert float(weight_v(t, np.array(2.0))) == pytest.approx(6.0 / 9.0, abs=1e-14)

    def test_normal_unit_weight(self):
        z = np.linspace(-5, 5, 11)
        np.testing.assert_array_equal(weight_v(normal_spec(), z), np.ones(11))

    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.label())
    def test_v_prime_is_dv_du(self, gen):
        for u in (0.3, 1.2, 4.0):
            h = 1e-6 * u
            lo = float(weight_v(gen, np.array(np.sqrt(u - h))))
            hi = float(weight_v(gen, np.array(np.sqrt(u + h))))
            fd = (hi - lo) / (2 * h)
            vp = float(weight_v_prime(gen, np.array(u)))
            assert vp == pytest.approx(fd, rel=2e-5, abs=1e-12)


class TestCdf:
    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.label())
    def test_monotone_on_grid(self, gen):
        z = np.linspace(-8.0, 8.0, 1000)
        p = cdf(gen, z)
        assert np.all(np.diff(p) >= 0)
        assert np.all((p >= 0) & (p <= 1))

    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.label())
    def test_center_and_reflection(self, gen):
        assert float(cdf(gen, np.array(0.0))) == pytest.approx(0.5, abs=1e-12)
        z = np.array([0.3, 1.1, 2.7])
        np.testing.assert_allclose(cdf(gen, z) + cdf(gen, -z), 1.0, atol=1e-12)

    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.label())
    def test_matches_density_quadrature(self, gen):
        # F(b) - F(a) must equal the integral of the density.
        for a, b in ((-1.5, 0.7), (0.2, 2.4)):
            # points=[0.0] keeps the estimate sharp when the density has a
            # kink at the origin (powerexp with positive shape).
            mass, err = integrate.quad(
                lambda z: np.exp(float(logpdf(gen, np.array(z)))),
                a, b, points=[0.0] if a < 0.0 < b else None,
                limit=200, epsabs=1e-12, epsrel=1e-12)
            assert err < 1e-9
            diff = float(cdf(gen, np.array(b)) - cdf(gen, np.array(a)))
            assert diff == pytest.approx(mass, abs=1e-8)


class TestSampling:
    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.label())
    def test_empirical_cdf_close(self, gen):
        # Dvoretzky-Kiefer-Wolfowitz: sup gap <= sqrt(ln(2/delta)/(2n))
        # with delta = 1e-6 and n = 20000 gives 0.019.
        n = 20000
        draws = sample_with_rng(gen, n, np.random.default_rng(4321))
        zs = np.sort(draws)
        emp = np.arange(1, n + 1) / n
        gap = np.max(np.abs(emp - cdf(gen, zs)))
        assert gap < 0.019

    def test_deterministic(self):
        g = GeneratorSpec(family="contnormal", nu1=0.2, nu2=0.3)
        a = sample_with_rng(g, 50, np.random.default_rng(7))
        b = sample_with_rng(g, 50, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_rng_stream_advances(self, rng):
        a = sample_with_rng(normal_spec(), 10, rng)
        b = sample_with_rng(normal_spec(), 10, rng)
        assert not np.array_equal(a, b)


def _reference_contnormal_parts(spec, u):
    """D, N, M and the shift s exactly as logpdf and the weights formed them
    when every call built all three mixtures."""
    nu1, nu2 = spec.nu1, spec.nu2
    a = -0.5 * nu2 * u
    b = -0.5 * u
    s = np.maximum(a, b)
    e1 = np.exp(a - s)
    e2 = np.exp(b - s)
    w1 = nu1 * math.sqrt(nu2)
    w2 = 1.0 - nu1
    D = w1 * e1 + w2 * e2
    N = w1 * nu2 * e1 + w2 * e2
    M = w1 * nu2 * nu2 * e1 + w2 * e2
    return D, N, M, s


class TestContnormalBits:
    @pytest.mark.parametrize("nu1, nu2", [(0.15, 0.25), (0.2, 0.3), (0.1, 4), (0.0, 2.0),
                                          (1.0, 0.5), (0.35, 1.0)])
    def test_matches_reference_bit_for_bit(self, nu1, nu2):
        gen = GeneratorSpec(family="contnormal", nu1=nu1, nu2=nu2)
        u = np.concatenate([[0.0, 1e-300, 1e-12, 1e4], np.geomspace(1e-6, 1e3, 97),
                            np.random.default_rng(3).exponential(4.0, 200)])
        z = np.concatenate([np.sqrt(u), -np.sqrt(u)])
        D, N, _, s = _reference_contnormal_parts(gen, z * z)
        assert np.array_equal(logpdf(gen, z), np.log(D) + s - 0.5 * math.log(2.0 * math.pi))
        assert np.array_equal(weight_v(gen, z), N / D)
        D, N, M, _ = _reference_contnormal_parts(gen, u)
        assert np.array_equal(weight_v_prime(gen, u), (N * N - M * D) / (2.0 * D * D))


class TestStudentCdfBits:
    # the rv_continuous wrapper's argument masks and "* 1.0 + 0.0" leave
    # stdtr's bits as they are, signed zeros, infinities and NaN included
    EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324, -5e-324]

    @pytest.mark.parametrize("nu", [1.0, 2.5, 5.0, 30.0, 1e6])
    def test_matches_scipy_stats_bit_for_bit(self, nu):
        gen = GeneratorSpec(family="student", nu=nu)
        z = np.concatenate([self.EDGES, np.linspace(-40.0, 40.0, 8001),
                            np.geomspace(1e-300, 1e300, 2001),
                            -np.geomspace(1e-300, 1e300, 2001),
                            np.random.default_rng(5).standard_t(nu, 5000)])
        assert cdf(gen, z).tobytes() == stats.t.cdf(z, df=nu).tobytes()

    @pytest.mark.parametrize("z", [0.3, -0.0, np.inf])
    def test_zero_dim_input(self, z):
        gen = GeneratorSpec(family="student", nu=5.0)
        ours, oracle = cdf(gen, np.array(z)), stats.t.cdf(np.array(z), df=5.0)
        assert type(ours) is type(oracle) and np.shape(ours) == ()
        assert ours.tobytes() == oracle.tobytes()


class TestContnormalZeroWeight:
    # A component with weight zero must not set the shift. Out to
    # u = 1e4 its exponential would otherwise underflow the kept one's, or
    # overflow against it, and logpdf would take log 0.
    Z = np.array([0.0, 0.5, -3.0, 20.0, 60.0, -100.0])

    @pytest.mark.parametrize("nu2", [0.5, 4.0])
    def test_no_contamination_is_the_normal(self, nu2):
        gen = GeneratorSpec(family="contnormal", nu1=0.0, nu2=nu2)
        np.testing.assert_allclose(logpdf(gen, self.Z), logpdf(normal_spec(), self.Z),
                                   rtol=1e-15, atol=0)

    @pytest.mark.parametrize("nu2", [2.0, 0.25])
    def test_full_contamination_is_the_scaled_normal(self, nu2):
        gen = GeneratorSpec(family="contnormal", nu1=1.0, nu2=nu2)
        np.testing.assert_allclose(logpdf(gen, self.Z),
                                   stats.norm.logpdf(self.Z, scale=1.0 / math.sqrt(nu2)),
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("nu1, nu2", [(0.0, 0.5), (0.0, 4.0), (1.0, 2.0), (1.0, 0.25)])
    def test_weights_stay_finite(self, nu1, nu2):
        gen = GeneratorSpec(family="contnormal", nu1=nu1, nu2=nu2)
        v = weight_v(gen, self.Z)
        vp = weight_v_prime(gen, self.Z * self.Z)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(vp))
        np.testing.assert_allclose(v, 1.0 if nu1 == 0.0 else nu2, rtol=1e-15)
        assert np.all(vp == 0.0)


class TestDispersionInfo:
    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.label())
    def test_matches_quadrature(self, gen):
        # kappa = (E[v(z)^2 z^4] - 1) / 4 under the family density
        def integrand(z):
            za = np.array(z)
            v = float(weight_v(gen, za))
            return (v * z * z) ** 2 * np.exp(float(logpdf(gen, za)))

        ev2z4 = 2.0 * quad_tail(integrand)
        assert dispersion_info_const(gen) == pytest.approx((ev2z4 - 1.0) / 4.0, rel=1e-6)

    def test_normal_half(self):
        assert dispersion_info_const(normal_spec()) == pytest.approx(0.5, abs=1e-12)

    def test_student_nu5(self):
        # (3(nu+1)/(nu+3) - 1)/4 at nu=5
        g = GeneratorSpec(family="student", nu=5.0)
        assert dispersion_info_const(g) == pytest.approx(0.3125, abs=1e-12)


class TestValidation:
    def test_student_needs_positive_nu(self):
        with pytest.raises(SpecificationError):
            GeneratorSpec(family="student", nu=-2.0)

    def test_powerexp_zeta_range(self):
        with pytest.raises(SpecificationError):
            GeneratorSpec(family="powerexp", zeta=1.5)
        with pytest.raises(SpecificationError):
            GeneratorSpec(family="powerexp", zeta=-1.0)

    def test_contnormal_params(self):
        with pytest.raises(SpecificationError):
            GeneratorSpec(family="contnormal", nu1=1.2, nu2=0.5)
        with pytest.raises(SpecificationError):
            GeneratorSpec(family="contnormal", nu1=0.5)

    def test_unknown_family(self):
        with pytest.raises(SpecificationError):
            GeneratorSpec(family="cauchy")

    @pytest.mark.parametrize("kwargs, stray", [
        ({"family": "normal", "nu": 5.0}, "nu"),
        ({"family": "student", "nu": 5.0, "zeta": 0.4}, "zeta"),
        ({"family": "powerexp", "zeta": 0.4, "nu1": 0.5}, "nu1"),
        ({"family": "contnormal", "nu1": 0.1, "nu2": 0.3, "zeta": 0.0}, "zeta"),
    ])
    def test_parameter_of_another_family_rejected(self, kwargs, stray):
        with pytest.raises(SpecificationError,
                           match=f"^{kwargs['family']} family takes no {stray}, got "):
            GeneratorSpec(**kwargs)

    @pytest.mark.parametrize("gen, label", [
        (GeneratorSpec(family="normal"), "normal"),
        (GeneratorSpec(family="student", nu=5.0), "student(nu=5)"),
        (GeneratorSpec(family="powerexp", zeta=-0.4), "powerexp(zeta=-0.4)"),
        (GeneratorSpec(family="contnormal", nu1=0.15, nu2=0.25), "contnormal(nu1=0.15, nu2=0.25)"),
    ])
    def test_label(self, gen, label):
        assert gen.label() == label


@settings(max_examples=60, deadline=None)
@given(z=st.floats(-30, 30), nu=st.floats(0.6, 40))
def test_student_logpdf_symmetry_property(z, nu):
    g = GeneratorSpec(family="student", nu=nu)
    a = float(logpdf(g, np.array(z)))
    b = float(logpdf(g, np.array(-z)))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(zeta=st.floats(-0.9, 1.0), z=st.floats(0.01, 10))
def test_powerexp_cdf_bounds_property(zeta, z):
    g = GeneratorSpec(family="powerexp", zeta=zeta)
    p = float(cdf(g, np.array(z)))
    assert 0.5 <= p <= 1.0
