"""Unit tests for pointgas.specfun against frozen high-precision oracles.

Oracle values were computed with 50+ digit arbitrary-precision arithmetic
(series summation with exact rational gamma arguments; asymptotic tail
expansion where the series is infeasible) and frozen here as literals.
"""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfc

from pointgas import specfun as sf

# (alpha, x, E_alpha(x)) frozen from arbitrary-precision summation
ML_ORACLE = [
    (0.25, -0.3, 0.7475917733762234),
    (0.25, -1.0, 0.4638527608017133),
    (0.25, -4.0, 0.17291766990277474),
    (0.25, -30.0, 0.026584961365091656),
    (0.25, -50.0, 0.016097508838799058),
    (0.5, -0.3, 0.7345993345676551),
    (0.5, -1.0, 0.427583576155807),
    (0.5, -4.0, 0.13699945762506138),
    (0.5, -12.0, 0.04685422101489376),
    (0.5, -30.0, 0.01879588886141675),
    (0.5, -50.0, 0.011281536265323773),
    (0.75, -0.3, 0.7319081751102204),
    (0.75, -1.0, 0.39310830281575404),
    (0.75, -4.0, 0.0888229363127439),
    (0.75, -12.0, 0.025085777706384878),
    (0.75, -30.0, 0.009516692693117128),
    (0.75, -50.0, 0.0056311878629451305),
    (0.9, -0.3, 0.7358452766484306),
    (0.9, -1.0, 0.3760660214246419),
    (0.9, -4.0, 0.050411103314434616),
    (0.9, -12.0, 0.010275288049933645),
    (0.9, -30.0, 0.003713707698459852),
    (0.9, -50.0, 0.002175353076856976),
]

# (alpha, z, E_alpha(z)) off the real axis, frozen from 250-digit summation;
# the alpha = 0.6, 0.75, 0.9, 0.95 rows have |arg z| < alpha pi (pole rule)
ML_COMPLEX_ORACLE = [
    (0.95, complex(-1.2533323356430437, 9.921147013144777),
     complex(0.0028452623005279154, -0.08961080831284782)),
    (0.6, complex(-3.0, 4.0), complex(0.05405654417947239, 0.07850196332867804)),
    (0.75, complex(-1.0, 7.0), complex(-0.00033055731851840386, 0.039339952076534235)),
    (0.3, complex(-2.0, -5.0), complex(0.06373094546032369, -0.12164571576569443)),
    (0.9, complex(-0.5, -20.0), complex(-0.0027222646059469127, -0.008505321855294266)),
]

# (s, z, Li_s(z)) frozen from arbitrary-precision summation
POLYLOG_ORACLE = [
    (0.5, 0.2, 0.2338782633713056),
    (0.5, 0.5, 0.8061267230428523),
    (0.5, 0.8, 2.3375564095578234),
    (0.5, 0.95, 6.376361372585539),
    (0.5, 0.999999, 1770.9930534655168),
    (1.5, 0.2, 0.21591553981455835),
    (1.5, 0.5, 0.6248370208199139),
    (1.5, 0.8, 1.2585703715238326),
    (1.5, 0.95, 1.884157333411629),
    (1.5, 0.999999, 2.608831900452534),
    (2.5, 0.2, 0.20764083352728854),
    (2.5, 0.5, 0.5549972787175123),
    (2.5, 0.8, 0.9716865343899203),
    (2.5, 0.95, 1.2330274225873386),
    (2.5, 0.999999, 1.3414846472368056),
]

# (alpha, n, x, E_alpha^(n)(x)) frozen from arbitrary-precision summation
ML_DERIV_ORACLE = [
    (0.5, 1, -1.0, 0.27321201478389856),
    (0.5, 2, -1.0, 0.3087431227438169),
    (0.5, 5, -2.0, 0.21979971308863017),
    (0.25, 3, -0.5, 1.3741654879530005),
    (0.75, 1, -2.0, 0.11248476299421409),
    (0.75, 4, -1.0, 0.7136635509750887),
    (0.5, 0, -1.0, 0.427583576155807),
    (0.5, 10, -2.0, 16.79472269842732),
]

# (alpha, tau, f_alpha(tau)) frozen from arbitrary-precision series/integral
STABLE_ORACLE = [
    (0.3, 0.5, 0.24064578302542872),
    (0.3, 2.0, 0.054783242263121486),
    (0.7, 1.0, 0.38739501014659244),
    (0.7, 3.0, 0.05000090402022237),
    (0.8, 1.5, 0.20408585074086313),
]


def quad_stable_density(alpha, tau):
    """Independent oracle for the stable density: Zolotarev's single
    integral f(tau) = a/((1-a) pi) tau^(-1/(1-a)) int_0^pi A e^(-A c) dphi,
    with A the Kanter tilt and c = tau^(-a/(1-a)), by adaptive quadrature."""
    r = alpha / (1.0 - alpha)
    c = tau ** (-r)
    if c * (1.0 - alpha) * alpha ** r > 745.0:
        return 0.0

    def integrand(phi):
        a = sf._tilt(phi, alpha)
        if not math.isfinite(a) or c * a > 745.0:
            return 0.0
        return a * math.exp(-c * a)

    pts = None
    if c < 1.0:
        # boundary layer at phi -> pi where A(phi) ~ C (pi-phi)^(-1/(1-alpha))
        cpi = math.sin((1.0 - alpha) * math.pi) * math.sin(alpha * math.pi) ** r
        psi = (cpi * c) ** (1.0 - alpha)
        if psi < math.pi / 2.0:
            pts = [math.pi - 3.0 * psi, math.pi - psi]
    val, _ = integrate.quad(integrand, 0.0, math.pi, points=pts,
                            limit=400, epsabs=1e-300, epsrel=1e-10)
    return alpha / ((1.0 - alpha) * math.pi) * tau ** (-1.0 / (1.0 - alpha)) * val


class TestZetaTable:
    def test_reference_values(self):
        assert sf.zeta_const(1.5) == pytest.approx(2.6123753486854883, abs=1e-14)
        assert sf.zeta_const(2.5) == pytest.approx(1.3414872572509171, abs=1e-14)
        assert sf.zeta_const(0.0) == -0.5

    def test_negative_orders_present(self):
        # the near-unit expansion needs zeta(s - k) for k = 0..29
        for s in sf.POLYLOG_ORDERS:
            for k in range(30):
                sf.zeta_const(s - k)

    def test_untabulated_rejected(self):
        with pytest.raises(ValueError):
            sf.zeta_const(3.0)
        with pytest.raises(ValueError):
            sf.zeta_const(-1.0)


class TestPolylog:
    def test_empty_series(self):
        assert sf.polylog(1.5, 0.0) == 0.0

    def test_at_unit_argument(self):
        assert sf.polylog(1.5, 1.0) == pytest.approx(sf.zeta_const(1.5), rel=1e-12)
        assert sf.polylog(2.5, 1.0) == pytest.approx(sf.zeta_const(2.5), rel=1e-12)

    @pytest.mark.parametrize("s,z,want", POLYLOG_ORACLE)
    def test_oracle_values(self, s, z, want):
        assert sf.polylog(s, z) == pytest.approx(want, rel=1e-12)

    def test_branch_consistency_at_switch(self):
        # the two evaluation branches overlap at z = 0.5
        for s in sf.POLYLOG_ORDERS:
            direct = float(np.polynomial.polynomial.polyval(
                0.5, sf._polylog_series_coeffs(s)))
            w = -math.log(0.5)
            near = math.gamma(1.0 - s) * w ** (s - 1.0) + float(
                np.polynomial.polynomial.polyval(w, sf._polylog_near_one_coeffs(s)))
            assert abs(direct - near) < 1e-10

    def test_vectorized_matches_scalar(self):
        z = np.linspace(0.0, 0.999, 41)
        batch = sf.polylog(1.5, z)
        single = np.array([sf.polylog(1.5, zz) for zz in z])
        np.testing.assert_allclose(batch, single, rtol=0, atol=0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.polylog(0.7, 0.5)
        with pytest.raises(ValueError):
            sf.polylog(1.5, -0.1)
        with pytest.raises(ValueError):
            sf.polylog(1.5, 1.0001)
        with pytest.raises(ValueError):
            sf.polylog(0.5, 1.0)


class TestMittagLeffler:
    def test_at_zero(self):
        for alpha in (0.1, 0.5, 1.0):
            assert sf.mittag_leffler(alpha, 0.0) == 1.0

    def test_exponential_reduction(self):
        for x in np.linspace(-30.0, 0.0, 61):
            assert sf.mittag_leffler(1.0, x) == pytest.approx(math.exp(x), rel=1e-12)

    def test_half_order_erfc_identity(self):
        # E_{1/2}(-z) = e^{z^2} erfc(z); erfc from an independent library routine
        for z in np.linspace(0.0, 5.0, 50):
            want = math.exp(z * z) * erfc(z)
            assert sf.mittag_leffler(0.5, -z) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("alpha,x,want", ML_ORACLE)
    def test_oracle_values(self, alpha, x, want):
        assert sf.mittag_leffler(alpha, x) == pytest.approx(want, rel=1e-11)

    def test_monotone_and_bounded(self):
        for alpha in (0.25, 0.6, 0.9):
            vals = [sf.mittag_leffler(alpha, x) for x in np.linspace(0.0, -50.0, 40)]
            assert all(0.0 < v <= 1.0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha,z,want", ML_COMPLEX_ORACLE)
    def test_complex_oracle_values(self, alpha, z, want):
        got = sf.mittag_leffler(alpha, z)
        assert isinstance(got, complex)
        assert abs(got - want) < 1e-12

    def test_real_argument_returns_float(self):
        assert isinstance(sf.mittag_leffler(0.5, -2.0), float)
        assert isinstance(sf.mittag_leffler(1.0, -2.0), float)
        assert sf.mittag_leffler(0.5, 0j) == 1.0 + 0.0j

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.mittag_leffler(0.5, 0.1)
        with pytest.raises(ValueError):
            sf.mittag_leffler(0.5, -50.1)
        with pytest.raises(ValueError):
            sf.mittag_leffler(0.5, complex(0.1, 3.0))
        with pytest.raises(ValueError):
            sf.mittag_leffler(0.5, complex(-30.0, 40.1))
        with pytest.raises(ValueError):
            sf.mittag_leffler(0.0, -1.0)
        with pytest.raises(ValueError):
            sf.mittag_leffler(1.2, -1.0)


class TestMittagLefflerDeriv:
    @pytest.mark.parametrize("alpha,n,x,want", ML_DERIV_ORACLE)
    def test_oracle_values(self, alpha, n, x, want):
        assert sf.mittag_leffler_deriv(alpha, n, x) == pytest.approx(want, rel=1e-8)

    def test_zeroth_is_the_function(self):
        for alpha, x in [(0.3, -2.0), (0.75, -7.5)]:
            assert sf.mittag_leffler_deriv(alpha, 0, x) == sf.mittag_leffler(alpha, x)

    def test_exponential_reduction(self):
        for n in (0, 1, 5, 50):
            assert sf.mittag_leffler_deriv(1.0, n, -3.0) == pytest.approx(
                math.exp(-3.0), rel=1e-14)

    def test_value_at_origin(self):
        # E_alpha^(n)(0) = n! / Gamma(alpha n + 1)
        assert sf.mittag_leffler_deriv(0.5, 4, 0.0) == pytest.approx(
            math.factorial(4) / math.gamma(3.0), rel=1e-12)

    def test_finite_difference_consistency(self):
        h = 1e-5
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = rng.uniform(0.3, 0.95)
            x = rng.uniform(-10.0, -0.2)
            fd = (sf.mittag_leffler(alpha, x + h) - sf.mittag_leffler(alpha, x - h)) / (2 * h)
            assert abs(fd - sf.mittag_leffler_deriv(alpha, 1, x)) < 1e-6

    def test_reexpansion_sums_to_one(self):
        # sum_n E^(n)(-s) s^n / n!  recovers E(0) = 1
        s = 2.0
        total = sum(
            sf.mittag_leffler_deriv(0.5, n, -s)
            * math.exp(n * math.log(s) - math.lgamma(n + 1.0))
            for n in range(201))
        assert abs(total - 1.0) < 1e-10

    def test_overflow_is_reported(self):
        with pytest.raises(OverflowError):
            sf.mittag_leffler_deriv(0.25, 200, 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.mittag_leffler_deriv(0.5, -1, -1.0)
        with pytest.raises(ValueError):
            sf.mittag_leffler_deriv(0.5, 201, -1.0)
        with pytest.raises(ValueError):
            sf.mittag_leffler_deriv(0.5, 2.5, -1.0)


class TestStableDensity:
    def test_half_order_closed_form(self):
        # f_{1/2}(tau) = tau^{-3/2} e^{-1/(4 tau)} / (2 sqrt(pi))
        for tau in (0.2, 1.0, 3.0):
            want = tau ** -1.5 * math.exp(-0.25 / tau) / (2.0 * math.sqrt(math.pi))
            assert sf.stable_density(0.5, tau) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("alpha,tau,want", STABLE_ORACLE)
    def test_oracle_values(self, alpha, tau, want):
        assert sf.stable_density(alpha, tau) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_normalization(self, alpha):
        # power-law tail handled by u = tau^(-alpha), which makes the
        # transformed integrand bounded near u = 0
        head, _ = integrate.quad(lambda t: sf.stable_density(alpha, t),
                                 0.0, 2.0, limit=300)

        def tail_integrand(u):
            tau = u ** (-1.0 / alpha)
            return sf.stable_density(alpha, tau) * u ** (-1.0 / alpha - 1.0) / alpha

        tail, _ = integrate.quad(tail_integrand, 0.0, 2.0 ** -alpha, limit=300)
        assert abs(head + tail - 1.0) < 1e-6

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_laplace_transform(self, alpha, t):
        val, _ = integrate.quad(lambda x: math.exp(-t * x) * sf.stable_density(alpha, x),
                                0.0, 80.0, limit=300)
        assert abs(val - math.exp(-t ** alpha)) < 1e-5

    @pytest.mark.parametrize("alpha,tau,want", [
        (0.5, 1e100, 1e-150 / (2.0 * math.sqrt(math.pi))),  # the closed form
        (0.9, 4406.236427773573, 1.1286290687157619e-08),  # 80-digit series
    ])
    def test_tail_values(self, alpha, tau, want):
        assert sf.stable_density(alpha, tau) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha,tau,rel", [(0.9, 1e100, 1e-12), (0.99, 1e5, 1e-4)])
    def test_power_tail(self, alpha, tau, rel):
        # f(tau) ~ Gamma(1+alpha) sin(pi alpha) / pi * tau^(-1-alpha)
        lead = math.gamma(1.0 + alpha) * math.sin(math.pi * alpha) / math.pi
        assert sf.stable_density(alpha, tau) == pytest.approx(lead * tau ** (-1.0 - alpha),
                                                             rel=rel, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.9, 0.99])
    @pytest.mark.parametrize("tau", [1e-300, 1e-5])
    def test_vanishes_at_small_tau(self, alpha, tau):
        assert sf.stable_density(alpha, tau) == 0.0

    def test_extreme_arguments_finite_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in (0.1, 0.5, 0.9, 0.99):
                for tau in (5e-324, 1e-300, 1e-30, 1e-5, 1e-2, 1e5, 1e100, 1e300):
                    val = sf.stable_density(alpha, tau)
                    assert math.isfinite(val) and val >= 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.stable_density(1.0, 1.0)
        with pytest.raises(ValueError):
            sf.stable_density(0.5, 0.0)
        with pytest.raises(ValueError):
            sf.stable_density(0.5, -2.0)


class TestMixingLaw:
    def test_value_at_origin(self):
        for alpha in (0.3, 0.5, 0.8):
            assert sf.mixing_pdf(alpha, 0.0) == pytest.approx(
                1.0 / math.gamma(1.0 - alpha), rel=1e-14)

    def test_vectorized_matches_scalar(self):
        # the array evaluator's integral branch against the change of
        # variables tau -> tau^(-1/alpha) through the quadrature oracle
        taus = np.linspace(0.05, 8.0, 40)
        for alpha, n_integral in ((0.25, 7), (0.5, 16), (0.9, 32)):
            vec = sf._mixing_pdf_many(alpha, taus)
            integral = taus >= sf._mixing_series(alpha)[1]
            assert integral.sum() == n_integral
            ref = np.array([quad_stable_density(alpha, x ** (-1.0 / alpha))
                            * x ** (-1.0 - 1.0 / alpha) / alpha for x in taus[integral]])
            np.testing.assert_allclose(vec[integral], ref, rtol=1e-11, atol=1e-250)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
    def test_moments(self, alpha):
        # E[tau^k] = k! / Gamma(alpha k + 1)
        taus, w = sf.mixing_quadrature(alpha)
        for k in range(6):
            got = float((w * taus ** k).sum())
            want = math.factorial(k) / math.gamma(alpha * k + 1.0)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.001, 0.002, 0.003, 0.01, 0.93, 0.973, 0.985, 0.994])
    def test_moment_gate_passes_at_range_ends(self, alpha):
        # 0.001-0.003, 0.973, 0.985 and 0.994 need the phi panels graded
        # toward phi = pi, where A(phi) -> inf
        taus, w = sf.mixing_quadrature(alpha)
        for k in range(3):
            want = math.factorial(k) / math.gamma(alpha * k + 1.0)
            assert float((w * taus ** k).sum()) == pytest.approx(want, rel=1e-8)
        for z in (0.5, 2.0, 10.0, 30.0):
            lt = float((w * np.exp(-z * taus)).sum())
            assert lt == pytest.approx(sf.mittag_leffler(alpha, -z), rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.95, 0.98, 0.984, 0.99, 0.995, 0.999])
    def test_near_one_accurate_or_rejected_quickly(self, alpha):
        # from alpha = 0.984 on the integral branch used to overflow c and
        # never return; below it the rule could silently lose mass. Up to
        # 0.99 the rule must pass its gate.
        start = time.perf_counter()
        try:
            taus, w = sf.mixing_quadrature(alpha)
        except sf.QuadratureError as exc:
            assert alpha >= 0.995 and "moments" in str(exc)
        else:
            for z in (0.5, 2.0, 10.0, 30.0):
                lt = float((w * np.exp(-z * taus)).sum())
                assert lt == pytest.approx(sf.mittag_leffler(alpha, -z), rel=1e-8)
        assert time.perf_counter() - start < 2.0

    def test_unresolved_peak_rejected(self):
        # at alpha = 0.999 the law is nearly a point mass at tau = 1
        with pytest.raises(sf.QuadratureError, match="moments"):
            sf.mixing_quadrature(0.999)

    def test_series_tail_is_checked(self):
        # sin(400 pi alpha) = 0 at alpha = 0.95, while the series at tau = 1.317
        # is still 1e-4 away from its sum (0.1292310934299727 by 60-digit
        # summation); such a tau goes to the integral branch
        assert 1.317 >= sf._mixing_series(0.95)[1]
        assert sf.mixing_pdf(0.95, 1.317) == pytest.approx(0.1292310934299727, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.001, 0.05, 0.3, 0.5, 0.8, 0.95, 0.99])
    def test_radius_is_the_per_tau_acceptance(self, alpha):
        # the series is accepted at tau when every term is below 30 and the
        # last one, without its sine, below 1e-16; each bound grows with tau,
        # so the rule is tau < radius
        radius = sf._mixing_series(alpha)[1]
        taus = np.geomspace(1e-6, 200.0, 4000)
        k = np.arange(1, 401)
        logs = sf._lgamma(k * alpha + 1.0) - sf._lgamma(k + 1.0)
        with np.errstate(over="ignore"):
            log_terms = logs[None, :] + (k - 1.0)[None, :] * np.log(taus)[:, None]
            terms = np.abs(np.sin(k * math.pi * alpha)) * np.exp(log_terms) / (math.pi * alpha)
            last = np.exp(log_terms[:, -1]) / (math.pi * alpha)
        accepted = (terms.max(axis=1) < 30.0) & (last < 1e-16)
        assert 0 < accepted.sum() < taus.size
        np.testing.assert_array_equal(accepted, taus < radius)

    def test_cold_rule_memory(self):
        # the series is one coefficient vector per order (a (tau x 400) term
        # matrix traced about 20 MB here) and the tilt integral one (tau x
        # phi-nodes) matrix (two of them traced about 8 MB): about 4 MB now
        sf._mixing_series.cache_clear()
        tracemalloc.start()
        try:
            sf.mixing_quadrature.__wrapped__(0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("z", [0.5, 2.0, 10.0, 30.0])
    def test_laplace_transform_is_mittag_leffler(self, alpha, z):
        # links the quadrature rule to an entirely separate evaluation path
        taus, w = sf.mixing_quadrature(alpha)
        lt = float((w * np.exp(-z * taus)).sum())
        assert lt == pytest.approx(sf.mittag_leffler(alpha, -z), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.mixing_pdf(1.0, 1.0)
        with pytest.raises(ValueError):
            sf.mixing_pdf(0.5, -0.1)
        with pytest.raises(ValueError):
            sf.mixing_quadrature(1.0)


class TestSampler:
    def test_deterministic_given_seed(self):
        a = sf.sample_mixing_tau(0.5, np.random.default_rng(42))
        b = sf.sample_mixing_tau(0.5, np.random.default_rng(42))
        assert a == b and isinstance(a, float) and a > 0

    def test_batch_shape(self):
        out = sf.sample_mixing_tau(0.7, np.random.default_rng(1), size=(3, 5))
        assert out.shape == (3, 5) and (out > 0).all()

    def test_mean_matches_moment(self):
        rng = np.random.default_rng(2024)
        tau = sf.sample_mixing_tau(0.5, rng, size=100_000)
        want = 1.0 / math.gamma(1.5)
        se = tau.std(ddof=1) / math.sqrt(tau.size)
        assert abs(tau.mean() - want) <= 3.0 * se

    def test_exponential_moment_matches_mittag_leffler(self):
        rng = np.random.default_rng(77)
        tau = sf.sample_mixing_tau(0.5, rng, size=100_000)
        vals = np.exp(-tau)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - sf.mittag_leffler(0.5, -1.0)) <= 3.0 * se

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.sample_mixing_tau(1.0, np.random.default_rng(0))


class TestLognormalPdf:
    def test_mode_at_one(self):
        for s in (0.1, 0.4, 1.0):
            peak = sf.lognormal_pdf(s, 1.0)
            assert peak > sf.lognormal_pdf(s, 1.0 + 1e-3)
            assert peak > sf.lognormal_pdf(s, 1.0 - 1e-3)

    def test_normalization(self):
        val, _ = integrate.quad(lambda x: sf.lognormal_pdf(0.4, x), 0.0, 60.0,
                                limit=300)
        assert abs(val - 1.0) < 1e-10

    def test_concentrates_as_width_shrinks(self):
        val, _ = integrate.quad(lambda x: sf.lognormal_pdf(1e-3, x), 0.99, 1.01)
        assert abs(val - 1.0) < 1e-10

    def test_vectorized(self):
        x = np.array([0.5, 1.0, 2.0])
        out = sf.lognormal_pdf(0.4, x)
        assert out.shape == (3,)
        assert out[1] == sf.lognormal_pdf(0.4, 1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.lognormal_pdf(0.0, 1.0)
        with pytest.raises(ValueError):
            sf.lognormal_pdf(0.4, 0.0)
        with pytest.raises(ValueError):
            sf.lognormal_pdf(0.4, -1.0)
