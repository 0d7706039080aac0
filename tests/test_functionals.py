"""Tests for characteristic functionals, samplers, the determinant
functional and the ground-state potential map."""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from pointgas import functionals as fn
from pointgas import specfun as sf

BOX1 = fn.Box((1.0,))

# f = pi on [0, 0.5): the field integral is exactly -1
F_PI_HALF = fn.TestFunction(
    ({"shape": "indicator", "center": (0.25,), "width": 0.5, "amplitude": math.pi},))
F_ZERO = fn.TestFunction(())
# moderate phase, same support: A = 0.5*(e^{1.2i} - 1)
F_PHASE = fn.TestFunction(
    ({"shape": "indicator", "center": (0.25,), "width": 0.5, "amplitude": 1.2},))
A_PHASE = 0.5 * (cmath.exp(1.2j) - 1.0)
HALF = fn.MixingMeasure.fractional(0.5)


def unit_measure(rho=1.0):
    return fn.IntensityMeasure(BOX1, rho)


class TestBox:
    def test_basic(self):
        b = fn.Box((2.0, 0.5))
        assert b.dim == 2
        assert b.volume == 1.0

    def test_scalar_side(self):
        assert fn.Box((3.0,)).volume == 3.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fn.Box((1.0, 0.0))
        with pytest.raises(ValueError):
            fn.Box((-1.0,))


class TestIntensityMeasure:
    def test_mass(self):
        assert unit_measure(2.0).mass == 2.0

    def test_mass_cap(self):
        with pytest.raises(ValueError):
            fn.IntensityMeasure(fn.Box((30.0,)), 2.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fn.IntensityMeasure(BOX1, -0.5)


class TestTestFunction:
    def test_indicator_half_open(self):
        pts = np.array([[0.0], [0.25], [0.4999999], [0.5], [0.7]])
        vals = F_PI_HALF(pts)
        assert vals[0] == math.pi
        assert vals[2] == math.pi
        assert vals[3] == 0.0  # right edge excluded
        assert vals[4] == 0.0

    def test_gaussian_value(self):
        f = fn.TestFunction(({"shape": "gaussian", "center": (0.5,), "width": 0.2,
                              "amplitude": 2.0},))
        got = f(np.array([[0.7]]))[0]
        assert got == pytest.approx(2.0 * math.exp(-0.04 / 0.08), rel=1e-14)

    def test_cosine_value(self):
        f = fn.TestFunction(({"shape": "cosine", "center": (0.0,), "width": 1.0,
                              "amplitude": 0.3},))
        got = f(np.array([[0.25]]))[0]
        assert got == pytest.approx(0.3 * math.cos(math.pi / 2.0), abs=1e-15)

    def test_sum_of_terms(self):
        f = fn.TestFunction((
            {"shape": "indicator", "center": (0.25,), "width": 0.5, "amplitude": 1.0},
            {"shape": "indicator", "center": (0.4,), "width": 0.4, "amplitude": 0.5},
        ))
        assert f(np.array([[0.3]]))[0] == 1.5
        assert f(np.array([[0.1]]))[0] == 1.0

    def test_empty_is_zero(self):
        assert np.all(F_ZERO(np.array([[0.3], [0.9]])) == 0.0)

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            fn.TestFunction(({"shape": "triangle", "center": (0.5,), "width": 0.1},))
        with pytest.raises(ValueError):
            fn.TestFunction(({"shape": "gaussian", "center": (0.5,), "width": 0.0},))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            F_PI_HALF(np.zeros((3, 2)))


class TestPointConfiguration:
    def test_pairing(self):
        cfg = fn.PointConfiguration(np.array([[0.1], [0.3], [0.8]]))
        assert cfg.pairing(F_PI_HALF) == pytest.approx(2.0 * math.pi)

    def test_empty(self):
        cfg = fn.PointConfiguration(np.empty((0, 1)))
        assert len(cfg) == 0
        assert cfg.pairing(F_PI_HALF) == 0.0

    def test_flat_input_reshaped(self):
        cfg = fn.PointConfiguration(np.array([0.1, 0.2]))
        assert cfg.points.shape == (2, 1)


class TestMixingMeasure:
    def test_constructors(self):
        assert fn.MixingMeasure.dirac(2.0).kind == "dirac"
        assert fn.MixingMeasure.exponential(1.0).kind == "exponential"
        assert fn.MixingMeasure.lognormal(0.4).kind == "lognormal"
        assert fn.MixingMeasure.fractional(0.5).kind == "fractional"

    def test_discrete_weights_must_normalize(self):
        with pytest.raises(ValueError):
            fn.MixingMeasure.discrete((1.0, 2.0), (0.5, 0.6))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            fn.MixingMeasure.dirac(0.0)
        with pytest.raises(ValueError):
            fn.MixingMeasure.fractional(1.0)
        with pytest.raises(ValueError):
            fn.MixingMeasure("cauchy", ())


@pytest.mark.parametrize("build", [
    lambda: fn.MixingMeasure.dirac(math.nan),
    lambda: fn.MixingMeasure.exponential(math.nan),
    lambda: fn.MixingMeasure.exponential(math.inf),
    lambda: fn.MixingMeasure.lognormal(math.nan),
    lambda: fn.MixingMeasure.lognormal(math.inf),
    lambda: fn.MixingMeasure.discrete((1.0, math.nan), (0.5, 0.5)),
    lambda: fn.MixingMeasure.discrete((1.0, math.inf), (0.5, 0.5)),
    lambda: fn.MixingMeasure.discrete((1.0, 2.0), (1.0, math.nan)),
    lambda: fn.IntensityMeasure(BOX1, math.nan),
    lambda: fn.IntensityMeasure(BOX1, math.inf),
    lambda: fn.Box((1.0, math.nan)),
    lambda: fn.Box((math.inf,)),
], ids=["dirac-nan", "exponential-nan", "exponential-inf", "lognormal-nan",
        "lognormal-inf", "discrete-atom-nan", "discrete-atom-inf",
        "discrete-weight-nan", "rho-nan", "rho-inf", "side-nan", "side-inf"])
def test_rejects_non_finite_parameters(build):
    # NaN passes every `<= 0` test, and a NaN weight the normalisation test
    with pytest.raises(ValueError, match="finite"):
        build()


class TestFieldIntegral:
    def test_indicator_exact(self):
        a = fn.field_integral(F_PI_HALF, BOX1)
        assert a.real == pytest.approx(-1.0, abs=1e-14)
        assert abs(a.imag) < 1e-15

    def test_overlapping_indicators_exact_vs_quadrature(self):
        terms = (
            {"shape": "indicator", "center": (0.3,), "width": 0.4, "amplitude": 0.7},
            {"shape": "indicator", "center": (0.5,), "width": 0.5, "amplitude": -0.4},
        )
        exact = fn.field_integral(fn.TestFunction(terms), BOX1)
        # a zero-amplitude gaussian forces the generic quadrature path
        forced = fn.field_integral(
            fn.TestFunction(terms + ({"shape": "gaussian", "center": (0.5,),
                                      "width": 0.1, "amplitude": 0.0},)), BOX1)
        assert abs(exact - forced) < 1e-9

    def test_indicator_2d(self):
        box = fn.Box((1.0, 2.0))
        f = fn.TestFunction(({"shape": "indicator", "center": (0.25, 1.0),
                              "width": 0.5, "amplitude": 0.9},))
        # support [0, 0.5) x [0.75, 1.25): area 0.25
        expected = 0.25 * (cmath.exp(0.9j) - 1.0)
        assert abs(fn.field_integral(f, box) - expected) < 1e-13

    def test_gaussian_vs_dense_simpson(self):
        f = fn.TestFunction(({"shape": "gaussian", "center": (0.4,), "width": 0.12,
                              "amplitude": 1.3},))
        got = fn.field_integral(f, BOX1)
        x = np.linspace(0.0, 1.0, 20001)
        vals = np.exp(1j * f(x[:, None])) - 1.0
        ref = integrate.simpson(vals, x=x)
        assert abs(got - ref) < 1e-9

    def test_zero_function(self):
        assert fn.field_integral(F_ZERO, BOX1) == 0.0j

    def test_gaussian_plus_cosine_2d_vs_gauss_legendre(self):
        box = fn.Box((1.0, 0.5))
        f = fn.TestFunction((
            {"shape": "gaussian", "center": (0.4, 0.2), "width": 0.15, "amplitude": 1.5},
            {"shape": "cosine", "center": (0.0, 0.0), "width": 0.7, "amplitude": 0.8}))
        # 400 x 400 tensor Gauss-Legendre rule on the box
        x, w = np.polynomial.legendre.leggauss(400)
        x1, x2 = np.meshgrid(0.5 * (x + 1.0), 0.25 * (x + 1.0), indexing="ij")
        vals = np.exp(1j * f(np.column_stack([x1.ravel(), x2.ravel()]))) - 1.0
        ref = complex((np.outer(w, w).ravel() * vals).sum() * 0.5 * 0.25)
        assert abs(fn.field_integral(f, box) - ref) < 1e-12

    def test_narrow_cosine_vs_dense_gauss_legendre(self):
        # about 100 periods on the unit interval (the integral is near
        # J_0(2) - 1); the reference is 2000 panels of 32 nodes
        f = fn.TestFunction(({"shape": "cosine", "center": (0.3,), "width": 0.01,
                              "amplitude": 2.0},))
        x, w = np.polynomial.legendre.leggauss(32)
        edges = np.linspace(0.0, 1.0, 2001)
        half = 0.5 * np.diff(edges)
        nodes = (0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * x).ravel()
        ref = complex(((half[:, None] * w).ravel()
                       * (np.exp(1j * f(nodes[:, None])) - 1.0)).sum())
        assert abs(fn.field_integral(f, BOX1) - ref) < 1e-12

    def test_gaussian_3d_vs_gauss_legendre(self):
        # the rule's second round here holds 128**3 = 2**21 nodes, the cap
        f = fn.TestFunction(({"shape": "gaussian", "center": (0.4, 0.5, 0.6),
                              "width": 0.2, "amplitude": 1.5},))
        x, w = np.polynomial.legendre.leggauss(96)
        x, w = 0.5 * (x + 1.0), 0.5 * w
        pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
        wts = (w[:, None, None] * w[:, None] * w).ravel()
        ref = complex((wts * (np.exp(1j * f(pts)) - 1.0)).sum())
        assert abs(fn.field_integral(f, fn.Box((1.0, 1.0, 1.0))) - ref) < 1e-12

    def test_indicator_3d(self):
        f = fn.TestFunction(({"shape": "indicator", "center": (0.3, 0.5, 0.5),
                              "width": 0.4, "amplitude": 0.9},))
        # support [0.1, 0.5) x [0.3, 0.7)^2: volume 0.064
        expected = 0.064 * (cmath.exp(0.9j) - 1.0)
        assert abs(fn.field_integral(f, fn.Box((1.0, 1.0, 1.0))) - expected) < 1e-15

    def test_3d_past_the_node_cap_raises(self):
        # 100 periods per axis are not resolved by 128 nodes per axis
        f = fn.TestFunction(({"shape": "cosine", "center": (0.3, 0.3, 0.3),
                              "width": 0.01, "amplitude": 2.0},))
        with pytest.raises(fn.QuadratureError, match=r"field integral failed to converge"):
            fn.field_integral(f, fn.Box((1.0, 1.0, 1.0)))


F_GAUSS = fn.TestFunction(
    ({"shape": "gaussian", "center": (0.4,), "width": 0.12, "amplitude": 1.3},))
F_GAUSS_2D = fn.TestFunction(
    ({"shape": "gaussian", "center": (0.4, 0.2), "width": 0.15, "amplitude": 1.5},))


@pytest.mark.parametrize("evaluate, message", [
    (lambda: fn.field_integral(F_GAUSS, BOX1),
     r"field integral failed to converge \(error estimate \d\.\d\de-0[1-6]\)"),
    (lambda: fn.field_integral(F_GAUSS_2D, fn.Box((1.0, 0.5))),
     r"field integral failed to converge \(error estimate \d\.\d\de-0[1-6]\)"),
    (lambda: fn.char_compound(F_PHASE, unit_measure(), fn.MixingMeasure.lognormal(0.8)),
     r"lognormal mixture quadrature failed to converge \(error estimate \d\.\d\de-0[1-7]\)"),
], ids=["field-1d", "field-2d", "lognormal"])
def test_quadrature_gate_reports_the_estimate(monkeypatch, evaluate, message):
    # every integral on the panel rounds is gated on its error estimate: at one
    # node per panel, capped at 64 nodes, the last two rounds differ by far
    # more than the gate
    monkeypatch.setattr(fn, "_FIELD_ORDER", 1)
    monkeypatch.setattr(fn, "_FIELD_NODES", 64)
    with pytest.raises(fn.QuadratureError, match=message):
        evaluate()


class TestCharPoisson:
    def test_zero_function(self):
        assert fn.char_poisson(F_ZERO, unit_measure(2.0)) == 1.0 + 0.0j

    def test_indicator_closed_form(self):
        got = fn.char_poisson(F_PI_HALF, unit_measure(2.0))
        assert abs(got - math.exp(-2.0)) < 1e-12

    def test_modulus_bounded(self):
        got = fn.char_poisson(F_PHASE, unit_measure(2.0))
        assert abs(got) <= 1.0 + 1e-12


class TestCharFiniteNV:
    def test_zero_function(self):
        assert fn.char_finite_NV(F_ZERO, 5, BOX1) == 1.0 + 0.0j

    def test_exact_cancellation(self):
        # inner integral 0.5 e^{i pi} + 0.5 = 0
        for n in (1, 3, 17):
            assert abs(fn.char_finite_NV(F_PI_HALF, n, BOX1)) < 1e-15

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            fn.char_finite_NV(F_PI_HALF, 0, BOX1)

    def test_error_halves_with_n(self):
        f = fn.TestFunction(({"shape": "indicator", "center": (0.25,), "width": 0.5,
                              "amplitude": 0.3},))
        ref = fn.char_poisson(f, fn.IntensityMeasure(BOX1, 2.0))
        errs = []
        for n in (2 ** 10, 2 ** 11, 2 ** 12):
            box = fn.Box((n / 2.0,))
            errs.append(abs(fn.char_finite_NV(f, n, box) - ref))
        for big, small in zip(errs, errs[1:]):
            assert 0.4 <= small / big <= 0.6


class TestCharCompound:
    def test_dirac_matches_poisson(self):
        for f in (F_PI_HALF, F_PHASE):
            got = fn.char_compound(f, unit_measure(), fn.MixingMeasure.dirac(2.0))
            ref = fn.char_poisson(f, unit_measure(2.0))
            assert abs(got - ref) < 1e-12

    def test_exponential_closed_form(self):
        got = fn.char_compound(F_PI_HALF, unit_measure(), fn.MixingMeasure.exponential(1.0))
        assert abs(got - 0.5) < 1e-14

    def test_exponential_vs_quadrature_mixture(self):
        # independent route: integrate the exponential density directly
        rho_bar = 0.8
        got = fn.char_compound(F_PHASE, unit_measure(), fn.MixingMeasure.exponential(rho_bar))

        def g(rho, part):
            val = cmath.exp(-rho / rho_bar + rho * A_PHASE) / rho_bar
            return val.real if part == 0 else val.imag

        ref = complex(integrate.quad(g, 0.0, 80.0 * rho_bar, args=(0,), limit=300)[0],
                      integrate.quad(g, 0.0, 80.0 * rho_bar, args=(1,), limit=300)[0])
        assert abs(got - ref) < 1e-8

    def test_fractional_matches_mittag_leffler(self):
        got = fn.char_compound(F_PI_HALF, unit_measure(), fn.MixingMeasure.fractional(0.5))
        ref = math.e * math.erfc(1.0)  # E_{1/2}(-1)
        assert abs(got - ref) < 1e-6

    def test_discrete_hand_sum(self):
        xi = fn.MixingMeasure.discrete((0.5, 2.0), (0.3, 0.7))
        got = fn.char_compound(F_PHASE, unit_measure(), xi)
        ref = 0.3 * cmath.exp(0.5 * A_PHASE) + 0.7 * cmath.exp(2.0 * A_PHASE)
        assert abs(got - ref) < 1e-14

    @staticmethod
    def lognormal_trapezoid(sigma, a):
        # E exp(rho a), rho = exp(sigma^2 + sqrt(2) sigma u), against
        # exp(-u^2) / sqrt(pi): a 400,001-node trapezoid in u on [-12, 12]
        u = np.linspace(-12.0, 12.0, 400_001)
        rho = np.exp(sigma * sigma + math.sqrt(2.0) * sigma * u)
        g = np.exp(-u * u + rho * a)
        return complex((g.sum() - 0.5 * (g[0] + g[-1])) * (u[1] - u[0]) / math.sqrt(math.pi))

    def test_lognormal_vs_direct_quadrature(self):
        sigma = 0.8
        got = fn.char_compound(F_PHASE, unit_measure(), fn.MixingMeasure.lognormal(sigma))
        assert abs(got - self.lognormal_trapezoid(sigma, A_PHASE)) < 1e-9

    def test_lognormal_wide_mixing_without_warnings(self):
        # A = 20 (e^{0.01i} - 1): a weak phase over a long box
        f = fn.TestFunction(
            ({"shape": "indicator", "center": (10.0,), "width": 20.0, "amplitude": 0.01},))
        mu = fn.IntensityMeasure(fn.Box((20.0,)), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fn.char_compound(f, mu, fn.MixingMeasure.lognormal(2.0))
        ref = self.lognormal_trapezoid(2.0, 20.0 * (cmath.exp(0.01j) - 1.0))
        assert abs(got - ref) < 1e-9

    def test_lognormal_width_past_rho_overflow(self):
        # at sigma = 25 almost every rho exceeds e^709: the mixture of
        # exp(rho A) is ~0 for A != 0 and exactly 1 for A = 0
        xi = fn.MixingMeasure.lognormal(25.0)
        assert abs(fn.char_compound(F_PHASE, unit_measure(), xi)) < 1e-12
        assert abs(fn.char_compound(F_ZERO, unit_measure(), xi) - 1.0) < 1e-12

    def test_any_intensity_dirac_one_is_poisson(self):
        # the intensity may sit in mu or in the mixing law
        for f in (F_PI_HALF, F_PHASE):
            got = fn.char_compound(f, unit_measure(2.0), fn.MixingMeasure.dirac(1.0))
            assert got == fn.char_poisson(f, unit_measure(2.0))
            moved = fn.char_compound(f, unit_measure(), fn.MixingMeasure.dirac(2.0))
            assert abs(moved - got) <= 1e-15

    @pytest.mark.parametrize("rho", [1.0, 2.0])
    @pytest.mark.parametrize("xi", [
        fn.MixingMeasure.dirac(1.5),
        fn.MixingMeasure.exponential(0.8),
        fn.MixingMeasure.lognormal(0.8),
        fn.MixingMeasure.discrete((0.5, 2.0), (0.3, 0.7)),
        fn.MixingMeasure.fractional(0.5),
    ], ids=lambda xi: xi.kind)
    def test_is_laplace_at_z(self, xi, rho):
        mu = unit_measure(rho)
        for f in (F_PI_HALF, F_PHASE, F_ZERO):
            got = fn.char_compound(f, mu, xi)
            assert got == xi.laplace(rho * fn.field_integral(f, BOX1))

    @pytest.mark.parametrize("alpha", [0.995, 0.999])
    def test_fractional_near_one_is_mittag_leffler(self, alpha):
        # the mixing-law rule, which the fractional law used to sum, fails
        # its moment gate at these orders
        xi = fn.MixingMeasure.fractional(alpha)
        z = 2.0 * fn.field_integral(F_PHASE, BOX1)
        assert fn.char_compound(F_PHASE, unit_measure(2.0), xi) == sf.mittag_leffler(alpha, z)
        # Z = -2 + 1.2e-16i is numerically real
        z = 2.0 * fn.field_integral(F_PI_HALF, BOX1)
        got = fn.char_compound(F_PI_HALF, unit_measure(2.0), xi)
        assert got == complex(sf.mittag_leffler(alpha, z.real), 0.0)

    def test_laplace_rejects_positive_real_part(self):
        for xi in (fn.MixingMeasure.exponential(1.0), fn.MixingMeasure.fractional(0.5)):
            with pytest.raises(ValueError):
                xi.laplace(0.5 + 0.1j)


class TestCharFractional:
    """char_compound over the fractional law: E_alpha(Z)."""

    def test_alpha_one_is_poisson(self):
        for f in (F_PI_HALF, F_PHASE):
            got = fn.char_compound(f, unit_measure(2.0), fn.MixingMeasure.dirac(1.0))
            ref = fn.char_poisson(f, unit_measure(2.0))
            assert abs(got - ref) < 1e-12

    def test_zero_function(self):
        assert fn.char_compound(F_ZERO, unit_measure(2.0), HALF) == 1.0 + 0.0j

    def test_real_argument_matches_evaluator(self):
        got = fn.char_compound(F_PI_HALF, unit_measure(2.0), HALF)
        ref = sf.mittag_leffler(0.5, -2.0)
        assert got.imag == 0.0
        assert abs(got.real - ref) < 1e-10
        assert 0.0 < got.real < 1.0

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_series_matches_mixture(self, alpha):
        # alpha = 0.75, 0.9 exceed |arg Z|/pi = 0.69: the contour's pole rule
        got = fn.char_compound(F_PHASE, unit_measure(2.0), fn.MixingMeasure.fractional(alpha))
        taus, w = sf.mixing_quadrature(alpha)
        ref = complex((w * np.exp(taus * 2.0 * A_PHASE)).sum())
        assert abs(got - ref) < 1e-9

    def test_wide_argument_uses_high_precision(self):
        got = fn.char_compound(F_PHASE, unit_measure(8.0), HALF)
        taus, w = sf.mixing_quadrature(0.5)
        ref = complex((w * np.exp(taus * 8.0 * A_PHASE)).sum())
        assert abs(got - ref) < 1e-9

    def test_domain_cap(self):
        # f = pi on the whole box: Z = 26 * (e^{i pi} - 1) = -52
        f = fn.TestFunction(
            ({"shape": "indicator", "center": (0.5,), "width": 1.0, "amplitude": math.pi},))
        with pytest.raises(ValueError, match=r"\|Z\| = 52 outside the domain"):
            fn.char_compound(f, unit_measure(26.0), HALF)

    def test_infeasible_series_rejected(self):
        # once out of reach of series summation (|Z| = 13, alpha = 0.25)
        got = fn.char_compound(F_PHASE, unit_measure(24.0), fn.MixingMeasure.fractional(0.25))
        taus, w = sf.mixing_quadrature(0.25)
        ref = complex((w * np.exp(taus * 24.0 * A_PHASE)).sum())
        assert abs(got - ref) < 1e-9

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            fn.MixingMeasure.fractional(1.5)


class TestFunctionalBounds:
    def test_randomized_modulus_and_normalization(self):
        # |L(f)| <= 1 and L(0) = 1 across all four functionals, 100 cases
        rng = np.random.default_rng(2024)
        shapes = ("indicator", "gaussian", "cosine")
        for case in range(100):
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                terms.append({
                    "shape": shapes[int(rng.integers(0, 3))],
                    "center": (float(rng.uniform(0.2, 0.8)),),
                    "width": float(rng.uniform(0.08, 0.5)),
                    "amplitude": float(rng.uniform(-2.0, 2.0)),
                })
            f = fn.TestFunction(tuple(terms))
            vals = [
                fn.char_poisson(f, unit_measure(1.5)),
                fn.char_finite_NV(f, 7, BOX1),
                fn.char_compound(f, unit_measure(), fn.MixingMeasure.exponential(0.7)),
                fn.char_compound(f, unit_measure(1.5), fn.MixingMeasure.fractional(0.6)),
            ]
            for v in vals:
                assert abs(v) <= 1.0 + 1e-10, f"case {case}: |L| = {abs(v)}"
        assert fn.char_poisson(F_ZERO, unit_measure(1.5)) == 1.0 + 0.0j
        assert fn.char_finite_NV(F_ZERO, 7, BOX1) == 1.0 + 0.0j
        assert fn.char_compound(F_ZERO, unit_measure(),
                                fn.MixingMeasure.exponential(0.7)) == 1.0 + 0.0j
        assert fn.char_compound(F_ZERO, unit_measure(1.5),
                                fn.MixingMeasure.fractional(0.6)) == 1.0 + 0.0j


class TestWeightsFractional:
    def test_poisson_limit(self):
        p = fn.weights_fractional(1.0, 2.0, 20)
        n = np.arange(21)
        ref = np.exp(-2.0) * 2.0 ** n / np.array([math.factorial(k) for k in n])
        np.testing.assert_allclose(p, ref, rtol=1e-12)

    def test_p0_is_mittag_leffler(self):
        p = fn.weights_fractional(0.5, 1.0, 5)
        assert abs(p[0] - math.e * math.erfc(1.0)) < 1e-10

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("m", [0.5, 2.0, 10.0])
    def test_sums_to_one(self, alpha, m):
        p = fn.weights_fractional(alpha, m, 200)
        assert np.all(p >= 0.0)
        assert np.all(np.cumsum(p) <= 1.0 + 1e-12)
        assert abs(p.sum() - 1.0) < 1e-10

    def test_zero_mass(self):
        p = fn.weights_fractional(0.5, 0.0, 4)
        assert p[0] == 1.0
        assert np.all(p[1:] == 0.0)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            fn.weights_fractional(0.5, 51.0, 10)
        with pytest.raises(ValueError):
            fn.weights_fractional(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            fn.weights_fractional(0.5, 1.0, -1)


class TestSamplers:
    def test_poisson_deterministic(self):
        a = fn.sample_poisson_config(unit_measure(3.0), np.random.default_rng(5))
        b = fn.sample_poisson_config(unit_measure(3.0), np.random.default_rng(5))
        np.testing.assert_array_equal(a.points, b.points)

    def test_zero_mass_empty(self):
        cfg = fn.sample_poisson_config(fn.IntensityMeasure(BOX1, 0.0),
                                       np.random.default_rng(0))
        assert len(cfg) == 0

    def test_points_inside_box(self):
        box = fn.Box((2.0, 0.5))
        mu = fn.IntensityMeasure(box, 5.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            pts = fn.sample_poisson_config(mu, rng).points
            if len(pts):
                assert np.all(pts >= 0.0)
                assert np.all(pts < np.array(box.sides))

    def test_poisson_mean_count(self):
        rng = np.random.default_rng(10)
        mu = fn.IntensityMeasure(BOX1, 5.0)
        counts = np.array([len(fn.sample_poisson_config(mu, rng)) for _ in range(20000)])
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - 5.0) <= 3.0 * se

    def test_fractional_mean_count(self):
        # E[count] = m * E[tau] = m / Gamma(1 + alpha)
        rng = np.random.default_rng(11)
        mu = fn.IntensityMeasure(BOX1, 3.0)
        counts = np.array([len(fn.sample_fractional_config(mu, 0.5, rng))
                           for _ in range(20000)])
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - 3.0 / math.gamma(1.5)) <= 3.0 * se

    def test_fractional_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            fn.sample_fractional_config(unit_measure(), 1.0, np.random.default_rng(0))


def poisson_batches(mu):
    return lambda r, n: fn.sample_poisson_config(mu, r, size=n)


# one term of each shape on a 2-d box of mass 1: about a third of the
# Poisson samples hold no point
BOX2 = fn.Box((1.0, 0.5))
F_MIXED = fn.TestFunction((
    {"shape": "indicator", "center": (0.3, 0.2), "width": 0.4, "amplitude": 1.1},
    {"shape": "gaussian", "center": (0.6, 0.25), "width": 0.2, "amplitude": -0.7},
    {"shape": "cosine", "center": (0.1, 0.0), "width": 0.35, "amplitude": 0.45},
))


class TestMcChar:
    def test_zero_function_exact(self):
        est, se = fn.mc_char(F_ZERO, poisson_batches(unit_measure(2.0)),
                             500, np.random.default_rng(1))
        assert est == 1.0 + 0.0j
        assert se == 0.0

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            fn.mc_char(F_ZERO, poisson_batches(unit_measure()),
                       99, np.random.default_rng(1))

    def test_deterministic(self):
        sampler = poisson_batches(unit_measure(2.0))
        a = fn.mc_char(F_PHASE, sampler, 3000, np.random.default_rng(7))
        b = fn.mc_char(F_PHASE, sampler, 3000, np.random.default_rng(7))
        assert a == b

    def test_partial_last_chunk_matches_sample_loop(self):
        # 2500 samples: two full chunks and a partial one; the reference
        # pairs every sample of the same batches one configuration at a time
        mu = fn.IntensityMeasure(BOX2, 2.0)
        sampler = lambda r, n: fn.sample_fractional_config(mu, 0.5, r, size=n)
        a = fn.mc_char(F_MIXED, sampler, 2500, np.random.default_rng(8))
        assert fn.mc_char(F_MIXED, sampler, 2500, np.random.default_rng(8)) == a
        vals = []
        for stream, take in zip(np.random.default_rng(8).spawn(3), (1000, 1000, 500)):
            counts, points = sampler(stream, take)
            for pts in np.split(points, np.cumsum(counts)[:-1]):
                theta = fn.PointConfiguration(pts).pairing(F_MIXED)
                vals.append(complex(math.cos(theta), math.sin(theta)))
        assert abs(a[0] - sum(vals) / 2500) <= 1e-13

    def test_streamed_spread_matches_two_pass(self):
        # 2345 samples, a partial last chunk: the merged chunk sums and
        # centred sums of squares agree with two passes over every value
        mu = fn.IntensityMeasure(BOX2, 2.0)
        sampler = lambda r, n: fn.sample_fractional_config(mu, 0.5, r, size=n)
        est, se = fn.mc_char(F_MIXED, sampler, 2345, np.random.default_rng(9))
        thetas = [fn._batch_pairings(F_MIXED, *sampler(stream, take))
                  for stream, take in zip(np.random.default_rng(9).spawn(3), (1000, 1000, 345))]
        vals = np.cos(np.concatenate(thetas)) + 1j * np.sin(np.concatenate(thetas))
        ref = vals.sum() / vals.size
        ref_se = math.sqrt(float((np.abs(vals - ref) ** 2).sum()) / (vals.size * (vals.size - 1.0)))
        assert se > 0.0
        assert abs(est - ref) <= 1e-12 * abs(ref)
        assert abs(se - ref_se) <= 1e-12 * ref_se

    def test_matches_closed_form(self):
        mu = unit_measure(2.0)
        est, se = fn.mc_char(F_PHASE, poisson_batches(mu),
                             20000, np.random.default_rng(42))
        assert abs(est - fn.char_poisson(F_PHASE, mu)) <= 3.0 * se

    def test_fractional_matches_series(self):
        mu = unit_measure(2.0)
        est, se = fn.mc_char(F_PHASE,
                             lambda r, n: fn.sample_fractional_config(mu, 0.5, r, size=n),
                             20000, np.random.default_rng(43))
        assert abs(est - fn.char_compound(F_PHASE, mu, HALF)) <= 3.0 * se


class TestBatchPairings:
    @pytest.mark.parametrize("draw", [
        lambda mu, rng: fn.sample_poisson_config(mu, rng, size=400),
        lambda mu, rng: fn.sample_fractional_config(mu, 0.5, rng, size=400),
    ], ids=["poisson", "fractional"])
    def test_batch_matches_per_sample_pairing(self, draw):
        mu = fn.IntensityMeasure(BOX2, 2.0)
        counts, points = draw(mu, np.random.default_rng(12))
        assert counts.shape == (400,) and points.shape == (counts.sum(), 2)
        assert (counts == 0).any() and (counts >= 3).any()
        theta = fn._batch_pairings(F_MIXED, counts, points)
        per_sample = np.split(points, np.cumsum(counts)[:-1])
        for n, pts, val in zip(counts, per_sample, theta):
            ref = fn.PointConfiguration(pts).pairing(F_MIXED)
            if n == 0:
                assert val == 0.0 and ref == 0.0
            assert abs(val - ref) <= 1e-13

    def test_single_draw_is_a_batch_of_one(self):
        # without size the samplers return the one configuration of a
        # length-1 batch drawn from the same stream
        mu = fn.IntensityMeasure(BOX2, 8.0)
        for draw in (lambda rng, **kw: fn.sample_poisson_config(mu, rng, **kw),
                     lambda rng, **kw: fn.sample_fractional_config(mu, 0.5, rng, **kw)):
            single = draw(np.random.default_rng(3))
            counts, points = draw(np.random.default_rng(3), size=1)
            assert isinstance(single, fn.PointConfiguration)
            assert len(single) == counts[0]
            np.testing.assert_array_equal(single.points, points)


def dense_girard(amp, lo, hi, params, ordering):
    # the determinant over all 2 n_max + 1 modes, for either operator order,
    # with the closed-form Fourier coefficients of the indicator amp on
    # [lo, hi): A_nm = (e^{i amp} - 1)/L int_lo^hi e^{-i (k_n - k_m) x} dx
    length = params.circle_length
    idx = np.arange(-params.n_max, params.n_max + 1)
    k = 2.0 * math.pi * idx / length
    dk = 2.0 * math.pi * np.subtract.outer(idx, idx) / length
    safe = np.where(dk == 0.0, 1.0, dk)
    span = np.where(dk == 0.0, hi - lo,
                    (np.exp(-1j * safe * hi) - np.exp(-1j * safe * lo)) / (-1j * safe))
    a_mat = (cmath.exp(1j * amp) - 1.0) / length * span
    with np.errstate(over="ignore"):
        occ = 1.0 / np.expm1(params.beta * (k * k - params.mu_chem))
    if ordering == "occupation_right":
        b_mat = np.eye(idx.size) - a_mat * occ[None, :]
    else:
        b_mat = np.eye(idx.size) - occ[:, None] * a_mat
    return 1.0 / np.linalg.det(b_mat)


GIRARD_BETAS = (0.02, 0.05, 0.2, 1.0, 5.0)


class TestGirardFunctional:
    @pytest.mark.parametrize("n_max", [32, 128, 512])
    @pytest.mark.parametrize("ordering", ["occupation_right", "occupation_left"])
    def test_minor_matches_dense_determinant(self, n_max, ordering):
        # F_PI_HALF is pi on [0, 0.5); the Nystrom rule stops once two
        # rounds agree to 1e-12 relative
        for beta in GIRARD_BETAS:
            p = fn.GirardParams(1.0, n_max, beta, 1.0)
            ref = dense_girard(math.pi, 0.0, 0.5, p, ordering)
            assert abs(fn.girard_functional(F_PI_HALF, p) - ref) <= 1e-12 * abs(ref)

    def test_many_occupied_modes_match_dense_determinant(self):
        # beta = 1e-4 occupies 847 of the 2001 modes
        p = fn.GirardParams(1.0, 1000, 1e-4, 1.0)
        assert p.occupied_modes()[0].size == 847
        ref = dense_girard(math.pi, 0.0, 0.5, p, "occupation_right")
        assert abs(fn.girard_functional(F_PI_HALF, p) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("rho_bar", [1e4, 1e6])
    def test_large_zero_mode_occupation_matches_dense_determinant(self, rho_bar):
        # the zero mode holds rho_bar L particles; split off by the
        # determinant lemma it cannot swamp the rest of the kernel
        for beta in (0.02, 5.0):
            p = fn.GirardParams(1.0, 32, beta, rho_bar)
            ref = dense_girard(math.pi, 0.0, 0.5, p, "occupation_right")
            assert abs(fn.girard_functional(F_PI_HALF, p) - ref) <= 1e-12 * abs(ref)

    def test_lu_runs_over_occupied_modes_only(self, monkeypatch):
        # unoccupied modes add nothing to the LU: the Nystrom matrix lives on
        # the nodes inside the support of e^{if} - 1, so n_max = 512 factors
        # the same sizes as n_max = 32 (the zero mode's border adds one row)
        nodes = []
        slogdet = np.linalg.slogdet

        def spy(b_mat):
            nodes.append(b_mat.shape[0] - 1)
            return slogdet(b_mat)

        monkeypatch.setattr(np.linalg, "slogdet", spy)
        per_n_max = []
        for n_max in (32, 512):
            nodes.clear()
            for beta in GIRARD_BETAS:
                fn.girard_functional(F_PI_HALF, fn.GirardParams(1.0, n_max, beta, 1.0))
            per_n_max.append(list(nodes))
        assert per_n_max[0] == per_n_max[1]
        assert per_n_max[0] == [16, 32] * len(GIRARD_BETAS)

    @pytest.mark.parametrize("sign, logdet, exc, match", [
        (complex("nan+nanj"), math.nan, fn.SingularFunctionalError, "non-finite pivots"),
        (0j, -math.inf, fn.SingularFunctionalError, r"functional pole: det\(I - A n\) = 0"),
        (1 + 0j, 800.0, OverflowError, r"exceeds the double range \(log\|det\| = 800\.0\)"),
    ])
    def test_determinant_checks(self, monkeypatch, sign, logdet, exc, match):
        # each check reads the slogdet of the round it stops at
        monkeypatch.setattr(np.linalg, "slogdet", lambda b_mat: (sign, logdet))
        with pytest.raises(exc, match=match):
            fn.girard_functional(F_PI_HALF, fn.GirardParams(1.0, 32, 5.0, 1.0))

    def test_node_cap_raises(self, monkeypatch):
        # beta = 1e-4 agrees once 256 nodes fall on [0, 0.5); a 256-node cap
        # on [0, 1) stops the rounds at 128 there, one round short
        monkeypatch.setattr(fn, "_GIRARD_NODES", 256)
        with pytest.raises(fn.QuadratureError,
                           match="girard determinant failed to converge within 256 nodes"):
            fn.girard_functional(F_PI_HALF, fn.GirardParams(1.0, 1000, 1e-4, 1.0))

    def test_occupied_modes_hold_the_zero_mode(self):
        modes, occ = fn.GirardParams(1.0, 32, 5.0, 1.0).occupied_modes()
        np.testing.assert_array_equal(modes, [-1, 0, 1])
        assert occ[1] == pytest.approx(1.0, rel=1e-12)
        assert np.all(occ > 0.0)

    def test_zero_function(self):
        p = fn.GirardParams(1.0, 32, 10.0, 1.0)
        assert fn.girard_functional(F_ZERO, p) == 1.0 + 0.0j

    def test_zero_temperature_limit(self):
        # at beta = 200 only the zero mode is occupied: (1 - rho_bar*A)^{-1} = 0.5
        p = fn.GirardParams(1.0, 32, 200.0, 1.0)
        got = fn.girard_functional(F_PI_HALF, p)
        assert abs(got - 0.5) < 1e-3

    def test_truncation_converged(self):
        v32 = fn.girard_functional(F_PI_HALF, fn.GirardParams(1.0, 32, 10.0, 1.0))
        v64 = fn.girard_functional(F_PI_HALF, fn.GirardParams(1.0, 64, 10.0, 1.0))
        assert abs(v64 - v32) < 1e-6

    def test_truncation_converged_wide_circle(self):
        f = fn.TestFunction(({"shape": "gaussian", "center": (10.0,), "width": 1.5,
                              "amplitude": 0.9},))
        v32 = fn.girard_functional(f, fn.GirardParams(20.0, 32, 2.0, 0.5))
        v64 = fn.girard_functional(f, fn.GirardParams(20.0, 64, 2.0, 0.5))
        assert abs(v64 - v32) < 1e-8
        assert abs(v32) <= 1.0 + 1e-10

    def test_zero_mode_occupation_matched(self):
        # the chemical potential pins the k = 0 occupation at rho_bar * L
        p = fn.GirardParams(4.0, 8, 3.0, 1.5)
        occ0 = 1.0 / math.expm1(p.beta * (0.0 - p.mu_chem))
        assert occ0 == pytest.approx(6.0, rel=1e-12)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            fn.GirardParams(0.0, 32, 10.0, 1.0)
        with pytest.raises(ValueError):
            fn.GirardParams(1.0, 0, 10.0, 1.0)


def residual_fields():
    """{kind: (field, grid)} on the grids the residual tests use."""
    grid = np.linspace(-0.3, 0.3, 101)
    x1, x2 = np.meshgrid(grid, grid, indexing="ij")
    return {"harmonic": (fn.GroundStateField(2, "harmonic", omega=1.0), grid),
            "calogero": (fn.GroundStateField(2, "calogero", omega=0.5, lam=-1.0),
                         np.linspace(-1.0, 1.0, 501)),
            "custom": (fn.GroundStateField(2, "custom", w_values=(x1 - x2) ** 2), grid)}


def norm_residual(gs, grid, exclusion_cells=3):
    """residual_check of a 2-particle field on one shared axis, with its two
    norms taken by np.linalg.norm and its stencil in the same order."""
    h = float(grid[1] - grid[0])
    mesh = np.meshgrid(grid, grid, indexing="ij")
    v = fn.ground_state_potential(gs, grid)
    w, e = (gs.w_values, 2) if gs.w_kind == "custom" else (fn._w_analytic(gs, mesh), 1)
    n = grid.size
    core = (slice(e, n - e),) * 2
    with np.errstate(over="ignore", invalid="ignore"):
        om = np.exp(-w)
        lap = 0.0
        for up, dn in (((slice(e + 1, n - e + 1), core[1]), (slice(e - 1, n - e - 1), core[1])),
                       ((core[0], slice(e + 1, n - e + 1)), (core[0], slice(e - 1, n - e - 1)))):
            lap = lap + (om[up] - 2.0 * om[core] + om[dn]) / (h * h)
        keep = np.ones(lap.shape, dtype=bool)
        if gs.w_kind == "calogero":
            keep = np.abs(mesh[0][core] - mesh[1][core]) > exclusion_cells * h
        residual = (-lap + v[core] * om[core])[keep]
    return float(np.linalg.norm(residual) / np.linalg.norm(om[core][keep]))


class TestGroundStatePotential:
    def test_harmonic_two_particle_formula(self):
        # V(x1, x2) = 8 w^2 (x1 - x2)^2 - 4 w
        gs = fn.GroundStateField(2, "harmonic", omega=1.3)
        grid = np.linspace(-0.4, 0.4, 21)
        v = fn.ground_state_potential(gs, grid)
        x1, x2 = np.meshgrid(grid, grid, indexing="ij")
        ref = 8.0 * 1.3 ** 2 * (x1 - x2) ** 2 - 4.0 * 1.3
        np.testing.assert_allclose(v, ref, atol=1e-12)

    def test_constant_custom_gives_zero(self):
        gs = fn.GroundStateField(2, "custom", w_values=np.full((11, 11), 2.5))
        v = fn.ground_state_potential(gs, np.linspace(0.0, 1.0, 11))
        assert np.abs(v).max() < 1e-12

    def test_custom_matches_analytic_interior(self):
        grid = np.linspace(-0.3, 0.3, 101)
        x1, x2 = np.meshgrid(grid, grid, indexing="ij")
        gs = fn.GroundStateField(2, "custom", w_values=(x1 - x2) ** 2)
        v = fn.ground_state_potential(gs, grid)
        ref = 8.0 * (x1 - x2) ** 2 - 4.0
        assert np.abs((v - ref)[3:-3, 3:-3]).max() < 1e-9

    def test_harmonic_residual(self):
        gs = fn.GroundStateField(2, "harmonic", omega=1.0)
        r = fn.residual_check(gs, np.linspace(-0.3, 0.3, 101))
        assert r < 1e-4

    @pytest.mark.parametrize("lam", [-1.0, -2.0])
    def test_calogero_residual(self, lam):
        gs = fn.GroundStateField(2, "calogero", omega=0.5, lam=lam)
        r = fn.residual_check(gs, np.linspace(-1.0, 1.0, 501))
        assert r < 1e-4

    def test_custom_residual_matches_harmonic(self):
        # custom V is one-sided one cell in from the faces, so it is measured two in
        grid = np.linspace(-0.3, 0.3, 101)
        x1, x2 = np.meshgrid(grid, grid, indexing="ij")
        ref = fn.residual_check(fn.GroundStateField(2, "harmonic", omega=1.0), grid)
        gs = fn.GroundStateField(2, "custom", w_values=(x1 - x2) ** 2)
        r = fn.residual_check(gs, grid)
        assert r < 1e-4
        assert r == pytest.approx(ref, rel=0.01)

    @pytest.mark.parametrize("kind", ["harmonic", "calogero", "custom"])
    def test_residual_norms_call_no_blas(self, kind, monkeypatch):
        gs, grid = residual_fields()[kind]

        def no_blas(*args, **kwargs):
            raise AssertionError("residual_check called a BLAS routine")

        monkeypatch.setattr(np.linalg, "norm", no_blas)
        monkeypatch.setattr(np, "dot", no_blas)
        assert 0.0 < fn.residual_check(gs, grid) < 1e-4

    @pytest.mark.parametrize("kind", ["harmonic", "calogero", "custom"])
    def test_residual_matches_linalg_norm(self, kind):
        gs, grid = residual_fields()[kind]
        assert fn.residual_check(gs, grid) == pytest.approx(norm_residual(gs, grid),
                                                            rel=1e-14, abs=0.0)

    def test_negative_exclusion_rejected(self):
        gs = fn.GroundStateField(2, "calogero", omega=0.5, lam=-1.0)
        with pytest.raises(ValueError, match="exclusion_cells"):
            fn.residual_check(gs, np.linspace(-1.0, 1.0, 21), exclusion_cells=-1)

    def test_calogero_separated_axes(self):
        # axes that never meet the coincidence set
        gs = fn.GroundStateField(2, "calogero", omega=0.5, lam=-1.0)
        axes = (np.linspace(0.5, 1.1, 101), np.linspace(-1.1, -0.5, 101))
        assert fn.residual_check(gs, axes) < 1e-4

    def test_empty_interior_raises(self):
        # 5 points with a 3-cell exclusion margin leave no point to measure
        gs = fn.GroundStateField(2, "calogero", omega=1.0, lam=1.0)
        with pytest.raises(RuntimeError):
            fn.residual_check(gs, np.linspace(-1.0, 1.0, 5))

    def test_three_particle_laplacian_constant(self):
        # harmonic: -Lap W = -2 w N (N-1) shows up as V at coincident points
        gs = fn.GroundStateField(3, "harmonic", omega=0.7)
        grid = np.linspace(-0.2, 0.2, 9)
        v = fn.ground_state_potential(gs, grid)
        mid = len(grid) // 2
        assert v[mid, mid, mid] == pytest.approx(-2.0 * 0.7 * 3 * 2, rel=1e-12)

    def test_grid_too_coarse(self):
        gs = fn.GroundStateField(2, "harmonic")
        with pytest.raises(ValueError):
            fn.ground_state_potential(gs, np.linspace(0.0, 1.0, 4))

    def test_custom_shape_mismatch(self):
        gs = fn.GroundStateField(2, "custom", w_values=np.zeros((5, 6)))
        with pytest.raises(ValueError):
            fn.ground_state_potential(gs, np.linspace(0.0, 1.0, 5))

    def test_residual_requires_uniform_axes(self):
        gs = fn.GroundStateField(2, "harmonic")
        axes = (np.array([0.0, 0.1, 0.3, 0.6, 1.0]), np.linspace(0.0, 1.0, 5))
        with pytest.raises(ValueError):
            fn.residual_check(gs, axes)

    def test_custom_needs_values(self):
        with pytest.raises(ValueError):
            fn.GroundStateField(2, "custom")
