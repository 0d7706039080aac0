"""Scalar special functions used across the package.

Polylogarithms of order 1/2, 3/2, 5/2 on [0, 1]; a frozen table of Riemann
zeta values feeding the near-unit expansion; the Mittag-Leffler function
E_alpha on the left half-plane and its derivatives on the negative real
axis; the one-sided alpha-stable density, the heavy-tailed mixing law it
induces (density, quadrature rule, exact sampler); and the lognormal
intensity profile.

Everything here is a pure function of its arguments; the sampler is a pure
function of the generator state.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import gammaln, logsumexp, roots_legendre

__all__ = [
    "ZETA_TABLE",
    "zeta_const",
    "polylog",
    "polylog_from_log",
    "mittag_leffler",
    "mittag_leffler_deriv",
    "stable_density",
    "mixing_pdf",
    "mixing_quadrature",
    "QuadratureError",
    "sample_mixing_tau",
    "lognormal_pdf",
]

POLYLOG_ORDERS = (0.5, 1.5, 2.5)


class QuadratureError(RuntimeError):
    """A numerical evaluation failed to converge to tolerance."""


# Riemann zeta at the orders required by the near-unit polylog expansion
# (s - k for s in {1/2, 3/2, 5/2}, k = 0..29) plus zeta(0). Frozen from a
# 50-digit computation; accurate to full double precision.
ZETA_TABLE = {
    2.5: 1.341487257250917,
    1.5: 2.612375348685488,
    0.5: -1.4603545088095868,
    0.0: -0.5,
    -0.5: -0.20788622497735457,
    -1.5: -0.025485201889833036,
    -2.5: 0.008516928777850331,
    -3.5: 0.004441011335479432,
    -4.5: -0.0030916692472158338,
    -5.5: -0.0026714580198992244,
    -6.5: 0.0027467679395368687,
    -7.5: 0.00326903957260022,
    -8.5: -0.00441603287300489,
    -9.5: -0.006672172296466641,
    -10.5: 0.011146122473942813,
    -11.5: 0.02039697871594279,
    -12.5: -0.04057496748119458,
    -13.5: -0.08717525590621725,
    -14.5: 0.2011740493842269,
    -15.5: 0.4962712199120576,
    -16.5: -1.303229250705114,
    -17.5: -3.629759299774574,
    -18.5: 10.687327069021993,
    -19.5: 33.168325785694606,
    -20.5: -108.21747505877606,
    -21.5: -370.3018783754786,
    -22.5: 1326.0458117490157,
    -23.5: 4959.598315043044,
    -24.5: -19338.94198837462,
    -25.5: -78486.1485692177,
    -26.5: 331023.6487454503,
    -27.5: 1448811.3705827263,
    -28.5: -6571686.491569958,
    -29.5: -30854533.472396765,
}


def zeta_const(s):
    """Tabulated Riemann zeta value; raises for untabulated orders."""
    key = float(s)
    try:
        return ZETA_TABLE[key]
    except KeyError:
        raise ValueError(f"zeta_const: order {s!r} not tabulated") from None


@lru_cache(maxsize=8)
def _polylog_series_coeffs(s):
    # direct series sum_{k>=1} z^k / k^s, truncated where 0.5^k / k^s < 1e-19
    k = np.arange(1.0, 61.0)
    coeffs = np.zeros(61)
    coeffs[1:] = k ** (-s)
    return coeffs


@lru_cache(maxsize=8)
def _polylog_near_one_coeffs(s):
    # sum_{k>=0} zeta(s-k) (-w)^k / k!  with w = -ln z
    k = np.arange(30)
    zk = np.array([ZETA_TABLE[s - kk] for kk in range(30)])
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    return sign * zk * np.exp(-gammaln(k + 1.0))


def polylog(order, z):
    """Bounded polylogarithm sum_{k>=1} z^k / k^order for order in
    {1/2, 3/2, 5/2} and z in [0, 1]: polylog_from_log at log z, with z = 0
    mapping to 0. Accepts scalars or arrays. z = 1 is rejected for order 1/2.
    """
    s = float(order)
    if s not in POLYLOG_ORDERS:
        raise ValueError(f"polylog order must be one of {POLYLOG_ORDERS}, got {order!r}")
    za = np.asarray(z, dtype=float)
    if za.size:
        if za.min() < 0.0 or za.max() > 1.0:
            raise ValueError("polylog argument must lie in [0, 1]")
        if s == 0.5 and za.max() >= 1.0:
            raise ValueError("polylog(1/2, z) diverges at z = 1")
    with np.errstate(divide="ignore"):
        return polylog_from_log(s, np.log(za))


def polylog_from_log(order, log_z):
    """polylog(order, e^{log_z}) taking the log argument directly.

    Direct series in z = e^{log_z} for z <= 1/2; above it, the near-unit
    expansion Gamma(1-s) w^(s-1) + sum_k zeta(s-k)(-w)^k / k! in
    w = -log_z, which keeps full precision when e^{log_z} would round to
    within one ulp of 1. Same orders and domain (log_z <= 0) as polylog.
    """
    s = float(order)
    if s not in POLYLOG_ORDERS:
        raise ValueError(f"polylog order must be one of {POLYLOG_ORDERS}, got {order!r}")
    wa = -np.asarray(log_z, dtype=float)
    if wa.size:
        if wa.min() < 0.0:
            raise ValueError("polylog argument must lie in [0, 1]: log_z <= 0 required")
        if s == 0.5 and wa.min() <= 0.0:
            raise ValueError("polylog(1/2, z) diverges at z = 1")
    out = np.empty(wa.shape, dtype=float)
    hi = wa < math.log(2.0)
    if hi.any():
        w = wa[hi]
        head = math.gamma(1.0 - s) * w ** (s - 1.0)
        out[hi] = head + np.polynomial.polynomial.polyval(w, _polylog_near_one_coeffs(s))
    low = ~hi
    if low.any():
        out[low] = np.polynomial.polynomial.polyval(
            np.exp(-wa[low]), _polylog_series_coeffs(s))
    if out.ndim == 0:
        return float(out)
    return out


def _check_alpha(alpha):
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {alpha!r}")


def _check_ml_domain(z):
    if not (z.real <= 0.0 and abs(z) <= 50.0):
        raise ValueError(
            f"Mittag-Leffler argument must satisfy Re z <= 0 and |z| <= 50, got {z!r}")


# trapezoid step u_max / _ML_NODES on the contour parameter u in [-u_max, u_max]
_ML_NODES = 64


def _ml_contour(alpha, z):
    # E_alpha(z) = (1/2 pi i) int e^s s^(alpha-1) / (s^alpha - z) ds on the
    # parabola s(u) = mu (1 + iu)^2, trapezoid rule in u (Weideman & Trefethen
    # 2007, Math. Comp. 76:1341); u_max puts Re s(+-u_max) at -40. For
    # |arg z| < alpha pi the integrand has a pole at s* = z^(1/alpha), at
    # distance d = |Re sqrt(s*/mu) - 1| from the real u axis. mu then balances
    # rounding (e^mu eps) against discretisation (exp(-2 pi d N / u_max)), and
    # the residue e^(s*)/alpha is added when the pole lies outside the
    # parabola (Garrappa 2015, SIAM J. Numer. Anal. 53:1350).
    mu, residue = 4.0, 0.0
    if abs(cmath.phase(z)) < alpha * math.pi:
        pole = z ** (1.0 / alpha)
        c = cmath.sqrt(pole).real

        def error(m):
            d = abs(cmath.sqrt(pole / m).real - 1.0)
            return (math.exp(m) * sys.float_info.epsilon
                    + math.exp(-2.0 * math.pi * d * _ML_NODES / math.sqrt(1.0 + 40.0 / m)))

        mu = min((4.0, 4.0 * c * c, c * c / 2.25), key=error)
        if cmath.sqrt(pole / mu).real > 1.0:
            residue = cmath.exp(pole) / alpha
    u_max = math.sqrt(1.0 + 40.0 / mu)
    w = 1.0 + 1j * np.linspace(-u_max, u_max, 2 * _ML_NODES + 1)
    s = mu * w * w
    sa = s ** alpha
    total = (np.exp(s) * (sa / s) * w / (sa - z)).sum()
    return complex(mu * u_max / (math.pi * _ML_NODES) * total) + residue


def mittag_leffler(alpha, z):
    """E_alpha(z) = sum_{n>=0} z^n / Gamma(alpha n + 1) for Re z <= 0, |z| <= 50.

    A real z returns a float (in (0, 1], decreasing in |z|); a complex z
    returns a complex. Both go through one evaluator: the Bromwich integral
    on a parabolic contour, plus the pole residue where |arg z| < alpha pi.
    alpha = 1 is exp(z).
    """
    _check_alpha(alpha)
    _check_ml_domain(z)
    is_complex = isinstance(z, complex)
    z = complex(z)
    if z == 0.0:
        val = 1.0 + 0.0j
    elif alpha == 1.0:
        val = cmath.exp(z)
    else:
        val = _ml_contour(alpha, z)
    return val if is_complex else val.real


def mittag_leffler_deriv(alpha, n, x):
    """n-th derivative of E_alpha at x <= 0:
    sum_{k>=n} [k!/(k-n)!] x^(k-n) / Gamma(alpha k + 1), n <= 200.

    Evaluated through the complete-monotonicity representation
    E_alpha^(n)(x) = int tau^n e^(x tau) dnu_alpha(tau) in log space, which
    keeps every intermediate positive. Raises OverflowError when the exact
    value exceeds the double range (large n, small alpha).
    """
    _check_alpha(alpha)
    if n != int(n) or n < 0 or n > 200:
        raise ValueError(f"derivative order must be an integer in [0, 200], got {n!r}")
    n = int(n)
    x = float(x)
    _check_ml_domain(x)
    if n == 0:
        return mittag_leffler(alpha, x)
    if alpha == 1.0:
        return math.exp(x)
    if x == 0.0:
        log_v = math.lgamma(n + 1.0) - math.lgamma(alpha * n + 1.0)
    else:
        taus, weights = mixing_quadrature(alpha)
        log_v = logsumexp(n * np.log(taus) + x * taus + np.log(weights))
    if log_v > 709.0:
        raise OverflowError(
            f"mittag_leffler_deriv(alpha={alpha}, n={n}, x={x}) exceeds the "
            f"double range (log value {log_v:.1f})")
    return float(math.exp(log_v))


def _tilt(phi, alpha):
    # Kanter tilt function a(phi) on (0, pi), increasing from
    # a(0+) = (1-alpha) alpha^(alpha/(1-alpha)) to +inf at pi
    r = alpha / (1.0 - alpha)
    return (np.sin((1.0 - alpha) * phi) / np.sin(phi)
            * (np.sin(alpha * phi) / np.sin(phi)) ** r)


def stable_density(alpha, tau):
    """Density f_alpha(tau) of the one-sided alpha-stable law with Laplace
    transform exp(-t^alpha), via the single-integral representation

        f(tau) = a/((1-a) pi) tau^(-1/(1-a)) int_0^pi A(phi) e^(-A(phi) c) dphi

    with c = tau^(-a/(1-a)). Rejects alpha = 1 (degenerate point mass).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"stable_density requires 0 < alpha < 1, got {alpha!r}")
    if tau <= 0.0:
        raise ValueError(f"stable_density requires tau > 0, got {tau!r}")
    r = alpha / (1.0 - alpha)
    c = tau ** (-r)
    a0 = (1.0 - alpha) * alpha ** r
    if c * a0 > 745.0:
        return 0.0  # integrand underflows everywhere on (0, pi)

    def integrand(phi):
        a = _tilt(phi, alpha)
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


def mixing_pdf(alpha, tau):
    """Density of the mixing law nu_alpha (the law of S^(-alpha) for S
    one-sided alpha-stable): Laplace transform E_alpha(-z), moments
    k!/Gamma(alpha k + 1).

    A length-1 call into the array evaluator that mixing_quadrature uses;
    tau = 0 is the series' constant term 1/Gamma(1-alpha).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"mixing_pdf requires 0 < alpha < 1, got {alpha!r}")
    if tau < 0.0:
        raise ValueError(f"mixing_pdf requires tau >= 0, got {tau!r}")
    if tau == 0.0:
        return 1.0 / math.gamma(1.0 - alpha)
    return float(_mixing_pdf_many(alpha, np.array([float(tau)]))[0])


def _gl_panels(edges, n_nodes=24):
    # composite Gauss-Legendre nodes/weights over the given panel edges
    xg, wg = roots_legendre(n_nodes)
    e = np.asarray(edges, dtype=float)
    half = 0.5 * (e[1:] - e[:-1])
    mid = 0.5 * (e[1:] + e[:-1])
    nodes = (half[:, None] * xg[None, :] + mid[:, None]).ravel()
    wts = (half[:, None] * wg[None, :]).ravel()
    return nodes, wts


def _phi_panel_rule(c_max):
    # panels doubling away from phi = 0 resolve the exp(-c A(phi)) peak at
    # every scale up to c_max (peak width ~ 1/sqrt(c a0 alpha) > 0.3/sqrt(c))
    width = min(0.3 / math.sqrt(c_max), math.pi / 16.0)
    edges = [0.0]
    while edges[-1] + width < math.pi:
        edges.append(edges[-1] + width)
        width *= 2.0
    edges.append(math.pi)
    return _gl_panels(edges)


def _mixing_series(alpha, taus):
    # alternating power series of the density at positive taus, and the mask
    # of taus where it is accepted: every one of its 400 terms below 30, and
    # the last one negligible. That term is judged without its factor
    # sin(k pi alpha), which can vanish at k = 400 (alpha = 0.95) while the
    # series is still 1e-4 away from its sum.
    k = np.arange(1, 401)
    with np.errstate(over="ignore", invalid="ignore"):
        logs = (gammaln(k * alpha + 1.0) - gammaln(k + 1.0))[None, :] \
            + (k - 1.0)[None, :] * np.log(np.maximum(taus, 1e-300))[:, None]
        signs = np.where(k % 2 == 1, 1.0, -1.0) * np.sin(k * math.pi * alpha)
        terms = signs[None, :] * np.exp(logs)
        max_term = np.nanmax(np.abs(terms), axis=1) / (math.pi * alpha)
        last = np.exp(logs[:, -1]) / (math.pi * alpha)
        accepted = (max_term < 30.0) & (last < 1e-16)
        return terms.sum(axis=1) / (math.pi * alpha), accepted


def _mixing_pdf_many(alpha, taus):
    # density at an array of positive taus: the series where it is accepted,
    # elsewhere the Zolotarev/Kanter integral through the stable density
    taus = np.asarray(taus, dtype=float)
    out, series_ok = _mixing_series(alpha, taus)
    rest = np.flatnonzero(~series_ok)
    # c = t^(1/(1-alpha)) in log space: where c a(0+) > 745 the integrand
    # exp(-c a(phi)) underflows for every phi and the density is 0; those
    # taus stay out of c_max, which would otherwise overflow to inf
    log_a0 = math.log1p(-alpha) + alpha / (1.0 - alpha) * math.log(alpha)
    dead = np.log(taus[rest]) / (1.0 - alpha) + log_a0 > math.log(745.0)
    out[rest[dead]] = 0.0
    rest = rest[~dead]
    if rest.size:
        t = taus[rest]
        c = t ** (1.0 / (1.0 - alpha))
        phi, pw = _phi_panel_rule(c.max())
        with np.errstate(over="ignore"):
            # a(phi) overflows near pi when alpha is close to 1; inf is clipped
            tilt = np.minimum(_tilt(phi, alpha), 1e300)
        kern = (pw * tilt)[None, :] * np.exp(-np.outer(c, tilt))
        out[rest] = t ** (alpha / (1.0 - alpha)) / ((1.0 - alpha) * math.pi) \
            * kern.sum(axis=1)
    return out


@lru_cache(maxsize=32)
def mixing_quadrature(alpha):
    """Panel Gauss-Legendre rule for integrals against nu_alpha.

    Returns (nodes, weights) with the density already folded into the
    weights, so int h dnu_alpha ~= sum weights * h(nodes). The support is
    truncated where the density falls below 1e-20. The rule must reproduce
    the mass and the first two moments k!/Gamma(alpha k + 1) to 1e-8
    relative, or QuadratureError is raised (the density evaluator fails this
    at most orders above alpha = 0.972).
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"mixing_quadrature requires 0 < alpha < 1, got {alpha!r}")
    probe = 1.1 ** np.arange(121)
    dens = _mixing_pdf_many(alpha, probe)
    small = np.nonzero(dens < 1e-20)[0]
    tau_max = probe[small[0]] if small.size else probe[-1]
    n_panels = max(30, int(2.0 * tau_max))
    taus, ws = _gl_panels(np.linspace(0.0, tau_max, n_panels + 1))
    dens = _mixing_pdf_many(alpha, taus)
    keep = dens > 0.0
    taus, ws = taus[keep], (ws * dens)[keep]
    k = np.arange(3.0)
    moments = (ws * taus ** k[:, None]).sum(axis=1)
    err = np.abs(moments * np.exp(gammaln(alpha * k + 1.0) - gammaln(k + 1.0)) - 1.0).max()
    if not err <= 1e-8:
        raise QuadratureError(
            f"mixing_quadrature(alpha={alpha}): relative error {err:.2g} in the mass "
            f"or the first two moments exceeds 1e-8")
    return taus, ws


def sample_mixing_tau(alpha, rng, size=None):
    """Exact draw from nu_alpha: tau = (W / A(U))^(1-alpha) with U uniform
    on (0, pi) and W unit exponential. Scalar by default; pass size for a
    vectorized batch."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"sample_mixing_tau requires 0 < alpha < 1, got {alpha!r}")
    u = rng.uniform(0.0, math.pi, size=size)
    u = np.clip(u, 1e-12, math.pi - 1e-12)
    w = rng.standard_exponential(size=size)
    tau = (w / _tilt(u, alpha)) ** (1.0 - alpha)
    if size is None:
        return float(tau)
    return tau


def lognormal_pdf(width, x):
    """Lognormal intensity profile exp(-(ln x - s^2)^2 / (2 s^2)) / (x s sqrt(2 pi))
    with width s > 0; unit mass, mode at x = 1. Accepts scalars or arrays."""
    s = float(width)
    if s <= 0.0:
        raise ValueError(f"lognormal width must be positive, got {width!r}")
    xa = np.asarray(x, dtype=float)
    if xa.size and xa.min() <= 0.0:
        raise ValueError("lognormal_pdf requires x > 0")
    dev = np.log(xa) - s * s
    out = np.exp(-dev * dev / (2.0 * s * s)) / (xa * s * math.sqrt(2.0 * math.pi))
    if out.ndim == 0:
        return float(out)
    return out
