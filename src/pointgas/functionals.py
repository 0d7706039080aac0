"""Characteristic functionals of random point measures on a box, their
Monte Carlo samplers, the grand-canonical determinant functional on a
circle, and the ground-state-to-potential map.

The measures covered: finite-N uniform configurations, the Poisson measure
with constant intensity, compound (mixed-intensity) Poisson measures, and
the fractional generalization whose functional is a Mittag-Leffler
composition. Test functions form a closed parametric family (sums of
indicator, gaussian and cosine bumps) so indicator integrals have closed
forms and everything else reduces to reproducible quadrature.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, linalg
from scipy.special import gammaln

from . import specfun
from .specfun import QuadratureError

__all__ = [
    "QuadratureError",
    "SingularFunctionalError",
    "Box",
    "IntensityMeasure",
    "TestFunction",
    "PointConfiguration",
    "MixingMeasure",
    "GirardParams",
    "GroundStateField",
    "field_integral",
    "char_poisson",
    "char_finite_NV",
    "char_compound",
    "char_fractional",
    "weights_fractional",
    "sample_poisson_config",
    "sample_fractional_config",
    "mc_char",
    "girard_functional",
    "ground_state_potential",
    "residual_check",
]


class SingularFunctionalError(RuntimeError):
    """The determinant functional is evaluated at a pole."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [0, side_1] x ... x [0, side_d]."""

    sides: tuple

    def __post_init__(self):
        sides = tuple(float(s) for s in np.atleast_1d(self.sides))
        if not sides or any(s <= 0.0 for s in sides):
            raise ValueError(f"box sides must be positive, got {self.sides!r}")
        object.__setattr__(self, "sides", sides)

    @property
    def dim(self):
        return len(self.sides)

    @property
    def volume(self):
        return float(np.prod(self.sides))


@dataclass(frozen=True)
class IntensityMeasure:
    """Constant-intensity measure rho * Lebesgue on a box; mass capped at 50
    so the fractional functional stays inside its evaluation domain."""

    box: Box
    rho: float

    def __post_init__(self):
        if self.rho < 0.0:
            raise ValueError(f"intensity must be nonnegative, got {self.rho!r}")
        if self.mass > 50.0:
            raise ValueError(
                f"total mass rho*volume = {self.mass:g} exceeds the supported cap 50")

    @property
    def mass(self):
        return self.rho * self.box.volume


_SHAPES = ("indicator", "gaussian", "cosine")


@dataclass(frozen=True)
class TestFunction:
    """Sum of parametric bump terms; evaluates on (n, dim) point arrays.

    Each term is a dict with keys shape ("indicator" | "gaussian" |
    "cosine"), center (point), width (> 0) and amplitude. Indicators are
    half-open products prod_d 1[c_d - w/2 <= x_d < c_d + w/2]; gaussians are
    amp * exp(-|x-c|^2/(2 w^2)); cosines are amp * cos(2 pi sum_d (x_d - c_d)/w).
    An empty term list is the zero function.
    """

    terms: tuple = ()

    def __post_init__(self):
        norm = []
        for t in self.terms:
            t = dict(t)
            if t.get("shape") not in _SHAPES:
                raise ValueError(f"unknown term shape {t.get('shape')!r}")
            if not t.get("width", 0.0) > 0.0:
                raise ValueError("term width must be positive")
            center = tuple(float(c) for c in np.atleast_1d(t.get("center", 0.0)))
            norm.append({"shape": t["shape"], "center": center,
                         "width": float(t["width"]),
                         "amplitude": float(t.get("amplitude", 1.0))})
        object.__setattr__(self, "terms", tuple(
            tuple(sorted(t.items())) for t in norm))

    def _term_dicts(self):
        return [dict(t) for t in self.terms]

    @property
    def indicator_only(self):
        return all(dict(t)["shape"] == "indicator" for t in self.terms)

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be an (n, dim) array")
        out = np.zeros(pts.shape[0])
        for t in self._term_dicts():
            c = np.asarray(t["center"])
            if c.size != pts.shape[1]:
                raise ValueError("term center dimension does not match points")
            w, amp = t["width"], t["amplitude"]
            if t["shape"] == "indicator":
                inside = np.all((pts >= c - w / 2.0) & (pts < c + w / 2.0), axis=1)
                out += amp * inside
            elif t["shape"] == "gaussian":
                d2 = ((pts - c) ** 2).sum(axis=1)
                out += amp * np.exp(-d2 / (2.0 * w * w))
            else:
                out += amp * np.cos(2.0 * math.pi * (pts - c).sum(axis=1) / w)
        return out


@dataclass(frozen=True)
class PointConfiguration:
    """A finite point configuration; points has shape (n, dim)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ValueError("points must be an (n, dim) array")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    def pairing(self, f):
        """<gamma, f> = sum_j f(x_j)."""
        if len(self) == 0:
            return 0.0
        return float(f(self.points).sum())


@dataclass(frozen=True)
class MixingMeasure:
    """Probability law of the random intensity multiplier.

    Kinds: dirac(rho0), exponential(rho_bar), lognormal(sigma),
    discrete(atoms, weights), fractional(alpha). Unit total mass.
    """

    kind: str
    params: tuple = ()

    _KINDS = ("dirac", "exponential", "lognormal", "discrete", "fractional")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown mixing measure kind {self.kind!r}")

    @classmethod
    def dirac(cls, rho0):
        if rho0 <= 0.0:
            raise ValueError("dirac atom must be positive")
        return cls("dirac", (float(rho0),))

    @classmethod
    def exponential(cls, rho_bar):
        if rho_bar <= 0.0:
            raise ValueError("exponential mean must be positive")
        return cls("exponential", (float(rho_bar),))

    @classmethod
    def lognormal(cls, sigma):
        if sigma <= 0.0:
            raise ValueError("lognormal width must be positive")
        return cls("lognormal", (float(sigma),))

    @classmethod
    def discrete(cls, atoms, weights):
        atoms = tuple(float(a) for a in atoms)
        weights = tuple(float(w) for w in weights)
        if len(atoms) != len(weights) or not atoms:
            raise ValueError("atoms and weights must be nonempty and equal length")
        if any(a <= 0.0 for a in atoms) or any(w < 0.0 for w in weights):
            raise ValueError("atoms must be positive, weights nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError("discrete weights must sum to 1")
        return cls("discrete", (atoms, weights))

    @classmethod
    def fractional(cls, alpha):
        if not 0.0 < alpha < 1.0:
            raise ValueError("fractional order must lie in (0, 1)")
        return cls("fractional", (float(alpha),))


@dataclass(frozen=True)
class GirardParams:
    """Grand-canonical parameters on a circle of length L: modes k = 2 pi n/L
    with |n| <= n_max, dispersion k^2, inverse temperature beta, and the
    chemical potential tied to the target density so the zero mode carries
    occupation rho_bar * L exactly at every beta."""

    circle_length: float
    n_max: int
    beta: float
    rho_bar: float

    def __post_init__(self):
        if self.circle_length <= 0.0 or self.beta <= 0.0 or self.rho_bar <= 0.0:
            raise ValueError("circle_length, beta and rho_bar must be positive")
        if self.n_max < 1 or self.n_max != int(self.n_max):
            raise ValueError("n_max must be a positive integer")

    @property
    def mu_chem(self):
        return -math.log1p(1.0 / (self.rho_bar * self.circle_length)) / self.beta


@dataclass(frozen=True)
class GroundStateField:
    """Log-derivative data W of a nodeless ground state exp(-W) for
    n_particles coordinates on the line.

    w_kind: "harmonic" (pair springs, strength omega), "calogero" (springs
    plus lam * log-pair term), or "custom" (W sampled on the grid).
    """

    n_particles: int
    w_kind: str = "harmonic"
    omega: float = 1.0
    lam: float = 0.0
    w_values: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be positive")
        if self.w_kind not in ("harmonic", "calogero", "custom"):
            raise ValueError(f"unknown w_kind {self.w_kind!r}")
        if self.w_kind == "custom" and self.w_values is None:
            raise ValueError("custom fields need w_values samples")


# ---------------------------------------------------------------------------
# field integrals


def _indicator_integral(f, box):
    # indicators are piecewise constant: decompose the box into cells on
    # which f is constant and sum exact volumes
    breakpoints = []
    for d in range(box.dim):
        bps = {0.0, box.sides[d]}
        for t in f._term_dicts():
            c, w = t["center"][d], t["width"]
            for edge in (c - w / 2.0, c + w / 2.0):
                if 0.0 < edge < box.sides[d]:
                    bps.add(edge)
        breakpoints.append(sorted(bps))
    total = 0.0j
    for cell in itertools.product(*(zip(b[:-1], b[1:]) for b in breakpoints)):
        lo = np.array([e[0] for e in cell])
        hi = np.array([e[1] for e in cell])
        vol = float(np.prod(hi - lo))
        val = float(f(((lo + hi) / 2.0)[None, :])[0])
        total += vol * (cmath.exp(1j * val) - 1.0)
    return total


def _quadrature_points(f, box, d):
    pts = set()
    for t in f._term_dicts():
        c, w = t["center"][d], t["width"]
        if t["shape"] == "indicator":
            cand = (c - w / 2.0, c + w / 2.0)
        elif t["shape"] == "gaussian":
            cand = (c - 4.0 * w, c - w, c, c + w, c + 4.0 * w)
        else:
            cand = (c,)
        pts.update(p for p in cand if 0.0 < p < box.sides[d])
    return sorted(pts)


def field_integral(f, box, tol=1e-10):
    """int_box (e^{i f(x)} - 1) dx, exact for indicator-only test functions,
    adaptive quadrature (absolute tolerance ~1e-10) otherwise."""
    if not isinstance(f, TestFunction):
        raise TypeError("f must be a TestFunction")
    if not f.terms:
        return 0.0j
    if f.indicator_only:
        return _indicator_integral(f, box)
    if box.dim == 1:
        pts = _quadrature_points(f, box, 0)

        def g(x, part):
            val = cmath.exp(1j * float(f(np.array([[x]]))[0])) - 1.0
            return val.real if part == 0 else val.imag

        out = 0.0j
        for part, unit in ((0, 1.0), (1, 1.0j)):
            val, err = integrate.quad(g, 0.0, box.sides[0], args=(part,),
                                      points=pts or None, limit=300,
                                      epsabs=tol * 1e-2, epsrel=1e-11)
            if err > 1e-7:
                raise QuadratureError(
                    f"field integral failed to converge (error estimate {err:.2e})")
            out += unit * val
        return out
    ranges = [(0.0, s) for s in box.sides]
    opts = [{"points": _quadrature_points(f, box, d), "limit": 200}
            for d in range(box.dim)]

    def gnd(*xs):
        return cmath.exp(1j * float(f(np.array([xs]))[0])) - 1.0

    re, re_err = integrate.nquad(lambda *xs: gnd(*xs).real, ranges, opts=opts)
    im, im_err = integrate.nquad(lambda *xs: gnd(*xs).imag, ranges, opts=opts)
    if max(re_err, im_err) > 1e-7:
        raise QuadratureError("field integral failed to converge")
    return complex(re, im)


# ---------------------------------------------------------------------------
# characteristic functionals


def char_poisson(f, mu):
    """exp(rho * int (e^{if} - 1) dx) for the constant-intensity Poisson
    measure; |result| <= 1."""
    return cmath.exp(mu.rho * field_integral(f, mu.box))


def char_finite_NV(f, n, box):
    """((1/V) int e^{if} dx)^N for N independent uniform points on the box."""
    if n < 1 or n != int(n):
        raise ValueError(f"N must be a positive integer, got {n!r}")
    v = box.volume
    inner = 1.0 + field_integral(f, box) / v
    return inner ** int(n)


def char_compound(f, mu_unit, xi):
    """Mixture int exp(rho * A) dxi(rho) with A = int (e^{if} - 1) dx.

    Closed forms for dirac and exponential mixing (the latter requires
    rho_bar * Re A < 1, automatic here since Re A <= 0); Gauss-Hermite in
    ln(rho) for lognormal (64 nodes, refined to 128 with adaptive fallback);
    finite sum for discrete; the mixing-law panel rule for fractional.
    """
    if mu_unit.rho != 1.0:
        raise ValueError("char_compound requires a unit-intensity base measure")
    a = field_integral(f, mu_unit.box)
    if xi.kind == "dirac":
        return cmath.exp(xi.params[0] * a)
    if xi.kind == "exponential":
        w = xi.params[0] * a
        if w.real >= 1.0:
            raise QuadratureError("exponential mixture diverges for rho_bar*Re A >= 1")
        return 1.0 / (1.0 - w)
    if xi.kind == "lognormal":
        sigma = xi.params[0]
        v64 = _lognormal_mixture(sigma, a, 64)
        v128 = _lognormal_mixture(sigma, a, 128)
        if abs(v64 - v128) <= 1e-9 * (1.0 + abs(v128)):
            return v128
        return _lognormal_mixture_adaptive(sigma, a)
    if xi.kind == "discrete":
        atoms, weights = xi.params
        return sum(w * cmath.exp(rho * a) for rho, w in zip(atoms, weights))
    taus, w = specfun.mixing_quadrature(xi.params[0])
    return complex((w * np.exp(taus * a)).sum())


def _lognormal_mixture(sigma, a, n_nodes):
    u, w = np.polynomial.hermite.hermgauss(n_nodes)
    rho = np.exp(sigma * sigma + math.sqrt(2.0) * sigma * u)
    return complex((w * np.exp(rho * a)).sum() / math.sqrt(math.pi))


def _lognormal_mixture_adaptive(sigma, a):
    def g(u, part):
        rho = math.exp(sigma * sigma + math.sqrt(2.0) * sigma * u)
        val = cmath.exp(-u * u + rho * a)
        return val.real if part == 0 else val.imag

    out = 0.0j
    for part, unit in ((0, 1.0), (1, 1.0j)):
        val, err = integrate.quad(g, -12.0, 12.0, args=(part,), limit=300,
                                  epsabs=1e-12, epsrel=1e-10)
        if err > 1e-8:
            raise QuadratureError("lognormal mixture quadrature failed")
        out += unit * val
    return out / math.sqrt(math.pi)


def char_fractional(f, mu, alpha):
    """Mittag-Leffler composition E_alpha(Z), Z = rho * int (e^{if} - 1) dx,
    for |Z| <= 50.

    Evaluated by specfun.mittag_leffler, whose contour evaluator covers real
    and complex arguments (Re Z <= 0 holds by construction). A numerically
    real Z, |Im Z| <= 1e-14 max(1, |Re Z|), is passed as a real argument and
    the result carries a zero imaginary part.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {alpha!r}")
    z = mu.rho * field_integral(f, mu.box)
    if abs(z) > 50.0:
        raise ValueError(f"argument |Z| = {abs(z):.3g} outside the domain (<= 50)")
    if abs(z.imag) <= 1e-14 * max(1.0, abs(z.real)):
        return complex(specfun.mittag_leffler(alpha, z.real), 0.0)
    return specfun.mittag_leffler(alpha, z)


def weights_fractional(alpha, m, n_max):
    """Count weights p_n of the fractional measure with mass m: nonnegative,
    partial sums <= 1, total mass 1 in the n_max -> inf limit. alpha = 1
    gives plain Poisson weights."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {alpha!r}")
    if not 0.0 <= m <= 50.0:
        raise ValueError(f"mass must lie in [0, 50], got {m!r}")
    if n_max < 0 or n_max != int(n_max):
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max!r}")
    n = np.arange(int(n_max) + 1)
    if m == 0.0:
        p = np.zeros(n.size)
        p[0] = 1.0
        return p
    if alpha == 1.0:
        return np.exp(n * math.log(m) - m - gammaln(n + 1.0))
    taus, w = specfun.mixing_quadrature(alpha)
    log_pois = (n[None, :] * np.log(m * taus)[:, None]
                - (m * taus)[:, None] - gammaln(n + 1.0)[None, :])
    return (w[:, None] * np.exp(log_pois)).sum(axis=0)


# ---------------------------------------------------------------------------
# samplers


def sample_poisson_config(mu, rng):
    """Poisson(mass) count, uniform positions on the box."""
    count = int(rng.poisson(mu.mass)) if mu.mass > 0.0 else 0
    pts = rng.uniform(0.0, 1.0, size=(count, mu.box.dim)) * np.asarray(mu.box.sides)
    return PointConfiguration(pts)


def sample_fractional_config(mu, alpha, rng):
    """Mixture draw: tau from the mixing law, then Poisson(tau * mass)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha!r}")
    tau = specfun.sample_mixing_tau(alpha, rng)
    count = int(rng.poisson(tau * mu.mass)) if mu.mass > 0.0 else 0
    pts = rng.uniform(0.0, 1.0, size=(count, mu.box.dim)) * np.asarray(mu.box.sides)
    return PointConfiguration(pts)


def mc_char(f, sampler, n_samples, rng):
    """Monte Carlo estimate of E[e^{i<gamma, f>}] with its standard error.

    Samples are drawn from independent child streams of rng in chunks of
    1000 and reduced in fixed stream order, so the result depends only on
    the seed, never on scheduling.
    """
    if n_samples < 100:
        raise ValueError(f"need at least 100 samples, got {n_samples!r}")
    n_samples = int(n_samples)
    chunk = 1000
    n_chunks = -(-n_samples // chunk)
    streams = rng.spawn(n_chunks)
    vals = np.empty(n_samples, dtype=complex)
    pos = 0
    for stream in streams:
        take = min(chunk, n_samples - pos)
        for i in range(take):
            pairing = sampler(stream).pairing(f)
            vals[pos + i] = complex(math.cos(pairing), math.sin(pairing))
        pos += take
    est = complex(vals.sum() / n_samples)
    spread = float(np.abs(vals - est).__pow__(2).sum())
    stderr = math.sqrt(spread / (n_samples * (n_samples - 1.0)))
    return est, stderr


# ---------------------------------------------------------------------------
# determinant functional on the circle


def girard_functional(f, params, ordering="occupation_right"):
    """Grand-canonical determinant functional det(I - A n)^{-1} on the
    truncated mode lattice |n| <= n_max.

    A is the mode matrix of e^{if} - 1 from a length-8*n_max trapezoid
    (DFT) rule; n is the Bose occupation diagonal for dispersion k^2 and
    the density-matched chemical potential. The operator order A*n versus
    n*A is a declared convention ("occupation_right" / "occupation_left");
     a pole of the functional raises SingularFunctionalError.
    """
    if ordering not in ("occupation_right", "occupation_left"):
        raise ValueError(f"unknown ordering {ordering!r}")
    length = params.circle_length
    n_max = int(params.n_max)
    m_grid = max(8 * n_max, 64)
    x = (np.arange(m_grid) * (length / m_grid))[:, None]
    h = np.exp(1j * f(x)) - 1.0
    hhat = np.fft.fft(h) / m_grid
    idx = np.arange(-n_max, n_max + 1)
    a_mat = hhat[(idx[:, None] - idx[None, :]) % m_grid]
    k = 2.0 * math.pi * idx / length
    with np.errstate(over="ignore"):
        occ = 1.0 / np.expm1(params.beta * (k * k - params.mu_chem))
    if ordering == "occupation_right":
        b_mat = np.eye(idx.size) - a_mat * occ[None, :]
    else:
        b_mat = np.eye(idx.size) - occ[:, None] * a_mat
    lu, piv = linalg.lu_factor(b_mat)
    diag = np.diag(lu)
    if not np.all(np.isfinite(diag)):
        raise SingularFunctionalError("determinant evaluation produced non-finite pivots")
    det = complex(np.prod(diag))
    if np.sum(piv != np.arange(idx.size)) % 2:
        det = -det
    if abs(det) < 1e-100:
        raise SingularFunctionalError(
            f"functional pole: det(I - A n) = {det:.3e}")
    return 1.0 / det


# ---------------------------------------------------------------------------
# ground-state potential


def _field_axes(f, grid):
    n = f.n_particles
    if isinstance(grid, np.ndarray) and grid.ndim == 1:
        axes = [np.asarray(grid, dtype=float)] * n
    else:
        axes = [np.asarray(a, dtype=float) for a in grid]
    if len(axes) != n:
        raise ValueError(f"grid must provide {n} axes, got {len(axes)}")
    for ax in axes:
        if ax.ndim != 1 or ax.size < 5:
            raise ValueError("each grid axis needs at least 5 points")
    return axes


def _w_analytic(f, mesh):
    # inf/nan on the pair-coincidence set is expected and masked downstream
    n = f.n_particles
    w = np.zeros_like(mesh[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n):
            for j in range(i + 1, n):
                diff = mesh[i] - mesh[j]
                w = w + f.omega * diff * diff
                if f.w_kind == "calogero":
                    w = w + f.lam * np.log(np.abs(diff))
    return w


def _potential_analytic(f, mesh):
    n = f.n_particles
    s = sum(mesh)
    lap = 2.0 * f.omega * n * (n - 1)
    grad_sq = np.zeros_like(mesh[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for kk in range(n):
            g = 2.0 * f.omega * (n * mesh[kk] - s)
            if f.w_kind == "calogero":
                for j in range(n):
                    if j != kk:
                        g = g + f.lam / (mesh[kk] - mesh[j])
            grad_sq = grad_sq + g * g
        if f.w_kind == "calogero":
            for i in range(n):
                for j in range(i + 1, n):
                    lap = lap - 2.0 * f.lam / (mesh[i] - mesh[j]) ** 2
        return -lap + grad_sq


def _potential_custom(f, axes):
    w = np.asarray(f.w_values, dtype=float)
    shape = tuple(ax.size for ax in axes)
    if w.shape != shape:
        raise ValueError(f"w_values shape {w.shape} does not match grid {shape}")
    grads = np.gradient(w, *axes) if len(axes) > 1 else [np.gradient(w, axes[0])]
    grad_sq = sum(g * g for g in grads)
    lap = np.zeros_like(w)
    for i, ax in enumerate(axes):
        lap = lap + np.gradient(np.gradient(w, ax, axis=i), ax, axis=i)
    return -lap + grad_sq


def ground_state_potential(f, grid):
    """Potential V = -Lap W + |grad W|^2 for which exp(-W) is the nodeless
    zero-energy ground state.

    grid is one shared 1-d axis or a tuple of per-particle axes; the value
    is returned on the meshgrid. Analytic derivatives for harmonic and
    calogero fields; central differences for custom samples (interior rows
    are the trustworthy ones)."""
    axes = _field_axes(f, grid)
    if f.w_kind == "custom":
        return _potential_custom(f, axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    return _potential_analytic(f, mesh)


def residual_check(f, grid, exclusion_cells=3):
    """Relative residual ||(-Lap + V) exp(-W)|| / ||exp(-W)|| on the grid
    interior, with the pair-coincidence set excluded by a margin of
    exclusion_cells grid cells for log-singular fields. Raises RuntimeError
    when no grid point is left to measure."""
    axes = _field_axes(f, grid)
    steps = []
    for ax in axes:
        d = np.diff(ax)
        if np.any(np.abs(d - d[0]) > 1e-12 * np.abs(d[0])):
            raise ValueError("residual_check requires uniformly spaced axes")
        steps.append(float(d[0]))
    mesh = np.meshgrid(*axes, indexing="ij")
    if f.w_kind == "custom":
        w = np.asarray(f.w_values, dtype=float)
    else:
        w = _w_analytic(f, mesh)
    v = ground_state_potential(f, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        omega_arr = np.exp(-w)
        lap = np.zeros_like(omega_arr)
        for i, h in enumerate(steps):
            sl_up = [slice(None)] * omega_arr.ndim
            sl_dn = [slice(None)] * omega_arr.ndim
            sl_md = [slice(None)] * omega_arr.ndim
            sl_up[i] = slice(2, None)
            sl_dn[i] = slice(None, -2)
            sl_md[i] = slice(1, -1)
            contrib = (omega_arr[tuple(sl_up)] - 2.0 * omega_arr[tuple(sl_md)]
                       + omega_arr[tuple(sl_dn)]) / (h * h)
            pad = [(1, 1) if j == i else (0, 0) for j in range(omega_arr.ndim)]
            lap = lap + np.pad(contrib, pad)
    interior = np.ones(omega_arr.shape, dtype=bool)
    for i in range(omega_arr.ndim):
        sl_lo = [slice(None)] * omega_arr.ndim
        sl_hi = [slice(None)] * omega_arr.ndim
        sl_lo[i] = slice(0, 1)
        sl_hi[i] = slice(-1, None)
        interior[tuple(sl_lo)] = False
        interior[tuple(sl_hi)] = False
    if f.w_kind == "calogero":
        margin = exclusion_cells * max(steps)
        for i in range(f.n_particles):
            for j in range(i + 1, f.n_particles):
                interior &= np.abs(mesh[i] - mesh[j]) > margin
    if not interior.any():
        # an empty mask would make the residual 0/0
        raise RuntimeError("residual_check: no grid point lies inside the boundary "
                           "and outside the pair-exclusion margin")
    with np.errstate(invalid="ignore", over="ignore"):
        residual = (-lap + v * omega_arr)[interior]
        return float(np.linalg.norm(residual) / np.linalg.norm(omega_arr[interior]))
