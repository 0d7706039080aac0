"""Characteristic functionals of random point measures on a box, their
Monte Carlo samplers, the grand-canonical determinant functional on a
circle, and the ground-state-to-potential map.

The measures covered: finite-N uniform configurations, the Poisson measure
with constant intensity, and compound (mixed-intensity) Poisson measures,
whose functional is the mixing law's Laplace transform E[exp(r Z)] at
Z = rho int (e^{if} - 1) dx; the fractional measure is the compound one
whose transform is the Mittag-Leffler function. Test functions form a
closed parametric family (sums of indicator, gaussian and cosine bumps),
and every integral runs on one composite Gauss-Legendre panel rule (the
field integral and the lognormal mixture as its sum, the determinant
functional as a Nystrom determinant).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

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
        if not sides or not all(0.0 < s < math.inf for s in sides):
            raise ValueError(f"box sides must be positive and finite, got {self.sides!r}")
        object.__setattr__(self, "sides", sides)

    @property
    def dim(self):
        return len(self.sides)

    @property
    def volume(self):
        return float(np.prod(self.sides))


@dataclass(frozen=True)
class IntensityMeasure:
    """Constant-intensity measure rho * Lebesgue on a box, its mass
    rho * volume capped at 50.

    The cap bounds the samplers' count draws (Poisson of the mass, or of tau
    times it) and matches weights_fractional's m <= 50. It does not keep the
    fractional functional in its domain: |Z| = rho |int (e^{if} - 1) dx| is
    up to twice the mass, and MixingMeasure.laplace checks |Z| <= 50 itself.
    """

    box: Box
    rho: float

    def __post_init__(self):
        if not 0.0 <= self.rho < math.inf:
            raise ValueError(f"intensity must be nonnegative and finite, got {self.rho!r}")
        if not self.mass <= 50.0:
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
    discrete(atoms, weights), fractional(alpha). Unit total mass; every
    parameter finite.
    """

    kind: str
    params: tuple = ()

    _KINDS = ("dirac", "exponential", "lognormal", "discrete", "fractional")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown mixing measure kind {self.kind!r}")

    @classmethod
    def dirac(cls, rho0):
        if not 0.0 < rho0 < math.inf:
            raise ValueError(f"dirac atom must be positive and finite, got {rho0!r}")
        return cls("dirac", (float(rho0),))

    @classmethod
    def exponential(cls, rho_bar):
        if not 0.0 < rho_bar < math.inf:
            raise ValueError(f"exponential mean must be positive and finite, got {rho_bar!r}")
        return cls("exponential", (float(rho_bar),))

    @classmethod
    def lognormal(cls, sigma):
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"lognormal width must be positive and finite, got {sigma!r}")
        return cls("lognormal", (float(sigma),))

    @classmethod
    def discrete(cls, atoms, weights):
        atoms = tuple(float(a) for a in atoms)
        weights = tuple(float(w) for w in weights)
        if len(atoms) != len(weights) or not atoms:
            raise ValueError("atoms and weights must be nonempty and equal length")
        if not (all(0.0 < a < math.inf for a in atoms)
                and all(0.0 <= w < math.inf for w in weights)):
            raise ValueError("atoms must be positive, weights nonnegative, both finite")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError("discrete weights must sum to 1")
        return cls("discrete", (atoms, weights))

    @classmethod
    def fractional(cls, alpha):
        if not 0.0 < alpha < 1.0:
            raise ValueError("fractional order must lie in (0, 1)")
        return cls("fractional", (float(alpha),))

    def laplace(self, z):
        """E[exp(rho z)] over this law, for complex z with Re z <= 0.

        Closed forms for dirac and exponential; the finite sum for discrete;
        the panel rounds in ln(rho) for lognormal, raising QuadratureError
        when their error estimate exceeds 1e-8; E_alpha(z) by
        specfun.mittag_leffler for fractional, for |z| <= 50 only. There a
        numerically real z, |Im z| <= 1e-14 max(1, |Re z|), is passed as a
        real argument and the result carries a zero imaginary part.
        """
        z = complex(z)
        if not z.real <= 0.0:
            raise ValueError(f"the Laplace transform needs Re z <= 0, got {z!r}")
        if self.kind == "dirac":
            return cmath.exp(self.params[0] * z)
        if self.kind == "exponential":
            return 1.0 / (1.0 - self.params[0] * z)
        if self.kind == "lognormal":
            return _lognormal_mixture(self.params[0], z)
        if self.kind == "discrete":
            return sum(w * cmath.exp(rho * z) for rho, w in zip(*self.params))
        alpha = self.params[0]
        if abs(z) > 50.0:
            raise ValueError(f"argument |Z| = {abs(z):.3g} outside the domain (<= 50)")
        if abs(z.imag) <= 1e-14 * max(1.0, abs(z.real)):
            return complex(specfun.mittag_leffler(alpha, z.real), 0.0)
        return specfun.mittag_leffler(alpha, z)


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

    def occupied_modes(self):
        """Modes n, zero mode included, whose Bose occupation 1/expm1(beta (k^2
        - mu)) is nonzero (exact: it is 0.0 only where expm1 overflows), and
        those occupations."""
        idx = np.arange(-int(self.n_max), int(self.n_max) + 1)
        k = 2.0 * math.pi * idx / self.circle_length
        with np.errstate(over="ignore"):
            occ = 1.0 / np.expm1(self.beta * (k * k - self.mu_chem))
        return idx[occ != 0.0], occ[occ != 0.0]


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


_FIELD_ORDER = 16       # Gauss-Legendre nodes per panel and axis of a panel round
_FIELD_NODES = 1 << 21  # node cap of the field rule
_FIELD_SLAB = 1 << 16   # nodes per numpy pass: about 3 MB of temporaries in 3-D
_GIRARD_NODES = 2048    # node cap of the Nystrom determinant, nodes x nodes LU


def _breakpoints(f, box, d):
    # panel edges on axis d: the box's ends and, inside it, each indicator's
    # edges, each gaussian's centre and 1 and 4 widths out, each cosine's centre
    edges = {0.0, box.sides[d]}
    for t in f._term_dicts():
        c, w = t["center"][d], t["width"]
        cand = {"indicator": (c - w / 2.0, c + w / 2.0),
                "gaussian": (c - 4.0 * w, c - w, c, c + w, c + 4.0 * w),
                "cosine": (c,)}[t["shape"]]
        edges.update(p for p in cand if 0.0 < p < box.sides[d])
    return np.array(sorted(edges))


def _panel_rounds(edges, max_nodes):
    # per-axis rules of _FIELD_ORDER nodes a panel, all panels halved a round
    while math.prod(_FIELD_ORDER * (e.size - 1) for e in edges) <= max_nodes:
        yield [specfun._gl_panels(e, _FIELD_ORDER) for e in edges]
        edges = [np.insert(e, np.arange(1, e.size), 0.5 * (e[:-1] + e[1:])) for e in edges]


def _tensor_rule(g, axes):
    # sum of w g(x_1, ..., x_d), g vectorised, over the tensor product of the
    # 1-D rules axes = [(nodes, weights)], last axis fastest, _FIELD_SLAB a pass
    shape = tuple(x.size for x, _ in axes)
    n_nodes, total = math.prod(shape), 0.0j
    for start in range(0, n_nodes, _FIELD_SLAB):
        index = np.unravel_index(np.arange(start, min(start + _FIELD_SLAB, n_nodes)), shape)
        w = math.prod(wd[i] for (_, wd), i in zip(axes, index))
        total += complex((w * g(*[x[i] for (x, _), i in zip(axes, index)])).sum())
    return total


def _panel_integral(g, edges, gate, what):
    """int g over the box of the per-axis panel edges by the panel rounds:
    _FIELD_ORDER Gauss-Legendre nodes per panel and axis, every panel halved
    each round until two rounds agree to max(1e-12, 1e-11 |I|).  Past
    _FIELD_NODES nodes the last difference (inf after a single round) is the
    error estimate, and above gate it raises QuadratureError naming what."""
    value = err = math.inf
    for axes in _panel_rounds(edges, _FIELD_NODES):
        new = _tensor_rule(g, axes)
        err, value = abs(new - value), new
        if err <= max(1e-12, 1e-11 * abs(new)):
            return new
    if not err <= gate:
        raise QuadratureError(f"{what} failed to converge (error estimate {err:.2e})")
    return value


def field_integral(f, box):
    """int_box (e^{i f(x)} - 1) dx by one composite Gauss-Legendre tensor
    rule on the panels between the breakpoints of f.

    An indicator-only f is constant on each panel, so one midpoint node per
    panel is exact.  Any other f runs the panel rounds of _panel_integral,
    gated at 1e-7.
    """
    if not isinstance(f, TestFunction):
        raise TypeError("f must be a TestFunction")
    edges = [_breakpoints(f, box, d) for d in range(box.dim)]

    def g(*x):
        return np.exp(1j * f(np.column_stack(x))) - 1.0

    if f.indicator_only:
        return _tensor_rule(g, [specfun._gl_panels(e, 1) for e in edges])
    return _panel_integral(g, edges, 1e-7, "field integral")


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
    return (1.0 + field_integral(f, box) / box.volume) ** int(n)


def char_compound(f, mu, xi):
    """Mixture int exp(r Z) dxi(r) with Z = rho int (e^{if} - 1) dx, the
    intensity rho of mu scaled by a random factor r ~ xi: xi.laplace(Z).
    The fractional law gives the Mittag-Leffler composition E_alpha(Z)."""
    return xi.laplace(mu.rho * field_integral(f, mu.box))


def _lognormal_mixture(sigma, a):
    # E exp(rho a) for ln rho ~ N(sigma^2, sigma^2), i.e. rho = exp(sigma^2 +
    # sqrt(2) sigma u) against exp(-u^2) / sqrt(pi), on the panel rounds in u.
    # rho stops at e^709, where it would overflow: exp(rho a) has underflowed
    # there unless 0 < -Re a < 1e-305, and is 1 at a = 0 either way (rho a
    # overflows only where exp(rho a) is 0).
    def g(u):
        rho = np.exp(np.minimum(sigma * sigma + math.sqrt(2.0) * sigma * u, 709.0))
        with np.errstate(over="ignore"):
            return np.exp(-u * u + rho * a)

    val = _panel_integral(g, [np.array([-12.0, 12.0])], 1e-8,
                          "lognormal mixture quadrature")
    return val / math.sqrt(math.pi)


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
        return (n == 0).astype(float)
    if alpha == 1.0:
        return np.exp(n * math.log(m) - m - specfun._lgamma(n + 1.0))
    taus, w = specfun.mixing_quadrature(alpha)
    log_pois = (n[None, :] * np.log(m * taus)[:, None]
                - (m * taus)[:, None] - specfun._lgamma(n + 1.0)[None, :])
    return (w[:, None] * np.exp(log_pois)).sum(axis=0)


# ---------------------------------------------------------------------------
# samplers


def _place_points(mu, counts, rng, size):
    pts = rng.uniform(0.0, 1.0, size=(int(counts.sum()), mu.box.dim)) * np.asarray(mu.box.sides)
    return PointConfiguration(pts) if size is None else (counts, pts)


def sample_poisson_config(mu, rng, size=None):
    """Poisson(mass) count, uniform positions on the box. With size, a batch
    (counts, points) whose points stack the samples in order."""
    counts = rng.poisson(mu.mass, size=1 if size is None else size)
    return _place_points(mu, counts, rng, size)


def sample_fractional_config(mu, alpha, rng, size=None):
    """Mixture draw: tau from the mixing law, then Poisson(tau * mass); a
    batch draws every tau, then every count, then every position."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha!r}")
    tau = specfun.sample_mixing_tau(alpha, rng, size=1 if size is None else size)
    counts = rng.poisson(tau * mu.mass)
    return _place_points(mu, counts, rng, size)


def _batch_pairings(f, counts, points):
    """<gamma_i, f> of every sample of a batch; exactly 0 without points."""
    owner = np.repeat(np.arange(counts.size), counts)
    return np.bincount(owner, weights=f(points), minlength=counts.size)


def mc_char(f, sampler, n_samples, rng):
    """Monte Carlo estimate of E[e^{i<gamma, f>}] with its standard error.

    Samples are drawn from independent child streams of rng in chunks of
    1000 and reduced in fixed stream order, so the result depends only on
    the seed, never on scheduling. sampler(stream, size) returns one chunk
    as a batch (counts, points), as the samplers above do with size.  Each
    chunk leaves only its sum and its centred sum of squares, merged into
    the running ones by the pairwise update of Chan, Golub & LeVeque
    (1983, Am. Stat. 37:242), so memory does not grow with n_samples.
    """
    if n_samples < 100:
        raise ValueError(f"need at least 100 samples, got {n_samples!r}")
    n_samples = int(n_samples)
    chunk = 1000
    n_chunks = -(-n_samples // chunk)
    total, spread, done = 0j, 0.0, 0
    for stream in rng.spawn(n_chunks):
        take = min(chunk, n_samples - done)
        theta = _batch_pairings(f, *sampler(stream, take))
        vals = np.cos(theta) + 1j * np.sin(theta)
        part = complex(vals.sum())
        part_spread = float(np.abs(vals - part / take).__pow__(2).sum())
        if done:
            shift = part / take - total / done
            part_spread += abs(shift) ** 2 * (done * take / (done + take))
        total, spread, done = total + part, spread + part_spread, done + take
    est = total / n_samples
    stderr = math.sqrt(spread / (n_samples * (n_samples - 1.0)))
    return est, stderr


# ---------------------------------------------------------------------------
# determinant functional on the circle


def girard_functional(f, params):
    """Grand-canonical determinant functional det(I - A n)^{-1} on the
    truncated mode lattice |n| <= n_max.

    A is the mode matrix of h = e^{if} - 1 and n the Bose occupations on
    occupied_modes. By Sylvester's identity this is the Nystrom determinant
    det(I - diag(w h) G), G(x, y) = (1/L) sum_n occ_n e^{i k_n (x - y)}, on
    the field rule's panels less the nodes where h = 0 (Bornemann 2010,
    Math. Comp. 79:871), the zero mode (occupation rho_bar L) as a rank-one
    term, each round one slogdet. Panels are halved until two rounds agree
    to 1e-12 relative; QuadratureError past _GIRARD_NODES nodes,
    SingularFunctionalError at a pole, OverflowError past the double range.
    """
    length = params.circle_length
    modes, occ = params.occupied_modes()
    occ0, occ = float(occ[modes == 0].sum()) / length, occ[modes != 0] / length
    k = 2.0 * math.pi * modes[modes != 0] / length
    sign, logdet = 1.0, math.inf  # no round yet
    for (x, w), in _panel_rounds([_breakpoints(f, Box((length,)), 0)], _GIRARD_NODES):
        wh = w * (np.exp(1j * f(x[:, None])) - 1.0)
        x, wh = x[wh != 0.0], wh[wh != 0.0]
        e = np.exp(1j * np.outer(x, k))
        # the zero mode's rank-one term occ0 wh 1^T as a border: det of
        # [[M, wh], [occ0 1^T, 1]] is det(M) (1 - occ0 1^T M^-1 wh)
        border = np.ones((x.size + 1, x.size + 1), dtype=complex)
        border[:-1, :-1] = np.eye(x.size) - wh[:, None] * ((e * occ) @ e.conj().T)
        border[:-1, -1] = wh
        border[-1, :-1] = occ0
        prev_sign, prev_logdet = sign, logdet
        with np.errstate(invalid="ignore"):
            sign, logdet = np.linalg.slogdet(border)
        sign, logdet = complex(sign), float(logdet)
        if math.isnan(logdet):
            raise SingularFunctionalError("determinant evaluation produced non-finite pivots")
        if logdet > 709.0:
            raise OverflowError(
                f"girard determinant exceeds the double range (log|det| = {logdet:.1f})")
        if not logdet >= math.log(1e-100):
            raise SingularFunctionalError(
                f"functional pole: det(I - A n) = {sign * math.exp(logdet):.3e}")
        # |det - prev| <= 1e-12 |det|; the exponent is clamped, as any ratio
        # past e fails the test
        if abs(1.0 - prev_sign / sign * math.exp(min(prev_logdet - logdet, 1.0))) <= 1e-12:
            return math.exp(-logdet) / sign
    raise QuadratureError(f"girard determinant failed to converge within {_GIRARD_NODES} nodes")


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
    # inf/nan on the pair-coincidence set is expected and masked downstream;
    # overflow on a huge grid is left to the callers' finiteness checks
    n = f.n_particles
    w = np.zeros_like(mesh[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n):
            for j in range(i + 1, n):
                diff = mesh[i] - mesh[j]
                w = w + f.omega * diff * diff
                if f.w_kind == "calogero":
                    w = w + f.lam * np.log(np.abs(diff))
    return w


def _potential_mesh(f, axes):
    """(mesh, V) on the meshgrid of axes: analytic derivatives for harmonic
    and calogero fields, central differences for custom samples."""
    mesh = np.meshgrid(*axes, indexing="ij")
    n = f.n_particles
    if f.w_kind == "custom":
        w = np.asarray(f.w_values, dtype=float)
        if w.shape != mesh[0].shape:
            raise ValueError(f"w_values shape {w.shape} does not match grid {mesh[0].shape}")
        grads = np.gradient(w, *axes) if n > 1 else [np.gradient(w, axes[0])]
        lap = sum(np.gradient(g, ax, axis=i) for i, (g, ax) in enumerate(zip(grads, axes)))
        return mesh, -lap + sum(g * g for g in grads)
    lap = 2.0 * f.omega * n * (n - 1)
    grad_sq = np.zeros_like(mesh[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = sum(mesh)
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
        return mesh, -lap + grad_sq


def ground_state_potential(f, grid):
    """Potential V = -Lap W + |grad W|^2 for which exp(-W) is the nodeless
    zero-energy ground state.

    grid is one shared 1-d axis or a tuple of per-particle axes; the value
    is returned on the meshgrid. Analytic derivatives for harmonic and
    calogero fields; central differences for custom samples (interior rows
    are the trustworthy ones)."""
    return _potential_mesh(f, _field_axes(f, grid))[1]


def _ground_state_map(f, grid, exclusion_cells):
    """(mesh, V, residual_check's residual) from one evaluation of V."""
    if exclusion_cells < 0:
        raise ValueError("exclusion_cells must be >= 0")
    axes = _field_axes(f, grid)
    steps = []
    for ax in axes:
        d = np.diff(ax)
        if np.any(np.abs(d - d[0]) > 1e-12 * np.abs(d[0])):
            raise ValueError("residual_check requires uniformly spaced axes")
        steps.append(float(d[0]))
    mesh, v = _potential_mesh(f, axes)
    if not np.isfinite(v).any():
        raise RuntimeError("the potential has no finite value on the grid")
    if f.w_kind == "custom":
        # np.gradient is one-sided on the faces, so V one cell in is too
        w, edge = np.asarray(f.w_values, dtype=float), 2
    else:
        w, edge = _w_analytic(f, mesh), 1
    core = tuple(slice(edge, ax.size - edge) for ax in axes)
    with np.errstate(over="ignore", invalid="ignore"):
        omega_arr = np.exp(-w)
        lap = 0.0
        for i, h in enumerate(steps):
            up, dn = list(core), list(core)
            up[i] = slice(edge + 1, axes[i].size - edge + 1)
            dn[i] = slice(edge - 1, axes[i].size - edge - 1)
            lap = lap + (omega_arr[tuple(up)] - 2.0 * omega_arr[core]
                         + omega_arr[tuple(dn)]) / (h * h)
    keep = np.ones(lap.shape, dtype=bool)
    if f.w_kind == "calogero":
        margin = exclusion_cells * max(steps)
        for i in range(f.n_particles):
            for j in range(i + 1, f.n_particles):
                keep &= np.abs(mesh[i][core] - mesh[j][core]) > margin
    if not keep.any():
        # an empty mask would make the residual 0/0
        raise RuntimeError("residual_check: no grid point lies inside the boundary "
                           "and outside the pair-exclusion margin")
    with np.errstate(invalid="ignore", over="ignore"):
        residual = (-lap + v[core] * omega_arr[core])[keep]
        omega_kept = omega_arr[core][keep]
        # numpy's pairwise sums, not BLAS dots: no BLAS thread wakes up and the
        # value does not depend on the thread count; numpy scalars keep 0/0 a NaN
        out = float(np.sqrt((residual * residual).sum())
                    / np.sqrt((omega_kept * omega_kept).sum()))
    if not math.isfinite(out):
        raise RuntimeError("residual_check: the residual is not finite (the field "
                           "or the potential overflows on this grid)")
    return mesh, v, out


def residual_check(f, grid, exclusion_cells=3):
    """Relative residual ||(-Lap + V) exp(-W)|| / ||exp(-W)|| one cell in
    from each face (two for custom samples), with the pair-coincidence set
    excluded by a margin of exclusion_cells >= 0 grid cells for log-singular
    fields. Raises RuntimeError when V has no finite value, no grid point is
    left to measure or the residual is not finite."""
    return _ground_state_map(f, grid, exclusion_cells)[2]
