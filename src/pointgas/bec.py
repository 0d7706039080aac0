"""Thermodynamics of a superposed ideal boson ensemble.

A normalized mixing law nu(x) superposes grand-canonical gases whose
fugacities are z^x. Everything is expressed in the dimensionless
temperature t for which the density constraint reads

    int nu(x) g_{3/2}(z^x) dx = t^{-3/2},

so the condensation point solves g_{3/2}(1) = t_c^{-3/2} independently of
nu. Above t_c the fugacity follows from the constraint; below it z = 1 and
all curves collapse onto the nu-independent condensed branch.

The fugacity solver and the thermodynamic functions work on temperature
arrays: a whole grid goes through one batched Newton loop in log z on
(temperatures x nodes) arrays, and every scalar entry point is a length-1
batch of the same code. In log z the constraint's logarithm is convex and
increasing, so Newton from the z cap descends monotonically onto the root;
only near t_c, where one ulp of z moves the constraint by more than 1e-12,
is the residual limited by the float grid of z rather than by the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import specfun
from .functionals import MixingMeasure

__all__ = [
    "Ensemble",
    "ThermoPoint",
    "critical_temperature",
    "solve_fugacity",
    "internal_energy",
    "specific_heat",
    "thermo_point",
    "cv_curve",
    "sharpness_metric",
]

_ZETA_52 = specfun.zeta_const(2.5)
_Z_CAP = 1.0 - 1e-12
_FD_STEP = 1e-4


@lru_cache(maxsize=16)
def _hermgauss(n):
    return hermgauss(n)


@dataclass(frozen=True)
class Ensemble:
    """Superposition law over the fugacity exponent x > 0."""

    nu: MixingMeasure

    _ALLOWED = ("dirac", "lognormal", "discrete")

    def __post_init__(self):
        if self.nu.kind not in self._ALLOWED:
            raise ValueError(f"unsupported ensemble mixing law {self.nu.kind!r}")
        if self.nu.kind == "dirac" and self.nu.params[0] != 1.0:
            raise ValueError("the degenerate ensemble must sit at x = 1")

    @classmethod
    def single(cls):
        return cls(MixingMeasure.dirac(1.0))

    @classmethod
    def lognormal(cls, sigma):
        return cls(MixingMeasure.lognormal(sigma))

    @classmethod
    def discrete(cls, atoms, weights):
        return cls(MixingMeasure.discrete(atoms, weights))

    def quadrature(self, n_nodes=64):
        """Nodes and weights of int nu(x) (.) dx; n_nodes, the size of the
        lognormal law's Gauss-Hermite rule, must lie in [8, 256] and keep its nodes finite."""
        # numpy's hermgauss returns NaN or zero weights from about 400 nodes,
        # and its companion-matrix eigensolve grows as n^2
        if not 8 <= n_nodes <= 256:
            raise ValueError(f"n_nodes must lie in [8, 256], got {n_nodes!r}")
        if self.nu.kind == "dirac":
            return np.array([1.0]), np.array([1.0])
        if self.nu.kind == "discrete":
            atoms, weights = self.nu.params
            return np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float)
        sigma = self.nu.params[0]
        u, w = _hermgauss(int(n_nodes))
        # ln x normal with mean sigma^2, variance sigma^2: mode at x = 1
        with np.errstate(over="ignore"):
            x = np.exp(sigma * sigma + math.sqrt(2.0) * sigma * u)
        if np.isinf(x[-1]):
            raise ValueError(f"lognormal width {sigma:g} overflows the {int(n_nodes)}-node rule")
        return x, w / math.sqrt(math.pi)


@dataclass(frozen=True)
class ThermoPoint:
    """One row of a thermodynamic sweep (z = 1 iff condensed)."""

    t_star: float
    z: float
    u: float
    cv: float


def _ens_sum(s, log_zx, w):
    # row sums of w * g_s(z^x): one nu average per fugacity
    return (w * specfun.polylog_from_log(s, log_zx)).sum(axis=-1)


def _positive(t_star):
    t = np.asarray(t_star, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError(f"temperature must be positive, got {float(t[~(t > 0.0)].flat[0])!r}")
    return t


def critical_temperature(ens, n_nodes=64):
    """Condensation temperature t_c = [int nu g_{3/2}(1) dx]^{-2/3}; comes
    out nu-independent because z^x -> 1 for every x > 0."""
    x, w = ens.quadrature(n_nodes)
    return float(_ens_sum(1.5, np.zeros_like(x), w)) ** (-2.0 / 3.0)


def solve_fugacity(t_star, ens, n_nodes=64):
    """Root of int nu g_{3/2}(z^x) dx = t^{-3/2} on (0, 1) at each
    temperature, by Newton's method in L = log z.

    In L the constraint's left side F(L) = int nu g_{3/2}(e^{xL}) dx is a
    positive sum of exponentials e^{kxL}, so log F is convex and increasing
    (a log-sum-exp of linear functions). Newton on G(L) = log F(L) - log
    t^{-3/2}, started at the z cap 1 - 1e-12 where G > 0, therefore falls
    monotonically onto the root with no bracket or safeguard; each element
    stops once a step no longer shrinks |G|. Its step is G F / F', with
    F'(L) = int nu x g_{1/2}(e^{xL}) dx.

    A temperature array is solved in one batched pass on (temperatures x
    nodes) arrays; each element follows the scalar iteration and leaves the
    batch on its own, so array results equal scalar calls bit for bit. A
    scalar temperature is a length-1 batch and returns a float.

    The residual reaches rounding level, below 1e-12, except very close to
    the condensation point, where one ulp of z moves the constraint by more
    than that. A root at or beyond the z cap returns the cap itself, the
    condensed-branch signal the thermodynamic functions act on. Raises
    ValueError if any temperature is at or below the condensation
    temperature (there the caller takes z = 1), RuntimeError if the
    iteration does not settle or the constraint or z underflows."""
    t = _positive(t_star)
    ts = t.reshape(-1)
    t_c = critical_temperature(ens, n_nodes)
    if np.any(ts <= t_c):
        raise ValueError(f"t_star = {float(ts[ts <= t_c][0]):g} is in the condensed phase "
                         f"(t_c = {t_c:.6f}); use z = 1")
    x, w = ens.quadrature(n_nodes)
    log_target = -1.5 * np.log(ts)
    log_z = np.full(ts.shape, math.log(_Z_CAP))
    f = _ens_sum(1.5, log_z[:, None] * x, w)
    with np.errstate(divide="ignore"):  # F = 0: z^x underflows, the root is past the cap
        g = np.log(f) - log_target
    solve = live = np.flatnonzero(g > 0.0)
    # 6-13 steps from the cap in practice; the bound only stops a runaway
    for _ in range(100):
        if not live.size:
            break
        step = g[live] * f[live] / _ens_sum(0.5, log_z[live, None] * x, w * x)
        cand = log_z[live] - step
        f_cand = _ens_sum(1.5, cand[:, None] * x, w)
        if np.any(f_cand == 0.0):
            raise RuntimeError("density constraint underflows at t_star = "
                               f"{ts[live[f_cand == 0.0]][0]:g}")
        g_cand = np.log(f_cand) - log_target[live]
        better = np.abs(g_cand) < np.abs(g[live])
        live = live[better]
        log_z[live], f[live], g[live] = cand[better], f_cand[better], g_cand[better]
    if live.size:
        raise RuntimeError(f"fugacity solver did not settle at t_star = {ts[live][0]:g}")
    z = np.full(ts.shape, _Z_CAP)
    z[solve] = np.exp(log_z[solve])
    if np.any(z == 0.0):
        raise RuntimeError(f"fugacity underflows to 0 at t_star = {ts[z == 0.0][0]:g}")
    if t.ndim == 0:
        return float(z[0])
    return z.reshape(t.shape)


def _thermo(t_star, ens, n_nodes):
    # (z, u, c_v) at every temperature of the 1-D array t_star from one
    # batched fugacity solve; formulas in internal_energy and specific_heat,
    # with the z = 1 branch below t_c and where the root sits at the z cap
    t = _positive(t_star)
    z = np.ones_like(t)
    above = t > critical_temperature(ens, n_nodes)
    if above.any():
        z[above] = solve_fugacity(t[above], ens, n_nodes)
    # above t_c, t^{3/2} times a nu average stays finite where t^{5/2} overflows
    u, cv = np.empty_like(t), np.empty_like(t)
    free = z < _Z_CAP
    u[~free] = 1.5 * t[~free] ** 2.5 * _ZETA_52
    cv[~free] = 3.75 * t[~free] ** 1.5 * _ZETA_52
    if free.any():
        x, w = ens.quadrature(n_nodes)
        log_zx = np.log(z[free])[:, None] * x
        i52 = _ens_sum(2.5, log_zx, w)
        g32 = specfun.polylog_from_log(1.5, log_zx)
        t32 = t[free] ** 1.5
        u[free] = 1.5 * t[free] * (t32 * i52)
        ratio = (w * x * g32).sum(axis=-1) / _ens_sum(0.5, log_zx, w * x)
        cv[free] = t32 * (3.75 * i52 - 2.25 * (w * g32).sum(axis=-1) * ratio)
    return z, u, cv


def thermo_point(t_star, ens, n_nodes=64):
    """Bundle (t, z, u, cv) at one temperature: a length-1 batch of the
    sweep core that cv_curve runs on whole grids (see internal_energy and
    specific_heat for the formulas)."""
    z, u, cv = _thermo(np.array([float(t_star)]), ens, n_nodes)
    return ThermoPoint(t_star, float(z[0]), float(u[0]), float(cv[0]))


def internal_energy(t_star, ens, n_nodes=64):
    """u(t) = (3/2) t^{5/2} int nu g_{5/2}(z^x) dx, with g_{5/2}(1) below
    the condensation point."""
    return thermo_point(t_star, ens, n_nodes).u


def specific_heat(t_star, ens, n_nodes=64):
    """c_v(t) by implicit differentiation of the density constraint, with
    dz/dt = -(3/(2t)) <g_{3/2}> z / <x g_{1/2}> folded in:

        c_v = t^{3/2} ((15/4) <g_{5/2}> - (9/4) <g_{3/2}> <x g_{3/2}> / <x g_{1/2}>),

    where <.> is the nu average at fugacity z^x. Below the condensation
    point (and inside the near-critical guard band) the z = 1 branch
    (15/4) t^{3/2} g_{5/2}(1) applies."""
    return thermo_point(t_star, ens, n_nodes).cv


def cv_curve(sigmas, t_grid, n_nodes=64):
    """Specific-heat sweep over ensemble widths.

    sigma = 0 selects the degenerate (single-gas) ensemble, sigma > 0 the
    lognormal superposition. Each row carries the analytic c_v and the
    relative deviation of the central finite difference of u (step 1e-4);
    the two agree away from the immediate vicinity of t_c. Per ensemble the
    grid and both finite-difference neighbours of every point go through
    one batched fugacity solve, and each row equals thermo_point at its
    temperature. Rows are emitted in (sigma, t) grid order with keys
    sigma, T_star, z, u, cv, cv_fd_relerr.
    """
    t_grid = [float(t) for t in t_grid]
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be sorted ascending")
    if any(t <= _FD_STEP for t in t_grid):
        raise ValueError(
            f"temperatures must exceed the finite-difference step {_FD_STEP:g}; "
            f"smallest grid temperature is {min(t_grid)!r}")
    grid = np.array(t_grid)
    n = grid.size
    rows = []
    for sigma in sigmas:
        sigma = float(sigma)
        ens = Ensemble.single() if sigma == 0.0 else Ensemble.lognormal(sigma)
        z, u, cv = _thermo(np.concatenate([grid, grid + _FD_STEP, grid - _FD_STEP]),
                           ens, n_nodes)
        fd = (u[n:2 * n] - u[2 * n:]) / (2.0 * _FD_STEP)
        relerr = np.abs(cv[:n] - fd) / np.maximum(np.abs(cv[:n]), 1e-30)
        rows += [{"sigma": sigma, "T_star": t, "z": float(z[i]), "u": float(u[i]),
                  "cv": float(cv[i]), "cv_fd_relerr": float(relerr[i])}
                 for i, t in enumerate(t_grid)]
    return rows


def sharpness_metric(t_vals, cv_vals, t_c):
    """max |delta cv / delta t| over consecutive grid pairs inside
    (t_c, 1.2 t_c]; larger means a sharper condensation peak."""
    t_vals = np.asarray(t_vals, dtype=float)
    cv_vals = np.asarray(cv_vals, dtype=float)
    best = 0.0
    for i in range(t_vals.size - 1):
        a, b = t_vals[i], t_vals[i + 1]
        if a > t_c and b <= 1.2 * t_c:
            best = max(best, abs(cv_vals[i + 1] - cv_vals[i]) / (b - a))
    return best
