"""Command-line driver: reproducible runs of the library's main computations.

Every run is described by a RunConfig (subcommand, seed, output directory,
flat key=value parameters). Parameters come from defaults, then an optional
config file, then command-line pairs; later sources win and unknown keys are
rejected. Each successful run writes its data files plus a manifest.json
that echoes the fully resolved configuration, so a run can be repeated
exactly from its manifest. Handlers only return the text of their files;
run() alone writes them (each staged as <name>.part, then renamed; a failed
run leaves none). No output holds a timestamp, so reruns are byte-identical.

Exit codes: 0 success, 2 invalid configuration, parameters or output
directory, 3 numerical failure (a NaN or infinity bound for JSON included).
"""

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate

from . import bec, functionals, quiver, specfun

__all__ = ["RunConfig", "resolve_config", "run", "emit_svg_lines", "main"]


# ---------------------------------------------------------------------------
# parameter table


def _conv_int(raw):
    return int(raw, 10)


def _conv_float(raw):
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError("must be finite")
    return val


def _conv_floats(raw):
    toks = [t for t in str(raw).split(",") if t != ""]
    if not toks:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_conv_float(t) for t in toks)


def _conv_choice(*options):
    def conv(raw):
        if raw not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return raw
    return conv


def _conv_flag(raw):
    val = int(raw, 10)
    if val not in (0, 1):
        raise ValueError("must be 0 or 1")
    return val


# subcommand -> {key: (converter, default)}; defaults are stored fully typed
PARAM_SPECS = {
    "ml-weights": {
        "alpha": (_conv_float, 0.5),
        "m": (_conv_float, 2.0),
        "n_max": (_conv_int, 64),
    },
    "functional-check": {
        "case": (_conv_choice("exp-mixture", "fractional-series"), "exp-mixture"),
        "alpha": (_conv_float, 0.5),
        "rho_bar": (_conv_float, 0.8),
        "amp": (_conv_float, 1.2),
        "width": (_conv_float, 0.5),
    },
    "sample-measure": {
        "kind": (_conv_choice("poisson", "fractional"), "poisson"),
        "alpha": (_conv_float, 0.5),
        "rho": (_conv_float, 2.0),
        "side": (_conv_float, 1.0),
        "amp": (_conv_float, 1.0),
        "width": (_conv_float, 0.5),
        "n_samples": (_conv_int, 20000),
    },
    "girard-limit": {
        "rho_bar": (_conv_float, 1.0),
        "length": (_conv_float, 1.0),
        "n_max": (_conv_int, 32),
        "betas": (_conv_floats, (0.02, 0.05, 0.2, 1.0, 5.0)),
        "amp": (_conv_float, math.pi),
        "width": (_conv_float, 0.5),
    },
    "bec-curve": {
        "sigmas": (_conv_floats, (0.1, 0.4, 0.8)),
        "tmin": (_conv_float, 0.3),
        "tmax": (_conv_float, 1.2),
        "steps": (_conv_int, 200),
        "n_nodes": (_conv_int, 64),
    },
    "quiver-algebra": {
        "lx": (_conv_int, 2),
        "ly": (_conv_int, 2),
        "boundary": (_conv_choice("open", "periodic"), "open"),
    },
    "quiver-ground": {
        "lx": (_conv_int, 3),
        "ly": (_conv_int, 3),
        "boundary": (_conv_choice("open", "periodic"), "open"),
        "electrons": (_conv_int, 7),
        "u": (_conv_float, 100.0),
        "t": (_conv_float, 1.0),
        "j": (_conv_float, 0.6),
        "k": (_conv_float, 1.8),
        "alpha_q": (_conv_flag, 0),
        "beta_q": (_conv_flag, 1),
        "bond_convention": (_conv_choice("ordered", "unordered"), "ordered"),
        "method": (_conv_choice("auto", "exact", "anneal"), "auto"),
        "temp_init": (_conv_float, 0.0),
        "cooling": (_conv_float, 0.95),
        "sweeps": (_conv_int, 2000),
    },
    "ground-potential": {
        "n_particles": (_conv_int, 2),
        "kind": (_conv_choice("harmonic", "calogero"), "harmonic"),
        "omega": (_conv_float, 1.0),
        "lam": (_conv_float, -1.0),
        "lo": (_conv_float, -1.0),
        "hi": (_conv_float, 1.0),
        "points": (_conv_int, 61),
        "exclusion": (_conv_int, 3),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved run: subcommand, seed, output dir, typed params."""

    subcommand: str
    seed: int
    out_dir: str
    parameters: dict


def _parse_pair(token):
    key, sep, raw = token.partition("=")
    if not sep or not key:
        raise ValueError(f"expected key=value, got {token!r}")
    return key.strip(), raw.strip()


def _read_config_file(path):
    text = Path(path).read_text(encoding="utf-8")
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            pairs.append(_parse_pair(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return pairs


def resolve_config(subcommand, cli_pairs=(), config_path=None, seed=0, out_dir="."):
    """Merge defaults, config-file pairs and command-line pairs (in that
    order, later wins), convert values and reject unknown keys."""
    if subcommand not in PARAM_SPECS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    spec = PARAM_SPECS[subcommand]
    params = {key: default for key, (_, default) in spec.items()}
    file_pairs = _read_config_file(config_path) if config_path is not None else []
    cli_parsed = [_parse_pair(tok) for tok in cli_pairs]
    for key, raw in [*file_pairs, *cli_parsed]:
        if key not in spec:
            raise ValueError(f"unknown parameter {key!r} for {subcommand!r}")
        conv = spec[key][0]
        try:
            params[key] = conv(raw)
        except ValueError as exc:
            raise ValueError(f"invalid value for {key!r}: {raw!r} ({exc})") from None
    return RunConfig(subcommand, seed, str(out_dir), params)


# ---------------------------------------------------------------------------
# deterministic formatters


def _fmt_cell(val):
    if isinstance(val, (bool, np.bool_)):
        raise TypeError("boolean table cells are ambiguous; use ints")
    if isinstance(val, (float, np.floating)):
        return repr(float(val))
    if isinstance(val, (int, np.integer)):
        return str(int(val))
    return str(val)


def _write_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[col]) for col in header))
    return "\n".join(lines) + "\n"


def _jsonable(val):
    if isinstance(val, dict):
        return {str(k): _jsonable(v) for k, v in val.items()}
    if isinstance(val, (list, tuple)):
        return [_jsonable(v) for v in val]
    if isinstance(val, (bool, np.bool_)):
        return bool(val)
    if isinstance(val, (int, np.integer)):
        return int(val)
    if isinstance(val, (float, np.floating)):
        return float(val)
    return val


def _write_json(obj):
    try:  # strict JSON: a NaN or infinity in an output is a numerical failure
        return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise RuntimeError(f"non-finite value in a JSON output ({exc})") from None


# ---------------------------------------------------------------------------
# SVG line plots


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")


def emit_svg_lines(table, x_col, y_col, group_col):
    """Text of a standalone SVG with one polyline per group value.

    table is a nonempty sequence of row dicts; every row must carry the
    three named columns and finite numeric x/y values. Groups keep first-
    appearance order and are listed in the legend. All coordinates are
    formatted with fixed precision, so the output is deterministic.
    """
    rows = list(table)
    if not rows:
        raise ValueError("cannot plot an empty table")
    for col in (x_col, y_col, group_col):
        if any(col not in row for row in rows):
            raise ValueError(f"column {col!r} missing from table rows")
    groups = {}
    for row in rows:
        x, y = float(row[x_col]), float(row[y_col])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("plot values must be finite")
        groups.setdefault(row[group_col], []).append((x, y))

    xs = [x for pts in groups.values() for x, _ in pts]
    ys = [y for pts in groups.values() for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    width, height = 640, 420
    m_l, m_r, m_t, m_b = 70, 150, 20, 50

    def sx(x):
        return m_l + (x - x0) * (width - m_l - m_r) / (x1 - x0)

    def sy(y):
        return height - m_b - (y - y0) * (height - m_t - m_b) / (y1 - y0)

    def lab(v):
        if isinstance(v, (int, float, np.integer, np.floating)):
            return "%.6g" % float(v)
        return str(v)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<line x1="{m_l}" y1="{height - m_b}" x2="{width - m_r}" '
        f'y2="{height - m_b}" stroke="#000000"/>',
        f'<line x1="{m_l}" y1="{m_t}" x2="{m_l}" y2="{height - m_b}" '
        f'stroke="#000000"/>',
    ]
    text = '<text x="%.2f" y="%.2f" font-family="sans-serif" font-size="12"%s>%s</text>'
    parts.append(text % (sx(x0), height - m_b + 16, ' text-anchor="middle"', lab(x0)))
    parts.append(text % (sx(x1), height - m_b + 16, ' text-anchor="middle"', lab(x1)))
    parts.append(text % (m_l - 6, sy(y0) + 4, ' text-anchor="end"', lab(y0)))
    parts.append(text % (m_l - 6, sy(y1) + 4, ' text-anchor="end"', lab(y1)))
    parts.append(text % ((m_l + width - m_r) / 2.0, height - m_b + 34,
                         ' text-anchor="middle"', x_col))
    parts.append(text % (m_l - 6, m_t - 6, ' text-anchor="end"', y_col))
    for idx, (gval, pts) in enumerate(groups.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join("%.2f,%.2f" % (sx(x), sy(y)) for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = m_t + 16 + 18 * idx
        lx = width - m_r + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(text % (lx + 24, ly, "", f"{group_col}={lab(gval)}"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Input caps: larger inputs exit 2 before any allocation.  Each keeps the
# peak RSS above a bare interpreter near 200 MB, as measured on a 2-vCPU
# Linux VM (Python 3.11, numpy 2.4).
# girard-limit n_max: the doubled run's (4 n_max + 1)^2 complex matrices
# peak at about 220 MB.
_GIRARD_N_MAX = 512
# ml-weights n_max: the (mixing nodes, n_max + 1) Poisson table peaks at
# about 225 MB for alpha = 0.01, the rule with the most nodes (2376).
_ML_WEIGHTS_N_MAX = 4096
# sample-measure n_samples: counts, mixing draws and MC values take about
# 52 bytes a sample; 4,000,000 fractional samples peak at about 215 MB.
_SAMPLE_N_MAX = 4_000_000
# bec-curve solve cells over 64, steps x sigmas x max(n_nodes, 64) / 64: one
# sigma at 20000 steps of 64 nodes peaks at about 180 MB, mostly the solve.
_BEC_ROWS_MAX = 20_000


# subcommand handlers: validate and compute, then return {filename: text}


def _indicator(amp, width):
    return functionals.TestFunction(terms=(
        {"shape": "indicator", "center": width / 2.0, "width": width,
         "amplitude": amp},))


def _cmd_ml_weights(cfg):
    p = cfg.parameters
    if p["n_max"] > _ML_WEIGHTS_N_MAX:
        raise ValueError(f"n_max must not exceed {_ML_WEIGHTS_N_MAX}: the Poisson "
                         f"table would need more than about 225 MB")
    weights = functionals.weights_fractional(p["alpha"], p["m"], p["n_max"])
    n = np.arange(p["n_max"] + 1)
    rows = [{"n": int(k), "p": float(w)} for k, w in zip(n, weights)]
    report = {
        "weight_sum": float(weights.sum()),
        "mean_count": float((n * weights).sum()),
        "tail_deficit": float(1.0 - weights.sum()),
    }
    return {"weights.csv": _write_csv(["n", "p"], rows), "report.json": _write_json(report)}


def _exp_mixture_quad(a, rho_bar):
    # E[exp(rho*A)] against the exponential mixing law, as a plain integral
    def dens(r):
        return math.exp(-r / rho_bar) / rho_bar

    re_val, _ = integrate.quad(
        lambda r: math.exp(r * a.real) * math.cos(r * a.imag) * dens(r),
        0.0, np.inf, limit=200)
    im_val, _ = integrate.quad(
        lambda r: math.exp(r * a.real) * math.sin(r * a.imag) * dens(r),
        0.0, np.inf, limit=200)
    return complex(re_val, im_val)


def _cmd_functional_check(cfg):
    p = cfg.parameters
    if not 0.0 < p["width"] <= 1.0:
        raise ValueError("width must lie in (0, 1]")
    if p["rho_bar"] <= 0.0:
        raise ValueError("rho_bar must be positive")
    box = functionals.Box((1.0,))
    unit = functionals.IntensityMeasure(box, 1.0)
    rows = []
    for scale in np.linspace(0.2, 1.0, 9):
        amp = float(p["amp"] * scale)
        f = _indicator(amp, p["width"])
        if cfg.parameters["case"] == "exp-mixture":
            # independent direct quadrature vs the closed-form mixture value
            a = functionals.field_integral(f, box)
            ref = functionals.char_compound(
                f, unit, functionals.MixingMeasure.exponential(p["rho_bar"]))
            quad_val = _exp_mixture_quad(a, p["rho_bar"])
        else:
            # mixing-law quadrature vs the contour evaluation
            mu = functionals.IntensityMeasure(box, p["rho_bar"])
            a = functionals.field_integral(f, box)
            taus, w = specfun.mixing_quadrature(p["alpha"])
            quad_val = complex((w * np.exp(taus * (p["rho_bar"] * a))).sum())
            ref = functionals.char_fractional(f, mu, p["alpha"])
        rows.append({
            "amplitude": amp,
            "quadrature_re": quad_val.real,
            "quadrature_im": quad_val.imag,
            "reference_re": ref.real,
            "reference_im": ref.imag,
            "abs_diff": abs(quad_val - ref),
        })
    header = ["amplitude", "quadrature_re", "quadrature_im",
              "reference_re", "reference_im", "abs_diff"]
    report = {
        "case": p["case"],
        "n_points": len(rows),
        "max_abs_diff": max(r["abs_diff"] for r in rows),
    }
    return {"check.csv": _write_csv(header, rows), "report.json": _write_json(report)}


def _cmd_sample_measure(cfg):
    p = cfg.parameters
    if p["n_samples"] > _SAMPLE_N_MAX:
        raise ValueError(f"n_samples must not exceed {_SAMPLE_N_MAX}: the sample "
                         f"arrays would need more than about 215 MB")
    if not 0.0 < p["width"] <= p["side"]:
        raise ValueError("width must lie in (0, side]")
    box = functionals.Box((p["side"],))
    mu = functionals.IntensityMeasure(box, p["rho"])
    f = _indicator(p["amp"], p["width"])
    mc_rng, count_rng = np.random.default_rng(cfg.seed).spawn(2)
    if p["kind"] == "poisson":
        exact = functionals.char_poisson(f, mu)
        sampler = lambda r: functionals.sample_poisson_config(mu, r)
        counts = count_rng.poisson(mu.mass, size=p["n_samples"])
        order = 1.0
    else:
        # the cached rule that weights_fractional reads below rejects an order
        # it cannot resolve; find that out before the sampling
        specfun.mixing_quadrature(p["alpha"])
        exact = functionals.char_fractional(f, mu, p["alpha"])
        sampler = lambda r: functionals.sample_fractional_config(mu, p["alpha"], r)
        taus = specfun.sample_mixing_tau(p["alpha"], count_rng, size=p["n_samples"])
        counts = count_rng.poisson(taus * mu.mass)
        order = p["alpha"]
    est, stderr = functionals.mc_char(f, sampler, p["n_samples"], mc_rng)

    n_hist = min(int(counts.max()), 60)
    model = functionals.weights_fractional(order, mu.mass, n_hist)
    freq = np.bincount(np.minimum(counts, n_hist), minlength=n_hist + 1)
    rows = [{"count": k, "observed": freq[k] / p["n_samples"], "expected": float(model[k])}
            for k in range(n_hist)]
    abs_err = abs(est - exact)
    report = {
        "kind": p["kind"],
        "mc_re": est.real, "mc_im": est.imag, "mc_stderr": stderr,
        "exact_re": exact.real, "exact_im": exact.imag,
        "abs_err": abs_err,
        "within_three_se": bool(abs_err <= 3.0 * stderr),
    }
    return {"counts.csv": _write_csv(["count", "observed", "expected"], rows),
            "report.json": _write_json(report)}


def _cmd_girard_limit(cfg):
    p = cfg.parameters
    if p["n_max"] > _GIRARD_N_MAX:
        raise ValueError(
            f"n_max must not exceed {_GIRARD_N_MAX}: the doubled run's dense mode "
            f"matrices would need more than about 220 MB")
    if not 0.0 < p["width"] <= p["length"]:
        raise ValueError("width must lie in (0, length]")
    if any(b <= 0.0 for b in p["betas"]):
        raise ValueError("betas must be positive")
    f = _indicator(p["amp"], p["width"])
    # zero-temperature limit: only the zero mode stays occupied, hence
    # 1 / (1 - rho_bar * int (e^{if} - 1) dx)
    a = p["width"] * (cmath.exp(1j * p["amp"]) - 1.0)
    target = 1.0 / (1.0 - p["rho_bar"] * a)
    rows = []
    for beta in p["betas"]:
        base = functionals.GirardParams(p["length"], p["n_max"], beta, p["rho_bar"])
        fine = functionals.GirardParams(p["length"], 2 * p["n_max"], beta, p["rho_bar"])
        val = functionals.girard_functional(f, base)
        val2 = functionals.girard_functional(f, fine)
        rows.append({
            "beta": float(beta),
            "value_re": val.real, "value_im": val.imag,
            "doubled_re": val2.real, "doubled_im": val2.imag,
            "truncation": abs(val2 - val),
            "limit_distance": abs(val - target),
        })
    header = ["beta", "value_re", "value_im", "doubled_re", "doubled_im",
              "truncation", "limit_distance"]
    report = {
        "zero_t_target_re": target.real,
        "zero_t_target_im": target.imag,
        "final_limit_distance": rows[-1]["limit_distance"],
        "final_truncation": rows[-1]["truncation"],
    }
    return {"girard.csv": _write_csv(header, rows), "report.json": _write_json(report)}


def _cmd_bec_curve(cfg):
    p = cfg.parameters
    if p["steps"] < 2:
        raise ValueError("steps must be at least 2")
    if p["steps"] * len(p["sigmas"]) * max(p["n_nodes"], 64) > _BEC_ROWS_MAX * 64:
        raise ValueError(f"steps x sigmas x max(n_nodes, 64) must not exceed "
                         f"{_BEC_ROWS_MAX} x 64: the grid would need over 180 MB")
    if not 0.0 < p["tmin"] < p["tmax"]:
        raise ValueError("need 0 < tmin < tmax")
    if any(s < 0.0 for s in p["sigmas"]):
        raise ValueError("sigmas must be nonnegative")
    t_grid = np.linspace(p["tmin"], p["tmax"], p["steps"])
    rows = bec.cv_curve(p["sigmas"], t_grid, n_nodes=p["n_nodes"])
    header = ["sigma", "T_star", "z", "u", "cv", "cv_fd_relerr"]
    return {"cv_curve.csv": _write_csv(header, rows),
            "cv_curve.svg": emit_svg_lines(rows, "T_star", "cv", "sigma")}


def _cmd_quiver_algebra(cfg):
    p = cfg.parameters
    lat = quiver.Lattice(p["lx"], p["ly"], p["boundary"])
    car = quiver.build_fermion_ops(lat).car_residual()
    comm = quiver.check_commutators(lat)
    comp = quiver.check_composition(lat)
    rows = [{"check": "car_anticommutators", "residual": car}]
    for name in sorted(comm.residuals):
        rows.append({"check": name, "residual": comm.residuals[name]})
    rows.extend([
        {"check": "composition", "residual": comp.composition_residual},
        {"check": "roundtrip", "residual": comp.roundtrip_residual},
        {"check": "idempotence", "residual": comp.idempotence_residual},
        {"check": "complement", "residual": comp.complement_residual},
    ])
    worst = max(r["residual"] for r in rows)
    report = {
        "max_residual": worst,
        "n_commutator_checks": comm.n_checks,
        "n_composition_checks": comp.n_checks,
        "coincident_gap": comp.coincident_gap,
        "tolerance": 1e-12,
        "passed": bool(worst <= 1e-12),
    }
    return {"algebra.csv": _write_csv(["check", "residual"], rows),
            "report.json": _write_json(report)}


def _cmd_quiver_ground(cfg):
    p = cfg.parameters
    lat = quiver.Lattice(p["lx"], p["ly"], p["boundary"])
    qp = quiver.QuiverParams(U=p["u"], t=p["t"], k=p["k"], J=p["j"],
                             alpha_q=p["alpha_q"], beta_q=p["beta_q"],
                             bond_convention=p["bond_convention"])
    method = p["method"]
    if method == "auto":
        method = "exact" if quiver.exact_search_fits(lat) else "anneal"
    schedule = None
    if method == "exact":
        e_min, minimizers = quiver.ground_search_exact(lat, qp, p["electrons"])
        diags = quiver.pairing_diagnostics(minimizers, lat)
        n_degenerate = len(minimizers)
    else:
        temp = p["temp_init"]
        if temp <= 0.0:
            temp = 2.0 * qp.t if qp.t > 0.0 else 1.0
        schedule = (temp, p["cooling"], p["sweeps"])
        result = quiver.ground_search_anneal(
            lat, qp, p["electrons"], schedule=schedule,
            rng=np.random.default_rng(cfg.seed))
        e_min = result.best_energy
        minimizers = (result.best_occupation,)
        diags = quiver.pairing_diagnostics(minimizers, lat)
        n_degenerate = 1
    # summary row reports the guaranteed pairing level: minima over the
    # minimizer set for hole count and adjacency, maximum for cluster size
    hole_count = min(d.hole_count for d in diags)
    adjacent = min(d.adjacent_pairs for d in diags)
    diagonal = min(d.diagonal_pairs for d in diags)
    cluster = max(d.largest_cluster for d in diags)
    est_10, est_01 = quiver.energy_estimates(lat.n_sites, hole_count, qp)
    row = {"Lx": lat.lx, "Ly": lat.ly, "boundary": lat.boundary,
           "electrons": p["electrons"], "H": hole_count,
           "alpha_q": qp.alpha_q, "beta_q": qp.beta_q, "U": qp.U,
           "t": qp.t, "J": qp.J, "k": qp.k,
           "bond_convention": qp.bond_convention, "E_min": e_min,
           "n_degenerate": n_degenerate, "adjacent_hole_pairs": adjacent,
           "max_cluster": cluster}
    report = {
        "method": method,
        "e_min": e_min,
        "n_degenerate": n_degenerate,
        "hole_count": hole_count,
        "adjacent_hole_pairs": adjacent,
        "diagonal_hole_pairs": diagonal,
        "max_cluster": cluster,
        "estimate_flag_10": est_10,
        "estimate_flag_01": est_01,
        "schedule": list(schedule) if schedule else None,
        "minimizer_samples": [str(occ) for occ in minimizers[:12]],
    }
    return {"ground.csv": _write_csv(list(row), [row]), "report.json": _write_json(report)}


def _cmd_ground_potential(cfg):
    p = cfg.parameters
    if not 1 <= p["n_particles"] <= 3:
        raise ValueError("n_particles must lie in [1, 3]")
    if p["points"] < 5:
        raise ValueError("points must be at least 5")
    if p["lo"] >= p["hi"]:
        raise ValueError("need lo < hi")
    if p["omega"] <= 0.0:
        raise ValueError("omega must be positive")
    if p["points"] ** p["n_particles"] > 250_000:
        raise ValueError("grid too large: points^n_particles exceeds 250000")
    field = functionals.GroundStateField(
        p["n_particles"], p["kind"], omega=p["omega"], lam=p["lam"])
    grid = np.linspace(p["lo"], p["hi"], p["points"])
    v = functionals.ground_state_potential(field, grid)
    resid = functionals.residual_check(field, grid, exclusion_cells=p["exclusion"])
    finite = v[np.isfinite(v)]
    if not finite.size:
        raise RuntimeError("the potential has no finite value on the grid")
    mesh = np.meshgrid(*([grid] * p["n_particles"]), indexing="ij")
    cols = [f"x{i + 1}" for i in range(p["n_particles"])]
    flat = [m.ravel() for m in mesh] + [v.ravel()]
    rows = [{**{c: float(vals[j]) for c, vals in zip(cols, flat)},
             "v": float(flat[-1][j])} for j in range(flat[0].size)]
    report = {
        "residual": resid,
        "n_rows": int(flat[0].size),
        "v_min_finite": float(finite.min()),
        "v_max_finite": float(finite.max()),
    }
    return {"potential.csv": _write_csv(cols + ["v"], rows),
            "report.json": _write_json(report)}


_HANDLERS = {
    "ml-weights": _cmd_ml_weights,
    "functional-check": _cmd_functional_check,
    "sample-measure": _cmd_sample_measure,
    "girard-limit": _cmd_girard_limit,
    "bec-curve": _cmd_bec_curve,
    "quiver-algebra": _cmd_quiver_algebra,
    "quiver-ground": _cmd_quiver_ground,
    "ground-potential": _cmd_ground_potential,
}


def run(config):
    """Execute one resolved run; returns the process exit code. Sole writer of
    the output directory: stages every file, then renames; a failure removes them."""
    out = Path(config.out_dir)
    files, placed = {}, []
    try:
        out.mkdir(parents=True, exist_ok=True)
        files = _HANDLERS[config.subcommand](config)
        files["manifest.json"] = _write_json({
            "subcommand": config.subcommand,
            "seed": config.seed,
            "parameters": config.parameters,
            "outputs": sorted(files),
        })
        for name, text in files.items():
            (out / (name + ".part")).write_text(text, encoding="utf-8")
        for name in files:
            os.replace(out / (name + ".part"), out / name)
            placed.append(name)
        return 0
    except (OSError, ValueError) as exc:
        code, err = 2, exc
    except (RuntimeError, OverflowError, FloatingPointError, MemoryError) as exc:
        code, err = 3, exc
    finally:
        if len(placed) < len(files):
            for name in files:
                (out / (name if name in placed else name + ".part")).unlink(missing_ok=True)
    print(f"error: {err}", file=sys.stderr)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pointgas",
        description="Point-measure functionals, condensation curves and "
                    "lattice hole pairing: reproducible computation runs.")
    parser.add_argument("subcommand", choices=sorted(PARAM_SPECS))
    parser.add_argument("params", nargs="*", metavar="key=value",
                        help="parameter overrides, e.g. alpha=0.5")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="key=value file applied before the overrides")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (default 0)")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default current directory)")
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args.subcommand, args.params,
                                config_path=args.config, seed=args.seed,
                                out_dir=args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
