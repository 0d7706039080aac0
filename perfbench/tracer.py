"""Per-layer spans measured from outside the program.

`Tracer.install()` rebinds every public (`__all__`) function of the layer
modules to a wrapper that records a span: function, start, end, parent span
and CLI run index. Library code calls its own and its neighbours' public
functions through module attributes, so internal calls are caught as well.
Spans are kept in memory; `layer_metrics` reduces them to per-layer self
times, call counts and unit costs, and `dump` writes them out.
"""

from __future__ import annotations

import json
import time
from functools import wraps

import numpy as np

from pointgas import bec, cli, functionals, quiver, specfun

LAYERS = {"cli": cli, "bec": bec, "specfun": specfun,
          "functionals": functionals, "quiver": quiver}

ALGEBRA = {"quiver.build_fermion_ops", "quiver.current_ops", "quiver.check_commutators",
           "quiver.check_composition", "quiver.vertex_matrices"}


# Meters turn one call's arguments and result into work counts. Their
# parameters mirror the metered function's signature.
def _polylog(result, order, log_z):
    return {"nodes": int(np.size(log_z))}


def _energy_batch(result, up, dn, lattice, p):
    return {"rows": int(np.shape(up)[0])}


def _exact(result, lattice, p, electrons):
    return {"codes": 4 ** lattice.n_sites}


def _anneal(result, lattice, p, electrons, schedule=None, rng=None):
    sweeps = 2000 if schedule is None else int(schedule[2])
    return {"proposals": sweeps * 2 * lattice.n_sites, "accepts": int(result.n_accepted)}


def _mc_char(result, f, sampler, n_samples, rng):
    return {"samples": int(n_samples)}


METERS = {
    "specfun.polylog_from_log": _polylog,
    "quiver.energy_batch": _energy_batch,
    "quiver.ground_search_exact": _exact,
    "quiver.ground_search_anneal": _anneal,
    "functionals.mc_char": _mc_char,
}


class Tracer:
    """Spans and work counts of one traced pass."""

    def __init__(self):
        self.names = []        # function id -> "layer.function"
        self.spans = []        # (function id, start, end, parent index, run index)
        self.counts = {}       # "layer.function.what" -> count
        self.run_id = -1
        self._stack = []
        self._saved = []

    def install(self):
        for layer, mod in LAYERS.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type):
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        meter = METERS.get(name)
        cache_info = getattr(fn, "cache_info", None)

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            misses = cache_info().misses if cache_info else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.run_id)
            if cache_info and cache_info().misses > misses:
                self._count(name + ".cold_calls", 1)
                self._count(name + ".cold_s", end - start)
            if meter:
                for what, n in meter(result, *args, **kwargs).items():
                    self._count(f"{name}.{what}", n)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for fid, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": self.names[fid], "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")

    def layer_metrics(self, wall_s):
        """Per-layer self times, calls, work counts and unit costs of one pass."""
        calls, total, child = {}, {}, [0.0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            name = self.names[fid]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        algebra_s = 0.0
        polylog_in_solves = 0
        for i, (fid, start, end, parent, _) in enumerate(self.spans):
            name = self.names[fid]
            self_s[name.split(".", 1)[0]] += (end - start) - child[i]
            if name in ALGEBRA and (parent < 0 or self.names[self.spans[parent][0]] not in ALGEBRA):
                algebra_s += end - start
            if name == "specfun.polylog_from_log" and self._under(parent, "bec.solve_fugacity"):
                polylog_in_solves += 1

        def n(key):
            return self.counts.get(key, 0)

        def per(num, den, scale):
            return num * scale / den if den else 0.0

        solves = calls.get("bec.solve_fugacity", 0)
        m = {f"{layer}.self_s": s for layer, s in self_s.items()}
        m["harness.self_s"] = wall_s - sum(self_s.values())
        m.update({
            "bec.solve_fugacity.calls": solves,
            "bec.solve_fugacity.ms_per_call": per(total.get("bec.solve_fugacity", 0.0), solves, 1e3),
            "bec.critical_temperature.calls": calls.get("bec.critical_temperature", 0),
            "bec.polylog_calls_per_solve": per(polylog_in_solves, solves, 1.0),
            "specfun.polylog_from_log.calls": calls.get("specfun.polylog_from_log", 0),
            "specfun.polylog_from_log.nodes": n("specfun.polylog_from_log.nodes"),
            "specfun.polylog_from_log.ns_per_node": per(
                total.get("specfun.polylog_from_log", 0.0), n("specfun.polylog_from_log.nodes"), 1e9),
            "specfun.mixing_quadrature.cold_ms": per(
                n("specfun.mixing_quadrature.cold_s"), n("specfun.mixing_quadrature.cold_calls"), 1e3),
            "specfun.sample_mixing_tau.us_per_call": per(
                total.get("specfun.sample_mixing_tau", 0.0), calls.get("specfun.sample_mixing_tau", 0), 1e6),
            "functionals.mc_char.samples": n("functionals.mc_char.samples"),
            "functionals.mc_char.us_per_sample": per(
                total.get("functionals.mc_char", 0.0), n("functionals.mc_char.samples"), 1e6),
            "functionals.girard_functional.ms_per_call": per(
                total.get("functionals.girard_functional", 0.0), calls.get("functionals.girard_functional", 0), 1e3),
            "functionals.char_fractional.calls": calls.get("functionals.char_fractional", 0),
            "functionals.char_fractional.ms_per_call": per(
                total.get("functionals.char_fractional", 0.0), calls.get("functionals.char_fractional", 0), 1e3),
            "functionals.field_integral.calls": calls.get("functionals.field_integral", 0),
            "quiver.ground_search_exact.codes": n("quiver.ground_search_exact.codes"),
            "quiver.ground_search_exact.ns_per_code": per(
                total.get("quiver.ground_search_exact", 0.0), n("quiver.ground_search_exact.codes"), 1e9),
            "quiver.energy_batch.rows": n("quiver.energy_batch.rows"),
            "quiver.energy_batch.ns_per_row": per(
                total.get("quiver.energy_batch", 0.0), n("quiver.energy_batch.rows"), 1e9),
            "quiver.anneal.proposals": n("quiver.ground_search_anneal.proposals"),
            "quiver.anneal.accepts": n("quiver.ground_search_anneal.accepts"),
            "quiver.anneal.accept_frac": per(
                n("quiver.ground_search_anneal.accepts"), n("quiver.ground_search_anneal.proposals"), 1.0),
            "quiver.ground_search_anneal.us_per_move": per(
                total.get("quiver.ground_search_anneal", 0.0), n("quiver.ground_search_anneal.proposals"), 1e6),
            "quiver.algebra_s": algebra_s,
        })
        return m

    def _under(self, idx, name):
        while idx >= 0:
            fid, _, _, parent, _ = self.spans[idx]
            if self.names[fid] == name:
                return True
            idx = parent
        return False
