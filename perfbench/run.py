"""pointgas benchmark: whole CLI runs end to end, and per-layer costs from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each pass of a workload runs in one fresh child interpreter
(perfbench/child.py), one child at a time, and calls `pointgas.cli.main` on
the workload's generated inputs. Passes repeat until S seconds have gone
by (at least two). With --trace 0 the passes are untraced and the metrics
are the end-to-end ones; with --trace 1 traced and untraced passes
alternate and the metrics are the per-layer ones, taken from the traced
passes. The last line of stdout is one JSON object: correct, attempted,
failed, metrics. The line before it is the full record: every metric's
median, quartiles and sample count, the failed runs, the
environment stamp and the load average around each pass. `--workload all`
prints every metric of every workload as a table. perfbench/NOTES.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2
MIN_SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s", "slowest_run_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}

PER_LAYER = {
    "cli.self_s": "s", "cli.bytes_written": "B", "cli.files_written": "count",
    "bec.self_s": "s", "bec.solve_fugacity.calls": "count",
    "bec.solve_fugacity.ms_per_call": "ms", "bec.points_above_tc": "count",
    "bec.solves_per_point": "solves/point", "bec.critical_temperature.calls": "count",
    "bec.polylog_calls_per_solve": "calls/solve",
    "specfun.self_s": "s", "specfun.polylog_from_log.calls": "count",
    "specfun.polylog_from_log.nodes": "count", "specfun.polylog_from_log.ns_per_node": "ns",
    "specfun.mixing_quadrature.cold_ms": "ms", "specfun.sample_mixing_tau.us_per_call": "us",
    "functionals.self_s": "s", "functionals.mc_char.samples": "count",
    "functionals.mc_char.us_per_sample": "us", "functionals.girard_functional.ms_per_call": "ms",
    "functionals.char_fractional.calls": "count", "functionals.char_fractional.ms_per_call": "ms",
    "functionals.field_integral.calls": "count",
    "quiver.self_s": "s", "quiver.ground_search_exact.codes": "count",
    "quiver.ground_search_exact.ns_per_code": "ns", "quiver.energy_batch.rows": "count",
    "quiver.energy_batch.ns_per_row": "ns", "quiver.ground_search_anneal.us_per_move": "us",
    "quiver.anneal.proposals": "count", "quiver.anneal.accepts": "count",
    "quiver.anneal.accept_frac": "ratio", "quiver.anneal.hit_exact_frac": "ratio",
    "quiver.algebra_s": "s",
    "harness.self_s": "s", "trace_overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not measure: no program, a child failed, or out of time."""


def summary(values):
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def source_digest(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


class Session:
    """Runs the children of one benchmark invocation inside the checkout."""

    def __init__(self, root, workload, seed, tiny):
        self.root, self.workload, self.seed, self.tiny = root, workload, seed, tiny
        self.work_dir = root / "perfbench" / ".work"
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)

    def child(self, traced=False, import_only=False):
        spec = {"root": str(self.root), "workload": self.workload, "seed": self.seed,
                "tiny": self.tiny, "traced": traced, "import_only": import_only,
                "work_dir": str(self.work_dir)}
        left = TIME_LIMIT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError(f"out of time after {TIME_LIMIT_S} s")
        load_before = os.getloadavg()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                  cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child pass exceeded the {TIME_LIMIT_S} s limit") from None
        if proc.returncode != 0:
            raise BenchError(f"child pass exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["loadavg"] = [load_before, os.getloadavg()]
        return result

    def elapsed(self):
        return time.monotonic() - self.started


def layer_samples(traced, untraced):
    """Per-layer metrics of each traced pass, with the ones derived from outputs."""
    samples = {}
    for p in traced:
        layers = dict(p["layers"])
        layers["cli.bytes_written"] = sum(r["bytes"] for r in p["runs"])
        layers["cli.files_written"] = sum(r["files"] for r in p["runs"])
        points = layers["bec.points_above_tc"] = p["bec.points_above_tc"]
        layers["bec.solves_per_point"] = layers["bec.solve_fugacity.calls"] / points if points else 0.0
        hits = p["hit_exact"]
        layers["quiver.anneal.hit_exact_frac"] = sum(hits) / len(hits) if hits else 0.0
        for name, value in layers.items():
            samples.setdefault(name, []).append(value)
    samples["trace_overhead_frac"] = [statistics.median(p["wall_s"] for p in traced)
                                      / statistics.median(p["wall_s"] for p in untraced) - 1.0]
    return samples


def measure(workload, seed, seconds, trace, tiny=False, root=None):
    """Run one benchmark invocation; returns (result line, full record)."""
    root = Path(root or os.getcwd()).resolve()
    if not (root / "src" / "pointgas" / "cli.py").is_file():
        raise BenchError(f"no pointgas sources under {root / 'src'}")
    session = Session(root, workload, seed, tiny)
    untraced, traced = [], []
    while True:
        if trace and len(traced) <= len(untraced):
            traced.append(session.child(traced=True))
        else:
            untraced.append(session.child())
        enough = len(untraced) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if enough and session.elapsed() >= seconds:
            break
    passes = untraced + traced
    runs = [r for p in passes for r in p["runs"]]
    failures = [r for r in runs if r["failure"] is not None]
    unexpected = [r for r in failures if not (r["known_defect"] or r["statistical"])]

    if trace:
        samples, units = layer_samples(traced, untraced), PER_LAYER
    else:
        setups = [p["import_s"] for p in passes]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(session.child(import_only=True)["import_s"])
        samples = {
            "wall_s": [p["wall_s"] for p in passes],
            "slowest_run_s": [max(r["seconds"] for r in p["runs"]) for p in passes],
            "setup_s": setups,
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
            "ok_frac": [1.0 - len(failures) / len(runs)],
        }
        units = END_TO_END
    missing = set(units) - set(samples)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    stats = {name: {**summary(samples[name]), "unit": unit} for name, unit in units.items()}

    # work counts and bytes written must repeat exactly from pass to pass
    counts_repeat = all(len(set(samples[name])) == 1
                        for name, unit in units.items() if unit in ("count", "B"))
    line = {
        "correct": not unexpected and counts_repeat,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {name: {"value": s["median"], "unit": s["unit"]} for name, s in stats.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "pass_wall_s": {"untraced": [p["wall_s"] for p in untraced],
                        "traced": [p["wall_s"] for p in traced]},
        "metrics": stats,
        "failed_frac": len(failures) / len(runs),
        "failures": [{"argv": r["argv"], "reason": r["failure"],
                      "known_defect": r["known_defect"], "statistical": r["statistical"]}
                     for r in failures],
        "counts_repeat": counts_repeat,
        "environment": {
            "git_commit": git_commit(root), "src_sha256": source_digest(root),
            **passes[0]["versions"], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        },
        "loadavg": [p["loadavg"] for p in passes],
    }
    return line, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            line, record = measure(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(record))
            print(json.dumps(line))
            return 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                _, record = measure(workload, args.seed, args.seconds, trace)
                print(f"{workload} (trace {trace}, failed_frac {record['failed_frac']:.4g})")
                for name, s in record["metrics"].items():
                    print(f"  {name:44s} {s['median']:14.6g} {s['unit']:12s} "
                          f"[{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}")
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
