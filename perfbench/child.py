"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds root, workload, seed, tiny, traced, import_only and
work_dir. The child times the import of `pointgas.cli` (the set-up every
CLI invocation pays), then calls `pointgas.cli.main` once per run of the
pass, each into a fresh output directory, then checks the outputs. It
prints one JSON object on stdout. CLI messages go to stderr.
"""

import json
import os
import sys
import time

start = time.perf_counter()
import pointgas.cli  # noqa: E402  (timed: the set-up every CLI invocation pays)
import_s = time.perf_counter() - start


def versions():
    import ctypes

    import mpmath
    import numpy
    import scipy

    blas_threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
        if blas_threads is not None:
            break
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas_threads": blas_threads}


def call_cli(argv):
    try:
        return pointgas.cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed run; the pass goes on
        import traceback
        traceback.print_exc()
        return 1


def run_pass(spec):
    import resource
    import shutil
    from pathlib import Path

    import workloads

    runs = workloads.build(spec["workload"], spec["seed"], spec["tiny"])
    pass_dir = Path(spec["work_dir"]) / f"pass-{os.getpid()}"
    shutil.rmtree(pass_dir, ignore_errors=True)
    tracer = None
    if spec["traced"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    stdout = sys.stdout
    sys.stdout = sys.stderr
    try:
        pass_start = time.perf_counter()
        for i, run in enumerate(runs):
            if tracer:
                tracer.run_id = i
            t0 = time.perf_counter()
            code = call_cli((*run.argv, "--out", str(pass_dir / f"run-{i}")))
            results.append({"seconds": time.perf_counter() - t0, "code": code})
        wall_s = time.perf_counter() - pass_start
    finally:
        sys.stdout = stdout
        if tracer:
            tracer.uninstall()

    hits, above_tc = [], 0
    for i, (run, res) in enumerate(zip(runs, results)):
        out = pass_dir / f"run-{i}"
        files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
        res.update(argv=list(run.argv), known_defect=run.known_defect,
                   statistical=run.statistical, files=len(files),
                   bytes=sum(p.stat().st_size for p in files))
        if res["code"] != 0:
            res["failure"] = f"exit code {res['code']}"
        elif not (out / "manifest.json").is_file():
            res["failure"] = "no manifest.json"
        else:
            try:
                res["failure"] = run.check(out)
            except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
                res["failure"] = f"unreadable output: {exc!r}"
        if res["failure"] is None:
            if run.hit_ref is not None:
                hits.append(abs(json.loads((out / "report.json").read_text())["e_min"]
                                - run.hit_ref) <= workloads.ENERGY_TOL)
            if run.argv[0] == "bec-curve":
                above_tc += workloads.points_above_tc(out)

    result = {
        "wall_s": wall_s,
        "runs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hit_exact": hits,
        "bec.points_above_tc": above_tc,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(wall_s)
        tracer.dump(Path(spec["work_dir"]) / f"spans-{spec['workload']}.jsonl")
    shutil.rmtree(pass_dir, ignore_errors=True)
    return result


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(pointgas.cli.__file__).startswith(src + os.sep):
        print(f"perfbench: pointgas imported from {pointgas.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = {"import_s": import_s, "versions": versions()}
    if not spec["import_only"]:
        result.update(run_pass(spec))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
