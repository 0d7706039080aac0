"""Quick self-test of the benchmark, at tiny sizes and with no timing assertion.

Usage, from the root of a checkout: python3 perfbench/selftest.py

It checks that
- every workload, untraced and traced, emits exactly the metrics that
  BENCHMARK.json names, each with its unit, and that its counts repeat;
- the known-defect runs count as failed without making the result incorrect;
- every output check rejects a wrong output;
- the benchmark exits non-zero, printing no result, where there is no program.
Exits 0 when all hold, 1 with the first broken expectation otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402


class Broken(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise Broken(what)


def check_metrics(root, spec):
    for name in wl.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line, record = run.measure(name, seed=1, seconds=0, trace=trace, tiny=True, root=root)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            expect(got == want, f"{name} trace {trace}: metrics {got} != {want}")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in line["metrics"].values()), f"{name}: non-finite metric")
            expect(line["correct"] and line["attempted"] >= 1, f"{name}: {record['failures']}")
            expect(record["counts_repeat"], f"{name}: counts differ between traced passes")
            known = sum(r.known_defect for r in wl.build(name, 1, tiny=True))
            n_pass = sum(len(v) for v in record["pass_wall_s"].values())
            expect(line["failed"] == known * n_pass,
                   f"{name}: {line['failed']} failed, expected {known} known defects x {n_pass} passes")
            print(f"ok  {name} trace {trace}: {len(got)} metrics, "
                  f"{line['attempted']} runs, {line['failed']} failed")


def write(out, name, text):
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text, encoding="utf-8")
    return out


def check_checks(tmp):
    t_lo, t_hi = wl.T_C * 0.9, wl.T_C * 1.5
    header = "sigma,T_star,z,u,cv,cv_fd_relerr\n"
    bad = {
        "bec z below t_c": (lambda o: wl.check_bec(o, 2), "cv_curve.csv",
                            header + f"0.4,{t_lo},0.99,1.0,1.0,0.5\n0.4,{t_hi},0.9,1.0,1.0,1e-6\n"),
        "bec fd error": (lambda o: wl.check_bec(o, 2), "cv_curve.csv",
                         header + f"0.4,{t_lo},1.0,1.0,1.0,0.5\n0.4,{t_hi},0.9,1.0,1.0,1e-3\n"),
        "bec non-finite": (lambda o: wl.check_bec(o, 2), "cv_curve.csv",
                           header + f"0.4,{t_lo},1.0,nan,1.0,0.5\n0.4,{t_hi},0.9,1.0,1.0,1e-6\n"),
        "bec row count": (lambda o: wl.check_bec(o, 3), "cv_curve.csv",
                          header + f"0.4,{t_lo},1.0,1.0,1.0,0.5\n0.4,{t_hi},0.9,1.0,1.0,1e-6\n"),
        "exact energy": (lambda o: wl.check_energy(o, wl.E_3X4), "report.json",
                         json.dumps({"e_min": -33.4})),
        "anneal undercut": (lambda o: wl.check_anneal(o, 2, -2.0), "report.json",
                            json.dumps({"e_min": -2.5, "minimizer_samples": ["ud"]})),
        "anneal electrons": (lambda o: wl.check_anneal(o, 3), "report.json",
                             json.dumps({"e_min": -2.0, "minimizer_samples": ["ud"]})),
        "algebra": (wl.check_algebra, "report.json", json.dumps({"passed": False})),
        "functional": (wl.check_functional, "report.json", json.dumps({"max_abs_diff": 1e-6})),
        "sample": (wl.check_sample, "report.json",
                   json.dumps({"within_three_se": False, "abs_err": 0.1, "mc_stderr": 0.01})),
        "weights negative": (wl.check_weights, "weights.csv", "n,p\n0,0.5\n1,-0.1\n"),
        "weights sum": (wl.check_weights, "weights.csv", "n,p\n0,0.7\n1,0.4\n"),
        "girard": (wl.check_girard, "report.json", json.dumps({"final_limit_distance": 0.01})),
        "potential": (wl.check_potential, "report.json", '{"residual": NaN}'),
    }
    for i, (what, (check, name, text)) in enumerate(bad.items()):
        reason = check(write(tmp / f"bad-{i}", name, text))
        expect(reason is not None, f"output check did not fire on a wrong output: {what}")
        print(f"ok  check fires: {what}: {reason}")


def check_no_program(root, tmp):
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lattice-exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without a program: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  without a program: exit {proc.returncode}")


def main():
    root = Path.cwd().resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    tmp = root / "perfbench" / ".work" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        check_checks(tmp)
        check_no_program(root, tmp)
        check_metrics(root, spec)
    except (Broken, run.BenchError) as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
