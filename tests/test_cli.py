"""Tests for the command-line driver: config resolution, exit codes,
deterministic outputs and the SVG line plotter."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from pointgas import cli, functionals


def run_cli(tmp_path, subcommand, *pairs, seed=0, name="out", config=None):
    out = tmp_path / name
    argv = [subcommand, *pairs, "--seed", str(seed), "--out", str(out)]
    if config is not None:
        argv += ["--config", str(config)]
    code = cli.main(argv)
    return code, out


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def read_json(path):
    return json.loads(path.read_text())


class TestResolveConfig:
    def test_defaults_fill_every_key(self):
        for sub, spec in cli.PARAM_SPECS.items():
            cfg = cli.resolve_config(sub)
            assert set(cfg.parameters) == set(spec)
            assert cfg.seed == 0

    def test_cli_pair_overrides_default(self):
        cfg = cli.resolve_config("ml-weights", ["alpha=0.75", "n_max=8"])
        assert cfg.parameters["alpha"] == 0.75
        assert cfg.parameters["n_max"] == 8
        assert cfg.parameters["m"] == 2.0

    def test_file_then_cli_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("alpha=0.7\n# comment\n\nm=3.0\n")
        cfg = cli.resolve_config("ml-weights", ["alpha=0.9"],
                                 config_path=cfg_file)
        assert cfg.parameters["alpha"] == 0.9
        assert cfg.parameters["m"] == 3.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            cli.resolve_config("ml-weights", ["foo=1"])

    def test_unknown_key_in_file_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bogus=2\n")
        with pytest.raises(ValueError, match="unknown parameter"):
            cli.resolve_config("ml-weights", config_path=cfg_file)

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            cli.resolve_config("ml-weights", ["alpha"])

    def test_bad_numeric_value_rejected(self):
        with pytest.raises(ValueError, match="invalid value for 'alpha'"):
            cli.resolve_config("ml-weights", ["alpha=zzz"])
        with pytest.raises(ValueError, match="invalid value for 'n_max'"):
            cli.resolve_config("ml-weights", ["n_max=3.5"])

    def test_bad_choice_and_flag_rejected(self):
        with pytest.raises(ValueError, match="one of"):
            cli.resolve_config("sample-measure", ["kind=weird"])
        with pytest.raises(ValueError, match="0 or 1"):
            cli.resolve_config("quiver-ground", ["alpha_q=2"])

    def test_float_list_parsing(self):
        cfg = cli.resolve_config("bec-curve", ["sigmas=0.1,0.4,0.8"])
        assert cfg.parameters["sigmas"] == (0.1, 0.4, 0.8)
        with pytest.raises(ValueError, match="comma-separated"):
            cli.resolve_config("bec-curve", ["sigmas="])

    def test_nonfinite_float_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            cli.resolve_config("ml-weights", ["m=inf"])

    def test_seed_range(self):
        with pytest.raises(ValueError, match="seed"):
            cli.resolve_config("ml-weights", seed=-1)
        with pytest.raises(ValueError, match="seed"):
            cli.resolve_config("ml-weights", seed=2 ** 64)
        cfg = cli.resolve_config("ml-weights", seed=2 ** 64 - 1)
        assert cfg.seed == 2 ** 64 - 1

    def test_unknown_subcommand(self):
        with pytest.raises(ValueError, match="unknown subcommand"):
            cli.resolve_config("frobnicate")


class TestEmitSvgLines:
    TABLE = [
        {"x": 0.0, "y": 1.0, "g": 0.1},
        {"x": 1.0, "y": 2.0, "g": 0.1},
        {"x": 0.0, "y": 0.5, "g": 0.4},
        {"x": 1.0, "y": 1.5, "g": 0.4},
        {"x": 0.0, "y": 0.2, "g": 0.8},
        {"x": 1.0, "y": 3.0, "g": 0.8},
    ]

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cli.emit_svg_lines([], "x", "y", "g")

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError, match="'sigma' missing"):
            cli.emit_svg_lines(self.TABLE, "x", "y", "sigma")
        with pytest.raises(ValueError, match="'t' missing"):
            cli.emit_svg_lines(self.TABLE, "t", "y", "g")

    def test_nonfinite_rejected(self):
        bad = [{"x": 0.0, "y": math.nan, "g": 1}]
        with pytest.raises(ValueError, match="finite"):
            cli.emit_svg_lines(bad, "x", "y", "g")

    def test_single_row_degenerate_polyline(self):
        root = ET.fromstring(cli.emit_svg_lines([{"x": 2.0, "y": 3.0, "g": "only"}],
                                                "x", "y", "g"))
        polys = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polys) == 1
        assert len(polys[0].get("points").split()) == 1

    def test_one_polyline_per_group_and_legend(self):
        text = cli.emit_svg_lines(self.TABLE, "x", "y", "g")
        root = ET.fromstring(text)
        polys = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polys) == 3
        for gval in ("g=0.1", "g=0.4", "g=0.8"):
            assert gval in text
        # axis extremes are labeled
        assert ">0<" in text and ">1<" in text and ">3<" in text

    def test_deterministic_bytes(self):
        assert (cli.emit_svg_lines(self.TABLE, "x", "y", "g")
                == cli.emit_svg_lines(self.TABLE, "x", "y", "g"))


class TestExitCodes:
    def test_unknown_key_exits_2_without_outputs(self, tmp_path):
        code, out = run_cli(tmp_path, "ml-weights", "foo=1")
        assert code == 2
        assert not out.exists() or not list(out.iterdir())

    def test_bad_value_exits_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "bec-curve", "tmin=-0.5")
        assert code == 2

    def test_numerical_failure_exits_3_without_outputs(self, tmp_path, monkeypatch):
        def fail(*args):
            raise functionals.QuadratureError("injected convergence failure")

        monkeypatch.setattr(functionals, "char_fractional", fail)
        code, out = run_cli(tmp_path, "functional-check",
                            "case=fractional-series", "alpha=0.25",
                            "rho_bar=24", "amp=1.5707963")
        assert code == 3
        assert not list(out.iterdir())

    def test_memory_error_exits_3_without_outputs(self, tmp_path, monkeypatch):
        def fail(*args):
            raise MemoryError("injected allocation failure")

        monkeypatch.setattr(functionals, "girard_functional", fail)
        code, out = run_cli(tmp_path, "girard-limit")
        assert code == 3
        assert not list(out.iterdir())

    def test_out_naming_existing_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("keep\n")
        code = cli.main(["ml-weights", "n_max=8", "--out", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert target.read_text() == "keep\n"

    def test_unwritable_output_file_removes_staged_files(self, tmp_path):
        # a directory squatting on report.json fails the last rename; every
        # file of the run, staged or already renamed, is removed
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        code = cli.main(["ml-weights", "n_max=8", "--out", str(out)])
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["report.json"]

    def test_missing_config_file_exits_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "ml-weights",
                          config=tmp_path / "absent.cfg")
        assert code == 2

    def test_bad_subcommand_argparse_exit(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2


# one cheap run per subcommand, for the failure-injection test
SMALL_RUNS = {
    "ml-weights": ("n_max=8",),
    "functional-check": (),
    "sample-measure": ("n_samples=200",),
    "girard-limit": ("betas=5", "n_max=8"),
    "bec-curve": ("sigmas=0.4", "tmin=0.45", "tmax=0.7", "steps=5"),
    "quiver-algebra": ("lx=2", "ly=1"),
    "quiver-ground": (),
    "ground-potential": ("points=11",),
}


@pytest.mark.parametrize("sub", sorted(cli.PARAM_SPECS))
def test_failure_after_first_output_leaves_no_files(tmp_path, monkeypatch, sub):
    """Every handler builds at least two artifacts. The first is produced
    normally; the next artifact's formatter raises, as a numerical failure
    in the last computation would. The run must exit 3 with nothing in the
    output directory."""
    calls = []

    def failing_after_first(fmt):
        def wrapped(*args):
            calls.append(args)
            if len(calls) > 1:
                raise RuntimeError("injected failure")
            return fmt(*args)
        return wrapped

    for name in ("_write_csv", "_write_json", "emit_svg_lines"):
        monkeypatch.setattr(cli, name, failing_after_first(getattr(cli, name)))
    code, out = run_cli(tmp_path, sub, *SMALL_RUNS[sub])
    assert len(calls) == 2
    assert code == 3
    assert not list(out.iterdir())


class TestMlWeights:
    def test_outputs_and_normalization(self, tmp_path):
        code, out = run_cli(tmp_path, "ml-weights", "alpha=0.5", "m=2",
                            "n_max=64")
        assert code == 0
        header, rows = read_csv(out / "weights.csv")
        assert header == ["n", "p"]
        assert len(rows) == 65
        report = read_json(out / "report.json")
        assert abs(report["weight_sum"] - 1.0) < 1e-10
        assert report["mean_count"] > 0.0

    def test_order_near_one_exits_3_without_outputs(self, tmp_path, capsys):
        # the mixing-law rule fails its moment gate
        start = time.perf_counter()
        code, out = run_cli(tmp_path, "ml-weights", "alpha=0.999")
        assert time.perf_counter() - start < 5.0
        assert code == 3
        assert "moments" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_order_098_keeps_its_mass(self, tmp_path):
        # the rule used to lose 1.8 % of its mass here and still exit 0
        code, out = run_cli(tmp_path, "ml-weights", "alpha=0.98")
        assert code == 0
        assert abs(read_json(out / "report.json")["weight_sum"] - 1.0) < 1e-8

    def test_manifest_echoes_resolved_config(self, tmp_path):
        code, out = run_cli(tmp_path, "ml-weights", "alpha=0.25", seed=9)
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["subcommand"] == "ml-weights"
        assert manifest["seed"] == 9
        assert manifest["parameters"] == {"alpha": 0.25, "m": 2.0, "n_max": 64}
        listed = set(manifest["outputs"])
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert listed == on_disk

    def test_oversized_n_max_exits_2_without_outputs(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "ml-weights", "alpha=0.01", "n_max=4097")
        assert code == 2
        assert "4096" in capsys.readouterr().err
        assert not list(out.iterdir())


class TestFunctionalCheck:
    def test_exp_mixture_quadrature_matches_closed_form(self, tmp_path):
        code, out = run_cli(tmp_path, "functional-check", "case=exp-mixture")
        assert code == 0
        header, rows = read_csv(out / "check.csv")
        assert header[:3] == ["amplitude", "quadrature_re", "quadrature_im"]
        assert len(rows) == 9
        assert read_json(out / "report.json")["max_abs_diff"] < 1e-10

    def test_fractional_series_matches_mixture(self, tmp_path):
        code, out = run_cli(tmp_path, "functional-check",
                            "case=fractional-series", "alpha=0.5",
                            "rho_bar=1.5")
        assert code == 0
        assert read_json(out / "report.json")["max_abs_diff"] < 1e-10

    def test_fractional_series_wide_argument(self, tmp_path):
        # small alpha with |Z| up to 17: no series summation reaches it
        code, out = run_cli(tmp_path, "functional-check",
                            "case=fractional-series", "alpha=0.1",
                            "rho_bar=24", "amp=1.5707963")
        assert code == 0
        assert read_json(out / "report.json")["max_abs_diff"] < 1e-10

    def test_width_validation(self, tmp_path):
        code, _ = run_cli(tmp_path, "functional-check", "width=1.5")
        assert code == 2


class TestSampleMeasure:
    def test_poisson_within_three_se(self, tmp_path):
        code, out = run_cli(tmp_path, "sample-measure", "n_samples=3000",
                            seed=11)
        assert code == 0
        report = read_json(out / "report.json")
        assert report["within_three_se"] is True
        assert report["abs_err"] <= 3.0 * report["mc_stderr"]

    def test_fractional_counts_match_weights(self, tmp_path):
        code, out = run_cli(tmp_path, "sample-measure", "kind=fractional",
                            "alpha=0.5", "n_samples=4000", seed=11)
        assert code == 0
        header, rows = read_csv(out / "counts.csv")
        assert header == ["count", "observed", "expected"]
        for row in rows[:5]:
            assert abs(float(row["observed"]) - float(row["expected"])) < 0.05

    def test_fractional_order_near_one_exits_3_without_outputs(self, tmp_path, monkeypatch):
        # the order is rejected before any sample is drawn
        def sampled(*args, **kwargs):
            raise AssertionError("mc_char reached before the order was checked")

        monkeypatch.setattr(functionals, "mc_char", sampled)
        start = time.perf_counter()
        code, out = run_cli(tmp_path, "sample-measure", "kind=fractional", "alpha=0.999")
        assert time.perf_counter() - start < 10.0
        assert code == 3
        assert not list(out.iterdir())

    def test_width_beyond_box_rejected(self, tmp_path):
        code, _ = run_cli(tmp_path, "sample-measure", "side=0.5", "width=0.9")
        assert code == 2

    def test_oversized_n_samples_exits_2_without_outputs(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "sample-measure", "n_samples=4000001")
        assert code == 2
        assert "4000000" in capsys.readouterr().err
        assert not list(out.iterdir())


class TestGirardLimit:
    def test_zero_t_limit_and_truncation(self, tmp_path):
        code, out = run_cli(tmp_path, "girard-limit", "betas=0.05,0.2,5")
        assert code == 0
        header, rows = read_csv(out / "girard.csv")
        assert len(rows) == 3
        report = read_json(out / "report.json")
        assert abs(report["zero_t_target_re"] - 0.5) < 1e-12
        assert report["final_limit_distance"] < 1e-3
        assert report["final_truncation"] < 1e-6
        # distance to the limit shrinks as beta grows
        dists = [float(r["limit_distance"]) for r in rows]
        assert dists[1] < dists[0] and dists[2] < dists[1]

    def test_beta_validation(self, tmp_path):
        code, _ = run_cli(tmp_path, "girard-limit", "betas=5,-1")
        assert code == 2

    def test_oversized_n_max_exits_2_without_outputs(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "girard-limit", "n_max=100000")
        assert code == 2
        assert "512" in capsys.readouterr().err
        assert not list(out.iterdir())


class TestBecCurve:
    def test_csv_and_svg(self, tmp_path):
        code, out = run_cli(tmp_path, "bec-curve", "sigmas=0.1,0.4",
                            "tmin=0.45", "tmax=0.7", "steps=6")
        assert code == 0
        header, rows = read_csv(out / "cv_curve.csv")
        assert header == ["sigma", "T_star", "z", "u", "cv", "cv_fd_relerr"]
        assert len(rows) == 12
        # condensed rows pin the fugacity at 1
        assert float(rows[0]["z"]) == 1.0
        root = ET.fromstring((out / "cv_curve.svg").read_text())
        polys = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polys) == 2

    def test_steps_validation(self, tmp_path):
        code, _ = run_cli(tmp_path, "bec-curve", "steps=1")
        assert code == 2

    def test_oversized_grid_exits_2_without_outputs(self, tmp_path, capsys):
        # 6667 steps x 3 sigmas = 20001 rows; the cap is on the product
        code, out = run_cli(tmp_path, "bec-curve", "steps=6667")
        assert code == 2
        assert "20000" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_grid_cap_counts_nodes(self, tmp_path, capsys):
        # 6000 steps x 1 sigma x 256 nodes exceeds 20000 x 64 solve cells
        code, out = run_cli(tmp_path, "bec-curve", "sigmas=0.4", "steps=6000",
                            "n_nodes=256")
        assert code == 2
        assert "20000" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("n_nodes", ["7", "257", "400"])
    def test_n_nodes_out_of_range_exits_2_without_outputs(self, tmp_path, n_nodes):
        # hermgauss returns NaN or zero weights from about 400 nodes
        code, out = run_cli(tmp_path, "bec-curve", "sigmas=0.4", "steps=4",
                            f"n_nodes={n_nodes}")
        assert code == 2
        assert not list(out.iterdir())

    def test_tmin_below_fd_step_exits_2_without_outputs(self, tmp_path, capsys):
        # the finite-difference neighbour T - 1e-4 would be negative
        code, out = run_cli(tmp_path, "bec-curve", "tmin=0.00005", "tmax=0.5",
                            "steps=3")
        assert code == 2
        err = capsys.readouterr().err
        assert "5e-05" in err and "0.0001" in err
        assert "-5e-05" not in err
        assert not list(out.iterdir())


class TestQuiverAlgebra:
    def test_all_residuals_vanish(self, tmp_path):
        code, out = run_cli(tmp_path, "quiver-algebra", "lx=2", "ly=2")
        assert code == 0
        header, rows = read_csv(out / "algebra.csv")
        assert header == ["check", "residual"]
        assert len(rows) == 10
        report = read_json(out / "report.json")
        assert report["passed"] is True
        assert report["max_residual"] <= 1e-12

    def test_oversized_lattice_rejected(self, tmp_path):
        code, _ = run_cli(tmp_path, "quiver-algebra", "lx=3", "ly=3")
        assert code == 2


class TestQuiverGround:
    def test_exact_summary_row(self, tmp_path):
        code, out = run_cli(tmp_path, "quiver-ground")
        assert code == 0
        header, rows = read_csv(out / "ground.csv")
        assert header == ["Lx", "Ly", "boundary", "electrons", "H", "alpha_q",
                          "beta_q", "U", "t", "J", "k", "bond_convention",
                          "E_min", "n_degenerate", "adjacent_hole_pairs",
                          "max_cluster"]
        row = rows[0]
        assert float(row["E_min"]) == -24.0
        assert int(row["n_degenerate"]) == 64
        assert int(row["H"]) == 2
        assert int(row["adjacent_hole_pairs"]) == 0
        report = read_json(out / "report.json")
        assert report["method"] == "exact"
        assert report["diagonal_hole_pairs"] == 1
        assert abs(report["estimate_flag_01"] - (-21.6)) < 1e-12
        assert len(report["minimizer_samples"]) == 12

    def test_anneal_never_undercuts_exact(self, tmp_path):
        code, out = run_cli(tmp_path, "quiver-ground", "method=anneal",
                            "sweeps=400", seed=5)
        assert code == 0
        report = read_json(out / "report.json")
        assert report["method"] == "anneal"
        assert report["e_min"] >= -24.0 - 1e-12
        assert report["schedule"] == [2.0, 0.95, 400]

    def test_auto_falls_back_to_anneal(self, tmp_path):
        code, out = run_cli(tmp_path, "quiver-ground", "lx=4", "ly=4",
                            "electrons=12", "sweeps=200", seed=3)
        assert code == 0
        assert read_json(out / "report.json")["method"] == "anneal"

    def test_exact_3x4(self, tmp_path):
        code, out = run_cli(tmp_path, "quiver-ground", "lx=3", "ly=4", "electrons=10")
        assert code == 0
        report = read_json(out / "report.json")
        assert report["method"] == "exact"
        assert report["e_min"] == -34.0
        assert report["n_degenerate"] == 16

    def test_auto_anneal_reruns_are_byte_identical(self, tmp_path):
        pairs = ("lx=4", "ly=4", "electrons=12", "sweeps=50")
        code1, out1 = run_cli(tmp_path, "quiver-ground", *pairs, seed=9, name="a")
        code2, out2 = run_cli(tmp_path, "quiver-ground", *pairs, seed=9, name="b")
        assert code1 == 0 and code2 == 0
        assert read_json(out1 / "report.json")["method"] == "anneal"
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_electron_validation(self, tmp_path):
        code, _ = run_cli(tmp_path, "quiver-ground", "electrons=99")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ("ml-weights", "alpha=0.999"),
    ("ground-potential", "n_particles=2", "kind=calogero", "lam=1e300"),
    ("ground-potential", "n_particles=3", "kind=harmonic", "omega=1e300"),
])
def test_expected_overflow_prints_only_the_error_line(tmp_path, capsys, argv):
    # a warning would reach stderr ahead of the error line in a plain process
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(tmp_path, *argv)
    assert code == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


class TestGroundPotential:
    def test_harmonic_residual_and_grid(self, tmp_path):
        code, out = run_cli(tmp_path, "ground-potential", "points=31")
        assert code == 0
        header, rows = read_csv(out / "potential.csv")
        assert header == ["x1", "x2", "v"]
        assert len(rows) == 31 * 31
        report = read_json(out / "report.json")
        assert report["residual"] < 0.05
        assert report["v_max_finite"] >= report["v_min_finite"]

    def test_calogero_runs(self, tmp_path):
        code, out = run_cli(tmp_path, "ground-potential", "kind=calogero",
                            "lam=-1.0", "points=41")
        assert code == 0
        assert math.isfinite(read_json(out / "report.json")["residual"])

    def test_empty_residual_mask_exits_3_without_outputs(self, tmp_path):
        code, out = run_cli(tmp_path, "ground-potential", "kind=calogero",
                            "lam=1", "points=5")
        assert code == 3
        assert not list(out.iterdir())

    @pytest.mark.parametrize("pairs", [
        ("n_particles=2", "kind=calogero", "lam=1e300"),   # no finite potential value
        ("n_particles=3", "kind=harmonic", "omega=1e300"),  # NaN residual
    ])
    def test_nonfinite_results_exit_3_without_outputs(self, tmp_path, pairs):
        code, out = run_cli(tmp_path, "ground-potential", *pairs)
        assert code == 3
        assert not list(out.iterdir())

    def test_grid_cap(self, tmp_path):
        code, _ = run_cli(tmp_path, "ground-potential", "n_particles=3",
                          "points=101")
        assert code == 2


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestDeterminism:
    CASES = [
        ("ml-weights", ("n_max=32",), 0),
        ("functional-check", ("case=exp-mixture",), 0),
        ("sample-measure", ("kind=fractional", "n_samples=2000"), 11),
        ("girard-limit", ("betas=5,20", "n_max=8"), 0),
        ("bec-curve", ("sigmas=0.4", "tmin=0.45", "tmax=0.7", "steps=5"), 0),
        ("quiver-ground", ("method=anneal", "sweeps=200"), 5),
    ]

    @pytest.mark.parametrize("sub,pairs,seed", CASES,
                             ids=[c[0] for c in CASES])
    def test_reruns_are_byte_identical(self, tmp_path, sub, pairs, seed):
        code1, out1 = run_cli(tmp_path, sub, *pairs, seed=seed, name="a")
        code2, out2 = run_cli(tmp_path, sub, *pairs, seed=seed, name="b")
        assert code1 == 0 and code2 == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_seed_changes_sampled_outputs(self, tmp_path):
        _, out1 = run_cli(tmp_path, "sample-measure", "n_samples=2000",
                          seed=1, name="a")
        _, out2 = run_cli(tmp_path, "sample-measure", "n_samples=2000",
                          seed=2, name="b")
        assert (out1 / "counts.csv").read_bytes() != (out2 / "counts.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() != (out2 / "report.json").read_bytes()


class TestManifestCompleteness:
    """Every parameter is echoed in the manifest and, when perturbed, either
    changes the outputs or is a documented no-op for that configuration."""

    # keys that deliberately leave the outputs unchanged for the base config
    NO_OPS = {
        ("ml-weights", "seed"),          # deterministic command, seed unused
        ("functional-check", "seed"),
        ("functional-check", "alpha"),   # exp-mixture case has no order
    }
    PERTURBED = {
        "alpha": "0.35", "m": "4.0", "n_max": "20", "seed": "77",
        "case": "fractional-series", "rho_bar": "1.3", "amp": "0.9",
        "width": "0.3",
    }

    @pytest.mark.parametrize("sub", ["ml-weights", "functional-check"])
    def test_each_key_moves_outputs_or_is_documented(self, tmp_path, sub):
        base_pairs = ()
        _, base = run_cli(tmp_path, sub, *base_pairs, name="base")
        manifest = read_json(base / "manifest.json")
        keys = list(manifest["parameters"]) + ["seed"]
        for key in keys:
            if key == "seed":
                code, probe = run_cli(tmp_path, sub, name=f"p_{key}", seed=77)
            else:
                pair = f"{key}={self.PERTURBED[key]}"
                code, probe = run_cli(tmp_path, sub, pair, name=f"p_{key}")
            assert code == 0
            base_files = {k: v for k, v in tree_bytes(base).items()
                          if k != "manifest.json"}
            probe_files = {k: v for k, v in tree_bytes(probe).items()
                           if k != "manifest.json"}
            if (sub, key) in self.NO_OPS:
                assert base_files == probe_files
            else:
                assert base_files != probe_files

    def test_seed_is_echoed_and_effective_for_sampling(self, tmp_path):
        _, out = run_cli(tmp_path, "sample-measure", "n_samples=2000", seed=42)
        assert read_json(out / "manifest.json")["seed"] == 42


def test_cli_import_does_not_load_mpmath():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pointgas.cli; assert 'mpmath' not in sys.modules"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
