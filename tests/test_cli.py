"""Tests for the command-line driver: config resolution, exit codes,
deterministic outputs and the SVG line plotter."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from pointgas import cli, functionals, quiver


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


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime budget exceeded: {elapsed:.2f}s"


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


def rowwise_csv(header, rows):
    """The row-at-a-time CSV writer the column formatter must reproduce."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cli._fmt_cell(row[col]) for col in header))
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    def test_columns_match_rowwise_cells(self):
        floats = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-300, 5e-324, 0.1, -2.5e17]
        n = len(floats)
        read_only = np.array(floats[3:] + floats[:3])
        read_only.flags.writeable = False
        table = {
            "f_array": np.array(floats),
            "f_list": floats[::-1],
            "f32": np.linspace(-1.0, 1.0, n, dtype=np.float32),
            "i_array": np.arange(n) - 4,
            "i_list": [2 ** 70, -1, 0, 3, 4, 5, 6, 7, 8],
            "s": ["open", "periodic", "", "u.d2", "a b", "x", "y", "z", "w"],
            "mixed": [1, 2.0, "two", np.float64(0.3), np.int32(-4), np.float32(0.1),
                      np.uint8(255), None, 1 + 2j],
            "f_big_endian": np.array(floats, dtype=">f8"),
            "f_strided": np.array(floats * 2)[::2],
            "f_read_only": read_only,
            "f16": np.array([0.1, -0.0, 0.0, 65504.0, 6e-08, 1 / 3, -2.5, math.inf, math.nan],
                            dtype=np.float16),
            # -0.0 and 0.0 twice, NaNs of either sign, quiet and signalling payloads
            "zeros_nans": np.array([1 << 63, 0, 0x7FF8000000000000, 0xFFF8000000000000,
                                    0x7FF0000000000001, 1 << 63, 0, 0xFFF0000000000002,
                                    0x7FF8000000000000], dtype=np.uint64).view(np.float64),
        }
        rows = [{col: vals[i] for col, vals in table.items()} for i in range(n)]
        text = "".join(cli._write_csv(table))
        assert text == rowwise_csv(list(table), rows)
        assert text.splitlines()[1].startswith("inf,-2.5e+17,-1.0,-4,")

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tables_match_rowwise_cells(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 40))
        specials = np.array([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf])

        def floats(dtype, stride):
            vals = rng.standard_normal(n * stride) * 10.0 ** rng.integers(-30, 30, n * stride)
            vals = np.where(rng.random(n * stride) < 0.3, rng.choice(specials, n * stride), vals)
            # repeats exercise the one-repr-per-bit-pattern table
            vals = np.where(rng.random(n * stride) < 0.3, np.roll(vals, 1), vals)
            with np.errstate(over="ignore"):    # narrow dtypes overflow to inf
                return vals.astype(dtype)[::stride]

        makers = [
            lambda: floats(np.float64, 1),
            lambda: floats(np.float64, 3),
            lambda: floats(np.float32, 2),
            lambda: floats(np.float16, 1),
            lambda: floats(np.float16, 2),
            lambda: floats(np.float64, 1).tolist(),
            lambda: rng.integers(-2 ** 62, 2 ** 62, n).tolist(),
            lambda: rng.integers(-5, 5, 2 * n)[::2],
        ]
        picks = rng.integers(0, len(makers), int(rng.integers(1, 7)))
        table = {f"c{j}": makers[k]() for j, k in enumerate(picks)}
        rows = [{col: vals[i] for col, vals in table.items()} for i in range(n)]
        assert "".join(cli._write_csv(table)) == rowwise_csv(list(table), rows)

    def test_zero_rows_give_the_header_line(self):
        assert "".join(cli._write_csv({"a": [], "b": np.array([])})) == "a,b\n"

    @pytest.mark.parametrize("column", [[1, True], np.array([False, True]),
                                        [np.bool_(True), 0]])
    def test_bool_column_rejected(self, column):
        with pytest.raises(TypeError, match="boolean"):
            cli._write_csv({"a": [1, 2], "flag": column})

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            cli._write_csv({"a": [1, 2], "b": [1.0]})

    @pytest.mark.parametrize("n_rows", [0, 1, cli._CSV_ROWS - 1, cli._CSV_ROWS,
                                        cli._CSV_ROWS + 1, 3 * cli._CSV_ROWS + 7])
    def test_chunk_boundaries(self, n_rows):
        rng = np.random.default_rng(n_rows)
        table = {"i": np.arange(n_rows), "f": rng.standard_normal(n_rows),
                 "s": [f"r{k % 5}" for k in range(n_rows)]}
        rows = [{col: vals[k] for col, vals in table.items()} for k in range(n_rows)]
        chunks = list(cli._write_csv(table))
        # the header line, then _CSV_ROWS rows a chunk
        assert chunks[0] == "i,f,s\n"
        assert [c.count("\n") for c in chunks[1:]] == [
            min(cli._CSV_ROWS, n_rows - lo) for lo in range(0, n_rows, cli._CSV_ROWS)]
        assert "".join(chunks) == rowwise_csv(list(table), rows)

    def test_chunks_hold_one_block_of_text_at_a_time(self):
        # the 68,921-row calogero table: consumed chunk by chunk, the writer
        # never holds the whole 3.8 MB text
        field = functionals.GroundStateField(3, "calogero", omega=1.0, lam=-1.0)
        mesh, v, _ = functionals._ground_state_map(field, np.linspace(-1.0, 1.0, 41), 3)
        table = {f"x{i + 1}": m.ravel() for i, m in enumerate(mesh)}
        table["v"] = v.ravel()
        del mesh, v
        tracemalloc.start()
        try:
            size = sum(len(chunk) for chunk in cli._write_csv(table))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 3_700_000
        assert peak < 6e6, f"writer traced {peak / 1e6:.1f} MB"

    def test_ground_potential_bytes_frozen(self, tmp_path):
        # SHA-256 of the 68,921-row table written by the row-wise formatter
        code, out = run_cli(tmp_path, "ground-potential", "n_particles=3", "points=41",
                            "kind=calogero")
        assert code == 0
        digest = hashlib.sha256((out / "potential.csv").read_bytes()).hexdigest()
        assert digest == "9a5e08dab83b75cda18b7520195979e82733143da61ba51bd921f9fbf552752e"

    def test_each_distinct_float_formatted_once(self, tmp_path, monkeypatch):
        calls = 0

        def counting_repr(val):
            nonlocal calls
            calls += 1
            return repr(val)

        # the module global shadows the builtin inside cli
        monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
        code, _ = run_cli(tmp_path, "ground-potential", "n_particles=3", "points=41",
                          "kind=calogero")
        assert code == 0
        # 41 distinct values in each mesh column, 2,232 in v; 275,684 cells
        assert 0 < calls <= 41 * 3 + 2232


class TestWriteJson:
    def test_numpy_scalars_in_nested_containers(self):
        obj = {"b": [np.float32(0.1), np.int64(-3), (np.uint8(255), np.bool_(True))],
               "a": {"y": (np.float32(2.5), [np.int64(2 ** 40)]), "x": np.bool_(False)}}
        assert cli._write_json(obj) == (
            '{\n  "a": {\n    "x": false,\n    "y": [\n      2.5,\n      [\n'
            '        1099511627776\n      ]\n    ]\n  },\n  "b": [\n'
            '    0.10000000149011612,\n    -3,\n    [\n      255,\n      true\n'
            '    ]\n  ]\n}\n')

    def test_numpy_nan_is_a_numerical_failure(self):
        with pytest.raises(RuntimeError, match="non-finite value in a JSON output"):
            cli._write_json({"v": [np.float32("nan")]})

    def test_array_is_rejected(self):
        with pytest.raises(TypeError):
            cli._write_json({"v": np.zeros(2)})


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

        monkeypatch.setattr(functionals, "char_compound", fail)
        code, out = run_cli(tmp_path, "sample-measure", "kind=fractional", "n_samples=200")
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

    def test_malformed_config_line_exits_2_naming_the_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("alpha=0.7\n# comment\noops\n")
        code, out = run_cli(tmp_path, "ml-weights", config=cfg_file)
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: {cfg_file}:3: expected key=value, got 'oops'\n")

    def test_nonfinite_json_value_exits_3_without_outputs(self, tmp_path, monkeypatch,
                                                          capsys):
        # a NaN weight reaches report.json through the weight sum
        monkeypatch.setattr(functionals, "weights_fractional",
                            lambda alpha, m, n_max: np.full(n_max + 1, math.nan))
        code, out = run_cli(tmp_path, "ml-weights", "n_max=8")
        assert code == 3
        assert not list(out.iterdir())
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: non-finite value in a JSON output (")

    def test_failure_mid_stream_removes_the_staged_file(self, tmp_path, monkeypatch, capsys):
        write_csv = cli._write_csv
        out = tmp_path / "out"

        def failing_stream(columns):
            chunks = write_csv(columns)

            def stream():
                yield next(chunks)
                # the header has gone to the staged file; fail before the rows
                assert [p.name for p in out.iterdir()] == ["potential.csv.part"]
                raise RuntimeError("injected failure mid-stream")
            return stream()

        monkeypatch.setattr(cli, "_write_csv", failing_stream)
        code = cli.main(["ground-potential", "points=11", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "error: injected failure mid-stream\n"
        assert not list(out.iterdir())

    def test_bad_subcommand_argparse_exit(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (("functional-check", "rho_bar=0"), "rho_bar must be positive"),
    (("girard-limit", "width=2"), "width must lie in (0, length]"),
    (("bec-curve", "sigmas=-0.1"), "sigmas must be nonnegative"),
    (("ground-potential", "n_particles=4"), "n_particles must lie in [1, 3]"),
    (("ground-potential", "points=4"), "points must be at least 5"),
    (("ground-potential", "lo=1", "hi=0"), "need lo < hi"),
    (("ground-potential", "omega=0"), "omega must be positive"),
    (("ground-potential", "kind=calogero", "exclusion=-1"), "exclusion must be >= 0"),
])
def test_invalid_parameters_exit_2_without_outputs(tmp_path, capsys, argv, message):
    code, out = run_cli(tmp_path, *argv)
    assert code == 2
    assert not list(out.iterdir())
    assert capsys.readouterr().err == f"error: {message}\n"


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

    @pytest.mark.parametrize("alpha", ["0.001", "0.994"])
    def test_orders_near_the_range_ends_run(self, tmp_path, alpha):
        # both need the mixing-law phi panels graded toward phi = pi
        code, out = run_cli(tmp_path, "ml-weights", f"alpha={alpha}")
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

    def test_exp_mixture_oscillating_integrand(self, tmp_path):
        # rho_bar |A| reaches 13.6 at amp = 1.2: an oscillating oracle integrand
        code, out = run_cli(tmp_path, "functional-check", "rho_bar=24", "amp=1.2")
        assert code == 0
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

    @pytest.mark.parametrize("alpha", ["0.25", "0.5"])
    def test_fractional_series_past_the_intensity_cap(self, tmp_path, alpha):
        # rho_bar = 60 is over the samplers' mass cap 50, but |Z| <= 6 here
        code, out = run_cli(tmp_path, "functional-check", "case=fractional-series",
                            f"alpha={alpha}", "rho_bar=60", "amp=0.1")
        assert code == 0
        assert read_json(out / "report.json")["max_abs_diff"] < 1e-10

    def test_fractional_series_past_the_domain_exits_2(self, tmp_path, capsys):
        # |Z| = 120 sin(amp / 2) passes 50 first at amp = 0.9
        code, out = run_cli(tmp_path, "functional-check", "case=fractional-series",
                            "rho_bar=60", "amp=1", "width=1")
        assert code == 2
        assert capsys.readouterr().err == "error: argument |Z| = 52.2 outside the domain (<= 50)\n"
        assert not list(out.iterdir())

    def test_width_validation(self, tmp_path):
        code, _ = run_cli(tmp_path, "functional-check", "width=1.5")
        assert code == 2

    def test_oracle_over_its_gate_exits_3_without_outputs(self, tmp_path, capsys,
                                                          monkeypatch):
        # the direct exp-mixture quadrature at one node per panel, capped at
        # 64 nodes, reports an estimate above its 1e-7 gate
        monkeypatch.setattr(functionals, "_FIELD_ORDER", 1)
        monkeypatch.setattr(functionals, "_FIELD_NODES", 64)
        code, out = run_cli(tmp_path, "functional-check", "case=exp-mixture")
        assert code == 3
        assert not list(out.iterdir())
        assert re.fullmatch(r"error: exponential mixture quadrature failed to converge "
                            r"\(error estimate \d\.\d\de-0[1-7]\)\n",
                            capsys.readouterr().err)


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

    def test_fractional_argument_past_the_domain_exits_2(self, tmp_path, capsys):
        # the mass 30 is under the intensity cap, but |Z| = 30 |e^{i pi} - 1| = 60
        code, out = run_cli(tmp_path, "sample-measure", "kind=fractional", "rho=30",
                            "side=1", "amp=3.14159", "width=1")
        assert code == 2
        assert capsys.readouterr().err == "error: argument |Z| = 60 outside the domain (<= 50)\n"
        assert not list(out.iterdir())

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

    def test_million_fractional_samples_within_budget(self, tmp_path):
        with budget(10.0):
            code, out = run_cli(tmp_path, "sample-measure", "kind=fractional",
                                "n_samples=1000000")
        assert code == 0
        assert (out / "manifest.json").exists()

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

    def test_defaults_truncation_is_mode_truncation_only(self, tmp_path):
        # at the default betas n_max = 32 already holds every occupied mode
        # (59 at beta = 0.02), so doubling n_max moves no value
        code, out = run_cli(tmp_path, "girard-limit")
        assert code == 0
        header, rows = read_csv(out / "girard.csv")
        assert len(rows) == 5
        assert all(float(r["truncation"]) <= 1e-12 for r in rows)

    @pytest.mark.parametrize("pairs, calls", [((), 5), (("n_max=4", "betas=0.02"), 2)])
    def test_doubled_run_reuses_equal_modes(self, tmp_path, monkeypatch, pairs, calls):
        # at the defaults the doubled run occupies exactly the base run's
        # modes, so its determinant is the base one; at n_max=4 the base
        # run is truncated and both are computed
        made = []
        girard = functionals.girard_functional
        monkeypatch.setattr(functionals, "girard_functional",
                            lambda f, params: made.append(params) or girard(f, params))
        code, _ = run_cli(tmp_path, "girard-limit", *pairs)
        assert code == 0
        assert len(made) == calls

    def test_beta_validation(self, tmp_path):
        code, _ = run_cli(tmp_path, "girard-limit", "betas=5,-1")
        assert code == 2

    def test_oversized_n_max_exits_2_without_outputs(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "girard-limit", "n_max=100001")
        assert code == 2
        assert "100000" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_n_max_at_cap_runs(self, tmp_path):
        code, out = run_cli(tmp_path, "girard-limit", "n_max=100000", "betas=5")
        assert code == 0
        assert (out / "girard.csv").exists()

    def test_overflowing_determinant_exits_3_without_warnings(self, tmp_path, capsys):
        # here log|det| is about 981: past the double range, not a pole
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "girard-limit", "length=10", "width=10",
                                "n_max=128", "betas=1.72e-5", "rho_bar=24")
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"error: girard determinant exceeds the double range "
                            r"\(log\|det\| = 981\.\d\)", err[0])
        assert not list(out.iterdir())

    @pytest.mark.parametrize("pairs", [("length=1000", "n_max=100000"),
                                       ("n_max=2000", "betas=1e-5,1")])
    def test_too_many_occupied_modes_exits_2_without_outputs(self, tmp_path, capsys,
                                                             pairs):
        # the occupied modes grow as length / sqrt(beta), whatever n_max is
        code, out = run_cli(tmp_path, "girard-limit", *pairs)
        assert code == 2
        assert "1500" in capsys.readouterr().err
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

    def test_high_temperature_range(self, tmp_path):
        # z reaches 1e-14 at T = 1e3; t_c = zeta(3/2)^(-2/3) = 0.5272
        code, out = run_cli(tmp_path, "bec-curve", "sigmas=0.8", "tmin=0.3",
                            "tmax=1000", "steps=5")
        assert code == 0
        _, rows = read_csv(out / "cv_curve.csv")
        above = [r for r in rows if float(r["T_star"]) > 1.001 * 0.527201068797149]
        assert len(above) == 4
        assert all(float(r["cv_fd_relerr"]) < 1e-6 for r in above)

    def test_very_high_temperature_rows_finite(self, tmp_path):
        code, out = run_cli(tmp_path, "bec-curve", "sigmas=0.8", "tmin=100",
                            "tmax=100000", "steps=4")
        assert code == 0
        _, rows = read_csv(out / "cv_curve.csv")
        assert len(rows) == 4
        assert all(math.isfinite(float(v)) for r in rows for v in r.values())

    def test_wide_ensemble_takes_the_cap_branch_without_warnings(self, tmp_path):
        # at sigma = 20 z^x underflows at every node at the z cap, so the root
        # lies beyond the cap and every row above t_c is on the cap branch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "bec-curve", "sigmas=20", "steps=2")
        assert code == 0
        _, rows = read_csv(out / "cv_curve.csv")
        assert [float(r["z"]) for r in rows] == [1.0, 1.0 - 1e-12]

    def test_overflowing_nodes_exit_2_without_warnings(self, tmp_path, capsys):
        # at sigma = 30 the largest of 64 Gauss-Hermite nodes overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "bec-curve", "sigmas=30", "steps=2")
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: lognormal width 30 overflows the 64-node rule"]
        assert not list(out.iterdir())

    def test_classical_limit_without_overflow(self, tmp_path):
        # t^{5/2} overflows from about T = 1e123; u / T and c_v tend to 3/2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "bec-curve", "sigmas=0", "tmin=1",
                                "tmax=1e150", "steps=2")
        assert code == 0
        _, rows = read_csv(out / "cv_curve.csv")
        hot = rows[-1]
        assert float(hot["u"]) / float(hot["T_star"]) == pytest.approx(1.5, rel=1e-12)
        assert float(hot["cv"]) == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("sigma,tmax", [("0", "1e300"), ("0.4", "1e50")])
    def test_underflowing_fugacity_exits_3_without_outputs(self, tmp_path, capsys,
                                                           sigma, tmax):
        code, out = run_cli(tmp_path, "bec-curve", f"sigmas={sigma}", "tmin=1",
                            f"tmax={tmax}", "steps=2")
        assert code == 3
        assert f"t_star = {float(tmax):g}" in capsys.readouterr().err
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

    def test_operators_built_once(self, tmp_path, monkeypatch):
        builds = []
        build = quiver.build_fermion_ops
        monkeypatch.setattr(quiver, "build_fermion_ops",
                            lambda lat: builds.append(lat) or build(lat))
        code, _ = run_cli(tmp_path, "quiver-algebra", "lx=2", "ly=1")
        assert code == 0
        assert len(builds) == 1

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

    @pytest.mark.parametrize("method", ["exact", "anneal"])
    def test_overflowing_couplings_exit_2_without_outputs(self, tmp_path, capsys, method):
        code, out = run_cli(tmp_path, "quiver-ground", "u=1e308", "j=1e308",
                            f"method={method}", "sweeps=2")
        assert code == 2
        assert capsys.readouterr().err == ("error: couplings too large: energies on "
                                           "this lattice would overflow\n")
        assert not list(out.iterdir())

    def test_anneal_never_undercuts_exact(self, tmp_path):
        code, out = run_cli(tmp_path, "quiver-ground", "method=anneal",
                            "sweeps=400", seed=5)
        assert code == 0
        report = read_json(out / "report.json")
        assert report["method"] == "anneal"
        assert report["e_min"] >= -24.0 - 1e-12
        assert report["schedule"] == [2.0, 0.95, 400]

    def test_negative_temp_init_exits_2_without_outputs(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "quiver-ground", "method=anneal", "temp_init=-5",
                            "sweeps=3")
        assert code == 2
        assert not list(out.iterdir())
        assert capsys.readouterr().err.startswith("error: schedule must be (T_init >= 0")

    def test_zero_temp_init_takes_the_default(self, tmp_path):
        code, out = run_cli(tmp_path, "quiver-ground", "method=anneal", "temp_init=0",
                            "t=0", "sweeps=3")
        assert code == 0
        assert read_json(out / "report.json")["schedule"] == [1.0, 0.95, 3]

    def test_auto_falls_back_to_anneal(self, tmp_path):
        # the exact search's cost rule rejects every ring of width 5 or more
        code, out = run_cli(tmp_path, "quiver-ground", "lx=5", "ly=5", "boundary=periodic",
                            "electrons=20", "sweeps=200", seed=3)
        assert code == 0
        assert read_json(out / "report.json")["method"] == "anneal"

    def test_auto_solves_4x4_exactly(self, tmp_path):
        code, out = run_cli(tmp_path, "quiver-ground", "lx=4", "ly=4",
                            "boundary=periodic", "electrons=12")
        assert code == 0
        report = read_json(out / "report.json")
        assert report["method"] == "exact"
        assert report["e_min"] == -78.4
        assert report["n_degenerate"] == 32

    def test_over_degenerate_input_exits_2_without_outputs(self, tmp_path, capsys):
        # all couplings 0: each of the C(24, 10) patterns of 3x4 is a minimizer
        code, out = run_cli(tmp_path, "quiver-ground", "lx=3", "ly=4", "electrons=10",
                            "u=0", "t=0", "k=0", "j=0")
        assert code == 2
        assert not list(out.iterdir())
        assert capsys.readouterr().err.startswith("error: more than 200000 candidate minimizers")

    def test_exact_3x4(self, tmp_path):
        code, out = run_cli(tmp_path, "quiver-ground", "lx=3", "ly=4", "electrons=10")
        assert code == 0
        report = read_json(out / "report.json")
        assert report["method"] == "exact"
        assert report["e_min"] == -34.0
        assert report["n_degenerate"] == 16

    def test_auto_anneal_reruns_are_byte_identical(self, tmp_path):
        pairs = ("lx=6", "ly=6", "electrons=30", "sweeps=50")
        code1, out1 = run_cli(tmp_path, "quiver-ground", *pairs, seed=9, name="a")
        code2, out2 = run_cli(tmp_path, "quiver-ground", *pairs, seed=9, name="b")
        assert code1 == 0 and code2 == 0
        assert read_json(out1 / "report.json")["method"] == "anneal"
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_electron_validation(self, tmp_path):
        code, _ = run_cli(tmp_path, "quiver-ground", "electrons=99")
        assert code == 2

    @pytest.mark.parametrize("method", ["auto", "anneal"])
    def test_oversized_anneal_exits_2_before_building_terms(self, tmp_path, capsys,
                                                           monkeypatch, method):
        def no_terms(lattice):
            raise AssertionError("term lists built for a lattice over the cap")

        monkeypatch.setattr(quiver, "_terms", no_terms)
        code, out = run_cli(tmp_path, "quiver-ground", "lx=182", "ly=182",
                            "electrons=33124", f"method={method}", "sweeps=1")
        assert code == 2
        assert not list(out.iterdir())
        assert capsys.readouterr().err == (
            "error: an annealed lattice must not exceed 33000 sites: its term lists "
            "would need more than about 200 MB\n")

    def test_exact_search_refuses_a_long_strip_from_its_shape(self, tmp_path, capsys,
                                                              monkeypatch):
        def no_terms(lattice):
            raise AssertionError("term lists built to price the exact search")

        monkeypatch.setattr(quiver, "_terms", no_terms)
        code, out = run_cli(tmp_path, "quiver-ground", "lx=1", "ly=33000", "method=exact")
        assert code == 2
        assert not list(out.iterdir())
        assert capsys.readouterr().err == (
            "error: the exact transfer-matrix search on 1x33000 open exceeds its cost "
            "budget; use ground_search_anneal for this lattice\n")

    def test_anneal_cap_admits_a_lattice_at_the_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_ANNEAL_SITES_MAX", 12)
        code, _ = run_cli(tmp_path, "quiver-ground", "lx=3", "ly=4", "electrons=10",
                          "method=anneal", "sweeps=1", name="at")
        assert code == 0
        code, _ = run_cli(tmp_path, "quiver-ground", "lx=1", "ly=13", "electrons=10",
                          "method=anneal", "sweeps=1", name="over")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ("ml-weights", "alpha=0.999"),
    ("ground-potential", "n_particles=2", "kind=calogero", "lam=1e300"),
    ("ground-potential", "n_particles=3", "kind=harmonic", "omega=1e300"),
    ("bec-curve", "sigmas=0", "tmin=1", "tmax=1e300", "steps=2"),
    ("ground-potential", "lo=-1e200", "hi=1e200"),
    ("ground-potential", "lo=-1e308", "hi=1e307", "n_particles=3"),
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
        ("lo=-1e200", "hi=1e200"),                           # W overflows
        ("lo=-1e308", "hi=1e307", "n_particles=3"),
    ])
    def test_nonfinite_results_exit_3_without_outputs(self, tmp_path, capsys, pairs):
        code, out = run_cli(tmp_path, "ground-potential", *pairs)
        assert code == 3
        assert not list(out.iterdir())
        expected = ("the potential has no finite value on the grid" if "lam=1e300" in pairs
                    else "residual_check: the residual is not finite")
        assert capsys.readouterr().err.startswith("error: " + expected)

    def test_grid_cap(self, tmp_path):
        code, _ = run_cli(tmp_path, "ground-potential", "n_particles=3",
                          "points=101")
        assert code == 2

    def test_one_mesh_and_one_potential_per_run(self, tmp_path, monkeypatch):
        counts = {"meshgrid": 0, "potential": 0}

        def counted(key, func):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return func(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np, "meshgrid", counted("meshgrid", np.meshgrid))
        monkeypatch.setattr(functionals, "_potential_mesh",
                            counted("potential", functionals._potential_mesh))
        code, _ = run_cli(tmp_path, "ground-potential", "n_particles=3",
                          "points=11", "kind=calogero")
        assert code == 0
        assert counts == {"meshgrid": 1, "potential": 1}

    def test_overflowing_span_exits_2_without_outputs(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "ground-potential", "lo=-1e308", "hi=1e308")
        assert code == 2
        assert not list(out.iterdir())
        assert capsys.readouterr().err == "error: hi - lo must be finite\n"


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


def _modules_after_cli_import():
    # sys.modules of a fresh interpreter once `import pointgas.cli` is done
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pointgas.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_does_not_load_mpmath():
    assert "mpmath" not in _modules_after_cli_import()


def test_cli_import_does_not_load_scipy_integrate():
    assert "scipy.integrate" not in _modules_after_cli_import()


def test_cli_import_loads_numpy_only():
    # no scipy at all; the numpy submodules that runs use are loaded up front,
    # so no run pays their import
    modules = _modules_after_cli_import()
    assert not [m for m in modules if m.split(".")[0] == "scipy"]
    assert {"numpy.random", "numpy.polynomial"} <= modules
