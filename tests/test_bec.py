"""Tests for the superposed-ensemble boson thermodynamics."""

import math
import re

import numpy as np
import pytest

from pointgas import bec, cli, specfun

# zeta(3/2)^(-2/3) at double precision
TC_REF = 0.527201068797149
# (15/4) zeta(5/2) / zeta(3/2)
CV_AT_TC = 1.9256716754819545

ENSEMBLES = [
    bec.Ensemble.single(),
    bec.Ensemble.lognormal(0.1),
    bec.Ensemble.lognormal(0.4),
    bec.Ensemble.lognormal(0.8),
    bec.Ensemble.discrete((0.5, 1.5), (0.4, 0.6)),
]


def constraint_residual(ens, t_star, z, n_nodes=64):
    x, w = ens.quadrature(n_nodes)
    total = float((w * specfun.polylog_from_log(1.5, np.log(z) * x)).sum())
    return abs(total - t_star ** -1.5)


class TestEnsemble:
    def test_restricted_kinds(self):
        with pytest.raises(ValueError):
            bec.Ensemble(bec.MixingMeasure.exponential(1.0))
        with pytest.raises(ValueError):
            bec.Ensemble(bec.MixingMeasure.fractional(0.5))

    def test_dirac_must_sit_at_one(self):
        with pytest.raises(ValueError):
            bec.Ensemble(bec.MixingMeasure.dirac(2.0))

    def test_quadrature_normalized(self):
        for ens in ENSEMBLES:
            x, w = ens.quadrature()
            assert abs(w.sum() - 1.0) < 1e-14
            assert np.all(x > 0.0)

    @pytest.mark.parametrize("n_nodes", [7, 257, 400])
    def test_node_count_range(self, n_nodes):
        # from about 400 nodes numpy's rule has NaN or zero weights
        for ens in (bec.Ensemble.single(), bec.Ensemble.lognormal(0.4)):
            with pytest.raises(ValueError, match=r"\[8, 256\]"):
                ens.quadrature(n_nodes)
        x, w = bec.Ensemble.lognormal(0.4).quadrature(256)
        assert np.all(np.isfinite(w)) and abs(w.sum() - 1.0) < 1e-13


class TestCriticalTemperature:
    def test_reference_value(self):
        assert abs(bec.critical_temperature(bec.Ensemble.single()) - TC_REF) < 1e-14

    def test_nu_independent(self):
        for ens in ENSEMBLES:
            assert abs(bec.critical_temperature(ens) - TC_REF) < 1e-10

    def test_consistency_with_zeta(self):
        tc = bec.critical_temperature(bec.Ensemble.single())
        assert tc ** -1.5 == pytest.approx(specfun.zeta_const(1.5), rel=1e-14)


class TestSolveFugacity:
    def test_dirac_closed_constraint(self):
        # at t = 2 t_c the root solves g_{3/2}(z) = zeta(3/2) / 2^{3/2}
        tc = bec.critical_temperature(bec.Ensemble.single())
        z = bec.solve_fugacity(2.0 * tc, bec.Ensemble.single())
        got = specfun.polylog(1.5, z)
        assert abs(got - specfun.zeta_const(1.5) / 2.0 ** 1.5) < 1e-12

    @pytest.mark.parametrize("sig,t", [(0.0, 1.0544), (0.4, 1.0), (0.8, 0.7)])
    def test_residual_small(self, sig, t):
        ens = bec.Ensemble.single() if sig == 0.0 else bec.Ensemble.lognormal(sig)
        z = bec.solve_fugacity(t, ens)
        assert constraint_residual(ens, t, z) < 1e-12

    @pytest.mark.parametrize("sig,t", [(0.8, 1e3), (0.8, 1e5), (0.0, 1e11)])
    def test_relative_residual_at_high_temperature(self, sig, t):
        # z falls to 1e-54 here; log z must keep its digits below 1e-16
        ens = bec.Ensemble.single() if sig == 0.0 else bec.Ensemble.lognormal(sig)
        z = bec.solve_fugacity(t, ens)
        x, w = ens.quadrature()
        total = float((w * specfun.polylog_from_log(1.5, np.log(z) * x)).sum())
        assert abs(total / t ** -1.5 - 1.0) <= 1e-12

    @pytest.mark.parametrize("ens,t", [(bec.Ensemble.lognormal(0.4), 1e50),
                                       (bec.Ensemble.single(), 1e300)])
    def test_underflow_raises(self, ens, t):
        # z = exp(log z) is 0.0 at (0.4, 1e50); the constraint itself
        # underflows on the way to the root at (0, 1e300)
        with pytest.raises(RuntimeError, match=re.escape(f"t_star = {t:g}")):
            bec.solve_fugacity(np.array([2.0, t]), ens)

    def test_monotone_decreasing_in_t(self):
        ens = bec.Ensemble.single()
        tc = bec.critical_temperature(ens)
        zs = [bec.solve_fugacity(t, ens) for t in np.linspace(1.0001 * tc, 3.0, 12)]
        assert all(a > b for a, b in zip(zs, zs[1:]))

    def test_approaches_one_at_critical(self):
        for ens in (bec.Ensemble.single(), bec.Ensemble.lognormal(0.8)):
            tc = bec.critical_temperature(ens)
            assert bec.solve_fugacity(tc + 5e-5, ens) > 1.0 - 1e-7

    def test_lognormal_node_refinement(self):
        ens = bec.Ensemble.lognormal(0.4)
        assert abs(bec.solve_fugacity(1.0, ens, 64)
                   - bec.solve_fugacity(1.0, ens, 128)) < 1e-9

    def test_array_equals_scalar_calls_bitwise(self):
        # straddles the z cap (t_c + 1e-7) and the near-critical band up to t = 3
        for ens in (bec.Ensemble.single(), bec.Ensemble.lognormal(0.8),
                    bec.Ensemble.discrete((0.5, 1.5), (0.4, 0.6))):
            tc = bec.critical_temperature(ens)
            grid = np.concatenate([tc + np.array([1e-7, 5e-5, 1e-3]),
                                   np.linspace(tc + 5e-5, 3.0, 17)])
            zs = bec.solve_fugacity(grid, ens)
            assert isinstance(zs, np.ndarray) and zs.shape == grid.shape
            scalar = [bec.solve_fugacity(float(t), ens) for t in grid]
            assert all(isinstance(z, float) for z in scalar)
            assert zs.tolist() == scalar
            assert zs[0] == 1.0 - 1e-12
            assert bec.solve_fugacity(grid[::-1], ens).tolist() == scalar[::-1]

    def test_row_sums_stable_across_batch_sizes(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal((37, 64))
        sums = vals.sum(axis=-1)
        for n in (1, 2, 5, 36):
            assert vals[:n].sum(axis=-1).tolist() == sums[:n].tolist()
        assert [float(row.sum()) for row in vals] == sums.tolist()

    def test_condensed_phase_in_array_rejected(self):
        ens = bec.Ensemble.lognormal(0.4)
        tc = bec.critical_temperature(ens)
        with pytest.raises(ValueError):
            bec.solve_fugacity(np.array([0.8, 1.0, tc, 2.0]), ens)
        with pytest.raises(ValueError):
            bec.solve_fugacity(np.array([0.8, 0.9 * tc]), ens)

    def test_condensed_phase_rejected(self):
        ens = bec.Ensemble.single()
        tc = bec.critical_temperature(ens)
        with pytest.raises(ValueError):
            bec.solve_fugacity(0.9 * tc, ens)
        with pytest.raises(ValueError):
            bec.solve_fugacity(-1.0, ens)


class TestInternalEnergy:
    def test_branch_continuity_at_tc(self):
        ens = bec.Ensemble.single()
        tc = bec.critical_temperature(ens)
        below = bec.internal_energy(tc, ens)
        above = bec.internal_energy(tc + 5e-5, ens)
        assert abs(above - below) < 1e-3

    def test_classical_limit(self):
        u = bec.internal_energy(20.0, bec.Ensemble.single())
        assert abs(u / 20.0 - 1.5) / 1.5 < 0.01

    def test_condensed_branch_nu_independent(self):
        got = bec.internal_energy(0.4, bec.Ensemble.lognormal(0.4))
        ref = bec.internal_energy(0.4, bec.Ensemble.single())
        assert got == ref

    def test_condensed_value(self):
        # u = (3/2) t^{5/2} zeta(5/2) below the transition
        got = bec.internal_energy(0.4, bec.Ensemble.single())
        assert got == pytest.approx(1.5 * 0.4 ** 2.5 * specfun.zeta_const(2.5), rel=1e-14)


class TestSpecificHeat:
    def test_value_at_tc(self):
        ens = bec.Ensemble.single()
        tc = bec.critical_temperature(ens)
        assert abs(bec.specific_heat(tc, ens) - CV_AT_TC) < 1e-12

    def test_frozen_constant_consistent(self):
        assert CV_AT_TC == pytest.approx(
            3.75 * specfun.zeta_const(2.5) / specfun.zeta_const(1.5), abs=1e-15)

    def test_classical_limit(self):
        assert abs(bec.specific_heat(50.0, bec.Ensemble.single()) - 1.5) < 1e-3

    @pytest.mark.parametrize("sigma", [0.0, 0.1, 0.4, 0.8])
    def test_continuity_across_tc(self, sigma):
        ens = bec.Ensemble.single() if sigma == 0.0 else bec.Ensemble.lognormal(sigma)
        tc = bec.critical_temperature(ens)
        jump = abs(bec.specific_heat(tc + 5e-5, ens) - bec.specific_heat(tc, ens))
        assert jump < 1e-3

    def test_positive_on_grid(self):
        ens = bec.Ensemble.lognormal(0.4)
        for t in (0.2, 0.5, 0.8, 1.5, 5.0):
            assert bec.specific_heat(t, ens) > 0.0


class TestThermoPoint:
    def test_condensed_flag(self):
        ens = bec.Ensemble.single()
        tc = bec.critical_temperature(ens)
        pt = bec.thermo_point(0.8 * tc, ens)
        assert pt.z == 1.0
        pt2 = bec.thermo_point(1.5 * tc, ens)
        assert 0.0 < pt2.z < 1.0
        assert pt2.u == bec.internal_energy(1.5 * tc, ens)
        assert pt2.cv == bec.specific_heat(1.5 * tc, ens)


class TestCvCurve:
    def test_row_layout(self):
        rows = bec.cv_curve([0.0, 0.4], [0.4, 0.8])
        assert len(rows) == 4
        assert list(rows[0]) == ["sigma", "T_star", "z", "u", "cv", "cv_fd_relerr"]

    def test_grid_must_be_sorted(self):
        with pytest.raises(ValueError):
            bec.cv_curve([0.0], [0.8, 0.4])

    def test_below_tc_rows_coincide(self):
        rows = bec.cv_curve([0.0, 0.1, 0.4, 0.8], [0.3, 0.45])
        for t in (0.3, 0.45):
            group = [r for r in rows if r["T_star"] == t]
            for r in group[1:]:
                for key in ("z", "u", "cv"):
                    assert abs(r[key] - group[0][key]) < 1e-10

    def test_fd_cross_check(self):
        tc = bec.critical_temperature(bec.Ensemble.single())
        rows = bec.cv_curve([0.0, 0.4], [0.6, 0.8, 1.0, 1.5])
        for r in rows:
            if r["T_star"] > 1.001 * tc:
                assert r["cv_fd_relerr"] < 1e-4

    def test_small_sigma_matches_dirac(self):
        grid = [0.4, 0.7, 1.0]
        small = bec.cv_curve([1e-3], grid)
        dirac = bec.cv_curve([0.0], grid)
        for a, b in zip(small, dirac):
            assert abs(a["cv"] - b["cv"]) < 1e-3

    def test_matches_thermo_point_exactly(self):
        grid = [0.4, TC_REF + 5e-5, 0.6, 1.0, 2.5]
        for sigma in (0.0, 0.4):
            ens = bec.Ensemble.single() if sigma == 0.0 else bec.Ensemble.lognormal(sigma)
            for r in bec.cv_curve([sigma], grid):
                pt = bec.thermo_point(r["T_star"], ens)
                assert (r["z"], r["u"], r["cv"]) == (pt.z, pt.u, pt.cv)

    def test_polylog_call_count(self, monkeypatch):
        # one Newton loop per ensemble makes 84 polylog calls on this grid
        calls = []
        polylog_from_log = specfun.polylog_from_log

        def counted(order, log_z):
            calls.append(order)
            return polylog_from_log(order, log_z)

        monkeypatch.setattr(specfun, "polylog_from_log", counted)
        bec.cv_curve((0.1, 0.4, 0.8), np.linspace(0.3, 1.2, 20))
        assert len(calls) <= 100

    def test_csv_bytes_stable(self, tmp_path):
        argv = ["bec-curve", "sigmas=0.4", "tmin=0.4", "tmax=0.8", "steps=2"]
        assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
        b1 = (tmp_path / "a" / "cv_curve.csv").read_bytes()
        b2 = (tmp_path / "b" / "cv_curve.csv").read_bytes()
        assert b1 == b2
        header = b1.decode().splitlines()[0]
        assert header == "sigma,T_star,z,u,cv,cv_fd_relerr"

    def test_csv_roundtrip(self, tmp_path):
        out = tmp_path / "curve"
        argv = ["bec-curve", "sigmas=0", "tmin=0.8", "tmax=1.0", "steps=2", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = bec.cv_curve([0.0], [0.8, 1.0])
        lines = (out / "cv_curve.csv").read_text().splitlines()[1:]
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            got = [float(v) for v in line.split(",")]
            assert got == [row[k] for k in ("sigma", "T_star", "z", "u", "cv", "cv_fd_relerr")]


class TestSharpness:
    def test_metric_on_synthetic_data(self):
        # window (10, 12]: slopes 2 then 6; outside pairs ignored
        ts = [10.5, 11.0, 11.5, 12.0, 13.0]
        cvs = [1.0, 2.0, 5.0, 4.0, 0.0]
        assert bec.sharpness_metric(ts, cvs, 10.0) == pytest.approx(6.0)

    def test_wider_mixing_is_sharper(self):
        tc = bec.critical_temperature(bec.Ensemble.single())
        grid = np.linspace(tc * 1.0005, 1.2 * tc, 30)
        s_vals = {}
        for sig in (0.1, 0.8):
            rows = bec.cv_curve([sig], grid)
            s_vals[sig] = bec.sharpness_metric([r["T_star"] for r in rows],
                                               [r["cv"] for r in rows], tc)
        assert s_vals[0.1] < s_vals[0.8]
