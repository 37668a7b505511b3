"""Experiment drivers and CLI: CSV schema, determinism, config plumbing."""

import csv
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from syklab import bounds, cli, experiments
from syklab.cli import build_config, main
from syklab.experiments import (
    ExperimentConfig,
    ResultRow,
    cmd_bounds,
    cmd_evolve,
    cmd_gatecount,
    cmd_gen,
    cmd_oracle,
    cmd_scan_n,
    cmd_scan_t,
    cmd_solve_r,
    rows_to_csv,
)
from syklab.linalg import NormEstimate
from syklab.model import from_json
from syklab.trotter import averaged_error

FAST = dict(n_list=(6,), k=3, l=1, t=0.5, r=16, N_disorder=3, N_bernoulli=3,
            master_seed=7)
# perfbench/references.json matches the oracle report's lines by position
ORACLE_NAMES = [
    "anti-commutation sign law (n=8, k=2,3,4)",
    "Q(n,k) = anticommuting-partner count (n<=12)",
    "Lemma D bound on G_w",
    "Lemma E bound on <G_w>",
    "greedy coloring <= Q(n,4)+1 (n=6..16)",
]


class TestCsv:
    def test_schema_and_config_block(self):
        config = ExperimentConfig(command="scan-n", **FAST)
        rows, csv_text = cmd_scan_n(config)
        lines = csv_text.splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any(ln == "# master_seed = 7" for ln in comments)
        assert all("output" not in ln for ln in comments)
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header.split(",") == [
            "model", "n", "k", "l", "p", "t", "r", "kappa", "seed",
            "N_disorder", "N_bernoulli", "observed", "observed_stderr",
            "bound", "ratio", "wall_time_s", "error",
        ]
        assert len(rows) == 1 and rows[0].error == ""

    def test_floats_round_trip(self):
        config = ExperimentConfig(command="scan-n", **FAST)
        rows, csv_text = cmd_scan_n(config)
        data_line = [ln for ln in csv_text.splitlines()
                     if not ln.startswith("#")][1]
        cells = data_line.split(",")
        assert float(cells[11]) == rows[0].observed  # repr round-trips exactly
        assert float(cells[13]) == rows[0].bound

    def test_numpy_float_is_written_as_a_float(self):
        row = ResultRow("dense", 8, 4, 1, 2.0, np.float64(0.1), 10, 0.0, 3, 2, 0,
                        np.float64(1e-300), 0.0, 1.0, 0.0, 0.0)
        csv_text = rows_to_csv(ExperimentConfig(command="scan-n"), [row])
        assert csv_text.splitlines()[-1] == ("dense,8,4,1,2.0,0.1,10,0.0,3,2,0,1e-300,"
                                             "0.0,1.0,0.0,0.0,")

    def test_timing_off_by_default(self):
        config = ExperimentConfig(command="scan-n", **FAST)
        rows, _ = cmd_scan_n(config)
        assert rows[0].wall_time_s == 0.0

    def test_timing_opt_in(self):
        config = ExperimentConfig(command="scan-n", timing=True, **FAST)
        rows, _ = cmd_scan_n(config)
        assert rows[0].wall_time_s > 0.0

    def test_error_with_a_comma_is_quoted(self, capsys):
        code = main(["scan-n", "--n", "6", "--k", "3", "--r", "4", "--n-disorder", "1"])
        assert code == 1
        lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
        header, *data = list(csv.reader(lines))
        assert len(header) == 17 and len(data) == 1
        assert all(len(record) == 17 for record in data)
        row, _ = cmd_scan_n(ExperimentConfig(
            command="scan-n", n_list=(6,), k=3, r=4, N_disorder=1))
        assert "," in row[0].error
        assert data[0][header.index("error")] == row[0].error

    def test_ratio_times_bound_is_observed(self):
        config = ExperimentConfig(command="scan-n", **FAST)
        rows, _ = cmd_scan_n(config)
        for row in rows:
            assert row.ratio * row.bound == pytest.approx(row.observed, rel=1e-12)


class TestDeterminism:
    @pytest.mark.parametrize("model", ["dense", "sparse"])
    def test_worker_count_invariance(self, model, monkeypatch):
        fast = dict(FAST, n_list=(6, 8), model=model)
        texts = {}
        for workers in ("1", "8"):
            monkeypatch.setenv("SYKLAB_WORKERS", workers)
            _, texts[workers] = cmd_scan_n(ExperimentConfig(command="scan-n", **fast))
        assert texts["1"] == texts["8"]

    @pytest.mark.parametrize("value", ["two", "0", "-3"])
    def test_bad_worker_count_rejected(self, value, monkeypatch):
        monkeypatch.setenv("SYKLAB_WORKERS", value)
        with pytest.raises(ValueError, match="SYKLAB_WORKERS"):
            cmd_scan_n(ExperimentConfig(command="scan-n", **FAST))

    def test_repeat_run_identical(self):
        config = ExperimentConfig(command="scan-n", **FAST)
        assert cmd_scan_n(config)[1] == cmd_scan_n(config)[1]

    def test_seed_changes_observed(self):
        a, _ = cmd_scan_n(ExperimentConfig(command="scan-n", **FAST))
        b, _ = cmd_scan_n(
            ExperimentConfig(command="scan-n", **dict(FAST, master_seed=8))
        )
        assert a[0].observed != b[0].observed
        assert a[0].bound == b[0].bound  # the bound is seed-free


class TestScanT:
    def test_fit_block(self):
        config = ExperimentConfig(
            command="scan-t", t_min=1.0, t_max=8.0, t_points=4,
            **{k: v for k, v in FAST.items() if k != "t"},
        )
        rows, csv_text = cmd_scan_t(config)
        assert len(rows) == 4
        assert rows[0].t == pytest.approx(1.0) and rows[-1].t == pytest.approx(8.0)
        tail = csv_text.splitlines()[-3:]
        assert tail[0].startswith("# fit bound:")
        assert tail[1].startswith("# fit observed:")
        assert tail[2].startswith("# fit slope difference")

    def test_bound_only_skips_observed_fit(self):
        config = ExperimentConfig(
            command="scan-t", t_min=1.0, t_max=8.0, t_points=3, bound_only=True,
            **{k: v for k, v in FAST.items() if k != "t"},
        )
        rows, csv_text = cmd_scan_t(config)
        assert all(row.observed == 0.0 for row in rows)
        assert "# fit observed" not in csv_text

    def test_fit_leaves_out_rows_with_an_error(self, monkeypatch):
        scan_point = experiments._scan_point

        def last_row_fails(config, i, n, t):
            row = scan_point(config, i, n, t)
            if i == 3:
                row.error, row.bound, row.observed = "ValueError: boom", 0.0, 0.0
            return row

        monkeypatch.setattr(experiments, "_scan_point", last_row_fails)
        config = ExperimentConfig(
            command="scan-t", t_min=1.0, t_max=8.0, t_points=4,
            **{k: v for k, v in FAST.items() if k != "t"},
        )
        rows, csv_text = cmd_scan_t(config)
        assert [bool(row.error) for row in rows] == [False, False, False, True]
        bound_fit = bounds.loglog_fit([(row.t, row.bound) for row in rows[:3]])
        observed_fit = bounds.loglog_fit([(row.t, row.observed) for row in rows[:3]])
        assert csv_text.splitlines()[-3:-1] == [
            "# fit bound: slope=%r intercept=%r residual=%r" % bound_fit,
            "# fit observed: slope=%r intercept=%r residual=%r" % observed_fit,
        ]

    def test_fit_reads_only_positive_values(self, monkeypatch):
        scan_point = experiments._scan_point

        def observed_zero(config, i, n, t):
            row = scan_point(config, i, n, t)
            if i < 2:
                row.observed = 0.0
            return row

        monkeypatch.setattr(experiments, "_scan_point", observed_zero)
        config = ExperimentConfig(
            command="scan-t", t_min=1.0, t_max=8.0, t_points=4,
            **{k: v for k, v in FAST.items() if k != "t"},
        )
        rows, csv_text = cmd_scan_t(config)
        bound_fit = bounds.loglog_fit([(row.t, row.bound) for row in rows])
        assert csv_text.splitlines()[-2:] == [
            "# fit bound: slope=%r intercept=%r residual=%r" % bound_fit,
            "# fit observed skipped: 2 of 4 rows without an error have 0 < observed < inf, "
            "the fit needs 3",
        ]

    def test_infinite_bounds_are_left_out_of_the_fit(self, capsys):
        """Two of three bounds overflow to inf: the fit is skipped, not nan."""
        assert main(["scan-t", "--n", "8", "--k", "4", "--l", "2", "--bound-only",
                     "--t-min", "1", "--t-max", "1e160", "--t-points", "3",
                     "--r", "100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        data = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
        assert [row["bound"] for row in data][1:] == ["inf", "inf"]
        assert lines[-1] == ("# fit bound skipped: 1 of 3 rows without an error have "
                             "0 < bound < inf, the fit needs 3")

    def test_too_few_points_refused(self):
        config = ExperimentConfig(
            command="scan-t", t_points=2,
            **{k: v for k, v in FAST.items() if k != "t"},
        )
        with pytest.raises(ValueError):
            cmd_scan_t(config)

    def test_bound_fit_slope_sensible(self):
        # first-order bound scales between t^2 and t^3
        config = ExperimentConfig(
            command="scan-t", t_min=10.0, t_max=1000.0, t_points=5,
            bound_only=True, **{k: v for k, v in FAST.items() if k != "t"},
        )
        _, csv_text = cmd_scan_t(config)
        fit_line = next(ln for ln in csv_text.splitlines()
                        if ln.startswith("# fit bound"))
        slope = float(fit_line.split("slope=")[1].split()[0])
        assert 2.0 <= slope <= 3.0


class TestSparseScan:
    def test_sparse_rows(self):
        # the sparse bound exists only for even l >= 2
        config = ExperimentConfig(command="scan-n", model="sparse", kappa=2.0,
                                  **dict(FAST, l=2))
        rows, _ = cmd_scan_n(config)
        row = rows[0]
        assert row.kappa == 2.0 and row.N_bernoulli == 3
        assert row.error == "" and row.bound > 0

    def test_kappa_zero_zero_error(self):
        config = ExperimentConfig(command="scan-n", model="sparse", kappa=0.0,
                                  **dict(FAST, l=2))
        rows, _ = cmd_scan_n(config)
        # empty Hamiltonian: S = U = identity
        assert rows[0].error == ""
        assert rows[0].observed == pytest.approx(0.0, abs=1e-12)

    def test_first_order_row_keeps_its_observed_error(self):
        # no sparse bound exists for l = 1, but the observed error does
        config = ExperimentConfig(command="scan-n", model="sparse", **FAST)
        row = cmd_scan_n(config)[0][0]
        assert row.error == (
            "ValueError: no sparse-SYK bound for l = 1: it needs even l >= 2 (--l)")
        est = averaged_error(6, 3, 1, 0.5, 16, 2.0, row.seed, 3, kappa=4.0,
                             num_bernoulli=3)
        assert (row.observed, row.observed_stderr) == (est.value, est.stderr)
        assert row.observed > 0
        assert (row.bound, row.ratio) == (0.0, 0.0)

    @pytest.mark.parametrize("num_bernoulli", [0, 1])
    def test_too_few_masks_is_a_row_error(self, num_bernoulli):
        # one mask has no spread to take a standard error from
        config = ExperimentConfig(command="scan-n", model="sparse",
                                  **dict(FAST, l=2, N_bernoulli=num_bernoulli))
        rows, _ = cmd_scan_n(config)
        assert "N_bernoulli" in rows[0].error
        assert rows[0].observed == 0.0

    def test_row_error_captured_not_raised(self):
        # odd l is invalid; the row must record the failure, not raise
        config = ExperimentConfig(command="scan-n", **dict(FAST, l=3))
        rows, _ = cmd_scan_n(config)
        assert rows[0].error != ""


class TestRatio:
    def test_zero_bound_with_observed_error_is_a_row_error(self, monkeypatch):
        monkeypatch.setattr(bounds, "error_bound", lambda inp: 0.0)
        row = cmd_scan_n(ExperimentConfig(command="scan-n", **FAST))[0][0]
        assert row.error == (
            "ZeroDivisionError: error ratio undefined: bound is 0 with observed > 0")
        assert row.bound == 0.0 and row.ratio == 0.0 and row.observed > 0

    def test_zero_time_row_is_exactly_zero(self):
        # at t = 0 the bound is 0 and exp(iHt) is exactly I, so E = 0
        row = cmd_scan_n(ExperimentConfig(command="scan-n", **dict(FAST, t=0.0)))[0][0]
        assert (row.bound, row.observed, row.observed_stderr, row.ratio) == (0.0,) * 4
        assert row.error == ""

    def test_ratio_is_error_ratio(self):
        row = cmd_scan_n(ExperimentConfig(command="scan-n", **FAST))[0][0]
        est = NormEstimate(row.observed, row.observed_stderr, 3, 2.0)
        assert row.ratio == bounds.error_ratio(est, row.bound)[0] == row.observed / row.bound


class TestReports:
    def test_solve_r_report(self):
        config = ExperimentConfig(command="solve-r", epsilon=0.1, delta=0.01,
                                  **FAST)
        report = cmd_solve_r(config)
        assert "operator_norm: r = " in report
        assert "fixed_state: r = " in report
        assert "gate count [log_n]" in report

    def test_gatecount_values(self):
        config = ExperimentConfig(command="gatecount", **FAST)
        report = cmd_gatecount(config)
        gamma = math.comb(6, 3)
        assert f"Gamma={gamma}" in report
        base = float(report.splitlines()[1].split(": ")[1])
        assert base == pytest.approx(1 * gamma * 16)  # Upsilon * Gamma * r

    def test_bounds_report_parses(self):
        config = ExperimentConfig(command="bounds", **FAST)
        out = cmd_bounds(config)
        value = float(out.split(" = ")[1])
        assert value > 0

    def test_oracle_all_pass(self):
        report, all_ok = cmd_oracle(ExperimentConfig(command="oracle"))
        assert all_ok
        assert report.splitlines()[1:] == [f"  [PASS] {name}" for name in ORACLE_NAMES]

    def test_oracle_failure_is_reported(self, monkeypatch):
        checks = [(name, lambda: (True, "x")) for name in ORACLE_NAMES]
        checks[3] = (ORACLE_NAMES[3], lambda: (False, "x"))
        monkeypatch.setattr(experiments, "ORACLE_CHECKS", tuple(checks))
        report, all_ok = cmd_oracle(ExperimentConfig(command="oracle"))
        assert not all_ok
        assert report.splitlines()[4] == f"  [FAIL] {ORACLE_NAMES[3]} (x)"
        assert report.count("(x)") == 1  # a passing check's detail stays out
        assert main(["oracle"]) == 1

    def test_q_check_lists_every_mismatch(self, monkeypatch):
        """With Q(n, k) off by one, as the oracle reads it, every (n, k) of
        the Q check is a mismatch, listed in order."""
        q_of = bounds.q_of
        monkeypatch.setattr(bounds, "q_of", lambda n, k: q_of(n, k) + 1)
        ok, detail = experiments._check_q()
        assert not ok
        pairs = [(n, k) for n in range(2, 15, 2) for k in range(1, min(5, n) + 1)]
        assert detail == f"mismatches: {pairs}"


class TestGenEvolve:
    def test_gen_round_trip(self):
        config = ExperimentConfig(command="gen", **FAST)
        text = cmd_gen(config)
        payload = json.loads(text)
        inst = from_json(text)
        assert inst.n == 6 and inst.k == 3
        assert payload["n"] == 6

    def test_evolve_replays_instance(self, tmp_path):
        config = ExperimentConfig(command="gen", **FAST)
        path = tmp_path / "inst.json"
        path.write_text(cmd_gen(config), encoding="utf-8")
        replay = ExperimentConfig(command="evolve", instance_path=str(path),
                                  **FAST)
        direct = ExperimentConfig(command="evolve", **FAST)
        assert cmd_evolve(replay) == cmd_evolve(direct)


class TestCli:
    def test_sparse_gen_replays_in_evolve(self, tmp_path, capsys):
        """``gen --model sparse`` writes the instance that ``evolve --model
        sparse`` samples: replaying the file prints the same line."""
        model = ["--model", "sparse", "--n", "8", "--k", "4", "--kappa", "2", "--seed", "7"]
        path = tmp_path / "inst.json"
        assert main(["gen", *model, "-o", str(path)]) == 0
        inst = from_json(path.read_text(encoding="utf-8"))
        assert 0 < inst.mask.sum() < inst.gamma_count
        run = ["--l", "2", "--t", "0.5", "--r", "16"]
        assert main(["evolve", "--instance", str(path), *run]) == 0
        replayed = capsys.readouterr().out
        assert main(["evolve", *model, *run]) == 0
        assert capsys.readouterr().out == replayed
        assert replayed.startswith("observed normalized error (n=8, k=4, l=2,")

    def test_bounds_subcommand(self, capsys):
        assert main(["bounds", "--n", "6", "--k", "3", "--l", "1"]) == 0
        assert "Delta_1" in capsys.readouterr().out

    @pytest.mark.parametrize("model", [[], ["--model", "sparse", "--kappa", "4"]],
                             ids=["dense", "sparse"])
    def test_one_term_bound_is_zero(self, model, capsys):
        """k = n: one term (Q = 0), so the product formula is exact."""
        assert main(["bounds", "--n", "8", "--k", "8", "--l", "2"] + model) == 0
        assert capsys.readouterr().out.endswith(") = 0.0\n")

    @pytest.mark.parametrize("argv", [
        ["--l", "1", "--p", "1e200"],
        ["--l", "1", "--t", "1e200"],
        ["--l", "2", "--t", "1e300"],
        ["--l", "2", "--t", "1e300", "--model", "sparse"],
    ], ids=lambda argv: " ".join(argv))
    def test_bound_beyond_float_range_is_inf(self, argv, capsys):
        assert main(["bounds", "--n", "8", "--k", "4"] + argv) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith(") = inf\n")
        assert captured.err == ""

    @pytest.mark.parametrize("command", ["bounds", "solve-r"])
    def test_delta1_where_gamma_q_leaves_float_range(self, command, capsys):
        """Gamma Q is about 6e309 at (1400, 100); Delta_1 stays finite."""
        assert main([command, "--n", "1400", "--k", "100", "--l", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == "bounds":
            assert float(captured.out.rsplit(" = ", 1)[1]) == pytest.approx(
                2.9919188509986945e-6, rel=1e-12)

    def test_sparse_bound_where_c_n_k_leaves_float_range(self, capsys):
        """C(3e7, 50) passes the float range while sigma is normal; the
        bound's C(n,k)^2 term makes it inf, as dense Delta_2 is."""
        assert main(["bounds", "--model", "sparse", "--kappa", "4", "--n", "30000000",
                     "--k", "50", "--l", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith(") = inf\n")
        assert captured.err == ""

    def test_sparse_variance_below_float_range_is_a_one_line_message(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds", "--model", "sparse", "--kappa", "4", "--n", "2000",
                  "--k", "1000", "--l", "2"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "syklab: error: the coupling variance (k-1)! J0^2 / (k n^(k-1)) at n=2000 "
            "(--n), k=1000 (--k) is below the normal float range")

    def test_sparse_kappa_whose_p_b_underflows_is_a_one_line_message(self, capsys):
        """kappa n / C(n,k) rounds to 0 at kappa = 5e-324: refused, not a 0.0
        bound; a scan row records the same message."""
        argv = ["--model", "sparse", "--kappa", "5e-324", "--n", "8", "--k", "4", "--l", "2"]
        message = ("kappa (--kappa) = 5e-324 makes p_B = kappa*n/C(n,k) underflow to 0 "
                   "at n=8, k=4")
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds"] + argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == f"syklab: error: {message}"
        assert main(["scan-n", "--bound-only"] + argv) == 1
        out = capsys.readouterr().out
        assert f"ValueError: {message}" in out

    @pytest.mark.parametrize("kappa,value", [("1e-322", "inf"), ("0", "0.0")])
    def test_sparse_kappa_whose_p_b_is_positive_or_zero(self, kappa, value, capsys):
        """p_B ~ 1e-323 gives an inf bound; kappa = 0 deletes every term, so
        the product formula is exact and the bound is 0."""
        assert main(["bounds", "--model", "sparse", "--kappa", kappa, "--n", "8",
                     "--k", "4", "--l", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith(f") = {value}\n")
        assert captured.err == ""

    def test_scan_row_bound_beyond_float_range_is_inf(self, capsys):
        assert main(["scan-n", "--n", "6,8", "--k", "4", "--l", "1", "--t", "1e200",
                     "--bound-only"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
        assert [(row["bound"], row["error"]) for row in rows] == [("inf", ""), ("inf", "")]

    def test_gatecount_subcommand(self, capsys):
        assert main(["gatecount", "--n", "8", "--k", "4", "--r", "100"]) == 0
        assert "Gamma=70" in capsys.readouterr().out

    def test_sparse_gatecount_counts_the_expected_kept_terms(self, capsys):
        """Sparse Gamma is p_B C(n,k) = min(kappa n, C(n,k)): 32 of the 70
        terms at n = 8, kappa = 4, and all 70 once kappa n passes C(n,k)."""
        assert main(["gatecount", "--n", "8", "--k", "4", "--l", "2", "--r", "100",
                     "--model", "sparse"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "gatecount: n=8 k=4 l=2 Gamma=32 (expected kept terms at kappa=4.0) "
            "Upsilon=2 r=100",
            "  [none]: 6.400000e+03", "  [log_n]: 1.920000e+04", "  [linear_n]: 5.120000e+04"]
        assert main(["gatecount", "--n", "8", "--k", "4", "--r", "100", "--model", "sparse",
                     "--kappa", "12.5"]) == 0
        assert "Gamma=70 (expected kept terms at kappa=12.5)" in capsys.readouterr().out

    def test_gatecount_beyond_float_range_is_inf(self, capsys):
        assert main(["gatecount", "--n", "8", "--k", "4", "--r", "1" + "0" * 307]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["  [none]: inf", "  [log_n]: inf", "  [linear_n]: inf"]

    def test_gatecount_upsilon_beyond_float_range_is_inf(self, capsys):
        # Upsilon = 2*5**999 has 699 digits, past the float range
        assert main(["gatecount", "--n", "8", "--k", "4", "--l", "2000", "--r", "10"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "gatecount: n=8 k=4 l=2000 Gamma=70 Upsilon=inf r=10",
            "  [none]: inf", "  [log_n]: inf", "  [linear_n]: inf"]
        assert main(["gatecount", "--n", "8", "--k", "4", "--l", "100", "--r", "10"]) == 0
        assert f"Upsilon={2 * 5**49} r=10" in capsys.readouterr().out

    @pytest.mark.parametrize("order", ["12306", "2000000", "20000000000"])
    def test_gatecount_refuses_an_upsilon_past_4300_digits(self, order, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["gatecount", "--n", "8", "--k", "4", "--l", order, "--r", "10"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"syklab: error: order l (--l) = {order} is too large: its Upsilon = "
            "2*5**(l/2-1) would pass 4300 digits")
        assert main(["gatecount", "--n", "8", "--k", "4", "--l", "12304", "--r", "10"]) == 0

    def test_gatecount_refuses_an_odd_order_naming_its_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["gatecount", "--n", "8", "--k", "4", "--l", "3"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "syklab: error: order must be 1 or even >= 2 (--l), got 3")

    def test_scan_n_writes_file(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main([
            "scan-n", "--n", "6", "--k", "3", "--l", "1", "--t", "0.5",
            "--r", "16", "--n-disorder", "3", "--n-bernoulli", "3",
            "--seed", "7", "-o", str(out),
        ])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        _, expected = cmd_scan_n(
            ExperimentConfig(command="scan-n", output=str(out), **FAST)
        )
        assert text == expected

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a comment\nn_list = 6,8\nk = 3\nr = 16\nt = 0.5\n",
            encoding="utf-8",
        )

        class Args:
            subcommand = "scan-n"
            config = str(cfg)

        args = Args()
        for f in ExperimentConfig.__dataclass_fields__:
            if not hasattr(args, f):
                setattr(args, f, None)
        args.r = 32  # flag beats file
        config = build_config(args)
        assert config.n_list == (6, 8)
        assert config.k == 3 and config.r == 32 and config.t == 0.5

    def test_config_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# a comment\nk 4\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds", "--config", str(cfg)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"syklab: error: {cfg}:2: expected 'key = value'")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds", "--config", str(cfg)])
        assert exit_info.value.code == 2
        assert "syklab: error: unknown config key 'frobnicate'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["bounds", "--n", "8", "--k", "4", "--p", "1"], "norm order p (--p)"),
        (["solve-r", "--n", "8", "--epsilon", "-1"], "epsilon must be positive"),
        (["evolve", "--n", "7"], "n must be even"),
        (["scan-n", "--n", "6,x"], "n_list (--n) needs"),
        (["bounds", "--n", ","], "n_list (--n) needs comma-separated integers, got ','"),
        (["solve-r", "--n", "8", "--t", "0"], "the solver needs time t (--t) > 0"),
        (["scan-t", "--t-min", "0"], "t scan needs 0 < t_min (--t-min) < t_max (--t-max)"),
        (["scan-t", "--t-min", "1", "--t-max", "1"],
         "t scan needs 0 < t_min (--t-min) < t_max (--t-max)"),
        (["evolve", "--n", "22", "--k", "2", "--l", "1", "--r", "10"],
         "dimension 2048 (n = 22) exceeds the dense cap 1024"),
        (["solve-r", "--n", "8", "--k", "4", "--t", "1e-300"],
         "lambda(p, r) must be positive and strictly decreasing in r"),
        (["solve-r", "--n", "8", "--k", "4", "--l", "2", "--epsilon", "1e-300"],
         "no satisfying Trotter number below 2^62"),
        # Delta_1 is inf at every r, so lambda does not decrease
        (["solve-r", "--n", "8", "--k", "4", "--l", "1", "--t", "1e200"],
         "lambda(p, r) must be positive and strictly decreasing in r"),
        (["bounds", "--n", "8", "--k", "4", "--l", "1", "--energy-constant", "1e200"],
         "energy constant (--energy-constant) squared exceeds the float range, got 1e+200"),
        (["gen", "--n", "8", "--k", "4", "--energy-constant", "1e200"],
         "energy constant (--energy-constant) squared exceeds the float range, got 1e+200"),
        # r beyond the float range, in the bound and in the error path's t / r
        (["bounds", "--n", "8", "--k", "4", "--l", "1", "--r", "1" + "0" * 400],
         "Trotter number r (--r) must satisfy 1 <= r <= 1.7976931348623157e+308"),
        (["evolve", "--n", "6", "--k", "2", "--r", "1" + "0" * 400],
         "Trotter number r (--r) must satisfy 1 <= r <= 1.7976931348623157e+308"),
        (["gatecount", "--n", "8", "--k", "4", "--r", "1" + "0" * 400],
         "Trotter number r (--r) must satisfy 1 <= r <= 1.7976931348623157e+308"),
        # sigma**2 below the normal float range, even from the exact ratio
        (["bounds", "--n", "1000000000", "--k", "41", "--l", "2"],
         "the coupling variance (k-1)! J0^2 / (k n^(k-1)) at n=1000000000 (--n), k=41 "
         "(--k) is below the normal float range"),
        # k = n: one term, Q = 0, and the product formula is exact at every r
        (["solve-r", "--n", "8", "--k", "8", "--l", "2"],
         "the solver needs Q(n, k) > 0, got k (--k) = n = 8"),
        (["evolve", "--n", "8", "--p", "0.5"],
         "Schatten order p (--p) must satisfy p >= 1, got 0.5"),
        (["bounds", "--n", "8", "--t", "-1"], "time t (--t) must be nonnegative, got -1.0"),
        (["bounds", "--n", "8", "--model", "sparse", "--kappa", "-1"],
         "kappa (--kappa) must be nonnegative, got -1.0"),
        # k = n in a scan: refused before any row, as the solver refuses it
        (["scan-n", "--n", "6,8", "--k", "8", "--l", "2", "--r", "10", "--n-disorder", "2"],
         "scan-n needs Q(n, k) > 0, got k (--k) = n = 8: one term, so the product "
         "formula is exact"),
        (["scan-t", "--n", "8", "--k", "8", "--r", "10", "--n-disorder", "2", "--t-points",
          "3", "--t-min", "1", "--t-max", "2"],
         "scan-t needs Q(n, k) > 0, got k (--k) = n = 8: one term, so the product "
         "formula is exact"),
        # a scan's model is checked before any row, every n of the list
        (["scan-n", "--n", "7", "--k", "4"], "n must be even and >= 2, got 7"),
        (["scan-n", "--n", "8,7", "--k", "4"], "n must be even and >= 2, got 7"),
        (["scan-n", "--n", "8", "--k", "0"], "k must satisfy 1 <= k <= n, got k=0, n=8"),
        (["scan-n", "--n", "6,8", "--k", "7"], "k must satisfy 1 <= k <= n, got k=7, n=6"),
        (["scan-n", "--n", "8", "--energy-constant", "0"],
         "energy constant must be positive and finite, got 0.0"),
        (["scan-n", "--model", "sparse", "--n", "8", "--energy-constant", "1e200"],
         "energy constant (--energy-constant) squared exceeds the float range, got 1e+200"),
        (["scan-t", "--n", "7", "--k", "4"], "n must be even and >= 2, got 7"),
        (["scan-t", "--n", "8", "--k", "9"], "k must satisfy 1 <= k <= n, got k=9, n=8"),
        (["scan-t", "--n", "8", "--energy-constant", "-1"],
         "energy constant must be positive and finite, got -1.0"),
    ])
    def test_input_error_is_a_one_line_message(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"syklab: error: {message}" in err

    @pytest.mark.parametrize("n,k,r,message", [
        ("8", "4", "-5",
         "Trotter number r (--r) must satisfy 1 <= r <= 1.7976931348623157e+308"),
        ("8", "4", "0",
         "Trotter number r (--r) must satisfy 1 <= r <= 1.7976931348623157e+308"),
        ("7", "4", "100", "n must be even and >= 2, got 7"),
        ("8", "9", "100", "k must satisfy 1 <= k <= n, got k=9, n=8"),
        ("8", "0", "100", "k must satisfy 1 <= k <= n, got k=0, n=8"),
    ])
    def test_gatecount_rejects_a_model_that_does_not_exist(self, n, k, r, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["gatecount", "--n", n, "--k", k, "--r", r])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"syklab: error: {message}"

    @pytest.mark.parametrize("argv", [
        ["scan-t", "--k", "3", "--r", "4", "--n-disorder", "2", "--t-points", "3",
         "--t-min", "1", "--t-max", "2"],
        ["solve-r", "--k", "4"],
        ["gatecount", "--k", "4", "--r", "100"],
        ["bounds", "--k", "4"],
        ["gen", "--k", "4"],
        ["evolve", "--k", "4"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("n", [None, "6,8"], ids=["default-n", "two-n"])
    def test_one_n_command_refuses_a_list(self, argv, n, capsys):
        """A command that takes one n refuses several (the default 6,8,10
        too) instead of computing for the first and dropping the rest."""
        listed = n or "6,8,10"
        with pytest.raises(SystemExit) as exit_info:
            main(argv + (["--n", n] if n else []))
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"syklab: error: {argv[0]} takes one n (--n), got {listed}")

    def test_malformed_instance_is_a_one_line_message(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text('{"n": "8"}', encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["evolve", "--instance", str(inst_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == "syklab: error: instance key 'clamped' is missing"

    @pytest.mark.parametrize("line,message", [
        ("k = x", "k (--k) needs an integer, got 'x'"),
        ("N_disorder = 3.5", "N_disorder (--n-disorder) needs an integer, got '3.5'"),
        ("t = 1.5.0", "t (--t) needs a number, got '1.5.0'"),
        ("n_list = 6,x", "n_list (--n) needs comma-separated integers, got '6,x'"),
        ("model = dnese", "model (--model) needs one of dense/sparse, got 'dnese'"),
        ("prefactor_mode = bar",
         "prefactor_mode (--prefactor-mode) needs one of full/unit, got 'bar'"),
    ])
    def test_bad_number_in_config_names_key_and_flag(self, line, message, tmp_path,
                                                    capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["scan-n", "--config", str(cfg)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == f"syklab: error: {message}"

    def test_row_error_sets_exit_code(self, capsys):
        code = main([
            "scan-n", "--n", "6", "--k", "3", "--l", "3", "--t", "0.5",
            "--r", "4", "--n-disorder", "2", "--seed", "7",
        ])
        capsys.readouterr()
        assert code == 1

    def test_too_few_masks_sets_exit_code(self, capsys):
        code = main([
            "scan-n", "--model", "sparse", "--n", "6", "--k", "3", "--l", "2",
            "--r", "4", "--n-disorder", "2", "--n-bernoulli", "0", "--seed", "7",
        ])
        assert "N_bernoulli" in capsys.readouterr().out
        assert code == 1

    @pytest.mark.parametrize("num_disorder", [0, 1])
    def test_too_few_disorder_samples_is_a_row_error(self, num_disorder, capsys):
        rows, _ = cmd_scan_n(ExperimentConfig(command="scan-n",
                                              **dict(FAST, N_disorder=num_disorder)))
        assert rows[0].error.startswith("ValueError: need N_disorder >= 2")
        code = main(["scan-n", "--n", "6", "--k", "3", "--r", "4",
                     "--n-disorder", str(num_disorder)])
        assert "need N_disorder >= 2" in capsys.readouterr().out
        assert code == 1

    @pytest.mark.parametrize("num_bernoulli", [0, 1])
    def test_too_few_masks_is_a_row_error_naming_its_key(self, num_bernoulli, capsys):
        message = f"ValueError: need N_bernoulli >= 2 for a standard error, got {num_bernoulli}"
        rows, _ = cmd_scan_n(ExperimentConfig(
            command="scan-n", model="sparse", **dict(FAST, l=2, N_bernoulli=num_bernoulli)))
        assert rows[0].error == message
        code = main(["scan-n", "--model", "sparse", "--n", "6", "--k", "4", "--l", "2",
                     "--r", "4", "--n-disorder", "2", "--n-bernoulli", str(num_bernoulli)])
        assert capsys.readouterr().out.endswith(f',"{message}"\n')  # CSV-quoted
        assert code == 1

    def test_dense_cap_is_a_row_error_named_by_its_class(self):
        rows, _ = cmd_scan_n(ExperimentConfig(command="scan-n",
                                              **dict(FAST, n_list=(22,), k=2)))
        assert rows[0].error == (
            "ResourceError: dimension 2048 (n = 22) exceeds the dense cap 1024")
        assert rows[0].bound > 0

    @pytest.mark.parametrize("p", ["inf", "nan"])
    def test_p_outside_two_to_inf_is_a_row_error(self, p, capsys):
        """p = inf and nan fail each scan row; on the command line nan
        already fails where the flag enters."""
        rows, _ = cmd_scan_n(ExperimentConfig(command="scan-n", **dict(FAST, p=float(p))))
        assert rows[0].error.startswith("ValueError: norm order p (--p)")
        assert (rows[0].observed, rows[0].bound, rows[0].ratio) == (0.0, 0.0, 0.0)
        argv = ["scan-n", "--n", "6,8", "--k", "4", "--l", "1", "--r", "100",
                "--p", p, "--n-disorder", "4"]
        if p == "nan":
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1] == (
                "syklab scan-n: error: argument --p: needs a number, got 'nan'")
            return
        code = main(argv)
        assert capsys.readouterr().out.count("norm order p (--p)") == 2
        assert code == 1

    @pytest.mark.parametrize("argv,flag,value,need", [
        (["scan-n", "--n", "6", "--k", "2", "--l", "1", "--r", "10", "--n-disorder", "2"],
         "--t", "nan", "a number"),
        (["bounds", "--n", "8", "--k", "4", "--l", "2"], "--t", "inf", "a finite number"),
        (["evolve", "--n", "6", "--k", "2"], "--t", "nan", "a number"),
        (["evolve", "--n", "6", "--k", "2"], "--p", "nan", "a number"),
        (["gen", "--model", "sparse", "--n", "6", "--k", "2"], "--kappa", "nan", "a number"),
        (["solve-r", "--n", "8", "--k", "4"], "--t", "nan", "a number"),
        (["scan-t", "--n", "6"], "--t-max", "inf", "a finite number"),
        (["scan-t", "--n", "6"], "--t-min", "-inf", "a finite number"),
        (["gen", "--n", "6", "--k", "2"], "--energy-constant", "inf", "a finite number"),
        (["solve-r", "--n", "8", "--k", "4"], "--epsilon", "inf", "a finite number"),
        (["solve-r", "--n", "8", "--k", "4"], "--delta", "nan", "a number"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_non_finite_float_flag_is_rejected(self, argv, flag, value, need, tmp_path,
                                               capsys):
        """Every float flag and config key rejects nan and +-inf (``--p``
        only nan), with exit 2 and a one-line message."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [f"{flag}={value}"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.splitlines()[-1] == (
            f"syklab {argv[0]}: error: argument {flag}: needs {need}, got '{value}'")
        key = next(key for key, action in cli._ACTIONS.items()
                   if flag in action.option_strings)
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--config", str(cfg)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"syklab: error: {key} ({flag}) needs {need}, got '{value}'")

    @pytest.mark.parametrize("argv", [
        ["scan-n", "--n", "6", "--k", "4", "--l", "2", "--r", "10", "--n-disorder", "2"],
        ["gen", "--n", "6", "--k", "4"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_seed_must_be_a_non_negative_integer(self, argv, value, tmp_path, capsys):
        """A negative seed is refused where it enters, by the flag and by its
        config key, naming both and the value, before any sample is drawn."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [f"--seed={value}"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.splitlines()[-1] == (
            f"syklab {argv[0]}: error: argument --seed: "
            f"needs a non-negative integer, got '{value}'")
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(f"master_seed = {value}\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--config", str(cfg)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"syklab: error: master_seed (--seed) needs a non-negative integer, got '{value}'")

    def test_scan_t_with_every_row_failed_keeps_its_csv(self, capsys):
        code = main(["scan-t", "--n", "6", "--k", "3", "--p", "inf", "--t-min", "0.1",
                     "--t-max", "1", "--t-points", "3", "--r", "4", "--n-disorder", "2"])
        out = capsys.readouterr().out
        assert out.count("norm order p (--p)") == 3
        assert out.splitlines()[-1] == (
            "# fit skipped: 0 of 3 rows have no error, the fit needs 3")
        assert code == 1

    def test_scan_t_with_zero_bounds_keeps_its_csv(self, capsys):
        # kappa = 0 empties the Hamiltonian: every bound and observed error is 0
        code = main(["scan-t", "--model", "sparse", "--kappa", "0", "--n", "6",
                     "--k", "3", "--l", "2", "--r", "4", "--n-disorder", "2",
                     "--t-min", "0.1", "--t-max", "1", "--t-points", "3",
                     "--n-bernoulli", "2"])
        lines = capsys.readouterr().out.splitlines()
        data = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
        assert [(row["bound"], row["observed"], row["error"]) for row in data] == [
            ("0.0", "0.0", "")] * 3
        assert lines[-2:] == [
            "# fit bound skipped: 0 of 3 rows without an error have 0 < bound < inf, "
            "the fit needs 3",
            "# fit observed skipped: 0 of 3 rows without an error have 0 < observed < inf, "
            "the fit needs 3",
        ]
        assert code == 0

    def test_sparse_first_order_names_the_missing_bound(self, capsys):
        message = "no sparse-SYK bound for l = 1: it needs even l >= 2 (--l)"
        code = main(["scan-n", "--model", "sparse", "--n", "6", "--k", "4", "--r", "4",
                     "--n-disorder", "2", "--n-bernoulli", "2"])
        lines = capsys.readouterr().out.splitlines()
        row = next(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
        assert row["error"] == f"ValueError: {message}"
        assert float(row["observed"]) > 0 and float(row["bound"]) == 0.0
        assert code == 1
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds", "--model", "sparse", "--n", "8", "--l", "1"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"syklab: error: {message}"

    @pytest.mark.parametrize("key,flag,value", [
        ("mode", "--mode", "fixed_state"),
        ("overhead", "--overhead", "log_n"),
    ])
    def test_deleted_keys_rejected(self, key, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["gatecount", flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["gatecount", "--config", str(cfg)])
        assert exit_info.value.code == 2
        assert f"syklab: error: unknown config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("args,r", [
        (["--n", "6400", "--k", "3", "--l", "20"], 1729450923864442),
        (["--n", "1600", "--k", "3", "--l", "20", "--model", "sparse", "--kappa", "4"],
         3527971558710782),
    ], ids=["dense", "sparse"])
    def test_solve_r_where_lambda_overflows_at_small_r(self, capsys, args, r):
        """The command's operator-norm r where lambda is inf at r = 1, 2."""
        assert main(["solve-r"] + args) == 0
        assert f"  operator_norm: r = {r}  (" in capsys.readouterr().out

    def test_solve_r_ignores_p(self, capsys):
        assert main(["solve-r", "--n", "8", "--k", "4"]) == 0
        default = capsys.readouterr().out
        assert main(["solve-r", "--n", "8", "--k", "4", "--p", "inf"]) == 0
        assert capsys.readouterr().out == default

    def test_oracle_subcommand(self, capsys):
        assert main(["oracle"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_gen_evolve_round_trip(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--n", "6", "--k", "3", "--seed", "7",
                     "-o", str(inst_path)]) == 0
        assert main(["evolve", "--instance", str(inst_path), "--l", "1",
                     "--t", "0.5", "--r", "16"]) == 0
        out = capsys.readouterr().out
        assert "observed normalized error" in out


def _readme_commands() -> list[str]:
    """The ``syklab ...`` lines of the README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("syklab ")]


def test_readme_has_command_examples():
    assert len(_readme_commands()) >= 8


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_parses(line):
    """Each README example is accepted by the parser and builds a config
    (the command itself is not run)."""
    argv = shlex.split(line, comments=True)
    config = build_config(cli._parser().parse_args(argv[1:]))
    assert config.command == argv[1]


class TestConfigFile:
    # a value other than the default for every config key
    NON_DEFAULT = dict(
        model="sparse", n_list=(8, 12), k=3, l=2, p=4.0, t=0.25, t_min=2.5,
        t_max=50.0, t_points=5, r=123, kappa=2.5, energy_constant=1.5,
        N_disorder=7, N_bernoulli=9, master_seed=99, prefactor_mode="unit",
        epsilon=0.05, delta=0.001, bound_only=True, timing=True, output="out.csv", instance_path="inst.json",
    )

    @staticmethod
    def _config_from_file(path):
        class Args:
            subcommand = "scan-n"
            config = str(path)

        args = Args()
        for f in ExperimentConfig.__dataclass_fields__:
            if not hasattr(args, f):
                setattr(args, f, None)
        return build_config(args)

    def test_every_field_has_one_parser(self):
        """Every config key is the dest of exactly one flag, which alone
        declares its type and choices, and every flag but ``--config`` sets
        a config key."""
        from collections import Counter
        from dataclasses import fields

        dests = Counter(action.dest for action in cli._COMMON._actions)
        keys = {f.name for f in fields(ExperimentConfig)} - {"command"}
        assert {key: dests[key] for key in keys} == dict.fromkeys(keys, 1)
        assert set(dests) - {"config"} == keys

    def test_every_field_round_trips(self, tmp_path):
        """The CSV's config comment block, uncommented, is a config file
        that gives back the same config."""
        from dataclasses import fields

        expected = ExperimentConfig(command="scan-n", **self.NON_DEFAULT)
        for f in fields(ExperimentConfig):
            if f.name != "command":
                assert getattr(expected, f.name) != f.default, f.name
        lines = [line[2:] for line in expected.as_comment_block().splitlines()
                 if not line.startswith("# command =")]
        lines += ["output = out.csv", "instance_path = inst.json"]
        cfg = tmp_path / "all.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self._config_from_file(cfg) == expected

    @pytest.mark.parametrize("word,value", [
        ("1", True), ("true", True), ("Yes", True), ("ON", True),
        ("0", False), ("False", False), ("no", False), ("off", False),
    ])
    def test_boolean_spellings(self, tmp_path, word, value):
        cfg = tmp_path / "bool.cfg"
        cfg.write_text(f"timing = {word}\nbound_only = {word}\n", encoding="utf-8")
        config = self._config_from_file(cfg)
        assert config.timing is value and config.bound_only is value

    @pytest.mark.parametrize("word", ["ture", "", "2", "y", "enabled"])
    def test_other_boolean_spellings_rejected(self, tmp_path, word, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"timing = {word}\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds", "--config", str(cfg)])
        assert exit_info.value.code == 2
        assert "syklab: error: config key 'timing' needs" in capsys.readouterr().err

    def test_command_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cmd.cfg"
        cfg.write_text("command = oracle\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds", "--config", str(cfg)])
        assert exit_info.value.code == 2
        assert "syklab: error: unknown config key 'command'" in capsys.readouterr().err
