import argparse
import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from mafia_odds import cli, winchance
from mafia_odds.core import BoundaryRule
from mafia_odds.evolution import evolve_discrete, mean_discrete

from launcher import finish, launch
from oracles import double_factorial_rows


def run_cli(*argv, env=None, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "mafia_odds", *argv],
        capture_output=True,
        timeout=timeout,
        env=env,
    )


class TestWinchanceCommand:
    def test_known_value_csv(self):
        proc = run_cli("winchance", "--players", "9", "--mafia", "1")
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "n,m,w_num,w_den,w_float"
        assert lines[1] == "9,1,128,315,0.406349206349"

    def test_json_round_trips(self):
        proc = run_cli("winchance", "-n", "9", "-m", "1", "--format", "json")
        record = json.loads(proc.stdout)
        assert record == {
            "n": 9,
            "m": 1,
            "w_num": 128,
            "w_den": 315,
            "w_float": 128 / 315,
        }

    def test_float_methods_leave_exact_fields_empty(self):
        proc = run_cli("winchance", "-n", "100", "-m", "1", "--method", "asymptotic")
        row = proc.stdout.decode().splitlines()[1].split(",")
        assert row[2] == "" and row[3] == ""
        assert float(row[4]) == pytest.approx(0.0798, rel=1e-2)
        proc = run_cli(
            "winchance", "-n", "100", "-m", "1", "--method", "continuous",
            "--format", "json",
        )
        record = json.loads(proc.stdout)
        assert record["w_num"] is None and record["w_den"] is None
        assert record["w_float"] == pytest.approx(0.1)

    def test_zero_mafia(self):
        proc = run_cli("winchance", "-n", "5", "-m", "0")
        assert proc.stdout.decode().splitlines()[1] == "5,0,0,1,0"

    def test_malformed_state_exits_2(self):
        proc = run_cli("winchance", "--players", "5", "--mafia", "6")
        assert proc.returncode == 2
        assert proc.stderr

    def test_unknown_method_exits_2(self):
        proc = run_cli("winchance", "-n", "5", "-m", "1", "--method", "magic")
        assert proc.returncode == 2

    def test_closed_form_with_tie_boundary_prints_the_recurrence_bytes(self):
        for n, m in [(0, 0), (4, 2), (5, 1), (40, 7)]:
            closed, recurrence = (
                run_cli(
                    "winchance", "-n", str(n), "-m", str(m), "--method", method,
                    "--boundary", "ties",
                )
                for method in ("closed", "recurrence")
            )
            assert closed.returncode == recurrence.returncode == 0, (n, m)
            assert closed.stdout == recurrence.stdout, (n, m)

    def test_tie_boundary_recurrence_works(self):
        proc = run_cli("winchance", "-n", "4", "-m", "2", "--boundary", "ties")
        assert proc.stdout.decode().splitlines()[1] == "4,2,1,1,1"

    @pytest.mark.parametrize("method", ["asymptotic", "continuous"])
    def test_an_approximate_method_with_tie_boundary_is_refused_before_computing(
        self, monkeypatch, capsys, method
    ):
        # both laws are stated for the strict rule only; neither may be called
        from mafia_odds import evolution

        def law(*args):
            raise AssertionError("a law was computed")

        monkeypatch.setattr(winchance, "win_chance_asymptotic", law)
        monkeypatch.setattr(evolution, "win_chance_continuous", law)
        argv = ["winchance", "-n", "10", "-m", "2", "--method", method, "--boundary", "ties"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", f"mafia-odds: --method {method} has no law for --boundary ties\n"
        )

    def test_methods_call_the_module_attribute(self, monkeypatch, capsys):
        # a wrapper put on winchance.<solver> (the benchmark's tracer does
        # this) must see the CLI's call, so the registry looks it up late
        calls = {}
        for name in ("win_chance_recurrence", "win_chance_closed"):
            def counting(*args, _name=name, _original=getattr(winchance, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(winchance, name, counting)
        for method in ("recurrence", "closed"):
            assert cli.main(["winchance", "-n", "9", "-m", "1", "--method", method]) == 0
            assert capsys.readouterr().out.splitlines()[1] == "9,1,128,315,0.406349206349"
        assert calls == {"win_chance_recurrence": 1, "win_chance_closed": 1}


class TestTableCommand:
    def test_row_count_and_known_entries(self):
        proc = run_cli("table", "--max-n", "5")
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "n,m,w_num,w_den,w_float"
        assert len(lines) == 1 + sum(n + 1 for n in range(1, 6))
        assert "2,1,1,2,0.5" in lines
        assert "5,2,13,15,0.866666666667" in lines

    def test_three_player_table_has_nine_rows(self):
        proc = run_cli("table", "--max-n", "3")
        assert len(proc.stdout.decode().splitlines()) == 10

    def test_bad_max_n_exits_2(self):
        assert run_cli("table", "--max-n", "0").returncode == 2

    def test_line_endings_are_lf(self):
        proc = run_cli("table", "--max-n", "4")
        assert b"\r" not in proc.stdout
        assert proc.stdout.endswith(b"\n")

    # every cell to n = 600, past the goldens' n <= 303 and the library's
    # n <= 400, against the plain ladder scaled by n!!, whose steps never
    # divide: the package scales row n by an O(n)-bit L_n and divides each
    # step. The oracle reads the records as the command writes them.
    @pytest.mark.parametrize("boundary", list(BoundaryRule))
    def test_a_deep_table_matches_the_double_factorial_ladder(self, boundary):
        argv = [sys.executable, "-m", "mafia_odds", "table", "--max-n", "600", "--boundary", boundary.value]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            next(proc.stdout)  # the header
            for n, dfact, row in double_factorial_rows(600, boundary):
                for m in range(n + 1 if n else 0):
                    record_n, record_m, num, den, _ = next(proc.stdout).split(",")
                    assert (int(record_n), int(record_m)) == (n, m)
                    assert int(num) * dfact == row[m] * int(den), (n, m)
            assert next(proc.stdout, None) is None
        assert proc.wait(timeout=120) == 0


class TestSingleMafiaCommand:
    def test_known_rows(self):
        proc = run_cli("single-mafia", "--max-n", "4")
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "n,w_exact_num,w_exact_den,w_exact_float,approx_parity_aware"
        assert lines[1].startswith("1,1,1,1,")
        assert lines[3] == "3,2,3,0.666666666667,0.723601254558"
        assert lines[4] == "4,3,8,0.375,0.398942280401"

    def test_json_fields(self):
        proc = run_cli("single-mafia", "--max-n", "2", "--format", "json")
        rows = json.loads(proc.stdout)
        assert [r["n"] for r in rows] == [1, 2]
        assert rows[1]["w_exact_num"] == 1 and rows[1]["w_exact_den"] == 2

    def test_rows_match_the_library(self, capsys):
        assert cli.main(["single-mafia", "--max-n", "300", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in rows] == list(range(1, 301))
        for r in rows:
            exact = winchance.win_chance_single(r["n"])
            assert (r["w_exact_num"], r["w_exact_den"]) == (
                exact.numerator,
                exact.denominator,
            )
            assert r["w_exact_float"] == float(exact)


class TestEvolveCommand:
    def test_discrete_single_step(self):
        proc = run_cli(
            "evolve", "-n", "4", "-m", "1", "--mode", "discrete", "--t-max", "1"
        )
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "mode,kind,t,m,value"
        assert "discrete,p,1,0,0.25" in lines
        assert "discrete,p,1,1,0.75" in lines
        assert "discrete,mean,1,,0.75" in lines

    def test_time_beyond_window_exits_1(self):
        proc = run_cli(
            "evolve", "-n", "4", "-m", "1", "--mode", "discrete", "--t-max", "3"
        )
        assert proc.returncode == 1

    def test_negative_t_max_prints_only_the_header(self):
        proc = run_cli(
            "evolve", "-n", "9", "-m", "2", "--mode", "discrete", "--t-max", "-1"
        )
        assert proc.returncode == 0
        assert proc.stdout == b"mode,kind,t,m,value\n"

    # --t-max is floored, not truncated toward zero: no turn 0 for t_max < 0
    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    @pytest.mark.parametrize("t_max", ["-0.5", "-0.99", "-0.05", "-1e308"])
    def test_fractional_negative_t_max_prints_only_the_header(
        self, capsys, mode, t_max
    ):
        argv = ["evolve", "-n", "9", "-m", "2", "--mode", mode, f"--t-max={t_max}"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "mode,kind,t,m,value\n"

    def test_negative_t_max_prints_an_empty_json_array(self):
        proc = run_cli("evolve", "-n", "9", "-m", "2", "--t-max", "-1", "--format", "json")
        assert proc.returncode == 0
        assert proc.stdout == b"[]\n"

    def test_time_beyond_window_names_the_first_invalid_turn(self):
        # the window is 2t <= N - M = 7, so t = 4 is the first turn outside it
        proc = run_cli(
            "evolve", "-n", "9", "-m", "2", "--mode", "discrete", "--t-max", "6"
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.decode().strip() == (
            "mafia-odds: need 0 <= 2t <= N - M, got N=9, M=2, t=4"
        )

    # a huge --t-max is bounded by the model: the first sample past N/2 is refused
    @pytest.mark.parametrize(
        "t_max, spu, first_invalid",
        [("100", "10", "2.1"), ("1e308", "10", "2.1"), ("1e306", "1000", "2.001")],
    )
    def test_continuous_time_beyond_n_over_2_names_the_first_invalid_sample(
        self, t_max, spu, first_invalid
    ):
        proc = run_cli(
            "evolve", "-n", "4", "-m", "1", "--mode", "continuous",
            f"--t-max={t_max}", "--samples-per-unit", spu,
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.decode() == (
            f"mafia-odds: need 0 <= t <= N/2, got N=4, t={first_invalid}\n"
        )

    # each is refused before its first turn or sample is computed; both modes
    # check the discrete window first. In the last three, a sample's float
    # rounds to N/2, then N and C(1100, 550) are past float range
    @pytest.mark.parametrize(
        "argv, message",
        [
            ("-n 4000 -m 10 --mode discrete --t-max 2500",
             "need 0 <= 2t <= N - M, got N=4000, M=10, t=1996"),
            ("-n 100000 -m 1 --mode continuous --t-max 60000 --format json",
             "need 0 <= t <= N/2, got N=100000, t=50000.125"),
            ("-n 40 -m 2 --mode both --t-max 30", "need 0 <= 2t <= N - M, got N=40, M=2, t=20"),
            ("-n 40 -m 0 --t-max 20.5 --samples-per-unit 3",
             "need 0 <= t <= N/2, got N=40, t=20.333333333333332"),
            ("-n 9007199254740992 -m 1 --mode continuous --t-max 1e300 --samples-per-unit 2",
             "need 0 <= t <= N/2, got N=9007199254740992, t=9007199254740993/2"),
            pytest.param(f"-n {2**1024} -m 1 --mode both --t-max 1",
                         "int too large to convert to float", id="N-past-float-range"),
            ("-n 2000 -m 1100 --mode both --t-max 0", "int too large to convert to float"),
        ],
    )
    def test_a_late_failure_is_refused_before_any_row(self, monkeypatch, capsys, argv, message):
        from mafia_odds import evolution

        def never(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(evolution, "_discrete_step", never)
        monkeypatch.setattr(evolution, "_pm_row", never)
        assert cli.main(["evolve", *argv.split()]) == 1
        assert capsys.readouterr() == ("", f"mafia-odds: {message}\n")

    # the binomial C(M, m) of each column stays with its m
    @pytest.mark.parametrize("N, M", [(40, 7), (23, 23), (9, 0)])
    def test_continuous_rows_are_the_library_values(self, capsys, N, M):
        from mafia_odds.evolution import mean_continuous, pm_continuous

        argv = f"evolve -n {N} -m {M} --mode continuous --samples-per-unit 3 --format json"
        assert cli.main(argv.split()) == 0
        rows = json.loads(capsys.readouterr().out)
        times = sorted({row["t"] for row in rows})
        assert len(times) == 3 * N // 2 + 1
        for t in times:
            p = [r["value"] for r in rows if r["t"] == t and r["kind"] == "p"]
            assert p == [pm_continuous(N, M, m, t) for m in range(M + 1)]
            (mean,) = [r["value"] for r in rows if r["t"] == t and r["kind"] == "mean"]
            assert mean == mean_continuous(N, M, t)

    def test_csv_discrete_rows_reduce_no_cell(self, monkeypatch, capsys):
        # CSV prints the float column alone, so no cell is put in lowest terms
        argv = ["evolve", "-n", "40", "-m", "6", "--mode", "discrete"]
        assert cli.main([*argv, "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)

        def never(*args):
            raise AssertionError("a CSV cell was reduced")

        monkeypatch.setattr(cli, "_exact", never)
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "mode,kind,t,m,value"
        assert lines[1:] == [
            f"discrete,{r['kind']},{r['t']},{'' if r['m'] is None else r['m']},{r['value']:.12g}"
            for r in records
        ]

    def test_zero_samples_per_unit_exits_2(self):
        proc = run_cli("evolve", "-n", "8", "-m", "2", "--samples-per-unit", "0")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode() == "mafia-odds: need --samples-per-unit >= 1, got 0\n"

    def test_discrete_rows_match_the_library(self):
        proc = run_cli(
            "evolve", "-n", "12", "-m", "3", "--mode", "discrete", "--format", "json"
        )
        rows = json.loads(proc.stdout)
        for t in range(5):
            dist = evolve_discrete(12, 3, t)
            exact = [r for r in rows if r["t"] == t]
            assert [Fraction(r["value_num"], r["value_den"]) for r in exact] == [
                *dist.probs,
                mean_discrete(12, 3, t),
            ]

    # 451 turns of 102 records at (1000, 100), past the goldens' N <= 203,
    # where most cells reduce: CSV divides each cell by the turn's
    # denominator without reducing it, JSON reduces it to lowest terms
    def test_csv_and_json_print_the_same_values(self):
        argv = [sys.executable, "-m", "mafia_odds", "evolve", "-n", "1000", "-m", "100", "--mode", "discrete"]
        # both commands run at once, each into its own pipe
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as csv_proc, subprocess.Popen(
            [*argv, "--format", "json"], stdout=subprocess.PIPE
        ) as json_proc:
            rows = list(csv.DictReader(csv_proc.stdout))
            records = json.load(json_proc.stdout)
        assert csv_proc.returncode == json_proc.returncode == 0
        assert len(rows) == len(records) == 451 * 102
        keys = ("mode", "kind", "t", "m")
        for row, record in zip(rows, records):
            assert [row[k] for k in keys] == ["" if record[k] is None else str(record[k]) for k in keys]
            assert row["value"] == "%.12g" % record["value"]
            assert float(Fraction(record["value_num"], record["value_den"])) == record["value"]

    def test_continuous_rows_stay_normalized(self):
        proc = run_cli(
            "evolve", "-n", "32", "-m", "4", "--mode", "continuous",
            "--format", "json",
        )
        rows = json.loads(proc.stdout)
        by_t = {}
        for row in rows:
            if row["kind"] == "p":
                by_t.setdefault(row["t"], 0.0)
                by_t[row["t"]] += row["value"]
        assert by_t and all(abs(total - 1.0) < 1e-9 for total in by_t.values())

    def test_both_modes_cover_the_window_by_default(self):
        proc = run_cli("evolve", "-n", "8", "-m", "2", "--format", "json")
        rows = json.loads(proc.stdout)
        modes = {row["mode"] for row in rows}
        assert modes == {"discrete", "continuous"}
        discrete_ts = {row["t"] for row in rows if row["mode"] == "discrete"}
        assert discrete_ts == {0, 1, 2, 3}
        exact = [r for r in rows if r["mode"] == "discrete" and r["kind"] == "p"]
        assert all(r["value_den"] is not None for r in exact)

    def test_rejects_more_mafia_than_players(self):
        assert run_cli("evolve", "-n", "3", "-m", "4").returncode == 2

    @pytest.mark.parametrize("mode", ["discrete", "continuous", "both"])
    @pytest.mark.parametrize("t_max", ["inf", "nan", "-inf"])
    def test_non_finite_t_max_exits_2(self, mode, t_max):
        proc = run_cli(
            "evolve", "-n", "10", "-m", "2", "--mode", mode, f"--t-max={t_max}"
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode().strip() == (
            f"mafia-odds: need a finite --t-max, got {t_max}"
        )


class TestOptimalCommand:
    def test_small_table(self):
        proc = run_cli("optimal", "--max-n", "3")
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "n,m_opt_numeric,m_opt_approx"
        assert lines[1].startswith("2,1,")
        assert lines[2].startswith("3,1,")

    def test_requires_at_least_two_players(self):
        assert run_cli("optimal", "--max-n", "1").returncode == 2


class TestSimulateCommand:
    def test_report_row(self):
        proc = run_cli(
            "simulate", "-n", "3", "-m", "3", "--trials", "10", "--seed", "7"
        )
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "n,m,trials,seed,mafia_wins,estimate,std_error"
        assert lines[1] == "3,3,10,7,10,1,0"

    def test_byte_identical_across_runs(self):
        args = ("simulate", "-n", "9", "-m", "1", "--trials", "20000", "--seed", "42")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_json_report(self):
        proc = run_cli(
            "simulate", "-n", "9", "-m", "1", "--trials", "1000", "--seed", "3",
            "--format", "json",
        )
        record = json.loads(proc.stdout)
        assert record["trials"] == 1000 and record["seed"] == 3
        assert record["estimate"] == record["mafia_wins"] / 1000

    def test_bad_state_exits_2(self):
        assert run_cli("simulate", "-n", "2", "-m", "3").returncode == 2

    def test_bad_seed_exits_2(self):
        proc = run_cli("simulate", "-n", "2", "-m", "1", "--seed", "-5")
        assert proc.returncode == 2

    # two full 65,536-trial chunks at n = 1000: enough work for a worker pool
    # unless the process may run on one CPU only, as under `taskset -c 0`
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_pooled_report_matches_the_serial_one(self):
        argv = ("simulate", "-n", "1000", "-m", "15", "--trials", "131072", "--seed", "3")
        one_cpu = {min(os.sched_getaffinity(0))}
        serial = subprocess.run(
            [sys.executable, "-m", "mafia_odds", *argv],
            capture_output=True,
            timeout=120,
            preexec_fn=lambda: os.sched_setaffinity(0, one_cpu),
        )
        pooled = run_cli(*argv)
        assert serial.returncode == pooled.returncode == 0
        assert pooled.stdout == serial.stdout


# decided before the first lynch, so nothing is walked or drawn: the
# recurrence took 384 s at (20000, 15000) and never ended at n = 10**20, and
# each simulation would draw about 10**11 uniforms
DECIDED = {
    "simulate -n 1001 -m 501 --trials 200000000": {"mafia_wins": "200000000"},
    "simulate -n 1000 -m 0 --trials 200000000 --boundary ties": {"mafia_wins": "0"},
    "winchance -n 20000 -m 15000 --method recurrence": {"w_num": "1", "w_den": "1"},
    "winchance -n 20000 -m 15000 --method closed": {"w_num": "1", "w_den": "1"},
    f"winchance -n {10**20} -m 0": {"w_num": "0", "w_den": "1"},
}


@pytest.mark.parametrize("argv,expected", DECIDED.items(), ids=list(DECIDED))
def test_a_decided_state_answers_at_once(argv, expected):
    proc = run_cli(*argv.split(), timeout=20)
    assert proc.returncode == 0, proc.stderr
    record = next(csv.DictReader(io.StringIO(proc.stdout.decode())))
    assert {k: record[k] for k in expected} == expected


# an integer past float range reaches a float law, which raises OverflowError
@pytest.mark.parametrize(
    "argv",
    [
        ["winchance", "-n", str(10**400), "-m", "1", "--method", "asymptotic"],
        ["winchance", "-n", str(10**400), "-m", "1", "--method", "continuous"],
        ["evolve", "-n", str(10**400), "-m", "1", "--mode", "continuous", "--t-max", "0"],
        ["evolve", "-n", "5", "-m", "1", "--mode", "continuous",
         "--samples-per-unit", str(10**400)],
    ],
    ids=["asymptotic", "continuous", "evolve-n", "samples-per-unit"],
)
def test_an_integer_past_float_range_exits_1_with_one_line(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("mafia-odds: "), lines


# optimal --max-n 10**30 pads its ladder rows and simulate -n 10**11 asks numpy
# for 373 GiB; whether a real allocation fails depends on the machine's
# overcommit setting, so the solver raises instead
@pytest.mark.parametrize(
    "module,solver,argv",
    [
        ("winchance", "optimal_mafia_rows", ["optimal", "--max-n", str(10**30)]),
        ("montecarlo", "estimate_win_chance", ["simulate", "-n", str(10**11), "-m", "1", "--trials", "1"]),
    ],
    ids=["optimal", "simulate"],
)
def test_a_failed_allocation_exits_1_with_one_line(monkeypatch, capsys, module, solver, argv):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(import_module(f"mafia_odds.{module}"), solver, exhausted)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "mafia-odds: out of memory\n")


class TestOutputFile:
    def test_file_matches_stdout(self, tmp_path):
        # the second table: 7,380 rows in 240 groups, each rendered as its own piece of text
        for argv in (["table", "--max-n", "6"], ["table", "--max-n", "120", "--format", "json"]):
            target = tmp_path / "table.out"
            streamed = run_cli(*argv)
            written = run_cli(*argv, "--output", str(target))
            assert written.returncode == 0 and written.stdout == b"", argv
            assert target.read_bytes() == streamed.stdout, argv

    @pytest.mark.parametrize(
        "where,reason",
        [("missing/table.csv", "No such file or directory"), (".", "Is a directory")],
    )
    def test_unwritable_path_exits_2(self, tmp_path, where, reason):
        target = tmp_path / where
        proc = run_cli("table", "--max-n", "5", "--output", str(target))
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode().strip() == (
            f"mafia-odds: cannot write --output {target}: {reason}"
        )

    @pytest.mark.parametrize("where", ["missing/table.csv", "."])
    def test_unwritable_path_is_refused_before_computing(
        self, tmp_path, monkeypatch, capsys, where
    ):
        calls = []

        def kernel(*args):
            calls.append(args)
            raise AssertionError("the table was computed")

        monkeypatch.setattr(winchance, "win_chance_rows", kernel)
        argv = ["table", "--max-n", "5", "--output", str(tmp_path / where)]
        assert cli.main(argv) == 2
        assert calls == []
        assert "cannot write --output" in capsys.readouterr().err

    # the probe opens /dev/full, so the failure comes with the write, after computing
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_full_device_exits_1_with_one_line(self):
        proc = run_cli("table", "--max-n", "3", "--output", "/dev/full")
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == (
            b"mafia-odds: cannot write --output /dev/full: No space left on device\n"
        )

    # past the validity window (exit 1), and a malformed state (exit 2)
    FAILING = [
        (["evolve", "-n", "9", "-m", "2", "--mode", "discrete", "--t-max", "6"], 1),
        (["evolve", "-n", "9", "-m", "12"], 2),
    ]

    @pytest.mark.parametrize("argv,code", FAILING)
    def test_failed_command_leaves_no_new_file(self, tmp_path, capsys, argv, code):
        target = tmp_path / "evolve.csv"
        assert cli.main([*argv, "--output", str(target)]) == code
        assert not target.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv,code", FAILING)
    def test_failed_command_keeps_an_existing_file(self, tmp_path, argv, code):
        target = tmp_path / "evolve.csv"
        target.write_bytes(b"earlier output\n")
        assert cli.main([*argv, "--output", str(target)]) == code
        assert target.read_bytes() == b"earlier output\n"

    @pytest.mark.parametrize("argv,code", FAILING)
    def test_failed_command_keeps_a_dangling_symlink(self, tmp_path, argv, code):
        link, target = tmp_path / "out.csv", tmp_path / "dir" / "target.csv"
        target.parent.mkdir()
        try:
            link.symlink_to(target)
        except (OSError, NotImplementedError) as exc:
            pytest.skip(f"cannot create a symlink here: {exc}")
        assert cli.main([*argv, "--output", str(link)]) == code
        assert link.is_symlink() and not target.exists()

    @pytest.mark.skipif(
        not os.path.exists("/dev/stdout"), reason="no /dev/stdout on this platform"
    )
    def test_a_pipe_target_gets_the_same_bytes_as_stdout(self):
        streamed = run_cli("table", "--max-n", "5")
        piped = run_cli("table", "--max-n", "5", "--output", "/dev/stdout")
        assert piped.returncode == 0 and piped.stderr == b""
        assert piped.stdout == streamed.stdout

    def test_no_placeholder_exists_while_the_command_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        target = tmp_path / "table.csv"
        seen = []

        def kernel(*args):
            seen.append(target.exists())
            raise ValueError("the kernel failed")

        monkeypatch.setattr(winchance, "win_chance_rows", kernel)
        assert cli.main(["table", "--max-n", "5", "--output", str(target)]) == 1
        assert seen == [False]
        assert capsys.readouterr().err == "mafia-odds: the kernel failed\n"

    def test_interrupted_command_propagates_and_leaves_no_new_file(
        self, tmp_path, monkeypatch
    ):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(winchance, "win_chance_rows", interrupt)
        new, existing = tmp_path / "new.csv", tmp_path / "existing.csv"
        existing.write_bytes(b"earlier output\n")
        for target in (new, existing):
            with pytest.raises(KeyboardInterrupt):
                cli.main(["table", "--max-n", "5", "--output", str(target)])
        assert not new.exists()
        assert existing.read_bytes() == b"earlier output\n"


class TestStdoutFailure:
    def test_a_closed_pipe_exits_1_silently(self):
        # about 3 MB of rows, far past a pipe's buffer, so a write meets the closed end
        proc = subprocess.Popen(
            [sys.executable, "-m", "mafia_odds", "table", "--max-n", "300"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"n,m,w_num,w_den,w_float\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert stderr == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_full_device_exits_1_with_one_line(self):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "mafia_odds", "table", "--max-n", "3"],
                stdout=full,
                stderr=subprocess.PIPE,
                timeout=120,
            )
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert proc.stderr == b"mafia-odds: cannot write stdout: No space left on device\n"

    def test_a_callers_failing_stream_is_reported_and_left_alone(self, monkeypatch, capsys):
        # a stream with no descriptor, as a caller running main in-process may
        # put in place of stdout: main reports the error and redirects nothing
        class FullStream(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        stream = FullStream()
        monkeypatch.setattr(sys, "stdout", stream)
        assert cli.main(["table", "--max-n", "3"]) == 1
        assert sys.stdout is stream
        assert capsys.readouterr().err == (
            f"mafia-odds: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
        )


# every kind of scalar the encoder tells apart, beyond what the commands
# print; the characters cover each escape class (quote, backslash, control,
# non-ASCII, astral as a surrogate pair) and "%", which the template uses
_JSON_CHARS = 'az09 "\\/\n\t\x00\x7f%s{}:,\u00e9\u2028\U0001f0a1'
# the floats at the edges of "%.12g" and "%r": signed zero, the least
# subnormal, the first power of ten repr writes with an exponent, non-finite
_EDGE_FLOATS = [-0.0, 1e-300, 5e-324, 1e16, math.inf, -math.inf, math.nan]
_JSON_TYPES = [
    st.none(),
    st.integers() | st.integers(min_value=-(1 << 3000), max_value=1 << 3000),
    st.floats() | st.sampled_from(_EDGE_FLOATS),
    st.text(_JSON_CHARS),
]
_JSON_VALUES = st.one_of(_JSON_TYPES)


@st.composite
def _records(draw):
    keys = draw(st.lists(st.text(_JSON_CHARS), min_size=1, max_size=4, unique=True))
    values = st.lists(_JSON_VALUES, min_size=len(keys), max_size=len(keys))
    rows = draw(st.lists(values, min_size=1, max_size=6))
    return tuple(keys), [tuple(row) for row in rows]


# integers past CPython's default int-to-str limit of 4,300 digits, and every
# scalar a single record is written for
_HUGE_INTS = st.integers(10**4300, 10**4400) | st.integers(-(10**4400), -(10**4300))
_RECORD_VALUES = st.one_of(*_JSON_TYPES, st.booleans(), _HUGE_INTS)


@st.composite
def _single_record(draw):
    keys = draw(st.lists(st.text(_JSON_CHARS), min_size=1, max_size=5, unique=True))
    return tuple(keys), tuple(draw(st.lists(_RECORD_VALUES, min_size=len(keys), max_size=len(keys))))


# one record holding each edge a single record renders
_EDGE_RECORD = (
    ("n", "w_num", "x", "y", "z", "w", "b", "%s"),
    (10**4301 + 7, -(10**4350), math.nan, math.inf, -0.0, None, True, 'a%s "b"\n%d'),
)


@contextlib.contextmanager
def _no_digit_limit():
    """Lift CPython's int-to-str digit limit (Python >= 3.10.7) while the block runs."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


_COLUMN = (list, tuple)


@st.composite
def _keyed_groups(draw):
    """Field names and groups of records: each item a list, a tuple or a shared scalar.

    A column holds one type (bool too), which gets a typed code, or mixed
    types.  Groups may be empty (columns of no values), hold scalars only
    (one record) or pass on, as the very same objects, the items of the
    group before.
    """
    types = [*_JSON_TYPES, st.booleans()]
    keys = draw(st.lists(st.text(_JSON_CHARS), min_size=1, max_size=4, unique=True))
    groups = []
    for _ in range(draw(st.integers(0, 5))):
        count = draw(st.integers(0, 4))
        group = []
        for field in range(len(keys)):
            if groups and draw(st.booleans()):
                kept = groups[-1][field]
                if type(kept) not in _COLUMN or len(kept) == count:
                    group.append(kept)
                    continue
            if draw(st.booleans()):
                group.append(draw(st.one_of(types)))
            else:
                values = draw(st.sampled_from([st.one_of(types), *types]))
                column = draw(st.lists(values, min_size=count, max_size=count))
                group.append(draw(st.sampled_from(_COLUMN))(column))
        groups.append(tuple(group))
    return tuple(keys), groups


def _expand(groups):
    """The records of each group, a tuple of scalars each."""
    records = []
    for group in groups:
        columns = [item for item in group if type(item) in _COLUMN]
        for i in range(len(columns[0]) if columns else 1):
            records.append(tuple(item[i] if type(item) in _COLUMN else item for item in group))
    return records


def _fresh(groups):
    """The groups with every column a new object, so no column recurs."""
    return [tuple(type(item)([*item]) if type(item) in _COLUMN else item for item in group)
            for group in groups]


def _pieces(groups) -> int:
    """The pieces of text a group emitter yields: one per group with a record, and one more."""
    return 1 + sum(all(len(item) for item in group if type(item) in _COLUMN) for group in groups)


# one column recurring as the same tuple object, with "%" in its strings
_REPEATED = ("a%s", "%%", "b")
_REPEATED_GROUPS = [(1, _REPEATED, [0.5, True, None]), (2, _REPEATED, (1 << 3000, -0.0, "%d"))]


class TestEmitJson:
    @given(_records())
    def test_record_lists_match_the_indented_encoder(self, records):
        fields, rows = records
        expected = json.dumps([dict(zip(fields, row)) for row in rows], indent=2)
        assert "".join(cli._emit("json", fields, rows)) == expected + "\n"

    def test_a_single_record_and_no_records(self):
        record = {"n": 9, "w_num": 1 << 3000, "w_float": -0.0, "note": "\u00e9\n"}
        expected = json.dumps(record, indent=2) + "\n"
        assert "".join(cli._emit("json", tuple(record), tuple(record.values()))) == expected
        assert "".join(cli._emit("json", ("n",), [])) == "[]\n"

    # one record alone is the top-level object, whatever its values
    @given(_single_record())
    @example(_EDGE_RECORD)
    def test_a_single_record_matches_the_indented_encoder(self, record):
        fields, values = record
        with _no_digit_limit():
            expected = json.dumps(dict(zip(fields, values)), indent=2) + "\n"
            assert "".join(cli._emit("json", fields, values)) == expected

    # shared values and list or tuple columns of every type (bool too), with
    # "%", "{" and "}" in keys and strings; each group with a record is one
    # piece, and recurring items give the bytes of fresh copies
    @given(_keyed_groups())
    def test_groups_match_the_indented_encoder(self, keyed):
        fields, groups = keyed
        expected = json.dumps([dict(zip(fields, r)) for r in _expand(groups)], indent=2)
        pieces = list(cli._emit("json", fields, iter(groups)))
        assert "".join(pieces) == expected + "\n"
        assert len(pieces) == _pieces(groups)
        assert "".join(cli._emit("json", fields, _fresh(groups))) == expected + "\n"

    # the typed code of a finite float column is the encoder's own text
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
    def test_a_finite_float_column_matches_the_encoder(self, values):
        values += _EDGE_FLOATS[:4]
        assert cli._encoder("json")(values) == ("%r", values)
        assert ["%r" % x for x in values] == [json.dumps(x) for x in values]

    def test_bool_columns_and_a_repeated_tuple_column(self):
        fields = ("n", "s", "x")
        groups = [*_REPEATED_GROUPS, (3, _REPEATED, (True, False, True))]
        expected = json.dumps([dict(zip(fields, r)) for r in _expand(groups)], indent=2)
        assert '"x": true' in expected and '"x": false' in expected
        assert "".join(cli._emit("json", fields, groups)) == expected + "\n"
        assert "".join(cli._emit("json", fields, _fresh(groups))) == expected + "\n"

    def test_empty_and_scalar_groups(self):
        fields = ("n", "s", "x")
        groups = [(1, [], []), (2, "%s{0}", None), ([], "a", []), ([3, 4], "b", [0.5, True])]
        expected = json.dumps([dict(zip(fields, r)) for r in _expand(groups)], indent=2)
        assert len(_expand(groups)) == 3
        assert "".join(cli._emit("json", fields, groups)) == expected + "\n"
        assert "".join(cli._emit("json", fields, [(1, [], [])])) == "[]\n"

    # rows of scalars are transposed into groups of at most _GROUP records
    @pytest.mark.parametrize("size", [1, 2, 4096])
    @given(records=_records())
    def test_transposed_rows_match_the_indented_encoder(self, size, records):
        fields, rows = records
        expected = json.dumps([dict(zip(fields, row)) for row in rows], indent=2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_GROUP", size)
            groups = list(cli._groups(iter(rows)))
        assert len(groups) == -(-len(rows) // size)
        assert _expand(groups) == rows
        assert "".join(cli._emit("json", fields, iter(groups))) == expected + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return "{:.12g}".format(value) if isinstance(value, float) else str(value)


class TestEmitCsv:
    FIELDS = ("n", "m", "x", "s", "big")
    ROWS = [(1, None, 0.1, "a", 1 << 70), (2, 3, -0.0, "", 5), (3, None, 1e-300, "b", -7)]

    # fewer fields than a group has items write only the first ones
    @pytest.mark.parametrize("size", [1, 2, 4096])
    @pytest.mark.parametrize(
        "width,expected",
        [
            (None, f"n,m,x,s,big\n1,,0.1,a,{1 << 70}\n2,3,-0,,5\n3,,1e-300,b,-7\n"),
            (3, "n,m,x\n1,,0.1\n2,3,-0\n3,,1e-300\n"),
        ],
        ids=["all-fields", "width-3"],
    )
    def test_transposed_rows_join_into_one_line_per_row(
        self, monkeypatch, size, width, expected
    ):
        monkeypatch.setattr(cli, "_GROUP", size)
        groups = cli._groups(iter(self.ROWS))
        assert "".join(cli._emit("csv", self.FIELDS[:width], groups)) == expected

    def test_a_single_row_and_no_rows(self):
        assert "".join(cli._emit("csv", self.FIELDS, self.ROWS[1])) == "n,m,x,s,big\n2,3,-0,,5\n"
        assert "".join(cli._emit("csv", self.FIELDS[:2], iter(()))) == "n,m\n"

    # every scalar a CSV cell is written for (a bool as True or False),
    # against one cell at a time; recurring items give the bytes of fresh copies
    @pytest.mark.parametrize("width", [None, 2])
    @given(keyed=_keyed_groups())
    def test_groups_match_a_cell_by_cell_reference(self, width, keyed):
        fields, groups = keyed
        lines = [",".join(fields[:width])]
        lines += [",".join(map(_csv_cell, r[:width])) for r in _expand(groups)]
        pieces = list(cli._emit("csv", fields[:width], iter(groups)))
        assert "".join(pieces) == "\n".join(lines) + "\n"
        assert len(pieces) == _pieces(groups)
        assert "".join(cli._emit("csv", fields[:width], _fresh(groups))) == "\n".join(lines) + "\n"

    # one record alone is the header and one line, whatever its values
    @pytest.mark.parametrize("width", [None, 2])
    @given(record=_single_record())
    @example(record=_EDGE_RECORD)
    def test_a_single_record_matches_a_cell_by_cell_reference(self, width, record):
        fields, values = record
        with _no_digit_limit():
            expected = ",".join(fields[:width]) + "\n" + ",".join(map(_csv_cell, values[:width]))
            assert "".join(cli._emit("csv", fields[:width], values)) == expected + "\n"

    # the typed code of a float column and the format spec of a mixed one agree
    @given(st.floats() | st.sampled_from(_EDGE_FLOATS))
    def test_the_float_code_matches_the_format_spec(self, x):
        assert "%.12g" % x == "{:.12g}".format(x)

    def test_a_list_refilled_in_place_is_encoded_afresh(self):
        column = [1, 2]

        def groups():
            yield 0, column
            column[:] = [0.5, None]  # a new type, so a new code
            yield 1, column

        assert "".join(cli._emit("csv", ("t", "x"), groups())) == "t,x\n0,1\n0,2\n1,0.5\n1,\n"

    def test_bool_columns_and_a_repeated_tuple_column(self):
        groups = [*_REPEATED_GROUPS, (3, _REPEATED, (True, False, True))]
        expected = (
            f"n,s,x\n1,a%s,0.5\n1,%%,True\n1,b,\n2,a%s,{1 << 3000}\n2,%%,-0\n2,b,%d\n"
            "3,a%s,True\n3,%%,False\n3,b,True\n"
        )
        assert "".join(cli._emit("csv", ("n", "s", "x"), groups)) == expected
        assert "".join(cli._emit("csv", ("n", "s", "x"), _fresh(groups))) == expected

    def test_empty_and_scalar_groups(self):
        groups = [(1, [], []), (2, "%s{0}", None), ([], "a", []), ([3, 4], "b", [0.5, "%d"])]
        expected = "n,s,x\n2,%s{0},\n3,b,0.5\n4,b,%d\n"
        assert "".join(cli._emit("csv", ("n", "s", "x"), groups)) == expected


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
class TestDigitLimit:
    """Exact cells print in full under the smallest int-to-str digit limit."""

    # (argv, the n and m of the last record); each exact pair runs to ~900
    # digits, and at w(16000, 2) to ~4,800, past the default limit of 4,300
    CASES = [
        (["winchance", "-n", "3000", "-m", "3"], (3000, 3)),
        (["winchance", "-n", "3000", "-m", "3", "--format", "json"], (3000, 3)),
        (["single-mafia", "--max-n", "3000"], (3000, 1)),
        (["winchance", "-n", "16000", "-m", "2", "--method", "recurrence"], (16000, 2)),
        (["winchance", "-n", "16000", "-m", "2", "--method", "closed", "--format", "json"], (16000, 2)),
    ]

    @pytest.mark.parametrize("argv,state", CASES, ids=[" ".join(a) for a, _ in CASES])
    def test_exact_cells_print_past_the_limit(self, capsys, argv, state):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = cli.main(argv)
            after = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)  # the checks below read every digit
            out = capsys.readouterr().out
            assert code == 0
            assert after == 640  # the caller's limit, not the lifted one
            if "json" in argv:
                record = json.loads(out)
            else:
                header, *_, last = out.splitlines()
                record = dict(zip(header.split(","), last.split(",")))
            num, den = (int(v) for k, v in record.items() if k.endswith(("_num", "_den")))
            exact = winchance.win_chance_recurrence(*state)
            assert (num, den) == (exact.numerator, exact.denominator)
            assert len(str(exact.denominator)) > 640
        finally:
            sys.set_int_max_str_digits(old)


class TestLargeOutput:
    # fails at t = 200.125, the first sample past N/2, refused before the
    # 51,232 rows ahead of it are computed
    LATE_FAILURE = ["evolve", "-n", "400", "-m", "30", "--mode", "continuous", "--t-max", "300"]
    MESSAGE = "mafia-odds: need 0 <= t <= N/2, got N=400, t=200.125\n"

    @staticmethod
    def _writes_nothing(argv, message, tmp_path, capsys):
        """The command fails with ``message`` and leaves stdout, a new and an existing file alone."""
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", message)
        new, existing = tmp_path / "new.csv", tmp_path / "existing.csv"
        existing.write_bytes(b"earlier output\n")
        for target in (new, existing):
            assert cli.main([*argv, "--output", str(target)]) == 1
            assert capsys.readouterr() == ("", message)
        assert not new.exists()
        assert existing.read_bytes() == b"earlier output\n"

    def test_a_refused_late_sample_writes_nothing(self, tmp_path, capsys):
        self._writes_nothing(self.LATE_FAILURE, self.MESSAGE, tmp_path, capsys)

    def test_a_failure_after_the_first_group_leaves_the_groups_written(
        self, tmp_path, capsys, monkeypatch
    ):
        # the mean fails from t = 100 on, after the groups of the samples
        # before it are rendered and written
        from mafia_odds import evolution

        argv = ["evolve", "-n", "400", "-m", "30", "--mode", "continuous", "--format", "json"]
        assert cli.main(argv) == 0
        full = capsys.readouterr().out
        emit, mean, rendered, at_failure = cli._emit, evolution.mean_continuous, [], []

        def counted_emit(*args):
            for piece in emit(*args):
                rendered.append(piece)
                yield piece

        def failing_mean(N, M, t):
            if t >= 100:
                at_failure.append("".join(rendered))
                rendered.clear()
                raise ValueError("a late failure")
            return mean(N, M, t)

        monkeypatch.setattr(cli, "_emit", counted_emit)
        monkeypatch.setattr(evolution, "mean_continuous", failing_mean)
        message = "mafia-odds: a late failure\n"
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (at_failure[0], message)
        new, existing = tmp_path / "new.csv", tmp_path / "existing.csv"
        existing.write_bytes(b"earlier output\n")
        for target in (new, existing):
            assert cli.main([*argv, "--output", str(target)]) == 1
            assert capsys.readouterr() == ("", message)
        assert len(at_failure) == 3
        assert all(at_failure)  # output had started to render each time
        # each target holds exactly the pieces rendered before the failure: the
        # full output's first 800 samples, up to t = 99.875
        assert at_failure[0] == at_failure[1] == at_failure[2]
        assert full.startswith(at_failure[0]) and at_failure[0].endswith("}")
        assert at_failure[0].count('"mode"') == 800 * 32
        assert new.read_bytes() == existing.read_bytes() == at_failure[0].encode()

    def test_memory_follows_the_output(self, tmp_path):
        # each group is written as it renders, so the traced peak stays
        # below the size of the text
        target = tmp_path / "evolve.json"
        argv = ["evolve", "-n", "400", "-m", "30", "--mode", "continuous", "--format", "json"]
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--output", str(target)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = target.stat().st_size
        assert written > 8_000_000
        assert peak < 2 * written

    def test_long_tables_stream_in_bounded_memory(self):
        # each group is written as it renders. table --max-n 1200 writes
        # 721,800 rows and 155 MiB of CSV, and holding the whole output first
        # peaked at 192 MB; single-mafia --max-n 15000 writes 256 rows a group
        # whose cells run to thousands of digits, and 4,096-row groups peaked
        # at 104 MB. The two commands run at once.
        bounds_mb = {"table --max-n 1200": 64, "single-mafia --max-n 15000": 48}
        procs = {
            argv: launch("-m", "mafia_odds", *argv.split(), stdout=subprocess.DEVNULL)
            for argv in bounds_mb
        }
        for argv, proc in procs.items():
            peak_mb = finish(proc)[1] / 1024
            assert peak_mb < bounds_mb[argv], f"{argv} peaked at {peak_mb:.1f} MB of max RSS"

    # each group is written as it renders, so the traced peak stays flat as
    # --max-n grows: these runs write 6.6 MiB of CSV and 12.4 MiB of JSON
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_stays_flat_as_the_table_grows(self, tmp_path, fmt):
        target = tmp_path / f"table.{fmt}"
        tracemalloc.start()
        try:
            assert cli.main(["table", "--max-n", "400", "--format", fmt, "--output", str(target)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert target.stat().st_size > 6_000_000
        assert peak < 1 << 20


# a small run of every command: its JSON objects share one key order, and
# its CSV header is their first keys (evolve's leaves out the exact pair)
@pytest.mark.parametrize(
    "argv",
    [
        "winchance -n 9 -m 2",
        "table --max-n 4",
        "single-mafia --max-n 4",
        "evolve -n 6 -m 2 --samples-per-unit 2",
        "optimal --max-n 5",
        "simulate -n 9 -m 2 --trials 100",
    ],
)
def test_csv_header_leads_the_json_keys(capsys, argv):
    assert cli.main(argv.split()) == 0
    header = capsys.readouterr().out.splitlines()[0].split(",")
    assert cli.main([*argv.split(), "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    if isinstance(records, dict):
        records = [records]
    keys = list(records[0])
    assert all(list(record) == keys for record in records)
    assert keys[: len(header)] == header


_SOLVERS = {f"mafia_odds.{name}" for name in ("core", "evolution", "montecarlo", "winchance")}
# numpy only where a simulation draws (numpy itself loads inspect), and no
# solver module loads dataclasses or inspect to build its record classes
_UNUSED_BY_SOLVERS = {"numpy", "dataclasses", "inspect"}
_UNUSED_BY_HELP = _SOLVERS | _UNUSED_BY_SOLVERS | {"fractions", "decimal", "json"}


# each entry point loads the modules its command runs and none of the others
@pytest.mark.parametrize(
    "entry,loaded,skipped",
    [
        ("import mafia_odds", {"mafia_odds"}, _UNUSED_BY_HELP),
        ("import mafia_odds.cli", {"mafia_odds.cli"}, _UNUSED_BY_HELP),
        ("import mafia_odds\nfrom mafia_odds import cli", {"mafia_odds.cli"}, _UNUSED_BY_HELP),
        ("import mafia_odds\nmafia_odds.__all__", _SOLVERS, _UNUSED_BY_SOLVERS),
        ("--help", {"mafia_odds.cli"}, _UNUSED_BY_HELP),
        (
            "evolve -n 9 -m 2 --mode discrete",
            {"mafia_odds.evolution"},
            {"mafia_odds.montecarlo", "mafia_odds.winchance"} | _UNUSED_BY_SOLVERS,
        ),
        (
            "simulate -n 9 -m 2 --trials 100",
            {"mafia_odds.montecarlo", "numpy"},
            {"mafia_odds.winchance", "mafia_odds.evolution", "dataclasses"},
        ),
        (
            "table --max-n 5",
            {"mafia_odds.winchance"},
            {"json", "heapq", "mafia_odds.montecarlo", "mafia_odds.evolution"}
            | _UNUSED_BY_SOLVERS,
        ),
        (
            "winchance -n 9 -m 2",
            {"mafia_odds.winchance", "fractions"},
            {"json", "mafia_odds.montecarlo", "mafia_odds.evolution"} | _UNUSED_BY_SOLVERS,
        ),
        (
            "winchance -n 9 -m 2 --method continuous",
            {"mafia_odds.evolution"},
            {"json", "mafia_odds.montecarlo", "mafia_odds.winchance"} | _UNUSED_BY_SOLVERS,
        ),
    ],
    ids=[
        "import-package",
        "import-cli",
        "from-package-import-cli",
        "import-namespace",
        "help",
        "evolve-discrete",
        "simulate",
        "table-csv",
        "winchance-recurrence",
        "winchance-continuous",
    ],
)
def test_an_entry_point_loads_only_what_it_runs(entry, loaded, skipped):
    if not entry.startswith("import "):
        # what python -m mafia_odds runs, with the exit caught so the probe runs after it
        entry = (
            f"import runpy, sys\nsys.argv[1:] = {entry.split()!r}\n"
            "try:\n    runpy.run_module('mafia_odds', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n    assert not exc.code"
        )
    # a fresh interpreter, which lists its modules on stderr after the command's output
    probe = f"{entry}\nimport sys\nprint(*sys.modules, file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stderr.decode().split())
    assert loaded <= modules
    assert not skipped & modules


@pytest.mark.parametrize(
    "code",
    [
        "before = set(dir())\nfrom mafia_odds import *\nnames = set(dir()) - before - {'before'}",
        "import mafia_odds\nnames = set(dir(mafia_odds)) & set(vars(mafia_odds))",
    ],
    ids=["star-import", "dir"],
)
def test_the_first_use_of_the_namespace_binds_every_public_name(code):
    from test_package import PUBLIC_NAMES

    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nprint(*sorted(names))"], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert set(PUBLIC_NAMES) <= set(proc.stdout.decode().split())


# SHA-256 of stdout for every subcommand in both formats, every --method,
# every evolve --mode and the tie boundary: any changed output byte fails.
GOLDEN_STDOUT = [
    ("winchance -n 9 -m 2",
     "029bdb5fcc78fc1fdd2007a68bb3353bf52d2eaa0f65baff63952359dcb68876"),
    ("winchance -n 9 -m 2 --format json",
     "27f048f94d6fbc1d57a3a2a0eb8e672f438ef7bc215ecde1fb2fc62d952e27e8"),
    ("winchance -n 11 -m 3 --method closed",
     "15230be37d1b38e7e085869644b8bc94d615c1872895a05b3af4f00338d8fe14"),
    ("winchance -n 11 -m 3 --method asymptotic",
     "7c3caf551aef5ee604ade3eff52138fdf303c5aadaacbf1ab080782cd6a36046"),
    ("winchance -n 11 -m 3 --method continuous --format json",
     "762310079c663e58ad5daea453d741bff1b6bfb4bcb7804450a573241363955c"),
    ("winchance -n 10 -m 4 --boundary ties",
     "8577699833cb95231eb39ede38e445b99ca5e4dbc5a747c9d2b8ec75ca590180"),
    ("table --max-n 7",
     "4aec3b5f8f95f525369c3f9fe3268a9a25ce0519c0421dfec77c71164d2ae23c"),
    ("table --max-n 6 --boundary ties --format json",
     "5dc3a7aa5087c693eb84a67b109fdc77d7fc15a3fb10f115c987f72bd9721c67"),
    ("single-mafia --max-n 9",
     "529c7203968e81f3e34e60ec161c3c5515ad6238527fa5469d3b5bf5678ac2d0"),
    ("single-mafia --max-n 5 --format json",
     "39b685c7d5a8b1672b7d793950a1524d99b022c5b23ffd069d4b153b746714ac"),
    ("evolve -n 9 -m 2 --mode discrete",
     "32915b167bbdfe47fb9d6da87fbb6fbe94571fb851bb90c366c8df1e6d4e9136"),
    ("evolve -n 9 -m 2 --mode continuous --samples-per-unit 3",
     "53b8abf007f4605e7814f2c766fa638169f050e4293ea7885c080003d4a1040a"),
    ("evolve -n 8 -m 3 --mode both --t-max 2",
     "81505b1abf3d0de8736de4535c14d756dda35febe9cdbf4237e593a9ca9ab565"),
    ("evolve -n 7 -m 2 --format json --samples-per-unit 2",
     "159fec59d66d6f517937f8d92a9b489d113dcb89cf09c2f4938685e6ca4398a4"),
    ("optimal --max-n 12",
     "ce9f2c6cb41bfa5a576d7bc38ddd9fd2efc870dc62000bf3648fb4b4a42d3e11"),
    ("optimal --max-n 8 --format json",
     "ae3dbe48dc7bc7f865ef9aaa2d74b9a4f39c82d590ef00ae7e8294d44f338726"),
    ("simulate -n 9 -m 2 --trials 3000 --seed 5",
     "a12c367dde30fbb4944430d46337eb690c3dacc0ee8ca1765d1402b586b8039c"),
    ("simulate -n 8 -m 2 --trials 2000 --seed 11 --boundary ties --format json",
     "ad4685edabced3af015f2655200c1f52bf3eb98df6b18323370d8a921eec0d6a"),
    # larger cases, where most exact cells reduce (gcd > 1)
    ("table --max-n 40",
     "1932b2e1fe387280d0f0b1fc74c83464165ffc6aedf5fe20463aa882890de57d"),
    ("table --max-n 40 --format json",
     "c3a4a963ffc97da9aa4ba3f7d4518489ad9a748cd5bf44709e0d2cfbfdcaece6"),
    ("table --max-n 30 --boundary ties",
     "c02f784da8a1b814bfea392a1019d231389802bbe6ba0f744f77e983186362af"),
    ("single-mafia --max-n 120 --format json",
     "528563c62d11ee126b5ce5ad67cae4d9de196853caadc1dd09c8e9459504765f"),
    ("evolve -n 40 -m 5 --mode both --format json",
     "b9ef649653458bb24a5612cf428cff629e6d69aeb9f4bb5e1a89690e371630a8"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT, ids=[a for a, _ in GOLDEN_STDOUT])
def test_stdout_matches_the_recorded_bytes(argv, digest):
    proc = run_cli(*argv.split())
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def _readme_command_line() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_line_matches_the_parser():
    section = _readme_command_line()
    documented = {}
    for flag, choices in re.findall(r"(--[\w-]+) \{([^}]*)\}", section):
        documented.setdefault(flag, set()).add(tuple(choices.split(",")))
    (commands,) = [
        action.choices
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    parsed = {}
    for sub in commands.values():
        for action in sub._actions:
            if action.choices and action.option_strings:
                parsed.setdefault(action.option_strings[-1], set()).add(
                    tuple(action.choices)
                )
    assert set(re.findall(r"^\| `([\w-]+)` \|", section, re.M)) == set(commands)
    assert documented == parsed


# SHA-256 of each --help at 80 columns; argparse 3.13 writes a short and a
# long option with one metavar ("-n, --players PLAYERS"), so these bytes are
# those of Python 3.10 to 3.12
HELP_DIGESTS = {
    "": "429752a7917f38d668e71a43fbf6a9e5678fa9ac3ae01d8f8170617ee9ef9997",
    "winchance": "a724b1a0a35a298932261899c9166bd6bd669a5dfbfbd63d24fbbb9c1e0f4e45",
    "table": "ee66c6270cce9f4a6e12e95cb7238465461701aa485470f4aae2e7b68e0a5772",
    "single-mafia": "7d49132e444f7a6e332c91f23758ffda194ab121c19794467cc3a2f5966aa3d5",
    "evolve": "ccbac9eea1ba2c665b370cabeb42a1a4f745aaeca3a43d8c93dba6b6e16b325c",
    "optimal": "fdde71c14b01442cb9edf5a6ee4c4bcf48fc6dea8456baec1fdd98188b54c70a",
    "simulate": "e301470fe8e47c78a2d38603e483ebfdd5013237b062e547295a3203a9328ed1",
}


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 formats options anew")
@pytest.mark.parametrize("command", HELP_DIGESTS)
def test_help_matches_the_recorded_bytes(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        cli.main([*command.split(), "--help"])
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]
