import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mafia_odds import cli, winchance
from mafia_odds.evolution import evolve_discrete, mean_discrete


def run_cli(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "mafia_odds", *argv],
        capture_output=True,
        timeout=120,
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

    def test_bad_thread_cap_exits_1(self):
        env = dict(os.environ, MAFIA_ODDS_THREADS="-3")
        proc = run_cli("simulate", "-n", "9", "-m", "1", "--trials", "10", env=env)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.decode().strip() == (
            "mafia-odds: MAFIA_ODDS_THREADS must be a non-negative integer, got '-3'"
        )

    def test_bad_seed_exits_2(self):
        proc = run_cli("simulate", "-n", "2", "-m", "1", "--seed", "-5")
        assert proc.returncode == 2


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


class TestOutputFile:
    def test_file_matches_stdout(self, tmp_path):
        target = tmp_path / "table.csv"
        streamed = run_cli("table", "--max-n", "6")
        written = run_cli("table", "--max-n", "6", "--output", str(target))
        assert written.returncode == 0 and written.stdout == b""
        assert target.read_bytes() == streamed.stdout

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


# every kind of scalar the encoder tells apart, beyond what the commands
# print; the characters cover each escape class (quote, backslash, control,
# non-ASCII, astral as a surrogate pair) and "%", which the template uses
_JSON_CHARS = 'az09 "\\/\n\t\x00\x7f%s{}:,\u00e9\u2028\U0001f0a1'
_JSON_VALUES = st.one_of(
    st.none(),
    st.integers(),
    st.integers(min_value=-(1 << 3000), max_value=1 << 3000),
    st.floats(),
    st.sampled_from([-0.0, 1e-300, math.inf, -math.inf, math.nan]),
    st.text(_JSON_CHARS),
)


@st.composite
def _records(draw):
    keys = draw(st.lists(st.text(_JSON_CHARS), min_size=1, max_size=4, unique=True))
    values = st.lists(_JSON_VALUES, min_size=len(keys), max_size=len(keys))
    rows = draw(st.lists(values, min_size=1, max_size=6))
    return tuple(keys), [tuple(row) for row in rows]


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

    # the records of one array cross batch boundaries, and rows come lazily
    @pytest.mark.parametrize("batch", [1, 2])
    @given(records=_records())
    def test_batches_join_into_the_indented_encoder(self, batch, records):
        fields, rows = records
        expected = json.dumps([dict(zip(fields, row)) for row in rows], indent=2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BATCH", batch)
            pieces = list(cli._emit("json", fields, iter(rows)))
            empty = "".join(cli._emit("json", fields, iter(())))
        assert "".join(pieces) == expected + "\n"
        assert len(pieces) == -(-len(rows) // batch) + 1
        assert empty == "[]\n"


class TestEmitCsv:
    FIELDS = ("n", "m", "x", "s", "big")
    ROWS = [(1, None, 0.1, "a", 1 << 70), (2, 3, -0.0, "", 5), (3, None, 1e-300, "b", -7)]

    @pytest.mark.parametrize("batch", [1, 2, 4096])
    @pytest.mark.parametrize(
        "width,expected",
        [
            (None, f"n,m,x,s,big\n1,,0.1,a,{1 << 70}\n2,3,-0,,5\n3,,1e-300,b,-7\n"),
            (3, "n,m,x\n1,,0.1\n2,3,-0\n3,,1e-300\n"),
        ],
        ids=["all-fields", "width-3"],
    )
    def test_batches_join_into_one_line_per_row(self, monkeypatch, batch, width, expected):
        monkeypatch.setattr(cli, "_BATCH", batch)
        assert "".join(cli._emit("csv", self.FIELDS, iter(self.ROWS), width)) == expected

    def test_a_single_row_and_no_rows(self):
        assert "".join(cli._emit("csv", self.FIELDS, self.ROWS[1])) == "n,m,x,s,big\n2,3,-0,,5\n"
        assert "".join(cli._emit("csv", self.FIELDS, iter(()), 2)) == "n,m\n"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
class TestDigitLimit:
    """Exact cells print in full under the smallest int-to-str digit limit."""

    # (argv, the n and m of the last record); each exact pair runs to ~900 digits
    CASES = [
        (["winchance", "-n", "3000", "-m", "3"], (3000, 3)),
        (["winchance", "-n", "3000", "-m", "3", "--format", "json"], (3000, 3)),
        (["single-mafia", "--max-n", "3000"], (3000, 1)),
    ]

    @pytest.mark.parametrize("argv,state", CASES, ids=[" ".join(a) for a, _ in CASES])
    def test_exact_cells_print_past_the_limit(self, capsys, argv, state):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = cli.main(argv)
            after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(old)
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


class TestLargeOutput:
    # fails at t = 200.125, the first sample past N/2, after 51,232 rows
    LATE_FAILURE = ["evolve", "-n", "400", "-m", "30", "--mode", "continuous", "--t-max", "300"]
    MESSAGE = "mafia-odds: need 0 <= t <= N/2, got N=400, t=200.125\n"

    def test_a_failure_after_the_first_batch_writes_nothing(self, tmp_path, capsys):
        assert cli.main(self.LATE_FAILURE) == 1
        assert capsys.readouterr() == ("", self.MESSAGE)
        new, existing = tmp_path / "new.csv", tmp_path / "existing.csv"
        existing.write_bytes(b"earlier output\n")
        for target in (new, existing):
            assert cli.main([*self.LATE_FAILURE, "--output", str(target)]) == 1
            assert capsys.readouterr() == ("", self.MESSAGE)
        assert not new.exists()
        assert existing.read_bytes() == b"earlier output\n"

    def test_memory_follows_the_output(self, tmp_path):
        # each batch is rendered to text as it completes, so the traced peak
        # stays near the size of the text rather than a multiple of it
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


def test_exact_commands_do_not_import_numpy():
    code = "import sys, mafia_odds.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stdout == b"False\n"


def test_cli_import_skips_dataclasses_and_inspect():
    code = (
        "import sys, mafia_odds.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stdout == b"[]\n"


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
