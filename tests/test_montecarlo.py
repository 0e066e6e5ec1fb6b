import hashlib
import json
import math
import multiprocessing
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from mafia_odds import montecarlo
from mafia_odds.core import BoundaryRule
from mafia_odds.evolution import evolve_discrete
from mafia_odds.montecarlo import (
    CHUNK_TRIALS,
    estimate_distribution,
    estimate_win_chance,
    simulate_game,
    Winner,
)
from mafia_odds.winchance import win_chance_recurrence

from launcher import finish, launch
from oracles import brute_force_win_chance

STRICT = BoundaryRule.STRICT_MAJORITY
TIES = BoundaryRule.TIES


class TestSimulateGame:
    def test_immediate_mafia_win_is_a_single_state(self):
        traj = simulate_game(3, 3, STRICT, random.Random(0))
        assert traj.winner is Winner.MAFIA
        assert len(traj.states) == 1

    def test_immediate_citizens_win(self):
        traj = simulate_game(1, 0, STRICT, random.Random(0))
        assert traj.winner is Winner.CITIZENS
        assert len(traj.states) == 1

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            simulate_game(2, 3, STRICT, random.Random(0))

    @given(
        st.integers(min_value=0, max_value=20).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))
        ),
        st.sampled_from([STRICT, TIES]),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_trajectory_structure(self, state, boundary, seed):
        n, m = state
        traj = simulate_game(n, m, boundary, random.Random(seed))
        assert traj.states[0].n == n and traj.states[0].m == m
        for prev, cur in zip(traj.states, traj.states[1:]):
            assert prev.m - cur.m in (0, 1)
            assert prev.n - cur.n == 2 or (
                prev.n - cur.n == 1 and cur is traj.states[-1]
            )
        last = traj.states[-1]
        if traj.winner is Winner.CITIZENS:
            assert last.m == 0
        else:
            assert boundary.mafia_wins(last.n, last.m)

    def test_seeded_trajectories_are_pinned(self):
        # every state with n <= 20 under both rules; the digest pins each
        # recorded state and winner, and so the draws that led to them
        played = []
        for boundary in (STRICT, TIES):
            for n in range(21):
                for m in range(n + 1):
                    traj = simulate_game(n, m, boundary, random.Random(1000 * n + m))
                    played.append((traj.states, traj.winner.value))
        assert hashlib.sha256(repr(played).encode()).hexdigest() == (
            "62adbab457ea4341cad6643a4e8ed29e077277fbfc2a24674a61c79a8dc664c5"
        )

    @pytest.mark.parametrize("n,m", [(4, 1), (9, 3), (10, 5)])
    def test_day_lynch_kills_mafia_at_rate_m_over_n(self, n, m):
        rng = random.Random(1234)
        trials = 10**5
        hits = sum(
            simulate_game(n, m, STRICT, rng).states[1].m == m - 1
            for _ in range(trials)
        )
        p = m / n
        tolerance = 4 * math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < tolerance

    def test_loop_frequency_matches_exact_chance(self):
        rng = random.Random(77)
        trials = 20_000
        wins = sum(
            simulate_game(7, 2, STRICT, rng).winner is Winner.MAFIA
            for _ in range(trials)
        )
        exact = float(brute_force_win_chance(7, 2, STRICT))
        assert abs(wins / trials - exact) < 4 * math.sqrt(exact * (1 - exact) / trials)


class TestEstimateWinChance:
    def test_certain_outcomes_are_exact(self):
        report = estimate_win_chance(5, 5, STRICT, 10, seed=1)
        assert report.estimate == 1.0 and report.mafia_wins == 10
        report = estimate_win_chance(6, 0, STRICT, 10, seed=1)
        assert report.estimate == 0.0 and report.std_error == 0.0

    def test_report_arithmetic(self):
        report = estimate_win_chance(9, 1, STRICT, 5000, seed=3)
        assert report.estimate == report.mafia_wins / report.trials
        assert report.std_error == pytest.approx(
            math.sqrt(report.estimate * (1 - report.estimate) / report.trials)
        )
        assert (report.n, report.m, report.trials, report.seed) == (9, 1, 5000, 3)

    def test_coin_flip_state(self):
        report = estimate_win_chance(2, 1, STRICT, 10**5, seed=8)
        assert abs(report.estimate - 0.5) < 4 * report.std_error

    @pytest.mark.parametrize("boundary", [STRICT, TIES])
    def test_statistical_agreement_with_recurrence(self, boundary):
        for n, m in [(7, 2), (8, 3), (12, 4)]:
            report = estimate_win_chance(n, m, boundary, 10**5, seed=5)
            exact = float(win_chance_recurrence(n, m, boundary))
            assert abs(report.estimate - exact) <= 4 * report.std_error, (n, m)

    # MAFIA_ODDS_THREADS is not read (test_package guards the source): a value it
    # once refused sways no drawn or decided report, nor the CLI's pooled run
    def test_retired_thread_cap_changes_no_report_byte_or_exit_code(self, monkeypatch):
        def reports():
            return [
                estimate_win_chance(9, 2, STRICT, 150_000, seed=9),
                estimate_win_chance(9, 0, STRICT, 10, seed=9),
                estimate_distribution(16, 3, 4, 1000, seed=11),
                estimate_distribution(16, 3, 0, 1000, seed=11),
            ]

        def simulate(env):
            argv = ["simulate", "-n", "1000", "-m", "15", "--trials", "131072", "--seed", "3"]
            proc = subprocess.run(
                [sys.executable, "-m", "mafia_odds", *argv], capture_output=True, env=env, timeout=120
            )
            return proc.returncode, proc.stdout, proc.stderr

        unset = {k: v for k, v in os.environ.items() if k != "MAFIA_ODDS_THREADS"}
        base, cli_base = reports(), simulate(unset)
        monkeypatch.setenv("MAFIA_ODDS_THREADS", "two")
        assert reports() == base
        assert simulate(dict(unset, MAFIA_ODDS_THREADS="two")) == cli_base
        assert cli_base[0] == 0 and cli_base[2] == b""

    def test_negative_threads_is_refused(self):
        message = "need threads >= 0, got threads=-3"
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate_win_chance(9, 2, STRICT, 10, seed=0, threads=-3)

    def test_seed_changes_the_sample(self):
        a = estimate_win_chance(9, 1, STRICT, 10**4, seed=1)
        b = estimate_win_chance(9, 1, STRICT, 10**4, seed=2)
        assert a.mafia_wins != b.mafia_wins

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_win_chance(3, 4, STRICT, 10, seed=0)
        with pytest.raises(ValueError):
            estimate_win_chance(3, 1, STRICT, 0, seed=0)
        with pytest.raises(ValueError):
            estimate_win_chance(3, 1, STRICT, 10, seed=-1)
        with pytest.raises(ValueError):
            estimate_win_chance(3, 1, STRICT, 10, seed=1 << 64)


class TestEstimateDistribution:
    def test_zero_turns_is_a_point_mass(self):
        emp = estimate_distribution(8, 2, 0, 1000, seed=4)
        assert emp.counts == (0, 0, 1000)
        assert emp.probs == (0.0, 0.0, 1.0)

    def test_counts_total_the_trials(self):
        emp = estimate_distribution(32, 4, 8, 50_000, seed=4)
        assert sum(emp.counts) == emp.trials == 50_000
        assert emp.probs == tuple(c / emp.trials for c in emp.counts)

    def test_one_step_frequencies(self):
        emp = estimate_distribution(4, 1, 1, 10**5, seed=6)
        se = math.sqrt(0.75 * 0.25 / emp.trials)
        assert abs(emp.probs[1] - 0.75) < 4 * se

    def test_total_variation_against_exact_evolution(self):
        emp = estimate_distribution(32, 4, 8, 10**5, seed=10)
        exact = evolve_discrete(32, 4, 8)
        tv = 0.5 * sum(
            abs(emp.probs[m] - float(exact.probs[m])) for m in range(5)
        )
        assert tv < 0.01

    def test_rejects_time_outside_window(self):
        with pytest.raises(ValueError):
            estimate_distribution(8, 2, 4, 100, seed=0)


def _raise_on_draw(*args, **kwargs):
    raise AssertionError("a uniform was drawn")


def _decided_states(max_n):
    """Every (n, m, boundary) with n < max_n decided before the first lynch."""
    return [
        (n, m, boundary)
        for boundary in (STRICT, TIES)
        for n in range(max_n)
        for m in range(n + 1)
        if m == 0 or boundary.mafia_wins(n, m)
    ]


class TestDecidedStates:
    """A game decided before the first lynch (m = 0, or m >= first_win(n)),
    and a distribution at t = 0, are answered without drawing a uniform, but
    after every argument check a drawn state gets."""

    def test_decided_states_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_mafia_chunk", _raise_on_draw)
        trials = 3 * CHUNK_TRIALS + 1
        states = _decided_states(40) + [(1001, 501, STRICT), (1000, 0, TIES)]
        for n, m, boundary in states:
            report = estimate_win_chance(n, m, boundary, trials, seed=n)
            assert report.mafia_wins == (trials if m else 0), (n, m)
        emp = estimate_distribution(600, 40, 0, 10**9, seed=1)
        assert emp.counts == (0,) * 40 + (10**9,)
        # a drawn state still reaches the chunk kernel
        with pytest.raises(AssertionError, match="a uniform was drawn"):
            estimate_win_chance(9, 2, STRICT, 10, seed=0)

    def test_decided_reports_are_pinned(self):
        # recorded before decided states skipped their draws: the reports
        # are the same, whole chunks and a ragged one included
        reports = []
        for n, m, boundary in _decided_states(40):
            for trials in (1, 999, CHUNK_TRIALS + 1):
                seed = 1000 * n + m
                reports.append(estimate_win_chance(n, m, boundary, trials, seed))
        for N in range(1, 20):
            for M in range(N + 1):
                reports.append(estimate_distribution(N, M, 0, 999, N * 100 + M))
        assert len(reports) == 2906
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == (
            "6a4896f0fb3ed4da6dd4a242d152ee80c91eeb677f8b64e5e5bc55b32e0fa307"
        )

    @pytest.mark.parametrize(
        "n,m,boundary", [(9, 0, STRICT), (9, 5, STRICT), (8, 4, TIES)]
    )
    def test_decided_states_refuse_what_drawn_states_refuse(self, n, m, boundary):
        with pytest.raises(ValueError, match="seed must be a 64-bit value"):
            estimate_win_chance(n, m, boundary, 10, seed=-1)
        with pytest.raises(ValueError, match="seed must be a 64-bit value"):
            estimate_win_chance(n, m, boundary, 10, seed=1 << 64)
        with pytest.raises(ValueError, match="need trials >= 1"):
            estimate_win_chance(n, m, boundary, 0, seed=0)
        with pytest.raises(ValueError, match="need threads >= 0"):
            estimate_win_chance(n, m, boundary, 10, seed=0, threads=-1)
        with pytest.raises(ValueError, match="need threads >= 0"):
            estimate_distribution(n, m, 0, 10, seed=0, threads=-1)

    @pytest.mark.parametrize("m", [0, 2, 9])
    @pytest.mark.parametrize("value", [1.5, 2.0, "3"])
    def test_non_integer_seed_or_trials_is_refused_on_every_state(self, m, value):
        with pytest.raises(TypeError):
            estimate_win_chance(9, m, STRICT, 1000, value)
        with pytest.raises(TypeError):
            estimate_distribution(9, m, 0, 1000, value)
        with pytest.raises(TypeError):
            estimate_win_chance(9, m, STRICT, value, 0)


class TestDrawnReports:
    def test_drawn_reports_are_pinned(self):
        # recorded before the chunk kernel drew its own blocks: every
        # undecided state with n < 24 and every distribution window with
        # N < 16, whole chunks and a ragged one included
        reports = []
        for boundary in (STRICT, TIES):
            for n in range(24):
                for m in range(1, n + 1):
                    if boundary.mafia_wins(n, m):
                        continue
                    seed = 1000 * n + m
                    for trials in (1, 999, CHUNK_TRIALS + 1):
                        reports.append(
                            estimate_win_chance(n, m, boundary, trials, seed, threads=1)
                        )
        for N in range(1, 16):
            for M in range(1, N + 1):
                for t in range(1, (N - M) // 2 + 1):
                    seed = 100 * N + M + t
                    reports.append(estimate_distribution(N, M, t, 999, seed, threads=1))
        assert len(reports) == 1011
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == (
            "904e5a38717cbd9c997358469c403445df74c92508eb15abdabc69ec246fe191"
        )


_TASKS_AROUND_FIRST_CALL = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
from mafia_odds import montecarlo
from mafia_odds.core import BoundaryRule
before = len(os.listdir("/proc/self/task"))
if sys.argv[1] == "bare-import":
    import numpy
else:
    montecarlo.estimate_win_chance(
        9, 2, BoundaryRule.STRICT_MAJORITY, 1000, 0, threads=1
    )
after = len(os.listdir("/proc/self/task"))
print(json.dumps([before, after, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def _tasks_around_first_call(mode, blas_threads=None):
    """Threads before and after numpy loads in a fresh process, and the
    OPENBLAS_NUM_THREADS it sees afterwards."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", _TASKS_AROUND_FIRST_CALL, mode],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/task"
)
class TestBlasThreads:
    """numpy's first import by the package starts no BLAS thread, and leaves
    the environment, and any thread count the caller chose, as it was."""

    def test_first_simulation_starts_no_thread(self):
        before, after, blas_threads = _tasks_around_first_call("package")
        assert after == before
        assert blas_threads is None

    def test_a_thread_count_the_caller_set_is_kept(self):
        _, after, blas_threads = _tasks_around_first_call("package", "2")
        assert blas_threads == "2"
        # the same threads as numpy imported directly under that setting
        assert after == _tasks_around_first_call("bare-import", "2")[1]

    def test_numpy_imported_first_keeps_its_threads(self):
        bare = _tasks_around_first_call("bare-import")[1]
        assert _tasks_around_first_call("numpy-first")[:2] == [bare, bare]


class _RowReader:
    """A ``randrange`` stream that reads one trial's uniforms: u -> int(u * k)."""

    def __init__(self, row):
        self._next = iter(row).__next__

    def randrange(self, k):
        return int(self._next() * k)


class TestKernelAgainstSimulateGame:
    """The chunk kernel replays ``simulate_game`` on the chunk's own uniforms.

    For an integer m, floor(u * k) < m exactly when u * k < m, so every trial
    must have the same winner in both; the chunk's win count is then equal,
    not just close, to the number of ``simulate_game`` wins on its rows.
    """

    ROWS, SEED = 64, 7

    @pytest.mark.parametrize("boundary", [STRICT, TIES])
    def test_every_state_up_to_40_players(self, boundary):
        for n in range(41):
            rows = _whole_draw(self.SEED, 0, self.ROWS, n // 2 + 1).tolist()
            for m in range(n + 1):
                games = [simulate_game(n, m, boundary, _RowReader(row)) for row in rows]
                wins = sum(game.winner is Winner.MAFIA for game in games)
                report = estimate_win_chance(n, m, boundary, self.ROWS, self.SEED)
                assert report.mafia_wins == wins, (n, m)


def _whole_draw(seed, chunk_index, rows, draws):
    """Chunk ``chunk_index``'s uniforms as one (rows, draws) draw, the
    seeding contract written out without the kernel's blocks."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.PCG64(ss)).random((rows, draws))


def _float_day_loop(seed, chunk_index, rows, n, m, days, draws):
    """Reference kernel: one whole-chunk draw, then one float test per day.

    This is the day loop the lynch levels replaced: trial rows are read a
    column at a time and a mafioso dies when u * (n - 2*day) < mafia.
    """
    import numpy as np

    uniforms = _whole_draw(seed, chunk_index, rows, draws)
    mafia = np.full(rows, m, dtype=np.int64)
    for day in range(days):
        mafia -= uniforms[:, day] * (n - 2 * day) < mafia
    return list(np.bincount(mafia, minlength=m + 1))


class TestSubBlocks:
    """The chunk kernel gives the float day loop's histogram on one
    whole-chunk draw at any block and level group size."""

    ROWS = 299  # no multiple of the 7, 8 or 10 rows a small block holds

    @staticmethod
    def _small_blocks(monkeypatch, draws):
        # 7 rows and 3 spare values per block: splits mid-chunk, ragged end
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 7 * draws + 3)
        # three or more blocks per level group: the groups split mid-chunk
        # too, and for most states a group is no whole number of blocks, so
        # its last block is ragged
        monkeypatch.setattr(montecarlo, "_LEVEL_VALUES", 28 * draws + 5)

    @pytest.mark.parametrize("draws", [1, 2, 6, 51])
    def test_blocks_are_the_rows_of_one_draw(self, monkeypatch, draws):
        np = pytest.importorskip("numpy")
        whole = _whole_draw(5, 3, self.ROWS, draws)
        blocks = []
        make_generator = np.random.Generator

        class RecordingGenerator:
            def __init__(self, bit_generator):
                self._generator = make_generator(bit_generator)

            def random(self, out):
                self._generator.random(out=out)
                blocks.append(out.copy())
                return out

        monkeypatch.setattr(np.random, "Generator", RecordingGenerator)
        self._small_blocks(monkeypatch, draws)
        montecarlo._mafia_chunk(5, 3, self.ROWS, 2 * draws + 1, 1, draws, draws)
        assert max(len(b) for b in blocks) < self.ROWS
        assert len(blocks[-1]) < len(blocks[0])
        assert np.array_equal(np.concatenate(blocks), whole)

    @pytest.mark.parametrize("boundary", [STRICT, TIES])
    def test_win_chunk_ignores_the_block_size(self, monkeypatch, boundary):
        states = [(n, m) for n in range(0, 12) for m in range(n + 1)]
        # levels clipped at m (n > 255 > m), and m >= 256 in uint16 levels
        states += [(41, 5), (100, 9), (100, 100), (1000, 15), (600, 255), (700, 256)]
        states += [(300, 260), (513, 513)]

        def chunk(n, m):
            args = (n, 1, self.ROWS, n, m, boundary.lynch_days(n), n // 2 + 1)
            return list(montecarlo._mafia_chunk(*args)), _float_day_loop(*args)

        for n, m in states:
            counts, reference = chunk(n, m)
            assert counts == reference, (n, m)
            self._small_blocks(monkeypatch, n // 2 + 1)
            assert chunk(n, m)[0] == reference, (n, m)
            monkeypatch.undo()

    @pytest.mark.parametrize(
        "N,M,t",
        [(1, 0, 0), (1, 1, 0), (8, 2, 0), (8, 2, 3), (32, 4, 8), (60, 60, 0)]
        + [(8, 0, 4), (600, 300, 150), (2000, 300, 850)],
    )
    def test_distribution_chunk_ignores_the_block_size(self, monkeypatch, N, M, t):
        args = (2, 0, self.ROWS, N, M, t, max(t, 1))
        reference = _float_day_loop(*args)
        assert list(montecarlo._mafia_chunk(*args)) == reference
        self._small_blocks(monkeypatch, max(t, 1))
        assert list(montecarlo._mafia_chunk(*args)) == reference

    def test_chunk_memory_is_bounded(self):
        # one whole-chunk draw at n = 1000 would be 65,536 x 501 float64s, 263 MB
        pytest.importorskip("numpy")  # so the peak is the chunk's, not the import's
        # the wins, recorded before the kernel drew its own blocks, pin a
        # chunk of eight level groups at the default sizes
        for n, boundary, wins in [(1000, STRICT, 24157), (1001, TIES, 32242)]:
            tracemalloc.start()
            try:
                report = estimate_win_chance(n, 15, boundary, CHUNK_TRIALS, 0, threads=1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, (n, boundary, peak)
            assert report.mafia_wins == wins, (n, boundary)

    def test_chunk_memory_past_one_row_per_block(self):
        # n // 2 + 1 > _BLOCK_VALUES: each block is one row, and the chunk
        # grows with n; filling the day counts from a Python range held one
        # int object per day and peaked at 12 MiB here
        pytest.importorskip("numpy.random")  # so the peak is the chunk's alone
        n = 1 << 19
        tracemalloc.start()
        try:
            montecarlo._mafia_chunk(0, 0, 2, n, 15, STRICT.lynch_days(n), n // 2 + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, peak

    def test_chunk_memory_stays_flat_at_ten_thousand_players(self):
        # one 65,536-trial chunk at (10000, 60) in a fresh small process,
        # since pytest's high-water mark would hide any growth; numpy and its
        # lazily loaded random module come first, so max RSS grows by the
        # chunk's own buffers only (about 5.6 MB; a whole-chunk sub-block of
        # 2**21 uniforms grew it by 24.5 MB). The wins pin the chunk's 79
        # level groups, whose blocks end ragged, past the goldens' n <= 1003
        code = (
            "import resource\n"
            "import numpy.random\n"
            "from mafia_odds import montecarlo\n"
            "from mafia_odds.core import BoundaryRule\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "report = montecarlo.estimate_win_chance(\n"
            "    10000, 60, BoundaryRule.STRICT_MAJORITY, montecarlo.CHUNK_TRIALS, 0, threads=1\n"
            ")\n"
            "print(report.mafia_wins, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        wins, growth_kib = map(int, finish(launch("-c", code))[0].split())
        assert wins == 29514
        assert growth_kib / 1024 < 12, f"max RSS grew by {growth_kib / 1024:.1f} MB"


def _raise_on_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


# the context the package builds its pool from: fork, where the platform has it
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


class TestWorkerPool:
    """Small calls stay in-process; a forced fan-out gives the serial report."""

    @pytest.fixture
    def pool_calls(self, monkeypatch):
        calls = []
        real_pool = _CONTEXT.Pool

        def counting_pool(*args, **kwargs):
            pool = real_pool(*args, **kwargs)
            calls.append((args, pool._ctx.get_start_method()))
            return pool

        monkeypatch.setattr(montecarlo, "_PARALLEL_MIN_VALUES", 0)
        monkeypatch.setattr(_CONTEXT, "Pool", counting_pool)
        # two CPUs whatever the host has, so threads=2 asks for Pool(2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return calls

    def test_forced_fan_out_matches_serial_win_chance(self, pool_calls):
        serial = estimate_win_chance(9, 2, STRICT, 150_000, seed=42, threads=1)
        forked = estimate_win_chance(9, 2, STRICT, 150_000, seed=42, threads=2)
        assert pool_calls == [((2,), _CONTEXT.get_start_method())]
        assert forked == serial

    def test_forced_fan_out_matches_serial_distribution(self, pool_calls):
        serial = estimate_distribution(16, 3, 4, 100_000, seed=11, threads=1)
        forked = estimate_distribution(16, 3, 4, 100_000, seed=11, threads=2)
        assert pool_calls == [((2,), _CONTEXT.get_start_method())]
        assert forked == serial

    def test_small_default_call_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(_CONTEXT, "Pool", _raise_on_pool)
        report = estimate_win_chance(9, 2, STRICT, 150_000, seed=42)
        assert report == estimate_win_chance(9, 2, STRICT, 150_000, seed=42, threads=1)
        emp = estimate_distribution(16, 3, 4, 100_000, seed=11)
        assert sum(emp.counts) == 100_000

    def test_auto_count_is_the_cpus_the_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert montecarlo._worker_count(None, 2, montecarlo._PARALLEL_MIN_VALUES) == 1
        serial = estimate_win_chance(9, 2, STRICT, 150_000, seed=42, threads=1)
        monkeypatch.setattr(montecarlo, "_PARALLEL_MIN_VALUES", 0)
        monkeypatch.setattr(_CONTEXT, "Pool", _raise_on_pool)
        assert estimate_win_chance(9, 2, STRICT, 150_000, seed=42) == serial

    # each limit can only lower the count; none of these starts a process
    @pytest.mark.parametrize(
        "cpus,threads,chunks,below,expected",
        [
            (2, 10**4, 15_259, False, 2),  # threads above the CPUs
            (8, None, 3, False, 3),  # fewer chunks than CPUs
            (2, 8, 100, False, 2),
            (8, 5, 100, False, 5),
            (8, 0, 100, False, 8),
            (8, None, 100, True, 1),  # too few uniforms to pay for a pool
        ],
    )
    def test_worker_count_is_the_fewest_of_its_limits(
        self, monkeypatch, cpus, threads, chunks, below, expected
    ):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
        values = montecarlo._PARALLEL_MIN_VALUES - below
        assert montecarlo._worker_count(threads, chunks, values) == expected

    @pytest.mark.parametrize("count,expected", [(3, 3), (None, 1)])
    def test_worker_count_without_affinity_reads_the_cpu_count(
        self, monkeypatch, count, expected
    ):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert montecarlo._worker_count(8, 100, montecarlo._PARALLEL_MIN_VALUES) == expected
