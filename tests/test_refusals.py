"""Refusals of an out-of-range or non-integer count or size, in the library and on the command line."""

import contextlib
import csv
import io
import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mafia_odds import cli
from mafia_odds.core import (
    BoundaryRule,
    GameState,
    double_factorial,
    falling_product,
    log_double_factorial,
)
from mafia_odds.evolution import (
    discrete_path,
    evolve_discrete,
    mean_continuous,
    mean_discrete,
    peak_time,
    pm_closed,
    pm_continuous,
)
from mafia_odds.montecarlo import estimate_distribution, estimate_win_chance
from mafia_odds.winchance import (
    optimal_mafia_numeric,
    optimal_mafia_rows,
    parity_ratio,
    verify_monotonicity,
    win_chance_asymptotic,
    win_chance_rows,
    win_chance_single,
)

STRICT = BoundaryRule.STRICT_MAJORITY

# a library call raises ValueError with the message; a command line exits 2
# and prints it after the program's name
BELOW_THE_FLOOR = [
    pytest.param(lambda: evolve_discrete(0, 0, 0), "need N >= 1, got N=0", id="N"),
    pytest.param(lambda: win_chance_asymptotic(0, 0), "need n >= 1, got n=0", id="approx-n"),
    pytest.param(
        lambda: next(win_chance_rows(-1)), "need max_n >= 0, got max_n=-1", id="rows-max_n"
    ),
    pytest.param(
        lambda: next(optimal_mafia_rows(-1)), "need max_n >= 0, got max_n=-1", id="optimal-max_n"
    ),
    pytest.param(lambda: win_chance_single(-1), "need n >= 0, got n=-1", id="single-n"),
    pytest.param(lambda: optimal_mafia_numeric(0), "need n >= 1, got n=0", id="optimal-n"),
    pytest.param(lambda: parity_ratio(0), "need k >= 1, got k=0", id="k"),
    pytest.param(lambda: verify_monotonicity(2), "need n_max >= 3, got n_max=2", id="n_max"),
    pytest.param(lambda: pm_closed(32, 4, -1, 3), "need m >= 0, got m=-1", id="pm_closed-m"),
    pytest.param(
        lambda: pm_continuous(32, 4, -1, 3.0), "need m >= 0, got m=-1", id="pm_continuous-m"
    ),
    pytest.param(lambda: double_factorial(-2), "need k >= -1, got k=-2", id="double_factorial-k"),
    pytest.param(
        lambda: log_double_factorial(-2), "need k >= -1, got k=-2", id="log_double_factorial-k"
    ),
    pytest.param(lambda: falling_product(4, -1, 0), "need t >= 0, got t=-1", id="falling-t"),
    pytest.param(lambda: falling_product(4, 1, -1), "need i >= 0, got i=-1", id="falling-i"),
    pytest.param(
        lambda: falling_product(-1, 0, 0), "need 2t <= N, got N=-1, t=0", id="falling-N"
    ),
    pytest.param(
        lambda: estimate_win_chance(9, 1, STRICT, 0, 0),
        "need trials >= 1, got trials=0",
        id="trials",
    ),
    pytest.param(
        lambda: estimate_win_chance(9, 1, STRICT, 10, 0, threads=-3),
        "need threads >= 0, got threads=-3",
        id="threads",
    ),
    pytest.param(["table", "--max-n", "0"], "need --max-n >= 1, got 0", id="--max-n"),
    pytest.param(["optimal", "--max-n", "1"], "need --max-n >= 2, got 1", id="--max-n-2"),
    pytest.param(["evolve", "-n", "0", "-m", "0"], "need --players >= 1, got 0", id="--players"),
    pytest.param(
        ["evolve", "-n", "8", "-m", "2", "--samples-per-unit", "0"],
        "need --samples-per-unit >= 1, got 0",
        id="--samples-per-unit",
    ),
    pytest.param(
        ["simulate", "-n", "9", "-m", "1", "--trials", "0"], "need --trials >= 1, got 0", id="--trials"
    ),
]


@pytest.mark.parametrize("call, message", BELOW_THE_FLOOR)
def test_a_count_below_its_floor_is_refused_with_its_message(capsys, call, message):
    if isinstance(call, list):
        assert cli.main(call) == 2
        assert capsys.readouterr() == ("", f"mafia-odds: {message}\n")
    else:
        with pytest.raises(ValueError) as refusal:
            call()
        assert str(refusal.value) == message


# one check refuses the population first, then the turn outside 2t <= N - M
@pytest.mark.parametrize(
    "solve",
    [
        discrete_path,
        evolve_discrete,
        mean_discrete,
        lambda N, M, t: estimate_distribution(N, M, t, 10, 0, threads=1),
    ],
    ids=["discrete_path", "evolve_discrete", "mean_discrete", "estimate_distribution"],
)
@pytest.mark.parametrize(
    "state, message",
    [
        ((0, 0, 5), "need N >= 1, got N=0"),
        ((4, 5, 9), "need 0 <= m <= n, got n=4, m=5"),
        ((9, 2, 4), "need 0 <= 2t <= N - M, got N=9, M=2, t=4"),
    ],
    ids=["N", "M", "t"],
)
def test_a_state_is_refused_before_its_turn(solve, state, message):
    with pytest.raises(ValueError) as refusal:
        solve(*state)
    assert str(refusal.value) == message


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: GameState(9.0, 2), id="GameState"),
        pytest.param(lambda: GameState(9, 2.0), id="GameState-m"),
        pytest.param(lambda: GameState(9.0, -1), id="GameState-also-below"),
        pytest.param(lambda: next(discrete_path(9.0, 2, 2)), id="discrete_path"),
        pytest.param(lambda: evolve_discrete(9, 2, 1.0), id="evolve_discrete-t"),
        pytest.param(lambda: pm_continuous(9.0, 2, 1, 1.0), id="pm_continuous-N"),
        pytest.param(lambda: mean_continuous(9, 2.0, 1.0), id="mean_continuous-M"),
        pytest.param(
            lambda: estimate_win_chance(9, 2, STRICT, 1000, 0, threads=1.5), id="threads"
        ),
        pytest.param(lambda: log_double_factorial(7.5), id="log_double_factorial"),
        pytest.param(lambda: log_double_factorial(math.nan), id="log_double_factorial-nan"),
        pytest.param(lambda: peak_time(32, 4, 1.5), id="peak_time-m"),
        pytest.param(lambda: STRICT.first_win(9.5), id="first_win-strict"),
        pytest.param(lambda: BoundaryRule.TIES.first_win(9.5), id="first_win-ties"),
        # the cache is typed, so 4.0 meets the checks even once (4, 1, 1) is cached
        pytest.param(
            lambda: (falling_product(4, 1, 1), falling_product(4.0, 1, 1)), id="falling_product"
        ),
    ],
)
def test_a_non_integer_count_raises_type_error(call):
    with pytest.raises(TypeError):
        call()


HUGE = 10**20


# past sys.maxsize a product's range has no length and numpy indexes no row,
# so an undecided state at such an n is refused before either is built
@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: falling_product(HUGE, 10**19, 1),
            f"need t <= sys.maxsize, got N={HUGE}, t={10**19}",
            id="falling_product",
        ),
        pytest.param(
            lambda: win_chance_single(HUGE),
            f"need t <= sys.maxsize, got N={HUGE}, t={HUGE // 2}",
            id="win_chance_single",
        ),
        pytest.param(
            ["winchance", "-n", str(HUGE), "-m", "5", "--method", "closed"],
            f"need t <= sys.maxsize, got N={HUGE}, t={HUGE // 2}",
            id="winchance",
        ),
        pytest.param(
            lambda: estimate_win_chance(2 * sys.maxsize, 1, STRICT, 1, 0),
            f"need draws <= sys.maxsize, got n={2 * sys.maxsize}, draws={sys.maxsize + 1}",
            id="estimate_win_chance",
        ),
        pytest.param(
            ["simulate", "-n", str(HUGE), "-m", "1", "--trials", "1"],
            f"need draws <= sys.maxsize, got n={HUGE}, draws={HUGE // 2 + 1}",
            id="simulate",
        ),
    ],
)
def test_a_size_past_sys_maxsize_is_refused_with_its_message(capsys, call, message):
    if isinstance(call, list):
        assert cli.main(call) == 1
        assert capsys.readouterr() == ("", f"mafia-odds: {message}\n")
    else:
        with pytest.raises(ValueError) as refusal:
            call()
        assert str(refusal.value) == message


def test_a_decided_state_past_sys_maxsize_still_draws_nothing():
    assert estimate_win_chance(HUGE, 0, STRICT, 10, 0).mafia_wins == 0
    assert estimate_win_chance(HUGE, HUGE // 2 + 1, STRICT, 10, 0).mafia_wins == 10


BIG = 10**30
# an undecided state this large is refused before a product or a row is built;
# one between 10**4 and 2 sys.maxsize would allocate a row as wide as n / 2
PAST_MAXSIZE = st.integers(4 * sys.maxsize, BIG)


@st.composite
def _command_lines(draw):
    """A command line of any of the six subcommands whose answer or refusal is O(1) work."""
    command = draw(
        st.sampled_from(["winchance", "table", "single-mafia", "evolve", "optimal", "simulate"])
    )
    argv = [command, f"--format={draw(st.sampled_from(['csv', 'json']))}"]
    boundary = f"--boundary={draw(st.sampled_from(['strict', 'ties']))}"
    if command in ("table", "single-mafia", "optimal"):
        argv.append(f"--max-n={draw(st.integers(-3, 60))}")
        return argv + [boundary] if command == "table" else argv
    if command == "evolve":
        # at most 25 turns or 97 samples, or a refusal before the first
        N = draw(st.integers(-1, 48) | st.integers(49, BIG))
        t_max = draw(st.floats(-3, 24))
        if N <= 48 and draw(st.booleans()):
            t_max = draw(st.none() | st.floats(-3, 1e300) | st.sampled_from([math.nan, math.inf]))
        argv += [
            f"--players={N}",
            f"--mafia={draw(st.integers(-1, min(max(N, 0), 30) + 1))}",
            f"--mode={draw(st.sampled_from(['discrete', 'continuous', 'both']))}",
            f"--samples-per-unit={draw(st.sampled_from([1, 2, 3, 4, 0]))}",
        ]
        return argv if t_max is None else argv + [f"--t-max={t_max}"]
    # a decided state at any n, an undecided one at n <= 200 or past sys.maxsize
    size = draw(st.sampled_from(["decided", "small", "huge"]))
    if size == "decided":
        n = draw(st.integers(1, BIG))
        m = draw(st.just(0) | st.integers(n // 2 + 1, n))
    elif size == "small":
        n = draw(st.integers(-1, 200))
        m = draw(st.integers(-1, max(n, 0) + 1))
    else:
        n = draw(PAST_MAXSIZE)
        m = draw(st.integers(-1, n))
    argv += [f"--players={n}", f"--mafia={m}", boundary]
    if command == "winchance":
        # the recurrence walks an undecided state past sys.maxsize for O(n m) cells
        methods = ["closed", "asymptotic", "continuous"] + ["recurrence"] * (size != "huge")
        return argv + [f"--method={draw(st.sampled_from(methods))}"]
    trials, seed = draw(st.integers(0, 1000)), draw(st.integers(-1, 2**64))
    return argv + [f"--trials={trials}", f"--seed={seed}"]


@settings(max_examples=300)
@given(_command_lines())
def test_every_command_answers_or_refuses_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a malformed flag
            code = exc.code
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        text = out.getvalue()
        if "--format=json" in argv:
            json.loads(text)
        else:
            rows = list(csv.reader(io.StringIO(text)))
            assert rows and all(len(row) == len(rows[0]) for row in rows)
    elif code == 1:  # one line, from a check that names what it refuses
        assert err.getvalue().startswith("mafia-odds: ")
        assert err.getvalue().count("\n") == 1
        assert not any(text in err.getvalue() for text in ("ssize_t", "index-sized", "dimension"))
