"""Refusals of an out-of-range or non-integer count, in the library and on the command line."""

import pytest

from mafia_odds import cli
from mafia_odds.core import BoundaryRule, GameState
from mafia_odds.evolution import (
    discrete_path,
    evolve_discrete,
    mean_continuous,
    pm_closed,
    pm_continuous,
)
from mafia_odds.montecarlo import estimate_win_chance
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
    ],
)
def test_a_non_integer_count_raises_type_error(call):
    with pytest.raises(TypeError):
        call()
