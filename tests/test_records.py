"""The result records are immutable named tuples with a fixed field order."""

import json
import random

import pytest

from mafia_odds import cli
from mafia_odds.core import BoundaryRule, GameState
from mafia_odds.evolution import evolve_discrete, integrate_continuous
from mafia_odds.montecarlo import (
    SimulationReport,
    estimate_distribution,
    estimate_win_chance,
    simulate_game,
)
from mafia_odds.winchance import verify_monotonicity

STRICT = BoundaryRule.STRICT_MAJORITY

RECORDS = {
    "GameState": lambda: GameState(9, 3),
    "Distribution": lambda: evolve_discrete(9, 3, 2),
    "ContinuousDistribution": lambda: integrate_continuous(9, 3, 1.5, 0.25),
    "Trajectory": lambda: simulate_game(9, 3, STRICT, random.Random(4)),
    "SimulationReport": lambda: estimate_win_chance(9, 3, STRICT, 1000, 5),
    "EmpiricalDistribution": lambda: estimate_distribution(9, 3, 2, 1000, 5),
    "MonotonicityReport": lambda: verify_monotonicity(6),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert record._fields
    for field in record._fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_simulation_report_fields_are_the_json_keys(capsys):
    argv = ["simulate", "-n", "9", "-m", "3", "--trials", "1000", "--seed", "5"]
    assert cli.main([*argv, "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)
    report = estimate_win_chance(9, 3, STRICT, 1000, 5)
    assert list(row) == list(SimulationReport._fields)
    assert list(row.values()) == list(report)


def test_monotonicity_reports_never_share_a_violation_list():
    first, second = verify_monotonicity(3), verify_monotonicity(3)
    assert first.violations is not second.violations
    first.violations.append(("planted", GameState(3, 1)))
    assert not first.ok
    assert second.ok and verify_monotonicity(3).ok
