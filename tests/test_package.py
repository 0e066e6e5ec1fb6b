import mafia_odds
from mafia_odds import core, evolution, montecarlo, winchance

MODULES = (core, evolution, montecarlo, winchance)

PUBLIC_NAMES = [
    "BoundaryRule",
    "ContinuousDistribution",
    "Distribution",
    "EmpiricalDistribution",
    "GameState",
    "MonotonicityReport",
    "SimulationReport",
    "Trajectory",
    "Winner",
    "__version__",
    "discrete_path",
    "double_factorial",
    "estimate_distribution",
    "estimate_win_chance",
    "evolve_discrete",
    "falling_product",
    "integrate_continuous",
    "log_double_factorial",
    "mean_continuous",
    "mean_discrete",
    "optimal_mafia_approx",
    "optimal_mafia_asymptotic",
    "optimal_mafia_numeric",
    "optimal_mafia_rows",
    "parity_ratio",
    "peak_time",
    "pm_closed",
    "pm_continuous",
    "simulate_game",
    "verify_monotonicity",
    "win_chance_asymptotic",
    "win_chance_closed",
    "win_chance_continuous",
    "win_chance_continuous_linearized",
    "win_chance_leading_term",
    "win_chance_limit",
    "win_chance_recurrence",
    "win_chance_rows",
    "win_chance_single",
]


def test_the_package_exports_the_union_of_its_modules():
    assert sorted(mafia_odds.__all__) == PUBLIC_NAMES
    assert len(set(mafia_odds.__all__)) == len(mafia_odds.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mafia_odds, name) is getattr(module, name)
    # helpers outside the surface stay importable from their module
    assert callable(mafia_odds.core.check_state)
    assert mafia_odds.montecarlo.CHUNK_TRIALS == 1 << 16
