"""Win chances and population dynamics of the Mafia party game.

The model: an informed minority of m mafia among n players, one uniformly
random lynch per day, one mafia kill per night.  The package computes the
mafia's winning chance exactly (integer recurrence and closed form) and
asymptotically, evolves the mafia-count distribution in discrete and
continuous time, and cross-checks everything with a seeded Monte Carlo
simulator.  The ``mafia-odds`` CLI exposes all of it as CSV/JSON tables.
"""

from .core import (
    BoundaryRule,
    GameState,
    double_factorial,
    falling_product,
    log_double_factorial,
)
from .evolution import (
    ContinuousDistribution,
    Distribution,
    discrete_path,
    evolve_discrete,
    integrate_continuous,
    mean_continuous,
    mean_discrete,
    peak_time,
    pm_closed,
    pm_continuous,
    win_chance_continuous,
    win_chance_continuous_linearized,
)
from .montecarlo import (
    EmpiricalDistribution,
    SimulationReport,
    Trajectory,
    Winner,
    estimate_distribution,
    estimate_win_chance,
    simulate_game,
)
from .winchance import (
    MonotonicityReport,
    optimal_mafia_approx,
    optimal_mafia_asymptotic,
    optimal_mafia_from_row,
    optimal_mafia_numeric,
    parity_ratio,
    verify_monotonicity,
    win_chance_asymptotic,
    win_chance_closed,
    win_chance_leading_term,
    win_chance_limit,
    win_chance_recurrence,
    win_chance_rows,
    win_chance_single,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryRule",
    "ContinuousDistribution",
    "Distribution",
    "EmpiricalDistribution",
    "GameState",
    "MonotonicityReport",
    "SimulationReport",
    "Trajectory",
    "Winner",
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
    "optimal_mafia_from_row",
    "optimal_mafia_numeric",
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
    "__version__",
]
