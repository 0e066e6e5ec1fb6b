"""Win chances and population dynamics of the Mafia party game.

The model: an informed minority of m mafia among n players, one uniformly
random lynch per day, one mafia kill per night.  The package computes the
mafia's winning chance exactly (integer recurrence and closed form) and
asymptotically, evolves the mafia-count distribution in discrete and
continuous time, and cross-checks everything with a seeded Monte Carlo
simulator.  The ``mafia-odds`` CLI exposes all of it as CSV/JSON tables.
"""

from . import core, evolution, montecarlo, winchance
from .core import *
from .evolution import *
from .montecarlo import *
from .winchance import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += core.__all__
__all__ += evolution.__all__
__all__ += montecarlo.__all__
__all__ += winchance.__all__
