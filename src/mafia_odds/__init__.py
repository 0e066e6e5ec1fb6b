"""Win chances and population dynamics of the Mafia party game.

The model: an informed minority of m mafia among n players, one uniformly
random lynch per day, one mafia kill per night.  The package computes the
mafia's winning chance exactly (integer recurrence and closed form) and
asymptotically, evolves the mafia-count distribution in discrete and
continuous time, and cross-checks everything with a seeded Monte Carlo
simulator.  The ``mafia-odds`` CLI exposes all of it as CSV/JSON tables.

The namespace is ``__version__`` plus the ``__all__`` lists of ``core``,
``evolution``, ``montecarlo`` and ``winchance``.  Nothing is imported up
front: a submodule, as ``mafia_odds.core`` or ``from mafia_odds import cli``,
loads that module alone, and the first public name, ``__all__`` or
``dir()`` loads all four and binds every name once.
"""

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .core import *
    from .evolution import *
    from .montecarlo import *
    from .winchance import *

__version__ = "0.1.0"

_MODULES = ("core", "evolution", "montecarlo", "winchance")


def __getattr__(name: str):
    # ``from mafia_odds import cli`` asks for the attribute before it imports the submodule
    if name in _MODULES or name == "cli":
        return importlib.import_module(f".{name}", __name__)
    # a probe such as __wrapped__ names no public function, so it loads nothing
    if name != "__all__" and name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    if "__all__" not in namespace:
        public = ["__version__"]
        for module in map(__getattr__, _MODULES):
            public += module.__all__
            namespace.update((key, getattr(module, key)) for key in module.__all__)
        namespace["__all__"] = public
    if name not in namespace:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return namespace[name]


def __dir__():
    __getattr__("__all__")
    return list(globals())
