"""Exact arithmetic for simultaneous congruences over residue-class collections.

The package solves systems of congruences, counts the common solutions of two
residue-class collections exactly, proves size-only lower bounds on that
count (including the one-third density guarantee and its tight examples), and
produces exact rational witness times keeping two runners on the unit circle
far from a stationary observer. The API joins the four modules' __all__ lists.

Only the runner witness needs rationals, so `runner` (and with it `fractions`)
loads on first use: asking the package for `runner`, for one of its names or
for `__all__` imports it.
"""

from . import bounds, congruence, residues
from .bounds import *
from .congruence import *
from .residues import *

__version__ = "0.1.0"


def __getattr__(name: str):
    # The import statement binds crtcount.runner before it reads the attribute back;
    # `from . import runner` would look the name up here first and recurse.
    import crtcount.runner as runner
    if name == "runner":
        return runner
    if name == "__all__":
        return bounds.__all__ + congruence.__all__ + residues.__all__ + runner.__all__
    if name in runner.__all__:
        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*__getattr__("__all__"), *globals()})
