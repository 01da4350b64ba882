"""Exact arithmetic for simultaneous congruences over residue-class collections.

The package solves systems of congruences, counts the common solutions of two
residue-class collections exactly, and proves size-only lower bounds on that
count (including the one-third density guarantee and its tight examples). Its
API joins the __all__ lists of `bounds`, `congruence` and `residues`.

The submodule `crtcount.runner`, the only one that needs `fractions`, finds
exact rational times keeping two runners on the unit circle far from a
stationary observer; it is imported on its own, like any submodule.
"""

from . import bounds, congruence, residues
from .bounds import *
from .congruence import *
from .residues import *

__version__ = "0.1.0"

__all__ = bounds.__all__ + congruence.__all__ + residues.__all__
