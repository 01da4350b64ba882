"""Exact arithmetic for simultaneous congruences over residue-class collections.

The package solves systems of congruences, counts the common solutions of two
residue-class collections exactly, proves size-only lower bounds on that
count (including the one-third density guarantee and its tight examples), and
produces exact rational witness times keeping two runners on the unit circle
far from a stationary observer. The API joins the four modules' __all__ lists.
"""

from . import bounds, congruence, residues, runner
from .bounds import *
from .congruence import *
from .residues import *
from .runner import *

__version__ = "0.1.0"

__all__ = bounds.__all__ + congruence.__all__ + residues.__all__ + runner.__all__
