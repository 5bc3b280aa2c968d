"""Boundary laws of the two-state hard-core model on Cayley trees.

The package solves the boundary-law recursion for the invariant and
alternating (two-periodic) Gibbs measures, the four-component weak-periodic
systems on their invariant planes, computes critical activities and
extremality verdicts, and cross-checks everything against exact finite-ball
enumeration.
"""

from . import core, extremality, oracle, solvers, weakperiodic
from .core import *
from .extremality import *
from .oracle import *
from .solvers import *
from .weakperiodic import *

__version__ = "0.1.0"

__all__ = sorted([
    *core.__all__,
    *extremality.__all__,
    *oracle.__all__,
    *solvers.__all__,
    *weakperiodic.__all__,
    "__version__",
])
