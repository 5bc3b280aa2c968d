"""Boundary laws of the two-state hard-core model on Cayley trees.

The package solves the boundary-law recursion for the invariant and
alternating (two-periodic) Gibbs measures, the four-component weak-periodic
systems on their invariant planes, computes critical activities and
extremality verdicts, and cross-checks everything against exact finite-ball
enumeration.
"""

import importlib

from . import core, extremality, solvers
from .core import *
from .extremality import *
from .solvers import *

__version__ = "0.1.0"

# oracle imports numpy, and weakperiodic does where its I3/I4 scan runs; their
# public names are served on first use (PEP 562), so `import hctree` loads neither
_LAZY = {
    "oracle": ("ENUMERATION_VERTEX_CAP", "FiniteBall", "RootDegree", "SampleResult",
               "conditional_child_distribution", "consistency_check", "count_admissible",
               "enumerate_admissible", "hard_core_violations", "partition_function",
               "root_marginal", "sample_tree_chain"),
    "weakperiodic": ("WeakPeriodicParams", "WeakSolveReport", "solve_weak_periodic",
                     "weak_system_map"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([
    *core.__all__,
    *extremality.__all__,
    *solvers.__all__,
    *_LAZY_HOME,
    "__version__",
])


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_HOME:
        return getattr(importlib.import_module(f".{_LAZY_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
