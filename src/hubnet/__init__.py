"""Solver workbench for capacitated single-allocation hub location with
fuzzy demand and three objectives: cost, emissions, delivery-window
penalty.

Names are imported from their submodules, e.g.
``from hubnet.exact import epsilon_constraint_front``.  Importing the
package loads every submodule except ``cli``, which ``python -m hubnet.cli``
must be the first to import.
"""

from . import (analysis, archive, encoding, evaluation, exact, fileio, fronts, fuzzy, generator,
               metaheuristics, model, workbench)

__version__ = "0.1.0"
