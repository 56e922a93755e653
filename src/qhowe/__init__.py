"""Exact verification of the quantum Clifford action on braided exterior
algebras, the commuting row/column quantum-group embeddings, and the
multiplicity-free decomposition of the grid module at desk scale.

Everything runs over the ring of Laurent polynomials in q with exact
rational coefficients; every check is an exact identity, never a numerical
approximation.
"""

from .qscalar import NonExactDivision, QLaurent, exact_div, q_binomial, q_factorial, q_int
from .fockspace import GridShape, grid_to_linear, prefix_parity, row_col_weights
from .qclifford import CliffordGen, OperatorExpr, q_commutator
from .duality import Partition, SpecializationAnomaly

__version__ = "0.1.0"

__all__ = [
    "NonExactDivision",
    "QLaurent",
    "exact_div",
    "q_binomial",
    "q_factorial",
    "q_int",
    "GridShape",
    "grid_to_linear",
    "prefix_parity",
    "row_col_weights",
    "CliffordGen",
    "OperatorExpr",
    "q_commutator",
    "Partition",
    "SpecializationAnomaly",
    "__version__",
]
