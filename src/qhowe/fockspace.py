"""Occupancy bitstrings and column-major grid indexing.

Basis states of the N-position exterior module are occupancy words
``l in {0,1}^N``.  Internally a state is a single machine word: bit ``k-1``
of the int holds position ``k`` (one-based positions throughout the API).
Rendered strings put position 1 on the left.  A vector of the module is a
plain dict ``{state: QLaurent}`` without zero entries, the form of a
``SparseMatrix`` column; ``OperatorExpr.apply`` and ``SparseMatrix.apply``
take and return it.

An n-by-m grid is laid out column-major: cell ``(i, j)`` sits at linear
position ``i + (j-1)n``.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "MAX_POSITIONS",
    "MAX_ENUMERATED_POSITIONS",
    "GridShape",
    "check_enumerable",
    "grid_to_linear",
    "prefix_parity",
    "row_col_weights",
    "state_to_string",
]

MAX_POSITIONS = 64

# check_enumerable refuses to list the 2^N basis states past this many
# positions: 2^16 columns of exact arithmetic is the desk-scale ceiling.
MAX_ENUMERATED_POSITIONS = 16


def check_enumerable(positions):
    """The one wall: raise ValueError when the 2^positions basis states are
    too many to list.  Every function that lists them calls it first, and
    the CLI calls it before any section starts."""
    if positions > MAX_ENUMERATED_POSITIONS:
        raise ValueError(f"{positions} positions need 2^{positions} = {1 << positions} "
                         f"columns; qhowe refuses more than 2^{MAX_ENUMERATED_POSITIONS}")


class GridShape(NamedTuple):
    """An n-row by m-column grid with N = n*m linear positions."""

    n: int
    m: int

    @property
    def positions(self):
        return self.n * self.m

    def check(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"grid shape must be positive, got {self.n}x{self.m}")
        if self.positions > MAX_POSITIONS:
            raise ValueError(
                f"grid {self.n}x{self.m} needs {self.positions} positions; cap is {MAX_POSITIONS}"
            )
        return self


def grid_to_linear(shape, i, j):
    """Linear position of grid cell (i, j): i + (j-1)n, one-based."""
    n, m = shape
    if not (1 <= i <= n and 1 <= j <= m):
        raise ValueError(f"cell ({i}, {j}) outside {n}x{m} grid")
    return i + (j - 1) * n


def prefix_parity(bits, k):
    """Occupied count strictly before position k: l_1 + ... + l_{k-1}."""
    if k < 1:
        raise ValueError(f"position {k} out of range")
    return (bits & ((1 << (k - 1)) - 1)).bit_count()


def row_col_weights(shape, bits):
    """Per-row and per-column occupancy counts of a grid state."""
    n, m = shape
    rows = [0] * n
    cols = [0] * m
    word = bits
    k = 0
    while word:
        if word & 1:
            rows[k % n] += 1
            cols[k // n] += 1
        word >>= 1
        k += 1
    return tuple(rows), tuple(cols)


def state_to_string(bits, length):
    """Render as "l_1 l_2 ... l_N" with position 1 leftmost."""
    return "".join("1" if (bits >> k) & 1 else "0" for k in range(length))
