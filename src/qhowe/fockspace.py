"""Occupancy bitstrings, sparse vectors, and column-major grid indexing.

Basis states of the N-position exterior module are occupancy words
``l in {0,1}^N``.  Internally a state is a single machine word: bit ``k-1``
of the int holds position ``k`` (one-based positions throughout the API).
Rendered strings put position 1 on the left.

An n-by-m grid is laid out column-major: cell ``(i, j)`` sits at linear
position ``i + (j-1)n``.
"""

from __future__ import annotations

from typing import NamedTuple

from .qscalar import QLaurent

__all__ = [
    "MAX_POSITIONS",
    "MAX_ENUMERATED_POSITIONS",
    "GridShape",
    "QVector",
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


class QVector:
    """A sparse vector over QLaurent, keyed by occupancy words.

    ``entries`` maps int states to nonzero coefficients; all states share the
    vector's length.  Treated as immutable.
    """

    __slots__ = ("length", "entries")

    def __init__(self, length, entries=None):
        if not 0 <= length <= MAX_POSITIONS:
            raise ValueError(f"vector length {length} out of range")
        self.length = length
        cleaned = {}
        if entries:
            limit = 1 << length
            for state, coeff in entries.items():
                if not 0 <= state < limit:
                    raise ValueError(f"state {state} does not fit in {length} positions")
                if not isinstance(coeff, QLaurent):
                    coeff = QLaurent.from_rational(coeff)
                if coeff:
                    cleaned[state] = coeff
        self.entries = cleaned

    @classmethod
    def _raw(cls, length, entries):
        obj = cls.__new__(cls)
        obj.length = length
        obj.entries = entries
        return obj

    @classmethod
    def basis(cls, state, length):
        return cls._raw(length, {state: QLaurent.one()})

    @classmethod
    def zero(cls, length):
        return cls._raw(length, {})

    def _check_length(self, other):
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} vs {other.length}")

    def __add__(self, other):
        if not isinstance(other, QVector):
            return NotImplemented
        self._check_length(other)
        out = dict(self.entries)
        for state, coeff in other.entries.items():
            s = out.get(state)
            s = coeff if s is None else s + coeff
            if s:
                out[state] = s
            else:
                out.pop(state, None)
        return QVector._raw(self.length, out)

    def __neg__(self):
        return QVector._raw(self.length, {s: -c for s, c in self.entries.items()})

    def __sub__(self, other):
        if not isinstance(other, QVector):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff):
        if not isinstance(coeff, QLaurent):
            coeff = QLaurent.from_rational(coeff)
        if not coeff:
            return QVector.zero(self.length)
        return QVector._raw(self.length, {s: c * coeff for s, c in self.entries.items()})

    def __eq__(self, other):
        if not isinstance(other, QVector):
            return NotImplemented
        return self.length == other.length and self.entries == other.entries

    def __bool__(self):
        return bool(self.entries)

    def __str__(self):
        if not self.entries:
            return "0"
        parts = []
        for s in sorted(self.entries, key=lambda s: state_to_string(s, self.length)):
            coeff = self.entries[s]
            text = str(coeff)
            if text == "1":
                parts.append(f"v({state_to_string(s, self.length)})")
            else:
                if "+" in text or "- " in text:
                    text = f"({text})"
                parts.append(f"{text} v({state_to_string(s, self.length)})")
        return " + ".join(parts)

    def __repr__(self):
        return f"QVector({self})"
