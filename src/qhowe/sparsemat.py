"""Sparse matrices over the Laurent ring and exact rational elimination.

Every entry is one Python int: its Laurent polynomial evaluated at
``q = 2^B`` (Kronecker substitution).  Each matrix carries

* a digit width ``B``;
* an exponent offset ``lo`` (no entry has a term below ``q^lo``), so an entry
  ``sum_e c_e q^e`` is stored as ``sum_e c_e 2^(B (e - lo))``;
* an exponent ceiling ``hi``, so that products refuse exponents beyond
  ``MAX_EXPONENT`` with the same ``OverflowError`` as ``QLaurent``, and any
  operation refuses a range ``hi - lo`` beyond ``MAX_SPAN`` before it packs;
* a positive integer denominator that every entry is divided by, 1 unless
  ``Fraction`` coefficients occur, so that the stored digits are integers;
* an upper bound on the l1 norm (sum of absolute digits) of every entry.

A matrix is stored in one of two forms under that encoding:

* the column form, ``{col: {row: int}}`` with no zeros retained;
* the XOR (list) form: one list of ``dim`` packed ints, 0 for a missing
  entry and equal entries one shared int, plus one int mask ``flip``.  The
  entry of column ``c`` sits at row ``c ^ flip``, a signed permutation with
  holes, and ``c ^ flip < dim`` for every column.  The diagonal form is the
  mask 0.  Every Clifford word is such a matrix: ``psi_k`` and ``psid_k``
  move a state ``s`` to ``s ^ bit_k``, and the torus generators (L, K, w
  and their inverses, the classical degree operators) are diagonal.

Only constructors that see every entry choose the list form: ``identity``,
``diagonal``, ``__init__`` when there is an entry and every entry's row XOR
column is one mask, and ``from_word_columns`` when every term it sums has
one mask.  Products (``flip = fA ^ fB``), negation and ``scale`` keep it when
every operand has it; sums and differences when the masks are equal; and
``kron`` when both masks are 0 or the second dimension is a power of two.  A
zero result takes the empty column form.  Any other operation expands a
list-form operand to columns for that call only, so both forms have the same
values, and ``cols`` reads the same for both.

Digits are balanced (signed), and the packing is an exact injection while
every digit satisfies ``|c| < 2^(B-1)``.  The l1 bound guarantees that: it is
the generator's coefficient sum for a word matrix, ``bA * bB * (max nnz in a
column of B)`` for ``A * B``, ``bA + bB`` for a sum and ``bA * bB`` for a
Kronecker product.  Before an operation whose result bound could reach
``2^(B-1)``, the operands are re-encoded with a wider digit.  Width and
offset follow from the data alone.  Products, sums, Kronecker products,
equality and specialization are integer operations; ``cols`` decodes to
``{col: {row: QLaurent}}`` on demand and is meant for reporting, witnesses
and tests, not for hot paths.

Operator equality on matrices is equality of these packed entries (the
operator suites of the grid representations decide theirs on Clifford words
instead, see ``wordzero``), and ``first_noncommuting`` decides a
commutation, or a shifted one X Y = q^s Y X, from the list without a
product when either factor has the diagonal form.

The module also hosts ``RationalEchelon``, the incremental row reduction
behind every span dimension and rank at specialized q, and behind the span
sweep that ``wordzero`` runs over Clifford words.  Its pivots are
primitive integer vectors keyed by their largest key, and one integer-only
reducer serves ``insert`` (any exact vector, made a primitive integer vector
first), ``insert_ints`` (a vector that already is one) and ``close``, which
closes a span under the integer operators ``specialize_ints`` returns: it
applies every operator to every new pivot and reduces each image as it
arises, round by round, until a round adds no pivot or a round cap is
passed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
import operator

from .qscalar import MAX_EXPONENT, QLaurent, _is_rational

__all__ = ["SparseMatrix", "RationalEchelon", "primitive_int_vector"]


def _width_for(bound):
    """The digit width, 16 * 2^k bits, that holds every digit of an l1 norm
    up to bound: the smallest with bound < 2^(width - 1)."""
    width = 16
    while bound >> (width - 1):
        width <<= 1
    return width


# The widest exponent range hi - lo a packed entry may span.  Real spans stay
# below 100; the limit keeps one entry under 2^12 digits (8 KiB at the
# narrowest width), where an unchecked span up to 2 * MAX_EXPONENT would ask
# for gigabytes.
MAX_SPAN = 1 << 12


def _check_range(lo, hi):
    """Refuse an exponent range before anything is packed over it."""
    for e in (lo, hi):
        if abs(e) > MAX_EXPONENT:
            raise OverflowError(f"q-exponent {e} out of range")
    if hi - lo > MAX_SPAN:
        raise OverflowError(f"q-exponent span {hi - lo} exceeds {MAX_SPAN}")


def _digits(v, width, lo=0):
    """The nonzero balanced digits of a nonzero packed int as {lo + index:
    digit}, from the lowest index up."""
    half = 1 << (width - 1)
    # the lowest set bit lies in the lowest nonzero digit
    index = ((v & -v).bit_length() - 1) // width
    v >>= index * width
    if -half <= v < half:  # a monomial
        return {lo + index: v}
    out = {}
    mask = (1 << width) - 1
    while v:
        skip = ((v & -v).bit_length() - 1) // width
        v >>= skip * width
        index += skip
        d = v & mask
        if d >= half:
            d -= mask + 1
        out[lo + index] = d
        v = (v - d) >> width
        index += 1
    return out


def _integer_terms(term_dicts):
    """QLaurent term dicts over one cleared denominator: (int term dicts, den)."""
    den = lcm(*{x.denominator for t in term_dicts for x in t.values()})
    return [{e: (x * den).numerator for e, x in t.items()} for t in term_dicts], den


def _pack(terms, lo, width):
    return sum(c << (width * (e - lo)) for e, c in terms.items())


def _encode(values):
    """Nonzero QLaurent values packed under one encoding: (packed ints,
    width, lo, hi, den, bound)."""
    terms, den = _integer_terms([v.terms for v in values])
    lo = min((min(t) for t in terms), default=0)
    hi = max((max(t) for t in terms), default=0)
    _check_range(lo, hi)
    bound = max((sum(map(abs, t.values())) for t in terms), default=0)
    width = _width_for(bound)
    return [_pack(t, lo, width) for t in terms], width, lo, hi, den, bound


def _shared(values, lo, hi, bound):
    """values, packed with offset lo, ceiling hi and l1 bound bound, as a
    list in which equal ints are one object: a packed list holds few
    distinct entries.  With hi == lo every entry is c q^lo, packed as the
    int c with |c| <= bound, and CPython keeps one object per int in -5..256
    already; so with bound <= 5 (the +-1 entries of Clifford words) the list
    is kept as it is."""
    if hi == lo and bound <= 5:
        return list(values)
    share = {}
    return [share.setdefault(v, v) for v in values]


def _mapped(diag, f):
    """f applied once to each distinct nonzero entry of a packed diagonal;
    0 stays 0."""
    image = {v: f(v) for v in set(diag) if v}
    image[0] = 0
    return list(map(image.__getitem__, diag))


def _xor_permuted(values, flip):
    """[values[c ^ flip] for c in range(len(values))], one set bit of flip
    at a time: bit b swaps the halves of every block of 2b entries, by block
    slices or by stride-2b slices, whichever takes fewer (len(values) is a
    multiple of 2b)."""
    n = len(values)
    bit = 1
    while flip:
        if flip & bit:
            flip ^= bit
            step = 2 * bit
            out = values[:]
            if bit <= n // step:
                for j in range(bit):
                    out[j::step] = values[j + bit::step]
                    out[j + bit::step] = values[j::step]
            else:
                for j in range(0, n, step):
                    out[j:j + bit] = values[j + bit:j + step]
                    out[j + bit:j + step] = values[j:j + bit]
            values = out
        bit <<= 1
    return values


class SparseMatrix:
    """A dim x dim sparse matrix with Laurent-polynomial entries, packed
    into ints in the column or the XOR form (see the module docstring).
    Instances are immutable; column dicts and packed lists may be shared
    between matrices.  ``_diag`` is the packed list of the XOR form and
    ``_flip`` its mask."""

    __slots__ = ("dim", "_cols", "_diag", "_flip", "_width", "_lo", "_hi", "_den", "_bound")

    def __init__(self, dim, cols=None):
        """cols maps column -> {row: QLaurent}; zero entries are dropped.
        With an entry and one mask row ^ col for every entry (one that keeps
        every column's row inside dim), the XOR form is kept."""
        keys = []
        values = []
        for c, col in (cols or {}).items():
            for r, v in col.items():
                if v:
                    keys.append((c, r))
                    values.append(v)
        packed, width, lo, hi, den, bound = _encode(values)
        flips = {c ^ r for c, r in keys}
        flip = flips.pop() if len(flips) == 1 else dim  # dim: no one mask
        if flip < dim & -dim:
            data = [0] * dim
            for (c, _), v in zip(keys, packed):
                data[c] = v
            data = _shared(data, lo, hi, bound)
        else:
            data = {}
            for (c, r), v in zip(keys, packed):
                data.setdefault(c, {})[r] = v
        self._set(dim, data, width, lo, hi, den, bound, flip)

    def _set(self, dim, data, width, lo, hi, den, bound, flip=0):
        """data is {col: {row: int}} for the column form or a list of dim
        ints for the XOR form with mask flip; all-zero data is the zero
        matrix in the empty column form."""
        self.dim = dim
        if not isinstance(data, list):
            self._cols, self._diag, self._flip = data, None, 0
        elif any(data):
            self._cols, self._diag, self._flip = None, data, flip
        else:
            self._cols, self._diag, self._flip = {}, None, 0
        self._width = width
        self._lo = lo
        self._hi = hi
        self._den = den
        self._bound = bound

    @classmethod
    def _make(cls, dim, data, width, lo, hi, den, bound, flip=0):
        obj = cls.__new__(cls)
        obj._set(dim, data, width, lo, hi, den, bound, flip)
        return obj

    @classmethod
    def identity(cls, dim):
        return cls._make(dim, [1] * dim, _width_for(1), 0, 0, 1, 1)

    @classmethod
    def diagonal(cls, entries):
        """Diagonal matrix from a list of QLaurent entries; each distinct
        entry is packed once."""
        distinct = list({v for v in entries if v})
        packed, width, lo, hi, den, bound = _encode(distinct)
        image = dict(zip(distinct, packed))
        diag = [image[v] if v else 0 for v in entries]
        return cls._make(len(entries), diag, width, lo, hi, den, bound)

    @classmethod
    def from_word_columns(cls, dim, terms):
        """The sum, over terms (coeff, flip, emin, emax, states, keys), of the
        matrices with entry coeff * (-1)^(key & 1) * q^(emin + (key >> 1)) at
        row state ^ flip of column state, for each state and key of the equal
        length lists states and keys; emin + (key >> 1) <= emax.  A term lists
        each state at most once, every state and row below dim.

        Each term's entries are read from a table of its 2 (emax - emin + 1)
        packed monomials, one C-level ``map`` over keys.  When every term has
        one mask flip that keeps every column inside dim, the matrix takes the
        XOR form with it (0: the diagonal form); otherwise the column form,
        columns in ascending order."""
        coeffs, den = _integer_terms([coeff.terms for coeff, *_ in terms])
        terms = [(c, *rest) for c, (_, *rest) in zip(coeffs, terms)]
        lo = min((min(c) + emin for c, _, emin, _, _, _ in terms), default=0)
        hi = max((max(c) + emax for c, _, _, emax, _, _ in terms), default=0)
        _check_range(lo, hi)
        bound = sum(sum(map(abs, c.values())) for c in coeffs)
        width = _width_for(bound)
        built = []
        for c, flip, emin, emax, states, keys in terms:
            cp = _pack(c, min(c), width)
            base = min(c) + emin - lo
            table = [(-cp if k & 1 else cp) << (width * (base + (k >> 1)))
                     for k in range(2 * (emax - emin + 1))]
            built.append((flip, states, list(map(table.__getitem__, keys))))
        flips = {flip for flip, _, _ in built}
        flip = flips.pop() if len(flips) == 1 else dim  # dim: no one mask
        if flip < dim & -dim:
            (_, states, values), *rest = built
            diag = [0] * dim
            for s, v in zip(states, values):
                diag[s] = v
            for _, states, values in rest:
                for s, v in zip(states, values):
                    diag[s] += v
            if rest:
                diag = _shared(diag, lo, hi, bound)
            return cls._make(dim, diag, width, lo, hi, den, bound, flip)
        cols = {}
        for flip, states, values in built:
            for col, v in zip(states, values):
                row = col ^ flip
                dst = cols.get(col)
                if dst is None:
                    cols[col] = {row: v}
                    continue
                s = dst.get(row, 0) + v
                if s:
                    dst[row] = s
                else:
                    del dst[row]
        if len(built) > 1:
            # one column order for every matrix built here: ascending
            cols = {c: cols[c] for c in sorted(cols) if cols[c]}
        return cls._make(dim, cols, width, lo, hi, den, bound)

    # -- encodings -----------------------------------------------------------

    def _decode(self, v):
        terms = _digits(v, self._width, self._lo)
        if self._den == 1:
            return QLaurent._raw(terms)
        return QLaurent({e: Fraction(d, self._den) for e, d in terms.items()})

    def _as(self, width, lo, den):
        """The packed entries re-encoded for digit width, offset lo <= self's
        and denominator den (a multiple of self's), in self's form: the
        packed list (its mask is self's) or the column dict.  Each distinct
        entry is re-encoded once."""
        diag, cols = self._diag, self._cols
        if width == self._width and lo == self._lo and den == self._den:
            return cols if diag is None else diag
        factor = den // self._den
        pad = self._lo - lo
        if width == self._width:
            shift = width * pad

            def recode(v):
                return (v * factor) << shift
        else:
            old = self._width

            def recode(v):
                return sum((d * factor) << (width * i) for i, d in _digits(v, old, pad).items())
        if diag is not None:
            return _mapped(diag, recode)
        image = {v: recode(v) for v in {v for col in cols.values() for v in col.values()}}
        return {c: {r: image[v] for r, v in col.items()} for c, col in cols.items()}

    def _cols_as(self, width, lo, den):
        """The packed entries as {col: {row: int}} in that encoding; the
        XOR form is expanded for the caller only."""
        data = self._as(width, lo, den)
        if self._diag is None:
            return data
        flip = self._flip
        return {c: {c ^ flip: v} for c, v in enumerate(data) if v}

    def _aligned(self, other, summed):
        """Both operands on one width, offset and denominator.

        Returns (a, b, width, lo, den, bound): a and b are the two packed
        lists when both operands have the XOR form with one mask, else the
        two column dicts; bound is the l1 bound of a sum of the two (summed)
        or of either one."""
        den = lcm(self._den, other._den)
        ba = self._bound * (den // self._den)
        bb = other._bound * (den // other._den)
        bound = ba + bb if summed else max(ba, bb)
        width = max(self._width, other._width, _width_for(bound))
        nonzero = [x for x in (self, other) if not x.is_zero()]
        lo = min((x._lo for x in nonzero), default=0)
        _check_range(lo, max((x._hi for x in nonzero), default=0))
        if self._diag is not None and other._diag is not None and self._flip == other._flip:
            return self._as(width, lo, den), other._as(width, lo, den), width, lo, den, bound
        return (self._cols_as(width, lo, den), other._cols_as(width, lo, den),
                width, lo, den, bound)

    def _column(self, c):
        """{row: packed entry} of column c."""
        if self._diag is None:
            return self._cols.get(c, {})
        v = self._diag[c]
        return {c ^ self._flip: v} if v else {}

    # -- queries -------------------------------------------------------------

    @property
    def cols(self):
        """Decoded view {col: {row: QLaurent}}, rebuilt on every access."""
        if self._diag is not None:
            flip = self._flip
            return {c: {c ^ flip: x} for c, x in enumerate(_mapped(self._diag, self._decode))
                    if x}
        out = {}
        decoded = {}  # entries repeat; QLaurent values are immutable and shareable
        for c, col in self._cols.items():
            dst = out[c] = {}
            for r, v in col.items():
                x = decoded.get(v)
                if x is None:
                    x = decoded[v] = self._decode(v)
                dst[r] = x
        return out

    def entry(self, r, c):
        v = self._column(c).get(r)
        return QLaurent.zero() if v is None else self._decode(v)

    def support(self):
        """(col, rows) for every nonzero column, rows a view of its nonzero rows."""
        if self._diag is not None:
            flip = self._flip
            return ((c, (c ^ flip,)) for c, v in enumerate(self._diag) if v)
        return ((c, col.keys()) for c, col in self._cols.items())

    def nnz(self):
        if self._diag is not None:
            return self.dim - self._diag.count(0)
        return sum(map(len, self._cols.values()))

    def is_zero(self):
        return self._diag is None and not self._cols

    def monomial_diag_exponents(self):
        """Exponents e_c when the matrix is diag(q^(e_c)) with no zero entry,
        else None; read from ``cols``."""
        cols = self.cols
        if len(cols) != self.dim or any(col.keys() != {c} for c, col in cols.items()):
            return None
        terms = [cols[c][c].single_term() for c in range(self.dim)]
        if all(t and t[1] == 1 for t in terms):
            return [e for e, _ in terms]
        return None

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        a, b = self._aligned(other, False)[:2]
        return a == b

    def first_difference(self, other):
        """Column index of the first differing column, or None if equal."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        a, b = self._aligned(other, False)[:2]
        if a == b:
            return None
        if isinstance(a, list):
            return next(c for c, (x, y) in enumerate(zip(a, b)) if x != y)
        return next((c for c in sorted(set(a) | set(b)) if a.get(c, {}) != b.get(c, {})), None)

    def first_noncommuting(self, other, shift=0):
        """The first column where self * other and q^shift other * self
        differ, or None.

        When either factor D has the diagonal form (mask 0), the difference
        at (r, c) is (d_r - q^s d_c) Y_rc over the other factor Y's support,
        s = shift when D is self and -shift when D is other.  So the test
        compares two entries of D's list, one side shifted left by |s|
        digits (q^|s| times the entry in the same encoding, so int equality
        is entry equality; a missing entry is 0), and forms no product.
        Otherwise the two products are compared, one of them scaled."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        for diag, off, s in ((self, other, shift), (other, self, -shift)):
            d = diag._diag
            if d is None or diag._flip:
                continue
            left = right = d
            if s:
                bits = diag._width * abs(s)
                shifted = _mapped(d, lambda v: v << bits)
                left, right = (d, shifted) if s > 0 else (shifted, d)
            first = None
            for c, rows in off.support():
                if first is not None and c > first:
                    continue
                dc = right[c]
                for r in rows:
                    if left[r] != dc:
                        first = c
                        break
            return first
        swapped = other * self
        if shift:
            swapped = swapped.scale(QLaurent.q_power(shift))
        return (self * other).first_difference(swapped)

    # -- arithmetic ----------------------------------------------------------

    def _sum(self, other, negate):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if other.is_zero():
            return self
        if self.is_zero():
            return -other if negate else other
        a, b, width, lo, den, bound = self._aligned(other, True)
        hi = max(self._hi, other._hi)
        if isinstance(a, list):
            diag = _shared(map(operator.sub if negate else operator.add, a, b), lo, hi, bound)
            return SparseMatrix._make(self.dim, diag, width, lo, hi, den, bound, self._flip)
        cols = dict(a)
        for c, bcol in b.items():
            acol = cols.get(c)
            if acol is None:
                cols[c] = {r: -v for r, v in bcol.items()} if negate else bcol
                continue
            out = dict(acol)
            for r, v in bcol.items():
                s = out.get(r, 0) + (-v if negate else v)
                if s:
                    out[r] = s
                else:
                    del out[r]
            if out:
                cols[c] = out
            else:
                del cols[c]
        return SparseMatrix._make(self.dim, cols, width, lo, hi, den, bound)

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        if self._diag is not None:
            data = _mapped(self._diag, operator.neg)
        else:
            data = {c: {r: -v for r, v in col.items()} for c, col in self._cols.items()}
        return SparseMatrix._make(self.dim, data, self._width, self._lo, self._hi,
                                  self._den, self._bound, self._flip)

    def scale(self, coeff):
        if not isinstance(coeff, QLaurent):
            coeff = QLaurent.from_rational(coeff)
        if not coeff or self.is_zero():
            return SparseMatrix(self.dim)
        (terms,), cden = _integer_terms([coeff.terms])
        tmin, tmax = min(terms), max(terms)
        lo, hi = self._lo + tmin, self._hi + tmax
        _check_range(lo, hi)
        bound = self._bound * sum(map(abs, terms.values()))
        width = max(self._width, _width_for(bound))
        cp = _pack(terms, tmin, width)
        data = self._as(width, self._lo, self._den)
        if self._diag is not None:
            data = _mapped(data, cp.__mul__)
        else:
            data = {c: {r: v * cp for r, v in col.items()} for c, col in data.items()}
        return SparseMatrix._make(self.dim, data, width, lo, hi, self._den * cden, bound,
                                  self._flip)

    def __mul__(self, other):
        """Matrix product self @ other (columns of the product via other's)."""
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.is_zero() or other.is_zero():
            return SparseMatrix(self.dim)
        lo, hi = self._lo + other._lo, self._hi + other._hi
        _check_range(lo, hi)
        den = self._den * other._den
        if other._diag is not None:
            bound = self._bound * other._bound
        else:
            bound = self._bound * other._bound * max(map(len, other._cols.values()))
        width = max(self._width, other._width, _width_for(bound))
        if self._diag is not None and other._diag is not None:
            # other's column c holds vB[c] at row c ^ fB, which self sends to
            # row c ^ fB ^ fA times vA[c ^ fB]
            flip = other._flip
            a = _xor_permuted(self._as(width, self._lo, self._den), flip)
            diag = _shared(map(operator.mul, a, other._as(width, other._lo, other._den)),
                           lo, hi, bound)
            return SparseMatrix._make(self.dim, diag, width, lo, hi, den, bound,
                                      self._flip ^ flip)
        acols = self._cols_as(width, self._lo, self._den)
        cols = {}
        get = acols.get
        for c, bcol in other._cols_as(width, other._lo, other._den).items():
            out = {}
            for k, bv in bcol.items():
                acol = get(k)
                if acol:
                    for r, av in acol.items():
                        out[r] = out.get(r, 0) + av * bv
            # a single product of nonzero entries is nonzero; sums may cancel
            if len(bcol) > 1 and 0 in out.values():
                out = {r: v for r, v in out.items() if v}
            if out:
                cols[c] = out
        return SparseMatrix._make(self.dim, cols, width, lo, hi, den, bound)

    def kron(self, other):
        """Kronecker product; index (r1, r2) -> r1 * other.dim + r2.

        Two XOR forms give one with mask (fA << log2 d2) | fB when both
        masks are 0 or d2 is a power of two."""
        d2 = other.dim
        dim = self.dim * d2
        if self.is_zero() or other.is_zero():
            return SparseMatrix(dim)
        lo, hi = self._lo + other._lo, self._hi + other._hi
        _check_range(lo, hi)
        bound = self._bound * other._bound
        width = max(self._width, other._width, _width_for(bound))
        den = self._den * other._den
        fa, fb = self._flip, other._flip
        if (self._diag is not None and other._diag is not None
                and (not d2 & (d2 - 1) or not fa | fb)):
            b = other._as(width, other._lo, other._den)
            diag = _shared((v1 * v2 for v1 in self._as(width, self._lo, self._den) for v2 in b),
                           lo, hi, bound)
            return SparseMatrix._make(dim, diag, width, lo, hi, den, bound,
                                      fa << (d2.bit_length() - 1) | fb)
        bcols = other._cols_as(width, other._lo, other._den)
        cols = {}
        for c1, col1 in self._cols_as(width, self._lo, self._den).items():
            for c2, col2 in bcols.items():
                cols[c1 * d2 + c2] = {
                    r1 * d2 + r2: v1 * v2 for r1, v1 in col1.items() for r2, v2 in col2.items()
                }
        return SparseMatrix._make(dim, cols, width, lo, hi, den, bound)

    def specialize(self, value):
        """Entrywise evaluation at q = value (an int or Fraction); returns
        {col: {row: Fraction}}."""
        cols, scale = self.specialize_ints(value)
        return {c: {r: v * scale for r, v in col.items()} for c, col in cols.items()}

    def specialize_ints(self, value):
        """Evaluation at q = value over one common factor: (cols, scale), with
        cols {col: {row: int}} and scale a nonzero Fraction such that scale *
        cols[c][r] is the entry at q = value.  Same errors as specialize.

        With value = a/b and digits d_i (entry = value^lo / den * sum_i d_i
        value^i), each entry is value^lo / (den b^top) * sum_i d_i a^i
        b^(top - i), where top is the largest digit index in the matrix
        (needed only when b != 1)."""
        if not _is_rational(value):
            raise TypeError(f"specialize needs an int or Fraction, got {type(value).__name__}")
        if self.is_zero():
            return {}, Fraction(1)
        if value == 0:
            raise ZeroDivisionError("cannot specialize at q = 0 (negative exponents)")
        value = Fraction(value)
        a, b = value.numerator, value.denominator
        width = self._width
        # entries repeat: evaluate each distinct packed int once
        if self._diag is not None:
            values = set(self._diag)
            values.discard(0)
        else:
            values = {v for col in self._cols.values() for v in col.values()}
        digits = {v: _digits(v, width) for v in values}
        top = max(max(d) for d in digits.values()) if b != 1 else 0
        powers = {}  # digit index i -> a^i b^(top - i)
        nums = {}
        for v, ds in digits.items():
            num = 0
            for i, d in ds.items():
                p = powers.get(i)
                if p is None:
                    # 1 ** negative is a float: leave b out when it is 1
                    p = powers[i] = a**i if b == 1 else a**i * b ** (top - i)
                num += d * p
            nums[v] = num
        scale = value**self._lo / (self._den * b**top)
        if self._diag is not None:
            flip = self._flip
            return {c: {c ^ flip: x} for c, v in enumerate(self._diag)
                    if v and (x := nums[v])}, scale
        cols = {}
        for c, col in self._cols.items():
            out = {r: x for r, v in col.items() if (x := nums[v])}
            if out:
                cols[c] = out
        return cols, scale

    def apply_terms(self, entries):
        """Apply to a sparse vector {state: QLaurent}; returns the same shape."""
        out = {}
        for c, coeff in entries.items():
            for r, v in self._column(c).items():
                s = out.get(r)
                p = self._decode(v) * coeff
                s = p if s is None else s + p
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return out


def primitive_int_vector(vec):
    """Rescale a sparse rational vector to a primitive integer vector,
    dropping zero entries.

    Scaling does not change the span; primitive entries keep elimination in
    fast native-int arithmetic.
    """
    denom = 1
    for v in vec.values():
        # an exact type test first: isinstance against Fraction's ABC is slow
        if type(v) is not int:
            denom = lcm(denom, v.denominator)
    ints = {k: v * denom if type(v) is int else v.numerator * (denom // v.denominator)
            for k, v in vec.items() if v}
    g = gcd(*ints.values())
    if g > 1:
        ints = {k: n // g for k, n in ints.items()}
    return ints


def _reduce_ints(pivots, vec):
    """Reduce an integer vector against pivots ``{lead: vector}``.

    vec is a fresh dict with no zero entries; it is consumed.  Each step
    cancels vec's lead (its largest key) with the pivot of that lead:
    vec * a - pivot * b, a and b the two lead entries.  Returns the primitive
    remainder, whose lead is no pivot's, or {} when vec lies in the pivots'
    span.
    """
    while vec:
        lead = max(vec)
        pivot = pivots.get(lead)
        if pivot is None:
            g = gcd(*vec.values())
            return {k: v // g for k, v in vec.items()} if g > 1 else vec
        a = pivot[lead]
        b = vec[lead]
        if a != 1:
            vec = {k: v * a for k, v in vec.items()}
        for k, v in pivot.items():
            s = vec.get(k, 0) - v * b
            if s:
                vec[k] = s
            else:
                del vec[k]
    return vec


class RationalEchelon:
    """Incremental echelon basis for sparse vectors with exact entries.

    Keys must be totally ordered (ints or tuples).  ``pivots`` maps each
    pivot's lead (its largest key) to the pivot, a primitive integer vector.
    ``insert`` rescales a vector to a primitive integer one and reduces it
    against the pivots; a nonzero remainder becomes a new pivot.  ``close``
    inserts the images of integer vectors under integer operators until the
    span is closed under them.  Both share one integer-only reducer.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Fully reduce a vector; returns a primitive integer remainder."""
        return _reduce_ints(self.pivots, primitive_int_vector(vec))

    def insert(self, vec):
        """Reduce and insert; returns the new pivot vector or None."""
        return self._keep(self.reduce(vec))

    def insert_ints(self, vec):
        """insert for a primitive integer vector without zero entries, such
        as another echelon's pivot: reduced as it is, without the rescaling;
        vec itself is left unchanged."""
        return self._keep(_reduce_ints(self.pivots, dict(vec)))

    def _keep(self, rem):
        if not rem:
            return None
        self.pivots[max(rem)] = rem
        return rem

    def close(self, frontier, ops, max_rounds):
        """Close the span under integer operators.

        frontier: integer vectors of the span whose images are still to be
        taken, typically the pivots just inserted.  ops: operators as integer
        columns ``{col: {row: int}}``, the form ``specialize_ints`` returns.
        Neither may hold an explicit zero entry.

        Each round applies every operator to every vector of the frontier and
        inserts each nonzero image; the pivots it adds are the next round's
        frontier, and the span is closed after a round that adds none.
        Raises RuntimeError when that takes more than max_rounds rounds.
        """
        pivots = self.pivots
        rounds = 0
        while frontier:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError("lowering closure failed to stabilize within the round cap")
            fresh = []
            for vec in frontier:
                for op in ops:
                    image = {}
                    for c, x in vec.items():
                        col = op.get(c)
                        if col:
                            for r, v in col.items():
                                s = image.get(r, 0) + v * x
                                if s:
                                    image[r] = s
                                else:
                                    del image[r]
                    if image:
                        rem = _reduce_ints(pivots, image)
                        if rem:
                            pivots[max(rem)] = rem
                            fresh.append(rem)
            frontier = fresh
