"""Sparse matrices over the Laurent ring and exact rational elimination.

Matrices are stored column-major with no zeros retained, and every entry is
one Python int: its Laurent polynomial evaluated at ``q = 2^B``
(Kronecker substitution).  Each matrix carries

* a digit width ``B``;
* an exponent offset ``lo`` (no entry has a term below ``q^lo``), so an entry
  ``sum_e c_e q^e`` is stored as ``sum_e c_e 2^(B (e - lo))``;
* an exponent ceiling ``hi``, so that products refuse exponents beyond
  ``MAX_EXPONENT`` with the same ``OverflowError`` as ``QLaurent``, and any
  operation refuses a range ``hi - lo`` beyond ``MAX_SPAN`` before it packs;
* a positive integer denominator that every entry is divided by, 1 unless
  ``Fraction`` coefficients occur, so that the stored digits are integers;
* an upper bound on the l1 norm (sum of absolute digits) of every entry.

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

Operator equality throughout the package is equality of these matrices, and
``first_noncommuting`` decides a commutation without a product when either
factor is diagonal.  The module also hosts the incremental rational
row-reduction used for span-dimension and rank computations at specialized
q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
    """The nonzero balanced digits of a packed int as {lo + index: digit},
    from the lowest index up."""
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


class SparseMatrix:
    """A dim x dim sparse matrix with Laurent-polynomial entries, packed
    into ints (see the module docstring).  Instances are immutable; column
    dicts may be shared between matrices."""

    __slots__ = ("dim", "_cols", "_width", "_lo", "_hi", "_den", "_bound")

    def __init__(self, dim, cols=None):
        """cols maps column -> {row: QLaurent}; zero entries are dropped."""
        keys = []
        terms = []
        for c, col in (cols or {}).items():
            for r, v in col.items():
                if v:
                    keys.append((c, r))
                    terms.append(v.terms)
        terms, den = _integer_terms(terms)
        lo = min((min(t) for t in terms), default=0)
        hi = max((max(t) for t in terms), default=0)
        _check_range(lo, hi)
        bound = max((sum(map(abs, t.values())) for t in terms), default=0)
        width = _width_for(bound)
        packed = {}
        for (c, r), t in zip(keys, terms):
            packed.setdefault(c, {})[r] = _pack(t, lo, width)
        self._set(dim, packed, width, lo, hi, den, bound)

    def _set(self, dim, cols, width, lo, hi, den, bound):
        self.dim = dim
        self._cols = cols
        self._width = width
        self._lo = lo
        self._hi = hi
        self._den = den
        self._bound = bound

    @classmethod
    def _make(cls, dim, cols, width, lo, hi, den, bound):
        obj = cls.__new__(cls)
        obj._set(dim, cols, width, lo, hi, den, bound)
        return obj

    @classmethod
    def identity(cls, dim):
        return cls._make(dim, {c: {c: 1} for c in range(dim)}, _width_for(1), 0, 0, 1, 1)

    @classmethod
    def diagonal(cls, entries):
        """Diagonal matrix from a list of QLaurent entries."""
        return cls(len(entries), {c: {c: v} for c, v in enumerate(entries)})

    @classmethod
    def from_monomial_images(cls, dim, terms):
        """The sum, over terms (coeff, emin, emax, images), of the matrices
        with entry coeff * (-1)^neg * q^e at (row, col) for each (col, row,
        neg, e) in images, where emin <= e <= emax.  A term's images hit each
        column at most once.  Entries are packed as they are emitted."""
        coeffs, den = _integer_terms([coeff.terms for coeff, _, _, _ in terms])
        terms = [(t, emin, emax, images) for t, (_, emin, emax, images) in zip(coeffs, terms)]
        lo = min((min(t) + emin for t, emin, _, _ in terms), default=0)
        hi = max((max(t) + emax for t, _, emax, _ in terms), default=0)
        _check_range(lo, hi)
        bound = sum(sum(map(abs, t.values())) for t, _, _, _ in terms)
        width = _width_for(bound)
        cols = {}
        for t, _, _, images in terms:
            tmin = min(t)
            cp = _pack(t, tmin, width)
            base = tmin - lo
            for col, row, neg, e in images:
                v = (-cp if neg else cp) << (width * (e + base))
                dst = cols.get(col)
                if dst is None:
                    cols[col] = {row: v}
                    continue
                s = dst.get(row, 0) + v
                if s:
                    dst[row] = s
                else:
                    del dst[row]
        if len(terms) > 1:
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
        """The packed columns re-encoded for digit width, offset lo <= self's
        and denominator den (a multiple of self's)."""
        cols = self._cols
        if width == self._width and lo == self._lo and den == self._den:
            return cols
        factor = den // self._den
        pad = self._lo - lo
        if width == self._width:
            shift = width * pad
            return {c: {r: (v * factor) << shift for r, v in col.items()}
                    for c, col in cols.items()}
        old = self._width
        return {
            c: {r: sum((d * factor) << (width * i) for i, d in _digits(v, old, pad).items())
                for r, v in col.items()}
            for c, col in cols.items()
        }

    def _aligned(self, other, summed):
        """Both operands on one width, offset and denominator.

        Returns (cols, other cols, width, lo, den, bound), where bound is the
        l1 bound of a sum of the two (summed) or of either one."""
        den = lcm(self._den, other._den)
        ba = self._bound * (den // self._den)
        bb = other._bound * (den // other._den)
        bound = ba + bb if summed else max(ba, bb)
        width = max(self._width, other._width, _width_for(bound))
        lo = min((x._lo for x in (self, other) if x._cols), default=0)
        _check_range(lo, max((x._hi for x in (self, other) if x._cols), default=0))
        return self._as(width, lo, den), other._as(width, lo, den), width, lo, den, bound

    # -- queries -------------------------------------------------------------

    @property
    def cols(self):
        """Decoded view {col: {row: QLaurent}}, rebuilt on every access."""
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
        v = self._cols.get(c, {}).get(r)
        return QLaurent.zero() if v is None else self._decode(v)

    def support(self):
        """(col, rows) for every nonzero column, rows a view of its nonzero rows."""
        return ((c, col.keys()) for c, col in self._cols.items())

    def nnz(self):
        return sum(map(len, self._cols.values()))

    def is_zero(self):
        return not self._cols

    def monomial_diag_exponents(self):
        """Exponents e_c when the matrix is diag(q^(e_c)) with no zero entry,
        else None.  Lets torus conjugations reduce to integer arithmetic."""
        if len(self._cols) != self.dim:
            return None
        width, lo, den = self._width, self._lo, self._den
        exps = [0] * self.dim
        for c, col in self._cols.items():
            v = col.get(c)
            if v is None or len(col) != 1:
                return None
            # q^e with coefficient +1 packs to den * 2^(width (e - lo))
            v, rem = divmod(v, den)
            if rem or v <= 0 or v & (v - 1):
                return None
            k, rem = divmod(v.bit_length() - 1, width)
            if rem:
                return None
            exps[c] = lo + k
        return exps

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if not self._cols or not other._cols:
            return not self._cols and not other._cols
        a, b = self._aligned(other, False)[:2]
        return a == b

    def first_difference(self, other):
        """Column index of the first differing column, or None if equal."""
        a, b = self._aligned(other, False)[:2]
        for c in sorted(set(a) | set(b)):
            if a.get(c, {}) != b.get(c, {}):
                return c
        return None

    def _diagonal(self):
        """{col: packed entry} when no entry lies off the diagonal, else None."""
        diag = {}
        for c, col in self._cols.items():
            v = col.get(c)
            if v is None or len(col) != 1:
                return None
            diag[c] = v
        return diag

    def first_noncommuting(self, other):
        """The first column where self * other and other * self differ, or None.

        When either factor D has no off-diagonal entry, the commutator entry
        at (r, c) is (d_r - d_c) Y_rc over the other factor Y's support, so
        the test compares two packed diagonal entries of D (one encoding, so
        int equality is entry equality; a missing entry is 0).  Otherwise the
        two products are compared."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        for diag, off in ((self, other), (other, self)):
            d = diag._diagonal()
            if d is None:
                continue
            get = d.get
            first = None
            for c, rows in off._cols.items():
                if first is not None and c > first:
                    continue
                dc = get(c, 0)
                for r in rows:
                    if get(r, 0) != dc:
                        first = c
                        break
            return first
        return (self * other).first_difference(other * self)

    # -- arithmetic ----------------------------------------------------------

    def _sum(self, other, negate):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if not other._cols:
            return self
        if not self._cols:
            return -other if negate else other
        a, b, width, lo, den, bound = self._aligned(other, True)
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
        hi = max(self._hi, other._hi)
        return SparseMatrix._make(self.dim, cols, width, lo, hi, den, bound)

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        cols = {c: {r: -v for r, v in col.items()} for c, col in self._cols.items()}
        return SparseMatrix._make(self.dim, cols, self._width, self._lo, self._hi,
                                  self._den, self._bound)

    def scale(self, coeff):
        if not isinstance(coeff, QLaurent):
            coeff = QLaurent.from_rational(coeff)
        if not coeff or not self._cols:
            return SparseMatrix(self.dim)
        (terms,), cden = _integer_terms([coeff.terms])
        tmin, tmax = min(terms), max(terms)
        lo, hi = self._lo + tmin, self._hi + tmax
        _check_range(lo, hi)
        bound = self._bound * sum(map(abs, terms.values()))
        width = max(self._width, _width_for(bound))
        cp = _pack(terms, tmin, width)
        cols = {c: {r: v * cp for r, v in col.items()}
                for c, col in self._as(width, self._lo, self._den).items()}
        return SparseMatrix._make(self.dim, cols, width, lo, hi, self._den * cden, bound)

    def __mul__(self, other):
        """Matrix product self @ other (columns of the product via other's)."""
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if not self._cols or not other._cols:
            return SparseMatrix(self.dim)
        lo, hi = self._lo + other._lo, self._hi + other._hi
        _check_range(lo, hi)
        bound = self._bound * other._bound * max(map(len, other._cols.values()))
        width = max(self._width, other._width, _width_for(bound))
        acols = self._as(width, self._lo, self._den)
        cols = {}
        get = acols.get
        for c, bcol in other._as(width, other._lo, other._den).items():
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
        return SparseMatrix._make(self.dim, cols, width, lo, hi, self._den * other._den, bound)

    def commutator(self, other):
        return self * other - other * self

    def kron(self, other):
        """Kronecker product; index (r1, r2) -> r1 * other.dim + r2."""
        d2 = other.dim
        dim = self.dim * d2
        if not self._cols or not other._cols:
            return SparseMatrix(dim)
        lo, hi = self._lo + other._lo, self._hi + other._hi
        _check_range(lo, hi)
        bound = self._bound * other._bound
        width = max(self._width, other._width, _width_for(bound))
        bcols = other._as(width, other._lo, other._den)
        cols = {}
        for c1, col1 in self._as(width, self._lo, self._den).items():
            for c2, col2 in bcols.items():
                cols[c1 * d2 + c2] = {
                    r1 * d2 + r2: v1 * v2 for r1, v1 in col1.items() for r2, v2 in col2.items()
                }
        return SparseMatrix._make(dim, cols, width, lo, hi, self._den * other._den, bound)

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
        if not self._cols:
            return {}, Fraction(1)
        if value == 0:
            raise ZeroDivisionError("cannot specialize at q = 0 (negative exponents)")
        value = Fraction(value)
        a, b = value.numerator, value.denominator
        width = self._width
        # entries repeat: evaluate each distinct packed int once
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
        cols = {}
        for c, col in self._cols.items():
            out = {r: x for r, v in col.items() if (x := nums[v])}
            if out:
                cols[c] = out
        return cols, value**self._lo / (self._den * b**top)

    def apply_terms(self, entries):
        """Apply to a sparse vector {state: QLaurent}; returns the same shape."""
        out = {}
        for c, coeff in entries.items():
            for r, v in self._cols.get(c, {}).items():
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


class RationalEchelon:
    """Incremental echelon basis for sparse vectors with exact entries.

    Keys must be totally ordered (ints or tuples).  Each inserted vector is
    reduced against current pivots; a nonzero remainder becomes a new pivot.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Fully reduce a vector; returns a primitive integer remainder."""
        vec = primitive_int_vector(vec)
        while vec:
            lead = max(vec)
            pivot = self.pivots.get(lead)
            if pivot is None:
                return vec
            a = pivot[lead]
            b = vec[lead]
            out = {k: v * a for k, v in vec.items()}
            for k, v in pivot.items():
                s = out.get(k, 0) - v * b
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
            vec = out
        return {}

    def insert(self, vec):
        """Reduce and insert; returns the new pivot vector or None."""
        rem = self.reduce(vec)
        if not rem:
            return None
        g = gcd(*rem.values())
        if g > 1:
            rem = {k: v // g for k, v in rem.items()}
        self.pivots[max(rem)] = rem
        return rem
