"""Exact arithmetic in the ring of Laurent polynomials in q over the rationals.

Every scalar in this package is a :class:`QLaurent`: a finite sum of terms
``c * q^e`` with exact rational ``c`` and integer ``e``; a coefficient that
is an integer is stored as an int.  The ring is enough for all operator
matrices produced here; the only division ever needed is exact, and
:func:`exact_div` raises :class:`NonExactDivision` when a remainder is left,
which doubles as a correctness tripwire.  Division stays in ints wherever it
is exact in Z, so integer polynomials (q-integers, q-binomials) never pay for
Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "NonExactDivision",
    "QLaurent",
    "q_int",
    "q_factorial",
    "q_binomial",
    "exact_div",
]

# q-exponents stay tiny in practice (|e| <= nm); this guard catches runaway
# arithmetic long before native ints get slow.
MAX_EXPONENT = 1 << 30


class NonExactDivision(ArithmeticError):
    """A Laurent division left a nonzero remainder."""


def _is_rational(x):
    """int or Fraction; bool is an int subclass but not a number here."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _coeff(c):
    """Normalize a coefficient: exact rationals only, ints preferred."""
    if not _is_rational(c):
        raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    return c


def _exponent(e):
    """Validate a q-exponent: an int (not bool) with |e| <= MAX_EXPONENT."""
    if isinstance(e, bool) or not isinstance(e, int):
        raise TypeError(f"exponents must be integers, got {type(e).__name__}")
    if abs(e) > MAX_EXPONENT:
        raise OverflowError(f"q-exponent {e} out of range")
    return e


class QLaurent:
    """A Laurent polynomial in q with exact rational coefficients.

    Stored as a dict mapping exponent -> nonzero coefficient (int or
    Fraction).  Instances are treated as immutable; all operations return new
    values, so they are safe to share freely.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for e, c in terms.items():
                c = _coeff(c)
                if c:
                    cleaned[_exponent(e)] = c
        self.terms = cleaned

    @classmethod
    def _raw(cls, terms):
        """Wrap an already-normalized term dict without re-validating."""
        obj = cls.__new__(cls)
        obj.terms = terms
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def from_rational(cls, c):
        c = _coeff(c if isinstance(c, (int, Fraction)) else Fraction(c))
        return cls._raw({0: c} if c else {})

    @classmethod
    def q_power(cls, e, coeff=1):
        """The monomial ``coeff * q^e``."""
        c = _coeff(coeff)
        return cls._raw({_exponent(e): c} if c else {})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QLaurent):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a:
            return other
        if not b:
            return self
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return QLaurent._raw(out)

    def __neg__(self):
        return QLaurent._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QLaurent):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) == 1 == len(b):
            # monomial times monomial: nothing can cancel
            (ea, ca), = a.items()
            (eb, cb), = b.items()
            e = ea + eb
            if not -MAX_EXPONENT <= e <= MAX_EXPONENT:
                raise OverflowError("q-exponent out of range")
            return QLaurent._raw({e: ca * cb})
        if not a or not b:
            return _ZERO
        if len(a) == 1:
            (ea, ca), = a.items()
            out = {ea + eb: ca * cb for eb, cb in b.items()}
        elif len(b) == 1:
            (eb, cb), = b.items()
            out = {ea + eb: ca * cb for ea, ca in a.items()}
        else:
            out = {}
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = ea + eb
                    s = out.get(e, 0) + ca * cb
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
        if out and abs(max(out, key=abs)) > MAX_EXPONENT:
            raise OverflowError("q-exponent out of range")
        return QLaurent._raw(out)

    def shift(self, e):
        """Multiply by ``q^e`` (exponent translation)."""
        if not self.terms:
            return self
        _exponent(e)
        out = {k + e: c for k, c in self.terms.items()}
        if abs(max(out, key=abs)) > MAX_EXPONENT:
            raise OverflowError("q-exponent out of range")
        return QLaurent._raw(out)

    def scale(self, c):
        c = _coeff(c)
        if not c:
            return _ZERO
        if c == 1:
            return self
        return QLaurent._raw({e: v * c for e, v in self.terms.items()})

    # -- queries -----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, QLaurent):
            return self.terms == other.terms
        if _is_rational(other):
            return self.terms == ({0: _coeff(other)} if other else {})
        return NotImplemented

    def __hash__(self):
        # a constant hashes like the int or Fraction it equals
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and 0 in self.terms:
            return hash(self.terms[0])
        return hash(frozenset(self.terms.items()))

    def constant_value(self):
        """The rational value if this is a constant, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and 0 in self.terms:
            return Fraction(self.terms[0])
        return None

    def single_term(self):
        """Return (exponent, coefficient) if monomial, else None."""
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return e, c
        return None

    # -- evaluation / rendering ---------------------------------------------

    def specialize(self, value):
        """Evaluate at ``q = value`` exactly (value a nonzero int or Fraction)."""
        if not _is_rational(value):
            raise TypeError(f"specialize needs an int or Fraction, got {type(value).__name__}")
        value = Fraction(value)
        if value == 0:
            raise ZeroDivisionError("cannot specialize at q = 0 (negative exponents)")
        total = Fraction(0)
        for e, c in self.terms.items():
            total += Fraction(c) * value**e
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            neg = c < 0
            c = -c if neg else c
            if e == 0:
                body = str(c)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if c == 1 else f"{c}*{var}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"QLaurent({self})"


_ZERO = QLaurent._raw({})
_ONE = QLaurent._raw({0: 1})


def q_int(k):
    """The balanced q-integer [k]_q = q^(k-1) + q^(k-3) + ... + q^(1-k)."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"q_int requires k >= 0, got {k}")
    return QLaurent._raw({k - 1 - 2 * t: 1 for t in range(k)})


def q_factorial(k):
    """[k]_q! = [k]_q [k-1]_q ... [1]_q."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"q_factorial requires k >= 0, got {k}")
    out = _ONE
    for t in range(2, k + 1):
        out = out * q_int(t)
    return out


def q_binomial(a, b):
    """The q-binomial [a]_q! / ([b]_q! [a-b]_q!), computed by exact division."""
    if not (isinstance(a, int) and isinstance(b, int) and 0 <= b <= a):
        raise ValueError(f"q_binomial requires 0 <= b <= a, got a={a}, b={b}")
    num = q_factorial(a)
    den = q_factorial(b) * q_factorial(a - b)
    try:
        return exact_div(num, den)
    except NonExactDivision as exc:  # mathematically impossible
        raise AssertionError("q-binomial division left a remainder") from exc


def exact_div(num, den):
    """Exact quotient num/den in the Laurent ring.

    Long division from the top.  A step whose leading coefficients are ints
    and divide exactly takes an int factor, so a quotient that is exact in
    Z (a q-binomial, or an integer polynomial over one led by +-1) never
    builds a Fraction; any other step divides as Fractions.  Raises
    :class:`NonExactDivision` when den does not divide num; never truncates
    silently.  The loop runs at most one step per quotient exponent,
    deg(num) - deg(den) + 1 steps once both are shifted to valuation 0, and
    raises RuntimeError past them, so a step that fails to cancel the
    remainder's top term is an error, not a hang.
    """
    if not den.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num.terms:
        return _ZERO
    # Shift both to honest polynomials with valuation 0, long-divide from the
    # top, and shift the quotient back.
    vn, vd = min(num.terms), min(den.terms)
    rem = {e - vn: c for e, c in num.terms.items()}
    dpoly = {e - vd: c for e, c in den.terms.items()}
    ddeg = max(dpoly)
    dlead = dpoly[ddeg]
    quot = {}
    # every step cancels the remainder's top term, so at most this many
    # steps run; one more means a step failed to, and would loop forever
    steps = max(rem) - ddeg + 1
    while rem:
        rdeg = max(rem)
        if rdeg < ddeg:
            raise NonExactDivision(f"remainder of degree {rdeg} is nonzero")
        if not steps:
            raise RuntimeError(f"long division step did not cancel the q^{rdeg} term")
        steps -= 1
        shift_by = rdeg - ddeg
        lead = rem[rdeg]
        if type(lead) is int and type(dlead) is int and not lead % dlead:
            factor = lead // dlead
        else:
            factor = Fraction(lead) / dlead
        quot[shift_by] = factor
        for e, c in dpoly.items():
            k = e + shift_by
            s = rem.get(k, 0) - factor * c
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    offset = vn - vd
    return QLaurent({e + offset: c for e, c in quot.items()})

