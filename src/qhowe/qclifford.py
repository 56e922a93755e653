"""Quantum Clifford generators acting on the occupancy-word module.

Generators on N positions:

* ``psi_k``   annihilates position k with sign (-1)^(occupied before k),
* ``psid_k``  creates position k with the same sign rule,
* ``w_k``     diagonal, scales a state by q^(-l_k)  (inverse: q^(+l_k)).

Operator expressions are scalar-weighted words in these generators.  Words
apply right to left, matching the usual composition convention for displayed
products.  Each generator word is compiled once into bit masks over the input
state (:class:`_CompiledWord`).  A compiled word is a monomial matrix, a
partial permutation times a diagonal of +-q^e (the Jordan-Wigner form), and
it carries its coefficient's q-power in ``exp0``: a compiled term is a
rational coefficient (int or Fraction) and one word, and a coefficient with
several terms c q^e becomes one word per term.  So a product of operators
composes its operands' compiled words on their masks
(``_CompiledWord.compose``, which adds the exp0 values) and multiplies
native numbers, never walks a concatenated word, and lists its word tuples
(``terms``, with their Laurent coefficients) only when something reads
them, such as ``str``.
``apply`` evaluates the compiled form state by state, and
``_CompiledWord.table_indices`` gives every state an index into a table of
the word's entries, by sign and q-exponent, or the table's zero where the
word kills it, by doubling over the positions.  Identities
between operators are identities of their action on the module, not in the
abstract algebra (the module is not a faithful representation of it).
``first_difference``, ``first_noncommuting`` and ``first_difference_at_one``
decide them on the compiled words (``wordzero``), naming the witness state
the matrices would, at up to 64 positions; so is the classical sign rule,
against one reference Jordan-Wigner word per generator.  ``specialize_ints``
and ``to_matrix`` (the tests' oracle) differ only in each word's table of
entries (``_table``: exact integers over one denominator, or Laurent
polynomials, each with its zero).  One builder (``OperatorExpr._moves``)
reads them along the index lists into dense move form, one list of 2^N
entries per move ``require_set ^ final_set`` (row = col ^ move, the
entry at col), which ``to_matrix`` files by column; both stop at
``fockspace.check_enumerable``'s wall.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial
from math import lcm
from operator import add
from typing import NamedTuple

from . import fockspace, report
from .fockspace import check_enumerable, state_to_string
from .qscalar import QLaurent
from .sparsemat import SparseMatrix
from .wordzero import first_nonzero_state

__all__ = [
    "PSI",
    "PSI_DAG",
    "OMEGA",
    "OMEGA_INV",
    "CliffordGen",
    "OperatorExpr",
    "q_commutator",
    "check_clifford",
]

PSI = "psi"
PSI_DAG = "psid"
OMEGA = "w"
OMEGA_INV = "winv"

_KINDS = (PSI, PSI_DAG, OMEGA, OMEGA_INV)


class CliffordGen(NamedTuple):
    kind: str
    index: int

    def __str__(self):
        if self.kind == PSI:
            return f"psi{self.index}"
        if self.kind == PSI_DAG:
            return f"psid{self.index}"
        if self.kind == OMEGA:
            return f"w{self.index}"
        return f"w{self.index}^-1"


def _check_gen(gen, length, classical):
    if gen.kind not in _KINDS:
        raise ValueError(f"unknown generator kind {gen.kind!r}")
    if not 1 <= gen.index <= length:
        raise ValueError(f"generator index {gen.index} outside 1..{length}")
    if classical and gen.kind in (OMEGA, OMEGA_INV):
        raise ValueError("classical operators may not contain w generators")


class _CompiledWord(NamedTuple):
    """A generator word reduced to masks over the input state's bits.

    A state survives the word when it has every bit of ``require_set`` and
    none of ``require_clear``; those are the positions some psi or psid
    touches, and ``final_set`` holds their bits afterwards.  Its image is
    ``(-1)^(sign_odd + |state & sign_mask|) q^e`` times the output state,
    with ``e = exp0 + sum(c * |state & mask| for c, mask in exp_masks)``.
    ``sign_mask`` and the exponent masks cover untouched positions only.
    In an operator's compiled terms, ``exp0`` also holds the q-power of the
    word's coefficient term, and the coefficient beside it is rational.
    """

    require_set: int
    require_clear: int
    final_set: int
    sign_mask: int
    sign_odd: int
    exp0: int
    exp_masks: tuple

    @classmethod
    def compile(cls, word):
        """Walk the word right to left once; None when it kills every state."""
        require_set = require_clear = final_set = 0
        sign_mask = sign_odd = exp0 = 0
        weights = {}  # position bit -> q-exponent per unit of its input bit
        for kind, k in reversed(word):
            bit = 1 << (k - 1)
            touched = require_set | require_clear
            if kind in (OMEGA, OMEGA_INV):
                step = -1 if kind == OMEGA else 1
                if not touched & bit:
                    weights[bit] = weights.get(bit, 0) + step
                elif final_set & bit:
                    exp0 += step
                continue
            # the sign counts the occupied positions before k as they stand now
            below = bit - 1
            sign_mask ^= below & ~touched
            sign_odd ^= (final_set & below).bit_count() & 1
            occupied = kind == PSI
            if touched & bit:
                if bool(final_set & bit) != occupied:
                    return None
            elif occupied:
                require_set |= bit
            else:
                require_clear |= bit
            final_set = final_set & ~bit if occupied else final_set | bit
        # a touched position's input bit is fixed by its requirement
        touched = require_set | require_clear
        sign_odd ^= (sign_mask & require_set).bit_count() & 1
        sign_mask &= ~touched
        masks = {}
        for bit, c in weights.items():
            if touched & bit:
                exp0 += c if require_set & bit else 0
            elif c:
                masks[c] = masks.get(c, 0) | bit
        return cls(require_set, require_clear, final_set, sign_mask, sign_odd, exp0,
                   tuple(sorted(masks.items())))

    def compose(self, first):
        """The compiled form of self's generators applied after first's,
        ``compile(self_word + first_word)``, read off the two words' masks;
        None when the product kills every state.

        On the bits first touches, self reads first's ``final_set``: its
        requirements there must hold, and its sign and exponent masks there
        add a constant.  On the other bits it reads the input state, so its
        requirements and masks pass through to the product's, and first's
        masks on the bits self touches fold in self's required bits."""
        a_set, a_clear, a_final, a_sign, a_odd, a_exp0, a_masks = self
        b_set, b_clear, b_final, b_sign, b_odd, b_exp0, b_masks = first
        b_touched = b_set | b_clear
        if a_set & b_touched & ~b_final or a_clear & b_final:
            return None
        a_touched = a_set | a_clear
        sign_mask = b_sign ^ a_sign & ~b_touched
        sign_odd = (a_odd + b_odd + (a_sign & b_final).bit_count()
                    + (sign_mask & a_set).bit_count()) & 1
        exp0 = a_exp0 + b_exp0
        tail = []  # first's masks off the bits self touches
        for c, mask in b_masks:
            if mask & a_touched:
                exp0 += c * (mask & a_set).bit_count()
                mask &= ~a_touched
            if mask:
                tail.append((c, mask))
        head = []  # self's masks off the bits first touches
        for c, mask in a_masks:
            if mask & b_touched:
                exp0 += c * (mask & b_final).bit_count()
                mask &= ~b_touched
            if mask:
                head.append((c, mask))
        return _new_word((
            b_set | a_set & ~b_touched, b_clear | a_clear & ~b_touched,
            a_final | b_final & ~a_touched, sign_mask & ~(a_touched | b_touched), sign_odd,
            exp0, _merged(head, tail) if head and tail else tuple(head or tail)))

    def shifted(self, e):
        """The word times q^e: exp0 moved by e."""
        if not e:
            return self
        require_set, require_clear, final_set, sign_mask, sign_odd, exp0, exp_masks = self
        return _new_word((require_set, require_clear, final_set, sign_mask, sign_odd,
                          exp0 + e, exp_masks))

    def image(self, state):
        """(output state, negative, q-exponent), or None if the word kills state."""
        require_set, require_clear, final_set, sign_mask, sign_odd, exp0, exp_masks = self
        if state & require_set != require_set or state & require_clear:
            return None
        row = (state & ~(require_set | require_clear)) | final_set
        negative = (sign_odd + (state & sign_mask).bit_count()) & 1
        qexp = exp0
        for c, mask in exp_masks:
            qexp += c * (state & mask).bit_count()
        return row, negative, qexp

    def exponent_range(self):
        """(min, max) of the q-exponent over the surviving states."""
        low = high = self.exp0
        for c, mask in self.exp_masks:
            if c < 0:
                low += c * mask.bit_count()
            else:
                high += c * mask.bit_count()
        return low, high

    def table_indices(self, length):
        """The index into the word's ``_table`` of every state of the given
        length, in state order: ``2 * (e - emin) + negative`` for a state the
        word keeps, e its q-exponent and emin the low end of
        ``exponent_range``, and one past the table's entries, where the
        table holds its zero, for a state the word kills.

        The list doubles once per position, in increasing bit order, by
        C-level operations over what is built so far.  A required bit puts
        the killed index in the half that lacks it (``require_set``) or has
        it (``require_clear``).  A free bit adds its weight to e and, in
        ``sign_mask``, flips the sign, whatever the other bits; a lookup
        list that does both and keeps the killed index maps the new half."""
        require_set, require_clear, _, sign_mask, sign_odd, exp0, exp_masks = self
        low, high = self.exponent_range()
        dead = 2 * (high - low + 1)
        weights = {}
        for c, mask in exp_masks:
            while mask:
                bit = mask & -mask
                weights[bit] = c
                mask ^= bit
        keys = [2 * (exp0 - low) + sign_odd]
        for k in range(length):
            bit = 1 << k
            if require_set & bit:
                keys = [dead] * len(keys) + keys
            elif require_clear & bit:
                keys += [dead] * len(keys)
            else:
                step, flip = 2 * weights.get(bit, 0), 1 if sign_mask & bit else 0
                if step or flip:
                    lookup = [(key + step) ^ flip for key in range(dead)] + [dead]
                    keys += list(map(lookup.__getitem__, keys))
                else:
                    keys += keys
        return keys


def _new_word(fields):
    """A _CompiledWord from its seven fields, without the keyword-handling
    constructor (products build one per word pair)."""
    return tuple.__new__(_CompiledWord, fields)


def _merged(head, tail):
    """The exponent masks of a product from both words' masks off the
    other's touched bits, each list sorted by weight: a bit in both carries
    the sum of its weights."""
    weights = dict(tail)  # q-exponent per input bit -> its bits
    bits = 0
    for _, mask in tail:
        bits |= mask
    for c, mask in head:
        if mask & bits:
            for cb, mb in list(weights.items()):
                both = mask & mb
                if both:
                    weights[cb] ^= both
                    weights[c + cb] = weights.get(c + cb, 0) | both
                    mask ^= both
        weights[c] = weights.get(c, 0) | mask
    return tuple(sorted([(c, mask) for c, mask in weights.items() if c and mask]))


def _composed(left, right):
    """The compiled words of the product of two operators from theirs: each
    pair composed, the dead pairs dropped, the coefficients multiplied."""
    return [(ca * cb, cw) for ca, a in left for cb, b in right
            if (cw := a.compose(b)) is not None]


def _commutation(u, v):
    """(p, e) with u∘v = (-1)^p q^e v∘u, or None when the positions the
    two words touch meet (see ``OperatorExpr.first_noncommuting``)."""
    u_set, u_clear, u_final, u_sign, _, _, u_masks = u
    v_set, v_clear, v_final, v_sign, _, _, v_masks = v
    if (u_set | u_clear) & (v_set | v_clear):
        return None
    p = ((u_sign & (v_set ^ v_final)).bit_count()
         + (v_sign & (u_set ^ u_final)).bit_count()) & 1
    e = 0
    for c, mask in u_masks:
        e += c * ((mask & v_final).bit_count() - (mask & v_set).bit_count())
    for c, mask in v_masks:
        e -= c * ((mask & u_final).bit_count() - (mask & u_set).bit_count())
    return p, e


def _table(cw, entry, zero):
    """The entry at each index of ``cw.table_indices``, index 2 * (e - emin)
    + negative: entry(e) and -entry(e), e from the low end emin of
    ``exponent_range`` up, then zero at the index of the killed states."""
    low, high = cw.exponent_range()
    return [x for e in range(low, high + 1) for v in (entry(e),) for x in (v, -v)] + [zero]


def _listed(terms):
    """An operator's term list from its ``_terms``: the list itself, or a
    node ``(build, *args)`` that builds it from constants and the operands'
    ``_terms``, lists or nodes again.  Nodes are built bottom up, each once,
    without recursion, so a sum built in a long loop lists its terms too."""
    built = {}  # id(node) -> its term list
    stack = [terms]
    while stack:
        node = stack[-1]
        if isinstance(node, list) or id(node) in built:
            stack.pop()
            continue
        pending = [a for a in node[1:] if isinstance(a, tuple) and id(a) not in built]
        if pending:
            stack += pending
            continue
        stack.pop()
        built[id(node)] = node[0](*(built.get(id(a), a) for a in node[1:]))
    return built.get(id(terms), terms)


def _negated(terms):
    return [(-c, w) for c, w in terms]


def _products(terms, others):
    return [(ca * cb, wa + wb) for ca, wa in terms for cb, wb in others]


def _scaled(terms, coeff):
    return [(c * coeff, w) for c, w in terms]


class OperatorExpr:
    """A formal sum of scalar-weighted generator words on N positions.

    ``terms`` is a list of (QLaurent coefficient, word tuple).  The classical
    flag forbids w generators and restricts coefficients to constants (the
    q = 1 picture).  An operator built from generator tuples compiles its
    words once, on first use, each term into one word per coefficient term;
    one built by ``+``, ``-``, ``*`` and ``scale`` is born with its compiled
    words (a product composes its operands', see ``_CompiledWord.compose``)
    and lists its word tuples only when ``terms`` is first read.
    """

    __slots__ = ("length", "_terms", "classical", "_words")

    def __init__(self, length, terms, classical=False):
        self.length = length
        self.classical = classical
        self._words = None
        cleaned = []
        for coeff, word in terms:
            if not isinstance(coeff, QLaurent):
                coeff = QLaurent.from_rational(coeff)
            if not coeff:
                continue
            word = tuple(
                g if isinstance(g, CliffordGen) else CliffordGen(*g) for g in word
            )
            for gen in word:
                _check_gen(gen, length, classical)
            if classical and coeff.constant_value() is None:
                raise ValueError("classical operators need constant coefficients")
            cleaned.append((coeff, word))
        self._terms = cleaned

    @classmethod
    def _raw(cls, length, terms, classical=False, words=None):
        """terms: the term list, or a node that builds it on first read
        (``_listed``); words: the compiled words, or None to compile terms
        on first use."""
        obj = cls.__new__(cls)
        obj.length = length
        obj._terms = terms
        obj.classical = classical
        obj._words = words
        return obj

    @property
    def terms(self):
        self._terms = _listed(self._terms)
        return self._terms

    # -- convenient constructors --------------------------------------------

    @classmethod
    def identity(cls, length, classical=False):
        return cls._raw(length, [(QLaurent.one(), ())], classical)

    @classmethod
    def zero(cls, length, classical=False):
        return cls._raw(length, [], classical, [])

    @classmethod
    def word(cls, length, gens, coeff=None, classical=False):
        coeff = QLaurent.one() if coeff is None else coeff
        return cls(length, [(coeff, tuple(gens))], classical)

    @classmethod
    def psi(cls, k, length, classical=False):
        return cls.word(length, [CliffordGen(PSI, k)], classical=classical)

    @classmethod
    def psi_dag(cls, k, length, classical=False):
        return cls.word(length, [CliffordGen(PSI_DAG, k)], classical=classical)

    @classmethod
    def omega(cls, k, length):
        return cls.word(length, [CliffordGen(OMEGA, k)])

    @classmethod
    def omega_inv(cls, k, length):
        return cls.word(length, [CliffordGen(OMEGA_INV, k)])

    # -- algebra --------------------------------------------------------------

    def _check_space(self, other):
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} vs {other.length}")

    def __add__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        self._check_space(other)
        return OperatorExpr._raw(
            self.length, (add, self._terms, other._terms),
            self.classical and other.classical, self._compiled() + other._compiled(),
        )

    def __neg__(self):
        return OperatorExpr._raw(
            self.length, (_negated, self._terms), self.classical,
            [(-c, cw) for c, cw in self._compiled()],
        )

    def __sub__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Composition: (self * other) acts by other first."""
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        self._check_space(other)
        return OperatorExpr._raw(
            self.length, (_products, self._terms, other._terms),
            self.classical and other.classical, _composed(self._compiled(), other._compiled()),
        )

    def scale(self, coeff):
        if not isinstance(coeff, QLaurent):
            coeff = QLaurent.from_rational(coeff)
        if not coeff:
            return OperatorExpr.zero(self.length, self.classical)
        return OperatorExpr._raw(
            self.length, (_scaled, self._terms, coeff), self.classical,
            [(c * x, cw.shifted(e)) for c, cw in self._compiled()
             for e, x in coeff.terms.items()],
        )

    # -- action ----------------------------------------------------------------

    def _compiled(self):
        """[(rational c, _CompiledWord)] for the terms whose word is not
        dead: one per term c q^e of each coefficient, e added to exp0."""
        if self._words is None:
            self._words = [
                (c, cw.shifted(e)) for coeff, word in self.terms
                if (cw := _CompiledWord.compile(word)) is not None
                for e, c in coeff.terms.items()
            ]
        return self._words

    def apply(self, vec):
        """Apply to a sparse vector ``{state: QLaurent}`` without zero
        entries; returns one in the same form, as ``SparseMatrix.apply``
        does.  Linear, words right-to-left.  Raises ValueError for a state
        outside the 2^N of the module."""
        limit = 1 << self.length
        for state in vec:
            if not 0 <= state < limit:
                raise ValueError(f"state {state} does not fit in {self.length} positions")
        out = {}
        for c, cw in self._compiled():
            for state, value in vec.items():
                image = cw.image(state)
                if image is None:
                    continue
                row, negative, qexp = image
                scalar = value.scale(-c if negative else c)
                if qexp:
                    scalar = scalar.shift(qexp)
                prev = out.get(row)
                out[row] = scalar if prev is None else prev + scalar
        return {r: v for r, v in out.items() if v}

    def to_matrix(self):
        """Realize as a 2^N x 2^N ``SparseMatrix`` (column per basis state),
        the oracle the tests hold the word decisions to: ``_moves`` with
        Laurent tables, filed by column in ascending order."""
        tables = [_table(cw, partial(QLaurent.q_power, coeff=c), QLaurent.zero())
                  for c, cw in self._compiled()]
        cols = {}
        for move, weights in self._moves(tables):
            for c, v in enumerate(weights):
                if v:
                    cols.setdefault(c, {})[c ^ move] = v
        return SparseMatrix._raw(1 << self.length, {c: cols[c] for c in sorted(cols)})

    def specialize_ints(self, value):
        """(moves, scale): ``_moves`` of the words' tables at q = value, all
        over one common denominator, so that scale times a move's weight at
        col is the entry at (col ^ move, col)."""
        value = Fraction(value)
        tables = [_table(cw, lambda e, c=c: c * value**e, 0) for c, cw in self._compiled()]
        den = lcm(*(x.denominator for table in tables for x in table))
        tables = [[int(x * den) for x in table] for table in tables]
        return self._moves(tables), Fraction(1, den)

    def _moves(self, tables):
        """The sum of the compiled words as dense moves, [(move, weights)],
        tables[k] holding the entry at each index of word k (``_table``): a
        word sends each state s it keeps to s ^ move, move = require_set ^
        final_set, so ``weights[s]``, one of 2^N entries, is the entry at
        (s ^ move, s), and the table's zero where the word kills s
        (``_CompiledWord.table_indices``).  The words of one move sum
        elementwise into one list; moves whose entries are all zero are
        dropped."""
        check_enumerable(self.length)
        summed = {}
        for (_, cw), table in zip(self._compiled(), tables):
            weights = list(map(table.__getitem__, cw.table_indices(self.length)))
            move = cw.require_set ^ cw.final_set
            summed[move] = list(map(add, summed[move], weights)) if move in summed else weights
        return [(move, weights) for move, weights in summed.items() if any(weights)]

    # -- identities -----------------------------------------------------------

    def first_difference(self, other):
        """The first basis state whose column differs between self and
        other, or None when they are equal; decided on the words
        (``wordzero``), the same state ``SparseMatrix.first_difference``
        names on the two matrices."""
        return first_nonzero_state((self - other)._compiled())

    def first_noncommuting(self, other, shift=0):
        """The first column where self * other and q^shift other * self
        differ, or None; as ``SparseMatrix.first_noncommuting``.  The words
        of ``q_commutator(self, other, shift)`` are composed straight from
        the operands' words, with no operator built.

        A pair of words u of self and v of other whose touched positions
        (``require_set | require_clear``) do not meet q-commutes exactly,
        u∘v = (-1)^p q^e v∘u with (p, e) = ``_commutation(u, v)``, so the
        pair is skipped, not composed, when p = 0 and e = shift: its two
        words cancel in self * other - q^shift other * self.  Proof from
        ``compose``'s formulas with the touched sets disjoint (a final_set
        lies inside its word's touched set): the kill test is vacuous, so
        neither product is None; both products have the same require and
        final masks, and the same exponent masks, each bit carrying the sum
        of its weights in u and v; their sign masks are both u.sign_mask ^
        v.sign_mask off both touched sets; u∘v's parity is u.sign_odd +
        v.sign_odd + |u.sign_mask & v.final_set| + |v.sign_mask &
        u.require_set|, and v∘u's swaps u and v, so they differ by p =
        |u.sign_mask & move(v)| + |v.sign_mask & move(u)| mod 2 (move =
        ``require_set ^ final_set``); and u∘v's exp0 is u.exp0 + v.exp0 +
        the sum of c|m & v.final_set| over u's masks (c, m) and of
        c|m & u.require_set| over v's, so it exceeds v∘u's by e.  Every
        other pair is composed both ways, in the order of ``_composed``, and
        the surviving words decide the same operator."""
        self._check_space(other)
        a, b = self._compiled(), other._compiled()
        live = [[_commutation(u, v) != (0, shift) for _, v in b] for _, u in a]
        words = [(ca * cb, cw) for (ca, u), row in zip(a, live) for (cb, v), keep in zip(b, row)
                 if keep and (cw := u.compose(v)) is not None]
        words += [(-cb * ca, cw.shifted(shift)) for j, (cb, v) in enumerate(b)
                  for (ca, u), row in zip(a, live)
                  if row[j] and (cw := v.compose(u)) is not None]
        return first_nonzero_state(words)

    def first_difference_at_one(self, other):
        """first_difference at q = 1: each word's coefficient is taken at 1
        and its q-exponents are dropped before the words are decided."""
        return first_nonzero_state([
            (c, cw._replace(exp0=0, exp_masks=())) for c, cw in (self - other)._compiled()])

    def torus_weights(self):
        """(e0, exp_masks) of the first word that touches no position and
        whose whole coefficient is q^e0: it scales each state s by q^(e0 +
        sum(c * |s & mask|) for c, mask in exp_masks).  A compiled word with
        coefficient 1 qualifies only when no other word has its masks, so
        that it is not one term of a coefficient with several.  None when no
        word does."""
        words = self._compiled()
        masks = Counter(cw._replace(exp0=0) for _, cw in words)
        for c, cw in words:
            if (c == 1 and not cw.require_set | cw.require_clear
                    and masks[cw._replace(exp0=0)] == 1):
                return cw.exp0, cw.exp_masks
        return None

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for coeff, word in self.terms:
            text = str(coeff)
            gens = " ".join(str(g) for g in word)
            if not gens:
                parts.append(text)
            elif text == "1":
                parts.append(gens)
            elif text == "-1":
                parts.append(f"-{gens}")
            else:
                if " " in text:
                    text = f"({text})"
                parts.append(f"{text} {gens}")
        return " + ".join(parts)

    def __repr__(self):
        return f"OperatorExpr({self})"


def q_commutator(a, b, k=0):
    """The formal expression a*b - q^k * b*a (k = 0: plain commutator)."""
    return a * b - (b * a).scale(QLaurent.q_power(k))


def check_clifford(N):
    """Operator-level checks of the generator relations on N positions.

    Canonical anticommutation among the psi and psid, {psi_a, psid_a} = id and
    the deformed relations psi psid + q^{+-1} psid psi = w^{-+1}, decided on
    the Clifford words; the sign rule of the classical (q = 1) action, on the
    classical words against reference Jordan-Wigner words.
    """
    checks = []
    label = partial(state_to_string, length=N)
    ident = OperatorExpr.identity(N)
    zero = ident.scale(0)
    psi = [None] + [OperatorExpr.psi(k, N) for k in range(1, N + 1)]
    psid = [None] + [OperatorExpr.psi_dag(k, N) for k in range(1, N + 1)]

    for i in range(1, N + 1):
        for j in range(i, N + 1):
            for relation, ops in (("psi psi anticommute", psi), ("psid psid anticommute", psid)):
                anti = ops[i] * ops[j] + ops[j] * ops[i]
                checks.append(report.match(relation, anti, zero, label, indices=[i, j]))
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            mixed = psi[i] * psid[j] + psid[j] * psi[i]
            checks.append(report.match("{psi_i, psid_j}", mixed, ident if i == j else zero,
                                       label, indices=[i, j]))
    for a in range(1, N + 1):
        for relation, e, target in (
            ("psi psid + q psid psi = w^-1", 1, OperatorExpr.omega_inv(a, N)),
            ("psi psid + q^-1 psid psi = w", -1, OperatorExpr.omega(a, N)),
        ):
            lhs = psi[a] * psid[a] + (psid[a] * psi[a]).scale(QLaurent.q_power(e))
            checks.append(report.match(relation, lhs, target, label, indices=[a]))

    checks.append(report.check("classical sign rule", *_sign_rule_witness(N), indices=[]))
    return report.finish(checks, positions=N)


def _sign_rule_witness(N):
    """(ok, first failing state in (k, state) order) of the classical psi_k
    and psid_k against an independent prefix-parity computation.

    psi_k must keep the states with bit k and psid_k those without it, move
    each kept state s by bit k and scale it by (-1)^prefix_parity(s, k): the
    Jordan-Wigner word with no exponents whose sign bit and sign mask are
    read off ``prefix_parity`` at its smallest kept state and that state's
    one-bit neighbours.  Each generator is decided against that word on the
    words (``wordzero``), naming the state ``first_difference`` names on the
    two matrices, at any N."""
    for k in range(1, N + 1):
        bit = 1 << (k - 1)
        firsts = []
        for op, base in ((OperatorExpr.psi(k, N, classical=True), bit),
                         (OperatorExpr.psi_dag(k, N, classical=True), 0)):
            odd = fockspace.prefix_parity(base, k) & 1
            sign_mask = sum(1 << j for j in range(N) if 1 << j != bit and
                            fockspace.prefix_parity(base | 1 << j, k) & 1 != odd)
            reference = _CompiledWord(base, base ^ bit, base ^ bit, sign_mask, odd, 0, ())
            first = first_nonzero_state(op._compiled() + [(-1, reference)])
            if first is not None:
                firsts.append(first)
        if firsts:
            return False, state_to_string(min(firsts), N)
    return True, None
