"""The first basis state on which a sum of compiled Clifford words acts
nonzero, found from the words alone, with no 2^N-column matrix.

A compiled word (``qclifford._CompiledWord``) is a Kronecker product of one
2-vector of column values per position (its Jordan-Wigner form): a touched
position contributes the indicator of its required bit, an untouched one
``(1, (-1)^[k in sign_mask] q^(weight of k))``.  The word sends each state it
keeps to that state XOR ``require_set ^ final_set``.  So the matrix of a sum
of words is zero at column s exactly when, for each move mask, the sum over
the words with that mask of coefficient times product of position values
vanishes at s.  The decision runs in three steps:

1. **Merge** the words whose key (``require_set``, ``require_clear``,
   ``final_set``, ``sign_mask``, ``exp_masks``) is equal into one Laurent
   polynomial per key: each word adds its rational coefficient, signed by
   ``sign_odd``, at the power ``exp0`` (which holds the coefficient's
   q-power too).  Equal keys are equal matrices up to that polynomial, so a
   sum that merges to nothing is zero.
2. **Group** the merged words by move mask; different masks reach different
   rows of every column, so each group is decided on its own.
3. **Sweep** each group left to right over its positions (the span test of
   Raz and Shpilka for read-once branching programs, Comput. Complexity 14,
   2005): the vectors ``(coefficient times product of the values at positions
   1..k)`` over the words, one per assignment of bits 1..k, span a space of
   dimension at most the group's size; an echelon basis of it is carried from
   k to k + 1 through both values of bit k + 1.  The group is zero on every
   state exactly when each final basis vector sums to 0.

The sweep runs at one integer point q0 = B + 2, where B is the sum of the
absolute values of the group's coefficient digits over one common
denominator.  Each entry of the group's matrix is, times a power of q, an
integer polynomial whose coefficients are bounded by B, and Cauchy's bound
puts every root of a nonzero such polynomial below B + 1 in absolute value.
So an entry is zero at q0 exactly when it is zero in the Laurent ring, and the
decision is exact, with no randomness.

The witness is the smallest nonzero column over all groups.  Per group it is
found from the top position down, preferring bit 0: the suffix of fixed bits
gives one vector over the words, and some completion of the lower bits is
nonzero exactly when that vector pairs nonzero with one of the sweep's
basis vectors for the lower positions.  It equals what
``SparseMatrix.first_difference`` reports on the matrices.
"""

from __future__ import annotations

from math import lcm

from .sparsemat import RationalEchelon

__all__ = ["first_nonzero_state"]


def first_nonzero_state(compiled):
    """The smallest basis state whose column of sum(coeff * word) is
    nonzero, or None when the sum is the zero operator.

    compiled: [(rational coeff, _CompiledWord)], the words that keep at
    least one state, each coefficient's q-power in the word's exp0."""
    merged = {}
    for c, (require_set, require_clear, final_set, sign_mask, sign_odd, e, exp_masks) in compiled:
        terms = merged.setdefault((require_set, require_clear, final_set, sign_mask, exp_masks), {})
        s = terms.get(e, 0) + (-c if sign_odd else c)
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    groups = {}
    for key, terms in merged.items():
        if terms:
            groups.setdefault(key[0] ^ key[2], []).append((terms, key))
    firsts = [s for words in groups.values() if (s := _group_first(words)) is not None]
    return min(firsts, default=None)


def _group_first(words):
    """first_nonzero_state for merged words [(terms, key)] of one move mask."""
    if len(words) == 1:
        # a lone nonzero word is nonzero on each state it keeps, the
        # smallest being require_set with every free bit clear
        return words[0][1][0]
    den = lcm(*(c.denominator for terms, _ in words for c in terms.values()))
    q0 = 2 + int(sum(abs(c * den) for terms, _ in words for c in terms.values()))
    low = min(min(terms) for terms, _ in words)
    vector = {w: int(sum(c * den * q0 ** (e - low) for e, c in terms.items()))
              for w, (terms, _) in enumerate(words)}

    # (bit, [(value at 0, value at 1) per word]) for each position whose
    # values differ between words; the others scale every word alike
    relevant = 0
    for _, (require_set, require_clear, _, sign_mask, exp_masks) in words:
        relevant |= require_set | require_clear | sign_mask
        for _, mask in exp_masks:
            relevant |= mask
    positions = []
    uniform_ones = 0  # uniform positions whose value at bit 0 is zero
    bit = 1
    while bit <= relevant:
        if relevant & bit:
            values = [_values(key, bit) for _, key in words]
            if values.count(values[0]) < len(values):
                positions.append((bit, _integral(values, q0)))
            elif not values[0][0]:
                uniform_ones |= bit
        bit <<= 1

    # bases[i]: echelon basis of the prefix vectors over positions[:i]
    bases = [[vector]]
    for _, values in positions:
        echelon = RationalEchelon()
        for u in bases[-1]:
            for b in (0, 1):
                echelon.insert({w: x * f for w, x in u.items() if (f := values[w][b])})
        bases.append(list(echelon.pivots.values()))
    if not any(sum(u.values()) for u in bases[-1]):
        return None

    state = uniform_ones
    suffix = dict.fromkeys(range(len(words)), 1)
    for i in range(len(positions) - 1, -1, -1):
        bit, values = positions[i]
        low_suffix = {w: x * f for w, x in suffix.items() if (f := values[w][0])}
        if any(sum(x * u.get(w, 0) for w, x in low_suffix.items()) for u in bases[i]):
            suffix = low_suffix
        else:
            state |= bit
            suffix = {w: x * f for w, x in suffix.items() if (f := values[w][1])}
    return state


def _values(key, bit):
    """The word's (value at bit 0, value at bit 1) at one position, as
    (int, (sign, q-exponent)) pairs: the indicator of a touched position's
    required bit, or 1 and a signed power of q at an untouched one."""
    require_set, require_clear, _, sign_mask, exp_masks = key
    if require_set & bit:
        return (0, (1, 0))
    if require_clear & bit:
        return (1, (0, 0))
    weight = next((c for c, mask in exp_masks if mask & bit), 0)
    return (1, (-1 if sign_mask & bit else 1, weight))


def _integral(values, q0):
    """The position's values at q = q0 as ints, every word's scaled by the
    same power of q0 so that no exponent is negative."""
    lift = max(0, -min(e for _, (_, e) in values))
    top = q0 ** lift
    return [(v0 * top, sign * q0 ** (e + lift)) for v0, (sign, e) in values]
