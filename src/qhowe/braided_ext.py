"""The braided exterior algebra on n generators.

Generators v_1, ..., v_n with relations v_i^2 = 0 and v_i v_j = -q v_j v_i
for i < j.  Ordered products over increasing indices form the occupancy-word
basis, so an element is a sparse vector ``{state: QLaurent}`` without zero
entries, the form ``OperatorExpr.apply`` takes and returns.  This module
supplies word normalization, the algebra product, the quantized inner and
exterior multiplication operators, and the coproduct-driven module-algebra
action used to cross-check the Clifford realization.
"""

from __future__ import annotations

from . import report
from .fockspace import check_enumerable, state_to_string
from .qclifford import OMEGA, OMEGA_INV, PSI, PSI_DAG, CliffordGen, OperatorExpr
from .qscalar import QLaurent

__all__ = [
    "normalize",
    "mul",
    "state_letters",
    "iota_q",
    "eps_q",
    "apply_iota_q",
    "apply_eps_q",
    "module_algebra_action",
    "check_module_algebra",
]


def normalize(letters, n):
    """Normalize a generator word to (scalar, occupancy word), or None.

    Repeated letters give zero (None).  Sorting into increasing order costs
    one factor of -q^{-1} per inversion removed: v_j v_i = -q^{-1} v_i v_j
    for i < j.  A stable insertion count keeps the scalar deterministic.
    """
    bits = 0
    inversions = 0
    seen = []
    for letter in letters:
        if not 1 <= letter <= n:
            raise ValueError(f"generator index {letter} outside 1..{n}")
        bit = 1 << (letter - 1)
        if bits & bit:
            return None
        # letters already placed that are strictly larger must be hopped over
        inversions += sum(1 for prev in seen if prev > letter)
        seen.append(letter)
        bits |= bit
    coeff = QLaurent.q_power(-inversions, 1 if inversions % 2 == 0 else -1)
    return coeff, bits


def state_letters(bits):
    """The increasing generator word of an occupancy state."""
    letters = []
    k = 1
    while bits:
        if bits & 1:
            letters.append(k)
        bits >>= 1
        k += 1
    return tuple(letters)


def mul(a, b, n):
    """Algebra product of two elements of the rank-n algebra: bilinear
    extension of concatenate-then-normalize."""
    out = {}
    for sa, ca in a.items():
        letters_a = state_letters(sa)
        for sb, cb in b.items():
            norm = normalize(letters_a + state_letters(sb), n)
            if norm is None:
                continue
            scalar, state = norm
            value = ca * cb * scalar
            prev = out.get(state)
            out[state] = value if prev is None else prev + value
    return {s: v for s, v in out.items() if v}


def iota_q(i, n):
    """Quantized inner multiplication by v_i^* as a Clifford word.

    Acts by (-q)^(occupied before i) after vacating position i; as a word it
    is w_1^{-1} ... w_{i-1}^{-1} psi_i.
    """
    if not 1 <= i <= n:
        raise ValueError(f"index {i} outside 1..{n}")
    word = [CliffordGen(OMEGA_INV, k) for k in range(1, i)]
    word.append(CliffordGen(PSI, i))
    return OperatorExpr.word(n, word)


def eps_q(i, n):
    """Quantized exterior multiplication by v_i as a Clifford word.

    Acts by (-q^{-1})^(occupied before i) after occupying position i; as a
    word it is w_1 ... w_{i-1} psid_i.
    """
    if not 1 <= i <= n:
        raise ValueError(f"index {i} outside 1..{n}")
    word = [CliffordGen(OMEGA, k) for k in range(1, i)]
    word.append(CliffordGen(PSI_DAG, i))
    return OperatorExpr.word(n, word)


def apply_iota_q(i, vec):
    """Direct evaluation of the quantized inner multiplication."""
    bit = 1 << (i - 1)
    entries = {}
    for state, coeff in vec.items():
        if not state & bit:
            continue
        p = (state & (bit - 1)).bit_count()
        scalar = QLaurent.q_power(p, 1 if p % 2 == 0 else -1)
        entries[state ^ bit] = coeff * scalar
    return entries


def apply_eps_q(i, vec):
    """Direct evaluation of the quantized exterior multiplication."""
    bit = 1 << (i - 1)
    entries = {}
    for state, coeff in vec.items():
        if state & bit:
            continue
        p = (state & (bit - 1)).bit_count()
        scalar = QLaurent.q_power(-p, 1 if p % 2 == 0 else -1)
        entries[state | bit] = coeff * scalar
    return entries


# Natural-module data for a single tensor factor: images of E_i, F_i, and the
# eigen-exponents of K_i and L_i on v_j.


def _k_exponent(i, j):
    # K_i v_j = q^(<alpha_i, eps_j>) v_j
    return (1 if j == i else 0) - (1 if j == i + 1 else 0)


def module_algebra_action(kind, index, vec, n):
    """Act on the algebra through the iterated coproduct.

    Expands each basis state as the ordered product of its occupied
    generators, distributes the (d-1)-fold coproduct of the generator with
    the natural action on each factor, and renormalizes the products.  The
    empty product transforms by the counit: 1 for L, 0 for E and F.

    kind is one of "E", "F", "L", "Linv"; the coproduct conventions are
    Delta(E) = E (x) K + 1 (x) E and Delta(F) = F (x) 1 + K^{-1} (x) F,
    with L group-like.  Raises ValueError for a state outside the 2^n of
    the algebra.
    """
    if kind in ("E", "F"):
        if not 1 <= index <= n - 1:
            raise ValueError(f"index {index} outside 1..{n - 1}")
    elif kind in ("L", "Linv"):
        if not 1 <= index <= n:
            raise ValueError(f"index {index} outside 1..{n}")
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    limit = 1 << n
    for state in vec:
        if not 0 <= state < limit:
            raise ValueError(f"state {state} does not fit in {n} positions")

    i = index
    out = {}

    def accumulate(state, value):
        prev = out.get(state)
        out[state] = value if prev is None else prev + value

    for state, coeff in vec.items():
        letters = state_letters(state)
        if kind == "L" or kind == "Linv":
            e = sum(1 for j in letters if j == i)
            accumulate(state, coeff.shift(e if kind == "L" else -e))
            continue
        if not letters:
            continue  # counit kills E and F
        for t, j in enumerate(letters):
            if kind == "E":
                if j != i + 1:
                    continue
                # right factors carry K_i
                kexp = sum(_k_exponent(i, u) for u in letters[t + 1:])
                new_word = letters[:t] + (i,) + letters[t + 1:]
            else:
                if j != i:
                    continue
                # left factors carry K_i^{-1}
                kexp = -sum(_k_exponent(i, u) for u in letters[:t])
                new_word = letters[:t] + (i + 1,) + letters[t + 1:]
            norm = normalize(new_word, n)
            if norm is None:
                continue
            scalar, new_state = norm
            accumulate(new_state, coeff * scalar.shift(kexp))
    return {s: v for s, v in out.items() if v}


def check_module_algebra(n):
    """Coproduct action vs Clifford realization on every basis state.

    The coproduct-driven action and the generator words must agree entrywise
    for every generator of the rank-n group, on each of the 2^n basis states
    (so n stops at ``fockspace.check_enumerable``'s wall).
    """
    from .embeddings import phi_q

    check_enumerable(n)
    one = QLaurent.one()
    checks = []
    kinds = [("E", range(1, n)), ("F", range(1, n)), ("L", range(1, n + 1)),
             ("Linv", range(1, n + 1))]
    for kind, rng in kinds:
        for i in rng:
            op = phi_q(n, kind, i)
            witness = None
            for state in range(1 << n):
                v = {state: one}
                if module_algebra_action(kind, i, v, n) != op.apply(v):
                    witness = state_to_string(state, n)
                    break
            checks.append(report.check("coproduct action = Clifford action", witness is None,
                                       witness, generator=f"{kind}{i}"))
    return report.finish(checks, rank=n)
