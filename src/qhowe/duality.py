"""Partition combinatorics and the multiplicity-free grid decomposition.

Ties everything together: joint highest-weight vectors indexed by partitions
in the n x m box, Weyl dimension bookkeeping, cyclic lowering closures whose
exact ranks (at specialized q) certify the decomposition into
dim(mu) x dim(mu') blocks, and the dual Cauchy character identity as an
independent combinatorial shadow.  Each span closes under the larger family
of lowering operators directly in the joint echelon, its seeds taken in an
order of weights that keeps that closure clear of the earlier spans, and
the closure's record is replayed from the smaller family's closure.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

from . import report
from .embeddings import (
    _block_polynomial, _expand, _weight_polynomial, classical_lambda, classical_rho, lambda_q, rho_q,
)
from .fockspace import GridShape, check_enumerable, grid_to_linear, row_col_weights, state_to_string
from .sparsemat import RationalEchelon, _apply

__all__ = [
    "Partition",
    "SpecializationAnomaly",
    "partitions_in_box",
    "hwv_state",
    "verify_hwv",
    "weyl_dim",
    "dimension_identity",
    "cyclic_span_dims",
    "schur_poly",
    "dual_cauchy_check",
    "joint_kernel_count",
    "DEFAULT_SPEC_VALUES",
]

DEFAULT_SPEC_VALUES = (Fraction(2), Fraction(3))


class SpecializationAnomaly(Exception):
    """Span ranks disagreed across specialization values."""


class Partition(tuple):
    """A weakly decreasing tuple of positive parts (trailing zeros trimmed)."""

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def from_string(cls, text):
        text = text.strip()
        if not text or text in ("0", "-", "empty"):
            return cls()
        return cls(int(tok) for tok in text.split(","))

    @property
    def size(self):
        return sum(self)

    def part(self, i):
        """The i-th part (one-based), zero-padded."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def conjugate(self):
        if not self:
            return Partition()
        return Partition(sum(1 for p in self if p >= j) for j in range(1, self[0] + 1))

    def fits_in_box(self, n, m):
        return len(self) <= n and (not self or self[0] <= m)

    def __str__(self):
        return ",".join(str(p) for p in self) if self else "-"


def partitions_in_box(n, m):
    """All partitions with at most n parts each at most m, lexicographic."""
    if n < 1 or m < 1:
        raise ValueError("box must have positive sides")
    out = []

    def grow(prefix, maximum):
        out.append(Partition(prefix))
        if len(prefix) == n:
            return
        for p in range(1, maximum + 1):
            grow(prefix + [p], p)

    grow([], m)
    out.sort()
    assert len(out) == comb(n + m, n)
    return out


def hwv_state(mu, shape):
    """Occupancy word of the Young diagram of mu in the grid (row-major fill)."""
    shape = GridShape(*shape).check()
    mu = Partition(mu)
    if not mu.fits_in_box(shape.n, shape.m):
        raise ValueError(f"{mu} does not fit in a {shape.n}x{shape.m} box")
    bits = 0
    for i, row in enumerate(mu, start=1):
        for j in range(1, row + 1):
            bits |= 1 << (grid_to_linear(shape, i, j) - 1)
    return bits


def verify_hwv(mu, shape, flavor="quantum"):
    """Check annihilation by both positive actions and the torus weights.

    Quantum: lambda_q(E_i) v = rho_q(E_j) v = 0, K-weights
    q^(mu_i - mu_{i+1}) and q^(mu'_j - mu'_{j+1}).  Classical: same shape
    with lambda/rho and Lbar-eigenvalues mu_i and mu'_j.  Each condition is
    decided on the generator's compiled words applied to the one basis
    state (``_hwv_core``).  A failed check's witness is the smallest state
    where the image differs from the expected vector.
    """
    return _hwv_verifier(shape, flavor)(mu)


# The conditions verify_hwv checks, per flavor and in report order:
# (relation, action, kind, indices(n, m), eigenvalue(mu, mu', index) as its
# {q-exponent: coefficient} terms, or None for "kills hwv").
_HWV_CONDITIONS = {
    "quantum": (
        ("lambda_q(E) kills hwv", lambda_q, "E", lambda n, m: range(1, n), None),
        ("rho_q(E) kills hwv", rho_q, "E", lambda n, m: range(1, m), None),
        ("lambda_q(K) weight", lambda_q, "K", lambda n, m: range(1, n),
         lambda mu, conj, i: {mu.part(i) - mu.part(i + 1): 1}),
        ("rho_q(K) weight", rho_q, "K", lambda n, m: range(1, m),
         lambda mu, conj, j: {conj.part(j) - conj.part(j + 1): 1}),
        ("lambda_q(L) weight", lambda_q, "L", lambda n, m: range(1, n + 1),
         lambda mu, conj, i: {mu.part(i): 1}),
        ("rho_q(L) weight", rho_q, "L", lambda n, m: range(1, m + 1),
         lambda mu, conj, j: {conj.part(j): 1}),
    ),
    "classical": (
        ("lambda(E) kills hwv", classical_lambda, "E", lambda n, m: range(1, n), None),
        ("rho(E) kills hwv", classical_rho, "E", lambda n, m: range(1, m), None),
        ("lambda(Lbar) eigenvalue", classical_lambda, "L", lambda n, m: range(1, n + 1),
         lambda mu, conj, i: {0: mu.part(i)}),
        ("rho(Lbar) eigenvalue", classical_rho, "L", lambda n, m: range(1, m + 1),
         lambda mu, conj, j: {0: conj.part(j)}),
    ),
}


def _hwv_core(shape, flavor):
    """The hwv decision for one shape and flavor: (labels, firsts).

    Every condition of ``_HWV_CONDITIONS`` is built and compiled once.
    labels lists each one's (relation, index) in report order; firsts(mu,
    state), state mu's (``hwv_state``), returns per condition the smallest
    state where the generator's image of that state differs from the
    expected vector (zero, or the eigenvalue times the state), or None where
    they agree.  The image is read off the compiled words: a mask test drops
    each word that kills the state, and each kept word's image
    (``_CompiledWord.image``, its q-exponent holding the coefficient's
    q-power) adds its rational coefficient, signed, at its (row, q-exponent)
    of a small ``{(row, q-exponent): coefficient}`` sum; the eigenvalue's
    terms are subtracted at the state's own row.  No vector or scalar object
    is built per condition."""
    if flavor not in _HWV_CONDITIONS:
        raise ValueError(f"unknown flavor {flavor!r}")
    shape = GridShape(*shape).check()
    n, m = shape
    labels, conditions = [], []
    for relation, action, kind, indices, eigenvalue in _HWV_CONDITIONS[flavor]:
        for i in indices(n, m):
            words = [(cw.require_set | cw.require_clear, cw.require_set, cw, c)
                     for c, cw in action(n, m, kind, i)._compiled()]
            labels.append((relation, i))
            conditions.append((i, words, eigenvalue))

    def firsts(mu, state):
        conj = mu.conjugate()
        found = []
        for i, words, eigenvalue in conditions:
            diff = {}  # (row, q-exponent) -> coefficient of image minus want
            for touched, required, cw, c in words:
                if state & touched != required:
                    continue  # the word kills the state
                row, negative, qexp = cw.image(state)
                key = row, qexp
                diff[key] = diff.get(key, 0) + (-c if negative else c)
            if eigenvalue is not None:
                for e, c in eigenvalue(mu, conj, i).items():
                    key = state, e
                    diff[key] = diff.get(key, 0) - c
            rows = [row for (row, _), c in diff.items() if c]
            found.append(min(rows) if rows else None)
        return found

    return labels, firsts


def _hwv_verifier(shape, flavor):
    """verify_hwv for one shape and flavor as a function of mu: the records
    of ``_hwv_core``'s decisions, made on the compiled words of generators
    built once for every mu."""
    labels, firsts = _hwv_core(shape, flavor)
    length = GridShape(*shape).positions

    def verify(mu):
        mu = Partition(mu)
        state = hwv_state(mu, shape)
        found = firsts(mu, state)
        checks = [
            report.check(relation, first is None,
                         None if first is None else state_to_string(first, length),
                         indices=[i])
            for (relation, i), first in zip(labels, found)
        ]
        return report.finish(
            checks,
            mu=str(mu),
            mu_conj=str(mu.conjugate()),
            state=state_to_string(state, length),
            flavor=flavor,
        )

    return verify


def weyl_dim(mu, p):
    """Type-A Weyl dimension: prod_{i<j} (mu_i - mu_j + j - i) / (j - i)."""
    mu = Partition(mu)
    if len(mu) > p:
        raise ValueError(f"{mu} has more than {p} parts")
    num = den = 1
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            num *= mu.part(i) - mu.part(j) + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def dimension_identity(n, m):
    """The record of the per-degree Weyl-dimension sums against
    binomial(nm, k), so totalling 2^nm; a failed one names the first degree
    whose sum differs."""
    sums = [0] * (n * m + 1)
    for mu in partitions_in_box(n, m):
        sums[mu.size] += weyl_dim(mu, n) * weyl_dim(mu.conjugate(), m)
    witness = _degree_profile(sums)[1]
    return report.check("sum of dim(mu) dim(mu') by degree = binomial(nm, k)", witness is None,
                        witness, total=sum(sums))


def _degree_profile(sums):
    """(rows, witness): each degree k's sum against binomial(N, k), N the
    top degree, and the first degree whose sum differs (None: every one
    matches)."""
    top = len(sums) - 1
    rows = [{"degree": k, "sum": s, "binomial": comb(top, k)} for k, s in enumerate(sums)]
    witness = next((f"degree {row['degree']}: sum {row['sum']}, binomial {row['binomial']}"
                    for row in rows if row["sum"] != row["binomial"]), None)
    return rows, witness


def _generators(n, m, kind):
    """The kind ("E" or "F") generators of lambda_q and of rho_q, as two
    lists of Clifford word expressions."""
    return ([lambda_q(n, m, kind, i) for i in range(1, n)],
            [rho_q(n, m, kind, j) for j in range(1, m)])


def _integer_ops(exprs, value):
    """Word expressions at q = value as integer operators in move form
    (``OperatorExpr.specialize_ints``).  Each is the specialized operator
    times its own nonzero constant, which changes no span or rank."""
    return [expr.specialize_ints(value)[0] for expr in exprs]


def _commuting_pairs(family):
    """The pairs (k, j), k < j, of one family's word expressions that
    commute, decided on the words as ``_noncommuting_pair`` decides the
    pairs across families: the table of ``RationalEchelon.close``'s
    ordered-word rule, valid at every specialization value."""
    return {(k, j) for j, b in enumerate(family) for k, a in enumerate(family[:j])
            if a.first_noncommuting(b) is None}


def _noncommuting_pair(rows, cols):
    """(i, j) for the first lambda_q F_i and rho_q F_j, given as word
    expressions, that do not commute, or None when every pair does.  The word
    identity is exact in q, so it holds at every specialization value."""
    for i, row in enumerate(rows, start=1):
        for j, col in enumerate(cols, start=1):
            if row.first_noncommuting(col) is not None:
                return i, j
    return None


def _graded(shape, rows, cols):
    """Whether every word of each lambda_q F_i moves one particle from row i
    to row i + 1 in one column, and every word of each rho_q F_j moves one
    from column j to column j + 1 in one row, decided on the compiled words:
    each requires exactly its source bit set and its target bit clear, and
    leaves exactly the target set.  Then rho_q keeps every state's row
    weight and lambda_q its column weight, and each F of the other family
    lowers that weight in dominance order, the premise of the seed order
    (``_seed_order``)."""
    n, m = shape

    def bit(i, j):
        return 1 << (grid_to_linear(shape, i, j) - 1)

    def moves(expr, steps):
        allowed = {(bit(*source), bit(*target)) for source, target in steps}
        return all((cw.require_set, cw.require_clear) in allowed
                   and cw.final_set == cw.require_clear for _, cw in expr._compiled())

    return (all(moves(expr, [((i, j), (i + 1, j)) for j in range(1, m + 1)])
                for i, expr in enumerate(rows, start=1))
            and all(moves(expr, [((i, j), (i, j + 1)) for i in range(1, n + 1)])
                    for j, expr in enumerate(cols, start=1)))


def _seed_order(shape, states):
    """The indices of states in increasing lexicographic order of the weight
    that the larger family fixes (the row weight when m >= n, as rho_q is
    the larger family, else the column weight), or None when two states
    share that weight."""
    fixed = 0 if shape.m >= shape.n else 1
    weights = [row_col_weights(shape, state)[fixed] for state in states]
    if len(set(weights)) < len(weights):
        return None
    return sorted(range(len(states)), key=weights.__getitem__)


def _value_ranks(shape, states, lowering, commute, commuting, value, order):
    """(span dimension per highest-weight state, joint rank) at q = value.

    lowering: the lambda_q F_i then the rho_q F_j as word expressions;
    commute: whether every lambda_q F_i commutes with every rho_q F_j;
    commuting: the two families' tables of commuting pairs
    (``_commuting_pairs``), which both closures of each state take; order:
    the indices of states in the order of ``_seed_order``, or None when a
    premise of the joint closure fails.  With an order, each highest-weight
    state v is closed under the smaller family in a scratch echelon, which
    gives B, whose first pivot is v, and under the larger family directly in
    the joint echelon J, which gives A's pivots and its creation record;
    the record is replayed from the other pivots of B
    (``RationalEchelon.replay``).  When the two add dim A * dim B pivots,
    with dim A the pivots of A's closure, that is the span's dimension, by
    the weight argument in ``cyclic_span_dims``.  Any other span, and every
    span without an order, takes ``_second_phase``.  The integer operators
    and echelons live only for this call, so one value's are freed before
    the next value's are built."""
    n, m = shape
    ops = _integer_ops(lowering, value)
    families = [(ops[:n - 1], commuting[0]), (ops[n - 1:], commuting[1])]
    (smaller, smaller_pairs), (larger, larger_pairs) = families if m >= n else families[::-1]
    joint = RationalEchelon()
    dims = [None] * len(states)
    for index in range(len(states)) if order is None else order:
        seed = {states[index]: 1}
        closure = RationalEchelon()
        closure.close([closure.insert(seed)], smaller, smaller_pairs)
        # None when v already lies in J, which the premises rule out for the
        # operators of the words they were decided on
        pivot = None if order is None else joint.insert(seed)
        if pivot is not None:
            tree = joint.close([pivot], larger, larger_pairs)
            closed = len(tree) + 1  # v's pivot and one per record entry
            others = list(closure.pivots.values())[1:]
            if closed + joint.replay(others, tree, larger) == closed * closure.rank:
                dims[index] = closed * closure.rank
                continue
        dims[index] = _second_phase(joint, closure, larger if commute else ops)
    return dims, joint.rank


def _second_phase(joint, closure, ops):
    """Close every pivot of closure under ops, insert the closure's pivots
    into joint and return its rank."""
    closure.close(list(closure.pivots.values()), ops)
    for vec in closure.pivots.values():
        joint.insert(vec)
    return closure.rank


def cyclic_span_dims(n, m, spec_values=DEFAULT_SPEC_VALUES):
    """Certify the decomposition by exact rank computation at specialized q.

    For each partition in the box, closes its highest-weight state v under
    all lowering operators of both actions (coefficients specialized at each
    value, integer operators built from the Clifford words), measures the span
    by exact integer-preserving Gaussian elimination, and checks the
    dimensions against Weyl products, their sum against 2^(nm), and the
    joint span against the full space.  The report holds two records per
    partition, each with its mu: the span against its Weyl product and the
    joint highest-weight conditions (``_hwv_core``), whose witness is the
    first state where one fails; then one each for the degree profile, the
    total and the joint rank.

    Each span is built from two closures of v, one per family of lowering
    operators.  The commutation of every lambda_q F_i with every rho_q F_j
    is decided once per shape, on the word expressions that the integer
    operators are built from: the word identity is exact in q, and each
    integer operator is its specialization times a nonzero constant, so the
    integer operators commute too.  When they do, v is closed under the
    family with fewer generators (the lambda_q F_i when m >= n, else the
    rho_q F_j) in a scratch echelon, which gives B with pivots b_l, b_0 = v,
    and under the other family directly in the joint echelon J, a sum of
    earlier spans, which gives A and a breadth-first record whose words w_k
    (the empty word first) applied to v span A modulo J
    (``RationalEchelon.close``).  For a word a in the row F's and b in the
    column F's, rho_q(F_j) a b v = a rho_q(F_j) b v, so the joint span is
    S = U-(gl_n) U-(gl_m) v (the factorization of Howe duality), and when
    the w_k v are a basis of A, the vectors w_k b_l span it:
    dim S <= dim A * dim B.  J is closed under every operator, so the
    closure and the replay of the words from every b_l but b_0 into J add
    at most dim S pivots; when they add dim A * dim B, that is dim S, and
    J + S is the new joint span.

    The w_k v are a basis of A when A meets J only in 0, so that the
    closure adds dim A pivots; that follows from weights.  Two premises are
    decided once per shape: every word of each F moves one particle, a
    lambda_q F_i from row i to row i + 1 in one column and a rho_q F_j from
    column j to column j + 1 in one row (``_graded``), and the seeds'
    weights below are distinct.  Then A lies in the one weight that the
    larger family fixes, the row weight of v when m >= n (the rho_q F_j
    keep each row's count) and its column weight otherwise.  The other
    family lowers that weight in dominance order, so an earlier span only
    reaches weights that its own seed's weight dominates.  Lexicographic
    order extends dominance, so seeds taken in increasing lexicographic
    order of that weight (``_seed_order``) leave no earlier span at A's
    weight, and A meets J in 0.  When a premise fails, and for any other
    count, the span falls back to the second phase of the two-phase
    closure: every pivot of B is closed under the other family and
    inserted into J, which gives S again.  When some pair does not commute,
    every span takes that second phase, under every operator, which gives
    the joint closure.  Within each family, F_k F_j = F_j F_k when
    |k - j| >= 2; the pairs that commute are decided once per shape on the
    words too (``_commuting_pairs``), and both closures of v take them
    (``RationalEchelon.close``'s ordered-word rule), so a pivot made by an
    operator is not given an earlier one that commutes with it.

    Ranks are computed over the integers: each specialized operator is
    scaled by one nonzero constant of its own to integer entries, which
    changes no span.  Disagreement between specialization values raises
    :class:`SpecializationAnomaly`.  The closures visit all 2^(nm) basis
    states, so they stop at ``fockspace.check_enumerable``'s wall.
    """
    shape = GridShape(n, m).check()
    check_enumerable(shape.positions)
    spec_values = tuple(Fraction(v) for v in spec_values)
    if not spec_values:
        raise ValueError("need at least one specialization value")
    for v in spec_values:
        if v == 0 or v == 1 or v == -1:
            raise ValueError(f"specialization value {v} is degenerate")

    partitions = partitions_in_box(n, m)
    weyl = [(weyl_dim(mu, n), weyl_dim(mu.conjugate(), m)) for mu in partitions]
    expected = [dim_n * dim_m for dim_n, dim_m in weyl]
    rows, cols = _generators(n, m, "F")
    commute = _noncommuting_pair(rows, cols) is None
    commuting = _commuting_pairs(rows), _commuting_pairs(cols)
    states = [hwv_state(mu, shape) for mu in partitions]
    order = _seed_order(shape, states) if commute and _graded(shape, rows, cols) else None
    per_value = []
    for value in spec_values:
        dims, joint_rank = _value_ranks(shape, states, rows + cols, commute, commuting, value,
                                        order)
        per_value.append({"value": value, "dims": dims, "joint_rank": joint_rank})

    base = per_value[0]
    for other in per_value[1:]:
        if other["dims"] != base["dims"] or other["joint_rank"] != base["joint_rank"]:
            raise SpecializationAnomaly(
                f"span ranks differ between q={base['value']} and q={other['value']}: "
                f"{base['dims']} vs {other['dims']}"
            )

    total_dim = 1 << shape.positions
    rows, checks = [], []
    degree_sums = [0] * (shape.positions + 1)
    _, hwv_firsts = _hwv_core(shape, "quantum")
    for mu, state, (dim_n, dim_m), want, measured in zip(partitions, states, weyl, expected,
                                                        base["dims"]):
        first = next((f for f in hwv_firsts(mu, state) if f is not None), None)
        degree_sums[mu.size] += measured
        rows.append({"mu": str(mu), "mu_conj": str(mu.conjugate()), "dim_n": dim_n,
                     "dim_m": dim_m, "span_dim": measured,
                     "hwv_state": state_to_string(state, shape.positions)})
        checks += [
            report.check("span = Weyl product", measured == want,
                         f"span {measured}, Weyl product {want}", mu=str(mu)),
            report.check("hwv", first is None,
                         None if first is None else state_to_string(first, shape.positions),
                         mu=str(mu)),
        ]
    degree_profile, degree_witness = _degree_profile(degree_sums)
    total, joint_rank = sum(base["dims"]), base["joint_rank"]
    checks += [
        report.check("degree profile = binomial(nm, k)", degree_witness is None, degree_witness),
        report.check("total = 2^nm", total == total_dim, total),
        report.check("joint rank = 2^nm", joint_rank == total_dim, joint_rank),
    ]
    return report.finish(checks, n=n, m=m, spec_values=[str(v) for v in spec_values],
                         partitions=rows, total=total, space_dim=total_dim,
                         joint_rank=joint_rank, degree_profile=degree_profile)


# -- characters -----------------------------------------------------------------


def schur_poly(mu, p):
    """The Schur polynomial s_mu(x_1..x_p) as a Counter {exponents:
    coefficient}, by the branching rule s_mu(x_1..x_p) = sum of
    s_nu(x_1..x_{p-1}) x_p^(|mu| - |nu|) over the nu with mu/nu a horizontal
    strip, mu_1 >= nu_1 >= mu_2 >= nu_2 >= ... (Macdonald, Symmetric
    Functions, I.5).  Each (nu, number of variables) is expanded once per
    call; no tableau is listed.  Zero when mu has more than p parts."""
    return _branch(tuple(Partition(mu)), p, {})


def _branch(mu, p, memo):
    """schur_poly of the trimmed tuple mu, memoized in memo by (mu, p)."""
    if len(mu) > p:
        return Counter()
    if p == 0:
        return Counter({(): 1})
    if (mu, p) not in memo:
        out = Counter()
        lows = mu[1:] + (0,)
        for nu in product(*(range(low, high + 1) for low, high in zip(lows, mu))):
            k = sum(mu) - sum(nu)
            while nu and not nu[-1]:
                nu = nu[:-1]
            for e, c in _branch(nu, p - 1, memo).items():
                out[e + (k,)] += c
        memo[mu, p] = out
    return memo[mu, p]


def _state_weights(n, m):
    """The joint weight generating function of the grid's basis states: the
    Counter whose coefficient at rows + cols counts the states with those row
    and column weights.  Read off the lambda_q L_i and rho_q L_j torus words
    (``_weight_polynomial``), so it checks the operators, with no state
    listed."""
    torus = ([lambda_q(n, m, "L", i) for i in range(1, n + 1)]
             + [rho_q(n, m, "L", j) for j in range(1, m + 1)])
    zeros, polys = _weight_polynomial(torus, n * m, 1)
    weights = _block_polynomial(polys, set(range(n + m)))
    return Counter({e: c << zeros for e, c in weights.items()})


def _schur_sum(n, m):
    """sum over the box of s_mu(a_1..a_n) s_mu'(b_1..b_m), as a Counter."""
    out = Counter()
    for mu in partitions_in_box(n, m):
        right = schur_poly(mu.conjugate(), m)
        for e, c in schur_poly(mu, n).items():
            for f, d in right.items():
                out[e + f] += c * d
    return out


def _cauchy_record(relation, product_side, other, label):
    """The record of the identity product_side == other; a failed one names
    the smallest exponent tuple where the coefficients differ, and both.  No
    side holds a zero coefficient, so the identity holds exactly when the two
    term sets are equal."""
    if product_side.items() == other.items():
        return report.check(relation, True)
    key = min(k for k in product_side.keys() | other.keys() if product_side[k] != other[k])
    return report.check(relation, False, f"exponents {list(key)}: product {product_side[key]}, "
                                         f"{label} {other[key]}")


def dual_cauchy_check(n, m):
    """The three-way character identity on n + m variables.

    prod (1 + a_i b_j), expanded by ``_expand``, equals both the
    conjugate-paired Schur sum over the box and the joint weight generating
    function of the basis states, read off the torus words
    (``_state_weights``).  Each side is a Counter of up to 2^nm monomials, so
    the check stops at ``fockspace.check_enumerable``'s wall; the sides are
    built and compared one at a time.  The report holds one record per
    identity; a failed one names its smallest differing exponent tuple and
    both coefficients.
    """
    check_enumerable(n * m)
    nv = n + m
    units = [tuple(int(k in (i, n + j)) for k in range(nv)) for i in range(n) for j in range(m)]
    product_side = _expand((0,) * nv, units)
    checks = [
        _cauchy_record("prod (1 + a_i b_j) = sum s_mu(a) s_mu'(b)",
                       product_side, _schur_sum(n, m), "Schur sum"),
        _cauchy_record("prod (1 + a_i b_j) = state weight count",
                       product_side, _state_weights(n, m), "states"),
    ]
    return report.finish(checks, n=n, m=m, monomials=len(product_side))


def joint_kernel_count(n, m, value=Fraction(2)):
    """Joint kernel dimension of all raising operators at specialized q.

    Works weight space by weight space (states bucketed by joint row/column
    degrees) and adds up kernel dimensions; multiplicity-freeness predicts
    binomial(n + m, n).  Each stacked operator is scaled by its own nonzero
    constant to integer entries, which keeps the joint kernel.
    """
    shape = GridShape(n, m).check()
    rows, cols = _generators(n, m, "E")
    ops = _integer_ops(rows + cols, Fraction(value))

    buckets = {}
    for bits in range(1 << shape.positions):
        rows, cols = row_col_weights(shape, bits)
        buckets.setdefault(rows + cols, []).append(bits)

    total = 0
    for states in buckets.values():
        echelon = RationalEchelon()
        for s in states:
            echelon.insert({(t, r): v for t, op in enumerate(ops)
                            for r, v in _apply(op, {s: 1}).items()})
        total += len(states) - echelon.rank
    return total
