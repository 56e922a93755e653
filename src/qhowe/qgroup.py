"""Type-A quantum group presentations, representations, relation checks.

A :class:`Representation` assigns operators, ``SparseMatrix`` values or
Clifford ``OperatorExpr`` words, to the generators E_i, F_i (i < p) and
L_i, L_i^{-1} (i <= p) of the rank-p general linear quantum group, and holds
the identity operator (the identity matrix unless given); K_i is always
L_i L_{i+1}^{-1}.  ``check_relations`` and ``check_serre`` verify the full
defining relation set as exact identities, with a witness basis state on
failure.  Each relation is one ``report.match`` or ``report.commute`` call,
the torus conjugations as shifted commutations D X = q^a X D, so the checks
use only ``*``, ``+``, ``-``, ``scale`` (zero is ``identity.scale(0)``),
``first_difference`` and ``first_noncommuting``, which both types provide.
Both also ``apply`` to the same sparse vector ``{state: QLaurent}``.
"""

from __future__ import annotations

from typing import NamedTuple

from . import report
from .qscalar import QLaurent
from .sparsemat import SparseMatrix

__all__ = [
    "QGroupGen",
    "generator_keys",
    "Representation",
    "natural_rep",
    "coproduct_rep",
    "check_relations",
    "check_serre",
    "DELTA",
    "DELTA_TILDE",
]

DELTA = "delta"
DELTA_TILDE = "delta-tilde"


class QGroupGen(NamedTuple):
    """A generator symbol: kind in {E, F, K, Kinv, L, Linv}, one-based index."""

    kind: str
    index: int

    def __str__(self):
        suffix = {"K": "K", "Kinv": "K", "L": "L", "Linv": "L", "E": "E", "F": "F"}[self.kind]
        inv = "^-1" if self.kind in ("Kinv", "Linv") else ""
        return f"{suffix}{self.index}{inv}"


def generator_keys(rank):
    """The (kind, index) keys a rank-p Representation assigns: E_i, F_i
    pairs (i < p), then L_i, L_i^{-1} (i <= p)."""
    roots = [(kind, i) for i in range(1, rank) for kind in ("E", "F")]
    return roots + [(kind, i) for i in range(1, rank + 1) for kind in ("L", "Linv")]


def _cartan_entry(i, j):
    return 2 if i == j else -1 if abs(i - j) == 1 else 0


class Representation:
    """Generator-to-operator assignment for a rank-p quantum group action."""

    def __init__(self, rank, dim, mats, state_label=None, identity=None):
        self.rank = rank
        self.dim = dim
        self.mats = mats
        self.identity = SparseMatrix.identity(dim) if identity is None else identity
        self._kcache = {}
        self._state_label = state_label or (lambda s: f"v{s + 1}")
        for kind, i in generator_keys(rank):
            if (kind, i) not in mats:
                raise ValueError(f"missing generator {kind}_{i}")

    def gen(self, kind, index):
        if kind in ("K", "Kinv"):
            return self.K(index) if kind == "K" else self.Kinv(index)
        return self.mats[(kind, index)]

    def E(self, i):
        return self.mats[("E", i)]

    def F(self, i):
        return self.mats[("F", i)]

    def L(self, i):
        return self.mats[("L", i)]

    def Linv(self, i):
        return self.mats[("Linv", i)]

    def K(self, i):
        if ("K", i) not in self._kcache:
            self._kcache[("K", i)] = self.L(i) * self.Linv(i + 1)
        return self._kcache[("K", i)]

    def Kinv(self, i):
        if ("Kinv", i) not in self._kcache:
            self._kcache[("Kinv", i)] = self.Linv(i) * self.L(i + 1)
        return self._kcache[("Kinv", i)]

    def label(self, state):
        return self._state_label(state)

    def generator_items(self):
        """All assigned generators as (QGroupGen, operator) pairs."""
        return [(QGroupGen(*key), self.mats[key]) for key in generator_keys(self.rank)]


def natural_rep(p):
    """The p-dimensional natural module: E_i v_{i+1} = v_i, F_i v_i = v_{i+1},
    L_i v_j = q^(delta_ij) v_j."""
    if p < 1:
        raise ValueError("rank must be at least 1")
    one = QLaurent.one()
    mats = {}
    for i in range(1, p):
        # columns indexed by source basis vector (0-based)
        mats[("E", i)] = SparseMatrix(p, {i: {i - 1: one}})
        mats[("F", i)] = SparseMatrix(p, {i - 1: {i: one}})
    for i in range(1, p + 1):
        diag = [QLaurent.q_power(1 if j == i - 1 else 0) for j in range(p)]
        mats[("L", i)] = SparseMatrix.diagonal(diag)
        diag_inv = [QLaurent.q_power(-1 if j == i - 1 else 0) for j in range(p)]
        mats[("Linv", i)] = SparseMatrix.diagonal(diag_inv)
    return Representation(p, p, mats)


def _pair_rep(a, b, convention):
    """Tensor product of two representations under one comultiplication."""
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    p = a.rank
    dim = a.dim * b.dim
    id_a = SparseMatrix.identity(a.dim)
    id_b = SparseMatrix.identity(b.dim)
    mats = {}
    for i in range(1, p):
        if convention == DELTA:
            e = a.E(i).kron(b.K(i)) + id_a.kron(b.E(i))
            f = a.F(i).kron(id_b) + a.Kinv(i).kron(b.F(i))
        elif convention == DELTA_TILDE:
            e = a.E(i).kron(id_b) + a.K(i).kron(b.E(i))
            f = a.F(i).kron(b.Kinv(i)) + id_a.kron(b.F(i))
        else:
            raise ValueError(f"unknown comultiplication {convention!r}")
        mats[("E", i)] = e
        mats[("F", i)] = f
    for i in range(1, p + 1):
        mats[("L", i)] = a.L(i).kron(b.L(i))
        mats[("Linv", i)] = a.Linv(i).kron(b.Linv(i))

    def label(state, da=a, db=b):
        return f"{da.label(state // db.dim)}(x){db.label(state % db.dim)}"

    return Representation(p, dim, mats, state_label=label)


def coproduct_rep(factors, convention=DELTA):
    """Tensor-product representation, iterated leftmost-first for 3+ factors."""
    if not factors:
        raise ValueError("need at least one factor")
    rep = factors[0]
    for nxt in factors[1:]:
        rep = _pair_rep(rep, nxt, convention)
    return rep


# -- relation verification ----------------------------------------------------


def check_relations(rep):
    """Verify the non-Serre defining relations as exact operator identities.

    Covers torus commutativity and invertibility, the K- and L-conjugation
    of E and F, and [E_i, F_j] = delta_ij (K_i - K_i^{-1}) / (q - q^{-1}).
    Each relation is one ``report.match`` or ``report.commute`` call on the
    generators.  Given L L^{-1} = 1 and the commuting L's, K_i K_i^{-1} = 1,
    so a conjugation D X D^{-1} = q^a X is decided as the shifted
    commutation D X = q^a X D, and [E_i, F_i] as the multiplied-out identity
    (q - q^{-1}) [E_i, F_i] = K_i - K_i^{-1}; nothing is divided.  On
    Clifford words a torus word touches no position, so every conjugation
    and torus commutation, and most [E_i, F_j] = 0, are settled without
    composing a product (``OperatorExpr.first_noncommuting``).
    """
    p = rep.rank
    checks = []
    q_minus_qinv = QLaurent.q_power(1) - QLaurent.q_power(-1)
    label = rep.label

    for i in range(1, p + 1):
        checks.append(report.match("L L^-1 = 1", rep.L(i) * rep.Linv(i), rep.identity, label,
                                   indices=[i]))
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            checks.append(report.commute("L commute", rep.L(i), rep.L(j), label, indices=[i, j]))
    for i in range(1, p):
        for j in range(i + 1, p):
            checks.append(report.commute("K commute", rep.K(i), rep.K(j), label, indices=[i, j]))

    for i in range(1, p):
        for j in range(1, p):
            a = _cartan_entry(i, j)
            checks.append(report.commute("K E K^-1 = q^a E", rep.K(i), rep.E(j), label, shift=a,
                                         indices=[i, j]))
            checks.append(report.commute("K F K^-1 = q^-a F", rep.K(i), rep.F(j), label, shift=-a,
                                         indices=[i, j]))

    # L-conjugation exponent is <eps_i, alpha_j> = delta_ij - delta_{i,j+1}
    for i in range(1, p + 1):
        for j in range(1, p):
            e = (1 if i == j else 0) - (1 if i == j + 1 else 0)
            checks.append(report.commute("L E L^-1 = q^<eps,alpha> E", rep.L(i), rep.E(j),
                                         label, shift=e, indices=[i, j]))
            checks.append(report.commute("L F L^-1 = q^-<eps,alpha> F", rep.L(i), rep.F(j),
                                         label, shift=-e, indices=[i, j]))

    for i in range(1, p):
        for j in range(1, p):
            if i != j:
                checks.append(report.commute("[E,F] = 0", rep.E(i), rep.F(j), label,
                                             indices=[i, j]))
                continue
            lhs = (rep.E(i) * rep.F(i) - rep.F(i) * rep.E(i)).scale(q_minus_qinv)
            checks.append(report.match("[E,F] = (K-K^-1)/(q-q^-1)", lhs,
                                       rep.K(i) - rep.Kinv(i), label, indices=[i, j]))

    return report.finish(checks)


def _adjacent_products(x):
    """{(i, j): x[i] * x[j]} for the generators x[1:] and each |i - j| = 1,
    every product composed once."""
    return {(i, j): x[i] * x[j]
            for i in range(1, len(x)) for j in (i - 1, i + 1) if 0 < j < len(x)}


def check_serre(rep):
    """Verify the q-Serre relations in both displayed forms.

    For |i-j| > 1 the generators commute; for |i-j| = 1 both the q-binomial
    sum X_i^2 X_j - [2]_q X_i X_j X_i + X_j X_i^2 and the nested form
    [X_i, [X_i, X_j]_q]_{q^-1} must vanish, X in {E, F}.

    Each pair product X_i X_j is composed once per kind, and for each (i, j)
    the four triple products a = X_i (X_i X_j), b = X_i (X_j X_i),
    c = (X_i X_j) X_i and d = (X_j X_i) X_i once.  The q-binomial form is
    a - [2]_q b + d and the nested form, multiplied out, a - q b - q^-1 c + d.
    """
    p = rep.rank
    checks = []
    zero = rep.identity.scale(0)
    q1, qm1 = QLaurent.q_power(1), QLaurent.q_power(-1)
    two_q = q1 + qm1  # [2]_q

    for kind in ("E", "F"):
        x = [None] + [rep.gen(kind, i) for i in range(1, p)]
        near = _adjacent_products(x)
        for i in range(1, p):
            for j in range(1, p):
                if i == j:
                    continue
                if abs(i - j) > 1:
                    if i < j:
                        checks.append(report.commute(f"[{kind},{kind}] = 0 (far)", x[i], x[j],
                                                     rep.label, indices=[i, j]))
                    continue
                xixj, xjxi = near[i, j], near[j, i]
                a, b = x[i] * xixj, x[i] * xjxi
                c, d = xixj * x[i], xjxi * x[i]
                checks.append(report.match(f"{kind}-Serre (q-binomial form)",
                                           a - b.scale(two_q) + d, zero, rep.label,
                                           indices=[i, j]))
                checks.append(report.match(f"{kind}-Serre (nested form)",
                                           a - b.scale(q1) - c.scale(qm1) + d, zero, rep.label,
                                           indices=[i, j]))

    return report.finish(checks)
