"""Row and column quantum-group actions on the grid exterior module.

Six maps, all realized as generator-to-operator assignments on the n x m
grid (N = nm positions, column-major):

* ``phi_q``            rank-p action on the rank-p exterior module,
* ``theta``            the formal embedding of the rank-n group into rank nm,
* ``lambda_q``         the row action (equals phi_q o theta),
* ``rho_q``            the column action (does not factor through rank nm),
* ``classical_lambda`` / ``classical_rho``  their q = 1 counterparts.

The diagonal correction factors (kappa for Clifford words, Lambda for formal
rank-nm words) are products over grid segments; :class:`KappaFactor` holds
one such segment and expands it on demand.

The row and column actions are one construction along the two axes of the
grid.  ``_grid_action`` walks the cells of one line and their root pairs
a -> b (b = a + 1 for a row pair, b = a + n for a column pair) and reads
each E/F image from a line-pair table keyed by (axis, kind): the q-exponent
of the coefficient, the generators before the kappa segment, the segment's
orientation and the generators after it.  The torus generators share one
path for both axes, and the q = 1 images come from their own classical
table.  ``phi_q`` and the classical table stay independent formulas: the
composition check compares ``lambda_q`` with ``phi_q o theta`` and the
dequantization check compares the quantum table with the classical one, so
deriving either side from the other would make that check compare a
formula with itself.

``lambda_rep``, ``rho_rep`` and ``phi_rep`` hold their generators as Clifford
words.  ``qgroup``'s relation and Serre suites and the composition, commutant
and dequantization checks here decide their identities on the words, and the
tensor character reads the torus words' exponent masks, so no check builds a
2^nm-column matrix, past 16 positions too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import prod
from operator import add

from . import report
from .fockspace import GridShape, grid_to_linear, state_to_string
from .qclifford import (
    OMEGA,
    OMEGA_INV,
    PSI,
    PSI_DAG,
    CliffordGen,
    OperatorExpr,
)
from .qgroup import QGroupGen, Representation, generator_keys
from .qscalar import QLaurent

__all__ = [
    "ROW_LEFT",
    "ROW_RIGHT",
    "COL_ABOVE",
    "COL_BELOW",
    "KappaFactor",
    "phi_q",
    "theta",
    "phi_word",
    "compose_phi_theta",
    "lambda_q",
    "rho_q",
    "classical_lambda",
    "classical_rho",
    "lambda_rep",
    "rho_rep",
    "phi_rep",
    "check_composition",
    "check_commutant",
    "check_dequantization",
    "check_tensor_character",
    "explain",
]

ROW_LEFT = "row-left"      # columns p < j on rows i, i+1
ROW_RIGHT = "row-right"    # columns p > j on rows i, i+1
COL_ABOVE = "col-above"    # rows p < i on columns j, j+1
COL_BELOW = "col-below"    # rows p > i on columns j, j+1

ROW = "row"      # root pairs a -> a + 1 of one grid row pair (rank n)
COL = "col"      # root pairs a -> a + n of one grid column pair (rank m)

# Kappa segments by orientation: the axis of their root pairs, and whether
# the free coordinate p runs before the anchor cell (1 .. anchor - 1) or
# after it (anchor + 1 .. the line's length).
_KAPPA_SEGMENTS = {
    ROW_LEFT: (ROW, True),
    ROW_RIGHT: (ROW, False),
    COL_ABOVE: (COL, True),
    COL_BELOW: (COL, False),
}


@dataclass(frozen=True)
class KappaFactor:
    """One diagonal correction segment anchored at grid cell (i, j).

    Expands to the ordered product of w^{+-1} generators (Clifford picture)
    or K^{+-1} generators (formal rank-nm picture, row orientations only).
    Empty segments expand to the empty word.
    """

    shape: GridShape
    orientation: str
    i: int
    j: int

    def _pairs(self):
        """Linear index pairs (a, b) with the factor w_a^{-1} w_b per segment."""
        if self.orientation not in _KAPPA_SEGMENTS:
            raise ValueError(f"unknown orientation {self.orientation!r}")
        axis, before = _KAPPA_SEGMENTS[self.orientation]
        n, m = self.shape
        anchor, length, di, dj = (self.j, m, 1, 0) if axis == ROW else (self.i, n, 0, 1)
        free = range(1, anchor) if before else range(anchor + 1, length + 1)
        cells = [(self.i, p) if axis == ROW else (p, self.j) for p in free]
        return [(grid_to_linear(self.shape, i, j), grid_to_linear(self.shape, i + di, j + dj))
                for i, j in cells]

    def omega_gens(self, invert=False):
        """The segment as Clifford w generators, in display order."""
        gens = []
        for a, b in self._pairs():
            if invert:
                gens.append(CliffordGen(OMEGA, a))
                gens.append(CliffordGen(OMEGA_INV, b))
            else:
                gens.append(CliffordGen(OMEGA_INV, a))
                gens.append(CliffordGen(OMEGA, b))
        return tuple(gens)

    def k_gens(self, invert=False):
        """The segment as formal rank-nm K generators (row orientations)."""
        if self.orientation not in (ROW_LEFT, ROW_RIGHT):
            raise ValueError("K-generator expansion only exists for row segments")
        kind = "Kinv" if invert else "K"
        return tuple(QGroupGen(kind, a) for a, _ in self._pairs())


def _check_root_index(index, rank):
    if not 1 <= index <= rank - 1:
        raise ValueError(f"root index {index} outside 1..{rank - 1}")


def _check_torus_index(index, rank):
    if not 1 <= index <= rank:
        raise ValueError(f"torus index {index} outside 1..{rank}")


def phi_q(p, kind, index):
    """The rank-p quantum group acting on its own rank-p exterior module.

    E_i -> q^{-1} w_i^{-1} psid_i psi_{i+1}, F_i -> w_i psid_{i+1} psi_i,
    L_i -> w_i^{-1} (inverses accordingly, K via L L^{-1}).
    """
    i = index
    if kind == "E":
        _check_root_index(i, p)
        word = (CliffordGen(OMEGA_INV, i), CliffordGen(PSI_DAG, i), CliffordGen(PSI, i + 1))
        return OperatorExpr.word(p, word, coeff=QLaurent.q_power(-1))
    if kind == "F":
        _check_root_index(i, p)
        word = (CliffordGen(OMEGA, i), CliffordGen(PSI_DAG, i + 1), CliffordGen(PSI, i))
        return OperatorExpr.word(p, word)
    if kind == "L":
        _check_torus_index(i, p)
        return OperatorExpr.word(p, (CliffordGen(OMEGA_INV, i),))
    if kind == "Linv":
        _check_torus_index(i, p)
        return OperatorExpr.word(p, (CliffordGen(OMEGA, i),))
    if kind == "K":
        _check_root_index(i, p)
        return OperatorExpr.word(p, (CliffordGen(OMEGA_INV, i), CliffordGen(OMEGA, i + 1)))
    if kind == "Kinv":
        _check_root_index(i, p)
        return OperatorExpr.word(p, (CliffordGen(OMEGA, i), CliffordGen(OMEGA_INV, i + 1)))
    raise ValueError(f"unknown generator kind {kind!r}")


def theta(n, m, kind, index):
    """The rank-n group inside the rank-nm group, as formal weighted words.

    E_i -> sum_j E_{i+(j-1)n} Lambda_{i,>j};  F_i -> sum_j Lambda_{i,<j}^{-1}
    F_{i+(j-1)n};  L_i -> prod_j L_{i+(j-1)n}.  Returns a list of
    (coefficient, word of rank-nm generators).
    """
    shape = GridShape(n, m).check()
    one = QLaurent.one()
    i = index
    if kind == "E":
        _check_root_index(i, n)
        terms = []
        for j in range(1, m + 1):
            a = grid_to_linear(shape, i, j)
            right = KappaFactor(shape, ROW_RIGHT, i, j).k_gens()
            terms.append((one, (QGroupGen("E", a),) + right))
        return terms
    if kind == "F":
        _check_root_index(i, n)
        terms = []
        for j in range(1, m + 1):
            a = grid_to_linear(shape, i, j)
            left_inv = KappaFactor(shape, ROW_LEFT, i, j).k_gens(invert=True)
            terms.append((one, left_inv + (QGroupGen("F", a),)))
        return terms
    if kind in ("L", "Linv", "K", "Kinv"):
        (_check_torus_index if kind in ("L", "Linv") else _check_root_index)(i, n)
        word = tuple(QGroupGen(kind, grid_to_linear(shape, i, j)) for j in range(1, m + 1))
        return [(one, word)]
    raise ValueError(f"unknown generator kind {kind!r}")


def phi_word(p, gens):
    """Push a formal rank-p word through phi_q (words compose left to right)."""
    out = OperatorExpr.identity(p)
    for gen in gens:
        out = out * phi_q(p, gen.kind, gen.index)
    return out


def compose_phi_theta(n, m, kind, index):
    """The composite rank-nm realization of a rank-n generator via theta."""
    N = n * m
    total = OperatorExpr.zero(N)
    for coeff, word in theta(n, m, kind, index):
        total = total + phi_word(N, word).scale(coeff)
    return total


# Quantum E/F images, keyed by (axis, kind): the q-exponent of the
# coefficient, the generators before the kappa segment, the segment's
# orientation (read inverted for F), and the generators after it, in the
# paper's display order.  "a" and "b" are the two ends of the root pair.
_QUANTUM_IMAGES = {
    (ROW, "E"): (-1, ((OMEGA_INV, "a"), (PSI_DAG, "a"), (PSI, "b")), ROW_RIGHT, ()),
    (ROW, "F"): (0, ((OMEGA, "a"),), ROW_LEFT, ((PSI_DAG, "b"), (PSI, "a"))),
    (COL, "E"): (0, (), COL_ABOVE, ((PSI_DAG, "a"), (PSI, "b"))),
    (COL, "F"): (0, ((PSI_DAG, "b"), (PSI, "a")), COL_BELOW, ()),
}

# Torus images: one word per cell, multiplied along the line.
_TORUS_IMAGES = {
    "L": ((OMEGA_INV, "a"),),
    "Linv": ((OMEGA, "a"),),
    "K": ((OMEGA_INV, "a"), (OMEGA, "b")),
    "Kinv": ((OMEGA, "a"), (OMEGA_INV, "b")),
}

# Classical (q = 1) images: one word per cell, summed along the line; Lbar
# is the line's degree operator.  Kept apart from the quantum table so that
# check_dequantization compares two independent formulas.
_CLASSICAL_IMAGES = {
    "E": ((PSI_DAG, "a"), (PSI, "b")),
    "F": ((PSI_DAG, "b"), (PSI, "a")),
    "L": ((PSI_DAG, "a"), (PSI, "a")),
}


def _grid_action(n, m, axis, kind, index, classical):
    """One generator image of the row (ROW) or column (COL) action.

    Walks the cells (i, j) of line ``index`` with their root pairs a -> b:
    b = a + 1 on the row axis, b = a + n on the column axis.
    """
    shape = GridShape(n, m).check()
    N = shape.positions
    if axis == ROW:
        rank, step, cells = n, 1, [(index, j) for j in range(1, m + 1)]
    else:
        rank, step, cells = m, n, [(i, index) for i in range(1, n + 1)]
    known = _CLASSICAL_IMAGES if classical else ("E", "F", *_TORUS_IMAGES)
    if kind not in known:
        raise ValueError(f"unknown {'classical ' if classical else ''}generator kind {kind!r}")
    (_check_torus_index if kind in ("L", "Linv") else _check_root_index)(index, rank)

    def words(spec):
        out = []
        for i, j in cells:
            a = grid_to_linear(shape, i, j)
            ends = {"a": a, "b": a + step}
            out.append(tuple(CliffordGen(g, ends[end]) for g, end in spec))
        return out

    if classical:
        return OperatorExpr(N, [(1, w) for w in words(_CLASSICAL_IMAGES[kind])], classical=True)
    if kind in _TORUS_IMAGES:
        return OperatorExpr.word(N, [g for w in words(_TORUS_IMAGES[kind]) for g in w])
    exp, before, orientation, after = _QUANTUM_IMAGES[(axis, kind)]
    coeff = QLaurent.q_power(exp)
    terms = []
    for (i, j), head, tail in zip(cells, words(before), words(after)):
        kappa = KappaFactor(shape, orientation, i, j).omega_gens(invert=kind == "F")
        terms.append((coeff, head + kappa + tail))
    return OperatorExpr(N, terms)


def lambda_q(n, m, kind, index):
    """The row action on the n x m grid module.

    E_i -> q^{-1} sum_j w_a^{-1} psid_a psi_{a+1} kappa_{i,>j}  (a = i+(j-1)n),
    F_i -> sum_j w_a kappa_{i,<j}^{-1} psid_{a+1} psi_a,
    L_i -> prod_j w_{i+(j-1)n}^{-1}.
    """
    return _grid_action(n, m, ROW, kind, index, classical=False)


def rho_q(n, m, kind, index):
    """The column action on the n x m grid module.

    E_j -> sum_i kappa_{<i,j} psid_{i+(j-1)n} psi_{i+jn},
    F_j -> sum_i psid_{i+jn} psi_{i+(j-1)n} kappa_{>i,j}^{-1},
    L_j -> prod_i w_{i+(j-1)n}^{-1}.
    """
    return _grid_action(n, m, COL, kind, index, classical=False)


def classical_lambda(n, m, kind, index):
    """The classical (q = 1) row action: sums of psid psi words, no w factors.

    Lbar_i is the i-th row degree operator sum_j psid_a psi_a.
    """
    return _grid_action(n, m, ROW, kind, index, classical=True)


def classical_rho(n, m, kind, index):
    """The classical (q = 1) column action; Lbar_j is the j-th column degree."""
    return _grid_action(n, m, COL, kind, index, classical=True)


# -- representation bundles ----------------------------------------------------


def _grid_rep(rank, n, m, builder):
    """The generators as Clifford words; the relation checks decide them
    on the words, so no 2^nm-column matrix is built."""
    N = n * m
    gens = {key: builder(n, m, *key) for key in generator_keys(rank)}
    return Representation(rank, 1 << N, gens, state_label=lambda s: state_to_string(s, N),
                          identity=OperatorExpr.identity(N))


def _phi_on_grid(n, m, kind, index):
    """phi_q in the (n, m, kind, index) signature of the grid builders (m = 1)."""
    return phi_q(n, kind, index)


def lambda_rep(n, m):
    """The row action as a rank-n Representation on the full grid module."""
    return _grid_rep(n, n, m, lambda_q)


def rho_rep(n, m):
    """The column action as a rank-m Representation on the full grid module."""
    return _grid_rep(m, n, m, rho_q)


def phi_rep(p):
    """The rank-p exterior-module action as a Representation."""
    return _grid_rep(p, p, 1, _phi_on_grid)


# -- bundled verifications -----------------------------------------------------


def _gen_list(rank, classical=False):
    """Generator keys checked per action; the classical torus has no Linv."""
    return [key for key in generator_keys(rank) if not (classical and key[0] == "Linv")]


def check_composition(n, m):
    """lambda_q equals phi_q o theta, generator by generator, on the words."""
    label = partial(state_to_string, length=n * m)
    checks = [report.match("lambda_q = phi_q o theta", lambda_q(n, m, kind, i),
                           compose_phi_theta(n, m, kind, i), label, generator=f"{kind}{i}")
              for kind, i in _gen_list(n)]
    return report.finish(checks, n=n, m=m)


def check_commutant(n, m):
    """[row action, column action] = 0 for every generator pair, both flavors."""
    label = partial(state_to_string, length=n * m)
    checks = []
    for relation, row_map, col_map, classical in (
        ("[lambda_q, rho_q] = 0", lambda_q, rho_q, False),
        ("[lambda, rho] = 0 (classical)", classical_lambda, classical_rho, True),
    ):
        rows = [(f"{kind}{i}", row_map(n, m, kind, i)) for kind, i in _gen_list(n, classical)]
        cols = [(f"{kind}{j}", col_map(n, m, kind, j)) for kind, j in _gen_list(m, classical)]
        for x, X in rows:
            for y, Y in cols:
                checks.append(report.commute(relation, X, Y, label, pair=[x, y]))
    return report.finish(checks, n=n, m=m)


def _exponent_operators(N, weights):
    """For weights (e0, ((c, mask), ...)) and e(s) = e0 + sum(c * |s &
    mask|): the torus word that scales each state s by q^e(s), and the
    classical diagonal e0 + sum(c * psid_k psi_k) with entries e(s)."""
    e0, masks = weights
    cells = [(c, k) for c, mask in masks for k in range(1, N + 1) if mask >> (k - 1) & 1]
    word = [CliffordGen(OMEGA_INV if c > 0 else OMEGA, k) for c, k in cells for _ in range(abs(c))]
    degree = [(e0, ())] + [(c, (CliffordGen(PSI_DAG, k), CliffordGen(PSI, k))) for c, k in cells]
    return (OperatorExpr.word(N, word, coeff=QLaurent.q_power(e0)),
            OperatorExpr(N, degree, classical=True))


def check_dequantization(n, m):
    """q = 1 limits of the quantum actions against their classical versions.

    Root vectors specialize to the classical operators outright.  Torus
    generators are q-exponentials of the classical degree operators: the
    quantum L must be the torus word of its own exponents, and the classical
    L the degree operator of those exponents.  A failed check's witness is
    the first basis state whose column differs.
    """
    N = n * m
    label = partial(state_to_string, length=N)
    checks = []
    for flavor, qmap, cmap, rank in (
        ("lambda", lambda_q, classical_lambda, n),
        ("rho", rho_q, classical_rho, m),
    ):
        gens = [(kind, i) for i in range(1, rank) for kind in ("E", "F")]
        for kind, i in gens + [("L", i) for i in range(1, rank + 1)]:
            qop, cop = qmap(n, m, kind, i), cmap(n, m, kind, i)
            if kind == "L":
                relation = f"{flavor}_q(L) = q^(classical degree)"
                torus, degree = _exponent_operators(N, qop.torus_weights() or (0, ()))
                firsts = qop.first_difference(torus), cop.first_difference(degree)
                c = min((x for x in firsts if x is not None), default=None)
            else:
                relation, c = f"{flavor}_q|q=1 = classical", qop.first_difference_at_one(cop)
            checks.append(report.column(relation, c, label, generator=f"{kind}{i}"))
    return report.finish(checks, n=n, m=m)


def _expand(start, vectors):
    """x^start times prod_v (1 + x^v) over the exponent vectors v, as a
    Counter {exponents: coefficient}: one binomial convolution per vector."""
    poly = Counter({start: 1})
    for v in vectors:
        poly += Counter({tuple(map(add, e, v)): c for e, c in poly.items()})
    return poly


def _weight_polynomial(torus, positions, copies):
    """The joint weight multiset of the torus words torus[i] = L_i on
    ``positions`` positions, over ``copies`` tensor copies of their module:
    x^shift times one binomial 1 + x^(v_k) per position k, v_k its weight
    vector.  Returned as (number of v_k = 0, {variables: {exponents: count}})
    with one polynomial per group of variables that some v_k link, multiplied
    out by ``_expand``; two products are equal exactly when these are."""
    weights = [op.torus_weights() if len(op.terms) == 1 else None for op in torus]
    if None in weights:
        raise AssertionError("torus action is not a monomial diagonal")
    vectors = [tuple(next((c for c, mask in masks if mask >> k & 1), 0) for _, masks in weights)
               for k in range(positions)] * copies
    groups = {(i,): [] for i in range(len(weights))}  # variables -> their vectors
    for v in vectors:
        linked = [g for g in groups if any(v[i] for i in g)]
        if linked:
            groups[tuple(sorted(sum(linked, ())))] = sum(map(groups.pop, linked), [v])
    polys = {variables: _expand(tuple(copies * weights[i][0] for i in variables),
                                [tuple(v[i] for i in variables) for v in vs])
             for variables, vs in groups.items()}
    return vectors.count((0,) * len(weights)), polys


def _block_polynomial(polys, block):
    """The product of the polynomials of ``polys`` whose variables lie in
    block, keyed by the exponents of block's variables in increasing order."""
    out, order = Counter({(): 1}), ()
    for variables, poly in polys.items():
        if block.issuperset(variables):
            out = Counter({e + f: c * d for e, c in out.items() for f, d in poly.items()})
            order += variables
    if list(order) == sorted(order):
        return out
    perm = sorted(range(len(order)), key=order.__getitem__)
    return Counter({tuple(e[i] for i in perm): c for e, c in out.items()})


def _tell_apart(sides):
    """True when the two (scale, [block polynomial]) sides, products over
    disjoint variable blocks with positive coefficients, differ.  Two such
    nonzero products are equal exactly when each block's polynomials are
    proportional and the ratios cancel the scales."""
    (scale_g, grid), (scale_t, tensor) = sides
    if not (all(grid) and all(tensor)):  # a product with an empty block is zero
        return all(grid) != all(tensor)
    for g, t in zip(grid, tensor):
        sum_g, sum_t = sum(g.values()), sum(t.values())
        if g.keys() != t.keys() or any(g[e] * sum_t != t[e] * sum_g for e in g):
            return True
        scale_g, scale_t = scale_g * sum_g, scale_t * sum_t
    return scale_g != scale_t


def _first_weight_difference(grid, tensor, rank):
    """The witness of two unequal _weight_polynomial results: the smallest
    joint weight (one exponent per L_i, compared lexicographically) whose
    number of states differs between the sides, with both numbers.

    The variable groups of both sides merge into common blocks, so each side
    is 2^zeros times one polynomial per block.  The weight is fixed one
    variable at a time at the smallest exponent that some completion still
    tells apart (``_tell_apart``)."""
    blocks = [set(variables) for variables in grid[1]]
    for variables in tensor[1]:
        linked = [b for b in blocks if b.intersection(variables)]
        blocks = [b for b in blocks if b not in linked] + [set(variables).union(*linked)]
    blocks.sort(key=min)
    sides = [(1 << zeros, [_block_polynomial(polys, b) for b in blocks])
             for zeros, polys in (grid, tensor)]
    if not _tell_apart(sides):
        return None
    weight = []
    for v in range(rank):
        k = next(k for k, b in enumerate(blocks) if v in b)
        at = sorted(blocks[k]).index(v)
        for x in sorted({e[at] for _, polys in sides for e in polys[k]}):
            trial = [(scale, [*polys[:k], Counter({e: c for e, c in polys[k].items() if e[at] == x}),
                              *polys[k + 1:]]) for scale, polys in sides]
            if _tell_apart(trial):
                sides = trial
                weight.append(x)
                break
    counts = [scale * prod(sum(p.values()) for p in polys) for scale, polys in sides]
    return f"weight {weight}: grid {counts[0]}, tensor {counts[1]}"


def check_tensor_character(n, m):
    """Character-level comparison of the grid module with the tensor power.

    The multiset of joint torus-eigenvalue exponent tuples of the row action
    on the grid module must equal that of the m-fold coproduct action on the
    m-th tensor power of the rank-n exterior module (L_i is grouplike: m
    factors of phi_q(L_i)).  Both are read from the torus words, with no
    state enumerated; distinct_weights counts the grid side's monomials.  A
    failed check names the first weight whose two counts differ.
    """
    grid = _weight_polynomial([lambda_q(n, m, "L", i) for i in range(1, n + 1)], n * m, 1)
    tensor = _weight_polynomial([phi_q(n, "L", i) for i in range(1, n + 1)], n, m)
    ok = grid == tensor
    return report.check("joint weight multisets agree", ok,
                        None if ok else _first_weight_difference(grid, tensor, n), n=n, m=m,
                        distinct_weights=prod(map(len, grid[1].values())))


_MAPS = {
    "phi_q": _phi_on_grid,
    "lambda_q": lambda_q,
    "rho_q": rho_q,
    "classical_lambda": classical_lambda,
    "classical_rho": classical_rho,
}


def explain(map_name, n, m, kind, index):
    """Human-readable term listing of one generator image, e.g. for the CLI."""
    if map_name == "theta":
        parts = []
        for coeff, word in theta(n, m, kind, index):
            body = " ".join(str(g) for g in word)
            parts.append(body if coeff == QLaurent.one() else f"{coeff} {body}")
        return f"theta({kind}{index}) = " + " + ".join(parts)
    if map_name not in _MAPS:
        raise ValueError(f"unknown map {map_name!r}")
    op = _MAPS[map_name](n, m, kind, index)
    return f"{map_name}({kind}{index}) = {op}"
