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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fockspace import GridShape, grid_to_linear
from .qclifford import (
    OMEGA,
    OMEGA_INV,
    PSI,
    PSI_DAG,
    CliffordGen,
    OperatorExpr,
    DEFAULT_MATRIX_CAP,
)
from .qgroup import QGroupGen, Representation
from .qscalar import QLaurent
from .fockspace import state_to_string

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
    "classical_nested_root_vector",
    "matrix_unit_sum",
    "dequantize",
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
        n, m = self.shape
        if self.orientation == ROW_LEFT:
            cols = range(1, self.j)
            return [
                (grid_to_linear(self.shape, self.i, p), grid_to_linear(self.shape, self.i + 1, p))
                for p in cols
            ]
        if self.orientation == ROW_RIGHT:
            cols = range(self.j + 1, m + 1)
            return [
                (grid_to_linear(self.shape, self.i, p), grid_to_linear(self.shape, self.i + 1, p))
                for p in cols
            ]
        if self.orientation == COL_ABOVE:
            rows = range(1, self.i)
            return [
                (grid_to_linear(self.shape, p, self.j), grid_to_linear(self.shape, p, self.j + 1))
                for p in rows
            ]
        if self.orientation == COL_BELOW:
            rows = range(self.i + 1, self.shape.n + 1)
            return [
                (grid_to_linear(self.shape, p, self.j), grid_to_linear(self.shape, p, self.j + 1))
                for p in rows
            ]
        raise ValueError(f"unknown orientation {self.orientation!r}")

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
    if kind in ("L", "Linv"):
        _check_torus_index(i, n)
        word = tuple(QGroupGen(kind, grid_to_linear(shape, i, j)) for j in range(1, m + 1))
        return [(one, word)]
    if kind in ("K", "Kinv"):
        _check_root_index(i, n)
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


def lambda_q(n, m, kind, index):
    """The row action on the n x m grid module.

    E_i -> q^{-1} sum_j w_a^{-1} psid_a psi_{a+1} kappa_{i,>j}  (a = i+(j-1)n),
    F_i -> sum_j w_a kappa_{i,<j}^{-1} psid_{a+1} psi_a,
    L_i -> prod_j w_{i+(j-1)n}^{-1}.
    """
    shape = GridShape(n, m).check()
    N = shape.positions
    i = index
    if kind == "E":
        _check_root_index(i, n)
        qinv = QLaurent.q_power(-1)
        terms = []
        for j in range(1, m + 1):
            a = grid_to_linear(shape, i, j)
            word = (
                CliffordGen(OMEGA_INV, a),
                CliffordGen(PSI_DAG, a),
                CliffordGen(PSI, a + 1),
            ) + KappaFactor(shape, ROW_RIGHT, i, j).omega_gens()
            terms.append((qinv, word))
        return OperatorExpr(N, terms)
    if kind == "F":
        _check_root_index(i, n)
        one = QLaurent.one()
        terms = []
        for j in range(1, m + 1):
            a = grid_to_linear(shape, i, j)
            word = (
                (CliffordGen(OMEGA, a),)
                + KappaFactor(shape, ROW_LEFT, i, j).omega_gens(invert=True)
                + (CliffordGen(PSI_DAG, a + 1), CliffordGen(PSI, a))
            )
            terms.append((one, word))
        return OperatorExpr(N, terms)
    if kind in ("L", "Linv"):
        _check_torus_index(i, n)
        gk = OMEGA_INV if kind == "L" else OMEGA
        word = tuple(CliffordGen(gk, grid_to_linear(shape, i, j)) for j in range(1, m + 1))
        return OperatorExpr.word(N, word)
    if kind in ("K", "Kinv"):
        _check_root_index(i, n)
        word = []
        for j in range(1, m + 1):
            a = grid_to_linear(shape, i, j)
            if kind == "K":
                word += [CliffordGen(OMEGA_INV, a), CliffordGen(OMEGA, a + 1)]
            else:
                word += [CliffordGen(OMEGA, a), CliffordGen(OMEGA_INV, a + 1)]
        return OperatorExpr.word(N, word)
    raise ValueError(f"unknown generator kind {kind!r}")


def rho_q(n, m, kind, index):
    """The column action on the n x m grid module.

    E_j -> sum_i kappa_{<i,j} psid_{i+(j-1)n} psi_{i+jn},
    F_j -> sum_i psid_{i+jn} psi_{i+(j-1)n} kappa_{>i,j}^{-1},
    L_j -> prod_i w_{i+(j-1)n}^{-1}.
    """
    shape = GridShape(n, m).check()
    N = shape.positions
    j = index
    one = QLaurent.one()
    if kind == "E":
        _check_root_index(j, m)
        terms = []
        for i in range(1, n + 1):
            a = grid_to_linear(shape, i, j)
            b = grid_to_linear(shape, i, j + 1)
            word = KappaFactor(shape, COL_ABOVE, i, j).omega_gens() + (
                CliffordGen(PSI_DAG, a),
                CliffordGen(PSI, b),
            )
            terms.append((one, word))
        return OperatorExpr(N, terms)
    if kind == "F":
        _check_root_index(j, m)
        terms = []
        for i in range(1, n + 1):
            a = grid_to_linear(shape, i, j)
            b = grid_to_linear(shape, i, j + 1)
            word = (
                CliffordGen(PSI_DAG, b),
                CliffordGen(PSI, a),
            ) + KappaFactor(shape, COL_BELOW, i, j).omega_gens(invert=True)
            terms.append((one, word))
        return OperatorExpr(N, terms)
    if kind in ("L", "Linv"):
        _check_torus_index(j, m)
        gk = OMEGA_INV if kind == "L" else OMEGA
        word = tuple(CliffordGen(gk, grid_to_linear(shape, i, j)) for i in range(1, n + 1))
        return OperatorExpr.word(N, word)
    if kind in ("K", "Kinv"):
        _check_root_index(j, m)
        word = []
        for i in range(1, n + 1):
            a = grid_to_linear(shape, i, j)
            b = grid_to_linear(shape, i, j + 1)
            if kind == "K":
                word += [CliffordGen(OMEGA_INV, a), CliffordGen(OMEGA, b)]
            else:
                word += [CliffordGen(OMEGA, a), CliffordGen(OMEGA_INV, b)]
        return OperatorExpr.word(N, word)
    raise ValueError(f"unknown generator kind {kind!r}")


def classical_lambda(n, m, kind, index):
    """The classical (q = 1) row action: sums of psid psi words, no w factors.

    Lbar_i is the i-th row degree operator sum_j psid_a psi_a.
    """
    shape = GridShape(n, m).check()
    N = shape.positions
    i = index
    terms = []
    if kind == "E":
        _check_root_index(i, n)
        for j in range(1, m + 1):
            a = grid_to_linear(shape, i, j)
            terms.append((1, (CliffordGen(PSI_DAG, a), CliffordGen(PSI, a + 1))))
    elif kind == "F":
        _check_root_index(i, n)
        for j in range(1, m + 1):
            a = grid_to_linear(shape, i, j)
            terms.append((1, (CliffordGen(PSI_DAG, a + 1), CliffordGen(PSI, a))))
    elif kind == "L":
        _check_torus_index(i, n)
        for j in range(1, m + 1):
            a = grid_to_linear(shape, i, j)
            terms.append((1, (CliffordGen(PSI_DAG, a), CliffordGen(PSI, a))))
    else:
        raise ValueError(f"unknown classical generator kind {kind!r}")
    return OperatorExpr(N, terms, classical=True)


def classical_rho(n, m, kind, index):
    """The classical (q = 1) column action; Lbar_j is the j-th column degree."""
    shape = GridShape(n, m).check()
    N = shape.positions
    j = index
    terms = []
    if kind == "E":
        _check_root_index(j, m)
        for i in range(1, n + 1):
            a = grid_to_linear(shape, i, j)
            b = grid_to_linear(shape, i, j + 1)
            terms.append((1, (CliffordGen(PSI_DAG, a), CliffordGen(PSI, b))))
    elif kind == "F":
        _check_root_index(j, m)
        for i in range(1, n + 1):
            a = grid_to_linear(shape, i, j)
            b = grid_to_linear(shape, i, j + 1)
            terms.append((1, (CliffordGen(PSI_DAG, b), CliffordGen(PSI, a))))
    elif kind == "L":
        _check_torus_index(j, m)
        for i in range(1, n + 1):
            a = grid_to_linear(shape, i, j)
            terms.append((1, (CliffordGen(PSI_DAG, a), CliffordGen(PSI, a))))
    else:
        raise ValueError(f"unknown classical generator kind {kind!r}")
    return OperatorExpr(N, terms, classical=True)


# -- classical rank-nm root vectors ------------------------------------------


def _mat_mul(a, b):
    out = {}
    rows_of_b = {}
    for (r, c), v in b.items():
        rows_of_b.setdefault(r, []).append((c, v))
    for (r, k), va in a.items():
        for c, vb in rows_of_b.get(k, ()):
            key = (r, c)
            s = out.get(key, 0) + va * vb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _mat_commutator(a, b):
    ab = _mat_mul(a, b)
    ba = _mat_mul(b, a)
    for key, v in ba.items():
        s = ab.get(key, 0) - v
        if s:
            ab[key] = s
        else:
            ab.pop(key, None)
    return ab


def classical_nested_root_vector(n, m, j):
    """The column root vector of the rank-m algebra inside rank nm.

    Evaluates sum_i [[[E_{i+(j-1)n}, E_{i+1+(j-1)n}], ...], E_{i-1+jn}] on
    matrix units (E_a = M_{a,a+1}) and returns the nm x nm integer matrix as
    a {(row, col): value} dict using 0-based indices.  Equals
    sum_i M_{i+(j-1)n, i+jn}.
    """
    if not 1 <= j <= m - 1:
        raise ValueError(f"column index {j} outside 1..{m - 1}")
    total = {}
    for i in range(1, n + 1):
        start = i + (j - 1) * n
        acc = {(start - 1, start): 1}  # M_{start, start+1}, 0-based
        for a in range(start + 1, i + j * n):
            acc = _mat_commutator(acc, {(a - 1, a): 1})
        for key, v in acc.items():
            s = total.get(key, 0) + v
            if s:
                total[key] = s
            else:
                total.pop(key, None)
    return total


def matrix_unit_sum(n, m, j):
    """sum_i M_{i+(j-1)n, i+jn} as a {(row, col): 1} dict, 0-based."""
    return {
        (grid_to_linear(GridShape(n, m), i, j) - 1, grid_to_linear(GridShape(n, m), i, j + 1) - 1): 1
        for i in range(1, n + 1)
    }


def dequantize(op, cap=DEFAULT_MATRIX_CAP):
    """Matrix realization followed by entrywise evaluation at q = 1."""
    return op.to_matrix(cap).specialize(Fraction(1))


# -- representation bundles ----------------------------------------------------


def _grid_rep(rank, n, m, builder, cap):
    N = n * m
    mats = {}
    for i in range(1, rank):
        mats[("E", i)] = builder(n, m, "E", i).to_matrix(cap)
        mats[("F", i)] = builder(n, m, "F", i).to_matrix(cap)
    for i in range(1, rank + 1):
        mats[("L", i)] = builder(n, m, "L", i).to_matrix(cap)
        mats[("Linv", i)] = builder(n, m, "Linv", i).to_matrix(cap)
    return Representation(rank, 1 << N, mats, state_label=lambda s: state_to_string(s, N))


def lambda_rep(n, m, cap=DEFAULT_MATRIX_CAP):
    """The row action as a rank-n Representation on the full grid module."""
    return _grid_rep(n, n, m, lambda_q, cap)


def rho_rep(n, m, cap=DEFAULT_MATRIX_CAP):
    """The column action as a rank-m Representation on the full grid module."""
    return _grid_rep(m, n, m, rho_q, cap)


def phi_rep(p, cap=DEFAULT_MATRIX_CAP):
    """The rank-p exterior-module action as a Representation."""
    mats = {}
    for i in range(1, p):
        mats[("E", i)] = phi_q(p, "E", i).to_matrix(cap)
        mats[("F", i)] = phi_q(p, "F", i).to_matrix(cap)
    for i in range(1, p + 1):
        mats[("L", i)] = phi_q(p, "L", i).to_matrix(cap)
        mats[("Linv", i)] = phi_q(p, "Linv", i).to_matrix(cap)
    return Representation(p, 1 << p, mats, state_label=lambda s: state_to_string(s, p))


# -- bundled verifications -----------------------------------------------------


def _gen_list(rank, torus=True, classical=False):
    gens = []
    for i in range(1, rank):
        gens.append(("E", i))
        gens.append(("F", i))
    if torus:
        for i in range(1, rank + 1):
            gens.append(("L", i))
            if not classical:
                gens.append(("Linv", i))
    return gens


def check_composition(n, m, cap=DEFAULT_MATRIX_CAP):
    """lambda_q equals phi_q o theta, generator by generator, as matrices."""
    checks = []
    for kind, i in _gen_list(n):
        direct = lambda_q(n, m, kind, i).to_matrix(cap)
        composed = compose_phi_theta(n, m, kind, i).to_matrix(cap)
        ok = direct == composed
        checks.append(
            {"relation": "lambda_q = phi_q o theta", "generator": f"{kind}{i}",
             "status": "pass" if ok else "fail"}
        )
    ok = all(c["status"] == "pass" for c in checks)
    return {"n": n, "m": m, "status": "pass" if ok else "fail", "checks": checks}


def check_commutant(n, m, cap=DEFAULT_MATRIX_CAP):
    """[row action, column action] = 0 for every generator pair, both flavors."""
    checks = []
    row_gens = [(kind, i, lambda_q(n, m, kind, i).to_matrix(cap)) for kind, i in _gen_list(n)]
    col_gens = [(kind, j, rho_q(n, m, kind, j).to_matrix(cap)) for kind, j in _gen_list(m)]
    for kx, ix, X in row_gens:
        for ky, jy, Y in col_gens:
            ok = (X * Y - Y * X).is_zero()
            checks.append(
                {"relation": "[lambda_q, rho_q] = 0", "pair": [f"{kx}{ix}", f"{ky}{jy}"],
                 "status": "pass" if ok else "fail"}
            )
    crow = [(kind, i, classical_lambda(n, m, kind, i).to_matrix(cap))
            for kind, i in _gen_list(n, classical=True)]
    ccol = [(kind, j, classical_rho(n, m, kind, j).to_matrix(cap))
            for kind, j in _gen_list(m, classical=True)]
    for kx, ix, X in crow:
        for ky, jy, Y in ccol:
            ok = (X * Y - Y * X).is_zero()
            checks.append(
                {"relation": "[lambda, rho] = 0 (classical)", "pair": [f"{kx}{ix}", f"{ky}{jy}"],
                 "status": "pass" if ok else "fail"}
            )
    ok = all(c["status"] == "pass" for c in checks)
    return {"n": n, "m": m, "status": "pass" if ok else "fail", "checks": checks}


def _diag_exponent_match(qmat, cmat):
    """quantum diagonal == q^(classical diagonal), entry by entry."""
    exps = qmat.monomial_diag_exponents()
    return exps is not None and all(
        cmat.get(s, {}).get(s, 0) == e for s, e in enumerate(exps)
    )


def check_dequantization(n, m, cap=DEFAULT_MATRIX_CAP):
    """q = 1 limits of the quantum actions against their classical versions.

    Root vectors specialize to the classical matrices outright.  Torus
    generators are q-exponentials of the classical degree operators, so the
    exact statement for L is an exponent match on the diagonal.
    """
    checks = []
    for flavor, qmap, cmap, rank in (
        ("lambda", lambda_q, classical_lambda, n),
        ("rho", rho_q, classical_rho, m),
    ):
        for i in range(1, rank):
            for kind in ("E", "F"):
                dq = dequantize(qmap(n, m, kind, i), cap)
                cl = cmap(n, m, kind, i).to_matrix(cap).specialize(Fraction(1))
                ok = dq == cl
                checks.append(
                    {"relation": f"{flavor}_q|q=1 = classical", "generator": f"{kind}{i}",
                     "status": "pass" if ok else "fail"}
                )
        for i in range(1, rank + 1):
            qmat = qmap(n, m, "L", i).to_matrix(cap)
            cmat = cmap(n, m, "L", i).to_matrix(cap).specialize(Fraction(1))
            ok = _diag_exponent_match(qmat, cmat)
            checks.append(
                {"relation": f"{flavor}_q(L) = q^(classical degree)", "generator": f"L{i}",
                 "status": "pass" if ok else "fail"}
            )
    ok = all(c["status"] == "pass" for c in checks)
    return {"n": n, "m": m, "status": "pass" if ok else "fail", "checks": checks}


def check_tensor_character(n, m, cap=DEFAULT_MATRIX_CAP):
    """Character-level comparison of the grid module with the tensor power.

    The multiset of joint torus-eigenvalue exponent tuples of the row action
    on the grid module must equal that of the m-fold coproduct action on the
    m-th tensor power of the rank-n exterior module.
    """
    from .qgroup import DELTA, coproduct_rep

    grid_exps = []
    for i in range(1, n + 1):
        exps = lambda_q(n, m, "L", i).to_matrix(cap).monomial_diag_exponents()
        if exps is None:
            raise AssertionError("row torus action is not a monomial diagonal")
        grid_exps.append(exps)
    grid_multiset = sorted(zip(*grid_exps))

    factor = phi_rep(n, cap)
    tensor = coproduct_rep([factor] * m, DELTA)
    tensor_exps = []
    for i in range(1, n + 1):
        exps = tensor.L(i).monomial_diag_exponents()
        if exps is None:
            raise AssertionError("tensor torus action is not a monomial diagonal")
        tensor_exps.append(exps)
    tensor_multiset = sorted(zip(*tensor_exps))

    ok = grid_multiset == tensor_multiset
    return {
        "n": n,
        "m": m,
        "status": "pass" if ok else "fail",
        "relation": "joint weight multisets agree",
        "distinct_weights": len(set(grid_multiset)),
    }


_MAPS = {
    "phi_q": lambda n, m, kind, index: phi_q(n, kind, index),
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
