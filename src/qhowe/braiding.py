"""The braiding on the tensor square of the natural module.

The operator acts by +q on the span of v_i (x) v_i and v_i (x) v_j + q v_j
(x) v_i (i < j), and by -q^{-1} on the span of v_i (x) v_j - q^{-1} v_j (x)
v_i (i < j).  It is assembled basis vector by basis vector from these
eigenvectors by exact 2x2 change of basis.  Eigenvalue exponents come from
Casimir eigenvalues; the sign is pinned by the q -> 1 limit, where the
braiding degenerates to the flip map.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import report
from .qgroup import coproduct_rep, natural_rep, DELTA
from .qscalar import QLaurent, exact_div
from .sparsemat import SparseMatrix, RationalEchelon

__all__ = [
    "weight_inner",
    "weyl_vector",
    "casimir_eig",
    "braiding_eigenvalue",
    "build_rhat",
    "check_yang_baxter",
    "check_hecke",
    "check_intertwiner",
    "check_classical_limit",
    "sym2q_dims",
    "sym_span_vectors",
    "wedge_span_vectors",
    "tensor_index",
]


def weight_inner(a, b):
    """Inner product of weights in the orthonormal epsilon basis."""
    if len(a) != len(b):
        raise ValueError("weight length mismatch")
    return sum(x * y for x, y in zip(a, b))


def weyl_vector(p):
    """The convention used throughout: rho = (p-1, p-2, ..., 0)."""
    return tuple(range(p - 1, -1, -1))


def casimir_eig(lam, p, rho=None):
    """Casimir eigenvalue <lam, lam + 2 rho> on the highest-weight module."""
    if len(lam) != p:
        raise ValueError(f"weight must have length {p}")
    if rho is None:
        rho = weyl_vector(p)
    shifted = tuple(x + 2 * r for x, r in zip(lam, rho))
    return weight_inner(lam, shifted)


def _epsilon(p, *indices):
    w = [0] * p
    for i in indices:
        w[i - 1] += 1
    return tuple(w)


def braiding_eigenvalue(mu, nu, p):
    """Braiding eigenvalue on the nu-constituent of the mu tensor square.

    Returns the signed q-power (+-) q^(chi_nu / 2 - chi_mu).  Only the
    natural module mu = eps_1 is supported: nu = 2 eps_1 carries +, the
    constituent eps_1 + eps_2 carries -, matching the flip at q = 1.
    """
    mu = tuple(mu)
    nu = tuple(nu)
    if mu != _epsilon(p, 1):
        raise ValueError("only the natural-module square is supported (mu = eps_1)")
    chi_nu = casimir_eig(nu, p)
    chi_mu = casimir_eig(mu, p)
    if chi_nu % 2:
        raise ValueError(f"non-integral braiding exponent: chi_nu = {chi_nu} is odd")
    exponent = chi_nu // 2 - chi_mu
    if nu == _epsilon(p, 1, 1):
        return QLaurent.q_power(exponent)
    if nu == _epsilon(p, 1, 2):
        return QLaurent.q_power(exponent, -1)
    raise ValueError(f"{nu} is not a constituent of the natural square")


def tensor_index(i, j, n):
    """0-based index of v_i (x) v_j in the tensor square basis."""
    return (i - 1) * n + (j - 1)


def _assemble_rhat(n, sym_eig, wedge_eig):
    """Assemble the braiding from its eigenvectors with the given eigenvalues.

    The diagonal vectors v_i (x) v_i are eigenvectors outright; each
    off-diagonal pair {v_i (x) v_j, v_j (x) v_i} is handled by solving the
    2x2 eigenbasis system exactly (Cramer plus one exact division).
    """
    dim = n * n
    q = QLaurent.q_power(1)
    qinv = QLaurent.q_power(-1)
    cols = {}
    for i in range(1, n + 1):
        idx = tensor_index(i, i, n)
        cols[idx] = {idx: sym_eig}
    # For i < j write x = v_i (x) v_j, y = v_j (x) v_i.  Eigenvectors are
    # s = x + q y and a = x - q^{-1} y; in the (s, a) basis the change of
    # basis matrix is P = [[1, 1], [q, -q^{-1}]] with det = -(q + q^{-1}).
    det = -(q + qinv)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            x = tensor_index(i, j, n)
            y = tensor_index(j, i, n)
            # coordinates of basis vectors in the eigenbasis, times det:
            #   x = (-q^{-1} s - q a) / det,   y = (-s + a) / det
            for src, (cs, ca) in ((x, (-qinv, -q)), (y, (-QLaurent.one(), QLaurent.one()))):
                num_s = cs * sym_eig
                num_a = ca * wedge_eig
                # map back: s = x + q y, a = x - q^{-1} y
                x_num = num_s + num_a
                y_num = num_s * q - num_a * qinv
                col = {}
                for row, num in ((x, x_num), (y, y_num)):
                    if num:
                        col[row] = exact_div(num, det)
                cols[src] = col
    return SparseMatrix(dim, cols)


def build_rhat(n):
    """The braiding on the tensor square of the rank-n natural module."""
    if n < 2:
        raise ValueError("need rank at least 2")
    p = n
    sym_eig = braiding_eigenvalue(_epsilon(p, 1), _epsilon(p, 1, 1), p)
    wedge_eig = braiding_eigenvalue(_epsilon(p, 1), _epsilon(p, 1, 2), p)
    return _assemble_rhat(n, sym_eig, wedge_eig)


def sym_span_vectors(n):
    """Spanning eigenvectors for the +q eigenspace, as sparse dicts."""
    q = QLaurent.q_power(1)
    one = QLaurent.one()
    vecs = [{tensor_index(i, i, n): one} for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vecs.append({tensor_index(i, j, n): one, tensor_index(j, i, n): q})
    return vecs


def wedge_span_vectors(n):
    """Spanning eigenvectors for the -q^{-1} eigenspace, as sparse dicts."""
    qinv_neg = QLaurent.q_power(-1, -1)
    one = QLaurent.one()
    return [
        {tensor_index(i, j, n): one, tensor_index(j, i, n): qinv_neg}
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]


def _first_eigen_difference(mat, vecs, eig):
    """The first basis index where the image under mat of a vector of vecs,
    taken in order, differs from eig times that vector; None when each is an
    eigenvector with eigenvalue eig."""
    for vec in vecs:
        image = mat.apply(vec)
        scaled = {k: v * eig for k, v in vec.items() if v * eig}
        differ = [k for k in image.keys() | scaled.keys() if image.get(k) != scaled.get(k)]
        if differ:
            return min(differ)
    return None


def _tensor_label(n, factors, c):
    """Column c of the factors-fold tensor power of the rank-n natural
    module as its basis vector, v_i(x)v_j..., the names ``coproduct_rep``
    gives."""
    names = []
    for _ in range(factors):
        c, k = divmod(c, n)
        names.append(f"v{k + 1}")
    return "(x)".join(reversed(names))


def check_hecke(n, rhat=None):
    """(Rhat - q)(Rhat + q^{-1}) = 0 on the tensor square; a failure names
    its first nonzero column."""
    rhat = build_rhat(n) if rhat is None else rhat
    dim = rhat.dim
    ident = SparseMatrix.identity(dim)
    lhs = (rhat - ident.scale(QLaurent.q_power(1))) * (rhat + ident.scale(QLaurent.q_power(-1)))
    return report.match("(R - q)(R + q^-1) = 0", lhs, SparseMatrix(dim),
                        partial(_tensor_label, n, 2), n=n)


def check_yang_baxter(n, rhat=None):
    """R_1 R_2 R_1 = R_2 R_1 R_2 on the tensor cube; a failure names the
    first column where the two sides differ."""
    rhat = build_rhat(n) if rhat is None else rhat
    idn = SparseMatrix.identity(n)
    r1 = rhat.kron(idn)
    r2 = idn.kron(rhat)
    return report.match("R1 R2 R1 = R2 R1 R2", r1 * r2 * r1, r2 * r1 * r2,
                        partial(_tensor_label, n, 3), n=n)


def check_intertwiner(n, rhat=None):
    """[Rhat, Delta(X)] = 0 for every generator acting on the tensor square."""
    rhat = build_rhat(n) if rhat is None else rhat
    rep = coproduct_rep([natural_rep(n), natural_rep(n)], DELTA)
    checks = [report.match("[R, Delta(X)] = 0", rhat * mat, mat * rhat, rep.label,
                           generator=str(gen))
              for gen, mat in rep.generator_items()]
    return report.finish(checks, n=n)


def check_classical_limit(n, rhat=None):
    """At q = 1 the braiding degenerates to the flip permutation; a failure
    names the first column that is not v_j(x)v_i for v_i(x)v_j."""
    rhat = build_rhat(n) if rhat is None else rhat
    spec = rhat.specialize(Fraction(1))
    first = next((c for c in range(n * n)
                  if spec.get(c, {}) != {tensor_index(c % n + 1, c // n + 1, n): 1}), None)
    return report.column("R|_{q=1} = flip", first, partial(_tensor_label, n, 2), n=n)


def sym2q_dims(n, rhat=None):
    """The braiding's eigenspaces as a report headed by their dimensions,
    ``sym2q_dim`` = n(n+1)/2 and ``degree2_quotient_dim`` = n(n-1)/2, the
    sizes of the displayed spanning families.

    Its records: every +q vector and every -q^{-1} vector is an exact
    eigenvector with that eigenvalue (witness: the first tensor basis vector
    where one vector's image differs), and the two families together have
    rank n^2 at q = 2 (witness: the rank reached).
    """
    rhat = build_rhat(n) if rhat is None else rhat
    label = partial(_tensor_label, n, 2)
    sym, wedge = sym_span_vectors(n), wedge_span_vectors(n)
    families = (("R v = q v on the symmetric vectors", sym, QLaurent.q_power(1)),
                ("R v = -q^-1 v on the wedge vectors", wedge, QLaurent.q_power(-1, -1)))
    checks = [report.column(relation, _first_eigen_difference(rhat, vecs, eig), label, n=n)
              for relation, vecs, eig in families]
    echelon = RationalEchelon()
    two = Fraction(2)
    for vec in sym + wedge:
        echelon.insert({k: v.specialize(two) for k, v in vec.items()})
    checks.append(report.check("the eigenvectors have rank n^2 at q = 2",
                               echelon.rank == n * n, f"rank {echelon.rank}", n=n))
    return report.finish(checks, sym2q_dim=len(sym), degree2_quotient_dim=len(wedge))
