from fractions import Fraction

import pytest

from qhowe import braiding
from qhowe.braiding import (
    _assemble_rhat,
    braiding_eigenvalue,
    build_rhat,
    casimir_eig,
    check_classical_limit,
    check_hecke,
    check_intertwiner,
    check_yang_baxter,
    sym2q_dims,
    sym_span_vectors,
    tensor_index,
    wedge_span_vectors,
    weyl_vector,
)
from qhowe.qgroup import DELTA, DELTA_TILDE, coproduct_rep, natural_rep
from qhowe.qscalar import QLaurent
from qhowe.sparsemat import SparseMatrix


def eps(p, *idx):
    w = [0] * p
    for i in idx:
        w[i - 1] += 1
    return tuple(w)


class TestCasimir:
    def test_examples(self):
        assert casimir_eig(eps(3, 1), 3) == 5
        assert casimir_eig((0, 0, 0), 3) == 0
        assert casimir_eig(eps(3, 1, 1), 3) == 12

    def test_length_check(self):
        with pytest.raises(ValueError):
            casimir_eig((1, 0), 3)


class TestBraidingEigenvalue:
    def test_constituents(self):
        for p in (2, 3, 4):
            assert braiding_eigenvalue(eps(p, 1), eps(p, 1, 1), p) == QLaurent({1: 1})
            assert braiding_eigenvalue(eps(p, 1), eps(p, 1, 2), p) == QLaurent({-1: -1})

    def test_weyl_shift_invariance(self):
        # |nu| = 2|mu| makes the exponent invariant under rho -> rho + c
        for p in (2, 3, 4):
            for c in (0, 1, 7, -3):
                rho = tuple(r + c for r in weyl_vector(p))
                exp_sym = Fraction(casimir_eig(eps(p, 1, 1), p, rho), 2) - casimir_eig(
                    eps(p, 1), p, rho
                )
                exp_wedge = Fraction(casimir_eig(eps(p, 1, 2), p, rho), 2) - casimir_eig(
                    eps(p, 1), p, rho
                )
                assert exp_sym == 1 and exp_wedge == -1

    def test_unsupported_inputs(self):
        with pytest.raises(ValueError):
            braiding_eigenvalue(eps(3, 2), eps(3, 1, 1), 3)
        with pytest.raises(ValueError):
            braiding_eigenvalue(eps(3, 1), eps(3, 2, 2), 3)


class TestRhat:
    def test_diagonal_pairs(self):
        R = build_rhat(2)
        assert R.entry(tensor_index(1, 1, 2), tensor_index(1, 1, 2)) == QLaurent({1: 1})

    def test_eigenvector_equations(self):
        R = build_rhat(3)
        q = QLaurent({1: 1})
        neg_qinv = QLaurent({-1: -1})
        for vec in sym_span_vectors(3):
            image = R.apply(vec)
            assert image == {k: v * q for k, v in vec.items()}
        for vec in wedge_span_vectors(3):
            image = R.apply(vec)
            assert image == {k: v * neg_qinv for k, v in vec.items()}

    def test_change_of_basis_on_ordered_pair(self):
        # solved exactly from the 2x2 eigenbasis system
        R = build_rhat(2)
        x, y = tensor_index(1, 2, 2), tensor_index(2, 1, 2)
        assert R.cols[x] == {y: QLaurent.one()}
        assert R.cols[y] == {x: QLaurent.one(), y: QLaurent({1: 1, -1: -1})}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hecke_yang_baxter_intertwiner(self, n):
        R = build_rhat(n)
        # a passing record has no witness key
        assert check_hecke(n, R) == {"relation": "(R - q)(R + q^-1) = 0", "n": n, "status": "pass"}
        assert check_yang_baxter(n, R) == {"relation": "R1 R2 R1 = R2 R1 R2", "n": n,
                                           "status": "pass"}
        assert check_intertwiner(n, R)["status"] == "pass"
        assert check_classical_limit(n, R) == {"relation": "R|_{q=1} = flip", "n": n,
                                               "status": "pass"}

    @pytest.mark.parametrize("n", [2, 3])
    def test_entry_times_q_fails_hecke_and_yang_baxter(self, n):
        # negative control: each entry of the braiding in turn, times q
        R = build_rhat(n)
        q = QLaurent.q_power(1)
        for c, col in R.cols.items():
            for r in col:
                cols = R.cols
                cols[c][r] = cols[c][r] * q
                bad = SparseMatrix(R.dim, cols)
                assert check_hecke(n, bad)["status"] == "fail", (r, c)
                assert check_yang_baxter(n, bad)["status"] == "fail", (r, c)

    @pytest.mark.parametrize("n", [2, 3])
    def test_tensor_labels_are_the_coproduct_labels(self, n):
        rep = coproduct_rep([natural_rep(n), natural_rep(n)], DELTA)
        assert [braiding._tensor_label(n, 2, c) for c in range(n * n)] == \
            [rep.label(c) for c in range(n * n)]
        cube = coproduct_rep([natural_rep(n)] * 3, DELTA)
        assert [braiding._tensor_label(n, 3, c) for c in range(n ** 3)] == \
            [cube.label(c) for c in range(n ** 3)]

    @pytest.mark.parametrize("i,cube", [(1, "v2(x)v1(x)v1"), (2, "v2(x)v2(x)v1"),
                                        (3, "v3(x)v3(x)v1")])
    def test_doubled_diagonal_entry_names_its_column(self, i, cube):
        # negative control: the entry of R at v_i(x)v_i, times 2, breaks the
        # Hecke relation and the flip at that column; on the cube, v1(x)v1(x)v1
        # is an eigenvector of both sides whatever that entry is
        n = 3
        R = build_rhat(n)
        c = tensor_index(i, i, n)
        cols = R.cols
        cols[c][c] = cols[c][c].scale(2)
        bad = SparseMatrix(R.dim, cols)
        ident = SparseMatrix.identity(R.dim)
        lhs = (bad - ident.scale(QLaurent.q_power(1))) * (bad + ident.scale(QLaurent.q_power(-1)))
        assert min(lhs.cols) == c
        diagonal = f"v{i}(x)v{i}"
        for check, witness in ((check_hecke, diagonal), (check_yang_baxter, cube),
                               (check_classical_limit, diagonal)):
            record = check(n, bad)
            assert (record["status"], record["witness"]) == ("fail", witness), check.__name__

    @pytest.mark.parametrize("n,dims", [(2, (3, 1)), (3, (6, 3)), (4, (10, 6))])
    def test_sym2q_dims(self, n, dims):
        assert sym2q_dims(n) == dims

    def test_swapped_eigenvalues_pass_hecke_but_fail_limit(self):
        # sanity case pinning the sign convention: swapping the eigenvalues
        # still satisfies the quadratic relation and the intertwiner property
        # but the q -> 1 limit is no longer the flip
        n = 2
        swapped = _assemble_rhat(n, QLaurent({-1: -1}), QLaurent({1: 1}))
        assert check_hecke(n, swapped)["status"] == "pass"
        assert check_intertwiner(n, swapped)["status"] == "pass"
        limit = check_classical_limit(n, swapped)
        assert (limit["status"], limit["witness"]) == ("fail", "v1(x)v1")

    def test_other_comultiplication_fails_intertwiner(self, monkeypatch):
        # negative control: the braiding intertwines Delta, not Delta-tilde;
        # the torus generators are group-like under both and still commute
        monkeypatch.setattr(braiding, "DELTA", DELTA_TILDE)
        report = check_intertwiner(3)
        assert report["status"] == "fail"
        failed = [(c["generator"], c.get("witness")) for c in report["checks"]
                  if c["status"] == "fail"]
        assert failed == [("E1", "v1(x)v2"), ("F1", "v1(x)v1"), ("E2", "v2(x)v3"),
                          ("F2", "v2(x)v2")]


class TestHighestWeightVectorsOfSquare:
    @pytest.mark.parametrize("n", [2, 3])
    def test_annihilation_and_weights(self, n):
        rep = coproduct_rep([natural_rep(n), natural_rep(n)], DELTA)
        wedge_hw = {tensor_index(1, 2, n): QLaurent.one(),
                    tensor_index(2, 1, n): QLaurent({-1: -1})}
        sym_hw = {tensor_index(1, 1, n): QLaurent.one()}
        for i in range(1, n):
            assert rep.E(i).apply(wedge_hw) == {}
            assert rep.E(i).apply(sym_hw) == {}
        for i in range(1, n):
            # K-weight exponents <alpha_i, eps_1 + eps_2> and <alpha_i, 2 eps_1>
            w_wedge = 1 if i == 2 else 0
            w_sym = 2 if i == 1 else 0
            got = rep.K(i).apply(wedge_hw)
            assert got == {k: v * QLaurent.q_power(w_wedge) for k, v in wedge_hw.items()}
            got = rep.K(i).apply(sym_hw)
            assert got == {k: v * QLaurent.q_power(w_sym) for k, v in sym_hw.items()}
