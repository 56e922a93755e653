from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

from qhowe import cli, embeddings, qclifford, report
from qhowe.duality import cyclic_span_dims
from qhowe.embeddings import (
    COL,
    COL_ABOVE,
    COL_BELOW,
    ROW,
    ROW_LEFT,
    ROW_RIGHT,
    KappaFactor,
    check_commutant,
    check_composition,
    check_dequantization,
    check_tensor_character,
    classical_lambda,
    classical_rho,
    compose_phi_theta,
    explain,
    lambda_q,
    lambda_rep,
    phi_q,
    phi_rep,
    rho_q,
    rho_rep,
    theta,
)
from qhowe.fockspace import GridShape, grid_to_linear, state_to_string
from qhowe.qclifford import OMEGA, OMEGA_INV, OperatorExpr
from qhowe.qgroup import Representation, check_relations, check_serre, generator_keys
from qhowe.qscalar import QLaurent
from qhowe.sparsemat import SparseMatrix


def S(text):
    """The occupancy word rendered as text, position 1 leftmost."""
    return int(text[::-1], 2)


def V(text, coeff=QLaurent.one()):
    """The basis vector of an occupancy word, as a sparse vector."""
    return {S(text): coeff}


class TestPhi:
    def test_examples(self):
        assert phi_q(2, "E", 1).apply(V("01")) == V("10")
        assert phi_q(2, "L", 1).apply(V("10")) == V("10", QLaurent({1: 1}))
        assert phi_q(3, "F", 2).apply(V("010")) == V("001")

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            phi_q(3, "E", 3)
        with pytest.raises(ValueError):
            phi_q(3, "L", 4)


class TestTheta:
    def test_m1_collapse(self):
        terms = theta(2, 1, "E", 1)
        assert terms == [(QLaurent.one(), (("E", 1),))]

    def test_two_by_two_words(self):
        terms = theta(2, 2, "E", 1)
        assert [w for _, w in terms] == [(("E", 1), ("K", 3)), (("E", 3),)]
        terms = theta(2, 2, "L", 1)
        assert [w for _, w in terms] == [(("L", 1), ("L", 3))]
        terms = theta(2, 2, "F", 1)
        assert [w for _, w in terms] == [(("F", 1),), (("Kinv", 1), ("F", 3))]


class TestLambdaRho:
    def test_lambda_examples(self):
        out = lambda_q(2, 2, "E", 1).apply(V("0101"))
        assert out == {S("1001"): QLaurent({-1: 1}), S("0110"): QLaurent({0: 1})}
        out = lambda_q(2, 2, "L", 1).apply(V("1010"))
        assert out == V("1010", QLaurent({2: 1}))

    def test_rho_example(self):
        assert rho_q(2, 2, "E", 1).apply(V("0010")) == V("1000")

    def test_m1_is_phi(self):
        for kind, i in [("E", 1), ("F", 1), ("L", 2)]:
            assert lambda_q(3, 1, kind, i).to_matrix() == phi_q(3, kind, i).to_matrix()

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (1, 4)])
    def test_relation_suites(self, n, m):
        for rep in (lambda_rep(n, m), rho_rep(n, m)):
            assert check_relations(rep)["status"] == "pass"
            assert check_serre(rep)["status"] == "pass"


class TestKappaFactor:
    def test_boundary_products_empty(self):
        sh = GridShape(3, 4)
        assert KappaFactor(sh, ROW_RIGHT, 1, 4).omega_gens() == ()
        assert KappaFactor(sh, ROW_LEFT, 1, 1).omega_gens() == ()
        assert KappaFactor(sh, COL_ABOVE, 1, 2).omega_gens() == ()

    def test_row_segment_expansion(self):
        sh = GridShape(2, 3)
        gens = KappaFactor(sh, ROW_RIGHT, 1, 1).omega_gens()
        # columns 2 and 3 on rows 1, 2: positions (3,4) and (5,6)
        assert [(g.kind, g.index) for g in gens] == [
            ("winv", 3), ("w", 4), ("winv", 5), ("w", 6)]

    def test_k_expansion_row_only(self):
        sh = GridShape(2, 3)
        gens = KappaFactor(sh, ROW_LEFT, 1, 3).k_gens(invert=True)
        assert [(g.kind, g.index) for g in gens] == [("Kinv", 1), ("Kinv", 3)]
        with pytest.raises(ValueError):
            KappaFactor(sh, COL_ABOVE, 2, 1).k_gens()


class TestComposition:
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (1, 5), (4, 1)])
    def test_phi_theta_equals_lambda(self, n, m):
        assert check_composition(n, m)["status"] == "pass"

    def test_single_generator(self):
        a = lambda_q(3, 2, "F", 2).to_matrix()
        b = compose_phi_theta(3, 2, "F", 2).to_matrix()
        assert a == b


class TestClassical:
    def figure_state(self):
        # 3 x 4 grid with occupied cells (1,1),(1,3),(1,4),(2,1),(2,3),(3,1),(3,2),(3,4)
        sh = GridShape(3, 4)
        bits = 0
        for i, j in [(1, 1), (1, 3), (1, 4), (2, 1), (2, 3), (3, 1), (3, 2), (3, 4)]:
            bits |= 1 << (grid_to_linear(sh, i, j) - 1)
        return {bits: QLaurent.one()}

    def test_row_shift_signs(self):
        # E_2 shifts row 3 to row 2; columns 1 and 3 die (occupied target /
        # vacant source), columns 2 and 4 survive.  Adjacent-position moves
        # pick up no sign: composite sign is (-1)^(occupied strictly between).
        out = classical_lambda(3, 4, "E", 2).apply(self.figure_state())
        sh = GridShape(3, 4)
        expected = {}
        base = self.figure_state()
        (bits,) = base
        for j in (2, 4):
            src = grid_to_linear(sh, 3, j)
            dst = grid_to_linear(sh, 2, j)
            expected[bits ^ (1 << (src - 1)) | (1 << (dst - 1))] = QLaurent.one()
        assert out == expected

    def test_column_shift_signs(self):
        # E_2 shifts column 3 to column 2; rows 1, 2 survive with signs
        # (-1)^1 and (-1)^2 (occupied count strictly between the endpoints)
        out = classical_rho(3, 4, "E", 2).apply(self.figure_state())
        sh = GridShape(3, 4)
        (bits,) = self.figure_state()
        expected = {}
        for i, sign in ((1, -1), (2, 1)):
            src = grid_to_linear(sh, i, 3)
            dst = grid_to_linear(sh, i, 2)
            expected[bits ^ (1 << (src - 1)) | (1 << (dst - 1))] = QLaurent.from_rational(sign)
        assert out == expected

    def test_column_degree_operator(self):
        out = classical_rho(3, 4, "L", 4).apply(self.figure_state())
        (bits,) = self.figure_state()
        assert out == {bits: QLaurent.from_rational(2)}

    def test_vacuum_killed(self):
        assert not classical_lambda(2, 2, "E", 1).apply(V("0000"))


def at_one(op):
    """The q = 1 values of op's matrix as (int columns, common scale)."""
    return op.to_matrix().specialize_ints(1)


class TestDequantize:
    def test_examples(self):
        assert at_one(lambda_q(2, 2, "E", 1)) == at_one(classical_lambda(2, 2, "E", 1))
        assert at_one(rho_q(2, 3, "F", 2)) == at_one(classical_rho(2, 3, "F", 2))

    def test_omega_dequantizes_to_identity(self):
        assert at_one(OperatorExpr.omega(2, 3)) == ({c: {c: 1} for c in range(8)}, Fraction(1))

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_suite(self, n, m):
        assert check_dequantization(n, m)["status"] == "pass"


class TestCommutant:
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_all_pairs_commute(self, n, m):
        assert check_commutant(n, m)["status"] == "pass"


class TestTensorCharacter:
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (1, 4), (4, 1)])
    def test_multisets_agree(self, n, m):
        assert check_tensor_character(n, m)["status"] == "pass"

    @pytest.mark.parametrize("n,m,state", [(2, 2, "0000"), (2, 3, "101000"), (3, 2, "111111")])
    def test_shifted_grid_weight_fails(self, monkeypatch, n, m, state):
        # negative control: the grid lambda_q(L_1) as the torus word over the
        # occupied positions of state (one w^-1 each) instead of row 1's
        # cells; the tensor side is built as before
        assert check_tensor_character(n, m)["status"] == "pass"
        original = embeddings.lambda_q
        word = [(OMEGA_INV, k) for k in range(1, n * m + 1) if state[k - 1] == "1"]

        def mutant(n, m, kind, index):
            if (kind, index) == ("L", 1):
                return OperatorExpr.word(n * m, word)
            return original(n, m, kind, index)

        monkeypatch.setattr(embeddings, "lambda_q", mutant)
        assert check_tensor_character(n, m)["status"] == "fail"
        assert check_tensor_character(n, m) == ref_check_tensor_character(n, m)

    @pytest.mark.parametrize("n,m,a,witness", [
        # position 1 weighs 2 in L_1: one grid state of weight (1, 0), two tensor states
        (2, 2, 1, "weight [1, 0]: grid 1, tensor 2"),
        (2, 3, 3, "weight [1, 0]: grid 2, tensor 3"),
        (3, 2, 5, "weight [0, 1, 0]: grid 1, tensor 2"),
        (3, 3, 9, "weight [0, 0, 1]: grid 2, tensor 3"),
    ])
    def test_shifted_weight_names_its_witness(self, monkeypatch, n, m, a, witness):
        # negative control: lambda_q(L_i) of the row holding position a times
        # one more w_a^-1, built by the operator algebra, so one weight shifts
        i = (a - 1) % n + 1
        original = embeddings.lambda_q

        def mutant(n, m, kind, index):
            op = original(n, m, kind, index)
            return op * OperatorExpr.omega_inv(a, n * m) if (kind, index) == ("L", i) else op

        monkeypatch.setattr(embeddings, "lambda_q", mutant)
        got = check_tensor_character(n, m)
        assert got["status"] == "fail" and got["witness"] == witness
        assert got == ref_check_tensor_character(n, m)


def test_explain_output():
    text = explain("lambda_q", 2, 2, "E", 1)
    assert text.startswith("lambda_q(E1) = ")
    assert "psid1" in text and "psi2" in text
    text = explain("theta", 2, 2, "E", 1)
    assert "E1 K3" in text and "E3" in text


# Every generator image at 2x3; pins the paper's display order term by term.
EXPLAIN_2x3 = {
    ("phi_q", "E1"): "q^-1 w1^-1 psid1 psi2",
    ("phi_q", "F1"): "w1 psid2 psi1",
    ("phi_q", "L1"): "w1^-1",
    ("phi_q", "Linv1"): "w1",
    ("phi_q", "L2"): "w2^-1",
    ("phi_q", "Linv2"): "w2",
    ("phi_q", "K1"): "w1^-1 w2",
    ("phi_q", "Kinv1"): "w1 w2^-1",
    ("theta", "E1"): "E1 K3 K5 + E3 K5 + E5",
    ("theta", "F1"): "F1 + K1^-1 F3 + K1^-1 K3^-1 F5",
    ("theta", "L1"): "L1 L3 L5",
    ("theta", "Linv1"): "L1^-1 L3^-1 L5^-1",
    ("theta", "L2"): "L2 L4 L6",
    ("theta", "Linv2"): "L2^-1 L4^-1 L6^-1",
    ("theta", "K1"): "K1 K3 K5",
    ("theta", "Kinv1"): "K1^-1 K3^-1 K5^-1",
    ("lambda_q", "E1"): (
        "q^-1 w1^-1 psid1 psi2 w3^-1 w4 w5^-1 w6 + "
        "q^-1 w3^-1 psid3 psi4 w5^-1 w6 + q^-1 w5^-1 psid5 psi6"),
    ("lambda_q", "F1"): "w1 psid2 psi1 + w3 w1 w2^-1 psid4 psi3 + w5 w1 w2^-1 w3 w4^-1 psid6 psi5",
    ("lambda_q", "L1"): "w1^-1 w3^-1 w5^-1",
    ("lambda_q", "Linv1"): "w1 w3 w5",
    ("lambda_q", "L2"): "w2^-1 w4^-1 w6^-1",
    ("lambda_q", "Linv2"): "w2 w4 w6",
    ("lambda_q", "K1"): "w1^-1 w2 w3^-1 w4 w5^-1 w6",
    ("lambda_q", "Kinv1"): "w1 w2^-1 w3 w4^-1 w5 w6^-1",
    ("rho_q", "E1"): "psid1 psi3 + w1^-1 w3 psid2 psi4",
    ("rho_q", "F1"): "psid3 psi1 w2 w4^-1 + psid4 psi2",
    ("rho_q", "E2"): "psid3 psi5 + w3^-1 w5 psid4 psi6",
    ("rho_q", "F2"): "psid5 psi3 w4 w6^-1 + psid6 psi4",
    ("rho_q", "L1"): "w1^-1 w2^-1",
    ("rho_q", "Linv1"): "w1 w2",
    ("rho_q", "L2"): "w3^-1 w4^-1",
    ("rho_q", "Linv2"): "w3 w4",
    ("rho_q", "L3"): "w5^-1 w6^-1",
    ("rho_q", "Linv3"): "w5 w6",
    ("rho_q", "K1"): "w1^-1 w3 w2^-1 w4",
    ("rho_q", "Kinv1"): "w1 w3^-1 w2 w4^-1",
    ("rho_q", "K2"): "w3^-1 w5 w4^-1 w6",
    ("rho_q", "Kinv2"): "w3 w5^-1 w4 w6^-1",
    ("classical_lambda", "E1"): "psid1 psi2 + psid3 psi4 + psid5 psi6",
    ("classical_lambda", "F1"): "psid2 psi1 + psid4 psi3 + psid6 psi5",
    ("classical_lambda", "L1"): "psid1 psi1 + psid3 psi3 + psid5 psi5",
    ("classical_lambda", "L2"): "psid2 psi2 + psid4 psi4 + psid6 psi6",
    ("classical_rho", "E1"): "psid1 psi3 + psid2 psi4",
    ("classical_rho", "F1"): "psid3 psi1 + psid4 psi2",
    ("classical_rho", "E2"): "psid3 psi5 + psid4 psi6",
    ("classical_rho", "F2"): "psid5 psi3 + psid6 psi4",
    ("classical_rho", "L1"): "psid1 psi1 + psid2 psi2",
    ("classical_rho", "L2"): "psid3 psi3 + psid4 psi4",
    ("classical_rho", "L3"): "psid5 psi5 + psid6 psi6",
}


@pytest.mark.parametrize("map_name,gen", sorted(EXPLAIN_2x3))
def test_explain_pins_display_order(map_name, gen):
    kind = gen.rstrip("0123456789")
    index = int(gen[len(kind):])
    expected = f"{map_name}({gen}) = {EXPLAIN_2x3[map_name, gen]}"
    assert explain(map_name, 2, 3, kind, index) == expected


# One corrupted line-pair table entry each: (key, field, new value, suites
# that must report fail).  Fields: 0 q-exponent, 1 generators before the
# kappa segment, 2 segment orientation, 3 generators after it.  One measured
# mutant is left out because no check can see it: dropping w_a from lambda F
# changes no matrix (psi_a has already emptied position a).  Removing every
# kappa segment is no table entry; test_kappa_less_mutant_* hold it.
TABLE_MUTANTS = {
    "lambda E kappa right -> left": ((ROW, "E"), 2, ROW_LEFT,
                                     ("composition", "commutant", "lambda_relations")),
    "lambda F kappa left -> right": ((ROW, "F"), 2, ROW_RIGHT,
                                     ("composition", "commutant", "lambda_relations")),
    "rho E kappa above -> below": ((COL, "E"), 2, COL_BELOW, ("commutant", "rho_relations")),
    "rho F kappa below -> above": ((COL, "F"), 2, COL_ABOVE, ("commutant", "rho_relations")),
    "lambda E without q^-1": ((ROW, "E"), 0, 0, ("composition", "lambda_relations")),
    "rho E with an extra w_a": ((COL, "E"), 1, ((OMEGA, "a"),), ("rho_relations",)),
}


def mutate(monkeypatch, name):
    """Install the TABLE_MUTANTS entry name; returns the suites it must fail."""
    key, field, value, failing = TABLE_MUTANTS[name]
    entry = list(embeddings._QUANTUM_IMAGES[key])
    entry[field] = value
    monkeypatch.setitem(embeddings._QUANTUM_IMAGES, key, tuple(entry))
    return failing


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
@pytest.mark.parametrize("name", sorted(TABLE_MUTANTS))
def test_corrupted_table_entry_fails(monkeypatch, name, n, m):
    failing = mutate(monkeypatch, name)
    status = {
        "composition": lambda: check_composition(n, m)["status"],
        "commutant": lambda: check_commutant(n, m)["status"],
        "lambda_relations": lambda: check_relations(lambda_rep(n, m))["status"],
        "rho_relations": lambda: check_relations(rho_rep(n, m))["status"],
    }
    for suite in failing:
        assert status[suite]() == "fail", suite


@pytest.mark.parametrize("mutant,check,first", [
    pytest.param("rho E kappa above -> below", check_commutant, (["E1", "E1"], "010100"),
                 id="commutant"),
    pytest.param("lambda E kappa right -> left", check_composition, ("E1", "011000"),
                 id="composition"),
])
def test_failed_matrix_check_names_a_state(monkeypatch, mutant, check, first):
    mutate(monkeypatch, mutant)
    failed = [c for c in check(2, 3)["checks"] if c["status"] == "fail"]
    assert failed and all(isinstance(c.get("witness"), str) for c in failed)
    assert all(len(c["witness"]) == 6 and set(c["witness"]) <= {"0", "1"} for c in failed)
    assert (failed[0].get("pair") or failed[0]["generator"], failed[0]["witness"]) == first


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3)])
def test_kappa_less_mutant_fails_composition_and_relations(monkeypatch, n, m):
    # negative control: every kappa segment dropped from lambda_q and rho_q.
    # The segments are products of w's: the q = 1 limit drops them, the torus
    # words hold none, and the commutant and the span dimensions were
    # measured blind to them; composition and the relation suites see them
    monkeypatch.setattr(KappaFactor, "omega_gens", lambda self, invert=False: ())
    failing = {
        "composition": check_composition(n, m),
        "lambda_relations": check_relations(lambda_rep(n, m)),
        "rho_relations": check_relations(rho_rep(n, m)),
    }
    for suite, result in failing.items():
        assert result["status"] == "fail", suite
        witness = next(c for c in result["checks"] if c["status"] == "fail")["witness"]
        assert len(witness) == n * m and set(witness) <= {"0", "1"}, suite
    for check in (check_commutant, check_dequantization, check_tensor_character,
                  cyclic_span_dims):
        assert check(n, m)["status"] == "pass", check.__name__


def test_kappa_less_mutant_fails_qhowe_all(monkeypatch, capsys):
    monkeypatch.setattr(KappaFactor, "omega_gens", lambda self, invert=False: ())
    assert cli.main(["--n", "2", "--m", "3", "all"]) == cli.CHECK_FAILURE
    lines = capsys.readouterr().out.splitlines()
    assert "  FAIL lambda_q = phi_q o theta composition E1 011000" in lines
    assert lines[-1] == "overall: fail"


def test_commutant_fails_through_the_diagonal_route(monkeypatch):
    # negative control: L1 as w_1^-1 alone is diagonal but scales position 1,
    # which the first column pair's E1 and F1 move
    original = embeddings.lambda_q

    def mutant(n, m, kind, index):
        if (kind, index) == ("L", 1):
            return OperatorExpr.omega_inv(1, n * m)
        return original(n, m, kind, index)

    monkeypatch.setattr(embeddings, "lambda_q", mutant)
    failed = [(c["pair"], c.get("witness")) for c in check_commutant(2, 3)["checks"]
              if c["status"] == "fail"]
    assert failed == [(["L1", "E1"], "001000"), (["L1", "F1"], "100000")]


def test_dequantization_sees_an_off_diagonal_degree_entry(monkeypatch):
    # negative control: the classical degree operator Lbar_1 plus a stray hop
    original = embeddings.classical_lambda

    def mutant(n, m, kind, index):
        op = original(n, m, kind, index)
        if (kind, index) == ("L", 1):
            op = op + OperatorExpr(n * m, [(1, [("psid", 1), ("psi", 2)])], classical=True)
        return op

    monkeypatch.setattr(embeddings, "classical_lambda", mutant)
    failed = [(c["relation"], c["generator"], c.get("witness"))
              for c in check_dequantization(2, 2)["checks"] if c["status"] == "fail"]
    # 0100 is the first state the hop psid_1 psi_2 acts on
    assert failed == [("lambda_q(L) = q^(classical degree)", "L1", "0100")]


@pytest.mark.parametrize("builder,gen,mutate,relation", [
    # the classical E1 times 2 against the unscaled quantum E1 at q = 1
    pytest.param("classical_lambda", ("E", 1), lambda op: op.scale(2),
                 "lambda_q|q=1 = classical", id="classical-E1-times-2"),
    # the quantum L1 plus a hop is no longer a monomial diagonal
    pytest.param("lambda_q", ("L", 1),
                 lambda op: op + OperatorExpr(op.length, [(1, [("psid", 1), ("psi", 2)])]),
                 "lambda_q(L) = q^(classical degree)", id="quantum-L1-plus-a-hop"),
])
def test_dequantization_names_the_first_differing_state(monkeypatch, builder, gen, mutate,
                                                        relation):
    # negative controls: in both mutants the first column that changes is
    # that of 0100, the first state psid_1 psi_2 acts on
    original = getattr(embeddings, builder)

    def mutant(n, m, kind, index):
        op = original(n, m, kind, index)
        return mutate(op) if (kind, index) == gen else op

    monkeypatch.setattr(embeddings, builder, mutant)
    failed = [(c["relation"], c["generator"], c.get("witness"))
              for c in check_dequantization(2, 2)["checks"] if c["status"] == "fail"]
    assert failed == [(relation, f"{gen[0]}{gen[1]}", "0100")]


def test_split_torus_coefficient_is_no_torus_word(monkeypatch):
    # negative control: lambda_q L1 times q + q^-1 compiles to two words of
    # coefficient 1, q L1 and q^-1 L1; neither is the torus word of L1
    original = embeddings.lambda_q

    def mutant(n, m, kind, index):
        op = original(n, m, kind, index)
        return op.scale(QLaurent({1: 1, -1: 1})) if (kind, index) == ("L", 1) else op

    monkeypatch.setattr(embeddings, "lambda_q", mutant)
    assert original(2, 3, "L", 1).torus_weights() == (0, ((1, 0b10101),))
    assert embeddings.lambda_q(2, 3, "L", 1).torus_weights() is None
    result = check_dequantization(2, 3)
    failed = [(c["relation"], c["generator"], c.get("witness"))
              for c in result["checks"] if c["status"] == "fail"]
    assert failed == [("lambda_q(L) = q^(classical degree)", "L1", "000000")]
    assert result == ref_check_dequantization(2, 3)


def matrix_rep(rep):
    """rep with every generator realized as its matrix: the matrix path of
    the relation checks, against the word path of rep itself."""
    mats = {key: op.to_matrix() for key, op in rep.mats.items()}
    return Representation(rep.rank, rep.dim, mats, rep.label)


def is_diagonal(mat):
    return all(col.keys() == {c} for c, col in mat.cols.items())


@pytest.mark.parametrize("build", [lambda_rep, rho_rep])
def test_torus_generators_take_the_diagonal_form(build):
    # the matrices are those the matrix oracles below build
    rep = build(2, 3)
    builder = lambda_q if build is lambda_rep else rho_q
    mats = Representation(rep.rank, rep.dim, {
        key: builder(2, 3, *key).to_matrix() for key in generator_keys(rep.rank)})
    torus = [mats.gen(kind, i) for kind in ("L", "Linv") for i in range(1, rep.rank + 1)]
    torus += [mats.gen(kind, i) for kind in ("K", "Kinv") for i in range(1, rep.rank)]
    torus += [builder(2, 3, kind, i).to_matrix()
              for kind in ("K", "Kinv") for i in range(1, rep.rank)]
    assert all(is_diagonal(mat) and mat.nnz() == rep.dim for mat in torus)
    assert mats.K(1) is mats.gen("K", 1)  # the cached K is the one checked
    assert rep.K(1) is rep.gen("K", 1)
    degree = (classical_lambda if build is lambda_rep else classical_rho)(2, 3, "L", 1)
    assert is_diagonal(degree.to_matrix())


def test_relations_fail_on_a_changed_diagonal_entry():
    # negative control: one entry of rho L^-1_1 times q, once as a diagonal
    # matrix and once as a word sum on the word path
    rep = rho_rep(2, 3)
    mats = matrix_rep(rep)
    state = 0b000011  # occupies positions 1 and 2, both in column 1
    entries = [mats.Linv(1).entry(s, s) for s in range(rep.dim)]
    entries[state] = entries[state] * QLaurent.q_power(1)
    bad = SparseMatrix.diagonal(entries)
    # its word twin: n_1 n_2 = psid_1 psi_1 psid_2 psi_2 is 1 on the states
    # with positions 1 and 2 occupied, the smallest of which is this state
    number = OperatorExpr.word(6, [("psid", 1), ("psi", 1), ("psid", 2), ("psi", 2)])
    bad_word = rep.Linv(1) + (rep.Linv(1) * number).scale(QLaurent({1: 1, 0: -1}))
    for base, linv in ((mats, bad), (rep, bad_word)):
        mutant = Representation(rep.rank, rep.dim, {**base.mats, ("Linv", 1): linv}, rep.label,
                                base.identity)
        failed = [c for c in check_relations(mutant)["checks"]
                  if c["relation"] == "L L^-1 = 1" and c["status"] == "fail"]
        assert failed == [{"relation": "L L^-1 = 1", "indices": [1], "status": "fail",
                           "witness": rep.label(state)}]
        assert check_relations(base)["status"] == "pass"


# -- the word path of the relation checks against the matrix path ---------------

SHAPES_UP_TO_9 = [(n, m) for n in range(1, 10) for m in range(1, 10) if n * m <= 9]


def suite_reports(rep):
    return check_relations(rep), check_serre(rep)


@pytest.mark.parametrize("n,m", SHAPES_UP_TO_9)
def test_word_and_matrix_paths_report_alike(n, m):
    reps = [lambda_rep(n, m), rho_rep(n, m)] + ([phi_rep(n)] if m == 1 else [])
    for rep in reps:
        assert isinstance(rep.E(1) if rep.rank > 1 else rep.L(1), OperatorExpr)
        assert suite_reports(rep) == suite_reports(matrix_rep(rep))


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
@pytest.mark.parametrize("name", sorted(TABLE_MUTANTS))
def test_word_and_matrix_paths_report_alike_under_a_mutant(monkeypatch, name, n, m):
    failing = mutate(monkeypatch, name)
    reps = {"lambda_relations": lambda_rep(n, m), "rho_relations": rho_rep(n, m)}
    for suite, rep in reps.items():
        words = suite_reports(rep)
        assert words == suite_reports(matrix_rep(rep))
        # the comparison covers failed records and their witnesses
        assert (words[0]["status"] == "fail") == (suite in failing)


def test_relation_suites_pass_above_the_old_wall():
    # 25 positions: decided on the words, with no 2^25-column matrix
    for rep in (lambda_rep(5, 5), rho_rep(5, 5)):
        assert rep.dim == 1 << 25
        assert check_relations(rep)["status"] == "pass"
        assert check_serre(rep)["status"] == "pass"


@pytest.mark.parametrize("name", sorted(TABLE_MUTANTS))
def test_corrupted_table_entry_fails_above_the_old_wall(monkeypatch, name):
    failing = mutate(monkeypatch, name)
    suites = [suite for suite in failing if suite.endswith("_relations")]
    assert suites
    for suite in suites:
        rep = (lambda_rep if suite == "lambda_relations" else rho_rep)(5, 5)
        failed = [c for c in check_relations(rep)["checks"] if c["status"] == "fail"]
        assert failed, suite
        assert all(len(c["witness"]) == 25 and set(c["witness"]) <= {"0", "1"} for c in failed)


def test_relation_suites_compile_only_generator_words(monkeypatch):
    # products compose their operands' compiled words: at 2x7 the relation
    # and Serre suites compile each generator word once and no product word
    rep = rho_rep(2, 7)
    words = {word for op in [*rep.mats.values(), rep.identity] for _, word in op.terms}
    calls = []
    compile_word = qclifford._CompiledWord.compile.__func__

    def counted(cls, word):
        calls.append(word)
        return compile_word(cls, word)

    monkeypatch.setattr(qclifford._CompiledWord, "compile", classmethod(counted))
    assert check_relations(rep)["status"] == check_serre(rep)["status"] == "pass"
    assert set(calls) <= words and len(calls) <= len(words)


# -- the word path of the operator checks against their matrix path ------------
#
# The ref_* oracles are the matrix versions of check_composition,
# check_commutant, check_dequantization and check_tensor_character: every
# generator realized as its 2^nm-column matrix.  They look the builders up on
# the module, so monkeypatched mutants reach them too.


def ref_check_composition(n, m):
    label = partial(state_to_string, length=n * m)
    checks = []
    for kind, i in embeddings._gen_list(n):
        direct = embeddings.lambda_q(n, m, kind, i).to_matrix()
        composed = embeddings.compose_phi_theta(n, m, kind, i).to_matrix()
        checks.append(report.match("lambda_q = phi_q o theta", direct, composed, label,
                                   generator=f"{kind}{i}"))
    return report.finish(checks, n=n, m=m)


def ref_check_commutant(n, m):
    label = partial(state_to_string, length=n * m)
    checks = []
    for relation, row_map, col_map, classical in (
        ("[lambda_q, rho_q] = 0", "lambda_q", "rho_q", False),
        ("[lambda, rho] = 0 (classical)", "classical_lambda", "classical_rho", True),
    ):
        row_map, col_map = getattr(embeddings, row_map), getattr(embeddings, col_map)
        rows = [(f"{kind}{i}", row_map(n, m, kind, i).to_matrix())
                for kind, i in embeddings._gen_list(n, classical)]
        cols = [(f"{kind}{j}", col_map(n, m, kind, j).to_matrix())
                for kind, j in embeddings._gen_list(m, classical)]
        for x, X in rows:
            for y, Y in cols:
                checks.append(report.commute(relation, X, Y, label, pair=[x, y]))
    return report.finish(checks, n=n, m=m)


def ref_equal_at_one(qmat, cmat):
    """The first column where qmat and cmat differ at q = 1, or None."""
    (qcols, qs), (ccols, cs) = qmat.specialize_ints(1), cmat.specialize_ints(1)
    kq, kc = qs.numerator * cs.denominator, cs.numerator * qs.denominator
    if kq != kc:
        qcols = {c: {r: v * kq for r, v in col.items()} for c, col in qcols.items()}
        ccols = {c: {r: v * kc for r, v in col.items()} for c, col in ccols.items()}
    if qcols == ccols:
        return None
    return min(c for c in qcols.keys() | ccols.keys() if qcols.get(c) != ccols.get(c))


def ref_diag_exponents(mat):
    """e_c for each column c that is {c: q^(e_c)}, None for any other column."""
    exps = [None] * mat.dim
    for c, col in mat.cols.items():
        term = col[c].single_term() if col.keys() == {c} else None
        if term and term[1] == 1:
            exps[c] = term[0]
    return exps


def ref_diag_exponent_match(qmat, cmat):
    """The first column where the quantum matrix is not q^(classical diagonal
    at q = 1) or the classical matrix has an entry off the diagonal, or None."""
    ccols, scale = cmat.specialize_ints(1)
    num, den = scale.numerator, scale.denominator
    for s, e in enumerate(ref_diag_exponents(qmat)):
        col = ccols.get(s, {})
        if e is None or col.keys() - {s} or col.get(s, 0) * num != e * den:
            return s
    return None


def ref_check_dequantization(n, m):
    label = partial(state_to_string, length=n * m)
    checks = []
    for flavor, qmap, cmap, rank in (
        ("lambda", "lambda_q", "classical_lambda", n),
        ("rho", "rho_q", "classical_rho", m),
    ):
        qmap, cmap = getattr(embeddings, qmap), getattr(embeddings, cmap)
        gens = [(kind, i) for i in range(1, rank) for kind in ("E", "F")]
        for kind, i in gens + [("L", i) for i in range(1, rank + 1)]:
            qmat = qmap(n, m, kind, i).to_matrix()
            cmat = cmap(n, m, kind, i).to_matrix()
            if kind == "L":
                relation = f"{flavor}_q(L) = q^(classical degree)"
                c = ref_diag_exponent_match(qmat, cmat)
            else:
                relation, c = f"{flavor}_q|q=1 = classical", ref_equal_at_one(qmat, cmat)
            checks.append(report.column(relation, c, label, generator=f"{kind}{i}"))
    return report.finish(checks, n=n, m=m)


def ref_weight_counts(torus, copies):
    """{joint weight: number of states} of the torus words on copies tensor
    copies of their module, read off the diagonal matrices."""
    exps = []
    for op in torus:
        factor = tensor = op.to_matrix()
        for _ in range(copies - 1):
            tensor = tensor.kron(factor)
        exps.append(ref_diag_exponents(tensor))
        assert None not in exps[-1]
    return Counter(zip(*exps))


def ref_weight_witness(grid, tensor):
    """The first weight whose grid and tensor counts differ, as the check
    names it; None when the multisets agree."""
    first = min((w for w in grid.keys() | tensor.keys() if grid[w] != tensor[w]), default=None)
    return first and f"weight {list(first)}: grid {grid[first]}, tensor {tensor[first]}"


def ref_check_tensor_character(n, m):
    grid = ref_weight_counts([embeddings.lambda_q(n, m, "L", i) for i in range(1, n + 1)], 1)
    tensor = ref_weight_counts([embeddings.phi_q(n, "L", i) for i in range(1, n + 1)], m)
    return report.check("joint weight multisets agree", grid == tensor,
                        ref_weight_witness(grid, tensor), n=n, m=m, distinct_weights=len(grid))


@st.composite
def torus_sides(draw):
    """(grid torus, tensor torus, positions p, copies): rank words q^e times
    w and w^-1 factors on p positions for the tensor side; the grid side on
    p * copies positions is their layout over the copies, that layout with
    one more factor, or drawn on its own."""
    rank = draw(st.integers(1, 3))
    p, copies = draw(st.sampled_from([(1, 4), (2, 2), (4, 1), (3, 2), (2, 3)]))
    factors = st.tuples(st.sampled_from([OMEGA, OMEGA_INV]), st.integers(1, p))
    spec = [(draw(st.integers(-1, 1)), draw(st.lists(factors, max_size=4))) for _ in range(rank)]
    tensor = [OperatorExpr.word(p, word, coeff=QLaurent.q_power(e)) for e, word in spec]
    form = draw(st.sampled_from(["layout", "layout plus one", "independent"]))
    if form == "independent":
        factors = st.tuples(st.sampled_from([OMEGA, OMEGA_INV]), st.integers(1, p * copies))
        spec = [(draw(st.integers(-2, 2)), draw(st.lists(factors, max_size=6)))
                for _ in range(rank)]
    else:
        spec = [(copies * e, [(kind, k + c * p) for c in range(copies) for kind, k in word])
                for e, word in spec]
        if form == "layout plus one":
            i = draw(st.integers(0, rank - 1))
            spec[i][1].append((draw(st.sampled_from([OMEGA, OMEGA_INV])),
                               draw(st.integers(1, p * copies))))
    grid = [OperatorExpr.word(p * copies, word, coeff=QLaurent.q_power(e)) for e, word in spec]
    return grid, tensor, p, copies


@given(torus_sides())
def test_first_weight_difference_matches_the_multisets(sides):
    # the factored comparison and its witness against the enumerated multisets
    grid_torus, tensor_torus, p, copies = sides
    grid = embeddings._weight_polynomial(grid_torus, p * copies, 1)
    tensor = embeddings._weight_polynomial(tensor_torus, p, copies)
    g, t = ref_weight_counts(grid_torus, 1), ref_weight_counts(tensor_torus, copies)
    assert (grid == tensor) == (g == t)
    assert (embeddings._first_weight_difference(grid, tensor, len(grid_torus))
            == ref_weight_witness(g, t))


OPERATOR_CHECKS = {
    "composition": (check_composition, ref_check_composition),
    "commutant": (check_commutant, ref_check_commutant),
    "dequantization": (check_dequantization, ref_check_dequantization),
    "tensor_character": (check_tensor_character, ref_check_tensor_character),
}


@pytest.mark.parametrize("n,m", SHAPES_UP_TO_9)
@pytest.mark.parametrize("suite", sorted(OPERATOR_CHECKS))
def test_operator_checks_report_alike_on_both_paths(suite, n, m):
    check, ref = OPERATOR_CHECKS[suite]
    assert check(n, m) == ref(n, m)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
@pytest.mark.parametrize("name", sorted(TABLE_MUTANTS))
def test_operator_checks_report_alike_under_a_mutant(monkeypatch, name, n, m):
    failing = mutate(monkeypatch, name)
    for suite, (check, ref) in OPERATOR_CHECKS.items():
        words = check(n, m)
        assert words == ref(n, m), suite
        # the comparison covers failed records and their witnesses
        assert (words["status"] == "fail") == (suite in failing), suite


@pytest.mark.parametrize("name", sorted(TABLE_MUTANTS))
def test_operator_checks_fail_above_the_old_wall(monkeypatch, name):
    # negative controls at 25 positions, decided on the words
    failing = mutate(monkeypatch, name)
    suites = [suite for suite in ("composition", "commutant") if suite in failing]
    for suite in suites:
        failed = [c for c in OPERATOR_CHECKS[suite][0](5, 5)["checks"] if c["status"] == "fail"]
        assert failed, suite
        assert all(len(c["witness"]) == 25 and set(c["witness"]) <= {"0", "1"} for c in failed)


@pytest.mark.parametrize("kind,mutate_op,fails", [
    # L1 times q: exponent one above the classical degree on every state
    pytest.param("L", lambda op: op.scale(QLaurent.q_power(1)), True, id="L1-times-q"),
    # E1 times 2 differs from the classical E1 at q = 1
    pytest.param("E", lambda op: op.scale(2), True, id="E1-times-2"),
    # E1 with its q-power shifted (q^-1 -> q^-2) is the same operator at
    # q = 1, so no q = 1 check can see it
    pytest.param("E", lambda op: op.scale(QLaurent.q_power(-1)), False, id="E1-shifted-q-power"),
])
def test_dequantization_above_the_old_wall(monkeypatch, kind, mutate_op, fails):
    original = embeddings.lambda_q

    def mutant(n, m, k, index):
        op = original(n, m, k, index)
        return mutate_op(op) if (k, index) == (kind, 1) else op

    monkeypatch.setattr(embeddings, "lambda_q", mutant)
    failed = [c for c in check_dequantization(5, 5)["checks"] if c["status"] == "fail"]
    assert [c["generator"] for c in failed] == ([f"{kind}1"] if fails else [])
    assert all(len(c["witness"]) == 25 and set(c["witness"]) <= {"0", "1"} for c in failed)
