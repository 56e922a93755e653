import pytest

from qhowe.qgroup import (
    DELTA,
    DELTA_TILDE,
    Representation,
    check_relations,
    check_serre,
    coproduct_rep,
    natural_rep,
)
from qhowe.sparsemat import SparseMatrix
from qhowe.qscalar import QLaurent


def basis_vec(rep, j):
    """Column vector e_j (1-based) as a sparse dict."""
    return {j - 1: QLaurent.one()}


def test_natural_rep_examples():
    rep = natural_rep(2)
    assert rep.E(1).apply(basis_vec(rep, 2)) == {0: QLaurent.one()}
    assert rep.F(1).apply(basis_vec(rep, 1)) == {1: QLaurent.one()}
    rep = natural_rep(3)
    assert rep.L(2).apply(basis_vec(rep, 2)) == {1: QLaurent.q_power(1)}
    assert rep.L(2).apply(basis_vec(rep, 1)) == {0: QLaurent.one()}


@pytest.mark.parametrize("p", range(1, 7))
def test_natural_rep_passes_suites(p):
    rep = natural_rep(p)
    assert check_relations(rep)["status"] == "pass"
    assert check_serre(rep)["status"] == "pass"


def test_corrupted_rep_fails_with_witness():
    rep = natural_rep(3)
    rep.mats[("E", 1)] = SparseMatrix(3)
    report = check_relations(rep)
    assert report["status"] == "fail"
    failures = [c for c in report["checks"] if c["status"] == "fail"]
    assert any(c["relation"].startswith("[E,F]") and "witness" in c for c in failures)


class TestCoproduct:
    def test_delta_E_example(self):
        rep = coproduct_rep([natural_rep(2), natural_rep(2)], DELTA)
        # v_1 (x) v_2 is index 0*2 + 1 = 1; E_1 sends it to v_1 (x) v_1
        out = rep.E(1).apply({1: QLaurent.one()})
        assert out == {0: QLaurent.one()}

    def test_delta_L_grouplike(self):
        rep = coproduct_rep([natural_rep(2), natural_rep(2)], DELTA)
        out = rep.L(1).apply({0: QLaurent.one()})
        assert out == {0: QLaurent.q_power(2)}

    def test_delta_tilde_E_example(self):
        rep = coproduct_rep([natural_rep(2), natural_rep(2)], DELTA_TILDE)
        # derived termwise: E (x) 1 + K (x) E on v_2 (x) v_2, with K v_2 = q^-1 v_2
        out = rep.E(1).apply({3: QLaurent.one()})
        assert out == {1: QLaurent.one(), 2: QLaurent.q_power(-1)}

    @pytest.mark.parametrize("convention", [DELTA, DELTA_TILDE])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("copies", [2, 3])
    def test_tensor_reps_pass_suites(self, convention, p, copies):
        rep = coproduct_rep([natural_rep(p)] * copies, convention)
        assert check_relations(rep)["status"] == "pass"
        assert check_serre(rep)["status"] == "pass"

    @pytest.mark.parametrize("convention", [DELTA, DELTA_TILDE])
    @pytest.mark.parametrize("p", [2, 3])
    def test_coassociativity(self, convention, p):
        one = natural_rep(p)
        left = coproduct_rep([coproduct_rep([one, one], convention), one], convention)
        right = coproduct_rep([one, coproduct_rep([one, one], convention)], convention)
        flat = coproduct_rep([one, one, one], convention)
        for (gen, a), (_, b), (_, c) in zip(
            left.generator_items(), right.generator_items(), flat.generator_items()
        ):
            assert a == b == c, gen

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            coproduct_rep([natural_rep(2), natural_rep(3)])


def test_missing_generator_rejected():
    rep = natural_rep(2)
    mats = dict(rep.mats)
    del mats[("E", 1)]
    with pytest.raises(ValueError):
        Representation(2, 2, mats)


def test_report_shape():
    report = check_relations(natural_rep(2))
    assert set(report) == {"status", "checks"}
    for entry in report["checks"]:
        assert {"relation", "indices", "status"} <= set(entry)


# -- negative controls for the torus relations -----------------------------------


def tensor_rep():
    return coproduct_rep([natural_rep(3), natural_rep(3)], DELTA)


def failures(report, relation):
    return [c for c in report["checks"] if c["relation"] == relation and c["status"] == "fail"]


def test_controls_pass_unperturbed():
    rep = tensor_rep()
    assert check_relations(rep)["status"] == "pass"


def test_E_entry_off_its_weight_fails_conjugation():
    rep = tensor_rep()
    cols = rep.E(1).cols
    c = min(cols)
    r = min(cols[c])
    # move E_1's entry (r, c) onto the diagonal, where K_1 conjugation gives q^0
    col = dict(cols[c])
    col[c] = col.pop(r)
    cols[c] = col
    rep.mats[("E", 1)] = SparseMatrix(rep.dim, cols)
    bad = failures(check_relations(rep), "K E K^-1 = q^a E")
    assert bad and all(isinstance(b.get("witness"), str) for b in bad)
    assert any(b["indices"] == [1, 1] and b["witness"] == rep.label(c) for b in bad)


@pytest.mark.parametrize("entry", [QLaurent.q_power(1), QLaurent({0: 2})])
def test_perturbed_K_fails_EF_target(entry):
    rep = tensor_rep()
    cols = rep.L(1).cols
    cols[0] = {0: entry}  # L_1 on v1 (x) v1 is q^2; replace it
    rep.mats[("L", 1)] = SparseMatrix(rep.dim, cols)
    report = check_relations(rep)
    bad = failures(report, "[E,F] = (K-K^-1)/(q-q^-1)")
    assert bad and all("witness" in b for b in bad)
    # a state witness for a non-monomial K too: nothing is divided
    assert [b["witness"] for b in bad] == [rep.label(0)]
    # the conjugations that meet the changed entry fail as well
    assert [(b["indices"], b["witness"]) for b in failures(report, "K E K^-1 = q^a E")] == [
        ([1, 1], rep.label(1))]
    assert [(b["indices"], b["witness"])
            for b in failures(report, "L F L^-1 = q^-<eps,alpha> F")] == [([1, 1], rep.label(0))]
