import pytest

from qhowe import qgroup, report
from qhowe.embeddings import lambda_rep, phi_rep, rho_rep
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
from test_embeddings import TABLE_MUTANTS, mutate


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


# -- the Serre suite's shared products against composing each form apart ---------


def ref_check_serre(rep):
    """check_serre composing every product of each form on its own: seven
    triple products per (kind, i, j), x_i x_j again for (j, i)."""
    p = rep.rank
    checks = []
    zero = rep.identity.scale(0)
    q1, qm1 = QLaurent.q_power(1), QLaurent.q_power(-1)
    two_q = q1 + qm1  # [2]_q

    for kind in ("E", "F"):
        for i in range(1, p):
            for j in range(1, p):
                if i == j:
                    continue
                xi = rep.gen(kind, i)
                xj = rep.gen(kind, j)
                if abs(i - j) > 1:
                    if i < j:
                        checks.append(report.commute(f"[{kind},{kind}] = 0 (far)", xi, xj,
                                                     rep.label, indices=[i, j]))
                    continue
                xixj = xi * xj
                xjxi = xj * xi
                lhs = xi * xixj - (xi * xjxi).scale(two_q) + xjxi * xi
                checks.append(report.match(f"{kind}-Serre (q-binomial form)", lhs, zero,
                                           rep.label, indices=[i, j]))
                inner = xixj - xjxi.scale(q1)  # [X_i, X_j]_q
                nested = xi * inner - (inner * xi).scale(qm1)
                checks.append(report.match(f"{kind}-Serre (nested form)", nested, zero,
                                           rep.label, indices=[i, j]))

    return report.finish(checks)


SERRE_REPS = (
    [(f"natural_rep({p})", lambda p=p: natural_rep(p)) for p in range(2, 7)]
    + [(f"phi_rep({p})", lambda p=p: phi_rep(p)) for p in range(2, 7)]
    + [(f"{build.__name__}({n}, {m})", lambda build=build, n=n, m=m: build(n, m))
       for n, m in ((2, 3), (3, 2), (2, 7), (3, 4)) for build in (lambda_rep, rho_rep)]
)


@pytest.mark.parametrize("name, build", SERRE_REPS, ids=[name for name, _ in SERRE_REPS])
def test_shared_serre_products_match_the_reference(name, build):
    rep = build()
    assert check_serre(rep) == ref_check_serre(rep)


@pytest.mark.parametrize("name", sorted(TABLE_MUTANTS))
@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (3, 3)])
def test_shared_serre_products_match_the_reference_under_mutants(monkeypatch, name, n, m):
    mutate(monkeypatch, name)
    for rep in (lambda_rep(n, m), rho_rep(n, m)):
        assert check_serre(rep) == ref_check_serre(rep)


@pytest.mark.parametrize("build", [lambda: lambda_rep(3, 2), lambda: rho_rep(2, 3),
                                   lambda: rho_rep(3, 4)])
def test_swapped_shared_product_fails_both_forms(monkeypatch, build):
    # negative control: x_j x_i shared in for x_i x_j fails every Serre
    # record of both forms, where composing each form apart passes
    rep = build()
    assert ref_check_serre(rep)["status"] == "pass"
    shared = qgroup._adjacent_products
    monkeypatch.setattr(qgroup, "_adjacent_products",
                        lambda x: {(j, i): xy for (i, j), xy in shared(x).items()})
    checks = check_serre(rep)["checks"]
    forms = [c for c in checks if "Serre" in c["relation"]]
    assert {c["relation"].split(" ", 1)[1] for c in forms} == {"(q-binomial form)",
                                                               "(nested form)"}
    assert all(c["status"] == "fail" and "witness" in c for c in forms)
    assert all(c["status"] == "pass" for c in checks if c not in forms)
