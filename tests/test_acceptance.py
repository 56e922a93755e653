"""Acceptance suite: every criterion at its stated size, all checks exact.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output).  Wall-clock bounds are asserted where stated.
"""

import time
from fractions import Fraction
from math import comb

from qhowe import braided_ext, braiding, duality, embeddings, qclifford, qgroup

ALL_SHAPES_12 = [(n, m) for n in range(1, 13) for m in range(1, 13) if n * m <= 12]
COMMUTANT_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3)]


def announce(number, description, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {number:>2}] {status}  {description}  ({elapsed:.1f}s)")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_clifford_relations():
    t0 = time.time()
    ok = all(qclifford.check_clifford(N)["status"] == "pass" for N in range(1, 9))
    elapsed = time.time() - t0
    announce(1, "Clifford operator relations, N <= 8", ok, elapsed)
    assert elapsed < 5.0


def test_criterion_02_relation_suites():
    t0 = time.time()
    ok = True
    for p in range(1, 7):
        rep = qgroup.natural_rep(p)
        ok = ok and qgroup.check_relations(rep)["status"] == "pass"
        ok = ok and qgroup.check_serre(rep)["status"] == "pass"
    for n in range(1, 7):
        rep = embeddings.phi_rep(n)
        ok = ok and qgroup.check_relations(rep)["status"] == "pass"
        ok = ok and qgroup.check_serre(rep)["status"] == "pass"
    for n, m in ALL_SHAPES_12:
        for rep in (embeddings.lambda_rep(n, m), embeddings.rho_rep(n, m)):
            ok = ok and qgroup.check_relations(rep)["status"] == "pass"
            ok = ok and qgroup.check_serre(rep)["status"] == "pass"
    elapsed = time.time() - t0
    announce(2, "relation + Serre suites (natural, phi, lambda_q, rho_q)", ok, elapsed)
    assert elapsed < 60.0


def test_criterion_03_commutant():
    t0 = time.time()
    ok = all(
        embeddings.check_commutant(n, m)["status"] == "pass" for n, m in COMMUTANT_SHAPES
    )
    elapsed = time.time() - t0
    announce(3, "commutant [lambda(X), rho(Y)] = 0, quantum and classical", ok, elapsed)
    assert elapsed < 120.0


def test_criterion_04_composition_identity():
    t0 = time.time()
    ok = all(
        embeddings.check_composition(n, m)["status"] == "pass" for n, m in ALL_SHAPES_12
    )
    announce(4, "lambda_q = phi_q o theta, nm <= 12", ok, time.time() - t0)


def test_criterion_05_dequantization():
    t0 = time.time()
    ok = all(
        embeddings.check_dequantization(n, m)["status"] == "pass" for n, m in ALL_SHAPES_12
    )
    announce(5, "q = 1 specialization matches classical actions, nm <= 12", ok, time.time() - t0)


def test_criterion_06_highest_weight_suite():
    t0 = time.time()
    ok = True
    for n, m in ALL_SHAPES_12:
        partitions = duality.partitions_in_box(n, m)
        ok = ok and len(partitions) == comb(n + m, n)
        for mu in partitions:
            ok = ok and duality.verify_hwv(mu, (n, m), "quantum")["status"] == "pass"
            ok = ok and duality.verify_hwv(mu, (n, m), "classical")["status"] == "pass"
    announce(6, "joint highest-weight suite over every box, nm <= 12", ok, time.time() - t0)


def test_criterion_07_decomposition():
    t0 = time.time()
    ok = True
    for n, m in ALL_SHAPES_12:
        report = duality.cyclic_span_dims(n, m, (Fraction(2), Fraction(3)))
        ok = ok and report["status"] == "pass"
        ok = ok and report["total"] == 1 << (n * m)
        ok = ok and report["joint_rank"] == 1 << (n * m)
        ok = ok and all(d["sum"] == d["binomial"] for d in report["degree_profile"])
    announce(7, "multiplicity-free decomposition at q = 2 and q = 3, nm <= 12", ok, time.time() - t0)


def test_criterion_08_dual_cauchy():
    t0 = time.time()
    ok = True
    for n in range(1, 4):
        for m in range(1, 4):
            report = duality.dual_cauchy_check(n, m)
            ok = ok and report["status"] == "pass"
    elapsed = time.time() - t0
    announce(8, "dual Cauchy identity, three-way, n, m <= 3", ok, elapsed)
    assert elapsed < 10.0


def test_criterion_09_braiding():
    t0 = time.time()
    ok = True
    for n in range(2, 5):
        rhat = braiding.build_rhat(n)
        ok = ok and braiding.check_yang_baxter(n, rhat)["status"] == "pass"
        ok = ok and braiding.check_hecke(n, rhat)["status"] == "pass"
        ok = ok and braiding.check_intertwiner(n, rhat)["status"] == "pass"
        ok = ok and braiding.check_classical_limit(n, rhat)["status"] == "pass"
        ok = ok and braiding.sym2q_dims(n, rhat) == (n * (n + 1) // 2, n * (n - 1) // 2)
        # eigenvalues match the Casimir-exponent formula with limit-fixed signs
        eps1 = tuple(1 if k == 0 else 0 for k in range(n))
        two_eps1 = tuple(2 if k == 0 else 0 for k in range(n))
        eps12 = tuple(1 if k < 2 else 0 for k in range(n))
        sym_eig = braiding.braiding_eigenvalue(eps1, two_eps1, n)
        wedge_eig = braiding.braiding_eigenvalue(eps1, eps12, n)
        for vec in braiding.sym_span_vectors(n):
            ok = ok and rhat.apply(vec) == {k: v * sym_eig for k, v in vec.items()}
        for vec in braiding.wedge_span_vectors(n):
            ok = ok and rhat.apply(vec) == {k: v * wedge_eig for k, v in vec.items()}
    announce(9, "braiding: Yang-Baxter, Hecke, intertwiner, eigenvalues, q -> 1", ok, time.time() - t0)


def test_criterion_10_module_algebra():
    t0 = time.time()
    ok = all(braided_ext.check_module_algebra(n)["status"] == "pass" for n in range(1, 6))
    announce(10, "module-algebra action equals Clifford action, n <= 5", ok, time.time() - t0)


def test_criterion_11_tensor_character():
    t0 = time.time()
    ok = all(
        embeddings.check_tensor_character(n, m)["status"] == "pass" for n, m in ALL_SHAPES_12
    )
    announce(11, "joint weight multisets of grid vs tensor power agree, nm <= 12", ok, time.time() - t0)
