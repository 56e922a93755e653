import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest
from hypothesis import given, strategies as st

from qhowe import cli, duality, embeddings, report
from qhowe.duality import (
    DEFAULT_SPEC_VALUES,
    Partition,
    SpecializationAnomaly,
    cyclic_span_dims,
    dimension_identity,
    dual_cauchy_check,
    hwv_state,
    joint_kernel_count,
    partitions_in_box,
    schur_poly,
    verify_hwv,
    weyl_dim,
)
from qhowe.embeddings import rho_q
from qhowe.fockspace import GridShape, row_col_weights, state_to_string
from qhowe.braided_ext import normalize
from qhowe.qclifford import OMEGA, OMEGA_INV, CliffordGen, OperatorExpr
from qhowe.qscalar import QLaurent
from qhowe.sparsemat import RationalEchelon
from test_embeddings import SHAPES_UP_TO_9, TABLE_MUTANTS, mutate
from test_sparsemat import move_form


SHAPES_UP_TO_12 = [(n, m) for n in range(1, 13) for m in range(1, 13) if n * m <= 12]

partition_lists = st.lists(st.integers(0, 6), max_size=5).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


class TestPartition:
    def test_construction(self):
        assert Partition((3, 1, 0, 0)) == (3, 1)
        assert Partition() == ()
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_conjugate_examples(self):
        assert Partition((3, 1)).conjugate() == (2, 1, 1)
        assert Partition((2, 1)).conjugate() == (2, 1)
        assert Partition().conjugate() == ()

    @given(partition_lists)
    def test_conjugate_involution(self, mu):
        assert mu.conjugate().conjugate() == mu
        assert mu.conjugate().size == mu.size

    def test_box_membership(self):
        assert Partition((2, 2)).fits_in_box(2, 2)
        assert not Partition((3,)).fits_in_box(2, 2)
        assert not Partition((1, 1, 1)).fits_in_box(2, 2)

    def test_from_string(self):
        assert Partition.from_string("2,1") == (2, 1)
        assert Partition.from_string("-") == ()


class TestPartitionsInBox:
    def test_counts(self):
        assert len(partitions_in_box(2, 2)) == 6
        assert len(partitions_in_box(1, 3)) == 4
        assert len(partitions_in_box(3, 3)) == 20

    def test_two_by_two_contents(self):
        got = set(partitions_in_box(2, 2))
        assert got == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}

    def test_lexicographic_order(self):
        parts = partitions_in_box(2, 2)
        assert parts == sorted(parts)


class TestHwv:
    def test_examples(self):
        assert state_to_string(hwv_state((2, 1), GridShape(2, 2)), 4) == "1110"
        assert hwv_state((), GridShape(2, 2)) == 0
        assert hwv_state((2, 2), GridShape(2, 2)) == 0b1111

    def test_box_violation(self):
        with pytest.raises(ValueError):
            hwv_state((3,), GridShape(2, 2))

    def test_row_word_normalizes_to_state(self):
        # ordered product v_1 v_3 v_2 for mu = (2,1) differs from the bitmask
        # state by the unit -q^{-1}
        coeff, state = normalize((1, 3, 2), 4)
        assert state == hwv_state((2, 1), GridShape(2, 2))
        assert coeff == QLaurent({-1: -1})

    def test_verify_examples(self):
        assert verify_hwv((2, 1), (2, 2), "quantum")["status"] == "pass"
        assert verify_hwv((2, 1), (2, 2), "classical")["status"] == "pass"
        assert verify_hwv((), (2, 2), "quantum")["status"] == "pass"

    def test_unknown_flavor_is_refused(self):
        with pytest.raises(ValueError):
            verify_hwv((2, 1), (2, 2), "bogus")

    def test_k_weights_on_staircase(self):
        report = verify_hwv((2, 1), (2, 2), "quantum")
        weights = [c for c in report["checks"] if c["relation"] == "lambda_q(K) weight"]
        assert all(c["status"] == "pass" for c in weights)

    def test_non_partition_state_is_not_highest(self):
        # occupied cell (1,2) alone: column raising moves it to column 1
        vec = {0b0100: QLaurent.one()}  # 0010
        assert rho_q(2, 2, "E", 1).apply(vec)

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (1, 4)])
    def test_all_partitions_both_flavors(self, n, m):
        for mu in partitions_in_box(n, m):
            assert verify_hwv(mu, (n, m), "quantum")["status"] == "pass"
            assert verify_hwv(mu, (n, m), "classical")["status"] == "pass"

    @pytest.mark.parametrize("flavor,failing", [
        ("quantum", ["lambda_q(E) kills hwv", "lambda_q(K) weight", "lambda_q(L) weight"]),
        ("classical", ["lambda(E) kills hwv", "lambda(Lbar) eigenvalue"]),
    ])
    def test_shifted_diagram_fails(self, monkeypatch, flavor, failing):
        # negative control: the diagram of 2,1 moved down one cell in the
        # first column is still killed by the column raising operators
        state = duality.hwv_state
        monkeypatch.setattr(duality, "hwv_state", lambda mu, shape: state(mu, shape) << 1)
        report = verify_hwv((2, 1), (3, 3), flavor)
        assert report["status"] == "fail"
        assert report["state"] == "011010000"
        assert sorted({c["relation"] for c in report["checks"] if c["status"] == "fail"}) == failing

    @pytest.mark.parametrize("flavor", ["quantum", "classical"])
    def test_shifted_diagram_names_its_witnesses(self, monkeypatch, flavor):
        # E_1 moves the diagram's stray cell to state 011100000, which is
        # not zero there; each wrong weight differs on the state itself
        state = duality.hwv_state
        monkeypatch.setattr(duality, "hwv_state", lambda mu, shape: state(mu, shape) << 1)
        report = verify_hwv((2, 1), (3, 3), flavor)
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert [c["witness"] for c in failed] == ["011100000"] + ["011010000"] * (len(failed) - 1)
        raising = next(c for c in failed if "E" in c["relation"])
        op = (embeddings.lambda_q if flavor == "quantum" else embeddings.classical_lambda)(3, 3, "E", 1)
        column = op.to_matrix().cols[int(report["state"][::-1], 2)]
        assert state_to_string(min(column), 9) == raising["witness"]
        assert all("witness" not in c for c in report["checks"] if c["status"] == "pass")


# -- the word kernel against the apply verifier ----------------------------------


def ref_verify_hwv(mu, shape, flavor="quantum"):
    """verify_hwv through ``OperatorExpr.apply``: each generator is applied
    to the hwv (the basis vector of ``duality.hwv_state``, so a patched one
    shows), and the image is compared with the expected vector; the witness
    is the smallest state where the two differ."""
    shape = GridShape(*shape).check()
    n, m = shape
    q_power, rational = QLaurent.q_power, QLaurent.from_rational
    if flavor == "quantum":
        conditions = [
            ("lambda_q(E) kills hwv", embeddings.lambda_q, "E", range(1, n), None),
            ("rho_q(E) kills hwv", embeddings.rho_q, "E", range(1, m), None),
            ("lambda_q(K) weight", embeddings.lambda_q, "K", range(1, n),
             lambda mu, conj, i: q_power(mu.part(i) - mu.part(i + 1))),
            ("rho_q(K) weight", embeddings.rho_q, "K", range(1, m),
             lambda mu, conj, j: q_power(conj.part(j) - conj.part(j + 1))),
            ("lambda_q(L) weight", embeddings.lambda_q, "L", range(1, n + 1),
             lambda mu, conj, i: q_power(mu.part(i))),
            ("rho_q(L) weight", embeddings.rho_q, "L", range(1, m + 1),
             lambda mu, conj, j: q_power(conj.part(j))),
        ]
    else:
        conditions = [
            ("lambda(E) kills hwv", embeddings.classical_lambda, "E", range(1, n), None),
            ("rho(E) kills hwv", embeddings.classical_rho, "E", range(1, m), None),
            ("lambda(Lbar) eigenvalue", embeddings.classical_lambda, "L", range(1, n + 1),
             lambda mu, conj, i: rational(mu.part(i))),
            ("rho(Lbar) eigenvalue", embeddings.classical_rho, "L", range(1, m + 1),
             lambda mu, conj, j: rational(conj.part(j))),
        ]
    mu = Partition(mu)
    conj = mu.conjugate()
    state = duality.hwv_state(mu, shape)
    checks = []
    for relation, action, kind, indices, eigenvalue in conditions:
        for i in indices:
            image = action(n, m, kind, i).apply({state: QLaurent.one()})
            value = None if eigenvalue is None else eigenvalue(mu, conj, i)
            want = {state: value} if value else {}
            ok = image == want
            witness = None if ok else state_to_string(
                min(s for s in image.keys() | want.keys() if image.get(s) != want.get(s)),
                shape.positions)
            checks.append(report.check(relation, ok, witness, indices=[i]))
    return report.finish(
        checks,
        mu=str(mu),
        mu_conj=str(conj),
        state=state_to_string(state, shape.positions),
        flavor=flavor,
    )


def assert_kernel_matches_the_apply_verifier(n, m, fits=lambda state: True):
    """The word kernel's reports equal ref_verify_hwv's, witnesses included,
    at every partition of the n x m box whose state passes fits, both
    flavors; returns how many of those reports fail."""
    failed = 0
    for flavor in ("quantum", "classical"):
        verify = duality._hwv_verifier((n, m), flavor)
        for mu in partitions_in_box(n, m):
            if fits(duality.hwv_state(mu, (n, m))):
                got = verify(mu)
                assert got == ref_verify_hwv(mu, (n, m), flavor), (str(mu), flavor)
                failed += got["status"] == "fail"
    return failed


@pytest.mark.parametrize("n,m", SHAPES_UP_TO_12)
def test_word_kernel_matches_the_apply_verifier(n, m):
    assert assert_kernel_matches_the_apply_verifier(n, m) == 0


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("name", sorted(TABLE_MUTANTS))
def test_word_kernel_matches_the_apply_verifier_under_a_mutant(monkeypatch, name, n, m):
    # each mutant changes the words of some generator, yet every raising
    # operator still kills each diagram's state and the torus weights are
    # untouched: the failing reports are compared under the other patches
    mutate(monkeypatch, name)
    assert assert_kernel_matches_the_apply_verifier(n, m) == 0


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3)])
def test_word_kernel_matches_the_apply_verifier_on_a_shifted_diagram(monkeypatch, n, m):
    # every diagram moved one position on, where it still fits the grid
    state = duality.hwv_state
    monkeypatch.setattr(duality, "hwv_state", lambda mu, shape: state(mu, shape) << 1)
    failed = assert_kernel_matches_the_apply_verifier(n, m, lambda s: s < 1 << (n * m))
    assert failed > 0


def patch_condition(monkeypatch, flavor, relation, field, value):
    """Set one field of one _HWV_CONDITIONS entry: 1 the action, 4 the
    eigenvalue."""
    table = duality._HWV_CONDITIONS[flavor]
    assert relation in [row[0] for row in table]
    monkeypatch.setitem(duality._HWV_CONDITIONS, flavor, tuple(
        row[:field] + (value,) + row[field + 1:] if row[0] == relation else row
        for row in table))


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3)])
def test_words_on_one_row_are_summed(monkeypatch, n, m):
    def psi_pair(n, m, kind, i):
        # zero on the module: where both words keep a state they land on
        # one row with opposite signs
        a, b = OperatorExpr.psi(i, n * m), OperatorExpr.psi(i + 1, n * m)
        return a * b + b * a

    def number_sum(n, m, kind, i):
        # the identity: exactly one of the two words keeps each state
        a, b = OperatorExpr.psi(i, n * m), OperatorExpr.psi_dag(i, n * m)
        return a * b + b * a

    patch_condition(monkeypatch, "quantum", "rho_q(E) kills hwv", 1, psi_pair)
    patch_condition(monkeypatch, "quantum", "lambda_q(E) kills hwv", 1, number_sum)
    for mu in partitions_in_box(n, m):
        got = verify_hwv(mu, (n, m))
        failed = [c for c in got["checks"] if c["status"] == "fail"]
        assert [(c["relation"], c["indices"]) for c in failed] == [
            ("lambda_q(E) kills hwv", [i]) for i in range(1, n)]
        assert {c["witness"] for c in failed} == {got["state"]}


class TestHwvControls:
    """Negative controls: a wrong weight convention must be caught."""

    def test_weyl_vector_convention_fails(self, monkeypatch, capsys):
        # the K weight of mu + rho, q^(mu_i - mu_{i+1} + 1), is off by q on
        # every hwv, at the hwv state itself
        patch_condition(monkeypatch, "quantum", "lambda_q(K) weight", 4,
                        lambda mu, conj, i: {mu.part(i) - mu.part(i + 1) + 1: 1})
        for n, m in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for mu in partitions_in_box(n, m):
                got = verify_hwv(mu, (n, m))
                assert got["status"] == "fail"
                failed = [c for c in got["checks"] if c["status"] == "fail"]
                assert [(c["relation"], c["indices"]) for c in failed] == [
                    ("lambda_q(K) weight", [i]) for i in range(1, n)]
                assert {c["witness"] for c in failed} == {got["state"]}
                assert verify_hwv(mu, (n, m), "classical")["status"] == "pass"
        spans = cyclic_span_dims(2, 3)
        assert spans["status"] == "fail"
        failed = [c for c in spans["checks"] if c["status"] == "fail"]
        assert [(c["relation"], c["mu"], c["witness"]) for c in failed] == [
            ("hwv", r["mu"], r["hwv_state"]) for r in spans["partitions"]]
        assert cli.main(["--n", "2", "--m", "3", "decompose"]) == 1
        assert "overall: fail" in capsys.readouterr().out

    @pytest.mark.parametrize("flavor,relation,eigenvalue", [
        ("quantum", "rho_q(L) weight", lambda mu, conj, j: {mu.part(j): 1}),
        ("classical", "rho(Lbar) eigenvalue", lambda mu, conj, j: {0: mu.part(j)}),
    ])
    def test_conjugate_dropped_fails_off_the_self_conjugate(self, monkeypatch, flavor, relation,
                                                            eigenvalue):
        # column weights read from mu, not mu': right exactly where mu = mu'
        patch_condition(monkeypatch, flavor, relation, 4, eigenvalue)
        self_conjugate = 0
        for n, m in [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]:
            for mu in partitions_in_box(n, m):
                got = verify_hwv(mu, (n, m), flavor)
                failed = [c for c in got["checks"] if c["status"] == "fail"]
                if mu == mu.conjugate():
                    self_conjugate += 1
                    assert got["status"] == "pass"
                else:
                    assert got["status"] == "fail"
                    assert {c["relation"] for c in failed} == {relation}
                    assert [c["indices"] for c in failed] == [
                        [j] for j in range(1, m + 1) if mu.part(j) != mu.conjugate().part(j)]
                    assert {c["witness"] for c in failed} == {got["state"]}
        assert self_conjugate == 28


class TestWeylDim:
    def test_examples(self):
        assert weyl_dim((1,), 2) == 2
        assert weyl_dim((2, 1), 2) == 2
        assert weyl_dim((1, 1), 3) == 3

    def test_too_many_parts(self):
        with pytest.raises(ValueError):
            weyl_dim((1, 1, 1), 2)

    @given(st.integers(1, 4), partition_lists)
    def test_positive_integer(self, p, mu):
        if len(mu) <= p:
            assert weyl_dim(mu, p) >= 1


class TestDimensionIdentity:
    def test_two_by_two(self):
        record = dimension_identity(2, 2)
        assert record == {"relation": "sum of dim(mu) dim(mu') by degree = binomial(nm, k)",
                          "total": 16, "status": "pass"}

    @pytest.mark.parametrize("m", range(1, 6))
    def test_single_row(self, m):
        assert dimension_identity(1, m)["status"] == "pass"

    def test_two_by_three(self):
        assert dimension_identity(2, 3)["total"] == 64

    def test_weyl_dim_off_by_one_fails(self, monkeypatch, capsys):
        # negative control: dim of the gl_2 irreducible (2,1) reads 3, not 2,
        # so its product with the gl_3 dimension 8 adds 8 to degree 3
        weyl = duality.weyl_dim
        monkeypatch.setattr(duality, "weyl_dim",
                            lambda mu, p: weyl(mu, p) + ((mu, p) == ((2, 1), 2)))
        record = dimension_identity(2, 3)
        assert (record["status"], record["total"]) == ("fail", 72)
        assert record["witness"] == "degree 3: sum 28, binomial 20"
        assert cli.main(["--n", "2", "--m", "3", "--json", "decompose"]) == 1
        (section,) = json.loads(capsys.readouterr().out)["sections"]
        assert section["status"] == "fail"
        # the span of (2,1) is measured against the same wrong Weyl product
        assert [c for c in section["checks"] if c["status"] == "fail"] == [
            {"relation": "span = Weyl product", "mu": "2,1", "status": "fail",
             "witness": "span 16, Weyl product 24"}, record]


class TestCyclicSpans:
    def test_two_by_two(self):
        report = cyclic_span_dims(2, 2)
        assert report["status"] == "pass"
        assert sorted(r["span_dim"] for r in report["partitions"]) == [1, 1, 3, 3, 4, 4]
        assert report["joint_rank"] == 16

    def test_one_by_two(self):
        report = cyclic_span_dims(1, 2)
        assert sorted(r["span_dim"] for r in report["partitions"]) == [1, 1, 2]

    def test_two_by_three(self):
        report = cyclic_span_dims(2, 3)
        assert report["status"] == "pass"
        assert len(report["partitions"]) == comb(5, 2)
        assert report["total"] == 64

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_single_column(self, n):
        # on an n x 1 grid lambda_q is phi_q: the rank-n exterior module, with
        # the j-cell prefix killed by every raising operator and spanning the
        # degree-j component of dimension binomial(n, j)
        report = cyclic_span_dims(n, 1)
        assert report["status"] == "pass"
        rows = report["partitions"]
        assert [r["hwv_state"] for r in rows] == ["1" * j + "0" * (n - j) for j in range(n + 1)]
        # a span and an hwv record per partition, then the degree profile,
        # the total and the joint rank
        assert [(c["relation"], c.get("mu")) for c in report["checks"]] == [
            (relation, r["mu"]) for r in rows for relation in ("span = Weyl product", "hwv")] + [
            ("degree profile = binomial(nm, k)", None), ("total = 2^nm", None),
            ("joint rank = 2^nm", None)]
        assert [r["span_dim"] for r in rows] == [comb(n, j) for j in range(n + 1)]
        assert [d["sum"] for d in report["degree_profile"]] == [comb(n, j) for j in range(n + 1)]

    def test_degenerate_values_rejected(self):
        with pytest.raises(ValueError):
            cyclic_span_dims(2, 2, (Fraction(1),))

    def test_spans_and_operator_checks_build_no_matrix(self, monkeypatch):
        # the lowering columns and the four embeddings checks come from the
        # Clifford words; none of them realizes a 2^nm-column matrix
        want = cyclic_span_dims(2, 3)

        def refuse(expr):
            raise AssertionError("to_matrix called")

        monkeypatch.setattr(OperatorExpr, "to_matrix", refuse)
        assert cyclic_span_dims(2, 3) == want
        for check in (embeddings.check_composition, embeddings.check_commutant,
                      embeddings.check_dequantization, embeddings.check_tensor_character):
            assert check(2, 3)["status"] == "pass"

    def test_consistent_across_values(self):
        a = cyclic_span_dims(2, 2, (Fraction(2),))
        b = cyclic_span_dims(2, 2, (Fraction(7), Fraction(5, 3)))
        assert [r["span_dim"] for r in a["partitions"]] == [
            r["span_dim"] for r in b["partitions"]
        ]


class TestCyclicSpanControls:
    """Negative controls: corrupted lowering operators must be caught."""

    def patch_ops(self, monkeypatch, corrupt):
        # _integer_ops builds the lowering operators that both phases of the
        # closure take: the lambda_q F_i, then the rho_q F_j
        original = duality._integer_ops
        monkeypatch.setattr(
            duality, "_integer_ops",
            lambda exprs, value: corrupt(original(exprs, value), value)
        )

    def test_dropped_operator_fails(self, monkeypatch):
        self.patch_ops(monkeypatch, lambda ops, value: ops[:-1])
        report = cyclic_span_dims(2, 3)
        assert report["status"] == "fail"
        assert report["joint_rank"] == 29 < report["space_dim"] == 64
        row = next(r for r in report["partitions"] if r["mu"] == "1")
        assert (row["span_dim"], row["dim_n"] * row["dim_m"]) == (4, 6)
        failed = {(c["relation"], c.get("mu")): c["witness"]
                  for c in report["checks"] if c["status"] == "fail"}
        assert failed[("span = Weyl product", "1")] == "span 4, Weyl product 6"
        assert failed[("joint rank = 2^nm", None)] == 29

    def test_operator_dropped_at_one_value_is_an_anomaly(self, monkeypatch):
        self.patch_ops(monkeypatch, lambda ops, value: ops[:-1] if value == 3 else ops)
        with pytest.raises(SpecializationAnomaly):
            cyclic_span_dims(2, 3, (Fraction(2), Fraction(3)))

    def test_scaled_operators_still_pass(self, monkeypatch):
        def scale(ops, value):
            return [[(move, [5 * w for w in weights]) for move, weights in op] for op in ops]

        self.patch_ops(monkeypatch, scale)
        report = cyclic_span_dims(2, 3)
        assert report["status"] == "pass"
        assert report["joint_rank"] == 64

    def test_enlarged_span_fails(self, monkeypatch, capsys):
        # a shift s -> s + 1 among the lowering operators takes the empty
        # diagram's span from 1 to all 64 states in 64 rounds: the span is
        # reported against its Weyl product
        shift = move_form({s: {s + 1: 1} for s in range(63)})
        self.patch_ops(monkeypatch, lambda ops, value: ops + [shift])
        report = cyclic_span_dims(2, 3)
        assert report["status"] == "fail"
        row = next(r for r in report["partitions"] if r["mu"] == "-")
        assert (row["span_dim"], row["dim_n"] * row["dim_m"]) == (64, 1)
        assert (report["total"], report["joint_rank"]) == (471, 64)
        assert cli.main(["--n", "2", "--m", "3", "decompose"]) == 1
        lines = capsys.readouterr().out.splitlines()
        # every check counts: 9 spans, the degree profile and the total fail
        assert lines[1] == "[FAIL] decompose  (13 checks pass, 11 fail)"
        bad = [line.split()[1] for line in lines if line.startswith("  BAD ")]
        assert bad == [f"mu={r['mu']}" for r in report["partitions"] if r["mu"] != "3,3"]
        assert [line for line in lines if line.startswith("  FAIL span = Weyl product ")] == [
            f"  FAIL span = Weyl product {r['mu']} span {r['span_dim']}, "
            f"Weyl product {r['dim_n'] * r['dim_m']}"
            for r in report["partitions"] if r["mu"] != "3,3"]
        assert lines[-1] == "overall: fail"

    def test_every_joint_lead_collides(self, monkeypatch):
        # partition 2 seeds from partition 1's state, so every pivot of its
        # closure has a lead that the joint echelon already holds
        state = duality.hwv_state
        monkeypatch.setattr(duality, "hwv_state", lambda mu, shape: state(
            (1,) if Partition(mu) == (2,) else mu, shape))
        calls = spy_second_phase(monkeypatch)
        report = cyclic_span_dims(2, 3)
        # partition 2's span adds nothing to the joint one: 64 - 9
        assert report["joint_rank"] == 55 < 64
        assert report["status"] == "fail"
        # two seeds share their row weight, so no order keeps each joint
        # closure clear of the earlier spans: every span, at both values,
        # falls back to the second phase
        assert duality._seed_order(GridShape(2, 3), [
            duality.hwv_state(mu, (2, 3)) for mu in partitions_in_box(2, 3)]) is None
        assert len(calls) == 2 * len(report["partitions"]) == 20
        assert report == ref_cyclic_span_dims(monkeypatch, 2, 3)
        assert report == ref_cyclic_span_dims(monkeypatch, 2, 3, ref_two_phase_value_ranks)

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 3)])
    def test_row_family_holding_a_column_operator_fails(self, monkeypatch, n, m):
        # without lambda_q F_1, rho_q F_1 is taken for a row operator: the
        # families stop commuting behind the word check, so the premise of
        # both the replay and the second phase is broken, and the spans no
        # longer match their Weyl products
        self.patch_ops(monkeypatch, lambda ops, value: ops[1:])
        assert cyclic_span_dims(n, m)["status"] == "fail"


    @pytest.mark.parametrize("n,m", [(1, 3), (3, 1), (1, 4), (2, 3), (3, 2), (3, 3), (2, 4),
                                     (1, 6)])
    def test_table_listing_noncommuting_pairs_fails(self, monkeypatch, n, m):
        # the ordered-word rule carries the certificate: a table that also
        # lists the adjacent pairs, which do not commute, stops each closure
        # short of its span
        monkeypatch.setattr(duality, "_commuting_pairs", lambda family: {
            (k, j) for j in range(len(family)) for k in range(j)})
        report = cyclic_span_dims(n, m)
        assert report["status"] == "fail"
        assert report["joint_rank"] < report["space_dim"]
        if n * m == 3:
            # on three cells, the two-cell diagram spans 2 against a Weyl
            # product of 3: the word F_1 F_2 is never taken
            mu = "2" if n == 1 else "1,1"
            row = next(r for r in report["partitions"] if r["mu"] == mu)
            assert (row["span_dim"], row["dim_n"] * row["dim_m"]) == (2, 3)

    @pytest.mark.parametrize("n,m", [(3, 3), (2, 6), (6, 2), (1, 12)])
    def test_commuting_pairs_are_the_distant_ones(self, n, m):
        # F_k F_j = F_j F_k exactly when |k - j| >= 2, in both families
        for family in duality._generators(n, m, "F"):
            assert duality._commuting_pairs(family) == {
                (k, j) for j in range(len(family)) for k in range(j - 1)}


# -- the two-phase closure against the single-phase one -------------------------


def matrix_ops(exprs, value):
    """The word expressions' matrices (``to_matrix``) at q = value as integer
    columns (``SparseMatrix.specialize_ints``), each turned into move form:
    the reference for duality._integer_ops."""
    return [move_form(expr.to_matrix().specialize_ints(value)[0], 1 << expr.length)
            for expr in exprs]


def ref_value_ranks(shape, states, lowering, commute, commuting, value, order):
    """The single-phase closure in place of duality._value_ranks: each span is
    closed under every lowering operator of both actions at once, and every
    closure pivot goes through insert.  It builds its own operators,
    from the matrices (``matrix_ops``), and ignores lowering, commute,
    commuting and order."""
    n, m = shape
    exprs = ([embeddings.lambda_q(n, m, "F", i) for i in range(1, n)]
             + [embeddings.rho_q(n, m, "F", j) for j in range(1, m)])
    ops = matrix_ops(exprs, value)
    joint = RationalEchelon()
    dims = []
    for state in states:
        closure = RationalEchelon()
        seed = closure.insert({state: 1})
        closure.close([seed], ops)
        dims.append(closure.rank)
        for vec in closure.pivots.values():
            joint.insert(vec)
    return dims, joint.rank


def ref_two_phase_value_ranks(shape, states, lowering, commute, commuting, value, order):
    """The two-phase closure in place of duality._value_ranks, with no
    replay and no ordered-word rule (commuting and order are ignored): each
    span is closed under the larger family, then every pivot of that closure
    under the smaller family (under every operator when the families do not
    commute), and the closure pivots are inserted into the joint echelon.
    Its operators are lowering's matrices (``matrix_ops``)."""
    n, m = shape
    ops = matrix_ops(lowering, value)
    rows, cols = ops[:n - 1], ops[n - 1:]
    first, second = (cols, rows) if m >= n else (rows, cols)
    if not commute:
        second = ops
    joint = RationalEchelon()
    dims = []
    for state in states:
        closure = RationalEchelon()
        seed = closure.insert({state: 1})
        closure.close([seed], first)
        closure.close(list(closure.pivots.values()), second)
        dims.append(closure.rank)
        for vec in closure.pivots.values():
            joint.insert(vec)
    return dims, joint.rank


def ref_cyclic_span_dims(monkeypatch, n, m, ref=ref_value_ranks, spec_values=DEFAULT_SPEC_VALUES):
    with monkeypatch.context() as patch:
        patch.setattr(duality, "_value_ranks", ref)
        return cyclic_span_dims(n, m, spec_values)


def spy_second_phase(monkeypatch):
    """Record a call of duality._second_phase per span that takes it."""
    calls = []
    original = duality._second_phase

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(duality, "_second_phase", spy)
    return calls


# -- the replayed closure against the two-phase one ------------------------------


@pytest.mark.parametrize("spec_values", [(Fraction(2), Fraction(3)), (Fraction(5, 3), Fraction(-2))])
@pytest.mark.parametrize("n,m", SHAPES_UP_TO_12)
def test_replay_matches_the_two_phase_closure(monkeypatch, n, m, spec_values):
    calls = spy_second_phase(monkeypatch)
    report = cyclic_span_dims(n, m, spec_values)
    assert report["status"] == "pass"
    # every span is certified by its replay; none falls back
    assert calls == []
    assert report == ref_cyclic_span_dims(monkeypatch, n, m, ref_two_phase_value_ranks, spec_values)


def ungraded_generators(n, m, kind, original=duality._generators):
    """_generators with rho_q F_1 replaced by F_1 + F_2 F_1: the words still
    commute with every lambda_q F_i and give the same spans, as 1 + F_2 is
    invertible in the algebra of F_2, but some move two particles."""
    rows, cols = original(n, m, kind)
    return rows, [cols[0] + cols[1] * cols[0]] + cols[1:]


@pytest.mark.parametrize("n,m,fallbacks", [(2, 3, 20), (3, 3, 40), (1, 4, 10), (4, 3, 70)])
def test_ungraded_words_take_the_second_phase(monkeypatch, n, m, fallbacks):
    monkeypatch.setattr(duality, "_generators", ungraded_generators)
    rows, cols = duality._generators(n, m, "F")
    assert duality._noncommuting_pair(rows, cols) is None
    assert not duality._graded(GridShape(n, m), rows, cols)
    calls = spy_second_phase(monkeypatch)
    report = cyclic_span_dims(n, m)
    # the weight argument loses its premise, so every span at both values
    # falls back: partitions times values
    assert len(calls) == 2 * len(report["partitions"]) == fallbacks
    assert report["status"] == "pass"
    assert report == ref_cyclic_span_dims(monkeypatch, n, m)


def dominated(a, b):
    """Whether the composition a is dominated by b: equal sums, and each
    partial sum of a at most b's."""
    return sum(a) == sum(b) and all(x <= y for x, y in zip(accumulate(a), accumulate(b)))


def in_dominance_order(weights):
    """Whether no weight is dominated by an earlier one (itself included)."""
    return not any(dominated(w, earlier) for k, w in enumerate(weights)
                   for earlier in weights[:k])


@pytest.mark.parametrize("n,m", SHAPES_UP_TO_12)
def test_no_seed_weight_is_dominated_by_an_earlier_one(n, m):
    # rho_q F_j keeps each row's count and lambda_q F_i each column's; the
    # family with more generators, rho_q when m >= n, closes in the joint
    # echelon, so its fixed weight orders the seeds.  A reversed order gives
    # the same reports, as the spans are independent whatever the order, so
    # no report test catches a wrong one.
    shape = GridShape(n, m)
    rows, cols = duality._generators(n, m, "F")
    assert duality._graded(shape, rows, cols)
    states = [hwv_state(mu, shape) for mu in partitions_in_box(n, m)]
    order = duality._seed_order(shape, states)
    assert sorted(order) == list(range(len(states)))
    fixed = [row_col_weights(shape, states[k])[0 if m >= n else 1] for k in order]
    assert in_dominance_order(fixed)
    if min(n, m) > 1:
        # some two seeds of one size are comparable (2 and 1,1 in rows), so
        # the helper rejects the reversed order
        assert not in_dominance_order(fixed[::-1])


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("name", sorted(TABLE_MUTANTS))
def test_replay_matches_the_two_phase_closure_under_a_mutant(monkeypatch, name, n, m):
    mutate(monkeypatch, name)
    report = cyclic_span_dims(n, m)
    assert report == ref_cyclic_span_dims(monkeypatch, n, m, ref_two_phase_value_ranks)


# the two table entries whose lambda_q F and rho_q F words do not commute
NONCOMMUTING_MUTANTS = ["lambda F kappa left -> right", "rho F kappa below -> above"]


@pytest.mark.parametrize("n,m", SHAPES_UP_TO_9)
def test_two_phase_closure_matches_the_single_phase_one(monkeypatch, n, m):
    # the row and column F's commute, so the second phase takes only its family
    assert duality._noncommuting_pair(*duality._generators(n, m, "F")) is None
    report = cyclic_span_dims(n, m)
    assert report["status"] == "pass"
    assert report == ref_cyclic_span_dims(monkeypatch, n, m)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("name", sorted(TABLE_MUTANTS))
def test_two_phase_closure_matches_the_single_phase_one_under_a_mutant(monkeypatch, name, n, m):
    mutate(monkeypatch, name)
    report = cyclic_span_dims(n, m)
    assert report == ref_cyclic_span_dims(monkeypatch, n, m)
    # the comparison covers a failing report
    assert report["status"] == ("fail" if name in NONCOMMUTING_MUTANTS else "pass")


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("name", NONCOMMUTING_MUTANTS)
def test_noncommuting_families_close_under_every_operator(monkeypatch, name, n, m):
    mutate(monkeypatch, name)
    assert duality._noncommuting_pair(*duality._generators(n, m, "F")) is not None
    report = cyclic_span_dims(n, m)
    assert report["status"] == "fail"
    assert report == ref_cyclic_span_dims(monkeypatch, n, m)
    # a guard that wrongly reports commuting families changes the spans
    monkeypatch.setattr(duality, "_noncommuting_pair", lambda rows, cols: None)
    assert cyclic_span_dims(n, m) != report


def ref_schur_poly(mu, p):
    """The Schur polynomial as the content monomials of every semistandard
    tableau of shape mu with entries 1..p, listed by backtracking."""
    mu = Partition(mu)
    rows = [[0] * r for r in mu]
    cells = [(i, j) for i, r in enumerate(mu) for j in range(r)]
    out = Counter()

    def backtrack(pos):
        if pos == len(cells):
            exps = [0] * p
            for row in rows:
                for val in row:
                    exps[val - 1] += 1
            out[tuple(exps)] += 1
            return
        i, j = cells[pos]
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])  # weakly increasing along rows
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)  # strictly increasing down columns
        for val in range(lo, p + 1):
            rows[i][j] = val
            backtrack(pos + 1)
        rows[i][j] = 0

    backtrack(0)
    return out


class TestSchur:
    def test_examples(self):
        assert schur_poly((1,), 2) == Counter({(1, 0): 1, (0, 1): 1})
        assert schur_poly((1, 1), 2) == Counter({(1, 1): 1})
        assert schur_poly((2, 1), 2) == Counter({(2, 1): 1, (1, 2): 1})
        assert schur_poly((), 3) == Counter({(0, 0, 0): 1})
        assert schur_poly((), 0) == Counter({(): 1})

    def test_dimension_from_character(self):
        # number of SSYT = Weyl dimension
        for mu in [(2,), (2, 1), (3, 1), (2, 2)]:
            for p in (2, 3, 4):
                if len(mu) <= p:
                    total = sum(schur_poly(mu, p).values())
                    assert total == weyl_dim(mu, p)

    def test_too_long_shape_is_zero(self):
        assert schur_poly((1, 1, 1), 2) == Counter()

    @pytest.mark.parametrize("n,m", SHAPES_UP_TO_12)
    def test_schur_sum_shares_one_memo_across_the_box(self, n, m):
        # the box's Schur sum, its branches expanded once, against the sum
        # of the per-mu schur_poly products, each built with a memo of its own
        want = Counter()
        for mu in partitions_in_box(n, m):
            right = schur_poly(mu.conjugate(), m)
            for e, c in schur_poly(mu, n).items():
                for f, d in right.items():
                    want[e + f] += c * d
        assert duality._schur_sum(n, m) == want

    @pytest.mark.parametrize("n,m", SHAPES_UP_TO_12 + [(4, 4), (2, 8), (8, 2)])
    def test_branching_rule_matches_the_tableau_listing(self, n, m):
        # every Schur polynomial of the dual Cauchy sum, at both ranks
        for mu in partitions_in_box(n, m):
            assert schur_poly(mu, n) == ref_schur_poly(mu, n)
            assert schur_poly(mu.conjugate(), m) == ref_schur_poly(mu.conjugate(), m)


SCHUR = "prod (1 + a_i b_j) = sum s_mu(a) s_mu'(b)"
STATES = "prod (1 + a_i b_j) = state weight count"


def cauchy_outcome(report):
    """A dual_cauchy_check report's status and each record's (relation,
    witness), the witness None where the identity holds."""
    return report["status"], [(c["relation"], c.get("witness")) for c in report["checks"]]


class TestDualCauchy:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3), (3, 3), (2, 5), (5, 2), (4, 4)])
    def test_three_way_identity(self, n, m):
        assert cauchy_outcome(dual_cauchy_check(n, m)) == ("pass", [(SCHUR, None), (STATES, None)])

    def test_size_cap(self):
        with pytest.raises(ValueError):
            dual_cauchy_check(4, 5)

    def test_perturbed_schur_sum_fails(self, monkeypatch):
        # negative control: s_(1) with one monomial dropped, wherever the
        # box's one memo of Schur polynomials reads it
        branch = duality._branch

        def perturbed(mu, p, memo):
            poly = branch(mu, p, memo)
            if mu == (1,) and poly:
                poly = Counter(poly)
                del poly[min(poly)]
            return poly

        monkeypatch.setattr(duality, "_branch", perturbed)
        assert cauchy_outcome(dual_cauchy_check(2, 3)) == ("fail", [
            (SCHUR, "exponents [0, 1, 0, 0, 1]: product 1, Schur sum 0"), (STATES, None)])

    @pytest.mark.parametrize("n,m,differing", [(2, 2, 4), (2, 3, 111), (3, 3, 468)])
    def test_dropped_conjugate_fails(self, monkeypatch, n, m, differing):
        # negative control: s_mu(a) paired with s_mu(b) instead of s_mu'(b)
        product = dual_cauchy_check(n, m)["monomials"]
        monkeypatch.setattr(Partition, "conjugate", lambda self: self)
        report = dual_cauchy_check(n, m)
        assert report["status"] == "fail"
        assert [c["status"] for c in report["checks"]] == ["fail", "pass"]
        assert report["monomials"] == product
        unpaired, full = duality._schur_sum(n, m), ref_weight_enumeration(n, m)
        assert sum(unpaired[k] != full[k] for k in unpaired.keys() | full.keys()) == differing
        if (n, m) == (2, 2):
            assert cauchy_outcome(report)[1][0] == (
                SCHUR, "exponents [0, 2, 0, 2]: product 0, Schur sum 1")

    @pytest.mark.parametrize("n,m,witness", [
        (2, 2, "exponents [0, 1, 1, 0]: product 1, states 2"),
        (2, 3, "exponents [0, 1, 1, 0, 0]: product 1, states 2"),
        (3, 3, "exponents [0, 1, 0, 1, 0, 0]: product 1, states 2"),
    ])
    def test_position_in_the_wrong_row_fails(self, monkeypatch, capsys, n, m, witness):
        # negative control: the lambda_q that dual_cauchy_check reads counts
        # position 1 in row 2, as L_1 w_1 and L_2 w_1^-1
        original = duality.lambda_q

        def patched(n, m, kind, index):
            op = original(n, m, kind, index)
            if kind == "L" and index in (1, 2):
                gen = CliffordGen(OMEGA if index == 1 else OMEGA_INV, 1)
                op = op * OperatorExpr.word(n * m, (gen,))
            return op

        def misplaced(shape, bits):
            rows, cols = row_col_weights(shape, bits)
            if bits & 1:
                rows = (rows[0] - 1, rows[1] + 1) + rows[2:]
            return rows, cols

        monkeypatch.setattr(duality, "lambda_q", patched)
        assert cauchy_outcome(dual_cauchy_check(n, m)) == ("fail", [(SCHUR, None),
                                                                    (STATES, witness)])
        assert duality._state_weights(n, m) == ref_weight_enumeration(n, m, misplaced)
        assert cli.main(["--n", str(n), "--m", str(m), "cauchy"]) == 1
        assert capsys.readouterr().out.splitlines()[1:3] == [
            "[FAIL] cauchy  (1 checks pass, 1 fail)", f"  FAIL {STATES} {witness}"]


def ref_weight_enumeration(n, m, weights=row_col_weights):
    """The joint weight generating function, one weights call per state."""
    shape = GridShape(n, m)
    return Counter(sum(weights(shape, bits), ()) for bits in range(1 << (n * m)))


@pytest.mark.parametrize("n,m", SHAPES_UP_TO_12)
def test_state_weights_match_the_state_loop(n, m):
    assert duality._state_weights(n, m) == ref_weight_enumeration(n, m)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3)])
def test_state_weights_count_an_unweighted_position_twice(monkeypatch, n, m):
    # L_1 w_1 in both actions: position 1 is in no row and no column
    for action in ("lambda_q", "rho_q"):
        def patched(n, m, kind, index, original=getattr(duality, action)):
            op = original(n, m, kind, index)
            if kind == "L" and index == 1:
                op = op * OperatorExpr.word(n * m, (CliffordGen(OMEGA, 1),))
            return op

        monkeypatch.setattr(duality, action, patched)

    unweighted = ref_weight_enumeration(n, m, lambda shape, bits: row_col_weights(shape, bits & ~1))
    assert duality._state_weights(n, m) == unweighted
    assert cauchy_outcome(dual_cauchy_check(n, m))[1][1][1] is not None


class TestWeightBounds:
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_row_and_column_degrees_bounded(self, n, m):
        shape = GridShape(n, m)
        for bits in range(1 << (n * m)):
            rows, cols = row_col_weights(shape, bits)
            assert max(rows) <= m and max(cols) <= n


class TestJointKernel:
    @pytest.mark.parametrize("n,m", [(2, 2), (1, 3), (2, 3), (3, 2)])
    def test_kernel_counts_partitions(self, n, m):
        assert joint_kernel_count(n, m) == comb(n + m, n)
        assert joint_kernel_count(n, m, Fraction(3)) == comb(n + m, n)

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_kernel_reads_the_matrix_columns(self, monkeypatch, n, m):
        # the raising operators from their matrices (matrix_ops) give the
        # same kernel; the identity, one move 0, added to them leaves none
        monkeypatch.setattr(duality, "_integer_ops", matrix_ops)
        assert joint_kernel_count(n, m, Fraction(3)) == comb(n + m, n)
        identity = move_form({s: {s: 1} for s in range(1 << n * m)}, 1 << n * m)
        monkeypatch.setattr(duality, "_integer_ops",
                            lambda exprs, value: matrix_ops(exprs, value) + [identity])
        assert joint_kernel_count(n, m) == 0


def test_integer_operators_take_few_bytes_per_entry():
    # the lowering operators at 3x3 hold one list of 2^9 weights per move:
    # about 8.4 bytes per state, one pointer to an entry of the words'
    # tables, where a flat dict per move took about 51 bytes per nonzero
    # entry and a dict per column about 224
    exprs = [expr for family in duality._generators(3, 3, "F") for expr in family]
    duality._integer_ops(exprs, Fraction(2))  # the words are compiled once, here
    tracemalloc.start()
    try:
        ops = duality._integer_ops(exprs, Fraction(2))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    slots = sum(len(weights) for op in ops for _, weights in op)
    entries = sum(map(bool, (w for op in ops for _, weights in op for w in weights)))
    assert slots == 4 * 3 * 2 ** 9  # 4 operators of 3 words, each of its own move
    assert entries == 4 * 3 * 2 ** 7  # each word keeping 2^7 states
    assert held / slots < 10
