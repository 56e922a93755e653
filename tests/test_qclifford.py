from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, strategies as st

from qhowe import embeddings, fockspace, qclifford, report
from qhowe.fockspace import state_to_string
from qhowe.qclifford import (
    OMEGA, OMEGA_INV, PSI, PSI_DAG, OperatorExpr, _sign_rule_witness, _table, check_clifford,
    q_commutator,
)
from qhowe.embeddings import (
    classical_lambda, classical_rho, compose_phi_theta, lambda_q, rho_q,
)
from qhowe.qscalar import QLaurent
from qhowe.sparsemat import SparseMatrix
from test_sparsemat import move_form


def S(text):
    """The occupancy word rendered as text, position 1 leftmost."""
    return int(text[::-1], 2)


def V(text, coeff=QLaurent.one()):
    """The basis vector of an occupancy word, as a sparse vector."""
    return {S(text): coeff}


def test_action_examples():
    assert OperatorExpr.psi_dag(2, 2).apply(V("10")) == V("11", QLaurent({0: -1}))
    assert OperatorExpr.omega(1, 2).apply(V("10")) == V("10", QLaurent({-1: 1}))
    assert not OperatorExpr.psi(1, 2).apply(V("00"))


def test_identity_and_psi_matrix():
    ident = OperatorExpr.identity(1)
    m = ident.to_matrix()
    assert m.dim == 2 and m.entry(0, 0) == QLaurent.one() and m.entry(1, 1) == QLaurent.one()
    m = OperatorExpr.psi(1, 1).to_matrix()
    assert m.cols == {1: {0: QLaurent.one()}}


def test_deformed_anticommutator_is_omega():
    p, pd = OperatorExpr.psi(1, 1), OperatorExpr.psi_dag(1, 1)
    lhs = p * pd + (pd * p).scale(QLaurent.q_power(-1))
    assert lhs.to_matrix() == OperatorExpr.omega(1, 1).to_matrix()
    lhs = p * pd + (pd * p).scale(QLaurent.q_power(1))
    assert lhs.to_matrix() == OperatorExpr.omega_inv(1, 1).to_matrix()


def test_q_commutator_examples():
    p1, p2 = OperatorExpr.psi(1, 2), OperatorExpr.psi(2, 2)
    # psi1 psi2 = -psi2 psi1, so the plain commutator doubles the product
    assert q_commutator(p1, p2).to_matrix() == (p1 * p2).scale(QLaurent.from_rational(2)).to_matrix()
    a = OperatorExpr.word(3, [("psid", 1), ("psi", 2)])
    assert q_commutator(a, a).to_matrix().nnz() == 0
    b = OperatorExpr.word(3, [("psid", 2), ("psi", 3)])
    rhs = OperatorExpr.word(3, [("winv", 2), ("psid", 1), ("psi", 3)])
    assert q_commutator(a, b, 1).to_matrix() == rhs.to_matrix()


@pytest.mark.parametrize("N", range(3, 7))
def test_q_commutator_hopping_identity(N):
    # [psid_i psi_{i+1}, psid_{i+1} psi_{i+2}]_q = w_{i+1}^-1 psid_i psi_{i+2}
    for i in range(1, N - 1):
        a = OperatorExpr.word(N, [("psid", i), ("psi", i + 1)])
        b = OperatorExpr.word(N, [("psid", i + 1), ("psi", i + 2)])
        rhs = OperatorExpr.word(N, [("winv", i + 1), ("psid", i), ("psi", i + 2)])
        assert q_commutator(a, b, 1).to_matrix() == rhs.to_matrix()


@pytest.mark.parametrize("N", range(1, 9))
def test_relation_suite(N):
    assert check_clifford(N)["status"] == "pass"


def test_flipped_sign_rule_fails(monkeypatch):
    # negative control: a reference parity off by one breaks only the sign rule
    parity = fockspace.prefix_parity
    monkeypatch.setattr(fockspace, "prefix_parity", lambda state, k: parity(state, k) + 1)
    report = check_clifford(3)
    assert report["status"] == "fail"
    failed = [(c["relation"], c.get("witness")) for c in report["checks"] if c["status"] == "fail"]
    assert failed == [("classical sign rule", "000")]


def sign_after_k(monkeypatch, N):
    """Compile each one-generator psi_k and psid_k word with the sign of the
    occupied positions after k instead of before it."""
    original = qclifford._CompiledWord.compile.__func__

    def compile(cls, word):
        cw = original(cls, word)
        if cw is not None and len(word) == 1 and word[0].kind in (PSI, PSI_DAG):
            after = ((1 << N) - 1) & -(1 << word[0].index)
            cw = cw._replace(sign_mask=after)
        return cw

    monkeypatch.setattr(qclifford._CompiledWord, "compile", classmethod(compile))


def test_sign_after_k_fails_the_sign_rule(monkeypatch):
    # negative control on the words: psid_1 on 010 sees position 2 after it
    sign_after_k(monkeypatch, 3)
    report = check_clifford(3)
    failed = [(c["relation"], c.get("witness")) for c in report["checks"] if c["status"] == "fail"]
    assert failed == [("classical sign rule", "010")]


def test_sign_rule_fails_a_generator_of_several_words(monkeypatch):
    # psi_2 n_1 + psi_2 e_1 is psi_2; with the second word negated it is
    # psi_2 (n_1 - e_1), wrong from 010 on: the rule sums the words, as the
    # matrix oracle does
    original = OperatorExpr.psi.__func__
    second = 1

    def psi(cls, index, length, classical=False):
        if (index, classical) == (2, True):
            return OperatorExpr(length, [(1, [("psi", 2), ("psid", 1), ("psi", 1)]),
                                         (second, [("psi", 2), ("psi", 1), ("psid", 1)])],
                                classical=True)
        return original(cls, index, length, classical)

    monkeypatch.setattr(OperatorExpr, "psi", classmethod(psi))
    assert _sign_rule_witness(3) == ref_sign_rule_witness(3) == (True, None)
    second = -1
    assert _sign_rule_witness(3) == ref_sign_rule_witness(3) == (False, "010")


def ref_sign_rule_witness(N):
    """The sign rule on matrices: each classical psi_k and psid_k from
    to_matrix() against the matrix with entry (-1)^prefix_parity(s, k) at row
    s ^ bit k of each column s with (psi_k) or without (psid_k) bit k."""
    one = QLaurent.one()
    for k in range(1, N + 1):
        bit = 1 << (k - 1)
        firsts = []
        for op, kept in ((OperatorExpr.psi(k, N, classical=True), bit),
                         (OperatorExpr.psi_dag(k, N, classical=True), 0)):
            want = SparseMatrix(1 << N, {
                s: {s ^ bit: -one if fockspace.prefix_parity(s, k) & 1 else one}
                for s in range(1 << N) if s & bit == kept})
            first = op.to_matrix().first_difference(want)
            if first is not None:
                firsts.append(first)
        if firsts:
            return False, state_to_string(min(firsts), N)
    return True, None


@pytest.mark.parametrize("N", range(1, 11))
@pytest.mark.parametrize("mutant", [None, "parity off by one", "sign after k"])
def test_sign_rule_matches_the_matrix_oracle(monkeypatch, mutant, N):
    if mutant == "parity off by one":
        parity = fockspace.prefix_parity
        monkeypatch.setattr(fockspace, "prefix_parity", lambda state, k: parity(state, k) + 1)
    elif mutant == "sign after k":
        sign_after_k(monkeypatch, N)
    got = _sign_rule_witness(N)
    assert got == ref_sign_rule_witness(N)
    # every state passes unmutated; after k, one position has nothing after it
    assert got[0] == (mutant is None or (mutant == "sign after k" and N == 1))


@pytest.mark.parametrize("N", [17, 24, 64])
@pytest.mark.parametrize("mutant, witness", [
    (None, None), ("parity off by one", "00"), ("sign after k", "01")])
def test_sign_rule_past_16_positions(monkeypatch, mutant, witness, N):
    # the witnesses at N = 3 (000 and 010), padded with unoccupied positions
    if mutant == "parity off by one":
        parity = fockspace.prefix_parity
        monkeypatch.setattr(fockspace, "prefix_parity", lambda state, k: parity(state, k) + 1)
    elif mutant == "sign after k":
        sign_after_k(monkeypatch, N)
    want = (True, None) if witness is None else (False, witness.ljust(N, "0"))
    assert _sign_rule_witness(N) == want


# psi_2 on N = 3 positions with the sign of its entry at state 010 flipped:
# every record with psi_2 in it fails except psi_2 psi_2 + psi_2 psi_2 = 0,
# which holds whatever the entries; the witness is the first state whose image
# runs through psi_2 at 010: 110 and 011 (psi_1 resp. psi_3 applied first or
# last), 010 (psi_2 applied first) and 000 (psid_2 first, then psi_2)
FLIPPED_PSI_FAILURES = [
    ("psi psi anticommute", [1, 2], "110"),
    ("psi psi anticommute", [2, 3], "011"),
    ("{psi_i, psid_j}", [2, 1], "010"),
    ("{psi_i, psid_j}", [2, 2], "000"),
    ("{psi_i, psid_j}", [2, 3], "010"),
    ("psi psid + q psid psi = w^-1", [2], "000"),
    ("psi psid + q^-1 psid psi = w", [2], "000"),
]


def failures(report):
    return [(c["relation"], c["indices"], c.get("witness"))
            for c in report["checks"] if c["status"] == "fail"]


def test_flipped_psi_entry_fails_its_relations(monkeypatch):
    # negative control on the words: psi_2 - 2 psi_2 P, P = e_1 n_2 e_3 the
    # projector on 010 (n_k = psid_k psi_k, e_k = psi_k psid_k)
    N, k = 3, 2
    projector = [("psi", 1), ("psid", 1), ("psid", 2), ("psi", 2), ("psi", 3), ("psid", 3)]
    bad = OperatorExpr(N, [(1, [("psi", k)]), (-2, [("psi", k)] + projector)])
    original = OperatorExpr.psi.__func__

    def psi(cls, index, length, classical=False):
        if (index, length, classical) == (k, N, False):
            return bad
        return original(cls, index, length, classical)

    monkeypatch.setattr(OperatorExpr, "psi", classmethod(psi))
    assert failures(check_clifford(N)) == FLIPPED_PSI_FAILURES


def test_flipped_psi_entry_fails_the_matrix_oracle(monkeypatch):
    # the same control through the matrix path
    N, k = 3, 2
    good = OperatorExpr.psi(k, N).to_matrix()
    cols = good.cols
    state = S("010")
    cols[state] = {r: -v for r, v in cols[state].items()}
    bad = SparseMatrix(1 << N, cols)
    original = OperatorExpr.to_matrix

    def to_matrix(self):
        if str(self) == f"psi{k}" and not self.classical:
            return bad
        return original(self)

    monkeypatch.setattr(OperatorExpr, "to_matrix", to_matrix)
    assert failures(ref_check_clifford(N)) == FLIPPED_PSI_FAILURES


def ref_check_clifford(N):
    """The matrix path of check_clifford: every relation compared on
    2^N-column matrices (the differential oracle of the word path)."""
    checks = []
    label = partial(state_to_string, length=N)
    zero = SparseMatrix(1 << N)
    ident = SparseMatrix.identity(1 << N)
    psi_m = [None] + [OperatorExpr.psi(k, N).to_matrix() for k in range(1, N + 1)]
    psid_m = [None] + [OperatorExpr.psi_dag(k, N).to_matrix() for k in range(1, N + 1)]
    for i in range(1, N + 1):
        for j in range(i, N + 1):
            anti = psi_m[i] * psi_m[j] + psi_m[j] * psi_m[i]
            checks.append(report.match("psi psi anticommute", anti, zero, label, indices=[i, j]))
            anti = psid_m[i] * psid_m[j] + psid_m[j] * psid_m[i]
            checks.append(report.match("psid psid anticommute", anti, zero, label,
                                       indices=[i, j]))
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            mixed = psi_m[i] * psid_m[j] + psid_m[j] * psi_m[i]
            checks.append(report.match("{psi_i, psid_j}", mixed, ident if i == j else zero,
                                       label, indices=[i, j]))
    for a in range(1, N + 1):
        w = OperatorExpr.omega(a, N).to_matrix()
        winv = OperatorExpr.omega_inv(a, N).to_matrix()
        lhs = psi_m[a] * psid_m[a] + (psid_m[a] * psi_m[a]).scale(QLaurent.q_power(1))
        checks.append(report.match("psi psid + q psid psi = w^-1", lhs, winv, label, indices=[a]))
        lhs = psi_m[a] * psid_m[a] + (psid_m[a] * psi_m[a]).scale(QLaurent.q_power(-1))
        checks.append(report.match("psi psid + q^-1 psid psi = w", lhs, w, label, indices=[a]))
    checks.append(report.check("classical sign rule", *_sign_rule_witness(N), indices=[]))
    return report.finish(checks, positions=N)


@pytest.mark.parametrize("N", range(1, 10))
def test_word_and_matrix_paths_report_alike(N):
    assert check_clifford(N) == ref_check_clifford(N)


def test_relations_fail_above_the_old_wall(monkeypatch):
    # negative control at 25 positions: psi_2 times a stray w_1 fails its
    # anticommutation with psi_1 on the words (psi_1 psi_2 w_1 sees position
    # 1 occupied, psi_2 w_1 psi_1 sees it emptied), witnesses of 25
    # characters; the classical sign rule still passes
    N = 25
    original = OperatorExpr.psi.__func__

    def psi(cls, index, length, classical=False):
        op = original(cls, index, length, classical)
        return op * OperatorExpr.omega(1, length) if (index, classical) == (2, False) else op

    monkeypatch.setattr(OperatorExpr, "psi", classmethod(psi))
    failed = failures(check_clifford(N))
    assert failed[0] == ("psi psi anticommute", [1, 2], "11" + "0" * 23)
    assert all(len(w) == N and set(w) <= {"0", "1"} for _, _, w in failed)


@pytest.mark.parametrize("N", [1, 3, 5])
def test_psi_words_take_the_xor_form(N):
    # psi_k and psid_k move every state by bit k, psi_i psid_j by bit i ^ bit j
    psi = [OperatorExpr.psi(k, N) for k in range(1, N + 1)]
    psid = [OperatorExpr.psi_dag(k, N) for k in range(1, N + 1)]
    for k in range(N):
        for op in (psi[k], psid[k]):
            assert all(col.keys() == {c ^ 1 << k} for c, col in op.to_matrix().cols.items())
    ident = SparseMatrix.identity(1 << N)
    for i in range(N):
        for j in range(N):
            product = psi[i].to_matrix() * psid[j].to_matrix()
            assert product.cols == reference_matrix(psi[i] * psid[j])
            assert product == (psi[i] * psid[j]).to_matrix()
            anti = product + psid[j].to_matrix() * psi[i].to_matrix()
            assert anti == (ident if i == j else SparseMatrix(1 << N))


def test_matrix_cap():
    # one wall for every matrix: 16 positions build, 17 are refused
    with pytest.raises(ValueError, match=r"2\^16"):
        OperatorExpr.identity(17).to_matrix()
    assert OperatorExpr.identity(16).to_matrix().dim == 65536


def test_classical_flag_rejects_omega():
    with pytest.raises(ValueError):
        OperatorExpr.word(2, [("w", 1)], classical=True)
    with pytest.raises(ValueError):
        OperatorExpr.word(2, [("psi", 1)], coeff=QLaurent.q_power(1), classical=True)


def test_state_out_of_range():
    # 2 positions hold the states 0..3; state 4 (001) needs a third
    with pytest.raises(ValueError, match="state 4 does not fit in 2 positions"):
        OperatorExpr.psi(1, 2).apply({1 << 2: QLaurent.one()})
    with pytest.raises(ValueError):
        OperatorExpr.psi(1, 2).apply({-1: QLaurent.one()})
    assert OperatorExpr.psi(1, 2).apply(V("100")) == V("000")


def test_pretty_printer():
    op = OperatorExpr.word(3, [("winv", 1), ("psid", 1), ("psi", 2)], coeff=QLaurent.q_power(-1))
    assert str(op) == "q^-1 w1^-1 psid1 psi2"
    assert str(OperatorExpr.zero(2)) == "0"
    two = OperatorExpr.word(2, [("psi", 1)], coeff=QLaurent.from_rational(2))
    assert str(two) == "2 psi1"


# -- compiled words against the per-generator interpreter -------------------------


def reference_apply(op, vec):
    """Apply op (an operator or a term list) generator by generator, right
    to left, one state at a time."""
    out = {}
    for coeff, word in op if isinstance(op, list) else op.terms:
        for state, value in vec.items():
            bits = state
            sign = 1
            qexp = 0
            dead = False
            for kind, k in reversed(word):
                bit = 1 << (k - 1)
                if kind == PSI:
                    if not bits & bit:
                        dead = True
                        break
                    if (bits & (bit - 1)).bit_count() & 1:
                        sign = -sign
                    bits ^= bit
                elif kind == PSI_DAG:
                    if bits & bit:
                        dead = True
                        break
                    if (bits & (bit - 1)).bit_count() & 1:
                        sign = -sign
                    bits |= bit
                elif kind == OMEGA:
                    if bits & bit:
                        qexp -= 1
                else:  # OMEGA_INV
                    if bits & bit:
                        qexp += 1
            if dead:
                continue
            scalar = coeff * value
            if qexp:
                scalar = scalar.shift(qexp)
            if sign < 0:
                scalar = -scalar
            prev = out.get(bits)
            scalar = scalar if prev is None else prev + scalar
            if scalar:
                out[bits] = scalar
            else:
                out.pop(bits, None)
    return out


def reference_matrix(op):
    dim = 1 << op.length
    cols = {s: reference_apply(op, {s: QLaurent.one()}) for s in range(dim)}
    return {c: col for c, col in cols.items() if col}


def assert_compiled_matches(op):
    mat = op.to_matrix()
    ref = reference_matrix(op)
    assert mat.cols == ref
    assert mat == SparseMatrix(1 << op.length, ref)
    # every column is present in increasing order, as the interpreter built them
    assert list(mat.cols) == sorted(ref)
    for state in range(1 << op.length):
        v = {state: QLaurent.one()}
        assert op.apply(v) == reference_apply(op, v)


# coefficient digits of 2^15 and beyond
WIDE_DIGITS = [1 << 15, -(1 << 15) - 3, (1 << 20) + 1]


@st.composite
def operators(draw, length=None):
    """Up to 4 terms on up to 7 positions (or on length positions).  w and
    winv on positions no psi or psid touches give negative and positive
    exponent weights; a last term may repeat the first one's word, negated,
    times w_k w_k^-1 (cancelling it) or times w_k (cancelling it on the
    states without position k)."""
    n = length or draw(st.integers(1, 7))
    gens = st.tuples(st.sampled_from([PSI, PSI_DAG, OMEGA, OMEGA_INV]), st.integers(1, n))
    digits = st.one_of(st.integers(-3, 3), st.sampled_from(WIDE_DIGITS))
    coeffs = st.dictionaries(st.integers(-3, 3), digits, max_size=2).map(QLaurent)
    terms = draw(st.lists(st.tuples(coeffs, st.lists(gens, max_size=6)), max_size=3))
    tail = draw(st.sampled_from([None, (OMEGA, OMEGA_INV), (OMEGA,)]))
    if terms and tail:
        k = draw(st.integers(1, n))
        coeff, word = terms[0]
        terms.append((-coeff, [(kind, k) for kind in tail] + word))
    return OperatorExpr(n, terms)


@given(operators())
def test_compiled_words_match_interpreter(op):
    assert_compiled_matches(op)


SPEC_VALUES = [2, 3, Fraction(5, 3), -2]


def scaled_moves(moves, scale):
    """An operator in move form as {move: [entry per state]}, each weight
    times scale."""
    return {move: [w * scale for w in weights] for move, weights in moves}


def assert_integer_moves(moves, length):
    """Dense move form: one list of 2^length int weights per move, without
    a repeated move or a move whose weights are all zero."""
    assert len({move for move, _ in moves}) == len(moves)
    for _, weights in moves:
        assert len(weights) == 1 << length
        assert any(weights) and all(type(w) is int for w in weights)


@given(operators(), st.sampled_from(SPEC_VALUES))
def test_word_integer_columns_match_the_matrix(op, value):
    # the integer moves built from the words are the matrix's columns at
    # q = value, in move form, up to one constant: equal once each side is
    # scaled
    moves, scale = op.specialize_ints(value)
    want, want_scale = op.to_matrix().specialize_ints(value)
    assert_integer_moves(moves, op.length)
    assert (scaled_moves(moves, scale)
            == scaled_moves(move_form(want, 1 << op.length), want_scale))


# the first term's coefficient q - 2 is two words of one move, which cancel
# at 2: that move must not be left, empty or with zeros
SPLIT_AT_TWO = OperatorExpr(3, [(QLaurent({1: 1, 0: -2}), [(PSI, 1)]),
                                (QLaurent({0: 1}), [(PSI_DAG, 2), (OMEGA, 3)])])


def reference_moves(op, value):
    """The interpreter's columns (``reference_matrix``) at q = value, in
    move form: {move: [Fraction per state]}, without the moves whose
    entries all vanish."""
    cols = {c: {r: x for r, v in col.items() if (x := v.specialize(value))}
            for c, col in reference_matrix(op).items()}
    return dict(move_form(cols, 1 << op.length))


@given(st.integers(1, 5).flatmap(operators), st.sampled_from(SPEC_VALUES))
@example(SPLIT_AT_TWO, 2)
@example(OperatorExpr.zero(4), 3)
def test_integer_moves_match_the_interpreter(op, value):
    # specialize_ints against the per-generator interpreter, which never
    # reads a compiled word: each entry of its columns evaluated at q = value
    moves, scale = op.specialize_ints(value)
    assert_integer_moves(moves, op.length)
    assert scaled_moves(moves, scale) == reference_moves(op, value)


def ref_fold(pairs):
    """The compiled form of [(QLaurent coefficient, _CompiledWord)]: one
    (rational, word) per coefficient term c q^e, with e added to the word's
    exp0, in the order of the list and of each coefficient's terms."""
    return [(c, cw._replace(exp0=cw.exp0 + e)) for coeff, cw in pairs
            for e, c in coeff.terms.items()]


def ref_split(terms):
    """A term list with each coefficient split into its terms: one
    (monomial, word) per term, in the order ``ref_fold`` takes them."""
    return [(QLaurent.q_power(e, c), w) for coeff, w in terms for e, c in coeff.terms.items()]


def ref_compiled(terms):
    """[(coefficient, compile(word))] over the terms whose word keeps a state."""
    compile_word = qclifford._CompiledWord.compile
    return [(c, cw) for c, w in terms if (cw := compile_word(w)) is not None]


def ref_assemble(op, tables):
    """The columns {col: {row: entry}} of the sum of the compiled words:
    each word adds its table's entry at every state it keeps, read off the
    word's image of that state (``_CompiledWord.image``), and the entries
    that cancel or vanish are dropped afterwards."""
    cols = {}
    for (_, cw), table in zip(op._compiled(), tables):
        low = cw.exponent_range()[0]
        for s in range(1 << op.length):
            if (image := cw.image(s)) is not None:
                row, negative, qexp = image
                col = cols.setdefault(s, {})
                col[row] = col.get(row, 0) + table[2 * (qexp - low) + negative]
    return {c: kept for c, col in cols.items() if (kept := {r: v for r, v in col.items() if v})}


@given(operators(), st.sampled_from(SPEC_VALUES))
@example(SPLIT_AT_TWO, 2)
def test_assembled_columns_match_the_summing_path(op, value):
    # the move builder against a column-by-column sum of the same tables
    value = Fraction(value)
    tables = [_table(cw, lambda e, c=c: c * value**e, 0) for c, cw in op._compiled()]
    moves = op._moves(tables)
    assert dict(moves) == dict(move_form(ref_assemble(op, tables), 1 << op.length))
    assert all(len(weights) == 1 << op.length and any(weights) for _, weights in moves)


@given(operators())
def test_table_indices_match_the_images(op):
    # every state's index into the word's table: the image's sign and
    # q-exponent where the word keeps the state, one past the entries where
    # it kills it
    for _, cw in op._compiled():
        low, high = cw.exponent_range()
        dead = 2 * (high - low + 1)
        want = [dead if (image := cw.image(s)) is None else 2 * (image[2] - low) + image[1]
                for s in range(1 << op.length)]
        assert cw.table_indices(op.length) == want


def test_split_coefficient_takes_the_summing_path():
    # q - 2 is two words of one move, which cancel at q = 2: their sum is
    # dropped with its move, and only the other word's move is left
    op = SPLIT_AT_TWO
    assert [cw.require_set ^ cw.final_set for _, cw in op._compiled()] == [0b1, 0b1, 0b10]
    moves, scale = op.specialize_ints(2)
    tables = [_table(cw, lambda e, c=c: c * Fraction(2)**e, 0) for c, cw in op._compiled()]
    assert (dict(op._moves(tables)) == scaled_moves(moves, scale)
            == dict(move_form(ref_assemble(op, tables), 8)))
    assert moves == [(0b10, [0 if s & 0b10 else (-1) ** (s & 1) * (1 if s & 0b100 else 2)
                             for s in range(8)])]
    assert scale == Fraction(1, 2)
    # at q = 3 the sum is nonzero, and its move comes first
    assert [move for move, _ in op.specialize_ints(3)[0]] == [0b1, 0b10]


def dense_columns(moves, scale):
    """Dense moves as columns {col: {row: entry}}, each weight times scale,
    without the zero weights."""
    cols = {}
    for move, weights in moves:
        for c, w in enumerate(weights):
            if w:
                cols.setdefault(c, {})[c ^ move] = w * scale
    return cols


GRID_SHAPES_UP_TO_10 = [(n, m) for n in range(1, 11) for m in range(1, 11) if n * m <= 10]
GRID_SPEC_VALUES = [Fraction(2), Fraction(3), Fraction(5, 3), Fraction(-2), Fraction(-1, 2)]


@pytest.mark.parametrize("n,m", GRID_SHAPES_UP_TO_10)
def test_grid_integer_moves_match_the_matrix_columns(n, m):
    # every lambda_q and rho_q E and F generator: its dense integer moves,
    # scaled, are the columns of its matrix at q = value, at positive,
    # negative and non-integer values
    exprs = [action(n, m, kind, i) for kind in ("E", "F")
             for action, count in ((lambda_q, n), (rho_q, m)) for i in range(1, count)]
    for expr in exprs:
        mat = expr.to_matrix()
        for value in GRID_SPEC_VALUES:
            moves, scale = expr.specialize_ints(value)
            assert_integer_moves(moves, n * m)
            assert dense_columns(moves, scale) == mat.specialize(value)


def test_grid_integer_moves_differential_catches_a_changed_entry():
    # negative control: one weight of rho_q F_1 at 2x3 changed by one, at a
    # kept state and at a killed one, and the columns no longer match
    expr = rho_q(2, 3, "F", 1)
    want = expr.to_matrix().specialize(2)
    for kept in (True, False):
        moves, scale = expr.specialize_ints(2)
        weights = moves[0][1]
        c = next(c for c, w in enumerate(weights) if bool(w) == kept)
        weights[c] += 1
        assert dense_columns(moves, scale) != want


def test_split_terms_that_cancel_are_zero():
    # (q - 1) w + w - q w: four compiled words, two per power of q, that
    # merge to nothing
    w = [(PSI_DAG, 1), (OMEGA, 3), (PSI, 2)]
    op = OperatorExpr(3, [(QLaurent({1: 1, 0: -1}), w), (1, w), (QLaurent.q_power(1, -1), w)])
    assert len(op._compiled()) == 4
    assert op.first_difference(OperatorExpr.zero(3)) is None
    assert op.first_difference_at_one(OperatorExpr.zero(3)) is None
    assert op.to_matrix().nnz() == 0


def deformed_relation(k, n, e):
    """psi_k psid_k + q^e psid_k psi_k - w_k^-e (e = +-1): a zero operator
    that no merge of equal words cancels."""
    psi, psid = OperatorExpr.psi(k, n), OperatorExpr.psi_dag(k, n)
    w = OperatorExpr.omega_inv(k, n) if e == 1 else OperatorExpr.omega(k, n)
    return psi * psid + (psid * psi).scale(QLaurent.q_power(e)) - w


@st.composite
def operator_pairs(draw):
    """(a, b) on one length: two drawn operators, or b and b + x R y with R
    a deformed relation (a zero sum), possibly plus a drawn perturbation."""
    b = draw(operators())
    n = b.length
    form = draw(st.sampled_from(["independent", "zero sum", "perturbed"]))
    if form == "independent":
        return draw(operators(n)), b
    k = draw(st.integers(1, n))
    relation = deformed_relation(k, n, draw(st.sampled_from([1, -1])))
    a = b + draw(operators(n)) * relation * draw(operators(n))
    if form == "perturbed":
        a = a + draw(operators(n))
    return a, b


@given(operator_pairs(), st.integers(-2, 2))
def test_word_decisions_match_the_matrices(pair, shift):
    # the word path (wordzero) against the matrices, witnesses included
    a, b = pair
    ma, mb = a.to_matrix(), b.to_matrix()
    assert a.first_difference(b) == ma.first_difference(mb)
    assert a.first_noncommuting(b, shift) == ma.first_noncommuting(mb, shift)


def _small_sums():
    """{name: (operator, first nonzero state)} on 3 positions."""
    n1 = [("psid", 1), ("psi", 1)]  # 1 on the states with position 1 occupied
    e1 = [("psi", 1), ("psid", 1)]  # 1 on the states without it
    # psi_2's sign depends on position 1, which the other two words touch:
    # psi_2 (1 + c n_1 + d e_1) is nonzero on state 2 (position 2 occupied)
    # unless d = -1, and on state 3 (positions 1 and 2) unless c = -1
    sums = {f"signs {c} {d}": (OperatorExpr(3, [
        (1, [("psi", 2)]), (c, [("psi", 2)] + n1), (d, [("psi", 2)] + e1)]), first)
        for (c, d), first in (((1, 1), 2), ((1, -1), 3), ((-1, 1), 2), ((-1, -1), None))}
    # entries that vanish at q = 2 or q = 3 but not in the Laurent ring
    roots = QLaurent({2: 1, 1: -5, 0: 6})  # (q - 2)(q - 3)
    sums["root factor"] = (OperatorExpr(3, [(roots, n1), (-roots, [])]), 0)
    sums["root entry"] = (
        OperatorExpr(3, [(1, [("winv", 1)]), (QLaurent({2: 1, 1: -5, 0: 5}), [])]), 0)
    sums["root entry, zero"] = (OperatorExpr(3, [
        (roots, [("winv", 1)] + n1), (-roots, n1), (QLaurent({1: -1, 0: 1}) * roots, n1)]), None)
    return sums


@pytest.mark.parametrize("name", sorted(_small_sums()))
def test_word_decisions_on_signs_and_small_roots(name):
    op, first = _small_sums()[name]
    assert op.to_matrix().first_difference(SparseMatrix(1 << op.length)) == first
    assert op.first_difference(OperatorExpr.zero(op.length)) == first


@pytest.mark.parametrize("N", range(1, 5))
def test_deformed_relations_are_zero_on_the_words(N):
    zero = OperatorExpr.zero(N)
    hop = OperatorExpr.word(N, [("psid", 1), ("w", N), ("psi", N)])
    for k in range(1, N + 1):
        for e in (1, -1):
            relation = deformed_relation(k, N, e)
            assert relation.first_difference(zero) is None
            assert (hop * relation * hop.scale(2)).first_difference(zero) is None
            # one word off: the first state it keeps is the witness
            off = relation + OperatorExpr.psi_dag(k, N)
            assert off.first_difference(zero) == 0
            assert off.to_matrix().first_difference(SparseMatrix(1 << N)) == 0


@given(operators(), st.dictionaries(st.integers(0, 15), st.integers(-2, 2), max_size=5))
def test_apply_matches_interpreter_on_vectors(op, entries):
    limit = 1 << op.length
    vec = {s % limit: QLaurent.from_rational(c) for s, c in entries.items()}
    vec = {s: c for s, c in vec.items() if c}
    assert op.apply(vec) == reference_apply(op, vec)


@st.composite
def word_sums_and_cancelling_vectors(draw):
    """A sum of two word sums on up to 5 positions and a vector of several entries; when
    the images of two basis states share a row, the vector holds two such
    states with the coefficients that cancel that row."""
    n = draw(st.integers(1, 5))
    op = draw(operators(n)) + draw(operators(n))
    states = st.integers(0, (1 << n) - 1)
    coeffs = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2).map(
        QLaurent).filter(bool)
    vec = draw(st.dictionaries(states, coeffs, min_size=2, max_size=4))
    cols = [op.apply({s: QLaurent.one()}) for s in range(1 << op.length)]
    shared = [(s1, s2, r) for s1 in range(len(cols)) for s2 in range(s1 + 1, len(cols))
              for r in sorted(cols[s1].keys() & cols[s2].keys())]
    if shared:
        s1, s2, r = draw(st.sampled_from(shared))
        vec[s1], vec[s2] = cols[s2][r], -cols[s1][r]
    return op, vec


@given(word_sums_and_cancelling_vectors())
def test_apply_matches_the_matrix_apply(pair):
    # the two apply paths: the compiled words state by state, and the
    # matrix's columns summed with the zero filter deferred to the end
    op, vec = pair
    image = op.apply(vec)
    assert image == op.to_matrix().apply(vec)
    assert all(image.values())


@pytest.mark.parametrize("word", [
    [("psi", 2), ("psi", 2)],                  # dead: psi_k psi_k
    [("psid", 1), ("psid", 1)],                # dead: psid_k psid_k
    [("psid", 2), ("psi", 2)],                 # number operator: repeated position
    [("psi", 2), ("psid", 2), ("psi", 2)],
    [("w", 2), ("psid", 2)],                   # w sees the created particle
    [("winv", 2), ("psi", 2)],                 # w^-1 sees the vacated position
    [("psid", 2), ("w", 2), ("psi", 2), ("winv", 3)],
    [("w", 1), ("winv", 1), ("w", 3), ("w", 3)],
    [("psid", 1), ("psi", 3), ("psid", 2), ("psi", 1)],
    [],                                        # the empty word
])
def test_compiled_word_cases(word):
    op = OperatorExpr.word(3, word, coeff=QLaurent({-1: 2, 1: -1}))
    assert_compiled_matches(op)


@pytest.mark.parametrize("terms", [
    [(1, [("psi", 1), ("psi", 2), ("psid", 1), ("psid", 2)])],  # -1 on states with 1, 2 empty
    [(1, [("psid", 2), ("psi", 2)]), (QLaurent.q_power(1), [("psi", 2), ("psid", 2)])],
    [(QLaurent({0: 1, 2: -3}), [("w", 1), ("winv", 3)]), (-1, [])],
])
def test_diagonal_words_take_the_diagonal_form(terms):
    op = OperatorExpr(3, terms)
    assert all(col.keys() == {c} for c, col in op.to_matrix().cols.items())
    assert_compiled_matches(op)


def test_dead_and_empty_words():
    assert OperatorExpr.word(3, [("psi", 2), ("psi", 2)]).to_matrix().nnz() == 0
    assert OperatorExpr.word(3, []).to_matrix() == SparseMatrix.identity(8)
    # cancelling terms leave no zero entries or empty columns behind
    op = OperatorExpr.psi(1, 2) - OperatorExpr.psi(1, 2)
    assert op.to_matrix().nnz() == 0 and op.to_matrix().cols == {}


@pytest.mark.parametrize("word, weights", [
    ([("w", 1), ("w", 3)], ((-1, 0b101),)),                    # negative weights
    ([("winv", 2), ("w", 1), ("w", 1), ("psid", 3)], ((-2, 0b1), (1, 0b10))),
    ([("psi", 1), ("winv", 1), ("w", 2)], ((-1, 0b10),)),      # position 1 touched
])
def test_untouched_weights(word, weights):
    (_, cw), = OperatorExpr.word(3, word)._compiled()
    assert cw.exp_masks == weights
    assert_compiled_matches(OperatorExpr.word(3, word))


@pytest.mark.parametrize("terms, zero", [
    # one mask, and the words cancel on every state
    ([(1, [("psid", 1), ("psi", 2)]), (-1, [("w", 3), ("winv", 3), ("psid", 1), ("psi", 2)])], True),
    # one mask, cancelling only on the states without position 3
    ([(1, [("psid", 1), ("psi", 2)]), (-1, [("w", 3), ("psid", 1), ("psi", 2)])], False),
    # two masks, one word cancelled: the column form of the other word
    ([(1, [("psi", 1)]), (-1, [("psi", 1)]), (2, [("psid", 2)])], False),
])
def test_words_that_cancel(terms, zero):
    op = OperatorExpr(3, terms)
    assert (op.to_matrix().nnz() == 0) == zero
    assert_compiled_matches(op)


def test_diagonal_words_on_complementary_states_match_the_reference():
    # two diagonal words that keep complementary states
    psi, psid = OperatorExpr.psi(1, 6), OperatorExpr.psi_dag(1, 6)
    op = psi * psid + (psid * psi).scale(QLaurent.q_power(1))
    assert_compiled_matches(op)


def test_wide_coefficient_digit_matches_the_reference():
    op = OperatorExpr(4, [(QLaurent({0: WIDE_DIGITS[0]}), [("psi", 2)]),
                          (QLaurent({-1: 3}), [("w", 1), ("psid", 3)])])
    assert_compiled_matches(op)


def grid_generators():
    """(builder, n, m, kind, index) for every generator of the four grid
    actions and every phi_q o theta composite, at 2x3 and 3x2."""
    quantum = ("E", "F", "L", "Linv", "K", "Kinv")
    cases = []
    for n, m in ((2, 3), (3, 2)):
        for builder, rank, kinds in (
            (lambda_q, n, quantum), (rho_q, m, quantum), (compose_phi_theta, n, quantum),
            (classical_lambda, n, ("E", "F", "L")), (classical_rho, m, ("E", "F", "L")),
        ):
            for kind in kinds:
                top = rank if kind in ("L", "Linv") else rank - 1
                cases += [(builder, n, m, kind, i) for i in range(1, top + 1)]
    return cases


@pytest.mark.parametrize("builder, n, m, kind, index", grid_generators(),
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_grid_generators_match_interpreter(builder, n, m, kind, index):
    assert_compiled_matches(builder(n, m, kind, index))


# -- products composed on the masks against compiling the concatenation ---------


def compiled_product(a, b):
    """The folded [(coefficient, compile(wa + wb))] over the pairs of
    coefficient terms of a and b whose concatenated word keeps a state: the
    product's words, compiled from the concatenated tuples."""
    return ref_fold(ref_compiled([(ca * cb, wa + wb) for ca, wa in ref_split(a.terms)
                                  for cb, wb in ref_split(b.terms)]))


@given(operators(), st.data())
def test_compose_matches_compiling_the_concatenation(a, data):
    b = data.draw(operators(a.length))
    compile_word = qclifford._CompiledWord.compile
    for _, wa in a.terms:
        for _, wb in b.terms:
            ca, cb = compile_word(wa), compile_word(wb)
            want = compile_word(wa + wb)
            if ca is None or cb is None:
                assert want is None
            else:
                assert ca.compose(cb) == want
    assert (a * b)._compiled() == compiled_product(a, b)


@pytest.mark.parametrize("wa, wb", [
    ([("psi", 2)], [("psi", 2)]),                           # dead: a needs bit 2, b clears it
    ([("psid", 1), ("psi", 3)], [("psi", 3), ("psid", 1)]),  # dead: a needs bit 1 clear, b sets it
    ([("w", 2), ("psid", 2), ("winv", 3)], [("winv", 2), ("psi", 2), ("w", 3)]),  # both touch 2
    ([("winv", 2), ("psi", 2)], [("w", 2), ("psid", 2), ("winv", 4)]),
    ([("w", 1), ("psi", 3)], [("psid", 1)]),                 # a's weight on b's final bit
    ([("winv", 1), ("w", 4)], [("psid", 1), ("winv", 4)]),   # weights on bit 4 sum to 0
    ([("w", 3), ("psi", 1)], [("w", 3), ("psid", 2)]),       # weights on bit 3 sum to -2
    ([("psi", 3)], [("psid", 1), ("psi", 2)]),               # a's sign mask across b's bits
    ([("psid", 4), ("psi", 3)], [("psid", 3), ("psi", 1)]),
    ([("psi", 2), ("psi", 2)], [("psid", 1)]),               # dead operand a
    ([("psid", 1)], [("psid", 3), ("psid", 3)]),             # dead operand b
])
def test_compose_cases(wa, wb):
    a = OperatorExpr.word(4, wa, coeff=QLaurent({0: 2, 1: -1}))
    b = OperatorExpr.word(4, wb, coeff=QLaurent.q_power(-1))
    (_, word), = (a * b).terms
    want = qclifford._CompiledWord.compile(word)
    assert (a * b)._compiled() == compiled_product(a, b) == (
        [] if want is None else ref_fold([(QLaurent({-1: 2, 0: -1}), want)]))
    assert_compiled_matches(a * b)


# -- disjoint words q-commute, decided from their masks ---------------------------

# per-position blocks of psi and psid that keep some state
LIVE_BLOCKS = [(PSI,), (PSI_DAG,), (PSI_DAG, PSI), (PSI, PSI_DAG), (PSI_DAG, PSI, PSI_DAG)]


@st.composite
def live_words(draw, n, own):
    """A word that keeps some state: one live block of psi and psid on each
    position of own, in a drawn order, with w and winv on any of the n
    positions inserted anywhere (a word over no own position is a torus
    word)."""
    word = [(kind, k) for k in draw(st.permutations(own))
            for kind in draw(st.sampled_from(LIVE_BLOCKS))]
    torus = st.tuples(st.sampled_from([OMEGA, OMEGA_INV]), st.integers(1, n))
    for gen in draw(st.lists(torus, max_size=4)):
        word.insert(draw(st.integers(0, len(word))), gen)
    return word


@st.composite
def disjoint_words(draw):
    """(n, u, v): two live words on n <= 8 positions whose psi and psid
    positions do not meet."""
    n = draw(st.integers(1, 8))
    side = draw(st.lists(st.sampled_from("uv-"), min_size=n, max_size=n))
    u, v = (draw(live_words(n, [k + 1 for k, s in enumerate(side) if s == name]))
            for name in "uv")
    return n, u, v


@given(disjoint_words())
@example((3, [(PSI, 2)], [(PSI_DAG, 1)]))        # psi_2 counts position 1: odd parity
@example((3, [(PSI, 3)], [(PSI_DAG, 1), (PSI, 2)]))  # v moves two bits below 3: even
@example((2, [(OMEGA, 1), (OMEGA_INV, 2)], [(PSI_DAG, 1)]))  # a torus word: q^-1
@example((2, [(OMEGA, 1)], [(OMEGA_INV, 1), (OMEGA, 2)]))  # two torus words commute
def test_disjoint_words_q_commute(words):
    # u∘v = (-1)^p q^e v∘u, against compiling both concatenations
    n, wu, wv = words
    compile_word = qclifford._CompiledWord.compile
    u, v = compile_word(wu), compile_word(wv)
    p, e = qclifford._commutation(u, v)
    uv, vu = compile_word(wu + wv), compile_word(wv + wu)
    assert uv is not None and vu is not None
    assert u.compose(v) == uv and v.compose(u) == vu
    assert uv == vu._replace(sign_odd=vu.sign_odd ^ p, exp0=vu.exp0 + e)
    assert qclifford._commutation(v, u) == (p, -e)
    # and on the states, by the interpreter of the concatenated words
    uv_op, vu_op = OperatorExpr.word(n, wu + wv), OperatorExpr.word(n, wv + wu)
    for state in range(1 << n):
        vec = {state: QLaurent.one()}
        assert reference_apply(uv_op, vec) == {
            s: c.scale(-1 if p else 1).shift(e) for s, c in reference_apply(vu_op, vec).items()}


def test_commutation_of_words_that_meet_is_undecided():
    compile_word = qclifford._CompiledWord.compile
    u = compile_word([(PSI, 2), (OMEGA, 1)])
    assert qclifford._commutation(u, compile_word([(PSI_DAG, 2)])) is None
    assert qclifford._commutation(u, compile_word([(PSI_DAG, 1), (PSI, 1)])) == (0, 0)
    assert qclifford._commutation(u, compile_word([(PSI, 1)])) == (1, 1)


@st.composite
def overlapping_operator_pairs(draw):
    """(x, y) on n <= 6 positions: each term's psi and psid stay on its
    operator's own positions or on the shared ones, w and winv anywhere, so
    most word pairs are disjoint and some meet.  The two operators may share
    a term, and coefficients carry several q-powers."""
    n = draw(st.integers(1, 6))
    side = draw(st.lists(st.sampled_from("xys-"), min_size=n, max_size=n))
    coeffs = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2).map(QLaurent)

    def terms(name):
        own = [k + 1 for k, s in enumerate(side) if s in (name, "s")]
        return [(draw(coeffs), draw(live_words(n, draw(st.lists(st.sampled_from(own), unique=True))
                                                    if own else [])))
                for _ in range(draw(st.integers(1, 3)))]

    tx, ty = terms("x"), terms("y")
    if tx and ty and draw(st.booleans()):
        ty.append(tx[0])
    return OperatorExpr(n, tx), OperatorExpr(n, ty)


@given(overlapping_operator_pairs(), st.integers(-3, 3))
@example((OperatorExpr.psi(2, 3), OperatorExpr.psi_dag(1, 3)), 0)  # they anticommute
def test_noncommuting_words_with_disjoint_pairs_match_the_matrices(pair, shift):
    # first_noncommuting skips the disjoint pairs that cancel; the matrices
    # compose every pair, witnesses included.  Besides the drawn shift, each
    # shift at which a disjoint pair cancels, or would with the other parity
    x, y = pair
    mx, my = x.to_matrix(), y.to_matrix()
    shifts = {shift} | {pe[1] for _, u in x._compiled() for _, v in y._compiled()
                        if (pe := qclifford._commutation(u, v))}
    for s in sorted(shifts):
        assert x.first_noncommuting(y, s) == mx.first_noncommuting(my, s)
        assert y.first_noncommuting(x, -s) == my.first_noncommuting(mx, -s)


def eager(kind, *args):
    """The term list of an operator built by the algebra (kind: "+", "neg",
    "*" or "scale"), concatenating the words of the operands' term lists
    args at once."""
    if kind == "+":
        return args[0] + args[1]
    if kind == "neg":
        return [(-c, w) for c, w in args[0]]
    if kind == "*":
        return [(ca * cb, wa + wb) for ca, wa in args[0] for cb, wb in args[1]]
    coeff = args[1]
    return [(c * coeff, w) for c, w in args[0]] if coeff else []


def eager_split(kind, *args):
    """``eager`` on split term lists (``ref_split``), keeping them split: a
    scale splits each term again over the factor's terms."""
    if kind == "scale":
        return eager("*", args[0], ref_split([(args[1], ())]))
    return eager(kind, *args)


@st.composite
def algebra_expressions(draw):
    """(operator, its term list by eager concatenation, the same with its
    coefficients split by ``eager_split``): three drawn operators combined
    by up to six of +, -, *, unary - and scale, each step's operands drawn
    from everything built so far."""
    n = draw(st.integers(1, 5))
    built = [(op, list(op.terms), ref_split(op.terms))
             for op in (draw(operators(n)) for _ in range(3))]
    for _ in range(draw(st.integers(1, 6))):
        (a, ta, sa), (b, tb, sb) = draw(st.sampled_from(built)), draw(st.sampled_from(built))
        how = draw(st.sampled_from(["+", "-", "*", "neg", "scale"]))
        coeff = None
        if how == "scale":
            coeff = QLaurent(draw(st.dictionaries(st.integers(-2, 2), st.integers(-2, 2),
                                                  max_size=2)))
        op = {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
              "neg": lambda: -a, "scale": lambda: a.scale(coeff)}[how]()
        built.append((op, algebra_step(eager, how, ta, tb, coeff),
                      algebra_step(eager_split, how, sa, sb, coeff)))
    return built[-1]


def algebra_step(build, how, ta, tb, coeff):
    """One step of algebra_expressions on term lists, by build (``eager`` or
    ``eager_split``)."""
    if how == "-":
        return build("+", ta, build("neg", tb))
    return build(how, ta, coeff if how == "scale" else tb)


@given(algebra_expressions())
def test_algebra_lists_the_eager_terms(expr):
    # terms are built from the operands on first read: the same list, text
    # and compiled words as concatenating the words at every step
    op, terms, split = expr
    want = OperatorExpr(op.length, terms)
    assert op._compiled() == ref_fold(ref_compiled(split))
    assert op.terms == terms and str(op) == str(want)


def test_sum_built_in_a_loop_lists_the_eager_terms():
    # compose_phi_theta sums its phi_q words in a loop of products
    n, m = 2, 3
    N = n * m
    for kind, index in (("E", 1), ("F", 1), ("L", 2), ("K", 1)):
        terms = []
        for coeff, word in embeddings.theta(n, m, kind, index):
            product = [(QLaurent.one(), ())]
            for gen in word:
                product = eager("*", product, embeddings.phi_q(N, gen.kind, gen.index).terms)
            terms = eager("+", terms, eager("scale", product, coeff))
        op = compose_phi_theta(n, m, kind, index)
        want = OperatorExpr(N, terms)
        assert op._compiled() == want._compiled()
        assert op.terms == terms and str(op) == str(want)


def test_long_chains_list_their_terms():
    # a sum of 3000 operators built one at a time lists its terms, with no
    # recursion through the chain of operands
    op = OperatorExpr.zero(3)
    for k in range(3000):
        op = op + OperatorExpr.psi(k % 3 + 1, 3).scale(k + 1)
    assert len(op.terms) == 3000
    assert op.terms[-1] == (QLaurent.from_rational(3000), (qclifford.CliffordGen(PSI, 3),))


@pytest.mark.parametrize("map_name", ["lambda_q", "rho_q", "phi_q", "classical_lambda"])
def test_explain_reads_the_same_terms_through_the_algebra(map_name):
    # an image built through the algebra prints what explain prints for it
    for kind, index in (("E", 1), ("F", 1), ("L", 1)):
        text = embeddings.explain(map_name, 2, 2, kind, index)
        op = embeddings._MAPS[map_name](2, 2, kind, index)
        ident = OperatorExpr.identity(op.length, op.classical)
        for built in (ident * op * ident, op + OperatorExpr.zero(op.length), -(-op), op.scale(1)):
            assert text == f"{map_name}({kind}{index}) = {built}"
