import pytest
from hypothesis import given, strategies as st

from qhowe import embeddings
from qhowe.braided_ext import (
    apply_eps_q,
    apply_iota_q,
    check_module_algebra,
    eps_q,
    iota_q,
    module_algebra_action,
    mul,
    normalize,
)
from qhowe.embeddings import phi_q
from qhowe.qscalar import QLaurent


def S(text):
    """The occupancy word rendered as text, position 1 leftmost."""
    return int(text[::-1], 2)


def V(text, coeff=QLaurent.one()):
    """The basis vector of an occupancy word, as a sparse vector."""
    return {S(text): coeff}


class TestNormalize:
    def test_examples(self):
        assert normalize((2, 1), 2) == (QLaurent({-1: -1}), S("11"))
        assert normalize((1, 1), 2) is None
        assert normalize((3, 1, 2), 3) == (QLaurent({-2: 1}), S("111"))

    def test_sorted_word_is_monic(self):
        coeff, state = normalize((1, 3, 4), 4)
        assert coeff == QLaurent.one() and state == S("1011")

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    def test_scalar_is_unit_power(self, letters):
        result = normalize(letters, 5)
        if result is None:
            assert len(set(letters)) < len(letters)
        else:
            coeff, state = result
            term = coeff.single_term()
            assert term is not None and term[1] in (1, -1)
            assert state.bit_count() == len(letters)


class TestMul:
    def test_examples(self):
        assert mul(V("10"), V("01"), 2) == V("11")
        assert mul(V("01"), V("10"), 2) == V("11", QLaurent({-1: -1}))
        assert not mul(V("10"), V("10"), 2)

    @given(st.integers(2, 6), st.data())
    def test_associative_on_basis(self, n, data):
        states = st.integers(0, (1 << n) - 1)
        a, b, c = ({data.draw(states): QLaurent.one()} for _ in range(3))
        assert mul(mul(a, b, n), c, n) == mul(a, mul(b, c, n), n)

    @given(st.integers(2, 6), st.data())
    def test_degree_adds_or_zero(self, n, data):
        states = st.integers(0, (1 << n) - 1)
        sa, sb = data.draw(states), data.draw(states)
        prod = mul({sa: QLaurent.one()}, {sb: QLaurent.one()}, n)
        if prod:
            (state,) = prod
            assert state.bit_count() == sa.bit_count() + sb.bit_count()


class TestQuantizedMultOps:
    def test_examples(self):
        assert iota_q(2, 2).apply(V("11")) == V("10", QLaurent({1: -1}))
        assert eps_q(1, 2).apply(V("01")) == V("11")
        lhs = (eps_q(2, 3) * iota_q(3, 3)).apply(V("101"))
        assert lhs == phi_q(3, "E", 2).apply(V("101"))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_word_matches_direct_formula(self, n):
        for i in range(1, n + 1):
            word_i, word_e = iota_q(i, n), eps_q(i, n)
            for bits in range(1 << n):
                v = {bits: QLaurent.one()}
                assert word_i.apply(v) == apply_iota_q(i, v)
                assert word_e.apply(v) == apply_eps_q(i, v)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_eps_iota_realize_root_vectors(self, n):
        for i in range(1, n):
            e_word = (eps_q(i, n) * iota_q(i + 1, n)).to_matrix()
            assert e_word == phi_q(n, "E", i).to_matrix()
            f_word = (eps_q(i + 1, n) * iota_q(i, n)).to_matrix()
            assert f_word == phi_q(n, "F", i).to_matrix()


class TestModuleAlgebraAction:
    def test_examples(self):
        assert module_algebra_action("E", 1, V("01"), 2) == V("10")
        assert module_algebra_action("L", 1, V("11"), 2) == V("11", QLaurent({1: 1}))
        for n in (2, 3):
            for bits in range(1 << n):
                v = {bits: QLaurent.one()}
                for i in range(1, n):
                    if not (bits >> i) & 1:  # position i+1 vacant
                        assert not module_algebra_action("E", i, v, n)

    def test_state_out_of_range(self):
        one = QLaurent.one()
        for kind, i in [("E", 1), ("F", 1), ("L", 2), ("Linv", 1)]:
            with pytest.raises(ValueError, match="state 8 does not fit in 3 positions"):
                module_algebra_action(kind, i, {1 << 3: one}, 3)
        with pytest.raises(ValueError):
            module_algebra_action("L", 1, {-1: one}, 3)

    def test_counit_on_vacuum(self):
        vac = V("000")
        assert not module_algebra_action("E", 1, vac, 3)
        assert not module_algebra_action("F", 2, vac, 3)
        assert module_algebra_action("L", 2, vac, 3) == vac

    @pytest.mark.parametrize("n", range(1, 6))
    def test_agrees_with_clifford_realization(self, n):
        assert check_module_algebra(n)["status"] == "pass"

    def test_refuses_past_16_positions(self):
        # it compares the two actions on each of the 2^n basis states
        with pytest.raises(ValueError, match=r"2\^17 = 131072 columns"):
            check_module_algebra(17)

    def test_phi_without_q_inverse_fails(self, monkeypatch):
        # negative control: the E image of phi_q without its q^-1 coefficient.
        # (A wrong K-exponent in the coproduct action would be no control:
        # every surviving E/F term keeps its word sorted with no other letter
        # equal to i or i+1, so that exponent is always 0.)
        phi = embeddings.phi_q

        def unscaled(p, kind, index):
            op = phi(p, kind, index)
            return op.scale(QLaurent.q_power(1)) if kind == "E" else op

        monkeypatch.setattr(embeddings, "phi_q", unscaled)
        report = check_module_algebra(3)
        assert report["status"] == "fail"
        failed = [(c["generator"], c.get("witness")) for c in report["checks"]
                  if c["status"] == "fail"]
        assert failed == [("E1", "010"), ("E2", "001")]
