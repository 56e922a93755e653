import signal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qhowe import qscalar
from qhowe.qscalar import (
    MAX_EXPONENT,
    NonExactDivision,
    QLaurent,
    exact_div,
    q_binomial,
    q_factorial,
    q_int,
)


def L(terms):
    return QLaurent(terms)


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
polys = st.dictionaries(st.integers(-6, 6), coeffs, max_size=6).map(QLaurent)
nonzero_polys = polys.filter(bool)


class TestQInt:
    def test_base_cases(self):
        assert q_int(1) == QLaurent.one()
        assert q_int(0) == QLaurent.zero()

    def test_three(self):
        assert q_int(3) == L({2: 1, 0: 1, -2: 1})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_int(-1)

    @pytest.mark.parametrize("k", range(13))
    def test_division_oracle(self, k):
        # independent oracle: [k]_q is the exact quotient (q^k - q^-k)/(q - q^-1)
        num = L({k: 1, -k: -1})
        den = L({1: 1, -1: -1})
        expect = exact_div(num, den) if k else QLaurent.zero()
        assert q_int(k) == expect

    @pytest.mark.parametrize("k", range(13))
    def test_specialize_at_one(self, k):
        assert q_int(k).specialize(1) == k


class TestQBinomial:
    def test_examples(self):
        assert q_binomial(2, 1) == q_int(2)
        assert q_binomial(3, 0) == QLaurent.one()
        assert q_binomial(4, 2) == L({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            q_binomial(2, 3)
        with pytest.raises(ValueError):
            q_binomial(2, -1)

    @pytest.mark.parametrize("a", range(1, 9))
    def test_pascal(self, a):
        # q-Pascal: [a,b] = [a-1,b-1] q^(a-b) + [a-1,b] q^(-b)
        for b in range(1, a + 1):
            rhs = q_binomial(a - 1, b - 1) * QLaurent.q_power(a - b)
            if b <= a - 1:
                rhs = rhs + q_binomial(a - 1, b) * QLaurent.q_power(-b)
            assert q_binomial(a, b) == rhs

    @pytest.mark.parametrize("a", range(15))
    def test_product_formula_matches_the_factorial_quotient(self, a):
        # the product formula against [a]! / ([b]! [a-b]!), whole factorials
        # divided at once
        for b in range(a + 1):
            want = exact_div(q_factorial(a), q_factorial(b) * q_factorial(a - b))
            assert q_binomial(a, b) == want

    @pytest.mark.parametrize("a,b", [(4, 2), (6, 3), (7, 2)])
    def test_specialization_oracle(self, a, b):
        # independent route: evaluate the factorial quotient at rational points
        for v in (Fraction(2), Fraction(3), Fraction(5, 2)):
            direct = q_binomial(a, b).specialize(v)
            fact = lambda k: q_factorial(k).specialize(v)
            assert direct == fact(a) / (fact(b) * fact(a - b))


class TestExactDiv:
    def test_examples(self):
        assert exact_div(L({2: 1, -2: -1}), L({1: 1, -1: -1})) == L({1: 1, -1: 1})
        d = L({1: 1, -1: -1})
        assert exact_div(d, d) == QLaurent.one()

    def test_non_exact(self):
        with pytest.raises(NonExactDivision):
            exact_div(L({1: 1}), L({1: 1, -1: -1}))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(QLaurent.one(), QLaurent.zero())

    @given(polys, nonzero_polys)
    def test_roundtrip(self, a, b):
        assert exact_div(a * b, b) == a


def ref_exact_div(num, den):
    """Long division with every coefficient a Fraction: the oracle for the
    int steps of exact_div."""
    if not den.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num.terms:
        return QLaurent.zero()
    vn, vd = min(num.terms), min(den.terms)
    rem = {e - vn: Fraction(c) for e, c in num.terms.items()}
    dpoly = {e - vd: Fraction(c) for e, c in den.terms.items()}
    ddeg = max(dpoly)
    quot = {}
    while rem:
        rdeg = max(rem)
        if rdeg < ddeg:
            raise NonExactDivision(f"remainder of degree {rdeg} is nonzero")
        factor = rem[rdeg] / dpoly[ddeg]
        quot[rdeg - ddeg] = factor
        for e, c in dpoly.items():
            k = e + rdeg - ddeg
            rem[k] = rem.get(k, 0) - factor * c
            if not rem[k]:
                del rem[k]
    return QLaurent({e + vn - vd: c for e, c in quot.items()})


# int, Fraction and mixed coefficients; divisors led by 1, by -1, by another
# int (2q + 1 is one) and by a Fraction
int_polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6).map(QLaurent)
mixed_polys = st.dictionaries(
    st.integers(-6, 6), st.one_of(st.integers(-9, 9), coeffs), max_size=6).map(QLaurent)
dividends = st.one_of(int_polys, polys, mixed_polys)
leads = st.one_of(st.sampled_from([1, -1, 2, -3]), coeffs.filter(bool))
divisors = st.builds(
    lambda body, top, lead: body + QLaurent.q_power(top, lead),
    st.one_of(int_polys, mixed_polys).map(
        lambda p: QLaurent({e: c for e, c in p.terms.items() if e < 3})),
    st.integers(3, 5), leads)


class TestExactDivMatchesFractionDivision:
    @given(dividends, divisors)
    def test_products_divide_back(self, a, d):
        assert exact_div(a * d, d).terms == ref_exact_div(a * d, d).terms == a.terms

    @given(dividends, divisors)
    def test_any_pair_divides_or_raises_on_both_sides(self, a, d):
        try:
            want = ref_exact_div(a, d)
        except NonExactDivision:
            with pytest.raises(NonExactDivision):
                exact_div(a, d)
        else:
            assert exact_div(a, d).terms == want.terms

    @pytest.mark.parametrize("num,den", [
        ({1: 4, 0: 4, -1: 1}, {1: 2, 0: 1}),                     # (2q + 1)^2 / (2q + 1)
        ({1: 2, 0: 3, -1: 1}, {1: 2, 0: 1}),                     # (2q + 1)(q + 1) q^-1
        ({2: -1, 1: 1, 0: -1, -1: 1}, {1: -1, -1: -1}),          # -(q + q^-1) leads
        ({1: Fraction(1, 2), 0: 1}, {0: 1, -1: 2}),              # a Fraction dividend
        ({1: 1, 0: 1}, {0: Fraction(1, 3), -1: Fraction(1, 3)}),  # a Fraction divisor
    ])
    def test_pinned_pairs(self, num, den):
        assert exact_div(L(num), L(den)).terms == ref_exact_div(L(num), L(den)).terms

    @pytest.mark.parametrize("num,den", [({1: 1, 0: 1}, {1: 2, 0: 1}), ({2: 1}, {1: 1, 0: 1})])
    def test_pinned_remainders(self, num, den):
        with pytest.raises(NonExactDivision):
            ref_exact_div(L(num), L(den))
        with pytest.raises(NonExactDivision):
            exact_div(L(num), L(den))


class _NoFraction(Fraction):
    """Fraction for isinstance checks; building one is an error."""

    def __new__(cls, *args, **kwargs):
        raise AssertionError("exact division built a Fraction")


def test_integer_divisions_build_no_fraction(monkeypatch):
    # q-binomials divide by monic integer polynomials: every step is an int
    want = q_binomial(8, 4)
    monkeypatch.setattr(qscalar, "Fraction", _NoFraction)
    assert q_binomial(8, 4) == want
    assert exact_div(q_factorial(8), q_factorial(4) * q_factorial(4)) == want
    with pytest.raises(AssertionError, match="built a Fraction"):
        exact_div(L({1: 1, 0: 1}), L({1: 2, 0: 2}))


class _OffByOne(Fraction):
    """A Fraction whose quotients come out one too large."""

    def __truediv__(self, other):
        return Fraction.__truediv__(self, other) + 1


def test_a_step_that_does_not_cancel_raises(monkeypatch):
    # 1 / 2 is a Fraction step; its factor 3/2 leaves -2 q^2, whose step
    # factor 0 cancels nothing again and again
    num, den = L({2: 1, 0: 1}), L({1: 2, 0: 1})
    monkeypatch.setattr(qscalar, "Fraction", _OffByOne)

    def hung(signum, frame):
        raise TimeoutError("exact_div did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with pytest.raises(RuntimeError, match="did not cancel the q\\^2 term"):
            exact_div(num, den)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def ref_mul(a, b):
    """The product term by term; the constructor checks every exponent."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return QLaurent(out)


# exponents near zero and at both ends of the allowed range
edge_exponents = st.one_of(
    st.integers(-4, 4),
    st.integers(MAX_EXPONENT - 4, MAX_EXPONENT),
    st.integers(-MAX_EXPONENT, -MAX_EXPONENT + 4),
)
edge_monomials = st.builds(QLaurent.q_power, edge_exponents, coeffs.filter(bool))
edge_polys = st.dictionaries(edge_exponents, coeffs, max_size=3).map(QLaurent)


class TestRingAxioms:
    @given(polys, polys, polys)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(polys, polys)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(st.one_of(edge_monomials, edge_polys), st.one_of(edge_monomials, edge_polys))
    def test_mul_matches_the_term_by_term_product(self, a, b):
        # covers the monomial-times-monomial branch at both exponent bounds
        try:
            want = ref_mul(a, b)
        except OverflowError:
            with pytest.raises(OverflowError):
                a * b
        else:
            assert (a * b).terms == want.terms

    @given(polys)
    def test_no_zero_terms_stored(self, a):
        assert all(c != 0 for c in a.terms.values())
        assert all(c != 0 for c in (a - a).terms.values())
        assert not (a - a)


class TestSpecialize:
    def test_examples(self):
        assert L({1: 1, -1: 1}).specialize(1) == 2
        assert L({2: 1, 0: 1, -2: 1}).specialize(2) == Fraction(21, 4)
        assert L({1: 1, -1: -1}).specialize(1) == 0

    def test_zero_point_rejected(self):
        with pytest.raises(ZeroDivisionError):
            L({-1: 1}).specialize(0)


class TestSerialization:
    def test_str(self):
        assert str(L({2: 1, 0: 1, -2: 1})) == "q^2 + 1 + q^-2"
        assert str(QLaurent.zero()) == "0"
        assert str(L({-1: Fraction(-1)})) == "-q^-1"


class TestScalarContract:
    """Hash/eq, type and overflow contract of the scalar ring."""

    @pytest.mark.parametrize("c", [0, 3, -7, Fraction(1, 2), Fraction(-5, 3)])
    def test_constants_hash_like_their_value(self, c):
        p = QLaurent.from_rational(c)
        assert p == c
        assert hash(p) == hash(c)
        assert len({p, c}) == 1

    @pytest.mark.parametrize("terms", [{True: 1}, {1: True}, {False: 2}, {0: False}])
    def test_bool_rejected_in_terms(self, terms):
        with pytest.raises(TypeError):
            QLaurent(terms)

    def test_bool_rejected_elsewhere(self):
        with pytest.raises(TypeError):
            QLaurent.q_power(True)
        with pytest.raises(TypeError):
            QLaurent.q_power(1, True)
        with pytest.raises(TypeError):
            QLaurent.from_rational(True)
        with pytest.raises(TypeError):
            QLaurent.one().shift(True)
        assert QLaurent.one() != True  # noqa: E712 - compares, never raises

    @pytest.mark.parametrize("value", [0.1, 2.0, True, "2"])
    def test_specialize_needs_exact_value(self, value):
        with pytest.raises(TypeError):
            L({1: 1}).specialize(value)

    def test_monomial_product_keeps_overflow_guard(self):
        big = QLaurent.q_power(1 << 30)
        with pytest.raises(OverflowError):
            big * QLaurent.q_power(1)
        with pytest.raises(OverflowError):
            QLaurent.q_power(1) * big
        with pytest.raises(OverflowError):
            L({1: 1, 2: 1}) * big
        with pytest.raises(OverflowError):
            big.shift(1)
        assert (big * QLaurent.q_power(-1)).single_term() == ((1 << 30) - 1, 1)
