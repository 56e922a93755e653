"""Differential tests of the packed SparseMatrix kernel.

Each operation is compared against a plain dict-of-QLaurent reference
written here, on random matrices with negative, Fraction and large
coefficients and with exponent ranges far apart, so that offsets, digit
widths and denominators differ between operands.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from qhowe import sparsemat
from qhowe.qclifford import OperatorExpr
from qhowe.qscalar import QLaurent
from qhowe.sparsemat import RationalEchelon, SparseMatrix

# -- the reference: {col: {row: QLaurent}} with no zeros kept ------------------


def ref_clean(cols):
    out = {}
    for c, col in cols.items():
        col = {r: v for r, v in col.items() if v}
        if col:
            out[c] = col
    return out


def ref_add(a, b, sign=1):
    out = {c: dict(col) for c, col in a.items()}
    for c, col in b.items():
        dst = out.setdefault(c, {})
        for r, v in col.items():
            dst[r] = dst.get(r, QLaurent.zero()) + (v if sign > 0 else -v)
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for c, bcol in b.items():
        dst = out.setdefault(c, {})
        for k, bv in bcol.items():
            for r, av in a.get(k, {}).items():
                dst[r] = dst.get(r, QLaurent.zero()) + av * bv
    return ref_clean(out)


def ref_scale(a, coeff):
    return ref_clean({c: {r: v * coeff for r, v in col.items()} for c, col in a.items()})


def ref_kron(a, b, d2):
    out = {}
    for c1, col1 in a.items():
        for c2, col2 in b.items():
            out[c1 * d2 + c2] = {
                r1 * d2 + r2: v1 * v2 for r1, v1 in col1.items() for r2, v2 in col2.items()
            }
    return ref_clean(out)


def ref_specialize(a, value):
    return ref_clean({c: {r: v.specialize(value) for r, v in col.items()} for c, col in a.items()})


def ref_apply(a, vec):
    out = {}
    for c, x in vec.items():
        for r, v in a.get(c, {}).items():
            out[r] = out.get(r, QLaurent.zero()) + v * x
    return {r: v for r, v in out.items() if v}


# -- strategies ----------------------------------------------------------------

DIM = 3

coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-(1 << 20), 1 << 20),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@st.composite
def laurent(draw, offset):
    terms = draw(st.dictionaries(st.integers(offset - 3, offset + 3), coefficients, max_size=3))
    return QLaurent(terms)


@st.composite
def matrices(draw, dim=DIM):
    """A sparse reference matrix whose exponents sit around a random offset."""
    offset = draw(st.integers(-40, 40))
    cols = {}
    for c in range(dim):
        for r in range(dim):
            if draw(st.booleans()):
                cols.setdefault(c, {})[r] = draw(laurent(offset))
    return ref_clean(cols)


scalars = st.integers(-6, 6).flatmap(laurent)


def packed(ref, dim=DIM):
    return SparseMatrix(dim, ref)


def assert_matches(mat, ref, dim=DIM):
    assert mat.cols == ref
    assert mat == packed(ref, dim)
    assert mat.nnz() == sum(len(col) for col in ref.values())


# -- differential tests ------------------------------------------------------------


@given(matrices())
def test_roundtrip(a):
    m = packed(a)
    assert_matches(m, a)
    for c in range(DIM):
        for r in range(DIM):
            assert m.entry(r, c) == a.get(c, {}).get(r, QLaurent.zero())


@given(matrices(), matrices())
def test_product(a, b):
    assert_matches(packed(a) * packed(b), ref_mul(a, b))


@given(matrices(), matrices())
def test_sum_and_difference(a, b):
    assert_matches(packed(a) + packed(b), ref_add(a, b))
    assert_matches(packed(a) - packed(b), ref_add(a, b, -1))
    assert (packed(a) - packed(a)).is_zero()


@given(matrices(), scalars)
def test_scale(a, coeff):
    assert_matches(packed(a).scale(coeff), ref_scale(a, coeff))


@given(matrices(), st.fractions(min_value=-4, max_value=4, max_denominator=5))
def test_scale_by_rational(a, c):
    assert_matches(packed(a).scale(c), ref_scale(a, QLaurent.from_rational(c)))


@settings(max_examples=50)
@given(matrices(2), matrices(2))
def test_kron(a, b):
    assert_matches(packed(a, 2).kron(packed(b, 2)), ref_kron(a, b, 2), 4)


@given(matrices(), matrices())
def test_equality_and_first_difference(a, b):
    same = a == b
    assert (packed(a) == packed(b)) is same
    diff = packed(a).first_difference(packed(b))
    if same:
        assert diff is None
    else:
        want = min(c for c in set(a) | set(b) if a.get(c, {}) != b.get(c, {}))
        assert diff == want


@given(matrices(), matrices())
def test_equality_across_encodings(a, b):
    # (a + b) - b has a's entries, but another offset, width and denominator
    roundabout = packed(a) + packed(b) - packed(b)
    assert roundabout == packed(a)
    assert roundabout.cols == a


@given(matrices(), st.sampled_from([1, 2, 3, -1, Fraction(1, 2), Fraction(-2, 3)]))
def test_specialize(a, value):
    assert packed(a).specialize(value) == ref_specialize(a, value)


spec_values = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
).filter(bool)


def assert_specialize_ints(mat, ref, value):
    ints, scale = mat.specialize_ints(value)
    assert type(scale) is Fraction and scale != 0
    assert all(type(v) is int for col in ints.values() for v in col.values())
    assert {c: {r: scale * v for r, v in col.items()} for c, col in ints.items()} == (
        ref_specialize(ref, value))


@given(matrices(), spec_values)
def test_specialize_ints(a, value):
    assert_specialize_ints(packed(a), a, value)


@given(matrices(), spec_values, st.fractions(min_value=-4, max_value=4, max_denominator=7))
def test_specialize_ints_with_denominator(a, value, c):
    # a rational scale gives the packed matrix a denominator other than 1
    assert_specialize_ints(packed(a).scale(c), ref_scale(a, QLaurent.from_rational(c)), value)


@pytest.mark.parametrize("value", [2, -3, Fraction(5, 3), Fraction(-2, 7)])
def test_specialize_ints_multi_term_entries(value):
    a = {0: {0: QLaurent({-2: 3, 0: -1, 4: Fraction(1, 2)}), 2: QLaurent({5: 7})},
         2: {1: QLaurent({-1: -4, 1: 4})}}
    assert_specialize_ints(packed(a), a, value)


def test_specialize_ints_empty_matrix():
    ints, scale = SparseMatrix(3).specialize_ints(Fraction(5, 3))
    assert ints == {} and type(scale) is Fraction and scale != 0


def test_specialize_ints_needs_exact_value():
    with pytest.raises(TypeError):
        SparseMatrix.identity(2).specialize_ints(0.5)
    with pytest.raises(TypeError):
        SparseMatrix.identity(2).specialize_ints(True)
    with pytest.raises(ZeroDivisionError):
        SparseMatrix.identity(2).specialize_ints(0)


@given(matrices(), st.dictionaries(st.integers(0, DIM - 1), st.integers(-4, 4).flatmap(laurent),
                                   max_size=DIM))
def test_apply_terms(a, vec):
    vec = {k: v for k, v in vec.items() if v}
    assert packed(a).apply_terms(vec) == ref_apply(a, vec)


@given(matrices(), matrices(), matrices())
def test_associative_with_mixed_operands(a, b, c):
    x, y, z = packed(a), packed(b), packed(c)
    assert (x * y) * z == x * (y * z)
    assert_matches(x * y + z, ref_add(ref_mul(a, b), c))


@st.composite
def diagonals(draw, dim=DIM):
    """A diagonal reference matrix whose entries repeat or are missing (zero),
    or a graded torus, one entry times q^(g c) at column c, on which shifted
    commutations d_r = q^s d_c hold."""
    offset = draw(st.integers(-40, 40))
    pool = draw(st.lists(laurent(offset), min_size=1, max_size=2)) + [QLaurent.zero()]
    if draw(st.booleans()):
        grade = draw(st.integers(-3, 3))
        return ref_clean({c: {c: pool[0] * QLaurent.q_power(grade * c)} for c in range(dim)})
    return ref_clean({c: {c: draw(st.sampled_from(pool))} for c in range(dim)})


commutation_operands = st.one_of(matrices(), diagonals())


@given(commutation_operands, commutation_operands, st.integers(-3, 3))
def test_first_noncommuting_matches_products(a, b, shift):
    # the diagonal route against the product route it replaces
    x, y = packed(a), packed(b)
    assert x.first_noncommuting(y) == (x * y).first_difference(y * x)
    assert (x.first_noncommuting(y) is None) == (x * y == y * x)
    # x y = q^shift y x, both orders, in the list and the column form
    qs = QLaurent.q_power(shift)
    for u in (x, via_columns(a)):
        for v in (y, via_columns(b)):
            for s, t in ((u, v), (v, u)):
                assert s.first_noncommuting(t, shift) == (s * t).first_difference(
                    (t * s).scale(qs))


def test_first_noncommuting_reads_missing_diagonal_entries_as_zero():
    # a degree operator diag(0, 1, 1, 2) has no entry at state 0
    degree = SparseMatrix(4, {c: {c: QLaurent.from_rational(bin(c).count("1"))}
                              for c in range(1, 4)})
    swap = SparseMatrix(4, {1: {2: QLaurent.one()}, 2: {1: QLaurent.one()}})
    raise_ = SparseMatrix(4, {0: {1: QLaurent.q_power(2)}})
    assert degree.first_noncommuting(swap) is None
    assert swap.first_noncommuting(degree) is None
    assert degree.first_noncommuting(raise_) == 0
    assert raise_.first_noncommuting(degree) == 0
    with pytest.raises(ValueError):
        degree.first_noncommuting(SparseMatrix.identity(3))


def test_first_difference_refuses_a_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        SparseMatrix.identity(2).first_difference(SparseMatrix.identity(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        SparseMatrix.identity(3).first_difference(SparseMatrix(2))


# -- the diagonal form ---------------------------------------------------------------


def diagonal_form(mat):
    return mat._diag is not None


def ref_diag_exponents(a, dim=DIM):
    """[e_c] when a is diag(q^(e_c)) with no zero entry, else None."""
    exps = []
    for c in range(dim):
        col = a.get(c, {})
        term = col[c].single_term() if col.keys() == {c} else None
        if term is None or term[1] != 1:
            return None
        exps.append(term[0])
    return exps


def via_columns(ref, dim=DIM):
    """ref in the column form, even when it is diagonal or a signed
    permutation: a sum with a two-entry column is never stored as a list,
    and arithmetic never converts back."""
    two = SparseMatrix(dim, {0: {0: QLaurent.one(), 1: QLaurent.one()}})
    mat = packed(ref, dim) + two - two
    assert not diagonal_form(mat)
    return mat


forms = st.one_of(matrices(), diagonals())
forms2 = st.one_of(matrices(2), diagonals(2))


@given(diagonals())
def test_diagonal_constructors(a):
    entries = [a.get(c, {}).get(c, QLaurent.zero()) for c in range(DIM)]
    for mat in (packed(a), SparseMatrix.diagonal(entries)):
        # the zero matrix keeps the empty column form
        assert diagonal_form(mat) == bool(a)
        assert_matches(mat, a)
        assert mat == via_columns(a) and via_columns(a) == mat
        for c in range(DIM):
            for r in range(DIM):
                assert mat.entry(r, c) == a.get(c, {}).get(r, QLaurent.zero())
    assert diagonal_form(SparseMatrix.identity(DIM))


@given(forms, forms)
def test_diagonal_form_products_and_sums(a, b):
    x, y = packed(a), packed(b)
    both = diagonal_form(x) and diagonal_form(y)
    for got, want in ((x * y, ref_mul(a, b)), (y * x, ref_mul(b, a)),
                      (x + y, ref_add(a, b)), (x - y, ref_add(a, b, -1))):
        assert_matches(got, want)
        if both:
            assert diagonal_form(got) == bool(want)
    assert_matches(-x, ref_scale(a, QLaurent.from_rational(-1)))
    assert diagonal_form(-x) == diagonal_form(x)


@given(forms, forms)
def test_diagonal_form_equality(a, b):
    same = a == b
    want = None if same else min(c for c in set(a) | set(b) if a.get(c, {}) != b.get(c, {}))
    for x in (packed(a), via_columns(a)):
        for y in (packed(b), via_columns(b)):
            assert (x == y) is same and (y == x) is same
            assert x.first_difference(y) == want and y.first_difference(x) == want
            assert x.first_noncommuting(y) == (x * y).first_difference(y * x)


@given(forms, scalars)
def test_diagonal_form_scale(a, coeff):
    got = packed(a).scale(coeff)
    assert_matches(got, ref_scale(a, coeff))
    assert diagonal_form(got) == (diagonal_form(packed(a)) and bool(coeff))


@settings(max_examples=50)
@given(forms2, forms2)
def test_diagonal_form_kron(a, b):
    x, y = packed(a, 2), packed(b, 2)
    got = x.kron(y)
    assert_matches(got, ref_kron(a, b, 2), 4)
    assert diagonal_form(got) == (diagonal_form(x) and diagonal_form(y))


@given(diagonals(), spec_values)
def test_diagonal_form_specialize_ints(a, value):
    assert_specialize_ints(packed(a), a, value)
    assert packed(a).specialize(value) == ref_specialize(a, value)


@pytest.mark.parametrize("form", [packed, via_columns])
def test_specialize_ints_drops_entries_that_vanish(form):
    # q - 2 is a nonzero entry whose value at q = 2 is 0
    a = {0: {0: QLaurent({0: -2, 1: 1})}, 2: {2: QLaurent.q_power(1)}}
    assert list(form(a).specialize_ints(2)[0]) == [2]
    assert_specialize_ints(form(a), a, 2)


@given(diagonals(), st.dictionaries(st.integers(0, DIM - 1),
                                    st.integers(-4, 4).flatmap(laurent), max_size=DIM))
def test_diagonal_form_apply_terms(a, vec):
    vec = {k: v for k, v in vec.items() if v}
    assert packed(a).apply_terms(vec) == ref_apply(a, vec)


# diagonal entries for monomial_diag_exponents: q-powers, a zero, and entries
# that are no +q^e
_non_monomials = [QLaurent.zero(), QLaurent({1: 2}), QLaurent({0: 1, 1: 1}), QLaurent({1: -1}),
                  QLaurent({1: Fraction(1, 2)}), QLaurent({0: 1 << 16})]


@st.composite
def torus_like(draw):
    pool = [QLaurent.q_power(e) for e in draw(st.lists(st.integers(-40, 40), min_size=1,
                                                       max_size=3))]
    pool += draw(st.lists(st.sampled_from(_non_monomials), max_size=1))
    return ref_clean({c: {c: draw(st.sampled_from(pool))} for c in range(DIM)})


@given(torus_like())
def test_diagonal_form_monomial_exponents(a):
    want = ref_diag_exponents(a)
    assert packed(a).monomial_diag_exponents() == want
    assert via_columns(a).monomial_diag_exponents() == want


def test_diagonal_entries_share_one_int():
    entries = [QLaurent.q_power(e % 3) for e in range(64)]
    mat = SparseMatrix.diagonal(entries)
    assert len({id(v) for v in mat._diag}) == 3
    assert len({id(v) for v in (mat * mat)._diag}) == 3


def test_word_columns_of_several_masks_take_the_column_form():
    # two terms, masks 1 and 2: column form, columns ascending, rows in term
    # order, and the entries read from each term's keys
    one = QLaurent.one()
    q = QLaurent.q_power(1)
    terms = [(one, 1, -1, 0, [2, 3], [0, 3]), (q, 2, 0, 0, [0, 1, 3], [1, 0, 0])]
    mat = SparseMatrix.from_word_columns(4, terms)
    assert not diagonal_form(mat)
    assert list(mat._cols) == [0, 1, 2, 3]
    assert list(mat._cols[3]) == [2, 1]
    assert mat.cols == {0: {2: -q}, 1: {3: q}, 2: {3: QLaurent.q_power(-1)},
                        3: {2: -one, 1: q}}
    # one mask: the XOR form, and terms that cancel leave the zero matrix
    same = [(one, 1, 0, 0, [0, 2], [0, 0]), (-one, 1, 0, 0, [0, 2], [0, 0])]
    assert SparseMatrix.from_word_columns(4, same).is_zero()
    assert SparseMatrix.from_word_columns(4, []).is_zero()


@pytest.mark.parametrize("a", [1, 2, 3])
def test_diagonal_omega_equals_its_clifford_expansion(a):
    # w_a^-1 = psi_a psid_a + q psid_a psi_a: the XOR-form products of psi_a
    # and psid_a land on the diagonal; the expansion is also compared in columns
    N = 3
    winv = OperatorExpr.omega_inv(a, N).to_matrix()
    psi = OperatorExpr.psi(a, N).to_matrix()
    psid = OperatorExpr.psi_dag(a, N).to_matrix()
    expansion = psi * psid + (psid * psi).scale(QLaurent.q_power(1))
    columns = via_columns(expansion.cols, 1 << N)
    assert diagonal_form(winv) and diagonal_form(expansion) and not diagonal_form(columns)
    for other in (expansion, columns):
        assert winv == other and other == winv
        assert winv.first_difference(other) is None
    # one changed entry shows up as the first differing column, either way round
    for s in (0, 5, 7):
        entries = [winv.entry(c, c) for c in range(1 << N)]
        entries[s] = entries[s] + QLaurent.one()
        changed = SparseMatrix.diagonal(entries)
        assert diagonal_form(changed)
        for other in (expansion, columns):
            assert changed != other and other != changed
            assert changed.first_difference(other) == s
            assert other.first_difference(changed) == s


# -- the XOR form ---------------------------------------------------------------------

XDIM = 4  # a power of two, so that every mask below XDIM permutes the columns


@st.composite
def xor_forms(draw, dim=XDIM):
    """A reference matrix with the entry of column c at row c ^ mask, for a
    random mask; entries repeat or are missing (zero)."""
    mask = draw(st.integers(0, dim - 1))
    offset = draw(st.integers(-40, 40))
    pool = draw(st.lists(laurent(offset), min_size=1, max_size=2)) + [QLaurent.zero()]
    return ref_clean({c: {c ^ mask: draw(st.sampled_from(pool))} for c in range(dim)})


xor_operands = st.one_of(xor_forms(), matrices(XDIM), diagonals(XDIM))


def ref_mask(ref):
    """The one mask row ^ col of a nonzero XOR-form reference."""
    (mask,) = {c ^ r for c, col in ref.items() for r in col}
    return mask


def ref_first_difference(a, b):
    return min((c for c in set(a) | set(b) if a.get(c, {}) != b.get(c, {})), default=None)


def assert_same(mat, ref, dim=XDIM):
    """mat has ref's values through every query, and equals ref forced into
    the column form, both ways round."""
    assert_matches(mat, ref, dim)
    columns = via_columns(ref, dim)
    assert mat == columns and columns == mat
    assert mat.first_difference(columns) is None and columns.first_difference(mat) is None
    assert {c: set(rows) for c, rows in mat.support()} == {c: set(col) for c, col in ref.items()}
    for c in range(dim):
        for r in range(dim):
            assert mat.entry(r, c) == ref.get(c, {}).get(r, QLaurent.zero())


@given(xor_forms())
def test_xor_constructor(a):
    mat = packed(a, XDIM)
    # the zero matrix keeps the empty column form
    assert diagonal_form(mat) == bool(a)
    if a:
        assert mat._flip == ref_mask(a)
    assert_same(mat, a)


def test_xor_form_needs_a_mask_that_permutes_the_columns():
    one = QLaurent.one()
    # dim 3: 0 <-> 1 is a mask 1 on two columns, but column 2 would go to row 3
    assert not diagonal_form(SparseMatrix(3, {0: {1: one}, 1: {0: one}}))
    # dim 6 = 2 * 3: mask 1 keeps every column inside, mask 2 does not
    assert diagonal_form(SparseMatrix(6, {4: {5: one}}))
    assert not diagonal_form(SparseMatrix(6, {0: {2: one}}))
    # the same rule for word columns: one mask keeps the XOR form only
    # when it moves no column outside dim
    term = (one, 2, 0, 0, [0], [0])
    mat = SparseMatrix.from_word_columns(6, [term])
    assert not diagonal_form(mat) and mat.cols == {0: {2: one}}
    mat = SparseMatrix.from_word_columns(4, [term])
    assert diagonal_form(mat) and mat._flip == 2 and mat.cols == {0: {2: one}}
    mat = SparseMatrix.from_word_columns(6, [(one, 1, 0, 0, [4], [1])])
    assert diagonal_form(mat) and mat._flip == 1 and mat.cols == {4: {5: -one}}


@given(xor_operands, xor_operands)
def test_xor_form_products_and_sums(a, b):
    x, y = packed(a, XDIM), packed(b, XDIM)
    lists = diagonal_form(x) and diagonal_form(y)
    if a and b:
        summed = lists and x._flip == y._flip
    else:  # a sum with the zero matrix is the other operand
        summed = diagonal_form(x) or diagonal_form(y)
    for got, want, by_columns, keeps in (
        (x * y, ref_mul(a, b), via_columns(a, XDIM) * via_columns(b, XDIM), lists),
        (y * x, ref_mul(b, a), via_columns(b, XDIM) * via_columns(a, XDIM), lists),
        (x + y, ref_add(a, b), via_columns(a, XDIM) + via_columns(b, XDIM), summed),
        (x - y, ref_add(a, b, -1), via_columns(a, XDIM) - via_columns(b, XDIM), summed),
    ):
        assert_same(got, want)
        assert got == by_columns and not diagonal_form(by_columns)
        assert diagonal_form(got) == (keeps and bool(want))
    if lists and ref_mul(a, b):
        assert (x * y)._flip == x._flip ^ y._flip
    assert_same(-x, ref_scale(a, QLaurent.from_rational(-1)))
    assert diagonal_form(-x) == diagonal_form(x)


@given(xor_operands, scalars)
def test_xor_form_scale(a, coeff):
    got = packed(a, XDIM).scale(coeff)
    assert_same(got, ref_scale(a, coeff))
    assert got == via_columns(a, XDIM).scale(coeff)
    assert diagonal_form(got) == (diagonal_form(packed(a, XDIM)) and bool(coeff))


def _sized_operand(dim):
    # a mask needs a power-of-two dimension; dim 3 keeps only mask 0
    lists = xor_forms(dim) if dim != 3 else diagonals(dim)
    return st.tuples(st.just(dim), st.one_of(lists, matrices(dim), diagonals(dim)))


@settings(max_examples=60)
@given(st.one_of(xor_forms(2), matrices(2), diagonals(2)),
       st.sampled_from([2, 3, 4]).flatmap(_sized_operand))
def test_xor_form_kron(a, sized):
    d2, b = sized
    x, y = packed(a, 2), packed(b, d2)
    got = x.kron(y)
    assert_same(got, ref_kron(a, b, d2), 2 * d2)
    assert got == via_columns(a, 2).kron(via_columns(b, d2))
    # the mask (fA << log2 d2) | fB needs d2 a power of two, unless both are 0
    keeps = diagonal_form(x) and diagonal_form(y) and (d2 != 3 or x._flip == 0)
    assert diagonal_form(got) == keeps
    if keeps:
        assert got._flip == x._flip * d2 + y._flip


# a torus q^c against the swaps 0 <-> 1, 2 <-> 3: x y = q y x holds at the
# even columns only, y x = q x y at the odd ones
@example({c: {c: QLaurent.q_power(c)} for c in range(XDIM)},
         {c: {c ^ 1: QLaurent.one()} for c in range(XDIM)}, 1)
@given(xor_operands, xor_operands, st.integers(-3, 3))
def test_xor_form_equality(a, b, shift):
    same = a == b
    want = ref_first_difference(a, b)
    commutes = ref_first_difference(ref_mul(a, b), ref_mul(b, a))
    qs = QLaurent.q_power(shift)
    shifted = ref_first_difference(ref_mul(a, b), ref_scale(ref_mul(b, a), qs))
    shifted_back = ref_first_difference(ref_mul(b, a), ref_scale(ref_mul(a, b), qs))
    for x in (packed(a, XDIM), via_columns(a, XDIM)):
        for y in (packed(b, XDIM), via_columns(b, XDIM)):
            assert (x == y) is same and (y == x) is same
            assert x.first_difference(y) == want and y.first_difference(x) == want
            assert x.first_noncommuting(y) == commutes and y.first_noncommuting(x) == commutes
            # x y = q^shift y x, and y x = q^shift x y
            assert x.first_noncommuting(y, shift) == shifted == (x * y).first_difference(
                (y * x).scale(qs))
            assert y.first_noncommuting(x, shift) == shifted_back == (y * x).first_difference(
                (x * y).scale(qs))


@given(xor_operands, spec_values)
def test_xor_form_specialize(a, value):
    for mat in (packed(a, XDIM), via_columns(a, XDIM)):
        assert_specialize_ints(mat, a, value)
        assert mat.specialize(value) == ref_specialize(a, value)


@st.composite
def torus_like_xor(draw):
    """q-power entries, one of them perhaps no +q^e, at row c ^ mask."""
    mask = draw(st.sampled_from([0, 0, 1, 3]))
    pool = [QLaurent.q_power(e) for e in draw(st.lists(st.integers(-40, 40), min_size=1,
                                                       max_size=3))]
    pool += draw(st.lists(st.sampled_from(_non_monomials), max_size=1))
    return ref_clean({c: {c ^ mask: draw(st.sampled_from(pool))} for c in range(XDIM)})


@given(torus_like_xor())
def test_xor_form_monomial_exponents(a):
    want = ref_diag_exponents(a, XDIM)
    assert packed(a, XDIM).monomial_diag_exponents() == want
    assert via_columns(a, XDIM).monomial_diag_exponents() == want


@given(xor_operands, st.dictionaries(st.integers(0, XDIM - 1),
                                     st.integers(-4, 4).flatmap(laurent), max_size=XDIM))
def test_xor_form_apply_terms(a, vec):
    vec = {k: v for k, v in vec.items() if v}
    assert packed(a, XDIM).apply_terms(vec) == ref_apply(a, vec)
    assert via_columns(a, XDIM).apply_terms(vec) == ref_apply(a, vec)


def test_xor_permutation_by_every_mask():
    # column c of the product reads the first factor at c ^ mask, for masks
    # of one, several and all bits, on both sides of the slice-count switch
    dim = 64
    values = [QLaurent.q_power(c % 5) for c in range(dim)]
    diag = SparseMatrix.diagonal(values)
    for mask in (1, 2, 5, 8, 32, 33, 63):
        hop = SparseMatrix(dim, {c: {c ^ mask: QLaurent.one()} for c in range(dim)})
        assert hop._flip == mask
        assert (diag * hop).cols == {c: {c ^ mask: values[c ^ mask]} for c in range(dim)}
        assert (hop * diag).cols == {c: {c ^ mask: values[c]} for c in range(dim)}


def test_product_cancellation_leaves_no_zeros():
    one, q = QLaurent.one(), QLaurent.q_power(1)
    a = SparseMatrix(2, {0: {0: one, 1: q}, 1: {0: q, 1: q * q}})
    b = SparseMatrix(2, {0: {0: q, 1: -one}})
    prod = a * b
    assert prod.is_zero() and prod.nnz() == 0 and prod.cols == {}
    assert prod == SparseMatrix(2)


# -- digit widening and the guards -------------------------------------------------


def test_product_widens_digits():
    # every digit of the product is 3 * 30000^2, far beyond a 16-bit digit
    big = QLaurent({-1: 30000, 0: -30000, 1: 30000})
    a = SparseMatrix(2, {0: {0: big, 1: big}, 1: {0: big}})
    prod = a * a
    assert prod._width > a._width
    assert prod.cols == ref_mul(a.cols, a.cols)
    assert prod.entry(0, 0) == big * big + big * big


def test_sum_widens_digits():
    near = QLaurent({0: (1 << 15) - 1})
    a = SparseMatrix(1, {0: {0: near}})
    total = a + a + a + a
    assert total.entry(0, 0) == QLaurent({0: 4 * ((1 << 15) - 1)})
    assert total._width > a._width


def test_equality_needs_every_digit():
    # q^1 at width 16 packs to 2^16; a constant 65536 must not alias it
    assert SparseMatrix(1, {0: {0: QLaurent({1: 1})}}) != SparseMatrix(
        1, {0: {0: QLaurent({0: 1 << 16})}}
    )


def test_exponent_guard():
    top = SparseMatrix(1, {0: {0: QLaurent.q_power(1 << 30)}})
    with pytest.raises(OverflowError):
        top * top
    with pytest.raises(OverflowError):
        top.kron(top)
    with pytest.raises(OverflowError):
        top.scale(QLaurent.q_power(1))
    op = OperatorExpr.word(1, [("w", 1)], coeff=QLaurent.q_power(-(1 << 30)))
    with pytest.raises(OverflowError):
        op.to_matrix()


def test_span_guard():
    # unguarded, q^(2^20) + 1 packs to a 2^20-digit int (2 MiB at width 16)
    wide = QLaurent({0: 1, 1 << 20: 1})
    with pytest.raises(OverflowError):
        SparseMatrix(1, {0: {0: wide}})
    with pytest.raises(OverflowError):
        SparseMatrix.identity(2).scale(wide)
    with pytest.raises(OverflowError):
        OperatorExpr.word(1, [("w", 1)], coeff=wide).to_matrix()
    # at the limit itself packing works; every route past it is refused
    span = sparsemat.MAX_SPAN
    edge = SparseMatrix(1, {0: {0: QLaurent({0: 1, span: 1})}})
    assert edge.entry(0, 0) == QLaurent({0: 1, span: 1})
    with pytest.raises(OverflowError):
        edge * edge
    with pytest.raises(OverflowError):
        edge.kron(edge)
    below = SparseMatrix.identity(1).scale(QLaurent.q_power(-1))
    with pytest.raises(OverflowError):
        edge + below
    with pytest.raises(OverflowError):
        edge == below


def test_specialize_needs_exact_value():
    with pytest.raises(TypeError):
        SparseMatrix.identity(2).specialize(0.5)
    with pytest.raises(TypeError):
        SparseMatrix.identity(2).specialize(True)
    with pytest.raises(ZeroDivisionError):
        SparseMatrix.identity(2).specialize(0)


# -- negative controls for the monomial-diagonal shortcut ---------------------------


def torus_matrix():
    return SparseMatrix.diagonal([QLaurent.q_power(e) for e in (-2, 0, 1, 3)])


def test_monomial_diag_exponents():
    assert torus_matrix().monomial_diag_exponents() == [-2, 0, 1, 3]
    assert SparseMatrix.identity(3).monomial_diag_exponents() == [0, 0, 0]


@pytest.mark.parametrize("bad", [
    QLaurent({1: 2}),          # 2 q^e
    QLaurent({1: 1, 2: 1}),    # q^e + q^(e+1)
    QLaurent({1: -1}),         # -q^e
    QLaurent({1: Fraction(1, 2)}),
    QLaurent({0: 1 << 16}),    # 2^16 = q^1 at width 16, as a constant
])
def test_monomial_diag_exponents_rejects_non_monomials(bad):
    cols = torus_matrix().cols
    cols[2] = {2: bad}
    assert SparseMatrix(4, cols).monomial_diag_exponents() is None


def test_monomial_diag_exponents_rejects_shape():
    cols = torus_matrix().cols
    del cols[1]
    assert SparseMatrix(4, cols).monomial_diag_exponents() is None
    cols = torus_matrix().cols
    cols[1] = {1: QLaurent.one(), 0: QLaurent.one()}
    assert SparseMatrix(4, cols).monomial_diag_exponents() is None


# -- RationalEchelon against an independent Fraction elimination ----------------


def ref_rank(vectors):
    """Rank by plain Gaussian elimination over Fraction rows."""
    keys = sorted({k for v in vectors for k in v})
    rows = [[Fraction(v.get(k, 0)) for k in keys] for v in vectors]
    rank = 0
    for j in range(len(keys)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] / rows[rank][j]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


entry_kinds = {
    "int": st.integers(-4, 4),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=4),
    "bool": st.booleans(),
}
entry_kinds["mixed"] = st.one_of(*entry_kinds.values())


@given(st.sampled_from(sorted(entry_kinds)).flatmap(lambda kind: st.lists(
    st.dictionaries(st.integers(0, 5), entry_kinds[kind], max_size=5), max_size=8)))
def test_echelon_rank_matches_fraction_elimination(vectors):
    echelon = RationalEchelon()
    # the same vectors made primitive integer vectors first, through insert_ints
    ints = RationalEchelon()
    for k, v in enumerate(vectors):
        before = echelon.rank
        rem = echelon.reduce(v)
        added = echelon.insert(v)
        assert echelon.rank == ref_rank(vectors[:k + 1])
        assert (added is None) == (echelon.rank == before)
        assert (added or {}) == rem
        primitive = ref_primitive(v)
        assert ints.insert_ints(primitive) == added
        assert primitive == ref_primitive(v)  # left unchanged
        assert ints.pivots == echelon.pivots
        assert list(ints.pivots) == list(echelon.pivots)
    assert_echelon_form(echelon)
    assert_echelon_form(ints)


def ref_primitive(vec):
    """vec as a primitive integer vector without zero entries, by Fraction
    arithmetic: scaled by the lcm of its denominators over the gcd of the
    scaled numerators."""
    entries = {k: Fraction(x) for k, x in vec.items() if x}
    den = lcm(*(x.denominator for x in entries.values()))
    nums = {k: int(x * den) for k, x in entries.items()}
    g = gcd(*nums.values())
    return {k: x // g for k, x in nums.items()}


def assert_echelon_form(echelon):
    """Each pivot is a primitive integer vector without zeros, keyed by its
    lead (its largest key), and reduces to zero."""
    for lead, pivot in echelon.pivots.items():
        assert pivot and all(type(x) is int and x for x in pivot.values())
        assert max(pivot) == lead
        assert gcd(*pivot.values()) == 1
        assert echelon.reduce(pivot) == {}


def test_echelon_ignores_explicit_zeros():
    echelon = RationalEchelon()
    assert echelon.insert({0: 0, 1: Fraction(0)}) is None
    assert echelon.insert({0: 1, 3: 0}) == {0: 1}
    assert echelon.insert({0: 2}) is None
    assert echelon.rank == 1


# -- RationalEchelon.close against a breadth-first Fraction closure ---------------


def ref_apply_ints(op, vec):
    out = {}
    for c, x in vec.items():
        for r, v in op.get(c, {}).items():
            out[r] = out.get(r, 0) + v * x
    return {r: v for r, v in out.items() if v}


def ref_closure(seeds, ops):
    """A basis of the smallest span that holds seeds and that every op maps
    into itself: breadth first, a vector is kept when it raises the rank, and
    the images of each kept vector are queued."""
    basis, queue = [], list(seeds)
    while queue:
        vec = queue.pop(0)
        if ref_rank(basis + [vec]) > len(basis):
            basis.append(vec)
            queue.extend(ref_apply_ints(op, vec) for op in ops)
    return basis


CLOSE_DIM = 6
nonzero_ints = st.integers(-3, 3).filter(bool)
int_vectors = st.dictionaries(st.integers(0, CLOSE_DIM - 1), nonzero_ints, min_size=1, max_size=3)
# columns may be empty and operators may be zero
int_operators = st.dictionaries(
    st.integers(0, CLOSE_DIM - 1),
    st.dictionaries(st.integers(0, CLOSE_DIM - 1), nonzero_ints, max_size=3),
    max_size=CLOSE_DIM)


@st.composite
def operator_lists(draw):
    """One to three operators plus up to two scaled copies of them."""
    ops = draw(st.lists(int_operators, min_size=1, max_size=3))
    for i, factor in draw(st.lists(st.tuples(st.integers(0, len(ops) - 1),
                                             st.sampled_from([-2, -1, 2, 3])), max_size=2)):
        ops.append({c: {r: factor * v for r, v in col.items()} for c, col in ops[i].items()})
    return draw(st.permutations(ops))


@settings(max_examples=300)
@given(st.lists(int_vectors, min_size=1, max_size=3), operator_lists())
def test_close_matches_breadth_first_fraction_closure(seeds, ops):
    echelon = RationalEchelon()
    frontier = [p for p in map(echelon.insert, seeds) if p is not None]
    # every round but the last adds a pivot, so rank + 1 rounds always do
    echelon.close(frontier, ops, CLOSE_DIM + 1)
    basis = ref_closure(seeds, ops)
    assert echelon.rank == len(basis)
    pivots = list(echelon.pivots.values())
    assert ref_rank(basis + pivots) == len(basis)
    assert all(echelon.reduce(v) == {} for v in basis)
    assert all(echelon.reduce(ref_apply_ints(op, p)) == {} for op in ops for p in pivots)
    assert_echelon_form(echelon)


@pytest.mark.parametrize("length", [1, 2, 5])
def test_close_round_cap(length):
    # a shift along a chain of length basis vectors: the closure of the first
    # takes length rounds, the last of which adds nothing
    shift = {k: {k + 1: 2} for k in range(length - 1)}
    echelon = RationalEchelon()
    echelon.close([echelon.insert({0: 1})], [shift], length)
    assert echelon.pivots == {k: {k: 1} for k in range(length)}
    echelon = RationalEchelon()
    with pytest.raises(RuntimeError, match="round cap"):
        echelon.close([echelon.insert({0: 1})], [shift], length - 1)

