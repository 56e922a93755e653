"""Differential tests of SparseMatrix.

Each operation is compared against a plain dict-of-QLaurent reference
written here, on random matrices with negative, Fraction and large
coefficients and with exponent ranges far apart, and on diagonal and
signed-permutation matrices (the shapes of the torus generators and of
psi_k) whose entries repeat or are missing.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qhowe.qclifford import OperatorExpr
from qhowe.qscalar import QLaurent
from qhowe.sparsemat import (
    RationalEchelon, SparseMatrix, _apply, _keep, _reduce_ints,
)

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


def ref_first_difference(a, b):
    return min((c for c in set(a) | set(b) if a.get(c, {}) != b.get(c, {})), default=None)


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


@st.composite
def entry_pools(draw):
    """One or two entries around a random offset, 0 (a missing entry) and 1
    (which products multiply by without a QLaurent product)."""
    offset = draw(st.integers(-40, 40))
    return draw(st.lists(laurent(offset), min_size=1, max_size=2)) + [QLaurent.zero(),
                                                                      QLaurent.one()]


@st.composite
def diagonals(draw, dim=DIM):
    """A diagonal reference matrix whose entries repeat, are missing or are 1,
    or a graded torus, one entry times q^(g c) at column c, on which shifted
    commutations d_r = q^s d_c hold."""
    pool = draw(entry_pools())
    if draw(st.booleans()):
        grade = draw(st.integers(-3, 3))
        return ref_clean({c: {c: pool[0] * QLaurent.q_power(grade * c)} for c in range(dim)})
    return ref_clean({c: {c: draw(st.sampled_from(pool))} for c in range(dim)})


@st.composite
def xor_forms(draw, dim=DIM):
    """A reference matrix with the entry of column c at row c ^ mask, for a
    random mask, where that row is below dim; entries repeat, are missing or
    are 1."""
    mask = draw(st.integers(0, (1 << (dim - 1).bit_length()) - 1))
    pool = draw(entry_pools())
    return ref_clean({c: {c ^ mask: draw(st.sampled_from(pool))}
                      for c in range(dim) if c ^ mask < dim})


def operands(dim=DIM):
    return st.one_of(matrices(dim), diagonals(dim), xor_forms(dim))


scalars = st.integers(-6, 6).flatmap(laurent)


def sparse(ref, dim=DIM):
    return SparseMatrix(dim, ref)


def assert_matches(mat, ref, dim=DIM):
    assert mat.cols == ref
    assert mat == sparse(ref, dim)
    assert mat.nnz() == sum(len(col) for col in ref.values())


# -- differential tests ------------------------------------------------------------


@given(matrices())
def test_roundtrip(a):
    m = sparse(a)
    assert_matches(m, a)
    for c in range(DIM):
        for r in range(DIM):
            assert m.entry(r, c) == a.get(c, {}).get(r, QLaurent.zero())


def test_cols_is_a_fresh_copy():
    one = QLaurent.one()
    m = SparseMatrix(2, {0: {1: one}})
    cols = m.cols
    cols[0][0] = one
    cols[1] = {1: one}
    assert m.cols == {0: {1: one}} and m.nnz() == 1


@given(operands(), operands())
def test_product(a, b):
    assert_matches(sparse(a) * sparse(b), ref_mul(a, b))


@given(operands(), operands())
def test_sum_and_difference(a, b):
    assert_matches(sparse(a) + sparse(b), ref_add(a, b))
    assert_matches(sparse(a) - sparse(b), ref_add(a, b, -1))
    assert_matches(-sparse(a), ref_scale(a, QLaurent.from_rational(-1)))
    assert (sparse(a) - sparse(a)).nnz() == 0


@given(operands(), scalars)
def test_scale(a, coeff):
    assert_matches(sparse(a).scale(coeff), ref_scale(a, coeff))


@given(matrices(), st.fractions(min_value=-4, max_value=4, max_denominator=5))
def test_scale_by_rational(a, c):
    assert_matches(sparse(a).scale(c), ref_scale(a, QLaurent.from_rational(c)))


def _sized_operand(dim):
    return st.tuples(st.just(dim), operands(dim))


@settings(max_examples=60)
@given(operands(2), st.sampled_from([2, 3, 4]).flatmap(_sized_operand))
def test_kron(a, sized):
    d2, b = sized
    assert_matches(sparse(a, 2).kron(sparse(b, d2)), ref_kron(a, b, d2), 2 * d2)


@given(operands(), operands())
def test_equality_and_first_difference(a, b):
    same = a == b
    x, y = sparse(a), sparse(b)
    assert (x == y) is same and (y == x) is same
    want = ref_first_difference(a, b)
    assert x.first_difference(y) == want and y.first_difference(x) == want
    if same:
        assert want is None


@given(matrices(), matrices())
def test_sum_then_difference_restores_the_matrix(a, b):
    # (a + b) - b has a's entries, reached through arithmetic
    roundabout = sparse(a) + sparse(b) - sparse(b)
    assert roundabout == sparse(a)
    assert roundabout.cols == a


@given(operands(), st.sampled_from([1, 2, 3, -1, Fraction(1, 2), Fraction(-2, 3)]))
def test_specialize(a, value):
    assert sparse(a).specialize(value) == ref_specialize(a, value)


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


@given(operands(), spec_values)
def test_specialize_ints(a, value):
    assert_specialize_ints(sparse(a), a, value)


@given(operands(), spec_values, st.fractions(min_value=-4, max_value=4, max_denominator=7))
def test_specialize_ints_with_denominator(a, value, c):
    # a rational scale gives the entries a denominator other than 1
    assert_specialize_ints(sparse(a).scale(c), ref_scale(a, QLaurent.from_rational(c)), value)


@pytest.mark.parametrize("value", [2, -3, Fraction(5, 3), Fraction(-2, 7)])
def test_specialize_ints_multi_term_entries(value):
    a = {0: {0: QLaurent({-2: 3, 0: -1, 4: Fraction(1, 2)}), 2: QLaurent({5: 7})},
         2: {1: QLaurent({-1: -4, 1: 4})}}
    assert_specialize_ints(sparse(a), a, value)


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


def via_columns(ref, dim=DIM):
    """ref rebuilt by arithmetic: a sum and a difference with a two-entry
    column, so its columns come out of add rather than the constructor."""
    two = SparseMatrix(dim, {0: {0: QLaurent.one(), 1: QLaurent.one()}})
    return sparse(ref, dim) + two - two


@pytest.mark.parametrize("form", [sparse, via_columns], ids=["packed", "via_columns"])
def test_specialize_ints_drops_entries_that_vanish(form):
    # q - 2 is a nonzero entry whose value at q = 2 is 0
    a = {0: {0: QLaurent({0: -2, 1: 1})}, 2: {2: QLaurent.q_power(1)}}
    assert form(a).cols == a
    assert list(form(a).specialize_ints(2)[0]) == [2]
    assert_specialize_ints(form(a), a, 2)


@given(operands(), st.dictionaries(st.integers(0, DIM - 1), st.integers(-4, 4).flatmap(laurent),
                                   max_size=DIM))
def test_apply(a, vec):
    vec = {k: v for k, v in vec.items() if v}
    assert sparse(a).apply(vec) == ref_apply(a, vec)


def test_apply_drops_a_sum_that_cancels():
    # two equal columns: every entry of the image cancels, and the filter
    # that drops zeros only for several-entry vectors leaves {}
    q, one = QLaurent.q_power(1), QLaurent.one()
    twins = SparseMatrix(2, {0: {0: q, 1: q}, 1: {0: q, 1: q}})
    assert twins.apply({0: one, 1: -one}) == {}
    assert twins * SparseMatrix(2, {0: {0: one, 1: -one}}) == SparseMatrix(2)


@given(matrices(), matrices(), matrices())
def test_associative_with_mixed_operands(a, b, c):
    x, y, z = sparse(a), sparse(b), sparse(c)
    assert (x * y) * z == x * (y * z)
    assert_matches(x * y + z, ref_add(ref_mul(a, b), c))


# a torus q^c against the swap 0 <-> 1: x y = q y x holds at column 0 only
@example({c: {c: QLaurent.q_power(c)} for c in range(DIM)},
         {0: {1: QLaurent.one()}, 1: {0: QLaurent.one()}}, 1)
@given(operands(), operands(), st.integers(-3, 3))
def test_first_noncommuting_matches_products(a, b, shift):
    x, y = sparse(a), sparse(b)
    commutes = ref_first_difference(ref_mul(a, b), ref_mul(b, a))
    assert x.first_noncommuting(y) == commutes and y.first_noncommuting(x) == commutes
    # x y = q^shift y x, and y x = q^shift x y
    qs = QLaurent.q_power(shift)
    assert x.first_noncommuting(y, shift) == ref_first_difference(
        ref_mul(a, b), ref_scale(ref_mul(b, a), qs))
    assert y.first_noncommuting(x, shift) == ref_first_difference(
        ref_mul(b, a), ref_scale(ref_mul(a, b), qs))


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


@given(diagonals())
def test_diagonal_constructors(a):
    entries = [a.get(c, {}).get(c, QLaurent.zero()) for c in range(DIM)]
    for mat in (sparse(a), SparseMatrix.diagonal(entries)):
        assert_matches(mat, a)
        for c in range(DIM):
            for r in range(DIM):
                assert mat.entry(r, c) == a.get(c, {}).get(r, QLaurent.zero())
    assert_matches(SparseMatrix.identity(DIM), {c: {c: QLaurent.one()} for c in range(DIM)})


@given(xor_forms(4))
def test_xor_constructor(a):
    mat = sparse(a, 4)
    assert_matches(mat, a, 4)
    for c in range(4):
        for r in range(4):
            assert mat.entry(r, c) == a.get(c, {}).get(r, QLaurent.zero())


@pytest.mark.parametrize("a", [1, 2, 3])
def test_diagonal_omega_equals_its_clifford_expansion(a):
    # w_a^-1 = psi_a psid_a + q psid_a psi_a, as matrices
    N = 3
    winv = OperatorExpr.omega_inv(a, N).to_matrix()
    psi = OperatorExpr.psi(a, N).to_matrix()
    psid = OperatorExpr.psi_dag(a, N).to_matrix()
    expansion = psi * psid + (psid * psi).scale(QLaurent.q_power(1))
    assert winv == expansion and expansion == winv
    assert winv.first_difference(expansion) is None
    # one changed entry shows up as the first differing column, either way round
    for s in (0, 5, 7):
        entries = [winv.entry(c, c) for c in range(1 << N)]
        entries[s] = entries[s] + QLaurent.one()
        changed = SparseMatrix.diagonal(entries)
        assert changed != expansion and expansion != changed
        assert changed.first_difference(expansion) == s
        assert expansion.first_difference(changed) == s


def test_product_cancellation_leaves_no_zeros():
    one, q = QLaurent.one(), QLaurent.q_power(1)
    a = SparseMatrix(2, {0: {0: one, 1: q}, 1: {0: q, 1: q * q}})
    b = SparseMatrix(2, {0: {0: q, 1: -one}})
    prod = a * b
    assert prod.nnz() == 0 and prod.cols == {}
    assert prod == SparseMatrix(2)


# -- the guards ------------------------------------------------------------------------


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


def test_specialize_needs_exact_value():
    with pytest.raises(TypeError):
        SparseMatrix.identity(2).specialize(0.5)
    with pytest.raises(TypeError):
        SparseMatrix.identity(2).specialize(True)
    with pytest.raises(ZeroDivisionError):
        SparseMatrix.identity(2).specialize(0)


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
    st.dictionaries(st.integers(0, 5), entry_kinds[kind], max_size=5), max_size=8)),
       st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6))
def test_echelon_rank_matches_fraction_elimination(vectors, factor):
    echelon = RationalEchelon()
    # the same vectors as primitive integer vectors, times a positive factor,
    # and kept through their primitive vectors (ref_insert): every echelon
    # must hold the same pivots, in the same order
    primitive, scaled, ref = RationalEchelon(), RationalEchelon(), RationalEchelon()
    for k, v in enumerate(vectors):
        before = echelon.rank
        rem = echelon.reduce(v)
        p = ref_primitive(v)
        v_scaled = {key: x * factor for key, x in v.items()}
        assert primitive.reduce(p) == scaled.reduce(v_scaled) == ref_reduce(ref, v) == rem
        added = echelon.insert(v)
        assert echelon.rank == ref_rank(vectors[:k + 1])
        assert (added is None) == (echelon.rank == before)
        assert (added or {}) == rem
        assert primitive.insert(p) == scaled.insert(v_scaled) == ref_insert(ref, v) == added
        assert p == ref_primitive(v)  # left unchanged
        for other in (primitive, scaled, ref):
            assert other.pivots == echelon.pivots
            assert list(other.pivots) == list(echelon.pivots)
    assert_echelon_form(echelon)


def ref_primitive(vec):
    """vec as a primitive integer vector without zero entries, by Fraction
    arithmetic: scaled by the lcm of its denominators over the gcd of the
    scaled numerators."""
    entries = {k: Fraction(x) for k, x in vec.items() if x}
    den = lcm(*(x.denominator for x in entries.values()))
    nums = {k: int(x * den) for k, x in entries.items()}
    g = gcd(*nums.values())
    return {k: x // g for k, x in nums.items()}


def ref_insert(echelon, vec):
    """insert through the primitive vector: ``_keep`` of ref_primitive(vec)."""
    p = ref_primitive(vec)
    return _keep(echelon.pivots, p) if p else None


def ref_reduce(echelon, vec):
    """reduce through the primitive vector: ``_reduce_ints`` of
    ref_primitive(vec)."""
    return _reduce_ints(echelon.pivots, ref_primitive(vec))


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


KEYS = 64  # every key of the operators and vectors below is less


def move_form(cols, dim=KEYS):
    """An integer operator given by columns {col: {row: int}} in the dense
    move form that close, replay and OperatorExpr.specialize_ints use: entry
    (r, c) goes to the weights of move r ^ c, a list of dim entries, at
    index c; 0 where the column holds no entry of that move."""
    moves = {}
    for c, col in cols.items():
        for r, v in col.items():
            moves.setdefault(r ^ c, [0] * dim)[c] = v
    return list(moves.items())


def ref_apply_ints(op, vec):
    """An integer operator in column form applied to an integer vector."""
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
def operator_lists(draw, operators=int_operators):
    """One to three operators plus up to two scaled copies of them."""
    ops = draw(st.lists(operators, min_size=1, max_size=3))
    for i, factor in draw(st.lists(st.tuples(st.integers(0, len(ops) - 1),
                                             st.sampled_from([-2, -1, 2, 3])), max_size=2)):
        ops.append({c: {r: factor * v for r, v in col.items()} for c, col in ops[i].items()})
    return draw(st.permutations(ops))


@settings(max_examples=300)
@given(st.lists(int_vectors, min_size=1, max_size=3), operator_lists())
def test_close_matches_breadth_first_fraction_closure(seeds, ops):
    echelon = RationalEchelon()
    frontier = [p for p in map(echelon.insert, seeds) if p is not None]
    echelon.close(frontier, list(map(move_form, ops)))
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
    # takes length rounds, the last of which adds nothing; each round's
    # pivot is made from the one before it
    shift = {k: {k + 1: 2} for k in range(length - 1)}
    echelon = RationalEchelon()
    record = echelon.close([echelon.insert({0: 1})], [move_form(shift)])
    assert record == [(k, 0) for k in range(length - 1)]
    assert echelon.pivots == {k: {k: 1} for k in range(length)}


@pytest.mark.parametrize("k", range(7))
def test_close_stops_on_a_full_cycle(k):
    # s -> s + 1 mod 2^k visits every state of k bits once before it comes
    # back to 0: the longest closure k bits allow, 2^k + 1 rounds, stops
    cycle = {s: {(s + 1) % (1 << k): 1} for s in range(1 << k)}
    echelon = RationalEchelon()
    record = echelon.close([echelon.insert({0: 1})], [move_form(cycle)])
    assert echelon.rank == 1 << k
    assert len(record) == (1 << k) - 1


# -- RationalEchelon.close against the general reducer on every image -----------


def ref_close(echelon, frontier, ops, commuting=()):
    """close without its shortcuts: every image is built by the accumulation
    loop and reduced by _reduce_ints, and a pivot made by op c skips each op
    j with (j, c) in commuting; returns the creation record."""
    pivots = echelon.pivots
    record = []
    frontier = [(vec, None) for vec in frontier]
    base = 0
    while frontier:
        fresh = []
        for parent, (vec, made) in enumerate(frontier, base):
            for k, op in enumerate(ops):
                if (k, made) in commuting:
                    continue
                image = {}
                for c, x in vec.items():
                    col = op.get(c)
                    if col:
                        for r, v in col.items():
                            s = image.get(r, 0) + v * x
                            if s:
                                image[r] = s
                            else:
                                del image[r]
                if image:
                    rem = _reduce_ints(pivots, image)
                    if rem:
                        pivots[max(rem)] = rem
                        fresh.append((rem, k))
                        record.append((parent, k))
        base += len(frontier)
        frontier = fresh
    return record


# one-entry vectors and columns are the shortcuts' inputs, so they are drawn
# as often as the general ones
one_entry_vectors = st.dictionaries(st.integers(0, CLOSE_DIM - 1), nonzero_ints,
                                    min_size=1, max_size=1)
close_vectors = st.one_of(one_entry_vectors, int_vectors)
close_operators = st.dictionaries(
    st.integers(0, CLOSE_DIM - 1),
    st.one_of(one_entry_vectors,
              st.dictionaries(st.integers(0, CLOSE_DIM - 1), nonzero_ints, max_size=3)),
    max_size=CLOSE_DIM)


@given(close_vectors, close_operators)
# two entries whose images cancel at row 2, which then drops out
@example({0: 1, 1: 1}, {0: {2: 1, 3: 1}, 1: {2: -1}})
def test_apply_in_move_form_matches_the_columns(vec, op):
    assert _apply(move_form(op), vec) == ref_apply_ints(op, vec)


def pivot_items(echelon):
    """The pivots in lead order, each as a dict: the order of entries inside
    a pivot is not compared, since every reader takes a max or a sum."""
    return [(lead, dict(pivot)) for lead, pivot in echelon.pivots.items()]


# tables of the ordered-word rule: any pairs j < c, commuting or not, since
# the two closures must take the same images whatever the table says
rule_tables = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
    lambda pair: pair[0] < pair[1]), max_size=4)


@settings(max_examples=300)
@given(st.lists(close_vectors, max_size=3), st.lists(close_vectors, min_size=1, max_size=3),
       operator_lists(close_operators), rule_tables)
# a negative one-entry image at a fresh lead: the new pivot is {1: -1}
@example([], [{0: 1}], [{0: {1: -2}}], set())
# a one-entry image at a one-entry pivot's lead lies in the span
@example([{3: -1}], [{0: 1}], [{0: {3: 2}}], set())
# a one-entry image at a several-entry pivot's lead leaves the remainder {1: -1}
@example([{1: 1, 3: 1}], [{0: 1}], [{0: {3: 1}}], set())
# an image with a fresh lead and gcd 2 becomes {1: 1, 2: 1}
@example([], [{0: 1}], [{0: {1: 2, 2: 2}}], set())
@example([], [{0: 1, 1: 1}], [{0: {2: 3}, 1: {2: 3, 4: -3}}], set())
# the pivot {2: 1} made by op 1 does not take op 0, so {3: 1} is never made
@example([], [{0: 1}], [{2: {3: 1}}, {0: {2: 1}}], {(0, 1)})
def test_close_matches_the_general_reducer(held, seeds, ops, commuting):
    # held: pivots inserted before the closure that are not on its frontier,
    # so that images meet one-entry and several-entry pivots at their leads
    echelon = RationalEchelon()
    for vec in held:
        echelon.insert(vec)
    frontier = [p for p in map(echelon.insert, seeds) if p is not None]
    ref = RationalEchelon()
    ref.pivots = {lead: dict(pivot) for lead, pivot in echelon.pivots.items()}
    record = echelon.close(frontier, list(map(move_form, ops)), commuting)
    assert record == ref_close(ref, [dict(p) for p in frontier], ops, commuting)
    assert pivot_items(echelon) == pivot_items(ref)


# -- the creation record of close, and its replay -------------------------------


def record_words(frontier, ops, record):
    """The frontier, then each recorded word applied raw: the image under its
    operator of its parent's word, not of its parent's pivot."""
    words = [dict(v) for v in frontier]
    for parent, k in record:
        words.append(ref_apply_ints(ops[k], words[parent]))
    return words


def assert_record_spans(echelon, frontier, ops, record):
    """The record's words are rank independent vectors spanning the closure."""
    assert all(0 <= parent < len(frontier) + k and 0 <= op < len(ops)
               for k, (parent, op) in enumerate(record))
    words = record_words(frontier, ops, record)
    assert len(words) == echelon.rank
    assert ref_rank(words) == echelon.rank
    assert all(echelon.reduce(w) == {} for w in words)


@settings(max_examples=300)
@given(st.lists(close_vectors, min_size=1, max_size=3), operator_lists(close_operators))
def test_close_records_words_that_span_the_closure(seeds, ops):
    echelon = RationalEchelon()
    frontier = [p for p in map(echelon.insert, seeds) if p is not None]
    record = echelon.close(frontier, list(map(move_form, ops)))
    assert len(record) == echelon.rank - len(frontier)
    assert_record_spans(echelon, frontier, ops, record)


def test_close_records_the_shortcut_pivots():
    # op 0 takes the monomial {0: 1} to its column {2: 2}, a one-entry image
    # at a fresh lead: the pivot {2: 1}; op 1 takes it to {2: -3}, a multiple
    # of that one-entry pivot, which adds nothing and is not recorded; op 0
    # takes {2: 1} to {1: 2, 3: 4}, a fresh lead divided by its gcd
    ops = [{0: {2: 2}, 2: {1: 2, 3: 4}}, {0: {2: -3}}]
    echelon = RationalEchelon()
    frontier = [echelon.insert({0: 1})]
    record = echelon.close(frontier, list(map(move_form, ops)))
    assert record == [(0, 0), (1, 0)]
    assert echelon.pivots == {0: {0: 1}, 2: {2: 1}, 3: {1: 1, 3: 2}}
    assert_record_spans(echelon, frontier, ops, record)


def test_close_records_parents_past_the_frontier():
    # two frontier vectors at indices 0 and 1; the pivots they give are 2
    # and 3, and pivot 2 is the parent of the last one
    ops = [{0: {1: 1}, 1: {2: 1}, 5: {6: 1}}]
    echelon = RationalEchelon()
    frontier = [echelon.insert({0: 1}), echelon.insert({5: 1})]
    record = echelon.close(frontier, list(map(move_form, ops)))
    assert record == [(0, 0), (1, 0), (2, 0)]
    assert echelon.pivots == {0: {0: 1}, 5: {5: 1}, 1: {1: 1}, 6: {6: 1}, 2: {2: 1}}
    assert_record_spans(echelon, frontier, ops, record)


# -- the ordered-word rule of close against the closure without it ---------------


GRID = 3  # the keys i * GRID + j of a GRID x GRID grid


def ref_compose(a, b):
    """The integer operator a after b."""
    return {c: image for c, col in b.items() if (image := ref_apply_ints(a, col))}


def commuting_pairs(ops):
    """The pairs (j, c), j < c, of operators whose products agree exactly."""
    return {(j, c) for c in range(len(ops)) for j in range(c)
            if ref_compose(ops[j], ops[c]) == ref_compose(ops[c], ops[j])}


grid_keys = st.integers(0, GRID * GRID - 1)
grid_columns = st.dictionaries(st.integers(0, GRID - 1), nonzero_ints, min_size=1, max_size=2)


@st.composite
def grid_operators(draw):
    """An operator on the grid's keys acting on the row index alone (A x 1),
    on the column index alone (1 x B), or on every key: any row operator
    commutes with any column operator, other pairs need not."""
    kind = draw(st.sampled_from(["row", "column", "any"]))
    if kind == "any":
        return draw(st.dictionaries(grid_keys, st.dictionaries(grid_keys, nonzero_ints,
                                                               min_size=1, max_size=2),
                                    max_size=3))
    small = draw(st.dictionaries(st.integers(0, GRID - 1), grid_columns,
                                 min_size=1, max_size=GRID))
    if kind == "row":
        return {i * GRID + j: {r * GRID + j: v for r, v in col.items()}
                for i, col in small.items() for j in range(GRID)}
    return {j * GRID + i: {j * GRID + r: v for r, v in col.items()}
            for i, col in small.items() for j in range(GRID)}


grid_vectors = st.one_of(
    st.dictionaries(grid_keys, nonzero_ints, min_size=1, max_size=1),
    st.dictionaries(grid_keys, nonzero_ints, min_size=1, max_size=3))


@settings(max_examples=300)
@given(st.lists(grid_vectors, min_size=1, max_size=3),
       operator_lists(grid_operators()).filter(commuting_pairs))
# a row shift and a column shift from the corner: the closure is the whole
# grid, and the pivots the column shift makes never take the row shift
@example([{0: 1}], [{k: {k + GRID: 1} for k in range(GRID * (GRID - 1))},
                    {k: {k + 1: 1} for k in range(GRID * GRID) if (k + 1) % GRID}])
def test_ordered_word_rule_keeps_the_closure(seeds, ops):
    # the table is decided by exact products; with it and without it close
    # must give one span, and the record's words must still span it
    echelons = []
    for table in (commuting_pairs(ops), ()):
        echelon = RationalEchelon()
        frontier = [p for p in map(echelon.insert, seeds) if p is not None]
        record = echelon.close(frontier, list(map(move_form, ops)), table)
        assert_record_spans(echelon, frontier, ops, record)
        echelons.append(echelon)
    ruled, full = echelons
    assert ruled.rank == full.rank == len(ref_closure(seeds, ops))
    assert all(full.reduce(p) == {} for p in ruled.pivots.values())
    assert all(ruled.reduce(p) == {} for p in full.pivots.values())
    assert all(ruled.reduce(ref_apply_ints(op, p)) == {}
               for op in ops for p in ruled.pivots.values())


# -- close in an echelon that already holds a closed span ------------------------


@settings(max_examples=300)
@given(st.lists(close_vectors, max_size=3), st.lists(close_vectors, min_size=1, max_size=3),
       operator_lists(close_operators))
# a chain 0 -> 1 -> 2 beside a held chain 3 -> 4: the pivot {2: 1} is made
# without meeting the held span, and {4: 1} lies in it
@example([{3: 1}], [{0: 1}], [{0: {1: 1}, 1: {2: 1}, 3: {4: 1}}])
# the image {1: 1, 3: 1} reduces against the held {3: 1}: the pivot is
# {1: 1}, its raw word is not
@example([{3: 1}], [{0: 1}], [{0: {1: 1, 3: 1}, 3: {3: 2}}])
def test_close_on_a_held_closed_span(held, seeds, ops):
    # P, the closure of held, is a span the ops keep closed; when the seeds'
    # closure C meets it only in 0, close adds dim C pivots, and the record's
    # words applied raw to the seeds are a basis of C, under the exact table
    # of commuting pairs too
    held = ref_closure(held, ops)
    closure = ref_closure(seeds, ops)
    assume(ref_rank(held + closure) == len(held) + len(closure))
    moves = list(map(move_form, ops))
    for table in (commuting_pairs(ops), ()):
        echelon = RationalEchelon()
        for vec in held:
            echelon.insert(vec)
        assert echelon.rank == len(held)
        kept = [(seed, pivot) for seed in seeds if (pivot := echelon.insert(seed)) is not None]
        record = echelon.close([pivot for _, pivot in kept], moves, table)
        assert echelon.rank == len(held) + len(closure)
        words = record_words([seed for seed, _ in kept], ops, record)
        assert len(words) == ref_rank(words) == len(closure)
        assert ref_rank(closure + words) == len(closure)


def test_close_meeting_the_held_span_grows_by_less():
    # the chain 0 -> 1 -> 2 -> 3 with {2: 1} held: the seed's closure C has
    # dimension 4 but meets the held span in {2, 3}, so the rank grows by 2
    # and the raw words {0: 1}, {1: 1} are no basis of C
    shift = {k: {k + 1: 1} for k in range(3)}
    echelon = RationalEchelon()
    echelon.close([echelon.insert({2: 1})], [move_form(shift)])
    assert sorted(echelon.pivots) == [2, 3]
    seeds = [{0: 1}]
    record = echelon.close([echelon.insert(seeds[0])], [move_form(shift)])
    closure = ref_closure(seeds, [shift])
    assert len(closure) == 4
    assert echelon.rank - 2 == 1 + len(record) == 2 < len(closure)
    assert ref_rank(record_words(seeds, [shift], record)) == 2


def ref_replay(echelon, vectors, tree, ops):
    """replay by ref_insert of each image in the same order: a node's image
    is its operator applied to the pivot kept for its parent."""
    before = echelon.rank
    for vec in vectors:
        kept = [ref_insert(echelon, vec)]
        for parent, k in tree:
            image = {} if kept[parent] is None else ref_apply_ints(ops[k], kept[parent])
            kept.append(ref_insert(echelon, image))
    return echelon.rank - before


@settings(max_examples=300)
@given(st.lists(close_vectors, max_size=3), st.lists(close_vectors, min_size=1, max_size=3),
       close_vectors, operator_lists(close_operators))
# a partial sum of a several-entry image cancels and its key comes back later:
# _apply and ref_apply_ints keep that pivot's entries in different orders
@example([], [{2: 2, 5: 1, 3: 1}], {1: 1},
         [{0: {0: 1}, 2: {2: 1}, 5: {2: -2, 0: 1}, 1: {0: 1}, 3: {2: 1}}])
@example([], [{0: 1, 1: 1}], {0: 1},
         [{0: {5: 1}, 1: {2: 1, 1: 1}, 3: {}, 2: {1: -2}, 4: {0: 1}, 5: {1: 2}}])
def test_replay_matches_inserting_each_image(held, vectors, seed, ops):
    moves = list(map(move_form, ops))
    scratch = RationalEchelon()
    tree = scratch.close([scratch.insert(seed)], moves)
    echelon = RationalEchelon()
    for vec in held:
        echelon.insert(vec)
    ref = RationalEchelon()
    ref.pivots = {lead: dict(pivot) for lead, pivot in echelon.pivots.items()}
    copies = [dict(v) for v in vectors]
    assert echelon.replay(vectors, tree, moves) == ref_replay(ref, vectors, tree, ops)
    assert pivot_items(echelon) == pivot_items(ref)
    assert vectors == copies  # left unchanged
    assert_echelon_form(echelon)


# 0 -> 1 + 2, 1 -> 3, 2 -> 3: dense moves 1 = [1, 0, 1, 0, ...] (0 -> 1 and
# 2 -> 3) and 2 = [1, 1, 0, 0, ...] (0 -> 2 and 1 -> 3)
BRANCH = {0: {1: 1, 2: 1}, 1: {3: 1}, 2: {3: 1}}


@pytest.mark.parametrize("move, col, value", [
    (1, 0, 0),   # 0 -> 1 dropped: the first pivot is {2: 1}
    (2, 2, 1),   # 2 -> 0 added: the image of {1: 1, 2: 1} gains state 0
    (1, 2, -1),  # 2 -> 3 negated: the image of {1: 1, 2: 1} cancels
])
def test_a_changed_dense_entry_fails_the_differentials(move, col, value):
    # negative control for the closure and replay differentials: one weight
    # of a dense list changed, the reference still reading the columns
    moves = move_form(BRANCH)
    dict(moves)[move][col] = value
    start = [{0: 1}]
    echelon, ref = RationalEchelon(), RationalEchelon()
    record = echelon.close([echelon.insert(start[0])], [moves])
    assert (record, pivot_items(echelon)) != (
        ref_close(ref, [ref.insert(start[0])], [BRANCH]), pivot_items(ref))
    scratch = RationalEchelon()
    tree = scratch.close([scratch.insert(start[0])], [move_form(BRANCH)])
    echelon, ref = RationalEchelon(), RationalEchelon()
    assert ((echelon.replay(start, tree, [moves]), pivot_items(echelon))
            != (ref_replay(ref, start, tree, [BRANCH]), pivot_items(ref)))


def test_replay_counts_a_full_product():
    # two chains, 0 -> 1 -> 2 and 4 -> 5 -> 6: the closure of {0: 1} records
    # two nodes, and replayed from {0: 1} and {4: 1} it adds 2 * 3 pivots
    chains = [{k: {k + 1: 1} for k in (0, 1, 4, 5)}]
    scratch = RationalEchelon()
    tree = scratch.close([scratch.insert({0: 1})], list(map(move_form, chains)))
    assert tree == [(0, 0), (1, 0)]
    echelon = RationalEchelon()
    assert echelon.replay([{0: 1}, {4: 1}], tree, list(map(move_form, chains))) == 6
    assert sorted(echelon.pivots) == [0, 1, 2, 4, 5, 6]


def test_replay_of_a_tree_inside_the_span_adds_fewer_pivots():
    # the echelon holds {3: 1}: the chain replayed from {0: 1} stops there,
    # and the nodes below it are skipped; {1: 1} is held by then, so its
    # whole tree is skipped
    shift = {k: {k + 1: 1} for k in range(7)}
    scratch = RationalEchelon()
    tree = scratch.close([scratch.insert({0: 1})], [move_form(shift)])
    assert tree == [(k, 0) for k in range(7)]
    echelon = RationalEchelon()
    echelon.insert({3: 1})
    assert echelon.replay([{0: 1}, {1: 1}], tree, [move_form(shift)]) == 3 < 2 * (len(tree) + 1)
    assert sorted(echelon.pivots) == [0, 1, 2, 3]
