"""Sparse matrices over the Laurent ring and exact rational elimination.

A ``SparseMatrix`` is stored column-major, ``{col: {row: QLaurent}}`` with no
zero entries retained, and every operation works on those entries.  A column
is the one sparse vector of the package, ``{state: QLaurent}``: ``apply``
maps such a vector to its image, as ``OperatorExpr.apply`` does, and the
matrix product ``*`` is ``apply`` on each column of its right factor.  The
checks on the grid module decide their identities on Clifford words
(``wordzero``); matrices serve the small quantum-group representations (the
natural module, coproducts, the braiding) and, through
``OperatorExpr.to_matrix``, the tests' oracle for the word path.

The module also hosts ``RationalEchelon``, the incremental row reduction
behind every span dimension and rank at specialized q, and behind the span
sweep that ``wordzero`` runs over Clifford words.  Its pivots are
primitive integer vectors keyed by their largest key, and one
reduce-and-keep step, ``_keep``, adds every pivot: for ``insert``, the one
way in for a vector from outside the echelon (any exact vector, its
denominators cleared first), ``close``, which closes a span under the
integer operators ``OperatorExpr.specialize_ints`` returns: it applies the
operators to every new pivot and keeps each image as it arises, round by
round, until a round adds no pivot, and ``replay``, which applies the
words that one closure recorded to other vectors.  Those operators are in
move form, [(move, weights)], each weights a flat ``{col: int}`` holding
the operator's entry at (col ^ move, col).  ``close`` skips the images
that an operator commuting with the one that made a pivot would repeat
(its ordered-word rule), and may run in an echelon that already holds a
span the operators keep closed: its rule and its record then work modulo
that span, and its words are a basis of the new closure when the two
meet only in 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .qscalar import QLaurent, _is_rational

__all__ = ["SparseMatrix", "RationalEchelon"]

_UNIT = QLaurent.one().terms


class SparseMatrix:
    """A dim x dim sparse matrix with QLaurent entries, stored as
    ``{col: {row: QLaurent}}`` without zeros.  Instances are immutable;
    column dicts may be shared between matrices."""

    __slots__ = ("dim", "_cols")

    def __init__(self, dim, cols=None):
        """cols maps column -> {row: QLaurent}; zero entries are dropped."""
        self.dim = dim
        self._cols = {}
        for c, col in (cols or {}).items():
            col = {r: v for r, v in col.items() if v}
            if col:
                self._cols[c] = col

    @classmethod
    def _raw(cls, dim, cols):
        """Wrap cols, which hold no zero entry and no empty column."""
        obj = cls.__new__(cls)
        obj.dim = dim
        obj._cols = cols
        return obj

    @classmethod
    def identity(cls, dim):
        one = QLaurent.one()
        return cls._raw(dim, {c: {c: one} for c in range(dim)})

    @classmethod
    def diagonal(cls, entries):
        """Diagonal matrix from a list of QLaurent entries."""
        return cls._raw(len(entries), {c: {c: v} for c, v in enumerate(entries) if v})

    # -- queries -------------------------------------------------------------

    @property
    def cols(self):
        """{col: {row: QLaurent}}, a fresh copy on every access."""
        return {c: dict(col) for c, col in self._cols.items()}

    def entry(self, r, c):
        return self._cols.get(c, {}).get(r, QLaurent.zero())

    def nnz(self):
        return sum(map(len, self._cols.values()))

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.dim == other.dim and self._cols == other._cols

    def first_difference(self, other):
        """Column index of the first differing column, or None if equal."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        a, b = self._cols, other._cols
        if a == b:
            return None
        return min(c for c in a.keys() | b.keys() if a.get(c) != b.get(c))

    def first_noncommuting(self, other, shift=0):
        """The first column where self * other and q^shift other * self
        differ, or None; the two products are compared, one of them scaled."""
        swapped = other * self
        if shift:
            swapped = swapped.scale(QLaurent.q_power(shift))
        return (self * other).first_difference(swapped)

    # -- arithmetic ----------------------------------------------------------

    def _sum(self, other, negate):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = dict(self._cols)
        for c, bcol in other._cols.items():
            out = dict(cols.get(c, {}))
            for r, v in bcol.items():
                if negate:
                    v = -v
                s = out.get(r)
                s = v if s is None else s + v
                if s:
                    out[r] = s
                else:
                    del out[r]
            if out:
                cols[c] = out
            else:
                cols.pop(c, None)
        return SparseMatrix._raw(self.dim, cols)

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        return SparseMatrix._raw(
            self.dim, {c: {r: -v for r, v in col.items()} for c, col in self._cols.items()})

    def scale(self, coeff):
        if not isinstance(coeff, QLaurent):
            coeff = QLaurent.from_rational(coeff)
        if not coeff:
            return SparseMatrix(self.dim)
        return SparseMatrix._raw(
            self.dim, {c: {r: v * coeff for r, v in col.items()} for c, col in self._cols.items()})

    def apply(self, vec):
        """Apply to a sparse vector ``{state: QLaurent}`` without zero
        entries; returns one in the same form, as ``OperatorExpr.apply``
        does.  The image is the sum of vec's columns, each weighted by its
        coefficient."""
        get = self._cols.get
        out = {}
        for k, x in vec.items():
            col = get(k)
            if col:
                unit = x.terms == _UNIT  # the torus generators hold mostly 1
                for r, v in col.items():
                    p = v if unit else v * x
                    s = out.get(r)
                    out[r] = p if s is None else s + p
        # a single product of nonzero entries is nonzero; sums may cancel
        if len(vec) > 1:
            out = {r: v for r, v in out.items() if v}
        return out

    def __mul__(self, other):
        """Matrix product self @ other: ``apply`` on each of other's columns."""
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        apply = self.apply
        cols = {}
        for c, bcol in other._cols.items():
            out = apply(bcol)
            if out:
                cols[c] = out
        return SparseMatrix._raw(self.dim, cols)

    def kron(self, other):
        """Kronecker product; index (r1, r2) -> r1 * other.dim + r2."""
        d2 = other.dim
        cols = {}
        for c1, col1 in self._cols.items():
            for c2, col2 in other._cols.items():
                cols[c1 * d2 + c2] = {
                    r1 * d2 + r2: v1 * v2 for r1, v1 in col1.items() for r2, v2 in col2.items()
                }
        return SparseMatrix._raw(self.dim * d2, cols)

    def specialize(self, value):
        """Entrywise evaluation at q = value (an int or Fraction); returns
        {col: {row: Fraction}} without the entries that vanish there."""
        if not _is_rational(value):
            raise TypeError(f"specialize needs an int or Fraction, got {type(value).__name__}")
        cols = {}
        for c, col in self._cols.items():
            out = {r: x for r, v in col.items() if (x := v.specialize(value))}
            if out:
                cols[c] = out
        return cols

    def specialize_ints(self, value):
        """Evaluation at q = value over one common factor: (cols, scale), with
        cols {col: {row: int}} and scale a nonzero Fraction such that scale *
        cols[c][r] is the entry at q = value.  Same errors as specialize."""
        values = self.specialize(value)
        den = lcm(*(x.denominator for col in values.values() for x in col.values()))
        cols = {c: {r: x.numerator * (den // x.denominator) for r, x in col.items()}
                for c, col in values.items()}
        return cols, Fraction(1, den)


def _cleared(vec):
    """An exact vector (int and Fraction entries) times the lcm of its
    denominators: a fresh integer vector without zero entries, in the same
    direction.  It need not be primitive: ``_keep`` and ``_reduce_ints``
    divide what they keep by its gcd."""
    den = 1
    for v in vec.values():
        # an exact type test first: isinstance against Fraction's ABC is slow
        if type(v) is not int:
            den = lcm(den, v.denominator)
    return {k: v * den if type(v) is int else v.numerator * (den // v.denominator)
            for k, v in vec.items() if v}


def _reduce_ints(pivots, vec):
    """Reduce an integer vector against pivots ``{lead: vector}``.

    vec is a fresh dict with no zero entries; it is consumed.  Each step
    cancels vec's lead (its largest key) with the pivot of that lead:
    vec * a - pivot * b, a and b the two lead entries.  Returns the primitive
    remainder, whose lead is no pivot's, or {} when vec lies in the pivots'
    span.
    """
    while vec:
        lead = max(vec)
        pivot = pivots.get(lead)
        if pivot is None:
            g = gcd(*vec.values())
            return {k: v // g for k, v in vec.items()} if g > 1 else vec
        a = pivot[lead]
        b = vec[lead]
        if a != 1:
            vec = {k: v * a for k, v in vec.items()}
        for k, v in pivot.items():
            s = vec.get(k, 0) - v * b
            if s:
                vec[k] = s
            else:
                del vec[k]
    return vec


def _apply(op, vec):
    """An integer operator in move form applied to an integer vector,
    without zero entries: {} when the image is zero.  A one-entry vector's
    image has one row per move, so it skips the accumulation loop."""
    if len(vec) == 1:
        (c, x), = vec.items()
        return {c ^ move: w * x for move, weights in op if (w := weights.get(c))}
    image = {}
    for move, weights in op:
        for c, x in vec.items():
            if w := weights.get(c):
                r = c ^ move
                s = image.get(r, 0) + w * x
                if s:
                    image[r] = s
                else:
                    del image[r]
    return image


def _keep(pivots, image):
    """The one reduce-and-keep step of ``RationalEchelon``: reduce a nonzero
    integer vector against pivots ``{lead: vector}`` and keep a nonzero
    remainder as a new pivot; returns it, or None when the vector lies in
    their span.  image must be a fresh dict: it becomes the pivot or is
    consumed by ``_reduce_ints``.

    The images of a lowering closure are nearly monomial, so two shortcuts
    skip the general reducer, each giving the pivot it would give: a
    one-entry image {r: w} becomes the pivot {r: sign(w)} when no pivot
    leads at r and is dropped when the pivot at r has one entry too; and an
    image whose lead no pivot holds is only divided by its gcd.  So the
    pivots, their entries and their order are those of reducing every image
    with ``_reduce_ints``.
    """
    if len(image) == 1:
        (lead, w), = image.items()
        pivot = pivots.get(lead)
        if pivot is None:
            image = {lead: 1 if w > 0 else -1}
        elif len(pivot) == 1:
            return None  # a multiple of that one-entry pivot
    else:
        lead = max(image)
        pivot = pivots.get(lead)
        if pivot is None:
            g = gcd(*image.values())
            if g > 1:
                image = {r: v // g for r, v in image.items()}
    if pivot is not None:
        image = _reduce_ints(pivots, image)
        if not image:
            return None
        lead = max(image)
    pivots[lead] = image
    return image


class RationalEchelon:
    """Incremental echelon basis for sparse vectors with exact entries.

    Keys must be totally ordered (ints or tuples).  ``pivots`` maps each
    pivot's lead (its largest key) to the pivot, a primitive integer vector.
    ``insert`` clears a vector's denominators and reduces it against the
    pivots; a nonzero remainder becomes a new pivot.  ``close`` inserts the
    images of integer vectors under integer operators until the span is
    closed under them.  Every pivot is added by ``_keep``.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Fully reduce an exact vector; returns a primitive integer remainder."""
        return _reduce_ints(self.pivots, _cleared(vec))

    def insert(self, vec):
        """Reduce and insert (``_keep``) an exact vector, int or Fraction
        entries, zeros allowed, such as another echelon's pivot; returns the
        new pivot vector, or None.  vec itself is left unchanged."""
        ints = _cleared(vec)
        return _keep(self.pivots, ints) if ints else None

    def close(self, frontier, ops, commuting=()):
        """Close the span under integer operators; returns the creation record.

        frontier: integer vectors of the span whose images are still to be
        taken: typically the pivots just inserted, or every pivot of an
        earlier closure under other operators, to close that span under
        these ones too.  ops: integer operators in move form (the module
        docstring), as ``OperatorExpr.specialize_ints`` returns them.
        Neither may hold an explicit zero entry.

        Each round applies operators to the vectors of the frontier and
        inserts each nonzero image (``_apply`` and ``_keep``, with their
        shortcuts); the pivots it adds are the next round's frontier, and the
        span is closed after a round that adds none.  That round always
        comes: every round before it adds a pivot, and the pivots are
        independent vectors on the keys that the frontier's keys reach by
        the operators' moves, finitely many as the moves are XORs.

        commuting: pairs (j, c), j < c, of operators with F_j F_c = F_c F_j,
        the ordered-word rule: a pivot made by operator c does not take the
        operators j of its pairs, and a frontier vector takes every
        operator.  The span is still the closure when the echelon held, at
        the start, the frontier and a span H that the ops keep closed (H = 0
        included): the final span is H + C, C the closure of the frontier.
        Let P be the final span; by descending induction on j, F_j P lies in
        P, once every F_c with c > j maps P into P, by ascending induction on
        the pivot index, H's pivots first, whose images lie in H.  An image
        F_j x that is taken lies in P.  If the rule denies it, x was made by
        an op c > j from its parent y, x = a F_c y + earlier pivots with
        a != 0, H's among them, so F_j x = a F_c (F_j y) + F_j (earlier
        pivots); F_j y and F_j of the earlier pivots lie in P by the
        induction on the index, and F_c maps P into P by the induction on
        j, as c > j.

        The creation record lists one (parent, op) pair per pivot added, in
        the order added: the pivot came from the image under ``ops[op]`` of
        the vector at index parent, counting the frontier first and then the
        added pivots in order, so a parent comes before its pivot.  Read as
        words, it spans C modulo H.  By ascending induction on the index of
        x, each image F_j x lies in the span held just after x's turn
        reaches op j: a denied one is a F_c (F_j y) + F_j (earlier pivots)
        as above, F_j y lies in the span held before x was made, as j < c,
        and the images of the pivots held then, H's included, lie in the
        span held when x's turn began.  So when the pivot at index k is made
        from its parent p by op c, the images under op c of the vectors
        before p lie in the span held, and the pivot is a nonzero multiple
        of its word, the image of its parent's word, plus earlier pivots,
        H's among them.  So the frontier and the record's words applied
        raw, all in C, span C modulo H; when the frontier's vectors were
        just kept as pivots, there are dim (H + C) - dim H of them, and the
        rank has grown by as many since H.  When C meets H only in 0, that
        is dim C, and they are a basis of C; when C meets H, it is less,
        and they are no basis of C.
        """
        pivots = self.pivots
        record = []
        every = list(enumerate(ops))
        # menus[c]: the operators that a pivot made by operator c takes
        menus = [[(j, op) for j, op in every if (j, c) not in commuting] for c in range(len(ops))]
        frontier = [(vec, every) for vec in frontier]
        base = 0
        while frontier:
            fresh = []
            for parent, (vec, menu) in enumerate(frontier, base):
                # most frontier vectors have one entry: _apply's monomial
                # case, taken once per vector instead of once per op
                monomial = len(vec) == 1
                if monomial:
                    (c, x), = vec.items()
                for k, op in menu:
                    if monomial:
                        image = {}
                        for move, weights in op:
                            if w := weights.get(c):
                                image[c ^ move] = w * x
                    else:
                        image = _apply(op, vec)
                    if not image:
                        continue
                    pivot = _keep(pivots, image)
                    if pivot is not None:
                        fresh.append((pivot, menus[k]))
                        record.append((parent, k))
            base += len(frontier)
            frontier = fresh
        return record

    def replay(self, vectors, tree, ops):
        """Insert each vector, then the images of a creation record replayed
        from it; returns the number of pivots added.

        tree: the record that ``close`` returned for a one-vector frontier,
        and ops the operators, in move form, it was recorded with;
        ``duality._value_ranks`` records it in this echelon itself, and
        replays it from every vector but that frontier's.  Each vector is
        inserted by ``insert``; then the tree is walked from it: a
        node's image is its operator applied (``_apply``, one lookup per
        move and entry) to the pivot that this echelon kept for the node's
        parent (index 0 the vector, index k the tree's k-th node), reduced
        and kept by ``_keep``.  A node whose parent was kept no pivot is
        skipped.  The pivots are those that ``insert`` of each image, in
        the same order, gives.

        Let S be the span of the words w b, for b a vector and w one of the
        tree's words, the empty word included.  When ops keep both S and the
        span held before closed, every pivot added lies in their sum, so the
        count is at most dim S, itself at most len(vectors) * (len(tree) +
        1); ``duality._value_ranks`` reads the span's dimension off that
        bound, with the tree's own closure counted as one more vector.
        """
        pivots = self.pivots
        before = len(pivots)
        for vec in vectors:
            kept = [self.insert(vec)]
            for parent, k in tree:
                source = kept[parent]
                image = None if source is None else _apply(ops[k], source)
                kept.append(_keep(pivots, image) if image else None)
        return len(pivots) - before
