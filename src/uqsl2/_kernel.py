"""Scalar kernel: exact arithmetic on cyclotomic numbers.

The pair functions (``knorm``, ``kadd``, ``kneg``, ``kmul``)
take a scalar as a pair ``(nums, den)``: ``nums`` is a tuple of integer
numerators (coefficients of q^0, q^1, ...) of length ``deg``, ``den`` a
positive integer, with gcd(*nums, den) == 1.  ``red`` holds the reduction
rows of the field: red[k][j] is the integer coefficient of q^j in
q^(deg+k) reduced modulo the minimal polynomial.  Integers stay Python
ints throughout; exactness requires arbitrary precision.  Only this
module calls them.

A scalar has one form: a small int id of its field's ``Scalars`` table,
which interns canonical pairs (0 is zero, 1 is one) and memoises sums,
products, negations and inverses on ids, computing each miss once on
the pairs; equal values have equal ids, and a difference is the sum
with a negation.  A ``uqsl2.cyclo_field.CycloNum`` is a handle on one
id, and its arithmetic is the table's.  Each field has one table, ``FieldCtx(p).table``, built
with its context and kept for the whole process, so the ids that
cached operators hold stay valid.  Operators (``uqsl2.tensor_space``),
the elimination and the intertwiner solver all run on these ids, and
every sparse row sum among them is the one row update ``krow_axpy``.

``kmul`` is the one pair product, behind every product miss.  Sums of
two integral pairs (both denominators 1, most sums in practice) add the
numerators and skip ``knorm``: the gcd with 1 is 1, so the pair is the
one the general formula gives.
"""

from __future__ import annotations

from math import gcd
from operator import add, neg

# Read by the benchmark's import probe (perfbench/run.py); there is one backend.
BACKEND = "pure"


def knorm(nums, den):
    """Normalize so gcd(*nums, den) == 1 and den > 0."""
    g = den if den > 0 else -den
    for a in nums:
        g = gcd(g, a)
        if g == 1:
            break
    if den < 0:
        g = -g
    if g != 1:
        return tuple(a // g for a in nums), den // g
    return tuple(nums), den


def kadd(an, ad, bn, bd):
    if ad == 1 == bd:
        return tuple(map(add, an, bn)), 1
    if ad == bd:
        return knorm(tuple(x + y for x, y in zip(an, bn)), ad)
    return knorm(tuple(x * bd + y * ad for x, y in zip(an, bn)), ad * bd)


def kneg(an, ad):
    return tuple(map(neg, an)), ad


def kmul(an, ad, bn, bd, red):
    """Multiply: integer convolution, reduce by red rows, normalize."""
    deg = len(an)
    conv = [0] * (2 * deg - 1)
    for i in range(deg):
        x = an[i]
        if x:
            for j in range(deg):
                y = bn[j]
                if y:
                    conv[i + j] += x * y
    nums = conv[:deg]
    for k in range(deg, 2 * deg - 1):
        c = conv[k]
        if c:
            row = red[k - deg]
            for j in range(deg):
                r = row[j]
                if r:
                    nums[j] += c * r
    return knorm(tuple(nums), ad * bd)


# Entries a sum or product memo holds before it is emptied.  The exact
# solve commutant_dim(4, 7) memoises 121,678 sums of 5 k values, under the
# cap.  ``verify --p 4 --relations prop5 --budget 131072`` would keep 727 k
# sums of 16 k values and peak at 186 MB; with the cap it peaks at 118 MB,
# in 90 s against 82 s (CPython 3.11, one Xeon core).  The benchmark's
# invocations memoise under 1 k sums per field.
MEMO_CAP = 1 << 18

# Id of the field's one in every table.
ONE = 1


class Scalars:
    """One field's scalars interned as small int ids, with memoised arithmetic.

    ``vals[i]`` is the canonical pair of id ``i`` and ``ids`` maps each pair
    back; id 0 is zero and id 1 is one.  ``add``, ``mul`` and ``neg`` map
    id operands to the id of the exact result (a sum that is zero gives
    0), and ``inv`` holds the inverses that ``CycloNum.inv`` has computed.
    Every value is interned in canonical form, so equal values have equal
    ids and a memo hit is the id of the pair a fresh computation would
    give.
    """

    __slots__ = ("red", "ids", "vals", "add", "mul", "neg", "inv")

    def __init__(self, red):
        self.red = red
        deg = len(red[0])
        self.vals = [((0,) * deg, 1), ((1,) + (0,) * (deg - 1), 1)]
        self.ids = {v: i for i, v in enumerate(self.vals)}
        self.add: dict = {}
        self.mul: dict = {}
        self.neg: dict = {}
        self.inv: dict = {}

    def intern(self, nums, den) -> int:
        """Id of the canonical pair (nums, den)."""
        key = (nums, den)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.vals)
            self.vals.append(key)
        return i

    def id_of(self, nums, den) -> int:
        """Id of the value of any pair (nums, den), canonical or not."""
        i = self.ids.get((nums, den))
        if i is None:
            i = self.intern(*knorm(nums, den)) if any(nums) else 0
        return i

    # Memo misses: compute on the pairs, intern, and record the id.  A full
    # memo is emptied first.
    def addition(self, a, b) -> int:
        if len(self.add) >= MEMO_CAP:
            self.add.clear()
        rn, rd = kadd(*self.vals[a], *self.vals[b])
        r = self.add[a, b] = self.intern(rn, rd) if any(rn) else 0
        return r

    def product(self, a, b) -> int:
        if len(self.mul) >= MEMO_CAP:
            self.mul.clear()
        r = self.mul[a, b] = self.intern(*kmul(*self.vals[a], *self.vals[b], self.red))
        return r

    def negation(self, a) -> int:
        r = self.neg[a] = self.intern(*kneg(*self.vals[a]))
        return r

    def accumulate(self, row, key, a) -> None:
        """In-place ``row[key] += a`` for a nonzero id ``a``; a zero sum is removed."""
        e = row.get(key)
        if e is not None:
            r = self.add.get((e, a))
            a = self.addition(e, a) if r is None else r
            if not a:
                del row[key]
                return
        row[key] = a


def krow_axpy(dst, src, a, table):
    """In-place ``dst[col] += a*src[col]`` over the columns of src.

    dst and src map column keys to nonzero ids of ``table``, and ``a`` is
    a nonzero id; entries that become zero are removed from dst.  This is
    the one row update: operator sums and composition, and the
    elimination, whose pivot rows have pivot value -1.
    """
    muls, adds = table.mul, table.add
    for col, s in src.items():
        if a != ONE:
            s = muls.get((s, a)) or table.product(s, a)
        e = dst.get(col)
        if e is None:
            dst[col] = s
            continue
        r = adds.get((e, s))
        if r is None:
            r = table.addition(e, s)
        if r:
            dst[col] = r
        else:
            del dst[col]
