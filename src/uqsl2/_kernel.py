"""Scalar kernel: exact arithmetic on cyclotomic numbers as integer tuples.

A scalar is a pair ``(nums, den)``: ``nums`` is a tuple of integer
numerators (coefficients of q^0, q^1, ...) of length ``deg``, ``den`` a
positive integer, with gcd(*nums, den) == 1.  ``red`` holds the reduction
rows of the field: red[k][j] is the integer coefficient of q^j in
q^(deg+k) reduced modulo the minimal polynomial.  Integers stay Python
ints throughout; exactness requires arbitrary precision.

``kmul`` memoises products (``kprod``) per field on the exact operands,
one field (one ``red``) at a time; a hit returns the pair a fresh
convolution would.
Sums of two integral pairs (both denominators 1, most sums in practice)
add the numerators and skip ``knorm``: the gcd with 1 is 1, so the pair
is the one the general formula gives.

Elimination runs on ids instead of pairs: ``Scalars`` interns one field's
canonical pairs as small ints (0 is zero) and memoises products,
differences and negations on id operands, computing each miss once with
``kprod`` or ``ksub``.  The end-space and Hom solves
of the benchmark see at most a thousand distinct values per field, so the
row update ``krow_axpy`` is mostly dict lookups on int-pair keys.
"""

from __future__ import annotations

from math import gcd
from operator import add, neg, sub

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


def ksub(an, ad, bn, bd):
    if ad == 1 == bd:
        return tuple(map(sub, an, bn)), 1
    if ad == bd:
        return knorm(tuple(x - y for x, y in zip(an, bn)), ad)
    return knorm(tuple(x * bd - y * ad for x, y in zip(an, bn)), ad * bd)


def kneg(an, ad):
    return tuple(map(neg, an)), ad


# (red, {(an, ad, bn, bd): product}) of the field multiplied in last.  A new
# field starts an empty memo, so memory holds one field's products at a time.
_last = (None, {})


def kmul(an, ad, bn, bd, red):
    """``kprod``, memoised for the field multiplied in last."""
    global _last
    last, memo = _last
    if red is not last:
        if red != last:
            memo = {}
        _last = red, memo
    key = (an, ad, bn, bd)
    hit = memo.get(key)
    if hit is not None:
        return hit
    return memo.setdefault(key, kprod(an, ad, bn, bd, red))


def kprod(an, ad, bn, bd, red):
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


def kacc(acc, key, nums, den):
    """In-place ``acc[key] += (nums, den)``; a sum that becomes zero is removed."""
    e = acc.get(key)
    if e is None:
        acc[key] = (nums, den)
        return
    en, ed = e
    rn, rd = (tuple(map(add, en, nums)), 1) if ed == 1 == den else kadd(en, ed, nums, den)
    if any(rn):
        acc[key] = (rn, rd)
    else:
        del acc[key]


# Entries a product or difference memo holds before it is emptied.  Without
# a bound, commutant_dim(5, 7) keeps 1.05 M differences of 73 k values and
# peaks at 158 MB; with it, at 83 MB and no slower.  The benchmark's solves
# stay far below it (under 6 k differences per field).
MEMO_CAP = 1 << 18


class Scalars:
    """One field's scalars interned as small int ids, with memoised arithmetic.

    ``vals[i]`` is the canonical pair of id ``i`` and ``ids`` maps each pair
    back; id 0 is zero.  ``mul``, ``sub`` and ``neg`` map id operands to the
    id of the exact result, and ``inv`` holds the inverses its owner has
    computed.  Every value is interned in canonical form, so equal values
    have equal ids and a memo hit is the id of the pair a fresh computation
    would give.
    """

    __slots__ = ("red", "ids", "vals", "mul", "sub", "neg", "inv")

    def __init__(self, red):
        self.red = red
        zero = ((0,) * len(red[0]), 1)
        self.ids = {zero: 0}
        self.vals = [zero]
        self.mul: dict = {}
        self.sub: dict = {}
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

    # Memo misses: compute on the pairs, intern, and record the id.  A full
    # memo is emptied first; the ids, which the rows hold, are kept.  The
    # product memo is on ids, so kmul's pair memo would only hold it twice.
    def product(self, a, b) -> int:
        if len(self.mul) >= MEMO_CAP:
            self.mul.clear()
        r = self.mul[a, b] = self.intern(*kprod(*self.vals[a], *self.vals[b], self.red))
        return r

    def difference(self, a, b) -> int:
        if len(self.sub) >= MEMO_CAP:
            self.sub.clear()
        rn, rd = ksub(*self.vals[a], *self.vals[b])
        r = self.sub[a, b] = self.intern(rn, rd) if any(rn) else 0
        return r

    def negation(self, a) -> int:
        r = self.neg[a] = self.intern(*kneg(*self.vals[a]))
        return r


# The table of the field asked for last; a new field starts an empty one, as
# the kmul memo does.  Each solve keeps a reference to its own table.
_table = None


def scalars(red) -> Scalars:
    """The intern table of the field with reduction rows ``red``."""
    global _table
    t = _table
    if t is None or (t.red is not red and t.red != red):
        t = _table = Scalars(red)
    return t


def krow_axpy(dst, src, a, table):
    """In-place ``dst[col] -= a*src[col]`` over the columns of src.

    dst and src map column keys to nonzero ids of ``table``, and ``a`` is
    an id; entries that become zero are removed from dst.  This is the
    elimination inner loop.
    """
    muls, subs, negs = table.mul, table.sub, table.neg
    for col, s in src.items():
        t = muls.get((s, a))
        if t is None:
            t = table.product(s, a)
        e = dst.get(col)
        if e is None:
            n = negs.get(t)
            dst[col] = table.negation(t) if n is None else n
        else:
            r = subs.get((e, t))
            if r is None:
                r = table.difference(e, t)
            if r:
                dst[col] = r
            else:
                del dst[col]
