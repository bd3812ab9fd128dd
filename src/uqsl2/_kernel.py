"""Scalar kernel: exact arithmetic on cyclotomic numbers as integer tuples.

A scalar is a pair ``(nums, den)``: ``nums`` is a tuple of integer
numerators (coefficients of q^0, q^1, ...) of length ``deg``, ``den`` a
positive integer, with gcd(*nums, den) == 1.  ``red`` holds the reduction
rows of the field: red[k][j] is the integer coefficient of q^j in
q^(deg+k) reduced modulo the minimal polynomial.  Integers stay Python
ints throughout; exactness requires arbitrary precision.
"""

from __future__ import annotations

from math import gcd

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
    if ad == bd:
        return knorm(tuple(x + y for x, y in zip(an, bn)), ad)
    return knorm(tuple(x * bd + y * ad for x, y in zip(an, bn)), ad * bd)


def ksub(an, ad, bn, bd):
    if ad == bd:
        return knorm(tuple(x - y for x, y in zip(an, bn)), ad)
    return knorm(tuple(x * bd - y * ad for x, y in zip(an, bn)), ad * bd)


def kneg(an, ad):
    return tuple(-x for x in an), ad


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


def kacc(acc, key, nums, den):
    """In-place ``acc[key] += (nums, den)``; a sum that becomes zero is removed."""
    e = acc.get(key)
    if e is None:
        acc[key] = (nums, den)
        return
    rn, rd = kadd(e[0], e[1], nums, den)
    if any(rn):
        acc[key] = (rn, rd)
    else:
        del acc[key]


def krow_axpy(dst, src, cn, cd, red):
    """In-place ``dst[col] -= c*src[col]`` over the columns of src.

    dst and src map column keys to (nums, den) pairs; entries that become
    zero are removed from dst.  This is the elimination inner loop.
    """
    for col, (sn, sd) in src.items():
        tn, td = kmul(sn, sd, cn, cd, red)
        e = dst.get(col)
        if e is None:
            if any(tn):
                dst[col] = (tuple(-x for x in tn), td)
        else:
            rn, rd = ksub(e[0], e[1], tn, td)
            if any(rn):
                dst[col] = (rn, rd)
            else:
                del dst[col]
