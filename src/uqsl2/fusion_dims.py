"""Fusion with X over the indecomposable labels, and the dimension counts.

Labels are ("X", sign, s) for the simples (1 <= s <= p) and ("P", sign, s)
for the projectives (1 <= s <= p-1), sign in {+1, -1}.  Tensoring with X
acts linearly on multiplicity vectors; iterating from the trivial module
gives the multiplicities M in X^(tensor n), and the quadratic form over
them gives the endomorphism-algebra dimension D_n.
"""

from __future__ import annotations

import math

Label = tuple[str, int, int]

CONVENTIONS = ("floor-euclidean", "truncate-toward-zero", "zero-for-negative-index")


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError(f"Catalan numbers need n >= 0, got {n}")
    return math.comb(2 * n, n) // (n + 1)


def _step_one(label: Label, p: int) -> dict[Label, int]:
    """X tensor (one indecomposable), as a multiset of labels."""
    kind, sg, s = label
    if kind == "X":
        if s == p:
            return {("P", sg, p - 1): 1}
        if s == 1:
            return {("X", sg, 2): 1}
        return {("X", sg, s - 1): 1, ("X", sg, s + 1): 1}
    # projectives
    if p == 2:
        # s = 1 is simultaneously the top and bottom case; the consistent
        # decomposition doubles both signs of the big simple
        return {("X", sg, 2): 2, ("X", -sg, 2): 2}
    if s == p - 1:
        return {("P", sg, p - 2): 1, ("X", sg, p): 2}
    if s == 1:
        return {("P", sg, 2): 1, ("X", -sg, p): 2}
    return {("P", sg, s - 1): 1, ("P", sg, s + 1): 1}


def tensor_step(counts: dict[Label, int], p: int) -> dict[Label, int]:
    out: dict[Label, int] = {}
    for label, mult in counts.items():
        for piece, m in _step_one(label, p).items():
            out[piece] = out.get(piece, 0) + mult * m
    return {k: v for k, v in sorted(out.items()) if v}


def multiplicities(n: int, p: int) -> dict[Label, int]:
    if n < 0 or p < 2:
        raise ValueError(f"multiplicities need n >= 0 and p >= 2, got n={n}, p={p}")
    counts = {("X", 1, 1): 1}
    for _ in range(n):
        counts = tensor_step(counts, p)
    return counts


def dimension_formula(n: int, p: int) -> int:
    """The quadratic form over multiplicities: squares of the simple and
    negative-big-simple counts, plus the projective cross terms."""
    counts = multiplicities(n, p)

    def m(label: Label) -> int:
        return counts.get(label, 0)

    total = m(("X", -1, p)) ** 2
    total += sum(m(("X", 1, i)) ** 2 for i in range(1, p + 1))
    for j in range(1, p):
        pp = m(("P", 1, p - j))
        pm = m(("P", -1, p - j))
        total += 2 * pp**2 + 2 * pm**2
        total += 2 * m(("X", 1, p - j)) * pp
        total += 4 * pp * m(("P", -1, j))
    return total


# --- the dimension conjecture --------------------------------------------------

def _bin_diff(a: int, b: int) -> int:
    """C(a,b) - C(a,b-1) with out-of-range binomials equal to zero."""
    def c(x, y):
        return math.comb(x, y) if 0 <= y <= x else 0

    return c(a, b) - c(a, b - 1)


def _half(i: int, convention: str) -> int:
    if convention == "floor-euclidean":
        return i // 2
    if convention == "truncate-toward-zero":
        return i // 2 if i >= 0 else -((-i) // 2)
    raise ValueError(convention)


def conjecture_g(n: int, i: int, convention: str) -> int:
    if convention == "zero-for-negative-index" and i < 0:
        return 0
    conv = "floor-euclidean" if convention == "zero-for-negative-index" else convention
    total = 0
    for j in range(0, _half(i, conv) + 1):
        total += 2 * _bin_diff(n, i + 1 - j) * _bin_diff(n, j)
    parity = _half(i + 1, conv) - _half(i, conv)
    total += parity * _bin_diff(n, _half(i, conv) + 1) ** 2
    return total


def conjecture_eval(n: int, p: int, convention: str) -> int:
    """The conjectured dimension: C_n plus (n+1)(n+3)-weighted G terms at
    the shifted indices n - (j+2)p."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    total = catalan(n)
    for j in range(0, n // p + 1):
        total += (n + 1) * (n + 3) * conjecture_g(n, n - (j + 2) * p, convention)
    return total

