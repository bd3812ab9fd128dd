"""Exact sparse elimination: nullspace bases of random kernel-form systems."""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl2._elim import SparseRref, nullspace, rank_of_vectors
from uqsl2._kernel import kacc, kadd, kmul, knorm
from uqsl2.cyclo_field import make_field

CTX = {p: make_field(p) for p in (2, 3)}


@st.composite
def systems(draw):
    """(ctx, column count, rows): a few sparse rows of small kernel pairs,
    sometimes with a sum of two rows appended so the rank drops."""
    ctx = CTX[draw(st.sampled_from(sorted(CTX)))]
    ncols = draw(st.integers(1, 6))
    scalar = st.builds(
        knorm, st.tuples(*[st.integers(-3, 3)] * ctx.degree), st.integers(1, 3)
    ).filter(lambda k: any(k[0]))
    row = st.dictionaries(st.integers(0, ncols - 1), scalar, max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    if len(rows) >= 2 and draw(st.booleans()):
        total = dict(rows[0])
        for col, (n, d) in rows[1].items():
            kacc(total, col, n, d)
        rows.append(total)
    return ctx, ncols, rows


def _dot(ctx, row, vec):
    acc = ((0,) * ctx.degree, 1)
    for col, (n, d) in row.items():
        if col in vec:
            acc = kadd(*acc, *kmul(n, d, *vec[col], ctx.red))
    return acc


@given(systems())
@settings(max_examples=150, deadline=None)
def test_nullspace_basis(system):
    ctx, ncols, rows = system
    before = copy.deepcopy(rows)
    basis = nullspace(ctx, rows, range(ncols))
    assert rows == before
    one = (ctx.one.nums, ctx.one.den)
    # every vector annihilates every row, in kernel arithmetic
    for vec in basis:
        for row in rows:
            assert not any(_dot(ctx, row, vec)[0])
    # one vector per free column: columns - rank of them
    assert len(basis) == ncols - rank_of_vectors(ctx, rows)
    # each vector is 1 at its own free column and 0 at the others
    rr = SparseRref(ctx)
    for row in rows:
        rr.add_row(dict(row))
    free = [c for c in range(ncols) if c not in rr.pivots]
    assert len(free) == len(basis)
    for f, vec in zip(free, basis):
        assert vec[f] == one
        assert not set(vec) & (set(free) - {f})
