"""Exact sparse elimination: nullspace bases of random systems, drawn as
kernel pairs and eliminated as id rows, checked against a reference
elimination on the pairs.  The reference scales pivots to 1 and the
accumulator to -1, so each pivot row is compared with the negation of the
reference's."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl2._elim import (
    SparseRref, _reduce, _residue_axpy, nullspace, rank_of_vectors, residue_rank,
)
from uqsl2._kernel import ONE, kadd, kmul, kneg, knorm, krow_axpy
from uqsl2.cyclo_field import CycloNum, FieldCtx

CTX = {p: FieldCtx(p) for p in (2, 3)}


def _scalars(ctx):
    """Nonzero kernel pairs with small numerators and denominators."""
    return st.builds(
        knorm, st.tuples(*[st.integers(-3, 3)] * ctx.degree), st.integers(1, 3)
    ).filter(lambda k: any(k[0]))


@st.composite
def systems(draw, p=None):
    """(ctx, column count, rows): a few sparse rows of small kernel pairs,
    sometimes with a sum of two rows appended so the rank drops."""
    ctx = CTX[p or draw(st.sampled_from(sorted(CTX)))]
    ncols = draw(st.integers(1, 6))
    scalar = _scalars(ctx)
    row = st.dictionaries(st.integers(0, ncols - 1), scalar, max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    if len(rows) >= 2 and draw(st.booleans()):
        total = dict(rows[0])
        for col, (n, d) in rows[1].items():
            e = total.pop(col, None)
            s = (n, d) if e is None else kadd(*e, n, d)
            if any(s[0]):
                total[col] = s
        rows.append(total)
    return ctx, ncols, rows


@st.composite
def peeled_systems(draw):
    """(ctx, column count, rows): a system from ``systems`` shuffled with
    rows that singleton striking resolves: a cascade {c0}, {c0, c1},
    {c1, c2}, ... in which each strike leaves the next singleton, a row on
    the cascade's columns that the strikes empty, a singleton padded with a
    zero entry, and a new column that only a singleton row touches."""
    ctx, ncols, rows = draw(systems())
    scalar = _scalars(ctx)
    zero = ((0,) * ctx.degree, 1)
    extra, ncols = ncols, ncols + 1
    chain = draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=4, unique=True))
    cascade = [{chain[0]: draw(scalar)}]
    cascade += [{a: draw(scalar), b: draw(scalar)} for a, b in zip(chain, chain[1:])]
    emptied = {c: draw(scalar) for c in chain}
    padded = {draw(st.integers(0, ncols - 1)): draw(scalar), extra: zero}
    new = cascade + [emptied, padded, {extra: draw(scalar)}]
    return ctx, ncols, draw(st.permutations(rows + new))


def _ids(ctx, row):
    """The id row of a kernel-pair row; a zero pair becomes id 0."""
    id_of = ctx.table.id_of
    return {k: id_of(*v) for k, v in row.items()}


def _pairs(ctx, row):
    vals = ctx.table.vals
    return {k: vals[i] for k, i in row.items()}


def _negated(row):
    return {k: kneg(*v) for k, v in row.items()}


# --- reference: the elimination on kernel pairs, before scalars were interned

def _ref_axpy(dst, src, cn, cd, red):
    for col, (sn, sd) in src.items():
        tn, td = kmul(sn, sd, cn, cd, red)
        e = dst.get(col)
        if e is None:
            if any(tn):
                dst[col] = kneg(tn, td)
        else:
            rn, rd = kadd(*e, *kneg(tn, td))
            if any(rn):
                dst[col] = (rn, rd)
            else:
                del dst[col]


class _RefRref:
    def __init__(self, ctx):
        self.ctx = ctx
        self.pivots: dict = {}

    def add_row(self, row: dict) -> bool:
        red = self.ctx.red
        while row:
            c = min(row)
            cn, cd = row[c]
            if not any(cn):
                del row[c]
                continue
            piv = self.pivots.get(c)
            if piv is None:
                inv = CycloNum(self.ctx, cn, cd).inv()
                for k in list(row):
                    row[k] = kmul(*row[k], inv.nums, inv.den, red)
                self.pivots[c] = row
                return True
            _ref_axpy(row, piv, cn, cd, red)
        return False


def _ref_nullspace(ctx, rows, columns):
    rr = _RefRref(ctx)
    for row in rows:
        rr.add_row(dict(row))
    pivs = rr.pivots
    for pc in sorted(pivs, reverse=True):
        row = pivs[pc]
        for c in sorted(k for k in row if k != pc and k in pivs):
            if c in row:
                _ref_axpy(row, pivs[c], *row[c], ctx.red)
    one = (ctx.one.nums, ctx.one.den)
    basis = []
    for f in columns:
        if f not in pivs:
            basis.append({f: one, **{pc: kneg(*r[f]) for pc, r in pivs.items() if f in r}})
    return basis


def _pivot_pairs(rr):
    return {c: _pairs(rr.ctx, row) for c, row in rr.pivots.items()}


def _negated_pivots(ref):
    return {c: _negated(row) for c, row in ref.pivots.items()}


def _add_both(rr, ref, row):
    """add_row of the id row on the interned accumulator and of the pair row
    on the reference; the accumulator's pivot row must be the negation of the
    reference's, and the caller's dict must hold it as pairs (pivot value
    -1) when the rank grew and be empty otherwise."""
    mine, theirs = _ids(rr.ctx, row), dict(row)
    grew = rr.add_row(mine)
    assert grew == ref.add_row(theirs)
    assert mine == _negated(theirs)
    if grew:
        c = min(mine)
        assert mine[c] == kneg(rr.ctx.one.nums, rr.ctx.one.den)
        assert mine == _pivot_pairs(rr)[c]
    else:
        assert mine == {}


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
    id_rows = [_ids(ctx, row) for row in rows]
    before = copy.deepcopy(id_rows)
    basis = nullspace(ctx, id_rows, range(ncols))
    assert id_rows == before
    assert [_pairs(ctx, vec) for vec in basis] == _ref_nullspace(ctx, rows, range(ncols))
    # every vector annihilates every row, in kernel arithmetic
    for vec in basis:
        for row in rows:
            assert not any(_dot(ctx, row, _pairs(ctx, vec))[0])
    # one vector per free column: columns - rank of them
    assert len(basis) == ncols - rank_of_vectors(ctx, id_rows)
    # each vector is 1 at its own free column and 0 at the others; rank and
    # pivot rows are the reference's
    rr, ref = SparseRref(ctx), _RefRref(ctx)
    for row in rows:
        _add_both(rr, ref, row)
    assert _pivot_pairs(rr) == _negated_pivots(ref)
    free = [c for c in range(ncols) if c not in rr.pivots]
    assert len(free) == len(basis)
    for f, vec in zip(free, basis):
        assert vec[f] == ONE
        assert not set(vec) & (set(free) - {f})


@given(peeled_systems())
@settings(max_examples=150, deadline=None)
def test_nullspace_strikes_singletons(system):
    """Striking singleton rows first gives the reference's basis, and the
    caller's rows are left as they were."""
    ctx, ncols, rows = system
    id_rows = [_ids(ctx, row) for row in rows]
    before = copy.deepcopy(id_rows)
    basis = nullspace(ctx, id_rows, range(ncols))
    assert id_rows == before
    assert [_pairs(ctx, vec) for vec in basis] == _ref_nullspace(ctx, rows, range(ncols))


def test_forced_columns_skip_elimination(monkeypatch):
    """A system whose strikes force every column never reaches SparseRref:
    {0} forces 0, which leaves {0, 1} and {0, 2} single, and the strikes
    that follow force 1 and 2 and empty {1, 2}."""
    ctx = CTX[3]
    q, two = ctx.qid(1), ctx.table.id_of((2,) + (0,) * (ctx.degree - 1), 1)
    rows = [{1: q, 2: two}, {0: two}, {0: q, 2: ONE}, {0: ONE, 1: q}]
    calls = []
    add_row = SparseRref.add_row
    monkeypatch.setattr(SparseRref, "add_row", lambda rr, row: calls.append(row) or add_row(rr, row))
    assert nullspace(ctx, rows, range(3)) == []
    assert nullspace(ctx, rows, range(4)) == [{3: ONE}]
    assert calls == []
    assert rank_of_vectors(ctx, rows) == 3 and len(calls) == 4


@given(systems(p=2), systems(p=3))
@settings(max_examples=60, deadline=None)
def test_interleaved_fields(sys2, sys3):
    """Accumulators over p = 2 and p = 3, fed in turn, each match the
    reference although every switch of field empties the other's memos."""
    accs = [(SparseRref(ctx), _RefRref(ctx), rows) for ctx, _, rows in (sys2, sys3)]
    for k in range(max(len(sys2[2]), len(sys3[2]))):
        for rr, ref, rows in accs:
            if k < len(rows):
                _add_both(rr, ref, rows[k])
        nullspace(CTX[2 + k % 2], [], range(1))
    for rr, ref, _ in accs:
        assert _pivot_pairs(rr) == _negated_pivots(ref)


@given(systems())
@settings(max_examples=60, deadline=None)
def test_zero_and_unreduced_entries(system):
    """An explicit zero id changes no rank or pivot, and neither does
    interning an entry with numerators and denominator both doubled."""
    ctx, ncols, rows = system
    zero = ((0,) * ctx.degree, 1)
    padded = [{**row, ncols: zero} for row in rows]
    doubled = [{k: (tuple(2 * a for a in n), 2 * d) for k, (n, d) in row.items()}
               for row in rows]
    plain = SparseRref(ctx)
    for row in rows:
        plain.add_row(_ids(ctx, row))
    for variant in (padded, doubled):
        rr = SparseRref(ctx)
        for row in variant:
            rr.add_row(_ids(ctx, row))
        assert rr.rank == plain.rank
        assert _pivot_pairs(rr) == _pivot_pairs(plain)
        # equal values share one id: only canonical pairs are interned
        assert all(knorm(*v) == v for v in rr.table.vals)


def test_full_memos_are_emptied(monkeypatch):
    """A memo at its cap is emptied before the next entry; the ids stay, so
    the answers do not change (dim End_U(X^5) at p = 3 is 45)."""
    from uqsl2 import _kernel
    from uqsl2.relation_engine import _commutant_dim

    # earlier work may have left every product this solve needs in the
    # memos, and hits never reach the cap
    table = CTX[3].table
    for memo in (table.add, table.mul, table.neg, table.inv):
        memo.clear()
    monkeypatch.setattr(_kernel, "MEMO_CAP", 4)
    assert _commutant_dim.__wrapped__(3, 5) == 45
    assert 0 < len(table.mul) <= 4 and 0 < len(table.add) <= 4


def test_residue_rank_counts_and_stops():
    # over F_7: row 2 is twice row 1, and rows 1, 3, 4 are independent
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 3, 2: 1}, {0: 1, 2: 5}]
    assert residue_rank([dict(r) for r in rows], 7) == 3
    read = []
    gen = (read.append(i) or dict(r) for i, r in enumerate(rows))
    assert residue_rank(gen, 7, stop=2) == 2
    assert read == [0, 1, 2]
    assert residue_rank([{}, {5: 3}], 7, stop=0) == 0


def _dense_rank_mod(rows, ncols, modulus):
    """Rank over F_modulus by dense Gauss-Jordan elimination."""
    m = [[r.get(c, 0) for c in range(ncols)] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, modulus)
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] * inv
                m[i] = [(a - f * b) % modulus for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@given(st.sampled_from([2, 3, 7]), st.data())
@settings(max_examples=100, deadline=None)
def test_residue_rank_matches_dense_rank(modulus, data):
    ncols = data.draw(st.integers(1, 5))
    row = st.dictionaries(st.integers(0, ncols - 1), st.integers(1, modulus - 1), max_size=ncols)
    rows = data.draw(st.lists(row, max_size=6))
    expect = _dense_rank_mod(rows, ncols, modulus)
    assert residue_rank([dict(r) for r in rows], modulus) == expect


@pytest.mark.parametrize("ring", ["field", "residues mod 7"])
def test_uncleared_pivot_raises(ring):
    # a pivot row scaled to +1 instead of -1: adding r[c] times it doubles
    # column c instead of clearing it, which must raise, not loop forever
    if ring == "field":
        r, piv, axpy, domain = {0: ONE, 1: ONE}, {0: ONE}, krow_axpy, CTX[3].table
    else:
        r, piv, axpy, domain = {0: 1, 1: 1}, {0: 1}, _residue_axpy, 7
    with pytest.raises(ArithmeticError, match="column 0 "):
        _reduce(r, {0: piv}, axpy, domain)
