"""Sparse exact linear algebra over Q(q): row reduction and nullspaces.

Rows and returned vectors map column keys (any comparable, hashable
values) to nonzero int ids of the field's ``uqsl2._kernel.Scalars``
table; callers build id rows and wrap ids into CycloNum handles at their
own boundary.  The elimination runs on those ids with the table's
memoised arithmetic; every id stands for the exact value the kernel
computes, so ranks and nullspaces are exact.  Each new pivot value is
inverted by ``CycloNum.inv``, the field's one inverse, memoised in the
table.  There is no pivoting heuristic beyond smallest column key, which
keeps results deterministic.

``nullspace`` first strikes singleton rows, the first step of structured
Gaussian elimination (LaMacchia and Odlyzko, CRYPTO '90): a row with one nonzero entry forces its column to
0, so that column is deleted from every row, and the rule repeats until
no row has a single entry.  Only the rows left go through ``SparseRref``.

``residue_rank`` runs the same reduction loop over a prime field F_l, on
rows of int residues: only the multiply-subtract and the pivot inverse
differ.  It can stop once the rank reaches a given value, which is how a
caller certifies a nullity against a lower bound it holds.
"""

from __future__ import annotations

from uqsl2._kernel import ONE, krow_axpy
from uqsl2.cyclo_field import FieldCtx


class SparseRref:
    """Incremental row-echelon accumulator.

    Pivot rows are id rows normalized to pivot value 1, so eliminating a
    column from an incoming row is a single fused multiply-subtract pass.
    """

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.table = ctx.table
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: dict) -> bool:
        """Reduce the id row ``row`` against the accumulated pivots.

        Zero ids are dropped.  Absorbs the remainder as a new pivot row
        when it is nonzero and leaves that pivot row in ``row`` as kernel
        pairs (nums, den), pivot value 1: ``perfbench/layer_trace.py``
        reads its coefficient sizes there.  Otherwise leaves ``row``
        empty.  Returns True iff the rank grew.
        """
        table = self.table
        r = {k: i for k, i in row.items() if i}
        row.clear()
        c = _reduce(r, self.pivots, krow_axpy, table)
        if c is None:
            return False
        inv = self.ctx.wrap(r[c]).inv().id
        mul, vals = table.mul, table.vals
        for k, v in r.items():
            w = r[k] = mul.get((v, inv)) or table.product(v, inv)
            row[k] = vals[w]
        self.pivots[c] = r
        return True


def _reduce(r, pivots, axpy, domain):
    """Eliminate pivot columns from ``r`` in place, smallest key first.

    Pivot rows have pivot value 1, so ``axpy(r, piv, r[c], domain)``
    clears column c.  Returns the first column of ``r`` without a pivot,
    or None when ``r`` reduces to zero.
    """
    while r:
        c = min(r)
        piv = pivots.get(c)
        if piv is None:
            return c
        axpy(r, piv, r[c], domain)
    return None


def _residue_axpy(dst, src, a, modulus):
    """In-place ``dst[col] -= a*src[col]`` modulo a prime; zeros are removed."""
    for col, s in src.items():
        x = (dst.get(col, 0) - a * s) % modulus
        if x:
            dst[col] = x
        else:
            del dst[col]  # a*s is nonzero mod a prime, so col was in dst


def residue_rank(rows, modulus: int, stop: int | None = None) -> int:
    """Rank over F_modulus of rows {column key: nonzero residue}.

    ``modulus`` must be prime.  Rows are reduced in the order given and
    consumed; once the rank equals ``stop`` no further row is read.
    """
    pivots: dict = {}
    rows = iter(rows)
    while len(pivots) != stop and (r := next(rows, None)) is not None:
        c = _reduce(r, pivots, _residue_axpy, modulus)
        if c is not None:
            inv = pow(r[c], -1, modulus)
            pivots[c] = {k: v * inv % modulus for k, v in r.items()}
    return len(pivots)


def _rref(ctx: FieldCtx, rows) -> SparseRref:
    rr = SparseRref(ctx)
    for row in rows:
        rr.add_row(dict(row))
    return rr


def rank_of_vectors(ctx: FieldCtx, vectors) -> int:
    """Rank of a family of id rows; the rows are not modified."""
    return _rref(ctx, vectors).rank


def _strike_singletons(rows: list) -> set:
    """Strike single-entry rows in place; returns the columns they force to 0.

    Each forced column is deleted from every row, so a row left with one
    entry strikes in turn; the rows left hold none or two or more entries.
    """
    stack = [r for r in rows if len(r) == 1]
    forced: set = set()
    if not stack:
        return forced
    where: dict = {}
    for r in rows:
        for k in r:
            where.setdefault(k, []).append(r)
    while stack:
        r = stack.pop()
        if len(r) != 1:  # emptied after it was stacked
            continue
        (c,) = r
        forced.add(c)
        for s in where[c]:  # r among them; each still holds c
            del s[c]
            if len(s) == 1:
                stack.append(s)
    return forced


def nullspace(ctx: FieldCtx, rows, columns) -> list[dict]:
    """Exact nullspace basis of {row . x = 0 for every row}.

    ``columns`` fixes the order of the free variables, so the basis is
    deterministic: one vector per free column, with that coordinate 1.
    Rows and returned vectors are id rows; the rows are not modified.

    Singleton rows are struck first and only the rows left are reduced.
    The basis is the one full elimination gives: the forced columns and
    the leading columns of the rows left are the leading columns of the
    full row space, and the reduced basis is unique once the column order
    is fixed.
    """
    live = []  # copies without zero ids, so a singleton has one nonzero entry
    for row in rows:
        r = dict(row)
        if 0 in r.values():
            r = {k: i for k, i in r.items() if i}
        if r:
            live.append(r)
    forced = _strike_singletons(live)
    rr = SparseRref(ctx)
    for r in live:
        if r:
            rr.add_row(r)
    table = rr.table
    pivs = rr.pivots
    for pc in sorted(pivs, reverse=True):
        row = pivs[pc]
        for c in sorted(k for k in row if k != pc and k in pivs):
            e = row.get(c)
            if e is not None:
                krow_axpy(row, pivs[c], e, table)
    basis = []
    negs = table.neg
    for f in columns:
        if f in pivs or f in forced:
            continue
        vec = {f: ONE}
        for pc, row in pivs.items():
            e = row.get(f)
            if e is not None:
                vec[pc] = negs.get(e) or table.negation(e)
        basis.append(vec)
    return basis
