"""Sparse exact linear algebra over Q(q): row reduction and nullspaces.

Rows and returned vectors map column keys (any comparable, hashable
values) to nonzero int ids of the field's ``uqsl2._kernel.Scalars``
table; callers build id rows and wrap ids into CycloNum at their own
boundary.  The elimination runs on those ids with the table's memoised
arithmetic; every id stands for the exact value the kernel computes, so
ranks and nullspaces are exact.  The one CycloNum in this module is the
field inverse behind each new pivot value.  There is no pivoting
heuristic beyond smallest column key, which keeps results deterministic.

``residue_rank`` runs the same reduction loop over a prime field F_l, on
rows of int residues: only the multiply-subtract and the pivot inverse
differ.  It can stop once the rank reaches a given value, which is how a
caller certifies a nullity against a lower bound it holds.
"""

from __future__ import annotations

from uqsl2._kernel import ONE, krow_axpy, scalars
from uqsl2.cyclo_field import CycloNum, FieldCtx


class SparseRref:
    """Incremental row-echelon accumulator.

    Pivot rows are id rows normalized to pivot value 1, so eliminating a
    column from an incoming row is a single fused multiply-subtract pass.
    """

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.table = scalars(ctx.red)
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
        a = r[c]
        inv = table.inv.get(a)
        if inv is None:
            x = CycloNum(self.ctx, *table.vals[a]).inv()
            inv = table.inv[a] = table.intern(x.nums, x.den)
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


def nullspace(ctx: FieldCtx, rows, columns) -> list[dict]:
    """Exact nullspace basis of {row . x = 0 for every row}.

    ``columns`` fixes the order of the free variables, so the basis is
    deterministic: one vector per free column, with that coordinate 1.
    Rows and returned vectors are id rows; the rows are not modified.
    """
    rr = _rref(ctx, rows)
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
        if f in pivs:
            continue
        vec = {f: ONE}
        for pc, row in pivs.items():
            e = row.get(f)
            if e is not None:
                vec[pc] = negs.get(e) or table.negation(e)
        basis.append(vec)
    return basis
