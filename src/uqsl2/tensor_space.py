"""Tensor powers of the two-dimensional module X.

Basis states of X^(tensor z) are occupancy words: position j (1-based,
leftmost factor first) carries nu_1 when bit j of the mask is set.  The
weight-n space is spanned by the states with n occupied positions; the
K-eigenvalue there is q^(z-2n).  On top of the basis sit sparse column
operators (LinOp), the coproduct-lifted K/E/F operators, whose columns
are read from the one E/F rule (``e_terms``, ``f_terms``), and their
closed-form k-th powers.  A vector of X^(tensor z) is a LinOp from 0
strands (``vector``, ``unit``), so applying an operator is composing.

A scalar has one form, an int id of its field's ``uqsl2._kernel.Scalars``
table, and a CycloNum is a handle on one: a LinOp holds
{int in mask: {int out mask: int id}}.  The table is ``ctx.table`` of
the one ``FieldCtx(p)``, so equal values have equal ids and equality of
operators is identity of the context and equality of id dicts.  Sums,
negations, products, composition and the index maps are memoised id
lookups; sums, composition and ``tensor`` raise ValueError on operands
of two fields, whose ids would be read in the wrong table.
CycloNum handles and BasisIndex appear only at the boundary: the
constructors, ``vector``, ``scale``, ``column``, ``coeff`` and
``column_text`` read or make a handle's id.  ``LinOp.flat`` hands the
entries to ``uqsl2._elim`` as one id row, as they are held.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple

from uqsl2._kernel import ONE, krow_axpy
from uqsl2.cyclo_field import CycloNum, FieldCtx


class BasisIndex(NamedTuple):
    """Occupancy word: bit (j-1) of mask set means nu_1 at position j."""

    z: int
    mask: int

    @property
    def weight(self) -> int:
        return self.mask.bit_count()

    @property
    def occupancy(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.z + 1) if self.mask >> (j - 1) & 1)

    def word(self) -> str:
        return "".join(str(self.mask >> j & 1) for j in range(self.z))

    def __str__(self):
        return "v" + self.word()


def basis_index(z: int, occupancy: Iterable[int] = ()) -> BasisIndex:
    """BasisIndex from 1-based occupied positions."""
    mask = 0
    for j in occupancy:
        if not 1 <= j <= z:
            raise ValueError(f"position {j} is not among the {z} strands")
        mask |= 1 << (j - 1)
    return BasisIndex(z, mask)


def from_word(word: str) -> BasisIndex:
    if not set(word) <= {"0", "1"}:
        raise ValueError(f"a basis word is made of 0 and 1, got {word!r}")
    mask = 0
    for j, ch in enumerate(word):
        if ch == "1":
            mask |= 1 << j
    return BasisIndex(len(word), mask)


def all_indices(z: int) -> list[BasisIndex]:
    return [BasisIndex(z, m) for m in range(1 << z)]


def x_bottom(z: int) -> BasisIndex:
    """The lowest-weight-index state x_{0,z} (all nu_0)."""
    return BasisIndex(z, 0)


def x_top(z: int) -> BasisIndex:
    """The state x_{z,z} (all nu_1)."""
    return BasisIndex(z, (1 << z) - 1)


def _op(ctx: FieldCtx, z_in: int, z_out: int, columns: dict) -> "LinOp":
    """The LinOp of id columns already in form, made without __init__."""
    out = object.__new__(LinOp)
    out.ctx, out.z_in, out.z_out, out.columns = ctx, z_in, z_out, columns
    return out


def vector(ctx: FieldCtx, z: int, terms: dict) -> "LinOp":
    """The vector sum of c.b over ``terms`` {BasisIndex: CycloNum} of
    X^(tensor z), as a map from 0 strands; zero coefficients are dropped."""
    col = {}
    for b, c in terms.items():
        if c:
            if b.z != z:
                raise ValueError(f"basis index {b} is not on {z} strands")
            col[b.mask] = c.id
    return _op(ctx, 0, z, {0: col} if col else {})


def unit(ctx: FieldCtx, b: BasisIndex) -> "LinOp":
    """The basis vector b, as a map from 0 strands."""
    return _op(ctx, 0, b.z, {0: {b.mask: ONE}})


def _times(table, col: dict, a: int) -> dict:
    """The id column ``col`` times the nonzero scalar id ``a``; ``col``
    itself when ``a`` is one, since columns are never mutated."""
    if a == ONE:
        return col
    muls = table.mul
    return {t: muls.get((x, a)) or table.product(x, a) for t, x in col.items()}


def linear_text(terms) -> str:
    """A sum of (coefficient text, symbol) terms as text, "0" when empty:
    unit coefficients are dropped and sums are parenthesised."""
    out = ""
    for cs, sym in terms:
        if cs not in ("1", "-1"):
            sym = f"({cs})*{sym}" if " + " in cs or " - " in cs else f"{cs}*{sym}"
        t = sym if cs != "-1" else "-" + sym
        out += (" - " + t[1:] if t.startswith("-") else " + " + t) if out else t
    return out or "0"


def column_text(op: "LinOp", mask: int) -> str:
    """Column ``mask`` of ``op`` as a sum over its out basis, "0" when zero."""
    col = op.columns.get(mask, {})
    basis = sorted((BasisIndex(op.z_out, m) for m in col), key=BasisIndex.word)
    return linear_text((str(op.ctx.wrap(col[b.mask])), str(b)) for b in basis)


def _same_field(a, b) -> None:
    """Raise ValueError unless a and b hold ids of the same field's table."""
    if a.ctx is not b.ctx:
        raise ValueError(f"operands over different fields: {a.ctx} and {b.ctx}")


class LinOp:
    """Column-sparse linear map X^(tensor z_in) -> X^(tensor z_out).

    ``columns`` maps an in mask to its column {out mask: scalar id}; no
    column and no entry is zero.  A vector of X^(tensor z) is a map from 0
    strands, its one column at mask 0.  Operators share column dicts: a
    sum keeps the other operand's columns, ``cup_inputs`` stores one
    column under two masks, and the generators and rotation orbits are
    cached for the whole process.  So a column is never mutated after
    its operator is built, and every in-place sum works on a copy.
    """

    __slots__ = ("ctx", "z_in", "z_out", "columns")

    def __init__(self, ctx: FieldCtx, z_in: int, z_out: int, columns=None):
        """``columns`` maps BasisIndex to a vector on z_out strands; zero columns are dropped."""
        self.ctx = ctx
        self.z_in = z_in
        self.z_out = z_out
        self.columns: dict[int, dict[int, int]] = {}
        if columns:
            for b, v in columns.items():
                if v:
                    if b.z != z_in or v.z_in or v.z_out != z_out:
                        raise ValueError(f"column {b} is not a map from {z_in} to {z_out} strands")
                    self.columns[b.mask] = v.columns[0]

    @classmethod
    def identity(cls, ctx: FieldCtx, z: int) -> "LinOp":
        return _op(ctx, z, z, {m: {m: ONE} for m in range(1 << z)})

    @classmethod
    def zero(cls, ctx: FieldCtx, z_in: int, z_out: int) -> "LinOp":
        return cls(ctx, z_in, z_out)

    @classmethod
    def from_applier(cls, ctx: FieldCtx, z_in: int, z_out: int, fn) -> "LinOp":
        return cls(ctx, z_in, z_out, {b: fn(b) for b in all_indices(z_in)})

    def column(self, b: BasisIndex) -> "LinOp":
        """The image of basis state b, as a vector."""
        col = self.columns.get(b.mask)
        return _op(self.ctx, 0, self.z_out, {0: col} if col else {})

    def coeff(self, b: BasisIndex) -> CycloNum:
        """The coefficient of basis state b in this vector."""
        if self.z_in:
            raise ValueError(f"{self!r} is no vector")
        return self.ctx.wrap(self.columns.get(0, {}).get(b.mask, 0))

    def __mul__(self, other):
        """Composition self . other (apply other first)."""
        if isinstance(other, LinOp):
            _same_field(self, other)
            if other.z_out != self.z_in:
                raise ValueError(f"cannot compose {self!r} after {other!r}")
            table, mine, cols = self.ctx.table, self.columns, {}
            for b, col in other.columns.items():
                acc: dict[int, int] = {}
                for t, c in col.items():
                    src = mine.get(t)
                    if src is not None:
                        krow_axpy(acc, src, c, table)
                if acc:
                    cols[b] = acc
            return _op(self.ctx, other.z_in, self.z_out, cols)
        return self.scale(other)

    def scale(self, c) -> "LinOp":
        a, table = self.ctx.scalar(c).id, self.ctx.table
        return _op(self.ctx, self.z_in, self.z_out,
                   {b: _times(table, col, a) for b, col in self.columns.items()} if a else {})

    def __rmul__(self, c):
        return self.scale(c)

    def __add__(self, other: "LinOp") -> "LinOp":
        _same_field(self, other)
        if (self.z_in, self.z_out) != (other.z_in, other.z_out):
            raise ValueError(f"cannot add {self!r} and {other!r}")
        table, cols = self.ctx.table, dict(self.columns)
        for b, col in other.columns.items():
            s = cols.get(b)
            if s is None:
                cols[b] = col
                continue
            s = dict(s)
            krow_axpy(s, col, ONE, table)
            if s:
                cols[b] = s
            else:
                del cols[b]
        return _op(self.ctx, self.z_in, self.z_out, cols)

    def __neg__(self) -> "LinOp":
        table = self.ctx.table
        negs = table.neg
        return _op(self.ctx, self.z_in, self.z_out, {
            b: {t: negs.get(x) or table.negation(x) for t, x in col.items()}
            for b, col in self.columns.items()})

    def __sub__(self, other: "LinOp") -> "LinOp":
        return self + (-other)

    def __pow__(self, n: int) -> "LinOp":
        if n < 0 or self.z_in != self.z_out:
            raise ValueError(f"{self!r} has no power {n}")
        out = LinOp.identity(self.ctx, self.z_in)
        for _ in range(n):
            out = self * out
        return out

    def tensor(self, other: "LinOp") -> "LinOp":
        """Kronecker product: self on the left strands, other on the right."""
        _same_field(self, other)
        table, shift_in, shift_out = self.ctx.table, self.z_in, self.z_out
        muls = table.mul
        cols = {}
        for b1, c1 in self.columns.items():
            for b2, c2 in other.columns.items():
                cols[b1 | b2 << shift_in] = {
                    t1 | t2 << shift_out: muls.get((x, y)) or table.product(x, y)
                    for t1, x in c1.items() for t2, y in c2.items()}
        return _op(self.ctx, self.z_in + other.z_in, self.z_out + other.z_out, cols)

    def flat(self) -> dict:
        """All entries as one id row keyed by (in mask << z_out) | out mask."""
        shift = self.z_out
        return {
            b << shift | b2: c
            for b, col in self.columns.items()
            for b2, c in col.items()
        }

    def __bool__(self):
        return bool(self.columns)

    def __eq__(self, other):
        if not isinstance(other, LinOp):
            return NotImplemented
        return (
            self.z_in == other.z_in
            and self.z_out == other.z_out
            and self.ctx is other.ctx
            and self.columns == other.columns
        )

    def __repr__(self):
        return f"LinOp({self.z_in}->{self.z_out}, {len(self.columns)} columns)"


def widen(op: LinOp, left: int, right: int) -> LinOp:
    """I^left x op x I^right by relabelling masks; coefficients are copied."""
    zi, zo, w = op.z_in, op.z_out, left + right
    cols = {}
    for a in range(1 << left):
        for b, col in op.columns.items():
            terms = [(a | t << left, c) for t, c in col.items()]
            for r in range(1 << right):
                ro = r << (left + zo)
                cols[a | b << left | r << (left + zi)] = {t | ro: c for t, c in terms}
    return _op(op.ctx, zi + w, zo + w, cols)


# --- the lifted E/F rule ------------------------------------------------------

def e_terms(z: int, mask: int):
    """Lifted E on one occupancy word: for each occupied position j,
    (mask with j cleared, q exponent (z-j) - 2*#occupied right of j)."""
    for j in range(1, z + 1):
        bit = 1 << (j - 1)
        if mask & bit:
            yield mask & ~bit, (z - j) - 2 * (mask >> j).bit_count()


def f_terms(z: int, mask: int):
    """Lifted F on one occupancy word: for each empty position j,
    (mask with j set, q exponent 2*#occupied left of j - (j-1))."""
    for j in range(1, z + 1):
        bit = 1 << (j - 1)
        if not mask & bit:
            yield mask | bit, 2 * (mask & (bit - 1)).bit_count() - (j - 1)


# --- materialized operators -------------------------------------------------

def _lifted(ctx: FieldCtx, z: int, rule) -> LinOp:
    """The operator whose column m is sum q^e t over ``rule(z, m)``."""
    qid, cols = ctx.qid, {}
    for m in range(1 << z):
        terms = {t: qid(e) for t, e in rule(z, m)}
        if terms:
            cols[m] = terms
    return _op(ctx, z, z, cols)


def op_K(ctx: FieldCtx, z: int) -> LinOp:
    return op_K_power(ctx, z, 1)


def op_E(ctx: FieldCtx, z: int) -> LinOp:
    """Coproduct-lifted E: clear one occupied position per term."""
    return _lifted(ctx, z, e_terms)


def op_F(ctx: FieldCtx, z: int) -> LinOp:
    """Coproduct-lifted F: fill one empty position per term."""
    return _lifted(ctx, z, f_terms)


def op_K_power(ctx: FieldCtx, z: int, e: int) -> LinOp:
    """Diagonal K^e (e may be negative)."""
    return _op(ctx, z, z, {m: {m: ctx.qid(e * (z - 2 * m.bit_count()))} for m in range(1 << z)})


def e_power(ctx: FieldCtx, k: int, z: int) -> LinOp:
    """Closed form of E^k on X^(tensor z).

    E^k rho_S = [k]! sum over k-subsets U of S of
    q^(kz - sum(U) - 2*sum_u |S cap (u,z]| + k(k-1)/2) rho_(S minus U).
    """
    if k < 0:
        raise ValueError(f"E^k needs k >= 0, got {k}")
    fact, table = ctx.qfact(k).id, ctx.table
    base = k * z + k * (k - 1) // 2
    cols = {}
    for b in all_indices(z):
        if not fact:
            break
        occ = b.occupancy
        if len(occ) < k:
            continue
        terms = {}
        for U in combinations(occ, k):
            e = base - sum(U) - 2 * sum((b.mask >> u).bit_count() for u in U)
            rm = 0
            for u in U:
                rm |= 1 << (u - 1)
            terms[b.mask & ~rm] = ctx.qid(e)
        cols[b.mask] = _times(table, terms, fact)
    return _op(ctx, z, z, cols)


def f_power(ctx: FieldCtx, k: int, z: int) -> LinOp:
    """Closed form of F^k on X^(tensor z).

    F^k rho_S = [k]! sum over k-subsets V of the complement of S of
    q^(2*sum_v |S cap [1,v)| - sum(V) + k + k(k-1)/2) rho_(S union V).
    """
    if k < 0:
        raise ValueError(f"F^k needs k >= 0, got {k}")
    fact, table = ctx.qfact(k).id, ctx.table
    base = k + k * (k - 1) // 2
    cols = {}
    for b in all_indices(z):
        if not fact:
            break
        free = [j for j in range(1, z + 1) if not b.mask >> (j - 1) & 1]
        if len(free) < k:
            continue
        terms = {}
        for V in combinations(free, k):
            e = base - sum(V) + 2 * sum(
                (b.mask & ((1 << (v - 1)) - 1)).bit_count() for v in V
            )
            add = 0
            for v in V:
                add |= 1 << (v - 1)
            terms[b.mask | add] = ctx.qid(e)
        cols[b.mask] = _times(table, terms, fact)
    return _op(ctx, z, z, cols)

