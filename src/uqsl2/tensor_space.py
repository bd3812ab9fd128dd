"""Tensor powers of the two-dimensional module X.

Basis states of X^(tensor z) are occupancy words: position j (1-based,
leftmost factor first) carries nu_1 when bit j of the mask is set.  The
weight-n space is spanned by the states with n occupied positions; the
K-eigenvalue there is q^(z-2n).  On top of the basis sit sparse vectors
(TensorVector), sparse column operators (LinOp), the coproduct-lifted
K/E/F operators, whose columns are read from the one E/F rule
(``e_terms``, ``f_terms``), and their closed-form k-th powers.

A scalar has one form, an int id of its field's ``uqsl2._kernel.Scalars``
table, and a CycloNum is a handle on one: a TensorVector holds
{int mask: int id} and a LinOp {int mask: TensorVector}.  The table is
``ctx.table`` of the one ``FieldCtx(p)``, so equal values have equal ids
and equality of vectors and operators is identity of the context and
equality of id dicts.  Sums, negations, products, composition and the
index maps are memoised id lookups; sums, composition, ``apply`` and
``tensor`` raise ValueError on operands of two fields, whose ids would
be read in the wrong table.
CycloNum handles and BasisIndex appear only at the boundary: the
constructors, ``unit``, ``scale``, ``column``, ``coeff`` and ``str``
read or make a handle's id.  ``LinOp.flat`` hands the entries to
``uqsl2._elim`` as one id row, as they are held.
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


# _vec and _op wrap terms and columns already in id form, without __init__.
_new = object.__new__


def _vec(ctx: FieldCtx, z: int, terms: dict) -> "TensorVector":
    v = _new(TensorVector)
    v.ctx, v.z, v.terms = ctx, z, terms
    return v


def _op(ctx: FieldCtx, z_in: int, z_out: int, columns: dict) -> "LinOp":
    out = _new(LinOp)
    out.ctx, out.z_in, out.z_out, out.columns = ctx, z_in, z_out, columns
    return out


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


def _same_field(a, b) -> None:
    """Raise ValueError unless a and b hold ids of the same field's table."""
    if a.ctx is not b.ctx:
        raise ValueError(f"operands over different fields: {a.ctx} and {b.ctx}")


class TensorVector:
    """Sparse element of X^(tensor z): occupancy mask -> scalar id."""

    __slots__ = ("ctx", "z", "terms")

    def __init__(self, ctx: FieldCtx, z: int, terms: dict | None = None):
        """``terms`` maps BasisIndex to CycloNum; zero coefficients are dropped."""
        self.ctx = ctx
        self.z = z
        self.terms: dict[int, int] = {}
        if terms:
            for b, c in terms.items():
                if c:
                    if b.z != z:
                        raise ValueError(f"basis index {b} is not on {z} strands")
                    self.terms[b.mask] = c.id

    @classmethod
    def unit(cls, ctx: FieldCtx, b: BasisIndex) -> "TensorVector":
        return _vec(ctx, b.z, {b.mask: ONE})

    def __add__(self, other: "TensorVector") -> "TensorVector":
        _same_field(self, other)
        if self.z != other.z:
            raise ValueError(f"cannot add vectors on {self.z} and {other.z} strands")
        out = dict(self.terms)
        krow_axpy(out, other.terms, ONE, self.ctx.table)
        return _vec(self.ctx, self.z, out)

    def __neg__(self) -> "TensorVector":
        table = self.ctx.table
        negs = table.neg
        return _vec(self.ctx, self.z, {
            b: negs.get(x) or table.negation(x) for b, x in self.terms.items()})

    def __sub__(self, other: "TensorVector") -> "TensorVector":
        return self + (-other)

    def scale(self, c) -> "TensorVector":
        return self._times(self.ctx.scalar(c).id)

    def _times(self, a: int) -> "TensorVector":
        """This vector times the scalar id ``a``."""
        if a == ONE or not a:
            return _vec(self.ctx, self.z, dict(self.terms) if a else {})
        table = self.ctx.table
        muls = table.mul
        return _vec(self.ctx, self.z, {
            b: muls.get((x, a)) or table.product(x, a) for b, x in self.terms.items()})

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def tensor(self, other: "TensorVector") -> "TensorVector":
        _same_field(self, other)
        table, shift = self.ctx.table, self.z
        muls = table.mul
        out = {}
        for b1, x in self.terms.items():
            for b2, y in other.terms.items():
                out[b1 | b2 << shift] = muls.get((x, y)) or table.product(x, y)
        return _vec(self.ctx, self.z + other.z, out)

    def coeff(self, b: BasisIndex) -> CycloNum:
        return self.ctx.wrap(self.terms.get(b.mask, 0))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, TensorVector):
            return NotImplemented
        return self.z == other.z and self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.z, frozenset(self.terms.items())))

    def __str__(self):
        basis = sorted((BasisIndex(self.z, m) for m in self.terms), key=BasisIndex.word)
        return linear_text((str(self.ctx.wrap(self.terms[b.mask])), str(b)) for b in basis)

    __repr__ = __str__


class LinOp:
    """Column-sparse linear map X^(tensor z_in) -> X^(tensor z_out)."""

    __slots__ = ("ctx", "z_in", "z_out", "columns")

    def __init__(self, ctx: FieldCtx, z_in: int, z_out: int, columns=None):
        """``columns`` maps BasisIndex to TensorVector; zero columns are dropped."""
        self.ctx = ctx
        self.z_in = z_in
        self.z_out = z_out
        self.columns: dict[int, TensorVector] = {}
        if columns:
            for b, v in columns.items():
                if v:
                    if b.z != z_in or v.z != z_out:
                        raise ValueError(f"column {b} is not a map from {z_in} to {z_out} strands")
                    self.columns[b.mask] = v

    @classmethod
    def identity(cls, ctx: FieldCtx, z: int) -> "LinOp":
        return _op(ctx, z, z, {m: _vec(ctx, z, {m: ONE}) for m in range(1 << z)})

    @classmethod
    def zero(cls, ctx: FieldCtx, z_in: int, z_out: int) -> "LinOp":
        return cls(ctx, z_in, z_out)

    @classmethod
    def from_applier(cls, ctx: FieldCtx, z_in: int, z_out: int, fn) -> "LinOp":
        return cls(ctx, z_in, z_out, {b: fn(b) for b in all_indices(z_in)})

    def column(self, b: BasisIndex) -> TensorVector:
        col = self.columns.get(b.mask)
        return col if col is not None else TensorVector(self.ctx, self.z_out)

    def _apply(self, terms: dict, table) -> dict:
        """Id terms of this operator applied to the id terms ``terms``."""
        cols = self.columns
        acc: dict[int, int] = {}
        for b, c in terms.items():
            col = cols.get(b)
            if col is not None:
                krow_axpy(acc, col.terms, c, table)
        return acc

    def apply(self, vec: TensorVector) -> TensorVector:
        _same_field(self, vec)
        if vec.z != self.z_in:
            raise ValueError(f"cannot apply {self!r} to a vector on {vec.z} strands")
        return _vec(self.ctx, self.z_out, self._apply(vec.terms, self.ctx.table))

    def __mul__(self, other):
        """Composition self . other (apply other first)."""
        if isinstance(other, LinOp):
            _same_field(self, other)
            if other.z_out != self.z_in:
                raise ValueError(f"cannot compose {self!r} after {other!r}")
            table, ctx, z = self.ctx.table, self.ctx, self.z_out
            cols = {}
            for b, col in other.columns.items():
                acc = self._apply(col.terms, table)
                if acc:
                    cols[b] = _vec(ctx, z, acc)
            return _op(ctx, other.z_in, z, cols)
        return self.scale(other)

    def scale(self, c) -> "LinOp":
        a = self.ctx.scalar(c).id
        return _op(self.ctx, self.z_in, self.z_out,
                   {b: col._times(a) for b, col in self.columns.items()} if a else {})

    def __rmul__(self, c):
        return self.scale(c)

    def __add__(self, other: "LinOp") -> "LinOp":
        _same_field(self, other)
        if (self.z_in, self.z_out) != (other.z_in, other.z_out):
            raise ValueError(f"cannot add {self!r} and {other!r}")
        cols = dict(self.columns)
        for b, col in other.columns.items():
            s = cols.get(b)
            v = col if s is None else s + col
            if v:
                cols[b] = v
            else:
                del cols[b]
        return _op(self.ctx, self.z_in, self.z_out, cols)

    def __neg__(self) -> "LinOp":
        return _op(self.ctx, self.z_in, self.z_out, {b: -col for b, col in self.columns.items()})

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
        shift = self.z_in
        cols = {}
        for b1, c1 in self.columns.items():
            for b2, c2 in other.columns.items():
                cols[b1 | b2 << shift] = c1.tensor(c2)
        return _op(self.ctx, self.z_in + other.z_in, self.z_out + other.z_out, cols)

    def flat(self) -> dict:
        """All entries as one id row keyed by (in mask << z_out) | out mask."""
        shift = self.z_out
        return {
            b << shift | b2: c
            for b, col in self.columns.items()
            for b2, c in col.terms.items()
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
            terms = [(a | t << left, c) for t, c in col.terms.items()]
            for r in range(1 << right):
                ro = r << (left + zo)
                cols[a | b << left | r << (left + zi)] = _vec(
                    op.ctx, zo + w, {t | ro: c for t, c in terms})
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
            cols[m] = _vec(ctx, z, terms)
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
    return LinOp.from_applier(
        ctx,
        z,
        z,
        lambda b: TensorVector(
            ctx, z, {b: ctx.q_power(e * (z - 2 * b.weight))}
        ),
    )


def e_power(ctx: FieldCtx, k: int, z: int) -> LinOp:
    """Closed form of E^k on X^(tensor z).

    E^k rho_S = [k]! sum over k-subsets U of S of
    q^(kz - sum(U) - 2*sum_u |S cap (u,z]| + k(k-1)/2) rho_(S minus U).
    """
    if k < 0:
        raise ValueError(f"E^k needs k >= 0, got {k}")
    fact = ctx.qfact(k).id
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
        cols[b] = _vec(ctx, z, terms)._times(fact)
    return LinOp(ctx, z, z, cols)


def f_power(ctx: FieldCtx, k: int, z: int) -> LinOp:
    """Closed form of F^k on X^(tensor z).

    F^k rho_S = [k]! sum over k-subsets V of the complement of S of
    q^(2*sum_v |S cap [1,v)| - sum(V) + k + k(k-1)/2) rho_(S union V).
    """
    if k < 0:
        raise ValueError(f"F^k needs k >= 0, got {k}")
    fact = ctx.qfact(k).id
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
        cols[b] = _vec(ctx, z, terms)._times(fact)
    return LinOp(ctx, z, z, cols)

