"""Tensor powers of the two-dimensional module X.

Basis states of X^(tensor z) are occupancy words: position j (1-based,
leftmost factor first) carries nu_1 when bit j of the mask is set.  The
weight-n space is spanned by the states with n occupied positions; the
K-eigenvalue there is q^(z-2n).  On top of the basis sit sparse vectors
(TensorVector), sparse column operators (LinOp), the coproduct-lifted
K/E/F actions, and their closed-form k-th powers.

There is one scalar representation below the API: a TensorVector holds
{int mask: (nums, den)} kernel pairs and a LinOp {int mask: TensorVector},
and all their arithmetic runs on ``uqsl2._kernel``.  CycloNum and
BasisIndex appear only at the boundary: the constructors, ``unit``,
``scale``, ``column``, ``coeff`` and ``str``.  ``LinOp.flat`` hands the
entries to ``uqsl2._elim`` as one kernel row, without conversion.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple

from uqsl2._kernel import kacc, kmul, kneg
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
        assert 1 <= j <= z
        mask |= 1 << (j - 1)
    return BasisIndex(z, mask)


def from_word(word: str) -> BasisIndex:
    assert set(word) <= {"0", "1"}
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


def _kq(ctx: FieldCtx, e: int) -> tuple:
    """Kernel pair of q^e."""
    c = ctx.q_power(e)
    return c.nums, c.den


def _vec(ctx: FieldCtx, z: int, terms: dict) -> "TensorVector":
    v = TensorVector(ctx, z)
    v.terms = terms
    return v


def _op(ctx: FieldCtx, z_in: int, z_out: int, columns: dict) -> "LinOp":
    out = LinOp(ctx, z_in, z_out)
    out.columns = columns
    return out


class TensorVector:
    """Sparse element of X^(tensor z): occupancy mask -> kernel pair."""

    __slots__ = ("ctx", "z", "terms")

    def __init__(self, ctx: FieldCtx, z: int, terms: dict | None = None):
        """``terms`` maps BasisIndex to CycloNum; zero coefficients are dropped."""
        self.ctx = ctx
        self.z = z
        self.terms: dict[int, tuple] = {}
        if terms:
            for b, c in terms.items():
                if c:
                    assert b.z == z
                    self.terms[b.mask] = (c.nums, c.den)

    @classmethod
    def unit(cls, ctx: FieldCtx, b: BasisIndex) -> "TensorVector":
        return cls(ctx, b.z, {b: ctx.one})

    def __add__(self, other: "TensorVector") -> "TensorVector":
        assert self.z == other.z
        out = dict(self.terms)
        for b, (cn, cd) in other.terms.items():
            kacc(out, b, cn, cd)
        return _vec(self.ctx, self.z, out)

    def __neg__(self) -> "TensorVector":
        return _vec(self.ctx, self.z, {b: kneg(*c) for b, c in self.terms.items()})

    def __sub__(self, other: "TensorVector") -> "TensorVector":
        return self + (-other)

    def scale(self, c) -> "TensorVector":
        if not isinstance(c, CycloNum):
            c = self.ctx.scalar(c)
        cn, cd, red = c.nums, c.den, self.ctx.red
        v = TensorVector(self.ctx, self.z)
        if c:
            v.terms = {b: kmul(xn, xd, cn, cd, red) for b, (xn, xd) in self.terms.items()}
        return v

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def tensor(self, other: "TensorVector") -> "TensorVector":
        red, shift = self.ctx.red, self.z
        out = {}
        for b1, (an, ad) in self.terms.items():
            for b2, (bn, bd) in other.terms.items():
                out[b1 | b2 << shift] = kmul(an, ad, bn, bd, red)
        return _vec(self.ctx, self.z + other.z, out)

    def coeff(self, b: BasisIndex) -> CycloNum:
        c = self.terms.get(b.mask)
        return self.ctx.zero if c is None else CycloNum(self.ctx, *c)

    def homogeneous_weight(self) -> int | None:
        """The common weight of all terms, or None if mixed or zero."""
        ws = {b.bit_count() for b in self.terms}
        return ws.pop() if len(ws) == 1 else None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, TensorVector):
            return NotImplemented
        return self.z == other.z and self.terms == other.terms

    def __hash__(self):
        return hash((self.z, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for b in sorted((BasisIndex(self.z, m) for m in self.terms), key=BasisIndex.word):
            cs = str(CycloNum(self.ctx, *self.terms[b.mask]))
            if cs == "1":
                parts.append(str(b))
            elif cs == "-1":
                parts.append("-" + str(b))
            else:
                if " + " in cs or " - " in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{b}")
        out = parts[0]
        for t in parts[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

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
                    assert b.z == z_in and v.z == z_out
                    self.columns[b.mask] = v

    @classmethod
    def identity(cls, ctx: FieldCtx, z: int) -> "LinOp":
        one = (ctx.one.nums, ctx.one.den)
        return _op(ctx, z, z, {m: _vec(ctx, z, {m: one}) for m in range(1 << z)})

    @classmethod
    def zero(cls, ctx: FieldCtx, z_in: int, z_out: int) -> "LinOp":
        return cls(ctx, z_in, z_out)

    @classmethod
    def from_applier(cls, ctx: FieldCtx, z_in: int, z_out: int, fn) -> "LinOp":
        return cls(ctx, z_in, z_out, {b: fn(b) for b in all_indices(z_in)})

    def column(self, b: BasisIndex) -> TensorVector:
        col = self.columns.get(b.mask)
        return col if col is not None else TensorVector(self.ctx, self.z_out)

    def apply(self, vec: TensorVector) -> TensorVector:
        assert vec.z == self.z_in
        red = self.ctx.red
        acc: dict[int, tuple] = {}
        for b, (cn, cd) in vec.terms.items():
            col = self.columns.get(b)
            if col is None:
                continue
            for b2, (xn, xd) in col.terms.items():
                kacc(acc, b2, *kmul(cn, cd, xn, xd, red))
        return _vec(self.ctx, self.z_out, acc)

    def __mul__(self, other):
        """Composition self . other (apply other first)."""
        if isinstance(other, LinOp):
            assert other.z_out == self.z_in
            cols = {}
            for b, col in other.columns.items():
                v = self.apply(col)
                if v:
                    cols[b] = v
            return _op(self.ctx, other.z_in, self.z_out, cols)
        return self.scale(other)

    def scale(self, c) -> "LinOp":
        if not isinstance(c, CycloNum):
            c = self.ctx.scalar(c)
        out = LinOp(self.ctx, self.z_in, self.z_out)
        if c:
            out.columns = {b: col.scale(c) for b, col in self.columns.items()}
        return out

    def __rmul__(self, c):
        return self.scale(c)

    def __add__(self, other: "LinOp") -> "LinOp":
        assert (self.z_in, self.z_out) == (other.z_in, other.z_out)
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
        assert n >= 0 and self.z_in == self.z_out
        out = LinOp.identity(self.ctx, self.z_in)
        for _ in range(n):
            out = self * out
        return out

    def tensor(self, other: "LinOp") -> "LinOp":
        """Kronecker product: self on the left strands, other on the right."""
        shift = self.z_in
        cols = {}
        for b1, c1 in self.columns.items():
            for b2, c2 in other.columns.items():
                cols[b1 | b2 << shift] = c1.tensor(c2)
        return _op(self.ctx, self.z_in + other.z_in, self.z_out + other.z_out, cols)

    def flat(self) -> dict:
        """All entries as one kernel row keyed by (in mask << z_out) | out mask."""
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
            and self.columns == other.columns
        )

    def __repr__(self):
        return f"LinOp({self.z_in}->{self.z_out}, {len(self.columns)} columns)"


# --- the lifted E/F rule and lazy single-operator appliers -------------------

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


def _lift(ctx: FieldCtx, vec: TensorVector, rule) -> TensorVector:
    red = ctx.red
    acc: dict[int, tuple] = {}
    for b, (cn, cd) in vec.terms.items():
        for nb, e in rule(vec.z, b):
            kacc(acc, nb, *kmul(cn, cd, *_kq(ctx, e), red))
    return _vec(ctx, vec.z, acc)


def apply_k(ctx: FieldCtx, vec: TensorVector) -> TensorVector:
    z, red = vec.z, ctx.red
    return _vec(ctx, z, {
        b: kmul(cn, cd, *_kq(ctx, z - 2 * b.bit_count()), red)
        for b, (cn, cd) in vec.terms.items()
    })


def apply_e(ctx: FieldCtx, vec: TensorVector) -> TensorVector:
    """Coproduct-lifted E: clear one occupied position per term."""
    return _lift(ctx, vec, e_terms)


def apply_f(ctx: FieldCtx, vec: TensorVector) -> TensorVector:
    """Coproduct-lifted F: fill one empty position per term."""
    return _lift(ctx, vec, f_terms)


# --- materialized operators -------------------------------------------------

def op_K(ctx: FieldCtx, z: int) -> LinOp:
    return LinOp.from_applier(
        ctx, z, z, lambda b: apply_k(ctx, TensorVector.unit(ctx, b))
    )


def op_E(ctx: FieldCtx, z: int) -> LinOp:
    return LinOp.from_applier(
        ctx, z, z, lambda b: apply_e(ctx, TensorVector.unit(ctx, b))
    )


def op_F(ctx: FieldCtx, z: int) -> LinOp:
    return LinOp.from_applier(
        ctx, z, z, lambda b: apply_f(ctx, TensorVector.unit(ctx, b))
    )


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
    assert k >= 0
    fact = ctx.qfact(k)
    base = k * z + k * (k - 1) // 2
    cols = {}
    for b in all_indices(z):
        if not fact:
            break
        occ = b.occupancy
        if len(occ) < k:
            continue
        col = TensorVector(ctx, z)
        for U in combinations(occ, k):
            e = base - sum(U) - 2 * sum((b.mask >> u).bit_count() for u in U)
            rm = 0
            for u in U:
                rm |= 1 << (u - 1)
            col.terms[b.mask & ~rm] = kmul(fact.nums, fact.den, *_kq(ctx, e), ctx.red)
        cols[b] = col
    return LinOp(ctx, z, z, cols)


def f_power(ctx: FieldCtx, k: int, z: int) -> LinOp:
    """Closed form of F^k on X^(tensor z).

    F^k rho_S = [k]! sum over k-subsets V of the complement of S of
    q^(2*sum_v |S cap [1,v)| - sum(V) + k + k(k-1)/2) rho_(S union V).
    """
    assert k >= 0
    fact = ctx.qfact(k)
    base = k + k * (k - 1) // 2
    cols = {}
    for b in all_indices(z):
        if not fact:
            break
        free = [j for j in range(1, z + 1) if not b.mask >> (j - 1) & 1]
        if len(free) < k:
            continue
        col = TensorVector(ctx, z)
        for V in combinations(free, k):
            e = base - sum(V) + 2 * sum(
                (b.mask & ((1 << (v - 1)) - 1)).bit_count() for v in V
            )
            add = 0
            for v in V:
                add |= 1 << (v - 1)
            col.terms[b.mask | add] = kmul(fact.nums, fact.den, *_kq(ctx, e), ctx.red)
        cols[b] = col
    return LinOp(ctx, z, z, cols)


# --- identity suites ---------------------------------------------------------

def coproduct_power_check(ctx: FieldCtx, k: int, split: tuple[int, int]) -> dict:
    """Check the k-th power coproduct expansions on X^(z1) tensor X^(z2).

    E^k = sum_i lambda_{i,k} E^i tensor K^i E^(k-i) and the mirrored
    F-version, compared as exact operators on the joint space.
    """
    z1, z2 = split
    z = z1 + z2
    lhs_e = e_power(ctx, k, z)
    lhs_f = f_power(ctx, k, z)
    rhs_e = LinOp.zero(ctx, z, z)
    rhs_f = LinOp.zero(ctx, z, z)
    for i in range(k + 1):
        lam = ctx.lambda_coeff(i, k)
        if not lam:
            continue
        left_e = e_power(ctx, i, z1)
        right_e = op_K_power(ctx, z2, i) * e_power(ctx, k - i, z2)
        rhs_e = rhs_e + left_e.tensor(right_e) * lam
        left_f = op_K_power(ctx, z1, -i) * f_power(ctx, k - i, z1)
        right_f = f_power(ctx, i, z2)
        rhs_f = rhs_f + left_f.tensor(right_f) * lam
    return {"E": lhs_e == rhs_e, "F": lhs_f == rhs_f}


def commutation_check(ctx: FieldCtx, k: int, z: int) -> dict:
    """The straightening identities for E against F^k and F against E^k.

    E F^k - F^k E = ([k]/(q-q^-1)) (q^(1-k) F^(k-1) K - q^(k-1) F^(k-1) K^-1)
    and the E/F-swapped, K-inverted mirror.
    """
    assert k >= 1
    c = ctx.qint(k) / (ctx.q - ctx.q_power(-1))
    E, F = op_E(ctx, z), op_F(ctx, z)
    Kp, Km = op_K_power(ctx, z, 1), op_K_power(ctx, z, -1)
    fk, fk1 = f_power(ctx, k, z), f_power(ctx, k - 1, z)
    ek, ek1 = e_power(ctx, k, z), e_power(ctx, k - 1, z)
    lhs_e = E * fk - fk * E
    rhs_e = (fk1 * Kp * ctx.q_power(1 - k) - fk1 * Km * ctx.q_power(k - 1)) * c
    lhs_f = F * ek - ek * F
    rhs_f = (ek1 * Km * ctx.q_power(1 - k) - ek1 * Kp * ctx.q_power(k - 1)) * c
    return {"EF^k": lhs_e == rhs_e, "FE^k": lhs_f == rhs_f}


def recursion_checks(ctx: FieldCtx, z: int) -> dict:
    """One-strand peel-off identities for E^k x_top and F^k x_bottom.

    All four expansions (peeling the last or the first strand) are checked
    for every 0 <= k <= z+1; returns a flag per identity.
    """
    assert z >= 1
    nu0 = TensorVector.unit(ctx, BasisIndex(1, 0))
    nu1 = TensorVector.unit(ctx, BasisIndex(1, 1))
    top_small = TensorVector.unit(ctx, x_top(z))
    bot_small = TensorVector.unit(ctx, x_bottom(z))
    top_big = TensorVector.unit(ctx, x_top(z + 1))
    bot_big = TensorVector.unit(ctx, x_bottom(z + 1))
    ok = {"E_last": True, "E_first": True, "F_last": True, "F_first": True}
    zero_small = TensorVector(ctx, z)
    for k in range(0, z + 2):
        ek_big = e_power(ctx, k, z + 1).apply(top_big)
        fk_big = f_power(ctx, k, z + 1).apply(bot_big)
        ek = e_power(ctx, k, z).apply(top_small)
        fk = f_power(ctx, k, z).apply(bot_small)
        ek1 = e_power(ctx, k - 1, z).apply(top_small) if k else zero_small
        fk1 = f_power(ctx, k - 1, z).apply(bot_small) if k else zero_small
        qk = ctx.qint(k)
        if ek_big != ek1.tensor(nu0) * qk + ek.tensor(nu1) * ctx.q_power(-k):
            ok["E_last"] = False
        if ek_big != nu0.tensor(ek1) * (qk * ctx.q_power(k - z - 1)) + nu1.tensor(ek):
            ok["E_first"] = False
        if fk_big != fk.tensor(nu0) + fk1.tensor(nu1) * (qk * ctx.q_power(k - z - 1)):
            ok["F_last"] = False
        if fk_big != nu0.tensor(fk) * ctx.q_power(-k) + nu1.tensor(fk1) * qk:
            ok["F_first"] = False
    return ok
