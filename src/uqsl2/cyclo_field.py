"""Exact arithmetic in Q(q) for q a primitive 2p-th root of unity.

Elements are polynomials in q reduced modulo the 2p-th cyclotomic
polynomial.  ``FieldCtx(p)`` is the one context of the field, and its
``uqsl2._kernel.Scalars`` table, ``ctx.table``, interns each element as
an int id of its canonical pair, integer numerators over a common
positive denominator; a CycloNum is a handle (ctx, id) whose
arithmetic is the table's; inverses come from the Galois norm.  On top
of the field sit the quantum-combinatorial scalars: quantum integers
[n], factorials [n]!, the coproduct coefficients lambda_{i,k} and the
weight sums xi(n,z).  A ratio of quantum integers is two tuples of
indices (``factorials`` lists those of [m_1]! [m_2]! ...), and
``FieldCtx.eval_ratio`` cancels its vanishing factors before evaluating.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from uqsl2._kernel import ONE, Scalars


class SingularRatio(ArithmeticError):
    """A quantum-factorial ratio with an uncancellable zero denominator."""


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _poly_div_exact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Exact division of integer polynomials, monic divisor."""
    assert den[-1] == 1
    rem = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = rem[k + dd]
        if c:
            quot[k] = c
            for j, y in enumerate(den):
                rem[k + j] -= c * y
    if any(rem):
        raise ArithmeticError("non-exact polynomial division")
    return tuple(quot)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError(f"cyclotomic polynomials need n >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    prod = (1,)
    for d in range(1, n):
        if n % d == 0:
            prod = _poly_mul(prod, cyclotomic_polynomial(d))
    x_n_minus_1 = (-1,) + (0,) * (n - 1) + (1,)
    return _poly_div_exact(x_n_minus_1, prod)


class CycloNum:
    """An element of Q(q): a handle on one id of its field's intern table.

    Immutable.  ``id`` is the value's id in ``ctx.table``, and every
    operation is that table's memoised arithmetic on ids; ``nums`` and
    ``den`` read the table's canonical pair.  Arithmetic mixes with int
    and Fraction, and raises ValueError on a CycloNum of another field.
    Equal values have equal ids; str() is the canonical rendering parsed
    back by :func:`parse_cyclo`.
    """

    __slots__ = ("ctx", "id")

    def __init__(self, ctx: "FieldCtx", nums: tuple[int, ...], den: int):
        """The value sum(nums[j] q^j) / den; the pair need not be canonical."""
        self.ctx = ctx
        self.id = ctx.table.id_of(tuple(nums), den)

    @property
    def nums(self) -> tuple[int, ...]:
        return self.ctx.table.vals[self.id][0]

    @property
    def den(self) -> int:
        return self.ctx.table.vals[self.id][1]

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.ctx is not self.ctx:
                raise ValueError(f"operands over different fields: {self.ctx} and {other.ctx}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = self.ctx.table
        r = t.add.get((self.id, o.id))
        return self.ctx.wrap(t.addition(self.id, o.id) if r is None else r)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + -self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = self.ctx.table
        r = t.mul.get((self.id, o.id))
        return self.ctx.wrap(t.product(self.id, o.id) if r is None else r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __neg__(self):
        t = self.ctx.table
        r = t.neg.get(self.id)
        return self.ctx.wrap(t.negation(self.id) if r is None else r)

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out, base = self.ctx.one, self
        while n:
            if n & 1:
                out = out * base
            base, n = base * base, n >> 1
        return out

    def inv(self) -> "CycloNum":
        """Multiplicative inverse, memoised in the table's ``inv``.

        For a != 0, a * P is the norm N(a), where P is the product of the
        conjugates sigma_k(a), q -> q^k for every unit k != 1 mod 2p; N(a)
        is rational, so 1/a = P / N(a) (Cohen, GTM 138, ch. 4).  Raises
        ArithmeticError if the norm is not a nonzero rational.
        """
        ctx, a = self.ctx, self.id
        t = ctx.table
        r = t.inv.get(a)
        if r is None:
            if not a:
                raise ZeroDivisionError("division by zero in Q(q)")
            nums, den = t.vals[a]
            qpow = [t.vals[i][0] for i in ctx.qids]
            m, rest = 2 * ctx.p, ONE
            for k in ctx.galois:  # sigma_k(a) sends each q^j of a to q^(jk)
                conj = [0] * ctx.degree
                for j, c in enumerate(nums):
                    if c:
                        for i, x in enumerate(qpow[j * k % m]):
                            conj[i] += c * x
                s = t.id_of(tuple(conj), den)
                rest = t.mul.get((rest, s)) or t.product(rest, s)
            (n0, *irrational), nd = t.vals[t.product(a, rest)]
            if any(irrational) or not n0:
                raise ArithmeticError(f"the Galois norm of {self} is not a nonzero rational")
            scale = t.id_of((nd,) + (0,) * (ctx.degree - 1), n0)
            r = t.inv[a] = t.product(rest, scale)
        return ctx.wrap(r)

    def __bool__(self):
        return self.id != 0

    def __eq__(self, other):
        if isinstance(other, CycloNum):
            return self.ctx is other.ctx and self.id == other.id
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.id == o.id

    def __hash__(self):
        return hash(self.id)

    def __str__(self):
        nums, den = self.ctx.table.vals[self.id]
        terms = []
        for e in range(self.ctx.degree - 1, -1, -1):
            c = Fraction(nums[e], den)
            if not c:
                continue
            if e == 0:
                terms.append(_rat_str(c))
                continue
            qs = "q" if e == 1 else f"q^{e}"
            if c == 1:
                terms.append(qs)
            elif c == -1:
                terms.append("-" + qs)
            else:
                terms.append(f"{_rat_str(c)}*{qs}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    __repr__ = __str__


def _rat_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def factorials(*ms: int) -> tuple[int, ...]:
    """Indices of the quantum integers in [m_1]! [m_2]! ..., for eval_ratio."""
    if any(m < 0 for m in ms):
        raise ValueError("factorial of a negative quantum integer")
    return tuple(i for m in ms for i in range(1, m + 1))


# The one context of each p, built on first use.
_fields: dict = {}


class FieldCtx:
    """Arithmetic context for Q(q), q = e^{i pi / p} a primitive 2p-th root.

    ``FieldCtx(p)`` is the one context of p, built on the first call, so
    identity is equality.  It owns the field's ``Scalars`` table,
    ``table``, whose ids every CycloNum, vector and operator of the field
    holds; the table is kept for the whole process, so those ids stay
    valid.  Immutable after construction; all operations are pure.  There
    is no ``__init__``, which Python would rerun on every call.
    """

    def __new__(cls, p: int):
        self = _fields.get(p)
        if self is not None:
            return self
        if p < 2:
            raise ValueError(f"p must be >= 2, got {p}")
        self = super().__new__(cls)
        self.p = p
        mod = cyclotomic_polynomial(2 * p)
        self.degree = len(mod) - 1
        deg = self.degree
        # reduction rows: q^(deg+k) mod Phi for k = 0 .. deg-2
        rows = []
        cur = [-c for c in mod[:deg]]
        rows.append(tuple(cur))
        for _ in range(deg - 2):
            c = cur[deg - 1]
            cur = [0] + cur[: deg - 1]
            if c:
                for j in range(deg):
                    cur[j] += c * rows[0][j]
            rows.append(tuple(cur))
        self.red = tuple(rows)
        self.table = Scalars(self.red)
        self.zero = self.wrap(0)
        self.one = self.wrap(ONE)
        # q^m table for m = 0 .. 2p-1, and the ids of its entries
        q = CycloNum(self, (0, 1) + (0,) * (deg - 2), 1)
        powers = [self.one]
        for _ in range(2 * p - 1):
            powers.append(powers[-1] * q)
        self._qpow = tuple(powers)
        self.qids = tuple(c.id for c in powers)
        self.q = q
        # the Galois automorphisms q -> q^k other than the identity, by k
        self.galois = tuple(k for k in range(3, 2 * p, 2) if math.gcd(k, 2 * p) == 1)
        self._qint_cache: dict[int, CycloNum] = {}
        self._qfact_cache: dict[int, CycloNum] = {0: self.one}
        self.loop_value = self.qint(2)
        _fields[p] = self
        return self

    def wrap(self, i: int) -> CycloNum:
        """The CycloNum of id ``i`` of this field's table, made without __init__."""
        c = object.__new__(CycloNum)
        c.ctx, c.id = self, i
        return c

    def scalar(self, r) -> CycloNum:
        """Embed an int or Fraction into the field; a CycloNum is returned as it is."""
        if isinstance(r, CycloNum):
            return r
        fr = Fraction(r)
        return CycloNum(self, (fr.numerator,) + (0,) * (self.degree - 1), fr.denominator)

    def q_power(self, m: int) -> CycloNum:
        return self._qpow[m % (2 * self.p)]

    def qid(self, m: int) -> int:
        """Id of q^m in the field's intern table; -1 is q^p and -q is q^(p+1)."""
        return self.qids[m % (2 * self.p)]

    def qint(self, n: int) -> CycloNum:
        """Quantum integer [n] = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
        if n < 0:
            return -self.qint(-n)
        cached = self._qint_cache.get(n)
        if cached is None:
            acc = self.zero
            for i in range(n):
                acc = acc + self.q_power(n - 1 - 2 * i)
            cached = self._qint_cache[n] = acc
        return cached

    def qfact(self, n: int) -> CycloNum:
        """Quantum factorial [n]! = [1][2]...[n]; zero iff n >= p."""
        if n < 0:
            raise ValueError("factorial of a negative quantum integer")
        top = max(self._qfact_cache)
        while top < n:
            top += 1
            self._qfact_cache[top] = self._qfact_cache[top - 1] * self.qint(top)
        return self._qfact_cache[n]

    def eval_ratio(self, num, den=()) -> CycloNum:
        """Evaluate prod [num] / prod [den], indices given as tuples,
        cancelling vanishing factors first.

        After index-level cancellation the zero factors (index divisible
        by p) must not outnumber those in the numerator; balanced zero
        pairs contribute the limit [ap]/[bp] -> (-1)^(a+b) a/b.  Index 0
        is the identically-zero quantum integer: it forces value 0 in a
        numerator and is never cancellable in a denominator.
        """
        if any(i < 0 for i in (*num, *den)):
            raise ValueError("quantum integer indices must be nonnegative")
        n, d = Counter(num), Counter(den)
        num, den = sorted((n - d).elements()), sorted((d - n).elements())
        if 0 in den:
            raise SingularRatio(f"denominator contains [0]: {num} / {den}")
        if 0 in num:
            return self.zero
        p = self.p
        znum = [i for i in num if i % p == 0]
        zden = [i for i in den if i % p == 0]
        if len(znum) < len(zden):
            raise SingularRatio(f"uncancellable zero denominator: {num} / {den}")
        if len(znum) > len(zden):
            return self.zero
        rat = Fraction(1)
        for ai, bi in zip(znum, zden):
            a, b = ai // p, bi // p
            rat *= Fraction(-a, b) if (a + b) % 2 else Fraction(a, b)
        val = self.scalar(rat)
        for i in num:
            if i % p:
                val = val * self.qint(i)
        dprod = self.one
        for i in den:
            if i % p:
                dprod = dprod * self.qint(i)
        return val / dprod if dprod != self.one else val

    def lambda_coeff(self, i: int, k: int) -> CycloNum:
        """Coproduct-power coefficient q^(i^2-ik) [k]!/([i]![k-i]!)."""
        if not 0 <= i <= k:
            raise ValueError(f"lambda coefficients need 0 <= i <= k, got i={i}, k={k}")
        return self.q_power(i * i - i * k) * self.eval_ratio(factorials(k), factorials(i, k - i))

    def xi(self, n: int, z: int) -> CycloNum:
        """Weight sum xi(n,z) = q^(-n-nz) [z]!/([n]![z-n]!)."""
        if not 0 <= n <= z:
            raise ValueError(f"weight sums need 0 <= n <= z, got n={n}, z={z}")
        return self.q_power(-n - n * z) * self.eval_ratio(factorials(z), factorials(n, z - n))

    def __repr__(self):
        return f"FieldCtx(p={self.p})"


_BODY = re.compile(
    r"(?P<rat>\d+(?:/\d+)?)(?:\*(?P<q1>q(?:\^(?P<e1>[+-]?\d+))?))?"
    r"|(?P<q2>q(?:\^(?P<e2>[+-]?\d+))?)"
)


def parse_cyclo(ctx: FieldCtx, s: str) -> CycloNum:
    """Parse the canonical rendering (negative exponents also accepted)."""
    text = s.strip()
    n = len(text)
    if not n:
        raise ValueError("empty cyclotomic literal")
    pos = 0
    total = ctx.zero
    first = True
    while pos < n:
        if first:
            sign = 1
            if text[pos] in "+-":
                sign = -1 if text[pos] == "-" else 1
                pos += 1
            first = False
        else:
            while pos < n and text[pos] == " ":
                pos += 1
            if pos >= n or text[pos] not in "+-":
                raise ValueError(f"expected +/- at position {pos} in {s!r}")
            sign = -1 if text[pos] == "-" else 1
            pos += 1
        while pos < n and text[pos] == " ":
            pos += 1
        m = _BODY.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad term at position {pos} in {s!r}")
        if m.group("rat") is not None:
            coeff = Fraction(m.group("rat"))
            qgrp, egrp = m.group("q1"), m.group("e1")
        else:
            coeff = Fraction(1)
            qgrp, egrp = m.group("q2"), m.group("e2")
        exp = 0
        if qgrp is not None:
            exp = int(egrp) if egrp is not None else 1
        total = total + ctx.q_power(exp) * sign * coeff
        pos = m.end()
    return total
