"""Exact arithmetic in Q(q) for q a primitive 2p-th root of unity.

Elements are polynomials in q reduced modulo the 2p-th cyclotomic
polynomial, held as integer numerator tuples over a common positive
denominator.  On top of the field sit the quantum-combinatorial scalars:
quantum integers [n], factorials [n]!, the coproduct coefficients
lambda_{i,k}, the weight sums xi(n,z), and formal factorial ratios
(QFactProduct) that cancel vanishing factors before evaluation.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from uqsl2._kernel import kadd, kmul, kneg, knorm, ksub


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
    assert n >= 1
    if n == 1:
        return (-1, 1)
    prod = (1,)
    for d in range(1, n):
        if n % d == 0:
            prod = _poly_mul(prod, cyclotomic_polynomial(d))
    x_n_minus_1 = (-1,) + (0,) * (n - 1) + (1,)
    return _poly_div_exact(x_n_minus_1, prod)


class CycloNum:
    """An element of Q(q), fully reduced modulo the cyclotomic modulus.

    Immutable.  Arithmetic mixes with int and Fraction.  Equality is
    coefficient-wise; str() is the canonical rendering parsed back by
    :func:`parse_cyclo`.
    """

    __slots__ = ("ctx", "nums", "den")

    def __init__(self, ctx: "FieldCtx", nums: tuple[int, ...], den: int):
        self.ctx = ctx
        self.nums = nums
        self.den = den

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.ctx, *kadd(self.nums, self.den, o.nums, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.ctx, *ksub(self.nums, self.den, o.nums, o.den))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.ctx, *ksub(o.nums, o.den, self.nums, self.den))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(
            self.ctx, *kmul(self.nums, self.den, o.nums, o.den, self.ctx.red)
        )

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
        return CycloNum(self.ctx, *kneg(self.nums, self.den))

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
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if not self:
            raise ZeroDivisionError("division by zero in Q(q)")
        a = [Fraction(n, self.den) for n in self.nums]
        r0 = [Fraction(c) for c in self.ctx.cyclotomic_modulus]
        r1, s0, s1 = a, [Fraction(0)], [Fraction(1)]
        while _fdeg(r1) > 0:
            q, r = _fdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _fsub(s0, _fmul(q, s1))
        c = r1[0]
        assert c != 0, "modulus is not coprime to a nonzero element"
        inv_coeffs = [x / c for x in s1]
        deg = self.ctx.degree
        inv_coeffs += [Fraction(0)] * (deg - len(inv_coeffs))
        den = math.lcm(*(f.denominator for f in inv_coeffs))
        nums = tuple(int(f * den) for f in inv_coeffs[:deg])
        return CycloNum(self.ctx, *knorm(nums, den))

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, CycloNum) else other
        if o is None or not isinstance(o, CycloNum):
            return NotImplemented
        return self.ctx.p == o.ctx.p and self.nums == o.nums and self.den == o.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __complex__(self):
        """Floating approximation; diagnostics only, never verification."""
        w = cmath.exp(1j * math.pi / self.ctx.p)
        return sum((n / self.den) * w**j for j, n in enumerate(self.nums))

    def __str__(self):
        terms = []
        for e in range(self.ctx.degree - 1, -1, -1):
            c = Fraction(self.nums[e], self.den)
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


def _fdeg(a: list[Fraction]) -> int:
    for i in range(len(a) - 1, -1, -1):
        if a[i]:
            return i
    return -1


def _fsub(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _fmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _fdivmod(a, b):
    db = _fdeg(b)
    rem = list(a)
    quot = [Fraction(0)] * max(_fdeg(a) - db + 1, 1)
    lead = b[db]
    for k in range(_fdeg(a) - db, -1, -1):
        c = rem[k + db] / lead
        if c:
            quot[k] = c
            for j in range(db + 1):
                rem[k + j] -= c * b[j]
    return quot, rem[:db] if db > 0 else [Fraction(0)]


class QFactProduct:
    """Formal ratio of quantum integers, Π[n_i] / Π[d_j], kept by index.

    Carried symbolically so vanishing factors cancel before evaluation;
    see :meth:`FieldCtx.eval_ratio`.
    """

    __slots__ = ("numerator_indices", "denominator_indices")

    def __init__(self, numerator_indices=(), denominator_indices=()):
        assert all(i >= 0 for i in numerator_indices)
        assert all(i >= 0 for i in denominator_indices)
        self.numerator_indices = tuple(sorted(numerator_indices))
        self.denominator_indices = tuple(sorted(denominator_indices))

    @staticmethod
    def factorial_indices(m: int) -> tuple[int, ...]:
        assert m >= 0, "factorial of a negative quantum integer"
        return tuple(range(1, m + 1))

    @classmethod
    def from_factorials(cls, num=(), den=()) -> "QFactProduct":
        """Ratio of factorials: num/den are tuples of factorial arguments."""
        ni: list[int] = []
        di: list[int] = []
        for m in num:
            ni.extend(cls.factorial_indices(m))
        for m in den:
            di.extend(cls.factorial_indices(m))
        return cls(ni, di)

    def times(self, other: "QFactProduct") -> "QFactProduct":
        return QFactProduct(
            self.numerator_indices + other.numerator_indices,
            self.denominator_indices + other.denominator_indices,
        )

    def over(self, other: "QFactProduct") -> "QFactProduct":
        return QFactProduct(
            self.numerator_indices + other.denominator_indices,
            self.denominator_indices + other.numerator_indices,
        )

    def cancelled(self) -> "QFactProduct":
        """Cancel equal indices between numerator and denominator."""
        num = Counter(self.numerator_indices)
        den = Counter(self.denominator_indices)
        for idx in set(num) & set(den):
            c = min(num[idx], den[idx])
            num[idx] -= c
            den[idx] -= c
        return QFactProduct(
            tuple(num.elements()), tuple(den.elements())
        )

    def __eq__(self, other):
        if not isinstance(other, QFactProduct):
            return NotImplemented
        return (
            self.numerator_indices == other.numerator_indices
            and self.denominator_indices == other.denominator_indices
        )

    def __hash__(self):
        return hash((self.numerator_indices, self.denominator_indices))

    def __repr__(self):
        return f"QFactProduct({self.numerator_indices}, {self.denominator_indices})"


class FieldCtx:
    """Arithmetic context for Q(q), q = e^{i pi / p} a primitive 2p-th root.

    Immutable after construction; all operations are pure.
    """

    def __init__(self, p: int):
        if p < 2:
            raise ValueError(f"p must be >= 2, got {p}")
        self.p = p
        mod = cyclotomic_polynomial(2 * p)
        self.cyclotomic_modulus = mod
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
        self.zero = CycloNum(self, (0,) * deg, 1)
        self.one = CycloNum(self, (1,) + (0,) * (deg - 1), 1)
        # q^m table for m = 0 .. 2p-1
        powers = [self.one]
        for _ in range(2 * p - 1):
            powers.append(powers[-1] * self._q_monomial())
        self._qpow = tuple(powers)
        self.q = self._qpow[1]
        self._qint_cache: dict[int, CycloNum] = {}
        self._qfact_cache: dict[int, CycloNum] = {0: self.one}
        self.loop_value = self.qint(2)

    def _q_monomial(self) -> CycloNum:
        nums = [0] * self.degree
        if self.degree > 1:
            nums[1] = 1
            return CycloNum(self, tuple(nums), 1)
        raise AssertionError("degree >= 2 for all p >= 2")

    def scalar(self, r) -> CycloNum:
        """Embed an int or Fraction into the field."""
        fr = Fraction(r)
        nums = (fr.numerator,) + (0,) * (self.degree - 1)
        return CycloNum(self, *knorm(nums, fr.denominator))

    def q_power(self, m: int) -> CycloNum:
        return self._qpow[m % (2 * self.p)]

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
        assert n >= 0
        top = max(self._qfact_cache)
        while top < n:
            top += 1
            self._qfact_cache[top] = self._qfact_cache[top - 1] * self.qint(top)
        return self._qfact_cache[n]

    def eval_ratio(self, r: QFactProduct) -> CycloNum:
        """Evaluate a formal ratio, cancelling vanishing factors first.

        After index-level cancellation the zero factors (index divisible
        by p) must not outnumber those in the numerator; balanced zero
        pairs contribute the limit [ap]/[bp] -> (-1)^(a+b) a/b.  Index 0
        is the identically-zero quantum integer: it forces value 0 in a
        numerator and is never cancellable in a denominator.
        """
        c = r.cancelled()
        num, den = list(c.numerator_indices), list(c.denominator_indices)
        if any(i == 0 for i in den):
            raise SingularRatio(f"denominator contains [0]: {r!r}")
        if any(i == 0 for i in num):
            return self.zero
        p = self.p
        znum = [i for i in num if i % p == 0]
        zden = [i for i in den if i % p == 0]
        if len(znum) < len(zden):
            raise SingularRatio(f"uncancellable zero denominator: {r!r}")
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
        assert 0 <= i <= k
        ratio = QFactProduct.from_factorials(num=(k,), den=(i, k - i))
        return self.q_power(i * i - i * k) * self.eval_ratio(ratio)

    def xi(self, n: int, z: int) -> CycloNum:
        """Weight sum xi(n,z) = q^(-n-nz) [z]!/([n]![z-n]!)."""
        assert 0 <= n <= z
        ratio = QFactProduct.from_factorials(num=(z,), den=(n, z - n))
        return self.q_power(-n - n * z) * self.eval_ratio(ratio)

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and other.p == self.p

    def __hash__(self):
        return hash(("FieldCtx", self.p))

    def __repr__(self):
        return f"FieldCtx(p={self.p})"


def make_field(p: int) -> FieldCtx:
    """Field context for q = e^{i pi / p}; rejects p < 2."""
    return FieldCtx(p)


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
