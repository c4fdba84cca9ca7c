"""Exact multivariate polynomial arithmetic over the rationals.

The central value type is MPoly, a sparse polynomial in a fixed tuple of
named variables with exact rational coefficients, optionally truncated by
total degree:

    terms = {(a, b, ...): coeff}   # exponent tuple -> nonzero coefficient

Coefficients are Python ints where integral and Fraction otherwise; zero
coefficients are never stored, so equality of the dicts is semantic
equality of the polynomials.  When ``cap`` is an int, every operation
discards terms of total degree above it, which makes the type a quotient
ring (truncation commutes with + and *).  When ``cap`` is None the value
is an ordinary polynomial; this is used for opaque symbolic weights.

The bivariate case over the two vertex-weight variables is the workhorse
and has dedicated constructors (``bipoly_*``).  Values are immutable and
all operations are pure.  A product of two capped two-variable polynomials
is one big-integer multiply by Kronecker substitution, with both operands
packed into integers slot by slot; every other product runs over the term
dicts.  The same packing multiplies truncated series whose coefficients are
polynomials (``packed_series_mul``, used for series over Q[rho]).

Determinants over any of the rings in this package are computed by the
Berkowitz recurrence, which uses ring operations only.  Truncated rings
have zero divisors, so elimination with division is not available.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import NonInvertibleError, StructureError

BIVARS = ("tb", "tw")  # weight of a "black-like" vertex, weight of a "white-like" vertex


def _norm_coeff(c):
    """Keep integers as ints for speed, everything else as Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    return c


class MPoly:
    __slots__ = ("vars", "cap", "terms")

    def __init__(self, vars, terms, cap=None):
        self.vars = tuple(vars)
        self.cap = cap
        clean = {}
        for exp, c in terms.items():
            if c == 0:
                continue
            if cap is not None and sum(exp) > cap:
                continue
            clean[exp] = _norm_coeff(c)
        self.terms = clean

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, vars, cap=None):
        return cls(vars, {}, cap)

    @classmethod
    def const(cls, vars, value, cap=None):
        return cls(vars, {(0,) * len(vars): Fraction(value)}, cap)

    @classmethod
    def gen(cls, vars, name, cap=None):
        vars = tuple(vars)
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return cls(vars, {tuple(exp): 1}, cap)

    def ring_zero(self):
        return MPoly(self.vars, {}, self.cap)

    def ring_one(self):
        return MPoly.const(self.vars, 1, self.cap)

    def is_zero(self):
        return not self.terms

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get((0,) * len(self.vars), 0))

    def valuation(self):
        """Minimal total degree of a term; None for the zero polynomial."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def coeff(self, exp) -> Fraction:
        return Fraction(self.terms.get(tuple(exp), 0))

    def _check_compat(self, other):
        if self.vars != other.vars or self.cap != other.cap:
            raise StructureError(
                f"operand mismatch: vars {self.vars}/{other.vars} cap {self.cap}/{other.cap}"
            )

    def _coerce(self, other):
        if isinstance(other, MPoly):
            self._check_compat(other)
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.vars, other, self.cap)
        return None

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return MPoly(self.vars, out, self.cap)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()}, self.cap)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.cap is not None and len(self.vars) == 2:
            return _packed_mul(self, other)
        return _dict_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self.ring_one(), self, n)

    def inv(self):
        """Multiplicative inverse in the truncated ring.

        Exists iff the constant term is a nonzero rational; computed as a
        geometric series in (1 - self/c0), degree by degree up to cap.
        """
        if self.cap is None:
            c0 = self.constant_term()
            if len(self.terms) > (0 if c0 == 0 else 1):
                raise NonInvertibleError("cannot invert a non-constant untruncated polynomial")
        c0 = self.constant_term()
        if c0 == 0:
            raise NonInvertibleError("constant term is zero")
        if self.cap is None:
            return MPoly.const(self.vars, Fraction(1, 1) / c0)
        inv_c0 = Fraction(1) / c0
        u = self.ring_one() - self * inv_c0  # valuation >= 1
        out = self.ring_one()
        power = self.ring_one()
        for _ in range(self.cap):
            power = power * u
            if power.is_zero():
                break
            out = out + power
        return out * inv_c0

    # ------------------------------------------------------------- utilities

    def with_cap(self, cap):
        """Reinterpret with a new cap; terms above it are dropped."""
        return MPoly(self.vars, self.terms, cap)

    def swap(self, i=0, j=1):
        """Exchange two variables (used for the black/white symmetry)."""
        out = {}
        for exp, c in self.terms.items():
            e = list(exp)
            e[i], e[j] = e[j], e[i]
            out[tuple(e)] = c
        return MPoly(self.vars, out, self.cap)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.vars, other, self.cap)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.cap == other.cap and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, self.cap, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms):
            c = self.terms[exp]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, exp) if e
            )
            bits.append(f"{c}" if not mono else (f"{c}*{mono}" if c != 1 else mono))
        return " + ".join(bits)


def power(one, base, n):
    """base ** n by square-and-multiply; n must be a non-negative int."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def _dict_mul(p, q):
    """Schoolbook product over the term dicts (any number of variables)."""
    cap = p.cap
    out = {}
    if len(p.terms) > len(q.terms):
        a, b = q.terms, p.terms
    else:
        a, b = p.terms, q.terms
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if cap is not None and da + sum(eb) > cap:
                continue
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return MPoly(p.vars, out, cap)


def _packed_mul(p, q):
    """Product of two capped two-variable polynomials by Kronecker substitution.

    Exponent (a, b) goes to slot a * (2 cap + 1) + b; no product exponent
    reaches 2 cap + 1 in the second variable, so slots never collide, and
    only slots with a + b <= cap are read back.
    """
    cap = p.cap
    if not p.terms or not q.terms:
        return MPoly(p.vars, {}, cap)
    stride = 2 * cap + 1
    wanted = ((a, b) for a in range(cap + 1) for b in range(cap + 1 - a))
    prod = MPoly.__new__(MPoly)  # the kernel's output is already clean
    prod.vars, prod.cap = p.vars, cap
    prod.terms = _kronecker(p.terms, q.terms, stride, cap * stride + 1, wanted)
    return prod


def packed_series_mul(p, q, cap):
    """Truncated product of two series with polynomial coefficients.

    p and q list the coefficients of var^0, var^1, ... as coefficient
    sequences of the inner polynomial, lowest degree first.  Exponent
    (a, b) of var^a inner^b goes to slot a * stride + b with stride one more
    than the product's inner degree, so slots never collide; every slot
    with a <= cap is read back.  Returns cap + 1 coefficient lists.
    """
    tp = {(a, b): c for a, cs in enumerate(p[:cap + 1]) for b, c in enumerate(cs) if c}
    tq = {(a, b): c for a, cs in enumerate(q[:cap + 1]) for b, c in enumerate(cs) if c}
    if not tp or not tq:
        return [[] for _ in range(cap + 1)]
    stride = max(b for _, b in tp) + max(b for _, b in tq) + 1
    out = [[0] * stride for _ in range(cap + 1)]
    wanted = ((a, b) for a in range(cap + 1) for b in range(stride))
    for (a, b), c in _kronecker(tp, tq, stride, (cap + 1) * stride, wanted).items():
        out[a][b] = c
    return out


def _kronecker(p, q, stride, top, wanted):
    """{(a, b): c} of the product of two term dicts, at the exponents in ``wanted``.

    Each operand is scaled to integers over its common denominator and
    packed into one int, exponent (a, b) in slot a * stride + b of k bytes;
    the caller picks a stride at which product slots never collide, and
    slots from ``top`` on are cut off.  k bytes hold the signed bound on a
    product coefficient, min(#terms) * max|p| * max|q|, with a sign bit to
    spare.  After one big-int multiply, adding 2^(8k - 1) to every slot
    turns the signed slots into unsigned bytes, so negative coefficients
    come back exact.
    """
    den_p, ints_p, max_p = _integral(p)
    den_q, ints_q, max_q = _integral(q)
    k = (min(len(ints_p), len(ints_q)) * max_p * max_q).bit_length() // 8 + 1
    half = 1 << (8 * k - 1)
    bias = int.from_bytes((bytes(k - 1) + b"\x80") * top, "little")  # half in every slot
    digits = ((_pack(ints_p, stride, top, k) * _pack(ints_q, stride, top, k) + bias)
              & ((1 << (8 * k * top)) - 1)).to_bytes(top * k, "little")
    den = den_p * den_q
    out = {}
    for a, b in wanted:
        at = (a * stride + b) * k
        c = int.from_bytes(digits[at:at + k], "little") - half
        if c:
            out[(a, b)] = c if den == 1 else _norm_coeff(Fraction(c, den))
    return out


def _integral(terms):
    """(d, {exp: d * c}, max |d * c|) with d the common denominator."""
    dens = [c.denominator for c in terms.values() if type(c) is not int]
    if dens:
        den = lcm(*dens)
        terms = {e: c * den if type(c) is int else c.numerator * (den // c.denominator)
                 for e, c in terms.items()}
    else:
        den = 1
    return den, terms, max(map(abs, terms.values()))


def _pack(terms, stride, top, k):
    pos, neg = bytearray(top * k), bytearray(top * k)
    for (a, b), c in terms.items():
        at = (a * stride + b) * k
        if c > 0:
            pos[at:at + k] = c.to_bytes(k, "little")
        else:
            neg[at:at + k] = (-c).to_bytes(k, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


# ------------------------------------------------------------------ bivariate

def bipoly_zero(cap) -> MPoly:
    return MPoly.zero(BIVARS, cap)

def bipoly_one(cap) -> MPoly:
    return MPoly.const(BIVARS, 1, cap)

def tb(cap) -> MPoly:
    return MPoly.gen(BIVARS, "tb", cap)

def tw(cap) -> MPoly:
    return MPoly.gen(BIVARS, "tw", cap)

def bipoly(terms, cap) -> MPoly:
    """Build from {(a, b): coeff} meaning coeff * tb^a * tw^b."""
    return MPoly(BIVARS, {tuple(e): Fraction(c) for e, c in terms.items()}, cap)


def bipoly_to_text(p: MPoly) -> str:
    """Canonical text form: one `a b num/den` triple per line, sorted on (a, b)."""
    lines = []
    for exp in sorted(p.terms):
        c = Fraction(p.terms[exp])
        lines.append(f"{exp[0]} {exp[1]} {c.numerator}/{c.denominator}")
    return "\n".join(lines)


def bipoly_from_text(text: str, cap) -> MPoly:
    terms = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        a, b, frac = line.split()
        terms[(int(a), int(b))] = Fraction(frac)
    return bipoly(terms, cap)


# ---------------------------------------------------------------- determinant

def _ring_one_of(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(1)
    return x.ring_one()


def _ring_zero_of(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(0)
    return x.ring_zero()


def det_division_free(rows):
    """Exact determinant via the Berkowitz recurrence (no divisions).

    Accepts a square list-of-lists over any commutative ring element type
    supporting +, -, * (MPoly, RatFunc, Series, Fraction).  Valid in the
    truncated rings because truncation by total degree is a ring quotient.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise StructureError("matrix is not square")
    if n == 0:
        return Fraction(1)
    one = _ring_one_of(rows[0][0])
    zero = _ring_zero_of(rows[0][0])
    if n == 1:
        return rows[0][0]

    # poly holds the characteristic polynomial coefficients of the leading
    # principal k x k submatrix, length k + 1, leading entry 1.
    poly = [one, -rows[0][0]]
    for k in range(1, n):
        a = rows[k][k]
        row = rows[k][:k]
        col = [rows[i][k] for i in range(k)]
        sub = [r[:k] for r in rows[:k]]
        # items[j] = row . sub^j . col
        items = []
        vec = col
        for _ in range(k):
            items.append(_dot(row, vec, zero))
            vec = _matvec(sub, vec, zero)
        # Toeplitz first column: 1, -a, -items[0], -items[1], ...
        first = [one, -a] + [-it for it in items]
        new_poly = []
        for i in range(k + 2):
            acc = zero
            lo = max(0, i - (len(first) - 1))
            hi = min(i, len(poly) - 1)
            for j in range(lo, hi + 1):
                acc = acc + first[i - j] * poly[j]
            new_poly.append(acc)
        poly = new_poly
    det = poly[-1]
    if n % 2 == 1:
        det = -det
    return det


def _dot(u, v, zero):
    acc = zero
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def _matvec(m, v, zero):
    return [_dot(row, v, zero) for row in m]
