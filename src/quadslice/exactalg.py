"""Exact multivariate polynomial arithmetic over the rationals.

The central value type is MPoly, a polynomial in a fixed tuple of named
variables with exact rational coefficients, optionally truncated by total
degree.  Its coefficients read as a dict:

    p.terms == {(a, b, ...): coeff}   # exponent tuple -> nonzero coefficient

Coefficients are Python ints where integral and Fraction otherwise, and
zero coefficients are never listed.  When ``cap`` is an int, every
operation discards terms of total degree above it, which makes the type a
quotient ring (truncation commutes with + and *).  When ``cap`` is None the
value is an ordinary polynomial; this is used for opaque symbolic weights.
Values are immutable and all operations are pure.

A capped polynomial in two variables -- the weight series in (tb, tw), the
workhorse of the package, with dedicated constructors ``bipoly_*`` -- is
held packed: one integer numerator over one positive denominator in lowest
terms.  The coefficient of tb^a tw^b is slot (a + b)(cap + 1) + b of the
numerator, a signed field of ``width`` bits.  In this graded layout a
product slot of total degree <= cap receives exactly its own pairs of
terms, since b1 + b2 <= cap, so a product is one big-integer multiply
(Kronecker substitution) cut by one mask, and a sum is one integer sum.
Changing the cap re-lays the degree rows.  Each value also records a bound
``fit`` on its slots, exact after every product, from which the next
product picks its slot width; it re-lays each operand in place at that
width, wider or narrower, and a sum widens.  The term dict is decoded only
when ``terms`` is read.  Every other polynomial (uncapped, or in another number
of variables) is held as its term dict, and its products run over the
dicts.  The packing codec is shared with ``series``, whose series over a
polynomial ring Q[v] are held packed the same way.

Determinants over any of the rings in this package are computed by the
Berkowitz recurrence, which uses ring operations only.  Truncated rings
have zero divisors, so elimination with division is not available.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add

from .errors import NonInvertibleError, StructureError

BIVARS = ("tb", "tw")  # weight of a "black-like" vertex, weight of a "white-like" vertex


def _norm_coeff(c):
    """Keep integers as ints for speed, everything else as Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    return c


# ------------------------------------------------------------- packing codec
#
# A run of n signed ints c_0, c_1, ... packs into the one int sum c_k 2^(k w),
# w a multiple of 8.  Slot k reads back exactly while every c_k lies in
# [-2^(w-1), 2^(w-1)): adding 2^(w-1) to every slot makes each slot an
# unsigned w-bit field, with no borrow between slots.

@lru_cache(maxsize=256)
def _ones(width, n):
    """A 1 at the bottom of each of n slots of ``width`` bits."""
    return int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * n, "little")


def _encode(slots, width, n):
    """Pack {slot: int} into n slots of ``width`` bits."""
    k = width // 8
    pos, neg = bytearray(n * k), bytearray(n * k)
    for at, c in slots.items():
        if c > 0:
            pos[at * k:at * k + k] = c.to_bytes(k, "little")
        else:
            neg[at * k:at * k + k] = (-c).to_bytes(k, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _digits(num, width, n, bias=None):
    """The bytes of the low n slots of num, each slot biased by 2^(bias-1)
    (bias defaults to the width; every slot must fit ``bias`` bits)."""
    biased = num + (_ones(width, n) << ((bias or width) - 1))
    return (biased & ((1 << n * width) - 1)).to_bytes(n * width // 8, "little")


def _decode(num, width, n, at):
    """The signed values of the slots listed in ``at``, among the low n slots
    of num; slots from n on are ignored."""
    k, half = width // 8, 1 << (width - 1)
    digits = _digits(num, width, n)
    return [int.from_bytes(digits[i * k:i * k + k], "little") - half for i in at]


def _truncate(num, bits):
    """The low ``bits`` bits of num, read as a signed number."""
    num &= (1 << bits) - 1
    return num - (1 << bits) if num >> (bits - 1) else num


def _rewidth(num, width, new, n):
    """num with its n slots re-laid from ``width`` to ``new`` bits; every
    slot must fit the narrower of the two."""
    k, wide, bias = width // 8, new // 8, min(width, new)
    digits = _digits(num, width, n, bias)
    out = bytearray(n * wide)
    for j in range(min(k, wide)):  # byte j of every slot in one strided copy
        out[j::wide] = digits[j::k]
    return int.from_bytes(out, "little") - (_ones(new, n) << (bias - 1))


def _restride(num, width, stride, rows, new_stride):
    """The first ``rows`` rows of ``stride`` slots of num, re-laid at
    ``new_stride`` slots a row; the slots of a row past the shorter stride
    must hold 0."""
    k = width // 8
    keep, old, new = min(stride, new_stride) * k, stride * k, new_stride * k
    digits = _digits(num, width, rows * stride)
    out = bytearray((bytes(k - 1) + b"\x80") * (rows * new_stride))  # biased zeros
    for d in range(rows):
        out[d * new:d * new + keep] = digits[d * old:d * old + keep]
    return int.from_bytes(out, "little") - (_ones(width, rows * new_stride) << (width - 1))


def _fit(num, width, n, hi):
    """The smallest m with every one of the n slots of num in
    [-2^(m-1), 2^(m-1)), given that m = hi fits.

    A probe at m adds 2^(m-1) to every slot; the slots fit iff the sum is a
    nonnegative number of n slots none of which has a bit at or above m.
    """
    if not num:
        return 0
    ones, top, lo = _ones(width, n), n * width, 1
    high = ones << width
    while lo < hi:
        m = (lo + hi) // 2
        biased = num + (ones << (m - 1))
        if biased >> top or biased & (high - (ones << m)):
            lo = m + 1
        else:
            hi = m
    return hi


def _integral(coeffs):
    """(d, [d * c ...]) with d the common denominator of the coefficients."""
    den = lcm(*(c.denominator for c in coeffs if type(c) is not int))
    if den == 1:
        return 1, list(coeffs)
    return den, [c * den if type(c) is int else c.numerator * (den // c.denominator) for c in coeffs]


def _bits(c):
    """The smallest m with c in [-2^(m-1), 2^(m-1))."""
    return (c if c >= 0 else ~c).bit_length() + 1


def _bytes_width(bits):
    """The least slot width of whole bytes that holds a ``bits``-bit signed value."""
    return 8 * max(1, -(-bits // 8))


@lru_cache(maxsize=64)
def _layout(cap):
    """(slots, exponents, their slots) of the graded layout at a cap, whose
    stride is cap + 1."""
    exps = [(d - b, b) for d in range(cap + 1) for b in range(d + 1)]
    return (cap + 1) ** 2, exps, [(a + b) * (cap + 1) + b for a, b in exps]


# ---------------------------------------------------------------------- MPoly

class MPoly:
    # _num is None for a term-dict value; otherwise the value is packed and
    # _terms caches its decoded dict (None until read)
    __slots__ = ("vars", "cap", "_terms", "_num", "_den", "_width", "_fit")

    def __init__(self, vars, terms, cap=None):
        vars = tuple(vars)
        clean = {}
        for exp, c in terms.items():
            if len(exp) != len(vars) or min(exp, default=0) < 0:
                raise StructureError(f"exponent {exp!r} does not fit the variables {vars}")
            if c == 0 or (cap is not None and sum(exp) > cap):
                continue
            clean[exp] = _norm_coeff(c)
        _set_terms(self, vars, cap, clean)

    @property
    def terms(self):
        """{exponent tuple: nonzero coefficient}; decoded on first read."""
        if self._terms is None:
            n, exps, at = _layout(self.cap)
            den = self._den
            vals = _decode(self._num, self._width, n, at)
            if den == 1:
                self._terms = {e: c for e, c in zip(exps, vals) if c}
            else:
                self._terms = {e: _norm_coeff(Fraction(c, den)) for e, c in zip(exps, vals) if c}
        return self._terms

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
        return not (self._terms if self._num is None else self._num)

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get((0,) * len(self.vars), 0))

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
        if self._num is not None:
            return _packed_sum(self, other, 1)
        big, small = sorted((self._terms, other._terms), key=len, reverse=True)
        out = dict(big)
        for exp, c in small.items():
            s = out.get(exp, 0) + c
            if s == 0:
                del out[exp]
            else:
                out[exp] = s if type(s) is int else _norm_coeff(s)
        return _from_terms(self.vars, self.cap, out)

    __radd__ = __add__

    def __neg__(self):
        if self._num is None:
            return _from_terms(self.vars, self.cap, {e: -c for e, c in self._terms.items()})
        zero = _reduced(self.vars, self.cap, 0, 1, 8, 0)
        return _packed_sum(zero, self, -1)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._num is not None:
            return _packed_sum(self, other, -1)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._num is not None:
            return _packed_product(self, other)
        return _dict_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self.ring_one(), self, n)

    def inv(self):
        """Multiplicative inverse in the truncated ring.

        Exists iff the constant term is a nonzero rational; computed as a
        geometric series in (1 - self/c0), degree by degree up to cap.
        """
        c0 = self.constant_term()
        if c0 == 0:
            raise NonInvertibleError("constant term is zero")
        inv_c0 = Fraction(1) / c0
        if self.cap is None:
            if len(self.terms) > 1:
                raise NonInvertibleError("cannot invert a non-constant untruncated polynomial")
            return MPoly.const(self.vars, inv_c0)
        u = self.ring_one() - self * inv_c0  # valuation >= 1
        out = self.ring_one()
        power = self.ring_one()
        for _ in range(self.cap):
            power = power * u
            if power.is_zero():
                break
            out = out + power
        return out * inv_c0

    inverse = inv  # the name field elements invert by

    # ------------------------------------------------------------- utilities

    def with_cap(self, cap):
        """Reinterpret with a new cap; terms above it are dropped."""
        if self._num is not None and cap is not None:
            return _packed_with_cap(self, cap)
        terms = self.terms
        if cap is not None and (self.cap is None or cap < self.cap):
            terms = {e: c for e, c in terms.items() if sum(e) <= cap}
        return _from_terms(self.vars, cap, terms)

    def swap(self):
        """Exchange the first two variables (the black/white symmetry)."""
        out = {(e[1], e[0]) + e[2:]: c for e, c in self.terms.items()}
        return MPoly(self.vars, out, self.cap)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.vars, other, self.cap)
        if not isinstance(other, MPoly):
            return NotImplemented
        if self.vars != other.vars or self.cap != other.cap:
            return False
        if self._num is None:
            return self._terms == other._terms
        if not self._num or not other._num or self._den != other._den:
            return self._num == other._num and self._den == other._den
        width = max(self._width, other._width)
        return _align(self, width) == _align(other, width)

    def __hash__(self):
        return hash((self.vars, self.cap, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero():
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
    """base ** n by square-and-multiply from the lowest set bit of n, with
    no product by ``one``; n must be a non-negative int."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a non-negative integer")
    if not n:
        return one
    while not n & 1:
        base, n = base * base, n >> 1
    result = base
    while n > 1:
        base, n = base * base, n >> 1
        if n & 1:
            result = result * base
    return result


# ------------------------------------------------------------ building values

def _set_terms(p, vars, cap, terms):
    """Fill p from a clean dict: nonzero normalised coefficients within the cap."""
    p.vars, p.cap, p._terms = vars, cap, terms
    if cap is None or len(vars) != 2:
        p._num = None
        return
    den, nums = _integral(terms.values())
    fit = max(map(_bits, nums), default=0)
    p._width = _bytes_width(fit)
    p._num = _encode({(a + b) * (cap + 1) + b: c for (a, b), c in zip(terms, nums)},
                     p._width, (cap + 1) ** 2)
    p._den, p._fit = den, fit


def _from_terms(vars, cap, terms):
    """An MPoly from a clean dict, skipping the constructor's clean-up."""
    p = MPoly.__new__(MPoly)
    _set_terms(p, vars, cap, terms)
    return p


def _dict_mul(p, q):
    """Schoolbook product over the term dicts (any number of variables)."""
    cap = p.cap
    a, b = (q._terms, p._terms) if len(p._terms) > len(q._terms) else (p._terms, q._terms)
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            if cap is not None and sum(e) > cap:
                continue
            s = out.get(e, 0) + ca * cb
            if s == 0:
                del out[e]
            else:
                out[e] = s
    for e, c in out.items():
        if type(c) is not int:
            out[e] = _norm_coeff(c)
    return _from_terms(p.vars, cap, out)


# ------------------------------------------------------------- packed values

def _lowest(num, den, width, n, fit):
    """(num, den, fit) with the n slots of num over den in lowest terms."""
    if not num:
        return 0, 1, 0
    if den != 1:
        slots = _decode(num, width, n, range(n))
        g = gcd(den, *slots)
        if g != 1:  # num // g is exact: g divides every slot
            return num // g, den // g, max(_bits(c // g) for c in slots)
    return num, den, fit


def _reduced(vars, cap, num, den, width, fit):
    """A packed value with num / den brought to lowest terms."""
    p = MPoly.__new__(MPoly)
    p.vars, p.cap, p._terms, p._width = vars, cap, None, width
    p._num, p._den, p._fit = _lowest(num, den, width, (cap + 1) ** 2, fit)
    return p


def _align(p, width):
    """The numerator of p, re-laid in place at ``width`` bits, which must
    hold its fit (0 reads the same at every width)."""
    if p._num and p._width != width:
        p._num, p._width = _rewidth(p._num, p._width, width, (p.cap + 1) ** 2), width
    return p._num


def _sum_parts(p, q, sign, lay):
    """(num, den, width, fit) of p + q (sign 1) or p - q (sign -1) over the
    common denominator, for packed values of one layout; ``lay(v, width)``
    re-lays v in place at ``width`` bits and returns its numerator."""
    den = lcm(p._den, q._den)
    sp, sq = den // p._den, den // q._den  # a scale s <= 2^bitlen(s - 1) widens the fit that much
    fit = max(p._fit + (sp - 1).bit_length() if p._num else 0, q._fit + (sq - 1).bit_length()) + 1
    width = max(p._width, q._width, _bytes_width(fit))
    a, b = lay(p, width), lay(q, width)
    a, b = a if sp == 1 else a * sp, b if sq == 1 else b * sq
    return a + b if sign > 0 else a - b, den, width, fit


def _product_parts(p, q, pairs, n, lay):
    """(num, width, fit) of one big-int multiply of two nonzero packed values
    of one layout (``lay`` as in ``_sum_parts``), cut to its n slots.  At most
    ``pairs`` pairs meet in a kept slot, each bounded by 2^(fit_p - 1) 2^(fit_q - 1);
    the width holds that with a sign bit to spare, and the exact fit is found after."""
    bound = pairs << (p._fit + q._fit - 2)
    width = _bytes_width(bound.bit_length() + 1)
    num = _truncate(lay(p, width) * lay(q, width), n * width)
    return num, width, _fit(num, width, n, bound.bit_length() + 1)


def _packed_sum(p, q, sign):
    """p + q (sign 1) or p - q (sign -1) over the common denominator."""
    if not q._num:
        return p
    if not p._num and sign > 0:
        return q
    return _reduced(p.vars, p.cap, *_sum_parts(p, q, sign, _align))


def _packed_product(p, q):
    """One big-int multiply in the graded layout, cut to total degree <= cap;
    at most (cap + 1)(cap + 2) / 2 pairs of terms, one operand's worth, meet
    in a product slot."""
    cap = p.cap
    if not p._num or not q._num:
        return _reduced(p.vars, cap, 0, 1, max(p._width, q._width), 0)
    num, width, fit = _product_parts(p, q, (cap + 1) * (cap + 2) // 2, (cap + 1) ** 2, _align)
    return _reduced(p.vars, cap, num, p._den * q._den, width, fit)


def _packed_with_cap(p, cap):
    if cap == p.cap:
        return p
    num = _restride(p._num, p._width, p.cap + 1, min(cap, p.cap) + 1, cap + 1)
    if cap > p.cap:
        out = _reduced(p.vars, cap, num, p._den, p._width, p._fit)
        out._terms = p._terms
        return out
    return _reduced(p.vars, cap, num, p._den, p._width, p._fit)


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
        return 1
    return x.ring_one()


def _ring_zero_of(x):
    if isinstance(x, (int, Fraction)):
        return 0
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
