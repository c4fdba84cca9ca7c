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
Values are immutable; a product may re-lay an operand's integer in place.

The graded packed layout.  A packed value at cap c is one integer over
one positive denominator, not reduced; row k <= c, slot b is a signed
field of ``width`` bits at slot position k * stride + b.  The value bounds
its slots (``fit`` bits, exact after a product) and its rows (slot b is 0
above ``deg`` and, in row k, above k + ``exc``).  Row k of a product has
degree at most min(deg_a + deg_b, k + exc_a + exc_b), so at a stride above
that for k = c no two kept pairs of terms share a slot: a product is one
big-integer multiply (Kronecker substitution) cut to c + 1 rows by one
mask, at the wider stride of its operands unless it needs more, and at a
slot width from their fits and a bound on the pairs that meet in a slot;
it re-lays each operand in place.  A product by a constant (a value whose
numerator fits slot 0) is one integer multiply of the other numerator, in
its layout.  A sum is one integer sum, and a cut to a lower cap one mask.
Equality compares the integers over one denominator, else tests the
difference for zero; ``terms``, the constant term and the hash reduce each
coefficient.  A capped polynomial in two variables -- the weight series in
(tb, tw), the workhorse of the package, with constructors ``bipoly_*`` --
is such a value with tb^a tw^b in row a + b, slot b, so deg <= cap and
exc <= 0, built and cut at stride cap + 1.  ``series`` holds its series
over Q[v] in the same layout (v^b var^k in row k, slot b), so the tau
image of a bivariate value is the same integer.  The term dict is decoded
only when ``terms`` is read.

The keyed layout.  Every other polynomial (uncapped, or in another number
of variables) is held as {key: coefficient}, the key packing exponent e_i
into the ``_B``-bit field at bit i * _B.  A monomial product is then one
int add, the constant term is key 0, and a term's total degree is its key
mod 2^_B - 1.  Each such value carries a bound on the total degree of its
terms; a product adds the bounds, and refuses one that would reach
2^_B - 1, so no field ever carries into the next and a capped product
reads each degree off its key.  The exponent tuples are decoded, in one
``struct`` unpack a key, only when ``terms`` is read.

Determinants over any of the rings in this package are computed by the
Berkowitz recurrence, which uses ring operations only.  Truncated rings
have zero divisors, yet exact division is available: ``series.graded_div``
divides a capped (tb, tw) value by one of no higher valuation in the tau
grading, where the divisor's lowest nonzero row shifts out and the
quotient over Q[rho] runs on integers (``series.Series.divide``).  So
elimination that divides exactly by such a pivot (Bareiss) can run on
these rings, at a cap lowered by the pivots' valuations.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import islice
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


def _relaid_digits(num, width, new, n):
    """The bytes of the low n slots of num re-laid from ``width`` to ``new``
    bits a slot, each slot biased by 2^(b-1), b the narrower width, which
    every slot must fit."""
    k, wide = width // 8, new // 8
    digits = _digits(num, width, n, min(width, new))
    if wide == k:
        return digits
    out = bytearray(n * wide)
    for j in range(min(k, wide)):  # byte j of every slot in one strided copy
        out[j::wide] = digits[j::k]
    return out


def _rewidth(num, width, new, n):
    """num with its n slots re-laid from ``width`` to ``new`` bits; every
    slot must fit the narrower of the two."""
    return int.from_bytes(_relaid_digits(num, width, new, n), "little") - (_ones(new, n) << (min(width, new) - 1))


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


# ---------------------------------------------------------------------- MPoly

class MPoly:
    # _num is None for a keyed value, which holds _keys and _bound; otherwise
    # the value is packed.  _terms caches the decoded dict (None until read).
    __slots__ = ("vars", "cap", "_terms", "_keys", "_bound", "_num", "_den", "_stride", "_width", "_fit", "_deg",
                 "_exc")

    def __init__(self, vars, terms, cap=None):
        vars = tuple(vars)
        _check_cap(cap)
        packed = cap is not None and len(vars) == 2
        pack, clean, bound = _codec(len(vars)).pack, {}, 0
        for exp, c in terms.items():
            try:  # the key's fields reject a missing, negative, oversized or non-int exponent
                key = int.from_bytes(pack(*exp), "little")
            except struct.error:
                raise StructureError(f"exponent {exp!r} does not fit the variables {vars}") from None
            deg = sum(exp)
            if c == 0 or (cap is not None and deg > cap):
                continue
            if packed:
                clean[exp] = _norm_coeff(c)
            else:
                clean[key], bound = _norm_coeff(c), max(bound, deg)
        self.vars, self.cap = vars, cap
        if packed:
            self._terms = clean
            _pack(self, {(a + b, b): c for (a, b), c in clean.items()}, cap + 1)
        else:
            self._terms, self._num, self._keys, self._bound = None, None, clean, bound

    @property
    def terms(self):
        """{exponent tuple: nonzero coefficient}; decoded on first read."""
        if self._terms is None:
            if self._num is None:
                self._terms = dict(zip(_exponents(self._keys, len(self.vars)), self._keys.values()))
            else:
                self._terms = {(k - b, b): c for k, row in enumerate(_rows(self)) for b, c in enumerate(row) if c}
        return self._terms

    def _blank(self):
        """A packed value over the same variables, its packed fields unset."""
        p = MPoly.__new__(MPoly)
        p.vars, p._terms = self.vars, None
        return p

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
        return not (self._keys if self._num is None else self._num)

    def constant_term(self) -> Fraction:
        if self._num is not None:  # slot 0, without decoding the others
            return Fraction(_truncate(self._num, self._width), self._den)
        return Fraction(self._keys.get(0, 0))

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
            return _sum(self, other, 1)
        return _key_sum(self, other)

    __radd__ = __add__

    def __neg__(self):
        if self._num is None:
            return _keyed(self.vars, self.cap, {k: -c for k, c in self._keys.items()}, self._bound)
        return _neg(self)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._num is not None:
            return _sum(self, other, -1)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._num is not None:
            return _product(self, other)
        return _key_mul(self, other)

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
            if len(self._keys) > 1:
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
        _check_cap(cap)
        if self._num is not None and cap is not None:
            out = _cut(self, cap)
            _laid(out, cap + 1, out._width)  # the stride it is built and multiplied at
            return out
        return MPoly(self.vars, self.terms, cap)

    def swap(self):
        """Exchange the first two variables (the black/white symmetry)."""
        if len(self.vars) < 2:
            raise StructureError(f"swap exchanges the first two variables, but the variables are {self.vars}")
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
            return self._keys == other._keys
        return _equal(self, other)

    def __hash__(self):
        items = self._keys if self._num is None else self.terms
        return hash((self.vars, self.cap, frozenset(items.items())))

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


def _check_cap(cap):
    """Refuse a cap that is neither None nor an int >= 0."""
    if cap is not None and (type(cap) is not int or cap < 0):
        raise StructureError(f"cap {cap!r} is neither None nor an int >= 0")


# ------------------------------------------------------------ the keyed kernel
#
# A keyed value holds _keys, {key: nonzero normalised coefficient} within its
# cap, and _bound, at least the total degree of every term (see the module
# docstring).  Fields of _B bits hold any exponent below 2^_B; a product's
# bound stays below _MASK = 2^_B - 1, the modulus a key's degree is read by.

_B = 32
_MASK = (1 << _B) - 1


@lru_cache(maxsize=None)
def _codec(n):
    """The struct that lays out n exponents as the little-endian bytes of a key."""
    return struct.Struct(f"<{n}I")


def _exponents(keys, n):
    """The exponent tuples of keys over n variables, one unpack a key."""
    unpack, size = _codec(n).unpack, n * _B // 8
    return [unpack(k.to_bytes(size, "little")) for k in keys]


def _keyed(vars, cap, keys, bound):
    """A keyed value from a clean key dict, skipping the constructor's clean-up."""
    p = MPoly.__new__(MPoly)
    p.vars, p.cap, p._terms, p._num, p._keys, p._bound = vars, cap, None, None, keys, bound
    return p


_INT = frozenset((int,))


def _normalised(out):
    """out, with each non-int coefficient normalised in place; the type scan
    runs in C, so an all-int dict costs no Python loop."""
    if not _INT.issuperset(map(type, out.values())):
        for k, c in out.items():
            if type(c) is not int:
                out[k] = _norm_coeff(c)
    return out


def _key_sum(p, q):
    """p + q for keyed values: the two dicts joined, then the coefficients
    of the keys they share summed."""
    if not q._keys:
        return p
    if not p._keys:
        return q
    a, b = p._keys, q._keys
    out = a | b
    for k in a.keys() & b.keys():
        s = a[k] + b[k]
        if s:
            out[k] = s if type(s) is int else _norm_coeff(s)
        else:
            del out[k]
    return _keyed(p.vars, p.cap, out, max(p._bound, q._bound))


def _key_mul(p, q):
    """p * q for keyed values: a monomial product is ka + kb, and a capped
    one keeps the keys whose degree, read off the key, is within the cap."""
    cap, bound = p.cap, p._bound + q._bound
    if bound >= _MASK:
        raise StructureError(f"a product of degree bound {bound} overflows the {_B}-bit exponent fields")
    a, b = (p._keys, q._keys) if len(p._keys) <= len(q._keys) else (q._keys, p._keys)
    if len(a) == 1:  # the shift by one key is injective: no two terms meet
        (ka, ca), = a.items()
        if cap is None:
            out = {ka + kb: ca * cb for kb, cb in b.items()}
        else:
            out = {ka + kb: ca * cb for kb, cb in b.items() if (ka + kb) % _MASK <= cap}
    else:
        out = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                if cap is None or k % _MASK <= cap:
                    s = get(k, 0) + ca * cb
                    if s:
                        out[k] = s
                    else:
                        del out[k]
    return _keyed(p.vars, cap, _normalised(out), bound if cap is None else min(bound, cap))


# --------------------------------------------------- the graded packed kernel
#
# One kernel serves every packed value, a capped bivariate MPoly or a
# packed Series over Q[v]: each holds ``cap`` and the packed fields _num,
# _den, _stride, _width, _fit, _deg and _exc, and makes a value of its own
# kind, packed fields unset, by ``_blank``.

def _at(cells, stride):
    """The slot positions of (row k, slot b) cells."""
    return [k * stride + b for k, b in cells]


def _pack(v, cells, stride=None):
    """Fill the packed fields of v, whose cap is set, from {(row k, slot b):
    nonzero coefficient}, at ``stride`` (by default deg + 1)."""
    v._deg = max((b for _, b in cells), default=-1)
    v._exc = max((b - k for k, b in cells), default=-1 - v.cap)
    v._stride = stride or max(v._deg + 1, 1)
    v._den, ints = _integral(cells.values())
    v._fit = max(map(_bits, ints), default=0)
    v._width = _bytes_width(v._fit)
    v._num = _encode(dict(zip(_at(cells, v._stride), ints)), v._width, (v.cap + 1) * v._stride)


def _rows(v):
    """Row k of packed v as the coefficients of its slots 0..min(deg, k + exc),
    the slots its bounds leave open."""
    lens = [max(0, min(v._deg, k + v._exc) + 1) for k in range(v.cap + 1)]
    vals = _decode(v._num, v._width, (v.cap + 1) * v._stride,
                   _at([(k, b) for k, m in enumerate(lens) for b in range(m)], v._stride))
    den = v._den
    if den != 1:
        vals = [_norm_coeff(Fraction(c, den)) if c else 0 for c in vals]
    vals = iter(vals)
    return [list(islice(vals, m)) for m in lens]


def _packed(v, cap, num, den, stride, width, fit, deg, exc):
    """v, a blank value, given packed fields at ``cap`` (num / den unreduced)."""
    v.cap, v._num, v._den, v._stride, v._width, v._fit, v._deg, v._exc = cap, num, den, stride, width, fit, deg, exc
    return v


def _laid(v, stride, width):
    """The numerator of v re-laid in place at ``stride`` slots a row of
    ``width`` bits, which must hold its rows and its fit (0 reads the same
    in every layout)."""
    if not v._num:
        return 0
    if v._stride != stride:
        v._num, v._stride = _restride(v._num, v._width, v._stride, v.cap + 1, stride), stride
    if v._width != width:
        v._num, v._width = _rewidth(v._num, v._width, width, (v.cap + 1) * stride), width
    return v._num


def _sum(a, b, sign):
    """a + b (sign 1) or a - b (sign -1) at one cap, over the common denominator."""
    if not b._num:
        return a
    if not a._num and sign > 0:
        return b
    den = a._den
    if den == b._den:
        sa = sb = 1
        fit = max(a._fit, b._fit) + 1
    else:
        den = lcm(den, b._den)
        sa, sb = den // a._den, den // b._den  # a scale s <= 2^bitlen(s - 1) widens the fit that much
        fit = max(a._fit + (sa - 1).bit_length() if a._num else 0, b._fit + (sb - 1).bit_length()) + 1
    stride, width = max(a._stride, b._stride), max(a._width, b._width, _bytes_width(fit))
    x, y = _laid(a, stride, width), _laid(b, stride, width)
    x, y = x if sa == 1 else x * sa, y if sb == 1 else y * sb
    return _packed(a._blank(), a.cap, x + y if sign > 0 else x - y, den, stride, width, fit,
                   max(a._deg, b._deg), max(a._exc, b._exc))


def _neg(a):
    """-a: a slot at the bottom of its range needs one bit more."""
    if not a._num:
        return a
    width = max(a._width, _bytes_width(a._fit + 1))
    return _packed(a._blank(), a.cap, -_laid(a, a._stride, width), a._den, a._stride, width, a._fit + 1,
                   a._deg, a._exc)


def _product(a, b):
    """a * b at one cap c, at the stride the module docstring gives.  The
    width holds the pairs that meet in a kept slot (``_pairs``), each
    bounded by 2^(fit_a - 1) 2^(fit_b - 1), with a sign bit to spare, and the
    exact fit is found after.  A constant operand, one pair a slot, scales
    the other numerator in its own layout."""
    c, exc = a.cap, a._exc + b._exc
    deg = min(a._deg + b._deg, c + exc)
    if not a._num or not b._num or deg < 0:
        return _packed(a._blank(), c, 0, 1, 1, 8, 0, -1, -1 - c)
    const, other = (b, a) if b._num >> (b._width - 1) in (0, -1) else (a, b)
    if const._num >> (const._width - 1) in (0, -1):  # it fits slot 0: one multiply in the other's layout
        bits, stride = const._fit + other._fit, other._stride
        width, n = max(other._width, _bytes_width(bits)), (c + 1) * stride
        num = _laid(other, stride, width) * const._num
        return _packed(a._blank(), c, num, a._den * b._den, stride, width, _fit(num, width, n, bits),
                       other._deg, other._exc)
    stride = max(deg + 1, a._stride, b._stride)
    bits = (_pairs(c, min(a._deg, b._deg), a._exc, b._exc) << (a._fit + b._fit - 2)).bit_length() + 1
    width, n = _bytes_width(bits), (c + 1) * stride
    num = _truncate(_laid(a, stride, width) * _laid(b, stride, width), n * width)
    return _packed(a._blank(), c, num, a._den * b._den, stride, width, _fit(num, width, n, bits), deg, exc)


@lru_cache(maxsize=1024)
def _pairs(c, d, e_a, e_b):
    """A bound on the pairs of terms that meet in a kept slot of row k <= c
    of a product at cap c, d the smaller of its operands' degree bounds and
    e_a, e_b their excess bounds: for each row i of a, at most
    min(d, i + e_a, c - i + e_b) + 1 of them."""
    return sum(max(0, min(d, i + e_a, c - i + e_b) + 1) for i in range(c + 1))


def _cut(a, cap):
    """a at another cap: the rows above it dropped, or zero rows added."""
    if cap == a.cap:
        return a
    num = _truncate(a._num, (cap + 1) * a._stride * a._width)
    return _packed(a._blank(), cap, num, a._den, a._stride, a._width, a._fit, min(a._deg, cap + a._exc), a._exc)


def _equal(a, b):
    """a == b for packed values at one cap (see the module docstring)."""
    if a._den != b._den:
        return not _sum(a, b, -1)._num
    stride, width = max(a._stride, b._stride), max(a._width, b._width)
    return _laid(a, stride, width) == _laid(b, stride, width)


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
