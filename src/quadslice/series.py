"""Truncated univariate series over an exact coefficient ring.

One generic type serves every series shape in the package: series in the
boundary-length variable z with truncated-bivariate-polynomial
coefficients, series in a parametrization variable with coefficients in
Q[alpha] or Q[gamma], series over Q(rho), and the internal tau grading
below.

A Series knows its variable tag, its order bound ``cap`` and a FieldSpec
(or ring exemplar pair) for its coefficients; coeffs always has length
cap + 1.  Operations return the largest cap that is still exact, so order
information degrades explicitly rather than silently.

The tau grading: substituting tb -> tau, tw -> rho*tau turns a bivariate
polynomial of total degree d into a tau-series of order d whose
coefficients are polynomials in rho of degree bounded by the tau power.
Total degree becomes plain valuation, so quantities that are exactly
divisible in the bivariate ring can be divided as series (valuation shift
plus exact division of the coefficients) and converted back.  The
conversion back verifies the degree bound, which is exactly the condition
for the series to be the image of a genuine polynomial in the two weights.

The image is held over Q[rho] (``RHO_RING``, Poly coefficients).  Over
any one-variable polynomial ring Q[v] (a field spec whose zero is a Poly:
Q[rho] here, Q[alpha] and Q[gamma] in ``closed_forms``) a series is held
in the graded packed layout of ``exactalg`` (v^b var^k in row k, slot b),
where sums, differences, negation, products, truncation, ==, shifts, the
valuation and the zero test run.  A capped (tb, tw) value is the same
layout, so the tau grading hands the packed fields across; the way back
checks the degree bound on the integer, reading by one mask the slots
above the diagonal, and only when the excess bound is positive.
``coeffs`` decodes the rows on first read.  ``divide`` makes its refusals
once, for every route; by a monomial c var^v, c rational (a division by
tb in the tau grading), it stays packed: a cut, a shift and one integer
multiply.  Any other divisor over Q[v] divides on integers (Kronecker
substitution): each row of either operand is one int, its polynomial at
v = 2^w, the row recursion makes one integer division a row, and the
quotient's ints, shifted into place, are its packed integer.  A width
certificate shows that the digits so read are the quotient's
coefficients.  A nonzero integer remainder (a quotient not over the
integers, as 1/2 is, or none at all), or a certificate missed at two
widths, hands the division to the row loop on the decoded rows, the route
over every other field too.  There each coefficient division must leave
remainder zero, else NonInvertibleError.  Where the quotient over Q(v) is
polynomial, every one of those divisions is exact, so no quotient that
exists over Q[v] is lost, and no gcd runs in either form.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import NonInvertibleError, StructureError
from .exactalg import (BIVARS, MPoly, _bits, _bytes_width, _cut, _equal, _fit, _neg, _ones, _pack, _packed,
                       _product, _relaid_digits, _rewidth, _rows, _sum, power)
from .ratfunc import QQ, FieldSpec, Poly, _inv_elem, _qq_normal

TAU, RHO = "tau", "rho"
RHO_RING = FieldSpec(Poly.zero(RHO), Poly.one(RHO), f"QQ[{RHO}]")


class Series:
    # over Q[v] packed in slots of _width bits bounded by _fit, _coeffs None
    # until read; over any other field _num is None
    __slots__ = ("var", "cap", "field", "_coeffs", "_num", "_den", "_stride", "_width", "_fit", "_deg", "_exc")

    def __init__(self, var, cap, coeffs, field):
        if cap < 0:
            raise StructureError("series cap must be >= 0")
        if field is QQ:
            coeffs = _qq_normal(coeffs)
        elif isinstance(field.zero, Poly):
            coeffs = [_ring_elem(c, field) for c in coeffs]
        else:
            coeffs = list(coeffs)
        if len(coeffs) < cap + 1:
            coeffs = coeffs + [field.zero] * (cap + 1 - len(coeffs))
        elif len(coeffs) > cap + 1:
            raise StructureError("more coefficients than cap allows")
        self.var = var
        self.cap = cap
        self._coeffs = tuple(coeffs)
        self.field = field
        self._num = None
        if isinstance(field.zero, Poly):
            _pack(self, {(k, b): c for k, r in enumerate(self._coeffs) for b, c in enumerate(r.coeffs) if c})

    @property
    def coeffs(self):
        """The coefficients of var^0..var^cap; over Q[v] decoded on first read."""
        if self._coeffs is None:
            self._coeffs = tuple(Poly(self.field.zero.var, row) for row in _rows(self))
        return self._coeffs

    def _blank(self):
        """A packed series in the same variable and ring, its packed fields unset."""
        return _blank_series(self.var, self.field)

    @classmethod
    def zero(cls, var, cap, field):
        return cls(var, cap, [], field)

    @classmethod
    def one(cls, var, cap, field):
        return cls(var, cap, [field.one], field)

    @classmethod
    def const(cls, var, cap, value, field):
        return cls(var, cap, [value], field)

    @classmethod
    def gen(cls, var, cap, field):
        # z vanishes mod z^1, so at cap 0 this is the zero series
        return cls(var, cap, [field.zero, field.one][: cap + 1], field)

    def ring_zero(self):
        return Series.zero(self.var, self.cap, self.field)

    def ring_one(self):
        return Series.one(self.var, self.cap, self.field)

    def is_zero(self):
        if self._num is not None:
            return not self._num
        z = self.field.zero
        return all(c == z for c in self.coeffs)

    def valuation(self):
        if self._num is not None:  # the row of the lowest set bit, in the lowest nonzero slot
            return ((self._num & -self._num).bit_length() - 1) // (self._stride * self._width) if self._num else None
        z = self.field.zero
        for k, c in enumerate(self.coeffs):
            if c != z:
                return k
        return None

    def truncate(self, cap):
        if cap < 0:
            raise StructureError("series cap must be >= 0")
        if cap > self.cap:
            raise StructureError(f"cannot extend series cap {self.cap} to {cap}")
        if self._num is None:
            return Series(self.var, cap, self.coeffs[: cap + 1], self.field)
        return _cut(self, cap)

    def _check(self, other):
        if self.var != other.var:
            raise StructureError(f"series variable mismatch {self.var}/{other.var}")

    def _coerce(self, other, cap):
        if isinstance(other, Series):
            self._check(other)
            return other if other.cap == cap else other.truncate(cap)
        if isinstance(other, (int, Fraction)):
            return Series.const(self.var, cap, self.field.one * other, self.field)
        return None

    def _plus(self, other, sign):
        """self + other (sign 1) or self - other (sign -1) at the lower cap."""
        cap = min(self.cap, other.cap) if isinstance(other, Series) else self.cap
        a = self if self.cap == cap else self.truncate(cap)
        other = a._coerce(other, cap)
        if other is None:
            return NotImplemented
        if a._num is not None:
            return _sum(a, other, sign)
        if sign < 0:
            other = -other
        return Series(a.var, cap, [x + y for x, y in zip(a.coeffs, other.coeffs)], a.field)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        if self._num is None:
            return Series(self.var, self.cap, [-c for c in self.coeffs], self.field)
        return _neg(self)

    def __sub__(self, other):
        if not isinstance(other, Series):
            other = self.ring_one() * other
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Series):
            self._check(other)
            cap = min(self.cap, other.cap)
            a = self if self.cap == cap else self.truncate(cap)
            b = other if other.cap == cap else other.truncate(cap)
            if a._num is not None:
                return _product(a, b)
            z = a.field.zero
            out = [z] * (cap + 1)
            for i, ca in enumerate(a.coeffs):
                if ca == z:
                    continue
                for j in range(cap + 1 - i):
                    cb = b.coeffs[j]
                    if cb == z:
                        continue
                    out[i + j] = out[i + j] + ca * cb
            return Series(a.var, cap, out, a.field)
        # scalar from the coefficient domain; a rational one is packed directly
        if self._num is not None:
            if isinstance(other, (int, Fraction)):
                num, den = other.numerator, other.denominator
                return _product(self, _packed(self._blank(), self.cap, num, den, 1, _bytes_width(_bits(num)),
                                              _bits(num), 0, 0))
            return _product(self, Series.const(self.var, self.cap, self.field.one * other, self.field))
        return Series(self.var, self.cap, [c * other for c in self.coeffs], self.field)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self.ring_one(), self, n)

    def inv(self):
        """Inverse series; needs an invertible order-0 coefficient."""
        return Series.one(self.var, self.cap, self.field).divide(self)

    def divide(self, other: "Series") -> "Series":
        """Exact series quotient q with other * q = self.

        Requires valuation(other) <= valuation(self); the result cap shrinks
        by valuation(other); a zero divisor, or one of higher valuation or of
        valuation above the order, is refused before either route runs.
        Coefficient divisions happen in the field, by one inverse of the
        leading coefficient; over Q[v], unless that is a constant, each one
        must leave remainder zero, else NonInvertibleError.  Over Q[v] a
        divisor c var^v, c a rational constant, divides on the packed
        integer: self cut, shifted down by v and scaled by 1/c.  Any other
        divisor over Q[v] first divides on integers, one row at a time at
        v = 2^w, under a width certificate (``_by_rows``); a quotient that is
        not over the integers, or a division that is not exact, falls back
        to the coefficient loop, whose results and messages it then gives.
        """
        self._check(other)
        vb = other.valuation()
        if vb is None:
            raise NonInvertibleError("division by the zero series")
        va = self.valuation()
        if va is not None and va < vb:
            raise NonInvertibleError(
                f"quotient is not a series: valuations {va} < {vb}"
            )
        cap = min(self.cap, other.cap) - vb
        if cap < 0:
            raise NonInvertibleError("divisor valuation exceeds series order")
        if self._num is not None and other._num is not None and other.field is self.field:
            q = _packed_divide(self, other, vb, cap)
            if q is not None:
                return q
        a, b = self.coeffs, other.coeffs
        lead = b[vb]
        z = self.field.zero
        ring = isinstance(z, Poly)  # over Q[v] only a constant lead is a unit
        inv_lead = None if ring and lead.degree() else _inv_elem(lead.coeffs[0] if ring else lead)
        q = [z] * (cap + 1)
        for k in range(cap + 1):
            acc = a[k + vb]
            for j in range(1, k + 1):
                bj = b[vb + j]
                if bj != z:
                    acc = acc - bj * q[k - j]
            if inv_lead is not None:
                q[k] = acc * inv_lead
            else:
                q[k], rem = acc.divmod(lead)
                if not rem.is_zero():
                    raise NonInvertibleError(
                        f"quotient is not over Q[{z.var}]: nonzero remainder at {self.var}^{k}"
                    )
        return Series(self.var, cap, q, self.field)

    def shift(self, k):
        """Multiply by var^k; negative k demands (and checks) divisibility."""
        if self._num is not None:
            bits = abs(k) * self._stride * self._width
            if k < 0 and self._num & ((1 << bits) - 1):
                raise NonInvertibleError(f"series not divisible by {self.var}^{-k}")
            if self.cap + k < 0:
                raise StructureError("series cap must be >= 0")
            num = self._num << bits if k >= 0 else self._num >> bits
            return _packed(self._blank(), self.cap + k, num, self._den, self._stride, self._width, self._fit,
                           self._deg, self._exc - k)
        if k >= 0:
            return Series(
                self.var, self.cap + k, (self.field.zero,) * k + self.coeffs, self.field
            )
        z = self.field.zero
        if any(c != z for c in self.coeffs[:-k]):
            raise NonInvertibleError(f"series not divisible by {self.var}^{-k}")
        return Series(self.var, self.cap + k, self.coeffs[-k:], self.field)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.var != other.var or self.cap != other.cap:
            return False
        if self._num is None or other._num is None or self.field is not other.field:
            return self.coeffs == other.coeffs
        return _equal(self, other)

    def __hash__(self):
        return hash((self.var, self.cap, self.coeffs))

    def __repr__(self):
        bits = [f"({c})*{self.var}^{k}" for k, c in enumerate(self.coeffs) if c != self.field.zero]
        body = " + ".join(bits) if bits else "0"
        return f"{body} + O({self.var}^{self.cap + 1})"


def _packed_divide(a, b, vb, cap):
    """a / b at ``cap`` on the packed integers, b in a's ring with lowest
    nonzero row vb, or None for the row loop.

    A divisor c var^v, c a rational constant, is one cut, shift and scale:
    b shifted down by v is such a constant iff it fits slot 0, the constant
    test of ``_product``; the shift is by width - 1, as a bare shift by the
    width would read slots (-1, 1) as the constant -1 plus a borrow.  Any
    other divisor runs ``_by_rows``."""
    c = b._num >> (vb * b._stride * b._width)
    if c >> (b._width - 1) not in (0, -1):
        return _by_rows(a, b, vb, cap)
    q = a.truncate(cap + vb).shift(-vb)
    return q if c == b._den else q * Fraction(b._den, c)


def _by_rows(a, b, vb, cap):
    """a / b, b's lowest nonzero row vb no monomial, with each row of a and b
    one integer: its polynomial at v = 2^w.  Evaluation at 2^w is a ring
    homomorphism, so the row recursion on these integers is exact at any w;
    a nonzero remainder means the numerators' quotient is not over Z[v].
    The quotient rows Q_k pack into sum Q_k 2^(k S w) with S slots a row
    from their bit lengths, and each Q_k's balanced digits are read as its
    coefficients.  Then D_k = A_k - sum_j B_j Q_(k-j), which vanishes at
    2^w, has every slot below 2^(w-1) when w > fit_A and
    w > fit_B + fit_Q + bitlen(pairs), so D_k = 0 and, b's row vb being
    nonzero in the domain Q[v], the quotient is the only one.  A width
    short of that certificate is raised to it once; a second miss, like a
    remainder, returns None.  The value is Q den_b / den_a."""
    n = cap + 1
    pairs = n * (b._deg + 1)  # the certificate's pairs at any stride
    w = _bytes_width(max(a._width, b._width, a._fit + b._fit + pairs.bit_length() + 16))
    for _ in range(2):
        A, B = _row_ints(a, w, vb, n), _row_ints(b, w, vb, n)
        b0, Q = B[0], []
        for k in range(n):
            q, r = divmod(A[k] - sum(map(mul, B[1:k + 1], reversed(Q))), b0)
            if r:
                return None
            Q.append(q)
        # |Q_k| < 2^L lies in the balanced range of (L + 2) / w slots
        degs = [((q.bit_length() + 1) // w, k) for k, q in enumerate(Q) if q]
        if not degs:
            return Series.zero(a.var, cap, a.field)
        deg = max(d for d, _ in degs)
        stride = deg + 1
        num = sum(q << (k * stride * w) for k, q in enumerate(Q) if q)
        fit = _fit(num, w, n * stride, w)
        need = max(a._fit, b._fit + fit + (n * min(b._deg + 1, stride)).bit_length()) + 1
        if w >= need:
            break
        w = _bytes_width(need)
    else:
        return None
    scale = b._den
    fit += (scale - 1).bit_length()
    width = _bytes_width(fit)
    if width != w:
        num = _rewidth(num, w, width, n * stride)
    return _packed(a._blank(), cap, num * scale, a._den, stride, width, fit, deg, max(d - k for d, k in degs))


def _row_ints(v, width, lo, n):
    """Rows lo..lo + n - 1 of packed v, whose rows below lo are zero, each as
    one int at v = 2^width, width a whole number of bytes no less than v's;
    v is not re-laid."""
    s = v._stride
    digits = _relaid_digits(v._num >> (lo * s * v._width), v._width, width, n * s)
    size, bias = s * width // 8, _ones(width, s) << (v._width - 1)
    return [int.from_bytes(digits[i * size:i * size + size], "little") - bias for i in range(n)]


def _ring_elem(c, field):
    """c in Q[v], the ring of ``field``: a Poly in v as it is, an int or a
    Fraction as a constant."""
    if isinstance(c, Poly) and c.var == field.zero.var:
        return c
    if isinstance(c, (int, Fraction)):
        return field.one * c
    kind = f"a polynomial in {c.var}" if isinstance(c, Poly) else type(c).__name__
    raise StructureError(f"series coefficient {c!r} ({kind}) is not in {field.name}")


def _blank_series(var, field):
    s = Series.__new__(Series)
    s.var, s.field, s._coeffs = var, field, None
    return s


# -------------------------------------------------------------- tau grading

def bipoly_to_tau(p: MPoly) -> Series:
    """Image of tb^a tw^b -> rho^b tau^(a+b) over Q[rho]; cap becomes the
    tau order."""
    if p.vars != BIVARS:
        raise StructureError("tau grading applies to bivariate weight polynomials")
    if p.cap is None:
        raise StructureError("tau grading needs a capped polynomial")
    # tb^a tw^b sits in row a + b, slot b of both: the same integer
    return _packed(_blank_series(TAU, RHO_RING), p.cap, p._num, p._den, p._stride, p._width, p._fit, p._deg, p._exc)


def tau_to_bipoly(s: Series) -> MPoly:
    """Inverse of bipoly_to_tau; checks each coefficient has rho-degree at
    most its tau power, on the integer: only a value whose excess bound is
    positive is looked at, and only its slots above the diagonal."""
    if s.var != TAU:
        raise StructureError("expected a tau-graded series")
    if s._exc > 0 and _above_diagonal(s):
        k, c = next((k, c) for k, c in enumerate(s.coeffs) if c.degree() > k)
        raise NonInvertibleError(f"tau^{k} coefficient has rho-degree {c.degree()} > {k}")
    p = MPoly.__new__(MPoly)
    p.vars, p._terms = BIVARS, None
    return _packed(p, s.cap, s._num, s._den, s._stride, s._width, s._fit, min(s._deg, s.cap), min(s._exc, 0))


def _above_diagonal(s):
    """Whether a slot b > k of some row k of packed s is nonzero.  Biased by
    2^(width-1), each slot is an unsigned field with no borrow between
    slots, and reads 2^(width-1) iff it is zero."""
    stride, k8, n = s._stride, s._width // 8, (s.cap + 1) * s._stride
    mask = int.from_bytes(b"".join(bytes(min(k + 1, stride) * k8) + b"\xff" * (max(stride - k - 1, 0) * k8)
                                   for k in range(s.cap + 1)), "little")
    half = _ones(s._width, n) << (s._width - 1)
    return bool((s._num + half ^ half) & mask)


def graded_div(num: MPoly, den: MPoly) -> MPoly:
    """Exact bivariate quotient computed in the tau grading over Q[rho].

    num and den must share a cap; den's valuation shifts out, and the
    result (of cap reduced by that valuation) must convert back to a
    genuine bivariate polynomial, else NonInvertibleError is raised.
    """
    q = bipoly_to_tau(num).divide(bipoly_to_tau(den))
    return tau_to_bipoly(q)
