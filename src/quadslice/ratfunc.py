"""Univariate polynomials and rational functions over Q, and gcd-free
fractions of multivariate polynomials.

Poly is a dense coefficient tuple over QQ: a coefficient is stored as an
int where it is integral and as a Fraction otherwise, so integer inputs stay
on int arithmetic; the constructor strips trailing zeros and turns an
integral Fraction back into an int.  Poly.gcd runs as a primitive
pseudo-remainder sequence on integer polynomials.  A FieldSpec (zero and one
exemplars plus a name) describes the coefficient ring of a Series.

RatFunc, a rational function over QQ, is kept fully canonical: numerator
and denominator are coprime and the denominator is monic, so two
arithmetic routes to the same value produce structurally equal objects and
== is reliable.  RatFunc says where the gcd runs.

PolyFrac is the tool for identities in several parameters: a fraction of
two uncapped MPoly values that is never reduced, so it runs no gcd at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NonInvertibleError, StructureError
from .exactalg import MPoly, power


def _int_primitive(ints):
    """Int coefficient list divided by its content."""
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _primitive_ints(coeffs):
    """Clear denominators and content: rational coeff list -> primitive ints."""
    den = lcm(*(c.denominator for c in coeffs))
    return _int_primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _pseudo_rem(u, v):
    """Pseudo-remainder of little-endian integer coefficient lists."""
    r = list(u)
    lv = v[-1]
    dv = len(v) - 1
    while r and len(r) - 1 >= dv:
        lr = r[-1]
        shift = len(r) - 1 - dv
        r = [lv * c for c in r[:-1]]  # the leading terms cancel
        for j, b in enumerate(v[:-1]):
            r[shift + j] -= lr * b
        while r and not r[-1]:
            r.pop()
    return r


def _qq_poly_gcd_coeffs(a, b):
    """Monic gcd coefficients over the rationals: the last nonzero remainder
    of the primitive pseudo-remainder sequence of the primitive integer
    parts (Brown, J. ACM 18, 1971; Knuth, TAOCP 2, 4.6.1), made monic."""
    u, v = _primitive_ints(a), _primitive_ints(b)
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _int_primitive(_pseudo_rem(u, v))
    lead = u[-1]
    return [c * lead for c in u] if lead in (1, -1) else [Fraction(c, lead) for c in u]


class FieldSpec:
    __slots__ = ("zero", "one", "name")

    def __init__(self, zero, one, name):
        self.zero = zero
        self.one = one
        self.name = name

    def __repr__(self):
        return f"FieldSpec({self.name})"


QQ = FieldSpec(0, 1, "QQ")


def _qq_normal(cs):
    """Rationals with every integral Fraction turned into an int."""
    return [c.numerator if type(c) is Fraction and c.denominator == 1 else c for c in cs]


def _inv_elem(x):
    """Inverse of a field element; a rational 1/n (so +-1 too) gives an int."""
    if isinstance(x, (int, Fraction)):
        n, d = x.numerator, x.denominator
        if not n:
            raise NonInvertibleError("division by zero in coefficient field")
        return n * d if n in (1, -1) else Fraction(d, n)
    return x.inverse()


def _coerced(op):
    """A binary operation on self and self._coerce(other), else NotImplemented."""
    def coerced(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else op(self, other)
    return coerced


class Poly:
    """Dense univariate polynomial; coeffs has no trailing zeros, () is zero."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs):
        self.var = var
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(_qq_normal(cs))

    @classmethod
    def zero(cls, var):
        return cls(var, ())

    @classmethod
    def one(cls, var):
        return cls(var, (1,))

    @classmethod
    def const(cls, var, value):
        return cls(var, (value,))

    @classmethod
    def gen(cls, var):
        return cls(var, (0, 1))

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other):
        if self.var != other.var:
            raise StructureError(f"variable mismatch {self.var}/{other.var}")

    def _coerce(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.var, other)
        return None

    @_coerced
    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        out = [x + y for x, y in zip(a, b)]
        out += a[len(out):] or b[len(out):]
        return Poly(self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.var, [-c for c in self.coeffs])

    @_coerced
    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    @_coerced
    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.var)
        if len(other.coeffs) == 1:
            return self.scale(other.coeffs[0])
        if len(self.coeffs) == 1:
            return other.scale(self.coeffs[0])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(self.var, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(Poly.one(self.var), self, n)

    def scale(self, c):
        return Poly(self.var, [a * c for a in self.coeffs])

    def divmod(self, other):
        self._check(other)
        if other.is_zero():
            raise NonInvertibleError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(self.var), self
        inv_lead = _inv_elem(other.lead())
        quo = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] * inv_lead
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Poly(self.var, quo), Poly(self.var, rem)

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(_inv_elem(self.lead()))

    def gcd(self, other):
        """Monic gcd over the rationals, by a primitive pseudo-remainder
        sequence on integer polynomials."""
        if self.is_zero():
            return other.monic()
        if other.is_zero():
            return self.monic()
        return Poly(self.var, _qq_poly_gcd_coeffs(self.coeffs, other.coeffs))

    def eval(self, x):
        """Horner evaluation at any ring element x (must absorb rational coeffs)."""
        if not self.coeffs:
            return x * 0
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return acc

    def __eq__(self, other):
        other = self._coerce(other) if not isinstance(other, Poly) else other
        if not isinstance(other, Poly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                bits.append(f"{c}")
            else:
                v = self.var if k == 1 else f"{self.var}^{k}"
                bits.append(v if c == 1 else f"({c})*{v}")
        return " + ".join(bits)


def _cancel(a: Poly, b: Poly):
    """a and b divided by their monic gcd."""
    if a.degree() > 0 and b.degree() > 0:
        g = a.gcd(b)
        if g.degree() > 0:
            return a.divmod(g)[0], b.divmod(g)[0]
    return a, b


class RatFunc:
    """Coprime fraction of Polys with monic denominator (canonical form).

    Only the constructor reduces by a gcd; ``reduce=False`` skips it for a
    num and den known to be coprime.  Products cross-cancel their reduced
    operands (Henrici 1956; Knuth, TAOCP 2, 4.5.1), so they, like inverses,
    quotients and powers, need no gcd on the result.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, reduce=True):
        if den.is_zero():
            raise NonInvertibleError("zero denominator")
        if num.is_zero():
            den = Poly.one(num.var)
        else:
            if reduce:
                num, den = _cancel(num, den)
            if den.lead() != 1:
                lead_inv = _inv_elem(den.lead())
                num = num.scale(lead_inv)
                den = den.scale(lead_inv)
        self.num = num
        self.den = den

    # -------------------------------------------------------------- builders

    @classmethod
    def from_poly(cls, p: Poly):
        return cls(p, Poly.one(p.var), reduce=False)

    @classmethod
    def zero(cls, var):
        return cls.from_poly(Poly.zero(var))

    @classmethod
    def one(cls, var):
        return cls.from_poly(Poly.one(var))

    @classmethod
    def const(cls, var, value):
        return cls.from_poly(Poly.const(var, value))

    @classmethod
    def gen(cls, var):
        return cls.from_poly(Poly.gen(var))

    @property
    def var(self):
        return self.num.var

    @property
    def field(self):
        return QQ

    def ring_zero(self):
        return RatFunc.zero(self.var)

    def ring_one(self):
        return RatFunc.one(self.var)

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.degree() == 0

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.var != self.var:
                raise StructureError(f"variable mismatch {self.var}/{other.var}")
            return other
        if isinstance(other, Poly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.var, other)
        return None

    @_coerced
    def __add__(self, other):
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    @_coerced
    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    @_coerced
    def __mul__(self, other):
        # cross-cancel; the parts left of two reduced fractions are coprime
        a_num, b_den = _cancel(self.num, other.den)
        b_num, a_den = _cancel(other.num, self.den)
        return RatFunc(a_num * b_num, a_den * b_den, reduce=False)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other):
        return self * other.inverse()

    @_coerced
    def __rtruediv__(self, other):
        return other * self.inverse()

    def inverse(self):
        if self.is_zero():
            raise NonInvertibleError("zero has no inverse")
        return RatFunc(self.den, self.num, reduce=False)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc(self.num ** n, self.den ** n, reduce=False)

    def eval(self, x):
        """Evaluate at a field element x (e.g. another RatFunc): num(x)/den(x)."""
        den = self.den.eval(x)
        num = self.num.eval(x)
        if isinstance(den, (int, Fraction)):
            if den == 0:
                raise NonInvertibleError("evaluation hits a pole")
            return _qq_normal([num * _inv_elem(den)])[0]
        return num / den

    def __eq__(self, other):
        try:
            other = self._coerce(other) if not isinstance(other, RatFunc) else other
        except StructureError:
            return NotImplemented
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_polynomial():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


class PolyFrac:
    """A fraction num / den of two uncapped MPolys over one variable tuple,
    never reduced.  Sums and products cross-multiply and a/b == c/d tests
    a d == c b, so no gcd runs; as the parts only grow, a long computation
    should go on from the short closed form of each proved subexpression."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly = None):
        den = num.ring_one() if den is None else den
        if num.cap is not None or den.cap is not None or num.vars != den.vars:
            raise StructureError("a PolyFrac needs two uncapped MPolys over one variable tuple")
        if den.is_zero():
            raise NonInvertibleError("zero denominator")
        self.num, self.den = num, den

    @classmethod
    def gen(cls, vars, name):
        return cls(MPoly.gen(vars, name))

    @property
    def vars(self):
        return self.num.vars

    def ring_zero(self):
        return PolyFrac(self.num.ring_zero())

    def ring_one(self):
        return PolyFrac(self.num.ring_one())

    def is_zero(self):
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyFrac(MPoly.const(self.vars, other))
        if isinstance(other, PolyFrac) and other.vars != self.vars:
            raise StructureError(f"variable mismatch {self.vars}/{other.vars}")
        return other if isinstance(other, PolyFrac) else None

    @_coerced
    def __add__(self, other):
        if self.den == other.den:
            return PolyFrac(self.num + other.num, self.den)
        return PolyFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return PolyFrac(-self.num, self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    @_coerced
    def __mul__(self, other):
        return PolyFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other):
        return self * other.inverse()

    @_coerced
    def __rtruediv__(self, other):
        return other * self.inverse()

    def inverse(self):
        if self.is_zero():
            raise NonInvertibleError("zero has no inverse")
        return PolyFrac(self.den, self.num)

    def __pow__(self, n):
        return self.inverse() ** -n if n < 0 else PolyFrac(self.num ** n, self.den ** n)

    @_coerced
    def __eq__(self, other):
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None  # equal values need not have equal parts

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"
