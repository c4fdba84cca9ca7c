"""Univariate polynomials and rational functions over a field, stackable.

Poly is a dense coefficient tuple over a coefficient field described by a
FieldSpec (zero and one exemplars plus a name).  The base field is the
rationals; since a RatFunc is itself a field element, fields can be nested,
e.g. rational functions in one parameter whose coefficients are rational
functions in another.  That tower is how two-parameter identities are
verified exactly.  Over QQ (zero 0, one 1) a coefficient is stored as an int
where it is integral and as a Fraction otherwise, so integer inputs stay on
int arithmetic; the constructor strips trailing zeros and turns an integral
Fraction back into an int.

Poly.gcd runs a primitive pseudo-remainder sequence: over QQ on integer
polynomials, and over a rational-function field base(v) on polynomials over
base[v], after clearing the v-denominators, with each remainder's content
taken by the gcd over base (recursively for a deeper tower).  Only the last
remainder is made monic over base(v).

RatFunc is kept fully canonical: numerator and denominator are coprime and
the denominator is monic, so two arithmetic routes to the same value produce
structurally equal objects and == is reliable.  RatFunc says where the gcd runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

from .errors import NonInvertibleError, StructureError
from .exactalg import power


def _int_primitive(ints):
    """Int coefficient list divided by its content."""
    g = 0
    for c in ints:
        g = _int_gcd(g, c)
    return [c // g for c in ints] if g > 1 else ints


def _primitive_ints(coeffs):
    """Clear denominators and content: rational coeff list -> primitive ints."""
    lcm = 1
    for c in coeffs:
        if type(c) is Fraction:
            d = c.denominator
            lcm = lcm * d // _int_gcd(lcm, d)
    return _int_primitive([c.numerator * (lcm // c.denominator) for c in coeffs])


def _pseudo_rem(u, v):
    """Pseudo-remainder of little-endian coefficient lists over an integral
    domain: ints, or Polys over a field."""
    r = list(u)
    lv = v[-1]
    dv = len(v) - 1
    zero = lv - lv
    while r and len(r) - 1 >= dv:
        lr = r[-1]
        shift = len(r) - 1 - dv
        r = [lv * c for c in r[:-1]]  # the leading terms cancel
        for j, b in enumerate(v[:-1]):
            r[shift + j] -= lr * b
        while r and r[-1] == zero:
            r.pop()
    return r


def _prs_last(u, v, primitive):
    """Last nonzero remainder of the primitive pseudo-remainder sequence of
    two primitive coefficient lists, a gcd up to a unit (Brown, J. ACM 18,
    1971; Knuth, TAOCP 2, 4.6.1); primitive divides a list by its content."""
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, primitive(_pseudo_rem(u, v))
    return u


def _qq_poly_gcd_coeffs(a, b):
    """Monic gcd coefficients over the rationals via primitive integer PRS."""
    u = _prs_last(_primitive_ints(a), _primitive_ints(b), _int_primitive)
    lead = u[-1]
    return [c * lead for c in u] if lead in (1, -1) else [Fraction(c, lead) for c in u]


def _poly_primitive(ps):
    """Polys over a field divided by their gcd: a primitive list over base[v]."""
    g = None
    for p in reversed(ps):
        g = p if g is None else g.gcd(p)
        if g.degree() == 0:
            return ps
    return [p.divmod(g)[0] for p in ps] if ps else ps


def _cleared(p):
    """A Poly over base(v) times the lcm of its coefficients' denominators,
    made primitive: a coefficient list of Polys in v over base."""
    lcm = None
    for d in {c.den for c in p.coeffs if c.den.degree() > 0}:  # monic, so any order gives one lcm
        lcm = d if lcm is None else lcm * d.divmod(lcm.gcd(d))[0]
    return _poly_primitive([c.num if lcm is None else c.num * lcm.divmod(c.den)[0] for c in p.coeffs])


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


class Poly:
    """Dense univariate polynomial; coeffs has no trailing zeros, () is zero."""

    __slots__ = ("var", "coeffs", "field")

    def __init__(self, var, coeffs, field=QQ):
        self.var = var
        self.field = field
        cs = list(coeffs)
        if field is QQ:
            while cs and not cs[-1]:
                cs.pop()
            cs = _qq_normal(cs)
        else:
            while cs and cs[-1] == field.zero:
                cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, var, field=QQ):
        return cls(var, (), field)

    @classmethod
    def one(cls, var, field=QQ):
        return cls(var, (field.one,), field)

    @classmethod
    def const(cls, var, value, field=QQ):
        return cls(var, (value,), field)

    @classmethod
    def gen(cls, var, field=QQ):
        return cls(var, (field.zero, field.one), field)

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.field.zero

    def _check(self, other):
        if self.var != other.var:
            raise StructureError(f"variable mismatch {self.var}/{other.var}")

    def _coerce(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.var, self.field.one * other, self.field)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [x + y for x, y in zip(a, b)]
        out += a[len(out):] or b[len(out):]
        return Poly(self.var, out, self.field)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.var, [-c for c in self.coeffs], self.field)

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
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.var, self.field)
        zero = self.field.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(self.var, out, self.field)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(Poly.one(self.var, self.field), self, n)

    def scale(self, c):
        return Poly(self.var, [a * c for a in self.coeffs], self.field)

    def divmod(self, other):
        self._check(other)
        if other.is_zero():
            raise NonInvertibleError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(self.var, self.field), self
        inv_lead = _inv_elem(other.lead())
        quo = [self.field.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] * inv_lead
            quo[k] = c
            if c != self.field.zero:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Poly(self.var, quo, self.field), Poly(self.var, rem, self.field)

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(_inv_elem(self.lead()))

    def gcd(self, other):
        """Monic gcd by a primitive pseudo-remainder sequence.  Over the
        rationals it runs on integer polynomials; over rational functions in
        v over a base field it runs on polynomials over base[v], taking
        contents with the base field's gcd, and is made monic once."""
        if self.is_zero():
            return other.monic()
        if other.is_zero():
            return self.monic()
        if self.field is QQ:
            return Poly(self.var, _qq_poly_gcd_coeffs(self.coeffs, other.coeffs), QQ)
        if not isinstance(self.field.zero, RatFunc):
            raise StructureError(f"no gcd over {self.field.name}")
        u = _prs_last(_cleared(self), _cleared(other), _poly_primitive)
        lead = u[-1]
        return Poly(self.var, [RatFunc(c, lead) for c in u[:-1]] + [self.field.one], self.field)

    def eval(self, x):
        """Horner evaluation at any ring element x (must absorb field coeffs)."""
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
            if c == self.field.zero:
                continue
            if k == 0:
                bits.append(f"{c}")
            else:
                v = self.var if k == 1 else f"{self.var}^{k}"
                bits.append(v if c == self.field.one else f"({c})*{v}")
        return " + ".join(bits)


def _exact_quo(p, u, g):
    """p divided by the monic associate of g: p's cleared primitive part u
    divided over base[v] by g, each coefficient division exact, and scaled
    back to the leading coefficient of p."""
    r, dg = list(u), len(g) - 1
    q = [None] * (len(u) - dg)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + dg].divmod(g[-1])[0]
        for j, c in enumerate(g[:-1]):
            r[k + j] = r[k + j] - q[k] * c
    m = p.lead() / RatFunc.from_poly(q[-1])
    return Poly(p.var, [m * c for c in q], p.field)


def _cancel(a: Poly, b: Poly):
    """a and b divided by their monic gcd; over base(v) that runs on the
    cleared primitive parts over base[v], with no division over base(v)."""
    if a.degree() > 0 and b.degree() > 0:
        if a.field is QQ:
            g = a.gcd(b)
            return (a.divmod(g)[0], b.divmod(g)[0]) if g.degree() > 0 else (a, b)
        ca, cb = _cleared(a), _cleared(b)
        g = _prs_last(ca, cb, _poly_primitive)
        if len(g) > 1:
            return _exact_quo(a, ca, g), _exact_quo(b, cb, g)
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
            den = Poly.one(num.var, num.field)
        else:
            if reduce:
                num, den = _cancel(num, den)
            if den.lead() != den.field.one:
                lead_inv = _inv_elem(den.lead())
                num = num.scale(lead_inv)
                den = den.scale(lead_inv)
        self.num = num
        self.den = den

    # -------------------------------------------------------------- builders

    @classmethod
    def from_poly(cls, p: Poly):
        return cls(p, Poly.one(p.var, p.field), reduce=False)

    @classmethod
    def zero(cls, var, field=QQ):
        return cls.from_poly(Poly.zero(var, field))

    @classmethod
    def one(cls, var, field=QQ):
        return cls.from_poly(Poly.one(var, field))

    @classmethod
    def const(cls, var, value, field=QQ):
        return cls.from_poly(Poly.const(var, value, field))

    @classmethod
    def gen(cls, var, field=QQ):
        return cls.from_poly(Poly.gen(var, field))

    @property
    def var(self):
        return self.num.var

    @property
    def field(self):
        return self.num.field

    def ring_zero(self):
        return RatFunc.zero(self.var, self.field)

    def ring_one(self):
        return RatFunc.one(self.var, self.field)

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
            return RatFunc.const(self.var, self.field.one * other, self.field)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

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
        # cross-cancel; the parts left of two reduced fractions are coprime
        a_num, b_den = _cancel(self.num, other.den)
        b_num, a_den = _cancel(other.num, self.den)
        return RatFunc(a_num * b_num, a_den * b_den, reduce=False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
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

    def subst_reciprocal(self):
        """The rational function z -> self(1/z), with z = self.var."""
        z = RatFunc.gen(self.var, self.field)
        p = self.num.degree()
        q = self.den.degree()
        num_rev = Poly(self.var, tuple(reversed(self.num.coeffs)), self.field)
        den_rev = Poly(self.var, tuple(reversed(self.den.coeffs)), self.field)
        out = RatFunc(num_rev, den_rev, reduce=False)  # reversal keeps coprimality
        return out * z ** (q - p) if q >= p else out / z ** (p - q)

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


def ratfunc_field(var, base=QQ) -> FieldSpec:
    """The field of rational functions in var over base, as a FieldSpec."""
    return FieldSpec(
        RatFunc.zero(var, base),
        RatFunc.one(var, base),
        f"{base.name}({var})",
    )
