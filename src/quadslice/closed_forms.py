"""Parametrized closed-form solutions of the slice recursions.

Both weight families admit product formulas once the two vertex weights are
parametrized rationally:

* family "xgamma": series variable x, parameter gamma; solves the
  bicolored pair.
* family "yalpha": series variable y, parameter alpha; solves the context
  pair and the merged sequence.  The parametrizations agree under
  alpha = 1/gamma^2, y = gamma * x.

Values are truncated series over polynomial rings, so no gcd runs in
their arithmetic.  A yalpha value is a series in y over Q[alpha]: every
factor is polynomial in alpha and the denominator has constant term 1.  In
x the odd-index formulas carry inverse powers of gamma, so an xgamma value
is a series in u = x/gamma over Q[gamma]: a factor 1 - gamma^e x^k (e >= -1)
is 1 - gamma^(e + k) u^k, and the denominator is gamma times D(u), whose
constant term is 1.  The x^k coefficient is the u^k coefficient over
gamma^k.  Every displayed formula is a prefactor times a product of
factors (1 - param^e v^k) and their inverses.  The height-dependent weights
are built by one routine, ``ParamPoint.ratio``, from (e, k) lists; each
inverse factor is its geometric series, written down with no division.
The vertex weights and the large-height limits (``eval_tt``,
``eval_limits``, ``eval_y_limit``) multiply their few factors directly.
A point is built once per (family, cap) in a process (``param_point``)
and keeps every value it builds, so the checks share them.

Verification routines substitute the closed forms back into the recursion
systems (zero residual to a requested order, identically in the
parameter), check the two parametrizations against each other, match the
closed forms against the fixed-point solver by composing its weight
polynomials with the parametrized vertex weights (``series_match``), and
prove the purely rational identities of the constructive derivation as
gcd-free fractions of polynomials in y and alpha.  The closed forms start
at height 0 and the recursions at height 1; a lower height, like a negative
power in a factor, is a StructureError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from .errors import CheckReport, NonInvertibleError, StructureError, VerificationError
from .exactalg import MPoly
from .ratfunc import FieldSpec, Poly, PolyFrac
from .series import Series
from .slice_solver import SYSTEMS, solve_bw, solve_limit, solve_pq, solve_y

GAMMA_RING = FieldSpec(Poly.zero("gamma"), Poly.one("gamma"), "QQ[gamma]")
ALPHA_RING = FieldSpec(Poly.zero("alpha"), Poly.one("alpha"), "QQ[alpha]")


class ParamPoint:
    """family "xgamma" or "yalpha" with a series order cap; x^k is gamma^k
    u^k, so ``shift`` is 1 for xgamma and 0 for yalpha; ``built`` keeps the
    vertex weights, the limits, the closed forms by height and the inverse
    factors, so each is built once."""

    __slots__ = ("family", "cap", "var", "field", "param", "shift", "den_inv", "built")

    def __init__(self, family, cap):
        if family not in ("xgamma", "yalpha"):
            raise StructureError(f"unknown family {family!r}")
        if type(cap) is not int or cap < 1:
            raise StructureError(f"cap {cap!r} is not an int >= 1")
        self.family = family
        self.cap = cap
        self.shift = int(family == "xgamma")
        self.var = "u" if self.shift else "y"
        self.field = GAMMA_RING if self.shift else ALPHA_RING
        self.param = Poly.gen("gamma" if self.shift else "alpha")
        self.den_inv = _denominator(self).inv()
        self.built = {}

    # building blocks ------------------------------------------------------

    def factor(self, e, k):
        """The series 1 - param^e v^k, v = x or y; in u that is
        1 - gamma^(e + k) u^k; k >= 0."""
        if k < 0:
            raise StructureError(f"1 - param^{e} v^{k} has a negative power of v")
        coeffs = [self.field.zero] * (self.cap + 1)
        coeffs[0] = self.field.one
        if k <= self.cap:
            coeffs[k] = coeffs[k] - self.param ** (e + self.shift * k)
        return Series(self.var, self.cap, coeffs, self.field)

    def poly(self, coeffs_by_power):
        """Series with the given {power: Poly-or-int} coefficients."""
        coeffs = [self.field.zero] * (self.cap + 1)
        for k, c in coeffs_by_power.items():
            if k <= self.cap:
                coeffs[k] = self.field.one * c
        return Series(self.var, self.cap, coeffs, self.field)

    def geometric(self, e, k):
        """1 / (1 - param^e v^k) as its geometric series: the coefficient of
        v^(jk) is param^(j (e + shift k)).  Built once per (e, k)."""
        if k < 0:
            raise StructureError(f"1 - param^{e} v^{k} has a negative power of v")
        if k == 0:
            raise NonInvertibleError(f"1 - param^{e} is not a unit of the series ring")
        if (e, k) not in self.built:
            step, coeffs = e + self.shift * k, [self.field.zero] * (self.cap + 1)
            for j in range(self.cap // k + 1):
                coeffs[j * k] = Poly(self.param.var, [0] * (j * step) + [1])
            self.built[e, k] = Series(self.var, self.cap, coeffs, self.field)
        return self.built[e, k]

    def ratio(self, prefactor, num_factors, den_factors):
        out = prefactor
        for e, k in num_factors:
            out = out * self.factor(e, k)
        for e, k in den_factors:
            out = out * self.geometric(e, k)
        return out


@lru_cache(maxsize=8, typed=True)
def param_point(family, cap) -> ParamPoint:
    """The point of (family, cap), built once per process and shared with
    every value it keeps; callers must not mutate it."""
    return ParamPoint(family, cap)


def _denominator(p: ParamPoint) -> Series:
    """1 + y + alpha y - 6 alpha y^2 + alpha y^3 + alpha^2 y^3 + alpha^2 y^4.
    The xgamma denominator x + x^3 + gamma - 6 x^2 gamma + x^4 gamma +
    x gamma^2 + x^3 gamma^2 is gamma times this at alpha = gamma^2, y = u."""
    a = p.param ** (1 + p.shift)
    return p.poly({0: 1, 1: 1 + a, 2: -6 * a, 3: a + a * a, 4: a * a})


def _over_den(p: ParamPoint, m, n) -> Series:
    """v param^m / denominator^n, v = x or y: for xgamma, with x = gamma u,
    that is gamma^(m + 1 - n) u / D(u)^n."""
    return p.poly({1: p.param ** (m + p.shift * (1 - n))}) * p.den_inv ** n


def eval_tt(p: ParamPoint):
    """The two vertex weights as series at the parametrization point."""
    if "tt" not in p.built:
        if p.family == "xgamma":
            t_b = _over_den(p, 3, 2) * p.factor(-1, 1) ** 3 * p.factor(1, 3)
            t_w = _over_den(p, 1, 2) * p.factor(-1, 3) * p.factor(1, 1) ** 3
        else:
            t_b = _over_den(p, 0, 2) * p.factor(1, 1) ** 3 * p.factor(1, 3)
            t_w = _over_den(p, 1, 2) * p.factor(0, 1) ** 3 * p.factor(2, 3)
        p.built["tt"] = t_b, t_w
    return p.built["tt"]


def eval_limits(p: ParamPoint):
    """Large-height limit pair: (B, W) for xgamma, (P, Q) for yalpha."""
    if "limits" not in p.built:
        if p.family == "xgamma":
            first = _over_den(p, 2, 1) * p.factor(-1, 1) ** 2
            second = _over_den(p, 0, 1) * p.factor(1, 1) ** 2
        else:
            first = _over_den(p, 0, 1) * p.factor(1, 1) ** 2
            second = _over_den(p, 1, 1) * p.factor(0, 1) ** 2
        p.built["limits"] = first, second
    return p.built["limits"]


def eval_y_limit(p: ParamPoint) -> Series:
    """Q - P in closed form: (alpha - 1) y (1 - alpha y^2) / denominator."""
    if p.family != "yalpha":
        raise StructureError("merged limit lives in the yalpha family")
    if "Y" not in p.built:
        p.built["Y"] = _over_den(p, 0, 1) * (p.param - 1) * p.factor(1, 2)
    return p.built["Y"]


def eval_bw_closed(i, p: ParamPoint):
    """Closed forms of the bicolored weights at height i >= 0."""
    if p.family != "xgamma":
        raise StructureError("bicolored closed forms live in the xgamma family")
    if i < 0:
        raise StructureError(f"closed forms start at height 0, not {i}")
    if i not in p.built:
        B, W = eval_limits(p)
        if i % 2 == 0:
            p.built[i] = (p.ratio(B, [(0, i), (1, i + 3)], [(1, i + 1), (0, i + 2)]),
                          p.ratio(W, [(0, i), (-1, i + 3)], [(-1, i + 1), (0, i + 2)]))
        else:
            p.built[i] = (p.ratio(B, [(-1, i), (0, i + 3)], [(0, i + 1), (-1, i + 2)]),
                          p.ratio(W, [(1, i), (0, i + 3)], [(0, i + 1), (1, i + 2)]))
    return p.built[i]


def eval_pqy_closed(i, p: ParamPoint):
    """Closed forms (P_i, Q_i, Y_{2i}, Y_{2i+1}) at height i >= 0.

    Y_{2i} coincides with P_i by construction; Y_{2i+1} is checked against
    Q_{i+1} - P_{i+1} before returning.
    """
    if p.family != "yalpha":
        raise StructureError("context closed forms live in the yalpha family")
    if i < 0:
        raise StructureError(f"closed forms start at height 0, not {i}")
    P, Q = eval_limits(p)
    for j in (i, i + 1):
        if j not in p.built:
            p.built[j] = (p.ratio(P, [(0, j), (1, j + 3)], [(0, j + 1), (1, j + 2)]),
                          p.ratio(Q, [(0, j), (2, j + 3)], [(1, j + 1), (1, j + 2)]))
    (p_i, q_i), (p_next, q_next) = p.built[i], p.built[i + 1]
    if ("Y", i) not in p.built:
        y_odd = p.ratio(eval_y_limit(p), [(0, i + 1), (1, i + 3)], [(0, i + 2), (1, i + 2)])
        if y_odd != q_next - p_next:
            raise VerificationError(f"Y_{2 * i + 1} disagrees with Q_{i + 1} - P_{i + 1}")
        p.built["Y", i] = y_odd
    return p_i, q_i, p_i, p.built["Y", i]


# -------------------------------------------------------------- verification

def _closed_heights(system, p: ParamPoint):
    """Height accessors (x, y) of a system's closed forms, indexed as its
    rule reads them; the point keeps each height it evaluates."""
    closed = eval_bw_closed if system == "bw" else eval_pqy_closed
    if system == "y":  # x(i) = Y_{2i}, y(i) = Y_{2i-1}
        return (lambda i: closed(i, p)[2]), (lambda i: closed(i - 1, p)[3])
    return (lambda i: closed(i, p)[0]), (lambda i: closed(i, p)[1])


def verify_recursion(system, i_range=range(1, 7), M=8) -> CheckReport:
    """Residuals of the recursion systems under the closed forms.

    system in {"bw", "pq", "y"}; each residual value - rule(...) must
    vanish identically in the parameter up to order M in the series variable,
    at every height of i_range, each an int of at least 1.
    """
    if M < 2:
        raise StructureError("need order >= 2")
    if system not in SYSTEMS:
        raise StructureError(f"unknown system {system!r}")
    rule, name, _ = SYSTEMS[system]
    report = CheckReport(f"closed-form recursion residuals: {system} to order {M}")
    p = param_point("xgamma" if system == "bw" else "yalpha", M)
    t_b, t_w = eval_tt(p)
    x, y = _closed_heights(system, p)
    where = "pair" if system == "y" else "height"
    for i in i_range:
        if type(i) is not int:
            raise StructureError(f"{where} {i!r} is not an int")
        if i < 1:
            raise StructureError(f"the recursions start at {where} 1, not {i}")
        rhs_x, rhs_y = rule(x, y, i, t_b, t_w)
        if not (x(i) - rhs_x).is_zero() or not (y(i) - rhs_y).is_zero():
            raise VerificationError(f"{name} residual nonzero at {where} {i}")
        report.add(f"{where} {i}: both residuals vanish")
    return report


def _subst_to_x(series: Series) -> Series:
    """Substitute alpha = 1/gamma^2, y = gamma x = gamma^2 u into a yalpha
    series: alpha^j y^k goes to gamma^(2k - 2j) u^k, a polynomial map while
    the alpha-degree of each y^k coefficient is at most k."""
    out = []
    for k, c in enumerate(series.coeffs):
        if c.degree() > k:
            raise VerificationError(f"alpha-degree {c.degree()} above {k} at y^{k}")
        cs = [0] * (2 * k + 1)
        for j, a in enumerate(c.coeffs):
            cs[2 * k - 2 * j] = a
        out.append(Poly("gamma", cs))
    return Series("u", series.cap, out, GAMMA_RING)


def param_equivalence(M=6) -> CheckReport:
    """The two parametrizations agree under alpha = 1/gamma^2, y = gamma x."""
    report = CheckReport(f"parametrization equivalence to order {M}")
    px = param_point("xgamma", M)
    py = param_point("yalpha", M)
    tx = eval_tt(px)
    ty = eval_tt(py)
    for name, a, b in (("tb", tx[0], ty[0]), ("tw", tx[1], ty[1])):
        if a != _subst_to_x(b):
            raise VerificationError(f"substituted {name} disagrees between families")
        report.add(f"{name} matches after substitution")
    BW = eval_limits(px)
    PQ = eval_limits(py)
    for name, a, b in (("P=B", BW[0], PQ[0]), ("Q=W", BW[1], PQ[1])):
        if a != _subst_to_x(b):
            raise VerificationError(f"substituted limit {name} failed")
        report.add(f"limit {name} after substitution")
    return report


def _powers(t: Series, n):
    """[1, t, ..., t^n]."""
    pw = [t.ring_one()]
    for _ in range(n):
        pw.append(pw[-1] * t)
    return pw


def _compose(poly: MPoly, t_b: Series, pw) -> Series:
    """poly at (t_b, t_w), given the powers pw of t_w up to poly's tw-degree."""
    rows = [t_b.ring_zero()] * (1 + max((e[0] for e in poly.terms), default=0))
    for (a, b), c in poly.terms.items():  # row a: the coefficient of t_b^a
        rows[a] = rows[a] + pw[b] * c
    out = rows[-1]
    for row in reversed(rows[:-1]):  # Horner in t_b
        out = out * t_b + row
    return out


def series_match(N=5) -> CheckReport:
    """Fixed-point solver outputs, composed with the parametrized weights,
    equal the closed forms to order N (both families, heights 1..4)."""
    if N < 3:
        raise StructureError("need order >= 3")
    report = CheckReport(f"solver vs closed forms to order {N}")

    def compare(tt, pairs, line):  # tt: t_b and the powers of t_w
        for weight, closed, failure in pairs:
            if _compose(weight, *tt) != closed:
                raise VerificationError(failure)
        report.add(line)

    px = param_point("xgamma", N)
    t_b, t_w = eval_tt(px)
    tt_x = t_b, _powers(t_w, N)
    bw = solve_bw(N)
    for i in range(1, 5):
        b_i, w_i = eval_bw_closed(i, px)
        compare(tt_x, [(bw.first[i], b_i, f"bicolored first weight mismatch at height {i}"),
                       (bw.second[i], w_i, f"bicolored second weight mismatch at height {i}")],
                f"bicolored height {i} matches")
    py = param_point("yalpha", N)
    t_b, t_w = eval_tt(py)
    tt_y = t_b, _powers(t_w, N)
    pq = solve_pq(N)
    yfam = solve_y(N)
    for i in range(1, 5):
        p_i, q_i, y_even, y_odd = eval_pqy_closed(i, py)
        compare(tt_y, [(pq.first[i], p_i, f"context first weight mismatch at height {i}"),
                       (pq.second[i], q_i, f"context second weight mismatch at height {i}"),
                       (yfam.first[2 * i], y_even, f"merged even weight mismatch at {2 * i}"),
                       (yfam.first[2 * i + 1], y_odd, f"merged odd weight mismatch at {2 * i + 1}")],
                f"context/merged height {i} matches")
    # the limits absorb every height beyond the order
    B, W = eval_limits(px)
    lim = solve_limit(N)
    compare(tt_x, [(lim.first, B, "limit composition mismatch"), (lim.second, W, "limit composition mismatch")],
            "limit pair matches")
    return report


def large_height_collapse(M=5) -> CheckReport:
    """For i > M every height-dependent factor is 1 + O(v^{M+1}), so the
    closed forms collapse to the limit pair exactly at cap M; checked at
    height M + 1."""
    i = M + 1
    report = CheckReport(f"large-height collapse at order {M}, height {i}")
    px = param_point("xgamma", M)
    B, W = eval_limits(px)
    bi, wi = eval_bw_closed(i, px)
    if bi != B or wi != W:
        raise VerificationError("bicolored closed form did not collapse to the limit")
    report.add("bicolored collapse")
    py = param_point("yalpha", M)
    P, Q = eval_limits(py)
    pi, qi, _, _ = eval_pqy_closed(i, py)
    if pi != P or qi != Q:
        raise VerificationError("context closed form did not collapse to the limit")
    report.add("context collapse")
    return report


# ------------------------------------------ rational identities in (y, alpha)

@lru_cache(maxsize=None)
def _tower(vars=("y", "alpha")):
    """The constructive route's quantities as gcd-free fractions of
    polynomials in vars, which begin with y and alpha: the denominator D,
    the limits P, Q over D, and the displayed forms of the merged limit
    Y = Q - P, the first merged coefficient Y_1, the ladder coefficients
    A_0, A_1, the hard-piece weight w and d = (Y_1 - Y)/Y_1, which
    ``section6_algebra`` proves equal to their definitions.  Each
    denominator is divided out factor by factor, so sums over shared
    factors multiply nothing.  Built on first use and shared; callers must
    not mutate it."""
    y, a = PolyFrac.gen(vars, vars[0]), PolyFrac.gen(vars, vars[1])
    one = y.ring_one()
    D = one + y + a * y - 6 * a * y ** 2 + a * y ** 3 + a ** 2 * y ** 3 + a ** 2 * y ** 4
    over_ay_ay3 = one / (one - a * y) / (one - a * y ** 3)
    return SimpleNamespace(
        a=a, y=y, one=one, D=D,
        P=y * (one - a * y) ** 2 / D,
        Q=a * y * (one - y) ** 2 / D,
        Y=(a - 1) * y * (one - a * y ** 2) / D,
        Y1=(a - 1) * y * (one - a * y ** 3) / (one + y) / D,
        A0=(one - a * y ** 2) ** 2 * over_ay_ay3,
        A1=-D * over_ay_ay3,
        w=-one / (y + 1 / y + 2),
        d=-y * (one - a * y) / (one - a * y ** 3),
    )


def _series_poly(s: Series, vars) -> PolyFrac:
    """A yalpha series as the polynomial in (y, alpha) of its kept terms."""
    return PolyFrac(MPoly(vars, {(k, j): c for k, cy in enumerate(s.coeffs) for j, c in enumerate(cy.coeffs)}))


def section6_algebra() -> CheckReport:
    """The rational-function identities behind the constructive derivation.

    Everything is verified exactly as fractions of polynomials in y and
    alpha, with no gcd, as a chain: each definition is proved equal to its
    display, and the display stands for it from then on.  The chain runs
    through the displayed (y, alpha) forms of Y, Y_1, A_0, A_1; the
    hard-piece weight w = A_0 A_1 (Y_1/Y)^2 P = -1/(y + 1/y + 2);
    d = (Y_1 - Y)/Y_1 and its two displayed forms; the defining relation
    alpha = (d + y)/(y^2 (1 + d y)); the characteristic equation; and the
    recovery chain expressing Q in terms of P and then pinning P.
    """
    T = _tower()
    a, y, one, D, P, Q, Y = T.a, T.y, T.one, T.D, T.P, T.Q, T.Y
    Y1, A0, A1, w, d = T.Y1, T.A0, T.A1, T.w, T.d
    t_b, t_w = P * (one - P - 2 * Q), Q * (one - Q - 2 * P)
    # the closed t displays against the series evaluation route: with den a
    # unit series, t D^2 = t_series den^2 as polynomials of y-degree <= 8
    # means t = t_series to order 8
    p = param_point("yalpha", 8)
    den = _denominator(p)
    chain = [  # (report line, [(lhs, rhs, failure), ...]) in proof order
        ("Y display", [(Q - P, Y, "merged limit display failed")]),
        ("vertex weights match their displays", [
            (D, _series_poly(den, y.vars), "denominator display failed"),
            *((t * D ** 2, _series_poly(t_series * den * den, y.vars), "vertex weight parametrization display failed")
              for t, t_series in zip((t_b, t_w), eval_tt(p)))]),
        ("Y_1 display", [(Y * (one - P - 2 * Q) / (one - 2 * Q), Y1, "first merged coefficient display failed")]),
        ("A_0 and A_1 displays", [(P * (one - P - Q) / t_b, A0, "A_0 display failed"),
                                  (-P / t_b, A1, "A_1 display failed")]),
        ("w identity both forms", [(A0 * A1 * (Y1 / Y) ** 2 * P, w, "hard-piece weight identity failed"),
                                   (w, -P * (one - Q - P) / (one - 2 * Q) ** 2, "hard-piece weight in P, Q failed")]),
        ("characteristic equation", [
            ((one - 2 * Q) ** 2, (2 + y + 1 / y) * P * (one - P - Q), "characteristic equation failed")]),
        ("d displays and alpha recovery", [((Y1 - Y) / Y1, d, "d display failed"),
                                           (d, -P / (one - P - 2 * Q), "d in P, Q failed"),
                                           ((d + y) / (y ** 2 * (one + d * y)), a, "alpha recovery failed")]),
        ("recovery chain pins P and Q", [
            (-P * (one + y) * (one - a * y ** 2) / (2 * y * (one - a * y)) + Fraction(1, 2), Q,
             "Q recovery from P failed"),
            (P * D, y * (one - a * y) ** 2, "P determination failed")]),
    ]
    report = CheckReport("rational identities of the constructive route")
    for line, identities in chain:
        for lhs, rhs, failure in identities:
            if lhs != rhs:
                raise VerificationError(failure)
        report.add(line)
    return report
