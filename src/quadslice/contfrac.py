"""Continued fractions in the boundary-length variable and their coefficient
extraction through Hankel determinants.

Two fraction shapes appear:

* Stieltjes: 1 / (1 - z c_1 / (1 - z c_2 / ...)), the two-term fraction
  below with rungs (0, c_1, 0, c_2, ...); the rung coefficients come back
  from the series coefficients as ratios of consecutive Hankel
  determinants h_i^(0) = det(F_{n+m}), h_i^(1) = det(F_{n+m+1}).
* two-term rungs: 1 / (1 - z Y_1 - z Y_2 / (1 - z Y_3 - z Y_4 / ...)).
  Here the plain series underdetermines the rungs; extraction additionally
  needs Y_1 and a companion series whose rungs are the transformed weights
  tilde(Y)_{2i-1} = 1/Y_{2i-1}, tilde(Y)_{2i} = Y_{2i}/(Y_{2i-1} Y_{2i+1}).
  The two series splice into a two-sided ladder j_n (j_0 = 1, j_n = Y_1 *
  J_{n-1} for n >= 1, j_{-n} = companion coefficient n), and the rungs are
  bi-ratios of the Hankel-type determinants H_i^(0) = det(j_{n+m-i-1}),
  H_i^(1) = det(j_{n+m-i}) over 1 <= n, m <= i, with H_0^(0) = H_0^(1) = 1.

For the concrete weight series of the local-maxima ensemble the companion
coefficients are not polynomials in the two vertex weights (they carry
inverse powers of Q - P), so the bivariate pipeline works in the tau
grading throughout and additionally rescales the ladder by tau^(-n).
Entry n of the raw ladder has valuation exactly n on both sides (for
n < 0 a Laurent series), so that geometric rescaling gives every entry
valuation 0; it multiplies each extracted rung by tau^(-1) and leaves the
bi-ratios otherwise unchanged.  The final shift by tau restores the rung
values.

The tau-coefficients of the main ladder entries are polynomials in rho,
and those of the companion coefficient n have denominators dividing
(rho - 1)^(2n).  So the graded ladder is held over Q[rho], with entry -n
computed directly as (rho - 1)^(2n) j_{-n} by one exact series division.
In H_i^(s) row n is scaled by (rho - 1)^(2 max(0, i-n-s)), which clears
every denominator in it.  Matrix and scaling depend on i - s alone, so
H_k^(0) and H_{k+1}^(1) are the last two leading minors of one matrix, and
one run of Berkowitz's recurrence per k gives both.  It runs over Q[rho]
with ring operations only: no polynomial gcd, and one big-integer product
per series multiply.  The bi-ratios are exact series divisions in Q[rho]
with the powers of (rho - 1) kept as integer bookkeeping; a nonzero
remainder raises NonInvertibleError naming the rung.  H_i^(s) itself is not
polynomial in rho in general, so it is never formed.

For finite fractions the whole object is a rational function of z and the
companion is forced: tilde(J)(z) = -(Y_1/z) J(1/z) with Y_1 read off the
large-z limit.  That reflection is verified here exactly, and conjecturally
transplanted to the infinite case to build the companion series.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .errors import CheckReport, NonInvertibleError, StructureError, VerificationError
from .exactalg import (
    MPoly,
    _ring_one_of,
    _ring_zero_of,
    bipoly_one,
    det_division_free,
    tb,
)
from .ratfunc import QQ, FieldSpec, Poly, RatFunc
from .series import RHO, RHO_RING, TAU, Series, bipoly_to_tau, graded_div, tau_to_bipoly
from .slice_solver import a0_a1_times_tb, f_n, f_upto, solve_limit, y1_series
from .lattice_paths import WeightTable, path_sums, z_const


def _ring_field(exemplar) -> FieldSpec:
    return FieldSpec(_ring_zero_of(exemplar), _ring_one_of(exemplar), "ring")


def _fold(Y, rungs, one, z):
    """The two-term fraction 1 / (1 - z Y_1 - z Y_2 / (1 - z Y_3 - ...)) cut
    after ``rungs`` rungs, as a convergent pair (num, den) folded bottom-up
    by ring operations alone: under rung i the tail num/den becomes
    den / (den - z (den Y_{2i-1} + num Y_{2i})).  A missing Y_{2 rungs} ends
    the last rung at 1 - z Y_{2 rungs - 1}.

    A rung pair of rationals is cleared into the pair by the common
    denominator s of the two, as s den / (s den - z (den (s Y_{2i-1}) +
    num (s Y_{2i}))), the same fraction on integer rungs, so a fold over QQ
    stays on ints.  So den(0) is 1 for ring rungs and the product of the
    scales s for rational ones; a test of the pair must be invariant under
    a common scale."""
    num = den = one
    for i in range(rungs, 0, -1):
        pair, top = Y[2 * i - 2:2 * i], den
        if all(isinstance(y, (int, Fraction)) for y in pair):
            s = lcm(*(y.denominator for y in pair))
            pair = [y.numerator * (s // y.denominator) for y in pair]
            if s != 1:
                top = den * s
        body = den * pair[0]
        if len(pair) > 1:
            body = body + num * pair[1]
        num, den = top, top - z * body
    return num, den


def expand(coeffs, L, kind="newtype", finite=False) -> Series:
    """The fraction to order L in z: num / den of its convergent pair over
    series truncated at L, by one exact series division.  Over QQ the pair
    is folded on ints and den(0) is the product of the rung scales; over a
    ring of rungs den(0) is 1.

    kind in {"stieltjes", "newtype"}; coeffs are the rung values c_1..c_K
    (Stieltjes) or Y_1..Y_K (two-term rungs).  finite=True means the
    fraction terminates exactly after the supplied coefficients; a finite
    two-term fraction has an odd number of them.  A Stieltjes fraction is
    the two-term fraction with rungs Y = (0, c_1, 0, c_2, ...), so both
    kinds share one loop."""
    if kind not in ("stieltjes", "newtype"):
        raise StructureError(f"unknown fraction kind {kind!r}")
    Y = list(coeffs)
    if not Y:
        raise StructureError("need at least one rung coefficient")
    if finite and kind == "newtype" and len(Y) % 2 == 0:
        raise StructureError("a finite two-term fraction has 2*alpha - 1 coefficients")
    if kind == "stieltjes":
        zero = _ring_zero_of(Y[0])
        Y = [v for c in Y for v in (zero, c)]
    # order L sees the descent weight of rung L
    if not finite and len(Y) < 2 * L:
        raise StructureError(f"need coefficients up to index {2 * L} for order {L}")
    rungs = (len(Y) + 1) // 2
    field = _ring_field(Y[0])
    one = Series.one("z", L, field)
    z = Series.gen("z", L, field)
    return Series.divide(*_fold(Y, rungs if finite else min(rungs, L), one, z))


# ----------------------------------------------------------------- division

def _div(a, b):
    """Exact division for ladder/Hankel values of any supported type."""
    if isinstance(a, Series):
        return a.divide(b)
    if isinstance(a, MPoly) or isinstance(b, MPoly):
        return graded_div(a, b)
    if type(a) is int and type(b) is int:
        return Fraction(a, b)  # int / int would be a float
    return a / b


# ------------------------------------------------------- Stieltjes extraction

def stieltjes_extract(F: Series, i_max):
    """Recover rungs c_1..c_{2 i_max} from a Stieltjes series.

    Returns {("b", 2i): value, ("w", 2i-1): value} following the slice
    naming: even rungs are the black-rooted weights, odd rungs white.
    Requires F known to order 2*i_max with F_0 = 1.  The Hankel
    determinants h_i^(0) and h_i^(1) are the leading minors of two
    matrices, so all of them come from two determinant runs.
    """
    if F.cap < 2 * i_max:
        raise StructureError("series order too small for the requested rungs")
    one = _ring_one_of(F.coeffs[0])
    if F.coeffs[0] != one:
        raise StructureError("Stieltjes series must start at 1")

    # h_i^(s) = det(F_{n+m+s}), 0 <= n, m <= i, is the leading (i+1)-minor
    # of the family k = 1 - s on the one-sided ladder j_k = F_k; h_{-1} = 1
    ladder = JnLadder(enumerate(F.coeffs), one)
    h0 = [one] + _hankel_family(ladder, 1, i_max + 1)
    h1 = [one] + _hankel_family(ladder, 0, i_max)
    out = {}
    for i in range(1, i_max + 1):
        out[("w", 2 * i - 1)] = _div(h1[i] * h0[i - 1], h1[i - 1] * h0[i])
        out[("b", 2 * i)] = _div(h0[i + 1] * h1[i - 1], h0[i] * h1[i])
    return out


# --------------------------------------------------------- two-sided ladder

class JnLadder:
    """Two-sided coefficient ladder j_n with the first rung value y1.

    A ladder over a ring that lacks the entries j_{-n} themselves carries a
    clearing factor u: entry -n holds u^n j_{-n}, which lies in the ring.
    ``clear`` is None for a ladder over a field, whose entry -n is j_{-n}.
    """

    __slots__ = ("j", "y1", "clear")

    def __init__(self, j, y1, clear=None):
        self.j = dict(j)
        self.y1 = y1
        self.clear = clear

    def __getitem__(self, n):
        if n not in self.j:
            raise StructureError(f"ladder entry {n} not populated")
        return self.j[n]


def build_jn(J: Series, y1, Jt: Series) -> JnLadder:
    """Splice the main and companion series into the two-sided ladder."""
    one = _ring_one_of(y1)
    if J.coeffs[0] != one or Jt.coeffs[0] != one:
        raise StructureError("both series must have constant term 1")
    j = {0: one}
    for n in range(1, J.cap + 2):
        j[n] = y1 * J.coeffs[n - 1]
    for n in range(1, Jt.cap + 1):
        j[-n] = Jt.coeffs[n]
    return JnLadder(j, y1)


def _hankel_family(ladder: JnLadder, k, size):
    """The leading minors of (j_{n+m-1-k}), 1 <= n, m <= size, from one
    determinant run: minor i is H_i^(i-k).

    On a ladder with a clearing factor u, row n is first scaled by
    u^max(0, k-n), the power that clears its most negative entry j_{n-k},
    whatever the minor; so minor i comes back as u^e H_i^(i-k) with
    e = _clearing_power(i, i - k).
    """
    def entry(n, m):
        idx = n + m - 1 - k
        extra = max(0, k - n) - max(0, -idx)  # >= 0, as idx >= n - k
        if ladder.clear is None or not extra:
            return ladder[idx]
        return ladder[idx] * ladder.clear ** extra

    return det_division_free([[entry(n, m) for m in range(1, size + 1)] for n in range(1, size + 1)])


def hankel_type_dets(ladder: JnLadder, i, shift):
    """H_i^(shift) = det(j_{n+m-i-1+shift}) over 1 <= n, m <= i; H_0 = 1.

    The single-determinant view of ``_hankel_family``: the last minor of
    family i - shift, row-scaled as there on a ladder with a clearing
    factor.  A negative order raises StructureError.
    """
    if i < 0:
        raise StructureError(f"Hankel-type order {i} is negative")
    if i == 0:
        return _ring_one_of(ladder.y1)
    return _hankel_family(ladder, i - shift, i)[-1]


def _clearing_power(i, shift):
    """Power of the clearing factor in the row-scaled H_i^(shift)."""
    return sum(max(0, i - n - shift) for n in range(1, i + 1))


def newtype_extract(ladder: JnLadder, i_max):
    """Recover Y_1..Y_{2 i_max} from the ladder via the bi-ratio formulas

        Y_{2i-1} = H_i^(1) H_{i-1}^(0) / (H_{i-1}^(1) H_i^(0)),
        Y_{2i} = H_{i-1}^(0) H_{i+1}^(1) / (H_i^(0) H_i^(1)).

    H_k^(0) and H_{k+1}^(1) are the last two minors of the family k, so
    one determinant run per k = 0..i_max gives all of them.  On a ladder
    with a clearing factor u the determinants come row-scaled, the powers
    of u are put back as integer bookkeeping, and a quotient that is not
    exact in the ladder's ring raises NonInvertibleError naming the rung.
    """
    one = _ring_one_of(ladder.y1)
    H = {(0, 1): one}
    for k in range(i_max + 1):
        minors = [one] + _hankel_family(ladder, k, k + 1)
        H[k, 0], H[k + 1, 1] = minors[k], minors[k + 1]
    rungs = []
    for i in range(1, i_max + 1):
        for k, num, den in (
            (2 * i - 1, ((i, 1), (i - 1, 0)), ((i - 1, 1), (i, 0))),
            (2 * i, ((i - 1, 0), (i + 1, 1)), ((i, 0), (i, 1))),
        ):
            a = H[num[0]] * H[num[1]]
            b = H[den[0]] * H[den[1]]
            if ladder.clear is not None:
                # H = (scaled H) / u^e, so the quotient gains u^(e_den - e_num)
                e = sum(_clearing_power(*d) for d in den) - sum(_clearing_power(*n) for n in num)
                if e > 0:
                    a = a * ladder.clear ** e
                elif e < 0:
                    b = b * ladder.clear ** -e
            try:
                rungs.append(_div(a, b))
            except NonInvertibleError as exc:
                raise NonInvertibleError(f"rung Y_{k}: {exc}") from None
    return rungs


def tilde_coeffs(Y):
    """Transformed rung weights for the companion fraction.

    Input Y_1..Y_K with K odd; output same length.  Works over any field
    elements (exact inverses must exist)."""
    K = len(Y)
    if K % 2 == 0:
        raise StructureError("expected an odd number of rung weights")
    one = _ring_one_of(Y[0])
    out = []
    for idx in range(1, K + 1):
        if idx % 2 == 1:
            out.append(_div(one, Y[idx - 1]))
        else:
            out.append(_div(Y[idx - 1], Y[idx - 2] * Y[idx]))
    return out


# ------------------------------------------------- bivariate graded pipeline

RHO_FIELD = FieldSpec(RatFunc.zero(RHO), RatFunc.one(RHO), f"QQ({RHO})")  # only for the companions' public view
_RHO_1 = Poly(RHO, (-1, 1))


def graded_ladder(order, n_hi, n_lo) -> JnLadder:
    """Ladder for the local-maxima ensemble in the rescaled tau grading.

    Entry n (0 <= n <= n_hi) is tau^(-n) * (Y_1 * J_{n-1}); entry -n
    (1 <= n <= n_lo) is tau^n * (conjectured companion coefficient n).
    Entry n of the raw ladder has valuation exactly n, the companion side
    being a Laurent series, so every rescaled entry has valuation 0; each
    is built at the internal cap that makes it exact to the requested order.

    The ladder is held over Q[rho]: the companion coefficient n has every
    denominator dividing (rho - 1)^(2n), so the clearing factor is
    (rho - 1)^2 and entry -n is ``_companion_cleared(n, order)``.

    The entries are built from the largest solver cap down: the companions
    from n_lo to 1 (companion n solves at cap order + 2n + 2), then the main
    entries from n_hi to 0 (entry n at cap order + n).  So the solvers run
    once, at the top cap, and every later request is served from their
    store by truncation instead of a fresh solve per rising cap.
    """
    j = {-n: _companion_cleared(n, order) for n in range(n_lo, 0, -1)}
    for n in range(n_hi, -1, -1):
        cap = order + n
        val = y1_series(cap) * f_n(n - 1, cap) if n >= 1 else bipoly_one(order)
        j[n] = bipoly_to_tau(val).shift(-n)
    return JnLadder(j, bipoly_to_tau(y1_series(order)), _RHO_1 ** 2)


def _rho_view(s: Series, e) -> Series:
    """s / (rho - 1)^e over Q(rho), for a series s over Q[rho].  Each
    coefficient is divided by the irreducible rho - 1 while that leaves no
    remainder, so what is left of the fraction is coprime and needs no gcd."""
    out = []
    for c in s.coeffs:
        k = e
        while k and not c.is_zero():
            q, r = c.divmod(_RHO_1)
            if not r.is_zero():
                break
            c, k = q, k - 1
        out.append(RatFunc(c, _RHO_1 ** k, reduce=False))
    return Series(s.var, s.cap, out, RHO_FIELD)


def _companion_cleared(n, order) -> Series:
    """(rho - 1)^(2n) times companion coefficient n in the rescaled grading,
    over Q[rho] and exact to ``order``.

    The companion is tau^n * Y_1 (A_0 Z_n + A_1 (Q-P)^2 Z_{n-1}) /
    (Q-P)^(2n+1), with A_0 and A_1 multiplied through by tb so numerator
    and denominator are polynomial; Z_k is the constant-weight path series
    coefficient, Z_n and Z_{n-1} both read off one pass of the path DP.
    The numerator's image times (rho - 1)^(2n) is divided exactly by the
    denominator's; a remainder raises NonInvertibleError naming j_{-n}.
    """
    if n == 0:
        return Series.one(TAU, order, RHO_RING)
    cap = order + 2 * n + 2  # the division by a valuation-(2n+2) series
    lim = solve_limit(cap)
    P, Q = lim.first, lim.second
    ta0, ta1 = a0_a1_times_tb(lim)
    Y = Q - P
    Z = path_sums(WeightTable("context", [None] + [P] * n, [None] + [Q] * n), n)[0]
    num = y1_series(cap) * (ta0 * Z[n] + ta1 * Y * Y * Z[n - 1])
    den = tb(cap) * Y ** (2 * n + 1)
    try:
        out = (bipoly_to_tau(num).shift(n) * _RHO_1 ** (2 * n)).divide(bipoly_to_tau(den))
    except NonInvertibleError as exc:
        raise NonInvertibleError(f"ladder entry j_{-n}: {exc}") from None
    return out.truncate(order)


def conjectured_tilde_j_graded(n, order) -> Series:
    """Companion coefficient n in the rescaled grading over Q(rho), exact to
    ``order``: the view of ``_companion_cleared``."""
    return _rho_view(_companion_cleared(n, order), 2 * n)


def conjectured_tilde_j_rescaled_route(n, order) -> Series:
    """Same companion value via (Y_1/Y)(A_0 Zt_n + A_1 Zt_{n-1}) with
    Zt_k = Z_k / (Q-P)^(2k); an independent arrangement of the divisions.

    Each quotient is cleared over Q[rho] on its own, as (rho - 1) Y_1/Y and
    (rho - 1)^(2k) Zt_k, so the product is (rho - 1)^(2n+1) times the
    companion, returned in its Q(rho) view."""
    if n == 0:
        return Series.one(TAU, order, RHO_FIELD)
    cap = order + 2 * n + 2
    lim = solve_limit(cap)
    P, Q = lim.first, lim.second
    Y = Q - P
    ta0, ta1 = a0_a1_times_tb(lim)
    t_tau = bipoly_to_tau(tb(cap))

    def zt(k):
        # (rho - 1)^(2k) tau^k Zt_k: valuation-0 series
        cleared = bipoly_to_tau(z_const(k, P, Q, "context")).shift(k) * _RHO_1 ** (2 * k)
        return cleared.divide(bipoly_to_tau(Y ** (2 * k)))

    a0 = bipoly_to_tau(ta0).divide(t_tau)
    a1 = bipoly_to_tau(ta1).divide(t_tau)
    yy = (bipoly_to_tau(y1_series(cap)) * _RHO_1).divide(bipoly_to_tau(Y))
    out = yy * (a0 * zt(n) + a1 * (zt(n - 1) * _RHO_1 ** 2).shift(1))
    return _rho_view(out.truncate(order), 2 * n + 1)


def newtype_rungs_from_solver_inputs(N, i_max):
    """Full graded extraction: conjectured companion and solver main series
    give back the merged weight sequence Y_1..Y_{2 i_max} as bivariate
    polynomials of cap N + 1."""
    ladder = graded_ladder(N, i_max + 1, i_max - 1)
    rungs = newtype_extract(ladder, i_max)
    return [tau_to_bipoly(val.shift(1)) for val in rungs]


def boundary_series(order, cap) -> Series:
    """The Stieltjes series sum_n f_n z^n to ``order``, each f_n at ``cap``,
    every coefficient from one pass of the path DP."""
    return Series("z", order, f_upto(order, cap), _ring_field(bipoly_one(cap)))


def stieltjes_rungs_from_solver(out_cap, i_max):
    """Extract the bicolored slice weights from the boundary series alone.

    Builds the series from f_n at an internal cap large enough that every
    Hankel-determinant quotient is exact to ``out_cap``, then returns
    {("b", 2i): ..., ("w", 2i-1): ...} with every value of cap >= out_cap.
    The denominator valuation is probed on a first pass.
    """
    def extract_at(cap):
        return stieltjes_extract(boundary_series(2 * i_max, cap), i_max)

    probe = extract_at(out_cap + 2)
    deficit = max(out_cap - min(v.cap for v in probe.values()), 0)
    if deficit == 0:
        return probe
    return extract_at(out_cap + 2 + deficit)


# ------------------------------------------------------- finite reflection

def _random_nonzero_rationals(count, rng):
    vals = []
    while len(vals) < count:
        num = rng.randint(-7, 7)
        den = rng.randint(1, 7)
        if num != 0:
            vals.append(Fraction(num, den))
    return vals


def finite_fraction_ratfunc(coeffs):
    """A finite two-term fraction as an exact rational function of z."""
    return RatFunc(*_fold(coeffs, (len(coeffs) + 1) // 2, Poly.one("z"), Poly.gen("z")))


def finite_reflection_check(alpha, seed) -> CheckReport:
    """Verify the reflection law of finite two-term fractions.

    With independent rung values Y_1..Y_{2 alpha - 1}: the fraction J(z) is
    a rational function with numerator degree alpha - 1 and denominator
    degree alpha; the companion built from the transformed weights equals
    -(Y_1/z) J(1/z) = -Y_1 rev(num) / rev(den), rev reversing coefficients;
    and Y_1 = -1 / lim z J(z) as z grows (ratio of leading coefficients).
    All of it runs on the convergent pairs over Z[z], each cleared by the
    product of its rung scales, with one gcd to read the reduced degrees
    and the reflection checked cross-multiplied: each test is invariant
    under a common scale of a pair."""
    rng = random.Random(seed)
    Y = _random_nonzero_rationals(2 * alpha - 1, rng)
    report = CheckReport(f"finite reflection alpha={alpha} seed={seed}")
    num, den = _fold(Y, alpha, Poly.one("z"), Poly.gen("z"))
    g = num.gcd(den).degree()
    p, q = num.degree() - g, den.degree() - g
    if (p, q) != (alpha - 1, alpha):
        raise VerificationError(f"degree check failed: {p}/{q} vs {alpha - 1}/{alpha}")
    report.add(f"degrees {alpha - 1}/{alpha} as expected")
    tnum, tden = _fold(tilde_coeffs(Y), alpha, Poly.one("z"), Poly.gen("z"))
    # lim z J(z) = lead(num) / lead(den), as den has degree alpha and num alpha - 1
    y1 = -Fraction(den.lead()) / Fraction(num.lead())
    if y1 != Y[0]:
        raise VerificationError(f"large-z limit gives Y_1 = {y1}, expected {Y[0]}")
    report.add("Y_1 recovered from the large-z limit")
    if Poly("z", num.coeffs[::-1]) * tden * -Y[0] != tnum * Poly("z", den.coeffs[::-1]):
        raise VerificationError("reflection identity failed")
    report.add("companion equals -(Y_1/z) J(1/z)")
    return report


def underdetermination_witness(seed) -> CheckReport:
    """Two distinct companion choices give distinct rungs but identical
    re-expanded main series (one seeded rational instance)."""
    rng = random.Random(seed)
    i_max = 3
    Y = _random_nonzero_rationals(2 * i_max + 3, rng)
    order = i_max + 1
    J = expand(Y, order, finite=True)
    Jt_true = expand(tilde_coeffs(Y), order, finite=True)
    report = CheckReport(f"underdetermination witness seed={seed}")
    rungs = {"true": newtype_extract(build_jn(J, Y[0], Jt_true), i_max)}
    # an arbitrary different companion with the same constant term; redraw
    # (deterministically) while it makes a Hankel-type determinant vanish
    for _ in range(50):
        fake = [Fraction(1)] + _random_nonzero_rationals(order, rng)
        Jt_fake = Series("z", order, [Fraction(c) for c in fake], QQ)
        if Jt_fake == Jt_true.truncate(order):
            continue
        try:
            rungs["fake"] = newtype_extract(build_jn(J, Y[0], Jt_fake), i_max)
            break
        except ZeroDivisionError:
            continue
    else:
        raise VerificationError("no usable fake companion found for this seed")
    if rungs["true"] == rungs["fake"]:
        raise VerificationError("both companions produced identical rungs")
    report.add("extracted rung sequences differ")
    if rungs["true"] != [Fraction(v) for v in Y[: 2 * i_max]]:
        raise VerificationError("true companion failed to recover the original rungs")
    report.add("true companion recovers the original rungs")
    for tag in ("true", "fake"):
        re_J = expand(rungs[tag], i_max)
        if any(re_J.coeffs[k] != J.coeffs[k] for k in range(i_max + 1)):
            raise VerificationError(f"{tag} rungs re-expand to a different main series")
    report.add("both rung sets re-expand to the same main series")
    return report
