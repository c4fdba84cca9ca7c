"""Heaps of pieces on path graphs: hard-piece polynomials and identities.

A finite path graph with 2 alpha - 1 vertices carries, for each m, the
generating polynomial X_m of independent sets of size m (no two adjacent
vertices occupied), each occupied vertex i contributing its weight y_i.
Heap generating functions over that graph are ratios of the alternating
hard-piece polynomials: the denominator uses all weights, the numerator
zeroes the weights on the base vertices.

The primed graph variant appends one extra vertex adjacent to the last
one; its hard-piece polynomials equal the plain ones after replacing the
last odd weight by the sum of the last two weights, and that reduction is
how the variant is implemented throughout.

Everything here is verified against the continued fraction expansions of
the same quantities: the base-{1} heap series equals 1 + z Y_1 J(z) and
the base-{1,2} series with transformed weights equals the companion
series, the complementation identities exchange size-m and size-(alpha-m)
configurations, and the resulting linear relations on the two-sided ladder
coefficients give the Hankel-type determinant recursion whose rescaled
solution reproduces the closed-form slice weights.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
import random
from types import SimpleNamespace

from .errors import CheckReport, StructureError, VerificationError
from .exactalg import _ring_one_of, _ring_zero_of
from .ratfunc import QQ, PolyFrac
from .series import Series
from .contfrac import (
    JnLadder,
    _random_nonzero_rationals,
    _ring_field,
    build_jn,
    expand,
    hankel_type_dets,
    tilde_coeffs,
)
from .lattice_paths import z_const


def hard_pieces(alpha, weights, variant="path"):
    """Hard-piece polynomials X_0..X_alpha on the ladder-shaped graph.

    The graph has vertices 1..2 alpha - 1 with edges between consecutive
    vertices and between consecutive even vertices (2k adjacent to 2k + 2).
    The maximal independent set is then the unique all-odd configuration.
    variant "path" takes 2 alpha - 1 weights; "gprime" takes 2 alpha and
    reduces by replacing the last odd weight with the sum of the last two.
    """
    if alpha < 1:
        raise StructureError("need alpha >= 1")
    weights = list(weights)
    if variant == "gprime":
        if len(weights) != 2 * alpha:
            raise StructureError("primed variant needs 2 alpha weights")
        weights = weights[:-2] + [weights[-2] + weights[-1]]
    elif variant != "path":
        raise StructureError(f"unknown variant {variant!r}")
    elif len(weights) != 2 * alpha - 1:
        raise StructureError("path variant needs 2 alpha - 1 weights")
    one = _ring_one_of(weights[0])
    zero = _ring_zero_of(weights[0])
    # state: (last even vertex occupied, previous vertex occupied) -> counts by size
    states = {(False, False): [one] + [zero] * alpha}
    for v, w in enumerate(weights, start=1):
        new = {}

        def put(key, vec):
            if key in new:
                new[key] = [a + b for a, b in zip(new[key], vec)]
            else:
                new[key] = vec

        for (last_even, prev), vec in states.items():
            even_after = last_even if v % 2 == 1 else False
            put((even_after, False), vec)
            blocked = prev or (v % 2 == 0 and last_even)
            if not blocked:
                occ_vec = [zero] + [vec[m - 1] * w for m in range(1, alpha + 1)]
                put((last_even if v % 2 == 1 else True, True), occ_vec)
        states = new
    out = [zero] * (alpha + 1)
    for vec in states.values():
        out = [a + b for a, b in zip(out, vec)]
    return out


def heap_gf(alpha, base, weights, L) -> Series:
    """Heap generating function over the path graph, to order z^L.

    base is {1} or {1, 2}; the numerator zeroes the base weights.  The
    denominator's constant term is the empty configuration, 1.
    """
    base = set(base)
    if base not in ({1}, {1, 2}):
        raise StructureError("base must be {1} or {1,2}")
    weights = list(weights)
    zero = _ring_zero_of(weights[0])
    masked = list(weights)
    masked[0] = zero
    if 2 in base and len(masked) > 1:
        masked[1] = zero
    X_full = hard_pieces(alpha, weights)
    X_base = hard_pieces(alpha, masked)
    field = _ring_field(weights[0])

    def as_series(X):
        coeffs = [(X[m] if m % 2 == 0 else -X[m]) for m in range(min(alpha, L) + 1)]
        return Series("z", L, coeffs, field)

    den = as_series(X_full)
    if den.coeffs[0] != field.one:
        raise VerificationError("hard-piece denominator must start at 1")
    return as_series(X_base) * den.inv()


# ----------------------------------------------------------- finite ladders

def finite_ladder(Y, order_hi, order_lo) -> JnLadder:
    """Two-sided ladder of a finite fraction with rungs Y_1..Y_{2 alpha - 1}:
    entries n >= 0 from 1 + z Y_1 J(z), entries n < 0 from the companion."""
    J = expand(Y, order_hi - 1, finite=True)
    Jt = expand(tilde_coeffs(Y), order_lo, finite=True)
    return build_jn(J, Y[0], Jt)


def heaps_vs_fraction_check(alpha, seed) -> CheckReport:
    """Both heap series equal their continued fraction expansions."""
    rng = random.Random(seed)
    Y = _random_nonzero_rationals(2 * alpha - 1, rng)
    L = 2 * alpha + 2
    report = CheckReport(f"heap series vs fractions alpha={alpha} seed={seed}")
    J = expand(Y, L, finite=True)
    z = Series.gen("z", L, QQ)
    K = 1 + z * J * Y[0]
    if heap_gf(alpha, {1}, Y, L) != K:
        raise VerificationError("base {1} heap series disagrees with 1 + z Y_1 J")
    report.add("base {1} equals 1 + z Y_1 J(z)")
    Jt = expand(tilde_coeffs(Y), L, finite=True)
    if heap_gf(alpha, {1, 2}, tilde_coeffs(Y), L) != Jt:
        raise VerificationError("base {1,2} heap series disagrees with the companion")
    report.add("base {1,2} with transformed weights equals the companion")
    return report


def complementation_check(alpha, seed) -> CheckReport:
    """Complementing the odd occupied set maps size m to size alpha - m:
    X_m = X_alpha * Xt_{alpha-m}, and with the first vertex forced empty,
    X_m(0) = X_alpha * (Xt_{alpha-m} - Xt_{alpha-m}(0,0))."""
    rng = random.Random(seed)
    Y = _random_nonzero_rationals(2 * alpha - 1, rng)
    Yt = tilde_coeffs(Y)
    X = hard_pieces(alpha, Y)
    Xt = hard_pieces(alpha, Yt)
    masked1 = [Fraction(0)] + Y[1:]
    X0 = hard_pieces(alpha, masked1)
    masked2 = ([Fraction(0), Fraction(0)] + Yt[2:])[: len(Yt)]
    Xt00 = hard_pieces(alpha, masked2)
    report = CheckReport(f"complementation alpha={alpha} seed={seed}")
    for m in range(alpha + 1):
        if X[m] != X[alpha] * Xt[alpha - m]:
            raise VerificationError(f"complementation failed at m={m}")
        if X0[m] != X[alpha] * (Xt[alpha - m] - Xt00[alpha - m]):
            raise VerificationError(f"base-restricted complementation failed at m={m}")
    report.add(f"both identities hold for m = 0..{alpha}")
    if X[alpha] != prod(Y[::2]):
        raise VerificationError("maximal configuration is not the odd product")
    report.add("maximal hard-piece polynomial is the product of odd weights")
    return report


def _relation(X, ladder, n):
    """The alternating hard-piece sum sum_m (-1)^m X_m j_{n-m}."""
    acc = _ring_zero_of(X[0])
    for m, x in enumerate(X):
        term = x * ladder[n - m]
        acc = acc + (term if m % 2 == 0 else -term)
    return acc


def linear_relation_check(alpha, seed) -> CheckReport:
    """The alternating hard-piece sum annihilates the finite ladder:
    sum_m (-1)^m X_m j_{n-m} = 0 for every n in a two-sided range."""
    rng = random.Random(seed)
    Y = _random_nonzero_rationals(2 * alpha - 1, rng)
    X = hard_pieces(alpha, Y)
    hi = 2 * alpha + 2
    lo = alpha + 2  # lowest index used is n_min - alpha
    ladder = finite_ladder(Y, hi, lo + alpha)
    report = CheckReport(f"ladder linear relation alpha={alpha} seed={seed}")
    for n in range(-lo, hi - alpha + 1):
        if _relation(X, ladder, n) != 0:
            raise VerificationError(f"linear relation failed at n={n}")
    report.add(f"relation holds for -{lo} <= n <= {hi - alpha}")
    return report


# --------------------------------------------- constant-weight specializations

# the constant level weight Yc and descent weight Pc, as gcd-free fractions
YC, PC = (PolyFrac.gen(("Yc", "Pc"), v) for v in ("Yc", "Pc"))


def constant_ladder(i_hi, i_lo):
    """Ladder of the constant-weight fraction over fractions in (Yc, Pc):
    k_0 = 1, k_n = Yc * Z_{n-1}, k_{-n} = Z_n / Yc^(2n), with Z_k the
    constant-weight path series coefficient."""
    Yc, Pc, one = YC, PC, YC.ring_one()
    Z = [z_const(k, Pc, Yc + Pc, "context") for k in range(max(i_hi, i_lo) + 1)]
    k = {0: one}
    for n in range(1, i_hi + 1):
        k[n] = Yc * Z[n - 1]
    for n in range(1, i_lo + 1):
        k[-n] = Z[n] / Yc ** (2 * n)
    return JnLadder(k, Yc)


def linear_relation_specialized_check(i) -> CheckReport:
    """Constant-weight linear relations with interior zeros and the two
    boundary values P^(i-1)/Y^(2(i-1)) and (-1)^(i-1) P^(i-1)/Y^(i-2),
    all exact as gcd-free fractions in Yc and Pc."""
    if i < 2:
        raise StructureError("need i >= 2")
    Yc, Pc, one = YC, PC, YC.ring_one()
    alpha = i - 1
    x = hard_pieces(alpha, [Yc if k % 2 == 0 else Pc for k in range(2 * alpha - 1)])
    ladder = constant_ladder(i + 1, i - 1)
    report = CheckReport(f"constant-weight linear relations i={i}")

    def lhs(n):  # sum_m (-1)^m (x_{i-1-m} / x_{i-1}) k_{n-i+m}
        rel = _relation(x, ladder, n - 1) / x[i - 1]
        return rel if i % 2 == 1 else -rel

    for n in range(2, i + 1):
        if not lhs(n).is_zero():
            raise VerificationError(f"interior relation failed at n={n}")
    report.add(f"interior relations vanish for 2 <= n <= {i}")
    if lhs(1) != Pc ** (i - 1) / Yc ** (2 * (i - 1)):
        raise VerificationError("lower boundary value failed")
    if lhs(i + 1) != (-1) ** (i - 1) * Pc ** (i - 1) / Yc ** (i - 2):
        raise VerificationError("upper boundary value failed")
    report.add("both boundary values match")
    if x[0] != one:
        raise VerificationError("empty configuration should be 1")
    return report


def linear_relation_gprime_check(i) -> CheckReport:
    """Primed-graph constant-weight relations: interior zeros for
    2 <= n <= i and boundary values (-1)^(i-1) P^(i-1)/Y^(i-2) at n = 1 and
    Y P^(i-1) (Y + P) at n = i + 1."""
    if i < 2:
        raise StructureError("need i >= 2")
    Yc, Pc, one = YC, PC, YC.ring_one()
    alpha = i - 1
    weights = [Yc if k % 2 == 0 else Pc for k in range(2 * alpha)]
    xp = hard_pieces(alpha, weights, variant="gprime")
    if xp[0] != one:
        raise VerificationError("primed x_0 should be 1")
    ladder = constant_ladder(i + 1, i - 2)
    report = CheckReport(f"primed-graph linear relations i={i}")

    for n in range(2, i + 1):
        if not _relation(xp, ladder, n).is_zero():
            raise VerificationError(f"primed interior relation failed at n={n}")
    report.add(f"interior relations vanish for 2 <= n <= {i}")
    if _relation(xp, ladder, 1) != (-1) ** (i - 1) * Pc ** (i - 1) / Yc ** (i - 2):
        raise VerificationError("primed lower boundary failed")
    if _relation(xp, ladder, i + 1) != Yc * Pc ** (i - 1) * (Yc + Pc):
        raise VerificationError("primed upper boundary failed")
    report.add("both boundary values match")
    return report


def hh_closed_check(i_max, seed) -> CheckReport:
    """Hankel-type determinants of the ladder in closed form:
    H_i^(0) = prod_k (Y_2k / Y_2k+1)^(i-k) and H_i^(1) = Y_1 Y_3 ... Y_{2i-1} H_i^(0)."""
    rng = random.Random(seed)
    Y = _random_nonzero_rationals(2 * i_max + 1, rng)
    ladder = finite_ladder(Y, i_max, i_max - 1)
    report = CheckReport(f"Hankel-type closed forms i<={i_max} seed={seed}")
    for i in range(1, i_max + 1):
        H0 = hankel_type_dets(ladder, i, 0)
        H1 = hankel_type_dets(ladder, i, 1)
        if H0 != prod((Y[2 * k - 1] / Y[2 * k]) ** (i - k) for k in range(1, i)):
            raise VerificationError(f"closed form for H_{i}^(0) failed")
        if H1 != prod(Y[0:2 * i:2]) * H0:
            raise VerificationError(f"closed form for H_{i}^(1) failed")
        report.add(f"i={i}: both determinants match")
    return report


def ladder_stabilization_check(i_max, seed) -> CheckReport:
    """Ladders of consecutive graph sizes agree except for one entry on
    each side, whose corrections are the unique maximal heaps:
    even transformed product on the companion side, Y_1 times the even
    product on the main side."""
    rng = random.Random(seed)
    Y = _random_nonzero_rationals(2 * i_max + 1, rng)
    report = CheckReport(f"ladder stabilization i<={i_max} seed={seed}")
    for i in range(2, i_max + 1):
        big = finite_ladder(Y[: 2 * i - 1], i, i - 1)
        small = finite_ladder(Y[: 2 * i - 3], i, i - 1)
        for n in range(0, i):
            if big[n] != small[n]:
                raise VerificationError(f"main side should agree at n={n}, size {i}")
        for n in range(0, i - 1):
            if big[-n] != small[-n]:
                raise VerificationError(f"companion side should agree at n={n}, size {i}")
        if big[-(i - 1)] - small[-(i - 1)] != prod(tilde_coeffs(Y[: 2 * i - 1])[1:2 * i - 2:2]):
            raise VerificationError(f"companion correction failed at size {i}")
        if big[i] - small[i] != Y[0] * prod(Y[1:2 * i - 2:2]):
            raise VerificationError(f"main correction failed at size {i}")
        report.add(f"size {i}: agreement ranges and both corrections")
    return report


# --------------------------------------------------- determinant ladder in y

LADDER_VARS = ("y", "alpha", "U")  # U stands for y^i at height i
# opaque symbols: the coefficients, Y^(i-1), P^(i-1), s_(i-1), and L^(0), L^(1) at i - 1
TIE_VARS = ("A0", "A1", "Y1", "Y", "P", "R", "Pw", "S", "L0", "L1")


def _ladder_forms(T):
    """The closed forms of the rescaled determinants, L^(0) and L^(1) at
    height i + k times (1 + y)^i, as functions of k and U = y^i."""
    a, y, one = T.a, T.y, T.one
    return (lambda k, U: (one - y ** (k + 1) * U) / ((one - y) * (one + y) ** k),
            lambda k, U: T.Y1 * (one + T.d * y) * (one - a * y ** (k + 2) * U) / ((one - y) * (one + y) ** k))


def _coefficients(T):
    """The coefficients c00, c01, c10, c11 of the rescaled system."""
    A0Y1, A1Y1 = T.A0 * T.Y1, T.A1 * T.Y1
    return A0Y1 / T.Y ** 2, A1Y1, A0Y1 / T.Y, A1Y1 * (T.Y + T.P)


def _ladder_identities(T, L0, L1):
    """The eight ladder identities at height i, as (name, lhs, rhs) in
    (y, alpha, U) with U = y^i, read at heights i - 1, i and i + 1: the
    rescaled system, both three-term recursions, the mixed relation, both
    displays of L^(1) and both bi-ratios.  The factor (1 + y)^i common to
    every term is taken out."""
    a, y, one, P, Y, Y1, w = T.a, T.y, T.one, T.P, T.Y, T.Y1, T.w
    U = PolyFrac.gen(y.vars, "U")
    c00, c01, c10, c11 = _coefficients(T)
    l0, l1 = ({k: L(k, U) for k in (-1, 0, 1)} for L in (L0, L1))
    return [
        ("rescaled system (first line)", l0[0], c00 * l1[-1] + c01 * l0[-1]),
        ("rescaled system (second line)", l1[0], c10 * l1[-1] + c11 * l0[-1]),
        ("three-term recursion for L^(0)", l0[1], l0[0] + w * l0[-1]),
        ("three-term recursion for L^(1)", l1[1], l1[0] + w * l1[-1]),
        ("mixed relation", l1[0], Y * l0[0] + (Y1 - Y) * l0[-1]),
        ("two displays of L^(1)", l1[0], (Y * (one - y * U) + (Y1 - Y) * (one - U) * (one + y)) / (one - y)),
        ("bi-ratio even weight", P * l0[-1] * l1[1] / (l0[0] * l1[0]),
         P * (one - U) * (one - a * y ** 3 * U) / ((one - y * U) * (one - a * y ** 2 * U))),
        ("bi-ratio odd weight", Y * l1[0] * l0[-1] / (l1[-1] * l0[0]),
         Y * (one - U) * (one - a * y ** 2 * U) / ((one - y * U) * (one - a * y * U))),
    ]


def _tie_out(step):
    """The determinant recursion for H_i^(0), H_i^(1) from height i - 1,
    rescaled by s_i = s_(i-1) * step, minus the rescaled system, with every
    quantity an opaque symbol (``TIE_VARS``): H_(i-1)^(0) = L0/S and
    H_(i-1)^(1) = L1 Y^(i-2)/S.  Returns the two differences, both zero for
    the true scale step R/Pw = (Y/P)^(i-1)."""
    T = SimpleNamespace(**{v: PolyFrac.gen(TIE_VARS, v) for v in TIE_VARS})
    c00, c01, c10, c11 = _coefficients(T)
    A0Y1, A1Y1, Y, R, Pw, S = T.A0 * T.Y1, T.A1 * T.Y1, T.Y, T.R, T.Pw, T.S
    H0, H1, s = T.L0 / S, T.L1 * R / (Y * S), S * step(T)
    H0_i = A0Y1 * Pw / (R ** 2 * Y) * H1 + A1Y1 * Pw / R * H0
    H1_i = A0Y1 * Pw / R * H1 + c11 * Pw * H0
    return s * H0_i - (c00 * T.L1 + c01 * T.L0), s * H1_i / R - (c10 * T.L1 + c11 * T.L0)


def h_ladder(i_max=6) -> CheckReport:
    """The Hankel-type determinant recursion in (y, alpha), at every height.

    The determinants have degrees growing quadratically, so the closed
    forms are verified inductively, with no gcd.  Each identity at height
    i is one identity in (y, alpha, U), U = y^i (``_ladder_identities``),
    so it holds at every height: the rescaled system on the closed-form
    sequences (which pins them as the unique solution), the three-term
    recursions, the mixed relation, both displays of L^(1), and the
    bi-ratios, which reproduce the closed-form merged weights.  The
    rescaling is tied out at every height on opaque symbols (``_tie_out``);
    the normalization and the initial values at heights 0 and 1, from
    H_0 = 1, are finite checks.  The displays of Y, Y_1, A_0, A_1, w and d
    are those ``closed_forms.section6_algebra`` proves.  i_max is kept for
    callers; the proof no longer depends on it."""
    from .closed_forms import _tower

    T = _tower(LADDER_VARS)
    one, P, Y, Y1, A0, A1 = T.one, T.P, T.Y, T.Y1, T.A0, T.A1
    report = CheckReport("determinant ladder at every height")

    if Y1 * (A0 / Y + A1) != one:
        raise VerificationError("normalization Y_1 (A_0/Y + A_1) = 1 failed")
    report.add("ladder normalization")

    L0, L1 = _ladder_forms(T)
    if L0(0, one) != one or L0(1, one) != one:
        raise VerificationError("initial values of the first rescaled sequence")
    if L1(0, one) != Y or L1(1, one) != Y1 or L1(1, one) != Y1 * (A0 + A1 * (Y + P)):
        raise VerificationError("initial values of the second rescaled sequence")
    report.add("initial conditions, including L_1^(1) = Y_1")

    for name, lhs, rhs in _ladder_identities(T, L0, L1):
        if lhs != rhs:
            raise VerificationError(f"{name} failed as an identity in U = y^i")
    report.add("rescaled system holds, so the closed forms solve the ladder")
    report.add("three-term recursions with the hard-piece weight")
    report.add("both displayed forms of L^(1) agree")

    if not all(diff.is_zero() for diff in _tie_out(lambda T: T.R / T.Pw)):
        raise VerificationError("rescaling definition failed")
    report.add("rescaling matches the determinant recursion at every height")
    report.add("determinant bi-ratios reproduce the closed-form merged weights")
    return report
