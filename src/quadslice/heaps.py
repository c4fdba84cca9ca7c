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
from functools import lru_cache
import random

from .errors import CheckReport, StructureError, VerificationError
from .exactalg import _ring_one_of, _ring_zero_of
from .ratfunc import QQ, RatFunc, ratfunc_field
from .series import Series
from .contfrac import (
    FractionSpec,
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
    weights has 2 alpha - 1 entries; the primed variant takes 2 alpha and
    reduces by replacing the last odd weight with the sum of the last two.
    """
    if alpha < 1:
        raise StructureError("need alpha >= 1")
    weights = list(weights)
    if variant == "gprime":
        if len(weights) != 2 * alpha:
            raise StructureError("primed variant needs 2 alpha weights")
        weights = weights[:-2] + [weights[-2] + weights[-1]]
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
    J = expand(FractionSpec("newtype", Y, finite=True), order_hi - 1)
    Jt = expand(FractionSpec("newtype", tilde_coeffs(Y), finite=True), order_lo)
    return build_jn(J, Y[0], Jt)


def heaps_vs_fraction_check(alpha, seed) -> CheckReport:
    """Both heap series equal their continued fraction expansions."""
    rng = random.Random(seed)
    Y = _random_nonzero_rationals(2 * alpha - 1, rng)
    L = 2 * alpha + 2
    report = CheckReport(f"heap series vs fractions alpha={alpha} seed={seed}")
    J = expand(FractionSpec("newtype", Y, finite=True), L)
    z = Series.gen("z", L, QQ)
    K = 1 + z * J * Y[0]
    if heap_gf(alpha, {1}, Y, L) != K:
        raise VerificationError("base {1} heap series disagrees with 1 + z Y_1 J")
    report.add("base {1} equals 1 + z Y_1 J(z)")
    Jt = expand(FractionSpec("newtype", tilde_coeffs(Y), finite=True), L)
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
    prod_odd = Fraction(1)
    for k in range(0, 2 * alpha - 1, 2):
        prod_odd *= Y[k]
    if X[alpha] != prod_odd:
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

PF = ratfunc_field("Yc")  # rational functions of the constant level weight


def _tower_consts():
    """Constants of the two-variable tower: level weight Yc, descent Pc."""
    Yc = RatFunc.const("Pc", RatFunc.gen("Yc"), PF)
    Pc = RatFunc.gen("Pc", PF)
    one = RatFunc.one("Pc", PF)
    return Yc, Pc, one


def constant_ladder(i_hi, i_lo):
    """Ladder of the constant-weight fraction over the (Yc, Pc) tower:
    k_0 = 1, k_n = Yc * Z_{n-1}, k_{-n} = Z_n / Yc^(2n), with Z_k the
    constant-weight path series coefficient."""
    Yc, Pc, one = _tower_consts()
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
    all exact in the two-variable tower."""
    if i < 2:
        raise StructureError("need i >= 2")
    Yc, Pc, one = _tower_consts()
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
    Yc, Pc, one = _tower_consts()
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
        expect0 = Fraction(1)
        for k in range(1, i):
            expect0 *= (Y[2 * k - 1] / Y[2 * k]) ** (i - k)
        if H0 != expect0:
            raise VerificationError(f"closed form for H_{i}^(0) failed")
        odd = Fraction(1)
        for k in range(i):
            odd *= Y[2 * k]
        if H1 != odd * H0:
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
        tilde_big = tilde_coeffs(Y[: 2 * i - 1])
        corr_lo = Fraction(1)
        for k in range(1, i):
            corr_lo *= tilde_big[2 * k - 1]
        if big[-(i - 1)] - small[-(i - 1)] != corr_lo:
            raise VerificationError(f"companion correction failed at size {i}")
        corr_hi = Y[0]
        for k in range(1, i):
            corr_hi *= Y[2 * k - 1]
        if big[i] - small[i] != corr_hi:
            raise VerificationError(f"main correction failed at size {i}")
        report.add(f"size {i}: agreement ranges and both corrections")
    return report


# --------------------------------------------------- determinant ladder in y

def h_ladder(i_max) -> CheckReport:
    """The Hankel-type determinant recursion in the (y, alpha) tower.

    The determinants themselves have degrees growing quadratically, so the
    closed forms are verified inductively: the rescaled system is checked
    on the closed-form sequences (which pins them as the unique solution),
    the rescaling itself is tied out on the first determinants, and the
    bi-ratios, rewritten through the rescaled sequences, must reproduce
    the closed-form merged weights."""
    from .closed_forms import _tower

    T = _tower()
    a, y, one, P, Y, Y1, A0, A1, w, d = T.a, T.y, T.one, T.P, T.Y, T.Y1, T.A0, T.A1, T.w, T.d
    report = CheckReport(f"determinant ladder to i={i_max}")

    if Y1 * (A0 / Y + A1) != one:
        raise VerificationError("normalization Y_1 (A_0/Y + A_1) = 1 failed")
    report.add("ladder normalization")

    # the system's coefficients, fixed over the whole ladder
    A0Y1, A1Y1 = A0 * Y1, A1 * Y1
    c00, c01, c10, c11 = A0Y1 / Y ** 2, A1Y1, A0Y1 / Y, A1Y1 * (Y + P)

    def den(i):
        return (one - y) * (one + y) ** i

    @lru_cache(maxsize=None)
    def L0(i):
        return (one - y ** (i + 1)) / den(i)

    @lru_cache(maxsize=None)
    def L1(i):
        return Y1 * (one + d * y) * (one - a * y ** (i + 2)) / den(i)

    if L0(0) != one or L0(1) != one:
        raise VerificationError("initial values of the first rescaled sequence")
    if L1(0) != Y or L1(1) != Y1 or L1(1) != Y1 * (A0 + A1 * (Y + P)):
        raise VerificationError("initial values of the second rescaled sequence")
    report.add("initial conditions, including L_1^(1) = Y_1")

    for i in range(1, i_max + 1):
        if L0(i) != c00 * L1(i - 1) + c01 * L0(i - 1):
            raise VerificationError(f"rescaled system (first line) failed at i={i}")
        if L1(i) != c10 * L1(i - 1) + c11 * L0(i - 1):
            raise VerificationError(f"rescaled system (second line) failed at i={i}")
    report.add("rescaled system holds, so the closed forms solve the ladder")

    for i in range(1, i_max):
        if L0(i + 1) != L0(i) + w * L0(i - 1):
            raise VerificationError(f"three-term recursion failed for L^(0) at i={i}")
        if L1(i + 1) != L1(i) + w * L1(i - 1):
            raise VerificationError(f"three-term recursion failed for L^(1) at i={i}")
        if L1(i) != Y * L0(i) + (Y1 - Y) * L0(i - 1):
            raise VerificationError(f"mixed relation failed at i={i}")
    report.add("three-term recursions with the hard-piece weight")

    for i in range(0, i_max + 1):
        alt = (Y * (one - y ** (i + 1)) + (Y1 - Y) * (one - y ** i) * (one + y)) / den(i)
        if L1(i) != alt:
            raise VerificationError(f"two displays of L^(1) disagree at i={i}")
    report.add("both displayed forms of L^(1) agree")

    # tie the rescaling out on the first actual determinants
    H0 = {0: one}
    H1 = {0: one}
    for i in (1, 2):
        pw = P ** (i - 1)
        H0[i] = A0Y1 * pw / Y ** (2 * i - 1) * H1[i - 1] + A1Y1 * pw / Y ** (i - 1) * H0[i - 1]
        H1[i] = A0Y1 * pw / Y ** (i - 1) * H1[i - 1] + c11 * pw * H0[i - 1]
        scale = (Y / P) ** (i * (i - 1) // 2)
        if scale * H0[i] != L0(i) or scale * H1[i] / Y ** (i - 1) != L1(i):
            raise VerificationError(f"rescaling definition failed at i={i}")
    report.add("rescaling matches the first determinants")

    for i in range(1, i_max):
        y_even = P * (L0(i - 1) * L1(i + 1)) / (L0(i) * L1(i))
        y_odd = Y * (L1(i) * L0(i - 1)) / (L1(i - 1) * L0(i))
        expect_even = P * (one - y ** i) * (one - a * y ** (i + 3)) / (
            (one - y ** (i + 1)) * (one - a * y ** (i + 2))
        )
        expect_odd = Y * (one - y ** i) * (one - a * y ** (i + 2)) / (
            (one - y ** (i + 1)) * (one - a * y ** (i + 1))
        )
        if y_even != expect_even:
            raise VerificationError(f"bi-ratio even weight failed at i={i}")
        if y_odd != expect_odd:
            raise VerificationError(f"bi-ratio odd weight failed at i={i}")
    report.add("determinant bi-ratios reproduce the closed-form merged weights")
    return report
