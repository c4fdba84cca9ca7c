"""Fixed-point solver for the three slice weight recursion systems.

Each system determines a family of truncated bivariate series indexed by a
height i >= 1 (index 0 is identically zero):

* bicolored pair:   B_i = tb + B_i (W_{i-1} + B_i + W_{i+1})
                    W_i = tw + W_i (B_{i-1} + W_i + B_{i+1})
* context pair:     P_i = tb + P_i (P_{i-1} + Q_i + Q_{i+1})
                    Q_i = tw + Q_i (P_{i-1} + Q_i) + P_i Q_{i+1}
* merged sequence:  Y_{2i}   = tb        + Y_{2i}   (Y_{2i-2} + Y_{2i-1} + Y_{2i} + Y_{2i+1} + Y_{2i+2})
                    Y_{2i-1} = (tw - tb) + Y_{2i-1} (Y_{2i-2} + Y_{2i-1} + Y_{2i})
  which is the context system rewritten through Y_{2i-1} = Q_i - P_i,
  Y_{2i} = P_i.  So ``solve_y`` rewrites the context solution and confirms
  it by one sweep of the merged rule: with zero constant terms that rule
  fixes degree c from the degrees below c, so its fixed point is unique.

Each system is stated once, as a rule ``rule(x, y, i, t_b, t_w)`` giving
the two right-hand sides at height i from height accessors x and y over any
ring; the solvers, the limit pair and the closed-form residual checks of
``closed_forms`` all evaluate these rules.  The merged sequence enters its
rule as the pair x(i) = Y_{2i}, y(i) = Y_{2i-1}, so its parity-respecting
clamp is the ordinary height clamp of the pair at N + 3.

Because every slice weight has zero constant term, a right-hand side is
exact to total degree c whenever the weights it reads are exact to degree
c - 1.  So the solver raises the precision one degree per sweep: starting
from zero, sweep c = 1..N runs at cap c on the previous values cut to cap
c, and fixes every coefficient of degree <= c.  One confirming sweep at cap
N, over every height, must then reproduce its input, or the solve fails as
not stationary.  Heights are clamped: a slice counted at height i but not
at i - 1 carries at least i weighted vertices, so at cap c all heights
above c + 1 agree.  The solve at cap N keeps i_max = N + 2, and sweep c
runs the rule only at heights 1..c + 2 (c + i_max - N in general), reading
the height above them as a repeat of the top one; at cap c that repeat is
exact, so the clamped sweep gives the values of a full-height one.
Stabilization at i_max is asserted after solving and any failure aborts.

Each of ``solve_bw``, ``solve_pq``, ``solve_y``, ``solve_limit`` and
``y1_series`` keeps one store: the result at the highest cap asked for so
far.  A request at or below that cap is answered by cutting the stored
result down, its values to the lower cap and its heights to that cap's
clamp, so ``i_max`` and the strict weight table read exactly as after a
solve at the lower cap; each lower cap is cut once and kept until a higher
cap replaces the store.  A request above it re-solves, warm-started: the
stored heights 0..c0 + 2, exact at the stored cap c0, are the input of
sweep c0 + 1, and only sweeps c0 + 1..N run.  Sweep c fixes degree c from
inputs exact to degree c - 1, so the warm result equals the cold one.  The
confirming sweeps, the clamp assertion and the cross-check of
``y1_series`` run at every solve at a new top cap.  A cut-down result
needs none of them again: truncation is a ring homomorphism and the clamp
is exact, so it is the truncation of a checked value.

The i -> infinity limits satisfy the bicolored rule with height-independent
weights, B = tb + B(B + 2W), W = tw + W(W + 2B), shared by both ensembles,
and are solved on the same schedule.
This module also assembles the fixed-boundary-length series f_n and j_n
from the path generating functions, evaluates the level-d conserved
quantities, and computes the first merged coefficient by its two
independent closed-form routes.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CheckReport, StructureError, VerificationError
from .exactalg import MPoly, bipoly_one, bipoly_zero, tb, tw
from .lattice_paths import PathSpec, WeightTable, symbol_table, z_bicolored, z_const, z_context
from .series import graded_div


def bicolored_rule(x, y, i, t_b, t_w):
    """x = B, y = W."""
    return (t_b + x(i) * (y(i - 1) + x(i) + y(i + 1)),
            t_w + y(i) * (x(i - 1) + y(i) + x(i + 1)))


def context_rule(x, y, i, t_b, t_w):
    """x = P, y = Q."""
    return (t_b + x(i) * (x(i - 1) + y(i) + y(i + 1)),
            t_w + y(i) * (x(i - 1) + y(i)) + x(i) * y(i + 1))


def merged_rule(x, y, i, t_b, t_w):
    """x(i) = Y_{2i}, y(i) = Y_{2i-1}."""
    return (t_b + x(i) * (x(i - 1) + y(i) + x(i) + y(i + 1) + x(i + 1)),
            (t_w - t_b) + y(i) * (x(i - 1) + y(i) + x(i)))


# family kind -> (rule, system name, weight-table kind of the solved family)
SYSTEMS = {
    "bw": (bicolored_rule, "bicolored", "bicolored"),
    "pq": (context_rule, "context", "context"),
    "y": (merged_rule, "merged", "elongated"),
}


class SliceFamily:
    """Solved weight family: kind in {"bw", "pq", "y"}, values by height."""

    __slots__ = ("kind", "cap", "i_max", "first", "second")

    def __init__(self, kind, cap, i_max, first, second=None):
        self.kind = kind
        self.cap = cap
        self.i_max = i_max
        self.first = list(first)
        self.second = list(second) if second is not None else None

    def weight_table(self) -> WeightTable:
        return WeightTable(SYSTEMS[self.kind][2], self.first, self.second)

    def with_cap(self, N):
        """The family a solve at the lower cap N gives: values cut to cap N,
        heights cut to its clamp (the merged sequence has 2(N + 3))."""
        i_max = 2 * (N + 3) if self.kind == "y" else N + 2

        def cut(seq):
            return [v.with_cap(N) for v in seq[: i_max + 1]]

        return SliceFamily(self.kind, N, i_max, cut(self.first),
                           None if self.second is None else cut(self.second))


class LimitPair:
    """Common large-height limit (first = B = P, second = W = Q)."""

    __slots__ = ("first", "second", "cap")

    def __init__(self, first, second, cap):
        self.first = first
        self.second = second
        self.cap = cap

    def with_cap(self, N):
        return LimitPair(self.first.with_cap(N), self.second.with_cap(N), N)


StoreInfo = namedtuple("StoreInfo", "hits misses currsize")


def _top_cap_store(solve):
    """Serve ``solve(N, top)`` from the highest-cap result seen so far.

    A cap at or below the stored one is a hit, answered by the stored
    result's ``with_cap``, cut once per cap and kept until the store
    changes.  A higher cap is a miss: ``solve`` runs with the stored result
    (None when empty) to warm-start from, and its result becomes the store.
    As on a ``functools.lru_cache``, ``cache_clear`` empties the store and
    resets the counts, and ``cache_info`` reports them.
    """
    top, cuts = None, {}
    hits = misses = 0

    def stored(N):
        nonlocal top, cuts, hits, misses
        if N < 1:
            raise StructureError("cap must be >= 1")
        if top is not None and N <= top.cap:
            hits += 1
            if N not in cuts:
                cuts[N] = top.with_cap(N)
            return cuts[N]
        misses += 1
        top = solve(N, top)
        cuts = {N: top}
        return top

    def cache_clear():
        nonlocal top, cuts, hits, misses
        top, cuts, hits, misses = None, {}, 0, 0

    stored.cache_clear = cache_clear
    stored.cache_info = lambda: StoreInfo(hits, misses, int(top is not None))
    for attr in ("__name__", "__qualname__", "__doc__"):
        setattr(stored, attr, getattr(solve, attr))
    return stored


def _rising(step, size, N, start=None):
    """Fixed point of ``step(X, Y, t_b, t_w) -> (X, Y)`` on two lists of
    ``size`` weights, by the rising-precision schedule: sweep c = c0+1..N
    runs at cap c on the values cut to cap c, filled to size - (N - c) of
    them (at least one) by repeating the top one, then one confirming sweep
    at cap N must reproduce its input.  ``step`` returns as many values as
    it is given.  ``start = (c0, X, Y)`` holds values exact at cap c0; the
    default starts from zero at c0 = 0."""
    c0, X, Y = start or (0, [bipoly_zero(0)], [bipoly_zero(0)])
    for c in range(c0 + 1, N + 1):
        n = max(1, size - N + c)
        X, Y = ([v.with_cap(c) for v in w] for w in (X, Y))
        X, Y = step(_filled(X, n), _filled(Y, n), tb(c), tw(c))
    X, Y = _filled(X, size), _filled(Y, size)
    if step(X, Y, tb(N), tw(N)) != (X, Y):
        raise VerificationError("fixed point iteration failed to become stationary")
    return X, Y


def _filled(v, n):
    """v padded to n entries by repeating its last one."""
    return v + v[-1:] * (n - len(v))


def _solve(kind, N, i_max, start=None):
    """A system's rule solved at cap N with heights clamped at i_max >= N + 2,
    warm-started from ``start`` as in ``_rising``; returns the two lists of
    heights 0..i_max.  Sweep c runs on heights 0..c + i_max - N only."""
    rule, name, _ = SYSTEMS[kind]

    def step(X, Y, t_b, t_w):
        # one extra entry repeats the top height: that is the clamp
        x, y = (X + X[-1:]).__getitem__, (Y + Y[-1:]).__getitem__
        new = [rule(x, y, i, t_b, t_w) for i in range(1, len(X))]
        return X[:1] + [a for a, _ in new], Y[:1] + [b for _, b in new]

    X, Y = _rising(step, i_max + 1, N, start)
    if X[i_max] != X[i_max - 1] or Y[i_max] != Y[i_max - 1]:
        raise VerificationError(f"{name} family failed to stabilize at the clamp")
    return X, Y


def _resume(top):
    return None if top is None else (top.cap, top.first, top.second)


@_top_cap_store
def solve_bw(N, top) -> SliceFamily:
    return SliceFamily("bw", N, N + 2, *_solve("bw", N, N + 2, _resume(top)))


@_top_cap_store
def solve_pq(N, top) -> SliceFamily:
    return SliceFamily("pq", N, N + 2, *_solve("pq", N, N + 2, _resume(top)))


@_top_cap_store
def solve_y(N, _top) -> SliceFamily:
    """Merged sequence: the context solution rewritten, confirmed by one
    sweep of the merged rule (its unique zero-constant-term fixed point)."""
    pq = solve_pq(N)
    even, odd = pq.first, pq.first[:1] + [q - p for p, q in zip(pq.first[1:], pq.second[1:])]
    if any(v.constant_term() for v in even + odd):
        raise VerificationError("a merged weight has a nonzero constant term")
    # started at cap N, only the confirming sweep runs; the padding from the
    # context clamp N + 2 to the pair clamp N + 3 repeats the last height,
    # exact as every height above N + 1 agrees at cap N
    even, odd = _solve("y", N, N + 3, (N, even, odd))
    Y = [even[0]]
    for i in range(1, N + 4):
        Y += [odd[i], even[i]]
    return SliceFamily("y", N, len(Y) - 1, Y)


@_top_cap_store
def solve_limit(N, top) -> LimitPair:
    """The bicolored rule on height-independent weights."""
    def step(X, Y, t_b, t_w):
        B, W = bicolored_rule(lambda i: X[0], lambda i: Y[0], 1, t_b, t_w)
        return [B], [W]

    start = None if top is None else (top.cap, [top.first], [top.second])
    (B,), (W,) = _rising(step, 1, N, start)
    return LimitPair(B, W, N)


# ------------------------------------------------- boundary-length series

def f_n(n, N) -> MPoly:
    """Fixed-boundary-length series of the bicolored ensemble.

    Both boundary series start at 1: the continued fractions equal 1 at the
    origin, so the index-0 entry is 1 for either weighting."""
    if n == 0:
        return bipoly_one(N)
    return z_bicolored(PathSpec(n, 0), solve_bw(N).weight_table())


def j_n(n, N) -> MPoly:
    """Fixed-boundary-length series of the local-maxima ensemble (j_0 = 1)."""
    if n == 0:
        return bipoly_one(N)
    return z_context(PathSpec(n, 0), solve_pq(N).weight_table())


def a0_a1_times_tb(lim: LimitPair):
    """tb * A0 = P (1 - P - Q) and tb * A1 = -P for the limit pair."""
    P, Q = lim.first, lim.second
    one = bipoly_one(lim.cap)
    return P * (one - P - Q), -P


def f_n_closed(n, N, route="direct") -> MPoly:
    """Boundary series from the constant-weight limit pair.

    route="direct":    A0 Z(2n; P, Q) + A1 Z(2n+2; P, Q)
    route="invariant": Z(2n; B, W) - (1/tb) Z2v(2n+2; B, W) B
    where Z2v forces the final two steps to descend.  The divisions by tb
    are exact and executed in the tau grading; the result cap is N - 1.
    """
    lim = solve_limit(N)
    P, Q = lim.first, lim.second
    if route == "direct":
        ta0, ta1 = a0_a1_times_tb(lim)
        num = ta0 * z_const(n, P, Q, "context") + ta1 * z_const(n + 1, P, Q, "context")
        return graded_div(num, tb(N))
    if route == "invariant":
        z_plain = z_const(n, P, Q, "bicolored")
        z_desc = z_const(n + 1, P, Q, "bicolored", k=2)
        return z_plain.with_cap(N - 1) - graded_div(z_desc * P, tb(N))
    raise StructureError(f"unknown route {route!r}")


# ------------------------------------------------------ conserved quantities

def _conserved(fam, z, n, d, N) -> MPoly:
    table = fam.weight_table()
    main = z(PathSpec(n, d), table).with_cap(N - 1)
    if d == 0:
        return main
    corr = z(PathSpec(n + 1, d, k=2), table) * fam.first[d]
    return main - graded_div(corr, tb(N))


def conserved_f(n, d, N) -> MPoly:
    """Level-d invariant of the bicolored system; equals f_n for every d.

    Value: Z(2n at level d) - (1/tb) Z2v(2n+2 at level d) B_d, with the
    exact tb division done in the tau grading.  Result cap is N - 1.
    """
    return _conserved(solve_bw(N), z_bicolored, n, d, N)


def conserved_j(n, d, N) -> MPoly:
    """Level-d invariant of the context system; equals j_n for every d."""
    return _conserved(solve_pq(N), z_context, n, d, N)


@_top_cap_store
def y1_series(N, _top) -> MPoly:
    """First merged coefficient at full cap N via the division-free route
    (Q - P)(1 - P - 2Q) / (1 - 2Q); cross-checked against the solver."""
    lim = solve_limit(N)
    P, Q = lim.first, lim.second
    one = bipoly_one(N)
    val = (Q - P) * (one - P - 2 * Q) * (one - 2 * Q).inv()
    if val != solve_y(N).first[1]:
        raise VerificationError("closed-form Y_1 disagrees with the solver")
    return val


def y1_two_routes(N):
    """First merged coefficient by its two independent closed-form routes.

    Route 1: (Q - P)(1 - P - 2Q) / (1 - 2Q) as a plain series inverse,
    which ``y1_series`` checks against the solver's first merged coefficient.
    Route 2: the conserved-quantity route (tw - tb) / (1 - Q_1) with
    Q_1 = Q - Q P^2 / tb, equivalently the single fraction
    tb (tw - tb) / (tb (1 - Q) + Q P^2) via exact graded division.
    Returned at cap N - 1 (the graded division costs one order).
    """
    if N < 2:
        raise StructureError("need cap >= 2")
    lim = solve_limit(N)
    P, Q = lim.first, lim.second
    one = bipoly_one(N)
    route1 = y1_series(N).with_cap(N - 1)

    q1 = Q.with_cap(N - 1) - graded_div(Q * P * P, tb(N))
    route2 = ((tw(N - 1) - tb(N - 1)) * (bipoly_one(N - 1) - q1).inv())
    closed = graded_div(tb(N) * (tw(N) - tb(N)), tb(N) * (one - Q) + Q * P * P)
    if route2 != closed:
        raise VerificationError("conserved-quantity route for Y_1 disagrees with its closed fraction")
    if route1 != route2:
        raise VerificationError("the two closed-form routes for Y_1 disagree")
    return route1, route2


def conserved_symbolic_display_check(d_range=range(0, 5)):
    """The first two invariants as identities in opaque weight symbols.

    With the level written as d and i = d + 1, the path sums reduce to:
      first weighting, n=1:  Z = W_i,  correction = B_{i+1} W_i B_{i-1}
      first weighting, n=2:  Z = W_i^2 + B_{i+1} W_i,
                             correction = (W_i + B_{i+1} + W_{i+2}) B_{i+1} W_i B_{i-1}
    and the hatted analogs with P, Q.  Both sides are compared as
    many-variable polynomials (index 0 symbols are zero).
    """
    report = CheckReport("symbolic invariant displays")
    hmax = max(d_range) + 4
    table_bw, _ = symbol_table("bicolored", hmax)
    table_pq, _ = symbol_table("context", hmax)
    zero_b = table_bw.a(1).ring_zero()
    zero_p = table_pq.a(1).ring_zero()

    def B(i):
        return table_bw.a(i) if i >= 1 else zero_b

    def W(i):
        return table_bw.b(i)

    def P(i):
        return table_pq.a(i) if i >= 1 else zero_p

    def Q(i):
        return table_pq.b(i)

    for d in d_range:
        i = d + 1
        # weighting -> (path sum, table, corrective weight, [(main, correction) for n = 1, 2])
        displays = {
            "first": (z_bicolored, table_bw, B(d), [
                (W(i), B(i + 1) * W(i) * B(i - 1)),
                (W(i) * W(i) + B(i + 1) * W(i), (W(i) + B(i + 1) + W(i + 2)) * B(i + 1) * W(i) * B(i - 1)),
            ]),
            "second": (z_context, table_pq, P(d), [
                (Q(i), Q(i + 1) * P(i) * P(i - 1)),
                (Q(i) * Q(i) + Q(i + 1) * P(i),
                 ((Q(i) + Q(i + 1)) * Q(i + 1) + Q(i + 2) * P(i + 1)) * P(i) * P(i - 1)),
            ]),
        }
        for name, (z, table, low, wants) in displays.items():
            for n, (main, corr) in enumerate(wants, start=1):
                if z(PathSpec(n, d), table) != main:
                    raise VerificationError(f"{name}-weighting n={n} main term failed at level {d}")
                if z(PathSpec(n + 1, d, k=2), table) * low != corr:
                    raise VerificationError(f"{name}-weighting n={n} correction failed at level {d}")
        report.add(f"level {d}: all four displays hold")
    return report
