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
ring; the solvers and the closed-form residual checks of ``closed_forms``
all evaluate these rules, and the solver reads each rule's shape by
evaluating it once on opaque symbols (``_form``).  The merged sequence
enters its rule as the pair x(i) = Y_{2i}, y(i) = Y_{2i-1}, so its
parity-respecting clamp is the ordinary height clamp of the pair at N + 3.

Every right-hand side is a t_b, t_w source plus products of two unknowns,
and every slice weight has zero constant term.  So the total-degree-c part
of a right-hand side, its row c, is the source's (for c = 1) plus, for each
product u v, the sum of u_j v_(c-j) over j = 1..c-1: it reads only rows
below c.  The solver computes rows 1..N in turn, each product of two rows
once, on ints that pack a row's tw-slots at one slot width (``_solve``).
Heights are clamped: a slice counted at height i but not at i - 1 carries
at least i weighted vertices, so rows 0..c of every height from c on agree.
The solve at cap N keeps i_max = N + 2, reading height i_max + 1 as i_max,
and computes row c at heights 1..c only, repeating it above.  One
confirming sweep of the rule at cap N over every height must then give back
its input, or the solve fails as not stationary, and stabilization at
i_max is asserted; any failure aborts.

Each of ``solve_bw``, ``solve_pq``, ``solve_y``, ``solve_limit`` and
``y1_series`` keeps one store: the result at the highest cap asked for so
far.  A request at or below that cap is answered by cutting the stored
result down, its values to the lower cap and its heights to that cap's
clamp, so ``i_max`` and the strict weight table read exactly as after a
solve at the lower cap; each lower cap is cut once and kept until a higher
cap replaces the store.  A request above it solves rows 1..N afresh and
replaces the store: rows are cheap next to the confirming sweep, so
restarting from the stored rows would save nothing.  The confirming sweeps
and the clamp assertion run at every solve at a new top cap, and so does
the cross-check of ``y1_series``, against Q_1 - P_1 of the context solve at
its cap: it builds no merged family and runs no merged sweep.  A cut-down
result needs none of them again: truncation is a ring homomorphism and the
clamp is exact, so it is the truncation of a checked value.

The i -> infinity limits satisfy the bicolored rule with height-independent
weights, B = tb + B(B + 2W), W = tw + W(W + 2B), shared by both ensembles.
The top pair of the context solve at cap N satisfies it: the confirming
sweep checks the rule at the top height, which reads itself as the one
above, and the top two heights agree.  With zero constant terms its fixed
point is unique, so ``solve_limit`` reads the pair off ``solve_pq``.

This module also assembles the fixed-boundary-length series f_n and j_n
from the path generating functions, evaluates the level-d conserved
quantities, and computes the first merged coefficient by its two
independent closed-form routes.  One pass of the path DP over a solved
table gives f_0..f_n (``f_upto``) or j_0..j_n (``j_upto``); ``f_n`` and
``j_n`` are single-length views.  The level-d invariants of every
half-length up to n come from one pass of 2(n + 1) steps at level d that
reads both the main sums and the sums ending in two descents, and each
correction's division by tb stays on the packed integer.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul

from .errors import CheckReport, StructureError, VerificationError
from .exactalg import MPoly, _bytes_width, _fit, _packed, _rewidth, bipoly_one, bipoly_zero, tb, tw
from .lattice_paths import PathSpec, WeightTable, path_sums, symbol_table, z_bicolored, z_const, z_context
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


def i_max_at(kind, N):
    """The top height of a family solved at cap N: the clamp N + 2, or
    2(N + 3) for the merged sequence, the pair clamped at N + 3 interleaved."""
    return 2 * (N + 3) if kind == "y" else N + 2


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
        i_max = i_max_at(self.kind, N)

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
    """Serve ``solve(N)`` from the highest-cap result seen so far.

    A cap at or below the stored one is a hit, answered by the stored
    result's ``with_cap``, cut once per cap and kept until the store
    changes.  A higher cap is a miss: ``solve`` runs at that cap and its
    result becomes the store.
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
        top = solve(N)
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


# the unknowns a rule reads at height i, then the two sources
_FORM_VARS = ("x-", "x", "x+", "y-", "y", "y+", "tb", "tw")


@lru_cache(maxsize=None)
def _form(rule):
    """The two right-hand sides of ``rule`` as (source, groups), read by
    evaluating the rule once at height 1 on opaque symbols for x and y at
    heights i - 1, i and i + 1.  ``source`` holds the coefficients of t_b
    and t_w; the quadratic part is the sum over ``groups`` of u * (sum of
    c * v over its members (c, v)), an unknown u or v being (side, height
    offset), side 0 for x, 1 for y.  Factoring out the unknown in the most
    terms first keeps the groups few.  Any other term -- a constant, one
    linear in the unknowns -- would break the degree-by-degree solve, and
    is refused."""
    gens = [MPoly.gen(_FORM_VARS, v) for v in _FORM_VARS]

    def read(side):
        def at(j):
            if not 0 <= j <= 2:
                raise StructureError(f"{rule.__name__} reads height i{j - 1:+d}: heights i - 1..i + 1 only")
            return gens[3 * side + j]
        return at

    out = []
    for rhs in rule(read(0), read(1), 1, gens[6], gens[7]):
        source, quad = [0, 0], {}
        for exp, c in rhs.terms.items():
            unknowns = tuple(k for k in range(6) for _ in range(exp[k]))
            shape = (len(unknowns), exp[6] + exp[7])
            if type(c) is not int or shape not in ((2, 0), (0, 1)):
                what = {(0, 0): "a constant term", (1, 0): "a term linear in the unknowns"}.get(shape, "a term")
                raise StructureError(f"{rule.__name__} has {what} {c} * {exp}: the solver needs integral"
                                     " t_b, t_w sources and products of two unknowns")
            if unknowns:
                quad[unknowns] = c
            else:
                source[exp[7]] = c
        groups = []
        while quad:
            count = {}
            for pair in quad:
                for k in set(pair):
                    count[k] = count.get(k, 0) + 1
            u = min(count, key=lambda k: (-count[k], k))
            members = [(c, pair[pair[0] == u]) for pair, c in quad.items() if u in pair]
            quad = {pair: c for pair, c in quad.items() if u not in pair}
            groups.append((_unknown(u), [(c, _unknown(v)) for c, v in members]))
        out.append((tuple(source), groups))
    return out


def _unknown(k):
    """(side, height offset) of the unknown at index k of ``_FORM_VARS``."""
    return k // 3, k % 3 - 1


_START_WIDTH = 64  # slot bits of a solve's rows until a degree needs more


def _row(groups, c):
    """Row c of a quadratic part, c >= 1: over its ``groups`` (U, members,
    L), the sum of U_j L_(c-j) for j = 1..c-1, L caching the rows of the
    sum of c * V over the members."""
    acc = 0
    for U, members, L in groups:
        while len(L) < c:
            k = len(L)
            L.append(sum(coef * V[k] for coef, V in members))
        acc += sum(map(mul, U[1:c], L[c - 1:0:-1]))
    return acc


def _value(rows, N, width):
    """The (tb, tw) value at cap N whose row k is rows[k], laid at stride
    N + 1 and at its own width."""
    stride, num = N + 1, 0
    for row in reversed(rows):
        num = (num << stride * width) + row
    if not num:
        return bipoly_zero(N)
    n = stride * stride
    fit = _fit(num, width, n, width)
    narrow = _bytes_width(fit)
    if narrow != width:
        num = _rewidth(num, width, narrow, n)
    return _packed(bipoly_zero(N)._blank(), N, num, 1, stride, narrow, fit, N, 0)


def _solve(kind, N, i_max):
    """A system's rule solved at cap N with heights clamped at i_max (height
    i_max + 1 reads i_max), one total degree at a time; returns the two
    lists of values at heights 0..i_max, checked by ``_confirm``.

    Each height keeps its rows, row k an int packing the k + 1 tw-slots of
    its degree-k part at one slot width.  Row c of a right-hand side is its
    source for c = 1 plus ``_row``, so each product of two rows is taken
    once.  Row c is computed at heights 1..c only; above them it repeats
    height c, exactly (see the module docstring).  Before each degree the
    rows' fits bound its slots -- a slot of row c is at most the source plus,
    for each group, sum of |c| times sum over j of (min(j, c - j) + 1)
    2^(f_j - 1) 2^(f_(c-j) - 1) -- and every row is re-laid at twice the
    width until that bound fits."""
    form = _form(SYSTEMS[kind][0])
    width = _START_WIDTH
    rows = [[None] + [[0] for _ in range(i_max)] for _ in range(2)]

    def at(side, i):  # the rows of an unknown, or None at height 0
        return rows[side][min(i, i_max)] if i else None

    plans = [[None] + [[(at(us, i + ud), [(coef, at(vs, i + vd)) for coef, (vs, vd) in members if i + vd], [0])
                        for (us, ud), members in groups if i + ud] for i in range(1, i_max + 1)] for _, groups in form]
    scale = max(sum(abs(coef) for _, members in groups for coef, _ in members) for _, groups in form)
    fits = [0]
    for c in range(1, N + 1):
        mags = [1 << f >> 1 for f in fits]
        bound = scale * sum((min(j, c - j) + 1) * mags[j] * mags[c - j] for j in range(1, c))
        if c == 1:
            bound += max(abs(a) for source, _ in form for a in source)
        bits = bound.bit_length() + 1
        if bits > width:
            new = width
            while new < bits:
                new *= 2
            for side in rows:
                for r in side[1:]:
                    r[:] = [_rewidth(x, width, new, k + 1) if x else 0 for k, x in enumerate(r)]
            for plan in plans:
                for groups in plan[1:]:
                    for _, _, L in groups:
                        del L[1:]
            width = new
        fit, h = 0, min(c, i_max)
        for side, plan, (source, _) in zip(rows, plans, form):
            first = source[0] + (source[1] << width) if c == 1 else 0
            for i in range(1, h + 1):
                row = first + _row(plan[i], c)
                side[i].append(row)
                fit = max(fit, _fit(row, width, c + 1, bits))
            for i in range(h + 1, i_max + 1):
                side[i].append(side[h][c])
        fits.append(fit)
    X, Y = ([bipoly_zero(N)] + [_value(r, N, width) for r in side[1:]] for side in rows)
    _confirm(kind, X, Y, N)
    return X, Y


def _confirm(kind, X, Y, N):
    """One sweep of the rule at cap N over every height, the top one read as
    the one above it too, must give back X and Y, and the top must repeat."""
    rule, name, _ = SYSTEMS[kind]
    x, y = ((V + V[-1:]).__getitem__ for V in (X, Y))
    t_b, t_w = tb(N), tw(N)
    if any(rule(x, y, i, t_b, t_w) != (X[i], Y[i]) for i in range(1, len(X))):
        raise VerificationError(f"{name} confirming sweep failed to become stationary")
    if X[-1] != X[-2] or Y[-1] != Y[-2]:
        raise VerificationError(f"{name} family failed to stabilize at the clamp")


@_top_cap_store
def solve_bw(N) -> SliceFamily:
    i_max = i_max_at("bw", N)
    return SliceFamily("bw", N, i_max, *_solve("bw", N, i_max))


@_top_cap_store
def solve_pq(N) -> SliceFamily:
    i_max = i_max_at("pq", N)
    return SliceFamily("pq", N, i_max, *_solve("pq", N, i_max))


@_top_cap_store
def solve_y(N) -> SliceFamily:
    """Merged sequence: the context solution rewritten, confirmed by one
    sweep of the merged rule (its unique zero-constant-term fixed point)."""
    pq = solve_pq(N)
    even, odd = pq.first, pq.first[:1] + [q - p for p, q in zip(pq.first[1:], pq.second[1:])]
    if any(v.constant_term() for v in even + odd):
        raise VerificationError("a merged weight has a nonzero constant term")
    # the padding from the context clamp N + 2 to the pair clamp N + 3
    # repeats the last height, exact as every height above N agrees at cap N
    even, odd = even + even[-1:], odd + odd[-1:]
    _confirm("y", even, odd, N)
    Y = [even[0]]
    for i in range(1, N + 4):
        Y += [odd[i], even[i]]
    return SliceFamily("y", N, len(Y) - 1, Y)


@_top_cap_store
def solve_limit(N) -> LimitPair:
    """The height-independent pair: the top height of the context solve."""
    pq = solve_pq(N)
    return LimitPair(pq.first[-1], pq.second[-1], N)


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


def f_upto(n, N) -> list:
    """[f_0, ..., f_n] at cap N, from one pass of the path DP."""
    return path_sums(solve_bw(N).weight_table(), n)[0]


def j_upto(n, N) -> list:
    """[j_0, ..., j_n] at cap N, from one pass of the path DP."""
    return path_sums(solve_pq(N).weight_table(), n)[0]


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

def _conserved(fam, n, d, N) -> list:
    """The level-d invariants of half-lengths 1..n at cap N - 1.  Level 0
    has no correction; above it, one pass of 2(n + 1) steps gives both the
    main sums and the sums of two final descents."""
    table = fam.weight_table()
    if d == 0:
        return [z.with_cap(N - 1) for z in path_sums(table, n)[0][1:]]
    main, desc = path_sums(table, n + 1, d, (0, 2))
    t_b, low = tb(N), fam.first[d]
    return [z.with_cap(N - 1) - graded_div(c * low, t_b) for z, c in zip(main[1:], desc[2:])]


def conserved_f(n, d, N) -> list:
    """Level-d invariants of the bicolored system for half-lengths 1..n;
    the one of half-length m equals f_m for every d.

    Value: Z(2m at level d) - (1/tb) Z2v(2m+2 at level d) B_d, with the
    exact tb division done in the tau grading.  Result cap is N - 1.
    """
    return _conserved(solve_bw(N), n, d, N)


def conserved_j(n, d, N) -> list:
    """Level-d invariants of the context system for half-lengths 1..n; the
    one of half-length m equals j_m for every d."""
    return _conserved(solve_pq(N), n, d, N)


@_top_cap_store
def y1_series(N) -> MPoly:
    """First merged coefficient at full cap N via the division-free route
    (Q - P)(1 - P - 2Q) / (1 - 2Q); cross-checked against the solver's
    Y_1 = Q_1 - P_1, read off the context solution, so no merged family
    is built for the check."""
    lim = solve_limit(N)
    P, Q = lim.first, lim.second
    one = bipoly_one(N)
    val = (Q - P) * (one - P - 2 * Q) * (one - 2 * Q).inv()
    pq = solve_pq(N)
    if val != pq.second[1] - pq.first[1]:
        raise VerificationError("closed-form Y_1 disagrees with the solver")
    return val


def y1_two_routes(N):
    """First merged coefficient by its two independent closed-form routes.

    Route 1: (Q - P)(1 - P - 2Q) / (1 - 2Q) as a plain series inverse,
    which ``y1_series`` checks against Q_1 - P_1 of the context solution.
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
        # weighting -> (table, corrective weight, [(main, correction) for n = 1, 2])
        displays = {
            "first": (table_bw, B(d), [
                (W(i), B(i + 1) * W(i) * B(i - 1)),
                (W(i) * W(i) + B(i + 1) * W(i), (W(i) + B(i + 1) + W(i + 2)) * B(i + 1) * W(i) * B(i - 1)),
            ]),
            "second": (table_pq, P(d), [
                (Q(i), Q(i + 1) * P(i) * P(i - 1)),
                (Q(i) * Q(i) + Q(i + 1) * P(i),
                 ((Q(i) + Q(i + 1)) * Q(i + 1) + Q(i + 2) * P(i + 1)) * P(i) * P(i - 1)),
            ]),
        }
        for name, (table, low, wants) in displays.items():
            sums, desc = path_sums(table, 3, d, (0, 2))
            for n, (main, corr) in enumerate(wants, start=1):
                if sums[n] != main:
                    raise VerificationError(f"{name}-weighting n={n} main term failed at level {d}")
                if desc[n + 1] * low != corr:
                    raise VerificationError(f"{name}-weighting n={n} correction failed at level {d}")
        report.add(f"level {d}: all four displays hold")
    return report
