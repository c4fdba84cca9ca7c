"""Fixed-point slice solvers: frozen low-order values, stabilization,
the fundamental boundary-series equality, and conserved quantities."""

import sys

import pytest

from quadslice import exactalg, slice_solver
from quadslice.errors import StructureError, VerificationError
from quadslice.exactalg import bipoly, bipoly_one, bipoly_zero, tb, tw
from quadslice.lattice_paths import PathSpec, z_bicolored, z_context
from quadslice.series import graded_div
from quadslice.slice_solver import (
    conserved_f,
    conserved_j,
    conserved_symbolic_display_check,
    f_n,
    f_n_closed,
    f_upto,
    j_n,
    j_upto,
    solve_bw,
    solve_limit,
    solve_pq,
    solve_y,
    y1_series,
    y1_two_routes,
)


def agree(a, b):
    """Equality after truncating both to the smaller cap."""
    cap = min(a.cap, b.cap)
    return a.with_cap(cap) == b.with_cap(cap)


def test_first_sweeps_frozen():
    # two manual sweeps of the bicolored system determine these exactly
    assert solve_bw(1).first[1] == tb(1)
    assert solve_bw(2).second[1] == bipoly({(0, 1): 1, (0, 2): 1, (1, 1): 1}, 2)
    assert solve_pq(1).second[1] == tw(1)
    assert solve_y(2).first[1].with_cap(1) == tw(1) - tb(1)
    assert solve_limit(1).first == tb(1)
    assert solve_limit(2).second == bipoly({(0, 1): 1, (0, 2): 1, (1, 1): 2}, 2)


def test_zero_constant_terms():
    fam = solve_bw(3)
    for i in range(1, fam.i_max + 1):
        assert fam.first[i].constant_term() == 0
        assert fam.second[i].constant_term() == 0


def test_index_zero_entries_vanish():
    for fam in (solve_bw(3), solve_pq(3)):
        assert fam.first[0].is_zero() and fam.second[0].is_zero()
    assert solve_y(3).first[0].is_zero()


def test_stabilization_and_swap_symmetry():
    N = 5
    bw = solve_bw(N)
    assert bw.first[bw.i_max] == bw.first[bw.i_max - 1]
    assert bw.second[bw.i_max] == bw.second[bw.i_max - 1]
    for i in range(0, bw.i_max + 1):
        assert bw.first[i] == bw.second[i].swap()
    lim = solve_limit(N)
    assert bw.first[bw.i_max] == lim.first
    pq = solve_pq(N)
    assert pq.first[pq.i_max] == lim.first and pq.second[pq.i_max] == lim.second


def test_merged_matches_context():
    # the solver itself cross-checks Y_{2i} = P_i and Y_{2i-1} = Q_i - P_i
    fam = solve_y(4)
    pq = solve_pq(4)
    assert fam.first[2] == pq.first[1]
    assert fam.first[3] == pq.second[2] - pq.first[2]


def test_limit_closed_system():
    N = 5
    lim = solve_limit(N)
    B, W = lim.first, lim.second
    assert B == tb(N) + B * (B + 2 * W)
    assert W == tw(N) + W * (W + 2 * B)


def test_fundamental_equality():
    for n in range(0, 5):
        assert f_n(n, 6) == j_n(n, 6), n


def test_boundary_series_basics():
    assert f_n(0, 4) == bipoly_one(4)
    assert j_n(0, 4) == bipoly_one(4)
    assert f_n(1, 2) == bipoly({(0, 1): 1, (0, 2): 1, (1, 1): 1}, 2)
    for n in range(1, 4):
        assert f_n(n, 5).constant_term() == 0


def test_closed_route_equals_solver():
    for n in range(0, 5):
        direct = f_n_closed(n, 7, "direct")
        invariant = f_n_closed(n, 7, "invariant")
        assert direct == invariant, n
        assert agree(direct, f_n(n, 6)), n
    assert f_n_closed(0, 5) == bipoly_one(4)
    with pytest.raises(StructureError):
        f_n_closed(1, 5, "nonsense")


def test_conserved_quantities_level_independent():
    for d in range(0, 5):
        inv_f, inv_j = conserved_f(3, d, 6), conserved_j(3, d, 6)
        for n in range(1, 4):
            assert inv_f[n - 1] == f_n(n, 6).with_cap(5), (n, d)
            assert inv_j[n - 1] == j_n(n, 6).with_cap(5), (n, d)


def test_one_pass_series_match_the_single_length_views():
    for N in (5, 9):
        assert f_upto(7, N) == [f_n(n, N) for n in range(8)]
        assert j_upto(7, N) == [j_n(n, N) for n in range(8)]


@pytest.mark.parametrize("conserved, solve, z", [(conserved_f, solve_bw, z_bicolored),
                                                 (conserved_j, solve_pq, z_context)])
def test_conserved_lists_match_the_per_length_invariants(conserved, solve, z):
    # each invariant as it was computed before one pass served every
    # length: two path sums of its own and a graded division by tb
    N = 9
    fam = solve(N)
    table = fam.weight_table()
    for d in range(0, 5):
        want = []
        for n in range(1, 6):
            main = z(PathSpec(n, d), table).with_cap(N - 1)
            if d:
                main = main - graded_div(z(PathSpec(n + 1, d, k=2), table) * fam.first[d], tb(N))
            want.append(main)
        assert conserved(5, d, N) == want, d


def test_conserved_symbolic_displays():
    report = conserved_symbolic_display_check(range(0, 5))
    assert report.passed and len(report.lines) == 5


def test_y1_routes():
    r1, r2 = y1_two_routes(6)
    assert r1 == r2
    assert r1.with_cap(1) == tw(1) - tb(1)
    assert y1_series(6).with_cap(5) == r1


def test_sweep_count_determines_degree():
    """Sweep k of the zero-started iteration pins every coefficient of
    total degree <= k; at most cap + 1 sweeps are needed."""
    from quadslice.exactalg import bipoly_zero

    N = 5
    i_max = N + 2
    zero = bipoly_zero(N)
    t_b, t_w = tb(N), tw(N)

    def sweep(vals):
        B, W = vals
        nB, nW = [zero], [zero]
        for i in range(1, i_max + 1):
            Bp = B[i + 1] if i + 1 <= i_max else B[i_max]
            Wp = W[i + 1] if i + 1 <= i_max else W[i_max]
            nB.append(t_b + B[i] * (W[i - 1] + B[i] + Wp))
            nW.append(t_w + W[i] * (B[i - 1] + W[i] + Bp))
        return nB, nW

    vals = ([zero] * (i_max + 1), [zero] * (i_max + 1))
    solved = solve_bw(N)
    for k in range(1, N + 2):
        vals = sweep(vals)
        for i in range(0, i_max + 1):
            assert vals[0][i].with_cap(k).with_cap(N) == solved.first[i].with_cap(k).with_cap(N), (k, i)
    assert list(vals[0]) == solved.first and list(vals[1]) == solved.second


# ------------------------------- rising-precision schedule against the oracle


def full_cap_iteration(update, init, N):
    """The zero-started simultaneous iteration at full cap N, kept as the
    oracle: sweep until stationary, at most N + 3 sweeps."""
    values = init
    for _ in range(N + 3):
        new = update(values)
        if new == values:
            return values
        values = new
    raise AssertionError("oracle iteration did not become stationary")


def oracle_family(kind, N, i_max):
    rule = slice_solver.SYSTEMS[kind][0]
    zero = bipoly_zero(N)

    def update(vals):
        X, Y = vals
        x, y = (X + [X[i_max]]).__getitem__, (Y + [Y[i_max]]).__getitem__
        new = [rule(x, y, i, tb(N), tw(N)) for i in range(1, i_max + 1)]
        return [zero] + [a for a, _ in new], [zero] + [b for _, b in new]

    return full_cap_iteration(update, ([zero] * (i_max + 1), [zero] * (i_max + 1)), N)


@pytest.mark.parametrize("N", range(1, 11))
def test_solvers_match_full_cap_iteration(N):
    assert (solve_bw(N).first, solve_bw(N).second) == oracle_family("bw", N, N + 2)
    assert (solve_pq(N).first, solve_pq(N).second) == oracle_family("pq", N, N + 2)
    even, odd = oracle_family("y", N, N + 3)
    merged = [even[0]] + [v for i in range(1, N + 4) for v in (odd[i], even[i])]
    assert solve_y(N).first == merged
    zero = bipoly_zero(N)
    limit = full_cap_iteration(
        lambda v: slice_solver.bicolored_rule(lambda i: v[0], lambda i: v[1], 1, tb(N), tw(N)),
        (zero, zero), N)
    assert (solve_limit(N).first, solve_limit(N).second) == limit


@pytest.mark.parametrize("term, what", [(1, "a constant term"), ("x", "a term linear in the unknowns")])
def test_solver_refuses_a_constant_or_linear_term(monkeypatch, term, what):
    # with either term the degree-by-degree solve would not hold: row c of
    # the right-hand side would read row c itself, or a row 0 that is not 0
    def rule(x, y, i, t_b, t_w):
        extra = x(i) if term == "x" else term
        return extra + t_b + x(i) * x(i), t_w + y(i) * x(i)

    monkeypatch.setitem(slice_solver.SYSTEMS, "bad", (rule, "bad", "bicolored"))
    for N in (1, 3):
        with pytest.raises(StructureError, match=what):
            slice_solver._solve("bad", N, N + 2)


def test_form_is_read_off_the_rules():
    # (source, groups) of each rule, groups as u * (sum of c * v); an
    # unknown is (side, height offset), side 0 for x and 1 for y
    form = slice_solver._form
    assert form(slice_solver.bicolored_rule) == [
        ((1, 0), [((0, 0), [(1, (1, -1)), (1, (0, 0)), (1, (1, 1))])]),
        ((0, 1), [((1, 0), [(1, (0, -1)), (1, (1, 0)), (1, (0, 1))])]),
    ]
    assert form(slice_solver.context_rule) == [
        ((1, 0), [((0, 0), [(1, (0, -1)), (1, (1, 0)), (1, (1, 1))])]),
        ((0, 1), [((1, 0), [(1, (0, -1)), (1, (1, 0))]), ((0, 0), [(1, (1, 1))])]),
    ]
    assert form(slice_solver.merged_rule)[1][0] == (-1, 1)


# ------------------------------------------ the top-cap store against per-cap solves

STORED = (solve_bw, solve_pq, solve_y, solve_limit, y1_series)


def clear_stores():
    for stored in STORED:
        stored.cache_clear()


def limit_step(X, Y, t_b, t_w):
    B, W = slice_solver.bicolored_rule(lambda i: X[0], lambda i: Y[0], 1, t_b, t_w)
    return [B], [W]


@pytest.fixture(scope="module")
def per_cap_solves():
    """What a solve at each cap 1..12 alone gives: the zero-started full-cap
    iteration up to cap 10, a cold row solve above it (the full-height
    rising schedule for the limit pair)."""
    out = {}
    for N in range(1, 13):
        solve_alone = oracle_family if N <= 10 else slice_solver._solve
        bw, pq, (even, odd) = (solve_alone(kind, N, N + clamp) for kind, clamp in (("bw", 2), ("pq", 2), ("y", 3)))
        if N <= 10:
            zero = bipoly_zero(N)
            limit = full_cap_iteration(lambda v: limit_step(*v, tb(N), tw(N)), ([zero], [zero]), N)
        else:
            limit = full_height_rising(limit_step, 1, N)
        merged = [even[0]] + [v for i in range(1, N + 4) for v in (odd[i], even[i])]
        out[N] = {"bw": bw, "pq": pq, "y": (merged, None), "limit": (limit[0][0], limit[1][0])}
    return out


REQUEST_ORDERS = {
    "ascending": list(range(1, 13)),
    "descending": list(range(12, 0, -1)),
    "shuffled-a": [7, 2, 11, 4, 9, 1, 12, 5, 3, 10, 6, 8],
    "shuffled-b": [3, 10, 1, 6, 12, 8, 2, 9, 5, 11, 4, 7],
}


@pytest.mark.parametrize("order", sorted(REQUEST_ORDERS))
def test_store_matches_per_cap_solves(order, per_cap_solves):
    clear_stores()
    for N in REQUEST_ORDERS[order]:
        want = per_cap_solves[N]
        for kind, solver, i_max in (("bw", solve_bw, N + 2), ("pq", solve_pq, N + 2),
                                    ("y", solve_y, 2 * N + 6)):
            fam = solver(N)
            assert (fam.cap, fam.i_max, len(fam.first)) == (N, i_max, i_max + 1), (kind, N)
            assert (fam.first, fam.second) == tuple(want[kind]), (kind, N)
            # the strict table ends where a solve at this cap ends
            table = fam.weight_table()
            for read in (table.a, table.b) if kind != "y" else (table.a,):
                with pytest.raises(StructureError, match="beyond stored range"):
                    read(i_max + 1)
        lim = solve_limit(N)
        assert (lim.cap, lim.first, lim.second) == (N, *want["limit"]), N
        assert y1_series(N) == want["y"][0][1], N


def test_store_refuses_caps_below_one_after_a_solve():
    clear_stores()
    for stored in STORED:
        stored(5)
    for stored in STORED:
        with pytest.raises(StructureError, match="cap must be >= 1"):
            stored(0)


def test_store_clear_and_counts():
    clear_stores()
    assert all(stored.cache_info() == (0, 0, 0) for stored in STORED)
    solve_bw(4)
    assert solve_bw.cache_info() == (0, 1, 1)
    solve_bw(4), solve_bw(2)
    assert solve_bw.cache_info() == (2, 1, 1)
    solve_bw(6)  # a higher cap is a miss, solved from row 1
    assert solve_bw.cache_info() == (2, 2, 1)
    solve_bw.cache_clear()
    assert solve_bw.cache_info().currsize == 0
    solve_bw(2)
    assert solve_bw.cache_info() == (0, 1, 1)


def test_store_hits_run_no_sweep(monkeypatch):
    clear_stores()
    for stored in STORED:
        stored(7)
    before = [stored.cache_info() for stored in STORED]
    work = []
    monkeypatch.setattr(slice_solver, "_solve", lambda *args, **kw: work.append(args))
    monkeypatch.setattr(slice_solver, "_confirm", lambda *args, **kw: work.append(args))
    for stored in STORED:
        for N in (7, 5, 1):
            stored(N)
    assert work == []
    for stored, info in zip(STORED, before):
        assert stored.cache_info() == (info.hits + 3, info.misses, 1), stored.__name__


def count_rows_and_sweeps(monkeypatch):
    """Record the degree of every row the solver computes and the cap of
    every confirming sweep."""
    row, confirm = slice_solver._row, slice_solver._confirm
    rows, sweeps = [], []
    monkeypatch.setattr(slice_solver, "_row", lambda groups, c: rows.append(c) or row(groups, c))
    monkeypatch.setattr(slice_solver, "_confirm",
                        lambda kind, X, Y, N: sweeps.append(N) or confirm(kind, X, Y, N))
    return rows, sweeps


def test_a_miss_above_the_store_solves_every_degree(monkeypatch):
    # row c is computed at heights 1..c of both sides, once each
    rows, sweeps = count_rows_and_sweeps(monkeypatch)
    clear_stores()
    solve_bw(5)
    assert rows == [c for c in range(1, 6) for _ in range(2 * c)]
    assert sweeps == [5]
    rows.clear(), sweeps.clear()
    solve_bw(8)  # degrees 1..8 afresh, then the confirming sweep at cap 8
    assert rows == [c for c in range(1, 9) for _ in range(2 * c)]
    assert sweeps == [8]


# ------------------------------- the row solver against the full-height sweeps

def full_height_rising(step, size, N):
    """The rising schedule with every sweep over all ``size`` heights, kept
    as the oracle for the row solver: sweep c = 1..N runs at cap c on the
    values cut to cap c, then one confirming sweep at cap N must reproduce
    its input."""
    X = Y = [bipoly_zero(0)] * size
    for c in range(1, N + 1):
        X, Y = step([v.with_cap(c) for v in X], [v.with_cap(c) for v in Y], tb(c), tw(c))
    if step(X, Y, tb(N), tw(N)) != (X, Y):
        raise VerificationError("fixed point iteration failed to become stationary")
    return X, Y


def full_height_solve(kind, N, i_max):
    rule = slice_solver.SYSTEMS[kind][0]

    def step(X, Y, t_b, t_w):
        x, y = (X + [X[i_max]]).__getitem__, (Y + [Y[i_max]]).__getitem__
        new = [rule(x, y, i, t_b, t_w) for i in range(1, i_max + 1)]
        return X[:1] + [a for a, _ in new], Y[:1] + [b for _, b in new]

    X, Y = full_height_rising(step, i_max + 1, N)
    assert X[i_max] == X[i_max - 1] and Y[i_max] == Y[i_max - 1]
    return X, Y


def full_height_families(N):
    even, odd = full_height_solve("y", N, N + 3)
    (B,), (W,) = full_height_rising(limit_step, 1, N)
    return {"bw": full_height_solve("bw", N, N + 2), "pq": full_height_solve("pq", N, N + 2),
            "y": [even[0]] + [v for i in range(1, N + 4) for v in (odd[i], even[i])], "limit": (B, W)}


@pytest.fixture(scope="module")
def full_height():
    return {N: full_height_families(N) for N in range(1, 21)}


def assert_full_height(N, want):
    for kind, solver in (("bw", solve_bw), ("pq", solve_pq)):
        fam = solver(N)
        assert (fam.first, fam.second) == want[kind], (kind, N)
    assert solve_y(N).first == want["y"], N
    lim = solve_limit(N)
    assert (lim.first, lim.second) == want["limit"], N


def test_row_solver_matches_full_height_cold(full_height):
    for N in range(1, 21):
        clear_stores()
        assert_full_height(N, full_height[N])


@pytest.mark.parametrize("chain", [list(range(1, 9)), [3, 7, 11, 14, 20]])
def test_row_solver_matches_full_height_along_rising_caps(full_height, chain):
    clear_stores()
    for N in chain:
        assert_full_height(N, full_height[N])
    assert [stored.cache_info().misses for stored in STORED[:4]] == [len(chain)] * 4


def test_row_solver_matches_full_height_at_cap_24():
    clear_stores()
    fam = solve_bw(24)
    assert (fam.first, fam.second) == full_height_solve("bw", 24, 26)


def test_row_solver_widens_mid_run(monkeypatch, full_height):
    # from 8-bit slots the rows outgrow their width several times; each
    # widening re-lays every row before the degree that needs it
    widened = []
    rewidth = slice_solver._rewidth
    monkeypatch.setattr(slice_solver, "_START_WIDTH", 8)
    monkeypatch.setattr(slice_solver, "_rewidth", lambda num, w, new, n: widened.append(new) or rewidth(num, w, new, n))
    clear_stores()
    for N in (4, 20):  # a solve, then a miss above it, each from 8 bits
        assert_full_height(N, full_height[N])
    assert {16, 32, 64} <= set(widened)


def test_limit_pair_is_the_top_height_of_both_solves(monkeypatch):
    # the flat rule's rising schedule is the oracle; solve_limit itself
    # solves nothing, reading the top of the context solve at its cap
    clear_stores()
    for N in range(1, 25):
        (B,), (W,) = full_height_rising(limit_step, 1, N)
        lim = solve_limit(N)
        assert (lim.cap, lim.first, lim.second) == (N, B, W), N
        for fam in (solve_pq(N), solve_bw(N)):
            assert (fam.first[-1], fam.second[-1]) == (B, W), (fam.kind, N)
    solves = []
    monkeypatch.setattr(slice_solver, "_solve", lambda *args: solves.append(args))
    solve_limit.cache_clear()
    assert solve_limit(24).first == B and solves == []


def test_a_corrupted_row_fails_the_confirming_sweep(monkeypatch):
    row = slice_solver._row
    seen = []

    def corrupted(groups, c):
        seen.append(c)
        return row(groups, c) + (len(seen) == 9)  # one slot of one row off by one

    monkeypatch.setattr(slice_solver, "_row", corrupted)
    for solver in (solve_bw, solve_pq, solve_limit):
        clear_stores()
        seen.clear()
        with pytest.raises(VerificationError, match="confirming sweep failed to become stationary"):
            solver(6)
        assert len(seen) > 9
        assert solver.cache_info().currsize == 0


def count_products(monkeypatch):
    """Count the bivariate products that run through the packed kernel."""
    products = []
    product = exactalg._product

    def counted(p, q):
        if isinstance(p, exactalg.MPoly):
            products.append(1)
        return product(p, q)

    monkeypatch.setattr(exactalg, "_product", counted)
    return products


def test_cold_solves_take_the_clamped_product_counts(monkeypatch):
    # the rows are int products, so a cold solve at cap 11 takes only its
    # confirming sweep's packed products: two a height for the bicolored
    # rule and three for the context rule over all 13 heights; the
    # full-height oracle sweeps all 13 at each of the 12 caps
    products = count_products(monkeypatch)
    for solver, kind, rows, full in ((solve_bw, "bw", 26, 312), (solve_pq, "pq", 39, 468)):
        clear_stores()
        products.clear()
        solver(11)
        assert len(products) == rows, kind
        products.clear()
        full_height_solve(kind, 11, 13)
        assert len(products) == full, kind


# ------------------------------------------------------ the store's cut memo

def test_store_cuts_each_lower_cap_once(monkeypatch):
    clear_stores()
    for stored in STORED:
        stored(9)
    cuts = []
    for cls in (slice_solver.SliceFamily, slice_solver.LimitPair, exactalg.MPoly):
        with_cap = cls.with_cap
        monkeypatch.setattr(cls, "with_cap", lambda self, N, _cut=with_cap: cuts.append(type(self)) or _cut(self, N))
    for stored in STORED:
        cuts.clear()
        hits, misses, _ = stored.cache_info()
        first, second = stored(5), stored(5)
        assert second is first, stored.__name__
        assert cuts.count(type(first)) == 1, stored.__name__
        assert stored.cache_info() == (hits + 2, misses, 1), stored.__name__


def test_store_memo_follows_the_top():
    clear_stores()
    solve_bw(9)
    stale = solve_bw(5)
    solve_bw(12)  # a new top empties the memo
    fresh = solve_bw(5)
    assert fresh is not stale
    assert (fresh.cap, fresh.i_max, fresh.first, fresh.second) == (5, 7, *full_height_solve("bw", 5, 7))
    assert (fresh.first, fresh.second) == (stale.first, stale.second)
    held = sys.getrefcount(fresh)
    solve_bw.cache_clear()  # lets go of the cut it kept
    assert sys.getrefcount(fresh) == held - 1
    assert solve_bw.cache_info() == (0, 0, 0)
    solve_bw(12)
    assert solve_bw(5) is not fresh
    assert solve_bw.cache_info() == (1, 1, 1)


def test_store_counts_of_a_scripted_run():
    # (hits, misses) of solve_bw, solve_pq, solve_y, solve_limit and
    # y1_series; y1_series checks against the context solve, so solve_y(3)
    # is a miss and solve_pq serves one more hit, and each solve_limit miss
    # (caps 6 and 7) reads the context solve, a hit on solve_pq
    clear_stores()
    for N in (4, 2, 2, 7, 3, 7, 5):
        solve_bw(N)
    for n in range(1, 4):
        f_n(n, 6), j_n(n, 6)
        for d in range(0, 3):
            conserved_f(n, d, 6), conserved_j(n, d, 6)
    y1_two_routes(6)
    solve_y(3), solve_y(8), solve_pq(5), f_n_closed(2, 7), y1_series(4)
    assert [tuple(stored.cache_info()[:2]) for stored in STORED] == [(17, 2), (16, 2), (0, 2), (1, 2), (1, 1)]


# --------------------------------- the merged sequence against its own solve

def rising_merged(N):
    """The merged rule row-solved by itself, interleaved; kept as the oracle
    for solve_y, which reads the context solution."""
    even, odd = slice_solver._solve("y", N, N + 3)
    return [even[0]] + [v for i in range(1, N + 4) for v in (odd[i], even[i])]


def test_solve_y_matches_the_rising_merged_solve():
    want = {N: rising_merged(N) for N in range(1, 13)}
    for N in range(1, 13):  # cold
        clear_stores()
        assert solve_y(N).first == want[N], N
    clear_stores()
    for N in range(1, 13):  # each cap a miss above the one below
        assert solve_y(N).first == want[N], N
        assert solve_y.cache_info().misses == N


@pytest.mark.parametrize("side, height", [("first", 1), ("second", 3), ("first", 8)])
def test_solve_y_rejects_a_tampered_context_height(monkeypatch, side, height):
    N = 6
    clear_stores()
    pq = solve_pq(N)
    heights = {"first": list(pq.first), "second": list(pq.second)}
    heights[side][height] = heights[side][height] + tb(N) ** N
    tampered = slice_solver.SliceFamily("pq", N, pq.i_max, heights["first"], heights["second"])
    monkeypatch.setattr(slice_solver, "solve_pq", lambda M: tampered)
    with pytest.raises(VerificationError, match="failed to become stationary"):
        solve_y(N)
    assert solve_y.cache_info().currsize == 0


def test_y1_series_checks_against_the_context_solve_alone():
    for N in (1, 4, 9):
        clear_stores()
        val = y1_series(N)
        assert solve_y.cache_info()[:2] == (0, 0), N  # no merged family built
        assert val == solve_y(N).first[1], N


@pytest.mark.parametrize("side", ["first", "second"])
def test_y1_series_rejects_a_tampered_first_context_height(monkeypatch, side):
    N = 6
    clear_stores()
    pq = solve_pq(N)
    heights = {"first": list(pq.first), "second": list(pq.second)}
    heights[side][1] = heights[side][1] + tb(N) ** N
    tampered = slice_solver.SliceFamily("pq", N, pq.i_max, heights["first"], heights["second"])
    monkeypatch.setattr(slice_solver, "solve_pq", lambda M: tampered)
    with pytest.raises(VerificationError, match="closed-form Y_1 disagrees with the solver"):
        y1_series(N)
    assert y1_series.cache_info().currsize == 0
