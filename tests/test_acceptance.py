"""Acceptance criteria, one test per criterion, every tolerance identically
zero.  Run with `pytest -s tests/test_acceptance.py` to see one PASS line
per criterion."""

from quadslice import closed_forms, contfrac, heaps, maps_oracle, slice_solver


def _ok(line):
    print(f"PASS {line}")


def test_criterion_01_fundamental_equality():
    for n in range(1, 4):
        for f in range(0, 4):
            assert maps_oracle.bf_F(n, f) == maps_oracle.bf_J(n, f), (n, f)
    for n in range(0, 5):
        assert slice_solver.f_n(n, 6) == slice_solver.j_n(n, 6), n
    _ok("criterion 1: boundary series of the two weightings coincide "
        "(enumeration n<=3 f<=3; slice route n<=4 cap 6)")


def test_criterion_02_oracle_agreement():
    for n in range(1, 4):
        for f_max in range(0, 4):
            assert maps_oracle.bf_F(n, f_max) == slice_solver.f_n(n, n + f_max), (n, f_max)
    _ok("criterion 2: exhaustive enumeration matches the slice formula "
        "on all monomials of total degree <= f_max + n")


def test_criterion_03_stieltjes_extraction():
    got = contfrac.stieltjes_rungs_from_solver(6, 2)
    bw = slice_solver.solve_bw(8)
    for (tag, idx), val in got.items():
        seq = bw.first if tag == "b" else bw.second
        assert val.with_cap(6) == seq[idx].with_cap(6), (tag, idx)
    _ok("criterion 3: Hankel determinant ratios recover B_2, B_4, W_1, W_3 "
        "at cap 6 exactly")


def test_criterion_04_newtype_extraction():
    got = contfrac.newtype_rungs_from_solver_inputs(5, 4)
    yf = slice_solver.solve_y(8)
    for j, val in enumerate(got, start=1):
        assert val.cap >= 6
        assert val.with_cap(6) == yf.first[j].with_cap(6), j
    for n in range(0, 3):
        assert contfrac.conjectured_tilde_j_graded(n, 6) == (
            contfrac.conjectured_tilde_j_rescaled_route(n, 6)
        ), n
    _ok("criterion 4: conjectured companion series feeds the Hankel-type "
        "extraction and reproduces Y_1..Y_8 at cap 6 exactly; both "
        "companion routes agree at order 6")


def test_criterion_05_closed_forms():
    for system in ("bw", "pq", "y"):
        assert closed_forms.verify_recursion(system, range(1, 7), 8).passed
    assert closed_forms.param_equivalence(6).passed
    assert closed_forms.series_match(6).passed
    assert closed_forms.section6_algebra().passed
    assert closed_forms.large_height_collapse(6).passed
    _ok("criterion 5: closed forms solve all three recursions to order 8 "
        "for heights <= 6; parametrizations equivalent; rational identities hold")


def test_criterion_06_conserved_quantities():
    for d in range(0, 5):
        inv_f, inv_j = slice_solver.conserved_f(3, d, 6), slice_solver.conserved_j(3, d, 6)
        for n in range(1, 4):
            assert inv_f[n - 1] == slice_solver.f_n(n, 6).with_cap(5), (n, d)
            assert inv_j[n - 1] == slice_solver.j_n(n, 6).with_cap(5), (n, d)
    assert slice_solver.conserved_symbolic_display_check(range(0, 5)).passed
    slice_solver.y1_two_routes(6)
    _ok("criterion 6: invariants level-independent for d <= 4, n <= 3 at cap 6; "
        "symbolic displays hold; first merged coefficient agrees across routes")


def test_criterion_07_finite_reflection():
    for alpha in range(1, 5):
        for k in range(20):
            assert contfrac.finite_reflection_check(alpha, seed=1000 * alpha + k).passed
    _ok("criterion 7: finite-fraction reflection identity over 20 seeded "
        "draws for each alpha <= 4")


def test_criterion_08_heaps_suite():
    for alpha in range(1, 5):
        assert heaps.heaps_vs_fraction_check(alpha, seed=200 + alpha).passed
        assert heaps.complementation_check(alpha, seed=300 + alpha).passed
        assert heaps.linear_relation_check(alpha, seed=400 + alpha).passed
    for i in range(2, 5):
        assert heaps.linear_relation_specialized_check(i).passed
        assert heaps.linear_relation_gprime_check(i).passed
    assert heaps.hh_closed_check(4, seed=500).passed
    assert heaps.ladder_stabilization_check(5, seed=600).passed
    assert heaps.h_ladder(6).passed
    _ok("criterion 8: heap series equal fraction expansions; complementation, "
        "ladder relations with boundary values, determinant closed forms, "
        "and the rescaled ladder all hold exactly")


def test_criterion_09_bijection_suite():
    for n in range(1, 4):
        for f in range(0, 4):
            assert maps_oracle.bijection_check(n, f).passed
    _ok("criterion 9: both boundary bijections verified on the whole corpus "
        "n <= 3, f <= 3 with weight transport and oriented distances")


def test_criterion_10_underdetermination_witness():
    report = contfrac.underdetermination_witness(7)
    assert report.passed
    _ok("criterion 10: two companion choices give different rungs with "
        "identical re-expanded main series")
