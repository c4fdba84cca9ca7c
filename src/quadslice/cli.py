"""Command-line front end: coefficient tables, verification suites, and
extraction runs.

Exit codes: 0 all good, 1 a mathematical verification failed, 2 usage or
I/O error (including an empty, negative or non-integer range, an index
beyond the solved range, an extraction height below 1, ``verify --n``,
``--alpha`` or ``--draws`` below 1, ``verify --enum-n`` or ``--enum-f``
below 0, ``verify --order`` below 3, ``verify bijection`` or ``all``
with ``--enum-n`` below 1, ``verify conserved`` or ``all`` with
``--cap`` below 6, ``verify newtype`` or ``extract --type newtype`` with
``--cap`` below 2, ``extract --type newtype`` with ``--internal-cap``,
which only ``--type stieltjes`` reads, ``table --cap``, ``verify
--cap``, ``extract --cap`` or ``extract --internal-cap`` below 1, and
``extract --type stieltjes --internal-cap`` below the solver heights the
boundary series reads, named with the least value that reaches them, and
``table --what fn|jn`` or ``verify equality`` with an ``--n`` above the
solver heights at ``--cap``, named with the least ``--cap`` that reaches
it).
``verify stieltjes|newtype`` and ``extract`` share one rung comparison: a rung
exact only below ``--cap``, as from an ``extract --internal-cap`` too
small for it, fails with exit 1, naming the rung and the cap it reached.
All coefficients are serialized as exact fraction strings.

A command imports the engine modules it uses on first use, so importing
this module loads only ``errors`` of the package.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str

from .errors import NonInvertibleError, ResourceGuardError, StructureError, VerificationError


def _parse_range(text):
    parts = text.split("..", 1)
    try:
        lo, hi = int(parts[0]), int(parts[-1])
    except ValueError:
        raise ValueError(f"non-integer range {text!r}") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    if lo < 0:
        raise ValueError(f"negative index in range {text!r}")
    return range(lo, hi + 1)


def _int_at_least(minimum):
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _poly_entry(index, poly):
    monomials = [
        {"tb": a, "tw": b, "coeff": f"{c.numerator}/{c.denominator}"}
        for (a, b), c in sorted(poly.terms.items())
    ]
    return {"index": index, "monomials": monomials}


def _table_json(what, cap, entries):
    """The text of ``json.dumps({"what": ..., "cap": ..., "entries": ...}, indent=2)``.

    ``indent`` makes json fall back to its pure-Python encoder, so the
    table's fixed shape is laid out here: strings go through json's C string
    encoder, and ints print as json prints them.
    """

    def block(items, pad):
        return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"

    mono = '        {\n          "tb": %d,\n          "tw": %d,\n          "coeff": %s\n        }'

    def entry(e):
        monomials = block([mono % (m["tb"], m["tw"], _json_str(m["coeff"])) for m in e["monomials"]], "      ")
        return '    {\n      "index": %d,\n      "monomials": %s\n    }' % (e["index"], monomials)

    entries = block([entry(e) for e in entries], "  ")
    return '{\n  "what": %s,\n  "cap": %d,\n  "entries": %s\n}' % (_json_str(what), cap, entries)


def _emit_table(what, cap, entries, fmt, out):
    if fmt == "json":
        out.write(_table_json(what, cap, entries))
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["index", "tb_exp", "tw_exp", "coeff"])
        for entry in entries:
            for mono in entry["monomials"]:
                writer.writerow([entry["index"], mono["tb"], mono["tw"], mono["coeff"]])
    else:  # the lines of bipoly_to_text
        for entry in entries:
            out.write(f"# index {entry['index']}\n")
            out.write("".join(f"{m['tb']} {m['tw']} {m['coeff']}\n" for m in entry["monomials"]) or "\n")


# weight table -> (solver in slice_solver, sequence of the solved family)
_WEIGHTS = {"b": ("solve_bw", "first"), "w": ("solve_bw", "second"), "p": ("solve_pq", "first"),
            "q": ("solve_pq", "second"), "y": ("solve_y", "first")}


def cmd_table(args) -> int:
    from . import slice_solver

    cap = args.cap
    if args.what in ("fn", "jn"):
        wanted = _parse_range(args.n)
        _check_boundary_cap(wanted[-1], cap)
        upto = slice_solver.f_upto if args.what == "fn" else slice_solver.j_upto
        series = upto(wanted[-1], cap)
        entries = [_poly_entry(n, series[n]) for n in wanted]
    else:
        solver, side = _WEIGHTS[args.what]
        fam = getattr(slice_solver, solver)(cap)
        entries = []
        for i in _parse_range(args.i):
            if i > fam.i_max:
                raise StructureError(f"index {i} beyond solved range {fam.i_max}")
            entries.append(_poly_entry(i, getattr(fam, side)[i]))
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
        _emit_table(args.what, cap, entries, args.format, out)
    return 0


SUITES = (
    "equality",
    "stieltjes",
    "newtype",
    "closedforms",
    "conserved",
    "bijection",
    "heaps",
    "reflection",
    "all",
)


def _run_suite(name, args, log):
    # each suite imports the modules it calls, so a suite compiles no other
    # suite's modules where bytecode is not cached
    if name == "equality":
        from . import maps_oracle, slice_solver

        fs, js = slice_solver.f_upto(args.n, args.cap), slice_solver.j_upto(args.n, args.cap)
        for n in range(1, args.n + 1):
            if fs[n] != js[n]:
                raise VerificationError(f"boundary series differ at n={n}")
        log(f"slice route: f_n = j_n for n <= {args.n} at cap {args.cap}")
        for n in range(1, args.enum_n + 1):
            for f in range(0, args.enum_f + 1):
                F = maps_oracle.bf_F(n, f)
                if F != maps_oracle.bf_J(n, f):
                    raise VerificationError(f"enumerated weight sums differ at ({n},{f})")
                if F != slice_solver.f_n(n, n + f):
                    raise VerificationError(f"enumeration disagrees with solver at ({n},{f})")
        log(f"enumeration route: bf_F = bf_J = f_n for n <= {args.enum_n}, f <= {args.enum_f}")
    elif name in ("stieltjes", "newtype"):
        from . import contfrac

        stieltjes = name == "stieltjes"
        for rung, extracted, solver_val in _rungs(name, args.cap, range(1, 3 if stieltjes else 5)):
            if extracted != solver_val:
                raise VerificationError(f"extracted {rung} disagrees with the solver")
        if stieltjes:
            log(f"Hankel extraction reproduces B_2, B_4, W_1, W_3 at cap {args.cap}")
        else:
            log(f"Hankel-type extraction reproduces Y_1..Y_8 at cap {args.cap}")
            for line in contfrac.underdetermination_witness(args.seed).lines:
                log("witness: " + line)
    elif name == "closedforms":
        from . import closed_forms

        for system in ("bw", "pq", "y"):
            closed_forms.verify_recursion(system, range(1, 7), args.order)
        log(f"recursion residuals vanish to order {args.order}, heights 1..6")
        closed_forms.param_equivalence(min(args.order, 6))
        closed_forms.series_match(min(args.order, 6))
        log("parametrization equivalence and solver match")
        closed_forms.section6_algebra()
        closed_forms.large_height_collapse(min(args.order, 6))
        log("rational identities of the constructive route")
    elif name == "conserved":
        from . import slice_solver

        fs, js = slice_solver.f_upto(3, args.cap), slice_solver.j_upto(3, args.cap)
        levels = [(slice_solver.conserved_f(3, d, args.cap), slice_solver.conserved_j(3, d, args.cap))
                  for d in range(0, 5)]
        for n in range(1, 4):
            for d, (inv_f, inv_j) in enumerate(levels):
                if inv_f[n - 1] != fs[n].with_cap(args.cap - 1):
                    raise VerificationError(f"the bicolored invariant differs from f_n at n={n}, level {d}")
                if inv_j[n - 1] != js[n].with_cap(args.cap - 1):
                    raise VerificationError(f"the context invariant differs from j_n at n={n}, level {d}")
        log(f"invariants level-independent for n <= 3, levels 0..4, cap {args.cap}")
        slice_solver.conserved_symbolic_display_check(range(0, 5))
        log("symbolic displays of the first two invariants hold at every level")
        slice_solver.y1_two_routes(args.cap)
        log("first merged coefficient agrees across its routes")
    elif name == "bijection":
        from . import maps_oracle

        for n in range(1, args.enum_n + 1):
            for f in range(0, args.enum_f + 1):
                maps_oracle.bijection_check(n, f)
        log(f"bijection suite on n <= {args.enum_n}, f <= {args.enum_f}")
    elif name == "heaps":
        from . import heaps

        for a in range(1, args.alpha + 1):
            heaps.heaps_vs_fraction_check(a, args.seed + a)
            heaps.complementation_check(a, args.seed + 10 + a)
            heaps.linear_relation_check(a, args.seed + 20 + a)
        log(f"heap series, complementation and ladder relations for alpha <= {args.alpha}")
        for i in range(2, 5):
            heaps.linear_relation_specialized_check(i)
            heaps.linear_relation_gprime_check(i)
        log("constant-weight relations with boundary values for i <= 4")
        heaps.hh_closed_check(4, args.seed)
        heaps.ladder_stabilization_check(5, args.seed)
        heaps.h_ladder(6)
        log("determinant closed forms, stabilization, and the rescaled ladder")
    elif name == "reflection":
        from . import contfrac

        for a in range(1, args.alpha + 1):
            for k in range(args.draws):
                contfrac.finite_reflection_check(a, args.seed + 100 * a + k)
        log(f"finite reflection for alpha <= {args.alpha}, {args.draws} draws each")
    else:
        raise StructureError(f"unknown suite {name!r}")


def cmd_verify(args) -> int:
    names = list(SUITES[:-1]) if args.suite == "all" else [args.suite]
    if "bijection" in names and args.enum_n < 1:
        raise StructureError(f"the bijection suite needs --enum-n >= 1, got {args.enum_n}")
    # invariants up to n = 3 at levels up to 4 read weights of height 8,
    # and the solved families reach height cap + 2
    if "conserved" in names and args.cap < 6:
        raise StructureError(f"the conserved suite needs --cap >= 6, got {args.cap}")
    if "equality" in names:
        _check_boundary_cap(args.n, args.cap)
    if "newtype" in names:
        _check_newtype_cap(args.cap)
    failed = False
    for name in names:
        lines = []
        try:
            _run_suite(name, args, lines.append)
        except (VerificationError, NonInvertibleError) as exc:
            print(f"FAIL {name}: {exc}")
            failed = True
            continue
        print(f"PASS {name}")
        for line in lines:
            print(f"  - {line}")
    return 1 if failed else 0


def _check_boundary_cap(n, cap):
    """f_n and j_n read the solved weights at heights 1..n, and the solvers
    at cap reach the height ``i_max_at`` gives (cap + 2)."""
    from .slice_solver import i_max_at

    top = i_max_at("bw", cap)
    if n > top:
        raise StructureError(f"--cap {cap} solves heights up to {top}, below the height {n} that the boundary"
                             f" series at n = {n} reads (--cap at least {n - 2})")


def _check_newtype_cap(cap):
    # the extraction reads the solvers at cap - 1, which must be >= 1
    if cap < 2:
        raise StructureError(f"the newtype extraction needs --cap >= 2, got {cap}")


def _rungs(kind, cap, heights, internal_cap=None):
    """(name, extracted, solver) for rungs 2 heights[0] - 1 .. 2 heights[-1]
    of the Stieltjes (bicolored) or two-term (merged) fraction, both values
    cut to cap; StructureError names the highest rung the solver reaches at
    cap, NonInvertibleError the first rung exact only below cap."""
    from . import contfrac, slice_solver

    i_max = heights[-1]
    stieltjes = kind == "stieltjes"
    if not stieltjes:
        if internal_cap is not None:
            raise StructureError("--internal-cap applies only to --type stieltjes")
        _check_newtype_cap(cap)
    # the solver's rungs: bicolored heights at cap + 2, merged ones at cap
    top = slice_solver.i_max_at("bw", cap + 2) if stieltjes else slice_solver.i_max_at("y", cap)
    if 2 * i_max > top:
        raise StructureError(f"--cap {cap} reaches rung {top} of the solver, below rung {2 * i_max}"
                             f" (--i up to {top // 2})")
    if stieltjes:
        if internal_cap is not None:
            # fixed internal cap: the boundary series reads f_n for n <= 2 i_max
            # off solve_bw(internal_cap), and divisions fail loudly when it is too small
            top = slice_solver.i_max_at("bw", internal_cap)
            if 2 * i_max > top:
                raise StructureError(f"--internal-cap {internal_cap} reaches rung {top} of the solver, below rung"
                                     f" {2 * i_max} (--internal-cap at least {2 * i_max - 2})")
            got = contfrac.stieltjes_extract(contfrac.boundary_series(2 * i_max, internal_cap), i_max)
        else:
            got = contfrac.stieltjes_rungs_from_solver(cap, i_max)
        bw = slice_solver.solve_bw(cap + 2)

        def rung(k):  # odd rungs are the white weights, even rungs the black
            tag, seq = ("b", bw.first) if k % 2 == 0 else ("w", bw.second)
            return f"{tag}{k}", got[(tag, k)], seq[k]
    else:
        got = contfrac.newtype_rungs_from_solver_inputs(cap - 1, i_max)
        yf = slice_solver.solve_y(cap)

        def rung(k):
            return f"y{k}", got[k - 1], yf.first[k]
    rungs = [rung(k) for k in range(2 * heights[0] - 1, 2 * i_max + 1)]
    for name, val, _ in rungs:
        if val.cap < cap:
            raise NonInvertibleError(f"{name} is exact only to cap {val.cap}, below --cap {cap}")
    return [(name, val.with_cap(cap), solver_val.with_cap(cap)) for name, val, solver_val in rungs]


def cmd_extract(args) -> int:
    from .exactalg import bipoly_to_text

    wanted = _parse_range(args.i)
    if wanted[0] < 1:
        raise StructureError("extraction heights start at 1")
    all_equal = True
    for name, extracted, solver_val in _rungs(args.type, args.cap, wanted, args.internal_cap):
        equal = extracted == solver_val
        all_equal = all_equal and equal
        print(f"{name}: {'equal' if equal else 'DIFFERENT'}")
        print("  extracted: " + (bipoly_to_text(extracted).replace("\n", " | ") or "0"))
        print("  solver   : " + (bipoly_to_text(solver_val).replace("\n", " | ") or "0"))
    return 0 if all_equal else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quadslice",
        description="Exact slice generating functions of weighted quadrangulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print coefficient tables")
    p_table.add_argument("--what", required=True, choices=["fn", "jn", "b", "w", "p", "q", "y"])
    p_table.add_argument("--n", default="1..3", help="range like 1..3 (for fn/jn)")
    p_table.add_argument("--i", default="1..4", help="range like 1..4 (for weights)")
    p_table.add_argument("--cap", type=_positive_int, default=4)
    p_table.add_argument("--format", default="text", choices=["json", "csv", "text"])
    p_table.add_argument("--output", default=None)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--n", type=_positive_int, default=4)
    p_verify.add_argument("--cap", type=_positive_int, default=6)
    p_verify.add_argument("--order", type=_int_at_least(3), default=8)
    p_verify.add_argument("--enum-n", type=_nonnegative_int, default=3)
    p_verify.add_argument("--enum-f", type=_nonnegative_int, default=3)
    p_verify.add_argument("--alpha", type=_positive_int, default=4)
    p_verify.add_argument("--draws", type=_positive_int, default=20)
    p_verify.add_argument("--seed", type=int, default=20260808)
    p_verify.set_defaults(func=cmd_verify)

    p_extract = sub.add_parser("extract", help="extract fraction rungs and compare")
    p_extract.add_argument("--type", required=True, choices=["stieltjes", "newtype"])
    p_extract.add_argument("--i", default="1..2")
    p_extract.add_argument("--cap", type=_positive_int, default=6)
    p_extract.add_argument("--internal-cap", type=_positive_int, default=None,
                           help="fixed internal series cap (no adaptation); too small a value surfaces the non-exact division diagnostic")
    p_extract.set_defaults(func=cmd_extract)
    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser, built once per process; ``parse_args`` keeps no state
    from one call to the next."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (VerificationError, NonInvertibleError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (StructureError, ResourceGuardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
