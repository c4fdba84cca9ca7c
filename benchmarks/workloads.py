"""Workloads of the quadslice benchmark: their jobs, cold passes and output checks.

A workload is a fixed list of jobs.  A job is either an in-process
``quadslice.cli.main([...])`` call with its output captured, or a direct call
into the library that compares two independent routes to one value or runs
the library's own checks.  A pass runs every job of a workload once, in
order, in one thread, starting from cold caches: every ``lru_cache`` of the
package is cleared first.  Within a pass the jobs share the caches, as the
suites of ``quadslice verify all`` do.  Each job is timed both as measured
and at the reference speed of ``reference.py``.

A job that raises, exits non-zero, misses an expected verdict line, or
produces output whose sha256 differs from the recorded fingerprint counts as
one failed operation; the pass goes on with the next job.

Run as a script, this module runs one pass in the current (fresh) process and
prints one JSON object; ``benchmarks/run.py`` starts one such child per pass.
``--record`` instead re-records ``fingerprints.json`` from one pass of every
workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

from quadslice import cli, contfrac, heaps, lattice_paths, maps_oracle, slice_solver
from quadslice.exactalg import bipoly_to_text

import tracer
from reference import Sampler

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

# Captured at import, before any tracer can rebind the module attributes.
CACHES = {
    "slice_solver": {
        "solve_bw": slice_solver.solve_bw,
        "solve_pq": slice_solver.solve_pq,
        "solve_y": slice_solver.solve_y,
        "solve_limit": slice_solver.solve_limit,
        "y1_series": slice_solver.y1_series,
    },
    "maps_oracle": {
        "enumerate_quads": maps_oracle.enumerate_quads,
        "enumerate_bridgeless_maps": maps_oracle.enumerate_bridgeless_maps,
    },
}


class JobFailure(Exception):
    """A job ran to the end but its output is not the verified answer."""


class Job:
    """One operation of a workload.

    ``run`` returns the canonical text of the job's output or raises.
    ``fingerprinted`` jobs are deterministic, so their text must hash to the
    recorded sha256; seeded jobs are checked by their verdicts only.
    """

    __slots__ = ("name", "run", "fingerprinted")

    def __init__(self, name, run, fingerprinted=True):
        self.name = name
        self.run = run
        self.fingerprinted = fingerprinted


# ------------------------------------------------------------- job builders

def _cli_job(name, argv, expect, fingerprinted=True):
    """A CLI call: exit code 0 and every line in ``expect`` on stdout.

    ``expect`` may also be a callable that checks the whole stdout text.
    """

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        text = out.getvalue()
        if code != 0:
            raise JobFailure(f"exit code {code}: {err.getvalue().strip()}")
        if callable(expect):
            expect(text)
        else:
            lines = set(text.splitlines())
            missing = [line for line in expect if line not in lines]
            if missing:
                raise JobFailure(f"missing output lines {missing}")
        return text

    return Job(name, run, fingerprinted)


def _table_job(what):
    def expect(text):
        entries = json.loads(text)["entries"]
        if [e["index"] for e in entries] != list(range(1, 11)):
            raise JobFailure("table does not hold indices 1..10")

    argv = ["table", "--what", what, "--i", "1..10", "--cap", "11", "--format", "json"]
    return _cli_job(f"table-{what}", argv, expect)


def _series_text(s):
    """Canonical text of a series over rational functions of one variable."""
    lines = []
    for k, c in enumerate(s.coeffs):
        num = " ".join(str(Fraction(x)) for x in c.num.coeffs)
        den = " ".join(str(Fraction(x)) for x in c.den.coeffs)
        lines.append(f"{k}: {num} / {den}")
    return "\n".join(lines)


def _mpoly_text(p):
    """Canonical text of a sparse many-variable polynomial."""
    return "\n".join(f"{' '.join(map(str, e))} {Fraction(c)}" for e, c in sorted(p.terms.items()))


def _companion_job(n, order=5):
    def run():
        graded = contfrac.conjectured_tilde_j_graded(n, order)
        rescaled = contfrac.conjectured_tilde_j_rescaled_route(n, order)
        if graded != rescaled:
            raise JobFailure(f"companion routes differ at n={n}")
        return _series_text(graded)

    return Job(f"companion-{n}", run)


def _witness_job(seed):
    def run():
        return "\n".join(contfrac.underdetermination_witness(seed).lines)

    return Job("witness", run, fingerprinted=False)


def _oracle_job(n, f_max=2):
    """Enumerated weight sums of both weightings equal the solver's f_n."""

    def run():
        texts = []
        for f in range(f_max + 1):
            bf_f = maps_oracle.bf_F(n, f)
            if bf_f != maps_oracle.bf_J(n, f) or bf_f != slice_solver.f_n(n, n + f):
                raise JobFailure(f"enumeration and solver disagree at ({n},{f})")
            texts.append(bipoly_to_text(bf_f))
        return "\n\n".join(texts)

    return Job(f"oracle-n{n}", run)


def _symbol_job(kind, n):
    """Opaque-symbol path sum; with every weight set to 1 its coefficients
    count the Dyck paths of half-length n, the Catalan number C_n."""

    def run():
        table, _ = lattice_paths.symbol_table(kind, n)
        total = getattr(lattice_paths, f"z_{kind}")(lattice_paths.PathSpec(n, 0), table)
        if sum(total.terms.values()) != comb(2 * n, n) // (n + 1):
            raise JobFailure(f"{kind} path sum does not count the Dyck paths")
        return _mpoly_text(total)

    return Job(f"symbols-{kind}-{n}", run)


def _heaps_job(seed, ladder=2):
    """The checks of ``quadslice verify heaps``, with the determinant ladder
    ``h_ladder`` run to ``ladder`` instead of 6 so that a pass stays short."""

    def run():
        reports = []
        for a in range(1, 5):
            reports += [heaps.heaps_vs_fraction_check(a, seed + a), heaps.complementation_check(a, seed + 10 + a),
                        heaps.linear_relation_check(a, seed + 20 + a)]
        for i in range(2, 5):
            reports += [heaps.linear_relation_specialized_check(i), heaps.linear_relation_gprime_check(i)]
        reports += [heaps.hh_closed_check(4, seed), heaps.ladder_stabilization_check(5, seed), heaps.h_ladder(ladder)]
        return "\n".join(line for report in reports for line in report.lines)

    return Job("heaps-suite", run, fingerprinted=False)


def _display_job():
    def run():
        return "\n".join(slice_solver.conserved_symbolic_display_check(range(0, 10)).lines)

    return Job("symbolic-displays", run)


# ----------------------------------------------------------------- workloads

def _bivariate_solve(rng):
    return [
        _table_job("y"),
        _table_job("b"),
        _table_job("p"),
        _cli_job("verify-equality", ["verify", "equality", "--n", "4", "--cap", "9", "--enum-n", "0"],
                 ["PASS equality"]),
        _cli_job("verify-stieltjes", ["verify", "stieltjes", "--cap", "8"], ["PASS stieltjes"]),
        _cli_job("verify-conserved", ["verify", "conserved", "--cap", "7"], ["PASS conserved"]),
        _cli_job("extract-stieltjes", ["extract", "--type", "stieltjes", "--i", "1..2", "--cap", "8"],
                 ["w1: equal", "b2: equal", "w3: equal", "b4: equal"]),
    ]


def _twoterm_extract(rng):
    return [
        _cli_job("extract-newtype", ["extract", "--type", "newtype", "--i", "1..3", "--cap", "6"],
                 [f"y{j}: equal" for j in range(1, 7)]),
        *(_companion_job(n) for n in range(3)),
        _witness_job(rng.randrange(1, 10**9)),
    ]


def _tower_identities(rng):
    return [
        _heaps_job(rng.randrange(1, 10**9)),
        _cli_job("verify-closedforms", ["verify", "closedforms", "--order", "4"], ["PASS closedforms"]),
        _cli_job("verify-reflection", ["verify", "reflection", "--seed", str(rng.randrange(1, 10**9))],
                 ["PASS reflection"], fingerprinted=False),
    ]


def _oracle_and_symbols(rng):
    return [
        _cli_job("verify-bijection", ["verify", "bijection", "--enum-f", "2"], ["PASS bijection"]),
        *(_oracle_job(n) for n in range(1, 5)),
        _symbol_job("context", 11),
        _symbol_job("bicolored", 12),
        _display_job(),
    ]


WORKLOADS = {
    "bivariate-solve": _bivariate_solve,
    "twoterm-extract": _twoterm_extract,
    "tower-identities": _tower_identities,
    "oracle-and-symbols": _oracle_and_symbols,
}


def build(workload, seed):
    """The jobs of a workload; the seed only feeds the randomised suites."""
    return WORKLOADS[workload](random.Random(seed))


# -------------------------------------------------------------------- passes

def cold_start():
    """Clear every solver and oracle cache and collect garbage."""
    for layer in CACHES.values():
        for cached in layer.values():
            cached.cache_clear()
    gc.collect()


def cache_stats():
    """Hits and misses of every cache, by function name."""
    return {
        name: {"hits": cached.cache_info().hits, "misses": cached.cache_info().misses}
        for layer in CACHES.values()
        for name, cached in layer.items()
    }


def load_fingerprints():
    return json.loads(FINGERPRINTS.read_text())


def run_pass(jobs, fingerprints):
    """Run the jobs once from cold caches; failures are recorded, not raised.

    ``fingerprints`` maps job names to the sha256 their output must have;
    None skips that check.
    """
    cold_start()
    results = []
    with Sampler() as sampler:
        for job in jobs:
            start = time.perf_counter()
            try:
                text = job.run()
                error = None
            except Exception as exc:  # one failed op; the pass goes on with the next job
                text = None
                error = {"type": type(exc).__name__, "message": str(exc)}
            end = time.perf_counter()
            sampler.sample()
            seconds, at_ref_s = sampler.timed(start, end)
            digest = None if text is None else hashlib.sha256(text.encode()).hexdigest()
            if error is None and fingerprints is not None and job.fingerprinted \
                    and digest != fingerprints.get(job.name):
                error = {"type": "FingerprintMismatch", "message": f"sha256 {digest}"}
            results.append({"name": job.name, "seconds": seconds, "at_ref_s": at_ref_s, "sha256": digest,
                            "error": error})
    return {
        "jobs": results,
        "wall_s": sum(r["seconds"] for r in results),
        "wall_ref_s": sum(r["at_ref_s"] for r in results),
        "reference_s": [reference for _, _, reference in sampler.samples],
        "caches": cache_stats(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one benchmark pass and print it as JSON.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="wrap the library in spans")
    parser.add_argument("--record", action="store_true",
                        help="re-record fingerprints.json from one pass of every workload")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    jobs = build(args.workload, args.seed)
    tr = tracer.Tracer() if args.trace else None
    with tr or contextlib.nullcontext():
        result = run_pass(jobs, load_fingerprints())
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["spans"] = tr.export() if tr else None
    print(json.dumps(result))
    return 0


def record():
    """Write the sha256 of every deterministic job output to fingerprints.json."""
    digests = {}
    for workload in WORKLOADS:
        jobs = build(workload, 0)
        result = run_pass(jobs, None)
        for job, res in zip(jobs, result["jobs"]):
            if res["error"] is not None:
                print(f"{workload}/{job.name} failed: {res['error']}", file=sys.stderr)
                return 1
            if job.fingerprinted:
                digests[job.name] = res["sha256"]
    FINGERPRINTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
