"""Self-test of the benchmark harness: cold passes, the tracer, failure counting.

    python3 benchmarks/selftest.py

It uses small jobs so that it runs in seconds; the timed workloads are only
run by ``run.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from quadslice import closed_forms, contfrac, exactalg, heaps, ratfunc, series, slice_solver  # noqa: E402
from workloads import Job, run_pass  # noqa: E402


def _companion():
    graded = contfrac.conjectured_tilde_j_graded(1, 3)
    if graded != contfrac.conjectured_tilde_j_rescaled_route(1, 3):
        raise workloads.JobFailure("companion routes differ")
    return workloads._series_text(graded)


def mini_jobs():
    """A few cheap jobs that touch all seven caches and every ring kernel."""
    return [
        workloads._cli_job("table-y", ["table", "--what", "y", "--i", "1..3", "--cap", "5", "--format", "json"],
                           lambda text: None, fingerprinted=False),
        workloads._cli_job("table-b", ["table", "--what", "b", "--i", "1..3", "--cap", "5", "--format", "json"],
                           lambda text: None, fingerprinted=False),
        workloads._cli_job("extract-stieltjes", ["extract", "--type", "stieltjes", "--i", "1..1", "--cap", "3"],
                           ["w1: equal", "b2: equal"], fingerprinted=False),
        Job("companion", _companion, fingerprinted=False),
        Job("reflection", lambda: "\n".join(contfrac.finite_reflection_check(2, 7).lines), fingerprinted=False),
        workloads._cli_job("bijection", ["verify", "bijection", "--enum-n", "1", "--enum-f", "1"],
                           ["PASS bijection"], fingerprinted=False),
    ]


def _digests(result):
    return [job["sha256"] for job in result["jobs"]]


class ColdPasses(unittest.TestCase):
    def test_consecutive_passes_have_identical_cache_counts(self):
        first = run_pass(mini_jobs(), None)
        second = run_pass(mini_jobs(), None)
        self.assertEqual([j["error"] for j in first["jobs"]], [None] * len(first["jobs"]))
        self.assertEqual(first["caches"], second["caches"])
        for job in first["jobs"]:
            self.assertGreater(job["at_ref_s"], 0.0, job["name"])
        for name, info in first["caches"].items():
            self.assertGreater(info["misses"], 0, name)


class TracerBindings(unittest.TestCase):
    # functions that other modules import by name, as module -> names
    IMPORTED = {
        contfrac: ("det_division_free", "f_n", "solve_limit", "y1_series", "graded_div", "z_const"),
        heaps: ("hankel_type_dets", "expand", "tilde_coeffs", "z_const"),
        closed_forms: ("solve_bw", "solve_pq", "solve_y", "solve_limit"),
        slice_solver: ("z_bicolored", "z_context", "z_const", "graded_div"),
        exactalg.MPoly: ("__mul__", "__rmul__"),
        series.Series: ("__mul__", "__rmul__", "divide"),
        ratfunc.RatFunc: ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__", "inverse"),
        ratfunc.Poly: ("gcd",),
    }

    def test_every_binding_is_wrapped_and_restored(self):
        before = {(owner, name): vars(owner)[name] for owner, names in self.IMPORTED.items() for name in names}
        everything = {(id(o), a): v for o in tracer._containers() for a, v in vars(o).items()}
        with tracer.Tracer():
            for (owner, name), orig in before.items():
                now = vars(owner)[name]
                self.assertIsNot(now, orig, f"{owner.__name__}.{name}")
                self.assertIs(now.__wrapped__, orig, f"{owner.__name__}.{name}")
        after = {(id(o), a): v for o in tracer._containers() for a, v in vars(o).items()}
        self.assertEqual(everything.keys(), after.keys())
        for key, value in everything.items():
            self.assertIs(after[key], value, key)

    def test_traced_passes_repeat_counts_and_outputs(self):
        plain = run_pass(mini_jobs(), None)
        counts = []
        for _ in range(2):
            with tracer.Tracer() as tr:
                traced = run_pass(mini_jobs(), None)
            self.assertEqual(_digests(traced), _digests(plain))
            metrics = tracer.layer_metrics(tr.export(), traced["caches"])
            counts.append({n: v for n, v in metrics.items() if tracer.LAYER_METRICS[n][0] != "s"})
        self.assertEqual(counts[0], counts[1])
        for name in ("exactalg.mpoly_mul.calls", "exactalg.det.calls", "ratfunc.gcd.calls", "series.mul.calls",
                     "lattice_paths.z.calls", "maps_oracle.enumerate.maps_out"):
            self.assertGreater(counts[0][name], 0, name)
        self.assertEqual(counts[0]["contfrac.stieltjes.extract_per_result"], 1.0)


class FailureCounting(unittest.TestCase):
    def test_known_precision_failure_is_one_failed_op(self):
        # h_3^(0) has tau-valuation 12, beyond the probe's internal cap of 8
        jobs = [
            Job("stieltjes-6-3", lambda: repr(contfrac.stieltjes_rungs_from_solver(6, 3)), fingerprinted=False),
            workloads._cli_job("extract-stieltjes-6-3", ["extract", "--type", "stieltjes", "--i", "1..3", "--cap", "6"],
                               ["b6: equal"], fingerprinted=False),
            mini_jobs()[0],
        ]
        result = run_pass(jobs, None)
        errors = [job["error"] for job in result["jobs"]]
        self.assertEqual(errors[0]["type"], "NonInvertibleError")
        self.assertEqual(errors[1]["type"], "JobFailure")
        self.assertIn("exit code 1", errors[1]["message"])
        self.assertIsNone(errors[2])

    def test_fingerprint_mismatch_is_a_failure(self):
        job = mini_jobs()[0]
        job.fingerprinted = True
        result = run_pass([job], {job.name: "0" * 64})
        self.assertEqual(result["jobs"][0]["error"]["type"], "FingerprintMismatch")


class Definitions(unittest.TestCase):
    def test_every_deterministic_job_has_a_fingerprint(self):
        recorded = workloads.load_fingerprints()
        for workload in workloads.WORKLOADS:
            for job in workloads.build(workload, 1):
                if job.fingerprinted:
                    self.assertIn(job.name, recorded)

    def test_seed_changes_no_job_list(self):
        for workload in workloads.WORKLOADS:
            names = [job.name for job in workloads.build(workload, 1)]
            self.assertEqual(names, [job.name for job in workloads.build(workload, 2)])

    def test_benchmark_json_names_what_run_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], ["wall_ref_s", "peak_rss_mib", "setup_s"])
        layer = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
        layer["trace_overhead_ratio"] = "traced/untraced"
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layer)

    def test_reference_loop_does_not_load_quadslice(self):
        # a change to quadslice must not be able to move the reference speed
        probe = "import sys, reference; reference.reference_s(1); print(sorted(m for m in sys.modules if 'quadslice' in m))"
        proc = subprocess.run([sys.executable, "-c", probe], cwd=HERE, capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.stdout.strip(), "[]")

    def test_run_refuses_without_a_source_tree(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "bivariate-solve", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=HERE, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
