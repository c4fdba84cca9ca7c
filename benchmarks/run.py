"""Benchmark entry point: times one workload and prints its metrics.

    python3 benchmarks/run.py --workload bivariate-solve --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``all`` runs every workload in turn.
Each pass runs in a fresh child interpreter (``workloads.py``), one child at a time, so every pass starts
cold and its peak resident memory is its own.  Passes repeat in a closed
loop while the next one is expected to end within ``--seconds``; at least
one pass always runs.

``--trace 0`` reports the end-to-end metrics: ``wall_ref_s`` (median pass
wall time at the reference speed), ``peak_rss_mib`` (median peak RSS of a
pass's child) and ``setup_s`` (median time of a fresh interpreter to import
``quadslice.cli``, at the reference speed).  ``reference.py`` explains the
reference speed; the measured times are printed beside them.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus ``trace_overhead_ratio``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, per-job medians and the failure counts in readable form.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from reference import REF_S, at_ref

HERE = Path(__file__).resolve().parent
SETUP_PER_PASS = 2  # import probes before each pass and after the last
HARD_LIMIT_S = 170.0  # the whole run ends within 180 s
IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import quadslice.cli\n"
    "seconds = time.perf_counter() - start\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "from reference import reference_s\n"
    "print(seconds, reference_s(8), quadslice.cli.__file__)\n"
)


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # set and dict orders, hence operation counts, repeat exactly
    return env


def _child(argv, env, timeout):
    """Run a child interpreter to completion and return its stdout."""
    proc = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(root, env, count):
    """Import times of quadslice.cli in ``count`` fresh interpreters, as
    (measured seconds, reference loop seconds timed right after)."""
    samples = []
    for _ in range(count):
        seconds, reference, path = _child(["-c", IMPORT_PROBE], env, timeout=60).split(maxsplit=2)
        if not Path(path.strip()).resolve().is_relative_to(root / "src"):
            raise RuntimeError(f"imported quadslice from {path.strip()}, not from {root / 'src'}")
        samples.append((float(seconds), float(reference)))
    return samples


def run_passes(workload, args, root, env, started):
    """Closed loop of passes, with import probes before each pass and after
    the last, so that the set-up samples spread over the run as the passes do.

    Returns (setup samples, untraced passes, traced passes); a pass that
    hit the time limit is recorded as None.
    """
    kinds = ["untraced", "traced"] if args.trace else ["untraced"]
    done = {kind: [] for kind in kinds}
    setup = []
    last = {}
    loop_start = time.perf_counter()
    for step in itertools.count():
        kind = kinds[step % len(kinds)]
        step_start = time.perf_counter()
        if all(done.values()) and step_start - loop_start + last[kind] > args.seconds:
            break
        setup += measure_setup(root, env, SETUP_PER_PASS)
        argv = [str(HERE / "workloads.py"), "--workload", workload, "--seed", str(args.seed)]
        if kind == "traced":
            argv.append("--trace")
        timeout = HARD_LIMIT_S - (time.perf_counter() - started)
        try:
            out = _child(argv, env, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            done[kind].append(None)
            break
        last[kind] = time.perf_counter() - step_start
        done[kind].append(json.loads(out.strip().splitlines()[-1]))
    setup += measure_setup(root, env, SETUP_PER_PASS)
    return setup, done["untraced"], done.get("traced", [])


def tail_note(values):
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n <= 10:
        return f"no percentile has ten samples beyond it (n={n})"
    pct = (100 * (n - 10)) // n
    return f"p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f} s (n={n})" if pct else f"n={n}"


def git_sha(root):
    if not (root / ".git").exists():
        return "unavailable"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "quadslice" / "cli.py").is_file():
        print(f"error: no quadslice source under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}")
    env = _env(root)
    return max(run_workload(name, args, root, env) for name in names)


def run_workload(workload, args, root, env):
    """Time one workload, print its readable lines and its JSON result."""
    started = time.perf_counter()
    try:
        setup, untraced, traced = run_passes(workload, args, root, env, started)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = [p for p in untraced + traced if p is not None]
    if not any(untraced) or (args.trace and not any(traced)):
        print("error: no pass of a needed kind finished within the time limit", file=sys.stderr)
        return 1
    timed_out = len(untraced + traced) - len(passes)
    attempted = sum(len(p["jobs"]) for p in passes) + timed_out
    failed = sum(1 for p in passes for j in p["jobs"] if j["error"]) + timed_out

    # every pass, traced or not, must give each job the same output
    digests = {}
    for p in passes:
        for j in p["jobs"]:
            if j["sha256"] is not None:
                digests.setdefault(j["name"], set()).add(j["sha256"])
    unstable = sorted(name for name, seen in digests.items() if len(seen) > 1)

    untraced = [p for p in untraced if p is not None]
    walls = [p["wall_s"] for p in untraced]
    walls_ref = [p["wall_ref_s"] for p in untraced]
    references = [ref for p in untraced for ref in p["reference_s"]] + [ref for _, ref in setup]
    print(f"# env python={platform.python_version()} git={git_sha(root)} nproc={os.cpu_count()} "
          f"workload={workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# samples untraced_passes={len(walls)} traced_passes={len(passes) - len(walls)} "
          f"setup_imports={len(setup)} reference_loops={len(references)}")
    print(f"# host speed: reference loop median {statistics.median(references):.4f} s, "
          f"{REF_S / statistics.median(references):.3f} x the reference speed ({REF_S:g} s a round)")
    print(f"# pass wall_s     {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"# pass wall_ref_s {' '.join(f'{w:.4f}' for w in walls_ref)}")
    for idx, job in enumerate(passes[0]["jobs"]):
        times = [p["jobs"][idx]["seconds"] for p in untraced]
        times_ref = [p["jobs"][idx]["at_ref_s"] for p in untraced]
        print(f"# job {job['name']:<22} median {statistics.median(times):9.4f} s, "
              f"{statistics.median(times_ref):9.4f} s at reference speed")
    for p in passes:
        for j in p["jobs"]:
            if j["error"]:
                print(f"# FAILED {j['name']}: {j['error']['type']}: {j['error']['message'][:200]}")
    if timed_out:
        print("# FAILED a pass exceeded the time limit")
    for name in unstable:
        print(f"# FAILED {name}: output differs between passes")
    print(f"# ops_failed={failed} ops_total={attempted} ops_failed_ratio={failed / attempted:.4f}")
    print(f"# wall_s = {statistics.median(walls):.6g} s measured; tail {tail_note(walls)}")
    print(f"# wall_ref_s tail: {tail_note(walls_ref)}")
    print(f"# setup_s = {statistics.median([s for s, _ in setup]):.6g} s measured")

    if args.trace:
        metrics, repeat_ok = _traced_metrics(untraced, [p for p in traced if p is not None])
    else:
        metrics = {
            "wall_ref_s": {"value": statistics.median(walls_ref), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median([p["maxrss_kib"] / 1024 for p in untraced]), "unit": "MiB"},
            "setup_s": {"value": statistics.median([at_ref(s, ref) for s, ref in setup]), "unit": "s"},
        }
        repeat_ok = True
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and not unstable and repeat_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _traced_metrics(untraced, traced):
    """Per-layer metrics: counts must repeat exactly across traced passes;
    times are medians over them."""
    per_pass = [tracer.layer_metrics(p["spans"], p["caches"]) for p in traced]
    metrics = {}
    repeat_ok = True
    for name, (unit, _) in tracer.LAYER_METRICS.items():
        values = [m[name] for m in per_pass]
        if unit != "s" and len(set(values)) > 1:
            print(f"# FAILED {name} differs between traced passes: {values}")
            repeat_ok = False
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    metrics["trace_overhead_ratio"] = {
        "value": statistics.median([p["wall_ref_s"] for p in traced])
        / statistics.median([p["wall_ref_s"] for p in untraced]),
        "unit": "traced/untraced",
    }
    spans = {}
    for p in traced:
        for name, s in p["spans"].items():
            spans.setdefault(name, []).append(s["self_s"])
    for name, selfs in sorted(spans.items(), key=lambda kv: -statistics.median(kv[1])):
        print(f"# span {name:<28} self {statistics.median(selfs):9.4f} s  calls {traced[0]['spans'][name]['calls']}")
    return metrics, repeat_ok


if __name__ == "__main__":
    sys.exit(main())
