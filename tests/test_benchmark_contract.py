"""The benchmark's bindings into the package, and golden solver tables.

``benchmarks/tracer.py`` names the functions it wraps as "module:attr"
strings and ``benchmarks/workloads.py`` clears the solver and oracle caches
before every cold pass.  Both bind package names from outside ``src/``, so
a rename has to fail here instead of silently breaking a traced run.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from quadslice.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_binding_resolves():
    for bindings in tracer.SPANS.values():
        for binding in bindings:
            assert callable(tracer._resolve(binding)), binding


def test_every_by_name_import_is_bound():
    # the names the tracer must rebind in the importing module too; the
    # module is imported, not its classes, so pytest collects none of them
    import selftest

    for owner, names in selftest.TracerBindings.IMPORTED.items():
        for name in names:
            assert name in vars(owner), f"{owner.__name__}.{name}"


def test_every_benchmark_cache_clears_and_counts():
    assert set(workloads.CACHES["slice_solver"]) == set(tracer._SOLVER_CACHES)
    assert set(workloads.CACHES["maps_oracle"]) == set(tracer._ORACLE_CACHES)
    for layer in workloads.CACHES.values():
        for name, cached in layer.items():
            assert hasattr(cached, "cache_clear") and hasattr(cached, "cache_info"), name


# sha256 of `quadslice table --what W --i RANGE --cap 8 --format json`,
# recorded before the recursion systems were folded into one rule each
GOLDEN = {
    ("b", "1..10"): "99ec401014591e3b1d92e5591a6b9627e2fb3408e23a3b355958cba9742f65ce",
    ("w", "1..10"): "5b48c23501a90447f622889bfa8765e5963770a47cbdd94531f570b9ed327d4d",
    ("p", "1..10"): "588b7251088c28f5304b1c0ae1641e3cb17231cb1eff10e2fa934146e727607d",
    ("q", "1..10"): "64ee0e352a2aa8b85ece71c34e037d5482c2eb8979cb3e3d709e49c4bed71f88",
    ("y", "1..22"): "b532ccb17bbe891ef98f02acc59af0a7b38d0a6a065ddeb87561acc919dc06e7",
}


@pytest.mark.parametrize("what,heights", sorted(GOLDEN))
def test_solver_tables_match_golden(what, heights):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["table", "--what", what, "--i", heights, "--cap", "8", "--format", "json"])
    assert rc == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[(what, heights)]
