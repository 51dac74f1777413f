"""The benchmark's trace hooks against the package: a traced run of each
workload kind completes and its hooks count what they read.

``benchmark/run.py`` wraps the functions named in ``TRACE_TARGETS`` and its
hooks read their arguments and results (``ara_search``'s ``cache=`` keyword,
``extend``'s status), so an interface change that the untraced tests pass
would only crash a traced benchmark run.  The benchmark files are imported,
never changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture
def run(monkeypatch):
    """``benchmark/run.py`` as a module; sys.path and sys.modules are
    restored afterwards."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "benchmark_run", module)
    spec.loader.exec_module(module)
    return module


def test_traced_queries_run_every_hook(run):
    # One quick solved query per planner and one stored path of suite 424242.
    ara = run.set_up(run.ARA_SHELF, run.DEFAULT_SUITE_SEED)
    rrt = run.set_up(run.RRT_SHELF, run.DEFAULT_SUITE_SEED)
    fine = run.set_up(run.VALIDATE_FINE, run.DEFAULT_SUITE_SEED)
    tracer = run.Tracer()
    with tracer.installed(run.TRACE_TARGETS):
        outcomes = [ara.run(ara.ops[5]), rrt.run(rrt.ops[22])]
        valid, _ = fine.run(fine.ops[0])
    assert [out.status for out in outcomes] == [run.bench.SOLVED_FORWARD] * 2
    assert valid is fine.ops[0].expected_valid
    assert tracer.counts["ara_star.cache_entries"] > 0
    assert tracer.counts["ara_star.successors.moves"] > 0
    assert tracer.calls["rrt_connect.extend"] > 0
    assert tracer.calls["rrt_connect.connect"] > 0
    assert tracer.calls["core.validate_path"] == 1
